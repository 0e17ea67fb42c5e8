//! Every metric the benchmark reports, with its unit and meaning. The
//! usage text is printed from these tables, and `BENCHMARK.json` at the
//! repository root lists the same names (a test keeps the two in step).

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub definition: &'static str,
}

/// Reported by every workload's untraced run (the JSON `metrics`).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        definition: "median of 9 set-ups: edge-list parse + CSR + engine construction; \
                     for the server, spawn until the first `ping` reply",
    },
    EndToEnd {
        name: "throughput_qps",
        unit: "1/s",
        better: "higher",
        definition: "queries answered per second of the measured phase",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        definition: "median wait for one answer: one `generate_tspg` call (paper), the \
                     batch's `run_batch_with_stats` wall for each of its queries (batch), \
                     request write to reply read (serve, live)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        definition: "VmHWM of the process holding the engine (the benchmark process for \
                     paper and batch, read before the oracle runs; tspg-server otherwise)",
    },
];

/// Printed as `workload/name` lines but not part of the JSON: they exist
/// on some workloads only, or are 0 whenever the run is correct.
pub const EXTRA: &[(&str, &str, &str, &str)] = &[
    ("latency_p90_ms", "ms", "all", "nearest-rank p90 of the latency samples; not gated: on a shared 2-vCPU host 2-10% of serve's requests stall past 3 ms, so any tail percentile of serve can land on either side of that edge (ten runs of one build: p95 spread 0.59; five: p90 spread 0.21)"),
    ("latency_p95_ms", "ms", "all", "nearest-rank p95 of the latency samples"),
    ("latency_p99_ms", "ms", "all", "nearest-rank p99 of the latency samples; a run with fewer than 1000 samples fails instead of reporting it"),
    ("latency_samples", "count", "all", "latency samples behind the percentiles (batch: one per query, each its batch's wall)"),
    ("error_rate", "ratio", "all", "(error, refused and dropped replies + wrong or stale answers) / attempted"),
    ("oracle_checked_share", "ratio", "paper", "share of distinct queries EPtgTSG finished within its step budget and so checked"),
    ("ingest_p50_ms", "ms", "live", "median time from an ingest falling due (400 more queries issued) to its `ingested` ack"),
    ("graph.extend_ms", "ms", "live", "mean `QueryEngine::ingest` of the run's edge batches, replayed in-process; should move live/ingest_p50_ms and live p90/p99"),
    ("generator.ingest_lag_ms", "ms", "live", "median time from an ingest falling due to its send"),
    ("profile.ms", "ms", "batch", "mean `ArrivalProfile::compute` per profile group of the run's plans"),
    ("profile.clamp_ms", "ms", "batch", "mean `ArrivalProfile::clamp_into` per grouped unit"),
    ("planner.ms", "ms", "batch", "mean `planner::plan` over a batch's pending list"),
    ("executor.ms", "ms", "batch", "mean `run_batch_with_stats` wall minus planner.ms"),
    ("server.rtt_us", "us", "serve, live", "mean `ping` round trip on an idle connection"),
    ("server.protocol.parse_us", "us", "serve, live", "mean `protocol::parse_request` over the run's request lines"),
    ("server.protocol.format_us", "us", "serve, live", "mean `protocol::format_result` over the run's answers"),
];

/// A per-layer metric of the traced run, the boundary it is taken at, and
/// the end-to-end metric it should move.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub boundary: &'static str,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    boundary: &'static str,
    moves: &'static str,
) -> Layer {
    Layer { name, unit, boundary, moves }
}

/// Reported by every workload's traced run (the JSON `metrics`). Counters
/// of a layer a workload never reaches read 0.
pub const PER_LAYER: &[Layer] = &[
    layer(
        "graph.load_ms",
        "ms",
        "io::read_edge_list_file in the benchmark process, mean per file",
        "setup_s on all four",
    ),
    layer("graph.edges", "count", "edges loaded from the run's graph files", "setup_s on all four"),
    layer(
        "polarity.ms",
        "ms",
        "polarity::compute_polarity_into, mean per replayed query",
        "paper/throughput_qps, batch/throughput_qps",
    ),
    layer(
        "quick_ubg.ms",
        "ms",
        "quick_ubg::quick_upper_bound_graph_into, mean",
        "paper/latency_p50_ms, batch/throughput_qps, serve/latency_p99_ms",
    ),
    layer("quick_ubg.edges", "count", "mean |G_q| of replayed queries", "as quick_ubg.ms"),
    layer(
        "tight_ubg.ms",
        "ms",
        "TcvTables::recompute + tight_ubg::tight_upper_bound_graph_into, mean",
        "as quick_ubg.ms",
    ),
    layer("tight_ubg.edges", "count", "mean |G_t| of replayed queries", "as quick_ubg.ms"),
    layer(
        "eev.ms",
        "ms",
        "eev::escaped_edges_verification_scratch, mean",
        "paper/latency_p90_ms and p99",
    ),
    layer(
        "eev.searches",
        "count",
        "mean bidirectional searches per replayed query (EevStats)",
        "paper/latency_p90_ms and p99",
    ),
    layer(
        "eev.expansions",
        "count",
        "mean search expansions per replayed query",
        "paper/latency_p90_ms and p99",
    ),
    layer(
        "eev.search_yield",
        "ratio",
        "search successes / searches",
        "paper/latency_p90_ms and p99",
    ),
    layer("ubg.tightness", "ratio", "sum |tspG| / sum |G_t| (Table II)", "explains paper/*"),
    layer(
        "planner.queries",
        "count",
        "queries the engine saw in the traced phase (base of the counters below)",
        "-",
    ),
    layer(
        "planner.pipeline_runs",
        "count",
        "BatchStats executed + envelope units",
        "batch/throughput_qps, live/throughput_qps",
    ),
    layer(
        "planner.dedup_answered",
        "count",
        "BatchStats",
        "batch/throughput_qps, live/throughput_qps",
    ),
    layer(
        "planner.shared_answered",
        "count",
        "BatchStats",
        "batch/throughput_qps, live/throughput_qps",
    ),
    layer(
        "planner.envelope_units",
        "count",
        "BatchStats",
        "batch/throughput_qps, live/throughput_qps",
    ),
    layer(
        "planner.envelope_answered",
        "count",
        "BatchStats",
        "batch/throughput_qps, live/throughput_qps",
    ),
    layer(
        "planner.envelope_yield",
        "ratio",
        "envelope_answered / envelope_units",
        "batch/throughput_qps",
    ),
    layer(
        "planner.profile_groups",
        "count",
        "BatchStats",
        "batch/throughput_qps, live/throughput_qps",
    ),
    layer(
        "planner.profile_answered",
        "count",
        "BatchStats",
        "batch/throughput_qps, live/throughput_qps",
    ),
    layer(
        "cache.hit_rate",
        "ratio",
        "CacheStats or `stats` deltas: hits / (hits + misses)",
        "serve/latency_p50_ms, serve/throughput_qps, live/throughput_qps",
    ),
    layer(
        "cache.evictions",
        "count",
        "CacheStats or `stats` deltas",
        "serve/latency_p50_ms, live/throughput_qps",
    ),
    layer(
        "profile_cache.hit_rate",
        "ratio",
        "ProfileCacheStats or `stats` deltas",
        "live/throughput_qps",
    ),
    layer(
        "server.admission.batch_size",
        "ratio",
        "`stats` deltas: queries / batches",
        "serve/latency_p50_ms (timer floor), live/throughput_qps",
    ),
    layer("server.admission.timer_flushes", "count", "`stats` deltas", "serve/latency_p50_ms"),
    layer("server.admission.size_flushes", "count", "`stats` deltas", "live/throughput_qps"),
    layer("server.admission.empty_wakeups", "count", "`stats` deltas", "serve/latency_p50_ms"),
    layer("server.responses", "count", "`stats` deltas", "error_rate on serve and live"),
    layer("server.dropped", "count", "`stats` deltas", "error_rate on serve and live"),
    layer("server.quota_rejections", "count", "`stats` deltas", "error_rate on serve and live"),
    layer("server.malformed", "count", "`stats` deltas", "error_rate on serve and live"),
    layer(
        "trace.overhead_pct",
        "%",
        "100 x (untraced - traced) / untraced throughput_qps",
        "none (checks the tracing)",
    ),
];

/// Unit of a metric named in any table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .chain(EXTRA.iter().map(|&(n, u, _, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in the metric tables"))
}

/// Why each workload exists (also recorded next to the benchmark).
/// `BENCHMARK.json` lists all but [`UNGATED`].
pub const WORKLOADS: &[(&str, &str)] = &[
    ("paper", "the paper's Exp-1/Exp-4 regime: one generate_tspg call at a time on the ten Table I analogues; the pipeline phases do all the work and EEV sets the tail"),
    ("batch", "the `tspg batch` path: seven mixed 420-query batches in turn through run_batch_with_stats from cold caches; dedup, followers, envelopes and profile groups carry the load"),
    ("serve", "interactive callers: two closed-loop connections of Zipf-repeated queries through tspg-server; the admission window and result-cache hits set latency"),
    ("live", "writes beside reads: one connection pipelines fan-out and Zipf queries while another ingests a 100-edge batch per 400 queries; every ingest rebuilds the CSR and flushes the cache"),
];

/// Workloads the command runs but `BENCHMARK.json` does not list, so no
/// change is gated on them: on a shared 2-vCPU host `batch`'s medians moved
/// by up to 30% with the host's speed, twice as much as the other
/// workloads', and one set of ten runs spread its p50 past the 0.25 bound.
pub const UNGATED: &[&str] = &["batch"];

/// The usage text: flags, workloads, metrics with units, and the layer to
/// end-to-end mapping.
pub fn usage() -> String {
    let mut out = String::from(
        "usage: perfbench --workload <paper|batch|serve|live|all> --seed <n> --seconds <s> \
         --trace <0|1>\n\n\
         Generates the workload's inputs from the seed, runs it against the real program for\n\
         the given seconds, checks every answer, prints each metric as `workload/metric value\n\
         unit` and ends with one JSON line {correct, attempted, failed, metrics}. Exits 1 on\n\
         any wrong or stale answer, 2 when the run cannot be set up.\n\n\
         --trace 0 reports the end-to-end metrics; --trace 1 runs the workload untraced and\n\
         then traced, and reports the per-layer metrics from spans recorded around the\n\
         benchmark's calls into each layer (written to perfbench/.work/traces/).\n\nworkloads:\n",
    );
    for (name, why) in WORKLOADS {
        out.push_str(&format!("  {name:<6} {why}\n"));
    }
    out.push_str(&format!(
        "  ({} runs on demand only: BENCHMARK.json leaves it out, see perfbench/NOTES.md)\n",
        UNGATED.join(", ")
    ));
    out.push_str("\nend-to-end metrics (--trace 0, every workload):\n");
    for m in END_TO_END {
        out.push_str(&format!("  {:<16} {:<4} {:<6} {}\n", m.name, m.unit, m.better, m.definition));
    }
    out.push_str("\nprinted only (not in the JSON):\n");
    for (name, unit, workloads, definition) in EXTRA {
        out.push_str(&format!("  {name:<26} {unit:<5} [{workloads}] {definition}\n"));
    }
    out.push_str(
        "\nper-layer metrics (--trace 1, every workload) -> end-to-end metric they should move:\n",
    );
    for m in PER_LAYER {
        out.push_str(&format!("  {:<31} {:<5} {} -> {}\n", m.name, m.unit, m.boundary, m.moves));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(EXTRA.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a metric or workload name is used twice");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = json.matches("\"name\"").count();
        let gated = WORKLOADS.iter().map(|w| w.0).filter(|w| !UNGATED.contains(w));
        assert_eq!(listed, gated.clone().count() + END_TO_END.len() + PER_LAYER.len());
        for name in UNGATED {
            assert!(!json.contains(&format!("\"name\": \"{name}\"")), "{name} listed");
        }
        let names =
            gated.chain(END_TO_END.iter().map(|m| m.name)).chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name} missing");
        }
        for m in END_TO_END {
            let unit = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&unit), "{unit}");
        }
    }

    #[test]
    fn usage_names_every_workload_and_metric() {
        let text = usage();
        for name in WORKLOADS.iter().map(|w| w.0).chain(END_TO_END.iter().map(|m| m.name)) {
            assert!(text.contains(name), "{name}");
        }
        for m in PER_LAYER {
            assert!(text.contains(m.name), "{}", m.name);
        }
    }
}
