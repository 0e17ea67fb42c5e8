//! One function per paper artifact (table / figure), plus the serving
//! experiments beyond the paper, each returning plain-text [`Table`]s that
//! the `experiments` binary prints.

use crate::harness::{
    format_bytes, format_duration, run_workload, Algorithm, AlgorithmOutcome, HarnessConfig, Table,
};
use std::time::Instant;
use tspg_baselines::EpAlgorithm;
use tspg_core::{
    generate_tspg, quick_upper_bound_graph, tight_upper_bound_graph, BatchStats, PlannerConfig,
    QueryEngine, QuerySpec, VugResult,
};
use tspg_datasets::{
    generate_edge_stream, generate_fanout_workload, generate_overlapping_workload,
    generate_repeated_workload, generate_transit, EdgeStreamConfig, FanoutWorkloadConfig,
    GraphGenerator, OverlappingWorkloadConfig, RepeatedWorkloadConfig, WorkloadError,
};
use tspg_enum::{count_paths, naive_tspg};
use tspg_graph::{GraphStats, TemporalGraph, TimeInterval};

/// Table I analogue: statistics of the generated datasets at the configured
/// scale, next to the full-size statistics of the real datasets they mirror.
pub fn table1_datasets(cfg: &HarnessConfig) -> Table {
    let mut table = Table::new(
        "Table I — datasets (synthetic analogues at the configured scale)",
        &["id", "source", "|V|", "|E|", "|T|", "d", "theta", "|V| full", "|E| full"],
    );
    for spec in cfg.selected_specs() {
        let prepared = cfg.prepare(&spec);
        let stats = GraphStats::compute(&prepared.graph);
        table.push_row(vec![
            spec.id.to_string(),
            spec.source_name.to_string(),
            stats.num_vertices.to_string(),
            stats.num_edges.to_string(),
            stats.num_timestamps.to_string(),
            stats.max_degree.to_string(),
            spec.default_theta.to_string(),
            spec.full_vertices.to_string(),
            spec.full_edges.to_string(),
        ]);
    }
    table
}

/// Exp-1 / Fig. 5: total response time of the four algorithms on every
/// dataset under the default θ.
pub fn exp1_response_time(cfg: &HarnessConfig) -> Table {
    let mut table = Table::new(
        "Exp-1 (Fig. 5) — total response time per dataset",
        &["dataset", "queries", "EPdtTSG", "EPesTSG", "EPtgTSG", "VUG", "VUG speedup vs best EP"],
    );
    for spec in cfg.selected_specs() {
        let prepared = cfg.prepare(&spec);
        let outcomes: Vec<AlgorithmOutcome> = Algorithm::HEADLINE
            .iter()
            .map(|&alg| run_workload(alg, &prepared, &cfg.baseline_budget))
            .collect();
        let vug = outcomes[3];
        let best_ep = outcomes[..3].iter().filter(|o| !o.is_inf()).map(|o| o.total_elapsed).min();
        let speedup = match best_ep {
            Some(best) if vug.total_elapsed.as_secs_f64() > 0.0 => {
                format!("{:.1}x", best.as_secs_f64() / vug.total_elapsed.as_secs_f64())
            }
            _ => ">INF".to_string(),
        };
        table.push_row(vec![
            prepared.id.clone(),
            prepared.queries.len().to_string(),
            outcomes[0].render_time(),
            outcomes[1].render_time(),
            outcomes[2].render_time(),
            outcomes[3].render_time(),
            speedup,
        ]);
    }
    table
}

/// Exp-2 / Figs. 6 & 14: response time while varying the query span θ.
pub fn exp2_vary_theta(cfg: &HarnessConfig, dataset_ids: &[&str]) -> Vec<Table> {
    let mut tables = Vec::new();
    for id in dataset_ids {
        let Some(spec) = tspg_datasets::find(id) else { continue };
        if !cfg.datasets.is_empty() && !cfg.datasets.iter().any(|d| d.eq_ignore_ascii_case(id)) {
            continue;
        }
        let mut table = Table::new(
            format!("Exp-2 (Fig. 6) — response time vs theta on {id}"),
            &["theta", "EPdtTSG", "EPesTSG", "EPtgTSG", "VUG"],
        );
        for delta in [-4i64, -2, 0, 2, 4] {
            let theta = (spec.default_theta + delta).max(2);
            let prepared = cfg.prepare_with_theta(&spec, theta);
            let row: Vec<String> = Algorithm::HEADLINE
                .iter()
                .map(|&alg| run_workload(alg, &prepared, &cfg.baseline_budget).render_time())
                .collect();
            let mut cells = vec![theta.to_string()];
            cells.extend(row);
            table.push_row(cells);
        }
        tables.push(table);
    }
    tables
}

/// Exp-3 / Fig. 7: maximum and minimum per-query space consumption.
pub fn exp3_space(cfg: &HarnessConfig) -> Table {
    let mut table = Table::new(
        "Exp-3 (Fig. 7) — per-query space consumption (min / max over the workload)",
        &["dataset", "EPdtTSG", "EPesTSG", "EPtgTSG", "VUG"],
    );
    for spec in cfg.selected_specs() {
        let prepared = cfg.prepare(&spec);
        let cells: Vec<String> = Algorithm::HEADLINE
            .iter()
            .map(|&alg| {
                let agg = run_workload(alg, &prepared, &cfg.baseline_budget);
                format!("{} / {}", format_bytes(agg.min_bytes), format_bytes(agg.max_bytes))
            })
            .collect();
        let mut row = vec![prepared.id.clone()];
        row.extend(cells);
        table.push_row(row);
    }
    table
}

/// Exp-4 / Fig. 8: response time of each VUG phase.
pub fn exp4_phases(cfg: &HarnessConfig) -> Table {
    let mut table = Table::new(
        "Exp-4 (Fig. 8) — response time of each phase of VUG",
        &["dataset", "QuickUBG", "TightUBG", "EEV", "total"],
    );
    for spec in cfg.selected_specs() {
        let prepared = cfg.prepare(&spec);
        let agg = run_workload(Algorithm::Vug, &prepared, &cfg.baseline_budget);
        let (quick, tight, eev) = agg.total_phases;
        table.push_row(vec![
            prepared.id.clone(),
            format_duration(quick),
            format_duration(tight),
            format_duration(eev),
            format_duration(agg.total_elapsed),
        ]);
    }
    table
}

/// Table II: average upper-bound ratio (percentage of the tspG inside each
/// upper-bound graph) for the five constructions.
pub fn table2_upper_bound_ratio(cfg: &HarnessConfig) -> Table {
    let mut table = Table::new(
        "Table II — average upper-bound ratio (%)",
        &["dataset", "dtTSG", "esTSG", "tgTSG", "QuickUBG", "TightUBG"],
    );
    for spec in cfg.selected_specs() {
        let prepared = cfg.prepare(&spec);
        let mut totals = [0u64; 5];
        let mut tspg_edges = 0u64;
        for q in &prepared.queries {
            let vug = generate_tspg(&prepared.graph, q.source, q.target, q.window);
            tspg_edges += vug.report.result_edges as u64;
            for (i, ep) in EpAlgorithm::ALL.iter().enumerate() {
                let ub = ep.upper_bound(&prepared.graph, q.source, q.target, q.window);
                totals[i] += ub.num_edges() as u64;
            }
            totals[3] += vug.report.quick_edges as u64;
            totals[4] += vug.report.tight_edges as u64;
        }
        let ratio = |bound: u64| -> String {
            if bound == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", 100.0 * tspg_edges as f64 / bound as f64)
            }
        };
        table.push_row(vec![
            prepared.id.clone(),
            ratio(totals[0]),
            ratio(totals[1]),
            ratio(totals[2]),
            ratio(totals[3]),
            ratio(totals[4]),
        ]);
    }
    table
}

/// Exp-5 / Fig. 9: response time of the Dijkstra-based `tgTSG` versus
/// `QuickUBG` (identical reductions, different machinery).
pub fn exp5_quick_vs_tg(cfg: &HarnessConfig) -> Table {
    let mut table = Table::new(
        "Exp-5 (Fig. 9) — upper-bound graph construction: tgTSG vs QuickUBG",
        &["dataset", "tgTSG", "QuickUBG", "speedup", "edges identical"],
    );
    for spec in cfg.selected_specs() {
        let prepared = cfg.prepare(&spec);
        let mut tg_time = std::time::Duration::ZERO;
        let mut quick_time = std::time::Duration::ZERO;
        let mut identical = true;
        for q in &prepared.queries {
            let started = Instant::now();
            let tg = tspg_baselines::tg_tsg(&prepared.graph, q.source, q.target, q.window);
            tg_time += started.elapsed();
            let started = Instant::now();
            let quick = quick_upper_bound_graph(&prepared.graph, q.source, q.target, q.window);
            quick_time += started.elapsed();
            identical &= tg.edges() == quick.edges();
        }
        let speedup = if quick_time.as_secs_f64() > 0.0 {
            format!("{:.1}x", tg_time.as_secs_f64() / quick_time.as_secs_f64())
        } else {
            "-".to_string()
        };
        table.push_row(vec![
            prepared.id.clone(),
            format_duration(tg_time),
            format_duration(quick_time),
            speedup,
            identical.to_string(),
        ]);
    }
    table
}

/// Exp-5 / Figs. 10 & 15: upper-bound generation time and ratio while
/// varying θ on selected datasets.
pub fn exp5_vary_theta(cfg: &HarnessConfig, dataset_ids: &[&str]) -> Vec<Table> {
    let mut tables = Vec::new();
    for id in dataset_ids {
        let Some(spec) = tspg_datasets::find(id) else { continue };
        let mut table = Table::new(
            format!("Exp-5 (Fig. 10) — upper-bound generation vs theta on {id}"),
            &["theta", "QuickUBG time", "TightUBG time", "QuickUBG ratio %", "TightUBG ratio %"],
        );
        for delta in [-4i64, -2, 0, 2, 4] {
            let theta = (spec.default_theta + delta).max(2);
            let prepared = cfg.prepare_with_theta(&spec, theta);
            let mut quick_time = std::time::Duration::ZERO;
            let mut tight_time = std::time::Duration::ZERO;
            let mut quick_edges = 0u64;
            let mut tight_edges = 0u64;
            let mut tspg_edges = 0u64;
            for q in &prepared.queries {
                let started = Instant::now();
                let gq = quick_upper_bound_graph(&prepared.graph, q.source, q.target, q.window);
                quick_time += started.elapsed();
                let started = Instant::now();
                let gt = tight_upper_bound_graph(&gq, q.source, q.target);
                tight_time += started.elapsed();
                quick_edges += gq.num_edges() as u64;
                tight_edges += gt.num_edges() as u64;
                tspg_edges += generate_tspg(&prepared.graph, q.source, q.target, q.window)
                    .report
                    .result_edges as u64;
            }
            let pct = |bound: u64| {
                if bound == 0 {
                    "-".into()
                } else {
                    format!("{:.1}", 100.0 * tspg_edges as f64 / bound as f64)
                }
            };
            table.push_row(vec![
                theta.to_string(),
                format_duration(quick_time),
                format_duration(tight_time),
                pct(quick_edges),
                pct(tight_edges),
            ]);
        }
        tables.push(table);
    }
    tables
}

/// Exp-6 / Fig. 11: EEV versus exhaustive enumeration, both applied to the
/// tight upper-bound graph, while varying θ.
pub fn exp6_eev_vs_enumeration(cfg: &HarnessConfig, dataset_ids: &[&str]) -> Vec<Table> {
    let mut tables = Vec::new();
    for id in dataset_ids {
        let Some(spec) = tspg_datasets::find(id) else { continue };
        let mut table = Table::new(
            format!("Exp-6 (Fig. 11) — EEV vs enumeration on G_t, dataset {id}"),
            &["theta", "Enumeration", "EEV", "speedup"],
        );
        for delta in [-2i64, 0, 2] {
            let theta = (spec.default_theta + delta).max(2);
            let prepared = cfg.prepare_with_theta(&spec, theta);
            let mut enum_time = std::time::Duration::ZERO;
            let mut eev_time = std::time::Duration::ZERO;
            let mut enum_inf = false;
            for q in &prepared.queries {
                let gq = quick_upper_bound_graph(&prepared.graph, q.source, q.target, q.window);
                let gt = tight_upper_bound_graph(&gq, q.source, q.target);
                let started = Instant::now();
                let naive = naive_tspg(&gt, q.source, q.target, q.window, &cfg.baseline_budget);
                enum_time += started.elapsed();
                enum_inf |= !naive.is_exact();
                let started = Instant::now();
                let _ = tspg_core::escaped_edges_verification(
                    &gt,
                    q.source,
                    q.target,
                    q.window,
                    tspg_core::BidirOptions::default(),
                );
                eev_time += started.elapsed();
            }
            let enum_cell = if enum_inf { "INF".to_string() } else { format_duration(enum_time) };
            let speedup = if enum_inf || eev_time.is_zero() {
                ">INF".to_string()
            } else {
                format!("{:.1}x", enum_time.as_secs_f64() / eev_time.as_secs_f64())
            };
            table.push_row(vec![theta.to_string(), enum_cell, format_duration(eev_time), speedup]);
        }
        tables.push(table);
    }
    tables
}

/// Exp-7 / Fig. 12: number of edges in the tspG versus the number of
/// temporal simple paths it contains, varying θ.
pub fn exp7_paths_vs_edges(cfg: &HarnessConfig, dataset_ids: &[&str]) -> Vec<Table> {
    let mut tables = Vec::new();
    for id in dataset_ids {
        let Some(spec) = tspg_datasets::find(id) else { continue };
        let mut table = Table::new(
            format!("Exp-7 (Fig. 12) — #paths vs #edges in the tspG, dataset {id}"),
            &[
                "theta",
                "total tspG edges",
                "total tspG vertices",
                "total simple paths",
                "paths/edges",
            ],
        );
        for delta in [-2i64, 0, 2] {
            let theta = (spec.default_theta + delta).max(2);
            let prepared = cfg.prepare_with_theta(&spec, theta);
            let mut edges = 0u64;
            let mut vertices = 0u64;
            let mut paths = 0u64;
            for q in &prepared.queries {
                let vug = generate_tspg(&prepared.graph, q.source, q.target, q.window);
                edges += vug.report.result_edges as u64;
                vertices += vug.report.result_vertices as u64;
                // Counting is exponential; cap it with the baseline budget so
                // the reported number is a (usually exact) lower bound.
                let tspg_graph = vug.tspg.to_graph(prepared.graph.num_vertices());
                paths +=
                    count_paths(&tspg_graph, q.source, q.target, q.window, &cfg.baseline_budget)
                        .count;
            }
            let ratio = if edges == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", paths as f64 / edges as f64)
            };
            table.push_row(vec![
                theta.to_string(),
                edges.to_string(),
                vertices.to_string(),
                paths.to_string(),
                ratio,
            ]);
        }
        tables.push(table);
    }
    tables
}

/// Exp-9 (beyond the paper): throughput of the batch query engine.
///
/// For every selected dataset the same workload is answered three ways —
/// per-query one-shot `generate_tspg` calls (allocating all working state
/// afresh each time), the engine's sequential batch path (scratch reuse,
/// one worker), and the engine's parallel batch path (`threads` scoped
/// workers) — and the table reports wall-clock time and queries/second for
/// each, plus whether all three produced byte-identical result sets.
pub fn exp9_batch_throughput(cfg: &HarnessConfig, threads: usize) -> Table {
    let threads = threads.max(1);
    let mut table = Table::new(
        format!("Exp-9 — batch query engine throughput (parallel path: {threads} threads)"),
        &[
            "dataset",
            "queries",
            "one-shot",
            "batch x1",
            &format!("batch x{threads}"),
            "one-shot q/s",
            "batch x1 q/s",
            &format!("batch x{threads} q/s"),
            "identical",
        ],
    );
    for spec in cfg.selected_specs() {
        let prepared = cfg.prepare(&spec);
        // `Query` and the engine's `QuerySpec` are the same workspace type,
        // so the workload slice is passed through as-is.
        let queries: &[QuerySpec] = &prepared.queries;

        let started = Instant::now();
        let one_shot: Vec<VugResult> = queries
            .iter()
            .map(|q| generate_tspg(&prepared.graph, q.source, q.target, q.window))
            .collect();
        let one_shot_time = started.elapsed();

        // The cache is disabled so that the second and third runs measure
        // the raw execution paths, not cache hits (the ablation measures
        // those).
        let engine = QueryEngine::new(prepared.graph.clone()).without_cache();
        let started = Instant::now();
        let batch_seq = engine.run_batch(queries, 1);
        let seq_time = started.elapsed();
        let started = Instant::now();
        let batch_par = engine.run_batch(queries, threads);
        let par_time = started.elapsed();

        let identical = one_shot
            .iter()
            .zip(batch_seq.iter())
            .zip(batch_par.iter())
            .all(|((a, b), c)| a.tspg == b.tspg && b.tspg == c.tspg);
        let qps = |d: std::time::Duration| -> String {
            if d.as_secs_f64() > 0.0 {
                format!("{:.0}", queries.len() as f64 / d.as_secs_f64())
            } else {
                "-".to_string()
            }
        };
        table.push_row(vec![
            prepared.id.clone(),
            queries.len().to_string(),
            format_duration(one_shot_time),
            format_duration(seq_time),
            format_duration(par_time),
            qps(one_shot_time),
            qps(seq_time),
            qps(par_time),
            identical.to_string(),
        ]);
    }
    table
}

/// One arm of the [`ablation`]: the sharing layers a fresh engine gets.
/// Dedup and containment followers are part of every plan.
struct Arm {
    name: &'static str,
    envelopes: bool,
    profiles: bool,
    profile_cache: bool,
    result_cache: bool,
}

impl Arm {
    const fn new(
        name: &'static str,
        envelopes: bool,
        profiles: bool,
        profile_cache: bool,
        result_cache: bool,
    ) -> Self {
        Self { name, envelopes, profiles, profile_cache, result_cache }
    }

    fn engine(&self, graph: &TemporalGraph) -> QueryEngine {
        let planner = PlannerConfig { envelopes: self.envelopes, profile_sharing: self.profiles };
        let mut engine = QueryEngine::new(graph.clone()).with_planner(planner);
        if !self.result_cache {
            engine = engine.without_cache();
        }
        if !self.profile_cache {
            engine = engine.without_profile_cache();
        }
        engine
    }
}

/// The ablation's planned arms: every layer on but the result cache, each
/// layer off in turn, the result cache on, and every optional layer off.
#[rustfmt::skip]
const ARMS: [Arm; 6] = [
    //        name             envelopes profiles profile cache result cache
    Arm::new("all",            true,     true,    true,         false),
    Arm::new("-envelopes",     false,    true,    true,         false),
    Arm::new("-profiles",      true,     false,   true,         false),
    Arm::new("-profile cache", true,     true,    false,        false),
    Arm::new("+result cache",  true,     true,    true,         true),
    Arm::new("none",           false,    false,   false,        false),
];

/// Generates one ablation workload on `graph`: `n` catalog entries (Zipf
/// bases, overlap chains or fan-out bursts) of span `theta`.
type WorkloadFn = fn(&TemporalGraph, usize, i64, u64) -> Result<Vec<QuerySpec>, WorkloadError>;

/// The ablation's serving workloads, each the shape one layer exists for.
const WORKLOADS: [(&str, WorkloadFn); 4] = [
    // Zipf repeats and narrowed refinements of a hot catalog: dedup,
    // containment and the result cache.
    ("repeated", |graph, n, theta, seed| {
        generate_repeated_workload(graph, &RepeatedWorkloadConfig::new(n * 8, n, theta), seed)
    }),
    // Chains of six third-span-stride windows: overlapping, never nested,
    // so only envelopes collapse them.
    ("overlap", |graph, n, theta, seed| {
        let config = OverlappingWorkloadConfig {
            stride: (theta / 3).max(1),
            ..OverlappingWorkloadConfig::new(n * 6, n, theta)
        };
        generate_overlapping_workload(graph, &config, seed)
    }),
    // Bursts of ~8 same-source, same-begin queries: profile groups.
    ("fanout", |graph, n, theta, seed| {
        generate_fanout_workload(graph, &FanoutWorkloadConfig::new(n * 8, n, theta), seed)
    }),
    // The same bursts with begins jittered over half a window: profiles
    // clamped per member begin, and the profile cache on the warm pass.
    ("mixed-begin", |graph, n, theta, seed| {
        let config = FanoutWorkloadConfig::new(n * 8, n, theta).with_begin_jitter(theta / 2);
        generate_fanout_workload(graph, &config, seed)
    }),
];

/// The sharing-layer ablation (beyond the paper): each serving workload
/// answered with each layer the planner and the engine add over the
/// paper's pipeline switched off in turn.
///
/// Like the Exp-8 case study, this runs on graphs it generates itself: a
/// uniform and a hub-skewed serving graph sized off the configured scale
/// (`min_edges` edges, average degree ~6, windows ~6% of the timestamp
/// domain). The registry's dense miniatures are the wrong regime: there a
/// window's tspG covers most of the graph, so a rerun on a covering tspG
/// costs nearly as much as a run on the graph.
///
/// Per workload and graph, the `sequential` arm answers every query with
/// the raw [`QueryEngine::run`] path — one pipeline run per query, no
/// plan, no cache — and is the byte-identity reference. Each planned arm
/// (`ARMS`) answers the workload as one batch twice on one fresh engine,
/// cold and then warm. The table reports both wall times, the pipeline
/// runs and every layer's counters: the plan counters of the cold pass,
/// the cache hits of the warm one.
///
/// # Panics
///
/// Panics if any planned answer differs from the sequential one; if
/// planning fails to save runs on `repeated`; if envelopes fail to save
/// runs over containment-only planning on `overlap`; if a fan-out workload
/// forms no profile group with profiles on, any with them off, or changes
/// its run count between the two; or if the warm `mixed-begin` pass misses
/// the profile cache. CI runs this on every push and greps the identity
/// column.
pub fn ablation(cfg: &HarnessConfig, threads: usize) -> Table {
    let threads = threads.max(1);
    let mut table = Table::new(
        format!("Ablation — serving workloads with each sharing layer off ({threads} threads)"),
        &[
            "workload",
            "graph",
            "arm",
            "queries",
            "cold",
            "warm",
            "runs",
            "dedup",
            "shared",
            "env units",
            "env answered",
            "groups",
            "profile answered",
            "profile hits",
            "cache hits",
            "identical",
        ],
    );
    let edges = cfg.scale.min_edges.max(300);
    let vertices = (edges / 6).max(24);
    let timestamps = (edges / 10).max(40);
    let theta = (timestamps as i64 / 16).max(2);
    let n = cfg.queries_per_dataset.max(1);
    let shapes = [
        ("uniform", GraphGenerator::uniform(vertices, edges, timestamps)),
        ("hub", GraphGenerator::hub(vertices, edges, timestamps, 1.2)),
    ];
    for (graph_name, generator) in shapes {
        let graph = generator.generate(cfg.seed ^ 0xab1a);
        for (workload, generate) in WORKLOADS {
            let queries = match generate(&graph, n, theta, cfg.seed) {
                Ok(queries) => queries,
                Err(e) => {
                    eprintln!("ablation: skipping {workload} on {graph_name}: {e}");
                    continue;
                }
            };
            let row = |arm: &str, cells: Vec<String>| {
                let mut row = vec![workload.into(), graph_name.into(), arm.into()];
                row.push(queries.len().to_string());
                row.extend(cells);
                row
            };

            let reference_engine = QueryEngine::new(graph.clone()).without_cache();
            let mut scratch = tspg_core::QueryScratch::new();
            let started = Instant::now();
            let reference: Vec<VugResult> =
                queries.iter().map(|&q| reference_engine.run(q, &mut scratch)).collect();
            let elapsed = format_duration(started.elapsed());
            let mut cells = vec![elapsed, "-".into(), queries.len().to_string()];
            cells.extend(["-"; 8].map(String::from));
            cells.push("true".into());
            table.push_row(row("sequential", cells));

            // One untimed planned pass before the arms: without it, the arm
            // that ran first read ~80 µs slower at default scale, whichever
            // arm that was (checked with the arm order reversed).
            let _ = ARMS[0].engine(&graph).run_batch_with_stats(&queries, threads);
            let mut cold_stats: Vec<BatchStats> = Vec::with_capacity(ARMS.len());
            for arm in &ARMS {
                let context = format!("{workload} on {graph_name}, arm {}", arm.name);
                let engine = arm.engine(&graph);
                let started = Instant::now();
                let (cold_answers, cold) = engine.run_batch_with_stats(&queries, threads);
                let cold_time = started.elapsed();
                let profile_hits_cold = engine.profile_cache_stats().map(|c| c.hits);
                let started = Instant::now();
                let (warm_answers, warm) = engine.run_batch_with_stats(&queries, threads);
                let warm_time = started.elapsed();
                let profile_hits = engine.profile_cache_stats().zip(profile_hits_cold);
                let profile_hits = profile_hits.map(|(c, before)| c.hits - before);

                let identical = [&cold_answers, &warm_answers]
                    .iter()
                    .all(|answers| answers.iter().zip(&reference).all(|(a, b)| a.tspg == b.tspg));
                assert!(identical, "{context}: answers diverged from sequential");
                if workload == "mixed-begin" && arm.name == "all" {
                    assert!(
                        profile_hits.is_some_and(|hits| hits > 0),
                        "{context}: the warm pass must hit the profile cache: {warm:?}"
                    );
                }
                table.push_row(row(
                    arm.name,
                    vec![
                        format_duration(cold_time),
                        format_duration(warm_time),
                        cold.pipeline_runs().to_string(),
                        cold.dedup_answered.to_string(),
                        cold.shared_answered.to_string(),
                        cold.envelope_units.to_string(),
                        cold.envelope_answered.to_string(),
                        cold.profile_groups.to_string(),
                        cold.profile_answered.to_string(),
                        profile_hits.map_or("-".into(), |hits| hits.to_string()),
                        warm.cache_hits.to_string(),
                        identical.to_string(),
                    ],
                ));
                cold_stats.push(cold);
            }
            check_ablation(workload, graph_name, queries.len(), &cold_stats);
        }
    }
    table
}

/// The per-workload assertions of [`ablation`] over each arm's cold-pass
/// stats (in [`ARMS`] order).
fn check_ablation(workload: &str, graph: &str, queries: usize, stats: &[BatchStats]) {
    let arm = |name: &str| &stats[ARMS.iter().position(|a| a.name == name).expect("known arm")];
    let (all, no_profiles) = (arm("all"), arm("-profiles"));
    match workload {
        "repeated" => assert!(
            stats.iter().all(|s| s.pipeline_runs() < queries),
            "{graph}: planning saved no runs on {queries} repeated queries: {stats:?}"
        ),
        "overlap" => assert!(
            all.pipeline_runs() < arm("-envelopes").pipeline_runs(),
            "{graph}: envelopes saved no runs over containment-only planning: {stats:?}"
        ),
        "fanout" | "mixed-begin" => {
            assert!(all.profile_groups >= 1, "{graph}: {workload} formed no profile group");
            assert_eq!(no_profiles.profile_groups, 0, "{graph}: -profiles formed groups");
            assert_eq!(
                all.pipeline_runs(),
                no_profiles.pipeline_runs(),
                "{graph}: profile sharing changed the run count on {workload}"
            );
        }
        other => unreachable!("no checks for workload {other}"),
    }
}

/// Exp-15 (beyond the paper): warm-cache serving under a live edge feed.
///
/// The ablation above holds the graph fixed; a live deployment does not.
/// This experiment drives the epoch-versioned invalidation machinery end
/// to end: a fan-out serving workload runs warm on a caching engine while
/// a streamed edge feed
/// ([`tspg_datasets::generate_edge_stream`]) lands batch after batch via
/// [`QueryEngine::ingest`]. Every ingestion bumps the graph epoch and
/// flushes the result cache, so the next pass re-answers every query
/// against the mutated graph; a replay of the same pass then shows the hit
/// rate recovering from the flush.
///
/// The no-stale proof obligation is checked inline at every epoch: each
/// served answer is compared byte-for-byte against a cache-less engine
/// built from scratch over the current edge set. The `identical` column
/// records that cross-check (and the post-ingest vs replay agreement) for
/// CI to grep.
///
/// # Panics
///
/// Panics if a served answer diverges from the fresh-engine answer at any
/// epoch (a stale read), if an ingestion fails to advance the epoch by
/// exactly one, or if a replay reports no new result-cache hits (the hit
/// rate never recovered) — CI runs this experiment on every push and greps
/// the identity column.
pub fn exp15_live_ingestion(cfg: &HarnessConfig, threads: usize) -> Table {
    let threads = threads.max(1);
    let mut table = Table::new(
        format!("Exp-15 — warm-cache serving under a live edge feed ({threads} threads)"),
        &[
            "graph",
            "|V|",
            "|E| start",
            "|E| end",
            "queries",
            "epochs",
            "ingested",
            "cold",
            "post-ingest",
            "replay",
            "recovered hits",
            "identical",
        ],
    );
    // Same serving-graph shapes as the ablation.
    let edges = cfg.scale.min_edges.max(300);
    let vertices = (edges / 6).max(24);
    let timestamps = (edges / 10).max(40);
    let theta = (timestamps as i64 / 16).max(2);
    let shapes = [
        ("uniform", GraphGenerator::uniform(vertices, edges, timestamps)),
        ("hub", GraphGenerator::hub(vertices, edges, timestamps, 1.2)),
    ];
    for (name, generator) in shapes {
        let graph = generator.generate(cfg.seed ^ 0x15);
        let bursts = cfg.queries_per_dataset.max(1);
        let workload_cfg = FanoutWorkloadConfig::new(bursts * 4, bursts, theta);
        let queries = match generate_fanout_workload(&graph, &workload_cfg, cfg.seed) {
            Ok(queries) => queries,
            Err(e) => {
                eprintln!("exp15: skipping {name} graph — workload generation failed: {e}");
                continue;
            }
        };
        // The feed lands inside the graph's existing time domain, so the
        // new edges intersect live query windows and actually change
        // answers rather than appending dead weight past every window.
        let t_min = graph.edges().iter().map(|e| e.time).min().unwrap_or(0);
        let t_max = graph.edges().iter().map(|e| e.time).max().unwrap_or(0);
        let epochs = 3usize;
        let per_batch = (edges / 40).max(8);
        let step = ((t_max - t_min) / (epochs as i64 + 1)).max(1);
        let stream_cfg = EdgeStreamConfig::new(epochs, per_batch, t_min).with_time_step(step);
        let stream = match generate_edge_stream(&graph, &stream_cfg, cfg.seed ^ 0x51) {
            Ok(stream) => stream,
            Err(e) => {
                eprintln!("exp15: skipping {name} graph — edge stream generation failed: {e}");
                continue;
            }
        };

        // One live engine for the whole feed, default caches on.
        let mut engine = QueryEngine::new(graph.clone());
        let started = Instant::now();
        let _ = engine.run_batch_with_stats(&queries, threads);
        let cold_time = started.elapsed();

        let mut union = graph.edges().to_vec();
        let mut post_total = std::time::Duration::ZERO;
        let mut replay_total = std::time::Duration::ZERO;
        let mut recovered = 0u64;
        let mut ingested = 0usize;
        let mut final_edges = graph.num_edges();
        let mut identical = true;
        let mut scratch = tspg_core::QueryScratch::new();
        for (i, batch) in stream.iter().enumerate() {
            let before = engine.epoch();
            let epoch = engine.ingest(batch);
            assert_eq!(epoch, before.next(), "{name}: epoch {i}: ingestion must advance by one");
            ingested += batch.len();
            union.extend_from_slice(batch);
            let cache =
                || engine.cache_stats().expect("exp15 runs with the default result cache enabled");
            let hits_before = cache().hits;

            let started = Instant::now();
            let (post, _) = engine.run_batch_with_stats(&queries, threads);
            post_total += started.elapsed();

            // The no-stale obligation: a fresh cache-less engine over the
            // current edge set must agree byte-for-byte on every query.
            let fresh =
                QueryEngine::new(TemporalGraph::from_edges(graph.num_vertices(), union.clone()))
                    .without_cache();
            let fresh_ok = queries
                .iter()
                .zip(post.iter())
                .all(|(&q, served)| fresh.run(q, &mut scratch).tspg == served.tspg);
            assert!(fresh_ok, "{name}: epoch {i}: a served answer went stale after ingestion");
            final_edges = fresh.graph().num_edges();

            let started = Instant::now();
            let (replay, _) = engine.run_batch_with_stats(&queries, threads);
            replay_total += started.elapsed();
            let replay_ok = replay.iter().zip(post.iter()).all(|(a, b)| a.tspg == b.tspg);
            assert!(replay_ok, "{name}: epoch {i}: warm replay diverged from the post-ingest run");
            identical &= fresh_ok && replay_ok;

            let hits_after = cache().hits;
            assert!(
                hits_after > hits_before,
                "{name}: epoch {i}: the hit rate must recover after the epoch flush"
            );
            recovered += hits_after - hits_before;
        }
        table.push_row(vec![
            name.to_string(),
            graph.num_vertices().to_string(),
            graph.num_edges().to_string(),
            final_edges.to_string(),
            queries.len().to_string(),
            epochs.to_string(),
            ingested.to_string(),
            format_duration(cold_time),
            format_duration(post_total),
            format_duration(replay_total),
            recovered.to_string(),
            identical.to_string(),
        ]);
    }
    table
}

/// Sorted-latency percentile (nearest-rank on the closed interval).
fn percentile(sorted: &[std::time::Duration], p: f64) -> std::time::Duration {
    if sorted.is_empty() {
        return std::time::Duration::ZERO;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Exp-13 (beyond the paper): closed-loop serving latency through the
/// resident `tspg-server` vs the one-shot path, at several arrival rates.
///
/// A skewed repeated workload (the ablation's `repeated` shape) over a
/// serving graph is answered two ways:
///
/// * **one-shot** — the cost of answering each query in a fresh process:
///   one raw pipeline execution per query on an engine with no cache and
///   no batching (per-query latency measured around each run);
/// * **server** — the same queries pushed through a resident
///   [`tspg_server::Server`] over its unix socket by several concurrent
///   closed-loop clients, each pacing requests with a think time (the
///   arrival-rate knob: zero think time is an all-out burst, longer think
///   times approximate sparser Poisson-like traffic). Admission
///   micro-batching makes strangers' concurrent duplicates share
///   dedup/cache/frontier work, at the price of up to one admission window
///   of added latency.
///
/// The table reports p50/p95/p99 request latency per arm and the server's
/// batch/sharing counters. Every server answer is checked byte-identical
/// against a sequential reference engine before any row is emitted.
///
/// # Panics
///
/// Panics if any server answer differs from the sequential reference, if a
/// client sees a protocol error, or if the server fails to micro-batch an
/// all-out burst (fewer batches than requests) — CI runs this experiment
/// on every push and greps the identity column.
pub fn exp13_server_latency(cfg: &HarnessConfig, threads: usize) -> Table {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;
    use tspg_server::{protocol, Server, ServerConfig};

    let threads = threads.max(1);
    let mut table = Table::new(
        format!("Exp-13 — closed-loop serving latency through tspg-server ({threads} threads)"),
        &[
            "arm",
            "clients",
            "think",
            "queries",
            "p50",
            "p95",
            "p99",
            "batches",
            "cache hits",
            "dedup",
            "identical",
        ],
    );

    // Serving-graph shape, scaled by the harness's edge budget: sparse
    // graph, long timestamp domain, sliver-sized windows.
    let edges = cfg.scale.min_edges.max(300);
    let vertices = (edges / 6).max(24);
    let timestamps = (edges / 20).max(30);
    let theta = (timestamps as i64 / 12).max(2);
    let graph = GraphGenerator::uniform(vertices, edges, timestamps).generate(cfg.seed ^ 0x13);
    let workload_cfg = RepeatedWorkloadConfig::new(
        (cfg.queries_per_dataset * 4).max(8),
        cfg.queries_per_dataset.max(1),
        theta,
    );
    let queries = generate_repeated_workload(&graph, &workload_cfg, cfg.seed)
        .expect("exp13 workload generation");

    // Sequential reference: the ground truth every arm is compared against.
    let reference_engine = QueryEngine::new(graph.clone()).without_cache();
    let mut scratch = tspg_core::QueryScratch::new();
    let mut reference: Vec<VugResult> = Vec::with_capacity(queries.len());
    let mut one_shot: Vec<Duration> = Vec::with_capacity(queries.len());
    for &q in &queries {
        let started = Instant::now();
        let result = reference_engine.run(q, &mut scratch);
        one_shot.push(started.elapsed());
        reference.push(result);
    }
    one_shot.sort_unstable();
    table.push_row(vec![
        "one-shot".to_string(),
        "1".to_string(),
        "-".to_string(),
        queries.len().to_string(),
        format_duration(percentile(&one_shot, 50.0)),
        format_duration(percentile(&one_shot, 95.0)),
        format_duration(percentile(&one_shot, 99.0)),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "true".to_string(),
    ]);

    // Server arms: one per arrival rate (client think time).
    let clients = 4usize.min(queries.len().max(1));
    for (label, think) in [
        ("0", Duration::ZERO),
        ("500us", Duration::from_micros(500)),
        ("2ms", Duration::from_millis(2)),
    ] {
        let socket = std::env::temp_dir().join(format!(
            "tspg_exp13_{}_{label}_{:x}.sock",
            std::process::id(),
            cfg.seed
        ));
        let engine = QueryEngine::new(graph.clone());
        let config = ServerConfig {
            admit_max: 8,
            admit_window: Duration::from_millis(1),
            threads,
            ..ServerConfig::default()
        };
        let handle = Server::bind(engine, &socket, config).expect("exp13 server bind");

        // Closed-loop clients: request, wait for the answer, think, repeat.
        // Client c owns queries c, c + clients, c + 2*clients, ...
        let mut latencies: Vec<Duration> = Vec::with_capacity(queries.len());
        std::thread::scope(|scope| {
            let mut workers = Vec::new();
            for c in 0..clients {
                let socket = socket.clone();
                let queries = &queries;
                let reference = &reference;
                workers.push(scope.spawn(move || {
                    let stream = UnixStream::connect(&socket).expect("exp13 client connect");
                    let mut reader =
                        BufReader::new(stream.try_clone().expect("exp13 client clone"));
                    let mut writer = stream;
                    let mut latencies = Vec::new();
                    for i in (c..queries.len()).step_by(clients) {
                        let line = protocol::format_query(i as u64, &queries[i]);
                        let started = Instant::now();
                        writer
                            .write_all(line.as_bytes())
                            .and_then(|()| writer.write_all(b"\n"))
                            .and_then(|()| writer.flush())
                            .expect("exp13 client write");
                        let mut reply = String::new();
                        reader.read_line(&mut reply).expect("exp13 client read");
                        latencies.push(started.elapsed());
                        let response =
                            protocol::parse_response(reply.trim_end()).expect("exp13 client parse");
                        let protocol::Response::Result(payload) = response else {
                            panic!("exp13: unexpected reply {response:?}");
                        };
                        assert_eq!(payload.id, i as u64, "closed loop: replies match requests");
                        assert_eq!(
                            payload.edges,
                            reference[i].tspg.edges(),
                            "exp13: server answer for query {i} diverged from sequential"
                        );
                        if !think.is_zero() {
                            std::thread::sleep(think);
                        }
                    }
                    latencies
                }));
            }
            for worker in workers {
                latencies.extend(worker.join().expect("exp13 client thread"));
            }
        });

        handle.shutdown();
        let report = handle.join();
        assert_eq!(report.responses, queries.len() as u64);
        // At sparse arrival rates a batch may legitimately hold a single
        // request, so only the all-out burst pins the micro-batching win.
        assert!(
            !think.is_zero() || report.batches < queries.len() as u64 || queries.len() <= 1,
            "exp13: {} batches for {} burst requests — admission never micro-batched",
            report.batches,
            queries.len()
        );
        latencies.sort_unstable();
        table.push_row(vec![
            "server".to_string(),
            clients.to_string(),
            label.to_string(),
            queries.len().to_string(),
            format_duration(percentile(&latencies, 50.0)),
            format_duration(percentile(&latencies, 95.0)),
            format_duration(percentile(&latencies, 99.0)),
            report.batches.to_string(),
            report.totals.cache_hits.to_string(),
            report.totals.dedup_answered.to_string(),
            // Asserted per request above; recorded for the CI grep.
            "true".to_string(),
        ]);
    }
    table
}

/// Exp-8 / Fig. 13: the transit case study. Generates a synthetic bus
/// schedule (the SFMTA substitute), picks a transfer-rich query, and renders
/// the resulting tspG both as a table and as Graphviz DOT.
pub fn exp8_case_study(seed: u64) -> (Table, String) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let (graph, names) = generate_transit(&mut rng, 12, 10, 12, 2, 0.45, 240);

    // Pick the query with the richest tspG among a handful of hub pairs, to
    // mirror the Silver Ave → 30th St example of the paper.
    let hubs: Vec<_> = graph
        .non_isolated_vertices()
        .into_iter()
        .filter(|&v| names[v as usize].starts_with("Hub"))
        .collect();
    let mut best = None;
    for (i, &a) in hubs.iter().enumerate() {
        for &b in hubs.iter().skip(i + 1) {
            for begin in [30, 90, 150] {
                let window = TimeInterval::new(begin, begin + 10);
                let result = generate_tspg(&graph, a, b, window);
                let edges = result.tspg.num_edges();
                if best.as_ref().is_none_or(|(_, _, _, e)| edges > *e) && edges > 0 {
                    best = Some((a, b, window, edges));
                }
            }
        }
    }
    let (s, t, window, _) = best.expect("the schedule always has at least one connected hub pair");
    let result = generate_tspg(&graph, s, t, window);

    let mut table = Table::new(
        format!(
            "Exp-8 (Fig. 13) — transit case study: {} -> {} within {window}",
            names[s as usize], names[t as usize]
        ),
        &["from", "to", "departure"],
    );
    for e in result.tspg.edges() {
        table.push_row(vec![
            names[e.src as usize].clone(),
            names[e.dst as usize].clone(),
            e.time.to_string(),
        ]);
    }
    let tspg_graph = result.tspg.to_graph(graph.num_vertices());
    let dot = tspg_graph::io::to_dot(&tspg_graph, Some(&|v| names[v as usize].clone()));
    (table, dot)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> HarnessConfig {
        HarnessConfig { datasets: vec!["D1".into()], ..HarnessConfig::smoke() }
    }

    #[test]
    fn table1_lists_selected_datasets() {
        let t = table1_datasets(&smoke_cfg());
        assert_eq!(t.num_rows(), 1);
        assert!(t.render().contains("email-Eu-core"));
    }

    #[test]
    fn exp1_produces_one_row_per_dataset() {
        let t = exp1_response_time(&smoke_cfg());
        assert_eq!(t.num_rows(), 1);
        assert!(t.render().contains("D1"));
    }

    #[test]
    fn exp2_and_exp5_theta_sweeps_have_five_points() {
        let tables = exp2_vary_theta(&smoke_cfg(), &["D1"]);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].num_rows(), 5);
        let tables = exp5_vary_theta(&smoke_cfg(), &["D1"]);
        assert_eq!(tables[0].num_rows(), 5);
    }

    #[test]
    fn exp3_exp4_table2_run_on_smoke_config() {
        let cfg = smoke_cfg();
        assert_eq!(exp3_space(&cfg).num_rows(), 1);
        assert_eq!(exp4_phases(&cfg).num_rows(), 1);
        let t2 = table2_upper_bound_ratio(&cfg);
        assert_eq!(t2.num_rows(), 1);
    }

    #[test]
    fn exp5_reports_identical_reductions() {
        let t = exp5_quick_vs_tg(&smoke_cfg());
        assert!(t.render().contains("true"));
        assert!(!t.render().contains("false"));
    }

    #[test]
    fn exp6_and_exp7_produce_sweeps() {
        let cfg = smoke_cfg();
        let t = exp6_eev_vs_enumeration(&cfg, &["D1"]);
        assert_eq!(t[0].num_rows(), 3);
        let t = exp7_paths_vs_edges(&cfg, &["D1"]);
        assert_eq!(t[0].num_rows(), 3);
    }

    #[test]
    fn exp9_reports_identical_results_across_execution_modes() {
        let t = exp9_batch_throughput(&smoke_cfg(), 2);
        assert_eq!(t.num_rows(), 1);
        let text = t.render();
        assert!(text.contains("true"), "{text}");
        assert!(!text.contains("false"), "{text}");
    }

    #[test]
    fn ablation_checks_every_layer_and_stays_identical() {
        // Four workloads on two serving graphs, the sequential reference
        // plus six planned arms each; the per-workload checks run inside.
        let t = ablation(&smoke_cfg(), 2);
        assert_eq!(t.num_rows(), 4 * 2 * (1 + ARMS.len()));
        let text = t.render();
        assert!(text.contains("true"), "{text}");
        assert!(!text.contains("false"), "{text}");
    }

    #[test]
    fn exp15_live_ingestion_recovers_hits_and_never_serves_stale() {
        let t = exp15_live_ingestion(&smoke_cfg(), 2);
        assert_eq!(t.num_rows(), 2);
        let text = t.render();
        assert!(text.contains("true"), "{text}");
        assert!(!text.contains("false"), "{text}");
    }

    #[test]
    fn exp8_case_study_produces_a_tspg_and_dot() {
        let (table, dot) = exp8_case_study(7);
        assert!(table.num_rows() > 0);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("Hub"));
    }
}
