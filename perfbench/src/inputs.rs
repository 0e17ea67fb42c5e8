//! Seeded input generation.
//!
//! Every input a run uses is generated here from the workload seed with
//! `tspg-datasets` and written to plain files in the run's work directory:
//! edge lists for the graphs, query files in the workspace's query-file
//! format, and the live edge feed as blank-line-separated edge batches.
//! The measured program only ever sees those files (or the lines read from
//! them), so one seed always means byte-identical inputs.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tspg_datasets::{
    format_queries, generate_edge_stream, generate_fanout_workload, generate_overlapping_workload,
    generate_repeated_workload, generate_workload, registry, EdgeStreamConfig,
    FanoutWorkloadConfig, GraphGenerator, OverlappingWorkloadConfig, Query, RepeatedWorkloadConfig,
    Scale, WorkloadGenerator,
};
use tspg_graph::{io, TemporalEdge, TemporalGraph, VertexId};

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Paper,
    Batch,
    Serve,
    Live,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Paper, Workload::Batch, Workload::Serve, Workload::Live];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Batch => "batch",
            Workload::Serve => "serve",
            Workload::Live => "live",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Sizes::FULL`] is what the benchmark runs; tests use
/// [`Sizes::TINY`] to exercise the same code quickly.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Edges of the serving graph (`batch`, `serve`, `live`).
    pub serving_edges: usize,
    /// Seeded instances of each registry analogue (`paper`).
    pub paper_instances: usize,
    /// Queries per `paper` graph instance.
    pub paper_queries: usize,
    /// Distinct batches in the `batch` rotation, and queries per shape in
    /// each: overlapping chains, fan-out bursts, Zipf repeats. Every query
    /// of a batch waits for the whole batch, so its latency samples come
    /// in one block per batch; with an odd number of batches, p50 and p90
    /// fall inside a block (the middle and the costliest batch's walls),
    /// never on the edge between two.
    pub batch_batches: usize,
    pub batch_per_shape: usize,
    /// Base queries of the `serve` Zipf catalog and queries per connection.
    pub serve_catalog: usize,
    pub serve_queries: usize,
    /// Queries of the `live` pipeline, the distinct fan-out queries it
    /// cycles through, and its Zipf catalog.
    pub live_queries: usize,
    pub live_fanout: usize,
    pub live_catalog: usize,
    /// Edge batches of the `live` feed, sent in order, one per 400 queries
    /// issued (cycling if a phase outlasts them), and edges per batch.
    pub live_batches: usize,
    pub live_batch_edges: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        serving_edges: 400_000,
        paper_instances: 10,
        paper_queries: 12,
        batch_batches: 7,
        batch_per_shape: 140,
        serve_catalog: 1_000,
        serve_queries: 40_000,
        live_queries: 120_000,
        live_fanout: 1_200,
        live_catalog: 800,
        live_batches: 40,
        live_batch_edges: 100,
    };

    pub const TINY: Sizes = Sizes {
        serving_edges: 6_000,
        paper_instances: 1,
        paper_queries: 3,
        batch_batches: 3,
        batch_per_shape: 20,
        serve_catalog: 20,
        serve_queries: 200,
        live_queries: 300,
        live_fanout: 50,
        live_catalog: 30,
        live_batches: 4,
        live_batch_edges: 10,
    };
}

/// Closed-loop connections of `serve`.
pub const SERVE_CONNECTIONS: usize = 2;

/// The serving graph recipe (the Exp-11–15 graphs scaled up): `|V| = |E|/6`,
/// `|T| = |E|/10`, hub exponent 1.2.
pub fn serving_generator(edges: usize) -> GraphGenerator {
    GraphGenerator::hub(edges / 6, edges, edges / 10, 1.2)
}

/// Query span on the serving graph: `θ = |T| / 16`.
pub fn serving_theta(edges: usize) -> i64 {
    ((edges / 10) as i64 / 16).max(2)
}

/// SplitMix64 step: derives independent sub-seeds from the run seed.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// File names inside a work directory.
pub struct Files;

impl Files {
    pub const SERVING: &'static str = "serving.txt";
    pub const SERVE_WARM: &'static str = "serve-warm.q";
    pub const LIVE_QUERIES: &'static str = "live.q";
    pub const LIVE_FEED: &'static str = "live-feed.txt";

    pub fn paper_graph(id: &str, instance: usize) -> String {
        format!("paper-{id}-{instance}.txt")
    }
    pub fn paper_queries(id: &str, instance: usize) -> String {
        format!("paper-{id}-{instance}.q")
    }
    pub fn batch(index: usize) -> String {
        format!("batch-{index}.q")
    }
    pub fn serve(connection: usize) -> String {
        format!("serve-{connection}.q")
    }
}

/// Writes every input of `workload` for `seed` into `dir` and returns the
/// files written, in order.
pub fn generate(
    workload: Workload,
    seed: u64,
    dir: &Path,
    sizes: &Sizes,
) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut written = Vec::new();
    let mut put = |name: String, text: String| -> Result<(), String> {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        written.push(path);
        Ok(())
    };
    if workload == Workload::Paper {
        for spec in registry() {
            for instance in 0..sizes.paper_instances {
                let salt =
                    0x9a9e_0000 + 64 * instance as u64 + spec.id[1..].parse::<u64>().unwrap_or(0);
                let graph = spec.generate(Scale::small(), derive(seed, salt));
                let config =
                    tspg_datasets::WorkloadConfig::new(sizes.paper_queries, spec.default_theta);
                let queries = WorkloadGenerator::new(&graph, derive(seed, salt ^ 0xffff))
                    .generate(&config)
                    .map_err(|e| format!("paper {} queries: {e}", spec.id))?;
                put(Files::paper_graph(spec.id, instance), edge_list(&graph))?;
                put(Files::paper_queries(spec.id, instance), format_queries(&queries))?;
            }
        }
        return Ok(written);
    }

    let e = sizes.serving_edges;
    let graph = serving_generator(e).generate(derive(seed, 1));
    let theta = serving_theta(e);
    put(Files::SERVING.to_string(), edge_list(&graph))?;
    fn err(what: &'static str) -> impl Fn(tspg_datasets::WorkloadError) -> String {
        move |e| format!("{what}: {e}")
    }
    match workload {
        Workload::Paper => unreachable!("handled above"),
        Workload::Batch => {
            let n = sizes.batch_per_shape;
            for b in 0..sizes.batch_batches {
                let s = derive(seed, 100 + b as u64);
                let chains = (n / 8).max(1);
                let mut queries = generate_overlapping_workload(
                    &graph,
                    &OverlappingWorkloadConfig::new(n, chains, theta),
                    derive(s, 1),
                )
                .map_err(err("batch overlapping chains"))?;
                queries.extend(
                    generate_fanout_workload(
                        &graph,
                        &FanoutWorkloadConfig::new(n, (n / 40).max(1), theta)
                            .with_begin_jitter(theta / 4),
                        derive(s, 2),
                    )
                    .map_err(err("batch fan-out bursts"))?,
                );
                let mut zipf = RepeatedWorkloadConfig::new(n, (n / 3).max(1), theta);
                zipf.narrowed = 0.5;
                queries.extend(
                    generate_repeated_workload(&graph, &zipf, derive(s, 3))
                        .map_err(err("batch Zipf repeats"))?,
                );
                put(Files::batch(b), format_queries(&queries))?;
            }
        }
        Workload::Serve => {
            // One request in 500 narrows its window (a cache miss), so the
            // median measures the hit path. Every miss holds the dispatcher
            // for a pipeline run, and the hits queued behind it wait too:
            // with one miss in ten, the tail sat among those waits and
            // doubled whenever the host slowed by a third.
            let mut config = RepeatedWorkloadConfig::new(
                sizes.serve_queries * SERVE_CONNECTIONS,
                sizes.serve_catalog,
                theta,
            );
            config.narrowed = 0.002;
            let queries = generate_repeated_workload(&graph, &config, derive(seed, 200))
                .map_err(err("serve"))?;
            // The Zipf catalog itself (the repeated workload's base draw,
            // same seed), sent once to warm the result cache.
            let catalog = generate_workload(&graph, sizes.serve_catalog, theta, derive(seed, 200))
                .map_err(err("serve catalog"))?;
            put(Files::SERVE_WARM.to_string(), format_queries(&catalog))?;
            for c in 0..SERVE_CONNECTIONS {
                let mine: Vec<Query> =
                    queries.iter().skip(c).step_by(SERVE_CONNECTIONS).copied().collect();
                put(Files::serve(c), format_queries(&mine))?;
            }
        }
        Workload::Live => {
            // 70% fan-out bursts over hot sources (a fixed set of distinct
            // queries, cycled), 30% Zipf repeats, interleaved 7:3. Bursts
            // arrive as runs of six queries from one source, so every
            // 32-query admission batch forms profile groups, while two dozen
            // sources keep one heavy hub from setting a seed's whole cost.
            // (With 96 sources, five seeds' throughput ranged over 540-1070
            // queries/s, against 680-890 for ten seeds with 24.)
            let fanout = generate_fanout_workload(
                &graph,
                &FanoutWorkloadConfig::new(sizes.live_fanout, 24, theta)
                    .with_begin_jitter(theta / 4),
                derive(seed, 300),
            )
            .map_err(err("live fan-out"))?;
            let mut by_source: BTreeMap<VertexId, VecDeque<Query>> = BTreeMap::new();
            for q in fanout {
                by_source.entry(q.source).or_default().push_back(q);
            }
            let mut fanout = Vec::with_capacity(sizes.live_fanout);
            while by_source.values().any(|burst| !burst.is_empty()) {
                for burst in by_source.values_mut() {
                    let run = burst.len().min(6);
                    fanout.extend(burst.drain(..run));
                }
            }
            let zipf = generate_repeated_workload(
                &graph,
                &RepeatedWorkloadConfig::new(sizes.live_queries, sizes.live_catalog, theta),
                derive(seed, 301),
            )
            .map_err(err("live Zipf repeats"))?;
            let (mut f, mut z) = (fanout.iter().cycle(), zipf.iter());
            let queries: Vec<Query> = (0..sizes.live_queries)
                .filter_map(|i| if i % 10 < 7 { f.next() } else { z.next() })
                .copied()
                .collect();
            put(Files::LIVE_QUERIES.to_string(), format_queries(&queries))?;

            // The feed lands in the last quarter of the graph's time
            // domain, batch `b` in the `b`-th band of it, the way a live
            // stream adds recent events: windows there see their answers
            // change while the rest of the graph stays put.
            let range = graph.time_range().ok_or("serving graph has no edges")?;
            let quarter = (range.end() - range.begin()) / 4;
            let batches = sizes.live_batches;
            let step = (quarter / batches as i64).max(1);
            let config =
                EdgeStreamConfig::new(batches, sizes.live_batch_edges, range.end() - quarter)
                    .with_time_step(step);
            let feed = generate_edge_stream(&graph, &config, derive(seed, 302))
                .map_err(err("live edge feed"))?;
            put(Files::LIVE_FEED.to_string(), format_feed(&feed))?;
        }
    }
    Ok(written)
}

fn edge_list(graph: &TemporalGraph) -> String {
    let mut out = Vec::new();
    io::write_edge_list(graph, &mut out).expect("writing to memory cannot fail");
    String::from_utf8(out).expect("edge lists are ASCII")
}

/// Blank-line-separated `src dst time` batches (the `tspg client --ingest`
/// format).
pub fn format_feed(feed: &[Vec<TemporalEdge>]) -> String {
    let mut out =
        String::from("# live edge feed: src dst time, batches separated by blank lines\n");
    for (i, batch) in feed.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        for e in batch {
            let _ = writeln!(out, "{} {} {}", e.src, e.dst, e.time);
        }
    }
    out
}

/// Parses [`format_feed`]'s output.
pub fn parse_feed(text: &str) -> Result<Vec<Vec<TemporalEdge>>, String> {
    let mut feed = vec![Vec::new()];
    for (i, line) in text.lines().enumerate() {
        let data = io::strip_line_comment(line);
        if line.trim().is_empty() {
            if !feed.last().is_some_and(Vec::is_empty) {
                feed.push(Vec::new());
            }
            continue;
        }
        if data.is_empty() {
            continue;
        }
        let f: Vec<i64> = data
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|_| format!("feed line {}: not `src dst time`", i + 1))?;
        let [src, dst, time] = f[..] else {
            return Err(format!("feed line {}: not `src dst time`", i + 1));
        };
        let (Ok(src), Ok(dst)) = (u32::try_from(src), u32::try_from(dst)) else {
            return Err(format!("feed line {}: vertex ids must be u32", i + 1));
        };
        feed.last_mut().expect("never empty").push(TemporalEdge::new(src, dst, time));
    }
    if feed.last().is_some_and(Vec::is_empty) {
        feed.pop();
    }
    Ok(feed)
}

/// Reads a query file written by [`generate`].
pub fn read_queries(path: &Path) -> Result<Vec<Query>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    tspg_datasets::parse_queries(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads a graph file written by [`generate`].
pub fn read_graph(path: &Path) -> Result<TemporalGraph, String> {
    io::read_edge_list_file(path).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perfbench-inputs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn one_seed_yields_byte_identical_inputs() {
        for workload in Workload::ALL {
            let (a, b, c) = (scratch_dir("a"), scratch_dir("b"), scratch_dir("c"));
            let fa = generate(workload, 42, &a, &Sizes::TINY).unwrap();
            let fb = generate(workload, 42, &b, &Sizes::TINY).unwrap();
            let fc = generate(workload, 43, &c, &Sizes::TINY).unwrap();
            assert!(!fa.is_empty());
            assert_eq!(fa.len(), fb.len());
            let mut any_differs = false;
            for ((pa, pb), pc) in fa.iter().zip(&fb).zip(&fc) {
                let bytes = std::fs::read(pa).unwrap();
                assert_eq!(bytes, std::fs::read(pb).unwrap(), "{workload:?} {}", pa.display());
                any_differs |= bytes != std::fs::read(pc).unwrap();
            }
            assert!(any_differs, "{workload:?}: another seed must change the inputs");
            for dir in [a, b, c] {
                std::fs::remove_dir_all(dir).unwrap();
            }
        }
    }

    #[test]
    fn feed_round_trips_through_its_text_format() {
        let feed = vec![
            vec![TemporalEdge::new(0, 1, 5), TemporalEdge::new(2, 3, 6)],
            vec![TemporalEdge::new(4, 5, 9)],
        ];
        assert_eq!(parse_feed(&format_feed(&feed)).unwrap(), feed);
        assert!(parse_feed("0 1\n").is_err());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("bogus"), None);
    }
}
