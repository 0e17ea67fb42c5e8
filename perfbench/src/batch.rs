//! `batch`: mixed batches in turn through `run_batch_with_stats` on the
//! serving graph, each from cold result and profile caches, on
//! [`crate::workers`] threads.

use crate::inputs::{read_graph, read_queries, Files};
use crate::oracle::Reference;
use crate::replay::{report_phases, Replayer};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{median_secs, Run, SETUP_REPS};
use std::time::Instant;
use tspg_core::engine::planner;
use tspg_core::{
    ArrivalProfile, BatchStats, CacheConfig, ProfileCacheConfig, QueryEngine, QuerySpec,
    SourceFrontier,
};
use tspg_graph::EdgeSet;

/// Plan units replayed phase by phase in the traced run.
const REPLAYED_UNITS: usize = 400;

pub fn run(run: &Run) -> Result<Report, String> {
    let mut tracer = Tracer::default();
    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let started = Instant::now();
        let graph = tracer.span("graph.load", None, 0, || read_graph(Files::SERVING.as_ref()))?;
        engine = Some(QueryEngine::new(graph));
        setups.push(started.elapsed());
    }
    let mut engine = engine.expect("at least one set-up");
    let batches: Vec<Vec<QuerySpec>> = (0..run.sizes.batch_batches)
        .map(|b| read_queries(Files::batch(b).as_ref()))
        .collect::<Result<_, _>>()?;
    let threads = crate::workers();
    run.progress("set up");

    let mut report = Report::new("batch");
    // Warm-up: each batch once. Its answers are checked against the
    // reference, and every later run of the batch against them.
    let mut expected: Vec<Vec<EdgeSet>> = Vec::new();
    for batch in &batches {
        engine = cold(engine);
        let (results, _) = engine.run_batch_with_stats(batch, threads);
        expected.push(results.into_iter().map(|r| r.tspg).collect());
        report.attempted += batch.len() as u64;
    }
    run.progress("warmed up");

    let (mut engine, phase) = measure(engine, &batches, &expected, threads, run.seconds, None);
    report.attempted += phase.queries;
    report.failed += phase.failed;
    let peak_rss = crate::client::peak_rss_mb("/proc/self/status")?;

    if run.trace {
        let traced;
        (engine, traced) =
            measure(engine, &batches, &expected, threads, run.seconds, Some(&mut tracer));
        report.attempted += traced.queries;
        report.failed += traced.failed;
        report.metric("graph.load_ms", tracer.mean_self_ms("graph.load"));
        report.metric("graph.edges", engine.graph().num_edges() as f64);
        replay_layers(&engine, &batches, &mut tracer, &mut report);
        let s = traced.stats;
        let c = traced.cache;
        report.metric("planner.queries", s.queries as f64);
        report.metric("planner.pipeline_runs", s.pipeline_runs() as f64);
        report.metric("planner.dedup_answered", s.dedup_answered as f64);
        report.metric("planner.shared_answered", s.shared_answered as f64);
        report.metric("planner.envelope_units", s.envelope_units as f64);
        report.metric("planner.envelope_answered", s.envelope_answered as f64);
        report.metric(
            "planner.envelope_yield",
            s.envelope_answered as f64 / s.envelope_units.max(1) as f64,
        );
        report.metric("planner.profile_groups", s.profile_groups as f64);
        report.metric("planner.profile_answered", s.profile_answered as f64);
        report.metric("cache.hit_rate", ratio(c.0, c.0 + c.1));
        report.metric("cache.evictions", c.2 as f64);
        report.metric("profile_cache.hit_rate", ratio(c.3, c.3 + c.4));
        report.metric("trace.overhead_pct", 100.0 * (phase.qps - traced.qps) / phase.qps);
        report.zero_unreached_layers();
        run.write_trace(&tracer)?;
    } else {
        report.metric("setup_s", median_secs(&setups));
        report.metric("throughput_qps", phase.qps);
        report.latencies(&phase.samples)?;
        report.metric("peak_rss_mb", peak_rss);
    }

    run.progress("measured");
    // Correctness gate: every distinct query against the sequential
    // reference (later runs were compared with the warm-up answers).
    let mut reference = Reference::new(engine.graph(), Vec::new());
    let queries = batches.iter().flatten();
    let computed = reference.prepare(queries.clone().map(|&q| (q, 0)), crate::threads());
    run.progress(&format!("computed {computed} reference answers"));
    for (q, got) in queries.zip(expected.iter().flatten()) {
        if reference.answer(q, 0) != Some(got) {
            eprintln!("batch: wrong answer for {q:?}");
            report.failed += 1;
        }
    }
    Ok(report)
}

fn ratio(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// Fresh default result and profile caches: each batch starts as cold as
/// a new `tspg batch` invocation, while the scratch pool stays warm.
fn cold(engine: QueryEngine) -> QueryEngine {
    engine.with_cache(CacheConfig::default()).with_profile_cache(ProfileCacheConfig::default())
}

struct Phase {
    qps: f64,
    queries: u64,
    failed: u64,
    /// One sample per query: the wall of the batch that answered it.
    samples: Vec<f64>,
    stats: BatchStats,
    /// Result-cache hits, misses, evictions; profile-cache hits, misses.
    cache: (u64, u64, u64, u64, u64),
}

/// Runs the batches round-robin until `seconds` have passed.
fn measure(
    mut engine: QueryEngine,
    batches: &[Vec<QuerySpec>],
    expected: &[Vec<EdgeSet>],
    threads: usize,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> (QueryEngine, Phase) {
    let mut phase = Phase {
        qps: 0.0,
        queries: 0,
        failed: 0,
        samples: Vec::new(),
        stats: BatchStats::default(),
        cache: (0, 0, 0, 0, 0),
    };
    let started = Instant::now();
    let mut b = 0;
    while started.elapsed().as_secs_f64() < seconds {
        let index = b % batches.len();
        let batch = &batches[index];
        engine = cold(engine);
        let span = tracer.as_deref_mut().map(|t| t.enter("batch", None, b as u64));
        let call = Instant::now();
        let (results, stats) = engine.run_batch_with_stats(batch, threads);
        let wall = call.elapsed();
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.exit(id);
        }
        phase.samples.extend(std::iter::repeat_n(wall.as_secs_f64() * 1e3, batch.len()));
        phase.queries += batch.len() as u64;
        phase.stats.merge(&stats);
        phase.failed +=
            results.iter().zip(&expected[index]).filter(|(r, e)| r.tspg != **e).count() as u64;
        if let (Some(c), Some(p)) = (engine.cache_stats(), engine.profile_cache_stats()) {
            phase.cache.0 += c.hits;
            phase.cache.1 += c.misses;
            phase.cache.2 += c.evictions;
            phase.cache.3 += p.hits;
            phase.cache.4 += p.misses;
        }
        b += 1;
    }
    phase.qps = phase.queries as f64 / started.elapsed().as_secs_f64();
    (engine, phase)
}

/// Replays the layers `run_batch_with_stats` calls internally: the planner
/// on each batch's pending list, the arrival profiles of its groups, and a
/// sample of plan units phase by phase.
fn replay_layers(
    engine: &QueryEngine,
    batches: &[Vec<QuerySpec>],
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let graph = engine.graph();
    let mut replayer = Replayer::default();
    let mut frontier = SourceFrontier::default();
    let mut units = 0;
    for (b, batch) in batches.iter().enumerate() {
        let pending: Vec<(usize, QuerySpec)> = batch
            .iter()
            .map(QuerySpec::canonical)
            .enumerate()
            .filter(|(_, q)| !q.is_degenerate())
            .collect();
        let root = tracer.enter("replay.batch", None, b as u64);
        let plan = tracer.span("planner", Some(root), b as u64, || {
            planner::plan(
                &pending,
                engine.planner_config(),
                engine.observed_density(),
                engine.observed_profile_density(),
            )
        });
        for group in plan.profile_groups() {
            let profile = tracer.span("profile", Some(root), b as u64, || {
                ArrivalProfile::compute(graph, group.source, group.window)
            });
            for &unit in &group.units {
                let window = plan.units()[unit].query.window;
                tracer.span("profile.clamp", Some(root), b as u64, || {
                    profile.clamp_into(window, &mut frontier)
                });
            }
        }
        for unit in plan.units().iter().take(REPLAYED_UNITS - units) {
            replayer.run(tracer, graph, unit.query, units as u64, Some(root));
            units += 1;
        }
        tracer.exit(root);
    }
    report_phases(report, tracer, &replayer.totals);
    let planner_ms = tracer.mean_self_ms("planner");
    report.extra("planner.ms", planner_ms);
    report.extra("executor.ms", tracer.mean_self_ms("batch") - planner_ms);
    report.extra("profile.ms", tracer.mean_self_ms("profile"));
    report.extra("profile.clamp_ms", tracer.mean_self_ms("profile.clamp"));
}
