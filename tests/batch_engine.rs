//! Cross-crate tests of the batch query engine, built on the shared
//! differential harness (`tests/common/differential.rs`): every planner /
//! executor / cache configuration must answer batches byte-identically to
//! the PR 2 sequential path (and, through the naive-enumeration anchor, to
//! exhaustive path enumeration). The deterministic tests pin the
//! acceptance workloads — a generated 100-query batch, skewed serving
//! traffic, the issue's adversarial overlap chain, same-source fan-out
//! bursts and the dense-graph envelope heuristic — while the proptests
//! sweep random graphs and batches through the full configuration grid.

mod common;

use common::differential::{
    assert_batch_matches_sequential, assert_sequential_matches_naive, assert_stats_invariants,
    sequential_results, EngineSetup,
};
use proptest::collection::vec;
use proptest::prelude::*;
use tspg_suite::core::{CacheConfig, PlannerConfig, QueryEngine, QuerySpec};
use tspg_suite::prelude::*;

/// The acceptance-criterion test: a 100-query generated workload, answered
/// as one batch under the default and the feature-grid configurations,
/// must return exactly what 100 independent one-shot calls return — same
/// edge sets, same sizes, same order.
#[test]
fn batch_of_100_workload_queries_matches_one_shot_vug() {
    let spec = registry().into_iter().next().expect("registry has datasets");
    let graph = spec.generate(Scale::tiny(), 0xfeed);
    let queries: Vec<QuerySpec> =
        generate_workload(&graph, 100, spec.default_theta, 99).expect("workload");
    assert_eq!(queries.len(), 100, "workload generation must fill the batch");

    // The harness pins batches against the PR 2 sequential path; anchor
    // that path itself against the one-shot pipeline entry point first.
    let sequential = sequential_results(&graph, &queries);
    for (q, r) in queries.iter().zip(sequential.iter()) {
        let one_shot = generate_tspg(&graph, q.source, q.target, q.window);
        assert_eq!(r.tspg, one_shot.tspg, "sequential path diverged from one-shot for {q}");
    }
    assert_batch_matches_sequential(
        &graph,
        &queries,
        &[EngineSetup::new("default", PlannerConfig::default()).with_cache(1024)],
    );
}

/// The serving acceptance gate: on a skewed repeated workload the planned +
/// cached engine answers the batch with *fewer full pipeline executions
/// than queries*, the counters prove where every answer came from, and all
/// answers are byte-identical to PR 2's sequential path.
#[test]
fn skewed_workload_is_answered_with_fewer_pipeline_executions_than_queries() {
    let spec = registry().into_iter().next().expect("registry has datasets");
    let graph = spec.generate(Scale::tiny(), 0xfeed);
    let cfg = RepeatedWorkloadConfig::new(200, 25, spec.default_theta);
    let queries = generate_repeated_workload(&graph, &cfg, 7).expect("workload");
    assert_eq!(queries.len(), 200);

    let sequential = sequential_results(&graph, &queries);

    // Planned + cached serving: two batches, so the second can hit the
    // cache populated by the first.
    let engine = QueryEngine::new(graph).with_cache(CacheConfig::with_max_entries(1024));
    let (first_half, second_half) = queries.split_at(queries.len() / 2);
    let (mut results, mut stats) = engine.run_batch_with_stats(first_half, 4);
    let (more, second_stats) = engine.run_batch_with_stats(second_half, 4);
    results.extend(more);
    stats.merge(&second_stats);

    assert_eq!(stats.queries, queries.len());
    assert!(
        stats.pipeline_runs() < queries.len(),
        "planning + caching must execute fewer full pipelines ({}) than queries ({})",
        stats.pipeline_runs(),
        queries.len()
    );
    assert!(stats.dedup_answered > 0, "a skewed workload must contain duplicates: {stats:?}");
    assert!(stats.cache_hits > 0, "the second batch must hit the cache: {stats:?}");
    assert_stats_invariants(&stats);
    for (i, (a, b)) in sequential.iter().zip(results.iter()).enumerate() {
        assert_eq!(a.tspg, b.tspg, "query #{i} diverged from the sequential path");
    }
}

/// Strategy: a random small temporal graph plus a query batch that
/// deliberately includes degenerate shapes — `s == t` queries, windows with
/// a single timestamp (`begin == end`), and windows placed so that many
/// results are empty.
fn graph_and_batch() -> impl Strategy<Value = (TemporalGraph, Vec<QuerySpec>)> {
    const N: u32 = 9;
    let edge = (0..N, 0..N, 1..=8i64).prop_map(|(u, v, t)| TemporalEdge::new(u, v, t));
    let query = (0..N, 0..N, 1..=8i64, 0..=4i64).prop_map(|(s, t, begin, extra)| {
        // `extra == 0` yields single-timestamp windows; `s == t` is kept.
        QuerySpec::new(s, t, TimeInterval::new(begin, (begin + extra).min(8)))
    });
    (vec(edge, 1..40), vec(query, 1..12)).prop_map(|(edges, queries)| {
        let edges: Vec<TemporalEdge> = edges.into_iter().filter(|e| e.src != e.dst).collect();
        (TemporalGraph::from_edges(N as usize, edges), queries)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Differential invariant: for every query of every batch, the engine
    /// (sequential and parallel), the one-shot VUG path and the naive
    /// enumeration edge-union all agree exactly.
    #[test]
    fn batch_engine_matches_one_shot_and_naive_enumeration(
        (graph, queries) in graph_and_batch()
    ) {
        assert_sequential_matches_naive(&graph, &queries);
        assert_batch_matches_sequential(
            &graph,
            &queries,
            &[EngineSetup::new("default", PlannerConfig::default()).at_threads(&[1, 3])],
        );
    }

    /// The planner/cache differential invariant: a batch deliberately
    /// stuffed with exact duplicates and contained windows — the shapes
    /// dedup, window sharing and the cache all fire on — answered through
    /// the full configuration grid (cached setups twice, so the second
    /// pass is pure cache) equals PR 2's sequential per-query path, order
    /// preserved.
    #[test]
    fn planned_and_cached_batches_match_the_sequential_path(
        ((graph, base), picks) in (
            graph_and_batch(),
            vec((0..64usize, 0..3usize, 0..=2i64, 0..=2i64), 1..20),
        )
    ) {
        // Derive a repetition-heavy batch from the base queries: exact
        // repeats and narrowed (contained) windows of earlier entries.
        let mut queries: Vec<QuerySpec> = base.clone();
        for (pick, kind, shrink_lo, shrink_hi) in picks {
            let q = base[pick % base.len()];
            match kind {
                0 => queries.push(q), // exact duplicate
                1 => {
                    // Contained window (clamped shrink keeps it non-empty).
                    let b = q.window.begin() + shrink_lo.min(q.window.span() - 1);
                    let e = (q.window.end() - shrink_hi).max(b);
                    queries.push(QuerySpec::new(q.source, q.target, TimeInterval::new(b, e)));
                }
                _ => queries.push(QuerySpec::new(q.target, q.source, q.window)),
            }
        }
        assert_batch_matches_sequential(
            &graph,
            &queries,
            &[EngineSetup::new("default", PlannerConfig::default())
                .with_cache(4096)
                .at_threads(&[3])],
        );
    }

    /// The envelope differential invariant: overlap chains, nested
    /// refinements and disjoint windows of a few endpoint pairs — the
    /// shapes envelope planning clusters, splits on the cost guard, and
    /// leaves alone — under containment-only and default planning, across
    /// thread counts that spread jobs over workers.
    #[test]
    fn envelope_planned_batches_match_the_sequential_path(
        ((graph, _), shapes) in (
            graph_and_batch(),
            vec((0..4u32, 0..4u32, 1..=6i64, 1..=4i64, 0..=3i64), 4..24),
        )
    ) {
        // Build overlap chains deterministically from the shape tuples:
        // (s, t, begin, span extent, slide) — sliding by less than the
        // extent overlaps the previous window of the same (s, t) without
        // nesting; slide 0 duplicates it; larger slides disconnect.
        let mut queries: Vec<QuerySpec> = Vec::new();
        for &(s, t, begin, extent, slide) in &shapes {
            let b = begin + slide;
            queries.push(QuerySpec::new(s, t, TimeInterval::new(b, (b + extent).min(9))));
        }
        let stats = assert_batch_matches_sequential(
            &graph,
            &queries,
            &[
                EngineSetup::new("containment", PlannerConfig::containment_only()),
                EngineSetup::new("default", PlannerConfig::default()),
            ],
        );
        // The default planner merges at least as much as containment-only
        // (stats come back setup-major: two thread counts per setup).
        let per_setup: Vec<usize> = stats.chunks(2).map(|c| c[0].pipeline_runs()).collect();
        prop_assert!(per_setup[1] <= per_setup[0]);
    }

    /// The profile differential invariant (this PR's tentpole): random
    /// same-source fan-out batches — bursts of queries sharing a source,
    /// with jittered begins, stretched ends and interleaved duplicates —
    /// answered with profile sharing on and off, across 1/4/8 threads,
    /// all byte-identical to the sequential path.
    #[test]
    fn profile_shared_batches_match_the_sequential_path(
        ((graph, _), bursts) in (
            graph_and_batch(),
            vec((0..9u32, 1..=6i64, vec((0..9u32, 0..=3i64, 0..=2i64), 2..6)), 1..5),
        )
    ) {
        // Each burst tuple is (source, begin, [(target, end stretch,
        // begin jitter)]): every member query keeps the burst's source —
        // the grouping key — while its begin slides inside the hull and
        // its end stretches, so profile clamping at mixed begins and the
        // span guard are exercised alongside plain same-window fan-outs.
        let mut queries: Vec<QuerySpec> = Vec::new();
        for &(s, begin, ref members) in &bursts {
            for &(t, stretch, jitter) in members {
                let end = (begin + 2 + stretch).min(9);
                let b = (begin + jitter).min(end);
                queries.push(QuerySpec::new(s, t, TimeInterval::new(b, end)));
            }
        }
        let stats = assert_batch_matches_sequential(
            &graph,
            &queries,
            &[
                EngineSetup::new("profiles", PlannerConfig::default()),
                EngineSetup::new("no-profiles", PlannerConfig::default().without_profile_sharing()),
            ],
        );
        // Sharing is answer-invisible *and* run-count-invisible: the two
        // setups must plan exactly the same number of pipeline runs.
        let profile_runs: Vec<usize> = stats[..3].iter().map(|s| s.pipeline_runs()).collect();
        let plain_runs: Vec<usize> = stats[3..].iter().map(|s| s.pipeline_runs()).collect();
        prop_assert_eq!(profile_runs, plain_runs);
        prop_assert!(stats[3..].iter().all(|s| s.profile_groups == 0));
    }

}

/// The adversarial shapes named in PR 4's issue, pinned deterministically:
/// an overlap chain `[0,5], [3,8], [6,12]` plus mixed nested / overlapping
/// / disjoint groups, answered with envelope planning across thread counts
/// that spread jobs over workers, must equal the sequential path exactly —
/// and the chain must actually be collapsed by the planner.
#[test]
fn envelope_overlap_chains_and_mixed_groups_match_sequential() {
    let spec = registry().into_iter().next().expect("registry has datasets");
    let graph = spec.generate(Scale::tiny(), 0xfeed);
    let stamp = |i: i64| -> i64 {
        // Park windows in the populated part of the timestamp domain.
        let ts = graph.timestamps();
        let lo = *ts.first().expect("tiny datasets have edges");
        lo + i
    };
    let (s, t) = {
        let q = generate_workload(&graph, 1, 8, 3).expect("workload")[0];
        (q.source, q.target)
    };
    let w = |b: i64, e: i64| TimeInterval::new(stamp(b), stamp(e));
    let queries = vec![
        // The issue's adversarial overlap chain.
        QuerySpec::new(s, t, w(0, 5)),
        QuerySpec::new(s, t, w(3, 8)),
        QuerySpec::new(s, t, w(6, 12)),
        // Nested pair (containment sharing).
        QuerySpec::new(t, s, w(0, 10)),
        QuerySpec::new(t, s, w(2, 5)),
        // Disjoint window on the same pair as the chain.
        QuerySpec::new(s, t, w(40, 45)),
        // Exact duplicate and a degenerate query.
        QuerySpec::new(s, t, w(3, 8)),
        QuerySpec::new(s, s, w(0, 5)),
    ];

    let stats = assert_batch_matches_sequential(
        &graph,
        &queries,
        &[EngineSetup::new("default", PlannerConfig::default()).at_threads(&[1, 2, 8])],
    );
    for stats in &stats {
        assert!(stats.envelope_units >= 1, "the chain must be enveloped: {stats:?}");
        assert_eq!(stats.envelope_answered, 3, "{stats:?}");
        assert_eq!(stats.shared_answered, 1, "{stats:?}");
        assert_eq!(stats.dedup_answered, 1, "{stats:?}");
        assert_eq!(stats.degenerate, 1, "{stats:?}");
    }
}

/// Deterministic fan-out acceptance: a generated same-source fan-out
/// workload forms profile groups, the overlay counters stay within their
/// bounds, and every answer matches the sequential path whether sharing is
/// on or off.
#[test]
fn fanout_workloads_share_profiles_and_match_sequential() {
    let graph = GraphGenerator::uniform(80, 900, 40).generate(0x12);
    let cfg = FanoutWorkloadConfig::new(48, 6, 8);
    let queries = generate_fanout_workload(&graph, &cfg, 11).expect("workload");
    let stats = assert_batch_matches_sequential(
        &graph,
        &queries,
        &[
            EngineSetup::new("profiles", PlannerConfig::default()),
            EngineSetup::new("no-profiles", PlannerConfig::default().without_profile_sharing()),
        ],
    );
    assert!(
        stats[0].profile_groups >= 1,
        "a fan-out workload must form profile groups: {:?}",
        stats[0]
    );
    assert!(stats[0].profile_answered >= 2 * stats[0].profile_groups, "{:?}", stats[0]);
}

/// Mixed-begin fan-out acceptance (this PR's tentpole shape): the same
/// workload with jittered window begins — where PR 5's begin-anchored
/// grouping found nothing — still forms profile groups, because an
/// arrival profile clamps to any begin inside the hull. Answers stay
/// byte-identical to the sequential path with sharing on and off.
#[test]
fn jittered_fanout_workloads_share_profiles_and_match_sequential() {
    let graph = GraphGenerator::uniform(80, 900, 40).generate(0x12);
    let cfg = FanoutWorkloadConfig::new(48, 6, 8).with_begin_jitter(3);
    let queries = generate_fanout_workload(&graph, &cfg, 11).expect("workload");
    let begins: std::collections::HashSet<i64> = queries.iter().map(|q| q.window.begin()).collect();
    assert!(begins.len() > 1, "the jitter must actually mix begins");
    let stats = assert_batch_matches_sequential(
        &graph,
        &queries,
        &[
            EngineSetup::new("profiles", PlannerConfig::default()),
            EngineSetup::new("no-profiles", PlannerConfig::default().without_profile_sharing()),
        ],
    );
    assert!(
        stats[0].profile_groups >= 1,
        "a mixed-begin fan-out workload must form profile groups: {:?}",
        stats[0]
    );
    assert!(stats[0].profile_answered >= 2 * stats[0].profile_groups, "{:?}", stats[0]);
}

/// The dense-graph envelope heuristic (ROADMAP item): on a dense registry
/// miniature, an engine that has observed the tspG/graph density stops
/// synthesizing envelope units, and its pipeline-run count is no worse
/// than containment-only planning — while answers stay byte-identical.
#[test]
fn dense_registry_miniature_trips_the_envelope_density_heuristic() {
    // The registry's datasets are deliberately dense miniatures; at small
    // scale D1 packs ~3,700 edges onto 24 vertices, so every tspG covers
    // most of the graph and the shipped 0.8 cutoff trips.
    let spec = registry().into_iter().next().expect("registry has datasets");
    let graph = spec.generate(Scale::small(), 0xfeed);
    let base = generate_workload(&graph, 4, 12, 21).expect("workload");
    // Overlap chains on the sampled pairs: the shape envelope synthesis
    // would collapse if the density heuristic did not veto it.
    let mut queries = Vec::new();
    for q in &base {
        let w = q.window;
        queries.push(QuerySpec::new(q.source, q.target, w));
        let slide = (w.span() / 2).max(1);
        let begin = w.begin() + slide;
        queries.push(QuerySpec::new(
            q.source,
            q.target,
            TimeInterval::new(begin, begin + w.span() - 1),
        ));
    }

    let adaptive = QueryEngine::new(graph.clone()).without_cache();
    // Priming batch: no density signal yet, envelopes may synthesize.
    let (_, cold) = adaptive.run_batch_with_stats(&queries, 2);
    assert!(cold.envelope_units >= 1, "the chains must envelope on a fresh engine: {cold:?}");
    let observed = adaptive.observed_density().expect("primed engine has a signal");
    assert!(observed > 0.8, "the registry miniature must be dense (observed {observed:.2} <= 0.8)");

    // Warm batch: the heuristic vetoes synthesis; run count must be no
    // worse than explicit containment-only planning on the same batch.
    let (warm_results, warm) = adaptive.run_batch_with_stats(&queries, 2);
    assert_eq!(warm.envelope_units, 0, "dense signal must disable synthesis: {warm:?}");
    let containment = QueryEngine::new(graph.clone())
        .without_cache()
        .with_planner(PlannerConfig::containment_only());
    let (_, baseline) = containment.run_batch_with_stats(&queries, 2);
    assert!(
        warm.pipeline_runs() <= baseline.pipeline_runs(),
        "adaptive planning must not run more pipelines ({}) than containment-only ({})",
        warm.pipeline_runs(),
        baseline.pipeline_runs()
    );
    let sequential = sequential_results(&graph, &queries);
    for (i, (a, b)) in sequential.iter().zip(warm_results.iter()).enumerate() {
        assert_eq!(a.tspg, b.tspg, "query #{i} diverged under the density heuristic");
    }
}
