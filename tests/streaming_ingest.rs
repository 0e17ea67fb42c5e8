//! Cross-crate tests of streaming edge ingestion and epoch-versioned cache
//! invalidation: a live engine that interleaves `QueryEngine::ingest` with
//! query batches must answer every batch byte-identically to a fresh
//! engine built from scratch over the edge set of that epoch — across the
//! thread grid, with profile sharing on and off, with every cache warm.
//! The deterministic tests drive the interleaving and an explicit
//! stale-read attempt against each sharing layer (result LRU, follower
//! tspGs inside a batch, the profile cache); the proptest pins
//! the tentpole identity `extend_with_edges == from_edges` over random
//! batch splits, including unsorted and duplicate-timestamp batches.

mod common;

use common::differential::{assert_stats_invariants, sequential_results};
use proptest::collection::vec;
use proptest::prelude::*;
use tspg_suite::core::{PlannerConfig, QueryEngine, QuerySpec};
use tspg_suite::prelude::*;

/// Builds the live graph incrementally next to the union edge list so each
/// epoch's reference graph can be rebuilt from scratch.
fn edge_feed(graph: &TemporalGraph, batches: usize, seed: u64) -> Vec<Vec<TemporalEdge>> {
    let t_max = graph.edges().iter().map(|e| e.time).max().unwrap_or(0);
    let cfg = EdgeStreamConfig::new(batches, 12, t_max / 2).with_time_step((t_max / 4).max(1));
    generate_edge_stream(graph, &cfg, seed).expect("edge stream")
}

/// The interleaved differential suite (the tentpole's proof obligation):
/// ingestion and query batches alternate on one live engine, and at every
/// epoch each answer is byte-identical to a fresh engine built at that
/// epoch — across the 1/4/8-thread × profiles-on/off grid with the result
/// cache enabled and warm.
#[test]
fn interleaved_ingestion_matches_a_fresh_engine_at_every_epoch() {
    let spec = registry().into_iter().next().expect("registry has datasets");
    let graph = spec.generate(Scale::tiny(), 0x10);
    let queries: Vec<QuerySpec> =
        generate_workload(&graph, 30, spec.default_theta, 0x10).expect("workload");
    let stream = edge_feed(&graph, 3, 0x10);

    for planner in [PlannerConfig::default(), PlannerConfig::default().without_profile_sharing()] {
        for threads in [1usize, 4, 8] {
            let mut engine = QueryEngine::new(graph.clone()).with_planner(planner);
            let mut union = graph.edges().to_vec();
            for (epoch, batch) in stream.iter().enumerate() {
                // Warm every layer at this epoch, then query again: the
                // second pass is served from the caches.
                let (warmup, stats) = engine.run_batch_with_stats(&queries, threads);
                assert_stats_invariants(&stats);
                let (warm, warm_stats) = engine.run_batch_with_stats(&queries, threads);
                assert_stats_invariants(&warm_stats);
                assert!(
                    warm_stats.cache_hits > 0,
                    "threads={threads} epoch={epoch}: warm pass must hit the result cache"
                );

                // The reference: a fresh engine over this epoch's edges.
                let fresh_graph = TemporalGraph::from_edges(graph.num_vertices(), union.clone());
                let fresh = sequential_results(&fresh_graph, &queries);
                for (i, want) in fresh.iter().enumerate() {
                    assert_eq!(
                        warmup[i].tspg, want.tspg,
                        "threads={threads} epoch={epoch} query #{i}: cold pass stale"
                    );
                    assert_eq!(
                        warm[i].tspg, want.tspg,
                        "threads={threads} epoch={epoch} query #{i}: warm pass stale"
                    );
                }

                let before = engine.epoch();
                let after = engine.ingest(batch);
                assert_eq!(after, before.next(), "epochs advance by exactly one per batch");
                union.extend_from_slice(batch);
            }
            // One final post-ingestion pass against the full union.
            let fresh_graph = TemporalGraph::from_edges(graph.num_vertices(), union.clone());
            let fresh = sequential_results(&fresh_graph, &queries);
            let (last, _) = engine.run_batch_with_stats(&queries, threads);
            for (i, want) in fresh.iter().enumerate() {
                assert_eq!(last[i].tspg, want.tspg, "threads={threads} final pass query #{i}");
            }
            assert_eq!(engine.epoch().value(), stream.len() as u64);
        }
    }
}

/// The explicit stale-read attempt: warm every sharing layer, then ingest
/// an edge that is guaranteed to change the answers (a direct `s -> t`
/// edge inside the query window is always part of the tspG), and prove
/// that no layer — result LRU, follower tspGs, profile cache — can serve
/// a pre-ingestion entry.
#[test]
fn no_cache_layer_serves_a_pre_ingestion_answer() {
    let graph = figure1_graph();
    let (s, t, w) = figure1_query();
    // A same-source fan-out with mixed begins: the shape that forms
    // profile groups, so the profile cache is genuinely exercised.
    let queries = vec![
        QuerySpec::new(s, t, w),
        QuerySpec::new(s, 5, TimeInterval::new(w.begin() + 1, w.end())),
        QuerySpec::new(s, t, w),
    ];
    let mut engine = QueryEngine::new(graph.clone());

    let (cold, _) = engine.run_batch_with_stats(&queries, 2);
    let (warm, warm_stats) = engine.run_batch_with_stats(&queries, 2);
    assert!(warm_stats.cache_hits > 0, "the result cache must be warm: {warm_stats:?}");
    for (a, b) in cold.iter().zip(warm.iter()) {
        assert_eq!(a.tspg, b.tspg);
    }
    let profile_misses_before = engine.profile_cache_stats().expect("default profile cache").misses;

    // The guaranteed answer-changing delta.
    let delta = [TemporalEdge::new(s, t, 5)];
    assert!(w.contains(5), "the delta edge must land inside the query window");
    let epoch = engine.ingest(&delta);
    assert_eq!(epoch.value(), 1);

    let (post, post_stats) = engine.run_batch_with_stats(&queries, 2);
    assert_eq!(
        post_stats.cache_hits, 0,
        "the epoch flush must leave nothing for the first post-ingestion batch: {post_stats:?}"
    );
    let fresh_graph = {
        let mut edges = graph.edges().to_vec();
        edges.extend_from_slice(&delta);
        TemporalGraph::from_edges(graph.num_vertices(), edges)
    };
    for (i, want) in sequential_results(&fresh_graph, &queries).iter().enumerate() {
        assert_eq!(post[i].tspg, want.tspg, "query #{i} served a stale answer");
    }
    // The s -> t queries must actually have changed (the stale answers are
    // distinguishable, not accidentally equal).
    assert_ne!(warm[0].tspg, post[0].tspg, "the delta edge must change the answer");
    assert!(post[0].tspg.contains_edge(s, t, 5), "the ingested edge belongs to the new tspG");

    // The ingest flushed the profile cache along with the result cache, so
    // no pre-ingestion profile is left to hit and the new epoch pays fresh
    // misses.
    let profile_misses_after = engine.profile_cache_stats().expect("default profile cache").misses;
    assert!(
        profile_misses_after > profile_misses_before,
        "flushed profiles must miss after ingestion \
         ({profile_misses_before} -> {profile_misses_after})"
    );
}

/// Epoch bookkeeping at the graph layer: every append bumps the version by
/// one — even a batch that deduplicates away entirely — and scratch-built
/// graphs start at epoch zero.
#[test]
fn epochs_are_monotonic_and_start_at_zero() {
    let mut graph = figure1_graph();
    assert_eq!(graph.epoch(), GraphEpoch::ZERO);
    assert_eq!(GraphEpoch::ZERO.next().value(), 1);
    let first = graph.edges()[0];
    for expect in 1..=3u64 {
        let epoch = graph.extend_with_edges(&[first]);
        assert_eq!(epoch.value(), expect, "an all-duplicate batch still bumps the epoch");
    }
    let empty_batch = graph.extend_with_edges(&[]);
    assert_eq!(empty_batch.value(), 4, "even an empty batch is a new epoch");
    assert!(GraphEpoch::ZERO < empty_batch && empty_batch < empty_batch.next(), "total order");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Satellite 3 — the tentpole identity: appending random batch splits
    /// through `extend_with_edges` is byte-identical (edges, CSR slices,
    /// timestamps) to a one-shot `from_edges` build of the same edge
    /// multiset, however unsorted the batches arrive and however many
    /// duplicate timestamps (or fully duplicate edges) they carry.
    #[test]
    fn incremental_extension_is_byte_identical_to_from_scratch(
        (raw, cuts) in (vec((0u32..24, 0u32..24, 0i64..40), 1..120), vec(0usize..120, 0..6))
    ) {
        let edges: Vec<TemporalEdge> =
            raw.iter().map(|&(u, v, t)| TemporalEdge::new(u, v, t)).collect();
        // Random split points over the edge list; the first chunk seeds the
        // graph through `from_edges`, the rest arrive as ingestion batches.
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % (edges.len() + 1)).collect();
        cuts.push(0);
        cuts.push(edges.len());
        cuts.sort_unstable();
        cuts.dedup();
        let mut live = TemporalGraph::from_edges(1, edges[..cuts[1]].to_vec());
        prop_assert_eq!(live.epoch(), GraphEpoch::ZERO);
        for pair in cuts[1..].windows(2) {
            live.extend_with_edges(&edges[pair[0]..pair[1]]);
        }
        let fresh = TemporalGraph::from_edges(1, edges.clone());

        prop_assert_eq!(live.epoch().value(), (cuts.len() - 2) as u64);
        prop_assert_eq!(live.num_vertices(), fresh.num_vertices());
        prop_assert_eq!(live.edges(), fresh.edges());
        for v in 0..fresh.num_vertices() as u32 {
            prop_assert_eq!(live.out_neighbors(v), fresh.out_neighbors(v));
            prop_assert_eq!(live.in_neighbors(v), fresh.in_neighbors(v));
        }
    }
}
