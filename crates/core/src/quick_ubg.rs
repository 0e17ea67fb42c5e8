//! Quick upper-bound graph generation (Algorithm 2).
//!
//! Given the polarity times, the quick upper-bound graph `G_q` keeps exactly
//! the edges `e(u, v, τ)` with `A(u) < τ < D(v)` (Lemma 1): the edges lying
//! on at least one strict temporal path from `s` to `t` within the window.
//! The scan is `O(m)`.

use crate::polarity::{compute_polarity, PolarityTimes, SourceFrontier};
use tspg_graph::{TemporalEdge, TemporalGraph, TimeInterval, VertexId};

/// Builds `G_q` from precomputed polarity times.
pub fn quick_upper_bound_graph_from(
    graph: &TemporalGraph,
    polarity: &PolarityTimes,
) -> TemporalGraph {
    graph.edge_induced(|_, e| polarity.admits_edge(e.src, e.dst, e.time))
}

/// In-place variant of [`quick_upper_bound_graph_from`]: rebuilds `out` as
/// `G_q`, reusing its storage (allocation-free once warm).
pub fn quick_upper_bound_graph_into(
    graph: &TemporalGraph,
    polarity: &PolarityTimes,
    out: &mut TemporalGraph,
) {
    out.assign_edge_induced(graph, |_, e| polarity.admits_edge(e.src, e.dst, e.time));
}

/// Frontier-restricted edge scan: gathers into `buf` exactly the edges
/// [`quick_upper_bound_graph_into`] keeps over the same tables, but scans
/// only the out-edges of the shared frontier's reachable vertices instead
/// of filtering all `m` edges of the input graph.
///
/// `polarity` must be the tables produced by
/// [`crate::polarity::compute_polarity_into_with_frontier`] with the same
/// `frontier` — its arrival labels are a (clamped) subset of the frontier's,
/// so every admissible edge leaves a frontier-reachable vertex and the
/// restricted scan loses nothing. Its cost is proportional to the
/// frontier's out-degree sum rather than to `m` — the per-member win on
/// large graphs whose query windows touch a sliver of the edge set.
///
/// `buf` is the caller's reusable edge buffer. The admitted edges arrive
/// grouped by source vertex, unsorted, and no graph is built: the engine
/// compacts them to their induced vertex set first.
pub fn frontier_candidate_edges(
    graph: &TemporalGraph,
    polarity: &PolarityTimes,
    frontier: &SourceFrontier,
    buf: &mut Vec<TemporalEdge>,
) {
    buf.clear();
    for &u in frontier.reachable() {
        // The member's clamp may have dropped this vertex's label; without
        // an arrival no out-edge of `u` is admissible (Lemma 1).
        let Some(reach) = polarity.arrival(u) else { continue };
        let outs = graph.out_neighbors(u);
        let from = outs.partition_point(|a| a.time <= reach);
        for entry in &outs[from..] {
            // `A(u) < τ` holds by the slice bound; `τ < D(v)` (checked
            // here) implies `τ ≤ τ_e`, and `τ > A(u) ≥ τ_b − 1` implies
            // `τ ≥ τ_b`, so no separate window test is needed.
            if polarity.departure(entry.neighbor).is_some_and(|depart| entry.time < depart) {
                buf.push(TemporalEdge::new(u, entry.neighbor, entry.time));
            }
        }
    }
}

/// Computes the polarity times and builds `G_q` in one call.
pub fn quick_upper_bound_graph(
    graph: &TemporalGraph,
    s: VertexId,
    t: VertexId,
    window: TimeInterval,
) -> TemporalGraph {
    let polarity = compute_polarity(graph, s, t, window);
    quick_upper_bound_graph_from(graph, &polarity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspg_graph::fixtures::{fig1, figure1_graph, figure1_query};
    use tspg_graph::{EdgeSet, TemporalEdge};

    #[test]
    fn reproduces_figure_3c() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let gq = quick_upper_bound_graph(&g, s, t, w);
        let expected = EdgeSet::from_edges(vec![
            TemporalEdge::new(fig1::S, fig1::B, 2),
            TemporalEdge::new(fig1::B, fig1::C, 3),
            TemporalEdge::new(fig1::C, fig1::F, 4),
            TemporalEdge::new(fig1::F, fig1::B, 5),
            TemporalEdge::new(fig1::F, fig1::E, 5),
            TemporalEdge::new(fig1::E, fig1::C, 6),
            TemporalEdge::new(fig1::B, fig1::T, 6),
            TemporalEdge::new(fig1::C, fig1::T, 7),
        ]);
        assert_eq!(EdgeSet::from_graph(&gq), expected);
        assert_eq!(gq.num_edges(), 8);
    }

    #[test]
    fn identical_to_dijkstra_based_tgtsg() {
        // The paper's discussion after Theorem 2: QuickUBG and tgTSG achieve
        // the same reduction; only their running time differs.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..25 {
            let n = rng.random_range(5..40);
            let edges: Vec<TemporalEdge> = (0..rng.random_range(10..250))
                .map(|_| {
                    TemporalEdge::new(
                        rng.random_range(0..n) as VertexId,
                        rng.random_range(0..n) as VertexId,
                        rng.random_range(1..25),
                    )
                })
                .filter(|e| e.src != e.dst)
                .collect();
            let g = TemporalGraph::from_edges(n, edges);
            let s = rng.random_range(0..n) as VertexId;
            let t = rng.random_range(0..n) as VertexId;
            let w = TimeInterval::new(2, 2 + rng.random_range(0..15));
            let ours = EdgeSet::from_graph(&quick_upper_bound_graph(&g, s, t, w));
            let theirs = EdgeSet::from_graph(&tspg_baselines::tg_tsg(&g, s, t, w));
            assert_eq!(ours, theirs);
        }
    }

    #[test]
    fn gq_is_contained_in_the_projection() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let gq = EdgeSet::from_graph(&quick_upper_bound_graph(&g, s, t, w));
        let dt = EdgeSet::from_graph(&g.project(w));
        assert!(gq.is_subset_of(&dt));
    }

    #[test]
    fn frontier_restricted_scan_matches_the_full_scan() {
        use crate::polarity::{
            compute_polarity_into_with_frontier, PolarityScratch, SourceFrontier,
        };
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let mut buf = Vec::new();
        let mut scratch = PolarityScratch::default();
        let mut times = PolarityTimes::default();
        let mut full = TemporalGraph::default();
        for case in 0..25 {
            let n = rng.random_range(5..30);
            let edges: Vec<TemporalEdge> = (0..rng.random_range(10..200))
                .map(|_| {
                    TemporalEdge::new(
                        rng.random_range(0..n) as VertexId,
                        rng.random_range(0..n) as VertexId,
                        rng.random_range(1..20),
                    )
                })
                .filter(|e| e.src != e.dst)
                .collect();
            let g = TemporalGraph::from_edges(n, edges);
            let s = rng.random_range(0..n) as VertexId;
            let hull = TimeInterval::new(2, 2 + rng.random_range(4..15));
            let frontier = SourceFrontier::compute(&g, s, hull);
            for _ in 0..3 {
                let t = rng.random_range(0..n) as VertexId;
                let window = TimeInterval::new(2, rng.random_range(2..=hull.end()));
                compute_polarity_into_with_frontier(
                    &g,
                    s,
                    t,
                    window,
                    &frontier,
                    &mut times,
                    &mut scratch,
                );
                frontier_candidate_edges(&g, &times, &frontier, &mut buf);
                quick_upper_bound_graph_into(&g, &times, &mut full);
                assert_eq!(buf.len(), full.num_edges(), "case {case}: ({s}, {t}, {window})");
                assert_eq!(
                    EdgeSet::from_edges(buf.iter().copied()),
                    EdgeSet::from_graph(&full),
                    "case {case}: restricted scan diverged for ({s}, {t}, {window})"
                );
            }
        }
    }

    #[test]
    fn frontier_gq_is_a_superset_of_the_avoiding_gq() {
        use crate::polarity::{
            compute_polarity_into_with_frontier, PolarityScratch, SourceFrontier,
        };
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let frontier = SourceFrontier::compute(&g, s, w);
        let mut times = PolarityTimes::default();
        let mut buf = Vec::new();
        compute_polarity_into_with_frontier(
            &g,
            s,
            t,
            w,
            &frontier,
            &mut times,
            &mut PolarityScratch::default(),
        );
        frontier_candidate_edges(&g, &times, &frontier, &mut buf);
        let avoiding = EdgeSet::from_graph(&quick_upper_bound_graph(&g, s, t, w));
        assert!(avoiding.is_subset_of(&EdgeSet::from_edges(buf.iter().copied())));
    }

    #[test]
    fn empty_when_target_unreachable() {
        let g = figure1_graph();
        let gq = quick_upper_bound_graph(&g, fig1::T, fig1::S, TimeInterval::new(2, 7));
        assert!(gq.is_empty());
    }
}
