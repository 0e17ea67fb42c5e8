//! Quick upper-bound graph generation (Algorithm 2).
//!
//! Given the polarity times, the quick upper-bound graph `G_q` keeps exactly
//! the edges `e(u, v, τ)` with `A(u) < τ < D(v)` (Lemma 1): the edges lying
//! on at least one strict temporal path from `s` to `t` within the window.
//! The public builders scan all `m` edges; the engine gathers the same edges
//! from the out-edges of the vertices the forward pass labelled, so its scan
//! costs `G_q`'s neighbourhood.

use crate::polarity::{compute_polarity, PolarityTimes};
use tspg_graph::{EdgeId, TemporalGraph, TimeInterval, VertexId};

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

/// Output-sensitive edge scan: gathers into `ids` exactly the edges
/// [`quick_upper_bound_graph_into`] keeps over the same tables, as edge ids
/// of `graph` in ascending order (which is the graph's time order).
///
/// Only the out-edges of the vertices in `reached` are read, and of those
/// only the ones timed in `(A(u), τ_e]` — the window for `s`, whose
/// sentinel is never compared. `reached` must list every vertex with an
/// arrival label in `polarity` (the labelling records it): every admitted
/// edge leaves such a vertex, so the restricted scan loses nothing. The
/// labels may be a query's own or a shared frontier's (then the edges are
/// the candidate superset `H`); either way the cost is the labelled
/// vertices' out-degree inside the window, not `m`.
pub(crate) fn candidate_edges_into(
    graph: &TemporalGraph,
    polarity: &PolarityTimes,
    reached: &[VertexId],
    ids: &mut Vec<EdgeId>,
) {
    ids.clear();
    let Some((s, t, window)) = polarity.query() else { return };
    for &u in reached {
        let Some(reach) = polarity.arrival(u) else { continue };
        let outs = graph.out_neighbors_in(u, window);
        // Labels lie inside the window, so this skips a prefix of it.
        let from = if u == s { 0 } else { outs.partition_point(|a| a.time <= reach) };
        for entry in &outs[from..] {
            let v = entry.neighbor;
            if polarity.departure(v).is_some_and(|depart| v == t || entry.time < depart) {
                ids.push(entry.edge);
            }
        }
    }
    ids.sort_unstable();
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
        use crate::polarity::{relabel_polarity_into, PolarityScratch, SourceFrontier};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let mut ids = Vec::new();
        // One warm scratch across graphs of different sizes, each query
        // labelled from a frontier and then directly: the touched-list
        // reset must leave nothing behind from the previous labelling.
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
                for shared in [Some(&frontier), None] {
                    relabel_polarity_into(&g, s, t, window, shared, &mut times, &mut scratch);
                    candidate_edges_into(&g, &times, scratch.reached(), &mut ids);
                    quick_upper_bound_graph_into(&g, &times, &mut full);
                    let gathered: Vec<TemporalEdge> = ids.iter().map(|&id| g.edge(id)).collect();
                    assert_eq!(
                        gathered,
                        full.edges(),
                        "case {case}: restricted scan diverged for ({s}, {t}, {window}), \
                         frontier {}",
                        shared.is_some()
                    );
                }
                // The direct labelling's scan is G_q itself.
                let gq = quick_upper_bound_graph(&g, s, t, window);
                assert_eq!(full.edges(), gq.edges(), "case {case}");
            }
        }
    }

    #[test]
    fn frontier_gq_is_a_superset_of_the_avoiding_gq() {
        use crate::polarity::{relabel_polarity_into, PolarityScratch, SourceFrontier};
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let frontier = SourceFrontier::compute(&g, s, w);
        let mut times = PolarityTimes::default();
        let mut scratch = PolarityScratch::default();
        let mut ids = Vec::new();
        relabel_polarity_into(&g, s, t, w, Some(&frontier), &mut times, &mut scratch);
        candidate_edges_into(&g, &times, scratch.reached(), &mut ids);
        let avoiding = EdgeSet::from_graph(&quick_upper_bound_graph(&g, s, t, w));
        let candidate = EdgeSet::from_edges(ids.iter().map(|&id| g.edge(id)));
        assert!(avoiding.is_subset_of(&candidate));
    }

    #[test]
    fn empty_when_target_unreachable() {
        let g = figure1_graph();
        let gq = quick_upper_bound_graph(&g, fig1::T, fig1::S, TimeInterval::new(2, 7));
        assert!(gq.is_empty());
    }
}
