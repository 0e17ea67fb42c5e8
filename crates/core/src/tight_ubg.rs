//! Tight upper-bound graph generation (Algorithm 5).
//!
//! `TightUBG` shrinks the quick upper-bound graph `G_q` using the simple
//! path constraint: an edge `e(u, v, τ)` with `u ≠ s` and `v ≠ t` can only
//! lie on a temporal simple path from `s` to `t` if some prefix path into
//! `u` and some suffix path out of `v` are vertex-disjoint, and a necessary
//! condition for that is the disjointness of the corresponding time-stream
//! common vertex sets (Lemma 3). Thanks to Lemma 8 only one intersection —
//! at the extreme timestamps `τ_l = max{T_in(u) < τ}` and
//! `τ_r = min{T_out(v) > τ}` — has to be checked per edge, so the whole pass
//! is `O(n + θ·m)`.

use crate::tcv::TcvTables;
use tspg_graph::{TemporalGraph, VertexId};

/// Builds `G_t` from `G_q` and precomputed TCV tables (Algorithm 5 /
/// Lemma 9).
pub fn tight_upper_bound_graph_from(
    gq: &TemporalGraph,
    tcv: &TcvTables,
    s: VertexId,
    t: VertexId,
) -> TemporalGraph {
    gq.edge_induced(|_, e| keep_edge(tcv, s, t, e))
}

/// In-place variant of [`tight_upper_bound_graph_from`]: rebuilds `out` as
/// `G_t`, reusing its storage (allocation-free once warm).
pub fn tight_upper_bound_graph_into(
    gq: &TemporalGraph,
    tcv: &TcvTables,
    s: VertexId,
    t: VertexId,
    out: &mut TemporalGraph,
) {
    out.assign_edge_induced(gq, |_, e| keep_edge(tcv, s, t, e));
}

/// The per-edge retention test of Algorithm 5.
fn keep_edge(tcv: &TcvTables, s: VertexId, t: VertexId, e: &tspg_graph::TemporalEdge) -> bool {
    if e.src == s || e.dst == t {
        // Lemma 2 case ii): edges incident to the query endpoints are
        // always retained (and are in fact already part of the tspG).
        return true;
    }
    // Lemma 8: it suffices to test the latest prefix entry of u strictly
    // before τ against the earliest suffix entry of v strictly after τ.
    let forward = tcv.forward_before(e.src, e.time);
    let backward = tcv.backward_after(e.dst, e.time);
    forward.is_disjoint(&backward)
}

/// Computes the TCV tables and builds `G_t` in one call.
pub fn tight_upper_bound_graph(gq: &TemporalGraph, s: VertexId, t: VertexId) -> TemporalGraph {
    let tcv = TcvTables::compute(gq, s, t);
    tight_upper_bound_graph_from(gq, &tcv, s, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quick_ubg::quick_upper_bound_graph;
    use tspg_graph::fixtures::{fig1, figure1_graph, figure1_query};
    use tspg_graph::{EdgeSet, TemporalEdge, TimeInterval};

    #[test]
    fn reproduces_figure_4c() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let gq = quick_upper_bound_graph(&g, s, t, w);
        let gt = tight_upper_bound_graph(&gq, s, t);
        let expected = EdgeSet::from_edges(vec![
            TemporalEdge::new(fig1::S, fig1::B, 2),
            TemporalEdge::new(fig1::B, fig1::C, 3),
            TemporalEdge::new(fig1::C, fig1::F, 4), // kept: TCV_3(s,c) ∩ TCV_5(f,t) = ∅ (Example 8)
            TemporalEdge::new(fig1::B, fig1::T, 6),
            TemporalEdge::new(fig1::C, fig1::T, 7),
        ]);
        assert_eq!(EdgeSet::from_graph(&gt), expected);
        // The cycle edges e(e,c,6), e(f,e,5), e(f,b,5) are pruned by the
        // simple-path constraint, which no baseline upper bound achieves.
        assert!(!gt.has_edge(fig1::E, fig1::C, 6));
        assert!(!gt.has_edge(fig1::F, fig1::E, 5));
        assert!(!gt.has_edge(fig1::F, fig1::B, 5));
    }

    #[test]
    fn gt_is_sandwiched_between_tspg_and_gq() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let gq = quick_upper_bound_graph(&g, s, t, w);
        let gt = tight_upper_bound_graph(&gq, s, t);
        let gq_set = EdgeSet::from_graph(&gq);
        let gt_set = EdgeSet::from_graph(&gt);
        let tspg = EdgeSet::from_edges(tspg_graph::fixtures::figure1_expected_tspg_edges());
        assert!(tspg.is_subset_of(&gt_set));
        assert!(gt_set.is_subset_of(&gq_set));
    }

    #[test]
    fn gt_is_an_upper_bound_on_random_graphs() {
        // G_t must contain the exact tspG (computed by brute force) and be
        // contained in G_q, for every random query.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for case in 0..60 {
            let n: u32 = rng.random_range(4..14);
            let m = rng.random_range(8..80);
            let edges: Vec<TemporalEdge> = (0..m)
                .map(|_| {
                    TemporalEdge::new(
                        rng.random_range(0..n),
                        rng.random_range(0..n),
                        rng.random_range(1..12),
                    )
                })
                .filter(|e| e.src != e.dst)
                .collect();
            let g = tspg_graph::TemporalGraph::from_edges(n as usize, edges);
            let s = rng.random_range(0..n);
            let t = rng.random_range(0..n);
            if s == t {
                continue;
            }
            let w = TimeInterval::new(1, rng.random_range(2..12));
            let gq = quick_upper_bound_graph(&g, s, t, w);
            let gt = tight_upper_bound_graph(&gq, s, t);
            let gq_set = EdgeSet::from_graph(&gq);
            let gt_set = EdgeSet::from_graph(&gt);
            assert!(gt_set.is_subset_of(&gq_set), "case {case}: G_t ⊄ G_q");
            let exact = tspg_enum::naive_tspg(&g, s, t, w, &tspg_enum::Budget::unlimited()).tspg;
            assert!(
                exact.is_subset_of(&gt_set),
                "case {case}: tspG ⊄ G_t (missing {:?})",
                exact.difference(&gt_set)
            );
        }
    }

    #[test]
    fn empty_gq_yields_empty_gt() {
        let gq = tspg_graph::TemporalGraph::empty(4);
        let gt = tight_upper_bound_graph(&gq, 0, 3);
        assert!(gt.is_empty());
    }
}
