//! `tgTSG`: the strict-temporal upper bound computed with bidirectional
//! Dijkstra.
//!
//! `tgTSG` keeps an edge `e(u, v, τ)` only if it lies on some walk from `s`
//! to `t` with **strictly ascending** timestamps inside the query window —
//! the same reduction that VUG's `QuickUBG` achieves. The difference is the
//! machinery: `tgTSG` computes earliest-arrival and latest-departure times
//! with a priority queue (Dijkstra), paying an `O(log n)` factor, whereas
//! `QuickUBG` uses the BFS-like label-correcting scan of Algorithm 3. The
//! two must produce identical upper-bound graphs (this is asserted by the
//! integration tests), which is exactly the comparison of Fig. 9.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tspg_graph::{TemporalGraph, TimeInterval, Timestamp, VertexId};

/// Earliest strict arrival times from `s` and latest strict departure times
/// towards `t`, computed with two Dijkstra passes.
///
/// Mirroring Algorithm 3 of the paper, the forward pass never relaxes an
/// edge into `t` (so `A(t)` stays "+∞" / `None`) and the backward pass never
/// relaxes an edge into `s`; the sentinels are `A(s) = τ_b − 1` and
/// `D(t) = τ_e + 1`. At the ends of the timestamp range they saturate, so
/// neither pass compares them: the edges of `s` and `t` are bounded by the
/// window alone.
pub fn tg_polarity(
    graph: &TemporalGraph,
    s: VertexId,
    t: VertexId,
    window: TimeInterval,
) -> (Vec<Option<Timestamp>>, Vec<Option<Timestamp>>) {
    let n = graph.num_vertices();
    let mut arrival: Vec<Option<Timestamp>> = vec![None; n];
    let mut departure: Vec<Option<Timestamp>> = vec![None; n];
    if (s as usize) >= n || (t as usize) >= n {
        return (arrival, departure);
    }

    // Forward Dijkstra: minimise arrival time under strict ascent.
    let sentinel = window.begin().saturating_sub(1);
    arrival[s as usize] = Some(sentinel);
    let mut heap: BinaryHeap<Reverse<(Timestamp, VertexId)>> = BinaryHeap::new();
    heap.push(Reverse((sentinel, s)));
    while let Some(Reverse((dist, u))) = heap.pop() {
        if arrival[u as usize] != Some(dist) {
            continue; // stale entry
        }
        for entry in graph.out_neighbors_in(u, window) {
            if entry.neighbor == t || (u != s && entry.time <= dist) {
                continue;
            }
            let v = entry.neighbor as usize;
            if arrival[v].is_none_or(|cur| entry.time < cur) {
                arrival[v] = Some(entry.time);
                heap.push(Reverse((entry.time, entry.neighbor)));
            }
        }
    }

    // Backward Dijkstra: maximise departure time under strict ascent.
    let sentinel = window.end().saturating_add(1);
    departure[t as usize] = Some(sentinel);
    let mut heap: BinaryHeap<(Timestamp, VertexId)> = BinaryHeap::new();
    heap.push((sentinel, t));
    while let Some((dist, u)) = heap.pop() {
        if departure[u as usize] != Some(dist) {
            continue;
        }
        for entry in graph.in_neighbors_in(u, window) {
            if entry.neighbor == s || (u != t && entry.time >= dist) {
                continue;
            }
            let v = entry.neighbor as usize;
            if departure[v].is_none_or(|cur| entry.time > cur) {
                departure[v] = Some(entry.time);
                heap.push((entry.time, entry.neighbor));
            }
        }
    }

    (arrival, departure)
}

/// Builds the `tgTSG` upper-bound graph for the query `(s, t, window)`:
/// keep `e(u, v, τ)` iff `A(u) < τ < D(v)` (Lemma 1 of the paper), with
/// the window standing in for the sentinels of `s` and `t`.
pub fn tg_tsg(
    graph: &TemporalGraph,
    s: VertexId,
    t: VertexId,
    window: TimeInterval,
) -> TemporalGraph {
    let (arrival, departure) = tg_polarity(graph, s, t, window);
    graph.edge_induced(|_, e| {
        window.contains(e.time)
            && arrival[e.src as usize].is_some_and(|a| e.src == s || a < e.time)
            && departure[e.dst as usize].is_some_and(|d| e.dst == t || e.time < d)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspg_graph::fixtures::{fig1, figure1_graph, figure1_query};
    use tspg_graph::EdgeSet;

    #[test]
    fn polarity_matches_figure_3() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let (a, d) = tg_polarity(&g, s, t, w);
        assert_eq!(a[fig1::S as usize], Some(1));
        assert_eq!(a[fig1::A as usize], Some(3));
        assert_eq!(a[fig1::B as usize], Some(2));
        assert_eq!(a[fig1::C as usize], Some(3));
        assert_eq!(a[fig1::D as usize], Some(3)); // improved from 4 via b
        assert_eq!(a[fig1::E as usize], Some(5));
        assert_eq!(a[fig1::F as usize], Some(4)); // improved from 5 via c
        assert_eq!(a[fig1::T as usize], None); // +∞ in the paper

        assert_eq!(d[fig1::T as usize], Some(8));
        assert_eq!(d[fig1::B as usize], Some(6));
        assert_eq!(d[fig1::C as usize], Some(7));
        assert_eq!(d[fig1::D as usize], Some(2));
        assert_eq!(d[fig1::E as usize], Some(6));
        assert_eq!(d[fig1::F as usize], Some(5));
        assert_eq!(d[fig1::A as usize], None); // -∞ in the paper
        assert_eq!(d[fig1::S as usize], None); // never relaxed into s
    }

    #[test]
    fn tg_tsg_matches_figure_3c() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let ub = tg_tsg(&g, s, t, w);
        let expected = EdgeSet::from_edges(vec![
            tspg_graph::TemporalEdge::new(fig1::S, fig1::B, 2),
            tspg_graph::TemporalEdge::new(fig1::B, fig1::C, 3),
            tspg_graph::TemporalEdge::new(fig1::C, fig1::F, 4),
            tspg_graph::TemporalEdge::new(fig1::F, fig1::B, 5),
            tspg_graph::TemporalEdge::new(fig1::F, fig1::E, 5),
            tspg_graph::TemporalEdge::new(fig1::E, fig1::C, 6),
            tspg_graph::TemporalEdge::new(fig1::B, fig1::T, 6),
            tspg_graph::TemporalEdge::new(fig1::C, fig1::T, 7),
        ]);
        assert_eq!(EdgeSet::from_graph(&ub), expected);
    }

    #[test]
    fn tg_is_tighter_than_es_on_the_example() {
        // e(b, f, 5) survives esTSG (non-decreasing walks) but not tgTSG
        // (strict ascent: departing f after 5 is possible only at 5).
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let ub = tg_tsg(&g, s, t, w);
        assert!(!ub.has_edge(fig1::B, fig1::F, 5));
    }

    #[test]
    fn unreachable_and_out_of_range_queries() {
        let g = figure1_graph();
        let (_, _, w) = figure1_query();
        assert!(tg_tsg(&g, fig1::T, fig1::S, w).is_empty());
        assert!(tg_tsg(&g, 99, fig1::T, w).is_empty());
        assert!(tg_tsg(&g, fig1::S, 99, w).is_empty());
    }

    #[test]
    fn direct_edge_between_s_and_t_is_kept() {
        let g =
            tspg_graph::TemporalGraph::from_edges(2, vec![tspg_graph::TemporalEdge::new(0, 1, 5)]);
        let ub = tg_tsg(&g, 0, 1, TimeInterval::new(2, 7));
        assert_eq!(ub.num_edges(), 1);
        let ub = tg_tsg(&g, 0, 1, TimeInterval::new(6, 7));
        assert_eq!(ub.num_edges(), 0);
    }
}
