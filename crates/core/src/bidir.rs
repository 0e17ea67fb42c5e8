//! Optimized bidirectional DFS (Algorithm 7, `BiDirSearch`).
//!
//! Given an unverified edge `e(u₀, v₀, τ₀)` of the tight upper-bound graph,
//! the searcher looks for **one** temporal simple path from `s` to `t`
//! through that edge: a backward simple path `s → … → u₀` arriving before
//! `τ₀` and a forward simple path `v₀ → … → t` departing after `τ₀`, sharing
//! no vertex. Both halves are explored by depth-first search over the same
//! visited set, and when the first half succeeds the search continues with
//! the other half — backtracking across the two halves if necessary.
//!
//! Two optimizations of the paper are implemented and individually
//! switchable (used by the ablation benchmarks):
//!
//! 1. **Search-direction prioritization** — the potentially longer half
//!    (larger remaining time budget) is searched first, so failures are
//!    discovered before effort is spent on the easier half.
//! 2. **Neighbour exploration order** — the forward search scans
//!    out-neighbours by non-ascending timestamp and the backward search
//!    scans in-neighbours by non-descending timestamp, biasing the DFS
//!    towards short paths that are less likely to collide with the other
//!    half.

use tspg_graph::{EdgeId, TemporalGraph, TimeInterval, Timestamp, VertexId};

/// Tuning knobs for the bidirectional search (both default to `true`, the
/// paper's configuration).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BidirOptions {
    /// Enable search-direction prioritization (optimization i).
    pub prioritize_direction: bool,
    /// Enable the temporal neighbour exploration order (optimization ii).
    pub order_neighbors: bool,
}

impl Default for BidirOptions {
    fn default() -> Self {
        Self { prioritize_direction: true, order_neighbors: true }
    }
}

/// Counters accumulated over all searches performed by one EEV run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BidirStats {
    /// Number of seed edges for which a search was started.
    pub searches: u64,
    /// Number of searches that found a witness path.
    pub successes: u64,
    /// Total number of DFS edge expansions across all searches.
    pub expansions: u64,
}

/// The reusable buffers of a [`BidirSearcher`]: the shared visited bitmap
/// (with its undo log) and the two half-path edge stacks.
///
/// Extracting the scratch from a finished searcher with
/// [`BidirSearcher::into_scratch`] and threading it into the next query's
/// searcher keeps the DFS allocation-free across a whole batch.
#[derive(Clone, Debug, Default)]
pub struct BidirScratch {
    visited: Vec<bool>,
    touched: Vec<VertexId>,
    forward_edges: Vec<EdgeId>,
    backward_edges: Vec<EdgeId>,
}

/// Reusable bidirectional searcher over one tight upper-bound graph.
#[derive(Debug)]
pub struct BidirSearcher<'g> {
    graph: &'g TemporalGraph,
    source: VertexId,
    target: VertexId,
    window: TimeInterval,
    options: BidirOptions,
    scratch: BidirScratch,
    stats: BidirStats,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Half {
    Forward,
    Backward,
}

impl<'g> BidirSearcher<'g> {
    /// Creates a searcher over the tight upper-bound graph `graph`.
    pub fn new(
        graph: &'g TemporalGraph,
        source: VertexId,
        target: VertexId,
        window: TimeInterval,
        options: BidirOptions,
    ) -> Self {
        Self::with_scratch(graph, source, target, window, options, BidirScratch::default())
    }

    /// Creates a searcher that reuses the buffers of a previous searcher
    /// (recover them with [`BidirSearcher::into_scratch`]).
    pub fn with_scratch(
        graph: &'g TemporalGraph,
        source: VertexId,
        target: VertexId,
        window: TimeInterval,
        options: BidirOptions,
        mut scratch: BidirScratch,
    ) -> Self {
        scratch.visited.clear();
        scratch.visited.resize(graph.num_vertices(), false);
        scratch.touched.clear();
        scratch.forward_edges.clear();
        scratch.backward_edges.clear();
        Self { graph, source, target, window, options, scratch, stats: BidirStats::default() }
    }

    /// Consumes the searcher and returns its buffers for reuse.
    pub fn into_scratch(self) -> BidirScratch {
        self.scratch
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> BidirStats {
        self.stats
    }

    /// Searches for a temporal simple path from `s` to `t` through the seed
    /// edge. On success returns the path as edge ids of the underlying graph
    /// in order from `s` to `t` (the seed edge included).
    pub fn find_path_through(&mut self, seed: EdgeId) -> Option<Vec<EdgeId>> {
        let mut path = Vec::new();
        self.find_path_through_into(seed, &mut path).then_some(path)
    }

    /// Buffer-reusing variant of [`BidirSearcher::find_path_through`]: on
    /// success fills `path` with the witness and returns `true` (the hot-path
    /// form used by EEV, which reuses one path buffer per worker).
    pub fn find_path_through_into(&mut self, seed: EdgeId, path: &mut Vec<EdgeId>) -> bool {
        path.clear();
        self.reset();
        self.stats.searches += 1;
        let edge = self.graph.edge(seed);
        let (u0, v0, tau0) = (edge.src, edge.dst, edge.time);
        if u0 == v0 {
            return false;
        }
        self.mark(u0);
        self.mark(v0);

        // Optimization i: search the potentially longer half first. The
        // budgets are compared in i128: at the ends of the timestamp range
        // either difference may exceed i64.
        let forward_first = if self.options.prioritize_direction {
            let (begin, end) = (i128::from(self.window.begin()), i128::from(self.window.end()));
            i128::from(tau0) - begin > end - i128::from(tau0)
        } else {
            true
        };
        let found = if forward_first {
            self.search(Half::Forward, v0, tau0, Some((u0, tau0)))
        } else {
            self.search(Half::Backward, u0, tau0, Some((v0, tau0)))
        };
        if !found {
            return false;
        }
        self.stats.successes += 1;
        path.extend(self.scratch.backward_edges.iter().rev().copied());
        path.push(seed);
        path.extend(self.scratch.forward_edges.iter().copied());
        true
    }

    fn reset(&mut self) {
        for &v in &self.scratch.touched {
            self.scratch.visited[v as usize] = false;
        }
        self.scratch.touched.clear();
        self.scratch.forward_edges.clear();
        self.scratch.backward_edges.clear();
    }

    fn mark(&mut self, v: VertexId) {
        if !self.scratch.visited[v as usize] {
            self.scratch.visited[v as usize] = true;
            self.scratch.touched.push(v);
        }
    }

    fn unmark(&mut self, v: VertexId) {
        self.scratch.visited[v as usize] = false;
        if self.scratch.touched.last() == Some(&v) {
            self.scratch.touched.pop();
        }
    }

    /// Depth-first extension of one half.
    ///
    /// * `half` — which half is currently extended.
    /// * `cur` — the frontier vertex of that half.
    /// * `bound` — the arrival time at `cur` (forward) or the departure time
    ///   from `cur` (backward); the next edge must be strictly later
    ///   (forward) or strictly earlier (backward).
    /// * `pending` — `Some((start, τ₀))` if the *other* half still has to be
    ///   searched once this one completes; `None` if the other half is done.
    fn search(
        &mut self,
        half: Half,
        cur: VertexId,
        bound: Timestamp,
        pending: Option<(VertexId, Timestamp)>,
    ) -> bool {
        match half {
            Half::Forward if cur == self.target => {
                return match pending {
                    None => true,
                    Some((start, tau0)) => self.search(Half::Backward, start, tau0, None),
                };
            }
            Half::Backward if cur == self.source => {
                return match pending {
                    None => true,
                    Some((start, tau0)) => self.search(Half::Forward, start, tau0, None),
                };
            }
            _ => {}
        }

        // The adjacency slices borrow the graph (not `self`), so the DFS can
        // walk them directly — no per-level buffer, no allocation.
        let graph = self.graph;
        let (entries, reversed): (&[tspg_graph::AdjEntry], bool) = match half {
            Half::Forward => {
                let Some(range) = bound
                    .checked_add(1)
                    .and_then(|next| TimeInterval::try_new(next, self.window.end()))
                else {
                    return false;
                };
                // Optimization ii wants non-ascending timestamps here, i.e.
                // the time-sorted slice iterated backwards.
                (graph.out_neighbors_in(cur, range), self.options.order_neighbors)
            }
            Half::Backward => {
                let Some(range) = bound
                    .checked_sub(1)
                    .and_then(|previous| TimeInterval::try_new(self.window.begin(), previous))
                else {
                    return false;
                };
                // Optimization ii wants non-descending timestamps here, i.e.
                // the slice's natural order.
                (graph.in_neighbors_in(cur, range), !self.options.order_neighbors)
            }
        };

        for i in 0..entries.len() {
            let entry = if reversed { entries[entries.len() - 1 - i] } else { entries[i] };
            self.stats.expansions += 1;
            let next = entry.neighbor;
            if self.scratch.visited[next as usize] {
                continue;
            }
            self.mark(next);
            match half {
                Half::Forward => self.scratch.forward_edges.push(entry.edge),
                Half::Backward => self.scratch.backward_edges.push(entry.edge),
            }
            if self.search(half, next, entry.time, pending) {
                return true;
            }
            match half {
                Half::Forward => self.scratch.forward_edges.pop(),
                Half::Backward => self.scratch.backward_edges.pop(),
            };
            self.unmark(next);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quick_ubg::quick_upper_bound_graph;
    use crate::tight_ubg::tight_upper_bound_graph;
    use tspg_enum::TemporalPath;
    use tspg_graph::fixtures::{fig1, figure1_graph, figure1_query};

    fn searcher_over_gt(
        options: BidirOptions,
    ) -> (TemporalGraph, VertexId, VertexId, TimeInterval) {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let gq = quick_upper_bound_graph(&g, s, t, w);
        let gt = tight_upper_bound_graph(&gq, s, t);
        let _ = options;
        (gt, s, t, w)
    }

    fn check_path(
        gt: &TemporalGraph,
        s: VertexId,
        t: VertexId,
        w: TimeInterval,
        ids: &[EdgeId],
        seed: EdgeId,
    ) {
        let edges: Vec<_> = ids.iter().map(|&id| gt.edge(id)).collect();
        assert!(ids.contains(&seed));
        let path = TemporalPath::new(edges).expect("edges must chain");
        path.validate(s, t, w).expect("witness must be a temporal simple path");
    }

    #[test]
    fn finds_witness_paths_on_the_running_example() {
        let (gt, s, t, w) = searcher_over_gt(BidirOptions::default());
        let mut searcher = BidirSearcher::new(&gt, s, t, w, BidirOptions::default());
        // e(b, c, 3) lies on ⟨s,b,c,t⟩.
        let seed = gt.find_edge(fig1::B, fig1::C, 3).unwrap();
        let path = searcher.find_path_through(seed).expect("path must exist");
        check_path(&gt, s, t, w, &path, seed);
        // e(c, f, 4) lies on no temporal simple path from s to t: f is a dead
        // end inside G_t.
        let seed = gt.find_edge(fig1::C, fig1::F, 4).unwrap();
        assert!(searcher.find_path_through(seed).is_none());
        let stats = searcher.stats();
        assert_eq!(stats.searches, 2);
        assert_eq!(stats.successes, 1);
        assert!(stats.expansions > 0);
    }

    #[test]
    fn all_option_combinations_agree_on_existence() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        // Search over G_q (larger than G_t) so that cycle edges exercise the
        // backtracking across halves.
        let gq = quick_upper_bound_graph(&g, s, t, w);
        let combos = [
            BidirOptions { prioritize_direction: true, order_neighbors: true },
            BidirOptions { prioritize_direction: true, order_neighbors: false },
            BidirOptions { prioritize_direction: false, order_neighbors: true },
            BidirOptions { prioritize_direction: false, order_neighbors: false },
        ];
        for edge_id in 0..gq.num_edges() as EdgeId {
            let results: Vec<bool> = combos
                .iter()
                .map(|&opt| {
                    let mut searcher = BidirSearcher::new(&gq, s, t, w, opt);
                    let found = searcher.find_path_through(edge_id);
                    if let Some(ids) = &found {
                        check_path(&gq, s, t, w, ids, edge_id);
                    }
                    found.is_some()
                })
                .collect();
            assert!(
                results.iter().all(|&r| r == results[0]),
                "options disagree on edge {:?}",
                gq.edge(edge_id)
            );
        }
    }

    #[test]
    fn seed_incident_to_endpoints_is_handled() {
        let (gt, s, t, w) = searcher_over_gt(BidirOptions::default());
        let mut searcher = BidirSearcher::new(&gt, s, t, w, BidirOptions::default());
        let seed = gt.find_edge(fig1::S, fig1::B, 2).unwrap();
        let path = searcher.find_path_through(seed).unwrap();
        check_path(&gt, s, t, w, &path, seed);
        let seed = gt.find_edge(fig1::C, fig1::T, 7).unwrap();
        let path = searcher.find_path_through(seed).unwrap();
        check_path(&gt, s, t, w, &path, seed);
    }

    #[test]
    fn cross_half_backtracking_is_supported() {
        // Craft a graph where the greedy forward path blocks the backward
        // half, forcing the search to backtrack into the forward half:
        //   s -1-> u, u -3-> x -4-> t, u -3-> t (via x only),
        //   backward of the seed must go through x if forward grabbed it.
        // Seed edge: u -2-> v where v -3-> x -4-> t and s -1-> u.
        let g = tspg_graph::TemporalGraph::from_edges(
            6,
            vec![
                tspg_graph::TemporalEdge::new(0, 1, 1), // s -> u
                tspg_graph::TemporalEdge::new(1, 2, 2), // u -> v (seed)
                tspg_graph::TemporalEdge::new(2, 3, 3), // v -> x
                tspg_graph::TemporalEdge::new(3, 4, 4), // x -> t
                tspg_graph::TemporalEdge::new(2, 4, 5), // v -> t (alternative forward)
                tspg_graph::TemporalEdge::new(3, 1, 1), // x -> u (tempting backward via x)
            ],
        );
        let w = TimeInterval::new(1, 5);
        let (s, t) = (0, 4);
        for opt in [
            BidirOptions { prioritize_direction: false, order_neighbors: false },
            BidirOptions::default(),
        ] {
            let mut searcher = BidirSearcher::new(&g, s, t, w, opt);
            let seed = g.find_edge(1, 2, 2).unwrap();
            let path = searcher.find_path_through(seed).expect("a witness exists");
            check_path(&g, s, t, w, &path, seed);
        }
    }

    #[test]
    fn self_loop_seed_is_rejected() {
        let g =
            tspg_graph::TemporalGraph::from_edges(2, vec![tspg_graph::TemporalEdge::new(0, 0, 3)]);
        let mut searcher =
            BidirSearcher::new(&g, 0, 1, TimeInterval::new(1, 5), BidirOptions::default());
        assert!(searcher.find_path_through(0).is_none());
    }
}
