//! Depth-first enumeration of strict temporal simple paths.
//!
//! The enumerator implements the DFS described in Section III-A of the
//! paper: starting from the source it extends a path edge by edge, only
//! following edges whose timestamp is strictly larger than the timestamp of
//! the previous edge and whose head has not been visited yet, and reports a
//! path whenever the target is reached. Its worst-case running time is
//! `O(d^θ · θ · m)`, which is why the faster VUG pipeline exists; here the
//! cost is kept in check by [`Budget`]s.

use crate::budget::{Budget, BudgetClock, SearchStatus};
use crate::path::TemporalPath;
use std::ops::ControlFlow;
use std::time::Duration;
use tspg_graph::{TemporalEdge, TemporalGraph, TimeInterval, Timestamp, VertexId};

/// Counters describing a single enumeration run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of DFS edge-expansion steps performed.
    pub steps: u64,
    /// Number of temporal simple paths reported.
    pub paths_found: u64,
    /// Total number of edges over all reported paths. Used as a proxy for
    /// the memory a baseline needs to store the enumerated paths explicitly
    /// (Fig. 7).
    pub total_path_edges: u64,
    /// Length of the longest reported path.
    pub max_path_len: usize,
    /// How the run terminated.
    pub status: SearchStatus,
}

impl SearchStats {
    fn new() -> Self {
        Self {
            steps: 0,
            paths_found: 0,
            total_path_edges: 0,
            max_path_len: 0,
            status: SearchStatus::Complete,
        }
    }

    /// Approximate bytes needed to store every reported path explicitly.
    pub fn stored_path_bytes(&self) -> usize {
        self.total_path_edges as usize * std::mem::size_of::<TemporalEdge>()
    }
}

/// Result of [`enumerate_paths`]: the collected paths plus search counters.
#[derive(Clone, Debug)]
pub struct EnumerationOutcome {
    /// Every temporal simple path found (possibly truncated by the budget).
    pub paths: Vec<TemporalPath>,
    /// Search counters.
    pub stats: SearchStats,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

/// Result of [`count_paths`]: the number of paths plus search counters.
#[derive(Clone, Copy, Debug)]
pub struct CountOutcome {
    /// Number of temporal simple paths found (possibly truncated).
    pub count: u64,
    /// Search counters.
    pub stats: SearchStats,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

/// Enumerates every strict temporal simple path from `s` to `t` within
/// `window`, invoking `visitor` for each. The visitor can stop the search
/// early by returning [`ControlFlow::Break`].
///
/// When `s == t` there is no temporal simple path with at least one edge
/// (any such path would repeat `s`), so the visitor is never called.
pub fn visit_paths<F>(
    graph: &TemporalGraph,
    s: VertexId,
    t: VertexId,
    window: TimeInterval,
    budget: &Budget,
    mut visitor: F,
) -> (SearchStats, Duration)
where
    F: FnMut(&TemporalPath) -> ControlFlow<()>,
{
    let mut stats = SearchStats::new();
    let mut clock = budget.start();
    if s != t
        && (s as usize) < graph.num_vertices()
        && (t as usize) < graph.num_vertices()
        && !graph.is_empty()
    {
        let mut state = DfsState {
            graph,
            target: t,
            window,
            visited: vec![false; graph.num_vertices()],
            path: Vec::new(),
            stats: &mut stats,
            clock: &mut clock,
            visitor: &mut visitor,
        };
        state.visited[s as usize] = true;
        // The first edge may take any timestamp inside the window.
        let _ = state.explore(s, window.begin());
    }
    stats.steps = clock.steps;
    stats.paths_found = clock.paths;
    (stats, clock.elapsed())
}

/// Enumerates and collects every strict temporal simple path from `s` to `t`
/// within `window`, subject to `budget`.
pub fn enumerate_paths(
    graph: &TemporalGraph,
    s: VertexId,
    t: VertexId,
    window: TimeInterval,
    budget: &Budget,
) -> EnumerationOutcome {
    let mut paths = Vec::new();
    let (stats, elapsed) = visit_paths(graph, s, t, window, budget, |p| {
        paths.push(p.clone());
        ControlFlow::Continue(())
    });
    EnumerationOutcome { paths, stats, elapsed }
}

/// Counts the strict temporal simple paths from `s` to `t` within `window`
/// without storing them (Exp-7 needs counts in the millions).
pub fn count_paths(
    graph: &TemporalGraph,
    s: VertexId,
    t: VertexId,
    window: TimeInterval,
    budget: &Budget,
) -> CountOutcome {
    let mut count = 0u64;
    let (stats, elapsed) = visit_paths(graph, s, t, window, budget, |_| {
        count += 1;
        ControlFlow::Continue(())
    });
    CountOutcome { count, stats, elapsed }
}

struct DfsState<'a, F> {
    graph: &'a TemporalGraph,
    target: VertexId,
    window: TimeInterval,
    visited: Vec<bool>,
    path: Vec<TemporalEdge>,
    stats: &'a mut SearchStats,
    clock: &'a mut BudgetClock,
    visitor: &'a mut F,
}

impl<F> DfsState<'_, F>
where
    F: FnMut(&TemporalPath) -> ControlFlow<()>,
{
    /// Extends the current path from `cur` by edges at `earliest` or later.
    /// Returns `Break` when the search must stop (budget hit or visitor
    /// abort).
    fn explore(&mut self, cur: VertexId, earliest: Timestamp) -> ControlFlow<()> {
        let lower = TimeInterval::try_new(earliest, self.window.end());
        let Some(lower) = lower else { return ControlFlow::Continue(()) };
        for entry in self.graph.out_neighbors_in(cur, lower) {
            if let Some(status) = self.clock.tick_step() {
                self.stats.status = status;
                return ControlFlow::Break(());
            }
            let next = entry.neighbor;
            if self.visited[next as usize] {
                continue;
            }
            let edge = self.graph.edge(entry.edge);
            self.path.push(edge);
            if next == self.target {
                self.stats.total_path_edges += self.path.len() as u64;
                self.stats.max_path_len = self.stats.max_path_len.max(self.path.len());
                let path = TemporalPath::from_edges_unchecked(self.path.clone());
                let flow = (self.visitor)(&path);
                let budget_hit = self.clock.tick_path();
                self.path.pop();
                if flow.is_break() {
                    return ControlFlow::Break(());
                }
                if let Some(status) = budget_hit {
                    self.stats.status = status;
                    return ControlFlow::Break(());
                }
            } else {
                // A path that arrives at `i64::MAX` cannot be extended.
                let flow = match edge.time.checked_add(1) {
                    Some(earliest) => {
                        self.visited[next as usize] = true;
                        let flow = self.explore(next, earliest);
                        self.visited[next as usize] = false;
                        flow
                    }
                    None => ControlFlow::Continue(()),
                };
                self.path.pop();
                flow?;
            }
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspg_graph::fixtures::{figure1_graph, figure1_query};
    use tspg_graph::TemporalGraphBuilder;

    #[test]
    fn figure1_has_exactly_two_paths() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let out = enumerate_paths(&g, s, t, w, &Budget::unlimited());
        assert_eq!(out.stats.status, SearchStatus::Complete);
        assert_eq!(out.paths.len(), 2);
        for p in &out.paths {
            p.validate(s, t, w).unwrap();
        }
        let mut lens: Vec<usize> = out.paths.iter().map(|p| p.len()).collect();
        lens.sort_unstable();
        assert_eq!(lens, vec![2, 3]); // ⟨s,b,t⟩ and ⟨s,b,c,t⟩
        assert_eq!(out.stats.paths_found, 2);
        assert_eq!(out.stats.total_path_edges, 5);
        assert_eq!(out.stats.max_path_len, 3);
        assert!(out.stats.stored_path_bytes() > 0);
    }

    #[test]
    fn counting_matches_enumeration() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let c = count_paths(&g, s, t, w, &Budget::unlimited());
        assert_eq!(c.count, 2);
        assert_eq!(c.stats.status, SearchStatus::Complete);
    }

    #[test]
    fn narrower_windows_reduce_paths() {
        let g = figure1_graph();
        let (s, t, _) = figure1_query();
        // Only ⟨s -2-> b -6-> t⟩ fits inside [2, 6].
        let c = count_paths(&g, s, t, TimeInterval::new(2, 6), &Budget::unlimited());
        assert_eq!(c.count, 1);
        // Nothing fits inside [3, 5].
        let c = count_paths(&g, s, t, TimeInterval::new(3, 5), &Budget::unlimited());
        assert_eq!(c.count, 0);
    }

    #[test]
    fn source_equals_target_yields_no_paths() {
        let g = figure1_graph();
        let c = count_paths(&g, 0, 0, TimeInterval::new(2, 7), &Budget::unlimited());
        assert_eq!(c.count, 0);
        assert_eq!(c.stats.status, SearchStatus::Complete);
    }

    #[test]
    fn unreachable_target_yields_no_paths() {
        // a (vertex 1) cannot reach s (vertex 0).
        let g = figure1_graph();
        let c = count_paths(&g, 1, 0, TimeInterval::new(2, 7), &Budget::unlimited());
        assert_eq!(c.count, 0);
    }

    #[test]
    fn out_of_range_vertices_are_handled() {
        let g = figure1_graph();
        let c = count_paths(&g, 0, 99, TimeInterval::new(2, 7), &Budget::unlimited());
        assert_eq!(c.count, 0);
        let c = count_paths(&g, 99, 0, TimeInterval::new(2, 7), &Budget::unlimited());
        assert_eq!(c.count, 0);
    }

    #[test]
    fn strictness_of_temporal_order() {
        // Two consecutive edges with the same timestamp cannot be chained.
        let mut b = TemporalGraphBuilder::new();
        b.add_edge(0, 1, 5).add_edge(1, 2, 5);
        let g = b.build();
        let c = count_paths(&g, 0, 2, TimeInterval::new(1, 10), &Budget::unlimited());
        assert_eq!(c.count, 0);
        // With ascending times the path exists.
        let mut b = TemporalGraphBuilder::new();
        b.add_edge(0, 1, 5).add_edge(1, 2, 6);
        let g = b.build();
        let c = count_paths(&g, 0, 2, TimeInterval::new(1, 10), &Budget::unlimited());
        assert_eq!(c.count, 1);
    }

    #[test]
    fn simplicity_excludes_cycles() {
        // 0 -> 1 -> 2 -> 1 -> 3 revisits vertex 1; only the direct chain
        // 0 -> 1 -> 3 ... does not exist here, so expect exactly the
        // cycle-free path 0 -> 1 -> 2 -> 3.
        let mut b = TemporalGraphBuilder::new();
        b.add_edge(0, 1, 1).add_edge(1, 2, 2).add_edge(2, 1, 3).add_edge(1, 3, 4).add_edge(2, 3, 5);
        let g = b.build();
        let out = enumerate_paths(&g, 0, 3, TimeInterval::new(1, 10), &Budget::unlimited());
        let descriptions: Vec<String> = out.paths.iter().map(|p| p.to_string()).collect();
        assert_eq!(out.paths.len(), 2, "{descriptions:?}");
        for p in &out.paths {
            assert!(p.is_simple());
        }
    }

    #[test]
    fn parallel_edges_produce_distinct_paths() {
        let mut b = TemporalGraphBuilder::new();
        b.add_edge(0, 1, 1).add_edge(0, 1, 2).add_edge(1, 2, 3).add_edge(1, 2, 4);
        let g = b.build();
        let c = count_paths(&g, 0, 2, TimeInterval::new(1, 4), &Budget::unlimited());
        assert_eq!(c.count, 4);
    }

    #[test]
    fn diamond_graph_counts() {
        // Two internally disjoint routes of length 2 plus a direct edge.
        let mut b = TemporalGraphBuilder::new();
        b.add_edge(0, 1, 1).add_edge(1, 3, 2).add_edge(0, 2, 2).add_edge(2, 3, 3).add_edge(0, 3, 5);
        let g = b.build();
        let c = count_paths(&g, 0, 3, TimeInterval::new(1, 5), &Budget::unlimited());
        assert_eq!(c.count, 3);
    }

    #[test]
    fn path_budget_truncates() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let out = enumerate_paths(&g, s, t, w, &Budget::paths(1));
        assert_eq!(out.paths.len(), 1);
        assert_eq!(out.stats.status, SearchStatus::PathLimit);
    }

    #[test]
    fn step_budget_truncates() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let out = enumerate_paths(&g, s, t, w, &Budget::steps(1));
        assert_eq!(out.stats.status, SearchStatus::StepLimit);
        assert!(out.stats.steps <= 2);
    }

    #[test]
    fn visitor_can_abort_early() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let mut seen = 0;
        let (stats, _) = visit_paths(&g, s, t, w, &Budget::unlimited(), |_| {
            seen += 1;
            ControlFlow::Break(())
        });
        assert_eq!(seen, 1);
        // The abort came from the visitor, not from the budget.
        assert_eq!(stats.status, SearchStatus::Complete);
        assert_eq!(stats.paths_found, 1);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = TemporalGraph::empty(3);
        let c = count_paths(&g, 0, 2, TimeInterval::new(1, 5), &Budget::unlimited());
        assert_eq!(c.count, 0);
    }

    #[test]
    fn interval_length_bounds_path_length() {
        // A long chain with unit timestamps: the window span bounds how far
        // we can get (Remark 1: l ≤ θ).
        let mut b = TemporalGraphBuilder::new();
        for i in 0..10u32 {
            b.add_edge(i, i + 1, i as i64 + 1);
        }
        let g = b.build();
        let out = enumerate_paths(&g, 0, 10, TimeInterval::new(1, 10), &Budget::unlimited());
        assert_eq!(out.paths.len(), 1);
        assert_eq!(out.stats.max_path_len, 10);
        let out = enumerate_paths(&g, 0, 10, TimeInterval::new(1, 9), &Budget::unlimited());
        assert_eq!(out.paths.len(), 0);
    }
}
