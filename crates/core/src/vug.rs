//! The VUG pipeline (Algorithm 1): orchestration, configuration and
//! per-phase instrumentation.

use crate::bidir::BidirOptions;
use crate::eev::EevStats;
use crate::engine::{generate_tspg_scratch, QueryScratch};
use std::time::Duration;
use tspg_graph::{EdgeSet, TemporalGraph, TimeInterval, VertexId};

/// Configuration of a VUG run.
///
/// The defaults correspond to the algorithm as published; the switches exist
/// for the ablation experiments (what does each phase / optimization buy?).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VugConfig {
    /// Apply the `TightUBG` phase. When `false`, EEV runs directly on the
    /// quick upper-bound graph (ablation: "VUG without the simple-path
    /// pruning").
    pub use_tight_ubg: bool,
    /// Options of the bidirectional DFS used by EEV.
    pub bidir: BidirOptions,
}

impl Default for VugConfig {
    fn default() -> Self {
        Self { use_tight_ubg: true, bidir: BidirOptions::default() }
    }
}

impl VugConfig {
    /// The published algorithm with every optimization enabled.
    pub fn full() -> Self {
        Self::default()
    }

    /// Ablation: skip the `TightUBG` phase.
    pub fn without_tight_ubg() -> Self {
        Self { use_tight_ubg: false, ..Self::default() }
    }

    /// Ablation: disable both bidirectional-DFS optimizations.
    pub fn without_bidir_optimizations() -> Self {
        Self {
            bidir: BidirOptions { prioritize_direction: false, order_neighbors: false },
            ..Self::default()
        }
    }
}

/// Per-phase measurements of one VUG run (the data behind Figs. 7, 8 and 10).
#[derive(Clone, Copy, Debug, Default)]
pub struct VugReport {
    /// Wall-clock time of the polarity-time computation plus the `G_q` scan
    /// (the paper reports these together as `QuickUBG`).
    pub quick_elapsed: Duration,
    /// Wall-clock time of the TCV computation plus the `G_t` scan
    /// (`TightUBG`).
    pub tight_elapsed: Duration,
    /// Wall-clock time of Escaped Edges Verification.
    pub eev_elapsed: Duration,
    /// Number of edges in the input graph.
    pub input_edges: usize,
    /// Number of edges in the quick upper-bound graph `G_q`.
    pub quick_edges: usize,
    /// Number of edges in the tight upper-bound graph `G_t`.
    pub tight_edges: usize,
    /// Number of edges in the resulting `tspG`.
    pub result_edges: usize,
    /// Number of vertices in the resulting `tspG`.
    pub result_vertices: usize,
    /// EEV counters (rule confirmations, searches, rejections).
    pub eev: EevStats,
    /// Approximate peak heap bytes of the run's compact working state: the
    /// polarity labels it wrote + `G_q` + TCV tables + `G_t` + result, the
    /// upper-bound graphs and tables over `G_q`'s own vertices (the
    /// quantity reported for VUG in Fig. 7).
    pub approx_bytes: usize,
}

impl VugReport {
    /// Total wall-clock time of the run.
    pub fn total_elapsed(&self) -> Duration {
        self.quick_elapsed + self.tight_elapsed + self.eev_elapsed
    }

    /// Upper-bound ratio of `G_q` (`|tspG| / |G_q|`), 1.0 for empty bounds.
    pub fn quick_ratio(&self) -> f64 {
        ratio(self.result_edges, self.quick_edges)
    }

    /// Upper-bound ratio of `G_t` (`|tspG| / |G_t|`), 1.0 for empty bounds.
    pub fn tight_ratio(&self) -> f64 {
        ratio(self.result_edges, self.tight_edges)
    }
}

fn ratio(result: usize, bound: usize) -> f64 {
    if bound == 0 {
        1.0
    } else {
        result as f64 / bound as f64
    }
}

/// The full result of a VUG run: the `tspG` plus the phase report.
#[derive(Clone, Debug)]
pub struct VugResult {
    /// The temporal simple path graph of the query.
    pub tspg: EdgeSet,
    /// Per-phase measurements.
    pub report: VugReport,
}

/// Generates the temporal simple path graph of `(s, t, window)` over `graph`
/// with the default configuration (the published VUG algorithm).
pub fn generate_tspg(
    graph: &TemporalGraph,
    s: VertexId,
    t: VertexId,
    window: TimeInterval,
) -> VugResult {
    generate_tspg_with(graph, s, t, window, &VugConfig::default())
}

/// Generates the temporal simple path graph with an explicit configuration.
///
/// This is the one-shot face of the pipeline: it runs
/// `generate_tspg_scratch` with a cold [`QueryScratch`].
/// Callers answering many queries over one graph should use
/// [`crate::QueryEngine`] instead, which reuses the scratch across the
/// batch.
pub fn generate_tspg_with(
    graph: &TemporalGraph,
    s: VertexId,
    t: VertexId,
    window: TimeInterval,
    config: &VugConfig,
) -> VugResult {
    generate_tspg_scratch(graph, s, t, window, config, &mut QueryScratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspg_graph::fixtures::{figure1_expected_tspg_edges, figure1_graph, figure1_query};
    use tspg_graph::TemporalEdge;

    #[test]
    fn end_to_end_on_the_running_example() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let result = generate_tspg(&g, s, t, w);
        assert_eq!(result.tspg, EdgeSet::from_edges(figure1_expected_tspg_edges()));
        let r = &result.report;
        assert_eq!(r.input_edges, 14);
        assert_eq!(r.quick_edges, 8);
        assert_eq!(r.tight_edges, 5);
        assert_eq!(r.result_edges, 4);
        assert_eq!(r.result_vertices, 4);
        assert!(r.approx_bytes > 0);
        assert!(r.total_elapsed() >= r.quick_elapsed);
        assert!((r.quick_ratio() - 0.5).abs() < 1e-12);
        assert!((r.tight_ratio() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn every_configuration_gives_the_same_tspg() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let expected = generate_tspg(&g, s, t, w).tspg;
        for config in [
            VugConfig::full(),
            VugConfig::without_tight_ubg(),
            VugConfig::without_bidir_optimizations(),
        ] {
            let got = generate_tspg_with(&g, s, t, w, &config);
            assert_eq!(got.tspg, expected, "config {config:?}");
        }
    }

    #[test]
    fn skipping_tight_ubg_keeps_gq_as_gt() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let r = generate_tspg_with(&g, s, t, w, &VugConfig::without_tight_ubg());
        assert_eq!(r.report.tight_edges, r.report.quick_edges);
    }

    #[test]
    fn unreachable_and_degenerate_queries() {
        let g = figure1_graph();
        let (s, t, _) = figure1_query();
        let r = generate_tspg(&g, t, s, TimeInterval::new(2, 7));
        assert!(r.tspg.is_empty());
        let r = generate_tspg(&g, s, s, TimeInterval::new(2, 7));
        assert!(r.tspg.is_empty());
        let r = generate_tspg(&g, s, t, TimeInterval::new(3, 5));
        assert!(r.tspg.is_empty());
        let r = generate_tspg(&TemporalGraph::empty(2), 0, 1, TimeInterval::new(1, 2));
        assert!(r.tspg.is_empty());
        let r = generate_tspg(&g, 99, t, TimeInterval::new(2, 7));
        assert!(r.tspg.is_empty());
    }

    #[test]
    fn ratios_default_to_one_for_empty_bounds() {
        let r = VugReport::default();
        assert_eq!(r.quick_ratio(), 1.0);
        assert_eq!(r.tight_ratio(), 1.0);
    }

    #[test]
    fn agrees_with_naive_enumeration_and_baselines_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31337);
        for case in 0..60 {
            let n: u32 = rng.random_range(5..16);
            let m = rng.random_range(10..110);
            let edges: Vec<TemporalEdge> = (0..m)
                .map(|_| {
                    TemporalEdge::new(
                        rng.random_range(0..n),
                        rng.random_range(0..n),
                        rng.random_range(1..14),
                    )
                })
                .filter(|e| e.src != e.dst)
                .collect();
            let g = TemporalGraph::from_edges(n as usize, edges);
            let s = rng.random_range(0..n);
            let t = rng.random_range(0..n);
            if s == t {
                continue;
            }
            let w = TimeInterval::new(rng.random_range(1..4), rng.random_range(6..14));
            let vug = generate_tspg(&g, s, t, w);
            let naive = tspg_enum::naive_tspg(&g, s, t, w, &tspg_enum::Budget::unlimited());
            assert_eq!(vug.tspg, naive.tspg, "case {case}: VUG vs naive");
            for alg in tspg_baselines::EpAlgorithm::ALL {
                let ep = tspg_baselines::run_ep(alg, &g, s, t, w, &tspg_enum::Budget::unlimited());
                assert_eq!(vug.tspg, ep.tspg, "case {case}: VUG vs {alg}");
            }
            // Sandwich property: tspG ⊆ G_t ⊆ G_q.
            assert!(vug.report.result_edges <= vug.report.tight_edges);
            assert!(vug.report.tight_edges <= vug.report.quick_edges);
        }
    }
}
