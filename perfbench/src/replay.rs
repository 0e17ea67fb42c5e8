//! Phase-by-phase replay of one query through the public phase functions
//! of `tspg-core`, with a span around each phase.
//!
//! This is the pipeline `QueryEngine::run` executes (QuickUBG, TightUBG,
//! EEV with the default configuration), called one phase at a time so the
//! benchmark can time each layer from outside the program.

use crate::trace::{SpanId, Tracer};
use tspg_core::polarity::compute_polarity_into;
use tspg_core::quick_ubg::quick_upper_bound_graph_into;
use tspg_core::tight_ubg::tight_upper_bound_graph_into;
use tspg_core::{
    eev::escaped_edges_verification_scratch, EevScratch, PolarityScratch, PolarityTimes, QuerySpec,
    TcvTables, VugConfig,
};
use tspg_graph::{EdgeSet, TemporalGraph};

/// Sums over replayed queries.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTotals {
    pub queries: u64,
    pub quick_edges: u64,
    pub tight_edges: u64,
    pub result_edges: u64,
    pub searches: u64,
    pub successes: u64,
    pub expansions: u64,
}

/// Reusable working state of the replayed pipeline.
#[derive(Default)]
pub struct Replayer {
    polarity: PolarityTimes,
    polarity_scratch: PolarityScratch,
    gq: TemporalGraph,
    gt: TemporalGraph,
    tcv: TcvTables,
    eev: EevScratch,
    pub totals: PhaseTotals,
}

impl Replayer {
    /// Drops the warm working state, so the next query starts as cold as a
    /// one-shot `generate_tspg` call (the totals are kept).
    pub fn cool(&mut self) {
        *self = Replayer { totals: self.totals, ..Replayer::default() };
    }

    /// Answers `query` on `graph` phase by phase under a `request` span.
    pub fn run(
        &mut self,
        tracer: &mut Tracer,
        graph: &TemporalGraph,
        query: QuerySpec,
        request: u64,
        parent: Option<SpanId>,
    ) -> EdgeSet {
        let root = tracer.enter("request", parent, request);
        let query = query.canonical();
        if query.is_degenerate() {
            tracer.exit(root);
            return EdgeSet::new();
        }
        let (s, t, w) = (query.source, query.target, query.window);
        let config = VugConfig::default();
        let me = &mut *self;
        tracer.span("polarity", Some(root), request, || {
            compute_polarity_into(graph, s, t, w, &mut me.polarity, &mut me.polarity_scratch)
        });
        tracer.span("quick_ubg", Some(root), request, || {
            quick_upper_bound_graph_into(graph, &me.polarity, &mut me.gq)
        });
        tracer.span("tight_ubg", Some(root), request, || {
            me.tcv.recompute(&me.gq, s, t);
            tight_upper_bound_graph_into(&me.gq, &me.tcv, s, t, &mut me.gt)
        });
        let outcome = tracer.span("eev", Some(root), request, || {
            escaped_edges_verification_scratch(&me.gt, s, t, w, config.bidir, true, &mut me.eev)
        });
        tracer.exit(root);
        let totals = &mut self.totals;
        totals.queries += 1;
        totals.quick_edges += self.gq.num_edges() as u64;
        totals.tight_edges += self.gt.num_edges() as u64;
        totals.result_edges += outcome.tspg.num_edges() as u64;
        totals.searches += outcome.stats.bidir.searches;
        totals.successes += outcome.stats.bidir.successes;
        totals.expansions += outcome.stats.bidir.expansions;
        outcome.tspg
    }
}

/// Adds the phase metrics of a traced run to `report`.
pub fn report_phases(report: &mut crate::report::Report, tracer: &Tracer, totals: &PhaseTotals) {
    let per_query = |x: u64| x as f64 / totals.queries.max(1) as f64;
    report.metric("polarity.ms", tracer.mean_self_ms("polarity"));
    report.metric("quick_ubg.ms", tracer.mean_self_ms("quick_ubg"));
    report.metric("quick_ubg.edges", per_query(totals.quick_edges));
    report.metric("tight_ubg.ms", tracer.mean_self_ms("tight_ubg"));
    report.metric("tight_ubg.edges", per_query(totals.tight_edges));
    report.metric("eev.ms", tracer.mean_self_ms("eev"));
    report.metric("eev.searches", per_query(totals.searches));
    report.metric("eev.expansions", per_query(totals.expansions));
    report.metric("eev.search_yield", totals.successes as f64 / totals.searches.max(1) as f64);
    report.metric("ubg.tightness", totals.result_edges as f64 / totals.tight_edges.max(1) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspg_graph::fixtures::{figure1_graph, figure1_query};

    #[test]
    fn replay_matches_generate_tspg_and_records_each_phase() {
        let graph = figure1_graph();
        let (s, t, w) = figure1_query();
        let mut tracer = Tracer::default();
        let mut replayer = Replayer::default();
        let answer = replayer.run(&mut tracer, &graph, QuerySpec::new(s, t, w), 3, None);
        assert_eq!(answer, tspg_core::generate_tspg(&graph, s, t, w).tspg);
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["request", "polarity", "quick_ubg", "tight_ubg", "eev"]);
        assert!(tracer.spans()[1..].iter().all(|s| s.parent == Some(0) && s.request == 3));
        assert_eq!(replayer.totals.result_edges, 4);
    }
}
