//! Reference answers for the correctness gate.
//!
//! [`Reference`] answers `(query, epoch)` with a sequential
//! [`QueryEngine::run`] — the raw pipeline, no planner, no cache — over the
//! graph as it stood at that epoch: the loaded edges plus the first
//! `epoch` ingested batches.
//!
//! Epochs are canonicalized before anything is computed. A temporal simple
//! path of `(s, t, [b, e])` only uses edges timed inside `[b, e]`, so a
//! batch with no edge in the window cannot change the answer: the answer at
//! `epoch` is the answer at the last epoch whose batch put an edge inside
//! the window. A program whose answer did depend on such a batch fails the
//! gate, as it should.
//!
//! Queries whose target is not temporally reachable skip the pipeline: a
//! strictly time-increasing walk from `s` to `t` always contains a temporal
//! simple path (cut out every cycle), so the tspG is empty exactly when
//! `tspg-datasets`' reachability search, which shares no code with VUG,
//! finds no walk.

use std::collections::HashMap;
use tspg_core::{QueryEngine, QueryScratch, QuerySpec};
use tspg_datasets::is_reachable;
use tspg_graph::{EdgeSet, TemporalEdge, TemporalGraph};

/// Reference answers over a base graph and an ordered ingest feed.
pub struct Reference {
    num_vertices: usize,
    base: Vec<TemporalEdge>,
    /// Applied batches in order; epoch `k` has applied `feed[..k]`.
    feed: Vec<Vec<TemporalEdge>>,
    answers: HashMap<(QuerySpec, usize), EdgeSet>,
}

impl Reference {
    /// A reference over `graph` and the batches later ingested into it, in
    /// the order they were sent.
    pub fn new(graph: &TemporalGraph, feed: Vec<Vec<TemporalEdge>>) -> Self {
        let max_id = feed.iter().flatten().map(|e| e.src.max(e.dst) as usize + 1).max();
        Self {
            num_vertices: graph.num_vertices().max(max_id.unwrap_or(0)),
            base: graph.edges().to_vec(),
            feed,
            answers: HashMap::new(),
        }
    }

    /// The last epoch `≤ epoch` whose batch put an edge inside the query's
    /// window (0 when none did): the answer at `epoch` equals the answer
    /// there.
    pub fn canonical_epoch(&self, query: &QuerySpec, epoch: usize) -> usize {
        (1..=epoch.min(self.feed.len()))
            .rev()
            .find(|&k| self.feed[k - 1].iter().any(|e| query.window.contains(e.time)))
            .unwrap_or(0)
    }

    /// Distinct canonical epochs for every epoch in `lo..=hi`.
    pub fn canonical_epochs(&self, query: &QuerySpec, lo: usize, hi: usize) -> Vec<usize> {
        let mut out: Vec<usize> = (lo..=hi).map(|e| self.canonical_epoch(query, e)).collect();
        out.dedup();
        out
    }

    /// Computes the reference answer of every `(query, canonical epoch)`
    /// pair not yet known, one graph per epoch, on `threads` threads, and
    /// returns how many it computed.
    pub fn prepare(
        &mut self,
        pairs: impl IntoIterator<Item = (QuerySpec, usize)>,
        threads: usize,
    ) -> usize {
        let known = self.answers.len();
        let mut by_epoch: HashMap<usize, Vec<QuerySpec>> = HashMap::new();
        for (query, eff) in pairs {
            let query = query.canonical();
            if !self.answers.contains_key(&(query, eff)) {
                by_epoch.entry(eff).or_default().push(query);
            }
        }
        let mut epochs: Vec<(usize, Vec<QuerySpec>)> = by_epoch.into_iter().collect();
        epochs.sort_unstable_by_key(|(eff, _)| *eff);
        for (eff, mut queries) in epochs {
            queries
                .sort_unstable_by_key(|q| (q.source, q.target, q.window.begin(), q.window.end()));
            queries.dedup();
            let mut edges = self.base.clone();
            edges.extend(self.feed[..eff].iter().flatten());
            let engine = QueryEngine::new(TemporalGraph::from_edges(self.num_vertices, edges));
            let chunk = queries.len().div_ceil(threads.max(1)).max(1);
            let engine = &engine;
            let answer = move |q: QuerySpec, scratch: &mut QueryScratch| {
                if q.is_degenerate() || is_reachable(engine.graph(), q.source, q.target, q.window) {
                    engine.run(q, scratch).tspg
                } else {
                    EdgeSet::new()
                }
            };
            let answers: Vec<Vec<(QuerySpec, EdgeSet)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = queries
                    .chunks(chunk)
                    .map(|share| {
                        scope.spawn(move || {
                            let mut scratch = QueryScratch::new();
                            share.iter().map(|&q| (q, answer(q, &mut scratch))).collect()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("reference worker panicked")).collect()
            });
            self.answers.extend(answers.into_iter().flatten().map(|(q, a)| ((q, eff), a)));
        }
        self.answers.len() - known
    }

    /// The prepared reference answer at canonical epoch `eff`.
    pub fn answer(&self, query: &QuerySpec, eff: usize) -> Option<&EdgeSet> {
        self.answers.get(&(query.canonical(), eff))
    }

    /// The `live` staleness rule: an answer to a query sent after ingest
    /// `lo` was acknowledged and read before ingest `hi + 1` was sent is
    /// fresh iff it equals the reference at some epoch in `lo..=hi`.
    /// `None` when a needed reference was not prepared.
    pub fn fresh_within(
        &self,
        query: &QuerySpec,
        answer: &[TemporalEdge],
        lo: usize,
        hi: usize,
    ) -> Option<bool> {
        let mut fresh = false;
        for eff in self.canonical_epochs(query, lo, hi) {
            fresh |= self.answer(query, eff)?.edges() == answer;
        }
        Some(fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspg_graph::fixtures::{figure1_graph, figure1_query};
    use tspg_graph::TimeInterval;

    #[test]
    fn epoch_window_rule_accepts_only_epochs_inside_the_window() {
        let graph = figure1_graph();
        let (s, t, w) = figure1_query();
        let q = QuerySpec::new(s, t, w);
        // Batch 1 lies outside the window; batch 2 adds a direct s→t edge
        // inside it, which always joins the tspG.
        let far = TemporalEdge::new(s, t, w.end() + 100);
        let direct = TemporalEdge::new(s, t, w.begin() + 1);
        let mut reference = Reference::new(&graph, vec![vec![far], vec![direct]]);
        assert_eq!(reference.canonical_epoch(&q, 1), 0, "batch 1 cannot change the answer");
        assert_eq!(reference.canonical_epoch(&q, 2), 2);
        assert_eq!(reference.canonical_epochs(&q, 0, 2), vec![0, 2]);
        reference.prepare([(q, 0), (q, 2)], 2);

        let before = reference.answer(&q, 0).unwrap().edges().to_vec();
        let after = reference.answer(&q, 2).unwrap().edges().to_vec();
        assert_eq!(before, tspg_core::generate_tspg(&graph, s, t, w).tspg.edges());
        assert!(after.contains(&direct) && !before.contains(&direct));
        // Sent after ack 0, read before ingest 2 was sent: the old answer
        // is fresh, the new one cannot exist yet.
        assert_eq!(reference.fresh_within(&q, &before, 0, 1), Some(true));
        assert_eq!(reference.fresh_within(&q, &after, 0, 1), Some(false));
        // Ingest 2 was in flight: either answer is acceptable.
        assert_eq!(reference.fresh_within(&q, &before, 0, 2), Some(true));
        assert_eq!(reference.fresh_within(&q, &after, 0, 2), Some(true));
        // Sent after ack 2: the old answer is stale.
        assert_eq!(reference.fresh_within(&q, &before, 2, 2), Some(false));
        assert_eq!(reference.fresh_within(&q, &after, 2, 2), Some(true));
        // A garbage answer is never fresh.
        assert_eq!(reference.fresh_within(&q, &[far], 0, 2), Some(false));
        // An unprepared query is reported, not guessed.
        let other = QuerySpec::new(s, t, TimeInterval::new(w.begin(), w.end() - 1));
        assert_eq!(reference.fresh_within(&other, &before, 0, 0), None);
    }

    #[test]
    fn reference_matches_one_shot_generation() {
        let graph = tspg_datasets::GraphGenerator::hub(200, 3000, 300, 1.2).generate(5);
        let queries = tspg_datasets::generate_workload(&graph, 40, 20, 9).unwrap();
        let mut reference = Reference::new(&graph, Vec::new());
        reference.prepare(queries.iter().map(|&q| (q, 0)), 3);
        for q in &queries {
            let want = tspg_core::generate_tspg(&graph, q.source, q.target, q.window).tspg;
            assert_eq!(reference.answer(q, 0), Some(&want));
        }
    }
}
