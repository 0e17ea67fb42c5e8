//! Batch query engine: one loaded graph, many `(s, t, window)` queries,
//! answered through a **plan → execute → assemble** pipeline with reusable
//! per-worker scratch state and an LRU result cache.
//!
//! The one-shot entry point [`crate::generate_tspg`] allocates every piece
//! of working state — polarity labels, the two upper-bound graphs, the TCV
//! tables, the DFS stacks — afresh per query. Under a query-serving workload
//! that makes throughput allocator-bound long before it is algorithm-bound.
//! [`QueryEngine`] owns the graph once and answers whole batches:
//!
//! 1. **Plan** ([`planner`]): degenerate queries are answered inline and
//!    cached results returned immediately; the rest are deduplicated and
//!    grouped — a query whose window is contained in another query's window
//!    on the same `(s, t)` attaches to that covering unit and reuses its
//!    tspG instead of re-scanning the full graph, and same-`(s, t)` queries
//!    whose windows merely *overlap* are collapsed into one synthesized
//!    **envelope unit** `[min begin, max end]` (cost-guarded; see
//!    [`planner::PlannerConfig`]) whose single full-graph run answers every
//!    member from its tspG.
//! 2. **Execute** ([`executor`]): the plan's units are packed into jobs —
//!    one per same-source profile group, one per ungrouped unit — and
//!    workers (the calling thread plus scoped helpers) claim whole jobs off
//!    an atomic cursor, each reusing a [`QueryScratch`] arena (zero
//!    steady-state allocation) drawn from the engine's warm pool. A group's
//!    members share one [`ArrivalProfile`] forward pass (served from the
//!    engine's resident [`cache::ProfileCache`] when a past batch already
//!    profiled the source), clamped per member window, and each unit's
//!    followers are answered right after it, on its tspG.
//! 3. **Assemble**: results fan back out to the original query order
//!    (`results[i]` answers `queries[i]`, always) and every freshly
//!    computed result populates the [`cache::ResultCache`] for the next
//!    batch.
//!
//! Planning, caching and parallelism never change answers — only who
//! computes them. Every result is identical to a one-shot
//! [`crate::generate_tspg`] call; the differential tests in
//! `tests/batch_engine.rs` hold the engine to that bit for bit.
//!
//! ```
//! use tspg_core::{QueryEngine, QuerySpec};
//! use tspg_graph::fixtures::{figure1_graph, figure1_query};
//!
//! let (s, t, w) = figure1_query();
//! let engine = QueryEngine::new(figure1_graph());
//! let results = engine.run_batch(&[QuerySpec::new(s, t, w), QuerySpec::new(t, s, w)], 2);
//! assert_eq!(results[0].tspg.num_edges(), 4); // Fig. 1(c)
//! assert!(results[1].tspg.is_empty());
//! ```

pub mod cache;
pub mod executor;
pub mod planner;

use crate::eev::{escaped_edges_verification_scratch, EevScratch};
use crate::polarity::{
    relabel_polarity_into, ArrivalProfile, PolarityScratch, PolarityTimes, SourceFrontier,
};
use crate::quick_ubg::candidate_edges_into;
use crate::tcv::TcvTables;
use crate::tight_ubg::tight_upper_bound_graph_into;
use crate::vug::{VugConfig, VugReport, VugResult};
use cache::{
    CacheConfig, CacheStats, ProfileCache, ProfileCacheConfig, ProfileCacheStats, ResultCache,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tspg_graph::{
    EdgeId, EdgeSet, GraphEpoch, TemporalEdge, TemporalGraph, TimeInterval, Timestamp, VertexId,
};

/// One `(s, t, [τ_b, τ_e])` query of a batch.
///
/// This is the workspace-wide [`tspg_graph::Query`] quadruple under the
/// name the engine API uses — workloads generated by `tspg-datasets` can be
/// passed to [`QueryEngine::run_batch`] without conversion.
pub use tspg_graph::Query as QuerySpec;

/// Per-worker reusable working state of the whole VUG pipeline: polarity
/// labels and their BFS state, the gathered and compacted `G_q`, `G_t`, the
/// TCV tables (with their set-buffer pool) and the EEV scratch (edge flags,
/// witness-path buffers, bidirectional-DFS stacks and visited bitmap).
///
/// One scratch serves graphs of every size in turn — the engine's graph,
/// compact follower tspGs, profile candidates — and no run pays for the
/// largest graph it has seen: the tables indexed by the input graph's
/// vertex ids (polarity labels, the compaction map) only grow and are reset
/// entry by entry, and everything past them is sized by the compact `G_q`.
/// The first query warms the buffers up; afterwards answering a query
/// allocates nothing but its result.
#[derive(Clone, Debug, Default)]
pub struct QueryScratch {
    polarity: PolarityTimes,
    polarity_scratch: PolarityScratch,
    /// Ids of the gathered candidate edges, ascending.
    edge_ids: Vec<EdgeId>,
    /// The gathered edges renumbered to compact ids.
    edge_buf: Vec<TemporalEdge>,
    compactor: Compactor,
    /// Compact-to-original vertex map of the direct run's `G_q`.
    originals: Vec<VertexId>,
    gq: TemporalGraph,
    gt: TemporalGraph,
    tcv: TcvTables,
    eev: EevScratch,
    /// Vertex marks for counting the answer's vertices.
    marks: Vec<bool>,
    /// Storage of a profile run's candidate subgraph `H`, compacted (the
    /// input graph the exact pipeline then reruns on).
    candidate: TemporalGraph,
    /// Compact-to-original vertex map of `H`.
    candidate_originals: Vec<VertexId>,
    /// Frontier storage a profile run clamps into (so materializing a
    /// member's frontier from a shared [`ArrivalProfile`] allocates nothing
    /// in steady state).
    frontier: SourceFrontier,
}

impl QueryScratch {
    /// Creates an empty (cold) scratch arena.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Stamped original-to-compact vertex map: renumbers a gathered edge list
/// to the `k` vertices it touches in `O(edges + k log k)`, without clearing
/// anything sized by the graph the edges came from (a generation stamp
/// marks the current compaction's vertices).
///
/// Compact ids follow ascending original ids, so the compact graph is an
/// order-preserving image of the gathered subgraph: the same edge order,
/// the same adjacency order, and so the same TCV scans, EEV seeds and DFS
/// order — byte-identical reports — and the answer maps back in place
/// without a re-sort ([`EdgeSet::uncompact`]).
#[derive(Clone, Debug, Default)]
struct Compactor {
    /// `stamps[v] == generation` iff `v` belongs to the current compaction.
    stamps: Vec<u32>,
    /// Compact id of each vertex of the current compaction.
    ids: Vec<VertexId>,
    generation: u32,
}

impl Compactor {
    /// Writes `graph`'s edges `edge_ids` (ascending) into `out` over compact
    /// ids and the compact-to-original map into `originals`. Returns the
    /// compact ids of `s` and `t`, or `None` when either touches no edge
    /// (then `originals` still lists the touched vertices, unordered).
    fn compact_into(
        &mut self,
        graph: &TemporalGraph,
        edge_ids: &[EdgeId],
        (s, t): (VertexId, VertexId),
        out: &mut Vec<TemporalEdge>,
        originals: &mut Vec<VertexId>,
    ) -> Option<(VertexId, VertexId)> {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamps.fill(0);
            self.generation = 1;
        }
        let n = graph.num_vertices();
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
            self.ids.resize(n, 0);
        }
        originals.clear();
        out.clear();
        for &id in edge_ids {
            let edge = graph.edge(id);
            for v in [edge.src, edge.dst] {
                if self.stamps[v as usize] != self.generation {
                    self.stamps[v as usize] = self.generation;
                    originals.push(v);
                }
            }
        }
        let member = |v: VertexId| self.stamps.get(v as usize) == Some(&self.generation);
        if !member(s) || !member(t) {
            return None;
        }
        originals.sort_unstable();
        for (compact, &v) in originals.iter().enumerate() {
            self.ids[v as usize] = compact as VertexId;
        }
        out.extend(edge_ids.iter().map(|&id| {
            let edge = graph.edge(id);
            TemporalEdge::new(self.ids[edge.src as usize], self.ids[edge.dst as usize], edge.time)
        }));
        Some((self.ids[s as usize], self.ids[t as usize]))
    }
}

/// Runs the full VUG pipeline for one query out of `scratch`.
///
/// This is the single implementation of Algorithm 1; the one-shot
/// [`crate::generate_tspg_with`] is a thin wrapper that passes a cold
/// scratch. The run is output-sensitive: the polarity labels reset in
/// `O(touched)`, `G_q` is gathered from the out-edges of the
/// forward-labelled vertices only, and TightUBG and EEV run on `G_q`
/// compacted to its own vertices, so a warm run costs its `G_q`'s
/// neighbourhood rather than `|V| + |E|`. The answer — and every report
/// counter but `approx_bytes`, which counts the compact working state — is
/// byte-identical to the public full-graph phase functions chained
/// together.
pub(crate) fn generate_tspg_scratch(
    graph: &TemporalGraph,
    s: VertexId,
    t: VertexId,
    window: TimeInterval,
    config: &VugConfig,
    scratch: &mut QueryScratch,
) -> VugResult {
    let report = VugReport { input_edges: graph.num_edges(), ..VugReport::default() };

    // Degenerate query (the canonical form shared with the planner and the
    // cache key): the tspG of `s == t` is empty on any graph and window.
    if QuerySpec::new(s, t, window).is_degenerate() {
        return VugResult { tspg: EdgeSet::new(), report };
    }

    // Phase 1: QuickUBG (Algorithms 2 + 3), gathered and compacted.
    let started = Instant::now();
    relabel_polarity_into(
        graph,
        s,
        t,
        window,
        None,
        &mut scratch.polarity,
        &mut scratch.polarity_scratch,
    );
    let mut originals = std::mem::take(&mut scratch.originals);
    let endpoints = gather_compact_into(graph, (s, t), scratch, &mut originals);
    let result = match endpoints {
        Some((cs, ct)) => {
            scratch.gq.assign_from_edges(originals.len(), &scratch.edge_buf);
            let mut result = finish_pipeline(cs, ct, window, config, scratch, report, started);
            result.tspg.uncompact(&originals);
            result
        }
        // An empty `G_q`: no admitted edge, so no tspG edge.
        None => {
            let mut report = report;
            report.quick_elapsed = started.elapsed();
            report.approx_bytes = label_bytes(scratch);
            VugResult { tspg: EdgeSet::new(), report }
        }
    };
    scratch.originals = originals;
    result
}

/// Frontier-sharing variant of [`generate_tspg_scratch`].
///
/// Phase 1's forward labels are restricted from the group's shared
/// [`SourceFrontier`] (a copy of its reachable labels instead of a forward
/// BFS) and a **candidate subgraph** `H` is gathered from the out-edges of
/// the frontier's labelled vertices by the same scan and compaction as a
/// direct run. Because the shared forward pass does not avoid the query's
/// target, `H` is a *superset* of the direct run's `G_q` — and the EEV rule
/// confirmations (Lemmas 2 and 10) are only sound under `G_q`'s
/// avoid-`t`/avoid-`s` polarity invariants, so the pipeline cannot run on
/// `H`'s labels directly. Instead the direct pipeline is re-run **on the
/// compact `H` as the input graph**: `tspG(G) ⊆ G_q(G) ⊆ H ⊆ G` means `H`
/// contains every temporal simple path of the query and adds none, so
/// `tspG(H) = tspG(G)` byte for byte — the same Definition-2 argument that
/// answers followers from a covering tspG. `H` is `G_q`-sized, so the rerun
/// costs a sliver of the forward BFS the shared pass saves; only the
/// intermediate `quick_edges` / `tight_edges` report counters may differ
/// from a direct run (they describe `H`'s bounds).
pub(crate) fn generate_tspg_frontier_scratch(
    graph: &TemporalGraph,
    query: QuerySpec,
    frontier: &SourceFrontier,
    config: &VugConfig,
    scratch: &mut QueryScratch,
) -> VugResult {
    let report = VugReport { input_edges: graph.num_edges(), ..VugReport::default() };
    if query.is_degenerate() {
        return VugResult { tspg: EdgeSet::new(), report };
    }
    let (s, t, window) = (query.source, query.target, query.window);
    let started = Instant::now();
    relabel_polarity_into(
        graph,
        s,
        t,
        window,
        Some(frontier),
        &mut scratch.polarity,
        &mut scratch.polarity_scratch,
    );
    // Take `H`'s storage and id map out of the scratch so the inner run
    // below can borrow the scratch mutably.
    let mut originals = std::mem::take(&mut scratch.candidate_originals);
    let Some((cs, ct)) = gather_compact_into(graph, (s, t), scratch, &mut originals) else {
        // An endpoint touches no candidate edge: no admitted edge enters
        // `t` (or leaves `s`), so the tspG is empty — exactly what the
        // direct pipeline concludes from its empty `G_q`.
        scratch.candidate_originals = originals;
        let mut report = report;
        report.quick_elapsed = started.elapsed();
        return VugResult { tspg: EdgeSet::new(), report };
    };
    let mut candidate = std::mem::take(&mut scratch.candidate);
    candidate.assign_from_edges(originals.len(), &scratch.edge_buf);
    let restrict_elapsed = started.elapsed();
    let mut inner = generate_tspg_scratch(&candidate, cs, ct, window, config, scratch);
    inner.tspg.uncompact(&originals);
    scratch.candidate = candidate;
    scratch.candidate_originals = originals;
    // The slot's report describes the work of *this* run: the batch query
    // was answered against the full graph (via its candidate), its phase-1
    // time includes building the candidate, and `quick_edges` /
    // `tight_edges` describe the candidate's bounds.
    inner.report.input_edges = graph.num_edges();
    inner.report.quick_elapsed += restrict_elapsed;
    inner
}

/// The scan and compaction both phase-1 variants share: gathers the edges
/// the current labels admit ([`candidate_edges_into`]) and compacts them
/// into `scratch.edge_buf`, filling `originals`. Returns the compact ids of
/// `s` and `t`, or `None` when the gathered subgraph cannot hold an answer.
fn gather_compact_into(
    graph: &TemporalGraph,
    endpoints: (VertexId, VertexId),
    scratch: &mut QueryScratch,
    originals: &mut Vec<VertexId>,
) -> Option<(VertexId, VertexId)> {
    candidate_edges_into(
        graph,
        &scratch.polarity,
        scratch.polarity_scratch.reached(),
        &mut scratch.edge_ids,
    );
    scratch.compactor.compact_into(
        graph,
        &scratch.edge_ids,
        endpoints,
        &mut scratch.edge_buf,
        originals,
    )
}

/// Bytes of the polarity labels the run wrote (the tables themselves are
/// shared by every run of the scratch).
fn label_bytes(scratch: &QueryScratch) -> usize {
    scratch.polarity_scratch.labelled() * std::mem::size_of::<Option<Timestamp>>()
}

/// Phases 2–3 of the pipeline on the compact `G_q`: the caller has built
/// `scratch.gq` (whose ids `s` and `t` are) and started the phase-1 timer.
fn finish_pipeline(
    s: VertexId,
    t: VertexId,
    window: TimeInterval,
    config: &VugConfig,
    scratch: &mut QueryScratch,
    mut report: VugReport,
    started: Instant,
) -> VugResult {
    report.quick_elapsed = started.elapsed();
    report.quick_edges = scratch.gq.num_edges();
    let mut approx_bytes = label_bytes(scratch) + scratch.gq.approx_bytes();

    // Phase 2: TightUBG (Algorithms 4 + 5). The ablation path hands `G_q`
    // itself to EEV by reference — no deep copy.
    let started = Instant::now();
    let gt: &TemporalGraph = if config.use_tight_ubg {
        scratch.tcv.recompute(&scratch.gq, s, t);
        tight_upper_bound_graph_into(&scratch.gq, &scratch.tcv, s, t, &mut scratch.gt);
        approx_bytes += scratch.tcv.approx_bytes();
        &scratch.gt
    } else {
        &scratch.gq
    };
    report.tight_elapsed = started.elapsed();
    report.tight_edges = gt.num_edges();
    approx_bytes += gt.approx_bytes();

    // Phase 3: Escaped Edges Verification (Algorithms 6 + 7).
    let started = Instant::now();
    let outcome = escaped_edges_verification_scratch(
        gt,
        s,
        t,
        window,
        config.bidir,
        config.use_tight_ubg,
        &mut scratch.eev,
    );
    report.eev_elapsed = started.elapsed();
    report.eev = outcome.stats;
    report.result_edges = outcome.tspg.num_edges();
    report.result_vertices = count_vertices(&outcome.tspg, gt.num_vertices(), &mut scratch.marks);
    approx_bytes += outcome.tspg.approx_bytes();
    report.approx_bytes = approx_bytes;

    VugResult { tspg: outcome.tspg, report }
}

/// Distinct endpoints of an edge set over vertex ids below `n`, counted
/// with a reusable mark table (all `false` between calls).
fn count_vertices(tspg: &EdgeSet, n: usize, marks: &mut Vec<bool>) -> usize {
    if marks.len() < n {
        marks.resize(n, false);
    }
    let mut count = 0;
    for e in tspg.edges() {
        for v in [e.src, e.dst] {
            count += usize::from(!std::mem::replace(&mut marks[v as usize], true));
        }
    }
    for e in tspg.edges() {
        marks[e.src as usize] = false;
        marks[e.dst as usize] = false;
    }
    count
}

/// How one batch was answered: the counters of the plan → execute →
/// assemble pipeline. Returned by [`QueryEngine::run_batch_with_stats`].
///
/// `queries == executed_units + shared_answered + envelope_answered +
/// dedup_answered + cache_hits + degenerate` always holds: every query is
/// answered exactly one way. Synthesized envelope runs answer no query
/// directly, so they are counted separately in `envelope_units`; the total
/// number of full-graph pipeline executions is
/// [`BatchStats::pipeline_runs`] (`executed_units + envelope_units`).
///
/// `profile_groups` and `profile_answered` are **overlay** counters: a
/// profile-sharing pipeline run is still an executed (or envelope) unit,
/// so they participate in no sum — they satisfy `2 × profile_groups ≤
/// pipeline_runs()` (every group spans ≥ 2 runs) and `profile_answered ≤
/// queries` instead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Queries in the batch.
    pub queries: usize,
    /// Full-graph pipeline executions whose own result answers at least one
    /// batch query (non-envelope plan units).
    pub executed_units: usize,
    /// Full-graph pipeline executions of *synthesized* envelope queries —
    /// windows no batch query asked for, run once so their members can be
    /// answered from the resulting tspG.
    pub envelope_units: usize,
    /// Queries answered by re-running the pipeline on a covering
    /// batch-asked unit's tspG (containment sharing) rather than on the
    /// full graph.
    pub shared_answered: usize,
    /// Queries answered by re-running the pipeline on a synthesized
    /// envelope unit's tspG (overlapping-window sharing).
    pub envelope_answered: usize,
    /// Queries answered by copying an identical query's result computed in
    /// this very batch.
    pub dedup_answered: usize,
    /// Queries answered straight from the result cache.
    pub cache_hits: usize,
    /// Degenerate (`s == t`) queries answered inline with the empty tspG.
    pub degenerate: usize,
    /// Same-source profile groups the planner formed (each shares one
    /// target-agnostic forward arrival-profile pass across ≥ 2 pipeline
    /// runs, window begins free to differ). Overlay counter: not part of
    /// the sum invariant.
    pub profile_groups: usize,
    /// Queries answered by (or from the tspG of) a pipeline run that reused
    /// a shared arrival profile. Overlay counter: not part of the sum
    /// invariant.
    pub profile_answered: usize,
}

impl BatchStats {
    /// Full-graph pipeline executions of the batch, including synthesized
    /// envelope runs.
    pub fn pipeline_runs(&self) -> usize {
        self.executed_units + self.envelope_units
    }

    /// Snapshot of every counter as `(name, value)` pairs, in declaration
    /// order plus the derived `pipeline_runs` total — the one place the
    /// counter names are spelled out for `key=value` surfaces (the
    /// `tspg-server` `stats` verb, log lines, JSON emitters). Adding a
    /// counter to the struct means adding it here, so such surfaces never
    /// silently lag the struct.
    pub fn key_values(&self) -> [(&'static str, u64); 11] {
        [
            ("queries", self.queries as u64),
            ("executed_units", self.executed_units as u64),
            ("envelope_units", self.envelope_units as u64),
            ("shared_answered", self.shared_answered as u64),
            ("envelope_answered", self.envelope_answered as u64),
            ("dedup_answered", self.dedup_answered as u64),
            ("cache_hits", self.cache_hits as u64),
            ("degenerate", self.degenerate as u64),
            ("profile_groups", self.profile_groups as u64),
            ("profile_answered", self.profile_answered as u64),
            ("pipeline_runs", self.pipeline_runs() as u64),
        ]
    }

    /// Folds another batch's counters into this one (serving loops
    /// aggregate per-batch stats this way).
    pub fn merge(&mut self, other: &BatchStats) {
        self.queries += other.queries;
        self.executed_units += other.executed_units;
        self.envelope_units += other.envelope_units;
        self.shared_answered += other.shared_answered;
        self.envelope_answered += other.envelope_answered;
        self.dedup_answered += other.dedup_answered;
        self.cache_hits += other.cache_hits;
        self.degenerate += other.degenerate;
        self.profile_groups += other.profile_groups;
        self.profile_answered += other.profile_answered;
    }
}

/// Running average of observed `tspG vertices / graph vertices` ratios over
/// an engine's full-graph pipeline runs — the signal behind the planner's
/// dense-graph envelope heuristic.
///
/// On dense graphs a query's tspG covers most of the graph, so answering an
/// envelope member by re-running the pipeline on the envelope's tspG costs
/// nearly as much as a full run and the synthesized envelope run is pure
/// overhead. The tracker accumulates the ratio in permille with relaxed
/// atomics (exactness is irrelevant for a heuristic); the planner consults
/// the average *before* each batch, so the first batch on a fresh engine
/// plans without a density signal and later batches adapt.
#[derive(Debug, Default)]
struct DensityTracker {
    permille_sum: AtomicU64,
    samples: AtomicU64,
}

impl DensityTracker {
    fn record(&self, tspg_vertices: usize, graph_vertices: usize) {
        if graph_vertices == 0 {
            return;
        }
        let permille = (tspg_vertices.min(graph_vertices) * 1000 / graph_vertices) as u64;
        // relaxed: density feedback is a heuristic — a planner that reads
        // sum and count slightly out of step still gets a usable average.
        self.permille_sum.fetch_add(permille, Ordering::Relaxed);
        self.samples.fetch_add(1, Ordering::Relaxed);
    }

    fn observed(&self) -> Option<f64> {
        // relaxed: see `record` — approximate reads are fine for a heuristic.
        let samples = self.samples.load(Ordering::Relaxed);
        (samples > 0)
            .then(|| self.permille_sum.load(Ordering::Relaxed) as f64 / (samples as f64 * 1000.0))
    }
}

/// A query engine over one loaded temporal graph.
///
/// The engine is `Sync`: one instance can serve many worker threads, each
/// with its own [`QueryScratch`]. [`QueryEngine::run_batch`] does exactly
/// that with scoped threads, and keeps the workers' warmed-up scratches in
/// an internal pool so that a serving loop issuing many batches through one
/// engine pays scratch warm-up only once per worker, not once per batch.
///
/// Batches go through plan → execute → assemble (see the module docs); the
/// per-query [`QueryEngine::run`] is the raw execution primitive used by
/// the executor's workers and bypasses both the planner and the cache.
#[derive(Debug)]
pub struct QueryEngine {
    graph: TemporalGraph,
    /// Warm scratch arenas recovered from finished batch workers.
    scratch_pool: std::sync::Mutex<Vec<QueryScratch>>,
    /// Upper bound on retained scratches. Each warm scratch pins polarity
    /// labels and a compaction map sized by the largest graph it served,
    /// plus compact-`G_q`-sized buffers, so the pool is capped at the
    /// number of workers the hardware can actually run concurrently —
    /// scratches returned beyond the cap are simply dropped.
    pool_cap: usize,
    /// Memoized `(s, t, window) → VugResult`; `None` when caching is off.
    cache: Option<ResultCache>,
    /// Batch-planning policy: envelope synthesis and its cost guard.
    planner: planner::PlannerConfig,
    /// Observed tspG/graph vertex ratios of past full-graph runs (the
    /// dense-graph envelope heuristic's input).
    density: DensityTracker,
    /// Resident per-source arrival profiles, surviving across batches until
    /// the next ingest; `None` when profile caching is off.
    profiles: Option<ProfileCache>,
    /// Observed candidate-`H`/graph vertex ratios of past profile-clamped
    /// runs (the dense-graph profile heuristic's input — on dense graphs
    /// the clamp's superset `H` covers most of the graph and the shared
    /// pass saves nothing).
    profile_density: DensityTracker,
}

impl QueryEngine {
    /// Creates an engine over `graph` that runs the published VUG
    /// configuration, with a default-sized result cache.
    pub fn new(graph: TemporalGraph) -> Self {
        let pool_cap =
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
        Self {
            graph,
            scratch_pool: std::sync::Mutex::new(Vec::new()),
            pool_cap,
            cache: Some(ResultCache::new(CacheConfig::default())),
            planner: planner::PlannerConfig::default(),
            density: DensityTracker::default(),
            profiles: Some(ProfileCache::new(ProfileCacheConfig::default())),
            profile_density: DensityTracker::default(),
        }
    }

    /// Replaces the result cache with one of the given bounds.
    pub fn with_cache(mut self, config: CacheConfig) -> Self {
        self.cache = Some(ResultCache::new(config));
        self
    }

    /// Replaces the batch-planning policy (envelope synthesis and profile
    /// sharing on/off).
    pub fn with_planner(mut self, config: planner::PlannerConfig) -> Self {
        self.planner = config;
        self
    }

    /// The batch-planning policy in effect.
    pub fn planner_config(&self) -> &planner::PlannerConfig {
        &self.planner
    }

    /// Average observed `tspG vertices / graph vertices` ratio over this
    /// engine's past full-graph pipeline runs, or `None` before the first
    /// run. Feeds the planner's dense-graph envelope heuristic (see
    /// [`planner::plan`]).
    pub fn observed_density(&self) -> Option<f64> {
        self.density.observed()
    }

    /// Disables result caching entirely (every batch re-executes; useful
    /// for benchmarking the raw pipeline and for memory-constrained
    /// embedders).
    pub fn without_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Counters and occupancy of the result cache, or `None` when caching
    /// is disabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(ResultCache::stats)
    }

    /// Replaces the arrival-profile cache with one of the given bounds.
    pub fn with_profile_cache(mut self, config: ProfileCacheConfig) -> Self {
        self.profiles = Some(ProfileCache::new(config));
        self
    }

    /// Disables cross-batch profile residency (profile groups still share
    /// one forward pass within a batch, but nothing survives it).
    pub fn without_profile_cache(mut self) -> Self {
        self.profiles = None;
        self
    }

    /// Counters and occupancy of the arrival-profile cache, or `None` when
    /// profile caching is disabled.
    pub fn profile_cache_stats(&self) -> Option<ProfileCacheStats> {
        self.profiles.as_ref().map(ProfileCache::stats)
    }

    /// Average observed `candidate-H vertices / graph vertices` ratio over
    /// this engine's past profile-clamped runs, or `None` before the first
    /// one. Feeds the planner's dense-graph profile heuristic (see
    /// [`planner::plan`]).
    pub fn observed_profile_density(&self) -> Option<f64> {
        self.profile_density.observed()
    }

    /// Number of warm scratch arenas currently retained for future batches
    /// (bounded by the hardware's available parallelism).
    pub fn pooled_scratches(&self) -> usize {
        self.scratch_pool.lock().map(|pool| pool.len()).unwrap_or(0)
    }

    /// Takes a warm scratch from the pool, or a cold one if none is spare.
    pub(crate) fn checkout_scratch(&self) -> QueryScratch {
        self.scratch_pool.lock().map(|mut pool| pool.pop()).ok().flatten().unwrap_or_default()
    }

    /// Returns a scratch to the pool for the next batch, unless the pool is
    /// already at capacity.
    pub(crate) fn return_scratch(&self, scratch: QueryScratch) {
        if let Ok(mut pool) = self.scratch_pool.lock() {
            if pool.len() < self.pool_cap {
                pool.push(scratch);
            }
        }
    }

    /// The loaded graph.
    pub fn graph(&self) -> &TemporalGraph {
        &self.graph
    }

    /// The loaded graph's current [`GraphEpoch`].
    pub fn epoch(&self) -> GraphEpoch {
        self.graph.epoch()
    }

    /// Appends a timestamped edge batch to the loaded graph and invalidates
    /// every sharing layer, returning the new [`GraphEpoch`].
    ///
    /// The exclusive `&mut self` borrow is the consistency mechanism: no
    /// query can run while the graph is mid-mutation, so a query batch
    /// observes either the pre- or the post-ingest graph in full — a batch
    /// never straddles an epoch. After the call, answers are identical to a
    /// fresh engine built over the union edge set:
    ///
    /// * the graph itself is byte-identical to a from-scratch build (see
    ///   [`TemporalGraph::extend_with_edges`]);
    /// * both resident caches are flushed outright ([`ResultCache::clear`],
    ///   [`ProfileCache::clear`]) — every cached tspG and arrival profile
    ///   was computed at the previous epoch, and the flush frees their
    ///   memory at once; the flush is not counted as evictions;
    /// * the planner's observed-density heuristics are left alone — they
    ///   only steer *how* answers are computed, never what they are, and
    ///   edge appends shift density estimates gradually.
    ///
    /// The epoch advances on every call, even for an all-duplicate batch.
    pub fn ingest(&mut self, edges: &[TemporalEdge]) -> GraphEpoch {
        let epoch = self.graph.extend_with_edges(edges);
        if let Some(cache) = &self.cache {
            cache.clear();
        }
        if let Some(profiles) = &self.profiles {
            profiles.clear();
        }
        epoch
    }

    /// Answers one query out of the caller's scratch arena.
    ///
    /// This is the raw execution primitive: it always runs the pipeline,
    /// consulting neither the planner nor the cache (the executor's workers
    /// call it, so a cache consult here would double-count every unit).
    pub fn run(&self, query: QuerySpec, scratch: &mut QueryScratch) -> VugResult {
        generate_tspg_scratch(
            &self.graph,
            query.source,
            query.target,
            query.window,
            &VugConfig::default(),
            scratch,
        )
    }

    /// Answers one query out of the caller's scratch arena, clamping a
    /// shared [`ArrivalProfile`] to the query's window for the forward half
    /// of phase 1.
    ///
    /// Like [`QueryEngine::run`] this is a raw execution primitive (no
    /// planner, no result cache); the executor calls it for units the
    /// planner grouped into profile groups. The clamp materializes exactly
    /// the [`SourceFrontier`] a fresh forward pass at this query's window
    /// would compute (any begin inside the profiled hull, not just a shared
    /// one), so the tspG is byte-identical to [`QueryEngine::run`]'s. Only
    /// the `quick_edges` / `tight_edges` report counters may differ: they
    /// describe the bounds the pipeline computed on the clamp's candidate
    /// subgraph rather than on the full graph (see
    /// `generate_tspg_frontier_scratch`).
    ///
    /// # Panics
    ///
    /// Panics if `profile` cannot answer the query (different source, or a
    /// window not contained in the profiled hull).
    pub fn run_with_profile(
        &self,
        query: QuerySpec,
        profile: &ArrivalProfile,
        scratch: &mut QueryScratch,
    ) -> VugResult {
        let mut frontier = std::mem::take(&mut scratch.frontier);
        profile.clamp_into(query.window, &mut frontier);
        let result = generate_tspg_frontier_scratch(
            &self.graph,
            query,
            &frontier,
            &VugConfig::default(),
            scratch,
        );
        scratch.frontier = frontier;
        // Feed the profile-density heuristic with the clamp's superset
        // ratio: `scratch.candidate_originals` holds the candidate H's
        // vertex list after every non-degenerate run (the degenerate
        // early-return leaves it stale, so skip it).
        if !query.is_degenerate() {
            self.profile_density
                .record(scratch.candidate_originals.len(), self.graph.num_vertices());
        }
        result
    }

    /// A profile able to answer any query on `source` whose window sits
    /// inside `window` — from the resident cache when a covering profile
    /// is held, freshly computed (and, when profile caching is on, made
    /// resident) otherwise.
    pub(crate) fn profile_for(
        &self,
        source: VertexId,
        window: TimeInterval,
    ) -> Arc<ArrivalProfile> {
        if let Some(cache) = &self.profiles {
            if let Some(profile) = cache.get(source, window) {
                return profile;
            }
        }
        let profile = Arc::new(ArrivalProfile::compute(&self.graph, source, window));
        if let Some(cache) = &self.profiles {
            cache.insert(&profile);
        }
        profile
    }

    /// Answers a batch of queries across at most `threads` worker threads.
    /// Equivalent to [`QueryEngine::run_batch_with_stats`] with the
    /// counters dropped.
    pub fn run_batch(&self, queries: &[QuerySpec], threads: usize) -> Vec<VugResult> {
        self.run_batch_with_stats(queries, threads).0
    }

    /// Answers a batch through plan → execute → assemble and reports how
    /// each query was answered.
    ///
    /// `results[i]` always answers `queries[i]`, and every tspG is
    /// identical to what a one-shot [`crate::generate_tspg`] call
    /// would produce. The accompanying [`VugReport`] describes the work
    /// *actually performed* for that slot: duplicates carry a copy of their
    /// unit's report, cache hits carry the report recorded when the result
    /// was first computed, and window-shared answers report the pipeline
    /// run over the covering tspG (hence e.g. a smaller `input_edges`).
    ///
    /// Workers — the calling thread plus scoped helpers — claim whole jobs
    /// (a profile group's member units, or one ungrouped unit, each with
    /// its followers) off an atomic cursor, so skewed per-job costs even
    /// out; the worker count is clamped to the number of jobs.
    pub fn run_batch_with_stats(
        &self,
        queries: &[QuerySpec],
        threads: usize,
    ) -> (Vec<VugResult>, BatchStats) {
        let mut stats = BatchStats { queries: queries.len(), ..BatchStats::default() };
        let mut results: Vec<Option<VugResult>> = Vec::new();
        results.resize_with(queries.len(), || None);

        // Plan: answer degenerate queries inline, consult the cache, and
        // hand everything else to the planner in canonical form.
        let mut pending: Vec<(usize, QuerySpec)> = Vec::new();
        for (index, query) in queries.iter().enumerate() {
            let canonical = query.canonical();
            if canonical.is_degenerate() {
                results[index] = Some(self.degenerate_result());
                stats.degenerate += 1;
            } else if let Some(hit) = self.cache.as_ref().and_then(|c| c.get(&canonical)) {
                results[index] = Some(hit);
                stats.cache_hits += 1;
            } else {
                pending.push((index, canonical));
            }
        }
        let plan = planner::plan(
            &pending,
            &self.planner,
            self.observed_density(),
            self.observed_profile_density(),
        );
        stats.executed_units = plan.num_units() - plan.envelope_units();
        stats.envelope_units = plan.envelope_units();
        stats.dedup_answered = plan.dedup_answered();
        stats.shared_answered = plan.shared_answered();
        stats.envelope_answered = plan.envelope_answered();
        stats.profile_groups = plan.profile_groups().len();
        stats.profile_answered = plan.profile_answered();

        // Execute: workers claim whole jobs (profile groups and ungrouped
        // units, each unit with its followers).
        let outcomes = executor::execute(self, &plan, threads);

        // Assemble: fan results back out to batch order and feed the cache.
        // Synthesized envelope queries are cached too — their `direct` list
        // is empty (no batch slot asked the envelope window), but a future
        // batch asking exactly that window hits the cache like any other.
        let graph_vertices = self.graph.num_vertices();
        for (unit, outcome) in plan.units().iter().zip(outcomes) {
            // Feed the density heuristic with this full-graph run's ratio.
            self.density.record(outcome.main.report.result_vertices, graph_vertices);
            if let Some(cache) = &self.cache {
                cache.insert(unit.query, &outcome.main);
                for (follower, result) in unit.followers.iter().zip(&outcome.followers) {
                    cache.insert(follower.query, result);
                }
            }
            for (follower, result) in unit.followers.iter().zip(outcome.followers) {
                fan_out(&mut results, &follower.indexes, result);
            }
            if !unit.direct.is_empty() {
                fan_out(&mut results, &unit.direct, outcome.main);
            }
        }
        let results =
            results.into_iter().map(|r| r.expect("every query is assigned an answer")).collect();
        (results, stats)
    }

    /// The canonical answer to a degenerate (`s == t`) query, identical to
    /// what the pipeline itself returns for one.
    fn degenerate_result(&self) -> VugResult {
        VugResult {
            tspg: EdgeSet::new(),
            report: VugReport { input_edges: self.graph.num_edges(), ..VugReport::default() },
        }
    }
}

/// Places one computed result into every batch slot that asked for it,
/// moving (not cloning) into the last slot.
fn fan_out(results: &mut [Option<VugResult>], indexes: &[usize], result: VugResult) {
    let (&last, rest) = indexes.split_last().expect("every plan entry answers a query");
    for &index in rest {
        results[index] = Some(result.clone());
    }
    results[last] = Some(result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vug::generate_tspg;
    use tspg_graph::fixtures::{figure1_graph, figure1_query};
    use tspg_graph::TemporalEdge;

    #[test]
    fn engine_answers_match_the_one_shot_path_on_the_example() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let engine = QueryEngine::new(g.clone());
        let mut scratch = QueryScratch::new();
        let queries = [
            QuerySpec::new(s, t, w),
            QuerySpec::new(t, s, w),                       // unreachable
            QuerySpec::new(s, s, w),                       // degenerate
            QuerySpec::new(s, t, TimeInterval::new(3, 5)), // empty window result
            QuerySpec::new(99, t, w),                      // out of range
            QuerySpec::new(s, t, w),                       // repeat on warm scratch
        ];
        for q in queries {
            let got = engine.run(q, &mut scratch);
            let expected = generate_tspg(&g, q.source, q.target, q.window);
            assert_eq!(got.tspg, expected.tspg, "query {q:?}");
            assert_eq!(got.report.quick_edges, expected.report.quick_edges, "query {q:?}");
            assert_eq!(got.report.tight_edges, expected.report.tight_edges, "query {q:?}");
            assert_eq!(got.report.eev, expected.report.eev, "query {q:?}");
        }
    }

    #[test]
    fn ablation_config_shares_gq_without_cloning() {
        // On a scratch whose `G_t` still holds a full run's bound, skipping
        // TightUBG must hand EEV `G_q` itself, not the stale `G_t`.
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let mut scratch = QueryScratch::new();
        let full = generate_tspg_scratch(&g, s, t, w, &VugConfig::default(), &mut scratch);
        let ablated =
            generate_tspg_scratch(&g, s, t, w, &VugConfig::without_tight_ubg(), &mut scratch);
        assert_eq!(ablated.tspg, full.tspg);
        assert!(full.report.tight_edges < full.report.quick_edges);
        assert_eq!(ablated.report.tight_edges, ablated.report.quick_edges);
    }

    #[test]
    fn run_batch_is_deterministic_and_thread_count_invariant() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let engine = QueryEngine::new(g);
        let queries: Vec<QuerySpec> = (0..17)
            .map(|i| match i % 4 {
                0 => QuerySpec::new(s, t, w),
                1 => QuerySpec::new(t, s, w),
                2 => QuerySpec::new(2, 7, TimeInterval::new(2, 7)),
                _ => QuerySpec::new(s, s, w),
            })
            .collect();
        let sequential = engine.run_batch(&queries, 1);
        assert_eq!(sequential.len(), queries.len());
        for threads in [2, 3, 8, 64] {
            let parallel = engine.run_batch(&queries, threads);
            assert_eq!(parallel.len(), queries.len());
            for (i, (a, b)) in sequential.iter().zip(parallel.iter()).enumerate() {
                assert_eq!(a.tspg, b.tspg, "threads={threads} query #{i}");
            }
        }
    }

    #[test]
    fn ingest_bumps_epoch_flushes_results_and_matches_fresh_engine() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let mut engine = QueryEngine::new(g.clone())
            .with_cache(CacheConfig::default())
            .with_profile_cache(ProfileCacheConfig::default());
        assert_eq!(engine.epoch(), GraphEpoch::ZERO);
        let queries = [QuerySpec::new(s, t, w), QuerySpec::new(2, 7, TimeInterval::new(2, 7))];
        let cold = engine.run_batch(&queries, 2);

        // A direct s→t edge inside the window is always part of the tspG,
        // so the cached answer is guaranteed stale after this ingest.
        let delta = [TemporalEdge::new(s, t, 5)];
        let epoch = engine.ingest(&delta);
        assert_eq!(epoch.value(), 1);
        assert_eq!(engine.epoch(), epoch);
        assert_eq!(engine.cache_stats().expect("cache on").entries, 0, "flushed on ingest");

        let warm = engine.run_batch(&queries, 2);
        assert_ne!(cold[0].tspg, warm[0].tspg, "the answer must change");
        let mut union: Vec<TemporalEdge> = g.edges().to_vec();
        union.extend_from_slice(&delta);
        let fresh = QueryEngine::new(TemporalGraph::from_edges(g.num_vertices(), union));
        let expected = fresh.run_batch(&queries, 1);
        for (got, want) in warm.iter().zip(expected.iter()) {
            assert_eq!(got.tspg, want.tspg, "post-ingest answers match a fresh engine");
        }
    }

    #[test]
    fn ingest_flushes_resident_profiles_without_counting_evictions() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let mut engine = QueryEngine::new(g);
        // Mixed-begin fan-out so the planner forms a profile group.
        let fanout = [
            QuerySpec::new(s, t, w),
            QuerySpec::new(s, 2, TimeInterval::new(w.begin() + 1, w.end())),
            QuerySpec::new(s, 3, w),
        ];
        let _ = engine.run_batch(&fanout, 2);
        let before = engine.profile_cache_stats().expect("profile cache on by default");
        assert_eq!(before.entries, 1, "{before:?}");
        assert!(before.bytes > 0, "{before:?}");

        engine.ingest(&[TemporalEdge::new(s, t, 5)]);
        let after = engine.profile_cache_stats().unwrap();
        assert_eq!((after.entries, after.bytes), (0, 0), "flushed on ingest: {after:?}");
        assert_eq!(after.evictions, before.evictions, "a flush is not capacity pressure");
        assert_eq!(after.insertions, before.insertions, "history survives the flush");

        // The next fan-out misses and makes a profile of the new graph
        // resident.
        let _ = engine.run_batch(&fanout, 2);
        let rerun = engine.profile_cache_stats().unwrap();
        assert_eq!(rerun.misses, before.misses + 1, "{rerun:?}");
        assert_eq!(rerun.insertions, before.insertions + 1, "{rerun:?}");
        assert_eq!(rerun.entries, 1, "{rerun:?}");
    }

    #[test]
    fn batch_stats_account_for_every_query() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let engine = QueryEngine::new(g);
        let queries = [
            QuerySpec::new(s, t, w),                       // unit
            QuerySpec::new(s, t, w),                       // duplicate
            QuerySpec::new(s, t, TimeInterval::new(3, 6)), // contained window
            QuerySpec::new(s, s, w),                       // degenerate
            QuerySpec::new(t, s, w),                       // distinct unit
        ];
        let (results, stats) = engine.run_batch_with_stats(&queries, 2);
        assert_eq!(results.len(), 5);
        assert_eq!(stats.queries, 5);
        assert_eq!(stats.executed_units, 2);
        assert_eq!(stats.dedup_answered, 1);
        assert_eq!(stats.shared_answered, 1);
        assert_eq!(stats.degenerate, 1);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.queries - stats.pipeline_runs(), 3);

        // The same batch again is answered entirely from the cache (the
        // degenerate query stays inline).
        let (again, warm) = engine.run_batch_with_stats(&queries, 2);
        assert_eq!(warm.cache_hits, 4);
        assert_eq!(warm.executed_units, 0);
        assert_eq!(warm.degenerate, 1);
        for (a, b) in results.iter().zip(again.iter()) {
            assert_eq!(a.tspg, b.tspg);
        }
        let cache = engine.cache_stats().expect("cache is on by default");
        assert_eq!(cache.hits, 4);
        assert!(cache.entries >= 3);

        // merge() aggregates serving-loop counters.
        let mut total = stats;
        total.merge(&warm);
        assert_eq!(total.queries, 10);
        assert_eq!(total.cache_hits, 4);
    }

    #[test]
    fn disabling_the_cache_forces_re_execution() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let engine = QueryEngine::new(g).without_cache();
        assert!(engine.cache_stats().is_none());
        let queries = [QuerySpec::new(s, t, w)];
        let (_, first) = engine.run_batch_with_stats(&queries, 1);
        let (_, second) = engine.run_batch_with_stats(&queries, 1);
        assert_eq!(first.executed_units, 1);
        assert_eq!(second.executed_units, 1);
        assert_eq!(second.cache_hits, 0);
    }

    #[test]
    fn window_shared_answers_match_full_graph_runs() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let engine = QueryEngine::new(g.clone()).without_cache();
        // Wide query plus several strictly narrower windows on (s, t).
        let queries = [
            QuerySpec::new(s, t, w),
            QuerySpec::new(s, t, TimeInterval::new(2, 6)),
            QuerySpec::new(s, t, TimeInterval::new(3, 7)),
            QuerySpec::new(s, t, TimeInterval::new(4, 5)),
        ];
        let (results, stats) = engine.run_batch_with_stats(&queries, 1);
        assert_eq!(stats.executed_units, 1);
        assert_eq!(stats.shared_answered, 3);
        for (q, r) in queries.iter().zip(results.iter()) {
            let expected = generate_tspg(&g, q.source, q.target, q.window);
            assert_eq!(r.tspg, expected.tspg, "query {q}");
        }
    }

    #[test]
    fn envelope_shared_answers_match_full_graph_runs() {
        let g = figure1_graph();
        let (s, t, _) = figure1_query();
        let engine = QueryEngine::new(g.clone()).without_cache();
        // Overlapping, non-nested windows on (s, t): the planner synthesizes
        // one envelope [2, 7] and answers every member from its tspG.
        let queries = [
            QuerySpec::new(s, t, TimeInterval::new(2, 5)),
            QuerySpec::new(s, t, TimeInterval::new(4, 7)),
            QuerySpec::new(s, t, TimeInterval::new(3, 6)),
        ];
        let (results, stats) = engine.run_batch_with_stats(&queries, 2);
        assert_eq!(stats.executed_units, 0, "no member window is run on the full graph");
        assert_eq!(stats.envelope_units, 1);
        assert_eq!(stats.envelope_answered, 3);
        assert_eq!(stats.pipeline_runs(), 1);
        assert_eq!(stats.queries - stats.pipeline_runs(), 2);
        for (q, r) in queries.iter().zip(results.iter()) {
            let expected = generate_tspg(&g, q.source, q.target, q.window);
            assert_eq!(r.tspg, expected.tspg, "query {q}");
        }

        // The synthesized envelope query itself was cached... unless the
        // cache is off, as here; re-check with a caching engine.
        let caching = QueryEngine::new(g.clone());
        let (_, cold) = caching.run_batch_with_stats(&queries, 2);
        assert_eq!(cold.envelope_answered, 3);
        // Asking the envelope window now hits the cache directly.
        let envelope = QuerySpec::new(s, t, TimeInterval::new(2, 7));
        let (hit, warm) = caching.run_batch_with_stats(&[envelope], 1);
        assert_eq!(warm.cache_hits, 1, "synthesized results must be cached: {warm:?}");
        assert_eq!(hit[0].tspg, generate_tspg(&g, s, t, envelope.window).tspg);
    }

    #[test]
    fn containment_only_planner_never_synthesizes() {
        let g = figure1_graph();
        let (s, t, _) = figure1_query();
        let engine = QueryEngine::new(g.clone())
            .without_cache()
            .with_planner(planner::PlannerConfig::containment_only());
        let queries = [
            QuerySpec::new(s, t, TimeInterval::new(2, 5)),
            QuerySpec::new(s, t, TimeInterval::new(4, 7)),
        ];
        let (results, stats) = engine.run_batch_with_stats(&queries, 1);
        assert_eq!(stats.executed_units, 2);
        assert_eq!(stats.envelope_units, 0);
        assert_eq!(stats.envelope_answered, 0);
        for (q, r) in queries.iter().zip(results.iter()) {
            assert_eq!(r.tspg, generate_tspg(&g, q.source, q.target, q.window).tspg);
        }
    }

    #[test]
    fn stolen_followers_match_serial_execution() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let engine = QueryEngine::new(g).without_cache();
        // One wide unit with many followers (nested and overlapping), plus
        // independent units, across thread counts beyond the job count:
        // a unit's followers run on the worker that claimed the unit.
        let mut queries = vec![QuerySpec::new(s, t, w), QuerySpec::new(t, s, w)];
        for i in 0..12 {
            let b = 2 + (i % 4);
            queries.push(QuerySpec::new(s, t, TimeInterval::new(b, (b + 3).min(7))));
        }
        let serial = engine.run_batch(&queries, 1);
        for threads in [2, 4, 16] {
            let stolen = engine.run_batch(&queries, threads);
            for (i, (a, b)) in serial.iter().zip(stolen.iter()).enumerate() {
                assert_eq!(a.tspg, b.tspg, "threads={threads} query #{i}");
            }
        }
    }

    #[test]
    fn a_one_job_batch_runs_on_one_worker_whatever_the_thread_count() {
        let (s, t, w) = figure1_query();
        let engine = QueryEngine::new(figure1_graph());
        // Figure 1's query and narrower windows of the same (s, t): one unit
        // with followers, so one job and one worker, whose scratch is the
        // only one the pool receives.
        let mut queries = vec![QuerySpec::new(s, t, w)];
        for i in 0..12 {
            let b = 2 + (i % 4);
            queries.push(QuerySpec::new(s, t, TimeInterval::new(b, (b + 3).min(7))));
        }
        let (_, stats) = engine.run_batch_with_stats(&queries, 8);
        assert_eq!(stats.pipeline_runs(), 1, "{stats:?}");
        assert_eq!(stats.shared_answered + stats.dedup_answered, 12, "{stats:?}");
        assert_eq!(engine.pooled_scratches(), 1);
    }

    #[test]
    fn profile_runs_match_direct_runs_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x9a11);
        let mut scratch = QueryScratch::new();
        for case in 0..30 {
            let n: u32 = rng.random_range(4..14);
            let m = rng.random_range(8..90);
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
            let g = TemporalGraph::from_edges(n as usize, edges);
            let engine = QueryEngine::new(g.clone());
            let s = rng.random_range(0..n);
            let hull = TimeInterval::new(1, 11);
            let profile = ArrivalProfile::compute(&g, s, hull);
            // Many targets and *mixed-begin* sub-windows off one profile —
            // the sharing a per-begin frontier can never provide.
            for _ in 0..6 {
                let t = rng.random_range(0..n);
                let begin = rng.random_range(1..=10);
                let window = TimeInterval::new(begin, rng.random_range(begin..=hull.end()));
                let q = QuerySpec::new(s, t, window);
                let shared = engine.run_with_profile(q, &profile, &mut scratch);
                let direct = engine.run(q, &mut scratch);
                assert_eq!(shared.tspg, direct.tspg, "case {case} query {q}");
                assert_eq!(shared.report.result_vertices, direct.report.result_vertices);
                assert_eq!(shared.report.result_edges, direct.report.result_edges);
                assert_eq!(shared.report.input_edges, direct.report.input_edges);
            }
        }
    }

    #[test]
    fn profile_shared_batches_report_the_overlay_counters() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let engine = QueryEngine::new(g.clone()).without_cache();
        // A fan-out: one source, three targets, mixed window begins.
        let queries = [
            QuerySpec::new(s, t, w),
            QuerySpec::new(s, 2, TimeInterval::new(w.begin() + 1, w.end())),
            QuerySpec::new(s, 3, w),
            QuerySpec::new(t, s, w), // different source: no group
        ];
        for threads in [1, 4] {
            let (results, stats) = engine.run_batch_with_stats(&queries, threads);
            assert_eq!(stats.executed_units, 4);
            assert_eq!(stats.profile_groups, 1, "threads={threads}: {stats:?}");
            assert_eq!(stats.profile_answered, 3, "threads={threads}: {stats:?}");
            for (q, r) in queries.iter().zip(results.iter()) {
                let expected = generate_tspg(&g, q.source, q.target, q.window);
                assert_eq!(r.tspg, expected.tspg, "threads={threads} query {q}");
            }
        }
        // Disabling profile sharing zeroes the overlay counters and does
        // not change any answer.
        let plain = QueryEngine::new(g.clone())
            .without_cache()
            .with_planner(planner::PlannerConfig::default().without_profile_sharing());
        let (results, stats) = plain.run_batch_with_stats(&queries, 2);
        assert_eq!(stats.profile_groups, 0);
        assert_eq!(stats.profile_answered, 0);
        for (q, r) in queries.iter().zip(results.iter()) {
            assert_eq!(r.tspg, generate_tspg(&g, q.source, q.target, q.window).tspg);
        }
    }

    #[test]
    fn resident_profiles_survive_batches_and_report_cache_hits() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let engine = QueryEngine::new(g.clone()).without_cache();
        // Mixed-begin fan-out so the planner forms a profile group.
        let queries = [
            QuerySpec::new(s, t, w),
            QuerySpec::new(s, 2, TimeInterval::new(w.begin() + 1, w.end())),
            QuerySpec::new(s, 3, w),
        ];
        let (cold_results, cold) = engine.run_batch_with_stats(&queries, 2);
        assert_eq!(cold.profile_groups, 1, "{cold:?}");
        let after_cold = engine.profile_cache_stats().expect("profile cache on by default");
        assert_eq!(after_cold.hits, 0, "{after_cold:?}");
        assert_eq!(after_cold.insertions, 1, "{after_cold:?}");
        assert_eq!(after_cold.entries, 1, "{after_cold:?}");
        // The second batch's group reuses the resident profile: no second
        // forward pass for this source, ever.
        let (warm_results, warm) = engine.run_batch_with_stats(&queries, 2);
        assert_eq!(warm.profile_groups, 1, "{warm:?}");
        let after_warm = engine.profile_cache_stats().unwrap();
        assert!(after_warm.hits > 0, "{after_warm:?}");
        assert_eq!(after_warm.insertions, 1, "warm batch must not recompute: {after_warm:?}");
        for ((q, cold_r), warm_r) in queries.iter().zip(&cold_results).zip(&warm_results) {
            let expected = generate_tspg(&g, q.source, q.target, q.window);
            assert_eq!(cold_r.tspg, expected.tspg, "query {q}");
            assert_eq!(warm_r.tspg, expected.tspg, "query {q}");
        }
        // Disabling residency still shares within a batch but retains
        // nothing across batches.
        let transient = QueryEngine::new(g).without_cache().without_profile_cache();
        let (_, stats) = transient.run_batch_with_stats(&queries, 2);
        assert_eq!(stats.profile_groups, 1);
        assert_eq!(transient.profile_cache_stats(), None);
    }

    #[test]
    fn observed_density_tracks_full_graph_runs() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let engine = QueryEngine::new(g).without_cache();
        assert_eq!(engine.observed_density(), None, "fresh engines have no signal");
        let _ = engine.run_batch(&[QuerySpec::new(s, t, w)], 1);
        // Fig. 1(c): 4 tspG vertices of 8.
        let observed = engine.observed_density().expect("one run recorded");
        assert!((observed - 0.5).abs() < 1e-9, "observed {observed}");
        // An empty-result run drags the average down.
        let _ = engine.run_batch(&[QuerySpec::new(t, s, w)], 1);
        let observed = engine.observed_density().unwrap();
        assert!((observed - 0.25).abs() < 1e-9, "observed {observed}");
    }

    #[test]
    fn dense_engines_stop_synthesizing_envelopes() {
        // A dense miniature: tspGs cover most of the graph, so envelope
        // reruns cannot win. After one observing batch the engine must plan
        // overlap chains containment-only — pipeline_runs no worse than an
        // explicitly containment-only engine.
        let g = dense_clique_graph();
        let overlap = [
            QuerySpec::new(0, 5, TimeInterval::new(1, 6)),
            QuerySpec::new(0, 5, TimeInterval::new(4, 9)),
        ];
        let adaptive = QueryEngine::new(g.clone()).without_cache();
        // Priming batch: record the density signal.
        let (_, cold) = adaptive.run_batch_with_stats(&overlap, 1);
        assert_eq!(cold.envelope_units, 1, "no signal yet: envelopes on");
        let observed = adaptive.observed_density().expect("primed");
        assert!(observed > 0.8, "the miniature must read dense at the shipped cutoff: {observed}");
        let (_, warm) = adaptive.run_batch_with_stats(&overlap, 1);
        assert_eq!(warm.envelope_units, 0, "dense signal must disable synthesis");
        let containment = QueryEngine::new(g)
            .without_cache()
            .with_planner(planner::PlannerConfig::containment_only());
        let (_, baseline) = containment.run_batch_with_stats(&overlap, 1);
        assert_eq!(warm.pipeline_runs(), baseline.pipeline_runs());
    }

    #[test]
    fn dense_engines_stop_sharing_profiles() {
        // Same heuristic, profile flavor: on the dense miniature a clamp's
        // candidate H covers nearly the whole graph, so the shared forward
        // pass saves nothing. A mixed-begin fan-out forms a group while no
        // signal exists, records the density, and stops grouping after.
        let g = dense_clique_graph();
        let fanout = [
            QuerySpec::new(0, 5, TimeInterval::new(1, 9)),
            QuerySpec::new(0, 6, TimeInterval::new(2, 9)),
            QuerySpec::new(0, 7, TimeInterval::new(1, 9)),
        ];
        let engine = QueryEngine::new(g).without_cache();
        assert_eq!(engine.observed_profile_density(), None, "fresh engines have no signal");
        let (_, cold) = engine.run_batch_with_stats(&fanout, 1);
        assert_eq!(cold.profile_groups, 1, "no signal yet: profile sharing on");
        let observed = engine.observed_profile_density().expect("profile runs recorded");
        assert!(observed > 0.8, "the miniature must read dense at the shipped cutoff: {observed}");
        let (_, warm) = engine.run_batch_with_stats(&fanout, 1);
        assert_eq!(warm.profile_groups, 0, "dense signal must disable profile sharing");
        assert_eq!(warm.profile_answered, 0);
    }

    /// A small dense graph: edges between most vertex pairs at several
    /// timestamps, so a wide query's tspG covers almost every vertex.
    fn dense_clique_graph() -> TemporalGraph {
        let n = 8u32;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    for time in 1..=9 {
                        edges.push(TemporalEdge::new(u, v, time));
                    }
                }
            }
        }
        TemporalGraph::from_edges(n as usize, edges)
    }

    #[test]
    fn scratch_pool_is_reused_and_bounded() {
        let (s, t, w) = figure1_query();
        let engine = QueryEngine::new(figure1_graph());
        // Distinct, non-nested windows so the batch cannot collapse to a
        // single unit — workers are actually spawned.
        let queries: Vec<QuerySpec> = (0..64)
            .map(|i| QuerySpec::new(s, t, TimeInterval::new(2 + i, 9 + 2 * i)))
            .chain(std::iter::once(QuerySpec::new(t, s, w)))
            .collect();
        assert_eq!(engine.pooled_scratches(), 0);
        // Even a maximally oversubscribed batch must not retain more warm
        // scratches than the hardware can run concurrently.
        let _ = engine.run_batch(&queries, 64);
        let cap = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        assert!(engine.pooled_scratches() <= cap, "pool exceeded cap {cap}");
        // Subsequent batches draw from (and refill) the pool, never past it.
        let retained = engine.pooled_scratches();
        let _ = engine.run_batch(&queries, 1);
        assert!(engine.pooled_scratches() >= retained.min(1));
        assert!(engine.pooled_scratches() <= cap);
    }

    #[test]
    fn empty_batch_and_empty_graph_are_fine() {
        let engine = QueryEngine::new(TemporalGraph::empty(3));
        assert!(engine.run_batch(&[], 4).is_empty());
        let results = engine.run_batch(&[QuerySpec::new(0, 2, TimeInterval::new(1, 5))], 4);
        assert!(results[0].tspg.is_empty());
        assert_eq!(engine.graph().num_vertices(), 3);
    }

    #[test]
    fn warm_scratch_agrees_with_one_shot_across_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xbadc0de);
        // One scratch across every run kind, interleaved: direct runs,
        // profile runs, runs on a smaller compact graph, and runs after an
        // ingest that grows the vertex range. Stale labels or compaction
        // stamps left behind by one kind would show up in the next.
        let mut scratch = QueryScratch::new();
        let random_edges = |rng: &mut StdRng, n: u32, m: usize| -> Vec<TemporalEdge> {
            (0..m)
                .map(|_| {
                    TemporalEdge::new(
                        rng.random_range(0..n),
                        rng.random_range(0..n),
                        rng.random_range(1..12),
                    )
                })
                .filter(|e| e.src != e.dst)
                .collect()
        };
        for case in 0..40 {
            let n: u32 = rng.random_range(4..14);
            let m = rng.random_range(8..90);
            let edges = random_edges(&mut rng, n, m);
            let mut engine = QueryEngine::new(TemporalGraph::from_edges(n as usize, edges));
            for round in 0..3 {
                let g = engine.graph().clone();
                let n = g.num_vertices() as u32;
                let hull = TimeInterval::new(1, 11);
                for step in 0..6 {
                    let s = rng.random_range(0..n);
                    let t = rng.random_range(0..n);
                    let w = TimeInterval::new(rng.random_range(1..4), rng.random_range(4..12));
                    let q = QuerySpec::new(s, t, w);
                    let expected = generate_tspg(&g, s, t, w);
                    let got = match step % 3 {
                        0 => engine.run(q, &mut scratch),
                        1 => {
                            let profile = ArrivalProfile::compute(&g, s, hull);
                            engine.run_with_profile(q, &profile, &mut scratch)
                        }
                        _ => {
                            // The same query on g compacted to its edges'
                            // vertices, answered in compact ids and mapped
                            // back (an isolated endpoint has no compact id;
                            // its answer is empty, and the direct run says so).
                            let (compact, originals) = EdgeSet::from_graph(&g).to_compact_graph();
                            let position = |v| originals.binary_search(&v).ok();
                            match (position(s), position(t)) {
                                (Some(cs), Some(ct)) => {
                                    let cq = QuerySpec::new(cs as VertexId, ct as VertexId, w);
                                    let mut got = QueryEngine::new(compact).run(cq, &mut scratch);
                                    got.tspg.uncompact(&originals);
                                    got
                                }
                                _ => engine.run(q, &mut scratch),
                            }
                        }
                    };
                    let at = format!("case {case} round {round} step {step} ({q})");
                    assert_eq!(got.tspg, expected.tspg, "{at}");
                    assert_eq!(got.report.result_vertices, expected.report.result_vertices, "{at}");
                }
                // Grow the vertex range by up to three fresh vertices.
                let grown = n + rng.random_range(1..4);
                let mut delta = random_edges(&mut rng, grown, 12);
                delta.push(TemporalEdge::new(0, grown - 1, 5));
                engine.ingest(&delta);
                assert_eq!(engine.graph().num_vertices(), grown as usize);
                let mut union = g.edges().to_vec();
                union.extend_from_slice(&delta);
                let fresh = TemporalGraph::from_edges(g.num_vertices(), union);
                assert_eq!(engine.graph().edges(), fresh.edges(), "case {case} round {round}");
            }
        }
    }

    #[test]
    fn a_direct_run_costs_its_gq_and_not_the_graph() {
        // Figure 1 plus 100,000 isolated vertices: every working table past
        // the polarity labels must be sized by G_q, not by the graph.
        let (s, t, w) = figure1_query();
        let isolated = 100_000;
        let g = TemporalGraph::from_edges(
            figure1_graph().num_vertices() + isolated,
            figure1_graph().edges().to_vec(),
        );
        let engine = QueryEngine::new(g.clone());
        let mut scratch = QueryScratch::new();
        let got = engine.run(QuerySpec::new(s, t, w), &mut scratch);
        assert_eq!(
            got.tspg,
            EdgeSet::from_edges(tspg_graph::fixtures::figure1_expected_tspg_edges())
        );
        let gq_vertices =
            crate::quick_ubg::quick_upper_bound_graph(&g, s, t, w).non_isolated_vertices().len();
        assert!(
            scratch.gq.num_vertices() <= gq_vertices + 2,
            "G_q holds {}",
            scratch.gq.num_vertices()
        );
        assert!(
            scratch.gt.num_vertices() <= gq_vertices + 2,
            "G_t holds {}",
            scratch.gt.num_vertices()
        );
        assert_eq!(got.report.quick_edges, 8, "Fig. 3(c)");
        assert_eq!(got.report.tight_edges, 5, "Fig. 4(c)");
    }

    /// The answer over `g` through every engine path — one-shot, a direct
    /// warm run, a profile run, a batch — checked against `expected`.
    fn assert_every_path_answers(g: &TemporalGraph, q: QuerySpec, expected: &EdgeSet) {
        let one_shot = generate_tspg(g, q.source, q.target, q.window);
        assert_eq!(&one_shot.tspg, expected, "one-shot {q}");
        let engine = QueryEngine::new(g.clone());
        let mut scratch = QueryScratch::new();
        assert_eq!(&engine.run(q, &mut scratch).tspg, expected, "direct {q}");
        let profile = ArrivalProfile::compute(g, q.source, q.window);
        assert_eq!(
            &engine.run_with_profile(q, &profile, &mut scratch).tspg,
            expected,
            "profile {q}"
        );
        let fanout = [q, QuerySpec::new(q.source, q.source + 1, q.window), q];
        assert_eq!(&engine.run_batch(&fanout, 2)[0].tspg, expected, "batch {q}");
    }

    #[test]
    fn windows_at_the_ends_of_the_timestamp_range_answer_figure_1c() {
        let g = figure1_graph();
        let (s, t, _) = figure1_query();
        let expected = EdgeSet::from_edges(tspg_graph::fixtures::figure1_expected_tspg_edges());
        for window in [
            TimeInterval::new(0, i64::MAX),
            TimeInterval::new(i64::MIN, 100),
            TimeInterval::new(i64::MIN, i64::MAX),
        ] {
            assert_every_path_answers(&g, QuerySpec::new(s, t, window), &expected);
        }
    }

    #[test]
    fn edges_stamped_at_the_ends_of_the_timestamp_range_are_answered() {
        let path = |times: [i64; 5]| {
            let [a, b, c, d, e] = times;
            vec![
                TemporalEdge::new(0, 1, a),
                TemporalEdge::new(1, 2, b),
                TemporalEdge::new(1, 2, c),
                TemporalEdge::new(2, 3, d),
                TemporalEdge::new(0, 2, e),
            ]
        };
        for (edges, window) in [
            (path([5, 6, 7, i64::MAX, 3]), TimeInterval::new(0, i64::MAX)),
            (path([i64::MIN, -7, -6, -5, -9]), TimeInterval::new(i64::MIN, 0)),
        ] {
            let g = TemporalGraph::from_edges(4, edges.clone());
            // Every edge lies on a temporal simple 0 -> 3 path.
            assert_every_path_answers(
                &g,
                QuerySpec::new(0, 3, window),
                &EdgeSet::from_edges(edges),
            );
        }
    }
}
