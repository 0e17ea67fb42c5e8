//! Polarity time computation (Algorithm 3).
//!
//! For the query `(s, t, [τ_b, τ_e])` every vertex `u` gets
//!
//! * an **earliest arrival time** `A(u)`: the smallest arrival time over all
//!   strict temporal paths from `s` to `u` within the window that do not
//!   pass through `t`, with the sentinel `A(s) = τ_b − 1`, and
//! * a **latest departure time** `D(u)`: the largest departure time over all
//!   strict temporal paths from `u` to `t` within the window that do not
//!   pass through `s`, with the sentinel `D(t) = τ_e + 1`.
//!
//! Unreachable vertices keep `None` (the paper's `+∞` / `−∞`).
//!
//! At the ends of the timestamp range the sentinels saturate (`A(s)` of a
//! window beginning at `i64::MIN` is `i64::MIN`), so no comparison ever
//! reads them: edges leaving `s` or entering `t` are tested against the
//! window itself.
//!
//! The computation is a label-correcting BFS over time-sorted adjacency —
//! `O(n + m)` — and is the reason `QuickUBG` beats the Dijkstra-based
//! `tgTSG` by the `O(log n)` factor examined in Exp-5 / Fig. 9. The
//! engine's in-place variant resets only the labels its previous run wrote,
//! so a warm run costs the part of the graph its two passes reach.

use std::collections::VecDeque;
use tspg_graph::{TemporalGraph, TimeInterval, Timestamp, VertexId};

/// Earliest arrival and latest departure times of every vertex for one query.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PolarityTimes {
    /// `A(u)` per vertex; `None` encodes `+∞` (unreachable from `s`).
    pub arrival: Vec<Option<Timestamp>>,
    /// `D(u)` per vertex; `None` encodes `−∞` (cannot reach `t`).
    pub departure: Vec<Option<Timestamp>>,
    /// The `(s, t, window)` the labels were computed for; `None` on
    /// default tables, which admit no edge.
    query: Option<(VertexId, VertexId, TimeInterval)>,
}

impl PolarityTimes {
    /// Earliest arrival time of `u`, if `u` is reachable from the source.
    #[inline]
    pub fn arrival(&self, u: VertexId) -> Option<Timestamp> {
        self.arrival.get(u as usize).copied().flatten()
    }

    /// Latest departure time of `u`, if `u` can reach the target.
    #[inline]
    pub fn departure(&self, u: VertexId) -> Option<Timestamp> {
        self.departure.get(u as usize).copied().flatten()
    }

    /// Lemma 1: `true` iff the edge `e(u, v, τ)` lies on some strict temporal
    /// path from the source to the target within the window.
    ///
    /// `A(u) < τ < D(v)`, with the window standing in for the sentinels of
    /// `s` and `t` (see the module docs).
    #[inline]
    pub fn admits_edge(&self, u: VertexId, v: VertexId, time: Timestamp) -> bool {
        let Some((s, t, window)) = self.query else { return false };
        window.contains(time)
            && self.arrival(u).is_some_and(|a| u == s || a < time)
            && self.departure(v).is_some_and(|d| v == t || time < d)
    }

    /// The `(s, t, window)` the labels answer, if any were computed.
    pub(crate) fn query(&self) -> Option<(VertexId, VertexId, TimeInterval)> {
        self.query
    }
}

/// Reusable traversal state of [`compute_polarity_into`]: the BFS queue,
/// the in-queue flags, and the lists of vertices each pass labelled. One
/// instance per worker amortises every allocation across a whole batch of
/// queries.
#[derive(Clone, Debug, Default)]
pub struct PolarityScratch {
    queue: VecDeque<VertexId>,
    /// In-queue flags; all `false` between passes (a pass drains its queue).
    queued: Vec<bool>,
    /// Vertices the last forward labelling gave an arrival (the reset list
    /// of the next relabelling, and the `G_q` gather's scan list).
    reached: Vec<VertexId>,
    /// Vertices the last backward pass gave a departure.
    reaching: Vec<VertexId>,
}

impl PolarityScratch {
    /// Vertices carrying an arrival label after the last labelling: the
    /// scan list of the `G_q` gather
    /// ([`crate::quick_ubg::candidate_edges_into`]).
    pub(crate) fn reached(&self) -> &[VertexId] {
        &self.reached
    }

    /// Number of labels the last labelling wrote (arrivals plus
    /// departures).
    pub(crate) fn labelled(&self) -> usize {
        self.reached.len() + self.reaching.len()
    }
}

/// Computes `A(u)` and `D(u)` for every vertex (Algorithm 3).
///
/// Out-of-range `s`/`t` yield all-`None` tables (the query is unanswerable).
pub fn compute_polarity(
    graph: &TemporalGraph,
    s: VertexId,
    t: VertexId,
    window: TimeInterval,
) -> PolarityTimes {
    let mut times = PolarityTimes::default();
    compute_polarity_into(graph, s, t, window, &mut times, &mut PolarityScratch::default());
    times
}

/// In-place variant of [`compute_polarity`]: writes the labels into `times`
/// (sized to exactly the graph's vertex count) and runs the two BFS passes
/// out of `scratch`, so a warm caller performs no allocation.
pub fn compute_polarity_into(
    graph: &TemporalGraph,
    s: VertexId,
    t: VertexId,
    window: TimeInterval,
    times: &mut PolarityTimes,
    scratch: &mut PolarityScratch,
) {
    // The caller may hand in tables of any history: empty them, so the
    // relabelling below sizes them to exactly this graph.
    scratch.reached.clear();
    scratch.reaching.clear();
    times.arrival.clear();
    times.departure.clear();
    relabel_polarity_into(graph, s, t, window, None, times, scratch);
}

/// The engine's in-place labelling: resets only the labels the previous
/// labelling out of the same `times` and `scratch` wrote, grows the tables
/// (never shrinks them) to cover `graph`, and labels the query.
///
/// The forward half is a BFS, or — given a shared [`SourceFrontier`] — a
/// copy of the frontier's reachable labels, keeping `A₀(u)` iff
/// `A₀(u) ≤ window.end()`: exact for the frontier's begin (see
/// [`SourceFrontier`]). Such tables admit a superset of the BFS tables'
/// edges (the frontier does not avoid the target), which the engine
/// reduces to the identical tspG by re-running the pipeline on them.
///
/// The tables may stay longer than `graph`'s vertex count (one scratch
/// serves graphs of every size in turn); every entry past the ones this
/// call labelled is `None`, and an out-of-range endpoint leaves every
/// label `None`.
///
/// # Panics
///
/// Panics if a given frontier does not cover `(s, window)`.
pub(crate) fn relabel_polarity_into(
    graph: &TemporalGraph,
    s: VertexId,
    t: VertexId,
    window: TimeInterval,
    frontier: Option<&SourceFrontier>,
    times: &mut PolarityTimes,
    scratch: &mut PolarityScratch,
) {
    for &v in &scratch.reached {
        times.arrival[v as usize] = None;
    }
    for &v in &scratch.reaching {
        times.departure[v as usize] = None;
    }
    scratch.reached.clear();
    scratch.reaching.clear();
    let n = graph.num_vertices();
    for table in [&mut times.arrival, &mut times.departure] {
        if table.len() < n {
            table.resize(n, None);
        }
    }
    if scratch.queued.len() < n {
        scratch.queued.resize(n, false);
    }
    times.query = Some((s, t, window));
    if let Some(frontier) = frontier {
        assert!(
            frontier.covers(s, window),
            "frontier over {} from vertex {} cannot answer ({s}, {t}, {window})",
            frontier.window,
            frontier.source,
        );
    }
    if (s as usize) >= n || (t as usize) >= n {
        return;
    }
    match frontier {
        Some(frontier) => {
            let end = window.end();
            for &v in &frontier.reachable {
                if let Some(a) = frontier.arrival(v).filter(|&a| a <= end) {
                    times.arrival[v as usize] = Some(a);
                    scratch.reached.push(v);
                }
            }
        }
        None => forward_pass(graph, s, Some(t), window, &mut times.arrival, scratch),
    }
    backward_pass(graph, s, t, window, &mut times.departure, scratch);
}

/// Forward half of Algorithm 3: earliest arrival from `s` within `window`,
/// never relaxing into `avoid` (the query target, when there is one).
/// Writes only `None` entries of `arrival` (which covers every vertex) and
/// records each vertex it labels in `scratch.reached`.
fn forward_pass(
    graph: &TemporalGraph,
    s: VertexId,
    avoid: Option<VertexId>,
    window: TimeInterval,
    arrival: &mut [Option<Timestamp>],
    scratch: &mut PolarityScratch,
) {
    let queue = &mut scratch.queue;
    let queued = &mut scratch.queued;
    arrival[s as usize] = Some(window.begin().saturating_sub(1));
    scratch.reached.push(s);
    queue.clear();
    queue.push_back(s);
    queued[s as usize] = true;
    while let Some(u) = queue.pop_front() {
        queued[u as usize] = false;
        let reach = arrival[u as usize].expect("queued vertices carry labels");
        for entry in graph.out_neighbors_in(u, window) {
            // The window slice already bounds the source's edges; its
            // sentinel is never compared (it saturates at `i64::MIN`).
            if Some(entry.neighbor) == avoid || (u != s && entry.time <= reach) {
                continue;
            }
            let v = entry.neighbor as usize;
            if arrival[v].is_none_or(|cur| entry.time < cur) {
                if arrival[v].is_none() {
                    scratch.reached.push(entry.neighbor);
                }
                arrival[v] = Some(entry.time);
                // A vertex arriving exactly at τ_e cannot be extended further,
                // but other in-edges may still improve it, so it is re-queued
                // only when it can possibly relax someone else.
                if entry.time != window.end() && !queued[v] {
                    queued[v] = true;
                    queue.push_back(entry.neighbor);
                }
            }
        }
    }
}

/// Backward half of Algorithm 3: latest departure towards `t` within
/// `window`, never relaxing into `s`. Writes only `None` entries of
/// `departure` (which covers every vertex) and records each vertex it
/// labels in `scratch.reaching`.
fn backward_pass(
    graph: &TemporalGraph,
    s: VertexId,
    t: VertexId,
    window: TimeInterval,
    departure: &mut [Option<Timestamp>],
    scratch: &mut PolarityScratch,
) {
    let queue = &mut scratch.queue;
    let queued = &mut scratch.queued;
    departure[t as usize] = Some(window.end().saturating_add(1));
    scratch.reaching.push(t);
    queue.clear();
    queue.push_back(t);
    queued[t as usize] = true;
    while let Some(u) = queue.pop_front() {
        queued[u as usize] = false;
        let depart = departure[u as usize].expect("queued vertices carry labels");
        for entry in graph.in_neighbors_in(u, window) {
            if entry.neighbor == s || (u != t && entry.time >= depart) {
                continue;
            }
            let v = entry.neighbor as usize;
            if departure[v].is_none_or(|cur| entry.time > cur) {
                if departure[v].is_none() {
                    scratch.reaching.push(entry.neighbor);
                }
                departure[v] = Some(entry.time);
                if entry.time != window.begin() && !queued[v] {
                    queued[v] = true;
                    queue.push_back(entry.neighbor);
                }
            }
        }
    }
}

/// The **target-agnostic** forward half of the polarity computation,
/// computed once per source over a group's *hull* window and shared across
/// every query of that source.
///
/// The forward pass of Algorithm 3 depends on the target only through the
/// "never relax into `t`" tightening. A frontier drops that tightening:
/// `A₀(u)` is the plain earliest arrival from `s` within the hull window,
/// so `A₀(u) ≤ A(u)` for every query target. Substituting `A₀` for `A`
/// admits a *superset* `H` of the edges Lemma 1 admits — a valid candidate
/// subgraph (`tspG ⊆ G_q ⊆ H ⊆ G`), but **not** a graph the rest of the
/// pipeline may consume as `G_q`: the EEV rule confirmations (Lemmas 2 and
/// 10) are proven under `G_q`'s avoid-`t`/avoid-`s` polarity invariants and
/// can falsely confirm cycle edges of `H` (e.g. an `H`-edge into `t` whose
/// only "paths" revisit `t`). Consumers therefore treat `H` as an *input
/// graph* and re-run the exact pipeline on it — `tspG(H) = tspG(G)` by the
/// Definition-2 containment argument, and `H` is `G_q`-sized, so the rerun
/// costs little beside the forward BFS the shared pass saves.
///
/// **Window restriction is exact for same-begin windows.** A strict
/// temporal path arriving at time `τ` uses only edge times in
/// `[begin, τ]`, so for any member window `[begin, e]` with the frontier's
/// begin, clamping (`A₀(u)` kept iff `A₀(u) ≤ e`) yields precisely the
/// arrivals of a fresh target-agnostic pass over `[begin, e]`. Arbitrary
/// begins need the step function an [`ArrivalProfile`] records; a profile
/// clamp materializes exactly this frontier for any member window inside
/// the hull, which is why the planner groups units by source alone and
/// hulls their windows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceFrontier {
    source: VertexId,
    window: TimeInterval,
    /// `A₀(u)` per vertex over the hull window; `None` = unreachable.
    arrival: Vec<Option<Timestamp>>,
    /// Vertices with a label (including `s` itself), ascending — the scan
    /// list of the frontier-restricted `G_q` construction.
    reachable: Vec<VertexId>,
}

impl Default for SourceFrontier {
    /// An empty frontier (no vertex labelled) over the degenerate window
    /// `[0, 0]` — the rest state of a scratch slot that a profile clamp
    /// ([`ArrivalProfile::clamp_into`]) fills in place.
    fn default() -> Self {
        Self {
            source: 0,
            window: TimeInterval::point(0),
            arrival: Vec::new(),
            reachable: Vec::new(),
        }
    }
}

impl SourceFrontier {
    /// Runs the target-agnostic forward pass from `source` over `window`.
    ///
    /// An out-of-range source yields an empty frontier (no vertex labelled),
    /// mirroring [`compute_polarity`]'s all-`None` tables.
    pub fn compute(graph: &TemporalGraph, source: VertexId, window: TimeInterval) -> Self {
        let n = graph.num_vertices();
        let mut arrival = vec![None; n];
        let mut scratch = PolarityScratch { queued: vec![false; n], ..PolarityScratch::default() };
        if (source as usize) < n {
            forward_pass(graph, source, None, window, &mut arrival, &mut scratch);
        }
        let mut reachable = scratch.reached;
        reachable.sort_unstable();
        Self { source, window, arrival, reachable }
    }

    /// The source vertex the frontier was computed from.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// The hull window the forward pass ran over.
    pub fn window(&self) -> TimeInterval {
        self.window
    }

    /// Vertices carrying an arrival label, ascending.
    pub fn reachable(&self) -> &[VertexId] {
        &self.reachable
    }

    /// `A₀(u)` over the hull window.
    #[inline]
    pub fn arrival(&self, u: VertexId) -> Option<Timestamp> {
        self.arrival.get(u as usize).copied().flatten()
    }

    /// Returns `true` if this frontier's forward pass can be restricted to
    /// `window` exactly: same begin, end within the hull.
    pub fn covers(&self, source: VertexId, window: TimeInterval) -> bool {
        self.source == source
            && self.window.begin() == window.begin()
            && self.window.contains_interval(&window)
    }
}

/// A per-source **arrival profile**: earliest arrival at every vertex as a
/// step function of the query's *start bound*, computed by one
/// target-agnostic forward pass over a hull window and clamped — exactly —
/// at any member `(begin, end)` inside that hull.
///
/// Where a [`SourceFrontier`] stores one arrival per vertex (valid for a
/// single shared begin), the profile stores per vertex the **Pareto front**
/// of `(first-edge time f, arrival a)` pairs over strict temporal walks
/// from the source inside the hull: `(f₁, a₁)` is dominated by `(f₂, a₂)`
/// iff `f₂ ≥ f₁ ∧ a₂ ≤ a₁` (a later start that arrives no later answers
/// every query the earlier start answers). Kept non-dominated, the front is
/// strictly ascending in both `f` and `a`, so for a member window
/// `[b, e] ⊆ hull` the earliest arrival at `v` is the *first* pair with
/// `f ≥ b`, kept iff its `a ≤ e` — a walk is valid in `[b, e]` iff its
/// strictly increasing edge times all lie in `[b, e]`, i.e. iff `f ≥ b`
/// and `a ≤ e`. Clamping therefore reproduces a fresh target-agnostic pass
/// over `[b, e]` for **every** begin in the hull, not just a shared one —
/// this is the earliest-arrival-as-function-of-start-bound formulation of
/// Huang et al.'s temporal traversals.
///
/// The resident representation is a flattened CSR (`starts`/`pairs`,
/// following the Kairos compact time-indexed-layout direction) so a cached
/// profile costs three dense arrays, accounted by
/// [`ArrivalProfile::approx_bytes`] in the engine's profile cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrivalProfile {
    source: VertexId,
    window: TimeInterval,
    /// CSR offsets into `pairs`, length `num_vertices + 1`.
    starts: Vec<u32>,
    /// Concatenated per-vertex Pareto fronts, each strictly ascending in
    /// both components.
    pairs: Vec<(Timestamp, Timestamp)>,
    /// Vertices with a non-empty front, plus the source itself, ascending.
    reachable: Vec<VertexId>,
}

impl ArrivalProfile {
    /// Runs the target-agnostic Pareto forward pass from `source` over the
    /// hull `window`.
    ///
    /// An out-of-range source yields an empty profile whose every clamp is
    /// the empty frontier, mirroring [`SourceFrontier::compute`].
    pub fn compute(graph: &TemporalGraph, source: VertexId, window: TimeInterval) -> Self {
        let n = graph.num_vertices();
        let mut fronts: Vec<Vec<(Timestamp, Timestamp)>> = vec![Vec::new(); n];
        if (source as usize) < n {
            let mut queue = VecDeque::new();
            let mut queued = vec![false; n];
            queue.push_back(source);
            queued[source as usize] = true;
            while let Some(u) = queue.pop_front() {
                queued[u as usize] = false;
                for entry in graph.out_neighbors_in(u, window) {
                    let v = entry.neighbor;
                    // Walks into the source are never useful: a fresh start
                    // at the outgoing edge dominates them (larger `f`, same
                    // arrival). Self-loops are dominated for the same reason.
                    if v == source || v == u {
                        continue;
                    }
                    let tau = entry.time;
                    let first = if u == source {
                        // Fresh start: the walk's first edge is this edge.
                        tau
                    } else {
                        // Best extendable walk into `u`: the last front pair
                        // arriving strictly before `tau` (fronts ascend in
                        // both components, so it carries the largest `f`).
                        let front = &fronts[u as usize];
                        let idx = front.partition_point(|&(_, a)| a < tau);
                        if idx == 0 {
                            continue;
                        }
                        front[idx - 1].0
                    };
                    if insert_front_pair(&mut fronts[v as usize], (first, tau))
                        && tau != window.end()
                        && !queued[v as usize]
                    {
                        // A pair arriving exactly at the hull end cannot
                        // extend any walk, so it never needs re-relaxing.
                        queued[v as usize] = true;
                        queue.push_back(v);
                    }
                }
            }
        }
        let mut starts = Vec::with_capacity(n + 1);
        let mut pairs = Vec::new();
        let mut reachable = Vec::new();
        starts.push(0u32);
        for (v, front) in fronts.iter().enumerate() {
            pairs.extend_from_slice(front);
            starts.push(pairs.len() as u32);
            if !front.is_empty() || (v as VertexId == source && (source as usize) < n) {
                reachable.push(v as VertexId);
            }
        }
        Self { source, window, starts, pairs, reachable }
    }

    /// The source vertex the profile was computed from.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// The hull window the forward pass ran over.
    pub fn window(&self) -> TimeInterval {
        self.window
    }

    /// The Pareto front of `(first-edge time, arrival)` pairs at `v`.
    pub fn front(&self, v: VertexId) -> &[(Timestamp, Timestamp)] {
        let lo = self.starts[v as usize] as usize;
        let hi = self.starts[v as usize + 1] as usize;
        &self.pairs[lo..hi]
    }

    /// Returns `true` if clamping this profile at `window` is exact: same
    /// source, window inside the hull. Unlike [`SourceFrontier::covers`]
    /// the begin may differ — that is the point of the profile.
    pub fn covers(&self, source: VertexId, window: TimeInterval) -> bool {
        self.source == source && self.window.contains_interval(&window)
    }

    /// Rough heap usage of the flattened profile, for cache accounting.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.starts.len() * std::mem::size_of::<u32>()
            + self.pairs.len() * std::mem::size_of::<(Timestamp, Timestamp)>()
            + self.reachable.len() * std::mem::size_of::<VertexId>()
    }

    /// Allocating convenience wrapper around [`Self::clamp_into`].
    pub fn clamp(&self, window: TimeInterval) -> SourceFrontier {
        let mut out = SourceFrontier::default();
        self.clamp_into(window, &mut out);
        out
    }

    /// Clamps the profile at a member `window`, writing a [`SourceFrontier`]
    /// that is byte-identical to `SourceFrontier::compute` over that window
    /// — for every begin inside the hull. The frontier's own machinery
    /// (`covers`, the frontier labelling of the engine, the candidate-edge
    /// scan) then applies unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the profile does not cover `window`.
    pub fn clamp_into(&self, window: TimeInterval, out: &mut SourceFrontier) {
        assert!(
            self.covers(self.source, window),
            "profile over {} from vertex {} cannot answer {window}",
            self.window,
            self.source,
        );
        let n = self.starts.len() - 1;
        out.source = self.source;
        out.window = window;
        // Only the previous clamp's labels are set: reset those rather
        // than the whole table, so a member clamp costs its reachable set.
        for &v in &out.reachable {
            if let Some(slot) = out.arrival.get_mut(v as usize) {
                *slot = None;
            }
        }
        out.arrival.resize(n, None);
        out.reachable.clear();
        let (begin, end) = (window.begin(), window.end());
        for &v in &self.reachable {
            let arrival = if v == self.source {
                // The source carries the same sentinel a fresh pass writes.
                Some(begin.saturating_sub(1))
            } else {
                let front = self.front(v);
                let idx = front.partition_point(|&(f, _)| f < begin);
                front.get(idx).map(|&(_, a)| a).filter(|&a| a <= end)
            };
            if let Some(a) = arrival {
                out.arrival[v as usize] = Some(a);
                out.reachable.push(v);
            }
        }
    }
}

/// Inserts `pair` into a Pareto front kept strictly ascending in both
/// components; returns `false` (front untouched) when an existing pair
/// dominates it, and prunes the pairs it dominates otherwise.
fn insert_front_pair(
    front: &mut Vec<(Timestamp, Timestamp)>,
    pair: (Timestamp, Timestamp),
) -> bool {
    let (f, a) = pair;
    let idx = front.partition_point(|&(pf, _)| pf < f);
    // Ascending arrivals make `front[idx]` the sharpest pair with `pf ≥ f`:
    // if it does not dominate `(f, a)`, nothing later does either.
    if front.get(idx).is_some_and(|&(_, pa)| pa <= a) {
        return false;
    }
    // Pairs the newcomer dominates: earlier starts arriving no earlier
    // (a contiguous run ending at `idx`), plus an equal-`f` pair at `idx`
    // (which, having survived the check above, must arrive later).
    let hi = if front.get(idx).is_some_and(|&(pf, _)| pf == f) { idx + 1 } else { idx };
    let lo = front[..idx].partition_point(|&(_, pa)| pa < a);
    front.splice(lo..hi, [pair]);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspg_graph::fixtures::{fig1, figure1_graph, figure1_query};
    use tspg_graph::TemporalEdge;

    #[test]
    fn matches_figure_3_tables() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let p = compute_polarity(&g, s, t, w);
        // Fig. 3(a)
        assert_eq!(p.arrival(fig1::S), Some(1));
        assert_eq!(p.arrival(fig1::A), Some(3));
        assert_eq!(p.arrival(fig1::B), Some(2));
        assert_eq!(p.arrival(fig1::C), Some(3));
        assert_eq!(p.arrival(fig1::D), Some(3));
        assert_eq!(p.arrival(fig1::E), Some(5));
        assert_eq!(p.arrival(fig1::F), Some(4));
        assert_eq!(p.arrival(fig1::T), None);
        // Fig. 3(b)
        assert_eq!(p.departure(fig1::T), Some(8));
        assert_eq!(p.departure(fig1::B), Some(6));
        assert_eq!(p.departure(fig1::C), Some(7));
        assert_eq!(p.departure(fig1::D), Some(2));
        assert_eq!(p.departure(fig1::E), Some(6));
        assert_eq!(p.departure(fig1::F), Some(5));
        assert_eq!(p.departure(fig1::A), None);
        assert_eq!(p.departure(fig1::S), None);
    }

    #[test]
    fn admits_edge_reproduces_example_4() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let p = compute_polarity(&g, s, t, w);
        // Excluded: e(s, a, 3) because D(a) = −∞, e(d, t, 2) because A(d) = 3 > 2.
        assert!(!p.admits_edge(fig1::S, fig1::A, 3));
        assert!(!p.admits_edge(fig1::D, fig1::T, 2));
        // Kept examples from Fig. 3(c).
        assert!(p.admits_edge(fig1::S, fig1::B, 2));
        assert!(p.admits_edge(fig1::C, fig1::T, 7));
        assert!(p.admits_edge(fig1::C, fig1::F, 4));
        // e(b, f, 5) fails the strict constraint: D(f) = 5 is not > 5.
        assert!(!p.admits_edge(fig1::B, fig1::F, 5));
    }

    #[test]
    fn window_narrowing_removes_labels() {
        let g = figure1_graph();
        let p = compute_polarity(&g, fig1::S, fig1::T, TimeInterval::new(3, 5));
        // With the window [3, 5] vertex b is only reachable at time... never:
        // the only edge into b inside the window is f -> b @5, and f is
        // reached at 4 (via s? s->b is at 2, outside). So b is unreachable.
        assert_eq!(p.arrival(fig1::B), None);
        assert_eq!(p.departure(fig1::T), Some(6));
    }

    #[test]
    fn out_of_range_endpoints_yield_empty_tables() {
        let g = figure1_graph();
        let p = compute_polarity(&g, 99, fig1::T, TimeInterval::new(2, 7));
        assert!(p.arrival.iter().all(Option::is_none));
        assert!(p.departure.iter().all(Option::is_none));
        assert!(!p.admits_edge(fig1::S, fig1::B, 2));
    }

    #[test]
    fn source_equals_target() {
        let g = figure1_graph();
        let p = compute_polarity(&g, fig1::S, fig1::S, TimeInterval::new(2, 7));
        // A(s) and D(s) both carry their sentinels; no edge can satisfy
        // Lemma 1 against the same vertex both ways unless a cycle exists.
        assert_eq!(p.arrival(fig1::S), Some(1));
        assert_eq!(p.departure(fig1::S), Some(8));
    }

    #[test]
    fn chain_graph_labels() {
        // 0 -1-> 1 -2-> 2 -3-> 3
        let g = TemporalGraph::from_edges(
            4,
            vec![
                TemporalEdge::new(0, 1, 1),
                TemporalEdge::new(1, 2, 2),
                TemporalEdge::new(2, 3, 3),
            ],
        );
        let p = compute_polarity(&g, 0, 3, TimeInterval::new(1, 3));
        assert_eq!(p.arrival(1), Some(1));
        assert_eq!(p.arrival(2), Some(2));
        assert_eq!(p.arrival(3), None); // never relaxed into t
        assert_eq!(p.departure(2), Some(3));
        assert_eq!(p.departure(1), Some(2));
        assert_eq!(p.departure(0), None); // never relaxed into s
        assert!(p.admits_edge(0, 1, 1));
        assert!(p.admits_edge(1, 2, 2));
        assert!(p.admits_edge(2, 3, 3));
    }

    #[test]
    fn frontier_arrival_lower_bounds_the_avoiding_pass() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let frontier = SourceFrontier::compute(&g, s, w);
        let p = compute_polarity(&g, s, t, w);
        assert_eq!(frontier.source(), s);
        assert_eq!(frontier.window(), w);
        for u in g.vertices() {
            if let Some(a) = p.arrival(u) {
                let a0 = frontier.arrival(u).expect("avoid-t reachability implies reachability");
                assert!(a0 <= a, "vertex {u}: A0={a0} must not exceed A={a}");
            }
        }
        // The frontier does not avoid t, so t itself gets a label here
        // (reachable via b@6 / c@7) even though A(t) is None by definition.
        assert_eq!(p.arrival(fig1::T), None);
        assert!(frontier.arrival(fig1::T).is_some());
        assert!(frontier.reachable().contains(&fig1::T));
        assert!(frontier.reachable().windows(2).all(|p| p[0] < p[1]), "ascending");
    }

    #[test]
    fn frontier_restriction_equals_a_fresh_pass_on_same_begin_windows() {
        // For every narrower same-begin window, clamping the hull frontier
        // must equal a fresh target-agnostic pass over that window.
        let g = figure1_graph();
        let hull = TimeInterval::new(2, 7);
        let frontier = SourceFrontier::compute(&g, fig1::S, hull);
        for end in 2..=7 {
            let member = TimeInterval::new(2, end);
            let fresh = SourceFrontier::compute(&g, fig1::S, member);
            for u in g.vertices() {
                let clamped = frontier.arrival(u).filter(|&a| a <= end);
                assert_eq!(clamped, fresh.arrival(u), "vertex {u}, end {end}");
            }
        }
    }

    #[test]
    fn frontier_polarity_departure_matches_the_direct_pass() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let frontier = SourceFrontier::compute(&g, s, w);
        let direct = compute_polarity(&g, s, t, w);
        let mut times = PolarityTimes::default();
        let mut scratch = PolarityScratch::default();
        for end in [5, 7] {
            let member = TimeInterval::new(2, end);
            relabel_polarity_into(&g, s, t, member, Some(&frontier), &mut times, &mut scratch);
            if end == 7 {
                assert_eq!(times.departure, direct.departure, "backward pass is untouched");
            }
            // Every admitted edge of the avoiding pass stays admitted: the
            // frontier tables bound the exact ones from below.
            let exact = compute_polarity(&g, s, t, member);
            for e in g.edges() {
                if exact.admits_edge(e.src, e.dst, e.time) {
                    assert!(times.admits_edge(e.src, e.dst, e.time), "{e:?} lost at end={end}");
                }
            }
        }
    }

    #[test]
    fn frontier_covers_checks_source_and_window() {
        let g = figure1_graph();
        let frontier = SourceFrontier::compute(&g, fig1::S, TimeInterval::new(2, 7));
        assert!(frontier.covers(fig1::S, TimeInterval::new(2, 7)));
        assert!(frontier.covers(fig1::S, TimeInterval::new(2, 4)));
        assert!(!frontier.covers(fig1::B, TimeInterval::new(2, 7)), "different source");
        assert!(!frontier.covers(fig1::S, TimeInterval::new(3, 7)), "different begin");
        assert!(!frontier.covers(fig1::S, TimeInterval::new(2, 9)), "end beyond the hull");
    }

    #[test]
    #[should_panic(expected = "cannot answer")]
    fn frontier_polarity_rejects_uncovered_windows() {
        let g = figure1_graph();
        let frontier = SourceFrontier::compute(&g, fig1::S, TimeInterval::new(2, 5));
        relabel_polarity_into(
            &g,
            fig1::S,
            fig1::T,
            TimeInterval::new(2, 7),
            Some(&frontier),
            &mut PolarityTimes::default(),
            &mut PolarityScratch::default(),
        );
    }

    #[test]
    fn out_of_range_frontier_source_is_empty() {
        let g = figure1_graph();
        let frontier = SourceFrontier::compute(&g, 99, TimeInterval::new(2, 7));
        assert!(frontier.reachable().is_empty());
        assert_eq!(frontier.arrival(fig1::S), None);
    }

    #[test]
    fn profile_clamp_equals_a_fresh_frontier_for_every_subwindow() {
        // The tentpole identity on the paper's running example: clamping
        // the hull profile at *any* (begin, end) inside the hull is
        // byte-identical to a fresh target-agnostic pass over that window.
        let g = figure1_graph();
        let hull = TimeInterval::new(2, 7);
        let profile = ArrivalProfile::compute(&g, fig1::S, hull);
        assert_eq!(profile.source(), fig1::S);
        assert_eq!(profile.window(), hull);
        for begin in 2..=7 {
            for end in begin..=7 {
                let member = TimeInterval::new(begin, end);
                let fresh = SourceFrontier::compute(&g, fig1::S, member);
                assert_eq!(profile.clamp(member), fresh, "window {member}");
            }
        }
    }

    #[test]
    fn profile_fronts_are_pareto_ordered() {
        let g = figure1_graph();
        let profile = ArrivalProfile::compute(&g, fig1::S, TimeInterval::new(2, 7));
        let mut labelled = 0;
        for v in g.vertices() {
            let front = profile.front(v);
            labelled += usize::from(!front.is_empty());
            assert!(
                front.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1),
                "front of {v} not strictly ascending: {front:?}"
            );
            assert!(front.iter().all(|&(f, a)| f <= a), "first edge after arrival at {v}");
        }
        assert!(labelled > 0, "figure 1 reaches vertices from s");
        assert!(profile.reachable.contains(&fig1::S), "source is always reachable");
        assert!(profile.approx_bytes() > 0);
    }

    #[test]
    fn profile_covers_any_begin_inside_the_hull() {
        let g = figure1_graph();
        let profile = ArrivalProfile::compute(&g, fig1::S, TimeInterval::new(2, 7));
        assert!(profile.covers(fig1::S, TimeInterval::new(2, 7)));
        assert!(profile.covers(fig1::S, TimeInterval::new(4, 6)), "begins may differ");
        assert!(!profile.covers(fig1::B, TimeInterval::new(2, 7)), "different source");
        assert!(!profile.covers(fig1::S, TimeInterval::new(1, 7)), "begin before the hull");
        assert!(!profile.covers(fig1::S, TimeInterval::new(2, 9)), "end beyond the hull");
    }

    #[test]
    #[should_panic(expected = "cannot answer")]
    fn profile_clamp_rejects_uncovered_windows() {
        let g = figure1_graph();
        let profile = ArrivalProfile::compute(&g, fig1::S, TimeInterval::new(3, 5));
        profile.clamp(TimeInterval::new(2, 5));
    }

    #[test]
    fn out_of_range_profile_source_clamps_to_the_empty_frontier() {
        let g = figure1_graph();
        let profile = ArrivalProfile::compute(&g, 99, TimeInterval::new(2, 7));
        let clamped = profile.clamp(TimeInterval::new(3, 5));
        assert!(clamped.reachable().is_empty());
        assert_eq!(clamped.arrival(fig1::S), None);
    }

    #[test]
    fn profile_clamp_equals_fresh_frontiers_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xa881);
        for case in 0..25 {
            let n = rng.random_range(5..30);
            let m = rng.random_range(10..150);
            let tmax = rng.random_range(4..24);
            let edges: Vec<TemporalEdge> = (0..m)
                .map(|_| {
                    TemporalEdge::new(
                        rng.random_range(0..n) as VertexId,
                        rng.random_range(0..n) as VertexId,
                        rng.random_range(1..=tmax),
                    )
                })
                .filter(|e| e.src != e.dst)
                .collect();
            let g = TemporalGraph::from_edges(n, edges);
            let s = rng.random_range(0..n) as VertexId;
            let hull = TimeInterval::new(1, tmax);
            let profile = ArrivalProfile::compute(&g, s, hull);
            for begin in 1..=tmax {
                for end in begin..=tmax {
                    let member = TimeInterval::new(begin, end);
                    let fresh = SourceFrontier::compute(&g, s, member);
                    assert_eq!(profile.clamp(member), fresh, "case {case}, window {member}");
                }
            }
        }
    }

    #[test]
    fn agrees_with_dijkstra_baseline_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for case in 0..30 {
            let n = rng.random_range(5..40);
            let m = rng.random_range(10..200);
            let tmax = rng.random_range(4..30);
            let edges: Vec<TemporalEdge> = (0..m)
                .map(|_| {
                    TemporalEdge::new(
                        rng.random_range(0..n) as VertexId,
                        rng.random_range(0..n) as VertexId,
                        rng.random_range(1..=tmax),
                    )
                })
                .filter(|e| e.src != e.dst)
                .collect();
            let g = TemporalGraph::from_edges(n, edges);
            let s = rng.random_range(0..n) as VertexId;
            let t = rng.random_range(0..n) as VertexId;
            let b = rng.random_range(1..=tmax);
            let w = TimeInterval::new(b, (b + rng.random_range(0..10)).min(tmax));
            let ours = compute_polarity(&g, s, t, w);
            let (a_ref, d_ref) = tspg_baselines::tg_polarity(&g, s, t, w);
            assert_eq!(ours.arrival, a_ref, "arrival mismatch in case {case}");
            assert_eq!(ours.departure, d_ref, "departure mismatch in case {case}");
        }
    }
}
