//! Time-stream common vertices (Definition 5, Algorithm 4).
//!
//! For every vertex `u` of the quick upper-bound graph `G_q` and every
//! relevant timestamp `τ`, the *forward* set `TCV_τ(s, u)` contains the
//! vertices (other than `s`) shared by **all** temporal simple paths from
//! `s` to `u` within `[τ_b, τ]` that avoid `t`; the *backward* set
//! `TCV_τ(u, t)` is symmetric. If the forward set of `u` and the backward
//! set of `v` intersect, no temporal simple path from `s` to `t` can cross
//! the edge `(u, v)` — the pruning rule of `TightUBG`.
//!
//! Storing the sets for every timestamp of the window would need `O(θ·n)`
//! entries, so following Lemma 5 only the timestamps in `T_in(u, G_q)`
//! (forward) and `T_out(u, G_q)` (backward) are materialised; the value at
//! any other timestamp equals the value at the nearest stored timestamp
//! below (forward) / above (backward). The computation is a single forward
//! scan and a single backward scan of `G_q`'s time-sorted edge array, using
//! the recursion of Equations (3)–(4) and the `{u}`-completion pruning rule
//! of Lemma 7, in `O(n + θ·m)` time.

use tspg_graph::{TemporalGraph, Timestamp, VertexId};

/// A looked-up time-stream common vertex set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcvValue<'a> {
    /// The set is empty (only the case for the source/target vertex itself).
    Empty,
    /// The set is exactly `{v}`: either it was computed as such, or the
    /// vertex was "completed" earlier (Lemma 7), or no stored entry applies
    /// and the safe default `{v}` of Algorithm 5 (lines 14/16) is used.
    SelfOnly(VertexId),
    /// An explicitly stored set (sorted, never empty).
    Set(&'a [VertexId]),
}

impl TcvValue<'_> {
    /// Returns the set as an owned, sorted vector (for debugging and tests).
    pub fn to_vec(&self) -> Vec<VertexId> {
        match self {
            TcvValue::Empty => Vec::new(),
            TcvValue::SelfOnly(v) => vec![*v],
            TcvValue::Set(s) => s.to_vec(),
        }
    }

    /// Appends the set's members to `out` (which must be empty or already
    /// sorted below the members), keeping `out` sorted. The allocation-free
    /// counterpart of [`TcvValue::to_vec`] used by the table scans.
    pub fn extend_into(&self, out: &mut Vec<VertexId>) {
        match self {
            TcvValue::Empty => {}
            TcvValue::SelfOnly(v) => out.push(*v),
            TcvValue::Set(s) => out.extend_from_slice(s),
        }
    }

    /// `true` if `vertex` belongs to the set.
    pub fn contains(&self, vertex: VertexId) -> bool {
        match self {
            TcvValue::Empty => false,
            TcvValue::SelfOnly(v) => *v == vertex,
            TcvValue::Set(s) => s.binary_search(&vertex).is_ok(),
        }
    }

    /// `true` if the two sets share no vertex (the keep-condition of
    /// Lemma 3 / Lemma 9).
    pub fn is_disjoint(&self, other: &TcvValue<'_>) -> bool {
        match (self, other) {
            (TcvValue::Empty, _) | (_, TcvValue::Empty) => true,
            (TcvValue::SelfOnly(a), _) => !other.contains(*a),
            (_, TcvValue::SelfOnly(b)) => !self.contains(*b),
            (TcvValue::Set(a), TcvValue::Set(b)) => sorted_disjoint(a, b),
        }
    }
}

fn sorted_disjoint(a: &[VertexId], b: &[VertexId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// Per-vertex entry list: one optional set per stored timestamp.
#[derive(Clone, Debug, Default)]
struct EntryList {
    /// Stored timestamps, ascending (`T_in(u, G_q)` forward, `T_out(u, G_q)`
    /// backward).
    times: Vec<Timestamp>,
    /// The set for each stored timestamp; `None` means "not materialised",
    /// which by construction only happens after the vertex was completed
    /// (Lemma 7) and therefore denotes `{u}`.
    sets: Vec<Option<Vec<VertexId>>>,
}

impl EntryList {
    fn approx_bytes(&self) -> usize {
        self.times.len() * std::mem::size_of::<Timestamp>()
            + self
                .sets
                .iter()
                .map(|s| {
                    std::mem::size_of::<Option<Vec<VertexId>>>()
                        + s.as_ref().map_or(0, |v| v.len() * std::mem::size_of::<VertexId>())
                })
                .sum::<usize>()
    }
}

/// The forward and backward time-stream common vertex tables of one query.
///
/// The tables own a recycling pool of vertex-set buffers so that
/// [`TcvTables::recompute`] on a warm instance performs no steady-state
/// allocation: every set stored for the new query reuses a buffer retired
/// from the previous one. The per-vertex lists only ever grow in number,
/// and a recompute clears just the ones the previous graph used, so a warm
/// instance costs each graph its own size and never the largest it has
/// seen.
#[derive(Clone, Debug, Default)]
pub struct TcvTables {
    source: VertexId,
    target: VertexId,
    /// Lists in use: the vertex count of the last recomputed graph. Lists
    /// past it are empty.
    active: usize,
    forward: Vec<EntryList>,
    backward: Vec<EntryList>,
    /// Retired vertex-set buffers, ready for reuse.
    pool: Vec<Vec<VertexId>>,
    /// Lemma 7 completion flags, reused across scans and queries.
    completed: Vec<bool>,
}

impl TcvTables {
    /// Computes the tables over the quick upper-bound graph `gq`
    /// (Algorithm 4).
    pub fn compute(gq: &TemporalGraph, source: VertexId, target: VertexId) -> Self {
        let mut tables = Self::default();
        tables.recompute(gq, source, target);
        tables
    }

    /// Recomputes the tables for a new query, reusing this instance's
    /// storage (the in-place face of [`TcvTables::compute`]).
    pub fn recompute(&mut self, gq: &TemporalGraph, source: VertexId, target: VertexId) {
        self.source = source;
        self.target = target;
        let n = gq.num_vertices();
        recycle_entry_lists(&mut self.forward[..self.active], &mut self.pool);
        recycle_entry_lists(&mut self.backward[..self.active], &mut self.pool);
        if self.forward.len() < n {
            self.forward.resize_with(n, EntryList::default);
            self.backward.resize_with(n, EntryList::default);
        }
        self.active = n;
        for u in 0..n as VertexId {
            let list = &mut self.forward[u as usize];
            list.times.extend(gq.in_neighbors(u).iter().map(|a| a.time));
            list.times.dedup(); // adjacency is time-sorted
            list.sets.resize(list.times.len(), None);
            let list = &mut self.backward[u as usize];
            list.times.extend(gq.out_neighbors(u).iter().map(|a| a.time));
            list.times.dedup();
            list.sets.resize(list.times.len(), None);
        }
        self.compute_forward(gq);
        self.compute_backward(gq);
    }

    /// `TCV_τ(s, u)` for the largest stored timestamp `≤ upper` (Lemma 5).
    pub fn forward(&self, u: VertexId, upper: Timestamp) -> TcvValue<'_> {
        if u == self.source {
            return TcvValue::Empty;
        }
        lookup(&self.forward[u as usize], u, |times| {
            times.partition_point(|&t| t <= upper).checked_sub(1)
        })
    }

    /// `TCV_τ(u, t)` for the smallest stored timestamp `≥ lower` (Lemma 5).
    pub fn backward(&self, u: VertexId, lower: Timestamp) -> TcvValue<'_> {
        if u == self.target {
            return TcvValue::Empty;
        }
        lookup(&self.backward[u as usize], u, |times| {
            let idx = times.partition_point(|&t| t < lower);
            (idx < times.len()).then_some(idx)
        })
    }

    /// The forward set strictly before `tau`: [`TcvTables::forward`] at
    /// `tau − 1`, without the subtraction (which overflows at `i64::MIN`).
    pub(crate) fn forward_before(&self, u: VertexId, tau: Timestamp) -> TcvValue<'_> {
        if u == self.source {
            return TcvValue::Empty;
        }
        lookup(&self.forward[u as usize], u, |times| {
            times.partition_point(|&t| t < tau).checked_sub(1)
        })
    }

    /// The backward set strictly after `tau`: [`TcvTables::backward`] at
    /// `tau + 1`, without the addition (which overflows at `i64::MAX`).
    pub(crate) fn backward_after(&self, u: VertexId, tau: Timestamp) -> TcvValue<'_> {
        if u == self.target {
            return TcvValue::Empty;
        }
        lookup(&self.backward[u as usize], u, |times| {
            let idx = times.partition_point(|&t| t <= tau);
            (idx < times.len()).then_some(idx)
        })
    }

    /// Rough heap usage of both tables (part of VUG's space accounting).
    pub fn approx_bytes(&self) -> usize {
        self.forward[..self.active].iter().map(EntryList::approx_bytes).sum::<usize>()
            + self.backward[..self.active].iter().map(EntryList::approx_bytes).sum::<usize>()
    }

    /// Forward scan implementing Equation (3) with Lemma 7 pruning.
    fn compute_forward(&mut self, gq: &TemporalGraph) {
        let n = gq.num_vertices();
        let mut completed = std::mem::take(&mut self.completed);
        completed.clear();
        completed.resize(n, false);
        let mut contribution = self.pool.pop().unwrap_or_default();
        // Edge ids of `gq` are already in non-descending temporal order.
        for edge in gq.edges() {
            let (v, u, tau) = (edge.src, edge.dst, edge.time);
            if u == self.target || u == self.source || completed[u as usize] {
                continue;
            }
            // Contribution of this in-edge: TCV_{τ-1}(s, v) ∪ {u}.
            contribution.clear();
            self.forward_before(v, tau).extend_into(&mut contribution);
            insert_sorted(&mut contribution, u);
            self.accumulate(Direction::Forward, u, tau, &contribution, &mut completed);
        }
        contribution.clear();
        self.pool.push(contribution);
        self.completed = completed;
    }

    /// Backward scan implementing Equation (4) with Lemma 7 pruning.
    fn compute_backward(&mut self, gq: &TemporalGraph) {
        let n = gq.num_vertices();
        let mut completed = std::mem::take(&mut self.completed);
        completed.clear();
        completed.resize(n, false);
        let mut contribution = self.pool.pop().unwrap_or_default();
        for edge in gq.edges().iter().rev() {
            let (u, v, tau) = (edge.src, edge.dst, edge.time);
            if u == self.source || u == self.target || completed[u as usize] {
                continue;
            }
            // Contribution of this out-edge: TCV_{τ+1}(v, t) ∪ {u}.
            contribution.clear();
            self.backward_after(v, tau).extend_into(&mut contribution);
            insert_sorted(&mut contribution, u);
            self.accumulate(Direction::Backward, u, tau, &contribution, &mut completed);
        }
        contribution.clear();
        self.pool.push(contribution);
        self.completed = completed;
    }

    /// Folds one edge's contribution into vertex `u`'s entry at timestamp
    /// `tau`, inheriting from the previous entry (forward: the nearest
    /// earlier timestamp; backward: the nearest later timestamp) because
    /// `TCV_τ` shrinks monotonically along the scan direction.
    ///
    /// The inherited set is borrowed in place (the stored sets are never
    /// cloned) and the stored result comes out of the recycling pool.
    fn accumulate(
        &mut self,
        direction: Direction,
        u: VertexId,
        tau: Timestamp,
        contribution: &[VertexId],
        completed: &mut [bool],
    ) {
        let list = match direction {
            Direction::Forward => &mut self.forward[u as usize],
            Direction::Backward => &mut self.backward[u as usize],
        };
        let idx = list
            .times
            .binary_search(&tau)
            .expect("every scanned edge timestamp is a stored timestamp of its endpoint");
        // Previous (already finalised) entry to inherit from.
        let prev_idx = match direction {
            Direction::Forward => idx.checked_sub(1),
            Direction::Backward => (idx + 1 < list.times.len()).then_some(idx + 1),
        };
        let mut value = self.pool.pop().unwrap_or_default();
        value.clear();
        let inherited: Option<&[VertexId]> = match &list.sets[idx] {
            Some(current) => Some(current.as_slice()),
            None => prev_idx.and_then(|p| list.sets[p].as_deref()),
        };
        match inherited {
            Some(base) => intersect_sorted_into(base, contribution, &mut value),
            None => value.extend_from_slice(contribution),
        }
        let is_self_only = value.len() == 1 && value[0] == u;
        if let Some(mut retired) = list.sets[idx].replace(value) {
            retired.clear();
            self.pool.push(retired);
        }
        if is_self_only {
            completed[u as usize] = true; // Lemma 7
        }
    }
}

/// Clears every list and returns its set buffers to the pool.
fn recycle_entry_lists(lists: &mut [EntryList], pool: &mut Vec<Vec<VertexId>>) {
    for list in lists {
        for mut buffer in list.sets.drain(..).flatten() {
            buffer.clear();
            pool.push(buffer);
        }
        list.times.clear();
    }
}

enum Direction {
    Forward,
    Backward,
}

fn lookup<'a>(
    list: &'a EntryList,
    vertex: VertexId,
    pick: impl Fn(&[Timestamp]) -> Option<usize>,
) -> TcvValue<'a> {
    match pick(&list.times) {
        Some(idx) => match &list.sets[idx] {
            Some(set) if set.len() == 1 && set[0] == vertex => TcvValue::SelfOnly(vertex),
            Some(set) => TcvValue::Set(set),
            // Entry never materialised: the vertex was completed earlier in
            // the scan (Lemma 7), so the value is {vertex}.
            None => TcvValue::SelfOnly(vertex),
        },
        // No applicable stored timestamp: fall back to the safe default {v}
        // (Algorithm 5, lines 14/16).
        None => TcvValue::SelfOnly(vertex),
    }
}

fn insert_sorted(set: &mut Vec<VertexId>, v: VertexId) {
    if let Err(pos) = set.binary_search(&v) {
        set.insert(pos, v);
    }
}

fn intersect_sorted_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quick_ubg::quick_upper_bound_graph;
    use std::collections::BTreeSet;
    use tspg_graph::fixtures::{fig1, figure1_graph, figure1_query};
    use tspg_graph::{TemporalGraph, TimeInterval};

    fn figure1_tables() -> (TemporalGraph, TcvTables) {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let gq = quick_upper_bound_graph(&g, s, t, w);
        let tables = TcvTables::compute(&gq, s, t);
        (gq, tables)
    }

    #[test]
    fn forward_table_matches_figure_4a() {
        let (_, tcv) = figure1_tables();
        // b: TCV_2(s,b) = {b}; the τ=5 entry is pruned (completed) and thus {b}.
        assert_eq!(tcv.forward(fig1::B, 2).to_vec(), vec![fig1::B]);
        assert_eq!(tcv.forward(fig1::B, 5).to_vec(), vec![fig1::B]);
        // c: TCV_3(s,c) = {b,c}, TCV_6(s,c) = {b,c}.
        assert_eq!(tcv.forward(fig1::C, 3).to_vec(), vec![fig1::B, fig1::C]);
        assert_eq!(tcv.forward(fig1::C, 6).to_vec(), vec![fig1::B, fig1::C]);
        // f: TCV_4(s,f) = {b,c,f}.
        assert_eq!(tcv.forward(fig1::F, 4).to_vec(), vec![fig1::B, fig1::C, fig1::F]);
        // e: TCV_5(s,e) = {b,c,f,e}.
        assert_eq!(tcv.forward(fig1::E, 5).to_vec(), vec![fig1::B, fig1::C, fig1::E, fig1::F]);
        // Lemma 5: a lookup between stored timestamps returns the earlier entry.
        assert_eq!(tcv.forward(fig1::C, 5).to_vec(), vec![fig1::B, fig1::C]);
        // The source itself always has an empty set.
        assert_eq!(tcv.forward(fig1::S, 7), TcvValue::Empty);
    }

    #[test]
    fn backward_table_matches_figure_4b() {
        let (_, tcv) = figure1_tables();
        // b: TCV_6(b,t) = {b}; the τ=3 entry is pruned and thus {b}.
        assert_eq!(tcv.backward(fig1::B, 6).to_vec(), vec![fig1::B]);
        assert_eq!(tcv.backward(fig1::B, 3).to_vec(), vec![fig1::B]);
        // c: TCV_7(c,t) = {c}; τ=4 pruned.
        assert_eq!(tcv.backward(fig1::C, 7).to_vec(), vec![fig1::C]);
        assert_eq!(tcv.backward(fig1::C, 4).to_vec(), vec![fig1::C]);
        // f: TCV_5(f,t) = {f} after intersecting {c,e,f} with {b,f} (Example 7).
        assert_eq!(tcv.backward(fig1::F, 5).to_vec(), vec![fig1::F]);
        // e: TCV_6(e,t) = {c,e}.
        assert_eq!(tcv.backward(fig1::E, 6).to_vec(), vec![fig1::C, fig1::E]);
        // The target itself always has an empty set.
        assert_eq!(tcv.backward(fig1::T, 2), TcvValue::Empty);
    }

    #[test]
    fn tcv_value_operations() {
        let set = vec![2u32, 5, 9];
        let v = TcvValue::Set(&set);
        assert!(v.contains(5));
        assert!(!v.contains(4));
        assert_eq!(v.to_vec(), set);
        assert!(TcvValue::Empty.is_disjoint(&v));
        assert!(v.is_disjoint(&TcvValue::Empty));
        assert!(TcvValue::SelfOnly(3).is_disjoint(&v));
        assert!(!TcvValue::SelfOnly(5).is_disjoint(&v));
        assert!(!v.is_disjoint(&TcvValue::SelfOnly(9)));
        let other = vec![1u32, 9];
        assert!(!v.is_disjoint(&TcvValue::Set(&other)));
        let other = vec![1u32, 4];
        assert!(v.is_disjoint(&TcvValue::Set(&other)));
        assert!(TcvValue::SelfOnly(1).is_disjoint(&TcvValue::SelfOnly(2)));
        assert!(!TcvValue::SelfOnly(1).is_disjoint(&TcvValue::SelfOnly(1)));
    }

    #[test]
    fn helpers_behave() {
        assert!(sorted_disjoint(&[1, 3], &[2, 4]));
        assert!(!sorted_disjoint(&[1, 3], &[3]));
        let mut out = Vec::new();
        intersect_sorted_into(&[1, 2, 5], &[2, 5, 7], &mut out);
        assert_eq!(out, vec![2, 5]);
        let mut v = vec![1, 4];
        insert_sorted(&mut v, 3);
        insert_sorted(&mut v, 3);
        assert_eq!(v, vec![1, 3, 4]);
        let mut ext = Vec::new();
        TcvValue::Empty.extend_into(&mut ext);
        assert!(ext.is_empty());
        TcvValue::SelfOnly(4).extend_into(&mut ext);
        assert_eq!(ext, vec![4]);
    }

    #[test]
    fn recompute_reuses_storage_and_matches_fresh_tables() {
        // Warm one instance over a sequence of different queries/graphs and
        // compare every lookup against a freshly computed table.
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let mut warm = TcvTables::default();
        for (qs, qt, qw) in [(s, t, w), (t, s, w), (s, t, TimeInterval::new(3, 5)), (s, t, w)] {
            let gq = quick_upper_bound_graph(&g, qs, qt, qw);
            warm.recompute(&gq, qs, qt);
            let fresh = TcvTables::compute(&gq, qs, qt);
            for u in 0..gq.num_vertices() as u32 {
                for tau in 0..10 {
                    assert_eq!(
                        warm.forward(u, tau).to_vec(),
                        fresh.forward(u, tau).to_vec(),
                        "forward u={u} tau={tau} query=({qs},{qt},{qw})"
                    );
                    assert_eq!(
                        warm.backward(u, tau).to_vec(),
                        fresh.backward(u, tau).to_vec(),
                        "backward u={u} tau={tau} query=({qs},{qt},{qw})"
                    );
                }
            }
        }
    }

    #[test]
    fn approx_bytes_is_positive_for_nonempty_tables() {
        let (_, tcv) = figure1_tables();
        assert!(tcv.approx_bytes() > 0);
    }

    /// Brute-force `TCV` via explicit simple-path enumeration (Definition 5),
    /// used to validate the recursive computation on random graphs.
    fn brute_force_forward(
        graph: &TemporalGraph,
        s: VertexId,
        t: VertexId,
        window: TimeInterval,
        u: VertexId,
        tau: Timestamp,
    ) -> Option<Vec<VertexId>> {
        let sub_window = window.with_end(tau)?;
        let out =
            tspg_enum::enumerate_paths(graph, s, u, sub_window, &tspg_enum::Budget::unlimited());
        let mut acc: Option<BTreeSet<VertexId>> = None;
        for p in &out.paths {
            let vs: BTreeSet<VertexId> = p.vertices().into_iter().collect();
            if vs.contains(&t) {
                continue;
            }
            let mut vs = vs;
            vs.remove(&s);
            acc = Some(match acc {
                None => vs,
                Some(cur) => cur.intersection(&vs).copied().collect(),
            });
        }
        acc.map(|set| set.into_iter().collect())
    }

    fn brute_force_backward(
        graph: &TemporalGraph,
        s: VertexId,
        t: VertexId,
        window: TimeInterval,
        u: VertexId,
        tau: Timestamp,
    ) -> Option<Vec<VertexId>> {
        let sub_window = window.with_begin(tau)?;
        let out =
            tspg_enum::enumerate_paths(graph, u, t, sub_window, &tspg_enum::Budget::unlimited());
        let mut acc: Option<BTreeSet<VertexId>> = None;
        for p in &out.paths {
            let vs: BTreeSet<VertexId> = p.vertices().into_iter().collect();
            if vs.contains(&s) {
                continue;
            }
            let mut vs = vs;
            vs.remove(&t);
            acc = Some(match acc {
                None => vs,
                Some(cur) => cur.intersection(&vs).copied().collect(),
            });
        }
        acc.map(|set| set.into_iter().collect())
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2024);
        for case in 0..40 {
            let n: u32 = rng.random_range(4..12);
            let m = rng.random_range(8..60);
            let edges: Vec<tspg_graph::TemporalEdge> = (0..m)
                .map(|_| {
                    tspg_graph::TemporalEdge::new(
                        rng.random_range(0..n),
                        rng.random_range(0..n),
                        rng.random_range(1..10),
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
            let w = TimeInterval::new(1, rng.random_range(3..10));
            let gq = quick_upper_bound_graph(&g, s, t, w);
            if gq.is_empty() {
                continue;
            }
            let tcv = TcvTables::compute(&gq, s, t);
            for u in gq.non_isolated_vertices() {
                if u == s || u == t {
                    continue;
                }
                for tau in gq.in_times(u) {
                    if let Some(expected) = brute_force_forward(&g, s, t, w, u, tau) {
                        assert_eq!(
                            tcv.forward(u, tau).to_vec(),
                            expected,
                            "forward TCV mismatch: case {case}, u={u}, tau={tau}"
                        );
                    }
                }
                for tau in gq.out_times(u) {
                    if let Some(expected) = brute_force_backward(&g, s, t, w, u, tau) {
                        assert_eq!(
                            tcv.backward(u, tau).to_vec(),
                            expected,
                            "backward TCV mismatch: case {case}, u={u}, tau={tau}"
                        );
                    }
                }
            }
        }
    }
}
