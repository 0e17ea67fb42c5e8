//! Batch planning: collapse duplicate queries, attach window-contained
//! queries to the unit whose result already covers them, and synthesize
//! **envelope units** for overlapping (non-nested) windows.
//!
//! The planner turns the flat query list of a batch into a [`BatchPlan`] of
//! executable [`PlanUnit`]s. Three reductions are applied, all purely
//! syntactic on the canonical query forms (no graph access):
//!
//! 1. **Dedup** — queries with identical canonical form share one unit; the
//!    unit's result is copied into every duplicate's result slot.
//! 2. **Window sharing** — a query whose window is *contained* in another
//!    query's window on the same `(s, t)` pair is attached to the covering
//!    unit as a [`Follower`]. Every temporal simple path of the narrower
//!    query lies within the covering window, hence inside the covering
//!    unit's tspG (Definition 2); the follower is therefore answered exactly
//!    by re-running the pipeline *on that tspG* — usually orders of
//!    magnitude smaller than the input graph — instead of on the full graph.
//! 3. **Envelope units** — same-`(s, t)` queries whose windows merely
//!    *overlap* (their union is one interval, no member containing the
//!    rest) are collapsed into one *synthesized* unit whose window is the
//!    envelope `[min begin, max end]`. The envelope query was never asked
//!    by the batch — its `direct` list is empty — but every member window
//!    is contained in the envelope, so each member becomes a follower and
//!    is answered exactly from the envelope's tspG by the same Definition-2
//!    argument as reduction 2. One full-graph pipeline execution (over a
//!    slightly wider window) replaces one per member.
//!
//!    A **cost guard** keeps envelopes from regressing latency: merging is
//!    abandoned whenever the envelope's span would exceed twice the widest
//!    member's span, so a pathological chain of barely-overlapping windows
//!    is split into several bounded envelopes instead of one graph-wide
//!    window.
//!
//! The planner never changes answers, only who computes them: the executor
//! runs one full-graph pipeline per unit and one tspG-sized pipeline per
//! follower, and the assembly step fans results back out to the original
//! query order.

use crate::engine::QuerySpec;
use std::collections::HashMap;
use tspg_graph::{TimeInterval, VertexId};

/// Envelope cost guard `k`: an envelope's span may not exceed `k ×` the
/// span of the widest window merged into it. The same factor guards
/// same-source profile hulls: a unit joins a profile group only while the
/// hull's span stays within `k ×` every member's own span.
const ENVELOPE_SPAN_FACTOR: f64 = 2.0;

/// Dense-graph heuristic for envelopes: when the engine's observed average
/// `tspG vertices / graph vertices` ratio exceeds this cutoff, envelope
/// synthesis is disabled for the batch — on dense graphs a follower rerun
/// over the envelope's tspG costs nearly as much as a full-graph run, so
/// the synthesized envelope run is pure overhead. Containment sharing and
/// dedup are unaffected (they never add runs).
const ENVELOPE_DENSITY_CUTOFF: f64 = 0.8;

/// Dense-graph heuristic for profile sharing: when the engine's observed
/// average `clamp superset H vertices / graph vertices` ratio exceeds this
/// cutoff, profile grouping is disabled for the batch — on dense graphs
/// the clamped candidate subgraph `H` is nearly the whole graph, so the
/// profile pass plus the member reruns cost more than the plain per-unit
/// pipeline.
const PROFILE_DENSITY_CUTOFF: f64 = 0.8;

/// Planner policy: which sharing layers beyond dedup and containment are
/// on. Both are on by default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Synthesize envelope units for overlapping windows. When `false` the
    /// planner shares work on exact containment only.
    pub envelopes: bool,
    /// Group same-source units (begins hulled under the span-factor guard)
    /// so the executor computes one target-agnostic arrival profile
    /// ([`crate::polarity::ArrivalProfile`]) per group instead of one
    /// forward pass per unit.
    pub profile_sharing: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self { envelopes: true, profile_sharing: true }
    }
}

impl PlannerConfig {
    /// Containment-only sharing — no synthesized envelope units.
    pub fn containment_only() -> Self {
        Self { envelopes: false, ..Self::default() }
    }

    /// Disables same-source profile sharing (every unit runs its own
    /// forward polarity pass).
    pub fn without_profile_sharing(mut self) -> Self {
        self.profile_sharing = false;
        self
    }
}

/// One executable unit of a [`BatchPlan`]: a canonical query, the original
/// batch positions it answers directly, and the narrower queries answered
/// from its result.
#[derive(Clone, Debug)]
pub struct PlanUnit {
    /// The canonical query the executor runs against the full graph. For a
    /// synthesized envelope unit this query was never asked by the batch.
    pub query: QuerySpec,
    /// Positions in the original batch answered by this unit's result
    /// verbatim (the unit's own query plus exact duplicates). Empty iff the
    /// unit is a synthesized envelope.
    pub direct: Vec<usize>,
    /// Distinct narrower queries answered by re-running the pipeline on
    /// this unit's tspG.
    pub followers: Vec<Follower>,
}

impl PlanUnit {
    /// Returns `true` if this unit's query was synthesized by envelope
    /// planning rather than asked by the batch.
    pub fn is_envelope(&self) -> bool {
        self.direct.is_empty()
    }

    /// The smallest original batch position this unit answers (through its
    /// direct slots or its followers) — the deterministic ordering key.
    fn first_index(&self) -> usize {
        self.direct
            .first()
            .copied()
            .into_iter()
            .chain(self.followers.iter().map(|f| f.indexes[0]))
            .min()
            .expect("a unit answers at least one query")
    }
}

/// A distinct query whose window is contained in its unit's window.
#[derive(Clone, Debug)]
pub struct Follower {
    /// The narrower canonical query.
    pub query: QuerySpec,
    /// Positions in the original batch answered by this follower's result
    /// (the follower plus its exact duplicates).
    pub indexes: Vec<usize>,
}

/// A set of plan units sharing one source: the executor computes one
/// target-agnostic arrival profile
/// ([`crate::polarity::ArrivalProfile`]) over the group's hull window and
/// every member unit clamps it at its own `(begin, end)` instead of
/// running a forward pass.
///
/// Exactness: the profile stores earliest arrival as a step function of
/// the start bound, so the clamp reproduces a fresh forward pass for
/// *every* member window inside the hull — begins no longer need to match
/// (the PR 5 restriction). The shared pass does not avoid any member's
/// target, so each member runs the exact pipeline on the candidate
/// subgraph the clamped frontier defines (`tspG ⊆ G_q ⊆ H ⊆ G` — the
/// Definition-2 rerun argument), producing the byte-identical tspG.
#[derive(Clone, Debug)]
pub struct ProfileGroup {
    /// The shared source vertex.
    pub source: VertexId,
    /// Hull window `[min member begin, max member end]` the profile's
    /// forward pass runs over.
    pub window: TimeInterval,
    /// Indices into [`BatchPlan::units`] of the member units (≥ 2).
    pub units: Vec<usize>,
}

/// The execution plan of one batch: units to run, and counters describing
/// how much work planning saved.
#[derive(Clone, Debug, Default)]
pub struct BatchPlan {
    units: Vec<PlanUnit>,
    dedup_answered: usize,
    shared_answered: usize,
    envelope_answered: usize,
    envelope_units: usize,
    profile_groups: Vec<ProfileGroup>,
    /// `unit_group[i]` is the profile group unit `i` belongs to, if any.
    unit_group: Vec<Option<usize>>,
    profile_answered: usize,
}

impl BatchPlan {
    /// The executable units, ordered by their first appearance in the batch.
    pub fn units(&self) -> &[PlanUnit] {
        &self.units
    }

    /// Number of full-graph pipeline executions the plan requires
    /// (including synthesized envelope units).
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// Queries answered by copying another identical query's result
    /// (duplicates beyond the first occurrence, including duplicate
    /// followers).
    pub fn dedup_answered(&self) -> usize {
        self.dedup_answered
    }

    /// Queries answered from a *batch-asked* covering unit's tspG instead
    /// of the full graph (counting duplicates of followers once each).
    pub fn shared_answered(&self) -> usize {
        self.shared_answered
    }

    /// Queries answered from a synthesized envelope unit's tspG (counting
    /// duplicates once each).
    pub fn envelope_answered(&self) -> usize {
        self.envelope_answered
    }

    /// Number of synthesized envelope units in the plan (full-graph runs
    /// that answer no batch query directly).
    pub fn envelope_units(&self) -> usize {
        self.envelope_units
    }

    /// The same-source profile groups of the plan (each with ≥ 2 member
    /// units), in deterministic first-appearance order.
    pub fn profile_groups(&self) -> &[ProfileGroup] {
        &self.profile_groups
    }

    /// Index into [`BatchPlan::profile_groups`] of the unit's group, if
    /// any (the executor packs a group's members into one job by this).
    pub fn unit_profile_group_index(&self, index: usize) -> Option<usize> {
        self.unit_group.get(index).copied().flatten()
    }

    /// Batch queries answered by (or from the tspG of) a unit that shares
    /// an arrival profile — an overlay counter (such queries are also
    /// counted by the regular buckets).
    pub fn profile_answered(&self) -> usize {
        self.profile_answered
    }
}

/// One distinct query being grouped: its slot in the planner's `distinct`
/// list plus the batch positions it answers.
struct Member {
    query: QuerySpec,
    indexes: Vec<usize>,
}

/// Builds the execution plan for `pending`: pairs of (original batch
/// position, canonical query). Degenerate queries and cache hits must
/// already have been filtered out by the caller.
///
/// `observed_density` is the engine's running average `tspG vertices /
/// graph vertices` ratio (`None` before the first full-graph run); when it
/// exceeds 0.8 envelope synthesis is disabled for this batch — the
/// dense-graph heuristic — while containment sharing, dedup and profile
/// grouping stay on (they never add pipeline runs).
///
/// `observed_profile_density` is the analogous running average for shared
/// runs: `clamp superset H vertices / graph vertices` (`None` before the
/// first shared run); above 0.8 profile grouping is disabled for this
/// batch — on dense graphs the clamped candidate subgraph is nearly the
/// whole graph, making the shared pass pure overhead.
pub fn plan(
    pending: &[(usize, QuerySpec)],
    config: &PlannerConfig,
    observed_density: Option<f64>,
    observed_profile_density: Option<f64>,
) -> BatchPlan {
    // 1. Dedup: canonical query -> every batch position asking it. The
    //    distinct list preserves first-appearance order so that planning is
    //    deterministic regardless of hash iteration order.
    let mut by_query: HashMap<QuerySpec, usize> = HashMap::with_capacity(pending.len());
    let mut distinct: Vec<Member> = Vec::new();
    for &(index, query) in pending {
        match by_query.get(&query) {
            Some(&slot) => distinct[slot].indexes.push(index),
            None => {
                by_query.insert(query, distinct.len());
                distinct.push(Member { query, indexes: vec![index] });
            }
        }
    }
    let dedup_answered = pending.len() - distinct.len();

    // 2. Group distinct queries by endpoint pair.
    let mut groups: HashMap<(VertexId, VertexId), Vec<usize>> = HashMap::new();
    for (slot, member) in distinct.iter().enumerate() {
        groups.entry((member.query.source, member.query.target)).or_default().push(slot);
    }

    // 3. Per-group window sweep. Sorting windows by (begin asc, end desc)
    //    means every earlier entry starts no later than the current one,
    //    which makes both containment ("is the current window inside the
    //    max-end unit seen so far?") and contiguity ("does the current
    //    window extend the running envelope?") single-pass checks.
    //
    //    Containment-only mode is the factor-1 special case of the same
    //    sweep: with begins ascending, a factor-1 hull may never exceed
    //    the widest member's span, which forces hull == cluster head —
    //    pure containment attachment, never a synthesized window.
    let dense = observed_density.is_some_and(|ratio| ratio > ENVELOPE_DENSITY_CUTOFF);
    let factor = if config.envelopes && !dense { ENVELOPE_SPAN_FACTOR } else { 1.0 };
    let mut plan = BatchPlan { dedup_answered, ..Default::default() };
    for slots in groups.values() {
        let mut ordered: Vec<usize> = slots.clone();
        ordered.sort_by_key(|&slot| {
            let w = distinct[slot].query.window;
            (w.begin(), std::cmp::Reverse(w.end()))
        });
        sweep(&distinct, &ordered, factor, &mut plan);
    }

    // 4. Deterministic unit order: first batch appearance.
    plan.units.sort_by_key(PlanUnit::first_index);

    // 5. Profile grouping: units sharing a source — the arrival-profile
    //    pass over the hull `[min begin, max end]` clamps exactly at every
    //    member window. The span factor guards the hull like it guards
    //    envelopes: a unit joins only while the hull's span stays within
    //    `factor ×` *every* member's own span, so a narrow window never
    //    pays for a profile computed over a vastly wider one. (The profile
    //    guard always uses the envelope factor — hull width is a
    //    per-member scan-cost concern — but the *profile* density signal
    //    gates grouping entirely on dense graphs, where the clamped
    //    candidate subgraph approaches the whole graph.)
    let profile_dense =
        observed_profile_density.is_some_and(|ratio| ratio > PROFILE_DENSITY_CUTOFF);
    if config.profile_sharing && !profile_dense {
        group_profiles(ENVELOPE_SPAN_FACTOR, &mut plan);
    }
    plan
}

/// Step 5 of [`plan`]: partition the (sorted) units into same-source
/// profile groups. Units bucket by source in first-appearance order;
/// within a bucket, units ordered by descending window end greedily join
/// the running hull while `hull span ≤ factor × min member span`
/// (checking against the narrowest member keeps the guard invariant for
/// units that joined before the hull widened towards earlier begins),
/// else a new hull starts. Clusters of one unit share nothing and are
/// left ungrouped.
fn group_profiles(factor: f64, plan: &mut BatchPlan) {
    let mut by_source: HashMap<VertexId, usize> = HashMap::new();
    let mut buckets: Vec<Vec<usize>> = Vec::new();
    for (index, unit) in plan.units.iter().enumerate() {
        let slot = *by_source.entry(unit.query.source).or_insert_with(|| {
            buckets.push(Vec::new());
            buckets.len() - 1
        });
        buckets[slot].push(index);
    }
    plan.unit_group = vec![None; plan.units.len()];
    for mut bucket in buckets {
        if bucket.len() < 2 {
            continue;
        }
        // Descending end; ties keep unit order for determinism.
        bucket
            .sort_by_key(|&index| (std::cmp::Reverse(plan.units[index].query.window.end()), index));
        let mut cluster: Vec<usize> = Vec::new();
        let mut hull = plan.units[bucket[0]].query.window;
        let mut min_span = i64::MAX;
        for &index in &bucket {
            let window = plan.units[index].query.window;
            let grown = hull.hull(&window);
            let narrowest = min_span.min(window.span());
            if grown.span() as f64 <= factor * narrowest as f64 {
                cluster.push(index);
                hull = grown;
                min_span = narrowest;
            } else {
                flush_profile_cluster(&mut cluster, hull, plan);
                hull = window;
                min_span = window.span();
                cluster.push(index);
            }
        }
        flush_profile_cluster(&mut cluster, hull, plan);
    }
}

/// Publishes one profile cluster as a [`ProfileGroup`] if it has at
/// least two members, and clears it either way.
fn flush_profile_cluster(cluster: &mut Vec<usize>, hull: TimeInterval, plan: &mut BatchPlan) {
    if cluster.len() >= 2 {
        let group = plan.profile_groups.len();
        let source = plan.units[cluster[0]].query.source;
        for &index in cluster.iter() {
            plan.unit_group[index] = Some(group);
            let unit = &plan.units[index];
            plan.profile_answered +=
                unit.direct.len() + unit.followers.iter().map(|f| f.indexes.len()).sum::<usize>();
        }
        debug_assert!(cluster.iter().all(|&i| hull.contains_interval(&plan.units[i].query.window)));
        plan.profile_groups.push(ProfileGroup {
            source,
            window: hull,
            units: std::mem::take(cluster),
        });
    } else {
        cluster.clear();
    }
}

/// The per-group sweep: greedily grow a cluster of windows whose union is
/// a single interval, flushing whenever the next window would break
/// contiguity or blow the cost guard.
///
/// Containment is subsumed: a window inside the running envelope never
/// grows it, so it always joins the cluster, and a cluster whose envelope
/// equals its first member's window flushes as a plain covering unit (the
/// PR 3 shape) rather than a synthesized one. At `factor == 1.0` that is
/// the *only* possible shape — growing the hull past the first member is
/// never allowed — so the factor-1 sweep reproduces PR 3's
/// containment-only planning exactly (the tests pin this equivalence).
fn sweep(distinct: &[Member], ordered: &[usize], factor: f64, plan: &mut BatchPlan) {
    // The open cluster: member slots, envelope so far, widest member span.
    let mut cluster: Vec<usize> = Vec::new();
    let mut envelope: Option<TimeInterval> = None;
    let mut widest_span: i64 = 0;
    for &slot in ordered {
        let window = distinct[slot].query.window;
        let merged = match envelope {
            Some(env) if env.union_is_interval(&window) => {
                let hull = env.hull(&window);
                let widest = widest_span.max(window.span());
                if hull == env {
                    // Contained in the running envelope: always joins.
                    Some((env, widest))
                } else {
                    // Growing the hull is an envelope merge proper: allowed
                    // only when the merged span stays within `factor ×` the
                    // widest window absorbed so far (including this one).
                    // The explicit `factor > 1` check keeps factor-1 mode
                    // containment-only even when saturated spans (both
                    // `i64::MAX`) would make the arithmetic guard pass.
                    (factor > 1.0 && hull.span() as f64 <= factor * widest as f64)
                        .then_some((hull, widest))
                }
            }
            _ => None,
        };
        match merged {
            Some((hull, widest)) => {
                envelope = Some(hull);
                widest_span = widest;
                cluster.push(slot);
            }
            None => {
                if let Some(env) = envelope {
                    flush_cluster(distinct, &cluster, env, plan);
                }
                cluster.clear();
                cluster.push(slot);
                envelope = Some(window);
                widest_span = window.span();
            }
        }
    }
    if let Some(env) = envelope {
        flush_cluster(distinct, &cluster, env, plan);
    }
}

/// Turns one flushed cluster into a plan unit.
///
/// * One member → a plain unit (nothing to share).
/// * Envelope equals the first member's window (only the first member can:
///   the sort order gives it the minimum begin and, among equal begins, the
///   maximum end) → that member covers the rest; the PR 3 containment
///   shape, counted as `shared_answered`.
/// * Otherwise → a synthesized envelope unit: every member is a follower,
///   counted as `envelope_answered`.
fn flush_cluster(
    distinct: &[Member],
    cluster: &[usize],
    envelope: TimeInterval,
    plan: &mut BatchPlan,
) {
    let first = &distinct[cluster[0]];
    if cluster.len() == 1 {
        plan.units.push(PlanUnit {
            query: first.query,
            direct: first.indexes.clone(),
            followers: Vec::new(),
        });
        return;
    }
    let followers = |slots: &[usize]| -> Vec<Follower> {
        slots
            .iter()
            .map(|&slot| Follower {
                query: distinct[slot].query,
                indexes: distinct[slot].indexes.clone(),
            })
            .collect()
    };
    if first.query.window == envelope {
        plan.units.push(PlanUnit {
            query: first.query,
            direct: first.indexes.clone(),
            followers: followers(&cluster[1..]),
        });
        plan.shared_answered += cluster.len() - 1;
    } else {
        let query = QuerySpec::new(first.query.source, first.query.target, envelope);
        debug_assert!(cluster.iter().all(|&slot| query.covers(&distinct[slot].query)));
        plan.units.push(PlanUnit { query, direct: Vec::new(), followers: followers(cluster) });
        plan.envelope_answered += cluster.len();
        plan.envelope_units += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(s: u32, t: u32, b: i64, e: i64) -> QuerySpec {
        QuerySpec::new(s, t, TimeInterval::new(b, e))
    }

    fn indexed(queries: &[QuerySpec]) -> Vec<(usize, QuerySpec)> {
        queries.iter().copied().enumerate().collect()
    }

    fn plan_default(queries: &[QuerySpec]) -> BatchPlan {
        plan(&indexed(queries), &PlannerConfig::default(), None, None)
    }

    fn plan_containment(queries: &[QuerySpec]) -> BatchPlan {
        plan(&indexed(queries), &PlannerConfig::containment_only(), None, None)
    }

    /// Every batch position must be answered by exactly one plan entry.
    fn assert_covers_batch(plan: &BatchPlan, len: usize) {
        let mut seen = vec![0usize; len];
        for unit in plan.units() {
            for &i in &unit.direct {
                seen[i] += 1;
            }
            for f in &unit.followers {
                assert!(unit.query.covers(&f.query), "{:?} must cover {:?}", unit.query, f.query);
                for &i in &f.indexes {
                    seen[i] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "each query answered exactly once: {seen:?}");
    }

    #[test]
    fn exact_duplicates_collapse_to_one_unit() {
        let plan = plan_default(&[q(0, 7, 2, 7), q(1, 5, 1, 4), q(0, 7, 2, 7), q(0, 7, 2, 7)]);
        assert_eq!(plan.num_units(), 2);
        assert_eq!(plan.dedup_answered(), 2);
        assert_eq!(plan.shared_answered(), 0);
        let unit = &plan.units()[0];
        assert_eq!(unit.query, q(0, 7, 2, 7));
        assert_eq!(unit.direct, vec![0, 2, 3]);
        assert_eq!(plan.units()[1].direct, vec![1]);
    }

    #[test]
    fn contained_windows_attach_to_the_covering_unit() {
        for plan in [
            plan_default(&[q(0, 7, 0, 10), q(0, 7, 2, 7), q(0, 7, 3, 5)]),
            plan_containment(&[q(0, 7, 0, 10), q(0, 7, 2, 7), q(0, 7, 3, 5)]),
        ] {
            assert_eq!(plan.num_units(), 1, "both narrower windows share the wide unit");
            assert_eq!(plan.shared_answered(), 2);
            assert_eq!(plan.envelope_units(), 0, "containment must not synthesize");
            let unit = &plan.units()[0];
            assert_eq!(unit.query, q(0, 7, 0, 10));
            assert!(!unit.is_envelope());
            assert_eq!(unit.followers.len(), 2);
            assert_covers_batch(&plan, 3);
        }
    }

    #[test]
    fn containment_chains_attach_to_the_widest_window() {
        // A ⊇ B ⊇ C: both B and C become followers of A, not of each other.
        let plan = plan_default(&[q(1, 2, 3, 4), q(1, 2, 1, 8), q(1, 2, 2, 6)]);
        assert_eq!(plan.num_units(), 1);
        assert_eq!(plan.units()[0].query, q(1, 2, 1, 8));
        assert_eq!(plan.units()[0].followers.len(), 2);
        assert_eq!(plan.units()[0].direct, vec![1]);
        assert_eq!(plan.envelope_units(), 0);
    }

    #[test]
    fn overlap_without_containment_stays_separate_in_containment_mode() {
        let plan = plan_containment(&[q(0, 1, 0, 5), q(0, 1, 3, 8)]);
        assert_eq!(plan.num_units(), 2);
        assert_eq!(plan.shared_answered(), 0);
        assert_eq!(plan.envelope_answered(), 0);
    }

    #[test]
    fn overlapping_windows_collapse_into_a_synthesized_envelope() {
        let plan = plan_default(&[q(0, 1, 0, 5), q(0, 1, 3, 8)]);
        assert_eq!(plan.num_units(), 1);
        assert_eq!(plan.envelope_units(), 1);
        assert_eq!(plan.envelope_answered(), 2);
        assert_eq!(plan.shared_answered(), 0);
        let unit = &plan.units()[0];
        assert!(unit.is_envelope());
        assert_eq!(unit.query, q(0, 1, 0, 8), "envelope is [min begin, max end]");
        assert!(unit.direct.is_empty());
        assert_eq!(unit.followers.len(), 2);
        assert_covers_batch(&plan, 2);
    }

    #[test]
    fn adversarial_overlap_chain_respects_the_cost_guard() {
        // [0,5], [3,8], [6,12]: the envelope [0,12] spans 13 ≤ 2×7, so the
        // guard (k = 2) merges the whole chain into one synthesized unit.
        let queries = [q(0, 1, 0, 5), q(0, 1, 3, 8), q(0, 1, 6, 12)];
        let merged = plan_default(&queries);
        assert_eq!(merged.num_units(), 1);
        assert_eq!(merged.envelope_units(), 1);
        assert_eq!(merged.envelope_answered(), 3);
        assert_eq!(merged.units()[0].query, q(0, 1, 0, 12));
        assert_covers_batch(&merged, 3);

        // One more link splits the chain: growing to [0,16] (span 17 > 2×7)
        // is vetoed, so [10,16] stays its own plain unit.
        let queries = [q(0, 1, 0, 5), q(0, 1, 3, 8), q(0, 1, 6, 12), q(0, 1, 10, 16)];
        let split = plan_default(&queries);
        assert_eq!(split.num_units(), 2);
        assert_eq!(split.envelope_units(), 1);
        assert_eq!(split.envelope_answered(), 3);
        assert_eq!(split.units()[0].query, q(0, 1, 0, 12));
        assert_eq!(split.units()[1].query, q(0, 1, 10, 16));
        assert!(!split.units()[1].is_envelope());
        assert_covers_batch(&split, 4);
    }

    #[test]
    fn mixed_nested_overlapping_and_disjoint_groups() {
        let queries = [
            q(0, 1, 0, 10),  // covers the next one
            q(0, 1, 2, 5),   // nested -> follower of [0,10]
            q(0, 1, 8, 15),  // overlaps [0,10] -> envelope [0,15] (span 16 ≤ 2×11)
            q(0, 1, 40, 45), // disjoint -> own unit
            q(2, 3, 0, 10),  // different endpoints -> own unit
        ];
        let plan = plan_default(&queries);
        assert_eq!(plan.num_units(), 3);
        assert_eq!(plan.envelope_units(), 1);
        assert_eq!(plan.envelope_answered(), 3);
        assert_eq!(plan.shared_answered(), 0, "the nested window rides the envelope too");
        let envelope = &plan.units()[0];
        assert_eq!(envelope.query, q(0, 1, 0, 15));
        assert!(envelope.is_envelope());
        assert_eq!(envelope.followers.len(), 3);
        assert_covers_batch(&plan, 5);
    }

    #[test]
    fn adjacent_windows_merge_into_an_envelope() {
        // [0,5] and [6,12] are disjoint but adjacent: their union covers
        // every timestamp of [0,12], so they are mergeable (guard: span 13
        // ≤ 2 × 7).
        let plan = plan_default(&[q(0, 1, 0, 5), q(0, 1, 6, 12)]);
        assert_eq!(plan.num_units(), 1);
        assert_eq!(plan.units()[0].query, q(0, 1, 0, 12));
        assert_eq!(plan.envelope_answered(), 2);
    }

    #[test]
    fn gapped_windows_never_merge() {
        let plan = plan_default(&[q(0, 1, 0, 5), q(0, 1, 7, 12)]);
        assert_eq!(plan.num_units(), 2);
        assert_eq!(plan.envelope_units(), 0);
    }

    #[test]
    fn different_endpoints_never_share() {
        let plan = plan_default(&[q(0, 1, 0, 10), q(1, 0, 2, 7), q(0, 2, 2, 7)]);
        assert_eq!(plan.num_units(), 3);
        assert_eq!(plan.shared_answered(), 0);
        assert_eq!(plan.envelope_answered(), 0);
    }

    #[test]
    fn duplicate_followers_count_once_as_shared() {
        let plan = plan_default(&[q(0, 1, 0, 10), q(0, 1, 2, 5), q(0, 1, 2, 5)]);
        assert_eq!(plan.num_units(), 1);
        assert_eq!(plan.dedup_answered(), 1);
        assert_eq!(plan.shared_answered(), 1);
        assert_eq!(plan.units()[0].followers[0].indexes, vec![1, 2]);
    }

    #[test]
    fn duplicate_envelope_members_count_once_as_envelope_answered() {
        let plan = plan_default(&[q(0, 1, 0, 5), q(0, 1, 3, 8), q(0, 1, 3, 8)]);
        assert_eq!(plan.num_units(), 1);
        assert_eq!(plan.dedup_answered(), 1);
        assert_eq!(plan.envelope_answered(), 2);
        assert_covers_batch(&plan, 3);
    }

    #[test]
    fn equal_begin_prefers_the_wider_window_as_unit() {
        let plan = plan_default(&[q(0, 1, 2, 5), q(0, 1, 2, 9)]);
        assert_eq!(plan.num_units(), 1);
        assert_eq!(plan.units()[0].query, q(0, 1, 2, 9));
        assert!(!plan.units()[0].is_envelope(), "[2,9] covers [2,5]: no synthesis needed");
        assert_eq!(plan.units()[0].followers[0].query, q(0, 1, 2, 5));
    }

    #[test]
    fn unit_order_follows_first_batch_appearance() {
        let plan = plan_default(&[q(5, 6, 1, 2), q(3, 4, 1, 2), q(1, 2, 1, 2)]);
        let firsts: Vec<usize> = plan.units().iter().map(|u| u.direct[0]).collect();
        assert_eq!(firsts, vec![0, 1, 2]);
        // Envelope units order by their earliest follower.
        let plan = plan_default(&[q(5, 6, 1, 9), q(3, 4, 1, 2), q(5, 6, 4, 12)]);
        assert_eq!(plan.num_units(), 2);
        assert!(plan.units()[0].is_envelope());
        assert_eq!(plan.units()[0].followers[0].indexes, vec![0]);
        assert_eq!(plan.units()[1].direct, vec![1]);
    }

    #[test]
    fn extreme_windows_do_not_overflow_the_cost_guard() {
        // Spans saturate; the guard arithmetic must stay finite and the
        // sweep must not panic.
        let queries =
            [q(0, 1, i64::MIN, 0), q(0, 1, -5, i64::MAX), q(0, 1, i64::MAX - 1, i64::MAX)];
        let plan = plan_default(&queries);
        assert_covers_batch(&plan, 3);
        assert!(plan.num_units() >= 1);
        // Saturated spans satisfy `hull.span <= 1 x widest` even when the
        // hull grew, so containment-only mode must refuse the hull-growing
        // merge structurally, never synthesizing an envelope: [MIN, 0] and
        // [-5, MAX] stay separate units, while [MAX-1, MAX] is genuinely
        // contained in [-5, MAX] and attaches as a plain follower.
        let containment = plan_containment(&queries);
        assert_eq!(containment.envelope_units(), 0);
        assert_eq!(containment.envelope_answered(), 0);
        assert_eq!(containment.num_units(), 2);
        assert_eq!(containment.shared_answered(), 1);
        assert_covers_batch(&containment, 3);
    }

    #[test]
    fn empty_input_yields_an_empty_plan() {
        let plan = plan_default(&[]);
        assert_eq!(plan.num_units(), 0);
        assert_eq!(plan.dedup_answered(), 0);
        assert_eq!(plan.envelope_units(), 0);
        assert!(plan.profile_groups().is_empty());
        assert_eq!(plan.profile_answered(), 0);
    }

    #[test]
    fn same_source_same_begin_units_form_a_profile_group() {
        // Three targets fanned out from source 0, same window: one group.
        let queries = [q(0, 1, 2, 7), q(0, 2, 2, 7), q(0, 3, 2, 7), q(5, 6, 2, 7)];
        let plan = plan_default(&queries);
        assert_eq!(plan.num_units(), 4);
        assert_eq!(plan.profile_groups().len(), 1);
        let group = &plan.profile_groups()[0];
        assert_eq!(group.source, 0);
        assert_eq!(group.window, TimeInterval::new(2, 7));
        assert_eq!(group.units.len(), 3);
        assert_eq!(plan.profile_answered(), 3);
        for &index in &group.units {
            assert_eq!(plan.unit_profile_group_index(index), Some(0));
        }
        // The (5, 6) unit is ungrouped (a single-unit bucket shares nothing).
        let lone = (0..plan.num_units())
            .find(|&i| plan.units()[i].query.source == 5)
            .expect("unit exists");
        assert_eq!(plan.unit_profile_group_index(lone), None);
    }

    #[test]
    fn profile_hulls_absorb_same_begin_ends_within_the_span_factor() {
        // Same source and begin, ends 9 / 7 / 5: hull [2, 9] (span 8) holds
        // [2, 7] (span 6, 8 <= 2x6) and [2, 5] (span 4, 8 <= 2x4).
        let queries = [q(0, 1, 2, 9), q(0, 2, 2, 7), q(0, 3, 2, 5)];
        let plan = plan_default(&queries);
        assert_eq!(plan.profile_groups().len(), 1);
        assert_eq!(plan.profile_groups()[0].window, TimeInterval::new(2, 9));
        assert_eq!(plan.profile_groups()[0].units.len(), 3);

        // A far narrower member is guarded out: [2, 2] (span 1) would need
        // the hull span 8 <= 2x1 — it stays ungrouped.
        let queries = [q(0, 1, 2, 9), q(0, 2, 2, 7), q(0, 3, 2, 2)];
        let plan = plan_default(&queries);
        assert_eq!(plan.profile_groups().len(), 1);
        assert_eq!(plan.profile_groups()[0].units.len(), 2);
        assert_eq!(plan.profile_answered(), 2);
    }

    #[test]
    fn guarded_out_units_cascade_into_their_own_group() {
        // Ends 9, 8 cluster under hull [0, 9]; ends 2, 1 fail its guard but
        // form their own hull [0, 2].
        let queries = [q(0, 1, 0, 9), q(0, 2, 0, 8), q(0, 3, 0, 2), q(0, 4, 0, 1)];
        let plan = plan_default(&queries);
        assert_eq!(plan.profile_groups().len(), 2);
        assert_eq!(plan.profile_groups()[0].window, TimeInterval::new(0, 9));
        assert_eq!(plan.profile_groups()[1].window, TimeInterval::new(0, 2));
        assert_eq!(plan.profile_answered(), 4);
    }

    #[test]
    fn mixed_begins_share_a_profile_group_but_sources_never_do() {
        // Begins 2 and 3 hull to [2, 7] (span 6 ≤ 2 × 5) — the cross-begin
        // sharing PR 5 could not do. The source-1 unit stays alone.
        let plan = plan_default(&[q(0, 1, 2, 7), q(0, 2, 3, 7), q(1, 2, 2, 7)]);
        assert_eq!(plan.profile_groups().len(), 1);
        let group = &plan.profile_groups()[0];
        assert_eq!(group.source, 0);
        assert_eq!(group.window, TimeInterval::new(2, 7));
        assert_eq!(group.units.len(), 2);
        assert_eq!(plan.profile_answered(), 2);
    }

    #[test]
    fn cross_begin_hulls_respect_every_members_span_guard() {
        // [2, 9] (span 8) and [5, 7] (span 3): the hull [2, 9] would charge
        // the narrow window 8 > 2 × 3 — guarded out, no group.
        let plan = plan_default(&[q(0, 1, 2, 9), q(0, 2, 5, 7)]);
        assert!(plan.profile_groups().is_empty());
        // Widening must never betray a member already admitted: [5, 8]
        // (span 4) absorbs [2, 8] (hull span 7 ≤ 2 × 4), but [5, 7]
        // (span 3) is then checked against that *widened* hull — 7 > 2 × 3
        // — and stays out, even though it fit the original [5, 8].
        let plan = plan_default(&[q(0, 1, 5, 8), q(0, 2, 2, 8), q(0, 3, 5, 7)]);
        assert_eq!(plan.profile_groups().len(), 1, "{:?}", plan.profile_groups());
        assert_eq!(plan.profile_groups()[0].window, TimeInterval::new(2, 8));
        assert_eq!(plan.profile_groups()[0].units.len(), 2);
    }

    #[test]
    fn profile_sharing_can_be_disabled() {
        let queries = [q(0, 1, 2, 7), q(0, 2, 2, 7)];
        let plan = super::plan(
            &indexed(&queries),
            &PlannerConfig::default().without_profile_sharing(),
            None,
            None,
        );
        assert!(plan.profile_groups().is_empty());
        assert_eq!(plan.num_units(), 2, "unit planning is unchanged");
    }

    #[test]
    fn profile_groups_span_envelope_and_containment_units() {
        // Same source 0, same begin: an envelope unit ([1,5] ∪ [3,8] → [1,8]
        // ... begins differ there, so use same-begin shapes) — here a
        // covering unit with a follower plus a plain unit on another target.
        let queries = [q(0, 1, 2, 9), q(0, 1, 3, 5), q(0, 2, 2, 8)];
        let plan = plan_default(&queries);
        assert_eq!(plan.num_units(), 2);
        assert_eq!(plan.profile_groups().len(), 1);
        // profile_answered counts the covering unit's direct slot, its
        // follower, and the other unit's direct slot.
        assert_eq!(plan.profile_answered(), 3);
    }

    #[test]
    fn dense_observations_disable_envelope_synthesis() {
        let queries = [q(0, 1, 0, 5), q(0, 1, 3, 8)];
        let config = PlannerConfig::default();
        // Below the cutoff (or no observation): the overlap still merges.
        for observed in [None, Some(0.5), Some(ENVELOPE_DENSITY_CUTOFF)] {
            let plan = super::plan(&indexed(&queries), &config, observed, None);
            assert_eq!(plan.envelope_units(), 1, "observed={observed:?}");
        }
        // Above the cutoff: containment-only behaviour for this batch.
        let plan = super::plan(&indexed(&queries), &config, Some(0.9), None);
        assert_eq!(plan.envelope_units(), 0);
        assert_eq!(plan.num_units(), 2);
    }

    #[test]
    fn dense_profile_observations_disable_grouping() {
        let queries = [q(0, 1, 2, 7), q(0, 2, 3, 7)];
        let config = PlannerConfig::default();
        // Below the cutoff (or no observation): the fan-out still groups.
        for observed in [None, Some(0.5), Some(PROFILE_DENSITY_CUTOFF)] {
            let plan = super::plan(&indexed(&queries), &config, None, observed);
            assert_eq!(plan.profile_groups().len(), 1, "observed={observed:?}");
        }
        // Above the cutoff: grouping is pure overhead on dense graphs.
        let plan = super::plan(&indexed(&queries), &config, None, Some(0.9));
        assert!(plan.profile_groups().is_empty());
        assert_eq!(plan.num_units(), 2, "unit planning is unchanged");
        // The envelope density signal does not gate profile grouping.
        let plan = super::plan(&indexed(&queries), &config, Some(0.9), None);
        assert_eq!(plan.profile_groups().len(), 1);
    }
}
