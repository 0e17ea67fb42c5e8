//! Execution of a [`BatchPlan`]: one job loop for every thread count.
//!
//! The plan's units are packed into *jobs*, in first-unit order: one job
//! per profile group, holding its member units, and one job per ungrouped
//! unit. Workers claim jobs off one atomic cursor and run each job whole on
//! their own warm [`QueryScratch`]:
//!
//! * a group's [`ArrivalProfile`] is fetched once, through
//!   `QueryEngine::profile_for` (the resident profile cache, else one
//!   target-agnostic forward pass over the group's hull), and every member
//!   unit clamps it at its own window;
//! * each unit's followers are answered right after the unit, by re-running
//!   the pipeline on the unit's compacted tspG.
//!
//! Nothing one job computes is needed by another, so no worker ever waits
//! on another. The calling thread is worker 0, beside
//! `min(threads, jobs) − 1` scoped helpers: a one-job batch spawns no
//! thread, and a panic in any worker reaches the caller through the scope.

use crate::engine::planner::{BatchPlan, PlanUnit, ProfileGroup};
use crate::engine::{generate_tspg_scratch, QueryEngine, QueryScratch, QuerySpec};
use crate::polarity::ArrivalProfile;
use crate::vug::{VugConfig, VugReport, VugResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use tspg_graph::{EdgeSet, TemporalGraph, VertexId};

/// The results of one executed [`PlanUnit`]: the unit query's own result
/// plus one result per follower (parallel to `unit.followers`).
#[derive(Debug)]
pub(crate) struct UnitOutcome {
    pub main: VugResult,
    pub followers: Vec<VugResult>,
}

/// A unit's tspG, materialized once for answering its followers.
///
/// The tspG is compacted to its own induced vertex set before follower
/// runs: the pipeline's per-run working state (polarity labels, visited
/// bitmaps, TCV tables) scales with the graph's vertex count, so running a
/// follower over the tspG *re-numbered to its handful of vertices* costs
/// time proportional to the tspG — materializing it in the parent graph's
/// id space would silently keep every follower run `O(|V|)` of the full
/// graph. Follower answers are remapped back to original ids afterwards.
#[derive(Debug)]
enum SharedTspg {
    /// The unit's tspG is empty: every follower's tspG is a subset of it,
    /// hence empty too — no pipeline run needed at all.
    Empty,
    /// Non-empty tspG, compacted.
    Compact {
        graph: TemporalGraph,
        /// Compact id of the unit's (and thus every follower's) source.
        source: VertexId,
        /// Compact id of the unit's (and thus every follower's) target.
        target: VertexId,
        /// Compact-to-original vertex mapping.
        originals: Vec<VertexId>,
    },
}

impl SharedTspg {
    /// Compacts a unit's freshly computed tspG for follower answering.
    fn new(unit_query: &QuerySpec, tspg: &EdgeSet) -> Self {
        if tspg.is_empty() {
            return Self::Empty;
        }
        let (graph, originals) = tspg.to_compact_graph();
        // Every tspG edge lies on a temporal simple s→t path, so a
        // non-empty tspG always contains both endpoints.
        let compact = |v: VertexId| -> VertexId {
            // tspg-lint: allow(no-panic-in-server) — unreachable by the invariant above
            originals.binary_search(&v).expect("tspG contains its endpoints") as VertexId
        };
        let (source, target) = (compact(unit_query.source), compact(unit_query.target));
        Self::Compact { graph, source, target, originals }
    }

    /// Answers one follower of the unit by re-running the pipeline on the
    /// compact tspG with the follower's window, mapping the resulting edge
    /// set back to original vertex ids.
    fn answer(&self, follower: &QuerySpec, s: &mut QueryScratch) -> VugResult {
        match self {
            Self::Empty => VugResult { tspg: EdgeSet::new(), report: VugReport::default() },
            Self::Compact { graph, source, target, originals } => {
                let mut result = generate_tspg_scratch(
                    graph,
                    *source,
                    *target,
                    follower.window,
                    &VugConfig::default(),
                    s,
                );
                result.tspg.uncompact(originals);
                result
            }
        }
    }
}

/// One claimable piece of a plan, run whole by the worker that claims it.
enum Job<'p> {
    /// A profile group: its member units share one arrival profile.
    Group(&'p ProfileGroup),
    /// An ungrouped unit, by index into [`BatchPlan::units`].
    Unit(usize),
}

/// Packs the plan's units into jobs, ordered by each job's first unit.
fn pack_jobs(plan: &BatchPlan) -> Vec<Job<'_>> {
    let groups = plan.profile_groups();
    let mut packed = vec![false; groups.len()];
    let mut jobs = Vec::with_capacity(plan.num_units());
    for index in 0..plan.num_units() {
        match plan.unit_profile_group_index(index) {
            None => jobs.push(Job::Unit(index)),
            Some(group) if !packed[group] => {
                packed[group] = true;
                jobs.push(Job::Group(&groups[group]));
            }
            Some(_) => {}
        }
    }
    jobs
}

/// Executes every unit of a plan across at most `threads` workers and
/// returns the outcomes in unit order.
pub(crate) fn execute(engine: &QueryEngine, plan: &BatchPlan, threads: usize) -> Vec<UnitOutcome> {
    let jobs = pack_jobs(plan);
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut scratch = engine.checkout_scratch();
        // Sized for the whole plan at once: growing it between the units'
        // result allocations fragmented a resident server's heap (about
        // 0.25 MiB more after `serve`'s warm-up).
        let mut done = Vec::with_capacity(plan.num_units());
        // relaxed: the cursor only hands out distinct job indices; the
        // outcomes reach the caller through the scope's joins.
        while let Some(job) = jobs.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            run_job(engine, plan, job, &mut scratch, &mut done);
        }
        engine.return_scratch(scratch);
        done
    };
    let helpers = threads.clamp(1, jobs.len().max(1)) - 1;
    let mut done = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for handle in handles {
            done.extend(handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        done
    });
    // Every unit belongs to exactly one job, so this is one outcome per
    // unit, in unit order.
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, outcome)| outcome).collect()
}

/// Runs one job on `scratch`, appending each unit's outcome under its unit
/// index. A group's profile is fetched once for all its members.
fn run_job(
    engine: &QueryEngine,
    plan: &BatchPlan,
    job: &Job,
    scratch: &mut QueryScratch,
    done: &mut Vec<(usize, UnitOutcome)>,
) {
    let (units, profile) = match job {
        Job::Group(group) => {
            (group.units.as_slice(), Some(engine.profile_for(group.source, group.window)))
        }
        Job::Unit(index) => (std::slice::from_ref(index), None),
    };
    for &index in units {
        let outcome = execute_unit(engine, &plan.units()[index], profile.as_deref(), scratch);
        done.push((index, outcome));
    }
}

/// Runs one unit: its own query on the full graph (clamping the group's
/// profile, if any), then every follower on the unit's tspG.
///
/// Correctness of the follower path: a follower's window is contained in
/// the unit's window on the same `(s, t)` — by construction for both
/// containment followers and envelope members — so every temporal simple
/// path satisfying the follower also satisfies the unit and all its edges
/// are in the unit's tspG. Conversely the tspG is a subgraph of the input,
/// so it adds no paths. The follower's set of temporal simple paths — and
/// hence its tspG — is identical whether computed on the full graph or on
/// the unit's tspG, and the latter is usually orders of magnitude smaller.
fn execute_unit(
    engine: &QueryEngine,
    unit: &PlanUnit,
    profile: Option<&ArrivalProfile>,
    scratch: &mut QueryScratch,
) -> UnitOutcome {
    let main = match profile {
        Some(profile) => engine.run_with_profile(unit.query, profile, scratch),
        None => engine.run(unit.query, scratch),
    };
    let mut followers = Vec::with_capacity(unit.followers.len());
    if !unit.followers.is_empty() {
        let shared = SharedTspg::new(&unit.query, &main.tspg);
        for follower in &unit.followers {
            followers.push(shared.answer(&follower.query, scratch));
        }
    }
    UnitOutcome { main, followers }
}
