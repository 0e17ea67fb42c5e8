//! Work-stealing execution of a [`BatchPlan`]
//! with individually claimable followers.
//!
//! PR 2's `run_batch` split the query list into contiguous chunks, one per
//! worker. That balances *counts*, not *costs*: one chunk holding the few
//! expensive queries of a skewed batch leaves every other worker idle while
//! its owner grinds. PR 3 replaced chunking with a single atomic cursor
//! over the plan's units — but a unit's followers still ran serially on the
//! worker that claimed the unit, so one hot query with very many narrowed
//! repeats could tail-load a single worker while the rest sat idle.
//!
//! This executor closes that skew tail. Work is split into two kinds of
//! items:
//!
//! * **Units** — claimed off an atomic cursor as before. Running a unit
//!   executes its query against the full graph; if the unit has followers
//!   the worker then *publishes* the unit's tspG (materialized once, into a
//!   `OnceLock`) before moving on to the next unit.
//! * **Followers** — once a unit's tspG is published, each of its followers
//!   is an independent work item: any worker whose unit cursor has run dry
//!   claims followers one at a time (per-unit atomic cursors) and answers
//!   them by re-running the pipeline on the published tspG out of its own
//!   scratch.
//!
//! Full-graph runs are the expensive items, so workers always prefer an
//! unclaimed unit over follower stealing; followers (tspG-sized, tiny) soak
//! up the idle tail once the units are all claimed. A worker that finds
//! neither — every remaining follower belongs to a unit still executing —
//! yields and re-scans until the outstanding-follower count hits zero.
//!
//! The worker count is clamped to the number of pending work items (units
//! plus followers), so tiny batches stop paying thread start-up for workers
//! that would find every cursor already exhausted.

use crate::engine::planner::{BatchPlan, PlanUnit};
use crate::engine::{generate_tspg_scratch, QueryEngine, QueryScratch, QuerySpec};
use crate::polarity::ArrivalProfile;
use crate::vug::{VugReport, VugResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
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
    fn answer(
        &self,
        follower: &QuerySpec,
        engine: &QueryEngine,
        s: &mut QueryScratch,
    ) -> VugResult {
        match self {
            Self::Empty => VugResult { tspg: EdgeSet::new(), report: VugReport::default() },
            Self::Compact { graph, source, target, originals } => {
                let mut result = generate_tspg_scratch(
                    graph,
                    *source,
                    *target,
                    follower.window,
                    engine.config(),
                    s,
                );
                result.tspg.uncompact(originals);
                result
            }
        }
    }
}

/// Executes every unit of a plan across at most `threads` workers and
/// returns the outcomes in unit order.
///
/// Units the planner put into a same-source profile group run through
/// [`QueryEngine::run_with_profile`]: the first member to execute obtains
/// the group's arrival profile — from the engine's profile cache when a
/// resident profile covers the hull, else by one target-agnostic forward
/// pass — and *publishes* it via `OnceLock` (mirroring the tspG
/// publication below); every other member clamps the published profile at
/// its own window instead of re-running the forward BFS.
pub(crate) fn execute(engine: &QueryEngine, plan: &BatchPlan, threads: usize) -> Vec<UnitOutcome> {
    let units = plan.units();
    let num_followers: usize = units.iter().map(|u| u.followers.len()).sum();
    let threads = threads.clamp(1, (units.len() + num_followers).max(1));
    if threads == 1 {
        let profiles = SharedProfiles::new(engine, plan);
        let mut scratch = engine.checkout_scratch();
        let outcomes = units
            .iter()
            .enumerate()
            .map(|(index, u)| execute_unit(engine, u, profiles.for_unit(index), &mut scratch))
            .collect();
        engine.return_scratch(scratch);
        return outcomes;
    }

    let pool = WorkPool::new(engine, plan, num_followers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let pool = &pool;
                scope.spawn(move || {
                    // A worker that panics mid-unit never completes its
                    // unit's followers, so without poisoning the surviving
                    // workers would wait on the outstanding-follower count
                    // forever instead of letting the panic propagate at
                    // join time.
                    let _poison = PoisonOnPanic(&pool.poisoned);
                    let mut scratch = engine.checkout_scratch();
                    pool.work(engine, &mut scratch);
                    engine.return_scratch(scratch);
                })
            })
            .collect();
        for handle in handles {
            // Propagating a worker panic (rather than swallowing it and
            // returning partial outcomes) is the intended behavior here.
            // tspg-lint: allow(no-panic-in-server)
            handle.join().expect("executor worker panicked");
        }
    });
    pool.into_outcomes()
}

/// The once-published arrival profiles of a plan's same-source groups.
///
/// Whoever first executes a member unit obtains the group's profile —
/// through [`QueryEngine::profile_for`], which consults the resident
/// profile cache before running the target-agnostic forward pass over the
/// hull window — inside `OnceLock::get_or_init`; concurrent members of the
/// same group block on that initialization — acceptable, because the
/// profile is a fraction of the full pipeline run each of them is about to
/// perform, and every other group's units remain claimable by other
/// workers. The slots hold `Arc`s because the same profile may be resident
/// in the engine's cache across batches.
struct SharedProfiles<'p> {
    engine: &'p QueryEngine,
    plan: &'p BatchPlan,
    slots: Vec<OnceLock<Arc<ArrivalProfile>>>,
}

impl<'p> SharedProfiles<'p> {
    fn new(engine: &'p QueryEngine, plan: &'p BatchPlan) -> Self {
        let slots = (0..plan.profile_groups().len()).map(|_| OnceLock::new()).collect();
        Self { engine, plan, slots }
    }

    /// The published profile of the unit's group (obtaining and publishing
    /// it first if this is the group's first executing member), or `None`
    /// for ungrouped units.
    fn for_unit(&self, index: usize) -> Option<&Arc<ArrivalProfile>> {
        let group_index = self.plan.unit_profile_group_index(index)?;
        let group = &self.plan.profile_groups()[group_index];
        Some(
            self.slots[group_index]
                .get_or_init(|| self.engine.profile_for(group.source, group.window)),
        )
    }
}

/// Shared state of one parallel batch execution: result slots for every
/// unit and follower, the published tspGs and profiles, and the claim
/// cursors.
struct WorkPool<'p> {
    units: &'p [PlanUnit],
    /// The plan's profile groups, published on first member execution.
    profiles: SharedProfiles<'p>,
    /// Cursor over `units`; claiming past the end means "go steal".
    unit_cursor: AtomicUsize,
    /// `mains[i]` receives unit `i`'s own result.
    mains: Vec<OnceLock<VugResult>>,
    /// Unit `i`'s tspG, compacted once its main run finished (only set for
    /// units that have followers). Publishing this is what makes the
    /// unit's followers stealable.
    shared: Vec<OnceLock<SharedTspg>>,
    /// Claim cursor over unit `i`'s followers.
    follower_cursors: Vec<AtomicUsize>,
    /// Flattened result slots for followers; unit `i`'s follower `j` lands
    /// in `follower_results[follower_offsets[i] + j]`.
    follower_offsets: Vec<usize>,
    follower_results: Vec<OnceLock<VugResult>>,
    /// Followers not yet *completed* (not merely claimed) — the workers'
    /// termination condition.
    outstanding_followers: AtomicUsize,
    /// Set when a worker panics, so the survivors stop waiting for work
    /// the dead worker can no longer publish and the panic reaches the
    /// caller through `join` instead of hanging the batch.
    poisoned: std::sync::atomic::AtomicBool,
}

/// Drop guard that flags the pool when its worker unwinds from a panic.
struct PoisonOnPanic<'p>(&'p std::sync::atomic::AtomicBool);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

impl<'p> WorkPool<'p> {
    fn new(engine: &'p QueryEngine, plan: &'p BatchPlan, num_followers: usize) -> Self {
        let units = plan.units();
        let mut follower_offsets = Vec::with_capacity(units.len());
        let mut offset = 0;
        for unit in units {
            follower_offsets.push(offset);
            offset += unit.followers.len();
        }
        fn slots<T>(n: usize) -> Vec<OnceLock<T>> {
            (0..n).map(|_| OnceLock::new()).collect()
        }
        Self {
            units,
            profiles: SharedProfiles::new(engine, plan),
            unit_cursor: AtomicUsize::new(0),
            mains: slots(units.len()),
            shared: slots(units.len()),
            follower_cursors: (0..units.len()).map(|_| AtomicUsize::new(0)).collect(),
            follower_offsets,
            follower_results: slots(num_followers),
            outstanding_followers: AtomicUsize::new(num_followers),
            poisoned: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// One worker's loop: drain the unit cursor, then steal followers until
    /// none are outstanding.
    fn work(&self, engine: &QueryEngine, scratch: &mut QueryScratch) {
        loop {
            // relaxed: the cursor only hands out distinct indices; result
            // publication is ordered by the OnceLock slots, not the cursor.
            let index = self.unit_cursor.fetch_add(1, Ordering::Relaxed);
            let Some(unit) = self.units.get(index) else { break };
            let main = match self.profiles.for_unit(index) {
                Some(profile) => engine.run_with_profile(unit.query, profile, scratch),
                None => engine.run(unit.query, scratch),
            };
            if !unit.followers.is_empty() {
                // Publish the compacted tspG *before* parking the main
                // result; from this instant the unit's followers are
                // fair game for every worker, this one included.
                let _ = self.shared[index].set(SharedTspg::new(&unit.query, &main.tspg));
            }
            let _ = self.mains[index].set(main);
        }
        // No units left: steal followers until the batch is drained. A
        // fruitless scan means every unclaimed follower belongs to a unit
        // another worker is still executing; yield at first (publishes are
        // usually imminent), then back off to short sleeps so workers
        // waiting out one long full-graph run do not burn their cores —
        // follower runs are tspG-sized, so 50µs of extra latency is noise.
        let mut fruitless_scans = 0u32;
        while self.outstanding_followers.load(Ordering::Acquire) != 0 {
            if self.poisoned.load(Ordering::Acquire) {
                break;
            }
            if self.steal_followers(engine, scratch) {
                fruitless_scans = 0;
            } else if fruitless_scans < 16 {
                fruitless_scans += 1;
                std::thread::yield_now();
            } else {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        }
    }

    /// Scans every published unit for unclaimed followers and runs all it
    /// can claim. Returns whether any follower was executed.
    fn steal_followers(&self, engine: &QueryEngine, scratch: &mut QueryScratch) -> bool {
        // relaxed: follower cursors only partition claims between workers;
        // each claimed result is published via its OnceLock slot, and the
        // drain condition rides on `outstanding_followers` (Release above,
        // Acquire in `work`), not on cursor ordering.
        let mut progressed = false;
        for (index, unit) in self.units.iter().enumerate() {
            if unit.followers.is_empty()
                || self.follower_cursors[index].load(Ordering::Relaxed) >= unit.followers.len()
            {
                continue;
            }
            let Some(shared) = self.shared[index].get() else { continue };
            loop {
                let claimed = self.follower_cursors[index].fetch_add(1, Ordering::Relaxed);
                let Some(follower) = unit.followers.get(claimed) else { break };
                let result = shared.answer(&follower.query, engine, scratch);
                let _ = self.follower_results[self.follower_offsets[index] + claimed].set(result);
                self.outstanding_followers.fetch_sub(1, Ordering::Release);
                progressed = true;
            }
        }
        progressed
    }

    /// Collects the filled slots into per-unit outcomes (every slot is set
    /// once the workers have joined).
    fn into_outcomes(self) -> Vec<UnitOutcome> {
        let mut follower_results = self.follower_results.into_iter();
        self.units
            .iter()
            .zip(self.mains)
            .map(|(unit, main)| UnitOutcome {
                // tspg-lint: allow(no-panic-in-server) — see the doc comment: slots are full post-join
                main: main.into_inner().expect("the unit cursor visits every unit"),
                followers: follower_results
                    .by_ref()
                    .take(unit.followers.len())
                    // tspg-lint: allow(no-panic-in-server) — same post-join invariant
                    .map(|slot| slot.into_inner().expect("every follower is claimed and run"))
                    .collect(),
            })
            .collect()
    }
}

/// Runs one unit serially: its own query on the full graph, then every
/// follower on the unit's tspG (the single-worker path).
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
    profile: Option<&Arc<ArrivalProfile>>,
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
            followers.push(shared.answer(&follower.query, engine, scratch));
        }
    }
    UnitOutcome { main, followers }
}
