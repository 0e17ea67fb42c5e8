//! # tspg-core
//!
//! **VUG — Verification in Upper-bound Graph**: the paper's algorithm for
//! generating the temporal simple path graph (`tspG`) of a query
//! `(s, t, [τ_b, τ_e])` over a directed temporal graph without exhaustively
//! enumerating temporal simple paths.
//!
//! The pipeline (Algorithm 1) has three phases:
//!
//! 1. **QuickUBG** ([`quick_ubg`], Algorithms 2–3): compute every vertex's
//!    earliest arrival time `A(u)` and latest departure time `D(u)` with a
//!    BFS-like label-correcting scan and keep exactly the edges with
//!    `A(u) < τ < D(v)` — the quick upper-bound graph `G_q`.
//! 2. **TightUBG** ([`tcv`], [`tight_ubg`], Algorithms 4–5): compute the
//!    *time-stream common vertices* `TCV_τ(s, u)` / `TCV_τ(u, t)` with a
//!    single forward and a single backward scan of `G_q`'s edges, then drop
//!    every edge whose two TCV sets share a vertex — the tight upper-bound
//!    graph `G_t`.
//! 3. **EEV** ([`eev`], [`bidir`], Algorithms 6–7): confirm edges of `G_t`
//!    into the result, first by the source/target rules (Lemmas 2 and 10),
//!    then by finding one witness temporal simple path per remaining edge
//!    with an optimized bidirectional DFS and batch-confirming all
//!    replaceable parallel edges (Lemma 11).
//!
//! For answering **many** queries over one loaded graph, the [`engine`]
//! module provides [`QueryEngine`]: batches go through a **plan → execute →
//! assemble** pipeline — duplicate queries collapse, window-contained
//! queries are answered from the covering query's tspG, execution hands
//! whole jobs to workers off one atomic cursor (each worker reusing a
//! [`QueryScratch`] arena, zero steady-state allocation), and an
//! LRU [`engine::cache::ResultCache`] memoizes `(s, t, window)` → tspG
//! across batches until edges are ingested. Result ordering stays
//! deterministic throughout.
//!
//! # Quick start
//!
//! ```
//! use tspg_graph::fixtures::{figure1_graph, figure1_query};
//! use tspg_core::generate_tspg;
//!
//! let g = figure1_graph();
//! let (s, t, window) = figure1_query();
//! let result = generate_tspg(&g, s, t, window);
//! assert_eq!(result.tspg.num_edges(), 4);   // Fig. 1(c)
//! assert_eq!(result.tspg.num_vertices(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bidir;
pub mod eev;
pub mod engine;
pub mod polarity;
pub mod quick_ubg;
pub mod tcv;
pub mod tight_ubg;
pub mod vug;

pub use bidir::{BidirOptions, BidirScratch, BidirSearcher, BidirStats};
pub use eev::{
    escaped_edges_verification, escaped_edges_verification_with, EevOutcome, EevScratch, EevStats,
};
pub use engine::cache::{CacheConfig, CacheStats, ProfileCacheConfig, ProfileCacheStats};
pub use engine::planner::{BatchPlan, PlannerConfig, ProfileGroup};
pub use engine::{BatchStats, QueryEngine, QueryScratch, QuerySpec};
pub use polarity::{
    compute_polarity, ArrivalProfile, PolarityScratch, PolarityTimes, SourceFrontier,
};
pub use quick_ubg::quick_upper_bound_graph;
pub use tcv::{TcvTables, TcvValue};
pub use tight_ubg::tight_upper_bound_graph;
pub use vug::{generate_tspg, generate_tspg_with, VugConfig, VugReport, VugResult};
