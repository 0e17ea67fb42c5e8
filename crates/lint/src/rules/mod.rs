//! The rule catalogue.
//!
//! Each rule family is grounded in a discipline this repo already adopted
//! the hard way (see CHANGES.md): allocation-free hot paths, Condvar
//! notifies under the paired lock, panic-free serving code and justified
//! relaxed atomics.

pub mod condvar_wait_loop;
pub mod hot_alloc;
pub mod hot_alloc_transitive;
pub mod lock_order;
pub mod no_panic;
pub mod notify_under_lock;
pub mod relaxed_justified;

use crate::diagnostics::Diagnostic;
use crate::LintContext;

/// A single lint rule, run over the whole [`LintContext`] at once so
/// cross-file rules (like the lock-order check) fit the same shape as
/// per-file token scans.
pub trait Rule {
    /// Stable kebab-case rule name — used in `--rule` filters, pragma
    /// `allow(...)` lists and diagnostic output.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn description(&self) -> &'static str;
    /// Produce every finding (suppression filtering happens centrally).
    fn check(&self, ctx: &LintContext) -> Vec<Diagnostic>;
}

/// All registered rules, in diagnostic-output order. The first four are
/// the token-scan families; the last three are the flow-aware families
/// running over the pass-1 call/lock graphs.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(hot_alloc::HotAlloc),
        Box::new(notify_under_lock::NotifyUnderLock),
        Box::new(no_panic::NoPanicInServer),
        Box::new(relaxed_justified::RelaxedJustified),
        Box::new(hot_alloc_transitive::HotAllocTransitive),
        Box::new(lock_order::LockOrder),
        Box::new(condvar_wait_loop::CondvarWaitLoop),
    ]
}
