//! # tspg-bench
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation section (Section VI) on the synthetic dataset registry.
//!
//! The crate has two faces:
//!
//! * a **library** (`harness`, `experiments`) behind the binary;
//! * the **`experiments` binary**, which prints one plain-text table per
//!   paper artifact (Fig. 5 → `exp1`, Fig. 6 → `exp2`, …, Table II →
//!   `table2`), plus the serving experiments beyond the paper.
//!
//! Run `cargo run -p tspg-bench --release --bin experiments -- --help` for
//! the command-line interface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;

pub use harness::{
    Algorithm, AlgorithmOutcome, HarnessConfig, PreparedDataset, QueryOutcome, Table,
};
