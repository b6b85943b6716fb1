//! # smat-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation on the simulated A100 (see EXPERIMENTS.md for the
//! paper-vs-measured record):
//!
//! * `cargo run --release -p smat-bench --bin reproduce -- all`
//! * or one experiment: `... -- fig8`, `... -- fig9a`, `... -- table1`, ...
//!
//! [`experiments`] holds one runner per table/figure; [`runner`] the shared
//! engine dispatch. Host wall-clock time of the library is measured by the
//! separate `perfbench` package at the repository root.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod plot;
pub mod runner;

pub use experiments::HarnessConfig;
pub use runner::{geomean, run_engine, Engine, Measurement};
