//! # repro-bench — the paper's evaluation harness
//!
//! Every table/figure of the paper is one [`scenario::Scenario`]; the
//! `experiments` bench target runs them all (or `--only NAME`). This
//! library holds the scenario registry, the shared experiment runners
//! and the table printers. See `EXPERIMENTS.md` at the repository root
//! for the paper-vs-measured record the runner regenerates.

#![deny(missing_docs)]

pub mod experiments;
pub mod rmr;
pub mod scenario;
pub mod service;
pub mod service_native;
pub mod table;
