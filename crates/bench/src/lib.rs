//! # heterog-bench
//!
//! Experiment harness regenerating every table and figure of the
//! paper's evaluation (§6). Each `exp_*` binary in `src/bin/` reproduces
//! one table/figure, and the `BENCH_*.json` writers record throughput
//! and overhead figures. See DESIGN.md's experiment index and
//! EXPERIMENTS.md for paper-vs-measured results.

pub mod harness;

pub use harness::*;
