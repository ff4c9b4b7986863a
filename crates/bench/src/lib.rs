//! # dynfd-bench
//!
//! Benchmark harness regenerating every table and figure of the DynFD
//! evaluation (paper Section 6):
//!
//! | Paper artifact | Harness experiment |
//! |---|---|
//! | Table 3 — dataset characteristics | [`experiments::table3`] |
//! | Table 4 — runtime / throughput / percentiles | [`experiments::table4`] |
//! | Figure 5 — per-batch runtimes on `single` | [`experiments::fig5`] |
//! | Figure 6 — average runtime vs. batch size | [`experiments::fig6`] |
//! | Figure 7 — speedup vs. repeated HyFD | [`experiments::fig7`] |
//! | Figures 8/9 — pruning-strategy ablations | [`experiments::figs8_9`] |
//! | Figures 10/11 — ablations vs. batch size | [`experiments::figs10_11`] |
//!
//! Run `cargo run --release -p dynfd-bench --bin experiments -- all` to
//! regenerate everything; results are printed as tables and written as
//! CSV under `EXPERIMENTS-results/`. End-to-end and per-layer
//! performance is measured by the separate `perfbench/` package.

#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod runner;
pub mod strategies;
