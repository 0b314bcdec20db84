//! # avmon-bench — benchmarks and the paper's experiment harness
//!
//! Two things live here:
//!
//! 1. **Criterion micro-benchmarks** (`benches/`): hashing throughput, the
//!    Fig. 2 pair scan, coarse-view operations, the wire codec, and
//!    small end-to-end simulations.
//! 2. **The experiment harness** (`src/bin/experiments.rs`): regenerates
//!    every table and figure of the paper's evaluation (§5) plus the
//!    extension experiments of README "Extension experiments". Each run
//!    prints the series and writes a CSV under `results/`.
//!
//! ```bash
//! cargo run -p avmon-bench --release --bin experiments -- all --quick
//! cargo run -p avmon-bench --release --bin experiments -- fig3 fig7
//! cargo run -p avmon-bench --release --bin experiments -- fig17 --hours 24
//! ```

// Bench harness: measures real time and builds throwaway indices;
// outside the determinism boundary.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod experiments;
pub mod output;

pub use experiments::{run, ExpContext, Model, ALL_IDS};
pub use output::{f1, f3, ResultTable};
