//! Figure harness for the AutoDBaaS reproduction.
//!
//! **Figure binaries** (`src/bin/fig*.rs`, `ablations.rs`) — one per
//! table/figure in the paper's evaluation (§3–§5). Each regenerates the
//! rows/series the paper plots, scaled to laptop wall-time, prints them
//! with the paper's expectation alongside and asserts the paper's shape.
//! `EXPERIMENTS.md` records paper-vs-measured for all of them.
//!
//! Timings are not measured here: the repo's one perf harness is
//! `benchmark/` (see `BENCHMARK.json` and `BENCH_observatory.jsonl`).
//!
//! This library crate holds the shared helpers the binaries use.

pub mod figures;
pub mod fleet_setup;
pub mod safetune;

pub use figures::*;
pub use fleet_setup::{
    backend_arg, backend_from_arg, checkpoint_roundtrip, fleet_or_resume, load_fleet_pair,
    resume_arg, save_fleet_pair, NodeSpec,
};
