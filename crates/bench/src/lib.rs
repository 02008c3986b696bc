//! # panda-bench — paper tables/figures
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus
//! `calibrate`, which times the distance kernel, heap offers, histogram
//! binning and partitioning on the host. Wall-clock end-to-end and
//! per-layer measurement lives in the repository's one benchmark,
//! `benchmark/` (`bash benchmark/run.sh`), not here. This library holds
//! the shared machinery:
//!
//! * [`args`] — minimal CLI flag parsing (`--scale`, `--ranks`, `--seed`,
//!   `--csv`, ...);
//! * [`table`] — aligned table / CSV printing;
//! * [`runner`] — the distributed build+query experiment driver with
//!   rank-aggregated metrics;
//! * [`calibrate`] — host microbenchmarks for the cost-model constants.
//!
//! ## Scale convention
//!
//! Every harness accepts `--scale` (default 1/1000): datasets are
//! generated at `scale ×` the paper's particle counts, and rank counts are
//! capped at `--max-ranks` (default 64). Timings printed as "model s" are
//! **virtual seconds** from the simulated cluster (see `panda-comm`);
//! they are not expected to match the paper's absolute numbers — the
//! *shape* (ratios, scaling exponents, breakdown percentages, who wins)
//! is the reproduction target.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;
pub mod calibrate;
pub mod runner;
pub mod table;

pub use args::Args;
pub use runner::{run_distributed, DistMetrics};
pub use table::Table;
