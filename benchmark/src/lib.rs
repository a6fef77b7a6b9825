//! `bench_layers` / `bench_diff`: the repo's benchmark.
//!
//! Everything here measures the serving stack **from outside** — by
//! timing calls into the crates' public functions and by reading the
//! counters the program already publishes. See `README.md` for the
//! workloads, the metric tables and how to read the waterfall.

pub mod diff;
pub mod drive;
pub mod host;
pub mod json;
pub mod layers;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workload;
