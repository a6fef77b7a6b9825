//! # widx-obs — live telemetry primitives
//!
//! Lock-free building blocks for observing the serving stack while it runs:
//!
//! - [`AtomicHistogram`] / [`HistogramSnapshot`]: fixed 64-bucket log2
//!   latency histograms, recordable from any thread, snapshot-without-reset,
//!   mergeable in any order.
//! - [`WorkerCell`] / [`WorkerCellSnapshot`]: a padded bundle of one
//!   worker's counters plus its latency histogram. Workers publish directly
//!   into their cell, so a shutdown join is just a final snapshot and
//!   `live_stats()` is the same snapshot taken earlier.
//! - [`Stage`] / [`StageTimes`]: the net-read / queue-wait / batch-wait /
//!   walk / write / gather / reply-write breakdown of a request's life —
//!   the one vocabulary histograms, profiling windows and trace spans share.
//! - [`ReactorGauges`]: a padded pair of gauges one net-tier reactor
//!   re-publishes every event-loop pass (connections owned, unflushed
//!   reply bytes), stored contiguously without false sharing.
//! - [`FlightRecorder`] / [`RequestTrace`]: the per-request trace seam — a
//!   bounded ring of completed traces (spans per stage plus walker-level
//!   [`WalkCounters`]) filled by head sampling and a tail slow-threshold.
//! - [`ThreadProfiler`] / [`ProfCell`] / [`ProfSnapshot`]: hardware
//!   counter windows (cycles, instructions, LLC/dTLB misses) scoped to
//!   the same stage seam, with derived IPC / MPKI / stall-fraction /
//!   effective-MLP and a software-counter cross-check.
//! - [`json`]: the one JSON [`Writer`](json::Writer) every document goes
//!   through, plus tiny extract helpers for reading fields back.
//!
//! Everything here is plain `std` atomics — no locks on any record path.
//! The only dependency is the vendored `perf-event` shim the `prof`
//! module sits on (which keeps its `unsafe` on its side of the fence).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cell;
mod gauge;
mod hist;
pub mod json;
mod prof;
mod stage;
mod trace;

pub use cell::{FlushKind, WorkerCell, WorkerCellSnapshot};
pub use gauge::ReactorGauges;
pub use hist::{
    bucket_ceil, bucket_floor, bucket_of, AtomicHistogram, HistogramSnapshot, HIST_BUCKETS,
};
pub use prof::{
    ProfCell, ProfMark, ProfSnapshot, ProfStageSnapshot, ThreadProfiler, MISS_LATENCY_CYCLES,
};
pub use stage::{Stage, StageSnapshot, StageTimes};
pub use trace::{
    ActiveTrace, FlightRecorder, PendingCommit, RecorderStats, RequestTrace, Span, WalkCounters,
};
