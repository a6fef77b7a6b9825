//! # widx-serve — a sharded, batched probe-serving engine
//!
//! The paper's Widx accelerator puts *four walkers behind one
//! dispatcher* to mine the inter-key parallelism of index probes.
//! `widx-soft` reproduces that on one core with AMAC interleaving; this
//! crate scales the same shape to a whole socket and wraps it in the
//! request/response surface a production in-memory DB front-end needs —
//! a **software walker pool as a service**:
//!
//! * [`ShardedIndex`] — the index partitioned by
//!   [`HashRecipe::shard_of`](widx_db::hash::HashRecipe::shard_of) into
//!   independent per-worker [`HashIndex`](widx_db::index::HashIndex)es
//!   (the shard-aware build path of `widx_db::index`);
//! * [`ProbeService`] — one worker thread per shard (the dispatcher
//!   role), each driving a resumable [`Ring`](widx_soft::Ring) of
//!   hash-probe cursors (the walkers) over
//!   *batches* assembled from a bounded queue: a worker admits what is
//!   already queued and closes the batch at
//!   [`batch_size`](ServeConfig::batch_size) keys or the moment the
//!   queue runs dry (it never waits on a clock),
//!   backpressure when queues fill, and poison-pill shutdown mirroring
//!   [`widx_core::POISON_KEY`] — drain accepted work, then halt;
//! * [`OrderedShardedIndex`] — the *range-partitioned* counterpart:
//!   contiguous key spans split by boundary keys, one
//!   [`BTreeIndex`](widx_db::index::BTreeIndex) per shard, serving
//!   [`Request::RangeScan`] through per-shard rings of B+-tree scan
//!   cursors (the same [`Ring`](widx_soft::Ring)) — scans
//!   scatter to the adjacent shards their interval overlaps and gather
//!   back into one key-ordered, limit-truncated reply;
//! * typed requests — [`Request::Lookup`], [`Request::MultiLookup`],
//!   [`Request::JoinProbe`], [`Request::RangeScan`] (ascending or
//!   `ORDER BY key DESC` via its `desc` flag) — with per-request
//!   completion latency and per-worker throughput/occupancy telemetry
//!   ([`ServiceStats`]) feeding the `Stats` JSON document and the
//!   `benchmark/` package;
//! * **streaming range replies** —
//!   [`range_stream`](ProbeService::range_stream) returns a
//!   [`PendingStream`] whose chunks the gather seam releases in merged
//!   key order *while shards are still scanning* (per-shard walkers
//!   push a chunk every [`stream_chunk`](ServeConfig::stream_chunk)
//!   entries; the request's limit still applies at the seam), with a
//!   completion-wakeup hook ([`PendingStream::set_waker`] /
//!   [`PendingResponse::set_waker`], a shared `Arc` a front-end builds
//!   once and clones onto each request) so a polling front-end learns
//!   "chunk ready" without scanning its pending lists.
//!
//! Batching across *concurrent requests* is what makes the pool a
//! service rather than a loop: a single `Lookup` arriving alone would
//! waste the walker ring, but dozens of independent requests batched at
//! a shard fill every in-flight slot, exactly like the paper's
//! dispatcher keeping all four walkers busy.
//!
//! # Example
//!
//! ```
//! use widx_db::hash::HashRecipe;
//! use widx_serve::{ProbeService, ServeConfig};
//!
//! let config = ServeConfig::default().with_shards(2).with_batch_size(16);
//! let service = ProbeService::build_with_range(
//!     HashRecipe::robust64(),
//!     (0..10_000u64).map(|k| (k, k + 1)),
//!     &config,
//! );
//! assert_eq!(service.lookup(41).unwrap(), vec![42]);
//!
//! let mut pairs = service.join_probe(&[5, 99_999, 5]).unwrap();
//! pairs.sort_unstable();
//! assert_eq!(pairs, vec![(0, 6), (2, 6)]); // rows 0 and 2 hit, row 1 missed
//!
//! // Ordered serving: key-ordered, limit-truncated range scans.
//! let entries = service.range_scan(100, 5_000, 3).unwrap();
//! assert_eq!(entries, vec![(100, 101), (101, 102), (102, 103)]);
//!
//! let stats = service.shutdown();
//! assert_eq!(stats.total_keys(), 4); // one lookup key + three join rows
//! assert!(stats.total_scan_entries() >= 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod ordered;
mod queue;
mod request;
mod service;
mod shard;
mod stats;
mod worker;

pub use ordered::OrderedShardedIndex;
pub use request::{
    PendingResponse, PendingStream, Request, Response, StreamConsumed, TraceFinisher,
};
pub use service::{NetTraceCtx, ProbeService, ServeConfig, SubmitError};
pub use shard::{ShardedIndex, Shards};
pub use stats::{LatencySummary, NetStats, ReactorStats, ServiceStats, StageStats, WorkerStats};
// Re-exported telemetry primitives, so front-ends (the `widx-net`
// server records the reply-write stage) need no direct `widx-obs`
// dependency.
pub use widx_obs::{
    AtomicHistogram, FlightRecorder, HistogramSnapshot, ReactorGauges, RecorderStats, RequestTrace,
    Span, Stage, StageSnapshot, StageTimes, WalkCounters,
};
