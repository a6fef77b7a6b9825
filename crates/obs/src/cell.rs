//! Padded per-worker counter cells.
//!
//! Each shard has exactly one [`WorkerCell`]. Its worker thread is the main
//! writer; a thread that walks a sub-ring probe for the shard itself adds to
//! the same cell, which the relaxed read-modify-writes make safe (and rarely
//! contended). Readers (the `live_stats()` scrape path) only load. The cell
//! is over-aligned so two shards' cells never share a cache line even when
//! stored contiguously.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::hist::{AtomicHistogram, HistogramSnapshot};

/// Why a shard worker closed a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushKind {
    /// The batch reached its size target.
    Size,
    /// The queue ran dry short of the size target. Counted under the
    /// exported name `deadline_flushes`, kept from when a timer closed
    /// short batches so scrapers and the benchmark keep reading it.
    QueueDry,
    /// The worker was told to shut down mid-batch.
    Shutdown,
}

/// A padded, lock-free bundle of one worker's counters and latency histogram.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct WorkerCell {
    jobs: AtomicU64,
    batches: AtomicU64,
    keys: AtomicU64,
    matches: AtomicU64,
    size_flushes: AtomicU64,
    deadline_flushes: AtomicU64,
    shutdown_flushes: AtomicU64,
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
    write_ops: AtomicU64,
    write_applied: AtomicU64,
    write_batches: AtomicU64,
    write_freed: AtomicU64,
    latency: AtomicHistogram,
}

#[inline]
fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl WorkerCell {
    /// A fresh all-zero cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count `n` admitted jobs (request parts).
    #[inline]
    pub fn add_jobs(&self, n: u64) {
        self.jobs.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `keys` probed keys and one completed batch flushed for `kind`.
    #[inline]
    pub fn add_batch(&self, keys: u64, kind: FlushKind) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.keys.fetch_add(keys, Ordering::Relaxed);
        let counter = match kind {
            FlushKind::Size => &self.size_flushes,
            FlushKind::QueueDry => &self.deadline_flushes,
            FlushKind::Shutdown => &self.shutdown_flushes,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` emitted matches (or scan entries).
    #[inline]
    pub fn add_matches(&self, n: u64) {
        self.matches.fetch_add(n, Ordering::Relaxed);
    }

    /// Accumulate time spent walking the index.
    #[inline]
    pub fn add_busy(&self, d: Duration) {
        self.busy_ns.fetch_add(dur_ns(d), Ordering::Relaxed);
    }

    /// Accumulate time spent parked on the queue.
    #[inline]
    pub fn add_idle(&self, d: Duration) {
        self.idle_ns.fetch_add(dur_ns(d), Ordering::Relaxed);
    }

    /// Count one applied write batch: `ops` individual write operations
    /// of which `applied` took effect (an insert always applies; a
    /// delete/update of an absent key is a miss), freeing `freed` index
    /// node slots.
    #[inline]
    pub fn add_write_batch(&self, ops: u64, applied: u64, freed: u64) {
        self.write_batches.fetch_add(1, Ordering::Relaxed);
        self.write_ops.fetch_add(ops, Ordering::Relaxed);
        self.write_applied.fetch_add(applied, Ordering::Relaxed);
        self.write_freed.fetch_add(freed, Ordering::Relaxed);
    }

    /// Record one end-to-end request latency observed at this worker.
    #[inline]
    pub fn record_latency(&self, d: Duration) {
        self.latency.record(dur_ns(d));
    }

    /// The cell's latency histogram.
    pub fn latency(&self) -> &AtomicHistogram {
        &self.latency
    }

    /// Read every counter without resetting anything.
    pub fn snapshot(&self) -> WorkerCellSnapshot {
        WorkerCellSnapshot {
            jobs: self.jobs.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            keys: self.keys.load(Ordering::Relaxed),
            matches: self.matches.load(Ordering::Relaxed),
            size_flushes: self.size_flushes.load(Ordering::Relaxed),
            deadline_flushes: self.deadline_flushes.load(Ordering::Relaxed),
            shutdown_flushes: self.shutdown_flushes.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            idle_ns: self.idle_ns.load(Ordering::Relaxed),
            write_ops: self.write_ops.load(Ordering::Relaxed),
            write_applied: self.write_applied.load(Ordering::Relaxed),
            write_batches: self.write_batches.load(Ordering::Relaxed),
            write_freed: self.write_freed.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
        }
    }
}

/// Point-in-time copy of a [`WorkerCell`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerCellSnapshot {
    /// Admitted jobs (request parts).
    pub jobs: u64,
    /// Completed batches.
    pub batches: u64,
    /// Probed keys.
    pub keys: u64,
    /// Emitted matches / scan entries.
    pub matches: u64,
    /// Batches flushed because they reached the size target.
    pub size_flushes: u64,
    /// Batches closed short of the size target because the queue ran
    /// dry (the name predates the rule: no timer is involved).
    pub deadline_flushes: u64,
    /// Batches flushed by shutdown.
    pub shutdown_flushes: u64,
    /// Nanoseconds spent walking the index.
    pub busy_ns: u64,
    /// Nanoseconds spent parked on the queue.
    pub idle_ns: u64,
    /// Individual write operations (insert/delete/update) applied at
    /// this worker's shard.
    pub write_ops: u64,
    /// Write operations that took effect (inserts always; deletes and
    /// updates only when the key existed).
    pub write_applied: u64,
    /// Write batches applied at batch barriers.
    pub write_batches: u64,
    /// Index node slots the applied writes freed.
    pub write_freed: u64,
    /// End-to-end request latencies observed at this worker.
    pub latency: HistogramSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_counters_accumulate() {
        let cell = WorkerCell::new();
        cell.add_jobs(3);
        cell.add_batch(64, FlushKind::Size);
        cell.add_batch(5, FlushKind::QueueDry);
        cell.add_batch(1, FlushKind::Shutdown);
        cell.add_matches(17);
        cell.add_busy(Duration::from_micros(10));
        cell.add_idle(Duration::from_micros(4));
        cell.add_write_batch(8, 6, 3);
        cell.add_write_batch(2, 2, 0);
        cell.record_latency(Duration::from_micros(1));
        let s = cell.snapshot();
        assert_eq!(s.jobs, 3);
        assert_eq!(s.batches, 3);
        assert_eq!(s.keys, 70);
        assert_eq!(s.matches, 17);
        assert_eq!(s.size_flushes, 1);
        assert_eq!(s.deadline_flushes, 1);
        assert_eq!(s.shutdown_flushes, 1);
        assert_eq!(s.busy_ns, 10_000);
        assert_eq!(s.idle_ns, 4_000);
        assert_eq!(s.write_ops, 10);
        assert_eq!(s.write_applied, 8);
        assert_eq!(s.write_batches, 2);
        assert_eq!(s.write_freed, 3);
        assert_eq!(s.latency.count(), 1);
    }

    #[test]
    fn cells_are_padded_to_avoid_false_sharing() {
        assert!(std::mem::align_of::<WorkerCell>() >= 128);
        let fresh = WorkerCell::new().snapshot();
        assert_eq!(fresh, WorkerCellSnapshot::default());
    }
}
