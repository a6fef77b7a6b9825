//! Stage-timing seam: attribute a request's life to pipeline phases.
//!
//! Every request passes through up to five phases between `submit` and the
//! reply bytes leaving the server. [`StageTimes`] holds one shared
//! [`AtomicHistogram`] per phase; any thread records into it lock-free and
//! any observer snapshots it live.

use std::time::Duration;

use crate::hist::{AtomicHistogram, HistogramSnapshot};

/// The phases of a request's life, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Submit to first admission by a worker (time spent in a shard queue).
    QueueWait,
    /// Batch open to batch close: admitting (and starting to walk) what
    /// was already queued. Workers never wait on a clock for company.
    BatchWait,
    /// Time spent actually walking the index, per batch.
    Walk,
    /// Time spent applying a write batch to the index (the shard worker
    /// is its shard's sole writer, so this is pure mutation time).
    Write,
    /// First part completed to last part completed (cross-shard gather).
    Gather,
    /// Reply frame encoded to reply bytes flushed to the socket.
    ReplyWrite,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::QueueWait,
        Stage::BatchWait,
        Stage::Walk,
        Stage::Write,
        Stage::Gather,
        Stage::ReplyWrite,
    ];

    /// Stable snake_case name, used in JSON and Prometheus exposition.
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::BatchWait => "batch_wait",
            Stage::Walk => "walk",
            Stage::Write => "write",
            Stage::Gather => "gather",
            Stage::ReplyWrite => "reply_write",
        }
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            Stage::QueueWait => 0,
            Stage::BatchWait => 1,
            Stage::Walk => 2,
            Stage::Write => 3,
            Stage::Gather => 4,
            Stage::ReplyWrite => 5,
        }
    }
}

/// One shared latency histogram per [`Stage`].
#[derive(Debug, Default)]
pub struct StageTimes {
    hists: [AtomicHistogram; 6],
}

impl StageTimes {
    /// Fresh, all-empty stage histograms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample for `stage`.
    #[inline]
    pub fn record(&self, stage: Stage, d: Duration) {
        self.hists[stage.index()].record_duration(d);
    }

    /// The histogram backing `stage`.
    pub fn hist(&self, stage: Stage) -> &AtomicHistogram {
        &self.hists[stage.index()]
    }

    /// Snapshot all six stages without resetting them.
    pub fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            per: std::array::from_fn(|i| self.hists[i].snapshot()),
        }
    }
}

/// Point-in-time copy of all six stage histograms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    per: [HistogramSnapshot; 6],
}

impl StageSnapshot {
    /// The snapshot for one stage.
    pub fn get(&self, stage: Stage) -> &HistogramSnapshot {
        &self.per[stage.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_record_independently() {
        let times = StageTimes::new();
        times.record(Stage::QueueWait, Duration::from_nanos(100));
        times.record(Stage::Walk, Duration::from_nanos(200));
        times.record(Stage::Walk, Duration::from_nanos(300));
        let snap = times.snapshot();
        assert_eq!(snap.get(Stage::QueueWait).count(), 1);
        assert_eq!(snap.get(Stage::Walk).count(), 2);
        assert_eq!(snap.get(Stage::Walk).sum_ns, 500);
        assert_eq!(snap.get(Stage::Gather).count(), 0);
        assert_eq!(snap.get(Stage::ReplyWrite).count(), 0);
        assert_eq!(snap.get(Stage::BatchWait), &HistogramSnapshot::default());
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "queue_wait",
                "batch_wait",
                "walk",
                "write",
                "gather",
                "reply_write"
            ]
        );
    }
}
