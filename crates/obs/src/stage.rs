//! Stage-timing seam: attribute a request's life to pipeline phases.
//!
//! Every request passes through up to seven phases between its frame
//! leaving the socket and the reply bytes leaving the server. [`Stage`] is
//! the one vocabulary for that seam — aggregate histograms, profiling
//! windows and per-request trace spans all name their phases with it.
//! [`StageTimes`] holds one shared [`AtomicHistogram`] per phase; any thread
//! records into it lock-free and any observer snapshots it live.

use std::time::Duration;

use crate::hist::{AtomicHistogram, HistogramSnapshot};

/// The phases of a request's life, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Frame decoded off the socket up to submission into the service.
    /// Measured from the trace seam's two instants, so it is populated
    /// only for requests that carry a trace and reads zero in-process.
    NetRead,
    /// Submit to first admission by a worker (time spent in a shard queue).
    QueueWait,
    /// Batch open to batch close: admitting (and starting to walk) what
    /// was already queued. Workers never wait on a clock for company.
    BatchWait,
    /// Time spent actually walking the index, per batch.
    Walk,
    /// Time spent applying one write part to the index under the
    /// shard's write guard — by the shard's worker at a batch barrier, or
    /// by the submitter of a sub-ring write on an idle shard. Nobody
    /// else holds the guard, so this is pure mutation time.
    Write,
    /// First part completed to last part completed (cross-shard gather).
    Gather,
    /// Reply frame encoded to reply bytes flushed to the socket.
    ReplyWrite,
}

impl Stage {
    /// Number of stages; every per-stage array sizes itself from this.
    pub const COUNT: usize = Stage::ALL.len();

    /// All stages, in pipeline order.
    pub const ALL: [Stage; 7] = [
        Stage::NetRead,
        Stage::QueueWait,
        Stage::BatchWait,
        Stage::Walk,
        Stage::Write,
        Stage::Gather,
        Stage::ReplyWrite,
    ];

    /// Stable snake_case name, used as a key in the JSON documents.
    pub fn name(self) -> &'static str {
        match self {
            Stage::NetRead => "net_read",
            Stage::QueueWait => "queue_wait",
            Stage::BatchWait => "batch_wait",
            Stage::Walk => "walk",
            Stage::Write => "write",
            Stage::Gather => "gather",
            Stage::ReplyWrite => "reply_write",
        }
    }

    /// Position in [`Stage::ALL`] (the variants are declared in that order).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One shared latency histogram per [`Stage`].
#[derive(Debug, Default)]
pub struct StageTimes {
    hists: [AtomicHistogram; Stage::COUNT],
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

    /// Snapshot every stage without resetting any.
    pub fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            per: std::array::from_fn(|i| self.hists[i].snapshot()),
        }
    }
}

/// Point-in-time copy of every stage histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    per: [HistogramSnapshot; Stage::COUNT],
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
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(
                stage.index(),
                i,
                "ALL must list variants in declaration order"
            );
        }
        assert_eq!(
            names,
            [
                "net_read",
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
