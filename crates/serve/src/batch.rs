//! Batch closure: the one rule by which a shard worker decides whether
//! its open batch admits another queued job or closes now.
//!
//! Workers are *work-conserving*: a worker blocks only while it holds
//! nothing. Once it has a job it admits whatever else is **already
//! queued**, up to [`batch_size`](BatchPolicy::batch_size) keys, and
//! closes the batch the moment the queue is observed empty — as the
//! paper's dispatcher hands a key to whichever walker is free and never
//! waits on a clock. A lone request therefore pays no batching latency,
//! and batches grow with load by themselves: jobs queue while the
//! worker walks, and the next batch takes them all (more independent
//! probes in flight per walker pass — the paper's whole thesis).

use widx_obs::{FlushKind, Stage, ThreadProfiler};

use crate::queue::{Job, ShardQueue, WriteJob};

/// The batch-closure policy for one worker: a size target.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BatchPolicy {
    /// Close once this many keys are batched.
    batch_size: usize,
}

impl BatchPolicy {
    /// Creates a policy.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub(crate) fn new(batch_size: usize) -> BatchPolicy {
        assert!(batch_size > 0, "batch size must be positive");
        BatchPolicy { batch_size }
    }

    /// The close rule, called by the worker loop before every
    /// admission into a batch already holding `keys` keys: `Ok` is the
    /// next walker job to admit, `Err` closes the batch and says why —
    /// size target reached, queue dry, or poison pill.
    ///
    /// Writes never interleave an open walker batch: they are stashed
    /// into `writes`, in queue order, for the barrier right after the
    /// batch closes. Every job this takes off the queue is thus either
    /// returned or stashed — none is left behind when the batch closes.
    pub(crate) fn next_job(
        &self,
        keys: usize,
        queue: &ShardQueue,
        writes: &mut Vec<WriteJob>,
        prof: &mut ThreadProfiler,
    ) -> Result<Job, FlushKind> {
        loop {
            if keys >= self.batch_size {
                return Err(FlushKind::Size);
            }
            let mark = prof.mark();
            let next = queue.try_pop();
            prof.record(Stage::BatchWait, mark);
            match next {
                None => return Err(FlushKind::QueueDry),
                Some(Job::Poison { .. }) => return Err(FlushKind::Shutdown),
                Some(Job::Write(write)) => writes.push(write),
                Some(job) => return Ok(job),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::request::{RequestKind, ResponseState, WriteOp};

    fn probe_job(key: u64) -> Job {
        Job::Probe {
            entries: vec![(0, key)],
            reply: Arc::new(ResponseState::new(RequestKind::MultiLookup, 1)),
        }
    }

    fn write_job(key: u64) -> Job {
        Job::Write(WriteJob {
            ops: vec![(0, WriteOp::Delete { key })],
            ack: true,
            reply: Arc::new(ResponseState::new(RequestKind::Write { ops: 1 }, 1)),
        })
    }

    fn next(
        policy: BatchPolicy,
        keys: usize,
        queue: &ShardQueue,
        writes: &mut Vec<WriteJob>,
    ) -> Result<Job, FlushKind> {
        policy.next_job(keys, queue, writes, &mut ThreadProfiler::disabled())
    }

    #[test]
    fn size_flush_fires_at_target() {
        let p = BatchPolicy::new(8);
        let q = ShardQueue::new(64);
        let mut writes = Vec::new();
        q.push(probe_job(1)).unwrap();
        q.push(probe_job(2)).unwrap();
        assert!(matches!(next(p, 7, &q, &mut writes), Ok(Job::Probe { .. })));
        // At (or past) the target the batch closes with work still
        // queued: that job opens the next batch.
        assert!(matches!(next(p, 8, &q, &mut writes), Err(FlushKind::Size)));
        assert!(matches!(next(p, 64, &q, &mut writes), Err(FlushKind::Size)));
        assert_eq!(q.backlog_keys(), 1);
    }

    #[test]
    fn dry_queue_closes_a_short_batch_at_once() {
        let p = BatchPolicy::new(1000);
        let q = ShardQueue::new(64);
        let mut writes = Vec::new();
        assert!(matches!(
            next(p, 3, &q, &mut writes),
            Err(FlushKind::QueueDry)
        ));
    }

    #[test]
    fn writes_are_stashed_in_queue_order_never_admitted() {
        let p = BatchPolicy::new(1000);
        let q = ShardQueue::new(64);
        let mut writes = Vec::new();
        q.push(write_job(10)).unwrap();
        q.push(probe_job(1)).unwrap();
        q.push(write_job(11)).unwrap();
        assert!(matches!(next(p, 1, &q, &mut writes), Ok(Job::Probe { .. })));
        assert!(matches!(
            next(p, 2, &q, &mut writes),
            Err(FlushKind::QueueDry)
        ));
        let stashed: Vec<u64> = writes.iter().map(|w| w.ops[0].1.key()).collect();
        assert_eq!(stashed, vec![10, 11]);
    }

    #[test]
    fn poison_closes_the_batch_after_queued_work() {
        let p = BatchPolicy::new(1000);
        let q = ShardQueue::new(64);
        let mut writes = Vec::new();
        q.push(probe_job(1)).unwrap();
        q.push(write_job(10)).unwrap();
        q.push_poison();
        assert!(matches!(next(p, 1, &q, &mut writes), Ok(Job::Probe { .. })));
        assert!(matches!(
            next(p, 2, &q, &mut writes),
            Err(FlushKind::Shutdown)
        ));
        assert_eq!(writes.len(), 1, "the write ahead of the pill is kept");
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_rejected() {
        let _ = BatchPolicy::new(0);
    }
}
