//! Bounded per-shard request queues with blocking backpressure and
//! poison-pill shutdown.
//!
//! Capacity is counted in *keys*, not jobs: a shard's queue admits new
//! work until `capacity_keys` keys are waiting, then
//! [`push`](ShardQueue::push) blocks the submitting client — the
//! service-level analogue of the accelerator's 2-entry inter-unit
//! queues stalling the dispatcher. One oversized job (more keys than the
//! whole capacity) is admitted when the queue is empty, so a request can
//! never deadlock against its own size.
//!
//! The queue also knows when its shard is [`idle`](ShardQueue::idle) —
//! the one moment a submitter may apply a sub-ring write itself:
//! nothing submitted earlier to the shard is still outstanding.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use widx_core::POISON_KEY;
use widx_soft::ScanRange;

use crate::request::{ResponseState, WriteOp};

/// One unit of shard work.
pub(crate) enum Job {
    /// Probe `entries` (`(probe row, key)` pairs) on behalf of `reply`.
    Probe {
        entries: Vec<(u32, u64)>,
        reply: Arc<ResponseState>,
    },
    /// Run `scans` (`(scatter rank, range)` pairs) on behalf of `reply`
    /// — one cursor per scan on the shard's B+-tree walker. Only range
    /// workers' queues carry this variant.
    Scan {
        scans: Vec<(u32, ScanRange)>,
        reply: Arc<ResponseState>,
    },
    /// Apply a write part under the shard's write guard at the worker's
    /// next batch barrier (stashed, as is, while a batch is open).
    Write(WriteJob),
    /// Poison pill: the worker finishes queued work, then halts. Carries
    /// [`widx_core::POISON_KEY`] to mirror the accelerator's termination
    /// protocol (being an enum variant, it cannot collide with a real
    /// probe of key `u64::MAX` the way a reserved key value would).
    Poison { key: u64 },
}

/// One shard's part of a write request.
pub(crate) struct WriteJob {
    /// `(request op index, op)` pairs, every key owned by this shard.
    pub(crate) ops: Vec<(u32, WriteOp)>,
    /// Marks the authoritative tier: hash-tier parts report per-op
    /// `(op, key, applied)` rows back to the reply; ordered-tier parts
    /// apply the same mutations but complete empty (the hash tier owns
    /// the acks, so a dual-tier write never double-reports).
    pub(crate) ack: bool,
    pub(crate) reply: Arc<ResponseState>,
}

/// A planned part: its shard (a scan's is not derivable), queue and job.
pub(crate) type Part<'q> = (usize, &'q ShardQueue, Job);

impl Job {
    /// Queue-occupancy weight: probe keys, scan cursors, or write ops —
    /// all are "walker slots' worth of work" for capacity accounting.
    fn key_count(&self) -> usize {
        match self {
            Job::Probe { entries, .. } => entries.len(),
            Job::Scan { scans, .. } => scans.len(),
            Job::Write(write) => write.ops.len(),
            Job::Poison { .. } => 0,
        }
    }
}

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The service has begun shutdown; no new work is accepted.
    Stopped,
}

/// Why a non-blocking push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TryPushError {
    /// A target queue is over capacity, or blocked pushers hold earlier
    /// FIFO tickets (a try-push never jumps the admission queue).
    Full,
}

/// Atomically try-pushes every `(queue, job)` pair without blocking:
/// all queues are locked together, admission is checked on every part,
/// and jobs are enqueued only when every one fits — all or nothing.
/// This is the submission primitive a non-blocking front-end needs to
/// turn queue backpressure into a typed `Busy` reply instead of a
/// stalled event loop.
///
/// Callers must pass queues in a single consistent order (shard order)
/// so concurrent multi-queue pushers cannot deadlock, and must hold the
/// service's stop gate open (read-locked), which is what keeps the
/// queues unpoisoned for the duration of the call.
pub(crate) fn try_push_all(parts: Vec<(&ShardQueue, Job)>) -> Result<(), TryPushError> {
    let mut guards = Vec::with_capacity(parts.len());
    for (queue, job) in &parts {
        let inner = queue.inner.lock().expect("queue lock");
        // Admission mirrors `push` minus the blocking: the job must fit
        // (or be oversized into an empty queue), and nobody may already
        // be waiting on a ticket. Poisoning cannot race in here — it
        // only happens under the stop gate's write guard.
        debug_assert!(!inner.poisoned, "try_push raced the stop gate");
        let no_waiters = inner.serving == inner.next_ticket;
        let fits =
            inner.queued_keys + job.key_count() <= queue.capacity_keys || inner.jobs.is_empty();
        if inner.poisoned || !no_waiters || !fits {
            return Err(TryPushError::Full); // guards drop; nothing was enqueued
        }
        guards.push(inner);
    }
    for ((queue, job), mut inner) in parts.into_iter().zip(guards) {
        inner.queued_keys += job.key_count();
        inner.jobs.push_back(job);
        queue.wake_worker(&inner);
    }
    Ok(())
}

struct QueueInner {
    jobs: VecDeque<Job>,
    queued_keys: usize,
    poisoned: bool,
    /// FIFO push fairness: next ticket to hand out / ticket being served.
    next_ticket: u64,
    serving: u64,
    /// The worker is waiting in `pop` holding nothing: set before the
    /// condvar wait, cleared when a job is taken.
    parked: bool,
}

/// A bounded MPSC job queue for one shard worker.
pub(crate) struct ShardQueue {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity_keys: usize,
}

impl ShardQueue {
    pub(crate) fn new(capacity_keys: usize) -> ShardQueue {
        assert!(capacity_keys > 0, "queue capacity must be positive");
        ShardQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                queued_keys: 0,
                poisoned: false,
                next_ticket: 0,
                serving: 0,
                parked: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity_keys,
        }
    }

    /// Enqueues a probe job, blocking while the queue is over capacity
    /// (backpressure). Blocked pushers are admitted strictly FIFO (a
    /// ticket lock), so an oversized job cannot be starved by a stream
    /// of small ones slipping in whenever a key's worth of space opens.
    /// Fails once the queue has been poisoned.
    pub(crate) fn push(&self, job: Job) -> Result<(), PushError> {
        let n = job.key_count();
        let mut inner = self.inner.lock().expect("queue lock");
        let ticket = inner.next_ticket;
        inner.next_ticket += 1;
        loop {
            if inner.serving == ticket {
                if inner.poisoned {
                    inner.serving += 1;
                    self.wake_pushers(&inner);
                    return Err(PushError::Stopped);
                }
                let fits = inner.queued_keys + n <= self.capacity_keys;
                // Escape hatch: one oversized job may enter an empty
                // queue, so a job larger than the whole capacity can
                // never deadlock against it.
                if fits || inner.jobs.is_empty() {
                    inner.jobs.push_back(job);
                    inner.queued_keys += n;
                    inner.serving += 1;
                    self.wake_worker(&inner);
                    // Hand the turn to the next waiting ticket.
                    self.wake_pushers(&inner);
                    return Ok(());
                }
            }
            inner = self.not_full.wait(inner).expect("queue wait");
        }
    }

    /// Enqueues the poison pill (ignores capacity; marks the queue so
    /// later pushes fail fast).
    pub(crate) fn push_poison(&self) {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.poisoned {
            return;
        }
        inner.poisoned = true;
        inner.jobs.push_back(Job::Poison { key: POISON_KEY });
        self.not_empty.notify_all();
        // Clients blocked on a full queue must wake to observe Stopped.
        self.not_full.notify_all();
    }

    /// Takes the head job off the locked queue, handing its keys'
    /// capacity back to blocked pushers.
    fn take(&self, inner: &mut QueueInner) -> Option<Job> {
        let job = inner.jobs.pop_front()?;
        inner.parked = false;
        inner.queued_keys -= job.key_count();
        self.wake_pushers(inner);
        Some(job)
    }

    /// Rings `not_full` only when a pusher is parked on it — a ticket
    /// is outstanding — because std's `notify_all` is a futex syscall
    /// even with nobody to wake, and a pusher parks only under
    /// backpressure: an uncontended push/pop pair pays for none.
    fn wake_pushers(&self, inner: &QueueInner) {
        if inner.next_ticket != inner.serving {
            self.not_full.notify_all();
        }
    }

    /// Rings `not_empty` only when the worker is parked on it, for the
    /// same reason: a worker that is not parked takes the job on its
    /// next `pop` / `try_pop`, under the lock this push holds.
    fn wake_worker(&self, inner: &QueueInner) {
        if inner.parked {
            self.not_empty.notify_one();
        }
    }

    /// Blocking pop: waits until a job is available.
    pub(crate) fn pop(&self) -> Job {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(job) = self.take(&mut inner) {
                return job;
            }
            inner.parked = true;
            inner = self.not_empty.wait(inner).expect("queue wait");
        }
    }

    /// Non-blocking pop: `None` the moment the queue is observed empty.
    /// A worker that already holds a job uses this to admit whatever
    /// else is *already queued* — it never waits for company.
    pub(crate) fn try_pop(&self) -> Option<Job> {
        self.take(&mut self.inner.lock().expect("queue lock"))
    }

    /// Whether the shard is idle: nothing queued, no pusher waiting on a
    /// ticket, and the worker parked in [`pop`](Self::pop) — so it holds
    /// no job either (a halted worker never parks again).
    pub(crate) fn idle(&self) -> bool {
        let inner = self.inner.lock().expect("queue lock");
        inner.parked && inner.jobs.is_empty() && inner.serving == inner.next_ticket
    }

    /// Keys currently waiting (for occupancy/backlog introspection).
    pub(crate) fn backlog_keys(&self) -> usize {
        self.inner.lock().expect("queue lock").queued_keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestKind;
    use std::time::{Duration, Instant};

    fn probe_job(keys: &[u64]) -> Job {
        Job::Probe {
            entries: keys
                .iter()
                .enumerate()
                .map(|(i, k)| (i as u32, *k))
                .collect(),
            reply: Arc::new(ResponseState::new(RequestKind::MultiLookup, 1)),
        }
    }

    #[test]
    fn fifo_order_and_key_accounting() {
        let q = ShardQueue::new(16);
        q.push(probe_job(&[1, 2])).unwrap();
        q.push(probe_job(&[3])).unwrap();
        assert_eq!(q.backlog_keys(), 3);
        match q.pop() {
            Job::Probe { entries, .. } => assert_eq!(entries.len(), 2),
            _ => panic!("unexpected job kind"),
        }
        assert_eq!(q.backlog_keys(), 1);
    }

    #[test]
    fn scan_jobs_count_cursors_toward_capacity() {
        let q = ShardQueue::new(4);
        let reply = Arc::new(ResponseState::new(RequestKind::RangeScan { limit: 9 }, 1));
        q.push(Job::Scan {
            scans: vec![(0, ScanRange::new(1, 5)), (1, ScanRange::new(7, 9))],
            reply,
        })
        .unwrap();
        assert_eq!(q.backlog_keys(), 2, "one unit per cursor");
        match q.pop() {
            Job::Scan { scans, .. } => assert_eq!(scans.len(), 2),
            _ => panic!("unexpected job kind"),
        }
        assert_eq!(q.backlog_keys(), 0);
    }

    #[test]
    fn write_jobs_count_ops_toward_capacity() {
        let q = ShardQueue::new(4);
        let reply = Arc::new(ResponseState::new(RequestKind::Write { ops: 3 }, 1));
        q.push(Job::Write(WriteJob {
            ops: vec![
                (0, WriteOp::Insert { key: 1, payload: 2 }),
                (1, WriteOp::Delete { key: 9 }),
                (2, WriteOp::Update { key: 1, payload: 3 }),
            ],
            ack: true,
            reply,
        }))
        .unwrap();
        assert_eq!(q.backlog_keys(), 3, "one unit per write op");
        match q.pop() {
            Job::Write(write) => {
                assert_eq!(write.ops.len(), 3);
                assert!(write.ack);
            }
            _ => panic!("unexpected job kind"),
        }
        assert_eq!(q.backlog_keys(), 0);
    }

    #[test]
    fn backpressure_blocks_until_pop() {
        let q = Arc::new(ShardQueue::new(4));
        q.push(probe_job(&[1, 2, 3, 4])).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || {
            q2.push(probe_job(&[5, 6])).unwrap();
            Instant::now()
        });
        std::thread::sleep(Duration::from_millis(50));
        let popped_at = Instant::now();
        let _ = q.pop();
        let pushed_at = pusher.join().unwrap();
        assert!(
            pushed_at >= popped_at,
            "push must have blocked until space opened"
        );
        assert_eq!(q.backlog_keys(), 2);
    }

    #[test]
    fn oversized_job_admitted_when_empty() {
        let q = ShardQueue::new(2);
        q.push(probe_job(&[1, 2, 3, 4, 5])).unwrap();
        assert_eq!(q.backlog_keys(), 5);
    }

    #[test]
    fn poison_drains_after_queued_work() {
        let q = ShardQueue::new(8);
        q.push(probe_job(&[1])).unwrap();
        q.push_poison();
        assert!(matches!(q.pop(), Job::Probe { .. }), "work before poison");
        match q.pop() {
            Job::Poison { key } => assert_eq!(key, POISON_KEY),
            _ => panic!("expected poison"),
        }
        assert_eq!(q.push(probe_job(&[9])), Err(PushError::Stopped));
    }

    #[test]
    fn oversized_push_is_not_starved_by_small_ones() {
        // cap 4; an oversized job blocks, then a small job arrives. FIFO
        // tickets require the oversized job to be admitted first even
        // though the small one would fit sooner.
        let q = Arc::new(ShardQueue::new(4));
        q.push(probe_job(&[1, 2, 3])).unwrap();
        let qa = Arc::clone(&q);
        let a = std::thread::spawn(move || qa.push(probe_job(&[10; 6])).unwrap());
        std::thread::sleep(Duration::from_millis(30));
        let qb = Arc::clone(&q);
        let b = std::thread::spawn(move || qb.push(probe_job(&[7])).unwrap());
        std::thread::sleep(Duration::from_millis(30));

        // Drain: first the pre-filled job, then A's oversized job, then B's.
        let sizes: Vec<usize> = (0..3)
            .map(|_| match q.pop() {
                Job::Probe { entries, .. } => entries.len(),
                _ => panic!("unexpected job kind"),
            })
            .collect();
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(sizes, vec![3, 6, 1], "FIFO admission order");
    }

    #[test]
    fn try_push_all_is_all_or_nothing() {
        let roomy = ShardQueue::new(16);
        let tight = ShardQueue::new(2);
        tight.push(probe_job(&[1, 2])).unwrap(); // tight is now full
        let parts = vec![(&roomy, probe_job(&[5])), (&tight, probe_job(&[6]))];
        assert_eq!(try_push_all(parts), Err(TryPushError::Full));
        assert_eq!(roomy.backlog_keys(), 0, "no partial enqueue");
        let _ = tight.pop();
        let parts = vec![(&roomy, probe_job(&[5])), (&tight, probe_job(&[6]))];
        assert_eq!(try_push_all(parts), Ok(()));
        assert_eq!((roomy.backlog_keys(), tight.backlog_keys()), (1, 1));
    }

    #[test]
    fn try_push_all_admits_oversized_into_empty_queue() {
        let q = ShardQueue::new(2);
        assert_eq!(
            try_push_all(vec![(&q, probe_job(&[1, 2, 3, 4, 5]))]),
            Ok(())
        );
        assert_eq!(q.backlog_keys(), 5);
        // ... but refuses anything more while the queue is over capacity.
        assert_eq!(
            try_push_all(vec![(&q, probe_job(&[9]))]),
            Err(TryPushError::Full)
        );
    }

    #[test]
    fn try_push_all_defers_to_waiting_tickets() {
        // A blocked pusher holds a FIFO ticket; a try-push that would
        // otherwise fit must yield to it rather than jump the queue.
        let q = Arc::new(ShardQueue::new(4));
        q.push(probe_job(&[1, 2, 3, 4])).unwrap();
        let q2 = Arc::clone(&q);
        let blocked = std::thread::spawn(move || q2.push(probe_job(&[5, 6, 7])).unwrap());
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            try_push_all(vec![(&*q, probe_job(&[8]))]),
            Err(TryPushError::Full)
        );
        let _ = q.pop();
        blocked.join().unwrap();
        assert_eq!(q.backlog_keys(), 3);
        assert_eq!(try_push_all(vec![(&*q, probe_job(&[8]))]), Ok(()));
    }

    /// Spins until the shard reports idle — the worker thread is on its
    /// way into `pop`; this only bridges its scheduling delay.
    fn await_idle(q: &ShardQueue) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !q.idle() {
            assert!(Instant::now() < deadline, "the worker never parked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn idle_means_parked_on_an_empty_queue_holding_nothing() {
        use std::sync::mpsc;
        let q = Arc::new(ShardQueue::new(8));
        assert!(!q.idle(), "no worker has parked yet");

        // The worker: pops, reports what it holds, and keeps holding it
        // until told to finish — then goes back to `pop`.
        let (holding_tx, holding) = mpsc::channel();
        let (finish, finished) = mpsc::channel::<()>();
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || loop {
                let job = q.pop();
                let poison = matches!(job, Job::Poison { .. });
                holding_tx.send(poison).expect("test alive");
                if poison {
                    return;
                }
                finished.recv().expect("test alive");
                drop(job);
            })
        };
        await_idle(&q);

        q.push(probe_job(&[1])).unwrap();
        assert!(!q.idle(), "a queued job is outstanding work");
        assert!(!holding.recv().unwrap());
        assert_eq!(q.backlog_keys(), 0);
        assert!(!q.idle(), "a held job counts: the worker is not parked");
        finish.send(()).unwrap();
        await_idle(&q);

        q.push_poison();
        assert!(!q.idle(), "the pill is queued");
        assert!(holding.recv().unwrap());
        worker.join().unwrap();
        assert!(!q.idle(), "a halted worker never parks again");
    }

    #[test]
    fn pushes_wake_a_parked_worker_every_round() {
        // Each round waits for the worker to park, then pushes (blocking
        // push and try-push alternating): a skipped wake would strand
        // the job and miss the deadline.
        use std::sync::mpsc;
        let q = Arc::new(ShardQueue::new(8));
        let (ack, acks) = mpsc::channel();
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || loop {
                if matches!(q.pop(), Job::Poison { .. }) {
                    return;
                }
                ack.send(()).expect("test alive");
            })
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        for round in 0..1000 {
            await_idle(&q);
            if round % 2 == 0 {
                q.push(probe_job(&[round])).unwrap();
            } else {
                try_push_all(vec![(&*q, probe_job(&[round]))]).unwrap();
            }
            let left = deadline.saturating_duration_since(Instant::now());
            acks.recv_timeout(left)
                .unwrap_or_else(|_| panic!("round {round}: the parked worker never woke"));
        }
        q.push_poison();
        worker.join().unwrap();
    }

    #[test]
    fn idle_is_false_while_a_pusher_waits_on_a_ticket() {
        // An outstanding ticket is work submitted earlier, even in the
        // instant the queue is empty and the worker already parked.
        let q = ShardQueue::new(8);
        {
            let mut inner = q.inner.lock().unwrap();
            inner.parked = true;
            inner.next_ticket += 1;
        }
        assert!(!q.idle());
        q.inner.lock().unwrap().serving += 1;
        assert!(q.idle());
    }

    #[test]
    fn try_pop_never_blocks() {
        // An empty queue answers at once — there is no clock to wait out.
        let q = ShardQueue::new(8);
        assert!(q.try_pop().is_none());
        q.push(probe_job(&[1])).unwrap();
        assert!(matches!(q.try_pop(), Some(Job::Probe { .. })));
        assert!(q.try_pop().is_none());
    }

    #[test]
    fn try_pop_keeps_fifo_and_key_accounting() {
        let q = ShardQueue::new(16);
        q.push(probe_job(&[1, 2])).unwrap();
        q.push(probe_job(&[3])).unwrap();
        q.push(probe_job(&[4, 5, 6])).unwrap();
        let mut sizes = Vec::new();
        while let Some(Job::Probe { entries, .. }) = q.try_pop() {
            sizes.push((entries.len(), q.backlog_keys()));
        }
        assert_eq!(sizes, vec![(2, 4), (1, 3), (3, 0)]);
    }

    #[test]
    fn try_pop_releases_a_blocked_push() {
        let q = Arc::new(ShardQueue::new(4));
        q.push(probe_job(&[1, 2, 3, 4])).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push(probe_job(&[5, 6])).unwrap());
        // Wait until the pusher holds a ticket it cannot redeem: seen
        // under the lock, that means it is parked on `not_full`.
        let parked = || {
            let inner = q.inner.lock().unwrap();
            inner.next_ticket > inner.serving
        };
        while !parked() {
            std::thread::yield_now();
        }
        assert!(matches!(q.try_pop(), Some(Job::Probe { entries, .. }) if entries.len() == 4));
        pusher.join().unwrap();
        assert_eq!(q.backlog_keys(), 2);
    }

    #[test]
    fn try_pop_yields_poison_only_after_queued_work() {
        let q = ShardQueue::new(8);
        q.push(probe_job(&[1])).unwrap();
        q.push(probe_job(&[2])).unwrap();
        q.push_poison();
        assert!(matches!(q.try_pop(), Some(Job::Probe { .. })));
        assert!(matches!(q.try_pop(), Some(Job::Probe { .. })));
        assert!(matches!(q.try_pop(), Some(Job::Poison { .. })));
        assert!(q.try_pop().is_none());
    }
}
