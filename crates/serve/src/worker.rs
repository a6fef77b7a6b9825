//! The shard workers: one thread per shard, draining a bounded queue
//! into batches and driving a resumable walker over them — software
//! "four walkers behind one dispatcher", where the dispatcher is the
//! shard router and the walker count is the in-flight depth.
//!
//! Two worker flavours share the batching skeleton: *point* workers
//! drive an [`AmacWalker`] over a hash shard, *range* workers drive a
//! [`BTreeRangeWalker`] over an ordered (B+-tree) shard, keeping several
//! resumable scan cursors in flight per batch.
//!
//! Workers are work-conserving: a worker blocks (`pop`) only while it
//! holds nothing. Holding a job, it admits what is already queued and
//! closes the batch when [`BatchPolicy::next_job`] — the one close rule
//! both loops call — reports the size target reached, the queue dry, or
//! the poison pill. No timer exists; batches grow with load because
//! jobs queue while the worker walks.
//!
//! Workers own no private counters: everything is published straight
//! into the worker's lock-free [`WorkerCell`] (plus the shared
//! [`StageTimes`] seam) as batches complete, so a live scrape sees the
//! same numbers a shutdown join would.
//!
//! # Writes and epochs
//!
//! The serving tier is mutable: each worker is the *sole writer* for
//! its shard. Walker batches run under the shard's read guard with an
//! epoch pinned; [`Job::Write`] batches are applied under the write
//! guard at batch barriers (never mid-batch), then the worker advances
//! the epoch and reclaims nodes the mutations retired. The shard lock
//! is structurally uncontended — its job is memory-model visibility,
//! not writer arbitration — and the epoch pin is what keeps resumable
//! cursor state (leaf hints held *across* batches by the soft tier)
//! safe to validate against retired-but-unreclaimed nodes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use widx_db::epoch::EpochDomain;
use widx_obs::{FlushKind, ProfCell, Stage, StageTimes, ThreadProfiler, TraceStage, WorkerCell};
use widx_soft::{AmacWalker, BTreeRangeWalker, ScanRange};

use crate::batch::BatchPolicy;
use crate::ordered::OrderedShardedIndex;
use crate::queue::{Job, ShardQueue};
use crate::request::{ResponseState, RoutedMatch, WriteOp};
use crate::shard::ShardedIndex;

/// Everything a point-probe worker thread needs.
pub(crate) struct WorkerContext {
    pub(crate) shard: usize,
    pub(crate) queue: Arc<ShardQueue>,
    pub(crate) sharded: Arc<ShardedIndex>,
    pub(crate) policy: BatchPolicy,
    pub(crate) inflight: usize,
    /// This worker's registry cell — the single home of its counters.
    pub(crate) cell: Arc<WorkerCell>,
    /// The service-wide stage-timing seam.
    pub(crate) stages: Arc<StageTimes>,
    /// Hardware-profiling cell, when the service enabled profiling: the
    /// worker opens a per-thread counter group and publishes stage
    /// windows here.
    pub(crate) prof: Option<Arc<ProfCell>>,
    /// The service-wide reclamation domain: pinned per walker batch,
    /// advanced (and reclaimed against) after write barriers.
    pub(crate) domain: Arc<EpochDomain>,
}

/// Everything a range-scan worker thread needs.
pub(crate) struct RangeWorkerContext {
    pub(crate) shard: usize,
    pub(crate) queue: Arc<ShardQueue>,
    pub(crate) ordered: Arc<OrderedShardedIndex>,
    pub(crate) policy: BatchPolicy,
    pub(crate) inflight: usize,
    /// Entries per chunk pushed to the seam on streaming scans.
    pub(crate) stream_chunk: usize,
    /// This worker's registry cell — the single home of its counters.
    pub(crate) cell: Arc<WorkerCell>,
    /// The service-wide stage-timing seam.
    pub(crate) stages: Arc<StageTimes>,
    /// Hardware-profiling cell, when the service enabled profiling.
    pub(crate) prof: Option<Arc<ProfCell>>,
    /// The service-wide reclamation domain (see [`WorkerContext`]).
    pub(crate) domain: Arc<EpochDomain>,
}

/// A write part stashed mid-batch, applied at the next batch barrier.
pub(crate) struct WriteJob {
    pub(crate) ops: Vec<(u32, WriteOp)>,
    pub(crate) ack: bool,
    pub(crate) reply: Arc<ResponseState>,
}

/// Anything a write barrier can mutate: both index flavours expose the
/// same insert/delete/update/reclaim surface, so one barrier routine
/// serves both worker kinds.
trait WriteTarget {
    fn apply(&mut self, op: WriteOp) -> bool;
    fn reclaim_retired(&mut self) -> usize;
}

impl WriteTarget for widx_db::index::HashIndex {
    fn apply(&mut self, op: WriteOp) -> bool {
        match op {
            WriteOp::Insert { key, payload } => {
                self.insert(key, payload);
                true
            }
            WriteOp::Delete { key } => self.delete(key) > 0,
            WriteOp::Update { key, payload } => self.update(key, payload),
        }
    }

    fn reclaim_retired(&mut self) -> usize {
        self.reclaim()
    }
}

impl WriteTarget for widx_db::index::BTreeIndex {
    fn apply(&mut self, op: WriteOp) -> bool {
        match op {
            WriteOp::Insert { key, payload } => {
                self.insert(key, payload);
                true
            }
            WriteOp::Delete { key } => self.delete(key) > 0,
            WriteOp::Update { key, payload } => self.update(key, payload),
        }
    }

    fn reclaim_retired(&mut self) -> usize {
        self.reclaim()
    }
}

/// Applies stashed write parts under the caller's write guard — the
/// batch barrier. Per part: apply every op, publish the write counters
/// *before* completing the part (a caller whose `wait()` returned must
/// find the write counted by a `live_stats()` scrape), ack `(op, key,
/// applied)` rows when this tier is authoritative. Then advance the
/// epoch and reclaim — the nodes these mutations retired become safe
/// one advance later, so a quiescent service always drains its retired
/// list on the final barrier.
fn apply_write_barrier<T: WriteTarget>(
    shard: usize,
    target: &mut T,
    jobs: Vec<WriteJob>,
    domain: &EpochDomain,
    cell: &WorkerCell,
    stages: &StageTimes,
    prof: &mut ThreadProfiler,
) {
    debug_assert!(!jobs.is_empty(), "empty write barrier");
    let mark = prof.mark();
    let barrier_from = Instant::now();
    for job in jobs {
        cell.add_jobs(1);
        stages.record(Stage::QueueWait, job.reply.since_submit());
        let opened = Instant::now();
        let mut items: Vec<RoutedMatch> = Vec::new();
        let total = job.ops.len() as u64;
        let mut applied_total = 0u64;
        for (op_idx, op) in job.ops {
            let key = op.key();
            let applied = target.apply(op);
            applied_total += u64::from(applied);
            if job.ack {
                items.push((op_idx, key, u64::from(applied)));
            }
        }
        let took = opened.elapsed();
        stages.record(Stage::Write, took);
        cell.add_write_batch(total, applied_total);
        if job.ack {
            cell.add_matches(applied_total);
        }
        if job.reply.is_traced() {
            job.reply.trace_annotate(|trace, submitted| {
                trace.add_shard(shard as u32);
                trace.span_between(TraceStage::QueueWait, submitted, opened);
                trace.span_for(TraceStage::Write, opened, took);
            });
        }
        job.reply.complete_part(&items, Some(cell));
    }
    // The barrier's mutations retired nodes at the *current* epoch;
    // advance so they stamp strictly below every future pin, then
    // reclaim whatever is already safe (pinned cursors elsewhere keep
    // their epoch's garbage alive until they unpin).
    domain.advance();
    let _ = target.reclaim_retired();
    cell.add_busy(barrier_from.elapsed());
    prof.record(Stage::Write, mark);
}

/// Opens the worker's per-thread counter group when profiling is on.
/// Must run on the worker thread itself — the group binds to the
/// calling thread.
fn attach_profiler(prof: &Option<Arc<ProfCell>>) -> ThreadProfiler {
    match prof {
        Some(cell) => ThreadProfiler::attach(Arc::clone(cell)),
        None => ThreadProfiler::disabled(),
    }
}

/// A request shard-part participating in the worker's open batch.
struct OpenJob {
    reply: Arc<ResponseState>,
    items: Vec<RoutedMatch>,
    /// When this part was admitted into the batch (trace span seam).
    admitted: Instant,
}

/// A scan shard-part participating in a range worker's open batch.
/// Streaming parts push chunks to the seam as their cursors yield;
/// buffered parts accumulate `items` like point jobs do.
struct OpenScan {
    reply: Arc<ResponseState>,
    streaming: bool,
    items: Vec<RoutedMatch>,
    /// When this part was admitted into the batch (trace span seam).
    admitted: Instant,
    /// Scatter ranks of this part's cursors (streaming completion is
    /// per rank).
    ranks: Vec<u32>,
    /// Entries emitted for this part, streamed chunks included.
    emitted: u64,
}

/// Routes one walker emission to its request: buffered parts
/// accumulate, streaming parts build a chunk and push it to the gather
/// seam every `chunk_size` entries — this mid-batch flush is what makes
/// a long scan's first entries reach the client while the walker ring
/// is still running.
fn attribute_scan(
    meta: &[(u32, u32)],
    open: &mut [OpenScan],
    chunks: &mut [Vec<(u64, u64)>],
    chunk_size: usize,
    tag: u32,
    key: u64,
    payload: u64,
) {
    let (open_idx, rank) = meta[tag as usize];
    let job = &mut open[open_idx as usize];
    job.emitted += 1;
    if job.streaming {
        let buf = &mut chunks[tag as usize];
        buf.push((key, payload));
        if buf.len() >= chunk_size {
            // The seam hands back a consumed chunk's buffer when it has
            // one: a long scan settles into a closed loop of recycled
            // allocations instead of one fresh `Vec` per chunk.
            if let Some(spare) = job.reply.push_chunk(rank, std::mem::take(buf)) {
                *buf = spare;
            }
        }
    } else {
        job.items.push((rank, key, payload));
    }
}

/// The worker thread body: loops batches until the poison pill,
/// publishing every counter into the worker's registry cell as it goes
/// — shutdown needs no hand-back, a final registry snapshot sees
/// everything.
pub(crate) fn run_worker(ctx: &WorkerContext) {
    let mut prof = attach_profiler(&ctx.prof);
    let epoch = ctx.domain.register();

    loop {
        // Wait (idle) for the batch-opening job. The profiling window
        // lands in queue-wait: a blocked thread accrues almost no
        // cycles, so this column stays near zero unless the worker is
        // spinning.
        let idle_from = Instant::now();
        let mark = prof.mark();
        let first = ctx.queue.pop();
        prof.record(Stage::QueueWait, mark);
        ctx.cell.add_idle(idle_from.elapsed());

        let (entries, reply) = match first {
            Job::Probe { entries, reply } => (entries, reply),
            Job::Scan { .. } => unreachable!("scan job routed to a point-probe queue"),
            Job::Write { ops, ack, reply } => {
                // A write opening a batch is its own barrier: apply it
                // immediately under the write guard (nothing is reading
                // — this worker is the shard's only writer and its only
                // walker driver).
                let jobs = vec![WriteJob { ops, ack, reply }];
                let mut guard = ctx.sharded.write(ctx.shard);
                apply_write_barrier(
                    ctx.shard,
                    &mut *guard,
                    jobs,
                    &ctx.domain,
                    &ctx.cell,
                    &ctx.stages,
                    &mut prof,
                );
                continue;
            }
            Job::Poison { key } => {
                debug_assert_eq!(key, widx_core::POISON_KEY);
                break; // Poison with an empty batch: halt immediately.
            }
        };

        // Walker batch: pin an epoch and hold the shard's read guard
        // for the batch's whole lifetime, so nothing mutates (or
        // reclaims) under the in-flight AMAC ring. The walker is
        // rebuilt per batch — it borrows the guard.
        let mut writes: Vec<WriteJob> = Vec::new();
        let shutdown = {
            let _pin = epoch.pin();
            let guard = ctx.sharded.read(ctx.shard);
            let mut walker = AmacWalker::new(&guard, ctx.inflight);
            run_batch(
                ctx.shard,
                &ctx.queue,
                &ctx.policy,
                &mut walker,
                entries,
                reply,
                &mut writes,
                &ctx.cell,
                &ctx.stages,
                &mut prof,
            )
        };
        // Batch barrier: the read guard is gone; apply every write the
        // batch loop stashed (shutdown included — queued writes always
        // land before the final snapshot).
        if !writes.is_empty() {
            let mut guard = ctx.sharded.write(ctx.shard);
            apply_write_barrier(
                ctx.shard,
                &mut *guard,
                writes,
                &ctx.domain,
                &ctx.cell,
                &ctx.stages,
                &mut prof,
            );
        }
        if shutdown {
            break;
        }
    }
}

/// Assembles and drains one batch starting from `first_*`. Returns true
/// when the poison pill arrived and the worker must halt after this
/// batch.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn run_batch(
    shard: usize,
    queue: &ShardQueue,
    policy: &BatchPolicy,
    walker: &mut AmacWalker<'_>,
    first_entries: Vec<(u32, u64)>,
    first_reply: Arc<ResponseState>,
    writes: &mut Vec<WriteJob>,
    cell: &WorkerCell,
    stages: &StageTimes,
    prof: &mut ThreadProfiler,
) -> bool {
    let opened = Instant::now();
    // tag (u32, index into `meta`) → (open-job index, probe row).
    let mut meta: Vec<(u32, u32)> = Vec::new();
    let mut open: Vec<OpenJob> = Vec::new();
    let mut raw: Vec<(u32, u64, u64)> = Vec::new();
    let mut busy = Duration::ZERO;

    let admit = |entries: Vec<(u32, u64)>,
                 reply: Arc<ResponseState>,
                 meta: &mut Vec<(u32, u32)>,
                 open: &mut Vec<OpenJob>,
                 raw: &mut Vec<(u32, u64, u64)>,
                 walker: &mut AmacWalker<'_>,
                 busy: &mut Duration,
                 prof: &mut ThreadProfiler| {
        cell.add_jobs(1);
        stages.record(Stage::QueueWait, reply.since_submit());
        if entries.is_empty() {
            // Defensive: never strand a zero-key part.
            reply.complete_part(&[], Some(cell));
            return;
        }
        let open_idx = open.len() as u32;
        open.push(OpenJob {
            reply,
            items: Vec::new(),
            admitted: Instant::now(),
        });
        let busy_from = Instant::now();
        let mark = prof.mark();
        for (row, key) in entries {
            let tag = u32::try_from(meta.len()).expect("batch exceeds u32 tags");
            meta.push((open_idx, row));
            walker.feed(tag, key, &mut |t, k, p| raw.push((t, k, p)));
        }
        prof.record(Stage::Walk, mark);
        *busy += busy_from.elapsed();
    };

    admit(
        first_entries,
        first_reply,
        &mut meta,
        &mut open,
        &mut raw,
        walker,
        &mut busy,
        prof,
    );

    // Admit what is already queued until the close rule says stop.
    let reason = loop {
        match policy.next_job(meta.len(), queue, writes, prof) {
            Ok(Job::Probe { entries, reply }) => {
                admit(
                    entries, reply, &mut meta, &mut open, &mut raw, walker, &mut busy, prof,
                );
            }
            Ok(_) => unreachable!("only probe jobs join a point-probe batch"),
            Err(reason) => break reason,
        }
    };
    let closed = Instant::now();
    stages.record(Stage::BatchWait, closed - opened);

    // Drain every in-flight probe, then attribute matches to requests.
    let busy_from = Instant::now();
    let mark = prof.mark();
    walker.drain(&mut |t, k, p| raw.push((t, k, p)));
    prof.record(Stage::Walk, mark);
    busy += busy_from.elapsed();

    for (tag, key, payload) in raw.drain(..) {
        let (open_idx, row) = meta[tag as usize];
        open[open_idx as usize].items.push((row, key, payload));
    }
    cell.add_batch(meta.len() as u64, reason);
    cell.add_busy(busy);
    stages.record(Stage::Walk, busy);
    let walk_counters = walker.take_counters();
    prof.add_walk(&walk_counters);
    let gather_mark = prof.mark();
    for job in &open {
        cell.add_matches(job.items.len() as u64);
        if job.reply.is_traced() {
            job.reply.trace_annotate(|trace, submitted| {
                trace.add_shard(shard as u32);
                trace.span_between(TraceStage::QueueWait, submitted, job.admitted);
                trace.span_between(TraceStage::BatchWait, job.admitted, closed);
                trace.span_for(TraceStage::Walk, opened, busy);
                trace.add_walk(&walk_counters);
            });
        }
        job.reply.complete_part(&job.items, Some(cell));
    }
    prof.record(Stage::Gather, gather_mark);
    reason == FlushKind::Shutdown
}

/// The range-worker thread body: identical drain-batches-until-poison
/// loop, but the walker is a ring of resumable B+-tree scan cursors
/// over this worker's ordered shard.
pub(crate) fn run_range_worker(ctx: &RangeWorkerContext) {
    let mut prof = attach_profiler(&ctx.prof);
    let epoch = ctx.domain.register();

    loop {
        let idle_from = Instant::now();
        let mark = prof.mark();
        let first = ctx.queue.pop();
        prof.record(Stage::QueueWait, mark);
        ctx.cell.add_idle(idle_from.elapsed());

        let (scans, reply) = match first {
            Job::Scan { scans, reply } => (scans, reply),
            Job::Probe { .. } => unreachable!("probe job routed to a range queue"),
            Job::Write { ops, ack, reply } => {
                let jobs = vec![WriteJob { ops, ack, reply }];
                let mut guard = ctx.ordered.write(ctx.shard);
                apply_write_barrier(
                    ctx.shard,
                    &mut *guard,
                    jobs,
                    &ctx.domain,
                    &ctx.cell,
                    &ctx.stages,
                    &mut prof,
                );
                continue;
            }
            Job::Poison { key } => {
                debug_assert_eq!(key, widx_core::POISON_KEY);
                break;
            }
        };

        let mut writes: Vec<WriteJob> = Vec::new();
        let shutdown = {
            let _pin = epoch.pin();
            let guard = ctx.ordered.read(ctx.shard);
            let mut walker = BTreeRangeWalker::new(&guard, ctx.inflight);
            run_range_batch(
                ctx.shard,
                &ctx.queue,
                &ctx.policy,
                &mut walker,
                scans,
                reply,
                &mut writes,
                ctx.stream_chunk,
                &ctx.cell,
                &ctx.stages,
                &mut prof,
            )
        };
        if !writes.is_empty() {
            let mut guard = ctx.ordered.write(ctx.shard);
            apply_write_barrier(
                ctx.shard,
                &mut *guard,
                writes,
                &ctx.domain,
                &ctx.cell,
                &ctx.stages,
                &mut prof,
            );
        }
        if shutdown {
            break;
        }
    }
}

/// Assembles and drains one batch of scan cursors. Emissions are
/// attributed to their request *as they happen* (not at batch close),
/// so streaming parts can flush chunks to the gather seam while other
/// cursors in the ring are still descending. Returns true when the
/// poison pill arrived and the worker must halt after this batch.
#[allow(clippy::too_many_arguments)]
fn run_range_batch(
    shard: usize,
    queue: &ShardQueue,
    policy: &BatchPolicy,
    walker: &mut BTreeRangeWalker<'_>,
    first_scans: Vec<(u32, ScanRange)>,
    first_reply: Arc<ResponseState>,
    writes: &mut Vec<WriteJob>,
    chunk_size: usize,
    cell: &WorkerCell,
    stages: &StageTimes,
    prof: &mut ThreadProfiler,
) -> bool {
    let opened = Instant::now();
    // tag (index into `meta`) → (open-job index, scatter rank).
    let mut meta: Vec<(u32, u32)> = Vec::new();
    let mut open: Vec<OpenScan> = Vec::new();
    // tag → the streaming chunk being built (unused by buffered tags).
    let mut chunks: Vec<Vec<(u64, u64)>> = Vec::new();
    let mut busy = Duration::ZERO;

    let admit = |scans: Vec<(u32, ScanRange)>,
                 reply: Arc<ResponseState>,
                 meta: &mut Vec<(u32, u32)>,
                 open: &mut Vec<OpenScan>,
                 chunks: &mut Vec<Vec<(u64, u64)>>,
                 walker: &mut BTreeRangeWalker<'_>,
                 busy: &mut Duration,
                 prof: &mut ThreadProfiler| {
        cell.add_jobs(1);
        stages.record(Stage::QueueWait, reply.since_submit());
        if scans.is_empty() {
            // Defensive: never strand a zero-cursor part. (The planner
            // never scatters an empty streaming part.)
            debug_assert!(!reply.is_streaming(), "empty streaming shard-part");
            reply.complete_part(&[], Some(cell));
            return;
        }
        let streaming = reply.is_streaming();
        let open_idx = open.len() as u32;
        open.push(OpenScan {
            reply,
            streaming,
            items: Vec::new(),
            admitted: Instant::now(),
            ranks: Vec::new(),
            emitted: 0,
        });
        let busy_from = Instant::now();
        let mark = prof.mark();
        for (rank, range) in scans {
            let tag = u32::try_from(meta.len()).expect("batch exceeds u32 tags");
            meta.push((open_idx, rank));
            chunks.push(Vec::new());
            open[open_idx as usize].ranks.push(rank);
            walker.feed(tag, range, &mut |t, k, p| {
                attribute_scan(meta, open, chunks, chunk_size, t, k, p);
            });
        }
        prof.record(Stage::Walk, mark);
        *busy += busy_from.elapsed();
    };

    admit(
        first_scans,
        first_reply,
        &mut meta,
        &mut open,
        &mut chunks,
        walker,
        &mut busy,
        prof,
    );

    let reason = loop {
        match policy.next_job(meta.len(), queue, writes, prof) {
            Ok(Job::Scan { scans, reply }) => {
                admit(
                    scans,
                    reply,
                    &mut meta,
                    &mut open,
                    &mut chunks,
                    walker,
                    &mut busy,
                    prof,
                );
            }
            Ok(_) => unreachable!("only scan jobs join a range batch"),
            Err(reason) => break reason,
        }
    };
    let closed = Instant::now();
    stages.record(Stage::BatchWait, closed - opened);

    // Drain the ring: emissions attribute inline, in emit order, so
    // each tag's slice (and chunk sequence) stays key-ordered — the
    // invariant the gather side's rank-ordered release relies on.
    let busy_from = Instant::now();
    let mark = prof.mark();
    walker.drain(&mut |t, k, p| {
        attribute_scan(&meta, &mut open, &mut chunks, chunk_size, t, k, p);
    });
    prof.record(Stage::Walk, mark);
    busy += busy_from.elapsed();

    // Flush every streaming tag's tail chunk, then complete the parts.
    for (tag, buf) in chunks.iter_mut().enumerate() {
        if !buf.is_empty() {
            let (open_idx, rank) = meta[tag];
            let job = &open[open_idx as usize];
            debug_assert!(job.streaming, "tail chunk on a buffered part");
            let _ = job.reply.push_chunk(rank, std::mem::take(buf));
        }
    }
    cell.add_batch(meta.len() as u64, reason);
    cell.add_busy(busy);
    stages.record(Stage::Walk, busy);
    let walk_counters = walker.take_counters();
    prof.add_walk(&walk_counters);
    let gather_mark = prof.mark();
    for job in &open {
        cell.add_matches(job.emitted);
        if job.reply.is_traced() {
            job.reply.trace_annotate(|trace, submitted| {
                trace.add_shard(shard as u32);
                trace.span_between(TraceStage::QueueWait, submitted, job.admitted);
                trace.span_between(TraceStage::BatchWait, job.admitted, closed);
                trace.span_for(TraceStage::Walk, opened, busy);
                trace.add_walk(&walk_counters);
            });
        }
        if job.streaming {
            for rank in &job.ranks {
                job.reply.complete_stream_part(*rank, Some(cell));
            }
        } else {
            job.reply.complete_part(&job.items, Some(cell));
        }
    }
    prof.record(Stage::Gather, gather_mark);
    reason == FlushKind::Shutdown
}
