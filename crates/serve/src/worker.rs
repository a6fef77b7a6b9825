//! The shard workers: one thread per shard, draining a bounded queue
//! into batches and driving a resumable walker over them — software
//! "four walkers behind one dispatcher", where the dispatcher is the
//! shard router and the walker count is the in-flight depth.
//!
//! There is one worker loop, generic over the [`Tier`] it serves. A
//! tier derefs to its [`Shards`] (the locks and guards, written once)
//! and supplies only what differs: its walker ([`AmacWalker`] over a
//! hash shard, [`BTreeRangeWalker`] — a ring of resumable scan cursors
//! — over an ordered shard), how a [`Job`] unpacks into walker input,
//! and whether output leaves as rows or as gather-seam chunks. Batching,
//! the write barrier, telemetry and shutdown are the same code for both.
//!
//! Workers are work-conserving: a worker blocks (`pop`) only while it
//! holds nothing. Holding a job, it admits what is already queued and
//! closes the batch when [`BatchPolicy::next_job`] reports the size
//! target reached, the queue dry, or the poison pill. No timer exists;
//! batches grow with load because jobs queue while the worker walks.
//!
//! Workers own no private counters: everything is published straight
//! into the worker's lock-free [`WorkerCell`] (plus the shared
//! [`StageTimes`] seam) as batches complete, so a live scrape sees the
//! same numbers a shutdown join would.
//!
//! # Writes: one guard per shard
//!
//! The serving tier is mutable: each worker is the *sole writer* for
//! its shard while it holds work. Walker batches run under the shard's
//! read guard; [`Job::Write`] batches are applied under the write guard
//! at batch barriers (never mid-batch). While the worker is parked on an
//! empty queue, a sub-ring write is applied by its submitting thread
//! instead ([`write_here`]): same guard, same routine
//! ([`apply_writes`]), no hand-off. The worker is not either tier's only
//! reader: a sub-ring probe or one-chunk scan is walked on its
//! submitting thread ([`walk_here`]) under a `try_read` guard, so the
//! lock arbitrates those readers against the barrier — a barrier waits
//! out the walks in flight, and a walk that finds the barrier holding or
//! awaiting the lock is queued instead.
//!
//! That guard is the whole reclamation story. A walker borrows
//! `&HashIndex` / `&BTreeIndex` through the read guard and is rebuilt
//! per batch, a mutation takes `&mut` through the write guard, so the
//! borrow checker proves no walker holds a node index across a write: a
//! node slot a write frees goes straight back to its arena's free list,
//! and the next write may reuse it.

use std::ops::{Deref, Range};
use std::sync::{Arc, RwLockWriteGuard};
use std::time::{Duration, Instant};

use widx_db::index::{BTreeIndex, HashIndex};
use widx_obs::{FlushKind, ProfCell, Stage, StageTimes, ThreadProfiler, WalkCounters, WorkerCell};
use widx_soft::{probe_scalar, scan_btree_scalar, AmacWalker, BTreeRangeWalker, ScanRange};

use crate::batch::BatchPolicy;
use crate::ordered::OrderedShardedIndex;
use crate::queue::{Job, Part, ShardQueue, WriteJob};
use crate::request::{ResponseState, RoutedMatch};
use crate::shard::{ShardIndex, ShardedIndex, Shards};

/// The resumable-walker surface the batch loop drives. Both soft-tier
/// walkers already expose it inherently; `W` is one unit of walker
/// input (a probe key, a scan range).
pub(crate) trait Walker<W> {
    fn feed<F: FnMut(u32, u64, u64)>(&mut self, tag: u32, work: W, emit: &mut F);
    fn drain<F: FnMut(u32, u64, u64)>(&mut self, emit: &mut F);
    fn take_counters(&mut self) -> WalkCounters;
}

macro_rules! impl_walker {
    ($($walker:ident: $work:ty),*) => {$(
        impl Walker<$work> for $walker<'_> {
            fn feed<F: FnMut(u32, u64, u64)>(&mut self, tag: u32, work: $work, emit: &mut F) {
                $walker::feed(self, tag, work, emit);
            }

            fn drain<F: FnMut(u32, u64, u64)>(&mut self, emit: &mut F) {
                $walker::drain(self, emit);
            }

            fn take_counters(&mut self) -> WalkCounters {
                $walker::take_counters(self)
            }
        }
    )*};
}

impl_walker!(AmacWalker: u64, BTreeRangeWalker: ScanRange);

/// A serving tier, as its workers see it: its [`Shards`], plus exactly
/// the points where the hash tier and the ordered tier differ.
pub(crate) trait Tier:
    Deref<Target = Shards<<Self as Tier>::Index>> + Send + Sync + 'static
{
    /// One shard's index.
    type Index: ShardIndex;
    /// One unit of walker input: a probe key or a scan range.
    type Work: Copy;
    /// The walker a batch drives over one (read-guarded) shard.
    type Walker<'idx>: Walker<Self::Work>;
    /// Worker thread name prefix.
    const THREAD_NAME: &'static str;
    /// Whether a part's output reaches its reply as chunks through the
    /// gather seam (the ordered tier: every scan, buffered or streamed)
    /// instead of as `(row, key, payload)` rows moved in at batch close
    /// (the hash tier).
    const CHUNKED: bool;

    fn walker(index: &Self::Index, inflight: usize) -> Self::Walker<'_>;
    /// The serial engine [`walk_here`] runs over one unit of work.
    fn walk_one(index: &Self::Index, work: Self::Work, emit: impl FnMut(u64, u64)) -> WalkCounters;
    /// The most entries `work` can push through the gather seam: a
    /// scan's limit; none for a probe, whose rows never chunk.
    fn chunk_entries(_work: &Self::Work) -> usize {
        0
    }
    /// The `(row or scatter rank, work)` pairs a job carries for this
    /// tier and the reply they answer to; `None` for any other variant.
    fn unpack(job: &Job) -> Option<Unpacked<'_, Self::Work>>;
}

/// A walker job's input, borrowed: see [`Tier::unpack`].
type Unpacked<'j, W> = (&'j [(u32, W)], &'j Arc<ResponseState>);

impl Tier for ShardedIndex {
    type Index = HashIndex;
    type Work = u64;
    type Walker<'idx> = AmacWalker<'idx>;
    const THREAD_NAME: &'static str = "widx-serve";
    const CHUNKED: bool = false;

    fn walker(index: &HashIndex, inflight: usize) -> AmacWalker<'_> {
        AmacWalker::new(index, inflight)
    }

    fn walk_one(index: &HashIndex, key: u64, mut emit: impl FnMut(u64, u64)) -> WalkCounters {
        let mut found = Vec::new();
        let counters = probe_scalar(index, &[key], &mut found);
        found.into_iter().for_each(|(k, p)| emit(k, p));
        counters
    }

    fn unpack(job: &Job) -> Option<Unpacked<'_, u64>> {
        match job {
            Job::Probe { entries, reply } => Some((entries, reply)),
            _ => None,
        }
    }
}

impl Tier for OrderedShardedIndex {
    type Index = BTreeIndex;
    type Work = ScanRange;
    type Walker<'idx> = BTreeRangeWalker<'idx>;
    const THREAD_NAME: &'static str = "widx-range";
    const CHUNKED: bool = true;

    fn walker(index: &BTreeIndex, inflight: usize) -> BTreeRangeWalker<'_> {
        BTreeRangeWalker::new(index, inflight)
    }

    fn walk_one(tree: &BTreeIndex, scan: ScanRange, mut f: impl FnMut(u64, u64)) -> WalkCounters {
        scan_btree_scalar(tree, &[scan], &mut |_, key, payload| f(key, payload))
    }

    fn chunk_entries(range: &ScanRange) -> usize {
        range.limit
    }

    fn unpack(job: &Job) -> Option<Unpacked<'_, ScanRange>> {
        match job {
            Job::Scan { scans, reply } => Some((scans, reply)),
            _ => None,
        }
    }
}

/// Everything a worker thread needs.
pub(crate) struct WorkerContext<T: Tier> {
    pub(crate) shard: usize,
    pub(crate) queue: Arc<ShardQueue>,
    pub(crate) index: Arc<T>,
    pub(crate) policy: BatchPolicy,
    pub(crate) inflight: usize,
    /// Entries per chunk a range part pushes to the gather seam.
    pub(crate) stream_chunk: usize,
    /// This worker's registry cell — the single home of its counters.
    pub(crate) cell: Arc<WorkerCell>,
    /// The service-wide stage-timing seam.
    pub(crate) stages: Arc<StageTimes>,
    /// Hardware-profiling cell, when the service enabled profiling: the
    /// worker opens a per-thread counter group and publishes stage
    /// windows here.
    pub(crate) prof: Option<Arc<ProfCell>>,
}

/// The one write-application routine: applies `parts` to `target`, shard
/// `shard`'s index under its write guard — held by the worker at a batch
/// barrier, or by a submitter on an idle shard ([`write_here`]). Per
/// part: apply every op, publish the write counters — node slots freed
/// included — *before* completing the part (a caller whose `wait()`
/// returned must find the write counted by a `live_stats()` scrape), ack
/// `(op, key, applied)` rows when this tier is authoritative.
fn apply_writes<'a, I: ShardIndex>(
    target: &mut I,
    shard: usize,
    (cell, stages): (&WorkerCell, &StageTimes),
    parts: impl IntoIterator<Item = &'a WriteJob>,
) {
    let barrier_from = Instant::now();
    for WriteJob { ops, ack, reply } in parts {
        let ack = *ack;
        cell.add_jobs(1);
        stages.record(Stage::QueueWait, reply.since_submit());
        let opened = Instant::now();
        let mut items: Vec<RoutedMatch> = Vec::new();
        let mut applied_total = 0u64;
        for &(op_idx, op) in ops {
            let applied = target.apply(op);
            applied_total += u64::from(applied);
            if ack {
                items.push((op_idx, op.key(), u64::from(applied)));
            }
        }
        let took = opened.elapsed();
        stages.record(Stage::Write, took);
        let freed = target.take_freed() as u64;
        cell.add_write_batch(ops.len() as u64, applied_total, freed);
        if ack {
            cell.add_matches(applied_total);
        }
        if reply.is_traced() {
            reply.trace_annotate(|trace, submitted| {
                trace.add_shard(shard as u32);
                trace.span_between(Stage::QueueWait, submitted, opened);
                trace.span_for(Stage::Write, opened, took);
            });
        }
        reply.complete_part(items, Some(cell));
    }
    cell.add_busy(barrier_from.elapsed());
}

/// The batch barrier: the stashed write parts, under the write guard.
fn apply_write_barrier<T: Tier>(
    ctx: &WorkerContext<T>,
    jobs: &[WriteJob],
    prof: &mut ThreadProfiler,
) {
    let mut target = ctx.index.write(ctx.shard);
    let mark = prof.mark();
    apply_writes(&mut *target, ctx.shard, (&*ctx.cell, &*ctx.stages), jobs);
    prof.record(Stage::Write, mark);
}

/// The sub-ring rule for mutations: a write of fewer ops than the
/// walker ring has slots is a serial chase a worker could only run
/// serially too, so it is applied where it already is — on its
/// submitting thread — when every owning shard of *both* tiers is idle.
/// `try_write` on each (hash ascending, then ordered ascending:
/// `parts`' order), and under each guard the shard's queue must be
/// [`idle`](ShardQueue::idle): nothing submitted earlier is outstanding,
/// so per-shard submission order holds, and the worker — parked, holding
/// nothing — stays the sole writer whenever it is not. Only when every
/// part has passed is anything applied, each through [`apply_writes`]
/// against its own shard's cell. Any refusal drops every guard with
/// nothing applied, and `false` leaves `parts` to the queues.
pub(crate) fn write_here(
    (hash, hash_cells): (&ShardedIndex, &[Arc<WorkerCell>]),
    ordered: Option<(&OrderedShardedIndex, &[Arc<WorkerCell>])>,
    stages: &StageTimes,
    ring: usize,
    parts: &[Part<'_>],
) -> bool {
    type Held<'a, I> = Vec<(usize, &'a WriteJob, RwLockWriteGuard<'a, I>)>;

    fn write_parts<'a>(
        parts: &'a [Part<'a>],
        acked: bool,
    ) -> impl Iterator<Item = (usize, &'a ShardQueue, &'a WriteJob)> {
        parts
            .iter()
            .filter_map(move |(shard, queue, job)| match job {
                Job::Write(write) if write.ack == acked => Some((*shard, *queue, write)),
                _ => None,
            })
    }
    fn claim<'a, T: Tier>(
        index: &'a T,
        parts: impl Iterator<Item = (usize, &'a ShardQueue, &'a WriteJob)>,
    ) -> Option<Held<'a, T::Index>> {
        let held = parts.map(|(shard, queue, part)| {
            let guard = index.try_write(shard)?;
            queue.idle().then_some((shard, part, guard))
        });
        held.collect()
    }
    fn apply<I: ShardIndex>(held: Held<'_, I>, cells: &[Arc<WorkerCell>], stages: &StageTimes) {
        for (shard, part, mut guard) in held {
            apply_writes(&mut *guard, shard, (&cells[shard], stages), [part]);
        }
    }

    // The hash tier carries every op once; the ordered parts mirror it.
    let ops = write_parts(parts, true).map(|(_, _, part)| part.ops.len());
    if !(1..ring).contains(&ops.sum::<usize>()) {
        return false;
    }
    let claim_all = || {
        let acked = claim(hash, write_parts(parts, true))?;
        let silent = match ordered {
            Some((index, cells)) => Some((claim(index, write_parts(parts, false))?, cells)),
            None => None,
        };
        Some((acked, silent))
    };
    let Some((acked, silent)) = claim_all() else {
        return false;
    };
    apply(acked, hash_cells, stages);
    if let Some((held, cells)) = silent {
        apply(held, cells, stages);
    }
    true
}

/// The worker thread body: loops batches until the poison pill,
/// publishing every counter into the worker's registry cell as it goes
/// — shutdown needs no hand-back, a final registry snapshot sees
/// everything.
pub(crate) fn run_worker<T: Tier>(ctx: &WorkerContext<T>) {
    // The counter group binds to the calling thread, so it must open
    // here, on the worker thread itself.
    let mut prof = match &ctx.prof {
        Some(cell) => ThreadProfiler::attach(Arc::clone(cell)),
        None => ThreadProfiler::disabled(),
    };

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

        let mut writes: Vec<WriteJob> = Vec::new();
        let shutdown = match first {
            Job::Poison { key } => {
                debug_assert_eq!(key, widx_core::POISON_KEY);
                break; // Poison with an empty batch: halt immediately.
            }
            // A write opening a batch is its own barrier: no batch is
            // open, and the write guard waits out whatever walk a
            // submitting thread has in flight.
            Job::Write(write) => {
                writes.push(write);
                false
            }
            // Walker batch: hold the shard's read guard for the batch's
            // whole lifetime, so nothing mutates (or frees a node) under
            // the in-flight ring. The walker is rebuilt per batch — it
            // borrows the guard.
            job => {
                let guard = ctx.index.read(ctx.shard);
                let mut walker = T::walker(&guard, ctx.inflight);
                run_batch(ctx, &mut walker, job, &mut writes, &mut prof)
            }
        };
        // Batch barrier: the read guard is gone; apply every write the
        // batch loop stashed (shutdown included — queued writes always
        // land before the final snapshot).
        if !writes.is_empty() {
            apply_write_barrier(ctx, &writes, &mut prof);
        }
        if shutdown {
            break;
        }
    }
}

/// A request shard-part participating in the worker's open batch. A
/// point-probe part accumulates `items` until the batch closes; a scan
/// part — buffered or streamed alike — pushes chunks to the gather seam
/// as its cursors yield ([`Tier::CHUNKED`]).
struct OpenJob {
    reply: Arc<ResponseState>,
    items: Vec<RoutedMatch>,
    /// When this part was admitted into the batch (trace span seam).
    admitted: Instant,
    /// The part's tags; on a scan part, one per cursor (scatter rank).
    tags: Range<usize>,
    /// Entries emitted for this part, chunks included.
    emitted: u64,
}

/// The worker's open batch: the parts admitted so far and the routing
/// that attributes each walker emission to its request.
struct Batch {
    opened: Instant,
    /// tag (index into `meta`) → (open-job index, probe row or scatter
    /// rank).
    meta: Vec<(u32, u32)>,
    open: Vec<OpenJob>,
    /// tag → the chunk being built, on a scan batch (empty otherwise).
    chunks: Vec<Vec<(u64, u64)>>,
    chunk_size: usize,
    /// Time spent feeding and draining the walker.
    busy: Duration,
}

impl Batch {
    /// Routes one walker emission to its request *as it happens* (not
    /// at batch close): a point-probe part accumulates a row, a scan part
    /// builds a chunk and pushes it to the gather seam every
    /// `chunk_size` entries — this mid-batch flush is what makes a long
    /// scan's first entries reach a streaming client while the walker
    /// ring is still running. Emissions arrive in emit order, so each
    /// tag's chunk sequence stays key-ordered — the invariant the seam's
    /// rank-ordered release relies on.
    fn route<T: Tier>(&mut self, tag: u32, key: u64, payload: u64) {
        let (open_idx, row) = self.meta[tag as usize];
        let job = &mut self.open[open_idx as usize];
        job.emitted += 1;
        if !T::CHUNKED {
            job.items.push((row, key, payload));
            return;
        }
        let buf = &mut self.chunks[tag as usize];
        buf.push((key, payload));
        if buf.len() >= self.chunk_size {
            // The seam hands back a consumed chunk's buffer when it has
            // one: a long scan settles into a closed loop of recycled
            // allocations instead of one fresh `Vec` per chunk.
            if let Some(spare) = job.reply.push_chunk(row, std::mem::take(buf)) {
                *buf = spare;
            }
        }
    }

    /// Admits one walker job into the batch and feeds its work to the
    /// ring (which may emit for earlier tags while it does).
    fn admit<T: Tier>(
        &mut self,
        ctx: &WorkerContext<T>,
        walker: &mut T::Walker<'_>,
        job: Job,
        prof: &mut ThreadProfiler,
    ) {
        let (work, reply) = T::unpack(&job).expect("a queue carries only its tier's walker jobs");
        ctx.cell.add_jobs(1);
        ctx.stages.record(Stage::QueueWait, reply.since_submit());
        if work.is_empty() {
            // Defensive: never strand a zero-key part. (The planner
            // never scatters one.)
            debug_assert!(!T::CHUNKED, "empty scan shard-part");
            reply.complete_part(Vec::new(), Some(&ctx.cell));
            return;
        }
        let open_idx = self.open.len();
        let tags = self.meta.len()..self.meta.len() + work.len();
        if T::CHUNKED {
            self.chunks.resize_with(tags.end, Vec::new);
        }
        self.open.push(OpenJob {
            reply: Arc::clone(reply),
            // A point-probe part's rows are sized once (a probe emits
            // about one row per key) and moved into the reply at close.
            items: Vec::with_capacity(if T::CHUNKED { 0 } else { work.len() }),
            admitted: Instant::now(),
            tags,
            emitted: 0,
        });
        let busy_from = Instant::now();
        let mark = prof.mark();
        for &(row, item) in work {
            let tag = u32::try_from(self.meta.len()).expect("batch exceeds u32 tags");
            self.meta.push((open_idx as u32, row));
            walker.feed(tag, item, &mut |t, k, p| self.route::<T>(t, k, p));
        }
        prof.record(Stage::Walk, mark);
        self.busy += busy_from.elapsed();
    }
}

/// Writes one shard's finished walk into `reply`'s trace, when it has
/// one. A worker's batch and a sub-ring walk on a submitting thread
/// ([`walk_here`]) record alike; the latter waited in no open batch
/// (`closed` is `None`), so it has no batch-wait span.
fn trace_walk(
    reply: &ResponseState,
    shard: usize,
    (admitted, closed): (Instant, Option<Instant>),
    (opened, busy, counters): (Instant, Duration, &WalkCounters),
) {
    if !reply.is_traced() {
        return;
    }
    reply.trace_annotate(|trace, submitted| {
        trace.add_shard(shard as u32);
        trace.span_between(Stage::QueueWait, submitted, admitted);
        if let Some(closed) = closed {
            trace.span_between(Stage::BatchWait, admitted, closed);
        }
        trace.span_for(Stage::Walk, opened, busy);
        trace.add_walk(counters);
    });
}

/// The sub-ring rule, either tier: a plan with fewer probe keys or scan
/// cursors than the walker ring has slots, each part fitting one chunk,
/// gives the walkers nothing to interleave, so it is walked where it
/// already is — on its submitting thread — instead of being queued.
/// `try_read` on every owning shard (ascending, `parts`' order), then
/// each unit through [`Tier::walk_one`] (the paper's Listing 1, or one
/// scan cursor), completed and counted as a worker would: one job, one
/// queue-dry batch, its counters in the shard's profile. `try_read`,
/// never `read`: a refused guard means the shard's worker holds or
/// awaits its write barrier, so every guard is dropped and `false`
/// leaves `parts` to the queues.
pub(crate) fn walk_here<T: Tier>(
    index: &T,
    (cells, profs): (&[Arc<WorkerCell>], &[Arc<ProfCell>]),
    stages: &StageTimes,
    (ring, stream_chunk): (usize, usize),
    parts: &[Part<'_>],
) -> bool {
    // Only this tier's walker parts carry work; anything else has none.
    let walks = || {
        parts
            .iter()
            .filter_map(|(shard, _, job)| Some((*shard, T::unpack(job)?)))
    };
    let units = walks().map(|(_, (work, _))| work.len()).sum();
    let fits = |(_, work): &(u32, T::Work)| T::chunk_entries(work) <= stream_chunk;
    if !(1..ring).contains(&units) || !walks().all(|(_, (work, _))| work.iter().all(fits)) {
        return false;
    }
    let held =
        walks().map(|(shard, (work, reply))| Some((shard, work, reply, index.try_read(shard)?)));
    let Some(held) = held.collect::<Option<Vec<_>>>() else {
        return false;
    };
    for (shard, work, reply, guard) in &held {
        let (cell, opened) = (&*cells[*shard], Instant::now());
        cell.add_jobs(1);
        stages.record(Stage::QueueWait, reply.since_submit());
        let mut counters = WalkCounters::default();
        // A probe part's rows, or one chunk per scan cursor.
        let mut rows = Vec::<RoutedMatch>::with_capacity(if T::CHUNKED { 0 } else { work.len() });
        let walk = |&(tag, unit): &(u32, T::Work)| {
            let mut chunk = Vec::with_capacity(T::chunk_entries(&unit));
            counters.merge(&T::walk_one(guard, unit, |key, payload| match T::CHUNKED {
                true => chunk.push((key, payload)),
                false => rows.push((tag, key, payload)),
            }));
            chunk
        };
        let chunks: Vec<_> = work.iter().map(walk).collect();
        let busy = opened.elapsed();
        cell.add_batch(work.len() as u64, FlushKind::QueueDry);
        cell.add_busy(busy);
        stages.record(Stage::Walk, busy);
        cell.add_matches((rows.len() + chunks.iter().map(Vec::len).sum::<usize>()) as u64);
        if let Some(prof) = profs.get(*shard) {
            prof.add_walk(&counters);
        }
        trace_walk(reply, *shard, (opened, None), (opened, busy, &counters));
        if T::CHUNKED {
            for (&(rank, _), tail) in work.iter().zip(chunks) {
                reply.complete_stream_part(rank, tail, Some(cell));
            }
        } else {
            reply.complete_part(rows, Some(cell));
        }
    }
    true
}

/// Assembles and drains one batch starting from `first`. Returns true
/// when the poison pill arrived and the worker must halt after this
/// batch.
fn run_batch<T: Tier>(
    ctx: &WorkerContext<T>,
    walker: &mut T::Walker<'_>,
    first: Job,
    writes: &mut Vec<WriteJob>,
    prof: &mut ThreadProfiler,
) -> bool {
    let (cell, stages) = (&*ctx.cell, &*ctx.stages);
    let mut batch = Batch {
        opened: Instant::now(),
        meta: Vec::new(),
        open: Vec::new(),
        chunks: Vec::new(),
        chunk_size: ctx.stream_chunk,
        busy: Duration::ZERO,
    };
    batch.admit(ctx, walker, first, prof);

    // Admit what is already queued until the close rule says stop.
    let reason = loop {
        match ctx
            .policy
            .next_job(batch.meta.len(), &ctx.queue, writes, prof)
        {
            Ok(job) => batch.admit(ctx, walker, job, prof),
            Err(reason) => break reason,
        }
    };
    let closed = Instant::now();
    stages.record(Stage::BatchWait, closed - batch.opened);

    // Drain every in-flight probe or cursor.
    let busy_from = Instant::now();
    let mark = prof.mark();
    walker.drain(&mut |t, k, p| batch.route::<T>(t, k, p));
    prof.record(Stage::Walk, mark);
    batch.busy += busy_from.elapsed();

    cell.add_batch(batch.meta.len() as u64, reason);
    cell.add_busy(batch.busy);
    stages.record(Stage::Walk, batch.busy);
    let walk_counters = walker.take_counters();
    prof.add_walk(&walk_counters);
    let walked = (batch.opened, batch.busy, &walk_counters);
    let gather_mark = prof.mark();
    // Complete the parts: a scan part per cursor, its tail chunk riding
    // the completion.
    for job in batch.open {
        cell.add_matches(job.emitted);
        trace_walk(&job.reply, ctx.shard, (job.admitted, Some(closed)), walked);
        if T::CHUNKED {
            for tag in job.tags {
                let tail = std::mem::take(&mut batch.chunks[tag]);
                job.reply
                    .complete_stream_part(batch.meta[tag].1, tail, Some(cell));
            }
        } else {
            job.reply.complete_part(job.items, Some(cell));
        }
    }
    prof.record(Stage::Gather, gather_mark);
    reason == FlushKind::Shutdown
}
