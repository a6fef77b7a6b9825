//! The shard workers: one thread per shard, draining a bounded queue
//! into batches and driving a resumable [`Ring`] of walker cursors over
//! them — software "four walkers behind one dispatcher", where the
//! dispatcher is the shard router and the walker count is the in-flight
//! depth.
//!
//! There is one worker loop, generic over the [`Tier`] it serves. A
//! tier derefs to its [`Shards`] (the locks and guards, written once)
//! and supplies only what differs: its index, whose [`Step`] the ring
//! schedules (a hash probe, or a B+-tree scan cursor), how a [`Job`]
//! unpacks into walker input, and whether output leaves as rows or as
//! gather-seam chunks. Batching, the write barrier, telemetry and
//! shutdown are the same code for both.
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
//! ([`apply_writes`]), no hand-off. Likewise a sub-ring probe or
//! one-chunk scan is walked by its submitting thread ([`walk_here`]):
//! the worker's own batch routine over a ring of its own, under a
//! `try_read` guard, so the lock arbitrates those readers against the
//! barrier — a barrier waits out the walks in flight, and a walk that
//! finds the barrier holding or awaiting the lock is queued instead.
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
use widx_soft::{Ring, ScanRange, Step};

use crate::batch::BatchPolicy;
use crate::ordered::OrderedShardedIndex;
use crate::queue::{Job, Part, ShardQueue, WriteJob};
use crate::request::{ResponseState, RoutedMatch};
use crate::shard::{ShardIndex, ShardedIndex, Shards};

/// A serving tier, as its workers see it: its [`Shards`], plus exactly
/// the points where the hash tier and the ordered tier differ.
pub(crate) trait Tier:
    Deref<Target = Shards<<Self as Tier>::Index>> + Send + Sync + 'static
{
    /// One shard's index, and its traversal: the [`Step`] a batch's
    /// [`Ring`] schedules.
    type Index: ShardIndex + Step<Unit = Self::Work>;
    /// One unit of walker input: a probe key or a scan range.
    type Work: Copy;
    /// Worker thread name prefix.
    const THREAD_NAME: &'static str;
    /// Whether a part's output reaches its reply as chunks through the
    /// gather seam (the ordered tier: every scan, buffered or streamed)
    /// instead of as `(row, key, payload)` rows moved in at batch close
    /// (the hash tier).
    const CHUNKED: bool;

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
    const THREAD_NAME: &'static str = "widx-serve";
    const CHUNKED: bool = false;

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
    const THREAD_NAME: &'static str = "widx-range";
    const CHUNKED: bool = true;

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
/// One clock read per part edge: a part's end is the next one's start.
fn apply_writes<'a, I: ShardIndex>(
    target: &mut I,
    shard: usize,
    (cell, stages): (&WorkerCell, &StageTimes),
    parts: impl IntoIterator<Item = &'a WriteJob>,
) {
    let barrier_from = Instant::now();
    let mut opened = barrier_from;
    for WriteJob { ops, ack, reply } in parts {
        let ack = *ack;
        cell.add_jobs(1);
        stages.record(Stage::QueueWait, reply.queue_wait(opened));
        let mut items: Vec<RoutedMatch> = Vec::new();
        let mut applied_total = 0u64;
        for &(op_idx, op) in ops {
            let applied = target.apply(op);
            applied_total += u64::from(applied);
            if ack {
                items.push((op_idx, op.key(), u64::from(applied)));
            }
        }
        let closed = Instant::now();
        let took = closed - opened;
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
        reply.complete_part(items, Some(cell), closed);
        opened = closed;
    }
    cell.add_busy(opened - barrier_from);
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
            job => run_batch(ctx, job, &mut writes, &mut prof),
        };
        // Batch barrier: the read guard is gone; apply every write the
        // batch loop stashed (shutdown included — queued writes always
        // land before the final snapshot).
        if !writes.is_empty() {
            let mut target = ctx.index.write(ctx.shard);
            let (mark, telemetry) = (prof.mark(), (&*ctx.cell, &*ctx.stages));
            apply_writes(&mut *target, ctx.shard, telemetry, &writes);
            prof.record(Stage::Write, mark);
        }
        if shutdown {
            break;
        }
    }
}

/// A request shard-part in an open batch: a point-probe part gathers
/// `items` until the batch closes; a scan part, buffered or streamed,
/// pushes chunks to the gather seam as its cursors yield.
struct OpenJob {
    reply: Arc<ResponseState>,
    items: Vec<RoutedMatch>,
    /// When this part was admitted into the batch (trace span seam).
    admitted: Instant,
    /// The part's tags; on a scan part, one per cursor (scatter rank).
    tags: Range<usize>,
}

/// An open batch — a worker's, or a sub-ring walk's ([`walk_here`]):
/// the parts admitted so far and the routing that attributes each
/// walker emission to its request.
struct Batch {
    opened: Instant,
    /// tag (index into `meta`) → (open-job index, probe row or scatter
    /// rank).
    meta: Vec<(u32, u32)>,
    open: Vec<OpenJob>,
    /// tag → the chunk being built, on a scan batch (empty otherwise).
    chunks: Vec<Vec<(u64, u64)>>,
    chunk_size: usize,
    /// Entries flushed to the gather seam mid-batch.
    flushed: u64,
    /// Time spent asking the queue for parts: not busy.
    asked: Duration,
}

impl Batch {
    fn new(chunk_size: usize) -> Batch {
        Batch {
            opened: Instant::now(),
            meta: Vec::new(),
            open: Vec::new(),
            chunks: Vec::new(),
            chunk_size,
            flushed: 0,
            asked: Duration::ZERO,
        }
    }

    /// Routes one walker emission to its request as it happens: a probe
    /// part gains a row, a scan part's chunk is [`flush`](Self::flush)ed
    /// every `chunk_size` entries, so a long scan streams while the ring
    /// runs. Emit order keeps each tag's chunks key-ordered, as the
    /// seam's rank-ordered release needs.
    fn route<T: Tier>(&mut self, tag: u32, key: u64, payload: u64) {
        let tag = tag as usize;
        if !T::CHUNKED {
            let (open_idx, row) = self.meta[tag];
            self.open[open_idx as usize].items.push((row, key, payload));
            return;
        }
        let buf = &mut self.chunks[tag];
        buf.push((key, payload));
        if buf.len() >= self.chunk_size {
            self.flush(tag);
        }
    }

    /// Pushes `tag`'s full chunk to the gather seam. Cold and out of line:
    /// inlined into `route`, it cost a 128-entry scan ~8 % (2-vCPU x86 VM).
    #[cold]
    #[inline(never)]
    fn flush(&mut self, tag: usize) {
        let ((open_idx, row), buf) = (self.meta[tag], &mut self.chunks[tag]);
        self.flushed += buf.len() as u64;
        // The seam hands back a consumed chunk's buffer when it has
        // one: a long scan settles into a closed loop of recycled
        // allocations instead of one fresh `Vec` per chunk.
        let reply = &self.open[open_idx as usize].reply;
        if let Some(spare) = reply.push_chunk(row, std::mem::take(buf)) {
            *buf = spare;
        }
    }

    /// Admits a walker part taken off its queue at `admitted` and feeds
    /// its work to the ring, which may emit for earlier tags meanwhile.
    fn admit<T: Tier>(
        &mut self,
        (cell, stages): (&WorkerCell, &StageTimes),
        ring: &mut Ring<'_, T::Index>,
        (work, reply): Unpacked<'_, T::Work>,
        admitted: Instant,
        prof: &mut ThreadProfiler,
    ) {
        cell.add_jobs(1);
        stages.record(Stage::QueueWait, reply.queue_wait(admitted));
        if work.is_empty() {
            // Defensive: never strand a zero-key part. (The planner
            // never scatters one.)
            debug_assert!(!T::CHUNKED, "empty scan shard-part");
            reply.complete_part(Vec::new(), Some(cell), admitted);
            return;
        }
        let open_idx = self.open.len();
        let tags = self.meta.len()..self.meta.len() + work.len();
        if T::CHUNKED {
            // Each cursor's first chunk is sized once, as its rows are.
            let first = |(_, unit): &(u32, T::Work)| T::chunk_entries(unit).min(self.chunk_size);
            self.chunks
                .extend(work.iter().map(first).map(Vec::with_capacity));
        }
        self.open.push(OpenJob {
            reply: Arc::clone(reply),
            // A point-probe part's rows are sized once (a probe emits
            // about one row per key) and moved into the reply at close.
            items: Vec::with_capacity(if T::CHUNKED { 0 } else { work.len() }),
            admitted,
            tags,
        });
        let mark = prof.mark();
        for &(row, item) in work {
            let tag = u32::try_from(self.meta.len()).expect("batch exceeds u32 tags");
            self.meta.push((open_idx as u32, row));
            ring.feed(tag, item, &mut |t, k, p| self.route::<T>(t, k, p));
        }
        prof.record(Stage::Walk, mark);
    }

    /// Closes the batch, for either caller: drains the ring, publishes
    /// the batch's counters, then traces and completes each part — a scan
    /// part per cursor, its tail chunk riding the completion. A part that
    /// waited in no open batch (`closed` is `None`: a walk on a
    /// submitting thread) has no batch-wait span. Every part completes at
    /// the instant the ring drained. Returns the batch's walk counters.
    fn close<T: Tier>(
        mut self,
        ring: &mut Ring<'_, T::Index>,
        (shard, cell, stages): (usize, &WorkerCell, &StageTimes),
        (reason, closed): (FlushKind, Option<Instant>),
        prof: &mut ThreadProfiler,
    ) -> WalkCounters {
        let mark = prof.mark();
        ring.drain(&mut |t, k, p| self.route::<T>(t, k, p));
        prof.record(Stage::Walk, mark);
        let now = Instant::now();
        let busy = (now - self.opened).saturating_sub(self.asked);

        cell.add_batch(self.meta.len() as u64, reason);
        cell.add_busy(busy);
        stages.record(Stage::Walk, busy);
        let unflushed = match T::CHUNKED {
            true => self.chunks.iter().map(Vec::len).sum::<usize>(),
            false => self.open.iter().map(|job| job.items.len()).sum(),
        };
        cell.add_matches(self.flushed + unflushed as u64);
        let counters = ring.take_counters();
        prof.add_walk(&counters);
        let gather_mark = prof.mark();
        for job in self.open {
            if job.reply.is_traced() {
                job.reply.trace_annotate(|trace, submitted| {
                    trace.add_shard(shard as u32);
                    trace.span_between(Stage::QueueWait, submitted, job.admitted);
                    if let Some(closed) = closed {
                        trace.span_between(Stage::BatchWait, job.admitted, closed);
                    }
                    trace.span_for(Stage::Walk, self.opened, busy);
                    trace.add_walk(&counters);
                });
            }
            if T::CHUNKED {
                for tag in job.tags {
                    let tail = std::mem::take(&mut self.chunks[tag]);
                    let rank = self.meta[tag].1;
                    job.reply.complete_stream_part(rank, tail, Some(cell), now);
                }
            } else {
                job.reply.complete_part(job.items, Some(cell), now);
            }
        }
        prof.record(Stage::Gather, gather_mark);
        counters
    }
}

/// The sub-ring rule, either tier: a plan with fewer probe keys or scan
/// cursors than the walker ring has slots, each part fitting one chunk,
/// is walked on its submitting thread instead of being queued:
/// `try_read` on every owning shard (ascending, `parts`' order), then
/// per shard the worker's own routine — one [`Batch`] over one [`Ring`],
/// closed queue-dry, its walk counters added to the shard's profile. A
/// refused guard means the shard's worker holds or awaits its write
/// barrier, so every guard is dropped and `false` leaves `parts` to the queues.
pub(crate) fn walk_here<T: Tier>(
    index: &T,
    (cells, profs): (&[Arc<WorkerCell>], &[Arc<ProfCell>]),
    stages: &StageTimes,
    (inflight, stream_chunk): (usize, usize),
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
    if !(1..inflight).contains(&units) || !walks().all(|(_, (work, _))| work.iter().all(fits)) {
        return false;
    }
    let held = walks().map(|(shard, part)| Some((shard, part, index.try_read(shard)?)));
    let Some(held) = held.collect::<Option<Vec<_>>>() else {
        return false;
    };
    let mut prof = ThreadProfiler::disabled();
    for (shard, part, guard) in held {
        let (cell, mut ring) = (&*cells[shard], Ring::new(&*guard, inflight));
        let mut batch = Batch::new(stream_chunk);
        batch.admit::<T>((cell, stages), &mut ring, part, batch.opened, &mut prof);
        let done = (FlushKind::QueueDry, None);
        let counters = batch.close::<T>(&mut ring, (shard, cell, stages), done, &mut prof);
        if let Some(prof) = profs.get(shard) {
            prof.add_walk(&counters);
        }
    }
    true
}

/// Assembles and drains one batch starting from `job` under the shard's
/// read guard, held for the batch's life so nothing mutates (or frees a
/// node) under the ring it borrows. Returns true when the poison pill
/// arrived and the worker must halt after this batch.
fn run_batch<T: Tier>(
    ctx: &WorkerContext<T>,
    mut job: Job,
    writes: &mut Vec<WriteJob>,
    prof: &mut ThreadProfiler,
) -> bool {
    let guard = ctx.index.read(ctx.shard);
    let mut ring = Ring::new(&*guard, ctx.inflight);
    let mut batch = Batch::new(ctx.stream_chunk);
    // Admit `job`, then what is queued until the close rule says stop.
    let mut admitted = batch.opened;
    let (reason, closed) = loop {
        let part = T::unpack(&job).expect("a queue carries only its tier's walker jobs");
        batch.admit::<T>((&*ctx.cell, &*ctx.stages), &mut ring, part, admitted, prof);
        let asking = Instant::now();
        let next = ctx
            .policy
            .next_job(batch.meta.len(), &ctx.queue, writes, prof);
        admitted = Instant::now();
        batch.asked += admitted - asking;
        match next {
            Ok(next) => job = next,
            Err(reason) => break (reason, admitted),
        }
    };
    ctx.stages.record(Stage::BatchWait, closed - batch.opened);
    let telemetry = (ctx.shard, &*ctx.cell, &*ctx.stages);
    batch.close::<T>(&mut ring, telemetry, (reason, Some(closed)), prof);
    reason == FlushKind::Shutdown
}
