//! The probe service: shard router, worker pool, and client API.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use widx_db::epoch::EpochDomain;
use widx_db::hash::HashRecipe;
use widx_obs::{
    ActiveTrace, FlightRecorder, HistogramSnapshot, ProfCell, ProfSnapshot, Stage, StageTimes,
    WorkerCell,
};
use widx_soft::ScanRange;

use crate::batch::BatchPolicy;
use crate::ordered::OrderedShardedIndex;
use crate::queue::{Job, Part, ShardQueue, WriteJob};
use crate::request::{
    PendingResponse, PendingStream, Request, RequestKind, Response, ResponseState, TraceState,
    WriteOp,
};
use crate::shard::ShardedIndex;
use crate::stats::{profile_document, LatencySummary, ServiceStats, StageStats, WorkerStats};
use crate::worker::{run_worker, walk_here, write_here, Tier, WorkerContext};

/// Tuning knobs for a [`ProbeService`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker/shard count (the "walker pool" width across the socket).
    /// Applies to the hashed tier and, when built, the ordered tier.
    pub shards: usize,
    /// In-flight depth per worker: AMAC probes on hash shards, resumable
    /// scan cursors on ordered shards (walkers per shard). A probe with
    /// fewer keys, or a one-chunk scan over fewer shards, cannot fill
    /// the ring and is walked on its submitting thread, by the worker's
    /// own batch routine over a ring of its own. The default is 16. The
    /// 5 % knee of `examples/software_walkers` at 2²⁴ entries on a
    /// 2-vCPU VM sits on the threshold between 16 and 32: three runs put
    /// it at 32, 16 and 16, the first reading AMAC 87.6 ns/key at 16
    /// against 83.4 at 32 (4.8 %). End to end, `join_dram` at 16 beat 8
    /// in 5 of 6 alternating runs (`cpu_ns_per_key` 206 → 189, 6 of 6).
    pub inflight: usize,
    /// Keys per batch before a size flush. A worker never waits to
    /// reach it: a batch also closes the moment the shard's queue is
    /// observed empty, so this caps batches under load and costs a lone
    /// request nothing.
    pub batch_size: usize,
    /// Per-shard queue capacity in keys (backpressure threshold).
    pub queue_capacity: usize,
    /// Bucket floor per shard at build time.
    pub min_buckets: usize,
    /// Target entries per bucket at build time.
    pub load: f64,
    /// B+-tree fanout for the ordered tier at build time. The default,
    /// 64, won six alternating rounds of fanouts 16 / 32 / 64 on a
    /// 2-vCPU VM: the best `scan_dram` median (24.5 M entries/s, against
    /// 23.8 M and 23.1 M; first in 4 of 6 rounds), the least memory
    /// (59.9 B per entry, against 62.3 and 60.7), and `rw_hot` no worse
    /// (0.23 M ops/s, against 0.23 M and 0.22 M). A 128-entry scan
    /// crosses 2 to 3 leaves at this width, and 16 at fanout 8.
    pub fanout: usize,
    /// Entries per chunk on streaming range scans: a range worker
    /// pushes a chunk to the gather seam every `stream_chunk` entries
    /// its walker yields for one scan (the tail chunk may be smaller).
    /// Smaller chunks cut first-chunk latency; larger ones amortize
    /// seam and framing overhead. A scan whose limit fits one chunk is
    /// a *one-chunk* scan (see [`inflight`](Self::inflight)).
    pub stream_chunk: usize,
    /// Head sampling rate for per-request traces: record every `N`th
    /// request into the flight recorder. `0` (the default) disables
    /// head sampling entirely — with no slow threshold either, the
    /// trace seam is never armed and requests carry zero tracing cost.
    pub trace_sample: u64,
    /// Tail sampling: any request whose end-to-end latency reaches this
    /// threshold is always recorded (regardless of head sampling) and
    /// emitted to the rate-limited slow-request log. `None` (the
    /// default) disables tail sampling.
    pub slow_threshold: Option<Duration>,
    /// Flight-recorder ring capacity in traces.
    pub trace_capacity: usize,
    /// Hardware profiling: when set, every worker thread opens a
    /// `perf-event` counter group (cycles, instructions, LLC misses,
    /// dTLB misses) and attributes windows to the stage seam, so
    /// [`ProbeService::live_stats`] and the `Profile` wire opcode carry
    /// a per-stage cycle breakdown with derived IPC / MPKI /
    /// stall-fraction / effective-MLP. On hosts without usable hardware
    /// counters the groups degrade to the software backend (the
    /// snapshot says so) — enabling this never fails. Off by default:
    /// unprofiled workers pay nothing.
    pub profile: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 4,
            inflight: 16,
            batch_size: 64,
            queue_capacity: 4096,
            min_buckets: 64,
            load: 1.0,
            fanout: 64,
            stream_chunk: 512,
            trace_sample: 0,
            slow_threshold: None,
            trace_capacity: 256,
            profile: false,
        }
    }
}

impl ServeConfig {
    /// Sets the shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> ServeConfig {
        self.shards = shards;
        self
    }

    /// Sets the per-worker AMAC in-flight depth.
    #[must_use]
    pub fn with_inflight(mut self, inflight: usize) -> ServeConfig {
        self.inflight = inflight;
        self
    }

    /// Sets the size-flush threshold.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> ServeConfig {
        self.batch_size = batch_size;
        self
    }

    /// Sets the per-shard queue capacity (keys).
    #[must_use]
    pub fn with_queue_capacity(mut self, keys: usize) -> ServeConfig {
        self.queue_capacity = keys;
        self
    }

    /// Sets the ordered tier's B+-tree fanout.
    #[must_use]
    pub fn with_fanout(mut self, fanout: usize) -> ServeConfig {
        self.fanout = fanout;
        self
    }

    /// Sets the streaming chunk size (entries per chunk).
    #[must_use]
    pub fn with_stream_chunk(mut self, entries: usize) -> ServeConfig {
        self.stream_chunk = entries;
        self
    }

    /// Sets the head-sampling rate (`0` disables head sampling).
    #[must_use]
    pub fn with_trace_sample(mut self, one_in: u64) -> ServeConfig {
        self.trace_sample = one_in;
        self
    }

    /// Sets the tail-sampling slow threshold (`None` disables).
    #[must_use]
    pub fn with_slow_threshold(mut self, threshold: Option<Duration>) -> ServeConfig {
        self.slow_threshold = threshold;
        self
    }

    /// Sets the flight-recorder ring capacity in traces.
    #[must_use]
    pub fn with_trace_capacity(mut self, traces: usize) -> ServeConfig {
        self.trace_capacity = traces;
        self
    }

    /// Enables per-worker hardware profiling (see
    /// [`profile`](ServeConfig::profile)).
    #[must_use]
    pub fn with_profile(mut self, profile: bool) -> ServeConfig {
        self.profile = profile;
        self
    }
}

/// Why a submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The service has shut down (or is in the middle of doing so).
    Stopped,
    /// A [`Request::RangeScan`] was submitted to a service built without
    /// an ordered tier (see
    /// [`build_with_range`](ProbeService::build_with_range)).
    NoOrderedIndex,
    /// A non-blocking submission ([`try_submit`](ProbeService::try_submit))
    /// found a target shard queue at capacity. The request was *not*
    /// enqueued anywhere — retry later. Blocking paths never return
    /// this; they wait out the backpressure instead.
    Busy,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Stopped => write!(f, "probe service is stopped"),
            SubmitError::NoOrderedIndex => {
                write!(f, "probe service has no ordered index for range scans")
            }
            SubmitError::Busy => write!(f, "probe service shard queue is at capacity"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What the net tier knows about a request when it submits one on
/// behalf of a connection — passed to the non-blocking submission
/// surface so an armed trace is anchored at the frame-decode instant,
/// carries the wire request id, and is *deferred*: the service leaves
/// the completed trace attached for the reactor to close with the
/// reply-write span (see `PendingResponse::take_trace`).
#[derive(Clone, Copy, Debug)]
pub struct NetTraceCtx {
    /// Index of the reactor that decoded the frame.
    pub reactor: u32,
    /// The wire request id.
    pub id: u64,
    /// When the frame finished decoding — the trace timeline's base, so
    /// the net-read (decode-to-submit) leg is on the record.
    pub decoded_at: Instant,
}

/// One tier's serving runtime: its index plus, per shard and in shard
/// order, the queue, the worker thread and the telemetry cells. The
/// service runs one for the hash tier and, when built, one for the
/// ordered tier — the same struct, the same worker loop.
struct TierRuntime<T: Tier> {
    index: Arc<T>,
    queues: Vec<Arc<ShardQueue>>,
    workers: Vec<JoinHandle<()>>,
    /// Per-worker registry cells: each worker publishes its counters
    /// and latencies here while it runs, so stats are a read-only
    /// snapshot at any time — no join required.
    cells: Vec<Arc<WorkerCell>>,
    /// Per-worker hardware-profiling cells, populated only when the
    /// config enabled profiling — empty otherwise, which is also how
    /// `prof_snapshot` knows profiling is off.
    prof_cells: Vec<Arc<ProfCell>>,
}

impl<T: Tier> TierRuntime<T> {
    /// Spawns one worker per shard of `index` and returns once each has
    /// parked on its empty queue.
    fn start(index: T, config: &ServeConfig, stages: &Arc<StageTimes>) -> TierRuntime<T> {
        let mut tier = TierRuntime {
            index: Arc::new(index),
            queues: Vec::new(),
            workers: Vec::new(),
            cells: Vec::new(),
            prof_cells: Vec::new(),
        };
        for shard in 0..tier.index.shard_count() {
            let ctx = WorkerContext {
                shard,
                queue: Arc::new(ShardQueue::new(config.queue_capacity)),
                index: Arc::clone(&tier.index),
                policy: BatchPolicy::new(config.batch_size),
                inflight: config.inflight,
                stream_chunk: config.stream_chunk,
                cell: Arc::new(WorkerCell::new()),
                stages: Arc::clone(stages),
                prof: config.profile.then(|| Arc::new(ProfCell::new())),
            };
            tier.queues.push(Arc::clone(&ctx.queue));
            tier.cells.push(Arc::clone(&ctx.cell));
            tier.prof_cells.extend(ctx.prof.clone());
            let worker = std::thread::Builder::new()
                .name(format!("{}-{shard}", T::THREAD_NAME))
                .spawn(move || run_worker(&ctx))
                .expect("spawn shard worker");
            tier.workers.push(worker);
        }
        // Return only once every worker has parked (or exited): one still
        // starting up refuses sub-ring writes and allocates on its way in.
        for (queue, worker) in tier.queues.iter().zip(&tier.workers) {
            while !queue.idle() && !worker.is_finished() {
                std::thread::yield_now();
            }
        }
        tier
    }

    /// Keys (or scan cursors) currently queued per shard.
    fn backlog(&self) -> Vec<usize> {
        self.queues.iter().map(|q| q.backlog_keys()).collect()
    }

    /// Per-worker statistics in shard order, folding every worker's
    /// latency histogram into `latency` and its freed node slots into
    /// `freed`.
    fn worker_stats(&self, latency: &mut HistogramSnapshot, freed: &mut u64) -> Vec<WorkerStats> {
        let stats = |(shard, cell): (usize, &Arc<WorkerCell>)| {
            let snap = cell.snapshot();
            latency.merge_from(&snap.latency);
            *freed += snap.write_freed;
            WorkerStats::from_cell(shard, &snap)
        };
        self.cells.iter().enumerate().map(stats).collect()
    }

    /// Joins every worker; returns how many had panicked.
    fn join(&mut self) -> usize {
        let joins = self.workers.drain(..).map(JoinHandle::join);
        joins.filter(Result::is_err).count()
    }
}

/// A planned request: the shared completion state, sized to the live
/// parts, and one job per part already resolved to its shard and the
/// queue it enters. Parts are in the one lock order every multi-queue
/// push uses — hash shards ascending, then ordered shards ascending — so
/// concurrent pushers cannot deadlock.
struct Plan<'s> {
    state: Arc<ResponseState>,
    parts: Vec<Part<'s>>,
}

/// What [`ProbeService::admit`] does about a full queue.
enum Admission {
    /// Wait out the backpressure, part by part.
    Block,
    /// Refuse with [`SubmitError::Busy`], enqueuing nothing.
    Try,
}

/// Scatters `items` over `shards` buckets by `shard_of`, tagging each
/// with its position in the request.
fn scatter<W: Copy>(
    items: &[W],
    shards: usize,
    shard_of: impl Fn(&W) -> usize,
) -> Vec<Vec<(u32, W)>> {
    assert!(
        u32::try_from(items.len()).is_ok(),
        "request exceeds u32 row space"
    );
    let mut parts = vec![Vec::new(); shards];
    for (row, item) in items.iter().enumerate() {
        parts[shard_of(item)].push((row as u32, *item));
    }
    parts
}

/// A running probe-serving engine: one worker thread per shard, each
/// driving AMAC walkers over its own index partition.
///
/// Shutdown mirrors the accelerator's poison-pill protocol
/// ([`widx_core::POISON_KEY`]): [`stop`](ProbeService::stop) (or
/// [`shutdown`](ProbeService::shutdown)) enqueues one pill per shard
/// *behind* all accepted work, so every request submitted before the
/// stop still completes — drain, then halt. After `stop`, new
/// submissions fail with [`SubmitError::Stopped`].
pub struct ProbeService {
    /// The hash tier: point probes, and the acking side of writes.
    hash: TierRuntime<ShardedIndex>,
    /// The ordered (range-partitioned B+-tree) tier, when built; `None`
    /// on services built for point traffic only.
    ordered: Option<TierRuntime<OrderedShardedIndex>>,
    /// The shared stage-timing seam (queue-wait / batch-wait / walk /
    /// write / gather / reply-write).
    stages: Arc<StageTimes>,
    /// The per-request trace ring; always present, only written when
    /// the sampling knobs arm traces.
    recorder: Arc<FlightRecorder>,
    /// Head-sampling counter (every request ticks it while tracing is
    /// armed; every `trace_sample`th tick arms a trace).
    trace_seq: AtomicU64,
    trace_sample: u64,
    slow_threshold: Option<Duration>,
    /// Walker ring slots per worker: the sub-ring rule's threshold.
    inflight: usize,
    /// A scan part walked under the sub-ring rule must fit one chunk.
    stream_chunk: usize,
    started: Instant,
    /// Stop gate: `admit` holds a read guard across all of a plan's
    /// queue pushes; `stop` flips the flag and poisons the queues under
    /// the write guard. A request is therefore accepted (every shard
    /// part enqueued) or refused atomically — it can never be
    /// half-enqueued by racing with `stop`.
    stopped: RwLock<bool>,
    /// The statistics from the join that already happened, kept so a
    /// second pass through `shutdown_inner` (an explicit `shutdown`
    /// followed by `Drop`, or a `stop` racing a concurrent shutdown
    /// path) returns them instead of panicking on "nothing to join".
    joined: Option<(ServiceStats, usize)>,
}

impl ProbeService {
    /// Builds the sharded index from `pairs` and starts serving.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configuration (zero shards/inflight/batch
    /// size/queue capacity) or if a worker thread cannot be spawned.
    #[must_use]
    pub fn build(
        recipe: HashRecipe,
        pairs: impl IntoIterator<Item = (u64, u64)>,
        config: &ServeConfig,
    ) -> ProbeService {
        let sharded = ShardedIndex::build(
            recipe,
            config.shards,
            config.min_buckets,
            config.load,
            &EpochDomain::new(),
            pairs,
        );
        ProbeService::start(sharded, config)
    }

    /// Builds *both* tiers over the same `pairs` — the hash-sharded
    /// index for point traffic and the range-partitioned B+-tree tier
    /// for [`Request::RangeScan`] — and starts serving. The production
    /// shape of a table with a hash index and an ordered index over the
    /// same column.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configuration or if a worker thread cannot
    /// be spawned.
    #[must_use]
    pub fn build_with_range(
        recipe: HashRecipe,
        pairs: impl IntoIterator<Item = (u64, u64)>,
        config: &ServeConfig,
    ) -> ProbeService {
        let pairs: Vec<(u64, u64)> = pairs.into_iter().collect();
        let domain = EpochDomain::new();
        let sharded = ShardedIndex::build(
            recipe,
            config.shards,
            config.min_buckets,
            config.load,
            &domain,
            pairs.iter().copied(),
        );
        let ordered = OrderedShardedIndex::build(config.fanout, config.shards, &domain, pairs);
        ProbeService::start_with_ordered(sharded, ordered, config)
    }

    /// Starts serving an already-built [`ShardedIndex`]. The worker
    /// count is the index's shard count; `config.shards` is ignored.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configuration or if a worker thread cannot
    /// be spawned.
    #[must_use]
    pub fn start(sharded: ShardedIndex, config: &ServeConfig) -> ProbeService {
        ProbeService::start_inner(sharded, None, config)
    }

    /// Starts serving already-built point and ordered tiers. Worker
    /// counts are the indexes' own shard counts; `config.shards` is
    /// ignored (the tiers need not even agree).
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configuration or if a worker thread cannot
    /// be spawned.
    #[must_use]
    pub fn start_with_ordered(
        sharded: ShardedIndex,
        ordered: OrderedShardedIndex,
        config: &ServeConfig,
    ) -> ProbeService {
        ProbeService::start_inner(sharded, Some(ordered), config)
    }

    fn start_inner(
        sharded: ShardedIndex,
        ordered: Option<OrderedShardedIndex>,
        config: &ServeConfig,
    ) -> ProbeService {
        assert!(config.inflight > 0, "need at least one in-flight probe");
        assert!(config.stream_chunk > 0, "need a positive stream chunk");
        let stages = Arc::new(StageTimes::new());
        ProbeService {
            hash: TierRuntime::start(sharded, config, &stages),
            ordered: ordered.map(|index| TierRuntime::start(index, config, &stages)),
            stages,
            recorder: Arc::new(FlightRecorder::new(config.trace_capacity)),
            trace_seq: AtomicU64::new(0),
            trace_sample: config.trace_sample,
            slow_threshold: config.slow_threshold,
            inflight: config.inflight,
            stream_chunk: config.stream_chunk,
            started: Instant::now(),
            stopped: RwLock::new(false),
            joined: None,
        }
    }

    /// The served index.
    #[must_use]
    pub fn sharded(&self) -> &ShardedIndex {
        &self.hash.index
    }

    /// The served ordered index, when the service has a range tier.
    #[must_use]
    pub fn ordered(&self) -> Option<&OrderedShardedIndex> {
        self.ordered.as_ref().map(|tier| &*tier.index)
    }

    /// A stateless [`EpochDomain`]: nothing reclaims by epochs any
    /// more. Kept only for `benchmark/` until ROADMAP direction 1a
    /// deletes it.
    #[must_use]
    pub fn epoch_domain(&self) -> Arc<EpochDomain> {
        EpochDomain::new()
    }

    /// Keys currently queued per shard (backlog snapshot).
    #[must_use]
    pub fn backlog(&self) -> Vec<usize> {
        self.hash.backlog()
    }

    /// Scan cursors currently queued per ordered shard (empty without a
    /// range tier).
    #[must_use]
    pub fn range_backlog(&self) -> Vec<usize> {
        self.ordered
            .as_ref()
            .map_or_else(Vec::new, TierRuntime::backlog)
    }

    /// Whether the sampling knobs can ever arm a trace — the cheap
    /// check front-ends use to skip building a [`NetTraceCtx`] when
    /// tracing is off.
    #[must_use]
    pub fn tracing_armed(&self) -> bool {
        self.trace_sample > 0 || self.slow_threshold.is_some()
    }

    /// The per-request flight recorder (always present; empty unless
    /// the sampling knobs arm traces).
    #[must_use]
    pub fn flight_recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.recorder)
    }

    /// The flight recorder's gauges plus recent traces as one JSON
    /// document — the payload of the `Trace` wire opcode.
    #[must_use]
    pub fn traces_json(&self) -> String {
        self.recorder.to_json()
    }

    /// Whether the service was built with hardware profiling enabled
    /// ([`ServeConfig::with_profile`]).
    #[must_use]
    pub fn profiling_enabled(&self) -> bool {
        !self.hash.prof_cells.is_empty()
    }

    /// The merged profiling snapshot across every worker, or `None`
    /// when the service was built without profiling.
    #[must_use]
    pub fn prof_snapshot(&self) -> Option<ProfSnapshot> {
        if !self.profiling_enabled() {
            return None;
        }
        let ordered = self.ordered.iter().flat_map(|tier| &tier.prof_cells);
        let mut merged = ProfSnapshot::default();
        for cell in self.hash.prof_cells.iter().chain(ordered) {
            merged.merge(&cell.snapshot());
        }
        Some(merged)
    }

    /// The profiling snapshot as a self-describing JSON document — the
    /// payload of the `Profile` wire opcode. An unprofiled service
    /// answers `{"enabled":false}` rather than erroring, so a scraper
    /// can probe for the capability.
    #[must_use]
    pub fn profile_json(&self) -> String {
        profile_document(self.prof_snapshot().as_ref())
    }

    /// Decide whether this request carries a trace, and build it. Runs
    /// at plan time, *before* the request is enqueued, which is what
    /// makes net-deferred commits race-free: the deferral policy is
    /// fixed before any worker can complete the request.
    fn arm_trace(&self, kind: &'static str, net: Option<&NetTraceCtx>) -> Option<Box<TraceState>> {
        if !self.tracing_armed() {
            return None;
        }
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        let sampled = self.trace_sample > 0 && seq.is_multiple_of(self.trace_sample);
        if !sampled && self.slow_threshold.is_none() {
            return None;
        }
        let (base, id, reactor) = match net {
            Some(ctx) => (ctx.decoded_at, ctx.id, Some(ctx.reactor)),
            None => (Instant::now(), seq, None),
        };
        let mut active = ActiveTrace::new(base, id, kind, sampled);
        if let Some(rix) = reactor {
            active.set_reactor(rix);
        }
        if net.is_some() {
            // The trace's own two instants also feed the aggregate
            // histogram, so the untraced path still reads no clock here.
            let submitted = Instant::now();
            active.span_between(Stage::NetRead, base, submitted);
            self.stages.record(Stage::NetRead, submitted - base);
        }
        Some(Box::new(TraceState {
            active,
            recorder: Arc::clone(&self.recorder),
            slow_threshold: self.slow_threshold,
            deferred: net.is_some(),
            _commit_ticket: self.recorder.begin_commit(),
        }))
    }

    /// A request's shared completion state: `parts` shard-parts
    /// outstanding (zero is born complete), wired to the stage seam and
    /// — when the sampling knobs say so — carrying an armed trace.
    fn new_state(
        &self,
        kind: RequestKind,
        kind_name: &'static str,
        parts: usize,
        net: Option<&NetTraceCtx>,
    ) -> Arc<ResponseState> {
        let state = ResponseState::new(kind, parts).with_stages(&self.stages);
        Arc::new(match self.arm_trace(kind_name, net) {
            Some(trace) => state.with_trace(trace),
            None => state,
        })
    }

    /// Plans any buffered request shape.
    fn plan(&self, request: &Request, net: Option<&NetTraceCtx>) -> Result<Plan<'_>, SubmitError> {
        Ok(match request {
            Request::Lookup { key } => self.plan_keys(
                RequestKind::Lookup { key: *key },
                std::slice::from_ref(key),
                net,
            ),
            Request::MultiLookup { keys } => self.plan_keys(RequestKind::MultiLookup, keys, net),
            Request::JoinProbe { keys } => self.plan_keys(RequestKind::JoinProbe, keys, net),
            &Request::RangeScan {
                lo,
                hi,
                limit,
                desc,
            } => self.plan_scan(lo, hi, limit, desc, false, net)?,
            Request::Insert { .. } | Request::Delete { .. } | Request::Update { .. } => {
                let kind_name = match request {
                    Request::Insert { .. } => "insert",
                    Request::Delete { .. } => "delete",
                    _ => "update",
                };
                let ops = request.write_ops().expect("write request variant");
                self.plan_write(kind_name, &ops, net)
            }
        })
    }

    /// Partitions `keys` over the hash shards that own them.
    fn plan_keys(&self, kind: RequestKind, keys: &[u64], net: Option<&NetTraceCtx>) -> Plan<'_> {
        let kind_name = match kind {
            RequestKind::Lookup { .. } => "lookup",
            RequestKind::MultiLookup => "multi_lookup",
            RequestKind::JoinProbe => "join_probe",
            RequestKind::RangeScan { .. } | RequestKind::Write { .. } => {
                unreachable!("scans and writes have their own planners")
            }
        };
        let tier = &self.hash;
        let probe = |state: &Arc<ResponseState>, shard: usize, entries: Vec<(u32, u64)>| {
            let reply = Arc::clone(state);
            (shard, &*tier.queues[shard], Job::Probe { entries, reply })
        };
        if let [key] = keys {
            // Fast path: a single-key request touches exactly one shard
            // — skip the per-shard partition scaffolding.
            let state = self.new_state(kind, kind_name, 1, net);
            let parts = vec![probe(&state, tier.index.shard_of(*key), vec![(0, *key)])];
            return Plan { state, parts };
        }
        let scattered = scatter(keys, tier.queues.len(), |key| tier.index.shard_of(*key));
        let live = scattered.iter().filter(|p| !p.is_empty()).count();
        let state = self.new_state(kind, kind_name, live, net);
        let parts = scattered
            .into_iter()
            .enumerate()
            .filter(|(_, entries)| !entries.is_empty())
            .map(|(shard, entries)| probe(&state, shard, entries))
            .collect();
        Plan { state, parts }
    }

    /// Scatters a write over the shards that own its keys: the hash
    /// tier routes by `shard_of` and carries the acks (its parts report
    /// `(op, key, applied)` rows); the ordered tier, when built, routes
    /// by the *pure* `write_shard_of` and applies the same mutations
    /// silently (parts complete empty).
    fn plan_write(
        &self,
        kind_name: &'static str,
        ops: &[WriteOp],
        net: Option<&NetTraceCtx>,
    ) -> Plan<'_> {
        let index = &self.hash.index;
        let acked = scatter(ops, index.shard_count(), |op| index.shard_of(op.key()));
        let silent = self.ordered.as_ref().map_or_else(Vec::new, |tier| {
            let index = &tier.index;
            scatter(ops, index.shard_count(), |op| {
                index.write_shard_of(op.key())
            })
        });
        let live = acked
            .iter()
            .chain(&silent)
            .filter(|p| !p.is_empty())
            .count();
        let kind = RequestKind::Write { ops: ops.len() };
        let state = self.new_state(kind, kind_name, live, net);
        let ordered_queues = self.ordered.as_ref().map_or(&[][..], |tier| &tier.queues);
        let mut parts = Vec::with_capacity(live);
        for (queues, scattered, ack) in [
            (&self.hash.queues[..], acked, true),
            (ordered_queues, silent, false),
        ] {
            for (shard, (queue, ops)) in queues.iter().zip(scattered).enumerate() {
                if !ops.is_empty() {
                    let reply = Arc::clone(&state);
                    parts.push((shard, &**queue, Job::Write(WriteJob { ops, ack, reply })));
                }
            }
        }
        Plan { state, parts }
    }

    /// Scatters a scan over every ordered shard its key interval
    /// overlaps (each part carrying the full interval and limit — shard
    /// trees only hold their own span, and the global `limit` is
    /// re-applied at the seam); degenerate scans yield zero parts and a
    /// state that is born complete. Scatter *ranks* are assigned in
    /// output order — shard order ascending, or descending for a `desc`
    /// scan — so the one gather seam, which a buffered reply and a
    /// stream read alike, never needs to know the direction: rank order
    /// *is* reply order. `streaming` only picks the trace label.
    fn plan_scan(
        &self,
        lo: u64,
        hi: u64,
        limit: usize,
        desc: bool,
        streaming: bool,
        net: Option<&NetTraceCtx>,
    ) -> Result<Plan<'_>, SubmitError> {
        let Some(tier) = &self.ordered else {
            return Err(SubmitError::NoOrderedIndex);
        };
        let kind_name = if streaming {
            "range_stream"
        } else {
            "range_scan"
        };
        let span = if lo > hi || limit == 0 {
            0..0 // Degenerate scans complete immediately: zero parts.
        } else {
            let (first, last) = tier.index.shard_span(lo, hi);
            first..last + 1
        };
        let count = span.len();
        let kind = RequestKind::RangeScan { limit };
        let state = self.new_state(kind, kind_name, count, net);
        let range = ScanRange {
            lo,
            hi,
            limit,
            desc,
        };
        let parts = span
            .enumerate()
            .map(|(i, shard)| {
                let rank = if desc { count - 1 - i } else { i } as u32;
                let scans = vec![(rank, range)];
                let reply = Arc::clone(&state);
                (shard, &*tier.queues[shard], Job::Scan { scans, reply })
            })
            .collect();
        Ok(Plan { state, parts })
    }

    /// The one way in: enqueues every part of `plan`, or none. This is
    /// the only holder of the stop gate's read guard on the submission
    /// path and the only caller of the queues' push primitives, so
    /// acceptance is all-or-nothing with respect to [`stop`](Self::stop)
    /// for every request shape — and, under [`Admission::Try`], with
    /// respect to backpressure across every shard of *both* tiers. A
    /// refused plan is simply dropped. What never reaches a queue is a
    /// sub-ring probe or one-chunk scan whose shards all grant their
    /// read guards, or a sub-ring write whose shards — of both tiers —
    /// are all idle and grant their write guards: it is walked
    /// ([`walk_here`]) or applied ([`write_here`]) here, under the same
    /// gate, and returned already complete — never `Busy`, never blocked.
    fn admit(&self, plan: Plan<'_>, how: Admission) -> Result<Arc<ResponseState>, SubmitError> {
        let stopped = self.stopped.read().expect("stop gate");
        if *stopped {
            return Err(SubmitError::Stopped);
        }
        let (tier, ring, stages) = (&self.hash, self.inflight, &*self.stages);
        let (parts, limits) = (&plan.parts, (ring, self.stream_chunk));
        let ordered = self.ordered.as_ref();
        let silent = ordered.map(|t| (&*t.index, &t.cells[..]));
        let hash_cells = (&tier.cells[..], &tier.prof_cells[..]);
        if walk_here(&*tier.index, hash_cells, stages, limits, parts)
            || ordered.is_some_and(|t| {
                let cells = (&t.cells[..], &t.prof_cells[..]);
                walk_here(&*t.index, cells, stages, limits, parts)
            })
            || write_here((&tier.index, &tier.cells), silent, stages, ring, parts)
        {
            return Ok(plan.state);
        }
        match how {
            Admission::Block => {
                for (_, queue, job) in plan.parts {
                    // Queues are poisoned only under the stop gate's
                    // write guard, which cannot be held while we hold
                    // the read guard.
                    queue
                        .push(job)
                        .expect("queue poisoned while stop gate held open");
                }
            }
            Admission::Try => {
                let parts = plan.parts.into_iter().map(|(_, queue, job)| (queue, job));
                crate::queue::try_push_all(parts.collect()).map_err(|_| SubmitError::Busy)?;
            }
        }
        drop(stopped);
        Ok(plan.state)
    }

    /// Admits `plan` exactly as [`submit`](Self::submit) would (walked
    /// or applied here when sub-ring), then blocks for the assembled
    /// response — the body of every blocking convenience.
    fn wait(&self, plan: Plan<'_>) -> Result<Response, SubmitError> {
        let state = self.admit(plan, Admission::Block)?;
        Ok(PendingResponse { state }.wait())
    }

    /// Submits a request, blocking only when a target shard queue is
    /// over capacity (backpressure). The returned handle resolves once
    /// every involved shard has answered — for a probe of fewer than
    /// [`inflight`](ServeConfig::inflight) keys, or a one-chunk scan,
    /// that is normally before this returns: it is walked here.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once [`stop`](ProbeService::stop) or
    /// shutdown has begun, or [`SubmitError::NoOrderedIndex`] for a
    /// [`Request::RangeScan`] without a range tier.
    pub fn submit(&self, request: Request) -> Result<PendingResponse, SubmitError> {
        let state = self.admit(self.plan(&request, None)?, Admission::Block)?;
        Ok(PendingResponse { state })
    }

    /// Non-blocking [`submit`](ProbeService::submit): never waits out
    /// backpressure. When any target shard queue is at capacity the
    /// request is refused with [`SubmitError::Busy`] and *nothing* is
    /// enqueued (all-or-nothing across shards), so a caller that cannot
    /// block — the `widx-net` event loop — can turn backpressure into a
    /// typed error reply instead of stalling every other connection.
    ///
    /// When the front-end carries a sampled (or potentially slow)
    /// request, `net` anchors the trace at frame-decode time and tags
    /// it with the reactor that owns the connection. Pass `None` for
    /// in-process callers.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] under backpressure, [`SubmitError::Stopped`]
    /// once shutdown has begun, or [`SubmitError::NoOrderedIndex`] for a
    /// [`Request::RangeScan`] without a range tier.
    pub fn try_submit(
        &self,
        request: Request,
        net: Option<NetTraceCtx>,
    ) -> Result<PendingResponse, SubmitError> {
        let state = self.admit(self.plan(&request, net.as_ref())?, Admission::Try)?;
        Ok(PendingResponse { state })
    }

    /// Submits a chunk-streaming range scan, blocking only under queue
    /// backpressure: the returned [`PendingStream`] yields merged
    /// key-ordered chunks *while shards are still scanning*, instead of
    /// buffering the whole reply like [`range_scan`](Self::range_scan).
    /// The scatter, batching, walkers, and the limit-at-the-seam
    /// contract are identical to the buffered path — concatenating the
    /// chunks reproduces its reply exactly.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once shutdown has begun, or
    /// [`SubmitError::NoOrderedIndex`] without a range tier.
    pub fn range_stream(
        &self,
        lo: u64,
        hi: u64,
        limit: usize,
        desc: bool,
    ) -> Result<PendingStream, SubmitError> {
        let plan = self.plan_scan(lo, hi, limit, desc, true, None)?;
        let state = self.admit(plan, Admission::Block)?;
        Ok(PendingStream::attach(state))
    }

    /// Non-blocking [`range_stream`](Self::range_stream): refuses with
    /// [`SubmitError::Busy`] instead of waiting out backpressure
    /// (all-or-nothing across shards) — the submission surface the
    /// `widx-net` event loop uses for the chunked reply opcodes. `net`
    /// is the optional network trace context, as for
    /// [`try_submit`](Self::try_submit).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] under backpressure, [`SubmitError::Stopped`]
    /// once shutdown has begun, or [`SubmitError::NoOrderedIndex`]
    /// without a range tier.
    pub fn try_range_stream(
        &self,
        lo: u64,
        hi: u64,
        limit: usize,
        desc: bool,
        net: Option<NetTraceCtx>,
    ) -> Result<PendingStream, SubmitError> {
        let plan = self.plan_scan(lo, hi, limit, desc, true, net.as_ref())?;
        let state = self.admit(plan, Admission::Try)?;
        Ok(PendingStream::attach(state))
    }

    /// Blocking convenience: all payloads under `key` — walked here, on
    /// the caller's thread, unless the shard refuses its read guard.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once shutdown has begun.
    pub fn lookup(&self, key: u64) -> Result<Vec<u64>, SubmitError> {
        match self.wait(self.plan_keys(RequestKind::Lookup { key }, &[key], None))? {
            Response::Lookup { payloads, .. } => Ok(payloads),
            _ => unreachable!("lookup requests assemble lookup responses"),
        }
    }

    /// Blocking convenience: `(key, payload)` matches for `keys` —
    /// walked here when sub-ring, queued to the workers otherwise.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once shutdown has begun.
    pub fn multi_lookup(&self, keys: &[u64]) -> Result<Vec<(u64, u64)>, SubmitError> {
        match self.wait(self.plan_keys(RequestKind::MultiLookup, keys, None))? {
            Response::MultiLookup { matches } => Ok(matches),
            _ => unreachable!("multi-lookup requests assemble multi-lookup responses"),
        }
    }

    /// Blocking convenience: `(probe row, payload)` join pairs for the
    /// outer column `keys` — walked here when sub-ring, as
    /// [`multi_lookup`](Self::multi_lookup).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once shutdown has begun.
    pub fn join_probe(&self, keys: &[u64]) -> Result<Vec<(u64, u64)>, SubmitError> {
        match self.wait(self.plan_keys(RequestKind::JoinProbe, keys, None))? {
            Response::JoinProbe { pairs } => Ok(pairs),
            _ => unreachable!("join-probe requests assemble join-probe responses"),
        }
    }

    /// Blocking convenience: insert `payload` under `key` — applied
    /// here when every owning shard is idle, queued otherwise. Returns
    /// once the write has been applied to every tier (always `true` —
    /// inserts cannot miss).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once shutdown has begun.
    pub fn insert(&self, key: u64, payload: u64) -> Result<bool, SubmitError> {
        self.write_one(WriteOp::Insert { key, payload }, "insert")
    }

    /// Blocking convenience: delete every payload under `key`. `Ok(true)`
    /// when at least one entry existed.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once shutdown has begun.
    pub fn delete(&self, key: u64) -> Result<bool, SubmitError> {
        self.write_one(WriteOp::Delete { key }, "delete")
    }

    /// Blocking convenience: replace every payload under `key` with
    /// `payload`. `Ok(true)` when the key existed; a miss changes
    /// nothing and returns `Ok(false)`.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once shutdown has begun.
    pub fn update(&self, key: u64, payload: u64) -> Result<bool, SubmitError> {
        self.write_one(WriteOp::Update { key, payload }, "update")
    }

    fn write_one(&self, op: WriteOp, kind_name: &'static str) -> Result<bool, SubmitError> {
        match self.wait(self.plan_write(kind_name, &[op], None))? {
            Response::Write { acks } => Ok(acks[0]),
            _ => unreachable!("write requests assemble write responses"),
        }
    }

    /// Blocking convenience: every `(key, payload)` with `lo <= key <=
    /// hi` in ascending key order, truncated to the first `limit`
    /// (`usize::MAX` for unbounded).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once shutdown has begun, or
    /// [`SubmitError::NoOrderedIndex`] when the service was built
    /// without a range tier.
    pub fn range_scan(
        &self,
        lo: u64,
        hi: u64,
        limit: usize,
    ) -> Result<Vec<(u64, u64)>, SubmitError> {
        self.scan(lo, hi, limit, false)
    }

    /// Blocking convenience: [`range_scan`](Self::range_scan) in
    /// descending key order — the `ORDER BY key DESC` shape, with the
    /// *largest* keys surviving `limit` and duplicates in reverse build
    /// order.
    ///
    /// # Errors
    ///
    /// As [`range_scan`](Self::range_scan).
    pub fn range_scan_desc(
        &self,
        lo: u64,
        hi: u64,
        limit: usize,
    ) -> Result<Vec<(u64, u64)>, SubmitError> {
        self.scan(lo, hi, limit, true)
    }

    fn scan(
        &self,
        lo: u64,
        hi: u64,
        limit: usize,
        desc: bool,
    ) -> Result<Vec<(u64, u64)>, SubmitError> {
        match self.wait(self.plan_scan(lo, hi, limit, desc, false, None)?)? {
            Response::RangeScan { entries } => Ok(entries),
            _ => unreachable!("range-scan requests assemble range-scan responses"),
        }
    }

    /// A coherent [`ServiceStats`] snapshot of the *running* service —
    /// no shutdown, no join, no pause. Workers keep publishing into
    /// their lock-free registry cells while this reads them, so the
    /// numbers are at most one batch stale per worker; counts are
    /// internally consistent (every latency count is derived from the
    /// same histogram buckets the percentiles are).
    ///
    /// At quiescence (all submitted requests completed) this equals the
    /// final [`shutdown`](Self::shutdown) snapshot, field for field,
    /// except `wall` (which keeps advancing), each worker's `idle`
    /// (which accumulates while the worker blocks on an empty queue),
    /// and `net` (attached by the network tier, if any) — the shutdown
    /// join materializes its report through this same path, so "final
    /// stats" is literally the last live scrape.
    #[must_use]
    pub fn live_stats(&self) -> ServiceStats {
        let (mut latency, mut freed) = (HistogramSnapshot::default(), 0);
        let workers = self.hash.worker_stats(&mut latency, &mut freed);
        let range_workers = match &self.ordered {
            Some(tier) => tier.worker_stats(&mut latency, &mut freed),
            None => Vec::new(),
        };
        ServiceStats {
            workers,
            range_workers,
            latency: LatencySummary::from_histogram(&latency),
            stages: StageStats::from_snapshot(&self.stages.snapshot()),
            net: crate::stats::NetStats::default(),
            trace: self.recorder.stats(),
            prof: self.prof_snapshot(),
            epoch_reclaimed: freed,
            wall: self.started.elapsed(),
        }
    }

    /// The service's stage-timing seam, shared with whatever front-end
    /// wants to record phases the service itself cannot see (the
    /// `widx-net` server records [`reply-write`](widx_obs::Stage) here).
    #[must_use]
    pub fn stage_times(&self) -> Arc<StageTimes> {
        Arc::clone(&self.stages)
    }

    /// Begins shutdown without consuming the service: marks the service
    /// stopped (subsequent [`submit`](ProbeService::submit)s fail with
    /// [`SubmitError::Stopped`]) and enqueues one poison pill per shard
    /// behind all accepted work. Workers drain, then halt; call
    /// [`shutdown`](ProbeService::shutdown) to join them and collect
    /// statistics. Idempotent.
    pub fn stop(&self) {
        let mut stopped = self.stopped.write().expect("stop gate");
        if !*stopped {
            *stopped = true;
            let ordered = self.ordered.iter().flat_map(|tier| &tier.queues);
            for queue in self.hash.queues.iter().chain(ordered) {
                queue.push_poison();
            }
        }
    }

    /// Drains all accepted work, halts every worker (poison pill per
    /// shard), and returns the collected statistics.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker panicked (after joining the rest).
    /// [`Drop`] performs the same join but swallows worker panics, so a
    /// service dropped during unwinding never aborts the process.
    #[must_use]
    pub fn shutdown(mut self) -> ServiceStats {
        let (stats, panicked) = self.shutdown_inner();
        assert!(panicked == 0, "{panicked} shard worker(s) panicked");
        stats
    }

    fn shutdown_inner(&mut self) -> (ServiceStats, usize) {
        self.stop();
        // Already joined by a prior pass (an explicit shutdown followed
        // by `Drop`, or concurrent shutdown paths racing a `stop`):
        // hand back the stats that pass produced instead of
        // re-snapshotting with a later wall clock.
        if let Some(prior) = self.joined.clone() {
            return prior;
        }
        // Workers publish into the registry as they run, so the join is
        // purely a drain barrier: once every worker has halted, the
        // registry holds its final values and one more live snapshot
        // *is* the post-mortem report.
        let mut panicked = self.hash.join();
        if let Some(tier) = &mut self.ordered {
            panicked += tier.join();
        }
        let result = (self.live_stats(), panicked);
        self.joined = Some(result.clone());
        result
    }
}

impl Drop for ProbeService {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service(entries: u64, config: &ServeConfig) -> ProbeService {
        ProbeService::build(
            HashRecipe::robust64(),
            (0..entries).map(|k| (k, k * 2)),
            config,
        )
    }

    #[test]
    fn lookup_hits_and_misses() {
        let s = service(1000, &ServeConfig::default());
        assert_eq!(s.lookup(7).unwrap(), vec![14]);
        assert_eq!(s.lookup(5000).unwrap(), Vec::<u64>::new());
        let stats = s.shutdown();
        assert_eq!(stats.total_keys(), 2);
        assert_eq!(stats.total_matches(), 1);
        assert_eq!(stats.latency.count, 2);
    }

    #[test]
    fn multi_lookup_spans_shards() {
        let s = service(1000, &ServeConfig::default().with_batch_size(8));
        let keys: Vec<u64> = (0..500).collect();
        let mut got = s.multi_lookup(&keys).unwrap();
        got.sort_unstable();
        let want: Vec<(u64, u64)> = (0..500).map(|k| (k, k * 2)).collect();
        assert_eq!(got, want);
        let stats = s.shutdown();
        assert_eq!(stats.total_keys(), 501 - 1);
        assert!(stats.workers.len() == 4);
        assert!(
            stats.workers.iter().all(|w| w.keys > 0),
            "all shards probed"
        );
    }

    #[test]
    fn join_probe_reports_rows() {
        let s = service(100, &ServeConfig::default());
        // Rows 0 and 2 hit the same key; row 1 misses.
        let mut got = s.join_probe(&[4, 7777, 4]).unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 8), (2, 8)]);
    }

    #[test]
    fn duplicate_keys_in_one_request_all_answered() {
        let s = service(50, &ServeConfig::default());
        let mut got = s.multi_lookup(&[3, 3, 3]).unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![(3, 6), (3, 6), (3, 6)]);
    }

    #[test]
    fn empty_request_completes_instantly() {
        let s = service(10, &ServeConfig::default());
        assert_eq!(s.multi_lookup(&[]).unwrap(), vec![]);
    }

    #[test]
    fn submit_after_stop_fails_but_accepted_work_completes() {
        let s = service(10, &ServeConfig::default());
        let pending = s.submit(Request::Lookup { key: 1 }).unwrap();
        s.stop();
        assert_eq!(
            s.submit(Request::Lookup { key: 2 }).err(),
            Some(SubmitError::Stopped),
            "post-stop submissions are refused"
        );
        assert_eq!(s.lookup(3), Err(SubmitError::Stopped));
        let stats = s.shutdown();
        assert_eq!(
            pending.wait(),
            Response::Lookup {
                key: 1,
                payloads: vec![2]
            }
        );
        assert!(stats.wall > Duration::ZERO);
        assert_eq!(stats.latency.count, 1, "only the accepted request ran");
    }

    #[test]
    fn stop_is_idempotent() {
        let s = service(10, &ServeConfig::default());
        s.stop();
        s.stop();
        let stats = s.shutdown();
        assert_eq!(stats.total_keys(), 0);
    }

    #[test]
    fn pipelined_submissions_all_resolve() {
        // Every key of the ring-filling probes below exists.
        let inflight = ServeConfig::default().inflight as u64;
        let s = service(200 * inflight, &ServeConfig::default().with_batch_size(32));
        let pendings: Vec<PendingResponse> = (0..200)
            .map(|i| s.submit(Request::Lookup { key: i }).unwrap())
            .collect();
        for (i, p) in pendings.into_iter().enumerate() {
            match p.wait() {
                Response::Lookup { key, payloads } => {
                    assert_eq!(key, i as u64);
                    assert_eq!(payloads, vec![i as u64 * 2]);
                }
                other => panic!("wrong variant: {other:?}"),
            }
        }
        let walked = s.live_stats();
        assert_eq!(walked.latency.count, 200);
        // Requests that fill the ring are queued, and what queues while
        // a worker walks shares its next batch: fewer batches than
        // shard parts. (The sub-ring lookups above never queued — one
        // walk each, on this thread.)
        let pendings: Vec<PendingResponse> = (0..200)
            .map(|i| {
                let keys = (i * inflight..(i + 1) * inflight).collect();
                s.submit(Request::MultiLookup { keys }).unwrap()
            })
            .collect();
        for p in pendings {
            assert_eq!(p.wait().match_count() as u64, inflight);
        }
        let stats = s.shutdown();
        assert_eq!(stats.latency.count, 400);
        let jobs = |stats: &ServiceStats| stats.workers.iter().map(|w| w.jobs).sum::<u64>();
        let batches = |stats: &ServiceStats| stats.workers.iter().map(|w| w.batches).sum::<u64>();
        assert_eq!((jobs(&walked), batches(&walked)), (200, 200));
        let (parts, batched) = (jobs(&stats) - 200, batches(&stats) - 200);
        assert!(
            batched < parts,
            "{batched} batches for {parts} queued parts"
        );
    }

    #[test]
    fn try_submit_serves_and_respects_stop() {
        let s = range_service(500, &ServeConfig::default());
        match s
            .try_submit(Request::Lookup { key: 20 }, None)
            .unwrap()
            .wait()
        {
            Response::Lookup { payloads, .. } => assert_eq!(payloads, vec![10]),
            other => panic!("wrong variant: {other:?}"),
        }
        match s
            .try_submit(
                Request::RangeScan {
                    lo: 10,
                    hi: 20,
                    limit: usize::MAX,
                    desc: false,
                },
                None,
            )
            .unwrap()
            .wait()
        {
            Response::RangeScan { entries } => {
                assert_eq!(entries, (5..=10u64).map(|k| (k * 2, k)).collect::<Vec<_>>());
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // Multi-shard fan-out through the non-blocking path.
        let keys: Vec<u64> = (0..200).collect();
        let mut got = match s
            .try_submit(Request::MultiLookup { keys }, None)
            .unwrap()
            .wait()
        {
            Response::MultiLookup { matches } => matches,
            other => panic!("wrong variant: {other:?}"),
        };
        got.sort_unstable();
        let want: Vec<(u64, u64)> = (0..100u64).map(|k| (k * 2, k)).collect();
        assert_eq!(got, want);
        s.stop();
        assert_eq!(
            s.try_submit(Request::Lookup { key: 1 }, None).err(),
            Some(SubmitError::Stopped)
        );
    }

    #[test]
    fn try_submit_without_ordered_tier_is_refused() {
        let s = service(50, &ServeConfig::default());
        assert_eq!(
            s.try_submit(
                Request::RangeScan {
                    lo: 0,
                    hi: 9,
                    limit: 1,
                    desc: false,
                },
                None
            )
            .err(),
            Some(SubmitError::NoOrderedIndex)
        );
    }

    #[test]
    fn second_shutdown_pass_returns_the_already_joined_stats() {
        // Regression: a shutdown pass entered after the workers were
        // already joined (Drop after an explicit shutdown, or a `stop`
        // racing concurrent shutdown paths) used to find nothing to
        // join and panic the consuming `shutdown()`; it must return the
        // first join's stats instead.
        let mut s = service(10, &ServeConfig::default());
        let _ = s.lookup(1);
        let (first, panicked) = s.shutdown_inner();
        assert_eq!(panicked, 0);
        assert_eq!(first.latency.count, 1);
        let (second, panicked) = s.shutdown_inner();
        assert_eq!(panicked, 0);
        assert_eq!(second.latency.count, first.latency.count);
        assert_eq!(second.workers.len(), first.workers.len());
        assert_eq!(second.total_keys(), first.total_keys());
    }

    #[test]
    fn drop_without_shutdown_halts_workers() {
        let s = service(10, &ServeConfig::default());
        let _ = s.lookup(1);
        drop(s); // must not hang
    }

    fn range_service(entries: u64, config: &ServeConfig) -> ProbeService {
        ProbeService::build_with_range(
            HashRecipe::robust64(),
            (0..entries).map(|k| (k * 2, k)),
            config,
        )
    }

    #[test]
    fn range_scan_spans_shards_in_key_order() {
        let s = range_service(2000, &ServeConfig::default());
        let got = s.range_scan(0, u64::MAX, usize::MAX).unwrap();
        assert_eq!(got, (0..2000u64).map(|k| (k * 2, k)).collect::<Vec<_>>());
        // Bounded scan with a limit cutting across a shard seam.
        let oracle = s.ordered().unwrap().scan(500, 3000, 700);
        assert_eq!(s.range_scan(500, 3000, 700).unwrap(), oracle);
        let stats = s.shutdown();
        assert!(
            stats.range_workers.iter().all(|w| w.keys > 0),
            "full-range scan drove every ordered shard"
        );
        assert!(stats.total_scan_entries() >= 2000);
    }

    #[test]
    fn range_scan_degenerate_and_miss_cases() {
        let s = range_service(100, &ServeConfig::default());
        assert_eq!(s.range_scan(50, 10, usize::MAX).unwrap(), vec![]);
        assert_eq!(s.range_scan(0, 100, 0).unwrap(), vec![]);
        assert_eq!(s.range_scan(1, 1, usize::MAX).unwrap(), vec![]); // odd keys miss
        assert_eq!(s.range_scan(100_000, 200_000, 5).unwrap(), vec![]);
        let stats = s.shutdown();
        // Degenerate scans complete client-side (zero parts) and never
        // reach a worker; only the two real scans record latencies.
        assert_eq!(stats.latency.count, 2);
    }

    #[test]
    fn range_and_point_traffic_interleave() {
        let s = range_service(500, &ServeConfig::default().with_batch_size(8));
        let scan = s
            .submit(Request::RangeScan {
                lo: 10,
                hi: 40,
                limit: usize::MAX,
                desc: false,
            })
            .unwrap();
        let point = s.submit(Request::Lookup { key: 20 }).unwrap();
        assert_eq!(
            scan.wait(),
            Response::RangeScan {
                entries: (5..=20u64).map(|k| (k * 2, k)).collect()
            }
        );
        assert_eq!(
            point.wait(),
            Response::Lookup {
                key: 20,
                payloads: vec![10]
            }
        );
    }

    #[test]
    fn range_scan_desc_matches_the_reverse_oracle_across_shards() {
        let s = range_service(2000, &ServeConfig::default());
        let got = s.range_scan_desc(0, u64::MAX, usize::MAX).unwrap();
        assert_eq!(
            got,
            (0..2000u64).rev().map(|k| (k * 2, k)).collect::<Vec<_>>()
        );
        // Bounded desc scan with a limit cutting across a shard seam:
        // the *largest* keys survive.
        let oracle = s.ordered().unwrap().scan_desc(500, 3000, 700);
        assert_eq!(oracle.len(), 700);
        assert_eq!(s.range_scan_desc(500, 3000, 700).unwrap(), oracle);
        assert_eq!(s.range_scan_desc(50, 10, usize::MAX).unwrap(), vec![]);
        assert_eq!(s.range_scan_desc(0, 100, 0).unwrap(), vec![]);
    }

    #[test]
    fn range_stream_concatenates_to_the_buffered_reply() {
        let s = range_service(3000, &ServeConfig::default().with_stream_chunk(64));
        for desc in [false, true] {
            let want = if desc {
                s.range_scan_desc(100, 4000, usize::MAX).unwrap()
            } else {
                s.range_scan(100, 4000, usize::MAX).unwrap()
            };
            let stream = s.range_stream(100, 4000, usize::MAX, desc).unwrap();
            let mut got = Vec::new();
            let mut chunks = 0usize;
            for chunk in stream {
                assert!(!chunk.is_empty(), "no empty chunks");
                assert!(chunk.len() <= 64, "chunk respects stream_chunk");
                got.extend(chunk);
                chunks += 1;
            }
            assert_eq!(got, want, "desc={desc}");
            assert!(chunks > 1, "a long scan streams in several chunks");
        }
        let _ = s.shutdown();
    }

    #[test]
    fn range_stream_limit_cuts_at_the_seam() {
        let s = range_service(1000, &ServeConfig::default().with_stream_chunk(16));
        let want = s.range_scan(0, u64::MAX, 333).unwrap();
        let stream = s.range_stream(0, u64::MAX, 333, false).unwrap();
        assert_eq!(stream.flatten().collect::<Vec<_>>(), want);
        // Degenerate streams are born ended.
        let mut empty = s.range_stream(10, 3, usize::MAX, false).unwrap();
        assert_eq!(empty.next(), None);
        let mut zero = s.range_stream(0, 10, 0, true).unwrap();
        assert_eq!(
            zero.try_next_with(|_| panic!("ended")),
            crate::request::StreamConsumed::End
        );
    }

    #[test]
    fn range_stream_respects_stop_and_missing_tier() {
        let s = service(100, &ServeConfig::default());
        assert_eq!(
            s.range_stream(0, 10, usize::MAX, false).err(),
            Some(SubmitError::NoOrderedIndex)
        );
        let s = range_service(100, &ServeConfig::default());
        let accepted = s.range_stream(0, u64::MAX, usize::MAX, false).unwrap();
        s.stop();
        assert_eq!(
            s.range_stream(0, 10, usize::MAX, false).err(),
            Some(SubmitError::Stopped)
        );
        assert_eq!(
            s.try_range_stream(0, 10, usize::MAX, false, None).err(),
            Some(SubmitError::Stopped)
        );
        let _ = s.shutdown();
        // Accepted streams drain fully through shutdown.
        assert_eq!(
            accepted.flatten().collect::<Vec<_>>(),
            (0..100u64).map(|k| (k * 2, k)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn try_range_stream_serves_chunks() {
        let s = range_service(500, &ServeConfig::default().with_stream_chunk(32));
        let stream = s.try_range_stream(10, 600, usize::MAX, true, None).unwrap();
        assert_eq!(
            stream.flatten().collect::<Vec<_>>(),
            s.ordered().unwrap().scan_desc(10, 600, usize::MAX)
        );
    }

    #[test]
    fn range_scan_without_ordered_tier_is_refused() {
        let s = service(100, &ServeConfig::default());
        assert_eq!(
            s.range_scan(0, 10, usize::MAX),
            Err(SubmitError::NoOrderedIndex)
        );
        assert_eq!(s.lookup(1).unwrap(), vec![2], "point path unaffected");
    }

    #[test]
    fn range_scan_after_stop_is_refused_but_accepted_scans_drain() {
        let s = range_service(1000, &ServeConfig::default());
        let pending = s
            .submit(Request::RangeScan {
                lo: 0,
                hi: 99,
                limit: usize::MAX,
                desc: false,
            })
            .unwrap();
        s.stop();
        assert_eq!(s.range_scan(0, 9, 1), Err(SubmitError::Stopped));
        let _stats = s.shutdown();
        assert_eq!(
            pending.wait(),
            Response::RangeScan {
                entries: (0..50u64).map(|k| (k * 2, k)).collect()
            }
        );
    }

    #[test]
    fn insert_update_delete_roundtrip() {
        let s = service(100, &ServeConfig::default());
        // Fresh key: miss, insert, hit, update, delete, miss again.
        assert_eq!(s.lookup(5000).unwrap(), Vec::<u64>::new());
        assert!(s.insert(5000, 42).unwrap());
        assert_eq!(s.lookup(5000).unwrap(), vec![42]);
        assert!(s.update(5000, 43).unwrap());
        assert_eq!(s.lookup(5000).unwrap(), vec![43]);
        assert!(s.delete(5000).unwrap());
        assert_eq!(s.lookup(5000).unwrap(), Vec::<u64>::new());
        assert!(!s.delete(5000).unwrap(), "second delete misses");
        // Update never inserts on miss.
        assert!(!s.update(6000, 1).unwrap());
        assert_eq!(s.lookup(6000).unwrap(), Vec::<u64>::new());
        // Duplicate inserts stack payloads; one delete clears them all.
        assert!(s.insert(7000, 1).unwrap());
        assert!(s.insert(7000, 2).unwrap());
        let mut got = s.lookup(7000).unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        assert!(s.delete(7000).unwrap());
        assert_eq!(s.lookup(7000).unwrap(), Vec::<u64>::new());
        let stats = s.shutdown();
        assert_eq!(stats.total_write_ops(), 8);
        assert_eq!(stats.total_write_applied(), 6, "two misses unacked");
    }

    #[test]
    fn writes_propagate_to_both_tiers() {
        // range_service stores (k*2, k): odd keys are absent, so 2001
        // is a fresh key visible to both point probes and range scans.
        let s = range_service(1000, &ServeConfig::default());
        assert!(s.insert(2001, 555).unwrap());
        assert_eq!(s.lookup(2001).unwrap(), vec![555]);
        assert_eq!(
            s.range_scan(1996, 2002, usize::MAX).unwrap(),
            vec![(1996, 998), (1998, 999), (2001, 555)],
            "the ordered tier sees the insert, in key order"
        );
        assert!(s.update(2001, 556).unwrap());
        assert_eq!(
            s.range_scan_desc(2001, 2001, usize::MAX).unwrap(),
            vec![(2001, 556)]
        );
        assert!(s.delete(2001).unwrap());
        assert_eq!(s.lookup(2001).unwrap(), Vec::<u64>::new());
        assert_eq!(s.range_scan(2001, 2001, usize::MAX).unwrap(), vec![]);
        let stats = s.shutdown();
        assert!(
            stats.range_workers.iter().map(|w| w.write_ops).sum::<u64>() > 0,
            "ordered-tier workers applied writes"
        );
    }

    #[test]
    fn batched_writes_ack_positionally() {
        let s = service(100, &ServeConfig::default());
        // A batch spanning shards: acks come back in request order.
        let pairs: Vec<(u64, u64)> = (200..232).map(|k| (k, k + 1)).collect();
        let pending = s
            .submit(Request::Insert {
                pairs: pairs.clone(),
            })
            .unwrap();
        assert_eq!(
            pending.wait(),
            Response::Write {
                acks: vec![true; 32]
            }
        );
        // Delete interleaving hits (even positions) and misses.
        let keys: Vec<u64> = (0..32u64)
            .map(|i| if i % 2 == 0 { 200 + i } else { 900 + i })
            .collect();
        match s.submit(Request::Delete { keys }).unwrap().wait() {
            Response::Write { acks } => {
                assert_eq!(acks.len(), 32);
                for (i, ack) in acks.iter().enumerate() {
                    assert_eq!(*ack, i % 2 == 0, "ack {i} positional");
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
        // An empty batch completes instantly with no acks.
        assert_eq!(
            s.submit(Request::Update { pairs: vec![] }).unwrap().wait(),
            Response::Write { acks: vec![] }
        );
    }

    #[test]
    fn writes_after_stop_are_refused_but_accepted_writes_drain() {
        let s = service(100, &ServeConfig::default());
        let pending = s
            .submit(Request::Insert {
                pairs: vec![(300, 1), (301, 2)],
            })
            .unwrap();
        s.stop();
        assert_eq!(s.insert(302, 3), Err(SubmitError::Stopped));
        assert_eq!(s.delete(300), Err(SubmitError::Stopped));
        assert_eq!(
            pending.wait(),
            Response::Write {
                acks: vec![true, true]
            },
            "accepted writes drain before the halt"
        );
        let stats = s.shutdown();
        assert_eq!(stats.total_write_applied(), 2);
    }

    #[test]
    fn quiescent_live_stats_match_the_final_snapshot_for_writes() {
        // The drain-before-snapshot contract: once every submitted
        // response has resolved, the live write counters already equal
        // what shutdown will report — workers publish a write batch
        // into the registry *before* completing its reply.
        let s = range_service(500, &ServeConfig::default().with_batch_size(8));
        let mut pendings = Vec::new();
        for k in 0..200u64 {
            pendings.push(
                s.submit(Request::Insert {
                    pairs: vec![(3000 + k, k)],
                })
                .unwrap(),
            );
            pendings.push(s.submit(Request::Lookup { key: k * 2 }).unwrap());
            if k % 3 == 0 {
                pendings.push(
                    s.submit(Request::Delete {
                        keys: vec![3000 + k, 7],
                    })
                    .unwrap(),
                );
            }
        }
        for p in pendings {
            let _ = p.wait();
        }
        let live = s.live_stats();
        let total_ops = live.total_write_ops();
        let total_applied = live.total_write_applied();
        let total_batches = live.total_write_batches();
        // Each op lands in both tiers (one hash shard, one ordered
        // shard), so the cross-tier sum counts every op twice.
        assert_eq!(total_ops, (200 + 67 * 2) * 2, "every accepted op published");
        let stats = s.shutdown();
        assert_eq!(stats.total_write_ops(), total_ops);
        assert_eq!(stats.total_write_applied(), total_applied);
        assert_eq!(stats.total_write_batches(), total_batches);
        for (live_w, final_w) in live
            .workers
            .iter()
            .chain(live.range_workers.iter())
            .zip(stats.workers.iter().chain(stats.range_workers.iter()))
        {
            assert_eq!(live_w.write_ops, final_w.write_ops);
            assert_eq!(live_w.write_applied, final_w.write_applied);
            assert_eq!(live_w.write_batches, final_w.write_batches);
        }
        // Churn freed index nodes, each counted before its part completed.
        assert!(stats.epoch_reclaimed > 0, "churn freed index nodes");
        assert_eq!(stats.epoch_reclaimed, live.epoch_reclaimed);
    }
}
