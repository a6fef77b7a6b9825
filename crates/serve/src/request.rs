//! The typed request/response surface of the probe service, plus the
//! completion plumbing connecting shard workers back to waiting clients.
//! Every range scan gathers through one rank-ordered seam: a
//! [`PendingStream`] reads its chunks as they release, and a buffered
//! [`PendingResponse`] is the same chunks concatenated at `wait()`.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use widx_obs::{ActiveTrace, FlightRecorder, PendingCommit, Stage, StageTimes, WorkerCell};

/// One write operation, as routed to the shard that owns its key. The
/// owning shard worker applies it under the shard's write guard at a
/// batch barrier — or, the shard idle and the write sub-ring, its
/// submitter does under `try_write` — one writer at a time per shard:
/// no two writers ever wait on each other for a shard lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOp {
    /// Append `payload` under `key` (duplicates accumulate, after any
    /// existing payloads for the key). Always applies.
    Insert {
        /// The key to insert under.
        key: u64,
        /// The payload to store.
        payload: u64,
    },
    /// Remove *every* payload stored under `key`. Applies when at least
    /// one entry existed; a miss acks `false`.
    Delete {
        /// The key to remove.
        key: u64,
    },
    /// Replace every payload under `key` with the single `payload`.
    /// Applies only when the key existed — an update never inserts, a
    /// miss acks `false` and leaves the index unchanged.
    Update {
        /// The key to update.
        key: u64,
        /// The replacement payload.
        payload: u64,
    },
}

impl WriteOp {
    /// The key this operation routes by.
    #[must_use]
    pub fn key(&self) -> u64 {
        match self {
            WriteOp::Insert { key, .. } | WriteOp::Delete { key } | WriteOp::Update { key, .. } => {
                *key
            }
        }
    }
}

/// A probe request submitted to the service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// All payloads stored under one key (the serving analogue of
    /// [`widx_db::index::HashIndex::lookup_all`]).
    Lookup {
        /// The key to probe.
        key: u64,
    },
    /// Probe a batch of keys; the response carries `(key, payload)`
    /// matches, unordered, duplicates included.
    MultiLookup {
        /// The keys to probe (duplicates allowed).
        keys: Vec<u64>,
    },
    /// Probe the keys of an outer-relation column; the response carries
    /// `(probe row, payload)` pairs — the positional index-join form the
    /// paper's hash-join inner loop produces.
    JoinProbe {
        /// The outer relation's key column, in row order.
        keys: Vec<u64>,
    },
    /// Scan the ordered index for every entry with a key in `[lo, hi]`;
    /// the response carries `(key, payload)` entries in key order,
    /// truncated to the first `limit`. Served by the range-partitioned
    /// B+-tree tier — the service scatters the scan over the shards the
    /// interval overlaps and gathers their disjoint, pre-ordered
    /// streams back into one reply.
    RangeScan {
        /// Inclusive lower key bound.
        lo: u64,
        /// Inclusive upper key bound (`lo > hi` is a valid, empty scan).
        hi: u64,
        /// Maximum entries returned (`usize::MAX` for unbounded).
        limit: usize,
        /// Scan direction: `false` ascends, `true` serves
        /// `ORDER BY key DESC` — descending key order, duplicates in
        /// reverse build order, the *largest* keys surviving `limit`.
        desc: bool,
    },
    /// Insert `(key, payload)` pairs. Every pair applies; the response
    /// acks each one `true`, in request order.
    Insert {
        /// The `(key, payload)` pairs to insert.
        pairs: Vec<(u64, u64)>,
    },
    /// Delete every payload under each key. Each key acks `true` when
    /// at least one entry existed, `false` on a miss.
    Delete {
        /// The keys to delete.
        keys: Vec<u64>,
    },
    /// Replace every payload under each key with the paired payload.
    /// Each pair acks `true` when the key existed; a miss acks `false`
    /// and inserts nothing.
    Update {
        /// The `(key, replacement payload)` pairs.
        pairs: Vec<(u64, u64)>,
    },
}

impl Request {
    /// The probe keys of this request, in row order (empty for a
    /// [`RangeScan`](Request::RangeScan), which is bounded by keys
    /// rather than enumerating them, and for write requests, which
    /// route through the write planner instead).
    #[must_use]
    pub fn keys(&self) -> &[u64] {
        match self {
            Request::Lookup { key } => std::slice::from_ref(key),
            Request::MultiLookup { keys } | Request::JoinProbe { keys } => keys,
            Request::RangeScan { .. } | Request::Insert { .. } | Request::Update { .. } => &[],
            Request::Delete { keys } => keys,
        }
    }

    /// The flat operation list of a write request (`None` for reads).
    /// Operation order is request order — the order response acks are
    /// reported in.
    #[must_use]
    pub fn write_ops(&self) -> Option<Vec<WriteOp>> {
        match self {
            Request::Insert { pairs } => Some(
                pairs
                    .iter()
                    .map(|&(key, payload)| WriteOp::Insert { key, payload })
                    .collect(),
            ),
            Request::Delete { keys } => {
                Some(keys.iter().map(|&key| WriteOp::Delete { key }).collect())
            }
            Request::Update { pairs } => Some(
                pairs
                    .iter()
                    .map(|&(key, payload)| WriteOp::Update { key, payload })
                    .collect(),
            ),
            _ => None,
        }
    }
}

/// What kind of response a request assembles into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RequestKind {
    Lookup {
        key: u64,
    },
    MultiLookup,
    JoinProbe,
    RangeScan {
        limit: usize,
    },
    /// A write batch of `ops` operations; acks assemble positionally.
    Write {
        ops: usize,
    },
}

/// A completed probe response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Every payload stored under the looked-up key.
    Lookup {
        /// The probed key.
        key: u64,
        /// All payloads found (empty on a miss).
        payloads: Vec<u64>,
    },
    /// `(key, payload)` matches for a [`Request::MultiLookup`],
    /// unordered.
    MultiLookup {
        /// All `(probe key, payload)` matches.
        matches: Vec<(u64, u64)>,
    },
    /// `(probe row, payload)` pairs for a [`Request::JoinProbe`],
    /// unordered.
    JoinProbe {
        /// All `(outer row index, payload)` join pairs.
        pairs: Vec<(u64, u64)>,
    },
    /// The merged reply to a [`Request::RangeScan`]: per-shard result
    /// streams gathered back into one key order — ascending (duplicates
    /// in build order) or, for a `desc` request, descending (duplicates
    /// in reverse build order) — truncated to the request's `limit`.
    RangeScan {
        /// `(key, payload)` entries in request key order.
        entries: Vec<(u64, u64)>,
    },
    /// Per-operation acknowledgements for a write request
    /// ([`Request::Insert`]/[`Delete`](Request::Delete)/
    /// [`Update`](Request::Update)), in request operation order: `true`
    /// when the operation took effect (inserts always; deletes and
    /// updates only when the key existed).
    Write {
        /// Applied/miss flag per operation, positionally.
        acks: Vec<bool>,
    },
}

impl Response {
    /// Number of matches the response carries, regardless of variant
    /// (payloads for a `Lookup`, pairs otherwise) — misses contribute
    /// zero.
    #[must_use]
    pub fn match_count(&self) -> usize {
        match self {
            Response::Lookup { payloads, .. } => payloads.len(),
            Response::MultiLookup { matches } => matches.len(),
            Response::JoinProbe { pairs } => pairs.len(),
            Response::RangeScan { entries } => entries.len(),
            Response::Write { acks } => acks.iter().filter(|a| **a).count(),
        }
    }
}

/// One match as routed internally: `(probe row, key, payload)`.
pub(crate) type RoutedMatch = (u32, u64, u64);

/// One scatter rank's stash of streamed chunks that cannot be released
/// yet (a rank earlier in output order is still scanning).
#[derive(Default)]
struct RankBuf {
    chunks: VecDeque<Vec<(u64, u64)>>,
    done: bool,
}

/// The gather seam of one range scan, buffered or streamed. Ranks
/// release strictly in order — rank `head` forwards chunks as they
/// arrive, later ranks stash until every earlier rank's part has
/// completed — so the released chunks are the reply in key order, with
/// the request's `limit` applied here at the seam (`remaining` counts it
/// down; once it hits zero the stream ends early and everything still in
/// flight is discarded).
#[derive(Default)]
struct StreamState {
    /// Index of the rank currently allowed to release chunks.
    head: usize,
    ranks: Vec<RankBuf>,
    /// Released, key-ordered, limit-truncated chunks awaiting the
    /// consumer.
    ready: VecDeque<Vec<(u64, u64)>>,
    /// Entries the seam may still release before the limit.
    remaining: usize,
    /// Recycled chunk buffers: consumed in place by
    /// [`PendingStream::try_next_with`], handed back to the pushing
    /// worker by [`ResponseState::push_chunk`] so the steady state of a
    /// long scan allocates no fresh chunk `Vec`s at all.
    spare: Vec<Vec<(u64, u64)>>,
    /// Whether a [`PendingStream`] reads this seam: only then does a
    /// release before the final part wake anyone. A buffered reply is
    /// woken once, at completion.
    attached: bool,
}

/// Recycled chunk buffers retained per stream; beyond this they drop,
/// so a burst of consumed chunks cannot pin memory on a quiet stream.
const STREAM_SPARE_CAP: usize = 8;

impl StreamState {
    /// Whether the stream can produce nothing further (the consumer
    /// sees `End` once `ready` drains).
    fn finished(&self, all_parts_done: bool) -> bool {
        all_parts_done || self.remaining == 0
    }

    /// Returns a consumed chunk's buffer to the spare pool (cleared).
    fn recycle(&mut self, mut chunk: Vec<(u64, u64)>) {
        if self.spare.len() < STREAM_SPARE_CAP {
            chunk.clear();
            self.spare.push(chunk);
        }
    }
}

/// Everything a traced request carries until its trace commits: the
/// span timeline under construction, the recorder to commit into, and
/// the commit policy. `deferred` marks traces the net tier closes (the
/// reply-write span outlives the service-side completion), so
/// [`ResponseState::complete_part`] leaves them in place for
/// [`PendingResponse::take_trace`] instead of committing at wakeup.
pub(crate) struct TraceState {
    pub(crate) active: ActiveTrace,
    pub(crate) recorder: Arc<FlightRecorder>,
    pub(crate) slow_threshold: Option<Duration>,
    pub(crate) deferred: bool,
    /// Barrier ticket taken when the trace was armed. Every commit path
    /// runs its `offer` *before* this field drops (fields drop after the
    /// statement that moved `active` out), so once
    /// [`FlightRecorder::flush`] returns, the recorder has seen this
    /// trace's commit decision — including a deferred trace whose
    /// finisher was dropped without committing.
    pub(crate) _commit_ticket: PendingCommit,
}

impl TraceState {
    /// Commit the trace with latency measured from the trace base to now.
    fn commit_now(self) {
        let total = self.active.base().elapsed();
        self.recorder.offer(self.active, total, self.slow_threshold);
    }
}

/// The handle a net-tier reactor uses to close a deferred trace: taken
/// from a completed request at encode time, annotated with the
/// reply-write span when the flush cursor passes the reply, then
/// committed to the flight recorder.
pub struct TraceFinisher {
    state: Box<TraceState>,
}

impl TraceFinisher {
    /// Append the reply-write span (`start` = reply encoded, now =
    /// bytes flushed to the socket).
    pub fn note_reply_write(&mut self, start: Instant) {
        let now = Instant::now();
        self.state
            .active
            .span_between(Stage::ReplyWrite, start, now);
    }

    /// Seal the trace (end-to-end latency = trace base to now) and
    /// apply the recorder's sampling/slow-threshold commit policy.
    pub fn commit(self) {
        self.state.commit_now();
    }
}

pub(crate) struct PendingInner {
    pub(crate) parts_left: usize,
    pub(crate) items: Vec<RoutedMatch>,
    /// `Some` on every range scan, buffered or streamed; `None` on
    /// point probes and writes, which complete with `items`.
    stream: Option<StreamState>,
    /// Completion hook: invoked (outside the lock) whenever a chunk
    /// becomes consumable or the request completes, so a polling event
    /// loop can skip scanning pending lists that saw no progress.
    waker: Option<Arc<dyn Fn() + Send + Sync>>,
    pub(crate) kind: RequestKind,
    /// The earliest and the latest instants a shard-part closed at so
    /// far, whichever order the parts took the lock in: the gather
    /// window ([`Stage::Gather`] spans first-done to last-done).
    done_span: Option<(Instant, Instant)>,
    /// Stage-timing sink, when the owning service attached one.
    stages: Option<Arc<StageTimes>>,
    /// Per-request trace under construction, when sampling armed one.
    trace: Option<Box<TraceState>>,
    pub(crate) done: bool,
    /// Threads blocked on `ready` right now: completions ring the
    /// condvar only when this is nonzero.
    waiters: usize,
}

impl PendingInner {
    /// Whether the consumer has something to take: the completed reply
    /// or — only on a seam a [`PendingStream`] reads — a released chunk
    /// or the stream's early end.
    fn consumable(&self) -> bool {
        self.done
            || self
                .stream
                .as_ref()
                .is_some_and(|s| s.attached && (!s.ready.is_empty() || s.remaining == 0))
    }
}

/// Shared completion state for one in-flight request: workers complete
/// shard-parts (a range part through the seam, its chunks included);
/// the client blocks in [`PendingResponse::wait`] or drains a
/// [`PendingStream`].
pub(crate) struct ResponseState {
    pub(crate) inner: Mutex<PendingInner>,
    pub(crate) ready: Condvar,
    /// Submission time — immutable after construction, so the queue-wait
    /// seam reads it without taking the lock.
    submitted: Instant,
    /// Whether a trace rides this request — immutable after
    /// construction, so workers skip the annotation lock entirely on
    /// the (default) untraced path.
    traced: bool,
}

impl ResponseState {
    /// A state awaiting `parts` shard-parts. A range scan's carries its
    /// seam: one rank per part, released in rank order, cut at `limit`.
    pub(crate) fn new(kind: RequestKind, parts: usize) -> ResponseState {
        let stream = match kind {
            RequestKind::RangeScan { limit } => Some(StreamState {
                ranks: (0..parts).map(|_| RankBuf::default()).collect(),
                remaining: limit,
                ..StreamState::default()
            }),
            _ => None,
        };
        ResponseState {
            inner: Mutex::new(PendingInner {
                parts_left: parts,
                items: Vec::new(),
                stream,
                waker: None,
                kind,
                done_span: None,
                stages: None,
                trace: None,
                done: parts == 0,
                waiters: 0,
            }),
            ready: Condvar::new(),
            submitted: Instant::now(),
            traced: false,
        }
    }

    /// Attaches the service's stage-timing sink. Must be called before
    /// the state is shared (it takes `self` by value precisely so no
    /// lock is needed).
    pub(crate) fn with_stages(mut self, stages: &Arc<StageTimes>) -> ResponseState {
        self.inner.get_mut().expect("pending lock").stages = Some(Arc::clone(stages));
        self
    }

    /// Attaches an armed trace. Must be called before the state is
    /// shared (by value, like [`with_stages`](Self::with_stages)). A
    /// zero-part request is already complete, so a non-deferred trace
    /// commits on the spot instead of waiting for a completion that
    /// will never run.
    pub(crate) fn with_trace(mut self, trace: Box<TraceState>) -> ResponseState {
        let inner = self.inner.get_mut().expect("pending lock");
        if inner.done && !trace.deferred {
            trace.commit_now();
            return self;
        }
        inner.trace = Some(trace);
        self.traced = true;
        self
    }

    /// Whether a trace rides this request (lock-free).
    pub(crate) fn is_traced(&self) -> bool {
        self.traced
    }

    /// Run `f` over the trace under construction (no-op when the trace
    /// is absent or already committed). `f` also receives the submit
    /// instant, the anchor for queue-wait spans. Keep `f` short — it
    /// runs under the completion lock.
    pub(crate) fn trace_annotate(&self, f: impl FnOnce(&mut ActiveTrace, Instant)) {
        let mut inner = self.inner.lock().expect("pending lock");
        if let Some(trace) = inner.trace.as_deref_mut() {
            f(&mut trace.active, self.submitted);
        }
    }

    /// Detach the trace for the net tier to close (reply-write span +
    /// commit). Returns `None` when no trace rides the request or it
    /// was already taken/committed.
    pub(crate) fn take_trace(&self) -> Option<TraceFinisher> {
        if !self.traced {
            return None;
        }
        let mut inner = self.inner.lock().expect("pending lock");
        inner.trace.take().map(|state| TraceFinisher { state })
    }

    /// The queue-wait of a part admitted at `admitted` (lock-free).
    pub(crate) fn queue_wait(&self, admitted: Instant) -> Duration {
        admitted.saturating_duration_since(self.submitted)
    }

    /// Releases everything releasable: the head rank's stashed chunks,
    /// advancing `head` over completed ranks. Returns true when the
    /// consumer-visible state changed (a chunk released, or the limit
    /// exhausted the stream).
    fn drain_released(stream: &mut StreamState) -> bool {
        let mut released = false;
        while stream.head < stream.ranks.len() && stream.remaining > 0 {
            while let Some(mut chunk) = stream.ranks[stream.head].chunks.pop_front() {
                chunk.truncate(stream.remaining);
                stream.remaining -= chunk.len();
                if !chunk.is_empty() {
                    stream.ready.push_back(chunk);
                    released = true;
                }
                if stream.remaining == 0 {
                    break;
                }
            }
            if stream.remaining == 0 {
                // Limit exhausted at the seam: the stream's end is now
                // observable; drop whatever later ranks stashed.
                for rank in &mut stream.ranks {
                    rank.chunks.clear();
                }
                released = true;
                break;
            }
            if stream.ranks[stream.head].done {
                stream.head += 1;
            } else {
                break;
            }
        }
        released
    }

    /// Called by a range worker when a scan's walker has yielded a full
    /// chunk for scatter rank `rank` mid-part. Chunks for the head rank
    /// release immediately; later ranks stash until the seam reaches
    /// them. A release wakes a [`PendingStream`] reader, never a
    /// buffered one.
    ///
    /// Returns a recycled chunk buffer (cleared, capacity intact) when
    /// the seam has one — the worker's next chunk for this stream can
    /// reuse it instead of allocating. A chunk pushed after the limit
    /// exhausted (or after the reader dropped its handle) is handed
    /// straight back the same way.
    pub(crate) fn push_chunk(
        &self,
        rank: u32,
        mut chunk: Vec<(u64, u64)>,
    ) -> Option<Vec<(u64, u64)>> {
        let mut inner = self.inner.lock().expect("pending lock");
        let stream = inner.stream.as_mut().expect("chunk pushed to a non-scan");
        if stream.remaining == 0 {
            // Limit already exhausted; the entries are discarded but the
            // buffer goes back to the worker for its next stream.
            chunk.clear();
            return Some(chunk);
        }
        stream.ranks[rank as usize].chunks.push_back(chunk);
        let spare = stream.spare.pop();
        if Self::drain_released(stream) && stream.attached {
            self.wake_waiters(&inner);
            let waker = inner.waker.clone();
            drop(inner);
            if let Some(wake) = waker {
                wake();
            }
        }
        spare
    }

    /// Called by a range worker when a scan's part for scatter rank
    /// `rank` has fully drained at `now`: `tail` is its last (possibly
    /// empty, possibly only) chunk. Returns the completion latency when
    /// this was the final part (see [`finish_part`](Self::finish_part)).
    pub(crate) fn complete_stream_part(
        &self,
        rank: u32,
        tail: Vec<(u64, u64)>,
        cell: Option<&WorkerCell>,
        now: Instant,
    ) -> Option<Duration> {
        let mut inner = self.inner.lock().expect("pending lock");
        let stream = inner.stream.as_mut().expect("scan part of a non-scan");
        let part = &mut stream.ranks[rank as usize];
        if !tail.is_empty() && stream.remaining > 0 {
            part.chunks.push_back(tail);
        }
        part.done = true;
        let progress = Self::drain_released(stream) && stream.attached;
        self.finish_part(inner, cell, progress, now)
    }

    /// Called when a point-probe or write part has fully drained at
    /// `now`, with its `(row, key, payload)` rows. Returns the request's
    /// completion latency when this was the final outstanding part (see
    /// [`finish_part`](Self::finish_part)).
    pub(crate) fn complete_part(
        &self,
        mut items: Vec<RoutedMatch>,
        cell: Option<&WorkerCell>,
        now: Instant,
    ) -> Option<Duration> {
        let mut inner = self.inner.lock().expect("pending lock");
        if inner.items.is_empty() {
            // The first part's buffer becomes the request's: a
            // one-shard request never copies its rows.
            inner.items = items;
        } else {
            inner.items.append(&mut items);
        }
        self.finish_part(inner, cell, false, now)
    }

    /// The tail both completion flavours share: counts the part down
    /// and, on the final one, marks the request done, records the
    /// gather window, seals the trace and returns the completion
    /// latency — already recorded into `cell` **before** any completion
    /// signal, so a caller whose `wait()` has returned finds the request
    /// counted by a `live_stats()` scrape. The gather window and the
    /// latency end at the latest instant any part closed at, not at the
    /// `now` of the part that took the lock last, so a one-part
    /// request's gather is 0. Waiters and the waker are signalled on the final
    /// part, and on every part when `progress` says the consumer-visible
    /// state may have changed regardless.
    fn finish_part(
        &self,
        mut inner: MutexGuard<'_, PendingInner>,
        cell: Option<&WorkerCell>,
        progress: bool,
        now: Instant,
    ) -> Option<Duration> {
        let (first, latest) = inner.done_span.map_or((now, now), |(first, latest)| {
            (first.min(now), latest.max(now))
        });
        inner.done_span = Some((first, latest));
        inner.parts_left -= 1;
        let last = inner.parts_left == 0;
        if !last && !progress {
            return None;
        }
        let (mut latency, mut commit) = (None, None);
        if last {
            inner.done = true;
            if let Some(stages) = inner.stages.as_ref() {
                stages.record(Stage::Gather, latest.saturating_duration_since(first));
            }
            let took = latest.saturating_duration_since(self.submitted);
            commit = self.close_trace(&mut inner, took, (first, latest));
            if let Some(cell) = cell {
                cell.record_latency(took);
            }
            latency = Some(took);
        }
        self.wake_waiters(&inner);
        let waker = inner.waker.clone();
        drop(inner);
        if let Some((trace, latency)) = commit {
            trace
                .recorder
                .offer(trace.active, latency, trace.slow_threshold);
        }
        if let Some(wake) = waker {
            wake();
        }
        latency
    }

    /// On final-part completion: append the `(first done, last done)`
    /// gather span to the trace and, for a non-deferred (in-process)
    /// trace, detach it for commit once the lock drops. Deferred traces
    /// stay attached — the net tier takes them at encode time and closes
    /// them at flush.
    fn close_trace(
        &self,
        inner: &mut PendingInner,
        latency: Duration,
        (first, last): (Instant, Instant),
    ) -> Option<(Box<TraceState>, Duration)> {
        let trace = inner.trace.as_deref_mut()?;
        trace.active.span_between(Stage::Gather, first, last);
        if trace.deferred {
            None
        } else {
            inner.trace.take().map(|t| (t, latency))
        }
    }

    /// Installs the completion hook, invoking it immediately (once)
    /// when the state already has consumable progress — so a caller
    /// registering after completion still learns about it (a completed
    /// request never wakes again, so it keeps no hook).
    fn install_waker(&self, waker: Arc<dyn Fn() + Send + Sync>) {
        let mut inner = self.inner.lock().expect("pending lock");
        if !inner.consumable() {
            inner.waker = Some(waker);
            return;
        }
        if !inner.done {
            inner.waker = Some(Arc::clone(&waker));
        }
        drop(inner);
        waker();
    }

    /// Rings `ready` only when a thread is blocked on it: std's
    /// `notify_all` is a futex syscall even with nobody to wake, and a
    /// reply the reactor reaps through its waker has no waiter at all.
    fn wake_waiters(&self, inner: &PendingInner) {
        if inner.waiters > 0 {
            self.ready.notify_all();
        }
    }

    /// Blocks on `ready` once (up to `timeout`, when given), counted in
    /// `waiters` for [`wake_waiters`](Self::wake_waiters).
    fn block<'a>(
        &self,
        mut inner: MutexGuard<'a, PendingInner>,
        timeout: Option<Duration>,
    ) -> MutexGuard<'a, PendingInner> {
        inner.waiters += 1;
        let mut inner = match timeout {
            None => self.ready.wait(inner).expect("pending wait"),
            Some(timeout) => {
                self.ready
                    .wait_timeout(inner, timeout)
                    .expect("pending wait")
                    .0
            }
        };
        inner.waiters -= 1;
        inner
    }
}

/// A handle to a submitted request; [`wait`](PendingResponse::wait)
/// blocks until every shard involved has answered.
pub struct PendingResponse {
    pub(crate) state: Arc<ResponseState>,
}

impl PendingResponse {
    /// Blocks until the request completes and assembles its response.
    #[must_use]
    pub fn wait(self) -> Response {
        let mut inner = self.state.inner.lock().expect("pending lock");
        while !inner.done {
            inner = self.state.block(inner, None);
        }
        Self::assemble(&mut inner)
    }

    /// Like [`wait`](PendingResponse::wait), but gives up after
    /// `timeout`, returning the handle back so the caller can retry —
    /// an escape hatch for supervisors that must not hang if a worker
    /// died mid-request.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` when the deadline passes first.
    pub fn wait_timeout(self, timeout: std::time::Duration) -> Result<Response, PendingResponse> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.state.inner.lock().expect("pending lock");
        while !inner.done {
            let now = Instant::now();
            if now >= deadline {
                drop(inner);
                return Err(self);
            }
            inner = self.state.block(inner, Some(deadline - now));
        }
        let response = Self::assemble(&mut inner);
        drop(inner);
        Ok(response)
    }

    fn assemble(inner: &mut PendingInner) -> Response {
        let items = std::mem::take(&mut inner.items);
        match inner.kind {
            RequestKind::Lookup { key } => Response::Lookup {
                key,
                payloads: items.into_iter().map(|(_, _, payload)| payload).collect(),
            },
            RequestKind::MultiLookup => Response::MultiLookup {
                matches: items
                    .into_iter()
                    .map(|(_, key, payload)| (key, payload))
                    .collect(),
            },
            RequestKind::JoinProbe => Response::JoinProbe {
                pairs: items
                    .into_iter()
                    .map(|(row, _, payload)| (u64::from(row), payload))
                    .collect(),
            },
            RequestKind::RangeScan { .. } => {
                // Every part has completed, so the seam has released the
                // whole reply: key-ordered chunks, cut at `limit`. A
                // one-chunk reply is the worker's own buffer, moved.
                let ready = &mut inner.stream.as_mut().expect("scan seam").ready;
                let mut entries = ready.pop_front().unwrap_or_default();
                for mut chunk in ready.drain(..) {
                    entries.append(&mut chunk);
                }
                Response::RangeScan { entries }
            }
            RequestKind::Write { ops } => {
                // Items are `(op index, key, applied)` rows from the
                // authoritative (hash) tier's shard workers; the ordered
                // tier's parts complete empty. Unreported ops cannot
                // happen — every op is routed to exactly one hash shard
                // — but default to a miss ack defensively.
                let mut acks = vec![false; ops];
                for (op, _key, applied) in items {
                    acks[op as usize] = applied != 0;
                }
                Response::Write { acks }
            }
        }
    }

    /// Whether the response is already complete (non-blocking).
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.state.inner.lock().expect("pending lock").done
    }

    /// Installs a completion hook invoked when the request completes
    /// (and immediately, once, if it already has). Lets a polling event
    /// loop skip scanning its pending list until something actually
    /// completed, instead of calling [`is_ready`](Self::is_ready) on
    /// every entry every tick. Replaces any previously installed hook.
    /// Shared: a front-end builds one hook and hands each request a clone.
    pub fn set_waker(&self, waker: Arc<dyn Fn() + Send + Sync>) {
        self.state.install_waker(waker);
    }

    /// Detach this request's trace for the net tier to close (reply-write
    /// span + commit). Returns `None` when the request is untraced or the
    /// trace already committed in-process. Call only once the response is
    /// ready — worker annotations have finished by then.
    #[must_use]
    pub fn take_trace(&self) -> Option<TraceFinisher> {
        self.state.take_trace()
    }
}

/// What a non-blocking [`PendingStream::try_next_with`] poll observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamConsumed {
    /// The sink was handed one chunk of this many entries; its buffer
    /// was recycled into the seam's spare pool for the pushing worker.
    Consumed(usize),
    /// The stream is complete: every chunk has been taken. Terminal.
    End,
    /// No chunk consumable yet — poll again later (or install a waker).
    Pending,
}

/// A handle to a chunk-streaming range scan: chunks become consumable
/// *while shards are still scanning* — per-shard walkers push chunks as
/// they yield, and the gather seam forwards them in merged key order
/// (ascending or descending as requested) with the request's `limit`
/// applied at the seam. The concatenation of every chunk equals the
/// buffered [`Response::RangeScan`] for the same scan, exactly: that
/// reply is the same seam's chunks, concatenated at `wait()`.
///
/// Poll it without blocking through
/// [`try_next_with`](Self::try_next_with), or block chunk by chunk
/// through its [`Iterator`] impl. Dropping it mid-scan ends the
/// stream: the seam discards what it holds and hands later chunks
/// straight back to the workers instead of buffering them for nobody.
pub struct PendingStream {
    state: Arc<ResponseState>,
}

impl PendingStream {
    /// Makes `state`'s seam a stream: from here on a released chunk
    /// wakes this handle's reader, not only the final part.
    pub(crate) fn attach(state: Arc<ResponseState>) -> PendingStream {
        let mut inner = state.inner.lock().expect("pending lock");
        inner.stream.as_mut().expect("scan seam").attached = true;
        drop(inner);
        PendingStream { state }
    }

    /// Non-blocking zero-copy poll: when a chunk is consumable, `sink`
    /// is handed a borrow of it and the buffer is recycled into the
    /// seam's spare pool — the path the net tier serializes chunks
    /// straight out of, with no owned-`Vec` handoff.
    ///
    /// `sink` runs under the seam lock: keep it short (serialize and
    /// return) and never call back into this stream or its service from
    /// inside it.
    pub fn try_next_with<F: FnOnce(&[(u64, u64)])>(&mut self, sink: F) -> StreamConsumed {
        let mut inner = self.state.inner.lock().expect("pending lock");
        let done = inner.done;
        let stream = inner.stream.as_mut().expect("scan seam");
        if let Some(chunk) = stream.ready.pop_front() {
            sink(&chunk);
            let n = chunk.len();
            stream.recycle(chunk);
            return StreamConsumed::Consumed(n);
        }
        if stream.finished(done) {
            StreamConsumed::End
        } else {
            StreamConsumed::Pending
        }
    }

    /// Whether a chunk (or the end of the stream) is consumable right
    /// now — [`try_next_with`](Self::try_next_with) would not return
    /// `Pending`.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.state.inner.lock().expect("pending lock").consumable()
    }

    /// Installs a chunk-ready hook invoked whenever a chunk becomes
    /// consumable or the stream ends (and immediately, once, if either
    /// already holds) — the completion-wakeup contract that lets the
    /// net event loop skip streams that made no progress. Replaces any
    /// previously installed hook.
    pub fn set_waker(&self, waker: Arc<dyn Fn() + Send + Sync>) {
        self.state.install_waker(waker);
    }

    /// Detach this stream's trace for the net tier to close — see
    /// [`PendingResponse::take_trace`]. Take it only once the stream has
    /// ended ([`StreamConsumed::End`]).
    #[must_use]
    pub fn take_trace(&self) -> Option<TraceFinisher> {
        self.state.take_trace()
    }
}

impl Iterator for PendingStream {
    type Item = Vec<(u64, u64)>;

    /// Blocks for the next chunk, in key order; `None` means the stream
    /// has ended.
    fn next(&mut self) -> Option<Vec<(u64, u64)>> {
        let mut inner = self.state.inner.lock().expect("pending lock");
        loop {
            let done = inner.done;
            let stream = inner.stream.as_mut().expect("scan seam");
            if let Some(chunk) = stream.ready.pop_front() {
                return Some(chunk);
            }
            if stream.finished(done) {
                return None;
            }
            inner = self.state.block(inner, None);
        }
    }
}

impl Drop for PendingStream {
    /// Nobody reads the seam any more: end the stream, so its chunks
    /// drop now and later pushes hand their buffers straight back (the
    /// path a push after the limit already takes).
    fn drop(&mut self) {
        let Ok(mut inner) = self.state.inner.lock() else {
            return;
        };
        if let Some(stream) = inner.stream.as_mut() {
            stream.remaining = 0;
            stream.ready.clear();
            stream.spare.clear();
            for rank in &mut stream.ranks {
                rank.chunks.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;

    #[test]
    fn request_keys_views() {
        assert_eq!(Request::Lookup { key: 9 }.keys(), &[9]);
        assert_eq!(Request::MultiLookup { keys: vec![1, 2] }.keys(), &[1, 2]);
        assert_eq!(Request::JoinProbe { keys: vec![3] }.keys(), &[3]);
        let scan = Request::RangeScan {
            lo: 1,
            hi: 5,
            limit: 10,
            desc: false,
        };
        assert_eq!(scan.keys(), &[] as &[u64]);
    }

    #[test]
    fn range_scan_parts_merge_in_key_order_with_limit() {
        let state = stream_state(3, 5);
        // Parts complete out of rank order; each part is key-ordered
        // with a disjoint key range. Duplicates (key 20) sit in one part,
        // split across a mid-part chunk and its tail.
        state.push_chunk(1, vec![(20, 1), (20, 2)]);
        state.complete_stream_part(1, vec![(25, 0)], None, Instant::now());
        state.push_chunk(2, vec![(30, 9)]);
        state.complete_stream_part(2, vec![(31, 9)], None, Instant::now());
        state.complete_stream_part(0, vec![(10, 7), (11, 8)], None, Instant::now());
        match (PendingResponse { state }).wait() {
            Response::RangeScan { entries } => {
                assert_eq!(
                    entries,
                    vec![(10, 7), (11, 8), (20, 1), (20, 2), (25, 0)],
                    "key order restored, duplicate order kept, limit cut at seam"
                );
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn write_acks_assemble_positionally_from_routed_rows() {
        // 4 ops scattered over two hash parts plus one ordered-tier
        // part that completes empty; op 2 missed.
        let state = Arc::new(ResponseState::new(RequestKind::Write { ops: 4 }, 3));
        state.complete_part(vec![(0, 10, 1), (2, 30, 0)], None, Instant::now());
        state.complete_part(vec![], None, Instant::now()); // ordered tier: no acks
        state.complete_part(vec![(1, 20, 1), (3, 40, 1)], None, Instant::now());
        match (PendingResponse { state }).wait() {
            Response::Write { acks } => assert_eq!(acks, vec![true, true, false, true]),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn write_requests_expose_ops_and_route_keys() {
        let ins = Request::Insert {
            pairs: vec![(1, 10), (2, 20)],
        };
        assert_eq!(ins.keys(), &[] as &[u64]);
        assert_eq!(
            ins.write_ops().unwrap(),
            vec![
                WriteOp::Insert {
                    key: 1,
                    payload: 10
                },
                WriteOp::Insert {
                    key: 2,
                    payload: 20
                },
            ]
        );
        let del = Request::Delete { keys: vec![7, 8] };
        assert_eq!(del.keys(), &[7, 8]);
        assert_eq!(
            del.write_ops().unwrap(),
            vec![WriteOp::Delete { key: 7 }, WriteOp::Delete { key: 8 }]
        );
        let upd = Request::Update {
            pairs: vec![(3, 9)],
        };
        assert_eq!(
            upd.write_ops().unwrap(),
            vec![WriteOp::Update { key: 3, payload: 9 }]
        );
        assert_eq!(upd.write_ops().unwrap()[0].key(), 3);
        assert!(Request::Lookup { key: 1 }.write_ops().is_none());
        let resp = Response::Write {
            acks: vec![true, false, true],
        };
        assert_eq!(resp.match_count(), 2, "applied ops count as matches");
    }

    #[test]
    fn completion_assembles_lookup() {
        let state = Arc::new(ResponseState::new(RequestKind::Lookup { key: 5 }, 2));
        assert!(state
            .complete_part(vec![(0, 5, 50)], None, Instant::now())
            .is_none());
        let latency = state.complete_part(vec![(0, 5, 51)], None, Instant::now());
        assert!(latency.is_some(), "last part yields the latency");
        let resp = PendingResponse { state }.wait();
        match resp {
            Response::Lookup { key, mut payloads } => {
                payloads.sort_unstable();
                assert_eq!((key, payloads), (5, vec![50, 51]));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn join_rows_survive_routing() {
        let state = Arc::new(ResponseState::new(RequestKind::JoinProbe, 1));
        state.complete_part(vec![(7, 100, 1), (2, 100, 1)], None, Instant::now());
        match (PendingResponse { state }).wait() {
            Response::JoinProbe { mut pairs } => {
                pairs.sort_unstable();
                assert_eq!(pairs, vec![(2, 1), (7, 1)]);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn wait_timeout_returns_handle_then_response() {
        let state = Arc::new(ResponseState::new(RequestKind::MultiLookup, 1));
        let pending = PendingResponse {
            state: Arc::clone(&state),
        };
        let pending = pending
            .wait_timeout(std::time::Duration::from_millis(10))
            .expect_err("not complete yet");
        state.complete_part(vec![(0, 1, 2)], None, Instant::now());
        match pending.wait_timeout(std::time::Duration::from_secs(5)) {
            Ok(Response::MultiLookup { matches }) => assert_eq!(matches, vec![(1, 2)]),
            other => panic!("unexpected: {:?}", other.map_err(|_| "timeout")),
        }
    }

    #[test]
    fn completion_ends_at_the_latest_part_not_the_last_locker() {
        let stages = Arc::new(StageTimes::new());
        let state = ResponseState::new(RequestKind::MultiLookup, 2).with_stages(&stages);
        let early = Instant::now();
        let late = early + Duration::from_millis(10);
        // The part that closed later takes the lock first.
        assert_eq!(state.complete_part(vec![], None, late), None);
        let took = state
            .complete_part(vec![], None, early)
            .expect("final part");
        assert_eq!(took, late.saturating_duration_since(state.submitted));
        let gather = stages.hist(Stage::Gather).snapshot();
        assert_eq!(gather.count(), 1);
        assert!(gather.max() >= 10_000_000, "gather {} ns", gather.max());
    }

    #[test]
    fn zero_part_requests_complete_immediately() {
        let state = Arc::new(ResponseState::new(RequestKind::MultiLookup, 0));
        let pending = PendingResponse { state };
        assert!(pending.is_ready());
        assert_eq!(pending.wait(), Response::MultiLookup { matches: vec![] });
    }

    /// A range scan's state: `parts` ranks, cut at `limit`.
    fn stream_state(parts: usize, limit: usize) -> Arc<ResponseState> {
        Arc::new(ResponseState::new(RequestKind::RangeScan { limit }, parts))
    }

    /// One non-blocking poll, with the chunk it consumed copied out.
    fn poll(stream: &mut PendingStream) -> (StreamConsumed, Vec<(u64, u64)>) {
        let mut seen = Vec::new();
        let polled = stream.try_next_with(|chunk| seen.extend_from_slice(chunk));
        (polled, seen)
    }

    /// A wake counter and the waker that ticks it.
    fn wake_counter() -> (Arc<AtomicU64>, Arc<dyn Fn() + Send + Sync>) {
        let wakes = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&wakes);
        (
            wakes,
            Arc::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            }),
        )
    }

    fn wakes(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    #[test]
    fn stream_releases_head_rank_immediately_and_stashes_later_ranks() {
        use StreamConsumed::{Consumed, End, Pending};
        let state = stream_state(3, usize::MAX);
        let mut stream = PendingStream::attach(Arc::clone(&state));
        assert_eq!(poll(&mut stream), (Pending, vec![]));
        // Rank 1 arrives first: stashed, not consumable.
        state.push_chunk(1, vec![(20, 0), (21, 0)]);
        assert_eq!(poll(&mut stream), (Pending, vec![]));
        // Rank 0 streams through live.
        state.push_chunk(0, vec![(1, 0)]);
        assert_eq!(poll(&mut stream), (Consumed(1), vec![(1, 0)]));
        state.push_chunk(0, vec![(2, 0)]);
        assert_eq!(poll(&mut stream), (Consumed(1), vec![(2, 0)]));
        assert_eq!(poll(&mut stream), (Pending, vec![]));
        // Rank 0 completes: rank 1's stash releases, in order.
        assert!(state
            .complete_stream_part(0, vec![], None, Instant::now())
            .is_none());
        assert_eq!(poll(&mut stream), (Consumed(2), vec![(20, 0), (21, 0)]));
        assert_eq!(poll(&mut stream), (Pending, vec![]));
        // Ranks 1 and 2 complete (2 pushed nothing): stream ends, and
        // the final completion reports the latency.
        assert!(state
            .complete_stream_part(1, vec![], None, Instant::now())
            .is_none());
        assert!(state
            .complete_stream_part(2, vec![], None, Instant::now())
            .is_some());
        assert_eq!(poll(&mut stream), (End, vec![]));
    }

    #[test]
    fn stream_limit_cuts_at_the_seam_and_discards_the_rest() {
        let state = stream_state(2, 3);
        let mut stream = PendingStream::attach(Arc::clone(&state));
        state.push_chunk(1, vec![(50, 0), (51, 0), (52, 0)]); // stashed
        state.push_chunk(0, vec![(1, 0), (2, 0)]);
        assert_eq!(stream.next(), Some(vec![(1, 0), (2, 0)]));
        assert!(state
            .complete_stream_part(0, vec![], None, Instant::now())
            .is_none());
        // One entry of rank 1's stash survives the limit; the rest is
        // discarded and the stream ends even though rank 1's part is
        // still "running".
        assert_eq!(stream.next(), Some(vec![(50, 0)]));
        assert_eq!(stream.next(), None);
        assert!(stream.is_ready());
        // The straggler part still completes for latency accounting.
        state.push_chunk(1, vec![(53, 0)]); // dropped
        assert!(state
            .complete_stream_part(1, vec![(54, 0)], None, Instant::now())
            .is_some());
        assert_eq!(poll(&mut stream), (StreamConsumed::End, vec![]));
    }

    #[test]
    fn zero_part_streams_are_born_ended() {
        let mut stream = PendingStream::attach(stream_state(0, 10));
        assert!(stream.is_ready());
        assert_eq!(poll(&mut stream), (StreamConsumed::End, vec![]));
        assert_eq!(stream.next(), None);
    }

    #[test]
    fn stream_waker_fires_on_chunks_end_and_late_registration() {
        let state = stream_state(1, usize::MAX);
        let stream = PendingStream::attach(Arc::clone(&state));
        let (count, wake) = wake_counter();
        stream.set_waker(wake);
        assert_eq!(wakes(&count), 0, "nothing ready yet");
        state.push_chunk(0, vec![(1, 1)]);
        assert_eq!(wakes(&count), 1, "chunk ready");
        state.complete_stream_part(0, vec![(2, 2)], None, Instant::now());
        assert_eq!(wakes(&count), 2, "tail chunk and end of stream: one wake");
        // Late registration on an already-ready state fires immediately.
        let (late, wake) = wake_counter();
        stream.set_waker(wake);
        assert_eq!(wakes(&late), 1);
    }

    #[test]
    fn buffered_waker_fires_on_final_part() {
        let state = Arc::new(ResponseState::new(RequestKind::MultiLookup, 2));
        let pending = PendingResponse {
            state: Arc::clone(&state),
        };
        let (count, wake) = wake_counter();
        pending.set_waker(wake);
        state.complete_part(vec![(0, 1, 2)], None, Instant::now());
        assert_eq!(wakes(&count), 0, "one part still out");
        state.complete_part(vec![], None, Instant::now());
        assert_eq!(wakes(&count), 1, "completion woke");
        assert!(pending.is_ready());
    }

    #[test]
    fn buffered_scan_wakes_its_consumer_once() {
        // Two parts, several chunks each, released mid-part and out of
        // rank order: a buffered reader has nothing to take until the
        // last part completes, so that is its only wake.
        let state = stream_state(2, usize::MAX);
        let pending = PendingResponse {
            state: Arc::clone(&state),
        };
        let (count, wake) = wake_counter();
        pending.set_waker(wake);
        state.push_chunk(1, vec![(5, 0)]);
        state.push_chunk(0, vec![(1, 0), (2, 0)]);
        state.push_chunk(0, vec![(3, 0)]);
        state.complete_stream_part(0, vec![(4, 0)], None, Instant::now());
        state.push_chunk(1, vec![(6, 0)]);
        assert_eq!(wakes(&count), 0, "released chunks wake no buffered reader");
        assert!(!pending.is_ready());
        state.complete_stream_part(1, vec![(7, 0)], None, Instant::now());
        assert_eq!(wakes(&count), 1, "completion woke, once");
        let entries = (1..=7).map(|k| (k, 0)).collect();
        assert_eq!(pending.wait(), Response::RangeScan { entries });
    }

    #[test]
    fn one_chunk_scan_reply_is_the_workers_buffer() {
        let state = stream_state(1, 2);
        let tail = vec![(1, 0), (2, 0), (3, 0)];
        let pushed = tail.as_ptr();
        state.complete_stream_part(0, tail, None, Instant::now());
        match (PendingResponse { state }).wait() {
            Response::RangeScan { entries } => {
                assert_eq!(entries, vec![(1, 0), (2, 0)], "cut at the limit");
                assert_eq!(entries.as_ptr(), pushed, "moved, not copied");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn in_place_poll_matches_owned_poll_and_recycles_buffers() {
        let state = stream_state(2, usize::MAX);
        let mut stream = PendingStream::attach(Arc::clone(&state));
        assert_eq!(
            stream.try_next_with(|_| panic!("nothing ready")),
            StreamConsumed::Pending
        );
        // Nothing consumed yet, so no spare to hand back.
        let first = vec![(1, 10), (2, 20)];
        assert!(state.push_chunk(0, first).is_none());
        assert_eq!(
            poll(&mut stream),
            (StreamConsumed::Consumed(2), vec![(1, 10), (2, 20)])
        );
        // The consumed buffer was recycled: the next push gets it back,
        // cleared but with its capacity intact.
        let spare = state.push_chunk(0, vec![(3, 30)]).expect("recycled buffer");
        assert!(spare.is_empty());
        assert!(spare.capacity() >= 2);
        // The owned poll yields the same chunk, but its buffer leaves
        // with the caller: the next push finds no spare.
        assert_eq!(stream.next(), Some(vec![(3, 30)]));
        assert!(state.push_chunk(0, vec![(4, 40)]).is_none());
        assert_eq!(
            poll(&mut stream),
            (StreamConsumed::Consumed(1), vec![(4, 40)])
        );
        assert_eq!(
            stream.try_next_with(|_| panic!("pending")),
            StreamConsumed::Pending
        );
        assert!(state
            .complete_stream_part(0, vec![], None, Instant::now())
            .is_none());
        assert!(state
            .complete_stream_part(1, vec![], None, Instant::now())
            .is_some());
        assert_eq!(
            stream.try_next_with(|_| panic!("ended")),
            StreamConsumed::End
        );
    }

    #[test]
    fn push_after_limit_hands_the_buffer_straight_back() {
        let state = stream_state(1, 1);
        let mut stream = PendingStream::attach(Arc::clone(&state));
        assert!(state.push_chunk(0, vec![(1, 0), (2, 0)]).is_none());
        assert_eq!(
            stream.try_next_with(|e| assert_eq!(e, [(1, 0)])),
            StreamConsumed::Consumed(1)
        );
        // Limit exhausted at the seam: the next push's entries are
        // discarded but its allocation returns to the worker.
        let back = state.push_chunk(0, vec![(3, 0)]).expect("buffer back");
        assert!(back.is_empty() && back.capacity() >= 1);
        assert_eq!(
            stream.try_next_with(|_| panic!("ended")),
            StreamConsumed::End
        );
    }

    #[test]
    fn dropped_stream_hands_later_chunks_straight_back() {
        let state = stream_state(2, usize::MAX);
        let stream = PendingStream::attach(Arc::clone(&state));
        state.push_chunk(1, vec![(50, 0)]); // stashed
        state.push_chunk(0, vec![(1, 0)]); // released, never read
        drop(stream);
        // Nobody reads the seam: a push gets its buffer back, cleared,
        // and nothing already held stays buffered.
        let back = state
            .push_chunk(0, vec![(2, 0), (3, 0)])
            .expect("buffer back");
        assert!(back.is_empty() && back.capacity() >= 2);
        {
            let inner = state.inner.lock().unwrap();
            let seam = inner.stream.as_ref().unwrap();
            assert!(seam.ready.is_empty(), "released chunks dropped");
            assert!(
                seam.ranks.iter().all(|r| r.chunks.is_empty()),
                "stash dropped"
            );
        }
        // The parts still complete, for latency accounting.
        assert!(state
            .complete_stream_part(1, vec![(51, 0)], None, Instant::now())
            .is_none());
        assert!(state
            .complete_stream_part(0, vec![(4, 0)], None, Instant::now())
            .is_some());
    }

    /// Spins until a reader is blocked on `state`'s condvar — observed
    /// under the lock, so whatever the test does next lands after the
    /// reader began to wait.
    fn await_waiter(state: &ResponseState) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while state.inner.lock().unwrap().waiters == 0 {
            assert!(Instant::now() < deadline, "the reader never blocked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn readers_blocked_before_the_final_part_are_woken() {
        let expected = Response::MultiLookup {
            matches: vec![(1, 2)],
        };
        let two_parts = || {
            let state = Arc::new(ResponseState::new(RequestKind::MultiLookup, 2));
            state.complete_part(vec![(0, 1, 2)], None, Instant::now());
            let pending = PendingResponse {
                state: Arc::clone(&state),
            };
            (state, pending)
        };

        let (state, pending) = two_parts();
        let reader = std::thread::spawn(move || pending.wait());
        await_waiter(&state);
        state.complete_part(vec![], None, Instant::now());
        assert_eq!(reader.join().unwrap(), expected);

        let (state, pending) = two_parts();
        let reader = std::thread::spawn(move || pending.wait_timeout(Duration::from_secs(60)).ok());
        await_waiter(&state);
        state.complete_part(vec![], None, Instant::now());
        assert_eq!(reader.join().unwrap(), Some(expected));

        // A stream reader: woken by a mid-part chunk, then by the end.
        let state = stream_state(1, usize::MAX);
        let mut stream = PendingStream::attach(Arc::clone(&state));
        let reader = std::thread::spawn(move || (stream.next(), stream));
        await_waiter(&state);
        state.push_chunk(0, vec![(1, 0)]);
        let (chunk, stream) = reader.join().unwrap();
        assert_eq!(chunk, Some(vec![(1, 0)]));
        let reader = std::thread::spawn(move || stream.collect::<Vec<_>>());
        await_waiter(&state);
        state.complete_stream_part(0, vec![(2, 0)], None, Instant::now());
        assert_eq!(reader.join().unwrap(), vec![vec![(2, 0)]]);
        assert_eq!(state.inner.lock().unwrap().waiters, 0);
    }

    #[test]
    fn blocking_next_wakes_on_cross_thread_pushes() {
        let state = stream_state(1, usize::MAX);
        let mut stream = PendingStream::attach(Arc::clone(&state));
        let pusher = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            state.push_chunk(0, vec![(7, 7)]);
            state.complete_stream_part(0, vec![], None, Instant::now());
        });
        assert_eq!(stream.next(), Some(vec![(7, 7)]));
        assert_eq!(stream.next(), None);
        pusher.join().unwrap();
    }
}
