//! The non-blocking socket front-end: a dedicated acceptor thread plus
//! `NetConfig::reactors` event-loop threads, each owning its own
//! `compat/` [`poller`] instance, connection slab, and event buffer —
//! the MICA-style partitioning where a connection is pinned to one
//! reactor for life and no cross-thread state is shared on the hot
//! path (see `docs/net-reactors.md`).
//!
//! The acceptor registers only the listener with its poller; accepted
//! sockets are handed off round-robin through a per-reactor inbox, and
//! the target reactor's wake handle is rung so a blocked `wait` picks
//! the socket up immediately. Within a reactor the loop is unchanged
//! from the single-threaded design: every connection is registered with
//! *that reactor's* poller, write interest is toggled on only while a
//! connection has unflushed reply bytes, and read interest is parked
//! while its write backlog is over the cap (slow-consumer backpressure)
//! or after EOF. Completions from the serving tier ring the owning
//! reactor's wake handle through the `ResponseState` waker hook —
//! routing falls out by construction, because each connection's waker
//! captures the poller it registered with — so the idle path is a
//! *blocking* `poller.wait` with no lost-wakeup window (see
//! `docs/poller.md`).
//!
//! The wire path avoids per-frame allocation: replies are encoded into
//! a per-connection segmented [`WriteBuf`] whose segments are recycled
//! after flushing (one `writev` per flush batches small pipelined
//! replies into one syscall), streaming chunks serialize straight out
//! of the gather seam's buffers (`PendingStream::try_next_with` — no
//! intermediate owned `Vec` per chunk), and every buffer shrinks back
//! to the [`BUF_HIGH_WATER`] cap once a burst drains, so one large scan
//! does not pin memory for the connection's lifetime.
//!
//! Backpressure is never buffered away: when a shard queue is at
//! capacity ([`SubmitError::Busy`]) or a connection exceeds its
//! in-flight window, the server answers a typed `Busy` error frame
//! instead of queueing without bound, and when a connection's peer
//! stops reading, the write-backlog cap stops the server reading from
//! it — TCP pushes back the rest of the way.

use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use poller::{Event, Poller};
use widx_serve::{
    NetStats, NetTraceCtx, PendingResponse, PendingStream, ProbeService, ReactorGauges,
    ReactorStats, Stage, StageTimes, StreamConsumed, SubmitError, TraceFinisher,
};

use crate::wire::{self, Decoded, ErrorCode, ErrorReply, ScrapeKind, WireRequest};

/// The listener's key on the *acceptor's* poller; reactors register
/// connection slot `i` as `i + CONN_KEY_BASE` on their own pollers.
const LISTENER_KEY: usize = 0;
const CONN_KEY_BASE: usize = 1;

/// Wait cap when a loop is fully quiet (no in-flight work anywhere):
/// pure insurance — every state change (a new connection, socket
/// readiness, a completion, shutdown) arrives as a poller event or a
/// wake, so correctness never rides on this timer firing.
const QUIET_WAIT_CAP: Duration = Duration::from_secs(1);

/// High-water cap on per-connection buffer capacity retained across
/// bursts: once a flush empties the write backlog, read/write buffers
/// above this shrink back down, so one large range scan cannot pin
/// megabytes for the connection's lifetime.
pub const BUF_HIGH_WATER: usize = 256 << 10;

/// Target size of one [`WriteBuf`] segment. Frames are never split
/// across segments (a frame larger than this simply makes an oversized
/// segment), so a flush can gather whole segments into one `writev`.
const SEG_TARGET: usize = 64 << 10;

/// Most segments gathered into a single `writev`.
const MAX_IOV: usize = 16;

/// Flushed segments kept for reuse per connection.
const SPARE_SEGS: usize = 4;

/// How long the acceptor backs off when `accept()` reports descriptor
/// exhaustion (`EMFILE`/`ENFILE`) — long enough for the fd pressure to
/// ease, short enough not to stall a recovering listener.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Tuning knobs for a [`WidxServer`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Decoded-but-unanswered requests allowed per connection before the
    /// server replies `Busy` (the pipelining window it will honour).
    pub max_inflight_per_conn: usize,
    /// Unflushed reply bytes allowed per connection before the server
    /// stops reading from it (slow-consumer backpressure).
    pub max_write_backlog: usize,
    /// Cap on one blocking `poller.wait` while in-flight work exists —
    /// the loop's housekeeping cadence and the worst-case staleness
    /// bound should a readiness edge ever be missed, **not** a latency
    /// knob: completions and socket readiness interrupt the wait
    /// immediately through the poller. Values below
    /// [`NetConfig::MIN_IDLE_BACKOFF`] (zero especially, which would
    /// turn the idle path into a hot spin) are clamped up to it.
    pub idle_backoff: Duration,
    /// How long a graceful shutdown waits for connections to drain
    /// before abandoning the stragglers. A peer that stops reading its
    /// replies can never drain; without this bound,
    /// [`WidxServer::shutdown`] (and `Drop`) would hang on it forever.
    pub drain_timeout: Duration,
    /// Poller backend override (`"epoll"` / `"poll"`).
    /// `None` picks the platform default, which the `WIDX_POLLER`
    /// environment variable can override — the switch the CI tiers use
    /// to run the loopback suites against every backend.
    pub poller_backend: Option<String>,
    /// Reactor (event-loop) threads the server runs. The acceptor pins
    /// connections to reactors round-robin; each reactor owns its own
    /// poller, slab, and event buffer. Zero is clamped to one.
    pub reactors: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            max_inflight_per_conn: 256,
            max_write_backlog: 4 << 20,
            idle_backoff: Duration::from_micros(100),
            drain_timeout: Duration::from_secs(5),
            poller_backend: None,
            reactors: 1,
        }
    }
}

impl NetConfig {
    /// Floor for [`idle_backoff`](NetConfig::idle_backoff): a zero wait
    /// cap would make every idle `poller.wait` return immediately — the
    /// hot spin the poller exists to eliminate.
    pub const MIN_IDLE_BACKOFF: Duration = Duration::from_micros(10);

    /// Sets the per-connection in-flight request cap.
    #[must_use]
    pub fn with_max_inflight(mut self, max: usize) -> NetConfig {
        self.max_inflight_per_conn = max;
        self
    }

    /// Sets the per-connection write-backlog cap in bytes.
    #[must_use]
    pub fn with_max_write_backlog(mut self, bytes: usize) -> NetConfig {
        self.max_write_backlog = bytes;
        self
    }

    /// Sets the idle wait-timeout cap, clamped up to
    /// [`MIN_IDLE_BACKOFF`](NetConfig::MIN_IDLE_BACKOFF) (rejecting the
    /// zero that would turn the idle path into a hot spin).
    #[must_use]
    pub fn with_idle_backoff(mut self, backoff: Duration) -> NetConfig {
        self.idle_backoff = backoff.max(NetConfig::MIN_IDLE_BACKOFF);
        self
    }

    /// Sets the graceful-shutdown drain bound.
    #[must_use]
    pub fn with_drain_timeout(mut self, timeout: Duration) -> NetConfig {
        self.drain_timeout = timeout;
        self
    }

    /// Forces a poller backend (`"epoll"` / `"poll"`)
    /// instead of the platform default / `WIDX_POLLER` selection.
    #[must_use]
    pub fn with_poller_backend(mut self, backend: impl Into<String>) -> NetConfig {
        self.poller_backend = Some(backend.into());
        self
    }

    /// Sets the reactor-thread count (clamped up to one).
    #[must_use]
    pub fn with_reactors(mut self, reactors: usize) -> NetConfig {
        self.reactors = reactors.max(1);
        self
    }

    /// The configuration the event loops actually run: public fields
    /// mean the builder clamps can be bypassed, so [`WidxServer::bind`]
    /// re-applies them here.
    fn normalized(mut self) -> NetConfig {
        self.idle_backoff = self.idle_backoff.max(NetConfig::MIN_IDLE_BACKOFF);
        self.reactors = self.reactors.max(1);
        self
    }
}

/// Shared counters behind [`NetStats`] snapshots. The five monotone
/// counters are written from the acceptor and every reactor; the gauge
/// table holds one padded [`ReactorGauges`] cell per reactor, each
/// re-published by its owning loop every pass, so a scrape sees values
/// at most one loop pass stale.
struct NetCounters {
    connections: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    busy_rejects: AtomicU64,
    decode_errors: AtomicU64,
    reactors: Vec<ReactorGauges>,
}

impl NetCounters {
    fn new(reactors: usize) -> NetCounters {
        NetCounters {
            connections: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            busy_rejects: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            reactors: (0..reactors).map(|_| ReactorGauges::new()).collect(),
        }
    }

    fn snapshot(&self) -> NetStats {
        let reactors: Vec<ReactorStats> = self
            .reactors
            .iter()
            .map(|g| ReactorStats {
                open_connections: g.open_connections(),
                write_backlog_bytes: g.write_backlog_bytes(),
            })
            .collect();
        NetStats {
            connections: self.connections.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            busy_rejects: self.busy_rejects.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            open_connections: reactors.iter().map(|r| r.open_connections).sum(),
            write_backlog_bytes: reactors.iter().map(|r| r.write_backlog_bytes).sum(),
            reactors,
        }
    }
}

/// A segmented output buffer flushed with vectored writes. Frames are
/// encoded whole into the current tail segment; a flush gathers up to
/// [`MAX_IOV`] segments into one `writev`, and fully-written segments
/// are recycled into a small spare pool instead of reallocated — the
/// per-connection reply path allocates only while a burst is actively
/// outgrowing what earlier bursts left behind.
struct WriteBuf {
    segs: VecDeque<Vec<u8>>,
    /// Flush cursor within the front segment.
    head_pos: usize,
    /// Total unflushed bytes across all segments.
    len: usize,
    spare: Vec<Vec<u8>>,
}

impl WriteBuf {
    fn new() -> WriteBuf {
        WriteBuf {
            segs: VecDeque::new(),
            head_pos: 0,
            len: 0,
            spare: Vec::new(),
        }
    }

    /// Unflushed bytes buffered.
    fn backlog(&self) -> usize {
        self.len
    }

    /// Appends one or more whole frames via `encode`, which receives
    /// the tail segment to extend. Starts a fresh (recycled when
    /// possible) segment once the tail passes [`SEG_TARGET`].
    fn encode_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        let need_fresh = match self.segs.back() {
            None => true,
            Some(seg) => seg.len() >= SEG_TARGET,
        };
        if need_fresh {
            self.segs.push_back(self.spare.pop().unwrap_or_default());
        }
        let seg = self.segs.back_mut().expect("tail segment");
        let before = seg.len();
        encode(seg);
        self.len += seg.len() - before;
    }

    /// Flushes as much as the socket accepts, one `writev` per syscall.
    /// Returns `(bytes_flushed, dead)`; `dead` means an unrecoverable
    /// socket error (including a zero-length write).
    fn flush(&mut self, stream: &mut TcpStream) -> (usize, bool) {
        let mut total = 0usize;
        while self.len > 0 {
            let written = {
                let mut iov = [IoSlice::new(&[]); MAX_IOV];
                let mut n = 0;
                for (i, seg) in self.segs.iter().enumerate() {
                    if n == MAX_IOV {
                        break;
                    }
                    let slice = if i == 0 {
                        &seg[self.head_pos..]
                    } else {
                        &seg[..]
                    };
                    if slice.is_empty() {
                        continue;
                    }
                    iov[n] = IoSlice::new(slice);
                    n += 1;
                }
                stream.write_vectored(&iov[..n])
            };
            match written {
                Ok(0) => return (total, true),
                Ok(n) => {
                    self.advance(n);
                    total += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return (total, true),
            }
        }
        (total, false)
    }

    /// Consumes `written` flushed bytes from the front, recycling
    /// fully-written segments.
    fn advance(&mut self, mut written: usize) {
        self.len -= written;
        while written > 0 {
            let head = self.segs.front().expect("flushed past the backlog");
            let remaining = head.len() - self.head_pos;
            if written >= remaining {
                written -= remaining;
                self.head_pos = 0;
                let mut seg = self.segs.pop_front().expect("head segment");
                // Oversized segments (one giant frame) are dropped, not
                // pooled — the pool is for steady-state reply traffic.
                if self.spare.len() < SPARE_SEGS && seg.capacity() <= 2 * SEG_TARGET {
                    seg.clear();
                    self.spare.push(seg);
                }
            } else {
                self.head_pos += written;
                written = 0;
            }
        }
    }

    /// Total heap capacity this buffer retains (live segments plus the
    /// spare pool) — what [`shrink_to`](WriteBuf::shrink_to) bounds.
    fn retained_capacity(&self) -> usize {
        self.segs.iter().map(Vec::capacity).sum::<usize>()
            + self.spare.iter().map(Vec::capacity).sum::<usize>()
    }

    /// Drops spare segments until the retained capacity is at most
    /// `cap`. Called once a flush empties the backlog (live segments
    /// are gone by then), so a one-off burst cannot pin memory.
    fn shrink_to(&mut self, cap: usize) {
        while self.retained_capacity() > cap {
            if self.spare.pop().is_none() {
                break;
            }
        }
    }
}

/// An in-flight chunked scan being written back to one connection.
struct OpenStream {
    id: u64,
    stream: PendingStream,
    /// Entries streamed so far (reported in the `RangeEnd` frame).
    entries: u64,
}

/// One client connection's state machine: buffered input awaiting
/// decode, in-flight requests awaiting completion, and buffered output
/// awaiting a writable socket. Pinned to one reactor for life — every
/// field is owned by that reactor's thread.
struct Connection {
    stream: TcpStream,
    /// Unconsumed input bytes; `rpos` is the decode cursor (compacted
    /// periodically rather than draining per decode pass).
    rbuf: Vec<u8>,
    rpos: usize,
    /// Where `read` lands before the bytes join `rbuf`: allocated once
    /// per connection, so a `fill` pass zeroes nothing.
    chunk: Box<[u8]>,
    /// Reply bytes not yet written, segmented for vectored flushes.
    wbuf: WriteBuf,
    /// Requests submitted to the service, awaiting completion. Scanned
    /// for readiness after a wakeup — completion order, not submission
    /// order, decides reply order. The `WriteKind` (present on mutation
    /// requests) picks the mirrored reply opcode, which the completed
    /// `Response::Write` alone cannot.
    pending: Vec<(u64, Option<wire::WriteKind>, PendingResponse)>,
    /// Chunked scans submitted to the service: chunks are written as
    /// the gather seam releases them, interleaved with other replies.
    streams: Vec<OpenStream>,
    /// Completion-wakeup counter: every pending request and stream on
    /// this connection carries `waker`, which bumps it (and rings the
    /// owning reactor's poller), so the reap pass can skip connections
    /// (and avoid scanning their whole pending lists) when nothing
    /// completed since the last look.
    wakes: Arc<AtomicU64>,
    /// The counter value the last reap pass observed.
    wakes_seen: u64,
    /// Set by the waker that rings the poller, cleared by the reap pass:
    /// later wakers only bump `wakes` — one ring per reap cycle.
    rung: Arc<AtomicBool>,
    /// The completion wakeup, built once and cloned onto every submitted
    /// request and stream: bumps `wakes` (so the reap pass knows *which*
    /// connection to scan) and rings the owning reactor's wake handle (so
    /// a blocked `wait` learns *that* there is something to scan —
    /// immediately, even if the completion lands in the instant before
    /// the loop blocks, and on the right reactor, because the closure
    /// captures this connection's own poller) — unless `rung` says a
    /// ring is already on its way. That loses no wake: a skipping
    /// waker's `swap` joins the RMW chain on `rung` that the reap pass's
    /// clearing `swap` acquires, so that pass loads `wakes` after every
    /// skipper's bump; a wake after the clear finds the flag down.
    waker: Arc<dyn Fn() + Send + Sync>,
    /// The owning reactor's poller — the edge source the wakers ring,
    /// which is what routes a completion wakeup to the right reactor:
    /// the waker closure captures this exact poller.
    poller: Arc<Poller>,
    /// Readiness reported by the last `wait`, consumed by `pump`.
    io_readable: bool,
    io_writable: bool,
    /// The `(readable, writable)` interest currently registered with
    /// the poller; `(false, false)` is the *parked* state (registered
    /// but never reported — `Event::none`).
    interest: (bool, bool),
    /// A reap pass stopped early on write backlog: ready work may
    /// remain without a fresh wake, so reap again once room opens.
    reap_stalled: bool,
    /// Set on peer EOF, server shutdown, or lost framing: no more reads.
    closed_for_reads: bool,
    /// Set on an unrecoverable socket error: drop the connection now.
    dead: bool,
    /// The service's stage histograms — this connection records the
    /// `reply_write` stage (encode-to-flushed time) into them.
    stages: Arc<StageTimes>,
    /// Total bytes ever flushed on this socket (the coordinate system
    /// for `wmarks`, immune to the write buffer recycling segments).
    flushed_total: u64,
    /// Reply-write marks: `(offset, encoded_at, trace)` entries meaning
    /// "the frame encoded at `encoded_at` is fully on the socket once
    /// `flushed_total` reaches `offset`". Popped in flush order —
    /// offsets are pushed non-decreasing, so the front is always the
    /// next to complete. A mark may carry the request's deferred trace,
    /// which the flush closes (reply-write span) and commits to the
    /// flight recorder.
    wmarks: VecDeque<(u64, Instant, Option<TraceFinisher>)>,
    /// The index of the reactor this connection is pinned to, recorded
    /// into sampled request traces.
    rix: u32,
}

/// Cap on queued reply-write marks per connection: past this, new
/// frames simply go unmeasured (the histogram is a sample, not a
/// ledger) rather than letting a slow reader grow the queue without
/// bound.
const MAX_WMARKS: usize = 1024;

/// Compact the read buffer once this many consumed bytes sit in front
/// of the cursor (amortizes the memmove the old drain-per-pass did on
/// every decode).
const RBUF_COMPACT: usize = 32 << 10;

/// Moves a read buffer's decode cursor past `consumed` bytes: the
/// buffer resets when that empties it and compacts once
/// [`RBUF_COMPACT`] dead bytes sit in front of the cursor — the server's
/// connections and the client read through the same rule.
pub(crate) fn advance_cursor(rbuf: &mut Vec<u8>, rpos: &mut usize, consumed: usize) {
    *rpos += consumed;
    if *rpos == rbuf.len() {
        rbuf.clear();
        *rpos = 0;
    } else if *rpos >= RBUF_COMPACT {
        rbuf.drain(..*rpos);
        *rpos = 0;
    }
}

/// Bytes one `read` call may take off the socket.
pub(crate) const READ_CHUNK: usize = 16 << 10;

impl Connection {
    fn new(
        stream: TcpStream,
        poller: Arc<Poller>,
        stages: Arc<StageTimes>,
        rix: u32,
    ) -> Connection {
        let wakes = Arc::new(AtomicU64::new(0));
        let rung = Arc::new(AtomicBool::new(false));
        let waker: Arc<dyn Fn() + Send + Sync> = {
            let (wakes, rung, poller) =
                (Arc::clone(&wakes), Arc::clone(&rung), Arc::clone(&poller));
            Arc::new(move || {
                wakes.fetch_add(1, Ordering::Release);
                if !rung.swap(true, Ordering::AcqRel) {
                    let _ = poller.notify();
                }
            })
        };
        Connection {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            chunk: vec![0; READ_CHUNK].into(),
            wbuf: WriteBuf::new(),
            pending: Vec::new(),
            streams: Vec::new(),
            wakes,
            wakes_seen: 0,
            rung,
            waker,
            poller,
            io_readable: false,
            io_writable: false,
            interest: (true, false),
            reap_stalled: false,
            closed_for_reads: false,
            dead: false,
            stages,
            flushed_total: 0,
            wmarks: VecDeque::new(),
            rix,
        }
    }

    /// Records a reply-write mark for the frame(s) just encoded: the
    /// stage completes when every byte currently buffered has flushed.
    /// A deferred request trace rides the mark so the flush can close
    /// it with the frame's true on-socket time; past the mark cap the
    /// frame goes unmeasured and the trace commits without a
    /// reply-write span rather than being lost.
    fn mark_reply_written(&mut self, trace: Option<TraceFinisher>) {
        if self.wmarks.len() < MAX_WMARKS {
            self.wmarks.push_back((
                self.flushed_total + self.write_backlog() as u64,
                Instant::now(),
                trace,
            ));
        } else if let Some(trace) = trace {
            trace.commit();
        }
    }

    fn write_backlog(&self) -> usize {
        self.wbuf.backlog()
    }

    /// In-flight work counted against the per-connection window.
    fn inflight(&self) -> usize {
        self.pending.len() + self.streams.len()
    }

    /// Whether anything on this connection is still waiting to happen
    /// without a socket edge to announce it — the loop tightens its
    /// wait cap while any connection says yes.
    fn has_pending_work(&self) -> bool {
        !self.pending.is_empty()
            || !self.streams.is_empty()
            || self.reap_stalled
            || self.write_backlog() > 0
    }

    /// All accepted work answered and flushed — nothing left to drain.
    fn drained(&self) -> bool {
        self.pending.is_empty() && self.streams.is_empty() && self.write_backlog() == 0
    }

    /// Whether the connection should be dropped from the loop.
    fn finished(&self) -> bool {
        self.dead || (self.closed_for_reads && self.drained())
    }

    /// Reads what the socket has ready, at most [`BUF_HIGH_WATER`] bytes
    /// (plus one [`READ_CHUNK`]) per pass: a peer that writes as fast as this
    /// loop copies must neither grow `rbuf` without bound nor starve the
    /// reactor's other connections. A short read ends the pass too —
    /// the socket had no more, and asking again only to be told
    /// `WouldBlock` is a syscall per request. Readiness is
    /// level-triggered on every backend, so the next `wait` reports
    /// whatever is left or has arrived since. Returns true on progress.
    fn fill(&mut self, config: &NetConfig) -> bool {
        if self.closed_for_reads || self.write_backlog() > config.max_write_backlog {
            return false;
        }
        let mut read = 0usize;
        while read < BUF_HIGH_WATER {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    // Peer half-closed: serve what we already have, then
                    // let `finished` reap the connection once drained.
                    self.closed_for_reads = true;
                    return true;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&self.chunk[..n]);
                    read += n;
                    if n < self.chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        read > 0
    }

    /// Decodes every complete frame buffered so far and submits it (or
    /// replies with an error frame). Returns true on progress.
    fn decode_and_submit(
        &mut self,
        service: &ProbeService,
        config: &NetConfig,
        counters: &NetCounters,
    ) -> bool {
        let mut consumed_total = 0usize;
        loop {
            match wire::decode_request(&self.rbuf[self.rpos + consumed_total..]) {
                Ok(Decoded::Incomplete) => break,
                Ok(Decoded::Frame {
                    consumed,
                    id,
                    value,
                }) => {
                    consumed_total += consumed;
                    counters.frames_in.fetch_add(1, Ordering::Relaxed);
                    if let WireRequest::Scrape(kind) = value {
                        // Answered inline from the event loop, ahead of
                        // the in-flight cap: a scrape must not wait
                        // behind the shard queues (or the pipelining
                        // window) it is there to observe, and it never
                        // occupies a window slot.
                        let json = match kind {
                            ScrapeKind::Stats => {
                                let stats = service.live_stats().with_net(counters.snapshot());
                                stats.to_json()
                            }
                            ScrapeKind::Trace => service.traces_json(),
                            ScrapeKind::Profile => service.profile_json(),
                        };
                        if wire::scrape_fits(&json) {
                            self.wbuf
                                .encode_with(|b| wire::encode_scrape_reply(b, id, kind, &json));
                            counters.frames_out.fetch_add(1, Ordering::Relaxed);
                            self.mark_reply_written(None);
                        } else {
                            // A recorder sized past the frame cap: refuse,
                            // never ship a document cut mid-token.
                            let message = format!("{kind:?} document exceeds the frame cap");
                            let error = ErrorReply::new(ErrorCode::TooLarge, message);
                            self.reply_error(id, &error, counters);
                        }
                        continue;
                    }
                    if self.inflight() >= config.max_inflight_per_conn {
                        counters.busy_rejects.fetch_add(1, Ordering::Relaxed);
                        self.reply_error(
                            id,
                            &ErrorReply::new(ErrorCode::Busy, "connection in-flight cap"),
                            counters,
                        );
                        continue;
                    }
                    let waker = Arc::clone(&self.waker);
                    // When tracing is armed, anchor the trace timeline
                    // at frame-decode time and tag the owning reactor;
                    // the service decides (head sample or tail slow
                    // threshold) whether the request actually records.
                    let net_ctx = service.tracing_armed().then(|| NetTraceCtx {
                        reactor: self.rix,
                        id,
                        decoded_at: Instant::now(),
                    });
                    let submitted = match value {
                        WireRequest::Plain(request) => {
                            let wkind = wire::WriteKind::of(&request);
                            service.try_submit(request, net_ctx).map(|pending| {
                                pending.set_waker(waker);
                                self.pending.push((id, wkind, pending));
                            })
                        }
                        WireRequest::Stream {
                            lo,
                            hi,
                            limit,
                            desc,
                        } => service
                            .try_range_stream(lo, hi, limit, desc, net_ctx)
                            .map(|stream| {
                                stream.set_waker(waker);
                                self.streams.push(OpenStream {
                                    id,
                                    stream,
                                    entries: 0,
                                });
                            }),
                        WireRequest::Scrape(_) => {
                            unreachable!("answered before the in-flight cap")
                        }
                    };
                    match submitted {
                        Ok(()) => {}
                        Err(SubmitError::Busy) => {
                            counters.busy_rejects.fetch_add(1, Ordering::Relaxed);
                            self.reply_error(
                                id,
                                &ErrorReply::new(ErrorCode::Busy, "shard queue at capacity"),
                                counters,
                            );
                        }
                        Err(SubmitError::Stopped) => {
                            self.reply_error(
                                id,
                                &ErrorReply::new(ErrorCode::Stopped, "service is shutting down"),
                                counters,
                            );
                        }
                        Err(SubmitError::NoOrderedIndex) => {
                            self.reply_error(
                                id,
                                &ErrorReply::new(
                                    ErrorCode::NoOrderedIndex,
                                    "no ordered tier for range scans",
                                ),
                                counters,
                            );
                        }
                    }
                }
                Ok(Decoded::Corrupt {
                    consumed,
                    id,
                    error,
                }) => {
                    consumed_total += consumed;
                    counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                    let code = match error {
                        wire::DecodeError::Version(_) | wire::DecodeError::Opcode(_) => {
                            ErrorCode::Unsupported
                        }
                        _ => ErrorCode::Malformed,
                    };
                    self.reply_error(id, &ErrorReply::new(code, error.to_string()), counters);
                }
                Err(frame_error) => {
                    // Framing lost: answer once (on the reserved
                    // connection-level id — id 0 is a real request id),
                    // then close after the flush; nothing further on
                    // this socket can be trusted to be frame-aligned.
                    counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                    self.reply_error(
                        wire::CONNECTION_ERROR_ID,
                        &ErrorReply::new(ErrorCode::Malformed, frame_error.to_string()),
                        counters,
                    );
                    self.rbuf.clear();
                    self.rpos = 0;
                    consumed_total = 0;
                    self.closed_for_reads = true;
                    break;
                }
            }
        }
        advance_cursor(&mut self.rbuf, &mut self.rpos, consumed_total);
        consumed_total > 0
    }

    fn reply_error(&mut self, id: u64, error: &ErrorReply, counters: &NetCounters) {
        self.wbuf.encode_with(|b| wire::encode_error(b, id, error));
        counters.frames_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Writes completed responses and released stream chunks into the
    /// output buffer, in completion order. Returns true on progress.
    ///
    /// The scan is gated on the connection's wakeup counter: workers
    /// bump it (through the `ResponseState` waker hook) whenever a
    /// request completes or a chunk becomes consumable, so a pass over
    /// a quiet connection is two atomic ops (re-arm the ring, load the
    /// counter) instead of a walk of its whole pending list.
    fn reap_completions(&mut self, config: &NetConfig, counters: &NetCounters) -> bool {
        self.rung.swap(false, Ordering::AcqRel);
        let wakes = self.wakes.load(Ordering::Acquire);
        if wakes == self.wakes_seen && !self.reap_stalled {
            return false;
        }
        // Observe the counter *before* scanning: a wake that lands
        // mid-scan leaves it ahead of `wakes_seen`, forcing a rescan
        // next pass rather than being lost.
        self.wakes_seen = wakes;
        self.reap_stalled = false;
        let mut progress = false;
        let mut i = 0;
        while i < self.pending.len() {
            // Pace encoding by the write backlog: a completed reply the
            // peer has no room for stays in `pending` until the buffer
            // flushes. Without this, a non-reading peer could turn its
            // whole in-flight window of large replies into buffered
            // bytes at once — the unbounded buffering this server
            // promises not to do.
            if self.write_backlog() >= config.max_write_backlog {
                self.reap_stalled = true;
                break;
            }
            if self.pending[i].2.is_ready() {
                let (id, wkind, pending) = self.pending.swap_remove(i);
                // A deferred trace detaches here, before `wait` consumes
                // the handle, and rides the reply-write mark to its
                // commit at flush time.
                let trace = pending.take_trace();
                // `wait` cannot block: readiness was just observed.
                let response = pending.wait();
                if wire::response_fits(&response) {
                    self.wbuf.encode_with(|b| {
                        if let (widx_serve::Response::Write { acks }, Some(kind)) =
                            (&response, wkind)
                        {
                            wire::encode_write_reply(b, id, kind, acks);
                        } else {
                            wire::encode_response(b, id, &response);
                        }
                    });
                    counters.frames_out.fetch_add(1, Ordering::Relaxed);
                    self.mark_reply_written(trace);
                } else {
                    // The trace still commits — an oversized reply is
                    // exactly the kind of request worth a flight-recorder
                    // entry — just without a reply-write span.
                    if let Some(trace) = trace {
                        trace.commit();
                    }
                    // A legal request (e.g. an unbounded RangeScan) can
                    // complete with more entries than any frame may
                    // carry — answer TooLarge rather than letting the
                    // encoder's cap assert kill the event loop.
                    self.reply_error(
                        id,
                        &ErrorReply::new(
                            ErrorCode::TooLarge,
                            "reply exceeds the maximum frame size; narrow the request",
                        ),
                        counters,
                    );
                }
                progress = true;
            } else {
                i += 1;
            }
        }
        progress |= self.reap_streams(config, counters);
        progress
    }

    /// Writes every consumable chunk of every open stream (then the
    /// `RangeEnd` marker), under the same write-backlog pacing as
    /// buffered replies — a slow reader's chunks wait in the gather
    /// seam instead of ballooning the connection buffer. Chunks
    /// serialize straight out of the seam's own buffers
    /// ([`PendingStream::try_next_with`]): the bytes go from the
    /// worker-built chunk into the wire buffer with no owned-`Vec`
    /// handoff in between, and the chunk's allocation recycles back to
    /// the pushing worker. Returns true on progress.
    fn reap_streams(&mut self, config: &NetConfig, counters: &NetCounters) -> bool {
        let mut progress = false;
        let mut i = 0;
        while i < self.streams.len() {
            let mut finished = false;
            loop {
                if self.wbuf.backlog() >= config.max_write_backlog {
                    self.reap_stalled = true;
                    break;
                }
                // Split borrows: the sink serializes into the write
                // buffer while the stream handle is held mutably.
                let Connection { streams, wbuf, .. } = self;
                let open = &mut streams[i];
                let id = open.id;
                let mut frames = 0u64;
                let poll = open.stream.try_next_with(|chunk| {
                    // The serve tier caps chunks at `stream_chunk`
                    // entries; split defensively anyway so a huge
                    // configured chunk cannot trip the frame cap.
                    for piece in chunk.chunks(wire::MAX_CHUNK_ENTRIES) {
                        wbuf.encode_with(|b| wire::encode_range_chunk(b, id, piece));
                        frames += 1;
                    }
                });
                match poll {
                    StreamConsumed::Consumed(entries) => {
                        open.entries += entries as u64;
                        counters.frames_out.fetch_add(frames, Ordering::Relaxed);
                        progress = true;
                    }
                    StreamConsumed::End => {
                        let total = open.entries;
                        wbuf.encode_with(|b| wire::encode_range_end(b, id, total));
                        counters.frames_out.fetch_add(1, Ordering::Relaxed);
                        finished = true;
                        progress = true;
                        break;
                    }
                    StreamConsumed::Pending => break,
                }
            }
            if finished {
                // The stream's reply-write stage spans its final frame:
                // one mark at the `RangeEnd`, not one per chunk. The
                // trace (if any) rides the same mark.
                let trace = self.streams[i].stream.take_trace();
                self.mark_reply_written(trace);
                self.streams.swap_remove(i);
            } else {
                i += 1;
            }
        }
        progress
    }

    /// Flushes as much buffered output as the socket accepts (one
    /// `writev` per syscall), completing reply-write marks as their
    /// bytes reach the socket, and shrinking oversized buffers once the
    /// backlog fully drains. Returns true on progress.
    fn flush(&mut self) -> bool {
        let (flushed, dead) = self.wbuf.flush(&mut self.stream);
        if dead {
            self.dead = true;
        }
        self.flushed_total += flushed as u64;
        while self
            .wmarks
            .front()
            .is_some_and(|mark| mark.0 <= self.flushed_total)
        {
            let (_, encoded_at, trace) = self.wmarks.pop_front().expect("front just checked");
            self.stages.record(Stage::ReplyWrite, encoded_at.elapsed());
            if let Some(mut trace) = trace {
                trace.note_reply_write(encoded_at);
                trace.commit();
            }
        }
        if flushed > 0 && self.wbuf.backlog() == 0 {
            self.shrink_after_drain();
        }
        flushed > 0
    }

    /// Sheds capacity a finished burst left behind: every per-connection
    /// buffer above [`BUF_HIGH_WATER`] shrinks back to it, so one large
    /// range scan does not pin megabytes for the connection's lifetime.
    fn shrink_after_drain(&mut self) {
        self.wbuf.shrink_to(BUF_HIGH_WATER);
        if self.rbuf.capacity() > BUF_HIGH_WATER {
            self.rbuf.shrink_to(BUF_HIGH_WATER);
        }
        if self.pending.is_empty() && self.pending.capacity() > 64 {
            self.pending.shrink_to(16);
        }
        if self.streams.is_empty() && self.streams.capacity() > 64 {
            self.streams.shrink_to(16);
        }
        if self.wmarks.is_empty() && self.wmarks.capacity() > 256 {
            self.wmarks.shrink_to(64);
        }
    }

    /// Total buffer capacity this connection currently retains — what
    /// the high-water shrink bounds between bursts.
    #[cfg(test)]
    fn retained_capacity(&self) -> usize {
        self.rbuf.capacity() + self.wbuf.retained_capacity()
    }

    /// One pass over whatever the last `wait` reported (plus completion
    /// wakes): read if the socket was readable, decode+submit, reap
    /// completions, flush. Returns true on progress.
    fn pump(&mut self, service: &ProbeService, config: &NetConfig, counters: &NetCounters) -> bool {
        let read_ready = std::mem::take(&mut self.io_readable);
        let write_ready = std::mem::take(&mut self.io_writable);
        let mut progress = false;
        if read_ready {
            progress |= self.fill(config);
            progress |= self.decode_and_submit(service, config, counters);
        }
        progress |= self.reap_completions(config, counters);
        if write_ready || self.write_backlog() > 0 {
            progress |= self.flush();
        }
        progress
    }

    /// The `(readable, writable)` interest this connection should hold
    /// right now: reads park under EOF or a write backlog over the cap;
    /// write interest exists only while a backlog does.
    fn desired_interest(&self, config: &NetConfig) -> (bool, bool) {
        (
            !self.closed_for_reads && self.write_backlog() <= config.max_write_backlog,
            self.write_backlog() > 0,
        )
    }

    /// Reconciles the poller registration with the desired interest.
    /// `(false, false)` parks the registration (`Event::none`) — the
    /// backends keep parked sources out of their readiness sweeps, so a
    /// hung-up peer cannot storm the loop with HUP events.
    fn update_interest(&mut self, key: usize, config: &NetConfig) {
        let desired = self.desired_interest(config);
        if desired == self.interest {
            return;
        }
        let event = Event {
            key,
            readable: desired.0,
            writable: desired.1,
        };
        if self.poller.modify(&self.stream, event).is_ok() {
            self.interest = desired;
        } else {
            // Registration failure starves this connection of edges —
            // kill it rather than leaving it silently stuck.
            self.dead = true;
        }
    }

    /// Drops the connection's poller registration.
    fn deregister(&mut self) {
        let _ = self.poller.delete(&self.stream);
    }
}

/// One reactor's cross-thread surface: the poller the acceptor rings
/// and the inbox it hands accepted sockets through. Everything else a
/// reactor owns lives on its own stack.
struct ReactorHandle {
    poller: Arc<Poller>,
    inbox: Mutex<VecDeque<TcpStream>>,
}

/// A running socket front-end over a [`ProbeService`]: an acceptor
/// thread plus [`NetConfig::reactors`] event-loop threads, connections
/// pinned round-robin.
///
/// # Shutdown
///
/// [`shutdown`](WidxServer::shutdown) stops accepting, stops *reading*,
/// and drains: every request frame already received is still decoded,
/// submitted, answered, and flushed before the loops exit — no
/// accepted request is dropped, on any reactor, even when its write
/// backlog is nonempty at the moment shutdown begins. The underlying
/// [`ProbeService`] is caller-owned and keeps running; in-flight frames
/// drain through its own poison-pill shutdown if the caller stops it
/// afterwards (or concurrently — accepted submissions complete either
/// way).
pub struct WidxServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    accept_poller: Arc<Poller>,
    reactors: Vec<Arc<ReactorHandle>>,
    threads: Vec<JoinHandle<()>>,
}

impl WidxServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port),
    /// builds one readiness poller per reactor plus the acceptor's
    /// (honouring [`NetConfig::poller_backend`] / `WIDX_POLLER`),
    /// registers the listener, and starts the event loops over
    /// `service`.
    ///
    /// # Errors
    ///
    /// Any socket-level failure to bind or configure the listener, or
    /// failure to set up a poller backend.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<ProbeService>,
        config: NetConfig,
    ) -> std::io::Result<WidxServer> {
        let config = config.normalized();
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let build_poller = |config: &NetConfig| -> std::io::Result<Arc<Poller>> {
            Ok(Arc::new(match &config.poller_backend {
                Some(backend) => Poller::with_backend(backend)?,
                None => Poller::new()?,
            }))
        };
        let accept_poller = build_poller(&config)?;
        accept_poller.add(&listener, Event::readable(LISTENER_KEY))?;
        let mut reactors = Vec::with_capacity(config.reactors);
        for _ in 0..config.reactors {
            reactors.push(Arc::new(ReactorHandle {
                poller: build_poller(&config)?,
                inbox: Mutex::new(VecDeque::new()),
            }));
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(NetCounters::new(config.reactors));
        let mut threads = Vec::with_capacity(config.reactors + 1);
        for (rix, handle) in reactors.iter().enumerate() {
            let handle = Arc::clone(handle);
            let service = Arc::clone(&service);
            let config = config.clone();
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("widx-net-r{rix}"))
                    .spawn(move || {
                        run_reactor(rix, &handle, &service, &config, &shutdown, &counters);
                    })
                    .expect("spawn net reactor"),
            );
        }
        {
            let accept_poller = Arc::clone(&accept_poller);
            let reactors = reactors.clone();
            let config = config.clone();
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            threads.push(
                std::thread::Builder::new()
                    .name("widx-net-accept".to_string())
                    .spawn(move || {
                        run_acceptor(
                            &listener,
                            &accept_poller,
                            &reactors,
                            &config,
                            &shutdown,
                            &counters,
                        );
                    })
                    .expect("spawn net acceptor"),
            );
        }
        Ok(WidxServer {
            addr,
            shutdown,
            counters,
            accept_poller,
            reactors,
            threads,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live snapshot of the network-tier counters (per-reactor gauges
    /// included); attach the final one to the service's stats with
    /// [`ServiceStats::with_net`](widx_serve::ServiceStats::with_net).
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.counters.snapshot()
    }

    /// Graceful shutdown: stop accepting and reading, drain every
    /// accepted frame through to a flushed reply on every reactor, then
    /// join the threads. Returns the final counter snapshot.
    #[must_use]
    pub fn shutdown(mut self) -> NetStats {
        self.begin_shutdown();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        self.counters.snapshot()
    }

    /// Publishes the shutdown flag, then rings every loop's wake handle
    /// so loops blocked in `poller.wait` observe it now rather than at
    /// the wait cap — the same no-lost-wakeup contract completions get.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        let _ = self.accept_poller.notify();
        for reactor in &self.reactors {
            let _ = reactor.poller.notify();
        }
    }
}

impl Drop for WidxServer {
    fn drop(&mut self) {
        self.begin_shutdown();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// How the accept loop reacts to an `accept()` error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AcceptErr {
    /// `EAGAIN`: the pending queue is drained; end this pass.
    Exhausted,
    /// Transient, scoped to one would-be connection (`EINTR`,
    /// `ECONNABORTED`, a peer that vanished mid-handshake): skip it and
    /// keep accepting — the rest of the queue is fine.
    Transient,
    /// Out of file descriptors (`EMFILE`/`ENFILE`): back off briefly so
    /// fd pressure can ease, then keep accepting. Aborting here (the
    /// old behaviour for *every* non-`WouldBlock` error) would wedge
    /// the listener forever on a recoverable condition.
    Descriptors,
}

fn classify_accept_error(e: &std::io::Error) -> AcceptErr {
    if e.kind() == ErrorKind::WouldBlock {
        return AcceptErr::Exhausted;
    }
    // ENFILE (23) / EMFILE (24): no stable `ErrorKind` maps these.
    if matches!(e.raw_os_error(), Some(23 | 24)) {
        return AcceptErr::Descriptors;
    }
    AcceptErr::Transient
}

/// Most accept errors tolerated in one pass before yielding back to the
/// poller — a persistently failing listener must not spin this pass
/// forever (level-triggered readiness re-reports it next wait).
const MAX_ACCEPT_ERRORS_PER_PASS: usize = 64;

/// Accepts until the listener is drained, feeding sockets to `sink`.
/// Errors other than `WouldBlock` never abort the loop: transient ones
/// are logged and skipped, descriptor exhaustion invokes `backoff`
/// before continuing, and a bounded error budget ends the pass instead
/// of spinning. Returns true when at least one socket was accepted.
fn drain_accepts(
    accept: &mut dyn FnMut() -> std::io::Result<TcpStream>,
    sink: &mut dyn FnMut(TcpStream),
    backoff: &mut dyn FnMut(),
    log: &mut dyn FnMut(&std::io::Error),
) -> bool {
    let mut progress = false;
    let mut errors = 0usize;
    loop {
        match accept() {
            Ok(stream) => {
                progress = true;
                sink(stream);
            }
            Err(e) => {
                match classify_accept_error(&e) {
                    AcceptErr::Exhausted => break,
                    AcceptErr::Transient => log(&e),
                    AcceptErr::Descriptors => {
                        log(&e);
                        backoff();
                    }
                }
                errors += 1;
                if errors >= MAX_ACCEPT_ERRORS_PER_PASS {
                    break;
                }
            }
        }
    }
    progress
}

/// The acceptor thread: blocks on its own poller (listener readability
/// or the shutdown wake), accepts every pending connection, and hands
/// each off round-robin to a reactor's inbox, ringing that reactor's
/// wake handle so the pinning takes effect immediately.
fn run_acceptor(
    listener: &TcpListener,
    poller: &Arc<Poller>,
    reactors: &[Arc<ReactorHandle>],
    config: &NetConfig,
    shutdown: &AtomicBool,
    counters: &NetCounters,
) {
    let mut events: Vec<Event> = Vec::new();
    let mut next = 0usize;
    let mut last_log: Option<Instant> = None;
    loop {
        if poller.wait(&mut events, Some(QUIET_WAIT_CAP)).is_err() {
            events.clear();
            std::thread::sleep(config.idle_backoff);
        }
        if shutdown.load(Ordering::Relaxed) {
            let _ = poller.delete(listener);
            return;
        }
        // Level-triggered: whatever woke us, draining the accept queue
        // is always safe (an unready listener answers `WouldBlock`).
        drain_accepts(
            &mut || listener.accept().map(|(stream, _)| stream),
            &mut |stream| {
                if stream.set_nonblocking(true).is_err() {
                    return;
                }
                let _ = stream.set_nodelay(true);
                counters.connections.fetch_add(1, Ordering::Relaxed);
                let reactor = &reactors[next % reactors.len()];
                next = next.wrapping_add(1);
                reactor
                    .inbox
                    .lock()
                    .expect("reactor inbox")
                    .push_back(stream);
                let _ = reactor.poller.notify();
            },
            &mut || std::thread::sleep(ACCEPT_BACKOFF),
            &mut |e| {
                // Rate-limited: fd exhaustion arrives in storms.
                let now = Instant::now();
                if last_log.is_none_or(|at| now.duration_since(at) >= Duration::from_secs(1)) {
                    last_log = Some(now);
                    eprintln!("widx-net: accept error (continuing): {e}");
                }
            },
        );
    }
}

/// One reactor's event loop: registers sockets handed off by the
/// acceptor with its own poller, then serves them exactly as the old
/// single-threaded loop did — decode, submit, reap, flush — publishing
/// its gauges into its own [`ReactorGauges`] cell each pass.
fn run_reactor(
    rix: usize,
    handle: &ReactorHandle,
    service: &ProbeService,
    config: &NetConfig,
    shutdown: &AtomicBool,
    counters: &NetCounters,
) {
    let stages = service.stage_times();
    let poller = &handle.poller;
    let mut slots: Vec<Option<Connection>> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut draining: Option<Instant> = None;
    // First iteration polls with a zero timeout: service the state that
    // existed before the loop started, then settle into blocking waits.
    let mut progress = true;
    loop {
        // The wait is the old idle sleep, inverted: instead of sleeping
        // blind and hoping to notice work afterwards, block *in* the
        // readiness source. Timeouts are insurance, not signal — tight
        // (idle_backoff) while work is in flight, long when fully quiet,
        // zero when the last pass made progress (drain the backlog of
        // edges without sleeping).
        let timeout = if progress {
            Duration::ZERO
        } else {
            let quiet = !slots.iter().flatten().any(Connection::has_pending_work);
            let mut cap = if quiet {
                QUIET_WAIT_CAP
            } else {
                config.idle_backoff
            };
            if let Some(since) = draining {
                cap = cap.min(config.drain_timeout.saturating_sub(since.elapsed()));
            }
            cap
        };
        if poller.wait(&mut events, Some(timeout)).is_err() {
            // A broken poller must not hot-spin the loop; degrade to
            // the old polling cadence for this pass.
            events.clear();
            std::thread::sleep(config.idle_backoff);
        }
        progress = false;
        if draining.is_none() && shutdown.load(Ordering::Relaxed) {
            // Shutdown begins: stop reading (the acceptor has already
            // stopped accepting). Frames whose bytes already arrived
            // still decode, submit, and answer below — and a connection
            // with a nonempty write backlog keeps flushing until every
            // accepted frame is on the socket: drain, then halt.
            draining = Some(Instant::now());
            for conn in slots.iter_mut().flatten() {
                conn.closed_for_reads = true;
            }
            progress = true;
        }
        // Adopt connections the acceptor handed off: register each with
        // *this* reactor's poller — the pinning decision is permanent.
        // Handoffs racing the start of a drain are closed unserved: a
        // socket this reactor never read from has no accepted frames.
        loop {
            let stream = handle.inbox.lock().expect("reactor inbox").pop_front();
            let Some(stream) = stream else { break };
            if draining.is_some() {
                continue;
            }
            let slot = match slots.iter().position(Option::is_none) {
                Some(free) => free,
                None => {
                    slots.push(None);
                    slots.len() - 1
                }
            };
            let conn = Connection::new(stream, Arc::clone(poller), Arc::clone(&stages), rix as u32);
            if poller
                .add(&conn.stream, Event::readable(slot + CONN_KEY_BASE))
                .is_err()
            {
                // No registration, no edges: refuse the connection
                // rather than strand it.
                continue;
            }
            slots[slot] = Some(conn);
            progress = true;
        }
        for event in &events {
            if let Some(Some(conn)) = slots.get_mut(event.key.wrapping_sub(CONN_KEY_BASE)) {
                conn.io_readable |= event.readable;
                conn.io_writable |= event.writable;
            }
        }
        // Pump every live connection: ones with socket readiness do IO,
        // ones whose waker fired reap completions, quiet ones cost one
        // atomic load. Then reconcile each connection's poller interest
        // with what this pass left behind (write interest only while a
        // backlog exists, reads parked under backpressure).
        for (index, slot) in slots.iter_mut().enumerate() {
            let Some(conn) = slot.as_mut() else {
                continue;
            };
            progress |= conn.pump(service, config, counters);
            if conn.finished() {
                conn.deregister();
                *slot = None;
            } else {
                conn.update_interest(index + CONN_KEY_BASE, config);
            }
        }
        // Re-publish this reactor's gauges: how many connections it
        // owns and how many reply bytes sit unflushed across them. A
        // scrape (the Stats opcode, or `WidxServer::stats`) sees values
        // at most one loop pass stale; totals are summed at snapshot.
        let mut open = 0u64;
        let mut backlog = 0u64;
        for conn in slots.iter().flatten() {
            open += 1;
            backlog += conn.write_backlog() as u64;
        }
        counters.reactors[rix].publish(open, backlog);
        if let Some(since) = draining {
            if slots.iter().all(Option::is_none) {
                return;
            }
            if since.elapsed() > config.drain_timeout {
                // A peer that will not read its replies can never
                // drain; abandoning it bounds shutdown (and `Drop`).
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_backoff_zero_is_clamped_not_honoured() {
        // Zero would make every idle `poller.wait` return immediately —
        // a hot spin. The builder clamps...
        let config = NetConfig::default().with_idle_backoff(Duration::ZERO);
        assert_eq!(config.idle_backoff, NetConfig::MIN_IDLE_BACKOFF);
        // ...and `normalized` (what `bind` runs) re-clamps a value
        // poked directly through the public field.
        let config = NetConfig {
            idle_backoff: Duration::ZERO,
            ..NetConfig::default()
        };
        assert_eq!(
            config.normalized().idle_backoff,
            NetConfig::MIN_IDLE_BACKOFF
        );
        // Values above the floor pass through untouched.
        let config = NetConfig::default().with_idle_backoff(Duration::from_millis(2));
        assert_eq!(config.normalized().idle_backoff, Duration::from_millis(2));
    }

    #[test]
    fn poller_backend_override_is_carried() {
        let config = NetConfig::default().with_poller_backend("poll");
        assert_eq!(config.poller_backend.as_deref(), Some("poll"));
        assert!(NetConfig::default().poller_backend.is_none());
    }

    #[test]
    fn reactor_count_is_clamped_to_at_least_one() {
        assert_eq!(NetConfig::default().reactors, 1);
        assert_eq!(NetConfig::default().with_reactors(0).reactors, 1);
        assert_eq!(NetConfig::default().with_reactors(4).reactors, 4);
        let config = NetConfig {
            reactors: 0,
            ..NetConfig::default()
        };
        assert_eq!(config.normalized().reactors, 1);
    }

    fn raw_err(code: i32) -> std::io::Error {
        std::io::Error::from_raw_os_error(code)
    }

    /// A connected loopback pair: `(server side, client side)`.
    fn sock_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (server, client)
    }

    #[test]
    fn accept_errors_do_not_abort_the_accept_loop() {
        // Regression for the old `Err(_) => break`: a scripted accept
        // path yielding EMFILE, ECONNABORTED, and EIO between real
        // sockets must still deliver every socket.
        let (s1, _c1) = sock_pair();
        let (s2, _c2) = sock_pair();
        let (s3, _c3) = sock_pair();
        let mut script: VecDeque<std::io::Result<TcpStream>> = VecDeque::from([
            Err(raw_err(103)), // ECONNABORTED: peer gave up mid-handshake
            Ok(s1),
            Err(raw_err(24)), // EMFILE: out of fds — back off, continue
            Ok(s2),
            Err(raw_err(5)), // EIO: unknown transient
            Ok(s3),
            Err(std::io::Error::from(ErrorKind::WouldBlock)),
        ]);
        let mut accepted = 0usize;
        let mut backoffs = 0usize;
        let mut logged = 0usize;
        let progress = drain_accepts(
            &mut || script.pop_front().expect("script exhausted"),
            &mut |_stream| accepted += 1,
            &mut || backoffs += 1,
            &mut |_e| logged += 1,
        );
        assert!(progress);
        assert_eq!(accepted, 3, "every socket behind the errors got through");
        assert_eq!(backoffs, 1, "EMFILE backed off exactly once");
        assert_eq!(logged, 3, "each non-WouldBlock error was surfaced");
        assert!(script.is_empty(), "loop ran to the WouldBlock");
    }

    #[test]
    fn persistent_accept_errors_end_the_pass_instead_of_spinning() {
        let mut calls = 0usize;
        let progress = drain_accepts(
            &mut || {
                calls += 1;
                Err(raw_err(5))
            },
            &mut |_stream| {},
            &mut || {},
            &mut |_e| {},
        );
        assert!(!progress);
        assert_eq!(calls, MAX_ACCEPT_ERRORS_PER_PASS, "bounded, not infinite");
    }

    #[test]
    fn classify_accept_error_buckets() {
        assert_eq!(
            classify_accept_error(&std::io::Error::from(ErrorKind::WouldBlock)),
            AcceptErr::Exhausted
        );
        assert_eq!(classify_accept_error(&raw_err(24)), AcceptErr::Descriptors);
        assert_eq!(classify_accept_error(&raw_err(23)), AcceptErr::Descriptors);
        assert_eq!(classify_accept_error(&raw_err(103)), AcceptErr::Transient);
        assert_eq!(
            classify_accept_error(&std::io::Error::from(ErrorKind::Interrupted)),
            AcceptErr::Transient
        );
    }

    #[test]
    fn write_buf_batches_frames_and_recycles_segments() {
        let (mut server, mut client) = sock_pair();
        server.set_nonblocking(true).expect("nonblocking");
        let mut wbuf = WriteBuf::new();
        // Many small "frames" — they should pack into few segments.
        let mut sent = Vec::new();
        for i in 0..100u32 {
            wbuf.encode_with(|b| {
                b.extend_from_slice(&i.to_le_bytes());
                sent.extend_from_slice(&i.to_le_bytes());
            });
        }
        assert_eq!(wbuf.backlog(), 400);
        assert!(wbuf.segs.len() <= 1 + 400 / SEG_TARGET, "small frames pack");
        let (flushed, dead) = wbuf.flush(&mut server);
        assert!(!dead);
        assert_eq!(flushed, 400);
        assert_eq!(wbuf.backlog(), 0);
        assert!(wbuf.segs.is_empty());
        assert!(!wbuf.spare.is_empty(), "flushed segment was recycled");
        let mut got = vec![0u8; 400];
        client.read_exact(&mut got).expect("read");
        assert_eq!(got, sent, "vectored flush preserved byte order");
    }

    #[test]
    fn write_buf_shrinks_retained_capacity_to_the_cap() {
        let (mut server, client) = sock_pair();
        server.set_nonblocking(true).expect("nonblocking");
        let mut wbuf = WriteBuf::new();
        // One burst far above the high-water cap.
        let big = vec![0xABu8; 2 << 20];
        wbuf.encode_with(|b| b.extend_from_slice(&big));
        let reader = std::thread::spawn(move || {
            let mut stream = client;
            let mut sink = [0u8; 64 << 10];
            let mut total = 0usize;
            while total < 2 << 20 {
                match stream.read(&mut sink) {
                    Ok(0) => break,
                    Ok(n) => total += n,
                    Err(_) => break,
                }
            }
            total
        });
        while wbuf.backlog() > 0 {
            let (_, dead) = wbuf.flush(&mut server);
            assert!(!dead);
            if wbuf.backlog() > 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        wbuf.shrink_to(BUF_HIGH_WATER);
        assert!(
            wbuf.retained_capacity() <= BUF_HIGH_WATER,
            "retained {} > cap {}",
            wbuf.retained_capacity(),
            BUF_HIGH_WATER
        );
        drop(server);
        assert_eq!(reader.join().expect("reader"), 2 << 20);
    }

    #[test]
    fn connection_buffers_shrink_after_a_large_burst_drains() {
        // Satellite regression: rbuf/wbuf grew to the largest burst
        // ever seen and never shrank. Push a multi-megabyte burst
        // through a real loopback connection, drain it, and assert the
        // retained capacity came back under the high-water cap.
        let (server, client) = sock_pair();
        server.set_nonblocking(true).expect("nonblocking");
        let poller = Arc::new(Poller::with_backend("poll").expect("poller"));
        let mut conn = Connection::new(server, poller, Arc::new(StageTimes::new()), 0);
        // Simulate a large decoded request having passed through rbuf.
        conn.rbuf = vec![0u8; 3 << 20];
        conn.rbuf.clear();
        assert!(conn.retained_capacity() > BUF_HIGH_WATER);
        // A burst of reply bytes far over the cap.
        let payload = vec![0x5Au8; 4 << 20];
        conn.wbuf.encode_with(|b| b.extend_from_slice(&payload));
        conn.mark_reply_written(None);
        let reader = std::thread::spawn(move || {
            let mut stream = client;
            let mut sink = [0u8; 64 << 10];
            let mut total = 0usize;
            while total < 4 << 20 {
                match stream.read(&mut sink) {
                    Ok(0) => break,
                    Ok(n) => total += n,
                    Err(_) => break,
                }
            }
            total
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while conn.write_backlog() > 0 {
            assert!(Instant::now() < deadline, "drain stalled");
            conn.flush();
            if conn.write_backlog() > 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert!(!conn.dead);
        assert!(
            conn.retained_capacity() <= BUF_HIGH_WATER,
            "retained {} bytes > {} cap after the burst drained",
            conn.retained_capacity(),
            BUF_HIGH_WATER
        );
        assert!(conn.wmarks.is_empty(), "reply-write mark completed");
        drop(conn);
        assert_eq!(reader.join().expect("reader"), 4 << 20);
    }

    #[test]
    fn fill_is_bounded_per_pass_and_every_frame_is_answered_once() {
        use widx_serve::{Request, ServeConfig};

        // 1 MiB of valid pipelined Lookup frames from a peer that writes
        // as fast as the loop copies: one `fill` must stop at the budget
        // rather than read until the peer pauses.
        let mut burst = Vec::new();
        let mut frames = 0u64;
        while burst.len() < 1 << 20 {
            wire::encode_request(&mut burst, frames, &Request::Lookup { key: frames % 128 });
            frames += 1;
        }
        let service = ProbeService::build(
            widx_db::hash::HashRecipe::robust64(),
            (0..64u64).map(|k| (k, k + 1)),
            &ServeConfig::default().with_shards(2),
        );
        let config = NetConfig::default().with_max_inflight(usize::MAX);
        let counters = NetCounters::new(1);
        let (server, client) = sock_pair();
        server.set_nonblocking(true).expect("nonblocking");
        let poller = Arc::new(Poller::with_backend("poll").expect("poller"));
        let mut conn = Connection::new(server, poller, service.stage_times(), 0);

        let mut sink = client.try_clone().expect("clone");
        let (written_tx, written_rx) = std::sync::mpsc::channel();
        let writer = std::thread::spawn(move || {
            sink.write_all(&burst).expect("write burst");
            let _ = written_tx.send(());
        });
        // Replies counted per request id; the only error a saturated
        // server may send is `Busy`.
        let reader = std::thread::spawn(move || {
            let mut stream = client;
            let mut replies: Vec<u32> = vec![0; frames as usize];
            let (mut buf, mut chunk, mut seen) = (Vec::new(), [0u8; 64 << 10], 0u64);
            while seen < frames {
                let n = stream.read(&mut chunk).expect("read replies");
                assert!(n > 0, "server closed after {seen} of {frames} replies");
                buf.extend_from_slice(&chunk[..n]);
                let mut at = 0;
                while let Ok(Decoded::Frame {
                    consumed,
                    id,
                    value,
                }) = wire::decode_reply(&buf[at..])
                {
                    at += consumed;
                    seen += 1;
                    replies[id as usize] += 1;
                    if let Err(e) = value {
                        assert_eq!(e.code, ErrorCode::Busy, "unexpected error: {e}");
                    }
                }
                buf.drain(..at);
            }
            replies
        });

        // Let the peer get ahead (it finishes, or blocks on full socket
        // buffers) so the first pass has more than a budget within reach.
        let _ = written_rx.recv_timeout(Duration::from_millis(200));
        assert!(conn.fill(&config));
        assert!(
            conn.rbuf.len() <= BUF_HIGH_WATER + READ_CHUNK,
            "one fill read {} bytes, over the {} budget plus one chunk",
            conn.rbuf.len(),
            BUF_HIGH_WATER
        );
        let deadline = Instant::now() + Duration::from_secs(30);
        while counters.frames_out.load(Ordering::Relaxed) < frames || conn.write_backlog() > 0 {
            assert!(Instant::now() < deadline, "burst stalled");
            assert!(!conn.dead);
            conn.io_readable = true;
            if !conn.pump(&service, &config, &counters) {
                std::thread::yield_now();
            }
        }
        writer.join().expect("writer");
        let replies = reader.join().expect("reader");
        assert!(
            replies.iter().all(|&n| n == 1),
            "a frame went unanswered or answered twice"
        );
        assert_eq!(counters.frames_in.load(Ordering::Relaxed), frames);
        assert_eq!(counters.decode_errors.load(Ordering::Relaxed), 0);
        drop(conn);
        let _ = service.shutdown();
    }
}
