//! Per-request tracing: spans, walker counters, and the flight recorder.
//!
//! The aggregate registry ([`crate::WorkerCell`], [`crate::StageTimes`])
//! answers "what is the p99"; this module answers "why was *that* request
//! slow". A sampled (or tail-selected) request carries an [`ActiveTrace`]
//! through the serving stack; each tier appends [`Span`]s and walker-level
//! [`WalkCounters`], and the completed [`RequestTrace`] lands in a bounded
//! [`FlightRecorder`] ring that scrapes can drain as JSON.
//!
//! Sampling policy lives with the caller (head 1-in-N plus a tail
//! slow-threshold); the recorder only stores completed traces and keeps
//! depth/drop gauges. The untraced hot path never touches the ring.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::json::Writer;
use crate::stage::Stage;

/// Minimum gap between two slow-request log lines.
const SLOW_LOG_INTERVAL: Duration = Duration::from_millis(500);

/// One timed stage within a request trace.
///
/// `start_ns` is the offset from the trace base (the submit or frame-decode
/// instant), so spans from different threads share one monotonic timeline.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Which stage this span covers.
    pub stage: Stage,
    /// Offset of the span start from the trace base, in nanoseconds.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// Walker-level memory-parallelism evidence for one request.
///
/// Every `widx-soft` schedule (scalar, group prefetch and the AMAC ring),
/// over the hash index and the B+-tree alike, fills this shape; a request
/// batched across several shards merges one record per shard visit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkCounters {
    /// Index nodes touched (hash buckets + overflow nodes, or B+-tree nodes).
    pub nodes: u64,
    /// Longest hash chain followed, or B+-tree depth (root to leaf).
    pub max_chain: u64,
    /// Schedule rounds the carrying walk executed: one per node visit
    /// (scalar), per lock-step pass over a group, or per ring step (AMAC).
    pub rounds: u64,
    /// Sum of live slots across those rounds (occupancy / rounds = mean MLP).
    pub occupancy: u64,
    /// Prefetch instructions issued by the walker.
    pub prefetches: u64,
}

impl WalkCounters {
    /// Write the counters as members of the currently open JSON object.
    pub fn write_fields(&self, w: &mut Writer) {
        w.key("nodes").u64(self.nodes);
        w.key("max_chain").u64(self.max_chain);
        w.key("rounds").u64(self.rounds);
        w.key("occupancy").u64(self.occupancy);
        w.key("prefetches").u64(self.prefetches);
    }

    /// Merge another record into this one (sums; `max_chain` takes the max).
    pub fn merge(&mut self, other: &WalkCounters) {
        self.nodes = self.nodes.saturating_add(other.nodes);
        self.max_chain = self.max_chain.max(other.max_chain);
        self.rounds = self.rounds.saturating_add(other.rounds);
        self.occupancy = self.occupancy.saturating_add(other.occupancy);
        self.prefetches = self.prefetches.saturating_add(other.prefetches);
    }

    /// True when no field has been touched.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == WalkCounters::default()
    }
}

/// A completed, immutable request trace as stored by the recorder.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// Request id (the wire id when the trace was armed by the net tier,
    /// otherwise a service-local sequence number).
    pub id: u64,
    /// Request kind, e.g. `"lookup"` or `"range_scan"`.
    pub kind: &'static str,
    /// End-to-end latency in nanoseconds (trace base to completion).
    pub total_ns: u64,
    /// True when the request exceeded the slow threshold (tail-sampled).
    pub slow: bool,
    /// Reactor that decoded the frame, when the trace crossed the net tier.
    pub reactor: Option<u32>,
    /// Shards whose workers touched the request.
    pub shards: Vec<u32>,
    /// Per-stage spans, in the order they were recorded.
    pub spans: Vec<Span>,
    /// Merged walker counters across all shard visits.
    pub walk: WalkCounters,
}

impl RequestTrace {
    /// Write this trace as one JSON object.
    pub fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            w.key("id").u64(self.id);
            w.key("kind").str(self.kind);
            w.key("total_ns").u64(self.total_ns);
            w.key("slow").bool(self.slow);
            match self.reactor {
                Some(rix) => w.key("reactor").u64(u64::from(rix)),
                None => w.key("reactor").null(),
            };
            w.key("shards").array(|w| {
                for shard in &self.shards {
                    w.u64(u64::from(*shard));
                }
            });
            w.key("spans").array(|w| {
                for span in &self.spans {
                    w.object(|w| {
                        w.key("stage").str(span.stage.name());
                        w.key("start_ns").u64(span.start_ns);
                        w.key("dur_ns").u64(span.dur_ns);
                    });
                }
            });
            w.key("walk").object(|w| self.walk.write_fields(w));
        });
    }
}

/// A trace under construction, carried alongside an in-flight request.
///
/// All span times are offsets from `base`, so annotations from worker and
/// reactor threads land on one shared timeline without clock agreement
/// beyond `Instant` monotonicity.
#[derive(Debug)]
pub struct ActiveTrace {
    base: Instant,
    id: u64,
    kind: &'static str,
    sampled: bool,
    reactor: Option<u32>,
    shards: Vec<u32>,
    spans: Vec<Span>,
    walk: WalkCounters,
}

impl ActiveTrace {
    /// Start a trace. `base` anchors the timeline (frame-decode instant for
    /// net-armed traces, submit instant otherwise); `sampled` records whether
    /// head sampling picked this request (tail selection happens at finish).
    #[must_use]
    pub fn new(base: Instant, id: u64, kind: &'static str, sampled: bool) -> ActiveTrace {
        ActiveTrace {
            base,
            id,
            kind,
            sampled,
            reactor: None,
            shards: Vec::new(),
            spans: Vec::with_capacity(8),
            walk: WalkCounters::default(),
        }
    }

    /// Whether head sampling selected this request.
    #[must_use]
    pub fn sampled(&self) -> bool {
        self.sampled
    }

    /// The instant the trace timeline is anchored to.
    #[must_use]
    pub fn base(&self) -> Instant {
        self.base
    }

    /// Record which reactor decoded the request's frame.
    pub fn set_reactor(&mut self, rix: u32) {
        self.reactor = Some(rix);
    }

    /// Note that `shard`'s worker touched the request (deduplicated).
    pub fn add_shard(&mut self, shard: u32) {
        if !self.shards.contains(&shard) {
            self.shards.push(shard);
        }
    }

    /// Merge a walker counter record into the trace.
    pub fn add_walk(&mut self, counters: &WalkCounters) {
        self.walk.merge(counters);
    }

    /// Append a span covering `start..end` on the trace timeline.
    /// Instants before `base` clamp to offset zero.
    pub fn span_between(&mut self, stage: Stage, start: Instant, end: Instant) {
        self.span_for(stage, start, end.saturating_duration_since(start));
    }

    /// Append a span starting at `start` with an explicit duration.
    pub fn span_for(&mut self, stage: Stage, start: Instant, dur: Duration) {
        let start_ns = dur_ns(start.saturating_duration_since(self.base));
        self.spans.push(Span {
            stage,
            start_ns,
            dur_ns: dur_ns(dur),
        });
    }

    /// Seal the trace with its end-to-end latency and tail verdict.
    #[must_use]
    pub fn finish(self, total: Duration, slow: bool) -> RequestTrace {
        RequestTrace {
            id: self.id,
            kind: self.kind,
            total_ns: dur_ns(total),
            slow,
            reactor: self.reactor,
            shards: self.shards,
            spans: self.spans,
            walk: self.walk,
        }
    }
}

fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Recorder gauges, scrape-coherent (each field individually atomic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Ring capacity in traces.
    pub capacity: u64,
    /// Traces currently held in the ring.
    pub depth: u64,
    /// Total traces ever recorded.
    pub recorded: u64,
    /// Traces evicted from a full ring.
    pub dropped: u64,
    /// Recorded traces that were tail-selected (exceeded the slow threshold).
    pub slow: u64,
}

impl RecorderStats {
    /// Write the gauges as members of the currently open JSON object.
    pub fn write_fields(&self, w: &mut Writer) {
        w.key("capacity").u64(self.capacity);
        w.key("depth").u64(self.depth);
        w.key("recorded").u64(self.recorded);
        w.key("dropped").u64(self.dropped);
        w.key("slow").u64(self.slow);
    }
}

/// Bounded ring of completed request traces plus drop/depth gauges.
///
/// The ring is a mutex'd `VecDeque`: only armed traces (sampled or slow)
/// ever reach [`FlightRecorder::record`], so the untraced hot path never
/// contends here. Gauges are plain atomics so `stats()` is lock-free.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<RequestTrace>>,
    depth: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
    slow: AtomicU64,
    slow_logged: Mutex<Option<Instant>>,
    pending: Mutex<u64>,
    drained: Condvar,
}

impl FlightRecorder {
    /// Create a recorder holding up to `capacity` traces (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            depth: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slow: AtomicU64::new(0),
            slow_logged: Mutex::new(None),
            pending: Mutex::new(0),
            drained: Condvar::new(),
        }
    }

    /// Ring capacity in traces.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Commit a completed trace, evicting the oldest when full.
    pub fn record(&self, trace: RequestTrace) {
        if trace.slow {
            self.slow.fetch_add(1, Ordering::Relaxed);
        }
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(trace);
        self.depth.store(ring.len() as u64, Ordering::Relaxed);
        drop(ring);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Apply the commit policy: record when head-sampled or over the slow
    /// threshold, emit the rate-limited slow log for the latter. Returns
    /// whether the trace was recorded.
    pub fn offer(
        &self,
        active: ActiveTrace,
        total: Duration,
        slow_threshold: Option<Duration>,
    ) -> bool {
        let slow = slow_threshold.is_some_and(|t| total >= t);
        if !(active.sampled() || slow) {
            return false;
        }
        let trace = active.finish(total, slow);
        if slow {
            self.log_slow(&trace);
        }
        self.record(trace);
        true
    }

    /// Copy out the ring contents, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<RequestTrace> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.iter().cloned().collect()
    }

    /// Lock-free gauge snapshot.
    #[must_use]
    pub fn stats(&self) -> RecorderStats {
        RecorderStats {
            capacity: self.capacity as u64,
            depth: self.depth.load(Ordering::Relaxed),
            recorded: self.recorded.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            slow: self.slow.load(Ordering::Relaxed),
        }
    }

    /// Render gauges plus recent traces (newest first) as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        Writer::document(|w| {
            w.object(|w| {
                self.stats().write_fields(w);
                w.key("traces").array(|w| {
                    for trace in self.snapshot().iter().rev() {
                        trace.write_json(w);
                    }
                });
            });
        })
    }

    /// Take a commit ticket: the recorder counts the trace as
    /// *pending* until the returned guard drops.
    ///
    /// A trace commits strictly *after* the completion wakeup that
    /// releases the blocked caller, so "the call returned" does not
    /// imply "the trace is in the ring". Holding a ticket for the
    /// lifetime of each armed trace (dropped after the commit decision)
    /// gives [`flush`](FlightRecorder::flush) a deterministic barrier —
    /// no poll-briefly-before-asserting in tests.
    #[must_use]
    pub fn begin_commit(self: &Arc<FlightRecorder>) -> PendingCommit {
        let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        *pending += 1;
        drop(pending);
        PendingCommit {
            recorder: Arc::clone(self),
        }
    }

    /// Block until every outstanding commit ticket has dropped, i.e.
    /// every armed trace whose caller has already been released has
    /// reached its commit decision. Returns immediately when nothing
    /// is pending.
    pub fn flush(&self) {
        let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        while *pending > 0 {
            pending = self
                .drained
                .wait(pending)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Emit the slow-request log line, rate-limited to one per
    /// [`SLOW_LOG_INTERVAL`].
    fn log_slow(&self, trace: &RequestTrace) {
        let mut last = self.slow_logged.lock().unwrap_or_else(|e| e.into_inner());
        let now = Instant::now();
        if last.is_some_and(|at| now.duration_since(at) < SLOW_LOG_INTERVAL) {
            return;
        }
        *last = Some(now);
        drop(last);
        eprintln!(
            "widx slow request: id={} kind={} total_ms={:.3} shards={:?} nodes={} max_chain={}",
            trace.id,
            trace.kind,
            trace.total_ns as f64 / 1e6,
            trace.shards,
            trace.walk.nodes,
            trace.walk.max_chain
        );
    }
}

/// RAII commit ticket from [`FlightRecorder::begin_commit`]; dropping
/// it (after the trace's commit decision) releases any
/// [`FlightRecorder::flush`] waiting on the recorder.
#[derive(Debug)]
pub struct PendingCommit {
    recorder: Arc<FlightRecorder>,
}

impl Drop for PendingCommit {
    fn drop(&mut self) {
        let mut pending = self
            .recorder
            .pending
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *pending = pending.saturating_sub(1);
        if *pending == 0 {
            self.recorder.drained.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_trace(id: u64, slow: bool) -> RequestTrace {
        let mut active = ActiveTrace::new(Instant::now(), id, "lookup", true);
        active.add_shard(1);
        active.add_shard(1);
        active.add_walk(&WalkCounters {
            nodes: 3,
            max_chain: 2,
            rounds: 4,
            occupancy: 9,
            prefetches: 5,
        });
        let start = active.base();
        active.span_for(Stage::Walk, start, Duration::from_micros(10));
        active.finish(Duration::from_micros(25), slow)
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let rec = FlightRecorder::new(2);
        for id in 0..5 {
            rec.record(mk_trace(id, false));
        }
        let stats = rec.stats();
        assert_eq!(stats.capacity, 2);
        assert_eq!(stats.depth, 2);
        assert_eq!(stats.recorded, 5);
        assert_eq!(stats.dropped, 3);
        assert_eq!(stats.slow, 0);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].id, 3);
        assert_eq!(snap[1].id, 4);
    }

    #[test]
    fn offer_respects_sampling_and_threshold() {
        let rec = FlightRecorder::new(8);
        let base = Instant::now();
        // Not sampled, no threshold: dropped.
        let active = ActiveTrace::new(base, 1, "lookup", false);
        assert!(!rec.offer(active, Duration::from_micros(10), None));
        // Not sampled, under threshold: dropped.
        let active = ActiveTrace::new(base, 2, "lookup", false);
        assert!(!rec.offer(
            active,
            Duration::from_micros(10),
            Some(Duration::from_millis(1))
        ));
        // Not sampled, over threshold: recorded as slow.
        let active = ActiveTrace::new(base, 3, "lookup", false);
        assert!(rec.offer(
            active,
            Duration::from_millis(2),
            Some(Duration::from_millis(1))
        ));
        // Sampled, fast: recorded, not slow.
        let active = ActiveTrace::new(base, 4, "lookup", true);
        assert!(rec.offer(
            active,
            Duration::from_micros(10),
            Some(Duration::from_millis(1))
        ));
        let stats = rec.stats();
        assert_eq!(stats.recorded, 2);
        assert_eq!(stats.slow, 1);
        let snap = rec.snapshot();
        assert!(snap[0].slow);
        assert!(!snap[1].slow);
    }

    #[test]
    fn walk_counters_merge() {
        let mut a = WalkCounters {
            nodes: 1,
            max_chain: 4,
            rounds: 2,
            occupancy: 3,
            prefetches: 1,
        };
        let b = WalkCounters {
            nodes: 2,
            max_chain: 3,
            rounds: 1,
            occupancy: 5,
            prefetches: 2,
        };
        a.merge(&b);
        assert_eq!(a.nodes, 3);
        assert_eq!(a.max_chain, 4);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.occupancy, 8);
        assert_eq!(a.prefetches, 3);
        assert!(!a.is_zero());
        assert!(WalkCounters::default().is_zero());
    }

    #[test]
    fn spans_use_base_relative_offsets() {
        let base = Instant::now();
        let mut active = ActiveTrace::new(base, 7, "range_scan", true);
        let start = base + Duration::from_micros(5);
        let end = start + Duration::from_micros(10);
        active.span_between(Stage::QueueWait, start, end);
        // An instant before base clamps to offset 0.
        active.span_between(Stage::NetRead, base - Duration::from_micros(1), base);
        let trace = active.finish(Duration::from_micros(20), false);
        assert_eq!(trace.spans[0].start_ns, 5_000);
        assert_eq!(trace.spans[0].dur_ns, 10_000);
        assert_eq!(trace.spans[1].start_ns, 0);
        for span in &trace.spans {
            assert!(span.start_ns + span.dur_ns <= trace.total_ns + 1_000);
        }
    }

    #[test]
    fn flush_waits_for_outstanding_commit_tickets() {
        let rec = Arc::new(FlightRecorder::new(4));
        // No tickets: flush returns immediately.
        rec.flush();

        let ticket = rec.begin_commit();
        let other = Arc::clone(&rec);
        let committer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            other.record(mk_trace(1, false));
            drop(ticket);
        });
        rec.flush();
        // The barrier released only after the commit landed.
        assert_eq!(rec.stats().recorded, 1);
        committer.join().unwrap();

        // Tickets dropped without a record (unsampled trace) release too.
        let ticket = rec.begin_commit();
        drop(ticket);
        rec.flush();
    }

    #[test]
    fn json_shape_is_parseable() {
        let rec = FlightRecorder::new(4);
        rec.record(mk_trace(42, true));
        let json_doc = rec.to_json();
        assert_eq!(crate::json::find_u64(&json_doc, "capacity"), Some(4));
        assert_eq!(crate::json::find_u64(&json_doc, "depth"), Some(1));
        assert_eq!(crate::json::find_u64(&json_doc, "recorded"), Some(1));
        assert_eq!(crate::json::find_u64(&json_doc, "id"), Some(42));
        assert_eq!(crate::json::find_u64(&json_doc, "nodes"), Some(3));
        assert!(json_doc.contains("\"kind\":\"lookup\""));
        assert!(json_doc.contains("\"slow\":true"));
        assert!(json_doc.contains("\"stage\":\"walk\""));
    }
}
