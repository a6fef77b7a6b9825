//! Hardware profiling scoped to the stage seam: per-worker counter
//! groups, windowed attribution, and derived memory-boundedness metrics.
//!
//! The paper's argument opens with a profile — index walks spend most
//! of their cycles stalled on DRAM — and this module is how the live
//! serving path reproduces that evidence. Each profiled worker thread
//! opens one `perf-event` [`CounterGroup`] (cycles, instructions, LLC
//! misses, dTLB misses) and brackets the same regions the aggregate
//! [`Stage`] seam times: a [`ThreadProfiler::mark`] before the region,
//! a [`ThreadProfiler::record`] after it, and the delta lands in the
//! worker's shared [`ProfCell`].
//!
//! Two properties make the coarse windows honest:
//!
//! * the group is scoped to its thread, so a worker blocked in
//!   `queue_wait` accrues almost no cycles — a handful of read
//!   syscalls per *batch* (not per key) is enough;
//! * windows are differenced ([`perf_event::CounterSnapshot::since`]),
//!   never reset, so overlapping observers can't clobber each other.
//!
//! On hosts without usable hardware counters (non-Linux, PMU-less VMs,
//! `perf_event_paranoid`/seccomp denials) the group degrades to the
//! `soft` backend: hardware fields stay zero, derived metrics read
//! `None`, and the software walker [`WalkCounters`] — accumulated here
//! too — carry the MLP evidence instead. [`ProfSnapshot`] reports which
//! of the two worlds it measured (`backend` / `hw` / `fallback`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use perf_event::{CounterGroup, CounterSnapshot};

use crate::json::Writer;
use crate::stage::Stage;
use crate::trace::WalkCounters;

/// Nominal DRAM-miss latency in core cycles used by the first-order
/// derived metrics ([`ProfStageSnapshot::stall_fraction`] and
/// [`ProfStageSnapshot::effective_mlp`]). A constant is deliberately
/// crude — the point is comparing engines on the same host, where it
/// cancels — and 200 sits in the DRAM-round-trip range of the paper's
/// era and of today's servers alike.
pub const MISS_LATENCY_CYCLES: u64 = 200;

#[derive(Debug, Default)]
struct StageBin {
    windows: AtomicU64,
    cycles: AtomicU64,
    instructions: AtomicU64,
    llc_misses: AtomicU64,
    dtlb_misses: AtomicU64,
    time_ns: AtomicU64,
}

#[derive(Clone, Debug)]
struct ProfMeta {
    backend: &'static str,
    hw: bool,
    fallback: Option<String>,
}

/// One worker's shared profiling accumulators: a counter bin per
/// [`Stage`] plus the software walker counters the hardware numbers
/// are cross-checked against. The worker thread adds into it through
/// its [`ThreadProfiler`]; any observer snapshots it live.
#[derive(Debug, Default)]
pub struct ProfCell {
    per: [StageBin; Stage::COUNT],
    walk: WalkBin,
    meta: OnceLock<ProfMeta>,
}

#[derive(Debug, Default)]
struct WalkBin {
    nodes: AtomicU64,
    max_chain: AtomicU64,
    rounds: AtomicU64,
    occupancy: AtomicU64,
    prefetches: AtomicU64,
}

impl ProfCell {
    /// Fresh, all-zero cell.
    #[must_use]
    pub fn new() -> ProfCell {
        ProfCell::default()
    }

    fn note_group(&self, group: &CounterGroup) {
        let _ = self.meta.set(ProfMeta {
            backend: group.backend(),
            hw: group.has_hw_counters(),
            fallback: group.fallback_reason().map(str::to_owned),
        });
    }

    fn add(&self, stage: Stage, delta: &CounterSnapshot) {
        let bin = &self.per[stage.index()];
        bin.windows.fetch_add(1, Ordering::Relaxed);
        bin.cycles.fetch_add(delta.cycles, Ordering::Relaxed);
        bin.instructions
            .fetch_add(delta.instructions, Ordering::Relaxed);
        bin.llc_misses
            .fetch_add(delta.llc_misses, Ordering::Relaxed);
        bin.dtlb_misses
            .fetch_add(delta.dtlb_misses, Ordering::Relaxed);
        bin.time_ns
            .fetch_add(delta.time_enabled_ns, Ordering::Relaxed);
    }

    /// Accumulate one batch's software walker counters alongside the
    /// hardware windows (the cross-check numerators for soft MLP).
    pub fn add_walk(&self, counters: &WalkCounters) {
        self.walk.nodes.fetch_add(counters.nodes, Ordering::Relaxed);
        self.walk
            .max_chain
            .fetch_max(counters.max_chain, Ordering::Relaxed);
        self.walk
            .rounds
            .fetch_add(counters.rounds, Ordering::Relaxed);
        self.walk
            .occupancy
            .fetch_add(counters.occupancy, Ordering::Relaxed);
        self.walk
            .prefetches
            .fetch_add(counters.prefetches, Ordering::Relaxed);
    }

    /// Point-in-time copy of this cell as a one-worker snapshot.
    #[must_use]
    pub fn snapshot(&self) -> ProfSnapshot {
        let meta = self.meta.get();
        ProfSnapshot {
            backend: meta.map_or("none", |m| m.backend),
            hw: meta.is_some_and(|m| m.hw),
            fallback: meta.and_then(|m| m.fallback.clone()),
            workers: 1,
            stages: std::array::from_fn(|i| {
                let bin = &self.per[i];
                ProfStageSnapshot {
                    windows: bin.windows.load(Ordering::Relaxed),
                    cycles: bin.cycles.load(Ordering::Relaxed),
                    instructions: bin.instructions.load(Ordering::Relaxed),
                    llc_misses: bin.llc_misses.load(Ordering::Relaxed),
                    dtlb_misses: bin.dtlb_misses.load(Ordering::Relaxed),
                    time_ns: bin.time_ns.load(Ordering::Relaxed),
                }
            }),
            walk: WalkCounters {
                nodes: self.walk.nodes.load(Ordering::Relaxed),
                max_chain: self.walk.max_chain.load(Ordering::Relaxed),
                rounds: self.walk.rounds.load(Ordering::Relaxed),
                occupancy: self.walk.occupancy.load(Ordering::Relaxed),
                prefetches: self.walk.prefetches.load(Ordering::Relaxed),
            },
        }
    }
}

/// A worker thread's handle on its counter group. Construct with
/// [`attach`](ThreadProfiler::attach) on the thread being measured
/// (the group binds to the calling thread), or
/// [`disabled`](ThreadProfiler::disabled) for a free no-op when
/// profiling is off — every method is then a branch on a `None`.
#[derive(Debug)]
pub struct ThreadProfiler {
    inner: Option<ProfilerInner>,
}

#[derive(Debug)]
struct ProfilerInner {
    group: CounterGroup,
    cell: Arc<ProfCell>,
}

/// An opaque window-start reading from [`ThreadProfiler::mark`].
#[derive(Debug)]
pub struct ProfMark {
    start: Option<CounterSnapshot>,
}

impl ThreadProfiler {
    /// The no-op profiler used when profiling is off.
    #[must_use]
    pub fn disabled() -> ThreadProfiler {
        ThreadProfiler { inner: None }
    }

    /// Open and enable a counter group on the *calling* thread,
    /// publishing into `cell`. Never fails: backend degradation is the
    /// group's business, and an enable error just yields a disabled
    /// profiler.
    #[must_use]
    pub fn attach(cell: Arc<ProfCell>) -> ThreadProfiler {
        let mut group = CounterGroup::new();
        cell.note_group(&group);
        if group.enable().is_err() {
            return ThreadProfiler::disabled();
        }
        ThreadProfiler {
            inner: Some(ProfilerInner { group, cell }),
        }
    }

    /// Whether this profiler is actually counting.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Begin a window: read the group now, remember the reading.
    pub fn mark(&mut self) -> ProfMark {
        ProfMark {
            start: self
                .inner
                .as_mut()
                .and_then(|inner| inner.group.read().ok()),
        }
    }

    /// End a window opened by [`mark`](ThreadProfiler::mark),
    /// attributing the delta to `stage`.
    pub fn record(&mut self, stage: Stage, mark: ProfMark) {
        let Some(inner) = &mut self.inner else {
            return;
        };
        let Some(start) = mark.start else {
            return;
        };
        let Ok(now) = inner.group.read() else {
            return;
        };
        inner.cell.add(stage, &now.since(&start));
    }

    /// Forward one batch's walker counters to the cell (no-op when
    /// disabled).
    pub fn add_walk(&self, counters: &WalkCounters) {
        if let Some(inner) = &self.inner {
            inner.cell.add_walk(counters);
        }
    }
}

/// One stage's accumulated counter windows, with the derived metrics
/// computed on demand. All derived metrics return `None` when their
/// denominator never ticked — which is exactly the `soft` backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfStageSnapshot {
    /// Windows recorded into this stage.
    pub windows: u64,
    /// Core cycles attributed to this stage.
    pub cycles: u64,
    /// Instructions retired in this stage.
    pub instructions: u64,
    /// Last-level cache misses in this stage.
    pub llc_misses: u64,
    /// dTLB read misses in this stage.
    pub dtlb_misses: u64,
    /// On-CPU nanoseconds inside the windows (wall time on `soft`).
    pub time_ns: u64,
}

impl ProfStageSnapshot {
    /// Write the counters and derived ratios as members of the
    /// currently open JSON object. A ratio whose denominator never
    /// ticked (every ratio on the `soft` backend) is `null`.
    pub fn write_fields(&self, w: &mut Writer) {
        w.key("windows").u64(self.windows);
        w.key("cycles").u64(self.cycles);
        w.key("instructions").u64(self.instructions);
        w.key("llc_misses").u64(self.llc_misses);
        w.key("dtlb_misses").u64(self.dtlb_misses);
        w.key("time_ns").u64(self.time_ns);
        w.key("ipc").f64(self.ipc(), 4);
        w.key("llc_mpki").f64(self.llc_mpki(), 4);
        w.key("dtlb_mpki").f64(self.dtlb_mpki(), 4);
        w.key("stall_fraction").f64(self.stall_fraction(), 4);
        w.key("effective_mlp").f64(self.effective_mlp(), 4);
    }

    /// Sum `other` into this snapshot.
    pub fn merge(&mut self, other: &ProfStageSnapshot) {
        self.windows = self.windows.saturating_add(other.windows);
        self.cycles = self.cycles.saturating_add(other.cycles);
        self.instructions = self.instructions.saturating_add(other.instructions);
        self.llc_misses = self.llc_misses.saturating_add(other.llc_misses);
        self.dtlb_misses = self.dtlb_misses.saturating_add(other.dtlb_misses);
        self.time_ns = self.time_ns.saturating_add(other.time_ns);
    }

    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> Option<f64> {
        (self.cycles > 0).then(|| self.instructions as f64 / self.cycles as f64)
    }

    /// LLC misses per thousand instructions.
    #[must_use]
    pub fn llc_mpki(&self) -> Option<f64> {
        (self.instructions > 0).then(|| 1000.0 * self.llc_misses as f64 / self.instructions as f64)
    }

    /// dTLB misses per thousand instructions.
    #[must_use]
    pub fn dtlb_mpki(&self) -> Option<f64> {
        (self.instructions > 0).then(|| 1000.0 * self.dtlb_misses as f64 / self.instructions as f64)
    }

    /// First-order fraction of cycles spent under an outstanding LLC
    /// miss: `misses × MISS_LATENCY_CYCLES ÷ cycles`, clamped to 1 —
    /// overlapped misses push the unclamped ratio past 1, which is
    /// what [`effective_mlp`](ProfStageSnapshot::effective_mlp) reads.
    #[must_use]
    pub fn stall_fraction(&self) -> Option<f64> {
        self.effective_mlp().map(|mlp| mlp.min(1.0))
    }

    /// Effective memory-level parallelism: miss-latency-weighted cycles
    /// over actual cycles (`misses × MISS_LATENCY_CYCLES ÷ cycles`). A
    /// serial pointer chase sits near the stall fraction bound (≤ 1);
    /// values above 1 require overlapping misses — the walkers' whole
    /// purpose. Cross-check against the software
    /// [`soft_mlp`](ProfSnapshot::soft_mlp).
    #[must_use]
    pub fn effective_mlp(&self) -> Option<f64> {
        (self.cycles > 0).then(|| {
            (self.llc_misses.saturating_mul(MISS_LATENCY_CYCLES)) as f64 / self.cycles as f64
        })
    }
}

/// Aggregated profiling evidence across workers: which backend
/// measured it, per-stage counter windows, and the software walker
/// totals the hardware numbers are cross-checked against.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfSnapshot {
    /// Counter backend in use (`"linux"`, `"soft"`, or `"none"` when
    /// no worker ever attached).
    pub backend: &'static str,
    /// Whether the backend carries real hardware counts.
    pub hw: bool,
    /// Why the default backend degraded to `soft`, when it did.
    pub fallback: Option<String>,
    /// Worker cells merged into this snapshot.
    pub workers: u64,
    /// Per-[`Stage`] accumulations; read with [`ProfSnapshot::get`].
    stages: [ProfStageSnapshot; Stage::COUNT],
    /// Software walker totals across all profiled batches.
    pub walk: WalkCounters,
}

impl Default for ProfSnapshot {
    fn default() -> ProfSnapshot {
        ProfSnapshot {
            backend: "none",
            hw: false,
            fallback: None,
            workers: 0,
            stages: [ProfStageSnapshot::default(); Stage::COUNT],
            walk: WalkCounters::default(),
        }
    }
}

impl ProfSnapshot {
    /// The accumulation for one stage.
    #[must_use]
    pub fn get(&self, stage: Stage) -> &ProfStageSnapshot {
        &self.stages[stage.index()]
    }

    /// Mutable access to one stage's accumulation (fixtures).
    pub fn get_mut(&mut self, stage: Stage) -> &mut ProfStageSnapshot {
        &mut self.stages[stage.index()]
    }

    /// Merge another worker's snapshot into this one.
    pub fn merge(&mut self, other: &ProfSnapshot) {
        if self.backend == "none" {
            self.backend = other.backend;
            self.hw = other.hw;
        }
        if self.fallback.is_none() {
            self.fallback.clone_from(&other.fallback);
        }
        self.workers += other.workers;
        for (mine, theirs) in self.stages.iter_mut().zip(other.stages.iter()) {
            mine.merge(theirs);
        }
        self.walk.merge(&other.walk);
    }

    /// Sum across all stages (the whole-worker view).
    #[must_use]
    pub fn total(&self) -> ProfStageSnapshot {
        let mut total = ProfStageSnapshot::default();
        for stage in &self.stages {
            total.merge(stage);
        }
        total
    }

    /// Software mean MLP from the walker counters: occupancy ÷ rounds
    /// (live lookups per AMAC round). `None` until a walker ran.
    #[must_use]
    pub fn soft_mlp(&self) -> Option<f64> {
        (self.walk.rounds > 0).then(|| self.walk.occupancy as f64 / self.walk.rounds as f64)
    }

    /// Write as one JSON object (the `prof` block of the stats payload
    /// and of the `Profile` opcode body).
    pub fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            w.key("backend").str(self.backend);
            w.key("hw").bool(self.hw);
            match &self.fallback {
                Some(reason) => w.key("fallback").str(reason),
                None => w.key("fallback").null(),
            };
            w.key("workers").u64(self.workers);
            w.key("miss_latency_cycles").u64(MISS_LATENCY_CYCLES);
            w.key("stages").object(|w| {
                for stage in Stage::ALL {
                    w.key(stage.name())
                        .object(|w| self.get(stage).write_fields(w));
                }
            });
            w.key("total").object(|w| self.total().write_fields(w));
            w.key("walk").object(|w| {
                self.walk.write_fields(w);
                w.key("soft_mlp").f64(self.soft_mlp(), 4);
            });
        });
    }

    /// [`write_json`](ProfSnapshot::write_json) as a standalone document.
    #[must_use]
    pub fn to_json(&self) -> String {
        Writer::document(|w| self.write_json(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_a_no_op() {
        let cell = Arc::new(ProfCell::new());
        let mut prof = ThreadProfiler::disabled();
        assert!(!prof.enabled());
        let mark = prof.mark();
        std::thread::sleep(std::time::Duration::from_millis(1));
        prof.record(Stage::Walk, mark);
        prof.add_walk(&WalkCounters {
            nodes: 5,
            ..WalkCounters::default()
        });
        let snap = cell.snapshot();
        assert_eq!(snap.backend, "none");
        assert_eq!(snap.total(), ProfStageSnapshot::default());
        assert!(snap.walk.is_zero());
    }

    #[test]
    fn attached_profiler_attributes_windows_to_stages() {
        let cell = Arc::new(ProfCell::new());
        let mut prof = ThreadProfiler::attach(Arc::clone(&cell));
        assert!(prof.enabled());

        let mark = prof.mark();
        let mut x = 1u64;
        for i in 0..100_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        std::thread::sleep(std::time::Duration::from_millis(1));
        prof.record(Stage::Walk, mark);
        prof.add_walk(&WalkCounters {
            nodes: 7,
            max_chain: 2,
            rounds: 3,
            occupancy: 12,
            prefetches: 7,
        });

        let snap = cell.snapshot();
        assert!(["linux", "soft"].contains(&snap.backend));
        let walk_bin = snap.get(Stage::Walk);
        assert_eq!(walk_bin.windows, 1);
        assert!(walk_bin.time_ns > 0, "window time must advance");
        assert_eq!(snap.get(Stage::QueueWait).windows, 0);
        if snap.hw {
            assert!(walk_bin.cycles > 0);
            assert!(walk_bin.ipc().is_some());
        } else {
            assert_eq!(walk_bin.cycles, 0);
            assert!(walk_bin.ipc().is_none(), "soft backend derives nothing");
        }
        assert_eq!(snap.walk.nodes, 7);
        assert_eq!(snap.soft_mlp(), Some(4.0));
    }

    #[test]
    fn derived_metrics_match_hand_arithmetic() {
        let s = ProfStageSnapshot {
            windows: 2,
            cycles: 1_000_000,
            instructions: 2_000_000,
            llc_misses: 10_000,
            dtlb_misses: 500,
            time_ns: 400_000,
        };
        assert_eq!(s.ipc(), Some(2.0));
        assert_eq!(s.llc_mpki(), Some(5.0));
        assert_eq!(s.dtlb_mpki(), Some(0.25));
        // 10_000 misses × 200 cycles = 2M weighted ÷ 1M actual = 2.0.
        assert_eq!(s.effective_mlp(), Some(2.0));
        assert_eq!(s.stall_fraction(), Some(1.0), "clamped at fully stalled");
        assert_eq!(ProfStageSnapshot::default().ipc(), None);
        assert_eq!(ProfStageSnapshot::default().stall_fraction(), None);
    }

    #[test]
    fn snapshots_merge_across_workers() {
        let mut a = ProfSnapshot::default();
        assert_eq!(a.backend, "none");
        let cell = ProfCell::new();
        cell.add(
            Stage::Walk,
            &CounterSnapshot {
                cycles: 100,
                instructions: 200,
                llc_misses: 3,
                dtlb_misses: 1,
                time_enabled_ns: 50,
                time_running_ns: 50,
            },
        );
        cell.add_walk(&WalkCounters {
            nodes: 4,
            max_chain: 3,
            rounds: 2,
            occupancy: 6,
            prefetches: 4,
        });
        let single = cell.snapshot();
        a.merge(&single);
        a.merge(&single);
        assert_eq!(a.workers, 2);
        assert_eq!(a.get(Stage::Walk).cycles, 200);
        assert_eq!(a.get(Stage::Walk).windows, 2);
        assert_eq!(a.walk.nodes, 8);
        assert_eq!(a.walk.max_chain, 3, "max, not sum");
        assert_eq!(a.total().cycles, 200);
        assert_eq!(a.soft_mlp(), Some(3.0));
    }

    #[test]
    fn json_shape_is_parseable() {
        let cell = ProfCell::new();
        cell.add(
            Stage::Walk,
            &CounterSnapshot {
                cycles: 1000,
                instructions: 1500,
                llc_misses: 2,
                dtlb_misses: 0,
                time_enabled_ns: 800,
                time_running_ns: 800,
            },
        );
        let json_doc = cell.snapshot().to_json();
        assert!(json_doc.contains("\"backend\":\"none\""));
        assert!(json_doc.contains("\"queue_wait\":"));
        assert!(json_doc.contains("\"walk\":"));
        assert_eq!(
            crate::json::find_u64(&json_doc, "miss_latency_cycles"),
            Some(MISS_LATENCY_CYCLES)
        );
        assert!(json_doc.contains("\"ipc\":1.5000"));
        // Zero-denominator stages render null, not a bogus number.
        assert!(json_doc.contains("\"ipc\":null"));
        assert!(!json_doc.contains("NaN"));
    }
}
