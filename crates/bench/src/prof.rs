//! The per-engine profiled sweep behind `ablation_btree --profile` —
//! the paper's Figure 2 measured live, with scalar / group-prefetch /
//! AMAC walkers each run under a [`ThreadProfiler`] over the same
//! probe stream so their cycle breakdowns (IPC, LLC MPKI, stall
//! fraction, effective MLP) are directly comparable.

use std::sync::Arc;

use perf_event::CounterGroup;
use widx_db::index::{BTreeIndex, HashIndex};
use widx_obs::{ProfCell, ProfSnapshot, Stage, ThreadProfiler, WalkCounters};
use widx_soft::{
    probe_amac, probe_group_prefetch, probe_scalar, scan_btree_amac, scan_btree_group,
    scan_btree_scalar, Match, ScanRange,
};

use crate::table::{f2, Table};

/// Probes the counter shim once: `(backend, hw, fallback_reason)` as a
/// fresh [`CounterGroup`] on this thread reports them.
#[must_use]
pub fn prof_backend() -> (&'static str, bool, Option<String>) {
    let group = CounterGroup::new();
    (
        group.backend(),
        group.has_hw_counters(),
        group.fallback_reason().map(str::to_owned),
    )
}

/// One engine's profiled run: its walk window snapshot plus wall-clock
/// throughput over the shared probe stream.
pub struct EngineProfile {
    /// Engine name: `"scalar"`, `"group_prefetch"`, or `"amac"`.
    pub engine: &'static str,
    /// Counter snapshot; the walk window is the entire probe loop.
    pub snap: ProfSnapshot,
    /// Probe throughput over the profiled loop.
    pub keys_per_sec: f64,
}

impl EngineProfile {
    /// The walk-stage breakdown this engine recorded.
    #[must_use]
    pub fn walk(&self) -> &widx_obs::ProfStageSnapshot {
        self.snap.get(Stage::Walk)
    }
}

/// Runs the three walker engines over the same probe stream, each
/// under its own freshly attached [`ThreadProfiler`], and returns the
/// per-engine cycle breakdowns. `inflight` sizes the AMAC ring;
/// `group` the group-prefetch stage width.
#[must_use]
pub fn profile_engines(
    index: &HashIndex,
    probes: &[u64],
    inflight: usize,
    group: usize,
) -> Vec<EngineProfile> {
    type Runner<'a> = Box<dyn Fn(&mut Vec<Match>) -> WalkCounters + 'a>;
    let engines: [(&'static str, Runner<'_>); 3] = [
        (
            "scalar",
            Box::new(|out: &mut Vec<Match>| probe_scalar(index, probes, out)),
        ),
        (
            "group_prefetch",
            Box::new(|out: &mut Vec<Match>| probe_group_prefetch(index, probes, group, out)),
        ),
        (
            "amac",
            Box::new(|out: &mut Vec<Match>| probe_amac(index, probes, inflight, out)),
        ),
    ];
    engines
        .into_iter()
        .map(|(engine, run)| {
            let cell = Arc::new(ProfCell::new());
            let mut prof = ThreadProfiler::attach(Arc::clone(&cell));
            let mut out = Vec::with_capacity(probes.len());
            // One warm-up pass outside the window so all three engines
            // see a hot cache hierarchy and page tables.
            let _ = run(&mut out);
            out.clear();
            let started = std::time::Instant::now();
            let mark = prof.mark();
            let counters = run(&mut out);
            prof.record(Stage::Walk, mark);
            let wall = started.elapsed();
            prof.add_walk(&counters);
            EngineProfile {
                engine,
                snap: cell.snapshot(),
                keys_per_sec: probes.len() as f64 / wall.as_secs_f64(),
            }
        })
        .collect()
}

/// The ordered-index analogue of [`profile_engines`]: the three
/// B+-tree scan engines over the same scan set, each under its own
/// counter group; `keys_per_sec` is entries emitted per second.
#[must_use]
pub fn profile_btree_engines(
    tree: &BTreeIndex,
    scans: &[ScanRange],
    inflight: usize,
    group: usize,
) -> Vec<EngineProfile> {
    type Runner<'a> = Box<dyn Fn(&mut usize) -> WalkCounters + 'a>;
    let engines: [(&'static str, Runner<'_>); 3] = [
        (
            "scalar",
            Box::new(|n: &mut usize| scan_btree_scalar(tree, scans, &mut |_, _, _| *n += 1)),
        ),
        (
            "group_prefetch",
            Box::new(|n: &mut usize| scan_btree_group(tree, scans, group, &mut |_, _, _| *n += 1)),
        ),
        (
            "amac",
            Box::new(|n: &mut usize| {
                scan_btree_amac(tree, scans, inflight, &mut |_, _, _| *n += 1)
            }),
        ),
    ];
    engines
        .into_iter()
        .map(|(engine, run)| {
            let cell = Arc::new(ProfCell::new());
            let mut prof = ThreadProfiler::attach(Arc::clone(&cell));
            let mut emitted = 0usize;
            let _ = run(&mut emitted); // warm-up pass
            emitted = 0;
            let started = std::time::Instant::now();
            let mark = prof.mark();
            let counters = run(&mut emitted);
            prof.record(Stage::Walk, mark);
            let wall = started.elapsed();
            prof.add_walk(&counters);
            EngineProfile {
                engine,
                snap: cell.snapshot(),
                keys_per_sec: emitted as f64 / wall.as_secs_f64(),
            }
        })
        .collect()
}

/// Renders the per-engine breakdown as the bench table (`-` for
/// metrics the software backend cannot derive).
#[must_use]
pub fn render_engine_table(profiles: &[EngineProfile]) -> String {
    let opt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), f2);
    let mut t = Table::new(&[
        "engine",
        "Mkeys/s",
        "IPC",
        "LLC MPKI",
        "stall frac",
        "eff. MLP",
        "soft MLP",
    ]);
    for p in profiles {
        let w = p.walk();
        t.row(&[
            p.engine.to_string(),
            f2(p.keys_per_sec / 1e6),
            opt(w.ipc()),
            opt(w.llc_mpki()),
            opt(w.stall_fraction()),
            opt(w.effective_mlp()),
            opt(p.snap.soft_mlp()),
        ]);
    }
    t.render()
}
