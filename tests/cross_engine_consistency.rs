//! Cross-engine consistency: the software engine, the software walkers,
//! the baseline-core traces, and the Widx accelerator all describe the
//! same computation — their results and work metrics must agree.

use widx_repro::accel::config::WidxConfig;
use widx_repro::accel::offload::offload_probe;
use widx_repro::db::hash::HashRecipe;
use widx_repro::db::index::{BTreeIndex, HashIndex, NodeLayout};
use widx_repro::sim::config::SystemConfig;
use widx_repro::sim::core::{run_inorder, run_ooo};
use widx_repro::sim::mem::{MemorySystem, RegionAllocator};
use widx_repro::sim::trace::UopKind;
use widx_repro::soft::{
    probe_amac, probe_group_prefetch, probe_scalar, scan_btree_amac, scan_btree_group,
    scan_btree_scalar, ScanRange,
};
use widx_repro::workloads::{datagen, memimg, trace};

struct World {
    index: HashIndex,
    probes: Vec<u64>,
    mem: MemorySystem,
    image: widx_repro::workloads::memimg::IndexImage,
}

fn world(layout: NodeLayout) -> World {
    let entries = 2000usize;
    let pairs: Vec<(u64, u64)> = datagen::unique_shuffled_keys(31, entries)
        .into_iter()
        .zip(0..)
        .collect();
    let index = HashIndex::build(HashRecipe::robust64(), 1024, pairs.iter().copied());
    let probes = datagen::uniform_keys(32, 500, (entries * 2) as u64);
    let mut mem = MemorySystem::new(SystemConfig::default());
    let mut alloc = RegionAllocator::new();
    let image = memimg::materialize(
        &mut mem,
        &mut alloc,
        index.recipe(),
        index.bucket_count() as u64,
        &pairs,
        &probes,
        layout,
    );
    World {
        index,
        probes,
        mem,
        image,
    }
}

#[test]
fn all_engines_agree_on_matches() {
    let w = world(NodeLayout::direct8());

    // Software oracles.
    let mut scalar = Vec::new();
    probe_scalar(&w.index, &w.probes, &mut scalar);
    let mut amac = Vec::new();
    probe_amac(&w.index, &w.probes, 8, &mut amac);
    let mut gp = Vec::new();
    probe_group_prefetch(&w.index, &w.probes, 8, &mut gp);

    // Widx.
    let mut mem = w.mem.clone();
    let widx = offload_probe(&mut mem, &w.image, &WidxConfig::paper_default());

    let mut a = scalar.clone();
    let mut b = amac;
    let mut c = gp;
    let mut d = widx.matches().to_vec();
    a.sort_unstable();
    b.sort_unstable();
    c.sort_unstable();
    d.sort_unstable();
    assert_eq!(a, b, "scalar vs AMAC");
    assert_eq!(a, c, "scalar vs group prefetch");
    assert_eq!(a, d, "software vs Widx");
}

#[test]
fn trace_stores_equal_match_count() {
    // The baseline trace emits exactly one store per match, so the trace
    // and the accelerator agree on output volume.
    let w = world(NodeLayout::indirect8());
    let t = trace::probe_trace(&w.mem, &w.image, &w.probes);
    let stores = t
        .uops()
        .iter()
        .filter(|u| matches!(u.kind, UopKind::Store { .. }))
        .count();
    let mut scalar = Vec::new();
    probe_scalar(&w.index, &w.probes, &mut scalar);
    assert_eq!(stores, scalar.len());
}

#[test]
fn both_cores_replay_the_same_trace() {
    let w = world(NodeLayout::direct8());
    let t = trace::probe_trace(&w.mem, &w.image, &w.probes);
    let sys = SystemConfig::default();
    let ooo = run_ooo(&sys.ooo, &t, &mut w.mem.clone(), 0);
    let ino = run_inorder(&sys.inorder, &t, &mut w.mem.clone(), 0);
    assert_eq!(ooo.retired, ino.retired);
    assert_eq!(ooo.tuples, 500);
    assert!(ino.cycles >= ooo.cycles, "in-order never beats the OoO");
}

/// The ordered-index counterpart of `all_engines_agree_on_matches`:
/// the scalar, group-prefetch, and AMAC B+-tree range walkers emit the
/// same per-scan key sets, in the same key order, as the serial
/// `BTreeIndex::range_scan` oracle — duplicates, limits, and
/// out-of-domain ranges included.
#[test]
fn btree_range_walkers_agree_on_key_sets() {
    // Duplicate-heavy build side: ~2000 entries over ~700 distinct keys.
    let keys = datagen::uniform_keys(41, 2000, 1400);
    let tree = BTreeIndex::build(8, keys.iter().enumerate().map(|(r, k)| (*k, r as u64)));
    let scans: Vec<ScanRange> = (0..60u64)
        .map(|i| match i % 4 {
            0 => ScanRange::new(i * 23, i * 23 + 300),
            1 => ScanRange::new(i * 23, i * 23 + 300).with_limit(i as usize),
            2 => ScanRange::new(i, i),           // point-sized
            _ => ScanRange::new(1200 + i, 5000), // tail / out of domain
        })
        .collect();

    /// An emit sink shared by all three engine invocations.
    type Emit<'a> = &'a mut dyn FnMut(u32, u64, u64);
    let collect = |run: &dyn Fn(Emit)| -> Vec<Vec<(u64, u64)>> {
        let mut per_scan = vec![Vec::new(); scans.len()];
        run(&mut |tag, key, payload| per_scan[tag as usize].push((key, payload)));
        per_scan
    };
    let scalar = collect(&|emit| {
        scan_btree_scalar(&tree, &scans, &mut |a, b, c| emit(a, b, c));
    });
    let grouped = collect(&|emit| {
        scan_btree_group(&tree, &scans, 8, &mut |a, b, c| emit(a, b, c));
    });
    let amac = collect(&|emit| {
        scan_btree_amac(&tree, &scans, 8, &mut |a, b, c| emit(a, b, c));
    });

    let oracle: Vec<Vec<(u64, u64)>> = scans
        .iter()
        .map(|r| tree.range_scan(r.lo, r.hi, r.limit))
        .collect();
    assert_eq!(scalar, oracle, "scalar walker vs serial oracle");
    assert_eq!(grouped, oracle, "group-prefetch walker vs serial oracle");
    assert_eq!(amac, oracle, "AMAC walker vs serial oracle");
}

#[test]
fn deterministic_across_runs() {
    let w1 = world(NodeLayout::direct8());
    let w2 = world(NodeLayout::direct8());
    let mut m1 = w1.mem.clone();
    let mut m2 = w2.mem.clone();
    let r1 = offload_probe(&mut m1, &w1.image, &WidxConfig::with_walkers(2));
    let r2 = offload_probe(&mut m2, &w2.image, &WidxConfig::with_walkers(2));
    assert_eq!(
        r1.stats.total_cycles, r2.stats.total_cycles,
        "bit-stable simulation"
    );
    assert_eq!(r1.matches(), r2.matches());
}
