//! End-to-end integration: the full offload path — workload generation,
//! materialization, Widx execution, result read-back — checked against
//! software oracles across layouts, hash recipes, walker counts and the
//! three offload entry points (decoupled, coupled, B+-tree).

use widx_repro::accel::btree::offload_btree_probe;
use widx_repro::accel::config::WidxConfig;
use widx_repro::accel::offload::{offload_probe, offload_probe_coupled};
use widx_repro::accel::widx::WidxRunStats;
use widx_repro::db::hash::HashRecipe;
use widx_repro::db::index::{BTreeIndex, HashIndex, NodeLayout};
use widx_repro::sim::config::SystemConfig;
use widx_repro::sim::mem::{MemorySystem, RegionAllocator};
use widx_repro::workloads::btree_img::materialize_btree;
use widx_repro::workloads::kernel::{KernelConfig, KernelSize};
use widx_repro::workloads::memimg;
use widx_repro::workloads::profiles::QueryProfile;

/// A build side with unique keys, its probe stream, and the hash
/// image's recipe, bucket count and layout.
struct Workload {
    recipe: HashRecipe,
    buckets: u64,
    layout: NodeLayout,
    pairs: Vec<(u64, u64)>,
    probes: Vec<u64>,
}

fn kernel(size: KernelSize, probes: usize) -> Workload {
    let cfg = KernelConfig::new(size).with_probes(probes);
    let (pairs, probes) = cfg.build();
    Workload {
        recipe: cfg.recipe(),
        buckets: cfg.bucket_count(),
        layout: cfg.layout(),
        pairs,
        probes,
    }
}

/// The offload entry points. The B+-tree path indexes the same pairs
/// in a tree, so on unique keys it owes the same matches.
#[derive(Clone, Copy, Debug)]
enum Path {
    Decoupled,
    Coupled,
    BTree,
}

const PATHS: [Path; 3] = [Path::Decoupled, Path::Coupled, Path::BTree];

fn oracle(w: &Workload) -> Vec<(u64, u64)> {
    let index = HashIndex::build(
        w.recipe.clone(),
        w.buckets as usize,
        w.pairs.iter().copied(),
    );
    let mut out: Vec<(u64, u64)> = w
        .probes
        .iter()
        .flat_map(|p| index.lookup_all(*p).into_iter().map(move |v| (*p, v)))
        .collect();
    out.sort_unstable();
    out
}

fn offload_and_check(w: &Workload, path: Path, config: &WidxConfig) -> WidxRunStats {
    let mut mem = MemorySystem::new(SystemConfig::default());
    let mut alloc = RegionAllocator::new();
    let want = oracle(w);
    let r = if let Path::BTree = path {
        let tree = BTreeIndex::build(16, w.pairs.iter().copied());
        let image = materialize_btree(&mut mem, &mut alloc, &tree, &w.probes);
        offload_btree_probe(&mut mem, &image, config)
    } else {
        let image = memimg::materialize(
            &mut mem, &mut alloc, &w.recipe, w.buckets, &w.pairs, &w.probes, w.layout,
        );
        memimg::warm(&mut mem, &image);
        if let Path::Coupled = path {
            offload_probe_coupled(&mut mem, &image, config)
        } else {
            offload_probe(&mut mem, &image, config)
        }
    };
    let mut got = r.matches().to_vec();
    got.sort_unstable();
    assert_eq!(got, want, "{path:?}: Widx output must equal the oracle");
    r.stats
}

#[test]
fn kernel_small_all_walker_counts() {
    let w = kernel(KernelSize::Small, 600);
    for path in PATHS {
        for walkers in [1, 2, 4] {
            let stats = offload_and_check(&w, path, &WidxConfig::with_walkers(walkers));
            assert_eq!(stats.tuples, 600);
            assert_eq!(stats.matches, 600, "dense kernel keys always match");
        }
    }
}

#[test]
fn kernel_medium_scales_with_walkers() {
    let w = kernel(KernelSize::Medium, 800);
    for path in PATHS {
        let one = offload_and_check(&w, path, &WidxConfig::with_walkers(1));
        let four = offload_and_check(&w, path, &WidxConfig::with_walkers(4));
        assert!(
            four.total_cycles * 2 < one.total_cycles,
            "{path:?}: 4 walkers ({}) should be >2x faster than 1 ({})",
            four.total_cycles,
            one.total_cycles
        );
    }
}

#[test]
fn dss_profile_indirect_layout_round_trips() {
    let q = QueryProfile::tpcds().remove(0).with_probes(700);
    let (pairs, probes) = q.build();
    let w = Workload {
        recipe: q.recipe.recipe(),
        buckets: q.bucket_count(),
        layout: q.layout,
        pairs,
        probes,
    };
    for path in PATHS {
        let stats = offload_and_check(&w, path, &WidxConfig::paper_default());
        assert_eq!(stats.tuples, 700);
        // Some probes are misses by construction.
        assert!(stats.matches < 700);
    }
}

#[test]
fn coupled_and_decoupled_agree_on_results() {
    let w = Workload {
        recipe: HashRecipe::robust64(),
        buckets: 512,
        layout: NodeLayout::direct8(),
        pairs: (0..400u64).map(|k| (k, k + 1)).collect(),
        probes: (0..300u64).map(|i| i * 2).collect(),
    };
    for path in PATHS {
        offload_and_check(&w, path, &WidxConfig::with_walkers(2));
    }
}

#[test]
fn llc_side_placement_round_trips() {
    use widx_repro::accel::placement::Placement;
    let w = kernel(KernelSize::Small, 400);
    let config = WidxConfig::with_walkers(2).with_placement(Placement::LlcSide);
    for path in PATHS {
        let stats = offload_and_check(&w, path, &config);
        assert_eq!(stats.tuples, 400);
    }
}

#[test]
fn touch_ahead_round_trips() {
    let w = kernel(KernelSize::Small, 400);
    let config = WidxConfig::with_walkers(4).with_touch_ahead();
    let stats = offload_and_check(&w, Path::Decoupled, &config);
    assert_eq!(stats.matches, 400);
}
