//! End-to-end integration: the full offload path — workload generation,
//! materialization, Widx execution, result read-back — checked against
//! software oracles across layouts, hash recipes, and walker counts.

use widx_repro::accel::config::WidxConfig;
use widx_repro::accel::offload::{offload_probe, offload_probe_coupled};
use widx_repro::db::hash::HashRecipe;
use widx_repro::db::index::{HashIndex, NodeLayout};
use widx_repro::sim::config::SystemConfig;
use widx_repro::sim::mem::{MemorySystem, RegionAllocator};
use widx_repro::workloads::kernel::{KernelConfig, KernelSize};
use widx_repro::workloads::memimg;
use widx_repro::workloads::profiles::QueryProfile;

fn oracle(index: &HashIndex, probes: &[u64]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = probes
        .iter()
        .flat_map(|p| index.lookup_all(*p).into_iter().map(move |v| (*p, v)))
        .collect();
    out.sort_unstable();
    out
}

fn offload_and_check(
    (index, pairs, probes): &(HashIndex, Vec<(u64, u64)>, Vec<u64>),
    layout: NodeLayout,
    config: &WidxConfig,
) -> widx_repro::accel::widx::WidxRunStats {
    let mut mem = MemorySystem::new(SystemConfig::default());
    let mut alloc = RegionAllocator::new();
    let image = memimg::materialize(
        &mut mem,
        &mut alloc,
        index.recipe(),
        index.bucket_count() as u64,
        pairs,
        probes,
        layout,
    );
    memimg::warm(&mut mem, &image);
    let r = offload_probe(&mut mem, index, &image, probes, config);
    let mut got = r.matches().to_vec();
    got.sort_unstable();
    assert_eq!(
        got,
        oracle(index, probes),
        "Widx output must equal the oracle"
    );
    r.stats
}

#[test]
fn kernel_small_all_walker_counts() {
    let built = KernelConfig::new(KernelSize::Small)
        .with_probes(600)
        .build();
    for walkers in [1, 2, 4] {
        let stats = offload_and_check(
            &built,
            NodeLayout::kernel4(),
            &WidxConfig::with_walkers(walkers),
        );
        assert_eq!(stats.tuples, 600);
        assert_eq!(stats.matches, 600, "dense kernel keys always match");
    }
}

#[test]
fn kernel_medium_scales_with_walkers() {
    let built = KernelConfig::new(KernelSize::Medium)
        .with_probes(800)
        .build();
    let one = offload_and_check(&built, NodeLayout::kernel4(), &WidxConfig::with_walkers(1));
    let four = offload_and_check(&built, NodeLayout::kernel4(), &WidxConfig::with_walkers(4));
    assert!(
        four.total_cycles * 2 < one.total_cycles,
        "4 walkers ({}) should be >2x faster than 1 ({})",
        four.total_cycles,
        one.total_cycles
    );
}

#[test]
fn dss_profile_indirect_layout_round_trips() {
    let q = QueryProfile::tpcds().remove(0).with_probes(700);
    let stats = offload_and_check(&q.build(), q.layout, &WidxConfig::paper_default());
    assert_eq!(stats.tuples, 700);
    // Some probes are misses by construction.
    assert!(stats.matches < 700);
}

#[test]
fn coupled_and_decoupled_agree_on_results() {
    let pairs: Vec<(u64, u64)> = (0..400u64).map(|k| (k, k + 1)).collect();
    let index = HashIndex::build(HashRecipe::robust64(), 512, pairs.iter().copied());
    let probes: Vec<u64> = (0..300u64).map(|i| i * 2).collect();
    let mut mem = MemorySystem::new(SystemConfig::default());
    let mut alloc = RegionAllocator::new();
    let image = memimg::materialize(
        &mut mem,
        &mut alloc,
        index.recipe(),
        index.bucket_count() as u64,
        &pairs,
        &probes,
        NodeLayout::direct8(),
    );
    let cfg = WidxConfig::with_walkers(2);
    let mut mem_a = mem.clone();
    let dec = offload_probe(&mut mem_a, &index, &image, &probes, &cfg);
    let mut mem_b = mem.clone();
    let cou = offload_probe_coupled(&mut mem_b, &index, &image, &probes, &cfg);
    let mut a = dec.matches().to_vec();
    let mut b = cou.matches().to_vec();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}

#[test]
fn llc_side_placement_round_trips() {
    use widx_repro::accel::placement::Placement;
    let built = KernelConfig::new(KernelSize::Small)
        .with_probes(400)
        .build();
    let stats = offload_and_check(
        &built,
        NodeLayout::kernel4(),
        &WidxConfig::with_walkers(2).with_placement(Placement::LlcSide),
    );
    assert_eq!(stats.tuples, 400);
}

#[test]
fn touch_ahead_round_trips() {
    let built = KernelConfig::new(KernelSize::Small)
        .with_probes(400)
        .build();
    let stats = offload_and_check(
        &built,
        NodeLayout::kernel4(),
        &WidxConfig::with_walkers(4).with_touch_ahead(),
    );
    assert_eq!(stats.matches, 400);
}
