//! Full offload of an index-probe operation (paper Section 4.3).
//!
//! The host core writes Widx's configuration registers, signals it to
//! start, and "enters an idle loop" — Widx owns the probe until the
//! producer halts, after which the results sit in the output region.

use widx_db::index::HashIndex;
use widx_sim::mem::MemorySystem;
use widx_sim::Cycle;
use widx_workloads::memimg::IndexImage;

use crate::config::{ConfigRegisters, WidxConfig};
use crate::programs::program_set;
use crate::widx::{Widx, WidxRunStats};

/// Result of a completed offload.
#[derive(Clone, Debug)]
pub struct OffloadResult {
    /// Timing and per-unit accounting.
    pub stats: WidxRunStats,
    /// `(probe key, payload)` pairs read back from the output region.
    matches: Vec<(u64, u64)>,
    /// The configuration registers used.
    pub registers: ConfigRegisters,
}

impl OffloadResult {
    /// The result pairs Widx wrote, in emission order.
    #[must_use]
    pub fn matches(&self) -> &[(u64, u64)] {
        &self.matches
    }
}

/// Offloads probing `image` with `probes` (already materialized into
/// `mem`) onto a Widx instance configured by `config`, starting at
/// cycle 0.
#[must_use]
pub fn offload_probe(
    mem: &mut MemorySystem,
    index: &HashIndex,
    image: &IndexImage,
    probes: &[u64],
    config: &WidxConfig,
) -> OffloadResult {
    offload_probe_at(mem, index, image, probes, config, 0)
}

/// [`offload_probe`] with an explicit start cycle.
///
/// # Panics
///
/// Panics if Widx writes more result slots than the image reserved
/// (the caller under-sized `expected_matches` at materialization).
#[must_use]
pub fn offload_probe_at(
    mem: &mut MemorySystem,
    index: &HashIndex,
    image: &IndexImage,
    probes: &[u64],
    config: &WidxConfig,
    start: Cycle,
) -> OffloadResult {
    let registers = ConfigRegisters {
        input_base: image.input_base,
        input_len: probes.len() as u64,
        hash_table_base: image.bucket_base,
        results_base: image.output_base,
        null_id: crate::POISON_KEY,
    };
    if config.placement == crate::placement::Placement::LlcSide {
        mem.install_dedicated_tlb(&crate::placement::Placement::dedicated_tlb_config());
    }
    let set = program_set(index.recipe(), image, config.walkers, config.touch_ahead);
    let mut widx = Widx::new(&set, config, start);
    let stats = widx.run(mem);

    assert!(
        stats.matches <= image.output_capacity,
        "output region overflow: {} matches, capacity {}",
        stats.matches,
        image.output_capacity
    );
    let matches = (0..stats.matches)
        .map(|i| {
            let slot = image.output_addr(i);
            (mem.read_u64(slot), mem.read_u64(slot.offset(8)))
        })
        .collect();
    OffloadResult {
        stats,
        matches,
        registers,
    }
}

/// Offloads with the *coupled* (Figure 3b) design: a streaming
/// dispatcher and walkers that hash their own keys — the ablation
/// quantifying what decoupled hashing buys (the paper: decoupling
/// "reduces the time per list traversal by 29% on average").
#[must_use]
pub fn offload_probe_coupled(
    mem: &mut MemorySystem,
    index: &HashIndex,
    image: &IndexImage,
    probes: &[u64],
    config: &WidxConfig,
) -> OffloadResult {
    let registers = ConfigRegisters {
        input_base: image.input_base,
        input_len: probes.len() as u64,
        hash_table_base: image.bucket_base,
        results_base: image.output_base,
        null_id: crate::POISON_KEY,
    };
    let set = crate::programs::coupled_program_set(index.recipe(), image, config.walkers);
    let mut widx = Widx::new(&set, config, 0);
    let stats = widx.run(mem);
    let matches = (0..stats.matches)
        .map(|i| {
            let slot = image.output_addr(i);
            (mem.read_u64(slot), mem.read_u64(slot.offset(8)))
        })
        .collect();
    OffloadResult {
        stats,
        matches,
        registers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use widx_db::hash::HashRecipe;
    use widx_db::index::NodeLayout;
    use widx_sim::config::SystemConfig;
    use widx_sim::mem::RegionAllocator;
    use widx_workloads::memimg;

    struct Fixture {
        mem: MemorySystem,
        index: HashIndex,
        image: IndexImage,
        probes: Vec<u64>,
    }

    fn fixture(layout: NodeLayout, recipe: HashRecipe, entries: u64, probes: Vec<u64>) -> Fixture {
        let mut mem = MemorySystem::new(SystemConfig::default());
        let mut alloc = RegionAllocator::new();
        // Payloads are the build-row ids, as indirect layouts require.
        let pairs: Vec<(u64, u64)> = (0..entries).map(|k| (k, k)).collect();
        let index = HashIndex::build(recipe, entries as usize, pairs.iter().copied());
        let image = memimg::materialize(
            &mut mem,
            &mut alloc,
            index.recipe(),
            index.bucket_count() as u64,
            &pairs,
            &probes,
            layout,
        );
        Fixture {
            mem,
            index,
            image,
            probes,
        }
    }

    /// Oracle: multiset of (key, payload) matches.
    fn oracle(index: &HashIndex, probes: &[u64]) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = probes
            .iter()
            .flat_map(|p| index.lookup_all(*p).into_iter().map(move |v| (*p, v)))
            .collect();
        out.sort_unstable();
        out
    }

    fn check_matches(result: &OffloadResult, index: &HashIndex, probes: &[u64]) {
        let mut got = result.matches().to_vec();
        got.sort_unstable();
        assert_eq!(
            got,
            oracle(index, probes),
            "Widx results must match the oracle"
        );
    }

    #[test]
    fn direct_layout_results_match_oracle() {
        let probes: Vec<u64> = (0..50).map(|i| i * 3).collect();
        let mut f = fixture(NodeLayout::direct8(), HashRecipe::robust64(), 100, probes);
        for walkers in [1, 2, 4] {
            let mut mem = f.mem.clone();
            let r = offload_probe(
                &mut mem,
                &f.index,
                &f.image,
                &f.probes,
                &WidxConfig::with_walkers(walkers),
            );
            check_matches(&r, &f.index, &f.probes);
            assert_eq!(r.stats.tuples, 50);
        }
        let _ = &mut f;
    }

    #[test]
    fn indirect_layout_results_match_oracle() {
        let probes: Vec<u64> = (0..40).collect();
        let mut f = fixture(NodeLayout::indirect8(), HashRecipe::robust64(), 64, probes);
        let r = offload_probe(
            &mut f.mem,
            &f.index,
            &f.image,
            &f.probes,
            &WidxConfig::paper_default(),
        );
        check_matches(&r, &f.index, &f.probes);
    }

    #[test]
    fn kernel4_layout_results_match_oracle() {
        let probes: Vec<u64> = (0..30).collect();
        let mut f = fixture(NodeLayout::kernel4(), HashRecipe::trivial(), 64, probes);
        let r = offload_probe(
            &mut f.mem,
            &f.index,
            &f.image,
            &f.probes,
            &WidxConfig::with_walkers(2),
        );
        check_matches(&r, &f.index, &f.probes);
    }

    #[test]
    fn duplicate_keys_all_emitted() {
        let mut mem = MemorySystem::new(SystemConfig::default());
        let mut alloc = RegionAllocator::new();
        let pairs = vec![(5u64, 1u64), (5, 2), (5, 3), (7, 9)];
        let index = HashIndex::build(HashRecipe::robust64(), 8, pairs.iter().copied());
        let probes = vec![5u64, 7, 11];
        let image = memimg::materialize(
            &mut mem,
            &mut alloc,
            index.recipe(),
            index.bucket_count() as u64,
            &pairs,
            &probes,
            NodeLayout::direct8(),
        );
        let r = offload_probe(
            &mut mem,
            &index,
            &image,
            &probes,
            &WidxConfig::with_walkers(2),
        );
        check_matches(&r, &index, &probes);
        assert_eq!(r.stats.matches, 4);
    }

    #[test]
    fn empty_probe_stream_terminates() {
        let mut f = fixture(NodeLayout::direct8(), HashRecipe::robust64(), 16, vec![]);
        let r = offload_probe(
            &mut f.mem,
            &f.index,
            &f.image,
            &f.probes,
            &WidxConfig::with_walkers(4),
        );
        assert_eq!(r.stats.tuples, 0);
        assert_eq!(r.stats.matches, 0);
        assert!(r.matches().is_empty());
    }

    #[test]
    fn misses_produce_no_output() {
        let probes: Vec<u64> = (1000..1050).collect(); // all misses
        let mut f = fixture(NodeLayout::direct8(), HashRecipe::robust64(), 100, probes);
        let r = offload_probe(
            &mut f.mem,
            &f.index,
            &f.image,
            &f.probes,
            &WidxConfig::with_walkers(4),
        );
        assert_eq!(r.stats.matches, 0);
        assert_eq!(r.stats.tuples, 50);
    }

    #[test]
    fn more_walkers_do_not_change_results_but_speed_up() {
        let probes: Vec<u64> = (0..400).map(|i| i % 128).collect();
        let f = fixture(
            NodeLayout::direct8(),
            HashRecipe::robust64(),
            128,
            probes.clone(),
        );
        let mut cycles = Vec::new();
        for walkers in [1, 2, 4] {
            let mut mem = f.mem.clone();
            let r = offload_probe(
                &mut mem,
                &f.index,
                &f.image,
                &probes,
                &WidxConfig::with_walkers(walkers),
            );
            check_matches(&r, &f.index, &probes);
            cycles.push(r.stats.total_cycles);
        }
        assert!(
            cycles[1] < cycles[0],
            "2 walkers {} < 1 walker {}",
            cycles[1],
            cycles[0]
        );
        assert!(
            cycles[2] < cycles[1],
            "4 walkers {} < 2 walkers {}",
            cycles[2],
            cycles[1]
        );
    }

    #[test]
    fn coupled_design_matches_oracle_but_is_slower() {
        // LLC-resident index with a robust hash: hashing on the walk
        // critical path should cost measurably more than the decoupled
        // design (the paper's ~29% traversal-time claim).
        let probes: Vec<u64> = (0..600).map(|i| i % 256).collect();
        let f = fixture(
            NodeLayout::direct8(),
            HashRecipe::robust64(),
            256,
            probes.clone(),
        );
        let cfg = WidxConfig::with_walkers(1);
        let mut mem_a = f.mem.clone();
        let decoupled = offload_probe(&mut mem_a, &f.index, &f.image, &probes, &cfg);
        let mut mem_b = f.mem.clone();
        let coupled = offload_probe_coupled(&mut mem_b, &f.index, &f.image, &probes, &cfg);
        check_matches(&coupled, &f.index, &probes);
        assert!(
            coupled.stats.total_cycles > decoupled.stats.total_cycles,
            "coupled {} should exceed decoupled {}",
            coupled.stats.total_cycles,
            decoupled.stats.total_cycles
        );
    }

    #[test]
    fn walker_idle_appears_when_dispatcher_bound() {
        // A tiny L1-resident index: walkers are fast, the dispatcher's
        // robust hash is the bottleneck, so walkers accumulate Idle —
        // the paper's Small-index behaviour (Fig. 8a).
        let probes: Vec<u64> = (0..300).map(|i| i % 16).collect();
        let mut f = fixture(NodeLayout::direct8(), HashRecipe::heavy128(), 16, probes);
        widx_workloads::memimg::warm(&mut f.mem, &f.image);
        let r = offload_probe(
            &mut f.mem,
            &f.index,
            &f.image,
            &f.probes,
            &WidxConfig::with_walkers(4),
        );
        let idle: u64 = r.stats.walkers.iter().map(|w| w.idle).sum();
        assert!(
            idle > 0,
            "expected walker idle cycles, breakdown {:?}",
            r.stats.walkers
        );
    }
}
