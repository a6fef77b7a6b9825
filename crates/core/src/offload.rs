//! Full offload of an index probe (paper Section 4.3).
//!
//! The host core writes Widx's configuration registers, signals it to
//! start, and "enters an idle loop" — Widx owns the probe until the
//! producer halts, after which the results sit in the output region.
//! One routine does that for every program set; each entry point only
//! writes its image's registers and generates its programs from them.

use widx_sim::mem::MemorySystem;
use widx_workloads::memimg::IndexImage;

use crate::config::{ConfigRegisters, WidxConfig};
use crate::placement::Placement;
use crate::programs::{coupled_program_set, program_set, ProgramSet};
use crate::widx::{Widx, WidxRunStats};

/// Result of a completed offload.
#[derive(Clone, Debug)]
pub struct OffloadResult {
    /// Timing and per-unit accounting.
    pub stats: WidxRunStats,
    /// `(probe key, payload)` pairs read back from the output region.
    matches: Vec<(u64, u64)>,
}

impl OffloadResult {
    /// The result pairs Widx wrote, in emission order.
    #[must_use]
    pub fn matches(&self) -> &[(u64, u64)] {
        &self.matches
    }
}

/// Offloads probing `image` with its own probe column (already
/// materialized into `mem`) onto a Widx instance configured by `config`,
/// hashing with the image's recipe on the shared dispatcher.
///
/// # Panics
///
/// Panics if Widx writes more result slots than the image reserved.
#[must_use]
pub fn offload_probe(
    mem: &mut MemorySystem,
    image: &IndexImage,
    config: &WidxConfig,
) -> OffloadResult {
    let registers = ConfigRegisters::hash_probe(image);
    let set = program_set(image, &registers, config.walkers, config.touch_ahead);
    offload(mem, &set, registers, image.output_capacity, config)
}

/// Offloads with the *coupled* (Figure 3b) design: a streaming
/// dispatcher and walkers that hash their own keys — the ablation
/// quantifying what decoupled hashing buys (the paper: decoupling
/// "reduces the time per list traversal by 29% on average").
///
/// # Panics
///
/// Panics if Widx writes more result slots than the image reserved.
#[must_use]
pub fn offload_probe_coupled(
    mem: &mut MemorySystem,
    image: &IndexImage,
    config: &WidxConfig,
) -> OffloadResult {
    let registers = ConfigRegisters::hash_probe(image);
    let set = coupled_program_set(image, &registers, config.walkers);
    offload(mem, &set, registers, image.output_capacity, config)
}

/// Runs `set`, generated from `registers`, on a Widx instance
/// configured by `config`, starting at cycle 0, and reads back the matches from `registers.results_base`
/// (16-byte `(key, payload)` slots). An LLC-side placement first
/// installs its dedicated TLB.
///
/// # Panics
///
/// Panics if the programs consumed other than `registers.input_len`
/// keys, or wrote more than `output_capacity` result slots.
pub(crate) fn offload(
    mem: &mut MemorySystem,
    set: &ProgramSet,
    registers: ConfigRegisters,
    output_capacity: u64,
    config: &WidxConfig,
) -> OffloadResult {
    if config.placement == Placement::LlcSide {
        mem.install_dedicated_tlb(&Placement::dedicated_tlb_config());
    }
    let stats = Widx::new(set, config, 0).run(mem);
    assert_eq!(stats.tuples, registers.input_len, "input keys consumed");
    assert!(
        stats.matches <= output_capacity,
        "output region overflow: {} matches, capacity {output_capacity}",
        stats.matches,
    );
    let matches = (0..stats.matches)
        .map(|i| {
            let slot = registers.results_base + 16 * i;
            (mem.read_u64(slot), mem.read_u64(slot.offset(8)))
        })
        .collect();
    OffloadResult { stats, matches }
}

#[cfg(test)]
mod tests {
    use super::*;
    use widx_db::hash::HashRecipe;
    use widx_db::index::{HashIndex, NodeLayout};
    use widx_sim::config::SystemConfig;
    use widx_sim::mem::RegionAllocator;
    use widx_workloads::memimg;

    /// A materialized image and the logical index over the same pairs,
    /// kept as the oracle.
    struct Fixture {
        mem: MemorySystem,
        alloc: RegionAllocator,
        index: HashIndex,
        image: IndexImage,
        probes: Vec<u64>,
    }

    fn build(
        layout: NodeLayout,
        recipe: HashRecipe,
        min_buckets: usize,
        pairs: &[(u64, u64)],
        probes: Vec<u64>,
    ) -> Fixture {
        let mut mem = MemorySystem::new(SystemConfig::default());
        let mut alloc = RegionAllocator::new();
        let index = HashIndex::build(recipe, min_buckets, pairs.iter().copied());
        let image = memimg::materialize(
            &mut mem,
            &mut alloc,
            index.recipe(),
            index.bucket_count() as u64,
            pairs,
            &probes,
            layout,
        );
        Fixture {
            mem,
            alloc,
            index,
            image,
            probes,
        }
    }

    fn fixture(layout: NodeLayout, recipe: HashRecipe, entries: u64, probes: Vec<u64>) -> Fixture {
        // Payloads are the build-row ids, as indirect layouts require.
        let pairs: Vec<(u64, u64)> = (0..entries).map(|k| (k, k)).collect();
        build(layout, recipe, entries as usize, &pairs, probes)
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

    fn check_matches(result: &OffloadResult, f: &Fixture) {
        let mut got = result.matches().to_vec();
        got.sort_unstable();
        assert_eq!(
            got,
            oracle(&f.index, &f.probes),
            "Widx results must match the oracle"
        );
    }

    #[test]
    fn direct_layout_results_match_oracle() {
        let probes: Vec<u64> = (0..50).map(|i| i * 3).collect();
        let f = fixture(NodeLayout::direct8(), HashRecipe::robust64(), 100, probes);
        for walkers in [1, 2, 4] {
            let mut mem = f.mem.clone();
            let r = offload_probe(&mut mem, &f.image, &WidxConfig::with_walkers(walkers));
            check_matches(&r, &f);
            assert_eq!(r.stats.tuples, 50);
        }
    }

    #[test]
    fn indirect_layout_results_match_oracle() {
        let probes: Vec<u64> = (0..40).collect();
        let mut f = fixture(NodeLayout::indirect8(), HashRecipe::robust64(), 64, probes);
        let r = offload_probe(&mut f.mem, &f.image, &WidxConfig::paper_default());
        check_matches(&r, &f);
    }

    #[test]
    fn kernel4_layout_results_match_oracle() {
        let probes: Vec<u64> = (0..30).collect();
        let mut f = fixture(NodeLayout::kernel4(), HashRecipe::trivial(), 64, probes);
        let r = offload_probe(&mut f.mem, &f.image, &WidxConfig::with_walkers(2));
        check_matches(&r, &f);
    }

    #[test]
    fn duplicate_keys_all_emitted() {
        let pairs = [(5u64, 1u64), (5, 2), (5, 3), (7, 9)];
        let mut f = build(
            NodeLayout::direct8(),
            HashRecipe::robust64(),
            8,
            &pairs,
            vec![5, 7, 11],
        );
        let r = offload_probe(&mut f.mem, &f.image, &WidxConfig::with_walkers(2));
        check_matches(&r, &f);
        assert_eq!(r.stats.matches, 4);
    }

    #[test]
    fn empty_probe_stream_terminates() {
        let mut f = fixture(NodeLayout::direct8(), HashRecipe::robust64(), 16, vec![]);
        let r = offload_probe(&mut f.mem, &f.image, &WidxConfig::with_walkers(4));
        assert_eq!(r.stats.tuples, 0);
        assert_eq!(r.stats.matches, 0);
        assert!(r.matches().is_empty());
    }

    #[test]
    fn misses_produce_no_output() {
        let probes: Vec<u64> = (1000..1050).collect(); // all misses
        let mut f = fixture(NodeLayout::direct8(), HashRecipe::robust64(), 100, probes);
        let r = offload_probe(&mut f.mem, &f.image, &WidxConfig::with_walkers(4));
        assert_eq!(r.stats.matches, 0);
        assert_eq!(r.stats.tuples, 50);
    }

    #[test]
    fn more_walkers_do_not_change_results_but_speed_up() {
        let probes: Vec<u64> = (0..400).map(|i| i % 128).collect();
        let f = fixture(NodeLayout::direct8(), HashRecipe::robust64(), 128, probes);
        let mut cycles = Vec::new();
        for walkers in [1, 2, 4] {
            let mut mem = f.mem.clone();
            let r = offload_probe(&mut mem, &f.image, &WidxConfig::with_walkers(walkers));
            check_matches(&r, &f);
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
        let f = fixture(NodeLayout::direct8(), HashRecipe::robust64(), 256, probes);
        let cfg = WidxConfig::with_walkers(1);
        let decoupled = offload_probe(&mut f.mem.clone(), &f.image, &cfg);
        let coupled = offload_probe_coupled(&mut f.mem.clone(), &f.image, &cfg);
        check_matches(&coupled, &f);
        assert!(
            coupled.stats.total_cycles > decoupled.stats.total_cycles,
            "coupled {} should exceed decoupled {}",
            coupled.stats.total_cycles,
            decoupled.stats.total_cycles
        );
    }

    #[test]
    fn programs_follow_the_registers() {
        // The results register points at a second region: both program
        // sets must store there and the matches be read back from there,
        // leaving the image's own output region zero.
        let probes: Vec<u64> = (0..40).map(|i| i * 2).collect();
        let mut f = fixture(NodeLayout::direct8(), HashRecipe::robust64(), 64, probes);
        let capacity = f.image.output_capacity;
        let elsewhere = f.alloc.alloc_pages("results.elsewhere", capacity * 16);
        let registers = ConfigRegisters {
            results_base: elsewhere.base(),
            ..ConfigRegisters::hash_probe(&f.image)
        };
        let config = WidxConfig::with_walkers(2);
        for set in [
            program_set(&f.image, &registers, config.walkers, false),
            coupled_program_set(&f.image, &registers, config.walkers),
        ] {
            let mut mem = f.mem.clone();
            let r = offload(&mut mem, &set, registers, capacity, &config);
            check_matches(&r, &f);
            assert_eq!(r.matches().len(), 32);
            assert!((0..2 * capacity).all(|w| mem.read_u64(f.image.output_base + 8 * w) == 0));
        }
    }

    /// A fixture whose image reserves one result slot fewer than its
    /// probes match.
    fn undersized() -> Fixture {
        let probes: Vec<u64> = (0..40).collect();
        let mut f = fixture(NodeLayout::direct8(), HashRecipe::robust64(), 64, probes);
        f.image.output_capacity = f.probes.len() as u64 - 1;
        f
    }

    #[test]
    #[should_panic(expected = "output region overflow: 40 matches, capacity 39")]
    fn decoupled_overflow_is_caught() {
        let mut f = undersized();
        let _ = offload_probe(&mut f.mem, &f.image, &WidxConfig::with_walkers(2));
    }

    #[test]
    #[should_panic(expected = "output region overflow: 40 matches, capacity 39")]
    fn coupled_overflow_is_caught() {
        let mut f = undersized();
        let _ = offload_probe_coupled(&mut f.mem, &f.image, &WidxConfig::with_walkers(2));
    }

    #[test]
    fn walker_idle_appears_when_dispatcher_bound() {
        // A tiny L1-resident index: walkers are fast, the dispatcher's
        // robust hash is the bottleneck, so walkers accumulate Idle —
        // the paper's Small-index behaviour (Fig. 8a).
        let probes: Vec<u64> = (0..300).map(|i| i % 16).collect();
        let mut f = fixture(NodeLayout::direct8(), HashRecipe::heavy128(), 16, probes);
        widx_workloads::memimg::warm(&mut f.mem, &f.image);
        let r = offload_probe(&mut f.mem, &f.image, &WidxConfig::with_walkers(4));
        let idle: u64 = r.stats.walkers.iter().map(|w| w.idle).sum();
        assert!(
            idle > 0,
            "expected walker idle cycles, breakdown {:?}",
            r.stats.walkers
        );
    }
}
