//! Widx programs for B+-tree traversal — the paper's Section 7 extension
//! to "other index structures, such as balanced trees".
//!
//! The division of labour mirrors the hash pipeline and shares its
//! emitters ([`crate::programs`]): the dispatcher's key-stream loop
//! sends `(key, root)` pairs (trees need no key hashing — the root is
//! the registers' `hash_table_base`), walkers start with the common
//! prologue and descend the tree comparing separator keys and chasing
//! child pointers, and the common producer writes `(key, payload)`
//! matches.

use widx_db::index::BTreeIndex;
use widx_isa::{Program, Reg, Src};
use widx_sim::mem::MemorySystem;
use widx_workloads::btree_img::BTreeImage;

use crate::config::{ConfigRegisters, WidxConfig};
use crate::offload::{offload, OffloadResult};
use crate::programs::{dispatcher_program, producer_program, walker_prologue, ProgramSet, Second};

/// Builds the B+-tree walker: descend `inner_levels` inner nodes by
/// scanning separators, then scan the leaf and emit the first match
/// (the tree's `lookup` semantics).
fn btree_walker_program(image: &BTreeImage, registers: &ConfigRegisters) -> Program {
    let f = image.fanout;
    let child_off = i16::try_from(BTreeImage::child_array_offset(f)).expect("fanout in range");
    let payload_delta = i16::try_from(8 * f).expect("fanout in range");
    let (mut b, item) = walker_prologue(registers, Reg::R2); // root address
    b.init_reg(Reg::R12, image.inner_levels);

    let inner_top = b.new_label();
    let scan = b.new_label();
    let pick = b.new_label();
    let leaf = b.new_label();
    let lscan = b.new_label();
    let lnext = b.new_label();

    b.mov(Reg::R10, Reg::R12); // levels remaining

    b.bind(inner_top);
    b.ble(Reg::R10, Src::Imm(0), leaf);
    b.ld_d(Reg::R3, Reg::R2, 0); // separator count
    b.li(Reg::R6, 0); // slot i
    b.add(Reg::R5, Reg::R2, Src::Imm(8)); // cursor at keys[0]
    b.bind(scan);
    b.ble(Reg::R3, Src::Reg(Reg::R6), pick); // i >= count -> last child
    b.ld_d(Reg::R4, Reg::R5, 0);
    b.cmp_le(Reg::R9, Reg::R4, Src::Reg(Reg::R1)); // keys[i] <= key ?
    b.ble(Reg::R9, Src::Imm(0), pick); // key < keys[i] -> child i
    b.add(Reg::R6, Reg::R6, Src::Imm(1));
    b.add(Reg::R5, Reg::R5, Src::Imm(8));
    b.ba(scan);
    b.bind(pick);
    b.shl(Reg::R7, Reg::R6, Src::Imm(3));
    b.add(Reg::R7, Reg::R7, Src::Reg(Reg::R2));
    b.ld_d(Reg::R2, Reg::R7, child_off); // child address
    b.add(Reg::R10, Reg::R10, Src::Imm(-1));
    b.ba(inner_top);

    b.bind(leaf);
    b.ld_d(Reg::R3, Reg::R2, 0); // key count
    b.li(Reg::R6, 0);
    b.add(Reg::R5, Reg::R2, Src::Imm(8));
    b.bind(lscan);
    b.ble(Reg::R3, Src::Reg(Reg::R6), item); // exhausted -> next item
    b.ld_d(Reg::R4, Reg::R5, 0);
    b.cmp(Reg::R9, Reg::R4, Src::Reg(Reg::R1));
    b.ble(Reg::R9, Src::Imm(0), lnext);
    b.ld_d(Reg::R8, Reg::R5, payload_delta); // payloads sit 8*F past keys
    b.add(Reg::OUT, Reg::R1, Src::Imm(0));
    b.add(Reg::OUT, Reg::R8, Src::Imm(0));
    b.ba(item); // first-match semantics
    b.bind(lnext);
    b.add(Reg::R6, Reg::R6, Src::Imm(1));
    b.add(Reg::R5, Reg::R5, Src::Imm(8));
    b.ba(lscan);

    b.build().expect("btree walker verifies")
}

/// Generates the B+-tree program triple for probing `image` at
/// `registers`.
///
/// # Panics
///
/// Panics if the fanout's field offsets exceed the load-offset
/// immediate range (fanout ≤ 128 is always safe).
#[must_use]
pub fn btree_program_set(
    image: &BTreeImage,
    registers: &ConfigRegisters,
    walkers: usize,
) -> ProgramSet {
    ProgramSet {
        dispatcher: dispatcher_program(registers, 8, walkers, Second::Root),
        walker: btree_walker_program(image, registers),
        producer: producer_program(registers, walkers),
    }
}

/// Offloads a B+-tree probe batch (already materialized as `image`).
///
/// # Panics
///
/// Panics if Widx writes more result slots than the image reserved.
#[must_use]
pub fn offload_btree_probe(
    mem: &mut MemorySystem,
    image: &BTreeImage,
    config: &WidxConfig,
) -> OffloadResult {
    let registers = ConfigRegisters::btree_probe(image);
    let set = btree_program_set(image, &registers, config.walkers);
    offload(mem, &set, registers, image.output_capacity, config)
}

/// Materializes `tree` and `probes` into a fresh memory system and
/// offloads the probe batch in one call (used by the tests and the
/// `btree_index` example).
#[must_use]
pub fn run_btree(
    tree: &BTreeIndex,
    probes: &[u64],
    config: &WidxConfig,
) -> (OffloadResult, BTreeImage) {
    use widx_sim::config::SystemConfig;
    use widx_sim::mem::RegionAllocator;
    let mut mem = MemorySystem::new(SystemConfig::default());
    let mut alloc = RegionAllocator::new();
    let image = widx_workloads::btree_img::materialize_btree(&mut mem, &mut alloc, tree, probes);
    let result = offload_btree_probe(&mut mem, &image, config);
    (result, image)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(entries: u64, fanout: usize) -> BTreeIndex {
        BTreeIndex::build(fanout, (0..entries).map(|k| (k * 3, k)))
    }

    fn check(tree: &BTreeIndex, probes: &[u64], walkers: usize) {
        let (result, _) = run_btree(tree, probes, &WidxConfig::with_walkers(walkers));
        let mut got = result.matches().to_vec();
        got.sort_unstable();
        let mut want: Vec<(u64, u64)> = probes
            .iter()
            .filter_map(|p| tree.lookup(*p).map(|v| (*p, v)))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "walkers={walkers}");
    }

    #[test]
    fn matches_oracle_across_walker_counts() {
        let t = tree(2000, 8);
        let probes: Vec<u64> = (0..500u64).map(|i| i * 7 % 6600).collect();
        for walkers in [1, 2, 4] {
            check(&t, &probes, walkers);
        }
    }

    #[test]
    fn single_leaf_tree_works() {
        let t = tree(5, 8);
        check(&t, &[0, 3, 6, 9, 100], 2);
    }

    #[test]
    fn deep_narrow_tree_works() {
        let t = tree(3000, 4);
        let probes: Vec<u64> = (0..300u64).map(|i| i * 31 % 9100).collect();
        check(&t, &probes, 4);
    }

    #[test]
    fn walkers_scale_on_dram_resident_tree() {
        // Large tree: descents are pointer chases through DRAM.
        let t = tree(200_000, 8);
        let probes: Vec<u64> = (0..600u64).map(|i| (i * 997) % 600_000).collect();
        let (one, _) = run_btree(&t, &probes, &WidxConfig::with_walkers(1));
        let (four, _) = run_btree(&t, &probes, &WidxConfig::with_walkers(4));
        assert!(
            four.stats.total_cycles * 2 < one.stats.total_cycles,
            "4 walkers {} vs 1 walker {}",
            four.stats.total_cycles,
            one.stats.total_cycles
        );
    }

    #[test]
    #[should_panic(expected = "output region overflow: 40 matches, capacity 39")]
    fn overflow_is_caught() {
        let t = tree(100, 8);
        let probes: Vec<u64> = (0..40u64).map(|i| i * 3).collect();
        let mut mem = MemorySystem::new(widx_sim::config::SystemConfig::default());
        let mut alloc = widx_sim::mem::RegionAllocator::new();
        let mut image =
            widx_workloads::btree_img::materialize_btree(&mut mem, &mut alloc, &t, &probes);
        image.output_capacity = 39;
        let _ = offload_btree_probe(&mut mem, &image, &WidxConfig::with_walkers(2));
    }

    #[test]
    fn programs_verify_and_encode() {
        let t = tree(1000, 16);
        let probes = vec![1u64];
        let mut mem = MemorySystem::new(widx_sim::config::SystemConfig::default());
        let mut alloc = widx_sim::mem::RegionAllocator::new();
        let image = widx_workloads::btree_img::materialize_btree(&mut mem, &mut alloc, &t, &probes);
        let set = btree_program_set(&image, &ConfigRegisters::btree_probe(&image), 4);
        for p in [set.dispatcher, set.walker, set.producer] {
            assert!(p.verify().is_ok());
            assert!(p.encode_words().is_ok());
        }
    }
}
