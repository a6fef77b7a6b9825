//! Baseline µop trace generation.
//!
//! Produces the dynamic instruction stream an optimized software probe
//! loop (the paper's Listing 1, compiled) executes over a materialized
//! index image. The walk follows the header and `next` words
//! [`materialize`](crate::memimg::materialize) wrote, so its order comes
//! from the one image. The trace-driven core models of `widx-sim` replay
//! it against the same simulated memory the Widx model walks, so the OoO
//! baseline and the accelerator are measured on byte-identical
//! structures.
//!
//! Trace shape per probe key:
//!
//! 1. load the key from the input column (keys are dense: 8–16 per cache
//!    block, so most loads hit);
//! 2. one single-cycle ALU µop per hash-recipe step, chained (the hash is
//!    serial on the key);
//! 3. two address-arithmetic µops (mask, scale+base);
//! 4. load the bucket header's status word; empty buckets end here;
//! 5. per node: load the key slot (+ the pointed-to key for indirect
//!    layouts), one compare µop and its conditional branch, a store on
//!    match, and the next-pointer load that the following node depends
//!    on — the serial pointer-chasing chain the paper identifies as the
//!    bottleneck.
//!
//! # Branch misprediction policy
//!
//! Key-compare branches are *data-dependent*: whether a visited node
//! matches the probe key is essentially random to the predictor, so each
//! compare branch is marked mispredicted with deterministic
//! pseudo-random probability 1/2 (hashed from the probe key and node
//! address, so runs are reproducible). Loop-control branches
//! (empty-bucket test, chain exit) are strongly biased or fixed-length
//! in these workloads and are marked predicted. A mispredicted compare
//! resolves only when the node's key arrives from memory, which is what
//! keeps a real OoO core from perfectly overlapping consecutive probes —
//! the paper's OoO baseline beats one Widx walker only marginally
//! (Section 6.1) precisely because of this effect.

use widx_db::index::{KeyKind, NodeLayout};
use widx_sim::mem::{MemorySystem, VAddr};
use widx_sim::trace::{Trace, UopIdx};

use crate::memimg::IndexImage;

/// SplitMix-style deterministic mixer for the misprediction policy.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether the data-dependent compare of `key` against the node at
/// `node_addr` mispredicts (deterministic 50 %).
fn compare_mispredicts(key: u64, node_addr: u64) -> bool {
    mix(key ^ node_addr.rotate_left(17)) & 1 == 0
}

/// Generates the software probe trace for `probes` over `image`,
/// following the header and `next` words
/// [`materialize`](crate::memimg::materialize) wrote into `mem`.
#[must_use]
pub fn probe_trace(mem: &MemorySystem, image: &IndexImage, probes: &[u64]) -> Trace {
    let mut t = Trace::new();
    let recipe = &image.recipe;
    let layout = image.layout;
    let kw = layout.key_width as u8;
    let mut out_cursor = 0u64;
    // The slot's load (and the pointed-to key's, when indirect).
    let key_load = |t: &mut Trace, slot_addr: VAddr, dep: UopIdx| match layout.key_kind {
        KeyKind::Direct => t.load(slot_addr, kw, [Some(dep), None]),
        KeyKind::Indirect => {
            let ptr = t.load(slot_addr, 8, [Some(dep), None]);
            t.load(VAddr::new(mem.read_u64(slot_addr)), kw, [Some(ptr), None])
        }
    };

    for (i, key) in probes.iter().enumerate() {
        t.mark_tuple();
        // 0. Probe-loop overhead of the compiled key-iterator loop
        //    (Listing 1's `for` header): induction increment, bounds
        //    compare, well-predicted loop-back branch.
        let inc = t.comp(1, [None, None]);
        let bound = t.comp(1, [Some(inc), None]);
        t.branch(false, [Some(bound), None]);
        // 1. Key fetch.
        let key_in = t.load(image.input_addr(i as u64), kw, [None, None]);
        // 2. Hash chain.
        let mut h: UopIdx = key_in;
        for _ in 0..recipe.op_count() {
            h = t.comp(1, [Some(h), None]);
        }
        // 3. Bucket address arithmetic (mask; shift+add).
        let mask = t.comp(1, [Some(h), None]);
        let addr = t.comp(1, [Some(mask), None]);

        // 4. Header status load.
        let header = image.header_addr(recipe.bucket_of(*key, image.bucket_count));
        let count_load = t.load(header, 4, [Some(addr), None]);
        let check = t.comp(1, [Some(count_load), None]);
        // Empty-bucket test: strongly biased, predicted correctly.
        t.branch(false, [Some(check), None]);
        if mem.read_u32(header.offset(NodeLayout::HEADER_COUNT_OFFSET as i64)) == 0 {
            continue;
        }

        // 5. Walk: header node first, then the overflow chain. A match
        //    stores the entry's payload.
        let mut visit = |t: &mut Trace, slot_addr: VAddr, payload_addr: VAddr, cmp: UopIdx| {
            if image.key_at(mem, slot_addr) == *key {
                let out = image.output_addr(out_cursor % image.output_capacity);
                t.store(out, 8, mem.read_u64(payload_addr), [Some(cmp), None]);
                out_cursor += 1;
            }
        };

        let slot_addr = header.offset(NodeLayout::HEADER_SLOT_OFFSET as i64);
        let hdr_key = key_load(&mut t, slot_addr, check);
        let hdr_cmp = t.comp(1, [Some(hdr_key), Some(key_in)]);
        t.branch(
            compare_mispredicts(*key, header.get()),
            [Some(hdr_cmp), None],
        );
        let payload_addr = header.offset(NodeLayout::HEADER_PAYLOAD_OFFSET as i64);
        visit(&mut t, slot_addr, payload_addr, hdr_cmp);
        let next_addr = header.offset(NodeLayout::HEADER_NEXT_OFFSET as i64);
        let mut next_load = t.load(next_addr, 8, [Some(check), None]);

        let mut node_addr = VAddr::new(mem.read_u64(next_addr));
        while !node_addr.is_null() {
            let slot_addr = node_addr.offset(NodeLayout::NODE_SLOT_OFFSET as i64);
            let node_key = key_load(&mut t, slot_addr, next_load);
            let cmp = t.comp(1, [Some(node_key), Some(key_in)]);
            t.branch(
                compare_mispredicts(*key, node_addr.get()),
                [Some(cmp), None],
            );
            let payload_addr = node_addr.offset(NodeLayout::NODE_PAYLOAD_OFFSET as i64);
            visit(&mut t, slot_addr, payload_addr, cmp);
            let next_addr = node_addr.offset(NodeLayout::NODE_NEXT_OFFSET as i64);
            next_load = t.load(next_addr, 8, [Some(next_load), None]);
            // Chain-exit test: fixed-length chains predict well.
            t.branch(false, [Some(next_load), None]);
            node_addr = VAddr::new(mem.read_u64(next_addr));
        }
    }
    t
}

/// Generates the software probe trace for a B+-tree lookup loop over a
/// materialized [`BTreeImage`](crate::btree_img::BTreeImage): per inner
/// node a separator scan (loads within one node mostly share its cache
/// blocks; the scan-exit branch is data-dependent), then the
/// child-pointer load every deeper access depends on — a pointer chase
/// just like the hash chain — and finally the leaf scan with a store
/// per match.
#[must_use]
pub fn btree_probe_trace(
    tree: &widx_db::index::BTreeIndex,
    image: &crate::btree_img::BTreeImage,
    probes: &[u64],
) -> Trace {
    use crate::btree_img::BTreeImage;
    let export = tree.export();
    let f = image.fanout;
    let mut t = Trace::new();
    let mut out_cursor = 0u64;

    for (i, key) in probes.iter().enumerate() {
        t.mark_tuple();
        let inc = t.comp(1, [None, None]);
        let bound = t.comp(1, [Some(inc), None]);
        t.branch(false, [Some(bound), None]);
        let key_load = t.load(image.input_addr(i as u64), 8, [None, None]);

        let mut dep = key_load;
        let mut node_idx = 0u64;
        for d in (0..export.levels.len()).rev() {
            let node_addr = image.inner_addr(d, node_idx);
            let (keys, children) = &export.levels[d][node_idx as usize];
            let count_load = t.load(node_addr, 8, [Some(dep), None]);
            let slot = keys.partition_point(|k| *k <= *key);
            let mut scan_dep = count_load;
            for j in 0..slot.max(1).min(keys.len()) {
                let kl = t.load(node_addr + 8 + (j as u64) * 8, 8, [Some(count_load), None]);
                scan_dep = t.comp(1, [Some(kl), Some(key_load)]);
            }
            // Scan-exit branch: slot position is data-dependent.
            t.branch(
                compare_mispredicts(*key, node_addr.get() ^ d as u64),
                [Some(scan_dep), None],
            );
            dep = t.load(
                node_addr + BTreeImage::child_array_offset(f) + (slot as u64) * 8,
                8,
                [Some(scan_dep), None],
            );
            node_idx = u64::from(children[slot]);
        }

        // Leaf scan: compare keys in order, store the first match.
        let leaf_addr = image.leaf_addr(node_idx);
        let (keys, payloads) = &export.leaves[node_idx as usize];
        let count_load = t.load(leaf_addr, 8, [Some(dep), None]);
        for (j, k) in keys.iter().enumerate() {
            let kl = t.load(leaf_addr + 8 + (j as u64) * 8, 8, [Some(count_load), None]);
            let cmp = t.comp(1, [Some(kl), Some(key_load)]);
            t.branch(
                compare_mispredicts(*key, leaf_addr.get() ^ (j as u64)),
                [Some(cmp), None],
            );
            if *k == *key {
                let pl = t.load(leaf_addr + 8 + 8 * f + (j as u64) * 8, 8, [Some(cmp), None]);
                let out = image.output_addr(out_cursor % image.output_capacity);
                t.store(out, 8, payloads[j], [Some(pl), None]);
                out_cursor += 1;
                break;
            }
            if *k > *key {
                break;
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memimg::materialize;
    use crate::memimg::tests::random_builds;
    use widx_db::hash::HashRecipe;
    use widx_sim::config::SystemConfig;
    use widx_sim::core::{run_inorder, run_ooo};
    use widx_sim::mem::RegionAllocator;
    use widx_sim::trace::UopKind;

    fn image(recipe: HashRecipe, probes: &[u64], layout: NodeLayout) -> (MemorySystem, IndexImage) {
        let mut mem = MemorySystem::new(SystemConfig::default());
        let pairs: Vec<(u64, u64)> = (0..500u64).map(|k| (k, k)).collect();
        let image = materialize(
            &mut mem,
            &mut RegionAllocator::new(),
            &recipe,
            512,
            &pairs,
            probes,
            layout,
        );
        (mem, image)
    }

    fn setup(layout: NodeLayout) -> (MemorySystem, IndexImage, Vec<u64>) {
        let probes: Vec<u64> = (0..100u64).map(|i| i * 5).collect();
        let (mem, image) = image(HashRecipe::robust64(), &probes, layout);
        (mem, image, probes)
    }

    #[test]
    fn trace_has_one_tuple_per_probe() {
        let (mem, image, probes) = setup(NodeLayout::direct8());
        let t = probe_trace(&mem, &image, &probes);
        assert_eq!(t.tuples(), probes.len());
        // At least key + header loads per probe.
        assert!(t.load_count() >= probes.len() * 2);
    }

    #[test]
    fn indirect_layout_adds_loads() {
        let (mem_d, image_d, probes) = setup(NodeLayout::direct8());
        let (mem_i, image_i, _) = setup(NodeLayout::indirect8());
        let direct = probe_trace(&mem_d, &image_d, &probes);
        let indirect = probe_trace(&mem_i, &image_i, &probes);
        assert!(
            indirect.load_count() > direct.load_count(),
            "indirect {} vs direct {}",
            indirect.load_count(),
            direct.load_count()
        );
    }

    #[test]
    fn heavier_hash_adds_comp_uops() {
        let probes: Vec<u64> = (0..50u64).collect();
        let (mem_l, img_l) = image(HashRecipe::trivial(), &probes, NodeLayout::direct8());
        let (mem_h, img_h) = image(HashRecipe::heavy128(), &probes, NodeLayout::direct8());
        let tl = probe_trace(&mem_l, &img_l, &probes);
        let th = probe_trace(&mem_h, &img_h, &probes);
        assert!(th.len() > tl.len());
    }

    #[test]
    fn trace_replays_on_both_cores() {
        let (mut mem, image, probes) = setup(NodeLayout::direct8());
        let t = probe_trace(&mem, &image, &probes);
        let sys = SystemConfig::default();
        let ooo = run_ooo(&sys.ooo, &t, &mut mem, 0);
        // A fresh image for the second run.
        let (mut mem2, _, _) = setup(NodeLayout::direct8());
        let ino = run_inorder(&sys.inorder, &t, &mut mem2, 0);
        assert!(ooo.cycles > 0 && ino.cycles > 0);
        assert!(
            ino.cycles >= ooo.cycles,
            "in-order {} vs ooo {}",
            ino.cycles,
            ooo.cycles
        );
        assert_eq!(ooo.tuples, probes.len() as u64);
    }

    #[test]
    fn stores_emitted_per_match() {
        let stored = |mem: &MemorySystem, image: &IndexImage, probes: &[u64]| -> Vec<u64> {
            let t = probe_trace(mem, image, probes);
            t.uops()
                .iter()
                .filter_map(|u| match u.kind {
                    UopKind::Store { value, .. } => Some(value),
                    _ => None,
                })
                .collect()
        };
        // Probe only hit keys of unique ones: every probe ends in exactly
        // one store.
        let (mem, image, _) = setup(NodeLayout::direct8());
        let hits: Vec<u64> = (0..50u64).collect();
        assert_eq!(stored(&mem, &image, &hits), hits);
        // Heavy duplicates and empty buckets: one store per match, in
        // the logical index's chain order.
        for layout in [
            NodeLayout::kernel4(),
            NodeLayout::direct8(),
            NodeLayout::indirect8(),
        ] {
            for b in random_builds(layout) {
                let want: Vec<u64> = b
                    .probes
                    .iter()
                    .flat_map(|&k| b.index.lookup_all(k))
                    .collect();
                assert_eq!(stored(&b.mem, &b.image, &b.probes), want, "{layout:?}");
            }
        }
    }
}
