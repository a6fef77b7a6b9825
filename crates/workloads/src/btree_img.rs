//! Materialization of a B+-tree index into simulated memory — the
//! substrate for the paper's Section 7 extension ("Widx can easily be
//! extended to accelerate other index structures, such as balanced
//! trees").
//!
//! Node records (all fields u64, offsets in bytes, `F` = fanout):
//!
//! ```text
//! inner (stride 16·F):            leaf (stride 8 + 16·F):
//!   +0        separator count       +0        key count
//!   +8        F-1 separator keys    +8        F keys
//!   +8+8(F-1) F child addresses     +8+8F     F payloads
//! ```
//!
//! Child pointers are absolute virtual addresses, so a walker descends
//! with plain loads exactly like the hash walker chases `next` pointers.

use widx_db::index::BTreeIndex;
use widx_sim::mem::{MemorySystem, RegionAllocator, VAddr};

/// Addresses and geometry of a materialized B+-tree.
#[derive(Clone, Debug)]
pub struct BTreeImage {
    /// Tree fanout `F`.
    pub fanout: u64,
    /// Number of inner levels above the leaves (descents before a leaf).
    pub inner_levels: u64,
    /// Address of the root node (an inner node, or the lone leaf).
    pub root_addr: VAddr,
    /// Base of the probe-key input column (8-byte keys).
    pub input_base: VAddr,
    /// Probe count.
    pub input_count: u64,
    /// Base of the output region (16-byte result slots).
    pub output_base: VAddr,
    /// Output capacity in slots.
    pub output_capacity: u64,
    /// Total bytes of tree nodes.
    pub tree_bytes: u64,
    /// Base address of the leaf array.
    pub leaf_base: VAddr,
    /// Base address of each inner level (bottom-up).
    pub level_bases: Vec<VAddr>,
}

impl BTreeImage {
    /// Stride of an inner node for fanout `f`.
    #[must_use]
    pub fn inner_stride(f: u64) -> u64 {
        8 + 8 * (f - 1) + 8 * f
    }

    /// Stride of a leaf node for fanout `f`.
    #[must_use]
    pub fn leaf_stride(f: u64) -> u64 {
        8 + 16 * f
    }

    /// Byte offset of the child-pointer array inside an inner node.
    #[must_use]
    pub fn child_array_offset(f: u64) -> u64 {
        8 + 8 * (f - 1)
    }

    /// Address of probe key `i`.
    #[must_use]
    pub fn input_addr(&self, i: u64) -> VAddr {
        self.input_base + i * 8
    }

    /// Address of output slot `i`.
    #[must_use]
    pub fn output_addr(&self, i: u64) -> VAddr {
        self.output_base + i * 16
    }

    /// Address of leaf `i`.
    #[must_use]
    pub fn leaf_addr(&self, i: u64) -> VAddr {
        self.leaf_base + i * BTreeImage::leaf_stride(self.fanout)
    }

    /// Address of inner node `i` on inner level `level` (bottom-up).
    #[must_use]
    pub fn inner_addr(&self, level: usize, i: u64) -> VAddr {
        self.level_bases[level] + i * BTreeImage::inner_stride(self.fanout)
    }
}

/// Serializes `tree` plus a probe column into `mem`, with an output
/// region of `(hits + probes).max(16)` 16-byte slots, where `hits` counts
/// the probes found in the tree's leaves (one slot each: the walker
/// emits the first match only).
///
/// # Panics
///
/// Panics if the tree's fanout exceeds 128 (offset immediates) or if a
/// node is malformed.
pub fn materialize_btree(
    mem: &mut MemorySystem,
    alloc: &mut RegionAllocator,
    tree: &BTreeIndex,
    probes: &[u64],
) -> BTreeImage {
    let export = tree.export();
    let f = export.fanout as u64;
    assert!((2..=128).contains(&f), "fanout {f} out of supported range");
    let inner_stride = BTreeImage::inner_stride(f);
    let leaf_stride = BTreeImage::leaf_stride(f);

    // Allocate per-level regions (leaves first).
    let leaf_region = alloc.alloc_pages("btree.leaves", (export.leaves.len() as u64) * leaf_stride);
    let level_bases: Vec<VAddr> = export
        .levels
        .iter()
        .enumerate()
        .map(|(d, level)| {
            alloc
                .alloc_pages(
                    &format!("btree.level{d}"),
                    (level.len() as u64) * inner_stride,
                )
                .base()
        })
        .collect();
    let input_region = alloc.alloc_pages("btree.input", (probes.len() as u64).max(1) * 8);
    // The leaves in order hold the tree's keys sorted.
    let leaf_keys: Vec<u64> = export
        .leaves
        .iter()
        .flat_map(|(keys, _)| keys.iter().copied())
        .collect();
    let hits = probes
        .iter()
        .filter(|p| leaf_keys.binary_search(p).is_ok())
        .count() as u64;
    let output_capacity = (hits + probes.len() as u64).max(16);
    let output_region = alloc.alloc_pages("btree.output", output_capacity * 16);

    // Leaves.
    for (i, (keys, payloads)) in export.leaves.iter().enumerate() {
        let base = leaf_region.base() + (i as u64) * leaf_stride;
        mem.write_u64(base, keys.len() as u64);
        for (j, k) in keys.iter().enumerate() {
            mem.write_u64(base + 8 + (j as u64) * 8, *k);
        }
        for (j, p) in payloads.iter().enumerate() {
            mem.write_u64(base + 8 + 8 * f + (j as u64) * 8, *p);
        }
    }

    // Inner levels, bottom-up; children point at the level below (or
    // the leaves for level 0).
    for (d, level) in export.levels.iter().enumerate() {
        let child_base = |idx: u32| -> u64 {
            if d == 0 {
                (leaf_region.base() + u64::from(idx) * leaf_stride).get()
            } else {
                (level_bases[d - 1] + u64::from(idx) * inner_stride).get()
            }
        };
        for (i, (keys, children)) in level.iter().enumerate() {
            let base = level_bases[d] + (i as u64) * inner_stride;
            assert_eq!(keys.len() + 1, children.len(), "malformed inner node");
            mem.write_u64(base, keys.len() as u64);
            for (j, k) in keys.iter().enumerate() {
                mem.write_u64(base + 8 + (j as u64) * 8, *k);
            }
            for (j, c) in children.iter().enumerate() {
                mem.write_u64(
                    base + BTreeImage::child_array_offset(f) + (j as u64) * 8,
                    child_base(*c),
                );
            }
        }
    }

    // Probe input.
    for (i, key) in probes.iter().enumerate() {
        mem.write_u64(input_region.base() + (i as u64) * 8, *key);
    }

    let root_addr = match export.levels.last() {
        Some(top) => {
            assert_eq!(top.len(), 1, "top level must be the single root");
            level_bases[export.levels.len() - 1]
        }
        None => leaf_region.base(),
    };
    let tree_bytes = (export.leaves.len() as u64) * leaf_stride
        + export
            .levels
            .iter()
            .map(|l| l.len() as u64 * inner_stride)
            .sum::<u64>();

    BTreeImage {
        fanout: f,
        inner_levels: export.levels.len() as u64,
        root_addr,
        input_base: input_region.base(),
        input_count: probes.len() as u64,
        output_base: output_region.base(),
        output_capacity,
        tree_bytes,
        leaf_base: leaf_region.base(),
        level_bases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use widx_sim::config::SystemConfig;

    fn setup(entries: u64, fanout: usize) -> (MemorySystem, BTreeIndex, BTreeImage) {
        let mut mem = MemorySystem::new(SystemConfig::default());
        let mut alloc = RegionAllocator::new();
        let tree = BTreeIndex::build(fanout, (0..entries).map(|k| (k * 2, k)));
        let probes: Vec<u64> = (0..50).collect();
        let image = materialize_btree(&mut mem, &mut alloc, &tree, &probes);
        (mem, tree, image)
    }

    /// Software descent over the *image bytes only*.
    fn image_lookup(mem: &MemorySystem, image: &BTreeImage, key: u64) -> Option<u64> {
        let f = image.fanout;
        let mut node = image.root_addr;
        for _ in 0..image.inner_levels {
            let count = mem.read_u64(node);
            let mut slot = 0u64;
            while slot < count && mem.read_u64(node + 8 + slot * 8) <= key {
                slot += 1;
            }
            node = VAddr::new(mem.read_u64(node + BTreeImage::child_array_offset(f) + slot * 8));
        }
        let count = mem.read_u64(node);
        for j in 0..count {
            if mem.read_u64(node + 8 + j * 8) == key {
                return Some(mem.read_u64(node + 8 + 8 * f + j * 8));
            }
        }
        None
    }

    #[test]
    fn image_descent_matches_logical_tree() {
        let (mem, tree, image) = setup(500, 8);
        for key in 0..1002u64 {
            assert_eq!(
                image_lookup(&mem, &image, key),
                tree.lookup(key),
                "key {key}"
            );
        }
    }

    #[test]
    fn single_leaf_tree() {
        let (mem, tree, image) = setup(4, 8);
        assert_eq!(image.inner_levels, 0);
        for key in 0..10u64 {
            assert_eq!(image_lookup(&mem, &image, key), tree.lookup(key));
        }
    }

    #[test]
    fn output_region_holds_a_slot_per_probe_and_hit() {
        // Every even key twice: a hit still takes one slot.
        let tree = BTreeIndex::build(8, (0..100u64).flat_map(|k| [(k * 2, k), (k * 2, k + 1)]));
        let probes: Vec<u64> = (0..50).collect();
        let mut mem = MemorySystem::new(SystemConfig::default());
        let image = materialize_btree(&mut mem, &mut RegionAllocator::new(), &tree, &probes);
        assert_eq!(image.output_capacity, 25 + 50);
    }

    #[test]
    fn strides_and_offsets() {
        assert_eq!(BTreeImage::inner_stride(8), 8 + 56 + 64);
        assert_eq!(BTreeImage::leaf_stride(8), 8 + 128);
        assert_eq!(BTreeImage::child_array_offset(8), 64);
    }

    #[test]
    fn deep_tree_has_inner_levels() {
        let (_, tree, image) = setup(4096, 4);
        assert!(image.inner_levels >= 4);
        assert_eq!(u64::from(tree.height() as u32), image.inner_levels + 1);
    }
}
