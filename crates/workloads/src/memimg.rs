//! Lays the paper's hash index out in simulated memory from its build
//! side.
//!
//! The Widx accelerator operates on real bytes: bucket headers, overflow
//! nodes, the probe-key column, and the output region are serialized into
//! the [`MemorySystem`]'s backing store exactly as described by the
//! [`NodeLayout`]. `next` pointers become absolute virtual addresses
//! (0 = NULL), and indirect layouts additionally materialize the build
//! side's key column so that key reads really do take the extra
//! dereference.
//!
//! Which pool slot an overflow entry takes is decided here, by
//! [`materialize`], from the build pairs. Every reader — the Widx
//! programs, the baseline trace, the tests — walks the bytes it wrote.

use widx_db::hash::HashRecipe;
use widx_db::index::{KeyKind, NodeLayout};
use widx_sim::mem::{MemorySystem, RegionAllocator, VAddr};

/// Addresses and geometry of a materialized index image.
#[derive(Clone, Debug)]
pub struct IndexImage {
    /// Hash recipe that placed every entry in its bucket.
    pub recipe: HashRecipe,
    /// Physical layout of headers and nodes.
    pub layout: NodeLayout,
    /// Base of the bucket-header array.
    pub bucket_base: VAddr,
    /// Number of buckets (a power of two).
    pub bucket_count: u64,
    /// Base of the overflow-node pool.
    pub node_base: VAddr,
    /// Overflow nodes in the pool.
    pub node_count: u64,
    /// Base of the build-side key column (indirect layouts only).
    pub build_keys_base: Option<VAddr>,
    /// Base of the probe-key input column.
    pub input_base: VAddr,
    /// Probe keys in the input column.
    pub input_count: u64,
    /// Total index entries (= rows of the build-side key column).
    pub entry_count: u64,
    /// Base of the output (result) region.
    pub output_base: VAddr,
    /// Capacity of the output region in 16-byte result slots.
    pub output_capacity: u64,
}

impl IndexImage {
    /// Address of bucket `b`'s header.
    #[must_use]
    pub fn header_addr(&self, b: u64) -> VAddr {
        debug_assert!(b < self.bucket_count);
        self.bucket_base + b * NodeLayout::HEADER_STRIDE as u64
    }

    /// Address of pool node `i`.
    #[must_use]
    pub fn node_addr(&self, i: u64) -> VAddr {
        debug_assert!(i < self.node_count);
        self.node_base + i * NodeLayout::NODE_STRIDE as u64
    }

    /// Address of probe key `i` in the input column.
    #[must_use]
    pub fn input_addr(&self, i: u64) -> VAddr {
        debug_assert!(i < self.input_count);
        self.input_base + i * self.layout.key_width as u64
    }

    /// Address of build row `row`'s key in the materialized key column.
    ///
    /// # Panics
    ///
    /// Panics for direct layouts, which have no key column.
    #[must_use]
    pub fn build_key_addr(&self, row: u64) -> VAddr {
        self.build_keys_base.expect("indirect layout required") + row * self.layout.key_width as u64
    }

    /// Address of output slot `i`.
    #[must_use]
    pub fn output_addr(&self, i: u64) -> VAddr {
        self.output_base + i * 16
    }

    /// Bytes occupied by the index proper (headers + nodes + key column),
    /// i.e. the paper's "index size" axis.
    #[must_use]
    pub fn index_bytes(&self) -> u64 {
        let keys = if self.build_keys_base.is_some() {
            self.entry_count * self.layout.key_width as u64
        } else {
            0
        };
        self.bucket_count * NodeLayout::HEADER_STRIDE as u64
            + self.node_count * NodeLayout::NODE_STRIDE as u64
            + keys
    }

    /// The key the slot word at `slot` stands for: the word itself for
    /// direct layouts, the key-column entry it points at for indirect
    /// ones.
    #[must_use]
    pub fn key_at(&self, mem: &MemorySystem, slot: VAddr) -> u64 {
        let key_addr = match self.layout.key_kind {
            KeyKind::Direct => slot,
            KeyKind::Indirect => VAddr::new(mem.read_u64(slot)),
        };
        mem.read_uint(key_addr, self.layout.key_width)
    }

    /// Every payload stored under `key`, in chain order, read from the
    /// image's bytes in `mem`.
    #[must_use]
    pub fn lookup_all(&self, mem: &MemorySystem, key: u64) -> Vec<u64> {
        let header = self.header_addr(self.recipe.bucket_of(key, self.bucket_count));
        let mut out = Vec::new();
        if mem.read_u32(field(header, NodeLayout::HEADER_COUNT_OFFSET)) == 0 {
            return out;
        }
        let mut entry = (
            field(header, NodeLayout::HEADER_SLOT_OFFSET),
            field(header, NodeLayout::HEADER_PAYLOAD_OFFSET),
            field(header, NodeLayout::HEADER_NEXT_OFFSET),
        );
        loop {
            let (slot, payload, next) = entry;
            if self.key_at(mem, slot) == key {
                out.push(mem.read_u64(payload));
            }
            let node = VAddr::new(mem.read_u64(next));
            if node.is_null() {
                return out;
            }
            entry = (
                field(node, NodeLayout::NODE_SLOT_OFFSET),
                field(node, NodeLayout::NODE_PAYLOAD_OFFSET),
                field(node, NodeLayout::NODE_NEXT_OFFSET),
            );
        }
    }
}

/// The address of the field `offset` bytes into the header or node at
/// `base`.
fn field(base: VAddr, offset: usize) -> VAddr {
    base.offset(offset as i64)
}

/// Lays out the index over `pairs`, placed by `recipe` into
/// `bucket_count` buckets (a power of two) in input order, and the probe
/// column `probes`, in `mem`, carving regions from `alloc` (fresh regions
/// read as zero). The first entry of a bucket goes in its header; each
/// later entry takes the next pool slot and is linked right after the
/// header. The output region holds every match the image yields for
/// `probes`, plus one slot per probe.
///
/// # Panics
///
/// Panics if `bucket_count` is not a power of two. For indirect layouts,
/// panics if any payload is not a valid build-side row id
/// (`payload < pairs.len()`): the payload indexes the materialized key
/// column, exactly as MonetDB's index nodes point at their base column.
pub fn materialize(
    mem: &mut MemorySystem,
    alloc: &mut RegionAllocator,
    recipe: &HashRecipe,
    bucket_count: u64,
    pairs: &[(u64, u64)],
    probes: &[u64],
    layout: NodeLayout,
) -> IndexImage {
    let homes: Vec<u64> = pairs
        .iter()
        .map(|&(key, _)| recipe.bucket_of(key, bucket_count))
        .collect();
    let mut occupied = vec![false; bucket_count as usize];
    let heads = homes
        .iter()
        .filter(|&&b| !std::mem::replace(&mut occupied[b as usize], true))
        .count();
    let entries = pairs.len() as u64;
    let node_count = entries - heads as u64;
    let kw = layout.key_width as u64;

    let bucket_region = alloc.alloc_pages(
        "hash.buckets",
        bucket_count * NodeLayout::HEADER_STRIDE as u64,
    );
    let node_region = alloc.alloc_pages(
        "hash.nodes",
        (node_count.max(1)) * NodeLayout::NODE_STRIDE as u64,
    );
    let build_keys_base = match layout.key_kind {
        KeyKind::Direct => None,
        KeyKind::Indirect => {
            assert!(
                pairs.iter().all(|&(_, row)| row < entries),
                "indirect layouts require payloads to be build-side row ids (< {entries})"
            );
            Some(alloc.alloc_pages("build.keys", entries.max(1) * kw).base())
        }
    };
    let input_region = alloc.alloc_pages("probe.input", (probes.len() as u64).max(1) * kw);
    let mut image = IndexImage {
        recipe: recipe.clone(),
        layout,
        bucket_base: bucket_region.base(),
        bucket_count,
        node_base: node_region.base(),
        node_count,
        build_keys_base,
        input_base: input_region.base(),
        input_count: probes.len() as u64,
        entry_count: entries,
        output_base: VAddr::NULL,
        output_capacity: 0,
    };

    let mut pool = 0..node_count;
    for (&(key, payload), &b) in pairs.iter().zip(&homes) {
        let header = image.header_addr(b);
        let count_at = field(header, NodeLayout::HEADER_COUNT_OFFSET);
        let count = mem.read_u32(count_at);
        mem.write_u32(count_at, count + 1);
        let (slot_at, payload_at) = if count == 0 {
            (
                field(header, NodeLayout::HEADER_SLOT_OFFSET),
                field(header, NodeLayout::HEADER_PAYLOAD_OFFSET),
            )
        } else {
            let node = image.node_addr(pool.next().expect("a pool slot per chained entry"));
            let head_at = field(header, NodeLayout::HEADER_NEXT_OFFSET);
            let head = mem.read_u64(head_at);
            mem.write_u64(field(node, NodeLayout::NODE_NEXT_OFFSET), head);
            mem.write_u64(head_at, node.get());
            (
                field(node, NodeLayout::NODE_SLOT_OFFSET),
                field(node, NodeLayout::NODE_PAYLOAD_OFFSET),
            )
        };
        // Indirect slots point at the key's row in the key column.
        let slot = match layout.key_kind {
            KeyKind::Direct => key,
            KeyKind::Indirect => {
                let key_addr = image.build_key_addr(payload);
                mem.write_uint(key_addr, layout.key_width, key);
                key_addr.get()
            }
        };
        mem.write_uint(slot_at, layout.slot_width(), slot);
        mem.write_u64(payload_at, payload);
    }

    // Probe input column.
    for (i, key) in probes.iter().enumerate() {
        mem.write_uint(image.input_addr(i as u64), layout.key_width, *key);
    }

    let matches: u64 = probes
        .iter()
        .map(|&key| image.lookup_all(mem, key).len() as u64)
        .sum();
    image.output_capacity = (matches + probes.len() as u64).max(16);
    image.output_base = alloc
        .alloc_pages("probe.output", image.output_capacity * 16)
        .base();
    image
}

/// Warms the memory hierarchy over the image the way the paper's warmed
/// checkpoints do: the index and input become LLC-resident up to
/// capacity (LRU keeps the most recently touched blocks), and structures
/// that fit in half the L1 are also installed there.
pub fn warm(mem: &mut MemorySystem, image: &IndexImage) {
    let l1_budget = mem.cfg().l1d.size_bytes as u64 / 2;
    let mut warm_region = |base: VAddr, bytes: u64| {
        let into_l1 = bytes <= l1_budget;
        let mut addr = base;
        let end = base + bytes;
        while addr < end {
            if into_l1 {
                mem.warm_block(addr);
            } else {
                mem.warm_llc_block(addr);
            }
            addr = addr + 64;
        }
    };
    warm_region(
        image.bucket_base,
        image.bucket_count * NodeLayout::HEADER_STRIDE as u64,
    );
    if image.node_count > 0 {
        warm_region(
            image.node_base,
            image.node_count * NodeLayout::NODE_STRIDE as u64,
        );
    }
    if let Some(base) = image.build_keys_base {
        warm_region(
            base,
            image.entry_count.max(1) * image.layout.key_width as u64,
        );
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::datagen;
    use widx_db::index::HashIndex;
    use widx_sim::config::SystemConfig;

    /// An image, the logical index over the same pairs (the walk oracle)
    /// and the probes laid out with it.
    pub(crate) struct Built {
        pub(crate) mem: MemorySystem,
        pub(crate) image: IndexImage,
        pub(crate) index: HashIndex,
        pub(crate) probes: Vec<u64>,
    }

    fn build(
        recipe: HashRecipe,
        min_buckets: usize,
        pairs: &[(u64, u64)],
        probes: Vec<u64>,
        layout: NodeLayout,
    ) -> Built {
        let mut mem = MemorySystem::new(SystemConfig::default());
        let mut alloc = RegionAllocator::new();
        let index = HashIndex::build(recipe, min_buckets, pairs.iter().copied());
        let buckets = index.bucket_count() as u64;
        let image = materialize(
            &mut mem,
            &mut alloc,
            index.recipe(),
            buckets,
            pairs,
            &probes,
            layout,
        );
        Built {
            mem,
            image,
            index,
            probes,
        }
    }

    fn setup(layout: NodeLayout) -> Built {
        let pairs: Vec<(u64, u64)> = (0..200u64).map(|k| (k * 3, k)).collect();
        let probes = (0..50u64).map(|i| i * 3).chain([1, 5, 1000]).collect();
        build(HashRecipe::robust64(), 64, &pairs, probes, layout)
    }

    /// Random build sides, the empty one first. Keys come from a space an
    /// eighth the size of the build, so each repeats about eight times,
    /// and twice as many buckets as keys leave many buckets empty.
    /// Payloads are row ids, as indirect layouts require; the probes are
    /// every key of the space and a few misses.
    pub(crate) fn random_builds(layout: NodeLayout) -> impl Iterator<Item = Built> {
        (0..6u64).map(move |seed| {
            let n = (seed as usize * 97) % 400;
            let space = (n as u64 / 8).max(1);
            let pairs: Vec<(u64, u64)> = datagen::uniform_keys(seed, n, space)
                .into_iter()
                .zip(0..)
                .collect();
            let recipe = if seed % 2 == 0 {
                HashRecipe::trivial()
            } else {
                HashRecipe::robust64()
            };
            build(
                recipe,
                2 * space as usize,
                &pairs,
                (0..space + 4).collect(),
                layout,
            )
        })
    }

    /// Every image walk equals `HashIndex::lookup_all`, in chain order.
    fn assert_walks_match(layout: NodeLayout) {
        for b in random_builds(layout).chain([setup(layout)]) {
            assert_eq!(
                b.image.build_keys_base.is_some(),
                layout.key_kind == KeyKind::Indirect
            );
            for &key in &b.probes {
                assert_eq!(
                    b.image.lookup_all(&b.mem, key),
                    b.index.lookup_all(key),
                    "{layout:?}, {} entries, key {key}",
                    b.index.len()
                );
            }
        }
    }

    #[test]
    fn direct_image_walks_match_logical_index() {
        assert_walks_match(NodeLayout::kernel4());
        assert_walks_match(NodeLayout::direct8());
    }

    #[test]
    fn indirect_image_walks_match_logical_index() {
        assert_walks_match(NodeLayout::indirect8());
    }

    #[test]
    fn kernel4_width_truncates_keys_correctly() {
        let b = build(
            HashRecipe::trivial(),
            8,
            &[(7, 0), (9, 1)],
            vec![7],
            NodeLayout::kernel4(),
        );
        assert_eq!(b.mem.read_uint(b.image.input_addr(0), 4), 7);
    }

    #[test]
    fn input_column_round_trips() {
        let b = setup(NodeLayout::direct8());
        for (i, k) in b.probes.iter().enumerate() {
            assert_eq!(b.mem.read_u64(b.image.input_addr(i as u64)), *k);
        }
    }

    #[test]
    fn regions_do_not_alias() {
        let image = setup(NodeLayout::direct8()).image;
        let bucket_end = image.bucket_base + image.bucket_count * 32;
        assert!(bucket_end <= image.node_base);
        let node_end = image.node_base + image.node_count.max(1) * 24;
        assert!(node_end <= image.input_base);
    }

    #[test]
    fn warm_improves_first_access() {
        let Built { mut mem, image, .. } = setup(NodeLayout::direct8());
        warm(&mut mem, &image);
        let (_, r) = mem.load(image.header_addr(0), 8, 0);
        assert!(
            matches!(
                r.level,
                widx_sim::mem::HitLevel::L1 | widx_sim::mem::HitLevel::Llc
            ),
            "level {:?}",
            r.level
        );
    }
}
