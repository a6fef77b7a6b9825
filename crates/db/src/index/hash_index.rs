//! The bucket-chained hash index of the paper's Section 2.2.
//!
//! Each bucket has a *header node* that "combines minimal status
//! information (e.g., number of items per bucket) with the first node of
//! the bucket, potentially eliminating a pointer dereference for the
//! first node". Overflow nodes live in a pool and are linked by index.
//!
//! The index is **mutable**: [`insert`](HashIndex::insert),
//! [`delete`](HashIndex::delete), and [`update`](HashIndex::update)
//! serve the online write path. An unlinked overflow node's pool slot
//! goes straight onto a free list for the next insert to reuse. No
//! walker can observe that reuse: probes borrow `&HashIndex`, mutations
//! take `&mut`, so a probe holding a node index across a yield does so
//! inside a borrow no mutation can overlap (the serving tier's shard
//! `RwLock` turns that borrow into a read guard).
//!
//! The build overlaps its misses the way the walkers do:
//! [`insert_batch`](HashIndex::insert_batch) prefetches bucket headers
//! (every line of each) a window of pairs ahead, then inserts in input
//! order, so every chain is exactly what an `insert` loop builds.
//! [`build`](HashIndex::build) reserves the bucket array, and the node
//! pool at the pair count, with [`huge_vec`]: on 2 MiB pages, a random
//! write there pays no 4 KiB walk.

use crate::hash::HashRecipe;
use crate::prefetch::{huge_vec, prefetch_lines};

/// Pairs whose headers are prefetched ahead of the insert. Depths 8, 16,
/// 32 and 64 built a DRAM-resident index equally fast.
const BUILD_WINDOW: usize = 16;

/// Sentinel for "no next node".
pub const NONE: u32 = u32::MAX;

/// A bucket header: status word plus the first node inline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bucket {
    /// Number of entries in this bucket (0 = empty).
    pub count: u32,
    /// Key of the inline first node (valid when `count > 0`).
    pub key: u64,
    /// Payload of the inline first node.
    pub payload: u64,
    /// Pool index of the second node, or [`NONE`].
    pub next: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        count: 0,
        key: 0,
        payload: 0,
        next: NONE,
    };
}

/// An overflow node in the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Node {
    /// The entry's key.
    pub key: u64,
    /// The entry's payload.
    pub payload: u64,
    /// Pool index of the next node, or [`NONE`].
    pub next: u32,
}

// The serving-tier layout, pinned: rustc reorders `Bucket`'s fields
// (two `u64`s, then the two `u32`s) into 24 bytes, not the 32 the
// declaration order would take — so three headers span 72 bytes and one
// in four straddles two 64-byte cache lines, both of which the walkers
// and the build prefetch (`prefetch_lines`). Anything that reasons about
// misses per probe (a tag byte in the header, an aligned header) starts
// from these numbers; a change here is a layout change and moves
// `rss_bytes_per_entry`.
const _: () = assert!(size_of::<Bucket>() == 24 && size_of::<Node>() == 24);

/// Build- and shape-statistics of a [`HashIndex`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexStats {
    /// Total entries.
    pub entries: usize,
    /// Number of buckets.
    pub buckets: usize,
    /// Buckets with no entries.
    pub empty_buckets: usize,
    /// Mean entries per non-empty bucket.
    pub mean_chain: f64,
    /// Longest chain (entries in the fullest bucket).
    pub max_chain: usize,
}

/// A hash index mapping `u64` keys to `u64` payloads (duplicates
/// allowed), probed exactly like Listing 1 of the paper: hash, then walk
/// the node list comparing keys.
#[derive(Clone, Debug)]
pub struct HashIndex {
    recipe: HashRecipe,
    buckets: Vec<Bucket>,
    nodes: Vec<Node>,
    /// Entry count (buckets' `count` fields summed, maintained online).
    len: usize,
    /// Unlinked overflow-pool slots, reused by the next insert. Reuse is
    /// safe because no operation both frees and allocates within one
    /// call: `delete` never allocates and `insert` never frees, so a
    /// slot is never refilled while the call that freed it still walks
    /// the chain.
    free: Vec<u32>,
    /// Slots freed since the last [`reclaim`](HashIndex::reclaim).
    freed: usize,
}

impl HashIndex {
    /// Builds an index over `pairs` with at least `min_buckets` buckets
    /// (rounded up to a power of two), by
    /// [`insert_batch`](HashIndex::insert_batch) into an empty index.
    ///
    /// # Panics
    ///
    /// Panics if `min_buckets` is zero.
    #[must_use]
    pub fn build(
        recipe: HashRecipe,
        min_buckets: usize,
        pairs: impl IntoIterator<Item = (u64, u64)>,
    ) -> HashIndex {
        assert!(min_buckets > 0, "need at least one bucket");
        let bucket_count = min_buckets.next_power_of_two();
        let pairs = pairs.into_iter();
        let mut buckets = huge_vec(bucket_count);
        buckets.resize(bucket_count, Bucket::EMPTY);
        let mut index = HashIndex {
            recipe,
            buckets,
            nodes: huge_vec(pairs.size_hint().0),
            len: 0,
            free: Vec::new(),
            freed: 0,
        };
        index.insert_batch(pairs);
        index
    }

    /// Inserts one `(key, payload)` entry (duplicates allowed).
    ///
    /// Reuses a freed pool slot when one is free; otherwise grows the
    /// pool.
    pub fn insert(&mut self, key: u64, payload: u64) {
        self.insert_at(self.bucket_index(key), key, payload);
    }

    /// Inserts every pair exactly as an [`insert`](HashIndex::insert)
    /// loop would (same chains, same free-list pops), with the bucket
    /// headers of the next 16 pairs prefetched meanwhile.
    pub fn insert_batch(&mut self, pairs: impl IntoIterator<Item = (u64, u64)>) {
        let mut window = [(0usize, 0u64, 0u64); BUILD_WINDOW];
        let mut seen = 0usize;
        for (key, payload) in pairs {
            let b = self.bucket_index(key);
            prefetch_lines(&self.buckets[b], 1);
            let (b, key, payload) =
                std::mem::replace(&mut window[seen % BUILD_WINDOW], (b, key, payload));
            if seen >= BUILD_WINDOW {
                self.insert_at(b, key, payload);
            }
            seen += 1;
        }
        for i in seen.saturating_sub(BUILD_WINDOW)..seen {
            let (b, key, payload) = window[i % BUILD_WINDOW];
            self.insert_at(b, key, payload);
        }
    }

    #[inline]
    fn bucket_index(&self, key: u64) -> usize {
        self.recipe.bucket_of(key, self.buckets.len() as u64) as usize
    }

    /// [`insert`](HashIndex::insert) into `key`'s bucket `b`.
    fn insert_at(&mut self, b: usize, key: u64, payload: u64) {
        let bucket = &mut self.buckets[b];
        if bucket.count == 0 {
            bucket.key = key;
            bucket.payload = payload;
            bucket.next = NONE;
        } else {
            // Prepend after the header to keep insertion O(1).
            let node = Node {
                key,
                payload,
                next: bucket.next,
            };
            let slot = match self.free.pop() {
                Some(slot) => {
                    self.nodes[slot as usize] = node;
                    slot
                }
                None => {
                    self.nodes.push(node);
                    (self.nodes.len() - 1) as u32
                }
            };
            self.buckets[b].next = slot;
        }
        self.buckets[b].count += 1;
        self.len += 1;
    }

    /// Removes **every** entry stored under `key`, returning how many
    /// were removed. Unlinked overflow slots go onto the free list.
    pub fn delete(&mut self, key: u64) -> usize {
        let b = self.bucket_index(key);
        if self.buckets[b].count == 0 {
            return 0;
        }
        let mut removed = 0usize;
        // Pass 1: unlink matching overflow nodes (the header is handled
        // after, so a promoted node is guaranteed not to match).
        let mut cur = self.buckets[b].next;
        let mut prev: Option<u32> = None;
        while cur != NONE {
            let node = self.nodes[cur as usize];
            if node.key == key {
                match prev {
                    Some(p) => self.nodes[p as usize].next = node.next,
                    None => self.buckets[b].next = node.next,
                }
                self.release(cur);
                removed += 1;
            } else {
                prev = Some(cur);
            }
            cur = node.next;
        }
        // Pass 2: the inline header entry.
        if self.buckets[b].key == key {
            let first = self.buckets[b].next;
            if first == NONE {
                // Bucket drains completely below.
            } else {
                // Promote the first surviving overflow node into the
                // header and free its pool slot.
                let node = self.nodes[first as usize];
                self.buckets[b].key = node.key;
                self.buckets[b].payload = node.payload;
                self.buckets[b].next = node.next;
                self.release(first);
            }
            removed += 1;
        }
        self.buckets[b].count -= removed as u32;
        if self.buckets[b].count == 0 {
            self.buckets[b] = Bucket::EMPTY;
        }
        self.len -= removed;
        removed
    }

    /// Replaces every entry under `key` with the single entry `(key,
    /// payload)`. Returns `true` if at least one entry existed (the
    /// update applied); `false` leaves the index unchanged — an update
    /// never inserts a missing key.
    pub fn update(&mut self, key: u64, payload: u64) -> bool {
        if self.delete(key) == 0 {
            return false;
        }
        self.insert(key, payload);
        true
    }

    /// Puts an unlinked pool slot on the free list.
    fn release(&mut self, slot: u32) {
        self.free.push(slot);
        self.freed += 1;
    }

    /// Pool slots freed since the last call, resetting the count. The
    /// slots themselves are reusable the moment they are freed; the name
    /// is kept only for `benchmark/` until ROADMAP direction 1a renames
    /// it.
    pub fn reclaim(&mut self) -> usize {
        std::mem::take(&mut self.freed)
    }

    /// Pool slots free for reuse.
    #[must_use]
    pub fn free_nodes(&self) -> usize {
        self.free.len()
    }

    /// The hash recipe used for key placement.
    #[must_use]
    pub fn recipe(&self) -> &HashRecipe {
        &self.recipe
    }

    /// Bucket array (for chain-stepping walkers and size probes).
    #[must_use]
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Overflow node pool.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of buckets (a power of two).
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Total entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up the first payload stored under `key`.
    #[must_use]
    pub fn lookup(&self, key: u64) -> Option<u64> {
        let mut found = None;
        self.walk(key, |payload| {
            found = Some(payload);
            false
        });
        found
    }

    /// Collects every payload stored under `key` (duplicates supported).
    #[must_use]
    pub fn lookup_all(&self, key: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.walk(key, |payload| {
            out.push(payload);
            true
        });
        out
    }

    /// Number of nodes (header included) compared while probing `key` —
    /// the walk length the paper's node-list traversal pays for.
    #[must_use]
    pub fn probe_visits(&self, key: u64) -> usize {
        let b = self.bucket_index(key);
        let bucket = &self.buckets[b];
        if bucket.count == 0 {
            return 1; // header status checked
        }
        let mut visits = 1;
        let mut next = bucket.next;
        while next != NONE {
            visits += 1;
            next = self.nodes[next as usize].next;
        }
        visits
    }

    /// Like [`walk`](HashIndex::walk), but returns the number of nodes
    /// (header included) touched — the traversal length a walker pays.
    pub fn walk_counted(&self, key: u64, mut visit: impl FnMut(u64) -> bool) -> usize {
        let b = self.bucket_index(key);
        let bucket = &self.buckets[b];
        if bucket.count == 0 {
            return 1;
        }
        let mut visits = 1;
        if bucket.key == key && !visit(bucket.payload) {
            return visits;
        }
        let mut next = bucket.next;
        while next != NONE {
            visits += 1;
            let node = &self.nodes[next as usize];
            if node.key == key && !visit(node.payload) {
                return visits;
            }
            next = node.next;
        }
        visits
    }

    /// Walks the bucket for `key`, invoking `visit` with each matching
    /// payload; the closure returns `false` to stop early.
    pub fn walk(&self, key: u64, mut visit: impl FnMut(u64) -> bool) {
        let b = self.bucket_index(key);
        let bucket = &self.buckets[b];
        if bucket.count == 0 {
            return;
        }
        if bucket.key == key && !visit(bucket.payload) {
            return;
        }
        let mut next = bucket.next;
        while next != NONE {
            let node = &self.nodes[next as usize];
            if node.key == key && !visit(node.payload) {
                return;
            }
            next = node.next;
        }
    }

    /// Shape statistics.
    #[must_use]
    pub fn stats(&self) -> IndexStats {
        let buckets = self.buckets.len();
        let empty = self.buckets.iter().filter(|b| b.count == 0).count();
        let entries = self.len();
        let max_chain = self
            .buckets
            .iter()
            .map(|b| b.count as usize)
            .max()
            .unwrap_or(0);
        let non_empty = buckets - empty;
        IndexStats {
            entries,
            buckets,
            empty_buckets: empty,
            mean_chain: if non_empty == 0 {
                0.0
            } else {
                entries as f64 / non_empty as f64
            },
            max_chain,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_of(pairs: &[(u64, u64)]) -> HashIndex {
        HashIndex::build(HashRecipe::robust64(), 64, pairs.iter().copied())
    }

    #[test]
    fn empty_index() {
        let idx = index_of(&[]);
        assert!(idx.is_empty());
        assert_eq!(idx.lookup(1), None);
        assert_eq!(idx.probe_visits(1), 1);
    }

    #[test]
    fn lookup_present_and_absent() {
        let idx = index_of(&[(1, 10), (2, 20), (3, 30)]);
        assert_eq!(idx.lookup(2), Some(20));
        assert_eq!(idx.lookup(99), None);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn duplicates_all_found() {
        let idx = index_of(&[(7, 1), (7, 2), (7, 3)]);
        let mut all = idx.lookup_all(7);
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3]);
    }

    #[test]
    fn bucket_count_rounds_to_power_of_two() {
        let idx = HashIndex::build(HashRecipe::robust64(), 100, std::iter::empty());
        assert_eq!(idx.bucket_count(), 128);
    }

    #[test]
    fn chains_form_under_load() {
        // 4 buckets, 64 keys: average chain 16.
        let pairs: Vec<(u64, u64)> = (0..64).map(|k| (k, k)).collect();
        let idx = HashIndex::build(HashRecipe::robust64(), 4, pairs.iter().copied());
        let stats = idx.stats();
        assert_eq!(stats.entries, 64);
        assert_eq!(stats.buckets, 4);
        assert!(stats.max_chain >= 8, "max chain {}", stats.max_chain);
        // Every key still findable.
        for k in 0..64 {
            assert_eq!(idx.lookup(k), Some(k), "key {k}");
        }
    }

    #[test]
    fn probe_visits_counts_chain() {
        let pairs: Vec<(u64, u64)> = (0..32).map(|k| (k, k)).collect();
        let idx = HashIndex::build(HashRecipe::robust64(), 4, pairs.iter().copied());
        let total: usize = (0..32).map(|k| idx.probe_visits(k)).sum();
        // Visiting a bucket of depth d costs d node touches; summed over
        // all keys in the index this is sum(d_b^2 over buckets)/... at
        // least one per key.
        assert!(total >= 32);
    }

    #[test]
    fn header_inline_first_node() {
        // A single-entry bucket must not allocate pool nodes.
        let idx = index_of(&[(5, 50)]);
        assert_eq!(idx.nodes().len(), 0);
        assert_eq!(idx.lookup(5), Some(50));
    }

    #[test]
    fn insert_then_lookup_online() {
        let mut idx = index_of(&[]);
        for k in 0..500u64 {
            idx.insert(k, k * 2);
        }
        assert_eq!(idx.len(), 500);
        for k in 0..500u64 {
            assert_eq!(idx.lookup(k), Some(k * 2), "key {k}");
        }
    }

    #[test]
    fn delete_removes_all_duplicates_and_reports_count() {
        let mut idx = index_of(&[(7, 1), (7, 2), (7, 3), (9, 4)]);
        assert_eq!(idx.delete(7), 3);
        assert_eq!(idx.lookup_all(7), Vec::<u64>::new());
        assert_eq!(idx.lookup(9), Some(4));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.delete(7), 0, "second delete is a miss");
        assert!(idx.free_nodes() > 0);
    }

    #[test]
    fn delete_promotes_surviving_overflow_into_header() {
        // Force one bucket: header holds the first insert, overflow the
        // rest. Deleting the header's key must keep the others findable.
        let pairs: Vec<(u64, u64)> = vec![(1, 10), (2, 20), (3, 30)];
        let mut idx = HashIndex::build(HashRecipe::robust64(), 1, pairs);
        for k in [1u64, 2, 3] {
            assert_eq!(idx.delete(k), 1, "key {k}");
            for other in [1u64, 2, 3] {
                let want = if other > k { Some(other * 10) } else { None };
                assert_eq!(idx.lookup(other), want, "after deleting {k}");
            }
        }
        assert!(idx.is_empty());
    }

    #[test]
    fn update_replaces_all_or_misses() {
        let mut idx = index_of(&[(5, 1), (5, 2), (6, 3)]);
        assert!(idx.update(5, 99));
        assert_eq!(idx.lookup_all(5), vec![99]);
        assert!(!idx.update(42, 7), "update never inserts");
        assert_eq!(idx.lookup(42), None);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn updates_in_an_overflow_chain_reuse_their_slot() {
        // One bucket: key 0 sits in the header, key 3 in the overflow
        // chain. Each update frees 3's slot and the re-insert takes it
        // back, with no reclaim call in between.
        let mut idx = HashIndex::build(HashRecipe::robust64(), 1, (0..8u64).map(|k| (k, k)));
        let pool = idx.nodes().len();
        for round in 0..1000u64 {
            assert!(idx.update(3, round));
        }
        assert_eq!(idx.nodes().len(), pool, "the pool never grew");
        assert_eq!(idx.reclaim(), 1000, "one freed slot per update");
        assert_eq!(idx.reclaim(), 0, "reclaim resets the count");
        assert_eq!(idx.lookup_all(3), vec![999]);
        for k in (0..8u64).filter(|k| *k != 3) {
            assert_eq!(idx.lookup(k), Some(k), "key {k}");
        }
    }

    #[test]
    fn mutation_oracle_against_std_hashmap() {
        use std::collections::HashMap;
        let mut idx = HashIndex::build(HashRecipe::robust64(), 16, std::iter::empty());
        let mut oracle: HashMap<u64, Vec<u64>> = HashMap::new();
        // Deterministic mixed workload over a small key space so
        // inserts, deletes, updates, and misses all occur.
        let mut state = 0x9E3779B97F4A7C15u64;
        for step in 0..4000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (state >> 33) % 64;
            let payload = step;
            match state % 4 {
                0 | 1 => {
                    idx.insert(key, payload);
                    oracle.entry(key).or_default().push(payload);
                }
                2 => {
                    let removed = idx.delete(key);
                    let want = oracle.remove(&key).map_or(0, |v| v.len());
                    assert_eq!(removed, want, "delete {key} at step {step}");
                }
                _ => {
                    let applied = idx.update(key, payload);
                    match oracle.get_mut(&key) {
                        Some(v) if !v.is_empty() => {
                            assert!(applied);
                            v.clear();
                            v.push(payload);
                        }
                        _ => assert!(!applied),
                    }
                }
            }
        }
        for key in 0..64u64 {
            let mut got = idx.lookup_all(key);
            got.sort_unstable();
            let mut want = oracle.get(&key).cloned().unwrap_or_default();
            want.sort_unstable();
            assert_eq!(got, want, "key {key}");
        }
        assert_eq!(idx.len(), oracle.values().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn stats_on_uniform_fill() {
        let pairs: Vec<(u64, u64)> = (0..1024).map(|k| (k * 3, k)).collect();
        let idx = HashIndex::build(HashRecipe::robust64(), 1024, pairs.iter().copied());
        let s = idx.stats();
        assert_eq!(s.entries, 1024);
        assert!(s.mean_chain < 3.0, "mean chain {}", s.mean_chain);
    }

    /// The build advises its bucket array before the first write, so a
    /// 48 MiB one faults in on 2 MiB pages. Advice given after the
    /// `vec![Bucket::EMPTY; n]` fill would find every 4 KiB page mapped.
    #[test]
    fn a_large_bucket_array_lands_on_huge_pages() {
        let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
        match thp {
            Ok(mode) if !mode.contains("[never]") => {}
            other => {
                eprintln!("skipped: transparent huge pages unavailable ({other:?})");
                return;
            }
        }
        let idx = HashIndex::build(
            HashRecipe::robust64(),
            1 << 21,
            (0..1 << 16).map(|k| (k, k)),
        );
        let array = idx.buckets().as_ptr_range();
        let (lo, hi) = (array.start as usize, array.end as usize);
        // The advice splits the allocation's mapping in three: the 4 KiB
        // head holding `as_ptr`, the advised interior, the tail. Sum the
        // `AnonHugePages` of every mapping that overlaps the array.
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read smaps");
        let (mut overlaps, mut huge_kb) = (false, 0u64);
        for line in smaps.lines() {
            let range = line
                .split_whitespace()
                .next()
                .and_then(|r| r.split_once('-'));
            let bounds = range.and_then(|(a, b)| {
                Some((
                    usize::from_str_radix(a, 16).ok()?,
                    usize::from_str_radix(b, 16).ok()?,
                ))
            });
            if let Some((start, end)) = bounds {
                overlaps = start < hi && lo < end;
            } else if let Some(kb) = line.strip_prefix("AnonHugePages:") {
                if overlaps {
                    huge_kb += kb.trim().trim_end_matches(" kB").parse::<u64>().unwrap();
                }
            }
        }
        assert!(
            huge_kb > 0,
            "no huge page under the {} MiB bucket array",
            (hi - lo) >> 20
        );
    }
}
