//! A B+-tree index — the paper's Section 7 notes Widx "can easily be
//! extended to accelerate other index structures, such as balanced
//! trees, which are also common in DBMSs"; this is the tree that
//! extension targets.
//!
//! The tree is built bottom-up over sorted entries into flat node
//! *arenas* (one per inner level, plus the leaf arena), which keeps
//! lookups allocation-free and makes the structure directly
//! materializable into simulated memory. An arena is one `Vec<u64>` of
//! fixed-stride slots, one per node, so a node is one contiguous run of
//! cache lines, addressable from its index without a load:
//!
//! ```text
//! [ len | parent ] [ next | prev ] [ fanout + 1 keys ] [ fanout + 1 payloads or children ]
//! ```
//!
//! Two header words of `u32` pairs (`next` / `prev` link leaves only),
//! the keys, then a leaf's payloads or an inner node's children. `len`
//! counts a leaf's entries or an inner node's children (it holds one
//! separator fewer). The spare entry lets an insert land before the
//! split it triggers. At the serving default fanout of 64 a slot is
//! 1 056 bytes and a full node spans 17 or 18 cache lines, which the
//! scan step in `widx-soft` prefetches by this layout, in one step.
//!
//! Unlike the original frozen build, the arenas are **mutable**:
//! [`insert`](BTreeIndex::insert) splits full leaves (and full inner
//! nodes, growing a new root level when the root itself splits),
//! [`delete`](BTreeIndex::delete) merges underfull leaves into a
//! same-parent sibling and unlinks emptied nodes, and a freed slot goes
//! straight onto its arena's free list for the next split to reuse;
//! entries move inside and between slots by `copy_within`. No reader
//! can observe that reuse: scans borrow `&BTreeIndex`, mutations take
//! `&mut`, so no cursor outlives the borrow it was taken under (the
//! serving tier's shard `RwLock` turns that borrow into a read guard).
//!
//! Concurrency-relevant structure for the walkers upstairs:
//!
//! * leaves form a doubly linked chain ([`leaf_next`](
//!   BTreeIndex::leaf_next) / [`leaf_prev`](BTreeIndex::leaf_prev)) in
//!   key order — range scans step links, never adjacent array slots;
//! * a cursor position is a `(leaf, slot)` pair and is valid only while
//!   the borrow it was taken under lives: nothing versions a leaf, so
//!   no position survives a mutation (the serving tier rebuilds its
//!   walkers per batch, under the shard's read guard);
//! * the tree height never shrinks: emptied inner nodes are unlinked,
//!   but surviving single-child ancestors simply pass descents through.
//!   Separator keys may go stale (they remain correct lower bounds),
//!   which is why scans land by separator and then follow the chain.

use std::ops::Range;

use super::sort::sort_pairs;
use crate::prefetch::huge_vec;

/// Sentinel node index ("no node").
const NONE: u32 = u32::MAX;

/// Header words at the front of every slot.
const HEAD: usize = 2;

/// A header field: its word in the slot and its shift within the word.
/// `LEN` counts entries (leaf) or children (inner node); `PARENT` is the
/// owning inner node one level up, `NEXT` / `PREV` the chain's in-order
/// neighbours, each [`NONE`] where there is none.
type Field = (usize, u32);
const LEN: Field = (0, 0);
const PARENT: Field = (0, 32);
const NEXT: Field = (1, 0);
const PREV: Field = (1, 32);

/// One node arena — the leaves, or one inner level — in fixed-stride
/// slots of one `Vec<u64>` (layout in the module docs).
#[derive(Clone, Debug)]
struct Slots {
    /// Keys, and payloads or children, per slot: `fanout + 1`.
    cap: usize,
    words: Vec<u64>,
}

impl Slots {
    /// `count` zeroed slots for a tree of `fanout`, from [`huge_vec`].
    fn new(fanout: usize, count: usize) -> Slots {
        let cap = fanout + 1;
        let len = count * (HEAD + 2 * cap);
        let mut words = huge_vec(len);
        words.resize(len, 0);
        Slots { cap, words }
    }

    fn stride(&self) -> usize {
        HEAD + 2 * self.cap
    }

    /// Slots in the arena, free ones included.
    fn count(&self) -> usize {
        self.words.len() / self.stride()
    }

    /// Word offset of slot `i`'s first key.
    fn keys_at(&self, i: u32) -> usize {
        i as usize * self.stride() + HEAD
    }

    fn get(&self, i: u32, (word, shift): Field) -> u32 {
        (self.words[i as usize * self.stride() + word] >> shift) as u32
    }

    fn set(&mut self, i: u32, (word, shift): Field, value: u32) {
        let at = i as usize * self.stride() + word;
        let w = &mut self.words[at];
        *w = (*w & !(u64::from(u32::MAX) << shift)) | (u64::from(value) << shift);
    }

    fn len(&self, i: u32) -> usize {
        self.get(i, LEN) as usize
    }

    fn set_len(&mut self, i: u32, len: usize) {
        self.set(i, LEN, len as u32);
    }

    /// Writes slot `i`'s whole header.
    fn set_head(&mut self, i: u32, len: usize, parent: u32, next: u32, prev: u32) {
        let at = i as usize * self.stride();
        self.words[at] = len as u64 | (u64::from(parent) << 32);
        self.words[at + 1] = u64::from(next) | (u64::from(prev) << 32);
    }

    /// Slot `i`'s first `keys` keys and first `vals` values.
    fn node(&self, i: u32, keys: usize, vals: usize) -> (&[u64], &[u64]) {
        let k = self.keys_at(i);
        let v = k + self.cap;
        (&self.words[k..k + keys], &self.words[v..v + vals])
    }

    /// Slot `i`'s whole key and value regions, for edits in place.
    fn node_mut(&mut self, i: u32) -> (&mut [u64], &mut [u64]) {
        let k = self.keys_at(i);
        let cap = self.cap;
        self.words[k..k + 2 * cap].split_at_mut(cap)
    }

    /// Copies `n` keys and `n` values of slot `from`, from entry `at`
    /// on, into slot `to` from entry `to_at` on.
    fn copy(&mut self, (from, at): (u32, usize), (to, to_at): (u32, usize), n: usize) {
        let (src, dst) = (self.keys_at(from) + at, self.keys_at(to) + to_at);
        for region in [0, self.cap] {
            self.words
                .copy_within(src + region..src + region + n, dst + region);
        }
    }

    /// An empty slot under `parent`, linked to `next` / `prev`: the last
    /// one `free` holds, or a new one at the end of the arena.
    fn alloc(&mut self, free: &mut Vec<u32>, parent: u32, next: u32, prev: u32) -> u32 {
        let i = free.pop().unwrap_or_else(|| {
            self.words.resize(self.words.len() + self.stride(), 0);
            (self.count() - 1) as u32
        });
        self.set_head(i, 0, parent, next, prev);
        i
    }
}

/// Inserts `word` at `at` among the first `live` words of `region`.
fn shift_in(region: &mut [u64], live: usize, at: usize, word: u64) {
    region.copy_within(at..live, at + 1);
    region[at] = word;
}

/// Removes `gone` from the first `live` words of `region`.
fn shift_out(region: &mut [u64], live: usize, gone: Range<usize>) {
    region.copy_within(gone.end..live, gone.start);
}

/// Where `child` sits among an inner node's `children`.
fn slot_of(children: &[u64], child: u32) -> usize {
    let slot = children.iter().position(|c| *c == u64::from(child));
    slot.expect("a child under its parent")
}

/// A B+-tree over `u64` keys (duplicates allowed) supporting online
/// mutation, with freed node slots reused through free lists.
#[derive(Clone, Debug)]
pub struct BTreeIndex {
    fanout: usize,
    /// Levels of inner nodes, root level last; the root is always node
    /// 0 of the top level. Empty when the tree is a single leaf.
    /// Separator `i` of a node is the smallest key reachable through
    /// child `i + 1` at the time it was created (a lower bound;
    /// deletions may leave it stale, insertions keep it exact).
    levels: Vec<Slots>,
    /// Leaf arena; may contain free slots after mutation.
    leaves: Slots,
    /// First live leaf in key order.
    head: u32,
    /// Last live leaf in key order.
    tail: u32,
    /// Live (chained) leaves.
    live_leaves: usize,
    /// Total entries.
    len: usize,
    /// Unlinked leaf slots, reused by the next leaf split. Reuse is safe
    /// because no operation both frees and allocates within one call:
    /// `delete` (merge, unlink) never allocates and `insert` (split)
    /// never frees, so a slot is never refilled while the call that
    /// freed it still holds its index.
    free_leaves: Vec<u32>,
    /// Unlinked inner slots, one list per level (parallel to `levels`),
    /// under the same rule.
    free_inners: Vec<Vec<u32>>,
    /// Slots freed since the last [`reclaim`](BTreeIndex::reclaim).
    freed: usize,
}

impl BTreeIndex {
    /// Builds a tree with the given `fanout` from `pairs`, in any order:
    /// they are collected and stably radix-sorted by key on the calling
    /// thread, so duplicate keys keep their input payload order. A
    /// range-sharded build (one sort, each shard a slice of it) therefore
    /// scans in exactly the order of one tree over everything — the
    /// property the ordered-serving oracle tests rely on.
    ///
    /// # Panics
    ///
    /// Panics if `fanout < 2`.
    #[must_use]
    pub fn build(fanout: usize, pairs: impl IntoIterator<Item = (u64, u64)>) -> BTreeIndex {
        let mut entries: Vec<(u64, u64)> = pairs.into_iter().collect();
        sort_pairs(&mut entries, 1);
        BTreeIndex::from_sorted(fanout, &entries)
    }

    /// Packs key-sorted `entries` bottom-up into exactly sized arenas:
    /// full leaves of `fanout` entries (the last may be short), then
    /// inner levels grouping `fanout` consecutive nodes of the level
    /// below until one root remains — so node `i`'s parent is node
    /// `i / fanout` one level up. Panics if `fanout < 2`.
    pub(super) fn from_sorted(fanout: usize, entries: &[(u64, u64)]) -> BTreeIndex {
        assert!(fanout >= 2, "fanout must be at least 2");
        debug_assert!(entries.windows(2).all(|w| w[0].0 <= w[1].0));
        let parent = |i: usize, width: usize| if width > 1 { (i / fanout) as u32 } else { NONE };
        let width = entries.len().div_ceil(fanout).max(1);
        let mut leaves = Slots::new(fanout, width);
        let mut first_keys = Vec::with_capacity(width);
        // An empty tree is one empty leaf.
        let chunks = entries
            .chunks(fanout)
            .chain(entries.is_empty().then_some(entries));
        for (i, chunk) in chunks.enumerate() {
            first_keys.push(chunk.first().map_or(0, |(k, _)| *k));
            let next = if i + 1 < width { i as u32 + 1 } else { NONE };
            let prev = if i > 0 { i as u32 - 1 } else { NONE };
            leaves.set_head(i as u32, chunk.len(), parent(i, width), next, prev);
            let (keys, payloads) = leaves.node_mut(i as u32);
            for (j, &(k, p)) in chunk.iter().enumerate() {
                (keys[j], payloads[j]) = (k, p);
            }
        }

        // Build inner levels bottom-up until one root remains.
        let mut levels = Vec::new();
        let mut below = width;
        while below > 1 {
            let above = below.div_ceil(fanout);
            let mut inners = Slots::new(fanout, above);
            let mut next_first_keys = Vec::with_capacity(above);
            for (n, group) in first_keys.chunks(fanout).enumerate() {
                next_first_keys.push(group[0]);
                inners.set_head(n as u32, group.len(), parent(n, above), NONE, NONE);
                let (keys, children) = inners.node_mut(n as u32);
                keys[..group.len() - 1].copy_from_slice(&group[1..]);
                for (c, child) in children[..group.len()].iter_mut().enumerate() {
                    *child = (n * fanout + c) as u64;
                }
            }
            levels.push(inners);
            first_keys = next_first_keys;
            below = above;
        }

        BTreeIndex {
            fanout,
            head: 0,
            tail: width as u32 - 1,
            live_leaves: width,
            len: entries.len(),
            free_inners: vec![Vec::new(); levels.len()],
            levels,
            leaves,
            free_leaves: Vec::new(),
            freed: 0,
        }
    }

    /// Keys and payloads of leaf slot `leaf`.
    fn leaf(&self, leaf: u32) -> (&[u64], &[u64]) {
        let n = self.leaves.len(leaf);
        self.leaves.node(leaf, n, n)
    }

    /// Separators and children of inner slot `node` at level `li`.
    fn inner(&self, li: usize, node: u32) -> (&[u64], &[u64]) {
        let n = self.levels[li].len(node);
        self.levels[li].node(node, n.saturating_sub(1), n)
    }

    /// The tree's fanout.
    #[must_use]
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Tree height in node visits per lookup (1 for a lone leaf).
    #[must_use]
    pub fn height(&self) -> usize {
        self.levels.len() + 1
    }

    /// Total entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Descends from the root to a leaf. `upper` picks the rightmost
    /// leaf whose range can hold `key` (`<=` separators — insert and
    /// descending-scan entry); otherwise the leftmost (`<` — ascending
    /// scans, deletes). Callers follow the leaf chain from there.
    fn descend_leaf(&self, key: u64, upper: bool) -> u32 {
        if self.levels.is_empty() {
            return self.head;
        }
        let mut node = 0u32;
        for li in (0..self.levels.len()).rev() {
            let (keys, children) = self.inner(li, node);
            let slot = keys.partition_point(|k| *k < key || (upper && *k == key));
            node = children[slot] as u32;
        }
        node
    }

    /// The leaf holding the first entries under `key`, and their slots
    /// `start..end` in it; `None` when `key` is absent.
    fn land(&self, key: u64) -> Option<(u32, usize, usize)> {
        // Land on the leftmost leaf whose range covers `key`, then
        // follow the chain — separators may be stale lower bounds,
        // so the landing leaf can sit one or more links early.
        let mut leaf = self.descend_leaf(key, false);
        loop {
            let (keys, _) = self.leaf(leaf);
            let start = keys.partition_point(|k| *k < key);
            let end = keys.partition_point(|k| *k <= key);
            if start < end {
                return Some((leaf, start, end));
            }
            let next = self.leaves.get(leaf, NEXT);
            if keys.last().is_some_and(|k| *k > key) || next == NONE {
                return None;
            }
            leaf = next;
        }
    }

    /// Inserts one `(key, payload)` entry. Duplicates are allowed and
    /// keep insertion order (the new entry lands after every existing
    /// entry of the same key, matching the stable build order).
    pub fn insert(&mut self, key: u64, payload: u64) {
        let leaf = self.descend_leaf(key, true);
        let n = self.leaves.len(leaf);
        let (keys, payloads) = self.leaves.node_mut(leaf);
        let slot = keys[..n].partition_point(|k| *k <= key);
        shift_in(keys, n, slot, key);
        shift_in(payloads, n, slot, payload);
        self.leaves.set_len(leaf, n + 1);
        self.len += 1;
        if n + 1 > self.fanout {
            self.split_leaf(leaf);
        }
    }

    /// Removes **every** entry stored under `key`, returning how many
    /// were removed. Emptied leaves are unlinked and freed; underfull
    /// leaves merge into a same-parent sibling when the result fits.
    pub fn delete(&mut self, key: u64) -> usize {
        let mut removed = 0usize;
        while let Some((leaf, start, end)) = self.land(key) {
            let n = self.leaves.len(leaf);
            let (keys, payloads) = self.leaves.node_mut(leaf);
            shift_out(keys, n, start..end);
            shift_out(payloads, n, start..end);
            self.leaves.set_len(leaf, n - (end - start));
            self.len -= end - start;
            removed += end - start;
            self.rebalance_leaf(leaf);
            // Duplicates may span further leaves; re-descend (the
            // rebalance may have restructured links and parents).
        }
        removed
    }

    /// Replaces every entry under `key` with the single entry `(key,
    /// payload)`. Returns `true` if at least one entry existed (the
    /// update applied); `false` leaves the tree unchanged — an update
    /// never inserts a missing key. A lone entry whose leaf holds a
    /// larger key after it (so no duplicate can follow in the next
    /// leaf) is overwritten in place; anything else is a delete and an
    /// insert.
    pub fn update(&mut self, key: u64, payload: u64) -> bool {
        let Some((leaf, start, end)) = self.land(key) else {
            return false;
        };
        if end - start == 1 && end < self.leaves.len(leaf) {
            self.leaves.node_mut(leaf).1[start] = payload;
            return true;
        }
        self.delete(key);
        self.insert(key, payload);
        true
    }

    /// Splits `leaf` (over fanout) into itself (lower half) and a new
    /// right sibling, promoting the sibling's first key to the parent.
    fn split_leaf(&mut self, leaf: u32) {
        let n = self.leaves.len(leaf);
        let mid = n / 2;
        let next = self.leaves.get(leaf, NEXT);
        let parent = self.leaves.get(leaf, PARENT);
        let right = self.leaves.alloc(&mut self.free_leaves, parent, next, leaf);
        self.leaves.copy((leaf, mid), (right, 0), n - mid);
        self.leaves.set_len(leaf, mid);
        self.leaves.set_len(right, n - mid);
        let sep = self.leaf(right).0[0];
        self.leaves.set(leaf, NEXT, right);
        if next == NONE {
            self.tail = right;
        } else {
            self.leaves.set(next, PREV, right);
        }
        self.live_leaves += 1;
        self.promote(0, parent, sep, leaf, right);
    }

    /// Inserts separator `sep` and child `right` after child `left`
    /// into the parent at level `li` (the level the *parent* lives at),
    /// splitting upward as needed. `parent == NONE` grows a new root
    /// level with children `[left, right]`.
    fn promote(&mut self, li: usize, parent: u32, sep: u64, left: u32, right: u32) {
        if parent == NONE {
            debug_assert_eq!(li, self.levels.len(), "only the root has no parent");
            let mut root = Slots::new(self.fanout, 1);
            root.set_head(0, 2, NONE, NONE, NONE);
            let (keys, children) = root.node_mut(0);
            keys[0] = sep;
            children[..2].copy_from_slice(&[left.into(), right.into()]);
            self.levels.push(root);
            self.free_inners.push(Vec::new());
            self.set_parent(li, left, 0);
            self.set_parent(li, right, 0);
            return;
        }
        let n = self.levels[li].len(parent);
        let (keys, children) = self.levels[li].node_mut(parent);
        let slot = slot_of(&children[..n], left);
        shift_in(keys, n - 1, slot, sep);
        shift_in(children, n, slot + 1, right.into());
        self.levels[li].set_len(parent, n + 1);
        self.set_parent(li, right, parent);
        if n < self.fanout {
            return;
        }
        // Split the parent: left half stays in place, the right half
        // moves to a fresh node, and the middle separator is promoted.
        let n = n + 1;
        let mid = n / 2;
        let promoted = self.inner(li, parent).0[mid - 1];
        let grand = self.levels[li].get(parent, PARENT);
        let rnode = self.levels[li].alloc(&mut self.free_inners[li], grand, NONE, NONE);
        // The key after the last separator moves too; it is dead.
        let level = &mut self.levels[li];
        level.copy((parent, mid), (rnode, 0), n - mid);
        level.set_len(parent, mid);
        level.set_len(rnode, n - mid);
        for slot in 0..n - mid {
            let child = self.inner(li, rnode).1[slot] as u32;
            self.set_parent(li, child, rnode);
        }
        self.promote(li + 1, grand, promoted, parent, rnode);
    }

    /// Sets the parent pointer of a child of an inner node at level
    /// `li` (the child is a leaf when `li == 0`).
    fn set_parent(&mut self, li: usize, child: u32, parent: u32) {
        let arena = match li {
            0 => &mut self.leaves,
            _ => &mut self.levels[li - 1],
        };
        arena.set(child, PARENT, parent);
    }

    /// After a removal from `leaf`: free it if it emptied, or merge it
    /// with a same-parent sibling if it underflowed and the merge fits
    /// in one leaf.
    fn rebalance_leaf(&mut self, leaf: u32) {
        let n = self.leaves.len(leaf);
        if n == 0 {
            if self.live_leaves == 1 {
                return; // the last leaf stays (an empty tree keeps one leaf)
            }
            self.unlink_and_free_leaf(leaf);
            return;
        }
        if n * 2 >= self.fanout {
            return; // no underflow
        }
        let parent = self.leaves.get(leaf, PARENT);
        if parent == NONE {
            return; // root leaf: nothing to merge with
        }
        let siblings = self.inner(0, parent).1;
        let slot = slot_of(siblings, leaf);
        // Prefer absorbing the right sibling; fall back to merging into
        // the left one. Only same-parent merges, so the parent loses
        // exactly one child and one separator.
        let right = siblings.get(slot + 1).map(|c| *c as u32);
        let left = slot.checked_sub(1).map(|s| siblings[s] as u32);
        let fits = |sibling: u32| n + self.leaves.len(sibling) <= self.fanout;
        if let Some(right) = right.filter(|&right| fits(right)) {
            self.absorb_right_leaf(leaf, right);
        } else if let Some(left) = left.filter(|&left| fits(left)) {
            self.absorb_right_leaf(left, leaf);
        }
    }

    /// Moves every entry of `right` into `left` (its chain
    /// predecessor under the same parent), then unlinks and frees
    /// `right`.
    fn absorb_right_leaf(&mut self, left: u32, right: u32) {
        let (ln, rn) = (self.leaves.len(left), self.leaves.len(right));
        self.leaves.copy((right, 0), (left, ln), rn);
        self.leaves.set_len(left, ln + rn);
        self.unlink_and_free_leaf(right);
    }

    /// Unlinks `leaf` from the chain, removes it from its parent, and
    /// frees its slot.
    fn unlink_and_free_leaf(&mut self, leaf: u32) {
        let next = self.leaves.get(leaf, NEXT);
        let prev = self.leaves.get(leaf, PREV);
        let parent = self.leaves.get(leaf, PARENT);
        if prev == NONE {
            self.head = next;
        } else {
            self.leaves.set(prev, NEXT, next);
        }
        if next == NONE {
            self.tail = prev;
        } else {
            self.leaves.set(next, PREV, prev);
        }
        self.leaves.set_head(leaf, 0, NONE, NONE, NONE);
        self.live_leaves -= 1;
        self.free_leaves.push(leaf);
        self.freed += 1;
        if parent != NONE {
            self.remove_child(0, parent, leaf);
        }
    }

    /// Removes `child` from the inner node `parent` at level `li`,
    /// freeing emptied inner nodes up the tree. The root inner node is
    /// never freed (the tree keeps its height).
    fn remove_child(&mut self, li: usize, parent: u32, child: u32) {
        let n = self.levels[li].len(parent);
        let (keys, children) = self.levels[li].node_mut(parent);
        let slot = slot_of(&children[..n], child);
        shift_out(children, n, slot..slot + 1);
        // Its separator goes too: the one left of it, or right of slot 0.
        if n > 1 {
            let sep = slot.saturating_sub(1);
            shift_out(keys, n - 1, sep..sep + 1);
        }
        self.levels[li].set_len(parent, n - 1);
        if n == 1 {
            let grand = self.levels[li].get(parent, PARENT);
            debug_assert!(grand != NONE, "the root cannot empty while a leaf lives");
            self.levels[li].set(parent, PARENT, NONE);
            self.free_inners[li].push(parent);
            self.freed += 1;
            if grand != NONE {
                self.remove_child(li + 1, grand, parent);
            }
        }
    }

    /// Slots (leaves and inner nodes) freed since the last call,
    /// resetting the count. The slots themselves are reusable the moment
    /// they are freed; the name is kept only for `benchmark/` until
    /// ROADMAP direction 1a renames it.
    pub fn reclaim(&mut self) -> usize {
        std::mem::take(&mut self.freed)
    }

    /// Slots (leaves and inner nodes) free for reuse.
    #[must_use]
    pub fn free_nodes(&self) -> usize {
        self.free_leaves.len() + self.free_inners.iter().map(Vec::len).sum::<usize>()
    }

    /// Looks up the first payload under `key` (in the rightmost leaf
    /// holding it), also reporting the number of nodes visited (the
    /// traversal length Widx would walk).
    #[must_use]
    pub fn lookup_counted(&self, key: u64) -> (Option<u64>, usize) {
        let mut visits = 0usize;
        let mut idx = if self.levels.is_empty() { self.head } else { 0 };
        // Descend inner levels from the root (last level) downwards.
        for li in (0..self.levels.len()).rev() {
            visits += 1;
            let (keys, children) = self.inner(li, idx);
            idx = children[keys.partition_point(|k| *k <= key)] as u32;
        }
        visits += 1;
        let (keys, payloads) = self.leaf(idx);
        let slot = keys.partition_point(|k| *k < key);
        let hit = (keys.get(slot) == Some(&key)).then(|| payloads[slot]);
        (hit, visits)
    }

    /// Looks up the first payload under `key`.
    #[must_use]
    pub fn lookup(&self, key: u64) -> Option<u64> {
        self.lookup_counted(key).0
    }

    /// All `(key, payload)` entries with `lo <= key <= hi`, in key order
    /// (duplicates in insertion order), truncated to the first `limit` —
    /// the serial range-scan oracle the walker engines are checked
    /// against. Empty when `lo > hi` or `limit == 0`.
    #[must_use]
    pub fn range_scan(&self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        if lo > hi || limit == 0 {
            return out;
        }
        // Land on the leftmost leaf whose range can reach `lo`, then
        // walk the chain.
        let mut leaf = self.descend_leaf(lo, false);
        let mut slot = self.leaf(leaf).0.partition_point(|k| *k < lo);
        loop {
            let (keys, payloads) = self.leaf(leaf);
            while slot < keys.len() {
                let key = keys[slot];
                if key > hi {
                    return out;
                }
                out.push((key, payloads[slot]));
                if out.len() == limit {
                    return out;
                }
                slot += 1;
            }
            leaf = self.leaves.get(leaf, NEXT);
            if leaf == NONE {
                return out;
            }
            slot = 0;
        }
    }

    /// All `(key, payload)` entries with `lo <= key <= hi`, in
    /// *descending* key order (duplicates in reverse insertion order),
    /// truncated to the first `limit` — the serial oracle for
    /// `ORDER BY key DESC` scans and the reverse walker engines. Empty
    /// when `lo > hi` or `limit == 0`.
    #[must_use]
    pub fn range_scan_desc(&self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        if lo > hi || limit == 0 {
            return out;
        }
        // Land on the rightmost leaf whose range can reach `hi`, then
        // walk the chain backwards.
        let mut leaf = self.descend_leaf(hi, true);
        // Everything below this slot is <= hi; walk it downward.
        let mut slot = self.leaf(leaf).0.partition_point(|k| *k <= hi);
        loop {
            let (keys, payloads) = self.leaf(leaf);
            while slot > 0 {
                slot -= 1;
                let key = keys[slot];
                if key < lo {
                    return out;
                }
                out.push((key, payloads[slot]));
                if out.len() == limit {
                    return out;
                }
            }
            leaf = self.leaves.get(leaf, PREV);
            if leaf == NONE {
                return out;
            }
            slot = self.leaves.len(leaf);
        }
    }

    /// Number of inner levels above the leaves (0 for a lone leaf).
    #[must_use]
    pub fn inner_level_count(&self) -> usize {
        self.levels.len()
    }

    /// Separator keys of inner node `node`, `depth` levels below the
    /// root (depth 0 is the root). `keys()[i]` is the smallest key
    /// reachable through child `i + 1` (a lower bound after deletions).
    ///
    /// # Panics
    ///
    /// Panics if `depth` or `node` is out of range.
    #[must_use]
    pub fn inner_keys(&self, depth: usize, node: u32) -> &[u64] {
        self.inner(self.levels.len() - 1 - depth, node).0
    }

    /// Child index `slot` of inner node `node` at `depth` below the
    /// root. The result indexes the next inner level down, or the leaf
    /// arena when `depth == inner_level_count() - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `depth`, `node`, or `slot` is out of range.
    #[must_use]
    pub fn inner_child(&self, depth: usize, node: u32, slot: usize) -> u32 {
        self.inner(self.levels.len() - 1 - depth, node).1[slot] as u32
    }

    /// Size of the leaf arena (equal to the live leaf count for a
    /// freshly built tree; after mutation the arena may contain free
    /// slots — use [`live_leaf_count`](Self::live_leaf_count) and the
    /// chain accessors for traversal).
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.leaves.count()
    }

    /// Leaves currently linked into the chain (always at least 1; an
    /// empty tree keeps one empty leaf).
    #[must_use]
    pub fn live_leaf_count(&self) -> usize {
        self.live_leaves
    }

    /// The first live leaf in key order.
    #[must_use]
    pub fn first_leaf(&self) -> u32 {
        self.head
    }

    /// The last live leaf in key order.
    #[must_use]
    pub fn last_leaf(&self) -> u32 {
        self.tail
    }

    /// The in-order successor of `leaf`, if any.
    #[must_use]
    pub fn leaf_next(&self, leaf: u32) -> Option<u32> {
        let next = self.leaves.get(leaf, NEXT);
        (next != NONE).then_some(next)
    }

    /// The in-order predecessor of `leaf`, if any.
    #[must_use]
    pub fn leaf_prev(&self, leaf: u32) -> Option<u32> {
        let prev = self.leaves.get(leaf, PREV);
        (prev != NONE).then_some(prev)
    }

    /// Keys and payloads of `leaf`, in key order. Follow
    /// [`leaf_next`](Self::leaf_next) for the in-order successor.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    #[must_use]
    pub fn leaf_entries(&self, leaf: u32) -> (&[u64], &[u64]) {
        self.leaf(leaf)
    }

    /// Every entry in key order (duplicates in insertion order) — a
    /// full chain walk.
    #[must_use]
    pub fn entries(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.len);
        let mut leaf = self.head;
        while leaf != NONE {
            let (keys, payloads) = self.leaf(leaf);
            out.extend(keys.iter().copied().zip(payloads.iter().copied()));
            leaf = self.leaves.get(leaf, NEXT);
        }
        out
    }

    /// Exports the tree's structure as plain data, for materialization
    /// into simulated memory. The export is *compacted*: a mutated
    /// tree is re-packed into dense arrays (leaf `i + 1` is the
    /// in-order successor of leaf `i`), so free arena slots never leak
    /// into simulated memory.
    #[must_use]
    pub fn export(&self) -> BTreeExport {
        // Repacking the chain-ordered entry stream reproduces the
        // canonical bottom-up packing, duplicate order intact.
        let packed = BTreeIndex::from_sorted(self.fanout, &self.entries());
        let nodes = |arena: &Slots| 0..arena.count() as u32;
        BTreeExport {
            fanout: self.fanout,
            levels: (0..packed.levels.len())
                .map(|li| {
                    nodes(&packed.levels[li])
                        .map(|i| packed.inner(li, i))
                        .map(|(keys, children)| {
                            (keys.to_vec(), children.iter().map(|c| *c as u32).collect())
                        })
                        .collect()
                })
                .collect(),
            leaves: nodes(&packed.leaves)
                .map(|i| packed.leaf(i))
                .map(|(keys, payloads)| (keys.to_vec(), payloads.to_vec()))
                .collect(),
        }
    }
}

/// Plain-data view of a [`BTreeIndex`]'s structure.
///
/// `levels` are bottom-up (level 0's children index into `leaves`, the
/// last level holds the single root); each inner node is its separator
/// keys plus child indices into the level below.
#[derive(Clone, Debug)]
pub struct BTreeExport {
    /// Tree fanout.
    pub fanout: usize,
    /// Inner levels, bottom-up; `(separator keys, child indices)`.
    pub levels: Vec<Vec<(Vec<u64>, Vec<u32>)>>,
    /// Leaves as `(keys, payloads)`.
    pub leaves: Vec<(Vec<u64>, Vec<u64>)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        let t = BTreeIndex::build(4, std::iter::empty());
        assert!(t.is_empty());
        assert_eq!(t.lookup(5), None);
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn single_leaf() {
        let t = BTreeIndex::build(8, (0..5u64).map(|k| (k, k * 10)));
        assert_eq!(t.height(), 1);
        assert_eq!(t.lookup(3), Some(30));
        assert_eq!(t.lookup(9), None);
    }

    #[test]
    fn multi_level_lookups() {
        let t = BTreeIndex::build(4, (0..1000u64).map(|k| (k * 2, k)));
        assert!(t.height() >= 4, "height {}", t.height());
        for k in 0..1000u64 {
            assert_eq!(t.lookup(k * 2), Some(k), "key {}", k * 2);
            assert_eq!(t.lookup(k * 2 + 1), None);
        }
    }

    #[test]
    fn visits_equal_height() {
        let t = BTreeIndex::build(4, (0..256u64).map(|k| (k, k)));
        let (_, visits) = t.lookup_counted(17);
        assert_eq!(visits, t.height());
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let t = BTreeIndex::build(4, [(5u64, 50u64), (1, 10), (3, 30), (2, 20), (4, 40)]);
        for k in 1..=5u64 {
            assert_eq!(t.lookup(k), Some(k * 10));
        }
    }

    #[test]
    fn range_scan_matches_filtered_entries() {
        let t = BTreeIndex::build(4, (0..500u64).map(|k| (k * 2, k)));
        let got = t.range_scan(100, 200, usize::MAX);
        let want: Vec<(u64, u64)> = (50..=100u64).map(|k| (k * 2, k)).collect();
        assert_eq!(got, want);
        // Bounds that fall between keys.
        assert_eq!(t.range_scan(101, 103, usize::MAX), vec![(102, 51)]);
        // Empty and inverted ranges.
        assert_eq!(t.range_scan(300, 100, usize::MAX), vec![]);
        assert_eq!(t.range_scan(1001, 1001, usize::MAX), vec![]);
        assert_eq!(t.range_scan(0, 10, 0), vec![]);
    }

    #[test]
    fn range_scan_truncates_at_limit() {
        let t = BTreeIndex::build(8, (0..1000u64).map(|k| (k, k + 1)));
        let got = t.range_scan(10, 900, 5);
        assert_eq!(got, (10..15u64).map(|k| (k, k + 1)).collect::<Vec<_>>());
        assert_eq!(t.range_scan(10, 900, usize::MAX).len(), 891);
    }

    #[test]
    fn range_scan_crosses_duplicate_leaf_spans() {
        // 20 duplicates of one key with fanout 4: the run spans several
        // leaves, so the descent must land on the *first* one.
        let mut pairs: Vec<(u64, u64)> = (0..20u64).map(|i| (50, i)).collect();
        pairs.push((10, 100));
        pairs.push((90, 200));
        let t = BTreeIndex::build(4, pairs);
        let got = t.range_scan(50, 50, usize::MAX);
        assert_eq!(got, (0..20u64).map(|i| (50, i)).collect::<Vec<_>>());
        assert_eq!(t.range_scan(0, 100, usize::MAX).len(), 22);
    }

    #[test]
    fn stable_build_keeps_duplicate_payload_order() {
        let pairs = vec![(5u64, 3u64), (5, 1), (2, 0), (5, 2)];
        let t = BTreeIndex::build(2, pairs);
        assert_eq!(
            t.range_scan(5, 5, usize::MAX),
            vec![(5, 3), (5, 1), (5, 2)],
            "input order preserved among equal keys"
        );
    }

    #[test]
    fn range_scan_desc_is_the_reverse_of_forward() {
        let t = BTreeIndex::build(4, (0..500u64).map(|k| (k * 2, k)));
        for (lo, hi) in [
            (100, 200),
            (0, u64::MAX),
            (101, 103),
            (999, 999),
            (300, 100),
        ] {
            let mut want = t.range_scan(lo, hi, usize::MAX);
            want.reverse();
            assert_eq!(
                t.range_scan_desc(lo, hi, usize::MAX),
                want,
                "desc [{lo}, {hi}]"
            );
        }
        // A desc limit keeps the *largest* keys.
        assert_eq!(
            t.range_scan_desc(10, 900, 3),
            vec![(900, 450), (898, 449), (896, 448)]
        );
        assert_eq!(t.range_scan_desc(0, 10, 0), vec![]);
    }

    #[test]
    fn range_scan_desc_reverses_duplicate_build_order() {
        // Duplicates spanning leaves: the descent must land on the
        // *last* leaf holding the key, and payloads come back in
        // reverse build order.
        let mut pairs: Vec<(u64, u64)> = (0..20u64).map(|i| (50, i)).collect();
        pairs.push((10, 100));
        pairs.push((90, 200));
        let t = BTreeIndex::build(4, pairs);
        let got = t.range_scan_desc(50, 50, usize::MAX);
        assert_eq!(got, (0..20u64).rev().map(|i| (50, i)).collect::<Vec<_>>());
        assert_eq!(t.range_scan_desc(0, 100, usize::MAX).len(), 22);
        assert_eq!(t.range_scan_desc(0, 100, 1), vec![(90, 200)]);
    }

    #[test]
    fn accessors_describe_the_tree() {
        let t = BTreeIndex::build(4, (0..64u64).map(|k| (k, k)));
        assert_eq!(t.inner_level_count() + 1, t.height());
        // Manual descent through the accessors agrees with lookup.
        let key = 37u64;
        let mut node = 0u32;
        for depth in 0..t.inner_level_count() {
            let slot = t.inner_keys(depth, node).partition_point(|k| *k <= key);
            node = t.inner_child(depth, node, slot);
        }
        let (keys, payloads) = t.leaf_entries(node);
        let slot = keys.partition_point(|k| *k < key);
        assert_eq!(keys[slot], key);
        assert_eq!(payloads[slot], t.lookup(key).unwrap());
        assert!(t.leaf_count() >= 16);
    }

    #[test]
    fn height_grows_logarithmically() {
        let small = BTreeIndex::build(8, (0..64u64).map(|k| (k, k)));
        let large = BTreeIndex::build(8, (0..4096u64).map(|k| (k, k)));
        assert!(large.height() > small.height());
        assert!(large.height() <= 5);
    }

    // ---- mutation ----

    /// Checks the full structural invariant set after a mutation storm:
    /// chain order, link symmetry, live-leaf count, length, the tree's
    /// shape (see [`check_subtree`]), and scan agreement with a fresh
    /// build over the same entries.
    fn check_invariants(t: &BTreeIndex) {
        let entries = t.entries();
        assert_eq!(entries.len(), t.len(), "len matches chain walk");
        assert!(
            entries.windows(2).all(|w| w[0].0 <= w[1].0),
            "chain is key-ordered"
        );
        // Chain link symmetry + live count; no chained leaf is free or
        // wider than the fanout.
        let mut chain = Vec::new();
        let mut leaf = t.first_leaf();
        let mut prev = None;
        loop {
            chain.push(leaf);
            assert_eq!(t.leaf_prev(leaf), prev, "prev link of {leaf}");
            assert!(!t.free_leaves.contains(&leaf), "free leaf {leaf} chained");
            assert!(t.leaves.len(leaf) <= t.fanout(), "leaf {leaf} too wide");
            prev = Some(leaf);
            match t.leaf_next(leaf) {
                Some(next) => leaf = next,
                None => break,
            }
        }
        assert_eq!(leaf, t.last_leaf());
        assert_eq!(chain.len(), t.live_leaf_count());
        // The leaves under the root are exactly the chained ones.
        let mut reached = Vec::new();
        match t.levels.len() {
            0 => assert_eq!(
                t.leaves.get(leaf, PARENT),
                NONE,
                "a lone leaf has no parent"
            ),
            top => {
                assert_eq!(
                    t.levels[top - 1].get(0, PARENT),
                    NONE,
                    "the root has no parent"
                );
                check_subtree(t, top - 1, 0, &mut reached);
                chain.sort_unstable();
                reached.sort_unstable();
                assert_eq!(reached, chain, "the root reaches every chained leaf");
            }
        }
        // Every entry findable by descent; scans agree with a rebuild.
        let fresh = BTreeIndex::build(t.fanout(), entries.clone());
        assert_eq!(
            t.range_scan(0, u64::MAX, usize::MAX),
            fresh.range_scan(0, u64::MAX, usize::MAX)
        );
        assert_eq!(
            t.range_scan_desc(0, u64::MAX, usize::MAX),
            fresh.range_scan_desc(0, u64::MAX, usize::MAX)
        );
    }

    /// Checks the subtree under inner node `node` at level `li`: it is
    /// not free and holds 1 to `fanout` children, every child's parent
    /// is `node`, and every separator is `>=` each key of its left
    /// subtree and `<=` each key of its right one. Pushes the leaves it
    /// reaches onto `leaves`; returns its smallest and largest key.
    fn check_subtree(
        t: &BTreeIndex,
        li: usize,
        node: u32,
        leaves: &mut Vec<u32>,
    ) -> Option<(u64, u64)> {
        assert!(
            !t.free_inners[li].contains(&node),
            "free inner {li}/{node} reached"
        );
        let (seps, children) = t.inner(li, node);
        assert!(
            (1..=t.fanout()).contains(&children.len()),
            "inner {li}/{node} width"
        );
        let mut span: Option<(u64, u64)> = None;
        for (i, &child) in children.iter().enumerate() {
            let child = child as u32;
            let (parent, keys) = if li == 0 {
                assert!(!t.free_leaves.contains(&child), "free leaf {child} reached");
                leaves.push(child);
                let keys = t.leaf(child).0;
                let bounds = keys.first().zip(keys.last());
                (
                    t.leaves.get(child, PARENT),
                    bounds.map(|(lo, hi)| (*lo, *hi)),
                )
            } else {
                let keys = check_subtree(t, li - 1, child, leaves);
                (t.levels[li - 1].get(child, PARENT), keys)
            };
            assert_eq!(parent, node, "child {child} of {li}/{node} points back");
            let Some((lo, hi)) = keys else { continue };
            if i > 0 {
                assert!(
                    seps[i - 1] <= lo,
                    "separator {} of {li}/{node} above its right",
                    i - 1
                );
            }
            if i < seps.len() {
                assert!(seps[i] >= hi, "separator {i} of {li}/{node} below its left");
            }
            span = Some((span.map_or(lo, |(first, _)| first), hi));
        }
        span
    }

    #[test]
    fn insert_grows_from_empty_through_root_splits() {
        let mut t = BTreeIndex::build(4, std::iter::empty());
        for k in 0..500u64 {
            t.insert(k * 2, k);
        }
        assert_eq!(t.len(), 500);
        assert!(t.height() >= 4, "root split grew levels: {}", t.height());
        for k in 0..500u64 {
            assert_eq!(t.lookup(k * 2), Some(k), "key {}", k * 2);
            assert_eq!(t.lookup(k * 2 + 1), None);
        }
        check_invariants(&t);
    }

    #[test]
    fn interleaved_inserts_keep_scan_order() {
        let mut t = BTreeIndex::build(4, (0..200u64).map(|k| (k * 4, k)));
        // Insert between, before, and after existing keys, plus dups.
        for k in 0..200u64 {
            t.insert(k * 4 + 2, 1000 + k);
        }
        t.insert(0, 7777);
        t.insert(u64::MAX, 8888);
        check_invariants(&t);
        let got = t.range_scan(0, 10, usize::MAX);
        assert_eq!(
            got,
            vec![
                (0, 0),
                (0, 7777),
                (2, 1000),
                (4, 1),
                (6, 1001),
                (8, 2),
                (10, 1002)
            ]
        );
    }

    #[test]
    fn inserted_duplicates_follow_existing_ones() {
        let mut t = BTreeIndex::build(4, (0..10u64).map(|_| (5, 0)));
        t.insert(5, 1);
        t.insert(5, 2);
        let payloads: Vec<u64> = t
            .range_scan(5, 5, usize::MAX)
            .iter()
            .map(|(_, p)| *p)
            .collect();
        assert_eq!(&payloads[10..], &[1, 2], "new dups land after old ones");
    }

    #[test]
    fn delete_removes_runs_spanning_leaves() {
        let mut pairs: Vec<(u64, u64)> = (0..40u64).map(|i| (77, i)).collect();
        pairs.extend((0..100u64).map(|k| (k * 2, k)));
        let mut t = BTreeIndex::build(4, pairs);
        assert_eq!(t.delete(77), 40);
        assert_eq!(t.range_scan(77, 77, usize::MAX), vec![]);
        assert_eq!(t.len(), 100);
        assert_eq!(t.delete(77), 0, "second delete misses");
        check_invariants(&t);
    }

    #[test]
    fn delete_everything_leaves_a_valid_empty_tree() {
        let mut t = BTreeIndex::build(4, (0..300u64).map(|k| (k, k)));
        for k in 0..300u64 {
            assert_eq!(t.delete(k), 1, "key {k}");
        }
        assert!(t.is_empty());
        assert_eq!(t.live_leaf_count(), 1, "one (empty) leaf survives");
        assert_eq!(t.range_scan(0, u64::MAX, usize::MAX), vec![]);
        assert!(t.free_nodes() > 0, "nodes were freed");
        // The tree remains usable.
        t.insert(42, 1);
        assert_eq!(t.lookup(42), Some(1));
        check_invariants(&t);
    }

    #[test]
    fn underfull_leaves_merge_into_siblings() {
        let mut t = BTreeIndex::build(8, (0..256u64).map(|k| (k, k)));
        let before = t.live_leaf_count();
        // Thin the tree out: delete three of every four keys.
        for k in 0..256u64 {
            if k % 4 != 0 {
                t.delete(k);
            }
        }
        assert!(
            t.live_leaf_count() < before,
            "merges shrank the chain: {} -> {}",
            before,
            t.live_leaf_count()
        );
        check_invariants(&t);
    }

    #[test]
    fn update_replaces_all_or_misses() {
        let mut t = BTreeIndex::build(4, [(5u64, 1u64), (5, 2), (6, 3)]);
        assert!(t.update(5, 99));
        assert_eq!(t.range_scan(5, 5, usize::MAX), vec![(5, 99)]);
        assert!(!t.update(42, 7), "update never inserts");
        assert_eq!(t.lookup(42), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn a_split_reuses_the_leaf_slot_a_merge_freed() {
        // Four full leaves of fanout 4: [0..3] [4..7] [8..11] [12..15].
        let mut t = BTreeIndex::build(4, (0..16u64).map(|k| (k, k)));
        let arena = t.leaf_count();
        // Thin the second leaf to half, then the first below half: the
        // first absorbs the second, whose slot is freed.
        for k in [4, 5, 0, 1, 2] {
            assert_eq!(t.delete(k), 1, "key {k}");
        }
        assert_eq!(t.live_leaf_count(), arena - 1, "a leaf merged away");
        // Overfill the last leaf: it splits, and its new right half takes
        // the freed slot, with no reclaim call in between.
        t.insert(100, 100);
        assert_eq!(t.live_leaf_count(), arena, "a leaf split");
        assert_eq!(t.leaf_count(), arena, "the split reused the freed slot");
        assert_eq!(t.reclaim(), 1, "one slot freed");
        check_invariants(&t);
    }

    /// The serving tier's default fanout (`ServeConfig::default()`).
    const SERVING_FANOUT: usize = 64;

    /// Runs a seeded mix of inserts, deletes and updates over `32 *
    /// fanout` keys against a `BTreeMap` oracle, asserting that leaves
    /// both split and merged along the way.
    fn mutation_oracle(fanout: usize) {
        use std::collections::BTreeMap;
        let mut t = BTreeIndex::build(fanout, std::iter::empty());
        let mut oracle: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let (mut splits, mut merges) = (0usize, 0usize);
        let mut state = 0x2545F4914F6CDD1Du64;
        for step in 0..1500 * fanout as u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (state >> 33) % (32 * fanout as u64);
            let live = t.live_leaf_count();
            match state % 5 {
                0..=2 => {
                    t.insert(key, step);
                    oracle.entry(key).or_default().push(step);
                    splits += usize::from(t.live_leaf_count() > live);
                }
                3 => {
                    // Leaves holding `key` alone empty and unlink; any
                    // further leaf the chain loses was merged away.
                    let emptied = (0..t.leaf_count() as u32)
                        .filter(|&l| !t.free_leaves.contains(&l))
                        .filter(|&l| t.leaf(l).0.iter().all(|k| *k == key))
                        .filter(|&l| t.leaves.len(l) > 0)
                        .count();
                    let removed = t.delete(key);
                    let want = oracle.remove(&key).map_or(0, |v| v.len());
                    assert_eq!(removed, want, "delete {key} at step {step}");
                    merges += usize::from(live > t.live_leaf_count() + emptied);
                }
                _ => {
                    let applied = t.update(key, step);
                    match oracle.get_mut(&key) {
                        Some(v) if !v.is_empty() => {
                            assert!(applied);
                            v.clear();
                            v.push(step);
                        }
                        _ => assert!(!applied),
                    }
                }
            }
        }
        assert!(
            splits > 0 && merges > 0,
            "fanout {fanout}: {splits} splits, {merges} merges"
        );
        let want: Vec<(u64, u64)> = oracle
            .iter()
            .flat_map(|(k, vs)| vs.iter().map(move |v| (*k, *v)))
            .collect();
        assert_eq!(t.range_scan(0, u64::MAX, usize::MAX), want);
        let mut rev = want.clone();
        rev.reverse();
        assert_eq!(t.range_scan_desc(0, u64::MAX, usize::MAX), rev);
        check_invariants(&t);
    }

    #[test]
    fn mutation_oracle_against_std_btreemap() {
        for fanout in [4, SERVING_FANOUT] {
            mutation_oracle(fanout);
        }
    }

    #[test]
    fn update_matches_delete_then_insert() {
        // Lone entries, a run of duplicates spanning leaves, and misses.
        let mut pairs: Vec<(u64, u64)> = (0..200u64).map(|k| (k * 2, k)).collect();
        pairs.extend((0..40u64).map(|i| (101, 1000 + i)));
        for fanout in [4, 8, SERVING_FANOUT] {
            let tree = BTreeIndex::build(fanout, pairs.clone());
            for key in [0, 1, 2, 6, 7, 100, 101, 102, 396, 398, 399, 1000] {
                let (mut updated, mut oracle) = (tree.clone(), tree.clone());
                let applied = updated.update(key, 7);
                let removed = oracle.delete(key);
                if removed > 0 {
                    oracle.insert(key, 7);
                }
                assert_eq!(applied, removed > 0, "key {key}");
                assert_eq!(updated.entries(), oracle.entries(), "key {key}");
                for (lo, hi) in [(0, u64::MAX), (key.saturating_sub(9), key + 9)] {
                    for scan in [BTreeIndex::range_scan, BTreeIndex::range_scan_desc] {
                        let want = scan(&oracle, lo, hi, usize::MAX);
                        assert_eq!(scan(&updated, lo, hi, usize::MAX), want, "key {key}");
                    }
                }
                check_invariants(&updated);
            }
        }
    }

    #[test]
    fn a_lone_entry_is_updated_in_place() {
        // Leaves [0, 1] and [4, 5] of fanout 4: taking 0 out of the
        // first would merge the second into it.
        let mut t = BTreeIndex::build(4, (0..16u64).map(|k| (k, k)));
        for k in [2, 3, 6, 7] {
            assert_eq!(t.delete(k), 1);
        }
        t.reclaim();
        let mut oracle = t.clone();
        oracle.delete(0);
        oracle.insert(0, 99);
        assert_eq!(oracle.reclaim(), 1, "a delete and an insert merge");
        let (arena, live) = (t.leaf_count(), t.live_leaf_count());
        assert!(t.update(0, 99));
        assert_eq!(t.leaf_count(), arena, "no slot allocated");
        assert_eq!(t.live_leaf_count(), live, "no leaf merged");
        assert_eq!(t.reclaim(), 0, "no slot freed");
        assert_eq!(t.entries(), oracle.entries());
        check_invariants(&t);
    }

    #[test]
    fn export_compacts_a_mutated_tree() {
        let mut t = BTreeIndex::build(4, (0..64u64).map(|k| (k, k)));
        for k in 0..32u64 {
            t.delete(k * 2);
        }
        for k in 100..130u64 {
            t.insert(k, k);
        }
        let export = t.export();
        assert_eq!(
            export.leaves.iter().map(|(k, _)| k.len()).sum::<usize>(),
            t.len()
        );
        // Exported leaves are dense and chained in key order.
        let flat: Vec<u64> = export
            .leaves
            .iter()
            .flat_map(|(k, _)| k.iter().copied())
            .collect();
        assert!(flat.windows(2).all(|w| w[0] <= w[1]));
        assert!(export
            .leaves
            .iter()
            .all(|(k, _)| !k.is_empty() || t.is_empty()));
    }
}
