//! A B+-tree index — the paper's Section 7 notes Widx "can easily be
//! extended to accelerate other index structures, such as balanced
//! trees, which are also common in DBMSs"; this is the tree that
//! extension targets.
//!
//! The tree is built bottom-up over sorted entries into flat node
//! *arenas* (one per level, plus the leaf arena), which keeps lookups
//! allocation-free and makes the structure directly materializable into
//! simulated memory. Unlike the original frozen build, the arenas are
//! **mutable**: [`insert`](BTreeIndex::insert) splits full leaves (and
//! full inner nodes, growing a new root level when the root itself
//! splits), [`delete`](BTreeIndex::delete) merges underfull leaves into
//! a same-parent sibling and unlinks emptied nodes, and a freed slot goes
//! straight onto its arena's free list for the next split to reuse. No
//! reader can observe that reuse: scans borrow `&BTreeIndex`, mutations
//! take `&mut`, so no cursor outlives the borrow it was taken under (the
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

/// Sentinel node index ("no node").
const NONE: u32 = u32::MAX;

/// An inner node: separator keys and child indices.
#[derive(Clone, Debug)]
struct Inner {
    /// `keys[i]` is the smallest key reachable through `children[i+1]`
    /// at the time the separator was created (a lower bound; deletions
    /// may leave it stale, insertions keep it exact).
    keys: Vec<u64>,
    /// Child node indices (into the next level down, or the leaf arena
    /// for level 0).
    children: Vec<u32>,
    /// Owning inner node one level up, or [`NONE`] for the root.
    parent: u32,
}

/// A leaf node: sorted keys with payloads and chain links.
#[derive(Clone, Debug)]
struct Leaf {
    keys: Vec<u64>,
    payloads: Vec<u64>,
    /// In-order successor leaf, or [`NONE`].
    next: u32,
    /// In-order predecessor leaf, or [`NONE`].
    prev: u32,
    /// Owning inner node at level 0, or [`NONE`] when the tree is a
    /// single leaf.
    parent: u32,
}

/// A B+-tree over `u64` keys (duplicates allowed) supporting online
/// mutation, with freed node slots reused through free lists.
#[derive(Clone, Debug)]
pub struct BTreeIndex {
    fanout: usize,
    /// Levels of inner nodes, root level last; the root is always node
    /// 0 of the top level. Empty when the tree is a single leaf.
    levels: Vec<Vec<Inner>>,
    /// Leaf arena; may contain free slots after mutation.
    leaves: Vec<Leaf>,
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
    /// Builds a tree with the given `fanout` from `pairs` (sorted
    /// internally).
    ///
    /// # Panics
    ///
    /// Panics if `fanout < 2`.
    #[must_use]
    pub fn build(fanout: usize, pairs: impl IntoIterator<Item = (u64, u64)>) -> BTreeIndex {
        assert!(fanout >= 2, "fanout must be at least 2");
        let mut entries: Vec<(u64, u64)> = pairs.into_iter().collect();
        // Stable sort: duplicate keys keep their input payload order, so
        // a range-partitioned build (each shard sorting its own slice)
        // scans in exactly the same order as one tree over everything —
        // the property the ordered-serving oracle tests rely on.
        entries.sort_by_key(|(k, _)| *k);
        let len = entries.len();

        let mut leaves = Vec::new();
        for chunk in entries.chunks(fanout.max(1)) {
            leaves.push(Leaf {
                keys: chunk.iter().map(|(k, _)| *k).collect(),
                payloads: chunk.iter().map(|(_, p)| *p).collect(),
                next: NONE,
                prev: NONE,
                parent: NONE,
            });
        }
        if leaves.is_empty() {
            leaves.push(Leaf {
                keys: Vec::new(),
                payloads: Vec::new(),
                next: NONE,
                prev: NONE,
                parent: NONE,
            });
        }
        let leaf_count = leaves.len() as u32;
        for (i, leaf) in leaves.iter_mut().enumerate() {
            let i = i as u32;
            leaf.prev = if i == 0 { NONE } else { i - 1 };
            leaf.next = if i + 1 == leaf_count { NONE } else { i + 1 };
        }

        // Build inner levels bottom-up until one root remains.
        let mut levels: Vec<Vec<Inner>> = Vec::new();
        let mut level_first_keys: Vec<u64> = leaves
            .iter()
            .map(|l| l.keys.first().copied().unwrap_or(0))
            .collect();
        let mut width = leaves.len();
        while width > 1 {
            let mut inners = Vec::new();
            let mut next_first_keys = Vec::new();
            let mut child = 0u32;
            while (child as usize) < width {
                let end = (child as usize + fanout).min(width);
                let children: Vec<u32> = (child..end as u32).collect();
                let keys = children[1..]
                    .iter()
                    .map(|c| level_first_keys[*c as usize])
                    .collect();
                next_first_keys.push(level_first_keys[child as usize]);
                let me = inners.len() as u32;
                for c in &children {
                    if let Some(level_below) = levels.last_mut() {
                        level_below[*c as usize].parent = me;
                    } else {
                        leaves[*c as usize].parent = me;
                    }
                }
                inners.push(Inner {
                    keys,
                    children,
                    parent: NONE,
                });
                child = end as u32;
            }
            width = inners.len();
            levels.push(inners);
            level_first_keys = next_first_keys;
        }

        BTreeIndex {
            fanout,
            head: 0,
            tail: leaf_count - 1,
            live_leaves: leaves.len(),
            len,
            free_inners: vec![Vec::new(); levels.len()],
            levels,
            leaves,
            free_leaves: Vec::new(),
            freed: 0,
        }
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
        for level in self.levels.iter().rev() {
            let n = &level[node as usize];
            let slot = if upper {
                n.keys.partition_point(|k| *k <= key)
            } else {
                n.keys.partition_point(|k| *k < key)
            };
            node = n.children[slot];
        }
        node
    }

    /// Inserts one `(key, payload)` entry. Duplicates are allowed and
    /// keep insertion order (the new entry lands after every existing
    /// entry of the same key, matching the stable build order).
    pub fn insert(&mut self, key: u64, payload: u64) {
        let leaf = self.descend_leaf(key, true);
        let l = &mut self.leaves[leaf as usize];
        let slot = l.keys.partition_point(|k| *k <= key);
        l.keys.insert(slot, key);
        l.payloads.insert(slot, payload);
        self.len += 1;
        if self.leaves[leaf as usize].keys.len() > self.fanout {
            self.split_leaf(leaf);
        }
    }

    /// Removes **every** entry stored under `key`, returning how many
    /// were removed. Emptied leaves are unlinked and freed; underfull
    /// leaves merge into a same-parent sibling when the result fits.
    pub fn delete(&mut self, key: u64) -> usize {
        let mut removed = 0usize;
        loop {
            // Land on the leftmost leaf whose range covers `key`, then
            // follow the chain — separators may be stale lower bounds,
            // so the landing leaf can sit one or more links early.
            let mut leaf = self.descend_leaf(key, false);
            let target = loop {
                let l = &self.leaves[leaf as usize];
                let start = l.keys.partition_point(|k| *k < key);
                let end = l.keys.partition_point(|k| *k <= key);
                if start < end {
                    break Some((leaf, start, end));
                }
                if l.keys.last().is_some_and(|k| *k > key) || l.next == NONE {
                    break None;
                }
                leaf = l.next;
            };
            let Some((leaf, start, end)) = target else {
                return removed;
            };
            let l = &mut self.leaves[leaf as usize];
            l.keys.drain(start..end);
            l.payloads.drain(start..end);
            self.len -= end - start;
            removed += end - start;
            self.rebalance_leaf(leaf);
            // Duplicates may span further leaves; re-descend (the
            // rebalance may have restructured links and parents).
        }
    }

    /// Replaces every entry under `key` with the single entry `(key,
    /// payload)`. Returns `true` if at least one entry existed (the
    /// update applied); `false` leaves the tree unchanged — an update
    /// never inserts a missing key.
    pub fn update(&mut self, key: u64, payload: u64) -> bool {
        if self.delete(key) == 0 {
            return false;
        }
        self.insert(key, payload);
        true
    }

    /// Splits `leaf` (over fanout) into itself (lower half) and a new
    /// right sibling, promoting the sibling's first key to the parent.
    fn split_leaf(&mut self, leaf: u32) {
        let mid = self.leaves[leaf as usize].keys.len() / 2;
        let right_keys = self.leaves[leaf as usize].keys.split_off(mid);
        let right_payloads = self.leaves[leaf as usize].payloads.split_off(mid);
        let sep = right_keys[0];
        let old_next = self.leaves[leaf as usize].next;
        let parent = self.leaves[leaf as usize].parent;
        let right = self.alloc_leaf(right_keys, right_payloads, old_next, leaf, parent);
        let l = &mut self.leaves[leaf as usize];
        l.next = right;
        if old_next == NONE {
            self.tail = right;
        } else {
            let n = &mut self.leaves[old_next as usize];
            n.prev = right;
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
            self.levels.push(vec![Inner {
                keys: vec![sep],
                children: vec![left, right],
                parent: NONE,
            }]);
            self.free_inners.push(Vec::new());
            self.set_parent(li, left, 0);
            self.set_parent(li, right, 0);
            return;
        }
        let p = &mut self.levels[li][parent as usize];
        let slot = p
            .children
            .iter()
            .position(|c| *c == left)
            .expect("split child under its parent");
        p.keys.insert(slot, sep);
        p.children.insert(slot + 1, right);
        self.set_parent(li, right, parent);
        if self.levels[li][parent as usize].children.len() <= self.fanout {
            return;
        }
        // Split the parent: left half stays in place, the right half
        // moves to a fresh node, and the middle separator is promoted.
        let mid = self.levels[li][parent as usize].children.len() / 2;
        let right_children = self.levels[li][parent as usize].children.split_off(mid);
        let mut right_keys = self.levels[li][parent as usize].keys.split_off(mid - 1);
        let promoted = right_keys.remove(0);
        let grand = self.levels[li][parent as usize].parent;
        let rnode = self.alloc_inner(li, right_keys, right_children.clone(), grand);
        for c in right_children {
            self.set_parent(li, c, rnode);
        }
        self.promote(li + 1, grand, promoted, parent, rnode);
    }

    /// Sets the parent pointer of a child of an inner node at level
    /// `li` (the child is a leaf when `li == 0`).
    fn set_parent(&mut self, li: usize, child: u32, parent: u32) {
        if li == 0 {
            self.leaves[child as usize].parent = parent;
        } else {
            self.levels[li - 1][child as usize].parent = parent;
        }
    }

    /// Allocates a leaf slot (reusing a freed one when available).
    fn alloc_leaf(
        &mut self,
        keys: Vec<u64>,
        payloads: Vec<u64>,
        next: u32,
        prev: u32,
        parent: u32,
    ) -> u32 {
        match self.free_leaves.pop() {
            Some(slot) => {
                let l = &mut self.leaves[slot as usize];
                l.keys = keys;
                l.payloads = payloads;
                l.next = next;
                l.prev = prev;
                l.parent = parent;
                slot
            }
            None => {
                self.leaves.push(Leaf {
                    keys,
                    payloads,
                    next,
                    prev,
                    parent,
                });
                (self.leaves.len() - 1) as u32
            }
        }
    }

    /// Allocates an inner slot at level `li`.
    fn alloc_inner(&mut self, li: usize, keys: Vec<u64>, children: Vec<u32>, parent: u32) -> u32 {
        match self.free_inners[li].pop() {
            Some(slot) => {
                self.levels[li][slot as usize] = Inner {
                    keys,
                    children,
                    parent,
                };
                slot
            }
            None => {
                self.levels[li].push(Inner {
                    keys,
                    children,
                    parent,
                });
                (self.levels[li].len() - 1) as u32
            }
        }
    }

    /// After a removal from `leaf`: free it if it emptied, or merge it
    /// with a same-parent sibling if it underflowed and the merge fits
    /// in one leaf.
    fn rebalance_leaf(&mut self, leaf: u32) {
        if self.leaves[leaf as usize].keys.is_empty() {
            if self.live_leaves == 1 {
                return; // the last leaf stays (an empty tree keeps one leaf)
            }
            self.unlink_and_free_leaf(leaf);
            return;
        }
        if self.leaves[leaf as usize].keys.len() * 2 >= self.fanout {
            return; // no underflow
        }
        let parent = self.leaves[leaf as usize].parent;
        if parent == NONE {
            return; // root leaf: nothing to merge with
        }
        let slot = self.levels[0][parent as usize]
            .children
            .iter()
            .position(|c| *c == leaf)
            .expect("leaf under its parent");
        let siblings = &self.levels[0][parent as usize].children;
        // Prefer absorbing the right sibling; fall back to merging into
        // the left one. Only same-parent merges, so the parent loses
        // exactly one child and one separator.
        let right = siblings.get(slot + 1).copied();
        let left = if slot > 0 {
            Some(siblings[slot - 1])
        } else {
            None
        };
        if let Some(right) = right {
            let fits = self.leaves[leaf as usize].keys.len()
                + self.leaves[right as usize].keys.len()
                <= self.fanout;
            if fits {
                self.absorb_right_leaf(leaf, right);
                return;
            }
        }
        if let Some(left) = left {
            let fits = self.leaves[left as usize].keys.len()
                + self.leaves[leaf as usize].keys.len()
                <= self.fanout;
            if fits {
                self.absorb_right_leaf(left, leaf);
            }
        }
    }

    /// Moves every entry of `right` into `left` (its chain
    /// predecessor under the same parent), then unlinks and frees
    /// `right`.
    fn absorb_right_leaf(&mut self, left: u32, right: u32) {
        let mut keys = std::mem::take(&mut self.leaves[right as usize].keys);
        let mut payloads = std::mem::take(&mut self.leaves[right as usize].payloads);
        let l = &mut self.leaves[left as usize];
        l.keys.append(&mut keys);
        l.payloads.append(&mut payloads);
        self.unlink_and_free_leaf(right);
    }

    /// Unlinks `leaf` from the chain, removes it from its parent, and
    /// frees its slot.
    fn unlink_and_free_leaf(&mut self, leaf: u32) {
        let (next, prev, parent) = {
            let l = &self.leaves[leaf as usize];
            (l.next, l.prev, l.parent)
        };
        if prev == NONE {
            self.head = next;
        } else {
            let p = &mut self.leaves[prev as usize];
            p.next = next;
        }
        if next == NONE {
            self.tail = prev;
        } else {
            let n = &mut self.leaves[next as usize];
            n.prev = prev;
        }
        let l = &mut self.leaves[leaf as usize];
        l.keys = Vec::new();
        l.payloads = Vec::new();
        l.next = NONE;
        l.prev = NONE;
        l.parent = NONE;
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
        let p = &mut self.levels[li][parent as usize];
        let slot = p
            .children
            .iter()
            .position(|c| *c == child)
            .expect("child under its parent");
        p.children.remove(slot);
        if slot == 0 {
            if !p.keys.is_empty() {
                p.keys.remove(0);
            }
        } else {
            p.keys.remove(slot - 1);
        }
        if p.children.is_empty() {
            let grand = p.parent;
            debug_assert!(grand != NONE, "the root cannot empty while a leaf lives");
            p.parent = NONE;
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
        let mut idx = 0u32;
        // Descend inner levels from the root (last level) downwards.
        for level in self.levels.iter().rev() {
            visits += 1;
            let node = &level[idx as usize];
            let slot = node.keys.partition_point(|k| *k <= key);
            idx = node.children[slot];
            debug_assert_ne!(idx, NONE);
        }
        if self.levels.is_empty() {
            idx = self.head;
        }
        visits += 1;
        let leaf = &self.leaves[idx as usize];
        let slot = leaf.keys.partition_point(|k| *k < key);
        let hit = leaf
            .keys
            .get(slot)
            .filter(|k| **k == key)
            .map(|_| leaf.payloads[slot]);
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
        let mut slot = self.leaves[leaf as usize].keys.partition_point(|k| *k < lo);
        loop {
            let l = &self.leaves[leaf as usize];
            while slot < l.keys.len() {
                let key = l.keys[slot];
                if key > hi {
                    return out;
                }
                out.push((key, l.payloads[slot]));
                if out.len() == limit {
                    return out;
                }
                slot += 1;
            }
            if l.next == NONE {
                return out;
            }
            leaf = l.next;
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
        let mut slot = self.leaves[leaf as usize]
            .keys
            .partition_point(|k| *k <= hi);
        loop {
            let l = &self.leaves[leaf as usize];
            while slot > 0 {
                slot -= 1;
                let key = l.keys[slot];
                if key < lo {
                    return out;
                }
                out.push((key, l.payloads[slot]));
                if out.len() == limit {
                    return out;
                }
            }
            if l.prev == NONE {
                return out;
            }
            leaf = l.prev;
            slot = self.leaves[leaf as usize].keys.len();
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
        let level = &self.levels[self.levels.len() - 1 - depth];
        &level[node as usize].keys
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
        let level = &self.levels[self.levels.len() - 1 - depth];
        level[node as usize].children[slot]
    }

    /// Size of the leaf arena (equal to the live leaf count for a
    /// freshly built tree; after mutation the arena may contain free
    /// slots — use [`live_leaf_count`](Self::live_leaf_count) and the
    /// chain accessors for traversal).
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
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
        let next = self.leaves[leaf as usize].next;
        (next != NONE).then_some(next)
    }

    /// The in-order predecessor of `leaf`, if any.
    #[must_use]
    pub fn leaf_prev(&self, leaf: u32) -> Option<u32> {
        let prev = self.leaves[leaf as usize].prev;
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
        let l = &self.leaves[leaf as usize];
        (&l.keys, &l.payloads)
    }

    /// Every entry in key order (duplicates in insertion order) — a
    /// full chain walk.
    #[must_use]
    pub fn entries(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.len);
        let mut leaf = self.head;
        loop {
            let l = &self.leaves[leaf as usize];
            out.extend(l.keys.iter().copied().zip(l.payloads.iter().copied()));
            if l.next == NONE {
                return out;
            }
            leaf = l.next;
        }
    }

    /// Exports the tree's structure as plain data, for materialization
    /// into simulated memory. The export is *compacted*: a mutated
    /// tree is re-packed into dense arrays (leaf `i + 1` is the
    /// in-order successor of leaf `i`), so free arena slots never leak
    /// into simulated memory.
    #[must_use]
    pub fn export(&self) -> BTreeExport {
        // Rebuilding from the (already sorted) entry stream reproduces
        // the canonical bottom-up packing; the stable sort inside
        // `build` keeps duplicate order intact.
        let packed = BTreeIndex::build(self.fanout, self.entries());
        BTreeExport {
            fanout: packed.fanout,
            levels: packed
                .levels
                .iter()
                .map(|level| {
                    level
                        .iter()
                        .map(|n| (n.keys.clone(), n.children.clone()))
                        .collect()
                })
                .collect(),
            leaves: packed
                .leaves
                .iter()
                .map(|l| (l.keys.clone(), l.payloads.clone()))
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
    /// chain order, link symmetry, live-leaf count, length, and scan
    /// agreement with a fresh build over the same entries.
    fn check_invariants(t: &BTreeIndex) {
        let entries = t.entries();
        assert_eq!(entries.len(), t.len(), "len matches chain walk");
        assert!(
            entries.windows(2).all(|w| w[0].0 <= w[1].0),
            "chain is key-ordered"
        );
        // Chain link symmetry + live count.
        let mut live = 0usize;
        let mut leaf = t.first_leaf();
        let mut prev = None;
        loop {
            live += 1;
            assert_eq!(t.leaf_prev(leaf), prev, "prev link of {leaf}");
            prev = Some(leaf);
            match t.leaf_next(leaf) {
                Some(next) => leaf = next,
                None => break,
            }
        }
        assert_eq!(leaf, t.last_leaf());
        assert_eq!(live, t.live_leaf_count());
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

    #[test]
    fn mutation_oracle_against_std_btreemap() {
        use std::collections::BTreeMap;
        let mut t = BTreeIndex::build(4, std::iter::empty());
        let mut oracle: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut state = 0x2545F4914F6CDD1Du64;
        for step in 0..6000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (state >> 33) % 128;
            match state % 5 {
                0..=2 => {
                    t.insert(key, step);
                    oracle.entry(key).or_default().push(step);
                }
                3 => {
                    let removed = t.delete(key);
                    let want = oracle.remove(&key).map_or(0, |v| v.len());
                    assert_eq!(removed, want, "delete {key} at step {step}");
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
