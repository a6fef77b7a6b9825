//! The shard container, and the hash-routed index over it.
//!
//! [`Shards`] is N independent indexes, each behind its own `RwLock`,
//! the guard accessors written once. [`ShardedIndex`] routes to N
//! [`HashIndex`] partitions by [`HashRecipe::shard_of`] and derefs to
//! it, as does [`OrderedShardedIndex`](crate::OrderedShardedIndex).
//!
//! Since the serving tier accepts online writes, each shard sits behind
//! its own `RwLock`. The shard worker is the sole *writer* while it
//! holds work, taking the write guard only at batch barriers; an idle
//! shard's sub-ring write is applied by its submitter instead, under
//! [`try_write`](Shards::try_write) — so writers never wait on
//! each other. Readers share the read guard — the worker's walker
//! batches, sub-ring probes and scans walked on their submitting threads
//! ([`try_read`](Shards::try_read)), stats scrapes, oracles. The
//! lock arbitrates those readers against the writer: std's lock
//! prefers a waiting writer, so a barrier is never starved, and a
//! submitter that is refused a guard queues its request instead.

use std::ops::Deref;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use widx_db::epoch::EpochDomain;
use widx_db::hash::HashRecipe;
use widx_db::index::{build_sharded, BTreeIndex, HashIndex};

use crate::request::WriteOp;

/// What a shard holds: the index a walker borrows and a write barrier
/// mutates. Both index flavours expose the same inherent surface; one
/// macro body stamps it onto both, so the tiers cannot drift apart at
/// the barrier. (`pub` so [`Shards`]' bound can name it; not exported.)
pub trait ShardIndex {
    /// Applies one write; `true` when it took effect.
    fn apply(&mut self, op: WriteOp) -> bool;
    /// Node slots the writes freed since the last call.
    fn take_freed(&mut self) -> usize;
    /// Entries held.
    fn entries(&self) -> usize;
}

macro_rules! impl_shard_index {
    ($($index:ty),*) => {$(
        impl ShardIndex for $index {
            fn apply(&mut self, op: WriteOp) -> bool {
                match op {
                    WriteOp::Insert { key, payload } => {
                        self.insert(key, payload);
                        true
                    }
                    WriteOp::Delete { key } => self.delete(key) > 0,
                    WriteOp::Update { key, payload } => self.update(key, payload),
                }
            }

            fn take_freed(&mut self) -> usize {
                self.reclaim()
            }

            fn entries(&self) -> usize {
                self.len()
            }
        }
    )*};
}

impl_shard_index!(HashIndex, BTreeIndex);

/// N independent shards of one index type, one per serving worker, each
/// behind its own `RwLock`; the tiers add only their routers.
pub struct Shards<I>(Vec<RwLock<I>>);

impl<I: ShardIndex> Shards<I> {
    /// Locks each freshly built shard away.
    pub(crate) fn new(built: Vec<I>) -> Shards<I> {
        Shards(built.into_iter().map(RwLock::new).collect())
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.0.len()
    }

    /// Read access to shard `shard`. Walker batches hold this guard for
    /// the duration of one batch.
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned (a worker panicked mid-write).
    pub fn read(&self, shard: usize) -> RwLockReadGuard<'_, I> {
        self.0[shard].read().expect("shard lock")
    }

    /// Read access to shard `shard` without waiting: `None` while the
    /// shard's worker holds or awaits its write barrier (or the lock is
    /// poisoned). Sub-ring probes and scans walk under this guard on
    /// their submitting thread, and queue instead when it is refused.
    pub(crate) fn try_read(&self, shard: usize) -> Option<RwLockReadGuard<'_, I>> {
        self.0[shard].try_read().ok()
    }

    /// Write access to shard `shard` — reserved for the shard's owning
    /// worker at batch barriers.
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned.
    pub fn write(&self, shard: usize) -> RwLockWriteGuard<'_, I> {
        self.0[shard].write().expect("shard lock")
    }

    /// Write access to shard `shard` without waiting: `None` while any
    /// guard is out (or the lock is poisoned). A submitter applies a
    /// sub-ring write under this guard when the shard is idle, and
    /// queues it instead when refused.
    pub(crate) fn try_write(&self, shard: usize) -> Option<RwLockWriteGuard<'_, I>> {
        self.0[shard].try_write().ok()
    }

    /// Total entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        (0..self.0.len()).map(|s| self.read(s).entries()).sum()
    }

    /// Whether no shard holds an entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A hash index partitioned into independent shards, one per serving
/// worker. Probes route by `recipe.shard_of(key, shards)`; builds size
/// each shard's bucket array for its own entry count.
pub struct ShardedIndex {
    recipe: HashRecipe,
    shards: Shards<HashIndex>,
}

impl Deref for ShardedIndex {
    type Target = Shards<HashIndex>;

    fn deref(&self) -> &Shards<HashIndex> {
        &self.shards
    }
}

impl ShardedIndex {
    /// Partitions `pairs` into `shards` indexes, each sized for ~`load`
    /// entries per bucket with at least `min_buckets` buckets. Each
    /// shard builds in input order with its bucket headers prefetched a
    /// window ahead; once some shard holds 2²⁰ entries, the shards build
    /// on scoped threads (see [`build_sharded`] for why smaller ones do
    /// not). The `_domain` argument is ignored, kept only for
    /// `benchmark/` until ROADMAP direction 1a deletes it.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `min_buckets` is zero, or `load` is not
    /// positive.
    #[must_use]
    pub fn build(
        recipe: HashRecipe,
        shards: usize,
        min_buckets: usize,
        load: f64,
        _domain: &Arc<EpochDomain>,
        pairs: impl IntoIterator<Item = (u64, u64)>,
    ) -> ShardedIndex {
        let built = build_sharded(&recipe, shards, min_buckets, load, pairs);
        ShardedIndex {
            recipe,
            shards: Shards::new(built),
        }
    }

    /// The shard that owns `key` — reads and writes route identically,
    /// so everything a shard worker serves is written through its shard.
    #[must_use]
    pub fn shard_of(&self, key: u64) -> usize {
        self.recipe.shard_of(key, self.shard_count() as u64) as usize
    }

    /// The routing/bucketing recipe.
    #[must_use]
    pub fn recipe(&self) -> &HashRecipe {
        &self.recipe
    }

    /// Every payload stored under `key` — the single-threaded oracle for
    /// the whole sharded structure.
    #[must_use]
    pub fn lookup_all(&self, key: u64) -> Vec<u64> {
        self.read(self.shard_of(key)).lookup_all(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharded(shards: usize, entries: u64) -> ShardedIndex {
        ShardedIndex::build(
            HashRecipe::robust64(),
            shards,
            8,
            1.0,
            &EpochDomain::new(),
            (0..entries).map(|k| (k, k + 1000)),
        )
    }

    #[test]
    fn every_key_found_in_exactly_its_shard() {
        let idx = sharded(4, 2000);
        assert_eq!(idx.shard_count(), 4);
        assert_eq!(idx.len(), 2000);
        for k in 0..2000 {
            assert_eq!(idx.lookup_all(k), vec![k + 1000]);
            let owner = idx.shard_of(k);
            for s in 0..idx.shard_count() {
                assert_eq!(
                    idx.read(s).lookup(k).is_some(),
                    s == owner,
                    "key {k} shard {s}"
                );
            }
        }
    }

    #[test]
    fn shards_are_load_balanced() {
        let idx = sharded(8, 16_384);
        let sizes: Vec<usize> = (0..idx.shard_count()).map(|s| idx.read(s).len()).collect();
        let mean = 16_384 / 8;
        for (s, size) in sizes.iter().enumerate() {
            assert!(
                *size > mean / 2 && *size < mean * 2,
                "shard {s} imbalanced: {sizes:?}"
            );
        }
    }

    #[test]
    fn duplicates_stay_colocated() {
        let pairs = vec![(7u64, 1u64), (7, 2), (7, 3), (9, 4)];
        let idx = ShardedIndex::build(
            HashRecipe::robust64(),
            3,
            4,
            1.0,
            &EpochDomain::new(),
            pairs,
        );
        let mut got = idx.lookup_all(7);
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn single_shard_is_degenerate_but_valid() {
        let idx = sharded(1, 100);
        assert_eq!(idx.shard_count(), 1);
        assert_eq!(idx.shard_of(42), 0);
        assert_eq!(idx.lookup_all(42), vec![1042]);
    }

    #[test]
    fn empty_build() {
        let idx = ShardedIndex::build(
            HashRecipe::robust64(),
            2,
            4,
            1.0,
            &EpochDomain::new(),
            std::iter::empty(),
        );
        assert!(idx.is_empty());
        assert_eq!(idx.lookup_all(5), Vec::<u64>::new());
    }

    #[test]
    fn writes_through_the_shard_locks_stay_routed() {
        let idx = sharded(4, 100);
        // Insert/delete/update through the owner shard's write guard —
        // exactly what the shard worker does at a batch barrier.
        for k in 200..260u64 {
            idx.write(idx.shard_of(k)).insert(k, k * 2);
        }
        for k in 200..260u64 {
            assert_eq!(idx.lookup_all(k), vec![k * 2]);
        }
        assert_eq!(idx.write(idx.shard_of(210)).delete(210), 1);
        assert!(idx.lookup_all(210).is_empty());
        assert!(idx.write(idx.shard_of(220)).update(220, 9));
        assert_eq!(idx.lookup_all(220), vec![9]);
        assert_eq!(idx.len(), 100 + 60 - 1);
    }
}
