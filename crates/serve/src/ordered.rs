//! The ordered sharded index: N contiguous key-space partitions, each
//! served by its own [`BTreeIndex`] — the range-serving counterpart of
//! the hash-routed [`ShardedIndex`](crate::ShardedIndex), over the same
//! [`Shards`] container (locks and guard accessors live there).
//!
//! Where the hash index routes by `recipe.shard_of(key)`, the ordered
//! index routes by *boundary keys*: shard `i` owns the contiguous span
//! `[boundaries[i-1], boundaries[i])`. That placement is what makes
//! range serving scale — a scan touches only the adjacent shards its
//! key interval overlaps, and gathering their per-shard (already
//! key-ordered, disjoint) result streams back into one ordered reply is
//! a concatenation, not a merge sort.
//!
//! Writes route by [`write_shard_of`](OrderedShardedIndex::write_shard_of),
//! which is *pure* in the boundaries (plus one build-time constant for
//! the saturated-`u64::MAX` corner). Purity is the single-home
//! invariant: every copy of a key ever inserted lands in the one shard
//! the function names, so deletes and updates are single-shard
//! operations no matter what sequence of writes preceded them.

use std::ops::Deref;
use std::sync::Arc;

use widx_db::epoch::EpochDomain;
use widx_db::index::{build_range_sharded, BTreeIndex};

use crate::shard::Shards;

/// A B+-tree index range-partitioned into independent shards, one per
/// serving worker. Scans route by boundary-key span; builds split the
/// sorted entry stream into roughly equal contiguous chunks (duplicates
/// of one key never straddle a boundary).
pub struct OrderedShardedIndex {
    shards: Shards<BTreeIndex>,
    /// `shards - 1` non-decreasing boundary keys; shard `i` owns keys
    /// `k` with `boundaries[i-1] <= k < boundaries[i]` (unbounded at
    /// the ends).
    boundaries: Vec<u64>,
    /// Build-time home for `key == u64::MAX` when the trailing
    /// saturated boundary collides with it (see
    /// [`write_shard_of`](Self::write_shard_of)).
    max_key_home: usize,
}

impl Deref for OrderedShardedIndex {
    type Target = Shards<BTreeIndex>;

    fn deref(&self) -> &Shards<BTreeIndex> {
        &self.shards
    }
}

impl OrderedShardedIndex {
    /// Partitions `pairs` into `shards` contiguous key ranges and
    /// builds one B+-tree of the given `fanout` per range. The `_domain`
    /// argument is ignored, kept only for `benchmark/` until ROADMAP
    /// direction 1a deletes it.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `fanout < 2`.
    #[must_use]
    pub fn build(
        fanout: usize,
        shards: usize,
        _domain: &Arc<EpochDomain>,
        pairs: impl IntoIterator<Item = (u64, u64)>,
    ) -> OrderedShardedIndex {
        let (built, boundaries) = build_range_sharded(fanout, shards, pairs);
        // If the data ends at u64::MAX, the trailing empty shards carry
        // a saturated boundary equal to the key itself; the pure write
        // route (`partition_point(|b| *b <= key)`, which for `u64::MAX`
        // is every boundary) would point past the data. Freeze the
        // actual home now — boundaries never change, so the exception
        // is as static as the rest of the function.
        let mut max_key_home = boundaries.len();
        while max_key_home > 0 && built[max_key_home].is_empty() {
            max_key_home -= 1;
        }
        OrderedShardedIndex {
            shards: Shards::new(built),
            boundaries,
            max_key_home,
        }
    }

    /// The boundary keys between shards (`shard_count() - 1` of them,
    /// non-decreasing).
    #[must_use]
    pub fn boundaries(&self) -> &[u64] {
        &self.boundaries
    }

    /// The shard a *write* for `key` belongs to. Pure in the (frozen)
    /// boundaries — no dependence on which shards currently hold data —
    /// so every write of a key, ever, lands in the same shard: inserts
    /// cannot dual-home a key, and deletes/updates are single-shard.
    /// The one exception is itself static: `key == u64::MAX` under a
    /// saturated tail boundary routes to the build-time
    /// `max_key_home`.
    #[must_use]
    pub fn write_shard_of(&self, key: u64) -> usize {
        if key == u64::MAX && self.boundaries.last() == Some(&u64::MAX) {
            return self.max_key_home;
        }
        self.boundaries.partition_point(|b| *b <= key)
    }

    /// The inclusive span of shards the range `[lo, hi]` can touch, as
    /// `(first, last)`. The span errs on the inclusive side at the left
    /// seam (the extra shard contributes nothing), so callers may
    /// scatter to every shard in it unconditionally.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` (degenerate ranges touch no shard; callers
    /// filter them first).
    #[must_use]
    pub fn shard_span(&self, lo: u64, hi: u64) -> (usize, usize) {
        assert!(lo <= hi, "degenerate range has no shard span");
        let first = self.boundaries.partition_point(|b| *b < lo);
        let last = self.boundaries.partition_point(|b| *b <= hi);
        (first, last)
    }

    /// Serial scatter/gather oracle: every `(key, payload)` with `lo <=
    /// key <= hi` in key order, truncated to `limit` — what the served
    /// [`RangeScan`](crate::Request::RangeScan) path must reproduce.
    #[must_use]
    pub fn scan(&self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        if lo > hi || limit == 0 {
            return out;
        }
        let (first, last) = self.shard_span(lo, hi);
        for shard in first..=last {
            out.extend(self.read(shard).range_scan(lo, hi, limit - out.len()));
            if out.len() == limit {
                break;
            }
        }
        out
    }

    /// Descending counterpart of [`scan`](Self::scan): shards visited
    /// in *reverse* key order, each scanned backwards — what a served
    /// `RangeScan { desc: true }` must reproduce (the `ORDER BY key
    /// DESC` oracle: largest keys first, duplicates in reverse build
    /// order, the largest `limit` keys surviving).
    #[must_use]
    pub fn scan_desc(&self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        if lo > hi || limit == 0 {
            return out;
        }
        let (first, last) = self.shard_span(lo, hi);
        for shard in (first..=last).rev() {
            out.extend(self.read(shard).range_scan_desc(lo, hi, limit - out.len()));
            if out.len() == limit {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ordered(shards: usize, entries: u64) -> OrderedShardedIndex {
        OrderedShardedIndex::build(
            8,
            shards,
            &EpochDomain::new(),
            (0..entries).map(|k| (k * 2, k)),
        )
    }

    #[test]
    fn spans_and_routing_respect_boundaries() {
        let idx = ordered(4, 1000);
        assert_eq!(idx.shard_count(), 4);
        assert_eq!(idx.len(), 1000);
        for k in (0..2000u64).step_by(2) {
            let owner = idx.write_shard_of(k);
            assert_eq!(idx.read(owner).lookup(k), Some(k / 2), "owner holds {k}");
            let hit: Vec<usize> = (0..idx.shard_count())
                .filter(|s| idx.read(*s).lookup(k).is_some())
                .collect();
            assert_eq!(hit, vec![owner], "key {k} lives only in its owner");
            let (first, last) = idx.shard_span(k, k);
            assert!((first..=last).contains(&owner), "span covers owner for {k}");
        }
    }

    #[test]
    fn scan_oracle_equals_one_big_tree() {
        let idx = ordered(5, 2000);
        let one = BTreeIndex::build(8, (0..2000u64).map(|k| (k * 2, k)));
        for (lo, hi, limit) in [
            (0u64, u64::MAX, usize::MAX),
            (100, 700, usize::MAX),
            (101, 699, 17),
            (3999, 3999, usize::MAX),
            (500, 100, usize::MAX),
            (0, 4000, 0),
        ] {
            assert_eq!(
                idx.scan(lo, hi, limit),
                one.range_scan(lo, hi, limit),
                "scan [{lo}, {hi}] limit {limit}"
            );
        }
    }

    #[test]
    fn scan_desc_oracle_equals_one_big_tree() {
        let idx = ordered(5, 2000);
        let one = BTreeIndex::build(8, (0..2000u64).map(|k| (k * 2, k)));
        for (lo, hi, limit) in [
            (0u64, u64::MAX, usize::MAX),
            (100, 700, usize::MAX),
            (101, 699, 17),
            (3999, 3999, usize::MAX),
            (500, 100, usize::MAX),
            (0, 4000, 0),
        ] {
            assert_eq!(
                idx.scan_desc(lo, hi, limit),
                one.range_scan_desc(lo, hi, limit),
                "scan_desc [{lo}, {hi}] limit {limit}"
            );
        }
    }

    #[test]
    fn limit_truncates_across_shard_seams() {
        let idx = ordered(4, 1000);
        // A scan spanning all shards, cut mid-way through the second.
        let all = idx.scan(0, u64::MAX, usize::MAX);
        assert_eq!(all.len(), 1000);
        let per_shard = idx.read(0).len();
        let limit = per_shard + 3;
        let got = idx.scan(0, u64::MAX, limit);
        assert_eq!(got.len(), limit);
        assert_eq!(got, all[..limit], "prefix of the full ordered scan");
    }

    #[test]
    fn single_shard_and_empty_builds() {
        let idx = ordered(1, 100);
        assert_eq!(idx.shard_count(), 1);
        assert!(idx.boundaries().is_empty());
        assert_eq!(idx.scan(0, 300, usize::MAX).len(), 100);

        let empty = OrderedShardedIndex::build(4, 3, &EpochDomain::new(), std::iter::empty());
        assert!(empty.is_empty());
        assert_eq!(empty.scan(0, u64::MAX, usize::MAX), vec![]);
    }

    #[test]
    fn duplicates_stay_colocated_and_ordered() {
        let mut pairs: Vec<(u64, u64)> = (0..100u64).map(|k| (k, 0)).collect();
        pairs.extend((0..50u64).map(|p| (40, p + 1)));
        let idx = OrderedShardedIndex::build(4, 4, &EpochDomain::new(), pairs);
        let dups: Vec<u64> = idx
            .scan(40, 40, usize::MAX)
            .into_iter()
            .map(|(_, p)| p)
            .collect();
        let mut want = vec![0u64];
        want.extend(1..=50);
        assert_eq!(dups, want, "build-order payloads in one shard");
    }

    #[test]
    #[should_panic(expected = "degenerate range")]
    fn inverted_span_rejected() {
        let _ = ordered(2, 10).shard_span(5, 4);
    }

    #[test]
    fn max_key_routes_to_its_data_despite_saturated_boundary() {
        // Data ending at u64::MAX with empty trailing shards: the
        // saturated boundary equals the key, which must still route to
        // the shard holding it — for writes, the owner's reads, and scans.
        let idx = OrderedShardedIndex::build(
            4,
            3,
            &EpochDomain::new(),
            [(u64::MAX, 7u64), (u64::MAX, 8)],
        );
        let owner = idx.write_shard_of(u64::MAX);
        assert!(
            idx.read(owner).lookup(u64::MAX).is_some(),
            "owner shard holds the key"
        );
        assert_eq!(
            idx.scan(u64::MAX, u64::MAX, usize::MAX),
            vec![(u64::MAX, 7), (u64::MAX, 8)]
        );
    }

    #[test]
    fn write_route_is_stable_under_any_write_sequence() {
        let idx = ordered(4, 500);
        // Empty a middle shard completely, then keep writing the same
        // keys: the pure route keeps naming the now-empty shard, so a
        // later insert + delete pair stays consistent (no dual-homing).
        let victim_lo = idx.boundaries()[0];
        let victim_hi = idx.boundaries()[1] - 1;
        for k in victim_lo..=victim_hi {
            idx.write(idx.write_shard_of(k)).delete(k);
        }
        assert!(idx.read(1).is_empty(), "shard 1 emptied");
        for k in victim_lo..=victim_hi.min(victim_lo + 50) {
            let home = idx.write_shard_of(k);
            assert_eq!(home, 1, "route ignores emptiness");
            idx.write(home).insert(k, 777);
            assert_eq!(idx.scan(k, k, usize::MAX), vec![(k, 777)]);
            assert_eq!(idx.write(idx.write_shard_of(k)).delete(k), 1);
            assert!(idx.scan(k, k, usize::MAX).is_empty());
        }
    }

    #[test]
    fn writes_within_the_span_stay_scannable() {
        let idx = ordered(4, 500);
        // Insert brand-new keys between existing ones across all shards
        // through the write route; scans must see them in order.
        for k in (1..999u64).step_by(2) {
            idx.write(idx.write_shard_of(k)).insert(k, k + 10_000);
        }
        let all = idx.scan(0, 1000, usize::MAX);
        let mut want: Vec<(u64, u64)> = (0..500u64).map(|k| (k * 2, k)).collect();
        want.extend((1..999u64).step_by(2).map(|k| (k, k + 10_000)));
        want.sort_by_key(|(k, _)| *k);
        assert_eq!(all, want);
        let mut rev = all.clone();
        rev.reverse();
        assert_eq!(idx.scan_desc(0, 1000, usize::MAX), rev);
    }
}
