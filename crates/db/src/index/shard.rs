//! Shard-aware build paths. The hash tier partitions `(key, payload)`
//! streams by [`HashRecipe::shard_of`] so each shard builds (and later
//! serves) its own independent [`HashIndex`]; the ordered tier sorts the
//! stream once and cuts it into contiguous key ranges, one [`BTreeIndex`]
//! per range. Shards past `PARALLEL_BUILD_FLOOR` build on threads.
//!
//! This is the data-placement half of scaling the paper's design point
//! out to a socket: one Widx front-end (dispatcher + walkers) per shard,
//! each walking only index state it owns — no cross-shard pointers, no
//! synchronization on the probe path.

use std::panic::resume_unwind;

use super::sort::sort_pairs;
use crate::hash::HashRecipe;
use crate::index::{BTreeIndex, HashIndex};
use crate::prefetch::huge_vec;

/// Splits `pairs` into `shards` disjoint build streams using
/// `recipe.shard_of` on the key. The concatenation of the returned
/// streams is a permutation of the input.
///
/// # Panics
///
/// Panics if `shards` is zero.
#[must_use]
pub fn partition_pairs(
    recipe: &HashRecipe,
    shards: usize,
    pairs: impl IntoIterator<Item = (u64, u64)>,
) -> Vec<Vec<(u64, u64)>> {
    assert!(shards > 0, "need at least one shard");
    let pairs = pairs.into_iter();
    // The expected share plus 1/16 for the hash's spread; past it, a part grows.
    let share = pairs.size_hint().0 / shards;
    let mut parts: Vec<Vec<_>> = (0..shards).map(|_| huge_vec(share + share / 16)).collect();
    for (key, payload) in pairs {
        parts[recipe.shard_of(key, shards as u64) as usize].push((key, payload));
    }
    parts
}

/// Entries some shard must hold before [`build_sharded`] or
/// [`build_range_sharded`] gives each shard a thread (and, for the range
/// tier, splits the sort). Measured: with threads at every size, the
/// benchmark's 2¹⁶-entry `point_cached` index grew from 62 to 78 resident
/// B/entry and the 2²⁰-entry `rw_hot` set-up got no faster; both of
/// `rw_hot`'s 2²⁰-entry tiers (2¹⁹ per shard) stay serial.
const PARALLEL_BUILD_FLOOR: usize = 1 << 20;

/// Builds one [`HashIndex`] per shard from `pairs`, sizing each shard's
/// bucket array for its own entry count at the given target `load`
/// (entries per bucket, e.g. 1.0 for ~1 entry/bucket), with a floor of
/// `min_buckets` buckets per shard.
///
/// Each shard is a [`HashIndex::build`] of its part. Once some part
/// holds 2²⁰ entries they run on scoped threads, the caller building the
/// first; smaller shards build serially, as threads there only cost RSS.
///
/// # Panics
///
/// Panics if `shards` or `min_buckets` is zero, or `load` is not
/// positive.
#[must_use]
pub fn build_sharded(
    recipe: &HashRecipe,
    shards: usize,
    min_buckets: usize,
    load: f64,
    pairs: impl IntoIterator<Item = (u64, u64)>,
) -> Vec<HashIndex> {
    assert!(min_buckets > 0, "need at least one bucket per shard");
    assert!(load > 0.0, "target load must be positive");
    let build = |part: Vec<(u64, u64)>| {
        let want = (part.len() as f64 / load).ceil() as usize;
        HashIndex::build(recipe.clone(), want.max(min_buckets), part)
    };
    let parts = partition_pairs(recipe, shards, pairs);
    let threaded = parts.iter().any(|part| part.len() >= PARALLEL_BUILD_FLOOR);
    run_jobs(threaded, parts.into_iter().map(|part| move || build(part)))
}

/// Builds one [`BTreeIndex`] per range shard from `pairs`: `shards`
/// contiguous key ranges of roughly equal entry count, so each shard owns
/// one span of the key space and cross-shard scans touch only neighbours.
///
/// Returns the trees and the `shards - 1` boundary keys: shard `i` owns
/// keys `k` with `boundaries[i - 1] <= k < boundaries[i]` (unbounded at
/// the ends). Duplicates of one key are never split across shards;
/// trailing shards may be empty when the data has fewer distinct keys
/// than shards. Each tree equals the [`BTreeIndex::build`] of its span.
///
/// The input is collected (in place from a `Vec`) and radix-sorted once,
/// and each tree is packed from its own slice of it — nothing is copied.
/// Once a shard's share reaches 2²⁰ entries the sort's passes split over
/// `shards` threads, and once some slice does the trees build on scoped
/// threads, the caller building the first.
///
/// # Panics
///
/// Panics if `shards` is zero or `fanout < 2`.
#[must_use]
pub fn build_range_sharded(
    fanout: usize,
    shards: usize,
    pairs: impl IntoIterator<Item = (u64, u64)>,
) -> (Vec<BTreeIndex>, Vec<u64>) {
    assert!(shards > 0, "need at least one shard");
    let mut entries: Vec<(u64, u64)> = pairs.into_iter().collect();
    let len = entries.len();
    let split = len / shards >= PARALLEL_BUILD_FLOOR;
    sort_pairs(&mut entries, if split { shards } else { 1 });
    let mut parts = Vec::with_capacity(shards);
    let mut boundaries = Vec::with_capacity(shards - 1);
    let past_last = entries.last().map_or(0, |(k, _)| k.saturating_add(1));
    let mut start = 0usize;
    for s in 1..=shards {
        let mut end = (len * s / shards).max(start);
        // Push the cut past any duplicate run: equal keys stay together.
        while end > start && end < len && entries[end].0 == entries[end - 1].0 {
            end += 1;
        }
        if s < shards {
            // Past the data, everything is placed; later shards are empty.
            boundaries.push(entries.get(end).map_or(past_last, |(k, _)| *k));
        }
        parts.push(&entries[start..end]);
        start = end;
    }
    let threaded = parts.iter().any(|part| part.len() >= PARALLEL_BUILD_FLOOR);
    let jobs = parts
        .into_iter()
        .map(|part| move || BTreeIndex::from_sorted(fanout, part));
    (run_jobs(threaded, jobs), boundaries)
}

/// Runs every job and returns their results in order: on the calling
/// thread unless `threaded`, else the first there and the rest on scoped
/// threads, a job's panic raised again here.
pub(super) fn run_jobs<T: Send>(
    threaded: bool,
    jobs: impl IntoIterator<Item = impl FnOnce() -> T + Send>,
) -> Vec<T> {
    let mut jobs = jobs.into_iter();
    match jobs.next() {
        Some(first) if threaded => std::thread::scope(|scope| {
            let rest: Vec<_> = jobs.map(|job| scope.spawn(job)).collect();
            let joined = rest
                .into_iter()
                .map(|t| t.join().unwrap_or_else(|e| resume_unwind(e)));
            std::iter::once(first()).chain(joined).collect()
        }),
        first => first.into_iter().chain(jobs).map(|job| job()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_a_permutation() {
        let recipe = HashRecipe::robust64();
        let pairs: Vec<(u64, u64)> = (0..500u64).map(|k| (k % 97, k)).collect();
        let parts = partition_pairs(&recipe, 3, pairs.iter().copied());
        assert_eq!(parts.len(), 3);
        let mut merged: Vec<(u64, u64)> = parts.concat();
        merged.sort_unstable();
        let mut want = pairs.clone();
        want.sort_unstable();
        assert_eq!(merged, want);
    }

    #[test]
    fn partition_routes_by_shard_of() {
        let recipe = HashRecipe::robust64();
        let parts = partition_pairs(&recipe, 4, (0..200u64).map(|k| (k, k)));
        for (s, part) in parts.iter().enumerate() {
            for (k, _) in part {
                assert_eq!(recipe.shard_of(*k, 4), s as u64);
            }
        }
    }

    #[test]
    fn sharded_build_finds_every_key_in_its_shard() {
        let recipe = HashRecipe::robust64();
        let pairs: Vec<(u64, u64)> = (0..1000u64).map(|k| (k, k * 10)).collect();
        let indexes = build_sharded(&recipe, 4, 16, 1.0, pairs.iter().copied());
        assert_eq!(indexes.len(), 4);
        let total: usize = indexes.iter().map(HashIndex::len).sum();
        assert_eq!(total, 1000);
        for k in 0..1000u64 {
            let s = recipe.shard_of(k, 4) as usize;
            assert_eq!(indexes[s].lookup(k), Some(k * 10), "key {k}");
            // And it lives nowhere else.
            for (other, idx) in indexes.iter().enumerate() {
                if other != s {
                    assert_eq!(idx.lookup(k), None, "key {k} leaked into shard {other}");
                }
            }
        }
    }

    #[test]
    fn load_controls_bucket_sizing() {
        let recipe = HashRecipe::robust64();
        let pairs: Vec<(u64, u64)> = (0..4096u64).map(|k| (k, k)).collect();
        let tight = build_sharded(&recipe, 2, 1, 4.0, pairs.iter().copied());
        let roomy = build_sharded(&recipe, 2, 1, 0.5, pairs.iter().copied());
        for (t, r) in tight.iter().zip(&roomy) {
            assert!(r.bucket_count() > t.bucket_count());
        }
    }

    /// Each shard of `build_sharded` is the plain build of its part.
    fn assert_shards_are_plain_builds(entries: u64) -> Vec<usize> {
        let recipe = HashRecipe::robust64();
        // A multiplicative scramble: unique keys in no particular order.
        let pairs = (0..entries).map(|k| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k));
        let built = build_sharded(&recipe, 2, 16, 1.0, pairs.clone());
        let parts = partition_pairs(&recipe, 2, pairs);
        for (s, (index, part)) in built.iter().zip(&parts).enumerate() {
            let plain = HashIndex::build(recipe.clone(), part.len().max(16), part.clone());
            assert!(index.buckets() == plain.buckets(), "shard {s} buckets");
            assert!(index.nodes() == plain.nodes(), "shard {s} nodes");
        }
        parts.iter().map(Vec::len).collect()
    }

    #[test]
    fn serial_shards_below_the_floor_are_plain_builds() {
        let sizes = assert_shards_are_plain_builds(4096);
        assert!(sizes.iter().all(|n| *n < PARALLEL_BUILD_FLOOR));
    }

    #[test]
    fn threaded_shards_above_the_floor_are_plain_builds() {
        let sizes = assert_shards_are_plain_builds(2 * PARALLEL_BUILD_FLOOR as u64 + 1024);
        assert!(sizes.iter().any(|n| *n >= PARALLEL_BUILD_FLOOR));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = partition_pairs(&HashRecipe::robust64(), 0, std::iter::empty());
    }

    #[test]
    fn single_shard_degenerates_to_plain_build() {
        let recipe = HashRecipe::robust64();
        let parts = partition_pairs(&recipe, 1, (0..50u64).map(|k| (k, k)));
        assert_eq!(parts[0].len(), 50);
    }

    #[test]
    fn range_partition_is_ordered_and_balanced() {
        let pairs: Vec<(u64, u64)> = (0..1000u64).rev().map(|k| (k, k * 3)).collect();
        let (trees, bounds) = build_range_sharded(8, 4, pairs);
        assert_eq!(trees.len(), 4);
        assert_eq!(bounds, vec![250, 500, 750]);
        let parts: Vec<Vec<(u64, u64)>> = trees.iter().map(BTreeIndex::entries).collect();
        for (s, part) in parts.iter().enumerate() {
            assert_eq!(part.len(), 250, "shard {s} balanced");
            assert!(
                part.windows(2).all(|w| w[0].0 <= w[1].0),
                "shard {s} sorted"
            );
        }
        // Concatenation in shard order is the full sorted stream.
        let merged: Vec<(u64, u64)> = parts.concat();
        assert_eq!(merged, (0..1000u64).map(|k| (k, k * 3)).collect::<Vec<_>>());
    }

    #[test]
    fn range_partition_keeps_duplicates_colocated_and_stable() {
        // One heavy key right at a would-be boundary.
        let mut pairs: Vec<(u64, u64)> = (0..10u64).map(|k| (k, 0)).collect();
        pairs.extend((0..30u64).map(|p| (10, p)));
        let (trees, bounds) = build_range_sharded(4, 4, pairs);
        let parts: Vec<Vec<(u64, u64)>> = trees.iter().map(BTreeIndex::entries).collect();
        let dup_shard: Vec<usize> = parts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.iter().any(|(k, _)| *k == 10))
            .map(|(s, _)| s)
            .collect();
        assert_eq!(dup_shard.len(), 1, "duplicates of 10 in one shard");
        let dups: Vec<u64> = parts[dup_shard[0]]
            .iter()
            .filter(|(k, _)| *k == 10)
            .map(|(_, p)| *p)
            .collect();
        assert_eq!(dups, (0..30u64).collect::<Vec<_>>(), "stable payload order");
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn range_partition_with_fewer_keys_than_shards() {
        let (trees, bounds) = build_range_sharded(8, 5, [(3u64, 0u64), (3, 1)]);
        assert_eq!(trees.iter().filter(|t| !t.is_empty()).count(), 1);
        assert_eq!(bounds.len(), 4);
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
        let (trees, bounds) = build_range_sharded(8, 3, std::iter::empty());
        assert_eq!(trees.len(), 3);
        assert!(trees.iter().all(BTreeIndex::is_empty));
        assert_eq!(bounds, vec![0, 0]);
    }

    /// Each of two range shards is the plain build of its slice of one
    /// reference sort, over `entries` shuffled keys of which those within
    /// 100 of the middle collapse into one duplicate run across the cut.
    fn assert_range_shards_are_plain_builds(entries: u64) -> Vec<usize> {
        let middle = entries / 2;
        // A permutation of `0..entries` (the multiplier is coprime to
        // every size used here), then the duplicate run.
        let pairs: Vec<(u64, u64)> = (0..entries)
            .map(|i| {
                let key = (i * 1_000_003) % entries;
                let key = if key.abs_diff(middle) < 100 {
                    middle
                } else {
                    key
                };
                (key, i)
            })
            .collect();
        let (trees, bounds) = build_range_sharded(8, 2, pairs.iter().copied());
        let mut reference = pairs;
        reference.sort_by_key(|(k, _)| *k);
        // The cut at `middle` is pushed past the run, to the next key.
        let cut = (middle + 100) as usize;
        assert_eq!(bounds, vec![cut as u64]);
        let slices = [&reference[..cut], &reference[cut..]];
        for (s, (tree, slice)) in trees.iter().zip(slices).enumerate() {
            let plain = BTreeIndex::build(8, slice.iter().copied());
            assert!(tree.entries() == slice, "shard {s} entries");
            let (got, want) = (tree.export(), plain.export());
            assert!(got.levels == want.levels, "shard {s} inner levels");
            assert!(got.leaves == want.leaves, "shard {s} leaves");
        }
        trees.iter().map(BTreeIndex::len).collect()
    }

    #[test]
    fn serial_range_shards_below_the_floor_are_plain_builds() {
        let sizes = assert_range_shards_are_plain_builds(4096);
        assert!(sizes.iter().all(|n| *n < PARALLEL_BUILD_FLOOR));
    }

    #[test]
    fn threaded_range_shards_above_the_floor_are_plain_builds() {
        let sizes = assert_range_shards_are_plain_builds(2 * PARALLEL_BUILD_FLOOR as u64 + 1024);
        assert!(sizes.iter().any(|n| *n >= PARALLEL_BUILD_FLOOR));
    }

    #[test]
    fn range_sharded_trees_scan_their_own_spans() {
        let pairs: Vec<(u64, u64)> = (0..600u64).map(|k| (k, k + 1)).collect();
        let (trees, bounds) = build_range_sharded(8, 3, pairs);
        assert_eq!(trees.len(), 3);
        assert_eq!(bounds.len(), 2);
        let total: usize = trees.iter().map(BTreeIndex::len).sum();
        assert_eq!(total, 600);
        // Each tree's full scan stays inside its boundary span.
        for (s, tree) in trees.iter().enumerate() {
            for (k, _) in tree.range_scan(0, u64::MAX, usize::MAX) {
                if s > 0 {
                    assert!(k >= bounds[s - 1], "key {k} below shard {s}");
                }
                if s < bounds.len() {
                    assert!(k < bounds[s], "key {k} above shard {s}");
                }
            }
        }
    }
}
