//! Property tests: the hash index and the joins agree with standard
//! library oracles for arbitrary key multisets.

use std::collections::HashMap;

use proptest::prelude::*;
use widx_db::column::{Column, ColumnType};
use widx_db::hash::HashRecipe;
use widx_db::index::{build_range_sharded, BTreeIndex, HashIndex};
use widx_db::ops::{hash_join, sort_merge_join};

fn oracle(pairs: &[(u64, u64)]) -> HashMap<u64, Vec<u64>> {
    let mut m: HashMap<u64, Vec<u64>> = HashMap::new();
    for (k, v) in pairs {
        m.entry(*k).or_default().push(*v);
    }
    m
}

/// Key streams that stress a radix sort: heavy duplicates, the full `u64`
/// range (top bit, `u64::MAX`), keys one bit apart, all-equal keys.
fn sort_keys() -> impl Strategy<Value = Vec<u64>> {
    let wide = prop_oneof![
        any::<u64>(),
        Just(u64::MAX),
        Just(0),
        (1u64 << 63)..=u64::MAX
    ];
    let one_bit = any::<u64>().prop_flat_map(|base| {
        prop::collection::vec(
            (0u32..65).prop_map(move |b| base ^ 1u64.checked_shl(b).unwrap_or(0)),
            0..300,
        )
    });
    prop_oneof![
        prop::collection::vec(0u64..8, 0..300),
        prop::collection::vec(wide, 0..300),
        one_bit,
        any::<u64>().prop_flat_map(|key| prop::collection::vec(Just(key), 0..300)),
    ]
}

/// The shard sizes and boundaries `build_range_sharded` must return for
/// a key-sorted stream: cut at `len * s / shards`, pushed past any
/// duplicate run, and one past the last key (saturating) once the data
/// has run out.
fn reference_cuts(sorted: &[(u64, u64)], shards: usize) -> (Vec<usize>, Vec<u64>) {
    let len = sorted.len();
    let past_last = sorted.last().map_or(0, |(k, _)| k.saturating_add(1));
    let (mut sizes, mut bounds, mut start) = (Vec::new(), Vec::new(), 0);
    for s in 1..=shards {
        let mut end = (len * s / shards).max(start);
        while end > start && end < len && sorted[end].0 == sorted[end - 1].0 {
            end += 1;
        }
        sizes.push(end - start);
        if s < shards {
            bounds.push(sorted.get(end).map_or(past_last, |(k, _)| *k));
        }
        start = end;
    }
    (sizes, bounds)
}

proptest! {
    /// The build sorts like a stable comparison sort: payloads are input
    /// positions, so a reordered duplicate shows.
    #[test]
    fn build_sorts_like_a_stable_comparison_sort(
        keys in sort_keys(),
        order in 0u8..3,
        fanout in 2usize..10,
    ) {
        let mut keys = keys;
        if order > 0 {
            keys.sort_unstable();
        }
        if order > 1 {
            keys.reverse();
        }
        let pairs: Vec<(u64, u64)> = keys.iter().enumerate().map(|(i, k)| (*k, i as u64)).collect();
        let mut reference = pairs.clone();
        reference.sort_by_key(|(k, _)| *k);
        prop_assert_eq!(BTreeIndex::build(fanout, pairs.iter().copied()).entries(), reference.clone());
        for shards in 1..=4 {
            let (trees, bounds) = build_range_sharded(fanout, shards, pairs.iter().copied());
            prop_assert_eq!(trees.len(), shards);
            let merged: Vec<(u64, u64)> = trees.iter().flat_map(BTreeIndex::entries).collect();
            prop_assert_eq!(&merged, &reference);
            let (sizes, want_bounds) = reference_cuts(&reference, shards);
            prop_assert_eq!(bounds, want_bounds);
            prop_assert_eq!(trees.iter().map(BTreeIndex::len).collect::<Vec<_>>(), sizes);
        }
    }

    #[test]
    fn hash_index_agrees_with_map(
        pairs in prop::collection::vec((any::<u64>(), any::<u64>()), 0..300),
        probes in prop::collection::vec(any::<u64>(), 0..100),
        buckets in 1usize..128,
    ) {
        let idx = HashIndex::build(HashRecipe::robust64(), buckets, pairs.iter().copied());
        let oracle = oracle(&pairs);
        // Every inserted key is found with all payloads.
        for (k, expected) in &oracle {
            let mut got = idx.lookup_all(*k);
            got.sort_unstable();
            let mut want = expected.clone();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
        // Random probes agree on membership.
        for p in probes {
            prop_assert_eq!(idx.lookup(p).is_some(), oracle.contains_key(&p));
        }
        prop_assert_eq!(idx.len(), pairs.len());
    }

    #[test]
    fn trivial_hash_also_correct(
        pairs in prop::collection::vec((0u64..1000, any::<u64>()), 0..200),
    ) {
        // Correctness must not depend on hash quality.
        let idx = HashIndex::build(HashRecipe::trivial(), 8, pairs.iter().copied());
        let oracle = oracle(&pairs);
        for (k, expected) in &oracle {
            prop_assert_eq!(idx.lookup_all(*k).len(), expected.len());
        }
    }

    #[test]
    fn btree_agrees_with_map(
        pairs in prop::collection::vec((any::<u64>(), any::<u64>()), 0..300),
        probes in prop::collection::vec(any::<u64>(), 0..100),
        fanout in 2usize..16,
    ) {
        let tree = BTreeIndex::build(fanout, pairs.iter().copied());
        let oracle = oracle(&pairs);
        for p in pairs.iter().map(|(k, _)| *k).chain(probes) {
            let got = tree.lookup(p);
            match oracle.get(&p) {
                Some(values) => prop_assert!(values.contains(&got.expect("present key found"))),
                None => prop_assert!(got.is_none()),
            }
        }
    }

    #[test]
    fn joins_agree(
        build in prop::collection::vec(0u64..64, 0..120),
        probe in prop::collection::vec(0u64..64, 0..120),
    ) {
        let b = Column::new("b", ColumnType::U64, build);
        let p = Column::new("p", ColumnType::U64, probe);
        let mut hj = hash_join(&b, &p, HashRecipe::robust64(), 32).pairs;
        let mut sm = sort_merge_join(&b, &p).pairs;
        hj.sort_unstable();
        sm.sort_unstable();
        prop_assert_eq!(hj, sm);
    }

    #[test]
    fn probe_visits_at_least_chain_on_hit(
        keys in prop::collection::vec(any::<u64>(), 1..100),
    ) {
        let idx = HashIndex::build(
            HashRecipe::robust64(),
            16,
            keys.iter().map(|k| (*k, 0u64)),
        );
        for k in &keys {
            prop_assert!(idx.probe_visits(*k) >= 1);
        }
    }
}
