//! Property tests for the walker engines over *mutating* indexes: after
//! arbitrary rounds of interleaved inserts, deletes, and updates — whose
//! freed node slots go straight back to the free lists, so later writes
//! refill them — all three hash-probe engines and all three B+-tree scan
//! engines must answer exactly like a serial mutable oracle.
//!
//! This is the soft-tier half of the online-writes guarantee: the
//! frozen-build equivalence suite (`proptest_equivalence`,
//! `proptest_btree`) pins the engines against each other on static
//! indexes; this suite pins them against ground truth as the index
//! churns underneath.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use widx_db::hash::HashRecipe;
use widx_db::index::{BTreeIndex, HashIndex};
use widx_soft::{
    probe_amac, probe_group_prefetch, probe_scalar, scan_btree_amac, scan_btree_group,
    scan_btree_scalar, ScanRange,
};

/// One mutation: `op % 3` selects insert / delete / update.
type Mutation = (u8, u64, u64);

/// `(scan index, key, payload)` rows as the scan engines emit them.
type Rows = Vec<(u32, u64, u64)>;

fn apply_hash(index: &mut HashIndex, oracle: &mut HashMap<u64, Vec<u64>>, muts: &[Mutation]) {
    for (op, key, payload) in muts {
        let (op, key, payload) = (*op % 3, *key, *payload);
        match op {
            0 => {
                index.insert(key, payload);
                oracle.entry(key).or_default().push(payload);
            }
            1 => {
                let removed = index.delete(key);
                let expected = oracle.remove(&key).map_or(0, |v| v.len());
                assert_eq!(removed, expected, "delete count for key {key}");
            }
            _ => {
                let applied = index.update(key, payload);
                let expected = oracle.contains_key(&key);
                assert_eq!(applied, expected, "update hit for key {key}");
                if expected {
                    oracle.insert(key, vec![payload]);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Scalar, AMAC, and group-prefetch probes agree with a mutable
    /// `HashMap` oracle across mutation rounds, after freed pool slots
    /// have been recycled into fresh inserts.
    #[test]
    fn hash_engines_track_mutations(
        seed_pairs in prop::collection::vec((0u64..80, any::<u64>()), 0..150),
        rounds in prop::collection::vec(
            (
                prop::collection::vec((0u8..3, 0u64..80, any::<u64>()), 0..60),
                prop::collection::vec(0u64..100, 0..60),
            ),
            1..6,
        ),
        inflight in 1usize..16,
        group in 1usize..32,
        buckets in 1usize..64,
    ) {
        let mut index = HashIndex::build(
            HashRecipe::robust64(),
            buckets,
            seed_pairs.iter().copied(),
        );
        let mut oracle: HashMap<u64, Vec<u64>> = HashMap::new();
        for (key, payload) in &seed_pairs {
            oracle.entry(*key).or_default().push(*payload);
        }
        for (muts, probes) in &rounds {
            apply_hash(&mut index, &mut oracle, muts);

            let mut expected: Vec<(u64, u64)> = probes
                .iter()
                .flat_map(|k| {
                    oracle
                        .get(k)
                        .into_iter()
                        .flatten()
                        .map(move |p| (*k, *p))
                })
                .collect();
            expected.sort_unstable();

            let (mut scalar, mut amac, mut gp) = (Vec::new(), Vec::new(), Vec::new());
            probe_scalar(&index, probes, &mut scalar);
            probe_amac(&index, probes, inflight, &mut amac);
            probe_group_prefetch(&index, probes, group, &mut gp);
            scalar.sort_unstable();
            amac.sort_unstable();
            gp.sort_unstable();
            prop_assert_eq!(&scalar, &expected);
            prop_assert_eq!(&amac, &expected);
            prop_assert_eq!(&gp, &expected);
        }
        prop_assert_eq!(
            index.len(),
            oracle.values().map(Vec::len).sum::<usize>(),
            "entry count stays in lockstep"
        );
    }

    /// The three B+-tree scan engines agree with a mutable `BTreeMap`
    /// oracle across mutation rounds, for ascending and descending
    /// ranges with and without limits.
    #[test]
    fn btree_engines_track_mutations(
        seed_pairs in prop::collection::vec((0u64..120, any::<u64>()), 0..150),
        rounds in prop::collection::vec(
            (
                prop::collection::vec((0u8..3, 0u64..120, any::<u64>()), 0..60),
                prop::collection::vec((0u64..130, 0u64..40, 0usize..20, any::<bool>()), 0..20),
            ),
            1..5,
        ),
        fanout in 4usize..12,
        inflight in 1usize..8,
        group in 1usize..8,
    ) {
        let mut tree = BTreeIndex::build(fanout, seed_pairs.iter().copied());
        let mut oracle: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (key, payload) in &seed_pairs {
            oracle.entry(*key).or_default().push(*payload);
        }
        for (muts, scan_specs) in &rounds {
            for (op, key, payload) in muts {
                let (op, key, payload) = (*op % 3, *key, *payload);
                match op {
                    0 => {
                        tree.insert(key, payload);
                        oracle.entry(key).or_default().push(payload);
                    }
                    1 => {
                        let removed = tree.delete(key);
                        let expected = oracle.remove(&key).map_or(0, |v| v.len());
                        prop_assert_eq!(removed, expected);
                    }
                    _ => {
                        let applied = tree.update(key, payload);
                        prop_assert_eq!(applied, oracle.contains_key(&key));
                        if applied {
                            oracle.insert(key, vec![payload]);
                        }
                    }
                }
            }

            let scans: Vec<ScanRange> = scan_specs
                .iter()
                .map(|(lo, span, limit, desc)| {
                    let mut range = ScanRange::new(*lo, lo + span);
                    if *limit > 0 {
                        range = range.with_limit(*limit);
                    }
                    if *desc {
                        range = range.descending();
                    }
                    range
                })
                .collect();
            let mut expected: Rows = Vec::new();
            for (i, (lo, span, limit, desc)) in scan_specs.iter().enumerate() {
                let limit = if *limit > 0 { *limit } else { usize::MAX };
                let rows = oracle
                    .range(*lo..=lo + span)
                    .flat_map(|(k, ps)| ps.iter().map(move |p| (*k, *p)));
                let rows: Vec<(u64, u64)> = if *desc {
                    // Descending keeps the *largest* keys under limit,
                    // with duplicates in reverse arrival order.
                    rows.collect::<Vec<_>>().into_iter().rev().take(limit).collect()
                } else {
                    rows.take(limit).collect()
                };
                expected.extend(rows.into_iter().map(|(k, p)| (i as u32, k, p)));
            }
            expected.sort_unstable();

            let collect = |emit: &mut dyn FnMut(&mut Rows)| {
                let mut out = Vec::new();
                emit(&mut out);
                out.sort_unstable();
                out
            };
            let scalar = collect(&mut |out| {
                scan_btree_scalar(&tree, &scans, &mut |tag, k, p| out.push((tag, k, p)));
            });
            let amac = collect(&mut |out| {
                scan_btree_amac(&tree, &scans, inflight, &mut |tag, k, p| {
                    out.push((tag, k, p));
                });
            });
            let gp = collect(&mut |out| {
                scan_btree_group(&tree, &scans, group, &mut |tag, k, p| {
                    out.push((tag, k, p));
                });
            });
            prop_assert_eq!(&scalar, &expected);
            prop_assert_eq!(&amac, &expected);
            prop_assert_eq!(&gp, &expected);
        }
        prop_assert_eq!(
            tree.len(),
            oracle.values().map(Vec::len).sum::<usize>(),
            "entry count stays in lockstep"
        );
    }
}
