//! Property tests for the mutable serving tier: arbitrary interleavings
//! of inserts, deletes, updates, point lookups, multi-lookups, and
//! range scans through the sharded, batched, multi-threaded service
//! answer exactly like a serial mutable oracle (`BTreeMap<u64,
//! Vec<u64>>`), for arbitrary shard counts, fanouts, batch sizes, and
//! in-flight depths — including shutdown arriving with writes still
//! queued.
//!
//! The oracle mirrors the index semantics: `insert` stacks duplicate
//! payloads in arrival order, `delete` removes every entry under the
//! key, `update` collapses the key to the single new payload (and
//! never inserts on miss).

use std::collections::BTreeMap;

use proptest::prelude::*;
use widx_db::hash::HashRecipe;
use widx_serve::{ProbeService, Request, Response, ServeConfig};

/// Serial mutable oracle over the same key space.
#[derive(Default)]
struct Oracle {
    map: BTreeMap<u64, Vec<u64>>,
}

impl Oracle {
    fn insert(&mut self, key: u64, payload: u64) -> bool {
        self.map.entry(key).or_default().push(payload);
        true
    }

    fn delete(&mut self, key: u64) -> bool {
        self.map.remove(&key).is_some()
    }

    fn update(&mut self, key: u64, payload: u64) -> bool {
        match self.map.get_mut(&key) {
            Some(payloads) => {
                *payloads = vec![payload];
                true
            }
            None => false,
        }
    }

    fn lookup(&self, key: u64) -> Vec<u64> {
        let mut out = self.map.get(&key).cloned().unwrap_or_default();
        out.sort_unstable();
        out
    }

    fn multi_lookup(&self, keys: &[u64]) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = keys
            .iter()
            .flat_map(|k| self.lookup(*k).into_iter().map(move |p| (*k, p)))
            .collect();
        out.sort_unstable();
        out
    }

    /// Key-ordered scan; duplicate payloads under one key come back in
    /// arrival order, exactly like the B+-tree's in-leaf ordering.
    fn range_scan(&self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, u64)> {
        self.map
            .range(lo..=hi)
            .flat_map(|(k, ps)| ps.iter().map(move |p| (*k, *p)))
            .take(limit)
            .collect()
    }
}

fn config(shards: usize, fanout: usize, batch: usize, inflight: usize) -> ServeConfig {
    ServeConfig::default()
        .with_shards(shards)
        .with_fanout(fanout)
        .with_batch_size(batch)
        .with_inflight(inflight)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every interleaving of the six operation kinds, applied serially,
    /// agrees with the mutable oracle at each step — no stale reads
    /// after a write, no resurrection after a delete, no insert-on-miss
    /// from update, and range scans that see every mutation in key
    /// order.
    #[test]
    fn interleaved_ops_match_the_mutable_oracle(
        seed_pairs in prop::collection::vec((0u64..60, 0u64..1000), 0..120),
        ops in prop::collection::vec((0u8..6, 0u64..60, 0u64..1000), 1..120),
        shards in 1usize..5,
        fanout in 2usize..8,
        batch in 1usize..24,
        inflight in 1usize..8,
    ) {
        let service = ProbeService::build_with_range(
            HashRecipe::robust64(),
            seed_pairs.iter().copied(),
            &config(shards, fanout, batch, inflight),
        );
        let mut oracle = Oracle::default();
        for (key, payload) in &seed_pairs {
            oracle.insert(*key, *payload);
        }
        for (op, key, payload) in &ops {
            let (op, key, payload) = (*op, *key, *payload);
            match op {
                0 => prop_assert_eq!(
                    service.insert(key, payload).unwrap(),
                    oracle.insert(key, payload)
                ),
                1 => prop_assert_eq!(service.delete(key).unwrap(), oracle.delete(key)),
                2 => prop_assert_eq!(
                    service.update(key, payload).unwrap(),
                    oracle.update(key, payload)
                ),
                3 => {
                    let mut got = service.lookup(key).unwrap();
                    got.sort_unstable();
                    prop_assert_eq!(got, oracle.lookup(key));
                }
                4 => {
                    let keys = [key, key / 2, payload % 60];
                    let mut got = service.multi_lookup(&keys).unwrap();
                    got.sort_unstable();
                    prop_assert_eq!(got, oracle.multi_lookup(&keys));
                }
                _ => {
                    let lo = key.min(payload % 60);
                    let hi = lo + payload % 20;
                    let limit = if payload % 7 == 0 { 5 } else { usize::MAX };
                    prop_assert_eq!(
                        service.range_scan(lo, hi, limit).unwrap(),
                        oracle.range_scan(lo, hi, limit)
                    );
                }
            }
        }
        // The final index state agrees wholesale, through both tiers.
        let full = service.range_scan(0, u64::MAX, usize::MAX).unwrap();
        prop_assert_eq!(&full, &oracle.range_scan(0, u64::MAX, usize::MAX));
        let _ = service.shutdown();
    }

    /// Writes queued when `stop` lands still apply (drain-then-halt),
    /// every accepted ack arrives, and the final snapshot's write
    /// counters cover every accepted op.
    #[test]
    fn shutdown_drains_queued_writes(
        seed_pairs in prop::collection::vec((0u64..40, any::<u64>()), 0..80),
        inserts in prop::collection::vec((100u64..200, any::<u64>()), 1..60),
        shards in 1usize..5,
        batch in 1usize..24,
    ) {
        let service = ProbeService::build_with_range(
            HashRecipe::robust64(),
            seed_pairs.iter().copied(),
            &config(shards, 4, batch, 4),
        );
        // Pipeline the writes without waiting, then stop under them.
        let pendings: Vec<_> = inserts
            .iter()
            .map(|(k, p)| {
                service
                    .submit(Request::Insert { pairs: vec![(*k, *p)] })
                    .unwrap()
            })
            .collect();
        service.stop();
        prop_assert!(service.insert(1, 1).is_err(), "post-stop writes refused");
        for pending in pendings {
            prop_assert_eq!(
                pending.wait(),
                Response::Write { acks: vec![true] },
                "accepted write drained before the halt"
            );
        }
        let stats = service.shutdown();
        // Each op applies in the hash tier and the ordered tier.
        prop_assert_eq!(stats.total_write_applied(), inserts.len() as u64 * 2);
    }
}
