//! Property tests: the sharded, batched, multi-threaded probe service
//! answers exactly like the serial `probe_scalar` oracle, for arbitrary
//! shard counts, batch sizes, in-flight depths, and skewed/duplicate
//! key streams — including shutdown arriving mid-stream.

use proptest::prelude::*;
use widx_db::hash::HashRecipe;
use widx_db::index::HashIndex;
use widx_serve::{ProbeService, Request, Response, ServeConfig, SubmitError};
use widx_soft::probe_scalar;

/// The serial oracle: every `(key, payload)` match for `probes` against
/// an unsharded index over `pairs`.
fn oracle(pairs: &[(u64, u64)], probes: &[u64]) -> Vec<(u64, u64)> {
    let index = HashIndex::build(HashRecipe::robust64(), 64, pairs.iter().copied());
    let mut out = Vec::new();
    probe_scalar(&index, probes, &mut out);
    out.sort_unstable();
    out
}

fn config(shards: usize, batch: usize, inflight: usize, capacity: usize) -> ServeConfig {
    ServeConfig::default()
        .with_shards(shards)
        .with_batch_size(batch)
        .with_inflight(inflight)
        .with_queue_capacity(capacity)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// MultiLookup across every knob: results are multiset-equal to the
    /// scalar oracle. Small key domains force duplicates and collisions;
    /// small queue capacities force backpressure on the submitting
    /// thread.
    #[test]
    fn multi_lookup_matches_oracle(
        pairs in prop::collection::vec((0u64..120, any::<u64>()), 0..400),
        probes in prop::collection::vec(0u64..150, 0..300),
        shards in 1usize..6,
        batch in 1usize..48,
        inflight in 1usize..12,
        capacity in 1usize..64,
    ) {
        let service = ProbeService::build(
            HashRecipe::robust64(),
            pairs.iter().copied(),
            &config(shards, batch, inflight, capacity),
        );
        let mut got = service.multi_lookup(&probes).unwrap();
        let stats = service.shutdown();
        got.sort_unstable();
        prop_assert_eq!(&got, &oracle(&pairs, &probes));
        prop_assert_eq!(stats.total_keys(), probes.len() as u64);
        prop_assert_eq!(stats.total_matches(), got.len() as u64);
    }

    /// A stream of single-key Lookups pipelined without waiting — the
    /// batching path across *independent* requests — agrees with the
    /// oracle, and JoinProbe rows map back to the right keys.
    #[test]
    fn pipelined_lookups_and_joins_match_oracle(
        pairs in prop::collection::vec((0u64..80, any::<u64>()), 0..250),
        probes in prop::collection::vec(0u64..100, 1..160),
        shards in 1usize..5,
        batch in 1usize..32,
        inflight in 1usize..8,
    ) {
        let service = ProbeService::build(
            HashRecipe::robust64(),
            pairs.iter().copied(),
            &config(shards, batch, inflight, 4096),
        );

        // Pipelined lookups: submit everything, then wait.
        let pendings: Vec<_> = probes
            .iter()
            .map(|k| service.submit(Request::Lookup { key: *k }).unwrap())
            .collect();
        let mut got: Vec<(u64, u64)> = Vec::new();
        for (key, pending) in probes.iter().zip(pendings) {
            match pending.wait() {
                Response::Lookup { key: k, payloads } => {
                    prop_assert_eq!(k, *key);
                    got.extend(payloads.into_iter().map(|p| (*key, p)));
                }
                other => panic!("wrong variant: {other:?}"),
            }
        }

        // One JoinProbe over the same stream: rows become keys again.
        let pairs_joined = service.join_probe(&probes).unwrap();
        let service_stats = service.shutdown();
        for (row, _) in &pairs_joined {
            prop_assert!((*row as usize) < probes.len());
        }
        let mut join_as_keys: Vec<(u64, u64)> = pairs_joined
            .into_iter()
            .map(|(row, payload)| (probes[row as usize], payload))
            .collect();

        let want = oracle(&pairs, &probes);
        got.sort_unstable();
        join_as_keys.sort_unstable();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(&join_as_keys, &want);
        prop_assert_eq!(service_stats.latency.count, probes.len() + 1);
    }

    /// Shutdown mid-stream: everything accepted before `shutdown` still
    /// completes with oracle-equal results (drain-then-halt, the poison
    /// pill contract), and later submissions fail cleanly.
    #[test]
    fn shutdown_mid_stream_drains_accepted_work(
        pairs in prop::collection::vec((0u64..60, any::<u64>()), 0..200),
        probes in prop::collection::vec(0u64..80, 1..120),
        shards in 1usize..5,
        batch in 1usize..24,
        accepted in 1usize..120,
    ) {
        let accepted = accepted.min(probes.len());
        let service = ProbeService::build(
            HashRecipe::robust64(),
            pairs.iter().copied(),
            &config(shards, batch, 4, 4096),
        );
        let pendings: Vec<_> = probes[..accepted]
            .iter()
            .map(|k| service.submit(Request::Lookup { key: *k }).unwrap())
            .collect();
        let stats = service.shutdown();

        // Every accepted request resolved (no hangs, no losses).
        let mut got: Vec<(u64, u64)> = Vec::new();
        for (key, pending) in probes[..accepted].iter().zip(pendings) {
            match pending.wait() {
                Response::Lookup { payloads, .. } => {
                    got.extend(payloads.into_iter().map(|p| (*key, p)));
                }
                other => panic!("wrong variant: {other:?}"),
            }
        }
        got.sort_unstable();
        prop_assert_eq!(&got, &oracle(&pairs, &probes[..accepted]));
        prop_assert_eq!(stats.latency.count, accepted);
        prop_assert_eq!(stats.total_keys(), accepted as u64);
    }
}

/// The acceptance scenario from the issue, verbatim: ≥ 2 shards,
/// batching enabled, 10k Zipfian probes — multiset-identical to
/// `probe_scalar`.
#[test]
fn zipfian_10k_matches_scalar_oracle() {
    let entries = 8192u64;
    let pairs: Vec<(u64, u64)> = (0..entries).map(|k| (k, k.wrapping_mul(31))).collect();
    // Skewed probes over a slightly wider domain so misses occur too.
    let probes = widx_workloads::datagen::zipf_keys(0xD15C0, 10_000, entries + 512, 0.99);
    assert_eq!(probes.len(), 10_000);

    let service = ProbeService::build(
        HashRecipe::robust64(),
        pairs.iter().copied(),
        &ServeConfig::default()
            .with_shards(4)
            .with_batch_size(64)
            .with_inflight(8),
    );
    let mut got = service.multi_lookup(&probes).unwrap();
    let stats = service.shutdown();
    got.sort_unstable();

    assert_eq!(got, oracle(&pairs, &probes));
    assert_eq!(stats.total_keys(), 10_000);
    assert!(stats.workers.len() == 4 && stats.workers.iter().all(|w| w.keys > 0));
    // Batching must actually engage under a 10k-key burst.
    let batches: u64 = stats.workers.iter().map(|w| w.batches).sum();
    assert!(batches >= 4, "each shard flushed at least once");
    let size_flushes: u64 = stats.workers.iter().map(|w| w.size_flushes).sum();
    assert!(size_flushes > 0, "size-based flushes under burst load");
}

/// Submissions after `stop` fail with `Stopped`, while everything
/// accepted before the stop still completes (drain-then-halt).
#[test]
fn post_stop_submissions_are_refused() {
    let pairs: Vec<(u64, u64)> = (0..100u64).map(|k| (k, k)).collect();
    let service = ProbeService::build(
        HashRecipe::robust64(),
        pairs.iter().copied(),
        &ServeConfig::default().with_shards(2),
    );
    let ok = service.submit(Request::Lookup { key: 1 }).unwrap();
    service.stop();
    assert_eq!(
        service.submit(Request::Lookup { key: 2 }).err(),
        Some(SubmitError::Stopped)
    );
    let _stats = service.shutdown();
    assert_eq!(
        ok.wait(),
        Response::Lookup {
            key: 1,
            payloads: vec![1]
        }
    );

    // A fresh service that is dropped (implicit shutdown) also refuses
    // nothing it already accepted — drop must not hang.
    let service = ProbeService::build(
        HashRecipe::robust64(),
        pairs.iter().copied(),
        &ServeConfig::default().with_shards(2),
    );
    let pending = service
        .submit(Request::MultiLookup {
            keys: vec![1, 2, 3],
        })
        .unwrap();
    drop(service);
    assert_eq!(pending.wait().match_count(), 3);
}

/// Backpressure saturation: a tiny queue capacity with a huge pipelined
/// burst neither deadlocks nor drops work.
#[test]
fn backpressure_under_saturation_loses_nothing() {
    let pairs: Vec<(u64, u64)> = (0..512u64).map(|k| (k, k + 7)).collect();
    let service = ProbeService::build(
        HashRecipe::robust64(),
        pairs.iter().copied(),
        &ServeConfig::default()
            .with_shards(3)
            .with_batch_size(8)
            .with_queue_capacity(4),
    );
    let probes: Vec<u64> = (0..2000u64).map(|i| i % 600).collect();
    let pendings: Vec<_> = probes
        .iter()
        .map(|k| service.submit(Request::Lookup { key: *k }).unwrap())
        .collect();
    let mut got: Vec<(u64, u64)> = Vec::new();
    for (key, pending) in probes.iter().zip(pendings) {
        if let Response::Lookup { payloads, .. } = pending.wait() {
            got.extend(payloads.into_iter().map(|p| (*key, p)));
        }
    }
    let stats = service.shutdown();
    got.sort_unstable();
    assert_eq!(got, oracle(&pairs, &probes));
    assert_eq!(stats.latency.count, probes.len());
}

#[test]
fn submit_error_displays() {
    assert_eq!(SubmitError::Stopped.to_string(), "probe service is stopped");
}
