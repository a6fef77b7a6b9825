//! Property tests for ordered range serving: `RangeScan` through the
//! range-partitioned, batched, multi-threaded tier answers *exactly* —
//! same multiset, same order — like a serial scan of one `BTreeIndex`
//! over all the data, for arbitrary shard counts (and therefore
//! boundary placements), fanouts, batch sizes, in-flight depths,
//! chunk sizes (a buffered reply is the gather seam's chunks
//! concatenated, so chunk and limit cuts land anywhere in it),
//! duplicate-heavy key streams, empty/inverted ranges, and `limit`
//! truncation landing at shard seams — including shutdown arriving
//! mid-stream.
//!
//! Both scan paths meet the oracle here: `limit` is drawn from 1 across
//! `stream_chunk`, and the scatter width (one cursor per shard) across
//! `inflight`, so a scan that fits one chunk with fewer cursors than the
//! ring has slots is walked on its submitting thread and every other
//! scan is batched by the range workers.

use proptest::prelude::*;
use widx_db::hash::HashRecipe;
use widx_db::index::BTreeIndex;
use widx_serve::{ProbeService, Request, Response, ServeConfig, SubmitError};

/// Serial oracle: one unsharded B+-tree over everything. Its fanout is
/// fixed and deliberately different from the served tier's — scan
/// results must not depend on either.
fn oracle(pairs: &[(u64, u64)], lo: u64, hi: u64, limit: usize) -> Vec<(u64, u64)> {
    BTreeIndex::build(7, pairs.iter().copied()).range_scan(lo, hi, limit)
}

fn config(
    shards: usize,
    fanout: usize,
    batch: usize,
    inflight: usize,
    chunk: usize,
) -> ServeConfig {
    ServeConfig::default()
        .with_shards(shards)
        .with_fanout(fanout)
        .with_batch_size(batch)
        .with_inflight(inflight)
        .with_stream_chunk(chunk)
}

/// `(lo, hi)` pairs biased toward interesting shapes: mostly ordered
/// spans (dependent generation via `prop_flat_map`), some single-key
/// points, some inverted (empty) ranges.
fn range_strategy(keyspace: u64) -> impl Strategy<Value = (u64, u64)> {
    prop_oneof![
        (0..keyspace).prop_flat_map(move |lo| (Just(lo), lo..keyspace)),
        (0..keyspace).prop_map(|k| (k, k)),
        (0..keyspace)
            .prop_flat_map(move |hi| (hi..keyspace, Just(hi)))
            .prop_filter("inverted only", |(lo, hi)| lo > hi),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Pipelined `RangeScan`s across every knob are order- and
    /// multiset-equal to the serial oracle. Small key domains force
    /// duplicates (which must come back in build order) and boundary
    /// collisions; small limits force truncation at shard seams.
    #[test]
    fn range_scans_match_serial_oracle(
        pairs in prop::collection::vec((0u64..150, any::<u64>()), 0..400),
        scans in prop::collection::vec(
            (range_strategy(170), prop_oneof![
                (0usize..60).boxed(),
                Just(usize::MAX).boxed(),
            ]),
            1..40,
        ),
        shards in 1usize..6,
        fanout in 2usize..10,
        batch in 1usize..32,
        inflight in 1usize..8,
        chunk in 1usize..40,
    ) {
        let service = ProbeService::build_with_range(
            HashRecipe::robust64(),
            pairs.iter().copied(),
            &config(shards, fanout, batch, inflight, chunk),
        );
        // Submit everything without waiting (cross-request batching),
        // then reap in order.
        let pendings: Vec<_> = scans
            .iter()
            .map(|((lo, hi), limit)| {
                service
                    .submit(Request::RangeScan { lo: *lo, hi: *hi, limit: *limit, desc: false })
                    .unwrap()
            })
            .collect();
        for (((lo, hi), limit), pending) in scans.iter().zip(pendings) {
            match pending.wait() {
                Response::RangeScan { entries } => {
                    prop_assert_eq!(
                        entries,
                        oracle(&pairs, *lo, *hi, *limit),
                        "scan [{}, {}] limit {} over {} shards fanout {}",
                        lo, hi, limit, shards, fanout
                    );
                }
                other => panic!("wrong variant: {other:?}"),
            }
        }
        let stats = service.shutdown();
        prop_assert!(stats.range_workers.len() == shards);
    }

    /// Limit truncation is exact at shard seams: for a scan covering
    /// everything, every limit yields precisely the first `limit`
    /// entries of the full ordered result — no shard over- or
    /// under-contributes where the cut crosses a boundary.
    #[test]
    fn limit_truncation_is_a_prefix_at_every_seam(
        entries in 1usize..300,
        dup_every in 1u64..8,
        shards in 1usize..6,
        fanout in 2usize..8,
        chunk in 1usize..40,
    ) {
        let pairs: Vec<(u64, u64)> = (0..entries as u64)
            .map(|i| (i / dup_every, i))
            .collect();
        let service = ProbeService::build_with_range(
            HashRecipe::robust64(),
            pairs.iter().copied(),
            &config(shards, fanout, 16, 4, chunk),
        );
        let full = service.range_scan(0, u64::MAX, usize::MAX).unwrap();
        prop_assert_eq!(&full, &oracle(&pairs, 0, u64::MAX, usize::MAX));
        // Probe every seam-adjacent limit plus a spread of others.
        let ordered = service.ordered().unwrap();
        let mut limits: Vec<usize> = vec![0, 1, full.len(), full.len() + 5];
        let mut acc = 0usize;
        for shard in 0..ordered.shard_count() {
            acc += ordered.read(shard).len();
            limits.extend([acc.saturating_sub(1), acc, acc + 1]);
        }
        for limit in limits {
            let got = service.range_scan(0, u64::MAX, limit).unwrap();
            prop_assert_eq!(
                &got,
                &full[..limit.min(full.len())],
                "limit {} of {}", limit, full.len()
            );
        }
    }

    /// Shutdown mid-stream: every scan accepted before `shutdown` still
    /// completes with oracle-equal, ordered results (drain-then-halt),
    /// and later submissions fail cleanly.
    #[test]
    fn shutdown_mid_stream_drains_accepted_scans(
        pairs in prop::collection::vec((0u64..80, any::<u64>()), 0..250),
        scans in prop::collection::vec(range_strategy(100), 1..60),
        shards in 1usize..5,
        batch in 1usize..24,
        accepted in 1usize..60,
        chunk in 1usize..40,
    ) {
        let accepted = accepted.min(scans.len());
        let service = ProbeService::build_with_range(
            HashRecipe::robust64(),
            pairs.iter().copied(),
            &config(shards, 4, batch, 4, chunk),
        );
        let pendings: Vec<_> = scans[..accepted]
            .iter()
            .map(|(lo, hi)| {
                service
                    .submit(Request::RangeScan { lo: *lo, hi: *hi, limit: usize::MAX, desc: false })
                    .unwrap()
            })
            .collect();
        service.stop();
        prop_assert_eq!(
            service.range_scan(0, 1, 1).err(),
            Some(SubmitError::Stopped)
        );
        let _stats = service.shutdown();
        for ((lo, hi), pending) in scans[..accepted].iter().zip(pendings) {
            match pending.wait() {
                Response::RangeScan { entries } => {
                    prop_assert_eq!(entries, oracle(&pairs, *lo, *hi, usize::MAX));
                }
                other => panic!("wrong variant: {other:?}"),
            }
        }
    }

    /// Point and range traffic interleaved on one service: each answers
    /// its own oracle; neither tier disturbs the other.
    #[test]
    fn mixed_point_and_range_traffic_agree_with_oracles(
        pairs in prop::collection::vec((0u64..100, any::<u64>()), 0..200),
        probes in prop::collection::vec(0u64..120, 1..60),
        scans in prop::collection::vec(range_strategy(120), 1..20),
        shards in 1usize..5,
        chunk in 1usize..40,
    ) {
        let service = ProbeService::build_with_range(
            HashRecipe::robust64(),
            pairs.iter().copied(),
            &config(shards, 8, 8, 4, chunk),
        );
        let scan_pendings: Vec<_> = scans
            .iter()
            .map(|(lo, hi)| {
                service
                    .submit(Request::RangeScan { lo: *lo, hi: *hi, limit: usize::MAX, desc: false })
                    .unwrap()
            })
            .collect();
        let mut point_got = service.multi_lookup(&probes).unwrap();
        for ((lo, hi), pending) in scans.iter().zip(scan_pendings) {
            match pending.wait() {
                Response::RangeScan { entries } => {
                    prop_assert_eq!(entries, oracle(&pairs, *lo, *hi, usize::MAX));
                }
                other => panic!("wrong variant: {other:?}"),
            }
        }
        // Point oracle: multiset equality (point responses are
        // unordered by contract).
        let mut point_want: Vec<(u64, u64)> = probes
            .iter()
            .flat_map(|p| {
                pairs
                    .iter()
                    .filter(move |(k, _)| k == p)
                    .map(|(k, v)| (*k, *v))
            })
            .collect();
        point_got.sort_unstable();
        point_want.sort_unstable();
        prop_assert_eq!(point_got, point_want);
    }
}

/// Boundary seams, deterministically: duplicates parked exactly on the
/// shard boundaries the build chose, scans starting/ending on them, and
/// limits cutting mid-duplicate-run.
#[test]
fn scans_at_exact_shard_boundaries() {
    let pairs: Vec<(u64, u64)> = (0..1200u64).map(|i| (i / 3, i)).collect();
    let service = ProbeService::build_with_range(
        HashRecipe::robust64(),
        pairs.iter().copied(),
        &ServeConfig::default().with_shards(4).with_fanout(4),
    );
    let boundaries: Vec<u64> = service.ordered().unwrap().boundaries().to_vec();
    assert!(!boundaries.is_empty());
    for b in boundaries {
        for (lo, hi) in [
            (b, b),
            (b.saturating_sub(1), b),
            (b, b + 1),
            (b.saturating_sub(2), b.saturating_add(2)),
            (0, b),
            (b, u64::MAX),
        ] {
            for limit in [1usize, 2, 4, 7, usize::MAX] {
                assert_eq!(
                    service.range_scan(lo, hi, limit).unwrap(),
                    oracle(&pairs, lo, hi, limit),
                    "boundary {b}: scan [{lo}, {hi}] limit {limit}"
                );
            }
        }
    }
    let stats = service.shutdown();
    assert!(stats.total_scan_cursors() > 0);
}

/// The acceptance scenario: cross-shard scans over a service with ≥ 2
/// shards and batching enabled return key-ordered, limit-correct
/// results identical to the serial oracle. Each scan's limit exceeds
/// one stream chunk, so none is walked on the submitting thread: the
/// whole burst reaches the range workers.
#[test]
fn cross_shard_scans_match_oracle_end_to_end() {
    let pairs: Vec<(u64, u64)> = (0..20_000u64).map(|k| (k, k.wrapping_mul(17))).collect();
    let config = ServeConfig::default()
        .with_shards(4)
        .with_batch_size(32)
        .with_inflight(8);
    let limit = config.stream_chunk + 1;
    let service =
        ProbeService::build_with_range(HashRecipe::robust64(), pairs.iter().copied(), &config);
    // A burst of scans, every one spanning several shard boundaries.
    let pendings: Vec<_> = (0..200u64)
        .map(|i| {
            service
                .submit(Request::RangeScan {
                    lo: i * 37,
                    hi: i * 37 + 9_000,
                    limit,
                    desc: false,
                })
                .unwrap()
        })
        .collect();
    for (i, pending) in pendings.into_iter().enumerate() {
        let i = i as u64;
        match pending.wait() {
            Response::RangeScan { entries } => {
                assert_eq!(
                    entries,
                    oracle(&pairs, i * 37, i * 37 + 9_000, limit),
                    "scan {i}"
                );
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
    let stats = service.shutdown();
    assert_eq!(stats.range_workers.len(), 4);
    assert!(
        stats.range_workers.iter().all(|w| w.keys > 0),
        "every ordered shard served cursors"
    );
    // Batching across concurrent scans must actually engage.
    let batches: u64 = stats.range_workers.iter().map(|w| w.batches).sum();
    let cursors = stats.total_scan_cursors();
    assert!(
        batches < cursors,
        "batches {batches} should undercut cursors {cursors}"
    );
}
