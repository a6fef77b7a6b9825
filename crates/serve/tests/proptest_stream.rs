//! Property tests for the streaming reply subsystem: a chunked
//! [`range_stream`](ProbeService::range_stream) must concatenate to
//! *exactly* the buffered `RangeScan` reply — same entries, same order
//! — for arbitrary shard counts, fanouts, chunk sizes, directions
//! (ascending and `ORDER BY key DESC`), duplicate-heavy key streams,
//! and limits landing at shard seams; accepted streams must survive
//! shutdown arriving mid-stream; and the completion-wakeup hook must
//! fire often enough that a waker-driven consumer never stalls.

use std::time::Duration;

use proptest::prelude::*;
use widx_db::hash::HashRecipe;
use widx_db::index::BTreeIndex;
use widx_serve::{ProbeService, ServeConfig, StreamConsumed, SubmitError};

/// Serial oracle: one unsharded B+-tree over everything, scanned in the
/// requested direction. Its fanout is fixed and deliberately different
/// from the served tier's.
fn oracle(pairs: &[(u64, u64)], lo: u64, hi: u64, limit: usize, desc: bool) -> Vec<(u64, u64)> {
    let tree = BTreeIndex::build(7, pairs.iter().copied());
    if desc {
        tree.range_scan_desc(lo, hi, limit)
    } else {
        tree.range_scan(lo, hi, limit)
    }
}

fn config(shards: usize, fanout: usize, chunk: usize) -> ServeConfig {
    ServeConfig::default()
        .with_shards(shards)
        .with_fanout(fanout)
        .with_stream_chunk(chunk)
        .with_batch_size(8)
}

/// `(lo, hi)` pairs biased toward interesting shapes: ordered spans,
/// single keys, and inverted (empty) ranges.
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
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// The acceptance property: chunk concatenation equals the
    /// buffered reply (which itself equals the serial oracle), forward
    /// and reverse, with every chunk non-empty and within the
    /// configured chunk size.
    #[test]
    fn stream_concatenation_equals_buffered_reply(
        pairs in prop::collection::vec((0u64..150, any::<u64>()), 0..400),
        scans in prop::collection::vec(
            (range_strategy(170), prop_oneof![
                (0usize..60).boxed(),
                Just(usize::MAX).boxed(),
            ], any::<bool>()),
            1..25,
        ),
        shards in 1usize..6,
        fanout in 2usize..10,
        chunk in 1usize..40,
    ) {
        let service = ProbeService::build_with_range(
            HashRecipe::robust64(),
            pairs.iter().copied(),
            &config(shards, fanout, chunk),
        );
        // Pipeline every stream before draining any (cross-request
        // batching in the workers, interleaved chunk release).
        let streams: Vec<_> = scans
            .iter()
            .map(|((lo, hi), limit, desc)| {
                service.range_stream(*lo, *hi, *limit, *desc).unwrap()
            })
            .collect();
        for (((lo, hi), limit, desc), stream) in scans.iter().zip(streams) {
            let mut got = Vec::new();
            for piece in stream {
                prop_assert!(!piece.is_empty(), "no empty chunks");
                prop_assert!(piece.len() <= chunk, "chunk over stream_chunk");
                got.extend(piece);
            }
            let buffered = if *desc {
                service.range_scan_desc(*lo, *hi, *limit).unwrap()
            } else {
                service.range_scan(*lo, *hi, *limit).unwrap()
            };
            prop_assert_eq!(
                &got, &buffered,
                "stream != buffered for [{}, {}] limit {} desc {}",
                lo, hi, limit, desc
            );
            prop_assert_eq!(
                &buffered,
                &oracle(&pairs, *lo, *hi, *limit, *desc),
                "buffered != oracle for [{}, {}] limit {} desc {}",
                lo, hi, limit, desc
            );
        }
        let _ = service.shutdown();
    }

    /// Shutdown mid-stream drops nothing: every stream accepted before
    /// `stop` still yields its complete, oracle-equal chunk sequence
    /// (drain-then-halt), and later stream submissions fail cleanly.
    #[test]
    fn shutdown_mid_stream_drops_no_accepted_chunk(
        pairs in prop::collection::vec((0u64..80, any::<u64>()), 0..250),
        scans in prop::collection::vec((range_strategy(100), any::<bool>()), 1..30),
        shards in 1usize..5,
        chunk in 1usize..24,
    ) {
        let service = ProbeService::build_with_range(
            HashRecipe::robust64(),
            pairs.iter().copied(),
            &config(shards, 4, chunk),
        );
        let streams: Vec<_> = scans
            .iter()
            .map(|((lo, hi), desc)| {
                service.range_stream(*lo, *hi, usize::MAX, *desc).unwrap()
            })
            .collect();
        service.stop();
        prop_assert_eq!(
            service.range_stream(0, 1, usize::MAX, false).err(),
            Some(SubmitError::Stopped)
        );
        let _stats = service.shutdown();
        for (((lo, hi), desc), stream) in scans.iter().zip(streams) {
            prop_assert_eq!(
                stream.flatten().collect::<Vec<_>>(),
                oracle(&pairs, *lo, *hi, usize::MAX, *desc),
                "accepted stream lost chunks: [{}, {}] desc {}",
                lo, hi, desc
            );
        }
    }

    /// A waker-driven consumer (poll only after a wake, like the net
    /// event loop) sees the identical chunk sequence — the completion
    /// hook fires for every consumable transition.
    #[test]
    fn waker_driven_consumption_loses_nothing(
        entries in 1usize..400,
        dup_every in 1u64..6,
        shards in 1usize..5,
        chunk in 1usize..32,
        desc in any::<bool>(),
    ) {
        use std::sync::Arc;
        use std::sync::atomic::{AtomicU64, Ordering};
        let pairs: Vec<(u64, u64)> = (0..entries as u64)
            .map(|i| (i / dup_every, i))
            .collect();
        let service = ProbeService::build_with_range(
            HashRecipe::robust64(),
            pairs.iter().copied(),
            &config(shards, 4, chunk),
        );
        let mut stream = service
            .range_stream(0, u64::MAX, usize::MAX, desc)
            .unwrap();
        let wakes = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&wakes);
        stream.set_waker(Arc::new(move || {
            counter.fetch_add(1, Ordering::Release);
        }));
        let mut got = Vec::new();
        let mut seen = 0u64;
        'drain: loop {
            // Wait for a wake before polling — a missed wake would
            // stall this loop forever, so the 5 s bound doubles as the
            // liveness assertion.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                let now = wakes.load(Ordering::Acquire);
                if now != seen {
                    seen = now;
                    break;
                }
                prop_assert!(
                    std::time::Instant::now() < deadline,
                    "waker never fired with chunks outstanding"
                );
                std::thread::yield_now();
            }
            loop {
                match stream.try_next_with(|piece| got.extend_from_slice(piece)) {
                    StreamConsumed::Consumed(_) => {}
                    StreamConsumed::End => break 'drain,
                    StreamConsumed::Pending => break,
                }
            }
        }
        prop_assert_eq!(got, oracle(&pairs, 0, u64::MAX, usize::MAX, desc));
        let _ = service.shutdown();
    }

    /// Desc parity through the buffered path: `RangeScan { desc: true }`
    /// equals the reverse oracle at every limit, including seam cuts.
    #[test]
    fn buffered_desc_scans_match_the_reverse_oracle(
        entries in 1usize..300,
        dup_every in 1u64..8,
        shards in 1usize..6,
        fanout in 2usize..8,
    ) {
        let pairs: Vec<(u64, u64)> = (0..entries as u64)
            .map(|i| (i / dup_every, i))
            .collect();
        let service = ProbeService::build_with_range(
            HashRecipe::robust64(),
            pairs.iter().copied(),
            &config(shards, fanout, 16),
        );
        let full = service.range_scan_desc(0, u64::MAX, usize::MAX).unwrap();
        prop_assert_eq!(&full, &oracle(&pairs, 0, u64::MAX, usize::MAX, true));
        // Seam-adjacent limits: no shard may over- or under-contribute
        // where the cut crosses a boundary (in reverse shard order).
        let ordered = service.ordered().unwrap();
        let mut limits: Vec<usize> = vec![0, 1, full.len(), full.len() + 5];
        let mut acc = 0usize;
        for shard in (0..ordered.shard_count()).rev() {
            acc += ordered.read(shard).len();
            limits.extend([acc.saturating_sub(1), acc, acc + 1]);
        }
        for limit in limits {
            let got = service.range_scan_desc(0, u64::MAX, limit).unwrap();
            prop_assert_eq!(
                &got,
                &full[..limit.min(full.len())],
                "desc limit {} of {}", limit, full.len()
            );
        }
    }
}

/// First-chunk progress, deterministically: on a long scan the stream
/// hands back its first chunk while later ranks are still scanning —
/// the whole point of the subsystem.
#[test]
fn first_chunk_arrives_before_the_stream_ends() {
    let pairs: Vec<(u64, u64)> = (0..100_000u64).map(|k| (k, k)).collect();
    let service = ProbeService::build_with_range(
        HashRecipe::robust64(),
        pairs.iter().copied(),
        &ServeConfig::default().with_shards(4).with_stream_chunk(128),
    );
    let mut stream = service
        .range_stream(0, u64::MAX, usize::MAX, false)
        .unwrap();
    let first = stream.next().expect("a long scan yields chunks");
    assert_eq!(first.len(), 128, "a full chunk, not the whole reply");
    assert_eq!(first[0], (0, 0));
    // The rest still arrives, complete and ordered.
    let mut got = first;
    got.extend(stream.flatten());
    assert_eq!(got.len(), pairs.len());
    assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
    let _ = service.shutdown();
}
