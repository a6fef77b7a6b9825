//! The workers' close rule from the outside: a batch closes the moment
//! the shard queue is observed empty (no request waits on a clock for
//! company), and under load batches form by themselves from whatever
//! queued while the worker was busy.

use std::time::Duration;

use widx_db::hash::HashRecipe;
use widx_serve::{ProbeService, Request, Response, ServeConfig, WorkerStats};

const ENTRIES: u64 = 4096;

fn build(config: &ServeConfig) -> ProbeService {
    ProbeService::build_with_range(
        HashRecipe::robust64(),
        (0..ENTRIES).map(|k| (k, k + 1)),
        config,
    )
}

/// `(batches, keys, size flushes, queue-dry flushes)` over `workers`.
/// The queue-dry count is exported under its historical name.
fn flushes(workers: &[WorkerStats]) -> (u64, u64, u64, u64) {
    workers.iter().fold((0, 0, 0, 0), |acc, w| {
        (
            acc.0 + w.batches,
            acc.1 + w.keys,
            acc.2 + w.size_flushes,
            acc.3 + w.deadline_flushes,
        )
    })
}

/// With a size target no request can reach, nothing but the queue-dry
/// rule can close a batch: one request of each kind must still complete
/// (bounded waits, so a regression fails instead of hanging).
#[test]
fn lone_requests_complete_without_reaching_the_size_target() {
    let service = build(
        &ServeConfig::default()
            .with_shards(2)
            .with_batch_size(1 << 20),
    );
    let wait = |request: Request| {
        service
            .submit(request)
            .expect("submit")
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("a lone request waited for company"))
    };

    match wait(Request::Lookup { key: 41 }) {
        Response::Lookup { payloads, .. } => assert_eq!(payloads, vec![42]),
        other => panic!("wrong variant {other:?}"),
    }
    match wait(Request::RangeScan {
        lo: 100,
        hi: 200,
        limit: 3,
        desc: false,
    }) {
        Response::RangeScan { entries } => {
            assert_eq!(entries, vec![(100, 101), (101, 102), (102, 103)]);
        }
        other => panic!("wrong variant {other:?}"),
    }
    match wait(Request::Update {
        pairs: vec![(41, 7)],
    }) {
        Response::Write { acks } => assert_eq!(acks, vec![true]),
        other => panic!("wrong variant {other:?}"),
    }
    let stream = service
        .range_stream(0, ENTRIES, 600, false)
        .expect("stream");
    assert_eq!(stream.flatten().count(), 600);
    // A ring-filling read-back: unlike the sub-ring lookup above it is
    // queued, so the hash workers close real batches of their own.
    match wait(Request::MultiLookup {
        keys: (34..50).collect(),
    }) {
        Response::MultiLookup { matches } => {
            assert_eq!(matches.len(), 16);
            assert!(matches.contains(&(41, 7)), "the update is visible");
        }
        other => panic!("wrong variant {other:?}"),
    }

    // Flush barrier: the stream ended at its limit, which says nothing
    // about the range workers — one may still be draining the batch
    // that served it, another may not have popped its part yet (and
    // would then find the shutdown pill queued behind it). A buffered
    // scan over every range shard queues behind those parts and
    // completes only after its batch has closed and been counted.
    match wait(Request::RangeScan {
        lo: 0,
        hi: ENTRIES,
        limit: usize::MAX,
        desc: false,
    }) {
        Response::RangeScan { entries } => assert_eq!(entries.len(), ENTRIES as usize),
        other => panic!("wrong variant {other:?}"),
    }

    let stats = service.live_stats();
    for (tier, workers) in [("hash", &stats.workers), ("range", &stats.range_workers)] {
        let (batches, _, size, dry) = flushes(workers);
        assert!(batches >= 2, "{tier}: both reads ran as batches");
        assert_eq!(size, 0, "{tier}: no batch can reach 2^20 keys");
        assert_eq!(dry, batches, "{tier}: every batch closed on a dry queue");
    }
    let _ = service.shutdown();
}

/// Natural batching, made deterministic: hold the shard's write guard so
/// the worker stalls on its read guard with the first lookup in hand,
/// queue 31 more behind it, release — the worker must admit everything
/// already queued into **one** batch, then close it on the dry queue.
#[test]
fn jobs_queued_while_the_worker_is_busy_share_one_batch() {
    let service = build(&ServeConfig::default().with_shards(1));
    let guard = service.sharded().write(0);
    let pending: Vec<_> = (0..32u64)
        .map(|key| service.submit(Request::Lookup { key }).expect("submit"))
        .collect();
    drop(guard);
    for (key, reply) in (0..32u64).zip(pending) {
        match reply.wait() {
            Response::Lookup { payloads, .. } => assert_eq!(payloads, vec![key + 1]),
            other => panic!("wrong variant {other:?}"),
        }
    }
    let (batches, keys, size, dry) = flushes(&service.live_stats().workers);
    assert_eq!(
        (batches, keys, size, dry),
        (1, 32, 0, 1),
        "32 queued single-key lookups ran as one queue-dry batch"
    );
    let _ = service.shutdown();
}
