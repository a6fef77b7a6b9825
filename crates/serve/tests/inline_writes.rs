//! The sub-ring rule, applied by the submitter: a write with fewer ops
//! than the walker ring has slots is applied on its submitting thread
//! when every owning shard of both tiers is idle and grants its write
//! guard — complete when `submit` / `try_submit` returns, the workers
//! never woken — and takes the unchanged queue path otherwise: a refused
//! guard, a shard with work outstanding, a write of `inflight` ops or
//! more. The blocking conveniences are one-op writes under the same
//! rule. A scan with fewer cursors (one per ordered shard it spans) than
//! the ring has slots, whose limit fits one stream chunk, is walked on
//! its submitting thread the same way — buffered or streamed — when
//! every owning shard grants its read guard, and queued otherwise.
//!
//! Which thread applied a write or walked a scan is invisible in the
//! counters (the shard's own cell counts it either way), so "the worker
//! never ran" is read off the one clock only the worker thread advances:
//! a worker's `idle` time is published when its `pop` returns, so an
//! idle clock that did not move is a worker that was never handed a job.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::time::{Duration, Instant};

use widx_db::hash::HashRecipe;
use widx_db::index::BTreeIndex;
use widx_serve::{PendingResponse, ProbeService, Request, Response, ServeConfig};

const ENTRIES: u64 = 2000;
const PATIENCE: Duration = Duration::from_secs(30);
/// Keys (all present) owned between them by every shard of both tiers.
const SPANNING: [u64; 7] = [0, 2, 4, 3990, 3992, 3994, 3996];

fn pairs() -> impl Iterator<Item = (u64, u64)> {
    (0..ENTRIES).map(|k| (k * 2, k))
}

/// Every caller pins fanout 8, below the serving default, so that this
/// small range tier splits and merges leaves under the writes here.
fn build_with(config: &ServeConfig) -> ProbeService {
    ProbeService::build_with_range(HashRecipe::robust64(), pairs(), config)
}

fn build() -> ProbeService {
    let service = build_with(&ServeConfig::default().with_fanout(8).with_shards(2));
    let ordered = service.ordered().expect("range tier");
    let owners = |shard_of: &dyn Fn(u64) -> usize| {
        let mut owners: Vec<usize> = SPANNING.iter().map(|key| shard_of(*key)).collect();
        owners.sort_unstable();
        owners.dedup();
        owners
    };
    assert_eq!(owners(&|key| service.sharded().shard_of(key)), vec![0, 1]);
    assert_eq!(owners(&|key| ordered.write_shard_of(key)), vec![0, 1]);
    service
}

fn wait_until(what: &str, ready: impl Fn() -> bool) {
    let deadline = Instant::now() + PATIENCE;
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::yield_now();
    }
}

fn acks(pending: PendingResponse) -> Vec<bool> {
    match pending.wait_timeout(PATIENCE) {
        Ok(Response::Write { acks }) => acks,
        Ok(other) => panic!("wrong variant {other:?}"),
        Err(_) => panic!("an accepted write never completed"),
    }
}

/// Brings every shard of both tiers to idle: repeats a write that
/// changes nothing (each spanning key updated to the payload it holds)
/// until one submission is applied in place. A worker that has answered
/// its last job is on its way into `pop`; this only bridges that.
fn settle(service: &ProbeService) {
    let noop = || Request::Update {
        pairs: SPANNING.iter().map(|key| (*key, key / 2)).collect(),
    };
    wait_until("every shard is idle", || {
        let pending = service.submit(noop()).expect("submit");
        let here = pending.is_ready();
        assert_eq!(acks(pending), vec![true; SPANNING.len()]);
        here
    });
}

/// Every worker's idle clock, hash tier then ordered tier.
fn idle_clocks(service: &ProbeService) -> Vec<Duration> {
    let stats = service.live_stats();
    let workers = stats.workers.iter().chain(&stats.range_workers);
    workers.map(|w| w.idle).collect()
}

fn jobs(service: &ProbeService) -> u64 {
    let stats = service.live_stats();
    let workers = stats.workers.iter().chain(&stats.range_workers);
    workers.map(|w| w.jobs).sum()
}

/// Both tiers' contents under `key`, read through the shard oracles.
fn tiers(service: &ProbeService, key: u64) -> (Vec<u64>, Vec<u64>) {
    let ordered = service.ordered().expect("range tier");
    let scanned = ordered.scan(key, key, usize::MAX);
    let mut hashed = service.sharded().lookup_all(key);
    hashed.sort_unstable();
    let mut ranged: Vec<u64> = scanned.into_iter().map(|(_, payload)| payload).collect();
    ranged.sort_unstable();
    (hashed, ranged)
}

/// The serial oracle for the three write verbs.
fn apply(model: &mut BTreeMap<u64, Vec<u64>>, request: &Request) -> Vec<bool> {
    match request {
        Request::Insert { pairs } => {
            let push = |(key, payload): &(u64, u64)| {
                model.entry(*key).or_default().push(*payload);
                true
            };
            pairs.iter().map(push).collect()
        }
        Request::Delete { keys } => keys.iter().map(|k| model.remove(k).is_some()).collect(),
        Request::Update { pairs } => {
            let set = |(key, payload): &(u64, u64)| {
                model.get_mut(key).map(|ps| *ps = vec![*payload]).is_some()
            };
            pairs.iter().map(set).collect()
        }
        other => panic!("not a write: {other:?}"),
    }
}

#[test]
fn sub_ring_writes_are_applied_before_submit_returns_without_waking_a_worker() {
    let inflight = ServeConfig::default().inflight as u64;
    let rows = [
        Request::Update {
            pairs: vec![(84, 7)],
        },
        Request::Update {
            pairs: vec![(85, 7)],
        },
        Request::Insert {
            pairs: vec![(85, 1), (5001, 2), (2001, 3), (85, 4)],
        },
        Request::Delete {
            keys: vec![10, 11, 3998],
        },
        Request::Update {
            pairs: (0..inflight - 1).map(|i| (i * 570, 900 + i)).collect(),
        },
        Request::Delete { keys: vec![5001] },
    ];
    for nonblocking in [false, true] {
        let service = build();
        let mut model: BTreeMap<u64, Vec<u64>> = (0..ENTRIES).map(|k| (k * 2, vec![k])).collect();
        settle(&service);
        let (parked, mut counted) = (idle_clocks(&service), jobs(&service));
        for request in &rows {
            let ops = request.write_ops().expect("a write");
            let pending = if nonblocking {
                service.try_submit(request.clone(), None)
            } else {
                service.submit(request.clone())
            }
            .expect("accepted");
            assert!(
                pending.is_ready(),
                "{request:?} was not complete when submit returned"
            );
            assert_eq!(acks(pending), apply(&mut model, request), "{request:?}");
            for op in &ops {
                let mut want = model.get(&op.key()).cloned().unwrap_or_default();
                want.sort_unstable();
                let got = tiers(&service, op.key());
                assert_eq!(got, (want.clone(), want), "{request:?}: key {}", op.key());
            }
            // Counted as the parts a worker would have run ...
            let after = jobs(&service);
            assert!(after > counted, "{request:?} left no job in any cell");
            counted = after;
        }
        // ... yet no worker was handed one: none ever left `pop`.
        assert_eq!(idle_clocks(&service), parked, "a worker was woken");
        assert_eq!(service.backlog(), vec![0, 0]);
        assert_eq!(service.range_backlog(), vec![0, 0]);
        let _ = service.shutdown();
    }
}

/// A refused guard sends the whole write — both tiers' parts — down the
/// queues, and a second write to the same key submitted while the first
/// is outstanding follows it there (the shard is not idle), so the two
/// apply in submission order: the last one wins, in both tiers.
#[test]
fn a_write_behind_an_outstanding_write_queues_behind_it() {
    const KEY: u64 = 84;
    let service = build();
    let (sharded, ordered) = (service.sharded(), service.ordered().expect("range tier"));
    let (h, s) = (sharded.shard_of(KEY), ordered.write_shard_of(KEY));
    let update = |seq| Request::Update {
        pairs: vec![(KEY, seq)],
    };
    settle(&service);
    let parked = idle_clocks(&service);

    let guard = sharded.read(h);
    let first = service.submit(update(1)).expect("W1");
    assert!(!first.is_ready(), "applied under a refused guard");
    // All or nothing: the ordered shard was idle and free, yet its part
    // went to its worker too.
    wait_until("the ordered worker has run W1's part", || {
        idle_clocks(&service)[2 + s] > parked[2 + s]
    });
    wait_until("the hash worker holds W1", || service.backlog()[h] == 0);
    let second = service.try_submit(update(2), None).expect("W2");
    assert!(!second.is_ready(), "W2 overtook W1");
    assert_eq!(service.backlog()[h], 1, "W2 queued behind W1");
    drop(guard);
    assert_eq!((acks(first), acks(second)), (vec![true], vec![true]));
    assert_eq!(tiers(&service, KEY), (vec![2], vec![2]));
    let _ = service.shutdown();
}

/// The rule's other edge: a write of exactly `inflight` ops is a job
/// for the workers however idle they are. The blocking conveniences are
/// one-op writes under the same rule as `submit`: complete at return
/// with no worker woken on idle shards, queued when a guard is refused.
#[test]
fn ring_filling_writes_queue_and_blocking_conveniences_follow_the_sub_ring_rule() {
    let service = build();
    let inflight = ServeConfig::default().inflight as u64;
    let woke = |what: &str, run: &dyn Fn()| {
        settle(&service);
        let parked = idle_clocks(&service);
        run();
        let after = idle_clocks(&service);
        let woken = after.iter().zip(&parked).filter(|(a, p)| a > p).count();
        assert!(
            woken >= 2,
            "{what}: only {woken} workers ran (one per tier)"
        );
    };
    woke("an inflight-op insert", &|| {
        let pairs = (0..inflight).map(|i| (9000 + i, i)).collect();
        let pending = service.submit(Request::Insert { pairs }).expect("submit");
        assert_eq!(acks(pending), vec![true; inflight as usize]);
    });
    woke("an inflight-op try_submit", &|| {
        let keys = (0..inflight).map(|i| 9000 + i).collect();
        let pending = service.try_submit(Request::Delete { keys }, None);
        assert_eq!(acks(pending.expect("fits")), vec![true; inflight as usize]);
    });
    assert_eq!(tiers(&service, 9000), (vec![], vec![]));

    // Idle shards: each convenience has landed in both tiers when it
    // returns, and no worker ever left `pop`.
    settle(&service);
    let parked = idle_clocks(&service);
    assert!(service.insert(85, 1).expect("insert"));
    assert_eq!(tiers(&service, 85), (vec![1], vec![1]));
    assert!(service.update(85, 2).expect("update"));
    assert_eq!(tiers(&service, 85), (vec![2], vec![2]));
    assert!(!service.update(87, 2).expect("update of a missing key"));
    assert!(service.delete(85).expect("delete"));
    assert_eq!(tiers(&service, 85), (vec![], vec![]));
    assert_eq!(idle_clocks(&service), parked, "a convenience woke a worker");

    // A refused guard: the same call queues, and returns only once the
    // worker has applied it behind the reader.
    let sharded = service.sharded();
    let h = sharded.shard_of(85);
    let guard = sharded.read(h);
    std::thread::scope(|scope| {
        let blocked = scope.spawn(|| service.insert(85, 3).expect("insert"));
        wait_until("the hash worker holds insert()'s part", || {
            idle_clocks(&service)[h] > parked[h]
        });
        assert!(!blocked.is_finished(), "applied under a refused guard");
        assert!(guard.lookup_all(85).is_empty());
        drop(guard);
        assert!(blocked.join().expect("insert() panicked"));
    });
    assert_eq!(tiers(&service, 85), (vec![3], vec![3]));
    let _ = service.shutdown();
}

/// Submitters pipeline rising sequence numbers onto disjoint hot keys —
/// never waiting for an ack before the next write — while ring-filling
/// probes and scans keep every worker flipping between parked and busy,
/// so writes land on both sides of the rule in every interleaving the
/// scheduler offers. Per-shard submission order is what makes each key
/// end at the last sequence its owner submitted.
#[test]
fn pipelined_writers_keep_per_key_order_across_both_paths() {
    const WRITERS: u64 = 3;
    const KEYS_EACH: u64 = 4;
    const WRITES: u64 = 3000;
    let service = build();
    settle(&service);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let flipper = scope.spawn(|| {
            let keys: Vec<u64> = (0..32).map(|k| k * 2).collect();
            // More than one chunk: the scan queues, like the probe.
            let limit = ServeConfig::default().stream_chunk + 1;
            while !done.load(SeqCst) {
                let probe = service.submit(Request::JoinProbe { keys: keys.clone() });
                let scan = service.submit(Request::RangeScan {
                    lo: 0,
                    hi: u64::MAX,
                    limit,
                    desc: false,
                });
                assert_eq!(probe.expect("probe").wait().match_count(), keys.len());
                assert_eq!(scan.expect("scan").wait().match_count(), limit);
            }
        });
        let writers: Vec<_> = (0..WRITERS)
            .map(|writer| {
                let service = &service;
                scope.spawn(move || {
                    let mut pendings = Vec::new();
                    for seq in 1..=WRITES {
                        let key = 2 * (writer * KEYS_EACH + seq % KEYS_EACH);
                        let request = Request::Update {
                            pairs: vec![(key, seq)],
                        };
                        let pending = if seq % 2 == 0 {
                            service.submit(request)
                        } else {
                            service.try_submit(request, None)
                        }
                        .expect("accepted");
                        pendings.push(pending);
                        if pendings.len() == 64 {
                            for pending in pendings.drain(..) {
                                assert_eq!(acks(pending), vec![true]);
                            }
                        }
                    }
                    for pending in pendings {
                        assert_eq!(acks(pending), vec![true]);
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        done.store(true, SeqCst);
        flipper.join().unwrap();
    });
    for writer in 0..WRITERS {
        for slot in 0..KEYS_EACH {
            let key = 2 * (writer * KEYS_EACH + slot);
            // The last sequence number congruent to `slot`.
            let last = (1..=WRITES).rev().find(|seq| seq % KEYS_EACH == slot);
            let last = vec![last.unwrap()];
            assert_eq!(tiers(&service, key), (last.clone(), last), "key {key}");
        }
    }
    let live = service.live_stats();
    let total = WRITERS * WRITES;
    assert!(
        live.total_write_ops() >= 2 * total,
        "each op, in both tiers"
    );
    let stats = service.shutdown();
    assert_eq!(stats.total_write_ops(), live.total_write_ops());
    assert!(stats.epoch_reclaimed > 0, "updates freed index nodes");
}

/// One unsharded tree over every entry: the scan oracle.
fn oracle(tree: &BTreeIndex, (lo, hi, limit): (u64, u64, usize), desc: bool) -> Vec<(u64, u64)> {
    if desc {
        tree.range_scan_desc(lo, hi, limit)
    } else {
        tree.range_scan(lo, hi, limit)
    }
}

fn entries(response: Response) -> Vec<(u64, u64)> {
    match response {
        Response::RangeScan { entries } => entries,
        other => panic!("wrong variant {other:?}"),
    }
}

fn scan((lo, hi, limit): (u64, u64, usize), desc: bool) -> Request {
    Request::RangeScan {
        lo,
        hi,
        limit,
        desc,
    }
}

/// A one-chunk scan on idle shards is complete when `submit`,
/// `try_submit` or `range_stream` returns, and the blocking convenience
/// answers the same way: on one shard or across the boundary, ascending
/// or descending, the limit up to the chunk edge — and no range worker
/// ever leaves `pop`.
#[test]
fn one_chunk_scans_are_walked_before_submit_returns_without_waking_a_worker() {
    let service = build();
    let tree = BTreeIndex::build(8, pairs());
    let chunk = ServeConfig::default().stream_chunk;
    let split = service.ordered().expect("range tier").boundaries()[0];
    let shapes = [
        (10, 300, 40),                // shard 0 only
        (split + 2, 3990, 7),         // shard 1 only
        (split - 40, split + 40, 30), // both, cut either side of the seam
        (0, u64::MAX, chunk),         // both, exactly one chunk
        (5001, 6001, 9),              // past the data: one part, no rows
    ];
    settle(&service);
    let (parked, mut counted) = (idle_clocks(&service), jobs(&service));
    for shape in shapes {
        for desc in [false, true] {
            let want = oracle(&tree, shape, desc);
            let what = format!("{shape:?} desc={desc}");
            for pending in [
                service.submit(scan(shape, desc)),
                service.try_submit(scan(shape, desc), None),
            ] {
                let pending = pending.expect("accepted");
                assert!(pending.is_ready(), "{what} was queued");
                assert_eq!(entries(pending.wait()), want, "{what}");
            }
            let stream = service.range_stream(shape.0, shape.1, shape.2, desc);
            let stream = stream.expect("stream");
            assert!(stream.is_ready(), "{what}: the stream was queued");
            assert_eq!(stream.flatten().collect::<Vec<_>>(), want, "{what}");
            let (lo, hi, limit) = shape;
            let buffered = if desc {
                service.range_scan_desc(lo, hi, limit)
            } else {
                service.range_scan(lo, hi, limit)
            };
            assert_eq!(buffered.expect("scan"), want, "{what}");
            // Counted as the parts a worker would have run ...
            let after = jobs(&service);
            assert!(after > counted, "{what} left no job in any cell");
            counted = after;
        }
    }
    // ... yet no worker was handed one: none ever left `pop`.
    assert_eq!(idle_clocks(&service), parked, "a worker was woken");
    assert_eq!(service.range_backlog(), vec![0, 0]);
    let _ = service.shutdown();
}

/// The rule's two edges: a limit one entry past the chunk, or as many
/// cursors as the ring has slots, and the scan is the range workers'
/// again — every spanned shard's worker runs its part, buffered or
/// streamed, and the reply is still the oracle's.
#[test]
fn scans_past_one_chunk_or_filling_the_ring_are_queued() {
    let tree = BTreeIndex::build(8, pairs());
    let chunk = ServeConfig::default().stream_chunk;
    let wide = ServeConfig::default().with_fanout(8).with_shards(2);
    let narrow = wide.clone().with_inflight(2);
    for (config, limit) in [(wide, chunk + 1), (narrow, chunk)] {
        let service = build_with(&config);
        let shape = (0, u64::MAX, limit);
        for (desc, streamed) in [(false, false), (true, false), (false, true), (true, true)] {
            let what = format!("limit {limit} inflight {} desc={desc}", config.inflight);
            let parked = idle_clocks(&service);
            let got = if streamed {
                let stream = service.range_stream(0, u64::MAX, limit, desc);
                stream.expect("stream").flatten().collect()
            } else {
                entries(service.submit(scan(shape, desc)).expect("submit").wait())
            };
            assert_eq!(got, oracle(&tree, shape, desc), "{what}");
            // A stream ends at its limit, maybe before the far shard's
            // worker has popped its part: wait for both, not just one.
            let woken = || {
                let after = idle_clocks(&service);
                let woken = after.iter().zip(&parked).map(|(a, p)| a > p);
                woken.collect::<Vec<_>>() == [false, false, true, true]
            };
            wait_until(&format!("{what}: the range workers ran it"), woken);
        }
        let _ = service.shutdown();
    }
}

/// A refused read guard queues the whole scan — the free shard's part
/// too — and it completes with the oracle's rows once the guard is
/// released; a scan that does not touch the held shard is still walked
/// here.
#[test]
fn a_scan_over_a_write_locked_shard_queues_until_release() {
    let service = build();
    let tree = BTreeIndex::build(8, pairs());
    let ordered = service.ordered().expect("range tier");
    let split = ordered.boundaries()[0];
    let (elsewhere, covering) = ((0, 100, 10), (split - 40, split + 40, 30));
    settle(&service);
    let guard = ordered.write(1);
    let pending = service.submit(scan(elsewhere, false)).expect("submit");
    assert!(pending.is_ready(), "a scan of shard 0 waited on shard 1");
    assert_eq!(entries(pending.wait()), oracle(&tree, elsewhere, false));

    let buffered = service.submit(scan(covering, false)).expect("submit");
    let polled = service.try_submit(scan(covering, true), None);
    let polled = polled.expect("try_submit");
    let (lo, hi, limit) = covering;
    let stream = service.range_stream(lo, hi, limit, true).expect("stream");
    assert!(!buffered.is_ready(), "walked under a refused guard");
    assert!(!polled.is_ready(), "walked under a refused guard");
    // Descending, the held shard is the stream's head: nothing releases.
    assert!(!stream.is_ready(), "streamed under a refused guard");
    drop(guard);
    assert_eq!(entries(buffered.wait()), oracle(&tree, covering, false));
    assert_eq!(entries(polled.wait()), oracle(&tree, covering, true));
    let streamed: Vec<_> = stream.flatten().collect();
    assert_eq!(streamed, oracle(&tree, covering, true));
    let _ = service.shutdown();
}
