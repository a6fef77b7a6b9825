//! The service has one way in — `plan` + `admit` — so every request
//! shape must behave the same through both admission modes: answers
//! equal to a serial oracle, `Stopped` after `stop()`, and a `Busy`
//! refusal that is all-or-nothing across *both* tiers. The one rule
//! applied there is pinned here too: a probe with fewer keys than the
//! walker ring has slots is answered on the submitting thread —
//! complete when `submit` returns, never `Busy` — unless a shard
//! refuses its read guard, in which case it queues like everything
//! else; a probe of exactly `inflight` keys always queues. Writes have
//! the same three rows: a sub-ring write on idle shards is applied when
//! `submit` returns, a refused write guard (either tier's) sends every
//! part to the queues, and `Busy` stays all-or-nothing across tiers.
//! The blocking conveniences (`lookup`, `insert`, ...) are `Block` plus a
//! wait, so they ride every harness as a third mode: same oracle, same
//! `Stopped`, walked or applied on the caller's thread when sub-ring,
//! queued behind a refused guard.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use widx_db::hash::HashRecipe;
use widx_serve::{PendingResponse, ProbeService, Request, Response, ServeConfig, SubmitError};

const ENTRIES: u64 = 2000;
const PATIENCE: Duration = Duration::from_secs(30);

/// Every caller pins fanout 8, below the serving default, so that this
/// small range tier splits and merges leaves under the writes here.
fn build(config: &ServeConfig) -> ProbeService {
    ProbeService::build_with_range(
        HashRecipe::robust64(),
        (0..ENTRIES).map(|k| (k * 2, k)),
        config,
    )
}

/// The two admission modes of the public surface, and the blocking
/// conveniences (which admit with `Block`, then wait).
#[derive(Clone, Copy, Debug)]
enum Mode {
    Block,
    Try,
    Convenience,
}

const MODES: [Mode; 3] = [Mode::Block, Mode::Try, Mode::Convenience];

fn submit(
    service: &ProbeService,
    mode: Mode,
    request: Request,
) -> Result<PendingResponse, SubmitError> {
    match mode {
        Mode::Block => service.submit(request),
        Mode::Try => service.try_submit(request, None),
        Mode::Convenience => unreachable!("conveniences hand out no pending handle"),
    }
}

/// `request` through the blocking conveniences: the probe and scan
/// shapes have one each; a write is its ops, one call apiece, in order
/// (so an empty write makes no call at all).
fn convenience(service: &ProbeService, request: &Request) -> Result<Response, SubmitError> {
    let acks = |acks: Result<Vec<bool>, SubmitError>| acks.map(|acks| Response::Write { acks });
    match request {
        Request::Lookup { key } => service.lookup(*key).map(|payloads| Response::Lookup {
            key: *key,
            payloads,
        }),
        Request::MultiLookup { keys } => service
            .multi_lookup(keys)
            .map(|matches| Response::MultiLookup { matches }),
        Request::JoinProbe { keys } => service
            .join_probe(keys)
            .map(|pairs| Response::JoinProbe { pairs }),
        &Request::RangeScan {
            lo,
            hi,
            limit,
            desc,
        } => if desc {
            service.range_scan_desc(lo, hi, limit)
        } else {
            service.range_scan(lo, hi, limit)
        }
        .map(|entries| Response::RangeScan { entries }),
        Request::Insert { pairs } => {
            acks(pairs.iter().map(|(k, p)| service.insert(*k, *p)).collect())
        }
        Request::Delete { keys } => acks(keys.iter().map(|k| service.delete(*k)).collect()),
        Request::Update { pairs } => {
            acks(pairs.iter().map(|(k, p)| service.update(*k, *p)).collect())
        }
    }
}

/// Every worker's idle clock, hash tier then ordered tier. A worker
/// publishes its idle time when `pop` hands it a job, so a clock that
/// did not move is a worker that was handed nothing.
fn idle_clocks(service: &ProbeService) -> Vec<Duration> {
    let stats = service.live_stats();
    let workers = stats.workers.iter().chain(&stats.range_workers);
    workers.map(|w| w.idle).collect()
}

/// Sends `request` and also reports whether it was answered *here*, on
/// the sending thread: the handle ready when `submit` returned — or, for
/// a convenience, which returns no handle, no worker handed a job.
fn send_here(
    service: &ProbeService,
    mode: Mode,
    request: &Request,
) -> Result<(Response, bool), SubmitError> {
    if let Mode::Convenience = mode {
        let parked = idle_clocks(service);
        let response = convenience(service, request)?;
        return Ok((response, idle_clocks(service) == parked));
    }
    let pending = submit(service, mode, request.clone())?;
    let here = pending.is_ready();
    Ok((complete(mode, pending), here))
}

/// The refused-guard row for a call that blocks: runs `request`'s
/// convenience on a second thread while this one holds `guard`, drops
/// the guard once a worker has been handed a part, and returns what the
/// caller got.
fn convenience_behind<G>(service: &ProbeService, request: &Request, guard: G) -> (Response, bool) {
    let parked = idle_clocks(service);
    std::thread::scope(|scope| {
        let sent = scope.spawn(|| send_here(service, Mode::Convenience, request));
        wait_until("a worker holds the queued part", || {
            idle_clocks(service) != parked
        });
        assert!(!sent.is_finished(), "answered under a refused guard");
        drop(guard);
        sent.join().expect("caller panicked").expect("accepted")
    })
}

fn complete(mode: Mode, pending: PendingResponse) -> Response {
    pending
        .wait_timeout(PATIENCE)
        .unwrap_or_else(|_| panic!("{mode:?}: an accepted request never completed"))
}

fn send(service: &ProbeService, mode: Mode, request: Request) -> Result<Response, SubmitError> {
    send_here(service, mode, &request).map(|(response, _)| response)
}

fn stream(
    service: &ProbeService,
    mode: Mode,
    (lo, hi, limit, desc): (u64, u64, usize, bool),
) -> Result<Vec<(u64, u64)>, SubmitError> {
    let stream = match mode {
        Mode::Block => service.range_stream(lo, hi, limit, desc),
        Mode::Try => service.try_range_stream(lo, hi, limit, desc, None),
        Mode::Convenience => unreachable!("no blocking convenience streams"),
    }?;
    Ok(stream.flatten().collect())
}

/// The serial oracle: a key-ordered multimap answering every request
/// shape the way the service documents it.
struct Model(BTreeMap<u64, Vec<u64>>);

impl Model {
    fn new() -> Model {
        Model((0..ENTRIES).map(|k| (k * 2, vec![k])).collect())
    }

    fn payloads(&self, key: u64) -> Vec<u64> {
        self.0.get(&key).cloned().unwrap_or_default()
    }

    fn scan(&self, (lo, hi, limit, desc): (u64, u64, usize, bool)) -> Vec<(u64, u64)> {
        if lo > hi {
            return Vec::new();
        }
        let asc = self
            .0
            .range(lo..=hi)
            .flat_map(|(k, ps)| ps.iter().map(|p| (*k, *p)));
        if desc {
            let mut all: Vec<_> = asc.collect();
            all.reverse();
            all.truncate(limit);
            all
        } else {
            asc.take(limit).collect()
        }
    }

    fn answer(&mut self, request: &Request) -> Response {
        match request {
            Request::Lookup { key } => Response::Lookup {
                key: *key,
                payloads: self.payloads(*key),
            },
            Request::MultiLookup { keys } => Response::MultiLookup {
                matches: keys
                    .iter()
                    .flat_map(|k| self.payloads(*k).into_iter().map(|p| (*k, p)))
                    .collect(),
            },
            Request::JoinProbe { keys } => Response::JoinProbe {
                pairs: (0u64..)
                    .zip(keys)
                    .flat_map(|(row, k)| self.payloads(*k).into_iter().map(move |p| (row, p)))
                    .collect(),
            },
            Request::RangeScan {
                lo,
                hi,
                limit,
                desc,
            } => Response::RangeScan {
                entries: self.scan((*lo, *hi, *limit, *desc)),
            },
            Request::Insert { pairs } => Response::Write {
                acks: pairs
                    .iter()
                    .map(|(k, p)| {
                        self.0.entry(*k).or_default().push(*p);
                        true
                    })
                    .collect(),
            },
            Request::Delete { keys } => Response::Write {
                acks: keys.iter().map(|k| self.0.remove(k).is_some()).collect(),
            },
            Request::Update { pairs } => Response::Write {
                acks: pairs
                    .iter()
                    .map(|(k, p)| self.0.get_mut(k).map(|ps| *ps = vec![*p]).is_some())
                    .collect(),
            },
        }
    }
}

/// Point replies are unordered across shards; sort them for comparison.
fn normalized(mut response: Response) -> Response {
    match &mut response {
        Response::Lookup { payloads, .. } => payloads.sort_unstable(),
        Response::MultiLookup { matches } => matches.sort_unstable(),
        Response::JoinProbe { pairs } => pairs.sort_unstable(),
        Response::RangeScan { .. } | Response::Write { .. } => {}
    }
    response
}

/// Every buffered shape, reads interleaved with the writes they must
/// observe; odd keys miss (the build stores even keys only).
fn shapes() -> Vec<Request> {
    let scan = |lo, hi, limit, desc| Request::RangeScan {
        lo,
        hi,
        limit,
        desc,
    };
    vec![
        Request::Lookup { key: 84 },
        Request::Lookup { key: 85 },
        Request::MultiLookup {
            keys: (0..600).collect(),
        },
        Request::JoinProbe {
            keys: vec![10, 11, 10, 3998, 4000],
        },
        scan(100, 3000, 700, false),
        scan(100, 3000, 700, true),
        scan(9, 3, usize::MAX, false),
        Request::Insert {
            pairs: vec![(85, 1), (5001, 2), (2001, 3)],
        },
        Request::Update {
            pairs: vec![(84, 7), (87, 7), (5001, 9)],
        },
        Request::Delete {
            keys: vec![10, 11, 3998],
        },
        Request::Lookup { key: 85 },
        Request::MultiLookup {
            keys: vec![84, 10, 5001, 87],
        },
        scan(0, u64::MAX, usize::MAX, false),
        scan(1990, 5001, 5, true),
        Request::Delete { keys: vec![] },
        Request::Insert {
            pairs: vec![(91, 5)],
        },
        Request::Update {
            pairs: vec![(91, 6)],
        },
        Request::Lookup { key: 91 },
        Request::Delete { keys: vec![91] },
        scan(90, 92, usize::MAX, false),
    ]
}

const STREAMS: [(u64, u64, usize, bool); 4] = [
    (0, u64::MAX, usize::MAX, false),
    (0, u64::MAX, usize::MAX, true),
    (100, 3000, 333, true),
    (9, 3, usize::MAX, false),
];

#[test]
fn every_shape_answers_the_oracle_through_both_admission_modes_and_refuses_after_stop() {
    for mode in MODES {
        // Streams have no blocking convenience.
        let streams = match mode {
            Mode::Convenience => &[][..],
            Mode::Block | Mode::Try => &STREAMS[..],
        };
        let service = build(&ServeConfig::default().with_fanout(8).with_stream_chunk(64));
        let mut model = Model::new();
        for request in shapes() {
            let want = model.answer(&request);
            let got = send(&service, mode, request.clone()).expect("accepted");
            assert_eq!(
                normalized(got),
                normalized(want),
                "{mode:?}: {request:?} diverged from the serial oracle"
            );
        }
        for &scan in streams {
            assert_eq!(
                stream(&service, mode, scan).expect("accepted"),
                model.scan(scan),
                "{mode:?}: stream {scan:?} diverged from the serial oracle"
            );
        }
        service.stop();
        for request in shapes() {
            if let (Mode::Convenience, Some([])) = (mode, request.write_ops().as_deref()) {
                continue; // No op, no call, nothing to refuse.
            }
            assert_eq!(
                send(&service, mode, request.clone()).err(),
                Some(SubmitError::Stopped),
                "{mode:?}: {request:?} admitted after stop()"
            );
        }
        for &scan in streams {
            assert_eq!(
                stream(&service, mode, scan).err(),
                Some(SubmitError::Stopped),
                "{mode:?}: stream {scan:?} admitted after stop()"
            );
        }
        let _ = service.shutdown();
    }
}

/// Spins until `ready()` holds — the condition is a state the test
/// forces, so this only bridges the worker thread's scheduling delay.
fn wait_until(what: &str, ready: impl Fn() -> bool) {
    let deadline = Instant::now() + PATIENCE;
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::yield_now();
    }
}

/// `Busy` is all-or-nothing across tiers: a dual-tier write whose
/// ordered-tier queue is full must not leave its hash-tier part behind.
/// (The write is sub-ring, but both shards refuse their write guards, so
/// it is a queue-path write like any other.)
/// Both owning workers are parked on their shard locks (each holding
/// one popped job), so whatever `admit` enqueues stays visible in the
/// backlogs.
#[test]
fn busy_refuses_a_dual_tier_write_on_both_tiers_or_neither() {
    const KEY: u64 = 20;
    const CAPACITY: usize = 4;
    let service = build(
        &ServeConfig::default()
            .with_fanout(8)
            .with_shards(2)
            .with_queue_capacity(CAPACITY),
    );
    let (sharded, ordered) = (service.sharded(), service.ordered().expect("range tier"));
    let h = sharded.shard_of(KEY);
    let s = ordered.write_shard_of(KEY);
    assert_eq!(ordered.shard_span(KEY, KEY), (s, s), "single-shard scan");
    let scan = || Request::RangeScan {
        lo: KEY,
        hi: KEY,
        limit: usize::MAX,
        desc: false,
    };

    // Park both workers: each pops one job, then blocks on the read
    // guard behind our write guard.
    let hash_guard = sharded.write(h);
    let range_guard = ordered.write(s);
    let mut parked = vec![
        service
            .submit(Request::Lookup { key: KEY })
            .expect("lookup"),
        service.submit(scan()).expect("scan"),
    ];
    wait_until("both workers hold their job", || {
        service.backlog()[h] == 0 && service.range_backlog()[s] == 0
    });
    // Fill the ordered shard's queue to capacity (one unit per cursor).
    parked.extend((0..CAPACITY).map(|_| service.submit(scan()).expect("fill")));
    let before = (service.backlog(), service.range_backlog());
    assert_eq!((before.0[h], before.1[s]), (0, CAPACITY));

    let update = || Request::Update {
        pairs: vec![(KEY, 777)],
    };
    assert_eq!(
        service.try_submit(update(), None).err(),
        Some(SubmitError::Busy),
        "the ordered shard's queue is full"
    );
    assert_eq!(
        (service.backlog(), service.range_backlog()),
        before,
        "a refused write left a part behind"
    );

    drop(range_guard);
    drop(hash_guard);
    for pending in parked {
        let reply = pending.wait_timeout(PATIENCE);
        match reply.unwrap_or_else(|_| panic!("a parked request never completed")) {
            Response::Lookup { payloads, .. } => assert_eq!(payloads, vec![KEY / 2]),
            Response::RangeScan { entries } => assert_eq!(entries, vec![(KEY, KEY / 2)]),
            other => panic!("wrong variant {other:?}"),
        }
    }
    // Every queued scan has answered, so the queue has room again.
    match send(&service, Mode::Try, update()).expect("accepted once the queue drained") {
        Response::Write { acks } => assert_eq!(acks, vec![true]),
        other => panic!("wrong variant {other:?}"),
    }
    assert_eq!(service.lookup(KEY).expect("lookup"), vec![777]);
    assert_eq!(
        service.range_scan(KEY, KEY, usize::MAX).expect("scan"),
        vec![(KEY, 777)]
    );
    let _ = service.shutdown();
}

/// The sub-ring rows: every probe shape with fewer keys than the ring
/// has slots (`inflight`, 16) — one key, `inflight - 1` keys spanning
/// both shards, duplicates, misses — is complete the moment `submit` /
/// `try_submit` returns (its convenience: no worker handed a job), equals
/// the serial oracle, and is refused after `stop()` like any other
/// request.
#[test]
fn sub_ring_probes_are_complete_when_submit_returns() {
    let config = ServeConfig::default().with_fanout(8).with_shards(2);
    let spanning: Vec<u64> = (0..config.inflight as u64 - 1).map(|k| k * 2).collect();
    let rows = [
        Request::Lookup { key: 84 },
        Request::Lookup { key: 85 },
        Request::MultiLookup {
            keys: spanning.clone(),
        },
        Request::JoinProbe { keys: spanning },
        Request::MultiLookup {
            keys: vec![10, 10, 10],
        },
        Request::JoinProbe {
            keys: vec![10, 11, 10, 3998, 4000],
        },
        Request::MultiLookup {
            keys: vec![1, 3, 5, 7001],
        },
        Request::JoinProbe { keys: vec![1, 3] },
    ];
    for mode in MODES {
        let service = build(&config);
        let owners: BTreeSet<usize> = rows[2]
            .keys()
            .iter()
            .map(|key| service.sharded().shard_of(*key))
            .collect();
        assert_eq!(owners.len(), 2, "the spanning rows touch both shards");
        let mut model = Model::new();
        for request in &rows {
            let (got, here) = send_here(&service, mode, request).expect("accepted");
            assert!(
                here,
                "{mode:?}: {request:?} was not complete when submit returned"
            );
            assert_eq!(
                normalized(got),
                normalized(model.answer(request)),
                "{mode:?}: {request:?} diverged from the serial oracle"
            );
        }
        assert_eq!(service.backlog(), vec![0, 0], "{mode:?}: nothing queued");
        service.stop();
        for request in &rows {
            assert_eq!(
                send(&service, mode, request.clone()).err(),
                Some(SubmitError::Stopped),
                "{mode:?}: {request:?} admitted after stop()"
            );
        }
        let _ = service.shutdown();
    }
}

/// The sub-ring write rows. On idle shards every write shape with fewer
/// ops than the ring has slots is complete — applied to both tiers —
/// the moment `submit` / `try_submit` returns, and the reads behind it
/// see it. When one tier's shard refuses its write guard (here the
/// ordered tier's: the test holds a read guard), no part is applied in
/// place: the write queues on both tiers and completes once the guard
/// drops, equal to the oracle either way. (A convenience is one op per
/// call, each under the same rule.)
#[test]
fn sub_ring_writes_are_applied_when_submit_returns_unless_a_guard_is_refused() {
    const KEY: u64 = 84;
    let rows = [
        Request::Insert {
            pairs: vec![(85, 1), (5001, 2), (2001, 3)],
        },
        Request::Update {
            pairs: vec![(KEY, 7), (87, 7), (5001, 9)],
        },
        Request::Delete {
            keys: vec![10, 11, 3998],
        },
    ];
    // Keys owned between them by every shard of both tiers.
    let touch = || Request::Update {
        pairs: [0, 2, 4, 3990, 3992, 3994, 3996]
            .map(|k| (k, k / 2))
            .to_vec(),
    };
    let reads = [
        Request::MultiLookup {
            keys: vec![KEY, 85, 87, 10, 5001, 2001],
        },
        Request::RangeScan {
            lo: 0,
            hi: u64::MAX,
            limit: usize::MAX,
            desc: false,
        },
    ];
    for mode in MODES {
        let service = build(&ServeConfig::default().with_fanout(8).with_shards(2));
        let mut model = Model::new();
        let ordered = service.ordered().expect("range tier");
        let owners = |shard_of: &dyn Fn(u64) -> usize| -> BTreeSet<usize> {
            let ops = touch().write_ops().expect("a write");
            ops.iter().map(|op| shard_of(op.key())).collect()
        };
        assert_eq!(owners(&|key| service.sharded().shard_of(key)).len(), 2);
        assert_eq!(owners(&|key| ordered.write_shard_of(key)).len(), 2);
        // A worker that has answered is on its way back into `pop`;
        // a write that changes nothing finds out when all have arrived.
        wait_until("every shard is idle", || {
            send_here(&service, mode, &touch()).expect("accepted").1
        });
        for request in &rows {
            let (got, here) = send_here(&service, mode, request).expect("accepted");
            assert!(
                here,
                "{mode:?}: {request:?} was not complete when submit returned"
            );
            assert_eq!(got, model.answer(request));
        }
        let guard = ordered.read(ordered.write_shard_of(KEY));
        let request = Request::Update {
            pairs: vec![(KEY, 8)],
        };
        let (got, here) = if let Mode::Convenience = mode {
            convenience_behind(&service, &request, guard)
        } else {
            let pending = submit(&service, mode, request.clone()).expect("accepted");
            let here = pending.is_ready();
            drop(guard);
            (complete(mode, pending), here)
        };
        assert!(
            !here,
            "{mode:?}: applied a write whose ordered shard refused its guard"
        );
        assert_eq!(got, model.answer(&request));
        for request in &reads {
            let got = send(&service, mode, request.clone()).expect("accepted");
            assert_eq!(normalized(got), normalized(model.answer(request)));
        }
        let _ = service.shutdown();
    }
}

/// The rule's two edges, with the owning worker parked so nothing
/// depends on timing. A probe of exactly `inflight` keys is *queued*:
/// not ready at return, `Busy` once the queue is full, answered only
/// when the worker runs its batch. The same probe minus one key is
/// *walked*: answered at return whatever the queue holds. And when the
/// shard refuses its read guard, the sub-ring probe takes the queue
/// path too, completing once the guard drops.
#[test]
fn a_ring_filling_probe_queues_where_a_sub_ring_probe_is_answered() {
    const CAPACITY: usize = 16;
    let config = ServeConfig::default()
        .with_fanout(8)
        .with_shards(2)
        .with_queue_capacity(CAPACITY);
    let ring = config.inflight;
    let service = build(&config);
    let h = 1;
    let owned: Vec<u64> = (0..)
        .filter(|key| service.sharded().shard_of(*key) == h)
        .take(ring)
        .collect();
    let ring_filling = || Request::MultiLookup {
        keys: owned.clone(),
    };
    let sub_ring = || Request::MultiLookup {
        keys: owned[1..].to_vec(),
    };
    let oracle = |request: &Request| normalized(Model::new().answer(request));

    // Park shard `h`'s worker inside a completion waker: it then holds
    // its read guard (readers welcome) and cannot pop. The write guard
    // keeps the parker from completing before the waker is installed.
    let (entered_tx, entered) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let released = Mutex::new(released);
    let guard = service.sharded().write(h);
    let parker = service.submit(ring_filling()).expect("parker");
    parker.set_waker(Arc::new(move || {
        entered_tx.send(()).expect("test alive");
        let _ = released.lock().expect("release lock").recv();
    }));
    drop(guard);
    entered
        .recv_timeout(PATIENCE)
        .expect("the worker never completed the parker");

    // Ring-filling probes queue behind the parked worker until the
    // queue is full, then are refused.
    let queued: Vec<PendingResponse> = (0..CAPACITY / ring)
        .map(|_| {
            let pending = service.try_submit(ring_filling(), None).expect("fits");
            assert!(!pending.is_ready(), "an inflight-key probe was not queued");
            pending
        })
        .collect();
    assert_eq!(service.backlog()[h], CAPACITY);
    assert_eq!(
        service.try_submit(ring_filling(), None).err(),
        Some(SubmitError::Busy),
        "the shard's queue is full"
    );
    // One key fewer needs no queue slot and no worker.
    let pending = service
        .try_submit(sub_ring(), None)
        .expect("a sub-ring probe is never Busy");
    assert!(pending.is_ready(), "a sub-ring probe waited for the worker");
    assert_eq!(normalized(pending.wait()), oracle(&sub_ring()));
    assert_eq!(service.backlog()[h], CAPACITY, "walked, not queued");
    // Nor does its blocking convenience, which would otherwise wait out
    // the full queue behind a worker that cannot pop.
    let (got, here) = send_here(&service, Mode::Convenience, &sub_ring()).expect("accepted");
    assert!(here, "multi_lookup() woke a worker");
    assert_eq!(normalized(got), oracle(&sub_ring()));

    release.send(()).expect("worker parked");
    for pending in queued.into_iter().chain([parker]) {
        assert_eq!(
            normalized(complete(Mode::Try, pending)),
            oracle(&ring_filling())
        );
    }

    // A refused guard (here: the test plays the write barrier) sends
    // the same sub-ring probe down the unchanged queue path.
    for mode in MODES {
        let guard = service.sharded().write(h);
        let (got, here) = if let Mode::Convenience = mode {
            convenience_behind(&service, &sub_ring(), guard)
        } else {
            let pending = submit(&service, mode, sub_ring()).expect("accepted");
            let here = pending.is_ready();
            drop(guard);
            (complete(mode, pending), here)
        };
        assert!(!here, "{mode:?}: walked a shard whose write guard is held");
        assert_eq!(normalized(got), oracle(&sub_ring()));
    }
    let _ = service.shutdown();
}
