//! The cuts below the request path: the `db` and `soft` walkers on the
//! service's own shard 0, the wire codec with no socket, and the `obs`
//! primitives — each timed around calls to public functions.

use std::hint::black_box;

use widx_net::wire::{self, Decoded, WriteKind};
use widx_obs::{AtomicHistogram, Stage, StageSnapshot, WalkCounters};
use widx_serve::{ProbeService, Request, Response, ServiceStats, WorkerStats};
use widx_soft::{
    probe_amac, probe_group_prefetch, probe_scalar, scan_btree_amac, scan_btree_group,
    scan_btree_scalar, ScanRange,
};

use crate::spans::{Clock, SpanBuf, NO_SPAN};
use crate::workload::{Kind, Spec, Traffic};

/// Group-prefetch width of the engine cut.
const GROUP: usize = 16;
/// A span covers at least this many units of work, so two clock reads
/// stay under a percent of what they time.
const BURST_UNITS: u64 = 512;

/// The engines raced on one shard, in the order they take turns.
const ENGINES: [&str; 4] = ["db.lookup", "soft.scalar", "soft.group", "soft.amac"];

/// One engine's share of the race.
#[derive(Clone, Copy, Default)]
struct Lane {
    units: u64,
    ns: u64,
    counters: WalkCounters,
}

impl Lane {
    fn ns_per_unit(&self) -> f64 {
        self.ns as f64 / self.units as f64
    }
}

/// What the engine cut reports, per unit of the workload's work.
pub struct EngineCut {
    /// The serial, no-MLP floor: `HashIndex::lookup` per key, or
    /// `BTreeIndex::range_scan` per entry.
    pub db_read_ns_per_key: f64,
    pub scalar_ns_per_key: f64,
    pub group_ns_per_key: f64,
    pub amac_ns_per_key: f64,
    /// `WalkCounters` occupancy / rounds of the AMAC engine: exact.
    pub amac_mlp: f64,
    /// Index nodes visited per unit by the scalar walk: exact.
    pub nodes_per_key: f64,
}

/// Walks a burst of chunks with the engine of the given number; returns
/// the units of work done and what the walker counted.
type Walk<'a, C> = dyn FnMut(usize, &[C]) -> (u64, WalkCounters) + 'a;

/// Races the engines round-robin for `budget_ns`, so drift on a shared
/// host hits all alike. Before each turn `fill` loads a *fresh* burst
/// of chunks — an engine never walks keys another just pulled into
/// cache — and `run` walks them with the engine whose turn it is.
fn race<C>(
    budget_ns: u64,
    clock: Clock,
    spans: &mut SpanBuf,
    fill: &mut dyn FnMut(&mut Vec<C>),
    run: &mut Walk<'_, C>,
) -> [Lane; ENGINES.len()] {
    let mut lanes = [Lane::default(); ENGINES.len()];
    let mut burst = Vec::new();
    let started = clock.now_ns();
    let mut turn = 0u64;
    while clock.now_ns() - started < budget_ns {
        for (engine, lane) in lanes.iter_mut().enumerate() {
            burst.clear();
            fill(&mut burst);
            let t0 = clock.now_ns();
            let (units, counters) = run(engine, &burst);
            let t1 = clock.now_ns();
            spans.push(ENGINES[engine], t0, t1, NO_SPAN, turn);
            lane.units += units;
            lane.ns += t1 - t0;
            lane.counters.merge(&counters);
        }
        turn += 1;
    }
    lanes
}

/// The `db` + `soft` cut on shard 0 of the tier the workload reads,
/// over the part of each request that routes there. Needs an idle
/// service: it takes the shard's read guard for the whole cut.
#[must_use]
pub fn engine_cut(
    service: &ProbeService,
    spec: &Spec,
    traffic: &mut Traffic,
    inflight: usize,
    budget_ns: u64,
    clock: Clock,
    spans: &mut SpanBuf,
) -> EngineCut {
    let lanes = match service.ordered().filter(|_| spec.kind == Kind::ScanDram) {
        Some(ordered) => {
            let tree = ordered.read(0);
            let mut fill = |burst: &mut Vec<[ScanRange; 1]>| {
                let mut units = 0;
                while units < BURST_UNITS {
                    if let (Request::RangeScan { lo, hi, limit, .. }, _) = traffic.next_request() {
                        if ordered.shard_span(lo, hi) == (0, 0) {
                            burst.push([ScanRange::new(lo, hi).with_limit(limit)]);
                            units += limit as u64;
                        }
                    }
                }
            };
            let mut run = |engine: usize, burst: &[[ScanRange; 1]]| {
                let mut entries = 0u64;
                let mut counters = WalkCounters::default();
                if engine == 0 {
                    for [scan] in burst {
                        let found = tree.range_scan(scan.lo, scan.hi, scan.limit);
                        entries += black_box(found).len() as u64;
                    }
                } else {
                    let mut emit = |_scan: u32, key: u64, payload: u64| {
                        black_box((key, payload));
                        entries += 1;
                    };
                    for scans in burst {
                        counters.merge(&match engine {
                            1 => scan_btree_scalar(&tree, scans, &mut emit),
                            2 => scan_btree_group(&tree, scans, GROUP, &mut emit),
                            _ => scan_btree_amac(&tree, scans, inflight, &mut emit),
                        });
                    }
                }
                (entries, counters)
            };
            race(budget_ns, clock, spans, &mut fill, &mut run)
        }
        None => {
            let sharded = service.sharded();
            let index = sharded.read(0);
            let mut fill = |burst: &mut Vec<Vec<u64>>| {
                let mut units = 0;
                while units < BURST_UNITS {
                    let (request, _) = traffic.next_request();
                    // A write is not a walk: `rw_hot` races its reads.
                    let here: Vec<u64> = request
                        .keys()
                        .iter()
                        .copied()
                        .filter(|&k| sharded.shard_of(k) == 0)
                        .collect();
                    if !here.is_empty() {
                        units += here.len() as u64;
                        burst.push(here);
                    }
                }
            };
            let mut matches = Vec::new();
            let mut run = |engine: usize, burst: &[Vec<u64>]| {
                let mut keys = 0u64;
                let mut counters = WalkCounters::default();
                for chunk in burst {
                    matches.clear();
                    counters.merge(&match engine {
                        0 => {
                            for &key in chunk {
                                black_box(index.lookup(key));
                            }
                            WalkCounters::default()
                        }
                        1 => probe_scalar(&index, chunk, &mut matches),
                        2 => probe_group_prefetch(&index, chunk, GROUP, &mut matches),
                        _ => probe_amac(&index, chunk, inflight, &mut matches),
                    });
                    black_box(matches.len());
                    keys += chunk.len() as u64;
                }
                (keys, counters)
            };
            race(budget_ns, clock, spans, &mut fill, &mut run)
        }
    };
    let [db, scalar, group, amac] = lanes;
    EngineCut {
        db_read_ns_per_key: db.ns_per_unit(),
        scalar_ns_per_key: scalar.ns_per_unit(),
        group_ns_per_key: group.ns_per_unit(),
        amac_ns_per_key: amac.ns_per_unit(),
        amac_mlp: amac.counters.occupancy as f64 / amac.counters.rounds as f64,
        nodes_per_key: scalar.counters.nodes as f64 / scalar.units as f64,
    }
}

/// `db.update_ns_per_op`: `update` on every tier the workload has,
/// through the shards' own write guards, rewriting each key's current
/// value (`state` knows it; `keys_from` is a throw-away generator) so
/// the index's contents do not change. Needs an idle service, and comes
/// last on it: chains are re-linked.
#[must_use]
pub fn update_cut(
    service: &ProbeService,
    keys_from: &mut Traffic,
    state: &Traffic,
    budget_ns: u64,
    clock: Clock,
    spans: &mut SpanBuf,
) -> f64 {
    const BURST: u64 = 256;
    let sharded = service.sharded();
    let domain = service.epoch_domain();
    let (mut ops, mut ns, mut burst) = (0u64, 0u64, 0u64);
    let started = clock.now_ns();
    while clock.now_ns() - started < budget_ns {
        let keys: Vec<u64> = std::iter::repeat_with(|| keys_from.next_request().0)
            .filter_map(|request| match request {
                Request::RangeScan { lo, .. } => Some(lo),
                Request::Update { pairs } => Some(pairs[0].0),
                other => other
                    .keys()
                    .first()
                    .copied()
                    .filter(|&k| k < sharded.len() as u64),
            })
            .take(BURST as usize)
            .collect();
        let values: Vec<u64> = keys
            .iter()
            .map(|&key| match state.expected(&Request::Lookup { key }) {
                Response::Lookup { payloads, .. } => payloads[0],
                _ => unreachable!("a lookup is answered with a lookup"),
            })
            .collect();
        let t0 = clock.now_ns();
        for (&key, &value) in keys.iter().zip(&values) {
            let hit = sharded.write(sharded.shard_of(key)).update(key, value);
            assert!(hit, "key {key} is in the index");
            if let Some(ordered) = service.ordered() {
                ordered
                    .write(ordered.write_shard_of(key))
                    .update(key, value);
            }
        }
        let t1 = clock.now_ns();
        spans.push("db.update", t0, t1, NO_SPAN, burst);
        ops += BURST;
        ns += t1 - t0;
        burst += 1;
        // Nobody is reading: let the retire lists drain as a running
        // service's write barriers would.
        domain.advance();
        for shard in 0..sharded.shard_count() {
            sharded.write(shard).reclaim();
        }
        if let Some(ordered) = service.ordered() {
            for shard in 0..ordered.shard_count() {
                ordered.write(shard).reclaim();
            }
        }
    }
    ns as f64 / ops as f64
}

/// What the codec cut reports.
pub struct CodecCut {
    /// `encode_request` -> `decode_request` -> `encode_response` ->
    /// `decode_reply` on the workload's own frames, no socket.
    pub ns_per_req: f64,
    /// Mean request and reply frame sizes: exact for a seed.
    pub req_bytes: f64,
    pub reply_bytes: f64,
}

/// Frames a pool of the workload's requests and their correct replies
/// through the wire codec for `budget_ns`.
#[must_use]
pub fn codec_cut(
    traffic: &mut Traffic,
    budget_ns: u64,
    clock: Clock,
    spans: &mut SpanBuf,
) -> CodecCut {
    const POOL: usize = 256;
    let pool: Vec<(Request, Response)> = (0..POOL)
        .map(|_| {
            let (request, _) = traffic.next_request();
            let reply = traffic.expected(&request);
            (request, reply)
        })
        .collect();
    let (mut req_buf, mut reply_buf) = (Vec::new(), Vec::new());
    let (mut requests, mut ns, mut req_bytes, mut reply_bytes) = (0u64, 0u64, 0u64, 0u64);
    let started = clock.now_ns();
    while clock.now_ns() - started < budget_ns {
        let t0 = clock.now_ns();
        for (id, (request, reply)) in (0u64..).zip(&pool) {
            req_buf.clear();
            wire::encode_request(&mut req_buf, id, request);
            let decoded = wire::decode_request(&req_buf);
            assert!(
                matches!(decoded, Ok(Decoded::Frame { .. })),
                "request frame decodes"
            );
            black_box(decoded.ok());
            reply_buf.clear();
            match (WriteKind::of(request), reply) {
                (Some(kind), Response::Write { acks }) => {
                    wire::encode_write_reply(&mut reply_buf, id, kind, acks);
                }
                _ => wire::encode_response(&mut reply_buf, id, reply),
            }
            let decoded = wire::decode_reply(&reply_buf);
            assert!(
                matches!(decoded, Ok(Decoded::Frame { .. })),
                "reply frame decodes"
            );
            black_box(decoded.ok());
            req_bytes += req_buf.len() as u64;
            reply_bytes += reply_buf.len() as u64;
        }
        let t1 = clock.now_ns();
        spans.push("net.codec", t0, t1, NO_SPAN, requests / POOL as u64);
        requests += POOL as u64;
        ns += t1 - t0;
    }
    CodecCut {
        ns_per_req: ns as f64 / requests as f64,
        req_bytes: req_bytes as f64 / requests as f64,
        reply_bytes: reply_bytes as f64 / requests as f64,
    }
}

/// `obs.hist_record_ns`: one `AtomicHistogram::record`, uncontended.
#[must_use]
pub fn hist_record_cut(clock: Clock, spans: &mut SpanBuf) -> f64 {
    const RECORDS: u64 = 1 << 20;
    let hist = AtomicHistogram::new();
    let t0 = clock.now_ns();
    for i in 0..RECORDS {
        // Latency-like values from 256 ns up, spread over the buckets.
        hist.record(black_box((i & 0xFFFF) << (i % 12) | 256));
    }
    let t1 = clock.now_ns();
    spans.push("obs.record", t0, t1, NO_SPAN, 0);
    assert_eq!(hist.snapshot().count(), RECORDS);
    (t1 - t0) as f64 / RECORDS as f64
}

/// The service's own counters at one instant; two of them bracket a cut.
pub struct ServeMark {
    stages: StageSnapshot,
    stats: ServiceStats,
}

impl ServeMark {
    #[must_use]
    pub fn take(service: &ProbeService) -> ServeMark {
        ServeMark {
            stages: service.stage_times().snapshot(),
            stats: service.live_stats(),
        }
    }
}

/// What the program's counters say happened between two [`ServeMark`]s.
/// Stage figures are means from the histograms' exact sums and counts;
/// their log2 percentiles are too coarse to compare.
pub struct ServeCounters {
    /// Submit to worker admission, per request shard-part.
    pub queue_wait_ns: f64,
    /// Batch open to flush decision, per batch.
    pub batch_wait_ns: f64,
    /// First shard-part done to last, per request.
    pub gather_ns: f64,
    /// Reply frame encoded to flushed, per frame (0 with no server).
    pub reply_write_ns: f64,
    /// Walking plus write application, summed over every shard.
    pub shard_work_ns: u64,
    /// The write-application part of `shard_work_ns`.
    pub write_share: f64,
    /// Keys (or scan cursors) per flushed batch.
    pub mean_batch: f64,
    /// Batches closed by the deadline rather than by size.
    pub deadline_flush_frac: f64,
    /// Busy share of the workers that did anything.
    pub occupancy: f64,
    pub epoch_reclaimed_per_write: f64,
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

impl ServeCounters {
    #[must_use]
    pub fn between(before: &ServeMark, after: &ServeMark) -> ServeCounters {
        let stage = |stage: Stage| {
            let (b, a) = (before.stages.get(stage), after.stages.get(stage));
            (a.sum_ns - b.sum_ns, a.count() - b.count())
        };
        let mean = |s: Stage| {
            let (sum, count) = stage(s);
            ratio(sum as f64, count as f64)
        };
        let (walk_ns, _) = stage(Stage::Walk);
        let (write_ns, _) = stage(Stage::Write);

        let workers = |stats: &ServiceStats| -> Vec<WorkerStats> {
            stats
                .workers
                .iter()
                .chain(&stats.range_workers)
                .cloned()
                .collect()
        };
        let (mut keys, mut batches, mut deadline, mut writes) = (0, 0, 0, 0);
        let (mut busy, mut alive) = (0.0, 0.0);
        for (b, a) in workers(&before.stats).iter().zip(workers(&after.stats)) {
            keys += a.keys - b.keys;
            batches += a.batches - b.batches;
            deadline += a.deadline_flushes - b.deadline_flushes;
            writes += a.write_ops - b.write_ops;
            let worked = (a.busy - b.busy).as_secs_f64();
            if worked > 0.0 {
                busy += worked;
                alive += worked + (a.idle - b.idle).as_secs_f64();
            }
        }
        let reclaimed = after.stats.epoch_reclaimed - before.stats.epoch_reclaimed;
        ServeCounters {
            queue_wait_ns: mean(Stage::QueueWait),
            batch_wait_ns: mean(Stage::BatchWait),
            gather_ns: mean(Stage::Gather),
            reply_write_ns: mean(Stage::ReplyWrite),
            shard_work_ns: walk_ns + write_ns,
            write_share: ratio(write_ns as f64, (walk_ns + write_ns) as f64),
            mean_batch: ratio(keys as f64, batches as f64),
            deadline_flush_frac: ratio(deadline as f64, batches as f64),
            occupancy: ratio(busy, alive),
            epoch_reclaimed_per_write: ratio(reclaimed as f64, writes as f64),
        }
    }
}
