//! Serving telemetry: per-worker throughput/occupancy and service-wide
//! request latency. It feeds the `Stats` JSON document a scrape returns,
//! and `benchmark/` reads its per-layer metrics from the same views.
//!
//! Since the live-telemetry refactor the numbers here are *views*: workers
//! publish into lock-free `widx_obs` registry cells as they run, and both
//! [`ProbeService::live_stats`](crate::ProbeService::live_stats) and the
//! shutdown join materialize a [`ServiceStats`] from the same snapshot
//! path, so the post-mortem report is just the last scrape.

use std::time::Duration;

use widx_obs::json::Writer;
use widx_obs::{
    HistogramSnapshot, ProfSnapshot, RecorderStats, Stage, StageSnapshot, WorkerCellSnapshot,
};

/// Counters one shard worker accumulates over its lifetime.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerStats {
    /// The worker's shard id.
    pub shard: usize,
    /// Probe jobs (request shard-parts) processed.
    pub jobs: u64,
    /// Batches flushed.
    pub batches: u64,
    /// Keys probed.
    pub keys: u64,
    /// Matches emitted.
    pub matches: u64,
    /// Batches closed because they reached the size target.
    pub size_flushes: u64,
    /// Batches closed short of the size target because the queue ran
    /// dry. The exported name predates the rule (a timer used to close
    /// short batches); `size_flushes + deadline_flushes +
    /// shutdown_flushes == batches` still holds.
    pub deadline_flushes: u64,
    /// Final partial batches flushed at shutdown.
    pub shutdown_flushes: u64,
    /// Mutation operations applied at write barriers (insert/delete/update).
    pub write_ops: u64,
    /// Mutation operations that took effect (insert always; delete/update
    /// only when the key existed).
    pub write_applied: u64,
    /// Write barriers executed (batches of mutations applied under the
    /// shard's write guard).
    pub write_batches: u64,
    /// Time spent probing (walker running).
    pub busy: Duration,
    /// Time spent waiting for work.
    pub idle: Duration,
}

impl WorkerStats {
    /// Write the counters as members of the currently open JSON object.
    pub fn write_fields(&self, w: &mut Writer) {
        w.key("shard").u64(self.shard as u64);
        w.key("jobs").u64(self.jobs);
        w.key("batches").u64(self.batches);
        w.key("keys").u64(self.keys);
        w.key("matches").u64(self.matches);
        w.key("size_flushes").u64(self.size_flushes);
        w.key("deadline_flushes").u64(self.deadline_flushes);
        w.key("shutdown_flushes").u64(self.shutdown_flushes);
        w.key("write_ops").u64(self.write_ops);
        w.key("write_applied").u64(self.write_applied);
        w.key("write_batches").u64(self.write_batches);
        w.key("busy_ns").u64(self.busy.as_nanos() as u64);
        w.key("idle_ns").u64(self.idle.as_nanos() as u64);
        w.key("occupancy").f64(self.occupancy(), 4);
    }

    /// Materializes worker stats from a live registry cell snapshot.
    pub(crate) fn from_cell(shard: usize, cell: &WorkerCellSnapshot) -> WorkerStats {
        WorkerStats {
            shard,
            jobs: cell.jobs,
            batches: cell.batches,
            keys: cell.keys,
            matches: cell.matches,
            size_flushes: cell.size_flushes,
            deadline_flushes: cell.deadline_flushes,
            shutdown_flushes: cell.shutdown_flushes,
            write_ops: cell.write_ops,
            write_applied: cell.write_applied,
            write_batches: cell.write_batches,
            busy: Duration::from_nanos(cell.busy_ns),
            idle: Duration::from_nanos(cell.idle_ns),
        }
    }

    /// Fraction of the worker's lifetime spent probing — the software
    /// analogue of the paper's walker-utilization figure (Figure 5).
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        let total = self.busy.as_secs_f64() + self.idle.as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.busy.as_secs_f64() / total
        }
    }

    /// Keys probed per second of *busy* time (per-walker service rate).
    #[must_use]
    pub fn busy_throughput(&self) -> f64 {
        let busy = self.busy.as_secs_f64();
        if busy == 0.0 {
            0.0
        } else {
            self.keys as f64 / busy
        }
    }

    /// Mean keys per flushed batch.
    #[must_use]
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.keys as f64 / self.batches as f64
        }
    }
}

/// Order statistics over per-request completion latencies.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Completed requests measured.
    pub count: usize,
    /// Mean latency in nanoseconds.
    pub mean_ns: f64,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile latency in nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile latency in nanoseconds — the tail the network
    /// tier's idle/tail experiments watch (a lost completion wakeup
    /// shows up here long before it moves the p99).
    pub p999_ns: u64,
    /// Smallest observed latency in nanoseconds.
    pub min_ns: u64,
    /// Largest observed latency in nanoseconds.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarizes a live histogram snapshot. Percentiles are quantized to
    /// the histogram's log2 bucket edges (clamped to the observed
    /// min/max); count, mean, min, and max are exact.
    #[must_use]
    pub fn from_histogram(hist: &HistogramSnapshot) -> LatencySummary {
        LatencySummary {
            count: usize::try_from(hist.count()).unwrap_or(usize::MAX),
            mean_ns: hist.mean_ns(),
            p50_ns: hist.quantile(0.50),
            p95_ns: hist.quantile(0.95),
            p99_ns: hist.quantile(0.99),
            p999_ns: hist.quantile(0.999),
            min_ns: hist.min(),
            max_ns: hist.max(),
        }
    }

    /// Write the summary as members of the currently open JSON object —
    /// the one rendering every latency block shares.
    pub fn write_fields(&self, w: &mut Writer) {
        w.key("count").u64(self.count as u64);
        w.key("mean_ns").f64(self.mean_ns, 1);
        for (key, ns) in [
            ("p50_ns", self.p50_ns),
            ("p95_ns", self.p95_ns),
            ("p99_ns", self.p99_ns),
            ("p999_ns", self.p999_ns),
            ("min_ns", self.min_ns),
            ("max_ns", self.max_ns),
        ] {
            w.key(key).u64(ns);
        }
    }
}

/// Per-stage latency summaries: where a request's life goes between
/// its frame leaving the socket and the reply bytes leaving the server.
///
/// Counts differ per stage by design: queue-wait counts shard-parts,
/// batch-wait and walk count batches, gather counts completed requests,
/// net-read counts traced requests and reply-write counts reply frames
/// (both zero unless a `widx-net` server is attached).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageStats {
    per: [LatencySummary; Stage::COUNT],
}

impl StageStats {
    /// Materializes stage summaries from a live stage-times snapshot.
    #[must_use]
    pub fn from_snapshot(snap: &StageSnapshot) -> StageStats {
        StageStats {
            per: Stage::ALL.map(|stage| LatencySummary::from_histogram(snap.get(stage))),
        }
    }

    /// The summary for one stage.
    #[must_use]
    pub fn get(&self, stage: Stage) -> &LatencySummary {
        &self.per[stage.index()]
    }

    /// `(name, summary)` pairs in pipeline order.
    #[must_use]
    pub fn named(&self) -> [(&'static str, LatencySummary); Stage::COUNT] {
        Stage::ALL.map(|stage| (stage.name(), *self.get(stage)))
    }
}

/// One reactor's gauge pair, as snapshot into a [`NetStats`]. Each
/// reactor thread of a multi-reactor `widx-net` server re-publishes its
/// pair every event-loop pass; the totals in [`NetStats`] are the sums.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Connections currently pinned to this reactor.
    pub open_connections: u64,
    /// Bytes currently buffered for write across this reactor's
    /// connections.
    pub write_backlog_bytes: u64,
}

/// Counters for the network front-end tier (`widx-net`), when the
/// service is exposed over a socket. The serving crate defines the
/// shape so [`ServiceStats`] can carry it without depending on the
/// network layer; the `widx-net` server fills it in and attaches it via
/// [`ServiceStats::with_net`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Well-formed request frames decoded.
    pub frames_in: u64,
    /// Reply frames written (responses *and* error frames).
    pub frames_out: u64,
    /// Requests refused with a `Busy` error frame — either a shard
    /// queue at capacity or a connection over its in-flight cap.
    pub busy_rejects: u64,
    /// Frames that failed to decode (bad version/opcode/payload).
    pub decode_errors: u64,
    /// Gauge: connections currently open across every reactor
    /// (published by the event loops each iteration, so a live scrape
    /// sees the current fleet).
    pub open_connections: u64,
    /// Gauge: bytes currently buffered for write across all open
    /// connections (reply backpressure).
    pub write_backlog_bytes: u64,
    /// Per-reactor gauge breakdown, in reactor order — one entry per
    /// event-loop thread. The two gauge totals above are the sums over
    /// this vector. Empty when no server is attached.
    pub reactors: Vec<ReactorStats>,
}

impl NetStats {
    /// Write the totals and the per-reactor breakdown as members of the
    /// currently open JSON object.
    pub fn write_fields(&self, w: &mut Writer) {
        w.key("connections").u64(self.connections);
        w.key("frames_in").u64(self.frames_in);
        w.key("frames_out").u64(self.frames_out);
        w.key("busy_rejects").u64(self.busy_rejects);
        w.key("decode_errors").u64(self.decode_errors);
        w.key("open_connections").u64(self.open_connections);
        w.key("write_backlog_bytes").u64(self.write_backlog_bytes);
        w.key("reactors").array(|w| {
            for (i, reactor) in self.reactors.iter().enumerate() {
                w.object(|w| {
                    w.key("reactor").u64(i as u64);
                    w.key("open").u64(reactor.open_connections);
                    w.key("backlog_bytes").u64(reactor.write_backlog_bytes);
                });
            }
        });
    }

    /// Whether any traffic was observed at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.connections == 0
            && self.frames_in == 0
            && self.frames_out == 0
            && self.busy_rejects == 0
            && self.decode_errors == 0
            && self.open_connections == 0
            && self.write_backlog_bytes == 0
            && self.reactors.iter().all(|r| *r == ReactorStats::default())
    }
}

/// Everything the service measured, returned by
/// [`ProbeService::live_stats`](crate::ProbeService::live_stats) at any
/// moment and by [`ProbeService::shutdown`](crate::ProbeService::shutdown)
/// as the final snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceStats {
    /// Per-worker counters for the point-probe (hash) tier, in shard
    /// order. `keys` counts probe keys.
    pub workers: Vec<WorkerStats>,
    /// Per-worker counters for the ordered (range-scan) tier, in shard
    /// order — empty on services built without one. `keys` counts scan
    /// cursors fed; `matches` counts entries emitted.
    pub range_workers: Vec<WorkerStats>,
    /// Completion-latency summary across every finished request (both
    /// tiers).
    pub latency: LatencySummary,
    /// Per-stage breakdown of where request time goes.
    pub stages: StageStats,
    /// Network front-end counters — all zero unless a `widx-net` server
    /// snapshot was attached with [`ServiceStats::with_net`].
    pub net: NetStats,
    /// Flight-recorder gauges: ring depth and record/drop/slow totals.
    /// All zero unless per-request tracing is armed.
    pub trace: RecorderStats,
    /// Hardware-profiling snapshot merged across every worker: per-stage
    /// cycles/instructions/misses with derived IPC / MPKI / stall
    /// fraction / effective MLP, plus the software walker cross-check.
    /// `None` unless the service was built with
    /// `ServeConfig::with_profile(true)`.
    pub prof: Option<ProfSnapshot>,
    /// Index node slots mutations freed over the service's lifetime
    /// (unlinked overflow nodes, merged or emptied leaves and inner
    /// nodes), summed over the worker cells. Each went straight back to
    /// its arena's free list. The name predates the change: nothing
    /// waits on an epoch any more.
    pub epoch_reclaimed: u64,
    /// Wall-clock time from service start to this snapshot.
    pub wall: Duration,
}

impl ServiceStats {
    /// Attaches a network-tier snapshot (from `widx_net::WidxServer`) to
    /// the service's own counters, completing the full serving picture:
    /// sockets → frames → queues → walkers.
    #[must_use]
    pub fn with_net(mut self, net: NetStats) -> ServiceStats {
        self.net = net;
        self
    }

    /// Total keys probed across point-probe workers.
    #[must_use]
    pub fn total_keys(&self) -> u64 {
        self.workers.iter().map(|w| w.keys).sum()
    }

    /// Total matches across point-probe workers.
    #[must_use]
    pub fn total_matches(&self) -> u64 {
        self.workers.iter().map(|w| w.matches).sum()
    }

    /// Total scan cursors driven across range workers (one per shard a
    /// scan's interval overlapped).
    #[must_use]
    pub fn total_scan_cursors(&self) -> u64 {
        self.range_workers.iter().map(|w| w.keys).sum()
    }

    /// Total entries emitted across range workers (before any gather
    /// truncation at the request's `limit`).
    #[must_use]
    pub fn total_scan_entries(&self) -> u64 {
        self.range_workers.iter().map(|w| w.matches).sum()
    }

    /// Total mutation operations applied across both tiers.
    #[must_use]
    pub fn total_write_ops(&self) -> u64 {
        self.workers
            .iter()
            .chain(self.range_workers.iter())
            .map(|w| w.write_ops)
            .sum()
    }

    /// Total mutation operations that took effect across both tiers.
    #[must_use]
    pub fn total_write_applied(&self) -> u64 {
        self.workers
            .iter()
            .chain(self.range_workers.iter())
            .map(|w| w.write_applied)
            .sum()
    }

    /// Total write barriers executed across both tiers.
    #[must_use]
    pub fn total_write_batches(&self) -> u64 {
        self.workers
            .iter()
            .chain(self.range_workers.iter())
            .map(|w| w.write_batches)
            .sum()
    }

    /// Service-level throughput: keys probed per wall-clock second.
    #[must_use]
    pub fn wall_throughput(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall == 0.0 {
            0.0
        } else {
            self.total_keys() as f64 / wall
        }
    }

    /// Service-level scan throughput: entries emitted per wall-clock
    /// second.
    #[must_use]
    pub fn scan_throughput(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall == 0.0 {
            0.0
        } else {
            self.total_scan_entries() as f64 / wall
        }
    }

    /// Writes the snapshot as one JSON object — the `Stats` document.
    /// `wall_ms` and `uptime_ms` carry the same reading.
    pub fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            let wall_ms = self.wall.as_secs_f64() * 1e3;
            w.key("wall_ms").f64(wall_ms, 3);
            w.key("uptime_ms").f64(wall_ms, 3);
            let cpus = std::thread::available_parallelism().map_or(0, usize::from);
            w.key("host_cpus").u64(cpus as u64);
            w.key("version").str(env!("CARGO_PKG_VERSION"));
            w.key("total_keys").u64(self.total_keys());
            w.key("total_matches").u64(self.total_matches());
            w.key("total_scan_cursors").u64(self.total_scan_cursors());
            w.key("total_scan_entries").u64(self.total_scan_entries());
            w.key("total_write_ops").u64(self.total_write_ops());
            w.key("total_write_applied").u64(self.total_write_applied());
            w.key("total_write_batches").u64(self.total_write_batches());
            w.key("epoch_reclaimed").u64(self.epoch_reclaimed);
            w.key("trace").object(|w| self.trace.write_fields(w));
            if let Some(prof) = &self.prof {
                prof.write_json(w.key("prof"));
            }
            w.key("latency").object(|w| self.latency.write_fields(w));
            w.key("stages").object(|w| {
                for (name, summary) in self.stages.named() {
                    w.key(name).object(|w| summary.write_fields(w));
                }
            });
            for (field, tier) in [
                ("workers", &self.workers),
                ("range_workers", &self.range_workers),
            ] {
                w.key(field).array(|w| {
                    for worker in tier {
                        w.object(|w| worker.write_fields(w));
                    }
                });
            }
            w.key("net").object(|w| self.net.write_fields(w));
        });
    }

    /// Renders the snapshot as one JSON document — the payload of the
    /// wire protocol's `Stats` reply, written by the shared
    /// [`Writer`]; `widx_obs::json` can read the numeric fields back.
    #[must_use]
    pub fn to_json(&self) -> String {
        Writer::document(|w| self.write_json(w))
    }
}

/// The `Profile` opcode's document: `{"enabled":true,"prof":{…}}`, or
/// `{"enabled":false}` from a service built without profiling, so a
/// scraper can probe for the capability.
pub(crate) fn profile_document(prof: Option<&ProfSnapshot>) -> String {
    Writer::document(|w| {
        w.object(|w| {
            w.key("enabled").bool(prof.is_some());
            if let Some(prof) = prof {
                prof.write_json(w.key("prof"));
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use widx_obs::{ProfStageSnapshot, WalkCounters};

    #[test]
    fn occupancy_and_rates() {
        let w = WorkerStats {
            shard: 0,
            jobs: 10,
            batches: 4,
            keys: 100,
            matches: 80,
            busy: Duration::from_millis(30),
            idle: Duration::from_millis(10),
            ..WorkerStats::default()
        };
        assert!((w.occupancy() - 0.75).abs() < 1e-9);
        assert!((w.mean_batch() - 25.0).abs() < 1e-9);
        assert!((w.busy_throughput() - 100.0 / 0.03).abs() < 1e-6);
    }

    #[test]
    fn empty_worker_is_all_zeroes() {
        let w = WorkerStats::default();
        assert_eq!(w.occupancy(), 0.0);
        assert_eq!(w.busy_throughput(), 0.0);
        assert_eq!(w.mean_batch(), 0.0);
    }

    #[test]
    fn latency_from_histogram_tracks_exact_fields() {
        let h = widx_obs::AtomicHistogram::new();
        for ns in [100u64, 200, 400, 800] {
            h.record(ns);
        }
        let s = LatencySummary::from_histogram(&h.snapshot());
        assert_eq!(s.count, 4);
        assert_eq!(s.min_ns, 100);
        assert_eq!(s.max_ns, 800);
        assert!((s.mean_ns - 375.0).abs() < 1e-9);
        // Quantiles are bucket-quantized but bounded by the true range.
        assert!(s.p50_ns >= 100 && s.p50_ns <= 800);
        assert!(s.p99_ns >= s.p50_ns && s.p99_ns <= 800);

        let empty = LatencySummary::from_histogram(&widx_obs::HistogramSnapshot::default());
        assert_eq!(empty, LatencySummary::default());
    }

    #[test]
    fn service_totals() {
        let stats = ServiceStats {
            workers: vec![
                WorkerStats {
                    keys: 60,
                    matches: 50,
                    write_ops: 12,
                    write_applied: 9,
                    write_batches: 3,
                    ..WorkerStats::default()
                },
                WorkerStats {
                    keys: 40,
                    matches: 30,
                    write_ops: 8,
                    write_applied: 8,
                    write_batches: 2,
                    ..WorkerStats::default()
                },
            ],
            range_workers: vec![WorkerStats {
                keys: 6,
                matches: 90,
                ..WorkerStats::default()
            }],
            latency: LatencySummary::default(),
            stages: StageStats::default(),
            net: NetStats::default(),
            trace: RecorderStats::default(),
            prof: None,
            epoch_reclaimed: 7,
            wall: Duration::from_secs(2),
        };
        assert_eq!(stats.total_keys(), 100);
        assert_eq!(stats.total_matches(), 80);
        assert_eq!(stats.total_scan_cursors(), 6);
        assert_eq!(stats.total_scan_entries(), 90);
        assert_eq!(stats.total_write_ops(), 20);
        assert_eq!(stats.total_write_applied(), 17);
        assert_eq!(stats.total_write_batches(), 5);
        assert!((stats.wall_throughput() - 50.0).abs() < 1e-9);
        assert!((stats.scan_throughput() - 45.0).abs() < 1e-9);

        let json = stats.to_json();
        assert_eq!(widx_obs::json::find_u64(&json, "total_keys"), Some(100));
        assert_eq!(
            widx_obs::json::find_u64(&json, "total_scan_entries"),
            Some(90)
        );
        assert_eq!(widx_obs::json::find_f64(&json, "wall_ms"), Some(2000.0));
        assert_eq!(widx_obs::json::find_f64(&json, "uptime_ms"), Some(2000.0));
        assert_eq!(widx_obs::json::find_u64(&json, "total_write_ops"), Some(20));
        assert_eq!(
            widx_obs::json::find_u64(&json, "total_write_applied"),
            Some(17)
        );
        assert_eq!(widx_obs::json::find_u64(&json, "epoch_reclaimed"), Some(7));
        assert!(
            widx_obs::json::find_u64(&json, "host_cpus").is_some_and(|n| n >= 1),
            "host_cpus should report at least one CPU"
        );
        assert!(json.contains(&format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))));
        assert!(json.contains(
            "\"workers\":[{\"shard\":0,\"jobs\":0,\"batches\":0,\"keys\":60,\"matches\":50,\
             \"size_flushes\":0,\"deadline_flushes\":0,\"shutdown_flushes\":0,\
             \"write_ops\":12,\"write_applied\":9,\"write_batches\":3,"
        ));
        assert!(json.contains(
            "\"range_workers\":[{\"shard\":0,\"jobs\":0,\"batches\":0,\"keys\":6,\"matches\":90,\
             \"size_flushes\":0,\"deadline_flushes\":0,\"shutdown_flushes\":0,\
             \"write_ops\":0,\"write_applied\":0,\"write_batches\":0,"
        ));
        assert!(json.contains("\"latency\":{\"count\":0,"));
        assert!(json.contains("\"walk\":{\"count\":0,"));
        assert!(json.contains("\"write\":{\"count\":0,"));
        assert!(json.contains("\"trace\":{\"capacity\":0,\"depth\":0,\"recorded\":0,"));
        assert_eq!(widx_obs::json::find_u64(&json, "open_connections"), Some(0));
        assert!(
            json.contains("\"reactors\":[]"),
            "no per-reactor entries without an attached server"
        );
        assert!(
            !json.contains("\"prof\""),
            "no prof block without profiling"
        );
    }

    #[test]
    fn prof_snapshot_renders_in_json() {
        let mut prof = ProfSnapshot::default();
        (prof.backend, prof.hw, prof.workers) = ("linux", true, 2);
        *prof.get_mut(Stage::Walk) = ProfStageSnapshot {
            windows: 4,
            cycles: 10_000,
            instructions: 5_000,
            llc_misses: 100,
            dtlb_misses: 10,
            time_ns: 7_000,
        };
        prof.walk = WalkCounters {
            nodes: 400,
            max_chain: 3,
            rounds: 100,
            occupancy: 380,
            prefetches: 400,
        };
        let stats = ServiceStats {
            workers: vec![],
            range_workers: vec![],
            latency: LatencySummary::default(),
            stages: StageStats::default(),
            net: NetStats::default(),
            trace: RecorderStats::default(),
            prof: Some(prof),
            epoch_reclaimed: 0,
            wall: Duration::from_secs(1),
        };

        let json = stats.to_json();
        assert!(json.contains("\"prof\":{\"backend\":\"linux\",\"hw\":true,"));
        assert!(json.contains("\"workers\":2,"));
        assert!(json.contains(
            "\"walk\":{\"windows\":4,\"cycles\":10000,\"instructions\":5000,\
             \"llc_misses\":100,\"dtlb_misses\":10,\"time_ns\":7000,\"ipc\":0.5000,\
             \"llc_mpki\":20.0000,\"dtlb_mpki\":2.0000,\"stall_fraction\":1.0000,\
             \"effective_mlp\":2.0000}"
        ));
        assert!(json.contains("\"prefetches\":400,\"soft_mlp\":3.8000}"));

        // A soft-backend profile carries the counters (all zero) and
        // nulls every derived ratio: their denominators never ticked.
        let mut soft_prof = ProfSnapshot::default();
        (soft_prof.backend, soft_prof.workers) = ("soft", 1);
        let soft = ServiceStats {
            prof: Some(soft_prof),
            ..stats
        };
        let json = soft.to_json();
        assert!(json.contains("\"prof\":{\"backend\":\"soft\",\"hw\":false,"));
        assert!(json.contains(
            "\"walk\":{\"windows\":0,\"cycles\":0,\"instructions\":0,\"llc_misses\":0,\
             \"dtlb_misses\":0,\"time_ns\":0,\"ipc\":null,\"llc_mpki\":null,\
             \"dtlb_mpki\":null,\"stall_fraction\":null,\"effective_mlp\":null}"
        ));
        assert_eq!(
            json.matches("\"ipc\":").count(),
            json.matches("\"ipc\":null").count(),
            "no IPC without cycles"
        );
        assert!(json.contains("\"soft_mlp\":null"), "no MLP without rounds");
    }

    #[test]
    fn per_reactor_gauges_render_in_json() {
        let stats = ServiceStats {
            workers: vec![],
            range_workers: vec![],
            latency: LatencySummary::default(),
            stages: StageStats::default(),
            net: NetStats {
                connections: 3,
                open_connections: 3,
                write_backlog_bytes: 700,
                reactors: vec![
                    ReactorStats {
                        open_connections: 2,
                        write_backlog_bytes: 512,
                    },
                    ReactorStats {
                        open_connections: 1,
                        write_backlog_bytes: 188,
                    },
                ],
                ..NetStats::default()
            },
            trace: RecorderStats::default(),
            prof: None,
            epoch_reclaimed: 0,
            wall: Duration::from_secs(1),
        };
        let json = stats.to_json();
        // The *total* stays the first "open_connections" occurrence, so
        // existing scrapers keep reading it.
        assert_eq!(widx_obs::json::find_u64(&json, "open_connections"), Some(3));
        assert!(json.contains("\"reactors\":[{\"reactor\":0,\"open\":2,\"backlog_bytes\":512}"));
        assert!(json.contains("{\"reactor\":1,\"open\":1,\"backlog_bytes\":188}"));

        assert!(!stats.net.is_empty());
        let idle = NetStats {
            reactors: vec![ReactorStats::default(); 4],
            ..NetStats::default()
        };
        assert!(idle.is_empty(), "zeroed reactors still count as no traffic");
    }

    // ---- Golden documents -------------------------------------------
    //
    // One fixed fixture rendered at the parent of the observability
    // fold (commit 0af7e90) and checked in verbatim. The documents must
    // stay key-for-key and value-for-value those, modulo whitespace
    // outside strings and the `net_read` stage added by the fold.

    const GOLDEN_STATS: &str = r#"{"wall_ms": 2500.000, "uptime_ms": 2500.000, "host_cpus": 2, "version": "0.1.0", "total_keys": 1600, "total_matches": 1212, "total_scan_cursors": 18, "total_scan_entries": 2304, "total_write_ops": 128, "total_write_applied": 118, "total_write_batches": 28, "epoch_reclaimed": 29, "trace": {"capacity": 256, "depth": 1, "recorded": 17, "dropped": 2, "slow": 1}, "prof": {"backend":"soft","hw":false,"fallback":"perf_event_open: \"denied\" (EACCES)","workers":3,"miss_latency_cycles":200,"stages":{"queue_wait":{"windows":0,"cycles":0,"instructions":0,"llc_misses":0,"dtlb_misses":0,"time_ns":0,"ipc":null,"llc_mpki":null,"dtlb_mpki":null,"stall_fraction":null,"effective_mlp":null},"batch_wait":{"windows":0,"cycles":0,"instructions":0,"llc_misses":0,"dtlb_misses":0,"time_ns":0,"ipc":null,"llc_mpki":null,"dtlb_mpki":null,"stall_fraction":null,"effective_mlp":null},"walk":{"windows":61,"cycles":0,"instructions":0,"llc_misses":0,"dtlb_misses":0,"time_ns":5400000,"ipc":null,"llc_mpki":null,"dtlb_mpki":null,"stall_fraction":null,"effective_mlp":null},"write":{"windows":28,"cycles":0,"instructions":0,"llc_misses":0,"dtlb_misses":0,"time_ns":800000,"ipc":null,"llc_mpki":null,"dtlb_mpki":null,"stall_fraction":null,"effective_mlp":null},"gather":{"windows":0,"cycles":0,"instructions":0,"llc_misses":0,"dtlb_misses":0,"time_ns":0,"ipc":null,"llc_mpki":null,"dtlb_mpki":null,"stall_fraction":null,"effective_mlp":null},"reply_write":{"windows":0,"cycles":0,"instructions":0,"llc_misses":0,"dtlb_misses":0,"time_ns":0,"ipc":null,"llc_mpki":null,"dtlb_mpki":null,"stall_fraction":null,"effective_mlp":null}},"total":{"windows":89,"cycles":0,"instructions":0,"llc_misses":0,"dtlb_misses":0,"time_ns":6200000,"ipc":null,"llc_mpki":null,"dtlb_mpki":null,"stall_fraction":null,"effective_mlp":null},"walk":{"nodes":4000,"max_chain":5,"rounds":1000,"occupancy":3800,"prefetches":3900,"soft_mlp":3.8000}}, "latency": {"count": 212, "mean_ns": 15321.2, "p50_ns": 8191, "p95_ns": 65535, "p99_ns": 131071, "p999_ns": 262143, "min_ns": 950, "max_ns": 240000}, "stages": { "queue_wait": {"count": 3, "mean_ns": 233.3, "p50_ns": 255, "p95_ns": 400, "p99_ns": 400, "p999_ns": 400, "min_ns": 100, "max_ns": 400}, "batch_wait": {"count": 1, "mean_ns": 50.0, "p50_ns": 50, "p95_ns": 50, "p99_ns": 50, "p999_ns": 50, "min_ns": 50, "max_ns": 50}, "walk": {"count": 2, "mean_ns": 10000.0, "p50_ns": 11000, "p95_ns": 11000, "p99_ns": 11000, "p999_ns": 11000, "min_ns": 9000, "max_ns": 11000}, "write": {"count": 1, "mean_ns": 700.0, "p50_ns": 700, "p95_ns": 700, "p99_ns": 700, "p999_ns": 700, "min_ns": 700, "max_ns": 700}, "gather": {"count": 1, "mean_ns": 1234.0, "p50_ns": 1234, "p95_ns": 1234, "p99_ns": 1234, "p999_ns": 1234, "min_ns": 1234, "max_ns": 1234}, "reply_write": {"count": 1, "mean_ns": 14000.0, "p50_ns": 14000, "p95_ns": 14000, "p99_ns": 14000, "p999_ns": 14000, "min_ns": 14000, "max_ns": 14000}}, "workers": [ {"shard": 0, "jobs": 120, "batches": 30, "keys": 960, "matches": 700, "size_flushes": 20, "deadline_flushes": 9, "shutdown_flushes": 1, "write_ops": 40, "write_applied": 35, "write_batches": 8, "busy_ns": 3000000, "idle_ns": 1000000, "occupancy": 0.7500}, {"shard": 1, "jobs": 80, "batches": 25, "keys": 640, "matches": 512, "size_flushes": 15, "deadline_flushes": 10, "shutdown_flushes": 0, "write_ops": 24, "write_applied": 24, "write_batches": 6, "busy_ns": 2500000, "idle_ns": 7500000, "occupancy": 0.2500}], "range_workers": [ {"shard": 0, "jobs": 12, "batches": 6, "keys": 18, "matches": 2304, "size_flushes": 0, "deadline_flushes": 6, "shutdown_flushes": 0, "write_ops": 64, "write_applied": 59, "write_batches": 14, "busy_ns": 900000, "idle_ns": 100000, "occupancy": 0.9000}], "net": {"connections": 5, "frames_in": 230, "frames_out": 229, "busy_rejects": 3, "decode_errors": 1, "open_connections": 3, "write_backlog_bytes": 700, "reactors": [ {"reactor": 0, "open": 2, "backlog_bytes": 512}, {"reactor": 1, "open": 1, "backlog_bytes": 188}]}}"#;
    const GOLDEN_TRACE: &str = r#"{"capacity":4,"depth":2,"recorded":2,"dropped":0,"slow":1,"traces":[{"id":42,"kind":"range_scan","total_ns":181000,"slow":true,"reactor":1,"shards":[0,2],"spans":[{"stage":"queue_wait","start_ns":1000,"dur_ns":4000},{"stage":"walk","start_ns":5000,"dur_ns":150000}],"walk":{"nodes":37,"max_chain":3,"rounds":12,"occupancy":40,"prefetches":36}},{"id":7,"kind":"lookup","total_ns":9500,"slow":false,"reactor":null,"shards":[],"spans":[],"walk":{"nodes":0,"max_chain":0,"rounds":0,"occupancy":0,"prefetches":0}}]}"#;
    const GOLDEN_PROFILE_SOFT: &str = r#"{"enabled": true, "prof": {"backend":"soft","hw":false,"fallback":"perf_event_open: \"denied\" (EACCES)","workers":3,"miss_latency_cycles":200,"stages":{"queue_wait":{"windows":0,"cycles":0,"instructions":0,"llc_misses":0,"dtlb_misses":0,"time_ns":0,"ipc":null,"llc_mpki":null,"dtlb_mpki":null,"stall_fraction":null,"effective_mlp":null},"batch_wait":{"windows":0,"cycles":0,"instructions":0,"llc_misses":0,"dtlb_misses":0,"time_ns":0,"ipc":null,"llc_mpki":null,"dtlb_mpki":null,"stall_fraction":null,"effective_mlp":null},"walk":{"windows":61,"cycles":0,"instructions":0,"llc_misses":0,"dtlb_misses":0,"time_ns":5400000,"ipc":null,"llc_mpki":null,"dtlb_mpki":null,"stall_fraction":null,"effective_mlp":null},"write":{"windows":28,"cycles":0,"instructions":0,"llc_misses":0,"dtlb_misses":0,"time_ns":800000,"ipc":null,"llc_mpki":null,"dtlb_mpki":null,"stall_fraction":null,"effective_mlp":null},"gather":{"windows":0,"cycles":0,"instructions":0,"llc_misses":0,"dtlb_misses":0,"time_ns":0,"ipc":null,"llc_mpki":null,"dtlb_mpki":null,"stall_fraction":null,"effective_mlp":null},"reply_write":{"windows":0,"cycles":0,"instructions":0,"llc_misses":0,"dtlb_misses":0,"time_ns":0,"ipc":null,"llc_mpki":null,"dtlb_mpki":null,"stall_fraction":null,"effective_mlp":null}},"total":{"windows":89,"cycles":0,"instructions":0,"llc_misses":0,"dtlb_misses":0,"time_ns":6200000,"ipc":null,"llc_mpki":null,"dtlb_mpki":null,"stall_fraction":null,"effective_mlp":null},"walk":{"nodes":4000,"max_chain":5,"rounds":1000,"occupancy":3800,"prefetches":3900,"soft_mlp":3.8000}}}"#;
    const GOLDEN_PROFILE_HW: &str = r#"{"enabled": true, "prof": {"backend":"linux","hw":true,"fallback":null,"workers":2,"miss_latency_cycles":200,"stages":{"queue_wait":{"windows":0,"cycles":0,"instructions":0,"llc_misses":0,"dtlb_misses":0,"time_ns":0,"ipc":null,"llc_mpki":null,"dtlb_mpki":null,"stall_fraction":null,"effective_mlp":null},"batch_wait":{"windows":3,"cycles":900,"instructions":1234,"llc_misses":1,"dtlb_misses":0,"time_ns":450,"ipc":1.3711,"llc_mpki":0.8104,"dtlb_mpki":0.0000,"stall_fraction":0.2222,"effective_mlp":0.2222},"walk":{"windows":4,"cycles":10000,"instructions":5000,"llc_misses":100,"dtlb_misses":10,"time_ns":7000,"ipc":0.5000,"llc_mpki":20.0000,"dtlb_mpki":2.0000,"stall_fraction":1.0000,"effective_mlp":2.0000},"write":{"windows":0,"cycles":0,"instructions":0,"llc_misses":0,"dtlb_misses":0,"time_ns":0,"ipc":null,"llc_mpki":null,"dtlb_mpki":null,"stall_fraction":null,"effective_mlp":null},"gather":{"windows":0,"cycles":0,"instructions":0,"llc_misses":0,"dtlb_misses":0,"time_ns":0,"ipc":null,"llc_mpki":null,"dtlb_mpki":null,"stall_fraction":null,"effective_mlp":null},"reply_write":{"windows":0,"cycles":0,"instructions":0,"llc_misses":0,"dtlb_misses":0,"time_ns":0,"ipc":null,"llc_mpki":null,"dtlb_mpki":null,"stall_fraction":null,"effective_mlp":null}},"total":{"windows":7,"cycles":10900,"instructions":6234,"llc_misses":101,"dtlb_misses":10,"time_ns":7450,"ipc":0.5719,"llc_mpki":16.2015,"dtlb_mpki":1.6041,"stall_fraction":1.0000,"effective_mlp":1.8532},"walk":{"nodes":400,"max_chain":3,"rounds":100,"occupancy":380,"prefetches":400,"soft_mlp":3.8000}}}"#;
    /// Drops whitespace outside string literals.
    fn compact(doc: &str) -> String {
        let (mut out, mut in_string, mut escaped) = (String::new(), false, false);
        for c in doc.chars() {
            if in_string || !c.is_whitespace() {
                out.push(c);
            }
            match c {
                _ if escaped => escaped = false,
                '\\' if in_string => escaped = true,
                '"' => in_string = !in_string,
                _ => {}
            }
        }
        out
    }

    /// Drops every flat `"net_read":{…},` member.
    fn without_net_read(doc: &str) -> String {
        let mut out = doc.to_string();
        while let Some(at) = out.find("\"net_read\":{") {
            let end = at + out[at..].find("},").expect("net_read is never last") + 2;
            out.replace_range(at..end, "");
        }
        out
    }

    fn soft_prof() -> ProfSnapshot {
        let mut prof = ProfSnapshot::default();
        (prof.backend, prof.workers) = ("soft", 3);
        prof.fallback = Some("perf_event_open: \"denied\" (EACCES)".to_string());
        *prof.get_mut(Stage::Walk) = ProfStageSnapshot {
            windows: 61,
            time_ns: 5_400_000,
            ..ProfStageSnapshot::default()
        };
        *prof.get_mut(Stage::Write) = ProfStageSnapshot {
            windows: 28,
            time_ns: 800_000,
            ..ProfStageSnapshot::default()
        };
        prof.walk = WalkCounters {
            nodes: 4000,
            max_chain: 5,
            rounds: 1000,
            occupancy: 3800,
            prefetches: 3900,
        };
        prof
    }

    fn hw_prof() -> ProfSnapshot {
        let mut prof = ProfSnapshot::default();
        (prof.backend, prof.hw, prof.workers) = ("linux", true, 2);
        *prof.get_mut(Stage::Walk) = ProfStageSnapshot {
            windows: 4,
            cycles: 10_000,
            instructions: 5_000,
            llc_misses: 100,
            dtlb_misses: 10,
            time_ns: 7_000,
        };
        *prof.get_mut(Stage::BatchWait) = ProfStageSnapshot {
            windows: 3,
            cycles: 900,
            instructions: 1_234,
            llc_misses: 1,
            dtlb_misses: 0,
            time_ns: 450,
        };
        prof.walk = WalkCounters {
            nodes: 400,
            max_chain: 3,
            rounds: 100,
            occupancy: 380,
            prefetches: 400,
        };
        prof
    }

    fn worker(shard: usize, c: [u64; 10], busy_ns: u64, idle_ns: u64) -> WorkerStats {
        let [jobs, batches, keys, matches, size, dry, shutdown, ops, applied, barriers] = c;
        WorkerStats {
            shard,
            jobs,
            batches,
            keys,
            matches,
            size_flushes: size,
            deadline_flushes: dry,
            shutdown_flushes: shutdown,
            write_ops: ops,
            write_applied: applied,
            write_batches: barriers,
            busy: Duration::from_nanos(busy_ns),
            idle: Duration::from_nanos(idle_ns),
        }
    }

    /// Two hash workers, one range worker, two reactors, a soft-backend
    /// profile, every stage but `net_read` populated.
    fn fixture() -> ServiceStats {
        let times = widx_obs::StageTimes::new();
        for (stage, samples) in [
            (Stage::QueueWait, &[100u64, 200, 400][..]),
            (Stage::BatchWait, &[50]),
            (Stage::Walk, &[9_000, 11_000]),
            (Stage::Write, &[700]),
            (Stage::Gather, &[1_234]),
            (Stage::ReplyWrite, &[14_000]),
        ] {
            for ns in samples {
                times.record(stage, Duration::from_nanos(*ns));
            }
        }
        ServiceStats {
            workers: vec![
                worker(
                    0,
                    [120, 30, 960, 700, 20, 9, 1, 40, 35, 8],
                    3_000_000,
                    1_000_000,
                ),
                worker(
                    1,
                    [80, 25, 640, 512, 15, 10, 0, 24, 24, 6],
                    2_500_000,
                    7_500_000,
                ),
            ],
            range_workers: vec![worker(
                0,
                [12, 6, 18, 2304, 0, 6, 0, 64, 59, 14],
                900_000,
                100_000,
            )],
            latency: LatencySummary {
                count: 212,
                mean_ns: 15321.25,
                p50_ns: 8191,
                p95_ns: 65535,
                p99_ns: 131_071,
                p999_ns: 262_143,
                min_ns: 950,
                max_ns: 240_000,
            },
            stages: StageStats::from_snapshot(&times.snapshot()),
            net: NetStats {
                connections: 5,
                frames_in: 230,
                frames_out: 229,
                busy_rejects: 3,
                decode_errors: 1,
                open_connections: 3,
                write_backlog_bytes: 700,
                reactors: vec![
                    ReactorStats {
                        open_connections: 2,
                        write_backlog_bytes: 512,
                    },
                    ReactorStats {
                        open_connections: 1,
                        write_backlog_bytes: 188,
                    },
                ],
            },
            trace: RecorderStats {
                capacity: 256,
                depth: 1,
                recorded: 17,
                dropped: 2,
                slow: 1,
            },
            prof: Some(soft_prof()),
            epoch_reclaimed: 29,
            wall: Duration::from_millis(2500),
        }
    }

    #[test]
    fn stats_document_matches_the_parent_golden() {
        let cpus = std::thread::available_parallelism().map_or(0, usize::from);
        let golden = GOLDEN_STATS.replace("\"host_cpus\": 2", &format!("\"host_cpus\": {cpus}"));
        let doc = fixture().to_json();
        assert_eq!(doc, compact(&doc), "one compact style throughout");
        assert!(doc.contains("\"stages\":{\"net_read\":{\"count\":0,"));
        assert_eq!(without_net_read(&doc), compact(&golden));
    }

    #[test]
    fn trace_document_matches_the_parent_golden() {
        let recorder = widx_obs::FlightRecorder::new(4);
        let mut trace = widx_obs::RequestTrace {
            id: 7,
            kind: "lookup",
            total_ns: 9_500,
            slow: false,
            reactor: None,
            shards: vec![],
            spans: vec![],
            walk: WalkCounters::default(),
        };
        recorder.record(trace.clone());
        trace.id = 42;
        trace.kind = "range_scan";
        (trace.total_ns, trace.slow, trace.reactor) = (181_000, true, Some(1));
        trace.shards = vec![0, 2];
        trace.spans = [
            (Stage::QueueWait, 1_000, 4_000),
            (Stage::Walk, 5_000, 150_000),
        ]
        .map(|(stage, start_ns, dur_ns)| widx_obs::Span {
            stage,
            start_ns,
            dur_ns,
        })
        .to_vec();
        trace.walk = WalkCounters {
            nodes: 37,
            max_chain: 3,
            rounds: 12,
            occupancy: 40,
            prefetches: 36,
        };
        recorder.record(trace);
        assert_eq!(recorder.to_json(), GOLDEN_TRACE);
    }

    #[test]
    fn profile_documents_match_the_parent_goldens() {
        for (prof, golden) in [
            (soft_prof(), GOLDEN_PROFILE_SOFT),
            (hw_prof(), GOLDEN_PROFILE_HW),
        ] {
            let doc = profile_document(Some(&prof));
            assert_eq!(doc, compact(&doc), "one compact style throughout");
            assert_eq!(without_net_read(&doc), compact(golden));
        }
        assert_eq!(profile_document(None), "{\"enabled\":false}");
    }
}
