//! Serving telemetry: per-worker throughput/occupancy and service-wide
//! request latency, shaped for the `widx-bench` table machinery.
//!
//! Since the live-telemetry refactor the numbers here are *views*: workers
//! publish into lock-free `widx_obs` registry cells as they run, and both
//! [`ProbeService::live_stats`](crate::ProbeService::live_stats) and the
//! shutdown join materialize a [`ServiceStats`] from the same snapshot
//! path, so the post-mortem report is just the last scrape.

use std::time::Duration;

use widx_obs::json::Writer;
use widx_obs::metric::{expose, write_fields, Kind::*, Labels, Metric, Value::*};
use widx_obs::{
    HistogramSnapshot, ProfSnapshot, ProfStageSnapshot, PromText, RecorderStats, Stage,
    StageSnapshot, WalkCounters, WorkerCellSnapshot,
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
    /// One worker's counters, declared once for the JSON and Prometheus
    /// views (series are labelled `tier` / `shard`; `shard` itself is
    /// only a JSON member).
    #[rustfmt::skip] // a table: one metric per row
    pub const METRICS: &'static [Metric<WorkerStats>] = &[
        Metric::json_only("shard", |w| U64(w.shard as u64)),
        Metric::new(Counter, "jobs", "widx_worker_jobs_total", |w| U64(w.jobs),
            "Probe jobs (request shard-parts) processed per worker."),
        Metric::new(Counter, "batches", "widx_worker_batches_total", |w| U64(w.batches),
            "Batches flushed per worker."),
        Metric::new(Counter, "keys", "widx_worker_keys_total", |w| U64(w.keys),
            "Keys probed / scan cursors fed per worker."),
        Metric::new(Counter, "matches", "widx_worker_matches_total", |w| U64(w.matches),
            "Matches / scan entries emitted per worker."),
        Metric::new(Counter, "size_flushes", "widx_worker_size_flushes_total", |w| U64(w.size_flushes),
            "Batches closed at the size target per worker."),
        Metric::new(Counter, "deadline_flushes", "widx_worker_deadline_flushes_total", |w| U64(w.deadline_flushes),
            "Batches closed short of the size target on a dry queue per worker."),
        Metric::new(Counter, "shutdown_flushes", "widx_worker_shutdown_flushes_total", |w| U64(w.shutdown_flushes),
            "Final partial batches flushed at shutdown per worker."),
        Metric::new(Counter, "write_ops", "widx_write_ops_total", |w| U64(w.write_ops),
            "Mutation operations applied per worker."),
        Metric::new(Counter, "write_applied", "widx_write_applied_total", |w| U64(w.write_applied),
            "Mutation operations that took effect per worker."),
        Metric::new(Counter, "write_batches", "widx_write_batches_total", |w| U64(w.write_batches),
            "Write barriers executed per worker."),
        Metric::new(Counter, "busy_ns", "widx_worker_busy_ns_total", |w| U64(w.busy.as_nanos() as u64),
            "Nanoseconds spent walking per worker."),
        Metric::new(Counter, "idle_ns", "widx_worker_idle_ns_total", |w| U64(w.idle.as_nanos() as u64),
            "Nanoseconds spent waiting for work per worker."),
        Metric::new(Gauge, "occupancy", "widx_worker_occupancy", |w| F64(Some(w.occupancy()), 4),
            "Fraction of worker lifetime spent walking."),
    ];

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

    /// The samples of one Prometheus `summary` series: the chosen
    /// quantiles, then `_sum` and `_count`.
    fn expose(&self, p: &mut PromText, family: &str, labels: &[(&str, &str)], tail: bool) {
        let quantiles = [
            ("0.5", self.p50_ns, true),
            ("0.95", self.p95_ns, tail),
            ("0.99", self.p99_ns, true),
            ("0.999", self.p999_ns, tail),
        ];
        for (q, ns, _) in quantiles.into_iter().filter(|(_, _, on)| *on) {
            let labels = [labels, &[("quantile", q)]].concat();
            p.sample_u64(family, &labels, ns);
        }
        let sum = self.mean_ns * self.count as f64;
        p.sample(&format!("{family}_sum"), labels, sum);
        p.sample_u64(&format!("{family}_count"), labels, self.count as u64);
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

impl ReactorStats {
    /// One reactor's gauges, declared once for the JSON and Prometheus
    /// views (series are labelled `reactor`).
    #[rustfmt::skip] // a table: one metric per row
    pub const METRICS: &'static [Metric<ReactorStats>] = &[
        Metric::new(Gauge, "open", "widx_net_reactor_open_connections", |r| U64(r.open_connections),
            "Connections pinned to each reactor."),
        Metric::new(Gauge, "backlog_bytes", "widx_net_reactor_write_backlog_bytes", |r| U64(r.write_backlog_bytes),
            "Bytes buffered for write per reactor."),
    ];
}

impl NetStats {
    /// The network tier's totals, declared once for the JSON and
    /// Prometheus views.
    #[rustfmt::skip] // a table: one metric per row
    pub const METRICS: &'static [Metric<NetStats>] = &[
        Metric::new(Counter, "connections", "widx_net_connections_total", |n| U64(n.connections),
            "Connections accepted."),
        Metric::new(Counter, "frames_in", "widx_net_frames_in_total", |n| U64(n.frames_in),
            "Request frames decoded."),
        Metric::new(Counter, "frames_out", "widx_net_frames_out_total", |n| U64(n.frames_out),
            "Reply frames written."),
        Metric::new(Counter, "busy_rejects", "widx_net_busy_rejects_total", |n| U64(n.busy_rejects),
            "Requests refused Busy."),
        Metric::new(Counter, "decode_errors", "widx_net_decode_errors_total", |n| U64(n.decode_errors),
            "Frames that failed to decode."),
        Metric::new(Gauge, "open_connections", "widx_net_open_connections", |n| U64(n.open_connections),
            "Connections currently open."),
        Metric::new(Gauge, "write_backlog_bytes", "widx_net_write_backlog_bytes", |n| U64(n.write_backlog_bytes),
            "Bytes buffered for write across open connections."),
    ];

    /// Write the totals and the per-reactor breakdown as members of the
    /// currently open JSON object.
    pub fn write_fields(&self, w: &mut Writer) {
        write_fields(w, NetStats::METRICS, self);
        w.key("reactors").array(|w| {
            for (i, reactor) in self.reactors.iter().enumerate() {
                w.object(|w| {
                    w.key("reactor").u64(i as u64);
                    write_fields(w, ReactorStats::METRICS, reactor);
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

/// A series that carries no labels.
fn unlabelled<T>(snapshot: &T) -> [(Labels, &T); 1] {
    [(Vec::new(), snapshot)]
}

impl ServiceStats {
    /// The service-level scalars, declared once for the JSON and
    /// Prometheus views. Uptime is milliseconds in the document and
    /// seconds in the exposition, hence two rows.
    #[rustfmt::skip] // a table: one metric per row
    pub const METRICS: &'static [Metric<ServiceStats>] = &[
        Metric::json_only("wall_ms", |s| F64(Some(s.wall.as_secs_f64() * 1e3), 3)),
        Metric::json_only("uptime_ms", |s| F64(Some(s.wall.as_secs_f64() * 1e3), 3)),
        Metric::new(Gauge, "", "widx_wall_seconds", |s| F64(Some(s.wall.as_secs_f64()), 3),
            "Service uptime at snapshot time."),
        Metric::json_only("host_cpus", |_| U64(std::thread::available_parallelism().map_or(0, usize::from) as u64)),
        Metric::json_only("version", |_| Str(env!("CARGO_PKG_VERSION"))),
        Metric::json_only("total_keys", |s| U64(s.total_keys())),
        Metric::json_only("total_matches", |s| U64(s.total_matches())),
        Metric::json_only("total_scan_cursors", |s| U64(s.total_scan_cursors())),
        Metric::json_only("total_scan_entries", |s| U64(s.total_scan_entries())),
        Metric::json_only("total_write_ops", |s| U64(s.total_write_ops())),
        Metric::json_only("total_write_applied", |s| U64(s.total_write_applied())),
        Metric::json_only("total_write_batches", |s| U64(s.total_write_batches())),
        Metric::new(Gauge, "epoch_reclaimed", "widx_epoch_reclaimed", |s| U64(s.epoch_reclaimed),
            "Index node slots freed by mutations."),
    ];

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
    pub fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            write_fields(w, ServiceStats::METRICS, self);
            w.key("trace")
                .object(|w| write_fields(w, RecorderStats::METRICS, &self.trace));
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
                        w.object(|w| write_fields(w, WorkerStats::METRICS, worker));
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

    /// Renders the snapshot in Prometheus text-exposition format (0.0.4),
    /// suitable for a scrape endpoint or `curl`-style inspection. Every
    /// counter and gauge comes from the same metric tables `to_json`
    /// walks; only the two latency summaries are laid out here.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut p = PromText::new();
        expose(&mut p, ServiceStats::METRICS, &unlabelled(self));
        let workers: Vec<(Labels, &WorkerStats)> =
            [("point", &self.workers), ("range", &self.range_workers)]
                .into_iter()
                .flat_map(|(tier, workers)| {
                    workers.iter().map(move |w| {
                        let labels =
                            vec![("tier", tier.to_string()), ("shard", w.shard.to_string())];
                        (labels, w)
                    })
                })
                .collect();
        expose(&mut p, WorkerStats::METRICS, &workers);
        let help = "End-to-end request completion latency.";
        p.family("widx_request_latency_ns", "summary", help);
        self.latency
            .expose(&mut p, "widx_request_latency_ns", &[], true);
        p.family("widx_stage_ns", "summary", "Per-stage latency breakdown.");
        for (name, summary) in self.stages.named() {
            summary.expose(&mut p, "widx_stage_ns", &[("stage", name)], false);
        }
        expose(&mut p, NetStats::METRICS, &unlabelled(&self.net));
        let reactors: Vec<(Labels, &ReactorStats)> = (self.net.reactors.iter().enumerate())
            .map(|(i, r)| (vec![("reactor", i.to_string())], r))
            .collect();
        expose(&mut p, ReactorStats::METRICS, &reactors);
        expose(&mut p, RecorderStats::METRICS, &unlabelled(&self.trace));
        if let Some(prof) = &self.prof {
            expose(&mut p, ProfSnapshot::METRICS, &unlabelled(prof));
            let stages = Stage::ALL.map(|s| (vec![("stage", s.name().to_string())], prof.get(s)));
            expose(&mut p, ProfStageSnapshot::METRICS, &stages);
            expose(&mut p, WalkCounters::METRICS, &unlabelled(&prof.walk));
        }
        p.finish()
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
        assert!(json.contains("\"trace\":{\"capacity\":0,\"depth\":0,"));

        assert!(
            !json.contains("\"prof\""),
            "no prof block without profiling"
        );

        let prom = stats.render_prometheus();
        assert!(prom.contains("widx_worker_keys_total{tier=\"point\",shard=\"0\"} 60"));
        assert!(prom.contains("widx_worker_matches_total{tier=\"range\",shard=\"0\"} 90"));
        assert!(prom.contains("widx_write_ops_total{tier=\"point\",shard=\"0\"} 12"));
        assert!(prom.contains("widx_write_applied_total{tier=\"point\",shard=\"0\"} 9"));
        assert!(prom.contains("widx_write_batches_total{tier=\"range\",shard=\"0\"} 0"));
        assert!(prom.contains("widx_epoch_reclaimed 7"));
        assert!(prom.contains("widx_stage_ns_count{stage=\"write\"} 0"));
        assert!(prom.contains("# TYPE widx_request_latency_ns summary"));
        assert!(prom.contains("widx_stage_ns_count{stage=\"walk\"} 0"));
        assert!(prom.contains("widx_net_open_connections 0"));
        assert!(prom.contains("# TYPE widx_trace_depth gauge"));
        assert!(prom.contains("widx_trace_recorded_total 0"));
        assert!(
            widx_obs::lint_exposition(&prom).is_empty(),
            "exposition must pass the Prometheus lint"
        );
        assert!(
            !prom.contains("widx_net_reactor_open_connections"),
            "no per-reactor series without an attached server"
        );
        assert!(
            !prom.contains("widx_prof_"),
            "no prof series without profiling"
        );
    }

    #[test]
    fn prof_snapshot_renders_in_json_and_prometheus() {
        let mut prof = ProfSnapshot::default();
        (prof.backend, prof.hw, prof.workers) = ("linux", true, 2);
        *prof.get_mut(Stage::Walk) = widx_obs::ProfStageSnapshot {
            windows: 4,
            cycles: 10_000,
            instructions: 5_000,
            llc_misses: 100,
            dtlb_misses: 10,
            time_ns: 7_000,
        };
        prof.walk = widx_obs::WalkCounters {
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
        assert!(json.contains("\"soft_mlp\":3.8000"));

        let prom = stats.render_prometheus();
        assert!(prom.contains("widx_prof_workers 2"));
        assert!(prom.contains("widx_prof_hw 1"));
        assert!(prom.contains("widx_prof_cycles_total{stage=\"walk\"} 10000"));
        assert!(prom.contains("widx_prof_ipc{stage=\"walk\"} 0.5"));
        assert!(prom.contains("widx_prof_effective_mlp{stage=\"walk\"} 2"));
        assert!(prom.contains("widx_prof_stall_fraction{stage=\"walk\"} 1"));
        assert!(prom.contains("widx_prof_walk_prefetches_total 400"));
        assert!(prom.contains("widx_prof_soft_mlp 3.8"));
        assert!(
            widx_obs::lint_exposition(&prom).is_empty(),
            "prof series must pass the Prometheus lint"
        );

        // A soft-backend profile emits the counter series (all zero)
        // but none of the derived gauges — their denominators never
        // ticked — and still lints clean.
        let mut soft_prof = ProfSnapshot::default();
        (soft_prof.backend, soft_prof.workers) = ("soft", 1);
        let soft = ServiceStats {
            prof: Some(soft_prof),
            ..stats
        };
        let prom = soft.render_prometheus();
        assert!(prom.contains("widx_prof_hw 0"));
        assert!(prom.contains("widx_prof_cycles_total{stage=\"walk\"} 0"));
        assert!(!prom.contains("widx_prof_ipc"), "no IPC without cycles");
        assert!(
            !prom.contains("widx_prof_soft_mlp"),
            "no MLP without rounds"
        );
        assert!(widx_obs::lint_exposition(&prom).is_empty());
    }

    #[test]
    fn per_reactor_gauges_render_in_json_and_prometheus() {
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

        let prom = stats.render_prometheus();
        assert!(prom.contains("widx_net_open_connections 3"));
        assert!(prom.contains("widx_net_reactor_open_connections{reactor=\"0\"} 2"));
        assert!(prom.contains("widx_net_reactor_write_backlog_bytes{reactor=\"1\"} 188"));

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
    /// The parent's Prometheus samples (comment lines dropped).
    const GOLDEN_PROM_SAMPLES: &[&str] = &[
        r#"widx_wall_seconds 2.5"#,
        r#"widx_worker_keys_total{tier="point",shard="0"} 960"#,
        r#"widx_worker_matches_total{tier="point",shard="0"} 700"#,
        r#"widx_worker_batches_total{tier="point",shard="0"} 30"#,
        r#"widx_worker_occupancy{tier="point",shard="0"} 0.75"#,
        r#"widx_write_ops_total{tier="point",shard="0"} 40"#,
        r#"widx_write_applied_total{tier="point",shard="0"} 35"#,
        r#"widx_write_batches_total{tier="point",shard="0"} 8"#,
        r#"widx_worker_keys_total{tier="point",shard="1"} 640"#,
        r#"widx_worker_matches_total{tier="point",shard="1"} 512"#,
        r#"widx_worker_batches_total{tier="point",shard="1"} 25"#,
        r#"widx_worker_occupancy{tier="point",shard="1"} 0.25"#,
        r#"widx_write_ops_total{tier="point",shard="1"} 24"#,
        r#"widx_write_applied_total{tier="point",shard="1"} 24"#,
        r#"widx_write_batches_total{tier="point",shard="1"} 6"#,
        r#"widx_worker_keys_total{tier="range",shard="0"} 18"#,
        r#"widx_worker_matches_total{tier="range",shard="0"} 2304"#,
        r#"widx_worker_batches_total{tier="range",shard="0"} 6"#,
        r#"widx_worker_occupancy{tier="range",shard="0"} 0.8999999999999999"#,
        r#"widx_write_ops_total{tier="range",shard="0"} 64"#,
        r#"widx_write_applied_total{tier="range",shard="0"} 59"#,
        r#"widx_write_batches_total{tier="range",shard="0"} 14"#,
        r#"widx_epoch_reclaimed 29"#,
        r#"widx_request_latency_ns{quantile="0.5"} 8191"#,
        r#"widx_request_latency_ns{quantile="0.95"} 65535"#,
        r#"widx_request_latency_ns{quantile="0.99"} 131071"#,
        r#"widx_request_latency_ns{quantile="0.999"} 262143"#,
        r#"widx_request_latency_ns_sum 3248105"#,
        r#"widx_request_latency_ns_count 212"#,
        r#"widx_stage_ns{stage="queue_wait",quantile="0.5"} 255"#,
        r#"widx_stage_ns{stage="queue_wait",quantile="0.99"} 400"#,
        r#"widx_stage_ns_sum{stage="queue_wait"} 700"#,
        r#"widx_stage_ns_count{stage="queue_wait"} 3"#,
        r#"widx_stage_ns{stage="batch_wait",quantile="0.5"} 50"#,
        r#"widx_stage_ns{stage="batch_wait",quantile="0.99"} 50"#,
        r#"widx_stage_ns_sum{stage="batch_wait"} 50"#,
        r#"widx_stage_ns_count{stage="batch_wait"} 1"#,
        r#"widx_stage_ns{stage="walk",quantile="0.5"} 11000"#,
        r#"widx_stage_ns{stage="walk",quantile="0.99"} 11000"#,
        r#"widx_stage_ns_sum{stage="walk"} 20000"#,
        r#"widx_stage_ns_count{stage="walk"} 2"#,
        r#"widx_stage_ns{stage="write",quantile="0.5"} 700"#,
        r#"widx_stage_ns{stage="write",quantile="0.99"} 700"#,
        r#"widx_stage_ns_sum{stage="write"} 700"#,
        r#"widx_stage_ns_count{stage="write"} 1"#,
        r#"widx_stage_ns{stage="gather",quantile="0.5"} 1234"#,
        r#"widx_stage_ns{stage="gather",quantile="0.99"} 1234"#,
        r#"widx_stage_ns_sum{stage="gather"} 1234"#,
        r#"widx_stage_ns_count{stage="gather"} 1"#,
        r#"widx_stage_ns{stage="reply_write",quantile="0.5"} 14000"#,
        r#"widx_stage_ns{stage="reply_write",quantile="0.99"} 14000"#,
        r#"widx_stage_ns_sum{stage="reply_write"} 14000"#,
        r#"widx_stage_ns_count{stage="reply_write"} 1"#,
        r#"widx_net_connections_total 5"#,
        r#"widx_net_frames_in_total 230"#,
        r#"widx_net_frames_out_total 229"#,
        r#"widx_net_busy_rejects_total 3"#,
        r#"widx_net_decode_errors_total 1"#,
        r#"widx_net_open_connections 3"#,
        r#"widx_net_write_backlog_bytes 700"#,
        r#"widx_trace_capacity 256"#,
        r#"widx_trace_depth 1"#,
        r#"widx_trace_recorded_total 17"#,
        r#"widx_trace_dropped_total 2"#,
        r#"widx_trace_slow_total 1"#,
        r#"widx_prof_workers 3"#,
        r#"widx_prof_hw 0"#,
        r#"widx_prof_cycles_total{stage="queue_wait"} 0"#,
        r#"widx_prof_instructions_total{stage="queue_wait"} 0"#,
        r#"widx_prof_llc_misses_total{stage="queue_wait"} 0"#,
        r#"widx_prof_dtlb_misses_total{stage="queue_wait"} 0"#,
        r#"widx_prof_windows_total{stage="queue_wait"} 0"#,
        r#"widx_prof_cycles_total{stage="batch_wait"} 0"#,
        r#"widx_prof_instructions_total{stage="batch_wait"} 0"#,
        r#"widx_prof_llc_misses_total{stage="batch_wait"} 0"#,
        r#"widx_prof_dtlb_misses_total{stage="batch_wait"} 0"#,
        r#"widx_prof_windows_total{stage="batch_wait"} 0"#,
        r#"widx_prof_cycles_total{stage="walk"} 0"#,
        r#"widx_prof_instructions_total{stage="walk"} 0"#,
        r#"widx_prof_llc_misses_total{stage="walk"} 0"#,
        r#"widx_prof_dtlb_misses_total{stage="walk"} 0"#,
        r#"widx_prof_windows_total{stage="walk"} 61"#,
        r#"widx_prof_cycles_total{stage="write"} 0"#,
        r#"widx_prof_instructions_total{stage="write"} 0"#,
        r#"widx_prof_llc_misses_total{stage="write"} 0"#,
        r#"widx_prof_dtlb_misses_total{stage="write"} 0"#,
        r#"widx_prof_windows_total{stage="write"} 28"#,
        r#"widx_prof_cycles_total{stage="gather"} 0"#,
        r#"widx_prof_instructions_total{stage="gather"} 0"#,
        r#"widx_prof_llc_misses_total{stage="gather"} 0"#,
        r#"widx_prof_dtlb_misses_total{stage="gather"} 0"#,
        r#"widx_prof_windows_total{stage="gather"} 0"#,
        r#"widx_prof_cycles_total{stage="reply_write"} 0"#,
        r#"widx_prof_instructions_total{stage="reply_write"} 0"#,
        r#"widx_prof_llc_misses_total{stage="reply_write"} 0"#,
        r#"widx_prof_dtlb_misses_total{stage="reply_write"} 0"#,
        r#"widx_prof_windows_total{stage="reply_write"} 0"#,
        r#"widx_prof_walk_nodes_total 4000"#,
        r#"widx_prof_walk_rounds_total 1000"#,
        r#"widx_prof_walk_occupancy_total 3800"#,
        r#"widx_prof_walk_prefetches_total 3900"#,
        r#"widx_prof_soft_mlp 3.8"#,
        r#"widx_net_reactor_open_connections{reactor="0"} 2"#,
        r#"widx_net_reactor_write_backlog_bytes{reactor="0"} 512"#,
        r#"widx_net_reactor_open_connections{reactor="1"} 1"#,
        r#"widx_net_reactor_write_backlog_bytes{reactor="1"} 188"#,
    ];

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

    #[test]
    fn prometheus_samples_are_the_parents_plus_the_six_worker_series() {
        let prom = fixture().render_prometheus();
        assert_eq!(widx_obs::lint_exposition(&prom), Vec::<String>::new());
        // The parent wrote the per-worker and per-stage families
        // interleaved; its own line order fails the contiguity rule.
        let parent_errors = widx_obs::lint_exposition(&GOLDEN_PROM_SAMPLES.join("\n"));
        for family in ["widx_worker_keys_total", "widx_prof_cycles_total"] {
            assert!(parent_errors
                .iter()
                .any(|e| e.contains(family) && e.contains("not contiguous")));
        }
        let got: std::collections::BTreeSet<&str> = prom
            .lines()
            .filter(|l| !l.starts_with('#') && !l.contains("stage=\"net_read\""))
            .collect();
        let mut want: std::collections::BTreeSet<String> =
            GOLDEN_PROM_SAMPLES.iter().map(|l| l.to_string()).collect();
        // The six formerly JSON-only worker fields, one series per tier
        // and shard each.
        let stats = fixture();
        for (tier, workers) in [("point", &stats.workers), ("range", &stats.range_workers)] {
            for w in workers {
                for (family, value) in [
                    ("widx_worker_jobs_total", w.jobs),
                    ("widx_worker_size_flushes_total", w.size_flushes),
                    ("widx_worker_deadline_flushes_total", w.deadline_flushes),
                    ("widx_worker_shutdown_flushes_total", w.shutdown_flushes),
                    ("widx_worker_busy_ns_total", w.busy.as_nanos() as u64),
                    ("widx_worker_idle_ns_total", w.idle.as_nanos() as u64),
                ] {
                    let shard = w.shard;
                    want.insert(format!(
                        "{family}{{tier=\"{tier}\",shard=\"{shard}\"}} {value}"
                    ));
                }
            }
        }
        let want: std::collections::BTreeSet<&str> = want.iter().map(String::as_str).collect();
        assert_eq!(got, want);
    }

    /// Adding a metric is one row: every row's key must reach the JSON
    /// document and its family the Prometheus exposition.
    #[test]
    fn every_table_row_reaches_both_views() {
        let mut stats = fixture();
        stats.prof = Some(hw_prof());
        let (json, prom) = (stats.to_json(), stats.render_prometheus());
        fn rows<T>(table: &[Metric<T>]) -> Vec<(&'static str, &'static str)> {
            table.iter().map(|m| (m.key, m.family)).collect()
        }
        let all = [
            rows(ServiceStats::METRICS),
            rows(WorkerStats::METRICS),
            rows(NetStats::METRICS),
            rows(ReactorStats::METRICS),
            rows(RecorderStats::METRICS),
            rows(ProfSnapshot::METRICS),
            rows(ProfStageSnapshot::METRICS),
            rows(WalkCounters::METRICS),
        ]
        .concat();
        for (key, family) in all {
            assert!(
                key.is_empty() || json.contains(&format!("\"{key}\":")),
                "row {key} missing from to_json()"
            );
            assert!(
                family.is_empty() || prom.contains(&format!("# TYPE {family} ")),
                "family {family} missing from render_prometheus()"
            );
        }
        assert_eq!(widx_obs::lint_exposition(&prom), Vec::<String>::new());
    }
}
