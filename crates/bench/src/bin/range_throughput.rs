//! Ordered-serving throughput sweep: shard count × in-flight scan
//! cursors × batch size on a Zipfian range-scan stream — the
//! `widx-serve` range tier measured as a front-end.
//!
//! Four client threads pipeline `RangeScan` requests against a service
//! built with `build_with_range`; per-run output reports wall-clock
//! scan and entry throughput, request-latency percentiles, and
//! per-range-worker occupancy/batch shape. With `--json PATH`, the full
//! sweep (including per-worker rows) is written as JSON for trend
//! tracking (`BENCH_range.json` keeps the committed baseline).
//!
//! Usage: `range_throughput [--shards N] [--scans N] [--entries N]
//! [--span N] [--limit N] [--theta T] [--json PATH] [--smoke]`.

use std::time::Instant;

use widx_bench::prof::bench_document;
use widx_bench::table::{f1, f2, pct, Table};
use widx_db::hash::HashRecipe;
use widx_obs::json::Writer;
use widx_serve::{ProbeService, Request, ServeConfig, ServiceStats};
use widx_workloads::datagen;

const SEED: u64 = 0x5CA7;
const CLIENTS: usize = 4;

struct Args {
    shards: Option<usize>,
    scans: usize,
    entries: u64,
    span: u64,
    limit: usize,
    theta: f64,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        shards: None,
        scans: 20_000,
        entries: 1 << 18,
        span: 256,
        limit: 128,
        theta: 0.99,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--shards" => args.shards = Some(value().parse().expect("--shards")),
            "--scans" => args.scans = value().parse().expect("--scans"),
            "--entries" => args.entries = value().parse().expect("--entries"),
            "--span" => args.span = value().parse().expect("--span"),
            "--limit" => args.limit = value().parse().expect("--limit"),
            "--theta" => args.theta = value().parse().expect("--theta"),
            "--json" => args.json = Some(value()),
            // Quick CI tier: small workload, one sweep point per axis.
            "--smoke" => {
                args.scans = 2_000;
                args.entries = 1 << 14;
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// One sweep point's results.
struct Run {
    shards: usize,
    inflight: usize,
    batch_size: usize,
    wall_ms: f64,
    scans_per_sec: f64,
    entries_per_sec: f64,
    stats: ServiceStats,
}

/// Drives `ranges` through a freshly built range-serving tier with
/// `CLIENTS` pipelining client threads.
fn run_once(
    pairs: &[(u64, u64)],
    ranges: &[(u64, u64)],
    shards: usize,
    inflight: usize,
    batch_size: usize,
    limit: usize,
) -> Run {
    let config = ServeConfig::default()
        .with_shards(shards)
        .with_inflight(inflight)
        .with_batch_size(batch_size);
    let service =
        ProbeService::build_with_range(HashRecipe::robust64(), pairs.iter().copied(), &config);

    let started = Instant::now();
    std::thread::scope(|scope| {
        let per_client = ranges.len().div_ceil(CLIENTS);
        for slice in ranges.chunks(per_client.max(1)) {
            let service = &service;
            scope.spawn(move || {
                // Pipeline up to 32 requests per client before reaping.
                let mut window = Vec::with_capacity(32);
                for (lo, hi) in slice {
                    let pending = service
                        .submit(Request::RangeScan {
                            lo: *lo,
                            hi: *hi,
                            limit,
                            desc: false,
                        })
                        .expect("service running");
                    window.push(pending);
                    if window.len() == 32 {
                        for p in window.drain(..) {
                            let _ = p.wait();
                        }
                    }
                }
                for p in window {
                    let _ = p.wait();
                }
            });
        }
    });
    let wall = started.elapsed();
    let stats = service.shutdown();
    Run {
        shards,
        inflight,
        batch_size,
        wall_ms: wall.as_secs_f64() * 1e3,
        scans_per_sec: ranges.len() as f64 / wall.as_secs_f64(),
        entries_per_sec: stats.total_scan_entries() as f64 / wall.as_secs_f64(),
        stats,
    }
}

fn render_json(args: &Args, runs: &[Run]) -> String {
    bench_document("range_throughput", SEED, |w| {
        w.key("entries").u64(args.entries);
        w.key("scans").u64(args.scans as u64);
        w.key("span").u64(args.span);
        w.key("limit").u64(args.limit as u64);
        w.key("theta").f64(args.theta, 2);
        w.key("clients").u64(CLIENTS as u64);
        w.key("runs").array(|w| {
            for run in runs {
                w.object(|w| write_run(w, run));
            }
        });
    })
}

fn write_run(w: &mut Writer, run: &Run) {
    w.key("shards").u64(run.shards as u64);
    w.key("inflight").u64(run.inflight as u64);
    w.key("batch_size").u64(run.batch_size as u64);
    w.key("wall_ms").f64(run.wall_ms, 3);
    w.key("scans_per_sec").f64(run.scans_per_sec, 0);
    w.key("entries_per_sec").f64(run.entries_per_sec, 0);
    // On the range tier a worker's `keys` are scan cursors fed and its
    // `matches` entries emitted.
    run.stats.write_json(w.key("stats"));
}

fn main() {
    let args = parse_args();
    let shard_sweep: Vec<usize> = match args.shards {
        Some(s) => vec![s],
        None => vec![1, 2, 4],
    };
    let inflight_sweep = [1usize, 4, 8];
    let batch_sweep = [16usize, 64];

    // Dense unique build side: key k → row id. Scans over [lo, hi]
    // therefore return ~span entries each (capped by --limit).
    let pairs: Vec<(u64, u64)> = datagen::unique_shuffled_keys(SEED, args.entries as usize)
        .into_iter()
        .enumerate()
        .map(|(row, key)| (key, row as u64))
        .collect();
    let ranges = datagen::range_queries(SEED ^ 1, args.scans, args.entries, args.span, args.theta);

    println!(
        "== range_throughput: {} entries, {} Zipf({}) scans (span ≤ {}, limit {}), {} clients ==\n",
        args.entries, args.scans, args.theta, args.span, args.limit, CLIENTS
    );
    println!("(seed {SEED:#x}; per-worker detail in --json output)\n");

    let mut runs = Vec::new();
    let mut t = Table::new(&[
        "shards",
        "inflight",
        "batch",
        "wall ms",
        "Kscans/s",
        "Mentries/s",
        "p50 µs",
        "p99 µs",
        "occupancy",
        "mean batch",
    ]);
    for &shards in &shard_sweep {
        for &inflight in &inflight_sweep {
            for &batch_size in &batch_sweep {
                let run = run_once(&pairs, &ranges, shards, inflight, batch_size, args.limit);
                let occ = run
                    .stats
                    .range_workers
                    .iter()
                    .map(widx_serve::WorkerStats::occupancy)
                    .sum::<f64>()
                    / run.stats.range_workers.len() as f64;
                let mean_batch = run
                    .stats
                    .range_workers
                    .iter()
                    .map(widx_serve::WorkerStats::mean_batch)
                    .sum::<f64>()
                    / run.stats.range_workers.len() as f64;
                t.row(&[
                    run.shards.to_string(),
                    run.inflight.to_string(),
                    run.batch_size.to_string(),
                    f2(run.wall_ms),
                    f2(run.scans_per_sec / 1e3),
                    f2(run.entries_per_sec / 1e6),
                    f1(run.stats.latency.p50_ns as f64 / 1e3),
                    f1(run.stats.latency.p99_ns as f64 / 1e3),
                    pct(occ),
                    f1(mean_batch),
                ]);
                runs.push(run);
            }
        }
    }
    println!("{}", t.render());
    println!(
        "(each scan scatters to the shards its interval overlaps and gathers \
         back in key order; batching across concurrent scans fills the \
         per-shard cursor ring, the ordered-tier analogue of the paper's \
         dispatcher keeping all four walkers busy)"
    );

    if let Some(path) = &args.json {
        let json = render_json(&args, &runs);
        std::fs::write(path, json).expect("write json");
        println!("\nwrote {path}");
    }
}
