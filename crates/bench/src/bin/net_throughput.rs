//! Network front-end throughput sweep: closed-loop clients × pipeline
//! depth against a `widx-net` server over loopback TCP — the full
//! sockets → frames → queues → walkers path measured end to end.
//!
//! Each sweep point builds a fresh two-tier service and server, then
//! drives a mixed Zipfian workload (point lookups with a slice of range
//! scans) from `clients` connections, each keeping `depth` requests
//! pipelined. Request latency is measured client-side, send to
//! matching recv. With `--json PATH`, the full sweep (including the
//! server's net-tier counters) is written as JSON for trend tracking
//! (`BENCH_net.json` keeps the committed baseline).
//!
//! After the sweep, an **idle/tail phase** measures what the poller
//! rework is for: `--idle-conns` connections sit open doing nothing
//! while two active clients drive traffic (p99/p999 tail latency at a
//! high connection count with few active clients), then the same
//! population goes fully quiet and the process's CPU time over a
//! zero-load window is read from `/proc/self/stat` — near zero with a
//! blocking poller, a steady burn with a readiness-polling sleep loop.
//!
//! With `--scrape-ms N`, every sweep point also runs a telemetry
//! scraper on its **own connection**, polling the `Stats` wire opcode
//! every N milliseconds mid-run and asserting the scraped counters are
//! monotone — measuring the serving path *with observers attached*.
//! `--seed-baseline PATH` reads a previous `BENCH_net.json` and emits a
//! `telemetry_overhead` comparison (seed vs. instrumented reqs/sec)
//! into this run's JSON.
//!
//! `--reactors` takes a comma list (e.g. `--reactors 1,2,4`) and adds a
//! reactor-count axis to the sweep: every clients × depth cell runs once
//! per reactor count, and the idle phase spreads its idle population
//! across the largest count — the front-end sharding axis.
//!
//! With `--trace-sample N`, every sweep point arms per-request tracing
//! (head-sample 1-in-N into the serve tier's flight recorder) and the
//! per-run trace counts land in the JSON. `--trace-ab` appends an A/B
//! smoke after the sweep: the same cell once with tracing off and once
//! armed, asserting the unarmed run records nothing, the armed run
//! records traces, and printing the throughput delta — the number that
//! keeps the tracing seam honest about its hot-path cost.
//!
//! With `--profile`, every sweep point's service opens per-worker
//! `perf-event` counter groups (`ServeConfig::with_profile`), the
//! per-run JSON carries the per-stage counter breakdown, and each run
//! ends with a `Profile` wire-opcode scrape — the 0x09 frame answered
//! inline from the event loop — so the opcode path is exercised under
//! real load.
//!
//! With `--write-frac F`, that fraction of each connection's requests
//! become single-pair `Insert` frames over the same Zipfian keys
//! (F=0.05 is the YCSB-B 95/5 shape, F=0.5 the YCSB-A 50/50 shape) —
//! the write opcodes measured on the wire, with per-key acks reaped
//! like any other pipelined reply and the server's write counters
//! landing in the JSON.
//!
//! Usage: `net_throughput [--requests N] [--entries N] [--span N]
//! [--scan-share F] [--write-frac F] [--theta T] [--reactors A,B,..]
//! [--idle-conns N] [--idle-window-ms N] [--scrape-ms N]
//! [--trace-sample N] [--trace-ab] [--profile] [--seed-baseline PATH]
//! [--json PATH] [--smoke]`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use widx_bench::prof::bench_document;
use widx_bench::table::{f1, f2, Table};
use widx_db::hash::HashRecipe;
use widx_net::{NetConfig, WidxClient, WidxServer};
use widx_obs::json::Writer;
use widx_serve::{LatencySummary, ProbeService, Request, ServeConfig, ServiceStats};
use widx_workloads::datagen;

const SEED: u64 = 0x7E7;

struct Args {
    requests: usize,
    entries: u64,
    span: u64,
    scan_share: f64,
    write_frac: f64,
    theta: f64,
    reactors: Vec<usize>,
    idle_conns: usize,
    idle_window_ms: u64,
    scrape_ms: Option<u64>,
    trace_sample: u64,
    trace_ab: bool,
    profile: bool,
    seed_baseline: Option<String>,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        requests: 100_000,
        entries: 1 << 18,
        span: 128,
        scan_share: 0.1,
        write_frac: 0.0,
        theta: 0.99,
        reactors: vec![1],
        idle_conns: 256,
        idle_window_ms: 500,
        scrape_ms: None,
        trace_sample: 0,
        trace_ab: false,
        profile: false,
        seed_baseline: None,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--requests" => args.requests = value().parse().expect("--requests"),
            "--entries" => args.entries = value().parse().expect("--entries"),
            "--span" => args.span = value().parse().expect("--span"),
            "--scan-share" => args.scan_share = value().parse().expect("--scan-share"),
            "--write-frac" => {
                args.write_frac = value().parse().expect("--write-frac");
                assert!(
                    (0.0..=1.0).contains(&args.write_frac),
                    "--write-frac must be in [0, 1]"
                );
            }
            "--theta" => args.theta = value().parse().expect("--theta"),
            "--reactors" => {
                args.reactors = value()
                    .split(',')
                    .map(|n| n.trim().parse().expect("--reactors"))
                    .collect();
                assert!(!args.reactors.is_empty(), "--reactors needs at least one");
            }
            "--idle-conns" => args.idle_conns = value().parse().expect("--idle-conns"),
            "--idle-window-ms" => args.idle_window_ms = value().parse().expect("--idle-window-ms"),
            "--scrape-ms" => args.scrape_ms = Some(value().parse().expect("--scrape-ms")),
            "--trace-sample" => args.trace_sample = value().parse().expect("--trace-sample"),
            "--trace-ab" => args.trace_ab = true,
            "--profile" => args.profile = true,
            "--seed-baseline" => args.seed_baseline = Some(value()),
            "--json" => args.json = Some(value()),
            // Quick CI tier: small workload, the sweep shape unchanged.
            "--smoke" => {
                args.requests = 4_000;
                args.entries = 1 << 14;
                args.idle_conns = 64;
                args.idle_window_ms = 150;
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// One sweep point's results.
struct Run {
    reactors: usize,
    clients: usize,
    depth: usize,
    wall_ms: f64,
    reqs_per_sec: f64,
    /// Client-side round-trip latency.
    latency: LatencySummary,
    busy_replies: u64,
    /// `Stats`-opcode scrapes taken over the wire while the run was hot
    /// (0 without `--scrape-ms`).
    scrapes: u64,
    /// The server's final snapshot, network tier attached: frame
    /// counters, write ops, flight-recorder commits and (`--profile`
    /// only) the per-stage counter breakdown.
    stats: ServiceStats,
}

/// The per-client mixed workload: mostly Zipfian lookups, a slice of
/// bounded range scans over the same hot keys, and (with
/// `--write-frac`) a deterministic error-diffusion slice of single-pair
/// inserts — every run at a given fraction issues the identical mix.
fn build_ops(args: &Args, client: usize, count: usize) -> Vec<Request> {
    let keys = datagen::zipf_keys(
        SEED ^ (client as u64).wrapping_mul(0x9E37),
        count,
        args.entries,
        args.theta,
    );
    let every = if args.scan_share <= 0.0 {
        usize::MAX
    } else {
        ((1.0 / args.scan_share) as usize).max(1)
    };
    let mut write_debt = 0.0f64;
    keys.into_iter()
        .enumerate()
        .map(|(i, key)| {
            write_debt += args.write_frac;
            if write_debt >= 1.0 {
                write_debt -= 1.0;
                Request::Insert {
                    pairs: vec![(key, key ^ SEED)],
                }
            } else if (i + 1) % every == 0 {
                Request::RangeScan {
                    lo: key,
                    hi: key.saturating_add(args.span),
                    limit: args.span as usize,
                    desc: false,
                }
            } else {
                Request::Lookup { key }
            }
        })
        .collect()
}

/// Drives one sweep point: fresh service + server, `clients` threads
/// each pipelining `depth` requests closed-loop. Returns wall time and
/// client-measured latencies. `Busy` replies are counted and dropped —
/// the bounded closed loop keeps them rare, and the counter proves it.
fn run_once(
    pairs: &[(u64, u64)],
    args: &Args,
    reactors: usize,
    clients: usize,
    depth: usize,
    trace_sample: u64,
) -> Run {
    let mut config = ServeConfig::default()
        .with_shards(4)
        .with_inflight(8)
        .with_profile(args.profile);
    if trace_sample > 0 {
        config = config.with_trace_sample(trace_sample);
    }
    let service = Arc::new(ProbeService::build_with_range(
        HashRecipe::robust64(),
        pairs.iter().copied(),
        &config,
    ));
    let server = WidxServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig::default().with_reactors(reactors),
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let per_client = args.requests.div_ceil(clients);

    let started = Instant::now();
    let stop_scraper = AtomicBool::new(false);
    let stop_scraper = &stop_scraper;
    let (samples, busy_replies, scrapes) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let ops = build_ops(args, c, per_client);
                scope.spawn(move || {
                    let mut client = WidxClient::connect(addr).expect("connect");
                    let mut samples: Vec<u64> = Vec::with_capacity(ops.len());
                    let mut window: std::collections::VecDeque<(u64, Instant)> =
                        std::collections::VecDeque::with_capacity(depth);
                    let mut busy = 0u64;
                    let reap = |client: &mut WidxClient,
                                window: &mut std::collections::VecDeque<(u64, Instant)>,
                                samples: &mut Vec<u64>,
                                busy: &mut u64| {
                        let (id, sent) = window.pop_front().expect("window non-empty");
                        match client.recv(id) {
                            Ok(_) => {
                                let ns = sent.elapsed().as_nanos();
                                samples.push(u64::try_from(ns).unwrap_or(u64::MAX));
                            }
                            Err(widx_net::ClientError::Remote(e)) => {
                                assert_eq!(
                                    e.code,
                                    widx_net::ErrorCode::Busy,
                                    "unexpected server error: {e}"
                                );
                                *busy += 1;
                            }
                            Err(widx_net::ClientError::Io(e)) => panic!("client io: {e}"),
                        }
                    };
                    for op in &ops {
                        if window.len() == depth.max(1) {
                            reap(&mut client, &mut window, &mut samples, &mut busy);
                        }
                        let id = client.send(op).expect("send");
                        window.push_back((id, Instant::now()));
                    }
                    while !window.is_empty() {
                        reap(&mut client, &mut window, &mut samples, &mut busy);
                    }
                    (samples, busy)
                })
            })
            .collect();
        // The scraper is a fifth, out-of-band connection: it exercises
        // the Stats fast path (answered inline from the event loop)
        // while the measured connections saturate the queued path.
        let scraper = args.scrape_ms.map(|ms| {
            scope.spawn(move || {
                let mut client = WidxClient::connect(addr).expect("scraper connect");
                let mut last_keys = 0u64;
                let mut last_frames = 0u64;
                let mut scrapes = 0u64;
                while !stop_scraper.load(Ordering::Relaxed) {
                    let json = client.stats_json().expect("stats scrape");
                    let keys = widx_obs::json::find_u64(&json, "total_keys").expect("total_keys");
                    let frames = widx_obs::json::find_u64(&json, "frames_in").expect("frames_in");
                    assert!(keys >= last_keys, "scraped total_keys went backwards");
                    assert!(frames >= last_frames, "scraped frames_in went backwards");
                    (last_keys, last_frames) = (keys, frames);
                    scrapes += 1;
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
                scrapes
            })
        });
        let mut samples = Vec::new();
        let mut busy = 0u64;
        for handle in handles {
            let (s, b) = handle.join().expect("client thread");
            samples.extend(s);
            busy += b;
        }
        stop_scraper.store(true, Ordering::Relaxed);
        let scrapes = scraper.map_or(0, |h| h.join().expect("scraper thread"));
        (samples, busy, scrapes)
    });
    let wall = started.elapsed();

    // With profiling on, scrape the Profile opcode once over the wire
    // before teardown: the 0x09 frame is answered inline from the
    // event loop, and the reply must say profiling is live.
    if args.profile {
        let mut scraper = WidxClient::connect(addr).expect("profile scrape connect");
        let json = scraper.profile_json().expect("profile scrape");
        assert!(
            json.starts_with("{\"enabled\":true,"),
            "profiled server answered {json}"
        );
    }

    let net = server.shutdown();
    let stats = Arc::try_unwrap(service)
        .ok()
        .expect("sole owner")
        .shutdown()
        .with_net(net);
    Run {
        reactors,
        clients,
        depth,
        wall_ms: wall.as_secs_f64() * 1e3,
        reqs_per_sec: samples.len() as f64 / wall.as_secs_f64(),
        latency: LatencySummary::from_samples(samples),
        busy_replies,
        scrapes,
        stats,
    }
}

/// The idle/tail phase's results.
struct IdleRun {
    reactors: usize,
    idle_conns: usize,
    active_clients: usize,
    depth: usize,
    requests: usize,
    latency: LatencySummary,
    zero_load_window: std::time::Duration,
    /// Process CPU seconds burned per wall second at zero load (a
    /// fraction; multiply by 100 for percent). `None` when
    /// `/proc/self/stat` is unavailable (non-Linux host).
    zero_load_cpu: Option<f64>,
}

/// Process CPU time (utime + stime, user and kernel) in seconds, read
/// from `/proc/self/stat`; `None` off Linux. Fields 14/15 sit after the
/// parenthesised command name, in USER_HZ ticks (100 on every
/// mainstream Linux configuration).
fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let after_comm = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// The idle/tail phase: `idle_conns` connections sit open and silent
/// (each one registered with the server's poller) while two pipelining
/// clients drive the mixed workload — the tail-latency shape of a real
/// fleet, where most connections are quiet at any instant. Then the
/// active clients leave and the whole population goes quiet: process
/// CPU over the zero-load window is the cost of *having* connections,
/// which a blocking poller makes ~zero and a polling sleep loop does
/// not.
fn run_idle_phase(pairs: &[(u64, u64)], args: &Args, reactors: usize) -> IdleRun {
    const ACTIVE_CLIENTS: usize = 2;
    const DEPTH: usize = 8;
    let config = ServeConfig::default().with_shards(4).with_inflight(8);
    let service = Arc::new(ProbeService::build_with_range(
        HashRecipe::robust64(),
        pairs.iter().copied(),
        &config,
    ));
    let server = WidxServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig::default().with_reactors(reactors),
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let idle: Vec<WidxClient> = (0..args.idle_conns)
        .map(|_| WidxClient::connect(addr).expect("idle connect"))
        .collect();

    let per_client = (args.requests / 4).max(1_000).div_ceil(ACTIVE_CLIENTS);
    let samples = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ACTIVE_CLIENTS)
            .map(|c| {
                // Offset the workload seed so the tail phase does not
                // replay the sweep's exact key streams.
                let ops = build_ops(args, c + 64, per_client);
                scope.spawn(move || {
                    let mut client = WidxClient::connect(addr).expect("active connect");
                    let mut samples: Vec<u64> = Vec::with_capacity(ops.len());
                    let mut window: std::collections::VecDeque<(u64, Instant)> =
                        std::collections::VecDeque::with_capacity(DEPTH);
                    let reap = |client: &mut WidxClient,
                                window: &mut std::collections::VecDeque<(u64, Instant)>,
                                samples: &mut Vec<u64>| {
                        let (id, sent) = window.pop_front().expect("window non-empty");
                        match client.recv(id) {
                            Ok(_) => {
                                let ns = sent.elapsed().as_nanos();
                                samples.push(u64::try_from(ns).unwrap_or(u64::MAX));
                            }
                            Err(widx_net::ClientError::Remote(e)) => {
                                assert_eq!(e.code, widx_net::ErrorCode::Busy, "server error: {e}");
                            }
                            Err(widx_net::ClientError::Io(e)) => panic!("client io: {e}"),
                        }
                    };
                    for op in &ops {
                        if window.len() == DEPTH {
                            reap(&mut client, &mut window, &mut samples);
                        }
                        let id = client.send(op).expect("send");
                        window.push_back((id, Instant::now()));
                    }
                    while !window.is_empty() {
                        reap(&mut client, &mut window, &mut samples);
                    }
                    samples
                })
            })
            .collect();
        let mut samples = Vec::new();
        for handle in handles {
            samples.extend(handle.join().expect("active client"));
        }
        samples
    });
    let latency = LatencySummary::from_samples(samples);

    // Zero load: the active connections have closed; let the server
    // finish reaping them, then watch process CPU with only the idle
    // population registered.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let window = std::time::Duration::from_millis(args.idle_window_ms.max(1));
    let before = process_cpu_seconds();
    std::thread::sleep(window);
    let after = process_cpu_seconds();
    let zero_load_cpu = match (before, after) {
        (Some(b), Some(a)) => Some(((a - b).max(0.0)) / window.as_secs_f64()),
        _ => None,
    };

    drop(idle);
    let _ = server.shutdown();
    drop(
        Arc::try_unwrap(service)
            .ok()
            .expect("sole owner")
            .shutdown(),
    );
    IdleRun {
        reactors,
        idle_conns: args.idle_conns,
        active_clients: ACTIVE_CLIENTS,
        depth: DEPTH,
        requests: per_client * ACTIVE_CLIENTS,
        latency,
        zero_load_window: window,
        zero_load_cpu,
    }
}

/// The `--trace-ab` smoke's results: one sweep cell with tracing off,
/// the same cell armed.
struct TraceAb {
    sample: u64,
    off_reqs_per_sec: f64,
    on_reqs_per_sec: f64,
    delta_pct: f64,
    recorded: u64,
}

/// One cell (2 clients × depth 8) run twice — tracing unarmed, then
/// head-sampled — to smoke-check that an unarmed server records
/// nothing, an armed one records, and the cost stays in the noise.
fn run_trace_ab(pairs: &[(u64, u64)], args: &Args) -> TraceAb {
    let sample = if args.trace_sample > 0 {
        args.trace_sample
    } else {
        16
    };
    let off = run_once(pairs, args, 1, 2, 8, 0);
    let on = run_once(pairs, args, 1, 2, 8, sample);
    assert_eq!(
        off.stats.trace.recorded, 0,
        "unarmed run committed traces to the recorder"
    );
    assert!(
        on.stats.trace.recorded > 0,
        "armed run (1-in-{sample}) recorded nothing"
    );
    TraceAb {
        sample,
        off_reqs_per_sec: off.reqs_per_sec,
        on_reqs_per_sec: on.reqs_per_sec,
        delta_pct: (on.reqs_per_sec - off.reqs_per_sec) / off.reqs_per_sec * 100.0,
        recorded: on.stats.trace.recorded,
    }
}

/// Seed-vs-instrumented throughput comparison computed from a previous
/// `BENCH_net.json` (`--seed-baseline`).
struct Overhead {
    seed_reqs_per_sec: f64,
    instrumented_reqs_per_sec: f64,
    delta_pct: f64,
}

/// Mean sweep throughput of the baseline file vs. this run. Every
/// `reqs_per_sec` key in the old JSON is a sweep-row value (the idle
/// section reports latency only), so the mean over all matches is the
/// seed's sweep-average throughput.
fn telemetry_overhead(path: &str, runs: &[Run]) -> Option<Overhead> {
    let old = std::fs::read_to_string(path).ok()?;
    let seed_rates = widx_obs::json::find_all_f64(&old, "reqs_per_sec");
    if seed_rates.is_empty() || runs.is_empty() {
        return None;
    }
    let seed = seed_rates.iter().sum::<f64>() / seed_rates.len() as f64;
    let inst = runs.iter().map(|r| r.reqs_per_sec).sum::<f64>() / runs.len() as f64;
    Some(Overhead {
        seed_reqs_per_sec: seed,
        instrumented_reqs_per_sec: inst,
        delta_pct: (inst - seed) / seed * 100.0,
    })
}

fn render_json(
    args: &Args,
    runs: &[Run],
    idle: &IdleRun,
    overhead: Option<&Overhead>,
    trace_ab: Option<&TraceAb>,
) -> String {
    bench_document("net_throughput", SEED, |w| {
        w.key("requests").u64(args.requests as u64);
        w.key("entries").u64(args.entries);
        w.key("span").u64(args.span);
        w.key("scan_share").f64(args.scan_share, 2);
        w.key("write_frac").f64(args.write_frac, 2);
        w.key("theta").f64(args.theta, 2);
        w.key("trace_sample").u64(args.trace_sample);
        w.key("reactors_sweep").array(|w| {
            for reactors in &args.reactors {
                w.u64(*reactors as u64);
            }
        });
        // Reactor scaling is meaningless without knowing how many cores
        // the host could actually run them on: see `host.cpus`.
        w.key("profile").bool(args.profile);
        w.key("runs").array(|w| {
            for run in runs {
                w.object(|w| write_run(w, run));
            }
        });
        w.key("idle").object(|w| {
            w.key("reactors").u64(idle.reactors as u64);
            w.key("idle_conns").u64(idle.idle_conns as u64);
            w.key("active_clients").u64(idle.active_clients as u64);
            w.key("depth").u64(idle.depth as u64);
            w.key("requests").u64(idle.requests as u64);
            w.key("latency").object(|w| idle.latency.write_fields(w));
            w.key("zero_load_window_ms")
                .u64(idle.zero_load_window.as_millis() as u64);
            w.key("zero_load_cpu_pct")
                .f64(idle.zero_load_cpu.map(|frac| frac * 100.0), 3);
        });
        if let Some(o) = overhead {
            w.key("telemetry_overhead").object(|w| {
                w.key("seed_reqs_per_sec").f64(o.seed_reqs_per_sec, 0);
                w.key("instrumented_reqs_per_sec")
                    .f64(o.instrumented_reqs_per_sec, 0);
                w.key("delta_pct").f64(o.delta_pct, 2);
            });
        }
        if let Some(ab) = trace_ab {
            // Distinct key names from the sweep rows, so baseline-comparison
            // scans over "reqs_per_sec" never pick up the A/B cells.
            w.key("trace_ab").object(|w| {
                w.key("sample").u64(ab.sample);
                w.key("off_rps").f64(ab.off_reqs_per_sec, 0);
                w.key("on_rps").f64(ab.on_reqs_per_sec, 0);
                w.key("delta_pct").f64(ab.delta_pct, 2);
                w.key("recorded").u64(ab.recorded);
            });
        }
    })
}

fn write_run(w: &mut Writer, run: &Run) {
    w.key("reactors").u64(run.reactors as u64);
    w.key("clients").u64(run.clients as u64);
    w.key("depth").u64(run.depth as u64);
    w.key("wall_ms").f64(run.wall_ms, 3);
    w.key("reqs_per_sec").f64(run.reqs_per_sec, 0);
    w.key("busy_replies").u64(run.busy_replies);
    w.key("live_scrapes").u64(run.scrapes);
    w.key("latency").object(|w| run.latency.write_fields(w));
    run.stats.write_json(w.key("stats"));
}

fn main() {
    let args = parse_args();
    let client_sweep = [1usize, 2, 4];
    let depth_sweep = [1usize, 8, 32];

    // Dense unique build side: key k → row id, so scans return ~span
    // entries and the Zipfian point stream mostly hits.
    let pairs: Vec<(u64, u64)> = datagen::unique_shuffled_keys(SEED, args.entries as usize)
        .into_iter()
        .enumerate()
        .map(|(row, key)| (key, row as u64))
        .collect();

    println!(
        "== net_throughput: {} entries, {} Zipf({}) requests ({}% range scans, span {}, \
         {}% writes), loopback TCP ==\n",
        args.entries,
        args.requests,
        args.theta,
        (args.scan_share * 100.0) as u32,
        args.span,
        (args.write_frac * 100.0) as u32,
    );
    println!("(seed {SEED:#x}; per-run net counters in --json output)\n");

    let mut runs = Vec::new();
    let mut t = Table::new(&[
        "reactors",
        "clients",
        "depth",
        "wall ms",
        "Kreq/s",
        "p50 µs",
        "p99 µs",
        "frames in",
        "busy",
        "write ops",
    ]);
    for &reactors in &args.reactors {
        for &clients in &client_sweep {
            for &depth in &depth_sweep {
                let run = run_once(&pairs, &args, reactors, clients, depth, args.trace_sample);
                t.row(&[
                    run.reactors.to_string(),
                    run.clients.to_string(),
                    run.depth.to_string(),
                    f2(run.wall_ms),
                    f2(run.reqs_per_sec / 1e3),
                    f1(run.latency.p50_ns as f64 / 1e3),
                    f1(run.latency.p99_ns as f64 / 1e3),
                    run.stats.net.frames_in.to_string(),
                    run.busy_replies.to_string(),
                    run.stats.total_write_ops().to_string(),
                ]);
                runs.push(run);
            }
        }
    }
    println!("{}", t.render());
    println!(
        "(each connection pipelines `depth` requests with explicit ids — replies \
         come back out of order across the point and range tiers — so one socket \
         carries the inter-key parallelism the per-shard batchers need, the \
         network-layer analogue of the paper's dispatcher keeping all four \
         walkers fed)"
    );
    if args.scrape_ms.is_some() {
        let total: u64 = runs.iter().map(|r| r.scrapes).sum();
        println!(
            "(Stats-opcode scraper: {total} mid-run wire scrapes, counters monotone throughout)"
        );
    }
    if args.profile {
        let (backend, hw, _) = widx_bench::prof::prof_backend();
        let windows: u64 = runs
            .iter()
            .filter_map(|r| r.stats.prof.as_ref())
            .map(|p| p.total().windows)
            .sum();
        println!(
            "(per-worker profiling on: backend {backend}, hw counters {}, \
             {windows} counter windows across the sweep; Profile opcode \
             scraped once per run)",
            if hw { "on" } else { "off" }
        );
    }
    let overhead = args
        .seed_baseline
        .as_deref()
        .and_then(|path| telemetry_overhead(path, &runs));
    if let Some(o) = &overhead {
        println!(
            "(telemetry overhead vs. seed baseline: {:.0} → {:.0} reqs/s sweep mean, {:+.2}%)",
            o.seed_reqs_per_sec, o.instrumented_reqs_per_sec, o.delta_pct
        );
    }
    if args.trace_sample > 0 {
        let total: u64 = runs.iter().map(|r| r.stats.trace.recorded).sum();
        println!(
            "(per-request tracing armed at 1-in-{}: {total} traces committed across the sweep)",
            args.trace_sample
        );
    }
    let trace_ab = args.trace_ab.then(|| {
        let ab = run_trace_ab(&pairs, &args);
        println!(
            "\n== trace A/B smoke: 2 clients × depth 8, tracing off vs. 1-in-{} ==\n",
            ab.sample
        );
        println!(
            "off: {:.0} reqs/s; armed: {:.0} reqs/s ({:+.2}%); {} traces recorded, \
             0 with tracing off",
            ab.off_reqs_per_sec, ab.on_reqs_per_sec, ab.delta_pct, ab.recorded
        );
        ab
    });

    // The idle population spreads across the largest configured reactor
    // count: zero-load CPU must stay ~zero per *reactor*, not just in
    // the single-loop shape.
    let idle_reactors = args.reactors.iter().copied().max().unwrap_or(1);
    println!(
        "\n== idle/tail phase: {} idle connections over {} reactor(s) + 2 active \
         clients (depth 8) ==\n",
        args.idle_conns, idle_reactors
    );
    let idle = run_idle_phase(&pairs, &args, idle_reactors);
    let mut t = Table::new(&[
        "reactors",
        "idle conns",
        "requests",
        "p50 µs",
        "p99 µs",
        "p999 µs",
        "max µs",
    ]);
    t.row(&[
        idle.reactors.to_string(),
        idle.idle_conns.to_string(),
        idle.requests.to_string(),
        f1(idle.latency.p50_ns as f64 / 1e3),
        f1(idle.latency.p99_ns as f64 / 1e3),
        f1(idle.latency.p999_ns as f64 / 1e3),
        f1(idle.latency.max_ns as f64 / 1e3),
    ]);
    println!("{}", t.render());
    match idle.zero_load_cpu {
        Some(frac) => println!(
            "zero-load CPU: {:.3}% of one core over a {} ms window with {} \
             connections registered (blocking poller: no sleep ticks to burn)",
            frac * 100.0,
            idle.zero_load_window.as_millis(),
            idle.idle_conns,
        ),
        None => println!(
            "SKIP: no idle-CPU sample — the metric reads /proc/self/stat \
             (Linux only); tail latencies above are still measured"
        ),
    }

    if let Some(path) = &args.json {
        let json = render_json(&args, &runs, &idle, overhead.as_ref(), trace_ab.as_ref());
        std::fs::write(path, json).expect("write json");
        println!("\nwrote {path}");
    }
}
