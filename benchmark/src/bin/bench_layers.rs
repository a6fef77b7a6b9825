//! `bench_layers --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! [--quick] [--out DIR] [--commit ID]`
//!
//! Runs one workload once. `--trace 0` measures the end-to-end metrics
//! over the wire, tracing off; `--trace 1` measures the per-layer
//! metrics on the same index and key stream and prints the waterfall.
//! Every reply is verified; a wrong or refused one makes the run fail.
//! The last line of standard output is the run's result as one JSON
//! object; the same, with the run's circumstances, goes to
//! `DIR/result-NAME-traceT.json`.

use std::hint::black_box;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use widx_benchmark::drive::{
    read_back, run_phase, NetTransport, ServeTransport, Stack, Summary, Tally, WINDOW_NS,
};
use widx_benchmark::host;
use widx_benchmark::json::{obj, Value};
use widx_benchmark::layers::{
    codec_cut, engine_cut, hist_record_cut, update_cut, ServeCounters, ServeMark,
};
use widx_benchmark::report::{final_line, Values, END_TO_END, PER_LAYER};
use widx_benchmark::spans::{mean_self_ns, Clock, SpanBuf};
use widx_benchmark::stats::{median, Windows};
use widx_benchmark::workload::{Spec, Traffic, WORKLOADS};
use widx_serve::{NetStats, ServeConfig};

/// Untimed lead-in of the end-to-end phase, and of each traced cut.
const WARMUP_S: f64 = 1.0;
const CUT_WARMUP_S: f64 = 0.5;
/// Set-up + timed phase pairs per untraced run; `--seconds` is split
/// between them and `setup_s` is the median of their set-ups.
const EPISODES: usize = 3;
/// Every run first leaves the host alone this long: what ran just
/// before (a build, the previous run) decides where the hypervisor has
/// the vCPUs, and a depth-1 round trip costs half as much again after
/// two busy CPUs as after a pause. See README, "Noise".
const QUIET: Duration = Duration::from_secs(8);
/// The traced service records every 64th request in its flight recorder.
const TRACE_SAMPLE: u64 = 64;
/// Room for every span of a traced run (48 B each, touched as used).
const SPAN_CAPACITY: usize = 1 << 22;
/// Spans written to the trace file: the run's first requests.
const SPANS_ON_FILE: usize = 100_000;
/// Latency samples one phase can hold.
const SAMPLE_CAPACITY: usize = 1 << 19;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    out: PathBuf,
    commit: String,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
            quick: false,
            out: PathBuf::from("benchmark/out"),
            commit: "unknown".to_string(),
        };
        let mut argv = std::env::args().skip(1);
        while let Some(flag) = argv.next() {
            if flag == "--quick" {
                args.quick = true;
                continue;
            }
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} {value}: not a number"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = number()?,
                "--seconds" => args.seconds = number()?.max(1),
                "--trace" => args.trace = number()? != 0,
                "--out" => args.out = PathBuf::from(value),
                "--commit" => args.commit = value,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(args)
    }

    /// Half-second windows in `--seconds`.
    fn windows(&self) -> usize {
        (self.seconds * 1_000_000_000 / WINDOW_NS) as usize
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bench_layers: {message}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::by_name(&args.workload, args.quick) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "bench_layers: --workload must be one of {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    if !args.quick {
        std::thread::sleep(QUIET);
    }
    let run = if args.trace { traced } else { untraced };
    match run(&args, &spec) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(failed) => {
            eprintln!("bench_layers: {failed} request(s) refused or answered wrongly");
            ExitCode::FAILURE
        }
        Err(error) => {
            eprintln!("bench_layers: {error}");
            ExitCode::FAILURE
        }
    }
}

/// A gated percentile the phase was too short to support is an error,
/// not a number.
fn supported(name: &str, value: f64) -> io::Result<f64> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(io::Error::other(format!(
            "{name}: too few samples; run longer"
        )))
    }
}

/// The end-to-end run, tracing off: [`EPISODES`] times over, set the
/// stack up, drive it over the wire, tear it down. Each episode has its
/// own threads and memory, so one unlucky placement on the host moves a
/// third of the windows, not the run.
fn untraced(args: &Args, spec: &Spec) -> io::Result<u64> {
    let clock = Clock::start();
    // Everything the harness will touch is resident before the baseline
    // reading, so the difference is the program's.
    let mut traffic = Traffic::new(spec, args.seed);
    let per_episode = (args.windows() / EPISODES).max(1);
    let mut buffers: Vec<Windows> = (0..EPISODES)
        .map(|_| Windows::new(per_episode, WINDOW_NS, SAMPLE_CAPACITY))
        .collect();
    let rss_before = host::rss_bytes();

    let (mut setups, mut phases) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let mut net = NetStats::default();
    while let Some(windows) = buffers.pop() {
        traffic.reset();
        let (mut stack, times) = Stack::setup(spec, args.seed, 0)?;
        setups.push(times.total_s);
        let mut wire = NetTransport(&mut stack.client);
        let phase = run_phase(
            &mut wire,
            spec,
            &mut traffic,
            clock,
            WARMUP_S,
            windows,
            None,
        )?;
        tally.add(read_back(&mut stack.client, spec, &mut traffic, clock)?);
        phases.push(phase);
        let (_, episode_net) = stack.teardown();
        net.busy_rejects += episode_net.busy_rejects;
        net.decode_errors += episode_net.decode_errors;
    }
    let phase = Summary::of(&phases);
    tally.add(phase.tally);
    // Memory is read off the first episode, whose heap nothing has
    // been freed into yet.
    let grown = phases[0].rss_end.saturating_sub(rss_before);

    let mut metrics = Values::of(&END_TO_END);
    metrics.set("setup_s", median(&setups));
    metrics.set("keys_per_s", phase.keys_per_s);
    metrics.set("req_p50_us", supported("req_p50_us", phase.req_p50_us)?);
    metrics.set("req_p90_us", supported("req_p90_us", phase.req_p90_us)?);
    metrics.set("cpu_ns_per_key", phase.cpu_ns_per_key);
    metrics.set("rss_bytes_per_entry", grown as f64 / spec.entries as f64);
    metrics.print(spec.name);

    // Reported, not gated: a full-run tail does not repeat on a shared
    // host, and the rest says how noisy this run was.
    let client = [
        ("client.samples", phase.samples as f64, "count"),
        ("client.req_p99_us", phase.req_p99_us, "us"),
        ("client.req_p999_us", phase.req_p999_us, "us"),
        ("client.window_iqr_frac", phase.window_iqr_frac, "ratio"),
        ("client.steal_frac", phase.steal_frac, "ratio"),
        ("client.busy_replies", tally.busy as f64, "count"),
        ("net.busy_rejects", net.busy_rejects as f64, "count"),
        ("net.decode_errors", net.decode_errors as f64, "count"),
    ];
    for (name, value, unit) in client {
        println!("{} {name} {value} {unit}", spec.name);
    }
    let extra = [
        (
            "client",
            obj(client.map(|(name, value, _)| (name, Value::from(value)))),
        ),
        ("window_rates", Value::from(phase.window_rates)),
        ("setup_runs_s", Value::from(setups)),
    ];
    finish(args, spec, tally, &metrics, extra)
}

/// The traced run: the same index and key stream cut at every layer.
fn traced(args: &Args, spec: &Spec) -> io::Result<u64> {
    let clock = Clock::start();
    let mut spans = SpanBuf::with_capacity(SPAN_CAPACITY);
    let mut traffic = Traffic::new(spec, args.seed);
    // A second generator for the cuts that only need keys: its write
    // oracle is never compared with the index.
    let mut keys_only = Traffic::new(spec, args.seed);
    let cut_windows = (args.windows() / 4).max(2);
    let cut_ns = cut_windows as u64 * WINDOW_NS;
    let cut = || Windows::new(cut_windows, WINDOW_NS, SAMPLE_CAPACITY);
    let inflight = ServeConfig::default().inflight;

    let (mut stack, setup) = Stack::setup(spec, args.seed, 0)?;
    let hash_bytes: usize = (0..stack.service.sharded().shard_count())
        .map(|shard| {
            let index = stack.service.sharded().read(shard);
            std::mem::size_of_val(index.buckets()) + std::mem::size_of_val(index.nodes())
        })
        .sum();

    // serve: the stream straight into the service, spans on.
    let before = ServeMark::take(&stack.service);
    let serve = run_phase(
        &mut ServeTransport::new(&stack.service),
        spec,
        &mut traffic,
        clock,
        CUT_WARMUP_S,
        cut(),
        Some(&mut spans),
    )?;
    let serve_counters = ServeCounters::between(&before, &ServeMark::take(&stack.service));
    let serve = Summary::of(&[serve]);

    // db + soft: the walkers alone, on the now idle service's shard 0.
    let engines = engine_cut(
        &stack.service,
        spec,
        &mut keys_only,
        inflight,
        cut_ns,
        clock,
        &mut spans,
    );

    // net, untraced: the reference the traced cut is compared with.
    traffic.rewind();
    let before = ServeMark::take(&stack.service);
    let wire = run_phase(
        &mut NetTransport(&mut stack.client),
        spec,
        &mut traffic,
        clock,
        CUT_WARMUP_S,
        cut(),
        None,
    )?;
    let wire_counters = ServeCounters::between(&before, &ServeMark::take(&stack.service));
    let wire = Summary::of(&[wire]);
    let mut tally = serve.tally;
    tally.add(wire.tally);
    tally.add(read_back(&mut stack.client, spec, &mut traffic, clock)?);

    keys_only.rewind();
    let codec = codec_cut(&mut keys_only, cut_ns / 8, clock, &mut spans);
    let hist_record_ns = hist_record_cut(clock, &mut spans);
    keys_only.rewind();
    let update_ns = update_cut(
        &stack.service,
        &mut keys_only,
        &traffic,
        cut_ns / 8,
        clock,
        &mut spans,
    );
    let (_, net) = stack.teardown();

    // net, traced: a service armed with its own flight recorder, the
    // harness recording spans, and a scraper reading live stats.
    traffic.reset();
    let (mut stack, _) = Stack::setup(spec, args.seed, TRACE_SAMPLE)?;
    let stop = AtomicBool::new(false);
    let (traced, scrapes_us) = std::thread::scope(|scope| {
        let service = &stack.service;
        let stop = &stop;
        let scraper = scope.spawn(move || {
            let mut scrapes_us = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let started = Instant::now();
                black_box(service.live_stats());
                scrapes_us.push(started.elapsed().as_secs_f64() * 1e6);
                std::thread::sleep(Duration::from_millis(50));
            }
            scrapes_us
        });
        let traced = run_phase(
            &mut NetTransport(&mut stack.client),
            spec,
            &mut traffic,
            clock,
            CUT_WARMUP_S,
            cut(),
            Some(&mut spans),
        );
        stop.store(true, Ordering::Relaxed);
        (traced, scraper.join().expect("scraper thread"))
    });
    let traced = Summary::of(&[traced?]);
    tally.add(traced.tally);
    tally.add(read_back(&mut stack.client, spec, &mut traffic, clock)?);
    let _ = stack.teardown();

    let self_times = spans.self_times();
    let mut m = Values::of(&PER_LAYER);
    m.set(
        "db.build_ns_per_entry",
        setup.build_s * 1e9 / spec.entries as f64,
    );
    m.set("db.read_ns_per_key", engines.db_read_ns_per_key);
    m.set("db.nodes_per_key", engines.nodes_per_key);
    m.set("db.update_ns_per_op", update_ns);
    m.set(
        "db.bytes_per_entry",
        hash_bytes as f64 / spec.entries as f64,
    );
    m.set("soft.scalar_ns_per_key", engines.scalar_ns_per_key);
    m.set("soft.group_ns_per_key", engines.group_ns_per_key);
    m.set("soft.amac_ns_per_key", engines.amac_ns_per_key);
    m.set("soft.amac_mlp", engines.amac_mlp);
    m.set(
        "soft.amac_speedup",
        engines.scalar_ns_per_key / engines.amac_ns_per_key,
    );
    m.set("serve.keys_per_s", serve.keys_per_s);
    m.set("serve.cpu_ns_per_key", serve.cpu_ns_per_key);
    m.set("serve.req_p50_us", serve.req_p50_us);
    m.set(
        "serve.submit_ns_per_req",
        mean_self_ns(&self_times, "serve.submit"),
    );
    m.set("serve.queue_wait_ns", serve_counters.queue_wait_ns);
    m.set("serve.batch_wait_ns", serve_counters.batch_wait_ns);
    m.set("serve.gather_ns", serve_counters.gather_ns);
    // The stage sums cover warm-up and drain too, so divide by all the
    // work the cut's requests did, not only the part inside windows.
    let serve_units = serve.units as f64 * serve.tally.attempted as f64 / serve.samples as f64;
    m.set(
        "serve.shard_ns_per_key",
        serve_counters.shard_work_ns as f64 / serve_units,
    );
    m.set("serve.write_share", serve_counters.write_share);
    m.set("serve.mean_batch", serve_counters.mean_batch);
    m.set(
        "serve.deadline_flush_frac",
        serve_counters.deadline_flush_frac,
    );
    m.set("serve.occupancy", serve_counters.occupancy);
    m.set(
        "serve.epoch_reclaimed_per_write",
        serve_counters.epoch_reclaimed_per_write,
    );
    m.set(
        "serve.tax_cpu_ns_per_key",
        serve.cpu_ns_per_key - engines.amac_ns_per_key,
    );
    m.set("net.codec_ns_per_req", codec.ns_per_req);
    m.set("net.req_bytes", codec.req_bytes);
    m.set("net.reply_bytes", codec.reply_bytes);
    m.set("net.send_ns_per_req", mean_self_ns(&self_times, "net.send"));
    m.set("net.recv_ns_per_req", mean_self_ns(&self_times, "net.recv"));
    m.set("net.reply_write_ns", wire_counters.reply_write_ns);
    m.set("net.busy_rejects", net.busy_rejects as f64);
    m.set("net.decode_errors", net.decode_errors as f64);
    m.set(
        "net.tax_cpu_ns_per_key",
        wire.cpu_ns_per_key - serve.cpu_ns_per_key,
    );
    m.set("net.tax_p50_us", wire.req_p50_us - serve.req_p50_us);
    m.set("obs.hist_record_ns", hist_record_ns);
    m.set("obs.scrape_us", median(&scrapes_us));
    m.set(
        "obs.trace_overhead_frac",
        1.0 - traced.keys_per_s / wire.keys_per_s,
    );
    m.set("client.req_p99_us", wire.req_p99_us);
    m.set("client.window_iqr_frac", wire.window_iqr_frac);
    m.set("client.steal_frac", wire.steal_frac);
    m.set("client.busy_replies", tally.busy as f64);
    m.print(spec.name);
    print_waterfall(spec, &m, &wire, &serve_counters);

    std::fs::create_dir_all(&args.out)?;
    spans.write_jsonl(
        &args.out.join(format!("trace-{}.jsonl", spec.name)),
        SPANS_ON_FILE,
    )?;
    let extra = [
        ("spans_recorded", Value::from(spans.spans().len() as u64)),
        ("spans_dropped", Value::from(spans.dropped())),
    ];
    finish(args, spec, tally, &m, extra)
}

/// Engine -> +serve tax -> +net tax, and which taxes are the largest.
fn print_waterfall(spec: &Spec, m: &Values<'_>, wire: &Summary, stages: &ServeCounters) {
    let name = spec.name;
    println!("# waterfall {name}: CPU ns per {}", spec.unit);
    println!(
        "#   engine (soft.amac) {:.1} -> +serve tax {:.1} = in-process {:.1} -> +net tax {:.1} = over the wire {:.1}",
        m.get("soft.amac_ns_per_key"),
        m.get("serve.tax_cpu_ns_per_key"),
        m.get("serve.cpu_ns_per_key"),
        m.get("net.tax_cpu_ns_per_key"),
        wire.cpu_ns_per_key,
    );
    println!(
        "#   p50: in-process {:.1} us -> +net tax {:.1} us = over the wire {:.1} us",
        m.get("serve.req_p50_us"),
        m.get("net.tax_p50_us"),
        wire.req_p50_us,
    );
    let units_per_req = wire.units as f64 / wire.samples as f64;
    let mut taxes = [
        (
            "serve.submit (caller's thread)",
            m.get("serve.submit_ns_per_req") / units_per_req,
        ),
        (
            "serve, past submit",
            m.get("serve.tax_cpu_ns_per_key") - m.get("serve.submit_ns_per_req") / units_per_req,
        ),
        ("net.codec", m.get("net.codec_ns_per_req") / units_per_req),
        (
            "net, past the codec",
            m.get("net.tax_cpu_ns_per_key") - m.get("net.codec_ns_per_req") / units_per_req,
        ),
    ];
    taxes.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "#   two largest CPU taxes: {} {:.1} ns, {} {:.1} ns",
        taxes[0].0, taxes[0].1, taxes[1].0, taxes[1].1
    );
    let mut waits = [
        ("serve.queue_wait", stages.queue_wait_ns),
        ("serve.batch_wait", stages.batch_wait_ns),
        ("serve.gather", stages.gather_ns),
        ("net.reply_write", m.get("net.reply_write_ns")),
        ("net.tax_p50", m.get("net.tax_p50_us") * 1e3),
    ];
    waits.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "#   two largest waits in a request: {} {:.1} us, {} {:.1} us",
        waits[0].0,
        waits[0].1 / 1e3,
        waits[1].0,
        waits[1].1 / 1e3
    );
}

/// Writes the result file and prints the final line; returns how many
/// requests failed.
fn finish<const N: usize>(
    args: &Args,
    spec: &Spec,
    tally: Tally,
    metrics: &Values<'_>,
    extra: [(&str, Value); N],
) -> io::Result<u64> {
    let trace = u64::from(args.trace);
    let host = obj([
        ("nproc", Value::from(host::nproc() as u64)),
        ("thp", Value::from(host::thp_setting())),
        ("poller", Value::from(host::poller_backend())),
        ("profiler", Value::from(host::profiler_backend())),
    ]);
    let mut fields = vec![
        ("workload", Value::from(spec.name)),
        ("trace", Value::from(trace)),
        ("quick", Value::from(args.quick)),
        ("seed", Value::from(args.seed)),
        ("seconds", Value::from(args.seconds)),
        ("commit", Value::from(args.commit.as_str())),
        ("host", host),
        ("entries", Value::from(spec.entries as u64)),
        ("depth", Value::from(spec.depth as u64)),
        ("unit", Value::from(spec.unit)),
        ("correct", Value::from(tally.failed == 0)),
        ("attempted", Value::from(tally.attempted)),
        ("failed", Value::from(tally.failed)),
        ("metrics", metrics.to_json()),
    ];
    fields.extend(extra);
    std::fs::create_dir_all(&args.out)?;
    let path = args
        .out
        .join(format!("result-{}-trace{trace}.json", spec.name));
    std::fs::write(path, format!("{}\n", obj(fields)))?;
    println!("{}", final_line(tally.attempted, tally.failed, metrics));
    Ok(tally.failed)
}
