//! Streaming-reply sweep: chunk size × stream depth against a
//! `widx-net` server over loopback TCP, measuring what the chunked
//! reply path buys on long scans — **time to first chunk** versus the
//! buffered full-reply latency of the same scan.
//!
//! Each sweep point builds a fresh two-tier service (with the swept
//! `stream_chunk`) and server, then drives `scans` long range scans
//! from one connection, keeping `depth` streams in flight
//! (`send_range_stream` / `recv_chunk` — chunk frames for the waiting
//! streams stash per id). Alternating scans run descending, so the
//! reverse path is always exercised. The same scans are then replayed
//! buffered (`RangeScan` frames, same pipeline depth) as the baseline.
//! With `--json PATH`, the sweep is written for trend tracking
//! (`BENCH_stream.json` keeps the committed baseline).
//!
//! Usage: `stream_throughput [--scans N] [--entries N] [--span N]
//! [--json PATH] [--smoke]`.

use std::sync::Arc;
use std::time::Instant;

use widx_bench::prof::bench_document;
use widx_bench::table::{f1, f2, Table};
use widx_db::hash::HashRecipe;
use widx_net::{NetConfig, WidxClient, WidxServer};
use widx_serve::{LatencySummary, ProbeService, ServeConfig};

const SEED: u64 = 0x57E4;

struct Args {
    scans: usize,
    entries: u64,
    span: u64,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scans: 64,
        entries: 1 << 18,
        span: 1 << 15,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--scans" => args.scans = value().parse().expect("--scans"),
            "--entries" => args.entries = value().parse().expect("--entries"),
            "--span" => args.span = value().parse().expect("--span"),
            "--json" => args.json = Some(value()),
            // Quick CI tier: small workload, the sweep shape unchanged.
            "--smoke" => {
                args.scans = 16;
                args.entries = 1 << 14;
                args.span = 1 << 12;
            }
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(args.span <= args.entries, "span must fit the keyspace");
    args
}

/// One sweep point's results.
struct Run {
    chunk: usize,
    depth: usize,
    first_chunk: LatencySummary,
    stream_total: LatencySummary,
    buffered: LatencySummary,
    chunks_received: u64,
    entries_streamed: u64,
}

/// The swept scans: `span`-entry intervals marching through the
/// keyspace (all at 0 when the span covers it entirely), every other
/// one descending.
fn scan_plan(args: &Args) -> Vec<(u64, u64, bool)> {
    let slack = args.entries - args.span;
    (0..args.scans as u64)
        .map(|i| {
            let lo = if slack == 0 { 0 } else { (i * 7919) % slack };
            (lo, lo + args.span - 1, i % 2 == 1)
        })
        .collect()
}

/// Drives one sweep point: streams with `depth` in flight, then the
/// buffered baseline at the same depth.
fn run_once(pairs: &[(u64, u64)], args: &Args, chunk: usize, depth: usize) -> Run {
    let config = ServeConfig::default()
        .with_shards(4)
        .with_inflight(8)
        .with_stream_chunk(chunk);
    let service = Arc::new(ProbeService::build_with_range(
        HashRecipe::robust64(),
        pairs.iter().copied(),
        &config,
    ));
    let server = WidxServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
        .expect("bind loopback");
    let mut client = WidxClient::connect(server.local_addr()).expect("connect");
    let plan = scan_plan(args);

    // Streaming pass: keep `depth` streams open, fully drain the
    // oldest, refill. Chunks for the waiting streams stash per id.
    let mut first_samples = Vec::with_capacity(plan.len());
    let mut total_samples = Vec::with_capacity(plan.len());
    let mut chunks_received = 0u64;
    let mut entries_streamed = 0u64;
    let mut window: std::collections::VecDeque<(u64, Instant)> =
        std::collections::VecDeque::with_capacity(depth);
    let mut next = 0usize;
    while next < plan.len() || !window.is_empty() {
        while window.len() < depth.max(1) && next < plan.len() {
            let (lo, hi, desc) = plan[next];
            next += 1;
            let id = client
                .send_range_stream(lo, hi, usize::MAX, desc)
                .expect("send stream");
            window.push_back((id, Instant::now()));
        }
        let (id, sent) = window.pop_front().expect("window non-empty");
        let mut first = true;
        while let Some(piece) = client.recv_chunk(id).expect("stream survives") {
            if first {
                first = false;
                let ns = sent.elapsed().as_nanos();
                first_samples.push(u64::try_from(ns).unwrap_or(u64::MAX));
            }
            chunks_received += 1;
            entries_streamed += piece.len() as u64;
        }
        let ns = sent.elapsed().as_nanos();
        total_samples.push(u64::try_from(ns).unwrap_or(u64::MAX));
    }

    // Buffered baseline: the same scans as single-frame replies, same
    // pipeline depth.
    let mut buffered_samples = Vec::with_capacity(plan.len());
    let mut window: std::collections::VecDeque<(u64, Instant)> =
        std::collections::VecDeque::with_capacity(depth);
    let mut next = 0usize;
    while next < plan.len() || !window.is_empty() {
        while window.len() < depth.max(1) && next < plan.len() {
            let (lo, hi, desc) = plan[next];
            next += 1;
            let id = client
                .send(&widx_serve::Request::RangeScan {
                    lo,
                    hi,
                    limit: usize::MAX,
                    desc,
                })
                .expect("send buffered");
            window.push_back((id, Instant::now()));
        }
        let (id, sent) = window.pop_front().expect("window non-empty");
        let _ = client.recv(id).expect("buffered reply");
        let ns = sent.elapsed().as_nanos();
        buffered_samples.push(u64::try_from(ns).unwrap_or(u64::MAX));
    }

    let _ = server.shutdown();
    drop(
        Arc::try_unwrap(service)
            .ok()
            .expect("sole owner")
            .shutdown(),
    );
    Run {
        chunk,
        depth,
        first_chunk: LatencySummary::from_samples(first_samples),
        stream_total: LatencySummary::from_samples(total_samples),
        buffered: LatencySummary::from_samples(buffered_samples),
        chunks_received,
        entries_streamed,
    }
}

fn render_json(args: &Args, runs: &[Run]) -> String {
    bench_document("stream_throughput", SEED, |w| {
        w.key("scans").u64(args.scans as u64);
        w.key("entries").u64(args.entries);
        w.key("span").u64(args.span);
        w.key("runs").array(|w| {
            for run in runs {
                w.object(|w| {
                    w.key("chunk").u64(run.chunk as u64);
                    w.key("depth").u64(run.depth as u64);
                    w.key("chunks").u64(run.chunks_received);
                    w.key("entries_streamed").u64(run.entries_streamed);
                    for (key, summary) in [
                        ("first_chunk", &run.first_chunk),
                        ("stream_total", &run.stream_total),
                        ("buffered", &run.buffered),
                    ] {
                        w.key(key).object(|w| summary.write_fields(w));
                    }
                });
            }
        });
    })
}

fn main() {
    let args = parse_args();
    let chunk_sweep = [64usize, 512, 4096];
    let depth_sweep = [1usize, 4, 16];

    // Dense build side: key k → row id, so every scan returns exactly
    // `span` entries — long scans by construction.
    let pairs: Vec<(u64, u64)> = (0..args.entries).map(|k| (k, k ^ SEED)).collect();

    println!(
        "== stream_throughput: {} entries, {} scans of {} entries each \
         (alternating asc/desc), loopback TCP ==\n",
        args.entries, args.scans, args.span,
    );

    let mut runs = Vec::new();
    let mut t = Table::new(&[
        "chunk",
        "depth",
        "first-chunk p50 µs",
        "stream p50 µs",
        "buffered p50 µs",
        "first/buffered",
    ]);
    for &chunk in &chunk_sweep {
        for &depth in &depth_sweep {
            let run = run_once(&pairs, &args, chunk, depth);
            let ratio = if run.buffered.p50_ns == 0 {
                0.0
            } else {
                run.first_chunk.p50_ns as f64 / run.buffered.p50_ns as f64
            };
            t.row(&[
                run.chunk.to_string(),
                run.depth.to_string(),
                f1(run.first_chunk.p50_ns as f64 / 1e3),
                f1(run.stream_total.p50_ns as f64 / 1e3),
                f1(run.buffered.p50_ns as f64 / 1e3),
                f2(ratio),
            ]);
            runs.push(run);
        }
    }
    println!("{}", t.render());
    println!(
        "(first-chunk latency is the streaming win: the gather seam forwards the \
         head shard's chunks while the other shards are still scanning, so the \
         first entries reach the client well before the buffered reply — which \
         must wait for the slowest shard — would even start; `first/buffered` \
         below 1.0 is that win, and smaller chunks push it lower at the cost of \
         more frames)"
    );

    if let Some(path) = &args.json {
        let json = render_json(&args, &runs);
        std::fs::write(path, json).expect("write json");
        println!("\nwrote {path}");
    }
}
