//! Live telemetry end to end: build a service with per-request tracing
//! armed and hardware profiling on, put the `widx-net` server in
//! front, drive background load, and scrape the `Stats` wire opcode
//! mid-run from a second connection — then pull a sampled trace off
//! the `Trace` opcode's flight-recorder document, and scrape the
//! `Profile` opcode's per-stage counter breakdown. Those three JSON
//! documents are the server's one exposition; the closing stage and
//! net lines read the same snapshot in process.
//!
//! Run with: `cargo run --release --example stats_scrape`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use widx_repro::db::hash::HashRecipe;
use widx_repro::net::{NetConfig, WidxClient, WidxServer};
use widx_repro::obs::json;
use widx_repro::serve::{ProbeService, ServeConfig};
use widx_repro::workloads::datagen;

/// Stops the background load when dropped, so a failed assertion
/// unwinds out of the thread scope instead of waiting on it forever.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn main() {
    let entries = 1 << 16;
    let pairs: Vec<(u64, u64)> = datagen::unique_shuffled_keys(7, entries)
        .into_iter()
        .enumerate()
        .map(|(row, key)| (key, row as u64))
        .collect();
    let service = Arc::new(ProbeService::build_with_range(
        HashRecipe::robust64(),
        pairs,
        // Head-sample one request in 64 into the flight recorder; any
        // request over 5 ms is tail-recorded (and slow-logged) even if
        // sampling skips it.
        &ServeConfig::default()
            .with_shards(4)
            .with_inflight(8)
            .with_trace_sample(64)
            .with_slow_threshold(Some(Duration::from_millis(5)))
            // Per-worker perf_event counter windows over the stage seam
            // (software clock backend on hosts without a PMU).
            .with_profile(true),
    ));
    let server = WidxServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();
    println!("serving on {addr}");

    // One connection drives a skewed mixed workload in the background…
    let stop = AtomicBool::new(false);
    let stop = &stop;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut client = WidxClient::connect(addr).expect("load connect");
            let hot = datagen::zipf_keys(11, 4_096, entries as u64, 0.99);
            while !stop.load(Ordering::Relaxed) {
                for chunk in hot.chunks(64) {
                    for key in chunk {
                        let _ = client.lookup(*key).expect("lookup");
                    }
                    let _ = client
                        .range_scan(chunk[0], chunk[0] + 128, 128)
                        .expect("scan");
                }
            }
        });

        let _stop_load = StopOnDrop(stop);

        // …while a second connection scrapes the Stats opcode. The
        // reply is one JSON document; `widx_obs::json` pulls fields
        // out without a parser dependency.
        let mut scraper = WidxClient::connect(addr).expect("scraper connect");
        let mut last = (0, 0, 0);
        for tick in 1..=5 {
            std::thread::sleep(Duration::from_millis(20));
            let doc = scraper.stats_json().expect("stats scrape");
            let field = |key| json::find_u64(&doc, key).unwrap_or(0);
            let counters = (field("total_keys"), field("count"), field("frames_in"));
            println!(
                "scrape {tick}: {} keys probed, {} requests timed, p99 {} ns, \
                 {} frames in, {} open connection(s)",
                counters.0,
                counters.1,
                field("p99_ns"),
                counters.2,
                field("open_connections"),
            );
            // Monotone counters never run backwards between scrapes,
            // and every scrape is itself a frame.
            assert!(
                counters.0 >= last.0 && counters.1 >= last.1 && counters.2 > last.2,
                "scrape {tick} ran backwards: {last:?} -> {counters:?}"
            );
            last = counters;
        }
        assert!(last.0 > 0, "the load connection was never served");
        // The Trace opcode returns the flight recorder as one JSON
        // document: ring gauges plus the recorded traces, newest first,
        // each with its span timeline and walker counters.
        let doc = scraper.traces_json().expect("trace scrape");
        let recorded = json::find_u64(&doc, "recorded").unwrap_or(0);
        println!(
            "flight recorder: {recorded} traces recorded ({} slow), depth {}",
            json::find_u64(&doc, "slow").unwrap_or(0),
            json::find_u64(&doc, "depth").unwrap_or(0),
        );
        assert!(recorded > 0, "1-in-64 sampling recorded nothing: {doc}");
        if let Some(at) = doc.find("\"traces\":[{") {
            let trace = &doc[at..];
            println!(
                "newest trace: kind {:?}, {} ns end to end, {} nodes walked \
                 (chain max {}), {} prefetches",
                json::find_str(trace, "kind").unwrap_or_default(),
                json::find_u64(trace, "total_ns").unwrap_or(0),
                json::find_u64(trace, "nodes").unwrap_or(0),
                json::find_u64(trace, "max_chain").unwrap_or(0),
                json::find_u64(trace, "prefetches").unwrap_or(0),
            );
        }
        // The Profile opcode returns the merged hardware-counter
        // snapshot: backend in use, per-stage windows, and the
        // walkers' software MLP cross-check. An unprofiled server
        // would answer {"enabled":false} instead.
        let doc = scraper.profile_json().expect("profile scrape");
        let backend = json::find_str(&doc, "backend").unwrap_or_default();
        assert!(
            doc.contains("\"enabled\":true") && !backend.is_empty(),
            "profiled server answered {doc}"
        );
        println!(
            "profile: backend {backend:?} (hw counters: {}), {} windows, \
             {} nodes walked at soft MLP {:.2}",
            doc.contains("\"hw\":true"),
            doc.find("\"total\":")
                .and_then(|at| json::find_u64(&doc[at..], "windows"))
                .unwrap_or(0),
            doc.find("\"walk\":")
                .and_then(|at| json::find_u64(&doc[at..], "nodes"))
                .unwrap_or(0),
            json::find_f64(&doc, "soft_mlp").unwrap_or(0.0),
        );
    });

    // The same snapshot the wire serves, read in process. Stage
    // quantiles show where request time went.
    let live = service.live_stats().with_net(server.stats());
    for (name, stage) in live.stages.named() {
        println!(
            "stage {name}: {} timed, p50 {} ns / p99 {} ns",
            stage.count, stage.p50_ns, stage.p99_ns
        );
    }
    println!(
        "net: {} frames in, {} frames out",
        live.net.frames_in, live.net.frames_out
    );

    let _ = server.shutdown();
    let stats = Arc::try_unwrap(service)
        .ok()
        .expect("server released its handle")
        .shutdown();
    println!(
        "\nfinal: {} keys, p50 {:.1} µs / p99 {:.1} µs over {} requests",
        stats.total_keys(),
        stats.latency.p50_ns as f64 / 1e3,
        stats.latency.p99_ns as f64 / 1e3,
        stats.latency.count,
    );
}
