//! Live-telemetry integration tests at the serve tier: `live_stats()`
//! must be coherent and non-zero *while the service is under load*, and
//! must equal the shutdown snapshot once the service is quiescent —
//! both read the same lock-free registry, so equality is structural,
//! not a timing accident.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use widx_db::hash::HashRecipe;
use widx_serve::{ProbeService, Request, Response, ServeConfig, ServiceStats, Stage};

const ENTRIES: u64 = 8192;

fn build() -> ProbeService {
    ProbeService::build_with_range(
        HashRecipe::robust64(),
        (0..ENTRIES).map(|k| (k, k + 1)),
        &ServeConfig::default().with_shards(2).with_batch_size(32),
    )
}

#[test]
fn live_stats_are_nonzero_under_load() {
    let service = Arc::new(build());
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let loads: Vec<_> = (0..2)
            .map(|t| {
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut served = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for key in 0..64u64 {
                            let key = key * 7 + t;
                            let hits = service.lookup(key % ENTRIES).expect("lookup");
                            assert_eq!(hits, vec![key % ENTRIES + 1]);
                            served += 1;
                        }
                        // Ring-filling, so the hash workers publish
                        // batches of their own while being scraped.
                        let keys: Vec<u64> = (0..32).map(|k| (k * 7 + t) % ENTRIES).collect();
                        let rows = service.multi_lookup(&keys).expect("multi_lookup");
                        assert_eq!(rows.len(), keys.len());
                        let _ = service.range_scan(0, 200, 50).expect("scan");
                    }
                    served
                })
            })
            .collect();

        // Scrape while the load threads are live: the snapshot must be
        // coherent (no torn counters) and visibly non-zero.
        let mut seen_keys = 0u64;
        let mut seen_latency = 0u64;
        for _ in 0..50 {
            let live = service.live_stats();
            let keys = live.total_keys();
            let lat = live.latency.count as u64;
            assert!(keys >= seen_keys, "total_keys went backwards");
            assert!(lat >= seen_latency, "latency count went backwards");
            seen_keys = keys;
            seen_latency = lat;
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(seen_keys > 0, "no keys observed under load");
        assert!(seen_latency > 0, "no latencies observed under load");

        // Per-worker cells and stage histograms populate too.
        let live = service.live_stats();
        assert!(live.workers.iter().any(|w| w.keys > 0));
        assert!(live.workers.iter().any(|w| w.batches > 0));
        let stages = live.stages.named();
        for (name, summary) in stages {
            match name {
                "queue_wait" | "walk" | "gather" => {
                    assert!(summary.count > 0, "stage {name} recorded nothing");
                }
                // batch_wait records once per batch; reply_write only at
                // the net tier — presence, not magnitude, is asserted
                // elsewhere.
                _ => {}
            }
        }

        stop.store(true, Ordering::Relaxed);
        let served: u64 = loads.into_iter().map(|h| h.join().expect("load")).sum();
        assert!(served > 0);
    });
}

/// Strips the fields legitimately allowed to differ between a live
/// scrape and the post-join shutdown snapshot: `wall` keeps ticking,
/// `net` belongs to the socket tier, and each worker's `idle` keeps
/// accumulating while it blocks on an empty queue. Every counter and
/// every histogram must agree exactly.
fn comparable(mut stats: ServiceStats) -> ServiceStats {
    stats.wall = Duration::ZERO;
    stats.net = Default::default();
    for w in stats
        .workers
        .iter_mut()
        .chain(stats.range_workers.iter_mut())
    {
        w.idle = Duration::ZERO;
    }
    stats
}

#[test]
fn live_stats_equal_shutdown_stats_at_quiescence() {
    let service = build();
    for key in 0..500u64 {
        assert_eq!(service.lookup(key).expect("lookup"), vec![key + 1]);
    }
    let rows = service.join_probe(&[3, 5, ENTRIES + 1]).expect("join");
    assert_eq!(rows.len(), 2);
    // Those were sub-ring, walked on this thread; this one fills the
    // ring, so the workers' own batches are in the comparison too.
    let keys: Vec<u64> = (0..64).collect();
    assert_eq!(service.multi_lookup(&keys).expect("multi").len(), 64);
    let entries = service.range_scan(100, 300, 1000).expect("scan");
    assert_eq!(entries.len(), 201);

    // Every call above was synchronous, so the service is quiescent:
    // the live scrape and the shutdown snapshot fold the same cells.
    let live = service.live_stats();
    assert_eq!(live.total_keys(), 567);
    assert_eq!(live.latency.count, 503, "one latency per request");
    let shutdown = service.shutdown();
    assert_eq!(comparable(live), comparable(shutdown));
}

/// A sub-ring lookup is walked on the submitting thread, yet counts in
/// its shard's worker cell exactly as a one-key worker batch would:
/// the stats cannot tell which thread ran a walk.
#[test]
fn sub_ring_lookups_count_as_one_key_batches() {
    const HITS: u64 = 300;
    const MISSES: u64 = 20;
    let service = build();
    for key in (0..HITS).chain(ENTRIES..ENTRIES + MISSES) {
        let pending = service.submit(Request::Lookup { key }).expect("submit");
        assert!(
            pending.is_ready(),
            "lookup {key} left the submitting thread"
        );
        match pending.wait() {
            Response::Lookup { payloads, .. } if key < ENTRIES => {
                assert_eq!(payloads, vec![key + 1]);
            }
            Response::Lookup { payloads, .. } => assert!(payloads.is_empty()),
            other => panic!("wrong variant {other:?}"),
        }
    }
    let n = HITS + MISSES;
    let live = service.live_stats();
    assert_eq!(live.total_keys(), n);
    assert_eq!(live.total_matches(), HITS);
    assert_eq!(live.latency.count as u64, n, "one latency per request");
    let sum = |field: fn(&widx_serve::WorkerStats) -> u64| -> u64 {
        live.workers.iter().map(field).sum()
    };
    assert_eq!(sum(|w| w.jobs), n);
    assert_eq!(sum(|w| w.batches), n);
    assert_eq!(sum(|w| w.deadline_flushes), n, "each a queue-dry batch");
    assert_eq!(sum(|w| w.size_flushes) + sum(|w| w.shutdown_flushes), 0);
    assert!(
        live.workers.iter().all(|w| w.keys > 0 && !w.busy.is_zero()),
        "both shards' cells carry the walks run for them"
    );
    for (name, summary) in live.stages.named() {
        let want = match name {
            "queue_wait" | "walk" | "gather" => n,
            _ => 0, // no batch was open to wait in; no wire, no writes
        };
        assert_eq!(summary.count as u64, want, "stage {name}");
    }
    let shutdown = service.shutdown();
    assert_eq!(comparable(live), comparable(shutdown));
}

#[test]
fn stats_render_without_panicking() {
    let service = build();
    for key in 0..100u64 {
        service.lookup(key).expect("lookup");
    }
    let live = service.live_stats();
    let json = live.to_json();
    assert_eq!(widx_obs::json::find_u64(&json, "total_keys"), Some(100));
    assert_eq!(live.latency.count, 100);
    assert!(json.contains("\"latency\":{\"count\":100,"));
    assert!(
        live.stages.get(Stage::Walk).count > 0,
        "walk stage recorded"
    );
    let _ = service.shutdown();
}
