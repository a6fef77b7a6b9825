//! Hardware-profiling plumbing at the serve tier: a service built with
//! `with_profile(true)` carries a per-stage counter breakdown in its
//! stats and its `Profile` document, the walker cross-check
//! counters accumulate real work, and an unprofiled service pays — and
//! reports — nothing.

use widx_db::hash::HashRecipe;
use widx_serve::{ProbeService, ServeConfig, Stage};

const ENTRIES: u64 = 4096;

fn build(config: ServeConfig) -> ProbeService {
    ProbeService::build_with_range(
        HashRecipe::robust64(),
        (0..ENTRIES).map(|k| (k, k + 1)),
        &config,
    )
}

#[test]
fn profiled_service_reports_per_stage_breakdown() {
    let service = build(ServeConfig::default().with_shards(2).with_profile(true));
    assert!(service.profiling_enabled());

    let keys: Vec<u64> = (0..512).map(|i| i * 31 % (ENTRIES * 2)).collect();
    let rows = service.multi_lookup(&keys).expect("multi_lookup");
    assert!(!rows.is_empty());
    let entries = service.range_scan(0, 1000, 400).expect("range_scan");
    assert_eq!(entries.len(), 400);

    let stats = service.live_stats();
    let prof = stats.prof.as_ref().expect("profiled service carries prof");
    // Both tiers attached: 2 point + 2 range workers.
    assert_eq!(prof.workers, 4);
    assert_ne!(prof.backend, "none", "workers attached a counter group");
    // The walkers really ran under the profiler: the software
    // cross-check counters saw the probes and the scan.
    assert!(prof.walk.nodes > 0, "no nodes visited");
    assert!(prof.walk.rounds > 0, "no walker rounds");
    assert!(prof.walk.prefetches > 0, "no prefetches issued");
    assert!(
        prof.soft_mlp().is_some_and(|mlp| mlp > 0.0),
        "software MLP derives from the walk counters"
    );
    // Counter windows were recorded into the seam stages either way;
    // cycles are only nonzero on a real hardware backend.
    let total = prof.total();
    assert!(total.windows > 0, "no counter windows recorded");
    if prof.hw {
        assert!(total.cycles > 0, "hardware backend counted no cycles");
    } else {
        assert!(
            prof.fallback.is_some() || prof.backend == "soft",
            "a degraded backend explains itself"
        );
    }

    // The snapshot rides the stats JSON and the Profile opcode payload.
    let json = stats.to_json();
    assert!(json.contains("\"prof\":{\"backend\":"));
    let profile = service.profile_json();
    assert!(profile.starts_with("{\"enabled\":true,"));
    assert!(profile.contains("\"stages\":{\"net_read\":{\"windows\":0,"));
    assert!(json.contains("\"workers\":4,"));
    assert!(
        prof.get(Stage::Walk).windows > 0,
        "no counter windows in the walk stage"
    );

    // The shutdown snapshot keeps the profile.
    let final_stats = service.shutdown();
    assert!(final_stats.prof.is_some());
}

/// Walks run on the submitting thread reach the profile too: a service
/// that has only served sub-ring lookups and one-chunk scans — no worker
/// ever handed a job, every idle clock still zero — reports the nodes,
/// rounds and prefetches of those walks.
#[test]
fn submitter_walks_reach_the_profile() {
    let service = build(ServeConfig::default().with_shards(2).with_profile(true));
    let walked = || {
        let stats = service.live_stats();
        let mut workers = stats.workers.iter().chain(&stats.range_workers);
        assert!(
            workers.all(|w| w.idle.is_zero()),
            "a worker was handed a job"
        );
        let prof = stats.prof.expect("profiled service carries prof");
        assert!(prof.walk.rounds > 0, "submitter walks ran no rounds");
        assert!(prof.walk.prefetches > 0, "submitter walks run the ring");
        prof.walk.nodes
    };
    for key in 0..64 {
        assert_eq!(service.lookup(key).expect("lookup"), vec![key + 1]);
    }
    let multi = service.multi_lookup(&[1, 2, 3]).expect("multi_lookup");
    assert_eq!(multi.len(), 3);
    let probed = walked();
    assert!(probed > 0, "submitter probes visited no nodes");

    let entries = service.range_scan(0, 3000, 128).expect("range_scan");
    assert_eq!(entries.len(), 128);
    let entries = service.range_scan_desc(0, 3000, 128).expect("range_scan");
    assert_eq!(entries.len(), 128);
    assert!(walked() > probed, "submitter scans visited no nodes");
    let _ = service.shutdown();
}

#[test]
fn unprofiled_service_carries_no_profile() {
    let service = build(ServeConfig::default().with_shards(2));
    assert!(!service.profiling_enabled());
    let _ = service.lookup(7).expect("lookup");
    let stats = service.live_stats();
    assert!(stats.prof.is_none());
    assert_eq!(service.profile_json(), "{\"enabled\":false}");
    assert!(!stats.to_json().contains("\"prof\""));
}
