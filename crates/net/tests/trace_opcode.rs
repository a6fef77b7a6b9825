//! End-to-end tests for the per-request tracing seam over TCP: a
//! deliberately slow request must land in the flight recorder with the
//! full span seam (net-read → queue-wait → walk → gather → reply-write)
//! and non-trivial walker counters, the `Trace` wire opcode must
//! round-trip the recorder's JSON document, and a server with tracing
//! unarmed must record nothing. The suite runs under whatever poller
//! backend `WIDX_POLLER` selects, so CI exercises it on both epoll and
//! poll.

use std::sync::Arc;
use std::time::Duration;

use widx_db::hash::HashRecipe;
use widx_net::{NetConfig, WidxClient, WidxServer};
use widx_obs::json::find_u64;
use widx_serve::{ProbeService, RequestTrace, ServeConfig, TraceStage};

const ENTRIES: u64 = 8192;

fn start(serve: ServeConfig) -> (Arc<ProbeService>, WidxServer) {
    let service = Arc::new(ProbeService::build_with_range(
        HashRecipe::robust64(),
        (0..ENTRIES).map(|k| (k, k + 1)),
        &serve,
    ));
    let server = WidxServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
        .expect("bind server");
    (service, server)
}

fn span_of(trace: &RequestTrace, stage: TraceStage) -> Option<(u64, u64)> {
    trace
        .spans
        .iter()
        .find(|s| s.stage == stage)
        .map(|s| (s.start_ns, s.dur_ns))
}

#[test]
fn slow_request_is_tail_recorded_with_the_full_span_seam() {
    // Head sampling off; a tiny slow threshold makes the big scan below
    // tail-select itself while the warm-up lookups may or may not.
    let (service, server) = start(
        ServeConfig::default()
            .with_shards(2)
            .with_slow_threshold(Some(Duration::from_micros(50))),
    );
    let mut client = WidxClient::connect(server.local_addr()).expect("connect");

    // A deliberately slow request: scan the whole table.
    let entries = client
        .range_scan(0, ENTRIES, ENTRIES as usize)
        .expect("range_scan");
    assert_eq!(entries.len(), ENTRIES as usize);

    // A net-armed trace commits on the reactor thread once the reply
    // bytes flush — an instant *after* the client can observe the
    // reply. `flush` waits out every armed trace's commit ticket, so
    // the asserts below are deterministic, not racy lower bounds.
    let recorder = service.flight_recorder();
    recorder.flush();
    let stats = recorder.stats();
    assert_eq!(stats.recorded, 1, "slow scan not tail-recorded");
    assert_eq!(stats.slow, 1, "slow counter did not move");

    let traces = recorder.snapshot();
    let trace = traces
        .iter()
        .find(|t| t.kind == "range_scan")
        .expect("the slow scan's trace is in the recorder");
    assert!(trace.slow, "the scan exceeded the threshold");
    assert_eq!(trace.reactor, Some(0), "frame decoded by reactor 0");
    assert!(!trace.shards.is_empty(), "no shard recorded");
    assert!(trace.walk.nodes > 0, "walker visited no nodes");
    assert!(trace.walk.rounds > 0, "walker ran no rounds");

    // The seam covers the request's life: every serve/net stage spanned,
    // and every span fits inside the end-to-end latency.
    for stage in [
        TraceStage::NetRead,
        TraceStage::QueueWait,
        TraceStage::BatchWait,
        TraceStage::Walk,
        TraceStage::Gather,
        TraceStage::ReplyWrite,
    ] {
        let (start_ns, dur_ns) =
            span_of(trace, stage).unwrap_or_else(|| panic!("trace missing {} span", stage.name()));
        assert!(
            start_ns.saturating_add(dur_ns) <= trace.total_ns,
            "{} span [{start_ns}, +{dur_ns}] overruns total_ns={}",
            stage.name(),
            trace.total_ns
        );
    }
    // And the stages appear in causal order on the shared timeline.
    let queue = span_of(trace, TraceStage::QueueWait).expect("queue span").0;
    let walk = span_of(trace, TraceStage::Walk).expect("walk span").0;
    let reply = span_of(trace, TraceStage::ReplyWrite)
        .expect("reply span")
        .0;
    assert!(queue <= walk, "walk began before queue-wait");
    assert!(walk <= reply, "reply-write began before the walk");

    drop(client);
    let _ = server.shutdown();
    let _ = Arc::try_unwrap(service)
        .ok()
        .expect("sole owner")
        .shutdown();
}

#[test]
fn trace_opcode_round_trips_over_tcp() {
    let (service, server) = start(ServeConfig::default().with_shards(2).with_trace_sample(1));
    let mut client = WidxClient::connect(server.local_addr()).expect("connect");

    // A scrape before any load parses and reports an empty ring.
    let json = client.traces_json().expect("trace scrape");
    assert_eq!(find_u64(&json, "recorded"), Some(0), "idle scrape: {json}");
    assert!(json.contains("\"traces\":[]"), "idle scrape: {json}");

    for key in 0..32u64 {
        assert_eq!(client.lookup(key).expect("lookup"), vec![key + 1]);
    }
    let json = client.traces_json().expect("trace scrape");
    assert!(
        find_u64(&json, "recorded").expect("recorded gauge") >= 32,
        "every head-sampled request recorded: {json}"
    );
    assert!(json.contains("\"kind\":\"lookup\""), "{json}");
    assert!(json.contains("\"reactor\":0"), "{json}");
    assert!(json.contains("\"stage\":\"reply_write\""), "{json}");
    assert!(json.contains("\"walk\":{\"nodes\":"), "{json}");

    // The wire document matches the in-process recorder's rendering.
    assert_eq!(json, service.traces_json());

    // Recorder gauges also surface in the Stats opcode's snapshot.
    let stats = client.stats_json().expect("stats scrape");
    let at = stats.find("\"trace\"").expect("trace block in stats");
    assert!(find_u64(&stats[at..], "recorded").expect("gauge") >= 32);

    drop(client);
    let _ = server.shutdown();
    let _ = Arc::try_unwrap(service)
        .ok()
        .expect("sole owner")
        .shutdown();
}

#[test]
fn unarmed_server_records_nothing() {
    // No head sampling, no slow threshold: the tracing seam must stay
    // entirely cold — the recorder sees no traces at all.
    let (service, server) = start(ServeConfig::default().with_shards(2));
    let mut client = WidxClient::connect(server.local_addr()).expect("connect");

    for key in 0..64u64 {
        assert_eq!(client.lookup(key).expect("lookup"), vec![key + 1]);
    }
    let entries = client.range_scan(0, 1000, 500).expect("range_scan");
    assert_eq!(entries.len(), 500);

    let stats = service.flight_recorder().stats();
    assert_eq!(stats.recorded, 0, "unarmed server recorded a trace");
    assert_eq!(stats.depth, 0);
    let json = client.traces_json().expect("trace scrape");
    assert!(json.contains("\"traces\":[]"), "{json}");

    drop(client);
    let _ = server.shutdown();
    let _ = Arc::try_unwrap(service)
        .ok()
        .expect("sole owner")
        .shutdown();
}
