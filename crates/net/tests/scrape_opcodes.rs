//! End-to-end tests for the scrape class of wire opcodes (`Stats`,
//! `Trace`, `Profile`): one empty-request → JSON-reply exchange, three
//! documents.
//!
//! * `Stats` — a `WidxClient` scrape of a running `WidxServer` must
//!   round-trip a parseable JSON snapshot whose counters reflect the
//!   load actually served: before load, mid load (pipelined between
//!   probe requests), and across repeated scrapes (monotone counters).
//! * `Trace` — a deliberately slow request must land in the flight
//!   recorder with the full span seam (net-read → queue-wait → walk →
//!   gather → reply-write) and non-trivial walker counters, the opcode
//!   must round-trip the recorder's JSON document, and a server with
//!   tracing unarmed must record nothing.
//! * `Profile` — `{"enabled":false}` from a server built without
//!   profiling, and a full backend/stage/walk breakdown (matching the
//!   in-process rendering) from one built with it.
//!
//! The suite runs under whatever poller backend `WIDX_POLLER` selects,
//! so CI exercises it on both epoll and poll.

use std::sync::Arc;
use std::time::Duration;

use widx_db::hash::HashRecipe;
use widx_net::{NetConfig, WidxClient, WidxServer};
use widx_obs::json::{find_f64, find_u64};
use widx_serve::{ProbeService, Request, RequestTrace, Response, ServeConfig, ServiceStats, Stage};

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

/// Shuts the server down, recovers sole ownership of the service (the
/// server was the only other holder) and returns the final snapshot.
fn stop(client: WidxClient, server: WidxServer, service: Arc<ProbeService>) -> ServiceStats {
    drop(client);
    let net = server.shutdown();
    Arc::try_unwrap(service)
        .ok()
        .expect("server thread has released its service handle")
        .shutdown()
        .with_net(net)
}

fn stats_config() -> ServeConfig {
    ServeConfig::default().with_shards(2).with_batch_size(16)
}

/// Pulls one scrape and sanity-parses the fields every assertion below
/// leans on.
fn scrape(client: &mut WidxClient) -> (String, u64, u64, u64) {
    let json = client.stats_json().expect("stats scrape");
    let total_keys = find_u64(&json, "total_keys").expect("total_keys field");
    let latency_count = find_u64(&json, "count").expect("latency count field");
    let frames_in = find_u64(&json, "frames_in").expect("frames_in field");
    (json, total_keys, latency_count, frames_in)
}

#[test]
fn stats_round_trip_over_tcp() {
    let (service, server) = start(stats_config());
    let mut client = WidxClient::connect(server.local_addr()).expect("connect");

    // A scrape before any load parses and reports the idle state.
    let (json, keys0, lat0, frames0) = scrape(&mut client);
    assert_eq!(keys0, 0, "no keys served yet: {json}");
    assert_eq!(lat0, 0);
    // The scrape itself was a frame, and this connection is open.
    assert!(frames0 >= 1, "scrape frame counted: {json}");
    assert!(find_u64(&json, "open_connections").expect("gauge") >= 1);
    assert!(find_f64(&json, "wall_ms").expect("wall_ms") >= 0.0);

    // Serve some real load, then scrape again.
    for key in 0..200u64 {
        assert_eq!(client.lookup(key).expect("lookup"), vec![key + 1]);
    }
    let rows = client.join_probe(&[1, 2, 3, ENTRIES + 7]).expect("join");
    assert_eq!(rows.len(), 3);
    let (json, keys1, lat1, frames1) = scrape(&mut client);
    assert_eq!(keys1, 204, "200 lookups + 4 join rows: {json}");
    assert!(lat1 >= 201, "every request recorded a latency: {json}");
    assert!(frames1 > frames0);

    // Counters are monotone scrape to scrape.
    for key in 0..50u64 {
        client.lookup(key).expect("lookup");
    }
    let (_, keys2, lat2, frames2) = scrape(&mut client);
    assert!(keys2 >= keys1 + 50);
    assert!(lat2 >= lat1 + 50);
    assert!(frames2 > frames1);

    let stats = stop(client, server, service);
    assert!(stats.net.frames_in >= frames2);
    assert_eq!(stats.total_keys(), 254);
}

#[test]
fn stats_scrape_mid_pipeline() {
    let (service, server) = start(stats_config());
    let mut client = WidxClient::connect(server.local_addr()).expect("connect");

    // Pipeline a window of probes, then scrape while replies are still
    // outstanding and again after every few are reaped: a scrape must
    // neither block on the queued work nor disturb it, and consecutive
    // scrapes under load never run backwards.
    let mut ids = Vec::new();
    for key in 0..64u64 {
        ids.push((key, client.send(&Request::Lookup { key }).expect("send")));
    }
    let mut last = (0, 0, 0);
    for reaped in ids.chunks(8) {
        let (json, keys, lat, frames) = scrape(&mut client);
        assert!(
            keys >= last.0 && lat >= last.1 && frames > last.2,
            "scraped counters ran backwards from {last:?}: {json}"
        );
        last = (keys, lat, frames);
        for (key, id) in reaped {
            match client.recv(*id).expect("recv") {
                Response::Lookup { payloads, .. } => assert_eq!(payloads, vec![key + 1]),
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }

    // Everything the client saw answered is visible in a final scrape.
    let (json, keys, lat, _) = scrape(&mut client);
    assert_eq!(keys, 64, "{json}");
    assert_eq!(lat, 64, "{json}");

    // Stage histograms populate: queue-wait and walk record at the
    // workers, reply-write at the connection flush path.
    for stage in ["queue_wait", "walk", "reply_write"] {
        let at = json.find(&format!("\"{stage}\"")).expect("stage key");
        let count = find_u64(&json[at..], "count").expect("stage count");
        assert!(count > 0, "stage {stage} recorded nothing: {json}");
    }

    let stats = stop(client, server, service);
    assert_eq!(stats.total_keys(), 64);
}

#[test]
fn stats_reply_matches_live_stats() {
    // The wire snapshot and an in-process `live_stats()` read the same
    // registry: at quiescence their counter fields agree.
    let (service, server) = start(stats_config());
    let mut client = WidxClient::connect(server.local_addr()).expect("connect");
    for key in 0..32u64 {
        client.lookup(key).expect("lookup");
    }
    let json = client.stats_json().expect("scrape");
    let live = service.live_stats();
    assert_eq!(find_u64(&json, "total_keys"), Some(live.total_keys()));
    assert_eq!(
        find_u64(&json, "count"),
        Some(live.latency.count as u64),
        "latency counts agree: {json}"
    );

    let _ = stop(client, server, service);
}

fn span_of(trace: &RequestTrace, stage: Stage) -> Option<(u64, u64)> {
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
        Stage::NetRead,
        Stage::QueueWait,
        Stage::BatchWait,
        Stage::Walk,
        Stage::Gather,
        Stage::ReplyWrite,
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
    let queue = span_of(trace, Stage::QueueWait).expect("queue span").0;
    let walk = span_of(trace, Stage::Walk).expect("walk span").0;
    let reply = span_of(trace, Stage::ReplyWrite).expect("reply span").0;
    assert!(queue <= walk, "walk began before queue-wait");
    assert!(walk <= reply, "reply-write began before the walk");

    let _ = stop(client, server, service);
}

#[test]
fn sub_ring_lookup_trace_is_bracketed_by_the_net_spans() {
    // A depth-1 lookup is walked on the reactor thread, inside
    // `try_submit`: its trace still opens with net-read and closes with
    // reply-write, with the walk between them and no batch to wait in.
    let (service, server) = start(ServeConfig::default().with_shards(2).with_trace_sample(1));
    let mut client = WidxClient::connect(server.local_addr()).expect("connect");
    for key in 0..8u64 {
        assert_eq!(client.lookup(key).expect("lookup"), vec![key + 1]);
    }
    let recorder = service.flight_recorder();
    recorder.flush();
    assert_eq!(recorder.stats().recorded, 8, "one trace per request");
    for trace in recorder.snapshot() {
        assert_eq!(trace.kind, "lookup");
        assert_eq!(trace.reactor, Some(0));
        // The client numbers its requests from 0 in send order.
        let owner = service.sharded().shard_of(trace.id) as u32;
        assert_eq!(trace.shards, vec![owner], "trace {}", trace.id);
        assert!(trace.walk.nodes > 0, "walk counters missing");
        assert!(trace.walk.prefetches > 0, "the reactor's ring walked it");
        assert_eq!(span_of(&trace, Stage::BatchWait), None, "no batch was open");
        let start = |stage: Stage| {
            let span = span_of(&trace, stage);
            let (start_ns, dur_ns) =
                span.unwrap_or_else(|| panic!("trace missing {} span", stage.name()));
            assert!(
                start_ns + dur_ns <= trace.total_ns,
                "{} overruns",
                stage.name()
            );
            start_ns
        };
        let order = [
            Stage::NetRead,
            Stage::QueueWait,
            Stage::Walk,
            Stage::Gather,
            Stage::ReplyWrite,
        ]
        .map(start);
        assert!(order.is_sorted(), "stages out of causal order: {order:?}");
    }
    let _ = stop(client, server, service);
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

    let _ = stop(client, server, service);
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

    let _ = stop(client, server, service);
}

#[test]
fn profile_opcode_round_trips_over_tcp() {
    let (service, server) = start(ServeConfig::default().with_shards(2).with_profile(true));
    let mut client = WidxClient::connect(server.local_addr()).expect("connect");

    // Serve real load so the counters have something to attribute.
    for key in 0..64u64 {
        assert_eq!(client.lookup(key).expect("lookup"), vec![key + 1]);
    }
    let entries = client.range_scan(0, 1000, 500).expect("range_scan");
    assert_eq!(entries.len(), 500);

    // The wire document matches the in-process rendering at quiescence.
    // A worker closes its gather window just after waking the client,
    // so an early pair can straddle that last record; once the workers
    // idle the two renderings must agree.
    let json = (0..100)
        .find_map(|_| {
            let json = client.profile_json().expect("profile scrape");
            (json == service.profile_json()).then_some(json)
        })
        .expect("wire and in-process documents agree once workers idle");
    assert!(json.starts_with("{\"enabled\":true,"), "{json}");
    // The document names its backend and carries every seam stage.
    assert!(json.contains("\"backend\":"), "{json}");
    for stage in Stage::ALL {
        assert!(json.contains(&format!("\"{}\":", stage.name())), "{json}");
    }
    // The software cross-check counters saw the walkers run.
    let at = json.find("\"walk\"").expect("walk block");
    assert!(find_u64(&json[at..], "nodes").expect("nodes") > 0, "{json}");
    assert!(
        find_u64(&json[at..], "rounds").expect("rounds") > 0,
        "{json}"
    );

    // The same snapshot rides the Stats opcode's document.
    let stats = client.stats_json().expect("stats scrape");
    assert!(stats.contains("\"prof\":{\"backend\":"), "{stats}");

    // Two shards in both tiers: the range tier reports its second one.
    let live = service.live_stats();
    assert!(live.range_workers.iter().any(|w| w.shard == 1));

    let _ = stop(client, server, service);
}

#[test]
fn unprofiled_server_answers_disabled() {
    let (service, server) = start(ServeConfig::default().with_shards(2));
    let mut client = WidxClient::connect(server.local_addr()).expect("connect");

    for key in 0..16u64 {
        assert_eq!(client.lookup(key).expect("lookup"), vec![key + 1]);
    }
    // A scrape of an unprofiled server is an answer, not an error.
    let json = client.profile_json().expect("profile scrape");
    assert_eq!(json, "{\"enabled\":false}");
    let stats = client.stats_json().expect("stats scrape");
    assert!(!stats.contains("\"prof\""), "{stats}");

    let _ = stop(client, server, service);
}
