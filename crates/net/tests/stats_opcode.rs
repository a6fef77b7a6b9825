//! End-to-end tests for the `Stats` wire opcode: a `WidxClient` scrape
//! of a running `WidxServer` must round-trip a parseable JSON snapshot
//! whose counters reflect the load actually served — before load, mid
//! load (pipelined between probe requests), and across repeated scrapes
//! (monotone counters). The suite runs under whatever poller backend
//! `WIDX_POLLER` selects, so CI exercises it on both epoll and poll.

use std::sync::Arc;

use widx_db::hash::HashRecipe;
use widx_net::{NetConfig, WidxClient, WidxServer};
use widx_obs::json::{find_f64, find_u64};
use widx_serve::{ProbeService, Request, Response, ServeConfig};

const ENTRIES: u64 = 4096;

fn serve_config() -> ServeConfig {
    ServeConfig::default().with_shards(2).with_batch_size(16)
}

/// Recovers sole ownership once the server (the only other holder) has
/// shut down.
fn unwrap_service(service: Arc<ProbeService>) -> ProbeService {
    Arc::try_unwrap(service)
        .ok()
        .expect("server thread has released its service handle")
}

fn start() -> (Arc<ProbeService>, WidxServer) {
    let service = Arc::new(ProbeService::build_with_range(
        HashRecipe::robust64(),
        (0..ENTRIES).map(|k| (k, k + 1)),
        &serve_config(),
    ));
    let server = WidxServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
        .expect("bind server");
    (service, server)
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
    let (service, server) = start();
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

    drop(client);
    let net = server.shutdown();
    assert!(net.frames_in >= frames2);
    let stats = unwrap_service(service).shutdown().with_net(net);
    assert_eq!(stats.total_keys(), 254);
}

#[test]
fn stats_scrape_mid_pipeline() {
    let (service, server) = start();
    let mut client = WidxClient::connect(server.local_addr()).expect("connect");

    // Pipeline a window of probes, scrape in the middle of it, then
    // reap every pending reply: the scrape must neither block on the
    // queued work nor disturb it.
    let mut ids = Vec::new();
    for key in 0..64u64 {
        ids.push((key, client.send(&Request::Lookup { key }).expect("send")));
    }
    let json = client.stats_json().expect("mid-pipeline scrape");
    assert!(find_u64(&json, "total_keys").is_some(), "parseable: {json}");
    for (key, id) in ids {
        match client.recv(id).expect("recv") {
            Response::Lookup { payloads, .. } => assert_eq!(payloads, vec![key + 1]),
            other => panic!("unexpected reply {other:?}"),
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

    drop(client);
    let _ = server.shutdown();
    let stats = unwrap_service(service).shutdown();
    assert_eq!(stats.total_keys(), 64);
}

#[test]
fn stats_reply_matches_live_stats() {
    // The wire snapshot and an in-process `live_stats()` read the same
    // registry: at quiescence their counter fields agree.
    let (service, server) = start();
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

    drop(client);
    let _ = server.shutdown();
    let _ = unwrap_service(service).shutdown();
}
