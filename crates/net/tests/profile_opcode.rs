//! End-to-end tests for the `Profile` wire opcode: a `WidxClient`
//! scrape of a running `WidxServer` must round-trip the service's
//! per-stage hardware-counter document — `{"enabled": false}` from a
//! server built without profiling, and a full backend/stage/walk
//! breakdown (matching the in-process rendering) from one built with
//! it. The suite runs under whatever poller backend `WIDX_POLLER`
//! selects, so CI exercises it on both epoll and poll.

use std::sync::Arc;

use widx_db::hash::HashRecipe;
use widx_net::{NetConfig, WidxClient, WidxServer};
use widx_obs::json::find_u64;
use widx_serve::{ProbeService, ServeConfig};

const ENTRIES: u64 = 4096;

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

fn stop(client: WidxClient, server: WidxServer, service: Arc<ProbeService>) {
    drop(client);
    let _ = server.shutdown();
    let _ = Arc::try_unwrap(service)
        .ok()
        .expect("sole owner")
        .shutdown();
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

    let json = client.profile_json().expect("profile scrape");
    assert!(json.starts_with("{\"enabled\": true,"), "{json}");
    // The document names its backend and carries every seam stage.
    assert!(json.contains("\"backend\":"), "{json}");
    for stage in ["queue_wait", "batch_wait", "walk", "gather", "reply_write"] {
        assert!(json.contains(&format!("\"{stage}\":")), "{json}");
    }
    // The software cross-check counters saw the walkers run.
    let at = json.find("\"walk\"").expect("walk block");
    assert!(find_u64(&json[at..], "nodes").expect("nodes") > 0, "{json}");
    assert!(
        find_u64(&json[at..], "rounds").expect("rounds") > 0,
        "{json}"
    );

    // The wire document matches the in-process rendering at quiescence.
    assert_eq!(json, service.profile_json());

    // The same snapshot rides the Stats opcode's document.
    let stats = client.stats_json().expect("stats scrape");
    assert!(stats.contains("\"prof\": {\"backend\":"), "{stats}");

    stop(client, server, service);
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
    assert_eq!(json, "{\"enabled\": false}");
    let stats = client.stats_json().expect("stats scrape");
    assert!(!stats.contains("\"prof\""), "{stats}");

    stop(client, server, service);
}
