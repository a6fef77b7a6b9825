//! The network front-end end to end: build a two-tier service, put a
//! `widx-net` server in front of it, and drive a pipelined mixed
//! workload through `WidxClient` over loopback TCP — including an
//! out-of-order reap, a depth-8 closed loop and a graceful two-stage
//! shutdown.
//!
//! Run with: `cargo run --release --example net_server`

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use widx_repro::db::hash::HashRecipe;
use widx_repro::net::{NetConfig, WidxClient, WidxServer};
use widx_repro::serve::{ProbeService, Request, Response, ServeConfig};
use widx_repro::workloads::datagen;

fn main() {
    // A primary-key build side: 64k unique keys, payload = row id,
    // served by both tiers (hash for points, B+-tree for ranges).
    let entries = 1 << 16;
    let pairs: Vec<(u64, u64)> = datagen::unique_shuffled_keys(7, entries)
        .into_iter()
        .enumerate()
        .map(|(row, key)| (key, row as u64))
        .collect();
    let service = Arc::new(ProbeService::build_with_range(
        HashRecipe::robust64(),
        pairs.iter().copied(),
        &ServeConfig::default().with_shards(4).with_inflight(8),
    ));
    // The same build side, ordered: what every reply below must equal.
    let oracle: BTreeMap<u64, u64> = pairs.into_iter().collect();

    // Bind an ephemeral loopback port; the event loop runs on its own
    // thread from here, blocking in the compat poller (epoll on Linux,
    // `poll(2)` elsewhere — set WIDX_POLLER=poll or use
    // `with_poller_backend` to force one) until sockets are ready or a
    // completion rings its wake handle. The burst below pipelines 10k
    // requests on one connection, so raise the per-connection in-flight
    // window past it (at the default 256, the excess would bounce back
    // as typed `Busy` error frames — that backpressure is a feature,
    // not an outage).
    let config = NetConfig::default().with_max_inflight(16 * 1024);
    let server =
        WidxServer::bind("127.0.0.1:0", Arc::clone(&service), config).expect("bind loopback");
    println!("serving on {}", server.local_addr());

    let mut client = WidxClient::connect(server.local_addr()).expect("connect");

    // Synchronous conveniences mirror the in-process service API.
    let payloads = client.lookup(12345).unwrap();
    println!("lookup(12345) -> {payloads:?}");
    assert_eq!(payloads, [oracle[&12345]]);
    let scanned = client.range_scan(1000, 1005, usize::MAX).unwrap();
    println!("range_scan(1000..1005) -> {scanned:?}");
    let expected: Vec<(u64, u64)> = oracle.range(1000..=1005).map(|(k, v)| (*k, *v)).collect();
    assert_eq!(scanned, expected);

    // The send/recv split pipelines a skewed burst without waiting —
    // the per-shard batchers fill their walker rings from one socket.
    let hot = datagen::zipf_keys(11, 10_000, entries as u64, 0.99);
    let ids: Vec<u64> = hot
        .iter()
        .map(|k| client.send(&Request::Lookup { key: *k }).expect("send"))
        .collect();
    // Reap in reverse: replies carry ids, so order is the client's
    // choice, not the server's.
    let hits = ids
        .into_iter()
        .rev()
        .filter(|id| client.recv(*id).expect("answered").match_count() > 0)
        .count();
    println!("burst: 10000 pipelined lookups, {hits} hits (reaped in reverse order)");
    assert_eq!(hits, hot.iter().filter(|k| oracle.contains_key(k)).count());

    // A closed loop, the shape of most real clients: keep 8 lookups in
    // flight and send the next as each reply arrives. When one read
    // brings several replies in, the sends made while the rest are
    // still buffered are held and leave in one write before the next
    // read.
    let keys = datagen::zipf_keys(13, 10_000, entries as u64, 0.99);
    let mut unsent = keys.iter();
    let mut in_flight: HashMap<u64, u64> = HashMap::new();
    loop {
        while in_flight.len() < 8 {
            let Some(&key) = unsent.next() else { break };
            in_flight.insert(client.send(&Request::Lookup { key }).expect("send"), key);
        }
        if in_flight.is_empty() {
            break;
        }
        let (id, reply) = client.recv_any().expect("recv");
        let key = in_flight
            .remove(&id)
            .expect("a reply to a request in flight");
        let payloads = oracle.get(&key).copied().into_iter().collect();
        assert_eq!(reply.expect("answered"), Response::Lookup { key, payloads });
    }
    println!("closed loop: 10000 lookups at depth 8, every reply checked");

    // Graceful shutdown, outside in: the server drains every accepted
    // frame, then the service drains its queues behind a poison pill.
    let net = server.shutdown();
    let stats = Arc::try_unwrap(service)
        .ok()
        .expect("server released its handle")
        .shutdown()
        .with_net(net);
    println!(
        "\nnet tier: {} connection(s), {} frames in, {} frames out, {} busy, {} decode errors",
        stats.net.connections,
        stats.net.frames_in,
        stats.net.frames_out,
        stats.net.busy_rejects,
        stats.net.decode_errors,
    );
    // The window was raised past the burst, so nothing was refused.
    assert_eq!((stats.net.busy_rejects, stats.net.decode_errors), (0, 0));
    println!(
        "service: {} keys probed, p50 {:.1} µs / p99 {:.1} µs over {} requests",
        stats.total_keys(),
        stats.latency.p50_ns as f64 / 1e3,
        stats.latency.p99_ns as f64 / 1e3,
        stats.latency.count,
    );
}
