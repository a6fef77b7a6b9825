//! Loopback parity tests: random mixed point + range workloads served
//! through `WidxClient` → TCP → `WidxServer` → `ProbeService` must be
//! response-for-response equal to the in-process service / serial
//! oracles — across pipelining (replies may complete out of order;
//! request ids do the matching), shutdown arriving mid-stream, and
//! malformed frames (the server answers an error frame and the
//! connection survives).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use widx_db::hash::HashRecipe;
use widx_db::index::BTreeIndex;
use widx_net::wire::{self, Decoded};
use widx_net::{ClientError, ErrorCode, NetConfig, WidxClient, WidxServer};
use widx_serve::{ProbeService, Request, Response, ServeConfig};

/// One generated operation of the mixed workload.
#[derive(Clone, Debug)]
enum Op {
    Lookup(u64),
    Multi(Vec<u64>),
    Join(Vec<u64>),
    Range(u64, u64, usize, bool),
}

impl Op {
    fn request(&self) -> Request {
        match self {
            Op::Lookup(key) => Request::Lookup { key: *key },
            Op::Multi(keys) => Request::MultiLookup { keys: keys.clone() },
            Op::Join(keys) => Request::JoinProbe { keys: keys.clone() },
            Op::Range(lo, hi, limit, desc) => Request::RangeScan {
                lo: *lo,
                hi: *hi,
                limit: *limit,
                desc: *desc,
            },
        }
    }

    /// Checks `response` against the serial oracles over `pairs`.
    /// Point responses are unordered by contract (sorted before
    /// comparison); range responses must match the oracle exactly,
    /// order included.
    fn check(&self, pairs: &[(u64, u64)], response: &Response) {
        match (self, response) {
            (Op::Lookup(key), Response::Lookup { key: got, payloads }) => {
                assert_eq!(got, key);
                let mut got: Vec<u64> = payloads.clone();
                got.sort_unstable();
                let mut want: Vec<u64> = pairs
                    .iter()
                    .filter(|(k, _)| k == key)
                    .map(|(_, v)| *v)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "lookup {key}");
            }
            (Op::Multi(keys), Response::MultiLookup { matches }) => {
                let mut got = matches.clone();
                got.sort_unstable();
                let mut want: Vec<(u64, u64)> = keys
                    .iter()
                    .flat_map(|p| {
                        pairs
                            .iter()
                            .filter(move |(k, _)| k == p)
                            .map(|(k, v)| (*k, *v))
                    })
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "multi-lookup {keys:?}");
            }
            (Op::Join(keys), Response::JoinProbe { pairs: got }) => {
                let mut got = got.clone();
                got.sort_unstable();
                let mut want: Vec<(u64, u64)> = keys
                    .iter()
                    .enumerate()
                    .flat_map(|(row, p)| {
                        pairs
                            .iter()
                            .filter(move |(k, _)| k == p)
                            .map(move |(_, v)| (row as u64, *v))
                    })
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "join probe {keys:?}");
            }
            (Op::Range(lo, hi, limit, desc), Response::RangeScan { entries }) => {
                let tree = BTreeIndex::build(7, pairs.iter().copied());
                let want = if *desc {
                    tree.range_scan_desc(*lo, *hi, *limit)
                } else {
                    tree.range_scan(*lo, *hi, *limit)
                };
                assert_eq!(
                    entries, &want,
                    "range scan [{lo}, {hi}] limit {limit} desc {desc}"
                );
            }
            (op, other) => panic!("reply variant mismatch: {op:?} answered by {other:?}"),
        }
    }
}

fn op_strategy(keyspace: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..keyspace).prop_map(Op::Lookup),
        prop::collection::vec(0..keyspace, 0..20).prop_map(Op::Multi),
        prop::collection::vec(0..keyspace, 0..20).prop_map(Op::Join),
        (0..keyspace)
            .prop_flat_map(move |lo| (Just(lo), lo..keyspace))
            .prop_flat_map(|(lo, hi)| {
                (
                    Just(lo),
                    Just(hi),
                    prop_oneof![(0usize..40).boxed(), Just(usize::MAX).boxed()],
                    any::<bool>(),
                )
            })
            .prop_map(|(lo, hi, limit, desc)| Op::Range(lo, hi, limit, desc)),
    ]
}

/// Builds the full loopback stack: service (both tiers), server, client.
fn stack(
    pairs: &[(u64, u64)],
    shards: usize,
    batch: usize,
    net: NetConfig,
) -> (Arc<ProbeService>, WidxServer, WidxClient) {
    let config = ServeConfig::default()
        .with_shards(shards)
        .with_batch_size(batch);
    let service = Arc::new(ProbeService::build_with_range(
        HashRecipe::robust64(),
        pairs.iter().copied(),
        &config,
    ));
    let server = WidxServer::bind("127.0.0.1:0", Arc::clone(&service), net).expect("bind");
    let client = WidxClient::connect(server.local_addr()).expect("connect");
    (service, server, client)
}

/// Recovers the service from its `Arc` once the server (the only other
/// holder) has shut down.
fn unwrap_service(service: Arc<ProbeService>) -> ProbeService {
    Arc::try_unwrap(service)
        .ok()
        .expect("server thread has released its service handle")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The acceptance property: a pipelined mixed workload over TCP is
    /// response-for-response equal to the serial oracles, with request
    /// ids matching replies under out-of-order completion, and the
    /// stats snapshot's net tier accounts for every frame.
    #[test]
    fn wire_responses_match_oracles(
        pairs in prop::collection::vec((0u64..120, any::<u64>()), 0..300),
        ops in prop::collection::vec(op_strategy(150), 1..50),
        shards in 1usize..5,
        batch in 1usize..24,
    ) {
        let (service, server, mut client) =
            stack(&pairs, shards, batch, NetConfig::default());
        // Pipeline everything before reaping anything: replies complete
        // out of order across the point and range tiers.
        let ids: Vec<u64> = ops
            .iter()
            .map(|op| client.send(&op.request()).expect("send"))
            .collect();
        for (op, id) in ops.iter().zip(ids) {
            let response = client.recv(id).expect("every request answered");
            op.check(&pairs, &response);
        }
        let net = server.shutdown();
        let stats = unwrap_service(service).shutdown().with_net(net);
        prop_assert_eq!(stats.net.connections, 1);
        prop_assert_eq!(stats.net.frames_in, ops.len() as u64);
        prop_assert_eq!(stats.net.frames_out, ops.len() as u64);
        prop_assert_eq!(stats.net.busy_rejects, 0);
        prop_assert_eq!(stats.net.decode_errors, 0);
        prop_assert!(!stats.net.is_empty());
    }

    /// Service shutdown mid-stream: requests accepted before the stop
    /// still answer oracle-equal over the wire; requests sent after it
    /// get a typed `Stopped` error frame — and the connection survives
    /// both.
    #[test]
    fn shutdown_mid_stream_over_the_wire(
        pairs in prop::collection::vec((0u64..80, any::<u64>()), 0..200),
        before in prop::collection::vec(op_strategy(100), 1..25),
        after in prop::collection::vec(op_strategy(100), 1..10),
        shards in 1usize..4,
    ) {
        let (service, server, mut client) =
            stack(&pairs, shards, 8, NetConfig::default());
        let ids: Vec<u64> = before
            .iter()
            .map(|op| client.send(&op.request()).expect("send"))
            .collect();
        for (op, id) in before.iter().zip(ids) {
            op.check(&pairs, &client.recv(id).expect("accepted before stop"));
        }
        service.stop();
        for op in &after {
            match client.call(&op.request()) {
                Err(ClientError::Remote(e)) => prop_assert_eq!(e.code, ErrorCode::Stopped),
                other => panic!("expected Stopped error frame, got {other:?}"),
            }
        }
        // The connection survived every error frame: the counters prove
        // the server answered rather than hung up.
        let net = server.shutdown();
        prop_assert_eq!(net.frames_in, (before.len() + after.len()) as u64);
        prop_assert_eq!(net.frames_out, (before.len() + after.len()) as u64);
        let _ = unwrap_service(service).shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Reactor-count parity: the same mixed workload, spread over
    /// enough connections that every reactor owns several, answers
    /// oracle-equal at `reactors` ∈ {1, 2, 4} — sharding the front-end
    /// must be invisible on the wire. Every request is sent before any
    /// reply is read, so the reactors decode pipelined frames and answer
    /// in batched writes under every reactor count (and under both real
    /// poller backends via `WIDX_POLLER` in CI).
    #[test]
    fn reactor_counts_are_wire_invisible(
        pairs in prop::collection::vec((0u64..100, any::<u64>()), 0..250),
        ops in prop::collection::vec(op_strategy(120), 1..40),
        reactors in (0usize..3).prop_map(|i| 1usize << i), // 1, 2, 4
    ) {
        let (service, server, first) = stack(
            &pairs,
            2,
            8,
            NetConfig::default().with_reactors(reactors),
        );
        let mut clients = vec![first];
        while clients.len() < reactors * 2 {
            clients.push(WidxClient::connect(server.local_addr()).expect("connect"));
        }
        // Round-robin the workload over the connections (which the
        // acceptor round-robins over the reactors), pipelining
        // everything before reaping anything.
        let ids: Vec<(usize, u64)> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let c = i % clients.len();
                (c, clients[c].send(&op.request()).expect("send"))
            })
            .collect();
        for (op, (c, id)) in ops.iter().zip(ids) {
            let response = clients[c].recv(id).expect("every request answered");
            op.check(&pairs, &response);
        }
        // A client dealt no op never wrote a byte, so nothing above
        // waited for its accept: wait for it here, or shutdown could
        // stop the acceptor first.
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.stats().connections < clients.len() as u64 {
            prop_assert!(Instant::now() < deadline, "a connection was never accepted");
            std::thread::yield_now();
        }
        let net = server.shutdown();
        prop_assert_eq!(net.connections, clients.len() as u64);
        prop_assert_eq!(net.frames_in, ops.len() as u64);
        prop_assert_eq!(net.frames_out, ops.len() as u64);
        prop_assert_eq!(net.decode_errors, 0);
        prop_assert_eq!(net.reactors.len(), reactors);
        let _ = unwrap_service(service).shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The benchmark's shape: a closed loop keeps `depth` requests in
    /// flight and sends the next one per `recv_any` — so a
    /// send often lands while more replies sit buffered, and is held
    /// until the loop next needs the wire. Every reply still matches
    /// the oracles, and every request crossed the wire exactly once.
    #[test]
    fn closed_loop_replies_match_oracles(
        pairs in prop::collection::vec((0u64..120, any::<u64>()), 0..300),
        ops in prop::collection::vec(op_strategy(150), 1..80),
        depth in 1usize..16,
        shards in 1usize..5,
    ) {
        let (service, server, mut client) = stack(&pairs, shards, 8, NetConfig::default());
        let mut unsent = ops.iter();
        let mut in_flight: HashMap<u64, &Op> = HashMap::with_capacity(depth);
        loop {
            while in_flight.len() < depth {
                let Some(op) = unsent.next() else { break };
                in_flight.insert(client.send(&op.request()).expect("send"), op);
            }
            if in_flight.is_empty() {
                break;
            }
            let (id, reply) = client.recv_any().expect("recv");
            let op = in_flight.remove(&id).expect("a reply to a request in flight");
            op.check(&pairs, &reply.expect("no error frame"));
        }
        prop_assert_eq!(client.held_bytes(), 0);
        let net = server.shutdown();
        prop_assert_eq!(net.frames_in, ops.len() as u64);
        prop_assert_eq!(net.frames_out, ops.len() as u64);
        prop_assert_eq!((net.busy_rejects, net.decode_errors), (0, 0));
        let _ = unwrap_service(service).shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(15))]

    /// Streaming parity over real TCP: for every generated scan, the
    /// concatenation of `range_stream` chunks equals the buffered
    /// `RangeScan` reply for the same interval — forward and reverse —
    /// while point lookups pipelined *around* the streams still answer
    /// their own oracles (chunk frames interleave with buffered replies
    /// on one connection; per-id routing keeps them apart).
    #[test]
    fn stream_concatenation_matches_buffered_over_the_wire(
        pairs in prop::collection::vec((0u64..120, any::<u64>()), 0..300),
        scans in prop::collection::vec(
            (range_strategy_pairs(150), any::<bool>()),
            1..10,
        ),
        probes in prop::collection::vec(0u64..150, 1..15),
        shards in 1usize..5,
        chunk in 1usize..32,
    ) {
        let config = ServeConfig::default()
            .with_shards(shards)
            .with_batch_size(8)
            .with_stream_chunk(chunk);
        let service = Arc::new(ProbeService::build_with_range(
            HashRecipe::robust64(),
            pairs.iter().copied(),
            &config,
        ));
        let server =
            WidxServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
                .expect("bind");
        let mut client = WidxClient::connect(server.local_addr()).expect("connect");

        // Pipeline point lookups, then every stream, before reaping
        // anything.
        let probe_ids: Vec<u64> = probes
            .iter()
            .map(|key| client.send(&Request::Lookup { key: *key }).unwrap())
            .collect();
        let stream_ids: Vec<u64> = scans
            .iter()
            .map(|((lo, hi), desc)| {
                client
                    .send_range_stream(*lo, *hi, usize::MAX, *desc)
                    .unwrap()
            })
            .collect();
        // Drain the streams first: point replies arriving meanwhile are
        // stashed, chunk frames route per id.
        for (((lo, hi), desc), id) in scans.iter().zip(stream_ids) {
            let mut got = Vec::new();
            while let Some(piece) = client.recv_chunk(id).expect("stream survives") {
                prop_assert!(!piece.is_empty());
                prop_assert!(piece.len() <= chunk);
                got.extend(piece);
            }
            let buffered = if *desc {
                client.range_scan_desc(*lo, *hi, usize::MAX).unwrap()
            } else {
                client.range_scan(*lo, *hi, usize::MAX).unwrap()
            };
            prop_assert_eq!(got, buffered, "[{}, {}] desc {}", lo, hi, desc);
        }
        for (key, id) in probes.iter().zip(probe_ids) {
            Op::Lookup(*key).check(&pairs, &client.recv(id).expect("point reply"));
        }
        let net = server.shutdown();
        prop_assert_eq!(net.decode_errors, 0);
        prop_assert_eq!(net.busy_rejects, 0);
        let _ = unwrap_service(service).shutdown();
    }
}

/// `(lo, hi)` spans for the streaming parity property.
fn range_strategy_pairs(keyspace: u64) -> impl Strategy<Value = (u64, u64)> {
    prop_oneof![
        (0..keyspace).prop_flat_map(move |lo| (Just(lo), lo..keyspace)),
        (0..keyspace).prop_map(|k| (k, k)),
    ]
}

/// Server shutdown mid-stream drops no accepted frame: streams the
/// server has decoded drain to a complete chunk sequence plus `RangeEnd`
/// before the event loop exits.
#[test]
fn shutdown_mid_stream_flushes_every_accepted_chunk() {
    let pairs: Vec<(u64, u64)> = (0..20_000u64).map(|k| (k, k ^ 0xABCD)).collect();
    let (service, server, mut client) = stack(&pairs, 4, 32, NetConfig::default());
    let n = 8u64;
    let ids: Vec<u64> = (0..n)
        .map(|i| {
            client
                .send_range_stream(i * 100, u64::MAX, usize::MAX, i % 2 == 1)
                .unwrap()
        })
        .collect();
    // Wait until the server has decoded every frame (our definition of
    // "accepted"), then shut down while chunks are still streaming.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().frames_in < n {
        assert!(Instant::now() < deadline, "server never saw the frames");
        std::thread::yield_now();
    }
    let _net = server.shutdown();
    let tree = BTreeIndex::build(7, pairs.iter().copied());
    for (i, id) in ids.into_iter().enumerate() {
        let i = i as u64;
        let mut got = Vec::new();
        while let Some(piece) = client.recv_chunk(id).expect("no accepted frame dropped") {
            got.extend(piece);
        }
        let want = if i % 2 == 1 {
            tree.range_scan_desc(i * 100, u64::MAX, usize::MAX)
        } else {
            tree.range_scan(i * 100, u64::MAX, usize::MAX)
        };
        assert_eq!(got, want, "stream {i} incomplete after shutdown");
    }
    let _ = unwrap_service(service).shutdown();
}

/// An abandoned stream's chunks are drained, not stashed: dropping the
/// iterator mid-stream keeps the connection serving and the stash
/// bounded (the `recv_any` stash fix).
#[test]
fn abandoned_streams_drain_instead_of_growing_the_stash() {
    let pairs: Vec<(u64, u64)> = (0..50_000u64).map(|k| (k, k)).collect();
    let (service, server, mut client) = stack(&pairs, 2, 64, NetConfig::default());
    {
        let mut stream = client.range_stream(0, u64::MAX, usize::MAX, false).unwrap();
        let first = stream.next_chunk().unwrap().expect("first chunk");
        assert!(!first.is_empty());
        // Dropped here, mid-stream: the client marks it abandoned.
    }
    // The rest of the abandoned stream's chunks (tens of thousands of
    // entries) flow in while we serve *other* traffic — they must be
    // drained on arrival, never stashed.
    for i in 0..50u64 {
        assert_eq!(client.lookup(i * 7).unwrap(), vec![i * 7], "key {i}");
        assert_eq!(client.stashed_chunks(), 0, "abandoned chunks stashed");
    }
    // A fresh stream on the same connection still works end to end.
    let got = client
        .range_stream(100, 400, usize::MAX, true)
        .unwrap()
        .collect_remaining()
        .unwrap();
    assert_eq!(
        got,
        BTreeIndex::build(7, pairs.iter().copied()).range_scan_desc(100, 400, usize::MAX)
    );
    let _ = server.shutdown();
    let _ = unwrap_service(service).shutdown();
}

/// A stream against a service without an ordered tier answers the typed
/// error through the stream API, and the connection survives.
#[test]
fn stream_without_ordered_tier_is_a_typed_error() {
    let config = ServeConfig::default().with_shards(2);
    let service = Arc::new(ProbeService::build(
        HashRecipe::robust64(),
        (0..100u64).map(|k| (k, k)),
        &config,
    ));
    let server =
        WidxServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default()).unwrap();
    let mut client = WidxClient::connect(server.local_addr()).unwrap();
    let id = client.send_range_stream(0, 10, usize::MAX, false).unwrap();
    match client.recv_chunk(id) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::NoOrderedIndex),
        other => panic!("expected NoOrderedIndex, got {other:?}"),
    }
    assert_eq!(client.lookup(5).unwrap(), vec![5], "connection survives");
    let _ = server.shutdown();
    let _ = unwrap_service(service).shutdown();
}

/// Replies interleave across ids: a client that reaps in reverse send
/// order still matches every reply to its request.
#[test]
fn out_of_order_reaping_matches_ids() {
    let pairs: Vec<(u64, u64)> = (0..2000u64).map(|k| (k, k * 3)).collect();
    let (service, server, mut client) = stack(&pairs, 4, 16, NetConfig::default());
    let ops: Vec<Op> = (0..40)
        .map(|i| match i % 3 {
            0 => Op::Lookup(i),
            1 => Op::Multi((0..i).collect()),
            _ => Op::Range(i, i + 500, 64, i % 2 == 0),
        })
        .collect();
    let ids: Vec<u64> = ops
        .iter()
        .map(|op| client.send(&op.request()).unwrap())
        .collect();
    for (op, id) in ops.iter().zip(ids.iter()).rev() {
        op.check(&pairs, &client.recv(*id).expect("answered"));
    }
    let _ = server.shutdown();
    let _ = unwrap_service(service).shutdown();
}

/// A malformed frame (good envelope, unknown opcode) gets an error
/// frame back and the connection keeps serving; a torn envelope gets an
/// error frame and a close, and the decode-error counter records both.
#[test]
fn malformed_frames_answer_errors_and_connection_survives() {
    let pairs: Vec<(u64, u64)> = (0..500u64).map(|k| (k, k + 7)).collect();
    let (service, server, _client) = stack(&pairs, 2, 8, NetConfig::default());

    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.set_nodelay(true).unwrap();

    // Frame 1: a valid envelope around an unknown opcode. Build a real
    // Lookup frame, then stamp a bogus opcode into header byte 5.
    let mut bad = Vec::new();
    wire::encode_request(&mut bad, 77, &Request::Lookup { key: 1 });
    bad[5] = 0x5A;
    raw.write_all(&bad).unwrap();
    let (id, reply) = read_reply_raw(&mut raw);
    assert_eq!(id, 77, "error frame echoes the request id");
    let err = reply.expect_err("unknown opcode must answer an error frame");
    assert_eq!(err.code, ErrorCode::Unsupported);

    // Frame 2, same connection: a well-formed request still round-trips
    // — the connection survived the malformed frame.
    let mut good = Vec::new();
    wire::encode_request(&mut good, 78, &Request::Lookup { key: 3 });
    raw.write_all(&good).unwrap();
    let (id, reply) = read_reply_raw(&mut raw);
    assert_eq!(id, 78);
    assert_eq!(
        reply.expect("a real response"),
        Response::Lookup {
            key: 3,
            payloads: vec![10]
        }
    );

    // Frame 3: a torn envelope (runt length) — the server answers one
    // error frame on the reserved connection-level id (it answers no
    // particular request), then closes; framing is lost.
    raw.write_all(&2u32.to_le_bytes()).unwrap();
    raw.write_all(&[0u8; 2]).unwrap();
    let (id, reply) = read_reply_raw(&mut raw);
    assert_eq!(id, wire::CONNECTION_ERROR_ID);
    let err = reply.expect_err("torn envelope answers an error before closing");
    assert_eq!(err.code, ErrorCode::Malformed);
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest)
        .expect("server closes the socket");
    assert!(rest.is_empty(), "nothing after the final error frame");

    let net = server.shutdown();
    assert_eq!(net.decode_errors, 2, "unknown opcode + torn envelope");
    assert_eq!(net.frames_in, 1, "only the good frame counts as input");
    let stats = unwrap_service(service).shutdown().with_net(net);
    assert!(stats.net.frames_out >= 3);
}

/// Graceful server shutdown drops no accepted request: every frame the
/// server has read is answered and flushed before the event loop exits.
#[test]
fn graceful_shutdown_answers_every_accepted_request() {
    let pairs: Vec<(u64, u64)> = (0..5000u64).map(|k| (k, k ^ 0xBEEF)).collect();
    let (service, server, mut client) = stack(&pairs, 4, 32, NetConfig::default());

    let n: u64 = 200;
    let ops: Vec<Op> = (0..n).map(|i| Op::Lookup(i * 13)).collect();
    let ids: Vec<u64> = ops
        .iter()
        .map(|op| client.send(&op.request()).unwrap())
        .collect();

    // Wait until the server has decoded every frame (our definition of
    // "accepted"), then shut it down while replies are still in flight.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().frames_in < n {
        assert!(Instant::now() < deadline, "server never saw all frames");
        std::thread::yield_now();
    }
    let net = server.shutdown();
    assert_eq!(net.frames_in, n);
    assert_eq!(net.frames_out, n, "drain wrote every reply before exit");

    // Every reply is sitting in the socket: all ids resolve, none lost.
    for (op, id) in ops.iter().zip(ids) {
        op.check(
            &pairs,
            &client.recv(id).expect("no accepted request dropped"),
        );
    }
    let stats = unwrap_service(service).shutdown().with_net(net);
    assert_eq!(stats.latency.count, n as usize);
}

/// The per-connection in-flight cap turns into typed `Busy` frames, and
/// the busy-reject counter sees them. `Busy` is the only error a
/// saturated server sends: a request is answered in full or refused
/// with that code — never dropped, never another error.
#[test]
fn inflight_cap_rejects_with_busy() {
    let pairs: Vec<(u64, u64)> = (0..100u64).map(|k| (k, k)).collect();
    let (service, server, mut client) = stack(
        &pairs,
        2,
        8,
        NetConfig::default().with_max_inflight(0), // window of zero: everything is over cap
    );
    match client.call(&Request::Lookup { key: 1 }) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::Busy),
        other => panic!("expected Busy, got {other:?}"),
    }
    let net = server.shutdown();
    assert_eq!(net.busy_rejects, 1);
    let _ = unwrap_service(service).shutdown();

    // A window of two under a 100-deep pipeline: some requests fit,
    // the rest are refused, and the counter matches what the client saw.
    let (service, server, mut client) =
        stack(&pairs, 2, 8, NetConfig::default().with_max_inflight(2));
    let ids: Vec<u64> = (0..100u64)
        .map(|key| client.send(&Request::Lookup { key }).unwrap())
        .collect();
    let mut busy = 0u64;
    for (key, id) in (0u64..).zip(ids) {
        match client.recv(id) {
            Ok(Response::Lookup { payloads, .. }) => assert_eq!(payloads, vec![key]),
            Err(ClientError::Remote(e)) => {
                assert_eq!(e.code, ErrorCode::Busy, "unexpected server error: {e}");
                busy += 1;
            }
            other => panic!("expected a Lookup reply or Busy, got {other:?}"),
        }
    }
    let net = server.shutdown();
    assert_eq!(net.busy_rejects, busy);
    assert_eq!(net.decode_errors, 0);
    let _ = unwrap_service(service).shutdown();
}

/// A legal request whose reply cannot fit in one frame (an unbounded
/// scan over more entries than 16 MiB of pairs) answers a typed
/// `TooLarge` error instead of killing the event loop, and the
/// connection keeps serving.
#[test]
fn oversize_reply_answers_too_large_and_survives() {
    // Just over the cap: (2^24 - 16) / 16 = 1_048_575 pairs fit.
    let n = 1_048_600u64;
    let pairs: Vec<(u64, u64)> = (0..n).map(|k| (k, k)).collect();
    let (service, server, mut client) = stack(&pairs, 2, 64, NetConfig::default());
    match client.range_scan(0, u64::MAX, usize::MAX) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::TooLarge),
        other => panic!("expected TooLarge, got {other:?}"),
    }
    // The event loop survived: a bounded scan still round-trips.
    assert_eq!(client.range_scan(0, 2, usize::MAX).unwrap().len(), 3);
    let _ = server.shutdown();
    let _ = unwrap_service(service).shutdown();
}

/// Graceful shutdown against a peer that never reads its replies must
/// not hang: the drain abandons the undrainable connection after
/// `drain_timeout`.
#[test]
fn shutdown_abandons_a_peer_that_stops_reading() {
    let pairs: Vec<(u64, u64)> = (0..100_000u64).map(|k| (k, k)).collect();
    let (service, server, mut client) = stack(
        &pairs,
        2,
        64,
        NetConfig::default().with_drain_timeout(Duration::from_millis(200)),
    );
    // ~20 unbounded scans ≈ 32 MB of replies: far beyond what the
    // kernel socket buffers absorb, and this client never reads.
    for _ in 0..20 {
        let _ = client
            .send(&Request::RangeScan {
                lo: 0,
                hi: u64::MAX,
                limit: usize::MAX,
                desc: false,
            })
            .unwrap();
    }
    // Wait until the server has decoded them all, so the drain really
    // has undrainable write backlog to abandon.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().frames_in < 20 {
        assert!(Instant::now() < deadline, "server never saw the frames");
        std::thread::yield_now();
    }
    let started = Instant::now();
    let _ = server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shutdown must be bounded by the drain timeout"
    );
    let _ = unwrap_service(service).shutdown();
}

/// The write-backlog cap paces reply encoding: with a cap far smaller
/// than the response volume, a slowly reaping client still receives
/// every reply intact — completed responses wait in the pending set
/// instead of ballooning the connection's buffer.
#[test]
fn write_backlog_paces_large_replies_without_loss() {
    let pairs: Vec<(u64, u64)> = (0..50_000u64).map(|k| (k, k * 7)).collect();
    let (service, server, mut client) = stack(
        &pairs,
        2,
        64,
        NetConfig::default().with_max_write_backlog(64 * 1024), // ~1/12 of one reply
    );
    let scans = 16u64;
    let ids: Vec<u64> = (0..scans)
        .map(|_| {
            client
                .send(&Request::RangeScan {
                    lo: 0,
                    hi: u64::MAX,
                    limit: usize::MAX,
                    desc: false,
                })
                .unwrap()
        })
        .collect();
    for id in ids {
        match client.recv(id).expect("paced, not dropped") {
            Response::RangeScan { entries } => assert_eq!(entries.len(), pairs.len()),
            other => panic!("wrong variant: {other:?}"),
        }
    }
    let net = server.shutdown();
    assert_eq!(net.frames_out, scans);
    let _ = unwrap_service(service).shutdown();
}

/// A corrupt reply frame with a sound envelope costs the client one
/// `recv` error, not the connection: the frame is skipped and
/// everything pipelined behind it still arrives (the spec's resync
/// contract, exercised against a hand-rolled server).
#[test]
fn client_skips_corrupt_reply_frames_and_resyncs() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake_server = std::thread::spawn(move || {
        let (mut peer, _) = listener.accept().unwrap();
        // Reply to id 0 with a frame from "the future" (unknown
        // version), then to id 1 with a valid response.
        let mut bad = Vec::new();
        wire::encode_response(
            &mut bad,
            0,
            &Response::Lookup {
                key: 1,
                payloads: vec![2],
            },
        );
        bad[4] = 9; // future version byte; envelope still sound
        peer.write_all(&bad).unwrap();
        let mut good = Vec::new();
        wire::encode_response(
            &mut good,
            1,
            &Response::Lookup {
                key: 3,
                payloads: vec![4],
            },
        );
        peer.write_all(&good).unwrap();
        // Hold the socket open until the client is done reading.
        let mut sink = [0u8; 1024];
        while peer.read(&mut sink).map(|n| n > 0).unwrap_or(false) {}
    });

    let mut client = WidxClient::connect(addr).unwrap();
    let id0 = client.send(&Request::Lookup { key: 1 }).unwrap();
    let id1 = client.send(&Request::Lookup { key: 3 }).unwrap();
    match client.recv(id0) {
        Err(ClientError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
        other => panic!("corrupt frame must surface an error, got {other:?}"),
    }
    assert_eq!(
        client.recv(id1).expect("the connection resynced"),
        Response::Lookup {
            key: 3,
            payloads: vec![4]
        }
    );
    drop(client);
    fake_server.join().unwrap();
}

/// A `RangeScan` against a point-only service answers the typed
/// `NoOrderedIndex` error over the wire.
#[test]
fn range_scan_without_ordered_tier_is_a_typed_error() {
    let config = ServeConfig::default().with_shards(2);
    let service = Arc::new(ProbeService::build(
        HashRecipe::robust64(),
        (0..100u64).map(|k| (k, k)),
        &config,
    ));
    let server =
        WidxServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default()).unwrap();
    let mut client = WidxClient::connect(server.local_addr()).unwrap();
    match client.range_scan(0, 10, usize::MAX) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::NoOrderedIndex),
        other => panic!("expected NoOrderedIndex, got {other:?}"),
    }
    assert_eq!(client.lookup(5).unwrap(), vec![5], "point path unaffected");
    let _ = server.shutdown();
    let _ = unwrap_service(service).shutdown();
}

/// Reads one reply frame from a raw socket (for the malformed-frame
/// test, which cannot use `WidxClient` — it needs to write garbage).
fn read_reply_raw(stream: &mut TcpStream) -> (u64, Result<Response, widx_net::ErrorReply>) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match wire::decode_reply(&buf).expect("reply framing holds") {
            Decoded::Frame { id, value, .. } => {
                return (
                    id,
                    value.map(|reply| match reply {
                        widx_net::Reply::Response(response) => response,
                        other => panic!("unexpected stream frame: {other:?}"),
                    }),
                )
            }
            Decoded::Corrupt { error, .. } => panic!("corrupt reply: {error:?}"),
            Decoded::Incomplete => {
                let n = stream.read(&mut chunk).expect("read reply");
                assert!(n > 0, "connection closed before a full reply");
                buf.extend_from_slice(&chunk[..n]);
            }
        }
    }
}
