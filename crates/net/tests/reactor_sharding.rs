//! Multi-reactor front-end behaviour that the parity suites cannot see
//! from the wire: round-robin connection pinning (via the per-reactor
//! gauges), graceful shutdown draining a backlog parked on a
//! *secondary* reactor, the client's corked batch mode, and two reactors
//! going for one shard's write guard at once.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use widx_db::hash::HashRecipe;
use widx_net::wire::{self, Decoded};
use widx_net::{NetConfig, Reply, WidxClient, WidxServer};
use widx_serve::{ProbeService, Request, Response, ServeConfig};

fn stack(pairs: &[(u64, u64)], net: NetConfig) -> (Arc<ProbeService>, WidxServer) {
    let config = ServeConfig::default().with_shards(2).with_batch_size(16);
    let service = Arc::new(ProbeService::build_with_range(
        HashRecipe::robust64(),
        pairs.iter().copied(),
        &config,
    ));
    let server = WidxServer::bind("127.0.0.1:0", Arc::clone(&service), net).expect("bind");
    (service, server)
}

fn unwrap_service(service: Arc<ProbeService>) -> ProbeService {
    Arc::try_unwrap(service)
        .ok()
        .expect("server has released its service handle")
}

/// The acceptor pins connections round-robin and each stays pinned for
/// life: with 8 connections over 4 reactors, every reactor's gauge must
/// settle at exactly 2 open connections.
#[test]
fn connections_pin_round_robin_across_reactors() {
    let pairs: Vec<(u64, u64)> = (0..1000u64).map(|k| (k, k + 1)).collect();
    let (service, server) = stack(&pairs, NetConfig::default().with_reactors(4));
    let mut clients: Vec<WidxClient> = (0..8)
        .map(|_| WidxClient::connect(server.local_addr()).expect("connect"))
        .collect();
    // A round-trip on every connection proves each reactor has adopted
    // (and served) its share.
    for (i, client) in clients.iter_mut().enumerate() {
        let key = i as u64;
        assert_eq!(client.lookup(key).expect("lookup"), vec![key + 1]);
    }
    // Gauges are re-published once per loop pass; give them a moment.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let net = server.stats();
        assert_eq!(net.reactors.len(), 4);
        if net.reactors.iter().all(|r| r.open_connections == 2) {
            assert_eq!(net.open_connections, 8, "total is the sum of the gauges");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "pinning never settled at 2 connections per reactor: {:?}",
            net.reactors
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(clients);
    let net = server.shutdown();
    assert_eq!(net.connections, 8);
    let _ = unwrap_service(service).shutdown();
}

/// Graceful shutdown with a nonempty write backlog on a *secondary*
/// reactor: a slow reader pinned off the first reactor must still
/// receive every byte of its accepted reply (then a clean EOF) even
/// though shutdown begins while megabytes sit unflushed there.
#[test]
fn shutdown_drains_backlog_on_a_secondary_reactor() {
    let pairs: Vec<(u64, u64)> = (0..200_000u64).map(|k| (k, k ^ 0x5A5A)).collect();
    let (service, server) = stack(
        &pairs,
        NetConfig::default()
            .with_reactors(2)
            .with_drain_timeout(Duration::from_secs(30)),
    );
    // First connection pins to reactor 0; the slow reader is the second
    // accept, pinned to reactor 1.
    let mut first = WidxClient::connect(server.local_addr()).expect("connect first");
    assert_eq!(first.lookup(7).expect("warm-up"), vec![7 ^ 0x5A5A]);
    let mut slow = TcpStream::connect(server.local_addr()).expect("connect slow");
    slow.set_nodelay(true).expect("nodelay");
    let mut frame = Vec::new();
    wire::encode_request(
        &mut frame,
        42,
        &Request::RangeScan {
            lo: 0,
            hi: u64::MAX,
            limit: usize::MAX,
            desc: false,
        },
    );
    slow.write_all(&frame).expect("send scan");
    // Wait until the server has decoded the frame (it is "accepted"),
    // then begin shutdown while its ~3 MiB reply is still draining.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().frames_in < 2 {
        assert!(Instant::now() < deadline, "server never saw the scan");
        std::thread::yield_now();
    }
    let shutter = std::thread::spawn(move || server.shutdown());
    // Read slowly: small chunks with pauses, so the reactor's write
    // backlog is nonempty for most of the drain.
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    let entries = loop {
        match wire::decode_reply(&buf).expect("framing holds") {
            Decoded::Frame { id, value, .. } => {
                assert_eq!(id, 42);
                match value.expect("a real reply, not an error") {
                    Reply::Response(Response::RangeScan { entries }) => break entries,
                    other => panic!("unexpected reply: {other:?}"),
                }
            }
            Decoded::Corrupt { error, .. } => panic!("corrupt reply: {error:?}"),
            Decoded::Incomplete => {
                let n = slow.read(&mut chunk).expect("read reply");
                assert!(n > 0, "server closed before the accepted reply drained");
                buf.extend_from_slice(&chunk[..n]);
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    };
    assert_eq!(entries.len(), pairs.len(), "the whole reply arrived");
    assert_eq!(entries[123], (123, 123 ^ 0x5A5A));
    // After the drain the server closes cleanly: EOF, no stray bytes.
    let mut rest = Vec::new();
    slow.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty(), "nothing after the reply");
    let net = shutter.join().expect("shutdown thread");
    assert_eq!(net.frames_out, 2, "warm-up + the drained scan");
    drop(first);
    let _ = unwrap_service(service).shutdown();
}

/// Corked sends leave in one batch: nothing reaches the server until a
/// flush (explicit or read-driven), and every pipelined reply still
/// matches its id.
#[test]
fn corked_batches_flush_as_one_and_answer_correctly() {
    let pairs: Vec<(u64, u64)> = (0..5000u64).map(|k| (k, k * 3)).collect();
    let (service, server) = stack(&pairs, NetConfig::default().with_reactors(2));
    let mut client = WidxClient::connect(server.local_addr()).expect("connect");
    client.set_corked(true).expect("cork");
    let n = 100u64;
    let ids: Vec<u64> = (0..n)
        .map(|i| client.send(&Request::Lookup { key: i }).expect("send"))
        .collect();
    assert!(client.corked_bytes() > 0, "frames buffered, not written");
    // Nothing has hit the wire yet: the server has seen no frames.
    assert_eq!(server.stats().frames_in, 0, "cork held the batch back");
    // recv flushes the cork automatically before blocking.
    for (i, id) in ids.into_iter().enumerate() {
        match client.recv(id).expect("answered") {
            Response::Lookup { key, payloads } => {
                assert_eq!(key, i as u64);
                assert_eq!(payloads, vec![i as u64 * 3]);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
    assert_eq!(client.corked_bytes(), 0, "flush emptied the cork");
    // Uncorking flushes whatever is pending.
    let id = client.send(&Request::Lookup { key: 1 }).expect("send");
    assert!(client.corked_bytes() > 0);
    client.set_corked(false).expect("uncork");
    assert_eq!(client.corked_bytes(), 0);
    assert!(matches!(
        client.recv(id).expect("answered"),
        Response::Lookup { .. }
    ));
    let net = server.shutdown();
    assert_eq!(net.frames_in, n + 1);
    let _ = unwrap_service(service).shutdown();
}

/// Two reactors, one shard. Sub-ring writes are applied by the reactor
/// that decoded them when the owning shards are idle and grant
/// `try_write`; here two connections, pinned to different reactors,
/// each pipeline `Update`s carrying rising sequence numbers onto their
/// own keys — all of them owned by the *same* hash shard and the same
/// ordered shard, so both reactors go for one shard's write guard at
/// once. The loser must queue (it is refused the guard, or finds the
/// shard no longer idle) and whatever it pipelined behind must queue
/// behind that: every ack is `true` and every key ends at the last
/// sequence its writer sent, in both tiers, with nothing refused.
#[test]
fn two_reactors_contending_for_one_shards_write_guard_keep_per_key_order() {
    const KEYS_EACH: usize = 4;
    const WRITES: u64 = 2000;
    const DEPTH: usize = 32;
    let pairs: Vec<(u64, u64)> = (0..4096u64).map(|k| (k, 0)).collect();
    let (service, server) = stack(&pairs, NetConfig::default().with_reactors(2));
    let ordered = service.ordered().expect("range tier");
    let owned: Vec<u64> = (0..4096u64)
        .filter(|key| service.sharded().shard_of(*key) == 0 && ordered.write_shard_of(*key) == 0)
        .take(2 * KEYS_EACH)
        .collect();
    assert_eq!(owned.len(), 2 * KEYS_EACH, "one shard pair owns them all");
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for keys in owned.chunks(KEYS_EACH) {
            scope.spawn(move || {
                let mut client = WidxClient::connect(addr).expect("connect");
                let mut outstanding = VecDeque::with_capacity(DEPTH);
                let reap = |client: &mut WidxClient, id| match client.recv(id) {
                    Ok(Response::Write { acks }) => assert_eq!(acks, vec![true]),
                    other => panic!("update answered with {other:?}"),
                };
                for seq in 1..=WRITES {
                    let key = keys[seq as usize % KEYS_EACH];
                    let update = Request::Update {
                        pairs: vec![(key, seq)],
                    };
                    outstanding.push_back(client.send(&update).expect("send"));
                    if outstanding.len() == DEPTH {
                        reap(&mut client, outstanding.pop_front().expect("non-empty"));
                    }
                }
                for id in outstanding {
                    reap(&mut client, id);
                }
            });
        }
    });

    let mut client = WidxClient::connect(addr).expect("connect");
    for keys in owned.chunks(KEYS_EACH) {
        for (slot, key) in keys.iter().enumerate() {
            let last = (1..=WRITES)
                .rev()
                .find(|seq| *seq as usize % KEYS_EACH == slot);
            let last = last.expect("every slot is written");
            assert_eq!(
                client.lookup(*key).expect("lookup"),
                vec![last],
                "key {key}"
            );
            assert_eq!(
                client.range_scan(*key, *key, usize::MAX).expect("scan"),
                vec![(*key, last)],
                "key {key}: the ordered tier holds the same last write"
            );
        }
    }
    drop(client);
    let net = server.shutdown();
    assert_eq!((net.busy_rejects, net.decode_errors), (0, 0));
    assert!(net.reactors.len() == 2 && net.connections == 3);
    let stats = unwrap_service(service).shutdown();
    assert_eq!(stats.total_write_ops(), 2 * WRITES * 2, "both tiers");
}
