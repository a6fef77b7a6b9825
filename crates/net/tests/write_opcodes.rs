//! End-to-end tests for the write wire opcodes (`Insert` 0x0A,
//! `Delete` 0x0B, `Update` 0x0C): a `WidxClient` mutating a running
//! `WidxServer` must get positional per-key acks back under the
//! mirrored reply opcodes, and the mutations must be visible to
//! subsequent reads through both tiers. The suite runs under whatever
//! poller backend `WIDX_POLLER` selects, so CI exercises it on both
//! epoll and poll.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use widx_db::hash::HashRecipe;
use widx_net::{NetConfig, WidxClient, WidxServer};
use widx_obs::json::find_u64;
use widx_serve::{ProbeService, Request, Response, ServeConfig};

const ENTRIES: u64 = 2048;

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

/// Seeds `(k, k + 1)` for even `k` only, leaving odd keys free for the
/// tests to insert.
fn start() -> (Arc<ProbeService>, WidxServer) {
    let service = Arc::new(ProbeService::build_with_range(
        HashRecipe::robust64(),
        (0..ENTRIES).map(|k| (k * 2, k * 2 + 1)),
        &serve_config(),
    ));
    let server = WidxServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
        .expect("bind server");
    (service, server)
}

#[test]
fn writes_round_trip_over_tcp() {
    let (service, server) = start();
    let mut client = WidxClient::connect(server.local_addr()).expect("connect");

    // Insert fresh odd keys: every ack true, reads see them.
    let pairs: Vec<(u64, u64)> = (0..16u64).map(|i| (i * 2 + 1, 9000 + i)).collect();
    assert_eq!(client.insert(&pairs).expect("insert"), vec![true; 16]);
    assert_eq!(client.lookup(1).expect("lookup"), vec![9000]);
    assert_eq!(
        client.range_scan(0, 3, usize::MAX).expect("scan"),
        vec![(0, 1), (1, 9000), (2, 3), (3, 9001)],
        "the ordered tier serves inserted keys in key order"
    );

    // Update: hits rewrite, misses ack false and never insert.
    let acks = client.update(&[(1, 1111), (999_999, 5)]).expect("update");
    assert_eq!(acks, vec![true, false]);
    assert_eq!(client.lookup(1).expect("lookup"), vec![1111]);
    assert_eq!(client.lookup(999_999).expect("lookup"), Vec::<u64>::new());

    // Delete: positional acks across hits and misses.
    let acks = client.delete(&[1, 999_999, 3]).expect("delete");
    assert_eq!(acks, vec![true, false, true]);
    assert_eq!(client.lookup(1).expect("lookup"), Vec::<u64>::new());
    assert_eq!(
        client.range_scan(0, 3, usize::MAX).expect("scan"),
        vec![(0, 1), (2, 3)],
        "deletes reach the ordered tier too"
    );

    drop(client);
    let _ = server.shutdown();
    let stats = unwrap_service(service).shutdown();
    // 16 inserts + 2 updates + 3 deletes, each applied in both tiers.
    assert_eq!(stats.total_write_ops(), 21 * 2);
}

#[test]
fn writes_pipeline_with_reads() {
    let (service, server) = start();
    let mut client = WidxClient::connect(server.local_addr()).expect("connect");

    // Interleave write and read sends without waiting, then reap by id:
    // ids make out-of-order completion safe, including for mutations.
    let mut write_ids = Vec::new();
    let mut read_ids = Vec::new();
    for i in 0..24u64 {
        let id = client
            .send(&Request::Insert {
                pairs: vec![(10_001 + i, i)],
            })
            .expect("send insert");
        write_ids.push(id);
        let key = (i % ENTRIES) * 2;
        read_ids.push((key, client.send(&Request::Lookup { key }).expect("send")));
    }
    for id in write_ids {
        match client.recv(id).expect("recv write") {
            Response::Write { acks } => assert_eq!(acks, vec![true]),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    for (key, id) in read_ids {
        match client.recv(id).expect("recv read") {
            Response::Lookup { payloads, .. } => assert_eq!(payloads, vec![key + 1]),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    // The stats opcode reports the write counters the load produced.
    let json = client.stats_json().expect("stats scrape");
    assert_eq!(
        find_u64(&json, "total_write_ops"),
        Some(24 * 2),
        "both tiers count each op: {json}"
    );
    assert_eq!(find_u64(&json, "total_write_applied"), Some(24 * 2));

    drop(client);
    let _ = server.shutdown();
    let _ = unwrap_service(service).shutdown();
}

/// Readers against a writer over loopback, each on its own connection:
/// the depth-1 lookups are walked on the reactor thread, under the
/// shard's read guard, while the updates go through the shard workers'
/// write barriers. Every read returns a sequence number ≥ the last one
/// acked (to the writer's client) before the read was sent and ≤ the
/// last one sent when its reply arrived; the read-back holds the last
/// write of every key in both tiers. `rw_hot`'s rule, as a test — the
/// loopback twin of `widx-serve`'s `reader_vs_writer`.
#[test]
fn reads_racing_updates_see_acked_writes_and_nothing_unsent() {
    const KEYS: u64 = 8;
    const WRITES: u64 = 1500;
    let (service, server) = start();
    let addr = server.local_addr();
    // The hot set is the seeded even keys below `2 * KEYS`, every one
    // reset to sequence 0 before the race starts.
    let hot = |i: u64| i * 2;
    let mut writer = WidxClient::connect(addr).expect("connect");
    let zeroed: Vec<(u64, u64)> = (0..KEYS).map(|i| (hot(i), 0)).collect();
    assert_eq!(
        writer.update(&zeroed).expect("update"),
        vec![true; KEYS as usize]
    );
    let cells = || -> Vec<AtomicU64> { (0..KEYS).map(|_| AtomicU64::new(0)).collect() };
    let (sent, acked) = (cells(), cells());
    let done = AtomicBool::new(false);
    let step = |state: &mut u64| {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (*state >> 33) % KEYS
    };

    std::thread::scope(|scope| {
        for reader in 0..2u64 {
            let (sent, acked, done) = (&sent, &acked, &done);
            scope.spawn(move || {
                let mut client = WidxClient::connect(addr).expect("connect");
                let mut rng = reader + 1;
                while !done.load(SeqCst) {
                    let i = step(&mut rng);
                    let floor = acked[i as usize].load(SeqCst);
                    let payloads = client.lookup(hot(i)).expect("lookup");
                    let ceiling = sent[i as usize].load(SeqCst);
                    assert_eq!(payloads.len(), 1, "key {}: {payloads:?}", hot(i));
                    assert!(
                        (floor..=ceiling).contains(&payloads[0]),
                        "key {} read sequence {} outside [{floor} acked before send, \
                         {ceiling} sent at reply]",
                        hot(i),
                        payloads[0]
                    );
                }
            });
        }
        let mut rng = 0xD1CE;
        for seq in 1..=WRITES {
            let i = step(&mut rng);
            sent[i as usize].store(seq, SeqCst);
            assert_eq!(writer.update(&[(hot(i), seq)]).expect("update"), vec![true]);
            acked[i as usize].store(seq, SeqCst);
        }
        done.store(true, SeqCst);
    });

    for i in 0..KEYS {
        let last = sent[i as usize].load(SeqCst);
        assert_eq!(writer.lookup(hot(i)).expect("lookup"), vec![last]);
        assert_eq!(
            writer.range_scan(hot(i), hot(i), usize::MAX).expect("scan"),
            vec![(hot(i), last)],
            "the ordered tier holds the same last write"
        );
    }
    drop(writer);
    let _ = server.shutdown();
    let stats = unwrap_service(service).shutdown();
    assert_eq!(stats.total_write_ops(), (KEYS + WRITES) * 2, "both tiers");
}

#[test]
fn empty_write_batches_ack_instantly() {
    let (service, server) = start();
    let mut client = WidxClient::connect(server.local_addr()).expect("connect");
    assert_eq!(client.insert(&[]).expect("insert"), Vec::<bool>::new());
    assert_eq!(client.delete(&[]).expect("delete"), Vec::<bool>::new());
    assert_eq!(client.update(&[]).expect("update"), Vec::<bool>::new());
    drop(client);
    let _ = server.shutdown();
    let _ = unwrap_service(service).shutdown();
}
