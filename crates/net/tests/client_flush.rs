//! When `WidxClient` writes: a send leaves at once unless the client
//! already holds a whole unread reply, in which case it is held until
//! the next read that needs the wire (or `flush`, the 64 KiB bound, or
//! drop). Every wait here is bounded; none relies
//! on a sleep to order events. The suite runs under whatever poller
//! backend `WIDX_POLLER` selects.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use widx_db::hash::HashRecipe;
use widx_net::{NetConfig, WidxClient, WidxServer};
use widx_obs::json::find_u64;
use widx_serve::{ProbeService, Request, Response, ServeConfig, Stage};

const ENTRIES: u64 = 4096;

/// Serves `(k, k + 1)` for every `k < ENTRIES`, in both tiers.
fn start() -> (Arc<ProbeService>, WidxServer) {
    let service = Arc::new(ProbeService::build_with_range(
        HashRecipe::robust64(),
        (0..ENTRIES).map(|k| (k, k + 1)),
        &ServeConfig::default().with_shards(2).with_batch_size(16),
    ));
    let server = WidxServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
        .expect("bind server");
    (service, server)
}

fn stop(server: WidxServer, service: Arc<ProbeService>) {
    let net = server.shutdown();
    assert_eq!((net.busy_rejects, net.decode_errors), (0, 0));
    let _ = Arc::try_unwrap(service)
        .ok()
        .expect("server thread has released its service handle")
        .shutdown();
}

fn connect(server: &WidxServer) -> WidxClient {
    WidxClient::connect(server.local_addr()).expect("connect")
}

fn lookup(key: u64) -> Request {
    Request::Lookup { key }
}

fn answer(key: u64) -> Response {
    Response::Lookup {
        key,
        payloads: vec![key + 1],
    }
}

/// Waits until the server has written `n` replies to its sockets (the
/// reply-write stage counts a reply once its last byte is written), so
/// on loopback they already sit in the client's receive buffer.
fn await_replies_written(service: &ProbeService, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while service
        .stage_times()
        .snapshot()
        .get(Stage::ReplyWrite)
        .count()
        < n
    {
        assert!(Instant::now() < deadline, "the server never answered");
        std::thread::yield_now();
    }
}

/// Runs `f` on its own thread and fails the test if it has not returned
/// within the bound: the "never deadlocks" half of a test.
fn bounded<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()).expect("test alive"));
    rx.recv_timeout(Duration::from_secs(30))
        .expect("the client blocked: a held frame never left")
}

#[test]
fn a_send_with_no_reply_buffered_reaches_the_server_before_any_recv() {
    let (service, server) = start();
    let mut client = connect(&server);
    let mut observer = connect(&server);
    let id = client.send(&lookup(3)).expect("send");
    assert_eq!(client.held_bytes(), 0, "written, not held");
    // The observer's scrapes are frames too: the lookup has arrived
    // once `frames_in` counts more than them.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut scrapes = 0;
    loop {
        let json = observer.stats_json().expect("scrape");
        scrapes += 1;
        if find_u64(&json, "frames_in").expect("frames_in field") > scrapes {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the send never reached the server"
        );
        std::thread::yield_now();
    }
    assert_eq!(client.recv(id).expect("answered"), answer(3));
    drop((client, observer));
    stop(server, service);
}

#[test]
fn a_send_behind_a_buffered_reply_is_held_until_the_next_read() {
    let (service, server) = start();
    let mut client = connect(&server);
    let a = client.send(&lookup(1)).expect("send A");
    let b = client.send(&lookup(2)).expect("send B");
    await_replies_written(&service, 2);

    // One read brings both replies in; the first comes back, the second
    // stays buffered.
    let (first, reply) = client.recv_any().expect("recv");
    let (other, other_key) = if first == a { (b, 2) } else { (a, 1) };
    assert_eq!(
        reply.expect("reply"),
        answer(if first == a { 1 } else { 2 })
    );

    let c = client.send(&lookup(3)).expect("send C");
    assert!(
        client.held_bytes() > 0,
        "a whole reply is buffered: C is held"
    );
    let (got, reply) = client.recv_any().expect("recv");
    assert_eq!((got, reply.expect("reply")), (other, answer(other_key)));
    assert!(
        client.held_bytes() > 0,
        "that reply came from the buffer: C is still held"
    );
    let (got, reply) = client.recv_any().expect("recv");
    assert_eq!((got, reply.expect("reply")), (c, answer(3)));
    assert_eq!(
        client.held_bytes(),
        0,
        "the read that needed the wire sent C"
    );

    drop(client);
    let net = server.stats();
    assert_eq!((net.frames_in, net.frames_out), (3, 3));
    stop(server, service);
}

#[test]
fn call_and_recv_with_replies_stashed_never_deadlock() {
    let (service, server) = start();
    let mut client = connect(&server);
    let ids: Vec<u64> = (0..5)
        .map(|key| client.send(&lookup(key)).expect("send"))
        .collect();
    await_replies_written(&service, 5);
    let client = bounded(move || {
        // Reaping the middle id stashes the two before it and leaves the
        // two after it buffered...
        assert_eq!(client.recv(ids[2]).expect("recv"), answer(2));
        // ...so this call's send is held, and its recv must stash the
        // buffered replies, then flush before it blocks.
        assert_eq!(client.call(&lookup(9)).expect("call"), answer(9));
        assert_eq!(client.lookup(10).expect("lookup"), vec![11]);
        for key in [0, 1, 3, 4] {
            assert_eq!(client.recv(ids[key]).expect("stashed"), answer(key as u64));
        }
        client
    });
    drop(client);
    stop(server, service);
}

/// A send held behind a buffered reply is not lost with its client:
/// drop flushes it. The held `Insert` is read back over a second
/// connection.
#[test]
fn dropping_a_client_holding_a_send_behind_a_reply_flushes_it() {
    let (service, server) = start();
    let mut writer = connect(&server);
    let ids = [1, 2].map(|key| writer.send(&lookup(key)).expect("send"));
    await_replies_written(&service, 2);
    assert!(ids.contains(&writer.recv_any().expect("recv").0));
    let key = ENTRIES + 1;
    writer
        .send(&Request::Insert {
            pairs: vec![(key, 77)],
        })
        .expect("send insert");
    assert!(writer.held_bytes() > 0, "the insert is held");
    drop(writer);
    // Nothing acked the insert, so no read is owed it: poll.
    let mut reader = connect(&server);
    let deadline = Instant::now() + Duration::from_secs(30);
    while reader.lookup(key).expect("lookup").is_empty() {
        assert!(
            Instant::now() < deadline,
            "the held insert was lost with its client"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(reader.lookup(key).expect("lookup"), vec![77]);
    drop(reader);
    stop(server, service);
}
