//! Regression tests for the event loop's lost-wakeup race.
//!
//! The pre-poller loop made a final reap pass, saw no progress, and
//! went to `thread::sleep(idle_backoff)` — so a `ResponseState` waker
//! that fired *between that check and the sleep* (a shard worker
//! completing a request on its own thread) was not observed until the
//! sleep expired. With the poller, the waker rings the wake handle and
//! the blocking `poller.wait` returns immediately: these tests pin an
//! `idle_backoff` far above the service's completion time and assert
//! the reply still arrives at completion speed. Against the old sleep
//! loop they fail by construction — the reply cannot beat the sleep.

use std::sync::Arc;
use std::time::{Duration, Instant};

use widx_db::hash::HashRecipe;
use widx_net::{NetConfig, WidxClient, WidxServer};
use widx_serve::{ProbeService, ServeConfig, Stage};

/// A small point-lookup service (keys `0..1000`, payload `key + 1`).
fn small_service() -> Arc<ProbeService> {
    Arc::new(ProbeService::build(
        HashRecipe::robust64(),
        (0..1000u64).map(|k| (k, k + 1)),
        &ServeConfig::default().with_shards(2),
    ))
}

/// Index size and probe count of the walk-gated fixture: one shard, so
/// the whole `JoinProbe` is one batch on one worker, and enough keys
/// over a large enough index that the walk alone takes tens of
/// milliseconds in the test profile — a completion that lands squarely
/// inside the server's idle wait. (The frame stays well under
/// `MAX_BODY_LEN`: 8 B per key out, 16 B per matched pair back.)
const GATED_ENTRIES: u64 = 1 << 19;
const GATED_PROBES: u64 = 1 << 18;

fn walk_gated_service() -> Arc<ProbeService> {
    Arc::new(ProbeService::build(
        HashRecipe::robust64(),
        (0..GATED_ENTRIES).map(|k| (k, k + 1)),
        &ServeConfig::default().with_shards(1),
    ))
}

/// The poller backends available on this platform. Every backend
/// observes real socket readiness, so a pinned huge `idle_backoff`
/// measures the completion wake on each of them.
fn readiness_backends() -> Vec<&'static str> {
    if cfg!(target_os = "linux") {
        vec!["epoll", "poll"]
    } else {
        vec!["poll"]
    }
}

#[test]
fn completion_landing_mid_wait_is_flushed_at_completion_speed() {
    let idle_backoff = Duration::from_millis(1500);
    // Every other probe hits; scattered so the walk misses cache.
    let keys: Vec<u64> = (0..GATED_PROBES)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (2 * GATED_ENTRIES))
        .collect();
    let hits = keys.iter().filter(|k| **k < GATED_ENTRIES).count();
    for backend in readiness_backends() {
        let service = walk_gated_service();
        let server = WidxServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetConfig::default()
                .with_idle_backoff(idle_backoff)
                .with_poller_backend(backend),
        )
        .expect("bind");
        let mut client = WidxClient::connect(server.local_addr()).expect("connect");

        let started = Instant::now();
        let pairs = client.join_probe(&keys).expect("join_probe");
        let elapsed = started.elapsed();
        assert_eq!(pairs.len(), hits, "{backend}");

        // The reply really was gated on the walk (the race window this
        // test aims at): the worker was still walking — by the
        // service's own account — long after the reactor had nothing
        // left to do but block in `poller.wait`...
        let walk = Duration::from_nanos(service.stage_times().snapshot().get(Stage::Walk).sum_ns);
        assert!(
            walk >= Duration::from_millis(5) && elapsed >= walk,
            "{backend}: reply at {elapsed:?} against a {walk:?} walk — \
             the completion did not land inside the idle wait"
        );
        // ...and the wake handle cut the wait short: well under the
        // idle backoff the old loop would have slept out.
        assert!(
            elapsed < idle_backoff / 2,
            "{backend}: reply took {elapsed:?} with idle_backoff {idle_backoff:?} — \
             the completion wake was lost"
        );

        let _ = server.shutdown();
        drop(
            Arc::try_unwrap(service)
                .ok()
                .expect("sole owner")
                .shutdown(),
        );
    }
}

/// Index size, request count and keys per request of the pipelined
/// fixture: each request fills the walker ring many times over on both
/// of its two shards, so it queues to the shard workers, and each part
/// is a batch of its own whose walk outlasts a reactor pass — the
/// requests complete one after another, each landing while the loop
/// blocks in its wait. The queues hold the whole burst.
const PIPELINED_ENTRIES: u64 = 1 << 16;
const PIPELINED_REQUESTS: u64 = 8;
const PIPELINED_KEYS: u64 = 1 << 13;

#[test]
fn pipelined_completions_mid_wait_all_flush_at_completion_speed() {
    // Same race, wider window: ring-filling requests complete on the
    // shard workers' threads while the loop blocks, one ring cycle
    // after another — a waker that finds the ring already on its way
    // only bumps the connection's counter, and the next cycle must
    // ring again.
    let idle_backoff = Duration::from_millis(1500);
    let config = ServeConfig::default()
        .with_shards(2)
        .with_queue_capacity((PIPELINED_REQUESTS * PIPELINED_KEYS) as usize);
    assert!(
        PIPELINED_KEYS / 2 > config.batch_size as u64,
        "each part a batch of its own"
    );
    // Request `r`'s keys: scattered, so the walk misses cache, and every
    // key hits (payload `key + 1`).
    let keys = |r: u64| {
        (r * PIPELINED_KEYS..(r + 1) * PIPELINED_KEYS)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % PIPELINED_ENTRIES)
    };
    for backend in readiness_backends() {
        let service = Arc::new(ProbeService::build(
            HashRecipe::robust64(),
            (0..PIPELINED_ENTRIES).map(|k| (k, k + 1)),
            &config,
        ));
        let server = WidxServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetConfig::default()
                .with_idle_backoff(idle_backoff)
                .with_poller_backend(backend),
        )
        .expect("bind");
        let mut client = WidxClient::connect(server.local_addr()).expect("connect");

        let started = Instant::now();
        let ids: Vec<u64> = (0..PIPELINED_REQUESTS)
            .map(|r| {
                let keys = keys(r).collect();
                client
                    .send(&widx_net::Request::MultiLookup { keys })
                    .expect("send")
            })
            .collect();
        for (r, id) in (0..PIPELINED_REQUESTS).zip(ids) {
            match client.recv(id).expect("recv") {
                widx_net::Response::MultiLookup { mut matches } => {
                    let mut want: Vec<(u64, u64)> = keys(r).map(|k| (k, k + 1)).collect();
                    matches.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(matches, want, "{backend}");
                }
                other => panic!("{backend}: wrong variant {other:?}"),
            }
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < idle_backoff / 2,
            "{backend}: pipelined replies took {elapsed:?} — a wake was lost"
        );

        let _ = server.shutdown();
        drop(
            Arc::try_unwrap(service)
                .ok()
                .expect("sole owner")
                .shutdown(),
        );
    }
}

#[test]
fn shutdown_interrupts_a_blocked_idle_wait() {
    // A fully quiet server blocks in `poller.wait` for up to its quiet
    // cap (one second). Shutdown rings the wake handle, so it must
    // return long before that — the old loop's flag check also only
    // happened once per sleep, which this inherits a guarantee against.
    for backend in readiness_backends() {
        let service = small_service();
        let server = WidxServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetConfig::default().with_poller_backend(backend),
        )
        .expect("bind");
        // Let the loop settle into its quiet blocking wait.
        std::thread::sleep(Duration::from_millis(30));
        let started = Instant::now();
        let _ = server.shutdown();
        assert!(
            started.elapsed() < Duration::from_millis(700),
            "{backend}: shutdown waited out the quiet cap ({:?})",
            started.elapsed()
        );
        drop(
            Arc::try_unwrap(service)
                .ok()
                .expect("sole owner")
                .shutdown(),
        );
    }
}

#[test]
fn bind_rejects_an_unknown_poller_backend() {
    let service = small_service();
    // There is no assume-ready backend: `timeout` is refused like any
    // unknown name.
    for backend in ["no-such-backend", "timeout"] {
        match WidxServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetConfig::default().with_poller_backend(backend),
        ) {
            Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{backend}"),
            Ok(_) => panic!("backend {backend:?} must fail bind, not the event loop"),
        }
    }
}
