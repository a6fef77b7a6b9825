//! The one interleaving sub-ring probes add: a hash shard's reader that
//! is not its worker. Reader threads walk `Lookup`s on their own
//! threads (under the shard's `try_read` guard) while one writer
//! `Update`s the same small hot key set through the shard workers'
//! write barriers. Fixed seed, real threads.
//!
//! The contract checked is the one the docs promise and the benchmark's
//! `rw_hot` verifies over the wire (docs/writes.md, "Visibility"): a
//! read observes every write whose ack had been received before the
//! read was submitted, never a write that had not been submitted when
//! the read completed, and — unacked writes being unordered with
//! respect to it — anything in between; once the writer stops, a
//! read-back returns the last write of every key, from both tiers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};

use widx_db::hash::HashRecipe;
use widx_serve::{ProbeService, Request, Response, ServeConfig};

const KEYS: u64 = 8;
const WRITES: u64 = 2000;
const READERS: u64 = 2;

/// xorshift64: the reader and writer key streams, seeded per thread.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn reads_walked_on_the_submitting_thread_see_acked_writes_and_nothing_unsent() {
    // Every key starts at sequence 0; the writer's sequence numbers are
    // globally increasing, hence increasing per key.
    let service = ProbeService::build_with_range(
        HashRecipe::robust64(),
        (0..KEYS).map(|key| (key, 0)),
        &ServeConfig::default().with_shards(2),
    );
    let cells = || -> Vec<AtomicU64> { (0..KEYS).map(|_| AtomicU64::new(0)).collect() };
    let (sent, acked) = (cells(), cells());
    let done = AtomicBool::new(false);

    let walked_here: u64 = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|reader| {
                let (service, sent, acked, done) = (&service, &sent, &acked, &done);
                scope.spawn(move || {
                    let mut rng = 0x9E37_79B9_7F4A_7C15 ^ (reader + 1);
                    let (mut reads, mut here) = (0u64, 0u64);
                    while !done.load(SeqCst) {
                        let key = next(&mut rng) % KEYS;
                        let floor = acked[key as usize].load(SeqCst);
                        let pending = service.submit(Request::Lookup { key }).expect("submit");
                        here += u64::from(pending.is_ready());
                        let Response::Lookup { payloads, .. } = pending.wait() else {
                            panic!("lookup answered with another variant");
                        };
                        let ceiling = sent[key as usize].load(SeqCst);
                        assert_eq!(payloads.len(), 1, "key {key}: {payloads:?}");
                        assert!(
                            (floor..=ceiling).contains(&payloads[0]),
                            "read {reads} of key {key} returned sequence {} outside \
                             [{floor} acked before submit, {ceiling} sent at completion]",
                            payloads[0]
                        );
                        reads += 1;
                    }
                    here
                })
            })
            .collect();

        let mut rng = 0x2545_F491_4F6C_DD1D;
        for seq in 1..=WRITES {
            let key = next(&mut rng) % KEYS;
            sent[key as usize].store(seq, SeqCst);
            assert!(
                service.update(key, seq).expect("update"),
                "key {key} exists"
            );
            acked[key as usize].store(seq, SeqCst);
        }
        done.store(true, SeqCst);
        readers.into_iter().map(|r| r.join().expect("reader")).sum()
    });
    assert!(walked_here > 0, "no read ran on its submitting thread");

    // Read-back: the last write of every key, from both tiers.
    let last: Vec<(u64, u64)> = (0..KEYS)
        .map(|k| (k, sent[k as usize].load(SeqCst)))
        .collect();
    for (key, seq) in &last {
        let pending = service
            .submit(Request::Lookup { key: *key })
            .expect("submit");
        assert!(
            pending.is_ready(),
            "a quiescent shard refused its read guard"
        );
        assert_eq!(
            pending.wait(),
            Response::Lookup {
                key: *key,
                payloads: vec![*seq]
            }
        );
    }
    assert_eq!(service.range_scan(0, KEYS, usize::MAX).expect("scan"), last);
    let stats = service.shutdown();
    assert_eq!(stats.total_write_ops(), WRITES * 2, "both tiers applied");
}
