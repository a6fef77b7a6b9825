//! An allocation ratchet on the in-process request path: a counting
//! global allocator (this binary holds one test, so nothing else
//! allocates while it runs) pins the heap allocations one sub-ring
//! `Lookup` and one one-op `Update` cost from `submit` to the assembled
//! reply, both served on the submitting thread. The bounds are the
//! counts this path has today; a change that trims an allocation lowers
//! them, and none may raise them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use widx_db::hash::HashRecipe;
use widx_serve::{ProbeService, Request, Response, ServeConfig};

/// Allocations per sub-ring `Lookup` `submit().wait()`.
const LOOKUP_ALLOCS: u64 = 8;
/// Allocations per one-op `Update` `submit().wait()` on a two-tier
/// service, the request's own `pairs` vector included.
const UPDATE_ALLOCS: u64 = 12;

const ENTRIES: u64 = 1 << 12;
const ROUNDS: u64 = 1000;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is a
// relaxed atomic that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Mean allocations per call of `serve` over [`ROUNDS`] calls, after
/// one warm-up round.
fn allocs_per_request(mut serve: impl FnMut(u64)) -> f64 {
    (0..ROUNDS).for_each(&mut serve);
    let before = ALLOCS.load(Relaxed);
    (0..ROUNDS).for_each(&mut serve);
    (ALLOCS.load(Relaxed) - before) as f64 / ROUNDS as f64
}

#[test]
fn inline_requests_stay_within_their_allocation_budget() {
    let config = ServeConfig::default().with_shards(2);
    let pairs = (0..ENTRIES).map(|k| (k * 2, k));
    let service = ProbeService::build_with_range(HashRecipe::robust64(), pairs, &config);
    let key = |i: u64| (i % ENTRIES) * 2;

    let lookup = allocs_per_request(|i| {
        let pending = service
            .submit(Request::Lookup { key: key(i) })
            .expect("submit");
        assert!(pending.is_ready(), "walked on the submitting thread");
        let reply = pending.wait();
        assert!(matches!(reply, Response::Lookup { payloads, .. } if payloads == [i % ENTRIES]));
    });
    let update = allocs_per_request(|i| {
        let pairs = vec![(key(i), i % ENTRIES)];
        let pending = service.submit(Request::Update { pairs }).expect("submit");
        assert!(pending.is_ready(), "applied on the submitting thread");
        let reply = pending.wait();
        assert!(matches!(reply, Response::Write { acks } if acks == [true]));
    });
    eprintln!("allocations per request: lookup {lookup:.2}, update {update:.2}");
    assert!(
        lookup <= LOOKUP_ALLOCS as f64,
        "a sub-ring Lookup allocated {lookup:.2} times"
    );
    assert!(
        update <= UPDATE_ALLOCS as f64,
        "a one-op Update allocated {update:.2} times"
    );
    let _ = service.shutdown();
}
