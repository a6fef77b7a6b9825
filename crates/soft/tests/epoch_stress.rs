//! Epoch-reclamation stress: a writer churns B+-tree leaf splits and
//! merges while range cursors scan on other threads, under the
//! discipline the serving tier runs — a scan lives inside one read
//! guard with an epoch pinned, the writer mutates under the write guard
//! and advances + reclaims after every burst.
//!
//! The contract under test:
//!
//! * **no torn or lost reads** — every scan walks the whole leaf chain
//!   in key order and emits exactly the stable keys it should, even
//!   though between scans the leaf arena is being split, merged,
//!   retired and reused;
//! * **quiescent reclamation** — once writers and readers stop, one
//!   epoch advance plus a reclaim drains the retired-node count to
//!   zero (`widx_epoch_retired` would read 0, `widx_epoch_reclaimed`
//!   the total churn).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread;

use widx_db::epoch::EpochDomain;
use widx_db::index::BTreeIndex;
use widx_soft::{scan_btree_scalar, BTreeRangeWalker, ScanRange};

/// Keys the readers check; the writer never touches this range.
const STABLE_LO: u64 = 1_000_000;
const STABLE_HI: u64 = 1_000_499;

fn stable_entries() -> Vec<(u64, u64)> {
    (STABLE_LO..=STABLE_HI).map(|k| (k, k * 7)).collect()
}

#[test]
fn cursors_stream_unharmed_while_writer_churns_and_epochs_reclaim() {
    let domain = EpochDomain::new();
    let mut tree = BTreeIndex::build(4, stable_entries());
    tree.set_domain(Arc::clone(&domain));
    // Seed some churn-range keys so the first deletes hit.
    for k in 0..2000u64 {
        tree.insert(k, k);
    }
    let tree = Arc::new(RwLock::new(tree));
    let stop = Arc::new(AtomicBool::new(false));

    // Writer: bursts of inserts (forcing leaf splits) and deletes
    // (forcing merges and retirements), an epoch advance after every
    // burst, and a reclaim pass — the same rhythm the serving tier's
    // shard worker uses at batch barriers.
    let writer = {
        let tree = Arc::clone(&tree);
        let domain = Arc::clone(&domain);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                {
                    let mut t = tree.write().unwrap();
                    for i in 0..64u64 {
                        t.insert((round * 64 + i) % 5000, round);
                    }
                    for i in 0..48u64 {
                        t.delete((round * 37 + i * 3) % 5000);
                    }
                }
                domain.advance();
                {
                    let mut t = tree.write().unwrap();
                    t.reclaim();
                }
                round += 1;
                thread::yield_now();
            }
            round
        })
    };

    // Readers, one per engine the service's range tier can run: each
    // pass pins an epoch, takes the read guard, and scans the *whole*
    // tree in both directions at once — through the churn range, whose
    // leaves were split, merged, retired and reused since the last pass
    // — then checks order and the stable keys outside the guard.
    let mut readers = Vec::new();
    for ring in [false, true] {
        let tree = Arc::clone(&tree);
        let domain = Arc::clone(&domain);
        readers.push(thread::spawn(move || {
            let handle = domain.register();
            let everything = ScanRange::new(0, u64::MAX);
            let scans = [everything, everything.descending()];
            let mut want = [stable_entries(), stable_entries()];
            want[1].reverse();
            for _ in 0..60 {
                let mut out = [Vec::new(), Vec::new()];
                {
                    let _pin = handle.pin();
                    let t = tree.read().unwrap();
                    let mut emit = |tag: u32, key, payload| out[tag as usize].push((key, payload));
                    if ring {
                        BTreeRangeWalker::new(&t, 4).scan_chunk((0..).zip(scans), &mut emit);
                    } else {
                        scan_btree_scalar(&t, &scans, &mut emit);
                    }
                }
                for (desc, (out, want)) in out.iter().zip(&want).enumerate() {
                    let ordered =
                        |w: &[(u64, u64)]| w[0].0 == w[1].0 || (w[0].0 > w[1].0) == (desc == 1);
                    assert!(out.windows(2).all(ordered), "out of order (ring={ring})");
                    let stable: Vec<(u64, u64)> = out
                        .iter()
                        .copied()
                        .filter(|(k, _)| (STABLE_LO..=STABLE_HI).contains(k))
                        .collect();
                    assert_eq!(&stable, want, "torn or lost read (ring={ring})");
                }
                thread::yield_now();
            }
        }));
    }

    for r in readers {
        r.join().expect("reader panicked");
    }
    stop.store(true, Ordering::Relaxed);
    let rounds = writer.join().expect("writer panicked");
    assert!(rounds > 0, "writer made progress");

    // Quiescence: everything retired during the churn becomes
    // reclaimable after one advance, and the gauge drains to zero.
    domain.advance();
    let mut t = tree.write().unwrap();
    t.reclaim();
    assert_eq!(domain.retired(), 0, "retired gauge drains at quiescence");
    assert!(domain.reclaimed() > 0, "churn actually retired nodes");
    assert_eq!(t.retired_nodes(), 0);
    eprintln!(
        "epoch stress: {} writer rounds, {} reclaimed",
        rounds,
        domain.reclaimed()
    );
}

/// What a walker batch holds for its cursors' lifetime is a pin; while
/// one is out, nothing retired at or after its epoch may be reused.
#[test]
fn pinned_cursor_blocks_reclaim_until_released() {
    let domain = EpochDomain::new();
    let mut tree = BTreeIndex::build(4, (0..256u64).map(|k| (k, k)));
    tree.set_domain(Arc::clone(&domain));
    let handle = domain.register();
    let pin = handle.pin();

    // The writer deletes enough to retire leaves and advances.
    for k in 64..192u64 {
        tree.delete(k);
    }
    domain.advance();
    assert!(domain.retired() > 0);
    assert_eq!(tree.reclaim(), 0, "pin holds every retirement");

    // Release the pin: everything drains, and the survivors are intact.
    drop(pin);
    let retired = domain.retired();
    assert_eq!(tree.reclaim() as u64, retired);
    assert_eq!(domain.retired(), 0);
    let survivors: Vec<(u64, u64)> = (0..64u64).chain(192..256).map(|k| (k, k)).collect();
    assert_eq!(tree.range_scan(0, u64::MAX, usize::MAX), survivors);
}
