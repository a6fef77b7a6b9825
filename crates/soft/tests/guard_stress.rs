//! The one-guard contract: readers walk an index under a shard-style
//! read guard alone — no pin, no epoch — while a writer churns it under
//! the write guard, and the slots the writer frees go straight back to
//! the arena's free list for its next insert. No read is torn or lost:
//! a reader's node indices live inside its borrow of the index, and no
//! write can overlap that borrow.
//!
//! * **scans** — both range engines, both directions, walk the whole
//!   leaf chain while the writer's inserts split leaves and its deletes
//!   merge them;
//! * **probes** — the scalar and AMAC engines probe stable keys while the
//!   writer updates, deletes and inserts through the same buckets, so a
//!   pool slot is freed and reused inside one write burst.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread;

use widx_db::hash::HashRecipe;
use widx_db::index::{BTreeIndex, HashIndex};
use widx_soft::{probe_amac, probe_scalar, scan_btree_scalar, BTreeRangeWalker, ScanRange};

/// Keys the readers check; the writer never touches this range.
const STABLE_LO: u64 = 1_000_000;
const STABLE_HI: u64 = 1_000_499;
/// The writer churns keys below this.
const CHURN: u64 = 5000;

fn stable_entries() -> Vec<(u64, u64)> {
    (STABLE_LO..=STABLE_HI).map(|k| (k, k * 7)).collect()
}

/// One reader's pass over the index, checked inside the read guard.
type Reader<I> = Box<dyn Fn(&I) + Send>;

/// Runs `write` on `index` under the write guard, burst after burst,
/// until every reader has made `passes` passes under the read guard.
/// Returns the index and the writer's burst count.
fn churn<I: Send + Sync + 'static>(
    index: I,
    write: fn(&mut I, u64),
    readers: Vec<Reader<I>>,
    passes: usize,
) -> (I, u64) {
    let index = Arc::new(RwLock::new(index));
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (index, stop) = (Arc::clone(&index), Arc::clone(&stop));
        thread::spawn(move || {
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                write(&mut index.write().unwrap(), round);
                round += 1;
                thread::yield_now();
            }
            round
        })
    };
    let readers: Vec<_> = readers
        .into_iter()
        .map(|read| {
            let index = Arc::clone(&index);
            thread::spawn(move || {
                for _ in 0..passes {
                    read(&index.read().unwrap());
                    thread::yield_now();
                }
            })
        })
        .collect();
    for r in readers {
        r.join().expect("reader panicked");
    }
    stop.store(true, Ordering::Relaxed);
    let rounds = writer.join().expect("writer panicked");
    assert!(rounds > 0, "writer made progress");
    let Ok(index) = Arc::try_unwrap(index) else {
        panic!("every thread joined, so the index has one owner");
    };
    (index.into_inner().unwrap(), rounds)
}

#[test]
fn scans_under_the_read_guard_see_every_stable_key_while_leaves_churn() {
    let mut tree = BTreeIndex::build(4, stable_entries());
    // Seed some churn-range keys so the first deletes hit.
    for k in 0..2000u64 {
        tree.insert(k, k);
    }
    // Inserts split leaves; deletes merge them and free their slots,
    // which the next burst's splits take back.
    let write = |t: &mut BTreeIndex, round: u64| {
        for i in 0..64u64 {
            t.insert((round * 64 + i) % CHURN, round);
        }
        for i in 0..48u64 {
            t.delete((round * 37 + i * 3) % CHURN);
        }
    };
    // One reader per engine the range tier can run: each pass scans the
    // *whole* tree in both directions at once, through the churn range,
    // then checks order and the stable keys.
    let reader = |ring: bool| -> Reader<BTreeIndex> {
        Box::new(move |t: &BTreeIndex| {
            let everything = ScanRange::new(0, u64::MAX);
            let scans = [everything, everything.descending()];
            let mut out = [Vec::new(), Vec::new()];
            let mut emit = |tag: u32, key, payload| out[tag as usize].push((key, payload));
            if ring {
                BTreeRangeWalker::new(t, 4).scan_chunk((0..).zip(scans), &mut emit);
            } else {
                scan_btree_scalar(t, &scans, &mut emit);
            }
            let mut want = [stable_entries(), stable_entries()];
            want[1].reverse();
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
        })
    };
    let (mut tree, rounds) = churn(tree, write, vec![reader(false), reader(true)], 60);
    let freed = tree.reclaim();
    assert!(freed > 0, "the churn freed nodes");
    eprintln!("guard stress (scans): {rounds} writer bursts, {freed} slots freed");
}

#[test]
fn probes_under_the_read_guard_see_every_stable_key_while_slots_are_reused() {
    // Few buckets, so every stable key shares its chain with churn keys.
    let mut index = HashIndex::build(HashRecipe::robust64(), 64, stable_entries());
    for k in 0..2000u64 {
        index.insert(k, k);
    }
    // Updates free a slot and take it straight back; deletes free slots
    // the inserts of the same burst reuse.
    let write = |t: &mut HashIndex, round: u64| {
        for i in 0..64u64 {
            t.update((round * 64 + i) % CHURN, round);
        }
        for i in 0..32u64 {
            t.delete((round * 37 + i * 3) % CHURN);
            t.insert((round * 53 + i * 7) % CHURN, round);
        }
    };
    let stable: Vec<u64> = (STABLE_LO..=STABLE_HI).collect();
    let reader = |amac: bool| -> Reader<HashIndex> {
        let keys = stable.clone();
        Box::new(move |t: &HashIndex| {
            let mut out = Vec::new();
            if amac {
                probe_amac(t, &keys, 8, &mut out);
            } else {
                probe_scalar(t, &keys, &mut out);
            }
            out.sort_unstable();
            assert_eq!(out, stable_entries(), "torn or lost read (amac={amac})");
        })
    };
    let (mut index, rounds) = churn(index, write, vec![reader(false), reader(true)], 60);
    let freed = index.reclaim();
    assert!(freed > 0, "the churn freed nodes");
    // Immediate reuse leaves no third state: every pool slot is linked
    // into a chain or on the free list.
    let stats = index.stats();
    let linked = index.len() - (stats.buckets - stats.empty_buckets);
    assert_eq!(index.nodes().len(), linked + index.free_nodes());
    eprintln!("guard stress (probes): {rounds} writer bursts, {freed} slots freed");
}
