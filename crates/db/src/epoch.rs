//! Epoch-based reclamation for the mutable indexes.
//!
//! The serving tier's walkers hold *indices* into node arenas (bucket
//! overflow nodes, B+-tree leaves) across yields. A writer that freed
//! a node's slot and reused it for unrelated data would hand such a
//! walker a torn view: the index it saved now names a different node.
//! Classic epoch-based reclamation (Fraser; crossbeam-epoch is the Rust
//! archetype) solves this without per-node locks:
//!
//! * every participant (one per shard worker) owns an `EpochCell`;
//!   while it works on a batch it *pins* the cell to the global epoch,
//!   and clears it to quiescent when the batch closes;
//! * a writer never frees a replaced node — it *retires* the slot,
//!   stamped with the epoch current at retirement;
//! * a retired slot is *reclaimed* (returned to the arena's free list)
//!   only once every pinned epoch is newer than the stamp, i.e. no
//!   walker that could still hold the old index remains in flight.
//!
//! The domain is deliberately small and `unsafe`-free: the indexes own
//! their retire/free lists (slots are plain `u32`s, not pointers), and
//! the domain only answers "which epochs are still visible?". Two
//! gauges — [`retired`](EpochDomain::retired) and
//! [`reclaimed`](EpochDomain::reclaimed) — feed the `widx_epoch_*`
//! metrics the observability layer exports, so a stress run can assert
//! the retired count returns to ~0 at quiescence.
//!
//! # Example
//!
//! ```
//! use widx_db::epoch::EpochDomain;
//!
//! let domain = EpochDomain::new();
//! let worker = domain.register();
//! let pin = worker.pin();            // batch opens
//! let stamp = domain.current();      // writer retires a slot at `stamp`
//! assert!(!domain.is_safe(stamp));   // the pin predates the advance
//! drop(pin);                         // batch closes
//! domain.advance();
//! assert!(domain.is_safe(stamp));    // nobody can still see the slot
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A cell is quiescent (not inside any batch) at this sentinel.
const QUIESCENT: u64 = u64::MAX;

/// One participant's published epoch: the global epoch it pinned at
/// batch open, or [`QUIESCENT`]. Padded to its own cache line so pin
/// and unpin (one store each, every batch) never false-share.
#[derive(Debug)]
#[repr(align(128))]
struct EpochCell {
    active: AtomicU64,
}

/// A registered participant — one per shard worker (or per stress-test
/// actor). Pin at batch open, drop the [`EpochPin`] at batch close.
#[derive(Clone, Debug)]
pub struct EpochHandle {
    domain: Arc<EpochDomain>,
    cell: Arc<EpochCell>,
}

impl EpochHandle {
    /// Publishes the current global epoch as this participant's active
    /// epoch until the returned pin is dropped. Slots retired at or
    /// after this epoch will not be reclaimed while the pin lives.
    #[must_use]
    pub fn pin(&self) -> EpochPin<'_> {
        // SeqCst keeps the pin publication and the writer's later
        // `min_active` scan in one total order: either the scan sees
        // this pin, or the pin sees an epoch >= the writer's stamp.
        self.cell
            .active
            .store(self.domain.global.load(Ordering::SeqCst), Ordering::SeqCst);
        EpochPin { cell: &self.cell }
    }

    /// The domain this handle participates in.
    #[must_use]
    pub fn domain(&self) -> &Arc<EpochDomain> {
        &self.domain
    }
}

/// RAII pin: while alive, the participant's cell publishes its epoch;
/// dropping it returns the cell to quiescence.
#[derive(Debug)]
pub struct EpochPin<'h> {
    cell: &'h EpochCell,
}

impl Drop for EpochPin<'_> {
    fn drop(&mut self) {
        self.cell.active.store(QUIESCENT, Ordering::SeqCst);
    }
}

/// The shared epoch clock plus the registry of participant cells and
/// the two reclamation gauges.
#[derive(Debug)]
pub struct EpochDomain {
    /// The global epoch; advanced after every write batch.
    global: AtomicU64,
    /// Registered participant cells (registration is rare: one per
    /// worker thread at service start).
    cells: Mutex<Vec<Arc<EpochCell>>>,
    /// Slots currently retired and awaiting reclamation, across every
    /// index attached to this domain (`widx_epoch_retired`).
    retired: AtomicU64,
    /// Slots returned to free lists over the domain's lifetime
    /// (`widx_epoch_reclaimed`).
    reclaimed: AtomicU64,
}

impl EpochDomain {
    /// A fresh domain at epoch 1 with no participants.
    #[must_use]
    pub fn new() -> Arc<EpochDomain> {
        Arc::new(EpochDomain {
            global: AtomicU64::new(1),
            cells: Mutex::new(Vec::new()),
            retired: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
        })
    }

    /// Registers a new participant and returns its handle.
    #[must_use]
    pub fn register(self: &Arc<Self>) -> EpochHandle {
        let cell = Arc::new(EpochCell {
            active: AtomicU64::new(QUIESCENT),
        });
        self.cells
            .lock()
            .expect("epoch registry")
            .push(cell.clone());
        EpochHandle {
            domain: Arc::clone(self),
            cell,
        }
    }

    /// The current global epoch — the stamp a writer puts on slots it
    /// retires now.
    #[must_use]
    pub fn current(&self) -> u64 {
        self.global.load(Ordering::SeqCst)
    }

    /// Advances the global epoch (call after a write batch) and returns
    /// the new value. Later pins publish the new epoch, so stamps taken
    /// before the advance become reclaimable once current pins drop.
    pub fn advance(&self) -> u64 {
        self.global.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// The oldest epoch any participant still has pinned, or the
    /// current global epoch when every cell is quiescent.
    #[must_use]
    pub fn min_active(&self) -> u64 {
        let cells = self.cells.lock().expect("epoch registry");
        cells
            .iter()
            .map(|c| c.active.load(Ordering::SeqCst))
            .min()
            .unwrap_or(QUIESCENT)
            .min(self.global.load(Ordering::SeqCst))
    }

    /// Whether a slot retired at `stamp` can be reclaimed: no pinned
    /// epoch is old enough to still reach it.
    #[must_use]
    pub fn is_safe(&self, stamp: u64) -> bool {
        stamp < self.min_active()
    }

    /// Records `n` newly retired slots (called by the indexes).
    pub fn note_retired(&self, n: u64) {
        self.retired.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` slots moved from retired to free (called by the
    /// indexes at reclaim time).
    pub fn note_reclaimed(&self, n: u64) {
        self.retired.fetch_sub(n, Ordering::Relaxed);
        self.reclaimed.fetch_add(n, Ordering::Relaxed);
    }

    /// Slots currently retired and not yet reclaimed, domain-wide —
    /// the `widx_epoch_retired` gauge. Returns to ~0 at quiescence
    /// (after `advance` + per-index `reclaim` with no pins held).
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired.load(Ordering::Relaxed)
    }

    /// Total slots ever reclaimed, domain-wide — the
    /// `widx_epoch_reclaimed` counter.
    #[must_use]
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed.load(Ordering::Relaxed)
    }
}

/// A retire list owned by one arena: `(slot, stamp)` pairs awaiting
/// reclamation, plus the free list reclaimed slots return to. The
/// indexes embed one per node arena (hash overflow pool, B+-tree
/// leaves, each inner level).
#[derive(Clone, Debug, Default)]
pub(crate) struct RetireList {
    /// Retired slots, oldest first (stamps are non-decreasing because
    /// retirement takes the then-current epoch).
    retired: Vec<(u32, u64)>,
    /// Slots free for reuse.
    free: Vec<u32>,
}

impl RetireList {
    /// Retires `slot` at `stamp` and bumps the domain gauge.
    pub(crate) fn retire(&mut self, slot: u32, stamp: u64, domain: &EpochDomain) {
        self.retired.push((slot, stamp));
        domain.note_retired(1);
    }

    /// Moves every retired slot whose stamp the domain declares safe to
    /// the free list; returns how many moved.
    pub(crate) fn reclaim(&mut self, domain: &EpochDomain) -> usize {
        let safe = domain.min_active();
        // Stamps are non-decreasing, so the reclaimable slots are a
        // prefix.
        let take = self.retired.partition_point(|(_, stamp)| *stamp < safe);
        if take == 0 {
            return 0;
        }
        self.free.extend(self.retired.drain(..take).map(|(s, _)| s));
        domain.note_reclaimed(take as u64);
        take
    }

    /// Pops a reusable slot, if any.
    pub(crate) fn alloc(&mut self) -> Option<u32> {
        self.free.pop()
    }

    /// Slots awaiting reclamation in this arena.
    pub(crate) fn retired_len(&self) -> usize {
        self.retired.len()
    }

    /// Slots ready for reuse in this arena.
    pub(crate) fn free_len(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_hold_back_reclamation() {
        let d = EpochDomain::new();
        let w = d.register();
        let pin = w.pin();
        let stamp = d.current();
        d.advance();
        assert!(!d.is_safe(stamp), "pin predates the stamp's advance");
        drop(pin);
        assert!(d.is_safe(stamp), "quiescent cells do not hold epochs");
    }

    #[test]
    fn quiescent_domain_reclaims_up_to_current() {
        let d = EpochDomain::new();
        let _w = d.register();
        let stamp = d.current();
        assert!(!d.is_safe(stamp), "current epoch is never safe");
        d.advance();
        assert!(d.is_safe(stamp));
    }

    #[test]
    fn min_active_is_oldest_pin() {
        let d = EpochDomain::new();
        let a = d.register();
        let b = d.register();
        let pin_a = a.pin(); // epoch 1
        d.advance();
        let _pin_b = b.pin(); // epoch 2
        assert_eq!(d.min_active(), 1);
        drop(pin_a);
        assert_eq!(d.min_active(), 2);
    }

    #[test]
    fn retire_list_reclaims_prefix_and_reuses_slots() {
        let d = EpochDomain::new();
        let w = d.register();
        let mut list = RetireList::default();
        list.retire(7, d.current(), &d);
        d.advance();
        let pin = w.pin();
        list.retire(9, d.current(), &d);
        assert_eq!(d.retired(), 2);
        // The pin (epoch 2) blocks slot 9 but not slot 7 (stamp 1).
        assert_eq!(list.reclaim(&d), 1);
        assert_eq!(list.alloc(), Some(7));
        assert_eq!((d.retired(), d.reclaimed()), (1, 1));
        drop(pin);
        d.advance();
        assert_eq!(list.reclaim(&d), 1);
        assert_eq!(list.alloc(), Some(9));
        assert_eq!(list.alloc(), None);
        assert_eq!((d.retired(), d.reclaimed()), (0, 2));
    }

    #[test]
    fn gauges_reach_zero_at_quiescence() {
        let d = EpochDomain::new();
        let workers: Vec<EpochHandle> = (0..4).map(|_| d.register()).collect();
        let mut list = RetireList::default();
        for round in 0..10u64 {
            let pins: Vec<EpochPin> = workers.iter().map(EpochHandle::pin).collect();
            list.retire(round as u32, d.current(), &d);
            drop(pins);
            d.advance();
            list.reclaim(&d);
        }
        assert_eq!(d.retired(), 0, "all retirements reclaimed at quiescence");
        assert_eq!(d.reclaimed(), 10);
    }

    #[test]
    fn handles_are_cloneable_and_share_the_cell() {
        let d = EpochDomain::new();
        let w = d.register();
        let w2 = w.clone();
        let pin = w.pin();
        let stamp = d.current();
        d.advance();
        assert!(!d.is_safe(stamp));
        drop(pin);
        let _pin2 = w2.pin();
        assert_eq!(d.min_active(), d.current());
    }
}
