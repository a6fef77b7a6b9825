//! # widx-soft — software walkers on real hardware
//!
//! The lasting software legacy of *Meet the Walkers* is its central
//! observation: hash-index probes have abundant **inter-key parallelism**
//! that a serial probe loop wastes. Follow-up systems (AMAC, CoroBase)
//! exploit it in software by keeping several probes in flight per core,
//! issuing a prefetch for each probe's next node and switching to
//! another probe instead of stalling — hand-rolled coroutines.
//!
//! In the paper every walker runs the same per-node program and the
//! dispatcher only decides which key a walker takes next. This crate is
//! split the same way. Each index's traversal is written once, as a
//! [`Step`] over a small `Copy` cursor: hash probes (hash the key, then
//! one bucket header or chain node per visit) and B+-tree range scans
//! (one inner node per visit on the descent, then one leaf per visit
//! along the chain, ascending or descending). Three schedules, each
//! written once and generic over the step, decide only which cursor
//! visits next:
//!
//! * [`walk_scalar`] — one unit at a time, never prefetching (the
//!   paper's Listing 1);
//! * group prefetching — stage-synchronized batches (Chen et al.'s GP,
//!   the paper's reference \[5\]): a fixed group advances in lock-step
//!   and refills only once the whole group is done;
//! * [`Ring`] — asynchronous memory-access chaining (AMAC): a resumable
//!   ring of cursors, each prefetching its next node before yielding,
//!   whose slots refill as soon as a cursor retires — the software
//!   equivalent of the paper's parallel walker units. Serving layers
//!   (`widx-serve`) feed it tagged units as requests arrive and drain it
//!   at batch boundaries.
//!
//! The named engines are thin wrappers: [`probe_scalar`],
//! [`probe_group_prefetch`] and [`probe_amac`] over a hash index,
//! [`scan_btree_scalar`], [`scan_btree_group`] and [`scan_btree_amac`]
//! over a B+-tree. All three schedules visit the same nodes and emit
//! each tag's matches in the same order; only `rounds`, `occupancy` and
//! `prefetches` in their [`WalkCounters`] differ.
//!
//! # Example
//!
//! ```
//! use widx_db::hash::HashRecipe;
//! use widx_db::index::HashIndex;
//! use widx_soft::{probe_amac, probe_scalar};
//!
//! let index = HashIndex::build(HashRecipe::robust64(), 1024,
//!                              (0..1000u64).map(|k| (k, k)));
//! let probes: Vec<u64> = (0..100).map(|i| i * 7).collect();
//! let mut serial = Vec::new();
//! let mut interleaved = Vec::new();
//! probe_scalar(&index, &probes, &mut serial);
//! probe_amac(&index, &probes, 8, &mut interleaved);
//! serial.sort_unstable();
//! interleaved.sort_unstable();
//! assert_eq!(serial, interleaved);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod amac;
mod btree_walker;
mod group;
mod probe;
mod scalar;

// The prefetch shim lives in `widx-db`, whose builds prefetch too.
pub use widx_db::prefetch;

pub use amac::{probe_amac, AmacWalker, BTreeRangeWalker, Ring};
pub use btree_walker::{scan_btree_amac, scan_btree_group, scan_btree_scalar, Scan, ScanRange};
pub use group::probe_group_prefetch;
use group::walk_group;
pub use probe::Probe;
pub use scalar::{probe_scalar, walk_scalar};
// Walker-level MLP evidence every schedule fills; defined in
// dependency-free `widx-obs` so the trace subsystem shares the shape.
pub use widx_obs::WalkCounters;

/// A probe result: `(probe key, payload)`.
pub type Match = (u64, u64);

/// One index's traversal, written once for every schedule: a unit of
/// work (a probe key, a scan range) becomes a [`Cursor`](Step::Cursor)
/// naming the next node to read, and each [`visit`](Step::visit) reads
/// exactly one node.
///
/// A schedule only decides which cursor visits next and whether to
/// [`prefetch`](Step::prefetch) it first — PULSE's init / next / end
/// split of a traversal, with the engine scheduling `next`.
pub trait Step {
    /// One unit of work.
    type Unit: Copy;
    /// One unit's walk in flight: its tag and the node it visits next.
    type Cursor: Copy;

    /// Starts `unit`, whose matches are emitted under `tag`; `None` when
    /// it can visit nothing (an empty scan range).
    fn start(&self, tag: u32, unit: Self::Unit) -> Option<Self::Cursor>;

    /// Visits the node `cursor` names: emits its matches as `(tag, key,
    /// payload)`, counts the visit into `counters.nodes` and
    /// `counters.max_chain`, and returns the cursor for the next node, or
    /// `None` once the unit is done.
    fn visit<F: FnMut(u32, u64, u64)>(
        &self,
        cursor: Self::Cursor,
        counters: &mut WalkCounters,
        emit: &mut F,
    ) -> Option<Self::Cursor>;

    /// Prefetches the node `cursor` visits next; whether a prefetch was
    /// issued (an empty B+-tree node has no line to touch).
    fn prefetch(&self, cursor: &Self::Cursor) -> bool;
}
