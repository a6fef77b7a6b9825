//! # widx-core — the Widx accelerator
//!
//! The paper's contribution: a cycle-level, *functional* model of the
//! Widx database-indexing accelerator (Figure 6) — one key-hashing
//! **dispatcher**, up to four node-list **walkers**, and an **output
//! producer**, each a 2-stage RISC unit executing `widx-isa` programs,
//! communicating through 2-entry queues, and sharing the host core's MMU
//! and cache hierarchy (`widx-sim`).
//!
//! "Functional" matters: the units really execute their programs against
//! the simulated memory's real bytes. The join results Widx produces are
//! read back from the output region and checked against software
//! oracles, so the timing model cannot drift from the semantics.
//!
//! Modules:
//!
//! * [`queue`] — timed bounded pair-queues between units.
//! * [`mod@unit`] — the 2-stage pipeline interpreter with the paper's
//!   blocking loads, `TOUCH` prefetch, queue-port register semantics,
//!   and retry-on-TLB-miss (Section 4.3).
//! * [`programs`] — canonical dispatcher / walker / producer programs
//!   (Section 4.2's "three functions" the DBMS developer supplies),
//!   generated from the configuration registers for a hash recipe +
//!   node layout, decoupled or coupled, by emitters the B+-tree
//!   programs share.
//! * [`config`] — [`config::WidxConfig`]: walker count, queue depths;
//!   and [`config::ConfigRegisters`], the memory-mapped configuration
//!   registers of Section 4.3 that the programs are generated from.
//! * [`control`] — the in-memory Widx control block (encoded programs +
//!   initial register images) and its load path.
//! * [`widx`] — the accelerator itself: the time-ordered scheduler over
//!   all units, pair routing (round-robin dispatch to walkers, poison-
//!   pill termination), and per-unit Comp/Mem/TLB/Idle accounting.
//! * [`offload`] — one-call offload of a materialized index probe: the
//!   image's configuration registers in, the read-back matches out.
//! * [`placement`] — the LLC-side Widx ablation of Section 7.
//! * [`btree`] — the B+-tree program triple and its offload, the
//!   Section 7 "other index structures" extension.
//!
//! # Example
//!
//! ```
//! use widx_core::config::WidxConfig;
//! use widx_core::offload;
//! use widx_db::hash::HashRecipe;
//! use widx_db::index::NodeLayout;
//! use widx_sim::config::SystemConfig;
//! use widx_sim::mem::{MemorySystem, RegionAllocator};
//! use widx_workloads::memimg;
//!
//! let mut mem = MemorySystem::new(SystemConfig::default());
//! let mut alloc = RegionAllocator::new();
//! let pairs: Vec<(u64, u64)> = (0..100u64).map(|k| (k, k)).collect();
//! let probes: Vec<u64> = (0..20u64).collect();
//! let image = memimg::materialize(&mut mem, &mut alloc, &HashRecipe::robust64(), 64,
//!                                 &pairs, &probes, NodeLayout::direct8());
//!
//! let result = offload::offload_probe(&mut mem, &image, &WidxConfig::with_walkers(4));
//! assert_eq!(result.matches().len(), 20); // every probe matched once
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod btree;
pub mod config;
pub mod control;
pub mod offload;
pub mod placement;
pub mod programs;
pub mod queue;
pub mod unit;
pub mod widx;

/// The poison-pill key that terminates the unit pipeline: the dispatcher
/// sends one per walker after the last input key; each walker forwards
/// it to the producer and halts; the producer halts after collecting one
/// from every walker. This doubles as the configuration interface's
/// "NULL value identifier" (paper Section 4.3).
pub const POISON_KEY: u64 = u64::MAX;
