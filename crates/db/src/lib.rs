//! # widx-db — in-memory column-store substrate
//!
//! The paper evaluates Widx on MonetDB, an in-memory column-oriented
//! DBMS. This crate is the reproduction's stand-in engine: typed columns
//! and tables, the bucket-chained hash index of Section 2.2 (header node
//! inline in the bucket array, optional key indirection), a family of
//! hash functions expressible in the Widx ISA, and the physical operators
//! the paper's Figure 2a breaks query time into — scan, hash join
//! (the "no partitioning" algorithm), sort-merge join, sort, and
//! aggregation — under a small instrumented executor.
//!
//! Everything here is plain software running on the host; the simulation
//! layers (`widx-sim`, `widx-core`) reuse these structures by
//! materializing them into simulated memory (see `widx-workloads`).
//!
//! # Example: build an index and probe it
//!
//! ```
//! use widx_db::hash::HashRecipe;
//! use widx_db::index::HashIndex;
//!
//! let pairs = (0..1000u64).map(|k| (k * 7, k));
//! let index = HashIndex::build(HashRecipe::robust64(), 1024, pairs);
//! assert_eq!(index.lookup(7 * 41), Some(41));
//! assert_eq!(index.lookup(3), None);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)] // allowed in `prefetch` alone: cache-line prefetch and 2 MiB page advice

pub mod column;
pub mod epoch;
pub mod exec;
pub mod hash;
pub mod index;
pub mod ops;
#[allow(unsafe_code)]
pub mod prefetch;
pub mod table;
