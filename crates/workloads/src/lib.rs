//! # widx-workloads — workload generation and materialization
//!
//! The paper evaluates three benchmarks: a hand-optimized hash-join
//! kernel at three index sizes (Section 5), and TPC-H / TPC-DS queries on
//! MonetDB with a 100 GB dataset. This crate provides the reproduction's
//! equivalents:
//!
//! * [`datagen`] — seeded key generators (uniform, unique-shuffled,
//!   Zipfian) built on `rand::rngs::StdRng` for bit-stable workloads.
//! * [`kernel`] — the hash-join kernel configurations (Small / Medium /
//!   Large), scaled so the cache-residency relationships of the paper
//!   hold for the simulated hierarchy (L1-resident / LLC-resident /
//!   DRAM-resident); scale factors are documented per configuration.
//!   Each configuration, like each query profile, builds its pairs and
//!   probes and states its own bucket count; neither builds an index.
//! * [`profiles`] — per-query *index profiles* for the 12 queries the
//!   paper simulates (TPC-H 2, 11, 17, 19, 20, 22; TPC-DS 5, 37, 40, 52,
//!   64, 82): index size, layout, hash cost, probe count, and the
//!   query-level indexing fraction used for Figure 2a projection.
//! * [`dss`] — synthetic-but-executed DSS query plans whose operator
//!   mixes regenerate the Figure 2a execution-time breakdown on the real
//!   software engine of `widx-db`.
//! * [`memimg`] — lays the paper's hash index out in simulated memory
//!   from its build pairs (plus probe input and output buffers)
//!   according to a [`widx_db::index::NodeLayout`], for consumption by
//!   the Widx accelerator model. It decides which pool slot each
//!   overflow entry takes; the serving [`widx_db::index::HashIndex`] is
//!   only the walk oracle its tests check against.
//! * [`trace`] — generates the baseline cores' µop traces for the same
//!   probe stream by walking the same image's bytes, so OoO/in-order and
//!   Widx timing are compared on byte-identical data structures.
//! * [`btree_img`] — B+-tree materialization for the Section 7
//!   "other index structures" extension.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod btree_img;
pub mod datagen;
pub mod dss;
pub mod kernel;
pub mod memimg;
pub mod profiles;
pub mod trace;
