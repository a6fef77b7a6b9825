//! What is left of epoch-based reclamation: a name, and no state.
//!
//! The mutable indexes need no epochs. Every walker borrows a
//! `&HashIndex` / `&BTreeIndex` through its shard's read guard and every
//! mutation takes `&mut` under the write guard, so the borrow checker
//! already proves no reader holds a node index across a mutation: a
//! freed node slot goes straight back to its arena's free list.
//!
//! [`EpochDomain`] stays only because `benchmark/` names it, until
//! ROADMAP direction 1a deletes it.
//!
//! # Example
//!
//! ```
//! use widx_db::epoch::EpochDomain;
//!
//! let domain = EpochDomain::new();
//! domain.advance(); // does nothing: there is no epoch to advance
//! ```

use std::sync::Arc;

/// A field-less stand-in for the reclamation domain the indexes used to
/// retire into. Kept only for `benchmark/` until ROADMAP direction 1a
/// deletes it.
#[derive(Debug)]
pub struct EpochDomain;

impl EpochDomain {
    /// A domain, for signatures that still take one. Kept only for
    /// `benchmark/` until ROADMAP direction 1a deletes it.
    #[must_use]
    pub fn new() -> Arc<EpochDomain> {
        Arc::new(EpochDomain)
    }

    /// Does nothing. Kept only for `benchmark/` until ROADMAP direction
    /// 1a deletes it.
    pub fn advance(&self) {}
}
