//! Index structures: the bucket-chained hash index the paper
//! accelerates, its physical layout descriptors, and a B+-tree used by
//! the "other index structures" extension (paper Section 7).

mod btree;
mod hash_index;
mod layout;
mod shard;
mod sort;

pub use btree::{BTreeExport, BTreeIndex};
pub use hash_index::{Bucket, HashIndex, IndexStats, Node, NONE};
pub use layout::{KeyKind, NodeLayout};
pub use shard::{build_range_sharded, build_sharded, partition_pairs};
