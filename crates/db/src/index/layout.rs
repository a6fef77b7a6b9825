//! Physical node layouts.
//!
//! Widx is programmable precisely because "the indexing code tends to
//! differ ... in a few important ways" across DBMSs (paper Section 2.2):
//! key widths differ, and "instead of storing the actual key, nodes can
//! instead contain pointers to the original table entries, thus trading
//! space ... for an extra memory access" — MonetDB does exactly this,
//! which the paper cites as the source of extra address-calculation
//! cycles in Figure 9a.
//!
//! A [`NodeLayout`] describes where each field lives inside the
//! materialized bucket headers and overflow nodes. It drives (a)
//! serialization into simulated memory, which picks each overflow entry's
//! pool slot, and (b) the Widx walker program; (c) the baseline core's µop
//! trace walks the bytes (a) wrote, so all three agree byte-for-byte.
//!
//! Physical layout (all offsets in bytes):
//!
//! ```text
//! bucket header (stride 32):      overflow node (stride 24):
//!   +0   count   (u32)              +0   key or key-pointer
//!   +8   key or key-pointer         +8   payload
//!   +16  payload                    +16  next node address (u64, 0=NULL)
//!   +24  next node address
//! ```

/// Whether nodes store keys directly or as pointers into the base table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KeyKind {
    /// The node holds the key value itself.
    Direct,
    /// The node holds a pointer to the key in the base table's column
    /// (MonetDB-style); reading the key costs one extra dereference.
    Indirect,
}

/// Byte-level layout of the materialized hash index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeLayout {
    /// Width of a key value in bytes (4 or 8).
    pub key_width: usize,
    /// Direct or indirect key storage.
    pub key_kind: KeyKind,
}

impl NodeLayout {
    /// Offset of the count field in a bucket header.
    pub const HEADER_COUNT_OFFSET: usize = 0;
    /// Offset of the key (or key pointer) in a bucket header.
    pub const HEADER_SLOT_OFFSET: usize = 8;
    /// Offset of the payload in a bucket header.
    pub const HEADER_PAYLOAD_OFFSET: usize = 16;
    /// Offset of the next pointer in a bucket header.
    pub const HEADER_NEXT_OFFSET: usize = 24;
    /// Stride of the bucket array.
    pub const HEADER_STRIDE: usize = 32;

    /// Offset of the key (or key pointer) in an overflow node.
    pub const NODE_SLOT_OFFSET: usize = 0;
    /// Offset of the payload in an overflow node.
    pub const NODE_PAYLOAD_OFFSET: usize = 8;
    /// Offset of the next pointer in an overflow node.
    pub const NODE_NEXT_OFFSET: usize = 16;
    /// Stride of overflow nodes.
    pub const NODE_STRIDE: usize = 24;

    /// The hash-join kernel layout: 4-byte keys stored directly
    /// (Section 5: "each node contains a tuple with 4 B key and 4 B
    /// payload").
    #[must_use]
    pub fn kernel4() -> NodeLayout {
        NodeLayout {
            key_width: 4,
            key_kind: KeyKind::Direct,
        }
    }

    /// Direct 8-byte keys — the generic wide-integer layout.
    #[must_use]
    pub fn direct8() -> NodeLayout {
        NodeLayout {
            key_width: 8,
            key_kind: KeyKind::Direct,
        }
    }

    /// MonetDB-style layout: the node stores an 8-byte pointer to the key
    /// in the base column ("MonetDB stores keys indirectly (i.e.,
    /// pointers) in the index resulting in more computation for address
    /// calculation", Section 6.2).
    #[must_use]
    pub fn indirect8() -> NodeLayout {
        NodeLayout {
            key_width: 8,
            key_kind: KeyKind::Indirect,
        }
    }

    /// Width of the slot at [`HEADER_SLOT_OFFSET`](Self::HEADER_SLOT_OFFSET):
    /// the key width for direct layouts, a full pointer for indirect.
    #[must_use]
    pub fn slot_width(&self) -> usize {
        match self.key_kind {
            KeyKind::Direct => self.key_width,
            KeyKind::Indirect => 8,
        }
    }

    /// Loads needed to obtain a node's key (1 direct, 2 indirect).
    #[must_use]
    pub fn key_loads(&self) -> usize {
        match self.key_kind {
            KeyKind::Direct => 1,
            KeyKind::Indirect => 2,
        }
    }

    /// Bytes of the bucket array for `buckets` buckets.
    #[must_use]
    pub fn bucket_array_bytes(&self, buckets: usize) -> usize {
        buckets * Self::HEADER_STRIDE
    }

    /// Bytes of the overflow pool for `nodes` nodes.
    #[must_use]
    pub fn node_pool_bytes(&self, nodes: usize) -> usize {
        nodes * Self::NODE_STRIDE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_layouts() {
        assert_eq!(NodeLayout::kernel4().key_width, 4);
        assert_eq!(NodeLayout::kernel4().key_kind, KeyKind::Direct);
        assert_eq!(NodeLayout::indirect8().key_loads(), 2);
        assert_eq!(NodeLayout::direct8().key_loads(), 1);
    }

    #[test]
    fn slot_width_indirect_is_pointer() {
        assert_eq!(NodeLayout::kernel4().slot_width(), 4);
        assert_eq!(NodeLayout::indirect8().slot_width(), 8);
        assert_eq!(
            NodeLayout {
                key_width: 4,
                key_kind: KeyKind::Indirect
            }
            .slot_width(),
            8
        );
    }

    #[test]
    fn sizes() {
        let l = NodeLayout::direct8();
        assert_eq!(l.bucket_array_bytes(100), 3200);
        assert_eq!(l.node_pool_bytes(10), 240);
    }

    #[test]
    fn field_offsets_do_not_overlap() {
        // Checked at compile time; the test documents the invariant.
        const {
            assert!(NodeLayout::HEADER_COUNT_OFFSET + 8 <= NodeLayout::HEADER_SLOT_OFFSET);
            assert!(NodeLayout::HEADER_SLOT_OFFSET + 8 <= NodeLayout::HEADER_PAYLOAD_OFFSET);
            assert!(NodeLayout::HEADER_PAYLOAD_OFFSET + 8 <= NodeLayout::HEADER_NEXT_OFFSET);
            assert!(NodeLayout::HEADER_NEXT_OFFSET + 8 <= NodeLayout::HEADER_STRIDE);
            assert!(NodeLayout::NODE_SLOT_OFFSET + 8 <= NodeLayout::NODE_PAYLOAD_OFFSET);
            assert!(NodeLayout::NODE_PAYLOAD_OFFSET + 8 <= NodeLayout::NODE_NEXT_OFFSET);
            assert!(NodeLayout::NODE_NEXT_OFFSET + 8 <= NodeLayout::NODE_STRIDE);
        }
    }
}
