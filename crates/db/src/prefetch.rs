//! Portable data-prefetch shim.
//!
//! The paper's `TOUCH` instruction "demand\[s\] data blocks in advance of
//! their use"; on commodity x86-64 the equivalent is `prefetcht0`. On
//! targets without a stable prefetch intrinsic this compiles to a no-op,
//! which only costs performance, never correctness — prefetches are
//! non-binding by definition. The index builds use it, and
//! `widx_soft::prefetch` re-exports it for the walkers.

/// Issues a non-binding prefetch for the cache line containing `ptr`.
/// A reference coerces to the pointer; the pointer need not be valid,
/// which lets a walker prefetch a node's header from its keys.
#[inline(always)]
pub fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `_mm_prefetch` never dereferences architecturally: a
        // prefetch of any address, mapped or not, cannot fault and has
        // no memory side effects beyond cache-state hints (the same
        // contract as `core::hint::prefetch_read`, a safe function).
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                ptr.cast::<i8>(),
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        // No stable prefetch intrinsic: make the hint a no-op.
        let _ = ptr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_side_effect_free() {
        let data = vec![1u64, 2, 3];
        prefetch_read(&data[0]);
        prefetch_read(&data[2]);
        assert_eq!(data, vec![1, 2, 3]);
    }
}
