//! Portable data-prefetch shim.
//!
//! The paper's `TOUCH` instruction "demand\[s\] data blocks in advance of
//! their use"; on commodity x86-64 the equivalent is `prefetcht0`. On
//! targets without a stable prefetch intrinsic this compiles to a no-op,
//! which only costs performance, never correctness — prefetches are
//! non-binding by definition. The index builds use it, and
//! `widx_soft::prefetch` re-exports it for the walkers.

/// Issues a non-binding prefetch for the cache line containing `value`.
#[inline(always)]
pub fn prefetch_read<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `value` is a valid reference, so its address is a
        // valid (dereferenceable) pointer for the duration of the call;
        // `_mm_prefetch` never dereferences architecturally and has no
        // memory side effects beyond cache-state hints.
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                std::ptr::from_ref(value).cast::<i8>(),
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        // No stable prefetch intrinsic: make the hint a no-op.
        let _ = value;
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
