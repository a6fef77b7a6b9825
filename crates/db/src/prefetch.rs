//! Portable memory hints: a cache-line prefetch and 2 MiB page advice.
//!
//! The paper's `TOUCH` instruction "demand\[s\] data blocks in advance of
//! their use"; on commodity x86-64 the equivalent is `prefetcht0`. On
//! targets without a stable prefetch intrinsic this compiles to a no-op,
//! which only costs performance, never correctness — prefetches are
//! non-binding by definition. The index builds use it, and
//! `widx_soft::prefetch` re-exports it for the walkers.
//!
//! At DRAM-resident sizes a miss also pays a page walk: [`huge_vec`]
//! advises a build buffer onto 2 MiB pages before its first write (after
//! it, 4 KiB pages are mapped). A hint too, Linux only.

const HUGE_PAGE: usize = 2 << 20; // one x86-64 PMD-mapped page

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

/// An empty `Vec` with room for `capacity` elements, its whole 2 MiB
/// pages advised onto huge pages. Under 4 MiB, where no whole aligned
/// page is sure to fit, it is `Vec::new()`, to grow as a plain `Vec`.
#[must_use]
pub fn huge_vec<T>(capacity: usize) -> Vec<T> {
    let bytes = capacity.saturating_mul(size_of::<T>());
    if bytes < 2 * HUGE_PAGE {
        return Vec::new();
    }
    let vec = Vec::with_capacity(capacity);
    let pages = huge_interior(vec.as_ptr() as usize, bytes);
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_void};
        extern "C" {
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        }
        const MADV_HUGEPAGE: c_int = 14;
        // SAFETY: `pages` lies inside the allocation `vec` owns, 2 MiB- (so
        // page-) aligned at both ends. The advice changes no contents or
        // permissions; its result is ignored, as a hint's may be.
        unsafe { madvise(pages.start as *mut c_void, pages.len(), MADV_HUGEPAGE) };
    }
    #[cfg(not(target_os = "linux"))]
    let _ = pages;
    vec
}

/// The whole 2 MiB pages inside `start..start + bytes`, rounding inward.
fn huge_interior(start: usize, bytes: usize) -> std::ops::Range<usize> {
    let lo = start.next_multiple_of(HUGE_PAGE);
    let hi = (start + bytes) / HUGE_PAGE * HUGE_PAGE;
    lo..hi.max(lo)
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

    #[test]
    fn the_advised_range_rounds_inward_to_whole_pages() {
        let page = HUGE_PAGE;
        let starts = [0, 16, 4096, page - 16, page, page + 16, 7 * page + 12_345];
        let sizes = [
            0,
            1,
            page - 1,
            page,
            page + 1,
            2 * page - 1,
            2 * page,
            5 * page + 7,
        ];
        for start in starts {
            for bytes in sizes {
                let r = huge_interior(start, bytes);
                let inside = r.start >= start && r.end <= start + bytes;
                assert!(r.is_empty() || inside, "{start} {bytes}");
                assert_eq!((r.start % page, r.end % page), (0, 0), "{start} {bytes}");
                let whole_page = (0..=start + bytes)
                    .step_by(page)
                    .any(|p| p >= start && p + page <= start + bytes);
                assert_eq!(r.is_empty(), !whole_page, "{start} {bytes}");
            }
        }
        assert_eq!(huge_interior(16, 4 * page), page..4 * page);
        assert_eq!(huge_interior(page, 2 * page), page..3 * page);
    }

    #[test]
    fn below_the_floor_nothing_is_reserved() {
        assert_eq!(huge_vec::<u64>(0).capacity(), 0);
        assert_eq!(huge_vec::<u64>((2 * HUGE_PAGE) / 8 - 1).capacity(), 0);
        let v = huge_vec::<u64>((2 * HUGE_PAGE) / 8);
        assert!(v.is_empty() && v.capacity() == 2 * HUGE_PAGE / 8);
    }
}
