//! Portable memory hints: a cache-line prefetch and 2 MiB page advice.
//!
//! The paper's `TOUCH` instruction "demand\[s\] data blocks in advance of
//! their use"; on commodity x86-64 the equivalent is `prefetcht0`. On
//! targets without a stable prefetch intrinsic this compiles to a no-op,
//! which only costs performance, never correctness — prefetches are
//! non-binding by definition. The index builds use it, and
//! `widx_soft::prefetch` re-exports it for the walkers. A record may
//! straddle two lines (a 24-byte hash record does one time in four), so
//! [`prefetch_lines`] fetches every line a visit will read.
//!
//! At DRAM-resident sizes a miss also pays a page walk: [`huge_vec`]
//! advises a build buffer onto 2 MiB pages before its first write (after
//! it, 4 KiB pages are mapped). A hint too, Linux only.

const HUGE_PAGE: usize = 2 << 20; // one x86-64 PMD-mapped page
const LINE: usize = 64; // x86-64 cache line

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

/// Prefetches every cache line of the `len` values of `T` from `from`
/// (`len` 1 for one record). The pointer need not be valid.
#[inline(always)]
pub fn prefetch_lines<T>(from: *const T, len: usize) {
    for offset in line_offsets(len * size_of::<T>()) {
        prefetch_read(from.cast::<u8>().wrapping_add(offset));
    }
}

/// Byte offsets that touch every line of a `bytes`-byte span wherever it
/// starts: the first byte, every 64 bytes after it, and the last byte,
/// whose line an unaligned start would leave out.
#[inline(always)]
fn line_offsets(bytes: usize) -> impl Iterator<Item = usize> {
    (0..bytes).step_by(LINE).chain(bytes.checked_sub(1))
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
        prefetch_lines(data.as_ptr(), data.len());
        assert_eq!(data, vec![1, 2, 3]);
    }

    /// The distinct lines a `bytes`-byte span at address `at` touches.
    fn lines(at: usize, bytes: usize) -> Vec<usize> {
        let mut lines: Vec<usize> = line_offsets(bytes).map(|o| (at + o) / LINE).collect();
        lines.dedup();
        lines
    }

    #[test]
    fn a_straddling_record_is_fetched_on_both_lines() {
        for offset in (0..LINE).step_by(8) {
            let want: Vec<usize> = if offset < 48 { vec![3] } else { vec![3, 4] };
            assert_eq!(lines(3 * LINE + offset, 24), want, "offset {offset}");
        }
        assert_eq!(lines(LINE, 0), Vec::<usize>::new());
    }

    #[test]
    fn an_unaligned_multi_line_slot_is_fully_covered() {
        // A fanout-64 B+-tree slot, two header words and 65 keys, at every
        // word offset; and its 65 payloads alone.
        for bytes in [(2 + 65) * 8, 65 * 8] {
            for at in (LINE..2 * LINE).step_by(8) {
                let want: Vec<usize> = (at / LINE..=(at + bytes - 1) / LINE).collect();
                assert_eq!(lines(at, bytes), want, "{bytes} B at {at}");
            }
        }
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
