//! Fixed log2-bucketed latency histograms with lock-free recording.
//!
//! An [`AtomicHistogram`] is a set of 64 power-of-two buckets plus running
//! sum / min / max registers, all plain `AtomicU64`s. Recording is two
//! read-modify-writes (plus one per extreme the sample moves); snapshotting
//! reads the registers without resetting them, so any number of observers
//! can scrape a live histogram while writers keep recording.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 buckets. Bucket `i` covers `[2^i, 2^(i+1))` nanoseconds
/// (bucket 0 additionally absorbs zero); bucket 63 absorbs everything above.
pub const HIST_BUCKETS: usize = 64;

/// Map a nanosecond value to its log2 bucket index.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        (63 - ns.leading_zeros()) as usize
    }
}

/// Inclusive lower edge of bucket `i`, in nanoseconds.
#[inline]
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// Inclusive upper edge of bucket `i`, in nanoseconds.
#[inline]
pub fn bucket_ceil(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// A lock-free log2 latency histogram.
///
/// Writers call [`record`](AtomicHistogram::record) concurrently from any
/// number of threads; readers call [`snapshot`](AtomicHistogram::snapshot)
/// at any time. Snapshots are not torn per register (each counter is a
/// single atomic) but are not a global atomic cut: a snapshot taken during
/// concurrent recording may observe a record's bucket increment without its
/// sum update or vice versa. Counts are derived from the buckets alone, so
/// they are always internally consistent and monotone across snapshots —
/// and a sample's extremes are published before its bucket, so a snapshot
/// that counts a sample also sees a `min` / `max` that bound it.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Record one sample, in nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        // Warm extremes rarely move: skip the locked op unless this sample
        // moves one. The bound below still holds: the skipping load precedes
        // the bucket's `Release`, so by read-read coherence a snapshot that
        // acquires the bucket reads that extreme or a later, wider one.
        if ns < self.min_ns.load(Ordering::Relaxed) {
            self.min_ns.fetch_min(ns, Ordering::Relaxed);
        }
        if ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        // The bucket goes last and releases the extremes above to the
        // snapshot that counts this sample.
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Release);
    }

    /// Record one sample given as a [`Duration`] (saturating at `u64` ns).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Read the current state without resetting it.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            // Buckets first (fields evaluate in this order): every sample
            // counted here has its extremes visible to the loads below.
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Acquire)),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            min_ns: self.min_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of an [`AtomicHistogram`]'s registers.
///
/// Snapshots merge (bucket-wise addition, min of mins, max of maxes), which
/// is associative and commutative, so per-worker histograms can be combined
/// in any order into a service-wide view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts; bucket `i` covers `[2^i, 2^(i+1))` ns.
    pub buckets: [u64; HIST_BUCKETS],
    /// Sum of all recorded samples, in nanoseconds.
    pub sum_ns: u64,
    /// Smallest recorded sample (`u64::MAX` when empty).
    pub min_ns: u64,
    /// Largest recorded sample (0 when empty).
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HIST_BUCKETS],
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total number of recorded samples (derived from the buckets, so a
    /// snapshot is always self-consistent).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// Smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.min_ns == u64::MAX {
            0
        } else {
            self.min_ns
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max_ns
    }

    /// Arithmetic mean of the recorded samples, in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / count as f64
        }
    }

    /// Nearest-rank quantile, quantized to bucket resolution.
    ///
    /// Returns the upper edge of the bucket holding the target rank,
    /// clamped into `[min, max]` so degenerate distributions report exact
    /// values. Returns 0 for an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return bucket_ceil(i).clamp(self.min(), self.max_ns.max(self.min()));
            }
        }
        self.max_ns
    }

    /// Combine two snapshots into one (associative and commutative).
    pub fn merged(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
            // Saturating keeps the merge total (and its associativity)
            // well-defined even for adversarial sums no real latency
            // stream produces.
            sum_ns: self.sum_ns.saturating_add(other.sum_ns),
            min_ns: self.min_ns.min(other.min_ns),
            max_ns: self.max_ns.max(other.max_ns),
        }
    }

    /// Fold `other` into `self` in place.
    pub fn merge_from(&mut self, other: &HistogramSnapshot) {
        *self = self.merged(other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        for i in 1..63 {
            assert_eq!(bucket_of(1u64 << i), i, "lower edge of bucket {i}");
            assert_eq!(
                bucket_of((1u64 << (i + 1)) - 1),
                i,
                "upper edge of bucket {i}"
            );
        }
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_ceil(0), 1);
        assert_eq!(bucket_floor(10), 1024);
        assert_eq!(bucket_ceil(10), 2047);
        assert_eq!(bucket_ceil(63), u64::MAX);
    }

    #[test]
    fn record_and_snapshot_roundtrip() {
        let h = AtomicHistogram::new();
        for ns in [0, 1, 2, 100, 1_000, 1_000_000] {
            h.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum_ns, 1_001_103);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 1_000_000);
        assert!((s.mean_ns() - 1_001_103.0 / 6.0).abs() < 1e-9);
        // 0 and 1 share bucket 0.
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 1);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = AtomicHistogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean_ns(), 0.0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s, HistogramSnapshot::default());
    }

    #[test]
    fn quantiles_are_bucket_quantized_and_clamped() {
        let h = AtomicHistogram::new();
        // One sample: every quantile is exactly that sample (clamp at work).
        h.record(700);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 700);
        assert_eq!(s.quantile(0.5), 700);
        assert_eq!(s.quantile(1.0), 700);

        // Spread: p50 lands in the bucket holding the median rank.
        let h = AtomicHistogram::new();
        for ns in [10, 20, 40, 80, 160, 320, 640, 1280] {
            h.record(ns);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5);
        // rank 4 of 8 -> the sample 80 -> bucket 6 [64,128), ceil 127.
        assert_eq!(p50, 127);
        assert_eq!(s.quantile(1.0), 1280);
        assert!(s.quantile(0.99) <= s.max());
        assert!(s.quantile(0.01) >= s.min());
    }

    #[test]
    fn percentiles_on_empty_histogram_are_zero() {
        let s = AtomicHistogram::new().snapshot();
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(s.quantile(q), 0, "empty q{q}");
        }
    }

    #[test]
    fn percentiles_with_single_bucket_mass_report_that_bucket() {
        // All mass in one bucket: every percentile must land inside it.
        let h = AtomicHistogram::new();
        for _ in 0..10_000 {
            h.record(1_500); // bucket 10: [1024, 2048)
        }
        let s = h.snapshot();
        for q in [0.5, 0.99, 0.999] {
            let v = s.quantile(q);
            assert_eq!(v, 1_500, "single-bucket q{q} clamps to the exact sample");
            assert!(v >= s.min() && v <= s.max());
        }
    }

    #[test]
    fn percentiles_with_saturated_top_bucket_do_not_panic_or_overflow() {
        // Bucket 63 absorbs everything >= 2^63; its ceil is u64::MAX.
        let h = AtomicHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1u64 << 63);
        let s = h.snapshot();
        assert_eq!(s.count(), 3);
        for q in [0.5, 0.99, 0.999] {
            let v = s.quantile(q);
            assert!(v >= 1u64 << 63, "saturated q{q} stays in the top bucket");
        }
        assert_eq!(s.max(), u64::MAX);
        // Mixed: a low-bucket majority with a saturated tail keeps p50 low
        // and pushes p999 to the top without panicking.
        let h = AtomicHistogram::new();
        for _ in 0..999 {
            h.record(100);
        }
        h.record(u64::MAX);
        let s = h.snapshot();
        assert!(s.quantile(0.5) < 1_000);
        assert!(s.quantile(0.999) < 1_000); // rank 999 of 1000 is still the low bucket
        assert_eq!(s.quantile(1.0), u64::MAX);
    }

    #[test]
    fn merge_is_commutative_and_preserves_totals() {
        let a = {
            let h = AtomicHistogram::new();
            for ns in [5, 50, 500] {
                h.record(ns);
            }
            h.snapshot()
        };
        let b = {
            let h = AtomicHistogram::new();
            for ns in [7, 7_000] {
                h.record(ns);
            }
            h.snapshot()
        };
        let ab = a.merged(&b);
        let ba = b.merged(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 5);
        assert_eq!(ab.sum_ns, a.sum_ns + b.sum_ns);
        assert_eq!(ab.min(), 5);
        assert_eq!(ab.max(), 7_000);
        // Merging the empty snapshot is the identity.
        assert_eq!(a.merged(&HistogramSnapshot::default()), a);
    }
}
