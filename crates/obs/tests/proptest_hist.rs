//! Property tests pinning the histogram algebra the telemetry layer
//! leans on: log₂ bucket boundaries, merge associativity and
//! commutativity (shard cells merge in arbitrary order), and snapshot
//! coherence under concurrent recording (counts only ever grow, and a
//! quiescent snapshot is exact).

use std::sync::Arc;

use proptest::prelude::*;
use widx_obs::{bucket_ceil, bucket_floor, bucket_of, AtomicHistogram, HistogramSnapshot};

fn filled(samples: &[u64]) -> HistogramSnapshot {
    let h = AtomicHistogram::new();
    for &ns in samples {
        h.record(ns);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every value lands in the bucket whose `[floor, ceil]` span
    /// contains it, and the spans tile the u64 line in order.
    #[test]
    fn bucket_boundaries_contain_their_values(ns in any::<u64>()) {
        let b = bucket_of(ns);
        prop_assert!(b < widx_obs::HIST_BUCKETS);
        prop_assert!(bucket_floor(b) <= ns, "floor({b}) > {ns}");
        prop_assert!(ns <= bucket_ceil(b), "{ns} > ceil({b})");
        if b > 0 {
            prop_assert_eq!(bucket_ceil(b - 1) + 1, bucket_floor(b));
        }
    }

    /// Quantiles of any non-empty histogram stay inside the observed
    /// `[min, max]` range and are monotone in `q`.
    #[test]
    fn quantiles_are_bounded_and_monotone(
        samples in prop::collection::vec(0u64..1_000_000_000, 1..200),
    ) {
        let snap = filled(&samples);
        prop_assert_eq!(snap.count(), samples.len() as u64);
        let min = *samples.iter().min().expect("non-empty");
        let max = *samples.iter().max().expect("non-empty");
        prop_assert_eq!((snap.min(), snap.max()), (min, max));
        let mut last = 0u64;
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let v = snap.quantile(q);
            prop_assert!(v >= min && v <= max, "q{q} = {v} outside [{min}, {max}]");
            prop_assert!(v >= last, "quantiles must be monotone in q");
            last = v;
        }
    }

    /// Merging is commutative: `a ∪ b == b ∪ a`, field for field.
    /// Samples span every bucket but stay summable (realistic latency
    /// streams never overflow the u64 nanosecond sum).
    #[test]
    fn merge_is_commutative(
        a in prop::collection::vec(0u64..1 << 40, 0..100),
        b in prop::collection::vec(0u64..1 << 40, 0..100),
    ) {
        let (sa, sb) = (filled(&a), filled(&b));
        prop_assert_eq!(sa.merged(&sb), sb.merged(&sa));
    }

    /// Merging is associative: `(a ∪ b) ∪ c == a ∪ (b ∪ c)` — the
    /// registry may fold shard cells in any grouping.
    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(0u64..1 << 40, 0..80),
        b in prop::collection::vec(0u64..1 << 40, 0..80),
        c in prop::collection::vec(0u64..1 << 40, 0..80),
    ) {
        let (sa, sb, sc) = (filled(&a), filled(&b), filled(&c));
        prop_assert_eq!(sa.merged(&sb).merged(&sc), sa.merged(&sb.merged(&sc)));
        // And the merge of everything equals recording everything.
        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        prop_assert_eq!(sa.merged(&sb).merged(&sc), filled(&all));
    }
}

/// Snapshots taken while writers are mid-flight are coherent: the
/// derived count never decreases between snapshots, never exceeds what
/// has been recorded, and matches exactly once the writers join.
#[test]
fn snapshot_under_concurrent_record_is_coherent() {
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 20_000;
    let hist = Arc::new(AtomicHistogram::new());
    std::thread::scope(|scope| {
        for w in 0..WRITERS as u64 {
            let hist = Arc::clone(&hist);
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    // Spread samples across many buckets.
                    hist.record(w * 1000 + (i % 61) * (1 << (i % 17)));
                }
            });
        }
        let mut last = 0u64;
        let total = (WRITERS as u64) * PER_WRITER;
        while last < total {
            let snap = hist.snapshot();
            let count = snap.count();
            assert!(count >= last, "count went backwards: {count} < {last}");
            assert!(count <= total, "count overshot: {count} > {total}");
            // A snapshot is internally consistent even mid-flight: the
            // derived count is the bucket sum by construction, and the
            // observed extremes bound every bucket with samples.
            if count > 0 {
                assert!(snap.min() <= snap.max());
            }
            last = count;
        }
    });
    let settled = hist.snapshot();
    assert_eq!(settled.count(), (WRITERS as u64) * PER_WRITER);
    assert_eq!(settled.min(), 0, "writer 0 records sample 0");
}

/// The extremes under contention: writers interleave samples whose
/// extremes keep moving outward for the whole run, so the relaxed-load
/// skip in `record` races real `fetch_min` / `fetch_max` updates. Every
/// sample is a power of two, one value per bucket, so a mid-run snapshot
/// can check exactly that each sample it counts lies inside its own
/// `[min, max]`; once the writers join, min, max, sum and count equal
/// the sequential fold of the same samples.
#[test]
fn extremes_under_concurrent_record_bound_every_counted_sample() {
    const WRITERS: u64 = 4;
    const STEPS: u64 = 20_000;
    // Writer `w`'s sample at `step`: alternately below and above 2^24,
    // drifting outward to 2^4 and 2^44 (sums stay far below u64::MAX).
    let sample = |w: u64, step: u64| {
        let drift = step * 21 / STEPS;
        if (w + step).is_multiple_of(2) {
            1u64 << (24 - drift)
        } else {
            1u64 << (24 + drift)
        }
    };
    let hist = AtomicHistogram::new();
    std::thread::scope(|scope| {
        let hist = &hist;
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| scope.spawn(move || (0..STEPS).for_each(|s| hist.record(sample(w, s)))))
            .collect();
        while !writers.iter().all(|w| w.is_finished()) {
            let snap = hist.snapshot();
            for (i, &n) in snap.buckets.iter().enumerate() {
                let value = 1u64 << i;
                assert!(
                    n == 0 || (snap.min_ns <= value && value <= snap.max_ns),
                    "counted sample {value} outside [{}, {}]",
                    snap.min_ns,
                    snap.max_ns
                );
            }
        }
    });
    let all: Vec<u64> = (0..WRITERS)
        .flat_map(|w| (0..STEPS).map(move |s| sample(w, s)))
        .collect();
    let settled = hist.snapshot();
    assert_eq!(settled.count(), all.len() as u64);
    assert_eq!(settled.sum_ns, all.iter().sum::<u64>());
    assert_eq!(settled.min(), *all.iter().min().expect("samples"));
    assert_eq!(settled.max(), *all.iter().max().expect("samples"));
    assert_eq!(
        settled,
        filled(&all),
        "buckets match the sequential fold too"
    );
}
