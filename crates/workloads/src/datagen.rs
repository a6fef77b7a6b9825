//! Seeded key generators.
//!
//! All workloads are generated from explicit seeds (the harnesses print
//! them), making every simulation bit-reproducible — the stand-in for the
//! paper's dbgen/dsdgen-generated datasets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use widx_db::prefetch::{huge_vec, prefetch_read};

/// Creates the workspace's deterministic RNG from a seed.
#[must_use]
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// `n` uniformly distributed keys in `[0, bound)` (with repetition) —
/// the paper's outer relation is "128M uniformly distributed 4B keys".
#[must_use]
pub fn uniform_keys(seed: u64, n: usize, bound: u64) -> Vec<u64> {
    assert!(bound > 0, "bound must be positive");
    let mut r = rng(seed);
    (0..n).map(|_| r.gen_range(0..bound)).collect()
}

/// Fisher–Yates swaps whose target is drawn and prefetched ahead.
const SHUFFLE_AHEAD: usize = 16;

/// The keys `0..n` in shuffled order — a dense unique key column, the
/// shape of a primary-key build side.
///
/// Exactly `SliceRandom::shuffle` with [`rng`]`(seed)`, but a swap's
/// target depends only on the RNG, so it is drawn 16 swaps early and its
/// slot prefetched; the draws and swaps keep their order. The column is
/// reserved through [`huge_vec`], so a large one shuffles on 2 MiB pages.
#[must_use]
pub fn unique_shuffled_keys(seed: u64, n: usize) -> Vec<u64> {
    let mut keys: Vec<u64> = huge_vec(n);
    keys.extend(0..n as u64);
    let mut r = rng(seed);
    let mut ahead = [0usize; SHUFFLE_AHEAD];
    // Step `s` swaps slot `n - 1 - s` with a target in `0..n - s`.
    let steps = n.saturating_sub(1);
    for s in 0..steps + SHUFFLE_AHEAD {
        let ring = s % SHUFFLE_AHEAD;
        if s >= SHUFFLE_AHEAD {
            keys.swap(n - 1 - (s - SHUFFLE_AHEAD), ahead[ring]);
        }
        if s < steps {
            ahead[ring] = (r.next_u64() % (n - s) as u64) as usize;
            prefetch_read(&keys[ahead[ring]]);
        }
    }
    keys
}

/// A Zipfian sampler over ranks `0..n` with exponent `theta`.
///
/// Used for skewed probe distributions (hot keys), a standard DSS
/// stressor. Sampling is by inverse CDF over a precomputed table.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with skew `theta` (0 = uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is negative.
    #[must_use]
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(theta >= 0.0, "theta must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        let norm = acc;
        for c in &mut cdf {
            *c /= norm;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, r: &mut impl Rng) -> u64 {
        let u: f64 = r.gen();
        self.cdf.partition_point(|c| *c < u) as u64
    }

    /// Draws `n` ranks.
    pub fn sample_n(&self, r: &mut impl Rng, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.sample(r)).collect()
    }
}

/// `n` Zipfian-distributed keys in `[0, bound)` with skew `theta` —
/// the skewed probe stream a serving front-end sees when a few hot keys
/// dominate the request mix. Rank `r` maps to key `r` (rank 0 is the
/// hottest key), matching [`Zipf`]'s convention.
///
/// # Panics
///
/// Panics if `bound` is zero or `theta` is negative.
#[must_use]
pub fn zipf_keys(seed: u64, n: usize, bound: u64, theta: f64) -> Vec<u64> {
    assert!(bound > 0, "bound must be positive");
    let z = Zipf::new(bound as usize, theta);
    let mut r = rng(seed);
    z.sample_n(&mut r, n)
}

/// `n` range queries `(lo, hi)` with `lo <= hi`: Zipfian-distributed
/// starting keys in `[0, bound)` (skew `theta` — hot *ranges*, the way
/// a serving front-end sees popular scans) and uniform span lengths in
/// `[1, max_span]`, saturating at `u64::MAX`.
///
/// # Panics
///
/// Panics if `bound` or `max_span` is zero or `theta` is negative.
#[must_use]
pub fn range_queries(
    seed: u64,
    n: usize,
    bound: u64,
    max_span: u64,
    theta: f64,
) -> Vec<(u64, u64)> {
    assert!(max_span > 0, "max_span must be positive");
    let z = Zipf::new(usize::try_from(bound).expect("bound fits usize"), theta);
    let mut r = rng(seed);
    (0..n)
        .map(|_| {
            let lo = z.sample(&mut r);
            let span = r.gen_range(1..=max_span);
            (lo, lo.saturating_add(span))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(uniform_keys(7, 100, 1000), uniform_keys(7, 100, 1000));
        assert_ne!(uniform_keys(7, 100, 1000), uniform_keys(8, 100, 1000));
        assert_eq!(unique_shuffled_keys(3, 50), unique_shuffled_keys(3, 50));
    }

    #[test]
    fn unique_keys_are_the_plain_shuffle() {
        use rand::seq::SliceRandom;
        // Sizes below, at and past the draw-ahead ring, and one large
        // enough that the ring wraps many times.
        for n in [0usize, 1, 2, 3, 16, 17, 1000, 65_537] {
            for seed in [0u64, 7, 0xBEEF] {
                let mut want: Vec<u64> = (0..n as u64).collect();
                want.shuffle(&mut rng(seed));
                assert_eq!(unique_shuffled_keys(seed, n), want, "n {n} seed {seed}");
            }
        }
    }

    #[test]
    fn uniform_respects_bound() {
        let keys = uniform_keys(1, 10_000, 64);
        assert!(keys.iter().all(|k| *k < 64));
        // All values should appear for this density.
        let mut seen = [false; 64];
        for k in &keys {
            seen[*k as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn unique_is_a_permutation() {
        let keys = unique_shuffled_keys(9, 1000);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000u64).collect::<Vec<_>>());
        // And actually shuffled.
        assert_ne!(keys, (0..1000u64).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let z = Zipf::new(1000, 0.99);
        let mut r = rng(42);
        let samples = z.sample_n(&mut r, 20_000);
        let head = samples.iter().filter(|s| **s < 10).count();
        let tail = samples.iter().filter(|s| **s >= 990).count();
        assert!(head > tail * 10, "head {head} tail {tail}");
        assert!(samples.iter().all(|s| *s < 1000));
    }

    #[test]
    fn zipf_theta_zero_is_uniformish() {
        let z = Zipf::new(100, 0.0);
        let mut r = rng(1);
        let samples = z.sample_n(&mut r, 50_000);
        let head = samples.iter().filter(|s| **s < 50).count();
        let frac = head as f64 / samples.len() as f64;
        assert!((frac - 0.5).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_zero_ranks_rejected() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn range_queries_are_ordered_bounded_and_skewed() {
        let ranges = range_queries(5, 10_000, 1000, 64, 0.99);
        assert_eq!(ranges, range_queries(5, 10_000, 1000, 64, 0.99));
        for (lo, hi) in &ranges {
            assert!(lo <= hi && *lo < 1000 && *hi <= 1000 + 64);
            assert!(*hi - *lo >= 1 && *hi - *lo <= 64);
        }
        // Starting keys are skewed toward the head of the key space.
        let head = ranges.iter().filter(|(lo, _)| *lo < 10).count();
        let tail = ranges.iter().filter(|(lo, _)| *lo >= 990).count();
        assert!(head > tail * 10, "head {head} tail {tail}");
    }

    #[test]
    fn zipf_keys_deterministic_bounded_and_skewed() {
        let a = zipf_keys(11, 20_000, 500, 0.99);
        let b = zipf_keys(11, 20_000, 500, 0.99);
        assert_eq!(a, b);
        assert!(a.iter().all(|k| *k < 500));
        let head = a.iter().filter(|k| **k < 5).count();
        let tail = a.iter().filter(|k| **k >= 495).count();
        assert!(head > tail * 10, "head {head} tail {tail}");
    }
}
