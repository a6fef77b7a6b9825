//! Order statistics: percentile picking that refuses thin tails, and
//! the window medians every gated throughput and latency figure is.

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that it is one outlier's value, not a statistic.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0..=1`) of an ascending slice, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
#[must_use]
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of `values` (mean of the middle two for an even count); NaN
/// for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the default exclusive method) — the acceptance
/// rule for this benchmark is stated in those terms. Needs two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n >= 2, "quartiles need at least two values");
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median: the spread figure the
/// bounds in `BENCHMARK.json` are compared with.
#[must_use]
pub fn iqr_frac(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Completions of one timed phase, cut into equal windows. Latencies
/// arrive in completion order, so a window is a contiguous run of
/// `latencies_ns`.
pub struct Windows {
    window_ns: u64,
    /// Units of work (keys, entries or ops) completed per window.
    units: Vec<u64>,
    /// `latencies_ns[ends[w - 1]..ends[w]]` belong to window `w`.
    ends: Vec<usize>,
    latencies_ns: Vec<u64>,
}

impl Windows {
    /// `count` windows of `window_ns`, with room for `capacity` samples
    /// that is already resident: a buffer growing page by page during
    /// the timed phase would be counted as the index growing
    /// (`rss_bytes_per_entry`).
    #[must_use]
    pub fn new(count: usize, window_ns: u64, capacity: usize) -> Windows {
        let mut latencies_ns = vec![1; capacity];
        latencies_ns.clear();
        Windows {
            window_ns,
            units: vec![0; count],
            ends: vec![0; count],
            latencies_ns,
        }
    }

    #[must_use]
    pub fn span_ns(&self) -> u64 {
        self.window_ns * self.units.len() as u64
    }

    /// Records one completion `at_ns` after the phase began. Returns
    /// `false`, recording nothing, once the phase is over.
    pub fn record(&mut self, at_ns: u64, latency_ns: u64, units: u64) -> bool {
        let window = (at_ns / self.window_ns) as usize;
        if window >= self.units.len() {
            return false;
        }
        self.units[window] += units;
        self.latencies_ns.push(latency_ns);
        for end in &mut self.ends[window..] {
            *end = self.latencies_ns.len();
        }
        true
    }

    #[must_use]
    pub fn total_units(&self) -> u64 {
        self.units.iter().sum()
    }

    /// Units per second, window by window.
    #[must_use]
    pub fn rates(&self) -> Vec<f64> {
        let secs = self.window_ns as f64 / 1e9;
        self.units.iter().map(|&u| u as f64 / secs).collect()
    }

    /// Each window's percentile `q`, in ns; windows too thin for the
    /// percentile are left out.
    #[must_use]
    pub fn window_percentiles(&self, q: f64) -> Vec<f64> {
        let mut start = 0;
        let mut picks = Vec::new();
        for &end in &self.ends {
            let mut window = self.latencies_ns[start..end].to_vec();
            window.sort_unstable();
            picks.extend(percentile(&window, q).map(|p| p as f64));
            start = end;
        }
        picks
    }

    /// Every sample of the phase, in completion order.
    #[must_use]
    pub fn latencies_ns(&self) -> &[u64] {
        &self.latencies_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.50), Some(50));
        assert_eq!(percentile(&hundred, 0.90), Some(90), "exactly ten beyond");
        assert_eq!(percentile(&hundred, 0.91), None, "nine beyond");
        assert_eq!(percentile(&hundred, 0.99), None);
        assert_eq!(
            percentile(&hundred[..19], 0.50),
            None,
            "median of 19 has 9 beyond"
        );
        assert_eq!(percentile(&hundred[..20], 0.50), Some(10));
        assert_eq!(percentile(&[], 0.50), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&ten);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_frac(&ten) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn window_medians_ignore_one_bad_window() {
        // Three 1 s windows of 30 samples; the middle one is 100x slower
        // and completes a tenth of the work.
        let mut w = Windows::new(3, 1_000_000_000, 90);
        for window in 0..3u64 {
            let (latency, units) = if window == 1 {
                (100_000, 1)
            } else {
                (1_000, 10)
            };
            for i in 0..30u64 {
                let at = window * 1_000_000_000 + i * 1_000_000;
                assert!(w.record(at, latency + i, units));
            }
        }
        assert!(!w.record(3_000_000_000, 1, 1), "past the last window");
        assert_eq!(w.latencies_ns().len(), 90);
        assert_eq!(w.total_units(), 630);
        assert_eq!(w.rates(), vec![300.0, 30.0, 300.0]);
        assert_eq!(median(&w.rates()), 300.0);
        assert_eq!(
            w.window_percentiles(0.50),
            vec![1_014.0, 100_014.0, 1_014.0]
        );
        assert_eq!(median(&w.window_percentiles(0.50)), 1_014.0);
        assert!(
            w.window_percentiles(0.99).is_empty(),
            "30 samples cannot give a p99"
        );
    }

    #[test]
    fn an_empty_window_between_full_ones_keeps_the_cuts_straight() {
        let mut w = Windows::new(3, 10, 40);
        for i in 0..20 {
            w.record(0, 5 + i, 1);
        }
        for i in 0..20 {
            w.record(25, 50 + i, 1);
        }
        assert_eq!(w.rates()[1], 0.0);
        // The empty window is left out.
        assert_eq!(w.window_percentiles(0.50), vec![14.0, 59.0]);
    }
}
