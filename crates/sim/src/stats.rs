//! Streaming statistics used throughout the simulator and the experiment
//! harness: Welford mean/variance, EWMA filters, counter histograms, and
//! percentile summaries.

use serde::{Deserialize, Serialize};

/// Welford online mean/variance accumulator.
///
/// ```
/// use dophy_sim::stats::Streaming;
///
/// let mut s = Streaming::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.variance(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Streaming {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Streaming {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation (NaN if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (NaN if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Streaming) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exponentially weighted moving average, the filter CTP-style link
/// estimators use.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates a filter with smoothing factor `alpha` in `(0, 1]`; larger
    /// alpha weights new samples more.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self { alpha, value: None }
    }

    /// Feeds one sample, returning the updated estimate.
    pub fn update(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        };
        self.value = Some(v);
        v
    }

    /// Current estimate, if any sample has arrived.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// Dense histogram over small non-negative integer outcomes (attempt counts,
/// hop counts, queue depths).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CountHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl CountHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one occurrence of `value`.
    pub fn record(&mut self, value: usize) {
        if value >= self.counts.len() {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += 1;
        self.total += 1;
    }

    /// Occurrences of `value`.
    pub fn count(&self, value: usize) -> u64 {
        self.counts.get(value).copied().unwrap_or(0)
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of the recorded values.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(v, &c)| v as u64 * c)
            .sum();
        sum as f64 / self.total as f64
    }

    /// Counts as normalised weights (for entropy computations).
    pub fn weights(&self) -> Vec<f64> {
        self.counts.iter().map(|&c| c as f64).collect()
    }

    /// Largest recorded value, if any.
    pub fn max_value(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// Folds another histogram into this one (element-wise count sum).
    pub fn merge(&mut self, other: &CountHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.total += other.total;
    }

    /// Iterates `(value, count)` pairs with non-zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v, c))
    }
}

/// Percentile summary of a batch of samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    /// Minimum.
    pub p0: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub p100: f64,
}

/// Computes a percentile summary; returns `None` for empty input.
/// Uses nearest-rank interpolation on a sorted copy.
pub fn percentiles(samples: &[f64]) -> Option<Percentiles> {
    if samples.is_empty() {
        return None;
    }
    let mut s: Vec<f64> = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in percentile input"));
    let at = |q: f64| -> f64 {
        let idx = (q * (s.len() - 1) as f64).round() as usize;
        s[idx]
    };
    Some(Percentiles {
        p0: s[0],
        p50: at(0.50),
        p90: at(0.90),
        p99: at(0.99),
        p100: *s.last().expect("non-empty"),
    })
}

/// Empirical CDF points `(value, cumulative_fraction)` for plotting.
pub fn ecdf(samples: &[f64]) -> Vec<(f64, f64)> {
    let mut s: Vec<f64> = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in ecdf input"));
    let n = s.len() as f64;
    s.iter()
        .enumerate()
        .map(|(i, &v)| (v, (i + 1) as f64 / n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_mean_variance() {
        let mut s = Streaming::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4 → sample variance is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn streaming_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Streaming::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Streaming::new();
        let mut b = Streaming::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn streaming_empty_is_sane() {
        let s = Streaming::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_nan());
    }

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.2);
        assert_eq!(e.value(), None);
        e.update(10.0);
        assert_eq!(e.value(), Some(10.0));
        for _ in 0..200 {
            e.update(2.0);
        }
        assert!((e.value().unwrap() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn ewma_first_sample_seeds() {
        let mut e = Ewma::new(0.01);
        assert_eq!(e.update(5.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        Ewma::new(0.0);
    }

    #[test]
    fn histogram_counts_and_mean() {
        let mut h = CountHistogram::new();
        for v in [1, 1, 1, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.count(1), 3);
        assert_eq!(h.count(5), 0);
        assert_eq!(h.total(), 5);
        assert!((h.mean() - 1.6).abs() < 1e-12);
        assert_eq!(h.max_value(), Some(3));
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(1, 3), (2, 1), (3, 1)]);
    }

    #[test]
    fn percentile_summary() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentiles(&samples).unwrap();
        assert_eq!(p.p0, 1.0);
        assert_eq!(p.p100, 100.0);
        assert!((p.p50 - 50.0).abs() <= 1.0);
        assert!((p.p90 - 90.0).abs() <= 1.0);
        assert!(percentiles(&[]).is_none());
    }

    #[test]
    fn ecdf_is_monotone() {
        let points = ecdf(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].0, 1.0);
        assert_eq!(points[3], (3.0, 1.0));
        for w in points.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }
}
