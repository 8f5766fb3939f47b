//! Per-link loss estimation from retransmission-count observations.
//!
//! Over a link with per-transmission reception probability `p`, the attempt
//! number of the first received copy is geometric: `P(A = a) = (1-p)^(a-1) p`.
//! Two complications make the textbook estimator (`p̂ = n / Σa`) biased:
//!
//! * **Truncation** — exchanges that fail all `R` data attempts are never
//!   observed at all, so samples come from the geometric *conditioned on
//!   `A ≤ R`*. Ignoring this over-estimates `p` on bad links.
//! * **Censoring** — symbol aggregation (Optimization 1) reports some
//!   observations only as a range `lo..=hi`.
//!
//! [`LinkEstimator`] therefore maximises the exact likelihood
//!
//! ```text
//! ℓ(p) = Σ_exact log[(1-p)^(a-1) p] + Σ_range log[(1-p)^(lo-1) - (1-p)^hi]
//!        - n log[1 - (1-p)^R]
//! ```
//!
//! via a grid scan plus golden-section refinement (robust, no derivatives),
//! with a standard error from the numerical observed information. The naive
//! method-of-moments estimator is kept for the ablation comparison.

use dophy_coding::aggregate::AttemptObservation;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// A per-link loss estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossEstimate {
    /// Estimated per-transmission reception probability.
    pub p_success: f64,
    /// Estimated loss ratio (`1 - p_success`).
    pub loss: f64,
    /// Observations behind the estimate.
    pub n_samples: u64,
    /// Wald standard error of `p_success` (None when the information is
    /// degenerate, e.g. all samples at the boundary).
    pub stderr: Option<f64>,
}

/// Accumulates attempt observations for one directed link.
///
/// ```
/// use dophy::estimator::LinkEstimator;
/// use dophy_coding::aggregate::AttemptObservation;
///
/// let mut est = LinkEstimator::new();
/// // 80 first-attempt successes, 20 second-attempt, 5 censored "4..=7".
/// for _ in 0..80 { est.observe(AttemptObservation::Exact(1)); }
/// for _ in 0..20 { est.observe(AttemptObservation::Exact(2)); }
/// for _ in 0..5 { est.observe(AttemptObservation::Range { lo: 4, hi: 7 }); }
/// let fit = est.mle(7).unwrap();
/// assert!(fit.loss > 0.1 && fit.loss < 0.35);
/// assert_eq!(fit.n_samples, 105);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkEstimator {
    /// `exact[a]` = count of exact observations with attempt `a`.
    /// Ordered so likelihood sums are evaluated in a fixed order —
    /// float summation order affects the last bits, and byte-identical
    /// same-seed output is a hard guarantee.
    exact: BTreeMap<u16, u64>,
    /// `(lo, hi)` → count of censored observations.
    ranges: BTreeMap<(u16, u16), u64>,
    n: u64,
}

impl LinkEstimator {
    /// Empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, obs: AttemptObservation) {
        match obs {
            AttemptObservation::Exact(a) => *self.exact.entry(a).or_insert(0) += 1,
            AttemptObservation::Range { lo, hi } => *self.ranges.entry((lo, hi)).or_insert(0) += 1,
        }
        self.n += 1;
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Log-likelihood of reception probability `p` under retry budget `r`.
    pub fn log_likelihood(&self, p: f64, r: u16) -> f64 {
        let p = p.clamp(1e-12, 1.0 - 1e-12);
        let q = 1.0 - p;
        let lq = q.ln();
        let mut ll = 0.0;
        for (&a, &c) in &self.exact {
            ll += c as f64 * (f64::from(a - 1) * lq + p.ln());
        }
        for (&(lo, hi), &c) in &self.ranges {
            // Σ_{a=lo..hi} q^(a-1) p = q^(lo-1) - q^hi.
            let mass = q.powi(i32::from(lo) - 1) - q.powi(i32::from(hi));
            ll += c as f64 * mass.max(1e-300).ln();
        }
        // Condition on delivery within the budget.
        let trunc = 1.0 - q.powi(i32::from(r));
        ll -= self.n as f64 * trunc.max(1e-300).ln();
        ll
    }

    /// Truncation/censoring-aware MLE. `r` is the MAC retry budget.
    /// Returns `None` with no observations.
    pub fn mle(&self, r: u16) -> Option<LossEstimate> {
        if self.n == 0 {
            return None;
        }
        // Coarse grid to bracket the optimum (the likelihood is unimodal
        // for this family; the grid guards against numerical plateaus).
        const GRID: usize = 64;
        let eval = |p: f64| self.log_likelihood(p, r);
        let mut best_i = 0;
        let mut best_v = f64::NEG_INFINITY;
        let grid_p = |i: usize| 1e-4 + (1.0 - 2e-4) * (i as f64 / (GRID - 1) as f64);
        for i in 0..GRID {
            let v = eval(grid_p(i));
            if v > best_v {
                best_v = v;
                best_i = i;
            }
        }
        let mut lo = grid_p(best_i.saturating_sub(1));
        let mut hi = grid_p((best_i + 1).min(GRID - 1));
        // Golden-section refinement.
        const INV_PHI: f64 = 0.618_033_988_749_894_9;
        let mut x1 = hi - INV_PHI * (hi - lo);
        let mut x2 = lo + INV_PHI * (hi - lo);
        let mut f1 = eval(x1);
        let mut f2 = eval(x2);
        for _ in 0..70 {
            if f1 < f2 {
                lo = x1;
                x1 = x2;
                f1 = f2;
                x2 = lo + INV_PHI * (hi - lo);
                f2 = eval(x2);
            } else {
                hi = x2;
                x2 = x1;
                f2 = f1;
                x1 = hi - INV_PHI * (hi - lo);
                f1 = eval(x1);
            }
        }
        let p_hat = (lo + hi) / 2.0;
        // Observed information via central second difference.
        let h = 1e-5;
        let stderr = if p_hat > 2.0 * h && p_hat < 1.0 - 2.0 * h {
            let d2 = (eval(p_hat + h) - 2.0 * eval(p_hat) + eval(p_hat - h)) / (h * h);
            (d2 < -1e-9).then(|| (-1.0 / d2).sqrt())
        } else {
            None
        };
        Some(LossEstimate {
            p_success: p_hat,
            loss: 1.0 - p_hat,
            n_samples: self.n,
            stderr,
        })
    }

    /// Naive method-of-moments estimator `p̂ = n / Σ a` (midpoints for
    /// ranges), ignoring truncation — the ablation baseline.
    pub fn naive(&self) -> Option<LossEstimate> {
        if self.n == 0 {
            return None;
        }
        let mut sum = 0.0;
        for (&a, &c) in &self.exact {
            sum += f64::from(a) * c as f64;
        }
        for (&(lo, hi), &c) in &self.ranges {
            sum += (f64::from(lo) + f64::from(hi)) / 2.0 * c as f64;
        }
        let p = (self.n as f64 / sum).clamp(0.0, 1.0);
        Some(LossEstimate {
            p_success: p,
            loss: 1.0 - p,
            n_samples: self.n,
            stderr: None,
        })
    }

    /// Empirical distribution of *exact* attempt observations, normalised:
    /// `dist[a-1]` ≈ P(A = a) for `a` in `1..=r`. Censored observations
    /// spread their mass over their range proportionally to the fitted
    /// geometric. Returns `None` without observations.
    pub fn attempt_distribution(&self, r: u16) -> Option<Vec<f64>> {
        if self.n == 0 {
            return None;
        }
        let p = self.mle(r)?.p_success.clamp(1e-6, 1.0 - 1e-6);
        let q = 1.0 - p;
        let mut mass = vec![0.0f64; usize::from(r)];
        for (&a, &c) in &self.exact {
            if a >= 1 && a <= r {
                mass[usize::from(a) - 1] += c as f64;
            }
        }
        for (&(lo, hi), &c) in &self.ranges {
            // Spread by the fitted geometric within [lo, hi].
            let hi = hi.min(r);
            let total: f64 = (lo..=hi).map(|a| q.powi(i32::from(a) - 1) * p).sum();
            if total > 0.0 {
                for a in lo..=hi {
                    let w = q.powi(i32::from(a) - 1) * p / total;
                    mass[usize::from(a) - 1] += c as f64 * w;
                }
            }
        }
        let sum: f64 = mass.iter().sum();
        if sum > 0.0 {
            for m in &mut mass {
                *m /= sum;
            }
        }
        Some(mass)
    }

    /// Expected physical transmissions per delivered packet on this link
    /// under the fitted model (the energy-relevant quantity): the mean of
    /// the truncated geometric at the MLE.
    pub fn expected_transmissions(&self, r: u16) -> Option<f64> {
        let p = self.mle(r)?.p_success.clamp(1e-6, 1.0 - 1e-6);
        let q = 1.0 - p;
        let norm: f64 = 1.0 - q.powi(i32::from(r));
        let mean: f64 = (1..=r)
            .map(|a| f64::from(a) * q.powi(i32::from(a) - 1) * p)
            .sum::<f64>()
            / norm.max(1e-12);
        Some(mean)
    }

    /// Merges another estimator's observations into this one.
    pub fn merge(&mut self, other: &LinkEstimator) {
        for (&a, &c) in &other.exact {
            *self.exact.entry(a).or_insert(0) += c;
        }
        for (&k, &c) in &other.ranges {
            *self.ranges.entry(k).or_insert(0) += c;
        }
        self.n += other.n;
    }
}

/// Network-wide estimator: one [`LinkEstimator`] per directed link.
#[derive(Debug, Clone, Default)]
pub struct NetworkEstimator {
    links: HashMap<(u32, u32), LinkEstimator>,
}

impl NetworkEstimator {
    /// Empty network estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation for link `src → dst`.
    pub fn observe(&mut self, src: u32, dst: u32, obs: AttemptObservation) {
        self.links.entry((src, dst)).or_default().observe(obs);
    }

    /// Number of links with at least one observation.
    pub fn covered_links(&self) -> usize {
        self.links.len()
    }

    /// Per-link estimator access.
    pub fn link(&self, src: u32, dst: u32) -> Option<&LinkEstimator> {
        self.links.get(&(src, dst))
    }

    /// All MLE estimates with at least `min_samples` observations.
    pub fn estimates(&self, r: u16, min_samples: u64) -> Vec<((u32, u32), LossEstimate)> {
        let mut v: Vec<_> = self
            .links
            .iter()
            .filter(|(_, e)| e.count() >= min_samples)
            .filter_map(|(&k, e)| e.mle(r).map(|est| (k, est)))
            .collect();
        v.sort_by_key(|&(k, _)| k);
        v
    }

    /// All naive estimates with at least `min_samples` observations.
    pub fn naive_estimates(&self, min_samples: u64) -> Vec<((u32, u32), LossEstimate)> {
        let mut v: Vec<_> = self
            .links
            .iter()
            .filter(|(_, e)| e.count() >= min_samples)
            .filter_map(|(&k, e)| e.naive().map(|est| (k, est)))
            .collect();
        v.sort_by_key(|&(k, _)| k);
        v
    }

    /// Drops all accumulated observations (windowed estimation).
    pub fn reset(&mut self) {
        self.links.clear();
    }
}

/// The in-band bake-off backend: Dophy's retransmission-count MLE, fed
/// from [`crate::infer::Evidence::Hop`] events and adapted otherwise
/// unchanged.
impl crate::infer::Estimator for NetworkEstimator {
    fn observe(&mut self, ev: &crate::infer::Evidence) {
        if let crate::infer::Evidence::Hop {
            sender,
            receiver,
            observation,
            ..
        } = ev
        {
            self.observe(*sender, *receiver, *observation);
        }
    }

    fn snapshot(&self, q: &crate::infer::SnapshotQuery) -> Vec<((u32, u32), LossEstimate)> {
        self.estimates(q.r, q.min_samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Draws geometric attempt samples truncated at `r` for success prob
    /// `p`, feeding `est` through an optional censoring cap.
    fn feed_samples(
        est: &mut LinkEstimator,
        p: f64,
        r: u16,
        n: usize,
        cap: Option<u16>,
        seed: u64,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut fed = 0;
        while fed < n {
            let mut a = 1u16;
            while rng.gen::<f64>() >= p && a < r + 10 {
                a += 1;
            }
            if a > r {
                continue; // truncated: never observed
            }
            fed += 1;
            let obs = match cap {
                Some(c) if a >= c => AttemptObservation::Range { lo: c, hi: r },
                _ => AttemptObservation::Exact(a),
            };
            est.observe(obs);
        }
    }

    #[test]
    fn mle_recovers_p_exact_observations() {
        for &p in &[0.9, 0.7, 0.5, 0.3] {
            let mut e = LinkEstimator::new();
            feed_samples(&mut e, p, 7, 20_000, None, 42);
            let est = e.mle(7).unwrap();
            assert!(
                (est.p_success - p).abs() < 0.02,
                "p={p} est={}",
                est.p_success
            );
        }
    }

    #[test]
    fn mle_handles_censored_observations() {
        for &p in &[0.8, 0.5] {
            let mut e = LinkEstimator::new();
            feed_samples(&mut e, p, 7, 20_000, Some(3), 7);
            let est = e.mle(7).unwrap();
            assert!(
                (est.p_success - p).abs() < 0.03,
                "p={p} est={} (censored at 3)",
                est.p_success
            );
        }
    }

    #[test]
    fn naive_biased_on_lossy_links_mle_not() {
        // p = 0.25, R = 7: heavy truncation. The naive estimator must be
        // optimistic (overestimates p); the MLE corrects it.
        let p = 0.25;
        let mut e = LinkEstimator::new();
        feed_samples(&mut e, p, 7, 30_000, None, 11);
        let naive = e.naive().unwrap().p_success;
        let mle = e.mle(7).unwrap().p_success;
        assert!(naive > p + 0.03, "naive should overestimate: {naive}");
        assert!((mle - p).abs() < 0.03, "mle should be unbiased: {mle}");
    }

    #[test]
    fn extreme_cap_one_still_estimates() {
        // Cap 1: every observation is Range{1, 7} — no information beyond
        // delivery. The MLE cannot identify p and should land somewhere in
        // (0, 1) without crashing.
        let mut e = LinkEstimator::new();
        for _ in 0..100 {
            e.observe(AttemptObservation::Range { lo: 1, hi: 7 });
        }
        let est = e.mle(7).unwrap();
        assert!(est.p_success > 0.0 && est.p_success < 1.0);
    }

    #[test]
    fn stderr_shrinks_with_samples() {
        let mut small = LinkEstimator::new();
        let mut large = LinkEstimator::new();
        feed_samples(&mut small, 0.7, 7, 100, None, 3);
        feed_samples(&mut large, 0.7, 7, 10_000, None, 3);
        let se_small = small.mle(7).unwrap().stderr.unwrap();
        let se_large = large.mle(7).unwrap().stderr.unwrap();
        assert!(
            se_large < se_small / 5.0,
            "100x samples should shrink stderr ~10x: {se_small} vs {se_large}"
        );
    }

    #[test]
    fn empty_estimator_returns_none() {
        let e = LinkEstimator::new();
        assert!(e.mle(7).is_none());
        assert!(e.naive().is_none());
        assert_eq!(e.count(), 0);
    }

    #[test]
    fn all_first_attempt_pushes_p_high() {
        let mut e = LinkEstimator::new();
        for _ in 0..1000 {
            e.observe(AttemptObservation::Exact(1));
        }
        let est = e.mle(7).unwrap();
        assert!(est.p_success > 0.99, "got {}", est.p_success);
        assert!(est.loss < 0.01);
    }

    #[test]
    fn merge_equals_combined_feed() {
        let mut a = LinkEstimator::new();
        let mut b = LinkEstimator::new();
        let mut whole = LinkEstimator::new();
        feed_samples(&mut a, 0.6, 7, 500, Some(4), 1);
        feed_samples(&mut b, 0.6, 7, 700, None, 2);
        feed_samples(&mut whole, 0.6, 7, 500, Some(4), 1);
        feed_samples(&mut whole, 0.6, 7, 700, None, 2);
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn network_estimator_coverage_and_filtering() {
        let mut n = NetworkEstimator::new();
        n.observe(1, 0, AttemptObservation::Exact(1));
        n.observe(1, 0, AttemptObservation::Exact(2));
        n.observe(2, 1, AttemptObservation::Exact(1));
        assert_eq!(n.covered_links(), 2);
        assert_eq!(n.estimates(7, 2).len(), 1, "min_samples filter");
        assert_eq!(n.estimates(7, 1).len(), 2);
        assert_eq!(n.naive_estimates(1).len(), 2);
        n.reset();
        assert_eq!(n.covered_links(), 0);
    }

    #[test]
    fn attempt_distribution_matches_geometric() {
        let mut e = LinkEstimator::new();
        feed_samples(&mut e, 0.7, 7, 20_000, None, 21);
        let dist = e.attempt_distribution(7).unwrap();
        assert_eq!(dist.len(), 7);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // P(A=1) ≈ 0.7 / (1 - 0.3^7) ≈ 0.70.
        assert!((dist[0] - 0.70).abs() < 0.02, "P(1) = {}", dist[0]);
        assert!(
            dist[1] > dist[2] && dist[0] > dist[1],
            "monotone decreasing"
        );
    }

    #[test]
    fn attempt_distribution_spreads_censored_mass() {
        let mut e = LinkEstimator::new();
        for _ in 0..700 {
            e.observe(AttemptObservation::Exact(1));
        }
        for _ in 0..100 {
            e.observe(AttemptObservation::Range { lo: 3, hi: 7 });
        }
        let dist = e.attempt_distribution(7).unwrap();
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Censored mass lands inside [3, 7], weighted toward 3.
        assert!(dist[2] > dist[4]);
        assert!(dist[2] > 0.0 && dist[6] > 0.0);
        assert_eq!(dist[1], 0.0, "no mass invented at attempt 2");
    }

    #[test]
    fn expected_transmissions_tracks_loss() {
        let mut good = LinkEstimator::new();
        feed_samples(&mut good, 0.9, 7, 5_000, None, 5);
        let mut bad = LinkEstimator::new();
        feed_samples(&mut bad, 0.4, 7, 5_000, None, 5);
        let g = good.expected_transmissions(7).unwrap();
        let b = bad.expected_transmissions(7).unwrap();
        assert!((g - 1.11).abs() < 0.05, "good link ≈ 1/0.9: {g}");
        assert!(b > 2.0 && b < 2.6, "lossy link well above: {b}");
    }

    #[test]
    fn likelihood_is_finite_at_extremes() {
        let mut e = LinkEstimator::new();
        e.observe(AttemptObservation::Exact(7));
        e.observe(AttemptObservation::Range { lo: 3, hi: 7 });
        for p in [1e-6, 0.5, 1.0 - 1e-6] {
            let ll = e.log_likelihood(p, 7);
            assert!(ll.is_finite(), "ll({p}) = {ll}");
        }
    }
}
