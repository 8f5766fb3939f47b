//! Bayesian per-link estimation with a conjugate Beta prior.
//!
//! For *exact* (uncensored, untruncated) geometric observations the Beta
//! prior is conjugate: with prior `Beta(α, β)` and samples `a_1..a_n`,
//!
//! ```text
//! posterior = Beta(α + n, β + Σ(a_i - 1))
//! ```
//!
//! This gives closed-form posterior means and credible intervals at O(1)
//! per update — attractive for links with few samples, where the MLE is
//! noisy and a mild prior toward "links that carry traffic are decent"
//! regularises sensibly. Truncation at the retry budget and censored
//! (aggregated) observations break exact conjugacy; this estimator handles
//! them approximately (censored ranges contribute their conditional-mean
//! attempt count), which is precisely the trade-off the
//! `ablation-prior` experiment quantifies against the exact MLE.

use crate::estimator::LossEstimate;
use dophy_coding::aggregate::AttemptObservation;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Beta prior over the per-transmission reception probability `p`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BetaPrior {
    /// Pseudo-successes.
    pub alpha: f64,
    /// Pseudo-failures.
    pub beta: f64,
}

impl BetaPrior {
    /// A weakly informative prior centred at `p` with `strength`
    /// pseudo-observations.
    pub fn centred(p: f64, strength: f64) -> Self {
        let p = p.clamp(0.01, 0.99);
        Self {
            alpha: p * strength,
            beta: (1.0 - p) * strength,
        }
    }

    /// Flat prior `Beta(1, 1)`.
    pub fn flat() -> Self {
        Self {
            alpha: 1.0,
            beta: 1.0,
        }
    }
}

impl Default for BetaPrior {
    /// Default prior: links that ETX routing actually selects are usually
    /// good (centre 0.9, worth ~3 observations).
    fn default() -> Self {
        Self::centred(0.9, 3.0)
    }
}

/// Conjugate Bayesian estimator for one link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BayesLinkEstimator {
    prior: BetaPrior,
    /// Accumulated successes (= observations).
    n: f64,
    /// Accumulated failures (= Σ attempts − n).
    failures: f64,
    /// Integer observation count for reporting.
    count: u64,
}

impl BayesLinkEstimator {
    /// New estimator under `prior`.
    pub fn new(prior: BetaPrior) -> Self {
        Self {
            prior,
            n: 0.0,
            failures: 0.0,
            count: 0,
        }
    }

    /// Records one observation. Censored ranges contribute the conditional
    /// mean of a geometric restricted to `[lo, hi]` under the current
    /// posterior-mean `p` (an EM-flavoured approximation).
    pub fn observe(&mut self, obs: AttemptObservation) {
        let attempts = match obs {
            AttemptObservation::Exact(a) => f64::from(a),
            AttemptObservation::Range { lo, hi } => {
                let p = self.posterior_mean().clamp(0.05, 0.95);
                conditional_mean_attempts(p, lo, hi)
            }
        };
        self.n += 1.0;
        self.failures += attempts - 1.0;
        self.count += 1;
    }

    /// Posterior mean of `p`.
    pub fn posterior_mean(&self) -> f64 {
        let a = self.prior.alpha + self.n;
        let b = self.prior.beta + self.failures;
        a / (a + b)
    }

    /// Posterior standard deviation of `p`.
    pub fn posterior_sd(&self) -> f64 {
        let a = self.prior.alpha + self.n;
        let b = self.prior.beta + self.failures;
        let s = a + b;
        (a * b / (s * s * (s + 1.0))).sqrt()
    }

    /// Point estimate in the common [`LossEstimate`] shape.
    pub fn estimate(&self) -> Option<LossEstimate> {
        if self.count == 0 {
            return None;
        }
        let p = self.posterior_mean();
        Some(LossEstimate {
            p_success: p,
            loss: 1.0 - p,
            n_samples: self.count,
            stderr: Some(self.posterior_sd()),
        })
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Mean of a geometric(p) attempt count conditioned on `lo <= A <= hi`.
fn conditional_mean_attempts(p: f64, lo: u16, hi: u16) -> f64 {
    let q = 1.0 - p;
    let (mut mass, mut mean) = (0.0, 0.0);
    for a in lo..=hi {
        let w = q.powi(i32::from(a) - 1) * p;
        mass += w;
        mean += w * f64::from(a);
    }
    if mass > 0.0 {
        mean / mass
    } else {
        f64::from(lo + hi) / 2.0
    }
}

/// Network-wide Bayesian estimator.
#[derive(Debug, Clone, Default)]
pub struct BayesNetworkEstimator {
    prior: Option<BetaPrior>,
    /// Ordered so iteration (and with it any summary float work) runs in
    /// a fixed link order — the crate-wide determinism convention; see
    /// `estimator.rs`.
    links: BTreeMap<(u32, u32), BayesLinkEstimator>,
}

impl BayesNetworkEstimator {
    /// Estimator applying `prior` to every link.
    pub fn new(prior: BetaPrior) -> Self {
        Self {
            prior: Some(prior),
            links: BTreeMap::new(),
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, src: u32, dst: u32, obs: AttemptObservation) {
        let prior = self.prior.unwrap_or_default();
        self.links
            .entry((src, dst))
            .or_insert_with(|| BayesLinkEstimator::new(prior))
            .observe(obs);
    }

    /// All estimates with at least `min_samples` observations.
    pub fn estimates(&self, min_samples: u64) -> Vec<((u32, u32), LossEstimate)> {
        let mut v: Vec<_> = self
            .links
            .iter()
            .filter(|(_, e)| e.count() >= min_samples)
            .filter_map(|(&k, e)| e.estimate().map(|est| (k, est)))
            .collect();
        v.sort_by_key(|&(k, _)| k);
        v
    }
}

impl crate::infer::Estimator for BayesNetworkEstimator {
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
        self.estimates(q.min_samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn feed(est: &mut BayesLinkEstimator, p: f64, n: usize, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..n {
            let mut a = 1u16;
            while rng.gen::<f64>() >= p && a < 50 {
                a += 1;
            }
            est.observe(AttemptObservation::Exact(a));
        }
    }

    #[test]
    fn posterior_converges_to_truth() {
        for &p in &[0.9, 0.6, 0.4] {
            let mut e = BayesLinkEstimator::new(BetaPrior::default());
            feed(&mut e, p, 20_000, 3);
            let est = e.estimate().unwrap();
            assert!(
                (est.p_success - p).abs() < 0.02,
                "p={p} got {}",
                est.p_success
            );
        }
    }

    #[test]
    fn prior_regularises_small_samples() {
        // One unlucky observation (attempt 7): the flat-prior/MLE view says
        // p ≈ 1/7; the informed prior keeps the estimate moderate.
        let mut informed = BayesLinkEstimator::new(BetaPrior::centred(0.8, 10.0));
        let mut flat = BayesLinkEstimator::new(BetaPrior::flat());
        informed.observe(AttemptObservation::Exact(7));
        flat.observe(AttemptObservation::Exact(7));
        assert!(informed.posterior_mean() > flat.posterior_mean() + 0.2);
    }

    #[test]
    fn posterior_sd_shrinks_with_data() {
        let mut e = BayesLinkEstimator::new(BetaPrior::default());
        feed(&mut e, 0.7, 10, 5);
        let sd_small = e.posterior_sd();
        feed(&mut e, 0.7, 5_000, 6);
        let sd_large = e.posterior_sd();
        assert!(sd_large < sd_small / 5.0, "{sd_small} -> {sd_large}");
    }

    #[test]
    fn conditional_mean_bounds() {
        for p in [0.2, 0.5, 0.9] {
            let m = conditional_mean_attempts(p, 3, 7);
            assert!((3.0..=7.0).contains(&m), "p={p} mean {m}");
            // Higher p concentrates mass near the low end.
            let m_lossy = conditional_mean_attempts(0.1, 3, 7);
            let m_good = conditional_mean_attempts(0.9, 3, 7);
            assert!(m_good < m_lossy);
        }
    }

    #[test]
    fn censored_observations_accepted() {
        let mut e = BayesLinkEstimator::new(BetaPrior::default());
        for _ in 0..500 {
            e.observe(AttemptObservation::Exact(1));
        }
        for _ in 0..50 {
            e.observe(AttemptObservation::Range { lo: 4, hi: 7 });
        }
        let est = e.estimate().unwrap();
        assert!(est.p_success > 0.5 && est.p_success < 0.95);
        assert_eq!(est.n_samples, 550);
    }

    #[test]
    fn empty_estimator_reports_none() {
        let e = BayesLinkEstimator::new(BetaPrior::default());
        assert!(e.estimate().is_none());
    }

    #[test]
    fn network_estimator_filters_by_samples() {
        let mut n = BayesNetworkEstimator::new(BetaPrior::default());
        for _ in 0..10 {
            n.observe(1, 0, AttemptObservation::Exact(1));
        }
        n.observe(2, 0, AttemptObservation::Exact(2));
        assert_eq!(n.estimates(5).len(), 1);
        assert_eq!(n.estimates(1).len(), 2);
    }

    #[test]
    fn snapshot_order_is_fixed_and_insertion_invariant() {
        // Regression for the old `HashMap` link store: the snapshot must
        // come back in link-key order, and the exact same bytes must come
        // back regardless of the order links were first seen.
        let feed = |pairs: &[(u32, u32)]| {
            let mut n = BayesNetworkEstimator::new(BetaPrior::default());
            for &(s, d) in pairs {
                for a in [1u16, 1, 2, 1, 3] {
                    n.observe(s, d, AttemptObservation::Exact(a));
                }
            }
            n.estimates(1)
        };
        let fwd = feed(&[(1, 0), (5, 2), (3, 0), (2, 1), (4, 4)]);
        let rev = feed(&[(4, 4), (2, 1), (3, 0), (5, 2), (1, 0)]);
        assert_eq!(fwd, rev);
        assert!(
            fwd.windows(2).all(|w| w[0].0 < w[1].0),
            "snapshot not in link order: {:?}",
            fwd.iter().map(|e| e.0).collect::<Vec<_>>()
        );
    }
}
