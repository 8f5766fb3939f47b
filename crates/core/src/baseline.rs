//! Traditional loss tomography — the comparison baseline.
//!
//! Classical WSN loss tomography infers per-link loss from **end-to-end
//! delivery ratios**: each origin's packets are attributed to a routing
//! path (a snapshot of the tree), and per-link *packet survival*
//! probabilities `σ_l` are chosen to explain the observed delivery ratios
//! `DR_o ≈ Π_{l ∈ path(o)} σ_l`. Two standard solvers are provided:
//!
//! * [`TraditionalTomography::estimate_em`] — an EM algorithm that treats
//!   the hop at which each lost packet died as the latent variable (the
//!   MINC family adapted to unicast collection);
//! * [`TraditionalTomography::estimate_logls`] — weighted least squares on
//!   `log DR_o = Σ log σ_l` with non-positivity constraints, solved by
//!   coordinate descent.
//!
//! Because each hop runs ARQ with budget `R`, survival relates to the
//! per-transmission reception probability as `σ = 1 - (1-p)^R`;
//! [`survival_to_transmission_loss`] inverts this so baseline estimates are
//! comparable with Dophy's fine-grained per-transmission loss ratios.
//!
//! The baseline's structural weakness — the one the paper exploits — is the
//! path attribution: when routing is dynamic, packets sent during a window
//! did not all follow the snapshot path, and the inversion spreads blame
//! over the wrong links.

use crate::infer::Evidence;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Directed link key.
pub type LinkKey = (u32, u32);

/// One path's aggregated end-to-end measurement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathMeasurement {
    /// Links from origin to sink, in order.
    pub path: Vec<LinkKey>,
    /// Packets the origin sent while this path was attributed.
    pub sent: u64,
    /// Of which the sink received.
    pub delivered: u64,
}

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraditionalConfig {
    /// Maximum solver iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the max parameter change.
    pub tol: f64,
    /// Measurements with fewer sent packets are ignored.
    pub min_sent: u64,
}

impl Default for TraditionalConfig {
    fn default() -> Self {
        Self {
            max_iters: 400,
            tol: 1e-7,
            min_sent: 5,
        }
    }
}

/// Collects path measurements and inverts them.
///
/// ```
/// use dophy::baseline::{PathMeasurement, TraditionalConfig, TraditionalTomography};
///
/// let mut tomo = TraditionalTomography::new();
/// // Origin 2 routes 2→1→0; origin 1 routes 1→0 directly.
/// tomo.add(PathMeasurement { path: vec![(2, 1), (1, 0)], sent: 10_000, delivered: 8_100 });
/// tomo.add(PathMeasurement { path: vec![(1, 0)], sent: 10_000, delivered: 9_000 });
/// let sigma = tomo.estimate_em(&TraditionalConfig::default());
/// assert!((sigma[&(1, 0)] - 0.9).abs() < 0.02);
/// assert!((sigma[&(2, 1)] - 0.9).abs() < 0.02);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraditionalTomography {
    measurements: Vec<PathMeasurement>,
}

impl TraditionalTomography {
    /// Empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one aggregated measurement (empty paths and zero-sent
    /// measurements are ignored).
    pub fn add(&mut self, m: PathMeasurement) {
        if !m.path.is_empty() && m.sent > 0 {
            self.measurements.push(m);
        }
    }

    /// Collects an [`Evidence::PathOutcome`] exactly as [`add`](Self::add)
    /// would its `(path, sent, delivered)`; hop evidence is ignored. This
    /// is how the sink's [`crate::infer::Inference`] fan-out feeds the
    /// baseline.
    pub fn observe(&mut self, ev: &Evidence) {
        if let Evidence::PathOutcome {
            path,
            sent,
            delivered,
            ..
        } = ev
        {
            self.add(PathMeasurement {
                path: path.clone(),
                sent: *sent,
                delivered: *delivered,
            });
        }
    }

    /// Number of usable measurements.
    pub fn len(&self) -> usize {
        self.measurements.len()
    }

    /// True when no measurements were collected.
    pub fn is_empty(&self) -> bool {
        self.measurements.is_empty()
    }

    fn usable<'a>(
        &'a self,
        cfg: &'a TraditionalConfig,
    ) -> impl Iterator<Item = &'a PathMeasurement> {
        self.measurements
            .iter()
            .filter(move |m| m.sent >= cfg.min_sent)
    }

    /// All links appearing in usable measurements.
    fn link_universe(&self, cfg: &TraditionalConfig) -> Vec<LinkKey> {
        let mut set: Vec<LinkKey> = self
            .usable(cfg)
            .flat_map(|m| m.path.iter().copied())
            .collect();
        set.sort_unstable();
        set.dedup();
        set
    }

    /// EM estimate of per-link packet survival `σ_l`.
    pub fn estimate_em(&self, cfg: &TraditionalConfig) -> HashMap<LinkKey, f64> {
        let links = self.link_universe(cfg);
        if links.is_empty() {
            return HashMap::new();
        }
        let index: HashMap<LinkKey, usize> =
            links.iter().enumerate().map(|(i, &l)| (l, i)).collect();
        let mut sigma = vec![0.9f64; links.len()];

        for _ in 0..cfg.max_iters {
            let mut trials = vec![0.0f64; links.len()];
            let mut successes = vec![0.0f64; links.len()];
            for m in self.usable(cfg) {
                let k = m.path.len();
                let idx: Vec<usize> = m.path.iter().map(|l| index[l]).collect();
                // Delivered packets credit every hop fully.
                for &j in &idx {
                    trials[j] += m.delivered as f64;
                    successes[j] += m.delivered as f64;
                }
                let lost = (m.sent - m.delivered.min(m.sent)) as f64;
                if lost == 0.0 {
                    continue;
                }
                // Prefix products Π_{i<j} σ and suffix products Π_{i>=j} σ.
                let mut prefix = vec![1.0f64; k + 1];
                for j in 0..k {
                    prefix[j + 1] = prefix[j] * sigma[idx[j]];
                }
                let p_deliver = prefix[k];
                let p_lost = (1.0 - p_deliver).max(1e-12);
                let mut suffix = vec![1.0f64; k + 1];
                for j in (0..k).rev() {
                    suffix[j] = suffix[j + 1] * sigma[idx[j]];
                }
                for j in 0..k {
                    // P(reached hop j | lost) and P(survived hop j | lost).
                    let reach = prefix[j] * (1.0 - suffix[j]) / p_lost;
                    let survive = prefix[j + 1] * (1.0 - suffix[j + 1]) / p_lost;
                    trials[idx[j]] += lost * reach;
                    successes[idx[j]] += lost * survive;
                }
            }
            let mut delta: f64 = 0.0;
            for j in 0..links.len() {
                let new = if trials[j] > 0.0 {
                    (successes[j] / trials[j]).clamp(1e-6, 1.0 - 1e-9)
                } else {
                    sigma[j]
                };
                delta = delta.max((new - sigma[j]).abs());
                sigma[j] = new;
            }
            if delta < cfg.tol {
                break;
            }
        }
        links.into_iter().zip(sigma).collect()
    }

    /// Log-least-squares estimate of per-link packet survival `σ_l`
    /// (coordinate descent on `log σ` with `log σ <= 0`).
    pub fn estimate_logls(&self, cfg: &TraditionalConfig) -> HashMap<LinkKey, f64> {
        let links = self.link_universe(cfg);
        if links.is_empty() {
            return HashMap::new();
        }
        let index: HashMap<LinkKey, usize> =
            links.iter().enumerate().map(|(i, &l)| (l, i)).collect();
        // Pre-resolve measurements to (link indices, weight, y).
        struct Row {
            idx: Vec<usize>,
            w: f64,
            y: f64,
        }
        let rows: Vec<Row> = self
            .usable(cfg)
            .map(|m| {
                let dr = (m.delivered as f64 / m.sent as f64).clamp(1e-4, 1.0);
                Row {
                    idx: m.path.iter().map(|l| index[l]).collect(),
                    w: m.sent as f64,
                    y: dr.ln(),
                }
            })
            .collect();
        // membership[l] = rows containing link l.
        let mut membership: Vec<Vec<usize>> = vec![Vec::new(); links.len()];
        for (r, row) in rows.iter().enumerate() {
            for &l in &row.idx {
                membership[l].push(r);
            }
        }
        let mut x = vec![-0.05f64; links.len()]; // log σ, start near σ≈0.95
        for _ in 0..cfg.max_iters {
            let mut delta: f64 = 0.0;
            for l in 0..links.len() {
                let (mut num, mut den) = (0.0f64, 0.0f64);
                for &r in &membership[l] {
                    let row = &rows[r];
                    let others: f64 = row.idx.iter().filter(|&&k| k != l).map(|&k| x[k]).sum();
                    // A link may appear twice on a looping path; count its
                    // multiplicity.
                    let mult = row.idx.iter().filter(|&&k| k == l).count() as f64;
                    num += row.w * mult * (row.y - others - (mult - 1.0) * x[l]);
                    den += row.w * mult * mult;
                }
                if den > 0.0 {
                    let new = (num / den).min(0.0);
                    delta = delta.max((new - x[l]).abs());
                    x[l] = new;
                }
            }
            if delta < cfg.tol {
                break;
            }
        }
        links.into_iter().zip(x.into_iter().map(f64::exp)).collect()
    }
}

/// Converts per-hop packet survival `σ` (under ARQ budget `r`) into the
/// per-transmission loss ratio `1 - p` where `σ = 1 - (1-p)^r`.
pub fn survival_to_transmission_loss(sigma: f64, r: u16) -> f64 {
    let sigma = sigma.clamp(0.0, 1.0);
    (1.0 - sigma).powf(1.0 / f64::from(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-hop chain: origin → a → sink, known survivals.
    fn chain_measurements(s1: f64, s2: f64, sent: u64) -> TraditionalTomography {
        let mut t = TraditionalTomography::new();
        // Origin 2 → 1 → 0 plus origin 1 → 0 (gives the solver leverage to
        // separate the two links).
        let dr2 = s1 * s2;
        t.add(PathMeasurement {
            path: vec![(2, 1), (1, 0)],
            sent,
            delivered: (sent as f64 * dr2).round() as u64,
        });
        t.add(PathMeasurement {
            path: vec![(1, 0)],
            sent,
            delivered: (sent as f64 * s2).round() as u64,
        });
        t
    }

    #[test]
    fn em_recovers_chain_survivals() {
        let t = chain_measurements(0.8, 0.9, 100_000);
        let est = t.estimate_em(&TraditionalConfig::default());
        assert!((est[&(2, 1)] - 0.8).abs() < 0.01, "σ21 {}", est[&(2, 1)]);
        assert!((est[&(1, 0)] - 0.9).abs() < 0.01, "σ10 {}", est[&(1, 0)]);
    }

    #[test]
    fn logls_recovers_chain_survivals() {
        let t = chain_measurements(0.8, 0.9, 100_000);
        let est = t.estimate_logls(&TraditionalConfig::default());
        assert!((est[&(2, 1)] - 0.8).abs() < 0.02, "σ21 {}", est[&(2, 1)]);
        assert!((est[&(1, 0)] - 0.9).abs() < 0.02, "σ10 {}", est[&(1, 0)]);
    }

    #[test]
    fn star_topology_many_origins() {
        // Origins 1..5 each via their own first hop into shared link (9, 0).
        let shared: f64 = 0.85;
        let firsts = [0.95, 0.9, 0.8, 0.7, 0.99];
        let mut t = TraditionalTomography::new();
        for (i, &f) in firsts.iter().enumerate() {
            let o = (i + 1) as u32;
            t.add(PathMeasurement {
                path: vec![(o, 9), (9, 0)],
                sent: 50_000,
                delivered: (50_000.0 * f * shared).round() as u64,
            });
        }
        // One direct measurement of the shared link pins it down.
        t.add(PathMeasurement {
            path: vec![(9, 0)],
            sent: 50_000,
            delivered: (50_000.0 * shared).round() as u64,
        });
        let est = t.estimate_em(&TraditionalConfig::default());
        assert!(
            (est[&(9, 0)] - shared).abs() < 0.02,
            "shared {}",
            est[&(9, 0)]
        );
        for (i, &f) in firsts.iter().enumerate() {
            let o = (i + 1) as u32;
            assert!(
                (est[&(o, 9)] - f).abs() < 0.03,
                "first hop {o}: {} vs {f}",
                est[&(o, 9)]
            );
        }
    }

    #[test]
    fn misattributed_paths_corrupt_estimates() {
        // Ground truth: origin 2 alternated between two routes, but the
        // snapshot attributes everything to route A. Link (3, 0) on route B
        // was lossy; the inversion wrongly blames route A's links.
        let mut t = TraditionalTomography::new();
        // True delivery: half via A (σ=0.95*0.95), half via B (σ=0.95*0.5).
        let dr: f64 = 0.5 * (0.95 * 0.95) + 0.5 * (0.95 * 0.5);
        t.add(PathMeasurement {
            path: vec![(2, 1), (1, 0)], // snapshot claims route A only
            sent: 100_000,
            delivered: (100_000.0 * dr).round() as u64,
        });
        let est = t.estimate_em(&TraditionalConfig::default());
        // Route A's links get blamed: combined estimate ≈ dr ≈ 0.69, far
        // from the true 0.95*0.95 = 0.90.
        let product = est[&(2, 1)] * est[&(1, 0)];
        assert!((product - dr).abs() < 0.02);
        assert!(
            product < 0.8,
            "misattribution must depress route A estimates: {product}"
        );
    }

    #[test]
    fn survival_loss_conversion() {
        // σ = 1 - (1-p)^R with p = 0.5, R = 7 → σ ≈ 0.9922.
        let p: f64 = 0.5;
        let r = 7;
        let sigma = 1.0 - (1.0 - p).powi(7);
        let loss = survival_to_transmission_loss(sigma, r);
        assert!((loss - 0.5).abs() < 1e-9, "loss {loss}");
        assert_eq!(survival_to_transmission_loss(1.0, r), 0.0);
    }

    #[test]
    fn min_sent_filters_noise() {
        let mut t = TraditionalTomography::new();
        t.add(PathMeasurement {
            path: vec![(1, 0)],
            sent: 2,
            delivered: 0,
        });
        let est = t.estimate_em(&TraditionalConfig {
            min_sent: 5,
            ..TraditionalConfig::default()
        });
        assert!(est.is_empty(), "tiny measurements must be ignored");
    }

    #[test]
    fn empty_collector() {
        let t = TraditionalTomography::new();
        assert!(t.is_empty());
        assert!(t.estimate_em(&TraditionalConfig::default()).is_empty());
        assert!(t.estimate_logls(&TraditionalConfig::default()).is_empty());
    }

    #[test]
    fn zero_delivery_does_not_explode() {
        let mut t = TraditionalTomography::new();
        t.add(PathMeasurement {
            path: vec![(1, 0), (2, 1)],
            sent: 1000,
            delivered: 0,
        });
        let em = t.estimate_em(&TraditionalConfig::default());
        let ls = t.estimate_logls(&TraditionalConfig::default());
        for v in em.values().chain(ls.values()) {
            assert!(v.is_finite() && (0.0..=1.0).contains(v));
        }
    }
}
