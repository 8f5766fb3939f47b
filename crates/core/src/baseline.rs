//! Traditional loss tomography — the comparison baseline.
//!
//! Classical WSN loss tomography infers per-link loss from **end-to-end
//! delivery ratios**: each origin's packets are attributed to a routing
//! path (a snapshot of the tree), and per-link *packet survival*
//! probabilities `σ_l` are chosen to explain the observed delivery ratios
//! `DR_o ≈ Π_{l ∈ path(o)} σ_l`. Two standard solvers run over the pooled
//! routes of a [`PathTable`]:
//!
//! * [`estimate_em`] — an EM algorithm that treats the hop at which each
//!   lost packet died as the latent variable (the MINC family adapted to
//!   unicast collection);
//! * [`estimate_logls`] — weighted least squares on `log DR_o = Σ log σ_l`
//!   with non-positivity constraints, solved by coordinate descent.
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

use crate::infer::PathTable;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Directed link key.
pub type LinkKey = (u32, u32);

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraditionalConfig {
    /// Maximum solver iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the max parameter change.
    pub tol: f64,
}

impl Default for TraditionalConfig {
    fn default() -> Self {
        Self {
            max_iters: 400,
            tol: 1e-7,
        }
    }
}

/// EM estimate of per-link packet survival `σ_l` from pooled routes.
pub fn estimate_em(paths: &PathTable, cfg: &TraditionalConfig) -> HashMap<LinkKey, f64> {
    let (links, routes) = paths.resolve();
    if links.is_empty() {
        return HashMap::new();
    }
    let mut sigma = vec![0.9f64; links.len()];
    let mut trials = vec![0.0f64; links.len()];
    let mut successes = vec![0.0f64; links.len()];
    // Prefix products Π_{i<j} σ and suffix products Π_{i>=j} σ, sized for
    // the longest route and reused by every route.
    let longest = routes.iter().map(|r| r.idx.len()).max().unwrap_or(0);
    let mut prefix = vec![1.0f64; longest + 1];
    let mut suffix = vec![1.0f64; longest + 1];

    for _ in 0..cfg.max_iters {
        trials.fill(0.0);
        successes.fill(0.0);
        for route in &routes {
            let idx = &route.idx;
            let k = idx.len();
            // Delivered packets credit every hop fully.
            for &j in idx {
                trials[j] += route.delivered as f64;
                successes[j] += route.delivered as f64;
            }
            let lost = (route.sent - route.delivered) as f64;
            if lost == 0.0 {
                continue;
            }
            for j in 0..k {
                prefix[j + 1] = prefix[j] * sigma[idx[j]];
            }
            let p_deliver = prefix[k];
            let p_lost = (1.0 - p_deliver).max(1e-12);
            suffix[k] = 1.0;
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
/// (coordinate descent on `log σ` with `log σ <= 0`). Each route is one
/// row, weighted by its packets, fitting its pooled delivery ratio.
pub fn estimate_logls(paths: &PathTable, cfg: &TraditionalConfig) -> HashMap<LinkKey, f64> {
    let (links, routes) = paths.resolve();
    if links.is_empty() {
        return HashMap::new();
    }
    // Per route: weight Σ sent and log pooled delivery ratio.
    let rows: Vec<(f64, f64)> = routes
        .iter()
        .map(|r| {
            let dr = (r.delivered as f64 / r.sent as f64).clamp(1e-4, 1.0);
            (r.sent as f64, dr.ln())
        })
        .collect();
    // membership[l] = rows containing link l.
    let mut membership: Vec<Vec<usize>> = vec![Vec::new(); links.len()];
    for (r, route) in routes.iter().enumerate() {
        for &l in &route.idx {
            membership[l].push(r);
        }
    }
    let mut x = vec![-0.05f64; links.len()]; // log σ, start near σ≈0.95
    for _ in 0..cfg.max_iters {
        let mut delta: f64 = 0.0;
        for l in 0..links.len() {
            let (mut num, mut den) = (0.0f64, 0.0f64);
            for &r in &membership[l] {
                let (w, y) = rows[r];
                let idx = &routes[r].idx;
                let others: f64 = idx.iter().filter(|&&k| k != l).map(|&k| x[k]).sum();
                // A link may appear twice on a looping path; count its
                // multiplicity.
                let mult = idx.iter().filter(|&&k| k == l).count() as f64;
                num += w * mult * (y - others - (mult - 1.0) * x[l]);
                den += w * mult * mult;
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
    fn chain_measurements(s1: f64, s2: f64, sent: u64) -> PathTable {
        let mut t = PathTable::new();
        // Origin 2 → 1 → 0 plus origin 1 → 0 (gives the solver leverage to
        // separate the two links).
        let dr2 = s1 * s2;
        t.add(&[(2, 1), (1, 0)], sent, (sent as f64 * dr2).round() as u64);
        t.add(&[(1, 0)], sent, (sent as f64 * s2).round() as u64);
        t
    }

    #[test]
    fn em_recovers_chain_survivals() {
        let t = chain_measurements(0.8, 0.9, 100_000);
        let est = estimate_em(&t, &TraditionalConfig::default());
        assert!((est[&(2, 1)] - 0.8).abs() < 0.01, "σ21 {}", est[&(2, 1)]);
        assert!((est[&(1, 0)] - 0.9).abs() < 0.01, "σ10 {}", est[&(1, 0)]);
    }

    #[test]
    fn logls_recovers_chain_survivals() {
        let t = chain_measurements(0.8, 0.9, 100_000);
        let est = estimate_logls(&t, &TraditionalConfig::default());
        assert!((est[&(2, 1)] - 0.8).abs() < 0.02, "σ21 {}", est[&(2, 1)]);
        assert!((est[&(1, 0)] - 0.9).abs() < 0.02, "σ10 {}", est[&(1, 0)]);
    }

    #[test]
    fn star_topology_many_origins() {
        // Origins 1..5 each via their own first hop into shared link (9, 0).
        let shared: f64 = 0.85;
        let firsts = [0.95, 0.9, 0.8, 0.7, 0.99];
        let mut t = PathTable::new();
        for (i, &f) in firsts.iter().enumerate() {
            let o = (i + 1) as u32;
            t.add(
                &[(o, 9), (9, 0)],
                50_000,
                (50_000.0 * f * shared).round() as u64,
            );
        }
        // One direct measurement of the shared link pins it down.
        t.add(&[(9, 0)], 50_000, (50_000.0 * shared).round() as u64);
        let est = estimate_em(&t, &TraditionalConfig::default());
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
        let mut t = PathTable::new();
        // True delivery: half via A (σ=0.95*0.95), half via B (σ=0.95*0.5).
        let dr: f64 = 0.5 * (0.95 * 0.95) + 0.5 * (0.95 * 0.5);
        // The snapshot claims route A only.
        t.add(&[(2, 1), (1, 0)], 100_000, (100_000.0 * dr).round() as u64);
        let est = estimate_em(&t, &TraditionalConfig::default());
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
    fn empty_collector() {
        let t = PathTable::new();
        assert!(t.is_empty());
        assert!(estimate_em(&t, &TraditionalConfig::default()).is_empty());
        assert!(estimate_logls(&t, &TraditionalConfig::default()).is_empty());
    }

    #[test]
    fn zero_delivery_does_not_explode() {
        let mut t = PathTable::new();
        t.add(&[(1, 0), (2, 1)], 1000, 0);
        let em = estimate_em(&t, &TraditionalConfig::default());
        let ls = estimate_logls(&t, &TraditionalConfig::default());
        for v in em.values().chain(ls.values()) {
            assert!(v.is_finite() && (0.0..=1.0).contains(v));
        }
    }
}
