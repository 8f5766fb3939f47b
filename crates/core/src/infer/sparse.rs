//! Sparse recovery of per-link loss from end-to-end path outcomes.
//!
//! Classic tomography is under-determined: far fewer observed paths than
//! links. The sparse-recovery literature (e.g. "Link Delay Estimation
//! Using Sparse Recovery for Dynamic Network Tomography") resolves the
//! ambiguity with the physical prior that *most links are fine* — the
//! per-link loss vector is sparse — and solves an L1-regularized least
//! squares over the routing matrix.
//!
//! Formulation here, in log-transmission space:
//!
//! * Each observed path outcome gives a row: over one attribution window,
//!   `sent` packets traversed link set `r` and a fraction `DR` arrived,
//!   so `ln DR ≈ Σ_{l∈r} ln σ_l` where `σ_l` is link `l`'s end-to-end
//!   (post-ARQ) survival. Substituting `u_l = −ln σ_l ≥ 0`:
//!
//!   ```text
//!   minimize  ½ Σ_rows w_r (y_r + Σ_{l∈r} u_l)²  +  λ Σ_l u_l
//!   subject to u ≥ 0,     with y_r = ln DR_r, w_r = sent_r
//!   ```
//!
//!   On the nonnegative orthant the L1 penalty is linear, so the proximal
//!   step is a shift-and-project: `u ← max(0, v − s·(∇f + λ))`.
//! * Solved by FISTA (accelerated ISTA) with the step size `1/L` taken
//!   from a fixed-iteration power-iteration bound on `‖AᵀWA‖`, and
//!   `λ = λ_scale · max_l |∇f(0)_l|` so the regularization is scale-free
//!   in traffic volume.
//!
//! Rows are the routes of a [`PathTable`], one per exact link sequence,
//! so the problem size is the number of *distinct routes* seen, not the
//! number of windows. Everything — row order, link order, power
//! iteration, FISTA — runs a fixed number of exactly ordered float
//! operations: deterministic by construction, no RNG anywhere.

use super::paths::Route;
use super::{Estimator, Evidence, PathTable, SnapshotQuery};
use crate::baseline::survival_to_transmission_loss;
use crate::estimator::LossEstimate;

/// Delivery ratios are floored before the log so a fully black-holed
/// route contributes a large-but-finite attenuation (`ln 1e-3 ≈ −6.9`).
const DR_FLOOR: f64 = 1e-3;

/// Regularization as a fraction of `max_l |∇f(0)_l|` (at 1.0 the all-zero
/// solution is optimal; smaller keeps more links active).
const LAMBDA_SCALE: f64 = 0.02;

/// FISTA iteration budget.
const MAX_ITERS: usize = 250;

/// Early-exit threshold on the max coordinate change (deterministic: a
/// pure function of the data).
const TOL: f64 = 1e-10;

/// The sparse-recovery backend as a standalone [`Estimator`] over
/// [`Evidence::PathOutcome`]s: a [`PathTable`] solved by [`solve`] at
/// snapshot time.
#[derive(Debug, Clone, Default)]
pub struct SparseL1Estimator(PathTable);

impl SparseL1Estimator {
    /// Creates an empty backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Estimator for SparseL1Estimator {
    fn observe(&mut self, ev: &Evidence) {
        self.0.observe(ev);
    }

    fn snapshot(&self, q: &SnapshotQuery) -> Vec<((u32, u32), LossEstimate)> {
        solve(&self.0, q)
    }
}

/// Sparse-L1 per-link loss estimates from pooled routes, sorted by link.
pub fn solve(paths: &PathTable, q: &SnapshotQuery) -> Vec<((u32, u32), LossEstimate)> {
    // Link universe, sorted — the solver's coordinate order.
    let (links, routes) = paths.resolve();
    if links.is_empty() {
        return Vec::new();
    }
    // Per route: weight and log delivery ratio.
    let rows: Vec<(f64, f64)> = routes
        .iter()
        .map(|r| {
            let dr = (r.delivered as f64 / r.sent as f64).clamp(DR_FLOOR, 1.0);
            (r.sent as f64, dr.ln())
        })
        .collect();
    let m = links.len();

    // Gradient of the smooth part at `u`:
    // ∇f_l = Σ_{rows r ∋ l} w_r (y_r + Σ_{k∈r} u_k), per multiplicity.
    let grad = |u: &[f64], g: &mut [f64]| {
        g.iter_mut().for_each(|v| *v = 0.0);
        for (route, &(w, y)) in routes.iter().zip(&rows) {
            let resid = y + route.idx.iter().map(|&i| u[i]).sum::<f64>();
            for &i in &route.idx {
                g[i] += w * resid;
            }
        }
    };

    // λ from the gradient at zero; if the data are all clean
    // (every y = 0) the zero vector is already optimal.
    let mut g0 = vec![0.0; m];
    grad(&vec![0.0; m], &mut g0);
    let gmax = g0.iter().fold(0.0f64, |acc, g| acc.max(g.abs()));
    if gmax == 0.0 {
        return report(&links, &routes, &vec![0.0; m], q);
    }
    let lambda = LAMBDA_SCALE * gmax;

    // Lipschitz bound for the step size: ‖AᵀWA‖₂ by power iteration
    // from a fixed all-ones start (deterministic; 30 rounds is plenty
    // at these dimensions).
    let mut v = vec![1.0 / (m as f64).sqrt(); m];
    let mut av = vec![0.0; m];
    let mut lip = 1.0f64;
    for _ in 0..30 {
        av.iter_mut().for_each(|x| *x = 0.0);
        for (route, &(w, _)) in routes.iter().zip(&rows) {
            let dot: f64 = route.idx.iter().map(|&i| v[i]).sum();
            for &i in &route.idx {
                av[i] += w * dot;
            }
        }
        let norm = av.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm == 0.0 {
            break;
        }
        lip = norm;
        v.iter_mut().zip(&av).for_each(|(x, &a)| *x = a / norm);
    }
    let step = 1.0 / (lip * 1.01);

    // FISTA with shift-and-project prox.
    let mut u = vec![0.0; m];
    let mut z = vec![0.0; m];
    let mut g = vec![0.0; m];
    let mut t = 1.0f64;
    for _ in 0..MAX_ITERS {
        grad(&z, &mut g);
        let mut delta = 0.0f64;
        let mut next = vec![0.0; m];
        for i in 0..m {
            next[i] = (z[i] - step * (g[i] + lambda)).max(0.0);
            delta = delta.max((next[i] - u[i]).abs());
        }
        let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
        for i in 0..m {
            z[i] = next[i] + ((t - 1.0) / t_next) * (next[i] - u[i]);
        }
        u = next;
        t = t_next;
        if delta < TOL {
            break;
        }
    }
    report(&links, &routes, &u, q)
}

/// Converts the solved attenuation vector into per-link estimates.
fn report(
    links: &[(u32, u32)],
    routes: &[Route],
    u: &[f64],
    q: &SnapshotQuery,
) -> Vec<((u32, u32), LossEstimate)> {
    // Per-link sample support: packets on rows containing the link.
    let mut support = vec![0u64; links.len()];
    for route in routes {
        let mut seen = route.idx.clone();
        seen.sort_unstable();
        seen.dedup();
        for i in seen {
            support[i] += route.sent;
        }
    }
    links
        .iter()
        .zip(u)
        .zip(support)
        .filter(|(_, n)| *n >= q.min_samples)
        .map(|((&link, &u_l), n)| {
            let sigma = (-u_l).exp().clamp(0.0, 1.0);
            let loss = survival_to_transmission_loss(sigma, q.r);
            (
                link,
                LossEstimate {
                    p_success: 1.0 - loss,
                    loss,
                    n_samples: n,
                    stderr: None,
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dophy_sim::SimTime;
    use std::collections::BTreeMap;

    fn outcome(origin: u32, path: &[(u32, u32)], sent: u64, delivered: u64) -> Evidence {
        Evidence::PathOutcome {
            at: SimTime::from_micros(0),
            origin,
            path: path.to_vec(),
            sent,
            delivered,
        }
    }

    fn q(r: u16) -> SnapshotQuery {
        SnapshotQuery {
            now: SimTime::from_micros(0),
            r,
            min_samples: 10,
        }
    }

    #[test]
    fn recovers_a_single_lossy_link_and_keeps_the_rest_sparse() {
        // Star-over-chain: 3→2→0 and 4→2→0 share the clean 2→0 link;
        // only 3→2 is lossy. L1 should localize the loss to 3→2 and
        // report (exact) zeros elsewhere.
        let mut est = SparseL1Estimator::new();
        for _ in 0..60 {
            est.observe(&outcome(3, &[(3, 2), (2, 0)], 20, 15));
            est.observe(&outcome(4, &[(4, 2), (2, 0)], 20, 20));
            est.observe(&outcome(2, &[(2, 0)], 20, 20));
        }
        let snap: BTreeMap<_, _> = est.snapshot(&q(1)).into_iter().collect();
        assert!(
            (snap[&(3, 2)].loss - 0.25).abs() < 0.05,
            "{:?}",
            snap[&(3, 2)]
        );
        assert_eq!(snap[&(2, 0)].loss, 0.0, "{:?}", snap[&(2, 0)]);
        assert_eq!(snap[&(4, 2)].loss, 0.0, "{:?}", snap[&(4, 2)]);
    }

    #[test]
    fn splits_loss_between_links_when_paths_disambiguate() {
        // Two lossy links measured through overlapping paths: the joint
        // solve must separate them instead of lumping the product onto
        // one hop.
        let mut est = SparseL1Estimator::new();
        for _ in 0..60 {
            // 2→0 survives 0.9; 3→2→0 survives 0.8·0.9.
            est.observe(&outcome(2, &[(2, 0)], 20, 18));
            est.observe(&outcome(3, &[(3, 2), (2, 0)], 20, 14));
        }
        let snap: BTreeMap<_, _> = est.snapshot(&q(1)).into_iter().collect();
        assert!(
            (snap[&(2, 0)].loss - 0.1).abs() < 0.05,
            "{:?}",
            snap[&(2, 0)]
        );
        assert!(
            (snap[&(3, 2)].loss - 0.2).abs() < 0.06,
            "{:?}",
            snap[&(3, 2)]
        );
    }

    #[test]
    fn snapshot_is_deterministic() {
        let build = || {
            let mut est = SparseL1Estimator::new();
            for i in 0..40u64 {
                est.observe(&outcome(3, &[(3, 2), (2, 0)], 10 + i % 3, 8));
                est.observe(&outcome(2, &[(2, 0)], 10, 9));
            }
            est.snapshot(&q(7))
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn clean_network_reports_zero_loss() {
        let mut est = SparseL1Estimator::new();
        for _ in 0..20 {
            est.observe(&outcome(1, &[(1, 0)], 20, 20));
        }
        let snap = est.snapshot(&q(7));
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].1.loss, 0.0);
    }
}
