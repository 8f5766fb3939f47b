//! MINC-style multicast MLE, generalized to Dophy's dynamic-parent DAG.
//!
//! Cáceres, Duffield, Horowitz & Towsley ("Multicast-based inference of
//! network-internal loss characteristics", IEEE Trans. IT 1999) infer
//! per-link loss on a multicast tree from end-to-end probe outcomes: for
//! each node `k` they maintain `γ_k` — the empirical probability that a
//! probe is seen somewhere in `k`'s subtree — updated incrementally per
//! probe (`γ += (y − γ)/n`), and recover `A_k` — the root→`k` path
//! survival — by a recursion over the tree; the per-link survival is then
//! `σ_k = A_k / A_parent(k)`.
//!
//! A collection network is the *dual* picture: traffic flows leaf→sink
//! instead of root→leaves, and — crucially — **every node originates its
//! own traffic**, so every interior node is a measurement point. Under the
//! dual the MINC quantities become:
//!
//! * `γ_k` — the end-to-end delivery ratio of packets originated at `k`
//!   (directly observed, no subtree OR needed);
//! * `A_p` — the survival of `p`'s path to the sink (`A = 1` at every
//!   route's tail, so a stream may hold several sinks);
//! * link survival `σ_{k,p} = γ_{k,p} / A_p` where `γ_{k,p}` is `k`'s
//!   delivery ratio *restricted to windows in which `p` was `k`'s parent*.
//!
//! The dynamic-parent generalization lives in that restriction: Dophy's
//! CTP tree re-parents continuously, so there is no static tree to recurse
//! over. Instead each [`Evidence::PathOutcome`] carries the parent path
//! snapshotted from CTP routing state at the start of its attribution
//! window, and [`solve`] folds the routes of a [`PathTable`] per *(child,
//! parent)* edge of the observed DAG (each route's first hop) — per-edge γ
//! — while `A_p` is taken from `p`'s own cumulative γ (its packets measure
//! its path directly). Each γ is the pooled ratio `Σ delivered / Σ sent`,
//! the running mean of MINC's per-probe update `γ += (y − γ)/n`. For a
//! parent that never originated traffic, `A_p` falls back to the
//! MINC-style evidence-from-below aggregate, the pooled delivery ratio of
//! the edges into it — a lower bound on `A_p` (it still contains the
//! child-to-`p` hop), used only when nothing better exists.
//!
//! The remaining approximation, documented rather than hidden: `γ_{k,p}`
//! conditions on the window's parent snapshot, but `A_p` is `p`'s
//! *run-cumulative* path survival, so windows where `p`'s own route
//! differed are mixed. With per-window γ on both sides the estimator
//! would be exact per window but far noisier; the cumulative form is the
//! standard bias/variance trade.
//!
//! Everything is deterministic: `BTreeMap` state, integer tallies, no
//! iteration-order dependence.

use super::{Estimator, Evidence, PathTable, SnapshotQuery};
use crate::baseline::survival_to_transmission_loss;
use crate::estimator::LossEstimate;
use std::collections::BTreeMap;

/// Survival estimates are clamped into `[EPS, 1]` before ratios — a parent
/// with an apparently dead path must not blow up the division.
const EPS: f64 = 1e-6;

/// The MINC backend as a standalone [`Estimator`]: a [`PathTable`] solved
/// by [`solve`] at snapshot time. Hop evidence (Dophy's in-band channel) is
/// deliberately invisible to it — that is the whole point of the bake-off.
#[derive(Debug, Clone, Default)]
pub struct MincEstimator(PathTable);

impl MincEstimator {
    /// Creates an empty backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Estimator for MincEstimator {
    fn observe(&mut self, ev: &Evidence) {
        self.0.observe(ev);
    }

    fn snapshot(&self, q: &SnapshotQuery) -> Vec<((u32, u32), LossEstimate)> {
        solve(&self.0, q)
    }
}

/// MINC per-edge loss estimates from pooled routes, sorted by edge.
pub fn solve(paths: &PathTable, q: &SnapshotQuery) -> Vec<((u32, u32), LossEstimate)> {
    fn pool(tally: &mut (u64, u64), sent: u64, delivered: u64) {
        tally.0 += sent;
        tally.1 += delivered;
    }
    let gamma = |(sent, delivered): (u64, u64)| (delivered as f64 / sent as f64).clamp(EPS, 1.0);

    // Per-(child, parent) tallies behind γ_{k,p} and per-origin tallies
    // behind γ_k; a route's first hop leaves its origin.
    let mut edges: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new();
    let mut nodes: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    // Path survivals A_p: 1 at every sink (a route's tail)...
    let mut a: BTreeMap<u32, f64> = BTreeMap::new();
    for (route, sent, delivered) in paths.rows() {
        let (first, last) = (route[0], route[route.len() - 1]);
        a.insert(last.1, 1.0);
        pool(edges.entry(first).or_default(), sent, delivered);
        pool(nodes.entry(first.0).or_default(), sent, delivered);
    }
    // ...then every node that originated traffic measures its own path...
    for (&k, &tally) in &nodes {
        a.entry(k).or_insert_with(|| gamma(tally));
    }
    // ...and a silent parent falls back to the edges into it.
    let mut below: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for (&(_, p), &(sent, delivered)) in &edges {
        if !a.contains_key(&p) {
            pool(below.entry(p).or_default(), sent, delivered);
        }
    }
    for (p, tally) in below {
        a.insert(p, gamma(tally));
    }

    edges
        .into_iter()
        .filter(|&(_, (sent, _))| sent >= q.min_samples)
        .map(|((k, p), (sent, delivered))| {
            let sigma = (delivered as f64 / sent as f64 / a[&p]).clamp(EPS, 1.0);
            let loss = survival_to_transmission_loss(sigma, q.r);
            (
                (k, p),
                LossEstimate {
                    p_success: 1.0 - loss,
                    loss,
                    n_samples: sent,
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

    fn outcome(origin: u32, path: &[(u32, u32)], sent: u64, delivered: u64) -> Evidence {
        Evidence::PathOutcome {
            at: SimTime::from_micros(0),
            origin,
            path: path.to_vec(),
            sent,
            delivered,
        }
    }

    /// End-to-end survival of a chain with the given per-hop survivals.
    fn chain_delivery(hops: &[f64], sent: u64) -> u64 {
        let surv: f64 = hops.iter().product();
        (sent as f64 * surv).round() as u64
    }

    #[test]
    fn recovers_per_link_survival_on_a_static_chain() {
        // 3 → 2 → 1 → 0 with per-hop *end-to-end* survival (post-ARQ)
        // 0.9, 0.95, 1.0. Every node originates traffic, so the dual MINC
        // recursion has direct A estimates everywhere.
        let mut est = MincEstimator::new();
        let hops = [0.9, 0.95, 1.0];
        for _ in 0..50 {
            est.observe(&outcome(
                3,
                &[(3, 2), (2, 1), (1, 0)],
                20,
                chain_delivery(&hops, 20),
            ));
            est.observe(&outcome(
                2,
                &[(2, 1), (1, 0)],
                20,
                chain_delivery(&hops[1..], 20),
            ));
            est.observe(&outcome(1, &[(1, 0)], 20, chain_delivery(&hops[2..], 20)));
        }
        // r=1: per-transmission loss == 1 - link survival.
        let q = SnapshotQuery {
            now: SimTime::from_micros(0),
            r: 1,
            min_samples: 10,
        };
        let snap: BTreeMap<_, _> = est.snapshot(&q).into_iter().collect();
        assert!(
            (snap[&(3, 2)].loss - 0.1).abs() < 0.02,
            "{:?}",
            snap[&(3, 2)]
        );
        assert!(
            (snap[&(2, 1)].loss - 0.05).abs() < 0.02,
            "{:?}",
            snap[&(2, 1)]
        );
        assert!(snap[&(1, 0)].loss < 0.02, "{:?}", snap[&(1, 0)]);
    }

    #[test]
    fn attributes_across_a_parent_change() {
        // Node 3 re-parents from 2 to 1 halfway through; each edge's γ is
        // conditioned on its own windows, so both estimates are clean.
        let mut est = MincEstimator::new();
        for _ in 0..40 {
            est.observe(&outcome(
                3,
                &[(3, 2), (2, 0)],
                10,
                chain_delivery(&[0.8, 1.0], 10),
            ));
            est.observe(&outcome(2, &[(2, 0)], 10, 10));
            est.observe(&outcome(1, &[(1, 0)], 10, 10));
        }
        for _ in 0..40 {
            est.observe(&outcome(
                3,
                &[(3, 1), (1, 0)],
                10,
                chain_delivery(&[0.6, 1.0], 10),
            ));
            est.observe(&outcome(2, &[(2, 0)], 10, 10));
            est.observe(&outcome(1, &[(1, 0)], 10, 10));
        }
        let q = SnapshotQuery {
            now: SimTime::from_micros(0),
            r: 1,
            min_samples: 10,
        };
        let snap: BTreeMap<_, _> = est.snapshot(&q).into_iter().collect();
        assert!(
            (snap[&(3, 2)].loss - 0.2).abs() < 0.03,
            "{:?}",
            snap[&(3, 2)]
        );
        assert!(
            (snap[&(3, 1)].loss - 0.4).abs() < 0.03,
            "{:?}",
            snap[&(3, 1)]
        );
    }

    #[test]
    fn silent_parent_uses_evidence_from_below() {
        // Node 2 never originates traffic: A_2 must come from its
        // children's outcomes, and the estimate stays finite and sane.
        let mut est = MincEstimator::new();
        for _ in 0..30 {
            est.observe(&outcome(3, &[(3, 2), (2, 0)], 10, 9));
        }
        let q = SnapshotQuery {
            now: SimTime::from_micros(0),
            r: 1,
            min_samples: 10,
        };
        let snap = est.snapshot(&q);
        assert_eq!(snap.len(), 1);
        let (link, e) = snap[0];
        assert_eq!(link, (3, 2));
        assert!(e.loss >= 0.0 && e.loss < 0.2, "{e:?}");
    }

    #[test]
    fn serves_every_sink_of_a_multi_sink_stream() {
        // Two disjoint one-hop networks, sinks 0 and 10, each delivering
        // 8 of 10 packets: both sinks anchor A = 1.
        let mut est = MincEstimator::new();
        for _ in 0..20 {
            est.observe(&outcome(1, &[(1, 0)], 10, 8));
            est.observe(&outcome(11, &[(11, 10)], 10, 8));
        }
        let q = SnapshotQuery {
            now: SimTime::from_micros(0),
            r: 1,
            min_samples: 10,
        };
        let snap: BTreeMap<_, _> = est.snapshot(&q).into_iter().collect();
        for link in [(1, 0), (11, 10)] {
            assert!((snap[&link].loss - 0.2).abs() < 1e-9, "{link:?}: {snap:?}");
        }
    }

    #[test]
    fn min_samples_filters_thin_edges() {
        let mut est = MincEstimator::new();
        est.observe(&outcome(1, &[(1, 0)], 5, 5));
        let thin = SnapshotQuery {
            now: SimTime::from_micros(0),
            r: 1,
            min_samples: 10,
        };
        assert!(est.snapshot(&thin).is_empty());
    }
}
