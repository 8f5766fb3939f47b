//! Property-based tests on the estimation stack: statistical invariants of
//! the truncated/censored MLE and the traditional-tomography solvers.

use dophy::baseline::{estimate_em, estimate_logls, TraditionalConfig};
use dophy::estimator::LinkEstimator;
use dophy::infer::PathTable;
use dophy_coding::aggregate::AttemptObservation;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Draws truncated-geometric attempt samples and feeds the estimator,
/// censoring at `cap` when given.
fn feed(est: &mut LinkEstimator, p: f64, r: u16, n: usize, cap: Option<u16>, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut fed = 0;
    while fed < n {
        let mut a = 1u16;
        while rng.gen::<f64>() >= p && a <= r {
            a += 1;
        }
        if a > r {
            continue;
        }
        fed += 1;
        match cap {
            Some(c) if a >= c => est.observe(AttemptObservation::Range { lo: c, hi: r }),
            _ => est.observe(AttemptObservation::Exact(a)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The MLE is consistent: with many samples it lands near the true p,
    /// for any p, retry budget, and censoring cap.
    #[test]
    fn mle_is_consistent(
        p in 0.25f64..0.95,
        r in 4u16..10,
        cap_sel in 0usize..3,
        seed in 0u64..1000,
    ) {
        let cap = match cap_sel {
            0 => None,
            1 => Some(2.min(r)),
            _ => Some(4.min(r)),
        };
        let mut e = LinkEstimator::new();
        feed(&mut e, p, r, 8000, cap, seed);
        let est = e.mle(r).unwrap();
        prop_assert!(
            (est.p_success - p).abs() < 0.05,
            "p={} cap={:?} est={}", p, cap, est.p_success
        );
    }

    /// The likelihood is finite everywhere and maximised at the MLE
    /// (no better value on a coarse grid).
    #[test]
    fn mle_maximises_likelihood(
        p in 0.3f64..0.9,
        r in 4u16..9,
        seed in 0u64..1000,
    ) {
        let mut e = LinkEstimator::new();
        feed(&mut e, p, r, 500, Some(3.min(r)), seed);
        let est = e.mle(r).unwrap();
        let at_mle = e.log_likelihood(est.p_success, r);
        prop_assert!(at_mle.is_finite());
        for i in 1..40 {
            let q = i as f64 / 40.0;
            prop_assert!(
                e.log_likelihood(q, r) <= at_mle + 1e-6,
                "likelihood at {} beats MLE {}", q, est.p_success
            );
        }
    }

    /// Merging estimators is associative with feeding order.
    #[test]
    fn merge_commutes(
        p in 0.3f64..0.9,
        na in 10usize..200,
        nb in 10usize..200,
        seed in 0u64..1000,
    ) {
        let mut a = LinkEstimator::new();
        let mut b = LinkEstimator::new();
        feed(&mut a, p, 7, na, None, seed);
        feed(&mut b, p, 7, nb, Some(3), seed + 1);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab.count(), ba.count());
        let (ea, eb) = (ab.mle(7).unwrap(), ba.mle(7).unwrap());
        prop_assert!((ea.p_success - eb.p_success).abs() < 1e-6);
    }

    /// EM on a random chain recovers planted survival rates from exact
    /// (infinite-sample) delivery ratios.
    #[test]
    fn em_recovers_planted_chain(
        sigmas in proptest::collection::vec(0.5f64..0.99, 2..6),
    ) {
        let mut tomo = PathTable::new();
        // Chain 0 <- 1 <- 2 ... ; measurements for every suffix give the
        // solver enough leverage to separate links.
        let sent = 1_000_000u64;
        for start in 1..=sigmas.len() {
            let path: Vec<(u32, u32)> = (1..=start)
                .rev()
                .map(|i| (i as u32, (i - 1) as u32))
                .collect();
            let dr: f64 = sigmas[..start].iter().product();
            tomo.add(&path, sent, (sent as f64 * dr).round() as u64);
        }
        // Deep lossy chains (dr ≈ 0.5^5) have a flat likelihood surface;
        // give EM enough iterations to actually converge.
        let cfg = TraditionalConfig {
            max_iters: 20_000,
            tol: 1e-10,
        };
        let est = estimate_em(&tomo, &cfg);
        for (i, &sig) in sigmas.iter().enumerate() {
            let link = ((i + 1) as u32, i as u32);
            let got = est[&link];
            prop_assert!(
                (got - sig).abs() < 0.02,
                "link {:?}: {} vs planted {}", link, got, sig
            );
        }
    }

    /// Both solvers always emit probabilities in [0, 1] on arbitrary
    /// (possibly inconsistent) measurements.
    #[test]
    fn solvers_emit_probabilities(
        raw in proptest::collection::vec(
            (proptest::collection::vec((0u32..20, 0u32..20), 1..5), 1u64..500, 0u64..600),
            1..10,
        ),
    ) {
        let mut tomo = PathTable::new();
        for (path, sent, delivered) in raw {
            tomo.add(&path, sent, delivered);
        }
        let cfg = TraditionalConfig::default();
        for v in estimate_em(&tomo, &cfg).values().chain(estimate_logls(&tomo, &cfg).values()) {
            prop_assert!(v.is_finite() && (0.0..=1.0).contains(v), "estimate {v}");
        }
    }
}
