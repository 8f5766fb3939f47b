//! Cross-backend agreement: on i.i.d. Bernoulli links with ample probes,
//! every inference backend — in-band MLE, MINC dual, sparse-L1 — must
//! converge to the same ground truth it is estimating, and each backend
//! must be bit-identical across two same-seed runs.
//!
//! The generator is a synthetic ARQ world, not the full stack: a fixed
//! collection tree whose links lose each transmission i.i.d., `r` attempts
//! per hop. Delivered packets yield per-hop `Evidence::Hop` observations
//! (the in-band channel travels *inside* the packet, so lost packets
//! report nothing); windows of outcomes yield `Evidence::PathOutcome`
//! tallies for the end-to-end backends. That puts every backend on its
//! honest diet while keeping the truth exactly known.

use dophy::infer::{EstimatorKind, Evidence, Inference, SnapshotQuery};
use dophy::tracking::WindowConfig;
use dophy_coding::aggregate::AttemptObservation;
use dophy_sim::SimTime;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Chain topology 3 → 2 → 1 → 0: every link appears in a distinct set of
/// paths, so the end-to-end backends are fully identified.
const CHAIN: [(u32, u32); 3] = [(3, 2), (2, 1), (1, 0)];
/// Two ARQ attempts, not the stack's usual seven: the end-to-end backends
/// only see post-ARQ hop losses (`loss^R`), and at R=7 those vanish below
/// one event per run, leaving nothing to attribute. R=2 keeps hop losses
/// material while still giving the in-band MLE retry counts to work with.
const R: u16 = 2;
const PACKETS_PER_ORIGIN: u64 = 20_000;
const WINDOW: u64 = 100;

/// Runs the synthetic world and returns the filled inference stack.
/// Everything is driven by one seeded RNG, so the whole function is a
/// pure map `(seed, losses) -> Inference state`.
fn run_world(seed: u64, loss: &BTreeMap<(u32, u32), f64>) -> Inference {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut inf = Inference::new(WindowConfig::default());
    let path_of = |origin: u32| -> Vec<(u32, u32)> {
        CHAIN
            .iter()
            .copied()
            .skip_while(|&(src, _)| src != origin)
            .collect()
    };
    for origin in [3u32, 2, 1] {
        let path = path_of(origin);
        let mut window_sent = 0u64;
        let mut window_delivered = 0u64;
        let mut windows_done = 0u64;
        for _ in 0..PACKETS_PER_ORIGIN {
            window_sent += 1;
            // Walk the packet hop by hop; each hop is an ARQ exchange of
            // up to R attempts against that link's Bernoulli loss.
            let mut hops: Vec<Evidence> = Vec::new();
            let mut delivered = true;
            for &(src, dst) in &path {
                let p = 1.0 - loss[&(src, dst)];
                let mut attempt = None;
                for a in 1..=R {
                    if rng.gen::<f64>() < p {
                        attempt = Some(a);
                        break;
                    }
                }
                match attempt {
                    Some(a) => hops.push(Evidence::Hop {
                        at: SimTime::from_micros(windows_done * 1_000_000),
                        sender: src,
                        receiver: dst,
                        observation: AttemptObservation::Exact(a),
                    }),
                    None => {
                        delivered = false;
                        break;
                    }
                }
            }
            if delivered {
                window_delivered += 1;
                // The measurement header arrives only with the packet.
                for ev in &hops {
                    inf.observe(ev);
                }
            }
            if window_sent == WINDOW {
                inf.observe(&Evidence::PathOutcome {
                    at: SimTime::from_micros(windows_done * 1_000_000),
                    origin,
                    path: path.clone(),
                    sent: window_sent,
                    delivered: window_delivered,
                });
                windows_done += 1;
                window_sent = 0;
                window_delivered = 0;
            }
        }
    }
    inf
}

fn query() -> SnapshotQuery {
    SnapshotQuery {
        now: SimTime::from_micros(PACKETS_PER_ORIGIN * 1_000_000),
        r: R,
        min_samples: 50,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn backends_agree_with_truth_and_are_seed_deterministic(
        seed in 0u64..1u64 << 48,
        l0 in 0.20f64..0.40,
        l1 in 0.20f64..0.40,
        l2 in 0.20f64..0.40,
    ) {
        let loss: BTreeMap<(u32, u32), f64> =
            CHAIN.iter().copied().zip([l0, l1, l2]).collect();
        let inf = run_world(seed, &loss);
        let q = query();

        // Agreement with truth. At R=2 every backend is ultimately
        // estimating a Bernoulli rate from ~20–60k trials, but the
        // end-to-end backends pay `loss = (1−σ)^(1/R)` on top, which
        // amplifies survival-space noise hardest as loss → 0 — hence the
        // 0.20 loss floor (keeps the amplification bounded) and looser
        // end-to-end tolerances. At these sizes 0.08 sits past 4σ while
        // still catching any systematic bias well below the signal.
        for (kind, tol) in [
            (EstimatorKind::InBand, 0.05),
            (EstimatorKind::Minc, 0.08),
            (EstimatorKind::SparseL1, 0.08),
        ] {
            let snap: BTreeMap<(u32, u32), f64> = inf
                .snapshot(kind, &q)
                .into_iter()
                .map(|(k, e)| (k, e.loss))
                .collect();
            for (&link, &true_loss) in &loss {
                let got = snap.get(&link).copied().unwrap_or_else(|| {
                    panic!("{kind} reported nothing for {link:?}: {snap:?}")
                });
                prop_assert!(
                    (got - true_loss).abs() < tol,
                    "{kind} on {link:?}: estimated {got:.4}, true {true_loss:.4}"
                );
            }
        }

        // Bit-identical across two same-seed runs, per backend.
        let again = run_world(seed, &loss);
        for kind in EstimatorKind::ALL {
            prop_assert!(
                inf.snapshot(kind, &q) == again.snapshot(kind, &q),
                "{kind} not bit-identical across same-seed runs"
            );
        }
    }
}
