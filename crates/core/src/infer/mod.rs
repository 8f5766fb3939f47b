//! Pluggable inference backends behind one [`Estimator`] trait.
//!
//! Dophy's headline claim is that in-band retransmission counts beat
//! classic end-to-end loss tomography. Testing that claim requires running
//! *different* inference algorithms over the *same* run, which is only
//! possible if inference is cleanly separated from the protocol. This
//! module owns that separation:
//!
//! * [`Evidence`] — the typed event stream every backend consumes. Two
//!   kinds exist: [`Evidence::Hop`] (a per-hop retransmission-count
//!   observation decoded from a delivered packet's measurement header —
//!   Dophy's in-band channel) and [`Evidence::PathOutcome`] (an end-to-end
//!   delivery tally over one attribution window, against the CTP parent
//!   path snapshotted at window start — the only thing classic tomography
//!   gets to see).
//! * [`Estimator`] — `observe`-style incremental ingestion plus
//!   `snapshot() -> per-link LossEstimate map`. Backends never touch the
//!   engine, the protocol, or each other: they are pure functions of the
//!   evidence stream, which is what keeps every replay/instrumentation/
//!   shard byte-identity guarantee valid for them.
//! * [`Inference`] — the sink's backend stack. The protocol layer holds
//!   one of these and calls [`Inference::observe`]; it never constructs a
//!   concrete estimator.
//!
//! Three bake-off backends implement the trait (plus the windowed and
//! Bayesian estimators, which predate it):
//!
//! | backend | evidence | algorithm |
//! |---|---|---|
//! | in-band ([`crate::estimator::NetworkEstimator`]) | `Hop` | truncation/censoring-corrected per-link MLE |
//! | MINC ([`MincEstimator`]) | `PathOutcome` | Cáceres et al. multicast MLE, generalized to the dynamic-parent DAG |
//! | sparse-L1 ([`SparseL1Estimator`]) | `PathOutcome` | FISTA sparse recovery of per-link log-transmission |
//!
//! The same fan-out feeds the traditional baseline's collector
//! ([`crate::baseline::TraditionalTomography`]), which keeps every
//! `PathOutcome` as a path measurement for its EM and log-LS solvers. It
//! is not a bake-off backend: no [`EstimatorKind`] selects it.
//!
//! All backends are deterministic: fixed iteration orders (`BTreeMap`
//! state), fixed iteration counts, no RNG.

pub mod minc;
pub mod sparse;

pub use minc::MincEstimator;
pub use sparse::{SparseConfig, SparseL1Estimator};

use crate::baseline::TraditionalTomography;
use crate::bayes::{BayesNetworkEstimator, BetaPrior};
use crate::estimator::{LossEstimate, NetworkEstimator};
use crate::tracking::{WindowConfig, WindowedNetworkEstimator};
use dophy_coding::aggregate::AttemptObservation;
use dophy_sim::SimTime;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One typed evidence event. The stream of these is the *entire* interface
/// between a run and its inference backends — serialize it and you can
/// replay inference offline, bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Evidence {
    /// A per-hop observation decoded from a delivered packet: `sender`
    /// transmitted to `receiver` and the first received copy carried this
    /// attempt count (exact or range-censored). Dophy's in-band channel.
    Hop {
        /// Sink-side decode time.
        at: SimTime,
        /// Transmitting node.
        sender: u32,
        /// Receiving node.
        receiver: u32,
        /// The retransmission-count observation.
        observation: AttemptObservation,
    },
    /// An end-to-end outcome: over one attribution window ending at `at`,
    /// `origin` injected `sent` packets along `path` (directed link list
    /// origin→sink, snapshotted from CTP routing state at window start)
    /// and `delivered` of them reached the sink. What classic tomography
    /// sees.
    PathOutcome {
        /// Window end time.
        at: SimTime,
        /// Originating node.
        origin: u32,
        /// Parent path snapshot, `(child, parent)` per hop.
        path: Vec<(u32, u32)>,
        /// Packets injected in the window.
        sent: u64,
        /// Packets attributed as delivered (carry-corrected, `≤ sent`).
        delivered: u64,
    },
}

impl Evidence {
    /// When the event happened: a hop's decode time or a path outcome's
    /// window end. Every consumer that keeps an evidence clock advances it
    /// by this.
    #[must_use]
    pub fn at(&self) -> SimTime {
        match self {
            Evidence::Hop { at, .. } | Evidence::PathOutcome { at, .. } => *at,
        }
    }
}

/// Parameters of a snapshot: estimates are a function of the evidence seen
/// so far *and* of when/how you ask.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotQuery {
    /// Query time (the windowed backend ages buckets against this).
    pub now: SimTime,
    /// MAC retry budget (attempt-distribution support / end-to-end
    /// survival → per-transmission loss conversion).
    pub r: u16,
    /// Minimum samples for a link to be reported.
    pub min_samples: u64,
}

/// The inference abstraction: incremental ingestion of typed evidence,
/// per-link loss snapshots on demand.
///
/// Implementations must be deterministic — same evidence sequence, same
/// query, bit-identical snapshot — and must ignore evidence kinds they
/// don't consume rather than erroring, so one fan-out feeds every backend.
pub trait Estimator: Send {
    /// Stable backend name (CLI value, figure series label).
    fn name(&self) -> &'static str;

    /// Ingests one evidence event.
    fn observe(&mut self, ev: &Evidence);

    /// Current per-link loss estimates, sorted by link key.
    fn snapshot(&self, q: &SnapshotQuery) -> Vec<((u32, u32), LossEstimate)>;
}

/// Runtime backend selector (`dophy-run --estimator ...`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// Dophy's in-band retransmission-count MLE.
    InBand,
    /// Multicast-MLE dual on end-to-end outcomes.
    Minc,
    /// L1 sparse recovery on end-to-end outcomes.
    SparseL1,
}

impl EstimatorKind {
    /// Every backend, in bake-off order.
    pub const ALL: [EstimatorKind; 3] = [
        EstimatorKind::InBand,
        EstimatorKind::Minc,
        EstimatorKind::SparseL1,
    ];

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            EstimatorKind::InBand => "in-band",
            EstimatorKind::Minc => "minc",
            EstimatorKind::SparseL1 => "sparse-l1",
        }
    }
}

impl std::str::FromStr for EstimatorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "in-band" => Ok(EstimatorKind::InBand),
            "minc" => Ok(EstimatorKind::Minc),
            "sparse-l1" => Ok(EstimatorKind::SparseL1),
            other => Err(format!(
                "unknown estimator '{other}' (expected in-band|minc|sparse-l1)"
            )),
        }
    }
}

impl std::fmt::Display for EstimatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The sink's inference stack: every backend, fed from one evidence
/// stream. Owning construction here is what lets the protocol layer stay
/// estimator-agnostic.
///
/// All backends always ingest — the end-to-end ones (MINC, sparse-L1 and
/// the traditional EM/log-LS collector) only accumulate window tallies
/// and defer their solve to snapshot time, so this costs nothing on the
/// hot path — which is how one cached run can serve the whole bake-off.
/// The scenario runner moves the end-to-end state out when a run ends and
/// solves each of their estimate maps only when something reads it.
pub struct Inference {
    /// In-band truncation/censoring-corrected MLE (plus its naive
    /// method-of-moments readout).
    pub in_band: NetworkEstimator,
    /// Time-resolved in-band estimator (tracks drifting links).
    pub windowed: WindowedNetworkEstimator,
    /// Conjugate Bayesian in-band estimator (prior ablation).
    pub bayes: BayesNetworkEstimator,
    /// Multicast-MLE dual over end-to-end outcomes.
    pub minc: MincEstimator,
    /// Sparse-recovery backend over end-to-end outcomes.
    pub sparse: SparseL1Estimator,
    /// The traditional end-to-end baseline's path measurements (solved by
    /// EM or log-LS on demand; see [`crate::baseline`]).
    pub traditional: TraditionalTomography,
    /// Evidence tap: when set, every observed event is appended here after
    /// the backends have seen it. Replaying the captured stream into a
    /// fresh stack reproduces every backend's state bit for bit.
    pub capture: Option<Arc<Mutex<Vec<Evidence>>>>,
}

impl Inference {
    /// Builds the full stack. `tracking` configures the windowed backend;
    /// everything else uses its crate defaults.
    pub fn new(tracking: WindowConfig) -> Self {
        Self {
            in_band: NetworkEstimator::new(),
            windowed: WindowedNetworkEstimator::new(tracking),
            bayes: BayesNetworkEstimator::new(BetaPrior::default()),
            minc: MincEstimator::new(),
            sparse: SparseL1Estimator::new(SparseConfig::default()),
            traditional: TraditionalTomography::new(),
            capture: None,
        }
    }

    /// Fans one evidence event out to every backend, in a fixed order.
    /// The in-band trio goes first and in its historical sequence
    /// (MLE, windowed, Bayes), so their float state is bit-identical to
    /// the pre-trait sink.
    pub fn observe(&mut self, ev: &Evidence) {
        Estimator::observe(&mut self.in_band, ev);
        Estimator::observe(&mut self.windowed, ev);
        Estimator::observe(&mut self.bayes, ev);
        Estimator::observe(&mut self.minc, ev);
        Estimator::observe(&mut self.sparse, ev);
        self.traditional.observe(ev);
        if let Some(capture) = &self.capture {
            capture.lock().push(ev.clone());
        }
    }

    /// The bake-off backend for `kind`.
    pub fn backend(&self, kind: EstimatorKind) -> &dyn Estimator {
        match kind {
            EstimatorKind::InBand => &self.in_band,
            EstimatorKind::Minc => &self.minc,
            EstimatorKind::SparseL1 => &self.sparse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(sender: u32, receiver: u32, attempt: u16) -> Evidence {
        Evidence::Hop {
            at: SimTime::from_micros(1_000_000),
            sender,
            receiver,
            observation: AttemptObservation::Exact(attempt),
        }
    }

    #[test]
    fn kind_round_trips_through_strings() {
        for kind in EstimatorKind::ALL {
            assert_eq!(kind.as_str().parse::<EstimatorKind>().unwrap(), kind);
        }
        assert!("nonsense".parse::<EstimatorKind>().is_err());
    }

    #[test]
    fn inference_feeds_every_backend_from_one_stream() {
        let mut inf = Inference::new(WindowConfig::default());
        for _ in 0..30 {
            inf.observe(&hop(2, 1, 1));
        }
        inf.observe(&Evidence::PathOutcome {
            at: SimTime::from_micros(2_000_000),
            origin: 2,
            path: vec![(2, 1), (1, 0)],
            sent: 20,
            delivered: 18,
        });
        let q = SnapshotQuery {
            now: SimTime::from_micros(2_000_000),
            r: 7,
            min_samples: 1,
        };
        // The in-band trio saw the hop observations...
        assert_eq!(inf.backend(EstimatorKind::InBand).snapshot(&q).len(), 1);
        assert_eq!(Estimator::snapshot(&inf.bayes, &q).len(), 1);
        // ...and the end-to-end backends saw the path outcome.
        assert!(!inf.backend(EstimatorKind::Minc).snapshot(&q).is_empty());
        assert!(!inf.backend(EstimatorKind::SparseL1).snapshot(&q).is_empty());
    }

    #[test]
    fn evidence_log_captures_and_replays_bit_identically() {
        let build = || {
            let mut inf = Inference::new(WindowConfig::default());
            let handle = Arc::new(Mutex::new(Vec::new()));
            inf.capture = Some(Arc::clone(&handle));
            (inf, handle)
        };
        let (mut live, handle) = build();
        for i in 0..50u32 {
            live.observe(&hop(2 + (i % 3), 1, 1 + (i % 2) as u16));
            if i % 10 == 9 {
                live.observe(&Evidence::PathOutcome {
                    at: SimTime::from_micros(u64::from(i) * 100_000),
                    origin: 3,
                    path: vec![(3, 1), (1, 0)],
                    sent: 10,
                    delivered: 9,
                });
            }
        }
        // Replay the captured stream into a fresh stack: snapshots must be
        // bit-identical, proving backends are pure functions of evidence.
        let (mut replayed, _h2) = build();
        for ev in handle.lock().iter() {
            replayed.observe(ev);
        }
        let q = SnapshotQuery {
            now: SimTime::from_micros(5_000_000),
            r: 7,
            min_samples: 1,
        };
        for kind in EstimatorKind::ALL {
            assert_eq!(
                live.backend(kind).snapshot(&q),
                replayed.backend(kind).snapshot(&q),
                "{kind} diverged under replay"
            );
        }
    }

    /// Throughput probe behind `--ignored`: feeds 1M synthetic evidence
    /// events (Hop + periodic PathOutcome, 300 links) through the full
    /// backend fan-out and prints events/sec. Run release for the number
    /// recorded in BENCH_harness.json:
    /// `cargo test --release -p dophy -- --ignored throughput --nocapture`
    #[test]
    #[ignore = "timing probe; run release with --ignored --nocapture"]
    fn estimator_update_throughput() {
        let mut inf = Inference::new(WindowConfig::default());
        const EVENTS: u64 = 1_000_000;
        let start = std::time::Instant::now();
        for i in 0..EVENTS {
            let link = (i % 300) as u32;
            if i % 100 == 99 {
                inf.observe(&Evidence::PathOutcome {
                    at: SimTime::from_micros(i),
                    origin: link + 1,
                    path: vec![(link + 1, link % 7), (link % 7, 0)],
                    sent: 20,
                    delivered: 19,
                });
            } else {
                inf.observe(&hop(link + 1, link % 7, 1 + (i % 3) as u16));
            }
        }
        let secs = start.elapsed().as_secs_f64();
        println!(
            "estimator fan-out: {EVENTS} events in {secs:.3} s = {:.0} events/s",
            EVENTS as f64 / secs
        );
    }
}
