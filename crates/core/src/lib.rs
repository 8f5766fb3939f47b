//! # dophy
//!
//! Reproduction of **Dophy** — *Fine-Grained Loss Tomography in Dynamic
//! Sensor Networks* (Cao, Gao, Dong, Bu; ICPP 2015).
//!
//! Dophy infers per-link loss ratios in collection networks whose routing
//! paths change continuously. Its key observation: link-layer ARQ already
//! *measures* every link it uses — the attempt number of the first
//! successfully received frame is a geometric sample of that link's loss.
//! Dophy makes this observable at the sink by **arithmetically encoding the
//! per-hop retransmission counts (and the path itself) inside each data
//! packet**, at a fraction of a byte per hop, with two optimizations:
//!
//! 1. **Symbol aggregation** ([`symbols`], `dophy_coding::aggregate`) —
//!    collapse rare high retransmission counts into shared symbols,
//!    shrinking the alphabet and the code;
//! 2. **Periodic model updates** ([`model_mgr`]) — the sink learns the
//!    empirical symbol distribution and disseminates refreshed coding
//!    tables, keeping per-symbol redundancy near zero as the network
//!    drifts.
//!
//! ## Crate map
//!
//! | module | role |
//! |---|---|
//! | [`symbols`] | alphabet configuration shared network-wide |
//! | [`header`] | the in-packet measurement header |
//! | [`encoder`] | receiver-side per-hop encoding |
//! | [`decoder`] | sink-side path + retx-count recovery |
//! | [`model_mgr`] | epoch-versioned models, learning, dissemination |
//! | [`estimator`] | truncation/censoring-aware per-link loss MLE |
//! | [`infer`] | pluggable inference backends (in-band / MINC / sparse-L1) behind one trait |
//! | [`bayes`] | conjugate Beta-posterior estimator (small-sample shrinkage) |
//! | [`tracking`] | windowed (time-resolved) estimation + link watchdog |
//! | [`diagnosis`] | operator-facing network-health reports |
//! | [`baseline`] | traditional end-to-end loss tomography (EM / log-LS) |
//! | [`metrics`] | accuracy scoring against ground truth |
//! | [`protocol`] | the runnable stack over `dophy-sim` + `dophy-routing` |
//!
//! ## Quickstart
//!
//! ```
//! use dophy::protocol::{build_simulation, DophyConfig};
//! use dophy_sim::{SimConfig, SimDuration, Placement};
//!
//! let mut sim = SimConfig::canonical(42);
//! sim.placement = Placement::Grid { side: 4, spacing: 14.0 };
//! let dophy = DophyConfig {
//!     traffic_period: SimDuration::from_secs(5),
//!     ..DophyConfig::default()
//! };
//! let (mut engine, shared) = build_simulation(&sim, &dophy);
//! engine.start();
//! engine.run_for(SimDuration::from_secs(300));
//!
//! let sink = shared.lock();
//! println!("delivered {} packets, decode ratio {:.3}",
//!          sink.overhead.packets, sink.decode.success_ratio());
//! for ((src, dst), est) in sink.infer.in_band.estimates(7, 20) {
//!     println!("link {src}->{dst}: loss {:.3} ({} samples)", est.loss, est.n_samples);
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod bayes;
pub mod decoder;
pub mod diagnosis;
pub mod encoder;
pub mod estimator;
pub mod header;
pub mod infer;
pub mod metrics;
pub mod model_mgr;
pub mod protocol;
pub mod symbols;
pub mod telemetry;
pub mod tracking;

pub use baseline::TraditionalConfig;
pub use bayes::{BayesLinkEstimator, BayesNetworkEstimator, BetaPrior};
pub use decoder::{decode_packet, DecodeError, DecodedPacket, LinkObservation};
pub use diagnosis::{DiagnosisConfig, LinkHealth, NetworkHealthReport};
pub use encoder::{encode_hop, EncodeError};
pub use estimator::{LinkEstimator, LossEstimate, NetworkEstimator};
pub use header::{DophyHeader, Epoch};
pub use infer::{
    Estimator, EstimatorKind, Evidence, Inference, MincEstimator, PathTable, SnapshotQuery,
    SparseL1Estimator,
};
pub use metrics::{score, AccuracyReport};
pub use model_mgr::{ModelManager, ModelSet, ModelUpdateConfig};
pub use protocol::{
    build_sharded_simulation_with_faults, build_simulation, DophyConfig, DophyNode, SinkState,
};
pub use symbols::SymbolSpaces;
pub use telemetry::sample_metrics;
pub use tracking::{
    detect_anomalies, ChangeDirection, ChangeEvent, CusumConfig, CusumDetector, LinkAlarm,
    WindowConfig, WindowedNetworkEstimator,
};
