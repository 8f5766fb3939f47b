//! # dophy-sim
//!
//! A deterministic discrete-event wireless-sensor-network simulator — the
//! evaluation substrate for the Dophy loss-tomography reproduction
//! (*Fine-Grained Loss Tomography in Dynamic Sensor Networks*, ICPP 2015).
//!
//! The paper evaluates on TinyOS with large-scale simulation; this crate
//! replaces that stack with a self-contained simulator that preserves what
//! tomography observes:
//!
//! * **per-attempt link loss draws** from configurable processes
//!   ([`link`]): i.i.d., bursty (Gilbert–Elliott), and drifting PRR;
//! * **stop-and-wait ARQ** with a bounded retry budget and lossy ACKs
//!   ([`mac`], [`engine`]), including realistic duplicate deliveries —
//!   the attempt number of the first received copy is exactly the
//!   geometric loss sample Dophy encodes;
//! * **realistic topologies** ([`topology`], [`radio`]): logistic
//!   PRR-vs-distance with shadowing jitter, giving connected/transitional/
//!   disconnected link regimes and natural asymmetry;
//! * **ground truth** ([`trace`]): per-link empirical reception ratios and
//!   traffic statistics that estimates are scored against;
//! * **bit-reproducibility** ([`rng`]): every stochastic component draws
//!   from a named stream derived from one master seed;
//! * **deterministic fault injection** ([`fault`]): seeded frame
//!   corruption, node crash/reboot schedules, and dissemination faults
//!   that replay byte-identically and leave unfaulted runs untouched;
//! * **structured observability** ([`obs`]): one [`obs::Event`] stream
//!   delivered to an [`obs::Observer`] (tx/rx/ack/drop/timer from the
//!   engine, parent-change, epoch-switch and decode events that protocols
//!   report through [`Ctx::emit`], and lifecycle spans), a JSONL tracer,
//!   and a metrics registry — all guaranteed not to perturb simulation
//!   state.
//!
//! Protocols (routing, Dophy itself) implement [`engine::Protocol`] and are
//! driven by callbacks; see `dophy-routing` and `dophy` for the stacks built
//! on top.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod config;
pub mod energy;
pub mod engine;
pub mod event;
pub mod fault;
pub mod link;
pub mod mac;
pub mod obs;
pub mod packet;
pub mod profile;
pub mod radio;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;
pub mod topology;
pub mod trace;
pub mod traffic;

pub use chrome::ChromeTracer;
pub use config::{LinkDynamics, SimConfig};
pub use energy::{EnergyModel, EnergyReport};
pub use engine::{Ctx, Engine, Protocol};
pub use fault::{
    CrashFaultConfig, DisseminationFaultConfig, FaultConfig, FaultInjection, FaultPlan,
    InjectedFault,
};
pub use link::{LossModel, LossProcess};
pub use mac::MacConfig;
pub use obs::{
    CountingObserver, Event, FlightRecorder, JsonlTracer, MetricsRegistry, MetricsSnapshot,
    Observer, Severity, SpanEvent, SpanPhase, TraceKind, TraceRecord,
};
pub use packet::{Frame, Payload, SendDone, SendToken, TimerId};
pub use profile::{ProfileReport, Profiler, Subsystem};
pub use radio::RadioModel;
pub use rng::{RngHub, StreamKind};
pub use time::{SimDuration, SimTime};
pub use topology::{NodeId, Placement, Position, Topology, TopologyError};
pub use trace::{LinkTruth, Trace};
pub use traffic::TrafficPattern;
