//! Dophy as a runnable protocol stack: routing + data plane + sink logic.
//!
//! [`DophyNode`] implements [`dophy_sim::Protocol`] and plays one of two
//! roles:
//!
//! * **Sensor node** — runs an embedded CTP [`Router`], generates periodic
//!   data packets stamped with its current model epoch, and, as a
//!   *forwarder*, performs receiver-side hop encoding before relaying each
//!   accepted packet to its parent.
//! * **Sink** — decodes every delivered packet (path + per-link
//!   retransmission counts), feeds the loss estimator and the model
//!   learners, and periodically refreshes/disseminates the probability
//!   model ([`ModelManager`], Optimization 2).
//!
//! All sink-side state lives in a shared [`SinkState`] behind a mutex; node
//! protocols hold `Arc`s to it. Nodes consult the shared [`ModelManager`]
//! only through [`ModelManager::node_current`]/epoch lookups that respect
//! per-node dissemination delays — the mutex is a simulation convenience,
//! not an information side-channel (see DESIGN.md).
//!
//! Ground-truth hop records are also logged (for scoring and for the
//! encoding-overhead comparisons); this is explicitly a *measurement
//! harness* channel that a real deployment would not have.

use crate::decoder::{decode_packet, DecodeError, DecodedPacket};
use crate::encoder::{encode_hop, EncodeError};
use crate::header::DophyHeader;
use crate::model_mgr::{ModelManager, ModelUpdateConfig};
use crate::symbols::SymbolSpaces;
use dophy_coding::aggregate::AggregationPolicy;
use dophy_routing::{Router, RouterConfig};
use dophy_sim::obs::{
    data_trace_id, DecodeEvent, DecodeOutcome, DropEvent, DropReason, EpochSwitchEvent, Event,
    SpanPhase,
};
use dophy_sim::profile::{self, Subsystem};
use dophy_sim::stats::{CountHistogram, Streaming};
use dophy_sim::{
    Ctx, Engine, FaultConfig, FaultPlan, Frame, LossModel, NodeId, Profiler, Protocol, RngHub,
    SendDone, SimConfig, SimDuration, SimTime, TimerId, Topology,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Application timer: generate the next data packet.
const TIMER_TRAFFIC: TimerId = TimerId(1);
/// Sink timer: consider a model refresh.
const TIMER_MODEL_UPDATE: TimerId = TimerId(2);
/// Node-churn timer: toggle this node's up/down state.
const TIMER_CHURN: TimerId = TimerId(3);
/// Injected-crash timer: flip between the fault plan's up/down phases.
const TIMER_FAULT: TimerId = TimerId(4);

/// MAC-level frame header bytes charged on every data frame (addresses,
/// FCS — what TinyOS's 802.15.4 header costs).
pub const MAC_HEADER_BYTES: usize = 11;

/// Node up/down churn: each non-sink node alternates exponentially
/// distributed up and down phases (radio off while down). Models battery
/// swaps, crashes, and duty-cycled deployments — the other "dynamic" in
/// dynamic sensor networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeChurnConfig {
    /// Mean uptime per cycle.
    pub mean_up: SimDuration,
    /// Mean downtime per cycle.
    pub mean_down: SimDuration,
}

/// Arrival-process shape for application traffic (the mean period comes
/// from [`DophyConfig::traffic_period`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficShape {
    /// Fixed period with uniform ±50% jitter.
    Periodic,
    /// Poisson arrivals.
    Poisson,
}

impl TrafficShape {
    fn pattern(self, period: SimDuration) -> dophy_sim::TrafficPattern {
        match self {
            TrafficShape::Periodic => dophy_sim::TrafficPattern::Periodic { period },
            TrafficShape::Poisson => dophy_sim::TrafficPattern::Poisson {
                mean_period: period,
            },
        }
    }
}

/// Full Dophy stack configuration.
///
/// `Hash` is stable-by-construction (all float-bearing members hash raw
/// bits) so the bench harness can use it as a content-address for run
/// caching.
#[derive(Debug, Clone, Copy, PartialEq, Hash, Serialize, Deserialize)]
pub struct DophyConfig {
    /// Retransmission-count aggregation policy (Optimization 1).
    pub aggregation: AggregationPolicy,
    /// Lossless escape refinement on top of aggregation.
    pub refine: bool,
    /// Model update/dissemination tuning (Optimization 2).
    pub model_update: ModelUpdateConfig,
    /// Routing parameters.
    pub router: RouterConfig,
    /// Mean data-generation period per node (uniformly jittered ±50%).
    pub traffic_period: SimDuration,
    /// Arrival-process shape built on `traffic_period` (periodic with
    /// jitter, or Poisson with the same mean).
    pub traffic_shape: TrafficShape,
    /// Application payload bytes (sensor reading).
    pub payload_bytes: usize,
    /// Delay before traffic starts (lets routing converge).
    pub warmup: SimDuration,
    /// TTL guard against transient routing loops.
    pub ttl: u8,
    /// Recently-seen window for duplicate suppression.
    pub dedup_window: usize,
    /// Windowing for the time-resolved estimator.
    pub tracking: crate::tracking::WindowConfig,
    /// Optional node up/down churn (None = nodes never fail).
    pub churn: Option<NodeChurnConfig>,
}

impl Default for DophyConfig {
    fn default() -> Self {
        Self {
            aggregation: AggregationPolicy::Cap { cap: 4 },
            refine: false,
            model_update: ModelUpdateConfig::default(),
            router: RouterConfig::default(),
            traffic_period: SimDuration::from_secs(10),
            traffic_shape: TrafficShape::Periodic,
            payload_bytes: 20,
            warmup: SimDuration::from_secs(60),
            ttl: 24,
            dedup_window: 4096,
            tracking: crate::tracking::WindowConfig::default(),
            churn: None,
        }
    }
}

/// The data-packet payload flowing through the network.
#[derive(Debug, Clone)]
pub struct DataMsg {
    /// Dophy's measurement header (grows hop by hop).
    pub header: DophyHeader,
}

/// Per-packet overhead accounting.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OverheadStats {
    /// Packets delivered to the sink.
    pub packets: u64,
    /// Total finished arithmetic-stream bytes over all delivered packets.
    pub stream_bytes: u64,
    /// Total Dophy measurement overhead (stream + coder state + epoch).
    pub measurement_bytes: u64,
    /// Per-path-length stream-byte statistics (index = hop count).
    pub stream_by_hops: Vec<Streaming>,
    /// Hop-count histogram of delivered packets.
    pub hops_hist: CountHistogram,
}

impl OverheadStats {
    fn record(&mut self, hops: usize, stream_len: usize, measurement: usize) {
        self.packets += 1;
        self.stream_bytes += stream_len as u64;
        self.measurement_bytes += measurement as u64;
        if hops >= self.stream_by_hops.len() {
            self.stream_by_hops.resize_with(hops + 1, Streaming::new);
        }
        self.stream_by_hops[hops].push(stream_len as f64);
        self.hops_hist.record(hops);
    }

    /// Mean measurement bytes per delivered packet.
    pub fn mean_measurement_bytes(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.measurement_bytes as f64 / self.packets as f64
        }
    }

    /// Mean finished-stream bytes per delivered packet.
    pub fn mean_stream_bytes(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.stream_bytes as f64 / self.packets as f64
        }
    }
}

/// Decode-failure tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecodeStats {
    /// Successfully decoded packets.
    pub ok: u64,
    /// Epoch aged out of the sink's history.
    pub unknown_epoch: u64,
    /// Stream decoded to an invalid hop index.
    pub bad_index: u64,
    /// Decoded walk missed the true final sender.
    pub path_mismatch: u64,
    /// Range-coder level failure.
    pub coding: u64,
    /// A hop en route lacked the packet's epoch models.
    pub disabled: u64,
    /// Claimed hop count impossible for the topology (structural check).
    pub bad_hop_count: u64,
    /// A header field (e.g. origin) was out of range before decoding.
    pub malformed: u64,
    /// Subset of `ok`: decodes rescued by the previous-epoch fallback
    /// retry after the primary epoch choice failed with a bad index.
    pub fallback_ok: u64,
}

impl DecodeStats {
    /// Fraction of delivered packets decoded successfully.
    pub fn success_ratio(&self) -> f64 {
        let total = self.ok + self.quarantined();
        if total == 0 {
            0.0
        } else {
            self.ok as f64 / total as f64
        }
    }

    /// Packets quarantined (every non-ok outcome, each with a counted
    /// cause). The estimator ingests none of these.
    pub fn quarantined(&self) -> u64 {
        self.unknown_epoch
            + self.bad_index
            + self.path_mismatch
            + self.coding
            + self.disabled
            + self.bad_hop_count
            + self.malformed
    }
}

/// One packet's ground-truth hop log: `(sender, receiver, attempt)` per
/// hop, recorded by the forwarding nodes and completed at the sink.
pub type TrueHops = Vec<(u32, u32, u16)>;

/// Everything the sink knows, shared across protocol instances.
pub struct SinkState {
    /// Model learning, epochs, dissemination.
    pub manager: ModelManager,
    /// The inference stack (in-band MLE, windowed, Bayes, and the route
    /// table that MINC, sparse-L1 and the traditional EM/log-LS solve
    /// from), fed typed evidence from decoded packets and from the
    /// scenario runner's window tallies.
    /// Constructed and owned by [`crate::infer`] — the protocol layer
    /// never builds a concrete estimator and only talks to the stack
    /// through its fan-out.
    pub infer: crate::infer::Inference,
    /// Decode outcome counters.
    pub decode: DecodeStats,
    /// Per-packet overhead accounting.
    pub overhead: OverheadStats,
    /// Per-origin packets generated (indexed by node id).
    pub sent_per_origin: Vec<u64>,
    /// Per-origin packets delivered to the sink.
    pub delivered_per_origin: Vec<u64>,
    /// Ground-truth hop logs of delivered packets, keyed by (origin, seq).
    /// Verification/benchmark channel, not protocol state.
    pub true_hops: HashMap<(u32, u32), TrueHops>,
    /// Whether to populate [`SinkState::true_hops`]. The log grows with
    /// every packet ever forwarded, which dominates peak memory at
    /// 10k-node scale; harnesses that don't read it (everything except
    /// the fig3 re-encoding figure) switch it off. Pure recorder gate —
    /// protocol behavior is identical either way.
    pub record_true_hops: bool,
    /// Packets dropped for lack of a route.
    pub no_route_drops: u64,
    /// Packets dropped by the TTL guard.
    pub ttl_drops: u64,
    /// Hops that had to disable coding (missing epoch models).
    pub encode_disabled: u64,
    /// Frames destroyed by injected corruption at any receiver
    /// (truncated or flipped beyond structural parseability).
    pub corrupt_frame_drops: u64,
    /// The master RNG hub (for dissemination delay draws).
    hub: RngHub,
}

impl SinkState {
    /// Per-origin delivery ratios (None where nothing was sent).
    pub fn delivery_ratio(&self, origin: usize) -> Option<f64> {
        let sent = self.sent_per_origin[origin];
        (sent > 0).then(|| self.delivered_per_origin[origin] as f64 / sent as f64)
    }

    /// Network-wide delivery ratio.
    pub fn total_delivery_ratio(&self) -> Option<f64> {
        let sent: u64 = self.sent_per_origin.iter().sum();
        let delivered: u64 = self.delivered_per_origin.iter().sum();
        (sent > 0).then(|| delivered as f64 / sent as f64)
    }
}

/// Duplicate-suppression set with FIFO eviction.
struct DedupSet {
    seen: HashSet<(u32, u32)>,
    order: VecDeque<(u32, u32)>,
    capacity: usize,
}

impl DedupSet {
    fn new(capacity: usize) -> Self {
        Self {
            seen: HashSet::with_capacity(capacity),
            order: VecDeque::with_capacity(capacity),
            capacity: capacity.max(1),
        }
    }

    /// Returns true if the key was fresh (and records it).
    fn insert(&mut self, key: (u32, u32)) -> bool {
        if !self.seen.insert(key) {
            return false;
        }
        self.order.push_back(key);
        if self.order.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        true
    }
}

/// Per-node counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeStats {
    /// Data packets this node originated.
    pub generated: u64,
    /// Packets this node forwarded.
    pub forwarded: u64,
    /// Duplicate frames suppressed.
    pub duplicates: u64,
}

/// One node of the Dophy stack (see module docs).
pub struct DophyNode {
    cfg: DophyConfig,
    topo: Arc<Topology>,
    spaces: SymbolSpaces,
    shared: Arc<Mutex<SinkState>>,
    router: Option<Router>,
    seq: u32,
    dedup: DedupSet,
    /// Node up/down state (always true without churn).
    alive: bool,
    /// Shared fault plan (None = unfaulted run; no fault draws at all).
    fault: Option<Arc<FaultPlan>>,
    /// Index into this node's crash schedule (see `FaultPlan::crash_phase`).
    crash_k: u32,
    /// Local stats.
    pub stats: NodeStats,
}

impl DophyNode {
    /// Creates one node's protocol instance (unfaulted).
    pub fn new(
        cfg: DophyConfig,
        topo: Arc<Topology>,
        spaces: SymbolSpaces,
        shared: Arc<Mutex<SinkState>>,
    ) -> Self {
        Self::with_faults(cfg, topo, spaces, shared, None)
    }

    /// Creates one node's protocol instance with an optional shared fault
    /// plan: received data frames pass through the plan's wire-level
    /// corruption, and crash-prone nodes follow its up/down schedule.
    pub fn with_faults(
        cfg: DophyConfig,
        topo: Arc<Topology>,
        spaces: SymbolSpaces,
        shared: Arc<Mutex<SinkState>>,
        fault: Option<Arc<FaultPlan>>,
    ) -> Self {
        Self {
            dedup: DedupSet::new(cfg.dedup_window),
            cfg,
            topo,
            spaces,
            shared,
            router: None,
            seq: 0,
            alive: true,
            fault,
            crash_k: 0,
            stats: NodeStats::default(),
        }
    }

    /// The embedded router (after init).
    ///
    /// # Panics
    /// Panics before `on_init`.
    pub fn router(&self) -> &Router {
        self.router.as_ref().expect("initialised")
    }

    fn schedule_churn(&self, ctx: &mut Ctx<'_>, mean: SimDuration) {
        // Exponential phase length via the Poisson traffic pattern's draw.
        let delay =
            dophy_sim::TrafficPattern::Poisson { mean_period: mean }.next_interval(ctx.rng());
        ctx.set_timer(delay, TIMER_CHURN);
    }

    fn schedule_traffic(&self, ctx: &mut Ctx<'_>) {
        let pattern = self.cfg.traffic_shape.pattern(self.cfg.traffic_period);
        let delay = pattern.next_interval(ctx.rng());
        ctx.set_timer(delay, TIMER_TRAFFIC);
    }

    fn generate_packet(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.node_id();
        let parent = self.router().next_hop();
        let mut shared = self.shared.lock();
        self.seq += 1;
        shared.sent_per_origin[me.index()] += 1;
        let Some(parent) = parent else {
            shared.no_route_drops += 1;
            ctx.emit(Event::Drop(DropEvent {
                node: me.0,
                dst: None,
                reason: DropReason::NoRoute,
                trace: None,
            }));
            return;
        };
        let epoch = shared.manager.node_current(me.index(), ctx.now()).epoch;
        let header = DophyHeader::new(me, self.seq, epoch);
        let wire = MAC_HEADER_BYTES + header.wire_bytes() + self.cfg.payload_bytes;
        drop(shared);
        self.stats.generated += 1;
        let trace = data_trace_id(me.0, self.seq);
        ctx.span(trace, SpanPhase::Origin);
        ctx.send_unicast_traced(parent, Arc::new(DataMsg { header }), wire, trace);
    }

    fn handle_data(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, msg: &DataMsg) {
        let key = (msg.header.origin.0, msg.header.seq);
        if !self.dedup.insert(key) {
            self.stats.duplicates += 1;
            return;
        }
        let me = ctx.node_id();
        if me == NodeId::SINK {
            self.sink_deliver(ctx, frame, msg);
        } else {
            self.forward(ctx, frame, msg);
        }
    }

    fn forward(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, msg: &DataMsg) {
        let me = ctx.node_id();
        let mut header = msg.header.clone();
        // The trace id travels with the packet's identity (origin, seq),
        // so every hop of one packet shares a lifecycle.
        let trace = data_trace_id(header.origin.0, header.seq);
        let mut shared = self.shared.lock();
        if header.hops >= self.cfg.ttl {
            shared.ttl_drops += 1;
            ctx.emit(Event::Drop(DropEvent {
                node: me.0,
                dst: None,
                reason: DropReason::TtlExpired,
                trace: Some(trace),
            }));
            return;
        }
        // Ground-truth hop log (harness channel).
        if shared.record_true_hops {
            shared
                .true_hops
                .entry((header.origin.0, header.seq))
                .or_default()
                .push((frame.src.0, me.0, frame.attempt));
        }
        // Encode with the packet's epoch — if this node hasn't received
        // those models (or they aged out), coding is disabled for the rest
        // of the path but the packet still flows.
        if !header.coding_disabled {
            let models = shared
                .manager
                .node_models_for_epoch(me.index(), header.epoch, ctx.now())
                .cloned();
            match models {
                Some(models) => {
                    match encode_hop(
                        &mut header,
                        &self.topo,
                        &self.spaces,
                        &models,
                        frame.src,
                        me,
                        frame.attempt,
                    ) {
                        Ok(()) => {}
                        Err(EncodeError::NotACandidate { .. })
                        | Err(EncodeError::TooManyHops)
                        | Err(EncodeError::Coding(_)) => {
                            header.coding_disabled = true;
                            shared.encode_disabled += 1;
                        }
                    }
                }
                None => {
                    header.coding_disabled = true;
                    shared.encode_disabled += 1;
                }
            }
        } else {
            // Still count the hop for the TTL guard.
            header.hops = header.hops.saturating_add(1);
        }
        let parent = self.router().next_hop();
        let Some(parent) = parent else {
            shared.no_route_drops += 1;
            ctx.emit(Event::Drop(DropEvent {
                node: me.0,
                dst: None,
                reason: DropReason::NoRoute,
                trace: Some(trace),
            }));
            return;
        };
        drop(shared);
        self.stats.forwarded += 1;
        ctx.span(trace, SpanPhase::Forward { to: parent.0 });
        let wire = MAC_HEADER_BYTES + header.wire_bytes() + self.cfg.payload_bytes;
        ctx.send_unicast_traced(parent, Arc::new(DataMsg { header }), wire, trace);
    }

    /// Feeds one successfully decoded packet into the inference stack and
    /// the model learners. This is the *only* estimator ingestion point,
    /// and it is reached exclusively from the `Ok` decode arms in
    /// [`Self::sink_deliver`] — quarantined packets can never touch it.
    /// Each observation becomes one typed [`crate::infer::Evidence::Hop`]
    /// event fanned out to every backend; the stack preserves the
    /// historical per-observation backend order, so estimator state stays
    /// bit-identical to the pre-trait sink.
    fn ingest_decoded(
        shared: &mut SinkState,
        now: SimTime,
        decoded: &DecodedPacket,
        prof: Option<&Profiler>,
    ) {
        let t0 = profile::start(prof);
        for obs in &decoded.observations {
            shared.infer.observe(&crate::infer::Evidence::Hop {
                at: now,
                sender: obs.sender.0,
                receiver: obs.receiver.0,
                observation: obs.observation,
            });
            if let (Some(h), Some(a)) = (obs.hop_sym, obs.attempt_sym) {
                shared.manager.observe(h, a);
            }
        }
        profile::stop(prof, Subsystem::EstimatorUpdate, t0);
    }

    fn sink_deliver(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, msg: &DataMsg) {
        let header = &msg.header;
        let n = self.topo.node_count();
        let prof = ctx.profiler();
        let mut shared = self.shared.lock();
        // Structural pre-checks run before the header is trusted for
        // anything — a corrupted origin would index out of bounds right
        // below, and an impossible hop count would burn model decodes.
        let precheck_outcome = if header.origin.index() >= n {
            shared.decode.malformed += 1;
            Some(DecodeOutcome::Malformed)
        } else if usize::from(header.hops) >= n {
            shared.decode.bad_hop_count += 1;
            Some(DecodeOutcome::BadHopCount)
        } else {
            None
        };
        if let Some(outcome) = precheck_outcome {
            drop(shared);
            ctx.emit(Event::Decode(DecodeEvent {
                origin: header.origin.0,
                seq: header.seq,
                hops: u16::from(header.hops),
                outcome,
            }));
            return;
        }
        shared.delivered_per_origin[header.origin.index()] += 1;
        // Complete the ground-truth hop log with the final (observed) hop.
        if shared.record_true_hops {
            shared
                .true_hops
                .entry((header.origin.0, header.seq))
                .or_default()
                .push((frame.src.0, NodeId::SINK.0, frame.attempt));
        }
        // Overhead accounting uses the finished stream (what would be
        // flushed on air at the last hop).
        let hops = usize::from(header.hops) + 1;
        let stream_len = header.wire_stream_len();
        shared.overhead.record(
            hops,
            stream_len,
            dophy_coding::range::EncoderState::WIRE_SIZE + 1 + stream_len,
        );

        let mut ingested: Option<u16> = None;
        let decode_outcome = match shared.manager.models_for_epoch(header.epoch).cloned() {
            None => {
                shared.decode.unknown_epoch += 1;
                DecodeOutcome::UnknownEpoch
            }
            Some(models) => {
                let t0 = profile::start(prof);
                let primary = decode_packet(
                    header,
                    &self.topo,
                    &self.spaces,
                    &models,
                    frame.src,
                    frame.attempt,
                );
                profile::stop(prof, Subsystem::Decode, t0);
                match primary {
                    Ok(decoded) => {
                        shared.decode.ok += 1;
                        Self::ingest_decoded(&mut shared, ctx.now(), &decoded, prof);
                        ingested = Some(decoded.observations.len() as u16);
                        DecodeOutcome::Ok
                    }
                    Err(DecodeError::IndexOutOfRange { .. }) => {
                        // The classic wrong-model signature. Retry once with
                        // the previous in-window epoch: wire-epoch wrap and
                        // stalled dissemination both make the *older* set the
                        // right one, and a wrong retry almost surely fails the
                        // path-consistency check rather than decoding wrong.
                        let fallback = shared
                            .manager
                            .fallback_models_for_epoch(header.epoch)
                            .cloned();
                        let retry = fallback.and_then(|m| {
                            let t0 = profile::start(prof);
                            let res = decode_packet(
                                header,
                                &self.topo,
                                &self.spaces,
                                &m,
                                frame.src,
                                frame.attempt,
                            );
                            profile::stop(prof, Subsystem::Decode, t0);
                            res.ok()
                        });
                        match retry {
                            Some(decoded) => {
                                shared.decode.ok += 1;
                                shared.decode.fallback_ok += 1;
                                Self::ingest_decoded(&mut shared, ctx.now(), &decoded, prof);
                                ingested = Some(decoded.observations.len() as u16);
                                DecodeOutcome::Ok
                            }
                            None => {
                                shared.decode.bad_index += 1;
                                DecodeOutcome::BadIndex
                            }
                        }
                    }
                    Err(DecodeError::PathMismatch { .. }) => {
                        shared.decode.path_mismatch += 1;
                        DecodeOutcome::PathMismatch
                    }
                    Err(DecodeError::Coding(_)) => {
                        shared.decode.coding += 1;
                        DecodeOutcome::Coding
                    }
                    Err(DecodeError::CodingDisabled) => {
                        shared.decode.disabled += 1;
                        DecodeOutcome::Disabled
                    }
                    Err(DecodeError::HopCountOutOfRange { .. }) => {
                        shared.decode.bad_hop_count += 1;
                        DecodeOutcome::BadHopCount
                    }
                    // Unreachable here (the pre-check above already dropped
                    // out-of-range origins), but the decoder reports it for
                    // callers without that screen.
                    Err(DecodeError::OriginOutOfRange { .. }) => {
                        shared.decode.malformed += 1;
                        DecodeOutcome::Malformed
                    }
                }
            }
        };
        ctx.emit(Event::Decode(DecodeEvent {
            origin: header.origin.0,
            seq: header.seq,
            hops: u16::from(header.hops),
            outcome: decode_outcome,
        }));
        if let Some(observations) = ingested {
            let trace = data_trace_id(header.origin.0, header.seq);
            ctx.span(trace, SpanPhase::Ingest { observations });
        }
    }
}

impl Protocol for DophyNode {
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        let candidates: Vec<_> = ctx.neighbors().to_vec();
        let mut router = Router::new(ctx.node_id(), &candidates, self.cfg.router);
        router.on_init(ctx);
        self.router = Some(router);
        if ctx.node_id() == NodeId::SINK {
            ctx.set_timer(self.cfg.model_update.update_period, TIMER_MODEL_UPDATE);
        } else {
            let warm = self.cfg.warmup;
            ctx.set_timer(warm, TIMER_TRAFFIC);
            if let Some(churn) = self.cfg.churn {
                self.schedule_churn(ctx, churn.mean_up);
            }
            if let Some(plan) = &self.fault {
                if plan.crash_prone(ctx.node_id().0) {
                    let (up, _) = plan.crash_phase(ctx.node_id().0, 0);
                    ctx.set_timer(up, TIMER_FAULT);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId) {
        if timer == TIMER_CHURN {
            let churn = self.cfg.churn.expect("churn timer implies churn config");
            self.alive = !self.alive;
            ctx.set_radio(self.alive);
            if self.alive {
                // Reboot: fresh routing state and a new traffic schedule.
                self.router.as_mut().expect("initialised").restart(ctx);
                self.schedule_traffic(ctx);
                self.schedule_churn(ctx, churn.mean_up);
            } else {
                self.schedule_churn(ctx, churn.mean_down);
            }
            return;
        }
        if timer == TIMER_FAULT {
            // Injected crash schedule (handled before the alive gate, like
            // churn — it is what flips the gate).
            let plan = Arc::clone(self.fault.as_ref().expect("fault timer implies plan"));
            let me = ctx.node_id().0;
            if self.alive {
                self.alive = false;
                ctx.set_radio(false);
                let (_, down) = plan.crash_phase(me, self.crash_k);
                ctx.set_timer(down, TIMER_FAULT);
            } else {
                // Reboot: fresh routing state and a new traffic schedule.
                self.alive = true;
                ctx.set_radio(true);
                self.router.as_mut().expect("initialised").restart(ctx);
                self.schedule_traffic(ctx);
                self.crash_k += 1;
                let (up, _) = plan.crash_phase(me, self.crash_k);
                ctx.set_timer(up, TIMER_FAULT);
            }
            return;
        }
        if !self.alive {
            return; // dead nodes swallow their timers (rescheduled on reboot)
        }
        if self
            .router
            .as_mut()
            .expect("initialised")
            .on_timer(ctx, timer)
        {
            return;
        }
        match timer {
            TIMER_TRAFFIC => {
                self.generate_packet(ctx);
                self.schedule_traffic(ctx);
            }
            TIMER_MODEL_UPDATE => {
                let switched = {
                    let mut shared = self.shared.lock();
                    let hub = shared.hub;
                    let now = ctx.now();
                    shared.manager.refresh(now, &hub)
                };
                if let Some(epoch) = switched {
                    // A model refresh originates a dissemination
                    // lifecycle of its own (see `Event::trace_id`).
                    ctx.emit(Event::EpochSwitch(EpochSwitchEvent {
                        epoch: epoch as u64,
                    }));
                }
                ctx.set_timer(self.cfg.model_update.update_period, TIMER_MODEL_UPDATE);
            }
            other => panic!("unknown timer {other:?}"),
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame) {
        if !self.alive {
            return; // engine drops these too; belt and braces
        }
        if self
            .router
            .as_mut()
            .expect("initialised")
            .on_frame(ctx, frame)
        {
            return;
        }
        if let Some(msg) = frame.payload_as::<DataMsg>() {
            let mut msg = msg.clone();
            // Receive-time fault injection: the frame's wire bytes pass
            // through the plan, exactly as a radio would hand up a damaged
            // buffer. Structurally unparseable results destroy the frame
            // here; parseable corruption flows on to exercise the
            // downstream quarantine checks.
            if let Some(plan) = self.fault.clone() {
                let mut bytes = msg.header.to_bytes();
                if plan
                    .corrupt_frame(ctx.node_id().0, &mut bytes, DophyHeader::FIXED_WIRE_BYTES)
                    .is_some()
                {
                    // The corruption span carries the packet's *original*
                    // identity — the last trustworthy point in the
                    // lifecycle before the bytes were damaged.
                    let trace = data_trace_id(msg.header.origin.0, msg.header.seq);
                    ctx.span(trace, SpanPhase::Corrupt);
                    match DophyHeader::from_bytes(&bytes) {
                        Some(header) => msg.header = header,
                        None => {
                            self.shared.lock().corrupt_frame_drops += 1;
                            ctx.emit(Event::Drop(DropEvent {
                                node: ctx.node_id().0,
                                dst: None,
                                reason: DropReason::Corrupt,
                                trace: Some(trace),
                            }));
                            return;
                        }
                    }
                }
            }
            self.handle_data(ctx, frame, &msg);
        }
    }

    fn on_send_done(&mut self, ctx: &mut Ctx<'_>, done: &SendDone) {
        self.router
            .as_mut()
            .expect("initialised")
            .on_send_done(ctx, done);
    }
}

/// Builds a complete Dophy simulation: topology, loss processes, one
/// [`DophyNode`] per node, and the shared sink state, on a one-shard
/// [`Engine`].
pub fn build_simulation(
    sim: &SimConfig,
    dophy: &DophyConfig,
) -> (Engine<DophyNode>, Arc<Mutex<SinkState>>) {
    build_sharded_simulation(sim, dophy, 1)
}

/// [`build_simulation`] on `shards` spatial shards (0 and 1 both mean
/// one). See [`build_sharded_simulation_with_faults`] for the
/// preconditions.
pub fn build_sharded_simulation(
    sim: &SimConfig,
    dophy: &DophyConfig,
    shards: u16,
) -> (Engine<DophyNode>, Arc<Mutex<SinkState>>) {
    let (engine, shared, _) = build_sharded_simulation_with_faults(sim, dophy, None, shards);
    (engine, shared)
}

/// [`build_sharded_simulation`] plus an optional deterministic fault plan:
/// frame corruption at every receiver, crash/reboot windows on
/// crash-prone nodes, and dissemination faults against the model manager.
/// With `faults: None` the run performs no fault draws and is
/// bit-identical to [`build_sharded_simulation`]. The returned plan
/// exposes injection counters. Results are byte-identical across shard
/// and thread counts (see the `dophy_sim::shard` docs).
///
/// Frame-corruption faults are fully supported: corruption draws come
/// from per-receiver-node RNG streams (see [`FaultPlan::corrupt_frame`]),
/// and a node's frame-arrival order is shard- and thread-invariant, so a
/// corrupted run stays byte-identical at every shard count.
///
/// # Panics
///
/// With more than one shard, one config shape cannot keep the
/// cross-shard determinism contract and is refused up front —
/// **dissemination faster than the conservative window**: non-sink nodes
/// must activate new model epochs no earlier than one window after a
/// sink refresh, otherwise a same-window read of the model manager could
/// see the flood early on some shard interleavings. This requires
/// `max_propagation_delay / (max_depth + 1)` to exceed the window
/// `backoff_us/2 + frame_overhead_us` — true by orders of magnitude for
/// realistic configs. A lone shard has no cross-shard reads, so it runs
/// any config.
pub fn build_sharded_simulation_with_faults(
    sim: &SimConfig,
    dophy: &DophyConfig,
    faults: Option<&FaultConfig>,
    shards: u16,
) -> (
    Engine<DophyNode>,
    Arc<Mutex<SinkState>>,
    Option<Arc<FaultPlan>>,
) {
    let parts = assemble_simulation(sim, dophy, faults);
    if shards > 1 {
        let window_us = sim.mac.backoff_us / 2 + sim.mac.frame_overhead_us;
        let per_hop_us =
            dophy.model_update.max_propagation_delay.as_micros() / (parts.max_depth + 1);
        assert!(
            per_hop_us > window_us,
            "model dissemination per-hop delay ({per_hop_us}µs) must exceed the \
             conservative window ({window_us}µs) for shard-count-invariant epoch \
             activation; raise max_propagation_delay or run one shard"
        );
    }
    let engine = Engine::new(
        parts.topo,
        &parts.models,
        sim.mac,
        parts.hub,
        parts.protocols,
        shards,
    );
    (engine, parts.shared, parts.plan)
}

/// Everything the builder assembles before handing the parts to the
/// engine: topology, loss models, the shared sink state, the fault plan,
/// and one [`DophyNode`] per node.
struct SimParts {
    topo: Arc<Topology>,
    /// Largest finite hop distance to the sink.
    max_depth: u64,
    models: Vec<LossModel>,
    hub: RngHub,
    shared: Arc<Mutex<SinkState>>,
    plan: Option<Arc<FaultPlan>>,
    protocols: Vec<DophyNode>,
}

fn assemble_simulation(
    sim: &SimConfig,
    dophy: &DophyConfig,
    faults: Option<&FaultConfig>,
) -> SimParts {
    let hub = sim.hub();
    let topo = Arc::new(sim.topology());
    let models = sim.loss_models(&topo);
    let max_degree = (0..topo.node_count())
        .map(|i| topo.neighbors(NodeId::from_index(i)).len())
        .max()
        .unwrap_or(1)
        .max(1);
    let spaces = SymbolSpaces::new(
        max_degree,
        sim.mac.max_attempts,
        dophy.aggregation,
        dophy.refine,
    );
    let n = topo.node_count();
    let plan = faults.map(|cfg| Arc::new(FaultPlan::new(*cfg, &hub)));
    let depths = topo.hops_to_sink();
    let max_depth = depths
        .iter()
        .copied()
        .filter(|&d| d != usize::MAX)
        .max()
        .unwrap_or(0) as u64;
    let mut manager = ModelManager::new(spaces.clone(), dophy.model_update, depths);
    if let Some(dissem) = faults.and_then(|f| f.dissemination) {
        manager.set_dissemination_faults(dissem);
    }
    let shared = Arc::new(Mutex::new(SinkState {
        manager,
        infer: crate::infer::Inference::new(dophy.tracking),
        decode: DecodeStats::default(),
        overhead: OverheadStats::default(),
        sent_per_origin: vec![0; n],
        delivered_per_origin: vec![0; n],
        true_hops: HashMap::new(),
        record_true_hops: true,
        no_route_drops: 0,
        ttl_drops: 0,
        encode_disabled: 0,
        corrupt_frame_drops: 0,
        hub,
    }));
    let protocols: Vec<DophyNode> = (0..n)
        .map(|_| {
            DophyNode::with_faults(
                *dophy,
                Arc::clone(&topo),
                spaces.clone(),
                Arc::clone(&shared),
                plan.clone(),
            )
        })
        .collect();
    SimParts {
        topo,
        max_depth,
        models,
        hub,
        shared,
        plan,
        protocols,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dophy_sim::{LinkDynamics, MacConfig, Placement, RadioModel};

    fn small_sim() -> SimConfig {
        SimConfig {
            placement: Placement::Grid {
                side: 4,
                spacing: 14.0,
            },
            radio: RadioModel::default(),
            mac: MacConfig::default(),
            dynamics: LinkDynamics::Static,
            seed: 77,
        }
    }

    fn fast_dophy() -> DophyConfig {
        DophyConfig {
            traffic_period: SimDuration::from_secs(2),
            warmup: SimDuration::from_secs(30),
            ..DophyConfig::default()
        }
    }

    #[test]
    fn packets_flow_and_decode() {
        let (mut engine, shared) = build_simulation(&small_sim(), &fast_dophy());
        engine.start();
        engine.run_for(SimDuration::from_secs(600));
        let s = shared.lock();
        assert!(s.overhead.packets > 500, "packets {}", s.overhead.packets);
        // Dissemination transients legitimately disable coding on a small
        // fraction of packets (forwarders that haven't received the
        // packet's epoch yet).
        assert!(
            s.decode.success_ratio() > 0.95,
            "decode stats {:?}",
            s.decode
        );
        assert_eq!(
            s.decode.bad_index + s.decode.path_mismatch + s.decode.coding,
            0,
            "hard decode failures must not occur: {:?}",
            s.decode
        );
        assert!(s.total_delivery_ratio().unwrap() > 0.9);
        assert!(s.infer.in_band.covered_links() > 10);
    }

    #[test]
    fn sharded_full_stack_is_shard_invariant() {
        // The entire Dophy stack (routing, coding, sink decode, model
        // refreshes) must produce byte-identical results regardless of how
        // the sharded engine partitions the nodes or how many threads
        // drive it.
        let fingerprint = |shards: u16, threads: usize| -> String {
            let (mut engine, shared, _) =
                build_sharded_simulation_with_faults(&small_sim(), &fast_dophy(), None, shards);
            engine.set_threads(threads);
            engine.start();
            engine.run_for(SimDuration::from_secs(300));
            let s = shared.lock();
            format!(
                "now={:?} events={} overhead={:?} decode={:?} sent={:?} delivered={:?} \
                 drops=({},{},{},{}) refreshes={} links={:?}",
                engine.now(),
                engine.events_processed(),
                s.overhead,
                s.decode,
                s.sent_per_origin,
                s.delivered_per_origin,
                s.no_route_drops,
                s.ttl_drops,
                s.encode_disabled,
                s.corrupt_frame_drops,
                s.manager.refreshes,
                engine.trace().snapshot_links(),
            )
        };
        let baseline = fingerprint(1, 1);
        for (shards, threads) in [(2, 1), (4, 2), (7, 3)] {
            assert_eq!(
                baseline,
                fingerprint(shards, threads),
                "shards={shards} threads={threads} diverged from shards=1"
            );
        }
        // And the run did real work: the sink decoded packets.
        assert!(baseline.contains("events="));
    }

    #[test]
    fn decoded_paths_match_ground_truth() {
        // Re-decode the delivered packets offline and compare to the logged
        // true hops: paths and attempts must agree exactly (refine=true).
        let cfg = DophyConfig {
            refine: true,
            ..fast_dophy()
        };
        let (mut engine, shared) = build_simulation(&small_sim(), &cfg);
        engine.start();
        engine.run_for(SimDuration::from_secs(300));
        let s = shared.lock();
        assert_eq!(
            s.decode.bad_index + s.decode.path_mismatch + s.decode.coding,
            0,
            "no decode failures in a static network: {:?}",
            s.decode
        );
        assert!(s.decode.ok > 100);
    }

    #[test]
    fn estimator_tracks_true_loss() {
        let (mut engine, shared) = build_simulation(
            &SimConfig {
                placement: Placement::Grid {
                    side: 4,
                    spacing: 16.0,
                },
                ..small_sim()
            },
            &DophyConfig {
                traffic_period: SimDuration::from_secs(1),
                warmup: SimDuration::from_secs(30),
                ..DophyConfig::default()
            },
        );
        engine.start();
        engine.run_for(SimDuration::from_secs(1200));
        let s = shared.lock();
        let r = engine.topology().links().to_vec();
        let estimates = s.infer.in_band.estimates(7, 30);
        assert!(!estimates.is_empty());
        let mut errs = Vec::new();
        for ((src, dst), est) in &estimates {
            let link = engine
                .topology()
                .link_id(NodeId(*src), NodeId(*dst))
                .expect("estimated link exists");
            let truth = engine.trace().links()[link]
                .empirical_prr()
                .expect("estimated link carried traffic");
            errs.push((est.p_success - truth).abs());
            let _ = &r;
        }
        let mae = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mae < 0.08, "estimator MAE vs truth {mae}");
    }

    #[test]
    fn model_updates_happen_and_cost_bytes() {
        let cfg = DophyConfig {
            traffic_period: SimDuration::from_secs(1),
            warmup: SimDuration::from_secs(20),
            model_update: ModelUpdateConfig {
                update_period: SimDuration::from_secs(60),
                min_observations: 50,
                ..ModelUpdateConfig::default()
            },
            ..DophyConfig::default()
        };
        let (mut engine, shared) = build_simulation(&small_sim(), &cfg);
        engine.start();
        engine.run_for(SimDuration::from_secs(600));
        let s = shared.lock();
        assert!(
            s.manager.refreshes >= 2,
            "refreshes {}",
            s.manager.refreshes
        );
        assert!(s.manager.dissemination_bytes > 0);
        // Updated models must still decode (epoch machinery consistent);
        // only dissemination transients may disable coding.
        assert!(s.decode.success_ratio() > 0.93, "{:?}", s.decode);
        assert_eq!(
            s.decode.bad_index + s.decode.path_mismatch,
            0,
            "{:?}",
            s.decode
        );
    }

    #[test]
    fn overhead_grows_with_hops() {
        let (mut engine, shared) = build_simulation(
            &SimConfig {
                placement: Placement::Line {
                    n: 6,
                    spacing: 22.0,
                },
                ..small_sim()
            },
            &fast_dophy(),
        );
        engine.start();
        engine.run_for(SimDuration::from_secs(900));
        let s = shared.lock();
        let by_hops = &s.overhead.stream_by_hops;
        // Mean stream bytes must be non-decreasing in path length (among
        // well-populated rows).
        let means: Vec<(usize, f64)> = by_hops
            .iter()
            .enumerate()
            .filter(|(_, st)| st.count() > 20)
            .map(|(h, st)| (h, st.mean()))
            .collect();
        assert!(means.len() >= 2, "need multiple path lengths: {means:?}");
        for w in means.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 0.5,
                "stream bytes should grow with hops: {means:?}"
            );
        }
    }

    #[test]
    fn deterministic_end_to_end() {
        let run = || {
            let (mut engine, shared) = build_simulation(&small_sim(), &fast_dophy());
            engine.start();
            engine.run_for(SimDuration::from_secs(200));
            let s = shared.lock();
            (
                s.overhead.packets,
                s.overhead.stream_bytes,
                s.decode.ok,
                s.sent_per_origin.clone(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn dedup_suppresses_duplicates() {
        let mut d = DedupSet::new(3);
        assert!(d.insert((1, 1)));
        assert!(!d.insert((1, 1)));
        assert!(d.insert((1, 2)));
        assert!(d.insert((1, 3)));
        // Evicts (1,1).
        assert!(d.insert((1, 4)));
        assert!(d.insert((1, 1)), "evicted key is fresh again");
    }
}
