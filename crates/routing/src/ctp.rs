//! CTP-style collection routing: dynamic parent selection over ETX.
//!
//! [`Router`] is an *embeddable* component, not a full
//! [`dophy_sim::Protocol`]: the application protocol (Dophy, or the plain
//! collection app used for baselines) owns a `Router` and forwards the
//! relevant engine callbacks to it. This mirrors the TinyOS decomposition
//! where CTP's routing engine and the application share the node.
//!
//! The router:
//!
//! * broadcasts beacons `(seq, advertised ETX)` paced by a Trickle timer;
//! * estimates link ETX from beacon gaps and data-plane ARQ outcomes;
//! * selects as parent the neighbor minimising `link ETX + advertised ETX`,
//!   with switch hysteresis to prevent parent flapping;
//! * resets its Trickle timer on parent changes so the network reacts
//!   quickly — exactly the *dynamic forwarding-node selection* that breaks
//!   static-tree tomography and motivates Dophy.
//!
//! Transient routing loops are possible, as in real distance-vector
//! collection; the data plane guards with a TTL (see the `dophy` crate).

use crate::beacon::{Trickle, TrickleConfig};
use crate::table::{EstimatorConfig, NeighborTable};
use dophy_sim::obs::{beacon_trace_id, Event, ParentChangeEvent, SpanPhase};
use dophy_sim::{Ctx, Frame, NodeId, SendDone, SimTime, TimerId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Timer-id namespace reserved by the router. Applications embedding a
/// router must keep their own timer ids below this value.
pub const ROUTER_TIMER_BASE: u32 = 0x8000_0000;

/// Routing beacon payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeaconMsg {
    /// Per-origin beacon sequence number (gaps ⇒ losses).
    pub seq: u32,
    /// Sender's advertised path ETX to the sink (0 at the sink).
    pub etx_to_sink: f64,
}

/// Wire size of a beacon frame: 11B MAC header + 2B origin + 4B seq +
/// 2B quantized ETX.
pub const BEACON_WIRE_BYTES: usize = 19;

/// Router tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Link-estimator parameters.
    pub estimator: EstimatorConfig,
    /// Beacon pacing.
    pub trickle: TrickleConfig,
    /// A new parent must beat the current one by this much path ETX
    /// (CTP's PARENT_SWITCH_THRESHOLD).
    pub switch_hysteresis_etx: f64,
    /// Neighbors silent for longer than this are treated as gone (must
    /// exceed the Trickle maximum interval or healthy-but-quiet neighbors
    /// get evicted).
    pub neighbor_timeout: dophy_sim::SimDuration,
}

impl std::hash::Hash for RouterConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::hash::Hash::hash(&self.estimator, state);
        std::hash::Hash::hash(&self.trickle, state);
        state.write_u64(self.switch_hysteresis_etx.to_bits());
        state.write_u64(self.neighbor_timeout.as_micros());
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            estimator: EstimatorConfig::default(),
            trickle: TrickleConfig::default(),
            switch_hysteresis_etx: 1.5,
            neighbor_timeout: dophy_sim::SimDuration::from_secs(300),
        }
    }
}

/// Counters exposed for the dynamics experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterStats {
    /// Times the parent changed (first adoption excluded).
    pub parent_changes: u64,
    /// Beacons transmitted.
    pub beacons_sent: u64,
    /// Beacons received.
    pub beacons_heard: u64,
}

/// Embeddable collection-routing engine for one node.
#[derive(Debug, Clone)]
pub struct Router {
    node: NodeId,
    is_sink: bool,
    cfg: RouterConfig,
    table: NeighborTable,
    trickle: Trickle,
    parent: Option<NodeId>,
    parent_etx: f64,
    beacon_seq: u32,
    /// Generation guard: a Trickle reset schedules a fresh timer and stale
    /// ones are ignored by comparing the generation embedded in the id.
    timer_gen: u32,
    stats: RouterStats,
    /// Parent-change log `(time, new_parent)` for churn metrics.
    parent_log: Vec<(SimTime, NodeId)>,
}

impl Router {
    /// Creates a router for `node` with the given forwarding candidates
    /// (normally `ctx.neighbors()`). The sink's router advertises ETX 0 and
    /// never selects a parent.
    pub fn new(node: NodeId, candidates: &[NodeId], cfg: RouterConfig) -> Self {
        let is_sink = node == NodeId::SINK;
        Self {
            node,
            is_sink,
            table: NeighborTable::new(candidates),
            trickle: Trickle::new(cfg.trickle),
            cfg,
            parent: None,
            parent_etx: f64::INFINITY,
            beacon_seq: 0,
            timer_gen: 0,
            stats: RouterStats::default(),
            parent_log: Vec::new(),
        }
    }

    /// The node this router belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current next hop toward the sink (None at the sink or before any
    /// route forms).
    pub fn next_hop(&self) -> Option<NodeId> {
        self.parent
    }

    /// This node's path ETX to the sink (0 at the sink, ∞ with no route).
    pub fn own_etx(&self) -> f64 {
        if self.is_sink {
            0.0
        } else {
            self.parent_etx
        }
    }

    /// Router statistics.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Parent-change history `(time, new_parent)`.
    pub fn parent_log(&self) -> &[(SimTime, NodeId)] {
        &self.parent_log
    }

    /// Parent snapshot: the parent in effect at `t` (the last adoption at
    /// or before `t`), `None` before the first route formed. Binary search
    /// over the append-only change log, so window-based tomography can
    /// attribute any past window against the routing state that actually
    /// carried it. At `t = now` this equals [`Self::next_hop`].
    pub fn parent_as_of(&self, t: SimTime) -> Option<NodeId> {
        let idx = self.parent_log.partition_point(|&(at, _)| at <= t);
        idx.checked_sub(1).map(|i| self.parent_log[i].1)
    }

    /// The neighbor table (read access for diagnostics and Dophy's
    /// forwarding-index lookups).
    pub fn table(&self) -> &NeighborTable {
        &self.table
    }

    /// Call from the protocol's `on_init`.
    pub fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        self.schedule_beacon(ctx);
    }

    /// Restarts beaconing after a period of suppression (e.g. the node was
    /// powered down and swallowed its pending Trickle timer). Resets the
    /// Trickle interval and drops the current route so it is re-learned
    /// from fresh advertisements.
    pub fn restart(&mut self, ctx: &mut Ctx<'_>) {
        self.trickle.reset();
        self.parent = None;
        self.parent_etx = f64::INFINITY;
        self.timer_gen = self.timer_gen.wrapping_add(1);
        self.schedule_beacon(ctx);
    }

    /// Call from the protocol's `on_timer`; returns true if the timer
    /// belonged to the router.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId) -> bool {
        if timer.0 < ROUTER_TIMER_BASE {
            return false;
        }
        let gen = timer.0 - ROUTER_TIMER_BASE;
        if gen != self.timer_gen {
            return true; // stale pre-reset timer: swallow silently
        }
        self.send_beacon(ctx);
        self.schedule_beacon(ctx);
        true
    }

    /// Call from the protocol's `on_frame`; returns true if the frame was a
    /// routing beacon (consumed).
    pub fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame) -> bool {
        let Some(b) = frame.payload_as::<BeaconMsg>() else {
            return false;
        };
        self.stats.beacons_heard += 1;
        if let Some(e) = self.table.get_mut(frame.src) {
            e.record_beacon(b.seq, b.etx_to_sink, frame.rx_time);
        }
        self.reconsider(ctx);
        true
    }

    /// Call from the protocol's `on_send_done` for data frames sent via
    /// [`next_hop`](Self::next_hop); feeds the data-driven estimator.
    pub fn on_send_done(&mut self, ctx: &mut Ctx<'_>, done: &SendDone) {
        if done.was_dropped() {
            return;
        }
        if let Some(e) = self.table.get_mut(done.dst) {
            e.record_data(done.attempts, done.acked, &self.cfg.estimator);
        }
        self.reconsider(ctx);
    }

    fn send_beacon(&mut self, ctx: &mut Ctx<'_>) {
        self.beacon_seq += 1;
        let msg = BeaconMsg {
            seq: self.beacon_seq,
            etx_to_sink: self.own_etx(),
        };
        let trace = beacon_trace_id(self.node.0, u64::from(self.beacon_seq));
        ctx.span(trace, SpanPhase::Origin);
        ctx.send_broadcast_traced(Arc::new(msg), BEACON_WIRE_BYTES, trace);
        self.stats.beacons_sent += 1;
    }

    fn schedule_beacon(&mut self, ctx: &mut Ctx<'_>) {
        let delay = self.trickle.next_delay(ctx.rng());
        ctx.set_timer(delay, TimerId(ROUTER_TIMER_BASE + self.timer_gen));
    }

    /// Re-runs parent selection; resets Trickle on a change.
    fn reconsider(&mut self, ctx: &mut Ctx<'_>) {
        if self.is_sink {
            return;
        }
        let Some((best, best_etx)) =
            self.table
                .best(&self.cfg.estimator, ctx.now(), self.cfg.neighbor_timeout)
        else {
            // No live candidate: drop the route entirely.
            self.parent = None;
            self.parent_etx = f64::INFINITY;
            return;
        };
        // A silent (timed-out) current parent is abandoned unconditionally.
        let parent_alive = self
            .parent
            .and_then(|cur| self.table.get(cur))
            .is_some_and(|e| {
                e.last_heard
                    .is_some_and(|t| ctx.now().since(t.min(ctx.now())) <= self.cfg.neighbor_timeout)
            });
        match self.parent {
            Some(cur) if cur == best && parent_alive => {
                // Refresh the metric through the current parent.
                self.parent_etx = best_etx;
            }
            Some(cur) if parent_alive => {
                let cur_etx = self
                    .table
                    .get(cur)
                    .map(|e| e.path_etx(&self.cfg.estimator))
                    .unwrap_or(f64::INFINITY);
                self.parent_etx = cur_etx;
                if best_etx + self.cfg.switch_hysteresis_etx < cur_etx {
                    self.adopt(ctx, best, best_etx);
                }
            }
            _ => self.adopt(ctx, best, best_etx),
        }
    }

    fn adopt(&mut self, ctx: &mut Ctx<'_>, parent: NodeId, etx: f64) {
        let had_parent = self.parent.is_some();
        ctx.emit(Event::ParentChange(ParentChangeEvent {
            node: ctx.node_id().0,
            old_parent: self.parent.map(|p| p.0),
            new_parent: parent.0,
            etx,
        }));
        self.parent = Some(parent);
        self.parent_etx = etx;
        self.parent_log.push((ctx.now(), parent));
        if had_parent {
            self.stats.parent_changes += 1;
        }
        // Fast convergence after a change: shrink the beacon interval and
        // restart the timer under a fresh generation.
        if self.trickle.reset() || !had_parent {
            self.timer_gen = self.timer_gen.wrapping_add(1);
            let delay = self.trickle.next_delay(ctx.rng());
            ctx.set_timer(delay, TimerId(ROUTER_TIMER_BASE + self.timer_gen));
        }
    }
}

/// A self-contained protocol that runs *only* the router (plus optional
/// periodic test traffic). Used by routing's own integration tests and by
/// experiments that need a tree without an application.
pub struct RoutingOnlyNode {
    router: Option<Router>,
    cfg: RouterConfig,
}

impl RoutingOnlyNode {
    /// New routing-only node.
    pub fn new(cfg: RouterConfig) -> Self {
        Self { router: None, cfg }
    }

    /// The embedded router, once initialised.
    ///
    /// # Panics
    /// Panics before `on_init` ran.
    pub fn router(&self) -> &Router {
        self.router.as_ref().expect("initialised")
    }
}

impl dophy_sim::Protocol for RoutingOnlyNode {
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        let candidates: Vec<_> = ctx.neighbors().to_vec();
        let mut r = Router::new(ctx.node_id(), &candidates, self.cfg);
        r.on_init(ctx);
        self.router = Some(r);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId) {
        self.router
            .as_mut()
            .expect("initialised")
            .on_timer(ctx, timer);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame) {
        self.router
            .as_mut()
            .expect("initialised")
            .on_frame(ctx, frame);
    }

    fn on_send_done(&mut self, ctx: &mut Ctx<'_>, done: &SendDone) {
        self.router
            .as_mut()
            .expect("initialised")
            .on_send_done(ctx, done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dophy_sim::{
        Engine, LinkDynamics, MacConfig, Placement, RadioModel, SimConfig, SimDuration,
    };
    use std::sync::Arc as StdArc;

    fn run_routing(cfg: SimConfig, secs: u64) -> Engine<RoutingOnlyNode> {
        let topo = StdArc::new(cfg.topology());
        let models = cfg.loss_models(&topo);
        let protos = (0..topo.node_count())
            .map(|_| RoutingOnlyNode::new(RouterConfig::default()))
            .collect();
        let mut e = Engine::new(topo, &models, cfg.mac, cfg.hub(), protos, 1);
        e.start();
        e.run_for(SimDuration::from_secs(secs));
        e
    }

    #[test]
    fn tree_forms_on_grid() {
        let cfg = SimConfig {
            placement: Placement::Grid {
                side: 5,
                spacing: 15.0,
            },
            radio: RadioModel::default(),
            mac: MacConfig::default(),
            dynamics: LinkDynamics::Static,
            seed: 21,
        };
        let e = run_routing(cfg, 300);
        let n = e.topology().node_count();
        // Every non-sink node must have a parent.
        for i in 1..n {
            let r = e.protocol(NodeId(i as u32)).router();
            assert!(r.next_hop().is_some(), "node {i} has no parent");
            assert!(r.own_etx().is_finite(), "node {i} has no route metric");
        }
        // Following parents from every node must reach the sink (no loops
        // in the converged state).
        for i in 1..n {
            let mut cur = NodeId(i as u32);
            let mut hops = 0;
            while cur != NodeId::SINK {
                cur = e.protocol(cur).router().next_hop().expect("routed");
                hops += 1;
                assert!(hops <= n, "routing loop from node {i}");
            }
        }
    }

    #[test]
    fn sink_advertises_zero_and_has_no_parent() {
        let cfg = SimConfig {
            placement: Placement::Line {
                n: 3,
                spacing: 10.0,
            },
            radio: RadioModel::default(),
            mac: MacConfig::default(),
            dynamics: LinkDynamics::Static,
            seed: 5,
        };
        let e = run_routing(cfg, 60);
        let sink = e.protocol(NodeId::SINK).router();
        assert_eq!(sink.next_hop(), None);
        assert_eq!(sink.own_etx(), 0.0);
        assert!(sink.stats().beacons_sent > 0);
    }

    #[test]
    fn etx_grows_with_depth_on_a_line() {
        let cfg = SimConfig {
            placement: Placement::Line {
                n: 5,
                spacing: 25.0,
            },
            radio: RadioModel::default(),
            mac: MacConfig::default(),
            dynamics: LinkDynamics::Static,
            seed: 8,
        };
        let e = run_routing(cfg, 300);
        let etx: Vec<f64> = (0..5)
            .map(|i| e.protocol(NodeId(i)).router().own_etx())
            .collect();
        assert_eq!(etx[0], 0.0);
        for i in 1..5 {
            assert!(
                etx[i] > etx[i - 1] - 0.5,
                "ETX should broadly grow with depth: {etx:?}"
            );
        }
        assert!(etx[4] >= 3.0, "far node must be several ETX out: {etx:?}");
    }

    #[test]
    fn beacons_fire_and_are_heard() {
        let cfg = SimConfig {
            placement: Placement::Grid {
                side: 3,
                spacing: 12.0,
            },
            radio: RadioModel::default(),
            mac: MacConfig::default(),
            dynamics: LinkDynamics::Static,
            seed: 99,
        };
        let e = run_routing(cfg, 120);
        let total_sent: u64 = (0..9)
            .map(|i| e.protocol(NodeId(i)).router().stats().beacons_sent)
            .sum();
        let total_heard: u64 = (0..9)
            .map(|i| e.protocol(NodeId(i)).router().stats().beacons_heard)
            .sum();
        assert!(total_sent >= 9, "each node should beacon at least once");
        assert!(
            total_heard > total_sent,
            "dense grid: multiple hearers per beacon"
        );
    }

    #[test]
    fn volatile_links_cause_parent_churn() {
        let churn = |e: &Engine<RoutingOnlyNode>| -> u64 {
            (1..e.topology().node_count())
                .map(|i| e.protocol(NodeId(i as u32)).router().stats().parent_changes)
                .sum()
        };
        // A single seed can land within noise of the static baseline, so
        // aggregate the churn counts over several seeds before comparing.
        let (mut cs, mut cv) = (0u64, 0u64);
        for seed in 13..16 {
            let base = SimConfig {
                placement: Placement::UniformDisk {
                    n: 40,
                    radius: 70.0,
                },
                radio: RadioModel::default(),
                mac: MacConfig::default(),
                dynamics: LinkDynamics::Static,
                seed,
            };
            cs += churn(&run_routing(base, 600));
            cv += churn(&run_routing(
                SimConfig {
                    dynamics: LinkDynamics::Volatile {
                        sigma_per_sqrt_s: 0.08,
                    },
                    ..base
                },
                600,
            ));
        }
        assert!(
            cv > cs,
            "volatile links must cause more parent changes: stable {cs} vs volatile {cv}"
        );
    }

    #[test]
    fn deterministic_replay() {
        let cfg = SimConfig {
            placement: Placement::Grid {
                side: 4,
                spacing: 14.0,
            },
            radio: RadioModel::default(),
            mac: MacConfig::default(),
            dynamics: LinkDynamics::Drift {
                amp: 0.2,
                period_s: 60.0,
            },
            seed: 4242,
        };
        let snapshot = |e: &Engine<RoutingOnlyNode>| -> Vec<(Option<NodeId>, u64)> {
            (0..e.topology().node_count())
                .map(|i| {
                    let r = e.protocol(NodeId(i as u32)).router();
                    (r.next_hop(), r.stats().beacons_sent)
                })
                .collect()
        };
        let a = run_routing(cfg, 200);
        let b = run_routing(cfg, 200);
        assert_eq!(snapshot(&a), snapshot(&b));
    }

    #[test]
    fn parent_as_of_replays_the_change_log() {
        let cfg = SimConfig {
            placement: Placement::Grid {
                side: 4,
                spacing: 14.0,
            },
            radio: RadioModel::default(),
            mac: MacConfig::default(),
            dynamics: LinkDynamics::Drift {
                amp: 0.3,
                period_s: 40.0,
            },
            seed: 99,
        };
        let e = run_routing(cfg, 300);
        let mut changes = 0usize;
        for i in 0..e.topology().node_count() {
            let r = e.protocol(NodeId(i as u32)).router();
            let log = r.parent_log();
            // The live view and the snapshot at `now` must agree.
            assert_eq!(r.parent_as_of(e.now()), r.next_hop(), "node {i}");
            if log.is_empty() {
                continue;
            }
            // Before the first adoption there was no route.
            let first = log[0].0;
            assert_eq!(
                r.parent_as_of(SimTime::from_micros(first.as_micros() - 1)),
                None
            );
            // At (and just after) each adoption instant the snapshot is
            // that entry's parent.
            for w in log.windows(2) {
                let (at, parent) = w[0];
                let next_at = w[1].0;
                if next_at == at {
                    // Two adoptions in the same microsecond: the later
                    // one wins every query at that instant.
                    continue;
                }
                assert_eq!(r.parent_as_of(at), Some(parent));
                assert_eq!(
                    r.parent_as_of(SimTime::from_micros(next_at.as_micros() - 1)),
                    Some(parent)
                );
                changes += 1;
            }
        }
        assert!(changes > 0, "drift regime produced no parent changes");
    }
}
