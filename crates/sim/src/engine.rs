//! The protocol-facing surface of the simulation engine.
//!
//! The engine itself is [`Engine`] (defined in [`crate::shard`] and
//! re-exported here). It owns the topology, one loss process per
//! directed link, a MAC state machine per node, the ground-truth
//! [`Trace`](crate::trace::Trace), and one protocol instance per node.
//! Protocols are generic (`Engine<P: Protocol>`): an experiment
//! instantiates every node with its protocol object (which may capture
//! `Arc` handles to shared experiment state, standing in for the sink's
//! control plane). This module holds what a protocol sees: the
//! [`Protocol`] callbacks and the [`Ctx`] they receive.
//!
//! ## ARQ modelling
//!
//! A unicast send runs the full stop-and-wait ARQ exchange *inline* at
//! dequeue time: each attempt's backoff, airtime, loss draw, and ACK draw
//! are sampled immediately and the resulting deliveries and send
//! completion are scheduled at their proper future times. This produces
//! statistics identical to per-attempt event dispatch at a fraction of
//! the event-queue traffic. Every *successful* attempt delivers a frame
//! copy (tagged with its attempt number), so ACK loss yields realistic
//! duplicates that receivers must suppress — the first copy's attempt
//! number is the geometric sample Dophy's estimator consumes.

use crate::mac::MacConfig;
use crate::obs::{Event, Observer, SpanEvent, SpanPhase};
use crate::packet::{Frame, Payload, SendDone, SendToken, TimerId};
use crate::profile::Profiler;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, Topology};
use rand::rngs::SmallRng;
use std::collections::VecDeque;

pub use crate::shard::Engine;

/// Wire size of a link-layer ACK (802.15.4 imm-ack is 11 bytes with
/// preamble).
pub(crate) const ACK_BYTES: usize = 11;

/// Per-node protocol logic driven by engine callbacks.
///
/// All callbacks receive a [`Ctx`] through which the protocol reads its
/// environment and issues commands (sends, timers). Commands take effect
/// after the callback returns.
pub trait Protocol: 'static {
    /// Called once at simulation start (node id order).
    fn on_init(&mut self, ctx: &mut Ctx<'_>);
    /// A timer set via [`Ctx::set_timer`] expired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId);
    /// A frame copy was received.
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame);
    /// A unicast send completed (or was dropped).
    fn on_send_done(&mut self, _ctx: &mut Ctx<'_>, _done: &SendDone) {}
}

/// Command buffer entry produced by protocol callbacks, drained by the
/// engine after each callback returns.
pub(crate) enum Command {
    Unicast {
        dst: NodeId,
        token: SendToken,
        payload: Payload,
        bytes: usize,
        trace: Option<u64>,
    },
    Broadcast {
        payload: Payload,
        bytes: usize,
        trace: Option<u64>,
    },
    Timer {
        delay: SimDuration,
        timer: TimerId,
    },
    SetRadio {
        on: bool,
    },
}

/// Protocol-side view of the node and its environment.
///
/// Fields are crate-visible so the engine can construct the callback
/// context; protocols only ever see the public methods.
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) topo: &'a Topology,
    pub(crate) mac: &'a MacConfig,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) commands: &'a mut Vec<Command>,
    pub(crate) next_token: &'a mut u64,
    pub(crate) observer: Option<&'a dyn Observer>,
    pub(crate) profiler: Option<&'a Profiler>,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The static topology (candidate neighbor sets).
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// Out-neighbors of this node, best base PRR first.
    pub fn neighbors(&self) -> &[NodeId] {
        self.topo.neighbors(self.node)
    }

    /// MAC configuration (retry budget, timing).
    pub fn mac(&self) -> &MacConfig {
        self.mac
    }

    /// This node's protocol random stream.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Reports a protocol-level event (parent change, epoch switch, decode
    /// outcome) to the engine's observer at the current time, alongside
    /// the engine's MAC-level events. Without an observer this is one
    /// untaken branch: inlined, the event is built only inside it.
    #[inline]
    pub fn emit(&self, ev: Event) {
        if let Some(observer) = self.observer {
            observer.on_event(self.now, &ev);
        }
    }

    /// Reports a lifecycle span of `trace_id` at this node (see
    /// [`Ctx::emit`]).
    #[inline]
    pub fn span(&self, trace_id: u64, phase: SpanPhase) {
        self.emit(Event::Span(SpanEvent {
            trace_id,
            node: self.node.0,
            phase,
        }));
    }

    /// Queues a unicast frame to `dst`. `wire_bytes` must be the full
    /// on-air frame size (used for airtime and overhead accounting).
    /// Returns the token echoed in the matching `SendDone`.
    pub fn send_unicast(&mut self, dst: NodeId, payload: Payload, wire_bytes: usize) -> SendToken {
        self.unicast(dst, payload, wire_bytes, None)
    }

    /// Like [`Ctx::send_unicast`], but tags the frame with a causal
    /// lifecycle trace id: the engine emits [`SpanPhase::Tx`]/
    /// [`SpanPhase::Deliver`]/[`SpanPhase::Drop`] spans for it when an
    /// observer is installed. Trace ids must be deterministic (derived
    /// from protocol state, never RNG) so tracing cannot perturb a run.
    pub fn send_unicast_traced(
        &mut self,
        dst: NodeId,
        payload: Payload,
        wire_bytes: usize,
        trace_id: u64,
    ) -> SendToken {
        self.unicast(dst, payload, wire_bytes, Some(trace_id))
    }

    fn unicast(
        &mut self,
        dst: NodeId,
        payload: Payload,
        bytes: usize,
        trace: Option<u64>,
    ) -> SendToken {
        let token = SendToken(*self.next_token);
        *self.next_token += 1;
        self.commands.push(Command::Unicast {
            dst,
            token,
            payload,
            bytes,
            trace,
        });
        token
    }

    /// Queues a link-layer broadcast (single attempt, no ACK).
    pub fn send_broadcast(&mut self, payload: Payload, wire_bytes: usize) {
        self.commands.push(Command::Broadcast {
            payload,
            bytes: wire_bytes,
            trace: None,
        });
    }

    /// Like [`Ctx::send_broadcast`], but tags the frame with a causal
    /// lifecycle trace id (see [`Ctx::send_unicast_traced`]).
    pub fn send_broadcast_traced(&mut self, payload: Payload, wire_bytes: usize, trace_id: u64) {
        self.commands.push(Command::Broadcast {
            payload,
            bytes: wire_bytes,
            trace: Some(trace_id),
        });
    }

    /// Schedules `timer` to fire after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, timer: TimerId) {
        self.commands.push(Command::Timer { delay, timer });
    }

    /// Turns this node's radio on or off (takes effect after the callback,
    /// like all commands). While off, the node receives nothing — frames
    /// addressed to it go unanswered (no ACKs) — and anything it tries to
    /// send is dropped at the MAC. Models node failure/sleep.
    pub fn set_radio(&mut self, on: bool) {
        self.commands.push(Command::SetRadio { on });
    }
}

impl<'a> Ctx<'a> {
    /// The engine's self-profiler, if one is installed — lets protocol
    /// layers bracket their own hot regions (decode, estimator update)
    /// with [`crate::profile::start`]/[`crate::profile::stop`]. The
    /// returned borrow outlives the callback's `&mut Ctx` uses.
    pub fn profiler(&self) -> Option<&'a Profiler> {
        self.profiler
    }
}

pub(crate) struct QueuedTx {
    /// `None` = broadcast.
    pub(crate) dst: Option<NodeId>,
    pub(crate) token: SendToken,
    pub(crate) payload: Payload,
    pub(crate) bytes: usize,
    pub(crate) trace: Option<u64>,
}

pub(crate) struct MacState {
    pub(crate) busy: bool,
    pub(crate) queue: VecDeque<QueuedTx>,
}
