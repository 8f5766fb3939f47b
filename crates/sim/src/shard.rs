//! The simulation engine: spatial shards advanced in conservative time
//! windows.
//!
//! [`Engine`] partitions the node set into contiguous spatial stripes
//! (sorted by x coordinate) and gives every shard its own calendar ring,
//! MAC states, protocol instances, RNG streams, and ground-truth trace. A
//! run that names no shard count is the one-shard case. Shards advance in
//! lock-step through **conservative time windows** of width
//! `W = backoff_us/2 + frame_overhead_us`: the minimum latency of any
//! cross-node event. Every frame delivery is scheduled at least one
//! backoff-plus-airtime after its send, so an event executed inside the
//! window `[T, T+W)` can only schedule cross-shard work at `≥ T+W` — past
//! the window's end. Within a window each shard therefore runs completely
//! independently (and in parallel); at each window boundary shards
//! exchange cross-shard deliveries through mailbox queues and republish
//! the radio states that changed. A lone shard has no one to exchange
//! with, so it only republishes its radios.
//!
//! ## Determinism contract
//!
//! A run is **byte-identical for every shard count and thread count** at
//! the same seed:
//!
//! * Every event carries a key `(origin_node << 32) | per-origin-seq`,
//!   and queues pop in global `(time, key)` order, so the interleaving of
//!   same-instant events never depends on which shard produced them.
//! * All RNG streams are owned by exactly one shard: protocol and backoff
//!   streams by the node's shard, data/ACK link streams by the shard of
//!   the link's *source* (all transmit-side draws happen there).
//! * Transmit-side radio checks read a window-boundary snapshot of every
//!   node's radio state, not the live value: a sender sees a receiver
//!   power down or up only from the first window that starts after the
//!   change. This rule governs every run, one shard included, so a sender
//!   observes remote receivers exactly as it would observe local ones.
//!   Receive-side checks (is the destination still on when a copy lands)
//!   read the live value; the destination's own shard owns it.
//! * Observer events arrive in global dispatch order: a lone shard passes
//!   them straight to the observer as events run. With several shards,
//!   each shard buffers its events with their dispatch context and the
//!   engine replays the merged stream after each run call (see
//!   `ShardObserver::set_ctx` for the one ordering subtlety).
//!
//! ## Broadcast batches
//!
//! A broadcast's copies for one shard's receivers ride a single queue
//! event instead of one event per copy, which keeps the calendar ring's
//! buckets (whose capacity never shrinks) small. The batch still delivers
//! in exactly the order separate events would pop: each copy keeps its
//! own key, and before each copy after the first the batch yields to any
//! same-instant event an earlier copy's handler scheduled under a smaller
//! key (see `Shard::deliver_batch`). Cross-shard copies travel one
//! event each through the destination's mailbox.

use crate::engine::{Command, Ctx, MacState, Protocol, QueuedTx, ACK_BYTES};
use crate::event::EventQueue;
use crate::link::{LossModel, LossProcess};
use crate::mac::MacConfig;
use crate::obs::{
    AckEvent, DropEvent, DropReason, Event, Observer, RxEvent, SpanEvent, SpanPhase, TimerEvent,
    TxEvent,
};
use crate::packet::{Frame, Payload, SendDone, SendToken, TimerId};
use crate::profile::{self, Profiler, Subsystem};
use crate::rng::{RngHub, StreamKind};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, Topology};
use crate::trace::Trace;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One event in a shard's calendar. Its global ordering key rides in the
/// queue entry.
enum ShardEvent {
    /// A protocol timer fires at `node` (always shard-local).
    Timer { node: NodeId, timer: TimerId },
    /// A frame copy arrives at `frame.dst`.
    Deliver { frame: Frame },
    /// A broadcast's copies for this shard's receivers.
    DeliverBatch(LocalCopies),
    /// A MAC send completes at `node` (always shard-local).
    SendDone { node: NodeId, done: SendDone },
}

/// Cross-shard mailbox entry: `(time, ordering key, event)`.
type RemoteEvent = (SimTime, u64, ShardEvent);

/// One broadcast's copies for the receivers of one shard, in fan-out
/// order, all arriving at the same instant.
struct LocalCopies {
    src: NodeId,
    wire_bytes: usize,
    trace_id: Option<u64>,
    payload: Payload,
    /// Receiver and ordering key of each copy, keys ascending. The batch
    /// sits in the queue under the key of `copies[next]`.
    copies: Vec<(NodeId, u64)>,
    /// First copy not yet delivered.
    next: usize,
}

/// One buffered observer emission, with enough context to merge streams
/// from all shards into global dispatch order.
struct ObsRecord {
    /// Dispatch time and key of the cascade the emitting event belongs
    /// to (see [`ShardObserver::set_ctx`]).
    root: (SimTime, u64),
    /// Position of the emitting event within its cascade.
    step: u32,
    /// Emission index within the handler (one handler can emit many).
    idx: u32,
    /// The emission's own timestamp.
    now: SimTime,
    ev: Event,
}

#[derive(Default)]
struct ObsBuf {
    records: Vec<ObsRecord>,
    root: Option<(SimTime, u64)>,
    step: u32,
    idx: u32,
}

/// Per-shard buffering observer: records every event with the dispatch
/// context `(time, key, emission index)` so [`Engine`] can replay the
/// merged stream deterministically.
struct ShardObserver {
    state: Mutex<ObsBuf>,
}

impl ShardObserver {
    fn new() -> Self {
        Self {
            state: Mutex::new(ObsBuf::default()),
        }
    }

    /// Arms the dispatch context before a handler runs.
    ///
    /// Events normally dispatch in ascending `(time, key)`. The exception
    /// is a same-instant event that a handler schedules under a key
    /// smaller than its own: it pops right after its cause. Such events
    /// are always owned by the scheduling node, so they join the cause's
    /// *cascade*, numbered by `step`, and sorting records by `(root,
    /// step, idx)` reproduces the dispatch order of any shard count.
    fn set_ctx(&self, at: SimTime, key: u64) {
        let mut s = self.state.lock();
        match s.root {
            Some(root) if (at, key) <= root => s.step += 1,
            _ => {
                s.root = Some((at, key));
                s.step = 0;
            }
        }
        s.idx = 0;
    }

    fn push(&self, now: SimTime, ev: Event) {
        let mut s = self.state.lock();
        let root = s.root.expect("observer event outside a dispatched event");
        let (step, idx) = (s.step, s.idx);
        s.idx += 1;
        s.records.push(ObsRecord {
            root,
            step,
            idx,
            now,
            ev,
        });
    }

    fn drain(&self) -> Vec<ObsRecord> {
        std::mem::take(&mut self.state.lock().records)
    }
}

impl Observer for ShardObserver {
    fn on_event(&self, now: SimTime, ev: &Event) {
        self.push(now, *ev);
    }
}

/// Emits a lifecycle span when the frame being handled is traced.
fn emit_span(obs: &dyn Observer, at: SimTime, trace: Option<u64>, node: u32, phase: SpanPhase) {
    if let Some(trace_id) = trace {
        obs.on_event(
            at,
            &Event::Span(SpanEvent {
                trace_id,
                node,
                phase,
            }),
        );
    }
}

/// Immutable per-run context shared by every shard (and every worker
/// thread): the topology, global index maps, the mailboxes, and the
/// window-boundary radio snapshot.
struct SharedCtx<'a> {
    topo: &'a Topology,
    mac: &'a MacConfig,
    hub: RngHub,
    /// Node id → owning shard.
    shard_of: &'a [u32],
    /// Node id → index within its shard.
    local_of: &'a [u32],
    /// Global link id → index within the owning (source) shard.
    link_local: &'a [u32],
    inboxes: &'a [Mutex<Vec<RemoteEvent>>],
    /// Window-boundary radio states, indexed by node id. All
    /// transmit-side receiver checks read this (never the live value) so
    /// the outcome cannot depend on where the receiver lives.
    radio_snapshot: &'a [AtomicBool],
}

/// One shard: a self-contained slice of the simulation.
struct Shard<P> {
    id: usize,
    /// Global ids of the nodes owned by this shard, ascending.
    nodes: Vec<NodeId>,
    queue: EventQueue<ShardEvent>,
    time: SimTime,
    // Node-indexed state (by local index).
    protocols: Vec<Option<P>>,
    proto_rngs: Vec<SmallRng>,
    backoff_rngs: Vec<SmallRng>,
    macs: Vec<MacState>,
    /// Live radio state of owned nodes (authoritative; published to the
    /// snapshot at window boundaries).
    radio_live: Vec<bool>,
    /// Local indices whose radio changed since the last window boundary.
    radio_dirty: Vec<u32>,
    /// Per-node send-token counters, prefixed with the node id so tokens
    /// are unique network-wide without global coordination.
    token_ctrs: Vec<u64>,
    /// Per-node event-key counters, same prefixing scheme.
    key_ctrs: Vec<u64>,
    // Link-indexed state (by owner-local link index; this shard owns the
    // links whose source node it owns).
    link_procs: Vec<LossProcess>,
    link_rngs: Vec<Option<SmallRng>>,
    ack_procs: Vec<Option<LossProcess>>,
    ack_rngs: Vec<Option<SmallRng>>,
    /// Global link id of each owned link (parallel to `link_procs`); maps
    /// the compact per-shard trace back to topology link ids at merge.
    link_global: Vec<usize>,
    /// Ground truth for *owned links only* (indexed by owner-local link
    /// id, like `link_procs`). A full-topology trace per shard would cost
    /// `shards × links` counter slots; see [`Engine::trace`].
    trace: Trace,
    /// Where this shard's observer events go: the run's observer itself
    /// when the shard is alone, else `obs_buffer`.
    obs: Option<Arc<dyn Observer>>,
    /// With several shards, the buffer behind `obs`, armed with each
    /// event's dispatch context and drained by the merge.
    obs_buffer: Option<Arc<ShardObserver>>,
    /// Shard-local self-profiler: each worker thread records wall time
    /// into its own instance (no cross-thread contention on the hot
    /// atomics); the coordinator drains them into the run-level profiler
    /// at run-call boundaries. `None` when profiling is off.
    profiler: Option<Arc<Profiler>>,
    cmd_buf: Vec<Command>,
    /// Recycled receiver lists of finished broadcast batches, so
    /// steady-state broadcasting allocates nothing.
    copies_pool: Vec<Vec<(NodeId, u64)>>,
    delivered_scratch: Vec<(SimTime, u16)>,
    inbound_scratch: Vec<RemoteEvent>,
    events_processed: u64,
}

impl<P: Protocol> Shard<P> {
    /// Next globally-unique ordering key for an event originated by the
    /// owned node at local index `l`.
    fn next_key(&mut self, l: usize) -> u64 {
        let key = self.key_ctrs[l];
        self.key_ctrs[l] += 1;
        key
    }

    /// Queues `ev` for `dest`: this shard's calendar, or another shard's
    /// mailbox.
    fn push_to(&mut self, sx: &SharedCtx<'_>, dest: usize, at: SimTime, key: u64, ev: ShardEvent) {
        if dest == self.id {
            self.queue.push(at, key, ev);
        } else {
            sx.inboxes[dest].lock().push((at, key, ev));
        }
    }

    /// Window-boundary phase A: drain this shard's mailbox into the
    /// calendar and republish the radio states that changed.
    fn exchange(&mut self, sx: &SharedCtx<'_>) {
        let mut inbound = std::mem::take(&mut self.inbound_scratch);
        inbound.append(&mut sx.inboxes[self.id].lock());
        for (at, key, ev) in inbound.drain(..) {
            // The conservative window guarantees cross-shard events land
            // at or after the receiving shard's clock.
            debug_assert!(at >= self.time, "cross-shard event from the past");
            self.queue.push(at, key, ev);
        }
        self.inbound_scratch = inbound;
        self.publish_radios(sx);
    }

    /// Publishes the radio states that changed since the last window
    /// boundary to the snapshot every transmit-side check reads.
    fn publish_radios(&mut self, sx: &SharedCtx<'_>) {
        for l in self.radio_dirty.drain(..) {
            let l = l as usize;
            sx.radio_snapshot[self.nodes[l].index()].store(self.radio_live[l], Ordering::Relaxed);
        }
    }

    /// Time of this shard's next pending event, in µs (`u64::MAX` if idle).
    fn next_event_us(&mut self) -> u64 {
        self.queue.peek().map_or(u64::MAX, |(at, _)| at.as_micros())
    }

    /// Window-boundary phase B: run every event with `time ≤ limit`.
    fn process_until(&mut self, sx: &SharedCtx<'_>, limit: SimTime) {
        loop {
            let t0 = profile::start(self.profiler.as_deref());
            let popped = self.queue.pop_at_or_before(limit);
            profile::stop(self.profiler.as_deref(), Subsystem::QueuePop, t0);
            let Some((t, key, ev)) = popped else {
                break;
            };
            self.dispatch(sx, t, key, ev);
        }
    }

    /// A lone shard's whole run call. With no mailbox, a window boundary
    /// only republishes the radios that changed, so the shard tracks its
    /// windows inline — each one starts at the first event at or after
    /// the previous one's end, where the coordinator's loop would start
    /// it — instead of returning to a coordinator at every boundary.
    fn run_alone(&mut self, sx: &SharedCtx<'_>, horizon: SimTime, window: SimDuration) {
        let limit = SimTime::from_micros(horizon.as_micros() - 1);
        let mut window_end = SimTime::ZERO;
        loop {
            let t0 = profile::start(self.profiler.as_deref());
            let popped = self.queue.pop_at_or_before(limit);
            profile::stop(self.profiler.as_deref(), Subsystem::QueuePop, t0);
            let Some((t, key, ev)) = popped else {
                break;
            };
            if t >= window_end {
                self.publish_radios(sx);
                window_end = t + window;
            }
            self.dispatch(sx, t, key, ev);
        }
    }

    /// Counts one event and arms the observer buffer with its dispatch
    /// context.
    fn begin_event(&mut self, t: SimTime, key: u64) {
        self.events_processed += 1;
        if let Some(b) = &self.obs_buffer {
            b.set_ctx(t, key);
        }
    }

    fn dispatch(&mut self, sx: &SharedCtx<'_>, t: SimTime, key: u64, ev: ShardEvent) {
        debug_assert!(t >= self.time, "event from the past");
        self.time = t;
        self.begin_event(t, key);
        match ev {
            ShardEvent::Timer { node, timer } => {
                if let Some(o) = &self.obs {
                    o.on_event(
                        t,
                        &Event::Timer(TimerEvent {
                            node: node.0,
                            timer: timer.0,
                        }),
                    );
                }
                let l = sx.local_of[node.index()] as usize;
                self.with_protocol(sx, node, l, |p, ctx| p.on_timer(ctx, timer));
            }
            ShardEvent::Deliver { frame } => self.deliver(sx, t, &frame),
            ShardEvent::DeliverBatch(batch) => self.deliver_batch(sx, t, batch),
            ShardEvent::SendDone { node, done } => {
                let l = sx.local_of[node.index()] as usize;
                self.macs[l].busy = false;
                self.with_protocol(sx, node, l, |p, ctx| p.on_send_done(ctx, &done));
                self.try_dequeue(sx, node, l);
            }
        }
    }

    /// Delivers a broadcast's local copies in exactly the order separate
    /// per-copy events would pop. The batch was popped under its next
    /// copy's key; before each later copy it checks the queue head, and if
    /// an earlier copy's handler scheduled a same-instant event with a
    /// smaller key, it re-queues the rest of the batch under the next
    /// copy's key and lets that event go first.
    fn deliver_batch(&mut self, sx: &SharedCtx<'_>, t: SimTime, batch: LocalCopies) {
        let LocalCopies {
            src,
            wire_bytes,
            trace_id,
            payload,
            copies,
            mut next,
        } = batch;
        // One frame for the whole batch; only its destination changes.
        let mut frame = Frame {
            src,
            dst: src,
            is_broadcast: true,
            attempt: 1,
            wire_bytes,
            rx_time: t,
            trace_id,
            payload,
        };
        loop {
            frame.dst = copies[next].0;
            self.deliver(sx, t, &frame);
            next += 1;
            let Some(&(_, key)) = copies.get(next) else {
                break;
            };
            if self.queue.peek().is_some_and(|head| head < (t, key)) {
                let rest = LocalCopies {
                    src,
                    wire_bytes,
                    trace_id,
                    payload: frame.payload,
                    copies,
                    next,
                };
                self.queue.push(t, key, ShardEvent::DeliverBatch(rest));
                return;
            }
            self.begin_event(t, key);
        }
        let mut copies = copies;
        copies.clear();
        self.copies_pool.push(copies);
    }

    /// Hands a frame copy to its destination protocol — or drops it if the
    /// destination radio went down while it was in flight.
    fn deliver(&mut self, sx: &SharedCtx<'_>, t: SimTime, frame: &Frame) {
        let dst = frame.dst;
        let l = sx.local_of[dst.index()] as usize;
        if self.radio_live[l] {
            if let Some(o) = &self.obs {
                o.on_event(
                    t,
                    &Event::Rx(RxEvent {
                        src: frame.src.0,
                        dst: dst.0,
                        attempt: frame.attempt,
                        bytes: frame.wire_bytes as u32,
                        broadcast: frame.is_broadcast,
                    }),
                );
                emit_span(
                    o.as_ref(),
                    t,
                    frame.trace_id,
                    dst.0,
                    SpanPhase::Deliver {
                        src: frame.src.0,
                        attempt: frame.attempt,
                    },
                );
            }
            self.with_protocol(sx, dst, l, |p, ctx| p.on_frame(ctx, frame));
        } else if let Some(o) = &self.obs {
            o.on_event(
                t,
                &Event::Drop(DropEvent {
                    node: dst.0,
                    dst: None,
                    reason: DropReason::ReceiverOff,
                }),
            );
            emit_span(
                o.as_ref(),
                t,
                frame.trace_id,
                dst.0,
                SpanPhase::Drop {
                    reason: DropReason::ReceiverOff,
                },
            );
        }
    }

    /// Builds the `Ctx` of `node` (local index `l`), runs `f` on its
    /// protocol in place, then drains the command buffer.
    fn with_protocol<F>(&mut self, sx: &SharedCtx<'_>, node: NodeId, l: usize, f: F)
    where
        F: FnOnce(&mut P, &mut Ctx<'_>),
    {
        let mut cmds = std::mem::take(&mut self.cmd_buf);
        {
            // Split borrow: the protocol slot and the Ctx fields are
            // disjoint, so the protocol is dispatched in place instead of
            // being moved out and back (protocol state can be large).
            let proto = self.protocols[l].as_mut().expect("protocol checked out");
            let mut ctx = Ctx {
                now: self.time,
                node,
                topo: sx.topo,
                mac: sx.mac,
                rng: &mut self.proto_rngs[l],
                commands: &mut cmds,
                next_token: &mut self.token_ctrs[l],
                observer: self.obs.as_deref(),
                profiler: self.profiler.as_deref(),
            };
            f(proto, &mut ctx);
        }
        self.drain_commands(sx, node, l, &mut cmds);
        cmds.clear();
        self.cmd_buf = cmds;
    }

    fn drain_commands(
        &mut self,
        sx: &SharedCtx<'_>,
        node: NodeId,
        l: usize,
        cmds: &mut Vec<Command>,
    ) {
        for cmd in cmds.drain(..) {
            match cmd {
                Command::Timer { delay, timer } => {
                    let key = self.next_key(l);
                    self.queue
                        .push(self.time + delay, key, ShardEvent::Timer { node, timer });
                }
                Command::Unicast {
                    dst,
                    token,
                    payload,
                    bytes,
                    trace,
                } => {
                    self.enqueue_tx(
                        sx,
                        node,
                        l,
                        QueuedTx {
                            dst: Some(dst),
                            token,
                            payload,
                            bytes,
                            trace,
                        },
                    );
                }
                Command::Broadcast {
                    payload,
                    bytes,
                    trace,
                } => {
                    self.enqueue_tx(
                        sx,
                        node,
                        l,
                        QueuedTx {
                            dst: None,
                            token: SendToken(u64::MAX),
                            payload,
                            bytes,
                            trace,
                        },
                    );
                }
                Command::SetRadio { on } => {
                    self.radio_live[l] = on;
                    self.radio_dirty.push(l as u32);
                }
            }
        }
    }

    /// Reports a unicast that never reached the air as failed after zero
    /// attempts (broadcasts are fire-and-forget).
    fn refuse_tx(&mut self, node: NodeId, l: usize, tx: &QueuedTx, reason: DropReason) {
        self.trace.queue_drops += 1;
        if let Some(o) = &self.obs {
            o.on_event(
                self.time,
                &Event::Drop(DropEvent {
                    node: node.0,
                    dst: tx.dst.map(|d| d.0),
                    reason,
                }),
            );
            emit_span(
                o.as_ref(),
                self.time,
                tx.trace,
                node.0,
                SpanPhase::Drop { reason },
            );
        }
        if let Some(dst) = tx.dst {
            let key = self.next_key(l);
            self.queue.push(
                self.time,
                key,
                ShardEvent::SendDone {
                    node,
                    done: SendDone {
                        token: tx.token,
                        dst,
                        acked: false,
                        attempts: 0,
                    },
                },
            );
        }
    }

    fn enqueue_tx(&mut self, sx: &SharedCtx<'_>, node: NodeId, l: usize, tx: QueuedTx) {
        if !self.radio_live[l] {
            // Radio off: the frame silently dies in the driver.
            self.refuse_tx(node, l, &tx, DropReason::RadioOff);
        } else if self.macs[l].queue.len() >= sx.mac.queue_capacity {
            self.refuse_tx(node, l, &tx, DropReason::QueueFull);
        } else {
            self.macs[l].queue.push_back(tx);
            self.try_dequeue(sx, node, l);
        }
    }

    fn try_dequeue(&mut self, sx: &SharedCtx<'_>, node: NodeId, l: usize) {
        let mac = &mut self.macs[l];
        if mac.busy {
            return;
        }
        let Some(tx) = mac.queue.pop_front() else {
            return;
        };
        mac.busy = true;
        match tx.dst {
            None => {
                let t0 = profile::start(self.profiler.as_deref());
                self.transmit_broadcast(sx, node, l, tx);
                profile::stop(self.profiler.as_deref(), Subsystem::BroadcastFanout, t0);
            }
            Some(dst) => {
                let t0 = profile::start(self.profiler.as_deref());
                self.transmit_unicast(sx, node, l, dst, tx);
                profile::stop(self.profiler.as_deref(), Subsystem::UnicastArq, t0);
            }
        }
    }

    fn backoff(&mut self, sx: &SharedCtx<'_>, l: usize) -> SimDuration {
        let base = sx.mac.backoff_us;
        let jitter = self.backoff_rngs[l].gen_range(base / 2..base + base / 2 + 1);
        SimDuration::from_micros(jitter)
    }

    fn transmit_broadcast(&mut self, sx: &SharedCtx<'_>, node: NodeId, l: usize, tx: QueuedTx) {
        let t_done = self.time + self.backoff(sx, l) + sx.mac.tx_time(tx.bytes);
        self.trace.broadcast_tx += 1;
        self.trace.bytes_on_air += tx.bytes as u64;
        if let Some(o) = &self.obs {
            o.on_event(
                t_done,
                &Event::Tx(TxEvent {
                    src: node.0,
                    dst: None,
                    attempt: 1,
                    bytes: tx.bytes as u32,
                    ok: true,
                }),
            );
            emit_span(
                o.as_ref(),
                t_done,
                tx.trace,
                node.0,
                SpanPhase::Tx {
                    dst: None,
                    attempt: 1,
                    ok: true,
                },
            );
        }
        let hub = sx.hub;
        let mut local = self.copies_pool.pop().unwrap_or_default();
        for (v, link_id) in sx.topo.neighbor_links(node) {
            // Receiver check against the window-boundary snapshot: the
            // same rule for local and remote receivers, so the outcome is
            // shard-count invariant.
            if !sx.radio_snapshot[v.index()].load(Ordering::Relaxed) {
                continue; // receiver powered down: nothing samples the channel
            }
            let ll = sx.link_local[link_id] as usize;
            let rng = self.link_rngs[ll].get_or_insert_with(|| {
                hub.stream(StreamKind::LinkLoss, u64::from(node.0), u64::from(v.0))
            });
            let ok = self.link_procs[ll].sample(t_done, rng);
            self.trace.record_broadcast_attempt(ll, ok);
            if !ok {
                continue;
            }
            self.trace.broadcast_rx += 1;
            // Every surviving copy consumes a key, in fan-out order, so
            // the merged delivery order matches any shard count.
            let key = self.next_key(l);
            let dest = sx.shard_of[v.index()] as usize;
            if dest == self.id {
                local.push((v, key));
            } else {
                let frame = Frame {
                    src: node,
                    dst: v,
                    is_broadcast: true,
                    attempt: 1,
                    wire_bytes: tx.bytes,
                    rx_time: t_done,
                    trace_id: tx.trace,
                    payload: Arc::clone(&tx.payload),
                };
                self.push_to(sx, dest, t_done, key, ShardEvent::Deliver { frame });
            }
        }
        match local.first() {
            Some(&(_, first)) => {
                let batch = LocalCopies {
                    src: node,
                    wire_bytes: tx.bytes,
                    trace_id: tx.trace,
                    payload: tx.payload,
                    copies: local,
                    next: 0,
                };
                self.queue
                    .push(t_done, first, ShardEvent::DeliverBatch(batch));
            }
            None => self.copies_pool.push(local),
        }
        // Broadcast completion frees the MAC; protocols are not notified
        // per-broadcast (fire-and-forget), so reuse SendDone with the
        // sentinel token for the MAC bookkeeping only.
        let key = self.next_key(l);
        self.queue.push(
            t_done,
            key,
            ShardEvent::SendDone {
                node,
                done: SendDone {
                    token: tx.token,
                    dst: node,
                    acked: true,
                    attempts: 1,
                },
            },
        );
    }

    fn transmit_unicast(
        &mut self,
        sx: &SharedCtx<'_>,
        node: NodeId,
        l: usize,
        dst: NodeId,
        tx: QueuedTx,
    ) {
        let Some(link_id) = sx.topo.link_id(node, dst) else {
            // No usable link: the MAC burns one attempt cycle and gives up
            // (models sending into the void).
            let t_done = self.time + self.backoff(sx, l) + sx.mac.attempt_floor(tx.bytes);
            self.trace.unicast_started += 1;
            self.trace.unicast_failed += 1;
            if let Some(o) = &self.obs {
                o.on_event(
                    t_done,
                    &Event::Drop(DropEvent {
                        node: node.0,
                        dst: Some(dst.0),
                        reason: DropReason::NoLink,
                    }),
                );
                emit_span(
                    o.as_ref(),
                    t_done,
                    tx.trace,
                    node.0,
                    SpanPhase::Drop {
                        reason: DropReason::NoLink,
                    },
                );
            }
            let key = self.next_key(l);
            self.queue.push(
                t_done,
                key,
                ShardEvent::SendDone {
                    node,
                    done: SendDone {
                        token: tx.token,
                        dst,
                        acked: false,
                        attempts: 1,
                    },
                },
            );
            return;
        };

        // A powered-down receiver answers nothing: the sender burns its
        // whole budget without sampling the channel (no PRR truth
        // pollution), but airtime is still spent. The check reads the
        // window-boundary snapshot (see `transmit_broadcast`).
        if !sx.radio_snapshot[dst.index()].load(Ordering::Relaxed) {
            let mut t = self.time;
            for _ in 0..sx.mac.max_attempts {
                t = t + self.backoff(sx, l) + sx.mac.attempt_floor(tx.bytes);
                self.trace.bytes_on_air += tx.bytes as u64;
            }
            self.trace.unicast_started += 1;
            self.trace.unicast_failed += 1;
            if let Some(o) = &self.obs {
                o.on_event(
                    t,
                    &Event::Drop(DropEvent {
                        node: node.0,
                        dst: Some(dst.0),
                        reason: DropReason::ReceiverOff,
                    }),
                );
                emit_span(
                    o.as_ref(),
                    t,
                    tx.trace,
                    node.0,
                    SpanPhase::Drop {
                        reason: DropReason::ReceiverOff,
                    },
                );
            }
            let key = self.next_key(l);
            self.queue.push(
                t,
                key,
                ShardEvent::SendDone {
                    node,
                    done: SendDone {
                        token: tx.token,
                        dst,
                        acked: false,
                        attempts: sx.mac.max_attempts,
                    },
                },
            );
            return;
        }

        self.trace.unicast_started += 1;
        let hub = sx.hub;
        let ll = sx.link_local[link_id] as usize;
        let mut t = self.time;
        let mut acked_at_attempt: Option<u16> = None;
        let mut delivered = std::mem::take(&mut self.delivered_scratch);
        for attempt in 1..=sx.mac.max_attempts {
            t = t + self.backoff(sx, l) + sx.mac.tx_time(tx.bytes);
            let rng = self.link_rngs[ll].get_or_insert_with(|| {
                hub.stream(StreamKind::LinkLoss, u64::from(node.0), u64::from(dst.0))
            });
            let data_ok = self.link_procs[ll].sample(t, rng);
            self.trace.record_data_attempt(ll, data_ok, tx.bytes);
            if let Some(o) = &self.obs {
                o.on_event(
                    t,
                    &Event::Tx(TxEvent {
                        src: node.0,
                        dst: Some(dst.0),
                        attempt,
                        bytes: tx.bytes as u32,
                        ok: data_ok,
                    }),
                );
                emit_span(
                    o.as_ref(),
                    t,
                    tx.trace,
                    node.0,
                    SpanPhase::Tx {
                        dst: Some(dst.0),
                        attempt,
                        ok: data_ok,
                    },
                );
            }
            if data_ok {
                // This copy arrives (duplicates possible across attempts).
                delivered.push((t, attempt));
                let t_ack = t + SimDuration::from_micros(sx.mac.ack_us);
                let ack_ok = match self.ack_procs[ll].as_mut() {
                    Some(proc_) => {
                        let ack_rng = self.ack_rngs[ll].get_or_insert_with(|| {
                            hub.stream(StreamKind::AckLoss, u64::from(node.0), u64::from(dst.0))
                        });
                        proc_.sample(t_ack, ack_rng)
                    }
                    None => false, // asymmetric link: ACK direction unusable
                };
                self.trace.record_ack_attempt(ll, ack_ok, ACK_BYTES);
                if let Some(o) = &self.obs {
                    o.on_event(
                        t_ack,
                        &Event::Ack(AckEvent {
                            src: node.0,
                            dst: dst.0,
                            attempt,
                            ok: ack_ok,
                        }),
                    );
                }
                t = t_ack;
                if ack_ok {
                    acked_at_attempt = Some(attempt);
                    break;
                }
            } else {
                // Sender times out waiting for the ACK.
                t += SimDuration::from_micros(sx.mac.ack_us);
            }
        }
        // Schedule the delivered copies, keys consumed in delivery-time
        // order.
        let dest = sx.shard_of[dst.index()] as usize;
        for &(td, attempt) in &delivered {
            let key = self.next_key(l);
            let frame = Frame {
                src: node,
                dst,
                is_broadcast: false,
                attempt,
                wire_bytes: tx.bytes,
                rx_time: td,
                trace_id: tx.trace,
                payload: Arc::clone(&tx.payload),
            };
            self.push_to(sx, dest, td, key, ShardEvent::Deliver { frame });
        }
        delivered.clear();
        self.delivered_scratch = delivered;
        let done = match acked_at_attempt {
            Some(attempts) => {
                self.trace.unicast_acked += 1;
                self.trace.attempts_hist.record(usize::from(attempts));
                SendDone {
                    token: tx.token,
                    dst,
                    acked: true,
                    attempts,
                }
            }
            None => {
                self.trace.unicast_failed += 1;
                if let Some(o) = &self.obs {
                    o.on_event(
                        t,
                        &Event::Drop(DropEvent {
                            node: node.0,
                            dst: Some(dst.0),
                            reason: DropReason::LinkExhausted,
                        }),
                    );
                    emit_span(
                        o.as_ref(),
                        t,
                        tx.trace,
                        node.0,
                        SpanPhase::Drop {
                            reason: DropReason::LinkExhausted,
                        },
                    );
                }
                SendDone {
                    token: tx.token,
                    dst,
                    acked: false,
                    attempts: sx.mac.max_attempts,
                }
            }
        };
        let key = self.next_key(l);
        self.queue.push(t, key, ShardEvent::SendDone { node, done });
    }
}

/// The simulation engine. See the module docs for the execution model
/// and determinism contract.
pub struct Engine<P: Protocol + Send> {
    shards: Vec<Shard<P>>,
    inboxes: Vec<Mutex<Vec<RemoteEvent>>>,
    radio_snapshot: Vec<AtomicBool>,
    shard_of: Vec<u32>,
    local_of: Vec<u32>,
    link_local: Vec<u32>,
    topo: Arc<Topology>,
    mac_cfg: MacConfig,
    hub: RngHub,
    /// Conservative window width: the minimum latency of any cross-node
    /// event under `mac_cfg`.
    window: SimDuration,
    time: SimTime,
    /// Worker threads to use (0 = one per available core, capped at the
    /// shard count). Thread count never affects results.
    threads: usize,
    started: bool,
    /// With several shards, the observer the merged buffers replay into
    /// (a lone shard calls it directly).
    observer: Option<Arc<dyn Observer>>,
    /// Run-level self-profiler the per-shard profilers drain into.
    profiler: Option<Arc<Profiler>>,
}

impl<P: Protocol + Send> Engine<P> {
    /// Assembles an engine with `shard_count` shards (clamped to
    /// `1..=node_count`, so 0 means one) and one worker thread per
    /// available core.
    ///
    /// `loss_models[i]` is the loss process for topology link `i` (use
    /// [`crate::config::LinkDynamics::build_models`] to derive them from
    /// the generated base PRRs). `protocols[n]` is node `n`'s protocol.
    /// Results depend on `shard_count` only through *performance*, never
    /// through simulation outcomes.
    ///
    /// # Panics
    /// Panics if the vector lengths do not match the topology, or if
    /// several shards are asked for while the MAC timing gives a
    /// zero-width conservative window (`backoff_us/2 + frame_overhead_us
    /// == 0`).
    pub fn new(
        topo: Arc<Topology>,
        loss_models: &[LossModel],
        mac_cfg: MacConfig,
        hub: RngHub,
        protocols: Vec<P>,
        shard_count: u16,
    ) -> Self {
        Self::with_threads(topo, loss_models, mac_cfg, hub, protocols, shard_count, 0)
    }

    /// Like [`Engine::new`] with an explicit worker-thread count
    /// (0 = auto). Exists so tests can pin both sides of a
    /// threads-don't-matter comparison.
    #[allow(clippy::too_many_arguments)]
    pub fn with_threads(
        topo: Arc<Topology>,
        loss_models: &[LossModel],
        mac_cfg: MacConfig,
        hub: RngHub,
        protocols: Vec<P>,
        shard_count: u16,
        threads: usize,
    ) -> Self {
        let n = topo.node_count();
        assert_eq!(protocols.len(), n, "one protocol per node");
        assert_eq!(
            loss_models.len(),
            topo.links().len(),
            "one loss model per link"
        );
        let shard_count = usize::from(shard_count.max(1)).min(n.max(1));
        let window_us = mac_cfg.backoff_us / 2 + mac_cfg.frame_overhead_us;
        assert!(
            window_us >= 1 || shard_count == 1,
            "a sharded run needs a positive conservative window \
             (backoff_us/2 + frame_overhead_us >= 1µs)"
        );
        // A lone shard exchanges nothing, so a degenerate MAC timing only
        // shortens its windows to one microsecond.
        let window = SimDuration::from_micros(window_us.max(1));

        // Spatial stripe partition: nodes sorted by x coordinate (node id
        // breaking ties) cut into balanced contiguous stripes, so most
        // links on geometric topologies stay shard-internal.
        let mut order: Vec<u32> = (0..n as u32).collect();
        let positions = topo.positions();
        order.sort_by(|&a, &b| {
            positions[a as usize]
                .x
                .total_cmp(&positions[b as usize].x)
                .then(a.cmp(&b))
        });
        let mut shard_of = vec![0u32; n];
        let (base, extra) = (n / shard_count, n % shard_count);
        let mut cursor = 0usize;
        for s in 0..shard_count {
            let size = base + usize::from(s < extra);
            for _ in 0..size {
                shard_of[order[cursor] as usize] = s as u32;
                cursor += 1;
            }
        }
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); shard_count];
        for i in 0..n {
            members[shard_of[i] as usize].push(NodeId::from_index(i));
        }
        let mut local_of = vec![0u32; n];
        for m in &members {
            for (l, nd) in m.iter().enumerate() {
                local_of[nd.index()] = l as u32;
            }
        }
        // Links are owned by the shard of their source: every transmit-
        // side draw (data, ACK) happens where the sender lives.
        let mut link_local = vec![0u32; topo.links().len()];
        let mut shard_links: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
        for (g, l) in topo.links().iter().enumerate() {
            let s = shard_of[l.src.index()] as usize;
            link_local[g] = shard_links[s].len() as u32;
            shard_links[s].push(g);
        }

        let mut proto_slots: Vec<Option<P>> = protocols.into_iter().map(Some).collect();
        let shards = members
            .into_iter()
            .zip(shard_links)
            .enumerate()
            .map(|(sid, (nodes, link_global))| {
                let link_procs: Vec<LossProcess> = link_global
                    .iter()
                    .map(|&g| loss_models[g].build())
                    .collect();
                let ack_procs: Vec<Option<LossProcess>> = link_global
                    .iter()
                    .map(|&g| {
                        let l = &topo.links()[g];
                        topo.link_id(l.dst, l.src)
                            .map(|rid| loss_models[rid].build())
                    })
                    .collect();
                let protocols = nodes
                    .iter()
                    .map(|nd| proto_slots[nd.index()].take())
                    .collect();
                Shard {
                    id: sid,
                    queue: EventQueue::new(),
                    time: SimTime::ZERO,
                    protocols,
                    proto_rngs: nodes
                        .iter()
                        .map(|nd| hub.stream(StreamKind::Protocol, nd.index() as u64, 0))
                        .collect(),
                    backoff_rngs: nodes
                        .iter()
                        .map(|nd| hub.stream(StreamKind::Backoff, nd.index() as u64, 0))
                        .collect(),
                    macs: nodes
                        .iter()
                        .map(|_| MacState {
                            busy: false,
                            queue: VecDeque::new(),
                        })
                        .collect(),
                    radio_live: vec![true; nodes.len()],
                    radio_dirty: Vec::new(),
                    token_ctrs: nodes.iter().map(|nd| u64::from(nd.0) << 32).collect(),
                    key_ctrs: nodes.iter().map(|nd| u64::from(nd.0) << 32).collect(),
                    nodes,
                    link_rngs: vec![None; link_procs.len()],
                    ack_rngs: vec![None; link_procs.len()],
                    trace: Trace::with_link_count(link_procs.len()),
                    link_procs,
                    ack_procs,
                    link_global,
                    obs: None,
                    obs_buffer: None,
                    profiler: None,
                    cmd_buf: Vec::new(),
                    copies_pool: Vec::new(),
                    delivered_scratch: Vec::new(),
                    inbound_scratch: Vec::new(),
                    events_processed: 0,
                }
            })
            .collect();
        Self {
            shards,
            inboxes: (0..shard_count).map(|_| Mutex::new(Vec::new())).collect(),
            radio_snapshot: (0..n).map(|_| AtomicBool::new(true)).collect(),
            shard_of,
            local_of,
            link_local,
            topo,
            mac_cfg,
            hub,
            window,
            time: SimTime::ZERO,
            threads,
            started: false,
            observer: None,
            profiler: None,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Worker threads a run call will actually use.
    pub fn thread_count(&self) -> usize {
        let auto = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        };
        auto.min(self.shards.len()).max(1)
    }

    /// Overrides the worker-thread count (`0` = auto-detect). Safe to call
    /// at any point between windows; results never depend on it.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// The conservative window width derived from the MAC timing.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Shard owning node `n` (for tests and diagnostics).
    pub fn shard_of(&self, n: NodeId) -> usize {
        self.shard_of[n.index()] as usize
    }

    /// Installs a structured-event observer. Observers only *read* event
    /// payloads — they cannot touch simulation state or RNG streams, so a
    /// run behaves bit-identically with or without one. A lone shard
    /// calls the observer as events happen; with several shards, events
    /// are buffered per shard during a run call and replayed in
    /// deterministic merged order when it returns. Install before
    /// [`Engine::start`].
    pub fn set_observer(&mut self, observer: Arc<dyn Observer>) {
        if let [lone] = self.shards.as_mut_slice() {
            lone.obs = Some(observer);
            return;
        }
        self.observer = Some(observer);
        for s in &mut self.shards {
            let buffer = Arc::new(ShardObserver::new());
            s.obs = Some(Arc::clone(&buffer) as Arc<dyn Observer>);
            s.obs_buffer = Some(buffer);
        }
    }

    /// Installs a hot-path self-profiler. Each worker thread records wall
    /// time into a shard-local profiler, and the shard-local instances are
    /// drained into `profiler` when a run call returns — so the installed
    /// profiler is consistent whenever the caller can observe it, and a
    /// subsystem's wall time aggregates *across* worker threads rather
    /// than pretending one event loop did all the work. Profiling never
    /// touches simulation state: a profiled run stays byte-identical to a
    /// bare one.
    pub fn set_profiler(&mut self, profiler: Arc<Profiler>) {
        self.profiler = Some(profiler);
        for s in &mut self.shards {
            if s.profiler.is_none() {
                s.profiler = Some(Arc::new(Profiler::new()));
            }
        }
    }

    /// The installed run-level self-profiler, if any (for metric export).
    /// Up to date at run-call boundaries (see [`Engine::set_profiler`]).
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_deref()
    }

    /// Drains every shard-local profiler into the run-level one.
    fn flush_profilers(&mut self) {
        let Some(target) = &self.profiler else {
            return;
        };
        for s in &self.shards {
            if let Some(p) = &s.profiler {
                p.drain_into(target);
            }
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Events executed across all shards. A broadcast batch counts one
    /// event per copy it delivers.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Merged ground-truth trace (each shard records only its owned
    /// links, compactly indexed; this maps them back to topology link
    /// ids and folds the per-shard traces together).
    pub fn trace(&self) -> Trace {
        let mut merged = Trace::for_topology(&self.topo);
        for s in &self.shards {
            merged.merge_mapped(&s.trace, &s.link_global);
        }
        merged
    }

    /// Immutable access to node `n`'s protocol.
    pub fn protocol(&self, n: NodeId) -> &P {
        let s = &self.shards[self.shard_of[n.index()] as usize];
        s.protocols[self.local_of[n.index()] as usize]
            .as_ref()
            .expect("protocol checked out")
    }

    /// Current MAC transmit-queue depth of node `n`.
    pub fn queue_depth(&self, n: NodeId) -> usize {
        let s = &self.shards[self.shard_of[n.index()] as usize];
        s.macs[self.local_of[n.index()] as usize].queue.len()
    }

    /// Whether node `n`'s radio is currently on (live value).
    pub fn radio_on(&self, n: NodeId) -> bool {
        let s = &self.shards[self.shard_of[n.index()] as usize];
        s.radio_live[self.local_of[n.index()] as usize]
    }

    /// Instantaneous true PRR of topology link `link_id` at the engine's
    /// clock. Advances the link's drift state deterministically off its
    /// loss stream, so callers should treat it as a read at the current
    /// time, made between run calls.
    pub fn true_prr_now(&mut self, link_id: usize) -> f64 {
        let (src, dst) = {
            let l = &self.topo.links()[link_id];
            (l.src, l.dst)
        };
        let hub = self.hub;
        let s = &mut self.shards[self.shard_of[src.index()] as usize];
        let ll = self.link_local[link_id] as usize;
        let rng = s.link_rngs[ll].get_or_insert_with(|| {
            hub.stream(StreamKind::LinkLoss, u64::from(src.0), u64::from(dst.0))
        });
        s.link_procs[ll].prr_at(self.time, rng)
    }

    /// Splits the engine into its shards and the context they share.
    fn split(&mut self) -> (&mut [Shard<P>], SharedCtx<'_>) {
        let sx = SharedCtx {
            topo: &self.topo,
            mac: &self.mac_cfg,
            hub: self.hub,
            shard_of: &self.shard_of,
            local_of: &self.local_of,
            link_local: &self.link_local,
            inboxes: &self.inboxes,
            radio_snapshot: &self.radio_snapshot,
        };
        (&mut self.shards, sx)
    }

    /// Calls `on_init` for every node (id order within each shard). Must
    /// be called exactly once, before running.
    ///
    /// # Panics
    /// Panics on a second call.
    pub fn start(&mut self) {
        assert!(!self.started, "engine already started");
        self.started = true;
        let (shards, sx) = self.split();
        for s in shards.iter_mut() {
            for l in 0..s.nodes.len() {
                let node = s.nodes[l];
                let key = s.next_key(l);
                if let Some(b) = &s.obs_buffer {
                    b.set_ctx(SimTime::ZERO, key);
                }
                s.with_protocol(&sx, node, l, |p, ctx| p.on_init(ctx));
            }
        }
        self.flush_observers();
        self.flush_profilers();
    }

    /// Runs until simulated time `deadline` (events at exactly `deadline`
    /// are executed). Sets the clock to `deadline` on return.
    pub fn run_until(&mut self, deadline: SimTime) {
        assert!(self.started, "call start() first");
        // Treating the horizon as exclusive at `deadline + 1µs` folds the
        // events-at-deadline pass into the regular window loop.
        let horizon = deadline + SimDuration::from_micros(1);
        let window = self.window;
        let threads = self.thread_count();
        {
            let (shards, sx) = self.split();
            match shards {
                [lone] => lone.run_alone(&sx, horizon, window),
                _ if threads <= 1 => Self::run_sequential(shards, &sx, horizon, window),
                _ => Self::run_threaded(shards, &sx, horizon, window, threads),
            }
        }
        if deadline > self.time {
            self.time = deadline;
        }
        self.flush_observers();
        self.flush_profilers();
    }

    /// Runs for `span` of simulated time from the current clock.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.time + span;
        self.run_until(deadline);
    }

    /// Single-threaded window loop over several shards: exchange all
    /// mailboxes, jump to the global minimum pending time, process one
    /// conservative window in every shard, repeat.
    fn run_sequential(
        shards: &mut [Shard<P>],
        sx: &SharedCtx<'_>,
        horizon: SimTime,
        window: SimDuration,
    ) {
        loop {
            let mut min_us = u64::MAX;
            for s in shards.iter_mut() {
                s.exchange(sx);
                min_us = min_us.min(s.next_event_us());
            }
            if min_us >= horizon.as_micros() {
                break;
            }
            let w_end = (min_us + window.as_micros()).min(horizon.as_micros());
            let limit = SimTime::from_micros(w_end - 1);
            for s in shards.iter_mut() {
                s.process_until(sx, limit);
            }
        }
    }

    /// Multi-threaded window loop: same schedule as
    /// [`Engine::run_sequential`] — the window sequence is a pure function
    /// of the global minimum pending time, so thread count never affects
    /// results. Three barriers per window: after the exchange phase, after
    /// the leader picks the window end, and after processing.
    fn run_threaded(
        shards: &mut [Shard<P>],
        sx: &SharedCtx<'_>,
        horizon: SimTime,
        window: SimDuration,
        threads: usize,
    ) {
        let nshards = shards.len();
        let chunk_size = nshards.div_ceil(threads);
        let nworkers = nshards.div_ceil(chunk_size);
        let mins: Vec<AtomicU64> = (0..nshards).map(|_| AtomicU64::new(u64::MAX)).collect();
        let w_end_us = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let barrier = std::sync::Barrier::new(nworkers);
        std::thread::scope(|scope| {
            for chunk in shards.chunks_mut(chunk_size) {
                let (mins, w_end_us, stop, barrier) = (&mins, &w_end_us, &stop, &barrier);
                scope.spawn(move || loop {
                    for s in chunk.iter_mut() {
                        s.exchange(sx);
                        mins[s.id].store(s.next_event_us(), Ordering::SeqCst);
                    }
                    if barrier.wait().is_leader() {
                        let min_us = mins
                            .iter()
                            .map(|m| m.load(Ordering::SeqCst))
                            .min()
                            .unwrap_or(u64::MAX);
                        if min_us >= horizon.as_micros() {
                            stop.store(true, Ordering::SeqCst);
                        } else {
                            stop.store(false, Ordering::SeqCst);
                            w_end_us.store(
                                (min_us + window.as_micros()).min(horizon.as_micros()),
                                Ordering::SeqCst,
                            );
                        }
                    }
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let limit = SimTime::from_micros(w_end_us.load(Ordering::SeqCst) - 1);
                    for s in chunk.iter_mut() {
                        s.process_until(sx, limit);
                    }
                    barrier.wait();
                });
            }
        });
    }

    /// Merges every shard's buffered observer records into global
    /// dispatch order and replays them to the installed observer. A lone
    /// shard buffers nothing.
    fn flush_observers(&mut self) {
        let Some(target) = self.observer.clone() else {
            return;
        };
        let mut records: Vec<ObsRecord> = Vec::new();
        for s in &self.shards {
            if let Some(b) = &s.obs_buffer {
                records.append(&mut b.drain());
            }
        }
        records.sort_by_key(|r| (r.root, r.step, r.idx));
        for r in &records {
            target.on_event(r.now, &r.ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LinkDynamics, SimConfig};
    use crate::radio::RadioModel;
    use crate::topology::Placement;

    /// Chattering test protocol: every node fires a timer on a shared
    /// schedule (maximally stressing same-instant cross-node ordering),
    /// alternates broadcasts with unicasts to rotating neighbors, and
    /// records everything it receives.
    struct Chatter {
        period: SimDuration,
        sent: u32,
        to_send: u32,
        toggles: bool,
        received: Vec<(u32, u16, bool, u32)>,
        acked: u32,
        failed: u32,
    }

    impl Chatter {
        fn new(to_send: u32, toggles: bool) -> Self {
            Self {
                period: SimDuration::from_millis(200),
                sent: 0,
                to_send,
                toggles,
                received: Vec::new(),
                acked: 0,
                failed: 0,
            }
        }
    }

    impl Protocol for Chatter {
        fn on_init(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(self.period, TimerId(0));
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: TimerId) {
            if self.sent >= self.to_send {
                return;
            }
            let seq = self.sent;
            self.sent += 1;
            if self.toggles && ctx.node_id().0 % 3 == 1 {
                // Odd-ish nodes nap between sends 3 and 5, exercising the
                // radio snapshot paths.
                if seq == 3 {
                    ctx.set_radio(false);
                } else if seq == 5 {
                    ctx.set_radio(true);
                }
            }
            if seq.is_multiple_of(2) {
                ctx.send_broadcast(Arc::new(seq), 30);
            } else if !ctx.neighbors().is_empty() {
                let dst = ctx.neighbors()[seq as usize % ctx.neighbors().len()];
                ctx.send_unicast(dst, Arc::new(seq), 40);
            }
            ctx.set_timer(self.period, TimerId(0));
        }

        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, frame: &Frame) {
            let seq = *frame.payload_as::<u32>().expect("u32 payload");
            self.received
                .push((frame.src.0, frame.attempt, frame.is_broadcast, seq));
        }

        fn on_send_done(&mut self, _ctx: &mut Ctx<'_>, done: &SendDone) {
            if done.dst.0 != u32::MAX && done.token.0 != u64::MAX {
                if done.acked {
                    self.acked += 1;
                } else {
                    self.failed += 1;
                }
            }
        }
    }

    fn build(shards: u16, threads: usize, seed: u64, toggles: bool) -> Engine<Chatter> {
        let cfg = SimConfig {
            placement: Placement::Grid {
                side: 4,
                spacing: 15.0,
            },
            radio: RadioModel::default(),
            mac: MacConfig::default(),
            dynamics: LinkDynamics::Static,
            seed,
        };
        let topo = Arc::new(cfg.topology());
        let models = cfg.loss_models(&topo);
        let protos = (0..topo.node_count())
            .map(|_| Chatter::new(24, toggles))
            .collect();
        Engine::with_threads(topo, &models, cfg.mac, cfg.hub(), protos, shards, threads)
    }

    /// Everything a run can observe, serialized for equality checks.
    fn fingerprint(e: &Engine<Chatter>) -> String {
        let tr = e.trace();
        let mut out = format!(
            "now={} events={} btx={} brx={} us={} ua={} uf={} qd={} bytes={}\n",
            e.now().as_micros(),
            e.events_processed(),
            tr.broadcast_tx,
            tr.broadcast_rx,
            tr.unicast_started,
            tr.unicast_acked,
            tr.unicast_failed,
            tr.queue_drops,
            tr.bytes_on_air,
        );
        for l in tr.links() {
            out.push_str(&format!(
                "{} {} {} {} {} {}\n",
                l.data_tx, l.data_rx, l.ack_tx, l.ack_rx, l.bcast_tx, l.bcast_rx
            ));
        }
        for i in 0..e.topology().node_count() {
            let p = e.protocol(NodeId::from_index(i));
            out.push_str(&format!(
                "n{i}: sent={} acked={} failed={} rx={:?}\n",
                p.sent, p.acked, p.failed, p.received
            ));
        }
        out
    }

    fn run(mut e: Engine<Chatter>) -> String {
        e.start();
        // Two run calls so mid-run mailbox state is exercised.
        e.run_for(SimDuration::from_secs(3));
        e.run_for(SimDuration::from_secs(3));
        fingerprint(&e)
    }

    #[test]
    fn shard_count_never_changes_results() {
        let base = run(build(1, 1, 7, false));
        for shards in [2u16, 3, 5, 16] {
            let other = run(build(shards, 1, 7, false));
            assert_eq!(base, other, "shards={shards} diverged from shards=1");
        }
    }

    #[test]
    fn thread_count_never_changes_results() {
        let base = run(build(4, 1, 11, false));
        for threads in [2usize, 4] {
            let other = run(build(4, threads, 11, false));
            assert_eq!(base, other, "threads={threads} diverged from threads=1");
        }
    }

    #[test]
    fn radio_toggles_stay_shard_invariant() {
        let base = run(build(1, 1, 13, true));
        let sharded = run(build(4, 2, 13, true));
        assert_eq!(base, sharded);
    }

    /// Observer that renders every event into a string log.
    struct RecObs(Mutex<Vec<String>>);

    impl Observer for RecObs {
        fn on_event(&self, now: SimTime, ev: &Event) {
            self.0.lock().push(format!("{now} {ev:?}"));
        }
    }

    #[test]
    fn observer_stream_is_shard_invariant() {
        let mut logs = Vec::new();
        for shards in [1u16, 4] {
            let mut e = build(shards, 1, 17, false);
            let obs = Arc::new(RecObs(Mutex::new(Vec::new())));
            e.set_observer(obs.clone());
            e.start();
            e.run_for(SimDuration::from_secs(2));
            logs.push(obs.0.lock().join("\n"));
        }
        assert!(!logs[0].is_empty(), "observer saw nothing");
        assert_eq!(logs[0], logs[1]);
    }

    #[test]
    fn idle_run_jumps_to_deadline() {
        struct Idle;
        impl Protocol for Idle {
            fn on_init(&mut self, _ctx: &mut Ctx<'_>) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerId) {}
            fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _f: &Frame) {}
        }
        let cfg = SimConfig {
            placement: Placement::Grid {
                side: 3,
                spacing: 12.0,
            },
            radio: RadioModel::default(),
            mac: MacConfig::default(),
            dynamics: LinkDynamics::Static,
            seed: 1,
        };
        let topo = Arc::new(cfg.topology());
        let models = cfg.loss_models(&topo);
        let protos = (0..topo.node_count()).map(|_| Idle).collect();
        let mut e = Engine::new(topo, &models, cfg.mac, cfg.hub(), protos, 3);
        e.start();
        // An hour of dead air must not grind through empty windows.
        let t0 = std::time::Instant::now();
        e.run_for(SimDuration::from_secs(3600));
        assert!(
            t0.elapsed().as_secs() < 5,
            "idle run crawled through windows"
        );
        assert_eq!(e.now(), SimTime::from_micros(3_600_000_000));
        assert_eq!(e.events_processed(), 0);
    }

    #[test]
    fn stripes_are_balanced() {
        let e = build(5, 1, 3, false);
        let mut sizes = vec![0usize; e.shard_count()];
        for i in 0..e.topology().node_count() {
            sizes[e.shard_of(NodeId::from_index(i))] += 1;
        }
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "unbalanced stripes: {sizes:?}");
    }

    // ---- MAC and ARQ behaviour on a lone shard ----

    /// Minimal protocol: node 1 sends `count` frames to node 0; node 0
    /// counts first-copy receptions and attempt numbers.
    #[derive(Default)]
    struct Pinger {
        to_send: u32,
        period: SimDuration,
        received: Vec<u16>,  // attempt numbers of received copies
        dedup_received: u32, // unique frames (by seqno)
        seen: std::collections::HashSet<u32>,
        acked: u32,
        failed: u32,
        attempts_reported: Vec<u16>,
    }

    #[derive(Debug)]
    struct Ping {
        seq: u32,
    }

    impl Protocol for Pinger {
        fn on_init(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.node_id() == NodeId(1) && self.to_send > 0 {
                ctx.set_timer(self.period, TimerId(0));
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: TimerId) {
            if self.to_send == 0 {
                return;
            }
            self.to_send -= 1;
            let seq = self.to_send;
            ctx.send_unicast(NodeId(0), Arc::new(Ping { seq }), 40);
            if self.to_send > 0 {
                ctx.set_timer(self.period, TimerId(0));
            }
        }

        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, frame: &Frame) {
            let ping = frame.payload_as::<Ping>().expect("ping payload");
            self.received.push(frame.attempt);
            if self.seen.insert(ping.seq) {
                self.dedup_received += 1;
            }
        }

        fn on_send_done(&mut self, _ctx: &mut Ctx<'_>, done: &SendDone) {
            if done.acked {
                self.acked += 1;
                self.attempts_reported.push(done.attempts);
            } else {
                self.failed += 1;
            }
        }
    }

    fn two_node_engine(prr: f64, count: u32) -> Engine<Pinger> {
        let hub = RngHub::new(7);
        let topo = Arc::new(Topology::generate(
            Placement::Line { n: 2, spacing: 5.0 },
            &RadioModel::default(),
            &hub,
        ));
        assert!(topo.link_id(NodeId(1), NodeId(0)).is_some());
        let models: Vec<LossModel> = topo
            .links()
            .iter()
            .map(|_| LossModel::Bernoulli { prr })
            .collect();
        let protocols = (0..topo.node_count())
            .map(|_| Pinger {
                to_send: count,
                period: SimDuration::from_millis(200),
                ..Pinger::default()
            })
            .collect();
        Engine::new(topo, &models, MacConfig::default(), hub, protocols, 1)
    }

    #[test]
    fn perfect_link_delivers_everything_once() {
        let mut e = two_node_engine(1.0, 50);
        e.start();
        e.run_for(SimDuration::from_secs(60));
        let sink = e.protocol(NodeId(0));
        assert_eq!(sink.dedup_received, 50);
        assert_eq!(sink.received.len(), 50, "no duplicates on a perfect link");
        assert!(sink.received.iter().all(|&a| a == 1));
        let sender = e.protocol(NodeId(1));
        assert_eq!(sender.acked, 50);
        assert_eq!(sender.failed, 0);
        assert!(sender.attempts_reported.iter().all(|&a| a == 1));
    }

    #[test]
    fn lossy_link_retransmits() {
        let mut e = two_node_engine(0.6, 400);
        e.start();
        e.run_for(SimDuration::from_secs(300));
        let sender = e.protocol(NodeId(1));
        assert!(sender.acked > 350, "acked {}", sender.acked);
        // An attempt is "settled" only when data AND ack get through:
        // p = 0.36 → mean ≈ 1/0.36 ≈ 2.8, truncated at R=7 → ≈ 2.45.
        let mean: f64 = sender
            .attempts_reported
            .iter()
            .map(|&a| f64::from(a))
            .sum::<f64>()
            / sender.attempts_reported.len() as f64;
        assert!(mean > 2.0 && mean < 3.0, "mean attempts {mean}");
        // Trace agrees with protocol-level counts.
        let t = e.trace();
        assert_eq!(t.unicast_started, 400);
        assert_eq!(t.unicast_acked, u64::from(sender.acked));
    }

    #[test]
    fn dead_link_fails_everything() {
        let mut e = two_node_engine(0.0, 20);
        e.start();
        e.run_for(SimDuration::from_secs(60));
        let sender = e.protocol(NodeId(1));
        assert_eq!(sender.acked, 0);
        assert_eq!(sender.failed, 20);
        let sink = e.protocol(NodeId(0));
        assert_eq!(sink.dedup_received, 0);
        // All attempts burned.
        assert_eq!(
            e.trace().links()[e.topology().link_id(NodeId(1), NodeId(0)).unwrap()].data_tx,
            20 * u64::from(MacConfig::default().max_attempts)
        );
    }

    #[test]
    fn first_copy_attempt_is_geometric_sample() {
        // With ACK losses, receivers may see duplicates; the FIRST copy's
        // attempt number must match the number of data transmissions until
        // first success. Verify via trace: total successes on the link
        // equals total copies delivered.
        let mut e = two_node_engine(0.5, 300);
        e.start();
        e.run_for(SimDuration::from_secs(300));
        let link = e.topology().link_id(NodeId(1), NodeId(0)).unwrap();
        let truth = e.trace().links()[link];
        let sink = e.protocol(NodeId(0));
        assert_eq!(truth.data_rx, sink.received.len() as u64);
        // Empirical PRR near 0.5.
        let prr = truth.empirical_prr().unwrap();
        assert!((prr - 0.5).abs() < 0.05, "prr {prr}");
    }

    #[test]
    fn engine_is_deterministic() {
        let run = || {
            let mut e = two_node_engine(0.7, 100);
            e.start();
            e.run_for(SimDuration::from_secs(120));
            let s = e.protocol(NodeId(0));
            (s.dedup_received, s.received.clone(), e.trace().bytes_on_air)
        };
        assert_eq!(run(), run());
    }

    /// Protocol that turns its radio off at a scheduled time.
    struct Sleeper {
        off_at: Option<SimDuration>,
        to_send: u32,
        period: SimDuration,
        received: u32,
        acked: u32,
        failed: u32,
    }

    impl Protocol for Sleeper {
        fn on_init(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(d) = self.off_at {
                ctx.set_timer(d, TimerId(9));
            }
            if ctx.node_id() == NodeId(1) && self.to_send > 0 {
                ctx.set_timer(self.period, TimerId(0));
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId) {
            if timer == TimerId(9) {
                ctx.set_radio(false);
                return;
            }
            if self.to_send > 0 {
                self.to_send -= 1;
                ctx.send_unicast(NodeId(0), Arc::new(()), 40);
                ctx.set_timer(self.period, TimerId(0));
            }
        }
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _frame: &Frame) {
            self.received += 1;
        }
        fn on_send_done(&mut self, _ctx: &mut Ctx<'_>, done: &SendDone) {
            if done.acked {
                self.acked += 1;
            } else {
                self.failed += 1;
            }
        }
    }

    #[test]
    fn radio_off_receiver_answers_nothing() {
        let hub = RngHub::new(77);
        let topo = Arc::new(Topology::generate(
            Placement::Line { n: 2, spacing: 5.0 },
            &RadioModel::default(),
            &hub,
        ));
        let models: Vec<LossModel> = topo
            .links()
            .iter()
            .map(|_| LossModel::Bernoulli { prr: 1.0 })
            .collect();
        // Node 0 (receiver) powers down after 5 s; node 1 sends for 60 s.
        let protos = vec![
            Sleeper {
                off_at: Some(SimDuration::from_secs(5)),
                to_send: 0,
                period: SimDuration::from_millis(500),
                received: 0,
                acked: 0,
                failed: 0,
            },
            Sleeper {
                off_at: None,
                to_send: 60,
                period: SimDuration::from_millis(500),
                received: 0,
                acked: 0,
                failed: 0,
            },
        ];
        let mut e = Engine::new(topo, &models, MacConfig::default(), hub, protos, 1);
        e.start();
        e.run_for(SimDuration::from_secs(60));
        assert!(!e.radio_on(NodeId(0)));
        let rx = e.protocol(NodeId(0));
        let tx = e.protocol(NodeId(1));
        // Early sends succeeded; after power-down everything fails.
        assert!(rx.received >= 5, "received {}", rx.received);
        assert!(tx.acked >= 5, "acked {}", tx.acked);
        assert!(tx.failed >= 40, "failed {}", tx.failed);
        assert_eq!(tx.acked + tx.failed, 60);
        // Channel truth not polluted by dead-receiver attempts: the link
        // PRR stays 1.0 on the samples actually drawn.
        let link = e.topology().link_id(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(e.trace().links()[link].empirical_prr(), Some(1.0));
    }

    #[test]
    fn radio_off_sender_drops_frames() {
        let hub = RngHub::new(78);
        let topo = Arc::new(Topology::generate(
            Placement::Line { n: 2, spacing: 5.0 },
            &RadioModel::default(),
            &hub,
        ));
        let models: Vec<LossModel> = topo
            .links()
            .iter()
            .map(|_| LossModel::Bernoulli { prr: 1.0 })
            .collect();
        // Sender powers down immediately, then tries to send.
        let protos = vec![
            Sleeper {
                off_at: None,
                to_send: 0,
                period: SimDuration::from_millis(500),
                received: 0,
                acked: 0,
                failed: 0,
            },
            Sleeper {
                off_at: Some(SimDuration::from_millis(1)),
                to_send: 10,
                period: SimDuration::from_millis(500),
                received: 0,
                acked: 0,
                failed: 0,
            },
        ];
        let mut e = Engine::new(topo, &models, MacConfig::default(), hub, protos, 1);
        e.start();
        e.run_for(SimDuration::from_secs(30));
        let tx = e.protocol(NodeId(1));
        assert_eq!(tx.acked, 0);
        assert_eq!(tx.failed, 10, "all sends dropped in the driver");
        assert_eq!(e.protocol(NodeId(0)).received, 0);
        assert!(e.trace().queue_drops >= 10);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut e = two_node_engine(1.0, 1);
        e.start();
        e.run_until(SimTime::from_micros(10_000_000));
        assert_eq!(e.now(), SimTime::from_micros(10_000_000));
    }

    #[test]
    #[should_panic(expected = "already started")]
    fn double_start_panics() {
        let mut e = two_node_engine(1.0, 0);
        e.start();
        e.start();
    }

    /// Broadcast smoke test: one node beacons, neighbors receive.
    struct Beaconer {
        sent: bool,
        got: u32,
    }

    impl Protocol for Beaconer {
        fn on_init(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.node_id() == NodeId(0) {
                ctx.set_timer(SimDuration::from_millis(10), TimerId(1));
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId) {
            ctx.send_broadcast(Arc::new(()), 20);
            self.sent = true;
        }
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, frame: &Frame) {
            assert!(frame.is_broadcast);
            assert_eq!(frame.attempt, 1);
            self.got += 1;
        }
    }

    #[test]
    fn broadcast_reaches_neighbors() {
        let hub = RngHub::new(11);
        let topo = Arc::new(Topology::generate(
            Placement::Grid {
                side: 3,
                spacing: 8.0,
            },
            &RadioModel::default(),
            &hub,
        ));
        let models: Vec<LossModel> = topo
            .links()
            .iter()
            .map(|_| LossModel::Bernoulli { prr: 1.0 })
            .collect();
        let n_neighbors = topo.neighbors(NodeId(0)).len();
        let protos = (0..topo.node_count())
            .map(|_| Beaconer {
                sent: false,
                got: 0,
            })
            .collect();
        let mut e = Engine::new(topo, &models, MacConfig::default(), hub, protos, 1);
        e.start();
        e.run_for(SimDuration::from_secs(1));
        let total: u32 = (0..e.topology().node_count())
            .map(|i| e.protocol(NodeId::from_index(i)).got)
            .sum();
        assert_eq!(total as usize, n_neighbors);
        assert_eq!(e.trace().broadcast_tx, 1);
        assert_eq!(e.trace().broadcast_rx, total as u64);
    }

    /// Node 2 broadcasts once; receivers answer every frame with a
    /// zero-delay timer.
    struct Echo;

    impl Protocol for Echo {
        fn on_init(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.node_id() == NodeId(2) {
                ctx.set_timer(SimDuration::from_millis(10), TimerId(1));
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId) {
            if timer == TimerId(1) {
                ctx.send_broadcast(Arc::new(()), 20);
            }
        }
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, _frame: &Frame) {
            ctx.set_timer(SimDuration::ZERO, TimerId(2));
        }
    }

    /// Journals deliveries and timer fires.
    struct Journal(Mutex<Vec<String>>);

    impl Observer for Journal {
        fn on_event(&self, _now: SimTime, ev: &Event) {
            match ev {
                Event::Rx(e) => self.0.lock().push(format!("rx@{}", e.dst)),
                Event::Timer(e) => self.0.lock().push(format!("timer@{}", e.node)),
                _ => {}
            }
        }
    }

    #[test]
    fn broadcast_batch_yields_to_same_instant_events() {
        // Node 2 broadcasts to nodes 0 and 1. Each receiver's zero-delay
        // timer carries a smaller key than the broadcaster's next copy,
        // so it must run between the two deliveries, exactly as if each
        // copy were its own event. One shard delivers both copies from
        // one batch and calls the observer directly; three shards send
        // each copy through a mailbox and merge buffered events.
        let hub = RngHub::new(5);
        let topo = Arc::new(Topology::generate(
            Placement::Line { n: 3, spacing: 5.0 },
            &RadioModel::default(),
            &hub,
        ));
        let fanout = topo.neighbors(NodeId(2)).to_vec();
        assert_eq!(fanout.len(), 2, "node 2 must reach both other nodes");
        let models: Vec<LossModel> = topo
            .links()
            .iter()
            .map(|_| LossModel::Bernoulli { prr: 1.0 })
            .collect();
        let expected: Vec<String> = std::iter::once("timer@2".to_string())
            .chain(
                fanout
                    .iter()
                    .flat_map(|v| [format!("rx@{}", v.0), format!("timer@{}", v.0)]),
            )
            .collect();
        for shards in [1u16, 3] {
            let protos = (0..3).map(|_| Echo).collect();
            let mut e = Engine::new(
                Arc::clone(&topo),
                &models,
                MacConfig::default(),
                hub,
                protos,
                shards,
            );
            let journal = Arc::new(Journal(Mutex::new(Vec::new())));
            e.set_observer(journal.clone());
            e.start();
            e.run_for(SimDuration::from_secs(1));
            assert_eq!(*journal.0.lock(), expected, "shards={shards}");
        }
    }
}
