//! Structured observability: event tracing and a metrics registry.
//!
//! The simulator's ground-truth [`crate::trace::Trace`] records *what the
//! channel did*; this module records *why a run behaved the way it did*.
//! It has two halves:
//!
//! - **Event tracing.** [`Event`] names every observable event: those of
//!   the engine hot path (tx/rx/ack/drop/timer), those protocol layers
//!   report through [`crate::Ctx::emit`] (parent changes, model-epoch
//!   switches, decode outcomes), and the lifecycle spans that state what
//!   no other event does (origin, forward, corruption, ingest). Each fact
//!   is reported once: a traced frame's tx, rx and drop events carry its
//!   trace id, and a decode or an epoch switch derives its id from its
//!   own fields, so [`Event::trace_id`] and [`Event::node`] place any
//!   event on its object's lifecycle. The [`Observer`] trait receives
//!   each one, sim-time-stamped, through its one method. The engine holds
//!   an `Option<Arc<dyn Observer>>`, so an unobserved run pays only an
//!   untaken branch per event. [`JsonlTracer`] is the standard observer:
//!   it streams one JSON object per event to any writer, with a severity
//!   filter.
//!
//! - **Metrics.** [`MetricsRegistry`] holds named counters, gauges, and
//!   histograms with static label sets, and snapshots them into a
//!   time-series on whatever sim-time cadence the harness chooses.
//!
//! Observers receive `&self` and plain-data event payloads: they cannot
//! reach simulation RNG streams or mutate engine state, so an observed
//! run is bit-identical to an unobserved run of the same seed. The
//! integration tests enforce this zero-perturbation guarantee.

use crate::time::SimTime;
use crate::topology::NodeId;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Event payloads
// ---------------------------------------------------------------------------

/// One physical transmission attempt (unicast attempt or broadcast).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxEvent {
    /// Sending node.
    pub src: u32,
    /// Destination node; `None` for a link-layer broadcast.
    pub dst: Option<u32>,
    /// 1-based attempt number within the ARQ exchange (1 for broadcast).
    pub attempt: u16,
    /// On-air frame size in bytes.
    pub bytes: u32,
    /// Whether the channel delivered this copy (broadcasts report `true`;
    /// per-neighbor outcomes arrive as [`RxEvent`]s).
    pub ok: bool,
    /// Lifecycle trace id of the frame, when its sender traced it.
    pub trace: Option<u64>,
}

/// A frame copy delivered to a node's protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RxEvent {
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Attempt number the delivered copy was sent on.
    pub attempt: u16,
    /// On-air frame size in bytes.
    pub bytes: u32,
    /// Whether the frame was a broadcast.
    pub broadcast: bool,
    /// Lifecycle trace id of the frame, when its sender traced it.
    pub trace: Option<u64>,
}

/// One link-layer ACK attempt back to the data sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AckEvent {
    /// Data sender (the ACK's destination).
    pub src: u32,
    /// Data receiver (the ACK's sender).
    pub dst: u32,
    /// Attempt number being acknowledged.
    pub attempt: u16,
    /// Whether the ACK survived the reverse channel.
    pub ok: bool,
}

/// Why a frame (or a whole exchange) was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// The sending node's radio was off.
    RadioOff,
    /// The MAC transmit queue was full.
    QueueFull,
    /// The ARQ exchange exhausted its attempt budget unacknowledged.
    LinkExhausted,
    /// No physical link exists towards the destination.
    NoLink,
    /// The destination's radio was off for the whole exchange.
    ReceiverOff,
    /// The routing layer had no parent/route for the packet.
    NoRoute,
    /// The packet's TTL/hop budget expired in the network.
    TtlExpired,
    /// The frame was destroyed by injected corruption (truncation or
    /// flips that made it structurally unparseable).
    Corrupt,
}

/// A frame or packet dropped before (or instead of) delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DropEvent {
    /// Node at which the drop happened.
    pub node: u32,
    /// Intended destination, when known.
    pub dst: Option<u32>,
    /// Why the frame died.
    pub reason: DropReason,
    /// Lifecycle trace id of the frame or packet, when it was traced.
    pub trace: Option<u64>,
}

/// A protocol timer fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimerEvent {
    /// Node whose timer fired.
    pub node: u32,
    /// Raw timer id (protocol-defined meaning).
    pub timer: u32,
}

/// A node adopted a (new) routing parent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParentChangeEvent {
    /// Node switching parents.
    pub node: u32,
    /// Previous parent, `None` on first adoption.
    pub old_parent: Option<u32>,
    /// Newly adopted parent.
    pub new_parent: u32,
    /// Path ETX through the new parent at adoption time.
    pub etx: f64,
}

/// The sink published a new model epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochSwitchEvent {
    /// Internal (unwrapped) epoch number now current.
    pub epoch: u64,
}

/// Outcome of decoding one data packet at the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecodeOutcome {
    /// Decoded cleanly.
    Ok,
    /// Packet carried an epoch the sink has no models for.
    UnknownEpoch,
    /// A decoded symbol index fell outside its space.
    BadIndex,
    /// The decoded path disagreed with observed forwarding.
    PathMismatch,
    /// Range-coder failure mid-stream.
    Coding,
    /// A hop had disabled coding (missing epoch models).
    Disabled,
    /// Structural pre-check failure: a header field (origin, length)
    /// was out of range before any decode work started.
    Malformed,
    /// The claimed hop count exceeds what the topology allows.
    BadHopCount,
}

/// A sink-side packet decode finished (successfully or not).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecodeEvent {
    /// Origin node of the packet.
    pub origin: u32,
    /// Origin sequence number.
    pub seq: u32,
    /// Hop count the packet claimed.
    pub hops: u16,
    /// What the decoder concluded.
    pub outcome: DecodeOutcome,
}

// ---------------------------------------------------------------------------
// Causal lifecycle spans
// ---------------------------------------------------------------------------

/// What class of traced object a trace id refers to.
///
/// Trace ids are deterministic 64-bit values whose top two bits encode
/// the kind, so an id alone identifies both the object and its class.
/// They are derived purely from protocol state (origin/sequence numbers,
/// beacon counters, epoch numbers) — never from simulation RNG — so
/// assigning them cannot perturb a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// A data (probe) packet, identified by `(origin, seq)`.
    Data,
    /// A routing beacon, identified by `(node, beacon_seq)`.
    Beacon,
    /// A model-epoch publication, identified by the epoch number.
    Model,
}

impl TraceKind {
    /// Decodes the kind tag from a trace id's top two bits.
    #[must_use]
    pub fn of(trace_id: u64) -> Option<TraceKind> {
        match trace_id >> 62 {
            1 => Some(TraceKind::Data),
            2 => Some(TraceKind::Beacon),
            3 => Some(TraceKind::Model),
            _ => None,
        }
    }

    /// Short lowercase name (`data`/`beacon`/`model`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Data => "data",
            TraceKind::Beacon => "beacon",
            TraceKind::Model => "model",
        }
    }
}

/// Trace id for a data (probe) packet: stable across every hop because
/// it is derived from the origin header, not from per-hop state.
///
/// Layout: tag(2) | origin(30) | seq(32). Node ids are masked to 30 bits;
/// ids past 2^30 would alias in traces only (identification, never
/// simulation state), far above any supported topology.
#[must_use]
pub const fn data_trace_id(origin: u32, seq: u32) -> u64 {
    (1u64 << 62) | (((origin & 0x3FFF_FFFF) as u64) << 32) | seq as u64
}

/// Trace id for a routing beacon, from the sender's beacon counter.
///
/// Layout: tag(2) | node(30) | beacon_seq(32) — the sequence wraps at
/// 2^32 beacons, several simulated years at any sane beacon interval.
#[must_use]
pub const fn beacon_trace_id(node: u32, beacon_seq: u64) -> u64 {
    (2u64 << 62) | (((node & 0x3FFF_FFFF) as u64) << 32) | (beacon_seq & 0xFFFF_FFFF)
}

/// Trace id for a model-epoch publication.
#[must_use]
pub const fn model_trace_id(epoch: u64) -> u64 {
    (3u64 << 62) | (epoch & 0x3FFF_FFFF_FFFF_FFFF)
}

/// A lifecycle step that no other event states. Transmissions,
/// deliveries and drops of a traced frame are [`Event::Tx`],
/// [`Event::Rx`] and [`Event::Drop`] carrying its trace id, and a decode
/// or an epoch switch derives its id (see [`Event::trace_id`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanPhase {
    /// The object was created and handed to the MAC (packet generated,
    /// beacon emitted).
    Origin,
    /// An intermediate node re-enqueued the packet towards its parent.
    Forward {
        /// Next-hop destination.
        to: u32,
    },
    /// The fault layer damaged the frame on receipt.
    Corrupt,
    /// The estimator ingested the decoded per-hop observations.
    Ingest {
        /// Number of per-link observations extracted.
        observations: u16,
    },
}

/// A causal lifecycle span: one phase of one traced object at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Deterministic id shared by every span of the same object.
    pub trace_id: u64,
    /// Node at which the phase happened.
    pub node: u32,
    /// Which lifecycle step this is.
    pub phase: SpanPhase,
}

/// Any observable event, tagged by kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// Transmission attempt.
    Tx(TxEvent),
    /// Frame delivery.
    Rx(RxEvent),
    /// ACK attempt.
    Ack(AckEvent),
    /// Drop.
    Drop(DropEvent),
    /// Timer fire.
    Timer(TimerEvent),
    /// Routing parent change.
    ParentChange(ParentChangeEvent),
    /// Model epoch switch.
    EpochSwitch(EpochSwitchEvent),
    /// Sink decode outcome.
    Decode(DecodeEvent),
    /// Causal lifecycle span.
    Span(SpanEvent),
}

/// Coarse importance level used for trace filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Per-frame detail (tx/rx/ack/timer).
    Debug,
    /// State transitions worth seeing at a glance.
    Info,
    /// Losses and failures.
    Warn,
}

/// Which subsystem an event belongs to (the `category` of its trace line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Category {
    /// MAC/channel events (tx, rx, ack, link drops).
    Mac,
    /// Engine-level events (timers).
    Engine,
    /// Routing events (parent changes, route drops).
    Routing,
    /// Model/epoch lifecycle events.
    Model,
    /// Sink decode events.
    Decode,
    /// Causal packet-lifecycle spans.
    Lifecycle,
}

impl Event {
    /// Severity of this event for filtering.
    #[must_use]
    pub fn severity(&self) -> Severity {
        match self {
            Event::Tx(_) | Event::Rx(_) | Event::Ack(_) | Event::Timer(_) => Severity::Debug,
            Event::ParentChange(_) | Event::EpochSwitch(_) => Severity::Info,
            Event::Drop(_) => Severity::Warn,
            Event::Decode(e) => {
                if e.outcome == DecodeOutcome::Ok {
                    Severity::Debug
                } else {
                    Severity::Warn
                }
            }
            Event::Span(e) => {
                if e.phase == SpanPhase::Corrupt {
                    Severity::Warn
                } else {
                    Severity::Debug
                }
            }
        }
    }

    /// Subsystem category of this event.
    #[must_use]
    pub fn category(&self) -> Category {
        match self {
            Event::Tx(_) | Event::Rx(_) | Event::Ack(_) => Category::Mac,
            Event::Timer(_) => Category::Engine,
            Event::Drop(e) => match e.reason {
                DropReason::NoRoute | DropReason::TtlExpired => Category::Routing,
                _ => Category::Mac,
            },
            Event::ParentChange(_) => Category::Routing,
            Event::EpochSwitch(_) => Category::Model,
            Event::Decode(_) => Category::Decode,
            Event::Span(_) => Category::Lifecycle,
        }
    }

    /// The lifecycle this event belongs to: a traced frame's tx, rx or
    /// drop carries its id, a decode derives its packet's
    /// [`data_trace_id`], an epoch switch its [`model_trace_id`], and a
    /// span has its own. Acks, timers and parent changes have none.
    #[must_use]
    pub fn trace_id(&self) -> Option<u64> {
        match self {
            Event::Tx(e) => e.trace,
            Event::Rx(e) => e.trace,
            Event::Drop(e) => e.trace,
            Event::Decode(e) => Some(data_trace_id(e.origin, e.seq)),
            Event::EpochSwitch(e) => Some(model_trace_id(e.epoch)),
            Event::Span(e) => Some(e.trace_id),
            Event::Ack(_) | Event::Timer(_) | Event::ParentChange(_) => None,
        }
    }

    /// The node the event happened at: the sender of a tx, the receiver
    /// of an rx, the data receiver (the ACK's sender) of an ack, and the
    /// sink for a decode or an epoch switch.
    #[must_use]
    pub fn node(&self) -> NodeId {
        match self {
            Event::Tx(e) => NodeId(e.src),
            Event::Rx(e) => NodeId(e.dst),
            Event::Ack(e) => NodeId(e.dst),
            Event::Drop(e) => NodeId(e.node),
            Event::Timer(e) => NodeId(e.node),
            Event::ParentChange(e) => NodeId(e.node),
            Event::Span(e) => NodeId(e.node),
            Event::Decode(_) | Event::EpochSwitch(_) => NodeId::SINK,
        }
    }
}

// ---------------------------------------------------------------------------
// Observer
// ---------------------------------------------------------------------------

/// Receives structured events from the engine and protocol layers.
///
/// An observer matches on the [`Event`] kinds it cares about and ignores
/// the rest. `on_event` takes `&self`: observers are shared (`Arc`)
/// across the engine and protocol layers and must do their own interior
/// synchronisation. They receive plain data and cannot perturb the
/// simulation.
pub trait Observer: Send + Sync {
    /// `ev` happened at simulated time `now`.
    fn on_event(&self, now: SimTime, ev: &Event);
}

// ---------------------------------------------------------------------------
// JsonlTracer
// ---------------------------------------------------------------------------

/// One line of a JSONL trace: sim-time-stamped, severity/category tagged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Simulated time in microseconds.
    pub t_us: u64,
    /// Severity of the event.
    pub severity: Severity,
    /// Subsystem category of the event.
    pub category: Category,
    /// The event payload.
    pub event: Event,
}

/// Observer streaming events as JSON Lines to a writer.
///
/// Each retained event becomes one [`TraceRecord`] serialized on its own
/// line. Events below the minimum severity are skipped before any
/// serialization work happens. Write errors are counted, not propagated —
/// tracing must never abort a simulation.
pub struct JsonlTracer<W: Write + Send> {
    out: Mutex<W>,
    min_severity: Severity,
    lines: AtomicU64,
    io_errors: AtomicU64,
}

impl<W: Write + Send> JsonlTracer<W> {
    /// Tracer writing every event to `out`.
    pub fn new(out: W) -> Self {
        Self {
            out: Mutex::new(out),
            min_severity: Severity::Debug,
            lines: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        }
    }

    /// Keeps only events at or above `min` severity.
    #[must_use]
    pub fn with_min_severity(mut self, min: Severity) -> Self {
        self.min_severity = min;
        self
    }

    /// Lines successfully written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines.load(Ordering::Relaxed)
    }

    /// Write errors swallowed so far (a healthy run reports 0).
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) {
        if self.out.lock().flush().is_err() {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Consumes the tracer, returning the writer (flushed).
    pub fn into_inner(self) -> W {
        let mut w = self.out.into_inner();
        let _ = w.flush();
        w
    }

    fn emit(&self, now: SimTime, event: Event) {
        let severity = event.severity();
        if severity < self.min_severity {
            return;
        }
        let record = TraceRecord {
            t_us: now.as_micros(),
            severity,
            category: event.category(),
            event,
        };
        let Ok(line) = serde_json::to_string(&record) else {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let mut out = self.out.lock();
        if writeln!(out, "{line}").is_ok() {
            self.lines.fetch_add(1, Ordering::Relaxed);
        } else {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl<W: Write + Send> Observer for JsonlTracer<W> {
    fn on_event(&self, now: SimTime, ev: &Event) {
        self.emit(now, *ev);
    }
}

// ---------------------------------------------------------------------------
// CountingObserver
// ---------------------------------------------------------------------------

/// Snapshot of per-kind event totals from a [`CountingObserver`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCounts {
    /// Transmission attempts.
    pub tx: u64,
    /// Frame deliveries.
    pub rx: u64,
    /// ACK attempts.
    pub ack: u64,
    /// Drops.
    pub drops: u64,
    /// Timer fires.
    pub timers: u64,
    /// Parent changes.
    pub parent_changes: u64,
    /// Epoch switches.
    pub epoch_switches: u64,
    /// Decode outcomes.
    pub decodes: u64,
    /// Causal lifecycle spans.
    pub spans: u64,
}

/// Observer tallying event totals and per-link activity.
///
/// Useful for quick diagnostics ("which links are noisy?") without the
/// cost of a full JSONL trace.
#[derive(Default)]
pub struct CountingObserver {
    tx: AtomicU64,
    rx: AtomicU64,
    ack: AtomicU64,
    drops: AtomicU64,
    timers: AtomicU64,
    parent_changes: AtomicU64,
    epoch_switches: AtomicU64,
    decodes: AtomicU64,
    spans: AtomicU64,
    /// Events per directed link `(src, dst)`: unicast tx attempts,
    /// deliveries, acks and drops with a known destination.
    link_events: Mutex<BTreeMap<(u32, u32), u64>>,
}

impl CountingObserver {
    /// New observer with all counts at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current totals.
    pub fn counts(&self) -> EventCounts {
        EventCounts {
            tx: self.tx.load(Ordering::Relaxed),
            rx: self.rx.load(Ordering::Relaxed),
            ack: self.ack.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            timers: self.timers.load(Ordering::Relaxed),
            parent_changes: self.parent_changes.load(Ordering::Relaxed),
            epoch_switches: self.epoch_switches.load(Ordering::Relaxed),
            decodes: self.decodes.load(Ordering::Relaxed),
            spans: self.spans.load(Ordering::Relaxed),
        }
    }

    /// Directed links ranked by event count, busiest first.
    pub fn noisiest_links(&self, top: usize) -> Vec<((u32, u32), u64)> {
        let map = self.link_events.lock();
        let mut v: Vec<_> = map.iter().map(|(&k, &n)| (k, n)).collect();
        // Count descending, link id ascending for deterministic ties.
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(top);
        v
    }
}

impl Observer for CountingObserver {
    fn on_event(&self, _now: SimTime, ev: &Event) {
        let (count, link) = match ev {
            Event::Tx(e) => (&self.tx, e.dst.map(|dst| (e.src, dst))),
            Event::Rx(e) => (&self.rx, Some((e.src, e.dst))),
            Event::Ack(e) => (&self.ack, Some((e.src, e.dst))),
            Event::Drop(e) => (&self.drops, e.dst.map(|dst| (e.node, dst))),
            Event::Timer(_) => (&self.timers, None),
            Event::ParentChange(_) => (&self.parent_changes, None),
            Event::EpochSwitch(_) => (&self.epoch_switches, None),
            Event::Decode(_) => (&self.decodes, None),
            Event::Span(_) => (&self.spans, None),
        };
        count.fetch_add(1, Ordering::Relaxed);
        if let Some(link) = link {
            *self.link_events.lock().entry(link).or_insert(0) += 1;
        }
    }
}

/// Fans events out to several observers in order.
#[derive(Default)]
pub struct MultiObserver {
    observers: Vec<std::sync::Arc<dyn Observer>>,
}

impl MultiObserver {
    /// Builds a fan-out over `observers`.
    #[must_use]
    pub fn new(observers: Vec<std::sync::Arc<dyn Observer>>) -> Self {
        Self { observers }
    }
}

impl Observer for MultiObserver {
    fn on_event(&self, now: SimTime, ev: &Event) {
        for o in &self.observers {
            o.on_event(now, ev);
        }
    }
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

/// Fixed-size ring of the most recent observer events, for postmortems.
///
/// The recorder keeps the last `capacity` events (every kind, trace ids
/// included) as [`TraceRecord`]s. When a run
/// dies inside the executor's `catch_unwind` cell isolation, the harness
/// calls [`FlightRecorder::dump_postmortem`] to write the tail as JSONL —
/// a header line describing the failure, then one record per line, oldest
/// first. Recording is bounded-memory and lock-scoped per event, so the
/// recorder is safe to leave attached to long runs.
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<TraceRecord>>,
    total: AtomicU64,
    output: Option<PathBuf>,
}

/// Default number of events a [`FlightRecorder`] retains.
pub const FLIGHT_RECORDER_DEFAULT_CAPACITY: usize = 256;

impl FlightRecorder {
    /// Recorder retaining the last `capacity` events (no output path;
    /// dump via [`FlightRecorder::write_postmortem`] or `tail`).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            total: AtomicU64::new(0),
            output: None,
        }
    }

    /// Recorder that dumps its postmortem to `path` on failure.
    #[must_use]
    pub fn with_output(capacity: usize, path: impl Into<PathBuf>) -> Self {
        let mut r = Self::new(capacity);
        r.output = Some(path.into());
        r
    }

    /// Maximum number of events retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events seen (retained + evicted).
    pub fn total_recorded(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The retained tail, oldest first.
    pub fn tail(&self) -> Vec<TraceRecord> {
        self.ring.lock().iter().cloned().collect()
    }

    fn record(&self, now: SimTime, event: Event) {
        let record = TraceRecord {
            t_us: now.as_micros(),
            severity: event.severity(),
            category: event.category(),
            event,
        };
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Writes the postmortem to `w`: one header line (`{"postmortem":...}`
    /// with the failing cell label, error text, and ring statistics),
    /// then the retained tail as one [`TraceRecord`] JSON object per
    /// line, oldest first. Returns the number of event lines written.
    pub fn write_postmortem<W: Write>(
        &self,
        mut w: W,
        label: &str,
        error: &str,
    ) -> std::io::Result<u64> {
        let tail = self.tail();
        let header = serde::Value::Object(vec![(
            "postmortem".to_string(),
            serde::Value::Object(vec![
                ("label".to_string(), serde::Value::String(label.to_string())),
                ("error".to_string(), serde::Value::String(error.to_string())),
                ("events".to_string(), serde::Value::UInt(tail.len() as u64)),
                (
                    "total_recorded".to_string(),
                    serde::Value::UInt(self.total_recorded()),
                ),
                (
                    "capacity".to_string(),
                    serde::Value::UInt(self.capacity as u64),
                ),
            ]),
        )]);
        let header = serde_json::to_string(&header)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        writeln!(w, "{header}")?;
        let mut n = 0u64;
        for rec in &tail {
            let line = serde_json::to_string(rec)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            writeln!(w, "{line}")?;
            n += 1;
        }
        w.flush()?;
        Ok(n)
    }

    /// Dumps the postmortem to the configured output path (if any).
    /// Returns the path written, or `None` when no path was configured
    /// or the write failed (failures are reported on stderr — a crashing
    /// run must not lose its original error to a dump error).
    pub fn dump_postmortem(&self, label: &str, error: &str) -> Option<&Path> {
        let path = self.output.as_deref()?;
        match std::fs::File::create(path)
            .and_then(|f| self.write_postmortem(std::io::BufWriter::new(f), label, error))
        {
            Ok(n) => {
                eprintln!(
                    "flight recorder: wrote {} events to {} for failed cell '{}'",
                    n,
                    path.display(),
                    label
                );
                Some(path)
            }
            Err(e) => {
                eprintln!(
                    "flight recorder: failed to write postmortem to {}: {e}",
                    path.display()
                );
                None
            }
        }
    }
}

impl Observer for FlightRecorder {
    fn on_event(&self, now: SimTime, ev: &Event) {
        self.record(now, *ev);
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Histogram with power-of-two buckets plus count/sum/min/max.
///
/// Bucket `i` counts observations with value ≤ 2^i (last bucket is
/// unbounded), which is plenty of resolution for queue depths, retry
/// counts, and byte sizes while keeping snapshots tiny.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (`NaN` until the first observation).
    pub min: f64,
    /// Largest observed value (`NaN` until the first observation).
    pub max: f64,
    /// Cumulative-style bucket counts; bucket `i` holds observations in
    /// `(2^(i-1), 2^i]` (bucket 0: ≤ 1; final bucket: everything larger).
    pub buckets: Vec<u64>,
}

/// Number of histogram buckets (≤1, ≤2, …, ≤2^16, +∞).
const HIST_BUCKETS: usize = 18;

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::NAN,
            max: f64::NAN,
            buckets: vec![0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        // `min`/`max` start as NaN; `f64::min`/`max` ignore the NaN side,
        // so the first observation initialises both.
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let mut idx = 0usize;
        let mut bound = 1.0f64;
        while idx + 1 < HIST_BUCKETS && value > bound {
            bound *= 2.0;
            idx += 1;
        }
        self.buckets[idx] += 1;
    }

    /// Mean of observed values (`NaN` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One timestamped snapshot of every metric in the registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Simulated time of the snapshot, in microseconds.
    pub t_us: u64,
    /// Counter values, sorted by metric key.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by metric key.
    pub gauges: Vec<(String, f64)>,
    /// Histogram states, sorted by metric key.
    pub histograms: Vec<(String, Histogram)>,
}

/// Named counters, gauges, and histograms with static label sets,
/// sampled into a time series of [`MetricsSnapshot`]s.
///
/// Metric identity is `name` plus a set of `(label, value)` pairs,
/// rendered as `name{k=v,...}` with labels sorted — so snapshot contents
/// are deterministic regardless of registration order.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    series: Vec<MetricsSnapshot>,
}

impl MetricsRegistry {
    /// Empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Canonical metric key: `name{k=v,...}` with labels sorted by key.
    #[must_use]
    pub fn key(name: &str, labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return name.to_string();
        }
        let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
        sorted.sort();
        let body: Vec<String> = sorted.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{name}{{{}}}", body.join(","))
    }

    /// Adds `delta` to a counter (created at zero on first touch).
    pub fn inc_counter(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        *self.counters.entry(Self::key(name, labels)).or_insert(0) += delta;
    }

    /// Sets a counter to an absolute cumulative value — for sampling
    /// sources that already maintain monotone totals.
    pub fn set_counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.counters.insert(Self::key(name, labels), value);
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.gauges.insert(Self::key(name, labels), value);
    }

    /// Records `value` into a histogram.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.histograms
            .entry(Self::key(name, labels))
            .or_default()
            .observe(value);
    }

    /// Replaces a histogram with an externally aggregated state — for
    /// sources (like the self-profiler) that maintain their own buckets
    /// and are sampled wholesale into the registry.
    pub fn set_histogram(&mut self, name: &str, labels: &[(&str, &str)], hist: Histogram) {
        self.histograms.insert(Self::key(name, labels), hist);
    }

    /// Current value of a counter, if it exists.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters.get(&Self::key(name, labels)).copied()
    }

    /// Current value of a gauge, if it exists.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&Self::key(name, labels)).copied()
    }

    /// Current state of a histogram, if it exists.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        self.histograms.get(&Self::key(name, labels))
    }

    /// Captures the current state of every metric as a snapshot at sim
    /// time `now` and appends it to the series.
    pub fn snapshot(&mut self, now: SimTime) -> &MetricsSnapshot {
        let snap = MetricsSnapshot {
            t_us: now.as_micros(),
            counters: self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            gauges: self.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        };
        self.series.push(snap);
        self.series.last().expect("just pushed")
    }

    /// The snapshot series captured so far.
    #[must_use]
    pub fn series(&self) -> &[MetricsSnapshot] {
        &self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn counter_semantics() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("tx", &[]), None);
        m.inc_counter("tx", &[], 2);
        m.inc_counter("tx", &[], 3);
        assert_eq!(m.counter("tx", &[]), Some(5));
        // Different label sets are distinct series.
        m.inc_counter("tx", &[("node", "1")], 1);
        assert_eq!(m.counter("tx", &[]), Some(5));
        assert_eq!(m.counter("tx", &[("node", "1")]), Some(1));
    }

    #[test]
    fn gauge_overwrites() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("depth", &[("node", "3")], 4.0);
        m.set_gauge("depth", &[("node", "3")], 1.0);
        assert_eq!(m.gauge("depth", &[("node", "3")]), Some(1.0));
    }

    #[test]
    fn histogram_semantics() {
        let mut m = MetricsRegistry::new();
        for v in [0.5, 1.0, 3.0, 100.0] {
            m.observe("retries", &[], v);
        }
        let h = m.histogram("retries", &[]).unwrap();
        assert_eq!(h.count, 4);
        assert!((h.sum - 104.5).abs() < 1e-9);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 100.0);
        assert!((h.mean() - 26.125).abs() < 1e-9);
        // 0.5 and 1.0 land in bucket 0 (≤1), 3.0 in bucket 2 (≤4),
        // 100.0 in bucket 7 (≤128).
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[7], 1);
    }

    #[test]
    fn label_order_does_not_matter() {
        let a = MetricsRegistry::key("m", &[("a", "1"), ("b", "2")]);
        let b = MetricsRegistry::key("m", &[("b", "2"), ("a", "1")]);
        assert_eq!(a, b);
        assert_eq!(a, "m{a=1,b=2}");
    }

    #[test]
    fn snapshots_are_deterministic_and_ordered() {
        let build = || {
            let mut m = MetricsRegistry::new();
            m.inc_counter("b_count", &[], 1);
            m.inc_counter("a_count", &[], 2);
            m.set_gauge("z_gauge", &[("node", "2")], 0.5);
            m.set_gauge("z_gauge", &[("node", "10")], 0.25);
            m.observe("h", &[], 3.0);
            m.snapshot(t(1_000_000)).clone()
        };
        let (s1, s2) = (build(), build());
        assert_eq!(s1, s2);
        assert_eq!(s1.t_us, 1_000_000);
        let names: Vec<&str> = s1.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["a_count", "b_count"]);
        // Snapshot JSON is byte-stable too.
        assert_eq!(
            serde_json::to_string(&s1).unwrap(),
            serde_json::to_string(&s2).unwrap()
        );
    }

    #[test]
    fn series_accumulates() {
        let mut m = MetricsRegistry::new();
        m.inc_counter("c", &[], 1);
        m.snapshot(t(1));
        m.inc_counter("c", &[], 1);
        m.snapshot(t(2));
        assert_eq!(m.series().len(), 2);
        assert_eq!(m.series()[0].counters[0].1, 1);
        assert_eq!(m.series()[1].counters[0].1, 2);
    }

    #[test]
    fn tracer_filters_and_emits_parseable_lines() {
        let tracer = JsonlTracer::new(Vec::new()).with_min_severity(Severity::Info);
        let now = t(42);
        tracer.on_event(
            now,
            &Event::Tx(TxEvent {
                src: 1,
                dst: Some(0),
                attempt: 1,
                bytes: 40,
                ok: true,
                trace: None,
            }),
        );
        tracer.on_event(
            now,
            &Event::ParentChange(ParentChangeEvent {
                node: 3,
                old_parent: None,
                new_parent: 0,
                etx: 1.5,
            }),
        );
        assert_eq!(tracer.lines_written(), 1, "debug tx must be filtered");
        let buf = tracer.into_inner();
        let text = String::from_utf8(buf).unwrap();
        let rec: TraceRecord = serde_json::from_str(text.trim()).unwrap();
        assert_eq!(rec.t_us, 42);
        assert_eq!(rec.category, Category::Routing);
        match rec.event {
            Event::ParentChange(e) => assert_eq!(e.new_parent, 0),
            other => panic!("wrong event: {other:?}"),
        }
    }

    #[test]
    fn trace_ids_encode_kind_and_identity() {
        let d = data_trace_id(7, 42);
        let b = beacon_trace_id(7, 42);
        let m = model_trace_id(42);
        assert_eq!(TraceKind::of(d), Some(TraceKind::Data));
        assert_eq!(TraceKind::of(b), Some(TraceKind::Beacon));
        assert_eq!(TraceKind::of(m), Some(TraceKind::Model));
        assert_eq!(TraceKind::of(0), None);
        // Distinct objects get distinct ids; same object gets the same id.
        assert_ne!(d, b);
        assert_ne!(d, data_trace_id(7, 43));
        assert_eq!(d, data_trace_id(7, 42));
    }

    #[test]
    fn span_records_round_trip_and_filter() {
        let tracer = JsonlTracer::new(Vec::new()).with_min_severity(Severity::Warn);
        let now = t(5);
        let ok_span = SpanEvent {
            trace_id: data_trace_id(3, 1),
            node: 3,
            phase: SpanPhase::Origin,
        };
        let corrupt_span = SpanEvent {
            trace_id: data_trace_id(3, 1),
            node: 2,
            phase: SpanPhase::Corrupt,
        };
        tracer.on_event(now, &Event::Span(ok_span));
        tracer.on_event(now, &Event::Span(corrupt_span));
        assert_eq!(tracer.lines_written(), 1, "debug span must be filtered");
        let text = String::from_utf8(tracer.into_inner()).unwrap();
        let rec: TraceRecord = serde_json::from_str(text.trim()).unwrap();
        assert_eq!(rec.category, Category::Lifecycle);
        assert_eq!(rec.severity, Severity::Warn);
        assert_eq!(rec.event, Event::Span(corrupt_span));
    }

    #[test]
    fn trace_id_and_node_of_every_kind() {
        // Events as a JSONL trace records them; `ID` stands for `id`.
        let id = data_trace_id(4, 9);
        let events = [
            r#"{"Tx":{"src":4,"dst":2,"attempt":1,"bytes":40,"ok":true,"trace":ID}}"#,
            r#"{"Tx":{"src":5,"dst":null,"attempt":1,"bytes":20,"ok":true,"trace":null}}"#,
            r#"{"Rx":{"src":4,"dst":2,"attempt":2,"bytes":40,"broadcast":false,"trace":ID}}"#,
            r#"{"Ack":{"src":4,"dst":2,"attempt":2,"ok":true}}"#,
            r#"{"Drop":{"node":2,"dst":1,"reason":"LinkExhausted","trace":ID}}"#,
            r#"{"Drop":{"node":3,"dst":null,"reason":"NoRoute","trace":null}}"#,
            r#"{"Timer":{"node":6,"timer":1}}"#,
            r#"{"ParentChange":{"node":7,"old_parent":null,"new_parent":0,"etx":1.0}}"#,
            r#"{"EpochSwitch":{"epoch":3}}"#,
            r#"{"Decode":{"origin":4,"seq":9,"hops":2,"outcome":"Ok"}}"#,
            r#"{"Span":{"trace_id":ID,"node":1,"phase":{"Forward":{"to":0}}}}"#,
        ];
        let want = [
            (Some(id), 4),
            (None, 5),
            (Some(id), 2),
            (None, 2),
            (Some(id), 2),
            (None, 3),
            (None, 6),
            (None, 7),
            (Some(model_trace_id(3)), 0),
            (Some(id), 0),
            (Some(id), 1),
        ];
        for (json, (trace, node)) in events.iter().zip(want) {
            let ev: Event = serde_json::from_str(&json.replace("ID", &id.to_string())).unwrap();
            assert_eq!(ev.trace_id(), trace, "{json}");
            assert_eq!(ev.node(), NodeId(node), "{json}");
        }
    }

    #[test]
    fn flight_recorder_dumps_tail_on_injected_panic() {
        let rec = FlightRecorder::new(4);
        let now = t(1);
        // More events than capacity: only the newest four must survive.
        for seq in 0..8u32 {
            rec.on_event(
                now,
                &Event::Span(SpanEvent {
                    trace_id: data_trace_id(1, seq),
                    node: 1,
                    phase: SpanPhase::Origin,
                }),
            );
        }
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for seq in 8..10u32 {
                rec.on_event(
                    now,
                    &Event::Span(SpanEvent {
                        trace_id: data_trace_id(1, seq),
                        node: 1,
                        phase: SpanPhase::Origin,
                    }),
                );
            }
            panic!("injected failure");
        }));
        assert!(panicked.is_err());

        let mut buf = Vec::new();
        let n = rec
            .write_postmortem(&mut buf, "unit-cell", "injected failure")
            .unwrap();
        assert_eq!(n, 4);
        assert_eq!(rec.total_recorded(), 10);

        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "header + 4 events");
        let header: serde::Value = serde_json::from_str(lines[0]).unwrap();
        let pm = serde::find_field(header.as_object().unwrap(), "postmortem")
            .and_then(serde::Value::as_object)
            .unwrap();
        assert_eq!(
            serde::find_field(pm, "error").and_then(serde::Value::as_str),
            Some("injected failure")
        );
        assert_eq!(
            serde::find_field(pm, "events"),
            Some(&serde::Value::UInt(4))
        );
        // The tail is exactly the last four spans, in order, trace ids intact.
        for (i, line) in lines[1..].iter().enumerate() {
            let rec: TraceRecord = serde_json::from_str(line).unwrap();
            match rec.event {
                Event::Span(s) => assert_eq!(s.trace_id, data_trace_id(1, 6 + i as u32)),
                other => panic!("unexpected event in tail: {other:?}"),
            }
        }
    }

    #[test]
    fn counting_observer_ranks_links() {
        let c = CountingObserver::new();
        let now = t(0);
        for _ in 0..3 {
            c.on_event(
                now,
                &Event::Tx(TxEvent {
                    src: 1,
                    dst: Some(0),
                    attempt: 1,
                    bytes: 40,
                    ok: false,
                    trace: None,
                }),
            );
        }
        c.on_event(
            now,
            &Event::Rx(RxEvent {
                src: 2,
                dst: 0,
                attempt: 1,
                bytes: 40,
                broadcast: false,
                trace: None,
            }),
        );
        let top = c.noisiest_links(5);
        assert_eq!(top[0], ((1, 0), 3));
        assert_eq!(top[1], ((2, 0), 1));
        assert_eq!(c.counts().tx, 3);
        assert_eq!(c.counts().rx, 1);
    }
}
