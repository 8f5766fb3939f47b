//! Chrome-trace / Perfetto exporter for traced lifecycles.
//!
//! [`ChromeTracer`] is an [`Observer`] that renders every event with a
//! trace id (see [`Event::trace_id`]) into the Chrome trace-event JSON
//! array format, so a simulation run can be scrubbed visually in
//! `chrome://tracing` or [Perfetto]. Each such event becomes a complete
//! (`"ph":"X"`) event named for its lifecycle step (`origin`, `tx`,
//! `deliver`, `forward`, `corrupt`, `drop`, `decode`, `ingest`) on the
//! track of the node it happened at (`tid` = [`Event::node`]), and
//! consecutive steps of the same trace id are stitched together with flow
//! events (`"ph":"s"`/`"t"`) so the UI draws arrows along a packet's path
//! through the network.
//!
//! Timestamps are **simulated** microseconds — the exporter visualises
//! causality in sim time, not wall time.
//!
//! Large runs trace millions of steps; [`ChromeTracer::with_sampling`]
//! keeps 1-in-N *trace ids* (whole lifecycles, never partial ones) by
//! hashing the id, so sampled traces stay causally complete.
//!
//! Events are rendered by hand rather than through the serde stand-in:
//! every field is a fixed-name string, an integer, or a hex id, so no
//! escaping is needed and the output is byte-deterministic.
//!
//! [Perfetto]: https://ui.perfetto.dev
use crate::obs::{Event, Observer, SpanPhase, TraceKind};
use crate::rng::splitmix64;
use crate::time::SimTime;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};

struct State<W: Write + Send> {
    out: W,
    wrote_any: bool,
    finished: bool,
    /// Trace ids already seen, to pick flow-start vs flow-step.
    seen: HashSet<u64>,
}

/// Observer exporting traced lifecycle steps as Chrome-trace JSON; it
/// ignores every event without a trace id.
///
/// The output is a single JSON array, written incrementally; call
/// [`ChromeTracer::finish`] after the run to close the array (dropping
/// the tracer without finishing leaves a truncated file). Write errors
/// are counted, never propagated — tracing must not abort a simulation.
pub struct ChromeTracer<W: Write + Send> {
    state: Mutex<State<W>>,
    /// Keep trace ids where `splitmix64(id) % sample == 0`; 1 keeps all.
    sample: u64,
    events: AtomicU64,
    io_errors: AtomicU64,
}

impl<W: Write + Send> ChromeTracer<W> {
    /// Tracer exporting every traced event to `out`.
    pub fn new(out: W) -> Self {
        Self::with_sampling(out, 1)
    }

    /// Tracer keeping roughly 1-in-`sample` trace ids (0 acts as 1).
    /// Sampling is by trace id, so a kept lifecycle is always complete.
    pub fn with_sampling(out: W, sample: u64) -> Self {
        Self {
            state: Mutex::new(State {
                out,
                wrote_any: false,
                finished: false,
                seen: HashSet::new(),
            }),
            sample: sample.max(1),
            events: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        }
    }

    /// Trace events successfully written so far.
    pub fn events_written(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Write/serialization errors swallowed so far (healthy run: 0).
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Whether an event with this trace id would be exported.
    #[must_use]
    pub fn keeps(&self, trace_id: u64) -> bool {
        self.sample <= 1 || splitmix64(trace_id).is_multiple_of(self.sample)
    }

    /// Closes the JSON array and flushes. Idempotent; returns `false`
    /// if the closing write failed (also counted in [`Self::io_errors`]).
    pub fn finish(&self) -> bool {
        let mut st = self.state.lock();
        if st.finished {
            return true;
        }
        st.finished = true;
        let ok = if st.wrote_any {
            st.out.write_all(b"\n]\n").and_then(|()| st.out.flush())
        } else {
            st.out.write_all(b"[]\n").and_then(|()| st.out.flush())
        };
        if ok.is_err() {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Consumes the tracer, returning the writer (array closed, flushed).
    pub fn into_inner(self) -> W {
        self.finish();
        self.state.into_inner().out
    }

    /// The lifecycle step `ev` records (an epoch switch originates a
    /// model's lifecycle).
    fn step_name(ev: &Event) -> &'static str {
        match ev {
            Event::Tx(_) => "tx",
            Event::Rx(_) => "deliver",
            Event::Ack(_) => "ack",
            Event::Drop(_) => "drop",
            Event::Timer(_) => "timer",
            Event::ParentChange(_) => "parent_change",
            Event::EpochSwitch(_) => "origin",
            Event::Decode(_) => "decode",
            Event::Span(s) => match s.phase {
                SpanPhase::Origin => "origin",
                SpanPhase::Forward { .. } => "forward",
                SpanPhase::Corrupt => "corrupt",
                SpanPhase::Ingest { .. } => "ingest",
            },
        }
    }

    fn write_event(&self, st: &mut State<W>, json: &str) {
        let lead: &[u8] = if st.wrote_any { b",\n" } else { b"[\n" };
        let res = st
            .out
            .write_all(lead)
            .and_then(|()| st.out.write_all(json.as_bytes()));
        if res.is_ok() {
            st.wrote_any = true;
            self.events.fetch_add(1, Ordering::Relaxed);
        } else {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl<W: Write + Send> Observer for ChromeTracer<W> {
    fn on_event(&self, now: SimTime, ev: &Event) {
        let Some(trace_id) = ev.trace_id() else {
            return;
        };
        if !self.keeps(trace_id) {
            return;
        }
        let kind = TraceKind::of(trace_id).map_or("unknown", TraceKind::name);
        let ts = now.as_micros();
        let tid = ev.node().0;
        // The full event rides in args; serialization of the plain-data
        // enum cannot fail, but degrade to "null" rather than panic in an
        // observer if it ever does.
        let event_json = serde_json::to_string(ev).unwrap_or_else(|_| "null".to_string());
        let complete = format!(
            "{{\"name\":\"{name}\",\"cat\":\"{kind}\",\"ph\":\"X\",\"ts\":{ts},\
             \"dur\":1,\"pid\":1,\"tid\":{tid},\"args\":{{\"trace\":\"{trace_id:#018x}\",\
             \"event\":{event_json}}}}}",
            name = Self::step_name(ev),
        );

        let mut st = self.state.lock();
        if st.finished {
            return;
        }
        self.write_event(&mut st, &complete);
        // Stitch this step to the previous one of the same lifecycle.
        let first_sighting = st.seen.insert(trace_id);
        let flow = format!(
            "{{\"name\":\"lifecycle\",\"cat\":\"{kind}\",\"ph\":\"{ph}\",\"ts\":{ts},\
             \"pid\":1,\"tid\":{tid},\"id\":\"{trace_id:#x}\",\"bp\":\"e\"}}",
            ph = if first_sighting { "s" } else { "t" },
        );
        self.write_event(&mut st, &flow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{
        data_trace_id, model_trace_id, DecodeEvent, DecodeOutcome, EpochSwitchEvent, SpanEvent,
        TxEvent,
    };
    use crate::time::SimDuration;
    use serde::{find_field, Value};

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn span(id: u64, node: u32, phase: SpanPhase) -> Event {
        Event::Span(SpanEvent {
            trace_id: id,
            node,
            phase,
        })
    }

    fn field<'a>(ev: &'a Value, key: &str) -> &'a Value {
        find_field(ev.as_object().expect("trace event is an object"), key)
            .unwrap_or_else(|| panic!("missing {key}: {ev:?}"))
    }

    #[test]
    fn emits_well_formed_chrome_json() {
        let tracer = ChromeTracer::new(Vec::new());
        let id = data_trace_id(5, 9);
        tracer.on_event(t(10), &span(id, 5, SpanPhase::Origin));
        tracer.on_event(
            t(20),
            &Event::Tx(TxEvent {
                src: 5,
                dst: Some(2),
                attempt: 1,
                bytes: 40,
                ok: true,
                trace: Some(id),
            }),
        );
        // A decode and an epoch switch derive their ids.
        tracer.on_event(
            t(30),
            &Event::Decode(DecodeEvent {
                origin: 5,
                seq: 9,
                hops: 1,
                outcome: DecodeOutcome::Ok,
            }),
        );
        tracer.on_event(t(40), &Event::EpochSwitch(EpochSwitchEvent { epoch: 4 }));
        assert!(tracer.finish());
        assert_eq!(tracer.io_errors(), 0);
        let buf = tracer.into_inner();
        let text = String::from_utf8(buf).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        let events = parsed.as_array().unwrap();
        // 4 traced events × (complete event + flow event).
        assert_eq!(events.len(), 8);
        for ev in events {
            for key in ["name", "cat", "ph", "ts", "pid", "tid"] {
                field(ev, key);
            }
        }
        let steps = [
            ("origin", "data", 5, id),
            ("tx", "data", 5, id),
            // Decodes and epoch switches happen at the sink, track 0.
            ("decode", "data", 0, id),
            ("origin", "model", 0, model_trace_id(4)),
        ];
        for (ev, (name, cat, tid, trace)) in events.iter().step_by(2).zip(steps) {
            assert_eq!(field(ev, "ph").as_str(), Some("X"));
            assert_eq!(field(ev, "name").as_str(), Some(name));
            assert_eq!(field(ev, "cat").as_str(), Some(cat));
            assert_eq!(field(ev, "tid"), &Value::UInt(tid));
            let args = field(ev, "args");
            assert_eq!(
                field(args, "trace").as_str(),
                Some(&*format!("{trace:#018x}"))
            );
        }
        // First flow event starts the arrow chain; later ones continue it.
        assert_eq!(field(&events[1], "ph").as_str(), Some("s"));
        assert_eq!(field(&events[3], "ph").as_str(), Some("t"));
        assert_eq!(field(&events[5], "ph").as_str(), Some("t"));
        assert_eq!(field(&events[7], "ph").as_str(), Some("s"));
        assert_eq!(field(&events[1], "id"), field(&events[5], "id"));
    }

    #[test]
    fn sampling_keeps_whole_lifecycles() {
        let tracer = ChromeTracer::with_sampling(Vec::new(), 7);
        let mut kept = 0u32;
        for seq in 0..200u32 {
            let id = data_trace_id(1, seq);
            let keep = tracer.keeps(id);
            tracer.on_event(t(u64::from(seq)), &span(id, 1, SpanPhase::Origin));
            tracer.on_event(
                t(u64::from(seq) + 1),
                &span(id, 2, SpanPhase::Forward { to: 0 }),
            );
            if keep {
                kept += 1;
            }
        }
        tracer.finish();
        // A kept id contributes both spans × 2 events each; dropped ids none.
        assert_eq!(tracer.events_written(), u64::from(kept) * 4);
        assert!(kept > 0, "sampler kept nothing out of 200 lifecycles");
        assert!(kept < 200, "sampler kept everything despite 1-in-7");
        let text = String::from_utf8(tracer.into_inner()).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed.as_array().unwrap().len(), kept as usize * 4);
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let tracer = ChromeTracer::new(Vec::new());
        tracer.finish();
        let text = String::from_utf8(tracer.into_inner()).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed, Value::Array(Vec::new()));
    }
}
