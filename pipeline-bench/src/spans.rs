//! In-memory spans for the traced run, written once at exit as the
//! Chrome/Perfetto trace-event JSON array `dophy-run --trace-format
//! chrome` emits. Spans nest by time on one track, so a viewer's self
//! time for a layer is its span minus its child spans.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
struct Span {
    name: &'static str,
    cat: &'static str,
    start: Instant,
    end: Instant,
    /// Request id shared by every span of one framed request.
    id: Option<u64>,
}

/// Span recorder; a disabled recorder drops everything at one branch.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records `[start, end]` under `cat`/`name`.
    pub fn record(&mut self, cat: &'static str, name: &'static str, start: Instant, end: Instant) {
        self.record_id(cat, name, start, end, None);
    }

    /// Records a span that belongs to request `id`.
    pub fn record_id(
        &mut self,
        cat: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
        id: Option<u64>,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                cat,
                start,
                end,
                id,
            });
        }
    }

    /// Number of spans kept.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a Chrome trace-event JSON array (`"ph":"X"` complete
    /// events, wall-clock microseconds since the benchmark started).
    pub fn to_chrome_json(&self) -> String {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as f64 / 1e3;
        let mut out = String::with_capacity(self.spans.len() * 112 + 4);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            let ts = us(s.start);
            let dur = us(s.end) - ts;
            let _ = write!(
                out,
                "{}\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1",
                if i == 0 { "" } else { "," },
                s.name,
                s.cat,
                ts,
                dur
            );
            match s.id {
                Some(id) => {
                    let _ = write!(out, ",\"args\":{{\"id\":{id}}}}}");
                }
                None => out.push('}'),
            }
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{find_field, Value};
    use std::time::Duration;

    #[test]
    fn chrome_export_is_a_json_array_of_complete_events() {
        let origin = Instant::now();
        let at = |us: u64| origin + Duration::from_micros(us);
        let mut spans = Spans::new(origin, true);
        spans.record("query", "warmup", at(0), at(10));
        spans.record_id("query", "path", at(10), at(35), Some(64));
        let doc: Value = serde_json::from_str(&spans.to_chrome_json()).expect("valid JSON");
        let events = doc.as_array().expect("an array");
        assert_eq!(events.len(), 2);
        let ev = events[1].as_object().expect("an object");
        assert_eq!(find_field(ev, "ph").and_then(Value::as_str), Some("X"));
        assert_eq!(find_field(ev, "name").and_then(Value::as_str), Some("path"));
        let args = find_field(ev, "args")
            .and_then(Value::as_object)
            .expect("args");
        assert_eq!(find_field(args, "id"), Some(&Value::UInt(64)));

        let mut off = Spans::new(origin, false);
        off.record("query", "warmup", at(0), at(1));
        assert_eq!(off.len(), 0);
    }
}
