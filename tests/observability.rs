//! Observability invariants: attaching tracing, counting, and metrics
//! instrumentation to a run must not perturb the simulation, and the
//! artifacts the instrumentation produces must be well-formed.

use dophy_bench::{execute_cell, run_scenario, run_scenario_with, Instruments, RunOutput, RunSpec};
use dophy_sim::obs::{
    CountingObserver, Event, EventCounts, FlightRecorder, JsonlTracer, MultiObserver, Observer,
    TraceRecord,
};
use dophy_sim::{ChromeTracer, LinkDynamics, Placement, SimConfig, SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn quick_spec() -> RunSpec {
    let sim = SimConfig {
        placement: Placement::Grid {
            side: 4,
            spacing: 15.0,
        },
        dynamics: LinkDynamics::Volatile {
            sigma_per_sqrt_s: 0.02,
        },
        ..SimConfig::canonical(17)
    };
    let dophy = dophy::protocol::DophyConfig {
        traffic_period: SimDuration::from_secs(2),
        warmup: SimDuration::from_secs(30),
        ..dophy::protocol::DophyConfig::default()
    };
    RunSpec::new(sim, dophy, SimDuration::from_secs(600))
}

/// Serializes the simulation-determined parts of a run (everything except
/// wall-clock telemetry) so two runs can be compared byte-for-byte. The
/// vendored serde emits map keys in sorted order, so equal outputs always
/// produce equal bytes.
fn fingerprint(out: &RunOutput) -> String {
    let mut s = String::new();
    s += &serde_json::to_string(&out.truth).unwrap();
    s += &serde_json::to_string(&out.dophy).unwrap();
    s += &serde_json::to_string(&out.naive).unwrap();
    s += &serde_json::to_string(&out.bayes).unwrap();
    s += &serde_json::to_string(out.em()).unwrap();
    s += &serde_json::to_string(out.ls()).unwrap();
    s += &serde_json::to_string(&out.decode).unwrap();
    s += &serde_json::to_string(&out.overhead).unwrap();
    s += &serde_json::to_string(&out.churn).unwrap();
    s += &format!(
        "|{}|{}|{}|{}",
        out.dissemination_bytes, out.refreshes, out.delivery_ratio, out.node_count
    );
    s
}

/// Events of every kind a [`CountingObserver`] saw.
fn total(counts: EventCounts) -> u64 {
    counts.tx
        + counts.rx
        + counts.ack
        + counts.drops
        + counts.timers
        + counts.parent_changes
        + counts.epoch_switches
        + counts.decodes
        + counts.spans
}

#[test]
fn observed_run_is_bit_identical_to_bare_run() {
    let spec = quick_spec();
    let bare = run_scenario(&spec);

    let tracer = Arc::new(JsonlTracer::new(Vec::new()));
    let counter = Arc::new(CountingObserver::new());
    let observer = Arc::new(MultiObserver::new(vec![
        tracer.clone() as Arc<dyn dophy_sim::Observer>,
        counter.clone() as Arc<dyn dophy_sim::Observer>,
    ]));
    let observed = run_scenario_with(
        &spec,
        Instruments {
            observer: Some(observer.clone()),
            metrics_every: Some(SimDuration::from_secs(60)),
            ..Instruments::default()
        },
    );

    // The full simulation outcome must be unaffected by instrumentation.
    for (name, a, b) in [
        (
            "truth",
            serde_json::to_string(&bare.truth).unwrap(),
            serde_json::to_string(&observed.truth).unwrap(),
        ),
        (
            "dophy",
            serde_json::to_string(&bare.dophy).unwrap(),
            serde_json::to_string(&observed.dophy).unwrap(),
        ),
        (
            "naive",
            serde_json::to_string(&bare.naive).unwrap(),
            serde_json::to_string(&observed.naive).unwrap(),
        ),
        (
            "bayes",
            serde_json::to_string(&bare.bayes).unwrap(),
            serde_json::to_string(&observed.bayes).unwrap(),
        ),
        (
            "em",
            serde_json::to_string(bare.em()).unwrap(),
            serde_json::to_string(observed.em()).unwrap(),
        ),
        (
            "ls",
            serde_json::to_string(bare.ls()).unwrap(),
            serde_json::to_string(observed.ls()).unwrap(),
        ),
        (
            "decode",
            serde_json::to_string(&bare.decode).unwrap(),
            serde_json::to_string(&observed.decode).unwrap(),
        ),
        (
            "overhead",
            serde_json::to_string(&bare.overhead).unwrap(),
            serde_json::to_string(&observed.overhead).unwrap(),
        ),
        (
            "churn",
            serde_json::to_string(&bare.churn).unwrap(),
            serde_json::to_string(&observed.churn).unwrap(),
        ),
    ] {
        assert_eq!(a, b, "component {name} differs");
    }
    assert_eq!(fingerprint(&bare), fingerprint(&observed));

    // The trace saw real traffic and every line parses back into the
    // typed record it came from.
    tracer.flush();
    assert_eq!(tracer.io_errors(), 0);
    drop(observer); // the engine released its clone when the run finished
    let raw = match Arc::try_unwrap(tracer) {
        Ok(t) => t.into_inner(),
        Err(t) => panic!("tracer still shared: {} refs", Arc::strong_count(&t)),
    };
    let text = String::from_utf8(raw).expect("trace is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 1000, "only {} trace lines", lines.len());
    for line in &lines {
        let rec: TraceRecord =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("bad trace line {line}: {e}"));
        // Round-trip: re-serializing yields the identical line.
        assert_eq!(&serde_json::to_string(&rec).unwrap(), *line);
    }

    // The counting observer agrees with the tracer on volume.
    let counts = counter.counts();
    assert_eq!(total(counts), lines.len() as u64);
    assert!(counts.tx > 0 && counts.rx > 0 && counts.ack > 0);
    assert!(counts.decodes > 0, "sink never decoded anything");
    assert!(counts.spans > 0, "lifecycle tracing never fired");
    assert!(!counter.noisiest_links(5).is_empty());

    // Metrics snapshots exist on the requested cadence and cover the MAC,
    // routing, coding, and decode families.
    assert_eq!(observed.metrics.len(), 10);
    let last = observed.metrics.last().unwrap();
    for family in [
        "mac_unicast_started",
        "mac_bytes_on_air",
        "routing_beacons_sent",
        "routing_parent_changes",
        "model_dissemination_bytes",
        "decode_packets{outcome=ok}",
        "app_packets_delivered",
    ] {
        assert!(
            last.counters.iter().any(|(k, _)| k.starts_with(family)),
            "metrics missing family {family}"
        );
    }
    assert!(last
        .gauges
        .iter()
        .any(|(k, _)| k == "estimator_coverage_ratio"));
    assert!(last
        .histograms
        .iter()
        .any(|(k, _)| k == "mac_queue_depth_hist"));
    // Snapshots are strictly time-ordered on the sampling cadence.
    for w in observed.metrics.windows(2) {
        assert!(w[0].t_us < w[1].t_us);
    }
}

#[test]
fn metrics_cadence_does_not_perturb_results() {
    // Sampling metrics chunks the engine's run_for calls; the chunking
    // itself (no observer at all) must leave results untouched.
    let spec = quick_spec();
    let bare = run_scenario(&spec);
    let sampled = run_scenario_with(
        &spec,
        Instruments {
            metrics_every: Some(SimDuration::from_secs(7)),
            ..Instruments::default()
        },
    );
    assert_eq!(fingerprint(&bare), fingerprint(&sampled));
    assert!(!sampled.metrics.is_empty());
}

fn field<'a>(ev: &'a serde::Value, key: &str) -> &'a serde::Value {
    serde::find_field(ev.as_object().expect("trace event is an object"), key)
        .unwrap_or_else(|| panic!("chrome event missing {key}"))
}

/// The full deep-observability stack at once — lifecycle tracing to both
/// exporters, event counting, hot-path profiling, metrics sampling, and
/// the flight recorder — must still leave the simulation bit-identical to
/// a bare run, and every artifact must be well-formed.
#[test]
fn fully_instrumented_run_is_bit_identical_and_artifacts_are_well_formed() {
    let spec = quick_spec();
    let bare = run_scenario(&spec);

    let jsonl = Arc::new(JsonlTracer::new(Vec::new()));
    let chrome = Arc::new(ChromeTracer::new(Vec::new()));
    let counter = Arc::new(CountingObserver::new());
    // Large enough to keep every event of the run.
    let seen = Arc::new(FlightRecorder::new(1 << 17));
    let recorder = Arc::new(FlightRecorder::new(128));
    let observer = Arc::new(MultiObserver::new(vec![
        jsonl.clone() as Arc<dyn Observer>,
        chrome.clone() as Arc<dyn Observer>,
        counter.clone() as Arc<dyn Observer>,
        seen.clone() as Arc<dyn Observer>,
    ]));
    let full = run_scenario_with(
        &spec,
        Instruments {
            observer: Some(observer),
            metrics_every: Some(SimDuration::from_secs(60)),
            progress: false,
            profile: true,
            flight_recorder: Some(recorder.clone()),
            ..Instruments::default()
        },
    );

    // Zero perturbation even with everything on at once.
    assert_eq!(fingerprint(&bare), fingerprint(&full));

    // The Chrome trace is one well-formed JSON array of lifecycle steps.
    assert!(chrome.finish());
    assert_eq!(chrome.io_errors(), 0);
    assert!(chrome.events_written() > 0, "chrome trace is empty");
    let chrome_text = {
        let chrome = Arc::try_unwrap(chrome).unwrap_or_else(|c| {
            panic!("chrome tracer still shared: {} refs", Arc::strong_count(&c))
        });
        String::from_utf8(chrome.into_inner()).expect("chrome trace is UTF-8")
    };
    let parsed: serde::Value = serde_json::from_str(&chrome_text).expect("chrome trace parses");
    let events = parsed.as_array().expect("chrome trace is an array");
    assert!(!events.is_empty());
    for ev in events {
        for key in ["name", "cat", "ph", "ts", "pid", "tid"] {
            field(ev, key);
        }
    }
    // One event per fact: one complete event per observed event with a
    // trace id, in order, at its time, on its node's track, carrying it.
    let complete: Vec<&serde::Value> = events
        .iter()
        .filter(|ev| field(ev, "ph").as_str() == Some("X"))
        .collect();
    let seen = seen.tail();
    assert_eq!(seen.len() as u64, jsonl.lines_written(), "recorder evicted");
    let traced: Vec<(u64, Event, u64)> = seen
        .iter()
        .filter_map(|r| r.event.trace_id().map(|id| (r.t_us, r.event, id)))
        .collect();
    assert_eq!(complete.len(), traced.len());
    for (ev, (t_us, want, id)) in complete.iter().zip(&traced) {
        assert_eq!(field(ev, "ts"), &serde::Value::UInt(*t_us));
        assert_eq!(
            field(ev, "tid"),
            &serde::Value::UInt(u64::from(want.node().0))
        );
        let args = field(ev, "args");
        assert_eq!(field(args, "trace").as_str(), Some(&*format!("{id:#018x}")));
        let got: Event = serde::Deserialize::from_value(field(args, "event")).unwrap();
        assert_eq!(&got, want);
    }

    // The profiler reported every instrumented subsystem, and each one
    // actually ran during a full simulation.
    let profile = full.profile.as_ref().expect("profile requested");
    let names: Vec<&str> = profile
        .subsystems
        .iter()
        .map(|s| s.subsystem.as_str())
        .collect();
    assert_eq!(
        names,
        [
            "queue_pop",
            "broadcast_fanout",
            "unicast_arq",
            "decode",
            "estimator_update"
        ]
    );
    for sub in &profile.subsystems {
        assert!(sub.count > 0, "subsystem {} never profiled", sub.subsystem);
        assert!(sub.total_ns > 0, "subsystem {} has no time", sub.subsystem);
    }
    // Profile histograms were also exported into the metrics registry.
    let last = full.metrics.last().expect("metrics sampled");
    for sub in names {
        let key = format!("profile_wall_ns{{subsystem={sub}}}");
        assert!(
            last.histograms.iter().any(|(k, _)| *k == key),
            "metrics missing {key}"
        );
    }

    // The flight recorder ring saw the run and holds at most its capacity,
    // with trace ids intact in the retained tail.
    assert!(recorder.total_recorded() > 128);
    let tail = recorder.tail();
    assert_eq!(tail.len(), 128);
    assert!(
        tail.iter().any(|r| r.event.trace_id().is_some()),
        "no traced events in the recorder tail"
    );

    // JSONL tracer stayed healthy alongside everything else.
    jsonl.flush();
    assert_eq!(jsonl.io_errors(), 0);

    // Every observer behind the two fan-outs saw every event exactly once.
    assert_eq!(jsonl.lines_written(), total(counter.counts()));
    assert_eq!(jsonl.lines_written(), recorder.total_recorded());
}

/// Observer that panics after a fixed number of transmissions — stands in
/// for any mid-run failure inside an instrumented cell.
struct PanicAfter {
    seen: AtomicU64,
    limit: u64,
}

impl Observer for PanicAfter {
    fn on_event(&self, _now: SimTime, ev: &Event) {
        if matches!(ev, Event::Tx(_)) && self.seen.fetch_add(1, Ordering::Relaxed) + 1 >= self.limit
        {
            panic!("injected mid-run failure for the flight recorder");
        }
    }
}

/// A panic inside an instrumented run must surface as a cell error AND
/// leave a postmortem JSONL with the last events (trace ids included) —
/// the flight recorder sits before other observers in the fan-out, so it
/// has already recorded the events leading up to the failure.
#[test]
fn injected_panic_dumps_flight_recorder_postmortem() {
    let path = std::env::temp_dir().join(format!(
        "dophy-postmortem-{}-{}.jsonl",
        std::process::id(),
        line!()
    ));
    let _ = std::fs::remove_file(&path);

    let recorder = Arc::new(FlightRecorder::with_output(64, path.clone()));
    let bomb = Arc::new(PanicAfter {
        seen: AtomicU64::new(0),
        limit: 500,
    });
    let spec = quick_spec();
    let err = execute_cell(
        "panic-cell",
        &spec,
        Instruments {
            observer: Some(bomb as Arc<dyn Observer>),
            flight_recorder: Some(recorder.clone()),
            ..Instruments::default()
        },
    )
    .expect_err("the injected panic must fail the cell");
    assert!(
        err.contains("panic-cell") && err.contains("injected mid-run failure"),
        "error must name the cell and the panic: {err}"
    );

    let text = std::fs::read_to_string(&path).expect("postmortem file written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1 + 64, "header + full ring");
    let header: serde::Value = serde_json::from_str(lines[0]).unwrap();
    let pm = serde::find_field(header.as_object().unwrap(), "postmortem")
        .and_then(serde::Value::as_object)
        .expect("postmortem header");
    assert_eq!(
        serde::find_field(pm, "label").and_then(serde::Value::as_str),
        Some("panic-cell")
    );
    let mut traced_lines = 0;
    for line in &lines[1..] {
        let rec: TraceRecord =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("bad tail line {line}: {e}"));
        if let Some(id) = rec.event.trace_id() {
            assert_ne!(id, 0);
            traced_lines += 1;
        }
    }
    assert!(traced_lines > 0, "postmortem tail carries no trace ids");
    let _ = std::fs::remove_file(&path);
}
