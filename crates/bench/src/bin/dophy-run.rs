//! Run a custom Dophy scenario from a JSON specification.
//!
//! ```text
//! dophy-run --print-default > scenario.json   # template to edit
//! dophy-run scenario.json                     # run it, JSON results to stdout
//! dophy-run scenario.json --text              # human-readable summary
//! dophy-run scenario.json --trace-out run.jsonl --metrics-out metrics.json
//! dophy-run scenario.json --progress          # heartbeat on stderr
//! ```
//!
//! The specification is a [`dophy_bench::RunSpec`]: network (placement,
//! radio, MAC, link dynamics, seed), Dophy stack configuration, duration,
//! and runner knobs. Everything a downstream user needs to evaluate their
//! own deployment shape without writing Rust.
//!
//! `--shards N` overrides the spec's shard count: the engine splits the
//! network into `N` spatial shards advanced by parallel worker threads
//! (`0` and `1` both mean one shard). Results are identical for any `N`
//! at the same seed. Large topologies (10k+ nodes) should shard.
//!
//! `--estimator in-band|minc|sparse-l1` selects which inference backend's
//! snapshot fills the `links` table and `estimator_mae` (default
//! `in-band`). Every backend runs inside the same (cached) simulation —
//! the flag is a read-side choice and never re-runs anything.
//!
//! Observability flags (all optional, none change the results):
//!
//! * `--trace-out <path>` — stream structured engine/protocol events;
//!   `--trace-format jsonl` (default) writes one JSON record per line,
//!   `--trace-format chrome` writes a Chrome-trace/Perfetto JSON array of
//!   causal lifecycle spans (open it in `chrome://tracing` or
//!   <https://ui.perfetto.dev>); `--trace-sample N` keeps 1-in-N trace
//!   ids (chrome format only, whole lifecycles);
//! * `--profile <path>` — enable hot-path self-profiling and write the
//!   per-subsystem wall-time report as JSON (with `--shards N` wall time
//!   aggregates across worker threads);
//! * `--flight-recorder <path>` — keep a fixed-size ring of the last
//!   observer events and dump them to `<path>` as postmortem JSONL if the
//!   run panics (nothing is written on success);
//! * `--metrics-out <path>` — write the metrics time series (counters,
//!   gauges, histograms) sampled every `--metrics-every <secs>` (default
//!   60) of simulated time;
//! * `--progress` — print a heartbeat (events/sec, sim-vs-wall ratio,
//!   % complete) to stderr after every attribution window.
//!
//! Each run also appends hot-loop telemetry (events/sec) to
//! `target/BENCH_telemetry.json` so perf changes leave a trail.

use dophy::diagnosis::{DiagnosisConfig, NetworkHealthReport};
use dophy::infer::EstimatorKind;
use dophy::protocol::build_sharded_simulation;
use dophy_bench::{execute_cell, telemetry, FaultSummary, Instruments, RunSpec};
use dophy_sim::obs::{FlightRecorder, JsonlTracer, FLIGHT_RECORDER_DEFAULT_CAPACITY};
use dophy_sim::ChromeTracer;
use dophy_sim::SimTime;
use dophy_sim::{SimConfig, SimDuration};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;

#[derive(Serialize)]
struct LinkRow {
    src: u32,
    dst: u32,
    estimated_loss: f64,
    true_loss: Option<f64>,
}

#[derive(Serialize)]
struct Results {
    delivered_packets: u64,
    delivery_ratio: f64,
    decode_success: f64,
    packets_quarantined: u64,
    stream_bytes_per_packet: f64,
    measurement_bytes_per_packet: f64,
    dissemination_bytes: u64,
    model_refreshes: u64,
    parent_changes_per_node_hour: f64,
    dophy_mae: f64,
    traditional_em_mae: f64,
    /// Which inference backend populated `links`/`estimator_mae`
    /// (`--estimator`; the in-band default reproduces the historical
    /// output fields).
    estimator: String,
    estimator_mae: f64,
    /// Present only when the scenario enabled fault injection.
    faults: Option<FaultSummary>,
    links: Vec<LinkRow>,
}

fn default_spec() -> RunSpec {
    RunSpec::new(
        SimConfig::canonical(42),
        dophy::protocol::DophyConfig::default(),
        SimDuration::from_secs(1800),
    )
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Jsonl,
    Chrome,
}

struct Cli {
    spec_path: Option<String>,
    text: bool,
    print_default: bool,
    progress: bool,
    trace_out: Option<PathBuf>,
    trace_format: TraceFormat,
    trace_sample: u64,
    profile_out: Option<PathBuf>,
    flight_recorder: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    metrics_every_s: f64,
    shards: Option<u16>,
    estimator: EstimatorKind,
}

const USAGE: &str = "usage: dophy-run <scenario.json> [--text] [--progress] \
[--shards N] [--estimator in-band|minc|sparse-l1] \
[--trace-out <path>] [--trace-format jsonl|chrome] [--trace-sample N] \
[--profile <path>] [--flight-recorder <path>] \
[--metrics-out <path>] [--metrics-every <secs>] | --print-default";

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        spec_path: None,
        text: false,
        print_default: false,
        progress: false,
        trace_out: None,
        trace_format: TraceFormat::Jsonl,
        trace_sample: 1,
        profile_out: None,
        flight_recorder: None,
        metrics_out: None,
        metrics_every_s: 60.0,
        shards: None,
        estimator: EstimatorKind::InBand,
    };
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{arg} requires a value"))
        };
        match arg {
            "--text" => cli.text = true,
            "--print-default" => cli.print_default = true,
            "--progress" => cli.progress = true,
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value(&mut i)?)),
            "--estimator" => cli.estimator = value(&mut i)?.parse()?,
            "--trace-format" => {
                cli.trace_format = match value(&mut i)?.as_str() {
                    "jsonl" => TraceFormat::Jsonl,
                    "chrome" => TraceFormat::Chrome,
                    other => {
                        return Err(format!(
                            "--trace-format wants 'jsonl' or 'chrome', got {other}"
                        ))
                    }
                };
            }
            "--trace-sample" => {
                let raw = value(&mut i)?;
                cli.trace_sample =
                    raw.parse::<u64>().ok().filter(|n| *n > 0).ok_or_else(|| {
                        format!("--trace-sample wants a positive integer, got {raw}")
                    })?;
            }
            "--profile" => cli.profile_out = Some(PathBuf::from(value(&mut i)?)),
            "--flight-recorder" => cli.flight_recorder = Some(PathBuf::from(value(&mut i)?)),
            "--metrics-out" => cli.metrics_out = Some(PathBuf::from(value(&mut i)?)),
            "--metrics-every" => {
                let raw = value(&mut i)?;
                cli.metrics_every_s = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("--metrics-every wants a positive number, got {raw}"))?;
            }
            "--shards" => {
                let raw = value(&mut i)?;
                cli.shards = Some(
                    raw.parse::<u16>()
                        .map_err(|_| format!("--shards wants a small integer, got {raw}"))?,
                );
            }
            _ if arg.starts_with('-') => return Err(format!("unknown flag {arg}")),
            _ if cli.spec_path.is_none() => cli.spec_path = Some(arg.to_string()),
            _ => return Err(format!("unexpected extra argument {arg}")),
        }
        i += 1;
    }
    Ok(cli)
}

fn run(cli: Cli) -> Result<(), String> {
    if cli.print_default {
        let json = serde_json::to_string_pretty(&default_spec())
            .map_err(|e| format!("cannot serialize default spec: {e}"))?;
        println!("{json}");
        return Ok(());
    }
    let Some(path) = &cli.spec_path else {
        return Err(USAGE.to_string());
    };

    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut spec: RunSpec =
        serde_json::from_str(&raw).map_err(|e| format!("invalid scenario {path}: {e}"))?;
    if let Some(shards) = cli.shards {
        spec.shards = Some(shards);
    }
    if cli.trace_sample > 1 && cli.trace_format != TraceFormat::Chrome {
        return Err("--trace-sample only applies to --trace-format chrome".to_string());
    }

    // Attach requested observability before the run starts.
    let mut jsonl_tracer: Option<Arc<JsonlTracer<BufWriter<File>>>> = None;
    let mut chrome_tracer: Option<Arc<ChromeTracer<BufWriter<File>>>> = None;
    if let Some(out) = &cli.trace_out {
        let file =
            File::create(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
        match cli.trace_format {
            TraceFormat::Jsonl => {
                jsonl_tracer = Some(Arc::new(JsonlTracer::new(BufWriter::new(file))));
            }
            TraceFormat::Chrome => {
                chrome_tracer = Some(Arc::new(ChromeTracer::with_sampling(
                    BufWriter::new(file),
                    cli.trace_sample,
                )));
            }
        }
    }
    let recorder = cli.flight_recorder.as_ref().map(|path| {
        Arc::new(FlightRecorder::with_output(
            FLIGHT_RECORDER_DEFAULT_CAPACITY,
            path.clone(),
        ))
    });
    let inst = Instruments {
        observer: jsonl_tracer
            .clone()
            .map(|t| t as _)
            .or_else(|| chrome_tracer.clone().map(|t| t as _)),
        metrics_every: cli
            .metrics_out
            .is_some()
            .then(|| SimDuration::from_micros((cli.metrics_every_s * 1e6) as u64)),
        progress: cli.progress,
        profile: cli.profile_out.is_some(),
        flight_recorder: recorder,
        ..Instruments::default()
    };

    eprintln!(
        "running {} nodes for {:.0} s (seed {}) ...",
        spec.sim.placement.node_count(),
        spec.duration.as_secs_f64(),
        spec.sim.seed
    );
    // A single scenario is one cell, but it rides the same executor path
    // (pool + cache + panic isolation) as the experiments harness, so both
    // binaries exercise identical machinery.
    let run_result = execute_cell("dophy-run", spec, inst);
    // Close the trace even when the run failed: a truncated Chrome array
    // is unreadable, and a partial trace of a crashed run is exactly when
    // you want the file to open.
    if let Some(tracer) = &chrome_tracer {
        tracer.finish();
    }
    let out = run_result?;

    if let Some(tracer) = &jsonl_tracer {
        tracer.flush();
        if tracer.io_errors() > 0 {
            return Err(format!(
                "{} write errors on the trace stream",
                tracer.io_errors()
            ));
        }
        eprintln!(
            "trace: {} events -> {}",
            tracer.lines_written(),
            cli.trace_out.as_deref().unwrap_or(Path::new("?")).display()
        );
    }
    if let Some(tracer) = &chrome_tracer {
        if tracer.io_errors() > 0 {
            return Err(format!(
                "{} write errors on the trace stream",
                tracer.io_errors()
            ));
        }
        eprintln!(
            "trace: {} chrome events -> {}",
            tracer.events_written(),
            cli.trace_out.as_deref().unwrap_or(Path::new("?")).display()
        );
    }
    if let Some(path) = &cli.profile_out {
        let report = out
            .profile
            .as_ref()
            .ok_or_else(|| "profiler produced no report".to_string())?;
        let json = serde_json::to_string_pretty(report)
            .map_err(|e| format!("cannot serialize profile: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "profile: {} subsystems -> {}",
            report.subsystems.len(),
            path.display()
        );
    }
    if let Some(out_path) = &cli.metrics_out {
        let json = serde_json::to_string_pretty(&out.metrics)
            .map_err(|e| format!("cannot serialize metrics: {e}"))?;
        std::fs::write(out_path, json)
            .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
        eprintln!(
            "metrics: {} snapshots -> {}",
            out.metrics.len(),
            out_path.display()
        );
    }
    let t = &out.telemetry;
    eprintln!(
        "telemetry: {} events in {:.2} s wall ({:.0} ev/s, sim/wall {:.0}x)",
        t.events_processed, t.wall_seconds, t.events_per_sec, t.sim_wall_ratio
    );
    if let Err(e) = telemetry::write_bench_file(Path::new("target/BENCH_telemetry.json")) {
        eprintln!("warning: could not write target/BENCH_telemetry.json: {e}");
    }

    // `--estimator` picks which backend's snapshot is reported; every
    // backend ingested the (cached) simulation's evidence and an
    // end-to-end one is solved when read, so switching backends never
    // re-runs or invalidates anything.
    let selected = match cli.estimator {
        EstimatorKind::InBand => &out.dophy,
        EstimatorKind::Minc => out.minc(),
        EstimatorKind::SparseL1 => out.sparse_l1(),
    };
    let mut links: Vec<LinkRow> = selected
        .iter()
        .map(|(&(src, dst), &loss)| LinkRow {
            src,
            dst,
            estimated_loss: loss,
            true_loss: out.truth.get(&(src, dst)).copied(),
        })
        .collect();
    links.sort_by_key(|l| (l.src, l.dst));

    let results = Results {
        delivered_packets: out.overhead.packets,
        delivery_ratio: out.delivery_ratio,
        decode_success: out.decode.success_ratio(),
        packets_quarantined: out.decode.quarantined(),
        stream_bytes_per_packet: out.overhead.mean_stream_bytes(),
        measurement_bytes_per_packet: out.overhead.mean_measurement_bytes(),
        dissemination_bytes: out.dissemination_bytes,
        model_refreshes: out.refreshes,
        parent_changes_per_node_hour: out.churn.changes_per_node_hour,
        dophy_mae: out.score_scheme(&out.dophy).mae,
        traditional_em_mae: out.score_scheme(out.em()).mae,
        estimator: cli.estimator.to_string(),
        estimator_mae: out.score_scheme(selected).mae,
        faults: out.faults,
        links,
    };

    if cli.text {
        // Also produce the operator-facing health report from a dedicated
        // run of the same scenario (run_scenario consumes its engine).
        let (mut engine, shared) =
            build_sharded_simulation(&spec.sim, &spec.dophy, spec.shards.unwrap_or(1));
        engine.start();
        engine.run_for(spec.duration);
        let health = NetworkHealthReport::generate(
            &shared.lock(),
            SimTime::ZERO + spec.duration,
            &DiagnosisConfig {
                max_attempts: spec.sim.mac.max_attempts,
                min_samples: spec.min_est_samples,
                ..DiagnosisConfig::default()
            },
        );
        println!("{}", health.render(10));
        println!("delivered packets        : {}", results.delivered_packets);
        println!("delivery ratio           : {:.4}", results.delivery_ratio);
        println!("decode success           : {:.4}", results.decode_success);
        println!("packets quarantined      : {}", results.packets_quarantined);
        if let Some(f) = &results.faults {
            println!(
                "faults injected          : {} frames corrupted ({} bit flips, \
                 {} truncations, {} header hits), {} destroyed, {} dissemination drops",
                f.injection.frames_corrupted,
                f.injection.bit_flips,
                f.injection.truncations,
                f.injection.header_hits,
                f.frames_destroyed,
                f.dissemination_drops
            );
        }
        println!(
            "stream / measurement     : {:.2} / {:.2} B per packet",
            results.stream_bytes_per_packet, results.measurement_bytes_per_packet
        );
        println!(
            "dissemination            : {} B over {} refreshes",
            results.dissemination_bytes, results.model_refreshes
        );
        println!(
            "routing churn            : {:.2} parent changes/node/hour",
            results.parent_changes_per_node_hour
        );
        println!("dophy MAE                : {:.4}", results.dophy_mae);
        println!(
            "traditional EM MAE       : {:.4}",
            results.traditional_em_mae
        );
        println!(
            "estimator ({})      : MAE {:.4}",
            results.estimator, results.estimator_mae
        );
        // Worst links table.
        let mut by_loss: BTreeMap<u64, &LinkRow> = BTreeMap::new();
        for l in &results.links {
            by_loss.insert((l.estimated_loss * 1e9) as u64, l);
        }
        println!("\nworst links (estimated):");
        for (_, l) in by_loss.iter().rev().take(10) {
            println!(
                "  n{}->n{}: est {:.3} true {}",
                l.src,
                l.dst,
                l.estimated_loss,
                l.true_loss
                    .map(|t| format!("{t:.3}"))
                    .unwrap_or_else(|| "-".into())
            );
        }
    } else {
        let json = serde_json::to_string_pretty(&results)
            .map_err(|e| format!("cannot serialize results: {e}"))?;
        println!("{json}");
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            if !e.starts_with("usage:") {
                eprintln!("{USAGE}");
            }
            std::process::exit(2);
        }
    };
    if let Err(e) = run(cli) {
        if e.starts_with("usage:") {
            eprintln!("{e}");
            std::process::exit(2);
        }
        eprintln!("dophy-run: {e}");
        std::process::exit(1);
    }
}
