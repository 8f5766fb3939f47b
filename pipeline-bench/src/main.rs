//! Pinned, phase-separated benchmark of the whole Dophy pipeline.
//!
//! One call runs one named workload. Each round sets up (builds the
//! network, creates an empty store, serves it over loopback, connects a
//! client), then runs three phases one after another, so only one
//! thread is busy at a time:
//!
//! 1. **simulate**: `run_scenario_with` with the evidence tap attached;
//! 2. **ingest**: the captured evidence into the fresh store from one
//!    thread, with no readers, then the final `publish_cut`;
//! 3. **query**: one connection, one framed request outstanding.
//!
//! A workload may run the ingest and query legs more than once over each
//! simulated stream, each pass on a fresh set-up, so that the legs are
//! timed in more places across the run. Rounds repeat while the next
//! one should still end within `--seconds`; passes over the last stream
//! then fill the time left that is too short for a round. The host's
//! speed drifts over seconds, so every metric needs many samples spread
//! over the whole run. Each simulation yields one `sim_wall_s` and each
//! pass one value of every other metric, and the run reports the median;
//! round-trip percentiles are taken per block of 10k requests and the
//! run reports the median block. The set-up is timed a few extra times
//! per round; `setup_s` is the median of all of them. With `--trace 1`
//! the run throws away one untraced warm-up round, then makes untraced
//! and traced rounds of one pass each, of the same seed, in turn and
//! prints the per-layer metrics instead, writing the traced rounds'
//! spans to `--trace-out`.
//!
//! The seed draws the query stream; each workload's network is fixed, so
//! the fingerprint of simulation and final cut is the same for every
//! seed and the digest of sampled answers repeats for a given seed.
//!
//! `run.py` next to this package builds it and pins every thread to one
//! CPU before starting it:
//!
//! ```text
//! python3 pipeline-bench/run.py --workload sim-n1000 --seed 1 --seconds 38 --trace 0
//! ```

mod layers;
mod pipeline;
mod report;
mod spans;
mod workload;

use dophy_bench::executor::StableHasher;
use dophy_bench::telemetry::peak_rss_bytes;
use pipeline::{ingest, request_mix, simulate, Service, Simulated};
use report::{gate, median, metric, percentile, result_line, GateInput, Metric};
use spans::Spans;
use std::collections::HashMap;
use std::hash::Hasher as _;
use std::path::PathBuf;
use std::time::Instant;
use workload::Workload;

const USAGE: &str = "usage: dophy-pipeline-bench --workload <sim-n1000|ingest-n400|query-n200> \
--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]";

/// Set-ups timed (and torn down) before each round, besides its passes' own.
const EXTRA_SETUPS: usize = 2;

/// Untraced rounds every run makes, whatever `--seconds` says.
const MIN_ROUNDS: usize = 1;

/// Untraced-traced pairs every traced run makes after its warm-up round.
const MIN_TRACE_PAIRS: usize = 2;

/// Untimed requests before the timed ones in each pass.
const WARMUP_REQUESTS: usize = 2_000;

/// Salt separating the warm-up request stream from the timed one.
const WARMUP_SALT: u64 = 0x5741_524D_5550;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
            (None, None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::named(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err(format!("bad seconds {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace {value}")),
                    })
                }
                "--trace-out" => trace_out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            trace_out,
        })
    }
}

/// Outputs that must repeat exactly for a workload and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub sim_events: u64,
    pub delivered: u64,
    pub evidence: u64,
    pub links: u64,
    pub generations: u64,
    /// FNV-1a of the final cut's JSON.
    pub cut_fnv: u64,
    /// FNV-1a of the sampled framed answers' JSON.
    pub answers_fnv: u64,
}

/// One pass of the ingest and query legs over a round's simulated
/// stream, on a service set up for it alone.
pub struct Pass {
    pub build_s: f64,
    pub setup_s: f64,
    pub ingest_wall_s: f64,
    pub query_wall_s: f64,
    /// Duration of each `ingest` call that cut a generation.
    pub cut_ns: Vec<u64>,
    pub rtt_ns: Vec<u64>,
    pub served_mae: f64,
    pub fingerprint: Fingerprint,
    pub attempted: u64,
    pub failed: u64,
    pub gate_failures: Vec<String>,
    /// Per-layer measurements; traced passes only.
    pub traced: Option<layers::Traced>,
}

/// One round: a simulation and the passes over its stream.
pub struct Round {
    pub sim_wall_s: f64,
    pub passes: Vec<Pass>,
}

/// Simulates once and makes `passes` passes over the stream. Returns the
/// stream too, for further passes.
fn run_round(
    wl: &Workload,
    seed: u64,
    passes: usize,
    spans: &mut Spans,
) -> Result<(Round, Simulated), String> {
    let service = Service::start(wl, spans)?;
    let sim = simulate(wl, spans.enabled(), spans);
    let mut round = Round {
        sim_wall_s: sim.wall_s,
        passes: vec![run_pass(wl, seed, service, &sim, spans)?],
    };
    for _ in 1..passes {
        let service = Service::start(wl, spans)?;
        round.passes.push(run_pass(wl, seed, service, &sim, spans)?);
    }
    Ok((round, sim))
}

/// Ingests `sim`'s stream into `service`'s fresh store, queries it over
/// loopback, stops the service and checks the outputs.
fn run_pass(
    wl: &Workload,
    seed: u64,
    mut service: Service,
    sim: &Simulated,
    spans: &mut Spans,
) -> Result<Pass, String> {
    let ing = ingest(
        service.store.as_ref(),
        &sim.evidence,
        wl.publish_every,
        spans,
    );
    let warmup = request_mix(&ing.cut, wl.nodes, seed ^ WARMUP_SALT, WARMUP_REQUESTS);
    let requests = request_mix(&ing.cut, wl.nodes, seed, wl.requests);
    let q = service.query(&warmup, &requests, spans);
    let probes = if spans.enabled() {
        Some(layers::probe(service.view.as_ref(), &requests, spans)?)
    } else {
        None
    };
    let (build_s, setup_s) = (service.build_s, service.setup_s);
    service.stop()?;

    let served: HashMap<(u32, u32), f64> = ing
        .cut
        .estimates
        .iter()
        .map(|&(k, e)| (k, e.loss))
        .collect();
    let served_mae = dophy::score(&served, &sim.out.truth).mae;
    let cut_json = serde_json::to_string(&ing.cut).map_err(|e| e.to_string())?;
    let mut cut_hash = StableHasher::default();
    cut_hash.write(cut_json.as_bytes());
    let evidence = sim.evidence.len() as u64;
    let fingerprint = Fingerprint {
        sim_events: sim.out.telemetry.events_processed,
        delivered: sim.out.overhead.packets,
        evidence,
        links: ing.cut.estimates.len() as u64,
        generations: ing.cut.generation,
        cut_fnv: cut_hash.finish(),
        answers_fnv: q.answers_fnv,
    };
    let gate_failures = gate(&GateInput {
        served_mae,
        evidence,
        publish_every: wl.publish_every,
        cut_seq: ing.cut.seq,
        cut_generation: ing.cut.generation,
        identity_samples: q.identity_samples,
        identity_mismatches: q.mismatches,
    });
    let traced = match probes {
        Some(probes) => Some(layers::Traced {
            loop_s: sim.out.telemetry.wall_seconds,
            profile: sim.out.profile.clone().ok_or("traced run has no profile")?,
            decode_success_ratio: sim.out.decode.success_ratio(),
            observe: ing.observe.unwrap_or((0, 0)),
            touched_share: layers::touched_share(&sim.evidence, wl.publish_every),
            probes,
        }),
        None => None,
    };
    Ok(Pass {
        build_s,
        setup_s,
        ingest_wall_s: ing.wall_s,
        query_wall_s: q.wall_s,
        cut_ns: ing.cut_ns,
        rtt_ns: q.rtt_ns,
        served_mae,
        fingerprint,
        // Every ingest call plus the final publish, and every framed request.
        attempted: evidence + 1 + q.attempted,
        failed: q.failed,
        gate_failures,
        traced,
    })
}

/// Timed requests per block for the round-trip percentiles. Each block's
/// p99 has 100 samples beyond it; the run reports the median block, so a
/// burst of host interference that hits a few blocks does not move it.
const RTT_BLOCK: usize = 10_000;

/// End-to-end metrics over untraced rounds and every timed set-up. Each
/// simulation yields one `sim_wall_s` and each pass one value of every
/// other metric (freshness percentiles over the pass's own cuts); the
/// run reports the median over rounds or passes. Round trips are
/// summarised per block of [`RTT_BLOCK`] requests instead.
fn end_to_end(rounds: &[Round], setup_s: &[f64], peak_rss_mib: f64) -> Vec<Metric> {
    let passes: Vec<&Pass> = rounds.iter().flat_map(|r| &r.passes).collect();
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>());
    let scaled = |v: &[u64], unit: f64| v.iter().map(|&n| n as f64 / unit).collect::<Vec<_>>();
    let fresh = |q: f64| per_pass(&|p| percentile(&scaled(&p.cut_ns, 1e6), q));
    let rtt = |q: f64| {
        let blocks: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.rtt_ns.chunks(RTT_BLOCK))
            .map(|b| percentile(&scaled(b, 1e3), q))
            .collect();
        median(&blocks)
    };
    // From simulation start to the pass's final cut, leaving out the
    // set-ups and earlier passes that run in between.
    let pipeline: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.passes.iter().map(|p| r.sim_wall_s + p.ingest_wall_s))
        .collect();
    vec![
        metric("setup_s", "s", median(setup_s)),
        metric(
            "sim_wall_s",
            "s",
            median(&rounds.iter().map(|r| r.sim_wall_s).collect::<Vec<_>>()),
        ),
        metric(
            "ingest_events_per_s",
            "1/s",
            per_pass(&|p| p.fingerprint.evidence as f64 / p.ingest_wall_s),
        ),
        metric("pipeline_wall_s", "s", median(&pipeline)),
        metric("freshness_p50_ms", "ms", fresh(0.5)),
        metric("freshness_p90_ms", "ms", fresh(0.9)),
        metric(
            "net_queries_per_s",
            "1/s",
            per_pass(&|p| p.rtt_ns.len() as f64 / p.query_wall_s),
        ),
        metric("rtt_p50_us", "us", rtt(0.5)),
        metric("rtt_p99_us", "us", rtt(0.99)),
        metric("peak_rss_mib", "MiB", peak_rss_mib),
        metric("served_mae", "loss", passes[0].served_mae),
    ]
}

/// What one call of the benchmark reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    problems: Vec<String>,
    fingerprint: Fingerprint,
}

fn outcome(rounds: &[Round], metrics: Vec<Metric>) -> Outcome {
    let passes: Vec<&Pass> = rounds.iter().flat_map(|r| &r.passes).collect();
    let fingerprint = passes[0].fingerprint;
    let mut problems: Vec<String> = passes
        .iter()
        .flat_map(|p| p.gate_failures.clone())
        .collect();
    if passes.iter().any(|p| p.fingerprint != fingerprint) {
        problems.push("passes of the same workload and seed disagree on the fingerprint".into());
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        problems.push(format!("metric {} is not a finite number", m.name));
    }
    Outcome {
        correct: problems.is_empty(),
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        metrics,
        problems,
        fingerprint,
    }
}

fn log_round(label: &str, r: &Round) {
    let passes: Vec<String> = r
        .passes
        .iter()
        .map(|p| {
            format!(
                "setup {:.4} s, ingest {:.3} s, query {:.3} s ({} requests)",
                p.setup_s,
                p.ingest_wall_s,
                p.query_wall_s,
                p.rtt_ns.len()
            )
        })
        .collect();
    eprintln!("{label}: sim {:.3} s; {}", r.sim_wall_s, passes.join("; "));
}

/// A traced run: one untraced round that warms the process up and is
/// thrown away, then pairs of an untraced and a traced round of the same
/// seed, so both kinds run in the same state. Pairs alternate their
/// order (untraced first, then traced first), so a steady drift over the
/// run lands on both kinds alike. Pairs repeat while the next should end
/// within `--seconds`. Every round makes one pass, whatever the workload
/// makes in an untraced run: the per-layer figures need no more.
fn run_traced(args: &Args, origin: Instant) -> Result<Outcome, String> {
    let wl = &args.workload;
    let mut untraced = Spans::new(origin, false);
    let mut spans = Spans::new(origin, true);
    let (warmup, _) = run_round(wl, args.seed, 1, &mut untraced)?;
    log_round("warm-up", &warmup);
    let (mut base, mut traced) = (Vec::new(), Vec::new());
    let mut last_pair_s = 0.0;
    while traced.len() < MIN_TRACE_PAIRS
        || origin.elapsed().as_secs_f64() + last_pair_s <= args.seconds
    {
        let t = Instant::now();
        let traced_first = traced.len() % 2 == 1;
        for tracing in [traced_first, !traced_first] {
            if tracing {
                let (round, _) = run_round(wl, args.seed, 1, &mut spans)?;
                log_round("traced", &round);
                traced.push(round);
            } else {
                let (round, _) = run_round(wl, args.seed, 1, &mut untraced)?;
                log_round("untraced", &round);
                base.push(round);
            }
        }
        last_pair_s = t.elapsed().as_secs_f64();
    }
    let metrics = layers::per_layer(&base, &traced)?;
    if let Some(path) = &args.trace_out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, spans.to_chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans: {} written to {}", spans.len(), path.display());
    }
    let rounds: Vec<Round> = std::iter::once(warmup).chain(base).chain(traced).collect();
    Ok(outcome(&rounds, metrics))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let origin = Instant::now();
    let wl = &args.workload;
    eprintln!("workload: {wl:?}");
    if args.trace {
        return run_traced(args, origin);
    }
    let mut untraced = Spans::new(origin, false);
    // Start a round only if it should end within `--seconds`, judging by
    // the last one, so a run never measures much longer than asked.
    let mut rounds: Vec<Round> = Vec::new();
    let mut setup_s = Vec::new();
    let mut last_round_s = 0.0;
    let mut last_sim = None;
    // Peak memory of the first round: later rounds add only allocator
    // reuse, which no single run of the pipeline sees.
    let mut peak_rss_mib = 0.0;
    while rounds.len() < MIN_ROUNDS || origin.elapsed().as_secs_f64() + last_round_s <= args.seconds
    {
        let t = Instant::now();
        for _ in 0..EXTRA_SETUPS {
            let s = Service::start(wl, &mut untraced)?;
            setup_s.push(s.setup_s);
            s.stop()?;
        }
        let (round, sim) = run_round(wl, args.seed, wl.passes, &mut untraced)?;
        setup_s.extend(round.passes.iter().map(|p| p.setup_s));
        rounds.push(round);
        last_sim = Some(sim);
        last_round_s = t.elapsed().as_secs_f64();
        if rounds.len() == 1 {
            peak_rss_mib = peak_rss_bytes() as f64 / f64::from(1 << 20);
        }
    }
    // Passes over the last stream fill the time left, judging each by the
    // one before (at first, by the last round's share per pass).
    if let (Some(sim), Some(round)) = (&last_sim, rounds.last_mut()) {
        let mut last_pass_s = (last_round_s - round.sim_wall_s) / round.passes.len() as f64;
        while origin.elapsed().as_secs_f64() + last_pass_s <= args.seconds {
            let t = Instant::now();
            let service = Service::start(wl, &mut untraced)?;
            let pass = run_pass(wl, args.seed, service, sim, &mut untraced)?;
            setup_s.push(pass.setup_s);
            round.passes.push(pass);
            last_pass_s = t.elapsed().as_secs_f64();
        }
    }
    eprintln!("set-ups: {setup_s:.4?} s");
    for (i, r) in rounds.iter().enumerate() {
        log_round(&format!("round {i}"), r);
    }
    let metrics = end_to_end(&rounds, &setup_s, peak_rss_mib);
    Ok(outcome(&rounds, metrics))
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dophy-pipeline-bench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let o = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dophy-pipeline-bench: {e}");
            std::process::exit(1);
        }
    };
    for m in &o.metrics {
        eprintln!("{:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for p in &o.problems {
        eprintln!("GATE FAILED: {p}");
    }
    let f = o.fingerprint;
    println!(
        "fingerprint {} seed {}: sim_events={} delivered={} evidence={} links={} generations={} cut_fnv={:016x} answers_fnv={:016x}",
        args.workload.name,
        args.seed,
        f.sim_events,
        f.delivered,
        f.evidence,
        f.links,
        f.generations,
        f.cut_fnv,
        f.answers_fnv
    );
    println!(
        "{}",
        result_line(o.correct, o.attempted, o.failed, &o.metrics)
    );
    std::process::exit(if o.correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dophy_serve::{Request, Response, TomographyView};
    use serde::{find_field, Value};
    use std::sync::Arc;
    use workload::WORKLOADS;

    /// `(name, unit)` of every metric BENCHMARK.json declares under `kind`.
    fn declared(kind: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let field = |v: &Value, k: &str| -> String {
            find_field(v.as_object().expect("an object"), k)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("{kind} entry without {k}"))
                .to_string()
        };
        find_field(doc.as_object().expect("an object"), kind)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("no {kind} list"))
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    /// A seconds-long run of each workload at toy size prints every
    /// declared metric with its unit, passes the gate, and ends in a
    /// result line with exactly the four result keys.
    #[test]
    fn every_workload_prints_every_declared_metric_with_its_unit() {
        for w in WORKLOADS {
            for (trace, kind) in [(false, "end_to_end"), (true, "per_layer")] {
                let args = Args {
                    workload: w.toy(),
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    trace_out: None,
                };
                let o = run(&args).unwrap_or_else(|e| panic!("{}: {e}", w.name));
                assert!(o.correct, "{} {kind}: {:?}", w.name, o.problems);
                assert_eq!(o.failed, 0, "{} {kind}", w.name);
                let printed: Vec<(String, String)> = o
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit.to_string()))
                    .collect();
                assert_eq!(printed, declared(kind), "{} {kind}", w.name);
                let line = result_line(o.correct, o.attempted, o.failed, &o.metrics);
                let parsed: Value = serde_json::from_str(&line).expect("result line parses");
                let keys: Vec<&str> = parsed
                    .as_object()
                    .expect("an object")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
        }
    }

    /// Expects every `Stats` answer one evidence event ahead of the store.
    struct OneAhead(Arc<dyn TomographyView>);

    impl TomographyView for OneAhead {
        fn answer(&self, req: &Request) -> Response {
            match self.0.answer(req) {
                Response::Stats(mut s) => {
                    s.seq += 1;
                    Response::Stats(s)
                }
                other => other,
            }
        }
    }

    /// The identity check fails the run when the expected in-process
    /// answer differs from the framed one.
    #[test]
    fn identity_gate_rejects_a_wrong_expected_answer() {
        let wl = Workload::named("query-n200").expect("workload").toy();
        let mut spans = Spans::new(Instant::now(), false);
        let mut service = Service::start(&wl, &mut spans).expect("set-up");
        let sim = simulate(&wl, false, &mut spans);
        let ing = ingest(
            service.store.as_ref(),
            &sim.evidence,
            wl.publish_every,
            &mut spans,
        );
        let requests = request_mix(&ing.cut, wl.nodes, 3, wl.requests);
        let honest = service.query(&[], &requests, &mut spans);
        assert_eq!((honest.failed, honest.mismatches), (0, 0));
        service.view = Arc::new(OneAhead(Arc::clone(&service.view)));
        let wrong = service.query(&[], &requests, &mut spans);
        service.stop().expect("server stops");
        // Samples are every 64th request and request i is of class i % 5,
        // so every fifth sample is a `Stats` request.
        let stats_samples = (0..wl.requests)
            .step_by(pipeline::IDENTITY_EVERY)
            .filter(|i| i % pipeline::CLASSES.len() == 4)
            .count() as u64;
        assert!(stats_samples > 0);
        assert_eq!(wrong.mismatches, stats_samples);
        assert_eq!(wrong.failed, stats_samples);
        let verdict = gate(&GateInput {
            served_mae: 0.0,
            evidence: sim.evidence.len() as u64,
            publish_every: wl.publish_every,
            cut_seq: ing.cut.seq,
            cut_generation: ing.cut.generation,
            identity_samples: wrong.identity_samples,
            identity_mismatches: wrong.mismatches,
        });
        assert_eq!(verdict.len(), 1, "{verdict:?}");
    }
}
