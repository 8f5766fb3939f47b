//! Scenario runner: executes a full Dophy simulation and extracts
//! everything the figures need — estimates (Dophy MLE, naive, Bayes, and
//! the end-to-end MINC, sparse-L1 and traditional EM/log-LS), ground
//! truth, overhead, churn, and periodic checkpoints.
//!
//! The traditional-tomography baseline is driven exactly the way such
//! systems are deployed: the run is divided into attribution windows; at
//! each window start the current routing tree is snapshotted (the periodic
//! topology report a sink would collect), and the window's per-origin
//! sent/delivered counts are attributed to the snapshot path. Under dynamic
//! routing this attribution is exactly what goes stale. Each window tally
//! reaches the sink's inference fan-out once, as an
//! [`Evidence::PathOutcome`], which feeds every end-to-end backend.
//!
//! The in-band estimates are extracted when the run ends. The four
//! end-to-end maps are not: their solvers cost far more than the in-band
//! readout and many readers never look at them, so [`RunOutput`] keeps the
//! sink's pooled route table and solves each map on its first read
//! ([`RunOutput::em`], [`RunOutput::ls`], [`RunOutput::minc`],
//! [`RunOutput::sparse_l1`]). A solve is a pure function of the table, so
//! every value is the one an eager solve would give.

use crate::telemetry::{ProgressMeter, RunTelemetry};
use dophy::baseline::{
    estimate_em, estimate_logls, survival_to_transmission_loss, TraditionalConfig,
};
use dophy::infer::{minc, sparse, Evidence, PathTable, SnapshotQuery};
use dophy::metrics::{score, AccuracyReport};
use dophy::protocol::{
    build_sharded_simulation_with_faults, DecodeStats, DophyConfig, DophyNode, OverheadStats,
};
use dophy::telemetry::sample_metrics;
use dophy_routing::{churn_report, ChurnReport};
use dophy_sim::obs::{FlightRecorder, MetricsRegistry, MetricsSnapshot, MultiObserver, Observer};
use dophy_sim::{
    Engine, FaultConfig, FaultInjection, NodeId, ProfileReport, Profiler, SimConfig, SimDuration,
    SimTime, Topology, Trace,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Directed link key.
pub type LinkKey = (u32, u32);

/// Optional per-origin snapshot path used for baseline attribution.
type SnapshotPaths = Vec<Option<Vec<LinkKey>>>;

/// Runner parameters beyond the stack configs.
///
/// `Hash` is stable across runs and platforms (floats hash their raw
/// bits), so the executor can content-address a spec: two experiments
/// that build byte-equal `RunSpec`s share one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Hash, Serialize, Deserialize)]
pub struct RunSpec {
    /// Network configuration.
    pub sim: SimConfig,
    /// Dophy stack configuration.
    pub dophy: DophyConfig,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Baseline path-attribution window (also the checkpoint cadence).
    pub window: SimDuration,
    /// Links need this many physical data transmissions to enter the
    /// ground-truth map.
    pub min_truth_tx: u64,
    /// Estimates need this many observations to be reported.
    pub min_est_samples: u64,
    /// Record per-window accuracy checkpoints (fig6); costs some CPU.
    pub checkpoints: bool,
    /// Optional deterministic fault injection (frame corruption, crashes,
    /// dissemination faults). `None` = unfaulted run, bit-identical to
    /// specs predating this field (a missing `faults` key in JSON
    /// deserializes to `None`, so old scenario files keep working).
    pub faults: Option<FaultConfig>,
    /// Spatial shards the engine runs on. `None`, `Some(0)` and `Some(1)`
    /// (and a missing key in legacy JSON) all mean one shard. Results are
    /// byte-identical at every shard count; only wall-clock time differs.
    /// The value still participates in the spec hash because fig14's
    /// wall-clock series depend on it, so two shard counts never share a
    /// cached run.
    pub shards: Option<u16>,
    /// Whether to keep the per-packet ground-truth hop log
    /// ([`RunOutput::true_hops`]). `None` (and a missing key in legacy
    /// JSON) means keep it — bit-identical simulation either way, it is
    /// a pure recorder — but the log grows with every delivered packet
    /// and dominates peak RSS at 10k-node scale, so large-scale cells
    /// set `Some(false)`. Only the fig3 re-encoding figure reads it.
    pub keep_true_hops: Option<bool>,
}

impl RunSpec {
    /// Canonical spec used by most experiments.
    pub fn new(sim: SimConfig, dophy: DophyConfig, duration: SimDuration) -> Self {
        Self {
            sim,
            dophy,
            duration,
            window: SimDuration::from_secs(60),
            min_truth_tx: 30,
            min_est_samples: 10,
            checkpoints: false,
            faults: None,
            shards: None,
            keep_true_hops: None,
        }
    }

    /// The same spec on `shards` spatial shards.
    pub fn with_shards(self, shards: u16) -> Self {
        Self {
            shards: Some(shards),
            ..self
        }
    }

    /// The same spec without the per-packet ground-truth hop log (see
    /// [`RunSpec::keep_true_hops`]). For scale cells whose folds never
    /// read [`RunOutput::true_hops`]; the simulation itself is
    /// bit-identical.
    pub fn without_true_hops(self) -> Self {
        Self {
            keep_true_hops: Some(false),
            ..self
        }
    }
}

/// What the fault layer did during a faulted run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Injection counters from the [`dophy_sim::FaultPlan`].
    pub injection: FaultInjection,
    /// Frames destroyed outright (unparseable after corruption).
    pub frames_destroyed: u64,
    /// Model-dissemination floods suppressed by injected faults.
    pub dissemination_drops: u64,
}

/// Accuracy trajectory point (fig6).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Simulated seconds elapsed.
    pub time_s: f64,
    /// Packets delivered so far.
    pub delivered: u64,
    /// Dophy MLE mean absolute error.
    pub dophy_mae: f64,
    /// Naive-estimator MAE.
    pub naive_mae: f64,
    /// Traditional EM MAE.
    pub em_mae: f64,
    /// Traditional log-LS MAE.
    pub ls_mae: f64,
    /// Dophy link coverage at this point.
    pub dophy_coverage: f64,
}

/// Optional observability instrumentation attached to a run.
///
/// Everything here is read-only with respect to the simulation, so an
/// instrumented run produces bit-identical results to a bare one (the
/// integration tests enforce this).
#[derive(Default)]
pub struct Instruments {
    /// Structured-event observer installed on the engine before start.
    pub observer: Option<Arc<dyn Observer>>,
    /// Sample the metrics registry on this sim-time cadence (also
    /// snapshotted once at the end of the run when set).
    pub metrics_every: Option<SimDuration>,
    /// Print a progress heartbeat to stderr after every window.
    pub progress: bool,
    /// Install a hot-path self-profiler and export its report in
    /// [`RunOutput::profile`]. Wall-time only; never touches sim state.
    pub profile: bool,
    /// Crash flight recorder: retains the last N observer events so the
    /// executor can dump a postmortem if the run panics. Composed *before*
    /// `observer` in the fan-out, so the ring always holds the freshest
    /// events even if a downstream observer is the thing that panics.
    pub flight_recorder: Option<Arc<FlightRecorder>>,
    /// Evidence capture: the sink's inference stack appends every evidence
    /// event to this buffer ([`dophy::infer::Inference::capture`]). Capture
    /// is a pure recorder, so it does not perturb the run; `dophy-serve`'s
    /// firehose uses it to stream a run's typed evidence into the
    /// tomography service, and `dophy-run --text` replays it into a fresh
    /// stack for the health report.
    pub evidence: Option<Arc<Mutex<Vec<Evidence>>>>,
}

/// Everything a finished run yields.
///
/// The in-band estimates (`dophy`, `naive`, `bayes`) are fields. The four
/// end-to-end estimate maps are methods that solve on first read: the
/// first call solves from the backends' state, and every later call, from
/// any thread or any clone made after it, returns the same map.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Ground truth per-transmission loss (links with enough traffic).
    pub truth: HashMap<LinkKey, f64>,
    /// Dophy MLE loss estimates.
    pub dophy: HashMap<LinkKey, f64>,
    /// Naive (moment) loss estimates from the same observations.
    pub naive: HashMap<LinkKey, f64>,
    /// Conjugate Bayesian loss estimates from the same observations.
    pub bayes: HashMap<LinkKey, f64>,
    /// The sink's pooled route table, solved on demand.
    end_to_end: EndToEnd,
    /// Decode statistics.
    pub decode: DecodeStats,
    /// Overhead statistics.
    pub overhead: OverheadStats,
    /// Model-dissemination bytes charged.
    pub dissemination_bytes: u64,
    /// Model refreshes performed.
    pub refreshes: u64,
    /// Data packets the sources generated: the delivery ratio's
    /// denominator.
    pub generated_packets: u64,
    /// End-to-end delivery ratio (0 when no packet was generated).
    pub delivery_ratio: f64,
    /// Routing churn metrics.
    pub churn: ChurnReport,
    /// Ground-truth hop logs of delivered packets (origin, seq) → hops.
    pub true_hops: HashMap<(u32, u32), dophy::protocol::TrueHops>,
    /// Per-link ground truth transmission counts (for re-encoding figures).
    pub node_count: usize,
    /// Largest candidate-table size (fixed-width id field sizing).
    pub max_degree: usize,
    /// MAC retry budget.
    pub max_attempts: u16,
    /// Accuracy trajectory (when `checkpoints` was set).
    pub checkpoints: Vec<Checkpoint>,
    /// Metrics time series (when [`Instruments::metrics_every`] was set).
    pub metrics: Vec<MetricsSnapshot>,
    /// Fault-injection summary (when [`RunSpec::faults`] was set).
    pub faults: Option<FaultSummary>,
    /// Hot-path profile (when [`Instruments::profile`] was set). Wall-clock
    /// values — excluded from determinism fingerprints.
    pub profile: Option<ProfileReport>,
    /// Wall-clock performance of the simulation loop.
    pub telemetry: RunTelemetry,
}

impl RunOutput {
    /// Scores a scheme's estimates against this run's truth.
    pub fn score_scheme(&self, estimates: &HashMap<LinkKey, f64>) -> AccuracyReport {
        score(estimates, &self.truth)
    }

    /// MINC-dual backend estimates (end-to-end evidence; see
    /// `dophy::infer::minc`), solved on first read.
    pub fn minc(&self) -> &HashMap<LinkKey, f64> {
        let e = &self.end_to_end;
        e.minc_est
            .get_or_init(|| estimates_to_loss(minc::solve(&e.paths, &e.query)))
    }

    /// Sparse-L1 backend estimates (end-to-end evidence; see
    /// `dophy::infer::sparse`), solved on first read.
    pub fn sparse_l1(&self) -> &HashMap<LinkKey, f64> {
        let e = &self.end_to_end;
        e.sparse_est
            .get_or_init(|| estimates_to_loss(sparse::solve(&e.paths, &e.query)))
    }

    /// Traditional EM estimates (converted to per-transmission loss),
    /// solved on first read.
    pub fn em(&self) -> &HashMap<LinkKey, f64> {
        let e = &self.end_to_end;
        e.em.get_or_init(|| {
            convert_survival(
                estimate_em(&e.paths, &TraditionalConfig::default()),
                e.query.r,
            )
        })
    }

    /// Traditional log-LS estimates (converted), solved on first read.
    pub fn ls(&self) -> &HashMap<LinkKey, f64> {
        let e = &self.end_to_end;
        e.ls.get_or_init(|| {
            convert_survival(
                estimate_logls(&e.paths, &TraditionalConfig::default()),
                e.query.r,
            )
        })
    }
}

/// The sink's pooled route table, moved out when the run ends, with one
/// solve-once cell per end-to-end estimate map.
#[derive(Debug, Clone)]
struct EndToEnd {
    paths: PathTable,
    /// The end-of-run query the MINC and sparse-L1 snapshots answer; its
    /// `r` also converts EM and log-LS survival to loss.
    query: SnapshotQuery,
    em: OnceLock<HashMap<LinkKey, f64>>,
    ls: OnceLock<HashMap<LinkKey, f64>>,
    minc_est: OnceLock<HashMap<LinkKey, f64>>,
    sparse_est: OnceLock<HashMap<LinkKey, f64>>,
}

/// Follows parents from `origin` to the sink; `None` on loops or missing
/// routes. Returns the link list origin→sink.
fn current_path(engine: &Engine<DophyNode>, origin: NodeId) -> Option<Vec<LinkKey>> {
    let n = engine.topology().node_count();
    let mut cur = origin;
    let mut path = Vec::new();
    for _ in 0..n {
        if cur == NodeId::SINK {
            return Some(path);
        }
        // Snapshot through the routing layer's time-indexed parent view —
        // at `t = now` this is exactly `next_hop()`, and the same call can
        // reconstruct any past window's tree.
        let next = engine.protocol(cur).router().parent_as_of(engine.now())?;
        path.push((cur.0, next.0));
        cur = next;
    }
    None // loop
}

fn truth_map(topo: &Topology, trace: &Trace, min_tx: u64) -> HashMap<LinkKey, f64> {
    let mut truth = HashMap::new();
    for (i, l) in topo.links().iter().enumerate() {
        let t = trace.links()[i];
        if t.data_tx >= min_tx {
            if let Some(loss) = t.empirical_loss() {
                truth.insert((l.src.0, l.dst.0), loss);
            }
        }
    }
    truth
}

/// Attributes one origin's window counts to a baseline measurement.
///
/// A packet sent near the end of window *k* often arrives in window
/// *k+1*, so a window can legitimately see `delivered > sent` (the
/// surplus belongs to the previous window's sends) — and conversely,
/// late-arriving packets must not be discarded as if they were lost.
/// `carry` holds deliveries not yet attributed; the return value is
/// `(delivered_to_record, carry_for_next_window)`.
fn attribute_window(sent: u64, delivered: u64, carry: u64) -> (u64, u64) {
    let available = delivered + carry;
    let used = available.min(sent);
    (used, available - used)
}

fn estimates_to_loss(v: Vec<((u32, u32), dophy::LossEstimate)>) -> HashMap<LinkKey, f64> {
    v.into_iter().map(|(k, e)| (k, e.loss)).collect()
}

fn convert_survival(map: HashMap<LinkKey, f64>, r: u16) -> HashMap<LinkKey, f64> {
    map.into_iter()
        .map(|(k, sigma)| (k, survival_to_transmission_loss(sigma, r)))
        .collect()
}

/// Runs a scenario to completion without instrumentation.
pub fn run_scenario(spec: &RunSpec) -> RunOutput {
    run_scenario_with(spec, Instruments::default())
}

/// Runs a scenario to completion with optional observability attached.
///
/// The engine runs on [`RunSpec::shards`] spatial shards. Profiling
/// works at any shard count: each worker thread records into a
/// shard-local profiler and the report aggregates wall time across
/// threads (so with several threads, subsystem totals can exceed the
/// run's wall clock — they are CPU-time-like, not elapsed-time-like).
pub fn run_scenario_with(spec: &RunSpec, inst: Instruments) -> RunOutput {
    let (mut engine, shared, fault_plan) = build_sharded_simulation_with_faults(
        &spec.sim,
        &spec.dophy,
        spec.faults.as_ref(),
        spec.shards.unwrap_or(1),
    );
    let profiler = inst.profile.then(|| Arc::new(Profiler::new()));
    if let Some(prof) = &profiler {
        engine.set_profiler(Arc::clone(prof));
    }
    // Flight recorder first in the chain: it must capture each event
    // before any other observer gets a chance to panic on it.
    let observer = match (inst.flight_recorder, inst.observer) {
        (Some(rec), Some(obs)) => {
            Some(
                Arc::new(MultiObserver::new(vec![rec as Arc<dyn Observer>, obs]))
                    as Arc<dyn Observer>,
            )
        }
        (Some(rec), None) => Some(rec as Arc<dyn Observer>),
        (None, obs) => obs,
    };
    if let Some(observer) = observer {
        engine.set_observer(observer);
    }
    // Set before start so the buffer receives the whole stream.
    shared.lock().infer.capture = inst.evidence;
    if spec.keep_true_hops == Some(false) {
        // Recorder gate only — the simulation is bit-identical with the
        // hop log off, it just never materializes the per-packet map.
        shared.lock().record_true_hops = false;
    }
    let mut registry = inst.metrics_every.map(|_| MetricsRegistry::new());
    let meter = inst.progress.then(|| ProgressMeter::new(spec.duration));
    let wall_start = Instant::now();
    engine.start();

    let r = spec.sim.mac.max_attempts;
    let n = engine.topology().node_count();
    let tomo_cfg = TraditionalConfig::default();
    let mut prev_sent = vec![0u64; n];
    let mut prev_delivered = vec![0u64; n];
    // Deliveries seen in a window but not yet attributed (packets in
    // flight across a window boundary); see `attribute_window`.
    let mut carry = vec![0u64; n];
    let mut checkpoints = Vec::new();

    let mut elapsed = SimDuration::ZERO;
    while elapsed < spec.duration {
        // Snapshot the tree BEFORE the window: this is the attribution the
        // baseline will use for the window's packets.
        let mut paths: SnapshotPaths = (0..n)
            .map(|i| current_path(&engine, NodeId::from_index(i)))
            .collect();
        let step = spec.window.min(spec.duration - elapsed);
        match (&mut registry, inst.metrics_every) {
            (Some(reg), Some(every)) => {
                // Split the window so metrics are sampled on their own
                // cadence. Chunked run_until calls execute the exact same
                // event sequence as a single one, so instrumentation does
                // not change run behaviour.
                let mut done = SimDuration::ZERO;
                while done < step {
                    let sub = every.min(step - done);
                    engine.run_for(sub);
                    done = done + sub;
                    sample_metrics(reg, &engine, &shared.lock());
                    reg.snapshot(engine.now());
                }
            }
            _ => engine.run_for(step),
        }
        elapsed = elapsed + step;
        if let Some(meter) = &meter {
            meter.tick(elapsed, engine.events_processed());
        }

        {
            let mut s = shared.lock();
            for origin in 1..n {
                let sent = s.sent_per_origin[origin] - prev_sent[origin];
                let delivered = s.delivered_per_origin[origin] - prev_delivered[origin];
                prev_sent[origin] = s.sent_per_origin[origin];
                prev_delivered[origin] = s.delivered_per_origin[origin];
                if sent == 0 {
                    // Nothing to attribute against; keep the deliveries
                    // for the window that recorded their sends.
                    carry[origin] += delivered;
                    continue;
                }
                if let Some(path) = paths[origin].take() {
                    if !path.is_empty() {
                        let (used, rest) = attribute_window(sent, delivered, carry[origin]);
                        carry[origin] = rest;
                        // The carry-corrected window tally, as typed
                        // evidence for the end-to-end solvers' route table.
                        // The in-band backends ignore path outcomes, so
                        // feeding the stack here cannot perturb any in-band
                        // estimate.
                        s.infer.observe(&Evidence::PathOutcome {
                            at: SimTime::ZERO + elapsed,
                            origin: origin as u32,
                            path,
                            sent,
                            delivered: used,
                        });
                    }
                }
            }
        }

        if spec.checkpoints {
            let truth = truth_map(engine.topology(), &engine.trace(), spec.min_truth_tx);
            let s = shared.lock();
            let dophy_est = estimates_to_loss(s.infer.in_band.estimates(r, spec.min_est_samples));
            let naive_est =
                estimates_to_loss(s.infer.in_band.naive_estimates(spec.min_est_samples));
            let delivered: u64 = s.delivered_per_origin.iter().sum();
            let em = convert_survival(estimate_em(&s.infer.paths, &tomo_cfg), r);
            let ls = convert_survival(estimate_logls(&s.infer.paths, &tomo_cfg), r);
            drop(s);
            let sc = |m: &HashMap<LinkKey, f64>| score(m, &truth);
            let dophy_rep = sc(&dophy_est);
            checkpoints.push(Checkpoint {
                time_s: elapsed.as_secs_f64(),
                delivered,
                dophy_mae: dophy_rep.mae,
                naive_mae: sc(&naive_est).mae,
                em_mae: sc(&em).mae,
                ls_mae: sc(&ls).mae,
                dophy_coverage: dophy_rep.coverage(),
            });
        }
    }

    let telemetry = RunTelemetry::from_measurement(
        engine.events_processed(),
        wall_start.elapsed().as_secs_f64(),
        spec.duration.as_secs_f64(),
    );

    let truth = truth_map(engine.topology(), &engine.trace(), spec.min_truth_tx);
    let duration_t = SimTime::ZERO + spec.duration;
    let churn = {
        let logs: Vec<&[(SimTime, NodeId)]> = (1..n)
            .map(|i| engine.protocol(NodeId::from_index(i)).router().parent_log())
            .collect();
        churn_report(&logs, duration_t)
    };
    let max_degree = (0..n)
        .map(|i| engine.topology().neighbors(NodeId::from_index(i)).len())
        .max()
        .unwrap_or(1);

    let mut s = shared.lock();
    let dophy_est = estimates_to_loss(s.infer.in_band.estimates(r, spec.min_est_samples));
    let naive_est = estimates_to_loss(s.infer.in_band.naive_estimates(spec.min_est_samples));
    let bayes_est = estimates_to_loss(s.infer.bayes.estimates(spec.min_est_samples));
    // The end-to-end evidence moves into the output unsolved; each map is
    // solved when first read (see `RunOutput::em`).
    let end_to_end = EndToEnd {
        paths: std::mem::take(&mut s.infer.paths),
        query: SnapshotQuery {
            now: duration_t,
            r,
            min_samples: spec.min_est_samples,
        },
        em: OnceLock::new(),
        ls: OnceLock::new(),
        minc_est: OnceLock::new(),
        sparse_est: OnceLock::new(),
    };
    // Move the hop log out instead of cloning it: at 10k-node scale the
    // clone alone would double the run's peak memory.
    let true_hops = std::mem::take(&mut s.true_hops);

    RunOutput {
        truth,
        dophy: dophy_est,
        naive: naive_est,
        bayes: bayes_est,
        end_to_end,
        decode: s.decode,
        overhead: s.overhead.clone(),
        dissemination_bytes: s.manager.dissemination_bytes,
        refreshes: s.manager.refreshes,
        generated_packets: s.sent_per_origin.iter().sum(),
        delivery_ratio: s.total_delivery_ratio().unwrap_or(0.0),
        churn,
        true_hops,
        node_count: n,
        max_degree,
        max_attempts: r,
        checkpoints,
        metrics: registry
            .map(|reg| reg.series().to_vec())
            .unwrap_or_default(),
        faults: fault_plan.map(|plan| FaultSummary {
            injection: plan.injection(),
            frames_destroyed: s.corrupt_frame_drops,
            dissemination_drops: s.manager.dissemination_drops,
        }),
        profile: profiler.map(|p| p.report()),
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dophy_sim::{LinkDynamics, MacConfig, Placement, RadioModel};

    fn quick_spec() -> RunSpec {
        let sim = SimConfig {
            placement: Placement::Grid {
                side: 4,
                spacing: 15.0,
            },
            radio: RadioModel::default(),
            mac: MacConfig::default(),
            dynamics: LinkDynamics::Static,
            seed: 3,
        };
        let dophy = DophyConfig {
            traffic_period: SimDuration::from_secs(2),
            warmup: SimDuration::from_secs(30),
            ..DophyConfig::default()
        };
        RunSpec {
            window: SimDuration::from_secs(60),
            checkpoints: true,
            ..RunSpec::new(sim, dophy, SimDuration::from_secs(600))
        }
    }

    #[test]
    fn full_run_produces_all_outputs() {
        let out = run_scenario(&quick_spec());
        assert!(out.overhead.packets > 300);
        assert!(!out.truth.is_empty());
        assert!(!out.dophy.is_empty());
        assert!(!out.em().is_empty());
        assert!(!out.ls().is_empty());
        assert!(out.delivery_ratio > 0.9);
        assert_eq!(out.checkpoints.len(), 10);
        // Dophy accuracy should be decent on a static grid.
        let rep = out.score_scheme(&out.dophy);
        assert!(rep.scored_links >= 5);
        assert!(rep.mae < 0.1, "dophy MAE {}", rep.mae);
    }

    #[test]
    fn dophy_beats_traditional_on_accuracy() {
        let out = run_scenario(&quick_spec());
        let d = out.score_scheme(&out.dophy).mae;
        let em = out.score_scheme(out.em()).mae;
        assert!(d < em, "Dophy MAE {d} should beat traditional EM MAE {em}");
    }

    #[test]
    fn checkpoints_show_convergence() {
        let out = run_scenario(&quick_spec());
        let first = out.checkpoints.iter().find(|c| c.dophy_mae > 0.0);
        let last = out.checkpoints.last().unwrap();
        if let Some(first) = first {
            assert!(
                last.dophy_mae <= first.dophy_mae + 0.02,
                "error should not grow: first {} last {}",
                first.dophy_mae,
                last.dophy_mae
            );
        }
        assert!(last.delivered > 0);
    }

    #[test]
    fn deterministic_runs() {
        let a = run_scenario(&quick_spec());
        let b = run_scenario(&quick_spec());
        assert_eq!(a.overhead.packets, b.overhead.packets);
        assert_eq!(a.decode, b.decode);
        assert_eq!(a.truth.len(), b.truth.len());
    }

    /// Dropping the hop log is a pure recorder gate: every other output
    /// is byte-identical, and the log itself stays empty.
    #[test]
    fn disabling_true_hops_does_not_perturb_the_run() {
        let with = run_scenario(&quick_spec());
        let without = run_scenario(&quick_spec().without_true_hops());
        assert!(!with.true_hops.is_empty(), "baseline must record hops");
        assert!(without.true_hops.is_empty(), "gate must drop the log");
        assert_eq!(with.overhead.packets, without.overhead.packets);
        assert_eq!(with.overhead.stream_bytes, without.overhead.stream_bytes);
        assert_eq!(with.decode, without.decode);
        assert_eq!(with.dophy, without.dophy);
        assert_eq!(with.truth, without.truth);
        assert_eq!(with.delivery_ratio, without.delivery_ratio);
    }

    #[test]
    fn attribute_window_carries_surplus() {
        // In-window delivery: everything attributes, nothing carries.
        assert_eq!(attribute_window(10, 9, 0), (9, 0));
        // A packet sent in window k delivered in k+1: window k records 9
        // of 10, the late delivery carries and tops up window k+1.
        assert_eq!(attribute_window(10, 11, 0), (10, 1));
        assert_eq!(attribute_window(10, 9, 1), (10, 0));
        // Carry never lets a window exceed its own sends.
        assert_eq!(attribute_window(3, 2, 7), (3, 6));
        // Lossless chain conservation: attributed + final carry equals
        // total deliveries.
        let windows = [(10u64, 8u64), (10, 12), (10, 9), (0, 1), (10, 10)];
        let mut carry = 0;
        let mut attributed = 0;
        for (sent, delivered) in windows {
            if sent == 0 {
                carry += delivered;
                continue;
            }
            let (used, rest) = attribute_window(sent, delivered, carry);
            attributed += used;
            carry = rest;
        }
        let total_delivered: u64 = windows.iter().map(|&(_, d)| d).sum();
        assert_eq!(attributed + carry, total_delivered);
    }

    /// Regression for the `delivered.min(sent)` clamp: at small windows a
    /// healthy share of packets crosses a window boundary in flight, and
    /// dropping them biased the traditional baseline pessimistic (loss
    /// overestimated). With carry the EM estimate must stay close to
    /// unbiased even at windows comparable to the delivery latency.
    #[test]
    fn small_window_attribution_not_pessimistic() {
        let spec = RunSpec {
            window: SimDuration::from_secs(10),
            ..quick_spec()
        };
        let out = run_scenario(&spec);
        let rep = out.score_scheme(out.em());
        assert!(rep.scored_links >= 5, "need links: {}", rep.scored_links);
        // Mean signed error: positive = loss overestimated (pessimistic).
        let bias: f64 = out
            .em()
            .iter()
            .filter_map(|(k, est)| out.truth.get(k).map(|t| est - t))
            .sum::<f64>()
            / rep.scored_links as f64;
        assert!(
            bias < 0.04,
            "EM baseline still pessimistically biased at small windows: {bias}"
        );
    }

    #[test]
    fn faulted_run_quarantines_and_stays_deterministic() {
        let spec = RunSpec {
            faults: Some(FaultConfig::corruption(0.05)),
            ..quick_spec()
        };
        let a = run_scenario(&spec);
        let b = run_scenario(&spec);
        let fa = a.faults.expect("fault summary present");
        assert!(fa.injection.frames_corrupted > 0, "faults must fire");
        // Every corrupted packet is either destroyed in flight or lands in
        // a counted quarantine cause — never a panic, never estimator food.
        assert!(a.decode.quarantined() + fa.frames_destroyed > 0);
        assert_eq!(a.decode, b.decode, "faulted runs replay identically");
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.overhead.packets, b.overhead.packets);
        // The unfaulted spec still produces a clean run (no stray draws).
        let clean = run_scenario(&quick_spec());
        assert!(clean.faults.is_none());
        assert_eq!(clean.decode.malformed, 0);
        assert_eq!(clean.decode.bad_hop_count, 0);
    }

    /// The end-to-end maps are solved on first read, one map at a time:
    /// a run that never reads them never pays for their solvers.
    #[test]
    fn end_to_end_maps_are_solved_only_when_read() {
        let out = run_scenario(&quick_spec());
        let solved = |o: &RunOutput| {
            let e = &o.end_to_end;
            [
                e.em.get().is_some(),
                e.ls.get().is_some(),
                e.minc_est.get().is_some(),
                e.sparse_est.get().is_some(),
            ]
        };
        assert_eq!(solved(&out), [false; 4], "a run must solve nothing");
        assert!(!out.em().is_empty());
        assert_eq!(solved(&out), [true, false, false, false]);
        // A second read is the same map, not a second solve.
        assert!(std::ptr::eq(out.em(), out.em()));
    }

    /// Concurrent first reads of one shared output agree on one map per
    /// estimator, equal to a serial solve on a clone taken before any read.
    #[test]
    fn concurrent_first_reads_share_one_solve() {
        let out = Arc::new(run_scenario(&quick_spec()));
        let serial = RunOutput::clone(&out);
        let barrier = std::sync::Barrier::new(4);
        // Each thread reports the addresses of the four maps it read.
        let seen: Vec<[usize; 4]> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        [out.em(), out.ls(), out.minc(), out.sparse_l1()]
                            .map(|m| m as *const HashMap<LinkKey, f64> as usize)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(
            seen.windows(2).all(|w| w[0] == w[1]),
            "threads saw {seen:?}"
        );
        assert_eq!(out.em(), serial.em());
        assert_eq!(out.ls(), serial.ls());
        assert_eq!(out.minc(), serial.minc());
        assert_eq!(out.sparse_l1(), serial.sparse_l1());
        assert!(!serial.em().is_empty() && !serial.minc().is_empty());
    }

    #[test]
    fn sharded_scenario_is_shard_invariant_and_complete() {
        // One engine: any shard count must produce the same figures, and
        // those figures must pass the same sanity bar as the quick-spec
        // tests above.
        let a = run_scenario(&quick_spec().with_shards(1));
        let b = run_scenario(&quick_spec().with_shards(5));
        assert_eq!(a.decode, b.decode);
        assert_eq!(a.overhead.packets, b.overhead.packets);
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.dophy, b.dophy);
        assert_eq!(a.em(), b.em());
        assert_eq!(a.checkpoints.len(), b.checkpoints.len());
        assert!(a.overhead.packets > 300);
        assert!(a.delivery_ratio > 0.9);
        let rep = a.score_scheme(&a.dophy);
        assert!(rep.scored_links >= 5);
        assert!(rep.mae < 0.1, "sharded dophy MAE {}", rep.mae);
    }

    #[test]
    fn corrupted_run_is_shard_and_thread_invariant() {
        // The lifted refusal: frame-corruption faults now draw from
        // per-receiver-node streams, so a corrupted run must be
        // byte-identical at every shard count — and identical to a rerun
        // of itself (determinism), with faults actually firing.
        let spec = RunSpec {
            faults: Some(FaultConfig::corruption(0.05)),
            ..quick_spec()
        };
        let a = run_scenario(&spec.with_shards(1));
        let b = run_scenario(&spec.with_shards(5));
        let c = run_scenario(&spec.with_shards(5));
        let fa = a.faults.expect("fault summary present");
        assert!(fa.injection.frames_corrupted > 0, "faults must fire");
        assert_eq!(a.faults, b.faults, "injection diverged across shards");
        assert_eq!(b.faults, c.faults, "faulted rerun diverged");
        assert_eq!(a.decode, b.decode);
        assert_eq!(a.overhead.packets, b.overhead.packets);
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.dophy, b.dophy);
        assert!(a.decode.quarantined() + fa.frames_destroyed > 0);
    }

    #[test]
    fn profiling_a_sharded_run_works_and_does_not_perturb() {
        // The other lifted refusal: profiling on the sharded engine
        // aggregates per-worker-thread wall time. The report must cover
        // the hot subsystems (when the self-profile feature is on) and
        // the profiled run must stay byte-identical to a bare one.
        let bare = run_scenario(&quick_spec().with_shards(3));
        let inst = Instruments {
            profile: true,
            ..Instruments::default()
        };
        let profiled = run_scenario_with(&quick_spec().with_shards(3), inst);
        assert_eq!(bare.decode, profiled.decode);
        assert_eq!(bare.overhead.packets, profiled.overhead.packets);
        assert_eq!(bare.truth, profiled.truth);
        assert_eq!(bare.dophy, profiled.dophy);
        let report = profiled.profile.expect("profile report present");
        assert_eq!(report.subsystems.len(), 5);
        // Runtime probe for the dophy-sim `self-profile` feature: a scope
        // on a fresh profiler only counts when it is compiled in.
        let probe = Profiler::new();
        let t0 = dophy_sim::profile::start(Some(&probe));
        dophy_sim::profile::stop(Some(&probe), dophy_sim::Subsystem::Decode, t0);
        if probe.count(dophy_sim::Subsystem::Decode) > 0 {
            for sub in &report.subsystems {
                assert!(
                    sub.count > 0,
                    "subsystem {} recorded no samples on the sharded engine",
                    sub.subsystem
                );
            }
        }
    }

    #[test]
    fn runspec_shards_field_round_trips_and_defaults() {
        let spec = quick_spec().with_shards(8);
        let json = serde_json::to_string(&spec).unwrap();
        let back: RunSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shards, Some(8));
        assert_eq!(back, spec);
        // Pre-sharding JSON (no `shards` key) still deserializes, to one
        // shard.
        let legacy = serde_json::to_string(&quick_spec()).unwrap();
        let stripped = legacy.replace(",\"shards\":null", "");
        assert!(!stripped.contains("shards"));
        let parsed: RunSpec = serde_json::from_str(&stripped).unwrap();
        assert!(parsed.shards.is_none());
    }

    #[test]
    fn runspec_faults_field_round_trips_and_defaults() {
        let spec = RunSpec {
            faults: Some(FaultConfig::corruption(0.01)),
            ..quick_spec()
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: RunSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.faults, spec.faults);
        // Pre-fault-layer JSON (no `faults` key) still deserializes.
        let legacy = serde_json::to_string(&quick_spec()).unwrap();
        let stripped = legacy.replace(",\"faults\":null", "");
        assert!(!stripped.contains("faults"));
        let parsed: RunSpec = serde_json::from_str(&stripped).unwrap();
        assert!(parsed.faults.is_none());
    }
}
