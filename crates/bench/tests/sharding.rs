//! Sharding integration: the one engine must yield byte-identical figure
//! JSON at any shard count for the same seed, and must keep delivering
//! the full Dophy stack at the 10k-node scale that sharding exists for.

use dophy::baseline::{survival_to_transmission_loss, TraditionalConfig};
use dophy::infer::{Estimator, EstimatorKind, Evidence, Inference, SnapshotQuery};
use dophy::protocol::DophyConfig;
use dophy_bench::{
    cache_key, execute_cell, run_scenario, run_scenario_with, FigureResult, Instruments, RunOutput,
    RunSpec, Series,
};
use dophy_sim::obs::FlightRecorder;
use dophy_sim::{LinkDynamics, MacConfig, Placement, RadioModel, SimConfig, SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

fn spec(seed: u64) -> RunSpec {
    let sim = SimConfig {
        placement: Placement::Grid {
            side: 5,
            spacing: 15.0,
        },
        radio: RadioModel::default(),
        mac: MacConfig::default(),
        dynamics: LinkDynamics::Static,
        seed,
    };
    let dophy = DophyConfig {
        traffic_period: SimDuration::from_secs(2),
        warmup: SimDuration::from_secs(30),
        ..DophyConfig::default()
    };
    RunSpec::new(sim, dophy, SimDuration::from_secs(600))
}

/// Folds a run's deterministic outputs into a figure, the way the
/// experiment reducers do. Wall-clock telemetry is deliberately excluded:
/// everything here must be byte-stable.
fn figure(out: &RunOutput) -> FigureResult {
    let mut fig = FigureResult::new(
        "sharding-invariance",
        "Sharded-engine figure determinism probe",
        "link index / metric index",
        "loss / count",
    );
    let sorted = |m: &HashMap<(u32, u32), f64>| -> Vec<(f64, f64)> {
        let mut v: Vec<_> = m.iter().map(|(&(s, d), &l)| ((s, d), l)).collect();
        v.sort_by_key(|e| e.0);
        v.into_iter()
            .enumerate()
            .map(|(i, (_, l))| (i as f64, l))
            .collect()
    };
    fig.push_series(Series::new("truth", sorted(&out.truth)));
    fig.push_series(Series::new("dophy", sorted(&out.dophy)));
    fig.push_series(Series::new("naive", sorted(&out.naive)));
    fig.push_series(Series::new("em", sorted(out.em())));
    fig.push_series(Series::new("minc", sorted(out.minc())));
    fig.push_series(Series::new("sparse-l1", sorted(out.sparse_l1())));
    fig.push_series(Series::new(
        "totals",
        vec![
            (0.0, out.overhead.packets as f64),
            (1.0, out.decode.ok as f64),
            (2.0, out.decode.quarantined() as f64),
            (3.0, out.delivery_ratio),
            (4.0, out.refreshes as f64),
            (5.0, out.dissemination_bytes as f64),
            (6.0, out.churn.changes_per_node_hour),
        ],
    ));
    fig.note(format!("checkpoints: {}", out.checkpoints.len()));
    fig
}

#[test]
fn figure_json_is_byte_identical_across_shard_counts() {
    // Same seed, shards=1 vs shards=N, through the harness's run call:
    // the serialized figures must match byte for byte.
    let base = execute_cell("shards=1", &spec(11).with_shards(1), Instruments::default())
        .expect("sharded run succeeds");
    let json_base = serde_json::to_string(&figure(&base)).unwrap();
    for shards in [3, 6] {
        let out = execute_cell(
            "shards=n",
            &spec(11).with_shards(shards),
            Instruments::default(),
        )
        .expect("sharded run succeeds");
        let json = serde_json::to_string(&figure(&out)).unwrap();
        assert_eq!(
            json_base, json,
            "figure JSON diverged between shards=1 and shards={shards}"
        );
    }
}

#[test]
fn engine_choice_is_part_of_the_cache_identity() {
    // Results are shard-count invariant, but fig14's wall-clock series
    // are not, so the content-addressed run cache is keyed on the literal
    // spec hash: distinct shard counts cache separately and only the
    // exact same spec hits.
    let single = spec(7);
    let sharded = spec(7).with_shards(4);
    assert_ne!(cache_key(&single), cache_key(&sharded));
    assert_ne!(cache_key(&sharded), cache_key(&spec(7).with_shards(8)));
    assert_eq!(cache_key(&sharded), cache_key(&spec(7).with_shards(4)));
}

#[test]
fn instruments_do_not_perturb_a_sharded_run() {
    // Metrics sampling chunks run_until calls and the flight recorder
    // subscribes to every event; neither may change a sharded run, and
    // the metrics series must actually fill.
    let bare = run_scenario(&spec(13).with_shards(4));
    let inst = Instruments {
        metrics_every: Some(SimDuration::from_secs(120)),
        flight_recorder: Some(Arc::new(FlightRecorder::new(256))),
        ..Instruments::default()
    };
    let instrumented = run_scenario_with(&spec(13).with_shards(4), inst);
    assert_eq!(bare.decode, instrumented.decode);
    assert_eq!(bare.overhead.packets, instrumented.overhead.packets);
    assert_eq!(bare.truth, instrumented.truth);
    assert_eq!(bare.dophy, instrumented.dophy);
    assert!(!instrumented.metrics.is_empty(), "metrics series empty");
    assert!(instrumented
        .metrics
        .last()
        .unwrap()
        .counters
        .iter()
        .any(|(k, v)| k == "engine_events_processed" && *v > 0));
}

/// The inference layer's engine-blindness contract.
///
/// 1. The serialized evidence-event stream reaching the backends is
///    byte-identical at every shard count (the engine's byte-identity
///    guarantee extends through evidence derivation).
/// 2. At one shard and at four, replaying a run's captured stream into a
///    fresh [`Inference`] reproduces every backend's snapshot bit for bit
///    — the backends are pure functions of the evidence stream, so they
///    cannot observe how the engine was split.
/// 3. The same holds for the end-to-end backends, which only a scenario
///    run feeds (its windows emit the path outcomes): replaying a 4-shard
///    run's stream reproduces its MINC and sparse-L1 maps and the
///    traditional collector's EM and log-LS solves.
#[test]
fn evidence_stream_is_shard_invariant_and_backends_are_engine_blind() {
    let run = |shards: u16| {
        let spec = spec(17);
        let (mut engine, shared) =
            dophy::protocol::build_sharded_simulation(&spec.sim, &spec.dophy, shards);
        let handle = Arc::new(parking_lot::Mutex::new(Vec::new()));
        shared.lock().infer.capture = Some(Arc::clone(&handle));
        engine.start();
        engine.run_for(SimDuration::from_secs(420));
        (shared, handle, spec.dophy)
    };

    // (1) Shard invariance of the stream itself.
    let (shared1, log1, dophy_cfg) = run(1);
    let (shared4, log4, _) = run(4);
    let to_json = |log: &Arc<parking_lot::Mutex<Vec<Evidence>>>| -> String {
        serde_json::to_string(&*log.lock()).expect("evidence serializes")
    };
    assert!(
        !log1.lock().is_empty(),
        "run produced no evidence — nothing was tested"
    );
    assert_eq!(
        to_json(&log1),
        to_json(&log4),
        "evidence stream diverged between shards=1 and shards=4"
    );

    // (2) Replay equality at both shard counts.
    let replay = |log: &Arc<parking_lot::Mutex<Vec<Evidence>>>| {
        let mut fresh = Inference::new(dophy_cfg.tracking);
        for ev in log.lock().iter() {
            fresh.observe(ev);
        }
        fresh
    };
    let q = SnapshotQuery {
        now: SimTime::ZERO + SimDuration::from_secs(420),
        r: 7,
        min_samples: 1,
    };
    let replay_matches = |shared: &Arc<parking_lot::Mutex<dophy::protocol::SinkState>>,
                          log: &Arc<parking_lot::Mutex<Vec<Evidence>>>| {
        let fresh = replay(log);
        let live = shared.lock();
        for kind in EstimatorKind::ALL {
            assert_eq!(
                live.infer.backend(kind).snapshot(&q),
                fresh.backend(kind).snapshot(&q),
                "{kind} snapshot diverged under replay"
            );
        }
        assert_eq!(
            Estimator::snapshot(&live.infer.windowed, &q),
            Estimator::snapshot(&fresh.windowed, &q),
            "windowed snapshot diverged under replay"
        );
    };
    replay_matches(&shared1, &log1);
    replay_matches(&shared4, &log4);

    // (3) The end-to-end maps of a 4-shard scenario run, against solves
    // of its replayed stream.
    let spec = spec(17).with_shards(4);
    let buffer = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let out = run_scenario_with(
        &spec,
        Instruments {
            evidence: Some(Arc::clone(&buffer)),
            ..Instruments::default()
        },
    );
    assert!(
        buffer
            .lock()
            .iter()
            .any(|ev| matches!(ev, Evidence::PathOutcome { .. })),
        "scenario run emitted no path outcomes — nothing was tested"
    );
    let fresh = replay(&buffer);
    let r = spec.sim.mac.max_attempts;
    let end_q = SnapshotQuery {
        now: SimTime::ZERO + spec.duration,
        r,
        min_samples: spec.min_est_samples,
    };
    let loss = |est: &dyn Estimator| -> HashMap<(u32, u32), f64> {
        est.snapshot(&end_q)
            .into_iter()
            .map(|(k, e)| (k, e.loss))
            .collect()
    };
    let survival = |sigma: HashMap<(u32, u32), f64>| -> HashMap<(u32, u32), f64> {
        sigma
            .into_iter()
            .map(|(k, s)| (k, survival_to_transmission_loss(s, r)))
            .collect()
    };
    let cfg = TraditionalConfig::default();
    assert!(!out.em().is_empty(), "no EM estimates — nothing was tested");
    assert_eq!(out.minc(), &loss(&fresh.minc), "MINC diverged under replay");
    assert_eq!(
        out.sparse_l1(),
        &loss(&fresh.sparse),
        "sparse-L1 diverged under replay"
    );
    assert_eq!(
        out.em(),
        &survival(fresh.traditional.estimate_em(&cfg)),
        "EM diverged under replay"
    );
    assert_eq!(
        out.ls(),
        &survival(fresh.traditional.estimate_logls(&cfg)),
        "log-LS diverged under replay"
    );
}

/// 10k-node sharded smoke: the scale target of the sharded engine. Run
/// explicitly with `cargo test -p dophy-bench --test sharding -- --ignored`
/// (CI covers the same scale through fig14-scale's quick suite).
#[test]
#[ignore = "multi-minute at 10k nodes; fig14-scale quick covers it in CI"]
fn ten_thousand_node_sharded_smoke() {
    let sim = SimConfig {
        placement: Placement::UniformDisk {
            n: 10_000,
            radius: 120.0 * (10_000.0f64 / 200.0).sqrt(),
        },
        radio: RadioModel::default(),
        mac: MacConfig::default(),
        dynamics: LinkDynamics::Static,
        seed: 211,
    };
    let dophy = DophyConfig {
        traffic_period: SimDuration::from_secs(5),
        warmup: SimDuration::from_secs(60),
        ..DophyConfig::default()
    };
    let spec = RunSpec::new(sim, dophy, SimDuration::from_secs(150)).with_shards(32);
    let out = run_scenario(&spec);
    assert_eq!(out.node_count, 10_000);
    assert!(
        out.overhead.packets > 5_000,
        "packets {}",
        out.overhead.packets
    );
    // The ~30-hop routing tree needs several hundred simulated seconds of
    // beaconing to reach the rim, so end-to-end delivery is still low at
    // 150 s — the smoke only asserts traffic is flowing sink-ward.
    assert!(out.delivery_ratio > 0.01, "delivery {}", out.delivery_ratio);
    assert!(!out.truth.is_empty());
    assert!(!out.dophy.is_empty());
}
