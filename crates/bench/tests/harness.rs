//! End-to-end determinism guarantees of the plan/executor harness:
//!
//! * the figure JSON a suite produces is byte-identical at any worker
//!   count (the executor decides *when* cells run, never *what* they
//!   compute);
//! * a cache hit reproduces the cache miss's result exactly (it *is* the
//!   same output).

use dophy::protocol::DophyConfig;
use dophy_bench::report::{FigureResult, Series};
use dophy_bench::{execute_plans, Cell, Plan, RunSpec, SuiteOutcome};
use dophy_sim::{LinkDynamics, MacConfig, Placement, RadioModel, SimConfig, SimDuration};

/// Six-node line, five simulated minutes: big enough to exercise real
/// multi-hop estimation, small enough that the suite runs in seconds.
fn tiny_spec(seed: u64) -> RunSpec {
    let sim = SimConfig {
        placement: Placement::Line {
            n: 6,
            spacing: 18.0,
        },
        radio: RadioModel::default(),
        mac: MacConfig::default(),
        dynamics: LinkDynamics::Static,
        seed,
    };
    let dophy = DophyConfig {
        traffic_period: SimDuration::from_secs(1),
        warmup: SimDuration::from_secs(10),
        ..DophyConfig::default()
    };
    RunSpec::new(sim, dophy, SimDuration::from_secs(300))
}

/// A sweep plan plus a single-run plan whose spec is byte-equal to one of
/// the sweep's cells — so every suite built from this exercises a
/// deliberate cross-experiment cache share.
fn make_plans() -> Vec<Plan> {
    let seeds = [11u64, 12, 13];
    let cells = seeds
        .iter()
        .map(|&s| Cell::run(format!("seed={s}"), tiny_spec(s)))
        .collect();
    let sweep = Plan::new("t-sweep", cells, move |outs| {
        let mut fig = FigureResult::new("t-sweep", "tiny seed sweep", "seed index", "value");
        fig.push_series(Series::new(
            "dophy-mae",
            outs.iter()
                .enumerate()
                .map(|(i, o)| (i as f64, o.score_scheme(&o.dophy).mae))
                .collect::<Vec<_>>(),
        ));
        fig.push_series(Series::new(
            "delivery-ratio",
            outs.iter()
                .enumerate()
                .map(|(i, o)| (i as f64, o.delivery_ratio))
                .collect::<Vec<_>>(),
        ));
        fig
    });
    let shared = Plan::single("t-shared", "seed=12", tiny_spec(12), |o| {
        let mut fig = FigureResult::new("t-shared", "shares the sweep's seed-12 run", "x", "y");
        fig.push_series(Series::new("delivery-ratio", vec![(0.0, o.delivery_ratio)]));
        fig.note(format!("packets {}", o.overhead.packets));
        fig
    });
    vec![sweep, shared]
}

fn figure_jsons(outcome: &SuiteOutcome) -> Vec<String> {
    outcome
        .experiments
        .iter()
        .map(|e| {
            let fig = e
                .result
                .as_ref()
                .unwrap_or_else(|err| panic!("{} failed: {err}", e.id));
            serde_json::to_string_pretty(fig).expect("figure serializes")
        })
        .collect()
}

#[test]
fn suite_json_is_byte_identical_across_worker_counts() {
    let serial = execute_plans(make_plans(), 1);
    let pooled = execute_plans(make_plans(), 4);

    assert_eq!(serial.report.jobs, 1);
    assert_eq!(pooled.report.jobs, 4);
    // The shared seed-12 spec must be served from the cache in both modes.
    assert!(serial.report.cache_hits >= 1, "expected a cache share");
    assert!(pooled.report.cache_hits >= 1, "expected a cache share");

    assert_eq!(
        figure_jsons(&serial),
        figure_jsons(&pooled),
        "pooled execution must not change a single byte of figure JSON"
    );
}

#[test]
fn cache_hit_reproduces_cache_miss_exactly() {
    // Two experiments, same spec: one executes (miss), one is served from
    // the cache (hit). Their figures must be byte-identical.
    let mk = |id: &'static str| {
        Plan::single(id, "cell", tiny_spec(42), |o| {
            let mut fig = FigureResult::new("t-cache", "cache equivalence", "metric", "value");
            fig.push_series(Series::new(
                "summary",
                vec![
                    (0.0, o.score_scheme(&o.dophy).mae),
                    (1.0, o.delivery_ratio),
                    (2.0, o.decode.success_ratio()),
                    (3.0, o.overhead.mean_stream_bytes()),
                ],
            ));
            fig
        })
    };
    let outcome = execute_plans(vec![mk("t-a"), mk("t-b")], 2);

    assert_eq!(outcome.report.cache_misses, 1);
    assert_eq!(outcome.report.cache_hits, 1);
    assert_eq!(outcome.report.unique_runs, 1);
    let jsons = figure_jsons(&outcome);
    assert_eq!(jsons[0], jsons[1], "hit and miss must agree byte-for-byte");

    let (cached_cells, ran_cells): (Vec<_>, Vec<_>) =
        outcome.report.cells.iter().partition(|c| c.cached);
    assert_eq!(cached_cells.len(), 1, "exactly one cell was a cache hit");
    assert!(cached_cells[0].ok);
    // The engine telemetry belongs to the cell that ran the simulation.
    assert!(
        ran_cells[0]
            .telemetry
            .is_some_and(|t| t.events_processed > 0),
        "the miss must carry its run's telemetry"
    );
    assert!(cached_cells[0].telemetry.is_none(), "a hit ran nothing");
}
