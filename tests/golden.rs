//! Golden fingerprints: pins *what* a few cheap quick-suite cells compute,
//! not only that two runs agree with each other.
//!
//! Every determinism test elsewhere compares two runs (jobs, shards,
//! threads, instruments, live vs replay), so a change that moves every
//! output the same way passes them all. This test hashes every
//! deterministic output of a fixed set of cells with the executor's
//! FNV-1a [`StableHasher`] and compares the hashes with the committed
//! `tests/golden.json`.
//!
//! The cells cover the engine's corner cases: node churn whose radios
//! change inside a conservative window, a sharded run, a faulted run,
//! the estimator bake-off's backends, and the two custom cells that drive
//! the engine directly (drift tracking reads the live link PRR, energy
//! accounting reads the merged trace). Wall-clock telemetry is left out.
//!
//! Two run cells, one faulted and one sharded, also pin the stream an
//! installed observer receives: `observer_stream` hashes one
//! `"{t_us} {event:?}"` line per event, in arrival order. Observing never
//! perturbs a run, so these cells' other hashes are the bare run's.
//!
//! On a mismatch the test prints the full new JSON. A change that moves a
//! value on purpose replaces `tests/golden.json` with it and records the
//! moved entries, old → new, in EXPERIMENTS.md.

use dophy_bench::executor::StableHasher;
use dophy_bench::figures;
use dophy_bench::{
    run_scenario, run_scenario_with, CellWork, FigureResult, Instruments, Plan, RunOutput, RunSpec,
};
use dophy_sim::obs::{Event, Observer};
use dophy_sim::SimTime;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;
use std::hash::Hasher;
use std::sync::{Arc, Mutex};

/// Per-cell map of output name → 16-hex-digit hash.
type Fingerprints = BTreeMap<String, BTreeMap<String, String>>;

fn hash_str(s: &str) -> String {
    let mut h = StableHasher::default();
    h.write(s.as_bytes());
    format!("{:016x}", h.finish())
}

/// Hashes a value through its `Debug` rendering: integers print exactly
/// and floats print their shortest round-trip form, so equal renderings
/// mean equal values.
fn hash_debug(v: &impl Debug) -> String {
    hash_str(&format!("{v:?}"))
}

/// Hashes a map in key order (`HashMap` iteration order is random).
fn hash_map<K: Ord + Debug, V: Debug>(m: &HashMap<K, V>) -> String {
    let mut entries: Vec<(&K, &V)> = m.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    hash_debug(&entries)
}

/// Every deterministic field of a run. `profile` and the wall-clock
/// parts of `telemetry` measure the machine and are left out.
fn run_fingerprint(out: &RunOutput) -> BTreeMap<String, String> {
    let fields = [
        ("truth", hash_map(&out.truth)),
        ("dophy", hash_map(&out.dophy)),
        ("naive", hash_map(&out.naive)),
        ("bayes", hash_map(&out.bayes)),
        ("minc", hash_map(out.minc())),
        ("sparse_l1", hash_map(out.sparse_l1())),
        ("em", hash_map(out.em())),
        ("ls", hash_map(out.ls())),
        ("decode", hash_debug(&out.decode)),
        ("overhead", hash_debug(&out.overhead)),
        ("dissemination_bytes", hash_debug(&out.dissemination_bytes)),
        ("refreshes", hash_debug(&out.refreshes)),
        ("delivery_ratio", hash_debug(&out.delivery_ratio)),
        ("churn", hash_debug(&out.churn)),
        ("true_hops", hash_map(&out.true_hops)),
        (
            "shape",
            hash_debug(&(out.node_count, out.max_degree, out.max_attempts)),
        ),
        ("checkpoints", hash_debug(&out.checkpoints)),
        ("metrics", hash_debug(&out.metrics)),
        ("faults", hash_debug(&out.faults)),
        (
            "events_processed",
            hash_debug(&out.telemetry.events_processed),
        ),
    ];
    fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Observer hashing `"{t_us} {event:?}\n"` for every event it receives.
#[derive(Default)]
struct StreamHash(Mutex<StableHasher>);

impl StreamHash {
    fn hex(&self) -> String {
        format!("{:016x}", self.0.lock().unwrap().finish())
    }
}

impl Observer for StreamHash {
    fn on_event(&self, now: SimTime, ev: &Event) {
        let line = format!("{} {ev:?}\n", now.as_micros());
        self.0.lock().unwrap().write(line.as_bytes());
    }
}

/// Every series of a figure, plus its notes.
fn figure_fingerprint(fig: &FigureResult) -> BTreeMap<String, String> {
    let mut out: BTreeMap<String, String> = fig
        .series
        .iter()
        .map(|s| (format!("series:{}", s.name), hash_debug(&s.points)))
        .collect();
    out.insert("notes".to_string(), hash_debug(&fig.notes));
    out
}

/// Takes the labelled cell's work out of a figure's quick plan.
fn cell_work(plan: Plan, label: &str) -> CellWork {
    let id = plan.id;
    plan.cells
        .into_iter()
        .find(|c| c.label == label)
        .unwrap_or_else(|| panic!("{id} has no cell labelled {label}"))
        .work
}

fn cell_spec(plan: Plan, label: &str) -> RunSpec {
    match cell_work(plan, label) {
        CellWork::Run(spec) => *spec,
        CellWork::Custom(_) => panic!("{label} is a custom cell"),
    }
}

fn custom_figure(plan: Plan) -> FigureResult {
    let label = plan.cells[0].label.clone();
    match cell_work(plan, &label) {
        CellWork::Custom(body) => body(),
        CellWork::Run(_) => panic!("{label} is a run cell"),
    }
}

enum Golden {
    Run(Box<RunSpec>),
    /// A run cell whose observer stream is pinned as well.
    Observed(Box<RunSpec>),
    Custom(Plan),
}

fn run(spec: RunSpec) -> Golden {
    Golden::Run(Box::new(spec))
}

fn observed(spec: RunSpec) -> Golden {
    Golden::Observed(Box::new(spec))
}

/// The pinned cells, by name.
fn cells() -> Vec<(String, Golden)> {
    let quick = true;
    vec![
        (
            "fig12-node-churn/uptime=225s".into(),
            run(cell_spec(figures::fig12_node_churn(quick), "uptime=225s")),
        ),
        (
            "fig13-faults/rate=0.02".into(),
            observed(cell_spec(figures::fig13_faults(quick), "rate=0.02")),
        ),
        (
            "fig13-faults/rate=0+shards=4".into(),
            run(cell_spec(figures::fig13_faults(quick), "rate=0").with_shards(4)),
        ),
        (
            "fig12-node-churn/uptime=225s+shards=3".into(),
            observed(cell_spec(figures::fig12_node_churn(quick), "uptime=225s").with_shards(3)),
        ),
        (
            "fig15-bakeoff/duration=180s".into(),
            run(cell_spec(figures::fig15_bakeoff(quick), "duration=180s")),
        ),
        (
            "fig15-bakeoff/duration=420s".into(),
            run(cell_spec(figures::fig15_bakeoff(quick), "duration=420s")),
        ),
        (
            "fig15-bakeoff/duration=900s".into(),
            run(cell_spec(figures::fig15_bakeoff(quick), "duration=900s")),
        ),
        (
            "fig10-tracking".into(),
            Golden::Custom(figures::fig10_tracking(quick)),
        ),
        (
            "tab4-energy".into(),
            Golden::Custom(figures::tab4_energy(quick)),
        ),
    ]
}

fn fingerprint(cell: Golden) -> BTreeMap<String, String> {
    match cell {
        Golden::Run(spec) => run_fingerprint(&run_scenario(&spec)),
        Golden::Observed(spec) => {
            let stream = Arc::new(StreamHash::default());
            let out = run_scenario_with(
                &spec,
                Instruments {
                    observer: Some(stream.clone()),
                    ..Instruments::default()
                },
            );
            let mut fields = run_fingerprint(&out);
            fields.insert("observer_stream".to_string(), stream.hex());
            fields
        }
        Golden::Custom(plan) => figure_fingerprint(&custom_figure(plan)),
    }
}

#[test]
fn quick_cells_match_golden_fingerprints() {
    // Two workers: the cells are independent single-threaded runs.
    let cells = cells();
    let mut got = Fingerprints::new();
    std::thread::scope(|s| {
        let (evens, odds): (Vec<_>, Vec<_>) =
            cells.into_iter().enumerate().partition(|(i, _)| i % 2 == 0);
        let handles: Vec<_> = [evens, odds]
            .into_iter()
            .map(|half| {
                s.spawn(move || {
                    half.into_iter()
                        .map(|(_, (name, cell))| (name, fingerprint(cell)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            got.extend(h.join().expect("golden cell panicked"));
        }
    });

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden.json");
    let text = std::fs::read_to_string(path).expect("tests/golden.json is committed");
    let want: Fingerprints = serde_json::from_str(&text).expect("tests/golden.json parses");
    if got != want {
        let mut moved = Vec::new();
        for (cell, fields) in &got {
            for (field, hash) in fields {
                let old = want.get(cell).and_then(|f| f.get(field));
                if old != Some(hash) {
                    moved.push(format!("{cell} {field}: {old:?} -> {hash}"));
                }
            }
        }
        for cell in want.keys().filter(|c| !got.contains_key(*c)) {
            moved.push(format!("{cell}: no longer computed"));
        }
        println!(
            "new tests/golden.json:\n{}",
            serde_json::to_string_pretty(&got).expect("fingerprints serialize")
        );
        panic!(
            "golden fingerprints moved ({} entries):\n{}",
            moved.len(),
            moved.join("\n")
        );
    }
}
