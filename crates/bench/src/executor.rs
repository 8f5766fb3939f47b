//! Shared bounded worker pool + content-addressed run cache for
//! experiment [`Plan`]s, and [`execute_cell`], the harness's one run call.
//!
//! All cells of all selected experiments are flattened into one queue and
//! drained by a bounded pool (default `min(available cores, cells)`,
//! overridable with `--jobs N` / `DOPHY_JOBS`). Run cells are
//! content-addressed by [`cache_key`] — a stable FNV-1a hash over the
//! [`RunSpec`] (every float in the config tree hashes its raw bits) — so
//! experiments that deliberately share a canonical scenario execute it
//! once and receive the same `Arc<RunOutput>`.
//!
//! **Determinism.** Each simulation cell owns its seed and runs
//! single-threaded; workers only decide *when* a cell runs, never *what*
//! it computes. Reduces fold cell outputs in declaration order on the
//! caller's thread. A cache hit hands out the very output the miss
//! produced. Net effect: the figure JSON a suite writes is byte-identical
//! at any worker count (`tests/harness.rs` enforces this).
//!
//! **Failure isolation.** Every cell (and every reduce) runs under
//! `catch_unwind`; a panic fails only the owning experiment, with the
//! failing cell's label in the error, while the rest of the suite
//! completes. The harness exits non-zero afterwards.
//!
//! The pool feeds the PR-1 observability layer: a
//! [`MetricsRegistry`] tracks pool-depth gauges, cache hit/miss
//! counters, and per-cell wall-time histograms, snapshotted after every
//! cell into the [`HarnessReport`] exported as `BENCH_harness.json`,
//! which also carries the [`RunTelemetry`] of every simulation the suite
//! executed.

use crate::plan::{CellOutput, CellWork, Plan};
use crate::report::FigureResult;
use crate::scenario::{run_scenario_with, Instruments, RunOutput, RunSpec};
use crate::telemetry::RunTelemetry;
use dophy_sim::obs::{MetricsRegistry, MetricsSnapshot};
use dophy_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a [`std::hash::Hasher`].
///
/// `DefaultHasher` randomizes its keys per process; cache keys must
/// instead be stable across runs so sharing decisions (and the telemetry
/// that records them) are reproducible. FNV-1a over the `Hash`-by-bits
/// impls of the config tree gives run-to-run stable keys.
pub struct StableHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for StableHasher {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl std::hash::Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Content address of a run: stable hash of the full spec. Two cells with
/// equal keys execute one simulation and share its [`RunOutput`].
#[must_use]
pub fn cache_key(spec: &RunSpec) -> u64 {
    let mut h = StableHasher::default();
    std::hash::Hash::hash(spec, &mut h);
    std::hash::Hasher::finish(&h)
}

// ---------------------------------------------------------------------------
// Worker-count resolution
// ---------------------------------------------------------------------------

/// Resolves the worker count: explicit `--jobs` flag, else the
/// `DOPHY_JOBS` environment variable, else the machine's available
/// parallelism; always at least 1 and never more than `cells`.
#[must_use]
pub fn resolve_jobs(flag: Option<usize>, cells: usize) -> usize {
    let requested = flag
        .or_else(|| {
            std::env::var("DOPHY_JOBS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
    requested.max(1).min(cells.max(1))
}

// ---------------------------------------------------------------------------
// Harness report
// ---------------------------------------------------------------------------

/// Telemetry for one executed cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellRecord {
    /// Owning experiment id.
    pub experiment: String,
    /// Cell label within the experiment.
    pub label: String,
    /// Whether the output came from the run cache.
    pub cached: bool,
    /// Whether the cell succeeded.
    pub ok: bool,
    /// Seconds after suite start this cell began.
    pub started_s: f64,
    /// Wall-clock seconds the cell occupied a worker.
    pub wall_seconds: f64,
    /// Engine telemetry of the simulation this cell executed; `None` for
    /// cache hits and custom cells.
    pub telemetry: Option<RunTelemetry>,
}

/// Telemetry for one experiment (its cells plus the reduce).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Experiment id.
    pub id: String,
    /// Number of cells the plan declared.
    pub cells: usize,
    /// Whether every cell and the reduce succeeded.
    pub ok: bool,
    /// First failure message (names the failing cell), when not ok.
    pub error: Option<String>,
    /// Wall-clock seconds from its first cell starting to its reduce
    /// finishing (cells of other experiments interleave in this span).
    pub wall_seconds: f64,
}

/// Suite-level execution telemetry, exported as `BENCH_harness.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HarnessReport {
    /// Worker count the pool ran with.
    pub jobs: usize,
    /// End-to-end suite wall-clock (cells + reduces), seconds.
    pub suite_wall_seconds: f64,
    /// Simulations actually executed for run cells (= cache misses).
    pub unique_runs: u64,
    /// Run cells served from the cache.
    pub cache_hits: u64,
    /// Run cells that had to execute.
    pub cache_misses: u64,
    /// Largest number of simultaneously busy workers observed.
    pub max_pool_depth: usize,
    /// Per-experiment telemetry, in selection order.
    pub experiments: Vec<ExperimentRecord>,
    /// Per-cell telemetry, sorted by (experiment, label).
    pub cells: Vec<CellRecord>,
    /// Final state of the executor's metrics registry (pool-depth gauge,
    /// cache counters, cell wall-time histogram). Snapshot timestamps are
    /// wall-clock microseconds since suite start — the executor lives in
    /// wall time, not sim time.
    pub metrics: MetricsSnapshot,
}

/// One experiment's outcome: the figure, or why it failed.
pub struct ExperimentOutcome {
    /// Experiment id.
    pub id: String,
    /// The reduced figure, or the first cell/reduce failure.
    pub result: Result<FigureResult, String>,
}

/// Everything [`execute_plans`] returns.
pub struct SuiteOutcome {
    /// Per-experiment results, in the order the plans were given.
    pub experiments: Vec<ExperimentOutcome>,
    /// Execution telemetry.
    pub report: HarnessReport,
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

enum CacheEntry {
    /// Some worker is executing this spec; wait on the condvar.
    Pending,
    /// Finished; every equal-spec cell shares this output.
    Ready(Arc<RunOutput>),
    /// The owning execution panicked; equal-spec cells inherit the error.
    Failed(String),
}

struct Task {
    slot: usize,
    experiment: &'static str,
    label: String,
    work: CellWork,
}

struct Shared {
    queue: Mutex<VecDeque<Task>>,
    slots: Vec<Mutex<Option<Result<CellOutput, String>>>>,
    cache: Mutex<HashMap<u64, CacheEntry>>,
    cache_ready: Condvar,
    busy: AtomicUsize,
    max_depth: AtomicUsize,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    records: Mutex<Vec<CellRecord>>,
    metrics: Mutex<MetricsRegistry>,
    t0: Instant,
}

/// Locks ignoring poisoning: workers never panic while holding a lock
/// (cells execute unlocked, under `catch_unwind`), and even if one did,
/// the protected data stays valid for reporting.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `f`, converting a panic into an `Err` naming the cell.
fn catch<T>(label: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("cell '{label}' panicked: {msg}")
    })
}

impl Shared {
    fn wall_now(&self) -> SimTime {
        // Executor metrics live in wall time; reuse the sim-time axis as
        // "microseconds since suite start" for snapshot ordering.
        SimTime::ZERO + SimDuration::from_micros(self.t0.elapsed().as_micros() as u64)
    }

    /// Executes (or fetches) one cell's work. Returns the output plus
    /// whether it came from the cache.
    fn execute_work(&self, label: &str, work: CellWork) -> (Result<CellOutput, String>, bool) {
        match work {
            CellWork::Custom(f) => (catch(label, f).map(CellOutput::Figure), false),
            CellWork::Run(spec) => {
                let key = cache_key(&spec);
                enum Claim {
                    Owner,
                    Hit(Result<Arc<RunOutput>, String>),
                }
                let claim = {
                    let mut cache = lock(&self.cache);
                    loop {
                        match cache.get(&key) {
                            None => {
                                cache.insert(key, CacheEntry::Pending);
                                break Claim::Owner;
                            }
                            Some(CacheEntry::Pending) => {
                                cache = self
                                    .cache_ready
                                    .wait(cache)
                                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                            }
                            Some(CacheEntry::Ready(out)) => break Claim::Hit(Ok(out.clone())),
                            Some(CacheEntry::Failed(e)) => break Claim::Hit(Err(e.clone())),
                        }
                    }
                };
                match claim {
                    Claim::Hit(res) => {
                        self.cache_hits.fetch_add(1, Ordering::SeqCst);
                        lock(&self.metrics).inc_counter("executor.cache_hits", &[], 1);
                        (res.map(CellOutput::Run), true)
                    }
                    Claim::Owner => {
                        self.cache_misses.fetch_add(1, Ordering::SeqCst);
                        lock(&self.metrics).inc_counter("executor.cache_misses", &[], 1);
                        let res = execute_cell(label, &spec, Instruments::default()).map(Arc::new);
                        let mut cache = lock(&self.cache);
                        cache.insert(
                            key,
                            match &res {
                                Ok(out) => CacheEntry::Ready(out.clone()),
                                Err(e) => CacheEntry::Failed(e.clone()),
                            },
                        );
                        self.cache_ready.notify_all();
                        drop(cache);
                        (res.map(CellOutput::Run), false)
                    }
                }
            }
        }
    }

    fn worker(&self) {
        loop {
            let task = lock(&self.queue).pop_front();
            let Some(task) = task else { return };
            let depth = self.busy.fetch_add(1, Ordering::SeqCst) + 1;
            self.max_depth.fetch_max(depth, Ordering::SeqCst);
            let started_s = self.t0.elapsed().as_secs_f64();
            {
                let mut m = lock(&self.metrics);
                m.set_gauge("executor.pool_depth", &[], depth as f64);
                m.inc_counter("executor.cells_started", &[], 1);
            }
            let (result, cached) = self.execute_work(&task.label, task.work);
            let wall_seconds = self.t0.elapsed().as_secs_f64() - started_s;
            let ok = result.is_ok();
            let telemetry = match &result {
                Ok(CellOutput::Run(out)) if !cached => Some(out.telemetry),
                _ => None,
            };
            let depth_after = self.busy.fetch_sub(1, Ordering::SeqCst) - 1;
            {
                let mut m = lock(&self.metrics);
                m.set_gauge("executor.pool_depth", &[], depth_after as f64);
                m.inc_counter("executor.cells_finished", &[], 1);
                if !ok {
                    m.inc_counter("executor.cell_failures", &[], 1);
                }
                m.observe("executor.cell_wall_seconds", &[], wall_seconds);
                m.snapshot(self.wall_now());
            }
            *lock(&self.slots[task.slot]) = Some(result);
            lock(&self.records).push(CellRecord {
                experiment: task.experiment.to_string(),
                label: task.label,
                cached,
                ok,
                started_s,
                wall_seconds,
                telemetry,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Executes every cell of every plan on one bounded pool of `jobs`
/// workers, then reduces each plan in order.
///
/// The whole suite always completes: a panicking cell fails only the
/// experiment that owns it. Results come back in plan order regardless of
/// scheduling, and are bit-identical at any `jobs` value.
#[must_use]
pub fn execute_plans(plans: Vec<Plan>, jobs: usize) -> SuiteOutcome {
    let mut tasks = VecDeque::new();
    let mut reduces = Vec::new();
    let mut slot = 0usize;
    for plan in plans {
        let first_slot = slot;
        for cell in plan.cells {
            tasks.push_back(Task {
                slot,
                experiment: plan.id,
                label: cell.label,
                work: cell.work,
            });
            slot += 1;
        }
        reduces.push((plan.id, first_slot..slot, plan.reduce));
    }

    let total_cells = slot;
    let workers = jobs.max(1).min(total_cells.max(1));
    let shared = Shared {
        queue: Mutex::new(tasks),
        slots: (0..total_cells).map(|_| Mutex::new(None)).collect(),
        cache: Mutex::new(HashMap::new()),
        cache_ready: Condvar::new(),
        busy: AtomicUsize::new(0),
        max_depth: AtomicUsize::new(0),
        cache_hits: AtomicU64::new(0),
        cache_misses: AtomicU64::new(0),
        records: Mutex::new(Vec::new()),
        metrics: Mutex::new(MetricsRegistry::new()),
        t0: Instant::now(),
    };

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| shared.worker());
        }
    });

    // Reduce in plan order on this thread: output order (and content) is
    // independent of how workers were scheduled.
    let mut experiments = Vec::new();
    let mut exp_records = Vec::new();
    for (id, range, reduce) in reduces {
        let cells = range.len();
        let reduce_start = shared.t0.elapsed().as_secs_f64();
        let mut outs = Vec::with_capacity(cells);
        let mut first_err = None;
        for i in range.clone() {
            match lock(&shared.slots[i]).take() {
                Some(Ok(out)) => outs.push(out),
                Some(Err(e)) => {
                    first_err = Some(e);
                    break;
                }
                None => {
                    first_err = Some(format!("cell {i} of '{id}' never executed"));
                    break;
                }
            }
        }
        let result = match first_err {
            Some(e) => Err(e),
            None => catch(&format!("{id}/reduce"), move || reduce(outs)),
        };
        let first_start = {
            let records = lock(&shared.records);
            records
                .iter()
                .filter(|r| r.experiment == id)
                .map(|r| r.started_s)
                .fold(f64::INFINITY, f64::min)
        };
        let wall_seconds = (shared.t0.elapsed().as_secs_f64()
            - if first_start.is_finite() {
                first_start
            } else {
                reduce_start
            })
        .max(0.0);
        exp_records.push(ExperimentRecord {
            id: id.to_string(),
            cells,
            ok: result.is_ok(),
            error: result.as_ref().err().cloned(),
            wall_seconds,
        });
        experiments.push(ExperimentOutcome {
            id: id.to_string(),
            result,
        });
    }

    let mut cells = lock(&shared.records).clone();
    cells.sort_by(|a, b| (&a.experiment, &a.label).cmp(&(&b.experiment, &b.label)));
    let metrics = lock(&shared.metrics).snapshot(shared.wall_now()).clone();
    let report = HarnessReport {
        jobs: workers,
        suite_wall_seconds: shared.t0.elapsed().as_secs_f64(),
        unique_runs: shared.cache_misses.load(Ordering::SeqCst),
        cache_hits: shared.cache_hits.load(Ordering::SeqCst),
        cache_misses: shared.cache_misses.load(Ordering::SeqCst),
        max_pool_depth: shared.max_depth.load(Ordering::SeqCst),
        experiments: exp_records,
        cells,
        metrics,
    };
    SuiteOutcome {
        experiments,
        report,
    }
}

/// Runs one spec on the caller's thread with panic isolation: the
/// harness's one run call. The pool's cache misses, `dophy-run` and the
/// serving firehose all execute their simulations through it.
///
/// A panicking run becomes an `Err` naming `label`; when a flight
/// recorder is attached, it dumps its postmortem first.
pub fn execute_cell(
    label: &str,
    spec: &RunSpec,
    instruments: Instruments,
) -> Result<RunOutput, String> {
    // Clone the recorder handle before the instruments move into the run:
    // if the run panics, the ring still holds the event tail.
    let recorder = instruments.flight_recorder.clone();
    let res = catch(label, || run_scenario_with(spec, instruments));
    if let (Err(e), Some(rec)) = (&res, recorder) {
        rec.dump_postmortem(label, e);
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use dophy::protocol::DophyConfig;
    use dophy_sim::SimConfig;

    fn spec(seed: u64) -> RunSpec {
        RunSpec::new(
            SimConfig::canonical(seed),
            DophyConfig::default(),
            SimDuration::from_secs(120),
        )
    }

    #[test]
    fn cache_key_is_stable_and_spec_sensitive() {
        let a = cache_key(&spec(7));
        assert_eq!(a, cache_key(&spec(7)), "same spec, same key");
        assert_ne!(a, cache_key(&spec(8)), "seed must change the key");
        let mut b = spec(7);
        b.min_est_samples += 1;
        assert_ne!(a, cache_key(&b), "runner knobs must change the key");
        let mut c = spec(7);
        c.faults = Some(dophy_sim::FaultConfig::corruption(0.01));
        assert_ne!(a, cache_key(&c), "fault config must change the key");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        use std::hash::Hasher as _;
        // Published FNV-1a 64 test vectors.
        let mut h = StableHasher::default();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = StableHasher::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = StableHasher::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn resolve_jobs_clamps_and_prefers_flag() {
        assert_eq!(resolve_jobs(Some(3), 10), 3);
        assert_eq!(resolve_jobs(Some(0), 10), 1, "zero clamps to one worker");
        assert_eq!(
            resolve_jobs(Some(64), 4),
            4,
            "never more workers than cells"
        );
        assert!(resolve_jobs(None, 1000) >= 1);
    }

    #[test]
    fn panic_in_one_plan_spares_the_others() {
        let bad = Plan::custom("bad", "boom", || panic!("deliberate test panic"));
        let good = Plan::custom("good", "calm", || {
            FigureResult::new("good-fig", "G", "x", "y")
        });
        let outcome = execute_plans(vec![bad, good], 2);
        assert_eq!(outcome.experiments.len(), 2);
        let bad_err = outcome.experiments[0].result.as_ref().unwrap_err();
        assert!(
            bad_err.contains("boom") && bad_err.contains("deliberate test panic"),
            "error must name the failing cell: {bad_err}"
        );
        assert_eq!(
            outcome.experiments[1].result.as_ref().unwrap().id,
            "good-fig"
        );
        let rep = &outcome.report;
        assert!(!rep.experiments[0].ok);
        assert!(rep.experiments[0].error.is_some());
        assert!(rep.experiments[1].ok);
        assert_eq!(
            rep.metrics
                .counters
                .iter()
                .find(|(k, _)| k == "executor.cell_failures")
                .map(|&(_, v)| v),
            Some(1)
        );
    }
}
