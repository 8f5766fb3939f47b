//! Hot-path self-profiling: near-zero-cost scoped wall-time measurement
//! of the engine's subsystems.
//!
//! A [`Profiler`] holds one lock-free power-of-two-nanosecond histogram
//! per [`Subsystem`]. The engine (and, through [`crate::engine::Ctx`],
//! the protocol layer) brackets its hot regions with [`start`]/[`stop`]
//! pairs; each pair costs two `Instant::now()` calls *only when a
//! profiler is installed*. With no profiler the pair is a single untaken
//! branch, and with the `self-profile` cargo feature disabled both
//! helpers compile to nothing at all.
//!
//! Profiling measures **wall time only** — it never touches simulation
//! state, RNG streams, or event ordering, so a profiled run is
//! bit-identical to a bare run of the same seed (the integration tests
//! enforce this alongside the observer guarantee).

use crate::obs::Histogram;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Engine subsystems instrumented with profiling scopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Subsystem {
    /// Popping due events from the calendar-ring event queue.
    QueuePop,
    /// Broadcast fan-out: per-neighbor loss draws and delivery batching.
    BroadcastFanout,
    /// The inline stop-and-wait ARQ loop for one unicast exchange.
    UnicastArq,
    /// Sink-side packet decode (range decoder + path checks).
    Decode,
    /// Estimator ingestion of decoded per-link observations.
    EstimatorUpdate,
}

impl Subsystem {
    /// Every instrumented subsystem, in export order.
    pub const ALL: [Subsystem; 5] = [
        Subsystem::QueuePop,
        Subsystem::BroadcastFanout,
        Subsystem::UnicastArq,
        Subsystem::Decode,
        Subsystem::EstimatorUpdate,
    ];

    /// Stable snake_case name used as the metrics label value.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::QueuePop => "queue_pop",
            Subsystem::BroadcastFanout => "broadcast_fanout",
            Subsystem::UnicastArq => "unicast_arq",
            Subsystem::Decode => "decode",
            Subsystem::EstimatorUpdate => "estimator_update",
        }
    }
}

/// Bucket count mirroring [`Histogram`]'s layout: bucket `i` holds
/// durations ≤ 2^i ns (last bucket unbounded, ≈ everything over 131 µs).
const BUCKETS: usize = 18;

/// Lock-free per-subsystem duration statistics.
struct SubStats {
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl SubStats {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Wall-time profiler shared (via `Arc`) between the engine and any
/// exporter. All recording is relaxed-atomic: the simulation is
/// single-threaded per engine, and exports happen between events.
pub struct Profiler {
    stats: [SubStats; 5],
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// Profiler with all histograms empty.
    #[must_use]
    pub fn new() -> Self {
        Self {
            stats: std::array::from_fn(|_| SubStats::new()),
        }
    }

    /// Records one measured duration for `sub`.
    pub fn record_ns(&self, sub: Subsystem, ns: u64) {
        let s = &self.stats[sub as usize];
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum_ns.fetch_add(ns, Ordering::Relaxed);
        s.min_ns.fetch_min(ns, Ordering::Relaxed);
        s.max_ns.fetch_max(ns, Ordering::Relaxed);
        // Same bucketing rule as `Histogram::observe`: bucket 0 is ≤ 1,
        // bucket i is (2^(i-1), 2^i], final bucket catches the rest.
        let idx = if ns <= 1 {
            0
        } else {
            (64 - (ns - 1).leading_zeros() as usize).min(BUCKETS - 1)
        };
        s.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded scopes for `sub`.
    pub fn count(&self, sub: Subsystem) -> u64 {
        self.stats[sub as usize].count.load(Ordering::Relaxed)
    }

    /// Current state of one subsystem's histogram, in the metrics
    /// registry's [`Histogram`] shape (values in nanoseconds).
    pub fn histogram(&self, sub: Subsystem) -> Histogram {
        let s = &self.stats[sub as usize];
        let count = s.count.load(Ordering::Relaxed);
        let min = s.min_ns.load(Ordering::Relaxed);
        let mut h = Histogram {
            count,
            sum: s.sum_ns.load(Ordering::Relaxed) as f64,
            min: if count == 0 { f64::NAN } else { min as f64 },
            max: if count == 0 {
                f64::NAN
            } else {
                s.max_ns.load(Ordering::Relaxed) as f64
            },
            ..Histogram::default()
        };
        for (i, b) in s.buckets.iter().enumerate() {
            h.buckets[i] = b.load(Ordering::Relaxed);
        }
        h
    }

    /// Drains every recorded sample into `target`, leaving this profiler
    /// empty. Used by the engine: each worker thread records into its own
    /// shard-local profiler (no cross-thread cache contention on the hot
    /// atomics) and the coordinator drains them all into the run-level
    /// profiler when a run call returns and the workers are quiescent.
    pub fn drain_into(&self, target: &Profiler) {
        for sub in Subsystem::ALL {
            let s = &self.stats[sub as usize];
            let t = &target.stats[sub as usize];
            let count = s.count.swap(0, Ordering::Relaxed);
            if count == 0 {
                // Still reset min/max so a stale extreme from an earlier
                // window cannot leak into a later drain.
                s.min_ns.store(u64::MAX, Ordering::Relaxed);
                s.max_ns.store(0, Ordering::Relaxed);
                continue;
            }
            t.count.fetch_add(count, Ordering::Relaxed);
            t.sum_ns
                .fetch_add(s.sum_ns.swap(0, Ordering::Relaxed), Ordering::Relaxed);
            t.min_ns.fetch_min(
                s.min_ns.swap(u64::MAX, Ordering::Relaxed),
                Ordering::Relaxed,
            );
            t.max_ns
                .fetch_max(s.max_ns.swap(0, Ordering::Relaxed), Ordering::Relaxed);
            for (src, dst) in s.buckets.iter().zip(&t.buckets) {
                dst.fetch_add(src.swap(0, Ordering::Relaxed), Ordering::Relaxed);
            }
        }
    }

    /// Full per-subsystem report (every subsystem listed, even if its
    /// count is zero — exporters and CI checks rely on completeness).
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            subsystems: Subsystem::ALL
                .iter()
                .map(|&sub| {
                    let s = &self.stats[sub as usize];
                    let count = s.count.load(Ordering::Relaxed);
                    let total_ns = s.sum_ns.load(Ordering::Relaxed);
                    SubsystemProfile {
                        subsystem: sub.name().to_string(),
                        count,
                        total_ns,
                        mean_ns: if count == 0 {
                            0.0
                        } else {
                            total_ns as f64 / count as f64
                        },
                        min_ns: match s.min_ns.load(Ordering::Relaxed) {
                            u64::MAX => 0,
                            v => v,
                        },
                        max_ns: s.max_ns.load(Ordering::Relaxed),
                        histogram: self.histogram(sub),
                    }
                })
                .collect(),
        }
    }
}

/// Aggregated wall-time statistics for one subsystem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubsystemProfile {
    /// Subsystem name (see [`Subsystem::name`]).
    pub subsystem: String,
    /// Number of recorded scopes.
    pub count: u64,
    /// Total wall time spent, nanoseconds.
    pub total_ns: u64,
    /// Mean scope duration, nanoseconds (0 when empty).
    pub mean_ns: f64,
    /// Shortest scope, nanoseconds (0 when empty).
    pub min_ns: u64,
    /// Longest scope, nanoseconds (0 when empty).
    pub max_ns: u64,
    /// Power-of-two duration histogram, nanoseconds.
    pub histogram: Histogram,
}

/// Per-run profile export: one entry per instrumented subsystem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Per-subsystem statistics, in [`Subsystem::ALL`] order.
    pub subsystems: Vec<SubsystemProfile>,
}

/// Opens a profiling scope: returns the start instant when a profiler is
/// installed (and the `self-profile` feature is compiled in), `None`
/// otherwise. Pair with [`stop`].
#[inline]
#[must_use]
pub fn start(profiler: Option<&Profiler>) -> Option<Instant> {
    if cfg!(feature = "self-profile") && profiler.is_some() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Closes a profiling scope opened by [`start`], attributing the elapsed
/// wall time to `sub`. A `None` start (profiling off) costs one branch.
#[inline]
pub fn stop(profiler: Option<&Profiler>, sub: Subsystem, started: Option<Instant>) {
    if cfg!(feature = "self-profile") {
        if let (Some(p), Some(t0)) = (profiler, started) {
            p.record_ns(
                sub,
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_buckets_durations() {
        let p = Profiler::new();
        p.record_ns(Subsystem::Decode, 1);
        p.record_ns(Subsystem::Decode, 3);
        p.record_ns(Subsystem::Decode, 1_000_000); // > 2^17: last bucket
        let h = p.histogram(Subsystem::Decode);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 1_000_004.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 1_000_000.0);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(*h.buckets.last().unwrap(), 1);
        assert_eq!(p.count(Subsystem::QueuePop), 0);
    }

    #[test]
    fn report_lists_every_subsystem() {
        let p = Profiler::new();
        p.record_ns(Subsystem::UnicastArq, 500);
        let report = p.report();
        let names: Vec<&str> = report
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
        let arq = &report.subsystems[2];
        assert_eq!(arq.count, 1);
        assert_eq!(arq.total_ns, 500);
        assert_eq!(arq.min_ns, 500);
        assert_eq!(arq.max_ns, 500);
        // Report round-trips through JSON for the per-run export. Compare
        // re-serialized text: empty histograms carry NaN min/max (the
        // registry convention), and NaN breaks a direct `PartialEq`.
        let json = serde_json::to_string(&report).unwrap();
        let back: ProfileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn drain_into_moves_everything_and_resets() {
        let src = Profiler::new();
        let dst = Profiler::new();
        src.record_ns(Subsystem::Decode, 10);
        src.record_ns(Subsystem::Decode, 1_000);
        src.record_ns(Subsystem::QueuePop, 7);
        dst.record_ns(Subsystem::Decode, 500);
        src.drain_into(&dst);
        assert_eq!(src.count(Subsystem::Decode), 0);
        assert_eq!(src.count(Subsystem::QueuePop), 0);
        let h = dst.histogram(Subsystem::Decode);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 1_510.0);
        assert_eq!(h.min, 10.0);
        assert_eq!(h.max, 1_000.0);
        assert_eq!(dst.count(Subsystem::QueuePop), 1);
        // A second drain from the now-empty source is a no-op, and the
        // reset min/max cannot pollute the target.
        src.drain_into(&dst);
        let h2 = dst.histogram(Subsystem::Decode);
        assert_eq!(h2.count, 3);
        assert_eq!(h2.min, 10.0);
        assert_eq!(h2.max, 1_000.0);
    }

    #[test]
    fn scope_helpers_respect_installation() {
        assert!(start(None).is_none());
        stop(None, Subsystem::Decode, None); // must not panic
        let p = Profiler::new();
        let t0 = start(Some(&p));
        stop(Some(&p), Subsystem::Decode, t0);
        if cfg!(feature = "self-profile") {
            assert_eq!(p.count(Subsystem::Decode), 1);
        } else {
            assert_eq!(p.count(Subsystem::Decode), 0);
        }
    }
}
