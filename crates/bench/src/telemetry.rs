//! Run telemetry: wall-clock instrumentation of the simulation hot loop.
//!
//! Every [`crate::run_scenario`] call measures how fast the engine chewed
//! through its event queue and returns a [`RunTelemetry`] in its output.
//! The experiments harness keeps each executed cell's telemetry in its
//! `BENCH_harness.json` record, and `dophy-run` prints it to stderr.
//! [`ProgressMeter`] prints the live heartbeat behind
//! `dophy-run --progress`.

use dophy_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::io::Write as _;
use std::time::Instant;

/// Wall-clock performance of one finished simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunTelemetry {
    /// Events executed by the engine.
    pub events_processed: u64,
    /// Wall-clock seconds spent inside the simulation loop.
    pub wall_seconds: f64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Simulated seconds covered.
    pub sim_seconds: f64,
    /// Simulated seconds per wall-clock second (how much faster than
    /// real time the simulation ran).
    pub sim_wall_ratio: f64,
    /// Process peak resident set size (bytes) when the run finished, 0
    /// where the platform offers no cheap probe. This is a *process-wide*
    /// high-water mark: under the pooled executor it reflects every run
    /// completed so far, so within one suite only the largest scenario's
    /// figure is a true per-run peak (fig14-scale orders its cells
    /// smallest-first for exactly this reason).
    pub peak_rss_bytes: u64,
}

impl RunTelemetry {
    /// Builds telemetry from raw loop measurements, stamping the current
    /// process peak RSS.
    #[must_use]
    pub fn from_measurement(events_processed: u64, wall_seconds: f64, sim_seconds: f64) -> Self {
        let wall = wall_seconds.max(1e-9);
        Self {
            events_processed,
            wall_seconds,
            events_per_sec: events_processed as f64 / wall,
            sim_seconds,
            sim_wall_ratio: sim_seconds / wall,
            peak_rss_bytes: peak_rss_bytes(),
        }
    }
}

/// Reads the process peak resident set size from `/proc/self/status`
/// (`VmHWM`, kiB). Returns 0 off Linux or when the probe fails — callers
/// treat 0 as "unknown", never as "no memory used".
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kib: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kib * 1024;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Live heartbeat printer for long runs (`dophy-run --progress`).
///
/// Prints to stderr so machine-readable stdout stays clean.
pub struct ProgressMeter {
    t0: Instant,
    total_sim_s: f64,
}

impl ProgressMeter {
    /// Meter for a run covering `total_sim` of simulated time.
    #[must_use]
    pub fn new(total_sim: SimDuration) -> Self {
        Self {
            t0: Instant::now(),
            total_sim_s: total_sim.as_secs_f64().max(1e-9),
        }
    }

    /// Emits one heartbeat line: % complete, events/sec, sim-vs-wall.
    pub fn tick(&self, sim_elapsed: SimDuration, events_processed: u64) {
        let wall = self.t0.elapsed().as_secs_f64().max(1e-9);
        let sim_s = sim_elapsed.as_secs_f64();
        let pct = 100.0 * sim_s / self.total_sim_s;
        let mut err = std::io::stderr().lock();
        let _ = writeln!(
            err,
            "[progress] {pct:5.1}% | {events_processed} events | {:.0} ev/s | sim/wall {:.0}x",
            events_processed as f64 / wall,
            sim_s / wall,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_derives_rates() {
        let t = RunTelemetry::from_measurement(1_000_000, 2.0, 1800.0);
        assert_eq!(t.events_processed, 1_000_000);
        assert!((t.events_per_sec - 500_000.0).abs() < 1e-6);
        assert!((t.sim_wall_ratio - 900.0).abs() < 1e-6);
        #[cfg(target_os = "linux")]
        assert!(t.peak_rss_bytes > 0, "VmHWM probe should work on Linux");
    }

    #[test]
    fn telemetry_json_round_trips() {
        let t = RunTelemetry::from_measurement(10, 0.5, 60.0);
        let j = serde_json::to_string(&t).unwrap();
        let back: RunTelemetry = serde_json::from_str(&j).unwrap();
        assert_eq!(t, back);
    }
}
