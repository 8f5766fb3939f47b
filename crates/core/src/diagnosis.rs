//! Network-health reporting — the operator-facing product of tomography.
//!
//! Everything the stack measures converges here: per-link loss estimates
//! with confidence, watchdog alarms, coverage, traffic statistics, and a
//! ranked list of the links a maintainer should look at first. The report
//! is a serializable struct (machine-readable) with a text renderer
//! (human-readable); `dophy-run --text` and the `link_watchdog` example
//! are thin wrappers around it.

use crate::infer::Inference;
use crate::protocol::{DecodeStats, OverheadStats};
use crate::tracking::{detect_anomalies, LinkAlarm};
use dophy_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Report-generation knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiagnosisConfig {
    /// MAC retry budget (for the MLE).
    pub max_attempts: u16,
    /// Minimum samples before a link is reported.
    pub min_samples: u64,
    /// Loss ratio above which a link is considered degraded.
    pub loss_threshold: f64,
    /// Confidence (in standard errors) required to alarm.
    pub min_z: f64,
    /// Links listed in the worst-links table.
    pub top_links: usize,
}

impl Default for DiagnosisConfig {
    fn default() -> Self {
        Self {
            max_attempts: 7,
            min_samples: 20,
            loss_threshold: 0.25,
            min_z: 3.0,
            top_links: 10,
        }
    }
}

/// One link's entry in the report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkHealth {
    /// The directed link.
    pub link: (u32, u32),
    /// Long-run loss estimate (cumulative MLE).
    pub loss: f64,
    /// Wald standard error, when available.
    pub stderr: Option<f64>,
    /// Recent loss estimate (windowed), when the link carried recent
    /// traffic.
    pub recent_loss: Option<f64>,
    /// Expected physical transmissions per delivered packet (energy cost).
    pub expected_tx: Option<f64>,
    /// Observations behind the cumulative estimate.
    pub n_samples: u64,
}

/// The full health report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkHealthReport {
    /// Report timestamp (simulated).
    pub at_s: f64,
    /// Packets delivered to the sink so far.
    pub delivered_packets: u64,
    /// Network-wide delivery ratio.
    pub delivery_ratio: Option<f64>,
    /// Fraction of delivered packets decoded.
    pub decode_success: f64,
    /// Links with enough samples to report.
    pub links_monitored: usize,
    /// All monitored links, worst (highest loss) first.
    pub links: Vec<LinkHealth>,
    /// Active watchdog alarms (windowed estimates), most confident first.
    pub alarms: Vec<LinkAlarm>,
    /// Mean Dophy measurement overhead per delivered packet (bytes).
    pub measurement_bytes_per_packet: f64,
}

impl NetworkHealthReport {
    /// Builds a report from an inference stack and the sink's traffic
    /// counters: the live sink's, or a stack replayed from a run's
    /// captured evidence.
    pub fn generate(
        infer: &Inference,
        overhead: &OverheadStats,
        decode: &DecodeStats,
        delivery_ratio: Option<f64>,
        now: SimTime,
        cfg: &DiagnosisConfig,
    ) -> Self {
        let r = cfg.max_attempts;
        let mut links: Vec<LinkHealth> = infer
            .in_band
            .estimates(r, cfg.min_samples)
            .into_iter()
            .map(|((src, dst), est)| {
                let le = infer.in_band.link(src, dst);
                LinkHealth {
                    link: (src, dst),
                    loss: est.loss,
                    stderr: est.stderr,
                    recent_loss: infer.windowed.estimate(now, src, dst, r).map(|e| e.loss),
                    expected_tx: le.and_then(|l| l.expected_transmissions(r)),
                    n_samples: est.n_samples,
                }
            })
            .collect();
        links.sort_by(|a, b| b.loss.partial_cmp(&a.loss).expect("finite loss"));

        let windowed = infer.windowed.estimates(now, r, cfg.min_samples);
        let alarms = detect_anomalies(&windowed, cfg.loss_threshold, cfg.min_z);

        Self {
            at_s: now.as_secs_f64(),
            delivered_packets: overhead.packets,
            delivery_ratio,
            decode_success: decode.success_ratio(),
            links_monitored: links.len(),
            links,
            alarms,
            measurement_bytes_per_packet: overhead.mean_measurement_bytes(),
        }
    }

    /// Renders the human-readable summary.
    pub fn render(&self, top_links: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "network health @ {:.0}s", self.at_s);
        // A run that delivered nothing has no decode or overhead ratio.
        let or_dash = |v: Option<String>| v.unwrap_or_else(|| "-".into());
        let delivered = self.delivered_packets > 0;
        let _ = writeln!(
            out,
            "  delivered {} packets (ratio {}), decode {}, overhead {}",
            self.delivered_packets,
            or_dash(self.delivery_ratio.map(|d| format!("{d:.3}"))),
            or_dash(delivered.then(|| format!("{:.2}%", 100.0 * self.decode_success))),
            or_dash(delivered.then(|| format!("{:.2} B/pkt", self.measurement_bytes_per_packet))),
        );
        let _ = writeln!(out, "  monitoring {} links", self.links_monitored);
        if self.alarms.is_empty() {
            let _ = writeln!(out, "  alarms: none");
        } else {
            let _ = writeln!(out, "  ALARMS ({}):", self.alarms.len());
            for a in &self.alarms {
                let _ = writeln!(
                    out,
                    "    n{}->n{}: loss {:.3} ({:.1} sigma over threshold, {} samples)",
                    a.link.0, a.link.1, a.loss, a.z, a.n_samples
                );
            }
        }
        let _ = writeln!(out, "  worst links:");
        let _ = writeln!(
            out,
            "    {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "link", "loss", "±se", "recent", "E[tx]", "samples"
        );
        for l in self.links.iter().take(top_links) {
            let _ = writeln!(
                out,
                "    {:>10} {:>8.3} {:>8} {:>8} {:>8} {:>8}",
                format!("n{}->n{}", l.link.0, l.link.1),
                l.loss,
                l.stderr
                    .map(|s| format!("{s:.3}"))
                    .unwrap_or_else(|| "-".into()),
                l.recent_loss
                    .map(|r| format!("{r:.3}"))
                    .unwrap_or_else(|| "-".into()),
                l.expected_tx
                    .map(|t| format!("{t:.2}"))
                    .unwrap_or_else(|| "-".into()),
                l.n_samples
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{build_simulation, DophyConfig};
    use dophy_sim::{Placement, SimConfig, SimDuration};

    fn run() -> (NetworkHealthReport, u16) {
        let sim = SimConfig {
            placement: Placement::Grid {
                side: 4,
                spacing: 15.0,
            },
            ..SimConfig::canonical(55)
        };
        let cfg = DophyConfig {
            traffic_period: SimDuration::from_secs(2),
            warmup: SimDuration::from_secs(20),
            ..DophyConfig::default()
        };
        let (mut engine, shared) = build_simulation(&sim, &cfg);
        engine.start();
        engine.run_for(SimDuration::from_secs(600));
        let s = shared.lock();
        let rep = NetworkHealthReport::generate(
            &s.infer,
            &s.overhead,
            &s.decode,
            s.total_delivery_ratio(),
            engine.now(),
            &DiagnosisConfig {
                max_attempts: sim.mac.max_attempts,
                ..DiagnosisConfig::default()
            },
        );
        (rep, sim.mac.max_attempts)
    }

    #[test]
    fn report_is_populated_and_sorted() {
        let (rep, _) = run();
        assert!(rep.delivered_packets > 500);
        assert!(rep.decode_success > 0.95);
        assert!(rep.links_monitored >= 10);
        assert_eq!(rep.links.len(), rep.links_monitored);
        for w in rep.links.windows(2) {
            assert!(w[0].loss >= w[1].loss, "links sorted worst first");
        }
        for l in &rep.links {
            assert!((0.0..=1.0).contains(&l.loss));
            assert!(l.n_samples >= 20);
            if let Some(etx) = l.expected_tx {
                assert!(etx >= 1.0);
            }
        }
    }

    #[test]
    fn report_renders_and_serializes() {
        let (rep, _) = run();
        let text = rep.render(5);
        assert!(text.contains("network health"));
        assert!(text.contains("worst links"));
        let json = serde_json::to_string(&rep).unwrap();
        let back: NetworkHealthReport = serde_json::from_str(&json).unwrap();
        // serde_json's default float parsing may be 1 ULP off; compare
        // structure exactly and floats with tolerance.
        assert_eq!(back.delivered_packets, rep.delivered_packets);
        assert_eq!(back.links_monitored, rep.links_monitored);
        assert_eq!(back.alarms.len(), rep.alarms.len());
        for (a, b) in back.links.iter().zip(&rep.links) {
            assert_eq!(a.link, b.link);
            assert_eq!(a.n_samples, b.n_samples);
            assert!((a.loss - b.loss).abs() < 1e-9);
        }
    }
}
