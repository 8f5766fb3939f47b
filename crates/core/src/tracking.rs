//! Time-resolved estimation and link watchdogs.
//!
//! Cumulative estimators ([`crate::estimator::NetworkEstimator`]) converge
//! on the *average* loss — but the networks Dophy targets drift. This
//! module adds:
//!
//! * [`WindowedNetworkEstimator`] — per-link observations bucketed into
//!   fixed time windows; the estimate merges the most recent `k` windows,
//!   so it tracks a moving target with bounded lag and bounded memory;
//! * [`detect_anomalies`] — the network-manager use case from the paper's
//!   introduction: flag links whose loss ratio exceeds a threshold with
//!   statistical confidence (one-sided Wald test on the MLE).

use crate::estimator::{LinkEstimator, LossEstimate};
use dophy_coding::aggregate::AttemptObservation;
use dophy_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Windowing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WindowConfig {
    /// Width of one bucket.
    pub window: SimDuration,
    /// Number of most-recent buckets merged into an estimate.
    pub merge_windows: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        Self {
            window: SimDuration::from_secs(120),
            merge_windows: 5,
        }
    }
}

/// One link's ring of per-window estimators.
#[derive(Debug, Clone, Default)]
struct LinkWindows {
    /// `(window_index, estimator)`, newest last; pruned to `merge_windows`.
    buckets: Vec<(u64, LinkEstimator)>,
}

impl LinkWindows {
    fn observe(&mut self, widx: u64, obs: AttemptObservation, keep: usize) {
        match self.buckets.last_mut() {
            Some((w, est)) if *w == widx => est.observe(obs),
            _ => {
                let mut est = LinkEstimator::new();
                est.observe(obs);
                self.buckets.push((widx, est));
                // Prune anything that can never be merged again.
                let min_keep = widx.saturating_sub(keep as u64);
                self.buckets.retain(|(w, _)| *w >= min_keep);
            }
        }
    }

    fn merged(&self, newest: u64, keep: usize) -> LinkEstimator {
        let oldest = newest.saturating_sub(keep as u64 - 1);
        let mut merged = LinkEstimator::new();
        for (w, est) in &self.buckets {
            if *w >= oldest && *w <= newest {
                merged.merge(est);
            }
        }
        merged
    }
}

/// Network-wide windowed estimator.
#[derive(Debug, Clone)]
pub struct WindowedNetworkEstimator {
    cfg: WindowConfig,
    links: HashMap<(u32, u32), LinkWindows>,
}

impl WindowedNetworkEstimator {
    /// Creates an estimator with the given windowing.
    pub fn new(cfg: WindowConfig) -> Self {
        Self {
            cfg,
            links: HashMap::new(),
        }
    }

    /// The windowing configuration.
    pub fn config(&self) -> &WindowConfig {
        &self.cfg
    }

    fn window_index(&self, now: SimTime) -> u64 {
        now.as_micros() / self.cfg.window.as_micros().max(1)
    }

    /// Records one observation at time `now`.
    pub fn observe(&mut self, now: SimTime, src: u32, dst: u32, obs: AttemptObservation) {
        let widx = self.window_index(now);
        let keep = self.cfg.merge_windows;
        self.links
            .entry((src, dst))
            .or_default()
            .observe(widx, obs, keep);
    }

    /// Current estimate for one link: MLE over the last `merge_windows`
    /// buckets ending at `now`. `None` without observations in range.
    pub fn estimate(&self, now: SimTime, src: u32, dst: u32, r: u16) -> Option<LossEstimate> {
        let newest = self.window_index(now);
        let merged = self
            .links
            .get(&(src, dst))?
            .merged(newest, self.cfg.merge_windows);
        if merged.count() == 0 {
            None
        } else {
            merged.mle(r)
        }
    }

    /// All current estimates with at least `min_samples` in-range samples.
    pub fn estimates(
        &self,
        now: SimTime,
        r: u16,
        min_samples: u64,
    ) -> Vec<((u32, u32), LossEstimate)> {
        let newest = self.window_index(now);
        let mut v: Vec<_> = self
            .links
            .iter()
            .filter_map(|(&k, lw)| {
                let merged = lw.merged(newest, self.cfg.merge_windows);
                if merged.count() < min_samples {
                    return None;
                }
                merged.mle(r).map(|e| (k, e))
            })
            .collect();
        v.sort_by_key(|&(k, _)| k);
        v
    }
}

/// Trait adapter: the windowed estimator ages its buckets against the
/// snapshot query's `now`, which is exactly why [`SnapshotQuery`] carries
/// a time.
///
/// [`SnapshotQuery`]: crate::infer::SnapshotQuery
impl crate::infer::Estimator for WindowedNetworkEstimator {
    fn observe(&mut self, ev: &crate::infer::Evidence) {
        if let crate::infer::Evidence::Hop {
            at,
            sender,
            receiver,
            observation,
        } = ev
        {
            self.observe(*at, *sender, *receiver, *observation);
        }
    }

    fn snapshot(&self, q: &crate::infer::SnapshotQuery) -> Vec<((u32, u32), LossEstimate)> {
        self.estimates(q.now, q.r, q.min_samples)
    }
}

/// CUSUM change-point detector configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CusumConfig {
    /// Observations used to establish the baseline mean.
    pub baseline_samples: u64,
    /// Allowance (slack) per observation, in attempt units — drifts smaller
    /// than this are ignored.
    pub drift: f64,
    /// Alarm threshold on the cumulative sum, in attempt units.
    pub threshold: f64,
}

impl Default for CusumConfig {
    fn default() -> Self {
        Self {
            baseline_samples: 50,
            drift: 0.25,
            threshold: 8.0,
        }
    }
}

/// Direction of a detected change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChangeDirection {
    /// Attempt counts rose: the link got lossier.
    Degraded,
    /// Attempt counts fell: the link improved.
    Improved,
}

/// A detected change point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChangeEvent {
    /// When the alarm fired.
    pub at: SimTime,
    /// Which way the link moved.
    pub direction: ChangeDirection,
    /// Baseline mean attempts before the change.
    pub baseline_mean: f64,
}

/// Per-link CUSUM detector over the attempt-count stream.
///
/// ```
/// use dophy::tracking::{CusumConfig, CusumDetector, ChangeDirection};
/// use dophy_coding::aggregate::AttemptObservation;
/// use dophy_sim::SimTime;
///
/// let mut d = CusumDetector::new(CusumConfig::default());
/// // A healthy phase establishes the baseline ...
/// for i in 0..100u64 {
///     assert!(d.observe(SimTime::from_micros(i), AttemptObservation::Exact(1)).is_none());
/// }
/// // ... then the link collapses: the alarm fires within a few packets.
/// let event = (100..120u64)
///     .find_map(|i| d.observe(SimTime::from_micros(i), AttemptObservation::Exact(4)))
///     .expect("detected");
/// assert_eq!(event.direction, ChangeDirection::Degraded);
/// ```
///
/// Classic two-sided CUSUM on the per-packet attempt counts: after a
/// baseline mean is established, `S⁺` accumulates positive deviations
/// (degradation) and `S⁻` negative ones (improvement); crossing the
/// threshold raises a [`ChangeEvent`] and restarts the baseline, so a
/// sequence of changes produces a sequence of events. Attempt counts are
/// a *leading* indicator — a few dozen packets after a link turns bad the
/// detector fires, long before a delivery-ratio statistic would move.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CusumDetector {
    cfg: CusumConfig,
    baseline_sum: f64,
    baseline_n: u64,
    mean: Option<f64>,
    s_pos: f64,
    s_neg: f64,
}

impl CusumDetector {
    /// New detector.
    pub fn new(cfg: CusumConfig) -> Self {
        Self {
            cfg,
            baseline_sum: 0.0,
            baseline_n: 0,
            mean: None,
            s_pos: 0.0,
            s_neg: 0.0,
        }
    }

    /// Baseline mean attempts, once established.
    pub fn baseline(&self) -> Option<f64> {
        self.mean
    }

    /// Feeds one observation; returns an event when a change is detected.
    pub fn observe(&mut self, now: SimTime, obs: AttemptObservation) -> Option<ChangeEvent> {
        let x = obs.midpoint();
        let Some(mean) = self.mean else {
            self.baseline_sum += x;
            self.baseline_n += 1;
            if self.baseline_n >= self.cfg.baseline_samples {
                self.mean = Some(self.baseline_sum / self.baseline_n as f64);
            }
            return None;
        };
        self.s_pos = (self.s_pos + (x - mean - self.cfg.drift)).max(0.0);
        self.s_neg = (self.s_neg + (mean - x - self.cfg.drift)).max(0.0);
        let direction = if self.s_pos > self.cfg.threshold {
            Some(ChangeDirection::Degraded)
        } else if self.s_neg > self.cfg.threshold {
            Some(ChangeDirection::Improved)
        } else {
            None
        };
        direction.map(|direction| {
            let event = ChangeEvent {
                at: now,
                direction,
                baseline_mean: mean,
            };
            // Restart: learn the post-change baseline afresh.
            *self = Self::new(self.cfg);
            event
        })
    }
}

/// A link flagged by the watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkAlarm {
    /// The offending directed link.
    pub link: (u32, u32),
    /// Its estimated loss ratio.
    pub loss: f64,
    /// One-sided z-score of the exceedance (how many standard errors the
    /// estimate sits above the threshold).
    pub z: f64,
    /// Samples behind the estimate.
    pub n_samples: u64,
}

/// Flags links whose estimated loss exceeds `loss_threshold` with
/// confidence: `(loss - threshold) / stderr >= min_z`. Estimates without a
/// standard error are flagged only on gross exceedance (2× threshold).
pub fn detect_anomalies(
    estimates: &[((u32, u32), LossEstimate)],
    loss_threshold: f64,
    min_z: f64,
) -> Vec<LinkAlarm> {
    let mut alarms: Vec<LinkAlarm> = estimates
        .iter()
        .filter_map(|&(link, est)| {
            let exceed = est.loss - loss_threshold;
            if exceed <= 0.0 {
                return None;
            }
            match est.stderr {
                Some(se) if se > 0.0 => {
                    let z = exceed / se;
                    (z >= min_z).then_some(LinkAlarm {
                        link,
                        loss: est.loss,
                        z,
                        n_samples: est.n_samples,
                    })
                }
                _ => (est.loss >= 2.0 * loss_threshold).then_some(LinkAlarm {
                    link,
                    loss: est.loss,
                    z: f64::INFINITY,
                    n_samples: est.n_samples,
                }),
            }
        })
        .collect();
    alarms.sort_by(|a, b| b.z.partial_cmp(&a.z).expect("finite or inf z"));
    alarms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_micros(s * 1_000_000)
    }

    fn feed_window(
        est: &mut WindowedNetworkEstimator,
        from_s: u64,
        to_s: u64,
        attempt: u16,
        per_sec: u64,
    ) {
        for s in from_s..to_s {
            for _ in 0..per_sec {
                est.observe(t(s), 1, 0, AttemptObservation::Exact(attempt));
            }
        }
    }

    #[test]
    fn tracks_a_step_change() {
        // Live query pattern: feed, query, feed, query (windowed state is
        // pruned as time advances, so retroactive queries are unsupported).
        let mut est = WindowedNetworkEstimator::new(WindowConfig {
            window: SimDuration::from_secs(60),
            merge_windows: 2,
        });
        // 0–300 s: perfect link (attempt 1).
        feed_window(&mut est, 0, 300, 1, 5);
        let early = est.estimate(t(299), 1, 0, 7).unwrap();
        // 300–600 s: bad link (attempt 3).
        feed_window(&mut est, 300, 600, 3, 5);
        let late = est.estimate(t(599), 1, 0, 7).unwrap();
        assert!(early.loss < 0.02, "early loss {}", early.loss);
        assert!(
            late.loss > 0.4,
            "late loss {} should reflect the step",
            late.loss
        );
    }

    #[test]
    fn old_windows_age_out() {
        let mut est = WindowedNetworkEstimator::new(WindowConfig {
            window: SimDuration::from_secs(10),
            merge_windows: 2,
        });
        feed_window(&mut est, 0, 10, 7, 3);
        // Long silence: by t=100 the old bucket is out of merge range.
        assert!(est.estimate(t(5), 1, 0, 7).is_some());
        assert!(est.estimate(t(100), 1, 0, 7).is_none());
    }

    #[test]
    fn merge_windows_smooths() {
        // A short burst of bad samples moves a wide-memory estimator much
        // less than a narrow one.
        let run = |merge_windows: usize| {
            let mut est = WindowedNetworkEstimator::new(WindowConfig {
                window: SimDuration::from_secs(60),
                merge_windows,
            });
            feed_window(&mut est, 0, 300, 1, 2);
            feed_window(&mut est, 300, 360, 5, 2);
            est.estimate(t(355), 1, 0, 7).unwrap().loss
        };
        let narrow = run(1);
        let wide = run(10);
        assert!(
            wide < narrow - 0.2,
            "wide memory {wide} should damp the burst vs narrow {narrow}"
        );
    }

    #[test]
    fn estimates_lists_all_links() {
        let mut est = WindowedNetworkEstimator::new(WindowConfig::default());
        for i in 0..20 {
            est.observe(t(i), 1, 0, AttemptObservation::Exact(1));
            est.observe(t(i), 2, 0, AttemptObservation::Exact(2));
        }
        let all = est.estimates(t(19), 7, 10);
        assert_eq!(all.len(), 2);
        assert!(est.estimates(t(19), 7, 21).is_empty());
    }

    fn feed_cusum(d: &mut CusumDetector, from: u64, n: u64, attempt: u16) -> Option<ChangeEvent> {
        for i in 0..n {
            if let Some(e) = d.observe(t(from + i), AttemptObservation::Exact(attempt)) {
                return Some(e);
            }
        }
        None
    }

    #[test]
    fn cusum_detects_degradation_quickly() {
        let mut d = CusumDetector::new(CusumConfig::default());
        assert!(
            feed_cusum(&mut d, 0, 200, 1).is_none(),
            "stationary: no alarm"
        );
        assert_eq!(d.baseline(), Some(1.0));
        // Step to attempt 3 (p 1.0 → ~0.33): must fire within a handful of
        // packets (threshold 8 / excess 1.75 ≈ 5 samples).
        let e = feed_cusum(&mut d, 200, 20, 3).expect("degradation detected");
        assert_eq!(e.direction, ChangeDirection::Degraded);
        assert!((e.baseline_mean - 1.0).abs() < 1e-9);
        assert!(e.at.as_micros() <= t(206).as_micros(), "fired at {}", e.at);
    }

    #[test]
    fn cusum_detects_improvement() {
        let mut d = CusumDetector::new(CusumConfig::default());
        assert!(feed_cusum(&mut d, 0, 100, 4).is_none());
        let e = feed_cusum(&mut d, 100, 20, 1).expect("improvement detected");
        assert_eq!(e.direction, ChangeDirection::Improved);
    }

    #[test]
    fn cusum_no_false_alarm_on_mild_noise() {
        let mut d = CusumDetector::new(CusumConfig::default());
        // Alternating 1/2 attempts: mean 1.5, each deviation 0.5, drift
        // 0.25 leaves ±0.25 per sample but the alternation cancels.
        for i in 0..2000u64 {
            let a = 1 + (i % 2) as u16;
            assert!(
                d.observe(t(i), AttemptObservation::Exact(a)).is_none(),
                "false alarm at {i}"
            );
        }
    }

    #[test]
    fn cusum_rebaselines_after_event() {
        let mut d = CusumDetector::new(CusumConfig::default());
        feed_cusum(&mut d, 0, 100, 1);
        feed_cusum(&mut d, 100, 50, 4).expect("first change");
        // After the alarm the detector re-learns; a second step fires again.
        assert!(feed_cusum(&mut d, 150, 100, 4).is_none(), "re-baselining");
        assert_eq!(d.baseline(), Some(4.0));
        let e2 = feed_cusum(&mut d, 250, 30, 1).expect("second change");
        assert_eq!(e2.direction, ChangeDirection::Improved);
    }

    #[test]
    fn watchdog_flags_confident_bad_links() {
        let estimates = vec![
            (
                (1, 0),
                LossEstimate {
                    p_success: 0.55,
                    loss: 0.45,
                    n_samples: 500,
                    stderr: Some(0.02),
                },
            ),
            (
                (2, 0),
                LossEstimate {
                    p_success: 0.88,
                    loss: 0.12,
                    n_samples: 500,
                    stderr: Some(0.05),
                },
            ),
            (
                (3, 0),
                LossEstimate {
                    p_success: 0.98,
                    loss: 0.02,
                    n_samples: 500,
                    stderr: Some(0.01),
                },
            ),
        ];
        let alarms = detect_anomalies(&estimates, 0.1, 3.0);
        // Link 1: (0.45-0.1)/0.02 = 17.5σ → flagged.
        // Link 2: (0.12-0.1)/0.05 = 0.4σ → not confident.
        // Link 3: below threshold.
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].link, (1, 0));
        assert!(alarms[0].z > 17.0);
    }

    #[test]
    fn watchdog_without_stderr_needs_gross_exceedance() {
        let make = |loss: f64| LossEstimate {
            p_success: 1.0 - loss,
            loss,
            n_samples: 3,
            stderr: None,
        };
        let estimates = vec![((1, 0), make(0.15)), ((2, 0), make(0.5))];
        let alarms = detect_anomalies(&estimates, 0.1, 3.0);
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].link, (2, 0));
    }

    #[test]
    fn alarms_sorted_by_confidence() {
        let mk = |loss, se| LossEstimate {
            p_success: 1.0 - loss,
            loss,
            n_samples: 100,
            stderr: Some(se),
        };
        let alarms = detect_anomalies(
            &[((1, 0), mk(0.3, 0.05)), ((2, 0), mk(0.3, 0.01))],
            0.1,
            2.0,
        );
        assert_eq!(alarms.len(), 2);
        assert_eq!(alarms[0].link, (2, 0), "tighter stderr ranks first");
    }
}
