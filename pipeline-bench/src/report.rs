//! Order statistics, the correctness gate, and the result line.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Nearest-rank percentile of unsorted samples (`q` in `(0, 1]`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median as the mean of the two middle samples for even counts.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Arithmetic mean.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Served MAE above this fails the run: fig15 puts the in-band estimator
/// at 0.025–0.057.
pub const MAX_SERVED_MAE: f64 = 0.06;

/// What the gate checks, from one pass.
#[derive(Debug, Clone, Copy)]
pub struct GateInput {
    pub served_mae: f64,
    pub evidence: u64,
    pub publish_every: u64,
    pub cut_seq: u64,
    pub cut_generation: u64,
    pub identity_samples: u64,
    pub identity_mismatches: u64,
}

/// Every reason the pass's outputs are wrong; empty when they are right.
pub fn gate(g: &GateInput) -> Vec<String> {
    let mut bad = Vec::new();
    if g.served_mae.is_nan() || g.served_mae > MAX_SERVED_MAE {
        bad.push(format!(
            "served MAE {} above {MAX_SERVED_MAE}",
            g.served_mae
        ));
    }
    if g.cut_seq != g.evidence {
        bad.push(format!(
            "final cut covers seq {} but {} evidence events were ingested",
            g.cut_seq, g.evidence
        ));
    }
    let generations = g.evidence / g.publish_every + 1;
    if g.cut_generation != generations {
        bad.push(format!(
            "final cut is generation {}, expected {generations}",
            g.cut_generation
        ));
    }
    if g.identity_samples == 0 {
        bad.push("no framed answer was compared with the in-process answer".into());
    }
    if g.identity_mismatches > 0 {
        bad.push(format!(
            "{} of {} framed answers differ from the in-process answer",
            g.identity_mismatches, g.identity_samples
        ));
    }
    bad
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> GateInput {
        GateInput {
            served_mae: 0.02,
            evidence: 1000,
            publish_every: 256,
            cut_seq: 1000,
            cut_generation: 4,
            identity_samples: 10,
            identity_mismatches: 0,
        }
    }

    #[test]
    fn gate_passes_consistent_outputs_and_rejects_each_defect() {
        assert!(gate(&good()).is_empty());
        let defects = [
            GateInput {
                served_mae: 0.2,
                ..good()
            },
            GateInput {
                served_mae: f64::NAN,
                ..good()
            },
            GateInput {
                cut_seq: 999,
                ..good()
            },
            GateInput {
                cut_generation: 3,
                ..good()
            },
            GateInput {
                identity_samples: 0,
                ..good()
            },
            GateInput {
                identity_mismatches: 1,
                ..good()
            },
        ];
        for d in defects {
            assert_eq!(gate(&d).len(), 1, "{d:?}");
        }
    }

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_line(true, 3, 0, &[metric("x_s", "s", 0.123_456_789_012_345)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x_s\": {\"value\": 0.123456789012345, \"unit\": \"s\"}}}"
        );
    }
}
