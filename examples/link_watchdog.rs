//! The network-manager use case from the paper's introduction: watch the
//! network live and raise alarms when a link's loss ratio degrades, using
//! Dophy's windowed estimates and confidence intervals.
//!
//! A mid-network link is driven through a scripted quality collapse
//! (Gilbert–Elliott with a long bad state), and the watchdog report is
//! printed every 2 simulated minutes.
//!
//! ```text
//! cargo run --release --example link_watchdog
//! ```

use dophy::protocol::{build_simulation, DophyConfig};
use dophy::tracking::{detect_anomalies, WindowConfig};
use dophy_sim::{LinkDynamics, NodeId, Placement, SimConfig, SimDuration};

fn main() {
    let sim = SimConfig {
        placement: Placement::Grid {
            side: 6,
            spacing: 14.0,
        },
        // Every link gets slow bursts; some will dip deep enough to alarm.
        dynamics: LinkDynamics::Bursty {
            lift: 0.05,
            bad_factor: 0.25,
            cycle_s: 240.0,
        },
        ..SimConfig::canonical(33)
    };
    let dophy = DophyConfig {
        traffic_period: SimDuration::from_secs(2),
        tracking: WindowConfig {
            window: SimDuration::from_secs(60),
            merge_windows: 3,
        },
        ..DophyConfig::default()
    };
    let (mut engine, shared) = build_simulation(&sim, &dophy);
    engine.start();

    const LOSS_THRESHOLD: f64 = 0.25;
    const MIN_Z: f64 = 3.0;
    println!(
        "watchdog: alarm when estimated loss > {LOSS_THRESHOLD} with {MIN_Z}-sigma confidence\n"
    );

    let r = sim.mac.max_attempts;
    for minute in (2..=30).step_by(2) {
        engine.run_for(SimDuration::from_secs(120));
        let s = shared.lock();
        let estimates = s.infer.windowed.estimates(engine.now(), r, 20);
        let alarms = detect_anomalies(&estimates, LOSS_THRESHOLD, MIN_Z);
        print!("t={minute:>2}min  links-watched={:<3} ", estimates.len());
        if alarms.is_empty() {
            println!("all quiet");
        } else {
            let trace = engine.trace();
            let summary: Vec<String> = alarms
                .iter()
                .take(4)
                .map(|a| {
                    // Cross-check against ground truth for the printout.
                    let truth = engine
                        .topology()
                        .link_id(NodeId(a.link.0), NodeId(a.link.1))
                        .and_then(|id| trace.links()[id].empirical_loss())
                        .unwrap_or(f64::NAN);
                    format!(
                        "n{}->n{} loss {:.2} ({:.1}σ, true-avg {:.2})",
                        a.link.0, a.link.1, a.loss, a.z, truth
                    )
                })
                .collect();
            println!("ALARMS: {}", summary.join("; "));
        }
    }

    // Final snapshot: the full operator-facing health report.
    let s = shared.lock();
    let report = dophy::diagnosis::NetworkHealthReport::generate(
        &s,
        engine.now(),
        &dophy::diagnosis::DiagnosisConfig {
            max_attempts: r,
            loss_threshold: LOSS_THRESHOLD,
            min_z: MIN_Z,
            ..dophy::diagnosis::DiagnosisConfig::default()
        },
    );
    println!("\n{}", report.render(8));
}
