//! Stress the i.i.d.-loss assumption: run Dophy over bursty
//! (Gilbert–Elliott) channels and compare estimation error against the
//! same network with independent losses of identical mean.
//!
//! ```text
//! cargo run --release --example bursty_links
//! ```

use dophy::metrics::score;
use dophy::protocol::{build_simulation, DophyConfig};
use dophy_sim::{LinkDynamics, SimConfig, SimDuration};
use std::collections::HashMap;

fn run(dynamics: LinkDynamics, label: &str) -> (f64, f64, usize) {
    let sim = SimConfig {
        dynamics,
        ..SimConfig::canonical(19)
    };
    let dophy = DophyConfig {
        traffic_period: SimDuration::from_secs(5),
        ..DophyConfig::default()
    };
    let (mut engine, shared) = build_simulation(&sim, &dophy);
    engine.start();
    engine.run_for(SimDuration::from_secs(1800));

    let mut truth = HashMap::new();
    let trace = engine.trace();
    for (i, l) in engine.topology().links().iter().enumerate() {
        let t = trace.links()[i];
        if t.data_tx >= 30 {
            if let Some(loss) = t.empirical_loss() {
                truth.insert((l.src.0, l.dst.0), loss);
            }
        }
    }
    let s = shared.lock();
    let est: HashMap<(u32, u32), f64> = s
        .infer
        .in_band
        .estimates(sim.mac.max_attempts, 10)
        .into_iter()
        .map(|(k, e)| (k, e.loss))
        .collect();
    let rep = score(&est, &truth);
    println!(
        "{label:>28}: MAE {:.4}  RMSE {:.4}  links {}  delivery {:.3}",
        rep.mae,
        rep.rmse,
        rep.scored_links,
        s.total_delivery_ratio().unwrap_or(0.0)
    );
    (rep.mae, rep.rmse, rep.scored_links)
}

fn main() {
    println!("200-node disk, 30 simulated minutes per run\n");
    let (iid_mae, _, _) = run(LinkDynamics::Static, "i.i.d. losses");
    let mut worst: f64 = iid_mae;
    for cycle in [5.0, 30.0, 120.0] {
        let (mae, _, _) = run(
            LinkDynamics::Bursty {
                lift: 0.1,
                bad_factor: 0.4,
                cycle_s: cycle,
            },
            &format!("bursty (cycle {cycle:.0}s)"),
        );
        worst = worst.max(mae);
    }
    println!();
    println!(
        "burstiness inflates Dophy's MAE by at most {:.1}x on this workload — \
         the geometric model degrades gracefully because retransmission\n\
         counts remain a direct (if correlated) sample of the channel.",
        worst / iid_mae.max(1e-9)
    );
}
