//! The paper's motivating scenario: loss tomography while routing paths
//! churn. Runs the same volatile network twice — once scored with Dophy's
//! retransmission-count estimates, once with traditional end-to-end
//! tomography — and prints both error profiles plus the measured routing
//! dynamics.
//!
//! ```text
//! cargo run --release --example dynamic_network
//! ```

use dophy::baseline::{estimate_em, survival_to_transmission_loss, TraditionalConfig};
use dophy::infer::PathTable;
use dophy::metrics::score;
use dophy::protocol::{build_simulation, DophyConfig};
use dophy_sim::{LinkDynamics, NodeId, Placement, SimConfig, SimDuration};
use std::collections::HashMap;

fn main() {
    let sim = SimConfig {
        placement: Placement::UniformDisk {
            n: 100,
            radius: 90.0,
        },
        dynamics: LinkDynamics::Volatile {
            sigma_per_sqrt_s: 0.03,
        },
        ..SimConfig::canonical(7)
    };
    let dophy = DophyConfig {
        traffic_period: SimDuration::from_secs(5),
        ..DophyConfig::default()
    };

    let (mut engine, shared) = build_simulation(&sim, &dophy);
    engine.start();

    println!("simulating 100 nodes with drifting links for 30 minutes ...");
    // Drive the run in 60 s windows; each window start snapshots the tree
    // the way the traditional baseline's periodic topology reports would.
    let n = engine.topology().node_count();
    let mut tomo = PathTable::new();
    let mut prev_sent = vec![0u64; n];
    let mut prev_delivered = vec![0u64; n];
    for _ in 0..30 {
        let paths: Vec<Option<Vec<(u32, u32)>>> = (0..n)
            .map(|i| {
                let mut cur = NodeId(i as u32);
                let mut path = Vec::new();
                for _ in 0..n {
                    if cur == NodeId::SINK {
                        return Some(path);
                    }
                    let next = engine.protocol(cur).router().next_hop()?;
                    path.push((cur.0, next.0));
                    cur = next;
                }
                None
            })
            .collect();
        engine.run_for(SimDuration::from_secs(60));
        let s = shared.lock();
        for origin in 1..n {
            let sent = s.sent_per_origin[origin] - prev_sent[origin];
            let delivered = s.delivered_per_origin[origin] - prev_delivered[origin];
            prev_sent[origin] = s.sent_per_origin[origin];
            prev_delivered[origin] = s.delivered_per_origin[origin];
            if let Some(path) = &paths[origin] {
                tomo.add(path, sent, delivered);
            }
        }
    }

    // Ground truth: empirical per-transmission loss on links that carried
    // enough data traffic.
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

    let r = sim.mac.max_attempts;
    let s = shared.lock();
    let dophy_est: HashMap<(u32, u32), f64> = s
        .infer
        .in_band
        .estimates(r, 10)
        .into_iter()
        .map(|(k, e)| (k, e.loss))
        .collect();
    let trad: HashMap<(u32, u32), f64> = estimate_em(&tomo, &TraditionalConfig::default())
        .into_iter()
        .map(|(k, sigma)| (k, survival_to_transmission_loss(sigma, r)))
        .collect();

    let d = score(&dophy_est, &truth);
    let t = score(&trad, &truth);

    // Routing dynamics actually experienced.
    let changes: u64 = (1..n)
        .map(|i| {
            engine
                .protocol(NodeId(i as u32))
                .router()
                .stats()
                .parent_changes
        })
        .sum();

    println!();
    println!(
        "routing churn: {changes} parent changes across {} nodes ({:.2}/node/hour)",
        n - 1,
        changes as f64 / (n - 1) as f64 / 0.5
    );
    println!("ground-truth links scored: {}", truth.len());
    println!();
    println!(
        "{:>24} {:>10} {:>10} {:>10} {:>10}",
        "scheme", "MAE", "RMSE", "p90", "coverage"
    );
    println!(
        "{:>24} {:>10.4} {:>10.4} {:>10.4} {:>10.3}",
        "dophy (retx-based)",
        d.mae,
        d.rmse,
        d.p90_abs_error,
        d.coverage()
    );
    println!(
        "{:>24} {:>10.4} {:>10.4} {:>10.4} {:>10.3}",
        "traditional (e2e EM)",
        t.mae,
        t.rmse,
        t.p90_abs_error,
        t.coverage()
    );
    println!();
    if d.mae < t.mae {
        println!(
            "Dophy is {:.1}x more accurate under dynamic routing — the paper's headline result.",
            t.mae / d.mae.max(1e-9)
        );
    } else {
        println!("unexpected: traditional tomography matched Dophy on this seed");
    }
}
