//! Quickstart: run Dophy on a small grid and print per-link loss estimates
//! against ground truth.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dophy::protocol::{build_simulation, DophyConfig};
use dophy_sim::{NodeId, Placement, SimConfig, SimDuration};

fn main() {
    // A 5×5 grid, 15 m spacing, sink in the corner; default radio and MAC
    // (ARQ budget R = 7).
    let mut sim = SimConfig::canonical(42);
    sim.placement = Placement::Grid {
        side: 5,
        spacing: 15.0,
    };

    // Each node reports a reading every 5 s after a 60 s routing warmup.
    let dophy = DophyConfig {
        traffic_period: SimDuration::from_secs(5),
        ..DophyConfig::default()
    };

    let (mut engine, shared) = build_simulation(&sim, &dophy);
    engine.start();
    println!("simulating 20 minutes of a 25-node collection network ...");
    engine.run_for(SimDuration::from_secs(1200));

    let sink = shared.lock();
    println!(
        "delivered {} packets (delivery ratio {:.3}), decoded {:.1}% of them",
        sink.overhead.packets,
        sink.total_delivery_ratio().unwrap_or(0.0),
        100.0 * sink.decode.success_ratio()
    );
    println!(
        "Dophy measurement overhead: {:.2} B/packet stream, {:.2} B/packet total",
        sink.overhead.mean_stream_bytes(),
        sink.overhead.mean_measurement_bytes()
    );
    println!();
    println!(
        "{:>10} {:>12} {:>12} {:>10} {:>9}",
        "link", "est. loss", "true loss", "err", "samples"
    );

    let r = sim.mac.max_attempts;
    let mut rows = 0;
    let trace = engine.trace();
    for ((src, dst), est) in sink.infer.in_band.estimates(r, 30) {
        let (s, d) = (NodeId(src), NodeId(dst));
        let truth = engine
            .topology()
            .link_id(s, d)
            .and_then(|id| trace.links()[id].empirical_loss());
        if let Some(truth) = truth {
            println!(
                "{:>10} {:>12.4} {:>12.4} {:>10.4} {:>9}",
                format!("{s}->{d}"),
                est.loss,
                truth,
                (est.loss - truth).abs(),
                est.n_samples
            );
            rows += 1;
            if rows >= 20 {
                println!(
                    "  ... ({} more links)",
                    sink.infer.in_band.covered_links() - rows
                );
                break;
            }
        }
    }
}
