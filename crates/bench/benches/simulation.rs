//! Macrobenchmarks: simulator and full-stack throughput — how much
//! simulated network time one wall-clock second buys, which bounds how
//! large the evaluation sweeps can go.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dophy::protocol::{build_simulation, DophyConfig};
use dophy_routing::{RouterConfig, RoutingOnlyNode};
use dophy_sim::{Engine, LinkDynamics, MacConfig, Placement, RadioModel, SimConfig, SimDuration};
use std::sync::Arc;

fn sim_config(n: u32, seed: u64) -> SimConfig {
    SimConfig {
        placement: Placement::UniformDisk {
            n,
            radius: 120.0 * (f64::from(n) / 200.0).sqrt(),
        },
        radio: RadioModel::default(),
        mac: MacConfig::default(),
        dynamics: LinkDynamics::Static,
        seed,
    }
}

fn bench_routing_only(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim-routing-only");
    g.sample_size(10);
    for n in [50u32, 200] {
        g.bench_with_input(BenchmarkId::new("60s-sim", n), &n, |b, &n| {
            b.iter(|| {
                let cfg = sim_config(n, 1);
                let topo = Arc::new(cfg.topology());
                let models = cfg.loss_models(&topo);
                let protos = (0..topo.node_count())
                    .map(|_| RoutingOnlyNode::new(RouterConfig::default()))
                    .collect();
                let mut e = Engine::new(topo, &models, cfg.mac, cfg.hub(), protos, 1);
                e.start();
                e.run_for(SimDuration::from_secs(60));
                black_box(e.trace().broadcast_tx)
            });
        });
    }
    g.finish();
}

fn bench_full_stack(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim-full-stack");
    g.sample_size(10);
    for n in [50u32, 200] {
        g.bench_with_input(BenchmarkId::new("120s-sim", n), &n, |b, &n| {
            b.iter(|| {
                let sim = sim_config(n, 2);
                let dophy = DophyConfig {
                    traffic_period: SimDuration::from_secs(5),
                    warmup: SimDuration::from_secs(30),
                    ..DophyConfig::default()
                };
                let (mut engine, shared) = build_simulation(&sim, &dophy);
                engine.start();
                engine.run_for(SimDuration::from_secs(120));
                let packets = shared.lock().overhead.packets;
                black_box(packets)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_routing_only, bench_full_stack);
criterion_main!(benches);
