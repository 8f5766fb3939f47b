//! Engine hot-path microbenchmarks: the event queue, the two transmit
//! paths (broadcast fan-out, unicast ARQ), and whole-engine steps/sec at
//! 100/400/1000 nodes.
//!
//! The drivers are deliberately thin synthetic protocols (periodic
//! beacons, periodic unicasts to the best neighbor) rather than the full
//! Dophy stack, so the numbers isolate engine cost — queue churn, link
//! lookups, loss sampling — from routing/coding logic. Topology and loss
//! models are built once per size outside the timed loop; each iteration
//! constructs and runs a fresh engine over the shared topology.
//!
//! Results feed `BENCH_engine.json` (steps/sec = events processed per
//! wall-clock second, reported via `Throughput::Elements`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dophy_sim::event::EventQueue;
use dophy_sim::{
    Ctx, Engine, Frame, LinkDynamics, MacConfig, NodeId, Payload, Placement, Protocol, RadioModel,
    SimConfig, SimDuration, SimTime, TimerId,
};
use std::sync::Arc;

/// Constant-density disk, same scaling rule as the fig8/fig14 sweeps.
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

fn payload() -> Payload {
    Arc::new(0u8)
}

/// Broadcasts a beacon every `period`; ignores everything it hears.
struct BeaconNode {
    period: SimDuration,
}

impl Protocol for BeaconNode {
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.period, TimerId(0));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: TimerId) {
        ctx.send_broadcast(payload(), 32);
        ctx.set_timer(self.period, TimerId(0));
    }
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _frame: &Frame) {}
}

/// Unicasts to its best neighbor every `period` (full ARQ exchange).
struct UnicastNode {
    period: SimDuration,
    target: Option<NodeId>,
}

impl Protocol for UnicastNode {
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        self.target = ctx.neighbors().first().copied();
        if self.target.is_some() {
            ctx.set_timer(self.period, TimerId(0));
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: TimerId) {
        if let Some(dst) = self.target {
            ctx.send_unicast(dst, payload(), 64);
        }
        ctx.set_timer(self.period, TimerId(0));
    }
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _frame: &Frame) {}
}

/// Mixed workload: beacon every 2 s plus a unicast to the best neighbor
/// every 1 s — roughly the broadcast/unicast event mix of the full stack.
struct MixedNode {
    target: Option<NodeId>,
}

impl Protocol for MixedNode {
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        self.target = ctx.neighbors().first().copied();
        ctx.set_timer(SimDuration::from_secs(2), TimerId(0));
        ctx.set_timer(SimDuration::from_secs(1), TimerId(1));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId) {
        match timer {
            TimerId(0) => {
                ctx.send_broadcast(payload(), 32);
                ctx.set_timer(SimDuration::from_secs(2), TimerId(0));
            }
            _ => {
                if let Some(dst) = self.target {
                    ctx.send_unicast(dst, payload(), 64);
                }
                ctx.set_timer(SimDuration::from_secs(1), TimerId(1));
            }
        }
    }
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _frame: &Frame) {}
}

/// Builds, starts, and runs an engine over the shared topology; returns
/// events processed.
fn run_engine<P: Protocol + Send>(
    cfg: &SimConfig,
    topo: &Arc<dophy_sim::Topology>,
    models: &[dophy_sim::LossModel],
    sim_secs: u64,
    make: impl Fn() -> P,
) -> u64 {
    let protos = (0..topo.node_count()).map(|_| make()).collect();
    let mut e = Engine::new(Arc::clone(topo), models, cfg.mac, cfg.hub(), protos, 1);
    e.start();
    e.run_for(SimDuration::from_secs(sim_secs));
    e.events_processed()
}

fn bench_event_queue(c: &mut Criterion) {
    const N: u64 = 100_000;
    let mut g = c.benchmark_group("event-queue");
    g.sample_size(20);
    g.throughput(Throughput::Elements(N));
    g.bench_function("push-pop-100k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            // Scattered insertion times (splitmix-style hash) exercise real
            // heap reordering instead of monotone append.
            for i in 0..N {
                let t = (i ^ 0x9E37_79B9).wrapping_mul(0xBF58_476D_1CE4_E5B9) % 1_000_000;
                q.push(
                    SimTime::ZERO + SimDuration::from_micros(t),
                    i,
                    (NodeId((i % 1000) as u32), TimerId(0)),
                );
            }
            let mut popped = 0u64;
            while q.pop().is_some() {
                popped += 1;
            }
            black_box(popped)
        });
    });
    g.finish();
}

fn bench_broadcast_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("broadcast-fanout");
    g.sample_size(10);
    let cfg = sim_config(200, 7);
    let topo = Arc::new(cfg.topology());
    let models = cfg.loss_models(&topo);
    let period = SimDuration::from_secs(1);
    let events = run_engine(&cfg, &topo, &models, 30, || BeaconNode { period });
    g.throughput(Throughput::Elements(events));
    g.bench_with_input(BenchmarkId::new("beacon-30s", 200), &(), |b, ()| {
        b.iter(|| {
            black_box(run_engine(&cfg, &topo, &models, 30, || BeaconNode {
                period,
            }))
        });
    });
    g.finish();
}

fn bench_unicast_arq(c: &mut Criterion) {
    let mut g = c.benchmark_group("unicast-arq");
    g.sample_size(10);
    let cfg = sim_config(200, 11);
    let topo = Arc::new(cfg.topology());
    let models = cfg.loss_models(&topo);
    let period = SimDuration::from_millis(500);
    let events = run_engine(&cfg, &topo, &models, 30, || UnicastNode {
        period,
        target: None,
    });
    g.throughput(Throughput::Elements(events));
    g.bench_with_input(BenchmarkId::new("arq-30s", 200), &(), |b, ()| {
        b.iter(|| {
            black_box(run_engine(&cfg, &topo, &models, 30, || UnicastNode {
                period,
                target: None,
            }))
        });
    });
    g.finish();
}

fn bench_full_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine-steps");
    g.sample_size(10);
    for n in [100u32, 400, 1000] {
        let cfg = sim_config(n, 3);
        let topo = Arc::new(cfg.topology());
        let models = cfg.loss_models(&topo);
        let events = run_engine(&cfg, &topo, &models, 30, || MixedNode { target: None });
        g.throughput(Throughput::Elements(events));
        g.bench_with_input(BenchmarkId::new("mixed-30s", n), &n, |b, _| {
            b.iter(|| {
                black_box(run_engine(&cfg, &topo, &models, 30, || MixedNode {
                    target: None,
                }))
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_broadcast_fanout,
    bench_unicast_arq,
    bench_full_engine
);
criterion_main!(benches);
