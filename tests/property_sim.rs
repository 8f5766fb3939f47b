//! Property tests on the simulator: conservation invariants that must hold
//! for any topology, seed, dynamics, and MAC configuration.

use dophy_routing::{RouterConfig, RoutingOnlyNode};
use dophy_sim::{Engine, LinkDynamics, MacConfig, Placement, RadioModel, SimConfig, SimDuration};
use proptest::prelude::*;
use std::sync::Arc;

fn dynamics_strategy() -> impl Strategy<Value = LinkDynamics> {
    prop_oneof![
        Just(LinkDynamics::Static),
        (0.01f64..0.1).prop_map(|s| LinkDynamics::Volatile {
            sigma_per_sqrt_s: s
        }),
        ((0.05f64..0.3), (10.0f64..300.0))
            .prop_map(|(amp, period_s)| LinkDynamics::Drift { amp, period_s }),
        ((0.02f64..0.2), (0.1f64..0.9), (2.0f64..120.0)).prop_map(|(lift, bad_factor, cycle_s)| {
            LinkDynamics::Bursty {
                lift,
                bad_factor,
                cycle_s,
            }
        }),
    ]
}

fn placement_strategy() -> impl Strategy<Value = Placement> {
    prop_oneof![
        (2u32..5, (8.0f64..20.0)).prop_map(|(side, spacing)| Placement::Grid { side, spacing }),
        (2u32..25, (30.0f64..80.0)).prop_map(|(n, radius)| Placement::UniformDisk { n, radius }),
        (2u32..10, (5.0f64..30.0)).prop_map(|(n, spacing)| Placement::Line { n, spacing }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn trace_counters_conserve(
        placement in placement_strategy(),
        dynamics in dynamics_strategy(),
        seed in 0u64..10_000,
        max_attempts in 1u16..10,
    ) {
        let cfg = SimConfig {
            placement,
            radio: RadioModel::default(),
            mac: MacConfig {
                max_attempts,
                ..MacConfig::default()
            },
            dynamics,
            seed,
        };
        let topo = Arc::new(cfg.topology());
        let models = cfg.loss_models(&topo);
        let protos = (0..topo.node_count())
            .map(|_| RoutingOnlyNode::new(RouterConfig::default()))
            .collect();
        let mut e = Engine::new(Arc::clone(&topo), &models, cfg.mac, cfg.hub(), protos, 1);
        e.start();
        e.run_for(SimDuration::from_secs(90));

        let t = e.trace();
        for (i, l) in t.links().iter().enumerate() {
            prop_assert!(l.data_rx <= l.data_tx, "link {i}: rx > tx");
            prop_assert!(l.ack_rx <= l.ack_tx, "link {i}: ack rx > tx");
            prop_assert!(l.bcast_rx <= l.bcast_tx, "link {i}: bcast rx > tx");
            // ACKs only follow received data frames.
            prop_assert!(l.ack_tx <= l.data_rx, "link {i}: more acks than receptions");
        }
        prop_assert_eq!(
            t.unicast_acked + t.unicast_failed,
            t.unicast_started,
            "every exchange ends exactly once"
        );
        if let Some(dr) = t.unicast_delivery_ratio() {
            prop_assert!((0.0..=1.0).contains(&dr));
        }
        let total_bcast_rx: u64 = t.links().iter().map(|l| l.bcast_rx).sum();
        prop_assert_eq!(total_bcast_rx, t.broadcast_rx);
        // Attempt counts never exceed the budget.
        if let Some(max) = t.attempts_hist.max_value() {
            prop_assert!(max as u16 <= max_attempts);
        }
    }

    /// The CSR dst→link index must agree with a reference linear scan of
    /// the link table for every ordered node pair — present links and
    /// absent ones alike (regression for the O(1) `link_id` rewrite).
    #[test]
    fn link_id_index_matches_linear_scan(
        placement in placement_strategy(),
        seed in 0u64..10_000,
    ) {
        let cfg = SimConfig {
            placement,
            radio: RadioModel::default(),
            mac: MacConfig::default(),
            dynamics: LinkDynamics::Static,
            seed,
        };
        let topo = cfg.topology();
        let n = topo.node_count();
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                let (u, v) = (dophy_sim::NodeId(u), dophy_sim::NodeId(v));
                let scanned = topo
                    .links()
                    .iter()
                    .position(|l| l.src == u && l.dst == v);
                prop_assert_eq!(
                    topo.link_id(u, v),
                    scanned,
                    "index and scan disagree for {:?}->{:?}",
                    u,
                    v
                );
                // The PRR accessor rides the same index.
                prop_assert_eq!(
                    topo.base_prr(u, v),
                    scanned.map(|i| topo.links()[i].base_prr)
                );
            }
        }
        // Fan-out pairs mirror the neighbor list exactly.
        for u in 0..n as u32 {
            let u = dophy_sim::NodeId(u);
            let pairs: Vec<_> = topo.neighbor_links(u).collect();
            prop_assert_eq!(pairs.len(), topo.neighbors(u).len());
            for (&v, &(pv, link)) in topo.neighbors(u).iter().zip(&pairs) {
                prop_assert_eq!(v, pv);
                prop_assert_eq!(topo.link_id(u, v), Some(link));
            }
        }
    }

    #[test]
    fn replay_is_exact(
        seed in 0u64..10_000,
        dynamics in dynamics_strategy(),
    ) {
        let cfg = SimConfig {
            placement: Placement::UniformDisk { n: 15, radius: 50.0 },
            radio: RadioModel::default(),
            mac: MacConfig::default(),
            dynamics,
            seed,
        };
        let run = || {
            let topo = Arc::new(cfg.topology());
            let models = cfg.loss_models(&topo);
            let protos = (0..topo.node_count())
                .map(|_| RoutingOnlyNode::new(RouterConfig::default()))
                .collect();
            let mut e = Engine::new(topo, &models, cfg.mac, cfg.hub(), protos, 1);
            e.start();
            e.run_for(SimDuration::from_secs(60));
            let t = e.trace();
            (
                t.bytes_on_air,
                t.broadcast_tx,
                t.broadcast_rx,
                t.links().to_vec(),
            )
        };
        prop_assert_eq!(run(), run());
    }
}

/// 1000-node scale smoke: the full Dophy stack at the fig14-scale sweep's
/// largest size must complete a short run, replay byte-identically, and
/// surface the engine throughput counters in a metrics snapshot.
#[test]
fn thousand_node_smoke() {
    use dophy::protocol::{build_simulation, DophyConfig};
    use dophy::telemetry::sample_metrics;
    use dophy_sim::obs::MetricsRegistry;

    let cfg = SimConfig {
        // Same constant-density scaling as fig14-scale: 120 m at 200
        // nodes → 120·√5 m at 1000.
        placement: Placement::UniformDisk {
            n: 1000,
            radius: 120.0 * 5.0_f64.sqrt(),
        },
        radio: RadioModel::default(),
        mac: MacConfig::default(),
        dynamics: LinkDynamics::Static,
        seed: 977,
    };
    let dophy = DophyConfig {
        traffic_period: SimDuration::from_secs(5),
        warmup: SimDuration::from_secs(10),
        ..DophyConfig::default()
    };
    let run = || {
        let (mut engine, sink) = build_simulation(&cfg, &dophy);
        engine.start();
        engine.run_for(SimDuration::from_secs(30));
        let mut reg = MetricsRegistry::new();
        {
            let sink = sink.lock();
            sample_metrics(&mut reg, &engine, &sink);
        }
        let snap = reg.snapshot(engine.now()).clone();
        (
            engine.events_processed(),
            engine.trace().bytes_on_air,
            engine.trace().broadcast_rx,
            snap,
        )
    };

    let (events, bytes, bcast_rx, snap) = run();
    assert!(
        events > 100_000,
        "1000 nodes should be busy: {events} events"
    );
    assert!(bytes > 0 && bcast_rx > 0, "traffic must have flowed");
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    };
    assert_eq!(
        counter("engine_events_processed"),
        Some(events),
        "metrics snapshot must carry the engine event counter"
    );
    assert!(
        snap.gauges
            .iter()
            .any(|(k, v)| k == "engine_events_per_sim_sec" && *v > 0.0),
        "metrics snapshot must carry the engine throughput gauge"
    );

    let (events2, bytes2, bcast_rx2, _) = run();
    assert_eq!(
        (events, bytes, bcast_rx),
        (events2, bytes2, bcast_rx2),
        "same-seed 1000-node runs must replay identically"
    );
}
