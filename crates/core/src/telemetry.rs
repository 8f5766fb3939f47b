//! Metrics sampling for Dophy simulations.
//!
//! [`sample_metrics`] reads the cumulative state of a running engine plus
//! the shared [`SinkState`] and writes it into a [`MetricsRegistry`].
//! Harnesses call it on a sim-time cadence and then
//! [`MetricsRegistry::snapshot`] to grow the exported time series.
//!
//! Sampling only *reads* engine/sink state, so (like the event observers)
//! it cannot perturb a run.

use crate::protocol::{DophyNode, SinkState};
use dophy_sim::obs::MetricsRegistry;
use dophy_sim::{Engine, NodeId, Subsystem};

/// Samples MAC, routing, coding, decode, and estimator state into `reg`.
///
/// Counter metrics are set to the engine's cumulative totals (monotone
/// across snapshots); gauges carry instantaneous values; the
/// `mac_queue_depth` histogram accumulates one observation per node per
/// call, building a distribution of queue depths over the run.
pub fn sample_metrics(reg: &mut MetricsRegistry, engine: &Engine<DophyNode>, sink: &SinkState) {
    let trace = engine.trace();
    let topo = engine.topology();
    let n = topo.node_count();

    // Engine throughput: cumulative events executed, plus the sim-relative
    // rate (events per simulated second — a workload-density figure that,
    // unlike wall-clock rates, is deterministic and comparable across
    // machines; wall-clock events/sec lives in the run telemetry).
    reg.set_counter("engine_events_processed", &[], engine.events_processed());
    let sim_secs = engine.now().as_micros() as f64 / 1e6;
    if sim_secs > 0.0 {
        reg.set_gauge(
            "engine_events_per_sim_sec",
            &[],
            engine.events_processed() as f64 / sim_secs,
        );
    }

    // MAC layer: ARQ and queue totals.
    reg.set_counter("mac_unicast_started", &[], trace.unicast_started);
    reg.set_counter("mac_unicast_acked", &[], trace.unicast_acked);
    reg.set_counter("mac_unicast_failed", &[], trace.unicast_failed);
    reg.set_counter("mac_queue_drops", &[], trace.queue_drops);
    reg.set_counter("mac_broadcast_tx", &[], trace.broadcast_tx);
    reg.set_counter("mac_broadcast_rx", &[], trace.broadcast_rx);
    reg.set_counter("mac_bytes_on_air", &[], trace.bytes_on_air);

    // Per-node transmit pressure: retries show up as data_tx on the
    // node's outgoing links; queue depth is read instantaneously.
    let mut per_node_tx = vec![0u64; n];
    for (link, truth) in topo.links().iter().zip(trace.links()) {
        per_node_tx[link.src.index()] += truth.data_tx;
    }
    for (i, &node_tx) in per_node_tx.iter().enumerate() {
        let node = NodeId::from_index(i);
        let label = i.to_string();
        let labels = [("node", label.as_str())];
        reg.set_counter("mac_data_tx", &labels, node_tx);
        let depth = engine.queue_depth(node) as f64;
        reg.set_gauge("mac_queue_depth", &labels, depth);
        reg.observe("mac_queue_depth_hist", &[], depth);
    }

    // Routing layer: beacon traffic and tree churn.
    let mut beacons_sent = 0u64;
    let mut beacons_heard = 0u64;
    let mut parent_changes = 0u64;
    for i in 0..n {
        let stats = engine.protocol(NodeId::from_index(i)).router().stats();
        beacons_sent += stats.beacons_sent;
        beacons_heard += stats.beacons_heard;
        parent_changes += stats.parent_changes;
    }
    reg.set_counter("routing_beacons_sent", &[], beacons_sent);
    reg.set_counter("routing_beacons_heard", &[], beacons_heard);
    reg.set_counter("routing_parent_changes", &[], parent_changes);
    reg.set_counter("routing_no_route_drops", &[], sink.no_route_drops);
    reg.set_counter("routing_ttl_drops", &[], sink.ttl_drops);
    if sim_secs > 0.0 {
        reg.set_gauge(
            "routing_beacon_rate_hz",
            &[],
            beacons_sent as f64 / sim_secs,
        );
    }

    // Coding / model lifecycle.
    reg.set_counter("coding_encode_disabled", &[], sink.encode_disabled);
    reg.set_counter(
        "model_dissemination_bytes",
        &[],
        sink.manager.dissemination_bytes,
    );
    reg.set_gauge("model_epoch_count", &[], sink.manager.epoch_count() as f64);

    // Decode outcomes by cause.
    let d = &sink.decode;
    for (cause, count) in [
        ("ok", d.ok),
        ("unknown_epoch", d.unknown_epoch),
        ("bad_index", d.bad_index),
        ("path_mismatch", d.path_mismatch),
        ("coding", d.coding),
        ("disabled", d.disabled),
        ("bad_hop_count", d.bad_hop_count),
        ("malformed", d.malformed),
    ] {
        reg.set_counter("decode_packets", &[("outcome", cause)], count);
    }
    reg.set_counter("decode_fallback_ok", &[], d.fallback_ok);
    reg.set_counter("decode_quarantined_total", &[], d.quarantined());
    reg.set_counter("fault_corrupt_frame_drops", &[], sink.corrupt_frame_drops);
    reg.set_counter(
        "model_dissemination_drops",
        &[],
        sink.manager.dissemination_drops,
    );

    // Estimator sample coverage.
    let covered = sink.infer.in_band.covered_links();
    reg.set_gauge("estimator_covered_links", &[], covered as f64);
    let total_links = topo.links().len();
    if total_links > 0 {
        reg.set_gauge(
            "estimator_coverage_ratio",
            &[],
            covered as f64 / total_links as f64,
        );
    }

    // Application layer: end-to-end delivery.
    reg.set_counter(
        "app_packets_sent",
        &[],
        sink.sent_per_origin.iter().sum::<u64>(),
    );
    reg.set_counter(
        "app_packets_delivered",
        &[],
        sink.delivered_per_origin.iter().sum::<u64>(),
    );

    // Hot-path self-profiling, when a profiler is installed on the engine:
    // per-subsystem wall-time histograms (nanoseconds). These carry wall
    // clock, not sim state — they vary run to run and are excluded from
    // determinism fingerprints.
    if let Some(prof) = engine.profiler() {
        for sub in Subsystem::ALL {
            reg.set_histogram(
                "profile_wall_ns",
                &[("subsystem", sub.name())],
                prof.histogram(sub),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{build_simulation, DophyConfig};
    use dophy_sim::{LinkDynamics, MacConfig, Placement, RadioModel, SimConfig, SimDuration};

    #[test]
    fn sampler_fills_expected_metric_families() {
        let sim = SimConfig {
            placement: Placement::Grid {
                side: 4,
                spacing: 14.0,
            },
            radio: RadioModel::default(),
            mac: MacConfig::default(),
            dynamics: LinkDynamics::Static,
            seed: 42,
        };
        let dophy = DophyConfig::default();
        let (mut engine, sink) = build_simulation(&sim, &dophy);
        engine.start();
        engine.run_for(SimDuration::from_secs(120));
        let mut reg = MetricsRegistry::new();
        {
            let sink = sink.lock();
            sample_metrics(&mut reg, &engine, &sink);
        }
        let snap = reg.snapshot(engine.now()).clone();
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        for required in [
            "engine_events_processed",
            "mac_unicast_started",
            "routing_beacons_sent",
            "coding_encode_disabled",
            "model_dissemination_bytes",
            "decode_packets{outcome=ok}",
            "app_packets_sent",
        ] {
            assert!(names.contains(&required), "missing {required}: {names:?}");
        }
        assert!(
            snap.counters
                .iter()
                .any(|(k, v)| k == "mac_unicast_started" && *v > 0),
            "traffic should have flowed"
        );
        assert!(
            snap.gauges
                .iter()
                .any(|(k, _)| k == "estimator_coverage_ratio"),
            "coverage gauge missing"
        );
        assert!(
            snap.gauges
                .iter()
                .any(|(k, v)| k == "engine_events_per_sim_sec" && *v > 0.0),
            "engine throughput gauge missing"
        );
        let (_, hist) = snap
            .histograms
            .iter()
            .find(|(k, _)| k == "mac_queue_depth_hist")
            .expect("queue depth histogram");
        assert_eq!(hist.count, engine.topology().node_count() as u64);
    }
}
