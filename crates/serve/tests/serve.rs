//! Service-path integration tests: a real firehose (N simulations run
//! through the bench executor with the evidence tap) ingested into an
//! [`EstimateStore`] under concurrent query load, checked for snapshot
//! consistency and live-vs-replay byte identity.

use dophy::infer::{EstimatorKind, Evidence};
use dophy::protocol::DophyConfig;
use dophy_bench::RunSpec;
use dophy_serve::{capture, EstimateStore, ServeConfig};
use dophy_sim::{LinkDynamics, MacConfig, Placement, RadioModel, SimConfig, SimDuration};
use std::sync::atomic::{AtomicBool, Ordering};

fn spec(seed: u64) -> RunSpec {
    let sim = SimConfig {
        placement: Placement::Grid {
            side: 4,
            spacing: 15.0,
        },
        radio: RadioModel::default(),
        mac: MacConfig::default(),
        dynamics: LinkDynamics::Static,
        seed,
    };
    let dophy = DophyConfig {
        traffic_period: SimDuration::from_secs(2),
        warmup: SimDuration::from_secs(30),
        ..DophyConfig::default()
    };
    RunSpec::new(sim, dophy, SimDuration::from_secs(420))
}

fn cfg() -> ServeConfig {
    ServeConfig {
        publish_every: 128,
        top_k: 8,
        r: 7,
        min_samples: 10,
        ..ServeConfig::default()
    }
}

/// The firehose merge is deterministic and namespaced: capturing twice
/// yields the same stream, and each simulation's node ids live in their
/// own block.
#[test]
fn firehose_capture_is_deterministic_and_namespaced() {
    let a = capture(&spec(3), 2, 2).expect("capture");
    let b = capture(&spec(3), 2, 1).expect("capture");
    assert!(!a.events.is_empty());
    assert_eq!(a.events, b.events, "merge depends on jobs count");
    assert_eq!(a.node_count, 16);
    let mut sim0 = false;
    let mut sim1 = false;
    for ev in &a.events {
        let node = match ev {
            Evidence::Hop { sender, .. } => *sender,
            Evidence::PathOutcome { origin, .. } => *origin,
        };
        if node < 16 {
            sim0 = true;
        } else {
            assert!(node < 32, "node id {node} outside both blocks");
            sim1 = true;
        }
    }
    assert!(sim0 && sim1, "both simulations must contribute evidence");
}

/// The tentpole guarantee: a query at evidence-seq S returns
/// byte-identical results whether the stream was ingested live under
/// concurrent query load or replayed serially from the serialized log.
#[test]
fn query_at_seq_is_byte_identical_live_vs_replayed() {
    let hose = capture(&spec(7), 2, 2).expect("capture");
    let events = &hose.events;
    let half = events.len() / 2;

    // Live: queries hammer the store the whole time, and ingest pauses at
    // the half-way point only long enough to force a publish.
    let live = EstimateStore::new(EstimatorKind::InBand, cfg());
    let done = AtomicBool::new(false);
    let (live_half, live_full) = std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut last_seq = 0;
                while !done.load(Ordering::Relaxed) {
                    let snap = live.snapshot();
                    assert!(snap.seq >= last_seq, "snapshot seq went backwards");
                    last_seq = snap.seq;
                    for &(link, loss) in &snap.top_k {
                        assert_eq!(
                            snap.link(link).expect("top-k link in estimates").loss,
                            loss,
                            "torn snapshot"
                        );
                    }
                }
            });
        }
        for ev in &events[..half] {
            live.ingest(ev);
        }
        let h = serde_json::to_string(&*live.publish_now()).unwrap();
        for ev in &events[half..] {
            live.ingest(ev);
        }
        let f = serde_json::to_string(&*live.publish_now()).unwrap();
        done.store(true, Ordering::Relaxed);
        (h, f)
    });

    // Replay: EvidenceLog round-trip through JSON, serial ingest, no
    // concurrent readers.
    let json = serde_json::to_string(events).unwrap();
    let replayed: Vec<Evidence> = serde_json::from_str(&json).unwrap();
    assert_eq!(&replayed, events, "evidence log must round-trip");
    let fresh = EstimateStore::new(EstimatorKind::InBand, cfg());
    for ev in &replayed[..half] {
        fresh.ingest(ev);
    }
    let replay_half = serde_json::to_string(&*fresh.publish_now()).unwrap();
    for ev in &replayed[half..] {
        fresh.ingest(ev);
    }
    let replay_full = serde_json::to_string(&*fresh.publish_now()).unwrap();

    assert_eq!(live_half, replay_half, "snapshot at seq {half} diverged");
    assert_eq!(live_full, replay_full, "final snapshot diverged");

    // And the answers are substantive, not vacuously equal.
    let snap = fresh.snapshot();
    assert!(
        snap.estimates.len() >= 10,
        "links: {}",
        snap.estimates.len()
    );
    assert!(!snap.top_k.is_empty());
    assert_eq!(snap.seq, events.len() as u64);
}
