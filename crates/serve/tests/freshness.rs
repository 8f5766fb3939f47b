//! Windowed/TTL freshness tests: aged-out links drop out of estimates
//! and top-k but still answer a typed [`PerLinkAnswer::NotFresh`]; the
//! windowed store matches the tracking crate's windowed estimator bit
//! for bit; and TTL aging against the store's one clock keeps a sharded
//! store's cut, and every answer read off it, byte-identical to a
//! one-shard store's.

use dophy::infer::{Estimator, EstimatorKind, Evidence, SnapshotQuery};
use dophy::tracking::{WindowConfig, WindowedNetworkEstimator};
use dophy_coding::aggregate::AttemptObservation;
use dophy_serve::{
    EstimateStore, PerLinkAnswer, Request, ServeConfig, ServeStore, ShardRanges, ShardedStore,
    TomographyView,
};
use dophy_sim::{SimDuration, SimTime};

fn hop(at_s: u64, sender: u32, receiver: u32, attempts: u16) -> Evidence {
    Evidence::Hop {
        at: SimTime::from_micros(at_s * 1_000_000),
        sender,
        receiver,
        observation: AttemptObservation::Exact(attempts),
    }
}

fn ttl_cfg() -> ServeConfig {
    ServeConfig {
        publish_every: u64::MAX, // manual cuts only
        top_k: 8,
        r: 7,
        min_samples: 5,
        window: None,
        ttl: Some(SimDuration::from_secs(60)),
    }
}

/// A link whose newest evidence ages past the TTL vanishes from the
/// estimate table and the top-k, and its per-link answer degrades from
/// `Fresh` to a typed `NotFresh` carrying last-seen/age/ttl — while a
/// link with current evidence stays `Fresh`.
#[test]
fn aged_out_link_leaves_top_k_and_answers_not_fresh() {
    let lossy = (0u32, 1u32);
    let steady = (2u32, 3u32);
    let store = EstimateStore::new(EstimatorKind::InBand, ttl_cfg());

    // Both links get solid evidence around t=10s; the lossy one needs
    // many attempts per delivery, so it tops the ranking.
    for i in 0..20 {
        store.ingest(&hop(10 + i % 3, lossy.0, lossy.1, 5));
        store.ingest(&hop(10 + i % 3, steady.0, steady.1, 1));
    }
    let warm = store.publish_now();
    assert!(warm.link(lossy).is_some(), "lossy link must be estimated");
    assert!(warm.link(steady).is_some());
    assert_eq!(
        warm.top_k.first().map(|&(l, _)| l),
        Some(lossy),
        "lossy link must lead the top-k while fresh"
    );
    assert!(matches!(warm.per_link(lossy), PerLinkAnswer::Fresh { .. }));

    // Only the steady link keeps receiving; the clock moves to t=200s,
    // putting the lossy link's newest evidence (t=12s) far past the TTL.
    for _ in 0..10 {
        store.ingest(&hop(200, steady.0, steady.1, 1));
    }
    let aged = store.publish_now();
    assert!(
        aged.link(lossy).is_none(),
        "aged-out link must leave the estimate table"
    );
    assert!(
        !aged.top_k.iter().any(|&(l, _)| l == lossy),
        "aged-out link must leave the top-k"
    );
    assert!(aged.coverage(lossy).is_none());
    match aged.per_link(lossy) {
        PerLinkAnswer::NotFresh {
            last_seen,
            age,
            ttl,
        } => {
            assert_eq!(last_seen, SimTime::from_micros(12_000_000));
            assert_eq!(age, SimDuration::from_micros(188_000_000));
            assert_eq!(ttl, SimDuration::from_secs(60));
        }
        other => panic!("expected NotFresh, got {other:?}"),
    }
    // The stale side-table names exactly the aged-out link.
    assert_eq!(aged.stale, vec![(lossy, SimTime::from_micros(12_000_000))]);
    // The steady link is unaffected.
    assert!(matches!(aged.per_link(steady), PerLinkAnswer::Fresh { .. }));
    // A link the store never saw stays Unknown, not NotFresh.
    assert!(matches!(aged.per_link((40, 41)), PerLinkAnswer::Unknown));

    // Fresh evidence resurrects the link: back into estimates and top-k.
    for i in 0..20 {
        store.ingest(&hop(200 + i % 2, lossy.0, lossy.1, 5));
    }
    let revived = store.publish_now();
    assert!(revived.link(lossy).is_some(), "revived link must report");
    assert_eq!(revived.top_k.first().map(|&(l, _)| l), Some(lossy));
    assert!(revived.stale.is_empty());
}

fn window_cfg() -> ServeConfig {
    ServeConfig {
        publish_every: u64::MAX,
        top_k: 8,
        r: 7,
        min_samples: 5,
        window: Some(WindowConfig {
            window: SimDuration::from_secs(30),
            merge_windows: 2,
        }),
        ttl: None,
    }
}

fn window_stream() -> Vec<Evidence> {
    let mut events = Vec::new();
    for i in 0..30u64 {
        events.push(hop(5 + i, 0, 1, 4));
        events.push(hop(5 + i, 1, 2, 1));
        if i % 3 == 0 {
            events.push(hop(40 + i, 2, 3, 2));
        }
    }
    events
}

/// The windowed store is the tracking crate's windowed estimator behind
/// the serving machinery: the published estimate table equals the
/// backend's snapshot at the same `(now, r, min_samples)` bit for bit.
#[test]
fn windowed_store_matches_tracking_backend_bit_for_bit() {
    let events = window_stream();
    let store = EstimateStore::new(EstimatorKind::InBand, window_cfg());
    let mut reference = WindowedNetworkEstimator::new(WindowConfig {
        window: SimDuration::from_secs(30),
        merge_windows: 2,
    });
    let mut now = SimTime::ZERO;
    for ev in &events {
        store.ingest(ev);
        Estimator::observe(&mut reference, ev);
        if let Evidence::Hop { at, .. } = ev {
            if *at > now {
                now = *at;
            }
        }
    }
    let snap = store.publish_now();
    let expected = reference.snapshot(&SnapshotQuery {
        now,
        r: 7,
        min_samples: 5,
    });
    assert!(!expected.is_empty(), "reference backend saw no links");
    assert_eq!(
        serde_json::to_string(&snap.estimates).unwrap(),
        serde_json::to_string(&expected).unwrap(),
        "windowed store diverged from the tracking backend"
    );
}

/// A windowed link with no in-range evidence drops out of the estimate
/// table *and* the top-k, answering `Unknown`
/// — windowing forgets, unlike TTL aging which remembers `NotFresh`.
#[test]
fn windowed_link_ages_out_of_estimates_and_top_k() {
    let store = EstimateStore::new(EstimatorKind::InBand, window_cfg());
    for i in 0..20 {
        store.ingest(&hop(10 + i % 5, 0, 1, 5)); // lossy, then silent
        store.ingest(&hop(10 + i % 5, 1, 2, 1));
    }
    let warm = store.publish_now();
    assert_eq!(warm.top_k.first().map(|&(l, _)| l), Some((0, 1)));

    // Advance two full windows past the lossy link's evidence; only the
    // quiet link keeps transmitting.
    for _ in 0..10 {
        store.ingest(&hop(130, 1, 2, 1));
    }
    let aged = store.publish_now();
    assert!(aged.link((0, 1)).is_none(), "windowed-out link reported");
    assert!(
        !aged.top_k.iter().any(|&(l, _)| l == (0, 1)),
        "windowed-out link still ranked"
    );
    assert!(matches!(aged.per_link((0, 1)), PerLinkAnswer::Unknown));
    assert!(matches!(aged.per_link((1, 2)), PerLinkAnswer::Fresh { .. }));
}

/// TTL aging runs against the store's one clock: a sharded store with a
/// TTL publishes cuts byte-identical to a one-shard store over a stream
/// where links age out between publishes, and answers every query — a
/// `NotFresh` link included — with the one-shard store's bytes.
#[test]
fn ttl_cuts_stay_byte_identical_across_shards() {
    let cfg = ServeConfig {
        publish_every: 16,
        ..ttl_cfg()
    };
    let mut events = Vec::new();
    for i in 0..40u64 {
        events.push(hop(5 + i % 7, 0, 1, 4));
        events.push(hop(5 + i % 7, 3, 2, 2));
    }
    // Late traffic on one link only; sender 3's link ages out.
    for i in 0..40u64 {
        events.push(hop(300 + i % 7, 0, 1, 3));
    }

    let single = EstimateStore::new(EstimatorKind::InBand, cfg);
    let sharded = ShardedStore::new(EstimatorKind::InBand, cfg, ShardRanges::uniform(4, 2));
    for ev in &events {
        ServeStore::ingest(&single, ev);
        sharded.ingest(ev);
    }
    let cut = sharded.publish_cut();
    assert_eq!(
        serde_json::to_string(&single.publish_cut()).unwrap(),
        serde_json::to_string(&cut).unwrap(),
        "TTL cut diverged across shards"
    );
    assert!(
        cut.stale.iter().any(|&(l, _)| l == (3, 2)),
        "expected link (3,2) to age out"
    );
    assert!(matches!(
        cut.per_link((3, 2)),
        PerLinkAnswer::NotFresh { .. }
    ));

    // (0,1) and (3,2) sit on different shards of the two.
    let requests = [
        Request::PerLink { link: (3, 2) },
        Request::PerLink { link: (0, 1) },
        Request::PerLink { link: (9, 9) },
        Request::Coverage { link: (3, 2) },
        Request::Coverage { link: (0, 1) },
        Request::Path {
            path: vec![(3, 2), (0, 1)],
        },
    ];
    for req in &requests {
        assert_eq!(
            serde_json::to_string(&sharded.answer(req)).unwrap(),
            serde_json::to_string(&single.answer(req)).unwrap(),
            "sharded answer diverged under a TTL on {req:?}"
        );
    }
}
