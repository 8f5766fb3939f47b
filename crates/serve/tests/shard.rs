//! Sharded-store tests: byte identity of the merged cut against a
//! one-shard store at every shard count and ingest mode, untorn
//! cross-shard cuts under concurrent readers, and sharded answers equal
//! to the one-shard store's.

use dophy::infer::EstimatorKind;
use dophy::protocol::DophyConfig;
use dophy_bench::RunSpec;
use dophy_serve::{
    answer_from_snapshot, capture, EstimateStore, Request, Response, ServeConfig, ServeStore,
    ShardRanges, ShardedStore, TomographyView,
};
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

fn cut_json(store: &dyn ServeStore) -> String {
    serde_json::to_string(&store.publish_cut()).expect("serialize cut")
}

/// The merged cross-shard cut is byte-identical to a one-shard store's
/// snapshot at the same evidence seq — mid-stream and at the end — for 1
/// and 2 block-aligned shards and for odd uniform partitions, all
/// ingesting inline. MINC estimates a link from whole routes, so it
/// takes block-aligned ranges only; the in-band backend ignores path
/// outcomes, so uniform (block-splitting) ranges are also exact for it
/// and exercise the higher shard counts.
#[test]
fn merged_cut_is_byte_identical_at_every_shard_count() {
    let hose = capture(&spec(21), 2, 2).expect("capture");
    let events = &hose.events;
    let half = events.len() / 2;
    let block = hose.node_count as u32;

    for kind in [EstimatorKind::InBand, EstimatorKind::Minc] {
        let single = EstimateStore::new(kind, cfg());
        for ev in &events[..half] {
            ServeStore::ingest(&single, ev);
        }
        let single_half = cut_json(&single);
        for ev in &events[half..] {
            ServeStore::ingest(&single, ev);
        }
        let single_full = cut_json(&single);

        // Two firehose blocks cap `by_blocks` at two shards.
        let mut ranges: Vec<(&str, ShardRanges)> = vec![
            ("by_blocks x1", ShardRanges::by_blocks(block, 2, 1)),
            ("by_blocks x2", ShardRanges::by_blocks(block, 2, 2)),
        ];
        if kind == EstimatorKind::InBand {
            ranges.push(("uniform x3", ShardRanges::uniform(block * 2, 3)));
            ranges.push(("uniform x4", ShardRanges::uniform(block * 2, 4)));
        }

        for (name, ranges) in ranges {
            let sharded = ShardedStore::new(kind, cfg(), ranges);
            for ev in &events[..half] {
                sharded.ingest(ev);
            }
            assert_eq!(
                cut_json(&sharded),
                single_half,
                "{kind} {name}: cut at seq {half}"
            );
            for ev in &events[half..] {
                sharded.ingest(ev);
            }
            assert_eq!(cut_json(&sharded), single_full, "{kind} {name}: final cut");
        }

        // Substantive, not vacuous.
        let snap = single.snapshot();
        assert!(snap.estimates.len() >= 10, "{kind}");
        assert!(!snap.top_k.is_empty(), "{kind}");
    }
}

/// Threaded ingest (one writer thread per shard, cuts over channels)
/// publishes the same bytes as inline ingest — and as a one-shard store.
#[test]
fn threaded_ingest_matches_inline_and_single() {
    let hose = capture(&spec(23), 2, 2).expect("capture");

    let single = EstimateStore::new(EstimatorKind::InBand, cfg());
    for ev in &hose.events {
        ServeStore::ingest(&single, ev);
    }
    let reference = cut_json(&single);

    for shards in [1usize, 2, 4] {
        let ranges = ShardRanges::uniform(hose.node_count as u32 * 2, shards);

        let inline = ShardedStore::new(EstimatorKind::InBand, cfg(), ranges.clone());
        for ev in &hose.events {
            inline.ingest(ev);
        }
        assert_eq!(cut_json(&inline), reference, "inline x{shards}");

        let threaded = ShardedStore::new(EstimatorKind::InBand, cfg(), ranges);
        let seq = threaded.ingest_threaded(&hose.events);
        assert_eq!(seq, hose.events.len() as u64);
        assert_eq!(cut_json(&threaded), reference, "threaded x{shards}");
    }
}

/// Concurrent readers never observe a torn cross-shard cut: seq is
/// monotone and every merged top-k entry is backed by an estimate with
/// the identical loss — while per-shard ingest threads and publishes run
/// flat out.
#[test]
fn cross_shard_cuts_are_never_torn() {
    let hose = capture(&spec(25), 2, 2).expect("capture");
    let cfg = ServeConfig {
        publish_every: 32, // frequent publishes to maximise tearing windows
        ..cfg()
    };
    let sharded = ShardedStore::new(
        EstimatorKind::InBand,
        cfg,
        ShardRanges::uniform(hose.node_count as u32 * 2, 4),
    );
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                let mut last_seq = 0u64;
                let mut generations_seen = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let cut = sharded.snapshot();
                    assert!(cut.seq >= last_seq, "cut seq went backwards");
                    last_seq = cut.seq;
                    for &(link, loss) in &cut.top_k {
                        let est = cut
                            .link(link)
                            .expect("top-k link missing from merged estimates");
                        assert_eq!(est.loss, loss, "top-k loss mixed across generations");
                    }
                    generations_seen = generations_seen.max(cut.generation);
                }
                assert!(generations_seen > 0, "readers never saw a published cut");
            });
        }
        sharded.ingest_threaded(&hose.events);
        sharded.publish_cut();
        done.store(true, Ordering::Relaxed);
    });
}

/// A sharded store answers byte-identically to [`answer_from_snapshot`]
/// over a one-shard store's snapshot at the same seq — for every
/// estimated link, an unknown link, and multi-hop paths, with the links
/// spread over four shards. `Stats` differs only in the advertised shard
/// count.
#[test]
fn fan_out_answers_match_reference_snapshot() {
    let hose = capture(&spec(27), 2, 2).expect("capture");

    let single = EstimateStore::new(EstimatorKind::InBand, cfg());
    for ev in &hose.events {
        ServeStore::ingest(&single, ev);
    }
    let reference = ServeStore::publish_cut(&single);

    let sharded = ShardedStore::new(
        EstimatorKind::InBand,
        cfg(),
        ShardRanges::uniform(hose.node_count as u32 * 2, 4),
    );
    for ev in &hose.events {
        sharded.ingest(ev);
    }
    sharded.publish_cut();

    let mut requests: Vec<Request> = vec![
        Request::TopK { k: 4 },
        Request::TopK { k: 1024 },
        Request::Path { path: Vec::new() },
        Request::Path {
            path: reference.top_k.iter().map(|&(l, _)| l).collect(),
        },
        Request::PerLink {
            link: (u32::MAX, u32::MAX),
        },
        Request::SnapshotAt {
            min_seq: reference.seq,
        },
        Request::SnapshotAt {
            min_seq: reference.seq + 1,
        },
    ];
    for &(link, _) in &reference.estimates {
        requests.push(Request::PerLink { link });
        requests.push(Request::Coverage { link });
    }

    let mut probed = 0;
    for req in &requests {
        let want = serde_json::to_string(&answer_from_snapshot(&reference, req)).unwrap();
        let got = serde_json::to_string(&sharded.answer(req)).unwrap();
        assert_eq!(got, want, "sharded answer diverged on {req:?}");
        probed += 1;
    }
    assert!(probed > 20, "only {probed} probes — stream too thin");

    // Stats: identical counters, except the shard count it advertises.
    match (
        sharded.answer(&Request::Stats),
        answer_from_snapshot(&reference, &Request::Stats),
    ) {
        (Response::Stats(got), Response::Stats(want)) => {
            assert_eq!(got.seq, want.seq);
            assert_eq!(got.generation, want.generation);
            assert_eq!(got.now, want.now);
            assert_eq!(got.links, want.links);
            assert_eq!(got.stale_links, want.stale_links);
            assert_eq!(got.store_shards, 4);
            assert_eq!(want.store_shards, 1);
        }
        other => panic!("stats answers malformed: {other:?}"),
    }
}
