//! Drive the tomography service end to end: capture evidence from N
//! parallel simulations, firehose it into a (possibly sharded) estimate
//! store, and either verify live-vs-replay byte identity, serve the store
//! over TCP, or query a listening service as a client. One of `--check`,
//! `--listen` or `--connect` picks the mode.
//!
//! ```text
//! dophy-serve --check                          # determinism check (exit 1 on mismatch)
//! dophy-serve --check --sims 4 --side 5 --duration 900   # bigger firehose
//! dophy-serve --check --store-shards 2         # sharded vs serial byte identity
//! dophy-serve --check --ttl 300 --window 120   # freshness-bounded serving
//! dophy-serve --listen 127.0.0.1:7431          # ingest, then serve over TCP
//! dophy-serve --connect 127.0.0.1:7431 --check # compare wire answers vs local recompute
//! ```
//!
//! `--check` (without `--connect`) ingests the merged firehose into the
//! configured store — with one ingest thread per shard when
//! `--store-shards` > 1 — while query threads hammer it, cuts the
//! canonical snapshot at the half-way sequence number and at the end,
//! then round-trips the evidence log through JSON and replays it
//! serially into a fresh one-shard store. All cuts must serialize to the
//! same bytes: a query at evidence-seq S answers identically live or
//! replayed, sharded or not, regardless of concurrent query load.
//! Sparse-L1 solves over every route at once, so it refuses
//! `--store-shards` above 1.
//!
//! `--connect ADDR --check` recomputes the same firehose locally and
//! demands that every framed answer off the wire is byte-identical to
//! the local in-process answer at the same evidence seq.
//!
//! Ingest and query throughput are measured by `pipeline-bench/`, not by
//! this binary.

use dophy::infer::{EstimatorKind, Evidence};
use dophy::protocol::DophyConfig;
use dophy::tracking::WindowConfig;
use dophy_bench::RunSpec;
use dophy_serve::{
    answer_from_snapshot, capture, Client, EstimateStore, Request, Response, ServeConfig,
    ShardRanges, StoreSnapshot, TomographyView,
};
use dophy_sim::{LinkDynamics, MacConfig, Placement, RadioModel, SimConfig, SimDuration};
use std::sync::Arc;

struct Cli {
    sims: usize,
    side: u32,
    duration_s: u64,
    seed: u64,
    shards: Option<u16>,
    estimator: EstimatorKind,
    publish_every: u64,
    top_k: usize,
    query_threads: usize,
    jobs: usize,
    check: bool,
    store_shards: usize,
    window_s: Option<u64>,
    ttl_s: Option<u64>,
    listen: Option<String>,
    connect: Option<String>,
}

const USAGE: &str = "usage: dophy-serve (--check | --listen ADDR | --connect ADDR [--check]) \
[--sims N] [--side S] [--duration SECS] [--seed N] [--shards N] \
[--estimator in-band|minc|sparse-l1] [--publish-every N] [--top-k K] [--query-threads N] \
[--jobs N] [--store-shards N (not sparse-l1)] [--window SECS (in-band only)] [--ttl SECS]";

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        sims: 2,
        side: 4,
        duration_s: 600,
        seed: 3,
        shards: None,
        estimator: EstimatorKind::InBand,
        publish_every: 256,
        top_k: 10,
        query_threads: 2,
        jobs: 2,
        check: false,
        store_shards: 1,
        window_s: None,
        ttl_s: None,
        listen: None,
        connect: None,
    };
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{arg} requires a value"))
        };
        let parse_pos = |raw: String, what: &str| -> Result<u64, String> {
            raw.parse::<u64>()
                .ok()
                .filter(|n| *n > 0)
                .ok_or_else(|| format!("{what} wants a positive integer, got {raw}"))
        };
        match arg {
            "--check" => cli.check = true,
            "--sims" => cli.sims = parse_pos(value(&mut i)?, "--sims")? as usize,
            "--side" => cli.side = parse_pos(value(&mut i)?, "--side")? as u32,
            "--duration" => cli.duration_s = parse_pos(value(&mut i)?, "--duration")?,
            "--seed" => {
                let raw = value(&mut i)?;
                cli.seed = raw
                    .parse::<u64>()
                    .map_err(|_| format!("--seed wants an integer, got {raw}"))?;
            }
            "--shards" => {
                let raw = value(&mut i)?;
                cli.shards = Some(
                    raw.parse::<u16>()
                        .map_err(|_| format!("--shards wants a small integer, got {raw}"))?,
                );
            }
            "--estimator" => cli.estimator = value(&mut i)?.parse()?,
            "--publish-every" => cli.publish_every = parse_pos(value(&mut i)?, "--publish-every")?,
            "--top-k" => cli.top_k = parse_pos(value(&mut i)?, "--top-k")? as usize,
            "--query-threads" => {
                cli.query_threads = parse_pos(value(&mut i)?, "--query-threads")? as usize;
            }
            "--jobs" | "-j" => cli.jobs = parse_pos(value(&mut i)?, "--jobs")? as usize,
            "--store-shards" => {
                cli.store_shards = parse_pos(value(&mut i)?, "--store-shards")? as usize;
            }
            "--window" => cli.window_s = Some(parse_pos(value(&mut i)?, "--window")?),
            "--ttl" => cli.ttl_s = Some(parse_pos(value(&mut i)?, "--ttl")?),
            "--listen" => cli.listen = Some(value(&mut i)?),
            "--connect" => cli.connect = Some(value(&mut i)?),
            _ => return Err(format!("unknown argument {arg}")),
        }
        i += 1;
    }
    if !cli.check && cli.listen.is_none() && cli.connect.is_none() {
        return Err("no mode given: pass --check, --listen ADDR or --connect ADDR".into());
    }
    // The windowed backend reads in-band hop evidence only; reject the
    // pair here rather than after a whole firehose capture.
    if cli.window_s.is_some() && cli.estimator != EstimatorKind::InBand {
        return Err(format!(
            "--window needs the in-band estimator, got {}",
            cli.estimator
        ));
    }
    // Sparse-L1 solves one problem over every route; per-shard solves
    // are not that solve, so refuse before the capture too.
    if cli.store_shards > 1 && cli.estimator == EstimatorKind::SparseL1 {
        return Err(format!(
            "--store-shards {} needs a shardable estimator; sparse-l1 solves over every route \
             at once",
            cli.store_shards
        ));
    }
    Ok(cli)
}

fn base_spec(cli: &Cli) -> RunSpec {
    let sim = SimConfig {
        placement: Placement::Grid {
            side: cli.side,
            spacing: 15.0,
        },
        radio: RadioModel::default(),
        mac: MacConfig::default(),
        dynamics: LinkDynamics::Static,
        seed: cli.seed,
    };
    let mut spec = RunSpec::new(
        sim,
        DophyConfig {
            traffic_period: SimDuration::from_secs(2),
            warmup: SimDuration::from_secs(30),
            ..DophyConfig::default()
        },
        SimDuration::from_secs(cli.duration_s),
    );
    spec.shards = cli.shards;
    spec
}

fn serve_config(cli: &Cli, spec: &RunSpec) -> ServeConfig {
    ServeConfig {
        publish_every: cli.publish_every,
        top_k: cli.top_k,
        r: spec.sim.mac.max_attempts,
        min_samples: spec.min_est_samples,
        window: cli.window_s.map(|s| WindowConfig {
            window: SimDuration::from_secs(s),
            ..WindowConfig::default()
        }),
        ttl: cli.ttl_s.map(SimDuration::from_secs),
    }
}

/// The store the CLI asked for. Shard ranges align with the firehose's
/// per-simulation node blocks, so byte identity holds for MINC too;
/// there are never more shards than simulations.
fn build_store(cli: &Cli, cfg: ServeConfig, node_count: usize) -> EstimateStore {
    let ranges = ShardRanges::by_blocks(node_count as u32, cli.sims, cli.store_shards);
    EstimateStore::sharded(cli.estimator, cfg, ranges)
}

/// Ingests a stream the way the store scales: inline at one shard, one
/// ingest thread per shard above one.
fn ingest_stream(store: &EstimateStore, events: &[Evidence]) {
    if store.shards() > 1 {
        store.ingest_threaded(events);
    } else {
        for ev in events {
            store.ingest(ev);
        }
    }
}

/// Live-vs-replay byte identity at the configured shard count: the live
/// side ingests through the CLI store (per-shard ingest threads when
/// sharded) under concurrent query load; the replay side round-trips
/// the log through JSON and replays it serially into a one-shard store.
fn replay_check(
    cli: &Cli,
    events: &[Evidence],
    cfg: ServeConfig,
    node_count: usize,
) -> Result<(), String> {
    let half = events.len() / 2;
    let live = build_store(cli, cfg, node_count);
    let done = std::sync::atomic::AtomicBool::new(false);
    let (live_half, live_full) = std::thread::scope(|s| {
        for _ in 0..cli.query_threads {
            s.spawn(|| {
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    std::hint::black_box(live.answer(&Request::TopK { k: 16 }));
                    std::hint::black_box(live.answer(&Request::Stats));
                }
            });
        }
        ingest_stream(&live, &events[..half]);
        let live_half = serde_json::to_string(&*live.publish_now()).unwrap();
        ingest_stream(&live, &events[half..]);
        let live_full = serde_json::to_string(&*live.publish_now()).unwrap();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        (live_half, live_full)
    });

    // Replay side: round-trip the log through JSON, ingest serially into
    // a one-shard store.
    let json = serde_json::to_string(events).map_err(|e| format!("serialize evidence: {e}"))?;
    let replayed: Vec<Evidence> =
        serde_json::from_str(&json).map_err(|e| format!("replay evidence: {e}"))?;
    if replayed != events {
        return Err("evidence log did not round-trip through JSON".into());
    }
    let fresh = EstimateStore::new(cli.estimator, cfg);
    for ev in &replayed[..half] {
        fresh.ingest(ev);
    }
    let replay_half = serde_json::to_string(&*fresh.publish_now()).unwrap();
    for ev in &replayed[half..] {
        fresh.ingest(ev);
    }
    let replay_full = serde_json::to_string(&*fresh.publish_now()).unwrap();

    if live_half != replay_half {
        return Err(format!(
            "snapshot at seq {half} differs live ({} store shard(s)) vs replayed ({} vs {} bytes)",
            live.shards(),
            live_half.len(),
            replay_half.len()
        ));
    }
    if live_full != replay_full {
        return Err(format!(
            "final snapshot differs live ({} store shard(s)) vs replayed ({} vs {} bytes)",
            live.shards(),
            live_full.len(),
            replay_full.len()
        ));
    }
    println!(
        "determinism check PASSED: snapshots at seq {} and {} byte-identical live \
         ({} store shard(s)) vs serial replay ({} + {} bytes)",
        half,
        events.len(),
        live.shards(),
        live_half.len(),
        live_full.len()
    );
    Ok(())
}

/// Captures the firehose for the CLI parameters (shared by every mode).
fn capture_firehose(cli: &Cli) -> Result<(RunSpec, ServeConfig, dophy_serve::Firehose), String> {
    let spec = base_spec(cli);
    let cfg = serve_config(cli, &spec);
    eprintln!(
        "firehose: {} sims x {} nodes, {} s each (seeds {}..{}) ...",
        cli.sims,
        spec.sim.placement.node_count(),
        cli.duration_s,
        cli.seed,
        cli.seed + cli.sims as u64 - 1
    );
    let hose = capture(&spec, cli.sims, cli.jobs)?;
    for s in &hose.sims {
        eprintln!(
            "  sim {}: seed {} -> {} events, {} packets delivered",
            s.sim, s.seed, s.events, s.delivered
        );
    }
    eprintln!("merged firehose: {} events", hose.events.len());
    if hose.events.is_empty() {
        return Err("firehose captured no evidence (duration too short?)".into());
    }
    Ok((spec, cfg, hose))
}

/// Server mode: ingest the firehose, publish, serve forever.
fn run_listen(cli: &Cli, addr: &str) -> Result<(), String> {
    let (_spec, cfg, hose) = capture_firehose(cli)?;
    let store = Arc::new(build_store(cli, cfg, hose.node_count));
    ingest_stream(&store, &hose.events);
    store.publish_now();
    eprintln!(
        "store ready: seq {}, {} store shard(s); serving on {addr}",
        store.seq(),
        store.shards()
    );
    dophy_serve::listen_and_serve(addr, store).map_err(|e| format!("listen on {addr}: {e}"))
}

/// Client mode: query a listening service; with `--check`, recompute the
/// firehose locally and demand byte-identical answers at the same seq.
fn run_connect(cli: &Cli, addr: &str) -> Result<(), String> {
    // The peer may still be capturing its firehose before it binds
    // (CI starts both sides together), so keep retrying for a while.
    let mut client = Client::connect_with_retry(addr, 120, std::time::Duration::from_millis(500))
        .map_err(|e| format!("connect to {addr}: {e}"))?;
    let stats = client
        .request(&Request::Stats)
        .map_err(|e| format!("stats query: {e}"))?;
    let Response::Stats(stats) = stats else {
        return Err(format!("unexpected stats response: {stats:?}"));
    };
    println!(
        "service at {addr}: seq {}, generation {}, {} links ({} stale), {} store shard(s)",
        stats.seq, stats.generation, stats.links, stats.stale_links, stats.store_shards
    );
    if !cli.check {
        let top = client
            .request(&Request::TopK {
                k: cli.top_k as u32,
            })
            .map_err(|e| format!("top-k query: {e}"))?;
        if let Response::TopK { entries, .. } = top {
            for (link, loss) in entries {
                println!("  link {:?}: loss {loss:.4}", link);
            }
        }
        return Ok(());
    }

    // Recompute the same firehose locally, serially, at one shard — the
    // reference the wire answers must match byte for byte.
    let (_spec, cfg, hose) = capture_firehose(cli)?;
    let local = EstimateStore::new(cli.estimator, cfg);
    for ev in &hose.events {
        local.ingest(ev);
    }
    let local_cut: StoreSnapshot = (*local.publish_now()).clone();
    if stats.seq != local_cut.seq {
        return Err(format!(
            "service is at seq {} but the local recompute reached {} — \
             run both sides with identical parameters",
            stats.seq, local_cut.seq
        ));
    }

    let mut probes: Vec<Request> = vec![
        Request::TopK {
            k: cli.top_k as u32,
        },
        Request::Path {
            path: local_cut.top_k.iter().map(|&(l, _)| l).collect(),
        },
        Request::SnapshotAt {
            min_seq: local_cut.seq,
        },
    ];
    for &(link, _) in &local_cut.estimates {
        probes.push(Request::PerLink { link });
        probes.push(Request::Coverage { link });
    }
    for &(link, _) in &local_cut.stale {
        probes.push(Request::PerLink { link });
    }
    probes.push(Request::PerLink {
        link: (u32::MAX, u32::MAX),
    });

    let mut compared = 0usize;
    for req in &probes {
        let wire = client
            .request(req)
            .map_err(|e| format!("query {req:?}: {e}"))?;
        let local_ans = answer_from_snapshot(&local_cut, req);
        let wire_json = serde_json::to_string(&wire).unwrap();
        let local_json = serde_json::to_string(&local_ans).unwrap();
        if wire_json != local_json {
            return Err(format!(
                "answer mismatch for {req:?}:\n  wire:  {wire_json}\n  local: {local_json}"
            ));
        }
        compared += 1;
    }
    println!(
        "loopback check PASSED: {compared} answers byte-identical to the local \
         in-process store at seq {} ({} store shard(s) behind the service)",
        local_cut.seq, stats.store_shards
    );
    Ok(())
}

fn run(cli: Cli) -> Result<(), String> {
    if let Some(addr) = cli.connect.clone() {
        return run_connect(&cli, &addr);
    }
    if let Some(addr) = cli.listen.clone() {
        return run_listen(&cli, &addr);
    }
    let (_spec, cfg, hose) = capture_firehose(&cli)?;
    replay_check(&cli, &hose.events, cfg, hose.node_count)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(cli) {
        eprintln!("dophy-serve: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_args_requires_a_mode() {
        let err = parse(&[]).err().expect("no arguments must be rejected");
        assert!(err.contains("no mode"), "{err}");
        assert!(parse(&["--sims", "4", "--store-shards", "2"]).is_err());
        assert!(parse(&["--check"]).is_ok());
        assert!(parse(&["--listen", "127.0.0.1:0"]).is_ok());
        assert!(parse(&["--connect", "127.0.0.1:0"]).is_ok());
    }

    #[test]
    fn parse_args_rejects_a_window_without_the_in_band_estimator() {
        for estimator in ["minc", "sparse-l1"] {
            let err = parse(&["--check", "--window", "120", "--estimator", estimator])
                .err()
                .expect("a windowed end-to-end estimator must be rejected");
            assert!(err.contains("--window"), "{err}");
        }
        assert!(parse(&["--check", "--window", "120"]).is_ok());
        assert!(parse(&["--check", "--estimator", "minc"]).is_ok());
    }

    #[test]
    fn parse_args_rejects_a_sharded_sparse_l1_store() {
        let err = parse(&["--check", "--store-shards", "2", "--estimator", "sparse-l1"])
            .err()
            .expect("a sharded sparse-l1 store must be rejected");
        assert!(err.contains("--store-shards"), "{err}");
        assert!(parse(&["--check", "--store-shards", "1", "--estimator", "sparse-l1"]).is_ok());
        assert!(parse(&["--check", "--store-shards", "2", "--estimator", "minc"]).is_ok());
    }
}
