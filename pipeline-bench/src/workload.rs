//! The three benchmark workloads. They differ only in size (and in how
//! often each simulated stream is ingested and queried), chosen so each
//! phase of the pipeline dominates exactly one of them.

use dophy::infer::EstimatorKind;
use dophy_bench::figures::canonical_dophy;
use dophy_bench::RunSpec;
use dophy_serve::{
    EstimateStore, ServeConfig, ServeStore, ShardRanges, ShardedStore, TomographyView,
};
use dophy_sim::{LinkDynamics, MacConfig, Placement, RadioModel, SimConfig, SimDuration};
use std::sync::Arc;

/// One named workload: a network to simulate, a store to ingest into,
/// and a request count for the query leg.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Nodes on a uniform disk whose radius keeps fig14-scale's density.
    pub nodes: u32,
    /// Simulated seconds.
    pub sim_seconds: u64,
    /// Simulation seed. The network is fixed per workload; the
    /// benchmark's `--seed` draws the query stream.
    pub sim_seed: u64,
    /// Sharded-engine shard count; 0 runs the single-loop engine.
    pub engine_shards: u16,
    /// Link-range store shards; 1 is a plain `EstimateStore`.
    pub store_shards: usize,
    /// Events per published generation.
    pub publish_every: u64,
    /// Timed framed requests per pass.
    pub requests: usize,
    /// Ingest-and-query passes after each simulation in an untraced run,
    /// each on a fresh set-up.
    pub passes: usize,
}

/// Every workload, by name.
pub const WORKLOADS: [Workload; 3] = [
    // Engine, routing, coding and post-run extraction dominate the
    // pipeline (about three quarters of `pipeline_wall_s`): the
    // fig14-scale quick cell at n=1000, the cell the engine's perf gate
    // uses. Publishing every 6144 events keeps ingest to a few seconds
    // (the serve default of 256 would spend ~50 s publishing).
    // The simulation times steadily from few samples, the ingest and
    // query legs do not, so each stream is ingested and queried twice
    // and a run spends about as long on each leg as on simulating.
    Workload {
        name: "sim-n1000",
        nodes: 1000,
        sim_seconds: 450,
        sim_seed: 211,
        engine_shards: 0,
        store_shards: 1,
        publish_every: 6144,
        requests: 100_000,
        passes: 2,
    },
    // Publishing dominates: the serve default cadence over a network
    // where only ~6% of links get evidence per generation. The only
    // workload that runs the sharded engine and the sharded store.
    // 120k requests give the query leg a steady share of each run.
    Workload {
        name: "ingest-n400",
        nodes: 400,
        sim_seconds: 450,
        sim_seed: 211,
        engine_shards: 4,
        store_shards: 2,
        publish_every: 256,
        requests: 120_000,
        passes: 1,
    },
    // The read-heavy twin of ingest-n400: proto, wire and the loopback
    // round trip take about half of each round. 600 simulated seconds
    // rather than 300 give the short ingest leg enough cuts per round to
    // time steadily; 100k requests rather than 150k fit more rounds, and
    // so more ingest legs, in a run.
    Workload {
        name: "query-n200",
        nodes: 200,
        sim_seconds: 600,
        sim_seed: 211,
        engine_shards: 0,
        store_shards: 1,
        publish_every: 256,
        requests: 100_000,
        passes: 1,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.name == name).copied()
    }

    /// The simulated network: fig14-scale's constant-density disk.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            placement: Placement::UniformDisk {
                n: self.nodes,
                radius: 120.0 * (f64::from(self.nodes) / 200.0).sqrt(),
            },
            radio: RadioModel::default(),
            mac: MacConfig::default(),
            dynamics: LinkDynamics::Static,
            seed: self.sim_seed,
        }
    }

    /// The scenario `run_scenario_with` drives.
    pub fn run_spec(&self) -> RunSpec {
        let spec = RunSpec::new(
            self.sim_config(),
            canonical_dophy(),
            SimDuration::from_secs(self.sim_seconds),
        )
        .without_true_hops();
        if self.engine_shards > 0 {
            spec.with_shards(self.engine_shards)
        } else {
            spec
        }
    }

    /// A fresh, empty store, as both its ingest and its query surface.
    pub fn new_store(&self) -> (Arc<dyn ServeStore>, Arc<dyn TomographyView>) {
        let cfg = ServeConfig {
            publish_every: self.publish_every,
            r: MacConfig::default().max_attempts,
            ..ServeConfig::default()
        };
        if self.store_shards > 1 {
            let ranges = ShardRanges::uniform(self.nodes, self.store_shards);
            let store = Arc::new(ShardedStore::new(EstimatorKind::InBand, cfg, ranges));
            (store.clone(), store)
        } else {
            let store = Arc::new(EstimateStore::new(EstimatorKind::InBand, cfg));
            (store.clone(), store)
        }
    }

    /// A seconds-long version of the same workload for the self-test:
    /// same engine, store and mix, a network and stream a fraction the size.
    #[cfg(test)]
    pub fn toy(&self) -> Workload {
        Workload {
            nodes: 30,
            sim_seconds: 180,
            publish_every: 64,
            requests: 640,
            ..*self
        }
    }
}
