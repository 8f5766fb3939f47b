//! Link-range-sharded estimate stores behind one router.
//!
//! ## Partitioning
//!
//! Links are partitioned by **sender node id** into contiguous ranges
//! ([`ShardRanges`]): shard `i` owns every directed link whose sender
//! falls in its range. Hop evidence goes to exactly the owning shard;
//! path-outcome evidence goes to every shard owning some hop of the path
//! (deduplicated). Because link keys order by `(sender, receiver)` and
//! ranges are contiguous in sender, concatenating per-shard estimate
//! tables in shard order reproduces the globally sorted table — no
//! re-sort, no float comparisons, byte-identical to a single store.
//!
//! ## The seq barrier and byte identity
//!
//! The router owns the *global* evidence clock: one sequence number and
//! the running max evidence timestamp. Shards are built with
//! self-publishing disabled (`publish_every = u64::MAX`) and never
//! publish. When the router runs a **barrier**, every shard cuts a
//! snapshot at the router's global `now` (`EstimateStore::cut_at`), and
//! the router merges the shard cuts into one canonical [`StoreSnapshot`]
//! and publishes it atomically. Readers therefore never observe shard A
//! at generation `g+1` next to shard B at `g` — the cut is untorn by
//! construction, and debug builds assert it at every barrier.
//!
//! Running barriers at the same cadence a single store publishes
//! (`publish_every` global events) and aging TTLs/windows against the
//! same global `now` makes the merged cut **byte-identical** to a single
//! [`EstimateStore`] that ingested the same stream — at any shard count
//! and any ingest-thread count. That identity is exact for the
//! evidence-local backends (in-band, windowed in-band). For the
//! end-to-end backends (`minc`, `sparse-l1`) it additionally requires
//! ranges that never split a path across shards — which
//! [`ShardRanges::by_blocks`] guarantees for firehose streams, where each
//! simulation's nodes occupy one contiguous id block.
//!
//! ## One query path
//!
//! Because the merged cut equals a single store's snapshot, the router
//! answers every request with [`answer_from_snapshot`] on it, exactly as
//! a single store does; only [`ServiceStats::store_shards`] differs.
//!
//! ## Threaded ingest
//!
//! [`ShardedStore::ingest_threaded`] runs one ingest thread per shard fed
//! by a channel, so heavy evidence streams are no longer single-writer
//! bound: the router only routes (a range lookup) while shards do the
//! backend work in parallel. Barriers block the router until every shard
//! has sent back its cut — the same consistent cut as inline ingest,
//! arrived at concurrently.

use crate::proto::{
    answer_from_snapshot, Request, Response, ServeStore, ServiceStats, TomographyView,
};
use crate::store::{EstimateStore, LinkKey, ServeConfig, StoreSnapshot};
use dophy::infer::{EstimatorKind, Evidence};
use dophy_sim::SimTime;
use parking_lot::{Mutex, RwLock};
use std::sync::mpsc;
use std::sync::Arc;

/// Contiguous sender-id ranges, one per shard. Range `i` spans
/// `[starts[i], starts[i+1])`; the last range is unbounded above, so
/// every sender id has an owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRanges {
    starts: Vec<u32>,
}

impl ShardRanges {
    /// `shards` near-equal contiguous ranges over sender ids
    /// `[0, node_count)`.
    #[must_use]
    pub fn uniform(node_count: u32, shards: usize) -> Self {
        let shards = shards.max(1);
        let starts = (0..shards)
            .map(|i| (i as u64 * u64::from(node_count) / shards as u64) as u32)
            .collect();
        Self { starts }
    }

    /// Ranges aligned to node-id blocks of `block_size` (the firehose
    /// namespaces simulation `k` into block `k`): `blocks` blocks are
    /// split into `shards` contiguous groups, so no block — and hence no
    /// firehose path — ever straddles a shard boundary. This is the
    /// alignment that extends byte identity to the end-to-end backends.
    #[must_use]
    pub fn by_blocks(block_size: u32, blocks: usize, shards: usize) -> Self {
        let shards = shards.max(1).min(blocks.max(1));
        let starts = (0..shards)
            .map(|i| (i * blocks.max(1) / shards) as u32 * block_size)
            .collect();
        Self { starts }
    }

    /// Number of shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether there are no shards (never true for constructed ranges).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// The shard owning links sent by `sender`.
    #[must_use]
    pub fn shard_of(&self, sender: u32) -> usize {
        self.starts.partition_point(|&s| s <= sender).max(1) - 1
    }
}

/// The router's global evidence clock.
struct RouterClock {
    seq: u64,
    now: SimTime,
}

impl RouterClock {
    /// Counts `ev` and raises `now` to its timestamp; returns whether the
    /// barrier is due (every `publish_every` global events).
    fn advance(&mut self, ev: &Evidence, publish_every: u64) -> bool {
        self.seq += 1;
        self.now = self.now.max(ev.at());
        self.seq.is_multiple_of(publish_every)
    }
}

/// Message to a shard ingest thread: evidence to observe, or a barrier
/// cut order carrying the global query time.
enum ShardMsg<'a> {
    Ev(&'a Evidence),
    Cut { now: SimTime },
}

/// A link-range-sharded [`EstimateStore`] router: same query surface,
/// same bytes, N writers.
pub struct ShardedStore {
    shards: Vec<EstimateStore>,
    ranges: ShardRanges,
    cfg: ServeConfig,
    clock: Mutex<RouterClock>,
    published: RwLock<Arc<StoreSnapshot>>,
}

impl ShardedStore {
    /// Builds one backend per range. `cfg` reads exactly as for a single
    /// [`EstimateStore`]: `publish_every` is the *global* barrier cadence
    /// (shards never self-publish).
    pub fn new(kind: EstimatorKind, cfg: ServeConfig, ranges: ShardRanges) -> Self {
        let shard_cfg = ServeConfig {
            publish_every: u64::MAX,
            ..cfg
        };
        Self {
            shards: (0..ranges.len())
                .map(|_| EstimateStore::new(kind, shard_cfg))
                .collect(),
            ranges,
            cfg,
            clock: Mutex::new(RouterClock {
                seq: 0,
                now: SimTime::ZERO,
            }),
            published: RwLock::new(Arc::new(StoreSnapshot::empty(&cfg))),
        }
    }

    /// The currently published merged cut.
    pub fn cut(&self) -> Arc<StoreSnapshot> {
        Arc::clone(&self.published.read())
    }

    /// Calls `deliver` with each shard index that must observe `ev`:
    /// the sender's owner for hop evidence, every hop's owner
    /// (deduplicated) for path outcomes.
    fn route(&self, ev: &Evidence, mut deliver: impl FnMut(usize)) {
        match ev {
            Evidence::Hop { sender, .. } => deliver(self.ranges.shard_of(*sender)),
            Evidence::PathOutcome { origin, path, .. } => {
                if path.is_empty() {
                    deliver(self.ranges.shard_of(*origin));
                    return;
                }
                let mut owners: Vec<usize> =
                    path.iter().map(|&(a, _)| self.ranges.shard_of(a)).collect();
                owners.sort_unstable();
                owners.dedup();
                for i in owners {
                    deliver(i);
                }
            }
        }
    }

    /// Merges per-shard snapshots into the canonical cut at the global
    /// clock and publishes it. Estimate tables concatenate in shard order
    /// (already globally sorted — ranges are contiguous in the sender,
    /// the major key); top-k merges by `(loss bits, link)` descending,
    /// exactly the single store's ranking order.
    fn assemble(&self, clock: &RouterClock, snaps: &[Arc<StoreSnapshot>]) -> Arc<StoreSnapshot> {
        let generation = snaps.first().map_or(0, |s| s.generation);
        debug_assert!(
            snaps.iter().all(|s| s.generation == generation),
            "torn barrier: shard generations diverged"
        );
        let mut estimates = Vec::new();
        let mut last_seen = Vec::new();
        let mut stale = Vec::new();
        let mut top_k: Vec<(LinkKey, f64)> = Vec::new();
        for s in snaps {
            estimates.extend_from_slice(&s.estimates);
            last_seen.extend_from_slice(&s.last_seen);
            stale.extend_from_slice(&s.stale);
            top_k.extend_from_slice(&s.top_k);
        }
        top_k.sort_by(|a, b| {
            b.1.to_bits()
                .cmp(&a.1.to_bits())
                .then_with(|| b.0.cmp(&a.0))
        });
        top_k.truncate(self.cfg.top_k);
        let merged = Arc::new(StoreSnapshot {
            seq: clock.seq,
            generation,
            now: clock.now,
            r: self.cfg.r,
            min_samples: self.cfg.min_samples,
            ttl: self.cfg.ttl,
            estimates,
            last_seen,
            stale,
            top_k,
        });
        *self.published.write() = Arc::clone(&merged);
        merged
    }

    /// Inline barrier: cut every shard at the global clock and publish
    /// the merged cut. Caller holds the clock lock.
    fn barrier_inline(&self, clock: &RouterClock) -> Arc<StoreSnapshot> {
        let snaps: Vec<Arc<StoreSnapshot>> =
            self.shards.iter().map(|s| s.cut_at(clock.now)).collect();
        self.assemble(clock, &snaps)
    }

    /// Ingests the whole stream with one ingest thread per shard. The
    /// router routes each event to its owning shard's channel and runs
    /// the barrier every `publish_every` global events; a barrier blocks
    /// until every shard has cut (channels are FIFO, so each shard has by
    /// then observed exactly its prefix of the stream). Returns the final
    /// global seq. The final cut still requires [`ServeStore::publish_cut`],
    /// matching inline ingest.
    pub fn ingest_threaded(&self, events: &[Evidence]) -> u64 {
        let n = self.shards.len();
        std::thread::scope(|scope| {
            let mut event_txs = Vec::with_capacity(n);
            let mut snap_rxs = Vec::with_capacity(n);
            for shard in &self.shards {
                let (tx, rx) = mpsc::channel::<ShardMsg<'_>>();
                let (snap_tx, snap_rx) = mpsc::channel::<Arc<StoreSnapshot>>();
                event_txs.push(tx);
                snap_rxs.push(snap_rx);
                scope.spawn(move || {
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            ShardMsg::Ev(ev) => {
                                shard.ingest(ev);
                            }
                            ShardMsg::Cut { now } => {
                                if snap_tx.send(shard.cut_at(now)).is_err() {
                                    return;
                                }
                            }
                        }
                    }
                });
            }
            let mut clock = self.clock.lock();
            for ev in events {
                let barrier = clock.advance(ev, self.cfg.publish_every);
                self.route(ev, |i| {
                    event_txs[i]
                        .send(ShardMsg::Ev(ev))
                        .expect("shard ingest thread died");
                });
                if barrier {
                    for tx in &event_txs {
                        tx.send(ShardMsg::Cut { now: clock.now })
                            .expect("shard ingest thread died");
                    }
                    let snaps: Vec<Arc<StoreSnapshot>> = snap_rxs
                        .iter()
                        .map(|rx| rx.recv().expect("shard dropped its cut"))
                        .collect();
                    self.assemble(&clock, &snaps);
                }
            }
            drop(event_txs);
            clock.seq
        })
    }
}

impl TomographyView for ShardedStore {
    /// Answers from the merged cut with the single store's query path;
    /// `Stats` advertises the shard count.
    fn answer(&self, req: &Request) -> Response {
        match answer_from_snapshot(&self.cut(), req) {
            Response::Stats(stats) => Response::Stats(ServiceStats {
                store_shards: self.shards.len() as u64,
                ..stats
            }),
            other => other,
        }
    }
}

impl ServeStore for ShardedStore {
    /// Inline (router-threaded) ingest: advances the global clock, routes
    /// the event, and runs the barrier at the publish cadence.
    fn ingest(&self, ev: &Evidence) -> u64 {
        let mut clock = self.clock.lock();
        let barrier = clock.advance(ev, self.cfg.publish_every);
        self.route(ev, |i| {
            self.shards[i].ingest(ev);
        });
        if barrier {
            self.barrier_inline(&clock);
        }
        clock.seq
    }

    fn publish_cut(&self) -> StoreSnapshot {
        let clock = self.clock.lock();
        (*self.barrier_inline(&clock)).clone()
    }

    fn seq(&self) -> u64 {
        self.clock.lock().seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_ranges_cover_every_sender() {
        let r = ShardRanges::uniform(10, 4);
        assert_eq!(r.len(), 4);
        for sender in 0..10u32 {
            let s = r.shard_of(sender);
            assert!(s < 4, "sender {sender} mapped to shard {s}");
        }
        assert_eq!(r.shard_of(0), 0);
        assert_eq!(r.shard_of(9), 3);
        // Past the nominal universe, the last shard owns everything.
        assert_eq!(r.shard_of(10_000), 3);
        // Ranges are contiguous and monotone in the sender.
        let mut prev = 0;
        for sender in 0..10u32 {
            let s = r.shard_of(sender);
            assert!(s >= prev, "ownership must be monotone");
            prev = s;
        }
    }

    #[test]
    fn block_ranges_never_split_a_block() {
        let r = ShardRanges::by_blocks(16, 6, 4);
        for block in 0..6u32 {
            let owner = r.shard_of(block * 16);
            for node in 0..16u32 {
                assert_eq!(
                    r.shard_of(block * 16 + node),
                    owner,
                    "block {block} node {node} split across shards"
                );
            }
        }
    }

    #[test]
    fn more_shards_than_blocks_clamps() {
        let r = ShardRanges::by_blocks(16, 2, 8);
        assert_eq!(r.len(), 2);
    }
}
