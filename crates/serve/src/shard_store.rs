//! Link-range partitions for a sharded [`EstimateStore`].
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
//! re-sort, no float comparisons. [`EstimateStore`] does the routing and
//! the concatenation; this module only says where the ranges start.
//!
//! ## Which backends shard
//!
//! A sharded store's cut is byte-identical to a one-shard store's at the
//! same evidence seq, at any shard count and with inline or threaded
//! ingest, when every shard sees all the evidence its links' estimates
//! depend on:
//!
//! * the in-band backends (cumulative or windowed) estimate each link
//!   from its own hop evidence, so any ranges are exact;
//! * MINC estimates a link from the outcomes of the routes over it and
//!   of the routes its receiver originates, so it is exact over ranges
//!   that never split a path across shards — which
//!   [`ShardRanges::by_blocks`] guarantees for firehose streams, where
//!   each simulation's nodes occupy one contiguous id block;
//! * sparse-L1 is never exact: its regularization weight comes from the
//!   largest gradient over all routes, its step from a power iteration
//!   over all routes, and it stops on the largest change over all links,
//!   so a per-shard solve is not the joint solve even when no route
//!   straddles two shards. [`EstimateStore::sharded`] refuses it over
//!   more than one range.

use crate::proto::{Request, Response, ServeStore, TomographyView};
use crate::store::{EstimateStore, ServeConfig, StoreSnapshot};
use dophy::infer::{EstimatorKind, Evidence};
use std::ops::Deref;

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
    /// alignment that extends byte identity to MINC.
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

/// A sharded [`EstimateStore`] as a type of its own, for callers that
/// name one. It has no logic: it forwards everything to the store.
pub struct ShardedStore(EstimateStore);

impl ShardedStore {
    /// [`EstimateStore::sharded`].
    pub fn new(kind: EstimatorKind, cfg: ServeConfig, ranges: ShardRanges) -> Self {
        Self(EstimateStore::sharded(kind, cfg, ranges))
    }
}

impl Deref for ShardedStore {
    type Target = EstimateStore;

    fn deref(&self) -> &EstimateStore {
        &self.0
    }
}

impl TomographyView for ShardedStore {
    fn answer(&self, req: &Request) -> Response {
        self.0.answer(req)
    }
}

impl ServeStore for ShardedStore {
    fn ingest(&self, ev: &Evidence) -> u64 {
        self.0.ingest(ev)
    }

    fn publish_cut(&self) -> StoreSnapshot {
        self.0.publish_cut()
    }

    fn seq(&self) -> u64 {
        self.0.seq()
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
