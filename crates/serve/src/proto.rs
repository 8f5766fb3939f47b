//! The service vocabulary: versioned request/response types and the
//! query surface the store serves.
//!
//! The wire protocol ([`crate::wire`]) moves exactly these types; the
//! in-process query API answers exactly these types. That symmetry is the
//! point — a loopback client and an in-process caller issue the same
//! [`Request`] and must receive the byte-identical [`Response`], which is
//! what the end-to-end tests and the `dophy-serve --connect --check` mode
//! enforce.
//!
//! ## Version policy
//!
//! [`PROTOCOL_VERSION`] is carried in every frame header and checked
//! before the payload is touched. Additive payload evolution (new enum
//! variants, new optional fields) bumps the version; a decoder never
//! guesses across versions — skew is a typed
//! [`crate::wire::WireError::VersionSkew`], surfaced to the peer as a
//! [`Response::Error`], so mixed deployments fail loudly instead of
//! misreading each other's floats.

use crate::store::{
    EstimateStore, LinkCoverage, LinkKey, PathLossReport, PerLinkAnswer, StoreSnapshot,
};
use dophy::infer::Evidence;
use dophy_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Wire protocol version. Bumped on any change to the frame layout or to
/// the request/response payload schema.
pub const PROTOCOL_VERSION: u16 = 1;

/// One query, as issued by a client (in-process or over the wire).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Loss estimate for one directed link, with freshness.
    PerLink {
        /// The directed `(sender, receiver)` link.
        link: LinkKey,
    },
    /// Confidence/coverage for one directed link.
    Coverage {
        /// The directed `(sender, receiver)` link.
        link: LinkKey,
    },
    /// End-to-end loss composed over a directed path.
    Path {
        /// Directed `(sender, receiver)` hops, origin first.
        path: Vec<LinkKey>,
    },
    /// The `k` lossiest links (capped at the store's configured top-k).
    TopK {
        /// Entries requested.
        k: u32,
    },
    /// Service counters: seq, generation, link totals, shard count.
    Stats,
    /// The full snapshot covering at least `min_seq` evidence events —
    /// the byte-identity probe (answers [`Response::NotReady`] when the
    /// store has not reached that seq yet).
    SnapshotAt {
        /// Minimum evidence sequence number the cut must cover.
        min_seq: u64,
    },
}

/// Aggregate service counters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Evidence events behind the published cut.
    pub seq: u64,
    /// Publish generation of the cut.
    pub generation: u64,
    /// Largest evidence timestamp in the cut.
    pub now: SimTime,
    /// Links with a fresh estimate.
    pub links: u64,
    /// Links aged out by the TTL.
    pub stale_links: u64,
    /// Store shards answering queries (1 for an unsharded store).
    pub store_shards: u64,
}

/// The answer to one [`Request`]. Every variant that reads estimate state
/// carries the evidence `seq` of the consistent cut it was answered from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::PerLink`].
    PerLink {
        /// Evidence seq of the cut.
        seq: u64,
        /// The typed freshness-aware answer.
        answer: PerLinkAnswer,
    },
    /// Answer to [`Request::Coverage`].
    Coverage {
        /// Evidence seq of the cut.
        seq: u64,
        /// Coverage, when the link has a fresh estimate.
        coverage: Option<LinkCoverage>,
    },
    /// Answer to [`Request::Path`].
    Path {
        /// Evidence seq of the cut.
        seq: u64,
        /// The composed report.
        report: PathLossReport,
    },
    /// Answer to [`Request::TopK`].
    TopK {
        /// Evidence seq of the cut.
        seq: u64,
        /// `(link, loss)`, highest loss first.
        entries: Vec<(LinkKey, f64)>,
    },
    /// Answer to [`Request::Stats`].
    Stats(ServiceStats),
    /// Answer to [`Request::SnapshotAt`]: the full consistent cut.
    Snapshot(StoreSnapshot),
    /// The store has not reached the requested seq yet.
    NotReady {
        /// Evidence seq of the current cut.
        have_seq: u64,
        /// The seq the client asked for.
        want_seq: u64,
    },
    /// The server could not answer (malformed frame, version skew, ...).
    Error(String),
}

/// The query surface: anything that can answer a [`Request`] from a
/// consistent cut. Implemented by [`EstimateStore`] at any shard count
/// (and by [`crate::shard_store::ShardedStore`], which forwards to it) —
/// and served verbatim over the wire, so in-process and networked
/// answers share one code path.
pub trait TomographyView: Send + Sync {
    /// Answers one request from the current published cut.
    fn answer(&self, req: &Request) -> Response;
}

/// The ingest surface, independent of sharding.
pub trait ServeStore: TomographyView {
    /// Ingests one evidence event; returns its sequence number.
    fn ingest(&self, ev: &Evidence) -> u64;

    /// Forces a publish covering everything ingested so far and returns
    /// the canonical cut.
    fn publish_cut(&self) -> StoreSnapshot;

    /// Evidence events ingested so far.
    fn seq(&self) -> u64;
}

/// Answers a request from one immutable snapshot. This is the whole
/// query path of the store, at any shard count; only the shard count in
/// `Stats` (1 here) is the store's own.
pub fn answer_from_snapshot(snap: &StoreSnapshot, req: &Request) -> Response {
    match req {
        Request::PerLink { link } => Response::PerLink {
            seq: snap.seq,
            answer: snap.per_link(*link),
        },
        Request::Coverage { link } => Response::Coverage {
            seq: snap.seq,
            coverage: snap.coverage(*link),
        },
        Request::Path { path } => Response::Path {
            seq: snap.seq,
            report: snap.path_loss(path),
        },
        Request::TopK { k } => Response::TopK {
            seq: snap.seq,
            entries: snap.top_k.iter().take(*k as usize).copied().collect(),
        },
        Request::Stats => Response::Stats(ServiceStats {
            seq: snap.seq,
            generation: snap.generation,
            now: snap.now,
            links: snap.estimates.len() as u64,
            stale_links: snap.stale.len() as u64,
            store_shards: 1,
        }),
        Request::SnapshotAt { min_seq } => {
            if snap.seq >= *min_seq {
                Response::Snapshot(snap.clone())
            } else {
                Response::NotReady {
                    have_seq: snap.seq,
                    want_seq: *min_seq,
                }
            }
        }
    }
}

impl TomographyView for EstimateStore {
    /// Answers from the published cut; `Stats` reports the store's shard
    /// count.
    fn answer(&self, req: &Request) -> Response {
        match answer_from_snapshot(&self.snapshot(), req) {
            Response::Stats(stats) => Response::Stats(ServiceStats {
                store_shards: self.shards() as u64,
                ..stats
            }),
            other => other,
        }
    }
}

impl ServeStore for EstimateStore {
    fn ingest(&self, ev: &Evidence) -> u64 {
        EstimateStore::ingest(self, ev)
    }

    fn publish_cut(&self) -> StoreSnapshot {
        (*self.publish_now()).clone()
    }

    fn seq(&self) -> u64 {
        EstimateStore::seq(self)
    }
}
