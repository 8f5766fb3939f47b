//! # dophy-serve
//!
//! Tomography as a long-lived service. Everything else in this workspace
//! runs a simulation to completion and *then* reads estimates out; this
//! crate inverts that: a [`store::EstimateStore`] ingests a live
//! [`dophy::infer::Evidence`] stream and answers queries **while**
//! ingesting, from seq-tagged consistent snapshots.
//!
//! * [`store`] — the streaming estimate store. One clock and N ≥ 1
//!   shard writers ingest evidence into any
//!   [`dophy::infer::EstimatorKind`] backend, and every `publish_every`
//!   events one function builds an immutable [`store::StoreSnapshot`]
//!   (a *generation*) from the shards' parts. Readers grab the current
//!   `Arc<StoreSnapshot>` and never block ingest; every snapshot is a
//!   consistent cut tagged with the evidence sequence number it covers,
//!   so the same query at the same seq is byte-identical live or
//!   replayed, and at any shard count the backend allows.
//! * [`firehose`] — the replay/driver side: captures the typed evidence
//!   streams of N parallel simulations (on a small pool of its own, via
//!   the [`dophy_bench::Instruments`] evidence tap), namespaces each
//!   simulation's node ids into its own block, and merges the streams
//!   into one deterministic firehose.
//! * [`shard_store`] — the sender-id ranges that partition a sharded
//!   store's links, which backends they are exact for, and
//!   [`shard_store::ShardedStore`], a forwarding type for callers that
//!   name a sharded store.
//! * [`proto`] — the versioned request/response vocabulary, the
//!   [`proto::TomographyView`] query surface shared by the store and
//!   the wire, and [`proto::answer_from_snapshot`], the one function
//!   the store answers with.
//! * [`wire`] — the length-prefixed framed codec with strict decode
//!   limits and typed [`wire::WireError`]s.
//! * [`net`] — TCP transport: thread-per-connection server and a
//!   blocking framed [`net::Client`].
//!
//! The `dophy-serve` binary ties it together:
//!
//! ```text
//! dophy-serve --check --store-shards 2                # live-vs-replay byte identity
//! dophy-serve --listen 127.0.0.1:7431                 # serve over TCP
//! dophy-serve --connect 127.0.0.1:7431 --check        # client vs local recompute
//! ```
//!
//! Ingest and query throughput are measured by `pipeline-bench/` at the
//! repository root, which drives this crate's public API end to end.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod firehose;
pub mod net;
pub mod proto;
pub mod shard_store;
pub mod store;
pub mod wire;

pub use firehose::{capture, Firehose, SimCapture};
pub use net::{listen_and_serve, serve, Client};
pub use proto::{
    answer_from_snapshot, Request, Response, ServeStore, ServiceStats, TomographyView,
    PROTOCOL_VERSION,
};
pub use shard_store::{ShardRanges, ShardedStore};
pub use store::{
    EstimateStore, LinkCoverage, LinkKey, PathLossReport, PerLinkAnswer, ServeConfig, StoreSnapshot,
};
pub use wire::{
    decode_frame, encode_frame, encode_frame_versioned, read_frame, write_frame, WireError,
    HEADER_LEN, MAGIC, MAX_FRAME_PAYLOAD,
};
