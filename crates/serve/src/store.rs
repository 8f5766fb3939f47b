//! The streaming estimate store: evidence ingest into one or more shard
//! writers, seq-tagged snapshot queries that never wait on it.
//!
//! ## Concurrency model
//!
//! One logical writer calls [`EstimateStore::ingest`] with each evidence
//! event; any number of readers call [`EstimateStore::snapshot`]
//! concurrently. The writer state (the store's clock and its shard
//! writers) sits behind one `Mutex`; readers never touch it — they clone
//! the current `Arc<StoreSnapshot>` out of an `RwLock` whose write lock
//! is held only for the pointer swap at publish time. Ingest therefore
//! never waits on queries and queries never wait on ingest beyond that
//! swap.
//!
//! ## Shards
//!
//! A store has one clock (evidence seq, query time, generation) and
//! N ≥ 1 shard writers, each a backend plus the newest evidence
//! timestamp per link it has seen. [`ShardRanges`] routes the evidence:
//! hop evidence goes to the shard owning its sender, a path outcome to
//! every shard owning one of its hops. [`EstimateStore::new`] is the
//! one-shard case and [`EstimateStore::sharded`] the general one;
//! [`EstimateStore::ingest_threaded`] runs each shard writer on a thread
//! of its own. [`crate::shard_store`] says which backends shard.
//!
//! ## Generations and consistency
//!
//! Every `publish_every` ingested events the store builds a fresh
//! immutable snapshot — a *generation* — tagged with the exact evidence
//! sequence number it covers. Every shard cuts its part at the clock's
//! query time, and one function concatenates the parts in shard order
//! (which is link order) and publishes the result. The cut is built
//! while the writer waits, so it reflects evidence `1..=seq` and nothing
//! else, and since the generation lives in the one clock it cannot tear
//! across shards. Backends are deterministic pure functions of their
//! evidence stream, so a snapshot at seq S is byte-identical whether the
//! stream arrived live under concurrent query load or was replayed from
//! a serialized log (the `dophy-serve --check` mode and the crate's
//! tests enforce this).
//!
//! ## Top-k
//!
//! Each publish selects the `top_k` lossiest links once from the merged
//! table, ordered by `(loss bits, link)` descending: loss is a
//! non-negative finite float, so its IEEE-754 bit pattern orders exactly
//! like its value. Queries read the `top_k` vector straight off the
//! snapshot.
//!
//! ## Freshness: windows and TTL
//!
//! Long-lived deployments must not serve estimates forever off evidence
//! that stopped arriving. Two independent knobs address that:
//!
//! * [`ServeConfig::window`] swaps the cumulative in-band backend for the
//!   tracking crate's [`WindowedNetworkEstimator`], so estimates merge
//!   only the most recent windows and follow drifting links;
//! * [`ServeConfig::ttl`] ages links out wholesale: at each publish, a
//!   link whose newest evidence is older than the TTL leaves the
//!   estimate table and the top-k, and [`StoreSnapshot::per_link`]
//!   answers a typed [`PerLinkAnswer::NotFresh`] carrying the last
//!   evidence timestamp and its age.
//!
//! Both are deterministic functions of the evidence stream and the cut
//! time, and every shard ages against the one clock's query time, so
//! every byte-identity guarantee carries over unchanged.

use crate::shard_store::ShardRanges;
use dophy::estimator::NetworkEstimator;
use dophy::infer::{
    Estimator, EstimatorKind, Evidence, MincEstimator, SnapshotQuery, SparseL1Estimator,
};
use dophy::tracking::{WindowConfig, WindowedNetworkEstimator};
use dophy::LossEstimate;
use dophy_sim::{SimDuration, SimTime};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;

/// Directed link key (sender node id, receiver node id).
pub type LinkKey = (u32, u32);

/// Store parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Publish a new snapshot generation every this many ingested events.
    pub publish_every: u64,
    /// How many of the lossiest links each snapshot carries.
    pub top_k: usize,
    /// MAC retry budget used for snapshots and ARQ-adjusted path loss.
    pub r: u16,
    /// Minimum samples for a link to be reported.
    pub min_samples: u64,
    /// When set, the in-band backend is replaced with the tracking
    /// backend's windowed estimator: estimates merge only the most
    /// recent windows, so they follow drifting links instead of the
    /// lifetime average. Only meaningful with
    /// [`EstimatorKind::InBand`].
    pub window: Option<WindowConfig>,
    /// When set, a link whose last evidence is older than this at
    /// publish time is *aged out*: it leaves the estimate table and the
    /// top-k, and per-link queries answer a typed
    /// [`PerLinkAnswer::NotFresh`] instead of a stale number.
    pub ttl: Option<SimDuration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            publish_every: 256,
            top_k: 10,
            r: 7,
            min_samples: 10,
            window: None,
            ttl: None,
        }
    }
}

/// Typed per-link query answer: freshness is part of the contract, not a
/// side channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PerLinkAnswer {
    /// The link has a current estimate backed by evidence within the TTL.
    Fresh {
        /// The loss estimate.
        est: LossEstimate,
        /// Timestamp of the newest evidence backing it.
        last_seen: SimTime,
    },
    /// The link was estimated once, but its newest evidence is older than
    /// the store's TTL — the estimate has been aged out rather than
    /// served stale.
    NotFresh {
        /// Timestamp of the newest evidence ever seen for the link.
        last_seen: SimTime,
        /// How old that evidence was at the snapshot cut.
        age: SimDuration,
        /// The TTL the snapshot was cut with.
        ttl: SimDuration,
    },
    /// The store has never estimated this link (no evidence, or below
    /// the minimum-sample threshold).
    Unknown,
}

/// Per-link confidence/coverage readout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkCoverage {
    /// Observations backing the estimate.
    pub n_samples: u64,
    /// Standard error of the loss estimate, when the backend provides one.
    pub stderr: Option<f64>,
}

/// Per-path loss answer, composed from per-link estimates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathLossReport {
    /// Hops in the queried path.
    pub hops: usize,
    /// Hops the store has an estimate for. When `known_hops < hops` the
    /// probabilities below cover only the known hops (optimistic bound).
    pub known_hops: usize,
    /// End-to-end delivery probability with per-hop ARQ: product over
    /// known hops of `1 - loss^r` (a hop delivers unless all `r`
    /// transmission attempts are lost).
    pub delivery_prob: f64,
    /// Raw single-transmission survival: product of `1 - loss` per hop.
    pub raw_success: f64,
}

/// One immutable published generation: everything queries read.
///
/// Serializing a snapshot is the canonical byte-identity probe — two
/// stores that ingested the same evidence prefix publish snapshots whose
/// JSON is equal byte for byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreSnapshot {
    /// Evidence sequence number this cut covers (events `1..=seq`).
    pub seq: u64,
    /// Publish generation (0 = the empty pre-ingest snapshot).
    pub generation: u64,
    /// Largest evidence timestamp ingested (the snapshot's query time).
    pub now: SimTime,
    /// MAC retry budget the estimates were extracted with.
    pub r: u16,
    /// Minimum-sample threshold the estimates were extracted with.
    pub min_samples: u64,
    /// TTL the cut was aged with (`None` = estimates never expire).
    pub ttl: Option<SimDuration>,
    /// Per-link estimates, sorted by link key.
    pub estimates: Vec<(LinkKey, LossEstimate)>,
    /// Newest evidence timestamp per reported link, aligned with
    /// `estimates` (entry `i` backs `estimates[i]`).
    pub last_seen: Vec<SimTime>,
    /// Links aged out by the TTL at this cut: `(link, newest evidence
    /// timestamp)`, sorted by link key. They are absent from `estimates`
    /// and `top_k` but still answer a typed [`PerLinkAnswer::NotFresh`].
    pub stale: Vec<(LinkKey, SimTime)>,
    /// The `top_k` lossiest links, highest loss first.
    pub top_k: Vec<(LinkKey, f64)>,
}

impl StoreSnapshot {
    fn empty(cfg: &ServeConfig) -> Self {
        Self {
            seq: 0,
            generation: 0,
            now: SimTime::ZERO,
            r: cfg.r,
            min_samples: cfg.min_samples,
            ttl: cfg.ttl,
            estimates: Vec::new(),
            last_seen: Vec::new(),
            stale: Vec::new(),
            top_k: Vec::new(),
        }
    }

    /// Loss estimate for one directed link.
    pub fn link(&self, link: LinkKey) -> Option<&LossEstimate> {
        self.estimates
            .binary_search_by_key(&link, |(k, _)| *k)
            .ok()
            .map(|i| &self.estimates[i].1)
    }

    /// Typed per-link answer with freshness: `Fresh` for a live estimate,
    /// `NotFresh` for a link aged out by the TTL, `Unknown` otherwise.
    pub fn per_link(&self, link: LinkKey) -> PerLinkAnswer {
        if let Ok(i) = self.estimates.binary_search_by_key(&link, |(k, _)| *k) {
            return PerLinkAnswer::Fresh {
                est: self.estimates[i].1,
                last_seen: self.last_seen[i],
            };
        }
        if let Ok(i) = self.stale.binary_search_by_key(&link, |(k, _)| *k) {
            let last_seen = self.stale[i].1;
            return PerLinkAnswer::NotFresh {
                last_seen,
                age: self.now.since(last_seen),
                ttl: self.ttl.unwrap_or(SimDuration::ZERO),
            };
        }
        PerLinkAnswer::Unknown
    }

    /// Confidence/coverage for one directed link.
    pub fn coverage(&self, link: LinkKey) -> Option<LinkCoverage> {
        self.link(link).map(|e| LinkCoverage {
            n_samples: e.n_samples,
            stderr: e.stderr,
        })
    }

    /// Composes per-link estimates into an end-to-end loss answer for
    /// `path` (directed `(sender, receiver)` hops, origin first).
    pub fn path_loss(&self, path: &[LinkKey]) -> PathLossReport {
        let mut delivery = 1.0;
        let mut raw = 1.0;
        let mut known = 0usize;
        for hop in path {
            if let Some(e) = self.link(*hop) {
                known += 1;
                raw *= 1.0 - e.loss;
                delivery *= 1.0 - e.loss.powi(i32::from(self.r));
            }
        }
        PathLossReport {
            hops: path.len(),
            known_hops: known,
            delivery_prob: delivery,
            raw_success: raw,
        }
    }
}

/// The store's one evidence clock, whatever its shard count.
#[derive(Default)]
struct Clock {
    seq: u64,
    generation: u64,
    now: SimTime,
}

impl Clock {
    /// Counts `ev` and raises `now` to its timestamp; returns whether a
    /// publish is due (every `publish_every` events).
    fn advance(&mut self, ev: &Evidence, publish_every: u64) -> bool {
        self.seq += 1;
        self.now = self.now.max(ev.at());
        self.seq.is_multiple_of(publish_every)
    }
}

/// One shard's part of a cut, in link order.
#[derive(Default)]
struct ShardCut {
    estimates: Vec<(LinkKey, LossEstimate)>,
    last_seen: Vec<SimTime>,
    stale: Vec<(LinkKey, SimTime)>,
}

/// One shard writer: a backend plus the newest evidence timestamp per
/// link it has seen (drives TTL aging and the snapshot's `last_seen`
/// column).
struct Shard {
    backend: Box<dyn Estimator>,
    last_seen: BTreeMap<LinkKey, SimTime>,
}

impl Shard {
    /// Feeds `ev` to the backend and records its time for every link it
    /// carries data about.
    fn observe(&mut self, ev: &Evidence) {
        self.backend.observe(ev);
        let mut touch = |link: LinkKey, at: SimTime| {
            let t = self.last_seen.entry(link).or_insert(at);
            if at > *t {
                *t = at;
            }
        };
        match ev {
            Evidence::Hop {
                at,
                sender,
                receiver,
                ..
            } => touch((*sender, *receiver), *at),
            Evidence::PathOutcome { at, path, .. } => {
                for &hop in path {
                    touch(hop, *at);
                }
            }
        }
    }

    /// This shard's part of the cut at `q.now`. With a TTL, links whose
    /// newest evidence is older than the TTL are split out as stale
    /// instead of being reported.
    fn cut(&self, q: &SnapshotQuery, ttl: Option<SimDuration>) -> ShardCut {
        let seen = |link: &LinkKey| self.last_seen.get(link).copied().unwrap_or(SimTime::ZERO);
        let mut estimates = self.backend.snapshot(q);
        let mut stale = Vec::new();
        if let Some(ttl) = ttl {
            estimates.retain(|(link, _)| {
                let at = seen(link);
                let fresh = q.now.since(at) <= ttl;
                if !fresh {
                    stale.push((*link, at));
                }
                fresh
            });
        }
        let last_seen = estimates.iter().map(|(link, _)| seen(link)).collect();
        ShardCut {
            estimates,
            last_seen,
            stale,
        }
    }
}

/// Everything the writer owns.
struct Writer {
    clock: Clock,
    shards: Vec<Shard>,
}

/// Message to a shard ingest thread: evidence to observe, or an order to
/// cut its part at a query.
enum ShardMsg<'a> {
    Ev(&'a Evidence),
    Cut(SnapshotQuery),
}

/// The service core: one of these per served tomography instance.
pub struct EstimateStore {
    cfg: ServeConfig,
    ranges: ShardRanges,
    writer: Mutex<Writer>,
    published: RwLock<Arc<StoreSnapshot>>,
}

impl EstimateStore {
    /// Builds a one-shard store around a fresh backend of the given kind.
    /// With `cfg.window` set, the backend is the tracking crate's windowed
    /// estimator (time-resolved in-band estimates); that combination is
    /// only defined for [`EstimatorKind::InBand`].
    ///
    /// # Panics
    ///
    /// When `cfg.window` is set with an end-to-end estimator kind — the
    /// windowed backend consumes in-band hop evidence only.
    pub fn new(kind: EstimatorKind, cfg: ServeConfig) -> Self {
        // One range, starting at sender 0, owns every link.
        Self::sharded(kind, cfg, ShardRanges::uniform(0, 1))
    }

    /// Builds a store with one shard writer per range, each around a
    /// fresh backend of the given kind. `cfg` reads exactly as for
    /// [`EstimateStore::new`]; `publish_every` counts the events of the
    /// whole store.
    ///
    /// # Panics
    ///
    /// As [`EstimateStore::new`], and for [`EstimatorKind::SparseL1`] over
    /// more than one range: sparse-L1 solves one problem over every
    /// route, so per-shard solves are not the joint solve.
    pub fn sharded(kind: EstimatorKind, cfg: ServeConfig, ranges: ShardRanges) -> Self {
        assert!(
            kind != EstimatorKind::SparseL1 || ranges.len() == 1,
            "sparse-l1 solves over every route at once and cannot be sharded \
             ({} ranges given)",
            ranges.len()
        );
        let shards = (0..ranges.len())
            .map(|_| Shard {
                backend: backend(kind, cfg.window),
                last_seen: BTreeMap::new(),
            })
            .collect();
        Self {
            cfg,
            ranges,
            writer: Mutex::new(Writer {
                clock: Clock::default(),
                shards,
            }),
            published: RwLock::new(Arc::new(StoreSnapshot::empty(&cfg))),
        }
    }

    /// Number of shard writers.
    pub fn shards(&self) -> usize {
        self.ranges.len()
    }

    /// Ingests one evidence event; returns its sequence number. Publishes
    /// a new generation every `publish_every` events.
    pub fn ingest(&self, ev: &Evidence) -> u64 {
        let mut guard = self.writer.lock();
        let Writer { clock, shards } = &mut *guard;
        let due = clock.advance(ev, self.cfg.publish_every);
        self.route(ev, |i| shards[i].observe(ev));
        if due {
            self.cut_and_publish(clock, shards);
        }
        clock.seq
    }

    /// Forces a publish covering everything ingested so far (end of
    /// stream, or a determinism checkpoint at an exact seq).
    pub fn publish_now(&self) -> Arc<StoreSnapshot> {
        let mut guard = self.writer.lock();
        let Writer { clock, shards } = &mut *guard;
        self.cut_and_publish(clock, shards)
    }

    /// Ingests the whole stream with one ingest thread per shard. The
    /// calling thread routes each event to its owning shards' channels
    /// and publishes every `publish_every` events; a publish waits until
    /// every shard has sent back its part (channels are FIFO, so each
    /// shard has by then observed exactly its prefix of the stream).
    /// Returns the final seq. Like inline ingest, it does not publish at
    /// the end of the stream; [`EstimateStore::publish_now`] does.
    pub fn ingest_threaded(&self, events: &[Evidence]) -> u64 {
        let mut guard = self.writer.lock();
        let Writer { clock, shards } = &mut *guard;
        let ttl = self.cfg.ttl;
        std::thread::scope(|scope| {
            let mut event_txs = Vec::with_capacity(shards.len());
            let mut cut_rxs = Vec::with_capacity(shards.len());
            for shard in shards.iter_mut() {
                let (tx, rx) = mpsc::channel::<ShardMsg<'_>>();
                let (cut_tx, cut_rx) = mpsc::channel::<ShardCut>();
                event_txs.push(tx);
                cut_rxs.push(cut_rx);
                scope.spawn(move || {
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            ShardMsg::Ev(ev) => shard.observe(ev),
                            ShardMsg::Cut(q) => {
                                if cut_tx.send(shard.cut(&q, ttl)).is_err() {
                                    return;
                                }
                            }
                        }
                    }
                });
            }
            for ev in events {
                let due = clock.advance(ev, self.cfg.publish_every);
                self.route(ev, |i| {
                    event_txs[i]
                        .send(ShardMsg::Ev(ev))
                        .expect("shard ingest thread died");
                });
                if due {
                    let q = self.query(clock.now);
                    for tx in &event_txs {
                        tx.send(ShardMsg::Cut(q)).expect("shard ingest thread died");
                    }
                    self.publish(
                        clock,
                        cut_rxs
                            .iter()
                            .map(|rx| rx.recv().expect("shard dropped its cut")),
                    );
                }
            }
            drop(event_txs);
            clock.seq
        })
    }

    /// The current published snapshot. Never blocks ingest beyond the
    /// publish-time pointer swap; the returned cut stays valid (and
    /// immutable) for as long as the caller holds it.
    pub fn snapshot(&self) -> Arc<StoreSnapshot> {
        Arc::clone(&self.published.read())
    }

    /// Evidence events ingested so far.
    pub fn seq(&self) -> u64 {
        self.writer.lock().clock.seq
    }

    /// Calls `deliver` with each shard that must observe `ev`: the
    /// sender's owner for hop evidence, every hop's owner (deduplicated)
    /// for path outcomes.
    fn route(&self, ev: &Evidence, mut deliver: impl FnMut(usize)) {
        if self.ranges.len() == 1 {
            deliver(0);
            return;
        }
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

    fn query(&self, now: SimTime) -> SnapshotQuery {
        SnapshotQuery {
            now,
            r: self.cfg.r,
            min_samples: self.cfg.min_samples,
        }
    }

    /// Cuts every shard on the calling thread and publishes the result.
    fn cut_and_publish(&self, clock: &mut Clock, shards: &[Shard]) -> Arc<StoreSnapshot> {
        let q = self.query(clock.now);
        self.publish(clock, shards.iter().map(|s| s.cut(&q, self.cfg.ttl)))
    }

    /// Builds the next generation from the shards' parts of the cut,
    /// given in shard order, and publishes it. Ranges are contiguous in
    /// the sender, the major key of a link, so concatenating the parts
    /// gives the table in link order with no re-sort.
    fn publish(
        &self,
        clock: &mut Clock,
        mut parts: impl Iterator<Item = ShardCut>,
    ) -> Arc<StoreSnapshot> {
        let mut cut = parts.next().unwrap_or_default();
        for part in parts {
            cut.estimates.extend(part.estimates);
            cut.last_seen.extend(part.last_seen);
            cut.stale.extend(part.stale);
        }
        clock.generation += 1;
        let top_k = top_k(&cut.estimates, self.cfg.top_k);
        let snap = Arc::new(StoreSnapshot {
            seq: clock.seq,
            generation: clock.generation,
            now: clock.now,
            r: self.cfg.r,
            min_samples: self.cfg.min_samples,
            ttl: self.cfg.ttl,
            estimates: cut.estimates,
            last_seen: cut.last_seen,
            stale: cut.stale,
            top_k,
        });
        *self.published.write() = Arc::clone(&snap);
        snap
    }
}

/// A fresh backend of `kind`: the windowed in-band estimator when a
/// window is set.
fn backend(kind: EstimatorKind, window: Option<WindowConfig>) -> Box<dyn Estimator> {
    match (kind, window) {
        (EstimatorKind::InBand, Some(w)) => Box::new(WindowedNetworkEstimator::new(w)),
        (EstimatorKind::InBand, None) => Box::new(NetworkEstimator::new()),
        (EstimatorKind::Minc, None) => Box::new(MincEstimator::new()),
        (EstimatorKind::SparseL1, None) => Box::new(SparseL1Estimator::new()),
        (other, Some(_)) => {
            panic!("windowed serving requires the in-band estimator, got {other}")
        }
    }
}

/// The `k` lossiest links, highest loss first, ties broken by the larger
/// link: `(loss bits, link)` descending.
fn top_k(estimates: &[(LinkKey, LossEstimate)], k: usize) -> Vec<(LinkKey, f64)> {
    let mut ranked: Vec<(u64, LinkKey)> = estimates
        .iter()
        .map(|(link, e)| (e.loss.to_bits(), *link))
        .collect();
    if k < ranked.len() {
        ranked.select_nth_unstable_by(k, |a, b| b.cmp(a));
        ranked.truncate(k);
    }
    ranked.sort_unstable_by(|a, b| b.cmp(a));
    ranked
        .into_iter()
        .map(|(bits, link)| (link, f64::from_bits(bits)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dophy_coding::aggregate::AttemptObservation;

    fn hop(sender: u32, receiver: u32, attempt: u16, at_us: u64) -> Evidence {
        Evidence::Hop {
            at: SimTime::from_micros(at_us),
            sender,
            receiver,
            observation: AttemptObservation::Exact(attempt),
        }
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            publish_every: 64,
            top_k: 3,
            r: 7,
            min_samples: 5,
            ..ServeConfig::default()
        }
    }

    fn store() -> EstimateStore {
        EstimateStore::new(EstimatorKind::InBand, cfg())
    }

    /// Feeds three links with distinct loss rates and checks the queries.
    #[test]
    fn queries_answer_from_published_generations() {
        let s = store();
        // Link (2,1): mostly first-attempt success. (3,1): often 3 tries.
        // (4,1): often 5 tries. More attempts => higher estimated loss.
        for i in 0..120u64 {
            s.ingest(&hop(2, 1, 1 + (i % 4 == 0) as u16, i * 1000));
            s.ingest(&hop(3, 1, 1 + (i % 2) as u16 * 2, i * 1000 + 1));
            s.ingest(&hop(4, 1, if i % 3 == 0 { 1 } else { 5 }, i * 1000 + 2));
        }
        let snap = s.publish_now();
        assert_eq!(snap.seq, 360);
        assert!(snap.generation >= 5, "generation {}", snap.generation);
        assert_eq!(snap.estimates.len(), 3);
        let l21 = snap.link((2, 1)).expect("link (2,1) estimated");
        let l41 = snap.link((4, 1)).expect("link (4,1) estimated");
        assert!(l41.loss > l21.loss, "more retries must read as lossier");
        assert!(snap.link((9, 9)).is_none());
        let cov = snap.coverage((2, 1)).unwrap();
        assert_eq!(cov.n_samples, 120);
        // Path query composes the per-link estimates.
        let rep = snap.path_loss(&[(4, 1), (2, 1)]);
        assert_eq!(rep.hops, 2);
        assert_eq!(rep.known_hops, 2);
        assert!(rep.raw_success <= (1.0 - l41.loss) * (1.0 - l21.loss) + 1e-12);
        assert!(rep.delivery_prob > rep.raw_success);
        let partial = snap.path_loss(&[(4, 1), (7, 7)]);
        assert_eq!(partial.known_hops, 1);
    }

    /// Every generation, at one shard and at two, must equal a reference
    /// that bypasses the store's routing, cutting and ranking: the
    /// estimates of one `NetworkEstimator` fed the same events and
    /// snapshotted at the cut's `(now, r, min_samples)`, bit for bit,
    /// and a top-k from a full sort of them.
    #[test]
    fn every_cut_matches_a_reference_estimator() {
        for s in [
            store(),
            EstimateStore::sharded(EstimatorKind::InBand, cfg(), ShardRanges::uniform(9, 2)),
        ] {
            let mut reference = NetworkEstimator::new();
            for i in 0..400u64 {
                let link = 2 + (i % 7) as u32;
                let attempts = 1 + ((i * 31 + link as u64) % 5) as u16;
                let ev = hop(link, 1, attempts, i * 500);
                s.ingest(&ev);
                Estimator::observe(&mut reference, &ev);
                if i % 64 == 63 {
                    let snap = s.snapshot();
                    let want = reference.snapshot(&SnapshotQuery {
                        now: snap.now,
                        r: snap.r,
                        min_samples: snap.min_samples,
                    });
                    assert!(!want.is_empty(), "reference saw no links");
                    assert_eq!(
                        serde_json::to_string(&snap.estimates).unwrap(),
                        serde_json::to_string(&want).unwrap(),
                        "{} shard(s), generation {}",
                        s.shards(),
                        snap.generation
                    );
                    let mut expect: Vec<(LinkKey, f64)> =
                        want.iter().map(|&(k, e)| (k, e.loss)).collect();
                    expect.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(b.0.cmp(&a.0)));
                    expect.truncate(3);
                    assert_eq!(snap.top_k, expect, "generation {}", snap.generation);
                }
            }
        }
    }

    /// Reading while writing from another thread: every observed snapshot
    /// must be internally consistent and seq must be monotone.
    #[test]
    fn snapshots_are_consistent_under_concurrent_ingest() {
        let s = store();
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut last_seq = 0;
                let mut observed = 0u64;
                while observed < 20_000 {
                    let snap = s.snapshot();
                    assert!(snap.seq >= last_seq, "seq went backwards");
                    last_seq = snap.seq;
                    // top_k entries must exist in the estimate table with
                    // the same loss — a torn cut would break this.
                    for &(link, loss) in &snap.top_k {
                        let e = snap.link(link).expect("top-k link missing");
                        assert_eq!(e.loss, loss);
                    }
                    observed += 1;
                }
            });
            for i in 0..3000u64 {
                let link = 2 + (i % 5) as u32;
                s.ingest(&hop(link, 1, 1 + (i % 3) as u16, i * 200));
            }
            s.publish_now();
            reader.join().unwrap();
        });
        assert_eq!(s.seq(), 3000);
    }

    #[test]
    #[should_panic(expected = "cannot be sharded")]
    fn sharded_sparse_l1_is_refused() {
        EstimateStore::sharded(EstimatorKind::SparseL1, cfg(), ShardRanges::uniform(8, 2));
    }

    /// Snapshot JSON at the same seq is byte-identical live vs replayed.
    #[test]
    fn snapshot_serialization_is_replay_stable() {
        let events: Vec<Evidence> = (0..200u64)
            .map(|i| hop(2 + (i % 4) as u32, 1, 1 + (i % 3) as u16, i * 700))
            .collect();
        let a = store();
        for ev in &events {
            a.ingest(ev);
        }
        let snap_a = serde_json::to_string(&*a.publish_now()).unwrap();
        // Round-trip the evidence itself through JSON, then replay.
        let json = serde_json::to_string(&events).unwrap();
        let replayed: Vec<Evidence> = serde_json::from_str(&json).unwrap();
        assert_eq!(replayed, events);
        let b = store();
        for ev in &replayed {
            b.ingest(ev);
        }
        let snap_b = serde_json::to_string(&*b.publish_now()).unwrap();
        assert_eq!(snap_a, snap_b);
    }
}
