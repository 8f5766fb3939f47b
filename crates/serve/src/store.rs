//! The streaming estimate store: single-writer evidence ingest, lock-free
//! (for the reader) seq-tagged snapshot queries.
//!
//! ## Concurrency model
//!
//! One logical writer calls [`EstimateStore::ingest`] with each evidence
//! event; any number of readers call [`EstimateStore::snapshot`]
//! concurrently. The writer owns the backend behind a `Mutex`; readers
//! never touch it — they clone the current `Arc<StoreSnapshot>` out of an
//! `RwLock` whose write lock is held only for the pointer swap at publish
//! time. Ingest therefore never waits on queries and queries never wait
//! on ingest beyond that swap.
//!
//! ## Generations and consistency
//!
//! Every `publish_every` ingested events the store builds a fresh
//! immutable snapshot — a *generation* — tagged with the exact evidence
//! sequence number it covers. Because the snapshot is built under the
//! ingest lock, it is a consistent cut: it reflects evidence `1..=seq`
//! and nothing else. Backends are deterministic pure functions of their
//! evidence stream, so a snapshot at seq S is byte-identical whether the
//! stream arrived live under concurrent query load or was replayed from a
//! serialized log (the `dophy-serve --check` mode and the crate's tests
//! enforce this).
//!
//! ## Incremental top-k
//!
//! The top-k lossiest links are *maintained*, not recomputed per query:
//! the store keeps a persistent ranking (`BTreeSet` ordered by loss bits)
//! across generations and, at each publish, touches only the links whose
//! estimate actually changed since the previous generation. Queries read
//! the precomputed `top_k` vector straight off the snapshot.
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
//! time, so every byte-identity guarantee carries over unchanged.

use dophy::estimator::NetworkEstimator;
use dophy::infer::{
    Estimator, EstimatorKind, Evidence, MincEstimator, SnapshotQuery, SparseL1Estimator,
};
use dophy::tracking::{WindowConfig, WindowedNetworkEstimator};
use dophy::LossEstimate;
use dophy_sim::{SimDuration, SimTime};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
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
    pub(crate) fn empty(cfg: &ServeConfig) -> Self {
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

/// Writer-side state: the backend plus the cross-generation ranking.
struct Ingest {
    backend: Box<dyn Estimator>,
    cfg: ServeConfig,
    seq: u64,
    generation: u64,
    now: SimTime,
    /// Newest evidence timestamp per link ever observed (drives TTL
    /// aging and the snapshot's `last_seen` column).
    last_seen: BTreeMap<LinkKey, SimTime>,
    /// Last published per-link estimates, for diffing.
    prev: BTreeMap<LinkKey, LossEstimate>,
    /// Persistent ranking by `(loss bits, link)`. Loss is a non-negative
    /// finite float, so its IEEE-754 bit pattern orders exactly like its
    /// value and the set's tail is the lossiest links.
    rank: BTreeSet<(u64, LinkKey)>,
}

impl Ingest {
    /// Records evidence time for every link the event carries data about.
    fn touch_links(&mut self, ev: &Evidence) {
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

    /// Builds the next generation's snapshot, cut at `self.now`. Touches
    /// only links whose estimate changed since the previous publish.
    /// With a TTL configured, links whose newest evidence is older than
    /// the TTL are split out as stale instead of being reported.
    fn publish(&mut self) -> Arc<StoreSnapshot> {
        let q = SnapshotQuery {
            now: self.now,
            r: self.cfg.r,
            min_samples: self.cfg.min_samples,
        };
        let reported = self.backend.snapshot(&q);
        let (fresh, stale) = match self.cfg.ttl {
            None => (reported, Vec::new()),
            Some(ttl) => {
                let mut fresh = Vec::with_capacity(reported.len());
                let mut stale = Vec::new();
                for (link, est) in reported {
                    let seen = self.last_seen.get(&link).copied().unwrap_or(SimTime::ZERO);
                    if self.now.since(seen) <= ttl {
                        fresh.push((link, est));
                    } else {
                        stale.push((link, seen));
                    }
                }
                (fresh, stale)
            }
        };
        let mut new_links = 0usize;
        for (link, est) in &fresh {
            match self.prev.get(link) {
                Some(old) if old.loss == est.loss => {}
                Some(old) => {
                    self.rank.remove(&(old.loss.to_bits(), *link));
                    self.rank.insert((est.loss.to_bits(), *link));
                }
                None => {
                    new_links += 1;
                    self.rank.insert((est.loss.to_bits(), *link));
                }
            }
        }
        // Links can drop out of a snapshot (e.g. a windowed backend aging
        // a link below min_samples); evict their ranking entries.
        if self.prev.len() + new_links > fresh.len() {
            let fresh_keys: BTreeSet<LinkKey> = fresh.iter().map(|(k, _)| *k).collect();
            for (link, old) in &self.prev {
                if !fresh_keys.contains(link) {
                    self.rank.remove(&(old.loss.to_bits(), *link));
                }
            }
        }
        self.prev = fresh.iter().cloned().collect();
        self.generation += 1;
        let top_k = self
            .rank
            .iter()
            .rev()
            .take(self.cfg.top_k)
            .map(|&(bits, link)| (link, f64::from_bits(bits)))
            .collect();
        let last_seen = fresh
            .iter()
            .map(|(k, _)| self.last_seen.get(k).copied().unwrap_or(SimTime::ZERO))
            .collect();
        Arc::new(StoreSnapshot {
            seq: self.seq,
            generation: self.generation,
            now: self.now,
            r: self.cfg.r,
            min_samples: self.cfg.min_samples,
            ttl: self.cfg.ttl,
            estimates: fresh,
            last_seen,
            stale,
            top_k,
        })
    }
}

/// The service core: one of these per served tomography instance.
pub struct EstimateStore {
    ingest: Mutex<Ingest>,
    published: RwLock<Arc<StoreSnapshot>>,
}

impl EstimateStore {
    /// Builds a store around a fresh backend of the given kind. With
    /// `cfg.window` set, the backend is the tracking crate's windowed
    /// estimator (time-resolved in-band estimates); that combination is
    /// only defined for [`EstimatorKind::InBand`].
    ///
    /// # Panics
    ///
    /// When `cfg.window` is set with an end-to-end estimator kind — the
    /// windowed backend consumes in-band hop evidence only.
    pub fn new(kind: EstimatorKind, cfg: ServeConfig) -> Self {
        let backend: Box<dyn Estimator> = match (kind, cfg.window) {
            (EstimatorKind::InBand, Some(w)) => Box::new(WindowedNetworkEstimator::new(w)),
            (EstimatorKind::InBand, None) => Box::new(NetworkEstimator::new()),
            (EstimatorKind::Minc, None) => Box::new(MincEstimator::new()),
            (EstimatorKind::SparseL1, None) => Box::new(SparseL1Estimator::new()),
            (other, Some(_)) => {
                panic!("windowed serving requires the in-band estimator, got {other}")
            }
        };
        Self {
            ingest: Mutex::new(Ingest {
                backend,
                cfg,
                seq: 0,
                generation: 0,
                now: SimTime::ZERO,
                last_seen: BTreeMap::new(),
                prev: BTreeMap::new(),
                rank: BTreeSet::new(),
            }),
            published: RwLock::new(Arc::new(StoreSnapshot::empty(&cfg))),
        }
    }

    /// Ingests one evidence event; returns its sequence number. Publishes
    /// a new generation every `publish_every` events.
    pub fn ingest(&self, ev: &Evidence) -> u64 {
        let mut g = self.ingest.lock();
        g.backend.observe(ev);
        g.touch_links(ev);
        g.seq += 1;
        let at = ev.at();
        if at > g.now {
            g.now = at;
        }
        if g.seq.is_multiple_of(g.cfg.publish_every) {
            let snap = g.publish();
            *self.published.write() = snap;
        }
        g.seq
    }

    /// Forces a publish covering everything ingested so far (end of
    /// stream, or a determinism checkpoint at an exact seq).
    pub fn publish_now(&self) -> Arc<StoreSnapshot> {
        let mut g = self.ingest.lock();
        let snap = g.publish();
        *self.published.write() = Arc::clone(&snap);
        snap
    }

    /// Cuts the next generation at an externally supplied query time
    /// (never earlier than the newest ingested evidence) without
    /// publishing it. The sharded router cuts every shard this way, so
    /// each ages TTLs and windows against the same global clock — which
    /// keeps the merged cut, the only one it publishes, byte-identical to
    /// a single store at the same evidence seq.
    pub(crate) fn cut_at(&self, now: SimTime) -> Arc<StoreSnapshot> {
        let mut g = self.ingest.lock();
        if now > g.now {
            g.now = now;
        }
        g.publish()
    }

    /// The current published snapshot. Never blocks ingest beyond the
    /// publish-time pointer swap; the returned cut stays valid (and
    /// immutable) for as long as the caller holds it.
    pub fn snapshot(&self) -> Arc<StoreSnapshot> {
        Arc::clone(&self.published.read())
    }

    /// Evidence events ingested so far.
    pub fn seq(&self) -> u64 {
        self.ingest.lock().seq
    }
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

    fn store() -> EstimateStore {
        EstimateStore::new(
            EstimatorKind::InBand,
            ServeConfig {
                publish_every: 64,
                top_k: 3,
                r: 7,
                min_samples: 5,
                ..ServeConfig::default()
            },
        )
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

    /// The maintained top-k must equal a from-scratch sort of the
    /// published estimates, at every generation.
    #[test]
    fn incremental_top_k_matches_recompute() {
        let s = store();
        for i in 0..400u64 {
            let link = 2 + (i % 7) as u32;
            let attempts = 1 + ((i * 31 + link as u64) % 5) as u16;
            s.ingest(&hop(link, 1, attempts, i * 500));
            if i % 64 == 63 {
                let snap = s.snapshot();
                let mut expect: Vec<(LinkKey, f64)> =
                    snap.estimates.iter().map(|&(k, e)| (k, e.loss)).collect();
                expect.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(b.0.cmp(&a.0)));
                expect.truncate(3);
                assert_eq!(snap.top_k, expect, "generation {}", snap.generation);
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
