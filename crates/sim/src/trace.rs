//! Ground-truth tracing.
//!
//! The engine records every physical transmission outcome here. Experiments
//! read the trace to obtain the *true* per-link reception ratios that
//! tomography estimates are scored against, plus traffic-level statistics
//! (delivery ratio, attempt histograms).
//!
//! Two notions of truth coexist:
//!
//! * **Empirical PRR** — successes ÷ attempts actually drawn on the link.
//!   This is the fair reference for estimator error: it removes the sampling
//!   noise floor that even a perfect estimator could not beat.
//! * **Model PRR** — the loss process's analytic mean, available from the
//!   topology/config for links that were never used.
//!
//! Windowed snapshots ([`Trace::snapshot_links`] + [`LinkTruth::diff`])
//! support time-varying scenarios where truth must be computed per epoch.

use crate::stats::CountHistogram;
use crate::topology::{NodeId, Topology};
use serde::{Deserialize, Serialize};

/// Physical-layer counters for one directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkTruth {
    /// Data-frame transmissions attempted on the link.
    pub data_tx: u64,
    /// Of which physically received.
    pub data_rx: u64,
    /// ACK transmissions attempted on the reverse link (counted here,
    /// against the *data* link, for convenience).
    pub ack_tx: u64,
    /// Of which received by the data sender.
    pub ack_rx: u64,
    /// Broadcast (beacon) copies sampled on this link.
    pub bcast_tx: u64,
    /// Of which received.
    pub bcast_rx: u64,
}

impl LinkTruth {
    /// Empirical reception ratio; `None` until the link carried traffic.
    pub fn empirical_prr(&self) -> Option<f64> {
        (self.data_tx > 0).then(|| self.data_rx as f64 / self.data_tx as f64)
    }

    /// Empirical loss ratio (`1 - PRR`); `None` until the link carried
    /// traffic.
    pub fn empirical_loss(&self) -> Option<f64> {
        self.empirical_prr().map(|p| 1.0 - p)
    }

    /// Adds another link's counters into this one (trace merging).
    fn accumulate(&mut self, src: &LinkTruth) {
        self.data_tx += src.data_tx;
        self.data_rx += src.data_rx;
        self.ack_tx += src.ack_tx;
        self.ack_rx += src.ack_rx;
        self.bcast_tx += src.bcast_tx;
        self.bcast_rx += src.bcast_rx;
    }

    /// Counter delta `self - earlier` (for windowed truth).
    pub fn diff(&self, earlier: &LinkTruth) -> LinkTruth {
        LinkTruth {
            data_tx: self.data_tx - earlier.data_tx,
            data_rx: self.data_rx - earlier.data_rx,
            ack_tx: self.ack_tx - earlier.ack_tx,
            ack_rx: self.ack_rx - earlier.ack_rx,
            bcast_tx: self.bcast_tx - earlier.bcast_tx,
            bcast_rx: self.bcast_rx - earlier.bcast_rx,
        }
    }
}

/// Whole-run ground truth collected by the engine.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    links: Vec<LinkTruth>,
    /// Broadcast frames transmitted.
    pub broadcast_tx: u64,
    /// Broadcast copies received.
    pub broadcast_rx: u64,
    /// Unicast ARQ exchanges started.
    pub unicast_started: u64,
    /// Of which acknowledged.
    pub unicast_acked: u64,
    /// Of which exhausted their retry budget.
    pub unicast_failed: u64,
    /// Frames dropped at MAC queues.
    pub queue_drops: u64,
    /// Histogram of attempts-until-ACK for acknowledged exchanges.
    pub attempts_hist: CountHistogram,
    /// Total bytes put on air (data + ACK), for energy-style accounting.
    pub bytes_on_air: u64,
}

impl Trace {
    /// Creates a trace sized for `topology`.
    pub fn for_topology(topology: &Topology) -> Self {
        Self::with_link_count(topology.links().len())
    }

    /// Creates a trace with `links` counter slots. Used by shards that
    /// record only the links they own (indexed by a shard-local id) and
    /// fold into a full-topology trace via [`Trace::merge_mapped`]; a
    /// full-size per-shard trace would multiply the per-link footprint
    /// by the shard count.
    pub fn with_link_count(links: usize) -> Self {
        Self {
            links: vec![LinkTruth::default(); links],
            ..Self::default()
        }
    }

    /// Records one physical data transmission on link `link_id`.
    pub fn record_data_attempt(&mut self, link_id: usize, received: bool, bytes: usize) {
        let l = &mut self.links[link_id];
        l.data_tx += 1;
        if received {
            l.data_rx += 1;
        }
        self.bytes_on_air += bytes as u64;
    }

    /// Records one broadcast-copy sample on link `link_id` (airtime for the
    /// broadcast frame itself is charged once by the engine, not per copy).
    pub fn record_broadcast_attempt(&mut self, link_id: usize, received: bool) {
        let l = &mut self.links[link_id];
        l.bcast_tx += 1;
        if received {
            l.bcast_rx += 1;
        }
    }

    /// Records one ACK transmission for the data link `link_id`.
    pub fn record_ack_attempt(&mut self, link_id: usize, received: bool, ack_bytes: usize) {
        let l = &mut self.links[link_id];
        l.ack_tx += 1;
        if received {
            l.ack_rx += 1;
        }
        self.bytes_on_air += ack_bytes as u64;
    }

    /// Per-link counters, indexed by topology link id.
    pub fn links(&self) -> &[LinkTruth] {
        &self.links
    }

    /// Folds a *compact* trace (one slot per owned link, see
    /// [`Trace::with_link_count`]) into this full-topology one:
    /// `other.links[i]` adds into `self.links[global_ids[i]]`, scalar
    /// totals sum, and attempt histograms merge.
    ///
    /// # Panics
    /// Panics if `global_ids` is not parallel to `other`'s link slots or
    /// maps outside this trace.
    pub fn merge_mapped(&mut self, other: &Trace, global_ids: &[usize]) {
        assert_eq!(
            other.links.len(),
            global_ids.len(),
            "compact trace and its link map must be parallel"
        );
        for (src, &g) in other.links.iter().zip(global_ids) {
            self.links[g].accumulate(src);
        }
        self.broadcast_tx += other.broadcast_tx;
        self.broadcast_rx += other.broadcast_rx;
        self.unicast_started += other.unicast_started;
        self.unicast_acked += other.unicast_acked;
        self.unicast_failed += other.unicast_failed;
        self.queue_drops += other.queue_drops;
        self.attempts_hist.merge(&other.attempts_hist);
        self.bytes_on_air += other.bytes_on_air;
    }

    /// Copy of the per-link counters (epoch snapshot).
    pub fn snapshot_links(&self) -> Vec<LinkTruth> {
        self.links.clone()
    }

    /// Fraction of started unicast exchanges that were acknowledged.
    pub fn unicast_delivery_ratio(&self) -> Option<f64> {
        (self.unicast_started > 0).then(|| self.unicast_acked as f64 / self.unicast_started as f64)
    }

    /// Convenience: empirical PRR of `u → v`, if the link exists and
    /// carried traffic.
    pub fn link_prr(&self, topology: &Topology, u: NodeId, v: NodeId) -> Option<f64> {
        let id = topology.link_id(u, v)?;
        self.links[id].empirical_prr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::RadioModel;
    use crate::rng::RngHub;
    use crate::topology::Placement;

    fn topo() -> Topology {
        Topology::generate(
            Placement::Grid {
                side: 3,
                spacing: 10.0,
            },
            &RadioModel::default(),
            &RngHub::new(1),
        )
    }

    #[test]
    fn counters_accumulate() {
        let t = topo();
        let mut tr = Trace::for_topology(&t);
        tr.record_data_attempt(0, true, 40);
        tr.record_data_attempt(0, false, 40);
        tr.record_data_attempt(0, true, 40);
        tr.record_ack_attempt(0, true, 11);
        let l = tr.links()[0];
        assert_eq!(l.data_tx, 3);
        assert_eq!(l.data_rx, 2);
        assert_eq!(l.ack_tx, 1);
        assert_eq!(l.ack_rx, 1);
        assert_eq!(tr.bytes_on_air, 131);
        assert!((l.empirical_prr().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((l.empirical_loss().unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unused_link_has_no_empirical_prr() {
        let l = LinkTruth::default();
        assert_eq!(l.empirical_prr(), None);
        assert_eq!(l.empirical_loss(), None);
    }

    #[test]
    fn diff_gives_window_counts() {
        let t = topo();
        let mut tr = Trace::for_topology(&t);
        tr.record_data_attempt(1, true, 40);
        let snap = tr.snapshot_links();
        tr.record_data_attempt(1, true, 40);
        tr.record_data_attempt(1, false, 40);
        let window = tr.links()[1].diff(&snap[1]);
        assert_eq!(window.data_tx, 2);
        assert_eq!(window.data_rx, 1);
    }

    #[test]
    fn delivery_ratio() {
        let t = topo();
        let mut tr = Trace::for_topology(&t);
        assert_eq!(tr.unicast_delivery_ratio(), None);
        tr.unicast_started = 10;
        tr.unicast_acked = 9;
        tr.unicast_failed = 1;
        assert!((tr.unicast_delivery_ratio().unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn merge_mapped_folds_compact_shard_traces() {
        let t = topo();
        let mut full = Trace::for_topology(&t);
        full.record_data_attempt(5, true, 40);
        // A shard owning global links {2, 5} records under local ids.
        let mut shard = Trace::with_link_count(2);
        shard.record_data_attempt(0, true, 40); // global 2
        shard.record_data_attempt(1, false, 40); // global 5
        shard.record_ack_attempt(1, true, 11);
        shard.queue_drops = 3;
        full.merge_mapped(&shard, &[2, 5]);
        assert_eq!(full.links()[2].data_tx, 1);
        assert_eq!(full.links()[2].data_rx, 1);
        assert_eq!(full.links()[5].data_tx, 2);
        assert_eq!(full.links()[5].data_rx, 1);
        assert_eq!(full.links()[5].ack_rx, 1);
        assert_eq!(full.queue_drops, 3);
        assert_eq!(full.bytes_on_air, 40 + 40 + 40 + 11);
    }

    #[test]
    fn link_prr_lookup_via_topology() {
        let t = topo();
        let mut tr = Trace::for_topology(&t);
        let l = t.links()[3];
        tr.record_data_attempt(3, true, 40);
        assert_eq!(tr.link_prr(&t, l.src, l.dst), Some(1.0));
    }
}
