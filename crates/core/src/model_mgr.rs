//! Epoch-versioned probability models and their dissemination
//! (the paper's Optimization 2).
//!
//! The sink continuously accumulates the empirical distribution of hop-index
//! and retransmission-count symbols. Periodically it freezes the counts into
//! a new [`ModelSet`] (quantized exactly as the wire blob the nodes would
//! receive, so both sides code against identical tables), bumps the epoch,
//! and *disseminates* it. Dissemination costs radio bytes — charged against
//! Dophy's total overhead — and reaches each node after a per-node delay,
//! so freshly switched packets and stale nodes coexist; the epoch byte in
//! every packet header tells the sink which models to decode with.

use crate::header::Epoch;
use crate::symbols::SymbolSpaces;
use dophy_coding::model::{AdaptiveModel, StaticModel};
use dophy_coding::serialize::ModelBlob;
use dophy_sim::{FaultPlan, RngHub, SimDuration, SimTime, StreamKind};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One epoch's coding tables (shared verbatim by nodes and sink).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSet {
    /// Wire epoch id (low 8 bits of the internal epoch counter).
    pub epoch: Epoch,
    /// Next-hop-index context.
    pub hop: StaticModel,
    /// Retransmission-count context.
    pub attempt: StaticModel,
}

impl ModelSet {
    /// The epoch-0 prior every deployment starts from: both contexts get
    /// geometric-shaped priors (traffic favours the best neighbor; first
    /// attempts usually succeed). No dissemination is needed for epoch 0 —
    /// it is compiled into the firmware.
    pub fn initial(spaces: &SymbolSpaces) -> Self {
        Self {
            epoch: 0,
            hop: StaticModel::truncated_geometric(spaces.hop_alphabet(), 0.5),
            attempt: StaticModel::truncated_geometric(spaces.attempt_alphabet(), 0.7),
        }
    }

    /// Dissemination blob size for this set: epoch byte + both model blobs.
    pub fn wire_size(&self) -> usize {
        1 + ModelBlob::encode(&self.hop).wire_size() + ModelBlob::encode(&self.attempt).wire_size()
    }
}

/// Tuning for the update/dissemination machinery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelUpdateConfig {
    /// How often the sink considers refreshing the model.
    pub update_period: SimDuration,
    /// Minimum new observations since the last refresh before another one
    /// is worthwhile.
    pub min_observations: u64,
    /// Number of past epochs the sink keeps for decoding stale packets.
    pub history_len: usize,
    /// Mean radio transmissions each node spends receiving/forwarding one
    /// dissemination flood (multiplies the blob size into network bytes).
    pub flood_cost_factor: f64,
    /// Upper bound on the per-node dissemination delay.
    pub max_propagation_delay: SimDuration,
    /// Minimum per-symbol redundancy (KL divergence of the learned
    /// distribution from the currently deployed model, in bits) before a
    /// refresh is worth its dissemination cost. Zero = always refresh when
    /// enough observations arrived.
    pub min_kl_bits: f64,
}

impl std::hash::Hash for ModelUpdateConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.update_period.as_micros());
        state.write_u64(self.min_observations);
        state.write_usize(self.history_len);
        state.write_u64(self.flood_cost_factor.to_bits());
        state.write_u64(self.max_propagation_delay.as_micros());
        state.write_u64(self.min_kl_bits.to_bits());
    }
}

impl Default for ModelUpdateConfig {
    fn default() -> Self {
        Self {
            update_period: SimDuration::from_secs(120),
            min_observations: 200,
            history_len: 8,
            flood_cost_factor: 1.3,
            max_propagation_delay: SimDuration::from_secs(10),
            min_kl_bits: 0.0,
        }
    }
}

/// Sink-side model state: learning, epoch history, and per-node
/// dissemination schedules. Each flood reaches node `n` after a delay
/// drawn from `n`'s own stream; a fault plan handed over with
/// [`ModelManager::set_fault_plan`] may drop it there or add to that
/// delay.
#[derive(Debug, Clone)]
pub struct ModelManager {
    spaces: SymbolSpaces,
    cfg: ModelUpdateConfig,
    node_count: usize,
    /// Full epoch history, index = internal epoch number.
    history: Vec<ModelSet>,
    /// Learning accumulators (reset never; rescaling forgets slowly).
    hop_learn: AdaptiveModel,
    attempt_learn: AdaptiveModel,
    observations_since_refresh: u64,
    /// `activation[n]` = times at which node `n` switches to each epoch
    /// (index parallel to `history`; epoch 0 activates at time zero).
    activation: Vec<Vec<SimTime>>,
    /// Hop distance of each node from the sink: dissemination floods
    /// outward, so closer nodes activate new epochs earlier.
    depth: Vec<usize>,
    /// Total bytes charged to dissemination so far.
    pub dissemination_bytes: u64,
    /// Number of refreshes performed.
    pub refreshes: u64,
    /// The run's fault plan, which decides each node's dissemination
    /// fate (drop or extra delay) when it injects dissemination faults.
    fault_plan: Option<Arc<FaultPlan>>,
    /// Node/epoch floods suppressed by injected dissemination faults.
    pub dissemination_drops: u64,
}

impl ModelManager {
    /// Creates the manager; all nodes start on the built-in epoch 0.
    ///
    /// `depths[n]` is node `n`'s hop distance from the sink (use
    /// `Topology::hops_to_sink`); dissemination floods outward from the
    /// sink, so per-node activation delays grow with depth — an origin
    /// adopting a new epoch implies the (closer) nodes on its path already
    /// hold it, which is what keeps in-flight packets decodable.
    pub fn new(spaces: SymbolSpaces, cfg: ModelUpdateConfig, depths: Vec<usize>) -> Self {
        let node_count = depths.len();
        // Disconnected nodes (usize::MAX) never originate traffic; give
        // them the maximum finite depth for delay purposes.
        let max_finite = depths
            .iter()
            .copied()
            .filter(|&d| d != usize::MAX)
            .max()
            .unwrap_or(0);
        let depth: Vec<usize> = depths
            .into_iter()
            .map(|d| if d == usize::MAX { max_finite } else { d })
            .collect();
        let initial = ModelSet::initial(&spaces);
        Self {
            hop_learn: AdaptiveModel::new(spaces.hop_alphabet()),
            attempt_learn: AdaptiveModel::new(spaces.attempt_alphabet()),
            spaces,
            cfg,
            node_count,
            history: vec![initial],
            observations_since_refresh: 0,
            activation: vec![vec![SimTime::ZERO]; node_count],
            depth,
            dissemination_bytes: 0,
            refreshes: 0,
            fault_plan: None,
            dissemination_drops: 0,
        }
    }

    /// Hands the manager the run's fault plan. When the plan injects
    /// dissemination faults, each future epoch flood independently misses
    /// some nodes (they never activate that epoch) and reaches others late,
    /// as [`FaultPlan::dissemination_fault`] decides. The plan draws from
    /// its own streams, so the unfaulted dissemination schedule is
    /// untouched.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.fault_plan = Some(plan);
    }

    /// The alphabet configuration.
    pub fn spaces(&self) -> &SymbolSpaces {
        &self.spaces
    }

    /// The update configuration.
    pub fn config(&self) -> &ModelUpdateConfig {
        &self.cfg
    }

    /// Latest epoch's models.
    pub fn latest(&self) -> &ModelSet {
        self.history.last().expect("epoch 0 always present")
    }

    /// Feeds one decoded hop record into the learners.
    pub fn observe(&mut self, hop_sym: usize, attempt_sym: usize) {
        self.hop_learn.observe(hop_sym);
        self.attempt_learn.observe(attempt_sym);
        self.observations_since_refresh += 1;
    }

    /// The models node `n` is running at time `now` (the newest epoch whose
    /// dissemination reached it).
    pub fn node_current(&self, node: usize, now: SimTime) -> &ModelSet {
        let acts = &self.activation[node];
        let mut best = 0usize;
        for (epoch, &t) in acts.iter().enumerate() {
            if t <= now {
                best = epoch;
            }
        }
        &self.history[best]
    }

    /// Models node `node` holds for wire-epoch `epoch` at time `now` — i.e.
    /// the newest issued epoch with that wire id whose dissemination has
    /// reached the node. Forwarders use this to encode with the *packet's*
    /// epoch; `None` (not yet received / overwritten wire id) disables
    /// coding for the packet.
    pub fn node_models_for_epoch(
        &self,
        node: usize,
        epoch: Epoch,
        now: SimTime,
    ) -> Option<&ModelSet> {
        let acts = &self.activation[node];
        self.history
            .iter()
            .enumerate()
            .rev()
            .find(|(i, m)| acts[*i] <= now && m.epoch == epoch)
            .map(|(_, m)| m)
    }

    /// Models for decoding a packet stamped with wire-epoch `epoch`.
    /// Returns `None` when the epoch has aged out of the sink's history
    /// window (or was never issued) — such packets are skipped.
    pub fn models_for_epoch(&self, epoch: Epoch) -> Option<&ModelSet> {
        let newest = self.history.len() - 1;
        let oldest_kept = newest.saturating_sub(self.cfg.history_len.saturating_sub(1));
        self.history[oldest_kept..=newest]
            .iter()
            .rev()
            .find(|m| m.epoch == epoch)
    }

    /// Second-choice models for wire-epoch `epoch`, used to retry a decode
    /// that failed with the primary [`Self::models_for_epoch`] choice.
    ///
    /// Two situations make the primary choice wrong: the wire epoch byte
    /// wraps (two live epochs share an id — the newest match wins, but the
    /// packet may predate it), or a node whose dissemination stalled keeps
    /// encoding with the epoch *before* the one the sink would pick. The
    /// fallback is therefore the next-older in-window epoch: an alias with
    /// the same wire id when one exists, else the set issued immediately
    /// before the primary match. `None` when no distinct in-window
    /// candidate exists. A wrong fallback is safe to try — decoding with
    /// mismatched tables almost surely fails the path-consistency check
    /// rather than producing a silent wrong decode.
    pub fn fallback_models_for_epoch(&self, epoch: Epoch) -> Option<&ModelSet> {
        let newest = self.history.len() - 1;
        let oldest_kept = newest.saturating_sub(self.cfg.history_len.saturating_sub(1));
        let window = &self.history[oldest_kept..=newest];
        let primary = window.iter().rposition(|m| m.epoch == epoch)?;
        // Prefer an older alias of the same wire id, else the predecessor.
        window[..primary]
            .iter()
            .rev()
            .find(|m| m.epoch == epoch)
            .or_else(|| primary.checked_sub(1).map(|i| &window[i]))
    }

    /// Attempts a refresh: freezes the learned counts into a new epoch and
    /// schedules its dissemination. Returns the blob size charged, or
    /// `None` when too little new data arrived.
    ///
    /// `now` is the refresh time; per-node propagation delays are drawn
    /// deterministically from `hub`.
    pub fn refresh(&mut self, now: SimTime, hub: &RngHub) -> Option<usize> {
        if self.observations_since_refresh < self.cfg.min_observations {
            return None;
        }
        // Cost-aware gating: skip the flood when the deployed model is
        // still close to the learned distribution (low per-symbol
        // redundancy means little to gain).
        if self.cfg.min_kl_bits > 0.0 && self.pending_redundancy_bits() < self.cfg.min_kl_bits {
            self.observations_since_refresh = 0;
            return None;
        }
        self.observations_since_refresh = 0;
        let internal_epoch = self.history.len();
        // Quantize through the wire format so sink and nodes use the
        // identical tables.
        let (_, hop) = ModelBlob::canonical(&self.hop_learn.snapshot());
        let (_, attempt) = ModelBlob::canonical(&self.attempt_learn.snapshot());
        let set = ModelSet {
            epoch: (internal_epoch & 0xFF) as Epoch,
            hop,
            attempt,
        };
        let blob_bytes = set.wire_size();
        let network_bytes =
            (blob_bytes as f64 * self.node_count as f64 * self.cfg.flood_cost_factor) as u64;
        self.dissemination_bytes += network_bytes;
        self.refreshes += 1;
        self.history.push(set);
        // Flood outward: a node at depth d activates after roughly
        // d/(max_depth+1) of the propagation budget, plus one hop of jitter.
        let max_us = self.cfg.max_propagation_delay.as_micros().max(1);
        let max_depth = self.depth.iter().copied().max().unwrap_or(0);
        let per_hop = (max_us / (max_depth as u64 + 1)).max(1);
        for (n, acts) in self.activation.iter_mut().enumerate() {
            let mut rng = hub.stream(
                StreamKind::Protocol,
                0xD155_EE00 + n as u64,
                internal_epoch as u64,
            );
            let base = per_hop * self.depth[n] as u64;
            let delay = SimDuration::from_micros(base + rng.gen_range(0..per_hop));
            let fate = match &self.fault_plan {
                Some(plan) => plan.dissemination_fault(n as u32, internal_epoch as u64),
                None => Some(SimDuration::ZERO),
            };
            match fate {
                Some(extra) => acts.push(now + (delay + extra)),
                None => {
                    // The flood never reaches this node: park the
                    // activation unreachably far in the future.
                    self.dissemination_drops += 1;
                    acts.push(SimTime::from_micros(u64::MAX));
                }
            }
        }
        // The sink itself flips instantly.
        self.activation[0][internal_epoch] = now;
        Some(blob_bytes)
    }

    /// Number of epochs issued so far (including the built-in epoch 0).
    pub fn epoch_count(&self) -> usize {
        self.history.len()
    }

    /// Per-symbol redundancy (bits) of coding the learned distribution
    /// with the currently deployed models: the sum of KL divergences of
    /// both contexts. This is what a refresh would save per hop record.
    pub fn pending_redundancy_bits(&self) -> f64 {
        use dophy_coding::entropy::kl_divergence_bits;
        let cur = self.latest();
        let hop_truth: Vec<f64> = self
            .hop_learn
            .snapshot()
            .frequencies()
            .iter()
            .map(|&f| f64::from(f))
            .collect();
        let att_truth: Vec<f64> = self
            .attempt_learn
            .snapshot()
            .frequencies()
            .iter()
            .map(|&f| f64::from(f))
            .collect();
        kl_divergence_bits(&hop_truth, &cur.hop) + kl_divergence_bits(&att_truth, &cur.attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dophy_coding::aggregate::AggregationPolicy;
    use dophy_coding::model::SymbolModel;
    use dophy_sim::{DisseminationFaultConfig, FaultConfig};

    fn spaces() -> SymbolSpaces {
        SymbolSpaces::new(8, 7, AggregationPolicy::Cap { cap: 4 }, false)
    }

    fn mgr() -> ModelManager {
        ModelManager::new(
            spaces(),
            ModelUpdateConfig::default(),
            vec![0, 1, 1, 2, 2, 2, 3, 3, 3, 3],
        )
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_micros(s * 1_000_000)
    }

    #[test]
    fn initial_epoch_is_zero_everywhere() {
        let m = mgr();
        assert_eq!(m.latest().epoch, 0);
        assert_eq!(m.epoch_count(), 1);
        for n in 0..10 {
            assert_eq!(m.node_current(n, SimTime::ZERO).epoch, 0);
        }
        assert_eq!(m.models_for_epoch(0).unwrap().epoch, 0);
        assert!(m.models_for_epoch(3).is_none());
    }

    #[test]
    fn refresh_requires_observations() {
        let mut m = mgr();
        let hub = RngHub::new(1);
        assert_eq!(m.refresh(t(100), &hub), None, "no data yet");
        for _ in 0..ModelUpdateConfig::default().min_observations {
            m.observe(0, 0);
        }
        let bytes = m.refresh(t(100), &hub).expect("enough data");
        assert!(bytes > 2, "blob carries two models");
        assert_eq!(m.epoch_count(), 2);
        assert_eq!(m.latest().epoch, 1);
        assert!(m.dissemination_bytes > bytes as u64, "flood cost > blob");
        // Counter reset: immediate second refresh refuses.
        assert_eq!(m.refresh(t(200), &hub), None);
    }

    #[test]
    fn learned_skew_shows_in_new_epoch() {
        let mut m = mgr();
        let hub = RngHub::new(2);
        // Heavily skewed: hop index 0 and attempt symbol 0 dominate.
        for i in 0..2000 {
            m.observe(usize::from(i % 50 == 0), usize::from(i % 25 == 0));
        }
        m.refresh(t(10), &hub).unwrap();
        let set = m.latest();
        assert!(set.hop.probability(0) > 0.9, "hop skew learned");
        assert!(set.attempt.probability(1) < 0.1);
    }

    #[test]
    fn nodes_activate_with_bounded_delay() {
        let mut m = mgr();
        let hub = RngHub::new(3);
        for _ in 0..500 {
            m.observe(0, 0);
        }
        m.refresh(t(1000), &hub).unwrap();
        // Sink flips instantly.
        assert_eq!(m.node_current(0, t(1000)).epoch, 1);
        // All nodes on the new epoch after the max delay.
        let horizon = t(1000) + ModelUpdateConfig::default().max_propagation_delay;
        for n in 0..10 {
            assert_eq!(m.node_current(n, horizon).epoch, 1, "node {n}");
        }
        // Before the refresh, everyone was on epoch 0.
        for n in 0..10 {
            assert_eq!(m.node_current(n, t(999)).epoch, 0, "node {n}");
        }
    }

    #[test]
    fn history_window_evicts_old_epochs() {
        let cfg = ModelUpdateConfig {
            history_len: 2,
            min_observations: 1,
            ..ModelUpdateConfig::default()
        };
        let mut m = ModelManager::new(spaces(), cfg, vec![0, 1, 2, 3]);
        let hub = RngHub::new(4);
        for round in 1..=4u64 {
            m.observe(0, 0);
            m.refresh(t(round * 100), &hub).unwrap();
        }
        // Epochs 0..=4 exist; window of 2 keeps {3, 4}.
        assert!(m.models_for_epoch(4).is_some());
        assert!(m.models_for_epoch(3).is_some());
        assert!(m.models_for_epoch(2).is_none());
        assert!(m.models_for_epoch(0).is_none());
    }

    #[test]
    fn dissemination_is_deterministic() {
        let build = || {
            let mut m = mgr();
            let hub = RngHub::new(5);
            for _ in 0..500 {
                m.observe(1, 2);
            }
            m.refresh(t(50), &hub).unwrap();
            (0..10)
                .map(|n| m.node_current(n, t(55)).epoch)
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn kl_gate_skips_pointless_refreshes() {
        let cfg = ModelUpdateConfig {
            min_observations: 1,
            min_kl_bits: 0.05,
            ..ModelUpdateConfig::default()
        };
        let hub = RngHub::new(6);
        let mut m = ModelManager::new(spaces(), cfg, vec![0, 1, 1, 2]);
        // Feed observations that roughly match the epoch-0 prior shape
        // (skewed toward symbol 0): redundancy stays low → no refresh.
        for i in 0..1000u32 {
            let hop = usize::from(i % 3 == 1) + usize::from(i % 9 == 2);
            let att = usize::from(i % 4 == 1);
            m.observe(hop.min(7), att);
        }
        let kl_matched = m.pending_redundancy_bits();
        if kl_matched < 0.05 {
            assert_eq!(
                m.refresh(t(100), &hub),
                None,
                "low KL must skip (kl={kl_matched})"
            );
            assert_eq!(m.refreshes, 0);
        }
        // Now feed a wildly different distribution: refresh goes through.
        for _ in 0..5000 {
            m.observe(7, 3);
        }
        assert!(m.pending_redundancy_bits() > 0.05);
        assert!(m.refresh(t(200), &hub).is_some());
        assert_eq!(m.refreshes, 1);
    }

    #[test]
    fn redundancy_is_zero_right_after_refresh() {
        let cfg = ModelUpdateConfig {
            min_observations: 1,
            ..ModelUpdateConfig::default()
        };
        let hub = RngHub::new(7);
        let mut m = ModelManager::new(spaces(), cfg, vec![0, 1]);
        for i in 0..3000usize {
            m.observe(i % 2, (i / 2) % 3);
        }
        let before = m.pending_redundancy_bits();
        m.refresh(t(10), &hub).unwrap();
        let after = m.pending_redundancy_bits();
        assert!(
            after < before / 5.0 && after < 0.02,
            "refresh should collapse redundancy: {before} -> {after}"
        );
    }

    #[test]
    fn fallback_prefers_predecessor_epoch() {
        let cfg = ModelUpdateConfig {
            min_observations: 1,
            ..ModelUpdateConfig::default()
        };
        let mut m = ModelManager::new(spaces(), cfg, vec![0, 1, 2, 3]);
        let hub = RngHub::new(11);
        assert!(m.fallback_models_for_epoch(0).is_none(), "epoch 0 alone");
        for round in 1..=3u64 {
            m.observe(0, 0);
            m.refresh(t(round * 100), &hub).unwrap();
        }
        // History: epochs 0..=3. Fallback for wire-epoch 2 is epoch 1.
        assert_eq!(m.fallback_models_for_epoch(2).unwrap().epoch, 1);
        assert_eq!(m.fallback_models_for_epoch(1).unwrap().epoch, 0);
        assert!(m.fallback_models_for_epoch(9).is_none(), "never issued");
    }

    #[test]
    fn fallback_resolves_wire_epoch_aliases() {
        // Wire epochs wrap at 256; with a large history window two epochs
        // can share an id. Issue 257 epochs so internal 1 and 257 both
        // carry wire id 1, keep a window large enough to hold both, and
        // check the fallback picks the older alias.
        let cfg = ModelUpdateConfig {
            min_observations: 1,
            history_len: 400,
            ..ModelUpdateConfig::default()
        };
        let mut m = ModelManager::new(spaces(), cfg, vec![0, 1]);
        let hub = RngHub::new(12);
        for round in 1..=257u64 {
            m.observe((round % 3) as usize, 0);
            m.refresh(t(round * 10), &hub).unwrap();
        }
        let primary = m.models_for_epoch(1).unwrap();
        let fallback = m.fallback_models_for_epoch(1).unwrap();
        assert_eq!(primary.epoch, 1);
        assert_eq!(fallback.epoch, 1);
        assert!(
            !std::ptr::eq(primary, fallback),
            "fallback must be the *older* alias, not the primary"
        );
    }

    #[test]
    fn dissemination_faults_drop_and_delay_nodes() {
        let cfg = ModelUpdateConfig {
            min_observations: 1,
            ..ModelUpdateConfig::default()
        };
        let build = |faulted: bool| {
            let mut m = ModelManager::new(spaces(), cfg, (0..50).map(|n| n / 10).collect());
            let hub = RngHub::new(13);
            if faulted {
                let faults = FaultConfig {
                    dissemination: Some(DisseminationFaultConfig {
                        drop_prob: 0.3,
                        mean_extra_delay: SimDuration::from_secs(5),
                    }),
                    ..FaultConfig::none()
                };
                m.set_fault_plan(Arc::new(FaultPlan::new(faults, &hub)));
            }
            m.observe(0, 0);
            m.refresh(t(1000), &hub).unwrap();
            m
        };
        let clean = build(false);
        let faulted = build(true);
        assert_eq!(clean.dissemination_drops, 0);
        assert!(
            (5..25).contains(&faulted.dissemination_drops),
            "about 30% of 50 nodes dropped: {}",
            faulted.dissemination_drops
        );
        // Dropped nodes never activate epoch 1, even far in the future.
        let far = t(1_000_000);
        let stuck = (0..50)
            .filter(|&n| faulted.node_current(n, far).epoch == 0)
            .count() as u64;
        assert_eq!(stuck, faulted.dissemination_drops);
        // Sink always flips instantly, faults or not.
        assert_eq!(faulted.node_current(0, t(1000)).epoch, 1);
        // Determinism: same seed, same faulted schedule.
        let again = build(true);
        assert_eq!(again.dissemination_drops, faulted.dissemination_drops);
        for n in 0..50 {
            assert_eq!(
                again.node_current(n, t(1010)).epoch,
                faulted.node_current(n, t(1010)).epoch
            );
        }
    }

    #[test]
    fn initial_models_are_skewed_priors() {
        let set = ModelSet::initial(&spaces());
        assert!(set.hop.probability(0) > set.hop.probability(1));
        assert!(set.attempt.probability(0) > set.attempt.probability(1));
        assert_eq!(set.hop.num_symbols(), 8);
        assert_eq!(set.attempt.num_symbols(), 4);
    }
}
