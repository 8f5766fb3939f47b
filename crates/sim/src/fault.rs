//! Deterministic fault injection.
//!
//! Real deployments misbehave in ways well-formed loss cannot express:
//! bits flip in transit, frames arrive truncated, nodes crash and reboot,
//! and control-plane floods (model dissemination) go missing. This module
//! provides a [`FaultPlan`] — a seeded, schedulable source of such faults
//! that protocol stacks consult at receive time — with two guarantees:
//!
//! * **Bit-reproducibility.** Every fault draw comes from a named
//!   [`StreamKind::Fault`] stream derived from the master seed, so a
//!   faulted run replays byte-identically, and an A/B pair (faulted vs
//!   fault-free) sees the identical channel realisation everywhere else.
//! * **Zero perturbation when absent.** A run without a plan performs no
//!   fault draws at all; the fault layer costs nothing and changes nothing
//!   unless explicitly configured.
//!
//! The plan is *mechanism*, not *policy*: it decides whether and how to
//! corrupt a serialized frame payload (bit flips biased toward header or
//! body, or truncation), which nodes are crash-prone and when their
//! up/down phases flip (consumers drive `Ctx::set_radio`), and whether a
//! model-dissemination flood misses or reaches a node late. What a
//! corrupted frame *means* is the consuming protocol's problem — the
//! whole point is exercising its structural checks and quarantine paths.

use crate::rng::{splitmix64, RngHub, StreamKind};
use crate::time::SimDuration;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Salt mixed into per-node crash-proneness draws.
const CRASH_PRONE_SALT: u64 = 0xC4A5_0001;
/// Salt mixed into per-node crash phase-length streams.
const CRASH_PHASE_SALT: u64 = 0xC4A5_0002;
/// Stream id family of the per-receiver frame-corruption streams (the
/// receiver node id is the stream index).
const FRAME_STREAM: u64 = 0xF7A3_E001;

/// Crash/reboot fault windows: a deterministic subset of nodes alternates
/// exponentially distributed up and down phases (radio off while down).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashFaultConfig {
    /// Fraction of non-sink nodes that are crash-prone (`0.0..=1.0`).
    pub node_fraction: f64,
    /// Mean uptime between crashes.
    pub mean_uptime: SimDuration,
    /// Mean outage duration per crash.
    pub mean_downtime: SimDuration,
}

/// Dissemination faults against the model-update control plane: each
/// epoch flood independently misses some nodes entirely and reaches
/// others late.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DisseminationFaultConfig {
    /// Per-node probability of missing an epoch flood entirely (the node
    /// never activates that epoch).
    pub drop_prob: f64,
    /// Mean extra propagation delay (exponential) added on top of the
    /// modelled flood schedule.
    pub mean_extra_delay: SimDuration,
}

/// Complete fault-injection configuration (serializable; rides inside run
/// specs and JSON scenarios).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Per delivered data-frame probability of corruption.
    pub frame_corrupt_prob: f64,
    /// Bit flips applied to each corrupted frame (when not truncated).
    pub flips_per_frame: u8,
    /// Given corruption, probability the frame is truncated instead of
    /// bit-flipped (cutting a random-length tail).
    pub truncate_prob: f64,
    /// Given a bit flip, probability it targets the fixed header region
    /// rather than the variable body.
    pub header_bias: f64,
    /// Optional node crash/reboot windows.
    pub crash: Option<CrashFaultConfig>,
    /// Optional model-dissemination faults.
    pub dissemination: Option<DisseminationFaultConfig>,
}

impl std::hash::Hash for CrashFaultConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.node_fraction.to_bits());
        state.write_u64(self.mean_uptime.as_micros());
        state.write_u64(self.mean_downtime.as_micros());
    }
}

impl std::hash::Hash for DisseminationFaultConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.drop_prob.to_bits());
        state.write_u64(self.mean_extra_delay.as_micros());
    }
}

impl std::hash::Hash for FaultConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.frame_corrupt_prob.to_bits());
        state.write_u8(self.flips_per_frame);
        state.write_u64(self.truncate_prob.to_bits());
        state.write_u64(self.header_bias.to_bits());
        hash_option(self.crash.as_ref(), state);
        hash_option(self.dissemination.as_ref(), state);
    }
}

/// Hashes an `Option` with an explicit presence tag (mirrors the derived
/// encoding, kept local so manual impls stay self-contained).
fn hash_option<T: std::hash::Hash, H: std::hash::Hasher>(v: Option<&T>, state: &mut H) {
    match v {
        None => state.write_u8(0),
        Some(inner) => {
            state.write_u8(1);
            inner.hash(state);
        }
    }
}

impl FaultConfig {
    /// A pure frame-corruption plan at the given per-frame probability:
    /// two bit flips per hit frame, 10% truncations, mild header bias.
    pub fn corruption(frame_corrupt_prob: f64) -> Self {
        Self {
            frame_corrupt_prob,
            flips_per_frame: 2,
            truncate_prob: 0.1,
            header_bias: 0.25,
            crash: None,
            dissemination: None,
        }
    }

    /// No faults at all — useful as a serde baseline.
    pub fn none() -> Self {
        Self {
            frame_corrupt_prob: 0.0,
            flips_per_frame: 0,
            truncate_prob: 0.0,
            header_bias: 0.0,
            crash: None,
            dissemination: None,
        }
    }
}

/// What [`FaultPlan::corrupt_frame`] did to a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Bits were flipped in place.
    BitFlips {
        /// Number of flips applied.
        flips: u8,
        /// Whether any flip landed in the fixed header region.
        header_hit: bool,
    },
    /// A tail of the frame was cut off.
    Truncated {
        /// Bytes removed.
        removed: usize,
    },
}

/// Cumulative injection counters (what the plan actually did).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultInjection {
    /// Frames corrupted (flipped or truncated).
    pub frames_corrupted: u64,
    /// Total bits flipped across all frames.
    pub bit_flips: u64,
    /// Frames truncated.
    pub truncations: u64,
    /// Frames with at least one flip in the fixed header region.
    pub header_hits: u64,
}

/// A seeded, schedulable fault source (see module docs).
///
/// Shared via `Arc` across protocol instances. Frame corruption draws
/// from a *per-receiver-node* stream (lazily seeded from the hub with the
/// node id as the stream index): each node's frame-receive order is
/// deterministic and shard-invariant — its deliveries pop in
/// `(time, key)` order inside its owning shard — so keying
/// draws by receiver keeps faulted runs byte-identical at every shard and
/// thread count. A single delivery-order stream would not survive shards
/// interleaving their windows.
pub struct FaultPlan {
    cfg: FaultConfig,
    hub: RngHub,
    frame_rngs: Mutex<std::collections::HashMap<u32, SmallRng>>,
    frames_corrupted: AtomicU64,
    bit_flips: AtomicU64,
    truncations: AtomicU64,
    header_hits: AtomicU64,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("cfg", &self.cfg)
            .field("injection", &self.injection())
            .finish()
    }
}

/// Exponential draw with the given mean, from a uniform `f64` in `[0,1)`.
fn exponential(mean: SimDuration, rng: &mut SmallRng) -> SimDuration {
    let u: f64 = rng.gen();
    // Clamp away from 1.0 so ln never sees zero.
    let span = -(1.0 - u.min(1.0 - 1e-12)).ln();
    SimDuration::from_micros((mean.as_micros() as f64 * span) as u64)
}

impl FaultPlan {
    /// Builds a plan from its configuration and the run's RNG hub.
    pub fn new(cfg: FaultConfig, hub: &RngHub) -> Self {
        Self {
            cfg,
            hub: *hub,
            frame_rngs: Mutex::new(std::collections::HashMap::new()),
            frames_corrupted: AtomicU64::new(0),
            bit_flips: AtomicU64::new(0),
            truncations: AtomicU64::new(0),
            header_hits: AtomicU64::new(0),
        }
    }

    /// The configuration this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Snapshot of everything injected so far.
    pub fn injection(&self) -> FaultInjection {
        FaultInjection {
            frames_corrupted: self.frames_corrupted.load(Ordering::Relaxed),
            bit_flips: self.bit_flips.load(Ordering::Relaxed),
            truncations: self.truncations.load(Ordering::Relaxed),
            header_hits: self.header_hits.load(Ordering::Relaxed),
        }
    }

    /// Decides whether to corrupt a serialized frame payload and applies
    /// the fault in place. `receiver` is the node receiving the frame and
    /// selects the RNG stream; `header_len` bounds the fixed header region
    /// the `header_bias` knob targets. Returns what was injected, or
    /// `None` when the frame passes untouched.
    ///
    /// Call this once per received frame, in the receiver's frame-arrival
    /// order — each receiver's draw sequence is part of the run's
    /// deterministic replay, and per-receiver ordering is exactly what the
    /// engine guarantees at every shard count.
    pub fn corrupt_frame(
        &self,
        receiver: u32,
        bytes: &mut Vec<u8>,
        header_len: usize,
    ) -> Option<InjectedFault> {
        if self.cfg.frame_corrupt_prob <= 0.0 || bytes.is_empty() {
            return None;
        }
        let mut streams = self.frame_rngs.lock();
        let rng = streams.entry(receiver).or_insert_with(|| {
            self.hub
                .stream(StreamKind::Fault, FRAME_STREAM, u64::from(receiver))
        });
        if rng.gen::<f64>() >= self.cfg.frame_corrupt_prob {
            return None;
        }
        self.frames_corrupted.fetch_add(1, Ordering::Relaxed);
        if rng.gen::<f64>() < self.cfg.truncate_prob {
            let removed = rng.gen_range(1..=bytes.len());
            bytes.truncate(bytes.len() - removed);
            self.truncations.fetch_add(1, Ordering::Relaxed);
            return Some(InjectedFault::Truncated { removed });
        }
        let flips = u8::try_from(usize::from(self.cfg.flips_per_frame.max(1)).min(bytes.len() * 8))
            .unwrap_or(u8::MAX);
        let header_len = header_len.min(bytes.len());
        let mut header_hit = false;
        // Distinct bit positions: two flips on the same bit cancel, and a
        // "corrupted" frame must genuinely differ so every injection has a
        // quarantinable effect downstream.
        let mut chosen: Vec<(usize, u8)> = Vec::with_capacity(usize::from(flips));
        for _ in 0..flips {
            let (idx, bit) = loop {
                let in_header = header_len > 0
                    && (header_len == bytes.len() || rng.gen::<f64>() < self.cfg.header_bias);
                let idx = if in_header {
                    rng.gen_range(0..header_len)
                } else {
                    rng.gen_range(header_len..bytes.len())
                };
                let bit = rng.gen_range(0..8u8);
                if !chosen.contains(&(idx, bit)) {
                    break (idx, bit);
                }
            };
            chosen.push((idx, bit));
            header_hit |= idx < header_len;
            bytes[idx] ^= 1u8 << bit;
        }
        self.bit_flips
            .fetch_add(u64::from(flips), Ordering::Relaxed);
        if header_hit {
            self.header_hits.fetch_add(1, Ordering::Relaxed);
        }
        Some(InjectedFault::BitFlips { flips, header_hit })
    }

    /// Whether node `node` is crash-prone under this plan. Deterministic
    /// in `(seed, node)`; the sink (node 0) is never crash-prone.
    pub fn crash_prone(&self, node: u32) -> bool {
        let Some(crash) = self.cfg.crash else {
            return false;
        };
        if node == 0 || crash.node_fraction <= 0.0 {
            return false;
        }
        let h = splitmix64(self.hub.derive_seed(
            StreamKind::Fault,
            CRASH_PRONE_SALT,
            u64::from(node),
        ));
        (h as f64 / u64::MAX as f64) < crash.node_fraction
    }

    /// The `k`-th (uptime, downtime) phase pair of node `node`'s crash
    /// schedule. Pure in `(seed, node, k)` — consumers walk `k` forward as
    /// phases elapse, so the schedule needs no stored state.
    ///
    /// Both durations are exponential around the configured means, with a
    /// one-tick floor so phases always advance simulated time.
    pub fn crash_phase(&self, node: u32, k: u32) -> (SimDuration, SimDuration) {
        let crash = self
            .cfg
            .crash
            .unwrap_or_else(|| panic!("crash_phase without crash config"));
        let seed = self.hub.derive_seed(
            StreamKind::Fault,
            CRASH_PHASE_SALT ^ u64::from(node),
            u64::from(k),
        );
        let mut rng = crate::rng::RngHub::new(seed).stream(StreamKind::Fault, 0, 0);
        let up = exponential(crash.mean_uptime, &mut rng).max(SimDuration::from_micros(1));
        let down = exponential(crash.mean_downtime, &mut rng).max(SimDuration::from_micros(1));
        (up, down)
    }

    /// Dissemination fate of `(node, epoch)`: `None` when the flood never
    /// reaches the node, `Some(extra)` with the extra delay to add
    /// otherwise (zero, without a draw, when the plan injects no
    /// dissemination faults). Pure in `(seed, node, epoch)`. A protocol's
    /// model dissemination asks it once per node and epoch flood.
    pub fn dissemination_fault(&self, node: u32, epoch: u64) -> Option<SimDuration> {
        let Some(f) = self.cfg.dissemination else {
            return Some(SimDuration::ZERO);
        };
        let mut rng = self
            .hub
            .stream(StreamKind::Fault, 0xD15F_0000 ^ u64::from(node), epoch);
        if rng.gen::<f64>() < f.drop_prob {
            return None;
        }
        Some(exponential(f.mean_extra_delay, &mut rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(cfg: FaultConfig) -> FaultPlan {
        FaultPlan::new(cfg, &RngHub::new(99))
    }

    #[test]
    fn zero_rate_never_corrupts() {
        let p = plan(FaultConfig::none());
        let mut bytes = vec![0u8; 32];
        for _ in 0..100 {
            assert_eq!(p.corrupt_frame(7, &mut bytes, 20), None);
        }
        assert_eq!(bytes, vec![0u8; 32]);
        assert_eq!(p.injection(), FaultInjection::default());
    }

    #[test]
    fn corruption_is_deterministic() {
        let run = || {
            let p = plan(FaultConfig::corruption(0.3));
            let mut mutations = Vec::new();
            for i in 0..200u8 {
                let mut bytes = vec![i; 24];
                let hit = p.corrupt_frame(7, &mut bytes, 20);
                mutations.push((hit.is_some(), bytes));
            }
            (mutations, p.injection())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn corruption_rate_and_counters_match() {
        let p = plan(FaultConfig::corruption(0.25));
        let (mut hits, n) = (0u64, 4000);
        for _ in 0..n {
            let mut bytes = vec![0xAAu8; 30];
            if p.corrupt_frame(7, &mut bytes, 20).is_some() {
                hits += 1;
                assert_ne!(bytes, vec![0xAAu8; 30], "a corrupted frame must change");
            }
        }
        let inj = p.injection();
        assert_eq!(inj.frames_corrupted, hits);
        let rate = hits as f64 / f64::from(n);
        assert!((0.2..0.3).contains(&rate), "rate {rate}");
        assert!(inj.truncations > 0, "some frames truncate at 10%");
        assert!(inj.bit_flips >= 2 * (hits - inj.truncations));
    }

    #[test]
    fn truncation_only_plan_always_shortens() {
        let cfg = FaultConfig {
            frame_corrupt_prob: 1.0,
            truncate_prob: 1.0,
            ..FaultConfig::corruption(1.0)
        };
        let p = plan(cfg);
        for _ in 0..50 {
            let mut bytes = vec![1u8; 25];
            match p.corrupt_frame(7, &mut bytes, 20) {
                Some(InjectedFault::Truncated { removed }) => {
                    assert_eq!(bytes.len(), 25 - removed);
                    assert!(removed >= 1);
                }
                other => panic!("expected truncation, got {other:?}"),
            }
        }
    }

    #[test]
    fn header_only_frames_flip_in_header() {
        let cfg = FaultConfig {
            truncate_prob: 0.0,
            header_bias: 0.0, // bias irrelevant: body is empty
            ..FaultConfig::corruption(1.0)
        };
        let p = plan(cfg);
        let mut bytes = vec![0u8; 20]; // fixed header only, no body
        let fault = p.corrupt_frame(7, &mut bytes, 20).expect("must corrupt");
        assert!(matches!(
            fault,
            InjectedFault::BitFlips {
                header_hit: true,
                ..
            }
        ));
        assert_ne!(bytes, vec![0u8; 20]);
    }

    #[test]
    fn crash_schedule_is_pure_and_plausible() {
        let cfg = FaultConfig {
            crash: Some(CrashFaultConfig {
                node_fraction: 0.5,
                mean_uptime: SimDuration::from_secs(300),
                mean_downtime: SimDuration::from_secs(60),
            }),
            ..FaultConfig::none()
        };
        let p = plan(cfg);
        let q = plan(cfg);
        assert!(!p.crash_prone(0), "sink never crashes");
        let prone: Vec<u32> = (1..200).filter(|&n| p.crash_prone(n)).collect();
        assert!(
            (60..140).contains(&prone.len()),
            "about half of 199 nodes: {}",
            prone.len()
        );
        let n = prone[0];
        assert_eq!(
            p.crash_phase(n, 0),
            q.crash_phase(n, 0),
            "pure in (seed,node,k)"
        );
        assert_ne!(p.crash_phase(n, 0), p.crash_phase(n, 1));
        // Mean sanity over many draws.
        let mean_up: f64 = (0..500)
            .map(|k| p.crash_phase(n, k).0.as_secs_f64())
            .sum::<f64>()
            / 500.0;
        assert!((150.0..450.0).contains(&mean_up), "mean uptime {mean_up}");
    }

    #[test]
    fn dissemination_faults_drop_and_delay() {
        let cfg = FaultConfig {
            dissemination: Some(DisseminationFaultConfig {
                drop_prob: 0.3,
                mean_extra_delay: SimDuration::from_secs(5),
            }),
            ..FaultConfig::none()
        };
        let p = plan(cfg);
        let fates: Vec<_> = (0..1000u32).map(|n| p.dissemination_fault(n, 1)).collect();
        let dropped = fates.iter().filter(|f| f.is_none()).count();
        assert!((200..400).contains(&dropped), "dropped {dropped}");
        assert!(fates.iter().flatten().any(|d| *d > SimDuration::ZERO));
        // Pure per (node, epoch); different epochs re-roll.
        assert_eq!(p.dissemination_fault(7, 3), p.dissemination_fault(7, 3));
        // Without dissemination config: always reached, zero extra.
        let bare = plan(FaultConfig::none());
        assert_eq!(bare.dissemination_fault(7, 3), Some(SimDuration::ZERO));
    }

    #[test]
    fn config_serde_round_trips() {
        let cfg = FaultConfig {
            crash: Some(CrashFaultConfig {
                node_fraction: 0.1,
                mean_uptime: SimDuration::from_secs(600),
                mean_downtime: SimDuration::from_secs(30),
            }),
            dissemination: Some(DisseminationFaultConfig {
                drop_prob: 0.05,
                mean_extra_delay: SimDuration::from_secs(2),
            }),
            ..FaultConfig::corruption(0.01)
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: FaultConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
