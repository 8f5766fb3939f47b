//! Sink-side decoding: recover the path and per-link retransmission counts.
//!
//! Decoding walks the path *forward* from the plaintext origin: the first
//! encoded symbol is the hop-1 receiver's index in the origin's candidate
//! table, which identifies that receiver; its attempt symbol gives the
//! origin→receiver loss observation; and so on. After `header.hops` records
//! the walk must land exactly on the node that delivered the frame to the
//! sink (`final_sender`) — a built-in consistency check that catches model
//! desynchronisation, since a stream decoded with the wrong tables produces
//! a random walk that almost surely violates it. The final link
//! (`final_sender → sink`) is observed directly by the sink from the MAC
//! attempt counter and appended without decoding.

use crate::header::DophyHeader;
use crate::model_mgr::ModelSet;
use crate::symbols::SymbolSpaces;
use dophy_coding::aggregate::AttemptObservation;
use dophy_coding::model::SymbolModel;
use dophy_coding::range::{RangeCodingError, RangeDecoder, RangeEncoder};
use dophy_sim::obs::DecodeOutcome;
use dophy_sim::{NodeId, Topology};

/// One recovered hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkObservation {
    /// Transmitting node of this hop.
    pub sender: NodeId,
    /// Receiving node of this hop.
    pub receiver: NodeId,
    /// What the sink learned about the attempt count.
    pub observation: AttemptObservation,
    /// Coder symbol of the hop index (for model learning); `None` for the
    /// final, directly observed hop.
    pub hop_sym: Option<usize>,
    /// Coder symbol of the attempt count; `None` for the final hop.
    pub attempt_sym: Option<usize>,
}

/// A fully decoded packet record.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedPacket {
    /// Origin node.
    pub origin: NodeId,
    /// Origin sequence number.
    pub seq: u32,
    /// Hop observations in path order, including the final direct one.
    pub observations: Vec<LinkObservation>,
}

impl DecodedPacket {
    /// The recovered path as a node sequence `origin, ..., sink`.
    pub fn path(&self) -> Vec<NodeId> {
        let mut p = vec![self.origin];
        p.extend(self.observations.iter().map(|o| o.receiver));
        p
    }
}

/// Decoding failures (all detectable, counted by the sink).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Decoded hop index exceeds the sender's candidate-table size —
    /// the classic signature of decoding with the wrong model epoch.
    IndexOutOfRange {
        /// Node whose table was consulted.
        sender: NodeId,
        /// Decoded (invalid) index.
        index: usize,
    },
    /// The decoded walk did not end at the node that physically delivered
    /// the packet.
    PathMismatch {
        /// Where the decoded walk ended.
        decoded_last: NodeId,
        /// Who actually handed the packet to the sink.
        actual_last: NodeId,
    },
    /// Range-coder failure (truncated stream).
    Coding(RangeCodingError),
    /// A hop disabled coding en route (missing epoch models at a node).
    CodingDisabled,
    /// The claimed hop count cannot occur in this topology — a loop-free
    /// path visits each node at most once, so `hops` must stay below the
    /// node count. Catching this up front avoids burning up to 255 model
    /// decodes on a corrupted header and misreporting it as
    /// [`DecodeError::PathMismatch`].
    HopCountOutOfRange {
        /// Hop count the header claimed.
        hops: u8,
        /// Nodes in the topology.
        node_count: usize,
    },
    /// The plaintext origin does not name a node in this topology —
    /// decoding would walk off the neighbor tables.
    OriginOutOfRange {
        /// Origin id the header claimed.
        origin: NodeId,
        /// Nodes in the topology.
        node_count: usize,
    },
}

impl From<RangeCodingError> for DecodeError {
    fn from(e: RangeCodingError) -> Self {
        Self::Coding(e)
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::IndexOutOfRange { sender, index } => {
                write!(f, "decoded index {index} out of range for {sender}'s table")
            }
            Self::PathMismatch {
                decoded_last,
                actual_last,
            } => write!(
                f,
                "decoded path ends at {decoded_last}, packet arrived from {actual_last}"
            ),
            Self::Coding(e) => write!(f, "range coding failed: {e}"),
            Self::CodingDisabled => write!(f, "coding was disabled en route"),
            Self::HopCountOutOfRange { hops, node_count } => {
                write!(f, "claimed {hops} hops in a {node_count}-node topology")
            }
            Self::OriginOutOfRange { origin, node_count } => {
                write!(
                    f,
                    "origin {origin} out of range in a {node_count}-node topology"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// The quarantine class the sink counts and reports for each failure.
impl From<DecodeError> for DecodeOutcome {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::IndexOutOfRange { .. } => Self::BadIndex,
            DecodeError::PathMismatch { .. } => Self::PathMismatch,
            DecodeError::Coding(_) => Self::Coding,
            DecodeError::CodingDisabled => Self::Disabled,
            DecodeError::HopCountOutOfRange { .. } => Self::BadHopCount,
            DecodeError::OriginOutOfRange { .. } => Self::Malformed,
        }
    }
}

/// Decodes a delivered packet.
///
/// * `final_sender` / `final_attempt` — the MAC-observed last hop.
pub fn decode_packet(
    header: &DophyHeader,
    topo: &Topology,
    spaces: &SymbolSpaces,
    models: &ModelSet,
    final_sender: NodeId,
    final_attempt: u16,
) -> Result<DecodedPacket, DecodeError> {
    // Structural integrity precedes semantic flags: a loop-free path has
    // at most `node_count - 1` encoded hops (the origin plus each receiver
    // are distinct nodes), so larger claims are corruption, not routing.
    if usize::from(header.hops) >= topo.node_count() {
        return Err(DecodeError::HopCountOutOfRange {
            hops: header.hops,
            node_count: topo.node_count(),
        });
    }
    if header.origin.index() >= topo.node_count() {
        return Err(DecodeError::OriginOutOfRange {
            origin: header.origin,
            node_count: topo.node_count(),
        });
    }
    if header.coding_disabled {
        return Err(DecodeError::CodingDisabled);
    }
    // Flush the suspended stream into a complete, decodable buffer.
    let full = RangeEncoder::resume(header.coder_state, header.stream.clone()).finish()?;
    let mut dec = RangeDecoder::new(&full)?;

    let mut observations = Vec::with_capacity(usize::from(header.hops) + 1);
    let mut cur = header.origin;
    for _ in 0..header.hops {
        // Context 1: hop index in `cur`'s candidate table.
        let target = dec.decode_target(models.hop.total())?;
        let (hop_sym, cum, freq) = models.hop.symbol_for(target);
        dec.decode_advance(cum, freq)?;
        let table = topo.neighbors(cur);
        if hop_sym >= table.len() {
            return Err(DecodeError::IndexOutOfRange {
                sender: cur,
                index: hop_sym,
            });
        }
        let receiver = table[hop_sym];

        // Context 2: attempt symbol.
        let target = dec.decode_target(models.attempt.total())?;
        let (attempt_sym, cum, freq) = models.attempt.symbol_for(target);
        dec.decode_advance(cum, freq)?;

        // Context 3: optional refinement.
        let observation = if spaces.refine() {
            let n = spaces.mapper().refine_cardinality(attempt_sym);
            let residual = if n > 1 { dec.decode_uniform(n)? } else { 0 };
            AttemptObservation::Exact(spaces.mapper().join(attempt_sym, residual))
        } else {
            spaces.mapper().observation_of(attempt_sym)
        };

        observations.push(LinkObservation {
            sender: cur,
            receiver,
            observation,
            hop_sym: Some(hop_sym),
            attempt_sym: Some(attempt_sym),
        });
        cur = receiver;
    }

    if cur != final_sender {
        return Err(DecodeError::PathMismatch {
            decoded_last: cur,
            actual_last: final_sender,
        });
    }

    // The final hop is observed directly at the sink.
    observations.push(LinkObservation {
        sender: final_sender,
        receiver: NodeId::SINK,
        observation: AttemptObservation::Exact(final_attempt),
        hop_sym: None,
        attempt_sym: None,
    });

    Ok(DecodedPacket {
        origin: header.origin,
        seq: header.seq,
        observations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::encode_hop;
    use dophy_coding::aggregate::AggregationPolicy;
    use dophy_sim::{Placement, RadioModel, RngHub};

    fn topo() -> Topology {
        Topology::generate(
            Placement::Grid {
                side: 4,
                spacing: 12.0,
            },
            &RadioModel::default(),
            &RngHub::new(8),
        )
    }

    fn spaces(topo: &Topology, policy: AggregationPolicy, refine: bool) -> SymbolSpaces {
        let max_degree = (0..topo.node_count())
            .map(|i| topo.neighbors(NodeId::from_index(i)).len())
            .max()
            .unwrap();
        SymbolSpaces::new(max_degree, 7, policy, refine)
    }

    /// Builds a multi-hop chain toward the sink using best neighbors, then
    /// encodes it and decodes it back.
    fn round_trip(policy: AggregationPolicy, refine: bool, attempts: &[u16]) {
        let t = topo();
        let s = spaces(&t, policy, refine);
        let models = ModelSet::initial(&s);

        // Construct a path: start at the far corner, greedily step to any
        // neighbor closer to the sink (by index distance), `attempts.len()`
        // hops. For the test we only need *valid* sender→receiver pairs.
        let mut path = vec![NodeId(15)];
        while path.len() <= attempts.len() {
            let cur = *path.last().unwrap();
            let next = t.neighbors(cur)[path.len() % t.neighbors(cur).len().max(1)];
            path.push(next);
        }

        let origin = path[0];
        let mut h = DophyHeader::new(origin, 7, 0);
        // All hops except the last are encoded by their receivers.
        for (i, &att) in attempts.iter().enumerate().take(attempts.len() - 1) {
            encode_hop(&mut h, &t, &s, &models, path[i], path[i + 1], att).unwrap();
        }

        let final_sender = path[attempts.len() - 1];
        let final_attempt = attempts[attempts.len() - 1];
        let dec = decode_packet(&h, &t, &s, &models, final_sender, final_attempt).unwrap();

        assert_eq!(dec.origin, origin);
        assert_eq!(dec.seq, 7);
        assert_eq!(dec.observations.len(), attempts.len());
        for (i, obs) in dec.observations.iter().enumerate() {
            assert_eq!(obs.sender, path[i], "hop {i} sender");
            if i + 1 < attempts.len() {
                assert_eq!(obs.receiver, path[i + 1], "hop {i} receiver");
            } else {
                assert_eq!(obs.receiver, NodeId::SINK);
            }
            match obs.observation {
                AttemptObservation::Exact(a) => {
                    assert_eq!(a, attempts[i], "hop {i} attempt");
                }
                AttemptObservation::Range { lo, hi } => {
                    assert!(
                        lo <= attempts[i] && attempts[i] <= hi,
                        "hop {i}: {} not in [{lo},{hi}]",
                        attempts[i]
                    );
                }
            }
        }
    }

    #[test]
    fn identity_round_trip_exact() {
        round_trip(AggregationPolicy::Identity, false, &[1, 3, 2, 7, 1]);
    }

    #[test]
    fn capped_round_trip_censors_tail() {
        round_trip(AggregationPolicy::Cap { cap: 3 }, false, &[1, 5, 2, 7]);
    }

    #[test]
    fn capped_with_refinement_is_lossless() {
        round_trip(AggregationPolicy::Cap { cap: 3 }, true, &[1, 5, 2, 7, 6, 1]);
    }

    #[test]
    fn exp_buckets_round_trip() {
        round_trip(AggregationPolicy::ExpBuckets, false, &[1, 2, 4, 6]);
    }

    #[test]
    fn single_hop_decodes_with_empty_stream() {
        let t = topo();
        let s = spaces(&t, AggregationPolicy::Identity, false);
        let models = ModelSet::initial(&s);
        // Node adjacent to the sink sends directly.
        let sender = *t
            .neighbors(NodeId::SINK)
            .first()
            .expect("sink has neighbors");
        let h = DophyHeader::new(sender, 1, 0);
        let dec = decode_packet(&h, &t, &s, &models, sender, 4).unwrap();
        assert_eq!(dec.observations.len(), 1);
        assert_eq!(
            dec.observations[0].observation,
            AttemptObservation::Exact(4)
        );
        assert_eq!(dec.path(), vec![sender, NodeId::SINK]);
    }

    #[test]
    fn path_mismatch_detected() {
        let t = topo();
        let s = spaces(&t, AggregationPolicy::Identity, false);
        let models = ModelSet::initial(&s);
        let origin = NodeId(15);
        let mid = t.neighbors(origin)[0];
        let mut h = DophyHeader::new(origin, 1, 0);
        encode_hop(&mut h, &t, &s, &models, origin, mid, 1).unwrap();
        // Claim the final sender is someone other than `mid`.
        let wrong = (0..t.node_count() as u32)
            .map(NodeId)
            .find(|&v| v != mid)
            .unwrap();
        let err = decode_packet(&h, &t, &s, &models, wrong, 1).unwrap_err();
        assert!(matches!(err, DecodeError::PathMismatch { .. }));
    }

    #[test]
    fn wrong_epoch_models_fail_detectably() {
        let t = topo();
        let s = spaces(&t, AggregationPolicy::Identity, false);
        let enc_models = ModelSet::initial(&s);
        // Decoder uses a very different model.
        use dophy_coding::model::StaticModel;
        let mut freqs = vec![1u32; s.hop_alphabet()];
        freqs[s.hop_alphabet() - 1] = 60_000;
        let dec_models = ModelSet {
            epoch: 1,
            hop: StaticModel::from_frequencies(&freqs),
            attempt: enc_models.attempt.clone(),
        };
        let origin = NodeId(15);
        let mut h = DophyHeader::new(origin, 1, 0);
        let mut cur = origin;
        let mut truth = Vec::new();
        for i in 0..5u16 {
            // Vary both contexts so the streams differ under the two models.
            let nbrs = t.neighbors(cur);
            let next = nbrs[(i as usize * 3 + 1) % nbrs.len()];
            let attempt = (i % 7) + 1;
            encode_hop(&mut h, &t, &s, &enc_models, cur, next, attempt).unwrap();
            truth.push((cur, next, attempt));
            cur = next;
        }
        // Mismatched models must either fail detectably or decode to values
        // that differ from what was encoded (they cannot silently agree).
        match decode_packet(&h, &t, &s, &dec_models, cur, 1) {
            Err(_) => {}
            Ok(decoded) => {
                let agrees =
                    decoded
                        .observations
                        .iter()
                        .zip(&truth)
                        .all(|(o, &(snd, rcv, att))| {
                            o.sender == snd
                                && o.receiver == rcv
                                && o.observation == AttemptObservation::Exact(att)
                        });
                assert!(!agrees, "wrong models silently decoded the exact truth");
            }
        }
    }

    #[test]
    fn impossible_hop_count_rejected_up_front() {
        let t = topo();
        let s = spaces(&t, AggregationPolicy::Identity, false);
        let models = ModelSet::initial(&s);
        let mut h = DophyHeader::new(NodeId(3), 1, 0);
        h.hops = t.node_count() as u8; // 16 hops in a 16-node topology
        let err = decode_packet(&h, &t, &s, &models, NodeId(3), 1).unwrap_err();
        assert_eq!(
            err,
            DecodeError::HopCountOutOfRange {
                hops: 16,
                node_count: 16
            }
        );
    }

    #[test]
    fn coding_disabled_short_circuits() {
        let t = topo();
        let s = spaces(&t, AggregationPolicy::Identity, false);
        let models = ModelSet::initial(&s);
        let mut h = DophyHeader::new(NodeId(3), 1, 0);
        h.coding_disabled = true;
        let err = decode_packet(&h, &t, &s, &models, NodeId(3), 1).unwrap_err();
        assert_eq!(err, DecodeError::CodingDisabled);
    }
}
