//! The firehose: evidence capture from N parallel simulations, merged
//! into one deterministic stream for the service to ingest.
//!
//! Each simulation runs through the bench executor ([`execute_cell`]:
//! pool + panic isolation — the same machinery `dophy-run` uses) with an
//! [`Instruments::evidence`] tap attached, so capture reuses the exact
//! scenario path every figure runs on. Simulation `k` gets seed
//! `base_seed + k` and its node ids are namespaced by `k * node_count`,
//! so the merged stream reads as one large network with per-simulation
//! node blocks and no link-key collisions.
//!
//! The merge is deterministic: events are keyed by
//! `(timestamp, simulation index, position in that simulation's log)`
//! and stably sorted, so the same specs always produce the same firehose
//! byte for byte — which is what makes service-level replay checks
//! meaningful.

use dophy::infer::Evidence;
use dophy_bench::{execute_cell, Instruments, RunSpec};
use dophy_sim::SimTime;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Per-simulation capture summary.
#[derive(Debug, Clone, Copy)]
pub struct SimCapture {
    /// Simulation index (0-based; also the node-id block).
    pub sim: usize,
    /// Seed the simulation ran with.
    pub seed: u64,
    /// Evidence events this simulation contributed.
    pub events: usize,
    /// Packets the simulation delivered end to end.
    pub delivered: u64,
}

/// A captured, merged evidence stream plus its provenance.
#[derive(Debug, Clone)]
pub struct Firehose {
    /// The merged stream, in deterministic ingest order.
    pub events: Vec<Evidence>,
    /// Per-simulation summaries, in simulation order.
    pub sims: Vec<SimCapture>,
    /// Nodes per simulation (the namespacing block size).
    pub node_count: usize,
}

/// Shifts every node id in an evidence event by `offset` (simulation
/// namespacing). Timestamps and observations are untouched.
fn shift(ev: &Evidence, offset: u32) -> Evidence {
    match ev {
        Evidence::Hop {
            at,
            sender,
            receiver,
            observation,
        } => Evidence::Hop {
            at: *at,
            sender: sender + offset,
            receiver: receiver + offset,
            observation: *observation,
        },
        Evidence::PathOutcome {
            at,
            origin,
            path,
            sent,
            delivered,
        } => Evidence::PathOutcome {
            at: *at,
            origin: origin + offset,
            path: path.iter().map(|(a, b)| (a + offset, b + offset)).collect(),
            sent: *sent,
            delivered: *delivered,
        },
    }
}

/// One simulation's captured events plus its delivered-packet count.
type CaptureResult = Result<(Vec<Evidence>, u64), String>;

/// Runs `sims` copies of `base` (seeds `base.sim.seed + k`) with evidence
/// capture, at most `jobs` concurrently, and merges the captured streams.
pub fn capture(base: &RunSpec, sims: usize, jobs: usize) -> Result<Firehose, String> {
    let node_count = base.sim.placement.node_count();
    let results: Vec<Mutex<Option<CaptureResult>>> = (0..sims).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = jobs.max(1).min(sims.max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::SeqCst);
                if k >= sims {
                    break;
                }
                let mut spec = *base;
                spec.sim.seed = base.sim.seed + k as u64;
                let buffer = Arc::new(Mutex::new(Vec::new()));
                let inst = Instruments {
                    evidence: Some(Arc::clone(&buffer)),
                    ..Instruments::default()
                };
                let label = format!("firehose-sim{k}");
                let res = execute_cell(&label, spec, inst).map(|out| {
                    let events = std::mem::take(&mut *buffer.lock());
                    (events, out.overhead.packets)
                });
                *results[k].lock() = Some(res);
            });
        }
    });

    let mut tagged: Vec<(SimTime, usize, Evidence)> = Vec::new();
    let mut summaries = Vec::with_capacity(sims);
    for (k, slot) in results.iter().enumerate() {
        let (events, delivered) = slot
            .lock()
            .take()
            .unwrap_or_else(|| Err(format!("firehose sim {k} never executed")))?;
        summaries.push(SimCapture {
            sim: k,
            seed: base.sim.seed + k as u64,
            events: events.len(),
            delivered,
        });
        let offset = (k * node_count) as u32;
        for ev in &events {
            tagged.push((ev.at(), k, shift(ev, offset)));
        }
    }
    // Stable sort: ties on (time, sim) keep each simulation's own
    // observation order, so the merge is a pure function of the captures.
    tagged.sort_by_key(|(t, sim, _)| (*t, *sim));
    Ok(Firehose {
        events: tagged.into_iter().map(|(_, _, ev)| ev).collect(),
        sims: summaries,
        node_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dophy_coding::aggregate::AttemptObservation;

    #[test]
    fn shift_namespaces_every_node_id() {
        let hop = Evidence::Hop {
            at: SimTime::from_micros(5),
            sender: 3,
            receiver: 1,
            observation: AttemptObservation::Exact(2),
        };
        match shift(&hop, 100) {
            Evidence::Hop {
                sender, receiver, ..
            } => {
                assert_eq!((sender, receiver), (103, 101));
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let path = Evidence::PathOutcome {
            at: SimTime::from_micros(9),
            origin: 4,
            path: vec![(4, 2), (2, 0)],
            sent: 10,
            delivered: 9,
        };
        match shift(&path, 16) {
            Evidence::PathOutcome { origin, path, .. } => {
                assert_eq!(origin, 20);
                assert_eq!(path, vec![(20, 18), (18, 16)]);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
