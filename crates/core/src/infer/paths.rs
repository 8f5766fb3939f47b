//! The end-to-end evidence table: every [`Evidence::PathOutcome`] pooled
//! by exact route into `(Σ sent, Σ delivered)`.
//!
//! It replaces three collectors that each kept this stream their own way,
//! with their own admission rule: the traditional EM/log-LS baseline's
//! collector (one stored path per window), sparse-L1's route map, and
//! MINC's per-edge running means with one last-seen sink. For a fixed
//! route every solver reads its windows only through the two sums — EM's
//! E-step is linear in (delivered, lost), MINC's γ is the pooled delivery
//! ratio, log-LS and sparse-L1 fit one row per route — so all four solve
//! from this table. It grows with distinct routes, not windows, and
//! iterates in route order, so every solve is deterministic.

use super::Evidence;
use crate::baseline::LinkKey;
use std::collections::BTreeMap;

/// Windows that sent fewer packets than this are dropped: their delivery
/// ratio is too coarse to attribute (a 2-packet window can only read 0,
/// ½ or 1).
pub const MIN_WINDOW_SENT: u64 = 5;

/// End-to-end outcomes pooled by route.
///
/// ```
/// use dophy::baseline::{estimate_em, TraditionalConfig};
/// use dophy::infer::PathTable;
///
/// let mut paths = PathTable::new();
/// // Origin 2 routes 2→1→0; origin 1 routes 1→0 directly.
/// paths.add(&[(2, 1), (1, 0)], 10_000, 8_100);
/// paths.add(&[(1, 0)], 10_000, 9_000);
/// let sigma = estimate_em(&paths, &TraditionalConfig::default());
/// assert!((sigma[&(1, 0)] - 0.9).abs() < 0.02);
/// assert!((sigma[&(2, 1)] - 0.9).abs() < 0.02);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PathTable {
    /// Route (links origin→sink) → (Σ sent, Σ delivered).
    rows: BTreeMap<Vec<LinkKey>, (u64, u64)>,
}

/// One pooled route, resolved against the table's link universe.
pub(crate) struct Route {
    /// Indices into the sorted link universe, origin to sink. A looping
    /// snapshot visits a link twice, and both visits are kept.
    pub idx: Vec<usize>,
    /// Packets sent along the route.
    pub sent: u64,
    /// Of which delivered (`≤ sent`).
    pub delivered: u64,
}

impl PathTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pools one window's tally into its route. Empty routes and windows
    /// with fewer than [`MIN_WINDOW_SENT`] packets are ignored, and
    /// `delivered` is capped at `sent`.
    pub fn add(&mut self, path: &[LinkKey], sent: u64, delivered: u64) {
        if path.is_empty() || sent < MIN_WINDOW_SENT {
            return;
        }
        let delivered = delivered.min(sent);
        if let Some(row) = self.rows.get_mut(path) {
            row.0 += sent;
            row.1 += delivered;
        } else {
            self.rows.insert(path.to_vec(), (sent, delivered));
        }
    }

    /// Pools an [`Evidence::PathOutcome`] as [`add`](Self::add) would its
    /// `(path, sent, delivered)`. The route's first hop must leave its
    /// origin; any other outcome is malformed and ignored, as is hop
    /// evidence.
    pub fn observe(&mut self, ev: &Evidence) {
        if let Evidence::PathOutcome {
            origin,
            path,
            sent,
            delivered,
            ..
        } = ev
        {
            if path.first().is_some_and(|&(child, _)| child == *origin) {
                self.add(path, *sent, *delivered);
            }
        }
    }

    /// True when no window has been pooled.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Every route with its tallies, in route order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (&[LinkKey], u64, u64)> {
        self.rows
            .iter()
            .map(|(path, &(sent, delivered))| (path.as_slice(), sent, delivered))
    }

    /// The sorted link universe — the solvers' coordinate order — and every
    /// route resolved against it, in route order.
    pub(crate) fn resolve(&self) -> (Vec<LinkKey>, Vec<Route>) {
        let mut links: Vec<LinkKey> = self.rows.keys().flatten().copied().collect();
        links.sort_unstable();
        links.dedup();
        let routes = self
            .rows()
            .map(|(path, sent, delivered)| Route {
                idx: path
                    .iter()
                    .map(|l| {
                        links
                            .binary_search(l)
                            .expect("every route link is in the universe")
                    })
                    .collect(),
                sent,
                delivered,
            })
            .collect();
        (links, routes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dophy_sim::SimTime;

    fn outcome(origin: u32, path: &[LinkKey], sent: u64, delivered: u64) -> Evidence {
        Evidence::PathOutcome {
            at: SimTime::ZERO,
            origin,
            path: path.to_vec(),
            sent,
            delivered,
        }
    }

    #[test]
    fn pools_admitted_windows_by_route() {
        let mut paths = PathTable::new();
        assert!(paths.is_empty());
        paths.observe(&outcome(3, &[(3, 2), (2, 0)], 10, 8));
        paths.observe(&outcome(3, &[(3, 2), (2, 0)], 20, 15));
        // Delivered is capped at sent.
        paths.observe(&outcome(2, &[(2, 0)], 10, 12));
        // Under MIN_WINDOW_SENT: dropped.
        paths.observe(&outcome(2, &[(2, 0)], MIN_WINDOW_SENT - 1, 0));
        // First hop does not leave the origin: malformed, dropped.
        paths.observe(&outcome(4, &[(5, 2), (2, 0)], 10, 10));
        // Empty routes are dropped.
        paths.add(&[], 10, 10);
        let rows: Vec<_> = paths.rows().collect();
        assert_eq!(
            rows,
            vec![(&[(2, 0)][..], 10, 10), (&[(3, 2), (2, 0)][..], 30, 23)]
        );

        // The universe is sorted; each route keeps its hop order.
        let (links, routes) = paths.resolve();
        assert_eq!(links, vec![(2, 0), (3, 2)]);
        let idx: Vec<&[usize]> = routes.iter().map(|r| r.idx.as_slice()).collect();
        assert_eq!(idx, vec![&[0][..], &[1, 0][..]]);
        assert_eq!((routes[1].sent, routes[1].delivered), (30, 23));
    }
}
