//! Node placement and connectivity-graph generation.
//!
//! A [`Topology`] fixes node positions, the sink, and the set of usable
//! directed links with their base PRRs. The simulation engine later attaches
//! a stochastic [`crate::link::LossProcess`] to each link; routing discovers
//! links through beacons; the sink's decoder consults the same neighbor
//! tables (mirroring the control-plane topology reports a real deployment
//! would collect).

use crate::radio::RadioModel;
use crate::rng::{RngHub, StreamKind};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Node identifier. The sink is always [`NodeId::SINK`] (id 0).
///
/// Ids are `u32`: dense per-node arrays stay cheap while 10k–100k-node
/// topologies fit without aliasing. Construct from container indices with
/// [`NodeId::from_index`] / [`NodeId::try_from_index`] — never with a raw
/// `as` cast, which would silently wrap past the representable range.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The data sink / collection root.
    pub const SINK: NodeId = NodeId(0);

    /// Index into dense per-node arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Checked construction from a container index; `None` past `u32`.
    pub fn try_from_index(i: usize) -> Option<NodeId> {
        u32::try_from(i).ok().map(NodeId)
    }

    /// Construction from a container index known to be in range (loops
    /// bounded by an existing topology's `node_count`).
    ///
    /// # Panics
    /// Panics if `i` exceeds `u32::MAX` instead of wrapping.
    pub fn from_index(i: usize) -> NodeId {
        Self::try_from_index(i).unwrap_or_else(|| panic!("node index {i} exceeds NodeId range"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Typed topology-construction failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// The placement asks for more nodes than [`NodeId`] can address.
    /// Detected before any per-node allocation happens.
    TooManyNodes {
        /// Nodes the placement would produce.
        requested: u64,
        /// Largest representable node count.
        max: u64,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologyError::TooManyNodes { requested, max } => write!(
                f,
                "placement produces {requested} nodes but NodeId addresses at most {max}"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// 2-D position in metres.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Position {
    /// X coordinate (m).
    pub x: f64,
    /// Y coordinate (m).
    pub y: f64,
}

impl Position {
    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A usable directed link with its generated base reception ratio.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Transmitter.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Base PRR generated from the radio model (before any temporal loss
    /// process is layered on top).
    pub base_prr: f64,
}

/// Node placement schemes.
///
/// `Hash` runs over the IEEE-754 bit patterns of the float fields so a
/// placement can participate in stable content-address keys (bench run
/// cache); config constructors never produce `-0.0`/NaN.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Placement {
    /// `side × side` grid with the given spacing (m); sink at a corner.
    Grid {
        /// Nodes per side.
        side: u32,
        /// Grid spacing in metres.
        spacing: f64,
    },
    /// `n` nodes uniform in a disk of the given radius; sink at the centre.
    UniformDisk {
        /// Total number of nodes (including the sink).
        n: u32,
        /// Disk radius in metres.
        radius: f64,
    },
    /// `n` nodes in a line with the given spacing; sink at one end.
    /// Produces maximal path lengths — used for encoding-overhead sweeps.
    Line {
        /// Total number of nodes (including the sink).
        n: u32,
        /// Inter-node spacing in metres.
        spacing: f64,
    },
    /// Clustered deployment: `clusters` groups of `per_cluster` nodes, each
    /// group uniform in a small disk around a uniformly placed centre; the
    /// sink sits at the origin. Models room/zone deployments with dense
    /// intra-cluster and sparse inter-cluster links.
    Clustered {
        /// Number of clusters.
        clusters: u32,
        /// Nodes per cluster.
        per_cluster: u32,
        /// Radius of the deployment area (cluster centres).
        area_radius: f64,
        /// Radius of each cluster.
        cluster_radius: f64,
    },
}

impl std::hash::Hash for Placement {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match *self {
            Placement::Grid { side, spacing } => {
                state.write_u8(0);
                state.write_u32(side);
                state.write_u64(spacing.to_bits());
            }
            Placement::UniformDisk { n, radius } => {
                state.write_u8(1);
                state.write_u32(n);
                state.write_u64(radius.to_bits());
            }
            Placement::Line { n, spacing } => {
                state.write_u8(2);
                state.write_u32(n);
                state.write_u64(spacing.to_bits());
            }
            Placement::Clustered {
                clusters,
                per_cluster,
                area_radius,
                cluster_radius,
            } => {
                state.write_u8(3);
                state.write_u32(clusters);
                state.write_u32(per_cluster);
                state.write_u64(area_radius.to_bits());
                state.write_u64(cluster_radius.to_bits());
            }
        }
    }
}

impl Placement {
    /// Number of nodes this placement produces (before any capacity
    /// check — see [`Topology::try_generate`]).
    pub fn node_count_u64(&self) -> u64 {
        match *self {
            Placement::Grid { side, .. } => u64::from(side) * u64::from(side),
            Placement::UniformDisk { n, .. } | Placement::Line { n, .. } => u64::from(n),
            Placement::Clustered {
                clusters,
                per_cluster,
                ..
            } => 1 + u64::from(clusters) * u64::from(per_cluster),
        }
    }

    /// Number of nodes this placement produces.
    pub fn node_count(&self) -> usize {
        usize::try_from(self.node_count_u64()).expect("node count fits usize")
    }

    /// Generates node positions; index 0 is the sink.
    pub fn positions(&self, hub: &RngHub) -> Vec<Position> {
        match *self {
            Placement::Grid { side, spacing } => {
                let mut pos = Vec::with_capacity(self.node_count());
                for r in 0..side {
                    for c in 0..side {
                        pos.push(Position {
                            x: f64::from(c) * spacing,
                            y: f64::from(r) * spacing,
                        });
                    }
                }
                pos
            }
            Placement::UniformDisk { n, radius } => {
                let mut rng = hub.stream(StreamKind::Topology, 0xD15C, 0);
                let mut pos = Vec::with_capacity(n as usize);
                pos.push(Position { x: 0.0, y: 0.0 }); // sink at centre
                for _ in 1..n {
                    // Uniform in the disk via sqrt radius transform.
                    let r = radius * rng.gen::<f64>().sqrt();
                    let theta = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
                    pos.push(Position {
                        x: r * theta.cos(),
                        y: r * theta.sin(),
                    });
                }
                pos
            }
            Placement::Line { n, spacing } => (0..n)
                .map(|i| Position {
                    x: f64::from(i) * spacing,
                    y: 0.0,
                })
                .collect(),
            Placement::Clustered {
                clusters,
                per_cluster,
                area_radius,
                cluster_radius,
            } => {
                let mut rng = hub.stream(StreamKind::Topology, 0xC1A5, 0);
                let mut pos = Vec::with_capacity(self.node_count());
                pos.push(Position { x: 0.0, y: 0.0 }); // sink
                for _ in 0..clusters {
                    let r = area_radius * rng.gen::<f64>().sqrt();
                    let theta = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
                    let (cx, cy) = (r * theta.cos(), r * theta.sin());
                    for _ in 0..per_cluster {
                        let rr = cluster_radius * rng.gen::<f64>().sqrt();
                        let tt = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
                        pos.push(Position {
                            x: cx + rr * tt.cos(),
                            y: cy + rr * tt.sin(),
                        });
                    }
                }
                pos
            }
        }
    }
}

/// Immutable network structure: positions plus usable directed links.
///
/// Adjacency is stored CSR-style: one flat neighbor array (and a parallel
/// link-id array) with per-node offsets, kept in descending base-PRR order
/// for routing's candidate scans, plus a second dst-sorted pair of flat
/// arrays so [`link_id`](Self::link_id) is a binary search within one
/// node's out-degree. (A dense n² dst→link matrix bought O(1) lookup up to
/// the 1000-node scale target, but costs 400 MB at 10k nodes.) All of it
/// is derived from `positions` + `links`, so only those two travel on the
/// wire (the manual serde impls below rebuild the rest through
/// `TopologyWire`).
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<Position>,
    links: Vec<LinkSpec>,
    /// CSR offsets: node `u`'s out-edges occupy `adj_offsets[u] ..
    /// adj_offsets[u+1]` of the flat arrays below.
    adj_offsets: Vec<u32>,
    /// Flat out-neighbor array, per node sorted by descending base PRR
    /// (so the first entry of a node's range is its best candidate).
    adj_targets: Vec<NodeId>,
    /// Parallel to `adj_targets`: index into `links`.
    adj_links: Vec<u32>,
    /// Flat out-neighbor array, per node sorted by ascending dst id — the
    /// binary-search index behind [`link_id`](Self::link_id).
    adj_dst_sorted: Vec<NodeId>,
    /// Parallel to `adj_dst_sorted`: index into `links`.
    adj_dst_links: Vec<u32>,
}

/// Serialized form of [`Topology`]: the generated data only, with every
/// derived index rebuilt on deserialization.
#[derive(Serialize, Deserialize)]
struct TopologyWire {
    positions: Vec<Position>,
    links: Vec<LinkSpec>,
}

impl Serialize for Topology {
    fn to_value(&self) -> serde::Value {
        TopologyWire {
            positions: self.positions.clone(),
            links: self.links.clone(),
        }
        .to_value()
    }
}

impl Deserialize for Topology {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let w = TopologyWire::from_value(v)?;
        Ok(Topology::from_parts(w.positions, w.links))
    }
}

impl Topology {
    /// Generates a topology: place nodes, then draw per-directed-link PRRs
    /// from `radio`, pruning unusable pairs.
    ///
    /// Fails with [`TopologyError::TooManyNodes`] — before allocating
    /// anything per-node — if the placement exceeds the [`NodeId`] range.
    pub fn try_generate(
        placement: Placement,
        radio: &RadioModel,
        hub: &RngHub,
    ) -> Result<Self, TopologyError> {
        let requested = placement.node_count_u64();
        // One more than u32::MAX ids would alias; the practical per-node
        // allocations cap far lower, but this is the type-level bound.
        let max = u64::from(u32::MAX) + 1;
        if requested > max {
            return Err(TopologyError::TooManyNodes { requested, max });
        }
        let positions = placement.positions(hub);
        let n = positions.len();
        let dmax = radio.max_usable_distance();

        // Spatial binning: cells of side `dmax`, so every pair within
        // usable range shares a cell or sits in adjacent cells. Candidate
        // lists are visited in ascending node order, which makes the link
        // list byte-identical to the historical all-pairs scan (same
        // per-pair RNG streams, same order) at O(n · density) instead of
        // O(n²).
        let cell = |p: &Position| -> (i64, i64) {
            ((p.x / dmax).floor() as i64, (p.y / dmax).floor() as i64)
        };
        let mut bins: HashMap<(i64, i64), Vec<u32>> = HashMap::new();
        for (i, p) in positions.iter().enumerate() {
            bins.entry(cell(p))
                .or_default()
                .push(u32::try_from(i).expect("checked above"));
        }

        let mut links = Vec::new();
        let mut candidates: Vec<u32> = Vec::new();
        for u in 0..n {
            candidates.clear();
            let (cx, cy) = cell(&positions[u]);
            for dx in -1..=1 {
                for dy in -1..=1 {
                    if let Some(ids) = bins.get(&(cx + dx, cy + dy)) {
                        candidates.extend_from_slice(ids);
                    }
                }
            }
            candidates.sort_unstable();
            for &v32 in &candidates {
                let v = v32 as usize;
                if u == v {
                    continue;
                }
                let d = positions[u].distance(&positions[v]);
                if d > dmax {
                    continue;
                }
                // Stream keyed by the directed pair: regenerating the same
                // topology yields identical links.
                let mut rng = hub.stream(StreamKind::Topology, u as u64 + 1, v as u64 + 1);
                if let Some(prr) = radio.link_prr(d, &mut rng) {
                    links.push(LinkSpec {
                        src: NodeId::from_index(u),
                        dst: NodeId::from_index(v),
                        base_prr: prr,
                    });
                }
            }
        }
        Ok(Self::from_parts(positions, links))
    }

    /// Generates a topology, panicking on an over-capacity placement.
    /// Prefer [`try_generate`](Self::try_generate) when the placement is
    /// not statically known to fit.
    pub fn generate(placement: Placement, radio: &RadioModel, hub: &RngHub) -> Self {
        Self::try_generate(placement, radio, hub).expect("placement within NodeId range")
    }

    /// Builds the derived adjacency structures from generated (or
    /// deserialized) positions and links.
    ///
    /// `links` must arrive grouped by `src` in ascending node order with
    /// ascending `dst` within a group — the order [`generate`](Self::generate)
    /// produces — so that the stable descending-PRR sort breaks PRR ties
    /// by ascending destination exactly as the historical per-node sort
    /// did (neighbor order is part of the determinism contract).
    fn from_parts(positions: Vec<Position>, links: Vec<LinkSpec>) -> Self {
        let n = positions.len();
        let mut per_node: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, l) in links.iter().enumerate() {
            per_node[l.src.index()].push(u32::try_from(i).expect("< 2^32 links"));
        }
        // Insertion order within a node is ascending dst (the documented
        // input contract) — capture it for the binary-search index before
        // the PRR sort rearranges `per_node`.
        let mut adj_offsets = Vec::with_capacity(n + 1);
        let mut adj_dst_sorted = Vec::with_capacity(links.len());
        let mut adj_dst_links = Vec::with_capacity(links.len());
        adj_offsets.push(0);
        for ids in &per_node {
            for &i in ids {
                adj_dst_sorted.push(links[i as usize].dst);
                adj_dst_links.push(i);
            }
            adj_offsets.push(u32::try_from(adj_dst_sorted.len()).expect("< 2^32 links"));
            debug_assert!(
                adj_dst_sorted[adj_offsets[adj_offsets.len() - 2] as usize..]
                    .windows(2)
                    .all(|w| w[0] < w[1]),
                "links must arrive with ascending dst per src"
            );
        }
        for ids in &mut per_node {
            // Stable: equal PRRs keep insertion (ascending dst) order.
            ids.sort_by(|&a, &b| {
                links[b as usize]
                    .base_prr
                    .partial_cmp(&links[a as usize].base_prr)
                    .expect("PRRs are finite")
            });
        }
        let mut adj_targets = Vec::with_capacity(links.len());
        let mut adj_links = Vec::with_capacity(links.len());
        for ids in &per_node {
            for &i in ids {
                adj_targets.push(links[i as usize].dst);
                adj_links.push(i);
            }
        }
        Self {
            positions,
            links,
            adj_offsets,
            adj_targets,
            adj_links,
            adj_dst_sorted,
            adj_dst_links,
        }
    }

    /// Node `u`'s range in the flat adjacency arrays.
    fn adj_range(&self, u: NodeId) -> std::ops::Range<usize> {
        self.adj_offsets[u.index()] as usize..self.adj_offsets[u.index() + 1] as usize
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Node positions (index = node id).
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// All usable directed links.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// Out-neighbors of `u`, best base PRR first.
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.adj_targets[self.adj_range(u)]
    }

    /// Out-edges of `u` as contiguous `(neighbor, link id)` pairs, best
    /// base PRR first — the engine's broadcast fan-out iterates this
    /// without any lookup or allocation.
    pub fn neighbor_links(&self, u: NodeId) -> impl ExactSizeIterator<Item = (NodeId, usize)> + '_ {
        let r = self.adj_range(u);
        self.adj_targets[r.clone()]
            .iter()
            .copied()
            .zip(self.adj_links[r].iter().copied())
            .map(|(v, l)| (v, l as usize))
    }

    /// Link index (into [`links`](Self::links)) for `u → v`, if usable.
    /// Binary search within `u`'s out-degree — called per delivered frame
    /// by the engine, O(log degree) at constant density.
    pub fn link_id(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let r = self.adj_range(u);
        let row = &self.adj_dst_sorted[r.clone()];
        let i = row.partition_point(|&d| d < v);
        (i < row.len() && row[i] == v).then(|| self.adj_dst_links[r.start + i] as usize)
    }

    /// Base PRR of `u → v`, if usable.
    pub fn base_prr(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.link_id(u, v).map(|i| self.links[i].base_prr)
    }

    /// True if every node can reach the sink through usable links
    /// (direction of data flow: node → sink).
    pub fn is_collectable(&self) -> bool {
        self.hops_to_sink().iter().all(|&d| d != usize::MAX)
    }

    /// Minimum hop distance from each node to the sink (usize::MAX if
    /// disconnected). Used for ground-truth path-length statistics.
    pub fn hops_to_sink(&self) -> Vec<usize> {
        // BFS from the sink over reversed edges.
        let (offsets, srcs) = self.in_neighbors();
        let mut dist = vec![usize::MAX; self.node_count()];
        dist[NodeId::SINK.index()] = 0;
        let mut frontier = std::collections::VecDeque::from([NodeId::SINK]);
        while let Some(v) = frontier.pop_front() {
            let r = offsets[v.index()] as usize..offsets[v.index() + 1] as usize;
            for &u in &srcs[r] {
                if dist[u.index()] == usize::MAX {
                    dist[u.index()] = dist[v.index()] + 1;
                    frontier.push_back(u);
                }
            }
        }
        dist
    }

    /// Reverse adjacency as one CSR: node `v`'s in-neighbours are
    /// `srcs[offsets[v] .. offsets[v + 1]]`, in link order. Two flat
    /// arrays instead of one growing `Vec` per node.
    fn in_neighbors(&self) -> (Vec<u32>, Vec<NodeId>) {
        let n = self.node_count();
        // Count in-degrees, then prefix-sum so `offsets[v]` ends `v`'s run.
        let mut offsets = vec![0u32; n + 1];
        for l in &self.links {
            offsets[l.dst.index()] += 1;
        }
        for v in 1..n {
            offsets[v] += offsets[v - 1];
        }
        offsets[n] = u32::try_from(self.links.len()).expect("< 2^32 links");
        // Fill each run from its end, walking the links backwards: every
        // run keeps link order, and `offsets[v]` ends at the run's start.
        let mut srcs = vec![NodeId::SINK; self.links.len()];
        for l in self.links.iter().rev() {
            let slot = &mut offsets[l.dst.index()];
            *slot -= 1;
            srcs[*slot as usize] = l.src;
        }
        (offsets, srcs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub() -> RngHub {
        RngHub::new(1234)
    }

    #[test]
    fn grid_positions() {
        let pos = Placement::Grid {
            side: 3,
            spacing: 10.0,
        }
        .positions(&hub());
        assert_eq!(pos.len(), 9);
        assert_eq!(pos[0].x, 0.0);
        assert_eq!(pos[4].x, 10.0);
        assert_eq!(pos[4].y, 10.0);
        assert_eq!(pos[8].x, 20.0);
    }

    #[test]
    fn disk_positions_inside_radius() {
        let pos = Placement::UniformDisk {
            n: 200,
            radius: 80.0,
        }
        .positions(&hub());
        assert_eq!(pos.len(), 200);
        let origin = Position { x: 0.0, y: 0.0 };
        assert_eq!(pos[0].distance(&origin), 0.0, "sink at centre");
        for p in &pos {
            assert!(p.distance(&origin) <= 80.0 + 1e-9);
        }
    }

    #[test]
    fn line_positions() {
        let pos = Placement::Line {
            n: 5,
            spacing: 20.0,
        }
        .positions(&hub());
        assert_eq!(pos.len(), 5);
        assert_eq!(pos[4].x, 80.0);
        assert!(pos.iter().all(|p| p.y == 0.0));
    }

    #[test]
    fn generation_is_deterministic() {
        let radio = RadioModel::default();
        let place = Placement::UniformDisk {
            n: 60,
            radius: 100.0,
        };
        let a = Topology::generate(place, &radio, &hub());
        let b = Topology::generate(place, &radio, &hub());
        assert_eq!(a.links().len(), b.links().len());
        for (x, y) in a.links().iter().zip(b.links()) {
            assert_eq!(x.src, y.src);
            assert_eq!(x.dst, y.dst);
            assert_eq!(x.base_prr, y.base_prr);
        }
    }

    /// The spatial-binned generator must reproduce the all-pairs reference
    /// scan byte for byte: same links, same order, same PRR draws.
    #[test]
    fn binned_generation_matches_all_pairs_reference() {
        let radio = RadioModel::default();
        let hub = hub();
        for place in [
            Placement::UniformDisk {
                n: 120,
                radius: 150.0,
            },
            Placement::Grid {
                side: 9,
                spacing: 18.0,
            },
            Placement::Clustered {
                clusters: 6,
                per_cluster: 12,
                area_radius: 120.0,
                cluster_radius: 15.0,
            },
        ] {
            let topo = Topology::generate(place, &radio, &hub);
            // Reference: the historical O(n²) scan.
            let positions = place.positions(&hub);
            let dmax = radio.max_usable_distance();
            let mut reference = Vec::new();
            for u in 0..positions.len() {
                for v in 0..positions.len() {
                    if u == v || positions[u].distance(&positions[v]) > dmax {
                        continue;
                    }
                    let mut rng = hub.stream(StreamKind::Topology, u as u64 + 1, v as u64 + 1);
                    if let Some(prr) =
                        radio.link_prr(positions[u].distance(&positions[v]), &mut rng)
                    {
                        reference.push((u as u32, v as u32, prr));
                    }
                }
            }
            assert_eq!(topo.links().len(), reference.len());
            for (l, &(src, dst, prr)) in topo.links().iter().zip(&reference) {
                assert_eq!((l.src.0, l.dst.0), (src, dst));
                assert_eq!(l.base_prr, prr);
            }
        }
    }

    #[test]
    fn over_capacity_placement_is_a_typed_error() {
        // 4.29e9 × 2 + 1 nodes: far past the NodeId range. Must return the
        // typed error without trying to allocate positions first.
        let place = Placement::Clustered {
            clusters: u32::MAX,
            per_cluster: 2,
            area_radius: 1000.0,
            cluster_radius: 10.0,
        };
        let err = Topology::try_generate(place, &RadioModel::default(), &hub())
            .expect_err("over-capacity build must fail");
        match err {
            TopologyError::TooManyNodes { requested, max } => {
                assert_eq!(requested, 1 + u64::from(u32::MAX) * 2);
                assert_eq!(max, u64::from(u32::MAX) + 1);
            }
        }
        assert!(err.to_string().contains("NodeId"));
    }

    #[test]
    fn node_id_checked_construction() {
        assert_eq!(NodeId::try_from_index(7), Some(NodeId(7)));
        assert_eq!(
            NodeId::try_from_index(u32::MAX as usize),
            Some(NodeId(u32::MAX))
        );
        assert_eq!(NodeId::try_from_index(u32::MAX as usize + 1), None);
        assert_eq!(NodeId::from_index(9).0, 9);
    }

    #[test]
    #[should_panic(expected = "exceeds NodeId range")]
    fn node_id_from_index_panics_past_range() {
        let _ = NodeId::from_index(u32::MAX as usize + 1);
    }

    #[test]
    fn neighbors_sorted_by_prr() {
        let radio = RadioModel::default();
        let topo = Topology::generate(
            Placement::UniformDisk {
                n: 80,
                radius: 90.0,
            },
            &radio,
            &hub(),
        );
        for u in 0..topo.node_count() {
            let u = NodeId::from_index(u);
            let prrs: Vec<f64> = topo
                .neighbors(u)
                .iter()
                .map(|&v| topo.base_prr(u, v).unwrap())
                .collect();
            for w in prrs.windows(2) {
                assert!(w[0] >= w[1], "neighbors of {u} not sorted: {prrs:?}");
            }
        }
    }

    #[test]
    fn dense_grid_is_collectable() {
        let radio = RadioModel::default();
        let topo = Topology::generate(
            Placement::Grid {
                side: 5,
                spacing: 15.0,
            },
            &radio,
            &hub(),
        );
        assert!(topo.is_collectable());
        let hops = topo.hops_to_sink();
        assert_eq!(hops[0], 0);
        assert!(hops.iter().all(|&h| h != usize::MAX));
    }

    #[test]
    fn sparse_line_multi_hop() {
        let radio = RadioModel::default();
        // 25 m spacing with d50=30: only adjacent nodes connect reliably.
        let topo = Topology::generate(
            Placement::Line {
                n: 8,
                spacing: 25.0,
            },
            &radio,
            &hub(),
        );
        let hops = topo.hops_to_sink();
        // Far end must be several hops out.
        assert!(hops[7] >= 3, "hops {hops:?}");
    }

    #[test]
    fn link_id_lookup() {
        let radio = RadioModel::default();
        let topo = Topology::generate(
            Placement::Grid {
                side: 3,
                spacing: 10.0,
            },
            &radio,
            &hub(),
        );
        for l in topo.links() {
            let id = topo.link_id(l.src, l.dst).unwrap();
            assert_eq!(topo.links()[id].src, l.src);
            assert_eq!(topo.links()[id].dst, l.dst);
        }
        assert_eq!(topo.link_id(NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn node_count_matches_placement() {
        for place in [
            Placement::Grid {
                side: 4,
                spacing: 10.0,
            },
            Placement::UniformDisk {
                n: 33,
                radius: 50.0,
            },
            Placement::Line {
                n: 12,
                spacing: 10.0,
            },
            Placement::Clustered {
                clusters: 5,
                per_cluster: 8,
                area_radius: 100.0,
                cluster_radius: 12.0,
            },
        ] {
            assert_eq!(place.positions(&hub()).len(), place.node_count());
        }
    }

    #[test]
    fn clustered_nodes_stay_near_centres() {
        let place = Placement::Clustered {
            clusters: 4,
            per_cluster: 10,
            area_radius: 90.0,
            cluster_radius: 10.0,
        };
        let pos = place.positions(&hub());
        assert_eq!(pos.len(), 41);
        let origin = Position { x: 0.0, y: 0.0 };
        assert_eq!(pos[0].distance(&origin), 0.0, "sink at origin");
        // Each cluster of 10 consecutive nodes spans at most its diameter.
        for c in 0..4 {
            let group = &pos[1 + c * 10..1 + (c + 1) * 10];
            for a in group {
                for b in group {
                    assert!(a.distance(b) <= 20.0 + 1e-9, "cluster too spread");
                }
            }
        }
        // All inside the deployment area (+ cluster radius).
        for p in &pos {
            assert!(p.distance(&origin) <= 100.0 + 1e-9);
        }
    }

    #[test]
    fn clustered_intra_links_denser_than_inter() {
        let place = Placement::Clustered {
            clusters: 4,
            per_cluster: 10,
            area_radius: 80.0,
            cluster_radius: 8.0,
        };
        let topo = Topology::generate(place, &RadioModel::default(), &hub());
        let cluster_of =
            |id: NodeId| -> Option<usize> { (id.0 > 0).then(|| (id.index() - 1) / 10) };
        let (mut intra, mut inter) = (0usize, 0usize);
        for l in topo.links() {
            match (cluster_of(l.src), cluster_of(l.dst)) {
                (Some(a), Some(b)) if a == b => intra += 1,
                (Some(_), Some(_)) => inter += 1,
                _ => {}
            }
        }
        assert!(
            intra > inter,
            "clusters should be internally dense: intra {intra} vs inter {inter}"
        );
    }
}
