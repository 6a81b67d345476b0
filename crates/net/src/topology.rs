//! Network topology: node placement plus the unit-disk connectivity graph.
//!
//! A [`Topology`] fixes node positions and a communication range and
//! precomputes the neighbour lists used by the channel (who hears whom)
//! and by routing-tree construction (BFS levels from the root).
//!
//! # Examples
//!
//! ```
//! use essat_net::topology::Topology;
//! use essat_sim::rng::SimRng;
//!
//! let mut rng = SimRng::seed_from_u64(1);
//! let topo = Topology::random_paper(&mut rng);
//! assert_eq!(topo.node_count(), 80);
//! let root = topo.closest_to_center();
//! let levels = topo.bfs_levels(root);
//! assert_eq!(levels[root.index()], Some(0));
//! ```

use essat_sim::rng::SimRng;

use crate::geometry::{Area, Position};
use crate::ids::NodeId;

/// The paper's communication range in metres.
pub const PAPER_RANGE_M: f64 = 125.0;
/// The paper's node count.
pub const PAPER_NODE_COUNT: u32 = 80;
/// Only nodes within this distance of the root join the routing tree in
/// the paper's setup.
pub const PAPER_TREE_RADIUS_M: f64 = 300.0;

/// Immutable node placement + unit-disk adjacency.
///
/// Two radii are tracked: the **communication range** (frames decode)
/// and an optional larger **interference range** (transmissions are
/// sensed as energy and can corrupt concurrent receptions, but carry no
/// decodable frame) — the classic two-range model of ns-2.
///
/// Each range's adjacency is computed once, at construction, by a plain
/// pairwise scan: deployments here have at most 80 nodes, where a
/// spatial index does not pay for itself.
#[derive(Debug, Clone)]
pub struct Topology {
    area: Area,
    range: f64,
    interference_range: f64,
    positions: Vec<Position>,
    neighbors: Vec<Vec<NodeId>>,
    interference_neighbors: Vec<Vec<NodeId>>,
}

/// Indices of the positions within `radius` of `p`, ascending.
fn within(positions: &[Position], p: Position, radius: f64) -> impl Iterator<Item = u32> + '_ {
    let r_sq = radius * radius;
    (0u32..)
        .zip(positions)
        .filter(move |(_, q)| q.distance_sq(p) <= r_sq)
        .map(|(j, _)| j)
}

/// Per-node disk adjacency (excluding self), each list ascending.
fn disk_adjacency(positions: &[Position], radius: f64) -> Vec<Vec<NodeId>> {
    (0u32..)
        .zip(positions)
        .map(|(i, &p)| {
            within(positions, p, radius)
                .filter(|&j| j != i)
                .map(NodeId::new)
                .collect()
        })
        .collect()
}

impl Topology {
    /// Builds a topology from explicit positions.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is empty or `range` is not strictly positive.
    pub fn from_positions(area: Area, range: f64, positions: Vec<Position>) -> Self {
        assert!(!positions.is_empty(), "topology needs at least one node");
        assert!(
            range.is_finite() && range > 0.0,
            "communication range must be positive, got {range}"
        );
        let neighbors = disk_adjacency(&positions, range);
        let interference_neighbors = neighbors.clone();
        Topology {
            area,
            range,
            interference_range: range,
            positions,
            neighbors,
            interference_neighbors,
        }
    }

    /// Sets an interference range larger than the communication range:
    /// transmissions are *sensed* (and corrupt concurrent receptions)
    /// out to this distance, but only decode within the communication
    /// range.
    ///
    /// # Panics
    ///
    /// Panics if `r` is smaller than the communication range.
    pub fn with_interference_range(mut self, r: f64) -> Self {
        assert!(
            r >= self.range,
            "interference range {r} below communication range {}",
            self.range
        );
        self.interference_range = r;
        self.interference_neighbors = disk_adjacency(&self.positions, r);
        self
    }

    /// Uniform-random placement of `n` nodes.
    pub fn random(n: u32, area: Area, range: f64, rng: &mut SimRng) -> Self {
        assert!(n > 0, "topology needs at least one node");
        let positions = (0..n).map(|_| area.random_position(rng)).collect();
        Topology::from_positions(area, range, positions)
    }

    /// The paper's deployment: 80 nodes in 500 × 500 m², 125 m range.
    pub fn random_paper(rng: &mut SimRng) -> Self {
        Topology::random(PAPER_NODE_COUNT, Area::paper(), PAPER_RANGE_M, rng)
    }

    /// A straight line of `n` nodes with the given spacing — handy for
    /// tests where ranks must be exact.
    pub fn line(n: u32, spacing: f64, range: f64) -> Self {
        assert!(n > 0);
        let width = (spacing * n as f64).max(1.0);
        let positions = (0..n)
            .map(|i| Position::new(i as f64 * spacing, 0.5))
            .collect();
        Topology::from_positions(Area::new(width, 1.0), range, positions)
    }

    /// A `cols × rows` grid with the given spacing.
    pub fn grid(cols: u32, rows: u32, spacing: f64, range: f64) -> Self {
        assert!(cols > 0 && rows > 0);
        let mut positions = Vec::with_capacity((cols * rows) as usize);
        for r in 0..rows {
            for c in 0..cols {
                positions.push(Position::new(c as f64 * spacing, r as f64 * spacing));
            }
        }
        let w = (spacing * cols as f64).max(1.0);
        let h = (spacing * rows as f64).max(1.0);
        Topology::from_positions(Area::new(w, h), range, positions)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        NodeId::all(self.positions.len() as u32)
    }

    /// The deployment area.
    pub fn area(&self) -> Area {
        self.area
    }

    /// The communication range in metres.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// The interference range in metres (equals the communication range
    /// unless overridden).
    pub fn interference_range(&self) -> f64 {
        self.interference_range
    }

    /// Nodes that *sense* transmissions from `node` (within the
    /// interference range, excluding itself). A superset of
    /// [`Topology::neighbors`].
    pub fn interference_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.interference_neighbors[node.index()]
    }

    /// Position of a node.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// All positions, indexed by node id.
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// Nodes within communication range of `node` (excluding itself).
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.neighbors[node.index()]
    }

    /// True if `a` and `b` are within communication range of each other.
    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        a != b
            && self.positions[a.index()].distance_sq(self.positions[b.index()])
                <= self.range * self.range
    }

    /// The node closest to the centre of the area — the paper's root.
    pub fn closest_to_center(&self) -> NodeId {
        self.closest_to(self.area.center())
    }

    /// The node closest to an arbitrary point; ties resolve to the
    /// lowest node id.
    pub fn closest_to(&self, p: Position) -> NodeId {
        let mut best = (f64::INFINITY, 0);
        for (i, q) in (0u32..).zip(&self.positions) {
            let d = q.distance_sq(p);
            if d < best.0 {
                best = (d, i);
            }
        }
        NodeId::new(best.1)
    }

    /// Nodes within `radius` of `center`'s position (including `center`),
    /// in ascending id order.
    pub fn nodes_within(&self, center: NodeId, radius: f64) -> Vec<NodeId> {
        within(&self.positions, self.positions[center.index()], radius)
            .map(NodeId::new)
            .collect()
    }

    /// BFS hop distance from `root` over the connectivity graph;
    /// `None` for unreachable nodes.
    pub fn bfs_levels(&self, root: NodeId) -> Vec<Option<u32>> {
        let mut levels = vec![None; self.node_count()];
        levels[root.index()] = Some(0);
        let mut frontier = vec![root];
        let mut depth = 0;
        while !frontier.is_empty() {
            depth += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in &self.neighbors[u.index()] {
                    if levels[v.index()].is_none() {
                        levels[v.index()] = Some(depth);
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
        levels
    }

    /// True if every node in `subset` can reach `root` using only edges
    /// between subset members.
    pub fn is_connected_subset(&self, root: NodeId, subset: &[NodeId]) -> bool {
        let in_subset: Vec<bool> = {
            let mut v = vec![false; self.node_count()];
            for &n in subset {
                v[n.index()] = true;
            }
            v
        };
        if !in_subset[root.index()] {
            return false;
        }
        let mut seen = vec![false; self.node_count()];
        seen[root.index()] = true;
        let mut stack = vec![root];
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in &self.neighbors[u.index()] {
                if in_subset[v.index()] && !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == subset.iter().filter(|n| in_subset[n.index()]).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_adjacency() {
        let t = Topology::line(5, 10.0, 12.0);
        assert_eq!(t.node_count(), 5);
        // Each interior node hears exactly its two neighbours.
        assert_eq!(
            t.neighbors(NodeId::new(2)),
            &[NodeId::new(1), NodeId::new(3)]
        );
        assert_eq!(t.neighbors(NodeId::new(0)), &[NodeId::new(1)]);
        assert!(t.are_neighbors(NodeId::new(0), NodeId::new(1)));
        assert!(!t.are_neighbors(NodeId::new(0), NodeId::new(2)));
        assert!(!t.are_neighbors(NodeId::new(3), NodeId::new(3)));
    }

    #[test]
    fn grid_dimensions() {
        let t = Topology::grid(4, 3, 10.0, 10.5);
        assert_eq!(t.node_count(), 12);
        // Corner node has 2 neighbours, interior has 4.
        assert_eq!(t.neighbors(NodeId::new(0)).len(), 2);
        assert_eq!(t.neighbors(NodeId::new(5)).len(), 4);
    }

    #[test]
    fn bfs_levels_on_line() {
        let t = Topology::line(4, 10.0, 11.0);
        let levels = t.bfs_levels(NodeId::new(0));
        assert_eq!(levels, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn bfs_unreachable_is_none() {
        // Two nodes too far apart to hear each other.
        let t = Topology::line(2, 100.0, 10.0);
        let levels = t.bfs_levels(NodeId::new(0));
        assert_eq!(levels, vec![Some(0), None]);
    }

    #[test]
    fn closest_to_center_paper_setup() {
        let mut rng = SimRng::seed_from_u64(77);
        let t = Topology::random_paper(&mut rng);
        let root = t.closest_to_center();
        let c = t.area().center();
        let d_root = t.position(root).distance_to(c);
        for n in t.nodes() {
            assert!(t.position(n).distance_to(c) >= d_root);
        }
    }

    #[test]
    fn nodes_within_radius() {
        let t = Topology::line(5, 10.0, 100.0);
        let near = t.nodes_within(NodeId::new(0), 25.0);
        assert_eq!(near, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn adjacency_is_symmetric_random() {
        let mut rng = SimRng::seed_from_u64(9);
        let t = Topology::random(40, Area::new(200.0, 200.0), 60.0, &mut rng);
        for a in t.nodes() {
            for &b in t.neighbors(a) {
                assert!(t.neighbors(b).contains(&a), "{a} -> {b} not symmetric");
            }
        }
    }

    #[test]
    fn connected_subset() {
        let t = Topology::line(5, 10.0, 11.0);
        let all: Vec<NodeId> = t.nodes().collect();
        assert!(t.is_connected_subset(NodeId::new(0), &all));
        // Removing the middle node disconnects the ends.
        let broken: Vec<NodeId> = [0u32, 1, 3, 4].iter().map(|&i| NodeId::new(i)).collect();
        assert!(!t.is_connected_subset(NodeId::new(0), &broken));
    }

    #[test]
    fn random_topology_positions_inside_area() {
        let mut rng = SimRng::seed_from_u64(123);
        let t = Topology::random(30, Area::new(50.0, 80.0), 20.0, &mut rng);
        for n in t.nodes() {
            assert!(t.area().contains(t.position(n)));
        }
    }
}

/// The disk-query contracts the channel and the tree builder rely on:
/// ascending adjacency lists, lowest-id ties, `nodes_within` in id order.
#[cfg(test)]
mod contract_tests {
    use super::*;

    /// Each adjacency list is every other node in range, ascending.
    #[test]
    fn adjacency_is_every_node_in_range_ascending() {
        for seed in [1u64, 7, 42] {
            let mut rng = SimRng::seed_from_u64(seed);
            let t = Topology::random(60, Area::new(300.0, 200.0), 70.0, &mut rng);
            let r_sq = t.range() * t.range();
            for a in t.nodes() {
                let expect: Vec<NodeId> = t
                    .nodes()
                    .filter(|&b| b != a && t.position(a).distance_sq(t.position(b)) <= r_sq)
                    .collect();
                assert_eq!(t.neighbors(a), expect.as_slice(), "node {a}");
            }
        }
    }

    /// closest_to is the nearest node, for probes inside and outside
    /// the area.
    #[test]
    fn closest_to_is_the_nearest_node() {
        let mut rng = SimRng::seed_from_u64(5);
        let t = Topology::random(50, Area::new(400.0, 400.0), 60.0, &mut rng);
        let mut probe_rng = SimRng::seed_from_u64(6);
        for _ in 0..200 {
            // Probe points inside and well outside the bounding box.
            let p = Position::new(
                probe_rng.range_f64(-100.0, 500.0),
                probe_rng.range_f64(-100.0, 500.0),
            );
            let mut best = NodeId::new(0);
            let mut best_d = f64::INFINITY;
            for n in t.nodes() {
                let d = t.position(n).distance_sq(p);
                if d < best_d {
                    best_d = d;
                    best = n;
                }
            }
            assert_eq!(t.closest_to(p), best, "probe {p:?}");
        }
    }

    /// Exact-tie probes resolve to the lowest id.
    #[test]
    fn closest_to_breaks_ties_low_id() {
        let t = Topology::grid(3, 3, 10.0, 12.0);
        // The probe sits equidistant from nodes 0, 1, 3, and 4; the
        // lowest id must win the tie.
        let p = Position::new(5.0, 5.0);
        assert_eq!(t.closest_to(p), NodeId::new(0));
    }

    /// nodes_within is the distance filter, in id order.
    #[test]
    fn nodes_within_is_an_id_ordered_filter() {
        let mut rng = SimRng::seed_from_u64(11);
        let t = Topology::random(60, Area::new(250.0, 250.0), 40.0, &mut rng);
        for center in t.nodes() {
            for radius in [5.0, 60.0, 400.0] {
                let c = t.position(center);
                let expect: Vec<NodeId> = t
                    .nodes()
                    .filter(|&n| t.position(n).distance_sq(c) <= radius * radius)
                    .collect();
                assert_eq!(t.nodes_within(center, radius), expect);
            }
        }
    }
}

#[cfg(test)]
mod interference_topology_tests {
    use super::*;

    #[test]
    fn interference_neighbors_are_superset() {
        let t = Topology::line(5, 10.0, 12.0).with_interference_range(25.0);
        assert_eq!(t.interference_range(), 25.0);
        for n in t.nodes() {
            for c in t.neighbors(n) {
                assert!(t.interference_neighbors(n).contains(c));
            }
        }
        // Node 0 decodes only node 1 but senses node 2 as well.
        assert_eq!(t.neighbors(NodeId::new(0)), &[NodeId::new(1)]);
        assert_eq!(
            t.interference_neighbors(NodeId::new(0)),
            &[NodeId::new(1), NodeId::new(2)]
        );
    }

    #[test]
    fn default_interference_equals_comm() {
        let t = Topology::line(4, 10.0, 12.0);
        assert_eq!(t.interference_range(), t.range());
        for n in t.nodes() {
            assert_eq!(t.neighbors(n), t.interference_neighbors(n));
        }
    }

    #[test]
    #[should_panic(expected = "below communication range")]
    fn shrinking_interference_rejected() {
        let _ = Topology::line(3, 10.0, 12.0).with_interference_range(5.0);
    }
}
