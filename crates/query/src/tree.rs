//! The aggregation routing tree.
//!
//! The paper's query service floods a setup request from the root; each
//! node picks the neighbour with the lowest level as its parent. The
//! resulting tree determines:
//!
//! * **level** — hop count from the root (down the tree);
//! * **rank** `d` — the maximum hop count from a node to any of its
//!   descendants (leaves have rank 0). STS allocates its local deadline
//!   per rank, and NTS's idle listening grows linearly with rank
//!   (paper §4.2.1);
//! * `M` — the maximum rank in the tree (the root's rank), which sets
//!   STS's local deadline `l = D / M`.
//!
//! [`RoutingTree::build`] constructs the tree deterministically
//! (lowest level, ties by lowest node id — matching the paper's rule with
//! a deterministic tie-break). [`RoutingTree::fail_node`] implements the
//! §4.3 topology-change recovery: orphaned children re-parent to the best
//! surviving neighbour, and levels/ranks are recomputed so STS can learn
//! its new ranks.
//!
//! # Examples
//!
//! ```
//! use essat_net::ids::NodeId;
//! use essat_net::topology::Topology;
//! use essat_query::tree::RoutingTree;
//!
//! let topo = Topology::line(4, 10.0, 12.0); // 0 - 1 - 2 - 3
//! let tree = RoutingTree::build(&topo, NodeId::new(0), None);
//! assert_eq!(tree.parent(NodeId::new(2)), Some(NodeId::new(1)));
//! assert_eq!(tree.rank(NodeId::new(0)), 3); // root sees depth-3 subtree
//! assert_eq!(tree.max_rank(), 3);
//! assert!(tree.is_leaf(NodeId::new(3)));
//! ```

use essat_net::ids::NodeId;
use essat_net::topology::Topology;

/// Aggregation tree rooted at the base station.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTree {
    root: NodeId,
    /// Parent per node; `None` for the root and for non-members.
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    /// Hop count from root; `None` for non-members.
    level: Vec<Option<u32>>,
    /// Max hop count to any descendant; 0 for leaves and non-members.
    rank: Vec<u32>,
    /// `children` paired with each child's rank (what the power
    /// policies read), rebuilt with the ranks.
    child_ranks: Vec<Vec<(NodeId, u32)>>,
    member: Vec<bool>,
    members: Vec<NodeId>,
}

impl RoutingTree {
    /// Builds the tree by BFS from `root`, restricted to nodes within
    /// `radius_limit` metres of the root when given (the paper uses
    /// 300 m).
    ///
    /// Parent selection is the paper's rule: the neighbour with the
    /// lowest level, ties broken by lowest node id.
    pub fn build(topology: &Topology, root: NodeId, radius_limit: Option<f64>) -> Self {
        let n = topology.node_count();
        let eligible: Vec<bool> = match radius_limit {
            None => vec![true; n],
            Some(r) => {
                let mut v = vec![false; n];
                for node in topology.nodes_within(root, r) {
                    v[node.index()] = true;
                }
                v
            }
        };
        assert!(eligible[root.index()], "root outside its own radius");

        let mut level: Vec<Option<u32>> = vec![None; n];
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        level[root.index()] = Some(0);
        let mut frontier = vec![root];
        let mut depth = 0u32;
        while !frontier.is_empty() {
            depth += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                // Deterministic order: neighbours are stored sorted by id.
                for &v in topology.neighbors(u) {
                    if eligible[v.index()] && level[v.index()].is_none() {
                        level[v.index()] = Some(depth);
                        parent[v.index()] = Some(u);
                        next.push(v);
                    }
                }
            }
            // BFS visits parents in id order within a level, so the
            // lowest-id lowest-level neighbour wins ties, deterministically.
            next.sort_unstable();
            frontier = next;
        }

        let mut tree = RoutingTree {
            root,
            parent,
            children: vec![Vec::new(); n],
            level,
            rank: vec![0; n],
            child_ranks: vec![Vec::new(); n],
            member: vec![false; n],
            members: Vec::new(),
        };
        tree.rebuild_derived();
        tree
    }

    /// Recomputes children lists, membership, ranks and the
    /// `(child, rank)` lists from the parent array + levels.
    fn rebuild_derived(&mut self) {
        let n = self.parent.len();
        for c in &mut self.children {
            c.clear();
        }
        self.members.clear();
        for i in 0..n {
            self.member[i] = self.level[i].is_some();
            if self.member[i] {
                self.members.push(NodeId::new(i as u32));
            }
            if let Some(p) = self.parent[i] {
                self.children[p.index()].push(NodeId::new(i as u32));
            }
        }
        for c in &mut self.children {
            c.sort_unstable();
        }
        // Ranks: process members deepest-level first so children are done
        // before parents.
        let mut order: Vec<NodeId> = self.members.clone();
        order.sort_unstable_by_key(|m| std::cmp::Reverse(self.level[m.index()]));
        for &u in &order {
            let r = self.children[u.index()]
                .iter()
                .map(|c| self.rank[c.index()] + 1)
                .max()
                .unwrap_or(0);
            self.rank[u.index()] = r;
        }
        for (i, kids) in self.children.iter().enumerate() {
            let ranked = &mut self.child_ranks[i];
            ranked.clear();
            ranked.extend(kids.iter().map(|&c| (c, self.rank[c.index()])));
        }
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// True if `node` is part of the tree.
    pub fn is_member(&self, node: NodeId) -> bool {
        self.member[node.index()]
    }

    /// All member nodes, sorted by id.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Parent of `node` (`None` for the root or non-members).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.index()]
    }

    /// Children of `node`, sorted by id.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node.index()]
    }

    /// Hop count from the root (`None` for non-members).
    pub fn level(&self, node: NodeId) -> Option<u32> {
        self.level[node.index()]
    }

    /// The paper's rank `d`: max hop count to any descendant; 0 for
    /// leaves.
    pub fn rank(&self, node: NodeId) -> u32 {
        self.rank[node.index()]
    }

    /// The maximum rank `M` (the root's rank). Every member reaches
    /// the root, so this is also the deepest member level.
    pub fn max_rank(&self) -> u32 {
        self.rank[self.root.index()]
    }

    /// Children of `node` with their ranks, sorted by id.
    pub fn child_ranks(&self, node: NodeId) -> &[(NodeId, u32)] {
        &self.child_ranks[node.index()]
    }

    /// True if `node` is a member with no children.
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.member[node.index()] && self.children[node.index()].is_empty()
    }

    /// All leaves, sorted by id.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.members
            .iter()
            .copied()
            .filter(|&m| self.is_leaf(m))
            .collect()
    }

    /// Number of members.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// True if `desc` lies in the subtree rooted at `anc` (a node is its
    /// own descendant).
    pub fn is_descendant(&self, desc: NodeId, anc: NodeId) -> bool {
        let mut cur = Some(desc);
        while let Some(u) = cur {
            if u == anc {
                return true;
            }
            cur = self.parent[u.index()];
        }
        false
    }

    /// Members of the subtree rooted at `node` (including `node`).
    pub fn subtree(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(u) = stack.pop() {
            out.push(u);
            stack.extend(self.children[u.index()].iter().copied());
        }
        out.sort_unstable();
        out
    }

    /// Removes a failed node (§4.3 topology change). Each orphaned child
    /// re-parents to its best surviving neighbour — lowest level, ties by
    /// lowest id, never inside its own subtree. Orphans with no valid new
    /// parent leave the tree together with their subtrees. Levels and
    /// ranks are recomputed.
    ///
    /// Returns the list of nodes whose parent changed (the re-attached
    /// orphans), which the protocol layer uses to trigger its §4.3
    /// recovery actions.
    ///
    /// # Panics
    ///
    /// Panics if `failed` is the root (the paper assumes the base station
    /// survives) or not a member.
    pub fn fail_node(&mut self, topology: &Topology, failed: NodeId) -> Vec<NodeId> {
        self.fail_node_by(topology, failed, &|_, _| 1.0)
    }

    /// [`RoutingTree::fail_node`] with a caller-supplied directed
    /// link-quality estimate: each orphan's candidates are ordered by
    /// (lowest level, highest `quality(orphan, candidate)`, lowest id).
    /// With a constant quality this is exactly `fail_node` — the
    /// quality only breaks ties within a level, so the legacy (level,
    /// id) rule is the flat special case.
    ///
    /// # Panics
    ///
    /// Panics if `failed` is the root or not a member.
    pub fn fail_node_by(
        &mut self,
        topology: &Topology,
        failed: NodeId,
        quality: &dyn Fn(NodeId, NodeId) -> f64,
    ) -> Vec<NodeId> {
        assert!(failed != self.root, "cannot fail the root/base station");
        assert!(self.member[failed.index()], "{failed} is not a tree member");

        let orphans: Vec<NodeId> = self.children[failed.index()].clone();
        // Remove the failed node.
        self.level[failed.index()] = None;
        self.parent[failed.index()] = None;
        self.member[failed.index()] = false;

        let mut reattached = Vec::new();
        for orphan in orphans {
            // Candidate parents: surviving members (the failed node no
            // longer is one) outside the orphan's own subtree.
            let skip = |cand| self.is_descendant_via(cand, orphan, failed);
            match self.best_parent(topology, orphan, quality, skip) {
                Some(new_parent) => {
                    self.parent[orphan.index()] = Some(new_parent);
                    reattached.push(orphan);
                }
                // Orphan subtree drops out of the tree.
                None => self.drop_subtree(orphan),
            }
        }

        self.recompute_levels();
        self.rebuild_derived();
        reattached
    }

    /// Re-admits a recovered node (scenario churn: failure *and*
    /// recovery). The node attaches as a leaf under its best member
    /// neighbour — lowest level, ties by lowest id, the same rule
    /// [`RoutingTree::build`] uses — and levels/ranks are recomputed.
    /// This is [`RoutingTree::adopt_orphan`] under a flat quality.
    ///
    /// Returns the new parent, or `None` if no member neighbour is in
    /// range (the node stays outside the tree; a later recovery of a
    /// bridging node may let it back in). Idempotent: rejoining a
    /// current member returns its existing parent unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `node` is the root (the base station never leaves the
    /// tree).
    pub fn rejoin_node(&mut self, topology: &Topology, node: NodeId) -> Option<NodeId> {
        self.adopt_orphan(topology, node, &|_, _| 1.0)
    }

    /// Moves a live member — together with its entire subtree — under a
    /// new parent (§4.3 self-healing: the node detected its current
    /// parent failed or degraded). Candidates are member neighbours
    /// outside the node's own subtree and distinct from its current
    /// parent; the best is chosen by lowest level, then highest
    /// `quality(node, candidate)` (the caller's directed link-quality
    /// estimate), then lowest id. Levels and ranks are recomputed so the
    /// moved subtree learns its new depths.
    ///
    /// Returns the new parent, or `None` when no valid candidate exists
    /// (the node keeps its current parent; the caller retries later with
    /// backoff).
    ///
    /// # Panics
    ///
    /// Panics if `node` is the root or not a member.
    pub fn reparent(
        &mut self,
        topology: &Topology,
        node: NodeId,
        quality: &dyn Fn(NodeId, NodeId) -> f64,
    ) -> Option<NodeId> {
        assert!(node != self.root, "the root never re-parents");
        assert!(self.member[node.index()], "{node} is not a tree member");
        let old_parent = self.parent[node.index()];
        // Acyclicity: never attach under one's own descendant.
        let new_parent = self.best_parent(topology, node, quality, |cand| {
            Some(cand) == old_parent || self.is_descendant(cand, node)
        })?;
        self.parent[node.index()] = Some(new_parent);
        self.recompute_levels();
        self.rebuild_derived();
        Some(new_parent)
    }

    /// Re-admits an orphaned (non-member, still alive) node under its
    /// best member neighbour — lowest level, then highest
    /// `quality(orphan, candidate)`, then lowest id. The link-quality
    /// tie-break lets a recovering network prefer the parent it can
    /// actually talk to; [`RoutingTree::rejoin_node`] is the flat-quality
    /// case. Idempotent: adopting a current member returns its existing
    /// parent and changes nothing.
    ///
    /// Returns the new parent, or `None` when no member neighbour is in
    /// range (a later adoption of a bridging node may let it back in —
    /// callers sweep orphans to fixpoint for exactly this reason).
    ///
    /// # Panics
    ///
    /// Panics if `orphan` is the root.
    pub fn adopt_orphan(
        &mut self,
        topology: &Topology,
        orphan: NodeId,
        quality: &dyn Fn(NodeId, NodeId) -> f64,
    ) -> Option<NodeId> {
        assert!(orphan != self.root, "the root never leaves the tree");
        if self.member[orphan.index()] {
            return self.parent[orphan.index()];
        }
        let new_parent = self.best_parent(topology, orphan, quality, |_| false)?;
        self.parent[orphan.index()] = Some(new_parent);
        self.recompute_levels();
        self.rebuild_derived();
        Some(new_parent)
    }

    /// The parent rule every repair shares: among `node`'s member
    /// neighbours that `skip` does not exclude, the lowest level, then
    /// the highest `quality(node, candidate)`, then the lowest id. A
    /// non-finite quality is a veto (the simulator encodes "candidate is
    /// dead" as -inf): the candidate is skipped, not merely
    /// deprioritised, because level dominates the order.
    fn best_parent(
        &self,
        topology: &Topology,
        node: NodeId,
        quality: &dyn Fn(NodeId, NodeId) -> f64,
        skip: impl Fn(NodeId) -> bool,
    ) -> Option<NodeId> {
        let mut best: Option<(u32, f64, NodeId)> = None;
        for &cand in topology.neighbors(node) {
            if !self.member[cand.index()] || skip(cand) {
                continue;
            }
            let Some(lvl) = self.level[cand.index()] else {
                continue;
            };
            let q = quality(node, cand);
            if !q.is_finite() {
                continue;
            }
            let better = match best {
                None => true,
                Some((bl, bq, bid)) => {
                    lvl < bl || (lvl == bl && (q > bq || (q == bq && cand < bid)))
                }
            };
            if better {
                best = Some((lvl, q, cand));
            }
        }
        best.map(|(_, _, p)| p)
    }

    /// `is_descendant` that tolerates the broken parent pointers present
    /// mid-failure (stops at `failed`).
    fn is_descendant_via(&self, desc: NodeId, anc: NodeId, failed: NodeId) -> bool {
        let mut cur = Some(desc);
        while let Some(u) = cur {
            if u == anc {
                return true;
            }
            if u == failed {
                return false;
            }
            cur = self.parent[u.index()];
        }
        false
    }

    fn drop_subtree(&mut self, node: NodeId) {
        let mut stack = vec![node];
        while let Some(u) = stack.pop() {
            self.level[u.index()] = None;
            self.parent[u.index()] = None;
            self.member[u.index()] = false;
            stack.extend(self.children[u.index()].iter().copied());
        }
    }

    /// Recomputes levels by walking tree edges from the root (parent
    /// pointers are authoritative).
    fn recompute_levels(&mut self) {
        let n = self.parent.len();
        // children-from-parents, transient.
        let mut kids: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for i in 0..n {
            if let Some(p) = self.parent[i] {
                kids[p.index()].push(NodeId::new(i as u32));
            }
        }
        for l in &mut self.level {
            *l = None;
        }
        self.level[self.root.index()] = Some(0);
        let mut stack = vec![self.root];
        while let Some(u) = stack.pop() {
            let lvl = self.level[u.index()].expect("visited");
            for &c in &kids[u.index()] {
                self.level[c.index()] = Some(lvl + 1);
                stack.push(c);
            }
        }
        // Anything unreachable from the root is no longer a member.
        for i in 0..n {
            if self.level[i].is_none() {
                self.parent[i] = None;
                self.member[i] = false;
            }
        }
    }

    /// Exhaustive structural validation; used by tests and debug builds.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        assert!(self.member[self.root.index()], "root must be a member");
        assert_eq!(self.level[self.root.index()], Some(0), "root level 0");
        assert!(
            self.parent[self.root.index()].is_none(),
            "root has no parent"
        );
        for &m in &self.members {
            let i = m.index();
            assert!(self.member[i]);
            let lvl = self.level[i].expect("member has a level");
            if m != self.root {
                let p = self.parent[i].expect("non-root member has a parent");
                assert!(self.member[p.index()], "parent {p} of {m} is a member");
                assert_eq!(
                    self.level[p.index()].map(|l| l + 1),
                    Some(lvl),
                    "level({m}) = level(parent)+1"
                );
                assert!(
                    self.children[p.index()].contains(&m),
                    "{m} listed among {p}'s children"
                );
            }
            // Rank definition check.
            let expect = self.children[i]
                .iter()
                .map(|c| self.rank[c.index()] + 1)
                .max()
                .unwrap_or(0);
            assert_eq!(self.rank[i], expect, "rank({m})");
            // Acyclicity: walking parents reaches the root.
            assert!(self.is_descendant(m, self.root), "{m} reaches root");
        }
        let deepest = self.members.iter().filter_map(|&m| self.level[m.index()]);
        assert_eq!(
            Some(self.max_rank()),
            deepest.max(),
            "max rank is the deepest member level"
        );
        for (i, kids) in self.children.iter().enumerate() {
            let ranked: Vec<(NodeId, u32)> =
                kids.iter().map(|&c| (c, self.rank[c.index()])).collect();
            assert_eq!(self.child_ranks[i], ranked, "child ranks of n{i}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn line_tree_structure() {
        let topo = Topology::line(5, 10.0, 12.0);
        let tree = RoutingTree::build(&topo, n(0), None);
        tree.check_invariants();
        assert_eq!(tree.member_count(), 5);
        assert_eq!(tree.level(n(3)), Some(3));
        assert_eq!(tree.rank(n(0)), 4);
        assert_eq!(tree.rank(n(4)), 0);
        assert_eq!(tree.rank(n(2)), 2);
        assert_eq!(tree.max_rank(), 4);
        assert_eq!(tree.leaves(), vec![n(4)]);
        assert_eq!(tree.children(n(1)), &[n(2)]);
    }

    #[test]
    fn grid_tree_parent_rule_is_deterministic() {
        let topo = Topology::grid(3, 3, 10.0, 10.5);
        let a = RoutingTree::build(&topo, n(4), None);
        let b = RoutingTree::build(&topo, n(4), None);
        assert_eq!(a, b);
        a.check_invariants();
        // Node 0 (corner) has neighbours 1 and 3, both level 1; the
        // tie-break picks the lower id via BFS order.
        assert_eq!(a.parent(n(0)), Some(n(1)));
    }

    #[test]
    fn radius_limit_excludes_far_nodes() {
        let topo = Topology::line(5, 10.0, 12.0);
        let tree = RoutingTree::build(&topo, n(0), Some(25.0));
        tree.check_invariants();
        assert_eq!(tree.member_count(), 3);
        assert!(!tree.is_member(n(3)));
        assert!(!tree.is_member(n(4)));
        assert_eq!(tree.max_rank(), 2);
    }

    #[test]
    fn subtree_and_descendants() {
        let topo = Topology::line(4, 10.0, 12.0);
        let tree = RoutingTree::build(&topo, n(0), None);
        assert_eq!(tree.subtree(n(1)), vec![n(1), n(2), n(3)]);
        assert!(tree.is_descendant(n(3), n(1)));
        assert!(tree.is_descendant(n(1), n(1)));
        assert!(!tree.is_descendant(n(1), n(3)));
    }

    #[test]
    fn fail_interior_node_reattaches_children() {
        // Diamond: 0 at root; 1 and 2 both level 1; 3 connected to both 1
        // and 2 at level 2.
        let topo = Topology::grid(2, 2, 10.0, 10.5); // 0-1 / 2-3 square
        let mut tree = RoutingTree::build(&topo, n(0), None);
        tree.check_invariants();
        // 3's parent is 1 (lowest id of the two level-1 neighbours).
        assert_eq!(tree.parent(n(3)), Some(n(1)));
        let moved = tree.fail_node(&topo, n(1));
        tree.check_invariants();
        assert_eq!(moved, vec![n(3)]);
        assert_eq!(tree.parent(n(3)), Some(n(2)), "re-parented to survivor");
        assert!(!tree.is_member(n(1)));
        assert_eq!(tree.member_count(), 3);
    }

    #[test]
    fn fail_node_drops_disconnected_subtree() {
        let topo = Topology::line(4, 10.0, 12.0);
        let mut tree = RoutingTree::build(&topo, n(0), None);
        let moved = tree.fail_node(&topo, n(1));
        tree.check_invariants();
        assert!(moved.is_empty());
        // 2 and 3 can no longer reach the root.
        assert!(!tree.is_member(n(2)));
        assert!(!tree.is_member(n(3)));
        assert_eq!(tree.member_count(), 1);
        assert_eq!(tree.max_rank(), 0);
    }

    #[test]
    fn fail_leaf_shrinks_ranks() {
        let topo = Topology::line(3, 10.0, 12.0);
        let mut tree = RoutingTree::build(&topo, n(0), None);
        assert_eq!(tree.max_rank(), 2);
        let moved = tree.fail_node(&topo, n(2));
        assert!(moved.is_empty());
        tree.check_invariants();
        assert_eq!(tree.max_rank(), 1);
        assert!(tree.is_leaf(n(1)));
    }

    #[test]
    fn reparenting_never_creates_cycles() {
        // Star-of-line: 0 - 1 - 2, and 2 - 3 where 3 also hears 2 only.
        // Failing 1 leaves 2,3 with no path: both drop.
        let topo = Topology::line(4, 10.0, 12.0);
        let mut tree = RoutingTree::build(&topo, n(0), None);
        tree.fail_node(&topo, n(1));
        tree.check_invariants();
    }

    #[test]
    fn rejoin_after_failure_restores_membership() {
        let topo = Topology::line(3, 10.0, 12.0);
        let mut tree = RoutingTree::build(&topo, n(0), None);
        tree.fail_node(&topo, n(2));
        assert!(!tree.is_member(n(2)));
        let parent = tree.rejoin_node(&topo, n(2));
        tree.check_invariants();
        assert_eq!(parent, Some(n(1)));
        assert!(tree.is_member(n(2)));
        assert_eq!(tree.level(n(2)), Some(2));
        assert_eq!(tree.max_rank(), 2, "ranks recomputed on rejoin");
    }

    #[test]
    fn rejoin_picks_lowest_level_then_lowest_id() {
        // 2x2 grid rooted at 0: failing 3 then rejoining must pick 1
        // (level 1, lower id than 2).
        let topo = Topology::grid(2, 2, 10.0, 10.5);
        let mut tree = RoutingTree::build(&topo, n(0), None);
        tree.fail_node(&topo, n(3));
        let parent = tree.rejoin_node(&topo, n(3));
        tree.check_invariants();
        assert_eq!(parent, Some(n(1)));
    }

    #[test]
    fn rejoin_without_reachable_member_stays_out() {
        // Failing 1 on a line disconnects 2 and 3; 3 cannot rejoin (its
        // only neighbour, 2, is not a member), and the call is a no-op.
        let topo = Topology::line(4, 10.0, 12.0);
        let mut tree = RoutingTree::build(&topo, n(0), None);
        tree.fail_node(&topo, n(1));
        assert_eq!(tree.rejoin_node(&topo, n(3)), None);
        tree.check_invariants();
        assert!(!tree.is_member(n(3)));
        // Rejoining 1 re-admits it; then 2, then 3 can chain back in.
        assert_eq!(tree.rejoin_node(&topo, n(1)), Some(n(0)));
        assert_eq!(tree.rejoin_node(&topo, n(2)), Some(n(1)));
        assert_eq!(tree.rejoin_node(&topo, n(3)), Some(n(2)));
        tree.check_invariants();
        assert_eq!(tree.member_count(), 4);
    }

    #[test]
    fn rejoin_of_member_is_idempotent() {
        let topo = Topology::line(3, 10.0, 12.0);
        let mut tree = RoutingTree::build(&topo, n(0), None);
        let before = tree.clone();
        assert_eq!(tree.rejoin_node(&topo, n(2)), Some(n(1)));
        assert_eq!(tree, before);
    }

    /// Neutral quality: every link scores the same, so selection falls
    /// back to (level, id) — the original §4.3 rule.
    fn flat(_: NodeId, _: NodeId) -> f64 {
        1.0
    }

    #[test]
    fn reparent_moves_whole_subtree() {
        // 3x3 grid rooted at 0. Node 4 (level 2, parent 1) has child 7;
        // its candidates are 3 (level 1) and 5 (level 2) — 1 is the
        // current parent and 7 its own descendant. Lowest level wins:
        // the subtree (4, 7) moves under 3 and levels are recomputed.
        let topo = Topology::grid(3, 3, 10.0, 10.5);
        let mut tree = RoutingTree::build(&topo, n(0), None);
        assert_eq!(tree.parent(n(4)), Some(n(1)));
        assert_eq!(tree.parent(n(7)), Some(n(4)));
        let new_parent = tree.reparent(&topo, n(4), &flat);
        tree.check_invariants();
        assert_eq!(new_parent, Some(n(3)), "lowest-level candidate");
        assert_eq!(tree.parent(n(7)), Some(n(4)), "subtree intact");
        assert_eq!(tree.level(n(4)), Some(2));
        assert_eq!(tree.level(n(7)), Some(3), "subtree levels recomputed");
    }

    #[test]
    fn reparent_prefers_link_quality_within_a_level() {
        // 2x2 grid rooted at 0: node 3 hears 1 and 2, both level 1.
        // Flat quality picks 1 (lowest id); degrading 3->1 flips the
        // choice to 2.
        let topo = Topology::grid(2, 2, 10.0, 10.5);
        let mut tree = RoutingTree::build(&topo, n(0), None);
        assert_eq!(tree.parent(n(3)), Some(n(1)));
        // Current parent (1) is excluded, so flat quality moves 3 to 2.
        assert_eq!(tree.reparent(&topo, n(3), &flat), Some(n(2)));
        // Now the current parent is 2; quality says 2 is great and 1 is
        // terrible — but 2 is excluded as the current parent, so 1 wins
        // by being the only candidate.
        let q = |_c: NodeId, p: NodeId| if p == n(1) { 0.1 } else { 0.9 };
        assert_eq!(tree.reparent(&topo, n(3), &q), Some(n(1)));
        tree.check_invariants();
    }

    #[test]
    fn reparent_never_attaches_into_own_subtree() {
        // Line 0-1-2-3: node 1's only non-parent neighbour is its own
        // child 2 — no valid candidate, tree unchanged.
        let topo = Topology::line(4, 10.0, 12.0);
        let mut tree = RoutingTree::build(&topo, n(0), None);
        let before = tree.clone();
        assert_eq!(tree.reparent(&topo, n(1), &flat), None);
        assert_eq!(tree, before);
        tree.check_invariants();
    }

    #[test]
    fn adopt_orphan_uses_quality_and_is_idempotent() {
        let topo = Topology::grid(2, 2, 10.0, 10.5);
        let mut tree = RoutingTree::build(&topo, n(0), None);
        tree.fail_node(&topo, n(3));
        assert!(!tree.is_member(n(3)));
        // Both 1 and 2 are level-1 members; quality prefers 2.
        let q = |_c: NodeId, p: NodeId| if p == n(2) { 0.9 } else { 0.2 };
        assert_eq!(tree.adopt_orphan(&topo, n(3), &q), Some(n(2)));
        tree.check_invariants();
        assert!(tree.is_member(n(3)));
        // Idempotent: adopting a member returns its parent, unchanged.
        let before = tree.clone();
        assert_eq!(tree.adopt_orphan(&topo, n(3), &q), Some(n(2)));
        assert_eq!(tree, before);
    }

    #[test]
    fn adoption_sweep_recovers_partition() {
        // Failing 1 on a line drops 2 and 3. Sweeping adopt_orphan in id
        // order until fixpoint chains the whole partition back once 1
        // recovers.
        let topo = Topology::line(4, 10.0, 12.0);
        let mut tree = RoutingTree::build(&topo, n(0), None);
        tree.fail_node(&topo, n(1));
        assert_eq!(tree.member_count(), 1);
        assert_eq!(tree.adopt_orphan(&topo, n(3), &flat), None, "no bridge yet");
        assert_eq!(tree.adopt_orphan(&topo, n(1), &flat), Some(n(0)));
        assert_eq!(tree.adopt_orphan(&topo, n(2), &flat), Some(n(1)));
        assert_eq!(tree.adopt_orphan(&topo, n(3), &flat), Some(n(2)));
        tree.check_invariants();
        assert_eq!(tree.member_count(), 4);
    }

    #[test]
    #[should_panic(expected = "cannot fail the root")]
    fn failing_root_rejected() {
        let topo = Topology::line(2, 10.0, 12.0);
        let mut tree = RoutingTree::build(&topo, n(0), None);
        tree.fail_node(&topo, n(0));
    }

    #[test]
    fn paper_scale_tree_is_valid() {
        use essat_sim::rng::SimRng;
        let mut rng = SimRng::seed_from_u64(2024);
        let topo = Topology::random_paper(&mut rng);
        let root = topo.closest_to_center();
        let tree = RoutingTree::build(&topo, root, Some(300.0));
        tree.check_invariants();
        assert!(tree.member_count() > 40, "most of 80 nodes join");
        assert!(tree.max_rank() >= 2);
        // Every member is within 300 m of the root.
        for &m in tree.members() {
            assert!(topo.position(m).distance_to(topo.position(root)) <= 300.0);
        }
    }
}
