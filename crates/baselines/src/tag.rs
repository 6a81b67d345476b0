//! TAG/TinyDB-style level slotting, as a [`TrafficShaper`].
//!
//! The paper's related work (§2) describes TinyDB's communication
//! scheduling: it "evenly divides the period of a query into
//! communication slots for nodes at different levels in the routing
//! tree, and nodes can sleep in slots assigned to other levels", but
//! "does not address sleep scheduling for multiple queries with
//! different timing properties" and keeps each node's duty cycle fixed.
//!
//! This module implements that scheme behind the same
//! [`TrafficShaper`] interface as the ESSAT shapers, so it can run in
//! the full simulator as the `TAG-SS` protocol and be compared head to
//! head. The contrast with STS is instructive: TAG slots by **level**
//! (hops from the root), STS by **rank** (height of the subtree). On a
//! path the two coincide; on realistic, unbalanced trees a shallow leaf
//! under TAG waits out all deeper levels' slots before transmitting —
//! rank-based slotting lets it send in the very first slot.
//!
//! ```text
//! slot width  l = D / max_level
//! s(k)        = φ + k·P + l · (max_level − level)     (level ≥ 1)
//! r(k, c)     = s_c(k) = φ + k·P + l · (max_level − level − 1)
//! deadline(k) = s(k) + l
//! ```

use std::collections::BTreeMap;

use essat_core::shaper::{Expectations, Release, TrafficShaper, TreeInfo};
use essat_net::ids::NodeId;
use essat_query::model::{Query, QueryId};
use essat_sim::time::{SimDuration, SimTime};

/// The TAG/TinyDB level-slot shaper.
#[derive(Debug, Clone, Default)]
pub struct Tag {
    next_send_round: BTreeMap<QueryId, u64>,
    next_recv_round: BTreeMap<(QueryId, NodeId), u64>,
}

impl Tag {
    /// Creates a TAG shaper.
    pub fn new() -> Self {
        Tag::default()
    }

    /// Slot width `l = D / max_level` (clamped for single-node trees).
    pub fn slot_width(q: &Query, tree: &TreeInfo<'_>) -> SimDuration {
        q.deadline / tree.max_level.max(1) as u64
    }

    /// This node's send slot for round `k`: deeper levels go first.
    fn send_slot(q: &Query, k: u64, tree: &TreeInfo<'_>) -> SimTime {
        let slots_before = tree.max_level.saturating_sub(tree.own_level) as u64;
        q.round_start(k) + Self::slot_width(q, tree) * slots_before
    }

    /// Children sit one level deeper, hence one slot earlier.
    fn recv_slot(q: &Query, k: u64, tree: &TreeInfo<'_>) -> SimTime {
        let child_level = tree.own_level + 1;
        let slots_before = tree.max_level.saturating_sub(child_level) as u64;
        q.round_start(k) + Self::slot_width(q, tree) * slots_before
    }
}

impl TrafficShaper for Tag {
    fn register(&mut self, q: &Query, tree: &TreeInfo<'_>, is_root: bool) -> Expectations {
        self.next_send_round.insert(q.id, 0);
        for &(c, _) in tree.children {
            self.next_recv_round.insert((q.id, c), 0);
        }
        Expectations {
            snext: (!is_root).then(|| Self::send_slot(q, 0, tree)),
            rnext: tree
                .children
                .iter()
                .map(|&(c, _)| (c, Self::recv_slot(q, 0, tree)))
                .collect(),
        }
    }

    fn deregister(&mut self, q: &Query) {
        self.next_send_round.remove(&q.id);
        self.next_recv_round.retain(|&(qq, _), _| qq != q.id);
    }

    fn release(&mut self, q: &Query, k: u64, ready_at: SimTime, tree: &TreeInfo<'_>) -> Release {
        Release {
            send_at: ready_at.max(Self::send_slot(q, k, tree)),
            piggyback: None,
        }
    }

    fn after_send(&mut self, q: &Query, k: u64, _now: SimTime, tree: &TreeInfo<'_>) -> SimTime {
        self.next_send_round.insert(q.id, k + 1);
        Self::send_slot(q, k + 1, tree)
    }

    fn after_receive(
        &mut self,
        q: &Query,
        child: NodeId,
        k: u64,
        _now: SimTime,
        _piggyback: Option<SimTime>,
        tree: &TreeInfo<'_>,
    ) -> SimTime {
        self.next_recv_round.insert((q.id, child), k + 1);
        Self::recv_slot(q, k + 1, tree)
    }

    fn collection_deadline(&self, q: &Query, k: u64, tree: &TreeInfo<'_>) -> SimTime {
        Self::send_slot(q, k, tree) + Self::slot_width(q, tree)
    }

    fn child_timed_out(
        &mut self,
        q: &Query,
        child: NodeId,
        k: u64,
        tree: &TreeInfo<'_>,
    ) -> SimTime {
        self.next_recv_round.insert((q.id, child), k + 1);
        Self::recv_slot(q, k + 1, tree)
    }

    fn remove_child(&mut self, q: &Query, child: NodeId) {
        self.next_recv_round.remove(&(q.id, child));
    }

    fn on_topology_change(
        &mut self,
        q: &Query,
        tree: &TreeInfo<'_>,
        is_root: bool,
        _now: SimTime,
    ) -> Option<Expectations> {
        // Level-based schedules re-derive from the new topology, like STS.
        let k_send = self.next_send_round.get(&q.id).copied().unwrap_or(0);
        let rnext = tree
            .children
            .iter()
            .map(|&(c, _)| {
                let k = *self.next_recv_round.entry((q.id, c)).or_insert(k_send);
                (c, Self::recv_slot(q, k, tree))
            })
            .collect();
        Some(Expectations {
            snext: (!is_root).then(|| Self::send_slot(q, k_send, tree)),
            rnext,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use essat_query::aggregate::AggregateOp;

    fn q() -> Query {
        // P = D = 200 ms, φ = 1 s.
        Query::periodic(
            QueryId::new(0),
            SimDuration::from_millis(200),
            SimTime::from_secs(1),
            AggregateOp::Sum,
        )
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// Level-1 node in a 4-level tree (children at level 2).
    fn level1(children: &[(NodeId, u32)]) -> TreeInfo<'_> {
        TreeInfo {
            own_rank: 3,
            max_rank: 4,
            own_level: 1,
            max_level: 4,
            children,
        }
    }

    #[test]
    fn slots_follow_levels_deepest_first() {
        // l = 200/4 = 50 ms. Level-1 sends in slot 3 (last), children at
        // level 2 in slot 2.
        let children = [(n(5), 2)];
        let tree = level1(&children);
        let mut tag = Tag::new();
        let e = tag.register(&q(), &tree, false);
        assert_eq!(e.snext, Some(ms(1150)));
        assert_eq!(e.rnext, vec![(n(5), ms(1100))]);
        // A deepest-level leaf sends in the first slot.
        let leaf = TreeInfo {
            own_rank: 0,
            max_rank: 4,
            own_level: 4,
            max_level: 4,
            children: &[],
        };
        let e_leaf = tag.register(&q(), &leaf, false);
        assert_eq!(e_leaf.snext, Some(ms(1000)));
    }

    #[test]
    fn shallow_leaf_pays_the_level_penalty() {
        // The structural difference vs STS: a *shallow* leaf (level 1 in
        // a 4-level tree) still waits for slot 3 under TAG, whereas
        // STS's rank-0 slot would let it send immediately.
        let shallow_leaf = TreeInfo {
            own_rank: 0,
            max_rank: 4,
            own_level: 1,
            max_level: 4,
            children: &[],
        };
        let mut tag = Tag::new();
        let e = tag.register(&q(), &shallow_leaf, false);
        assert_eq!(e.snext, Some(ms(1150)), "waits out deeper levels' slots");
    }

    #[test]
    fn early_buffer_late_immediate() {
        let children = [(n(5), 2)];
        let tree = level1(&children);
        let mut tag = Tag::new();
        tag.register(&q(), &tree, false);
        let early = tag.release(&q(), 0, ms(1010), &tree);
        assert_eq!(early.send_at, ms(1150));
        assert_eq!(early.piggyback, None);
        let late = tag.release(&q(), 1, ms(1390), &tree);
        assert_eq!(late.send_at, ms(1390));
    }

    #[test]
    fn schedule_advances_by_period() {
        let children = [(n(5), 2)];
        let tree = level1(&children);
        let mut tag = Tag::new();
        tag.register(&q(), &tree, false);
        assert_eq!(tag.after_send(&q(), 0, ms(1150), &tree), ms(1350));
        assert_eq!(
            tag.after_receive(&q(), n(5), 0, ms(1105), None, &tree),
            ms(1300)
        );
        assert_eq!(tag.child_timed_out(&q(), n(5), 1, &tree), ms(1500));
    }

    #[test]
    fn deadline_one_slot_past_send() {
        let children = [(n(5), 2)];
        let tree = level1(&children);
        let tag = Tag::new();
        assert_eq!(tag.collection_deadline(&q(), 0, &tree), ms(1200));
    }

    #[test]
    fn topology_change_rederives() {
        let children = [(n(5), 2)];
        let tree = level1(&children);
        let mut tag = Tag::new();
        tag.register(&q(), &tree, false);
        tag.after_send(&q(), 0, ms(1150), &tree);
        // The tree deepens to 5 levels: slot width shrinks to 40 ms and
        // this node (still level 1) moves to slot 4.
        let deeper = TreeInfo {
            own_rank: 4,
            max_rank: 5,
            own_level: 1,
            max_level: 5,
            children: &children,
        };
        let e = tag
            .on_topology_change(&q(), &deeper, false, ms(1200))
            .expect("TAG re-derives like STS");
        // Next send round is 1: φ + P + 4·40 ms.
        assert_eq!(e.snext, Some(ms(1360)));
    }

    #[test]
    fn no_phase_machinery() {
        let tag = Tag::new();
        assert!(!tag.wants_phase_resync());
    }
}
