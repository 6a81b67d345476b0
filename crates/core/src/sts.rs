//! STS — Static Traffic Shaper (§4.2.2).
//!
//! STS paces a report's multi-hop journey across a deadline `D` by
//! allocating one slot of width `l = D / M` to each rank (`M` = maximum
//! rank of the tree). A node of rank `d` expects each child `c`'s report
//! at the child's own send slot and sends its aggregate at the end of its
//! own slot:
//!
//! ```text
//! r(k, c) = φ + k·P + l·rank(c)        (reception = child's send slot)
//! s(k)    = φ + k·P + l·d
//! ```
//!
//! Early reports are buffered until `s(k)`; late ones are sent
//! immediately. A parent seals round `k` one slot after its own send
//! slot, at `s(k) + l`. The paper's analysis (eq. 2–3) predicts the trade-off the
//! harness reproduces as Figure 2: query latency `L_q = M·max(l, T_agg)`,
//! while the idle listening `T_recv` shrinks as `l` grows toward `T_agg`
//! and is flat beyond it — so the best deadline sits at the knee
//! `l ≈ T_agg`, which is hard to know in advance. That tuning burden is
//! DTS's reason to exist.
//!
//! Because the schedule depends on ranks, a topology change (§4.3) forces
//! the affected subtree to recompute its expectations —
//! [`Sts::on_topology_change`] re-derives them from the current tree.

use std::collections::BTreeMap;

use essat_net::ids::NodeId;
use essat_query::model::{Query, QueryId};
use essat_sim::time::{SimDuration, SimTime};

use crate::shaper::{Expectations, Release, TrafficShaper, TreeInfo};

/// Configuration for [`Sts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StsConfig {
    /// Reception-expectation granularity. The paper states both forms:
    /// the closed form "r(k) = φ + k·P + l·(d−1)" (one slot for *all*
    /// children, at the node's rank minus one) and the invariant
    /// "expected reception time … equal to the child's expected send
    /// time" (per-child slots). Per-child is strictly tighter — a parent
    /// wakes for each child exactly at that child's slot — and is the
    /// default; the per-rank form is kept for the ablation bench.
    pub per_rank_reception: bool,
}

/// The STS shaper.
///
/// Tracks the next unsent / unreceived round per query so that a
/// topology change can re-derive expectations for exactly the rounds
/// still ahead.
#[derive(Debug, Clone, Default)]
pub struct Sts {
    config: StsConfig,
    next_send_round: BTreeMap<QueryId, u64>,
    next_recv_round: BTreeMap<(QueryId, NodeId), u64>,
}

impl Sts {
    /// Creates an STS shaper with the default configuration.
    pub fn new() -> Self {
        Sts::with_config(StsConfig::default())
    }

    /// Creates an STS shaper with an explicit configuration.
    pub fn with_config(config: StsConfig) -> Self {
        Sts {
            config,
            next_send_round: BTreeMap::new(),
            next_recv_round: BTreeMap::new(),
        }
    }

    /// The per-rank slot width `l = D / M` (with `M` clamped to ≥ 1 so a
    /// single-node tree stays well-defined).
    pub fn local_deadline(q: &Query, tree: &TreeInfo<'_>) -> SimDuration {
        q.deadline / tree.max_rank.max(1) as u64
    }

    fn send_slot(q: &Query, k: u64, tree: &TreeInfo<'_>) -> SimTime {
        q.round_start(k) + Self::local_deadline(q, tree) * tree.own_rank as u64
    }

    fn recv_slot(&self, q: &Query, k: u64, child_rank: u32, tree: &TreeInfo<'_>) -> SimTime {
        let slot_rank = if self.config.per_rank_reception {
            // Paper's closed form: one expectation at l·(d−1) for every
            // child of a rank-d node.
            tree.own_rank.saturating_sub(1)
        } else {
            child_rank
        };
        q.round_start(k) + Self::local_deadline(q, tree) * slot_rank as u64
    }
}

impl TrafficShaper for Sts {
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
                .map(|&(c, r)| (c, self.recv_slot(q, 0, r, tree)))
                .collect(),
        }
    }

    fn deregister(&mut self, q: &Query) {
        self.next_send_round.remove(&q.id);
        self.next_recv_round.retain(|&(qq, _), _| qq != q.id);
    }

    fn release(&mut self, q: &Query, k: u64, ready_at: SimTime, tree: &TreeInfo<'_>) -> Release {
        // Buffer early reports until the send slot; send late ones now.
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
        self.recv_slot(q, k + 1, tree.child_rank(child), tree)
    }

    fn collection_deadline(&self, q: &Query, k: u64, tree: &TreeInfo<'_>) -> SimTime {
        // s(k) + l: round k seals one slot after the node's send slot.
        Self::send_slot(q, k, tree) + Self::local_deadline(q, tree)
    }

    fn child_timed_out(
        &mut self,
        q: &Query,
        child: NodeId,
        k: u64,
        tree: &TreeInfo<'_>,
    ) -> SimTime {
        self.next_recv_round.insert((q.id, child), k + 1);
        self.recv_slot(q, k + 1, tree.child_rank(child), tree)
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
        // Ranks changed: re-derive every pending expectation from the
        // current tree (the §4.3 cost of STS).
        let k_send = self.next_send_round.get(&q.id).copied().unwrap_or(0);
        let rnext = tree
            .children
            .iter()
            .map(|&(c, r)| {
                let k = self
                    .next_recv_round
                    .entry((q.id, c))
                    .or_insert(k_send)
                    .to_owned();
                (c, self.recv_slot(q, k, r, tree))
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

    /// rank-2 node in an M=4 tree with a rank-0 and a rank-1 child.
    fn tree_info(children: &[(NodeId, u32)]) -> TreeInfo<'_> {
        TreeInfo {
            own_rank: 2,
            max_rank: 4,
            own_level: 2,
            max_level: 4,
            children,
        }
    }

    #[test]
    fn slots_follow_ranks() {
        // l = 200 / 4 = 50 ms.
        let children = [(n(1), 0), (n(2), 1)];
        let tree = tree_info(&children);
        let mut sts = Sts::new();
        let e = sts.register(&q(), &tree, false);
        // s(0) = φ + l*2 = 1.1 s.
        assert_eq!(e.snext, Some(ms(1100)));
        // r(0, c) at each child's own slot: rank 0 -> φ, rank 1 -> φ+50ms.
        assert_eq!(e.rnext, vec![(n(1), ms(1000)), (n(2), ms(1050))]);
    }

    #[test]
    fn early_reports_buffered_late_sent_now() {
        let children = [(n(1), 0)];
        let tree = tree_info(&children);
        let mut sts = Sts::new();
        sts.register(&q(), &tree, false);
        // Ready 30 ms into the round; slot is at +100 ms.
        let rel = sts.release(&q(), 0, ms(1030), &tree);
        assert_eq!(rel.send_at, ms(1100), "buffered to s(0)");
        assert_eq!(rel.piggyback, None);
        // Late: ready after the slot.
        let rel2 = sts.release(&q(), 1, ms(1350), &tree);
        assert_eq!(rel2.send_at, ms(1350), "late report sent immediately");
    }

    #[test]
    fn after_send_and_receive_advance_one_period() {
        let children = [(n(1), 1)];
        let tree = tree_info(&children);
        let mut sts = Sts::new();
        sts.register(&q(), &tree, false);
        assert_eq!(sts.after_send(&q(), 0, ms(1100), &tree), ms(1300));
        assert_eq!(
            sts.after_receive(&q(), n(1), 0, ms(1050), None, &tree),
            ms(1250)
        );
    }

    #[test]
    fn nts_equivalence_at_zero_local_deadline() {
        // The paper notes STS with l = 0 behaves like NTS. l -> 0 when
        // D -> 0 is impossible (deadline must be positive), but a huge M
        // makes l one nanosecond — slots collapse to the round start.
        let qq = q();
        let children = [(n(1), 0)];
        let tree = TreeInfo {
            own_rank: 2,
            max_rank: u32::MAX,
            own_level: (u32::MAX).saturating_sub(2),
            max_level: u32::MAX,
            children: &children,
        };
        let mut sts = Sts::new();
        let e = sts.register(&qq, &tree, false);
        assert_eq!(e.snext, Some(ms(1000)));
        assert_eq!(e.rnext[0].1, ms(1000));
    }

    #[test]
    fn collection_deadline_one_slot_after_send() {
        let children = [(n(1), 1)];
        let tree = tree_info(&children);
        let sts = Sts::new();
        // s(0) = 1.1 s, l = 50 ms -> 1.15 s.
        assert_eq!(sts.collection_deadline(&q(), 0, &tree), ms(1150));
    }

    #[test]
    fn topology_change_rederives_pending_rounds() {
        let children = [(n(1), 0)];
        let tree = tree_info(&children);
        let mut sts = Sts::new();
        sts.register(&q(), &tree, false);
        // Progress: sent round 0 and 1, received child round 0.
        sts.after_send(&q(), 0, ms(1100), &tree);
        sts.after_send(&q(), 1, ms(1300), &tree);
        sts.after_receive(&q(), n(1), 0, ms(1010), None, &tree);
        // The node's rank grows to 3 in an M=5 tree (l = 40 ms) and the
        // child's rank to 2.
        let new_children = [(n(1), 2)];
        let new_tree = TreeInfo {
            own_rank: 3,
            max_rank: 5,
            own_level: 2,
            max_level: 5,
            children: &new_children,
        };
        let e = sts
            .on_topology_change(&q(), &new_tree, false, ms(0))
            .expect("STS must refresh");
        // Next send round is 2: s(2) = φ + 2P + 3l = 1.0 + 0.4 + 0.12.
        assert_eq!(e.snext, Some(ms(1520)));
        // Next recv round for child is 1: φ + P + 2l = 1.0 + 0.2 + 0.08.
        assert_eq!(e.rnext, vec![(n(1), ms(1280))]);
    }

    #[test]
    fn topology_change_with_new_child_defaults_to_send_round() {
        let tree_before = TreeInfo {
            own_rank: 1,
            max_rank: 3,
            own_level: 2,
            max_level: 3,
            children: &[],
        };
        let mut sts = Sts::new();
        sts.register(&q(), &tree_before, false);
        sts.after_send(&q(), 0, ms(1000), &tree_before);
        // A child re-parents to us.
        let new_children = [(n(7), 0)];
        let new_tree = TreeInfo {
            own_rank: 1,
            max_rank: 3,
            own_level: 2,
            max_level: 3,
            children: &new_children,
        };
        let e = sts
            .on_topology_change(&q(), &new_tree, false, ms(0))
            .unwrap();
        // Child expectation starts at our next send round (1); the new
        // child has rank 0, so its slot offset is zero.
        assert_eq!(e.rnext, vec![(n(7), ms(1200))]);
    }

    #[test]
    fn per_rank_reception_ablation() {
        // Rank-2 node, children of ranks 0 and 1, l = 50 ms.
        let children = [(n(1), 0), (n(2), 1)];
        let tree = tree_info(&children);
        let mut per_rank = Sts::with_config(StsConfig {
            per_rank_reception: true,
        });
        let e = per_rank.register(&q(), &tree, false);
        // Both children expected at l·(d−1) = φ + 50 ms — the paper's
        // closed form.
        assert_eq!(e.rnext, vec![(n(1), ms(1050)), (n(2), ms(1050))]);
        // The per-child default is tighter for the rank-0 child.
        let mut per_child = Sts::new();
        let e2 = per_child.register(&q(), &tree, false);
        assert!(e2.rnext[0].1 < e.rnext[0].1);
        assert_eq!(e2.rnext[1].1, e.rnext[1].1);
    }

    #[test]
    fn deregister_clears_state() {
        let children = [(n(1), 0)];
        let tree = tree_info(&children);
        let mut sts = Sts::new();
        sts.register(&q(), &tree, false);
        sts.deregister(&q());
        assert!(sts.next_send_round.is_empty());
        assert!(sts.next_recv_round.is_empty());
    }

    #[test]
    fn latency_model_eq2() {
        // L_q = M * max(l, T_agg): with l = 50 ms >= T_agg, the last hop
        // sends at φ + M*l, i.e. latency M*l relative to round start.
        let children: [(NodeId, u32); 0] = [];
        let root_tree = TreeInfo {
            own_rank: 4,
            max_rank: 4,
            own_level: 0,
            max_level: 4,
            children: &children,
        };
        let s_root = Sts::send_slot(&q(), 0, &root_tree);
        assert_eq!(s_root - ms(1000), SimDuration::from_millis(200));
    }
}
