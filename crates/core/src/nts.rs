//! NTS — No Traffic Shaping (§4.2.1).
//!
//! The degenerate shaper: every node shares the same expected send and
//! reception times, `s(k) = r(k) = φ + k·P`, and aggregated reports are
//! forwarded greedily the moment they are ready. NTS introduces **no
//! delay penalty**, but a node of rank `d` stays awake from the start of
//! each round until the reports have climbed `d` hops:
//!
//! ```text
//! T_recv(d) = (d − 1)·T_agg + T_collect     (paper eq. 1, d > 0)
//! ```
//!
//! so idle listening — and therefore duty cycle — grows linearly with
//! rank (reproduced in the paper's Figure 5), and nodes near the root
//! exhaust their batteries first.

use essat_net::ids::NodeId;
use essat_query::model::Query;
use essat_sim::time::{SimDuration, SimTime};

use crate::shaper::{Expectations, Release, TrafficShaper, TreeInfo};

/// The NTS shaper. Stateless: every expectation is a closed form of the
/// query parameters, which is also why the paper calls it the most robust
/// of the three (§4.3 — no state to repair on loss or topology change).
#[derive(Debug, Clone, Copy, Default)]
pub struct Nts;

impl Nts {
    /// Creates an NTS shaper.
    pub fn new() -> Self {
        Nts
    }

    /// The shared schedule point `φ + k·P`.
    fn slot(q: &Query, k: u64) -> SimTime {
        q.round_start(k)
    }

    /// The §4.3 timeout: `t_TO(d) = (d + 1) · D / M` after round start.
    fn timeout_offset(q: &Query, tree: &TreeInfo<'_>) -> SimDuration {
        let m = tree.max_rank.max(1) as u64;
        (q.deadline / m) * (tree.own_rank as u64 + 1)
    }
}

impl TrafficShaper for Nts {
    fn register(&mut self, q: &Query, tree: &TreeInfo<'_>, is_root: bool) -> Expectations {
        Expectations {
            snext: (!is_root).then(|| Self::slot(q, 0)),
            rnext: tree
                .children
                .iter()
                .map(|&(c, _)| (c, Self::slot(q, 0)))
                .collect(),
        }
    }

    fn deregister(&mut self, _q: &Query) {}

    fn release(&mut self, _q: &Query, _k: u64, ready_at: SimTime, _tree: &TreeInfo<'_>) -> Release {
        // Greedy: forward immediately; never piggyback.
        Release {
            send_at: ready_at,
            piggyback: None,
        }
    }

    fn after_send(&mut self, q: &Query, k: u64, _now: SimTime, _tree: &TreeInfo<'_>) -> SimTime {
        Self::slot(q, k + 1)
    }

    fn after_receive(
        &mut self,
        q: &Query,
        _child: NodeId,
        k: u64,
        _now: SimTime,
        _piggyback: Option<SimTime>,
        _tree: &TreeInfo<'_>,
    ) -> SimTime {
        Self::slot(q, k + 1)
    }

    fn collection_deadline(&self, q: &Query, k: u64, tree: &TreeInfo<'_>) -> SimTime {
        Self::slot(q, k) + Self::timeout_offset(q, tree)
    }

    fn child_timed_out(
        &mut self,
        q: &Query,
        _child: NodeId,
        k: u64,
        _tree: &TreeInfo<'_>,
    ) -> SimTime {
        Self::slot(q, k + 1)
    }

    fn on_topology_change(
        &mut self,
        _q: &Query,
        _tree: &TreeInfo<'_>,
        _is_root: bool,
        _now: SimTime,
    ) -> Option<Expectations> {
        // NTS expectations depend only on (φ, P): nothing to update.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use essat_query::aggregate::AggregateOp;
    use essat_query::model::QueryId;

    fn q() -> Query {
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

    #[test]
    fn register_shares_round_start_everywhere() {
        let mut nts = Nts::new();
        let children = [(n(1), 0), (n(2), 1)];
        let tree = TreeInfo {
            own_rank: 2,
            max_rank: 4,
            own_level: 2,
            max_level: 4,
            children: &children,
        };
        let e = nts.register(&q(), &tree, false);
        assert_eq!(e.snext, Some(SimTime::from_secs(1)));
        assert_eq!(
            e.rnext,
            vec![(n(1), SimTime::from_secs(1)), (n(2), SimTime::from_secs(1))]
        );
        let e_root = nts.register(&q(), &tree, true);
        assert_eq!(e_root.snext, None);
    }

    #[test]
    fn release_is_immediate() {
        let mut nts = Nts::new();
        let tree = TreeInfo::leaf(4);
        let ready = SimTime::from_millis(1234);
        let r = nts.release(&q(), 3, ready, &tree);
        assert_eq!(r.send_at, ready);
        assert_eq!(r.piggyback, None);
    }

    #[test]
    fn expectations_advance_by_period() {
        let mut nts = Nts::new();
        let tree = TreeInfo::leaf(4);
        let s1 = nts.after_send(&q(), 0, SimTime::from_secs(1), &tree);
        assert_eq!(s1, SimTime::from_millis(1200));
        let r5 = nts.after_receive(&q(), n(1), 4, SimTime::from_secs(2), None, &tree);
        assert_eq!(r5, SimTime::from_secs(2));
        // Piggybacks are ignored by NTS.
        let r = nts.after_receive(
            &q(),
            n(1),
            0,
            SimTime::from_secs(1),
            Some(SimTime::MAX),
            &tree,
        );
        assert_eq!(r, SimTime::from_millis(1200));
    }

    #[test]
    fn timeout_grows_with_rank() {
        let nts = Nts;
        let t_leafish = {
            let tree = TreeInfo {
                own_rank: 1,
                max_rank: 4,
                own_level: 3,
                max_level: 4,
                children: &[],
            };
            nts.collection_deadline(&q(), 0, &tree)
        };
        let t_root = {
            let tree = TreeInfo {
                own_rank: 4,
                max_rank: 4,
                own_level: 0,
                max_level: 4,
                children: &[],
            };
            nts.collection_deadline(&q(), 0, &tree)
        };
        // D = P = 200 ms, M = 4 -> l = 50 ms; rank 1 -> 100 ms, rank 4 -> 250 ms.
        assert_eq!(t_leafish, SimTime::from_millis(1100));
        assert_eq!(t_root, SimTime::from_millis(1250));
        assert!(t_root > t_leafish);
    }

    #[test]
    fn child_timeout_advances_one_round() {
        let mut nts = Nts::new();
        let tree = TreeInfo::leaf(4);
        assert_eq!(
            nts.child_timed_out(&q(), n(1), 2, &tree),
            SimTime::from_millis(1600)
        );
    }

    #[test]
    fn topology_change_needs_nothing() {
        let mut nts = Nts::new();
        let tree = TreeInfo::leaf(2);
        assert!(nts
            .on_topology_change(&q(), &tree, false, SimTime::ZERO)
            .is_none());
        assert!(!nts.wants_phase_resync());
    }

    #[test]
    fn single_node_tree_timeout_defined() {
        // M = 0 must not divide by zero.
        let nts = Nts;
        let tree = TreeInfo {
            own_rank: 0,
            max_rank: 0,
            own_level: 0,
            max_level: 0,
            children: &[],
        };
        let d = nts.collection_deadline(&q(), 0, &tree);
        assert_eq!(d, SimTime::from_millis(1200));
    }
}
