//! Per-round aggregation state at one node.
//!
//! For every `(query, round)` a non-leaf node waits for the data reports
//! of its children, merges them with its own reading, and forwards one
//! aggregated report. [`RoundAggregator`] tracks which children have
//! not contributed yet, supports the §4.3 timeout path (forward a
//! *partial* aggregate based on the reports received so far), and
//! refuses duplicates.

use essat_net::ids::NodeId;

use crate::aggregate::AggState;

/// Collects child contributions for one round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundAggregator {
    /// Expected children that have not reported yet, ascending.
    pending: Vec<NodeId>,
    acc: AggState,
    own_added: bool,
    sealed: bool,
}

impl RoundAggregator {
    /// Creates an aggregator expecting one report from each of
    /// `expected_children`.
    pub fn new(expected_children: &[NodeId]) -> Self {
        let mut pending = expected_children.to_vec();
        pending.sort_unstable();
        pending.dedup();
        RoundAggregator {
            pending,
            acc: AggState::empty(),
            own_added: false,
            sealed: false,
        }
    }

    /// Adds this node's own reading. Returns `false` (and changes
    /// nothing) if it was already added.
    pub fn add_own(&mut self, reading: AggState) -> bool {
        if self.own_added || self.sealed {
            return false;
        }
        self.own_added = true;
        self.acc.merge(&reading);
        true
    }

    /// Adds a child's report. Returns `false` (duplicate or unexpected
    /// child, or already sealed) if the report was ignored.
    pub fn add_child(&mut self, child: NodeId, report: AggState) -> bool {
        if self.sealed || !self.remove_child(child) {
            return false;
        }
        self.acc.merge(&report);
        true
    }

    /// True once every expected child has contributed (own reading is the
    /// node's responsibility and tracked separately).
    pub fn children_complete(&self) -> bool {
        self.pending.is_empty()
    }

    /// True if this node's reading is already folded in.
    pub fn own_added(&self) -> bool {
        self.own_added
    }

    /// Children that have not contributed yet, ascending.
    pub fn missing(&self) -> Vec<NodeId> {
        self.pending.clone()
    }

    /// Stops accepting contributions and returns the (possibly partial)
    /// aggregate. Late reports after sealing are rejected by the `add_*`
    /// methods.
    pub fn seal(&mut self) -> AggState {
        self.sealed = true;
        self.acc
    }

    /// Drops `child` from the expectations (parent of a failed node,
    /// §4.3). Returns `true` if the child was still pending.
    pub fn remove_child(&mut self, child: NodeId) -> bool {
        match self.pending.binary_search(&child) {
            Ok(at) => {
                self.pending.remove(at);
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateOp;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn complete_round_aggregates_everything() {
        let mut agg = RoundAggregator::new(&[n(1), n(2)]);
        assert!(!agg.children_complete());
        assert!(agg.add_own(AggState::from_reading(1.0)));
        assert!(agg.add_child(n(1), AggState::from_reading(2.0)));
        assert_eq!(agg.missing(), vec![n(2)]);
        assert!(agg.add_child(n(2), AggState::from_reading(3.0)));
        assert!(agg.children_complete());
        let total = agg.seal();
        assert_eq!(total.finish(AggregateOp::Sum), 6.0);
        assert_eq!(total.count(), 3);
    }

    #[test]
    fn duplicates_and_strangers_rejected() {
        let mut agg = RoundAggregator::new(&[n(1)]);
        assert!(agg.add_child(n(1), AggState::from_reading(2.0)));
        assert!(!agg.add_child(n(1), AggState::from_reading(2.0)), "dup");
        assert!(
            !agg.add_child(n(9), AggState::from_reading(5.0)),
            "stranger"
        );
        assert!(agg.add_own(AggState::from_reading(1.0)));
        assert!(!agg.add_own(AggState::from_reading(1.0)), "own dup");
        assert_eq!(agg.seal().finish(AggregateOp::Sum), 3.0);
    }

    #[test]
    fn timeout_path_partial_aggregate() {
        let mut agg = RoundAggregator::new(&[n(1), n(2), n(3)]);
        agg.add_own(AggState::from_reading(10.0));
        agg.add_child(n(2), AggState::from_reading(5.0));
        // Timeout fires: seal with 2 of 4 contributions.
        let partial = agg.seal();
        assert_eq!(partial.finish(AggregateOp::Sum), 15.0);
        assert_eq!(partial.count(), 2);
        // Late child is rejected.
        assert!(!agg.add_child(n(1), AggState::from_reading(99.0)));
    }

    #[test]
    fn leaf_has_no_expectations() {
        let mut agg = RoundAggregator::new(&[]);
        assert!(agg.children_complete());
        agg.add_own(AggState::from_reading(4.0));
        assert_eq!(agg.seal().finish(AggregateOp::Avg), 4.0);
    }

    #[test]
    fn remove_child_unblocks_round() {
        let mut agg = RoundAggregator::new(&[n(1), n(2)]);
        agg.add_child(n(1), AggState::from_reading(1.0));
        assert!(!agg.children_complete());
        assert!(agg.remove_child(n(2)), "child was pending");
        assert!(agg.children_complete());
        assert!(!agg.remove_child(n(2)), "already gone");
    }
}
