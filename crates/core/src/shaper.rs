//! The traffic-shaper interface shared by NTS, STS, and DTS.
//!
//! A traffic shaper (paper §4.2) decides *when* a node's aggregated data
//! report is handed to the MAC and *what* send/reception times Safe Sleep
//! should expect next. The three implementations differ only in how they
//! compute those times:
//!
//! | shaper | expected times | adaptation |
//! |--------|----------------|------------|
//! | [NTS](crate::nts::Nts) | `s(k) = r(k) = φ + k·P` everywhere | none (greedy forwarding) |
//! | [STS](crate::sts::Sts) | per-rank slots of width `l = D/M` | re-derive on rank change |
//! | [DTS](crate::dts::Dts) | Release-Guard-style, self-tuned | phase shifts + piggybacked updates |
//!
//! The shaper is a pure state machine: the node stack calls it on query
//! registration, report readiness, send completion, reception, timeout,
//! and topology change, and forwards the returned expectations to
//! [`SafeSleep`](crate::safe_sleep::SafeSleep).

use std::fmt;

use essat_net::ids::NodeId;
use essat_query::model::Query;
use essat_sim::time::SimTime;

/// Snapshot of this node's place in the routing tree, passed to shaper
/// calls that depend on it.
#[derive(Debug, Clone, Copy)]
pub struct TreeInfo<'a> {
    /// This node's rank `d` (max hop count to a descendant; leaves 0).
    pub own_rank: u32,
    /// The tree-wide maximum rank `M` (the root's rank).
    pub max_rank: u32,
    /// This node's level (hop count from the root; the root is 0).
    pub own_level: u32,
    /// The deepest level in the tree (TinyDB/TAG-style shapers slot by
    /// level rather than rank).
    pub max_level: u32,
    /// This node's children with their ranks, sorted by node id.
    pub children: &'a [(NodeId, u32)],
}

impl<'a> TreeInfo<'a> {
    /// Rank of `child`.
    ///
    /// # Panics
    ///
    /// Panics if `child` is not among this node's children.
    pub fn child_rank(&self, child: NodeId) -> u32 {
        self.children
            .iter()
            .find(|(c, _)| *c == child)
            .map(|(_, r)| *r)
            .unwrap_or_else(|| panic!("{child} is not a child of this node"))
    }

    /// A leaf's view (no children, rank 0, sitting at the deepest
    /// level).
    pub fn leaf(max_rank: u32) -> TreeInfo<'static> {
        TreeInfo {
            own_rank: 0,
            max_rank,
            own_level: max_rank,
            max_level: max_rank,
            children: &[],
        }
    }
}

/// Initial Safe Sleep expectations for a freshly registered query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expectations {
    /// The node's first expected send time `s(0)` (`None` for the root,
    /// which never forwards).
    pub snext: Option<SimTime>,
    /// Per-child first expected reception times `r(0, c)`.
    pub rnext: Vec<(NodeId, SimTime)>,
}

/// When to hand a ready report to the MAC, and what to piggyback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Release {
    /// Earliest instant the report may be submitted to the MAC
    /// (`max(ready_at, expected send time)` for buffering shapers;
    /// `ready_at` exactly for NTS and for DTS phase shifts).
    pub send_at: SimTime,
    /// A phase update to embed in the packet (DTS only): the sender's
    /// next expected send time `s(k+1)`, which becomes the parent's
    /// `r(k+1)`.
    pub piggyback: Option<SimTime>,
}

/// A traffic shaper as defined in §4.2.
///
/// Implementations must be deterministic: identical call sequences must
/// produce identical schedules (the engine relies on this for
/// reproducible runs). `Send` is required so whole simulations can be
/// farmed out across threads by the experiment runner.
pub trait TrafficShaper: fmt::Debug + Send {
    /// A query was registered at this node. Returns the initial
    /// expectations for Safe Sleep. `is_root` suppresses the send
    /// expectation.
    fn register(&mut self, q: &Query, tree: &TreeInfo<'_>, is_root: bool) -> Expectations;

    /// The query was deregistered; drop its state.
    fn deregister(&mut self, q: &Query);

    /// Round `k`'s aggregated report became ready at `ready_at` (all
    /// children contributed, or the collection timed out). Returns when
    /// to hand it to the MAC and the optional piggybacked phase update.
    fn release(&mut self, q: &Query, k: u64, ready_at: SimTime, tree: &TreeInfo<'_>) -> Release;

    /// Round `k`'s report finished sending at `now`. Returns the next
    /// expected send time `s(k+1)` for Safe Sleep.
    fn after_send(&mut self, q: &Query, k: u64, now: SimTime, tree: &TreeInfo<'_>) -> SimTime;

    /// The node's scheduler decided round `k` will not run locally at
    /// all (a scenario traffic-phase quiet round: nothing sampled,
    /// collected, or sent). Advance any send-side state past the round
    /// and return the send expectation for the next round. The default
    /// delegates to [`TrafficShaper::after_send`], which is exact for
    /// shapers whose send schedule is a pure function of the round
    /// index (NTS, STS, TAG); shapers with stateful release/send
    /// coupling (DTS) override it.
    fn round_skipped(&mut self, q: &Query, k: u64, tree: &TreeInfo<'_>) -> SimTime {
        self.after_send(q, k, q.round_start(k), tree)
    }

    /// A report for round `k` arrived from `child` at `now`, possibly
    /// carrying a piggybacked phase update. Returns the next expected
    /// reception time `r(k+1, child)` for Safe Sleep.
    fn after_receive(
        &mut self,
        q: &Query,
        child: NodeId,
        k: u64,
        now: SimTime,
        piggyback: Option<SimTime>,
        tree: &TreeInfo<'_>,
    ) -> SimTime;

    /// The absolute deadline for collecting round `k`'s child reports
    /// (§4.3 "selecting timeout values"); at this instant the node seals
    /// a partial aggregate and forwards it.
    fn collection_deadline(&self, q: &Query, k: u64, tree: &TreeInfo<'_>) -> SimTime;

    /// `child` failed to deliver its round-`k` report by the collection
    /// deadline. Returns the updated expected reception time for Safe
    /// Sleep (the child's report `k+1`).
    fn child_timed_out(&mut self, q: &Query, child: NodeId, k: u64, tree: &TreeInfo<'_>)
        -> SimTime;

    /// The node's position in the tree changed (new parent / new ranks,
    /// §4.3) at time `now`. Returns fresh expectations when the shaper's
    /// schedule depends on the topology (STS), or `None` when no update
    /// is needed (NTS; DTS resynchronises via its next phase update
    /// instead).
    fn on_topology_change(
        &mut self,
        q: &Query,
        tree: &TreeInfo<'_>,
        is_root: bool,
        now: SimTime,
    ) -> Option<Expectations>;

    /// A peer asked for an explicit phase update (DTS resynchronisation
    /// after loss). Default: ignored.
    fn on_phase_update_request(&mut self, _q: &Query) {}

    /// `child` was declared failed or re-parented away: drop any state
    /// tied to it. Default: nothing (NTS is stateless).
    fn remove_child(&mut self, _q: &Query, _child: NodeId) {}

    /// True if this shaper resynchronises through phase updates and
    /// therefore wants a phase-update request after detected losses
    /// (DTS).
    fn wants_phase_resync(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_info_child_rank_lookup() {
        let children = [(NodeId::new(3), 1), (NodeId::new(5), 0)];
        let info = TreeInfo {
            own_rank: 2,
            max_rank: 4,
            own_level: 2,
            max_level: 4,
            children: &children,
        };
        assert_eq!(info.child_rank(NodeId::new(3)), 1);
        assert_eq!(info.child_rank(NodeId::new(5)), 0);
    }

    #[test]
    #[should_panic(expected = "not a child")]
    fn tree_info_unknown_child_panics() {
        let info = TreeInfo::leaf(3);
        let _ = info.child_rank(NodeId::new(9));
    }

    #[test]
    fn leaf_info_shape() {
        let info = TreeInfo::leaf(5);
        assert_eq!(info.own_rank, 0);
        assert_eq!(info.max_rank, 5);
        assert!(info.children.is_empty());
    }
}
