//! Protocol maintenance (§4.3): loss detection, phase resynchronisation,
//! and failure detection.
//!
//! * [`LossDetector`] — watches the round numbers (sequence numbers) of
//!   received reports per `(query, child)` and reports gaps. For DTS, a
//!   gap combined with a missing piggyback means the parent's phase may
//!   be stale ("Otherwise, the receiver requests a phase update from
//!   the sender"). The `essat-wsn` report handler then marks the child's
//!   phase stale and asks for a *phase update* on the ACK of each report
//!   from that child until a piggybacked phase clears the mark. A round
//!   a traffic phase silences is not a loss: [`LossDetector::skip`]
//!   moves the child past it.
//! * [`FailureDetector`] — counts **consecutive** misses. A parent whose
//!   child repeatedly fails to deliver declares the child failed and
//!   drops its expectations; a child that repeatedly fails to transmit
//!   to its parent declares the parent failed and asks the routing layer
//!   for a new one.
//!
//! Both detectors are deliberately simple counters: the paper's protocols
//! are designed so that recovery needs no heavier machinery (NTS needs
//! nothing at all; STS recomputes from ranks; DTS sends one phase
//! update).

use std::collections::BTreeMap;

use essat_net::ids::NodeId;
use essat_query::model::QueryId;

/// What a received report's round number says about prior losses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossObservation {
    /// First report ever seen from this child for this query.
    First,
    /// Exactly the next expected round.
    InOrder,
    /// One or more rounds were skipped.
    Gap {
        /// Number of missing rounds.
        missed: u64,
    },
    /// Round at or before the last seen one (duplicate or reordering);
    /// ignore.
    Stale,
}

/// Sequence-number-based loss detection per `(query, child)`.
#[derive(Debug, Clone, Default)]
pub struct LossDetector {
    last_round: BTreeMap<(QueryId, NodeId), u64>,
}

impl LossDetector {
    /// Creates an empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the arrival of `child`'s round-`k` report and classifies
    /// it.
    pub fn observe(&mut self, q: QueryId, child: NodeId, k: u64) -> LossObservation {
        match self.last_round.get(&(q, child)).copied() {
            None => {
                self.last_round.insert((q, child), k);
                if k == 0 {
                    LossObservation::First
                } else {
                    // Never heard from this child, and its first report
                    // is already past round 0 — everything before was
                    // lost (or we just joined).
                    LossObservation::First
                }
            }
            Some(last) if k == last + 1 => {
                self.last_round.insert((q, child), k);
                LossObservation::InOrder
            }
            Some(last) if k > last + 1 => {
                self.last_round.insert((q, child), k);
                LossObservation::Gap {
                    missed: k - last - 1,
                }
            }
            Some(_) => LossObservation::Stale,
        }
    }

    /// Advances `child` past quiet round `k`, a round a traffic phase
    /// silenced on schedule: nobody sent it, so its absence is no loss.
    /// Only a child whose last round is `k − 1` moves; a gap that is
    /// already open stays open.
    pub fn skip(&mut self, q: QueryId, child: NodeId, k: u64) {
        if let Some(last) = self.last_round.get_mut(&(q, child)) {
            if *last + 1 == k {
                *last = k;
            }
        }
    }

    /// Forgets a child (failed or re-parented away).
    pub fn remove_child(&mut self, child: NodeId) {
        self.last_round.retain(|&(_, c), _| c != child);
    }

    /// Forgets a query.
    pub fn remove_query(&mut self, q: QueryId) {
        self.last_round.retain(|&(qq, _), _| qq != q);
    }
}

/// Counts consecutive misses to declare peers failed.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    threshold: u32,
    misses: BTreeMap<NodeId, u32>,
}

impl FailureDetector {
    /// Creates a detector that declares a peer failed after `threshold`
    /// consecutive misses.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(threshold: u32) -> Self {
        assert!(threshold > 0, "threshold must be at least 1");
        FailureDetector {
            threshold,
            misses: BTreeMap::new(),
        }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Records a miss (timeout or transmission failure) for `peer`.
    /// Returns `true` when the peer crosses the failure threshold with
    /// this miss (exactly once; further misses keep returning `true`
    /// until [`FailureDetector::heard_from`] resets the count).
    pub fn miss(&mut self, peer: NodeId) -> bool {
        let m = self.misses.entry(peer).or_insert(0);
        *m += 1;
        *m >= self.threshold
    }

    /// Records successful communication with `peer`, resetting its
    /// counter.
    pub fn heard_from(&mut self, peer: NodeId) {
        self.misses.remove(&peer);
    }

    /// Current consecutive-miss count for `peer`.
    pub fn miss_count(&self, peer: NodeId) -> u32 {
        self.misses.get(&peer).copied().unwrap_or(0)
    }

    /// Forgets a peer entirely.
    pub fn remove(&mut self, peer: NodeId) {
        self.misses.remove(&peer);
    }
}

impl Default for FailureDetector {
    /// Three consecutive misses — a common WSN heuristic balancing
    /// false positives against detection delay.
    fn default() -> Self {
        FailureDetector::new(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> QueryId {
        QueryId::new(i)
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn in_order_stream() {
        let mut d = LossDetector::new();
        assert_eq!(d.observe(q(0), n(1), 0), LossObservation::First);
        assert_eq!(d.observe(q(0), n(1), 1), LossObservation::InOrder);
        assert_eq!(d.observe(q(0), n(1), 2), LossObservation::InOrder);
    }

    #[test]
    fn gaps_counted_exactly() {
        let mut d = LossDetector::new();
        d.observe(q(0), n(1), 0);
        assert_eq!(d.observe(q(0), n(1), 3), LossObservation::Gap { missed: 2 });
        assert_eq!(d.observe(q(0), n(1), 4), LossObservation::InOrder);
    }

    #[test]
    fn stale_and_duplicate_reports() {
        let mut d = LossDetector::new();
        d.observe(q(0), n(1), 5);
        assert_eq!(d.observe(q(0), n(1), 5), LossObservation::Stale);
        assert_eq!(d.observe(q(0), n(1), 2), LossObservation::Stale);
        // Stale does not disturb the sequence.
        assert_eq!(d.observe(q(0), n(1), 6), LossObservation::InOrder);
    }

    #[test]
    fn streams_are_independent() {
        let mut d = LossDetector::new();
        d.observe(q(0), n(1), 0);
        d.observe(q(1), n(1), 7);
        d.observe(q(0), n(2), 3);
        assert_eq!(d.observe(q(0), n(1), 1), LossObservation::InOrder);
        assert_eq!(d.observe(q(1), n(1), 8), LossObservation::InOrder);
        assert_eq!(d.observe(q(0), n(2), 4), LossObservation::InOrder);
    }

    #[test]
    fn skipped_rounds_are_not_gaps() {
        let mut d = LossDetector::new();
        d.observe(q(0), n(1), 0);
        d.skip(q(0), n(1), 1);
        d.skip(q(0), n(1), 2);
        assert_eq!(d.observe(q(0), n(1), 3), LossObservation::InOrder);
        // A gap opened before the quiet round stays open.
        d.skip(q(0), n(1), 5);
        assert_eq!(d.observe(q(0), n(1), 6), LossObservation::Gap { missed: 2 });
        // An unseen child stays unseen.
        d.skip(q(0), n(2), 0);
        assert_eq!(d.observe(q(0), n(2), 1), LossObservation::First);
    }

    #[test]
    fn removal_resets_sequences() {
        let mut d = LossDetector::new();
        d.observe(q(0), n(1), 9);
        d.remove_child(n(1));
        assert_eq!(d.observe(q(0), n(1), 0), LossObservation::First);
        d.observe(q(1), n(2), 3);
        d.remove_query(q(1));
        assert_eq!(d.observe(q(1), n(2), 0), LossObservation::First);
    }

    #[test]
    fn failure_detector_threshold() {
        let mut f = FailureDetector::new(3);
        assert!(!f.miss(n(1)));
        assert!(!f.miss(n(1)));
        assert!(f.miss(n(1)), "third consecutive miss crosses threshold");
        assert_eq!(f.miss_count(n(1)), 3);
    }

    #[test]
    fn success_resets_counter() {
        let mut f = FailureDetector::new(2);
        f.miss(n(1));
        f.heard_from(n(1));
        assert!(!f.miss(n(1)), "counter was reset");
        assert_eq!(f.miss_count(n(1)), 1);
    }

    #[test]
    fn peers_tracked_independently() {
        let mut f = FailureDetector::default();
        for _ in 0..2 {
            f.miss(n(1));
        }
        assert_eq!(f.miss_count(n(2)), 0);
        assert!(!f.miss(n(2)));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threshold_rejected() {
        let _ = FailureDetector::new(0);
    }
}
