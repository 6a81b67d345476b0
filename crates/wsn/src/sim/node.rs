//! The per-node stack: radio + MAC + power policy + query-agent state.
//!
//! A [`NodeState`] is one node's slice of the world. The power-
//! management personality lives entirely behind the
//! [`PowerPolicy`] trait object; everything else here is
//! protocol-agnostic: the physical layers, one [`QueryState`] per
//! query (the query agent), and the §4.3 maintenance detectors.

use std::collections::BTreeSet;

use essat_core::maintenance::{FailureDetector, LossDetector};
use essat_core::policy::PowerPolicy;
use essat_net::ids::NodeId;
use essat_net::mac::{Mac, MacTimer};
use essat_net::radio::Radio;
use essat_query::model::QueryId;
use essat_query::round::RoundAggregator;
use essat_sim::engine::Context;
use essat_sim::queue::EventId;
use essat_sim::time::SimTime;

use super::events::Ev;
use crate::payload::Payload;

/// Consecutive collection timeouts before a parent declares a child
/// failed (§4.3). Deliberately high: transient contention regularly
/// delays single reports, and a false child-removal costs a subtree.
pub(crate) const CHILD_FAIL_THRESHOLD: u32 = 8;
/// Consecutive MAC transmission failures before a child declares its
/// parent failed. Each miss already represents a full retry cycle
/// (7 MAC attempts), but a sleeping parent also manifests as one, so
/// several rounds must agree before the routing layer reacts.
pub(crate) const PARENT_FAIL_THRESHOLD: u32 = 5;

/// One round's collection state.
#[derive(Debug)]
pub(crate) struct RoundState {
    pub(crate) agg: RoundAggregator,
    /// Handle of the round's pending collection timeout, if any. Whoever
    /// closes or refreshes the round takes it and cancels the event on
    /// the queue.
    pub(crate) timeout_ev: Option<EventId>,
    pub(crate) deadline: Option<SimTime>,
    pub(crate) piggyback: Option<SimTime>,
    pub(crate) release_planned: bool,
    /// Deadline-budgeted re-dispatches already spent on this round's
    /// report (capped by `MAX_REDISPATCH` in `sim/repair.rs`).
    pub(crate) redispatches: u32,
}

/// A node's open rounds of one query, sorted by round number.
///
/// Usually one round is open: on the benchmark workloads (seed 1,
/// 10 s) a round opened with no other round of its query open at the
/// node in 97% (`steady_rate`) to 99.8% (`query_load`) of opens, and at
/// most 12, 2 and 6 were open at once (`steady_rate`, `query_load`,
/// `faults`). A `BTreeMap` per query would allocate an eleven-slot node
/// for each, which raised `query_load`'s peak RSS by a quarter at 30
/// queries per node.
#[derive(Debug, Default)]
pub(crate) struct Rounds(Vec<(u64, RoundState)>);

impl Rounds {
    fn find(&self, k: u64) -> Result<usize, usize> {
        self.0.binary_search_by_key(&k, |&(r, _)| r)
    }

    pub(crate) fn get(&self, k: u64) -> Option<&RoundState> {
        self.find(k).ok().map(|i| &self.0[i].1)
    }

    pub(crate) fn get_mut(&mut self, k: u64) -> Option<&mut RoundState> {
        self.find(k).ok().map(|i| &mut self.0[i].1)
    }

    /// Opens round `k`, which must not be open yet. Grows by one slot at
    /// a time: capacity stays at the most rounds ever open at once.
    pub(crate) fn insert(&mut self, k: u64, round: RoundState) {
        let i = self.find(k).expect_err("round is already open");
        self.0.reserve_exact(1);
        self.0.insert(i, (k, round));
    }

    pub(crate) fn remove(&mut self, k: u64) -> Option<RoundState> {
        self.find(k).ok().map(|i| self.0.remove(i).1)
    }

    /// Open round numbers, ascending.
    pub(crate) fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().map(|&(k, _)| k)
    }

    /// Closes every round, in ascending order.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = RoundState> + '_ {
        self.0.drain(..).map(|(_, r)| r)
    }
}

/// One node's part in one query (paper §3–§4): whether it takes part,
/// which children it waits for, its open rounds, and the §4.3
/// phase-resync state. [`NodeState::queries`] holds one per query,
/// indexed by query (`QueryId(i)` is index `i`).
#[derive(Debug, Default)]
pub(crate) struct QueryState {
    /// The children this node waits for while it takes part in the
    /// query; `None` while it does not.
    pub(crate) expected: Option<Vec<NodeId>>,
    /// Open rounds, by round number.
    pub(crate) rounds: Rounds,
    /// Every round below this one is finished (released, completed or
    /// refused): a straggler report cannot reopen it.
    pub(crate) finished_below: u64,
    /// Next round the query's chain should handle (duplicate-chain
    /// guard for churn-recovery restarts).
    pub(crate) next_round: u64,
    /// Children whose DTS phase is suspected stale.
    pub(crate) stale_phase: BTreeSet<NodeId>,
    /// The query reached this node, by registration or by a flooded
    /// setup copy; a flooded copy is re-flooded only the first time.
    pub(crate) registered: bool,
}

impl QueryState {
    /// Marks every round before `k` finished.
    pub(crate) fn finish_before(&mut self, k: u64) {
        self.finished_below = self.finished_below.max(k);
    }

    /// Removes round `k`, cancelling its pending collection timeout.
    pub(crate) fn close_round(&mut self, k: u64, ctx: &mut Context<'_, Ev>) -> Option<RoundState> {
        let mut r = self.rounds.remove(k)?;
        if let Some(id) = r.timeout_ev.take() {
            ctx.cancel(id);
        }
        Some(r)
    }
}

/// Radio counters at the end of the setup slot (metrics measure from
/// here).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RadioSnapshot {
    pub(crate) active: u64,
    pub(crate) off: u64,
    pub(crate) trans: u64,
    pub(crate) energy: f64,
}

/// Per-node simulation state: the layered stack the executor drives.
///
/// Liveness and the pending wake-up handle do **not** live here: they
/// sit in the structure-of-arrays [`Hot`](super::world::Hot) block on
/// the `World`, so the dead guard and whole-network sweeps stay
/// cache-linear. The radio's mode lives in `radio` alone, and the
/// node's build-time place in the tree (membership, rank, level) in the
/// world's pristine tree.
#[derive(Debug)]
pub(crate) struct NodeState {
    /// The pluggable power-management layer.
    pub(crate) policy: Box<dyn PowerPolicy<Payload>>,
    pub(crate) radio: Radio,
    pub(crate) mac: Mac<Payload>,
    /// Pending expiry event of each MAC timer kind, indexed by
    /// [`MacTimer::idx`]: stored when the executor schedules a
    /// `SetTimer`, taken when the timer fires or is cancelled.
    pub(crate) mac_ev: [Option<EventId>; MacTimer::COUNT],
    /// The query agent: one record per query, indexed by query.
    pub(crate) queries: Vec<QueryState>,
    pub(crate) loss: LossDetector,
    pub(crate) child_fail: FailureDetector,
    pub(crate) parent_fail: FailureDetector,
    /// Times this node has been revived by churn.
    pub(crate) revivals: u64,
    /// Set when a skipped round moved expectations while the radio was
    /// mid-turn-on: re-run the sleep checkpoint once the wake-up
    /// completes.
    pub(crate) recheck_on_wake: bool,
    pub(crate) snap: RadioSnapshot,
}

impl NodeState {
    /// The node's measured `(duty cycle, energy in joules)`: its radio's
    /// books at `now` less the setup-end snapshot. A dead radio's books
    /// were settled at death and are read as they stand; projecting
    /// them to `now` would bill the dead span. After
    /// [`Radio::settle`](essat_net::radio::Radio::settle) at `now`, the
    /// projection equals the settled books bit for bit, so the run's
    /// totals and a probe's view at run end agree exactly.
    ///
    /// A node with no measured span (it died before the window opened,
    /// or the window is empty) was never active in the window: its duty
    /// cycle is 0 (`tests/fault_injection.rs` pins this).
    pub(crate) fn measured(&self, dead: bool, now: SimTime) -> (f64, f64) {
        let r = &self.radio;
        let ((active, off, trans), energy) = if dead {
            ((r.active_ns(), r.off_ns(), r.transition_ns()), r.energy_j())
        } else {
            (r.counters_at(now), r.energy_j_at(now))
        };
        let active = active - self.snap.active;
        let off = off - self.snap.off;
        let trans = trans - self.snap.trans;
        let total = active + off + trans;
        let duty = if total == 0 {
            0.0
        } else {
            (active + trans) as f64 / total as f64
        };
        (duty, energy - self.snap.energy)
    }

    /// Drops every open round, cancelling its pending collection
    /// timeout (revival, or leaving the tree).
    pub(crate) fn close_rounds(&mut self, ctx: &mut Context<'_, Ev>) {
        for qs in &mut self.queries {
            for r in qs.rounds.drain() {
                if let Some(id) = r.timeout_ev {
                    ctx.cancel(id);
                }
            }
        }
    }

    /// Stops taking part in every query: no expected children, and the
    /// policy forgets each query's schedule.
    pub(crate) fn leave_queries(&mut self) {
        for (qi, qs) in self.queries.iter_mut().enumerate() {
            qs.expected = None;
            self.policy.forget_query(QueryId::new(qi as u32));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(redispatches: u32) -> RoundState {
        RoundState {
            agg: RoundAggregator::new(&[]),
            timeout_ev: None,
            deadline: None,
            piggyback: None,
            release_planned: false,
            redispatches,
        }
    }

    #[test]
    fn rounds_stay_sorted_by_round_number() {
        let mut rounds = Rounds::default();
        for k in [5, 3, 4] {
            rounds.insert(k, round(k as u32));
        }
        assert_eq!(rounds.keys().collect::<Vec<_>>(), [3, 4, 5]);
        assert_eq!(rounds.get(4).map(|r| r.redispatches), Some(4));
        rounds.get_mut(4).expect("open").redispatches = 9;
        assert_eq!(rounds.remove(3).map(|r| r.redispatches), Some(3));
        assert!(rounds.get(3).is_none() && rounds.remove(3).is_none());
        let left: Vec<u32> = rounds.drain().map(|r| r.redispatches).collect();
        assert_eq!(left, [9, 5]);
        assert_eq!(rounds.keys().count(), 0);
    }
}
