//! The per-node stack: radio + MAC + power policy + query-agent state.
//!
//! A [`NodeState`] is one node's slice of the world. The power-
//! management personality lives entirely behind the
//! [`PowerPolicy`] trait object; everything else here is
//! protocol-agnostic: the physical layers, the per-round aggregation
//! state, and the §4.3 maintenance detectors.

use std::collections::{BTreeMap, BTreeSet};

use essat_core::maintenance::{FailureDetector, LossDetector};
use essat_core::policy::PowerPolicy;
use essat_net::ids::NodeId;
use essat_net::mac::{Mac, MacTimer};
use essat_net::radio::Radio;
use essat_query::round::{RoundAggregator, RoundKey};
use essat_sim::queue::EventId;
use essat_sim::time::SimTime;

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
/// The scalar flags consulted on (nearly) every event — liveness, tree
/// membership, radio mode, pending wake-up handles — do **not** live here:
/// they are flattened into the structure-of-arrays
/// [`Hot`](super::world::Hot) block on the `World`, so per-event guard
/// checks and whole-network sweeps stay cache-linear instead of striding
/// across these ~half-KB node records.
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
    pub(crate) died_at: Option<SimTime>,
    pub(crate) participating: BTreeSet<usize>,
    pub(crate) expected_children: BTreeMap<usize, Vec<NodeId>>,
    pub(crate) rounds: BTreeMap<RoundKey, RoundState>,
    /// Highest round released/completed per query (staleness guard).
    pub(crate) done: BTreeMap<usize, u64>,
    pub(crate) loss: LossDetector,
    pub(crate) child_fail: FailureDetector,
    pub(crate) parent_fail: FailureDetector,
    /// `(query, child)` pairs whose DTS phase is suspected stale.
    pub(crate) stale_phase: BTreeSet<(usize, NodeId)>,
    /// Next round each query's chain should handle (duplicate-chain
    /// guard for churn-recovery restarts).
    pub(crate) next_round: BTreeMap<usize, u64>,
    /// Times this node has been revived by churn.
    pub(crate) revivals: u64,
    /// Set when a skipped round moved expectations while the radio was
    /// mid-turn-on: re-run the sleep checkpoint once the wake-up
    /// completes.
    pub(crate) recheck_on_wake: bool,
    /// Flooded setup: queries already registered.
    pub(crate) registered: BTreeSet<usize>,
    pub(crate) snap: RadioSnapshot,
    pub(crate) rank0: u32,
    pub(crate) level0: u32,
}
