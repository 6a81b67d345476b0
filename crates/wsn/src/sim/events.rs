//! The simulator's event alphabet.
//!
//! Everything the engine can deliver to the [`super::World`]. Protocol
//! behaviour never adds variants here: policies arm [`PolicyTimer`]s
//! through the generic [`Ev::Policy`] event, so the alphabet is closed
//! over the executor's own machinery (rounds, MAC, radio, lifecycle).

use essat_core::policy::PolicyTimer;
use essat_net::channel::TxId;
use essat_net::ids::NodeId;
use essat_net::mac::MacTimer;
use essat_sim::time::SimTime;

/// Simulation events.
#[derive(Debug)]
pub enum Ev {
    /// End of the setup slot: metrics snapshot + first sleep decisions.
    SetupEnd,
    /// A forced-awake window (flooded query dissemination) closed.
    ForcedWindowEnd,
    /// Round `round` of query `query` begins at `node` (local sampling).
    RoundStart {
        /// Sampling node.
        node: NodeId,
        /// Query index.
        query: usize,
        /// Round number.
        round: u64,
    },
    /// Collection timeout for `(node, query, round)`. Superseded
    /// timeouts (deadline refreshes, early round completion) are truly
    /// cancelled via the handle stored in the round state, so a
    /// dispatched timeout is always current.
    CollectionTimeout {
        /// Aggregating node.
        node: NodeId,
        /// Query index.
        query: usize,
        /// Round number.
        round: u64,
    },
    /// A buffered report reaches its policy release time.
    ReleaseReport {
        /// Sending node.
        node: NodeId,
        /// Query index.
        query: usize,
        /// Round number.
        round: u64,
    },
    /// MAC timer expiry. Disarmed timers are cancelled on the queue
    /// through the handle the executor stores per node and timer kind,
    /// so an expiry that dispatches is always the armed one.
    MacTimer {
        /// Owning node.
        node: NodeId,
        /// Timer class.
        kind: MacTimer,
    },
    /// A transmission leaves the air. The frame body is parked in the
    /// world's `tx_frames` side table (indexed by the transmission
    /// slot) rather than carried here, so the whole event alphabet
    /// stays small enough that queue slots are cheap to copy.
    TxEnd {
        /// Transmitting node.
        sender: NodeId,
        /// Channel handle.
        tx: TxId,
    },
    /// A radio power transition completes.
    RadioDone {
        /// Owning node.
        node: NodeId,
    },
    /// Safe-Sleep-scheduled wake-up (`t_wakeup − t_OFF→ON`). A newer
    /// sleep decision cancels the superseded wake-up via the handle in
    /// `Hot::wake_ev` instead of letting it fire stale.
    RadioWake {
        /// Owning node.
        node: NodeId,
    },
    /// A policy timer expired (SYNC edges, PSM windows, …).
    Policy {
        /// Owning node.
        node: NodeId,
        /// Which timer.
        timer: PolicyTimer,
        /// The schedule time the policy armed — what the node's local
        /// clock reads when the timer fires. Under clock faults the
        /// event is dispatched at the wall-converted instant, but the
        /// policy must see its own clock, or schedule-driven policies
        /// would re-arm the same edge forever.
        local: SimTime,
    },
    /// Scripted or scenario node failure.
    NodeFail {
        /// The failing node.
        node: NodeId,
    },
    /// Scenario churn recovery: a dead node comes back.
    NodeRecover {
        /// The recovering node.
        node: NodeId,
    },
    /// Periodic battery-depletion sweep (scenario battery model).
    BatteryCheck,
    /// Flooded setup: the root issues a query announcement.
    FloodIssue {
        /// Query index.
        query: usize,
    },
    /// Flooded setup: wake everyone for the setup window.
    ForceWake {
        /// Node to wake.
        node: NodeId,
    },
}

impl Ev {
    /// Stable label for the event's variant, used by observability
    /// probes (the per-dispatch hook reports which alphabet entry is
    /// being handled).
    pub fn label(&self) -> &'static str {
        match self {
            Ev::SetupEnd => "setup_end",
            Ev::ForcedWindowEnd => "forced_window_end",
            Ev::RoundStart { .. } => "round_start",
            Ev::CollectionTimeout { .. } => "collection_timeout",
            Ev::ReleaseReport { .. } => "release_report",
            Ev::MacTimer { .. } => "mac_timer",
            Ev::TxEnd { .. } => "tx_end",
            Ev::RadioDone { .. } => "radio_done",
            Ev::RadioWake { .. } => "radio_wake",
            Ev::Policy { .. } => "policy",
            Ev::NodeFail { .. } => "node_fail",
            Ev::NodeRecover { .. } => "node_recover",
            Ev::BatteryCheck => "battery_check",
            Ev::FloodIssue { .. } => "flood_issue",
            Ev::ForceWake { .. } => "force_wake",
        }
    }
}
