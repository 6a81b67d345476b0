//! The pluggable power-management layer: [`PowerPolicy`].
//!
//! The paper's central architectural claim is that application timing
//! semantics are a *policy* sitting between the MAC and the query
//! agent. This module makes that seam explicit: the simulator's node
//! stack drives a `PowerPolicy` trait object through a narrow
//! event-driven interface (query registration, round lifecycle,
//! frame rx/tx completions, policy timers, sleep checkpoints), and the
//! policy answers with typed [`PolicyAction`]s that the executor
//! applies mechanically — it never branches on *which* protocol is
//! running.
//!
//! The ESSAT protocols (NTS-SS, STS-SS, DTS-SS, and the related-work
//! TAG-SS) are all instances of one policy, [`EssatPolicy`]: a
//! [`TrafficShaper`] deciding release times and feeding expectations to
//! a [`SafeSleep`] scheduler. The comparison baselines (SYNC, PSM,
//! SPAN's always-on backbone) implement the same trait in
//! `essat-baselines`, and out-of-tree experiments can plug in their own
//! implementation through the simulator's policy factory without
//! touching the executor.

use std::fmt;

use essat_net::frame::Frame;
use essat_net::ids::NodeId;
use essat_query::model::{Query, QueryId};
use essat_sim::time::{SimDuration, SimTime};

use crate::safe_sleep::{SafeSleep, SleepDecision};
use crate::shaper::{Expectations, Release, TrafficShaper, TreeInfo};

/// Timers a policy may arm through [`PolicyAction::SetTimer`].
///
/// The executor routes expiries back into [`PowerPolicy::on_timer`]
/// without interpreting them, except for *chain* timers (schedule
/// chains that survive across events): it keeps the queue handle of
/// every pending chain link, and node death and revival cancel them
/// all, so a revived node can re-arm its chain without duplicating it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyTimer {
    /// SYNC schedule edge (active-window start or end).
    SyncEdge,
    /// PSM beacon boundary.
    PsmBeacon,
    /// End of the PSM ATIM window.
    PsmAtimEnd,
    /// End of the PSM advertisement window.
    PsmAdvEnd,
    /// Release PSM-buffered frames to a confirmed destination.
    PsmRelease {
        /// The confirmed destination.
        dest: NodeId,
    },
    /// Self-healing tree-repair backoff timer. Unlike every other
    /// variant this one is armed by the *executor* (when a §4.3
    /// failure detector trips), not by a policy; it rides the same
    /// `Ev::Policy` plumbing so its `EventId` handle obeys the
    /// cancel-on-disarm discipline, and the executor intercepts its
    /// expiry before the policy dispatch.
    Repair {
        /// The suspected-failed neighbour the repair targets.
        target: NodeId,
    },
    /// A timer belonging to an out-of-tree policy. The executor never
    /// interprets `key`; `chain` selects the schedule-chain semantics
    /// (see [`PolicyTimer::is_chain`]).
    Custom {
        /// Policy-defined discriminator (a policy with several timers
        /// tells them apart by key).
        key: u16,
        /// True for self-perpetuating schedule chains that churn must
        /// be able to cancel.
        chain: bool,
    },
}

impl PolicyTimer {
    /// True for self-perpetuating schedule chains (SYNC edges, PSM
    /// beacons, chain-flagged custom timers): the executor tracks each
    /// pending link by its queue handle and cancels the whole chain when
    /// the node dies or is revived, so a revived node can re-arm its
    /// chain without duplicating it. A chain link armed while the node
    /// is dead is dropped when it fires.
    pub fn is_chain(self) -> bool {
        matches!(
            self,
            PolicyTimer::SyncEdge
                | PolicyTimer::PsmBeacon
                | PolicyTimer::Custom { chain: true, .. }
        )
    }
}

/// What a policy asks the executor to do.
///
/// Actions are executed strictly in the order the policy emitted them;
/// the executor adds no reordering, so a policy controls the relative
/// order of same-instant events it causes.
#[derive(Debug)]
pub enum PolicyAction<P> {
    /// Begin waking the radio (no-op if already active, queued if
    /// mid-transition).
    WakeRadio,
    /// Arm a policy timer at an absolute time.
    SetTimer {
        /// Which timer.
        timer: PolicyTimer,
        /// Absolute expiry time.
        at: SimTime,
    },
    /// Send a PSM traffic announcement (ATIM) to `dest`; the executor
    /// builds the protocol frame and hands it to the MAC.
    SendAtim {
        /// Announcement destination.
        dest: NodeId,
    },
    /// Hand a frame to the MAC.
    Enqueue(Frame<P>),
    /// ESSAT sleep: suspend the MAC, switch the radio off, and (when
    /// `wake_at` is set) arm a wake-up. Either way the node's pending
    /// wake-up, if any, is cancelled on the queue: the newest sleep
    /// decision owns the node's only wake-up handle.
    Sleep {
        /// When to start the OFF→ON transition; `None` sleeps until
        /// externally re-activated (no queries routed through here).
        wake_at: Option<SimTime>,
    },
    /// Baseline sleep at a schedule boundary: suspend and switch off,
    /// leaving the policy's own chain timers to wake the node.
    Suspend,
}

/// Why the executor is giving the policy a chance to sleep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SleepTrigger {
    /// The MAC went quiescent: ESSAT's `checkState` call sites (a frame
    /// completed, a round advanced, a radio finished waking). The
    /// executor only delivers this trigger while
    /// [`NodeView::mac_quiescent`] holds; activity points that leave the
    /// MAC busy never reach the policy.
    Quiesce,
    /// A protocol-agnostic boundary (end of the setup slot, end of a
    /// forced-awake window): every policy re-evaluates.
    Boundary,
}

/// Read-only snapshot of the node's lower layers, passed to policy
/// entry points that gate on them. The policy sees exactly the
/// predicates the monolithic simulator used to test inline.
#[derive(Debug, Clone, Copy)]
pub struct NodeView {
    /// Current simulation time.
    pub now: SimTime,
    /// The node is dead (failed, churned out, or battery-depleted).
    pub dead: bool,
    /// The radio is in the `Active` state.
    pub radio_active: bool,
    /// The MAC is fully idle (no queued frames, no timers, no backoff).
    pub mac_quiescent: bool,
    /// The MAC may be suspended (weaker than quiescent: baselines park
    /// mid-backoff state across scheduled sleep windows).
    pub mac_can_suspend: bool,
    /// Sleeping is allowed at all: the setup slot is over and no
    /// forced-awake (flooded-setup) window is open.
    pub may_sleep: bool,
    /// The radio's ON→OFF transition time (ESSAT needs headroom to
    /// complete it before a scheduled wake-up).
    pub turn_off: SimDuration,
}

/// A node's power-management personality.
///
/// One instance per node per run. Implementations must be
/// deterministic — identical call sequences must produce identical
/// actions — and `Send`, so whole simulations can be farmed out across
/// threads by the experiment runner.
///
/// Every method has a no-op default; a policy implements only the
/// events it cares about. `P` is the upper-layer payload type carried
/// by frames (policies treat it opaquely).
pub trait PowerPolicy<P>: fmt::Debug + Send {
    /// Stable display name (the protocol label tests and figures key
    /// on, e.g. `"DTS-SS"`).
    fn name(&self) -> &'static str;

    // ------------------------------------------------------------------
    // Query registration and schedule derivation
    // ------------------------------------------------------------------

    /// A query was registered at this node.
    fn on_register(&mut self, _q: &Query, _tree: &TreeInfo<'_>, _is_root: bool) {}

    /// The node left the tree (or re-joins from scratch): drop every
    /// commitment tied to `q`.
    fn forget_query(&mut self, _q: QueryId) {}

    /// The absolute deadline for collecting round `k`'s child reports.
    fn collection_deadline(&self, q: &Query, k: u64, tree: &TreeInfo<'_>) -> SimTime;

    // ------------------------------------------------------------------
    // Round lifecycle
    // ------------------------------------------------------------------

    /// Round `k`'s aggregated report became ready at `ready_at`.
    /// Returns when to hand it to the MAC and what to piggyback.
    fn plan_release(
        &mut self,
        q: &Query,
        k: u64,
        ready_at: SimTime,
        tree: &TreeInfo<'_>,
    ) -> Release;

    /// A ready report frame is being dispatched towards `dest`.
    /// The default hands it straight to the MAC; buffering policies
    /// (PSM) park it and announce instead.
    fn dispatch_report(
        &mut self,
        frame: Frame<P>,
        _dest: NodeId,
        _view: &NodeView,
        out: &mut Vec<PolicyAction<P>>,
    ) {
        out.push(PolicyAction::Enqueue(frame));
    }

    /// The node's scheduler decided round `k` will not run locally at
    /// all (a traffic-phase quiet round): advance any schedule state
    /// past it.
    fn on_round_skipped(
        &mut self,
        _q: &Query,
        _k: u64,
        _expected: &[NodeId],
        _is_root: bool,
        _tree: &TreeInfo<'_>,
    ) {
    }

    /// `child` missed the collection deadline for round `k`.
    fn on_child_timeout(&mut self, _q: &Query, _child: NodeId, _k: u64, _tree: &TreeInfo<'_>) {}

    // ------------------------------------------------------------------
    // Frame-level notifications
    // ------------------------------------------------------------------

    /// A round-`k` report arrived from `child`, possibly carrying a
    /// piggybacked phase update.
    fn on_report_received(
        &mut self,
        _q: &Query,
        _child: NodeId,
        _k: u64,
        _now: SimTime,
        _piggyback: Option<SimTime>,
        _tree: &TreeInfo<'_>,
    ) {
    }

    /// Round `k`'s report finished sending successfully.
    fn on_report_sent(&mut self, _q: &Query, _k: u64, _now: SimTime, _tree: &TreeInfo<'_>) {}

    /// Round `k`'s report exhausted its MAC retries.
    fn on_report_failed(&mut self, _q: &Query, _k: u64, _now: SimTime, _tree: &TreeInfo<'_>) {}

    /// An ATIM announcement from `src` arrived.
    fn on_atim_received(&mut self, _src: NodeId) {}

    /// Our ATIM to `dest` was acknowledged: data for it may flow this
    /// beacon interval.
    fn on_atim_sent(&mut self, _dest: NodeId, _view: &NodeView, _out: &mut Vec<PolicyAction<P>>) {}

    /// True if this policy resynchronises through phase updates and
    /// wants a phase-update request after detected losses (DTS).
    fn wants_phase_resync(&self) -> bool {
        false
    }

    /// A peer asked for an explicit phase update.
    fn on_phase_update_request(&mut self, _q: &Query) {}

    // ------------------------------------------------------------------
    // Repair (§4.3)
    // ------------------------------------------------------------------

    /// `child` was declared failed or re-parented away.
    fn on_child_removed(&mut self, _q: &Query, _child: NodeId) {}

    /// The node's place in the tree changed: re-derive the schedule.
    /// `kids_now` is the current child set; `old_kids` the previous one
    /// (`None` if the query had no child list yet).
    #[allow(clippy::too_many_arguments)]
    fn on_topology_change(
        &mut self,
        _q: &Query,
        _tree: &TreeInfo<'_>,
        _is_root: bool,
        _now: SimTime,
        _kids_now: &[NodeId],
        _old_kids: Option<&[NodeId]>,
    ) {
    }

    // ------------------------------------------------------------------
    // Sleep / wake decisions
    // ------------------------------------------------------------------

    /// A chance to switch the radio off. Emit [`PolicyAction::Sleep`]
    /// or [`PolicyAction::Suspend`] to take it; emit nothing to stay
    /// awake. The policy is responsible for checking the `view` guards
    /// relevant to it.
    fn sleep_decision(
        &mut self,
        _trigger: SleepTrigger,
        _view: &NodeView,
        _out: &mut Vec<PolicyAction<P>>,
    ) {
    }

    /// The earliest commitment the node must be awake for, if the
    /// policy tracks any (ESSAT's `min(snext, rnext)`); drives wake-up
    /// re-arming after a repair touched a sleeping node.
    fn earliest_commitment(&self) -> Option<SimTime> {
        None
    }

    // ------------------------------------------------------------------
    // Timers and lifecycle
    // ------------------------------------------------------------------

    /// Actions to schedule at the start of the run. Only
    /// [`PolicyAction::SetTimer`] is meaningful before the first event
    /// (radios start active; there is nothing to wake, sleep, or send
    /// yet), and the executor rejects anything else here — arm the
    /// schedule chains and do everything further in [`Self::on_timer`].
    fn initial_actions(&mut self, _out: &mut Vec<PolicyAction<P>>) {}

    /// A previously armed [`PolicyTimer`] expired.
    fn on_timer(&mut self, _timer: PolicyTimer, _view: &NodeView, _out: &mut Vec<PolicyAction<P>>) {
    }

    /// The node was revived by churn recovery: reset per-interval state
    /// and re-arm schedule chains.
    fn on_revive(&mut self, _now: SimTime, _out: &mut Vec<PolicyAction<P>>) {}
}

/// The ESSAT power manager: a [`TrafficShaper`] deciding release times
/// and feeding send/receive expectations to [`SafeSleep`] (§4.1–4.2).
///
/// NTS-SS, STS-SS, DTS-SS, and TAG-SS are all this policy with a
/// different shaper plugged in.
#[derive(Debug)]
pub struct EssatPolicy {
    name: &'static str,
    shaper: Box<dyn TrafficShaper>,
    ss: SafeSleep,
}

impl EssatPolicy {
    /// Combines a shaper with a Safe Sleep scheduler configured for the
    /// radio's break-even time `t_be` and turn-on time `t_on`. `name`
    /// is the protocol label (`"NTS-SS"`, `"TAG-SS"`, …).
    pub fn new(
        name: &'static str,
        shaper: Box<dyn TrafficShaper>,
        t_be: SimDuration,
        t_on: SimDuration,
    ) -> Self {
        EssatPolicy {
            name,
            shaper,
            ss: SafeSleep::new(t_be, t_on),
        }
    }

    /// The Safe Sleep scheduler (tests inspect expectations).
    pub fn safe_sleep(&self) -> &SafeSleep {
        &self.ss
    }

    fn apply_expectations(&mut self, q: QueryId, exps: &Expectations, is_root: bool) {
        match exps.snext {
            Some(s) if !is_root => self.ss.update_next_send(q, s),
            _ => self.ss.clear_send(q),
        }
        for &(c, r) in &exps.rnext {
            self.ss.update_next_receive(q, c, r);
        }
    }
}

impl<P> PowerPolicy<P> for EssatPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_register(&mut self, q: &Query, tree: &TreeInfo<'_>, is_root: bool) {
        let exps = self.shaper.register(q, tree, is_root);
        self.apply_expectations(q.id, &exps, is_root);
    }

    fn forget_query(&mut self, q: QueryId) {
        self.ss.remove_query(q);
    }

    fn collection_deadline(&self, q: &Query, k: u64, tree: &TreeInfo<'_>) -> SimTime {
        self.shaper.collection_deadline(q, k, tree)
    }

    fn plan_release(
        &mut self,
        q: &Query,
        k: u64,
        ready_at: SimTime,
        tree: &TreeInfo<'_>,
    ) -> Release {
        self.shaper.release(q, k, ready_at, tree)
    }

    fn on_round_skipped(
        &mut self,
        q: &Query,
        k: u64,
        expected: &[NodeId],
        is_root: bool,
        tree: &TreeInfo<'_>,
    ) {
        for &c in expected {
            let rnext = self.shaper.child_timed_out(q, c, k, tree);
            self.ss.update_next_receive(q.id, c, rnext);
        }
        if !is_root {
            let snext = self.shaper.round_skipped(q, k, tree);
            self.ss.update_next_send(q.id, snext);
        }
    }

    fn on_child_timeout(&mut self, q: &Query, child: NodeId, k: u64, tree: &TreeInfo<'_>) {
        let rnext = self.shaper.child_timed_out(q, child, k, tree);
        self.ss.update_next_receive(q.id, child, rnext);
    }

    fn on_report_received(
        &mut self,
        q: &Query,
        child: NodeId,
        k: u64,
        now: SimTime,
        piggyback: Option<SimTime>,
        tree: &TreeInfo<'_>,
    ) {
        let rnext = self.shaper.after_receive(q, child, k, now, piggyback, tree);
        self.ss.update_next_receive(q.id, child, rnext);
    }

    fn on_report_sent(&mut self, q: &Query, k: u64, now: SimTime, tree: &TreeInfo<'_>) {
        let snext = self.shaper.after_send(q, k, now, tree);
        self.ss.update_next_send(q.id, snext);
    }

    fn on_report_failed(&mut self, q: &Query, k: u64, now: SimTime, tree: &TreeInfo<'_>) {
        // The schedule advances regardless (the round is lost).
        let snext = self.shaper.after_send(q, k, now, tree);
        self.ss.update_next_send(q.id, snext);
        // A failed exchange usually means the parent was not listening
        // when we expected it to be — our phases have diverged.
        // Advertise ours on the next report so the parent can re-arm
        // (§4.3).
        if self.shaper.wants_phase_resync() {
            self.shaper.on_phase_update_request(q);
        }
    }

    fn wants_phase_resync(&self) -> bool {
        self.shaper.wants_phase_resync()
    }

    fn on_phase_update_request(&mut self, q: &Query) {
        self.shaper.on_phase_update_request(q);
    }

    fn on_child_removed(&mut self, q: &Query, child: NodeId) {
        self.ss.clear_receive(q.id, child);
        self.shaper.remove_child(q, child);
    }

    fn on_topology_change(
        &mut self,
        q: &Query,
        tree: &TreeInfo<'_>,
        is_root: bool,
        now: SimTime,
        kids_now: &[NodeId],
        old_kids: Option<&[NodeId]>,
    ) {
        self.ss.retain_children(q.id, kids_now);
        match self.shaper.on_topology_change(q, tree, is_root, now) {
            Some(exps) => self.apply_expectations(q.id, &exps, is_root),
            None => {
                // NTS/DTS: existing children keep their current
                // expectations; *new* children (re-parented here) get a
                // conservative one — the start of the current round,
                // i.e. "assume busy until the child's first report
                // re-synchronises us" (phase shifts only ever delay, so
                // an early expectation is always safe).
                let conservative = q.round_at(now).map(|k| q.round_start(k)).unwrap_or(q.phase);
                for &c in kids_now {
                    let is_new = old_kids.map(|old| !old.contains(&c)).unwrap_or(true);
                    if is_new {
                        self.ss.update_next_receive(q.id, c, conservative);
                    }
                }
            }
        }
    }

    fn sleep_decision(
        &mut self,
        _trigger: SleepTrigger,
        view: &NodeView,
        out: &mut Vec<PolicyAction<P>>,
    ) {
        // ESSAT re-evaluates checkState at every quiesce point and
        // every boundary alike.
        if !view.may_sleep || view.dead || !view.radio_active || !view.mac_quiescent {
            return;
        }
        match self.ss.decide(view.now) {
            SleepDecision::Sleep { start_wake_at, .. } => {
                if start_wake_at <= view.now + view.turn_off {
                    return; // no room to complete the off transition
                }
                out.push(PolicyAction::Sleep {
                    wake_at: Some(start_wake_at),
                });
            }
            SleepDecision::Unconstrained => {
                // No queries routed through this node: sleep until
                // poked.
                out.push(PolicyAction::Sleep { wake_at: None });
            }
            SleepDecision::Busy | SleepDecision::StayAwake { .. } => {}
        }
    }

    fn earliest_commitment(&self) -> Option<SimTime> {
        self.ss.earliest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nts::Nts;
    use crate::sts::Sts;
    use essat_query::aggregate::AggregateOp;
    use essat_query::model::QueryId;

    fn query(period_ms: u64, phase_ms: u64) -> Query {
        Query::periodic(
            QueryId::new(0),
            SimDuration::from_millis(period_ms),
            SimTime::from_millis(phase_ms),
            AggregateOp::Avg,
        )
    }

    fn nts_policy() -> EssatPolicy {
        EssatPolicy::new(
            "NTS-SS",
            Box::new(Nts::new()),
            SimDuration::from_micros(2_500),
            SimDuration::from_micros(1_250),
        )
    }

    fn awake_view(now: SimTime) -> NodeView {
        NodeView {
            now,
            dead: false,
            radio_active: true,
            mac_quiescent: true,
            mac_can_suspend: true,
            may_sleep: true,
            turn_off: SimDuration::from_micros(1_250),
        }
    }

    fn decide(p: &mut EssatPolicy, view: &NodeView) -> Vec<PolicyAction<()>> {
        let mut out = Vec::new();
        p.sleep_decision(SleepTrigger::Quiesce, view, &mut out);
        out
    }

    #[test]
    fn unregistered_node_sleeps_unconstrained() {
        let mut p = nts_policy();
        let acts = decide(&mut p, &awake_view(SimTime::from_millis(5)));
        assert!(
            matches!(acts[..], [PolicyAction::Sleep { wake_at: None }]),
            "{acts:?}"
        );
    }

    #[test]
    fn safe_sleep_rule_wakes_turn_on_early() {
        // Leaf source, NTS: s(k) = φ + kP, so after registration the
        // node expects to send at the phase. Sleeping must start the
        // wake-up exactly t_OFF→ON before that expectation.
        let mut p = nts_policy();
        let q = query(1_000, 100);
        PowerPolicy::<()>::on_register(&mut p, &q, &TreeInfo::leaf(3), false);
        let acts = decide(&mut p, &awake_view(SimTime::from_millis(5)));
        let expected_wake = SimTime::from_millis(100) - SimDuration::from_micros(1_250);
        match acts[..] {
            [PolicyAction::Sleep {
                wake_at: Some(at), ..
            }] => assert_eq!(at, expected_wake),
            ref other => panic!("expected a scheduled sleep, got {other:?}"),
        }
    }

    #[test]
    fn no_sleep_when_gap_below_break_even() {
        // 1 ms before the send expectation the free interval is under
        // t_BE = 2.5 ms: Safe Sleep's no-energy-penalty rule keeps the
        // radio on.
        let mut p = nts_policy();
        let q = query(1_000, 100);
        PowerPolicy::<()>::on_register(&mut p, &q, &TreeInfo::leaf(3), false);
        let acts = decide(&mut p, &awake_view(SimTime::from_millis(99)));
        assert!(acts.is_empty(), "{acts:?}");
    }

    #[test]
    fn busy_while_expectation_overdue() {
        let mut p = nts_policy();
        let q = query(1_000, 100);
        PowerPolicy::<()>::on_register(&mut p, &q, &TreeInfo::leaf(3), false);
        let acts = decide(&mut p, &awake_view(SimTime::from_millis(100)));
        assert!(acts.is_empty(), "overdue expectation means busy");
    }

    #[test]
    fn guards_suppress_sleep() {
        let mut p = nts_policy();
        let now = SimTime::from_millis(5);
        for view in [
            NodeView {
                mac_quiescent: false,
                ..awake_view(now)
            },
            NodeView {
                radio_active: false,
                ..awake_view(now)
            },
            NodeView {
                dead: true,
                ..awake_view(now)
            },
            NodeView {
                may_sleep: false,
                ..awake_view(now)
            },
        ] {
            assert!(decide(&mut p, &view).is_empty(), "{view:?}");
        }
    }

    #[test]
    fn send_completion_advances_expectation() {
        let mut p = nts_policy();
        let q = query(1_000, 100);
        let leaf = TreeInfo::leaf(3);
        PowerPolicy::<()>::on_register(&mut p, &q, &leaf, false);
        PowerPolicy::<()>::on_report_sent(&mut p, &q, 0, SimTime::from_millis(101), &leaf);
        // The next commitment is round 1's send at φ + P.
        assert_eq!(
            PowerPolicy::<()>::earliest_commitment(&p),
            Some(SimTime::from_millis(1_100))
        );
    }

    #[test]
    fn skipped_round_advances_past_quiet_phase() {
        let mut p = nts_policy();
        let q = query(1_000, 100);
        let leaf = TreeInfo::leaf(3);
        PowerPolicy::<()>::on_register(&mut p, &q, &leaf, false);
        PowerPolicy::<()>::on_round_skipped(&mut p, &q, 0, &[], false, &leaf);
        assert_eq!(
            PowerPolicy::<()>::earliest_commitment(&p),
            Some(SimTime::from_millis(1_100)),
            "send expectation must move past the skipped round"
        );
    }

    #[test]
    fn forget_query_releases_all_commitments() {
        let mut p = nts_policy();
        let q = query(1_000, 100);
        PowerPolicy::<()>::on_register(&mut p, &q, &TreeInfo::leaf(3), false);
        PowerPolicy::<()>::forget_query(&mut p, q.id);
        assert_eq!(PowerPolicy::<()>::earliest_commitment(&p), None);
        let acts = decide(&mut p, &awake_view(SimTime::from_millis(5)));
        assert!(matches!(acts[..], [PolicyAction::Sleep { wake_at: None }]));
    }

    #[test]
    fn sts_policy_registers_child_expectations() {
        let mut p = EssatPolicy::new(
            "STS-SS",
            Box::new(Sts::new()),
            SimDuration::from_micros(2_500),
            SimDuration::from_micros(1_250),
        );
        let q = query(1_000, 0);
        let children = [(NodeId::new(4), 0)];
        let info = TreeInfo {
            own_rank: 1,
            max_rank: 3,
            own_level: 2,
            max_level: 3,
            children: &children,
        };
        PowerPolicy::<()>::on_register(&mut p, &q, &info, false);
        // Both a send and a receive expectation exist.
        assert!(p.safe_sleep().expectation_count() >= 2);
        // Removing the child drops its receive expectation.
        PowerPolicy::<()>::on_child_removed(&mut p, &q, NodeId::new(4));
        assert_eq!(p.safe_sleep().expectation_count(), 1);
    }

    #[test]
    fn dts_policy_phase_shifts_and_piggybacks_when_late() {
        let mut p = EssatPolicy::new(
            "DTS-SS",
            Box::new(crate::dts::Dts::new()),
            SimDuration::from_micros(2_500),
            SimDuration::from_micros(1_250),
        );
        let q = query(1_000, 100);
        let leaf = TreeInfo::leaf(3);
        PowerPolicy::<()>::on_register(&mut p, &q, &leaf, false);
        assert!(
            PowerPolicy::<()>::wants_phase_resync(&p),
            "DTS resynchronises through phase updates"
        );
        // Round 0 ready *after* its expected send s(0) = 100 ms: DTS
        // phase-shifts — send immediately and advertise the new phase
        // s(1) = ready + P so the parent can re-arm.
        let ready = SimTime::from_millis(140);
        let rel = PowerPolicy::<()>::plan_release(&mut p, &q, 0, ready, &leaf);
        assert_eq!(rel.send_at, ready);
        assert_eq!(rel.piggyback, Some(ready + SimDuration::from_millis(1_000)));
        // An on-time round buffers to the (shifted) schedule with no
        // piggyback.
        let rel1 = PowerPolicy::<()>::plan_release(&mut p, &q, 1, SimTime::from_millis(900), &leaf);
        assert_eq!(rel1.send_at, SimTime::from_millis(1_140));
        assert_eq!(rel1.piggyback, None);
    }

    #[test]
    fn root_never_expects_to_send() {
        let mut p = nts_policy();
        let q = query(1_000, 0);
        let children = [(NodeId::new(2), 0)];
        let info = TreeInfo {
            own_rank: 1,
            max_rank: 1,
            own_level: 0,
            max_level: 1,
            children: &children,
        };
        PowerPolicy::<()>::on_register(&mut p, &q, &info, true);
        // Only the child's receive expectation is tracked.
        assert_eq!(p.safe_sleep().expectation_count(), 1);
    }
}
