//! Power and link-layer plumbing: executing policy actions, MAC action
//! fan-out, radio transitions, and the sleep checkpoints.
//!
//! This is where [`PolicyAction`]s become engine events. The executor
//! applies whatever the node's [`essat_core::policy::PowerPolicy`]
//! emitted, strictly in order, and never decides protocol behaviour on
//! its own.

use essat_baselines::psm::ATIM_BYTES;
use essat_core::policy::{NodeView, PolicyAction, PolicyTimer, SleepTrigger};
use essat_net::channel::TxId;
use essat_net::frame::{Dest, Frame, FrameKind};
use essat_net::ids::NodeId;
use essat_net::mac::{MacAction, MacTimer};
use essat_net::radio::TransitionOutcome;
use essat_obs::{PolicyActionKind, Probe};
use essat_sim::engine::Context;
use essat_sim::time::SimTime;

use super::events::Ev;
use super::world::World;
use crate::payload::Payload;

impl<P: Probe> World<P> {
    /// Snapshot of a node's lower layers for a policy call.
    pub(crate) fn node_view(&self, node: NodeId, now: SimTime) -> NodeView {
        let i = node.index();
        let n = &self.nodes[i];
        NodeView {
            now,
            dead: self.hot.dead[i],
            radio_active: n.radio.is_active(),
            mac_quiescent: n.mac.is_quiescent(),
            mac_can_suspend: n.mac.can_suspend(),
            may_sleep: self.setup_over && !self.in_forced_window(now),
            turn_off: n.radio.params().turn_off,
        }
    }

    /// A recycled action buffer (policies run on every event; steady-
    /// state execution must not allocate).
    pub(crate) fn take_acts(&mut self) -> Vec<PolicyAction<Payload>> {
        self.act_pool.pop().unwrap_or_default()
    }

    /// Returns an action buffer to the pool.
    pub(crate) fn put_acts(&mut self, mut acts: Vec<PolicyAction<Payload>>) {
        acts.clear();
        self.act_pool.push(acts);
    }

    /// Applies policy actions in emission order.
    pub(crate) fn exec_policy_actions(
        &mut self,
        node: NodeId,
        acts: &mut Vec<PolicyAction<Payload>>,
        ctx: &mut Context<'_, Ev>,
    ) {
        for action in acts.drain(..) {
            if self.probe.enabled() {
                let kind = match &action {
                    PolicyAction::WakeRadio => PolicyActionKind::WakeRadio,
                    PolicyAction::SetTimer { .. } => PolicyActionKind::SetTimer,
                    PolicyAction::SendAtim { .. } => PolicyActionKind::SendAtim,
                    PolicyAction::Enqueue(_) => PolicyActionKind::Enqueue,
                    PolicyAction::Sleep { .. } | PolicyAction::Suspend => PolicyActionKind::Sleep,
                };
                self.probe
                    .on_policy_action(ctx.now(), node.index() as u32, kind);
            }
            match action {
                PolicyAction::WakeRadio => self.wake_radio(node, ctx),
                PolicyAction::SetTimer { timer, at } => {
                    let wall = self.to_wall(node, at).max(ctx.now());
                    let id = ctx.schedule_at(
                        wall,
                        Ev::Policy {
                            node,
                            timer,
                            local: at,
                        },
                    );
                    if timer.is_chain() {
                        // Track chain-timer events so churn (death /
                        // revival) can cancel the whole chain instead of
                        // letting stale links fire into a re-armed one.
                        // Consumed ids linger until this lazy compaction;
                        // chains hold ~1 pending link, so the list stays
                        // tiny.
                        let list = &mut self.chain_ev[node.index()];
                        list.retain(|&old| ctx.is_pending(old));
                        list.push(id);
                    }
                }
                PolicyAction::SendAtim { dest } => {
                    let frame = {
                        let n = &mut self.nodes[node.index()];
                        Frame {
                            id: n.mac.alloc_frame_id(),
                            src: node,
                            dest: Dest::Unicast(dest),
                            kind: FrameKind::Data,
                            bytes: ATIM_BYTES,
                            payload: Payload::Atim,
                        }
                    };
                    self.enqueue_frame(node, frame, ctx);
                }
                PolicyAction::Enqueue(frame) => self.enqueue_frame(node, frame, ctx),
                PolicyAction::Sleep { wake_at } => {
                    self.suspend_radio(node, ctx);
                    // A newer sleep decision supersedes any pending
                    // wake-up: cancel it outright.
                    if let Some(prev) = self.hot.wake_ev[node.index()].take() {
                        ctx.cancel(prev);
                    }
                    if let Some(at) = wake_at {
                        // Wake early by the guard time: desynced clocks
                        // make the planned instant unreliable, so buy
                        // tolerance with a little extra on-time.
                        let guard = self.guard_at(at);
                        let mut wall = self.to_wall(node, at);
                        if !guard.is_zero() {
                            wall = wall.saturating_sub(guard);
                            self.guard_wake_ns += guard.as_nanos();
                        }
                        let id = ctx.schedule_at(wall.max(ctx.now()), Ev::RadioWake { node });
                        self.hot.wake_ev[node.index()] = Some(id);
                    }
                }
                PolicyAction::Suspend => self.suspend_radio(node, ctx),
            }
        }
    }

    /// The radio-suspend handshake shared by every sleep path: park
    /// the MAC, start the ON→OFF transition, and schedule its
    /// completion. Callers are responsible for the guards (the radio
    /// must be active).
    pub(crate) fn suspend_radio(&mut self, node: NodeId, ctx: &mut Context<'_, Ev>) {
        let now = ctx.now();
        let i = node.index();
        let d = {
            let n = &mut self.nodes[i];
            n.mac.radio_slept(now);
            n.radio.begin_sleep(now).expect("radio is active")
        };
        // `radio_slept` disarmed every MAC timer; cancel their expiry
        // events so none ride the queue stale.
        self.cancel_mac_timers(node, ctx);
        self.probe.on_radio_state(now, i as u32, false);
        ctx.schedule_after(d, Ev::RadioDone { node });
    }

    /// Gives the node's policy a chance to sleep (`checkState` call
    /// sites and protocol-agnostic boundaries).
    ///
    /// A `Quiesce` checkpoint reaches neither the probe nor the policy
    /// unless the MAC really is quiescent (the [`SleepTrigger::Quiesce`]
    /// contract): most quiesce call sites fire mid-contention, where no
    /// policy may act.
    pub(crate) fn sleep_checkpoint(
        &mut self,
        node: NodeId,
        trigger: SleepTrigger,
        ctx: &mut Context<'_, Ev>,
    ) {
        if trigger == SleepTrigger::Quiesce && !self.nodes[node.index()].mac.is_quiescent() {
            return;
        }
        self.probe
            .on_sleep_checkpoint(ctx.now(), node.index() as u32);
        let view = self.node_view(node, ctx.now());
        let mut acts = self.take_acts();
        self.nodes[node.index()]
            .policy
            .sleep_decision(trigger, &view, &mut acts);
        self.exec_policy_actions(node, &mut acts, ctx);
        self.put_acts(acts);
    }

    /// A policy timer expired: route it back into the policy. Chain
    /// timers (SYNC edges, PSM beacons) are tracked by handle in
    /// `chain_ev`, and churn (death / revival) cancels the whole chain,
    /// so a re-armed chain is never duplicated by a stale pending
    /// expiry; the dead-guard below covers chain links armed *while*
    /// the node was dead (a dead node's non-chain timers still run).
    ///
    /// The policy's view carries `local` — the schedule time it armed,
    /// i.e. what its own (possibly skewed) clock reads at expiry — not
    /// the wall clock. A schedule-driven policy fed the wall clock
    /// would see a fast node's timer fire *before* the edge it asked
    /// for, re-arm the very same edge, and spin forever at one instant.
    pub(crate) fn handle_policy_timer(
        &mut self,
        node: NodeId,
        timer: PolicyTimer,
        local: SimTime,
        ctx: &mut Context<'_, Ev>,
    ) {
        // Repair timers belong to the executor's self-healing layer,
        // not to any policy: intercept before the policy dispatch.
        if let PolicyTimer::Repair { target } = timer {
            self.handle_repair_timer(node, target, ctx);
            return;
        }
        if timer.is_chain() {
            let i = node.index();
            let id = ctx.event_id();
            let list = &mut self.chain_ev[i];
            #[cfg(feature = "sanitize")]
            assert!(
                list.contains(&id),
                "sanitizer: untracked chain policy timer dispatched at node {node}"
            );
            // This link is consumed; drop its handle from the chain set.
            if let Some(pos) = list.iter().position(|&x| x == id) {
                list.swap_remove(pos);
            }
            if self.hot.dead[i] {
                return;
            }
        }
        let view = self.node_view(node, local);
        let mut acts = self.take_acts();
        self.nodes[node.index()]
            .policy
            .on_timer(timer, &view, &mut acts);
        self.exec_policy_actions(node, &mut acts, ctx);
        self.put_acts(acts);
    }

    // ------------------------------------------------------------------
    // MAC plumbing
    // ------------------------------------------------------------------

    /// A recycled MAC-action buffer (every MAC entry point on the event
    /// path writes into one of these; steady state must not allocate).
    pub(crate) fn take_macts(&mut self) -> Vec<MacAction<Payload>> {
        self.mact_pool.pop().unwrap_or_default()
    }

    /// Returns a MAC-action buffer to the pool.
    pub(crate) fn put_macts(&mut self, mut acts: Vec<MacAction<Payload>>) {
        acts.clear();
        self.mact_pool.push(acts);
    }

    /// Cancels the pending expiry of `node`'s MAC timer `kind`, if any.
    fn cancel_mac_timer(&mut self, node: NodeId, kind: MacTimer, ctx: &mut Context<'_, Ev>) {
        if let Some(id) = self.nodes[node.index()].mac_ev[kind.idx()].take() {
            ctx.cancel(id);
        }
    }

    /// Cancels the pending expiry of every MAC timer of `node`: its
    /// radio slept (which disarms them all), it died, or its MAC is
    /// about to be replaced.
    pub(crate) fn cancel_mac_timers(&mut self, node: NodeId, ctx: &mut Context<'_, Ev>) {
        for ev in &mut self.nodes[node.index()].mac_ev {
            if let Some(id) = ev.take() {
                ctx.cancel(id);
            }
        }
    }

    pub(crate) fn exec_mac_actions(
        &mut self,
        node: NodeId,
        actions: &mut Vec<MacAction<Payload>>,
        ctx: &mut Context<'_, Ev>,
    ) {
        for action in actions.drain(..) {
            match action {
                MacAction::SetTimer { kind, after } => {
                    // A re-arm replaces the pending expiry. A delivery
                    // executed earlier in this batch may have slept the
                    // radio, disarming the timer again: then schedule
                    // nothing.
                    self.cancel_mac_timer(node, kind, ctx);
                    if self.nodes[node.index()].mac.is_armed(kind) {
                        let id = ctx.schedule_after(after, Ev::MacTimer { node, kind });
                        self.nodes[node.index()].mac_ev[kind.idx()] = Some(id);
                    }
                }
                MacAction::CancelTimer { kind } => self.cancel_mac_timer(node, kind, ctx),
                MacAction::StartTx { frame, airtime } => {
                    self.probe.on_tx_start(
                        ctx.now(),
                        node.index() as u32,
                        airtime.as_nanos(),
                        frame.bytes,
                    );
                    let mut busy = std::mem::take(&mut self.now_busy);
                    let tx = self.channel.begin_tx(ctx.now(), node, &mut busy);
                    for &hn in &busy {
                        let h = hn.index();
                        if !self.hot.dead[h] && self.nodes[h].radio.is_active() {
                            // carrier_busy never emits actions, but it
                            // can freeze a Difs/Backoff timer.
                            if let Some(kind) = self.nodes[h].mac.carrier_busy(ctx.now()) {
                                self.cancel_mac_timer(hn, kind, ctx);
                            }
                        }
                    }
                    self.now_busy = busy;
                    // Park the frame beside the in-flight transmission;
                    // `handle_tx_end` reclaims it by slot.
                    let si = tx.slot_index();
                    if si >= self.tx_frames.len() {
                        self.tx_frames.resize_with(si + 1, || None);
                    }
                    self.tx_frames[si] = Some(frame);
                    ctx.schedule_after(airtime, Ev::TxEnd { sender: node, tx });
                }
                MacAction::Deliver { frame } => {
                    // A dead node's MAC is parked at death and every
                    // path into it is dead-guarded; a delivery here
                    // means a guard was bypassed.
                    #[cfg(feature = "sanitize")]
                    assert!(
                        !self.hot.dead[node.index()],
                        "sanitizer: frame delivered to dead node {node}"
                    );
                    self.handle_delivery(node, frame, ctx)
                }
                MacAction::TxDone { frame, attempts } => {
                    self.handle_tx_done(node, frame, attempts, ctx)
                }
                MacAction::TxFailed { frame, attempts } => {
                    self.handle_tx_failed(node, frame, attempts, ctx)
                }
            }
        }
    }

    pub(crate) fn enqueue_frame(
        &mut self,
        node: NodeId,
        frame: Frame<Payload>,
        ctx: &mut Context<'_, Ev>,
    ) {
        let mut acts = self.take_macts();
        self.nodes[node.index()]
            .mac
            .enqueue_into(frame, ctx.now(), &mut acts);
        self.exec_mac_actions(node, &mut acts, ctx);
        self.put_macts(acts);
    }

    // ------------------------------------------------------------------
    // Radio control
    // ------------------------------------------------------------------

    /// After a repair touched a sleeping node's expectations, re-arm
    /// its wake-up from the policy's earliest commitment.
    pub(crate) fn refresh_wake(&mut self, node: NodeId, ctx: &mut Context<'_, Ev>) {
        let now = ctx.now();
        let i = node.index();
        if self.hot.dead[i] {
            return;
        }
        let n = &self.nodes[i];
        if n.radio.is_active() {
            return; // awake: normal event flow handles it
        }
        let Some(earliest) = n.policy.earliest_commitment() else {
            return;
        };
        let turn_on = n.radio.params().turn_on;
        let guard = self.guard_at(earliest);
        let mut at = self.to_wall(node, earliest).saturating_sub(turn_on);
        if !guard.is_zero() {
            at = at.saturating_sub(guard);
            self.guard_wake_ns += guard.as_nanos();
        }
        if let Some(prev) = self.hot.wake_ev[i].take() {
            ctx.cancel(prev);
        }
        let id = ctx.schedule_at(at.max(now), Ev::RadioWake { node });
        self.hot.wake_ev[i] = Some(id);
    }

    /// Begin waking the radio if it is off (or queue the wake if it is
    /// mid-transition).
    pub(crate) fn wake_radio(&mut self, node: NodeId, ctx: &mut Context<'_, Ev>) {
        let now = ctx.now();
        if self.hot.dead[node.index()] {
            return;
        }
        let n = &mut self.nodes[node.index()];
        if n.radio.is_off() {
            let d = n.radio.begin_wake(now).expect("radio is off");
            ctx.schedule_after(d, Ev::RadioDone { node });
        } else {
            // Active / turning on: nothing. Turning off: queue the wake.
            let _ = n.radio.begin_wake(now);
        }
    }

    pub(crate) fn handle_radio_done(&mut self, node: NodeId, ctx: &mut Context<'_, Ev>) {
        let now = ctx.now();
        if self.hot.dead[node.index()] {
            return;
        }
        let outcome = self.nodes[node.index()].radio.finish_transition(now);
        match outcome {
            TransitionOutcome::NowOff => {}
            TransitionOutcome::NowActive { slept_since } => {
                // Figure 8 bins build-time members' sleeps that began
                // inside the measured window, as each one closes.
                if slept_since >= self.measure_from && self.pre.tree.is_member(node) {
                    self.sleep_hist.add((now - slept_since).as_secs_f64());
                }
                self.probe.on_radio_state(now, node.index() as u32, true);
                let busy = self.channel.carrier_busy(node);
                let mut acts = self.take_macts();
                self.nodes[node.index()]
                    .mac
                    .radio_woke_into(now, busy, &mut acts);
                self.exec_mac_actions(node, &mut acts, ctx);
                self.put_macts(acts);
                // A traffic-phase-skipped round advanced this node's
                // expectations while the radio was still turning on for
                // them; re-run the checkpoint now that it is active so
                // the node sleeps through the quiet round instead of
                // idling until the next event.
                if self.nodes[node.index()].recheck_on_wake {
                    self.nodes[node.index()].recheck_on_wake = false;
                    self.sleep_checkpoint(node, SleepTrigger::Quiesce, ctx);
                }
            }
            TransitionOutcome::OffWakeQueued => {
                let n = &mut self.nodes[node.index()];
                let d = n.radio.begin_wake(now).expect("just turned off");
                ctx.schedule_after(d, Ev::RadioDone { node });
            }
        }
    }

    pub(crate) fn handle_radio_wake(&mut self, node: NodeId, ctx: &mut Context<'_, Ev>) {
        let i = node.index();
        // Superseded wake-ups are cancelled at supersession, so a
        // dispatched wake is always the stored one; it is consumed here.
        let stored = self.hot.wake_ev[i].take();
        #[cfg(feature = "sanitize")]
        assert_eq!(
            stored,
            Some(ctx.event_id()),
            "sanitizer: stale radio wake dispatched at node {node}"
        );
        #[cfg(not(feature = "sanitize"))]
        let _ = stored;
        // Death does not cancel the pending wake (a node revived before
        // it fires still honours it, matching pre-handle semantics), so
        // a wake can dispatch for a still-dead node: drop it.
        if self.hot.dead[i] {
            return;
        }
        self.wake_radio(node, ctx);
    }

    pub(crate) fn handle_tx_end(&mut self, sender: NodeId, tx: TxId, ctx: &mut Context<'_, Ev>) {
        let now = ctx.now();
        let frame = self.tx_frames[tx.slot_index()]
            .take()
            .expect("in-flight transmission has a parked frame");
        let mut end = std::mem::take(&mut self.tx_end_buf);
        self.channel.end_tx_into(now, tx, &mut end);
        let mut acts = self.take_macts();
        for i in 0..end.now_idle().len() {
            let h = end.now_idle()[i];
            let hi = h.index();
            if !self.hot.dead[hi] && self.nodes[hi].radio.is_active() {
                self.nodes[hi].mac.carrier_idle_into(now, &mut acts);
                self.exec_mac_actions(h, &mut acts, ctx);
            }
        }
        if !self.hot.dead[sender.index()] {
            self.nodes[sender.index()].mac.tx_ended_into(now, &mut acts);
            self.exec_mac_actions(sender, &mut acts, ctx);
        }
        let mut delivered: u32 = 0;
        for i in 0..end.clean().len() {
            let r = end.clean()[i];
            let ri = r.index();
            if self.hot.dead[ri] {
                continue;
            }
            // The receiver must have been awake for the entire frame.
            let since = self.nodes[ri].radio.active_since();
            if since.is_some_and(|t| t <= end.started) {
                delivered += 1;
                self.probe.on_rx(now, ri as u32, sender.index() as u32);
                // A MAC acts only on frames addressed to it: it drops
                // data for another node at once, and an overheard ACK
                // cannot match its head frame (frame ids are namespaced
                // by sender, so an ACK's `of` names a frame of the ACK's
                // destination). Only the addressee gets a copy.
                if frame.dest.accepts(r) {
                    // `Frame<Payload>` is `Copy`: the fan-out to
                    // receivers is a bitwise copy, not an allocation.
                    self.nodes[ri].mac.frame_arrived_into(frame, now, &mut acts);
                    self.exec_mac_actions(r, &mut acts, ctx);
                }
            }
        }
        self.put_macts(acts);
        if self.probe.enabled() {
            self.probe
                .on_tx_end(now, sender.index() as u32, delivered, end.corrupted_len());
        }
        self.tx_end_buf = end;
        self.sleep_checkpoint(sender, SleepTrigger::Quiesce, ctx);
    }
}
