//! The query agent: round lifecycle, aggregation, and report handling.
//!
//! Every protocol shares this service: per-round aggregation with
//! per-policy collection timeouts, loss detection, and the §4.3
//! failure recovery. A node keeps one
//! [`QueryState`](super::node::QueryState) per query (its expected
//! children, open rounds by round number, and phase-resync state), and
//! every policy call borrows the node's place in the routing tree
//! ([`tree_info`]). Timing decisions (deadlines, release instants,
//! buffering) are delegated to the node's
//! [`essat_core::policy::PowerPolicy`].

use essat_core::maintenance::LossObservation;
use essat_core::policy::SleepTrigger;
use essat_net::frame::{Dest, Frame, FrameKind, PAPER_REPORT_BYTES};
use essat_net::ids::NodeId;
use essat_obs::Probe;
use essat_query::aggregate::AggState;
use essat_query::model::{Query, QueryId};
use essat_query::round::RoundAggregator;
use essat_sim::engine::Context;
use essat_sim::time::SimTime;

use super::events::Ev;
use super::node::RoundState;
use super::world::{tree_info, World};
use crate::payload::{sizes, Payload};

impl World {
    /// The first round of `q` starting at or after `now`. A round
    /// boundary landing exactly on `now` is *included* — a node
    /// revived (or rejoined) precisely at a round start runs that
    /// round rather than silently waiting out a full period.
    ///
    /// (A pure function, kept on the non-generic impl so call sites
    /// need no probe type annotation.)
    pub(crate) fn next_round_at(q: &Query, now: SimTime) -> u64 {
        match q.round_at(now) {
            None => 0,
            Some(k) if q.round_start(k) == now => k,
            Some(k) => k + 1,
        }
    }
}

impl<P: Probe> World<P> {
    /// Registers query `qi` at `node`. Returns the node's first round
    /// `(index, start time)` if the node participates.
    pub(crate) fn register_query_at(
        &mut self,
        node: NodeId,
        qi: usize,
        now: SimTime,
    ) -> Option<(u64, SimTime)> {
        if !self.tree.is_member(node) || self.hot.dead[node.index()] {
            return None;
        }
        let q = self.queries[qi];
        let info = tree_info(&self.tree, node);
        let n = &mut self.nodes[node.index()];
        let qs = &mut n.queries[qi];
        qs.registered = true;
        qs.expected = Some(self.tree.children(node).to_vec());
        n.policy.on_register(&q, &info, node == self.root);
        // First round this node can still run.
        let k0 = World::next_round_at(&q, now);
        let at = q.round_start(k0);
        (at < self.run_end).then_some((k0, at))
    }

    /// Checks staleness and opens the round's collection state.
    pub(crate) fn open_round(
        &mut self,
        node: NodeId,
        qi: usize,
        k: u64,
        ctx: &mut Context<'_, Ev>,
    ) -> bool {
        let qs = &self.nodes[node.index()].queries[qi];
        if qs.rounds.get(k).is_some() {
            return true;
        }
        if k < qs.finished_below {
            return false; // round already finished
        }
        let waits = qs.expected.as_ref().is_some_and(|kids| !kids.is_empty());
        let deadline = waits.then(|| self.collection_deadline(node, qi, k));
        let timeout_ev = deadline.map(|d| {
            // Stretch the timeout by the guard so desynced children get
            // the extra slack their skewed releases need.
            let wall = self.to_wall(node, d) + self.guard_at(d);
            ctx.schedule_at(
                wall.max(ctx.now()),
                Ev::CollectionTimeout {
                    node,
                    query: qi,
                    round: k,
                },
            )
        });
        let qs = &mut self.nodes[node.index()].queries[qi];
        let state = RoundState {
            agg: RoundAggregator::new(qs.expected.as_deref().unwrap_or_default()),
            timeout_ev,
            deadline,
            piggyback: None,
            release_planned: false,
            redispatches: 0,
        };
        qs.rounds.insert(k, state);
        true
    }

    /// The collection deadline under the node's power policy.
    pub(crate) fn collection_deadline(&self, node: NodeId, qi: usize, k: u64) -> SimTime {
        let info = tree_info(&self.tree, node);
        self.nodes[node.index()]
            .policy
            .collection_deadline(&self.queries[qi], k, &info)
    }

    pub(crate) fn handle_round_start(
        &mut self,
        node: NodeId,
        qi: usize,
        k: u64,
        ctx: &mut Context<'_, Ev>,
    ) {
        let qs = &mut self.nodes[node.index()].queries[qi];
        if self.hot.dead[node.index()] || qs.expected.is_none() {
            return;
        }
        // Churn recovery can re-arm a chain whose old event is still
        // pending; the per-query cursor drops duplicates.
        if k < qs.next_round {
            return;
        }
        qs.next_round = k + 1;
        self.probe
            .on_round_start(ctx.now(), node.index() as u32, qi as u32, k);
        let q = self.queries[qi];
        if self.round_is_active(&q, k) {
            // Every tree member is a source (paper §5).
            if self.open_round(node, qi, k, ctx) && self.tree.is_member(node) {
                let reading = World::reading(node, k);
                if let Some(r) = self.nodes[node.index()].queries[qi].rounds.get_mut(k) {
                    r.agg.add_own(reading);
                }
            }
            self.maybe_complete(node, qi, k, ctx);
        } else {
            self.skip_round(node, qi, k);
        }
        // Chain the next round (on this node's clock).
        let next = q.round_start(k + 1);
        if next < self.run_end {
            ctx.schedule_at(
                self.to_wall(node, next).max(ctx.now()),
                Ev::RoundStart {
                    node,
                    query: qi,
                    round: k + 1,
                },
            );
        }
        self.sleep_checkpoint(node, SleepTrigger::Quiesce, ctx);
    }

    /// A traffic-phase-silenced round: nothing is sampled, collected,
    /// or sent — but the policy's expectations must still advance past
    /// the round, or Safe Sleep would pin the node awake on a stale
    /// past expectation for the rest of the quiet phase.
    pub(crate) fn skip_round(&mut self, node: NodeId, qi: usize, k: u64) {
        let q = self.queries[qi];
        let is_root = node == self.root;
        let info = tree_info(&self.tree, node);
        let n = &mut self.nodes[node.index()];
        let qs = &mut n.queries[qi];
        // Mark the round finished so a straggler report cannot reopen it.
        qs.finish_before(k + 1);
        let expected = qs.expected.as_deref().unwrap_or_default();
        // No child sends a quiet round, so its absence is not a loss.
        for &child in expected {
            n.loss.skip(q.id, child, k);
        }
        n.policy.on_round_skipped(&q, k, expected, is_root, &info);
        if !self.hot.dead[node.index()] && !n.radio.is_active() {
            // The radio is mid-turn-on for the expectation we just
            // moved; have the wake-up completion re-run the checkpoint.
            n.recheck_on_wake = true;
        }
    }

    /// Checks readiness and plans the release when ready.
    pub(crate) fn maybe_complete(
        &mut self,
        node: NodeId,
        qi: usize,
        k: u64,
        ctx: &mut Context<'_, Ev>,
    ) {
        let ready = match self.nodes[node.index()].queries[qi].rounds.get(k) {
            None => false,
            Some(r) => {
                !r.release_planned
                    && r.agg.children_complete()
                    && (!self.tree.is_member(node) || r.agg.own_added())
            }
        };
        if ready {
            self.finish_round(node, qi, k, true, ctx);
        }
    }

    /// Completes a round: at the root, record metrics; elsewhere, plan
    /// the report release. `full` is false on the timeout path.
    pub(crate) fn finish_round(
        &mut self,
        node: NodeId,
        qi: usize,
        k: u64,
        full: bool,
        ctx: &mut Context<'_, Ev>,
    ) {
        let q = self.queries[qi];
        let now = ctx.now();
        if node == self.root {
            let qs = &mut self.nodes[node.index()].queries[qi];
            let Some(mut r) = qs.close_round(k, ctx) else {
                return;
            };
            let agg = r.agg.seal();
            qs.finish_before(k + 1);
            // "Full" means every expected source reading arrived — the
            // root's children being complete is not enough, since their
            // aggregates may themselves be partial. Every build-time
            // tree member is a source (paper §5).
            let sources = self.pre.tree.member_count() as u64;
            let full = full && agg.count() == sources;
            self.probe
                .on_round_sealed(now, node.index() as u32, qi as u32, k, full);
            // A fast clock can finish a round at a wall instant before
            // the agreed round start — clamp, don't underflow.
            let latency_s = now
                .saturating_duration_since(q.round_start(k))
                .as_secs_f64();
            let qm = &mut self.qmetrics[qi];
            qm.latency.add(latency_s);
            qm.rounds_completed += 1;
            if full {
                qm.rounds_full += 1;
            }
            qm.delivered_readings += agg.count();
            qm.expected_readings += sources;
            qm.records.push(crate::metrics::RoundRecord {
                round: k,
                at: now,
                latency_s,
                full,
                readings: agg.count(),
            });
            return;
        }
        // Non-root: plan the release according to the power policy.
        let info = tree_info(&self.tree, node);
        let n = &mut self.nodes[node.index()];
        let Some(r) = n.queries[qi].rounds.get_mut(k) else {
            return;
        };
        r.release_planned = true;
        // The round is closing; its timeout must not fire.
        if let Some(id) = r.timeout_ev.take() {
            ctx.cancel(id);
        }
        let rel = n.policy.plan_release(&q, k, now, &info);
        r.piggyback = rel.piggyback;
        if rel.send_at <= now {
            self.do_send(node, qi, k, ctx);
        } else {
            ctx.schedule_at(
                self.to_wall(node, rel.send_at).max(now),
                Ev::ReleaseReport {
                    node,
                    query: qi,
                    round: k,
                },
            );
        }
    }

    /// Seals the round and hands the report towards the parent through
    /// the policy's dispatch seam (PSM buffers, everyone else
    /// forwards).
    pub(crate) fn do_send(&mut self, node: NodeId, qi: usize, k: u64, ctx: &mut Context<'_, Ev>) {
        let qs = &mut self.nodes[node.index()].queries[qi];
        let Some(parent) = self.tree.parent(node) else {
            // Detached from the tree (declared failed): drop silently.
            qs.close_round(k, ctx);
            return;
        };
        let Some(r) = qs.rounds.get_mut(k) else {
            return;
        };
        let (agg, piggyback) = (r.agg.seal(), r.piggyback);
        qs.finish_before(k + 1);
        if piggyback.is_some() {
            self.phase_piggybacks += 1;
        }
        let frame = {
            let n = &mut self.nodes[node.index()];
            Frame {
                id: n.mac.alloc_frame_id(),
                src: node,
                dest: Dest::Unicast(parent),
                kind: FrameKind::Data,
                bytes: PAPER_REPORT_BYTES,
                payload: Payload::Report {
                    query: self.queries[qi].id,
                    round: k,
                    agg,
                    piggyback,
                },
            }
        };
        let view = self.node_view(node, ctx.now());
        let mut acts = self.take_acts();
        self.nodes[node.index()]
            .policy
            .dispatch_report(frame, parent, &view, &mut acts);
        self.exec_policy_actions(node, &mut acts, ctx);
        self.put_acts(acts);
    }

    pub(crate) fn handle_collection_timeout(
        &mut self,
        node: NodeId,
        qi: usize,
        k: u64,
        ctx: &mut Context<'_, Ev>,
    ) {
        // Superseded timeouts are cancelled on the queue, so a dispatch
        // is always the live one; the guards below are defensive.
        let missing = match self.nodes[node.index()].queries[qi].rounds.get_mut(k) {
            None => return,
            Some(r) if r.release_planned => return,
            Some(r) => {
                #[cfg(feature = "sanitize")]
                assert_eq!(
                    r.timeout_ev,
                    Some(ctx.event_id()),
                    "sanitizer: stale collection timeout dispatched at node {node}"
                );
                r.timeout_ev = None; // consumed by this dispatch
                r.agg.missing()
            }
        };
        self.missed_reports += missing.len() as u64;
        let info = tree_info(&self.tree, node);
        let mut failed_children = Vec::new();
        let n = &mut self.nodes[node.index()];
        for &c in &missing {
            n.policy.on_child_timeout(&self.queries[qi], c, k, &info);
            if n.child_fail.miss(c) {
                failed_children.push(c);
            }
        }
        for c in failed_children {
            if self.tree.is_member(c) && self.tree.parent(c) == Some(node) {
                self.on_peer_suspect(node, c, ctx);
            }
        }
        // Forward the partial aggregate (§4.3).
        self.finish_round(node, qi, k, false, ctx);
        self.sleep_checkpoint(node, SleepTrigger::Quiesce, ctx);
    }

    // ------------------------------------------------------------------
    // Frame handling
    // ------------------------------------------------------------------

    pub(crate) fn handle_delivery(
        &mut self,
        node: NodeId,
        frame: Frame<Payload>,
        ctx: &mut Context<'_, Ev>,
    ) {
        if self.hot.dead[node.index()] {
            return;
        }
        match frame.payload {
            Payload::Report {
                query,
                round,
                agg,
                piggyback,
            } => {
                self.handle_report(node, frame.src, query, round, agg, piggyback, ctx);
            }
            Payload::PhaseUpdateRequest { query } => {
                self.nodes[node.index()]
                    .policy
                    .on_phase_update_request(&self.queries[query.index()]);
            }
            Payload::Atim => {
                self.nodes[node.index()].policy.on_atim_received(frame.src);
            }
            Payload::QuerySetup { query, hops } => {
                // A build-time member forwards each flood once.
                let (i, qi) = (node.index(), query.index());
                if self.pre.tree.is_member(node) && !self.nodes[i].queries[qi].registered {
                    self.flood_setup(node, qi, hops + 1, ctx);
                }
            }
            Payload::Empty => {}
        }
        self.sleep_checkpoint(node, SleepTrigger::Quiesce, ctx);
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_report(
        &mut self,
        node: NodeId,
        child: NodeId,
        query: QueryId,
        k: u64,
        agg: AggState,
        piggyback: Option<SimTime>,
        ctx: &mut Context<'_, Ev>,
    ) {
        let qi = query.index();
        let q = self.queries[qi];
        let Some(expected) = &mut self.nodes[node.index()].queries[qi].expected else {
            return;
        };
        // Resurrection: a child we removed is still alive — restore it.
        if self.tree.children(node).contains(&child) {
            if !expected.contains(&child) {
                expected.push(child);
                expected.sort_unstable();
            }
        } else if !expected.contains(&child) {
            return; // stranger (stale sender after re-parenting)
        }

        let info = tree_info(&self.tree, node);
        let now = ctx.now();
        let n = &mut self.nodes[node.index()];
        let stale = &mut n.queries[qi].stale_phase;
        let obs = n.loss.observe(query, child, k);
        n.child_fail.heard_from(child);
        // §4.3 phase resynchronisation bookkeeping. A piggyback that
        // clears a known-stale phase is a completed resync.
        let resynced = piggyback.is_some() && stale.remove(&child);
        if n.policy.wants_phase_resync() {
            let gap = matches!(obs, LossObservation::Gap { .. });
            if gap && piggyback.is_none() {
                stale.insert(child);
            }
            if stale.contains(&child) {
                // Ask for a phase update on the ACK we are about to
                // send (the paper's piggyback-in-ACK mechanism).
                n.mac
                    .prime_ack_note(child, Payload::PhaseUpdateRequest { query });
                self.phase_requests += 1;
            }
        }
        n.policy
            .on_report_received(&q, child, k, now, piggyback, &info);
        // The child spoke: withdraw any pending repair against it.
        self.disarm_repair(node, child, ctx);
        if resynced {
            self.resync_events += 1;
        }
        // Fold into the round (unless it already finished).
        if self.open_round(node, qi, k, ctx) {
            if let Some(r) = self.nodes[node.index()].queries[qi].rounds.get_mut(k) {
                r.agg.add_child(child, agg);
            }
        }
        // A fresher expectation may move open collection deadlines
        // (DTS learns child phases): re-derive for k and k+1.
        for kk in [k, k + 1] {
            self.refresh_deadline(node, qi, kk, ctx);
        }
        self.maybe_complete(node, qi, k, ctx);
    }

    /// Re-derives the collection deadline of an open, unreleased round
    /// and reschedules its timeout if it moved.
    pub(crate) fn refresh_deadline(
        &mut self,
        node: NodeId,
        qi: usize,
        k: u64,
        ctx: &mut Context<'_, Ev>,
    ) {
        let current = match self.nodes[node.index()].queries[qi].rounds.get(k) {
            Some(r) if !r.release_planned && r.deadline.is_some() => r.deadline,
            _ => return,
        };
        let fresh = self.collection_deadline(node, qi, k);
        if Some(fresh) == current {
            return;
        }
        let wall = self.to_wall(node, fresh) + self.guard_at(fresh);
        let r = self.nodes[node.index()].queries[qi]
            .rounds
            .get_mut(k)
            .expect("checked above");
        r.deadline = Some(fresh);
        if let Some(id) = r.timeout_ev.take() {
            ctx.cancel(id);
        }
        r.timeout_ev = Some(ctx.schedule_at(
            wall.max(ctx.now()),
            Ev::CollectionTimeout {
                node,
                query: qi,
                round: k,
            },
        ));
    }

    pub(crate) fn handle_tx_done(
        &mut self,
        node: NodeId,
        frame: Frame<Payload>,
        attempts: u32,
        ctx: &mut Context<'_, Ev>,
    ) {
        match frame.payload {
            Payload::Report { query, round, .. } => {
                self.reports_sent += 1;
                // Link-quality estimation on the tx-end seam: the ACKed
                // report is one success (after `attempts - 1` failures)
                // on the directed link it actually used.
                if let Dest::Unicast(dest) = frame.dest {
                    self.observe_link(node, dest, attempts, true);
                }
                let qi = query.index();
                let info = tree_info(&self.tree, node);
                let now = ctx.now();
                let n = &mut self.nodes[node.index()];
                if let Some(p) = self.tree.parent(node) {
                    n.parent_fail.heard_from(p);
                }
                n.policy
                    .on_report_sent(&self.queries[qi], round, now, &info);
                n.queries[qi].close_round(round, ctx);
                // The suspect answered: withdraw any pending repair.
                if let Dest::Unicast(dest) = frame.dest {
                    self.disarm_repair(node, dest, ctx);
                }
            }
            Payload::Atim => {
                if let Dest::Unicast(dest) = frame.dest {
                    let view = self.node_view(node, ctx.now());
                    let mut acts = self.take_acts();
                    self.nodes[node.index()]
                        .policy
                        .on_atim_sent(dest, &view, &mut acts);
                    self.exec_policy_actions(node, &mut acts, ctx);
                    self.put_acts(acts);
                }
            }
            _ => {}
        }
        self.sleep_checkpoint(node, SleepTrigger::Quiesce, ctx);
    }

    pub(crate) fn handle_tx_failed(
        &mut self,
        node: NodeId,
        frame: Frame<Payload>,
        attempts: u32,
        ctx: &mut Context<'_, Ev>,
    ) {
        if let Payload::Report { query, round, .. } = frame.payload {
            let qi = query.index();
            // An exhausted retry cycle is `attempts` un-ACKed failures
            // on the directed link, and one miss toward the parent —
            // counted whether or not the report gets another dispatch.
            let mut parent_failed = None;
            if let Dest::Unicast(p) = frame.dest {
                self.observe_link(node, p, attempts, false);
                if self.nodes[node.index()].parent_fail.miss(p) {
                    parent_failed = Some(p);
                }
            }
            // Deadline-aware budget: give the report another cycle
            // toward the (possibly since-repaired) parent while the
            // round deadline still affords one. The round stays live.
            if !self.try_redispatch(node, qi, round, frame, ctx) {
                let info = tree_info(&self.tree, node);
                let now = ctx.now();
                let n = &mut self.nodes[node.index()];
                n.policy
                    .on_report_failed(&self.queries[qi], round, now, &info);
                n.queries[qi].close_round(round, ctx);
            }
            if let Some(p) = parent_failed {
                if self.tree.is_member(p) && p != self.root {
                    self.on_peer_suspect(node, p, ctx);
                }
            }
        }
        // Atim: re-announced next beacon. Others: nothing to do.
        self.sleep_checkpoint(node, SleepTrigger::Quiesce, ctx);
    }

    /// One step of the flooded setup (the root issuing it with
    /// `hops = 0`, or a node forwarding it): registers query `qi` at
    /// `node`, schedules its first round, marks the query seen and
    /// broadcasts the `QuerySetup` frame carrying `hops`.
    pub(crate) fn flood_setup(
        &mut self,
        node: NodeId,
        qi: usize,
        hops: u32,
        ctx: &mut Context<'_, Ev>,
    ) {
        if let Some((round, at)) = self.register_query_at(node, qi, ctx.now()) {
            ctx.schedule_at(
                self.to_wall(node, at).max(ctx.now()),
                Ev::RoundStart {
                    node,
                    query: qi,
                    round,
                },
            );
        }
        // Mark the query seen even when the node did not register (a
        // live node that repair dropped from the tree), so it re-floods
        // once rather than once per copy it hears.
        let n = &mut self.nodes[node.index()];
        n.queries[qi].registered = true;
        let frame = Frame {
            id: n.mac.alloc_frame_id(),
            src: node,
            dest: Dest::Broadcast,
            kind: FrameKind::Data,
            bytes: sizes::QUERY_SETUP_BYTES,
            payload: Payload::QuerySetup {
                query: QueryId::new(qi as u32),
                hops,
            },
        };
        self.enqueue_frame(node, frame, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use essat_query::aggregate::AggregateOp;
    use essat_sim::time::SimDuration;

    fn q(phase_ms: u64, period_ms: u64) -> Query {
        Query::periodic(
            QueryId::new(0),
            SimDuration::from_millis(period_ms),
            SimTime::from_millis(phase_ms),
            AggregateOp::Sum,
        )
    }

    #[test]
    fn next_round_includes_exact_boundary() {
        let q = q(100, 250);
        // Before the phase: round 0.
        assert_eq!(World::next_round_at(&q, SimTime::ZERO), 0);
        assert_eq!(World::next_round_at(&q, SimTime::from_millis(100)), 0);
        // Mid-round: the next one.
        assert_eq!(World::next_round_at(&q, SimTime::from_millis(101)), 1);
        assert_eq!(World::next_round_at(&q, SimTime::from_millis(349)), 1);
        // Exactly on a later boundary: that round, not the one after —
        // the regression this pins (k+1 used to be returned here,
        // making a node revived at a round start skip a full period).
        assert_eq!(World::next_round_at(&q, SimTime::from_millis(350)), 1);
        assert_eq!(World::next_round_at(&q, SimTime::from_millis(600)), 2);
        assert_eq!(World::next_round_at(&q, SimTime::from_millis(601)), 3);
    }
}
