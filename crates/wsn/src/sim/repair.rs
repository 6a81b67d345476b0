//! In-protocol self-healing: link-quality estimation, repair timers,
//! and deadline-aware retransmission budgets.
//!
//! The paper's §4.3 maintenance machinery *detects* failures (the
//! [`essat_core::maintenance::FailureDetector`]s in each node's stack);
//! this module decides what to do about them. Three pieces:
//!
//! * **Link-quality EWMA** — every unicast report outcome on the
//!   tx-end seam updates a seeded per-directed-link estimate
//!   (`q' = (1-α)q + α·outcome`, one step per MAC attempt). Pure
//!   arithmetic: it never touches the event queue or any RNG, so a
//!   fault-free run is bit-for-bit unchanged with repair enabled.
//! * **Repair timers with exponential backoff** — a tripped detector
//!   arms a [`PolicyTimer::Repair`] instead of repairing synchronously.
//!   The timer holds a real [`EventId`] handle: hearing from the
//!   suspect again *cancels the event on the queue* (the PR 9
//!   cancel-on-disarm discipline), and a dispatched expiry re-verifies
//!   the detection before touching the tree. A failed repair re-arms
//!   with doubled delay up to [`BACKOFF_CAP`].
//! * **Quality-driven re-parenting** — a node that lost its parent
//!   moves itself (subtree and all) under the best live neighbour by
//!   (depth, link quality, lowest id); after any repair an adoption
//!   sweep re-admits orphaned subtrees to fixpoint, which is what lets
//!   a partitioned collection tree actually recover.
//!
//! The tuning below is fixed; [`crate::config::RepairConfig`] holds
//! only the on/off switch.
//!
//! The layer activates only when the run can fault at all
//! ([`faults_possible`]): with `repair.enabled = false` — or on
//! an idealised fault-free configuration, where MAC retry exhaustion
//! can only come from plain contention — the legacy synchronous §4.3
//! path runs unchanged, byte-for-byte. The former is the A/B the
//! `self_healing` figure measures; the latter is what keeps the golden
//! digests stable with repair enabled by default.

use essat_core::policy::PolicyTimer;
use essat_net::frame::{Dest, Frame};
use essat_net::ids::NodeId;
use essat_net::mac::MacParams;
use essat_net::topology::Topology;
use essat_obs::Probe;
use essat_query::tree::RoutingTree;
use essat_scenario::compile::CompiledScenario;
use essat_sim::engine::Context;
use essat_sim::queue::EventId;
use essat_sim::time::{SimDuration, SimTime};

use super::events::Ev;
use super::world::World;
use crate::config::ExperimentConfig;
use crate::payload::Payload;

/// EWMA smoothing factor for per-directed-link quality:
/// `q ← (1 − α)·q + α·outcome` per MAC ACK outcome.
const EWMA_ALPHA: f64 = 0.3;
/// Initial (seeded) quality for every directed link. Optimistic: an
/// untried link is assumed good until evidence arrives.
const EWMA_SEED: f64 = 1.0;
/// First repair-timer delay after parent-failure detection; each
/// unsuccessful repair attempt doubles it (exponential backoff).
const BACKOFF_BASE: SimDuration = SimDuration::from_millis(250);
/// Backoff ceiling.
const BACKOFF_CAP: SimDuration = SimDuration::from_secs(8);
/// Deadline slack `s` in the retransmission budget: a failed report is
/// re-dispatched only while `now + retry_cost ≤ deadline − s`.
const BUDGET_SLACK: SimDuration = SimDuration::from_millis(5);
/// Upper bound on collection-layer re-dispatches per round (the budget
/// usually runs out first; this is the hard stop).
const MAX_REDISPATCH: u32 = 2;

/// One directed-link EWMA fold: the estimate after a unicast MAC cycle
/// that took `attempts` tries and ended in `delivered`. A success after
/// `a` attempts is `a - 1` failure steps (`q *= 1 - α`) followed by one
/// success step (`q = (1-α)q + α`); an exhausted cycle is `a` failure
/// steps. Pure arithmetic — public so the `micro/link_quality_ewma`
/// bench measures exactly the code the simulator runs.
pub fn link_ewma_step(mut slot: f64, alpha: f64, attempts: u32, delivered: bool) -> f64 {
    let failures = if delivered {
        attempts.saturating_sub(1)
    } else {
        attempts
    };
    for _ in 0..failures {
        slot *= 1.0 - alpha;
    }
    if delivered {
        slot = (1.0 - alpha) * slot + alpha;
    }
    slot
}

/// Whether a run of `cfg` over the compiled `scenario` can inject any
/// fault at all: a scenario that actually perturbs the run, scripted
/// failures, or loss injection. The self-healing layer only activates
/// when it can — an idealised fault-free run keeps the legacy event
/// stream byte-identical (the golden-digest guarantee), and the
/// sanitizer asserts no repair timer ever arms there. A scenario that
/// compiles to nothing (e.g. `clock_drift(0)`) doesn't count, so its
/// control arm stays bit-identical to having no scenario at all. MAC
/// retry exhaustion from plain contention is legacy §4.3 territory
/// either way.
pub(crate) fn faults_possible(cfg: &ExperimentConfig, scenario: Option<&CompiledScenario>) -> bool {
    scenario.is_some_and(|s| s.can_fault())
        || !cfg.node_failures.is_empty()
        || cfg.drop_probability > 0.0
}

/// Self-healing state carried by the [`World`]: the resolved activation
/// gate, per-node repair timers (structure-of-arrays, like the `Hot`
/// block), the flat directed link-quality matrix, and the run's repair
/// counters.
#[derive(Debug, Default)]
pub(crate) struct RepairState {
    /// The run can fault at all ([`faults_possible`]); the sanitizer
    /// checks the layer stays inert otherwise.
    #[cfg_attr(not(feature = "sanitize"), allow(dead_code))]
    pub(crate) faults_possible: bool,
    /// The resolved gate: repair enabled in config *and* the run can
    /// fault (see the module docs for why both are required).
    pub(crate) active: bool,
    /// Directed link-quality EWMA, `[src * n + dst]`. Empty when
    /// repair is inactive.
    pub(crate) link_q: Vec<f64>,
    /// Handle of each node's pending repair timer. Disarms cancel the
    /// event on the queue through this handle; a dispatched expiry is
    /// therefore always the armed one.
    pub(crate) timer_ev: Vec<Option<EventId>>,
    /// The suspected-failed neighbour the armed timer targets.
    pub(crate) target: Vec<Option<NodeId>>,
    /// Backoff exponent for the next re-arm (reset on success/disarm).
    pub(crate) backoff: Vec<u32>,
    /// When the detector first tripped (the reparent-latency metric
    /// measures from here to the successful repair).
    pub(crate) armed_at: Vec<Option<SimTime>>,
    /// When a live build-time member lost tree membership (the
    /// orphan-node-seconds metric accumulates until re-adoption, death,
    /// or run end).
    pub(crate) orphaned_since: Vec<Option<SimTime>>,
    /// Successful repairs (re-parent or declare-failed-and-heal).
    pub(crate) repairs: u64,
    /// Total detection-to-repair latency over all repairs.
    pub(crate) reparent_latency_ns: u64,
    /// Total live-but-orphaned node-time.
    pub(crate) orphan_node_ns: u64,
    /// Reports re-dispatched under the deadline budget.
    pub(crate) redispatches: u64,
}

impl RepairState {
    /// Resolves the gate for `n` nodes once, at construction. On an
    /// idealised fault-free run the layer allocates nothing and the
    /// legacy event stream is preserved byte-for-byte.
    pub(crate) fn new(
        n: usize,
        cfg: &ExperimentConfig,
        scenario: Option<&CompiledScenario>,
    ) -> RepairState {
        let faults_possible = faults_possible(cfg, scenario);
        let active = cfg.repair.enabled && faults_possible;
        RepairState {
            faults_possible,
            active,
            link_q: if active {
                vec![EWMA_SEED; n * n]
            } else {
                Vec::new()
            },
            timer_ev: vec![None; n],
            target: vec![None; n],
            backoff: vec![0; n],
            armed_at: vec![None; n],
            orphaned_since: vec![None; n],
            repairs: 0,
            reparent_latency_ns: 0,
            orphan_node_ns: 0,
            redispatches: 0,
        }
    }
}

impl<P: Probe> World<P> {
    // ------------------------------------------------------------------
    // Link-quality estimation
    // ------------------------------------------------------------------

    /// Folds a unicast MAC outcome into the `src -> dst` link estimate
    /// via [`link_ewma_step`]. Pure arithmetic — no events, no RNG — so
    /// the estimate is free on the fault-free event stream.
    pub(crate) fn observe_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        attempts: u32,
        delivered: bool,
    ) {
        if !self.repair.active {
            return;
        }
        let n = self.topo.node_count();
        let slot = &mut self.repair.link_q[src.index() * n + dst.index()];
        *slot = link_ewma_step(*slot, EWMA_ALPHA, attempts, delivered);
    }

    /// Runs `f` with the tree, the topology, and the directed
    /// link-quality closure the tree's repair operations consume. Only
    /// the active layer calls this, so the estimates exist. Dead
    /// candidates read `-inf` — the tree skips non-finite qualities, so
    /// a repair never attaches anyone under a corpse.
    pub(crate) fn with_quality<R>(
        &mut self,
        f: impl FnOnce(&mut RoutingTree, &Topology, &dyn Fn(NodeId, NodeId) -> f64) -> R,
    ) -> R {
        let lq = std::mem::take(&mut self.repair.link_q);
        let n = self.topo.node_count();
        let dead = &self.hot.dead;
        let quality = |s: NodeId, d: NodeId| -> f64 {
            if dead[d.index()] {
                f64::NEG_INFINITY
            } else {
                lq[s.index() * n + d.index()]
            }
        };
        let r = f(&mut self.tree, &self.topo, &quality);
        self.repair.link_q = lq;
        r
    }

    // ------------------------------------------------------------------
    // Repair timers (arm / disarm / fire)
    // ------------------------------------------------------------------

    /// A §4.3 failure detector at `node` tripped against `peer`. With
    /// repair enabled this arms the backoff timer; disabled, it runs
    /// the legacy synchronous declare-failed repair.
    pub(crate) fn on_peer_suspect(
        &mut self,
        node: NodeId,
        peer: NodeId,
        ctx: &mut Context<'_, Ev>,
    ) {
        if self.repair.active {
            self.arm_repair(node, peer, ctx);
        } else {
            self.repair_tree(peer, ctx);
        }
    }

    /// Arms `node`'s repair timer against `target` (at most one in
    /// flight per node; re-trips while armed are absorbed).
    pub(crate) fn arm_repair(&mut self, node: NodeId, target: NodeId, ctx: &mut Context<'_, Ev>) {
        if !self.repair.active {
            return;
        }
        let i = node.index();
        if self.repair.timer_ev[i].is_some() {
            return;
        }
        if self.repair.armed_at[i].is_none() {
            self.repair.armed_at[i] = Some(ctx.now());
        }
        self.schedule_repair(node, target, ctx);
    }

    /// `node` heard from `heard` again: the suspicion is withdrawn and
    /// the pending repair event is cancelled on the queue.
    pub(crate) fn disarm_repair(&mut self, node: NodeId, heard: NodeId, ctx: &mut Context<'_, Ev>) {
        let i = node.index();
        if self.repair.target[i] != Some(heard) {
            return;
        }
        if let Some(id) = self.repair.timer_ev[i].take() {
            ctx.cancel(id);
        }
        self.repair.target[i] = None;
        self.repair.armed_at[i] = None;
        self.repair.backoff[i] = 0;
    }

    fn schedule_repair(&mut self, node: NodeId, target: NodeId, ctx: &mut Context<'_, Ev>) {
        let i = node.index();
        let at = ctx.now() + self.repair_backoff_delay(i);
        let id = ctx.schedule_at(
            at,
            Ev::Policy {
                node,
                timer: PolicyTimer::Repair { target },
                local: at,
            },
        );
        self.repair.timer_ev[i] = Some(id);
        self.repair.target[i] = Some(target);
    }

    /// `BACKOFF_BASE * 2^level`, capped at `BACKOFF_CAP` — the
    /// schedule DESIGN.md's self-healing section documents.
    fn repair_backoff_delay(&self, i: usize) -> SimDuration {
        let d = BACKOFF_BASE * (1u64 << self.repair.backoff[i].min(16));
        if d > BACKOFF_CAP {
            BACKOFF_CAP
        } else {
            d
        }
    }

    fn rearm_repair(&mut self, node: NodeId, target: NodeId, ctx: &mut Context<'_, Ev>) {
        let i = node.index();
        self.repair.backoff[i] = self.repair.backoff[i].saturating_add(1);
        self.schedule_repair(node, target, ctx);
    }

    fn finish_repair(&mut self, i: usize) {
        self.repair.armed_at[i] = None;
        self.repair.backoff[i] = 0;
    }

    /// A repair timer expired. The stored handle is consumed (and
    /// asserted against the dispatched event under `sanitize`); the
    /// detection is re-verified before the tree is touched, so a
    /// suspicion healed between arming and expiry is a no-op.
    pub(crate) fn handle_repair_timer(
        &mut self,
        node: NodeId,
        target: NodeId,
        ctx: &mut Context<'_, Ev>,
    ) {
        let i = node.index();
        let stored = self.repair.timer_ev[i].take();
        #[cfg(feature = "sanitize")]
        assert_eq!(
            stored,
            Some(ctx.event_id()),
            "sanitizer: stale repair timer dispatched at node {node}"
        );
        #[cfg(not(feature = "sanitize"))]
        let _ = stored;
        self.repair.target[i] = None;
        if self.hot.dead[i] {
            self.finish_repair(i);
            return;
        }
        let now = ctx.now();
        // The detector itself fell out of the tree while waiting (an
        // ancestor's repair dropped its subtree): orphan self-rescue.
        if !self.tree.is_member(node) {
            self.adoption_sweep(ctx);
            if self.tree.is_member(node) {
                self.finish_repair(i);
                self.check_partition_healed(now);
            } else {
                self.rearm_repair(node, target, ctx);
            }
            return;
        }
        // Re-verify: is the peer still a tripped detector's target in
        // the same tree relation it was suspected under?
        let parent_case = self.tree.parent(node) == Some(target);
        let child_case = self.tree.is_member(target) && self.tree.parent(target) == Some(node);
        let still_failed = if parent_case {
            let d = &self.nodes[i].parent_fail;
            d.miss_count(target) >= d.threshold()
        } else if child_case {
            let d = &self.nodes[i].child_fail;
            d.miss_count(target) >= d.threshold()
        } else {
            false
        };
        if !still_failed || target == self.root {
            self.finish_repair(i);
            return;
        }
        if parent_case {
            // Move self — subtree and all — away from the silent parent.
            if self.reparent_self(node, ctx) {
                self.repair.repairs += 1;
                if let Some(t0) = self.repair.armed_at[i] {
                    self.repair.reparent_latency_ns += now.saturating_duration_since(t0).as_nanos();
                }
                self.nodes[i].parent_fail.remove(target);
                self.adoption_sweep(ctx);
                self.finish_repair(i);
                #[cfg(feature = "sanitize")]
                self.sanitize_after_repair(&[node], now);
                self.check_partition_healed(now);
            } else {
                self.rearm_repair(node, target, ctx);
            }
        } else {
            // Declare the silent child failed (§4.3) and heal around it.
            self.repair_tree(target, ctx);
            self.repair.repairs += 1;
            if let Some(t0) = self.repair.armed_at[i] {
                self.repair.reparent_latency_ns += now.saturating_duration_since(t0).as_nanos();
            }
            self.adoption_sweep(ctx);
            self.finish_repair(i);
            #[cfg(feature = "sanitize")]
            self.sanitize_after_repair(&[], now);
            self.check_partition_healed(now);
        }
    }

    // ------------------------------------------------------------------
    // Tree surgery
    // ------------------------------------------------------------------

    /// Moves `node` (with its subtree) under its best live neighbour by
    /// (depth, link quality, lowest id). Returns false when no valid
    /// candidate exists — the caller re-arms with backoff.
    pub(crate) fn reparent_self(&mut self, node: NodeId, ctx: &mut Context<'_, Ev>) -> bool {
        let now = ctx.now();
        let old_parent = self.tree.parent(node);
        let old_rank: Vec<u32> = self.topo.nodes().map(|n| self.tree.rank(n)).collect();
        let old_max = self.tree.max_rank();
        let Some(new_parent) = self.with_quality(|tree, topo, q| tree.reparent(topo, node, q))
        else {
            return false;
        };
        // The abandoned parent drops every dependency on this node.
        if let Some(p) = old_parent {
            self.drop_child_dependency(p, node, ctx);
        }
        // Everyone whose schedule the move touched re-derives it.
        let max_changed = self.tree.max_rank() != old_max;
        for m in self.topo.nodes() {
            if !self.tree.is_member(m) {
                continue;
            }
            let rank_changed = self.tree.rank(m) != old_rank[m.index()];
            let touched = m == node || Some(m) == old_parent || m == new_parent;
            if rank_changed || touched || max_changed {
                self.refresh_node_schedule(m, now);
                self.refresh_wake(m, ctx);
            }
        }
        true
    }

    /// Re-admits orphaned live members under their best-quality member
    /// neighbours, to fixpoint — an adoption can make the next orphan
    /// reachable, which is exactly how a partitioned subtree chains its
    /// way back to the root.
    pub(crate) fn adoption_sweep(&mut self, ctx: &mut Context<'_, Ev>) {
        let now = ctx.now();
        loop {
            let mut adopted = false;
            for idx in 0..self.topo.node_count() {
                let node = NodeId::new(idx as u32);
                if node == self.root
                    || self.hot.dead[idx]
                    || !self.pre.tree.is_member(node)
                    || self.tree.is_member(node)
                {
                    continue;
                }
                let old_rank: Vec<u32> = self.topo.nodes().map(|n| self.tree.rank(n)).collect();
                let old_max = self.tree.max_rank();
                let Some(parent) =
                    self.with_quality(|tree, topo, q| tree.adopt_orphan(topo, node, q))
                else {
                    continue;
                };
                adopted = true;
                self.settle_orphan(idx, now);
                self.readmit_node(node, parent, &old_rank, old_max, ctx);
                #[cfg(feature = "sanitize")]
                self.sanitize_after_repair(&[node], now);
            }
            if !adopted {
                break;
            }
        }
    }

    /// Closes a node's orphan-seconds accounting interval, if open.
    pub(crate) fn settle_orphan(&mut self, i: usize, now: SimTime) {
        if let Some(since) = self.repair.orphaned_since[i].take() {
            self.repair.orphan_node_ns += now.saturating_duration_since(since).as_nanos();
        }
    }

    // ------------------------------------------------------------------
    // Deadline-aware retransmission budget
    // ------------------------------------------------------------------

    /// A report's MAC retry cycle just failed. Re-dispatch it toward
    /// the current parent iff another full cycle can still land before
    /// the round's deadline (minus slack) and the per-round budget is
    /// not exhausted: `now + retry_cost <= deadline - slack`. Returns
    /// true when the report was re-queued (the caller then skips the
    /// failure path — the round is still live).
    pub(crate) fn try_redispatch(
        &mut self,
        node: NodeId,
        qi: usize,
        k: u64,
        mut frame: Frame<Payload>,
        ctx: &mut Context<'_, Ev>,
    ) -> bool {
        if !self.repair.active {
            return false;
        }
        let Some(parent) = self.tree.parent(node) else {
            return false;
        };
        let q = self.queries[qi];
        let now = ctx.now();
        let mac = MacParams::paper();
        let retry_cost =
            (frame.airtime(mac.bitrate_bps) + mac.ack_timeout()) * mac.retry_limit as u64;
        let deadline = q.round_start(k) + q.deadline;
        if now + retry_cost > deadline.saturating_sub(BUDGET_SLACK) {
            return false; // hopeless: the deadline cannot be met
        }
        let Some(rs) = self.nodes[node.index()].queries[qi].rounds.get_mut(k) else {
            return false;
        };
        if rs.redispatches >= MAX_REDISPATCH {
            return false;
        }
        rs.redispatches += 1;
        self.repair.redispatches += 1;
        // A repair may have moved this node since the first dispatch;
        // aim at the current parent.
        frame.dest = Dest::Unicast(parent);
        self.enqueue_frame(node, frame, ctx);
        true
    }

    // ------------------------------------------------------------------
    // Partition episode accounting
    // ------------------------------------------------------------------

    /// Opens a partition episode if the network just became
    /// partitioned (called on deaths and after tree repairs drop
    /// orphans).
    pub(crate) fn check_partition_opened(&mut self, now: SimTime) {
        if self.lifetime.partitioned_since.is_none() && self.is_partitioned() {
            self.lifetime.mark_partitioned(now);
        }
    }

    /// Closes the open partition episode if the network healed (called
    /// after revivals, rejoins, and adoption sweeps).
    pub(crate) fn check_partition_healed(&mut self, now: SimTime) {
        if self.lifetime.partitioned_since.is_some() && !self.is_partitioned() {
            self.lifetime.mark_recovered(now);
        }
    }

    /// Post-repair invariants: the tree stays acyclic and consistent,
    /// and every node a repair just (re-)attached hangs under a live
    /// parent — a repair must never adopt anyone into a corpse's
    /// subtree.
    #[cfg(feature = "sanitize")]
    pub(crate) fn sanitize_after_repair(&self, touched: &[NodeId], now: SimTime) {
        self.tree.check_invariants();
        for &m in touched {
            if let Some(p) = self.tree.parent(m) {
                assert!(
                    !self.hot.dead[p.index()],
                    "sanitizer: repair attached {m} under dead parent {p} at {now}"
                );
            }
        }
    }
}
