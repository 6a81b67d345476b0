//! Node lifecycle: failures, churn recovery, battery depletion, and
//! the §4.3 routing-tree repair.

use essat_core::policy::SleepTrigger;
use essat_net::ids::NodeId;
use essat_net::mac::{Mac, MacParams};
use essat_obs::Probe;
use essat_sim::engine::Context;
use essat_sim::time::SimTime;

use super::events::Ev;
use super::world::{tree_info, World};

impl<P: Probe> World<P> {
    pub(crate) fn handle_node_fail(&mut self, node: NodeId, ctx: &mut Context<'_, Ev>) {
        self.kill_node(node, ctx);
        // Detectors at the neighbours drive the repair.
    }

    /// Marks `node` dead (scripted failure, churn, or battery
    /// depletion), settles its energy accounting, cancels the timers it
    /// owns on the queue, and records the network-lifetime marks.
    pub(crate) fn kill_node(&mut self, node: NodeId, ctx: &mut Context<'_, Ev>) {
        let now = ctx.now();
        {
            let i = node.index();
            if self.hot.dead[i] {
                return;
            }
            self.hot.dead[i] = true;
            let n = &mut self.nodes[i];
            n.radio.settle(now);
            // A dead node's MAC timers and chain policy schedules must
            // not fire; cancel them. The pending radio wake (if any)
            // survives — a revival before it fires still honours it,
            // and the dispatch dead-guard drops it otherwise.
            self.cancel_mac_timers(node, ctx);
            for id in self.chain_ev[i].drain(..) {
                ctx.cancel(id);
            }
            // The dying node's pending repair timer must not fire, and
            // a dead node stops accumulating orphan time.
            if let Some(id) = self.repair.timer_ev[i].take() {
                ctx.cancel(id);
            }
            self.repair.target[i] = None;
            self.repair.armed_at[i] = None;
            self.repair.backoff[i] = 0;
            self.settle_orphan(i, now);
        }
        self.probe.on_node_down(
            now,
            node.index() as u32,
            self.hot.battery_dead[node.index()],
        );
        if self.pre.tree.is_member(node) {
            self.lifetime.deaths.push((now, node));
            if self.lifetime.first_death.is_none() {
                self.lifetime.first_death = Some(now);
            }
            self.check_partition_opened(now);
        }
    }

    /// True once some live tree member has no path of live nodes to the
    /// root (or the root itself is dead) — the lifetime figure's
    /// "time to partition" mark. Collection-aware: a live build-time
    /// member that fell *out of the routing tree* (an orphan subtree no
    /// repair has re-attached yet) is partitioned from collection even
    /// when a physical path exists. Only evaluated on deaths and
    /// repairs, so the BFS cost is negligible.
    pub(crate) fn is_partitioned(&self) -> bool {
        if self.hot.dead[self.root.index()] {
            return true;
        }
        let mut alive = Vec::new();
        for m in self.topo.nodes() {
            if !self.pre.tree.is_member(m) || self.hot.dead[m.index()] {
                continue;
            }
            if !self.tree.is_member(m) {
                return true; // live member orphaned from the tree
            }
            alive.push(m);
        }
        !self.topo.is_connected_subset(self.root, &alive)
    }

    /// Scenario churn recovery. The node comes back with a fresh MAC
    /// and an `Active` radio (its spent battery is *not* refilled) and
    /// re-enters the tree: in place if the failure detectors never
    /// removed it, otherwise as a leaf under its best live neighbour
    /// (an idealised re-join — §4.3 only specifies departure repair).
    ///
    /// A node whose death was caused by **battery depletion** stays
    /// dead: churn models transient outages (reboots, interference),
    /// not battery swaps, and a revived flat battery would just re-die
    /// at the next `BatteryCheck` after a zombie interval of activity.
    pub(crate) fn handle_node_recover(&mut self, node: NodeId, ctx: &mut Context<'_, Ev>) {
        let now = ctx.now();
        if !self.hot.dead[node.index()] || self.hot.battery_dead[node.index()] {
            return;
        }
        // Fresh lower layers; the MAC RNG gets a new derived stream per
        // revival so replays stay deterministic.
        let mac_rng = {
            let revival = self.nodes[node.index()].revivals + 1;
            let stream = node.as_u32() as u64 + self.cfg.nodes as u64 * revival;
            self.master.derive2(4, stream)
        };
        {
            let i = node.index();
            self.hot.dead[i] = false;
            // The outgoing MAC may still have timers pending (timers
            // armed while the node was dead no-op at dispatch but are
            // better off the queue entirely).
            self.cancel_mac_timers(node, ctx);
            let n = &mut self.nodes[i];
            n.revivals += 1;
            n.radio.resurrect(now);
            let old = std::mem::replace(&mut n.mac, Mac::new(node, MacParams::paper(), mac_rng));
            self.mac_lost.add(&old.stats());
            n.close_rounds(ctx);
            n.loss = essat_core::maintenance::LossDetector::new();
            n.child_fail =
                essat_core::maintenance::FailureDetector::new(super::node::CHILD_FAIL_THRESHOLD);
            n.parent_fail =
                essat_core::maintenance::FailureDetector::new(super::node::PARENT_FAIL_THRESHOLD);
            for qs in &mut n.queries {
                qs.stale_phase.clear();
            }
            n.recheck_on_wake = false;
        }
        self.probe.on_node_up(now, node.index() as u32);
        self.probe.on_radio_state(now, node.index() as u32, true);
        self.lifetime.recoveries += 1;
        let member = self.pre.tree.is_member(node);
        if member {
            if self.tree.is_member(node) {
                // Still in the tree: resume schedules where they stand.
                self.refresh_node_schedule(node, now);
                self.restart_round_chains(node, ctx);
            } else {
                self.rejoin_tree(node, ctx);
            }
            if self.tree.is_member(node) {
                self.check_partition_healed(now);
            } else if self.repair.orphaned_since[node.index()].is_none() {
                // Revived but still cut off: live-and-orphaned time
                // starts accumulating now.
                self.repair.orphaned_since[node.index()] = Some(now);
            }
        }
        // Re-arm the policy's schedule chain (it stopped at death) and
        // reset its per-interval state. Any chain events armed in the
        // meantime (a dead node's one-shot timers can still run) are
        // cancelled so the fresh chain is the only one ticking.
        {
            let i = node.index();
            for id in self.chain_ev[i].drain(..) {
                ctx.cancel(id);
            }
            let mut acts = self.take_acts();
            self.nodes[node.index()].policy.on_revive(now, &mut acts);
            self.exec_policy_actions(node, &mut acts, ctx);
            self.put_acts(acts);
        }
        if !member {
            // Never part of the tree: revive and go straight back to
            // sleep, as after setup.
            let n = &self.nodes[node.index()];
            if self.setup_over && n.radio.is_active() && n.mac.can_suspend() {
                self.suspend_radio(node, ctx);
            }
            return;
        }
        self.sleep_checkpoint(node, SleepTrigger::Quiesce, ctx);
    }

    /// Restarts the per-query round chains of a revived node from the
    /// next round boundary (the chains break while a node is dead).
    pub(crate) fn restart_round_chains(&mut self, node: NodeId, ctx: &mut Context<'_, Ev>) {
        let now = ctx.now();
        for qi in 0..self.queries.len() {
            let qs = &mut self.nodes[node.index()].queries[qi];
            if qs.expected.is_none() {
                continue;
            }
            let q = self.queries[qi];
            let k0 = World::next_round_at(&q, now);
            // The node has no data for rounds that began while it was
            // dead: a straggler report must not reopen one (which would
            // re-release a round the policy already advanced past).
            qs.finish_before(k0);
            let at = q.round_start(k0);
            if at < self.run_end {
                ctx.schedule_at(
                    self.to_wall(node, at).max(now),
                    Ev::RoundStart {
                        node,
                        query: qi,
                        round: k0,
                    },
                );
            }
        }
    }

    /// Re-attaches a recovered node that the repair machinery had
    /// removed from the tree, then re-registers its queries and
    /// refreshes every node whose schedule the rank changes touch
    /// (mirrors [`World::repair_tree`]).
    pub(crate) fn rejoin_tree(&mut self, node: NodeId, ctx: &mut Context<'_, Ev>) {
        let now = ctx.now();
        let old_rank: Vec<u32> = self.topo.nodes().map(|n| self.tree.rank(n)).collect();
        let old_max = self.tree.max_rank();
        let Some(parent) = self.tree.rejoin_node(&self.topo, node) else {
            return; // still cut off; a later recovery may bridge it back
        };
        self.settle_orphan(node.index(), now);
        self.readmit_node(node, parent, &old_rank, old_max, ctx);
    }

    /// Re-registers a just-re-attached node's queries from scratch and
    /// refreshes every node whose schedule the rank changes touch. The
    /// shared tail of [`World::rejoin_tree`] (churn recovery) and the
    /// self-healing adoption sweep: the caller has already put `node`
    /// under `parent` in the tree and captured the pre-surgery ranks.
    pub(crate) fn readmit_node(
        &mut self,
        node: NodeId,
        parent: NodeId,
        old_rank: &[u32],
        old_max: u32,
        ctx: &mut Context<'_, Ev>,
    ) {
        let now = ctx.now();
        // Back in the tree: any pending self-rescue timer is moot.
        self.disarm_repair(node, node, ctx);
        self.nodes[node.index()].leave_queries();
        for qi in 0..self.queries.len() {
            if let Some((round, at)) = self.register_query_at(node, qi, now) {
                self.nodes[node.index()].queries[qi].finish_before(round);
                ctx.schedule_at(
                    self.to_wall(node, at).max(now),
                    Ev::RoundStart {
                        node,
                        query: qi,
                        round,
                    },
                );
            }
        }
        let max_changed = self.tree.max_rank() != old_max;
        for m in self.topo.nodes() {
            if m == node || !self.tree.is_member(m) {
                continue;
            }
            let rank_changed = self.tree.rank(m) != old_rank[m.index()];
            let gained_child = parent == m;
            if rank_changed || gained_child || max_changed {
                self.refresh_node_schedule(m, now);
                self.refresh_wake(m, ctx);
            }
        }
    }

    /// The periodic battery sweep: kill nodes whose cumulative radio
    /// energy exceeds the scenario's capacity.
    ///
    /// Each live node's energy is read through the non-mutating
    /// [`essat_net::radio::Radio::energy_j_at`], so the sweep does not
    /// rewrite any radio's accounting; a node's books are settled
    /// exactly once, at death or run end. The doomed set is fixed
    /// before the first kill, and nodes die in ascending id order.
    pub(crate) fn handle_battery_check(&mut self, ctx: &mut Context<'_, Ev>) {
        let Some(b) = self.scenario.as_ref().and_then(|s| s.battery) else {
            return;
        };
        let now = ctx.now();
        let doomed: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| !self.hot.dead[i] && self.nodes[i].radio.energy_j_at(now) >= b.capacity_j)
            .collect();
        for i in doomed {
            // Battery deaths are permanent: churn recovery must not
            // resurrect a node with an empty battery.
            self.hot.battery_dead[i] = true;
            self.kill_node(NodeId::new(i as u32), ctx);
        }
        let next = now + b.check_period;
        if next < self.run_end {
            ctx.schedule_at(next, Ev::BatteryCheck);
        }
    }

    /// Routing-layer repair after `failed` is declared dead: re-parent
    /// orphans, recompute ranks, and notify every node whose schedule
    /// depends on the topology (§4.3).
    pub(crate) fn repair_tree(&mut self, failed: NodeId, ctx: &mut Context<'_, Ev>) {
        if !self.tree.is_member(failed) || failed == self.root {
            return;
        }
        let now = ctx.now();
        let old_parent = self.tree.parent(failed);
        let old_rank: Vec<u32> = self.topo.nodes().map(|n| self.tree.rank(n)).collect();
        let old_max = self.tree.max_rank();
        let was_member: Vec<bool> = self.topo.nodes().map(|n| self.tree.is_member(n)).collect();
        // With self-healing on, orphans pick re-attachment parents by
        // link quality (dead candidates vetoed); the flat legacy rule
        // otherwise.
        let moved = if self.repair.active {
            self.with_quality(|tree, topo, q| tree.fail_node_by(topo, failed, q))
        } else {
            self.tree.fail_node(&self.topo, failed)
        };

        // The failed node — and any orphan subtree that could not
        // re-attach and therefore dropped out of the tree — stops
        // participating entirely. Without this, dropped nodes keep
        // running their query machinery against a tree that no longer
        // contains them (or their children).
        for m in self.topo.nodes() {
            if !was_member[m.index()] || self.tree.is_member(m) {
                continue;
            }
            let n = &mut self.nodes[m.index()];
            n.close_rounds(ctx);
            n.leave_queries();
            // A *live* dropped node is now an orphan: start its
            // orphan-seconds clock and (self-healing only) arm a
            // self-rescue timer so it periodically tries to get
            // re-adopted even if nobody else repairs nearby.
            if !self.hot.dead[m.index()] {
                if self.repair.orphaned_since[m.index()].is_none() {
                    self.repair.orphaned_since[m.index()] = Some(now);
                }
                self.arm_repair(m, m, ctx);
            }
        }

        // Its old parent drops every dependency on it.
        if let Some(p) = old_parent {
            self.drop_child_dependency(p, failed, ctx);
        }

        // Nodes affected by rank changes or re-parenting refresh their
        // schedules.
        let max_changed = self.tree.max_rank() != old_max;
        for m in self.topo.nodes() {
            if !self.tree.is_member(m) {
                continue;
            }
            let rank_changed = self.tree.rank(m) != old_rank[m.index()];
            let reparented = moved.contains(&m);
            let gained_child = moved.iter().any(|&o| self.tree.parent(o) == Some(m));
            if !(rank_changed || reparented || gained_child || max_changed) {
                continue;
            }
            self.refresh_node_schedule(m, now);
            self.refresh_wake(m, ctx);
        }
        // Self-healing re-admits rescuable orphans immediately, *before*
        // the partition check: a subtree that re-attaches in the same
        // instant was never observably partitioned (no zero-length
        // episode), and only genuinely stranded orphans — their rescue
        // timers armed above — open one.
        if self.repair.active {
            self.adoption_sweep(ctx);
        }
        self.check_partition_opened(now);
    }

    /// `p` forgets everything it expected from `lost`: expected-children
    /// lists, loss/failure detectors, and open rounds blocked on the
    /// child's report (which may now complete). Shared by the §4.3
    /// declare-failed repair and the self-healing re-parent (where the
    /// abandoned parent must likewise stop waiting).
    pub(crate) fn drop_child_dependency(
        &mut self,
        p: NodeId,
        lost: NodeId,
        ctx: &mut Context<'_, Ev>,
    ) {
        for qi in 0..self.queries.len() {
            let n = &mut self.nodes[p.index()];
            let qs = &mut n.queries[qi];
            let Some(kids) = &mut qs.expected else {
                continue;
            };
            kids.retain(|&c| c != lost);
            n.policy.on_child_removed(&self.queries[qi], lost);
            n.loss.remove_child(lost);
            n.child_fail.remove(lost);
            // Unblock open rounds that waited on the lost child.
            let open: Vec<u64> = qs.rounds.keys().collect();
            for k in open {
                if let Some(r) = self.nodes[p.index()].queries[qi].rounds.get_mut(k) {
                    r.agg.remove_child(lost);
                }
                self.maybe_complete(p, qi, k, ctx);
            }
        }
    }

    /// Re-derives a node's expected-children lists and policy schedule
    /// state from the current tree.
    pub(crate) fn refresh_node_schedule(&mut self, node: NodeId, now: SimTime) {
        let is_root = node == self.root;
        let info = tree_info(&self.tree, node);
        let kids_now = self.tree.children(node);
        let n = &mut self.nodes[node.index()];
        for (q, qs) in self.queries.iter().zip(&mut n.queries) {
            let Some(expected) = &mut qs.expected else {
                continue;
            };
            let old_kids = std::mem::replace(expected, kids_now.to_vec());
            n.policy
                .on_topology_change(q, &info, is_root, now, kids_now, Some(&old_kids));
        }
    }
}
