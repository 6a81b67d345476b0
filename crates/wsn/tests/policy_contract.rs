//! The executor's side of the `PowerPolicy` contract, observed from a
//! policy: a `Quiesce` sleep checkpoint means the MAC went quiescent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use essat_core::policy::{NodeView, PolicyAction, PolicyTimer, PowerPolicy, SleepTrigger};
use essat_core::shaper::{Release, TreeInfo};
use essat_net::frame::Frame;
use essat_net::ids::NodeId;
use essat_query::model::{Query, QueryId};
use essat_scenario::presets;
use essat_scenario::spec::Scenario;
use essat_sim::time::{SimDuration, SimTime};
use essat_wsn::config::{ExperimentConfig, Protocol, WorkloadSpec};
use essat_wsn::payload::Payload;
use essat_wsn::runner;
use essat_wsn::sim::World;

/// Counts of the `Quiesce` checkpoints a policy saw.
#[derive(Debug, Default)]
struct Seen {
    quiesce: AtomicU64,
    quiesce_mac_busy: AtomicU64,
}

/// Forwards every call to the protocol's own policy, recording each
/// `Quiesce` checkpoint on the way.
#[derive(Debug)]
struct Recording {
    inner: Box<dyn PowerPolicy<Payload>>,
    seen: Arc<Seen>,
}

impl PowerPolicy<Payload> for Recording {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_register(&mut self, q: &Query, tree: &TreeInfo<'_>, is_root: bool) {
        self.inner.on_register(q, tree, is_root)
    }

    fn forget_query(&mut self, q: QueryId) {
        self.inner.forget_query(q)
    }

    fn collection_deadline(&self, q: &Query, k: u64, tree: &TreeInfo<'_>) -> SimTime {
        self.inner.collection_deadline(q, k, tree)
    }

    fn plan_release(&mut self, q: &Query, k: u64, ready: SimTime, tree: &TreeInfo<'_>) -> Release {
        self.inner.plan_release(q, k, ready, tree)
    }

    fn dispatch_report(
        &mut self,
        frame: Frame<Payload>,
        dest: NodeId,
        view: &NodeView,
        out: &mut Vec<PolicyAction<Payload>>,
    ) {
        self.inner.dispatch_report(frame, dest, view, out)
    }

    fn on_round_skipped(
        &mut self,
        q: &Query,
        k: u64,
        expected: &[NodeId],
        is_root: bool,
        tree: &TreeInfo<'_>,
    ) {
        self.inner.on_round_skipped(q, k, expected, is_root, tree)
    }

    fn on_child_timeout(&mut self, q: &Query, child: NodeId, k: u64, tree: &TreeInfo<'_>) {
        self.inner.on_child_timeout(q, child, k, tree)
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
        self.inner
            .on_report_received(q, child, k, now, piggyback, tree)
    }

    fn on_report_sent(&mut self, q: &Query, k: u64, now: SimTime, tree: &TreeInfo<'_>) {
        self.inner.on_report_sent(q, k, now, tree)
    }

    fn on_report_failed(&mut self, q: &Query, k: u64, now: SimTime, tree: &TreeInfo<'_>) {
        self.inner.on_report_failed(q, k, now, tree)
    }

    fn on_atim_received(&mut self, src: NodeId) {
        self.inner.on_atim_received(src)
    }

    fn on_atim_sent(
        &mut self,
        dest: NodeId,
        view: &NodeView,
        out: &mut Vec<PolicyAction<Payload>>,
    ) {
        self.inner.on_atim_sent(dest, view, out)
    }

    fn wants_phase_resync(&self) -> bool {
        self.inner.wants_phase_resync()
    }

    fn on_phase_update_request(&mut self, q: &Query) {
        self.inner.on_phase_update_request(q)
    }

    fn on_child_removed(&mut self, q: &Query, child: NodeId) {
        self.inner.on_child_removed(q, child)
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
        self.inner
            .on_topology_change(q, tree, is_root, now, kids_now, old_kids)
    }

    fn sleep_decision(
        &mut self,
        trigger: SleepTrigger,
        view: &NodeView,
        out: &mut Vec<PolicyAction<Payload>>,
    ) {
        if trigger == SleepTrigger::Quiesce {
            self.seen.quiesce.fetch_add(1, Ordering::Relaxed);
            if !view.mac_quiescent {
                self.seen.quiesce_mac_busy.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.inner.sleep_decision(trigger, view, out)
    }

    fn earliest_commitment(&self) -> Option<SimTime> {
        self.inner.earliest_commitment()
    }

    fn initial_actions(&mut self, out: &mut Vec<PolicyAction<Payload>>) {
        self.inner.initial_actions(out)
    }

    fn on_timer(
        &mut self,
        timer: PolicyTimer,
        view: &NodeView,
        out: &mut Vec<PolicyAction<Payload>>,
    ) {
        self.inner.on_timer(timer, view, out)
    }

    fn on_revive(&mut self, now: SimTime, out: &mut Vec<PolicyAction<Payload>>) {
        self.inner.on_revive(now, out)
    }
}

/// Runs `cfg` with every node's policy wrapped in [`Recording`].
fn run_recorded(cfg: &ExperimentConfig) -> Arc<Seen> {
    let seen = Arc::new(Seen::default());
    let result = World::run_with(cfg, &|cfg, node, env| {
        Box::new(Recording {
            inner: Protocol::build_policy(cfg, node, env),
            seen: Arc::clone(&seen),
        })
    });
    // The wrapper forwards everything, so the run is the protocol's own.
    assert_eq!(
        result.digest(),
        runner::run_one(cfg).digest(),
        "{}",
        cfg.protocol
    );
    seen
}

#[test]
fn quiesce_checkpoints_only_reach_policies_with_a_quiescent_mac() {
    for protocol in Protocol::all() {
        // 5 Hz keeps the MAC contended, so most activity points leave it
        // busy; churn adds death, revival, and repair.
        let mut cfg = ExperimentConfig::quick(protocol, WorkloadSpec::paper(5.0), 3);
        cfg.duration = SimDuration::from_secs(8);
        let churn = cfg
            .clone()
            .with_scenario(Scenario::Spec(presets::churn(cfg.duration)));
        for cfg in [cfg, churn] {
            let seen = run_recorded(&cfg);
            assert_eq!(
                seen.quiesce_mac_busy.load(Ordering::Relaxed),
                0,
                "{protocol}: Quiesce delivered while the MAC was busy"
            );
            assert!(
                seen.quiesce.load(Ordering::Relaxed) > 0,
                "{protocol}: no Quiesce checkpoint reached the policy"
            );
        }
    }
}
