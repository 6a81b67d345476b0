//! The executor's side of the `PowerPolicy` contract, observed from a
//! policy: a `Quiesce` sleep checkpoint means the MAC went quiescent, a
//! policy may sleep the radio from inside a frame delivery, and a sleep
//! a policy takes during setup stays out of the Figure 8 histogram.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use essat_core::policy::{NodeView, PolicyAction, PolicyTimer, PowerPolicy, SleepTrigger};
use essat_core::shaper::{Release, TreeInfo};
use essat_net::frame::Frame;
use essat_net::ids::NodeId;
use essat_obs::profile::RunTimings;
use essat_obs::Probe;
use essat_query::model::{Query, QueryId};
use essat_scenario::presets;
use essat_scenario::spec::Scenario;
use essat_sim::time::{SimDuration, SimTime};
use essat_wsn::config::{ExperimentConfig, Protocol, WorkloadSpec, SETUP_SLOT};
use essat_wsn::payload::Payload;
use essat_wsn::runner;
use essat_wsn::sim::{World, WorldScratch};

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
    /// Also sleep the radio for 5 ms after every report dispatch.
    nap: bool,
    /// Also sleep the radio for 50 ms at [`SETUP_NAP_AT`], before setup
    /// ends, ignoring `may_sleep`.
    setup_nap: bool,
}

/// The custom timer that starts a setup nap.
const SETUP_NAP: PolicyTimer = PolicyTimer::Custom {
    key: 7,
    chain: false,
};
/// When a setup nap starts: well inside the setup slot.
const SETUP_NAP_AT: SimTime = SimTime::from_millis(100);

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
        self.inner.dispatch_report(frame, dest, view, out);
        if self.nap && view.radio_active && view.mac_can_suspend && !view.dead {
            out.push(PolicyAction::Sleep {
                wake_at: Some(view.now + SimDuration::from_millis(5)),
            });
        }
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
        self.inner.initial_actions(out);
        if self.setup_nap {
            out.push(PolicyAction::SetTimer {
                timer: SETUP_NAP,
                at: SETUP_NAP_AT,
            });
        }
    }

    fn on_timer(
        &mut self,
        timer: PolicyTimer,
        view: &NodeView,
        out: &mut Vec<PolicyAction<Payload>>,
    ) {
        if timer != SETUP_NAP {
            return self.inner.on_timer(timer, view, out);
        }
        if view.radio_active && view.mac_can_suspend && !view.dead {
            out.push(PolicyAction::Sleep {
                wake_at: Some(view.now + SimDuration::from_millis(50)),
            });
        }
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
            nap: false,
            setup_nap: false,
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

/// Per-protocol digests of the napping runs in
/// [`sleep_inside_a_delivery_matches_pinned_digests`], recorded while
/// the MAC still held its own timer handles.
const NAP_DIGESTS: [(Protocol, &str); 8] = [
    (Protocol::DtsSs, "bdab5cf01f6dde39"),
    (Protocol::StsSs, "b08383253e86fff2"),
    (Protocol::NtsSs, "8bc1f841fba2ba3a"),
    (Protocol::TagSs, "628c2b1acc428bc4"),
    (Protocol::Sync, "ab448051a72f4475"),
    (Protocol::Psm, "53d4a5021da16d98"),
    (Protocol::Span, "3be853ae6757c124"),
    (Protocol::AlwaysOn, "e2de4ab46a157454"),
];

/// A report dispatched while a child's report is being delivered
/// (the parent's round completes and its own report goes out) sleeps
/// the radio inside the delivery, while the MAC batch that delivered
/// the frame still holds its `SetTimer(AckDelay)`. That timer was
/// disarmed by the sleep, so the executor must not schedule it; the
/// sanitizer would panic on its stale expiry.
#[test]
fn sleep_inside_a_delivery_matches_pinned_digests() {
    for (protocol, want) in NAP_DIGESTS {
        let mut cfg = ExperimentConfig::quick(protocol, WorkloadSpec::paper(5.0), 3);
        cfg.duration = SimDuration::from_secs(8);
        let result = World::run_with(&cfg, &|cfg, node, env| {
            Box::new(Recording {
                inner: Protocol::build_policy(cfg, node, env),
                seen: Arc::new(Seen::default()),
                nap: true,
                setup_nap: false,
            })
        });
        assert_eq!(result.digest(), want, "{protocol}");
    }
}

/// Every radio transition the executor reports, in order.
#[derive(Debug, Default)]
struct RadioLog(Vec<(SimTime, u32, bool)>);

impl Probe for RadioLog {
    fn on_radio_state(&mut self, now: SimTime, node: u32, active: bool) {
        self.0.push((now, node, active));
    }
}

/// Figure 8 bins a member's sleep only if it began inside the measured
/// window. Every member naps once during setup here, so the histogram
/// must hold exactly the member sleeps that began at or after the end
/// of setup, as the radio transitions show them.
#[test]
fn setup_sleeps_stay_out_of_the_sleep_histogram() {
    let mut cfg = ExperimentConfig::quick(Protocol::DtsSs, WorkloadSpec::paper(1.0), 3);
    cfg.duration = SimDuration::from_secs(8);
    let (result, log) = World::run_instrumented(
        &cfg,
        &|cfg, node, env| {
            Box::new(Recording {
                inner: Protocol::build_policy(cfg, node, env),
                seen: Arc::new(Seen::default()),
                nap: false,
                setup_nap: true,
            })
        },
        None,
        &mut WorldScratch::new(),
        None,
        RadioLog::default(),
        &mut RunTimings::default(),
    );
    let result = result.expect("uncapped run");
    // The run's node metrics list exactly the build-time members.
    let mut member = vec![false; cfg.nodes as usize];
    for n in &result.nodes {
        member[n.node.index()] = true;
    }
    let measure_from = SimTime::ZERO + SETUP_SLOT;
    let mut slept_since = vec![None; cfg.nodes as usize];
    let (mut in_setup, mut in_window) = (0, 0);
    for &(at, node, active) in &log.0 {
        let i = node as usize;
        if !active {
            slept_since[i] = Some(at);
        } else if let Some(since) = slept_since[i].take() {
            if !member[i] {
                continue;
            }
            if since < measure_from {
                in_setup += 1;
            } else {
                in_window += 1;
            }
        }
    }
    assert!(in_setup > 0, "no member napped during setup");
    assert!(in_window > 0, "no member slept in the measured window");
    assert_eq!(result.sleep_intervals.total(), in_window);
}
