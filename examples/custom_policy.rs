//! A power-management policy defined *outside* the workspace crates,
//! plugged into the simulator through the policy-factory seam.
//!
//! `NaiveDutyCycle` is deliberately simple — a fixed 30%-duty schedule
//! that knows nothing about application timing: wake at every window
//! start, sleep at its end, release reports immediately. It implements
//! [`PowerPolicy`] right here in the example and reaches the executor
//! via [`World::run_with`]; no workspace crate mentions it, which is
//! the point: adding a protocol no longer touches the simulator.
//!
//! The run compares it against DTS-SS under the `steady` scenario
//! preset and prints the gap the paper predicts: a timing-oblivious
//! duty cycle pays for its fixed schedule in both energy (its duty
//! floor) and latency (reports wait out sleep windows).
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```

use essat::core::policy::{NodeView, PolicyAction, PolicyTimer, PowerPolicy, SleepTrigger};
use essat::core::shaper::{Release, TreeInfo};
use essat::query::model::Query;
use essat::scenario::presets;
use essat::scenario::spec::Scenario;
use essat::sim::time::{SimDuration, SimTime};
use essat::wsn::config::{ExperimentConfig, Protocol, WorkloadSpec};
use essat::wsn::payload::Payload;
use essat::wsn::runner;
use essat::wsn::sim::World;

/// The example's own schedule-edge timer: out-of-tree policies get
/// private timers via `PolicyTimer::Custom` (`chain: true` lets churn
/// cancel the pending chain link on death and revival, like SYNC edges).
const EDGE: PolicyTimer = PolicyTimer::Custom {
    key: 0,
    chain: true,
};

/// A fixed 30%-duty schedule, ignorant of application timing.
#[derive(Debug)]
struct NaiveDutyCycle {
    period: SimDuration,
    active: SimDuration,
    run_end: SimTime,
}

impl NaiveDutyCycle {
    fn new(run_end: SimTime) -> Self {
        NaiveDutyCycle {
            period: SimDuration::from_millis(200),
            active: SimDuration::from_millis(60),
            run_end,
        }
    }

    fn window_start(&self, t: SimTime) -> SimTime {
        SimTime::from_nanos((t.as_nanos() / self.period.as_nanos()) * self.period.as_nanos())
    }

    fn in_active_window(&self, t: SimTime) -> bool {
        t - self.window_start(t) < self.active
    }

    /// The next schedule edge strictly after `t`.
    fn next_edge(&self, t: SimTime) -> SimTime {
        if self.in_active_window(t) {
            self.window_start(t) + self.active
        } else {
            self.window_start(t) + self.period
        }
    }
}

impl PowerPolicy<Payload> for NaiveDutyCycle {
    fn name(&self) -> &'static str {
        "NAIVE-30"
    }

    fn collection_deadline(&self, q: &Query, k: u64, tree: &TreeInfo<'_>) -> SimTime {
        // One schedule period of grace per subtree rank.
        q.round_start(k) + self.period * (tree.own_rank as u64 + 1) + SimDuration::from_millis(50)
    }

    fn plan_release(
        &mut self,
        _q: &Query,
        _k: u64,
        ready_at: SimTime,
        _tree: &TreeInfo<'_>,
    ) -> Release {
        Release {
            send_at: ready_at,
            piggyback: None,
        }
    }

    fn sleep_decision(
        &mut self,
        trigger: SleepTrigger,
        view: &NodeView,
        out: &mut Vec<PolicyAction<Payload>>,
    ) {
        // Only at protocol-agnostic boundaries; mid-window quiesce
        // points never put this node to sleep early.
        if trigger != SleepTrigger::Boundary {
            return;
        }
        if !view.may_sleep || view.dead || !view.radio_active || !view.mac_can_suspend {
            return;
        }
        if !self.in_active_window(view.now) {
            out.push(PolicyAction::Suspend);
        }
    }

    fn initial_actions(&mut self, out: &mut Vec<PolicyAction<Payload>>) {
        out.push(PolicyAction::SetTimer {
            timer: EDGE,
            at: self.next_edge(SimTime::ZERO),
        });
    }

    fn on_timer(
        &mut self,
        timer: PolicyTimer,
        view: &NodeView,
        out: &mut Vec<PolicyAction<Payload>>,
    ) {
        if timer != EDGE {
            return;
        }
        if self.in_active_window(view.now) {
            out.push(PolicyAction::WakeRadio);
        } else {
            self.sleep_decision(SleepTrigger::Boundary, view, out);
        }
        let next = self.next_edge(view.now);
        if next < self.run_end {
            out.push(PolicyAction::SetTimer {
                timer: EDGE,
                at: next,
            });
        }
    }

    fn on_revive(&mut self, now: SimTime, out: &mut Vec<PolicyAction<Payload>>) {
        out.push(PolicyAction::SetTimer {
            timer: EDGE,
            at: self.next_edge(now),
        });
    }
}

fn main() {
    let seed = 11;
    let mut cfg = ExperimentConfig::quick(Protocol::DtsSs, WorkloadSpec::paper(1.0), seed);
    cfg.duration = SimDuration::from_secs(30);
    // The `steady` preset: the static paper environment, expressed as a
    // scenario (a no-op spec — the clean baseline for plugin runs).
    let cfg = cfg.with_scenario(Scenario::Spec(presets::steady()));

    // The configured protocol, through the default factory…
    let dts = runner::run_one(&cfg);
    // …and the out-of-tree policy, through the same executor via the
    // factory seam. The configured protocol is simply ignored: every
    // node gets the example's own policy.
    let naive = World::run_with(&cfg, &|cfg, _node, _env| {
        Box::new(NaiveDutyCycle::new(SimTime::ZERO + cfg.duration))
    });

    println!("== custom_policy — plugin seam under the `steady` preset (30 s, quick scale)");
    println!(
        "  {:>8}: duty {:5.2}%  latency {:6.1} ms  delivery {:5.1}%",
        "DTS-SS",
        dts.avg_duty_cycle_pct(),
        dts.avg_latency_s() * 1e3,
        dts.delivery_ratio() * 100.0
    );
    println!(
        "  {:>8}: duty {:5.2}%  latency {:6.1} ms  delivery {:5.1}%",
        "NAIVE-30",
        naive.avg_duty_cycle_pct(),
        naive.avg_latency_s() * 1e3,
        naive.delivery_ratio() * 100.0
    );
    println!(
        "  -> timing semantics beat the naive schedule on energy ({:.2}% vs {:.2}% duty)",
        dts.avg_duty_cycle_pct(),
        naive.avg_duty_cycle_pct()
    );
    assert!(
        dts.avg_duty_cycle_pct() < naive.avg_duty_cycle_pct(),
        "DTS-SS should sleep more than a 30% fixed schedule"
    );
    assert!(
        naive.delivery_ratio() > 0.5,
        "the plugin policy must still deliver most readings"
    );
}
