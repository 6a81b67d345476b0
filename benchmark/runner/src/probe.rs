//! The traced run's probe: a dispatch profiler plus layer counters.
//!
//! Self time is charged on the existing `on_event` seam: the wall time
//! between two consecutive `on_event` calls goes to the earlier event's
//! kind (its handler plus the queue pop of the next event). The last
//! event is closed by `on_run_end`. The remaining hooks only count.
//! Nothing here feeds back into the simulation, so traced and untraced
//! runs must digest identically.

use std::time::{Duration, Instant};

use essat::obs::{PolicyActionKind, Probe, SampleView};
use essat::sim::time::SimTime;

/// Event kinds the profile reports, by their `Ev::label()`. Every other
/// kind (setup, flood and forced-wake events) is charged to `other`.
pub const KINDS: [&str; 12] = [
    "mac_timer",
    "tx_end",
    "round_start",
    "radio_done",
    "radio_wake",
    "policy",
    "release_report",
    "collection_timeout",
    "node_fail",
    "node_recover",
    "battery_check",
    "other",
];

/// Policy action kinds, by `PolicyActionKind::as_str()`.
pub const ACTIONS: [&str; 5] = ["wake_radio", "set_timer", "send_atim", "enqueue", "sleep"];

fn kind_index(kind: &str) -> usize {
    KINDS[..KINDS.len() - 1]
        .iter()
        .position(|k| *k == kind)
        .unwrap_or(KINDS.len() - 1)
}

fn action_index(kind: PolicyActionKind) -> usize {
    match kind {
        PolicyActionKind::WakeRadio => 0,
        PolicyActionKind::SetTimer => 1,
        PolicyActionKind::SendAtim => 2,
        PolicyActionKind::Enqueue => 3,
        _ => 4,
    }
}

/// Per-kind dispatch totals and per-layer counts over every run the
/// profiler was attached to.
#[derive(Debug, Default)]
pub struct Profile {
    /// Dispatches per kind (indexed like [`KINDS`]).
    pub count: [u64; KINDS.len()],
    /// Self time per kind.
    pub self_time: [Duration; KINDS.len()],
    /// `on_tx_start` calls.
    pub tx_starts: u64,
    /// Receivers that got a clean copy (`on_tx_end` clean counts).
    pub rx_delivered: u64,
    /// Receivers that saw a corrupted copy.
    pub rx_corrupted: u64,
    /// `on_rx` calls (must equal `rx_delivered`).
    pub rx_calls: u64,
    /// Radio transitions into or out of the active state.
    pub radio_transitions: u64,
    /// Sleep checkpoints offered to policies.
    pub sleep_checkpoints: u64,
    /// Policy actions per kind (indexed like [`ACTIONS`]).
    pub actions: [u64; ACTIONS.len()],
    /// Node deaths (churn, scripted or battery).
    pub node_down: u64,
    /// Node recoveries.
    pub node_up: u64,
}

impl Profile {
    /// Total dispatches.
    pub fn events(&self) -> u64 {
        self.count.iter().sum()
    }

    /// Total self time over all kinds.
    pub fn total_self(&self) -> Duration {
        self.self_time.iter().sum()
    }
}

/// The probe attached to traced runs.
#[derive(Debug, Default)]
pub struct DispatchProfiler {
    /// What has been recorded so far.
    pub profile: Profile,
    open: Option<(usize, Instant)>,
}

impl DispatchProfiler {
    fn close(&mut self, now: Instant) {
        if let Some((k, since)) = self.open.take() {
            self.profile.self_time[k] += now - since;
        }
    }
}

impl Probe for DispatchProfiler {
    fn on_event(&mut self, _now: SimTime, kind: &'static str, _view: &dyn SampleView) {
        let t = Instant::now();
        self.close(t);
        let k = kind_index(kind);
        self.profile.count[k] += 1;
        self.open = Some((k, t));
    }

    fn on_run_end(&mut self, _end: SimTime, _view: &dyn SampleView) {
        self.close(Instant::now());
    }

    fn on_radio_state(&mut self, _now: SimTime, _node: u32, _active: bool) {
        self.profile.radio_transitions += 1;
    }

    fn on_policy_action(&mut self, _now: SimTime, _node: u32, kind: PolicyActionKind) {
        self.profile.actions[action_index(kind)] += 1;
    }

    fn on_sleep_checkpoint(&mut self, _now: SimTime, _node: u32) {
        self.profile.sleep_checkpoints += 1;
    }

    fn on_tx_start(&mut self, _now: SimTime, _node: u32, _airtime_ns: u64, _bytes: u32) {
        self.profile.tx_starts += 1;
    }

    fn on_tx_end(&mut self, _now: SimTime, _sender: u32, clean: u32, corrupted: u32) {
        self.profile.rx_delivered += clean as u64;
        self.profile.rx_corrupted += corrupted as u64;
    }

    fn on_rx(&mut self, _now: SimTime, _node: u32, _from: u32) {
        self.profile.rx_calls += 1;
    }

    fn on_node_down(&mut self, _now: SimTime, _node: u32, _battery: bool) {
        self.profile.node_down += 1;
    }

    fn on_node_up(&mut self, _now: SimTime, _node: u32) {
        self.profile.node_up += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_map_to_kinds() {
        assert_eq!(kind_index("mac_timer"), 0);
        assert_eq!(kind_index("battery_check"), 10);
        assert_eq!(kind_index("setup_end"), KINDS.len() - 1);
        for a in [
            PolicyActionKind::WakeRadio,
            PolicyActionKind::SetTimer,
            PolicyActionKind::SendAtim,
            PolicyActionKind::Enqueue,
            PolicyActionKind::Sleep,
        ] {
            assert_eq!(ACTIONS[action_index(a)], a.as_str());
        }
    }
}
