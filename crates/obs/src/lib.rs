//! Deterministic observability for the simulator.
//!
//! The crate defines the [`Probe`] seam: a read-only listener the
//! simulation core notifies at the same structural points the
//! `sanitize` feature checks — event dispatch, policy-action
//! application, sleep checkpoints, radio transitions, MAC tx/rx and
//! collisions, round lifecycle, churn, battery death, and clock
//! glitches. Probes *observe*; they cannot schedule or cancel events,
//! touch any RNG stream, or mutate node state, so attaching one leaves
//! every run digest and figure CSV byte-identical to a probe-free run.
//!
//! The default probe is [`NullProbe`]. The `World` is generic over its
//! probe (`World<P: Probe = NullProbe>`), so the null case
//! monomorphizes to empty inlined calls behind an
//! [`enabled`](Probe::enabled) check that is a constant `false`:
//! `NullProbe` is free by construction. Every run goes through the
//! probe-generic path, so no probe-free path remains to time it
//! against.
//!
//! Two concrete probes ship here:
//!
//! * [`trace::TimelineTracer`] — per-node spans (radio awake/asleep,
//!   transmissions) and instants (rx, collisions, rounds, churn,
//!   clock glitches) exported as Chrome/Perfetto trace-event JSON or a
//!   compact JSONL codec.
//! * [`sample::TimeSeriesSampler`] — per-node energy, duty cycle, MAC
//!   queue depth, and tree membership at a configurable sim-time
//!   cadence, exported as CSV.
//!
//! [`profile::RunTimings`] carries per-run wall-clock phase timings
//! (build / run / finalize) for the harness executor's profiling
//! record, and [`perfetto`] holds the shared trace-event JSON builder
//! plus a structural validator used by tests and CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod perfetto;
pub mod profile;
pub mod sample;
pub mod trace;

use essat_sim::time::SimTime;

/// Read-only view of per-node simulation state offered to probes.
///
/// Every accessor is a projection: computing it must not mutate the
/// world (the radio exposes `*_at(now)` projections for exactly this
/// reason). Indices are dense node indices (`0..node_count()`).
pub trait SampleView {
    /// Number of nodes in the world.
    fn node_count(&self) -> usize;
    /// True while the node is up (not scripted-failed or battery-dead).
    fn is_alive(&self, node: usize) -> bool;
    /// True while the node is a member of the routing tree.
    fn in_tree(&self, node: usize) -> bool;
    /// Energy consumed since the measurement window opened, in joules,
    /// projected to `now`.
    fn energy_j(&self, node: usize, now: SimTime) -> f64;
    /// Duty cycle over the measurement window so far (active +
    /// transition time over total), projected to `now`.
    fn duty_cycle(&self, node: usize, now: SimTime) -> f64;
    /// Frames currently queued in the node's MAC.
    fn queue_depth(&self, node: usize) -> usize;
}

/// The kind of a policy action, as visible to probes.
///
/// Mirrors the simulator's `PolicyAction` alphabet without exposing
/// its payloads (probes are read-only; the payloads carry pooled
/// buffers and frame handles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PolicyActionKind {
    /// Wake the radio (begin the off→active transition).
    WakeRadio,
    /// Arm or re-arm a policy timer.
    SetTimer,
    /// Send an ATIM-style announcement frame.
    SendAtim,
    /// Enqueue an application frame at the MAC.
    Enqueue,
    /// Put the radio to sleep until a wake deadline.
    Sleep,
}

impl PolicyActionKind {
    /// Stable lower-case label (used by tracers and codecs).
    pub fn as_str(self) -> &'static str {
        match self {
            PolicyActionKind::WakeRadio => "wake_radio",
            PolicyActionKind::SetTimer => "set_timer",
            PolicyActionKind::SendAtim => "send_atim",
            PolicyActionKind::Enqueue => "enqueue",
            PolicyActionKind::Sleep => "sleep",
        }
    }
}

/// A read-only observer threaded through the simulation core.
///
/// All methods default to no-ops so a probe implements only what it
/// needs. The trait is object-safe (no associated constants or
/// generic methods), though the `World` consumes probes by value and
/// monomorphizes over them.
///
/// # Determinism contract
///
/// Probes receive `&mut self` for their own bookkeeping but only
/// shared views of the simulation. They must not panic on well-formed
/// input; they cannot influence event order, RNG draws, or metrics.
#[allow(unused_variables)]
pub trait Probe {
    /// Whether the probe wants callbacks at all. The core consults
    /// this before building views or gathering hook arguments;
    /// [`NullProbe`] returns `false`, so the check constant-folds and
    /// every hook disappears from the monomorphized hot path.
    fn enabled(&self) -> bool {
        true
    }

    /// An event is about to be dispatched. `kind` is the stable label
    /// from the simulator's event alphabet; `view` projects node state
    /// as of `now` (samplers hang their cadence off this hook).
    fn on_event(&mut self, now: SimTime, kind: &'static str, view: &dyn SampleView) {}

    /// A node's radio reached the active state (`active == true`) or
    /// left it for sleep (`active == false`).
    fn on_radio_state(&mut self, now: SimTime, node: u32, active: bool) {}

    /// The policy layer emitted an action for `node`.
    fn on_policy_action(&mut self, now: SimTime, node: u32, kind: PolicyActionKind) {}

    /// A sleep checkpoint ran for `node` (the seam where policies are
    /// offered a chance to suspend the radio).
    fn on_sleep_checkpoint(&mut self, now: SimTime, node: u32) {}

    /// `node` started transmitting a frame of `bytes` bytes that will
    /// occupy the channel for `airtime_ns`.
    fn on_tx_start(&mut self, now: SimTime, node: u32, airtime_ns: u64, bytes: u32) {}

    /// `sender`'s transmission ended: `clean` receivers got the frame,
    /// `corrupted` receivers saw a collision-corrupted copy.
    fn on_tx_end(&mut self, now: SimTime, sender: u32, clean: u32, corrupted: u32) {}

    /// `node` cleanly received a frame from `from`.
    fn on_rx(&mut self, now: SimTime, node: u32, from: u32) {}

    /// `node` opened round `round` of query `query`.
    fn on_round_start(&mut self, now: SimTime, node: u32, query: u32, round: u64) {}

    /// The root (`node`) sealed round `round` of query `query`; `full`
    /// is true when every registered source contributed.
    fn on_round_sealed(&mut self, now: SimTime, node: u32, query: u32, round: u64, full: bool) {}

    /// `node` died — scripted churn (`battery == false`) or battery
    /// depletion (`battery == true`).
    fn on_node_down(&mut self, now: SimTime, node: u32, battery: bool) {}

    /// `node` recovered from a scripted failure.
    fn on_node_up(&mut self, now: SimTime, node: u32) {}

    /// A scripted clock glitch steps `node`'s clock by `delta_ns` at
    /// `at`. Glitches are compiled ahead of the run, so this fires at
    /// construction time for each scheduled step.
    fn on_clock_glitch(&mut self, at: SimTime, node: u32, delta_ns: i64) {}

    /// The run reached its end; `view` projects final node state. This
    /// is the last callback (spans should be closed here).
    fn on_run_end(&mut self, end: SimTime, view: &dyn SampleView) {}
}

/// The default probe: observes nothing, costs nothing.
///
/// [`enabled`](Probe::enabled) returns `false`, so monomorphized hook
/// sites dead-code away entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

/// Composes two probes into one; both receive every callback.
///
/// Used when a run wants the tracer *and* the sampler attached:
/// `Fanout(TimelineTracer::new(), TimeSeriesSampler::new(period))`.
#[derive(Debug, Clone, Default)]
pub struct Fanout<A, B>(pub A, pub B);

impl<A: Probe, B: Probe> Probe for Fanout<A, B> {
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    fn on_event(&mut self, now: SimTime, kind: &'static str, view: &dyn SampleView) {
        self.0.on_event(now, kind, view);
        self.1.on_event(now, kind, view);
    }

    fn on_radio_state(&mut self, now: SimTime, node: u32, active: bool) {
        self.0.on_radio_state(now, node, active);
        self.1.on_radio_state(now, node, active);
    }

    fn on_policy_action(&mut self, now: SimTime, node: u32, kind: PolicyActionKind) {
        self.0.on_policy_action(now, node, kind);
        self.1.on_policy_action(now, node, kind);
    }

    fn on_sleep_checkpoint(&mut self, now: SimTime, node: u32) {
        self.0.on_sleep_checkpoint(now, node);
        self.1.on_sleep_checkpoint(now, node);
    }

    fn on_tx_start(&mut self, now: SimTime, node: u32, airtime_ns: u64, bytes: u32) {
        self.0.on_tx_start(now, node, airtime_ns, bytes);
        self.1.on_tx_start(now, node, airtime_ns, bytes);
    }

    fn on_tx_end(&mut self, now: SimTime, sender: u32, clean: u32, corrupted: u32) {
        self.0.on_tx_end(now, sender, clean, corrupted);
        self.1.on_tx_end(now, sender, clean, corrupted);
    }

    fn on_rx(&mut self, now: SimTime, node: u32, from: u32) {
        self.0.on_rx(now, node, from);
        self.1.on_rx(now, node, from);
    }

    fn on_round_start(&mut self, now: SimTime, node: u32, query: u32, round: u64) {
        self.0.on_round_start(now, node, query, round);
        self.1.on_round_start(now, node, query, round);
    }

    fn on_round_sealed(&mut self, now: SimTime, node: u32, query: u32, round: u64, full: bool) {
        self.0.on_round_sealed(now, node, query, round, full);
        self.1.on_round_sealed(now, node, query, round, full);
    }

    fn on_node_down(&mut self, now: SimTime, node: u32, battery: bool) {
        self.0.on_node_down(now, node, battery);
        self.1.on_node_down(now, node, battery);
    }

    fn on_node_up(&mut self, now: SimTime, node: u32) {
        self.0.on_node_up(now, node);
        self.1.on_node_up(now, node);
    }

    fn on_clock_glitch(&mut self, at: SimTime, node: u32, delta_ns: i64) {
        self.0.on_clock_glitch(at, node, delta_ns);
        self.1.on_clock_glitch(at, node, delta_ns);
    }

    fn on_run_end(&mut self, end: SimTime, view: &dyn SampleView) {
        self.0.on_run_end(end, view);
        self.1.on_run_end(end, view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingProbe {
        events: u32,
    }

    impl Probe for CountingProbe {
        fn on_event(&mut self, _now: SimTime, _kind: &'static str, _view: &dyn SampleView) {
            self.events += 1;
        }
    }

    struct EmptyView;
    impl SampleView for EmptyView {
        fn node_count(&self) -> usize {
            0
        }
        fn is_alive(&self, _: usize) -> bool {
            false
        }
        fn in_tree(&self, _: usize) -> bool {
            false
        }
        fn energy_j(&self, _: usize, _: SimTime) -> f64 {
            0.0
        }
        fn duty_cycle(&self, _: usize, _: SimTime) -> f64 {
            0.0
        }
        fn queue_depth(&self, _: usize) -> usize {
            0
        }
    }

    #[test]
    fn null_probe_is_disabled() {
        assert!(!NullProbe.enabled());
    }

    #[test]
    fn fanout_delivers_to_both() {
        let mut f = Fanout(CountingProbe { events: 0 }, CountingProbe { events: 0 });
        assert!(f.enabled());
        f.on_event(SimTime::ZERO, "tick", &EmptyView);
        f.on_event(SimTime::from_secs(1), "tick", &EmptyView);
        assert_eq!(f.0.events, 2);
        assert_eq!(f.1.events, 2);
    }

    #[test]
    fn fanout_of_nulls_is_disabled() {
        assert!(!Fanout(NullProbe, NullProbe).enabled());
    }
}
