//! Radio power-state machine, duty-cycle accounting, and break-even time.
//!
//! The paper's Safe Sleep algorithm reasons about three radio facts:
//!
//! * transitions between ON and OFF take time (`t_ON→OFF`, `t_OFF→ON`);
//! * the **break-even time** `t_BE` is the minimum OFF period for which
//!   switching the radio off saves energy with no delay penalty
//!   (Benini et al. \[2\]); when the transition power is no higher than the
//!   active power, `t_BE = t_ON→OFF + t_OFF→ON`;
//! * the scheduler must initiate wake-up `t_OFF→ON` early so the radio is
//!   active exactly when needed.
//!
//! [`Radio`] implements the four-state machine
//! `Active ⇄ TurningOff/TurningOn ⇄ Off` with exact per-state time
//! accounting and energy integration. Completing a wake-up reports when
//! the sleep it ends began ([`TransitionOutcome::NowActive`]), so the
//! caller can bin each sleep interval as it closes (the raw data for the
//! paper's Figure 8 histogram); the radio keeps no interval list.
//!
//! # Examples
//!
//! ```
//! use essat_net::radio::{Radio, RadioParams, TransitionOutcome};
//! use essat_sim::time::{SimDuration, SimTime};
//!
//! let params = RadioParams::mica2();
//! let mut radio = Radio::new(params);
//! let t0 = SimTime::ZERO;
//! let d = radio.begin_sleep(t0).unwrap();
//! radio.finish_transition(t0 + d);
//! assert!(radio.is_off());
//! let t1 = SimTime::from_millis(50);
//! let w = radio.begin_wake(t1).unwrap();
//! let woke = radio.finish_transition(t1 + w);
//! assert!(radio.is_active());
//! assert_eq!(woke, TransitionOutcome::NowActive { slept_since: t0 });
//! ```

use std::fmt;

use essat_sim::time::{SimDuration, SimTime};

/// The four power states of the radio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RadioState {
    /// Radio fully on: can transmit, receive, and carrier-sense.
    Active,
    /// Transitioning from `Active` to `Off`; can do nothing.
    TurningOff,
    /// Radio off: consumes (almost) no power, hears nothing.
    Off,
    /// Transitioning from `Off` to `Active`; can do nothing.
    TurningOn,
}

impl fmt::Display for RadioState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RadioState::Active => "active",
            RadioState::TurningOff => "turning-off",
            RadioState::Off => "off",
            RadioState::TurningOn => "turning-on",
        };
        f.write_str(s)
    }
}

/// Static radio characteristics.
///
/// Defaults model the MICA2's CC1000 with the transition numbers the
/// paper quotes (average break-even 2.5 ms, worst case 10 ms \[8\];
/// ZebraNet reports 40 ms \[6\]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioParams {
    /// Time to go from `Active` to `Off`.
    pub turn_off: SimDuration,
    /// Time to go from `Off` to `Active`.
    pub turn_on: SimDuration,
    /// Power draw while active (transmit/receive/idle-listen), in watts.
    pub active_power_w: f64,
    /// Power draw while off, in watts.
    pub sleep_power_w: f64,
    /// Power draw during transitions, in watts.
    pub transition_power_w: f64,
    /// Optional override of the computed break-even time (the paper's
    /// Figure 9 sweeps `t_BE` directly).
    pub break_even_override: Option<SimDuration>,
}

impl RadioParams {
    /// MICA2-like radio: 2.5 ms total transition (average reported in
    /// \[8\]), CC1000-class power draws.
    pub fn mica2() -> Self {
        RadioParams {
            turn_off: SimDuration::from_micros(1_250),
            turn_on: SimDuration::from_micros(1_250),
            active_power_w: 0.045,
            sleep_power_w: 0.00009,
            transition_power_w: 0.045,
            break_even_override: None,
        }
    }

    /// MICA2 worst case: 10 ms break-even.
    pub fn mica2_worst() -> Self {
        RadioParams {
            turn_off: SimDuration::from_micros(5_000),
            turn_on: SimDuration::from_micros(5_000),
            ..RadioParams::mica2()
        }
    }

    /// ZebraNet-class radio: 40 ms break-even \[6\].
    pub fn zebranet() -> Self {
        RadioParams {
            turn_off: SimDuration::from_millis(20),
            turn_on: SimDuration::from_millis(20),
            ..RadioParams::mica2()
        }
    }

    /// An idealised radio with instantaneous transitions (`t_BE = 0`),
    /// used for the paper's Figure 8 sleep-interval histogram.
    pub fn instant() -> Self {
        RadioParams {
            turn_off: SimDuration::ZERO,
            turn_on: SimDuration::ZERO,
            ..RadioParams::mica2()
        }
    }

    /// A radio whose total transition time (and hence default break-even
    /// time) equals `t_be`, split evenly between the two transitions.
    pub fn with_break_even(t_be: SimDuration) -> Self {
        let half = SimDuration::from_nanos(t_be.as_nanos() / 2);
        RadioParams {
            turn_off: half,
            turn_on: SimDuration::from_nanos(t_be.as_nanos() - half.as_nanos()),
            ..RadioParams::mica2()
        }
    }

    /// The break-even time `t_BE`: the minimum time the node must remain
    /// free for switching off to incur no energy or delay penalty.
    ///
    /// When the transition power is no higher than the active power this
    /// is simply `t_ON→OFF + t_OFF→ON`; otherwise the extra transition
    /// energy must be amortised against the active/sleep power gap
    /// (Benini et al. \[2\]).
    pub fn break_even(&self) -> SimDuration {
        if let Some(t) = self.break_even_override {
            return t;
        }
        let t_tr = self.turn_off + self.turn_on;
        if self.transition_power_w <= self.active_power_w {
            t_tr
        } else {
            // Energy balance: sleeping for t must beat staying active.
            //   P_tr·t_tr + P_sleep·(t − t_tr) ≤ P_active·t
            // ⇒ t ≥ t_tr·(P_tr − P_sleep) / (P_active − P_sleep)
            let num = self.transition_power_w - self.sleep_power_w;
            let den = self.active_power_w - self.sleep_power_w;
            assert!(den > 0.0, "active power must exceed sleep power");
            SimDuration::from_secs_f64(t_tr.as_secs_f64() * num / den)
        }
    }
}

impl Default for RadioParams {
    fn default() -> Self {
        RadioParams::mica2()
    }
}

/// Error returned when a power-state command is illegal in the current
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateTransitionError {
    state: RadioState,
    requested: &'static str,
}

impl fmt::Display for StateTransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot {} while radio is {}", self.requested, self.state)
    }
}

impl std::error::Error for StateTransitionError {}

/// Per-node radio with power-state machine and accounting.
#[derive(Debug, Clone)]
pub struct Radio {
    params: RadioParams,
    state: RadioState,
    state_since: SimTime,
    active_since: Option<SimTime>,
    wake_pending: bool,
    /// When the current (or last) off-cycle began turning off.
    sleep_started: SimTime,
    active_ns: u64,
    off_ns: u64,
    transition_ns: u64,
    energy_j: f64,
}

impl Radio {
    /// Creates a radio that starts `Active` at time zero.
    pub fn new(params: RadioParams) -> Self {
        Radio {
            params,
            state: RadioState::Active,
            state_since: SimTime::ZERO,
            active_since: Some(SimTime::ZERO),
            wake_pending: false,
            sleep_started: SimTime::ZERO,
            active_ns: 0,
            off_ns: 0,
            transition_ns: 0,
            energy_j: 0.0,
        }
    }

    /// The static parameters.
    pub fn params(&self) -> &RadioParams {
        &self.params
    }

    /// Current power state.
    pub fn state(&self) -> RadioState {
        self.state
    }

    /// True if the radio is fully active.
    pub fn is_active(&self) -> bool {
        self.state == RadioState::Active
    }

    /// True if the radio is fully off.
    pub fn is_off(&self) -> bool {
        self.state == RadioState::Off
    }

    /// If active, the instant the radio most recently became active.
    /// Used by the channel to verify a receiver was awake for a whole
    /// frame.
    pub fn active_since(&self) -> Option<SimTime> {
        self.active_since
    }

    /// The effective break-even time the sleep scheduler should use.
    pub fn break_even(&self) -> SimDuration {
        self.params.break_even()
    }

    /// Power drawn in the current state — the single state→power
    /// mapping shared by the mutating accounting ([`Radio::settle`])
    /// and the read-only projection ([`Radio::energy_j_at`]).
    fn power_w(&self) -> f64 {
        match self.state {
            RadioState::Active => self.params.active_power_w,
            RadioState::Off => self.params.sleep_power_w,
            RadioState::TurningOff | RadioState::TurningOn => self.params.transition_power_w,
        }
    }

    fn account(&mut self, until: SimTime) {
        let span = until.saturating_duration_since(self.state_since).as_nanos();
        match self.state {
            RadioState::Active => self.active_ns += span,
            RadioState::Off => self.off_ns += span,
            RadioState::TurningOff | RadioState::TurningOn => self.transition_ns += span,
        }
        self.energy_j += self.power_w() * span as f64 / 1e9;
        self.state_since = until;
    }

    fn set_state(&mut self, now: SimTime, state: RadioState) {
        self.account(now);
        self.state = state;
        self.active_since = if state == RadioState::Active {
            Some(now)
        } else {
            None
        };
    }

    /// Begins switching the radio off. Returns the transition duration;
    /// the caller must invoke [`Radio::finish_transition`] exactly that
    /// much later.
    ///
    /// # Errors
    ///
    /// Returns an error unless the radio is currently `Active`.
    pub fn begin_sleep(&mut self, now: SimTime) -> Result<SimDuration, StateTransitionError> {
        if self.state != RadioState::Active {
            return Err(StateTransitionError {
                state: self.state,
                requested: "begin sleep",
            });
        }
        self.sleep_started = now;
        self.wake_pending = false;
        self.set_state(now, RadioState::TurningOff);
        Ok(self.params.turn_off)
    }

    /// Begins switching the radio on. Returns the transition duration;
    /// the caller must invoke [`Radio::finish_transition`] exactly that
    /// much later.
    ///
    /// If called while the radio is still turning off, the wake-up is
    /// queued: the pending `finish_transition` will report
    /// [`TransitionOutcome::OffWakeQueued`] and the caller restarts the
    /// wake from there.
    ///
    /// # Errors
    ///
    /// Returns an error if the radio is already `Active` or `TurningOn`.
    pub fn begin_wake(&mut self, now: SimTime) -> Result<SimDuration, StateTransitionError> {
        match self.state {
            RadioState::Off => {
                self.set_state(now, RadioState::TurningOn);
                Ok(self.params.turn_on)
            }
            RadioState::TurningOff => {
                self.wake_pending = true;
                Err(StateTransitionError {
                    state: self.state,
                    requested: "begin wake (queued until turn-off completes)",
                })
            }
            _ => Err(StateTransitionError {
                state: self.state,
                requested: "begin wake",
            }),
        }
    }

    /// Completes an in-flight transition at `now`.
    ///
    /// # Panics
    ///
    /// Panics if no transition is in flight (caller scheduled a stale
    /// completion event).
    pub fn finish_transition(&mut self, now: SimTime) -> TransitionOutcome {
        match self.state {
            RadioState::TurningOff => {
                self.set_state(now, RadioState::Off);
                if self.wake_pending {
                    self.wake_pending = false;
                    TransitionOutcome::OffWakeQueued
                } else {
                    TransitionOutcome::NowOff
                }
            }
            RadioState::TurningOn => {
                self.set_state(now, RadioState::Active);
                // Only `begin_sleep` leads to `TurningOn` (through
                // `TurningOff` and `Off`), so the off-cycle it started
                // ends here.
                TransitionOutcome::NowActive {
                    slept_since: self.sleep_started,
                }
            }
            s => panic!("finish_transition while radio is {s}"),
        }
    }

    /// Brings a node's radio back as fresh-`Active` at `now` without
    /// accounting the interval since the last [`Radio::settle`] — used
    /// when a churned node recovers: a dead node consumes nothing, so
    /// the caller settles accounting at the moment of death and revives
    /// here. Any in-flight transition is discarded, so the off-cycle it
    /// belonged to never reports a wake; accumulated time/energy totals
    /// are kept (a recovered node does not get its battery back).
    pub fn resurrect(&mut self, now: SimTime) {
        self.state = RadioState::Active;
        self.state_since = now;
        self.active_since = Some(now);
        self.wake_pending = false;
    }

    /// Flushes accounting up to `now` (call once at the end of a run
    /// before reading the totals).
    pub fn settle(&mut self, now: SimTime) {
        self.account(now);
    }

    /// Energy consumed up to `now`, **without** mutating the books: the
    /// settled total plus the span since the last state change at the
    /// current state's power draw. The battery-depletion sweep reads
    /// every live node through this each period, so the whole-network
    /// scan stays read-only.
    pub fn energy_j_at(&self, now: SimTime) -> f64 {
        let span = now.saturating_duration_since(self.state_since).as_nanos();
        self.energy_j + self.power_w() * span as f64 / 1e9
    }

    /// Read-only projection of the three state counters to `now`, as
    /// `(active_ns, off_ns, transition_ns)` — what [`Radio::settle`]
    /// would leave in the books, without mutating them (the
    /// counterpart of [`Radio::energy_j_at`], used by observability
    /// probes that must not perturb the run).
    pub fn counters_at(&self, now: SimTime) -> (u64, u64, u64) {
        let span = now.saturating_duration_since(self.state_since).as_nanos();
        let (mut active, mut off, mut trans) = (self.active_ns, self.off_ns, self.transition_ns);
        match self.state {
            RadioState::Active => active += span,
            RadioState::Off => off += span,
            RadioState::TurningOff | RadioState::TurningOn => trans += span,
        }
        (active, off, trans)
    }

    /// Nanoseconds spent `Active` (after [`Radio::settle`]).
    pub fn active_ns(&self) -> u64 {
        self.active_ns
    }

    /// Nanoseconds spent `Off`.
    pub fn off_ns(&self) -> u64 {
        self.off_ns
    }

    /// Nanoseconds spent transitioning.
    pub fn transition_ns(&self) -> u64 {
        self.transition_ns
    }

    /// Total energy consumed in joules.
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Duty cycle over the accounted span: fraction of time **not** spent
    /// in the `Off` state (transitions count as on-time, as the paper's
    /// energy analysis treats them as overhead).
    pub fn duty_cycle(&self) -> f64 {
        let total = self.active_ns + self.off_ns + self.transition_ns;
        if total == 0 {
            1.0
        } else {
            (self.active_ns + self.transition_ns) as f64 / total as f64
        }
    }
}

/// Result of [`Radio::finish_transition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionOutcome {
    /// The radio is now fully off.
    NowOff,
    /// The radio is now fully active, ending the sleep interval that
    /// began at `slept_since` (when it started turning off; transition
    /// times count towards the interval, matching the scheduler's view
    /// of "time bought by sleeping").
    NowActive {
        /// When the radio started turning off.
        slept_since: SimTime,
    },
    /// The radio reached `Off`, but a wake-up was requested while it was
    /// turning off — the caller should immediately `begin_wake` again.
    OffWakeQueued,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn break_even_simple_sum() {
        let p = RadioParams::mica2();
        assert_eq!(p.break_even(), SimDuration::from_micros(2_500));
        assert_eq!(
            RadioParams::mica2_worst().break_even(),
            SimDuration::from_millis(10)
        );
        assert_eq!(
            RadioParams::zebranet().break_even(),
            SimDuration::from_millis(40)
        );
        assert_eq!(RadioParams::instant().break_even(), SimDuration::ZERO);
    }

    #[test]
    fn break_even_with_expensive_transition() {
        let p = RadioParams {
            transition_power_w: 0.09, // 2x active
            ..RadioParams::mica2()
        };
        let t = p.break_even();
        assert!(
            t > SimDuration::from_micros(2_500),
            "expensive transitions push break-even past the transition time, got {t}"
        );
    }

    #[test]
    fn break_even_override_wins() {
        let p = RadioParams {
            break_even_override: Some(SimDuration::from_millis(40)),
            ..RadioParams::mica2()
        };
        assert_eq!(p.break_even(), SimDuration::from_millis(40));
    }

    #[test]
    fn with_break_even_round_trip() {
        for ms_val in [1u64, 2, 3, 10, 40] {
            let p = RadioParams::with_break_even(SimDuration::from_millis(ms_val));
            assert_eq!(p.break_even(), SimDuration::from_millis(ms_val));
        }
    }

    #[test]
    fn sleep_wake_cycle_accounting() {
        let mut r = Radio::new(RadioParams::mica2());
        // Active [0, 10ms)
        let d_off = r.begin_sleep(ms(10)).unwrap();
        r.finish_transition(ms(10) + d_off); // off at 11.25ms
        let d_on = r.begin_wake(ms(50)).unwrap();
        let out = r.finish_transition(ms(50) + d_on); // active at 51.25ms
        assert_eq!(
            out,
            TransitionOutcome::NowActive {
                slept_since: ms(10)
            }
        );
        r.settle(ms(100));
        assert_eq!(r.transition_ns(), 2_500_000);
        assert_eq!(r.off_ns(), (ms(50) - (ms(10) + d_off)).as_nanos());
        let expected_active = 10_000_000 + (ms(100) - (ms(50) + d_on)).as_nanos();
        assert_eq!(r.active_ns(), expected_active);
        let total = r.active_ns() + r.off_ns() + r.transition_ns();
        assert_eq!(total, 100_000_000);
        let duty = r.duty_cycle();
        assert!((duty - (1.0 - r.off_ns() as f64 / 1e8)).abs() < 1e-12);
    }

    #[test]
    fn sleep_interval_recorded_with_transitions() {
        let mut r = Radio::new(RadioParams::mica2());
        let d_off = r.begin_sleep(ms(0)).unwrap();
        r.finish_transition(ms(0) + d_off);
        let d_on = r.begin_wake(ms(20)).unwrap();
        let ended = ms(20) + d_on;
        let TransitionOutcome::NowActive { slept_since } = r.finish_transition(ended) else {
            panic!("a completed wake-up reports its sleep");
        };
        assert_eq!(slept_since, ms(0));
        assert_eq!(ended - slept_since, SimDuration::from_micros(21_250));
    }

    #[test]
    fn wake_during_turn_off_is_queued() {
        let mut r = Radio::new(RadioParams::mica2());
        let d_off = r.begin_sleep(ms(0)).unwrap();
        // Upper layer changes its mind mid-transition.
        assert!(r.begin_wake(ms(1)).is_err());
        let out = r.finish_transition(ms(0) + d_off);
        assert_eq!(out, TransitionOutcome::OffWakeQueued);
        // Caller restarts the wake.
        let d_on = r.begin_wake(ms(0) + d_off).unwrap();
        let out2 = r.finish_transition(ms(0) + d_off + d_on);
        assert_eq!(out2, TransitionOutcome::NowActive { slept_since: ms(0) });
        assert!(r.is_active());
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut r = Radio::new(RadioParams::mica2());
        assert!(r.begin_wake(ms(0)).is_err(), "wake while active");
        let d = r.begin_sleep(ms(1)).unwrap();
        assert!(r.begin_sleep(ms(2)).is_err(), "sleep while turning off");
        r.finish_transition(ms(1) + d);
        assert!(r.begin_sleep(ms(5)).is_err(), "sleep while off");
        let err = r.begin_sleep(ms(5)).unwrap_err();
        assert!(err.to_string().contains("off"));
    }

    #[test]
    #[should_panic(expected = "finish_transition")]
    fn stale_finish_panics() {
        let mut r = Radio::new(RadioParams::mica2());
        r.finish_transition(ms(1));
    }

    #[test]
    fn active_since_tracks_wakeups() {
        let mut r = Radio::new(RadioParams::instant());
        assert_eq!(r.active_since(), Some(SimTime::ZERO));
        let d = r.begin_sleep(ms(3)).unwrap();
        assert_eq!(d, SimDuration::ZERO);
        r.finish_transition(ms(3));
        assert_eq!(r.active_since(), None);
        let w = r.begin_wake(ms(9)).unwrap();
        r.finish_transition(ms(9) + w);
        assert_eq!(r.active_since(), Some(ms(9)));
    }

    #[test]
    fn resurrect_skips_dead_interval_and_keeps_totals() {
        let mut r = Radio::new(RadioParams::mica2());
        // Dies (accounting settled) at 10 ms, revived at 60 ms.
        r.settle(ms(10));
        let e_at_death = r.energy_j();
        r.resurrect(ms(60));
        assert!(r.is_active());
        assert_eq!(r.active_since(), Some(ms(60)));
        r.settle(ms(70));
        // Only the 10 ms alive span after revival is accounted; the
        // 50 ms dead span cost nothing.
        assert_eq!(r.active_ns(), 20_000_000);
        assert!((r.energy_j() - e_at_death - 0.045 * 0.01).abs() < 1e-12);
    }

    #[test]
    fn resurrect_discards_inflight_transition() {
        let mut r = Radio::new(RadioParams::mica2());
        let _ = r.begin_sleep(ms(5)).unwrap(); // dies mid-turn-off
        r.resurrect(ms(50));
        assert!(r.is_active());
        // The aborted cycle never reports a wake: the next one ends the
        // sleep begun after the revival.
        let d = r.begin_sleep(ms(60)).unwrap();
        r.finish_transition(ms(60) + d);
        let w = r.begin_wake(ms(80)).unwrap();
        assert_eq!(
            r.finish_transition(ms(80) + w),
            TransitionOutcome::NowActive {
                slept_since: ms(60)
            }
        );
    }

    #[test]
    fn energy_integrates_power() {
        let mut r = Radio::new(RadioParams::mica2());
        r.settle(SimTime::from_secs(10));
        // 10 s fully active at 45 mW -> 0.45 J
        assert!((r.energy_j() - 0.45).abs() < 1e-9);
    }

    #[test]
    fn duty_cycle_of_fresh_radio_is_one() {
        let r = Radio::new(RadioParams::mica2());
        assert_eq!(r.duty_cycle(), 1.0);
    }
}
