//! The discrete-event simulation engine.
//!
//! A simulation is a [`Model`] (the entire mutable world state) driven by
//! an [`Engine`] that owns the clock and the pending-event set. The model
//! handles one event at a time and may schedule or cancel future events
//! through the [`Context`] passed to its handler.
//!
//! This mirrors the classic sequential DES loop of ns-2 but with two
//! guarantees ns-2 does not give:
//!
//! 1. **Determinism** — same model, same seed, same event sequence, every
//!    run (see [`crate::queue`] for the ordering rule).
//! 2. **Monotonic clock** — scheduling an event strictly in the past
//!    panics immediately rather than silently reordering history.
//!
//! # Examples
//!
//! ```
//! use essat_sim::engine::{Context, Engine, Model};
//! use essat_sim::time::{SimDuration, SimTime};
//!
//! /// Counts ticks of a periodic timer.
//! struct Clock {
//!     ticks: u32,
//! }
//!
//! enum Ev {
//!     Tick,
//! }
//!
//! impl Model for Clock {
//!     type Event = Ev;
//!     fn handle(&mut self, event: Ev, ctx: &mut Context<'_, Ev>) {
//!         match event {
//!             Ev::Tick => {
//!                 self.ticks += 1;
//!                 if self.ticks < 5 {
//!                     ctx.schedule_after(SimDuration::from_millis(10), Ev::Tick);
//!                 }
//!             }
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Clock { ticks: 0 });
//! engine.schedule_at(SimTime::ZERO, Ev::Tick);
//! assert_eq!(engine.run_until(SimTime::from_millis(100)), 5);
//! assert_eq!(engine.model().ticks, 5);
//! assert_eq!(engine.now(), SimTime::from_millis(100));
//! ```

use crate::queue::{EventId, EventQueue};
use crate::time::{SimDuration, SimTime};

/// World state driven by the engine.
///
/// The single `handle` method receives each event in deterministic order
/// together with a [`Context`] for scheduling follow-up events.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Processes one event at the context's current time.
    fn handle(&mut self, event: Self::Event, ctx: &mut Context<'_, Self::Event>);
}

/// Scheduling interface handed to [`Model::handle`].
///
/// All mutation of the future-event set during a handler goes through this
/// type, which keeps the clock and the queue consistent.
#[derive(Debug)]
pub struct Context<'a, E> {
    now: SimTime,
    id: EventId,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Context<'a, E> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the event currently being dispatched.
    ///
    /// Handle-owning state machines (the MAC timers, Safe-Sleep
    /// wake-ups, collection timeouts) keep the [`EventId`] returned
    /// when they armed a timer and cancel it on disarm; this accessor
    /// lets them cross-check, at dispatch, that a firing event is the
    /// one they still expect (the `sanitize` feature's "no stale event
    /// ever dispatches" invariant).
    pub fn event_id(&self) -> EventId {
        self.id
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`Context::now`].
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, requested={}",
            self.now,
            at
        );
        self.queue.push(at, event)
    }

    /// Schedules `event` after a relative delay.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventId {
        let at = self.now + delay;
        self.queue.push(at, event)
    }

    /// Schedules `event` to run after every event already scheduled for
    /// the current instant ("end of this time step").
    pub fn schedule_now(&mut self, event: E) -> EventId {
        self.queue.push(self.now, event)
    }

    /// Cancels a previously scheduled event. Returns `true` if it was
    /// still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// True if the event is still pending.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.queue.is_pending(id)
    }
}

/// Sequential discrete-event engine: owns the clock, the queue, and the
/// model.
#[derive(Debug)]
pub struct Engine<M: Model> {
    now: SimTime,
    queue: EventQueue<M::Event>,
    model: M,
    processed: u64,
}

impl<M: Model> Engine<M> {
    /// Creates an engine at time zero with an empty event set.
    pub fn new(model: M) -> Self {
        Self::with_queue(model, EventQueue::new())
    }

    /// Creates an engine at time zero over `queue`, which may already
    /// hold the model's first events: a model's construction can push
    /// them straight into it, in order. The queue may also reuse a
    /// previous run's allocations: one obtained from
    /// [`Engine::into_parts`] and [`EventQueue::clear`]ed before the
    /// model was built into it.
    pub fn with_queue(model: M, queue: EventQueue<M::Event>) -> Self {
        Engine {
            now: SimTime::ZERO,
            queue,
            model,
            processed: 0,
        }
    }

    /// Consumes the engine, returning the model and the queue (whose
    /// slab, current-bucket and overflow allocations a pool can recycle
    /// into the next run's construction and [`Engine::with_queue`] after
    /// clearing it).
    pub fn into_parts(self) -> (M, EventQueue<M::Event>) {
        (self.model, self.queue)
    }

    /// Current simulation time (the time of the last processed event, or
    /// zero before any event has run).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of the pending-event set over the whole run.
    pub fn peak_pending(&self) -> usize {
        self.queue.peak_len()
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model (for setup and inspection between
    /// runs; event handling itself must go through the queue).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Schedules an event from outside a handler (setup code).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, requested={}",
            self.now,
            at
        );
        self.queue.push(at, event)
    }

    /// Schedules an event after a relative delay from the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: M::Event) -> EventId {
        let at = self.now + delay;
        self.queue.push(at, event)
    }

    /// Cancels a pending event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Advances the clock to `time` and hands `event` to the model.
    fn dispatch(&mut self, time: SimTime, id: EventId, event: M::Event) {
        debug_assert!(time >= self.now, "event queue violated monotonicity");
        self.now = time;
        self.processed += 1;
        let mut ctx = Context {
            now: time,
            id,
            queue: &mut self.queue,
        };
        self.model.handle(event, &mut ctx);
    }

    /// Runs events with fire time `<= deadline`, then advances the clock
    /// to exactly `deadline` (even if the queue still holds later events).
    ///
    /// One [`EventQueue::pop_before`] per event: a handler that cancels
    /// a later pending event, even one in the same wheel bucket or at
    /// the same instant, removes it before it can be popped. This is
    /// [`Engine::run_until_capped`] with a budget no run can spend.
    ///
    /// Returns the number of events processed by this call.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let before = self.processed;
        self.run_until_capped(deadline, u64::MAX);
        self.processed - before
    }

    /// [`Engine::run_until`] with an event budget: runs events with fire
    /// time `<= deadline`, but at most `budget` of them. Returns `true`
    /// when the deadline was reached (the clock then rests at exactly
    /// `deadline`), `false` when the budget ran out first (the clock
    /// stays at the last processed event). The deterministic runaway
    /// guard for sweep jobs: the same `(model, seed, budget)` either
    /// always completes or always trips, independent of wall clock.
    pub fn run_until_capped(&mut self, deadline: SimTime, budget: u64) -> bool {
        for _ in 0..budget {
            let Some((time, id, event)) = self.queue.pop_before(deadline) else {
                self.now = self.now.max(deadline);
                return true;
            };
            self.dispatch(time, id, event);
        }
        // The budget is spent: the run is finished only if no event at
        // or before the deadline remains.
        if self.queue.peek_time().is_some_and(|t| t <= deadline) {
            return false;
        }
        self.now = self.now.max(deadline);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        log: Vec<(SimTime, u32)>,
        cancel_targets: Vec<EventId>,
    }

    enum Ev {
        Mark(u32),
        Spawn,
        CancelOther,
        /// The cancel-on-disarm shape: disarm (cancel) every stored
        /// handle and immediately re-arm a replacement `delay` later.
        DisarmRearm {
            delay: SimDuration,
            mark: u32,
        },
    }

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, event: Ev, ctx: &mut Context<'_, Ev>) {
            match event {
                Ev::Mark(n) => self.log.push((ctx.now(), n)),
                Ev::Spawn => {
                    ctx.schedule_after(SimDuration::from_millis(1), Ev::Mark(100));
                    ctx.schedule_now(Ev::Mark(99));
                }
                Ev::CancelOther => {
                    for id in self.cancel_targets.drain(..) {
                        assert!(ctx.cancel(id));
                        assert!(!ctx.is_pending(id));
                    }
                }
                Ev::DisarmRearm { delay, mark } => {
                    for id in self.cancel_targets.drain(..) {
                        ctx.cancel(id);
                    }
                    let id = ctx.schedule_after(delay, Ev::Mark(mark));
                    self.cancel_targets.push(id);
                }
            }
        }
    }

    #[test]
    fn processes_in_order_and_advances_clock() {
        let mut e = Engine::new(Recorder::default());
        e.schedule_at(SimTime::from_millis(20), Ev::Mark(2));
        e.schedule_at(SimTime::from_millis(10), Ev::Mark(1));
        assert_eq!(e.pending(), 2);
        let ran = e.run_until(SimTime::from_millis(20));
        assert_eq!(ran, 2);
        assert_eq!(
            e.model().log,
            vec![(SimTime::from_millis(10), 1), (SimTime::from_millis(20), 2)]
        );
        assert_eq!(e.now(), SimTime::from_millis(20));
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut e = Engine::new(Recorder::default());
        e.schedule_at(SimTime::from_millis(5), Ev::Spawn);
        e.run_until(SimTime::from_millis(10));
        // schedule_now event runs at the same instant, after already-queued
        // same-time events; the delayed one runs 1ms later.
        assert_eq!(
            e.model().log,
            vec![
                (SimTime::from_millis(5), 99),
                (SimTime::from_millis(6), 100)
            ]
        );
    }

    #[test]
    fn cancellation_from_handler() {
        let mut e = Engine::new(Recorder::default());
        let victim = e.schedule_at(SimTime::from_millis(10), Ev::Mark(1));
        e.model_mut().cancel_targets = vec![victim];
        e.schedule_at(SimTime::from_millis(5), Ev::CancelOther);
        e.run_until(SimTime::from_millis(20));
        assert!(e.model().log.is_empty());
    }

    /// An instant ≈10 ms in, three quarters of the way into its 2^16 ns
    /// wheel bucket (611 × 2^14 ns = 152.75 × 2^16 ns): events less than
    /// 16.384 µs after it share its bucket.
    fn bucket_start() -> SimTime {
        SimTime::from_nanos(611 << 14)
    }

    #[test]
    fn cancel_later_same_bucket_event_from_drained_batch() {
        // Regression: an event that cancels a later entry of the *same*
        // wheel bucket (even at the very same instant) suppresses it,
        // although the bucket is already sorted and being drained.
        let mut e = Engine::new(Recorder::default());
        let t = bucket_start();
        e.schedule_at(t, Ev::CancelOther);
        // Same instant, later seq — same bucket.
        let v1 = e.schedule_at(t, Ev::Mark(1));
        // Same bucket, strictly later time.
        let v2 = e.schedule_at(t + SimDuration::from_nanos(8_192), Ev::Mark(2));
        e.model_mut().cancel_targets = vec![v1, v2];
        let ran = e.run_until(SimTime::from_millis(20));
        assert_eq!(ran, 1, "only the cancelling event runs");
        assert!(e.model().log.is_empty());
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn disarm_rearm_against_drained_batch_suppresses_and_replaces() {
        // Regression for the cancel-on-disarm timer path: a handler
        // cancels a pending timer in the *same bucket* (later seq) and
        // immediately re-arms a replacement. The cancelled entry must
        // not fire and the replacement must fire at its own (time, seq)
        // position — the exact shape a MAC disarm/re-arm produces.
        let mut e = Engine::new(Recorder::default());
        let t = bucket_start();
        // The "armed timer", in the same bucket as the disarm.
        let armed = e.schedule_at(t + SimDuration::from_nanos(200), Ev::Mark(1));
        e.model_mut().cancel_targets = vec![armed];
        e.schedule_at(
            t,
            Ev::DisarmRearm {
                delay: SimDuration::from_nanos(500),
                mark: 2,
            },
        );
        // A bystander between the cancelled slot and the replacement
        // keeps FIFO order observable.
        e.schedule_at(t + SimDuration::from_nanos(300), Ev::Mark(3));
        let ran = e.run_until(t + SimDuration::from_millis(1));
        assert_eq!(ran, 3, "disarm + bystander + replacement");
        let marks: Vec<u32> = e.model().log.iter().map(|&(_, n)| n).collect();
        assert_eq!(
            marks,
            vec![3, 2],
            "cancelled timer never fires; order holds"
        );
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn rearm_into_currently_draining_bucket_fires_in_order() {
        // A replacement timer pushed into the wheel bucket that is being
        // drained right now fires in (time, seq) order, while a cancel
        // issued before the run stays suppressed.
        let mut e = Engine::new(Recorder::default());
        let t = bucket_start();
        let seed = e.schedule_at(
            t,
            Ev::DisarmRearm {
                delay: SimDuration::from_nanos(100),
                mark: 0,
            },
        );
        assert!(e.cancel(seed));
        e.schedule_at(
            t,
            Ev::DisarmRearm {
                delay: SimDuration::from_nanos(100),
                mark: 7,
            },
        );
        e.run_until(t + SimDuration::from_millis(1));
        let marks: Vec<u32> = e.model().log.iter().map(|&(_, n)| n).collect();
        assert_eq!(marks, vec![7], "only the live re-arm's replacement fires");
    }

    #[test]
    fn budget_exhaustion_mid_bucket_leaves_tail_pending() {
        // Regression: `run_until_capped` counts events, not buckets.
        // Exhaustion midway through a bucket leaves its tail queued,
        // and the tail runs — in order — on the next call.
        let mut e = Engine::new(Recorder::default());
        let t = bucket_start();
        for i in 0..5u64 {
            e.schedule_at(t + SimDuration::from_nanos(i * 100), Ev::Mark(i as u32));
        }
        assert!(!e.run_until_capped(SimTime::from_secs(1), 2));
        assert_eq!(e.model().log.len(), 2);
        assert_eq!(e.pending(), 3, "mid-bucket tail stays queued");
        assert!(e.run_until_capped(SimTime::from_secs(1), 100));
        let marks: Vec<u32> = e.model().log.iter().map(|&(_, n)| n).collect();
        assert_eq!(marks, vec![0, 1, 2, 3, 4]);
        assert_eq!(e.now(), SimTime::from_secs(1));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut e = Engine::new(Recorder::default());
        e.schedule_at(SimTime::from_millis(10), Ev::Mark(1));
        e.schedule_at(SimTime::from_millis(30), Ev::Mark(3));
        let ran = e.run_until(SimTime::from_millis(20));
        assert_eq!(ran, 1);
        assert_eq!(e.now(), SimTime::from_millis(20));
        assert_eq!(e.pending(), 1);
        e.run_until(SimTime::from_millis(30));
        assert_eq!(e.model().log.len(), 2);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut e = Engine::new(Recorder::default());
        e.run_until(SimTime::from_secs(7));
        assert_eq!(e.now(), SimTime::from_secs(7));
    }

    #[test]
    fn capped_run_reports_budget_exhaustion() {
        let mut e = Engine::new(Recorder::default());
        for i in 0..10 {
            e.schedule_at(SimTime::from_millis(i), Ev::Mark(i as u32));
        }
        // Budget trips first: the clock stays at the last event.
        assert!(!e.run_until_capped(SimTime::from_secs(1), 4));
        assert_eq!(e.processed(), 4);
        assert_eq!(e.now(), SimTime::from_millis(3));
        assert_eq!(e.pending(), 6, "unprocessed events stay queued");
        // Enough budget: completes and lands exactly on the deadline.
        assert!(e.run_until_capped(SimTime::from_secs(1), 1_000));
        assert_eq!(e.processed(), 10);
        assert_eq!(e.now(), SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_past_panics() {
        let mut e = Engine::new(Recorder::default());
        e.schedule_at(SimTime::from_millis(10), Ev::Mark(1));
        e.run_until(SimTime::from_millis(10));
        e.schedule_at(SimTime::from_millis(5), Ev::Mark(2));
    }

    #[test]
    fn into_model_returns_state() {
        let mut e = Engine::new(Recorder::default());
        e.schedule_at(SimTime::ZERO, Ev::Mark(7));
        e.run_until(SimTime::ZERO);
        let m = e.into_model();
        assert_eq!(m.log, vec![(SimTime::ZERO, 7)]);
    }
}
