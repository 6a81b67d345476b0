//! # essat-sim — deterministic discrete-event simulation engine
//!
//! The substrate underneath the ESSAT reproduction: a sequential
//! discrete-event engine with a nanosecond clock, a deterministic
//! `(time, sequence)`-ordered event queue with exact cancellation,
//! derivable seeded randomness, and the streaming statistics the paper's
//! evaluation needs (Welford accumulators with Student-t confidence
//! intervals, fixed-width histograms).
//!
//! The engine replaces ns-2 in the original evaluation. It is
//! intentionally minimal: models are plain structs implementing
//! [`engine::Model`], events are plain enums, and all randomness flows
//! from a single seed through [`rng::SimRng::derive`] so that every run is
//! bit-for-bit reproducible.
//!
//! ## Quick tour
//!
//! ```
//! use essat_sim::prelude::*;
//!
//! struct Pinger {
//!     sent: u32,
//! }
//! enum Ev {
//!     Ping,
//! }
//! impl Model for Pinger {
//!     type Event = Ev;
//!     fn handle(&mut self, _ev: Ev, ctx: &mut Context<'_, Ev>) {
//!         self.sent += 1;
//!         if self.sent < 3 {
//!             ctx.schedule_after(SimDuration::from_millis(100), Ev::Ping);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Pinger { sent: 0 });
//! engine.schedule_at(SimTime::ZERO, Ev::Ping);
//! engine.run_until(SimTime::from_secs(1));
//! assert_eq!(engine.model().sent, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

/// Convenience re-exports of the types almost every consumer needs.
pub mod prelude {
    pub use crate::engine::{Context, Engine, Model};
    pub use crate::queue::{EventId, EventQueue};
    pub use crate::rng::SimRng;
    pub use crate::stats::{Confidence, Histogram, OnlineStats};
    pub use crate::time::{SimDuration, SimTime};
}
