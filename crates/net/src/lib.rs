//! # essat-net — the wireless substrate
//!
//! Everything below the power-management layer in the ESSAT reproduction:
//!
//! * [`ids`] / [`geometry`] / [`topology`] — node identity, plane
//!   geometry, and the unit-disk connectivity graph (the paper's 80 nodes
//!   in 500 × 500 m² with a 125 m range).
//! * [`radio`] — the four-state radio power model with transition times,
//!   break-even-time computation (Benini et al.), duty-cycle and energy
//!   accounting, and sleep-interval capture.
//! * [`frame`] — link-layer frames, generic over the upper-layer payload.
//! * [`channel`] — the shared medium: unit-disk propagation, carrier
//!   sense, overlap collisions, half-duplex, and loss injection.
//! * [`mac`] — CSMA/CA (802.11-DCF-style) with DIFS, binary-exponential
//!   backoff, SIFS-delayed ACKs, retries, and duplicate suppression,
//!   implemented as a pure action-emitting state machine.
//!
//! The channel and MAC are deliberately engine-free: the `essat-wsn`
//! crate wires their actions to the discrete-event engine, which keeps
//! every state machine unit-testable in isolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod frame;
pub mod geometry;
pub mod ids;
pub mod mac;
pub mod radio;
pub mod topology;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::channel::{Channel, ChannelStats, TxEndBuf, TxId, TxStart};
    pub use crate::frame::{airtime, Dest, Frame, FrameId, FrameKind};
    pub use crate::geometry::{Area, Position};
    pub use crate::ids::NodeId;
    pub use crate::mac::{Mac, MacAction, MacParams, MacStats, MacTimer};
    pub use crate::radio::{Radio, RadioParams, RadioState, SleepInterval, TransitionOutcome};
    pub use crate::topology::Topology;
}
