//! # essat-baselines — the paper's comparison protocols
//!
//! The three power-management baselines the ESSAT paper evaluates
//! against (§5):
//!
//! * [`sync`] — SYNC: a globally synchronised fixed 20%-duty schedule
//!   (S-MAC-style), period 0.2 s.
//! * [`psm`] — IEEE 802.11 PSM with traffic-advertisement extensions:
//!   beacon 0.2 s, ATIM window 25 ms, advertisement window 100 ms.
//! * [`span`] — SPAN: an always-on coordinator backbone. Includes both
//!   the paper's evaluation variant (tree non-leaves as backbone, leaves
//!   running NTS-SS) and a full implementation of SPAN's distributed
//!   election rule for ablations.
//! * [`tag`] — TinyDB/TAG level-slot scheduling behind the ESSAT
//!   `TrafficShaper` interface, for the §2 related-work comparison.
//!
//! Like the core protocols, these are engine-free state machines wired
//! into the simulator by `essat-wsn`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod policy;
pub mod psm;
pub mod span;
pub mod sync;
pub mod tag;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::policy::{AlwaysOnPolicy, PsmPolicy, SyncPolicy};
    pub use crate::psm::{PsmBeaconState, PsmSchedule, ATIM_BYTES};
    pub use crate::span::{SpanBackbone, SpanElection};
    pub use crate::sync::SyncSchedule;
    pub use crate::tag::Tag;
}
