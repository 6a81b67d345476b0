//! # essat-core — the paper's contribution
//!
//! ESSAT (Efficient Sleep Scheduling based on Application Timing) as
//! defined in Chipara, Lu & Roman: a power-management layer that sits
//! between a CSMA/CA MAC and a tree-based query service and exploits the
//! application's timing semantics (`period P`, `phase φ`) to switch node
//! radios off *safely* — with no energy and no delay penalty.
//!
//! An ESSAT protocol is the combination of:
//!
//! * [`safe_sleep`] — the local Safe Sleep scheduler (`checkState` of the
//!   paper's Figure 1): sleeps exactly when the gap until the earliest
//!   expected send/reception exceeds the radio's break-even time, waking
//!   `t_OFF→ON` early.
//! * one [`shaper::TrafficShaper`]:
//!   [`nts::Nts`] (greedy, no shaping), [`sts::Sts`] (static rank-slot
//!   pipeline, `l = D/M`), or [`dts::Dts`] (Release-Guard-style
//!   self-tuning phases with piggybacked updates) — yielding the paper's
//!   NTS-SS, STS-SS and DTS-SS protocols.
//! * [`maintenance`] — §4.3 robustness: loss detection, DTS phase
//!   resynchronisation, and failure detection for parents/children.
//!
//! The [`policy`] module packages the combination behind the pluggable
//! [`policy::PowerPolicy`] trait — the seam between the simulator's
//! protocol-agnostic executor and any power-management protocol
//! (ESSAT variants here, baselines in `essat-baselines`, custom
//! policies out of tree).
//!
//! The crate is engine-free: every type is a deterministic state machine
//! driven by the `essat-wsn` node stack and unit-testable in isolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dts;
pub mod maintenance;
pub mod nts;
pub mod policy;
pub mod safe_sleep;
pub mod shaper;
pub mod sts;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::dts::Dts;
    pub use crate::maintenance::{FailureDetector, LossDetector, LossObservation};
    pub use crate::nts::Nts;
    pub use crate::policy::{
        EssatPolicy, NodeView, PolicyAction, PolicyTimer, PowerPolicy, SleepTrigger,
    };
    pub use crate::safe_sleep::{SafeSleep, SleepDecision};
    pub use crate::shaper::{Expectations, Release, TrafficShaper, TreeInfo};
    pub use crate::sts::{Sts, StsConfig};
}
