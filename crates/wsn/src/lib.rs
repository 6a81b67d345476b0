//! # essat-wsn — the integrated sensor-network simulator
//!
//! Composes the substrates into runnable experiments:
//!
//! * [`payload`] — upper-layer packet contents (reports with DTS phase
//!   piggybacks, phase-update requests, ATIMs, query floods).
//! * [`config`] — the paper's §5 experimental setup as data
//!   ([`config::ExperimentConfig::paper`]) plus a reduced
//!   [`config::ExperimentConfig::quick`] scale for tests and benches.
//! * [`protocol`] — the protocol catalogue: naming (display/parse) and
//!   the [`protocol::Protocol::build_policy`] factory, the one place a
//!   protocol choice becomes behaviour.
//! * [`sim`] — the [`sim::World`]: a protocol-agnostic executor driving
//!   per-node stacks (radio + CSMA/CA MAC + pluggable
//!   [`essat_core::policy::PowerPolicy`] + query agent) over the
//!   deterministic engine.
//! * [`metrics`] — duty cycles (per node / per rank), query latencies,
//!   sleep-interval histograms, phase-update overhead.
//! * [`runner`] — one-call runs, with or without an observability probe.
//!
//! ## Quickstart
//!
//! ```
//! use essat_wsn::config::{ExperimentConfig, Protocol, WorkloadSpec};
//! use essat_wsn::runner;
//!
//! // A small DTS-SS run (the paper-scale setup is
//! // `ExperimentConfig::paper`).
//! let mut cfg = ExperimentConfig::quick(Protocol::DtsSs, WorkloadSpec::paper(1.0), 7);
//! cfg.duration = essat_sim::time::SimDuration::from_secs(15);
//! let result = runner::run_one(&cfg);
//! assert!(result.avg_duty_cycle_pct() < 100.0);
//! assert!(result.queries.iter().any(|q| q.rounds_completed > 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod metrics;
pub mod payload;
pub mod protocol;
pub mod runner;
pub mod sim;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::config::{ExperimentConfig, Protocol, SetupMode, WorkloadSpec};
    pub use crate::metrics::{MacTotals, NodeMetrics, QueryMetrics, RunResult};
    pub use crate::payload::Payload;
    pub use crate::protocol::{PolicyEnv, PolicyFactory};
    pub use crate::runner::{run_one, run_probed};
    pub use crate::sim::{Ev, World};
}
