//! # essat-harness — regenerating the paper's figures
//!
//! Every figure of the ESSAT paper's evaluation (§5), plus the headline
//! comparison from the abstract and five figures beyond the paper, is a
//! row of [`figures::FIGURES`]: a name, the sweep [`figures::Plan`]s it
//! reads, and how it renders into [`table::FigureData`] (series of
//! `(x, mean, 90% CI)`, printable as an aligned text table or CSV) and
//! notes. [`executor::SweepExecutor`] runs the plans; the
//! `essat-figures` binary drives the whole table from the command line:
//!
//! ```text
//! essat-figures all                 # full paper scale (minutes of CPU)
//! essat-figures fig3 --scale quick  # reduced scale, seconds
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod figures;
pub mod scale;
pub mod table;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::executor::{
        ExecutorStats, JobFailure, JobProfile, SweepCell, SweepExecutor, SweepOutcome,
        SyncPolicyFactory, WorkerStats,
    };
    pub use crate::figures::{
        headline, DriftData, Fig8Data, Figure, Headline, Plan, Rendered, SelfHealingData,
        SweepData, DUTY_PROTOCOLS, FIGURES, LATENCY_PROTOCOLS, ROBUSTNESS_PRESETS,
        SCENARIO_PROTOCOLS,
    };
    pub use crate::scale::Scale;
    pub use crate::table::{FigureData, Point, Series};
}
