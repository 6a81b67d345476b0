//! # essat-query — periodic queries, aggregation, and routing trees
//!
//! The generic query service of the paper's §3: a user registers a query
//! `(sources, aggregation op, period P, phase φ)`; the service builds a
//! routing tree rooted at the base station; every period each leaf
//! generates a data report and every interior node merges its children's
//! reports with its own reading before forwarding one aggregated report.
//!
//! * [`model`] — [`model::Query`] and round arithmetic (`φ + k·P`).
//! * [`aggregate`] — TAG-style mergeable partial state records.
//! * [`tree`] — routing-tree construction (lowest-level parent rule),
//!   ranks (`d`, the driver of STS's pipeline and NTS's cost), and §4.3
//!   failure recovery with re-parenting.
//! * [`round`] — per-round collection state with timeout/partial
//!   aggregation support.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod model;
pub mod round;
pub mod tree;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::aggregate::{AggState, AggregateOp};
    pub use crate::model::{Query, QueryId};
    pub use crate::round::RoundAggregator;
    pub use crate::tree::RoutingTree;
}
