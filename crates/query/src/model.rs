//! The query model of §3 of the paper.
//!
//! A query is characterised by a set of sources, an aggregation function,
//! a period `P` at which sources generate data reports, and a starting
//! time (phase) `φ`. The `k`-th round of a query begins at `φ + k·P`;
//! every leaf generates a report then, and every interior node aggregates
//! its own reading with its children's reports before forwarding.
//!
//! As in the paper's §5 evaluation, every routing-tree member is a
//! source of every query, so a query carries no source set.

use std::fmt;

use essat_sim::time::{SimDuration, SimTime};

use crate::aggregate::AggregateOp;

/// Identifier of a registered query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(u32);

impl QueryId {
    /// Creates a query id.
    pub const fn new(v: u32) -> Self {
        QueryId(v)
    }

    /// Raw value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Dense index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A registered periodic aggregation query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// Identifier.
    pub id: QueryId,
    /// Report generation period `P`.
    pub period: SimDuration,
    /// Start time `φ` of round 0.
    pub phase: SimTime,
    /// End-to-end deadline `D` (the paper's STS sets `D = P`).
    pub deadline: SimDuration,
    /// In-network aggregation function.
    pub op: AggregateOp,
}

impl Query {
    /// Creates a query with deadline equal to its period (the paper's
    /// evaluation configuration).
    pub fn periodic(id: QueryId, period: SimDuration, phase: SimTime, op: AggregateOp) -> Self {
        assert!(!period.is_zero(), "query period must be positive");
        Query {
            id,
            period,
            phase,
            deadline: period,
            op,
        }
    }

    /// Builder-style override of the deadline.
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        assert!(!deadline.is_zero(), "deadline must be positive");
        self.deadline = deadline;
        self
    }

    /// The start of round `k`: `φ + k·P`.
    pub fn round_start(&self, k: u64) -> SimTime {
        self.phase + self.period * k
    }

    /// The round in progress at time `t` (`None` before the query
    /// starts).
    pub fn round_at(&self, t: SimTime) -> Option<u64> {
        let since = t.checked_duration_since(self.phase)?;
        Some(since.as_nanos() / self.period.as_nanos())
    }

    /// Number of complete rounds in a run that lasts until `end`.
    pub fn rounds_until(&self, end: SimTime) -> u64 {
        match end.checked_duration_since(self.phase) {
            None => 0,
            Some(d) => d.as_nanos() / self.period.as_nanos(),
        }
    }

    /// The query rate in hertz.
    pub fn rate_hz(&self) -> f64 {
        1.0 / self.period.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> Query {
        Query::periodic(
            QueryId::new(1),
            SimDuration::from_millis(200),
            SimTime::from_secs(3),
            AggregateOp::Sum,
        )
    }

    #[test]
    fn round_start_arithmetic() {
        let q = q();
        assert_eq!(q.round_start(0), SimTime::from_secs(3));
        assert_eq!(q.round_start(5), SimTime::from_secs(4));
        assert_eq!(q.rate_hz(), 5.0);
    }

    #[test]
    fn round_at_boundaries() {
        let q = q();
        assert_eq!(q.round_at(SimTime::from_secs(2)), None);
        assert_eq!(q.round_at(SimTime::from_secs(3)), Some(0));
        assert_eq!(
            q.round_at(SimTime::from_secs(3) + SimDuration::from_millis(199)),
            Some(0)
        );
        assert_eq!(
            q.round_at(SimTime::from_secs(3) + SimDuration::from_millis(200)),
            Some(1)
        );
    }

    #[test]
    fn rounds_until_run_end() {
        let q = q();
        assert_eq!(q.rounds_until(SimTime::from_secs(3)), 0);
        assert_eq!(q.rounds_until(SimTime::from_secs(4)), 5);
        assert_eq!(q.rounds_until(SimTime::from_secs(2)), 0);
    }

    #[test]
    fn deadline_defaults_to_period() {
        let q = q();
        assert_eq!(q.deadline, q.period);
        let q2 = q.with_deadline(SimDuration::from_millis(500));
        assert_eq!(q2.deadline, SimDuration::from_millis(500));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = Query::periodic(
            QueryId::new(0),
            SimDuration::ZERO,
            SimTime::ZERO,
            AggregateOp::Sum,
        );
    }
}
