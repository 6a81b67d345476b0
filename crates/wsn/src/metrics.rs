//! Run metrics: everything the paper's figures are built from.

use std::collections::BTreeMap;

use essat_net::ids::NodeId;
use essat_net::mac::MacStats;
use essat_query::model::QueryId;
use essat_sim::stats::{Histogram, OnlineStats};
use essat_sim::time::{SimDuration, SimTime};

/// Per-node outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeMetrics {
    /// The node.
    pub node: NodeId,
    /// Routing-tree rank `d` at the start of the run.
    pub rank: u32,
    /// Tree level (hops from root).
    pub level: u32,
    /// Duty cycle over the measurement window (fraction, 0–1; off-time
    /// excludes transitions, which count as on).
    pub duty_cycle: f64,
    /// Energy consumed in joules over the measurement window.
    pub energy_j: f64,
}

/// One completed round at the root.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundRecord {
    /// Round number `k`.
    pub round: u64,
    /// When the root sealed the round.
    pub at: SimTime,
    /// Latency relative to the round start `φ + k·P`, in seconds.
    pub latency_s: f64,
    /// True if every expected source contributed.
    pub full: bool,
    /// Source readings folded into the aggregate.
    pub readings: u64,
}

/// Per-query outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryMetrics {
    /// The query.
    pub query: QueryId,
    /// The query's rate in hertz.
    pub rate_hz: f64,
    /// Latency samples: root completion − round start, per completed
    /// round.
    pub latency: OnlineStats,
    /// Rounds completed at the root (sealed, partial or full).
    pub rounds_completed: u64,
    /// Rounds in which every expected source contributed.
    pub rounds_full: u64,
    /// Source readings delivered / expected, accumulated over rounds.
    pub delivered_readings: u64,
    /// Expected readings over completed rounds.
    pub expected_readings: u64,
    /// Per-round trace, in completion order (drives recovery analyses).
    pub records: Vec<RoundRecord>,
}

impl QueryMetrics {
    /// Fraction of source readings that reached the root.
    pub fn delivery_ratio(&self) -> f64 {
        if self.expected_readings == 0 {
            1.0
        } else {
            self.delivered_readings as f64 / self.expected_readings as f64
        }
    }
}

/// Network-lifetime outcomes of one run (populated by scenarios with a
/// battery model and/or churn; empty under the static environment).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LifetimeStats {
    /// Every node death, in order: `(time, node)`. Battery depletions
    /// and churn/scripted failures both count; churn recoveries do not
    /// erase the record.
    pub deaths: Vec<(SimTime, NodeId)>,
    /// Time of the first tree-member death.
    pub first_death: Option<SimTime>,
    /// First time a live tree member had no path of live nodes to the
    /// root (or the root itself died) — the paper-style "network
    /// partition" lifetime mark.
    pub partition: Option<SimTime>,
    /// First time a partitioned network healed (every live member
    /// regained a live path to the root) — `None` while healthy or
    /// still partitioned. Self-healing repair and churn recovery both
    /// set it.
    pub partition_recovered_at: Option<SimTime>,
    /// Start of the *currently open* partition episode (`None` when the
    /// network is whole). Internal bookkeeping for
    /// [`LifetimeStats::time_in_partition`]; closed episodes accumulate
    /// into [`LifetimeStats::in_partition`].
    pub partitioned_since: Option<SimTime>,
    /// Total time spent partitioned over *closed* episodes (an episode
    /// still open at run end is added by
    /// [`LifetimeStats::time_in_partition`]).
    pub in_partition: SimDuration,
    /// Nodes revived by churn recoveries.
    pub recoveries: u64,
}

impl LifetimeStats {
    /// Time to first death, with `end` standing in when every node
    /// survived (a right-censored sample for lifetime curves).
    pub fn time_to_first_death(&self, end: SimTime) -> SimTime {
        self.first_death.unwrap_or(end)
    }

    /// Time to root partition, censored at `end` like
    /// [`LifetimeStats::time_to_first_death`].
    pub fn time_to_partition(&self, end: SimTime) -> SimTime {
        self.partition.unwrap_or(end)
    }

    /// Total time the network spent partitioned, counting an episode
    /// still open at `end`. A healed network reports only its actual
    /// outage — not partitioned-forever.
    pub fn time_in_partition(&self, end: SimTime) -> SimDuration {
        let open = self
            .partitioned_since
            .map(|s| end - s)
            .unwrap_or(SimDuration::ZERO);
        self.in_partition + open
    }

    /// Records the network becoming partitioned at `now` (idempotent
    /// while an episode is open).
    pub fn mark_partitioned(&mut self, now: SimTime) {
        if self.partition.is_none() {
            self.partition = Some(now);
        }
        if self.partitioned_since.is_none() {
            self.partitioned_since = Some(now);
        }
    }

    /// Records the network healing at `now`: closes the open partition
    /// episode (no-op when none is open).
    pub fn mark_recovered(&mut self, now: SimTime) {
        if let Some(since) = self.partitioned_since.take() {
            self.in_partition += now - since;
            if self.partition_recovered_at.is_none() {
                self.partition_recovered_at = Some(now);
            }
        }
    }
}

/// Complete result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Seed the run was executed with.
    pub seed: u64,
    /// Measurement window start (end of the setup slot).
    pub measured_from: SimTime,
    /// Run end.
    pub measured_until: SimTime,
    /// Per-node metrics for routing-tree members.
    pub nodes: Vec<NodeMetrics>,
    /// Per-query metrics.
    pub queries: Vec<QueryMetrics>,
    /// Histogram of completed sleep-interval lengths in seconds, in
    /// 0.5 ms bins up to 1 s (Figure 8 re-bins it into the paper's
    /// 25 ms bins up to 200 ms). It stores only its filled bins, a few
    /// hundred per run, so a retained result stays small.
    pub sleep_intervals: Histogram,
    /// DTS phase updates piggybacked on data reports.
    pub phase_piggybacks: u64,
    /// Explicit phase-update request packets sent.
    pub phase_requests: u64,
    /// Data reports released by all nodes.
    pub reports_sent: u64,
    /// MAC-level statistics summed over nodes.
    pub mac: MacTotals,
    /// Network-lifetime outcomes (deaths, partition, recoveries).
    pub lifetime: LifetimeStats,
    /// Channel statistics.
    pub channel_transmissions: u64,
    /// (transmission, receiver) collision pairs.
    pub channel_collisions: u64,
    /// Events processed by the engine (for performance reporting).
    pub events_processed: u64,
    /// High-water mark of the engine's pending-event set (for
    /// performance reporting — queue pressure at the paper scale).
    pub peak_queue_depth: u64,
    /// Child reports still missing when collection timeouts fired,
    /// summed over all parents and rounds — the desync/fault stress
    /// indicator behind [`RunResult::missed_round_rate`].
    pub missed_reports: u64,
    /// Receiver-side schedule resynchronisations: piggybacked phase
    /// updates a parent actually applied (DTS under drift/loss).
    pub resync_events: u64,
    /// Total guard-time wake lead scheduled, in nanoseconds: the extra
    /// awake time the [`crate::config::GuardTime`] knob buys — its
    /// energy overhead proxy.
    pub guard_wake_ns: u64,
    /// Successful self-healing tree operations (re-parents away from a
    /// failed parent plus orphan adoptions). Zero on fault-free runs.
    pub repairs: u64,
    /// Total detection-to-repair latency in nanoseconds, summed over
    /// [`RunResult::repairs`]: how long nodes ran against a failed
    /// parent before the backoff repair re-attached them.
    pub reparent_latency_ns: u64,
    /// Total node·time spent alive but outside the tree (orphaned), in
    /// nanoseconds, summed over nodes — coverage lost to partitions
    /// that adoption sweeps win back.
    pub orphan_node_ns: u64,
    /// Collection-layer report re-dispatches granted by the deadline-
    /// aware retransmission budget (after a MAC retry budget was
    /// exhausted but while the round's deadline still had slack).
    pub redispatches: u64,
}

/// Summed MAC counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacTotals {
    /// Frames handed to MACs.
    pub enqueued: u64,
    /// Data transmissions (with retries).
    pub data_tx: u64,
    /// Unicast completions.
    pub delivered: u64,
    /// Retry-limit drops.
    pub failed: u64,
    /// Retransmissions.
    pub retries: u64,
}

impl MacTotals {
    /// Adds one MAC's counters.
    pub fn add(&mut self, s: &MacStats) {
        self.enqueued += s.enqueued;
        self.data_tx += s.data_tx;
        self.delivered += s.delivered;
        self.failed += s.failed;
        self.retries += s.retries;
    }
}

impl RunResult {
    /// Average duty cycle over member nodes (the paper's headline energy
    /// metric), as a percentage.
    pub fn avg_duty_cycle_pct(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        100.0 * self.nodes.iter().map(|n| n.duty_cycle).sum::<f64>() / self.nodes.len() as f64
    }

    /// Average query latency in seconds over all queries (weighted by
    /// rounds).
    pub fn avg_latency_s(&self) -> f64 {
        let mut all = OnlineStats::new();
        for q in &self.queries {
            all.merge(&q.latency);
        }
        all.mean()
    }

    /// Mean duty cycle per rank, for the paper's Figure 5.
    pub fn duty_by_rank(&self) -> BTreeMap<u32, OnlineStats> {
        let mut map: BTreeMap<u32, OnlineStats> = BTreeMap::new();
        for n in &self.nodes {
            map.entry(n.rank).or_default().add(n.duty_cycle * 100.0);
        }
        map
    }

    /// Phase-update overhead in bits per data report, assuming a 32-bit
    /// phase field (the paper reports < 1 bit/report).
    pub fn phase_overhead_bits_per_report(&self) -> f64 {
        if self.reports_sent == 0 {
            0.0
        } else {
            32.0 * self.phase_piggybacks as f64 / self.reports_sent as f64
        }
    }

    /// Overall delivery ratio across queries.
    pub fn delivery_ratio(&self) -> f64 {
        let (d, e) = self.queries.iter().fold((0u64, 0u64), |(d, e), q| {
            (d + q.delivered_readings, e + q.expected_readings)
        });
        if e == 0 {
            1.0
        } else {
            d as f64 / e as f64
        }
    }

    /// The measurement window length.
    pub fn window(&self) -> SimDuration {
        self.measured_until - self.measured_from
    }

    /// Fraction of completed rounds that sealed *partial* at the root —
    /// at least one expected reading missed its round. Clock desync
    /// pushes this up; the guard knob buys it back down.
    pub fn missed_round_rate(&self) -> f64 {
        let (done, full) = self.queries.iter().fold((0u64, 0u64), |(d, f), q| {
            (d + q.rounds_completed, f + q.rounds_full)
        });
        if done == 0 {
            0.0
        } else {
            1.0 - full as f64 / done as f64
        }
    }

    /// Guard-time energy overhead in seconds of extra awake time (see
    /// [`RunResult::guard_wake_ns`]).
    pub fn guard_overhead_s(&self) -> f64 {
        self.guard_wake_ns as f64 * 1e-9
    }

    /// Total time the network spent partitioned (see
    /// [`LifetimeStats::time_in_partition`]), in seconds.
    pub fn time_in_partition_s(&self) -> f64 {
        self.lifetime
            .time_in_partition(self.measured_until)
            .as_secs_f64()
    }

    /// Mean detection-to-repair latency in seconds (0 when no repair
    /// ever ran).
    pub fn mean_reparent_latency_s(&self) -> f64 {
        if self.repairs == 0 {
            0.0
        } else {
            self.reparent_latency_ns as f64 * 1e-9 / self.repairs as f64
        }
    }

    /// Total orphaned node·time in node-seconds (see
    /// [`RunResult::orphan_node_ns`]).
    pub fn orphan_node_seconds(&self) -> f64 {
        self.orphan_node_ns as f64 * 1e-9
    }

    /// The digest schema version recorded in golden files
    /// (`digest-version:` header in `tests/golden/quick_digests.txt`).
    ///
    /// Bump this when an intentional change moves the digest for every
    /// run — e.g. version 2 retired stale-event dispatches, shrinking
    /// `events_processed` and `peak_queue_depth` (both hashed) while
    /// leaving every simulation-level metric untouched; version 3 grew
    /// the preimage with the self-healing metrics (partition recovery,
    /// repairs, re-parent latency, orphan time, re-dispatches — all
    /// zero/absent on fault-free runs, whose simulation-level metrics
    /// are byte-identical to version 2). Keep the old version's golden
    /// file committed next to the new one so the history of intentional
    /// migrations stays auditable.
    pub const DIGEST_VERSION: u32 = 3;

    /// A 64-bit FNV-1a digest over every metric of the run, including
    /// per-round traces, per-node duty/energy bit patterns, the
    /// sleep-interval histogram, and the engine's event count.
    ///
    /// Two runs digest equal iff they produced byte-identical metrics,
    /// so committed golden digests pin the simulator's observable
    /// behaviour across refactors (see `tests/golden_digests.rs`).
    pub fn digest(&self) -> String {
        let mut h = Fnv1a::new();
        h.u64(self.seed);
        h.u64(self.measured_from.as_nanos());
        h.u64(self.measured_until.as_nanos());
        h.u64(self.nodes.len() as u64);
        for n in &self.nodes {
            h.u64(n.node.as_u32() as u64);
            h.u64(n.rank as u64);
            h.u64(n.level as u64);
            h.u64(n.duty_cycle.to_bits());
            h.u64(n.energy_j.to_bits());
        }
        h.u64(self.queries.len() as u64);
        for q in &self.queries {
            h.u64(q.query.as_u32() as u64);
            h.u64(q.rate_hz.to_bits());
            h.u64(q.latency.count());
            if !q.latency.is_empty() {
                h.u64(q.latency.mean().to_bits());
                h.u64(q.latency.min().to_bits());
                h.u64(q.latency.max().to_bits());
            }
            h.u64(q.rounds_completed);
            h.u64(q.rounds_full);
            h.u64(q.delivered_readings);
            h.u64(q.expected_readings);
            h.u64(q.records.len() as u64);
            for r in &q.records {
                h.u64(r.round);
                h.u64(r.at.as_nanos());
                h.u64(r.latency_s.to_bits());
                h.u64(r.full as u64);
                h.u64(r.readings);
            }
        }
        h.u64(self.sleep_intervals.total());
        h.u64(self.sleep_intervals.overflow());
        for (_, count) in self.sleep_intervals.iter() {
            h.u64(count);
        }
        h.u64(self.phase_piggybacks);
        h.u64(self.phase_requests);
        h.u64(self.reports_sent);
        h.u64(self.mac.enqueued);
        h.u64(self.mac.data_tx);
        h.u64(self.mac.delivered);
        h.u64(self.mac.failed);
        h.u64(self.mac.retries);
        h.u64(self.lifetime.deaths.len() as u64);
        for &(at, node) in &self.lifetime.deaths {
            h.u64(at.as_nanos());
            h.u64(node.as_u32() as u64);
        }
        h.u64(
            self.lifetime
                .first_death
                .map(|t| t.as_nanos())
                .unwrap_or(u64::MAX),
        );
        h.u64(
            self.lifetime
                .partition
                .map(|t| t.as_nanos())
                .unwrap_or(u64::MAX),
        );
        h.u64(
            self.lifetime
                .partition_recovered_at
                .map(|t| t.as_nanos())
                .unwrap_or(u64::MAX),
        );
        h.u64(
            self.lifetime
                .time_in_partition(self.measured_until)
                .as_nanos(),
        );
        h.u64(self.lifetime.recoveries);
        h.u64(self.channel_transmissions);
        h.u64(self.channel_collisions);
        h.u64(self.events_processed);
        h.u64(self.peak_queue_depth);
        h.u64(self.missed_reports);
        h.u64(self.resync_events);
        h.u64(self.guard_wake_ns);
        h.u64(self.repairs);
        h.u64(self.reparent_latency_ns);
        h.u64(self.orphan_node_ns);
        h.u64(self.redispatches);
        format!("{:016x}", h.finish())
    }
}

/// Minimal streaming FNV-1a (64-bit) over little-endian words.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(rank: u32, duty: f64) -> NodeMetrics {
        NodeMetrics {
            node: NodeId::new(rank),
            rank,
            level: 0,
            duty_cycle: duty,
            energy_j: 0.0,
        }
    }

    fn result(nodes: Vec<NodeMetrics>, queries: Vec<QueryMetrics>) -> RunResult {
        RunResult {
            seed: 0,
            measured_from: SimTime::ZERO,
            measured_until: SimTime::from_secs(10),
            nodes,
            queries,
            sleep_intervals: Histogram::new(0.025, 8),
            phase_piggybacks: 0,
            phase_requests: 0,
            reports_sent: 0,
            mac: MacTotals::default(),
            lifetime: LifetimeStats::default(),
            channel_transmissions: 0,
            channel_collisions: 0,
            events_processed: 0,
            peak_queue_depth: 0,
            missed_reports: 0,
            resync_events: 0,
            guard_wake_ns: 0,
            repairs: 0,
            reparent_latency_ns: 0,
            orphan_node_ns: 0,
            redispatches: 0,
        }
    }

    #[test]
    fn avg_duty_cycle() {
        let r = result(vec![node(0, 0.1), node(1, 0.3)], vec![]);
        assert!((r.avg_duty_cycle_pct() - 20.0).abs() < 1e-9);
        assert_eq!(result(vec![], vec![]).avg_duty_cycle_pct(), 0.0);
    }

    #[test]
    fn duty_by_rank_groups() {
        let r = result(vec![node(0, 0.1), node(0, 0.2), node(2, 0.5)], vec![]);
        let by_rank = r.duty_by_rank();
        assert_eq!(by_rank.len(), 2);
        assert!((by_rank[&0].mean() - 15.0).abs() < 1e-9);
        assert!((by_rank[&2].mean() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn latency_merges_queries() {
        let mut q1 = QueryMetrics {
            query: QueryId::new(0),
            rate_hz: 1.0,
            latency: OnlineStats::new(),
            rounds_completed: 0,
            rounds_full: 0,
            delivered_readings: 8,
            expected_readings: 10,
            records: Vec::new(),
        };
        q1.latency.add(0.1);
        q1.latency.add(0.3);
        let mut q2 = q1.clone();
        q2.latency = OnlineStats::new();
        q2.latency.add(0.2);
        let r = result(vec![], vec![q1, q2]);
        assert!((r.avg_latency_s() - 0.2).abs() < 1e-9);
        assert!((r.delivery_ratio() - 16.0 / 20.0).abs() < 1e-9);
    }

    #[test]
    fn phase_overhead() {
        let mut r = result(vec![], vec![]);
        r.phase_piggybacks = 1;
        r.reports_sent = 64;
        assert!((r.phase_overhead_bits_per_report() - 0.5).abs() < 1e-9);
        r.reports_sent = 0;
        assert_eq!(r.phase_overhead_bits_per_report(), 0.0);
    }

    #[test]
    fn lifetime_censoring() {
        let mut lt = LifetimeStats::default();
        let end = SimTime::from_secs(50);
        assert_eq!(lt.time_to_first_death(end), end, "survival censors at end");
        assert_eq!(lt.time_to_partition(end), end);
        lt.deaths.push((SimTime::from_secs(12), NodeId::new(3)));
        lt.first_death = Some(SimTime::from_secs(12));
        lt.partition = Some(SimTime::from_secs(30));
        assert_eq!(lt.time_to_first_death(end), SimTime::from_secs(12));
        assert_eq!(lt.time_to_partition(end), SimTime::from_secs(30));
    }

    #[test]
    fn partition_episodes_accumulate_and_heal() {
        let mut lt = LifetimeStats::default();
        let end = SimTime::from_secs(100);
        assert_eq!(lt.time_in_partition(end), SimDuration::ZERO);
        // Episode 1: 10 s → 25 s.
        lt.mark_partitioned(SimTime::from_secs(10));
        lt.mark_partitioned(SimTime::from_secs(12)); // idempotent while open
        assert_eq!(lt.partition, Some(SimTime::from_secs(10)));
        lt.mark_recovered(SimTime::from_secs(25));
        assert_eq!(lt.partition_recovered_at, Some(SimTime::from_secs(25)));
        assert_eq!(lt.time_in_partition(end), SimDuration::from_secs(15));
        // Recovery without an open episode is a no-op.
        lt.mark_recovered(SimTime::from_secs(30));
        assert_eq!(lt.time_in_partition(end), SimDuration::from_secs(15));
        // Episode 2 stays open to the end: censored into the total, but
        // `partition` still records the *first* episode and
        // `partition_recovered_at` the *first* heal.
        lt.mark_partitioned(SimTime::from_secs(80));
        assert_eq!(lt.partition, Some(SimTime::from_secs(10)));
        assert_eq!(lt.partition_recovered_at, Some(SimTime::from_secs(25)));
        assert_eq!(lt.time_in_partition(end), SimDuration::from_secs(35));
    }

    #[test]
    fn self_healing_summaries() {
        let mut r = result(vec![], vec![]);
        assert_eq!(r.mean_reparent_latency_s(), 0.0);
        r.repairs = 4;
        r.reparent_latency_ns = 2_000_000_000;
        r.orphan_node_ns = 3_500_000_000;
        assert!((r.mean_reparent_latency_s() - 0.5).abs() < 1e-12);
        assert!((r.orphan_node_seconds() - 3.5).abs() < 1e-12);
        r.lifetime.mark_partitioned(SimTime::from_secs(2));
        r.lifetime.mark_recovered(SimTime::from_secs(5));
        assert!((r.time_in_partition_s() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn missed_round_rate_over_queries() {
        let q = |completed, full| QueryMetrics {
            query: QueryId::new(0),
            rate_hz: 1.0,
            latency: OnlineStats::new(),
            rounds_completed: completed,
            rounds_full: full,
            delivered_readings: 0,
            expected_readings: 0,
            records: Vec::new(),
        };
        let r = result(vec![], vec![q(8, 6), q(2, 2)]);
        assert!((r.missed_round_rate() - 0.2).abs() < 1e-12);
        assert_eq!(result(vec![], vec![]).missed_round_rate(), 0.0);
        let mut r = result(vec![], vec![]);
        r.guard_wake_ns = 2_500_000_000;
        assert!((r.guard_overhead_s() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn delivery_ratio_empty_is_one() {
        let q = QueryMetrics {
            query: QueryId::new(0),
            rate_hz: 1.0,
            latency: OnlineStats::new(),
            rounds_completed: 0,
            rounds_full: 0,
            delivered_readings: 0,
            expected_readings: 0,
            records: Vec::new(),
        };
        assert_eq!(q.delivery_ratio(), 1.0);
    }
}
