//! Experiment configuration, mirroring the paper's §5 setup.
//!
//! [`ExperimentConfig`] holds only what some run varies. The parts of
//! §5 no run varies are constants in the module that reads them: the
//! 125 m range and 300 m tree radius (`essat_net::topology`), the
//! 802.11 MAC at 1 Mbps (`MacParams::paper`), the setup slot
//! ([`SETUP_SLOT`]), AVG aggregation, DTS's timeout margin
//! (`essat_core::dts::TIMEOUT_MARGIN`) and the self-healing tuning
//! (`sim/repair.rs`).

use essat_core::sts::StsConfig;
use essat_net::radio::RadioParams;
use essat_net::topology::{PAPER_NODE_COUNT, PAPER_RANGE_M};
use essat_scenario::spec::Scenario;
use essat_sim::time::{SimDuration, SimTime};

pub use crate::protocol::Protocol;

/// Setup slot length: all radios stay on until then, and metrics start
/// after it (§4.1).
pub const SETUP_SLOT: SimDuration = SimDuration::from_millis(500);

/// Specification of the periodic query workload.
///
/// The paper simulates three query classes with rate ratio
/// `Q1 : Q2 : Q3 = 6 : 3 : 2` (so Q2 runs at half and Q3 at a third of
/// the base rate), a configurable number of queries per class, and
/// random start times in `[0, 10] s`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Q1's rate in hertz ("base rate").
    pub base_rate_hz: f64,
    /// Queries per class (the paper varies 1–10).
    pub queries_per_class: u32,
    /// Start times are drawn uniformly from `[0, phase_window]`.
    pub phase_window: SimDuration,
    /// Deadline override: `None` keeps the paper's `D = P`.
    pub deadline: Option<SimDuration>,
}

impl WorkloadSpec {
    /// The paper's workload at the given base rate with one query per
    /// class.
    pub fn paper(base_rate_hz: f64) -> Self {
        WorkloadSpec {
            base_rate_hz,
            queries_per_class: 1,
            phase_window: SimDuration::from_secs(10),
            deadline: None,
        }
    }

    /// Builder-style override of the queries-per-class count.
    pub fn with_queries_per_class(mut self, n: u32) -> Self {
        self.queries_per_class = n;
        self
    }

    /// Builder-style deadline override (used by the Figure 2 sweep).
    pub fn with_deadline(mut self, d: SimDuration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// The class rates in hertz, ratio 6:3:2.
    pub fn class_rates(&self) -> [f64; 3] {
        [
            self.base_rate_hz,
            self.base_rate_hz * 3.0 / 6.0,
            self.base_rate_hz * 2.0 / 6.0,
        ]
    }

    /// Total number of queries.
    pub fn query_count(&self) -> u32 {
        self.queries_per_class * 3
    }
}

/// The adaptive guard-time knob: extra wake lead and collection-
/// deadline slack protocols spend to tolerate clock desync.
///
/// The guard in effect at schedule time `t` is
/// `base + t · growth_ppm · 10⁻⁶` — a constant floor plus a component
/// that grows with elapsed time, matching how unsynchronised clock
/// error accumulates. Nodes wake `guard` earlier than their scheduled
/// commitments (energy cost, tracked in
/// [`crate::metrics::RunResult::guard_wake_ns`]) and parents hold
/// collection timeouts open `guard` longer (latency cost). The default
/// is zero, which leaves every schedule untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardTime {
    /// Constant guard floor.
    pub base: SimDuration,
    /// Guard growth in parts-per-million of elapsed time (e.g. 100
    /// ppm grows the guard by 100 µs per second of run time).
    pub growth_ppm: u32,
}

impl GuardTime {
    /// No guard at all (the default).
    pub const ZERO: GuardTime = GuardTime {
        base: SimDuration::ZERO,
        growth_ppm: 0,
    };

    /// The guard in effect for a commitment scheduled at `t`.
    pub fn at(&self, t: SimTime) -> SimDuration {
        self.base + SimDuration::from_nanos(t.as_nanos() / 1_000_000 * self.growth_ppm as u64)
    }

    /// True when the guard never changes any schedule.
    pub fn is_zero(&self) -> bool {
        self.base.is_zero() && self.growth_ppm == 0
    }
}

/// The self-healing layer's switch: link-quality estimation, parent-
/// failure detection backoff, and the deadline-aware retransmission
/// budget, tuned by constants in `sim/repair.rs`.
///
/// The layer is chosen so a fault-free run is *bit-identical* with
/// repair enabled or disabled: link-quality EWMA updates are pure
/// arithmetic on state nothing reads until a failure is detected, the
/// repair timer only arms after consecutive delivery failures, and the
/// retransmission budget only engages once a MAC retry budget has
/// already been exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairConfig {
    /// Master switch. Disabling reverts to the pre-self-healing
    /// behaviour (synchronous §4.3 repair at detection, no collection-
    /// layer retransmissions): the legacy arm of the `self_healing`
    /// figure and the `robustness` figure's setting.
    pub enabled: bool,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig { enabled: true }
    }
}

impl RepairConfig {
    /// Repair disabled entirely (the legacy maintenance path).
    pub fn disabled() -> Self {
        RepairConfig { enabled: false }
    }
}

/// How queries reach the nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetupMode {
    /// Queries are pre-registered at every node before the run (the
    /// paper sets up the routing tree "before the start of the
    /// experiments"; dissemination cost excluded from metrics).
    Idealized,
    /// The root floods a setup request per query during a setup slot in
    /// which all radios stay on (§4.1's setup-slot mechanism).
    Flooded,
}

/// Full description of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Number of nodes.
    pub nodes: u32,
    /// Deployment area side length in metres (square area).
    pub area_side: f64,
    /// Interference (carrier-sense) range in metres; `None` keeps it
    /// equal to the communication range (one-range model).
    pub interference_range: Option<f64>,
    /// The protocol under test.
    pub protocol: Protocol,
    /// The query workload.
    pub workload: WorkloadSpec,
    /// Run length.
    pub duration: SimDuration,
    /// Radio model.
    pub radio: RadioParams,
    /// Query dissemination mode.
    pub setup_mode: SetupMode,
    /// Random per-(frame, receiver) loss probability (§4.3 experiments).
    pub drop_probability: f64,
    /// Scripted node failures: `(time, node_index)`.
    pub node_failures: Vec<(SimTime, u32)>,
    /// Dynamic environment: bursty links, batteries, churn, traffic
    /// phases — a spec compiled at run start or a recorded trace
    /// replayed verbatim. `None` keeps the paper's static environment.
    pub scenario: Option<Scenario>,
    /// STS tuning (reception granularity ablation).
    pub sts: StsConfig,
    /// Adaptive guard time against clock desync (zero by default).
    pub clock_guard: GuardTime,
    /// Self-healing layer switch (link-quality EWMA, repair backoff,
    /// retransmission budget). Enabled by default; fault-free runs are
    /// bit-identical either way.
    pub repair: RepairConfig,
    /// Master seed; every run derives all randomness from it.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's §5 setup: 80 nodes in 500 × 500 m², 125 m range,
    /// 300 m tree radius, 802.11b at 1 Mbps, MICA2 radio, 200 s runs.
    pub fn paper(protocol: Protocol, workload: WorkloadSpec, seed: u64) -> Self {
        ExperimentConfig {
            nodes: PAPER_NODE_COUNT,
            area_side: 500.0,
            interference_range: None,
            protocol,
            workload,
            duration: SimDuration::from_secs(200),
            radio: RadioParams::mica2(),
            setup_mode: SetupMode::Idealized,
            drop_probability: 0.0,
            node_failures: Vec::new(),
            scenario: None,
            sts: StsConfig::default(),
            clock_guard: GuardTime::ZERO,
            repair: RepairConfig::default(),
            seed,
        }
    }

    /// A reduced-scale configuration for fast tests and Criterion
    /// benches: 40 nodes in 350 × 350 m², 50 s runs.
    pub fn quick(protocol: Protocol, workload: WorkloadSpec, seed: u64) -> Self {
        ExperimentConfig {
            nodes: 40,
            area_side: 350.0,
            duration: SimDuration::from_secs(50),
            ..ExperimentConfig::paper(protocol, workload, seed)
        }
    }

    /// Builder-style radio override.
    pub fn with_radio(mut self, radio: RadioParams) -> Self {
        self.radio = radio;
        self
    }

    /// Builder-style loss injection.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.drop_probability = p;
        self
    }

    /// Builder-style scripted failure.
    pub fn with_node_failure(mut self, at: SimTime, node: u32) -> Self {
        self.node_failures.push((at, node));
        self
    }

    /// Builder-style scenario attachment.
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Builder-style guard-time knob (see [`GuardTime`]).
    pub fn with_clock_guard(mut self, base: SimDuration, growth_ppm: u32) -> Self {
        self.clock_guard = GuardTime { base, growth_ppm };
        self
    }

    /// Builder-style repair-layer override (see [`RepairConfig`]).
    pub fn with_repair(mut self, repair: RepairConfig) -> Self {
        self.repair = repair;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical parameters.
    pub fn validate(&self) {
        assert!(self.nodes > 0, "need at least one node");
        assert!(self.area_side > 0.0);
        if let Some(ir) = self.interference_range {
            assert!(ir >= PAPER_RANGE_M, "interference range below comm range");
        }
        assert!(!self.duration.is_zero(), "duration must be positive");
        assert!(self.workload.base_rate_hz > 0.0);
        assert!(self.workload.queries_per_class > 0);
        assert!((0.0..=1.0).contains(&self.drop_probability));
        let end = SimTime::ZERO + self.duration;
        for &(at, node) in &self.node_failures {
            assert!(node < self.nodes, "failure of unknown node {node}");
            assert!(
                at <= end,
                "scripted failure of node {node} at {at} is past the run end {end}"
            );
        }
        if let Some(Scenario::Spec(spec)) = &self.scenario {
            spec.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let cfg = ExperimentConfig::paper(Protocol::DtsSs, WorkloadSpec::paper(5.0), 1);
        cfg.validate();
        assert_eq!(cfg.nodes, 80);
        assert_eq!(cfg.duration, SimDuration::from_secs(200));
        assert_eq!(cfg.workload.query_count(), 3);
    }

    #[test]
    fn class_rates_ratio() {
        let w = WorkloadSpec::paper(6.0);
        let [q1, q2, q3] = w.class_rates();
        assert_eq!(q1, 6.0);
        assert_eq!(q2, 3.0);
        assert_eq!(q3, 2.0);
        // Ratio 6:3:2 preserved at other base rates.
        let w2 = WorkloadSpec::paper(0.2);
        let r = w2.class_rates();
        assert!((r[0] / r[1] - 2.0).abs() < 1e-12);
        assert!((r[0] / r[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn quick_is_smaller() {
        let cfg = ExperimentConfig::quick(Protocol::Sync, WorkloadSpec::paper(1.0), 2);
        cfg.validate();
        assert!(cfg.nodes < 80);
        assert!(cfg.duration < SimDuration::from_secs(200));
    }

    #[test]
    fn builders() {
        let cfg = ExperimentConfig::quick(Protocol::DtsSs, WorkloadSpec::paper(1.0), 3)
            .with_drop_probability(0.1)
            .with_node_failure(SimTime::from_secs(10), 5)
            .with_radio(RadioParams::zebranet());
        cfg.validate();
        assert_eq!(cfg.drop_probability, 0.1);
        assert_eq!(cfg.node_failures, vec![(SimTime::from_secs(10), 5)]);
        assert_eq!(cfg.radio, RadioParams::zebranet());
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn failure_of_unknown_node_rejected() {
        ExperimentConfig::quick(Protocol::DtsSs, WorkloadSpec::paper(1.0), 3)
            .with_node_failure(SimTime::from_secs(1), 999)
            .validate();
    }

    #[test]
    #[should_panic(expected = "past the run end")]
    fn failure_past_run_end_rejected() {
        // Quick runs last 50 s; a failure scripted at 60 s can never
        // fire and previously slipped through validation silently.
        ExperimentConfig::quick(Protocol::DtsSs, WorkloadSpec::paper(1.0), 3)
            .with_node_failure(SimTime::from_secs(60), 5)
            .validate();
    }

    #[test]
    fn failure_at_run_end_accepted() {
        ExperimentConfig::quick(Protocol::DtsSs, WorkloadSpec::paper(1.0), 3)
            .with_node_failure(SimTime::from_secs(50), 5)
            .validate();
    }

    #[test]
    fn scenario_attaches_and_validates() {
        use essat_scenario::presets;
        use essat_scenario::spec::Scenario;
        let cfg = ExperimentConfig::quick(Protocol::DtsSs, WorkloadSpec::paper(1.0), 3);
        let run = cfg.duration;
        let cfg = cfg.with_scenario(Scenario::Spec(presets::bursty_links()));
        cfg.validate();
        assert_eq!(cfg.scenario.as_ref().unwrap().name(), "bursty_links");
        let cfg2 = ExperimentConfig::quick(Protocol::Sync, WorkloadSpec::paper(1.0), 4)
            .with_scenario(Scenario::Spec(presets::energy_drain(run)));
        cfg2.validate();
    }

    #[test]
    fn guard_time_grows_with_elapsed_time() {
        assert!(GuardTime::ZERO.is_zero());
        assert_eq!(
            GuardTime::ZERO.at(SimTime::from_secs(100)),
            SimDuration::ZERO
        );
        let g = GuardTime {
            base: SimDuration::from_millis(1),
            growth_ppm: 100,
        };
        assert!(!g.is_zero());
        // 100 ppm of 50 s = 5 ms, plus the 1 ms floor.
        assert_eq!(g.at(SimTime::from_secs(50)), SimDuration::from_millis(6));
        assert_eq!(g.at(SimTime::ZERO), SimDuration::from_millis(1));
        let cfg = ExperimentConfig::quick(Protocol::DtsSs, WorkloadSpec::paper(1.0), 3)
            .with_clock_guard(SimDuration::from_millis(1), 100);
        cfg.validate();
        assert_eq!(cfg.clock_guard, g);
    }

    #[test]
    fn repair_config_defaults_and_builder() {
        let cfg = ExperimentConfig::quick(Protocol::DtsSs, WorkloadSpec::paper(1.0), 3);
        cfg.validate();
        assert!(cfg.repair.enabled, "repair is on by default");
        let off = cfg.clone().with_repair(RepairConfig::disabled());
        off.validate();
        assert!(!off.repair.enabled);
    }

    #[test]
    fn workload_builders() {
        let w = WorkloadSpec::paper(0.2)
            .with_queries_per_class(10)
            .with_deadline(SimDuration::from_millis(120));
        assert_eq!(w.query_count(), 30);
        assert_eq!(w.deadline, Some(SimDuration::from_millis(120)));
    }
}
