//! The three named workloads and their seeded job lists.
//!
//! A workload is a pure function of `(workload, seed)`: the same pair
//! always plans the same configurations in the same order. The program
//! under test only ever sees the resulting `ExperimentConfig`s. Every
//! job is its own one-run `SweepCell`, so job `i` is cell `i`.
//!
//! Every job gets its own seed, hence its own topology. The simulated
//! metrics then average over as many independent topologies as there
//! are jobs. When all protocols of a repetition shared one topology (as
//! in the figure sweeps), a few dense, saturated topologies moved the
//! mean latency by 10-25% from one workload seed to the next.
//!
//! Every job uses the quick topology (40 nodes in 350 × 350 m²) but
//! runs for less than the quick scale's 50 s (see [`Workload::timing`]).
//! A pass then takes a few seconds, so one run repeats each job often
//! enough for its fastest run to miss the shared host's slow spells.

use essat::harness::executor::SweepCell;
use essat::scenario::presets;
use essat::scenario::spec::Scenario;
use essat::sim::time::SimDuration;
use essat::wsn::config::{ExperimentConfig, Protocol, WorkloadSpec};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fault-free, 1 query/class at base rates 3 and 5 Hz: the
    /// MAC/channel hot path (shallow queue, near-future timer churn).
    SteadyRate,
    /// Fault-free, 0.2 Hz with 1/5/10 queries/class: a deep queue of
    /// far-future round and policy timers, and uneven job lengths.
    QueryLoad,
    /// Churn, bursty links, battery drain and clock drift with repair
    /// on: the scenario, loss-model, clock and repair layers.
    Faults,
}

/// Fault presets of the `faults` workload, in planning order.
pub const FAULT_PRESETS: [&str; 4] = ["churn", "bursty_links", "energy_drain", "clock_drift_200"];

/// Clock-drift magnitude of the `faults` workload's drift preset.
const DRIFT_PPM: u32 = 200;

/// One planned job: its configuration and a human-readable label.
#[derive(Debug, Clone)]
pub struct Job {
    /// What the program runs.
    pub cfg: ExperimentConfig,
    /// `protocol/variant/rep`, for failure messages.
    pub label: String,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::SteadyRate, Workload::QueryLoad, Workload::Faults];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyRate => "steady_rate",
            Workload::QueryLoad => "query_load",
            Workload::Faults => "faults",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Executor worker count (at most the 2 cores of the reference box).
    pub fn workers(self) -> usize {
        match self {
            Workload::QueryLoad => 2,
            Workload::SteadyRate | Workload::Faults => 1,
        }
    }

    /// Repetitions of the protocol × variant grid. Every pass plans at
    /// least 100 jobs, leaving at least 10 beyond the 90th percentile;
    /// `query_load` plans twice that, because its mean latency varies
    /// most between topologies.
    fn reps(self) -> u32 {
        match self {
            Workload::SteadyRate => 7,
            Workload::QueryLoad => 10,
            Workload::Faults => 4,
        }
    }

    /// Simulated length of each job, and the window its queries start
    /// in. A window at least as long as the slowest class period (1 s
    /// at 3 Hz, 3 s at 1 Hz) keeps query phases uniformly random, and a
    /// short one lets every query run for most of a short job.
    /// `query_load` keeps the quick scale's 10 s window, so every query
    /// starts in its first 10 s and completes several 5 s, 10 s or 15 s
    /// rounds in 30 s.
    fn timing(self) -> (SimDuration, SimDuration) {
        let secs = SimDuration::from_secs;
        match self {
            Workload::SteadyRate => (secs(10), secs(2)),
            Workload::QueryLoad => (secs(30), secs(10)),
            Workload::Faults => (secs(25), secs(3)),
        }
    }

    /// Plans the job list for `seed`.
    pub fn plan(self, seed: u64) -> Vec<Job> {
        let mut jobs = Vec::new();
        let (duration, phase_window) = self.timing();
        let quick = |p: Protocol, rate: f64| ExperimentConfig {
            duration,
            ..ExperimentConfig::quick(
                p,
                WorkloadSpec {
                    phase_window,
                    ..WorkloadSpec::paper(rate)
                },
                0,
            )
        };
        for rep in 0..self.reps() {
            let mut push = |mut cfg: ExperimentConfig, variant: String| {
                cfg.seed = mix(seed, jobs.len() as u64);
                let label = format!("{}/{variant}/rep{rep}", cfg.protocol);
                jobs.push(Job { cfg, label });
            };
            match self {
                Workload::SteadyRate => {
                    for rate in [3.0, 5.0] {
                        for p in Protocol::all() {
                            push(quick(p, rate), format!("{rate}Hz"));
                        }
                    }
                }
                Workload::QueryLoad => {
                    for qpc in [1, 5, 10] {
                        for p in Protocol::all() {
                            let mut cfg = quick(p, 0.2);
                            cfg.workload = cfg.workload.with_queries_per_class(qpc);
                            push(cfg, format!("{qpc}qpc"));
                        }
                    }
                }
                Workload::Faults => {
                    for preset in FAULT_PRESETS {
                        for p in Protocol::all() {
                            let cfg = fault_config(quick(p, 1.0), preset);
                            push(cfg, preset.to_string());
                        }
                    }
                }
            }
        }
        jobs
    }
}

/// Attaches a `faults` preset (repair stays at its enabled default).
fn fault_config(mut cfg: ExperimentConfig, preset: &str) -> ExperimentConfig {
    if preset == "clock_drift_200" {
        // The drift figure's pairing: guard time scaled to the skew.
        cfg.scenario = Some(Scenario::Spec(presets::clock_drift(DRIFT_PPM)));
        return cfg.with_clock_guard(SimDuration::from_millis(1), DRIFT_PPM);
    }
    let spec = presets::by_name(preset, cfg.duration).expect("fault presets are library presets");
    cfg.with_scenario(Scenario::Spec(spec))
}

/// The executor's input: one single-run cell per job.
pub fn cells(jobs: &[Job]) -> Vec<SweepCell> {
    jobs.iter()
        .map(|j| SweepCell::new(j.cfg.clone(), 1))
        .collect()
}

/// SplitMix64 over `(seed, job)`: independent per-job seeds,
/// reproducible from the workload seed alone. Kept below 2^53 so the
/// seeds survive any JSON reader unchanged.
fn mix(seed: u64, job: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(job.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) >> 11
}
