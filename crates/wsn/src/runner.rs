//! One-call experiment runs.
//!
//! [`run_one`] runs a configuration with the default policy factory;
//! [`run_probed`] does the same with an observability [`Probe`]
//! attached. The paper's repetition protocol (five runs per data point
//! with derived seeds, reported with 90% confidence intervals) runs on
//! the harness's `SweepExecutor`, which spreads every repetition of a
//! whole figure grid over the worker threads.

use essat_obs::profile::RunTimings;
use essat_obs::{NullProbe, Probe};

use crate::config::ExperimentConfig;
use crate::metrics::RunResult;
use crate::protocol::Protocol;
use crate::sim::{World, WorldScratch};

/// Runs a single experiment.
pub fn run_one(cfg: &ExperimentConfig) -> RunResult {
    let (result, _) = World::run_instrumented(
        cfg,
        &Protocol::build_policy,
        None,
        &mut WorldScratch::new(),
        None,
        NullProbe,
        &mut RunTimings::default(),
    );
    result.expect("uncapped run cannot exhaust a budget")
}

/// Runs a single experiment with an observability [`Probe`] attached,
/// returning the result together with the probe (carrying whatever it
/// recorded).
///
/// Probes observe through read-only seams and cannot touch the event
/// queue or any RNG, so the result — including its digest — is
/// byte-identical to [`run_one`] on the same configuration (pinned by
/// `tests/probes.rs`).
pub fn run_probed<P: Probe>(cfg: &ExperimentConfig, probe: P) -> (RunResult, P) {
    let (result, probe) = World::run_instrumented(
        cfg,
        &Protocol::build_policy,
        None,
        &mut WorldScratch::new(),
        None,
        probe,
        &mut RunTimings::default(),
    );
    (result.expect("uncapped run cannot exhaust a budget"), probe)
}
