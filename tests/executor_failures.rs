//! Panic isolation in the sweep executor: a policy that panics takes
//! down its own job (with one retry and a structured failure report),
//! not the sweep, and the deterministic event budget turns runaway
//! cells into failures instead of hung sweeps.

use std::sync::atomic::{AtomicBool, Ordering};

use essat::harness::executor::{SweepCell, SweepExecutor};
use essat::net::ids::NodeId;
use essat::sim::time::SimDuration;
use essat::wsn::config::{ExperimentConfig, Protocol, WorkloadSpec};
use essat::wsn::metrics::RunResult;
use essat::wsn::payload::Payload;
use essat::wsn::protocol::{PolicyEnv, PowerPolicy};

fn cfg(protocol: Protocol, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(protocol, WorkloadSpec::paper(1.0), seed);
    cfg.duration = SimDuration::from_secs(20);
    cfg
}

/// An "out-of-tree" factory whose PSM arm is broken: building any PSM
/// policy panics, everything else delegates to the stock catalogue.
fn broken_psm_factory(
    cfg: &ExperimentConfig,
    node: NodeId,
    env: &PolicyEnv<'_>,
) -> Box<dyn PowerPolicy<Payload>> {
    if cfg.protocol == Protocol::Psm {
        panic!("injected: out-of-tree policy construction failed");
    }
    Protocol::build_policy(cfg, node, env)
}

#[test]
fn panicking_policy_yields_failure_report_while_others_complete() {
    let cells = vec![
        SweepCell::new(cfg(Protocol::DtsSs, 7), 2),
        SweepCell::new(cfg(Protocol::Psm, 7), 2),
        SweepCell::new(cfg(Protocol::Sync, 7), 1),
    ];
    let mut exec = SweepExecutor::with_threads(4);
    let out = exec.run_checked_with(&cells, &broken_psm_factory);

    // Healthy cells complete in full…
    assert_eq!(out.results[0].len(), 2);
    assert_eq!(out.results[2].len(), 1);
    assert!(out.results[0].iter().all(|r| r.events_processed > 0));
    // …the broken cell yields structured failures, one per repetition.
    assert!(out.results[1].is_empty());
    assert_eq!(out.failures.len(), 2);
    for f in &out.failures {
        assert_eq!(f.cell, 1);
        assert_eq!(f.protocol, "PSM");
        assert!(f.retried, "a panicking job gets exactly one retry");
        assert!(f.reason.contains("injected"), "reason: {}", f.reason);
    }
    let seeds: Vec<u64> = out.failures.iter().map(|f| f.seed).collect();
    assert_eq!(seeds, vec![7, 8], "failures carry the derived seeds");
    let summary = out.failure_summary().expect("failures present");
    assert!(summary.contains("PSM") && summary.contains("injected"));
}

/// A job that panics once succeeds on its retry with the result a clean
/// sweep gives, and so do the later jobs at its sweep point: the retry
/// builds its own topology and tree instead of asking the build cache a
/// second time, which would let the block go before their asks.
#[test]
fn retried_job_and_its_sweep_point_match_a_clean_sweep() {
    let cells = vec![
        SweepCell::new(cfg(Protocol::DtsSs, 7), 2),
        SweepCell::new(cfg(Protocol::Sync, 7), 1),
        SweepCell::new(cfg(Protocol::NtsSs, 7), 1),
    ];
    let panicked = AtomicBool::new(false);
    let once = |c: &ExperimentConfig, node: NodeId, env: &PolicyEnv<'_>| {
        if !panicked.swap(true, Ordering::Relaxed) {
            panic!("injected: first policy construction fails");
        }
        Protocol::build_policy(c, node, env)
    };
    let out = SweepExecutor::with_threads(1).run_checked_with(&cells, &once);
    assert!(panicked.load(Ordering::Relaxed));
    assert!(out.failures.is_empty(), "{:?}", out.failure_summary());
    let clean = SweepExecutor::with_threads(1).run(&cells);
    let digests = |rs: &[Vec<RunResult>]| -> Vec<String> {
        rs.iter().flatten().map(RunResult::digest).collect()
    };
    assert_eq!(digests(&out.results), digests(&clean));
}

#[test]
fn clean_sweep_reports_no_failures() {
    let out =
        SweepExecutor::with_threads(2).run_checked(&[SweepCell::new(cfg(Protocol::NtsSs, 31), 2)]);
    assert!(out.failures.is_empty());
    assert!(out.failure_summary().is_none());
    assert_eq!(out.results[0].len(), 2);
}

/// The event budget is deterministic, so exhaustion fails immediately
/// (no retry) with a reason that names the cap.
#[test]
fn event_budget_exhaustion_is_reported() {
    let out = SweepExecutor::with_threads(1)
        .with_event_budget(100)
        .run_checked(&[SweepCell::new(cfg(Protocol::DtsSs, 9), 1)]);
    assert!(out.results[0].is_empty());
    assert_eq!(out.failures.len(), 1);
    let f = &out.failures[0];
    assert!(!f.retried, "budget exhaustion is deterministic — no retry");
    assert!(f.reason.contains("event budget"), "reason: {}", f.reason);
}

/// Budget accounting is per event: a budget of N trips after exactly N
/// dispatches, and exhaustion midway through a wheel bucket leaves the
/// remainder pending and reports the same structured failure at every
/// cap value around bucket-sized dispatch bursts.
#[test]
fn budget_exhaustion_mid_bucket_reports_identically() {
    for budget in [1u64, 97, 100, 101, 128, 1_000] {
        let out = SweepExecutor::with_threads(1)
            .with_event_budget(budget)
            .run_checked(&[SweepCell::new(cfg(Protocol::DtsSs, 9), 1)]);
        assert!(
            out.results[0].is_empty(),
            "budget {budget}: an exhausted run yields no result"
        );
        assert_eq!(out.failures.len(), 1, "budget {budget}");
        let f = &out.failures[0];
        assert!(!f.retried, "budget {budget}: exhaustion is deterministic");
        assert!(
            f.reason.contains(&budget.to_string()),
            "budget {budget}: reason names the cap: {}",
            f.reason
        );
    }
}

/// An ample budget is invisible: the capped path reproduces the
/// uncapped run bit for bit.
#[test]
fn ample_budget_matches_uncapped() {
    let cell = || vec![SweepCell::new(cfg(Protocol::Sync, 11), 1)];
    let uncapped = SweepExecutor::with_threads(1).run(&cell());
    let capped = SweepExecutor::with_threads(1)
        .with_event_budget(u64::MAX)
        .run_checked(&cell());
    assert!(capped.failures.is_empty());
    assert_eq!(uncapped[0][0].digest(), capped.results[0][0].digest());
}

/// The strict entry point keeps its all-or-nothing contract: any
/// failure aborts with the aggregated report.
#[test]
#[should_panic(expected = "event budget")]
fn strict_run_panics_on_failures() {
    SweepExecutor::with_threads(1)
        .with_event_budget(100)
        .run(&[SweepCell::new(cfg(Protocol::DtsSs, 9), 1)]);
}
