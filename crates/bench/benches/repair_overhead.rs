//! Repair A/B guard: the self-healing layer must be free on the
//! fault-free path.
//!
//! Arm A runs a fault-free simulation with repair disabled in config;
//! arm B runs the *same* configuration with the default (enabled)
//! repair. On a fault-free run the resolved gate
//! (`RepairState::active = enabled && faults_possible`) keeps the layer
//! inactive — no link-quality matrix, no timers, no redispatch checks —
//! so the two arms must time identically. CI compares the two records
//! and fails on more than 2% overhead (see `.github/workflows/ci.yml`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use essat_sim::time::SimDuration;
use essat_wsn::config::{ExperimentConfig, Protocol, RepairConfig, WorkloadSpec};
use essat_wsn::runner;

fn bench_cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(Protocol::DtsSs, WorkloadSpec::paper(2.0), 5);
    cfg.duration = SimDuration::from_secs(10);
    cfg
}

/// Arm A: repair disabled in config — the legacy path by construction.
fn repair_disabled_run(c: &mut Criterion) {
    let cfg = bench_cfg().with_repair(RepairConfig::disabled());
    c.bench_function("repair/disabled_run", |b| {
        b.iter(|| black_box(runner::run_one(&cfg)))
    });
}

/// Arm B: repair enabled (the default) on the same fault-free config —
/// the gate must make this the same machine code path as arm A.
fn repair_enabled_faultfree_run(c: &mut Criterion) {
    let cfg = bench_cfg();
    c.bench_function("repair/enabled_faultfree_run", |b| {
        b.iter(|| black_box(runner::run_one(&cfg)))
    });
}

criterion_group!(benches, repair_disabled_run, repair_enabled_faultfree_run);
criterion_main!(benches);
