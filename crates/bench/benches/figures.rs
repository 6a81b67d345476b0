//! One benchmark per paper figure.
//!
//! Each benchmark runs one *representative cell* of the corresponding
//! figure's sweep at reduced (`quick`) scale, so `cargo bench` finishes
//! in minutes while still exercising exactly the code paths the figure
//! uses. The full-sweep, paper-scale regeneration is the
//! `essat-figures` binary.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use essat_net::radio::RadioParams;
use essat_sim::time::SimDuration;
use essat_wsn::config::{ExperimentConfig, Protocol, WorkloadSpec};
use essat_wsn::runner;

/// One quick-scale run, shortened further for benching.
fn quick_run(protocol: Protocol, workload: WorkloadSpec, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(protocol, workload, seed);
    cfg.duration = SimDuration::from_secs(20);
    cfg
}

/// Figure 2 cell: STS-SS at 5 Hz with a mid-sweep deadline (0.12 s,
/// the paper's knee).
fn fig2_deadline(c: &mut Criterion) {
    let cfg = quick_run(
        Protocol::StsSs,
        WorkloadSpec::paper(5.0).with_deadline(SimDuration::from_millis(120)),
        1,
    );
    c.bench_function("fig2/sts_deadline_120ms", |b| {
        b.iter(|| black_box(runner::run_one(&cfg)))
    });
}

/// Figure 3 cell: DTS-SS duty cycle at 3 Hz.
fn fig3_duty_vs_rate(c: &mut Criterion) {
    let cfg = quick_run(Protocol::DtsSs, WorkloadSpec::paper(3.0), 2);
    c.bench_function("fig3/dts_duty_3hz", |b| {
        b.iter(|| black_box(runner::run_one(&cfg).avg_duty_cycle_pct()))
    });
}

/// Figure 4 cell: DTS-SS with 5 queries per class at 0.2 Hz.
fn fig4_duty_vs_queries(c: &mut Criterion) {
    let cfg = quick_run(
        Protocol::DtsSs,
        WorkloadSpec::paper(0.2).with_queries_per_class(5),
        3,
    );
    c.bench_function("fig4/dts_duty_5qpc", |b| {
        b.iter(|| black_box(runner::run_one(&cfg).avg_duty_cycle_pct()))
    });
}

/// Figure 5 cell: NTS-SS rank profile at 5 Hz (the rank-linear case).
fn fig5_rank_profile(c: &mut Criterion) {
    let cfg = quick_run(Protocol::NtsSs, WorkloadSpec::paper(5.0), 4);
    c.bench_function("fig5/nts_rank_profile_5hz", |b| {
        b.iter(|| black_box(runner::run_one(&cfg).duty_by_rank()))
    });
}

/// Figure 6 cell: PSM latency at 3 Hz (the expensive baseline).
fn fig6_latency_vs_rate(c: &mut Criterion) {
    let cfg = quick_run(Protocol::Psm, WorkloadSpec::paper(3.0), 5);
    c.bench_function("fig6/psm_latency_3hz", |b| {
        b.iter(|| black_box(runner::run_one(&cfg).avg_latency_s()))
    });
}

/// Figure 7 cell: SYNC latency with 5 queries per class.
fn fig7_latency_vs_queries(c: &mut Criterion) {
    let cfg = quick_run(
        Protocol::Sync,
        WorkloadSpec::paper(0.2).with_queries_per_class(5),
        6,
    );
    c.bench_function("fig7/sync_latency_5qpc", |b| {
        b.iter(|| black_box(runner::run_one(&cfg).avg_latency_s()))
    });
}

/// Figure 8 cell: DTS-SS sleep-interval histogram with t_BE = 0.
fn fig8_sleep_hist(c: &mut Criterion) {
    let cfg =
        quick_run(Protocol::DtsSs, WorkloadSpec::paper(5.0), 7).with_radio(RadioParams::instant());
    c.bench_function("fig8/dts_sleep_hist_tbe0", |b| {
        b.iter(|| {
            let r = runner::run_one(&cfg);
            black_box(r.sleep_intervals.fraction_below(0.0025))
        })
    });
}

/// Figure 9 cell: DTS-SS at 5 Hz with the ZebraNet 40 ms break-even.
fn fig9_tbe(c: &mut Criterion) {
    let cfg =
        quick_run(Protocol::DtsSs, WorkloadSpec::paper(5.0), 8).with_radio(RadioParams::zebranet());
    c.bench_function("fig9/dts_duty_tbe40ms", |b| {
        b.iter(|| black_box(runner::run_one(&cfg).avg_duty_cycle_pct()))
    });
}

/// Headline cell: the DTS-vs-SPAN duty comparison at 5 Hz.
fn headline_comparison(c: &mut Criterion) {
    let dts = quick_run(Protocol::DtsSs, WorkloadSpec::paper(5.0), 9);
    let span = quick_run(Protocol::Span, WorkloadSpec::paper(5.0), 9);
    c.bench_function("headline/dts_vs_span_5hz", |b| {
        b.iter(|| {
            let d = runner::run_one(&dts).avg_duty_cycle_pct();
            let s = runner::run_one(&span).avg_duty_cycle_pct();
            black_box(1.0 - d / s)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets =
        fig2_deadline,
        fig3_duty_vs_rate,
        fig4_duty_vs_queries,
        fig5_rank_profile,
        fig6_latency_vs_rate,
        fig7_latency_vs_queries,
        fig8_sleep_hist,
        fig9_tbe,
        headline_comparison,
}
criterion_main!(benches);
