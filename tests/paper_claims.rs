//! Integration tests asserting the paper's qualitative claims at
//! reduced scale. Each test mirrors a figure or a sentence of §5; the
//! full-scale regeneration lives in the `essat-figures` binary.

use essat::net::radio::RadioParams;
use essat::sim::time::SimDuration;
use essat::wsn::config::{ExperimentConfig, Protocol, WorkloadSpec};
use essat::wsn::runner;

fn cfg(protocol: Protocol, workload: WorkloadSpec, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(protocol, workload, seed);
    cfg.duration = SimDuration::from_secs(40);
    cfg
}

/// Figure 3's ordering at one rate: ESSAT protocols below PSM; DTS-SS
/// well below SPAN.
#[test]
fn duty_cycle_ordering_matches_fig3() {
    let w = WorkloadSpec::paper(3.0);
    let dts = runner::run_one(&cfg(Protocol::DtsSs, w.clone(), 3)).avg_duty_cycle_pct();
    let sts = runner::run_one(&cfg(Protocol::StsSs, w.clone(), 3)).avg_duty_cycle_pct();
    let nts = runner::run_one(&cfg(Protocol::NtsSs, w.clone(), 3)).avg_duty_cycle_pct();
    let psm = runner::run_one(&cfg(Protocol::Psm, w.clone(), 3)).avg_duty_cycle_pct();
    let span = runner::run_one(&cfg(Protocol::Span, w, 3)).avg_duty_cycle_pct();
    assert!(dts < psm, "DTS {dts} !< PSM {psm}");
    assert!(sts < psm, "STS {sts} !< PSM {psm}");
    assert!(nts < psm, "NTS {nts} !< PSM {psm}");
    assert!(dts < span, "DTS {dts} !< SPAN {span}");
    // The paper's headline band: DTS-SS duty 38–87% lower than SPAN.
    let reduction = (1.0 - dts / span) * 100.0;
    assert!(
        reduction > 30.0,
        "DTS vs SPAN reduction {reduction:.1}% below the paper's band"
    );
}

/// Figure 6's claim: DTS-SS query latencies 36–98% lower than PSM and
/// SYNC.
#[test]
fn latency_reduction_matches_headline() {
    let w = WorkloadSpec::paper(3.0);
    let dts = runner::run_one(&cfg(Protocol::DtsSs, w.clone(), 5)).avg_latency_s();
    let psm = runner::run_one(&cfg(Protocol::Psm, w.clone(), 5)).avg_latency_s();
    let sync = runner::run_one(&cfg(Protocol::Sync, w, 5)).avg_latency_s();
    for (name, base) in [("PSM", psm), ("SYNC", sync)] {
        let reduction = (1.0 - dts / base) * 100.0;
        assert!(
            (30.0..=99.5).contains(&reduction),
            "DTS vs {name}: reduction {reduction:.1}% outside the paper's band (dts={dts}, base={base})"
        );
    }
}

/// Figure 5: NTS-SS duty cycle grows (roughly linearly) with rank;
/// DTS-SS stays flat by comparison.
#[test]
fn rank_profile_matches_fig5() {
    let w = WorkloadSpec::paper(5.0);
    let nts = runner::run_one(&cfg(Protocol::NtsSs, w.clone(), 8));
    let by_rank = nts.duty_by_rank();
    let ranks: Vec<u32> = by_rank.keys().copied().collect();
    assert!(
        ranks.len() >= 3,
        "need a tree with depth, got ranks {ranks:?}"
    );
    let lo = by_rank[ranks.first().unwrap()].mean();
    let hi = by_rank[ranks.last().unwrap()].mean();
    assert!(
        hi > lo * 1.8,
        "NTS duty should grow with rank: rank {} at {lo:.1}%, rank {} at {hi:.1}%",
        ranks.first().unwrap(),
        ranks.last().unwrap()
    );
    // DTS: the top-rank / rank-1 ratio stays far flatter than NTS's.
    let dts = runner::run_one(&cfg(Protocol::DtsSs, w, 8));
    let dby = dts.duty_by_rank();
    let dranks: Vec<u32> = dby.keys().copied().collect();
    let d_mid = dby[&dranks[1]].mean();
    let d_hi = dby[dranks.last().unwrap()].mean();
    let nts_growth = hi / by_rank[&ranks[1]].mean();
    let dts_growth = d_hi / d_mid;
    assert!(
        dts_growth < nts_growth,
        "DTS rank growth {dts_growth:.2} should be flatter than NTS {nts_growth:.2}"
    );
}

/// Figure 2: the deadline trade-off has the documented shape — tiny
/// deadlines cost energy, huge deadlines cost latency.
#[test]
fn sts_deadline_knee_matches_fig2() {
    let seed = 13;
    let run_d = |d_ms: u64| {
        let w = WorkloadSpec::paper(5.0).with_deadline(SimDuration::from_millis(d_ms));
        runner::run_one(&cfg(Protocol::StsSs, w, seed))
    };
    let tight = run_d(20);
    let knee = run_d(120);
    let loose = run_d(800);
    assert!(
        tight.avg_duty_cycle_pct() > knee.avg_duty_cycle_pct(),
        "duty should fall toward the knee: {} vs {}",
        tight.avg_duty_cycle_pct(),
        knee.avg_duty_cycle_pct()
    );
    assert!(
        loose.avg_latency_s() > knee.avg_latency_s() * 2.0,
        "latency should grow past the knee: {} vs {}",
        loose.avg_latency_s(),
        knee.avg_latency_s()
    );
    // Past the knee the duty no longer improves meaningfully (eq. 3).
    assert!(
        loose.avg_duty_cycle_pct() > knee.avg_duty_cycle_pct() * 0.8,
        "duty flat past the knee: {} vs {}",
        loose.avg_duty_cycle_pct(),
        knee.avg_duty_cycle_pct()
    );
}

/// Figure 9: duty cycle rises with the radio's break-even time, and the
/// 40 ms ZebraNet radio pays far more than the MICA2.
#[test]
fn break_even_time_impact_matches_fig9() {
    let w = WorkloadSpec::paper(3.0);
    let seed = 17;
    let duty = |radio: RadioParams| {
        runner::run_one(&cfg(Protocol::DtsSs, w.clone(), seed).with_radio(radio))
            .avg_duty_cycle_pct()
    };
    let instant = duty(RadioParams::instant());
    let mica2 = duty(RadioParams::mica2());
    let zebra = duty(RadioParams::zebranet());
    assert!(
        instant <= mica2 + 0.5,
        "t_BE=0 should be cheapest: {instant} vs {mica2}"
    );
    assert!(
        zebra > mica2 * 1.2,
        "40 ms break-even should cost visibly more: {zebra} vs {mica2}"
    );
}

/// §4.2.3: DTS phase-update overhead stays around/below one bit per
/// data report.
#[test]
fn dts_overhead_below_a_bit_per_report() {
    for rate in [1.0, 3.0] {
        let r = runner::run_one(&cfg(Protocol::DtsSs, WorkloadSpec::paper(rate), 23));
        let bits = r.phase_overhead_bits_per_report();
        assert!(
            bits < 2.0,
            "phase overhead {bits:.2} bits/report too high at {rate} Hz"
        );
        assert!(r.reports_sent > 0);
    }
}

/// Figure 4 regime (many slow queries): ESSAT keeps adapting; SPAN pays
/// its backbone regardless.
#[test]
fn multi_query_adaptation_matches_fig4() {
    let w = WorkloadSpec::paper(0.2).with_queries_per_class(5);
    let dts = runner::run_one(&cfg(Protocol::DtsSs, w.clone(), 29));
    let span = runner::run_one(&cfg(Protocol::Span, w, 29));
    assert!(
        dts.avg_duty_cycle_pct() < span.avg_duty_cycle_pct() * 0.5,
        "at light per-query load DTS {} should be far below SPAN {}",
        dts.avg_duty_cycle_pct(),
        span.avg_duty_cycle_pct()
    );
    // All 15 queries actually produced rounds.
    assert_eq!(dts.queries.len(), 15);
    assert!(dts.queries.iter().all(|q| q.rounds_completed > 0));
}

/// SYNC's duty cycle is pinned by its schedule (the reason the paper
/// omits it from Figures 3 and 4).
#[test]
fn sync_duty_is_fixed_by_schedule() {
    let low = runner::run_one(&cfg(Protocol::Sync, WorkloadSpec::paper(0.5), 31));
    let high = runner::run_one(&cfg(Protocol::Sync, WorkloadSpec::paper(4.0), 31));
    let (a, b) = (low.avg_duty_cycle_pct(), high.avg_duty_cycle_pct());
    assert!(
        (a - b).abs() < 8.0,
        "SYNC duty should be roughly workload-independent: {a} vs {b}"
    );
    assert!(a > 15.0 && a < 35.0, "SYNC duty {a} should sit near 20%");
}

/// Related work (§2): TAG/TinyDB level slotting works under Safe Sleep
/// but cannot beat rank-based STS — a shallow leaf waits out every
/// deeper level's slot before transmitting.
#[test]
fn tag_baseline_functions_and_sts_compares() {
    let w = WorkloadSpec::paper(2.0);
    let tag = runner::run_one(&cfg(Protocol::TagSs, w.clone(), 37));
    let sts = runner::run_one(&cfg(Protocol::StsSs, w, 37));
    assert!(
        tag.delivery_ratio() > 0.9,
        "TAG delivery {}",
        tag.delivery_ratio()
    );
    // Both are static pipelines across the same deadline: latencies land
    // in the same ballpark (within 2x), and both sleep most of the time.
    let ratio = tag.avg_latency_s() / sts.avg_latency_s();
    assert!(
        (0.5..=2.0).contains(&ratio),
        "TAG latency {} vs STS {}",
        tag.avg_latency_s(),
        sts.avg_latency_s()
    );
    assert!(tag.avg_duty_cycle_pct() < 50.0);
    assert!(
        tag.avg_duty_cycle_pct() >= sts.avg_duty_cycle_pct() * 0.8,
        "level slots shouldn't beat rank slots: TAG {} vs STS {}",
        tag.avg_duty_cycle_pct(),
        sts.avg_duty_cycle_pct()
    );
}
