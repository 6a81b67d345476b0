//! Integration tests for the figure assemblers at reduced scale: every
//! plan's results assemble into well-formed series with the expected
//! axes, labels, and paper-shaped relationships.

use essat_harness::executor::SweepExecutor;
use essat_harness::figures::{self, Plan};
use essat_harness::scale::Scale;
use essat_wsn::metrics::RunResult;

/// Runs `plan` at quick scale on every core.
fn run(plan: Plan, seed: u64) -> Vec<Vec<RunResult>> {
    SweepExecutor::new().run(&plan.cells(Scale::Quick, seed))
}

#[test]
fn fig5_builder_shape() {
    let fig = figures::fig5_rank_profile_from(&run(Plan::Fig5, 7));
    assert_eq!(fig.id, "fig5");
    assert_eq!(fig.series.len(), 3, "three ESSAT protocols");
    for s in &fig.series {
        assert!(!s.points.is_empty(), "{} is empty", s.label);
        // Ranks start at 0 (leaves).
        assert_eq!(s.points[0].x, 0.0);
        for p in &s.points {
            assert!((0.0..=100.0).contains(&p.y), "{}: duty {}", s.label, p.y);
        }
    }
    // NTS grows from leaf to top rank.
    let nts = fig.series("NTS-SS").expect("NTS series");
    let first = nts.points.first().unwrap().y;
    let last = nts.points.last().unwrap().y;
    assert!(
        last > first,
        "NTS rank profile must grow: {first} -> {last}"
    );
}

#[test]
fn fig8_builder_shape() {
    let data = figures::fig8_sleep_hist_from(&run(Plan::Fig8, 11));
    assert_eq!(data.histogram.id, "fig8");
    assert_eq!(data.histogram.series.len(), 3);
    for s in &data.histogram.series {
        assert_eq!(s.points.len(), 8, "25 ms bins up to 200 ms");
        assert_eq!(s.points[0].x, 25.0);
        assert_eq!(s.points[7].x, 200.0);
        let total: f64 = s.points.iter().map(|p| p.y).sum();
        assert!(total > 0.0, "{} recorded no sleep intervals", s.label);
    }
    // The paper's ordering of short-sleep fractions: DTS > NTS.
    let get = |label: &str| {
        data.below_2_5ms_pct
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| *v)
            .expect("protocol present")
    };
    assert!(
        get("DTS-SS") > get("NTS-SS"),
        "DTS {} should have more short sleeps than NTS {}",
        get("DTS-SS"),
        get("NTS-SS")
    );
}

#[test]
fn lifetime_builder_shape() {
    let fig = figures::lifetime_from(&run(Plan::Lifetime, 23));
    assert_eq!(fig.id, "lifetime");
    assert_eq!(fig.series.len(), 2, "first death + partition");
    let first_death = &fig.series[0];
    let partition = &fig.series[1];
    assert_eq!(first_death.points.len(), figures::SCENARIO_PROTOCOLS.len());
    for (fd, pt) in first_death.points.iter().zip(&partition.points) {
        assert_eq!(fd.x, pt.x);
        assert!(fd.y > 0.0 && fd.y <= 50.0, "quick runs last 50 s");
        assert!(
            pt.y >= fd.y,
            "partition cannot precede the first death: {} vs {}",
            pt.y,
            fd.y
        );
    }
    // SPAN keeps a backbone always on: under energy_drain it must lose
    // its first node before the sleepers do.
    let span_i = figures::SCENARIO_PROTOCOLS
        .iter()
        .position(|p| p.label() == "SPAN")
        .unwrap();
    let dts_i = figures::SCENARIO_PROTOCOLS
        .iter()
        .position(|p| p.label() == "DTS-SS")
        .unwrap();
    assert!(
        first_death.points[span_i].y < first_death.points[dts_i].y,
        "SPAN ({}) must die before DTS-SS ({})",
        first_death.points[span_i].y,
        first_death.points[dts_i].y
    );
}

#[test]
fn robustness_builder_shape() {
    let fig = figures::robustness_from(&run(Plan::Robustness, 29));
    assert_eq!(fig.id, "robustness");
    assert_eq!(fig.series.len(), figures::SCENARIO_PROTOCOLS.len());
    for s in &fig.series {
        assert_eq!(s.points.len(), figures::ROBUSTNESS_PRESETS.len());
        for p in &s.points {
            assert!(
                (0.0..=100.0).contains(&p.y),
                "{}: delivery {}%",
                s.label,
                p.y
            );
        }
        // Bursty links (index 1) must cost delivery vs steady (index 0).
        assert!(
            s.points[1].y <= s.points[0].y + 1e-9,
            "{}: bursty ({}) above steady ({})",
            s.label,
            s.points[1].y,
            s.points[0].y
        );
    }
}

#[test]
fn self_healing_builder_shape() {
    let data = figures::self_healing_from(&run(Plan::SelfHealing, 2024));
    assert_eq!(data.delivery.id, "self_healing_delivery");
    assert_eq!(data.in_partition.id, "self_healing_in_partition");
    assert_eq!(data.time_to_partition.id, "self_healing_time_to_partition");
    let mean = |fig: &essat_harness::table::FigureData, label: &str| {
        let s = fig
            .series(label)
            .unwrap_or_else(|| panic!("{label} series"));
        assert_eq!(s.points.len(), 8, "{label}: one point per protocol");
        s.points.iter().map(|p| p.y).sum::<f64>() / s.points.len() as f64
    };
    for preset in ["churn", "bursty_links"] {
        let on = format!("{preset}/repair");
        let off = format!("{preset}/legacy");
        // The headline claim: repair must not cost delivery under any
        // preset, and must buy it back under bursty links.
        let d_on = mean(&data.delivery, &on);
        let d_off = mean(&data.delivery, &off);
        assert!(
            d_on >= d_off - 1e-9,
            "{preset}: repair delivery {d_on}% below legacy {d_off}%"
        );
        // Time in partition can only shrink when episodes heal.
        let p_on = mean(&data.in_partition, &on);
        let p_off = mean(&data.in_partition, &off);
        assert!(
            p_on <= p_off + 1e-9,
            "{preset}: repair in-partition {p_on}s above legacy {p_off}s"
        );
        // Right-censored time-to-partition: repair keeps the root
        // reachable at least as long, protocol by protocol.
        let ttp_on = &data.time_to_partition.series(&on).unwrap().points;
        let ttp_off = &data.time_to_partition.series(&off).unwrap().points;
        for (a, b) in ttp_on.iter().zip(ttp_off.iter()) {
            assert!(
                a.y >= b.y - 1e-9,
                "{preset}: repair partitions earlier ({} vs {})",
                a.y,
                b.y
            );
        }
    }
    // Under bursty links the gap is the figure's point: repair must
    // strictly beat legacy on mean delivery.
    assert!(
        mean(&data.delivery, "bursty_links/repair") > mean(&data.delivery, "bursty_links/legacy"),
        "repair should strictly improve bursty-link delivery"
    );
}

#[test]
fn fig2_builder_shape() {
    let fig = figures::fig2_deadline_from(&run(Plan::Fig2, 5), Scale::Quick);
    assert_eq!(fig.id, "fig2");
    assert_eq!(fig.series.len(), 2, "duty + latency");
    let duty = &fig.series[0];
    let lat = &fig.series[1];
    assert_eq!(duty.points.len(), lat.points.len());
    // Latency grows monotonically-ish with the deadline past the knee:
    // the last point must exceed the first.
    assert!(
        lat.points.last().unwrap().y > lat.points.first().unwrap().y,
        "latency must grow with the deadline"
    );
    // Tight deadlines cost more energy than the loosest one.
    assert!(
        duty.points.first().unwrap().y > duty.points.last().unwrap().y * 0.8,
        "tight deadlines shouldn't be cheaper"
    );
}
