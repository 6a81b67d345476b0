//! The simulation sanitizer (`--features sanitize`) riding along on a
//! representative grid: every protocol under every scenario preset plus
//! clock drift, at reduced quick scale. A single invariant violation —
//! non-monotone time or energy, a frame delivered to a dead node, a
//! stale timer dispatched, a broken routing tree, an unsettled energy
//! total — panics the run and fails this test.

#![cfg(feature = "sanitize")]

use essat::scenario::presets;
use essat::scenario::spec::Scenario;
use essat::sim::time::SimDuration;
use essat::wsn::config::{ExperimentConfig, Protocol, WorkloadSpec};
use essat::wsn::runner;

fn cfg(protocol: Protocol, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(protocol, WorkloadSpec::paper(1.0), seed);
    cfg.duration = SimDuration::from_secs(20);
    cfg
}

#[test]
fn sanitizer_clean_across_protocols_and_presets() {
    for protocol in Protocol::all() {
        // Fault-free control…
        let r = runner::run_one(&cfg(protocol, 1000));
        assert!(r.events_processed > 0, "{protocol}");
        // …every scenario preset (churn revives nodes, energy_drain
        // kills them, bursty/diurnal stress links and traffic)…
        for preset in presets::NAMES {
            let base = cfg(protocol, 2000);
            let spec = presets::by_name(preset, base.duration).expect("known preset");
            let r = runner::run_one(&base.with_scenario(Scenario::Spec(spec)));
            assert!(r.events_processed > 0, "{protocol} under {preset}");
        }
        // …and clock drift with the adaptive guard.
        let drifted = cfg(protocol, 3000)
            .with_scenario(Scenario::Spec(presets::clock_drift(5000)))
            .with_clock_guard(SimDuration::from_millis(1), 5000);
        let r = runner::run_one(&drifted);
        assert!(r.events_processed > 0, "{protocol} under drift");
    }
}

#[test]
fn sanitizer_clean_under_loss_and_node_failure() {
    use essat::sim::time::SimTime;
    let r = runner::run_one(&cfg(Protocol::DtsSs, 77).with_drop_probability(0.3));
    assert!(r.events_processed > 0);
    let r = runner::run_one(&cfg(Protocol::StsSs, 78).with_node_failure(SimTime::from_secs(8), 1));
    assert!(r.events_processed > 0);
}
