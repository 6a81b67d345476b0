//! Regression test for the PR 3 review finding: an installed per-link
//! [`LossModel`] (the scenario engine's Gilbert–Elliott process) used to
//! silently *override* the channel's configured baseline
//! `drop_probability` instead of composing with it. A scenario that
//! enabled bursty links therefore turned the §4.3 transient-loss
//! injection off entirely.
//!
//! The contract now is composition: a frame copy is lost if the model
//! drops it **or** the baseline random loss fires.

use essat_net::channel::{Channel, TxEndBuf};
use essat_net::ids::NodeId;
use essat_net::topology::Topology;
use essat_scenario::gilbert::{GilbertElliott, GilbertElliottParams};
use essat_sim::rng::SimRng;
use essat_sim::time::{SimDuration, SimTime};

/// A Gilbert–Elliott process that never drops anything: pinned to the
/// good state (enormous mean sojourn) with `drop_good = 0`.
fn never_dropping_links(nodes: u32) -> GilbertElliott {
    let params = GilbertElliottParams {
        mean_good: SimDuration::from_secs(1_000_000),
        mean_bad: SimDuration::from_micros(1),
        drop_good: 0.0,
        drop_bad: 1.0,
    };
    params.validate();
    GilbertElliott::new(nodes as usize, params, SimRng::seed_from_u64(3))
}

#[test]
fn baseline_drop_probability_survives_an_installed_model() {
    let topo = Topology::line(2, 10.0, 12.0);
    let mut ch = Channel::new(&topo, SimRng::seed_from_u64(7));
    ch.set_drop_probability(0.3);
    // A model that never drops must leave the measured loss at the
    // baseline rate, not at zero (the override bug).
    ch.set_loss_model(Box::new(never_dropping_links(2)));
    let mut end = TxEndBuf::default();
    let trials = 2_000u64;
    let mut dropped = 0u64;
    for i in 0..trials {
        let t0 = SimTime::from_micros(i * 1_000);
        let tx = ch.begin_tx(t0, NodeId::new(0), SimDuration::from_micros(416));
        ch.end_tx_into(t0 + SimDuration::from_micros(416), tx.id, &mut end);
        if end.corrupted().contains(&NodeId::new(1)) {
            dropped += 1;
        }
        ch.recycle_nodes(tx.now_busy);
    }
    let frac = dropped as f64 / trials as f64;
    assert!(
        (frac - 0.3).abs() < 0.05,
        "baseline loss must compose with the model: observed {frac}, expected ≈ 0.3"
    );
    assert_eq!(ch.stats().injected_drops, dropped);
}

#[test]
fn bursty_bad_state_composes_with_baseline() {
    // A GE process pinned to the *bad* state with certain loss: every
    // copy dies regardless of the (low) baseline — and with the model
    // removed, the baseline alone takes over again.
    let topo = Topology::line(2, 10.0, 12.0);
    let mut ch = Channel::new(&topo, SimRng::seed_from_u64(11));
    ch.set_drop_probability(0.2);
    let params = GilbertElliottParams {
        mean_good: SimDuration::from_micros(1),
        mean_bad: SimDuration::from_secs(1_000_000),
        drop_good: 0.0,
        drop_bad: 1.0,
    };
    // Seed 5's first sojourn draw starts link (0 → 1) in one of the two
    // states; drive long enough that the chain is certainly bad.
    let ge = GilbertElliott::new(2, params, SimRng::seed_from_u64(5));
    ch.set_loss_model(Box::new(ge));
    let mut end = TxEndBuf::default();
    let mut all_dropped = true;
    for i in 0..200u64 {
        // Well past any initial good sojourn (microseconds long).
        let t0 = SimTime::from_micros(1_000_000 + i * 1_000);
        let tx = ch.begin_tx(t0, NodeId::new(0), SimDuration::from_micros(416));
        ch.end_tx_into(t0 + SimDuration::from_micros(416), tx.id, &mut end);
        all_dropped &= end.corrupted().contains(&NodeId::new(1));
    }
    assert!(all_dropped, "certain bad-state loss must drop every copy");
    // Baseline-only behaviour returns once the model is cleared.
    ch.clear_loss_model();
    let trials = 2_000u64;
    let mut dropped = 0u64;
    for i in 0..trials {
        let t0 = SimTime::from_micros(10_000_000 + i * 1_000);
        let tx = ch.begin_tx(t0, NodeId::new(0), SimDuration::from_micros(416));
        ch.end_tx_into(t0 + SimDuration::from_micros(416), tx.id, &mut end);
        if end.corrupted().contains(&NodeId::new(1)) {
            dropped += 1;
        }
    }
    let frac = dropped as f64 / trials as f64;
    assert!((frac - 0.2).abs() < 0.05, "baseline-only loss: {frac}");
}
