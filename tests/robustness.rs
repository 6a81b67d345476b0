//! §4.3 robustness: transient loss, node failure, and recovery — the
//! paper's protocol-maintenance behaviours, asserted end to end.

use essat::net::topology::PAPER_RANGE_M;
use essat::scenario::presets;
use essat::scenario::spec::Scenario;
use essat::sim::time::{SimDuration, SimTime};
use essat::wsn::config::{ExperimentConfig, Protocol, RepairConfig, SetupMode, WorkloadSpec};
use essat::wsn::runner;

fn cfg(protocol: Protocol, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(protocol, WorkloadSpec::paper(1.0), seed);
    cfg.duration = SimDuration::from_secs(60);
    cfg
}

/// Transient packet loss: ESSAT protocols keep collecting (partial
/// aggregation + timeouts), and DTS issues phase-update requests to
/// resynchronise.
#[test]
fn transient_loss_degrades_gracefully() {
    for protocol in [Protocol::NtsSs, Protocol::StsSs, Protocol::DtsSs] {
        let clean = runner::run_one(&cfg(protocol, 41));
        let lossy = runner::run_one(&cfg(protocol, 41).with_drop_probability(0.05));
        assert!(
            lossy.delivery_ratio() > 0.75,
            "{protocol}: delivery {} collapsed under 5% loss",
            lossy.delivery_ratio()
        );
        assert!(
            lossy.delivery_ratio() <= clean.delivery_ratio() + 0.02,
            "{protocol}: loss can't improve delivery"
        );
        // Rounds still complete at the root throughout (compare each
        // query against its clean counterpart — rates differ by class).
        for (ql, qc) in lossy.queries.iter().zip(&clean.queries) {
            assert!(
                ql.rounds_completed as f64 >= 0.8 * qc.rounds_completed as f64,
                "{protocol}: rounds collapsed under loss ({} vs {})",
                ql.rounds_completed,
                qc.rounds_completed
            );
        }
    }
}

/// DTS resynchronises after losses (§4.3).
///
/// Light loss is fully absorbed by MAC retries (7 attempts make the
/// end-to-end frame loss ~(1−(1−p)²)⁷ ≈ 0), so report-level *gaps* only
/// appear under heavy loss — hence the 40% injection. Resynchronisation
/// is sender-driven: a failed send forces a phase update onto the next
/// report (`EssatPolicy::on_report_failed`), so at this seed every gap
/// arrives with a piggyback and the parent requests nothing
/// (`loss_reaches_the_phase_request_path` pins a gap that does not).
/// The observable is therefore extra piggybacked phases, not request
/// packets.
#[test]
fn dts_resynchronises_under_loss() {
    let clean = runner::run_one(&cfg(Protocol::DtsSs, 43));
    let lossy = runner::run_one(&cfg(Protocol::DtsSs, 43).with_drop_probability(0.40));
    assert!(
        lossy.mac.failed > 0,
        "40% loss should exhaust some retry budgets"
    );
    let clean_rate = clean.phase_piggybacks as f64 / clean.reports_sent.max(1) as f64;
    let lossy_rate = lossy.phase_piggybacks as f64 / lossy.reports_sent.max(1) as f64;
    assert!(
        lossy_rate > clean_rate * 1.5,
        "loss must force extra phase updates: {lossy_rate:.4} vs clean {clean_rate:.4}"
    );
    assert!(
        lossy.delivery_ratio() > 0.5,
        "resync should keep the system collecting: {}",
        lossy.delivery_ratio()
    );
    // NTS has no phases to advertise at all.
    let nts = runner::run_one(&cfg(Protocol::NtsSs, 43).with_drop_probability(0.40));
    assert_eq!(nts.phase_piggybacks, 0, "NTS never piggybacks");
    assert_eq!(nts.phase_requests, 0, "NTS never requests resync");
}

/// ACK'd unicast does reach the parent-driven §4.3 path: a parent that
/// sees a gap without a piggyback requests a phase update, and the
/// child's answer resynchronises it.
///
/// With repair on, a child keeps redispatching a failed report while
/// its round deadline allows. At this seed, child n32's redispatches of
/// round 6 outlast round 7's release, so round 7 leaves at 13.185 s
/// without a piggyback. Round 6's last retry cycle fails 130 µs later,
/// and the piggyback `EssatPolicy::on_report_failed` then forces comes
/// too late for round 7. Parent n24 sees round 7 as a gap without a
/// piggyback and sends a request. With repair off the same run issues
/// none.
#[test]
fn loss_reaches_the_phase_request_path() {
    let cfg = ExperimentConfig::quick(Protocol::DtsSs, WorkloadSpec::paper(2.0), 33)
        .with_drop_probability(0.5);
    let r = runner::run_one(&cfg);
    assert!(
        r.phase_requests > 0 && r.resync_events > 0,
        "no phase request/resync under 50% loss: {} requests, {} resyncs",
        r.phase_requests,
        r.resync_events
    );
}

/// Quiet traffic-phase rounds are silence by schedule, not loss: under
/// the `diurnal` preset DTS follows the phase schedule with no phase
/// requests and no resynchronisations.
#[test]
fn quiet_rounds_are_not_losses() {
    let base = cfg(Protocol::DtsSs, 2024);
    let spec = presets::diurnal(base.duration);
    let r = runner::run_one(&base.with_scenario(Scenario::Spec(spec)));
    assert_eq!(r.phase_requests, 0, "a quiet round read as a loss");
    assert_eq!(r.resync_events, 0, "a quiet round read as a loss");
}

/// A failed relay is detected and routed around; reporting continues.
#[test]
fn node_failure_recovery() {
    for protocol in [Protocol::DtsSs, Protocol::StsSs, Protocol::NtsSs] {
        let base = cfg(protocol, 5);
        let healthy = runner::run_one(&base);
        // Fail a node mid-run. Node index 1 is an arbitrary member at
        // this seed (the failure machinery tolerates leaves too).
        let failed = base.clone().with_node_failure(SimTime::from_secs(20), 1);
        let wounded = runner::run_one(&failed);
        assert!(
            wounded.delivery_ratio() > healthy.delivery_ratio() - 0.15,
            "{protocol}: delivery {} vs healthy {} — recovery failed",
            wounded.delivery_ratio(),
            healthy.delivery_ratio()
        );
        // The run keeps completing rounds to the very end.
        let last_at = wounded
            .queries
            .iter()
            .flat_map(|q| q.records.iter().map(|r| r.at))
            .max()
            .expect("rounds completed");
        assert!(
            last_at > SimTime::from_secs(55),
            "{protocol}: reporting stopped after the failure (last at {last_at})"
        );
    }
}

/// Flooded query dissemination (§4.1 setup slot): queries reach the
/// network in-band and the system still works.
#[test]
fn flooded_setup_registers_queries() {
    let mut c = cfg(Protocol::DtsSs, 47);
    c.setup_mode = SetupMode::Flooded;
    let r = runner::run_one(&c);
    assert!(
        r.delivery_ratio() > 0.75,
        "flooded setup delivery {}",
        r.delivery_ratio()
    );
    for q in &r.queries {
        assert!(q.rounds_completed > 0, "query {:?} never ran", q.query);
    }
}

/// Loss injection sanity: heavier loss, lower delivery — monotone in
/// the right direction. Pinned to the legacy path: deadline-budgeted
/// retransmission deliberately compensates injected loss (it can even
/// beat the fault-free run, whose contention losses get no second
/// dispatch), which would blur the monotonicity this asserts.
#[test]
fn loss_monotonicity() {
    let legacy = |seed| cfg(Protocol::DtsSs, seed).with_repair(RepairConfig::disabled());
    let d0 = runner::run_one(&legacy(53)).delivery_ratio();
    let d10 = runner::run_one(&legacy(53).with_drop_probability(0.10)).delivery_ratio();
    let d30 = runner::run_one(&legacy(53).with_drop_probability(0.30)).delivery_ratio();
    assert!(d0 > d10 - 0.02, "{d0} vs {d10}");
    assert!(d10 > d30, "{d10} vs {d30}");
    assert!(
        d30 > 0.2,
        "even heavy loss shouldn't zero out delivery: {d30}"
    );
}

/// MAC-level retries mask most single-frame losses: with light loss the
/// retry counters grow but delivery barely moves.
#[test]
fn mac_retries_absorb_light_loss() {
    let clean = runner::run_one(&cfg(Protocol::NtsSs, 59));
    let lossy = runner::run_one(&cfg(Protocol::NtsSs, 59).with_drop_probability(0.05));
    assert!(
        lossy.mac.retries > clean.mac.retries,
        "injected loss must cause extra retries ({} vs {})",
        lossy.mac.retries,
        clean.mac.retries
    );
    assert!(
        lossy.delivery_ratio() > 0.9,
        "retries should mask 5% loss, got delivery {}",
        lossy.delivery_ratio()
    );
}

/// The two-range interference model (carrier-sense beyond decode
/// range). Two opposing effects: hidden terminals can now corrupt
/// receptions from outside decode range, but wider carrier sensing also
/// makes MACs defer more, *avoiding* overlaps. Either way the system
/// must keep functioning, and the channel must behave differently from
/// the one-range model.
#[test]
fn interference_range_still_functions() {
    let one = runner::run_one(&cfg(Protocol::DtsSs, 61));
    let two = {
        let mut c = cfg(Protocol::DtsSs, 61);
        c.interference_range = Some(PAPER_RANGE_M * 1.8);
        runner::run_one(&c)
    };
    assert_ne!(
        two.events_processed, one.events_processed,
        "two-range model must actually change channel behaviour"
    );
    assert!(
        two.delivery_ratio() > 0.7,
        "hidden-terminal corruption shouldn't collapse delivery: {}",
        two.delivery_ratio()
    );
    assert!(
        two.avg_duty_cycle_pct() < 50.0,
        "sleeping must keep working under the harsher model: {}",
        two.avg_duty_cycle_pct()
    );
}

/// The self-healing layer compiles to a no-op on fault-free runs: with
/// nothing to detect, the link-quality EWMA is pure arithmetic nothing
/// reads, no repair timer ever arms, and the event stream — and hence
/// the full metrics digest — is byte-identical with repair on or off.
/// This is the runtime form of the golden-digest guarantee.
#[test]
fn repair_is_invisible_on_fault_free_runs() {
    for protocol in [
        Protocol::DtsSs,
        Protocol::StsSs,
        Protocol::NtsSs,
        Protocol::TagSs,
        Protocol::Sync,
        Protocol::Psm,
        Protocol::Span,
        Protocol::AlwaysOn,
    ] {
        let on = runner::run_one(&cfg(protocol, 71));
        let off = runner::run_one(&cfg(protocol, 71).with_repair(RepairConfig::disabled()));
        assert_eq!(
            on.digest(),
            off.digest(),
            "{protocol}: fault-free run diverged with repair enabled"
        );
        assert_eq!(on.repairs, 0, "{protocol}: repair ran without faults");
        assert_eq!(on.redispatches, 0, "{protocol}: redispatch without faults");
    }
}

/// Under churn, self-healing must repair the tree (repairs counted,
/// orphan time bounded) and never cost delivery relative to the legacy
/// synchronous path it replaces.
#[test]
fn self_healing_repairs_under_churn() {
    for (protocol, seed) in [(Protocol::DtsSs, 11), (Protocol::NtsSs, 13)] {
        let base = cfg(protocol, seed)
            .with_scenario(Scenario::Spec(presets::churn(SimDuration::from_secs(60))));
        let on = runner::run_one(&base);
        let off = runner::run_one(&base.clone().with_repair(RepairConfig::disabled()));
        assert_eq!(off.repairs, 0, "disabled arm must not count repairs");
        assert!(
            on.delivery_ratio() >= off.delivery_ratio() - 0.02,
            "{protocol}: self-healing lost delivery ({} vs {})",
            on.delivery_ratio(),
            off.delivery_ratio()
        );
        // Orphan accounting is bounded by run length × node count.
        let bound = 60.0 * on.nodes.len() as f64;
        assert!(
            on.orphan_node_seconds() <= bound,
            "{protocol}: orphan seconds {} exceed bound {bound}",
            on.orphan_node_seconds()
        );
    }
}

/// Partition accounting under churn: `partition` is no longer a
/// permanent mark. A healed network records `partition_recovered_at`
/// and reports only the actual outage as time-in-partition — the
/// regression this pins is `time_in_partition == duration - partition`
/// forever after the first episode.
#[test]
fn partition_episodes_heal_under_churn() {
    let mut recovered_somewhere = false;
    for seed in [2, 3, 5, 7] {
        // Sparse placement (12 nodes over the paper's 500 m side) so
        // churn actually severs the tree: the dense quick topology
        // re-attaches every orphan instantly and no episode ever opens.
        let mut base = cfg(Protocol::DtsSs, seed);
        base.nodes = 12;
        base.area_side = 500.0;
        let base = base.with_scenario(Scenario::Spec(presets::churn(SimDuration::from_secs(60))));
        let r = runner::run_one(&base);
        let tip = r.time_in_partition_s();
        assert!(
            (0.0..=60.0).contains(&tip),
            "seed {seed}: time-in-partition {tip} outside the run"
        );
        match (r.lifetime.partition, r.lifetime.partition_recovered_at) {
            (None, rec) => {
                assert!(rec.is_none(), "seed {seed}: recovery without partition");
                assert_eq!(tip, 0.0, "seed {seed}: partitioned time without episode");
            }
            (Some(p), Some(rec)) => {
                assert!(rec >= p, "seed {seed}: recovered before partitioned");
                // The healed network must NOT report partitioned-forever.
                let forever = 60.0 - p.as_nanos() as f64 * 1e-9;
                assert!(
                    tip < forever,
                    "seed {seed}: partition still treated as permanent \
                     ({tip} vs censored {forever})"
                );
                recovered_somewhere = true;
            }
            (Some(_), None) => { /* still partitioned at run end: censored */ }
        }
    }
    assert!(
        recovered_somewhere,
        "no churn seed ever healed a partition — recovery path untested"
    );
}

/// The fault arms of [`several_queries_per_class_under_faults_match_pinned_digests`].
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// `churn` with self-healing on.
    Churn,
    /// `churn` on the legacy synchronous §4.3 repair path.
    ChurnNoRepair,
    /// Gilbert–Elliott bursty links.
    BurstyLinks,
    /// 50% uniform loss: enough report gaps that DTS parents request
    /// phase updates and children resynchronise.
    HeavyLoss,
    /// Flooded query setup at 50% loss on the legacy repair path: live
    /// children declared failed drop out of the tree before the flood
    /// reaches them, and each must re-flood a query only once.
    FloodedHeavyLoss,
}

/// Digests of [`several_queries_per_class_under_faults_match_pinned_digests`],
/// recorded while each node kept its query-agent state in per-query
/// and per-`(query, round)` keyed collections.
const MULTI_QUERY_FAULT_DIGESTS: [(Protocol, Fault, &str); 13] = [
    (Protocol::DtsSs, Fault::Churn, "0c7f96864665ab5d"),
    (Protocol::DtsSs, Fault::ChurnNoRepair, "b14248caf6b246b0"),
    (Protocol::DtsSs, Fault::BurstyLinks, "c541ddcb2b5c34c4"),
    (Protocol::DtsSs, Fault::HeavyLoss, "2c2ea4939494dfc6"),
    (Protocol::DtsSs, Fault::FloodedHeavyLoss, "198d270c6ec8f000"),
    (Protocol::StsSs, Fault::Churn, "ec226d57c39b274a"),
    (Protocol::StsSs, Fault::ChurnNoRepair, "117ad672c1210c81"),
    (Protocol::StsSs, Fault::BurstyLinks, "92aaaacc07fc6212"),
    (Protocol::StsSs, Fault::FloodedHeavyLoss, "9e0409ddc9c64a89"),
    (Protocol::Psm, Fault::Churn, "a36ccd86b4a516a6"),
    (Protocol::Psm, Fault::ChurnNoRepair, "a69d494c39084f43"),
    (Protocol::Psm, Fault::BurstyLinks, "584b41ddf1778862"),
    (Protocol::Psm, Fault::FloodedHeavyLoss, "4acf2c593bf1227f"),
];

/// Five queries per class under churn (repair on and off), bursty
/// links and heavy loss (with idealized and flooded setup): nodes hold
/// many queries' rounds at once while they die, revive, re-parent, lose
/// reports and resynchronise phases. No figure or other test combines
/// several queries per class with faults.
#[test]
fn several_queries_per_class_under_faults_match_pinned_digests() {
    for (protocol, fault, want) in MULTI_QUERY_FAULT_DIGESTS {
        let workload = WorkloadSpec::paper(1.0).with_queries_per_class(5);
        let mut base = ExperimentConfig::quick(protocol, workload, 17);
        let run = SimDuration::from_secs(20);
        base.duration = run;
        let cfg = match fault {
            Fault::Churn => base.with_scenario(Scenario::Spec(presets::churn(run))),
            Fault::ChurnNoRepair => base
                .with_scenario(Scenario::Spec(presets::churn(run)))
                .with_repair(RepairConfig::disabled()),
            Fault::BurstyLinks => base.with_scenario(Scenario::Spec(presets::bursty_links())),
            Fault::HeavyLoss => base.with_drop_probability(0.5),
            Fault::FloodedHeavyLoss => {
                base.setup_mode = SetupMode::Flooded;
                base.with_drop_probability(0.5)
                    .with_repair(RepairConfig::disabled())
            }
        };
        let r = runner::run_one(&cfg);
        assert_eq!(r.queries.len(), 15);
        assert_eq!(r.digest(), want, "{protocol} under {fault:?}");
    }
}
