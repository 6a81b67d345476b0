//! Reproducibility: identical seeds give bit-identical metrics; sweep
//! repetitions derive distinct seeds and match single runs; the
//! parallel sweep executor produces byte-identical figure data to the
//! serial path; and pooled worlds match fresh construction.

use essat::harness::executor::{SweepCell, SweepExecutor};
use essat::harness::figures;
use essat::harness::scale::Scale;
use essat::sim::time::SimDuration;
use essat::wsn::config::{ExperimentConfig, Protocol, WorkloadSpec};
use essat::wsn::runner;

fn cfg(protocol: Protocol, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(protocol, WorkloadSpec::paper(2.0), seed);
    cfg.duration = SimDuration::from_secs(25);
    cfg
}

#[test]
fn identical_seeds_identical_runs_all_protocols() {
    for protocol in [
        Protocol::NtsSs,
        Protocol::StsSs,
        Protocol::DtsSs,
        Protocol::Sync,
        Protocol::Psm,
        Protocol::Span,
    ] {
        let a = runner::run_one(&cfg(protocol, 101));
        let b = runner::run_one(&cfg(protocol, 101));
        assert_eq!(a.events_processed, b.events_processed, "{protocol}");
        assert_eq!(a.reports_sent, b.reports_sent, "{protocol}");
        assert_eq!(
            a.channel_transmissions, b.channel_transmissions,
            "{protocol}"
        );
        assert_eq!(a.avg_duty_cycle_pct(), b.avg_duty_cycle_pct(), "{protocol}");
        assert_eq!(a.avg_latency_s(), b.avg_latency_s(), "{protocol}");
        for (qa, qb) in a.queries.iter().zip(&b.queries) {
            assert_eq!(qa.records, qb.records, "{protocol}: round traces differ");
        }
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(na.duty_cycle, nb.duty_cycle, "{protocol}");
            assert_eq!(na.energy_j, nb.energy_j, "{protocol}");
        }
    }
}

/// A 3-rep cell on eight workers matches running each derived seed
/// sequentially through `run_one`.
#[test]
fn threaded_runner_matches_sequential() {
    let base = cfg(Protocol::DtsSs, 200);
    let threaded = SweepExecutor::with_threads(8)
        .run(&[SweepCell::new(base.clone(), 3)])
        .remove(0);
    assert_eq!(threaded.len(), 3);
    for (i, r) in threaded.iter().enumerate() {
        let mut c = base.clone();
        c.seed = base.seed + i as u64;
        let seq = runner::run_one(&c);
        assert_eq!(r.seed, seq.seed);
        assert_eq!(r.events_processed, seq.events_processed);
        assert_eq!(r.avg_duty_cycle_pct(), seq.avg_duty_cycle_pct());
        assert_eq!(r.digest(), seq.digest(), "seed {}", r.seed);
    }
}

/// Repetitions of a cell take seeds `s, s+1, s+2`.
#[test]
fn derived_seeds_are_distinct() {
    let rs = SweepExecutor::new()
        .run(&[SweepCell::new(cfg(Protocol::NtsSs, 300), 3)])
        .remove(0);
    assert_eq!(rs.len(), 3);
    let seeds: Vec<u64> = rs.iter().map(|r| r.seed).collect();
    assert_eq!(seeds, vec![300, 301, 302]);
    // Different seeds — different topologies — different event counts.
    let events: Vec<u64> = rs.iter().map(|r| r.events_processed).collect();
    assert!(
        events[0] != events[1] && events[1] != events[2] && events[0] != events[2],
        "{events:?}"
    );
}

/// Executor cells reproduce exactly what the per-point runner produced
/// (one `run_one` per derived seed), so figures keep their historical
/// values.
#[test]
fn executor_cell_matches_run_many() {
    let base = cfg(Protocol::StsSs, 512);
    let via_runner: Vec<_> = (0..3)
        .map(|i| {
            let mut c = base.clone();
            c.seed = base.seed + i;
            runner::run_one(&c)
        })
        .collect();
    let via_exec = SweepExecutor::new()
        .run(&[SweepCell::new(base, 3)])
        .remove(0);
    assert_eq!(via_runner.len(), via_exec.len());
    for (a, b) in via_runner.iter().zip(&via_exec) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.avg_duty_cycle_pct(), b.avg_duty_cycle_pct());
        assert_eq!(a.avg_latency_s(), b.avg_latency_s());
        assert_eq!(a.reports_sent, b.reports_sent);
    }
}

/// The work-stealing sweep executor must produce byte-identical figure
/// data to the serial (1-thread) path for a `Scale::Quick` figure: both
/// the rendered table and the CSV must match byte for byte, whatever
/// the thread interleaving.
#[test]
fn parallel_executor_matches_serial_byte_identical() {
    let serial = figures::fig2_deadline(&mut SweepExecutor::with_threads(1), Scale::Quick, 9);
    let parallel = figures::fig2_deadline(&mut SweepExecutor::with_threads(8), Scale::Quick, 9);
    assert_eq!(serial.to_csv().into_bytes(), parallel.to_csv().into_bytes());
    assert_eq!(
        serial.render_table().into_bytes(),
        parallel.render_table().into_bytes()
    );
}

/// A scenario-driven sweep (bursty links + churn + diurnal phases) is
/// byte-identical whatever the `--threads` setting: scenario
/// compilation and all scenario randomness derive from the per-run
/// seed, never from execution order.
#[test]
fn scenario_runs_byte_identical_across_thread_counts() {
    use essat::scenario::presets;
    use essat::scenario::spec::Scenario;

    let mk_cells = || {
        let mut cells = Vec::new();
        for (seed, preset) in [(640u64, "bursty_links"), (650, "churn"), (660, "diurnal")] {
            let mut c = cfg(Protocol::DtsSs, seed);
            let spec = presets::by_name(preset, c.duration).expect("known preset");
            c.scenario = Some(Scenario::Spec(spec));
            cells.push(SweepCell::new(c, 2));
        }
        cells
    };
    let serial = SweepExecutor::with_threads(1).run(&mk_cells());
    let parallel = SweepExecutor::with_threads(8).run(&mk_cells());
    for (s_cell, p_cell) in serial.iter().zip(&parallel) {
        for (s, p) in s_cell.iter().zip(p_cell) {
            assert_eq!(s.seed, p.seed);
            assert_eq!(s.events_processed, p.events_processed);
            assert_eq!(s.avg_duty_cycle_pct(), p.avg_duty_cycle_pct());
            assert_eq!(s.avg_latency_s(), p.avg_latency_s());
            assert_eq!(s.delivery_ratio(), p.delivery_ratio());
            assert_eq!(s.lifetime, p.lifetime);
            for (qs, qp) in s.queries.iter().zip(&p.queries) {
                assert_eq!(qs.records, qp.records);
            }
        }
    }
}

/// Record/replay: a compiled scenario's trace round-trips byte-
/// identically, and a run driven by the replayed trace reproduces the
/// live run's metrics exactly.
#[test]
fn scenario_trace_replay_is_exact() {
    use essat::scenario::compile::CompiledScenario;
    use essat::scenario::presets;
    use essat::scenario::spec::Scenario;
    use essat::wsn::sim::World;

    let base = cfg(Protocol::StsSs, 777);
    let mut spec = presets::churn(base.duration);
    spec.link = presets::bursty_links().link;
    let live_cfg = base.clone().with_scenario(Scenario::Spec(spec));

    // Record the compiled stream off the live world…
    let (world, _) = World::new(live_cfg.clone());
    let trace = world.scenario().expect("scenario attached").to_trace();
    // …check the codec round-trips byte-identically…
    let parsed = CompiledScenario::from_trace(&trace).expect("parses");
    assert_eq!(parsed.to_trace(), trace);
    // …and replay it.
    let live = runner::run_one(&live_cfg);
    let replayed = runner::run_one(&base.with_scenario(Scenario::Trace(trace)));
    assert_eq!(live.events_processed, replayed.events_processed);
    assert_eq!(live.avg_duty_cycle_pct(), replayed.avg_duty_cycle_pct());
    assert_eq!(live.lifetime, replayed.lifetime);
}

/// Sweep-wide reuse must be invisible in the results: a run through a
/// **warmed** worker scratch (recycled event-queue slab, channel buffer
/// pools, action buffers) sharing a [`BuildCache`]d topology/tree/CSR
/// block produces a byte-identical `RunResult::digest()` to fresh
/// construction — including under scenarios (churn revivals, battery
/// deaths) and across protocols interleaved on the same scratch.
#[test]
fn pooled_worlds_and_build_cache_match_fresh_construction() {
    use essat::obs::profile::RunTimings;
    use essat::obs::NullProbe;
    use essat::scenario::presets;
    use essat::scenario::spec::Scenario;
    use essat::wsn::sim::{BuildCache, World, WorldScratch};

    let cache = BuildCache::new();
    let mut scratch = WorldScratch::new();
    let mut configs = Vec::new();
    for protocol in [
        Protocol::DtsSs,
        Protocol::Sync,
        Protocol::Psm,
        Protocol::Span,
    ] {
        // Same seed across protocols: all four share one cached build.
        configs.push(cfg(protocol, 4242));
    }
    let mut churny = cfg(Protocol::StsSs, 4242);
    churny.scenario = Some(Scenario::Spec(
        presets::by_name("churn", churny.duration).unwrap(),
    ));
    configs.push(churny);
    let mut draining = cfg(Protocol::NtsSs, 4242);
    draining.scenario = Some(Scenario::Spec(presets::energy_drain(draining.duration)));
    configs.push(draining);

    // Two passes: the second reuses a scratch warmed by *every* config
    // of the first (cross-protocol contamination would show up here).
    for pass in 0..2 {
        for c in &configs {
            let fresh = runner::run_one(c).digest();
            let (pooled, _) = World::run_instrumented(
                c,
                &Protocol::build_policy,
                Some(&cache),
                &mut scratch,
                None,
                NullProbe,
                &mut RunTimings::default(),
            );
            let pooled = pooled.expect("uncapped run").digest();
            assert_eq!(
                fresh, pooled,
                "pass {pass}: pooled run diverged for {} (seed {})",
                c.protocol, c.seed
            );
        }
    }
    assert_eq!(
        cache.len(),
        1,
        "all configs share one (topology, seed) build-cache entry"
    );
}
