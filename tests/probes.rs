//! Observability invariants: attaching any probe must leave every
//! simulation byte-identical — same golden digests, same figure CSVs,
//! whatever the thread count — and the probe artifacts themselves must
//! be well-formed (Perfetto-valid traces, lossless JSONL round-trips,
//! sampler rows that reconcile exactly with the `RunResult` totals).

use essat::harness::executor::SweepExecutor;
use essat::harness::figures::{self, Plan};
use essat::harness::scale::Scale;
use essat::obs::perfetto;
use essat::obs::sample::TimeSeriesSampler;
use essat::obs::trace::{parse_jsonl, TimelineTracer};
use essat::obs::{json, Fanout};
use essat::sim::time::SimDuration;
use essat::wsn::config::{ExperimentConfig, Protocol, WorkloadSpec};
use essat::wsn::runner::{run_one, run_probed};

const GOLDEN: &str = include_str!("golden/quick_digests.txt");
const SEED: u64 = 2025;

const ALL: [Protocol; 8] = [
    Protocol::DtsSs,
    Protocol::StsSs,
    Protocol::NtsSs,
    Protocol::TagSs,
    Protocol::Sync,
    Protocol::Psm,
    Protocol::Span,
    Protocol::AlwaysOn,
];

fn short_cfg(protocol: Protocol, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(protocol, WorkloadSpec::paper(2.0), seed);
    cfg.duration = SimDuration::from_secs(20);
    cfg
}

/// The acceptance invariant: with the tracer AND the sampler attached,
/// every protocol still digests to the committed golden value — the
/// probes observed a bit-identical run.
#[test]
fn golden_digests_unchanged_with_probes_attached() {
    let golden: Vec<(String, String)> = GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, digest) = l.rsplit_once(' ').expect("`<protocol> <digest>` lines");
            (name.to_string(), digest.to_string())
        })
        .collect();
    assert_eq!(golden.len(), ALL.len(), "golden file covers all protocols");
    for (&p, (name, expected)) in ALL.iter().zip(&golden) {
        assert_eq!(&p.to_string(), name, "golden file order matches ALL");
        let cfg = Scale::Quick.config(p, WorkloadSpec::paper(1.0), SEED);
        let probe = Fanout(
            TimelineTracer::new(),
            TimeSeriesSampler::new(SimDuration::from_secs(5)),
        );
        let (result, Fanout(tracer, sampler)) = run_probed(&cfg, probe);
        assert_eq!(
            &result.digest(),
            expected,
            "{p}: digest drifted with probes attached"
        );
        assert!(!tracer.events().is_empty(), "{p}: tracer saw nothing");
        assert!(!sampler.rows().is_empty(), "{p}: sampler saw nothing");
    }
}

/// Figure CSVs must be byte-identical across thread counts, and a
/// probed side-run in between must not disturb them (the `--trace` /
/// `--sample` wiring in `essat-figures`).
#[test]
fn figure_csvs_identical_across_threads_and_probes() {
    let lifetime = Plan::Lifetime.cells(Scale::Quick, SEED);
    let drift = Plan::Drift.cells(Scale::Quick, SEED);

    let serial_lifetime = SweepExecutor::with_threads(1).run(&lifetime);
    let serial_drift = SweepExecutor::with_threads(1).run(&drift);
    let lifetime_csv = figures::lifetime_from(&serial_lifetime).to_csv();
    let drift_csv = {
        let d = figures::drift_from(&serial_drift, Scale::Quick);
        (d.delivery.to_csv(), d.missed.to_csv())
    };

    // The probed side-run, as `essat-figures --trace --sample` does it.
    let probe = Fanout(
        TimelineTracer::new(),
        TimeSeriesSampler::new(SimDuration::from_secs(5)),
    );
    let (_, _) = run_probed(&lifetime[0].cfg, probe);

    let parallel_lifetime = SweepExecutor::with_threads(8).run(&lifetime);
    let parallel_drift = SweepExecutor::with_threads(8).run(&drift);
    assert_eq!(
        lifetime_csv,
        figures::lifetime_from(&parallel_lifetime).to_csv(),
        "lifetime CSV differs across thread counts"
    );
    let d = figures::drift_from(&parallel_drift, Scale::Quick);
    assert_eq!(drift_csv.0, d.delivery.to_csv(), "drift delivery CSV");
    assert_eq!(drift_csv.1, d.missed.to_csv(), "drift missed CSV");
}

/// The compact JSONL codec loses nothing on a real run's trace.
#[test]
fn trace_jsonl_roundtrip_on_real_run() {
    let cfg = short_cfg(Protocol::DtsSs, 7);
    let (_, tracer) = run_probed(&cfg, TimelineTracer::new());
    assert!(!tracer.events().is_empty());
    let doc = tracer.to_jsonl();
    let parsed = parse_jsonl(&doc).expect("emitted JSONL parses");
    assert_eq!(parsed, tracer.events(), "JSONL round-trip not lossless");
}

/// Both Perfetto emitters — the simulation tracer and the executor
/// profiler — produce structurally valid trace-event documents.
#[test]
fn perfetto_documents_validate() {
    let cfg = short_cfg(Protocol::StsSs, 9);
    let (_, tracer) = run_probed(&cfg, TimelineTracer::new());
    let doc = tracer.to_perfetto_json();
    let n = perfetto::validate(&doc).expect("tracer document validates");
    assert!(n > 0, "trace is non-empty");

    let mut exec = SweepExecutor::with_threads(2);
    exec.run(&Plan::Lifetime.cells(Scale::Quick, SEED)[..1]);
    let prof = exec.profile_perfetto();
    let n = perfetto::validate(&prof).expect("profiler document validates");
    assert!(n > 0, "profile is non-empty");
    assert!(!exec.profiles().is_empty());
}

/// The sampler's final row set reconciles exactly — bit-for-bit — with
/// the `RunResult` per-node totals: same energy, same duty cycle.
#[test]
fn sampler_final_rows_match_run_result_totals() {
    let cfg = short_cfg(Protocol::NtsSs, 11);
    let bare = run_one(&cfg);
    let (result, sampler) = run_probed(&cfg, TimeSeriesSampler::new(SimDuration::from_secs(5)));
    assert_eq!(bare.digest(), result.digest());
    let rows = sampler.rows();
    let n = result.nodes.len();
    assert!(rows.len() >= n, "at least one full row set");
    let last = &rows[rows.len() - n..];
    for (row, node) in last.iter().zip(&result.nodes) {
        assert_eq!(
            row.energy_j, node.energy_j,
            "node {}: sampler end-of-run energy differs from RunResult",
            row.node
        );
        assert_eq!(
            row.duty_cycle, node.duty_cycle,
            "node {}: sampler end-of-run duty cycle differs from RunResult",
            row.node
        );
    }
}

/// The extended `BENCH_harness.json` record parses and carries both
/// the original keys (CI's bench gate reads `events_per_sec`) and the
/// profiling extension; the failures document parses too.
#[test]
fn bench_json_carries_profiling_extension() {
    let mut exec = SweepExecutor::with_threads(2);
    let cells = Plan::Lifetime.cells(Scale::Quick, SEED)[..1].to_vec();
    let outcome = exec.run_checked(&cells);
    assert!(outcome.failures.is_empty());
    let doc = exec.stats().to_json(exec.threads());
    let root = json::parse(&doc).expect("bench JSON parses");
    for key in [
        "threads",
        "jobs",
        "events",
        "wall_clock_s",
        "events_per_sec",
        "peak_queue_depth",
        "build_s",
        "run_s",
        "finalize_s",
    ] {
        assert!(
            root.get(key).and_then(|v| v.as_num()).is_some(),
            "missing numeric key {key}"
        );
    }
    let workers = root
        .get("workers")
        .and_then(|v| v.as_arr())
        .expect("workers array");
    assert_eq!(workers.len(), 2, "one entry per worker");
    for w in workers {
        assert!(w.get("jobs").and_then(|v| v.as_num()).is_some());
        assert!(w.get("busy_s").and_then(|v| v.as_num()).is_some());
    }
    let failures = json::parse(&outcome.failures_json()).expect("failures JSON parses");
    assert_eq!(
        failures
            .get("failures")
            .and_then(|v| v.as_arr())
            .map(|a| a.len()),
        Some(0)
    );
}
