//! The repository benchmark: runs one named workload for a time budget
//! and ends its output with one JSON result line holding every metric
//! with its unit. (`run.py` adds each metric's direction from
//! `BENCHMARK.json`.)
//!
//! ```text
//! essat-repo-bench --workload steady_rate --seed 1 --seconds 36 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: repeated untraced passes
//! of the workload's job list through `SweepExecutor::run_checked`, with
//! set-up measured between them, until the time budget is spent.
//! `--trace 1` measures the per-layer metrics: one untraced executor
//! pass for the layer timings and counters, then every job once
//! untraced and once under the [`probe::DispatchProfiler`], in
//! alternating order. Run it from the repository root: the golden gate
//! reads `tests/golden/` there, and the traced run writes its spans
//! under `.bench_out/`.

mod check;
mod probe;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use essat::harness::executor::SweepExecutor;
use essat::obs::perfetto::PerfettoBuilder;
use essat::obs::profile::RunTimings;
use essat::obs::{NullProbe, Probe};
use essat::wsn::config::Protocol;
use essat::wsn::metrics::{QueryMetrics, RunResult};
use essat::wsn::sim::{BuildCache, World, WorldScratch};

use check::Tally;
use probe::{DispatchProfiler, ACTIONS, KINDS};
use workloads::{Job, Workload};

/// Deterministic per-job runaway guard. The heaviest planned job
/// processes well under a tenth of this.
const JOB_EVENT_BUDGET: u64 = 20_000_000;

/// Fewest executor passes in an untraced run.
const MIN_PASSES: usize = 3;

/// Set-up measurements after each untraced pass; the fastest of them
/// is that pass's set-up time.
const SETUP_PER_PASS: usize = 3;

/// Where the traced run writes its spans.
const SPAN_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The first successful outcome of every job: the reference later
/// passes and the traced run must reproduce bit-for-bit.
struct Reference {
    digests: Vec<Option<String>>,
    results: Vec<Option<RunResult>>,
}

impl Reference {
    fn new(n: usize) -> Self {
        Reference {
            digests: vec![None; n],
            results: vec![None; n],
        }
    }

    /// Range-checks `r` and compares it with the reference (recording
    /// it when this is the first success). Returns why it is wrong.
    fn check(&mut self, i: usize, r: RunResult) -> Result<(), String> {
        if let Some(why) = check::out_of_range(&r) {
            return Err(why);
        }
        let d = r.digest();
        match &self.digests[i] {
            Some(want) if *want != d => Err(format!("digest {d} != first run's {want}")),
            Some(_) => Ok(()),
            None => {
                self.digests[i] = Some(d);
                self.results[i] = Some(r);
                Ok(())
            }
        }
    }

    fn combined(&self) -> String {
        check::combined_digest(
            self.digests
                .iter()
                .map(|d| d.as_deref().unwrap_or("failed")),
        )
    }
}

/// One untraced executor pass over the whole job list.
struct Pass {
    wall_s: f64,
    /// Claim-to-result time of job `i`, or infinity if it failed.
    job_ms: Vec<f64>,
    idle_s: f64,
    timings: RunTimings,
    events: u64,
    peak_queue: u64,
}

fn run_pass(workers: usize, jobs: &[Job], reference: &mut Reference, tally: &mut Tally) -> Pass {
    let mut ex = SweepExecutor::with_threads(workers).with_event_budget(JOB_EVENT_BUDGET);
    let out = ex.run_checked(&workloads::cells(jobs));
    let stats = ex.stats();
    tally.attempted += jobs.len() as u64;
    for f in &out.failures {
        tally.fail(format!("{}: {}", jobs[f.cell].label, f.reason));
    }
    for (i, mut rs) in out.results.into_iter().enumerate() {
        if let Some(r) = rs.pop() {
            if let Err(why) = reference.check(i, r) {
                tally.fail(format!("{}: {why}", jobs[i].label));
            }
        }
    }
    let wall_s = stats.wall.as_secs_f64();
    let busy: f64 = stats.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
    let mut job_ms = vec![f64::INFINITY; jobs.len()];
    for p in ex.profiles() {
        job_ms[p.cell] = p.wall.as_secs_f64() * 1e3;
    }
    Pass {
        wall_s,
        job_ms,
        idle_s: (stats.workers.len() as f64 * wall_s - busy).max(0.0),
        timings: stats.timings,
        events: stats.events,
        peak_queue: stats.peak_queue_depth,
    }
}

/// Median of a non-empty sample.
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0–1) of a non-empty sample.
fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The simulated end-to-end metrics over one set of job results.
struct Simulated {
    duty_cycle_pct: f64,
    delivery_pct: f64,
    latency_ms: f64,
}

fn simulated(results: &[Option<RunResult>]) -> Simulated {
    let rs: Vec<&RunResult> = results.iter().flatten().collect();
    let duty = rs.iter().map(|r| r.avg_duty_cycle_pct()).sum::<f64>() / rs.len().max(1) as f64;
    let (mut delivered, mut expected) = (0u64, 0u64);
    let (mut lat_sum, mut rounds) = (0.0, 0u64);
    for q in rs.iter().flat_map(|r| &r.queries) {
        delivered += q.delivered_readings;
        expected += q.expected_readings;
        if !q.latency.is_empty() {
            lat_sum += q.latency.mean() * q.latency.count() as f64;
            rounds += q.latency.count();
        }
    }
    Simulated {
        duty_cycle_pct: duty,
        delivery_pct: 100.0 * ratio(delivered as f64, expected as f64),
        latency_ms: 1e3 * ratio(lat_sum, rounds as f64),
    }
}

/// Metrics in `BENCHMARK.json` order: `(name, value, unit)`. The
/// direction of each lives in `BENCHMARK.json`; `run.py` prints it.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One set-up measurement: job-list generation plus every job's world
/// build (`RunTimings::build`), each job stopped after its first event.
fn setup_once(workload: Workload, seed: u64) -> f64 {
    let t = Instant::now();
    let jobs = workload.plan(seed);
    let mut total = t.elapsed();
    let (cache, mut scratch) = (BuildCache::new(), WorldScratch::new());
    for job in &jobs {
        total += run_serial(job, NullProbe, &cache, &mut scratch, 1).2.build;
    }
    total.as_secs_f64()
}

/// `--trace 0`: end-to-end metrics.
///
/// Untraced executor passes until the next one would overrun the time
/// budget, with `SETUP_PER_PASS` set-up measurements after each. The
/// shared host runs up to 1.5x slower for seconds at a time, so the
/// pass and job times keep the fastest of all passes: `wall_s` is the
/// fastest pass, and `job_ms_*` are percentiles over the jobs of each
/// job's fastest run. `setup_s` is the median over passes of each
/// pass's set-up time.
fn end_to_end(args: &Args, jobs: &[Job], tally: &mut Tally, reference: &mut Reference) -> Metrics {
    let t0 = Instant::now();
    let workers = args.workload.workers();
    let mut passes = vec![run_pass(workers, jobs, reference, tally)];
    // Later passes only add allocator fragmentation, and set-up
    // allocates little, so the high-water mark is taken after one pass.
    let rss_mb = peak_rss_mb();
    let mut setup = Vec::new();
    loop {
        let reps = (0..SETUP_PER_PASS).map(|_| setup_once(args.workload, args.seed));
        setup.push(reps.fold(f64::INFINITY, f64::min));
        let spent = t0.elapsed().as_secs_f64();
        let per_pass = spent / passes.len() as f64;
        if passes.len() >= MIN_PASSES && spent + per_pass > args.seconds {
            break;
        }
        passes.push(run_pass(workers, jobs, reference, tally));
    }
    let fastest = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).fold(f64::INFINITY, f64::min);
    let wall_s = fastest(&|p| p.wall_s);
    let job_ms: Vec<f64> = (0..jobs.len())
        .map(|i| fastest(&|p| p.job_ms[i]))
        .filter(|ms| ms.is_finite())
        .collect();
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    println!(
        "{} passes of {} jobs on {} worker(s); pass wall_s: {}",
        passes.len(),
        jobs.len(),
        workers,
        walls.join(" ")
    );
    let sim = simulated(&reference.results);
    let mut m = Metrics::default();
    m.add("wall_s", wall_s, "s");
    m.add("setup_s", median(&setup), "s");
    m.add("job_ms_p50", median(&job_ms), "ms");
    m.add("job_ms_p90", percentile(&job_ms, 0.9), "ms");
    m.add("peak_rss_mb", rss_mb, "MiB");
    let ok = 1.0 - ratio(tally.failed as f64, tally.attempted as f64);
    m.add("success_frac", ok, "ratio");
    m.add("duty_cycle_pct", sim.duty_cycle_pct, "%");
    m.add("delivery_pct", sim.delivery_pct, "%");
    m.add("latency_ms", sim.latency_ms, "ms");
    m
}

/// One traced or untraced serial run of a job, panic-isolated.
fn run_serial<P: Probe>(
    job: &Job,
    probe: P,
    cache: &BuildCache,
    scratch: &mut WorldScratch,
    budget: u64,
) -> (Result<RunResult, String>, Option<P>, RunTimings) {
    let mut timings = RunTimings::default();
    let run = catch_unwind(AssertUnwindSafe(|| {
        World::run_instrumented(
            &job.cfg,
            &Protocol::build_policy,
            Some(cache),
            scratch,
            Some(budget),
            probe,
            &mut timings,
        )
    }));
    match run {
        Ok((Some(r), p)) => (Ok(r), Some(p), timings),
        Ok((None, p)) => (Err("event budget exhausted".to_string()), Some(p), timings),
        Err(_) => {
            *scratch = WorldScratch::new();
            (Err("panicked".to_string()), None, timings)
        }
    }
}

/// `--trace 1`: per-layer metrics.
fn per_layer(args: &Args, jobs: &[Job], tally: &mut Tally, reference: &mut Reference) -> Metrics {
    let pass = run_pass(args.workload.workers(), jobs, reference, tally);
    let untraced_digest = reference.combined();

    // Every job once untraced and once traced, alternating which arm
    // runs first so drift in machine speed hits both arms alike. Each
    // arm has its own build cache and scratch.
    let (null_cache, traced_cache) = (BuildCache::new(), BuildCache::new());
    let (mut null_scratch, mut traced_scratch) = (WorldScratch::new(), WorldScratch::new());
    // One profiler threads through every traced job, accumulating.
    let mut profiler = DispatchProfiler::default();
    let (mut null_time, mut traced_time) = (RunTimings::default(), RunTimings::default());
    let mut traced = Reference::new(jobs.len());
    let mut spans = PerfettoBuilder::new();
    spans.process_name(2, "essat benchmark");
    spans.thread_name(2, 0, "untraced");
    spans.thread_name(2, 1, "traced");
    let t0 = Instant::now();
    for (i, job) in jobs.iter().enumerate() {
        for arm in [i % 2, 1 - i % 2] {
            let start = t0.elapsed();
            let (outcome, timings) = if arm == 0 {
                let (o, _, t) = run_serial(
                    job,
                    NullProbe,
                    &null_cache,
                    &mut null_scratch,
                    JOB_EVENT_BUDGET,
                );
                null_time.accumulate(&t);
                (o, t)
            } else {
                let (o, p, t) = run_serial(
                    job,
                    std::mem::take(&mut profiler),
                    &traced_cache,
                    &mut traced_scratch,
                    JOB_EVENT_BUDGET,
                );
                // A panic loses the profiler; the run is already failed.
                profiler = p.unwrap_or_default();
                traced_time.accumulate(&t);
                (o, t)
            };
            record_spans(&mut spans, arm as u32, &job.label, start, &timings);
            tally.attempted += 1;
            let checked = outcome.and_then(|r| {
                let d = r.digest();
                traced.check(i, r)?;
                match &reference.digests[i] {
                    Some(want) if *want != d => Err(format!("digest {d} != untraced {want}")),
                    _ => Ok(()),
                }
            });
            if let Err(why) = checked {
                tally.fail(format!(
                    "{} ({}): {why}",
                    job.label,
                    ["untraced", "traced"][arm]
                ));
            }
        }
    }
    let profile = profiler.profile;
    let traced_digest = traced.combined();
    println!("traced_combined_digest {traced_digest}");
    if traced_digest != untraced_digest {
        tally
            .problems
            .push("traced combined digest differs from untraced".to_string());
    }
    if profile.events() != pass.events {
        tally.problems.push(format!(
            "traced dispatches {} != untraced events {}",
            profile.events(),
            pass.events
        ));
    }
    if profile.rx_calls != profile.rx_delivered {
        tally
            .problems
            .push("on_rx calls disagree with on_tx_end clean counts".to_string());
    }
    match std::fs::create_dir_all(SPAN_DIR).and_then(|_| {
        let path = format!(
            "{SPAN_DIR}/spans-{}-{}.json",
            args.workload.name(),
            args.seed
        );
        std::fs::write(&path, spans.finish()).map(|_| path)
    }) {
        Ok(path) => println!("spans written to {path}"),
        Err(e) => eprintln!("could not write spans: {e}"),
    }

    let results: Vec<&RunResult> = reference.results.iter().flatten().collect();
    let sum = |f: &dyn Fn(&RunResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>() as f64;
    let queries = |f: &dyn Fn(&QueryMetrics) -> u64| {
        let all = results.iter().flat_map(|r| &r.queries);
        all.map(f).sum::<u64>() as f64
    };
    if profile.tx_starts as f64 != sum(&|r| r.channel_transmissions) {
        tally
            .problems
            .push("on_tx_start calls disagree with channel transmissions".to_string());
    }
    let t = &pass.timings;
    let mut m = Metrics::default();
    m.add("harness.worker_idle_s", pass.idle_s, "s");
    m.add("wsn.build_s", t.build.as_secs_f64(), "s");
    m.add("wsn.run_s", t.run.as_secs_f64(), "s");
    m.add("wsn.finalize_s", t.finalize.as_secs_f64(), "s");
    m.add("sim.events", pass.events as f64, "count");
    m.add("sim.peak_queue_depth", pass.peak_queue as f64, "count");
    let ns_per_event = 1e9 * ratio(t.run.as_secs_f64(), pass.events as f64);
    m.add("sim.ns_per_event", ns_per_event, "ns");
    for (k, name) in KINDS.iter().enumerate() {
        let self_ms = profile.self_time[k].as_secs_f64() * 1e3;
        let count = profile.count[k] as f64;
        m.add(format!("dispatch.{name}.count"), count, "count");
        m.add(format!("dispatch.{name}.self_ms"), self_ms, "ms");
        m.add(
            format!("dispatch.{name}.ns_per"),
            1e6 * ratio(self_ms, count),
            "ns",
        );
    }
    let secs = |t: Duration| t.as_secs_f64();
    let overhead = ratio(secs(traced_time.total()), secs(null_time.total()));
    m.add("trace.overhead", overhead, "ratio");
    let coverage = ratio(secs(profile.total_self()), secs(traced_time.run));
    m.add("trace.coverage", coverage, "ratio");
    m.add(
        "net.channel.transmissions",
        sum(&|r| r.channel_transmissions),
        "count",
    );
    m.add(
        "net.channel.collisions",
        sum(&|r| r.channel_collisions),
        "count",
    );
    let (clean, corrupted) = (profile.rx_delivered as f64, profile.rx_corrupted as f64);
    m.add("net.channel.rx_delivered", clean, "count");
    m.add("net.channel.rx_corrupted", corrupted, "count");
    m.add(
        "net.channel.clean_ratio",
        ratio(clean, clean + corrupted),
        "ratio",
    );
    let data_tx = sum(&|r| r.mac.data_tx);
    m.add("net.mac.enqueued", sum(&|r| r.mac.enqueued), "count");
    m.add("net.mac.data_tx", data_tx, "count");
    m.add("net.mac.retries", sum(&|r| r.mac.retries), "count");
    m.add("net.mac.failed", sum(&|r| r.mac.failed), "count");
    m.add(
        "net.mac.useful_ratio",
        ratio(sum(&|r| r.mac.delivered), data_tx),
        "ratio",
    );
    m.add(
        "net.radio.transitions",
        profile.radio_transitions as f64,
        "count",
    );
    m.add(
        "core.sleep_checkpoints",
        profile.sleep_checkpoints as f64,
        "count",
    );
    for (a, name) in ACTIONS.iter().enumerate() {
        m.add(
            format!("core.policy_actions.{name}"),
            profile.actions[a] as f64,
            "count",
        );
    }
    m.add(
        "query.rounds_completed",
        queries(&|q| q.rounds_completed),
        "count",
    );
    m.add("query.rounds_full", queries(&|q| q.rounds_full), "count");
    m.add("wsn.repair.repairs", sum(&|r| r.repairs), "count");
    m.add("wsn.repair.redispatches", sum(&|r| r.redispatches), "count");
    m.add("scenario.node_down", profile.node_down as f64, "count");
    m.add("scenario.node_up", profile.node_up as f64, "count");
    m
}

/// A job span with its three phase spans nested inside.
fn record_spans(b: &mut PerfettoBuilder, tid: u32, label: &str, start: Duration, t: &RunTimings) {
    let ns = |d: Duration| d.as_nanos() as u64;
    let mut at = ns(start);
    b.complete(2, tid, label, at, ns(t.total()));
    for (phase, d) in [("build", t.build), ("run", t.run), ("finalize", t.finalize)] {
        b.complete(2, tid, phase, at, ns(d));
        at += ns(d);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: essat-repo-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let jobs = args.workload.plan(args.seed);
    let mut tally = Tally::default();
    check::golden(&mut tally);
    let mut reference = Reference::new(jobs.len());
    let metrics = if args.trace {
        per_layer(&args, &jobs, &mut tally, &mut reference)
    } else {
        end_to_end(&args, &jobs, &mut tally, &mut reference)
    };
    println!(
        "workload {} seed {} jobs {} combined_digest {}",
        args.workload.name(),
        args.seed,
        jobs.len(),
        reference.combined()
    );
    for p in &tally.problems {
        println!("problem: {p}");
    }
    let correct = tally.problems.is_empty()
        && tally.failed == 0
        && metrics.0.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
