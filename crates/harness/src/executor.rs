//! The parallel sweep executor: one flat, deterministic job list over
//! all cores.
//!
//! The paper's evaluation is a grid — figures × sweep points × protocols
//! × repetitions — of fully independent simulation runs, each data point
//! averaged over repetitions with derived seeds. The executor is the one
//! path for running many worlds: it flattens **every**
//! `(cell, repetition)` tuple into a single job list and lets a pool of
//! workers self-schedule off one shared atomic cursor. An idle worker
//! always steals the next unclaimed job, whatever figure it belongs to,
//! so the grid drains with no per-point barriers at all.
//!
//! Determinism: each job is a pure function of its `ExperimentConfig`
//! (seed included), and results land in pre-assigned slots indexed by
//! job id — the assembled output is byte-identical whatever the thread
//! count or interleaving (see `tests/determinism.rs`).
//!
//! The executor also aggregates the run statistics —
//! wall-clock, events processed, events/second, peak event-queue depth —
//! that the `essat-figures` binary writes to `BENCH_harness.json`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use essat_net::ids::NodeId;
use essat_obs::json::escape;
use essat_obs::perfetto::PerfettoBuilder;
use essat_obs::profile::RunTimings;
use essat_obs::NullProbe;
use essat_wsn::config::{ExperimentConfig, Protocol};
use essat_wsn::metrics::RunResult;
use essat_wsn::payload::Payload;
use essat_wsn::protocol::{PolicyEnv, PowerPolicy};
use essat_wsn::sim::{BuildCache, World, WorldScratch};

/// A thread-safe per-node policy constructor — the executor's variant
/// of [`essat_wsn::protocol::PolicyFactory`] (workers on several
/// threads consult it concurrently, hence the extra `Sync` bound).
pub type SyncPolicyFactory<'f> =
    dyn Fn(&ExperimentConfig, NodeId, &PolicyEnv<'_>) -> Box<dyn PowerPolicy<Payload>> + Sync + 'f;

/// One sweep cell: a configuration to repeat `runs` times with derived
/// seeds (`seed, seed+1, …` — the paper's repetition protocol).
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Base configuration (its `seed` is the first repetition's seed).
    pub cfg: ExperimentConfig,
    /// Number of repetitions.
    pub runs: u32,
}

impl SweepCell {
    /// A cell with the standard repetition count for its scale.
    pub fn new(cfg: ExperimentConfig, runs: u32) -> Self {
        assert!(runs > 0, "a sweep cell needs at least one run");
        SweepCell { cfg, runs }
    }
}

/// One worker thread's share of a sweep: how many jobs it claimed and
/// how long it spent executing them (claim to result). The difference
/// between `busy` and the executor wall clock is the worker's idle
/// tail — the utilization figure in `BENCH_harness.json`.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Jobs this worker completed (including failed ones).
    pub jobs: u64,
    /// Wall-clock spent executing jobs.
    pub busy: Duration,
}

/// Identifies *what* a bench record measured: the figure set, scale,
/// job count, and a hash of every job's full configuration.
///
/// `BENCH_harness.json` embeds this so the CI bench gate only compares
/// `events_per_sec` between records that measured the same work. The
/// committed record once changed workloads silently — a new figure grew
/// the job set 173 → 221 and the recorded throughput "dropped" 5.22M →
/// 4.59M events/s with no code regression at all — so a raw number
/// comparison can both mask real regressions and false-trip on
/// workload growth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Figure keys, in planning order.
    pub figures: Vec<String>,
    /// `quick` or `paper`.
    pub scale: String,
    /// Base seed the sweep was planned with.
    pub seed: u64,
    /// Total simulation runs (cells × repetitions).
    pub jobs: u32,
    /// FNV-1a 64 over the canonical rendering of every cell's
    /// configuration and repetition count, in job order.
    pub config_hash: u64,
}

impl Workload {
    /// Builds the descriptor for a planned job list.
    pub fn new(figures: &[&str], scale: &str, seed: u64, cells: &[SweepCell]) -> Workload {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for c in cells {
            for b in format!("{:?}*{}", c.cfg, c.runs).bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        Workload {
            figures: figures.iter().map(|f| f.to_string()).collect(),
            scale: scale.to_string(),
            seed,
            jobs: cells.iter().map(|c| c.runs).sum(),
            config_hash: h,
        }
    }

    /// Renders the descriptor as the `workload` JSON object.
    ///
    /// The hash is hex-encoded: a u64 does not survive a round-trip
    /// through JSON readers that parse numbers as doubles.
    pub fn to_json(&self) -> String {
        let figs = self
            .figures
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"figures\": [{figs}], \"scale\": \"{}\", \"seed\": {}, \"jobs\": {}, \
             \"config_hash\": \"{:016x}\"}}",
            self.scale, self.seed, self.jobs, self.config_hash
        )
    }
}

/// Aggregate statistics over everything an executor has run.
#[derive(Debug, Clone, Default)]
pub struct ExecutorStats {
    /// Simulation runs completed.
    pub jobs: u64,
    /// Total simulation events processed.
    pub events: u64,
    /// Largest pending-event set seen in any run.
    pub peak_queue_depth: u64,
    /// Wall-clock time spent inside [`SweepExecutor::run`].
    pub wall: Duration,
    /// Per-phase simulation timings summed over all successful jobs
    /// (CPU time, so with N workers the sum can exceed `wall`).
    pub timings: RunTimings,
    /// Per-worker utilization, indexed by worker id. Accumulates
    /// across runs; a later run with fewer jobs than workers leaves
    /// the surplus workers' entries untouched.
    pub workers: Vec<WorkerStats>,
}

impl ExecutorStats {
    /// Events per wall-clock second (0 if nothing ran).
    pub fn events_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.events as f64 / s
        } else {
            0.0
        }
    }

    /// Renders the stats as a `BENCH_harness.json` document.
    ///
    /// The original keys (`threads` … `peak_queue_depth`) are stable —
    /// CI's bench gate reads `events_per_sec` from the committed
    /// baseline — with the profiling extension appended: per-phase
    /// CPU-time totals and the per-worker utilization array.
    pub fn to_json(&self, threads: usize) -> String {
        self.to_json_with(threads, None)
    }

    /// [`ExecutorStats::to_json`] with an embedded [`Workload`]
    /// descriptor, so the record states what it measured and the bench
    /// gate can refuse to compare across different job sets.
    pub fn to_json_with(&self, threads: usize, workload: Option<&Workload>) -> String {
        let mut workers = String::from("[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                workers.push_str(", ");
            }
            workers.push_str(&format!(
                "{{\"jobs\": {}, \"busy_s\": {:.3}}}",
                w.jobs,
                w.busy.as_secs_f64()
            ));
        }
        workers.push(']');
        let workload = match workload {
            Some(w) => format!("  \"workload\": {},\n", w.to_json()),
            None => String::new(),
        };
        format!(
            "{{\n{workload}  \"threads\": {threads},\n  \"jobs\": {},\n  \"events\": {},\n  \
             \"wall_clock_s\": {:.3},\n  \"events_per_sec\": {:.0},\n  \
             \"peak_queue_depth\": {},\n  \"build_s\": {:.3},\n  \"run_s\": {:.3},\n  \
             \"finalize_s\": {:.3},\n  \"workers\": {workers}\n}}\n",
            self.jobs,
            self.events,
            self.wall.as_secs_f64(),
            self.events_per_sec(),
            self.peak_queue_depth,
            self.timings.build.as_secs_f64(),
            self.timings.run.as_secs_f64(),
            self.timings.finalize.as_secs_f64(),
        )
    }
}

/// One job's wall-clock profile: where it ran, when it started
/// (relative to its [`SweepExecutor::run`] call), and how long each
/// phase took. Pure measurement — nondeterministic by nature, never
/// fed back into any simulation.
#[derive(Debug, Clone, Copy)]
pub struct JobProfile {
    /// Index into the `cells` slice passed to the run.
    pub cell: usize,
    /// Repetition index within the cell.
    pub rep: u32,
    /// Worker thread that ran the job.
    pub worker: usize,
    /// Job start, as an offset from the start of the executor run.
    pub start: Duration,
    /// Claim-to-result wall-clock (includes panic isolation overhead).
    pub wall: Duration,
    /// Per-phase simulation timings of the successful attempt.
    pub timings: RunTimings,
}

/// One job that did not produce a result: which cell and repetition,
/// how it died, and whether the retry was spent. The sweep keeps
/// going — every other `(protocol, point, rep)` still completes — and
/// the failure surfaces here instead of aborting the grid.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Index into the `cells` slice passed to the run.
    pub cell: usize,
    /// Repetition index within the cell.
    pub rep: u32,
    /// Protocol label of the failed job's configuration.
    pub protocol: String,
    /// The repetition's derived seed.
    pub seed: u64,
    /// Panic message, or the budget-exhaustion note.
    pub reason: String,
    /// True if the job was retried once (panics are retried on a fresh
    /// scratch; deterministic budget exhaustion is not — it would fail
    /// identically).
    pub retried: bool,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {} rep {} ({}, seed {}){}: {}",
            self.cell,
            self.rep,
            self.protocol,
            self.seed,
            if self.retried { ", after retry" } else { "" },
            self.reason
        )
    }
}

/// What a checked sweep produced: per-cell results (failed repetitions
/// simply absent, so a cell may hold fewer runs than requested — or
/// none) plus the structured failure list, ordered by job.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Per cell, the completed repetition results ordered by seed.
    pub results: Vec<Vec<RunResult>>,
    /// Every job that produced no result.
    pub failures: Vec<JobFailure>,
}

impl SweepOutcome {
    /// A human-readable failure report, `None` when everything ran.
    pub fn failure_summary(&self) -> Option<String> {
        if self.failures.is_empty() {
            return None;
        }
        let mut s = format!("{} sweep job(s) failed:\n", self.failures.len());
        for f in &self.failures {
            s.push_str("  ");
            s.push_str(&f.to_string());
            s.push('\n');
        }
        Some(s)
    }

    /// The failure list as a machine-readable JSON document
    /// (`{"failures": [...]}`; the array is empty when everything ran).
    pub fn failures_json(&self) -> String {
        let mut s = String::from("{\n  \"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"cell\": {}, \"rep\": {}, \"protocol\": \"{}\", \"seed\": {}, \
                 \"reason\": \"{}\", \"retried\": {}}}",
                f.cell,
                f.rep,
                escape(&f.protocol),
                f.seed,
                escape(&f.reason),
                f.retried
            ));
        }
        if !self.failures.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

/// Work-stealing executor over sweep grids. Reusable: statistics
/// accumulate across [`SweepExecutor::run`] calls.
#[derive(Debug)]
pub struct SweepExecutor {
    threads: usize,
    stats: ExecutorStats,
    event_budget: Option<u64>,
    profiles: Vec<JobProfile>,
}

impl Default for SweepExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepExecutor {
    /// An executor over all available cores.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(threads)
    }

    /// An executor with an explicit worker count (1 = serial reference
    /// executor; the determinism tests compare it against the parallel
    /// one).
    pub fn with_threads(threads: usize) -> Self {
        SweepExecutor {
            threads: threads.max(1),
            stats: ExecutorStats::default(),
            event_budget: None,
            profiles: Vec::new(),
        }
    }

    /// Caps every job at `budget` processed events. A job that has not
    /// reached its configured duration by then is abandoned and
    /// reported as a [`JobFailure`] — a deterministic runaway guard
    /// (event counts, unlike wall clocks, are identical across
    /// machines, thread counts, and replays).
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        assert!(budget > 0, "an event budget of zero would fail every job");
        self.event_budget = Some(budget);
        self
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> ExecutorStats {
        self.stats.clone()
    }

    /// Per-job wall-clock profiles accumulated so far, ordered by job
    /// (cell, then repetition) within each run.
    pub fn profiles(&self) -> &[JobProfile] {
        &self.profiles
    }

    /// Renders the accumulated job profiles as a Chrome/Perfetto
    /// trace-event document: one process (`pid` 1, "essat executor"),
    /// one thread track per worker, one complete event per job. Loads
    /// directly in `ui.perfetto.dev`; timestamps are wall-clock offsets
    /// from the start of the (latest) executor run.
    pub fn profile_perfetto(&self) -> String {
        let mut b = PerfettoBuilder::new();
        b.process_name(1, "essat executor");
        let workers = self
            .profiles
            .iter()
            .map(|p| p.worker + 1)
            .max()
            .unwrap_or(0);
        for w in 0..workers {
            b.thread_name(1, w as u32, &format!("worker {w}"));
        }
        for p in &self.profiles {
            b.complete(
                1,
                p.worker as u32,
                &format!("cell {} rep {}", p.cell, p.rep),
                p.start.as_nanos() as u64,
                p.wall.as_nanos() as u64,
            );
        }
        b.finish()
    }

    /// Runs every `(cell, repetition)` job across the worker pool and
    /// returns, per cell, its repetition results ordered by seed.
    ///
    /// # Panics
    ///
    /// Panics with the aggregated failure report if any job failed —
    /// the strict entry point for callers that treat a failed job as a
    /// bug. Figure builders use [`SweepExecutor::run_checked`] and emit
    /// partial results instead.
    pub fn run(&mut self, cells: &[SweepCell]) -> Vec<Vec<RunResult>> {
        let out = self.run_checked(cells);
        if let Some(report) = out.failure_summary() {
            panic!("{report}");
        }
        out.results
    }

    /// [`SweepExecutor::run`] with panic isolation: each job runs under
    /// `catch_unwind` (with one retry on a fresh scratch) and an
    /// optional deterministic event budget; jobs that still fail become
    /// [`JobFailure`] records while the rest of the grid completes.
    pub fn run_checked(&mut self, cells: &[SweepCell]) -> SweepOutcome {
        self.run_checked_with(cells, &Protocol::build_policy)
    }

    /// [`SweepExecutor::run_checked`] over a custom policy factory —
    /// the out-of-tree-policy seam, panic-isolated: a factory (or
    /// policy) that panics takes down its own job, not the sweep.
    pub fn run_checked_with(
        &mut self,
        cells: &[SweepCell],
        factory: &SyncPolicyFactory<'_>,
    ) -> SweepOutcome {
        let t0 = Instant::now();
        // Flatten the grid into one deterministic job list.
        let mut jobs: Vec<(usize, u32, ExperimentConfig)> = Vec::new();
        for (ci, cell) in cells.iter().enumerate() {
            for rep in 0..cell.runs {
                let mut cfg = cell.cfg.clone();
                cfg.seed = cell.cfg.seed.wrapping_add(rep as u64);
                jobs.push((ci, rep, cfg));
            }
        }
        let cursor = AtomicUsize::new(0);
        type Slot = Mutex<Option<(Result<RunResult, JobFailure>, JobProfile)>>;
        let slots: Vec<Slot> = jobs.iter().map(|_| Mutex::new(None)).collect();
        let workers = self.threads.min(jobs.len()).max(1);
        let budget = self.event_budget;
        // Shared immutable build cache: every job at the same
        // (topology, seed) sweep point — all protocols, all repetitions
        // with the same derived seed — reuses one topology + routing
        // tree + channel adjacency instead of rebuilding them per job.
        let cache = BuildCache::new();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (jobs, cursor, slots, cache) = (&jobs, &cursor, &slots, &cache);
                scope.spawn(move || {
                    // Worker-local scratch: the event-queue slab, channel
                    // buffer pools and action buffers warmed by one job
                    // are recycled into the next.
                    let mut scratch = WorldScratch::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some((ci, rep, cfg)) = jobs.get(i) else {
                            break;
                        };
                        let start = t0.elapsed();
                        let claimed = Instant::now();
                        let mut timings = RunTimings::default();
                        let outcome = Self::run_job(
                            cfg,
                            factory,
                            cache,
                            &mut scratch,
                            budget,
                            *ci,
                            *rep,
                            &mut timings,
                        );
                        let profile = JobProfile {
                            cell: *ci,
                            rep: *rep,
                            worker: w,
                            start,
                            wall: claimed.elapsed(),
                            timings,
                        };
                        *slots[i].lock().expect("result slot poisoned") = Some((outcome, profile));
                    }
                });
            }
        });
        // Deterministic assembly: slot order == job order == cell order.
        let mut results: Vec<Vec<RunResult>> = cells
            .iter()
            .map(|c| Vec::with_capacity(c.runs as usize))
            .collect();
        let mut failures = Vec::new();
        if self.stats.workers.len() < workers {
            self.stats.workers.resize(workers, WorkerStats::default());
        }
        for ((ci, _, _), slot) in jobs.iter().zip(slots) {
            let (outcome, profile) = slot
                .into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot");
            let ws = &mut self.stats.workers[profile.worker];
            ws.jobs += 1;
            ws.busy += profile.wall;
            match outcome {
                Ok(r) => {
                    self.stats.jobs += 1;
                    self.stats.events += r.events_processed;
                    self.stats.peak_queue_depth =
                        self.stats.peak_queue_depth.max(r.peak_queue_depth);
                    self.stats.timings.accumulate(&profile.timings);
                    results[*ci].push(r);
                }
                Err(f) => failures.push(f),
            }
            self.profiles.push(profile);
        }
        self.stats.wall += t0.elapsed();
        SweepOutcome { results, failures }
    }

    /// One panic-isolated job: run, retry once on panic (with a fresh
    /// scratch — a panic can leave the recycled buffers inconsistent),
    /// and turn whatever is left into a structured failure. `timings`
    /// receives the per-phase wall-clock of the last attempt.
    #[allow(clippy::too_many_arguments)]
    fn run_job(
        cfg: &ExperimentConfig,
        factory: &SyncPolicyFactory<'_>,
        cache: &BuildCache,
        scratch: &mut WorldScratch,
        budget: Option<u64>,
        cell: usize,
        rep: u32,
        timings: &mut RunTimings,
    ) -> Result<RunResult, JobFailure> {
        let fail = |reason: String, retried: bool| JobFailure {
            cell,
            rep,
            protocol: cfg.protocol.to_string(),
            seed: cfg.seed,
            reason,
            retried,
        };
        let budget_reason = || {
            format!(
                "event budget exhausted ({} events) before the configured duration",
                budget.unwrap_or(0)
            )
        };
        let attempt = |scratch: &mut WorldScratch, timings: &mut RunTimings| {
            *timings = RunTimings::default();
            catch_unwind(AssertUnwindSafe(|| {
                World::run_instrumented(
                    cfg,
                    &|c, n, e| factory(c, n, e),
                    Some(cache),
                    scratch,
                    budget,
                    NullProbe,
                    timings,
                )
                .0
            }))
        };
        match attempt(scratch, timings) {
            Ok(Some(r)) => Ok(r),
            // Budget exhaustion is deterministic: a retry would burn
            // the same events to the same end. Fail immediately.
            Ok(None) => Err(fail(budget_reason(), false)),
            Err(payload) => {
                let first = panic_message(payload);
                *scratch = WorldScratch::new();
                match attempt(scratch, timings) {
                    Ok(Some(r)) => Ok(r),
                    Ok(None) => Err(fail(budget_reason(), true)),
                    Err(payload2) => {
                        *scratch = WorldScratch::new();
                        let second = panic_message(payload2);
                        let reason = if first == second {
                            format!("panicked twice: {second}")
                        } else {
                            format!("panicked: {first}; then on retry: {second}")
                        };
                        Err(fail(reason, true))
                    }
                }
            }
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use essat_sim::time::SimDuration;
    use essat_wsn::config::{Protocol, WorkloadSpec};

    fn tiny(seed: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick(Protocol::NtsSs, WorkloadSpec::paper(1.0), seed);
        cfg.nodes = 12;
        cfg.area_side = 220.0;
        cfg.duration = SimDuration::from_secs(6);
        cfg
    }

    #[test]
    fn results_ordered_by_cell_and_seed() {
        let cells = vec![SweepCell::new(tiny(10), 2), SweepCell::new(tiny(50), 3)];
        let mut ex = SweepExecutor::with_threads(4);
        let out = ex.run(&cells);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].len(), 2);
        assert_eq!(out[1].len(), 3);
        assert_eq!(out[0][0].seed, 10);
        assert_eq!(out[0][1].seed, 11);
        assert_eq!(
            out[1].iter().map(|r| r.seed).collect::<Vec<_>>(),
            vec![50, 51, 52]
        );
    }

    #[test]
    fn parallel_matches_serial() {
        let cells = vec![SweepCell::new(tiny(7), 3), SweepCell::new(tiny(8), 2)];
        let serial = SweepExecutor::with_threads(1).run(&cells);
        let parallel = SweepExecutor::with_threads(8).run(&cells);
        for (s_cell, p_cell) in serial.iter().zip(&parallel) {
            for (s, p) in s_cell.iter().zip(p_cell) {
                assert_eq!(s.seed, p.seed);
                assert_eq!(s.events_processed, p.events_processed);
                assert_eq!(s.avg_duty_cycle_pct(), p.avg_duty_cycle_pct());
                assert_eq!(s.avg_latency_s(), p.avg_latency_s());
            }
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut ex = SweepExecutor::with_threads(2);
        ex.run(&[SweepCell::new(tiny(1), 1)]);
        let first = ex.stats();
        assert_eq!(first.jobs, 1);
        assert!(first.events > 0);
        assert!(first.peak_queue_depth > 0);
        ex.run(&[SweepCell::new(tiny(2), 2)]);
        let second = ex.stats();
        assert_eq!(second.jobs, 3);
        assert!(second.events > first.events);
        let json = second.to_json(2);
        assert!(json.contains("\"jobs\": 3"));
        assert!(json.contains("events_per_sec"));
    }
}
