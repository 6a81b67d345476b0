//! `essat-figures` — regenerate the paper's figures from the command
//! line.
//!
//! ```text
//! essat-figures [FIGURES|all] [--scale quick|paper] [--seed N]
//!               [--csv DIR] [--threads N] [--bench-json PATH]
//!               [--list-figures] [--trace PATH] [--sample PERIOD]
//!               [--profile PATH] [--failures-json PATH]
//!
//! FIGURES      any names --list-figures prints (default: all); an
//!              unknown name lists the valid set
//! --list-figures     print the valid figure names and exit
//! --scale S    quick (40 nodes, 50 s, 2 runs) or paper (80 nodes,
//!              200 s, 5 runs; the default)
//! --seed N     master seed (default 2024)
//! --csv DIR    also write each figure as CSV into DIR, plus
//!              digests.txt: one `RunResult::digest()` per job
//! --threads N  worker threads (default: all cores)
//! --bench-json PATH  write the run's performance record to PATH
//!              (none is written without it)
//! --trace PATH       run the first planned cell once more with the
//!              timeline tracer attached and write the per-node trace:
//!              Chrome/Perfetto JSON, or compact JSONL if PATH ends in
//!              .jsonl. Load the JSON at https://ui.perfetto.dev.
//! --sample PERIOD    same side-run with the time-series sampler at
//!              PERIOD seconds of sim time per row set; the CSV goes to
//!              samples.csv (inside --csv DIR when given)
//! --profile PATH     write the executor's wall-clock job profile as a
//!              Perfetto trace (one track per worker)
//! --failures-json PATH  machine-readable failed-job report, written
//!              only when jobs failed (default: FAILURES_harness.json)
//! ```
//!
//! The figures, their plans and their rendering come from one table,
//! [`FIGURES`]. All requested figures share one [`SweepExecutor`]: the
//! union of their plans drains across all cores as one job list with
//! no per-figure or per-point barrier. The executor's aggregate
//! statistics (wall-clock, events/second, peak event-queue depth) go to
//! stderr, and with `--bench-json` into a JSON record; the committed
//! `BENCH_harness.json` is one, which tracks the performance trajectory
//! run over run.

use std::fmt::Write as _;
use std::ops::Range;
use std::path::PathBuf;

use essat_harness::executor::{SweepCell, SweepExecutor};
use essat_harness::figures::{Grid, Plan, FIGURES};
use essat_harness::scale::Scale;
use essat_obs::sample::TimeSeriesSampler;
use essat_obs::trace::TimelineTracer;
use essat_obs::Fanout;
use essat_sim::time::SimDuration;
use essat_wsn::metrics::RunResult;
use essat_wsn::runner::run_probed;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut wanted = [false; FIGURES.len()];
    let mut scale = Scale::Paper;
    let mut seed = 2024u64;
    let mut csv_dir: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut bench_json: Option<PathBuf> = None;
    let mut failures_json = PathBuf::from("FAILURES_harness.json");
    let mut trace_path: Option<PathBuf> = None;
    let mut sample_period: Option<f64> = None;
    let mut profile_path: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale = match it.next().map(String::as_str) {
                    Some("quick") => Scale::Quick,
                    Some("paper") => Scale::Paper,
                    other => usage(&format!("--scale needs quick|paper, got {other:?}")),
                };
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--threads" => {
                threads = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--threads needs a number")),
                );
            }
            "--csv" => {
                csv_dir = Some(PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| usage("--csv needs a directory")),
                ));
            }
            "--bench-json" => {
                bench_json = Some(PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| usage("--bench-json needs a path")),
                ));
            }
            "--failures-json" => {
                failures_json = PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| usage("--failures-json needs a path")),
                );
            }
            "--trace" => {
                trace_path = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| usage("--trace needs a path")),
                ));
            }
            "--sample" => {
                let p: f64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--sample needs a period in seconds"));
                if p <= 0.0 || !p.is_finite() {
                    usage("--sample needs a positive period in seconds");
                }
                sample_period = Some(p);
            }
            "--profile" => {
                profile_path = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| usage("--profile needs a path")),
                ));
            }
            "--list-figures" => {
                println!("{}", figure_names("\n"));
                return;
            }
            "all" => wanted = [true; FIGURES.len()],
            other if other.starts_with('-') => usage(&format!("unknown argument: {other}")),
            name => match FIGURES.iter().position(|f| f.name == name) {
                Some(i) => wanted[i] = true,
                None => {
                    eprintln!("error: unknown figure '{name}'");
                    eprintln!("valid figures: {}", figure_names(" "));
                    std::process::exit(2);
                }
            },
        }
    }
    if !wanted.contains(&true) {
        // Quickstart default: regenerate everything.
        wanted = [true; FIGURES.len()];
    }
    let figures: Vec<_> = FIGURES
        .iter()
        .zip(wanted)
        .filter_map(|(f, w)| w.then_some(f))
        .collect();
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }

    let mut exec = match threads {
        Some(n) => SweepExecutor::with_threads(n),
        None => SweepExecutor::new(),
    };
    eprintln!(
        "# scale: {:?}, seed: {seed}, threads: {}, figures: {:?}",
        scale,
        exec.threads(),
        figures.iter().map(|f| f.name).collect::<Vec<_>>()
    );

    // Plan the union of the requested figures' plans, in job order, and
    // execute the whole invocation as ONE flat job list — no per-figure
    // barrier: an idle worker takes the next unclaimed job whatever
    // figure it belongs to.
    let mut cells = Vec::new();
    let mut spans: Vec<(Plan, Range<usize>)> = Vec::new();
    for plan in Plan::ALL {
        if figures.iter().any(|f| f.plans.contains(&plan)) {
            let start = cells.len();
            cells.extend(plan.cells(scale, seed));
            spans.push((plan, start..cells.len()));
        }
    }
    let total_jobs: u32 = cells.iter().map(|c: &SweepCell| c.runs).sum();
    eprintln!(
        "# executing {} simulation runs ({} sweep cells) as one job list…",
        total_jobs,
        cells.len()
    );
    // Panic-isolated execution: a failing job (a policy panic or an
    // exhausted event budget) becomes a failure report while every
    // other cell completes, and the figures below render from whatever
    // repetitions survived.
    let outcome = exec.run_checked(&cells);
    if let Some(report) = outcome.failure_summary() {
        eprintln!("{report}");
        match std::fs::write(&failures_json, outcome.failures_json()) {
            Ok(()) => eprintln!("# wrote {}", failures_json.display()),
            Err(e) => eprintln!("# could not write {}: {e}", failures_json.display()),
        }
    }
    let grid = outcome.results;
    if let Some(dir) = &csv_dir {
        let path = dir.join("digests.txt");
        std::fs::write(&path, digest_lines(&spans, &cells, &grid)).expect("write digests");
        eprintln!("# wrote {}", path.display());
    }
    let results_of = |plan: &Plan| -> &Grid {
        let (_, range) = spans.iter().find(|(p, _)| p == plan).expect("planned");
        &grid[range.clone()]
    };
    for fig in &figures {
        let grids: Vec<&Grid> = fig.plans.iter().map(results_of).collect();
        let rendered = (fig.render)(&grids, scale);
        for table in &rendered.tables {
            println!("{}", table.render_table());
            if let Some(dir) = &csv_dir {
                let path = dir.join(format!("{}.csv", table.id));
                std::fs::write(&path, table.to_csv()).expect("write csv");
                eprintln!("# wrote {}", path.display());
            }
        }
        print!("{}", rendered.notes);
    }

    // Observability side-run: one extra probed run of the first
    // planned cell's configuration. Probes only observe — the figure
    // grid above is untouched, and the probed run's digest equals the
    // unprobed one (pinned by `tests/probes.rs`).
    if trace_path.is_some() || sample_period.is_some() {
        let cfg = &cells.first().expect("at least one figure planned").cfg;
        eprintln!(
            "# probed side-run: {} seed {} ({} nodes)",
            cfg.protocol, cfg.seed, cfg.nodes
        );
        let (tracer, sampler) = match (&trace_path, sample_period) {
            (Some(_), Some(p)) => {
                let probe = Fanout(
                    TimelineTracer::new(),
                    TimeSeriesSampler::new(SimDuration::from_secs_f64(p)),
                );
                let (_, Fanout(t, s)) = run_probed(cfg, probe);
                (Some(t), Some(s))
            }
            (Some(_), None) => {
                let (_, t) = run_probed(cfg, TimelineTracer::new());
                (Some(t), None)
            }
            (None, Some(p)) => {
                let (_, s) = run_probed(cfg, TimeSeriesSampler::new(SimDuration::from_secs_f64(p)));
                (None, Some(s))
            }
            (None, None) => unreachable!("guarded above"),
        };
        if let (Some(path), Some(t)) = (&trace_path, &tracer) {
            let doc = if path.extension().is_some_and(|e| e == "jsonl") {
                t.to_jsonl()
            } else {
                t.to_perfetto_json()
            };
            match std::fs::write(path, doc) {
                Ok(()) => eprintln!(
                    "# wrote {} ({} trace events)",
                    path.display(),
                    t.events().len()
                ),
                Err(e) => eprintln!("# could not write {}: {e}", path.display()),
            }
        }
        if let Some(s) = &sampler {
            let path = csv_dir
                .as_ref()
                .map(|d| d.join("samples.csv"))
                .unwrap_or_else(|| PathBuf::from("samples.csv"));
            match std::fs::write(&path, s.to_csv()) {
                Ok(()) => eprintln!(
                    "# wrote {} ({} sample rows)",
                    path.display(),
                    s.rows().len()
                ),
                Err(e) => eprintln!("# could not write {}: {e}", path.display()),
            }
        }
    }

    let stats = exec.stats();
    eprintln!(
        "# {} runs, {:.1}s wall, {:.0} events/s, peak queue {}",
        stats.jobs,
        stats.wall.as_secs_f64(),
        stats.events_per_sec(),
        stats.peak_queue_depth
    );
    // Performance record, only when asked for: one JSON document per
    // invocation, stamped with the workload descriptor so the CI bench
    // gate refuses to compare throughput across different job sets.
    if let Some(path) = &bench_json {
        let planned: Vec<&str> = spans.iter().map(|(plan, _)| plan.key()).collect();
        let scale_key = match scale {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        };
        let workload = essat_harness::executor::Workload::new(&planned, scale_key, seed, &cells);
        let json = stats.to_json_with(exec.threads(), Some(&workload));
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!("# wrote {}", path.display()),
            Err(e) => eprintln!("# could not write {}: {e}", path.display()),
        }
    }
    if let Some(path) = &profile_path {
        match std::fs::write(path, exec.profile_perfetto()) {
            Ok(()) => eprintln!(
                "# wrote {} ({} jobs profiled)",
                path.display(),
                exec.profiles().len()
            ),
            Err(e) => eprintln!("# could not write {}: {e}", path.display()),
        }
    }
}

/// The per-job digest oracle: a `# digest-version:` header, then one
/// `<plan key> <cell index within the plan> <protocol> <seed> <digest>`
/// line per completed job, in job order. Failed jobs have no line.
fn digest_lines(
    spans: &[(Plan, Range<usize>)],
    cells: &[SweepCell],
    grid: &[Vec<RunResult>],
) -> String {
    let mut out = format!("# digest-version: {}\n", RunResult::DIGEST_VERSION);
    for (plan, range) in spans {
        for (ci, i) in range.clone().enumerate() {
            let protocol = cells[i].cfg.protocol;
            for r in &grid[i] {
                let _ = writeln!(
                    out,
                    "{} {ci} {protocol} {} {}",
                    plan.key(),
                    r.seed,
                    r.digest()
                );
            }
        }
    }
    out
}

/// The figure names of [`FIGURES`], in output order.
fn figure_names(sep: &str) -> String {
    FIGURES.map(|f| f.name).join(sep)
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: essat-figures [{}|all]… [--list-figures] [--scale quick|paper] [--seed N] \
         [--csv DIR] [--threads N] [--bench-json PATH] [--failures-json PATH] \
         [--trace PATH] [--sample SECONDS] [--profile PATH]",
        figure_names("|")
    );
    std::process::exit(2);
}
