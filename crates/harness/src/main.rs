//! `essat-figures` — regenerate the paper's figures from the command
//! line.
//!
//! ```text
//! essat-figures [FIGURES|all] [--scale quick|paper] [--seed N]
//!               [--csv DIR] [--threads N] [--bench-json PATH]
//!               [--figure NAME] [--list-figures] [--trace PATH]
//!               [--sample PERIOD] [--profile PATH]
//!               [--failures-json PATH]
//!
//! FIGURES      any of: fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9
//!              headline overhead lifetime robustness drift
//!              self_healing (default: all)
//! --figure NAME      select a figure by name (same as the bare name;
//!              unknown names list the valid set)
//! --list-figures     print the valid figure names and exit
//! --scale S    quick (40 nodes, 50 s, 2 runs) or paper (80 nodes,
//!              200 s, 5 runs; the default). --quick is shorthand for
//!              --scale quick.
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
//! All requested figures share one [`SweepExecutor`]: the whole
//! `(figure, sweep point, protocol, repetition)` grid drains across all
//! cores with no per-point barrier. The executor's aggregate
//! statistics (wall-clock, events/second, peak event-queue depth) go to
//! stderr, and with `--bench-json` into a JSON record; the committed
//! `BENCH_harness.json` is one, which tracks the performance trajectory
//! run over run.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;

use essat_harness::executor::{SweepCell, SweepExecutor};
use essat_harness::figures::{self, QuerySweepData, RateSweepData};
use essat_harness::scale::Scale;
use essat_harness::table::FigureData;
use essat_obs::sample::TimeSeriesSampler;
use essat_obs::trace::TimelineTracer;
use essat_obs::Fanout;
use essat_sim::time::SimDuration;
use essat_wsn::metrics::RunResult;
use essat_wsn::runner::run_probed;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut wanted: BTreeSet<String> = BTreeSet::new();
    let mut scale = Scale::Paper;
    let mut seed = 2024u64;
    let mut csv_dir: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut bench_json: Option<PathBuf> = None;
    let mut failures_json = PathBuf::from("FAILURES_harness.json");
    let mut trace_path: Option<PathBuf> = None;
    let mut sample_period: Option<f64> = None;
    let mut profile_path: Option<PathBuf> = None;

    let all_figures = [
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "headline",
        "overhead",
        "lifetime",
        "robustness",
        "drift",
        "self_healing",
    ];
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
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
                for f in all_figures {
                    println!("{f}");
                }
                return;
            }
            "--figure" => {
                let name = it
                    .next()
                    .unwrap_or_else(|| usage("--figure needs a figure name"));
                if !all_figures.contains(&name.as_str()) {
                    unknown_figure(name, &all_figures);
                }
                wanted.insert(name.clone());
            }
            "all" => {
                for f in all_figures {
                    wanted.insert(f.to_string());
                }
            }
            name if all_figures.contains(&name) => {
                wanted.insert(name.to_string());
            }
            other if !other.starts_with('-') => unknown_figure(other, &all_figures),
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    if wanted.is_empty() {
        // Quickstart default: regenerate everything.
        for f in all_figures {
            wanted.insert(f.to_string());
        }
    }
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
        wanted.iter().collect::<Vec<_>>()
    );

    // Plan every requested figure up front and execute the whole
    // invocation as ONE flat job list — no per-figure barrier: an idle
    // worker takes the next unclaimed job whatever figure it belongs to.
    let needs_rate = ["fig3", "fig6", "headline", "overhead"]
        .iter()
        .any(|f| wanted.contains(*f));
    let needs_query = ["fig4", "fig7", "headline"]
        .iter()
        .any(|f| wanted.contains(*f));
    let mut cells = Vec::new();
    let mut spans: Vec<(&str, usize, usize)> = Vec::new();
    let mut plan = |key: &'static str, mut figure_cells: Vec<_>, cells: &mut Vec<_>| {
        spans.push((key, cells.len(), figure_cells.len()));
        cells.append(&mut figure_cells);
    };
    if needs_rate {
        plan("rate", figures::rate_sweep_cells(scale, seed), &mut cells);
    }
    if needs_query {
        plan("query", figures::query_sweep_cells(scale, seed), &mut cells);
    }
    if wanted.contains("fig2") {
        plan(
            "fig2",
            figures::fig2_deadline_cells(scale, seed),
            &mut cells,
        );
    }
    if wanted.contains("fig5") {
        plan(
            "fig5",
            figures::fig5_rank_profile_cells(scale, seed),
            &mut cells,
        );
    }
    if wanted.contains("fig8") {
        plan(
            "fig8",
            figures::fig8_sleep_hist_cells(scale, seed),
            &mut cells,
        );
    }
    if wanted.contains("fig9") {
        plan("fig9", figures::fig9_tbe_cells(scale, seed), &mut cells);
    }
    if wanted.contains("lifetime") {
        plan("lifetime", figures::lifetime_cells(scale, seed), &mut cells);
    }
    if wanted.contains("robustness") {
        plan(
            "robustness",
            figures::robustness_cells(scale, seed),
            &mut cells,
        );
    }
    if wanted.contains("drift") {
        plan("drift", figures::drift_cells(scale, seed), &mut cells);
    }
    if wanted.contains("self_healing") {
        plan(
            "self_healing",
            figures::self_healing_cells(scale, seed),
            &mut cells,
        );
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
    let slice = |key: &str| {
        spans
            .iter()
            .find(|(k, _, _)| *k == key)
            .map(|&(_, start, len)| &grid[start..start + len])
    };

    let rate: Option<RateSweepData> = slice("rate").map(|g| figures::rate_sweep_from(g, scale));
    let query: Option<QuerySweepData> = slice("query").map(|g| figures::query_sweep_from(g, scale));

    let emit = |fig: &FigureData| {
        println!("{}", fig.render_table());
        if let Some(dir) = &csv_dir {
            let path = dir.join(format!("{}.csv", fig.id));
            std::fs::write(&path, fig.to_csv()).expect("write csv");
            eprintln!("# wrote {}", path.display());
        }
    };

    if wanted.contains("fig2") {
        emit(&figures::fig2_deadline_from(
            slice("fig2").expect("planned"),
            scale,
        ));
    }
    if wanted.contains("fig3") {
        emit(&rate.as_ref().expect("computed").duty);
    }
    if wanted.contains("fig4") {
        emit(&query.as_ref().expect("computed").duty);
    }
    if wanted.contains("fig5") {
        emit(&figures::fig5_rank_profile_from(
            slice("fig5").expect("planned"),
        ));
    }
    if wanted.contains("fig6") {
        emit(&rate.as_ref().expect("computed").latency);
    }
    if wanted.contains("fig7") {
        emit(&query.as_ref().expect("computed").latency);
    }
    if wanted.contains("fig8") {
        let data = figures::fig8_sleep_hist_from(slice("fig8").expect("planned"));
        emit(&data.histogram);
        println!("fraction of sleep intervals < 2.5 ms (paper: NTS 0.40%, STS 0.85%, DTS 6.33%):");
        for (label, pct) in &data.below_2_5ms_pct {
            println!("  {label:>8}: {pct:5.2}%");
        }
        println!();
    }
    if wanted.contains("fig9") {
        emit(&figures::fig9_tbe_from(
            slice("fig9").expect("planned"),
            scale,
        ));
    }
    if wanted.contains("lifetime") {
        emit(&figures::lifetime_from(slice("lifetime").expect("planned")));
        println!("protocol_index legend (energy_drain preset):");
        for (i, p) in figures::SCENARIO_PROTOCOLS.iter().enumerate() {
            println!("  {i}: {p}");
        }
        println!();
    }
    if wanted.contains("robustness") {
        emit(&figures::robustness_from(
            slice("robustness").expect("planned"),
        ));
        println!("preset_index legend:");
        for (i, name) in figures::ROBUSTNESS_PRESETS.iter().enumerate() {
            println!("  {i}: {name}");
        }
        println!();
    }
    if wanted.contains("drift") {
        let data = figures::drift_from(slice("drift").expect("planned"), scale);
        emit(&data.delivery);
        emit(&data.missed);
    }
    if wanted.contains("self_healing") {
        let data = figures::self_healing_from(slice("self_healing").expect("planned"));
        emit(&data.delivery);
        emit(&data.in_partition);
        emit(&data.time_to_partition);
        emit(&data.activity);
        println!("protocol_index legend (churn + bursty_links presets, repair on vs off):");
        for (i, p) in essat_wsn::config::Protocol::all().iter().enumerate() {
            println!("  {i}: {p}");
        }
        println!();
    }
    if wanted.contains("overhead") {
        let series = &rate.as_ref().expect("computed").dts_overhead_bits;
        println!("== overhead — DTS phase-update overhead (paper: < 1 bit per data report)");
        for p in &series.points {
            println!("  base rate {:3.1} Hz: {:6.4} bits/report", p.x, p.y);
        }
        println!();
    }
    if wanted.contains("headline") {
        let h = figures::headline(
            rate.as_ref().expect("computed"),
            query.as_ref().expect("computed"),
        );
        println!("{}", h.render());
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
        let planned: Vec<&str> = spans.iter().map(|&(k, _, _)| k).collect();
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
    spans: &[(&str, usize, usize)],
    cells: &[SweepCell],
    grid: &[Vec<RunResult>],
) -> String {
    let mut out = format!("# digest-version: {}\n", RunResult::DIGEST_VERSION);
    for &(key, start, len) in spans {
        for ci in 0..len {
            let protocol = cells[start + ci].cfg.protocol;
            for r in &grid[start + ci] {
                let _ = writeln!(out, "{key} {ci} {protocol} {} {}", r.seed, r.digest());
            }
        }
    }
    out
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: essat-figures [fig2..fig9|headline|overhead|lifetime|robustness|drift|self_healing|all]… \
         [--figure NAME] [--list-figures] [--scale quick|paper] [--seed N] [--csv DIR] \
         [--threads N] [--bench-json PATH] [--failures-json PATH] [--trace PATH] \
         [--sample SECONDS] [--profile PATH]"
    );
    std::process::exit(2);
}

fn unknown_figure(name: &str, all: &[&str]) -> ! {
    eprintln!("error: unknown figure '{name}'");
    eprintln!("valid figures: {}", all.join(" "));
    std::process::exit(2);
}
