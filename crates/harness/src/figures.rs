//! The paper's evaluation (§5) as one table.
//!
//! [`FIGURES`] lists, in output order, every figure `essat-figures` can
//! print: its name, the sweep [`Plan`]s it reads and how it renders.
//! Which plans an invocation runs, what it prints, the CLI's figure
//! names and the `digests.txt` keys are all derived from it.
//!
//! | figure | paper | plans | series |
//! |--------|-------|-------|--------|
//! | `fig2` | Fig. 2 | [`Plan::Fig2`] | STS-SS duty cycle & query latency vs deadline |
//! | `fig3`, `fig6` | Figs. 3 & 6 | [`Plan::Rate`] | duty / latency vs base rate, all protocols |
//! | `fig4`, `fig7` | Figs. 4 & 7 | [`Plan::Query`] | duty / latency vs queries per class |
//! | `fig5` | Fig. 5 | [`Plan::Fig5`] | duty cycle vs routing-tree rank |
//! | `fig8` | Fig. 8 | [`Plan::Fig8`] | sleep-interval histogram at `t_BE = 0` |
//! | `fig9` | Fig. 9 | [`Plan::Fig9`] | DTS-SS duty vs rate for `t_BE` ∈ {0, 2.5, 10, 40} ms |
//! | `lifetime` | beyond the paper | [`Plan::Lifetime`] | network lifetime (first death / partition) under `energy_drain` |
//! | `robustness` | beyond the paper | [`Plan::Robustness`] | delivery across the scenario presets |
//! | `drift` | beyond the paper | [`Plan::Drift`] | delivery & missed-round rate vs clock skew/drift |
//! | `self_healing` | beyond the paper | [`Plan::SelfHealing`] | repair on/off under churn & bursty links, all protocols |
//! | `overhead` | §4.2.3 | [`Plan::Rate`] | DTS phase-update bits per data report |
//! | `headline` | abstract / §5 | [`Plan::Rate`], [`Plan::Query`] | DTS-SS vs SPAN / PSM / SYNC reduction ranges |
//!
//! A [`Plan`] enumerates one sweep grid as [`SweepCell`]s
//! ([`Plan::cells`]); the `*_from` assemblers turn its per-cell results
//! into figures by a deterministic walk in cell order. Figures reading
//! the same plan share its runs: duty cycle and latency (Figures 3+6,
//! 4+7) come from the same simulations. The `essat-figures` binary
//! plans the union of the wanted figures' plans and executes it as
//! **one** flat job list, so the whole invocation drains across every
//! core with no per-figure or per-point barrier.

use std::fmt::Display;

use essat_net::radio::RadioParams;
use essat_scenario::presets;
use essat_scenario::spec::Scenario;
use essat_sim::stats::{Confidence, OnlineStats};
use essat_sim::time::SimDuration;
use essat_wsn::config::{ExperimentConfig, Protocol, RepairConfig, WorkloadSpec};
use essat_wsn::metrics::RunResult;

use crate::executor::SweepCell;
use crate::scale::Scale;
use crate::table::{FigureData, Series};

/// Protocols plotted in Figures 3 and 4 (SYNC is fixed at 20% and only
/// appears in the latency figures, as in the paper).
pub const DUTY_PROTOCOLS: [Protocol; 5] = [
    Protocol::DtsSs,
    Protocol::StsSs,
    Protocol::NtsSs,
    Protocol::Psm,
    Protocol::Span,
];

/// Protocols plotted in Figures 6 and 7.
pub const LATENCY_PROTOCOLS: [Protocol; 6] = [
    Protocol::DtsSs,
    Protocol::StsSs,
    Protocol::NtsSs,
    Protocol::Psm,
    Protocol::Span,
    Protocol::Sync,
];

/// Protocols compared in the scenario figures (the paper's full set).
pub const SCENARIO_PROTOCOLS: [Protocol; 6] = LATENCY_PROTOCOLS;

/// Presets plotted by the `robustness` figure, in x-axis order.
pub const ROBUSTNESS_PRESETS: [&str; 4] = ["steady", "bursty_links", "diurnal", "churn"];

/// Presets stressed by the `self_healing` figure, in series order.
pub const SELF_HEALING_PRESETS: [&str; 2] = ["churn", "bursty_links"];

/// The two arms compared by the `self_healing` figure, in cell order.
pub const SELF_HEALING_ARMS: [&str; 2] = ["repair", "legacy"];

/// One sweep grid, read by one or more [`FIGURES`].
///
/// Variants are in job order: an invocation runs its plans in this
/// order, which fixes the line order of `digests.txt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// Every (base rate, [`LATENCY_PROTOCOLS`]) cell, one query per
    /// class.
    Rate,
    /// Every (queries per class, [`LATENCY_PROTOCOLS`]) cell at 0.2 Hz.
    Query,
    /// One STS-SS cell per query deadline at 5 Hz.
    Fig2,
    /// One single-run cell per ESSAT protocol at 5 Hz: the paper's
    /// "typical run".
    Fig5,
    /// One instant-radio cell per ESSAT protocol at 5 Hz.
    Fig8,
    /// Every (break-even time, base rate) DTS-SS cell.
    Fig9,
    /// One `energy_drain` cell per [`SCENARIO_PROTOCOLS`] protocol.
    Lifetime,
    /// Every ([`ROBUSTNESS_PRESETS`], [`SCENARIO_PROTOCOLS`]) cell.
    ///
    /// Pinned to the legacy maintenance path (repair disabled): this
    /// figure characterises the raw protocols under stress, and
    /// deadline-budgeted redispatch would compensate the injected faults
    /// (bursty-link cells can even beat steady ones) and blur exactly
    /// the degradation it plots. `SelfHealing` measures the repair
    /// layer on-vs-off.
    Robustness,
    /// Every (clock skew ppm, protocol) cell: the `clock_drift` preset
    /// with the adaptive guard time scaled to the skew. The zero-ppm
    /// point runs fault-free (no scenario, no guard) as control.
    Drift,
    /// Every ([`SELF_HEALING_PRESETS`], protocol, [`SELF_HEALING_ARMS`])
    /// cell.
    SelfHealing,
}

impl Plan {
    /// Every plan, in job order.
    pub const ALL: [Plan; 10] = [
        Plan::Rate,
        Plan::Query,
        Plan::Fig2,
        Plan::Fig5,
        Plan::Fig8,
        Plan::Fig9,
        Plan::Lifetime,
        Plan::Robustness,
        Plan::Drift,
        Plan::SelfHealing,
    ];

    /// The plan's key in `digests.txt` and in the bench record's
    /// workload descriptor.
    pub fn key(self) -> &'static str {
        match self {
            Plan::Rate => "rate",
            Plan::Query => "query",
            Plan::Fig2 => "fig2",
            Plan::Fig5 => "fig5",
            Plan::Fig8 => "fig8",
            Plan::Fig9 => "fig9",
            Plan::Lifetime => "lifetime",
            Plan::Robustness => "robustness",
            Plan::Drift => "drift",
            Plan::SelfHealing => "self_healing",
        }
    }

    /// The plan's job list at `scale`, in the order its assembler walks.
    pub fn cells(self, scale: Scale, seed: u64) -> Vec<SweepCell> {
        let base = |protocol, workload| scale.config(protocol, workload, seed);
        let paper = WorkloadSpec::paper;
        let preset = |cfg: ExperimentConfig, name| {
            let spec = presets::by_name(name, cfg.duration).expect("known preset");
            cfg.with_scenario(Scenario::Spec(spec))
        };
        let configs: Vec<ExperimentConfig> = match self {
            Plan::Rate => scale
                .rate_sweep()
                .into_iter()
                .flat_map(|rate| LATENCY_PROTOCOLS.map(|p| base(p, paper(rate))))
                .collect(),
            Plan::Query => scale
                .queries_sweep()
                .into_iter()
                .flat_map(|qpc| {
                    LATENCY_PROTOCOLS.map(|p| base(p, paper(0.2).with_queries_per_class(qpc)))
                })
                .collect(),
            Plan::Fig2 => scale
                .deadline_sweep()
                .into_iter()
                .map(|d| {
                    let deadline = SimDuration::from_secs_f64(d);
                    base(Protocol::StsSs, paper(5.0).with_deadline(deadline))
                })
                .collect(),
            Plan::Fig5 => Protocol::essat_set().map(|p| base(p, paper(5.0))).into(),
            Plan::Fig8 => Protocol::essat_set()
                .map(|p| base(p, paper(5.0)).with_radio(RadioParams::instant()))
                .into(),
            Plan::Fig9 => scale
                .tbe_sweep_ms()
                .into_iter()
                .flat_map(|tbe_ms| {
                    let radio = if tbe_ms == 0.0 {
                        RadioParams::instant()
                    } else {
                        RadioParams::with_break_even(SimDuration::from_secs_f64(tbe_ms / 1000.0))
                    };
                    scale
                        .rate_sweep()
                        .into_iter()
                        .map(move |rate| base(Protocol::DtsSs, paper(rate)).with_radio(radio))
                })
                .collect(),
            Plan::Lifetime => SCENARIO_PROTOCOLS
                .map(|p| {
                    let cfg = base(p, paper(1.0));
                    let spec = presets::energy_drain(cfg.duration);
                    cfg.with_scenario(Scenario::Spec(spec))
                })
                .into(),
            Plan::Robustness => ROBUSTNESS_PRESETS
                .into_iter()
                .flat_map(|name| {
                    SCENARIO_PROTOCOLS.map(|p| {
                        preset(
                            base(p, paper(1.0)).with_repair(RepairConfig::disabled()),
                            name,
                        )
                    })
                })
                .collect(),
            Plan::Drift => scale
                .drift_sweep_ppm()
                .into_iter()
                .flat_map(|ppm| {
                    Protocol::all().map(|p| {
                        let cfg = base(p, paper(1.0));
                        if ppm == 0 {
                            return cfg;
                        }
                        cfg.with_scenario(Scenario::Spec(presets::clock_drift(ppm)))
                            .with_clock_guard(SimDuration::from_millis(1), ppm)
                    })
                })
                .collect(),
            Plan::SelfHealing => SELF_HEALING_PRESETS
                .into_iter()
                .flat_map(|name| {
                    Protocol::all().into_iter().flat_map(move |p| {
                        SELF_HEALING_ARMS.map(|arm| {
                            let cfg = base(p, paper(1.0));
                            let cfg = match arm {
                                "legacy" => cfg.with_repair(RepairConfig::disabled()),
                                _ => cfg,
                            };
                            preset(cfg, name)
                        })
                    })
                })
                .collect(),
        };
        let runs = match self {
            Plan::Fig5 => 1,
            _ => scale.runs(),
        };
        configs
            .into_iter()
            .map(|cfg| SweepCell::new(cfg, runs))
            .collect()
    }
}

/// The per-cell results of one plan, in [`Plan::cells`] order.
pub type Grid = [Vec<RunResult>];

/// One printable figure: a row of [`FIGURES`].
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The name the CLI selects it by.
    pub name: &'static str,
    /// The plans it reads.
    pub plans: &'static [Plan],
    /// Renders the figure; `grids[i]` holds the results of `plans[i]`.
    pub render: fn(grids: &[&Grid], scale: Scale) -> Rendered,
}

/// A rendered figure: its tables, then free text.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// Tables, printed (and written as CSV) in order.
    pub tables: Vec<FigureData>,
    /// Text printed after the tables: legends, the Figure 8 fractions,
    /// the overhead series and the headline.
    pub notes: String,
}

fn tables(tables: Vec<FigureData>) -> Rendered {
    Rendered {
        tables,
        notes: String::new(),
    }
}

/// A heading, one line per item and a blank line.
fn note(heading: &str, lines: impl IntoIterator<Item = String>) -> String {
    let mut out = format!("{heading}\n");
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out.push('\n');
    out
}

/// A legend for an index x axis: `  <index>: <item>` per item.
fn legend<T: Display>(heading: &str, items: impl IntoIterator<Item = T>) -> String {
    let lines = items
        .into_iter()
        .enumerate()
        .map(|(i, item)| format!("  {i}: {item}"));
    note(heading, lines)
}

/// Every figure `essat-figures` can print, in output order.
pub const FIGURES: [Figure; 14] = [
    Figure {
        name: "fig2",
        plans: &[Plan::Fig2],
        render: |g, scale| tables(vec![fig2_deadline_from(g[0], scale)]),
    },
    Figure {
        name: "fig3",
        plans: &[Plan::Rate],
        render: |g, scale| tables(vec![sweep_from(Plan::Rate, g[0], scale).duty]),
    },
    Figure {
        name: "fig4",
        plans: &[Plan::Query],
        render: |g, scale| tables(vec![sweep_from(Plan::Query, g[0], scale).duty]),
    },
    Figure {
        name: "fig5",
        plans: &[Plan::Fig5],
        render: |g, _| tables(vec![fig5_rank_profile_from(g[0])]),
    },
    Figure {
        name: "fig6",
        plans: &[Plan::Rate],
        render: |g, scale| tables(vec![sweep_from(Plan::Rate, g[0], scale).latency]),
    },
    Figure {
        name: "fig7",
        plans: &[Plan::Query],
        render: |g, scale| tables(vec![sweep_from(Plan::Query, g[0], scale).latency]),
    },
    Figure {
        name: "fig8",
        plans: &[Plan::Fig8],
        render: |g, _| {
            let data = fig8_sleep_hist_from(g[0]);
            let fractions = data
                .below_2_5ms_pct
                .iter()
                .map(|(label, pct)| format!("  {label:>8}: {pct:5.2}%"));
            Rendered {
                notes: note(
                    "fraction of sleep intervals < 2.5 ms (paper: NTS 0.40%, STS 0.85%, DTS 6.33%):",
                    fractions,
                ),
                tables: vec![data.histogram],
            }
        },
    },
    Figure {
        name: "fig9",
        plans: &[Plan::Fig9],
        render: |g, scale| tables(vec![fig9_tbe_from(g[0], scale)]),
    },
    Figure {
        name: "lifetime",
        plans: &[Plan::Lifetime],
        render: |g, _| Rendered {
            tables: vec![lifetime_from(g[0])],
            notes: legend(
                "protocol_index legend (energy_drain preset):",
                SCENARIO_PROTOCOLS,
            ),
        },
    },
    Figure {
        name: "robustness",
        plans: &[Plan::Robustness],
        render: |g, _| Rendered {
            tables: vec![robustness_from(g[0])],
            notes: legend("preset_index legend:", ROBUSTNESS_PRESETS),
        },
    },
    Figure {
        name: "drift",
        plans: &[Plan::Drift],
        render: |g, scale| {
            let data = drift_from(g[0], scale);
            tables(vec![data.delivery, data.missed])
        },
    },
    Figure {
        name: "self_healing",
        plans: &[Plan::SelfHealing],
        render: |g, _| {
            let data = self_healing_from(g[0]);
            Rendered {
                tables: vec![
                    data.delivery,
                    data.in_partition,
                    data.time_to_partition,
                    data.activity,
                ],
                notes: legend(
                    "protocol_index legend (churn + bursty_links presets, repair on vs off):",
                    Protocol::all(),
                ),
            }
        },
    },
    Figure {
        name: "overhead",
        plans: &[Plan::Rate],
        render: |g, scale| {
            let series = sweep_from(Plan::Rate, g[0], scale).dts_overhead_bits;
            let lines = series
                .points
                .iter()
                .map(|p| format!("  base rate {:3.1} Hz: {:6.4} bits/report", p.x, p.y));
            Rendered {
                tables: Vec::new(),
                notes: note(
                    "== overhead — DTS phase-update overhead (paper: < 1 bit per data report)",
                    lines,
                ),
            }
        },
    },
    Figure {
        name: "headline",
        plans: &[Plan::Rate, Plan::Query],
        render: |g, scale| {
            let rate = sweep_from(Plan::Rate, g[0], scale);
            let query = sweep_from(Plan::Query, g[1], scale);
            Rendered {
                tables: Vec::new(),
                notes: format!("{}\n", headline(&rate, &query).render()),
            }
        },
    },
];

fn stat_over_runs(results: &[RunResult], f: impl Fn(&RunResult) -> f64) -> (f64, f64) {
    let s: OnlineStats = results.iter().map(f).collect();
    (s.mean(), s.ci_halfwidth(Confidence::P90))
}

/// Appends `(x, mean, ci)` to the series of `fig` labelled `label`.
fn push(fig: &mut FigureData, label: &str, x: f64, (y, ci): (f64, f64)) {
    fig.series
        .iter_mut()
        .find(|s| s.label == label)
        .expect("series exists")
        .push(x, y, ci);
}

/// Duty cycle and latency per protocol from one shared sweep: Figures
/// 3 and 6 from [`Plan::Rate`], or 4 and 7 from [`Plan::Query`].
#[derive(Debug, Clone)]
pub struct SweepData {
    /// Figure 3 or 4: average duty cycle (%) per sweep point.
    pub duty: FigureData,
    /// Figure 6 or 7: average query latency (s) per sweep point.
    pub latency: FigureData,
    /// DTS phase-update overhead (bits per data report) per sweep
    /// point, which the paper reports in §4.2.3 for the base-rate sweep.
    pub dts_overhead_bits: Series,
}

/// Assembles [`SweepData`] from the results of [`Plan::Rate`] or
/// [`Plan::Query`] (same order).
///
/// # Panics
///
/// For any other plan.
pub fn sweep_from(plan: Plan, grid: &Grid, scale: Scale) -> SweepData {
    let (xs, x_label, (duty_id, duty_title), (latency_id, latency_title)) = match plan {
        Plan::Rate => (
            scale.rate_sweep(),
            "rate_hz",
            ("fig3", "Average duty cycle for three query classes when varying base rate"),
            ("fig6", "Query latency for three query classes when varying base rate"),
        ),
        Plan::Query => (
            scale.queries_sweep().into_iter().map(f64::from).collect(),
            "queries_per_class",
            (
                "fig4",
                "Average duty cycle for three query classes when varying number of queries per class",
            ),
            (
                "fig7",
                "Query latency for three query classes when varying the number of queries per class",
            ),
        ),
        other => panic!("{other:?} is not a protocol sweep"),
    };
    let mut duty = FigureData::new(duty_id, duty_title, x_label, "duty cycle (%)");
    let mut latency = FigureData::new(latency_id, latency_title, x_label, "latency (s)");
    duty.series = DUTY_PROTOCOLS.map(|p| Series::new(p.label())).into();
    latency.series = LATENCY_PROTOCOLS.map(|p| Series::new(p.label())).into();
    let mut overhead = Series::new("DTS-SS");
    let mut cell = grid.iter();
    for &x in &xs {
        for protocol in LATENCY_PROTOCOLS {
            let results = cell.next().expect("one cell per (sweep point, protocol)");
            if results.is_empty() {
                continue;
            }
            let label = protocol.label();
            let lat = stat_over_runs(results, RunResult::avg_latency_s);
            push(&mut latency, label, x, lat);
            if protocol != Protocol::Sync {
                let d = stat_over_runs(results, RunResult::avg_duty_cycle_pct);
                push(&mut duty, label, x, d);
            }
            if protocol == Protocol::DtsSs {
                let (o, o_ci) = stat_over_runs(results, RunResult::phase_overhead_bits_per_report);
                overhead.push(x, o, o_ci);
            }
        }
    }
    SweepData {
        duty,
        latency,
        dts_overhead_bits: overhead,
    }
}

/// Figure 2: the STS-SS deadline sweep — duty cycle and query latency as
/// the query deadline `D` (and with it the local deadline `l = D/M`)
/// grows. The paper's knee sits where `l` crosses `T_agg`. Assembled
/// from the results of [`Plan::Fig2`].
pub fn fig2_deadline_from(grid: &Grid, scale: Scale) -> FigureData {
    let mut fig = FigureData::new(
        "fig2",
        "Impact of query deadline on duty cycle and query latency of STS-SS",
        "deadline_s",
        "duty (%) / latency (s)",
    );
    let mut duty = Series::new("Duty Cycle (%)");
    let mut lat = Series::new("Query latency (s)");
    for (&d, results) in scale.deadline_sweep().iter().zip(grid) {
        if results.is_empty() {
            continue;
        }
        let (dy, dy_ci) = stat_over_runs(results, RunResult::avg_duty_cycle_pct);
        let (ly, ly_ci) = stat_over_runs(results, RunResult::avg_latency_s);
        duty.push(d, dy, dy_ci);
        lat.push(d, ly, ly_ci);
    }
    fig.series.push(duty);
    fig.series.push(lat);
    fig
}

/// Figure 5: distribution of duty cycles across routing-tree ranks for
/// the three ESSAT protocols (a single "typical run" at 5 Hz, as in the
/// paper). NTS-SS grows linearly with rank; STS-SS and DTS-SS stay flat.
/// Assembled from the results of [`Plan::Fig5`].
pub fn fig5_rank_profile_from(grid: &Grid) -> FigureData {
    let mut fig = FigureData::new(
        "fig5",
        "Distribution of duty cycles at different ranks",
        "rank",
        "duty cycle (%)",
    );
    for (protocol, results) in Protocol::essat_set().iter().zip(grid) {
        let Some(result) = results.first() else {
            continue;
        };
        let mut series = Series::new(protocol.label());
        for (rank, stats) in result.duty_by_rank() {
            series.push(
                rank as f64,
                stats.mean(),
                stats.ci_halfwidth(Confidence::P90),
            );
        }
        fig.series.push(series);
    }
    fig
}

/// Figure 8 output: the histogram plus the paper's headline fractions.
#[derive(Debug, Clone)]
pub struct Fig8Data {
    /// Counts of sleep intervals per 25 ms bin (upper edges on x).
    pub histogram: FigureData,
    /// Fraction of sleep intervals shorter than 2.5 ms per protocol
    /// (the paper reports NTS 0.40%, STS 0.85%, DTS 6.33%).
    pub below_2_5ms_pct: Vec<(String, f64)>,
}

/// Figure 8: histogram of sleep-interval lengths with `t_BE = 0`
/// (instant radio transitions), three queries at 5 Hz. Assembled from
/// the results of [`Plan::Fig8`].
pub fn fig8_sleep_hist_from(grid: &Grid) -> Fig8Data {
    let mut fig = FigureData::new(
        "fig8",
        "Histogram of sleep intervals (t_BE = 0); bins of 25 ms",
        "sleep_len_upper_ms",
        "count",
    );
    let mut below = Vec::new();
    for (protocol, results) in Protocol::essat_set().iter().zip(grid) {
        if results.is_empty() {
            continue;
        }
        let mut series = Series::new(protocol.label());
        // Re-bin the fine histograms (0.5 ms) into the paper's 25 ms
        // bins up to 200 ms; counts are averaged over runs.
        let coarse_bins = 8;
        let fine_per_coarse = 50;
        for cb in 0..coarse_bins {
            let mut total = 0u64;
            for r in results {
                for fb in 0..fine_per_coarse {
                    let idx = cb * fine_per_coarse + fb;
                    if idx < r.sleep_intervals.bins() {
                        total += r.sleep_intervals.bin_count(idx);
                    }
                }
            }
            let upper_ms = (cb as f64 + 1.0) * 25.0;
            series.push(upper_ms, total as f64 / results.len() as f64, 0.0);
        }
        fig.series.push(series);
        let frac: OnlineStats = results
            .iter()
            .map(|r| 100.0 * r.sleep_intervals.fraction_below(0.0025))
            .collect();
        below.push((protocol.label().to_string(), frac.mean()));
    }
    Fig8Data {
        histogram: fig,
        below_2_5ms_pct: below,
    }
}

/// Figure 9: DTS-SS duty cycle vs base rate for break-even times of
/// 0 / 2.5 / 10 / 40 ms (MICA2 average, MICA2 worst case, ZebraNet).
/// Assembled from the results of [`Plan::Fig9`].
///
/// Note: the paper's caption says "STS-SS" but the body text and legend
/// describe DTS-SS; we follow the text.
pub fn fig9_tbe_from(grid: &Grid, scale: Scale) -> FigureData {
    let mut fig = FigureData::new(
        "fig9",
        "Impact of break-even time on DTS-SS duty cycle",
        "rate_hz",
        "duty cycle (%)",
    );
    let rates = scale.rate_sweep();
    let mut cell = grid.iter();
    for tbe_ms in scale.tbe_sweep_ms() {
        let mut series = Series::new(format!("TBE={tbe_ms}ms"));
        for &rate in &rates {
            let results = cell.next().expect("one cell per (tbe, rate)");
            if results.is_empty() {
                continue;
            }
            let (d, ci) = stat_over_runs(results, RunResult::avg_duty_cycle_pct);
            series.push(rate, d, ci);
        }
        fig.series.push(series);
    }
    fig
}

/// Network-lifetime figure: for every protocol under the
/// `energy_drain` preset, the time to the first node death and the time
/// to root partition (right-censored at the run end when the network
/// survives). The x axis indexes [`SCENARIO_PROTOCOLS`]. Assembled from
/// the results of [`Plan::Lifetime`].
pub fn lifetime_from(grid: &Grid) -> FigureData {
    let mut fig = FigureData::new(
        "lifetime",
        "Network lifetime under the energy_drain scenario (censored at run end)",
        "protocol_index",
        "time (s)",
    );
    let mut first_death = Series::new("time to first death (s)");
    let mut partition = Series::new("time to root partition (s)");
    for (i, results) in grid.iter().enumerate() {
        if results.is_empty() {
            continue;
        }
        let (fd, fd_ci) = stat_over_runs(results, |r| {
            r.lifetime
                .time_to_first_death(r.measured_until)
                .as_secs_f64()
        });
        let (pt, pt_ci) = stat_over_runs(results, |r| {
            r.lifetime.time_to_partition(r.measured_until).as_secs_f64()
        });
        first_death.push(i as f64, fd, fd_ci);
        partition.push(i as f64, pt, pt_ci);
    }
    fig.series.push(first_death);
    fig.series.push(partition);
    fig
}

/// Robustness figure: delivery ratio per protocol across the scenario
/// presets (`steady`, `bursty_links`, `diurnal`, `churn`). The x axis
/// indexes [`ROBUSTNESS_PRESETS`]. Assembled from the results of
/// [`Plan::Robustness`].
pub fn robustness_from(grid: &Grid) -> FigureData {
    let mut fig = FigureData::new(
        "robustness",
        "Delivery ratio (%) across scenario presets (steady / bursty_links / diurnal / churn)",
        "preset_index",
        "delivery ratio (%)",
    );
    fig.series = SCENARIO_PROTOCOLS.map(|p| Series::new(p.label())).into();
    let mut cell = grid.iter();
    for xi in 0..ROBUSTNESS_PRESETS.len() {
        for protocol in SCENARIO_PROTOCOLS {
            let results = cell.next().expect("one cell per (preset, protocol)");
            if results.is_empty() {
                continue;
            }
            let d = stat_over_runs(results, |r| 100.0 * r.delivery_ratio());
            push(&mut fig, protocol.label(), xi as f64, d);
        }
    }
    fig
}

/// Self-healing figure output: the repair layer on-vs-off under faults.
#[derive(Debug, Clone)]
pub struct SelfHealingData {
    /// Delivery ratio (%) per protocol; one series per (preset, arm).
    pub delivery: FigureData,
    /// Time spent partitioned (s) per protocol; one series per
    /// (preset, arm). Episodes still open at run end are counted.
    pub in_partition: FigureData,
    /// Time to root partition (s, right-censored at run end) per
    /// protocol; one series per (preset, arm). Repair pushing a run to
    /// the censoring bound means the partition never happened.
    pub time_to_partition: FigureData,
    /// Repair-arm activity per protocol: repairs performed, orphaned
    /// node·time, and mean detection-to-repair latency; one series per
    /// (preset, metric).
    pub activity: FigureData,
}

/// Self-healing figure: every protocol under the `churn` and
/// `bursty_links` presets, with the repair layer enabled vs the legacy
/// maintenance path. The x axis indexes [`Protocol::all`]. Assembled
/// from the results of [`Plan::SelfHealing`].
pub fn self_healing_from(grid: &Grid) -> SelfHealingData {
    let mut delivery = FigureData::new(
        "self_healing_delivery",
        "Delivery ratio (%) with the repair layer on (repair) vs off (legacy)",
        "protocol_index",
        "delivery ratio (%)",
    );
    let mut in_partition = FigureData::new(
        "self_healing_in_partition",
        "Time spent partitioned (s), repair vs legacy (open episodes counted)",
        "protocol_index",
        "time in partition (s)",
    );
    let mut time_to_partition = FigureData::new(
        "self_healing_time_to_partition",
        "Time to root partition (s, right-censored at run end), repair vs legacy",
        "protocol_index",
        "time to partition (s)",
    );
    let mut activity = FigureData::new(
        "self_healing_activity",
        "Repair-arm activity: repairs, orphaned node-seconds, mean repair latency",
        "protocol_index",
        "count / seconds",
    );
    for preset in SELF_HEALING_PRESETS {
        for arm in SELF_HEALING_ARMS {
            let label = format!("{preset}/{arm}");
            delivery.series.push(Series::new(&label));
            in_partition.series.push(Series::new(&label));
            time_to_partition.series.push(Series::new(&label));
        }
        for metric in ["repairs", "orphan node-s", "repair latency (s)"] {
            activity
                .series
                .push(Series::new(format!("{preset} {metric}")));
        }
    }
    let mut cell = grid.iter();
    for pi in 0..SELF_HEALING_PRESETS.len() {
        for xi in 0..Protocol::all().len() {
            let x = xi as f64;
            for (ai, arm) in SELF_HEALING_ARMS.iter().enumerate() {
                let results = cell.next().expect("one cell per (preset, protocol, arm)");
                if results.is_empty() {
                    continue;
                }
                let si = pi * SELF_HEALING_ARMS.len() + ai;
                let (d, d_ci) = stat_over_runs(results, |r| 100.0 * r.delivery_ratio());
                delivery.series[si].push(x, d, d_ci);
                let (t, t_ci) = stat_over_runs(results, RunResult::time_in_partition_s);
                in_partition.series[si].push(x, t, t_ci);
                let (p, p_ci) = stat_over_runs(results, |r| {
                    r.lifetime.time_to_partition(r.measured_until).as_secs_f64()
                });
                time_to_partition.series[si].push(x, p, p_ci);
                if *arm == "repair" {
                    let base = pi * 3;
                    let (n, n_ci) = stat_over_runs(results, |r| r.repairs as f64);
                    activity.series[base].push(x, n, n_ci);
                    let (o, o_ci) = stat_over_runs(results, RunResult::orphan_node_seconds);
                    activity.series[base + 1].push(x, o, o_ci);
                    let (l, l_ci) = stat_over_runs(results, RunResult::mean_reparent_latency_s);
                    activity.series[base + 2].push(x, l, l_ci);
                }
            }
        }
    }
    SelfHealingData {
        delivery,
        in_partition,
        time_to_partition,
        activity,
    }
}

/// Drift figure output: behaviour under clock faults.
#[derive(Debug, Clone)]
pub struct DriftData {
    /// Delivery ratio (%) vs clock-skew magnitude (ppm), all protocols.
    pub delivery: FigureData,
    /// Missed-round rate (%) vs clock-skew magnitude (ppm).
    pub missed: FigureData,
}

/// Drift figure: every protocol under the `clock_drift` preset across
/// skew magnitudes, assembled from the results of [`Plan::Drift`].
/// Cells whose every repetition failed are skipped, so a partial sweep
/// still yields a figure.
pub fn drift_from(grid: &Grid, scale: Scale) -> DriftData {
    let mut delivery = FigureData::new(
        "drift_delivery",
        "Delivery ratio under clock skew + drift (guard time scaled to skew)",
        "skew_ppm",
        "delivery ratio (%)",
    );
    let mut missed = FigureData::new(
        "drift_missed",
        "Missed-round rate under clock skew + drift (guard time scaled to skew)",
        "skew_ppm",
        "missed-round rate (%)",
    );
    delivery.series = Protocol::all().map(|p| Series::new(p.label())).into();
    missed.series = delivery.series.clone();
    let mut cell = grid.iter();
    for ppm in scale.drift_sweep_ppm() {
        let x = ppm as f64;
        for protocol in Protocol::all() {
            let results = cell.next().expect("one cell per (ppm, protocol)");
            if results.is_empty() {
                continue;
            }
            let d = stat_over_runs(results, |r| 100.0 * r.delivery_ratio());
            push(&mut delivery, protocol.label(), x, d);
            let m = stat_over_runs(results, |r| 100.0 * r.missed_round_rate());
            push(&mut missed, protocol.label(), x, m);
        }
    }
    DriftData { delivery, missed }
}

/// The paper's headline claims, computed from the shared sweeps.
#[derive(Debug, Clone)]
pub struct Headline {
    /// DTS-SS duty reduction vs SPAN, (min%, max%) over all sweep points
    /// (the paper reports 38–87%).
    pub duty_vs_span_pct: (f64, f64),
    /// DTS-SS latency reduction vs PSM, (min%, max%).
    pub latency_vs_psm_pct: (f64, f64),
    /// DTS-SS latency reduction vs SYNC, (min%, max%)
    /// (together with PSM the paper reports 36–98%).
    pub latency_vs_sync_pct: (f64, f64),
}

impl Headline {
    /// Renders the comparison as text.
    pub fn render(&self) -> String {
        format!(
            "== headline — DTS-SS vs baselines (reduction ranges over all sweep points)\n\
             duty cycle vs SPAN : {:5.1}% .. {:5.1}%   (paper: 38% .. 87%)\n\
             latency vs PSM     : {:5.1}% .. {:5.1}%   (paper: 36% .. 98%, PSM+SYNC combined)\n\
             latency vs SYNC    : {:5.1}% .. {:5.1}%\n",
            self.duty_vs_span_pct.0,
            self.duty_vs_span_pct.1,
            self.latency_vs_psm_pct.0,
            self.latency_vs_psm_pct.1,
            self.latency_vs_sync_pct.0,
            self.latency_vs_sync_pct.1,
        )
    }
}

/// Computes the headline reduction ranges from the base-rate and
/// query-count sweeps.
pub fn headline(rate: &SweepData, query: &SweepData) -> Headline {
    let reduction = |a: f64, b: f64| (1.0 - a / b) * 100.0;
    let mut duty_span: Vec<f64> = Vec::new();
    for duty_fig in [&rate.duty, &query.duty] {
        let dts = duty_fig.series("DTS-SS").expect("DTS series");
        let span = duty_fig.series("SPAN").expect("SPAN series");
        for p in &dts.points {
            if let Some(s) = span.y_at(p.x) {
                duty_span.push(reduction(p.y, s));
            }
        }
    }
    let mut lat_psm = Vec::new();
    let mut lat_sync = Vec::new();
    for lat_fig in [&rate.latency, &query.latency] {
        let dts = lat_fig.series("DTS-SS").expect("DTS series");
        let psm = lat_fig.series("PSM").expect("PSM series");
        let sync = lat_fig.series("SYNC").expect("SYNC series");
        for p in &dts.points {
            if let Some(v) = psm.y_at(p.x) {
                lat_psm.push(reduction(p.y, v));
            }
            if let Some(v) = sync.y_at(p.x) {
                lat_sync.push(reduction(p.y, v));
            }
        }
    }
    let range = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    };
    Headline {
        duty_vs_span_pct: range(&duty_span),
        latency_vs_psm_pct: range(&lat_psm),
        latency_vs_sync_pct: range(&lat_sync),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Point;

    fn fig_with(label: &str, pts: &[(f64, f64)]) -> Series {
        Series {
            label: label.into(),
            points: pts.iter().map(|&(x, y)| Point { x, y, ci: 0.0 }).collect(),
        }
    }

    /// Names and plans are unique, every plan a figure reads is planned,
    /// and every plan is read by some figure.
    #[test]
    fn figure_table_is_consistent() {
        for (i, fig) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[..i].iter().all(|f| f.name != fig.name),
                "{} twice",
                fig.name
            );
            for plan in fig.plans {
                assert!(
                    Plan::ALL.contains(plan),
                    "{}: {plan:?} never planned",
                    fig.name
                );
            }
        }
        for (i, plan) in Plan::ALL.iter().enumerate() {
            assert!(!Plan::ALL[..i].contains(plan), "{plan:?} twice");
            assert!(
                FIGURES.iter().any(|f| f.plans.contains(plan)),
                "{plan:?} unread"
            );
        }
    }

    #[test]
    fn headline_ranges_from_synthetic_data() {
        let mk = |duty_id: &str, lat_id: &str| {
            let mut duty = FigureData::new(duty_id, "t", "x", "y");
            duty.series
                .push(fig_with("DTS-SS", &[(1.0, 10.0), (2.0, 20.0)]));
            duty.series
                .push(fig_with("SPAN", &[(1.0, 40.0), (2.0, 40.0)]));
            let mut latency = FigureData::new(lat_id, "t", "x", "y");
            latency.series.push(fig_with("DTS-SS", &[(1.0, 0.1)]));
            latency.series.push(fig_with("PSM", &[(1.0, 1.0)]));
            latency.series.push(fig_with("SYNC", &[(1.0, 0.5)]));
            SweepData {
                duty,
                latency,
                dts_overhead_bits: Series::new("DTS-SS"),
            }
        };
        let h = headline(&mk("fig3", "fig6"), &mk("fig4", "fig7"));
        assert!((h.duty_vs_span_pct.0 - 50.0).abs() < 1e-9);
        assert!((h.duty_vs_span_pct.1 - 75.0).abs() < 1e-9);
        assert!((h.latency_vs_psm_pct.0 - 90.0).abs() < 1e-9);
        assert!((h.latency_vs_sync_pct.0 - 80.0).abs() < 1e-9);
        assert!(h.render().contains("38%"));
    }
}
