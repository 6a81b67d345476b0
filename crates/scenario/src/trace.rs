//! The record/replay trace codec.
//!
//! A trace is a line-oriented plain-text document:
//!
//! ```text
//! essat-scenario-trace v1
//! name energy_drain
//! nodes 40
//! link <mean_good_ns> <mean_bad_ns> <drop_good> <drop_bad>
//! battery <capacity_j> <check_period_ns>
//! phase <from_ns> <rate_scale>
//! down <at_ns> <node>
//! up <at_ns> <node>
//! clock <node> <skew_ppb> <drift_ppb_per_s>
//! glitch <at_ns> <node> <delta_ns>
//! ```
//!
//! `link`/`battery` appear at most once; `phase` lines are sorted by
//! start; `down`/`up` lines are the churn event stream in its sorted
//! order; `clock` lines (one per node when clock faults are enabled)
//! carry the compiled integer skew/drift rates, `glitch` lines the
//! scripted signed clock steps. Floats use Rust's shortest round-trip
//! formatting, so
//! `from_trace(to_trace(c)) == c` exactly and re-serialising a parsed
//! trace reproduces it **byte-identically** — the property the
//! record/replay tests pin.

use essat_sim::time::{SimDuration, SimTime};

use crate::compile::{CompiledScenario, NodeClock, ScenarioEvent};
use crate::gilbert::GilbertElliottParams;
use crate::spec::{BatterySpec, GlitchStep, TrafficPhase};

const HEADER: &str = "essat-scenario-trace v1";

/// Serialises a compiled scenario.
pub fn to_trace(c: &CompiledScenario) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}");
    let _ = writeln!(out, "name {}", c.name);
    let _ = writeln!(out, "nodes {}", c.nodes);
    if let Some(ge) = &c.link {
        let _ = writeln!(
            out,
            "link {} {} {} {}",
            ge.mean_good.as_nanos(),
            ge.mean_bad.as_nanos(),
            ge.drop_good,
            ge.drop_bad
        );
    }
    if let Some(b) = &c.battery {
        let _ = writeln!(
            out,
            "battery {} {}",
            b.capacity_j,
            b.check_period.as_nanos()
        );
    }
    for p in &c.traffic {
        let _ = writeln!(out, "phase {} {}", p.from.as_nanos(), p.rate_scale);
    }
    for e in &c.events {
        let kind = if e.up { "up" } else { "down" };
        let _ = writeln!(out, "{kind} {} {}", e.at.as_nanos(), e.node);
    }
    for (node, clk) in c.clocks.iter().enumerate() {
        let _ = writeln!(out, "clock {node} {} {}", clk.skew_ppb, clk.drift_ppb_per_s);
    }
    for g in &c.glitches {
        let _ = writeln!(out, "glitch {} {} {}", g.at.as_nanos(), g.node, g.delta_ns);
    }
    out
}

/// Reads the scenario name out of a trace without a full parse.
pub fn trace_name(trace: &str) -> Option<&str> {
    trace
        .lines()
        .find_map(|l| l.strip_prefix("name "))
        .map(str::trim)
}

/// Parses one field as a `T`; a missing, malformed or out-of-range
/// field is an error naming the line.
fn parse<T: std::str::FromStr>(field: Option<&str>, line: &str) -> Result<T, String> {
    field.and_then(|f| f.parse().ok()).ok_or_else(|| {
        let ty = std::any::type_name::<T>();
        format!("malformed {ty} field in trace line: {line}")
    })
}

/// Parses a trace back into the compiled scenario it recorded.
pub fn from_trace(trace: &str) -> Result<CompiledScenario, String> {
    let mut lines = trace.lines();
    if lines.next().map(str::trim) != Some(HEADER) {
        return Err(format!("missing trace header `{HEADER}`"));
    }
    let mut c = CompiledScenario::default();
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().expect("non-empty line has a first token");
        match tag {
            "name" => {
                c.name = line["name".len()..].trim().to_string();
                continue;
            }
            "nodes" => c.nodes = parse(parts.next(), line)?,
            "link" => {
                c.link = Some(GilbertElliottParams {
                    mean_good: SimDuration::from_nanos(parse(parts.next(), line)?),
                    mean_bad: SimDuration::from_nanos(parse(parts.next(), line)?),
                    drop_good: parse(parts.next(), line)?,
                    drop_bad: parse(parts.next(), line)?,
                });
            }
            "battery" => {
                c.battery = Some(BatterySpec {
                    capacity_j: parse(parts.next(), line)?,
                    check_period: SimDuration::from_nanos(parse(parts.next(), line)?),
                });
            }
            "phase" => {
                c.traffic.push(TrafficPhase {
                    from: SimTime::from_nanos(parse(parts.next(), line)?),
                    rate_scale: parse(parts.next(), line)?,
                });
            }
            "down" | "up" => {
                c.events.push(ScenarioEvent {
                    at: SimTime::from_nanos(parse(parts.next(), line)?),
                    node: parse(parts.next(), line)?,
                    up: tag == "up",
                });
            }
            "clock" => {
                let node: usize = parse(parts.next(), line)?;
                if node != c.clocks.len() {
                    return Err(format!(
                        "clock lines must appear in node order (expected node {}): {line}",
                        c.clocks.len()
                    ));
                }
                c.clocks.push(NodeClock {
                    skew_ppb: parse(parts.next(), line)?,
                    drift_ppb_per_s: parse(parts.next(), line)?,
                });
            }
            "glitch" => {
                c.glitches.push(GlitchStep {
                    at: SimTime::from_nanos(parse(parts.next(), line)?),
                    node: parse(parts.next(), line)?,
                    delta_ns: parse(parts.next(), line)?,
                });
            }
            other => return Err(format!("unknown trace line tag `{other}`")),
        }
        if let Some(extra) = parts.next() {
            return Err(format!("unexpected field `{extra}` in trace line: {line}"));
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChurnSpec, ScenarioSpec};

    fn rich_scenario() -> CompiledScenario {
        use crate::spec::ClockSpec;
        let mut spec = ScenarioSpec::named("kitchen_sink");
        spec.clock = Some(ClockSpec {
            skew_ppm: 40.0,
            drift_ppm_per_s: 1.5,
            glitches: vec![
                GlitchStep {
                    at: SimTime::from_secs(12),
                    node: 5,
                    delta_ns: -750_000,
                },
                GlitchStep {
                    at: SimTime::from_secs(30),
                    node: 9,
                    delta_ns: 2_000_000,
                },
            ],
        });
        spec.link = Some(GilbertElliottParams {
            mean_good: SimDuration::from_millis(3_500),
            mean_bad: SimDuration::from_millis(900),
            drop_good: 0.0125,
            drop_bad: 0.875,
        });
        spec.battery = Some(BatterySpec {
            capacity_j: 0.731,
            check_period: SimDuration::from_millis(250),
        });
        spec.churn = Some(ChurnSpec::Random {
            mean_uptime: SimDuration::from_secs(7),
            mean_downtime: SimDuration::from_secs(2),
        });
        spec.traffic = vec![
            TrafficPhase {
                from: SimTime::from_secs(5),
                rate_scale: 0.2,
            },
            TrafficPhase {
                from: SimTime::from_secs(25),
                rate_scale: 1.0,
            },
        ];
        spec.compile(24, 3, SimDuration::from_secs(60), 4242)
    }

    #[test]
    fn round_trip_is_exact_and_byte_identical() {
        let c = rich_scenario();
        assert!(!c.clocks.is_empty(), "clock faults compiled");
        assert_eq!(c.glitches.len(), 2, "scripted glitches carried over");
        let trace = to_trace(&c);
        let parsed = from_trace(&trace).expect("parses");
        assert_eq!(parsed, c, "structural round trip");
        assert_eq!(to_trace(&parsed), trace, "byte-identical re-serialisation");
    }

    #[test]
    fn rejects_out_of_order_clock_lines() {
        let t = "essat-scenario-trace v1\nname x\nnodes 2\nclock 1 5 0";
        assert!(from_trace(t).is_err());
    }

    #[test]
    fn empty_scenario_round_trips() {
        let c = ScenarioSpec::named("steady").compile(8, 0, SimDuration::from_secs(10), 1);
        let parsed = from_trace(&to_trace(&c)).unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn name_peek() {
        let c = rich_scenario();
        assert_eq!(trace_name(&to_trace(&c)), Some("kitchen_sink"));
        assert_eq!(trace_name("no header here"), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_trace("not a trace").is_err());
        assert!(from_trace("essat-scenario-trace v1\nbogus 1 2").is_err());
        assert!(from_trace("essat-scenario-trace v1\ndown nope 3").is_err());
    }

    #[test]
    fn rejects_node_numbers_beyond_u32() {
        // Each node number is a valid one modulo 2^32.
        for t in [
            "essat-scenario-trace v1\nnodes 4294967336",
            "essat-scenario-trace v1\ndown 5 4294967296",
            "essat-scenario-trace v1\nglitch 1 4294967296 0",
        ] {
            assert!(from_trace(t).is_err(), "{t:?} parsed");
        }
    }

    #[test]
    fn rejects_trailing_fields() {
        let t = "essat-scenario-trace v1\ndown 5 3 junk";
        assert!(from_trace(t).is_err());
        assert!(from_trace("essat-scenario-trace v1\ndown 5 3").is_ok());
    }
}
