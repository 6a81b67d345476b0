//! Correctness gates: the committed golden digests, plausible ranges
//! for every job's simulated outcome, and the combined run digest.

use essat::harness::executor::{SweepCell, SweepExecutor};
use essat::wsn::config::{ExperimentConfig, Protocol, WorkloadSpec};
use essat::wsn::metrics::RunResult;

/// The golden file, read at run time so that an intentional digest
/// migration (which rewrites it) keeps the benchmark valid.
pub const GOLDEN_PATH: &str = "tests/golden/quick_digests.txt";

/// The seed the golden digests were recorded with.
const GOLDEN_SEED: u64 = 2025;

/// Jobs attempted and failed over the whole run, with reasons. Any
/// failure or problem makes the run incorrect.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one failed job (its reason is kept for the first 20).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }
}

/// Re-runs every protocol the golden file lists (quick scale, 1 Hz,
/// seed 2025) and compares digests and the digest-schema version.
pub fn golden(tally: &mut Tally) {
    let raw = match std::fs::read_to_string(GOLDEN_PATH) {
        Ok(raw) => raw,
        Err(e) => {
            tally
                .problems
                .push(format!("cannot read {GOLDEN_PATH}: {e}"));
            return;
        }
    };
    let mut version = 1;
    let mut entries = Vec::new();
    for line in raw.lines().map(str::trim).filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(v) = rest.trim().strip_prefix("digest-version:") {
                version = v.trim().parse().unwrap_or(0);
            }
            continue;
        }
        match line.rsplit_once(' ') {
            Some((name, digest)) => match name.parse::<Protocol>() {
                Ok(p) => entries.push((p, digest.to_string())),
                Err(e) => tally.problems.push(format!("golden line `{line}`: {e}")),
            },
            None => tally
                .problems
                .push(format!("malformed golden line `{line}`")),
        }
    }
    if version != RunResult::DIGEST_VERSION {
        tally.problems.push(format!(
            "golden file is digest-version {version}, the build produces {}",
            RunResult::DIGEST_VERSION
        ));
    }
    let cells: Vec<SweepCell> = entries
        .iter()
        .map(|(p, _)| {
            let cfg = ExperimentConfig::quick(*p, WorkloadSpec::paper(1.0), GOLDEN_SEED);
            SweepCell::new(cfg, 1)
        })
        .collect();
    let out = SweepExecutor::with_threads(1).run_checked(&cells);
    tally.attempted += entries.len() as u64;
    for ((p, want), got) in entries.iter().zip(&out.results) {
        match got.first() {
            Some(r) if r.digest() == *want => {}
            Some(r) => tally.fail(format!("golden {p}: digest {} != {want}", r.digest())),
            None => tally.fail(format!("golden {p}: run failed")),
        }
    }
}

/// Checks one job's simulated outcome against physical ranges; returns
/// the first violation.
pub fn out_of_range(r: &RunResult) -> Option<String> {
    let duty = r.avg_duty_cycle_pct();
    if !(0.0..=100.0).contains(&duty) {
        return Some(format!("duty cycle {duty}% outside [0, 100]"));
    }
    let delivery = r.delivery_ratio();
    if !(0.0..=1.0).contains(&delivery) {
        return Some(format!("delivery ratio {delivery} outside [0, 1]"));
    }
    for q in &r.queries {
        if q.delivered_readings > q.expected_readings || q.rounds_full > q.rounds_completed {
            return Some(format!("query {:?} counts inconsistent", q.query));
        }
        if !q.latency.is_empty() {
            let (lo, hi) = (q.latency.min(), q.latency.max());
            // A round seals no earlier than it starts and, at the quick
            // scale, well inside the run.
            if !(lo >= 0.0 && hi.is_finite() && hi <= r.window().as_secs_f64()) {
                return Some(format!("query latency range [{lo}, {hi}] s implausible"));
            }
        }
    }
    if r.events_processed == 0 || r.nodes.is_empty() {
        return Some("run processed no events or has no tree members".to_string());
    }
    if r.mac.delivered > r.mac.data_tx {
        return Some("more MAC deliveries than data transmissions".to_string());
    }
    None
}

/// FNV-1a 64 over the job digests in job order: two job sets digest
/// equal iff they simulated the same work with the same outcomes.
pub fn combined_digest<'a>(digests: impl IntoIterator<Item = &'a str>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in digests {
        for b in d.bytes().chain(std::iter::once(b'\n')) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}
