//! Equivalence guard for the simulator's observable behaviour: every
//! protocol's `Scale::Quick` metrics must digest to exactly the values
//! recorded in the golden file. A mismatch means a change moved event
//! ordering, an RNG stream, or a metric — a bug, not a baseline to
//! re-record.
//!
//! The golden file carries a `digest-version:` header naming the digest
//! schema it was recorded under (files without one are version 1).
//! Intentional digest migrations bump
//! [`essat::wsn::metrics::RunResult::DIGEST_VERSION`] and regenerate the
//! goldens; git history keeps the previous file, so the migration trail
//! stays auditable. Version 2 retired stale-event dispatches (true timer cancellation):
//! only the hashed `events_processed` / `peak_queue_depth` counters
//! moved; every simulation-level metric is byte-identical to version 1.
//! Version 3 grew the preimage with the self-healing counters
//! (repairs, re-parent latency, orphan node-time, re-dispatches) and
//! the partition-episode fields (recovered-at, time-in-partition) —
//! all zero on these fault-free runs; the underlying event stream is
//! unchanged (`robustness::repair_is_invisible_on_fault_free_runs`
//! pins that with a full enabled-vs-disabled digest comparison).
//!
//! Regenerate (only for *intentional* behaviour changes) with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test golden_digests -- --nocapture
//! ```

use essat::harness::scale::Scale;
use essat::wsn::config::{Protocol, WorkloadSpec};
use essat::wsn::metrics::RunResult;
use essat::wsn::runner;

const GOLDEN_PATH: &str = "tests/golden/quick_digests.txt";
const GOLDEN: &str = include_str!("golden/quick_digests.txt");
const SEED: u64 = 2025;

/// All eight protocols, in the order the golden file records them.
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

fn current_digests() -> Vec<(Protocol, String)> {
    ALL.iter()
        .map(|&p| {
            let cfg = Scale::Quick.config(p, WorkloadSpec::paper(1.0), SEED);
            (p, runner::run_one(&cfg).digest())
        })
        .collect()
}

/// Parses a golden file into its digest-schema version and
/// `(protocol, digest)` entries. Files predating the version header
/// are version 1.
fn parse_goldens(raw: &str) -> (u32, Vec<(String, String)>) {
    let mut version = 1;
    let mut entries = Vec::new();
    for l in raw.lines() {
        let l = l.trim();
        if l.is_empty() {
            continue;
        }
        if let Some(rest) = l.strip_prefix('#') {
            if let Some(v) = rest.trim().strip_prefix("digest-version:") {
                version = v.trim().parse().expect("numeric digest-version header");
            }
            continue;
        }
        let (name, digest) = l.rsplit_once(' ').expect("`<protocol> <digest>` lines");
        entries.push((name.to_string(), digest.to_string()));
    }
    (version, entries)
}

#[test]
fn quick_scale_digests_match_goldens() {
    let current = current_digests();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        let mut out = format!(
            "# digest-version: {}\n\
             # Per-protocol RunResult::digest() at Scale::Quick, seed 2025.\n\
             # Every run must reproduce these byte-identically; regenerate\n\
             # (UPDATE_GOLDENS=1) only for intentional behaviour changes,\n\
             # and say why in the commit that rewrites this file. When the\n\
             # digest schema itself changes, bump RunResult::DIGEST_VERSION;\n\
             # git history keeps the previous file.\n",
            RunResult::DIGEST_VERSION
        );
        for (p, d) in &current {
            out.push_str(&format!("{p} {d}\n"));
        }
        std::fs::write(GOLDEN_PATH, out).expect("write goldens");
        eprintln!("goldens updated at {GOLDEN_PATH}");
        return;
    }
    let (version, golden) = parse_goldens(GOLDEN);
    assert_eq!(
        version,
        RunResult::DIGEST_VERSION,
        "golden file {GOLDEN_PATH} is digest-version {version} but this build produces \
         digest-version {}. If the schema change is intentional, regenerate with\n\
         \n    UPDATE_GOLDENS=1 cargo test --test golden_digests -- --nocapture\n\
         \nand commit the new file; git history keeps the version-{version} file",
        RunResult::DIGEST_VERSION
    );
    assert_eq!(golden.len(), ALL.len(), "golden file covers all protocols");
    for ((p, current), (name, expected)) in current.iter().zip(&golden) {
        assert_eq!(&p.to_string(), name, "golden file order matches ALL");
        assert_eq!(
            current, expected,
            "{p}: Quick-scale metrics diverged from the golden digest \
             (digest-version {version}). If this divergence is an intentional \
             behaviour change, regenerate with\n\
             \n    UPDATE_GOLDENS=1 cargo test --test golden_digests -- --nocapture\n\
             \nand explain why in the commit; otherwise it is a regression"
        );
    }
}
