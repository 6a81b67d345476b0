//! §4.3 robustness: node failure, detection, and tree repair.
//!
//! A relay node is killed mid-run. Its children's transmissions start
//! failing, the failure detectors cross their thresholds, the routing
//! layer re-parents the orphans, STS recomputes rank schedules / DTS
//! resynchronises through one phase update — and delivery recovers
//! without operator intervention.
//!
//! ```text
//! cargo run --release --example failure_recovery
//! ```

use essat::net::ids::NodeId;
use essat::net::topology::{Topology, PAPER_RANGE_M, PAPER_TREE_RADIUS_M};
use essat::query::tree::RoutingTree;
use essat::sim::rng::SimRng;
use essat::sim::time::{SimDuration, SimTime};
use essat::wsn::config::{ExperimentConfig, Protocol, WorkloadSpec};
use essat::wsn::runner;

fn main() {
    let seed = 5;
    // Rebuild the same topology the run will use, to pick a meaningful
    // victim: a rank>=1 relay with children.
    let master = SimRng::seed_from_u64(seed);
    let mut topo_rng = master.derive(1);
    let base = ExperimentConfig::quick(Protocol::DtsSs, WorkloadSpec::paper(1.0), seed);
    let topo = Topology::random(
        base.nodes,
        essat::net::geometry::Area::new(base.area_side, base.area_side),
        PAPER_RANGE_M,
        &mut topo_rng,
    );
    let root = topo.closest_to_center();
    let tree = RoutingTree::build(&topo, root, Some(PAPER_TREE_RADIUS_M));
    let victim = tree
        .members()
        .iter()
        .copied()
        .filter(|&m| m != root && tree.rank(m) >= 1 && !tree.children(m).is_empty())
        .max_by_key(|&m| tree.children(m).len())
        .expect("a relay exists");
    println!(
        "victim: {} (rank {}, {} children, parent {:?})",
        victim,
        tree.rank(victim),
        tree.children(victim).len(),
        tree.parent(victim),
    );

    let fail_at = SimTime::from_secs(30);
    for protocol in [Protocol::DtsSs, Protocol::StsSs, Protocol::NtsSs] {
        let mut cfg = ExperimentConfig::quick(protocol, WorkloadSpec::paper(1.0), seed);
        cfg.duration = SimDuration::from_secs(90);
        let healthy = runner::run_one(&cfg);
        let wounded = runner::run_one(&cfg.clone().with_node_failure(fail_at, victim.as_u32()));

        // Delivery per 30 s window of the run, from the per-round trace
        // of Q1 (before / during-detection / after-recovery).
        let q = &wounded.queries[0];
        let windows = [(0u64, 30u64), (30, 60), (60, 90)];
        let mut per_window = Vec::new();
        for (a, b) in windows {
            let (lo, hi) = (SimTime::from_secs(a), SimTime::from_secs(b));
            let rs: Vec<_> = q
                .records
                .iter()
                .filter(|r| r.at >= lo && r.at < hi)
                .collect();
            let readings: u64 = rs.iter().map(|r| r.readings).sum();
            let avg = if rs.is_empty() {
                0.0
            } else {
                readings as f64 / rs.len() as f64
            };
            per_window.push(avg);
        }
        println!(
            "\n== {} (failure at t=30s)\n  healthy delivery {:.3}; wounded delivery {:.3}\n  mean readings/round: 0-30s {:.1} | 30-60s {:.1} | 60-90s {:.1}",
            protocol.label(),
            healthy.delivery_ratio(),
            wounded.delivery_ratio(),
            per_window[0],
            per_window[1],
            per_window[2],
        );
        let recovered = per_window[2] >= per_window[0] - 2.0;
        println!(
            "  verdict: {}",
            if recovered {
                "recovered — orphans re-parented, reporting resumed"
            } else {
                "NOT fully recovered"
            }
        );
    }
    println!();
    println!("note: one reading per round is permanently lost with the victim —");
    println!("its own sensor is gone; the recovery criterion allows for that.");
    let _ = NodeId::new(0);
}
