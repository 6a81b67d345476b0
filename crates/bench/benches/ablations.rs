//! Ablation benchmarks for the design choices called out in DESIGN.md §6.
//!
//! These compare protocol *variants*, not code speed — the interesting
//! output is the metric line each bench prints per variant before its
//! timed loop (duty cycle, latency, delivery and phase requests of each
//! arm; backbone sizes for SPAN), with wall-clock as a secondary
//! signal. Run with `cargo bench --bench ablations`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use essat_baselines::span::{SpanBackbone, SpanElection};
use essat_core::sts::StsConfig;
use essat_net::radio::RadioParams;
use essat_net::topology::{Topology, PAPER_TREE_RADIUS_M};
use essat_query::tree::RoutingTree;
use essat_sim::rng::SimRng;
use essat_sim::time::SimDuration;
use essat_wsn::config::{ExperimentConfig, Protocol, SetupMode, WorkloadSpec};
use essat_wsn::runner;

fn quick(protocol: Protocol, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(protocol, WorkloadSpec::paper(2.0), seed);
    cfg.duration = SimDuration::from_secs(20);
    cfg
}

/// Prints both arms' metrics once, then times running the pair.
fn bench_arms(c: &mut Criterion, id: &str, arms: [(&str, ExperimentConfig); 2]) {
    c.bench_function(id, |b| {
        for (arm, cfg) in &arms {
            let r = runner::run_one(cfg);
            println!(
                "{id} [{arm}]: duty {:.3}%, latency {:.1} ms, delivery {:.1}%, phase requests {}",
                r.avg_duty_cycle_pct(),
                r.avg_latency_s() * 1e3,
                100.0 * r.delivery_ratio(),
                r.phase_requests,
            );
        }
        b.iter(|| {
            for (_, cfg) in &arms {
                black_box(runner::run_one(cfg));
            }
        })
    });
}

/// Break-even gating on vs off: Safe Sleep with the MICA2 2.5 ms
/// break-even versus an idealised zero-cost radio. The gap quantifies
/// what §5.3 calls "the importance of reducing the wake-up time".
fn ablation_break_even_gating(c: &mut Criterion) {
    let ideal = quick(Protocol::DtsSs, 11).with_radio(RadioParams::instant());
    bench_arms(
        c,
        "ablation/break_even_mica2_vs_instant",
        [("mica2", quick(Protocol::DtsSs, 11)), ("instant", ideal)],
    );
}

/// STS reception granularity (DESIGN.md §6): the paper's per-rank
/// closed form `r(k) = φ + k·P + l·(d−1)` versus the per-child
/// "reception = child's send slot" invariant. Per-child wakes parents
/// later for shallow children, so it should never cost more energy.
fn ablation_sts_reception_granularity(c: &mut Criterion) {
    let mut per_rank = quick(Protocol::StsSs, 12);
    per_rank.sts = StsConfig {
        per_rank_reception: true,
    };
    bench_arms(
        c,
        "ablation/sts_per_child_vs_per_rank",
        [
            ("per-child", quick(Protocol::StsSs, 12)),
            ("per-rank", per_rank),
        ],
    );
}

/// STS timeout via the workload deadline D, which scales every slot:
/// D = P vs D = P/2.
fn ablation_sts_deadline(c: &mut Criterion) {
    let mut tight = quick(Protocol::StsSs, 12);
    tight.workload = WorkloadSpec::paper(2.0).with_deadline(SimDuration::from_millis(250));
    bench_arms(
        c,
        "ablation/sts_deadline_P_vs_P_half",
        [("D=P", quick(Protocol::StsSs, 12)), ("D=P/2", tight)],
    );
}

/// SPAN backbone selection: the paper's tree-non-leaf variant versus the
/// full distributed election. Compares backbone sizes (the energy
/// driver).
fn ablation_span_backbone(c: &mut Criterion) {
    let mut rng = SimRng::seed_from_u64(13);
    let topo = Topology::random_paper(&mut rng);
    let root = topo.closest_to_center();
    let tree = RoutingTree::build(&topo, root, Some(PAPER_TREE_RADIUS_M));
    let sizes = || {
        let tree_bb = SpanBackbone::from_tree(&tree, topo.node_count());
        let elected = SpanElection::elect(&topo, &mut SimRng::seed_from_u64(14));
        (tree_bb.coordinator_count(), elected.coordinator_count())
    };
    let id = "ablation/span_tree_vs_elected_backbone";
    c.bench_function(id, |b| {
        let (tree_bb, elected) = sizes();
        println!("{id}: coordinators tree {tree_bb}, elected {elected}");
        b.iter(|| black_box(sizes()))
    });
}

/// Query dissemination: idealized pre-registration vs in-band flooding
/// during a setup slot (§4.1). The flooded variant pays the setup-slot
/// energy but exercises the full dissemination path.
fn ablation_setup_mode(c: &mut Criterion) {
    let mut flooded = quick(Protocol::DtsSs, 15);
    flooded.setup_mode = SetupMode::Flooded;
    bench_arms(
        c,
        "ablation/setup_idealized_vs_flooded",
        [
            ("idealized", quick(Protocol::DtsSs, 15)),
            ("flooded", flooded),
        ],
    );
}

/// Loss injection: DTS resynchronisation cost under 5% random loss.
fn ablation_loss_resync(c: &mut Criterion) {
    let lossy = quick(Protocol::DtsSs, 16).with_drop_probability(0.05);
    bench_arms(
        c,
        "ablation/dts_clean_vs_5pct_loss",
        [("clean", quick(Protocol::DtsSs, 16)), ("5% loss", lossy)],
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets =
        ablation_break_even_gating,
        ablation_sts_reception_granularity,
        ablation_sts_deadline,
        ablation_span_backbone,
        ablation_setup_mode,
        ablation_loss_resync,
}
criterion_main!(benches);
