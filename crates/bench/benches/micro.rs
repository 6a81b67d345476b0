//! Micro-benchmarks of the hot substrate paths: event queue, Safe Sleep
//! decisions, shaper updates, MAC contention cycles, channel collision
//! bookkeeping, and topology and routing-tree construction.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use essat_core::dts::Dts;
use essat_core::nts::Nts;
use essat_core::safe_sleep::SafeSleep;
use essat_core::shaper::{TrafficShaper, TreeInfo};
use essat_core::sts::Sts;
use essat_net::channel::{Channel, TxEndBuf};
use essat_net::ids::NodeId;
use essat_net::mac::{Mac, MacAction, MacTimer};
use essat_net::topology::{Topology, PAPER_RANGE_M};
use essat_query::aggregate::{AggState, AggregateOp};
use essat_query::model::{Query, QueryId};
use essat_query::tree::RoutingTree;
use essat_sim::queue::{EventId, EventQueue};
use essat_sim::rng::SimRng;
use essat_sim::time::{SimDuration, SimTime};

fn event_queue_churn(c: &mut Criterion) {
    c.bench_function("micro/event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut rng = SimRng::seed_from_u64(1);
            for i in 0..10_000u64 {
                q.push(SimTime::from_nanos(rng.next_u64() % 1_000_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, _, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            black_box(sum)
        })
    });
}

fn event_queue_churn_with_cancel(c: &mut Criterion) {
    c.bench_function("micro/event_queue_churn_cancel_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut rng = SimRng::seed_from_u64(1);
            let mut ids = Vec::with_capacity(10_000);
            for i in 0..10_000u64 {
                ids.push(q.push(SimTime::from_nanos(rng.next_u64() % 1_000_000), i));
            }
            // Cancel every third event, then drain — the simulator's
            // actual usage pattern (timers armed and mostly re-armed).
            for (j, id) in ids.iter().enumerate() {
                if j % 3 == 0 {
                    q.cancel(*id);
                }
            }
            let mut sum = 0u64;
            while let Some((_, _, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            black_box(sum)
        })
    });
}

fn event_queue_recycled_runs(c: &mut Criterion) {
    const NODES: usize = 100;
    c.bench_function("micro/event_queue_recycled_runs", |b| {
        // A sweep worker's queue, job after job: `WorldScratch` hands
        // each run the previous run's queue through `clear()`, so a run
        // starts with whatever storage the last one kept. One iteration
        // is one short run: a t = 0 burst of one round start per node
        // (the initial `RoundStart` schedule), then MAC-slot timers that
        // fire and re-arm, with every other firing's carrier
        // interruption cancelling and re-arming another node's timer —
        // a third of all pushes cancelled, the share measured on every
        // benchmark workload. The run ends with timers still pending, as
        // a job ends at its configured duration.
        let mut q = EventQueue::new();
        let mut rng = SimRng::seed_from_u64(12);
        b.iter(|| {
            q.clear();
            let mut armed: [Option<EventId>; NODES] = [None; NODES];
            for (node, h) in armed.iter_mut().enumerate() {
                *h = Some(q.push(SimTime::ZERO, node));
            }
            let mut sum = 0u64;
            for step in 0..10_000u64 {
                let (t, _, node) = q.pop().expect("every node keeps one timer armed");
                let now = t.as_nanos();
                sum = sum.wrapping_add(node as u64);
                // DIFS plus a backoff of up to 31 20 µs slots.
                let backoff = 50_000 + 20_000 * (rng.next_u64() % 32);
                armed[node] = Some(q.push(SimTime::from_nanos(now + backoff), node));
                if step % 2 == 0 {
                    // A frame's airtime freezes another node's timer.
                    let other = (rng.next_u64() as usize) % NODES;
                    if let Some(id) = armed[other].take() {
                        q.cancel(id);
                    }
                    let resume = now + 1_000_000 + 20_000 * (rng.next_u64() % 32);
                    armed[other] = Some(q.push(SimTime::from_nanos(resume), other));
                }
            }
            black_box(sum)
        })
    });
}

fn timer_wheel_push_pop(c: &mut Criterion) {
    c.bench_function("micro/timer_wheel_push_pop", |b| {
        // The simulator's dominant workload: MAC-slot-granularity timers
        // (DIFS ≈ 50 µs, backoff slots, SIFS, airtimes) armed a few
        // bucket-widths ahead of the cursor and popped almost
        // immediately — the regime the wheel makes O(1) where a
        // comparison heap pays O(log n) per event.
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut rng = SimRng::seed_from_u64(5);
            let mut sum = 0u64;
            // Keep ~64 timers in flight, fire them in time order.
            for i in 0..64u64 {
                q.push(SimTime::from_nanos(10_000 + rng.next_u64() % 500_000), i);
            }
            for i in 64..10_000u64 {
                let (t, _, e) = q.pop().expect("queue is primed");
                let now = t.as_nanos();
                sum = sum.wrapping_add(e);
                // Re-arm: mostly slot-scale delays, occasionally a
                // collection-timeout-scale one.
                let delay = if i % 37 == 0 {
                    5_000_000 + rng.next_u64() % 45_000_000
                } else {
                    10_000 + rng.next_u64() % 500_000
                };
                q.push(SimTime::from_nanos(now + delay), i);
            }
            black_box(sum)
        })
    });
}

fn timer_wheel_cancel_churn(c: &mut Criterion) {
    c.bench_function("micro/timer_wheel_cancel_churn", |b| {
        // The MAC's disarm pattern: timers are frequently cancelled and
        // re-armed (carrier busy/idle interruptions), and a slice of
        // them live past the wheel horizon in the overflow heap before
        // migrating back. Cancel must stay O(1) and stale entries must
        // drain cheaply.
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut rng = SimRng::seed_from_u64(6);
            let mut now = 0u64;
            let mut pending = Vec::with_capacity(128);
            let mut sum = 0u64;
            for step in 0..6_000u64 {
                // Arm two timers: one near, one far (overflow-bound).
                pending.push(q.push(
                    SimTime::from_nanos(now + 20_000 + rng.next_u64() % 200_000),
                    step,
                ));
                pending.push(q.push(
                    SimTime::from_nanos(now + 70_000_000 + rng.next_u64() % 200_000_000),
                    step,
                ));
                // Cancel one pending timer in three (MAC disarm churn).
                if step % 3 == 0 {
                    let idx = (rng.next_u64() as usize) % pending.len();
                    q.cancel(pending.swap_remove(idx));
                }
                // Fire the earliest.
                if let Some((t, _, e)) = q.pop() {
                    now = t.as_nanos();
                    sum = sum.wrapping_add(e);
                }
            }
            while let Some((_, _, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            black_box(sum)
        })
    });
}

/// Executes one MAC action batch against a real event queue the way the
/// simulator's executor does, storing one expiry handle per timer kind;
/// `StartTx` completes instantaneously.
fn run_mac_actions(
    mac: &mut Mac<u64>,
    q: &mut EventQueue<MacTimer>,
    ev: &mut [Option<EventId>; MacTimer::COUNT],
    now: SimTime,
    acts: &mut Vec<MacAction<u64>>,
    spare: &mut Vec<MacAction<u64>>,
) {
    while !acts.is_empty() {
        spare.clear();
        for a in acts.drain(..) {
            match a {
                MacAction::SetTimer { kind, after } => {
                    if let Some(old) = ev[kind.idx()].take() {
                        q.cancel(old);
                    }
                    if mac.is_armed(kind) {
                        ev[kind.idx()] = Some(q.push(now + after, kind));
                    }
                }
                MacAction::CancelTimer { kind } => {
                    if let Some(old) = ev[kind.idx()].take() {
                        q.cancel(old);
                    }
                }
                MacAction::StartTx { .. } => {
                    // Airtime is irrelevant here; what this bench
                    // measures is the arm/disarm traffic of the cycle.
                    mac.tx_ended_into(now, spare);
                }
                _ => {}
            }
        }
        std::mem::swap(acts, spare);
    }
}

fn mac_timer_arm_disarm_churn(c: &mut Criterion) {
    use essat_net::frame::{Dest, Frame, FrameKind};
    use essat_net::mac::MacParams;
    c.bench_function("micro/mac_timer_arm_disarm_churn", |b| {
        // The CSMA/CA contention cycle's timer lifecycle end-to-end:
        // every DIFS/backoff arm schedules a real expiry event, every
        // carrier interruption cancels it on the queue through the
        // stored handle, and expiries dispatch through the wheel. This
        // is the path that replaced generation-fencing, so its cost is
        // tracked here.
        b.iter(|| {
            let mut mac: Mac<u64> = Mac::new(
                NodeId::new(0),
                MacParams::paper(),
                SimRng::seed_from_u64(11),
            );
            let mut q = EventQueue::new();
            let mut ev = [None; MacTimer::COUNT];
            let mut acts = Vec::new();
            let mut spare = Vec::new();
            let mut now = SimTime::from_nanos(0);
            let mut fired = 0u64;
            for step in 0..2_000u64 {
                let f = Frame {
                    id: mac.alloc_frame_id(),
                    src: mac.node(),
                    dest: Dest::Broadcast,
                    kind: FrameKind::Data,
                    bytes: 52,
                    payload: step,
                };
                mac.enqueue_into(f, now, &mut acts);
                run_mac_actions(&mut mac, &mut q, &mut ev, now, &mut acts, &mut spare);
                if step % 3 == 0 {
                    // Carrier goes busy then idle: the Difs/Backoff
                    // disarm + re-arm churn this bench exists for.
                    if let Some(kind) = mac.carrier_busy(now) {
                        if let Some(id) = ev[kind.idx()].take() {
                            q.cancel(id);
                        }
                    }
                    mac.carrier_idle_into(now, &mut acts);
                    run_mac_actions(&mut mac, &mut q, &mut ev, now, &mut acts, &mut spare);
                }
                while let Some((t, _, kind)) = q.pop() {
                    now = now.max(t);
                    fired += 1;
                    ev[kind.idx()] = None;
                    mac.timer_fired_into(kind, now, &mut acts);
                    run_mac_actions(&mut mac, &mut q, &mut ev, now, &mut acts, &mut spare);
                }
                now += SimDuration::from_micros(100);
            }
            black_box(fired)
        })
    });
}

fn channel_end_tx_vectorised(c: &mut Criterion) {
    let mut rng = SimRng::seed_from_u64(42);
    let topo = Arc::new(Topology::random_paper(&mut rng));
    c.bench_function("micro/channel_end_tx_vectorised", |b| {
        // Four spread-out senders transmit concurrently, then all
        // transmissions end — one busy begin/end cycle of the paper
        // deployment, including the collision bookkeeping. Begins write
        // their carrier lists into one recycled vector and ends resolve
        // through `end_tx_into` into one recycled flat buffer (clean |
        // corrupted | now-idle partitions), the path the simulator runs.
        let mut ch = Channel::new(Arc::clone(&topo), SimRng::seed_from_u64(7));
        let (mut busy, mut end) = (Vec::new(), TxEndBuf::default());
        let mut t = 0u64;
        b.iter(|| {
            let t0 = SimTime::from_micros(t);
            let airtime = SimDuration::from_micros(416);
            let txs = [0u32, 20, 40, 60].map(|s| ch.begin_tx(t0, NodeId::new(s), &mut busy));
            let mut clean = 0usize;
            for tx in txs {
                ch.end_tx_into(t0 + airtime, tx, &mut end);
                clean += end.clean().len();
            }
            t += 1_000;
            black_box(clean)
        })
    });
}

fn safe_sleep_decide(c: &mut Criterion) {
    let mut ss = SafeSleep::new(
        SimDuration::from_micros(2_500),
        SimDuration::from_micros(1_250),
    );
    for qi in 0..3u32 {
        ss.update_next_send(QueryId::new(qi), SimTime::from_millis(100 + qi as u64));
        for child in 0..6u32 {
            ss.update_next_receive(
                QueryId::new(qi),
                NodeId::new(child),
                SimTime::from_millis(50 + child as u64),
            );
        }
    }
    c.bench_function("micro/safe_sleep_decide_21_expectations", |b| {
        b.iter(|| black_box(ss.decide(SimTime::from_millis(10))))
    });
}

fn query() -> Query {
    Query::periodic(
        QueryId::new(0),
        SimDuration::from_millis(200),
        SimTime::from_secs(1),
        AggregateOp::Avg,
    )
}

fn shaper_round_trip(c: &mut Criterion) {
    let q = query();
    let children = [(NodeId::new(1), 0u32), (NodeId::new(2), 1)];
    let info = TreeInfo {
        own_rank: 2,
        max_rank: 5,
        own_level: 3,
        max_level: 5,
        children: &children,
    };
    let mut group = c.benchmark_group("micro/shaper_round");
    for (name, mut shaper) in [
        ("nts", Box::new(Nts::new()) as Box<dyn TrafficShaper>),
        ("sts", Box::new(Sts::new())),
        ("dts", Box::new(Dts::new())),
    ] {
        shaper.register(&q, &info, false);
        group.bench_function(name, |b| {
            let mut k = 0u64;
            b.iter(|| {
                let ready = q.round_start(k) + SimDuration::from_millis(3);
                let rel = shaper.release(&q, k, ready, &info);
                let s = shaper.after_send(&q, k, rel.send_at, &info);
                let r = shaper.after_receive(&q, NodeId::new(1), k, ready, None, &info);
                k += 1;
                black_box((s, r))
            })
        });
    }
    group.finish();
}

fn channel_collision_storm(c: &mut Criterion) {
    let mut rng = SimRng::seed_from_u64(42);
    let topo = Arc::new(Topology::random_paper(&mut rng));
    c.bench_function("micro/channel_40_overlapping_tx", |b| {
        b.iter(|| {
            let mut ch = Channel::new(Arc::clone(&topo), SimRng::seed_from_u64(7));
            let (mut busy, mut end) = (Vec::new(), TxEndBuf::default());
            let mut txs = Vec::new();
            for i in 0..40u32 {
                let t = SimTime::from_micros(i as u64 * 10);
                txs.push(ch.begin_tx(t, NodeId::new(i), &mut busy));
            }
            let mut clean = 0usize;
            for (i, tx) in txs.into_iter().enumerate() {
                ch.end_tx_into(SimTime::from_micros(416 + i as u64 * 10), tx, &mut end);
                clean += end.clean().len();
            }
            black_box(clean)
        })
    });
}

fn channel_dense_overlap(c: &mut Criterion) {
    use essat_net::geometry::Area;
    // 24 nodes in a 40 m square at 125 m range: a clique, so every
    // sender interferes at every node.
    let mut rng = SimRng::seed_from_u64(42);
    let topo = Arc::new(Topology::random(24, Area::new(40.0, 40.0), 125.0, &mut rng));
    c.bench_function("micro/channel_dense_overlap", |b| {
        // Twelve staggered transmissions all in the air at once, then
        // all end: the worst case for collision marking, where every
        // begin overlaps every copy in flight at every node.
        let mut ch = Channel::new(Arc::clone(&topo), SimRng::seed_from_u64(7));
        let (mut busy, mut end) = (Vec::new(), TxEndBuf::default());
        let mut ids = Vec::with_capacity(12);
        let mut t = 0u64;
        b.iter(|| {
            for s in 0..12u32 {
                let t0 = SimTime::from_micros(t + s as u64);
                ids.push(ch.begin_tx(t0, NodeId::new(s * 2), &mut busy));
            }
            let mut corrupted = 0u32;
            for (i, id) in ids.drain(..).enumerate() {
                ch.end_tx_into(SimTime::from_micros(t + 416 + i as u64), id, &mut end);
                corrupted += end.corrupted_len();
            }
            t += 1_000;
            black_box(corrupted)
        })
    });
}

fn gilbert_elliott_step(c: &mut Criterion) {
    use essat_net::channel::LossModel;
    use essat_scenario::gilbert::{GilbertElliott, GilbertElliottParams};
    let params = GilbertElliottParams {
        mean_good: SimDuration::from_secs(5),
        mean_bad: SimDuration::from_secs(1),
        drop_good: 0.0,
        drop_bad: 0.75,
    };
    let mut ge = GilbertElliott::new(80, params, SimRng::seed_from_u64(9));
    c.bench_function("micro/gilbert_elliott_step", |b| {
        // Per-reception hot path: one frame copy every ~500 µs on one
        // warmed link (state transitions amortise in, as in a run).
        let mut t = 0u64;
        b.iter(|| {
            t += 500;
            black_box(ge.dropped(SimTime::from_micros(t), NodeId::new(3), NodeId::new(17)))
        })
    });
}

fn topology_build(c: &mut Criterion) {
    use essat_net::geometry::Area;
    // What every world builds first: a random placement with both
    // adjacency lists, and the root closest to the centre. The quick
    // shape (40 nodes in 350 × 350 m²) and the paper's (80 nodes in
    // 500 × 500 m²), a fresh seed per iteration.
    for (id, nodes, side) in [
        ("micro/topology_build_40_nodes", 40, 350.0),
        ("micro/topology_build_80_nodes", 80, 500.0),
    ] {
        let mut seed = 0u64;
        c.bench_function(id, |b| {
            b.iter(|| {
                seed += 1;
                let mut rng = SimRng::seed_from_u64(seed);
                let topo = Topology::random(nodes, Area::new(side, side), PAPER_RANGE_M, &mut rng);
                black_box(topo.closest_to_center())
            })
        });
    }
}

fn tree_construction(c: &mut Criterion) {
    let mut rng = SimRng::seed_from_u64(3);
    let topo = Topology::random_paper(&mut rng);
    let root = topo.closest_to_center();
    c.bench_function("micro/tree_build_80_nodes", |b| {
        b.iter(|| black_box(RoutingTree::build(&topo, root, Some(300.0))))
    });
}

fn link_quality_ewma(c: &mut Criterion) {
    // The self-healing layer's per-tx-end arithmetic: one EWMA fold per
    // unicast MAC outcome, mixed success/failure cycles as the channel
    // would produce them. 1k folds per iteration amortise the timer.
    c.bench_function("micro/link_quality_ewma", |b| {
        b.iter(|| {
            let mut q = 1.0f64;
            for i in 0..1000u32 {
                let attempts = 1 + (i % 7);
                let delivered = i % 5 != 0;
                q = essat_wsn::sim::link_ewma_step(q, 0.3, attempts, delivered);
                // Keep the estimate in a realistic band so the loop
                // never degenerates into denormal arithmetic.
                if q < 1e-3 {
                    q = 1.0;
                }
            }
            black_box(q)
        })
    });
}

fn tree_reparent(c: &mut Criterion) {
    // A self-healing subtree move on a dense grid: the node oscillates
    // between its two best candidates (its current parent is always
    // excluded), exercising candidate scan + acyclicity walk + level/
    // rank recomputation — the full `RoutingTree::reparent` path.
    let topo = Topology::grid(5, 5, 10.0, 15.0);
    let root = NodeId::new(12);
    let mut tree = RoutingTree::build(&topo, root, None);
    let node = NodeId::new(6);
    let flat = |_: NodeId, _: NodeId| 1.0f64;
    assert!(
        tree.reparent(&topo, node, &flat).is_some(),
        "bench node must have an alternative parent"
    );
    c.bench_function("micro/tree_reparent", |b| {
        b.iter(|| black_box(tree.reparent(&topo, node, &flat)))
    });
}

fn aggregation_merge(c: &mut Criterion) {
    c.bench_function("micro/agg_merge_1k", |b| {
        b.iter(|| {
            let mut acc = AggState::empty();
            for i in 0..1000 {
                acc.merge(&AggState::from_reading(i as f64 * 0.5));
            }
            black_box(acc.finish(AggregateOp::Avg))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets =
        event_queue_churn,
        event_queue_churn_with_cancel,
        event_queue_recycled_runs,
        timer_wheel_push_pop,
        timer_wheel_cancel_churn,
        mac_timer_arm_disarm_churn,
        channel_end_tx_vectorised,
        safe_sleep_decide,
        shaper_round_trip,
        channel_collision_storm,
        channel_dense_overlap,
        gilbert_elliott_step,
        topology_build,
        tree_construction,
        link_quality_ewma,
        tree_reparent,
        aggregation_merge,
}
criterion_main!(benches);
