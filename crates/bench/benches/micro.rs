//! Micro-benchmarks of the hot substrate paths: event queue, Safe Sleep
//! decisions, shaper updates, MAC contention cycles, channel collision
//! bookkeeping, and routing-tree construction.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use essat_core::dts::Dts;
use essat_core::nts::Nts;
use essat_core::safe_sleep::SafeSleep;
use essat_core::shaper::{TrafficShaper, TreeInfo};
use essat_core::sts::Sts;
use essat_net::channel::{Channel, TxEndBuf};
use essat_net::ids::NodeId;
use essat_net::topology::Topology;
use essat_query::aggregate::{AggState, AggregateOp};
use essat_query::model::{Query, QueryId};
use essat_query::tree::RoutingTree;
use essat_sim::queue::EventQueue;
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
/// simulator's executor does: `SetTimer` pushes an expiry event and hands
/// the id back through `timer_scheduled` (cancelling any displaced
/// handle), `StartTx` completes instantaneously, and every surrendered
/// handle from `pop_cancelled` becomes a real `queue.cancel`.
fn run_mac_actions(
    mac: &mut essat_net::mac::Mac<u64>,
    q: &mut EventQueue<essat_net::mac::MacTimer>,
    now: SimTime,
    acts: &mut Vec<essat_net::mac::MacAction<u64>>,
    spare: &mut Vec<essat_net::mac::MacAction<u64>>,
) {
    use essat_net::mac::MacAction;
    while !acts.is_empty() {
        spare.clear();
        for a in acts.drain(..) {
            match a {
                MacAction::SetTimer { kind, after } => {
                    let id = q.push(now + after, kind);
                    if let Some(stale) = mac.timer_scheduled(kind, id) {
                        q.cancel(stale);
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
        while let Some(id) = mac.pop_cancelled() {
            q.cancel(id);
        }
        std::mem::swap(acts, spare);
    }
}

fn mac_timer_arm_disarm_churn(c: &mut Criterion) {
    use essat_net::frame::{Dest, Frame, FrameKind};
    use essat_net::mac::{Mac, MacParams};
    c.bench_function("micro/mac_timer_arm_disarm_churn", |b| {
        // The CSMA/CA contention cycle's timer lifecycle end-to-end:
        // every DIFS/backoff arm schedules a real expiry event, every
        // carrier interruption disarms it via true cancellation
        // (`timer_scheduled` / `pop_cancelled` / `queue.cancel`), and
        // expiries dispatch through the wheel. This is the path that
        // replaced generation-fencing, so its cost is tracked here.
        b.iter(|| {
            let mut mac: Mac<u64> = Mac::new(
                NodeId::new(0),
                MacParams::paper(),
                SimRng::seed_from_u64(11),
            );
            let mut q = EventQueue::new();
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
                run_mac_actions(&mut mac, &mut q, now, &mut acts, &mut spare);
                if step % 3 == 0 {
                    // Carrier goes busy then idle: the Difs/Backoff
                    // disarm + re-arm churn this bench exists for.
                    mac.carrier_busy(now);
                    while let Some(id) = mac.pop_cancelled() {
                        q.cancel(id);
                    }
                    mac.carrier_idle_into(now, &mut acts);
                    run_mac_actions(&mut mac, &mut q, now, &mut acts, &mut spare);
                }
                while let Some((t, _, kind)) = q.pop() {
                    now = now.max(t);
                    fired += 1;
                    mac.timer_fired_into(kind, now, &mut acts);
                    run_mac_actions(&mut mac, &mut q, now, &mut acts, &mut spare);
                }
                now += SimDuration::from_micros(100);
            }
            black_box(fired)
        })
    });
}

fn channel_end_tx_vectorised(c: &mut Criterion) {
    let mut rng = SimRng::seed_from_u64(42);
    let topo = Topology::random_paper(&mut rng);
    c.bench_function("micro/channel_end_tx_vectorised", |b| {
        // Four spread-out senders transmit concurrently, then all
        // transmissions end — one busy begin/end cycle of the paper
        // deployment, including the collision bookkeeping. Ends resolve
        // through `end_tx_into` into one recycled flat buffer (clean |
        // corrupted | now-idle partitions), the path the simulator runs.
        let mut ch = Channel::new(&topo, SimRng::seed_from_u64(7));
        let mut end = TxEndBuf::default();
        let mut t = 0u64;
        b.iter(|| {
            let t0 = SimTime::from_micros(t);
            let airtime = SimDuration::from_micros(416);
            let txs = [0u32, 20, 40, 60].map(|s| ch.begin_tx(t0, NodeId::new(s), airtime));
            let mut clean = 0usize;
            for tx in txs {
                ch.recycle_nodes(tx.now_busy);
                ch.end_tx_into(t0 + airtime, tx.id, &mut end);
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
    let topo = Topology::random_paper(&mut rng);
    c.bench_function("micro/channel_40_overlapping_tx", |b| {
        b.iter(|| {
            let mut ch = Channel::new(&topo, SimRng::seed_from_u64(7));
            let mut end = TxEndBuf::default();
            let mut txs = Vec::new();
            for i in 0..40u32 {
                let t = SimTime::from_micros(i as u64 * 10);
                txs.push(ch.begin_tx(t, NodeId::new(i), SimDuration::from_micros(416)));
            }
            let mut clean = 0usize;
            for (i, tx) in txs.into_iter().enumerate() {
                ch.end_tx_into(SimTime::from_micros(416 + i as u64 * 10), tx.id, &mut end);
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
    let topo = Topology::random(24, Area::new(40.0, 40.0), 125.0, &mut rng);
    c.bench_function("micro/channel_dense_overlap", |b| {
        // Twelve staggered transmissions all in the air at once, then
        // all end: the worst case for collision marking, where every
        // begin overlaps every copy in flight at every node.
        let mut ch = Channel::new(&topo, SimRng::seed_from_u64(7));
        let mut end = TxEndBuf::default();
        let mut ids = Vec::with_capacity(12);
        let mut t = 0u64;
        b.iter(|| {
            let airtime = SimDuration::from_micros(416);
            for s in 0..12u32 {
                let tx = ch.begin_tx(
                    SimTime::from_micros(t + s as u64),
                    NodeId::new(s * 2),
                    airtime,
                );
                ch.recycle_nodes(tx.now_busy);
                ids.push(tx.id);
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
        timer_wheel_push_pop,
        timer_wheel_cancel_churn,
        mac_timer_arm_disarm_churn,
        channel_end_tx_vectorised,
        safe_sleep_decide,
        shaper_round_trip,
        channel_collision_storm,
        channel_dense_overlap,
        gilbert_elliott_step,
        tree_construction,
        link_quality_ewma,
        tree_reparent,
        aggregation_merge,
}
criterion_main!(benches);
