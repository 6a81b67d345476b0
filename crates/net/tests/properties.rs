//! Property-based tests of the wireless substrate.

use proptest::prelude::*;

use essat_net::channel::{Channel, TxEndBuf};
use essat_net::frame::airtime;
use essat_net::geometry::Area;
use essat_net::ids::NodeId;
use essat_net::radio::{Radio, RadioParams};
use essat_net::topology::Topology;
use essat_sim::rng::SimRng;
use essat_sim::time::{SimDuration, SimTime};

proptest! {
    /// Unit-disk adjacency is symmetric and irreflexive on random
    /// topologies.
    #[test]
    fn adjacency_symmetric(seed in any::<u64>(), n in 2u32..60, range in 10.0f64..200.0) {
        let mut rng = SimRng::seed_from_u64(seed);
        let topo = Topology::random(n, Area::new(300.0, 300.0), range, &mut rng);
        for a in topo.nodes() {
            prop_assert!(!topo.neighbors(a).contains(&a), "self-loop at {a}");
            for &b in topo.neighbors(a) {
                prop_assert!(topo.neighbors(b).contains(&a));
            }
        }
    }

    /// BFS levels step by exactly one along tree edges and the root is
    /// level zero.
    #[test]
    fn bfs_levels_consistent(seed in any::<u64>(), n in 2u32..60) {
        let mut rng = SimRng::seed_from_u64(seed);
        let topo = Topology::random(n, Area::new(250.0, 250.0), 80.0, &mut rng);
        let root = topo.closest_to_center();
        let levels = topo.bfs_levels(root);
        prop_assert_eq!(levels[root.index()], Some(0));
        for u in topo.nodes() {
            if let Some(lu) = levels[u.index()] {
                for &v in topo.neighbors(u) {
                    if let Some(lv) = levels[v.index()] {
                        prop_assert!(lu.abs_diff(lv) <= 1, "neighbour levels differ by >1");
                    }
                }
            }
        }
    }

    /// Every transmission's receivers partition into clean + corrupted =
    /// hearers, and carrier counts return to zero when the air clears.
    #[test]
    fn channel_conserves_receivers(
        seed in any::<u64>(),
        n in 3u32..40,
        txs in proptest::collection::vec((0u32..40, 0u64..5_000), 1..30),
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let topo = Topology::random(n, Area::new(200.0, 200.0), 70.0, &mut rng);
        let mut ch = Channel::new(&topo, SimRng::seed_from_u64(seed ^ 1));
        let air = SimDuration::from_micros(416);
        // Start transmissions (skipping busy senders), then end them all.
        let mut live: Vec<(NodeId, essat_net::channel::TxId, usize)> = Vec::new();
        for &(s, t_us) in &txs {
            let sender = NodeId::new(s % n);
            if ch.is_transmitting(sender) {
                continue;
            }
            let t = SimTime::from_micros(5_000 + t_us);
            let start = ch.begin_tx(t, sender, air);
            let hearers = topo.neighbors(sender).len();
            live.push((sender, start.id, hearers));
        }
        let mut end = TxEndBuf::default();
        for (i, (sender, id, hearers)) in live.iter().enumerate() {
            ch.end_tx_into(SimTime::from_micros(20_000 + i as u64), *id, &mut end);
            prop_assert_eq!(end.sender, *sender);
            prop_assert_eq!(
                end.clean().len() + end.corrupted().len(),
                *hearers,
                "receiver partition broken"
            );
        }
        for node in topo.nodes() {
            prop_assert!(!ch.carrier_busy(node), "carrier stuck busy at {node}");
            prop_assert!(!ch.is_transmitting(node));
        }
    }

    /// Airtime is linear in bytes and inversely proportional to bitrate.
    #[test]
    fn airtime_scaling(bytes in 1u32..10_000, rate_kbps in 1u64..100_000) {
        let rate = rate_kbps * 1000;
        let t1 = airtime(bytes, rate);
        let t2 = airtime(bytes * 2, rate);
        // Doubling bytes doubles airtime (within integer rounding).
        let diff = t2.as_nanos() as i128 - 2 * t1.as_nanos() as i128;
        prop_assert!(diff.abs() <= 2, "airtime not linear: {t1} vs {t2}");
    }

    /// Radio accounting: active + off + transition always equals elapsed
    /// time, for any legal sleep/wake schedule.
    #[test]
    fn radio_accounting_conserves_time(
        gaps_ms in proptest::collection::vec(1u64..200, 1..20),
    ) {
        let mut r = Radio::new(RadioParams::mica2());
        let mut now = SimTime::ZERO;
        for (i, &g) in gaps_ms.iter().enumerate() {
            now += SimDuration::from_millis(g);
            if i % 2 == 0 {
                let d = r.begin_sleep(now).expect("active");
                now += d;
                r.finish_transition(now);
            } else {
                let d = r.begin_wake(now).expect("off");
                now += d;
                r.finish_transition(now);
            }
        }
        now += SimDuration::from_millis(5);
        r.settle(now);
        prop_assert_eq!(
            r.active_ns() + r.off_ns() + r.transition_ns(),
            now.as_nanos(),
            "accounting must cover the whole run"
        );
        // Duty cycle well-formed.
        let duty = r.duty_cycle();
        prop_assert!((0.0..=1.0).contains(&duty));
        // Sleep intervals are non-overlapping and positive.
        let si = r.sleep_intervals();
        for w in si.windows(2) {
            prop_assert!(w[0].ended <= w[1].started);
        }
        for s in si {
            prop_assert!(s.ended > s.started);
        }
    }

    /// Break-even override and computed break-even are both
    /// non-negative, and the computed value is at least the transition
    /// total when transitions are not more power-hungry than active.
    #[test]
    fn break_even_lower_bound(off_us in 0u64..50_000, on_us in 0u64..50_000) {
        let p = RadioParams {
            turn_off: SimDuration::from_micros(off_us),
            turn_on: SimDuration::from_micros(on_us),
            ..RadioParams::mica2()
        };
        prop_assert_eq!(p.break_even(), SimDuration::from_micros(off_us + on_us));
    }
}
