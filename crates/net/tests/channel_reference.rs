//! Differential test of the channel against a brute-force reference.
//!
//! The channel marks collisions incrementally (overlap epochs stamped at
//! `begin_tx`). The reference instead remembers every transmission's
//! airtime as an interval of script positions and decides each copy by
//! pairwise overlap: the copy of `T` at hearer `h` is corrupted iff some
//! other transmission `U` shared the air with `T` and was either sent by
//! `h` (half-duplex) or audible at `h` (no capture). Random topologies —
//! with and without a wider interference range — run random begin/end
//! scripts with same-instant ties and loss injection, and every outcome
//! the channel reports must match the reference exactly, including the
//! statistics mid-flight.

use std::sync::Arc;

use proptest::prelude::*;

use essat_net::channel::{Channel, ChannelStats, LossModel, TxEndBuf, TxId};
use essat_net::geometry::Area;
use essat_net::ids::NodeId;
use essat_net::topology::Topology;
use essat_sim::rng::SimRng;
use essat_sim::time::SimTime;

/// A deterministic per-link loss process both sides evaluate alike.
#[derive(Debug)]
struct HashLoss(u64);

impl LossModel for HashLoss {
    fn dropped(&mut self, now: SimTime, sender: NodeId, receiver: NodeId) -> bool {
        let mut z = self.0 ^ now.as_nanos() ^ ((sender.index() as u64) << 40);
        z ^= (receiver.index() as u64) << 20;
        z = z.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (z >> 61) == 0 // one in eight
    }
}

/// One transmission as the reference sees it: positions in the script.
struct RefTx {
    sender: NodeId,
    started: SimTime,
    begin: usize,
    end: Option<usize>,
}

/// What a finished transmission looked like to its hearers.
#[derive(Debug, PartialEq)]
struct RefEnd {
    sender: NodeId,
    started: SimTime,
    clean: Vec<NodeId>,
    corrupted: Vec<NodeId>,
    now_idle: Vec<NodeId>,
}

struct Reference<'t> {
    topo: &'t Topology,
    txs: Vec<RefTx>,
    drop_prob: f64,
    loss: Option<HashLoss>,
    rng: SimRng,
    stats: ChannelStats,
}

impl<'t> Reference<'t> {
    fn in_flight(&self) -> impl Iterator<Item = &RefTx> {
        self.txs.iter().filter(|u| u.end.is_none())
    }

    fn audible(&self, u: &RefTx, h: NodeId) -> bool {
        self.topo.interference_neighbors(u.sender).contains(&h)
    }

    fn carrier_busy(&self, h: NodeId) -> bool {
        self.in_flight().any(|u| self.audible(u, h))
    }

    fn transmitting(&self, n: NodeId) -> bool {
        self.in_flight().any(|u| u.sender == n)
    }

    /// Pairwise rule: some other transmission shared `t`'s airtime and
    /// was sent by, or audible at, `h`.
    fn corrupted(&self, t: usize, h: NodeId) -> bool {
        let tx = &self.txs[t];
        self.txs.iter().enumerate().any(|(i, u)| {
            i != t
                && u.begin < tx.end.unwrap_or(usize::MAX)
                && tx.begin < u.end.unwrap_or(usize::MAX)
                && (u.sender == h || self.audible(u, h))
        })
    }

    fn begin(&mut self, pos: usize, now: SimTime, sender: NodeId) -> Vec<NodeId> {
        let now_busy = self
            .topo
            .interference_neighbors(sender)
            .iter()
            .copied()
            .filter(|&h| !self.carrier_busy(h))
            .collect();
        self.txs.push(RefTx {
            sender,
            started: now,
            begin: pos,
            end: None,
        });
        self.stats.transmissions += 1;
        now_busy
    }

    fn end(&mut self, pos: usize, now: SimTime, t: usize) -> RefEnd {
        self.txs[t].end = Some(pos);
        let sender = self.txs[t].sender;
        let (mut clean, mut corrupted) = (Vec::new(), Vec::new());
        for &h in self.topo.neighbors(sender) {
            if self.corrupted(t, h) {
                self.stats.collisions += 1;
                corrupted.push(h);
                continue;
            }
            let dropped = self
                .loss
                .as_mut()
                .is_some_and(|m| m.dropped(now, sender, h))
                || (self.drop_prob > 0.0 && self.rng.chance(self.drop_prob));
            if dropped {
                self.stats.injected_drops += 1;
                corrupted.push(h);
            } else {
                clean.push(h);
            }
        }
        let now_idle = self
            .topo
            .interference_neighbors(sender)
            .iter()
            .copied()
            .filter(|&h| !self.carrier_busy(h))
            .collect();
        RefEnd {
            sender,
            started: self.txs[t].started,
            clean,
            corrupted,
            now_idle,
        }
    }

    /// Ended collisions plus the copies of in-flight transmissions that
    /// are already lost.
    fn stats(&self) -> ChannelStats {
        let mut stats = self.stats;
        for (t, tx) in self.txs.iter().enumerate() {
            if tx.end.is_none() {
                stats.collisions += self
                    .topo
                    .neighbors(tx.sender)
                    .iter()
                    .filter(|&&h| self.corrupted(t, h))
                    .count() as u64;
            }
        }
        stats
    }
}

/// Ends `(id, ref index)` on both sides and compares the outcomes.
fn end_both(
    ch: &mut Channel,
    rf: &mut Reference<'_>,
    buf: &mut TxEndBuf,
    pos: usize,
    now: SimTime,
    (id, t): (TxId, usize),
) {
    let want = rf.end(pos, now, t);
    ch.end_tx_into(now, id, buf);
    assert_eq!(buf.corrupted_len() as usize, buf.corrupted().len());
    let got = RefEnd {
        sender: buf.sender,
        started: buf.started,
        clean: buf.clean().to_vec(),
        corrupted: buf.corrupted().to_vec(),
        now_idle: buf.now_idle().to_vec(),
    };
    assert_eq!(got, want, "end of tx {t} at script position {pos}");
}

fn check_state(ch: &Channel, rf: &Reference<'_>, pos: usize) {
    assert_eq!(ch.stats(), rf.stats(), "stats after script position {pos}");
    for n in rf.topo.nodes() {
        assert_eq!(ch.carrier_busy(n), rf.carrier_busy(n), "carrier at {n}");
        assert_eq!(ch.is_transmitting(n), rf.transmitting(n), "tx at {n}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Clean/corrupted partitions, carrier transitions, and statistics
    /// (mid-flight included) equal the pairwise-overlap reference.
    #[test]
    fn channel_matches_pairwise_overlap_reference(
        seed in any::<u64>(),
        n in 2u32..24,
        side in 40.0f64..220.0,
        range in 25.0f64..110.0,
        interference in prop_oneof![Just(1.0f64), 1.0f64..2.2],
        drop_prob in prop_oneof![Just(0.0f64), Just(0.0f64), 0.05f64..0.6],
        loss_salt in proptest::option::of(any::<u64>()),
        script in proptest::collection::vec((0u8..10, any::<u32>(), 0u64..3), 1..160),
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let topo = Arc::new(
            Topology::random(n, Area::new(side, side), range, &mut rng)
                .with_interference_range(range * interference),
        );
        let mut ch = Channel::new(Arc::clone(&topo), SimRng::seed_from_u64(seed ^ 0xA5));
        ch.set_drop_probability(drop_prob);
        if let Some(salt) = loss_salt {
            ch.set_loss_model(Box::new(HashLoss(salt)));
        }
        let mut rf = Reference {
            topo: &topo,
            txs: Vec::new(),
            drop_prob,
            loss: loss_salt.map(HashLoss),
            rng: SimRng::seed_from_u64(seed ^ 0xA5),
            stats: ChannelStats::default(),
        };
        let mut buf = TxEndBuf::default();
        // (channel id, reference index) of every transmission in flight.
        let mut live: Vec<(TxId, usize)> = Vec::new();
        let mut t_us = 0u64;
        let mut busy = Vec::new();
        for (pos, &(kind, pick, dt)) in script.iter().enumerate() {
            // Steps of 0 µs keep same-instant begins and ends in the mix.
            t_us += dt * 100;
            let now = SimTime::from_micros(t_us);
            let sender = NodeId::new(pick % n);
            if kind < 6 && !ch.is_transmitting(sender) {
                let id = ch.begin_tx(now, sender, &mut busy);
                let want = rf.begin(pos, now, sender);
                prop_assert_eq!(&busy, &want, "now_busy at position {}", pos);
                live.push((id, rf.txs.len() - 1));
            } else if !live.is_empty() {
                let which = live.swap_remove(pick as usize % live.len());
                end_both(&mut ch, &mut rf, &mut buf, pos, now, which);
            }
            check_state(&ch, &rf, pos);
        }
        // Clear the air.
        let mut pos = script.len();
        while let Some(which) = live.pop() {
            t_us += 50;
            end_both(&mut ch, &mut rf, &mut buf, pos, SimTime::from_micros(t_us), which);
            check_state(&ch, &rf, pos);
            pos += 1;
        }
        for node in topo.nodes() {
            prop_assert!(!ch.carrier_busy(node));
        }
    }
}
