//! The shared wireless medium: unit-disk propagation with collisions.
//!
//! The channel answers three questions the MAC layer needs:
//!
//! 1. **Who hears a transmission?** Every node within communication range
//!    of the sender (the unit-disk model at the paper's 125 m range).
//! 2. **Is the medium busy at a node?** — carrier sense: true while any
//!    in-flight transmission is audible there.
//! 3. **Did a frame survive?** A copy at receiver `r` is *corrupted* if
//!    any other transmission overlapped it at `r` (no capture effect), if
//!    `r` was itself transmitting (half-duplex), or if the configurable
//!    random loss injection fires (used for the paper's §4.3 transient
//!    packet-loss experiments).
//!
//! The channel is payload-agnostic: it tracks in-flight transmissions by
//! opaque [`TxId`]; the simulator keeps the frame body alongside the
//! transmission-end event it schedules.
//!
//! # Hot-path layout
//!
//! `begin_tx`/`end_tx_into` run once per frame (plus retries) and dominate
//! dense-traffic simulations, so the channel is built to not allocate in
//! steady state:
//!
//! * Who hears whom is read straight from the [`Topology`], which the
//!   channel shares by `Arc` with the rest of the world: a transmission
//!   finds its hearers and sensers through its sender's id and copies no
//!   neighbour list.
//! * In-flight transmissions live in a **slab** keyed by a dense slot id
//!   ([`TxId`] packs slot + generation); there is no hashing anywhere.
//! * Collisions are marked in O(degree) with **overlap epochs**: every
//!   `begin_tx` takes the next value of a counter as its epoch and
//!   stamps it on each node where the copies in flight just became
//!   undecodable. A copy is corrupted iff its hearer's stamp is at least
//!   the copy's epoch, so no transmission is ever revisited.
//! * A begin writes its carrier 0 → 1 list into a caller-recycled
//!   `Vec<NodeId>`, and an end writes into a caller-recycled
//!   [`TxEndBuf`], so the channel keeps no buffers of its own.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//!
//! use essat_net::channel::{Channel, TxEndBuf};
//! use essat_net::ids::NodeId;
//! use essat_net::topology::Topology;
//! use essat_sim::rng::SimRng;
//! use essat_sim::time::{SimDuration, SimTime};
//!
//! let topo = Topology::line(3, 10.0, 12.0); // 0 - 1 - 2
//! let mut ch = Channel::new(Arc::new(topo), SimRng::seed_from_u64(1));
//! let t0 = SimTime::ZERO;
//! let mut busy = Vec::new();
//! let tx = ch.begin_tx(t0, NodeId::new(0), &mut busy);
//! assert_eq!(busy, [NodeId::new(1)]);
//! assert!(ch.carrier_busy(NodeId::new(1)));
//! assert!(!ch.carrier_busy(NodeId::new(2)), "node 2 is out of range of 0");
//! let mut end = TxEndBuf::default();
//! ch.end_tx_into(t0 + SimDuration::from_micros(416), tx, &mut end);
//! assert_eq!(end.clean(), [NodeId::new(1)]);
//! ```

use std::sync::Arc;

use essat_sim::rng::SimRng;
use essat_sim::time::SimTime;

use crate::ids::NodeId;
use crate::topology::Topology;

/// A pluggable per-link loss process consulted once per otherwise-clean
/// frame copy at [`Channel::end_tx_into`] time.
///
/// Implementations own whatever per-link state they need (e.g. the
/// scenario engine's Gilbert–Elliott chains) and must be deterministic
/// for a given construction seed: the channel calls `dropped` in a
/// deterministic order, so a deterministic model keeps runs
/// bit-reproducible. The model **composes** with the static
/// [`Channel::set_drop_probability`]: a copy is lost if the model drops
/// it *or* the baseline random loss fires (the baseline draw is skipped
/// when the model already dropped the copy). With both disabled the
/// per-copy cost is a single branch.
pub trait LossModel: std::fmt::Debug + Send {
    /// True if the copy of the frame ending at `now`, sent by `sender`,
    /// is lost at `receiver`.
    fn dropped(&mut self, now: SimTime, sender: NodeId, receiver: NodeId) -> bool;
}

/// Identifier of an in-flight transmission.
///
/// Packs the slab slot (low 32 bits) and a generation counter (high 32
/// bits) so stale ids are detected exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxId(u64);

impl TxId {
    /// Raw packed value (generation << 32 | slot).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    fn new(slot: u32, seq: u32) -> Self {
        TxId((seq as u64) << 32 | slot as u64)
    }

    /// The dense slab-slot index of this transmission while in flight.
    /// Unique among concurrent transmissions; reused (with a bumped
    /// generation) after the transmission ends. Callers can use it to
    /// key small side tables of per-transmission state.
    pub fn slot_index(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    fn slot(self) -> usize {
        self.slot_index()
    }

    fn seq(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One slab slot for an in-flight transmission. Hearers/sensers are the
/// sender's neighbour lists in the topology.
#[derive(Debug)]
struct ActiveTx {
    /// The `begin_tx` counter value of this transmission; its copy at
    /// hearer `h` is corrupted iff `Channel::overlap[h] >= epoch`. The
    /// low 32 bits double as the [`TxId`] generation.
    epoch: u64,
    live: bool,
    sender: NodeId,
    start: SimTime,
}

/// Reusable outcome buffer for [`Channel::end_tx_into`]: the outcome of
/// finishing a transmission, without allocating in steady state.
///
/// The clean hearers and the nodes whose carrier went idle share one
/// list partitioned as `[clean | now-idle]`; the corrupted hearers have a
/// list of their own, filled in the same pass as the clean ones. Each
/// class is exposed as a slice. One buffer per world keeps the fan-out
/// loops on warm allocations.
#[derive(Debug)]
pub struct TxEndBuf {
    /// The transmitting node.
    pub sender: NodeId,
    /// When the transmission started.
    pub started: SimTime,
    nodes: Vec<NodeId>,
    clean_end: usize,
    corrupted: Vec<NodeId>,
}

impl Default for TxEndBuf {
    fn default() -> Self {
        TxEndBuf {
            sender: NodeId::new(0),
            started: SimTime::ZERO,
            nodes: Vec::new(),
            clean_end: 0,
            corrupted: Vec::new(),
        }
    }
}

impl TxEndBuf {
    /// Hearers whose copy survived collisions and loss injection, in
    /// ascending id order. The caller must still verify each
    /// receiver's radio was active for the whole airtime before
    /// delivering to its MAC.
    #[inline]
    pub fn clean(&self) -> &[NodeId] {
        &self.nodes[..self.clean_end]
    }

    /// Hearers whose copy was corrupted (collision, half-duplex, or
    /// injected loss), in ascending id order.
    #[inline]
    pub fn corrupted(&self) -> &[NodeId] {
        &self.corrupted
    }

    /// Nodes at which the medium just became idle (carrier 1 → 0), in
    /// ascending id order; their MACs must be notified.
    #[inline]
    pub fn now_idle(&self) -> &[NodeId] {
        &self.nodes[self.clean_end..]
    }

    /// Number of corrupted hearers (probe reporting).
    #[inline]
    pub fn corrupted_len(&self) -> u32 {
        self.corrupted.len() as u32
    }

    fn reset(&mut self, sender: NodeId, started: SimTime) {
        self.sender = sender;
        self.started = started;
        self.nodes.clear();
        self.clean_end = 0;
        self.corrupted.clear();
    }
}

/// Counters the channel keeps for the run summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Transmissions started.
    pub transmissions: u64,
    /// (transmission, receiver) pairs corrupted by overlap or half-duplex.
    pub collisions: u64,
    /// (transmission, receiver) pairs dropped by loss injection.
    pub injected_drops: u64,
}

/// The shared medium. One instance per simulation.
#[derive(Debug)]
pub struct Channel {
    topo: Arc<Topology>,
    carrier_count: Vec<u32>,
    transmitting: Vec<bool>,
    /// Per node, the epoch of the latest `begin_tx` that made every copy
    /// then in flight there undecodable (0: never). Only ever raised to
    /// the current epoch, so it is monotone.
    overlap: Vec<u64>,
    /// Number of `begin_tx` calls so far: the newest transmission's
    /// epoch.
    epoch: u64,
    /// Transmission slab; `live` marks the in-flight slots.
    slots: Vec<ActiveTx>,
    free: Vec<u32>,
    drop_prob: f64,
    /// Optional per-link loss process; composes with `drop_prob`.
    loss_model: Option<Box<dyn LossModel>>,
    rng: SimRng,
    stats: ChannelStats,
}

impl Channel {
    /// Creates a channel over the given (possibly shared) topology with
    /// no loss injection.
    pub fn new(topo: Arc<Topology>, rng: SimRng) -> Self {
        let n = topo.node_count();
        Channel {
            topo,
            carrier_count: vec![0; n],
            transmitting: vec![false; n],
            overlap: vec![0; n],
            epoch: 0,
            slots: Vec::new(),
            free: Vec::new(),
            drop_prob: 0.0,
            loss_model: None,
            rng,
            stats: ChannelStats::default(),
        }
    }

    /// Sets the per-(frame, receiver) random drop probability used for
    /// transient-loss experiments.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn set_drop_probability(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.drop_prob = p;
    }

    /// Current loss-injection probability.
    pub fn drop_probability(&self) -> f64 {
        self.drop_prob
    }

    /// Installs a per-link loss process. It runs on every otherwise-
    /// clean copy and **composes** with the static drop probability
    /// (either source of loss kills the copy); drops from both are
    /// counted as [`ChannelStats::injected_drops`].
    pub fn set_loss_model(&mut self, model: Box<dyn LossModel>) {
        self.loss_model = Some(model);
    }

    /// Removes any installed loss process.
    pub fn clear_loss_model(&mut self) {
        self.loss_model = None;
    }

    /// True if any in-flight transmission is audible at `node`.
    pub fn carrier_busy(&self, node: NodeId) -> bool {
        self.carrier_count[node.index()] > 0
    }

    /// True if `node` is currently transmitting.
    pub fn is_transmitting(&self, node: NodeId) -> bool {
        self.transmitting[node.index()]
    }

    /// Run counters. `collisions` includes the already-corrupted copies
    /// of transmissions still in flight, so it counts every corrupted
    /// pair as of now, not only those resolved by an end.
    pub fn stats(&self) -> ChannelStats {
        let mut stats = self.stats;
        for tx in self.slots.iter().filter(|tx| tx.live) {
            stats.collisions += self
                .topo
                .neighbors(tx.sender)
                .iter()
                .filter(|h| self.overlap[h.index()] >= tx.epoch)
                .count() as u64;
        }
        stats
    }

    /// Starts a transmission from `sender`, returning the handle to
    /// pass to [`Channel::end_tx_into`]. `now_busy` is cleared, then
    /// receives the nodes at which the medium just became busy (carrier
    /// 0 → 1), in ascending id order; their MACs must be notified.
    ///
    /// The caller schedules the matching [`Channel::end_tx_into`] one
    /// airtime later and must ensure the sender's radio is active.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is already transmitting (the MAC must never do
    /// this).
    pub fn begin_tx(&mut self, now: SimTime, sender: NodeId, now_busy: &mut Vec<NodeId>) -> TxId {
        now_busy.clear();
        let si = sender.index();
        assert!(
            !self.transmitting[si],
            "{sender} started a second concurrent transmission"
        );
        self.stats.transmissions += 1;
        self.epoch += 1;
        let epoch = self.epoch;
        self.transmitting[si] = true;
        // Half-duplex: the sender cannot receive while transmitting, so
        // every copy in flight at it is lost.
        self.overlap[si] = epoch;

        // Energy is sensed — and corrupts receptions — out to the
        // interference range; only communication-range hearers can
        // decode the frame itself. A second audible transmission at `h`
        // destroys every decodable copy there, the new one included (no
        // capture), and a transmitting hearer cannot decode the new copy
        // (half-duplex). The stamp covers exactly the copies begun so
        // far: later transmissions carry larger epochs.
        for &h in self.topo.interference_neighbors(sender) {
            let hi = h.index();
            let cc = &mut self.carrier_count[hi];
            *cc += 1;
            if *cc == 1 {
                now_busy.push(h);
            }
            if *cc >= 2 || self.transmitting[hi] {
                self.overlap[hi] = epoch;
            }
        }

        let tx = ActiveTx {
            epoch,
            live: true,
            sender,
            start: now,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = tx;
                s
            }
            None => {
                self.slots.push(tx);
                self.slots.len() as u32 - 1
            }
        };
        TxId::new(slot, epoch as u32)
    }

    /// Finishes a transmission, writing delivery outcomes and carrier
    /// transitions into a caller-recycled [`TxEndBuf`].
    ///
    /// The fan-out is vectorised: one pass over the sender's hearers
    /// puts each on the clean or the corrupted list (loss injection
    /// draws happen here, in ascending-id order, one per copy that no
    /// overlap corrupted), and a second pass over its interference
    /// neighbours appends the carrier 1 → 0 transitions.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not correspond to an in-flight transmission.
    pub fn end_tx_into(&mut self, now: SimTime, id: TxId, out: &mut TxEndBuf) {
        let slot = id.slot();
        let tx = self
            .slots
            .get_mut(slot)
            .filter(|tx| tx.live && tx.epoch as u32 == id.seq())
            .expect("end_tx_into for unknown transmission");
        tx.live = false;
        let (sender, epoch) = (tx.sender, tx.epoch);
        out.reset(sender, tx.start);
        self.free.push(slot as u32);
        self.transmitting[sender.index()] = false;

        // Pass 1 — classify each hearer once, in hearer (ascending-id)
        // order. Loss draws happen here and only here: one per copy no
        // overlap corrupted, in hearer order, which fixes the RNG draw
        // sequence.
        let lossy = self.loss_model.is_some() || self.drop_prob > 0.0;
        for &h in self.topo.neighbors(sender) {
            if self.overlap[h.index()] >= epoch {
                self.stats.collisions += 1;
                out.corrupted.push(h);
                continue;
            }
            if lossy {
                // Loss sources compose: the per-link model (if any) OR
                // the configured baseline probability.
                let injected = match self.loss_model.as_deref_mut() {
                    Some(model) => model.dropped(now, sender, h),
                    None => false,
                } || (self.drop_prob > 0.0 && self.rng.chance(self.drop_prob));
                if injected {
                    self.stats.injected_drops += 1;
                    out.corrupted.push(h);
                    continue;
                }
            }
            out.nodes.push(h);
        }
        out.clean_end = out.nodes.len();

        // Pass 2 — decrement carrier counts over the interference range,
        // appending the 1 → 0 transitions after the clean hearers.
        for &h in self.topo.interference_neighbors(sender) {
            let cc = &mut self.carrier_count[h.index()];
            debug_assert!(*cc > 0, "carrier count underflow at {h}");
            *cc -= 1;
            if *cc == 0 {
                out.nodes.push(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use essat_sim::time::SimDuration;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn t_us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Begins a transmission from `sender` at `now`, ignoring which
    /// carriers it raised.
    pub(super) fn begin(ch: &mut Channel, now: SimTime, sender: NodeId) -> TxId {
        ch.begin_tx(now, sender, &mut Vec::new())
    }

    /// Ends `id` at `now` into a fresh outcome buffer.
    pub(super) fn finish(ch: &mut Channel, now: SimTime, id: TxId) -> TxEndBuf {
        let mut out = TxEndBuf::default();
        ch.end_tx_into(now, id, &mut out);
        out
    }

    /// 0 - 1 - 2 - 3 line, only adjacent nodes hear each other.
    fn line4() -> Channel {
        let topo = Topology::line(4, 10.0, 12.0);
        Channel::new(Arc::new(topo), SimRng::seed_from_u64(42))
    }

    #[test]
    fn clean_delivery_to_neighbors_only() {
        let mut ch = line4();
        let mut busy = vec![n(3)];
        let tx = ch.begin_tx(t_us(0), n(1), &mut busy);
        assert_eq!(busy, [n(0), n(2)], "cleared, then filled in id order");
        let end = finish(&mut ch, t_us(416), tx);
        assert_eq!(end.clean(), [n(0), n(2)]);
        assert!(end.corrupted().is_empty());
        assert_eq!(end.now_idle(), [n(0), n(2)]);
        assert_eq!(ch.stats().transmissions, 1);
        assert_eq!(ch.stats().collisions, 0);
    }

    #[test]
    fn overlapping_transmissions_collide_at_common_hearer() {
        let mut ch = line4();
        // 0 and 2 both transmit; node 1 hears both -> both corrupt at 1.
        let a = begin(&mut ch, t_us(0), n(0));
        let b = begin(&mut ch, t_us(100), n(2));
        let end_a = finish(&mut ch, t_us(416), a);
        assert!(end_a.clean().is_empty());
        assert_eq!(end_a.corrupted(), [n(1)]);
        let end_b = finish(&mut ch, t_us(516), b);
        // Node 3 only hears 2, so its copy survives; node 1's copy died.
        assert_eq!(end_b.clean(), [n(3)]);
        assert_eq!(end_b.corrupted(), [n(1)]);
        assert!(ch.stats().collisions >= 2);
    }

    #[test]
    fn non_overlapping_sequential_txs_are_clean() {
        let mut ch = line4();
        let a = begin(&mut ch, t_us(0), n(0));
        let ea = finish(&mut ch, t_us(416), a);
        assert_eq!(ea.clean(), [n(1)]);
        let b = begin(&mut ch, t_us(500), n(2));
        let eb = finish(&mut ch, t_us(916), b);
        assert_eq!(eb.clean(), [n(1), n(3)]);
        assert_eq!(ch.stats().collisions, 0);
    }

    #[test]
    fn half_duplex_sender_cannot_receive() {
        let mut ch = line4();
        // 1 transmits; while it does, 2 transmits too. 1 must not receive
        // 2's frame even though only one tx is audible at 1 (its own tx
        // doesn't count toward its carrier).
        let a = begin(&mut ch, t_us(0), n(1));
        let b = begin(&mut ch, t_us(10), n(2));
        let eb = finish(&mut ch, t_us(110), b);
        assert!(
            !eb.clean().contains(&n(1)),
            "transmitting node must not receive"
        );
        // 3 hears only 2's tx -> clean there.
        assert!(eb.clean().contains(&n(3)));
        let ea = finish(&mut ch, t_us(416), a);
        // 1's frame is corrupted at 2 (2 was transmitting during it).
        assert!(ea.corrupted().contains(&n(2)));
        // ...and clean at 0 (0 heard only 1's frame).
        assert!(ea.clean().contains(&n(0)));
    }

    #[test]
    fn late_starter_corrupts_frame_already_in_flight() {
        let mut ch = line4();
        let a = begin(&mut ch, t_us(0), n(0)); // 1 hears
                                               // 2 starts mid-flight; at node 1 carrier goes 1 -> 2.
        let _b = begin(&mut ch, t_us(200), n(2));
        let ea = finish(&mut ch, t_us(416), a);
        assert_eq!(ea.corrupted(), [n(1)]);
        assert!(ea.clean().is_empty());
    }

    #[test]
    fn carrier_counts_track_busy_idle() {
        let mut ch = line4();
        assert!(!ch.carrier_busy(n(1)));
        let a = begin(&mut ch, t_us(0), n(0));
        assert!(ch.carrier_busy(n(1)));
        assert!(!ch.carrier_busy(n(3)));
        let b = begin(&mut ch, t_us(10), n(2));
        assert!(ch.carrier_busy(n(3)));
        let ea = finish(&mut ch, t_us(416), a);
        assert!(!ea.now_idle().contains(&n(1)), "1 still hears 2's tx");
        assert!(ch.carrier_busy(n(1)));
        let eb = finish(&mut ch, t_us(426), b);
        assert!(eb.now_idle().contains(&n(1)));
        assert!(!ch.carrier_busy(n(1)));
        assert!(!ch.carrier_busy(n(3)));
    }

    #[test]
    fn is_transmitting_lifecycle() {
        let mut ch = line4();
        assert!(!ch.is_transmitting(n(0)));
        let a = begin(&mut ch, t_us(0), n(0));
        assert!(ch.is_transmitting(n(0)));
        finish(&mut ch, t_us(10), a);
        assert!(!ch.is_transmitting(n(0)));
    }

    #[test]
    #[should_panic(expected = "second concurrent transmission")]
    fn double_tx_rejected() {
        let mut ch = line4();
        let _ = begin(&mut ch, t_us(0), n(0));
        let _ = begin(&mut ch, t_us(1), n(0));
    }

    #[test]
    #[should_panic(expected = "unknown transmission")]
    fn stale_tx_id_rejected() {
        let mut ch = line4();
        let a = begin(&mut ch, t_us(0), n(0));
        finish(&mut ch, t_us(10), a);
        // The slot is reused by a new transmission; the stale id must
        // not end it.
        let _b = begin(&mut ch, t_us(20), n(2));
        finish(&mut ch, t_us(30), a);
    }

    #[test]
    fn slab_reuse_many_sequential_txs() {
        let mut ch = line4();
        let mut busy = Vec::new();
        for i in 0..1_000u64 {
            let t0 = t_us(i * 1_000);
            let tx = ch.begin_tx(t0, n((i % 4) as u32), &mut busy);
            finish(&mut ch, t0 + us(416), tx);
        }
        assert_eq!(ch.stats().transmissions, 1_000);
        assert_eq!(ch.stats().collisions, 0);
        for i in 0..4 {
            assert!(!ch.carrier_busy(n(i)));
            assert!(!ch.is_transmitting(n(i)));
        }
    }

    #[test]
    fn loss_injection_drops_roughly_p() {
        let topo = Topology::line(2, 10.0, 12.0);
        let mut ch = Channel::new(Arc::new(topo), SimRng::seed_from_u64(7));
        ch.set_drop_probability(0.3);
        let mut dropped = 0;
        let trials = 2000;
        for i in 0..trials {
            let t0 = SimTime::from_micros(i * 1000);
            let tx = begin(&mut ch, t0, n(0));
            let end = finish(&mut ch, t0 + us(416), tx);
            if end.corrupted().contains(&n(1)) {
                dropped += 1;
            }
        }
        let frac = dropped as f64 / trials as f64;
        assert!((frac - 0.3).abs() < 0.05, "drop fraction {frac}");
        assert_eq!(ch.stats().injected_drops, dropped);
        assert_eq!(ch.stats().collisions, 0);
    }

    /// Drops every copy at one chosen receiver, nothing else.
    #[derive(Debug)]
    struct DropAt(NodeId);

    impl LossModel for DropAt {
        fn dropped(&mut self, _now: SimTime, _sender: NodeId, receiver: NodeId) -> bool {
            receiver == self.0
        }
    }

    #[test]
    fn loss_model_composes_with_static_probability() {
        // Model alone: only its chosen receiver loses copies.
        let mut ch = line4();
        ch.set_loss_model(Box::new(DropAt(n(0))));
        let tx = begin(&mut ch, t_us(0), n(1));
        let end = finish(&mut ch, t_us(416), tx);
        assert_eq!(end.clean(), [n(2)]);
        assert_eq!(end.corrupted(), [n(0)]);
        assert_eq!(ch.stats().injected_drops, 1);
        // Baseline composes on top of the model instead of being
        // silently overridden (the PR 3 review bug): with p = 1 every
        // copy the model spared is still dropped by the baseline.
        ch.set_drop_probability(1.0);
        let tx = begin(&mut ch, t_us(1_000), n(1));
        let end = finish(&mut ch, t_us(1_416), tx);
        assert!(end.clean().is_empty(), "baseline must still fire");
        assert_eq!(end.corrupted(), [n(0), n(2)]);
        assert_eq!(ch.stats().injected_drops, 3);
        // Removing the model keeps the static path.
        ch.clear_loss_model();
        let tx = begin(&mut ch, t_us(2_000), n(1));
        let end = finish(&mut ch, t_us(2_416), tx);
        assert!(end.clean().is_empty(), "p = 1 drops every copy");
        assert_eq!(end.corrupted(), [n(0), n(2)]);
    }

    #[test]
    fn loss_model_sees_frame_end_time_and_endpoints() {
        #[derive(Debug, Default)]
        struct Recorder(std::sync::Arc<std::sync::Mutex<Vec<(SimTime, NodeId, NodeId)>>>);
        impl LossModel for Recorder {
            fn dropped(&mut self, now: SimTime, sender: NodeId, receiver: NodeId) -> bool {
                self.0.lock().unwrap().push((now, sender, receiver));
                false
            }
        }
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut ch = line4();
        ch.set_loss_model(Box::new(Recorder(log.clone())));
        let tx = begin(&mut ch, t_us(100), n(1));
        let _ = finish(&mut ch, t_us(516), tx);
        assert_eq!(
            *log.lock().unwrap(),
            vec![(t_us(516), n(1), n(0)), (t_us(516), n(1), n(2))]
        );
    }

    #[test]
    fn isolated_node_transmission_reaches_nobody() {
        let topo = Topology::line(2, 100.0, 10.0); // out of range
        let mut ch = Channel::new(Arc::new(topo), SimRng::seed_from_u64(1));
        let mut busy = Vec::new();
        let tx = ch.begin_tx(t_us(0), n(0), &mut busy);
        assert!(busy.is_empty());
        let end = finish(&mut ch, t_us(416), tx);
        assert!(end.clean().is_empty());
        assert!(end.corrupted().is_empty());
    }

    #[test]
    fn tx_end_reports_start_time() {
        let mut ch = line4();
        let tx = begin(&mut ch, t_us(123), n(0));
        let end = finish(&mut ch, t_us(133), tx);
        assert_eq!(end.started, t_us(123));
        assert_eq!(end.sender, n(0));
    }
}

#[cfg(test)]
mod interference_tests {
    use super::tests::{begin, finish};
    use super::*;
    use crate::topology::Topology;
    use essat_sim::rng::SimRng;
    use essat_sim::time::SimTime;

    fn t_us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Line 0-1-2-3 spaced 10 m apart: communication 12 m (adjacent
    /// only), interference 22 m (two hops).
    fn two_range() -> Channel {
        let topo = Topology::line(4, 10.0, 12.0).with_interference_range(22.0);
        Channel::new(Arc::new(topo), SimRng::seed_from_u64(5))
    }

    #[test]
    fn interference_is_sensed_but_not_decoded() {
        let mut ch = two_range();
        let mut busy = Vec::new();
        let tx = ch.begin_tx(t_us(0), n(0), &mut busy);
        // Node 2 senses node 0 (22 m reach) but cannot decode it.
        assert!(
            ch.carrier_busy(n(2)),
            "carrier sensed at interference range"
        );
        assert!(busy.contains(&n(2)));
        assert!(!ch.carrier_busy(n(3)), "three hops is beyond interference");
        let end = finish(&mut ch, t_us(416), tx);
        assert_eq!(end.clean(), [n(1)], "only comm-range decodes");
        assert!(!end.corrupted().contains(&n(2)));
        assert!(end.now_idle().contains(&n(2)));
        assert!(!ch.carrier_busy(n(2)));
    }

    #[test]
    fn hidden_interferer_corrupts_reception() {
        let mut ch = two_range();
        // 0 transmits to 1; 3 transmits concurrently. 3 is outside 1's
        // communication range but inside its interference range — the
        // classic hidden-terminal corruption the one-range model misses.
        let a = begin(&mut ch, t_us(0), n(0));
        let _b = begin(&mut ch, t_us(100), n(3));
        let ea = finish(&mut ch, t_us(416), a);
        assert!(
            ea.corrupted().contains(&n(1)),
            "interference-range overlap must corrupt"
        );
        assert!(ea.clean().is_empty());
    }

    #[test]
    fn one_range_default_unchanged() {
        // Without an explicit interference range the two lists coincide,
        // so 3's transmission cannot affect 1.
        let topo = Topology::line(4, 10.0, 12.0);
        let mut ch = Channel::new(Arc::new(topo), SimRng::seed_from_u64(5));
        let a = begin(&mut ch, t_us(0), n(0));
        let _b = begin(&mut ch, t_us(100), n(3));
        let ea = finish(&mut ch, t_us(416), a);
        assert_eq!(ea.clean(), [n(1)]);
    }
}
