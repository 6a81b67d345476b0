//! CSMA/CA medium-access control (802.11-DCF-style), as a pure state
//! machine.
//!
//! The paper layers ESSAT "between the MAC protocol and the query
//! service" and evaluates on IEEE 802.11b at 1 Mbps; this module
//! reproduces the behaviours that matter for those results:
//!
//! * carrier sensing with **DIFS** deferral;
//! * slotted **binary-exponential backoff** (CW 32 → 1024), frozen while
//!   the medium is busy and resumed after the next idle DIFS;
//! * immediate transmission for a fresh frame that finds the medium idle
//!   for a full DIFS (no gratuitous backoff at low load);
//! * unicast frames acknowledged **SIFS** later, retransmitted up to a
//!   retry limit on ACK timeout — the source of the multi-hop delay
//!   *jitter* that motivates the paper's traffic shapers;
//! * broadcast frames sent without ACKs (query floods);
//! * duplicate suppression at the receiver (retransmitted frames are
//!   re-ACKed but delivered once);
//! * suspension while the node's radio is off.
//!
//! The state machine never touches the engine: every input appends
//! [`MacAction`]s (timers to arm or cancel, transmissions to start,
//! frames to deliver up) to a caller-recycled buffer that the simulator
//! executes. The MAC records only *which* timers are armed
//! ([`Mac::is_armed`]); the executor owns the expiry events. It
//! schedules one per [`MacAction::SetTimer`] and cancels it on
//! [`MacAction::CancelTimer`], on a timer [`Mac::carrier_busy`] froze,
//! and when the radio sleeps, so a disarmed timer never dispatches.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use essat_sim::rng::SimRng;
use essat_sim::time::{SimDuration, SimTime};

use crate::frame::{airtime, Dest, Frame, FrameId, FrameKind, ACK_BYTES};
use crate::ids::NodeId;

/// MAC timing and contention parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacParams {
    /// Link bitrate in bits per second (paper: 1 Mbps).
    pub bitrate_bps: u64,
    /// Backoff slot time.
    pub slot: SimDuration,
    /// Short inter-frame space (data → ACK gap).
    pub sifs: SimDuration,
    /// Distributed inter-frame space (idle time before access).
    pub difs: SimDuration,
    /// Initial contention window (slots).
    pub cw_min: u32,
    /// Maximum contention window (slots).
    pub cw_max: u32,
    /// Maximum transmission attempts for a unicast frame.
    pub retry_limit: u32,
}

impl MacParams {
    /// The paper's setup: 802.11b-style timing at 1 Mbps.
    pub fn paper() -> Self {
        MacParams {
            bitrate_bps: 1_000_000,
            slot: SimDuration::from_micros(20),
            sifs: SimDuration::from_micros(10),
            difs: SimDuration::from_micros(50),
            cw_min: 32,
            cw_max: 1024,
            retry_limit: 7,
        }
    }

    /// Airtime of an ACK frame.
    pub fn ack_airtime(&self) -> SimDuration {
        airtime(ACK_BYTES, self.bitrate_bps)
    }

    /// How long after a unicast transmission ends the sender waits for an
    /// ACK before declaring a timeout.
    pub fn ack_timeout(&self) -> SimDuration {
        self.sifs + self.ack_airtime() + self.slot * 2
    }
}

impl Default for MacParams {
    fn default() -> Self {
        MacParams::paper()
    }
}

/// Timer classes the MAC arms. The simulator routes expiry back via
/// [`Mac::timer_fired_into`]; at most one timer of each kind is armed
/// at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacTimer {
    /// Idle-medium wait before transmission or backoff.
    Difs,
    /// Backoff countdown completion.
    Backoff,
    /// ACK wait after a unicast transmission.
    AckTimeout,
    /// SIFS delay before sending a pending ACK.
    AckDelay,
}

impl MacTimer {
    /// Number of timer kinds.
    pub const COUNT: usize = 4;

    /// Dense index in `0..COUNT`, for per-kind arrays.
    pub fn idx(self) -> usize {
        match self {
            MacTimer::Difs => 0,
            MacTimer::Backoff => 1,
            MacTimer::AckTimeout => 2,
            MacTimer::AckDelay => 3,
        }
    }
}

impl fmt::Display for MacTimer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MacTimer::Difs => "difs",
            MacTimer::Backoff => "backoff",
            MacTimer::AckTimeout => "ack-timeout",
            MacTimer::AckDelay => "ack-delay",
        };
        f.write_str(s)
    }
}

/// Instructions emitted by the MAC for the simulator to execute.
#[derive(Debug, Clone, PartialEq)]
pub enum MacAction<P> {
    /// Arm (or re-arm) a timer; deliver expiry via
    /// [`Mac::timer_fired_into`]. An earlier action of the same batch
    /// may already have disarmed it again: schedule only while
    /// [`Mac::is_armed`] holds.
    SetTimer {
        /// Which timer.
        kind: MacTimer,
        /// Delay from now.
        after: SimDuration,
    },
    /// A timer was disarmed: cancel its pending expiry.
    CancelTimer {
        /// Which timer.
        kind: MacTimer,
    },
    /// Put a frame on the air for `airtime`; call [`Mac::tx_ended_into`]
    /// when it completes.
    StartTx {
        /// The frame (already containing its final size).
        frame: Frame<P>,
        /// Time on the air.
        airtime: SimDuration,
    },
    /// Hand a received frame to the upper layer.
    Deliver {
        /// The received frame.
        frame: Frame<P>,
    },
    /// A queued unicast frame was acknowledged (or a broadcast finished).
    TxDone {
        /// The completed frame.
        frame: Frame<P>,
        /// Attempts used (1 = no retries).
        attempts: u32,
    },
    /// A unicast frame exhausted its retries and was dropped.
    TxFailed {
        /// The abandoned frame.
        frame: Frame<P>,
        /// Attempts used.
        attempts: u32,
    },
}

/// Per-run MAC counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacStats {
    /// Data frames handed to the MAC.
    pub enqueued: u64,
    /// Data transmission attempts (including retries).
    pub data_tx: u64,
    /// ACK frames transmitted.
    pub ack_tx: u64,
    /// Unicast frames completed successfully.
    pub delivered: u64,
    /// Unicast frames dropped after the retry limit.
    pub failed: u64,
    /// Retransmissions performed.
    pub retries: u64,
    /// Duplicate data frames suppressed at the receiver.
    pub duplicates: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Radio off; queue retained.
    Suspended,
    /// Nothing to transmit.
    Idle,
    /// Head frame waiting for the medium to go idle.
    WaitIdle,
    /// DIFS running.
    Difs,
    /// Backoff countdown running.
    Backoff,
    /// Our data frame is on the air.
    TxData,
    /// Waiting for the ACK of our last unicast.
    WaitAck,
    /// Our ACK frame is on the air.
    TxAck,
}

/// What the MAC should go back to after an ACK transmission it injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AfterAck {
    AccessCycle,
    WaitAck,
    RetryNow,
}

/// The per-node CSMA/CA engine. `P` is the upper-layer payload; ACKs are
/// generated internally with `P::default()`.
#[derive(Debug)]
pub struct Mac<P> {
    node: NodeId,
    params: MacParams,
    rng: SimRng,
    state: State,
    medium_busy: bool,
    queue: VecDeque<Frame<P>>,
    attempts: u32,
    cw: u32,
    cw_pending: bool,
    backoff_remaining: Option<SimDuration>,
    backoff_deadline: SimTime,
    /// Owed ACKs as `(destination, acked frame id)`; the frame itself is
    /// built when the SIFS delay fires so a primed note can ride along.
    pending_acks: VecDeque<(NodeId, FrameId)>,
    /// Upper-layer payloads to piggyback on the next ACK to a node
    /// (the paper's §4.3 phase-update-request-in-ACK mechanism).
    ack_notes: HashMap<NodeId, P>,
    after_ack: AfterAck,
    /// Which timer kinds are armed ([`Mac::is_armed`]).
    timer_armed: [bool; MacTimer::COUNT],
    last_seen: HashMap<NodeId, FrameId>,
    next_frame_seq: u64,
    stats: MacStats,
}

impl<P: Clone + Default + PartialEq> Mac<P> {
    /// Creates a MAC for `node`. The node's radio is assumed active; call
    /// [`Mac::radio_slept`] first if it starts asleep.
    pub fn new(node: NodeId, params: MacParams, rng: SimRng) -> Self {
        Mac {
            node,
            params,
            rng,
            state: State::Idle,
            medium_busy: false,
            queue: VecDeque::new(),
            attempts: 0,
            cw: params.cw_min,
            cw_pending: false,
            backoff_remaining: None,
            backoff_deadline: SimTime::ZERO,
            pending_acks: VecDeque::new(),
            ack_notes: HashMap::new(),
            after_ack: AfterAck::AccessCycle,
            timer_armed: [false; MacTimer::COUNT],
            last_seen: HashMap::new(),
            next_frame_seq: 0,
            stats: MacStats::default(),
        }
    }

    /// This MAC's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The MAC parameters.
    pub fn params(&self) -> &MacParams {
        &self.params
    }

    /// Run counters.
    pub fn stats(&self) -> MacStats {
        self.stats
    }

    /// Allocates a frame id unique across the simulation (namespaced by
    /// node). Upper layers use this when constructing data frames.
    pub fn alloc_frame_id(&mut self) -> FrameId {
        let id = FrameId::new(((self.node.as_u32() as u64 + 1) << 40) | self.next_frame_seq);
        self.next_frame_seq += 1;
        id
    }

    /// Frames queued but not yet completed (including the one in flight).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// True if the MAC has no queued frames, no frame in flight, and no
    /// ACKs owed — i.e. the radio may be switched off without aborting a
    /// link-layer exchange in progress.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
            && self.pending_acks.is_empty()
            && matches!(self.state, State::Idle | State::Suspended)
    }

    /// True if the radio may be suspended *right now* without corrupting
    /// a frame on the air or abandoning an ACK exchange mid-flight.
    /// Weaker than [`Mac::is_quiescent`]: queued frames are fine (they
    /// are retained and retried on wake), but an in-progress transmission
    /// or ACK wait is not. Fixed-schedule protocols (SYNC, PSM) use this
    /// at window edges.
    pub fn can_suspend(&self) -> bool {
        !matches!(self.state, State::TxData | State::TxAck | State::WaitAck)
    }

    /// True while a timer of `kind` is armed: from the call that emits
    /// its [`MacAction::SetTimer`] until it fires or is disarmed.
    pub fn is_armed(&self, kind: MacTimer) -> bool {
        self.timer_armed[kind.idx()]
    }

    fn arm(&mut self, kind: MacTimer, after: SimDuration, out: &mut Vec<MacAction<P>>) {
        self.timer_armed[kind.idx()] = true;
        out.push(MacAction::SetTimer { kind, after });
    }

    fn disarm(&mut self, kind: MacTimer, out: &mut Vec<MacAction<P>>) {
        self.timer_armed[kind.idx()] = false;
        out.push(MacAction::CancelTimer { kind });
    }

    /// Hands a data frame to the MAC for transmission.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not a data frame or claims a different
    /// source.
    pub fn enqueue_into(&mut self, frame: Frame<P>, now: SimTime, out: &mut Vec<MacAction<P>>) {
        assert_eq!(
            frame.kind,
            FrameKind::Data,
            "upper layers enqueue data frames"
        );
        assert_eq!(frame.src, self.node, "frame source must be this node");
        self.stats.enqueued += 1;
        self.queue.push_back(frame);
        if self.state == State::Idle {
            self.begin_access(now, out);
        }
    }

    /// Starts the medium-access cycle for the head frame. State must
    /// allow it (Idle or re-entry after a completed exchange).
    fn begin_access(&mut self, _now: SimTime, out: &mut Vec<MacAction<P>>) {
        debug_assert!(!self.queue.is_empty());
        self.attempts += 1;
        if self.medium_busy {
            // Found busy: defer, and contend with a backoff afterwards.
            self.cw_pending = true;
        }
        self.resume_access(out);
    }

    /// Re-enters the access cycle without counting a new attempt
    /// (used after busy/idle transitions).
    fn resume_access(&mut self, out: &mut Vec<MacAction<P>>) {
        if self.medium_busy {
            self.state = State::WaitIdle;
        } else {
            self.state = State::Difs;
            self.arm(MacTimer::Difs, self.params.difs, out);
        }
    }

    fn start_data_tx(&mut self, out: &mut Vec<MacAction<P>>) {
        let frame = self.queue.front().expect("tx without frame").clone();
        let airtime = frame.airtime(self.params.bitrate_bps);
        self.stats.data_tx += 1;
        self.state = State::TxData;
        out.push(MacAction::StartTx { frame, airtime });
    }

    /// The medium became busy at this node. Never produces actions: it
    /// freezes a running DIFS or backoff and returns that timer, whose
    /// pending expiry the caller cancels.
    #[must_use = "the frozen timer's pending expiry must be cancelled"]
    pub fn carrier_busy(&mut self, now: SimTime) -> Option<MacTimer> {
        self.medium_busy = true;
        let kind = self.freeze(now)?;
        self.timer_armed[kind.idx()] = false;
        self.state = State::WaitIdle;
        Some(kind)
    }

    /// The medium became idle at this node.
    pub fn carrier_idle_into(&mut self, _now: SimTime, out: &mut Vec<MacAction<P>>) {
        self.medium_busy = false;
        if self.state == State::WaitIdle {
            self.state = State::Difs;
            self.arm(MacTimer::Difs, self.params.difs, out);
        }
    }

    /// A timer armed through [`MacAction::SetTimer`] expired. The
    /// executor cancels every disarmed timer's expiry, so an expiry
    /// that arrives here is current; a stray one is ignored.
    pub fn timer_fired_into(&mut self, kind: MacTimer, now: SimTime, out: &mut Vec<MacAction<P>>) {
        let i = kind.idx();
        if !self.timer_armed[i] {
            return;
        }
        self.timer_armed[i] = false;
        match kind {
            MacTimer::Difs => {
                debug_assert_eq!(self.state, State::Difs);
                if let Some(rem) = self.backoff_remaining.take() {
                    // Resume a frozen backoff.
                    self.state = State::Backoff;
                    self.backoff_deadline = now + rem;
                    self.arm(MacTimer::Backoff, rem, out);
                } else if self.cw_pending {
                    self.cw_pending = false;
                    let slots = self.rng.below(self.cw as u64);
                    let rem = self.params.slot * slots;
                    if rem.is_zero() {
                        self.start_data_tx(out);
                    } else {
                        self.state = State::Backoff;
                        self.backoff_deadline = now + rem;
                        self.arm(MacTimer::Backoff, rem, out);
                    }
                } else {
                    // Fresh frame, idle DIFS: transmit immediately.
                    self.start_data_tx(out);
                }
            }
            MacTimer::Backoff => {
                debug_assert_eq!(self.state, State::Backoff);
                self.backoff_remaining = None;
                self.start_data_tx(out);
            }
            MacTimer::AckTimeout => match self.state {
                State::WaitAck => {
                    self.handle_retry(now, out);
                }
                State::TxAck => {
                    // Retry once our ACK transmission completes.
                    self.after_ack = AfterAck::RetryNow;
                }
                _ => {}
            },
            MacTimer::AckDelay => {
                // Send the pending ACK regardless of carrier (SIFS
                // priority), unless we are mid-transmission.
                match self.state {
                    State::TxData | State::TxAck => {
                        // Extremely rare; retry the delay shortly after.
                        self.arm(MacTimer::AckDelay, self.params.sifs, out);
                    }
                    _ => {
                        if let Some((dest, of)) = self.pending_acks.pop_front() {
                            self.after_ack = match self.state {
                                State::WaitAck => AfterAck::WaitAck,
                                _ => {
                                    // Interrupt a DIFS or backoff for
                                    // the ACK, keeping backoff credit.
                                    if let Some(kind) = self.freeze(now) {
                                        self.disarm(kind, out);
                                    }
                                    AfterAck::AccessCycle
                                }
                            };
                            // Build the ACK now so a freshly primed note
                            // can ride along.
                            let payload = self.ack_notes.remove(&dest).unwrap_or_default();
                            let ack = Frame {
                                id: self.alloc_frame_id(),
                                src: self.node,
                                dest: Dest::Unicast(dest),
                                kind: FrameKind::Ack(of),
                                bytes: ACK_BYTES,
                                payload,
                            };
                            let airtime = ack.airtime(self.params.bitrate_bps);
                            self.stats.ack_tx += 1;
                            self.state = State::TxAck;
                            out.push(MacAction::StartTx {
                                frame: ack,
                                airtime,
                            });
                        }
                    }
                }
            }
        }
    }

    /// Interrupts a running DIFS or backoff and returns its timer kind
    /// (the caller disarms it). An interrupted DIFS forces a contention
    /// backoff; an interrupted backoff keeps its credit, rounded up to
    /// whole slots as the standard decrements per slot.
    fn freeze(&mut self, now: SimTime) -> Option<MacTimer> {
        match self.state {
            State::Difs => {
                self.cw_pending = true;
                Some(MacTimer::Difs)
            }
            State::Backoff => {
                let remaining = self.backoff_deadline.saturating_duration_since(now);
                let slot = self.params.slot.as_nanos().max(1);
                let slots = remaining.as_nanos().div_ceil(slot);
                self.backoff_remaining = Some(SimDuration::from_nanos(slots * slot));
                Some(MacTimer::Backoff)
            }
            _ => None,
        }
    }

    fn handle_retry(&mut self, _now: SimTime, out: &mut Vec<MacAction<P>>) {
        self.stats.retries += 1;
        if self.attempts >= self.params.retry_limit {
            let frame = self.queue.pop_front().expect("retry without frame");
            let attempts = self.attempts;
            self.stats.failed += 1;
            self.reset_contention();
            out.push(MacAction::TxFailed { frame, attempts });
            self.next_frame_or_idle(out);
        } else {
            self.attempts += 1;
            self.cw = (self.cw * 2).min(self.params.cw_max);
            self.cw_pending = true;
            self.resume_access(out);
        }
    }

    fn reset_contention(&mut self) {
        self.attempts = 0;
        self.cw = self.params.cw_min;
        self.cw_pending = false;
        self.backoff_remaining = None;
    }

    fn next_frame_or_idle(&mut self, out: &mut Vec<MacAction<P>>) {
        if self.queue.is_empty() {
            self.state = State::Idle;
        } else {
            // Post-backoff: contend before the next frame.
            self.attempts = 1;
            self.cw_pending = true;
            self.resume_access(out);
        }
    }

    /// Our own transmission (started via [`MacAction::StartTx`]) has left
    /// the air. The simulator calls this when the channel's end event
    /// fires.
    pub fn tx_ended_into(&mut self, now: SimTime, out: &mut Vec<MacAction<P>>) {
        match self.state {
            State::TxData => {
                let head = self.queue.front().expect("tx ended without frame");
                match head.dest {
                    Dest::Broadcast => {
                        let frame = self.queue.pop_front().expect("checked");
                        let attempts = self.attempts;
                        self.stats.delivered += 1;
                        self.reset_contention();
                        out.push(MacAction::TxDone { frame, attempts });
                        self.next_frame_or_idle(out);
                    }
                    Dest::Unicast(_) => {
                        self.state = State::WaitAck;
                        self.arm(MacTimer::AckTimeout, self.params.ack_timeout(), out);
                    }
                }
            }
            State::TxAck => {
                match self.after_ack {
                    AfterAck::WaitAck => {
                        self.state = State::WaitAck;
                        // AckTimeout may still be armed; nothing to do.
                    }
                    AfterAck::RetryNow => {
                        self.handle_retry(now, out);
                    }
                    AfterAck::AccessCycle => {
                        if self.queue.is_empty() {
                            self.state = State::Idle;
                        } else {
                            self.resume_access(out);
                        }
                    }
                }
                // More ACKs owed? Queue the next one after SIFS.
                if !self.pending_acks.is_empty() {
                    self.arm(MacTimer::AckDelay, self.params.sifs, out);
                }
            }
            s => panic!("tx_ended_into in state {s:?}"),
        }
    }

    /// A frame arrived intact at this node (clean on the channel and the
    /// radio was active for its whole airtime).
    pub fn frame_arrived_into(
        &mut self,
        frame: Frame<P>,
        _now: SimTime,
        out: &mut Vec<MacAction<P>>,
    ) {
        debug_assert_ne!(self.state, State::Suspended, "delivery to sleeping node");
        match frame.kind {
            FrameKind::Ack(of) => {
                if self.state == State::WaitAck {
                    let matches = self
                        .queue
                        .front()
                        .map(|f| f.id == of && frame.src == unicast_dest(f))
                        .unwrap_or(false);
                    if matches {
                        self.disarm(MacTimer::AckTimeout, out);
                        let done = self.queue.pop_front().expect("checked");
                        let attempts = self.attempts;
                        self.stats.delivered += 1;
                        self.reset_contention();
                        out.push(MacAction::TxDone {
                            frame: done,
                            attempts,
                        });
                        self.next_frame_or_idle(out);
                    }
                }
                // ACKs carrying a piggybacked upper-layer note are also
                // delivered (the §4.3 request-in-ACK path); bare or
                // mismatched ACKs are dropped silently.
                if frame.dest.accepts(self.node) && frame.payload != P::default() {
                    out.push(MacAction::Deliver { frame });
                }
            }
            FrameKind::Data => {
                if !frame.dest.accepts(self.node) {
                    return; // overheard unicast for someone else
                }
                if let Dest::Unicast(_) = frame.dest {
                    // Always (re-)ACK; deliver only the first copy. The
                    // upper layer sees the Deliver *before* the ACK frame
                    // is built, so it can prime a note to ride on it.
                    let dup = self.last_seen.get(&frame.src) == Some(&frame.id);
                    let first_ack = self.pending_acks.is_empty();
                    self.pending_acks.push_back((frame.src, frame.id));
                    if dup {
                        self.stats.duplicates += 1;
                    } else {
                        self.last_seen.insert(frame.src, frame.id);
                        out.push(MacAction::Deliver { frame });
                    }
                    if first_ack && self.state != State::TxAck && self.state != State::TxData {
                        self.arm(MacTimer::AckDelay, self.params.sifs, out);
                    }
                } else {
                    out.push(MacAction::Deliver { frame });
                }
            }
        }
    }

    /// Attaches `note` to the next ACK this MAC sends to `dest`
    /// (replacing any previous unsent note). Used by DTS to ask a child
    /// for a phase update without an extra packet (§4.3).
    pub fn prime_ack_note(&mut self, dest: NodeId, note: P) {
        self.ack_notes.insert(dest, note);
    }

    /// The node's radio went off: freeze everything. Every timer is
    /// disarmed (the caller cancels their expiries); queued frames are
    /// retained; owed ACKs are dropped (the peer will retransmit).
    pub fn radio_slept(&mut self, _now: SimTime) {
        debug_assert!(
            !matches!(self.state, State::TxData | State::TxAck),
            "radio must not sleep mid-transmission"
        );
        self.timer_armed = [false; MacTimer::COUNT];
        self.pending_acks.clear();
        self.ack_notes.clear();
        self.backoff_remaining = None;
        if self.state == State::WaitAck {
            // The exchange is abandoned; the frame stays at the head of
            // the queue and will be retried on wake (fresh contention).
            self.cw_pending = true;
        }
        self.state = State::Suspended;
        self.medium_busy = false;
    }

    /// The node's radio is active again. `medium_busy` is the channel's
    /// current carrier state at this node.
    pub fn radio_woke_into(
        &mut self,
        now: SimTime,
        medium_busy: bool,
        out: &mut Vec<MacAction<P>>,
    ) {
        debug_assert_eq!(
            self.state,
            State::Suspended,
            "radio_woke_into while not suspended"
        );
        self.medium_busy = medium_busy;
        self.state = State::Idle;
        if !self.queue.is_empty() {
            self.begin_access(now, out);
        }
    }
}

fn unicast_dest<P>(f: &Frame<P>) -> NodeId {
    match f.dest {
        Dest::Unicast(d) => d,
        Dest::Broadcast => panic!("broadcast frame has no unicast destination"),
    }
}

#[cfg(test)]
mod tests;
