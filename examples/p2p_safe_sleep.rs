//! Beyond trees: Safe Sleep on a peer-to-peer periodic flow.
//!
//! The paper notes that "ESSAT can also be extended to support other
//! communication patterns such as peer-to-peer communication or data
//! dissemination". This example demonstrates that extension with the
//! library pieces directly: two peers exchange periodic heartbeats
//! (request at `φ + k·P`, reply right after), and each runs its own
//! [`SafeSleep`] instance and radio — no routing tree, no query service,
//! no MAC. The composition shows the `essat-core` scheduler is genuinely
//! local: give it send/receive expectations, and it sleeps the radio
//! safely for *any* workload with known timing.
//!
//! ```text
//! cargo run --release --example p2p_safe_sleep
//! ```

use essat::core::safe_sleep::{SafeSleep, SleepDecision};
use essat::net::ids::NodeId;
use essat::net::radio::{Radio, RadioParams, TransitionOutcome};
use essat::query::model::QueryId;
use essat::sim::engine::{Context, Engine, Model};
use essat::sim::queue::EventId;
use essat::sim::time::{SimDuration, SimTime};

const PERIOD: SimDuration = SimDuration::from_millis(500);
const HOP: SimDuration = SimDuration::from_micros(600); // one frame on the air
const RUN: SimDuration = SimDuration::from_secs(120);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Peer 0 transmits its round-`k` heartbeat.
    Request { k: u64 },
    /// The heartbeat reaches peer 1.
    RequestArrives { k: u64 },
    /// The reply reaches peer 0.
    ReplyArrives { k: u64 },
    /// A radio finished a power transition.
    RadioDone { peer: usize },
    /// A Safe-Sleep wake-up fired.
    Wake { peer: usize },
}

struct Peers {
    radio: [Radio; 2],
    ss: [SafeSleep; 2],
    /// Pending wake-up per peer: re-planning a sleep cancels the old
    /// wake event outright instead of letting it fire stale.
    wake_ev: [Option<EventId>; 2],
    /// Completed sleeps per peer: each wake-up that ends one.
    sleeps: [u32; 2],
    rounds_ok: u64,
    missed: u64,
}

const FLOW: QueryId = QueryId::new(0);
const PEER0: NodeId = NodeId::new(0);
const PEER1: NodeId = NodeId::new(1);

impl Peers {
    /// Re-evaluate one peer's sleep decision, exactly as the node stack
    /// does in the full simulator.
    fn reconsider(&mut self, peer: usize, ctx: &mut Context<'_, Ev>) {
        if !self.radio[peer].is_active() {
            return;
        }
        if let SleepDecision::Sleep { start_wake_at, .. } = self.ss[peer].decide(ctx.now()) {
            let turn_off = self.radio[peer].params().turn_off;
            if start_wake_at <= ctx.now() + turn_off {
                return;
            }
            let d = self.radio[peer].begin_sleep(ctx.now()).expect("active");
            ctx.schedule_after(d, Ev::RadioDone { peer });
            if let Some(old) = self.wake_ev[peer].take() {
                ctx.cancel(old);
            }
            self.wake_ev[peer] = Some(ctx.schedule_at(start_wake_at, Ev::Wake { peer }));
        }
    }
}

impl Model for Peers {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Context<'_, Ev>) {
        match ev {
            Ev::Request { k } => {
                // The heartbeat goes on the air now and lands HOP later;
                // the reply comes straight back.
                ctx.schedule_after(HOP, Ev::RequestArrives { k });
                // Peer 0 now expects: its next send a period out, and
                // the reply two hops from now. The reply expectation is
                // what keeps it awake (Busy) through the exchange.
                self.ss[0].update_next_send(FLOW, ctx.now() + PERIOD);
                self.ss[0].update_next_receive(FLOW, PEER1, ctx.now() + 2 * HOP);
                ctx.schedule_at(ctx.now() + PERIOD, Ev::Request { k: k + 1 });
                self.reconsider(0, ctx);
            }
            Ev::RequestArrives { k } => {
                if self.radio[1].is_active() {
                    ctx.schedule_after(HOP, Ev::ReplyArrives { k });
                } else {
                    self.missed += 1;
                }
                // Peer 1's next reception is one period after this one
                // (the request left HOP ago).
                self.ss[1].update_next_receive(FLOW, PEER0, ctx.now() - HOP + PERIOD + HOP);
                self.reconsider(1, ctx);
            }
            Ev::ReplyArrives { k: _ } => {
                if self.radio[0].is_active() {
                    self.rounds_ok += 1;
                } else {
                    self.missed += 1;
                }
                // Exchange over: peer 0's only remaining duty is the
                // next request; expect the next reply two hops after it.
                let next_send = ctx.now() - 2 * HOP + PERIOD;
                self.ss[0].update_next_receive(FLOW, PEER1, next_send + 2 * HOP);
                self.reconsider(0, ctx);
            }
            Ev::RadioDone { peer } => match self.radio[peer].finish_transition(ctx.now()) {
                TransitionOutcome::NowActive { .. } => self.sleeps[peer] += 1,
                TransitionOutcome::OffWakeQueued => {
                    let d = self.radio[peer].begin_wake(ctx.now()).expect("off");
                    ctx.schedule_after(d, Ev::RadioDone { peer });
                }
                TransitionOutcome::NowOff => {}
            },
            Ev::Wake { peer } => {
                // Superseded wakes were cancelled on the queue, so a
                // dispatch is always the planned one.
                self.wake_ev[peer] = None;
                if self.radio[peer].is_off() {
                    let d = self.radio[peer].begin_wake(ctx.now()).expect("off");
                    ctx.schedule_after(d, Ev::RadioDone { peer });
                }
            }
        }
    }
}

fn main() {
    let params = RadioParams::mica2();
    let t_be = params.break_even();
    let t_on = params.turn_on;

    let mut peers = Peers {
        radio: [Radio::new(params), Radio::new(params)],
        ss: [SafeSleep::new(t_be, t_on), SafeSleep::new(t_be, t_on)],
        wake_ev: [None, None],
        sleeps: [0, 0],
        rounds_ok: 0,
        missed: 0,
    };
    // Initial expectations: peer 0 sends at φ; peer 1 hears HOP later.
    let phi = SimTime::from_millis(100);
    peers.ss[0].update_next_send(FLOW, phi);
    peers.ss[1].update_next_receive(FLOW, PEER0, phi + HOP);

    let mut engine = Engine::new(peers);
    engine.schedule_at(phi, Ev::Request { k: 0 });
    engine.run_until(SimTime::ZERO + RUN);

    let mut model = engine.into_model();
    println!(
        "peer-to-peer heartbeat under Safe Sleep ({}s, period {}):",
        RUN.as_secs_f64(),
        PERIOD
    );
    for (i, r) in model.radio.iter_mut().enumerate() {
        r.settle(SimTime::ZERO + RUN);
        println!(
            "  peer {i}: duty {:5.2}%  sleeps {:4}  energy {:.4} J",
            100.0 * r.duty_cycle(),
            model.sleeps[i],
            r.energy_j(),
        );
    }
    println!(
        "  rounds completed {}  exchanges missed {}",
        model.rounds_ok, model.missed
    );
    assert_eq!(model.missed, 0, "Safe Sleep must never miss an exchange");
    assert!(model.rounds_ok > 200, "most rounds must complete");
    println!();
    println!("both radios idle around 1% duty with zero missed exchanges —");
    println!("the scheduler needs only timing expectations, not a routing tree.");
}
