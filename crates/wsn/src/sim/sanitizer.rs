//! The simulation sanitizer: whole-world invariant checks woven into
//! event dispatch, compiled in only with the `sanitize` feature.
//!
//! The checker runs a cheap per-event probe (event-time monotonicity —
//! the queue never delivers the past) and a full sweep every
//! [`SWEEP_PERIOD`] events plus once at run end. The sweep asserts the
//! structural invariants every protocol implicitly leans on:
//!
//! * **Energy monotonicity** — a live node's projected energy
//!   ([`essat_net::radio::Radio::energy_j_at`]) never decreases.
//!   (Dead nodes are settled at death and consume nothing; they are
//!   excluded, and their books re-enter the check after revival.)
//! * **Routing-tree consistency** — the root is a member, every
//!   member's parent chain reaches the root, and parent/children
//!   links are symmetric — under churn, repair, and rejoin.
//!
//! The executor reads a radio's mode and active-since time from the
//! node's [`essat_net::radio::Radio`] and build-time membership from the
//! pristine routing tree; neither has a copy that could drift, so no
//! sweep compares mirrors.
//!
//! More invariants live at their natural sites: no frame is ever
//! delivered to a dead node (asserted at the MAC `Deliver` action);
//! every never-died node's radio accounting settles to exactly the run
//! length, split across the three state counters (asserted in
//! `finalize_into`); and **no stale event ever dispatches** — a
//! MAC-timer expiry, radio wake-up, chain policy timer, or collection
//! timeout that reaches its handler must be the exact event its owner's
//! stored [`essat_sim::queue::EventId`] handle names (asserted at each
//! dispatch site), since superseded timers are truly cancelled on the
//! queue rather than filtered at delivery. When the feature is off none
//! of this exists — the hot path carries zero cost.

use essat_obs::Probe;
use essat_sim::time::SimTime;

use super::world::World;

/// Events between two full invariant sweeps. Cheap enough to leave on
/// in CI at quick scale, frequent enough that a violation is caught
/// close to the event that introduced it.
const SWEEP_PERIOD: u32 = 256;

/// Sanitizer state carried by the [`World`] (one per run).
#[derive(Debug)]
pub(crate) struct Sanitizer {
    countdown: u32,
    last_now: SimTime,
    last_energy: Vec<f64>,
}

impl Default for Sanitizer {
    fn default() -> Self {
        Sanitizer {
            countdown: SWEEP_PERIOD,
            last_now: SimTime::ZERO,
            last_energy: Vec::new(),
        }
    }
}

impl<P: Probe> World<P> {
    /// Per-event probe: time monotonicity, plus the periodic sweep.
    pub(crate) fn sanitize_step(&mut self, now: SimTime) {
        assert!(
            now >= self.san.last_now,
            "sanitizer: event delivered at {now}, after the queue already reached {}",
            self.san.last_now
        );
        self.san.last_now = now;
        self.san.countdown -= 1;
        if self.san.countdown == 0 {
            self.san.countdown = SWEEP_PERIOD;
            self.sanitize_sweep(now);
        }
    }

    /// The full invariant sweep (also called once at run end).
    pub(crate) fn sanitize_sweep(&mut self, now: SimTime) {
        if self.san.last_energy.is_empty() {
            self.san.last_energy = vec![0.0; self.nodes.len()];
        }
        for i in 0..self.nodes.len() {
            if self.hot.dead[i] {
                // Settled at death; a revival resets the radio's clock
                // to the revival instant, so its books re-enter the
                // monotonicity check from the settled-at-death total.
                continue;
            }
            let e = self.nodes[i].radio.energy_j_at(now);
            assert!(
                e >= self.san.last_energy[i] - 1e-12,
                "sanitizer: node {i} energy decreased ({} J -> {e} J) at {now}",
                self.san.last_energy[i]
            );
            self.san.last_energy[i] = e;
        }
        self.sanitize_tree(now);
        self.sanitize_repair(now);
    }

    /// Self-healing must be invisible on a run that cannot fault: no
    /// repair timer ever armed, no repair ever counted. This is the
    /// machine-checked form of the zero-cost claim behind the golden
    /// digests staying byte-identical with repair enabled.
    fn sanitize_repair(&self, now: SimTime) {
        if self.repair.faults_possible {
            return;
        }
        for (i, ev) in self.repair.timer_ev.iter().enumerate() {
            assert!(
                ev.is_none(),
                "sanitizer: repair timer armed at node {i} on a fault-free run at {now}"
            );
        }
        assert_eq!(
            self.repair.repairs, 0,
            "sanitizer: repair ran on a fault-free run at {now}"
        );
        assert_eq!(
            self.repair.redispatches, 0,
            "sanitizer: report redispatched on a fault-free run at {now}"
        );
    }

    /// Routing-tree structural consistency.
    fn sanitize_tree(&self, now: SimTime) {
        assert!(
            self.tree.is_member(self.root),
            "sanitizer: root dropped out of the routing tree at {now}"
        );
        let limit = self.nodes.len();
        for &m in self.tree.members() {
            for &c in self.tree.children(m) {
                assert!(
                    self.tree.is_member(c),
                    "sanitizer: {m} lists non-member child {c} at {now}"
                );
                assert_eq!(
                    self.tree.parent(c),
                    Some(m),
                    "sanitizer: child link {m}->{c} has no matching parent link at {now}"
                );
            }
            if m == self.root {
                assert!(
                    self.tree.parent(m).is_none(),
                    "sanitizer: root has a parent at {now}"
                );
                continue;
            }
            // Walk the parent chain; it must reach the root in fewer
            // steps than there are nodes (i.e. no cycles, no dangling
            // parents).
            let mut cur = m;
            let mut steps = 0usize;
            loop {
                let p = self.tree.parent(cur).unwrap_or_else(|| {
                    panic!("sanitizer: member {m} chain dangles at {cur} (time {now})")
                });
                assert!(
                    self.tree.is_member(p),
                    "sanitizer: member {m} has non-member ancestor {p} at {now}"
                );
                assert!(
                    self.tree.children(p).contains(&cur),
                    "sanitizer: parent link {cur}->{p} has no matching child link at {now}"
                );
                if p == self.root {
                    break;
                }
                cur = p;
                steps += 1;
                assert!(
                    steps < limit,
                    "sanitizer: member {m} parent chain does not reach the root at {now}"
                );
            }
        }
    }
}
