//! DTS — Dynamic Traffic Shaper (§4.2.3).
//!
//! DTS self-tunes where STS must be configured: expected send and
//! reception times adapt to the multi-hop delays actually observed,
//! following the Release-Guard idea (Sun \[10\]) adapted to aggregation
//! trees and sleeping nodes.
//!
//! The protocol, per query:
//!
//! * `s(0) = r(0) = φ` — the first round is greedy, like NTS.
//! * If round `k`'s report is **ready by `s(k)`**, it is buffered and
//!   sent at `s(k)`; the next send time is `s(k+1) = s(k) + P`, and the
//!   parent advances `r(k+1) = r(k) + P` **with no packet exchange**.
//! * If the report is **late** (`ready t > s(k)`), it is sent
//!   immediately — a **phase shift** — and `s(k+1) = t + P` is
//!   piggybacked on the data packet so the parent can re-arm.
//! * A parent seals round `k` at `max_c r(k, c) + t_TO`, with the fixed
//!   margin [`TIMEOUT_MARGIN`].
//!
//! Phase shifts only ever *delay* schedules, which is what makes loss
//! recovery safe: a parent that missed a phase update wakes early (a
//! transient energy cost, §4.3) but never too late, and an explicit
//! phase-update request ([`Dts::on_phase_update_request`]) forces the
//! next report to carry the current phase.
//!
//! After a couple of rounds the phases settle at the observed multi-hop
//! offset, so nodes wake *just in time* — the paper measures the
//! piggyback overhead at under one bit per data report.

use std::collections::BTreeMap;

use essat_net::ids::NodeId;
use essat_query::model::{Query, QueryId};
use essat_sim::time::{SimDuration, SimTime};

use crate::shaper::{Expectations, Release, TrafficShaper, TreeInfo};

/// The §4.3 timeout margin `t_TO`: round `k` times out at
/// `max_c r(k, c) + t_TO`.
///
/// Must cover a one-hop collection under contention: sources share the
/// round boundary `φ + k·P`, so a parent's children (and its
/// neighbours' children) all contend at once and the slowest report
/// can take tens of milliseconds. A margin that is too tight seals
/// rounds partially *and* lets the parent fall asleep before late
/// reports arrive, which the sender then misreads as a parent failure.
pub const TIMEOUT_MARGIN: SimDuration = SimDuration::from_millis(50);

#[derive(Debug, Clone, Copy)]
struct SendSched {
    /// The round `s_next` refers to.
    round: u64,
    /// Expected send time of that round's report.
    s_next: SimTime,
    /// Force a phase update on the next data report (resync request or
    /// parent change).
    force_piggyback: bool,
}

#[derive(Debug, Clone, Copy)]
struct RecvSched {
    /// The round `r_next` refers to.
    round: u64,
    /// Expected reception time of that round's report.
    r_next: SimTime,
}

/// The DTS shaper.
#[derive(Debug, Clone, Default)]
pub struct Dts {
    sends: BTreeMap<QueryId, SendSched>,
    recvs: BTreeMap<(QueryId, NodeId), RecvSched>,
    /// Phase updates piggybacked so far (for the paper's overhead
    /// accounting).
    piggybacks_sent: u64,
    /// Data reports released (denominator of the overhead metric).
    reports_sent: u64,
}

impl Dts {
    /// Creates a DTS shaper.
    pub fn new() -> Self {
        Dts::default()
    }

    /// Phase updates piggybacked on data reports so far.
    pub fn piggybacks_sent(&self) -> u64 {
        self.piggybacks_sent
    }

    /// Data reports released so far.
    pub fn reports_sent(&self) -> u64 {
        self.reports_sent
    }

    /// The expected reception time of round `k` from `child`, projecting
    /// forward by whole periods if the stored schedule lags behind.
    fn projected_recv(&self, q: &Query, child: NodeId, k: u64) -> Option<SimTime> {
        let st = self.recvs.get(&(q.id, child))?;
        if st.round > k {
            None // already received
        } else {
            Some(st.r_next + q.period * (k - st.round))
        }
    }
}

impl TrafficShaper for Dts {
    fn register(&mut self, q: &Query, tree: &TreeInfo<'_>, is_root: bool) -> Expectations {
        self.sends.insert(
            q.id,
            SendSched {
                round: 0,
                s_next: q.phase,
                force_piggyback: false,
            },
        );
        for &(c, _) in tree.children {
            self.recvs.insert(
                (q.id, c),
                RecvSched {
                    round: 0,
                    r_next: q.phase,
                },
            );
        }
        Expectations {
            snext: (!is_root).then_some(q.phase),
            rnext: tree.children.iter().map(|&(c, _)| (c, q.phase)).collect(),
        }
    }

    fn deregister(&mut self, q: &Query) {
        self.sends.remove(&q.id);
        self.recvs.retain(|&(qq, _), _| qq != q.id);
    }

    fn release(&mut self, q: &Query, k: u64, ready_at: SimTime, _tree: &TreeInfo<'_>) -> Release {
        let st = self.sends.entry(q.id).or_insert(SendSched {
            round: k,
            s_next: q.phase + q.period * k,
            force_piggyback: false,
        });
        // Project forward if rounds were skipped while suspended.
        if st.round < k {
            st.s_next += q.period * (k - st.round);
            st.round = k;
        }
        if st.round > k {
            // A round re-released after churn recovery (the node died
            // between releasing and sending, then a straggler child
            // report reopened the round): the schedule already advanced
            // past it, so send immediately without regressing it.
            self.reports_sent += 1;
            return Release {
                send_at: ready_at,
                piggyback: None,
            };
        }
        self.reports_sent += 1;
        if ready_at <= st.s_next {
            // On time: buffered until s(k); schedules advance silently.
            let send_at = st.s_next;
            st.s_next = send_at + q.period;
            st.round = k + 1;
            let piggyback = if st.force_piggyback {
                st.force_piggyback = false;
                self.piggybacks_sent += 1;
                Some(st.s_next)
            } else {
                None
            };
            Release { send_at, piggyback }
        } else {
            // Late: phase shift — send now, advertise the new phase.
            let send_at = ready_at;
            st.s_next = send_at + q.period;
            st.round = k + 1;
            st.force_piggyback = false;
            self.piggybacks_sent += 1;
            Release {
                send_at,
                piggyback: Some(st.s_next),
            }
        }
    }

    fn after_send(&mut self, q: &Query, k: u64, _now: SimTime, _tree: &TreeInfo<'_>) -> SimTime {
        let st = self
            .sends
            .get(&q.id)
            .expect("after_send for unregistered query");
        debug_assert!(st.round > k, "release must precede after_send");
        st.s_next
    }

    fn round_skipped(&mut self, q: &Query, k: u64, _tree: &TreeInfo<'_>) -> SimTime {
        let st = self.sends.entry(q.id).or_insert(SendSched {
            round: k,
            s_next: q.phase + q.period * k,
            force_piggyback: false,
        });
        // Quiet rounds advance the phase-shifted schedule silently,
        // exactly like an on-time buffered report would.
        if st.round <= k {
            st.s_next += q.period * (k + 1 - st.round);
            st.round = k + 1;
        }
        st.s_next
    }

    fn after_receive(
        &mut self,
        q: &Query,
        child: NodeId,
        k: u64,
        _now: SimTime,
        piggyback: Option<SimTime>,
        _tree: &TreeInfo<'_>,
    ) -> SimTime {
        let st = self.recvs.entry((q.id, child)).or_insert(RecvSched {
            round: k,
            r_next: q.phase + q.period * k,
        });
        if st.round > k + 1 {
            // Stale duplicate of an old round: keep the newer schedule.
            return st.r_next;
        }
        let new_r = match piggyback {
            // The child advertised s(k+1) explicitly.
            Some(p) => p,
            // No phase shift: r(k+1) = r(k) + P, projected over any
            // skipped rounds.
            None => st.r_next + q.period * (k + 1 - st.round),
        };
        st.round = k + 1;
        st.r_next = new_r;
        new_r
    }

    fn collection_deadline(&self, q: &Query, k: u64, _tree: &TreeInfo<'_>) -> SimTime {
        // max_c r(k, c) + t_TO over children still owing round k.
        let latest = self
            .recvs
            .keys()
            .filter(|&&(qq, _)| qq == q.id)
            .filter_map(|&(_, c)| self.projected_recv(q, c, k))
            .max();
        latest.unwrap_or_else(|| q.round_start(k)) + TIMEOUT_MARGIN
    }

    fn child_timed_out(
        &mut self,
        q: &Query,
        child: NodeId,
        k: u64,
        _tree: &TreeInfo<'_>,
    ) -> SimTime {
        let st = self.recvs.entry((q.id, child)).or_insert(RecvSched {
            round: k,
            r_next: q.phase + q.period * k,
        });
        // Phase shifts only delay, so "+ P per missed round" is a safe
        // lower bound; the next received report (or a requested phase
        // update) re-synchronises exactly.
        if st.round <= k {
            st.r_next += q.period * (k + 1 - st.round);
            st.round = k + 1;
        }
        st.r_next
    }

    fn on_topology_change(
        &mut self,
        q: &Query,
        tree: &TreeInfo<'_>,
        _is_root: bool,
        now: SimTime,
    ) -> Option<Expectations> {
        // §4.3: no recomputation — the next data report to the new parent
        // simply carries a phase update. New children start from the next
        // round boundary as a conservative lower bound (phase shifts only
        // delay schedules, so this can only make the node wake early).
        if let Some(st) = self.sends.get_mut(&q.id) {
            st.force_piggyback = true;
        }
        let next_round = q.round_at(now).map(|k| k + 1).unwrap_or(0);
        for &(c, _) in tree.children {
            self.recvs.entry((q.id, c)).or_insert(RecvSched {
                round: next_round,
                r_next: q.round_start(next_round),
            });
        }
        None
    }

    fn on_phase_update_request(&mut self, q: &Query) {
        if let Some(st) = self.sends.get_mut(&q.id) {
            st.force_piggyback = true;
        }
    }

    fn remove_child(&mut self, q: &Query, child: NodeId) {
        self.recvs.remove(&(q.id, child));
    }

    fn wants_phase_resync(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use essat_query::aggregate::AggregateOp;

    fn q() -> Query {
        Query::periodic(
            QueryId::new(0),
            SimDuration::from_millis(200),
            SimTime::from_secs(1),
            AggregateOp::Sum,
        )
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn leaf_tree() -> TreeInfo<'static> {
        TreeInfo::leaf(4)
    }

    #[test]
    fn initial_schedule_is_phase() {
        let mut dts = Dts::new();
        let children = [(n(1), 0)];
        let tree = TreeInfo {
            own_rank: 1,
            max_rank: 4,
            own_level: 3,
            max_level: 4,
            children: &children,
        };
        let e = dts.register(&q(), &tree, false);
        assert_eq!(e.snext, Some(ms(1000)));
        assert_eq!(e.rnext, vec![(n(1), ms(1000))]);
    }

    #[test]
    fn on_time_report_buffers_and_advances_silently() {
        let mut dts = Dts::new();
        dts.register(&q(), &leaf_tree(), false);
        // Ready before s(0)=φ.
        let r = dts.release(&q(), 0, ms(990), &leaf_tree());
        assert_eq!(r.send_at, ms(1000), "buffered until s(0)");
        assert_eq!(r.piggyback, None, "no phase shift, no overhead");
        assert_eq!(dts.after_send(&q(), 0, ms(1001), &leaf_tree()), ms(1200));
    }

    #[test]
    fn late_report_phase_shifts_and_piggybacks() {
        let mut dts = Dts::new();
        dts.register(&q(), &leaf_tree(), false);
        // Round 0 late by 30 ms.
        let r = dts.release(&q(), 0, ms(1030), &leaf_tree());
        assert_eq!(r.send_at, ms(1030), "late reports go immediately");
        assert_eq!(r.piggyback, Some(ms(1230)), "s(1) = t + P advertised");
        assert_eq!(dts.after_send(&q(), 0, ms(1031), &leaf_tree()), ms(1230));
        // Round 1 ready on the shifted schedule: no new piggyback.
        let r2 = dts.release(&q(), 1, ms(1210), &leaf_tree());
        assert_eq!(r2.send_at, ms(1230));
        assert_eq!(r2.piggyback, None);
        assert_eq!(dts.piggybacks_sent(), 1);
        assert_eq!(dts.reports_sent(), 2);
    }

    #[test]
    fn parent_tracks_child_phase() {
        let mut dts = Dts::new();
        let children = [(n(1), 0)];
        let tree = TreeInfo {
            own_rank: 1,
            max_rank: 4,
            own_level: 3,
            max_level: 4,
            children: &children,
        };
        dts.register(&q(), &tree, false);
        // Child's round-0 report arrives without piggyback: r(1)=r(0)+P.
        let r1 = dts.after_receive(&q(), n(1), 0, ms(1005), None, &tree);
        assert_eq!(r1, ms(1200));
        // Round 1 arrives WITH a phase update (child shifted to 1.26 s).
        let r2 = dts.after_receive(&q(), n(1), 1, ms(1260), Some(ms(1460)), &tree);
        assert_eq!(r2, ms(1460));
        // Round 2 without piggyback: advance from the shifted phase.
        let r3 = dts.after_receive(&q(), n(1), 2, ms(1462), None, &tree);
        assert_eq!(r3, ms(1660));
    }

    #[test]
    fn skipped_rounds_project_forward() {
        let mut dts = Dts::new();
        let children = [(n(1), 0)];
        let tree = TreeInfo {
            own_rank: 1,
            max_rank: 4,
            own_level: 3,
            max_level: 4,
            children: &children,
        };
        dts.register(&q(), &tree, false);
        // Rounds 0 and 1 lost; round 2 arrives without piggyback.
        let r = dts.after_receive(&q(), n(1), 2, ms(1410), None, &tree);
        // r(3) = φ + 3P.
        assert_eq!(r, ms(1600));
    }

    #[test]
    fn child_timeout_advances_conservatively() {
        let mut dts = Dts::new();
        let children = [(n(1), 0)];
        let tree = TreeInfo {
            own_rank: 1,
            max_rank: 4,
            own_level: 3,
            max_level: 4,
            children: &children,
        };
        dts.register(&q(), &tree, false);
        let r = dts.child_timed_out(&q(), n(1), 0, &tree);
        assert_eq!(r, ms(1200), "round 1 expected a period later");
        // A later real report with piggyback resynchronises exactly.
        let r2 = dts.after_receive(&q(), n(1), 1, ms(1290), Some(ms(1490)), &tree);
        assert_eq!(r2, ms(1490));
    }

    #[test]
    fn collection_deadline_uses_latest_pending_child() {
        let mut dts = Dts::new();
        let children = [(n(1), 0), (n(2), 0)];
        let tree = TreeInfo {
            own_rank: 1,
            max_rank: 4,
            own_level: 3,
            max_level: 4,
            children: &children,
        };
        dts.register(&q(), &tree, false);
        // Child 2 phase-shifted its round-0 report to 1.04 s.
        dts.recvs.get_mut(&(q().id, n(2))).unwrap().r_next = ms(1040);
        assert_eq!(dts.collection_deadline(&q(), 0, &tree), ms(1090));
        // Once child 2's round 0 arrived, only child 1 pends for round 0.
        dts.after_receive(&q(), n(2), 0, ms(1041), None, &tree);
        assert_eq!(dts.collection_deadline(&q(), 0, &tree), ms(1050));
    }

    #[test]
    fn leaf_deadline_falls_back_to_round_start() {
        let dts = Dts::new();
        assert_eq!(
            dts.collection_deadline(&q(), 3, &leaf_tree()),
            q().round_start(3) + TIMEOUT_MARGIN
        );
    }

    #[test]
    fn phase_update_request_forces_piggyback() {
        let mut dts = Dts::new();
        dts.register(&q(), &leaf_tree(), false);
        dts.on_phase_update_request(&q());
        // On-time release would normally stay silent; the request forces
        // the phase into the packet.
        let r = dts.release(&q(), 0, ms(990), &leaf_tree());
        assert_eq!(r.send_at, ms(1000));
        assert_eq!(r.piggyback, Some(ms(1200)));
        // One-shot.
        let r2 = dts.release(&q(), 1, ms(1190), &leaf_tree());
        assert_eq!(r2.piggyback, None);
    }

    #[test]
    fn topology_change_marks_piggyback_not_recompute() {
        let mut dts = Dts::new();
        dts.register(&q(), &leaf_tree(), false);
        let out = dts.on_topology_change(&q(), &leaf_tree(), false, ms(0));
        assert!(out.is_none(), "DTS needs no recomputation");
        let r = dts.release(&q(), 0, ms(990), &leaf_tree());
        assert!(
            r.piggyback.is_some(),
            "first report to new parent carries phase"
        );
        assert!(dts.wants_phase_resync());
    }

    #[test]
    fn phases_monotonically_nondecreasing() {
        let mut dts = Dts::new();
        dts.register(&q(), &leaf_tree(), false);
        let mut last_send = SimTime::ZERO;
        let mut ready = ms(995);
        for k in 0..50 {
            let r = dts.release(&q(), k, ready, &leaf_tree());
            assert!(r.send_at >= last_send, "send times never regress");
            let gap = r.send_at - last_send;
            if k > 0 {
                assert!(
                    gap >= SimDuration::from_millis(200),
                    "consecutive sends at least a period apart (round {k})"
                );
            }
            last_send = r.send_at;
            // Jittered readiness, occasionally very late.
            let jitter = if k % 7 == 3 { 260 } else { 190 };
            ready = r.send_at + SimDuration::from_millis(jitter);
        }
    }

    #[test]
    fn skipped_rounds_advance_send_schedule_silently() {
        let mut dts = Dts::new();
        dts.register(&q(), &leaf_tree(), false);
        // Rounds 0 and 1 silenced by a traffic phase.
        assert_eq!(dts.round_skipped(&q(), 0, &leaf_tree()), ms(1200));
        assert_eq!(dts.round_skipped(&q(), 1, &leaf_tree()), ms(1400));
        // Round 2 runs on time on the unshifted schedule.
        let r = dts.release(&q(), 2, ms(1395), &leaf_tree());
        assert_eq!(r.send_at, ms(1400));
        assert_eq!(r.piggyback, None, "no phase shift across the gap");
    }

    #[test]
    fn re_released_round_sends_immediately_without_regressing() {
        let mut dts = Dts::new();
        dts.register(&q(), &leaf_tree(), false);
        let first = dts.release(&q(), 0, ms(990), &leaf_tree());
        assert_eq!(first.send_at, ms(1000));
        // Churn recovery re-opens round 0; the settled schedule stays.
        let again = dts.release(&q(), 0, ms(1050), &leaf_tree());
        assert_eq!(again.send_at, ms(1050));
        assert_eq!(again.piggyback, None);
        assert_eq!(dts.after_send(&q(), 0, ms(1051), &leaf_tree()), ms(1200));
    }

    #[test]
    fn overhead_counters() {
        let mut dts = Dts::new();
        dts.register(&q(), &leaf_tree(), false);
        let mut t = ms(995);
        for k in 0..10 {
            let r = dts.release(&q(), k, t, &leaf_tree());
            t = r.send_at + SimDuration::from_millis(190);
        }
        // Only the steady drip of on-time rounds: at most the initial
        // shift produces updates.
        assert!(dts.piggybacks_sent() <= 2);
        assert_eq!(dts.reports_sent(), 10);
    }
}
