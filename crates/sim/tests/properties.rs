//! Property-based tests for the simulation substrate.

use proptest::prelude::*;

use essat_sim::queue::EventQueue;
use essat_sim::rng::SimRng;
use essat_sim::stats::{Histogram, OnlineStats};
use essat_sim::time::{SimDuration, SimTime};

proptest! {
    /// Events always pop in non-decreasing time order, and same-time
    /// events pop in insertion order.
    #[test]
    fn queue_pop_order_is_total(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, _, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt, "time went backwards");
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO violated among equal times");
                }
            }
            last = Some((t, idx));
        }
    }

    /// Cancellation removes exactly the chosen events.
    #[test]
    fn queue_cancellation_is_exact(
        times in proptest::collection::vec(0u64..1_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.push(SimTime::from_nanos(t), i))
            .collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                prop_assert!(q.cancel(*id));
            } else {
                expect.push(i);
            }
        }
        prop_assert_eq!(q.len(), expect.len());
        let mut popped: Vec<usize> = Vec::new();
        while let Some((_, _, v)) = q.pop() {
            popped.push(v);
        }
        popped.sort_unstable();
        prop_assert_eq!(popped, expect);
    }

    /// FIFO among same-instant events survives random cancellations and
    /// slab-slot reuse: after cancelling an arbitrary subset and pushing
    /// a second wave of events (which recycles freed slots), the
    /// survivors still pop in exact `(time, insertion sequence)` order.
    #[test]
    fn queue_fifo_under_random_cancellations(
        first_wave in proptest::collection::vec(0u64..50, 1..150),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..150),
        second_wave in proptest::collection::vec(0u64..50, 0..150),
    ) {
        let mut q = EventQueue::new();
        // Expected survivors as (time, seq, payload), later sorted the
        // way the queue contract orders them.
        let mut expected: Vec<(u64, u64, usize)> = Vec::new();
        let ids: Vec<_> = first_wave
            .iter()
            .enumerate()
            .map(|(i, &t)| q.push(SimTime::from_nanos(t), i))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                prop_assert!(q.cancel(*id));
            } else {
                expected.push((first_wave[i], id.as_u64(), i));
            }
        }
        // Second wave reuses the cancelled slots.
        for (j, &t) in second_wave.iter().enumerate() {
            let id = q.push(SimTime::from_nanos(t), first_wave.len() + j);
            expected.push((t, id.as_u64(), first_wave.len() + j));
        }
        expected.sort_unstable();
        let mut popped: Vec<usize> = Vec::new();
        let mut last: Option<(SimTime, u64)> = None;
        while let Some((t, id, v)) = q.pop() {
            if let Some((lt, lseq)) = last {
                prop_assert!(t >= lt, "time went backwards");
                prop_assert!(id.as_u64() > lseq || t > lt, "FIFO violated among equal times");
            }
            last = Some((t, id.as_u64()));
            popped.push(v);
        }
        let expect_payloads: Vec<usize> = expected.iter().map(|&(_, _, v)| v).collect();
        prop_assert_eq!(popped, expect_payloads);
        prop_assert!(q.is_empty());
    }

    /// Time arithmetic round-trips: (t + d) − d == t and
    /// (t + d) − t == d.
    #[test]
    fn time_addition_round_trips(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(t);
        let d = SimDuration::from_nanos(d);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d) - t, d);
        prop_assert!(t + d >= t);
    }

    /// Saturating operations never panic and clamp correctly.
    #[test]
    fn time_saturating_ops(a in any::<u64>(), b in any::<u64>()) {
        let t = SimTime::from_nanos(a);
        let d = SimDuration::from_nanos(b);
        let sub = t.saturating_sub(d);
        prop_assert!(sub <= t);
        if b > a {
            prop_assert_eq!(sub, SimTime::ZERO);
        }
        let dur = t.saturating_duration_since(SimTime::from_nanos(b));
        if a >= b {
            prop_assert_eq!(dur.as_nanos(), a - b);
        } else {
            prop_assert_eq!(dur, SimDuration::ZERO);
        }
    }

    /// Welford accumulation matches the naive two-pass computation.
    #[test]
    fn welford_matches_two_pass(xs in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
        let s: OnlineStats = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.sample_variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
    }

    /// Merging partitions equals accumulating the whole.
    #[test]
    fn welford_merge_is_partition_invariant(
        xs in proptest::collection::vec(-1e4f64..1e4, 2..100),
        split in 0usize..100,
    ) {
        let k = split % xs.len();
        let whole: OnlineStats = xs.iter().copied().collect();
        let mut left: OnlineStats = xs[..k].iter().copied().collect();
        let right: OnlineStats = xs[k..].iter().copied().collect();
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-7 * (1.0 + whole.mean().abs()));
        prop_assert!(
            (left.sample_variance() - whole.sample_variance()).abs()
                < 1e-5 * (1.0 + whole.sample_variance().abs())
        );
    }

    /// Histogram mass is conserved and fraction_below is monotone.
    #[test]
    fn histogram_mass_and_monotonicity(xs in proptest::collection::vec(0.0f64..10.0, 1..300)) {
        let mut h = Histogram::new(0.5, 10); // covers [0, 5); rest overflow
        for &x in &xs {
            h.add(x);
        }
        let binned: u64 = (0..h.bins()).map(|i| h.bin_count(i)).sum();
        prop_assert_eq!(binned + h.overflow(), xs.len() as u64);
        prop_assert_eq!(h.total(), xs.len() as u64);
        let mut last = 0.0;
        for q in [0.5, 1.0, 2.0, 3.0, 5.0, 100.0] {
            let f = h.fraction_below(q);
            prop_assert!(f >= last - 1e-12, "fraction_below not monotone");
            prop_assert!((0.0..=1.0).contains(&f));
            last = f;
        }
    }

    /// Derived RNG streams are reproducible and independent of sibling
    /// draw order.
    #[test]
    fn rng_derivation_reproducible(seed in any::<u64>(), a in 0u64..64, b in 0u64..64) {
        let root = SimRng::seed_from_u64(seed);
        let mut c1 = root.derive(a);
        let v1 = c1.next_u64();
        // Interleave unrelated draws.
        let mut other = root.derive(b.wrapping_add(17));
        let _ = other.next_u64();
        let mut c2 = root.derive(a);
        prop_assert_eq!(c2.next_u64(), v1);
    }

    /// Uniform range draws respect their bounds.
    #[test]
    fn rng_ranges_in_bounds(seed in any::<u64>(), lo in -1e6f64..1e6, width in 1e-3f64..1e6) {
        let mut rng = SimRng::seed_from_u64(seed);
        let hi = lo + width;
        for _ in 0..32 {
            let x = rng.range_f64(lo, hi);
            prop_assert!((lo..hi).contains(&x));
        }
    }
}

/// Deterministic stress: 50k randomly-timed events pop in a stable
/// order across two identical queues.
#[test]
fn queue_stress_is_stable() {
    use essat_sim::queue::EventQueue;
    use essat_sim::rng::SimRng;
    use essat_sim::time::SimTime;

    let build = || {
        let mut q = EventQueue::new();
        let mut rng = SimRng::seed_from_u64(99);
        for i in 0..50_000u64 {
            q.push(SimTime::from_nanos(rng.next_u64() % 1_000_000), i);
        }
        let mut order = Vec::with_capacity(50_000);
        while let Some((_, _, e)) = q.pop() {
            order.push(e);
        }
        order
    };
    assert_eq!(build(), build());
}

/// Differential test of the timer-wheel queue against a reference
/// binary-heap model over random interleaved push / pop / cancel
/// workloads. Times span three regimes relative to the wheel's ≈268 ms
/// near-future window — current-bucket inserts, in-window buckets, and
/// far-future overflow (which must migrate back into the wheel as the
/// cursor advances) — and pops interleave with pushes so earlier-than-
/// cursor pushes are exercised too.
mod wheel_vs_reference {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use essat_sim::queue::EventQueue;
    use essat_sim::time::SimTime;
    use proptest::prelude::*;

    /// Reference model: a plain `(time, seq)` min-heap plus a cancelled
    /// set, with the exact contract the wheel must honour.
    #[derive(Default)]
    struct RefQueue {
        heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
        cancelled: Vec<bool>,
        next_seq: u64,
        live: usize,
    }

    impl RefQueue {
        fn push(&mut self, t: u64, payload: usize) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse((t, seq, payload)));
            self.cancelled.push(false);
            self.live += 1;
            seq
        }
        fn cancel(&mut self, seq: u64) -> bool {
            let c = &mut self.cancelled[seq as usize];
            if *c {
                return false;
            }
            *c = true;
            self.live -= 1;
            true
        }
        fn pop(&mut self) -> Option<(u64, usize)> {
            while let Some(Reverse((t, seq, p))) = self.heap.pop() {
                if std::mem::replace(&mut self.cancelled[seq as usize], true) {
                    continue;
                }
                self.live -= 1;
                return Some((t, p));
            }
            None
        }
    }

    /// Timer kinds the differential arm/disarm owners juggle (the MAC
    /// has four: DIFS, backoff, ACK timeout, ACK delay).
    const TIMER_KINDS: usize = 4;

    /// True-cancellation owner: one live [`EventId`] handle per timer
    /// kind; disarm and re-arm cancel the superseded event on the
    /// queue, so every pop is a live firing.
    #[derive(Default)]
    struct CancelOwner {
        q: EventQueue<usize>,
        handle: [Option<essat_sim::queue::EventId>; TIMER_KINDS],
    }

    impl CancelOwner {
        fn arm(&mut self, kind: usize, at: SimTime) {
            if let Some(old) = self.handle[kind].take() {
                assert!(self.q.cancel(old), "displaced handle was not live");
            }
            self.handle[kind] = Some(self.q.push(at, kind));
        }
        fn disarm(&mut self, kind: usize) {
            if let Some(old) = self.handle[kind].take() {
                assert!(self.q.cancel(old), "disarmed handle was not live");
            }
        }
        fn fire_next(&mut self) -> Option<(u64, usize)> {
            let (t, id, kind) = self.q.pop()?;
            assert_eq!(self.handle[kind], Some(id), "popped a superseded timer");
            self.handle[kind] = None;
            Some((t.as_nanos(), kind))
        }
    }

    /// Fire-and-filter owner (the retired protocol): arm and disarm
    /// bump a per-kind generation; superseded events stay queued and
    /// are filtered out at dispatch.
    #[derive(Default)]
    struct FilterOwner {
        q: EventQueue<(usize, u64)>,
        gen: [u64; TIMER_KINDS],
        armed: [bool; TIMER_KINDS],
    }

    impl FilterOwner {
        fn arm(&mut self, kind: usize, at: SimTime) {
            self.gen[kind] += 1;
            self.armed[kind] = true;
            self.q.push(at, (kind, self.gen[kind]));
        }
        fn disarm(&mut self, kind: usize) {
            self.gen[kind] += 1;
            self.armed[kind] = false;
        }
        fn fire_next(&mut self) -> Option<(u64, usize)> {
            while let Some((t, _, (kind, gen))) = self.q.pop() {
                if self.armed[kind] && gen == self.gen[kind] {
                    self.armed[kind] = false;
                    return Some((t.as_nanos(), kind));
                }
            }
            None
        }
    }

    /// One scripted operation: 0 = push, 1 = pop, 2 = cancel.
    fn op_strategy() -> impl Strategy<Value = (u8, u64, u16)> {
        (
            0u8..3,
            // Mix µs-scale (current bucket), ms-scale (in-window) and
            // second-scale (past the ≈268 ms horizon: overflow) times.
            prop_oneof![0u64..20_000, 0u64..5_000_000, 0u64..1_000_000_000],
            any::<u16>(),
        )
    }

    /// Plays a push / pop / cancel script on `q` and `r` side by side,
    /// checking every pop, every cancel outcome and `len()`. Sequence
    /// numbers keep counting across `clear()`, so the queue's are offset
    /// from the reference's by the pushes it saw before `r` existed.
    fn play(q: &mut EventQueue<usize>, r: &mut RefQueue, ops: &[(u8, u64, u16)]) {
        let base = q.scheduled_total();
        let mut ids = Vec::new(); // wheel ids by ref seq
        let mut payload = 0usize;
        for &(op, t, pick) in ops {
            match op {
                0 => {
                    let id = q.push(SimTime::from_nanos(t), payload);
                    let seq = r.push(t, payload);
                    assert_eq!(id.as_u64(), base + seq, "seq numbering agrees");
                    ids.push(id);
                    payload += 1;
                }
                1 => {
                    let got = q.pop().map(|(t, _, p)| (t.as_nanos(), p));
                    assert_eq!(got, r.pop(), "pop order diverged");
                }
                _ if !ids.is_empty() => {
                    let id = ids[pick as usize % ids.len()];
                    assert_eq!(
                        q.cancel(id),
                        r.cancel(id.as_u64() - base),
                        "cancel outcome diverged"
                    );
                }
                _ => {}
            }
            assert_eq!(q.len(), r.live, "live count diverged");
        }
    }

    /// Drains `q` and `r`: the survivors must agree exactly, in order.
    fn drain(q: &mut EventQueue<usize>, r: &mut RefQueue) {
        loop {
            let got = q.pop().map(|(t, _, p)| (t.as_nanos(), p));
            assert_eq!(got, r.pop(), "drain order diverged");
            assert_eq!(q.len(), r.live, "live count diverged");
            if got.is_none() {
                break;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn wheel_matches_reference_heap(ops in proptest::collection::vec(op_strategy(), 1..400)) {
            let mut q = EventQueue::new();
            let mut r = RefQueue::default();
            play(&mut q, &mut r, &ops);
            drain(&mut q, &mut r);
        }

        /// A queue recycled through `clear()` — every sweep job after a
        /// worker's first runs on one — behaves like a fresh queue: after
        /// a first script leaves events pending in the current bucket,
        /// future buckets and the overflow heap, `clear()` and a second
        /// script match a fresh reference pop for pop.
        #[test]
        fn recycled_queue_matches_fresh_reference(
            first in proptest::collection::vec(op_strategy(), 1..400),
            second in proptest::collection::vec(op_strategy(), 1..400),
        ) {
            let mut q = EventQueue::new();
            play(&mut q, &mut RefQueue::default(), &first);
            q.clear();
            prop_assert!(q.is_empty());
            let mut r = RefQueue::default();
            play(&mut q, &mut r, &second);
            drain(&mut q, &mut r);
        }

        /// Differential test of the engine's bounded-run loop — one
        /// `pop_before(deadline)` per dispatch — against the reference
        /// heap, with pushes into the bucket being drained, far-future
        /// pushes past the wheel horizon whose overflow entries must
        /// migrate back, and cancels of pending entries, each played
        /// between dispatches like a handler would. Whatever lies past
        /// the deadline stays queued and drains in the same order.
        #[test]
        fn pop_before_matches_reference(
            initial in proptest::collection::vec(
                prop_oneof![0u64..20_000, 0u64..5_000_000, 0u64..1_000_000_000],
                1..150,
            ),
            script in proptest::collection::vec((0u8..3, 0u64..20_000, any::<u16>()), 0..150),
        ) {
            let mut q = EventQueue::new();
            let mut r = RefQueue::default();
            let mut ids = Vec::new();
            let mut payload = 0usize;
            for &t in &initial {
                ids.push(q.push(SimTime::from_nanos(t), payload));
                r.push(t, payload);
                payload += 1;
            }
            let mut script = script.into_iter();
            let deadline = SimTime::from_nanos(2_000_000_000);
            while let Some((now, _, p)) = q.pop_before(deadline) {
                let now = now.as_nanos();
                prop_assert_eq!(Some((now, p)), r.pop(), "dispatch order diverged");
                match script.next() {
                    Some((0, dt, _)) => {
                        // Near push: often lands in the bucket being
                        // drained and must sort into dispatch order.
                        let t = now + dt % 4_096;
                        ids.push(q.push(SimTime::from_nanos(t), payload));
                        r.push(t, payload);
                        payload += 1;
                    }
                    Some((1, dt, _)) => {
                        // Far push: past the horizon, so it lands in the
                        // overflow heap and must migrate back.
                        let t = now + 300_000_000 + dt;
                        ids.push(q.push(SimTime::from_nanos(t), payload));
                        r.push(t, payload);
                        payload += 1;
                    }
                    Some((_, _, pick)) if !ids.is_empty() => {
                        let id = ids[pick as usize % ids.len()];
                        prop_assert_eq!(
                            q.cancel(id),
                            r.cancel(id.as_u64()),
                            "cancel outcome diverged"
                        );
                    }
                    _ => {}
                }
            }
            loop {
                let got = q.pop().map(|(t, _, p)| (t.as_nanos(), p));
                prop_assert_eq!(got, r.pop(), "post-deadline order diverged");
                match got {
                    Some((t, _)) => prop_assert!(t > deadline.as_nanos(), "deadline overrun"),
                    None => break,
                }
            }
        }

        /// Differential test of the true-cancellation timer protocol
        /// against the retired fire-and-filter (generation fence)
        /// protocol, over random arm / disarm / re-arm / fire scripts.
        /// Both owners drive the same wheel implementation and push on
        /// every arm, so sequence numbers line up; the only difference
        /// is whether a superseded timer is cancelled on the queue or
        /// left to be filtered at dispatch. The observable firings —
        /// `(time, kind)`, in exact FIFO order — must be identical,
        /// which is precisely the behaviour-preservation argument for
        /// retiring the stale-dispatch path.
        #[test]
        fn cancellation_matches_fire_and_filter(
            ops in proptest::collection::vec(
                (0u8..4, 0usize..TIMER_KINDS, 0u64..500_000),
                1..300,
            ),
        ) {
            let mut live = CancelOwner::default();
            let mut reference = FilterOwner::default();
            let mut now = 0u64;
            for (op, kind, dt) in ops {
                match op {
                    // Arm (a re-arm when already armed: the cancel
                    // owner displaces the old handle).
                    0 | 1 => {
                        let at = SimTime::from_nanos(now + dt);
                        live.arm(kind, at);
                        reference.arm(kind, at);
                    }
                    2 => {
                        live.disarm(kind);
                        reference.disarm(kind);
                    }
                    _ => {
                        let got = live.fire_next();
                        prop_assert_eq!(got, reference.fire_next(), "firing diverged");
                        if let Some((t, _)) = got {
                            now = now.max(t);
                        }
                    }
                }
            }
            // Drain: every remaining armed timer fires, in the same
            // order, and nothing else does.
            loop {
                let got = live.fire_next();
                prop_assert_eq!(got, reference.fire_next(), "drain firing diverged");
                if got.is_none() {
                    break;
                }
            }
        }

        /// Same-instant FIFO across the overflow → wheel migration: a
        /// burst scheduled far in the future pops in insertion order
        /// even though it reaches the wheel via the overflow heap.
        #[test]
        fn far_future_fifo_survives_migration(
            // At or past the wheel horizon (4096 buckets × 2^16 ns).
            far in 268_435_456u64..1_000_000_000,
            burst in 2usize..60,
        ) {
            let mut q = EventQueue::new();
            q.push(SimTime::from_nanos(1), usize::MAX);
            for i in 0..burst {
                q.push(SimTime::from_nanos(far), i);
            }
            assert_eq!(q.pop().unwrap().2, usize::MAX);
            for i in 0..burst {
                prop_assert_eq!(q.pop().unwrap().2, i, "FIFO broken after migration");
            }
            prop_assert!(q.pop().is_none());
        }
    }
}

/// Differential test of the sparse [`Histogram`] against a dense
/// reference: one counter per bin, scanned bin by bin, as the histogram
/// was stored before it kept only its filled bins. Observations include
/// values at or below zero, exact bin edges (computed both ways a scan
/// computes them, and one ulp to either side) and overflow; every query
/// must agree bit for bit.
mod histogram_vs_dense {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Dense {
        bin_width: f64,
        counts: Vec<u64>,
        overflow: u64,
        total: u64,
        sum: f64,
    }

    impl Dense {
        fn new(bin_width: f64, bins: usize) -> Self {
            Dense {
                bin_width,
                counts: vec![0; bins],
                overflow: 0,
                total: 0,
                sum: 0.0,
            }
        }

        fn add(&mut self, x: f64) {
            let idx = if x <= 0.0 {
                0
            } else {
                (x / self.bin_width) as usize
            };
            if idx < self.counts.len() {
                self.counts[idx] += 1;
            } else {
                self.overflow += 1;
            }
            self.total += 1;
            self.sum += x.max(0.0);
        }

        fn mean(&self) -> f64 {
            if self.total == 0 {
                0.0
            } else {
                self.sum / self.total as f64
            }
        }

        fn fraction_below(&self, x: f64) -> f64 {
            if self.total == 0 || x <= 0.0 {
                return 0.0;
            }
            let mut below = 0.0;
            for (i, &c) in self.counts.iter().enumerate() {
                let lo = i as f64 * self.bin_width;
                let hi = lo + self.bin_width;
                if x >= hi {
                    below += c as f64;
                } else if x > lo {
                    below += c as f64 * (x - lo) / self.bin_width;
                    break;
                } else {
                    break;
                }
            }
            below / self.total as f64
        }

        fn merge(&mut self, other: &Dense) {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
            self.overflow += other.overflow;
            self.total += other.total;
            self.sum += other.sum;
        }
    }

    /// Both edges of bin `k` as a scan computes them, and one ulp to
    /// either side of each.
    fn edges(w: f64, k: usize) -> [f64; 6] {
        let lo = k as f64 * w;
        let hi = lo + w;
        [
            lo,
            lo.next_down(),
            lo.next_up(),
            hi,
            hi.next_down(),
            hi.next_up(),
        ]
    }

    /// An observation: `(kind, bin, fraction)` picks a value at or below
    /// zero, an edge of bin `bin` (possibly past the last bin), or a
    /// uniform value over the range plus a little overflow.
    fn value(w: f64, bins: usize, (kind, k, frac): (u8, usize, f64)) -> f64 {
        match kind {
            0 => -frac.abs() * w,
            1 => edges(w, k)[(frac.abs() * 6.0) as usize % 6],
            _ => frac.abs() * (bins as f64 + 2.0) * w,
        }
    }

    fn assert_same(s: &Histogram, d: &Dense) {
        assert_eq!(s.bins(), d.counts.len());
        assert_eq!(s.bin_width(), d.bin_width);
        for (i, &c) in d.counts.iter().enumerate() {
            assert_eq!(s.bin_count(i), c, "bin {i}");
        }
        let want: Vec<(u64, u64)> = d
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (((i + 1) as f64 * d.bin_width).to_bits(), c))
            .collect();
        let got: Vec<(u64, u64)> = s.iter().map(|(e, c)| (e.to_bits(), c)).collect();
        assert_eq!(got, want, "iter");
        assert_eq!(s.total(), d.total);
        assert_eq!(s.overflow(), d.overflow);
        assert_eq!(s.mean().to_bits(), d.mean().to_bits(), "mean");
        let w = d.bin_width;
        let mut queries = vec![0.0, -w, w * 0.5, f64::INFINITY, f64::MAX];
        for k in 0..d.counts.len() + 2 {
            queries.extend(edges(w, k));
            queries.push((k as f64 + 0.37) * w);
        }
        for x in queries {
            assert_eq!(
                s.fraction_below(x).to_bits(),
                d.fraction_below(x).to_bits(),
                "fraction_below({x:e})"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sparse_histogram_matches_dense_reference(
            w in prop_oneof![Just(0.0005), Just(0.1), Just(0.025), Just(1.0 / 3.0), Just(0.7)],
            bins in 1usize..40,
            obs in proptest::collection::vec((0u8..4, 0usize..45, -1.0f64..1.0), 0..120),
            split in 0usize..120,
        ) {
            let xs: Vec<f64> = obs.iter().map(|&o| value(w, bins, o)).collect();
            let (mut s, mut d) = (Histogram::new(w, bins), Dense::new(w, bins));
            for &x in &xs {
                s.add(x);
                d.add(x);
            }
            assert_same(&s, &d);

            // Merge two halves.
            let cut = split.min(xs.len());
            let (mut sa, mut da) = (Histogram::new(w, bins), Dense::new(w, bins));
            let (mut sb, mut db) = (Histogram::new(w, bins), Dense::new(w, bins));
            for &x in &xs[..cut] {
                sa.add(x);
                da.add(x);
            }
            for &x in &xs[cut..] {
                sb.add(x);
                db.add(x);
            }
            sa.merge(&sb);
            da.merge(&db);
            assert_same(&sa, &da);

            // Equality agrees with the reference's: same observations in
            // reverse order (bins equal, the float sum may differ), and
            // the first half alone.
            let (mut sr, mut dr) = (Histogram::new(w, bins), Dense::new(w, bins));
            for &x in xs.iter().rev() {
                sr.add(x);
                dr.add(x);
            }
            prop_assert_eq!(s == sr, d == dr);
            prop_assert_eq!(s == sa, d == da);
            let (mut sh, mut dh) = (Histogram::new(w, bins), Dense::new(w, bins));
            for &x in &xs[..cut] {
                sh.add(x);
                dh.add(x);
            }
            prop_assert_eq!(s == sh, d == dh);
        }
    }
}
