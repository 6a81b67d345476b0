//! The pending-event set: a priority queue ordered by `(time, sequence)`.
//!
//! Determinism requirement: two events scheduled for the same instant must
//! always execute in the order they were scheduled, on every run. The queue
//! therefore orders entries by the pair *(fire time, insertion sequence)* —
//! a strict total order with FIFO tie-breaking.
//!
//! # Implementation
//!
//! Event payloads live in a **slab** (a vector of reusable slots with a
//! free list); the ordering structure holds only small `Copy` entries
//! `(time, seq, slot)`. The insertion sequence number doubles as a
//! **generation tag**: a slot is live for exactly one sequence number, so
//! an entry is stale iff its sequence no longer matches its slot.
//! Cancellation ([`EventQueue::cancel`]) is O(1): drop the payload, free
//! the slot, and leave the ordering entry to be skipped at pop time by
//! the sequence check — no hashing anywhere on the push/pop/cancel paths.
//!
//! The ordering structure is a **timer wheel** rather than a binary
//! heap: the dominant simulation workload is timers at MAC-slot
//! granularity (backoffs, DIFS/SIFS, airtimes, radio transitions), for
//! which a comparison heap pays `O(log n)` pointer-chasing per event. The
//! wheel is a ring of `BUCKET_COUNT` (4096) buckets of `2^BUCKET_SHIFT`
//! ns each (65.536 µs ≈ a handful of 802.11 20 µs slots), covering a
//! ≈268 ms near-future window:
//!
//! * **push** within the window appends to the target bucket — O(1);
//! * **pop** drains the *current* bucket, which is sorted by
//!   `(time, seq)` once when the cursor reaches it (so the exact global
//!   order is preserved, including FIFO among same-instant events);
//! * an occupancy **bitmap** (one bit per bucket) finds the next
//!   non-empty bucket with a couple of word scans, so sparse stretches
//!   cost nothing;
//! * events beyond the window go to a small **overflow heap** and
//!   migrate into the wheel as the cursor advances past their horizon.
//!
//! Pushes at or before the cursor's bucket (e.g. `schedule_now` chains)
//! insert into the current bucket at their sorted position, which keeps
//! the total order exact even while the bucket is being drained.
//!
//! # Examples
//!
//! ```
//! use essat_sim::queue::EventQueue;
//! use essat_sim::time::SimTime;
//!
//! let mut q = EventQueue::new();
//! let t = SimTime::from_millis(5);
//! q.push(t, "b");
//! let id = q.push(SimTime::from_millis(1), "a");
//! q.push(t, "c");
//! assert!(q.cancel(id));
//! let (t1, _, e1) = q.pop().unwrap();
//! assert_eq!((t1, e1), (t, "b")); // FIFO among same-time events
//! assert_eq!(q.pop().unwrap().2, "c");
//! assert!(q.pop().is_none());
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the bucket width in nanoseconds: 2^16 ns = 65.536 µs, a few
/// 802.11 20 µs slots. Wide enough that consecutive pops usually find
/// their event in the bucket the cursor already sits on (a 16.384 µs
/// bucket held ~1 event, paying a cursor advance per pop); narrow
/// enough that the sort on arrival and the sorted insert for pushes
/// into the current bucket stay cheap.
const BUCKET_SHIFT: u32 = 16;
/// Number of buckets in the ring (must be a power of two). With
/// [`BUCKET_SHIFT`] this spans ≈268 ms of near future — wide enough
/// that collection timeouts, radio wake-ups and most round-period
/// chains land in the wheel directly; only second-scale schedules take
/// the overflow heap.
const BUCKET_COUNT: usize = 4096;
const BUCKET_MASK: u64 = (BUCKET_COUNT as u64) - 1;
/// Occupancy bitmap words.
const OCC_WORDS: usize = BUCKET_COUNT / 64;

/// Opaque handle to a scheduled event, usable to cancel it later.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    /// Insertion sequence (unique per queue, monotonically increasing);
    /// doubles as the slot generation tag.
    seq: u64,
    /// Slab slot the event occupies (or occupied).
    slot: u32,
}

impl EventId {
    /// The raw sequence number (unique per queue, monotonically increasing).
    pub fn as_u64(self) -> u64 {
        self.seq
    }
}

/// One slab slot. `event` is `None` while the slot sits on the free
/// list; `seq` records the generation that last occupied it.
#[derive(Debug)]
struct Slot<E> {
    seq: u64,
    event: Option<E>,
}

/// One ordering entry: everything needed for ordering and staleness
/// detection, but not the event payload itself (which stays in the
/// slab). Used both in wheel buckets and in the overflow heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Deterministic future-event set.
///
/// See the [module documentation](self) for ordering and cancellation
/// semantics.
#[derive(Debug)]
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    live: usize,
    peak_live: usize,
    next_seq: u64,
    /// The bucket ring; `wheel[abs & BUCKET_MASK]` holds entries whose
    /// absolute bucket number is `abs ∈ (cur_abs, cur_abs + BUCKET_COUNT)`,
    /// plus — at ring position `cur_abs & BUCKET_MASK` — the current
    /// bucket being drained (which may also hold earlier-time entries
    /// pushed after the cursor passed their nominal bucket).
    wheel: Vec<Vec<Entry>>,
    /// One bit per ring position: set iff a non-current bucket holds
    /// entries (possibly stale).
    occ: [u64; OCC_WORDS],
    /// Absolute bucket number (`time >> BUCKET_SHIFT`) of the cursor.
    cur_abs: u64,
    /// Drained prefix of the current bucket.
    drain: usize,
    /// Whether the current bucket's `[drain..]` suffix is sorted by
    /// `(time, seq)`.
    sorted: bool,
    /// Events at or beyond the wheel horizon, ordered by `(time, seq)`.
    overflow: BinaryHeap<Reverse<Entry>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            peak_live: 0,
            next_seq: 0,
            wheel: (0..BUCKET_COUNT).map(|_| Vec::new()).collect(),
            occ: [0; OCC_WORDS],
            cur_abs: 0,
            drain: 0,
            sorted: false,
            overflow: BinaryHeap::new(),
        }
    }

    #[inline]
    fn occ_set(&mut self, ring: usize) {
        self.occ[ring >> 6] |= 1u64 << (ring & 63);
    }

    #[inline]
    fn occ_clear(&mut self, ring: usize) {
        self.occ[ring >> 6] &= !(1u64 << (ring & 63));
    }

    /// The smallest absolute bucket number `> cur_abs` (within one ring
    /// revolution) whose bucket is marked occupied.
    fn next_occupied(&self) -> Option<u64> {
        let start = ((self.cur_abs + 1) & BUCKET_MASK) as usize;
        let mut w = start >> 6;
        let mut word = self.occ[w] & (!0u64 << (start & 63));
        for _ in 0..=OCC_WORDS {
            if word != 0 {
                let ring = (w << 6) + word.trailing_zeros() as usize;
                let delta = (ring + BUCKET_COUNT - start) as u64 & BUCKET_MASK;
                return Some(self.cur_abs + 1 + delta);
            }
            w = (w + 1) % OCC_WORDS;
            word = self.occ[w];
        }
        None
    }

    /// Files an ordering entry into the wheel or the overflow heap.
    #[inline]
    fn insert_entry(&mut self, e: Entry) {
        let abs = e.time.as_nanos() >> BUCKET_SHIFT;
        if self.live == 1 && abs > self.cur_abs {
            // The queue was empty: jump the cursor straight to the new
            // event's bucket so an idle stretch never routes the next
            // event through the overflow heap. Any leftover entries in
            // the old current bucket are stale (live was 0) and can mix
            // harmlessly with future occupants of the reused ring slot.
            let ring = (self.cur_abs & BUCKET_MASK) as usize;
            self.wheel[ring].clear();
            self.drain = 0;
            self.sorted = false;
            self.cur_abs = abs;
            self.occ_clear((abs & BUCKET_MASK) as usize);
        }
        if abs <= self.cur_abs {
            // Current bucket (or the past — the engine forbids that, but
            // the queue keeps exact order regardless): keep the drained
            // suffix sorted.
            let ring = (self.cur_abs & BUCKET_MASK) as usize;
            if self.sorted {
                let tail = &self.wheel[ring][self.drain..];
                let pos = tail.partition_point(|x| (x.time, x.seq) <= (e.time, e.seq));
                self.wheel[ring].insert(self.drain + pos, e);
            } else {
                self.wheel[ring].push(e);
            }
        } else if abs - self.cur_abs < BUCKET_COUNT as u64 {
            let ring = (abs & BUCKET_MASK) as usize;
            self.wheel[ring].push(e);
            self.occ_set(ring);
        } else {
            self.overflow.push(Reverse(e));
        }
    }

    /// Schedules `event` to fire at `time` and returns its cancellation
    /// handle.
    ///
    /// Scheduling into the past (before the last popped event) is allowed
    /// by the queue itself; the [`engine`](crate::engine) enforces clock
    /// monotonicity at a higher level.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                let sl = &mut self.slots[s as usize];
                sl.seq = seq;
                sl.event = Some(event);
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot {
                    seq,
                    event: Some(event),
                });
                s
            }
        };
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        self.insert_entry(Entry { time, seq, slot });
        EventId { seq, slot }
    }

    /// True if `id` still identifies the live occupant of its slot.
    fn is_live(&self, id: EventId) -> bool {
        self.slots
            .get(id.slot as usize)
            .is_some_and(|sl| sl.seq == id.seq && sl.event.is_some())
    }

    /// Cancels a pending event. Returns `true` if the event was still
    /// pending (and is now guaranteed never to fire), `false` if it had
    /// already fired or been cancelled.
    #[inline]
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(sl) = self.slots.get_mut(id.slot as usize) else {
            return false;
        };
        if sl.seq != id.seq || sl.event.take().is_none() {
            return false;
        }
        self.free.push(id.slot);
        self.live -= 1;
        true
    }

    /// Returns `true` if the event is still pending.
    #[inline]
    pub fn is_pending(&self, id: EventId) -> bool {
        self.is_live(id)
    }

    /// Migrates overflow entries that now fall inside the wheel window.
    fn migrate_overflow(&mut self) {
        let horizon = self.cur_abs + BUCKET_COUNT as u64;
        while let Some(Reverse(e)) = self.overflow.peek() {
            if e.time.as_nanos() >> BUCKET_SHIFT >= horizon {
                break;
            }
            let Some(Reverse(e)) = self.overflow.pop() else {
                unreachable!()
            };
            let abs = e.time.as_nanos() >> BUCKET_SHIFT;
            let ring = (abs & BUCKET_MASK) as usize;
            self.wheel[ring].push(e);
            if abs != self.cur_abs {
                self.occ_set(ring);
            }
        }
    }

    /// Advances the cursor to the next bucket holding entries (wheel or
    /// overflow). The current bucket must be fully drained. Returns
    /// `false` when nothing is pending anywhere.
    fn advance(&mut self) -> bool {
        debug_assert!(self.drain >= self.wheel[(self.cur_abs & BUCKET_MASK) as usize].len());
        let ring = (self.cur_abs & BUCKET_MASK) as usize;
        self.wheel[ring].clear();
        self.drain = 0;
        self.sorted = false;
        // Wheel entries always precede overflow entries (the overflow
        // holds only times at or beyond the horizon), so a non-empty
        // wheel decides the next cursor position by itself.
        let target = match self.next_occupied() {
            Some(abs) => abs,
            None => match self.overflow.peek() {
                Some(Reverse(e)) => e.time.as_nanos() >> BUCKET_SHIFT,
                None => return false,
            },
        };
        self.cur_abs = target;
        self.occ_clear((target & BUCKET_MASK) as usize);
        self.migrate_overflow();
        true
    }

    /// Positions `drain` at the earliest live entry, advancing buckets
    /// as needed, and returns it (without consuming).
    fn settle_head(&mut self) -> Option<Entry> {
        loop {
            let ring = (self.cur_abs & BUCKET_MASK) as usize;
            if !self.sorted {
                self.drain = 0;
                self.wheel[ring].sort_unstable();
                self.sorted = true;
            }
            while self.drain < self.wheel[ring].len() {
                let e = self.wheel[ring][self.drain];
                let sl = &self.slots[e.slot as usize];
                if sl.seq == e.seq && sl.event.is_some() {
                    return Some(e);
                }
                self.drain += 1; // stale: cancelled (slot possibly reused)
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Consumes the entry [`EventQueue::settle_head`] just positioned.
    fn consume_head(&mut self, e: Entry) -> (SimTime, EventId, E) {
        self.drain += 1;
        let sl = &mut self.slots[e.slot as usize];
        let event = sl.event.take().expect("settled head is live");
        self.free.push(e.slot);
        self.live -= 1;
        (
            e.time,
            EventId {
                seq: e.seq,
                slot: e.slot,
            },
            event,
        )
    }

    /// Removes and returns the earliest pending event as
    /// `(time, id, event)`, skipping cancelled entries.
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        let e = self.settle_head()?;
        Some(self.consume_head(e))
    }

    /// The fire time of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle_head().map(|e| e.time)
    }

    /// [`EventQueue::pop`], but only if the earliest pending event fires
    /// at or before `deadline` — the engine's bounded-run loop in one
    /// cursor pass instead of a peek followed by a pop.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, EventId, E)> {
        let e = self.settle_head()?;
        if e.time > deadline {
            return None;
        }
        Some(self.consume_head(e))
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// The largest number of simultaneously pending events seen so far.
    pub fn peak_len(&self) -> usize {
        self.peak_live
    }

    /// True if no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Removes all pending events and resets the high-water mark and the
    /// cursor (the next push may be at any time, including before
    /// previously popped events). Bucket, slab and overflow capacity is
    /// retained, so a recycled queue reaches steady state without
    /// reallocating.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.live = 0;
        self.peak_live = 0;
        for b in &mut self.wheel {
            b.clear();
        }
        self.occ = [0; OCC_WORDS];
        self.cur_abs = 0;
        self.drain = 0;
        self.sorted = false;
        self.overflow.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), 3);
        q.push(t(10), 1);
        q.push(t(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_is_exact() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        let b = q.push(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.len(), 1);
        let (_, id, e) = q.pop().unwrap();
        assert_eq!(e, "b");
        assert_eq!(id, b);
        assert!(!q.cancel(b), "cancel after pop reports false");
        assert!(q.is_empty());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop().unwrap().2, "b");
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn is_pending_tracks_lifecycle() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), ());
        assert!(q.is_pending(a));
        q.pop();
        assert!(!q.is_pending(a));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.push(t(i), i);
        }
        assert_eq!(q.len(), 10);
        assert_eq!(q.scheduled_total(), 10);
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        // Sequence numbers keep increasing after clear.
        let id = q.push(t(1), 99);
        assert_eq!(id.as_u64(), 10);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(t(10), 10);
        q.push(t(30), 30);
        assert_eq!(q.pop().unwrap().2, 10);
        q.push(t(20), 20);
        assert_eq!(q.pop().unwrap().2, 20);
        assert_eq!(q.pop().unwrap().2, 30);
    }

    #[test]
    fn same_time_ids_are_distinct() {
        let mut q = EventQueue::new();
        let a = q.push(t(0) + SimDuration::ZERO, 0);
        let b = q.push(t(0), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn slot_reuse_does_not_confuse_handles() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        assert!(q.cancel(a));
        // The slot freed by `a` is reused by `b`.
        let b = q.push(t(2), "b");
        assert!(!q.is_pending(a), "stale handle must not see the new event");
        assert!(!q.cancel(a), "stale handle must not cancel the new event");
        assert!(q.is_pending(b));
        assert_eq!(q.pop().unwrap().2, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_then_reuse_preserves_order() {
        let mut q = EventQueue::new();
        // Fill, cancel the middle, refill the hole with a later event.
        let ids: Vec<_> = (0..10u64).map(|i| q.push(t(i), i)).collect();
        for id in &ids[3..7] {
            assert!(q.cancel(*id));
        }
        for i in 20..24u64 {
            q.push(t(i), i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 7, 8, 9, 20, 21, 22, 23]);
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.push(t(i), i);
        }
        q.pop();
        q.pop();
        q.push(t(9), 9);
        assert_eq!(q.len(), 4);
        assert_eq!(q.peak_len(), 5);
        q.clear();
        assert_eq!(q.peak_len(), 0, "clear resets the high-water mark");
        q.push(t(1), 1);
        assert_eq!(q.peak_len(), 1);
    }

    /// Events far beyond the wheel horizon (≈268 ms) take the overflow
    /// path and must still interleave exactly with near-future events.
    #[test]
    fn far_future_overflow_keeps_order() {
        let mut q = EventQueue::new();
        // Seconds apart: every push lands in the overflow heap relative
        // to the first bucket, then migrates as the cursor advances.
        q.push(SimTime::from_secs(3), 3);
        q.push(SimTime::from_micros(10), 0);
        q.push(SimTime::from_secs(1), 1);
        q.push(SimTime::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    /// Same-instant FIFO survives the overflow → wheel migration.
    #[test]
    fn overflow_migration_preserves_fifo() {
        let mut q = EventQueue::new();
        let far = SimTime::from_secs(5);
        for i in 0..50 {
            q.push(far, i);
        }
        q.push(SimTime::from_micros(1), -1);
        assert_eq!(q.pop().unwrap().2, -1);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    /// A push earlier than the cursor's bucket (the engine never does
    /// this, but the queue's contract allows it) still pops first.
    #[test]
    fn past_push_pops_first() {
        let mut q = EventQueue::new();
        q.push(t(100), 100);
        assert_eq!(q.pop().unwrap().2, 100); // cursor now at 100 ms
        q.push(t(50), 50);
        q.push(t(200), 200);
        q.push(t(40), 40);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![40, 50, 200]);
    }

    /// Pushes into the bucket currently being drained keep exact order
    /// relative to its remaining entries.
    #[test]
    fn push_into_draining_bucket_keeps_order() {
        let mut q = EventQueue::new();
        let base = SimTime::from_micros(100);
        q.push(base, 0);
        q.push(base + SimDuration::from_micros(4), 2);
        assert_eq!(q.pop().unwrap().2, 0);
        // Same bucket (65.536 µs wide), between the popped head and the
        // remaining entry.
        q.push(base + SimDuration::from_micros(2), 1);
        q.push(base + SimDuration::from_micros(4), 3); // FIFO after 2
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    /// Pushing after an idle (empty) stretch jumps the cursor instead of
    /// walking every intermediate bucket.
    #[test]
    fn empty_queue_jump_then_earlier_push() {
        let mut q = EventQueue::new();
        q.push(t(1), 1);
        assert_eq!(q.pop().unwrap().2, 1);
        assert!(q.is_empty());
        // Jump far ahead, then schedule something earlier than the jump
        // target (but after everything already popped).
        q.push(SimTime::from_secs(40), 40);
        q.push(SimTime::from_secs(20), 20);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(20)));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![20, 40]);
    }
}
