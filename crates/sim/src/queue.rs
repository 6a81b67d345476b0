//! The pending-event set: a priority queue ordered by `(time, sequence)`.
//!
//! Determinism requirement: two events scheduled for the same instant must
//! always execute in the order they were scheduled, on every run. The queue
//! therefore orders entries by the pair *(fire time, insertion sequence)* —
//! a strict total order with FIFO tie-breaking.
//!
//! # Implementation
//!
//! Every pending event lives in a **slab** slot (a vector of reusable
//! slots, the free ones chained into a free list) that also records its
//! fire time, its insertion sequence number and where the event is filed.
//! The insertion sequence number doubles as a **generation tag**: a slot
//! is live for exactly one sequence number, so a copied `(time, seq,
//! slot)` entry is stale iff its sequence no longer matches its slot — no
//! hashing anywhere on the push/pop/cancel paths.
//!
//! The ordering structure is a **timer wheel** rather than a binary
//! heap: the dominant simulation workload is timers at MAC-slot
//! granularity (backoffs, DIFS/SIFS, airtimes, radio transitions), for
//! which a comparison heap pays `O(log n)` pointer-chasing per event. The
//! wheel is a ring of `BUCKET_COUNT` (4096) buckets of `2^BUCKET_SHIFT`
//! ns each (65.536 µs ≈ a handful of 802.11 20 µs slots), covering a
//! ≈268 ms near-future window:
//!
//! * each future bucket is a doubly-linked list threaded through the
//!   slab slots (one head index per bucket), so a **push** within the
//!   window links its slot at the bucket's head and a **cancel** unlinks
//!   it — both O(1), and a cancelled timer is never sorted or skipped;
//! * when the cursor reaches a bucket, its list is gathered into one
//!   reusable `current` vector of `(time, seq, slot)` entries, sorted
//!   once and drained front to back, so **pop** follows the exact
//!   global order (including FIFO among same-instant events) whatever
//!   order the list held;
//! * an occupancy **bitmap** (one bit per bucket, set iff its list is
//!   non-empty) finds the next non-empty bucket with a couple of word
//!   scans, so sparse stretches cost nothing;
//! * events beyond the window go to a small **overflow heap** and
//!   migrate into the wheel as the cursor advances past their horizon.
//!
//! Pushes at or before the cursor's bucket (e.g. `schedule_now` chains)
//! insert into `current` at their sorted position, which keeps the total
//! order exact even while the bucket is being drained. Entries in
//! `current` and in the overflow heap are copies: cancelling one of
//! those events frees its slot at once and leaves the copy to be skipped
//! by the generation check.
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
/// The null slot index: an empty bucket, the end of a list.
const NIL: u32 = u32::MAX;

/// Absolute bucket number of `time`.
#[inline]
fn bucket_of(time: SimTime) -> u64 {
    time.as_nanos() >> BUCKET_SHIFT
}

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

/// Where a slot's event is filed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// No event: the slot is on the free list.
    Free,
    /// Linked into the list of a future wheel bucket.
    Bucket,
    /// Copied into `current`, the bucket under the cursor.
    Current,
    /// Copied into the overflow heap.
    Overflow,
}

/// One slab slot. `seq` records the generation that last occupied it;
/// `event` is `Some` iff `loc` is not [`Loc::Free`].
#[derive(Debug)]
struct Slot<E> {
    time: SimTime,
    seq: u64,
    /// Bucket-list neighbours while `loc` is [`Loc::Bucket`]; `next`
    /// also chains the free list.
    prev: u32,
    next: u32,
    loc: Loc,
    event: Option<E>,
}

/// A copied ordering entry — everything needed for ordering and
/// staleness detection, but not the event payload itself (which stays
/// in the slab). Used in `current` and in the overflow heap. The derived
/// order is `(time, seq)`: sequence numbers are unique, so the slot
/// never decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    time: SimTime,
    id: EventId,
}

/// Deterministic future-event set.
///
/// See the [module documentation](self) for ordering and cancellation
/// semantics.
#[derive(Debug)]
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    /// Head of the free-slot list, chained through `Slot::next`.
    free: u32,
    live: usize,
    peak_live: usize,
    next_seq: u64,
    /// Head slot of each future bucket's list: `heads[abs & BUCKET_MASK]`
    /// lists the events whose absolute bucket number is
    /// `abs ∈ (cur_abs, cur_abs + BUCKET_COUNT)`. The cursor's own ring
    /// position is always empty (its events are in `current`).
    heads: [u32; BUCKET_COUNT],
    /// One bit per ring position: set iff its bucket list is non-empty.
    occ: [u64; OCC_WORDS],
    /// Absolute bucket number (`time >> BUCKET_SHIFT`) of the cursor.
    cur_abs: u64,
    /// The cursor's bucket; may also hold earlier-time entries pushed
    /// after the cursor passed their nominal bucket, and stale copies of
    /// events cancelled after they arrived.
    current: Vec<Entry>,
    /// Drained prefix of `current`.
    drain: usize,
    /// Whether `current[drain..]` is sorted by `(time, seq)`. Entries
    /// gathered on arrival or pushed right after a cursor jump are
    /// appended unsorted and sorted once, at the next pop.
    sorted: bool,
    /// Events at or beyond the wheel horizon, ordered by `(time, seq)`
    /// (possibly stale).
    overflow: BinaryHeap<Reverse<Entry>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue. Allocates nothing until the first push.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: NIL,
            live: 0,
            peak_live: 0,
            next_seq: 0,
            heads: [NIL; BUCKET_COUNT],
            occ: [0; OCC_WORDS],
            cur_abs: 0,
            current: Vec::new(),
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

    /// Links live slot `s` at the head of the list of absolute bucket
    /// `abs`.
    #[inline]
    fn link(&mut self, s: u32, abs: u64) {
        let ring = (abs & BUCKET_MASK) as usize;
        let head = self.heads[ring];
        if head != NIL {
            self.slots[head as usize].prev = s;
        }
        let sl = &mut self.slots[s as usize];
        sl.prev = NIL;
        sl.next = head;
        sl.loc = Loc::Bucket;
        self.heads[ring] = s;
        self.occ_set(ring);
    }

    /// Unlinks slot `s` from its bucket's list, clearing the bucket's
    /// occupancy bit when the list empties.
    #[inline]
    fn unlink(&mut self, s: u32) {
        let sl = &self.slots[s as usize];
        let (prev, next, time) = (sl.prev, sl.next, sl.time);
        if next != NIL {
            self.slots[next as usize].prev = prev;
        }
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            let ring = (bucket_of(time) & BUCKET_MASK) as usize;
            self.heads[ring] = next;
            if next == NIL {
                self.occ_clear(ring);
            }
        }
    }

    /// Files the live event `e` relative to the cursor: into `current`,
    /// a bucket list, or the overflow heap.
    #[inline]
    fn file(&mut self, e: Entry) {
        let abs = bucket_of(e.time);
        let loc = &mut self.slots[e.id.slot as usize].loc;
        if abs <= self.cur_abs {
            // Current bucket (or the past — the engine forbids that, but
            // the queue keeps exact order regardless): keep a sorted
            // undrained suffix sorted.
            *loc = Loc::Current;
            if self.sorted {
                let pos = self.current[self.drain..].partition_point(|x| *x < e);
                self.current.insert(self.drain + pos, e);
            } else {
                self.current.push(e);
            }
        } else if abs - self.cur_abs < BUCKET_COUNT as u64 {
            self.link(e.id.slot, abs);
        } else {
            *loc = Loc::Overflow;
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
        // `file` sets the location.
        let slot = Slot {
            time,
            seq,
            prev: NIL,
            next: NIL,
            loc: Loc::Free,
            event: Some(event),
        };
        let s = if self.free != NIL {
            let s = self.free;
            self.free = self.slots[s as usize].next;
            self.slots[s as usize] = slot;
            s
        } else {
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        };
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        if self.live == 1 {
            // The queue was empty, so every bucket list is too and
            // whatever `current` and the overflow heap hold is stale:
            // drop it and put the cursor on this event's bucket, so an
            // idle stretch never routes the next event through the
            // overflow heap.
            self.current.clear();
            self.drain = 0;
            self.sorted = false;
            self.overflow.clear();
            self.cur_abs = bucket_of(time);
        }
        let id = EventId { seq, slot: s };
        self.file(Entry { time, id });
        id
    }

    /// Puts live slot `s` on the free list and returns its event.
    #[inline]
    fn release(&mut self, s: u32) -> E {
        let sl = &mut self.slots[s as usize];
        sl.loc = Loc::Free;
        sl.next = self.free;
        self.free = s;
        self.live -= 1;
        sl.event.take().expect("a live slot holds its event")
    }

    /// Cancels a pending event. Returns `true` if the event was still
    /// pending (and is now guaranteed never to fire), `false` if it had
    /// already fired or been cancelled.
    #[inline]
    pub fn cancel(&mut self, id: EventId) -> bool {
        if !self.is_pending(id) {
            return false;
        }
        if self.slots[id.slot as usize].loc == Loc::Bucket {
            self.unlink(id.slot);
        }
        self.release(id.slot);
        true
    }

    /// Returns `true` if the event is still pending: `id` still names
    /// the live occupant of its slot.
    #[inline]
    pub fn is_pending(&self, id: EventId) -> bool {
        self.slots
            .get(id.slot as usize)
            .is_some_and(|sl| sl.seq == id.seq && sl.loc != Loc::Free)
    }

    /// Links overflow events that now fall inside the wheel window into
    /// their bucket lists, dropping stale copies on the way.
    fn migrate_overflow(&mut self) {
        let horizon = self.cur_abs + BUCKET_COUNT as u64;
        while let Some(&Reverse(e)) = self.overflow.peek() {
            let abs = bucket_of(e.time);
            if abs >= horizon {
                break;
            }
            self.overflow.pop();
            if self.is_pending(e.id) {
                self.link(e.id.slot, abs);
            }
        }
    }

    /// Moves the cursor to the next bucket holding live events (wheel or
    /// overflow) and loads that bucket into `current`. Requires
    /// `current` to be drained and at least one event to be pending.
    fn advance(&mut self) {
        // Wheel entries always precede overflow entries (the overflow
        // holds only times at or beyond the horizon), so a non-empty
        // wheel decides the next cursor position by itself.
        let target = match self.next_occupied() {
            Some(abs) => abs,
            None => loop {
                let Reverse(e) = *self
                    .overflow
                    .peek()
                    .expect("a pending event outside the wheel is in the overflow heap");
                if self.is_pending(e.id) {
                    break bucket_of(e.time);
                }
                // Stale: it must not choose the next bucket.
                self.overflow.pop();
            },
        };
        self.cur_abs = target;
        self.current.clear();
        self.drain = 0;
        self.sorted = false;
        self.migrate_overflow();
        let ring = (target & BUCKET_MASK) as usize;
        let mut s = std::mem::replace(&mut self.heads[ring], NIL);
        self.occ_clear(ring);
        while s != NIL {
            let sl = &mut self.slots[s as usize];
            sl.loc = Loc::Current;
            self.current.push(Entry {
                time: sl.time,
                id: EventId {
                    seq: sl.seq,
                    slot: s,
                },
            });
            s = sl.next;
        }
    }

    /// Positions `drain` at the earliest live entry, advancing buckets
    /// as needed, and returns it (without consuming).
    fn settle_head(&mut self) -> Option<Entry> {
        if self.live == 0 {
            return None;
        }
        loop {
            if !self.sorted {
                self.current[self.drain..].sort_unstable();
                self.sorted = true;
            }
            while let Some(&e) = self.current.get(self.drain) {
                if self.is_pending(e.id) {
                    return Some(e);
                }
                self.drain += 1; // stale: cancelled (slot possibly reused)
            }
            self.advance();
        }
    }

    /// Consumes the entry [`EventQueue::settle_head`] just positioned.
    fn consume_head(&mut self, e: Entry) -> (SimTime, EventId, E) {
        self.drain += 1;
        (e.time, e.id, self.release(e.id.slot))
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
    /// previously popped events). The slab, the `current` vector and the
    /// overflow heap keep their capacity, so a recycled queue reaches
    /// steady state without reallocating; that capacity follows the
    /// largest pending set and the fullest bucket, not how many buckets
    /// were ever used.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free = NIL;
        self.live = 0;
        self.peak_live = 0;
        self.heads.fill(NIL);
        self.occ = [0; OCC_WORDS];
        self.cur_abs = 0;
        self.current.clear();
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

    /// Cancelling every event of a future bucket — from the middle, the
    /// tail and the head of its list — empties the list and clears its
    /// occupancy bit, so the cursor never gathers the cancelled events.
    #[test]
    fn cancel_unlinks_future_bucket_events() {
        let mut q = EventQueue::new();
        q.push(t(0), 0);
        // Linked at the head, so the list reads 3 → 2 → 1.
        let ids: Vec<_> = (1..=3).map(|i| q.push(t(1), i)).collect();
        q.push(t(2), 4);
        let ring = (bucket_of(t(1)) & BUCKET_MASK) as usize;
        for i in [1, 0, 2] {
            assert!(q.cancel(ids[i]));
        }
        assert_eq!(q.heads[ring], NIL);
        assert_eq!(q.occ[ring >> 6] & (1u64 << (ring & 63)), 0);
        assert_eq!(q.pop().unwrap().2, 0);
        assert_eq!(q.pop().unwrap().2, 4);
        assert_eq!(q.current.len(), 1, "only the live event reached `current`");
        assert!(q.pop().is_none());
    }

    /// A recycled queue keeps storage for its largest pending set, not
    /// for every bucket it ever filled: eight 1,000-event bursts into
    /// eight distinct buckets, each drained before the next.
    #[test]
    fn retained_storage_follows_the_pending_set() {
        let mut q = EventQueue::new();
        for k in 0..8u64 {
            // An anchor in the cursor's bucket, then a same-instant burst
            // in a later bucket of its own.
            q.push(t(10 * k), 0);
            for i in 0..1_000 {
                q.push(t(10 * k + 1), i);
            }
            while q.pop().is_some() {}
        }
        let peak = q.peak_len();
        q.clear();
        let kept = q.slots.capacity() + q.current.capacity() + q.overflow.capacity();
        assert!(kept <= 3 * peak, "kept {kept} entries for a peak of {peak}");
    }
}
