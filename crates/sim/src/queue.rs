//! The event queue of the discrete-event engine.
//!
//! The engine's dominant event classes are short-horizon: periodic
//! HELLO/TC/sweep timers (≤ a few seconds ahead) and radio deliveries
//! (milliseconds ahead). A comparison-based [`BinaryHeap`] pays
//! `O(log n)` pointer-chasing per push/pop on a heap whose size grows
//! with the node count; the [`TimerWheel`] here replaces that hot path
//! with `O(1)` bucket inserts into a slotted ring and pops from sorted
//! runs, falling back to a heap only for out-of-order or far-future
//! events.
//!
//! The wheel pops in **exactly** the total order of the item's `Ord`
//! (the engine orders by `(time, seq)`) — the order a plain
//! `BinaryHeap<Reverse<_>>` pops in. The `queue_properties` suite pins
//! the two equal on arbitrary push/pop histories and on engine-shaped
//! window/barrier histories, and `tests/scheduler_differential.rs`
//! replays whole-network runs recorded when the engine still offered
//! the heap as a scheduler.
//!
//! # Structure
//!
//! Every queued item with `time < due_end` — the slot window currently
//! being consumed — sits in one of three sorted sources, and a pop takes
//! the smallest of their three heads:
//!
//! * the **run**: the slot drained when the window last advanced,
//!   sorted once and popped from its end;
//! * the **arrivals** deque: every push behind `due_end` that is not
//!   below the deque's last item. The engine's barrier commits in
//!   global `(time, seq)` order and, on a jitter-free radio, hands out
//!   delivery times in that order too, so a barrier's deliveries arrive
//!   ascending. They land behind `due_end` because the window's last
//!   look ahead drained the slot that holds the window end. Counted
//!   over whole benchmark runs (`perfbench`, seed 1, `--seconds 20`),
//!   that was 26.8 M of 29.0 M pushes on `flood-1000` and 3.65 M of
//!   6.58 M on `mobile-traffic-500`;
//! * the **due heap**, for the pushes behind `due_end` that arrive out
//!   of order: provisional in-window timers, jittered deliveries and
//!   pushes behind the window. In the same runs it took no push on
//!   `flood-1000` and 11 387 on `mobile-traffic-500`.
//!
//! Beyond `due_end`:
//!
//! * a **ring** of `N_SLOTS` buckets, each `SLOT_US` µs wide, covering
//!   the next `SPAN_US` µs after `due_end`. Inserts hash by time,
//!   `O(1)`; an occupancy bitmap lets the consumer skip empty slots
//!   word-at-a-time;
//! * an **overflow heap** for items beyond the ring horizon. Whenever
//!   the window advances, matured overflow items are re-filed into the
//!   ring.
//!
//! The window advances only when all three due sources are empty.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Slot width exponent: each ring slot covers `2^10` µs ≈ 1 ms.
const SLOT_BITS: u32 = 10;
/// Width of one ring slot in microseconds.
const SLOT_US: u64 = 1 << SLOT_BITS;
/// Number of ring slots.
const N_SLOTS: usize = 8192;
/// Occupancy bitmap words.
const N_WORDS: usize = N_SLOTS / 64;
/// Ring horizon: the wheel covers `[due_end, due_end + SPAN_US)`.
/// One slot short of the full ring so absolute slot indices stay
/// unambiguous modulo [`N_SLOTS`].
const SPAN_US: u64 = ((N_SLOTS as u64) - 1) << SLOT_BITS;
/// Capacity a drained slot keeps. Busy simulations put tens of
/// thousands of deliveries into a single 1 ms slot; without this cap
/// every slot would eventually retain its peak-burst capacity and the
/// wheel's footprint would approach `N_SLOTS × peak` (gigabytes at
/// n = 4000). A small retained buffer keeps the common refill
/// allocation-free while bounding idle memory to `N_SLOTS × 32` items.
const SLOT_RETAIN: usize = 32;

/// An item schedulable on a [`TimerWheel`].
///
/// `Ord` must be a total order consistent with `due_micros` (items
/// compare by due time first); the engine uses `(time, seq)`.
pub trait QueueItem: Ord {
    /// Absolute due instant in microseconds of virtual time.
    fn due_micros(&self) -> u64;
}

/// The engine's scheduler. It has one value, the [`TimerWheel`], and
/// stays only because the benchmark harness in `perfbench/` passes
/// `SchedulerKind::default()` to `OlsrNetwork::with_exec`, whose
/// signature therefore keeps the parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// The slotted [`TimerWheel`]: `O(1)` inserts for the
    /// periodic-timer/delivery hot path, heap fallback for far-future
    /// events.
    #[default]
    TimerWheel,
}

/// The slotted timer wheel. See the [module docs](self) for the
/// design; pops yield items in exact ascending `Ord` order.
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// The drained slot, sorted descending: its smallest item is last.
    /// Kept between drains so its allocation is reused.
    run: Vec<T>,
    /// Pushes behind `due_end`, each not below the one before it.
    arrivals: VecDeque<T>,
    /// Pushes behind `due_end` below the last item of `arrivals`.
    due: BinaryHeap<Reverse<T>>,
    /// Exclusive upper bound (µs) of the due window; always a slot
    /// boundary.
    due_end: u64,
    /// The ring: slot `(t >> SLOT_BITS) % N_SLOTS` holds items due in
    /// `[due_end, due_end + SPAN_US)`.
    slots: Box<[Vec<T>]>,
    /// One bit per slot: set iff the slot is non-empty. Boxed so the
    /// wheel stays small by value.
    occupied: Box<[u64; N_WORDS]>,
    /// Items currently stored in ring slots.
    ring_len: usize,
    /// Items due at or beyond the ring horizon.
    overflow: BinaryHeap<Reverse<T>>,
    /// Total queued items.
    len: usize,
}

/// The due source holding the smallest queued item.
#[derive(Clone, Copy)]
enum Head {
    Run,
    Arrivals,
    Due,
}

impl<T: QueueItem> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: QueueItem> TimerWheel<T> {
    /// Creates an empty wheel with the due window starting at time 0.
    pub fn new() -> Self {
        Self {
            run: Vec::new(),
            arrivals: VecDeque::new(),
            due: BinaryHeap::new(),
            due_end: SLOT_US,
            slots: (0..N_SLOTS).map(|_| Vec::new()).collect(),
            occupied: Box::new([0; N_WORDS]),
            ring_len: 0,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues an item. Items due before the current window join the
    /// due sources, so even out-of-window inserts stay ordered.
    pub fn push(&mut self, item: T) {
        let t = item.due_micros();
        self.len += 1;
        if t < self.due_end {
            self.push_due(item);
        } else if t - self.due_end < SPAN_US {
            self.ring_insert(item);
        } else {
            self.overflow.push(Reverse(item));
        }
    }

    /// Removes and returns the globally smallest item.
    pub fn pop(&mut self) -> Option<T> {
        let (head, _) = self.head()?;
        Some(self.take(head))
    }

    /// Removes and returns the globally smallest item if it is due at
    /// or before `last` (µs); otherwise leaves the queue as it is.
    pub fn pop_due_by(&mut self, last: u64) -> Option<T> {
        let (head, due) = self.head()?;
        (due <= last).then(|| self.take(head))
    }

    /// Due instant of the smallest queued item, without removing it.
    /// May advance internal cursors (never changes queue content).
    pub fn next_due(&mut self) -> Option<u64> {
        self.head().map(|(_, due)| due)
    }

    /// Advances the window until the due sources hold the global
    /// minimum, then names the source whose head it is and its due
    /// instant. `None` when the whole queue is empty.
    fn head(&mut self) -> Option<(Head, u64)> {
        if !self.advance_to_due() {
            return None;
        }
        let mut best = self.run.last().map(|item| (Head::Run, item));
        if let Some(item) = self.arrivals.front() {
            if best.is_none_or(|(_, b)| item < b) {
                best = Some((Head::Arrivals, item));
            }
        }
        if let Some(Reverse(item)) = self.due.peek() {
            if best.is_none_or(|(_, b)| item < b) {
                best = Some((Head::Due, item));
            }
        }
        best.map(|(head, item)| (head, item.due_micros()))
    }

    /// Removes the head of a non-empty due source.
    fn take(&mut self, head: Head) -> T {
        self.len -= 1;
        match head {
            Head::Run => self.run.pop(),
            Head::Arrivals => self.arrivals.pop_front(),
            Head::Due => self.due.pop().map(|Reverse(item)| item),
        }
        .expect("head names a non-empty source")
    }

    /// Files an item due before `due_end`: at the back of the arrivals
    /// when it keeps them ascending, into the due heap otherwise.
    fn push_due(&mut self, item: T) {
        if self.arrivals.back().is_none_or(|last| *last <= item) {
            self.arrivals.push_back(item);
        } else {
            self.due.push(Reverse(item));
        }
    }

    fn ring_insert(&mut self, item: T) {
        let idx = ((item.due_micros() >> SLOT_BITS) as usize) % N_SLOTS;
        if self.slots[idx].is_empty() {
            self.occupied[idx / 64] |= 1u64 << (idx % 64);
        }
        self.slots[idx].push(item);
        self.ring_len += 1;
    }

    /// Moves matured overflow items (now within the ring horizon) into
    /// the ring or the due sources.
    fn refill_from_overflow(&mut self) {
        while let Some(Reverse(top)) = self.overflow.peek() {
            let t = top.due_micros();
            if t >= self.due_end && t - self.due_end >= SPAN_US {
                break;
            }
            let Reverse(item) = self.overflow.pop().expect("peeked");
            if t < self.due_end {
                self.push_due(item);
            } else {
                self.ring_insert(item);
            }
        }
    }

    /// Distance (in slots, 0-based) from `start` to the next occupied
    /// slot, scanning the bitmap cyclically. Caller guarantees
    /// `ring_len > 0`.
    fn next_occupied_distance(&self, start: usize) -> usize {
        let word0 = start / 64;
        let bit0 = start % 64;
        let masked = self.occupied[word0] & (u64::MAX << bit0);
        if masked != 0 {
            return masked.trailing_zeros() as usize - bit0;
        }
        for k in 1..=N_WORDS {
            let w = self.occupied[(word0 + k) % N_WORDS];
            if w != 0 {
                return k * 64 - bit0 + w.trailing_zeros() as usize;
            }
        }
        unreachable!("ring_len > 0 but no occupied slot");
    }

    /// Advances the due window until a due source is non-empty. Returns
    /// `false` when the whole queue is empty.
    fn advance_to_due(&mut self) -> bool {
        loop {
            if !(self.run.is_empty() && self.arrivals.is_empty() && self.due.is_empty()) {
                return true;
            }
            if self.ring_len == 0 {
                let Some(Reverse(top)) = self.overflow.peek() else {
                    return false;
                };
                // Jump the window straight to the overflow head's slot;
                // everything queued is at or beyond it.
                self.due_end = (top.due_micros() >> SLOT_BITS) << SLOT_BITS;
                self.refill_from_overflow();
                continue;
            }
            // Skip to the next occupied slot and drain it into the run;
            // its whole window moves behind `due_end`.
            let start = ((self.due_end >> SLOT_BITS) as usize) % N_SLOTS;
            let d = self.next_occupied_distance(start);
            let idx = (start + d) % N_SLOTS;
            self.due_end += (d as u64 + 1) << SLOT_BITS;
            self.occupied[idx / 64] &= !(1u64 << (idx % 64));
            self.ring_len -= self.slots[idx].len();
            let slot = &mut self.slots[idx];
            // A slot fills in push order, mostly ascending runs; reversed,
            // they are mostly the descending order the run pops from.
            self.run.extend(slot.drain(..).rev());
            self.run.sort_unstable_by(|a, b| b.cmp(a));
            if slot.capacity() > SLOT_RETAIN {
                slot.shrink_to(SLOT_RETAIN);
            }
            self.refill_from_overflow();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Clone, Copy)]
    struct Item(u64, u64); // (time, seq)

    impl QueueItem for Item {
        fn due_micros(&self) -> u64 {
            self.0
        }
    }

    fn drain(q: &mut TimerWheel<Item>) -> Vec<Item> {
        let mut out = Vec::new();
        while let Some(item) = q.pop() {
            out.push(item);
        }
        out
    }

    #[test]
    fn wheel_pops_sorted() {
        let mut q = TimerWheel::new();
        let items = [
            Item(5_000_000, 3),
            Item(0, 0),
            Item(1_000, 1),
            Item(1_000, 2),
            Item(123_456_789, 4), // beyond ring horizon → overflow
            Item(2_000_000, 5),
        ];
        for it in items {
            q.push(it);
        }
        let mut expect = items.to_vec();
        expect.sort();
        assert_eq!(drain(&mut q), expect);
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_matches_heap_under_interleaving() {
        let mut wheel = TimerWheel::new();
        let mut heap = BinaryHeap::new();
        let mut t = 0u64;
        // Pseudo-random push/pop interleaving with a deterministic LCG.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for seq in 0..2_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(seq);
            let delay = state % 9_000_000; // up to 9 s ahead — exercises overflow
            let item = Item(t + delay, seq);
            wheel.push(item);
            heap.push(Reverse(item));
            if state.is_multiple_of(3) {
                let a = wheel.pop();
                let b = heap.pop().map(|Reverse(item)| item);
                assert_eq!(a, b);
                if let Some(it) = a {
                    t = t.max(it.0);
                }
            }
        }
        assert_eq!(wheel.len(), heap.len());
        loop {
            let (a, b) = (wheel.pop(), heap.pop().map(|Reverse(item)| item));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn next_due_reports_minimum_without_consuming() {
        let mut q = TimerWheel::new();
        q.push(Item(50_000_000, 1)); // far future: overflow
        assert_eq!(q.next_due(), Some(50_000_000));
        assert_eq!(q.len(), 1);
        q.push(Item(700, 2));
        assert_eq!(q.next_due(), Some(700));
        assert_eq!(q.pop(), Some(Item(700, 2)));
        assert_eq!(q.pop(), Some(Item(50_000_000, 1)));
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn same_slot_items_order_by_seq() {
        let mut q = TimerWheel::new();
        // All in one slot window, pushed out of order.
        q.push(Item(2_000_000, 9));
        q.push(Item(2_000_000, 1));
        q.push(Item(2_000_100, 0));
        assert_eq!(
            drain(&mut q),
            vec![Item(2_000_000, 1), Item(2_000_000, 9), Item(2_000_100, 0)]
        );
    }

    #[test]
    fn behind_window_ties_pop_by_seq() {
        let mut q = TimerWheel::new();
        q.push(Item(10_000, 0));
        assert_eq!(q.pop(), Some(Item(10_000, 0)));
        // Both due before the window end, equal times, descending seqs:
        // the second may not join the arrivals behind the first.
        q.push(Item(10_100, 7));
        q.push(Item(10_100, 3));
        q.push(Item(10_200, 1));
        assert_eq!(
            drain(&mut q),
            vec![Item(10_100, 3), Item(10_100, 7), Item(10_200, 1)]
        );
    }

    #[test]
    fn push_behind_window_is_still_ordered() {
        let mut q = TimerWheel::new();
        q.push(Item(10_000_000, 0));
        assert_eq!(q.pop(), Some(Item(10_000_000, 0)));
        // The window advanced past 10 s; a (hypothetical) earlier push
        // must still pop before later ones.
        q.push(Item(11_000_000, 2));
        q.push(Item(10_000_001, 1));
        assert_eq!(q.pop(), Some(Item(10_000_001, 1)));
        assert_eq!(q.pop(), Some(Item(11_000_000, 2)));
    }
}
