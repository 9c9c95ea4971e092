//! Differential property tests for the engine event queue: after *any*
//! interleaving of pushes and pops — due times spanning the due window,
//! the ring and the far-future overflow heap — the [`TimerWheel`] must
//! pop exactly the same sequence as a plain `BinaryHeap<Reverse<_>>`,
//! the test-only oracle, which itself must equal a global sort by
//! `(time, seq)`. A second property drives the wheel the way the
//! engine's window/barrier loop does, so every due source — the sorted
//! run, the ascending arrivals and the out-of-order heap — takes pushes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use qolsr_sim::queue::{QueueItem, TimerWheel};

/// A stand-in for the engine's scheduled event: ordered by
/// `(time, seq)`, like `Scheduled<M>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Item {
    time: u64,
    seq: u64,
}

impl QueueItem for Item {
    fn due_micros(&self) -> u64 {
        self.time
    }
}

/// One step of a queue history: enqueue an event some delay after the
/// current virtual time, or pop the next event (advancing time).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Delay in µs ahead of "now"; spans same-slot (0), in-ring
    /// (≤ ~8.4 s) and overflow (> 8.4 s) targets.
    Push(u64),
    Pop,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Push(0)),                             // same slot as "now"
        (0u64..2_000).prop_map(Op::Push),              // same or next slot
        (0u64..8_000_000).prop_map(Op::Push),          // ring
        (8_000_000u64..40_000_000).prop_map(Op::Push), // overflow
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

proptest! {
    #[test]
    fn wheel_equals_heap_on_arbitrary_histories(ops in proptest::collection::vec(op(), 1..400)) {
        let mut wheel = TimerWheel::new();
        let mut heap = BinaryHeap::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut popped_wheel = Vec::new();
        for op in ops {
            match op {
                Op::Push(delay) => {
                    let item = Item { time: now + delay, seq };
                    seq += 1;
                    wheel.push(item);
                    heap.push(Reverse(item));
                }
                Op::Pop => {
                    let a = wheel.pop();
                    let b = heap.pop().map(|Reverse(item)| item);
                    prop_assert_eq!(a, b, "pop divergence");
                    if let Some(item) = a {
                        // The engine's clock is monotone: events dispatch
                        // in order, so "now" follows the pop stream.
                        now = now.max(item.time);
                        popped_wheel.push(item);
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.next_due(), heap.peek().map(|Reverse(item)| item.time));
        }
        // Drain both; the combined pop stream must be globally sorted.
        loop {
            let (a, b) = (wheel.pop(), heap.pop().map(|Reverse(item)| item));
            prop_assert_eq!(a, b);
            match a {
                Some(item) => popped_wheel.push(item),
                None => break,
            }
        }
        let mut sorted = popped_wheel.clone();
        sorted.sort();
        prop_assert_eq!(&popped_wheel, &sorted, "pop stream must be the global sort");
    }
}

/// The engine's provisional sequence numbers: high bit set.
const PROVISIONAL: u64 = 1 << 63;

/// One step of an engine-shaped history.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A window and its barrier: pop everything due before
    /// `now + width`; for every `prov_every`-th popped item (never, at
    /// 0) that is not itself provisional, push a provisional timer
    /// `prov_delay` µs later when it lands inside the window, as a
    /// handler's in-window timer does. At the
    /// barrier, push `fanout` deliveries `delay` µs (plus jitter below
    /// `jitter` µs, when non-zero) after each popped item, in pop order:
    /// ascending bursts on a jitter-free radio, like the barrier's
    /// commits.
    Window {
        width: u64,
        fanout: u64,
        delay: u64,
        jitter: u64,
        prov_every: u64,
        prov_delay: u64,
    },
    /// A timer re-armed this far ahead of "now": same slot, ring or
    /// overflow.
    Push(u64),
    /// A push this far behind "now", behind the window.
    Behind(u64),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (
            1u64..2_000,
            0u64..4,
            (0u64..3_000, prop_oneof![Just(0u64), 1u64..3_000]),
            (0u64..4, 0u64..1_500),
        )
            .prop_map(
                |(width, fanout, (delay, jitter), (prov_every, prov_delay))| {
                    Step::Window {
                        width,
                        fanout,
                        delay,
                        jitter,
                        prov_every,
                        prov_delay,
                    }
                }
            ),
        (
            1u64..2_000,
            0u64..4,
            1_000u64..1_100,
            (0u64..4, 0u64..1_500),
        )
            .prop_map(
                |(width, fanout, delay, (prov_every, prov_delay))| Step::Window {
                    width,
                    fanout,
                    delay,
                    jitter: 0,
                    prov_every,
                    prov_delay,
                }
            ),
        (0u64..3_000).prop_map(Step::Push),
        (1_000_000u64..12_000_000).prop_map(Step::Push),
        (1u64..5_000).prop_map(Step::Behind),
    ]
}

/// The wheel and its oracle under one engine-shaped history.
struct Pair {
    wheel: TimerWheel<Item>,
    heap: BinaryHeap<Reverse<Item>>,
    seq: u64,
    provisional: u64,
}

impl Pair {
    fn push(&mut self, item: Item) {
        self.wheel.push(item);
        self.heap.push(Reverse(item));
    }

    fn push_exact(&mut self, time: u64) {
        let item = Item {
            time,
            seq: self.seq,
        };
        self.seq += 1;
        self.push(item);
    }

    /// Pops the next item due at or before `last` from both queues,
    /// failing on any divergence.
    fn pop_due_by(&mut self, last: u64) -> Result<Option<Item>, TestCaseError> {
        let a = self.wheel.pop_due_by(last);
        let b = match self.heap.peek() {
            Some(Reverse(item)) if item.time <= last => self.heap.pop().map(|Reverse(i)| i),
            _ => None,
        };
        prop_assert_eq!(a, b, "pop divergence");
        Ok(a)
    }
}

/// Bounds the queue so fan-out cannot grow it geometrically.
const MAX_QUEUED: usize = 2_000;

proptest! {
    #[test]
    fn wheel_equals_heap_on_window_barrier_histories(
        steps in proptest::collection::vec(step(), 1..120),
    ) {
        let mut q = Pair {
            wheel: TimerWheel::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            provisional: 0,
        };
        let mut now = 0u64;
        for t in 0..64 {
            q.push_exact(t * 700);
        }
        let mut popped = Vec::new();
        for step in steps {
            match step {
                Step::Window { width, fanout, delay, jitter, prov_every, prov_delay } => {
                    let end = now + width;
                    popped.clear();
                    while let Some(item) = q.pop_due_by(end - 1)? {
                        popped.push(item);
                        // Only exact items re-arm, so a window stays finite.
                        let at = item.time + prov_delay;
                        let exact = item.seq & PROVISIONAL == 0;
                        if exact && prov_every > 0 && (popped.len() as u64).is_multiple_of(prov_every) && at < end {
                            q.push(Item { time: at, seq: PROVISIONAL | q.provisional });
                            q.provisional += 1;
                        }
                    }
                    now = end;
                    q.provisional = 0;
                    for item in &popped {
                        for k in 0..fanout {
                            if q.heap.len() >= MAX_QUEUED {
                                break;
                            }
                            let jitter = match jitter {
                                0 => 0,
                                j => (q.seq ^ k).wrapping_mul(0x9E37_79B9_7F4A_7C15) % j,
                            };
                            q.push_exact(item.time + delay + jitter);
                        }
                    }
                }
                Step::Push(delay) => q.push_exact(now + delay),
                Step::Behind(back) => q.push_exact(now.saturating_sub(back)),
            }
            prop_assert_eq!(q.wheel.len(), q.heap.len());
            prop_assert_eq!(q.wheel.next_due(), q.heap.peek().map(|Reverse(item)| item.time));
        }
        while q.pop_due_by(u64::MAX)?.is_some() {}
        prop_assert!(q.wheel.is_empty());
    }
}
