//! Differential property tests for the engine event queue: after *any*
//! interleaving of pushes and pops — due times spanning the due window,
//! the ring and the far-future overflow heap — the [`TimerWheel`] must
//! pop exactly the same sequence as a plain `BinaryHeap<Reverse<_>>`,
//! the test-only oracle, which itself must equal a global sort by
//! `(time, seq)`.

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
