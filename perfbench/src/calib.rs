//! A fixed reference computation, timed next to every measured unit, so a
//! unit's wall time can be read at a nominal host speed.
//!
//! The host is shared: while co-tenants load it, the same run of
//! `flood-1000` takes up to 1.8 times as long. A sample does two fixed
//! jobs that feel the same contention as the simulator: it chases pointers
//! through a random cycle over a 32 MiB array (every hop misses the core's
//! caches and TLB), then makes millions of dependent-hash updates to a
//! 2 MiB table (core and L2 bound). It shares no code with the program, so
//! a faster program does not move it.
//!
//! The live workloads take a sample between every two quarter-second
//! engine steps and scale each step by the mean of the samples on either
//! side of it. On one `flood-1000` seed run four times back to back, the
//! raw wall ms per measured second ranged over 1524-2057 (12% coefficient
//! of variation) and the scaled figure over 1664-1778 (2.8%).
//! `paper-sweep` brackets each set-up and each world the same way. Over
//! ten seeds in one busy stretch of the host, that cut the spread
//! (interquartile range over median) of its set-up time from 17% to 7%
//! and of its wall ms per world from 10% to 6%.

use std::hint::black_box;
use std::time::Instant;

/// Array slots (32 MiB of `u32`).
const SLOTS: usize = 8 << 20;
/// Pointer hops per sample.
const HOPS: usize = 1 << 14;
/// Slots of the core-bound table (2 MiB of `u64`).
const TABLE: usize = 1 << 18;
/// Table updates per sample.
const UPDATES: usize = 1 << 21;
/// Wall ms of one sample on an idle 2-core Xeon host.
const NOMINAL_MS: f64 = 12.0;
/// Bytes of the reference's memory, all of it resident once the first
/// sample ran.
pub const RESIDENT_BYTES: u64 = (SLOTS * 4 + TABLE * 8) as u64;

/// `ms` measured next to a reference sample of `ref_ms`, scaled to the
/// nominal host speed.
pub fn adjust(ms: f64, ref_ms: f64) -> f64 {
    ms * NOMINAL_MS / ref_ms
}

/// The reference jobs' memory: one random cycle through every slot of
/// `next`, and the table the updates go to.
pub struct Reference {
    next: Vec<u32>,
    at: u32,
    table: Vec<u64>,
}

impl Reference {
    /// Builds the cycle (Sattolo's shuffle) from a fixed seed, so every
    /// run chases the same cycle.
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..SLOTS as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..SLOTS).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x % i as u64) as usize;
            next.swap(i, j);
        }
        Self {
            next,
            at: 0,
            table: vec![0; TABLE],
        }
    }

    /// Wall ms of one sample: `HOPS` dependent loads, then `UPDATES`
    /// table updates.
    pub fn sample_ms(&mut self) -> f64 {
        let started = Instant::now();
        let mut at = self.at;
        for _ in 0..HOPS {
            at = self.next[at as usize];
        }
        self.at = black_box(at);
        let mut x = u64::from(at) | 1;
        for _ in 0..UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[x as usize & (TABLE - 1)];
            *slot = slot.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ x;
        }
        black_box(&self.table);
        started.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_one_cycle_through_every_slot() {
        let r = Reference::new();
        let (mut at, mut steps) = (r.next[0], 1usize);
        while at != 0 {
            at = r.next[at as usize];
            steps += 1;
        }
        assert_eq!(steps, SLOTS);
    }
}
