//! What one workload run hands back: values, output checks, and an exact
//! fingerprint of its counters.

use crate::metrics::Values;
use crate::trace::Tracer;

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// Stable check name, printed when it fails.
    pub name: &'static str,
    /// Whether the output passed.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

/// Everything a workload run produces.
pub struct Outcome {
    /// Measured units (simulated seconds, or worlds).
    pub units: u64,
    /// Wall ms of each untraced unit, in the order measured.
    pub unit_ms: Vec<f64>,
    /// Work of each of those units: engine events, or nodes of the world.
    pub unit_work: Vec<u64>,
    /// Mean wall ms of the host reference samples around each of those
    /// units.
    pub unit_ref_ms: Vec<f64>,
    /// End-to-end and per-layer values (the process-wide RSS is added by
    /// the caller).
    pub values: Values,
    /// Output checks, in the order they ran.
    pub checks: Vec<Check>,
    /// FNV-1a hash of every exact counter of the run.
    pub fingerprint: u64,
    /// One-line description of the workload configuration.
    pub config: String,
    /// The run's spans (empty when untraced).
    pub tracer: Tracer,
}

impl Outcome {
    /// Names of the failed checks.
    pub fn failed(&self) -> Vec<&'static str> {
        self.checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| c.name)
            .collect()
    }
}

/// Records a check.
pub fn check(checks: &mut Vec<Check>, name: &'static str, ok: bool, detail: String) {
    checks.push(Check { name, ok, detail });
}

/// FNV-1a over the bytes fed to it.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds `bytes` in.
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in the `Debug` rendering of `value` (every field of a
    /// counter struct, in declaration order).
    pub fn feed_debug(&mut self, value: &impl std::fmt::Debug) {
        self.feed(format!("{value:?}").as_bytes());
    }

    /// The hash so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// SplitMix64 of `seed` salted by `tag`: independent input streams per
/// purpose, all derived from the one `--seed`.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
