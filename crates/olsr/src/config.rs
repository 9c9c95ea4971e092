//! Protocol configuration: RFC 3626 timing parameters plus the TC
//! dissemination scope policy, the link-quality knobs and the
//! data-plane transmit queue.

use qolsr_sim::stats::TC_RING_SLOTS;
use qolsr_sim::{SimDuration, TxQueueConfig};

/// One fisheye scope ring: messages aimed at this ring are emitted with
/// `ttl` as their initial TTL, every `every`-th TC-timer firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FisheyeRing {
    /// Initial TTL of TCs emitted into this ring — the ring's hop radius
    /// (the outermost ring of a configuration should use 255 so topology
    /// knowledge still reaches the whole network).
    pub ttl: u8,
    /// Interval multiplier: the ring is served every `every`-th firing of
    /// the TC timer (which keeps running at `tc_interval`). `1` means
    /// every firing.
    pub every: u32,
}

/// A validated fisheye ring table: up to [`TC_RING_SLOTS`] rings,
/// innermost first, with strictly increasing TTL bounds and
/// non-decreasing interval multipliers (the innermost ring fires on
/// every TC tick).
///
/// On each TC-timer firing the *outermost due* ring is served: tick 0
/// (and every tick divisible by the outer multipliers) floods full
/// radius, ticks in between emit cheap near-scope TCs. Nearby nodes
/// therefore see topology refreshes at the base `tc_interval` while
/// far-reaching floods — the dominant control cost at scale — happen
/// only every `every`-th interval.
///
/// # Examples
///
/// ```
/// use qolsr_proto::FisheyeRings;
///
/// let rings = FisheyeRings::default();
/// // Tick 0 serves the outermost (full-radius) ring …
/// assert_eq!(rings.ring_for_tick(0), (2, 255));
/// // … ticks in between serve the cheap near rings.
/// assert_eq!(rings.ring_for_tick(1), (0, 2));
/// assert_eq!(rings.ring_for_tick(2), (1, 8));
/// assert_eq!(rings.ring_for_tick(3), (2, 255));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FisheyeRings {
    rings: [FisheyeRing; TC_RING_SLOTS],
    len: u8,
}

impl FisheyeRings {
    /// Builds a validated ring table.
    ///
    /// # Errors
    ///
    /// Rejects empty tables, more than [`TC_RING_SLOTS`] rings, TTLs that
    /// are zero or not strictly increasing, a first ring that does not
    /// fire on every tick (`every != 1`), and interval multipliers that
    /// are zero or decrease outward.
    pub fn new(rings: &[FisheyeRing]) -> Result<Self, String> {
        if rings.is_empty() {
            return Err("fisheye scoping needs at least one ring".into());
        }
        if rings.len() > TC_RING_SLOTS {
            return Err(format!("at most {TC_RING_SLOTS} rings supported"));
        }
        if rings[0].every != 1 {
            return Err("the innermost ring must fire on every TC tick".into());
        }
        for (i, r) in rings.iter().enumerate() {
            if r.ttl == 0 {
                return Err("ring TTL must be at least 1".into());
            }
            if r.every == 0 {
                return Err("ring interval multiplier must be at least 1".into());
            }
            if i > 0 {
                if r.ttl <= rings[i - 1].ttl {
                    return Err("ring TTLs must be strictly increasing".into());
                }
                if r.every < rings[i - 1].every {
                    return Err("ring interval multipliers must not decrease".into());
                }
            }
        }
        let mut table = [rings[0]; TC_RING_SLOTS];
        table[..rings.len()].copy_from_slice(rings);
        Ok(Self {
            rings: table,
            len: rings.len() as u8,
        })
    }

    /// The configured rings, innermost first.
    pub fn rings(&self) -> &[FisheyeRing] {
        &self.rings[..self.len as usize]
    }

    /// The ring served on TC tick `tick` as `(ring index, initial TTL)`:
    /// the outermost ring whose interval multiplier divides the tick.
    /// Tick 0 always serves the outermost ring (a node's first TC floods
    /// full radius, so bootstrap convergence is not delayed).
    pub fn ring_for_tick(&self, tick: u32) -> (usize, u8) {
        let rings = self.rings();
        let i = rings
            .iter()
            .rposition(|r| tick.is_multiple_of(r.every))
            .expect("ring 0 fires every tick");
        (i, rings[i].ttl)
    }
}

impl Default for FisheyeRings {
    /// Three rings tuned to RFC-default hold times: 2-hop TCs every TC
    /// interval, 8-hop TCs every 2nd, full-radius floods every 3rd.
    /// With the default `validity_multiplier` of 3 the spacing between
    /// full floods (`3 × tc_interval` minus jitter) stays within the
    /// receivers' `topology_hold_time`, so far entries keep refreshing
    /// before they expire.
    fn default() -> Self {
        Self::new(&[
            FisheyeRing { ttl: 2, every: 1 },
            FisheyeRing { ttl: 8, every: 2 },
            FisheyeRing { ttl: 255, every: 3 },
        ])
        .expect("default rings are valid")
    }
}

/// TC dissemination scope policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TcScoping {
    /// RFC 3626 behaviour: every TC is emitted with TTL 255 at
    /// `tc_interval`. This is the differential reference the fisheye
    /// path is pinned against — under `Uniform` the protocol replays
    /// byte-identically to the pre-scoping implementation.
    #[default]
    Uniform,
    /// Fisheye-style scoped dissemination: the TC timer keeps firing at
    /// `tc_interval`, but each firing serves the outermost *due* ring of
    /// the table, so near-scope TCs go out at the base rate while
    /// full-radius floods are emitted only every `every`-th interval.
    Fisheye(FisheyeRings),
}

/// RFC 3626 §14 link-hysteresis parameters, in parts per million so the
/// config stays `Eq`. The shared per-link quality EWMA `q` is updated on
/// every HELLO arrival: one decay step `q ← q·(1−scaling)` per HELLO
/// inferred lost since the previous arrival (truncated observations —
/// only arrivals are seen, so misses are derived from the elapsed time),
/// then one gain step `q ← q·(1−scaling) + scaling` for the arrival
/// itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HysteresisParams {
    /// EWMA gain (RFC `HYST_SCALING`, default 0.5 → `500_000`).
    pub scaling_ppm: u32,
    /// A pending link becomes usable when its quality exceeds this
    /// threshold (RFC `HYST_THRESHOLD_HIGH`, default 0.8 → `800_000`).
    pub accept_ppm: u32,
    /// A usable link turns pending again when its quality falls below
    /// this threshold (RFC `HYST_THRESHOLD_LOW`, default 0.3 →
    /// `300_000`).
    pub reject_ppm: u32,
}

impl Default for HysteresisParams {
    fn default() -> Self {
        Self {
            scaling_ppm: 500_000,
            accept_ppm: 800_000,
            reject_ppm: 300_000,
        }
    }
}

/// RFC 3626 §14 link hysteresis: a pending→usable→pending state machine
/// over the per-link quality estimate, keeping flapping lossy links out
/// of the symmetric set (and therefore out of MPR selection, HELLO
/// symmetric listings, TC advertisements and routing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkHysteresis {
    /// No hysteresis (the differential reference): a link is usable as
    /// soon as the symmetry handshake completes — the protocol replays
    /// byte-identically to the pre-hysteresis implementation.
    #[default]
    Off,
    /// Quality-gated link admission with the given thresholds.
    On(HysteresisParams),
}

/// Parameters of the ETX-style link metric mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EtxParams {
    /// EWMA gain of the arrival estimator when hysteresis is `Off`
    /// (default 0.3 → `300_000`); when hysteresis is `On` its
    /// `scaling_ppm` drives the shared estimator instead, so the two
    /// features never disagree about a link's quality.
    pub scaling_ppm: u32,
}

impl Default for EtxParams {
    fn default() -> Self {
        Self {
            scaling_ppm: 300_000,
        }
    }
}

/// How measured link QoS is turned into the QoS the protocol advertises
/// and routes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkMetric {
    /// Ground-truth measured QoS, verbatim (the differential reference —
    /// pre-PHY behaviour).
    #[default]
    Measured,
    /// ETX/InvETX reshaping by the online delivery-probability estimate
    /// `q` (the same per-link EWMA hysteresis uses): bandwidth is scaled
    /// by `q²` (InvETX — the concave metric shrinks with the probability
    /// that a frame and its reverse traverse the link), delay is scaled
    /// by `1/q²` (ETX — the additive metric counts expected
    /// transmissions). Energy is left untouched.
    Etx(EtxParams),
}

/// The link-sensing knobs [`crate::tables::NeighborTables::process_hello`]
/// needs from the node configuration, bundled so the tables crate does
/// not depend on the full [`OlsrConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensingParams {
    /// The HELLO interval arrivals are expected at — the yardstick for
    /// inferring missed HELLOs from inter-arrival gaps.
    pub expected_interval: SimDuration,
    /// Hysteresis policy.
    pub hysteresis: LinkHysteresis,
    /// Link metric mapping.
    pub metric: LinkMetric,
}

impl Default for SensingParams {
    fn default() -> Self {
        OlsrConfig::default().sensing()
    }
}

impl SensingParams {
    /// The EWMA gain of the shared quality estimator: hysteresis's when
    /// on, otherwise ETX's, otherwise the RFC default (the estimate is
    /// then tracked but unused).
    pub fn quality_scaling_ppm(&self) -> u32 {
        match (self.hysteresis, self.metric) {
            (LinkHysteresis::On(h), _) => h.scaling_ppm,
            (LinkHysteresis::Off, LinkMetric::Etx(e)) => e.scaling_ppm,
            (LinkHysteresis::Off, LinkMetric::Measured) => HysteresisParams::default().scaling_ppm,
        }
    }
}

/// OLSR protocol configuration (RFC 3626 §18 timing defaults plus the
/// TC scoping, link-quality and transmit-queue knobs of this
/// implementation).
///
/// # Examples
///
/// ```
/// use qolsr_proto::{OlsrConfig, TcScoping};
/// use qolsr_sim::SimDuration;
///
/// let cfg = OlsrConfig::default();
/// assert_eq!(cfg.hello_interval, SimDuration::from_secs(2));
/// assert_eq!(cfg.neighbor_hold_time(), SimDuration::from_secs(6));
/// assert_eq!(cfg.tc_scoping, TcScoping::Uniform);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OlsrConfig {
    /// HELLO emission interval (RFC default 2 s).
    pub hello_interval: SimDuration,
    /// TC emission interval (RFC default 5 s).
    pub tc_interval: SimDuration,
    /// Validity multiplier: a tuple learned from a message is held for
    /// `multiplier × interval` (RFC default 3).
    pub validity_multiplier: u64,
    /// Maximum uniform jitter subtracted from each emission interval, as
    /// per RFC 3626 §18.1 (`MAXJITTER = interval / 4` by default).
    pub max_jitter: SimDuration,
    /// Interval of the table-expiry sweep.
    pub sweep_interval: SimDuration,
    /// TC dissemination scope policy (RFC-uniform by default).
    pub tc_scoping: TcScoping,
    /// RFC 3626 §14 link hysteresis (off by default — the differential
    /// reference admits links on the raw symmetry handshake).
    pub link_hysteresis: LinkHysteresis,
    /// Link metric mapping (measured QoS verbatim by default;
    /// [`LinkMetric::Etx`] reshapes it by the online delivery estimate).
    pub link_metric: LinkMetric,
    /// Data-plane transmit-queue parameters (capacity, service rate,
    /// initial data TTL). Inert until flows are installed on the node.
    pub traffic: TxQueueConfig,
}

impl Default for OlsrConfig {
    fn default() -> Self {
        Self {
            hello_interval: SimDuration::from_secs(2),
            tc_interval: SimDuration::from_secs(5),
            validity_multiplier: 3,
            max_jitter: SimDuration::from_millis(500),
            sweep_interval: SimDuration::from_secs(1),
            tc_scoping: TcScoping::Uniform,
            link_hysteresis: LinkHysteresis::Off,
            link_metric: LinkMetric::Measured,
            traffic: TxQueueConfig::default(),
        }
    }
}

impl OlsrConfig {
    /// How long neighbor/link/2-hop tuples learned from HELLOs stay valid.
    pub fn neighbor_hold_time(&self) -> SimDuration {
        self.hello_interval.saturating_mul(self.validity_multiplier)
    }

    /// How long topology tuples learned from TCs stay valid.
    pub fn topology_hold_time(&self) -> SimDuration {
        self.tc_interval.saturating_mul(self.validity_multiplier)
    }

    /// How long duplicate-set entries are retained (RFC default 30 s).
    pub fn duplicate_hold_time(&self) -> SimDuration {
        SimDuration::from_secs(30)
    }

    /// The link-sensing knobs
    /// [`crate::tables::NeighborTables::process_hello`] needs, bundled
    /// as one `Copy` value.
    pub fn sensing(&self) -> SensingParams {
        SensingParams {
            expected_interval: self.hello_interval,
            hysteresis: self.link_hysteresis,
            metric: self.link_metric,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_rfc() {
        let c = OlsrConfig::default();
        assert_eq!(c.tc_interval, SimDuration::from_secs(5));
        assert_eq!(c.topology_hold_time(), SimDuration::from_secs(15));
        assert_eq!(c.duplicate_hold_time(), SimDuration::from_secs(30));
        assert_eq!(c.tc_scoping, TcScoping::Uniform);
    }

    #[test]
    fn hold_times_scale_with_multiplier() {
        let c = OlsrConfig {
            validity_multiplier: 5,
            ..OlsrConfig::default()
        };
        assert_eq!(c.neighbor_hold_time(), SimDuration::from_secs(10));
    }

    #[test]
    fn fisheye_default_spacing_fits_default_hold_time() {
        let cfg = OlsrConfig::default();
        let rings = FisheyeRings::default();
        let outer = *rings.rings().last().unwrap();
        assert_eq!(outer.ttl, 255, "outermost ring floods full radius");
        let spacing = cfg.tc_interval.saturating_mul(u64::from(outer.every));
        assert!(
            spacing <= cfg.topology_hold_time(),
            "full floods must refresh far entries before they expire"
        );
    }

    #[test]
    fn ring_for_tick_picks_outermost_due_ring() {
        let rings = FisheyeRings::new(&[
            FisheyeRing { ttl: 2, every: 1 },
            FisheyeRing { ttl: 16, every: 2 },
            FisheyeRing { ttl: 255, every: 4 },
        ])
        .unwrap();
        let ttls: Vec<u8> = (0..8).map(|t| rings.ring_for_tick(t).1).collect();
        assert_eq!(ttls, vec![255, 2, 16, 2, 255, 2, 16, 2]);
        assert_eq!(rings.rings().len(), 3);
    }

    #[test]
    fn ring_validation_rejects_bad_tables() {
        let ok = |r: &[FisheyeRing]| FisheyeRings::new(r).is_ok();
        assert!(!ok(&[]));
        assert!(!ok(&[FisheyeRing { ttl: 0, every: 1 }]));
        assert!(!ok(&[FisheyeRing { ttl: 2, every: 2 }])); // inner must be every=1
        assert!(!ok(&[
            FisheyeRing { ttl: 5, every: 1 },
            FisheyeRing { ttl: 5, every: 2 }, // ttl not increasing
        ]));
        assert!(!ok(&[
            FisheyeRing { ttl: 2, every: 1 },
            FisheyeRing { ttl: 8, every: 3 },
            FisheyeRing { ttl: 255, every: 2 }, // multiplier decreases
        ]));
        assert!(!ok(&[
            FisheyeRing { ttl: 1, every: 1 },
            FisheyeRing { ttl: 2, every: 1 },
            FisheyeRing { ttl: 3, every: 1 },
            FisheyeRing { ttl: 4, every: 1 },
            FisheyeRing { ttl: 5, every: 1 }, // too many rings
        ]));
        assert!(ok(&[FisheyeRing { ttl: 255, every: 1 }]));
    }
}
