//! Fault-injection scenario models: scheduled partitions, correlated
//! crash storms, and regional blackouts.
//!
//! These compose with the benign models (motion, churn, drift) through
//! the same [`ScenarioBuilder`](super::ScenarioBuilder) pipeline, so an
//! adversarial world is still a pure function of its generation seed.

use qolsr_graph::{DynamicTopology, NodeId, WorldEvent};

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

use super::{apply_recorded, sample_exponential, MobilityModel};

/// One scheduled network partition: at `at` the world splits along the
/// vertical line `x = cut` ([`WorldEvent::Partition`]); `heal_after`
/// later the cut heals ([`WorldEvent::Heal`]). Deterministic — the model
/// draws no randomness, so it can be replayed against analytic
/// expectations (the fault experiments key their recovery clocks off
/// these two instants).
#[derive(Debug, Clone)]
pub struct PartitionWindow {
    at: SimTime,
    cut: f64,
    heal_at: SimTime,
    /// 0 = partition pending, 1 = heal pending, 2 = done.
    phase: u8,
}

impl PartitionWindow {
    /// Creates the model: partition along `x = cut` at `at` (from
    /// scenario start), healing `heal_after` later.
    ///
    /// # Panics
    ///
    /// Panics if `cut` is not finite.
    pub fn new(at: SimDuration, cut: f64, heal_after: SimDuration) -> Self {
        assert!(cut.is_finite(), "partition cut must be finite");
        let at = SimTime::ZERO + at;
        Self {
            at,
            cut,
            heal_at: at + heal_after,
            phase: 0,
        }
    }
}

impl MobilityModel for PartitionWindow {
    fn name(&self) -> &'static str {
        "partition-window"
    }

    fn next_activation(&self) -> Option<SimTime> {
        match self.phase {
            0 => Some(self.at),
            1 => Some(self.heal_at),
            _ => None,
        }
    }

    fn activate(
        &mut self,
        _now: SimTime,
        world: &mut DynamicTopology,
        _rng: &mut SimRng,
    ) -> Vec<WorldEvent> {
        let mut events = Vec::new();
        match self.phase {
            0 => {
                apply_recorded(world, &mut events, WorldEvent::Partition { cut: self.cut });
                self.phase = 1;
            }
            1 => {
                apply_recorded(world, &mut events, WorldEvent::Heal);
                self.phase = 2;
            }
            _ => {}
        }
        events
    }
}

/// Correlated crash storms as a Poisson process: storms arrive
/// network-wide at `storm_rate` per second, and each storm instantly
/// reboots every active node independently with probability
/// `crash_ppm / 10⁶` ([`WorldEvent::Crash`] — full state wipe, no
/// downtime). A storm that draws no victim crashes one uniform active
/// node instead, so every storm bites.
#[derive(Debug, Clone)]
pub struct CrashStorm {
    storm_rate: f64,
    crash_ppm: u32,
    next_storm: Option<SimTime>,
}

impl CrashStorm {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `storm_rate` is not in `(0, 10⁴]` storms per second
    /// (the same inter-arrival truncation bound as
    /// [`PoissonChurn`](super::PoissonChurn)), or if `crash_ppm`
    /// exceeds `1_000_000`.
    pub fn new(storm_rate: f64, crash_ppm: u32) -> Self {
        assert!(
            storm_rate > 0.0 && storm_rate <= 1e4,
            "storm rate must be in (0, 1e4] per second"
        );
        assert!(crash_ppm <= 1_000_000, "crash_ppm is a probability in ppm");
        Self {
            storm_rate,
            crash_ppm,
            next_storm: None,
        }
    }

    fn mean_interarrival(&self) -> SimDuration {
        SimDuration::from_micros((1e6 / self.storm_rate) as u64)
    }
}

impl MobilityModel for CrashStorm {
    fn name(&self) -> &'static str {
        "crash-storm"
    }

    fn init(&mut self, _world: &DynamicTopology, rng: &mut SimRng) {
        self.next_storm = Some(SimTime::ZERO + sample_exponential(self.mean_interarrival(), rng));
    }

    fn next_activation(&self) -> Option<SimTime> {
        self.next_storm
    }

    fn activate(
        &mut self,
        now: SimTime,
        world: &mut DynamicTopology,
        rng: &mut SimRng,
    ) -> Vec<WorldEvent> {
        let mut events = Vec::new();
        if self.next_storm == Some(now) {
            let active: Vec<NodeId> = world.nodes().filter(|&n| world.is_active(n)).collect();
            let p = f64::from(self.crash_ppm) / 1e6;
            let mut hit = false;
            // Ascending node-id order keeps the draw sequence (and so
            // the whole schedule) independent of world representation.
            for &node in &active {
                if rng.next_f64() < p {
                    apply_recorded(world, &mut events, WorldEvent::Crash { node });
                    hit = true;
                }
            }
            if !hit && !active.is_empty() {
                let victim = active[rng.next_below(active.len() as u64) as usize];
                apply_recorded(world, &mut events, WorldEvent::Crash { node: victim });
            }
            self.next_storm = Some(now + sample_exponential(self.mean_interarrival(), rng));
        }
        events
    }
}

/// A one-shot regional blackout: at `at`, every active node strictly
/// west of `x = cut` (or east, with [`RegionalBlackout::east`])
/// crash-reboots simultaneously — the worst-case correlated failure a
/// shared power domain produces. Deterministic (no randomness).
#[derive(Debug, Clone)]
pub struct RegionalBlackout {
    at: Option<SimTime>,
    cut: f64,
    west: bool,
}

impl RegionalBlackout {
    /// Creates the model: at `at` (from scenario start) crash every
    /// active node with position `x < cut`.
    ///
    /// # Panics
    ///
    /// Panics if `cut` is not finite.
    pub fn new(at: SimDuration, cut: f64) -> Self {
        assert!(cut.is_finite(), "blackout cut must be finite");
        Self {
            at: Some(SimTime::ZERO + at),
            cut,
            west: true,
        }
    }

    /// Blacks out the east side (`x >= cut`) instead.
    pub fn east(mut self) -> Self {
        self.west = false;
        self
    }
}

impl MobilityModel for RegionalBlackout {
    fn name(&self) -> &'static str {
        "regional-blackout"
    }

    fn next_activation(&self) -> Option<SimTime> {
        self.at
    }

    fn activate(
        &mut self,
        _now: SimTime,
        world: &mut DynamicTopology,
        _rng: &mut SimRng,
    ) -> Vec<WorldEvent> {
        let mut events = Vec::new();
        let victims: Vec<NodeId> = world
            .nodes()
            .filter(|&n| world.is_active(n) && ((world.position(n).x < self.cut) == self.west))
            .collect();
        for node in victims {
            apply_recorded(world, &mut events, WorldEvent::Crash { node });
        }
        self.at = None;
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use qolsr_graph::{Point2, TopologyBuilder};
    use qolsr_metrics::LinkQos;

    fn line6() -> qolsr_graph::Topology {
        let mut b = TopologyBuilder::new(15.0);
        let ids: Vec<NodeId> = (0..6)
            .map(|i| b.add_node(Point2::new(i as f64 * 10.0, 0.0)))
            .collect();
        for w in ids.windows(2) {
            b.link(w[0], w[1], LinkQos::uniform(2)).unwrap();
        }
        b.build()
    }

    #[test]
    fn partition_window_emits_cut_then_heal() {
        let s = ScenarioBuilder::new(&line6(), 1)
            .with(PartitionWindow::new(
                SimDuration::from_secs(5),
                25.0,
                SimDuration::from_secs(10),
            ))
            .generate(SimDuration::from_secs(60));
        assert_eq!(s.len(), 2);
        let evs = s.events();
        assert_eq!(evs[0].at, SimTime::ZERO + SimDuration::from_secs(5));
        assert!(matches!(evs[0].event, WorldEvent::Partition { cut } if cut == 25.0));
        assert_eq!(evs[1].at, SimTime::ZERO + SimDuration::from_secs(15));
        assert!(matches!(evs[1].event, WorldEvent::Heal));
        let sum = s.summary();
        assert_eq!((sum.partitions, sum.heals), (1, 1));
    }

    #[test]
    fn partition_past_horizon_never_heals_in_schedule() {
        let s = ScenarioBuilder::new(&line6(), 1)
            .with(PartitionWindow::new(
                SimDuration::from_secs(5),
                25.0,
                SimDuration::from_secs(100),
            ))
            .generate(SimDuration::from_secs(30));
        assert_eq!(s.summary().partitions, 1);
        assert_eq!(s.summary().heals, 0);
    }

    #[test]
    fn crash_storms_are_seeded_and_always_bite() {
        let make = |seed| {
            ScenarioBuilder::new(&line6(), seed)
                .with(CrashStorm::new(0.5, 300_000))
                .generate(SimDuration::from_secs(60))
        };
        let s = make(7);
        assert!(s.summary().crashes > 0, "storms must crash nodes");
        assert_eq!(s.events(), make(7).events(), "seeded replay");
        // Even a vanishing per-node probability still crashes one
        // victim per storm.
        let tiny = ScenarioBuilder::new(&line6(), 3)
            .with(CrashStorm::new(1.0, 0))
            .generate(SimDuration::from_secs(30));
        let storms: Vec<SimTime> = tiny.events().iter().map(|te| te.at).collect();
        assert_eq!(
            tiny.summary().crashes as usize,
            storms.len(),
            "exactly one victim per storm at p = 0"
        );
        assert!(!storms.is_empty());
    }

    #[test]
    fn regional_blackout_crashes_exactly_one_side() {
        let s = ScenarioBuilder::new(&line6(), 1)
            .with(RegionalBlackout::new(SimDuration::from_secs(2), 25.0))
            .generate(SimDuration::from_secs(10));
        // Nodes at x = 0, 10, 20 are west of the cut.
        let crashed: Vec<NodeId> = s
            .events()
            .iter()
            .filter_map(|te| match te.event {
                WorldEvent::Crash { node } => Some(node),
                _ => None,
            })
            .collect();
        assert_eq!(crashed, vec![NodeId(0), NodeId(1), NodeId(2)]);
        let east = ScenarioBuilder::new(&line6(), 1)
            .with(RegionalBlackout::new(SimDuration::from_secs(2), 25.0).east())
            .generate(SimDuration::from_secs(10));
        assert_eq!(east.summary().crashes, 3);
    }
}
