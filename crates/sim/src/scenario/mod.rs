//! Dynamic-topology scenarios: reusable mobility and churn models that
//! compile down to a deterministic schedule of [`WorldEvent`]s.
//!
//! The paper evaluates on static Poisson deployments; the OLSR-based QoS
//! evaluations it motivates (mobile ad-hoc networks) stress protocols
//! with motion and churn. This module closes that gap without giving up
//! reproducibility: a [`ScenarioBuilder`] composes [`MobilityModel`]s —
//! [`RandomWaypoint`] motion with radius-based link recomputation,
//! [`PoissonChurn`] node leave/rejoin, [`GaussMarkovDrift`] link-weight
//! drift — and *pre-generates* the world's entire evolution from a seed,
//! independent of anything the protocol under test does. The resulting
//! [`Scenario`] installs into a [`Simulator`], whose event queue
//! interleaves the world events with actor events in `(time, sequence)`
//! order.
//!
//! Because generation is offline and purely seed-driven, two runs with
//! equal seeds see byte-identical world evolutions regardless of the
//! protocol, the host, or how many worker threads an experiment harness
//! spreads runs over.
//!
//! # Examples
//!
//! ```
//! use qolsr_graph::deploy::{deploy, Deployment, UniformWeights};
//! use qolsr_sim::scenario::{RandomWaypoint, ScenarioBuilder};
//! use qolsr_sim::{SimDuration, SimRng};
//!
//! let mut rng = SimRng::seed_from_u64(7);
//! let deployment = Deployment { width: 300.0, height: 300.0, radius: 100.0, mean_degree: 8.0 };
//! let weights = UniformWeights::paper_defaults();
//! let topo = deploy(&deployment, &weights, &mut rng);
//!
//! let scenario = ScenarioBuilder::new(&topo, 42)
//!     .with(RandomWaypoint::new(
//!         (300.0, 300.0),
//!         SimDuration::from_secs(1),
//!         (5.0, 15.0),
//!         SimDuration::from_secs(2),
//!         weights,
//!     ))
//!     .generate(SimDuration::from_secs(10));
//! // Same seed, same world evolution.
//! let again = ScenarioBuilder::new(&topo, 42)
//!     .with(RandomWaypoint::new(
//!         (300.0, 300.0),
//!         SimDuration::from_secs(1),
//!         (5.0, 15.0),
//!         SimDuration::from_secs(2),
//!         weights,
//!     ))
//!     .generate(SimDuration::from_secs(10));
//! assert_eq!(scenario.events(), again.events());
//! ```

mod churn;
mod drift;
mod faults;
#[cfg(test)]
#[path = "../../tests/support/radius_oracle.rs"]
mod radius_oracle;
mod waypoint;

pub use churn::PoissonChurn;
pub use drift::GaussMarkovDrift;
pub use faults::{CrashStorm, PartitionWindow, RegionalBlackout};
pub use waypoint::RandomWaypoint;

use qolsr_graph::{DynamicTopology, Topology, WorldEvent};

use crate::engine::Actor;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::Simulator;

/// A world event stamped with its application time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// When the event applies.
    pub at: SimTime,
    /// The event.
    pub event: WorldEvent,
}

/// Per-kind event counts of a generated scenario (reporting/debugging).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSummary {
    /// Links that came up.
    pub link_ups: u64,
    /// Links that went down.
    pub link_downs: u64,
    /// Link-label drifts.
    pub qos_changes: u64,
    /// Node motion steps.
    pub moves: u64,
    /// Node (re)joins.
    pub joins: u64,
    /// Node departures.
    pub leaves: u64,
    /// Crash-reboot faults.
    pub crashes: u64,
    /// Partition cuts activated.
    pub partitions: u64,
    /// Partition heals.
    pub heals: u64,
}

/// A generated, immutable schedule of world events over a horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    events: Vec<TimedEvent>,
    horizon: SimDuration,
}

impl Scenario {
    /// The generated events, ascending by time (ties in generation order).
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the scenario schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The horizon the scenario was generated for.
    pub fn horizon(&self) -> SimDuration {
        self.horizon
    }

    /// Per-kind event counts.
    pub fn summary(&self) -> ScenarioSummary {
        let mut s = ScenarioSummary::default();
        for te in &self.events {
            match te.event {
                WorldEvent::LinkUp { .. } => s.link_ups += 1,
                WorldEvent::LinkDown { .. } => s.link_downs += 1,
                WorldEvent::QosChange { .. } => s.qos_changes += 1,
                WorldEvent::Move { .. } => s.moves += 1,
                WorldEvent::Join { .. } => s.joins += 1,
                WorldEvent::Leave { .. } => s.leaves += 1,
                WorldEvent::Crash { .. } => s.crashes += 1,
                WorldEvent::Partition { .. } => s.partitions += 1,
                WorldEvent::Heal => s.heals += 1,
            }
        }
        s
    }

    /// Schedules every event into `sim`'s world-event stream, starting at
    /// virtual time zero.
    pub fn install<A: Actor>(&self, sim: &mut Simulator<A>) {
        self.install_at(sim, SimTime::ZERO);
    }

    /// Schedules every event shifted to begin at `start` — the standard
    /// "warm up statically, then let the world move" pattern.
    pub fn install_at<A: Actor>(&self, sim: &mut Simulator<A>, start: SimTime) {
        let offset = start - SimTime::ZERO;
        sim.schedule_world_events(self.events.iter().map(|te| (te.at + offset, te.event)));
    }
}

/// A generator of world events, driven by the [`ScenarioBuilder`].
///
/// Models are *activated* at the times they announce; on activation they
/// inspect the evolving scratch world (positions, links, activity),
/// apply the events happening at that instant directly to it (via
/// [`apply_recorded`], which drops no-ops), and return the applied
/// events for the schedule. Applying immediately is what lets models
/// query the world's spatial index against *current* positions, and
/// later activations — of the same model or of others — see their
/// effects.
pub trait MobilityModel {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Called once before generation starts, with the initial world.
    fn init(&mut self, world: &DynamicTopology, rng: &mut SimRng) {
        let _ = (world, rng);
    }

    /// The time of this model's next activation, or `None` when done.
    fn next_activation(&self) -> Option<SimTime>;

    /// Applies this model's events at time `now` to `world`, returns
    /// them in application order, and advances the model's internal
    /// clock. Must only be called at the announced activation time, and
    /// must only return events that actually changed the world.
    fn activate(
        &mut self,
        now: SimTime,
        world: &mut DynamicTopology,
        rng: &mut SimRng,
    ) -> Vec<WorldEvent>;
}

/// Applies `ev` to `world`; if it changed anything, records it in
/// `events`. The one helper every [`MobilityModel`] — in-tree or
/// external — routes its output through, so "returned ⇔ applied and not
/// a no-op" holds by construction. Events returned from
/// [`MobilityModel::activate`] without having been applied corrupt the
/// scratch world (the builder does **not** apply them again).
pub fn apply_recorded(world: &mut DynamicTopology, events: &mut Vec<WorldEvent>, ev: WorldEvent) {
    if world.apply(&ev) {
        events.push(ev);
    }
}

/// Composes [`MobilityModel`]s into a deterministic [`Scenario`].
///
/// Generation is a discrete-event loop of its own: the earliest-activating
/// model runs (ties resolve in registration order), applies its events to
/// a scratch copy of the world — which keeps the world's spatial index
/// current for the model's own radius queries — and the loop repeats
/// until the horizon. No-op events (e.g. a link-up the world already has)
/// never enter the schedule.
pub struct ScenarioBuilder {
    world: DynamicTopology,
    models: Vec<Box<dyn MobilityModel>>,
    rng: SimRng,
}

impl ScenarioBuilder {
    /// Starts a builder over the initial topology with a generation seed.
    pub fn new(initial: &Topology, seed: u64) -> Self {
        Self {
            world: DynamicTopology::new(initial),
            models: Vec::new(),
            rng: SimRng::seed_from_u64(seed ^ 0x5CE9_A210_F00D_CAFE),
        }
    }

    /// Adds a model. Registration order breaks activation-time ties and
    /// is part of the deterministic contract.
    pub fn with(mut self, model: impl MobilityModel + 'static) -> Self {
        self.models.push(Box::new(model));
        self
    }

    /// Generates the schedule for `horizon` of virtual time.
    pub fn generate(mut self, horizon: SimDuration) -> Scenario {
        let end = SimTime::ZERO + horizon;
        for model in &mut self.models {
            model.init(&self.world, &mut self.rng);
        }
        let mut events: Vec<TimedEvent> = Vec::new();
        loop {
            let next = self
                .models
                .iter()
                .enumerate()
                .filter_map(|(i, m)| m.next_activation().map(|t| (t, i)))
                .min();
            let Some((at, idx)) = next else { break };
            if at > end {
                break;
            }
            let produced = self.models[idx].activate(at, &mut self.world, &mut self.rng);
            events.extend(produced.into_iter().map(|event| TimedEvent { at, event }));
        }
        Scenario { events, horizon }
    }
}

/// Draws `Exp(mean)` virtual time via inverse transform (`1 - u` avoids
/// `ln(0)`), clamped to at least one microsecond so inter-arrival draws
/// always advance the virtual clock (a zero draw would re-activate a
/// model at the same instant forever).
pub(crate) fn sample_exponential(mean: SimDuration, rng: &mut SimRng) -> SimDuration {
    let u = rng.next_f64();
    let secs = -(1.0 - u).ln() * mean.as_secs_f64();
    SimDuration::from_micros(((secs * 1e6) as u64).max(1))
}

/// Draws a standard normal via Box–Muller.
pub(crate) fn sample_standard_normal(rng: &mut SimRng) -> f64 {
    let u1 = 1.0 - rng.next_f64(); // (0, 1]
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qolsr_graph::deploy::UniformWeights;
    use qolsr_graph::{NodeId, Point2, TopologyBuilder};
    use qolsr_metrics::LinkQos;

    fn grid4() -> Topology {
        let mut b = TopologyBuilder::new(12.0);
        let ids: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(Point2::new((i % 2) as f64 * 10.0, (i / 2) as f64 * 10.0)))
            .collect();
        for (a, c) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.link(ids[a], ids[c], LinkQos::uniform(3)).unwrap();
        }
        b.build()
    }

    #[test]
    fn empty_builder_generates_nothing() {
        let s = ScenarioBuilder::new(&grid4(), 1).generate(SimDuration::from_secs(10));
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.summary(), ScenarioSummary::default());
    }

    #[test]
    fn churn_scenario_is_seed_deterministic() {
        let make = |seed| {
            ScenarioBuilder::new(&grid4(), seed)
                .with(PoissonChurn::new(
                    0.5,
                    SimDuration::from_secs(3),
                    UniformWeights::paper_defaults(),
                ))
                .generate(SimDuration::from_secs(30))
        };
        assert_eq!(make(9).events(), make(9).events());
        assert_ne!(
            make(9).events(),
            make(10).events(),
            "different seeds should differ"
        );
    }

    #[test]
    fn events_are_time_ordered() {
        let s = ScenarioBuilder::new(&grid4(), 3)
            .with(PoissonChurn::new(
                1.0,
                SimDuration::from_secs(2),
                UniformWeights::paper_defaults(),
            ))
            .with(GaussMarkovDrift::new(
                SimDuration::from_secs(1),
                0.8,
                (1, 10),
                1.5,
            ))
            .generate(SimDuration::from_secs(20));
        assert!(!s.is_empty());
        for pair in s.events().windows(2) {
            assert!(pair[0].at <= pair[1].at, "events out of order");
        }
    }

    #[test]
    fn exponential_sampling_is_positive_with_sane_mean() {
        let mut rng = SimRng::seed_from_u64(4);
        let mean = SimDuration::from_secs(5);
        let n = 2_000;
        let total: u64 = (0..n)
            .map(|_| sample_exponential(mean, &mut rng).as_micros())
            .sum();
        let empirical = total as f64 / n as f64 / 1e6;
        assert!(
            (empirical - 5.0).abs() < 0.5,
            "empirical mean {empirical} too far from 5"
        );
    }

    #[test]
    fn normal_sampling_is_roughly_standard() {
        let mut rng = SimRng::seed_from_u64(11);
        let n = 4_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.15, "variance {var}");
    }
}
