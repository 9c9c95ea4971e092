//! Poisson node churn: exponential leave arrivals, exponential downtimes.

use std::collections::BTreeMap;

use qolsr_graph::deploy::UniformWeights;
use qolsr_graph::{DynamicTopology, NodeId, WorldEvent};

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

use super::{apply_recorded, sample_exponential, MobilityModel};

/// Node churn as a Poisson process: departures arrive network-wide at
/// `leave_rate` per second (each hitting a uniformly random active node),
/// and a departed node rejoins after an exponential downtime with mean
/// `mean_downtime`. On rejoin the node reconnects to every active node
/// within the communication radius — discovered through the world's
/// shared [`SpatialGrid`] index — with freshly drawn link labels.
///
/// [`SpatialGrid`]: qolsr_graph::SpatialGrid
#[derive(Debug, Clone)]
pub struct PoissonChurn {
    leave_rate: f64,
    mean_downtime: SimDuration,
    weights: UniformWeights,
    next_leave: Option<SimTime>,
    /// Pending rejoins: `time -> nodes` (BTreeMap keeps them ordered).
    rejoins: BTreeMap<SimTime, Vec<NodeId>>,
}

impl PoissonChurn {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `leave_rate` is not in `(0, 10⁴]` departures per second
    /// (higher rates would truncate the mean inter-arrival below the
    /// microsecond clock resolution and stall scenario generation).
    pub fn new(leave_rate: f64, mean_downtime: SimDuration, weights: UniformWeights) -> Self {
        assert!(
            leave_rate > 0.0 && leave_rate <= 1e4,
            "leave rate must be in (0, 1e4] per second"
        );
        Self {
            leave_rate,
            mean_downtime,
            weights,
            next_leave: None,
            rejoins: BTreeMap::new(),
        }
    }

    fn mean_interarrival(&self) -> SimDuration {
        SimDuration::from_micros((1e6 / self.leave_rate) as u64)
    }
}

impl MobilityModel for PoissonChurn {
    fn name(&self) -> &'static str {
        "poisson-churn"
    }

    fn init(&mut self, _world: &DynamicTopology, rng: &mut SimRng) {
        self.next_leave = Some(SimTime::ZERO + sample_exponential(self.mean_interarrival(), rng));
    }

    fn next_activation(&self) -> Option<SimTime> {
        let rejoin = self.rejoins.keys().next().copied();
        match (self.next_leave, rejoin) {
            (Some(l), Some(r)) => Some(l.min(r)),
            (l, r) => l.or(r),
        }
    }

    fn activate(
        &mut self,
        now: SimTime,
        world: &mut DynamicTopology,
        rng: &mut SimRng,
    ) -> Vec<WorldEvent> {
        let mut events = Vec::new();

        // Rejoins due at this instant: join plus radius links. Each Join
        // applies to `world` immediately, so nodes rejoining at the same
        // instant see each other as active and link up. Candidates come
        // in ascending id order, the order link labels are drawn in.
        if let Some(nodes) = self.rejoins.remove(&now) {
            let r = world.radius();
            for node in nodes {
                apply_recorded(world, &mut events, WorldEvent::Join { node });
                for other in world.nodes_within(world.position(node), r) {
                    if other != node && world.is_active(other) {
                        let qos = self.weights.sample(rng);
                        apply_recorded(
                            world,
                            &mut events,
                            WorldEvent::LinkUp {
                                a: node,
                                b: other,
                                qos,
                            },
                        );
                    }
                }
            }
        }

        // A departure due at this instant hits a uniform active node
        // (same-instant rejoiners are back in the draw).
        if self.next_leave == Some(now) {
            let active: Vec<NodeId> = world.nodes().filter(|&n| world.is_active(n)).collect();
            if !active.is_empty() {
                let victim = active[rng.next_below(active.len() as u64) as usize];
                apply_recorded(world, &mut events, WorldEvent::Leave { node: victim });
                let back = now + sample_exponential(self.mean_downtime, rng);
                self.rejoins.entry(back).or_default().push(victim);
            }
            self.next_leave = Some(now + sample_exponential(self.mean_interarrival(), rng));
        }

        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{radius_oracle, ScenarioBuilder};
    use qolsr_graph::{Point2, TopologyBuilder};
    use qolsr_metrics::LinkQos;

    fn clique5() -> qolsr_graph::Topology {
        let mut b = TopologyBuilder::new(50.0);
        let ids: Vec<NodeId> = (0..5)
            .map(|i| b.add_node(Point2::new(i as f64 * 10.0, 0.0)))
            .collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                if (ids[i].0 as i64 - ids[j].0 as i64).unsigned_abs() * 10 <= 50 {
                    b.link(ids[i], ids[j], LinkQos::uniform(2)).unwrap();
                }
            }
        }
        b.build()
    }

    fn scenario(seed: u64, rate: f64) -> crate::scenario::Scenario {
        ScenarioBuilder::new(&clique5(), seed)
            .with(PoissonChurn::new(
                rate,
                SimDuration::from_secs(4),
                UniformWeights::paper_defaults(),
            ))
            .generate(SimDuration::from_secs(60))
    }

    #[test]
    fn leaves_and_rejoins_happen() {
        let s = scenario(1, 0.5);
        let summary = s.summary();
        assert!(summary.leaves > 0, "no churn generated: {summary:?}");
        assert!(summary.joins > 0, "departed nodes must come back");
        assert!(
            summary.link_ups > 0,
            "rejoining nodes must relink: {summary:?}"
        );
    }

    #[test]
    fn rejoin_links_respect_radius() {
        let s = scenario(2, 1.0);
        let mut world = qolsr_graph::DynamicTopology::new(&clique5());
        for te in s.events() {
            if let WorldEvent::LinkUp { a, b, .. } = te.event {
                let d = world.position(a).distance(world.position(b));
                assert!(d <= world.radius() + 1e-9, "rejoin link out of range");
            }
            world.apply(&te.event);
        }
        // Not only in range: each rejoin links *every* active node in
        // range.
        let events = s.events().iter().map(|te| (te.at.as_micros(), te.event));
        let checks = radius_oracle::assert_radius_consistent(&clique5(), events, None);
        assert_eq!(checks as u64, s.summary().joins);
    }

    #[test]
    fn same_instant_rejoins_link_to_each_other() {
        use crate::time::SimTime;
        use qolsr_graph::DynamicTopology;

        let mut world = DynamicTopology::new(&clique5());
        world.apply(&WorldEvent::Leave { node: NodeId(0) });
        world.apply(&WorldEvent::Leave { node: NodeId(1) });

        let mut model = PoissonChurn::new(
            0.001,
            SimDuration::from_secs(1),
            UniformWeights::paper_defaults(),
        );
        let at = SimTime::ZERO + SimDuration::from_secs(5);
        model
            .rejoins
            .entry(at)
            .or_default()
            .extend([NodeId(0), NodeId(1)]);
        model.next_leave = Some(SimTime::ZERO + SimDuration::from_secs(1_000));

        let mut rng = SimRng::seed_from_u64(1);
        let events = model.activate(at, &mut world, &mut rng);
        assert!(!events.is_empty(), "rejoins must produce events");
        assert!(world.is_active(NodeId(0)) && world.is_active(NodeId(1)));
        assert!(
            world.has_link(NodeId(0), NodeId(1)),
            "nodes rejoining at the same instant within range must link"
        );
    }

    #[test]
    #[should_panic(expected = "leave rate must be in")]
    fn absurd_leave_rate_rejected() {
        // Above the clock resolution the mean inter-arrival truncates to
        // zero and generation would stall; reject at construction.
        let _ = PoissonChurn::new(
            2_000_000.0,
            SimDuration::from_secs(1),
            UniformWeights::paper_defaults(),
        );
    }

    #[test]
    fn higher_rates_mean_more_churn() {
        let low = scenario(3, 0.2).summary().leaves;
        let high = scenario(3, 2.0).summary().leaves;
        assert!(high > low, "rate 2.0 ({high}) should out-churn 0.2 ({low})");
    }
}
