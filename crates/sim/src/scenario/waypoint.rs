//! Random-waypoint mobility with radius-based link recomputation.

use qolsr_graph::deploy::UniformWeights;
use qolsr_graph::{DynamicTopology, NodeId, Point2, WorldEvent};

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

use super::{apply_recorded, MobilityModel};

#[derive(Debug, Clone, Copy)]
struct NodeMotion {
    target: Point2,
    /// Units of distance per second; zero while paused.
    speed: f64,
    pause_until: SimTime,
}

/// The classic random-waypoint model: every node picks a waypoint
/// uniformly in the field and a uniform speed, travels there in
/// straight-line steps of one `tick`, pauses, and repeats. After each
/// tick the unit-disk link set is re-synced against the new positions:
/// links that left the radius go down, pairs that entered it come up with
/// freshly drawn QoS labels (links that persist keep theirs — drift is
/// [`GaussMarkovDrift`]'s job).
///
/// Link re-sync runs per *dirty* node — nodes that moved this tick or
/// became active since the last one — through the world's shared
/// [`SpatialGrid`] index, O(moved · k) instead of an all-pairs O(n²)
/// scan.
///
/// [`GaussMarkovDrift`]: super::GaussMarkovDrift
/// [`SpatialGrid`]: qolsr_graph::SpatialGrid
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    field: (f64, f64),
    tick: SimDuration,
    speed: (f64, f64),
    pause: SimDuration,
    weights: UniformWeights,
    next: SimTime,
    motion: Vec<NodeMotion>,
    /// Activity as of the last activation; a false→true flip marks the
    /// node dirty so a rejoin by a model that did not relink it still
    /// gets its radius links re-synced.
    active: Vec<bool>,
    /// `DynamicTopology::position_epoch` per node as of the end of the
    /// last activation; a change marks the node dirty, so moves applied
    /// by *other* composed models between activations get their radius
    /// links re-synced too (the consistency invariant does not depend
    /// on this model being the only mover).
    pos_epochs: Vec<u64>,
    /// The first activation re-syncs every pair (the initial topology is
    /// not required to match the radius relation); later ticks only look
    /// at dirty nodes.
    full_sync: bool,
    /// Per-min-endpoint candidate-pair buckets, kept across ticks so the
    /// re-sync allocates nothing in steady state. Always left empty
    /// between activations (capacity retained).
    buckets: Vec<Vec<u32>>,
}

impl RandomWaypoint {
    /// Creates the model.
    ///
    /// * `field` — width × height the waypoints are drawn from;
    /// * `tick` — motion/recomputation interval;
    /// * `speed` — uniform `[min, max)` node speed in distance units per
    ///   second;
    /// * `pause` — rest time at each waypoint;
    /// * `weights` — sampler for the labels of newly appearing links.
    ///
    /// # Panics
    ///
    /// Panics if the tick is zero, the field is empty, or the speed range
    /// is invalid.
    pub fn new(
        field: (f64, f64),
        tick: SimDuration,
        speed: (f64, f64),
        pause: SimDuration,
        weights: UniformWeights,
    ) -> Self {
        assert!(tick > SimDuration::ZERO, "tick must be positive");
        assert!(field.0 > 0.0 && field.1 > 0.0, "field must be non-empty");
        assert!(
            speed.0 > 0.0 && speed.0 <= speed.1,
            "speed range must be positive"
        );
        Self {
            field,
            tick,
            speed,
            pause,
            weights,
            next: SimTime::ZERO,
            motion: Vec::new(),
            active: Vec::new(),
            pos_epochs: Vec::new(),
            full_sync: true,
            buckets: Vec::new(),
        }
    }

    fn draw_waypoint(&self, rng: &mut SimRng) -> Point2 {
        let (w, h) = self.field;
        Point2::new(rng.next_f64() * w, rng.next_f64() * h)
    }

    fn draw_speed(&self, rng: &mut SimRng) -> f64 {
        self.speed.0 + rng.next_f64() * (self.speed.1 - self.speed.0)
    }
}

impl MobilityModel for RandomWaypoint {
    fn name(&self) -> &'static str {
        "random-waypoint"
    }

    fn init(&mut self, world: &DynamicTopology, rng: &mut SimRng) {
        self.motion = (0..world.len())
            .map(|_| NodeMotion {
                target: self.draw_waypoint(rng),
                speed: self.draw_speed(rng),
                pause_until: SimTime::ZERO,
            })
            .collect();
        self.active = world.nodes().map(|n| world.is_active(n)).collect();
        self.pos_epochs = world.nodes().map(|n| world.position_epoch(n)).collect();
        self.full_sync = true;
        // The re-sync tags bucketed node ids with two origin bits.
        assert!(
            world.len() < (1 << 30),
            "grid scan packs node ids into 30 bits"
        );
        self.buckets = vec![Vec::new(); world.len()];
        // First motion step one tick in.
        self.next = SimTime::ZERO + self.tick;
    }

    fn next_activation(&self) -> Option<SimTime> {
        Some(self.next)
    }

    fn activate(
        &mut self,
        now: SimTime,
        world: &mut DynamicTopology,
        rng: &mut SimRng,
    ) -> Vec<WorldEvent> {
        let mut events = Vec::new();
        let dt = self.tick.as_secs_f64();
        let n = world.len();

        // Nodes whose radius relations may have changed this tick.
        let mut dirty: Vec<u32> = Vec::new();
        if self.full_sync {
            self.full_sync = false;
            dirty.extend(0..n as u32);
        }

        // Move every node (including inactive ones: a powered-off device
        // keeps travelling) toward its waypoint.
        for i in 0..n {
            let node = NodeId(i as u32);
            let active_now = world.is_active(node);
            if active_now && !self.active[i] {
                dirty.push(i as u32);
            }
            self.active[i] = active_now;
            // Moved by another composed model since our last activation.
            if world.position_epoch(node) != self.pos_epochs[i] {
                dirty.push(i as u32);
            }

            let mut m = self.motion[i];
            if now < m.pause_until {
                continue;
            }
            let pos = world.position(node);
            let step = m.speed * dt;
            let dist = pos.distance(m.target);
            let new_pos = if dist <= step {
                // Arrived: pause here, then head for a fresh waypoint.
                m.pause_until = now + self.pause;
                let arrived = m.target;
                m.target = self.draw_waypoint(rng);
                m.speed = self.draw_speed(rng);
                arrived
            } else {
                Point2::new(
                    pos.x + (m.target.x - pos.x) / dist * step,
                    pos.y + (m.target.y - pos.y) / dist * step,
                )
            };
            self.motion[i] = m;
            if new_pos != pos {
                apply_recorded(world, &mut events, WorldEvent::Move { node, to: new_pos });
                dirty.push(i as u32);
            }
        }
        // Snapshot after our own moves: only *later* external moves
        // count as dirty next tick.
        for (i, slot) in self.pos_epochs.iter_mut().enumerate() {
            *slot = world.position_epoch(NodeId(i as u32));
        }

        // Re-sync the unit-disk link set over the new positions. Only
        // pairs touching a dirty node can have changed: every other
        // active pair was radius-consistent after the previous sync and
        // neither endpoint moved since.
        //
        // Candidate pairs bucket under their smaller endpoint, tagged
        // with where they came from: the adjacency pass (LINKED —
        // potential downs) or the grid pass (IN_RANGE — potential ups).
        // After a per-bucket sort, merged flags decide each pair's event
        // with no further lookups — stable pairs (both flags) cost
        // nothing beyond the merge. Buckets are walked in ascending
        // order, so link labels are drawn in ascending `(a, b)` order.
        const LINKED: u32 = 1;
        const IN_RANGE: u32 = 2;
        let r = world.radius();
        let mut in_range = Vec::new();
        for &d in &dirty {
            let nd = NodeId(d);
            for (m, _) in world.neighbors(nd) {
                let (a, b) = (d.min(m.0), d.max(m.0));
                self.buckets[a as usize].push(b << 2 | LINKED);
            }
            world.nodes_within_into(world.position(nd), r, &mut in_range);
            for &m in &in_range {
                if m != nd {
                    let (a, b) = (d.min(m.0), d.max(m.0));
                    self.buckets[a as usize].push(b << 2 | IN_RANGE);
                }
            }
        }
        for a in 0..n {
            if self.buckets[a].is_empty() {
                continue;
            }
            let mut bucket = std::mem::take(&mut self.buckets[a]);
            let na = NodeId(a as u32);
            if world.is_active(na) {
                bucket.sort_unstable();
                let mut i = 0;
                while i < bucket.len() {
                    let b = bucket[i] >> 2;
                    let mut flags = bucket[i] & 3;
                    i += 1;
                    while i < bucket.len() && bucket[i] >> 2 == b {
                        flags |= bucket[i] & 3;
                        i += 1;
                    }
                    let nb = NodeId(b);
                    if !world.is_active(nb) {
                        continue;
                    }
                    if flags == IN_RANGE {
                        let qos = self.weights.sample(rng);
                        apply_recorded(
                            world,
                            &mut events,
                            WorldEvent::LinkUp { a: na, b: nb, qos },
                        );
                    } else if flags == LINKED {
                        apply_recorded(world, &mut events, WorldEvent::LinkDown { a: na, b: nb });
                    }
                    // Both flags: linked and still in range.
                }
            }
            bucket.clear();
            self.buckets[a] = bucket;
        }

        self.next = now + self.tick;
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv1a;
    use crate::scenario::{radius_oracle, ScenarioBuilder};
    use qolsr_graph::deploy::{deploy, Deployment};

    fn world() -> qolsr_graph::Topology {
        let mut rng = SimRng::seed_from_u64(21);
        deploy(
            &Deployment {
                width: 200.0,
                height: 200.0,
                radius: 80.0,
                mean_degree: 6.0,
            },
            &UniformWeights::paper_defaults(),
            &mut rng,
        )
    }

    fn model() -> RandomWaypoint {
        RandomWaypoint::new(
            (200.0, 200.0),
            SimDuration::from_secs(1),
            (10.0, 30.0),
            SimDuration::from_secs(1),
            UniformWeights::paper_defaults(),
        )
    }

    #[test]
    fn motion_changes_links_over_time() {
        let topo = world();
        if topo.len() < 4 {
            return; // degenerate draw; other seeds cover the behavior
        }
        let s = ScenarioBuilder::new(&topo, 5)
            .with(model())
            .generate(SimDuration::from_secs(30));
        let summary = s.summary();
        assert!(summary.moves > 0, "nodes must move");
        assert!(
            summary.link_ups > 0 && summary.link_downs > 0,
            "mid-run the topology must both gain and lose links: {summary:?}"
        );
    }

    #[test]
    fn moved_positions_stay_in_field() {
        let topo = world();
        let s = ScenarioBuilder::new(&topo, 6)
            .with(model())
            .generate(SimDuration::from_secs(20));
        for te in s.events() {
            if let WorldEvent::Move { to, .. } = te.event {
                assert!((0.0..=200.0).contains(&to.x), "x out of field: {to}");
                assert!((0.0..=200.0).contains(&to.y), "y out of field: {to}");
            }
        }
    }

    /// `fnv1a` of each scenario's event trace as the all-pairs scan
    /// generated it: `(seed, trace)` for [`model`] alone, then for the
    /// [`Teleporter`] composition of [`grid_scan_tracks_external_movers`].
    /// Recorded at f0b9e42, the last commit with that scan, where both
    /// tests still compared it with the grid live.
    const NAIVE_TRACES: [(u64, u64); 3] = [
        (3, 0x9c3f_e164_90c1_0e62),
        (17, 0xc4cb_a768_9d6b_1eb0),
        (99, 0xc4e8_aaa1_feb7_0afa),
    ];
    const NAIVE_TELEPORTER_TRACES: [(u64, u64); 2] =
        [(5, 0xf5dc_4aaa_6120_a85c), (41, 0x2d1b_1dfa_a704_74af)];

    /// Checks `s` against the radius oracle, which must find something
    /// to check.
    fn assert_radius_consistent(topo: &qolsr_graph::Topology, s: &crate::Scenario) {
        let events = s.events().iter().map(|te| (te.at.as_micros(), te.event));
        let tick = SimDuration::from_secs(1).as_micros();
        let checks = radius_oracle::assert_radius_consistent(topo, events, Some(tick));
        assert!(checks > 0, "the oracle checked nothing");
    }

    #[test]
    fn grid_and_naive_scans_agree() {
        let topo = world();
        for (seed, naive) in NAIVE_TRACES {
            let grid = ScenarioBuilder::new(&topo, seed)
                .with(model())
                .generate(SimDuration::from_secs(25));
            assert_radius_consistent(&topo, &grid);
            assert_eq!(
                fnv1a(format!("{:?}", grid.events()).as_bytes()),
                naive,
                "grid trace diverges from the recorded naive one (seed {seed})"
            );
        }
    }

    /// A minimal *external* mover: teleports one node every 3 s without
    /// touching any links — exactly the kind of composed model whose
    /// moves the waypoint's dirty tracking must pick up via the world's
    /// position epochs.
    struct Teleporter {
        next: SimTime,
    }

    impl MobilityModel for Teleporter {
        fn name(&self) -> &'static str {
            "teleporter"
        }

        fn next_activation(&self) -> Option<SimTime> {
            Some(self.next)
        }

        fn activate(
            &mut self,
            now: SimTime,
            world: &mut DynamicTopology,
            rng: &mut SimRng,
        ) -> Vec<WorldEvent> {
            let mut events = Vec::new();
            let to = Point2::new(rng.next_f64() * 200.0, rng.next_f64() * 200.0);
            apply_recorded(
                world,
                &mut events,
                WorldEvent::Move {
                    node: NodeId(0),
                    to,
                },
            );
            self.next = now + SimDuration::from_secs(3);
            events
        }
    }

    /// Moves applied by *another* composed model must get their radius
    /// links re-synced by the grid path: the trace replays the recorded
    /// all-pairs one, and every tick leaves links matching the radius.
    #[test]
    fn grid_scan_tracks_external_movers() {
        let topo = world();
        if topo.is_empty() {
            return;
        }
        for (seed, naive) in NAIVE_TELEPORTER_TRACES {
            // Fast legs + long pauses: nodes mostly sit still, so a
            // teleported node's only position change is the external
            // one — the epoch-tracking path, not self-moves, must mark
            // it dirty.
            let waypoint = RandomWaypoint::new(
                (200.0, 200.0),
                SimDuration::from_secs(1),
                (80.0, 90.0),
                SimDuration::from_secs(12),
                UniformWeights::paper_defaults(),
            );
            let grid = ScenarioBuilder::new(&topo, seed)
                .with(Teleporter {
                    next: SimTime::ZERO + SimDuration::from_secs(3),
                })
                .with(waypoint)
                .generate(SimDuration::from_secs(25));
            assert_radius_consistent(&topo, &grid);
            assert_eq!(
                fnv1a(format!("{:?}", grid.events()).as_bytes()),
                naive,
                "external moves break the recorded naive trace (seed {seed})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "tick must be positive")]
    fn zero_tick_rejected() {
        let _ = RandomWaypoint::new(
            (10.0, 10.0),
            SimDuration::ZERO,
            (1.0, 2.0),
            SimDuration::ZERO,
            UniformWeights::paper_defaults(),
        );
    }
}
