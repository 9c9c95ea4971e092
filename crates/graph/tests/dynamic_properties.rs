//! Property tests for [`DynamicTopology`]: after *any* event sequence,
//! the incremental world must equal a naive reference model replayed from
//! scratch — same surviving links, same activity, same positions — and
//! the local views extracted from its live graph must match extraction
//! from a snapshot (no staleness).

use std::collections::BTreeMap;

use proptest::prelude::*;
use qolsr_graph::{DynamicTopology, LocalView, NodeId, Point2, TopologyBuilder, WorldEvent};
use qolsr_metrics::LinkQos;

/// Naive reference semantics of [`WorldEvent`], kept deliberately free of
/// incremental bookkeeping: a map of links, an activity vector, positions.
struct ReferenceWorld {
    links: BTreeMap<(u32, u32), LinkQos>,
    active: Vec<bool>,
    positions: Vec<Point2>,
    partition_cut: Option<f64>,
}

impl ReferenceWorld {
    fn new(n: usize, links: &[(u32, u32, LinkQos)]) -> Self {
        Self {
            links: links
                .iter()
                .map(|&(a, b, q)| ((a.min(b), a.max(b)), q))
                .collect(),
            active: vec![true; n],
            positions: (0..n).map(|i| Point2::new(i as f64, 0.0)).collect(),
            partition_cut: None,
        }
    }

    fn apply(&mut self, ev: &WorldEvent) {
        match *ev {
            WorldEvent::LinkUp { a, b, qos } => {
                let key = (a.0.min(b.0), a.0.max(b.0));
                if a != b
                    && self.active[a.index()]
                    && self.active[b.index()]
                    && !self.links.contains_key(&key)
                {
                    self.links.insert(key, qos);
                }
            }
            WorldEvent::LinkDown { a, b } => {
                self.links.remove(&(a.0.min(b.0), a.0.max(b.0)));
            }
            WorldEvent::QosChange { a, b, qos } => {
                if let Some(slot) = self.links.get_mut(&(a.0.min(b.0), a.0.max(b.0))) {
                    *slot = qos;
                }
            }
            WorldEvent::Move { node, to } => self.positions[node.index()] = to,
            WorldEvent::Join { node } => self.active[node.index()] = true,
            WorldEvent::Leave { node } => {
                self.active[node.index()] = false;
                self.links.retain(|&(a, b), _| a != node.0 && b != node.0);
            }
            WorldEvent::Partition { cut } => self.partition_cut = Some(cut),
            WorldEvent::Heal => self.partition_cut = None,
            // A crash touches no ground truth: the node keeps its id,
            // links and position (the engines own the protocol wipe).
            WorldEvent::Crash { .. } => {}
        }
    }

    /// Reference partition gate: positions on opposite sides of the cut.
    fn partitioned(&self, a: NodeId, b: NodeId) -> bool {
        match self.partition_cut {
            Some(cut) => (self.positions[a.index()].x < cut) != (self.positions[b.index()].x < cut),
            None => false,
        }
    }

    /// Builds the reference topology from scratch.
    fn build(&self) -> qolsr_graph::Topology {
        let mut b = TopologyBuilder::new(1.0);
        for &p in &self.positions {
            b.add_node(p);
        }
        for (&(x, y), &q) in &self.links {
            b.link(NodeId(x), NodeId(y), q).unwrap();
        }
        b.build()
    }
}

/// Strategy: an initial line-ish world of `n` nodes with some links.
fn initial_links(n: u32) -> impl Strategy<Value = Vec<(u32, u32, LinkQos)>> {
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .collect();
    let m = pairs.len();
    (
        Just(pairs),
        proptest::collection::vec(proptest::option::weighted(0.5, 1u64..=10), m),
    )
        .prop_map(|(pairs, weights)| {
            pairs
                .into_iter()
                .zip(weights)
                .filter_map(|((a, b), w)| w.map(|w| (a, b, LinkQos::uniform(w))))
                .collect()
        })
}

/// Strategy: one random world event over `n` nodes.
fn event(n: u32) -> impl Strategy<Value = WorldEvent> {
    prop_oneof![
        (0..n, 0..n, 1u64..=10).prop_map(|(a, b, w)| WorldEvent::LinkUp {
            a: NodeId(a),
            b: NodeId(b),
            qos: LinkQos::uniform(w),
        }),
        (0..n, 0..n).prop_map(|(a, b)| WorldEvent::LinkDown {
            a: NodeId(a),
            b: NodeId(b),
        }),
        (0..n, 0..n, 1u64..=10).prop_map(|(a, b, w)| WorldEvent::QosChange {
            a: NodeId(a),
            b: NodeId(b),
            qos: LinkQos::uniform(w),
        }),
        (0..n, 0.0..50.0f64, 0.0..50.0f64).prop_map(|(node, x, y)| WorldEvent::Move {
            node: NodeId(node),
            to: Point2::new(x, y),
        }),
        (0..n).prop_map(|node| WorldEvent::Join { node: NodeId(node) }),
        (0..n).prop_map(|node| WorldEvent::Leave { node: NodeId(node) }),
        (-5.0..55.0f64).prop_map(|cut| WorldEvent::Partition { cut }),
        Just(WorldEvent::Heal),
        (0..n).prop_map(|node| WorldEvent::Crash { node: NodeId(node) }),
    ]
}

/// Strategy: `(n, initial links, event sequence)`.
fn world_and_events() -> impl Strategy<Value = (u32, Vec<(u32, u32, LinkQos)>, Vec<WorldEvent>)> {
    (2u32..=7).prop_flat_map(|n| {
        (
            Just(n),
            initial_links(n),
            proptest::collection::vec(event(n), 24),
        )
    })
}

fn make_world(n: u32, links: &[(u32, u32, LinkQos)]) -> DynamicTopology {
    let mut b = TopologyBuilder::abstract_nodes(n as usize);
    for &(x, y, q) in links {
        b.link(NodeId(x), NodeId(y), q).unwrap();
    }
    DynamicTopology::new(&b.build())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// After any event sequence, `snapshot()` must equal the topology a
    /// naive reference model builds from scratch: no incremental drift
    /// in links, activity or positions.
    #[test]
    fn snapshot_equals_reference_rebuild((n, links, events) in world_and_events()) {
        let mut world = make_world(n, &links);
        let mut reference = ReferenceWorld::new(n as usize, &links);
        for ev in &events {
            world.apply(ev);
            reference.apply(ev);
        }
        let snap = world.snapshot();
        let fresh = reference.build();
        prop_assert_eq!(snap.graph(), fresh.graph(), "link graphs diverge");
        prop_assert_eq!(snap.len(), fresh.len());
        for node in world.nodes() {
            prop_assert_eq!(world.position(node), fresh.position(node),
                "position of {} diverges", node);
            prop_assert_eq!(world.is_active(node), reference.active[node.index()],
                "activity of {} diverges", node);
        }
        prop_assert_eq!(world.partition_cut(), reference.partition_cut);
        for a in world.nodes() {
            for b in world.nodes() {
                prop_assert_eq!(world.partitioned(a, b), reference.partitioned(a, b),
                    "partition gate for {}–{} diverges", a, b);
            }
        }
    }

    /// Local views extracted from the live graph after any event
    /// sequence match extraction from the snapshot.
    #[test]
    fn cached_views_never_go_stale((n, links, events) in world_and_events()) {
        let mut world = make_world(n, &links);
        for ev in &events {
            world.apply(ev);
        }
        let snap = world.snapshot();
        for node in world.nodes() {
            let live = LocalView::extract_graph(world.graph(), node);
            let fresh = LocalView::extract(&snap, node);
            prop_assert!(live.same_knowledge(&fresh), "view of {} is stale", node);
        }
    }

    /// Inactive nodes never carry links, whatever the event order.
    #[test]
    fn inactive_nodes_are_isolated((n, links, events) in world_and_events()) {
        let mut world = make_world(n, &links);
        for ev in &events {
            world.apply(ev);
            for node in world.nodes() {
                if !world.is_active(node) {
                    prop_assert_eq!(world.degree(node), 0,
                        "inactive {} still has links after {}", node, ev);
                }
            }
        }
    }

    /// The world's incremental spatial index must answer radius queries
    /// exactly like a brute-force scan over the positions it tracks,
    /// after any event sequence (moves migrate grid cells; join/leave
    /// never evict travellers).
    #[test]
    fn nodes_within_equals_position_scan((n, links, events) in world_and_events()) {
        let mut world = make_world(n, &links);
        for (i, ev) in events.iter().enumerate() {
            world.apply(ev);
            let center = world.position(NodeId(i as u32 % n));
            for radius in [0.0, 3.0, 25.0, 80.0] {
                let got = world.nodes_within(center, radius);
                let want: Vec<NodeId> = world
                    .nodes()
                    .filter(|&m| center.distance_sq(world.position(m)) <= radius * radius)
                    .collect();
                prop_assert_eq!(got, want, "query after {} (r={}) diverges", ev, radius);
            }
        }
    }
}
