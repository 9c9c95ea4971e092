//! Mutable, epoch-versioned topologies for dynamic-scenario simulation.
//!
//! The paper evaluates neighbor selection on static Poisson deployments,
//! but QOLSR exists for mobile ad-hoc networks where links appear and die
//! under motion. [`DynamicTopology`] is the mutable world the simulation
//! engine runs against: it applies [`WorldEvent`]s (link up/down, QoS
//! drift, node motion, join/leave) and bumps an epoch counter on every
//! change. A node's ground-truth view `G_u` is
//! [`LocalView::extract_graph`](crate::LocalView::extract_graph) over
//! [`DynamicTopology::graph`].
//!
//! The node-id space is fixed at construction: nodes never disappear from
//! the index range, they only toggle between active and inactive (an
//! inactive node has no links and takes no part in the radio). This keeps
//! dense per-node arrays — actors, RNG streams, routing tables — valid
//! across arbitrary churn.
//!
//! # Examples
//!
//! ```
//! use qolsr_graph::{DynamicTopology, NodeId, Point2, TopologyBuilder, WorldEvent};
//! use qolsr_metrics::LinkQos;
//!
//! let mut b = TopologyBuilder::new(10.0);
//! let a = b.add_node(Point2::new(0.0, 0.0));
//! let c = b.add_node(Point2::new(5.0, 0.0));
//! b.link(a, c, LinkQos::uniform(3))?;
//! let mut world = DynamicTopology::new(&b.build());
//!
//! let e0 = world.epoch();
//! assert!(world.apply(&WorldEvent::LinkDown { a, b: c }));
//! assert!(!world.has_link(a, c));
//! assert!(world.epoch() > e0);
//!
//! // Snapshots rebuild an immutable `Topology` from the surviving state.
//! assert_eq!(world.snapshot().link_count(), 0);
//! # Ok::<(), qolsr_graph::TopologyError>(())
//! ```

use std::fmt;

use qolsr_metrics::LinkQos;

use crate::compact::CompactGraph;
use crate::geometry::Point2;
use crate::ids::NodeId;
use crate::spatial::SpatialGrid;
use crate::topology::{Topology, TopologyBuilder};

/// One atomic change to the simulated world.
///
/// Events are self-contained (a `LinkUp` carries its QoS label, a `Move`
/// its destination) so a schedule of events fully determines the world's
/// evolution — the basis of scenario determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorldEvent {
    /// The link `a—b` comes up with the given label. Ignored if either
    /// endpoint is inactive, if `a == b`, or if the link already exists
    /// (existing labels are *not* overwritten; use [`WorldEvent::QosChange`]).
    LinkUp {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Label of the new link.
        qos: LinkQos,
    },
    /// The link `a—b` goes down. Ignored if absent.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The label of the existing link `a—b` changes (weight drift).
    /// Ignored if the link does not exist.
    QosChange {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The new label.
        qos: LinkQos,
    },
    /// Node `node` moves to `to`. Position-only: connectivity follows via
    /// explicit link events (scenario models recompute radius links).
    Move {
        /// The moving node.
        node: NodeId,
        /// Its new position.
        to: Point2,
    },
    /// Node `node` (re)joins the network. It comes back isolated; the
    /// scenario emits `LinkUp`s for everything in radio range.
    Join {
        /// The joining node.
        node: NodeId,
    },
    /// Node `node` leaves the network; all its incident links go down.
    Leave {
        /// The leaving node.
        node: NodeId,
    },
    /// The network partitions along the vertical line `x = cut`: while
    /// active, the radio drops every frame whose sender and receiver sit
    /// on opposite sides of the cut. Ground-truth links are untouched —
    /// a partition is a radio-level fault, not a topology change — so
    /// healed worlds need no relink events. At most one partition is
    /// active at a time; applying a second cut replaces the first.
    ///
    /// # Examples
    ///
    /// ```
    /// use qolsr_graph::{DynamicTopology, NodeId, Point2, TopologyBuilder, WorldEvent};
    /// use qolsr_metrics::LinkQos;
    ///
    /// let mut b = TopologyBuilder::new(10.0);
    /// let west = b.add_node(Point2::new(0.0, 0.0));
    /// let east = b.add_node(Point2::new(8.0, 0.0));
    /// b.link(west, east, LinkQos::uniform(1))?;
    /// let mut world = DynamicTopology::new(&b.build());
    ///
    /// assert!(world.apply(&WorldEvent::Partition { cut: 4.0 }));
    /// assert!(world.partitioned(west, east));
    /// assert!(world.has_link(west, east), "the link itself survives");
    /// assert!(world.apply(&WorldEvent::Heal));
    /// assert!(!world.partitioned(west, east));
    /// # Ok::<(), qolsr_graph::TopologyError>(())
    /// ```
    Partition {
        /// x-coordinate of the cut line.
        cut: f64,
    },
    /// The active partition (if any) heals: cross-cut frames flow again.
    /// Ignored when no partition is active.
    Heal,
    /// Node `node` crashes and instantly reboots: unlike the graceful
    /// [`WorldEvent::Leave`]/[`WorldEvent::Join`] cycle the node never
    /// deactivates and keeps its ground-truth links, but the engines
    /// wipe its entire protocol state — including message sequence
    /// numbers and the ANSN, which a graceful rejoin deliberately keeps.
    /// Ignored if the node is inactive (a powered-off node cannot
    /// crash).
    Crash {
        /// The crashing node.
        node: NodeId,
    },
}

impl fmt::Display for WorldEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldEvent::LinkUp { a, b, .. } => write!(f, "link-up {a}—{b}"),
            WorldEvent::LinkDown { a, b } => write!(f, "link-down {a}—{b}"),
            WorldEvent::QosChange { a, b, .. } => write!(f, "qos-change {a}—{b}"),
            WorldEvent::Move { node, to } => write!(f, "move {node} -> {to}"),
            WorldEvent::Join { node } => write!(f, "join {node}"),
            WorldEvent::Leave { node } => write!(f, "leave {node}"),
            WorldEvent::Partition { cut } => write!(f, "partition x={cut}"),
            WorldEvent::Heal => write!(f, "heal"),
            WorldEvent::Crash { node } => write!(f, "crash {node}"),
        }
    }
}

/// An epoch-versioned mutable topology (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct DynamicTopology {
    graph: CompactGraph,
    positions: Vec<Point2>,
    active: Vec<bool>,
    radius: f64,
    epoch: u64,
    /// Spatial index over `positions` (inactive nodes included — they
    /// keep travelling while powered off). Maintained incrementally by
    /// `Move` events so every scenario model shares one up-to-date grid
    /// instead of rebuilding its own per tick.
    grid: SpatialGrid,
    /// Per node: the epoch of its last applied `Move` (0 = never moved).
    /// Lets incremental consumers (the waypoint model's dirty tracking)
    /// detect position changes made by *other* actors between their
    /// activations.
    position_epochs: Vec<u64>,
    /// x-coordinate of the active partition cut, if one is in force.
    /// Read-only for the engines (via [`DynamicTopology::partitioned`])
    /// so the cross-cut drop check commutes with parallel windows.
    partition_cut: Option<f64>,
}

/// Builds the world's spatial index: cells of side `radius` over the
/// bounding box of the initial positions (clamping keeps queries exact
/// if nodes later roam past it).
fn build_grid(positions: &[Point2], radius: f64) -> SpatialGrid {
    let cell = if radius.is_finite() && radius > 0.0 {
        radius
    } else {
        1.0
    };
    let (mut w, mut h) = (cell, cell);
    for p in positions {
        w = w.max(p.x);
        h = h.max(p.y);
    }
    SpatialGrid::from_positions(w, h, cell, positions)
}

impl DynamicTopology {
    /// Creates a dynamic world from an initial (static) topology; every
    /// node starts active.
    pub fn new(initial: &Topology) -> Self {
        let n = initial.len();
        let positions: Vec<Point2> = (0..n).map(|i| initial.position(NodeId(i as u32))).collect();
        let grid = build_grid(&positions, initial.radius());
        Self {
            graph: initial.graph().clone(),
            positions,
            active: vec![true; n],
            radius: initial.radius(),
            epoch: 0,
            grid,
            position_epochs: vec![0; n],
            partition_cut: None,
        }
    }

    /// Number of node slots (active or not).
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` if the world has no node slots.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The communication radius the world was deployed with.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The current epoch; bumped by every applied [`WorldEvent`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Iterates over all node ids (active or not).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.positions.len() as u32).map(NodeId)
    }

    /// Returns `true` if `n` is currently part of the network.
    pub fn is_active(&self, n: NodeId) -> bool {
        self.active[n.index()]
    }

    /// Number of currently active nodes.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Current position of `n` (tracked even while inactive).
    pub fn position(&self, n: NodeId) -> Point2 {
        self.positions[n.index()]
    }

    /// The epoch at which `n` last changed position (0 if it never
    /// moved). Incremental consumers compare this against a stored
    /// snapshot to detect moves applied by other actors since their
    /// last activation.
    pub fn position_epoch(&self, n: NodeId) -> u64 {
        self.position_epochs[n.index()]
    }

    /// All node slots (active or not) within `radius` of `center`,
    /// ascending by id — served by the world's incremental
    /// [`SpatialGrid`] rather than a scan over all positions. A node
    /// exactly at `center` is included; callers asking for the neighbors
    /// *of* a node filter it out, and callers that only care about the
    /// radio filter on [`DynamicTopology::is_active`].
    pub fn nodes_within(&self, center: Point2, radius: f64) -> Vec<NodeId> {
        self.grid.neighbors_within(center, radius)
    }

    /// [`DynamicTopology::nodes_within`] writing into a caller-provided
    /// buffer (cleared first), for per-tick loops that reuse one
    /// allocation.
    pub fn nodes_within_into(&self, center: Point2, radius: f64, out: &mut Vec<NodeId>) {
        self.grid.neighbors_within_into(center, radius, out);
    }

    /// The current adjacency graph; node `i` is `NodeId(i)`.
    pub fn graph(&self) -> &CompactGraph {
        &self.graph
    }

    /// Current neighbors of `n` with link QoS, ascending by id.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, LinkQos)> + '_ {
        self.graph
            .neighbors(n.0)
            .iter()
            .map(|&(m, qos)| (NodeId(m), qos))
    }

    /// Current degree of `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.graph.degree(n.0)
    }

    /// QoS label of the link `a—b`, if it currently exists.
    pub fn link_qos(&self, a: NodeId, b: NodeId) -> Option<LinkQos> {
        self.graph.qos(a.0, b.0)
    }

    /// Returns `true` if the link `a—b` currently exists.
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.graph.has_edge(a.0, b.0)
    }

    /// x-coordinate of the active partition cut, if one is in force.
    pub fn partition_cut(&self) -> Option<f64> {
        self.partition_cut
    }

    /// Returns `true` when an active partition separates `a` and `b`
    /// (their current positions sit on opposite sides of the cut): the
    /// radio must drop frames between them. Always `false` with no
    /// partition in force.
    pub fn partitioned(&self, a: NodeId, b: NodeId) -> bool {
        match self.partition_cut {
            Some(cut) => (self.positions[a.index()].x < cut) != (self.positions[b.index()].x < cut),
            None => false,
        }
    }

    /// Current number of undirected links.
    pub fn link_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Applies one event. Returns `true` if the world actually changed
    /// (and the epoch advanced); no-op events — duplicate link-ups,
    /// removals of absent links, joins of active nodes — return `false`.
    ///
    /// # Panics
    ///
    /// Panics if the event references a node id outside the world.
    pub fn apply(&mut self, ev: &WorldEvent) -> bool {
        let changed = match *ev {
            WorldEvent::LinkUp { a, b, qos } => {
                if a == b
                    || !self.active[a.index()]
                    || !self.active[b.index()]
                    || self.graph.has_edge(a.0, b.0)
                {
                    false
                } else {
                    self.graph.add_undirected(a.0, b.0, qos);
                    true
                }
            }
            WorldEvent::LinkDown { a, b } => self.graph.remove_undirected(a.0, b.0).is_some(),
            WorldEvent::QosChange { a, b, qos } => {
                if self.graph.qos(a.0, b.0).is_some_and(|old| old != qos) {
                    self.graph.add_undirected(a.0, b.0, qos);
                    true
                } else {
                    false
                }
            }
            WorldEvent::Move { node, to } => {
                let slot = &mut self.positions[node.index()];
                if *slot == to {
                    false
                } else {
                    *slot = to;
                    self.grid.move_node(node, to);
                    // `epoch` is incremented below; the new value marks
                    // this move.
                    self.position_epochs[node.index()] = self.epoch + 1;
                    true
                }
            }
            WorldEvent::Join { node } => {
                let slot = &mut self.active[node.index()];
                if *slot {
                    false
                } else {
                    *slot = true;
                    true
                }
            }
            WorldEvent::Leave { node } => {
                if !self.active[node.index()] {
                    false
                } else {
                    self.active[node.index()] = false;
                    let incident: Vec<u32> = self
                        .graph
                        .neighbors(node.0)
                        .iter()
                        .map(|&(m, _)| m)
                        .collect();
                    for m in incident {
                        self.graph.remove_undirected(node.0, m);
                    }
                    true
                }
            }
            WorldEvent::Partition { cut } => {
                if self.partition_cut == Some(cut) {
                    false
                } else {
                    self.partition_cut = Some(cut);
                    true
                }
            }
            WorldEvent::Heal => {
                if self.partition_cut.is_none() {
                    false
                } else {
                    self.partition_cut = None;
                    true
                }
            }
            // The graph is untouched by a crash — the node keeps its id,
            // links and position — but the epoch still advances (below)
            // so world-change counters register the fault. The engines
            // own the protocol-state wipe.
            WorldEvent::Crash { node } => self.active[node.index()],
        };
        if changed {
            self.epoch += 1;
        }
        changed
    }

    /// Rebuilds an immutable [`Topology`] from the current state. Inactive
    /// nodes keep their id slot but are isolated, so node ids line up with
    /// the dynamic world's.
    pub fn snapshot(&self) -> Topology {
        let mut b = TopologyBuilder::new(self.radius);
        for &p in &self.positions {
            b.add_node(p);
        }
        for (a, c, qos) in self.graph.edges() {
            b.link(NodeId(a), NodeId(c), qos)
                .expect("dynamic world edges reference valid nodes");
        }
        b.build()
    }
}

impl From<Topology> for DynamicTopology {
    fn from(topo: Topology) -> Self {
        Self::new(&topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::LocalView;

    fn qos(w: u64) -> LinkQos {
        LinkQos::uniform(w)
    }

    /// Triangle 0—1—2—0 with radius 10.
    fn triangle() -> DynamicTopology {
        let mut b = TopologyBuilder::new(10.0);
        let n0 = b.add_node(Point2::new(0.0, 0.0));
        let n1 = b.add_node(Point2::new(5.0, 0.0));
        let n2 = b.add_node(Point2::new(0.0, 5.0));
        b.link(n0, n1, qos(1)).unwrap();
        b.link(n1, n2, qos(2)).unwrap();
        b.link(n2, n0, qos(3)).unwrap();
        DynamicTopology::new(&b.build())
    }

    #[test]
    fn starts_identical_to_initial_topology() {
        let world = triangle();
        assert_eq!(world.len(), 3);
        assert_eq!(world.link_count(), 3);
        assert_eq!(world.active_count(), 3);
        assert_eq!(world.epoch(), 0);
        assert_eq!(world.link_qos(NodeId(1), NodeId(2)), Some(qos(2)));
    }

    #[test]
    fn link_events_mutate_and_bump_epoch() {
        let mut world = triangle();
        assert!(world.apply(&WorldEvent::LinkDown {
            a: NodeId(0),
            b: NodeId(1)
        }));
        assert_eq!(world.epoch(), 1);
        assert!(!world.has_link(NodeId(0), NodeId(1)));
        // Removing again is a no-op.
        assert!(!world.apply(&WorldEvent::LinkDown {
            a: NodeId(0),
            b: NodeId(1)
        }));
        assert_eq!(world.epoch(), 1);
        // Bring it back with a new label.
        assert!(world.apply(&WorldEvent::LinkUp {
            a: NodeId(0),
            b: NodeId(1),
            qos: qos(9)
        }));
        assert_eq!(world.link_qos(NodeId(0), NodeId(1)), Some(qos(9)));
    }

    #[test]
    fn link_up_never_overwrites_existing_labels() {
        let mut world = triangle();
        assert!(!world.apply(&WorldEvent::LinkUp {
            a: NodeId(0),
            b: NodeId(1),
            qos: qos(7)
        }));
        assert_eq!(world.link_qos(NodeId(0), NodeId(1)), Some(qos(1)));
        assert!(world.apply(&WorldEvent::QosChange {
            a: NodeId(0),
            b: NodeId(1),
            qos: qos(7)
        }));
        assert_eq!(world.link_qos(NodeId(0), NodeId(1)), Some(qos(7)));
        // QosChange on a missing link is ignored.
        world.apply(&WorldEvent::LinkDown {
            a: NodeId(1),
            b: NodeId(2),
        });
        assert!(!world.apply(&WorldEvent::QosChange {
            a: NodeId(1),
            b: NodeId(2),
            qos: qos(7)
        }));
        assert!(!world.has_link(NodeId(1), NodeId(2)));
    }

    #[test]
    fn leave_drops_incident_links_join_restores_isolated() {
        let mut world = triangle();
        assert!(world.apply(&WorldEvent::Leave { node: NodeId(1) }));
        assert!(!world.is_active(NodeId(1)));
        assert_eq!(world.link_count(), 1); // only 0—2 survives
        assert_eq!(world.degree(NodeId(1)), 0);
        // Link-ups touching a dead node are ignored.
        assert!(!world.apply(&WorldEvent::LinkUp {
            a: NodeId(0),
            b: NodeId(1),
            qos: qos(1)
        }));
        assert!(world.apply(&WorldEvent::Join { node: NodeId(1) }));
        assert!(world.is_active(NodeId(1)));
        assert_eq!(world.degree(NodeId(1)), 0, "rejoin must come back isolated");
        assert!(world.apply(&WorldEvent::LinkUp {
            a: NodeId(0),
            b: NodeId(1),
            qos: qos(4)
        }));
        assert_eq!(world.link_count(), 2);
    }

    #[test]
    fn nodes_within_tracks_moves() {
        let mut world = triangle();
        assert_eq!(
            world.nodes_within(Point2::new(0.0, 0.0), 6.0),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
        world.apply(&WorldEvent::Move {
            node: NodeId(1),
            to: Point2::new(50.0, 50.0),
        });
        assert_eq!(
            world.nodes_within(Point2::new(0.0, 0.0), 6.0),
            vec![NodeId(0), NodeId(2)]
        );
        // Inactive nodes stay indexed: they keep travelling.
        world.apply(&WorldEvent::Leave { node: NodeId(2) });
        assert_eq!(
            world.nodes_within(Point2::new(0.0, 0.0), 6.0),
            vec![NodeId(0), NodeId(2)]
        );
    }

    #[test]
    fn moves_update_positions_only() {
        let mut world = triangle();
        let links = world.link_count();
        assert!(world.apply(&WorldEvent::Move {
            node: NodeId(0),
            to: Point2::new(100.0, 100.0)
        }));
        assert_eq!(world.position(NodeId(0)), Point2::new(100.0, 100.0));
        assert_eq!(world.link_count(), links, "moves never touch links");
        // Moving to the same spot is a no-op.
        assert!(!world.apply(&WorldEvent::Move {
            node: NodeId(0),
            to: Point2::new(100.0, 100.0)
        }));
    }

    #[test]
    fn views_match_snapshot_extraction() {
        let mut world = triangle();
        world.apply(&WorldEvent::LinkDown {
            a: NodeId(1),
            b: NodeId(2),
        });
        let snap = world.snapshot();
        for n in world.nodes() {
            let dynamic = LocalView::extract_graph(world.graph(), n);
            let fresh = LocalView::extract(&snap, n);
            assert!(dynamic.same_knowledge(&fresh), "node {n} view diverges");
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let world = triangle();
        let snap = world.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.graph(), world.graph());
        assert_eq!(snap.radius(), world.radius());
        assert_eq!(snap.position(NodeId(2)), world.position(NodeId(2)));
    }

    #[test]
    fn partition_gates_cross_cut_pairs_without_touching_links() {
        let mut world = triangle();
        let e0 = world.epoch();
        assert!(world.apply(&WorldEvent::Partition { cut: 2.5 }));
        assert_eq!(world.epoch(), e0 + 1);
        assert_eq!(world.partition_cut(), Some(2.5));
        // Node 1 sits at x = 5, nodes 0 and 2 at x = 0.
        assert!(world.partitioned(NodeId(0), NodeId(1)));
        assert!(world.partitioned(NodeId(1), NodeId(2)));
        assert!(!world.partitioned(NodeId(0), NodeId(2)));
        assert_eq!(world.link_count(), 3, "partitions never touch links");
        // Re-applying the same cut is a no-op; a new cut replaces it.
        assert!(!world.apply(&WorldEvent::Partition { cut: 2.5 }));
        assert!(world.apply(&WorldEvent::Partition { cut: 100.0 }));
        assert!(!world.partitioned(NodeId(0), NodeId(1)));
        // Moves re-evaluate sides: node 0 crosses the new cut.
        world.apply(&WorldEvent::Move {
            node: NodeId(0),
            to: Point2::new(200.0, 0.0),
        });
        assert!(world.partitioned(NodeId(0), NodeId(1)));
        assert!(world.apply(&WorldEvent::Heal));
        assert!(!world.partitioned(NodeId(0), NodeId(1)));
        assert!(!world.apply(&WorldEvent::Heal), "healed twice is a no-op");
    }

    #[test]
    fn crash_changes_nothing_in_the_graph_but_registers() {
        let mut world = triangle();
        let e0 = world.epoch();
        assert!(world.apply(&WorldEvent::Crash { node: NodeId(1) }));
        assert_eq!(world.epoch(), e0 + 1, "a crash is still a world change");
        assert!(world.is_active(NodeId(1)), "crashed nodes reboot instantly");
        assert_eq!(world.link_count(), 3, "crashes keep ground-truth links");
        // A powered-off node cannot crash.
        world.apply(&WorldEvent::Leave { node: NodeId(1) });
        assert!(!world.apply(&WorldEvent::Crash { node: NodeId(1) }));
    }

    #[test]
    fn display_names_events() {
        let ev = WorldEvent::LinkDown {
            a: NodeId(0),
            b: NodeId(1),
        };
        assert_eq!(ev.to_string(), "link-down n0—n1");
        assert_eq!(WorldEvent::Join { node: NodeId(3) }.to_string(), "join n3");
    }
}
