//! Semantic oracle for the radius re-sync of the scenario models.
//!
//! `RandomWaypoint` and `PoissonChurn` find the pairs to (un)link through
//! the world's spatial grid, visiting only nodes that moved, rejoined or
//! were moved by another model. The oracle states what that search must
//! achieve without searching at all: it replays a generated trace onto a
//! fresh world and checks the unit-disk relation pair by pair.
//!
//! The file depends on `qolsr-graph` alone, so the `qolsr-sim` unit tests
//! and the root integration suites include the same source.

use qolsr_graph::{DynamicTopology, NodeId, Topology, WorldEvent};

/// Replays `events` — `(instant in µs, event)` in trace order — onto a
/// world built from `initial`, panicking at the first violation of:
///
/// * **waypoint consistency** — at the end of every instant that is a
///   multiple of `waypoint_tick_us` (a `RandomWaypoint` activation), two
///   active nodes are linked exactly when they are within the radius;
/// * **rejoin consistency** — right after a rejoin (a `Join` and the
///   `LinkUp`s that follow it naming the node first, as `PoissonChurn`
///   emits them), the node is linked to exactly the active nodes in
///   range.
///
/// Pass `None` for traces without a waypoint model. Returns the number
/// of checks made, so callers can assert the oracle actually ran.
pub fn assert_radius_consistent(
    initial: &Topology,
    events: impl IntoIterator<Item = (u64, WorldEvent)>,
    waypoint_tick_us: Option<u64>,
) -> usize {
    let mut world = DynamicTopology::new(initial);
    let mut checks = 0;
    let mut rejoining: Option<NodeId> = None;
    let mut events = events.into_iter().peekable();
    while let Some((at, event)) = events.next() {
        world.apply(&event);
        rejoining = match event {
            WorldEvent::Join { node } => Some(node),
            WorldEvent::LinkUp { a, .. } if rejoining == Some(a) => rejoining,
            _ => None,
        };
        let next = events.peek();
        if let Some(node) = rejoining {
            let continues = matches!(
                next,
                Some(&(t, WorldEvent::LinkUp { a, .. })) if t == at && a == node
            );
            if !continues {
                for other in world.nodes().filter(|&m| m != node) {
                    assert_eq!(
                        world.has_link(node, other),
                        world.is_active(other) && in_range(&world, node, other),
                        "rejoin of {node} at {at} µs: link to {other} disagrees with the radius"
                    );
                }
                checks += 1;
                rejoining = None;
            }
        }
        let instant_ends = next.is_none_or(|&(t, _)| t != at);
        if instant_ends && waypoint_tick_us.is_some_and(|tick| at % tick == 0) {
            let active: Vec<NodeId> = world.nodes().filter(|&n| world.is_active(n)).collect();
            for (i, &a) in active.iter().enumerate() {
                for &b in &active[i + 1..] {
                    assert_eq!(
                        world.has_link(a, b),
                        in_range(&world, a, b),
                        "waypoint activation at {at} µs: link {a}—{b} disagrees with the radius"
                    );
                }
            }
            checks += 1;
        }
    }
    checks
}

/// The unit-disk relation the scenario models maintain.
fn in_range(world: &DynamicTopology, a: NodeId, b: NodeId) -> bool {
    let r = world.radius();
    world.position(a).distance_sq(world.position(b)) <= r * r
}
