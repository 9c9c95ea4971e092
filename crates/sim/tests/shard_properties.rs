//! Property tests of the region-sharded executor's two structural
//! invariants:
//!
//! 1. **Partition** — the shard map is a true partition of the node set
//!    at all times: every node lives in exactly one shard, `shard_of`
//!    agrees with the member lists, and a node that re-joins after a
//!    `Leave` is re-homed to the shard covering its current position.
//! 2. **Order** — cross-shard frames are applied in global `(time, seq)`
//!    order whatever the parallel window width: for *any* shard count,
//!    window size and churn history, the trace and end state are
//!    byte-identical to the one-shard run at the default window, and
//!    dispatch times never go backwards.

use proptest::prelude::*;
use qolsr_graph::{NodeId, Point2, Topology, TopologyBuilder, WorldEvent};
use qolsr_metrics::LinkQos;
use qolsr_sim::trace::{TraceEvent, TraceKind};
use qolsr_sim::{Actor, Context, RadioConfig, SimDuration, SimStats, SimTime, Simulator, TimerId};

/// Minimal chatty actor: periodic broadcast, remembers what it heard —
/// enough traffic that mis-ordered or lost cross-shard frames change
/// the end state.
#[derive(Default, Clone, PartialEq, Eq, Debug)]
struct Echo {
    heard: Vec<(NodeId, u32)>,
    ticks: u32,
}

impl Actor for Echo {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        ctx.broadcast(ctx.node_id().0);
        ctx.set_timer(SimDuration::from_micros(9_000), TimerId(1));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _t: TimerId) {
        self.ticks += 1;
        ctx.broadcast(self.ticks);
        ctx.set_timer(SimDuration::from_micros(9_000), TimerId(1));
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
        self.heard.push((from, msg));
    }

    fn on_reset(&mut self) {
        *self = Self::default();
    }
}

/// A connected chain of `n` nodes at proptest-chosen positions.
fn chain(positions: &[(f64, f64)]) -> Topology {
    let mut b = TopologyBuilder::new(500.0);
    let ids: Vec<NodeId> = positions
        .iter()
        .map(|&(x, y)| b.add_node(Point2::new(x, y)))
        .collect();
    for w in ids.windows(2) {
        b.link(w[0], w[1], LinkQos::uniform(1)).unwrap();
    }
    b.build()
}

/// One churn step: at `delay` µs after the previous step, node `node`
/// either powers off, or re-joins at a fresh position (a `Move` applied
/// at the same instant, just before the `Join`, so re-homing must use
/// the *new* position).
#[derive(Debug, Clone, Copy)]
struct ChurnOp {
    delay: u64,
    node: usize,
    rejoin_at: Option<(f64, f64)>,
}

fn churn_ops(n: usize) -> impl Strategy<Value = Vec<ChurnOp>> {
    let op = (
        0u64..200_000,
        0..n,
        prop_oneof![
            Just(None),
            ((0.0..500.0f64), (0.0..500.0f64)).prop_map(Some)
        ],
    )
        .prop_map(|(delay, node, rejoin_at)| ChurnOp {
            delay,
            node,
            rejoin_at,
        });
    proptest::collection::vec(op, 0..12)
}

/// Expands churn ops into absolute-time world events: `None` is a
/// `Leave`, `Some(pos)` a `Move` + `Join` pair at the same instant.
/// Normalized against tracked liveness — a "rejoin" drawn for a node
/// that is still up becomes a `Leave`, and a `Leave` for a node already
/// down is dropped — so `Join` always marks a *real* rejoin (a `Move`
/// of a live node never re-homes it, by design, and would weaken the
/// position assertion below).
fn world_events(n: usize, ops: &[ChurnOp]) -> Vec<(SimTime, WorldEvent)> {
    let mut at = 50_000u64;
    let mut active = vec![true; n];
    let mut out = Vec::new();
    for op in ops {
        at += op.delay;
        let t = SimTime::from_micros(at);
        let node = NodeId(op.node as u32);
        let up = &mut active[op.node];
        match op.rejoin_at {
            Some((x, y)) if !*up => {
                *up = true;
                out.push((
                    t,
                    WorldEvent::Move {
                        node,
                        to: Point2::new(x, y),
                    },
                ));
                out.push((t, WorldEvent::Join { node }));
            }
            _ if *up => {
                *up = false;
                out.push((t, WorldEvent::Leave { node }));
            }
            _ => {}
        }
    }
    out
}

fn run_sharded(
    topo: &Topology,
    seed: u64,
    shards: u32,
    window_us: Option<u64>,
    events: &[(SimTime, WorldEvent)],
) -> Simulator<Echo> {
    let mut sim = Simulator::with_shards(
        topo.clone(),
        RadioConfig::default(),
        seed,
        shards,
        |_, _| Echo::default(),
    );
    if let Some(w) = window_us {
        sim.set_window(SimDuration::from_micros(w));
    }
    sim.enable_trace(1 << 14);
    for &(t, ev) in events {
        sim.schedule_world(t, ev);
    }
    sim.run_for(SimDuration::from_millis(800));
    sim
}

type Fingerprint = (SimStats, Vec<(NodeId, Echo)>, Vec<TraceEvent>);

fn fingerprint(sim: &Simulator<Echo>) -> Fingerprint {
    (
        sim.stats(),
        sim.actors().map(|(id, a)| (id, a.clone())).collect(),
        sim.trace().unwrap().iter().copied().collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Partition invariant: after any churn history, every node is in
    /// exactly one shard, `shard_of` matches the member lists, and every
    /// *active* node's home shard covers its current position (initial
    /// placement for never-churned nodes, the rejoin position for
    /// re-homed ones — this op set only moves nodes at rejoin).
    #[test]
    fn shard_map_is_a_partition_under_churn(
        positions in proptest::collection::vec(((0.0..500.0f64), (0.0..500.0f64)), 2..16),
        shards in 1u32..6,
        ops in churn_ops(2),
    ) {
        let topo = chain(&positions);
        let n = topo.len();
        // Remap op node indices into range.
        let ops: Vec<ChurnOp> = ops
            .into_iter()
            .map(|op| ChurnOp { node: op.node % n, ..op })
            .collect();
        let sim = run_sharded(&topo, 7, shards, None, &world_events(n, &ops));

        // Every node appears in exactly one member list, at the slot
        // `shard_of` claims.
        let mut seen = vec![0u32; n];
        for s in 0..sim.shard_count() {
            for &m in sim.shard_members(s) {
                seen[m.index()] += 1;
                prop_assert_eq!(sim.shard_of(m), s, "shard_of disagrees with members");
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "not a partition: {:?}", seen);

        // Active nodes are homed where their position says they belong.
        for node in sim.world().nodes() {
            if sim.world().is_active(node) {
                let want = sim.shard_for_position(sim.world().position(node));
                prop_assert_eq!(
                    sim.shard_of(node), want,
                    "active node {} homed off-region", node.index()
                );
            }
        }
    }

    /// Order invariant: whatever the shard count and window width, the
    /// run's trace (and stats, and every actor's end state) is identical
    /// to the one-shard run's, and dispatch times are monotone.
    #[test]
    fn cross_shard_order_is_window_size_invariant(
        positions in proptest::collection::vec(((0.0..500.0f64), (0.0..500.0f64)), 2..10),
        shards in 1u32..5,
        window_us in 1u64..2_500,
        ops in churn_ops(2),
    ) {
        let topo = chain(&positions);
        let n = topo.len();
        let ops: Vec<ChurnOp> = ops
            .into_iter()
            .map(|op| ChurnOp { node: op.node % n, ..op })
            .collect();
        let events = world_events(n, &ops);

        let want = fingerprint(&run_sharded(&topo, 7, 1, None, &events));
        let got = fingerprint(&run_sharded(&topo, 7, shards, Some(window_us), &events));
        prop_assert_eq!(
            &got, &want,
            "{} shards, window {}µs diverge from the one-shard run", shards, window_us
        );

        // Dispatch order never runs backwards in time.
        let mut last = SimTime::ZERO;
        for ev in &got.2 {
            if ev.kind == TraceKind::Dispatched {
                prop_assert!(ev.time >= last, "time ran backwards");
                last = ev.time;
            }
        }
    }
}
