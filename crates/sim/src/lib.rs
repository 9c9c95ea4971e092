//! Deterministic discrete-event simulation engine for the `qolsr-rs`
//! reproduction of *"Towards an efficient QoS based selection of neighbors
//! in QOLSR"* (Khadar, Mitton, Simplot-Ryl — SN/ICDCS 2010).
//!
//! The paper evaluates with "our own C simulator that assumes an ideal MAC
//! layer, i.e. no interferences and no packet collisions". This crate is
//! the Rust equivalent, extended with the dynamic-topology machinery the
//! paper's MANET motivation calls for:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time;
//! * [`SimRng`] — a seedable xoshiro256\*\* generator with stream
//!   splitting, so every run is exactly reproducible independent of
//!   external crate versions;
//! * [`Simulator`] — the one engine: an actor-per-node event loop over a
//!   *mutable world* (`qolsr_graph::DynamicTopology`): actors receive
//!   timers and messages and emit effects through a [`Context`];
//!   scheduled `WorldEvent`s (link up/down, QoS drift, motion, node
//!   churn) interleave with actor events in the same deterministic
//!   `(time, sequence)` order. A node that leaves the network loses its
//!   pending timers and in-flight frames; on rejoin its actor is reset
//!   ([`Actor::on_reset`]) and restarted;
//! * [`ExecMode`] — how many spatial shards the engine runs on: nodes
//!   partition into stripes, each with its own timer wheel, stepping in
//!   bounded windows (in parallel when several shards have work) with a
//!   deterministic barrier merge; the observable schedule is
//!   byte-identical for every shard count (see [`shard`]);
//! * [`scenario`] — reusable mobility/churn models (random waypoint,
//!   Poisson churn, Gauss–Markov weight drift) that pre-generate a
//!   seed-deterministic world-event schedule for the engine;
//! * [`RadioConfig`] — the ideal-MAC radio: every transmission reaches all
//!   (or one of) the sender's *current* unit-disk neighbors after a
//!   configurable per-hop latency plus deterministic jitter, with no loss;
//! * [`traffic`] — data-plane primitives: seeded CBR/bursty flow
//!   generators, the bounded per-node transmit queue and per-flow
//!   delivery records (protocol crates own the actual forwarding; the
//!   engine counts data frames via [`Actor::is_data`] into the
//!   [`SimStats`] `data_*` fields);
//! * [`stats`] / [`trace`] — counters, histograms and an event trace ring
//!   buffer for debugging protocol behaviour.
//!
//! # Timer-wheel semantics
//!
//! Each shard's event queue is a slotted timer wheel
//! ([`queue`]): a ring of 1 ms buckets with `O(1)` hash-by-time inserts
//! covering the next ~8 s (the dominant horizon: periodic HELLO/TC and
//! sweep timers, millisecond radio deliveries), an overflow heap for
//! anything beyond the ring, and three sorted sources for the slot
//! window currently being consumed. That window is not small: each
//! window's last look ahead drains the slot holding the window end, so
//! the barrier's deliveries land behind it — 26.8 M of the 29.0 M
//! pushes of a `flood-1000` benchmark run (seed 1, 20 s), and 3.65 M of
//! 6.58 M on `mobile-traffic-500`. The barrier commits in `(time, seq)`
//! order, so those arrive ascending and queue in a deque; the drained
//! slot is sorted once; only out-of-order pushes (provisional in-window
//! timers, jittered deliveries: none on `flood-1000`, 11 387 on
//! `mobile-traffic-500`) go to a heap. A pop takes the smallest of the
//! three heads. Pop order is **exactly** `(time, sequence)` — identical
//! to a plain binary heap, which is why the wheel replaced the heap
//! without perturbing a single seeded replay. The crate's
//! `queue_properties` suite pins the wheel against a test-only
//! `BinaryHeap`, on arbitrary and on engine-shaped window/barrier
//! histories, and `tests/scheduler_differential.rs` replays
//! whole-network runs recorded from the heap scheduler before it was
//! deleted.
//!
//! # Determinism contract
//!
//! Every run is a pure function of its inputs: the construction seed
//! feeds one [`SimRng`] that splits into per-node streams, world events
//! apply at fixed scheduled instants, and simultaneous events dispatch in
//! schedule order. Two simulators built with equal
//! `(topology, radio, seed)` therefore replay byte-identically
//! — same stats, same traces, same end state — on any machine, and at
//! any shard count. Experiment harnesses extend the contract to
//! *thread-count invariance*: runs are sharded, but per-run results are
//! merged in run order, so aggregates never depend on worker count.
//!
//! # Examples
//!
//! Seeded replays are exact — the engine's statistics (and everything
//! else) are a pure function of the seed:
//!
//! ```
//! use qolsr_graph::{NodeId, Point2, TopologyBuilder};
//! use qolsr_metrics::LinkQos;
//! use qolsr_sim::{Actor, Context, RadioConfig, SimDuration, Simulator, TimerId};
//!
//! struct Echo;
//! impl Actor for Echo {
//!     type Msg = u8;
//!     fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
//!         ctx.set_timer(SimDuration::from_millis(10), TimerId(1));
//!     }
//!     fn on_timer(&mut self, ctx: &mut Context<'_, u8>, _t: TimerId) {
//!         ctx.broadcast(1);
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_, u8>, _from: NodeId, _m: u8) {}
//! }
//!
//! let topo = || {
//!     let mut b = TopologyBuilder::new(10.0);
//!     let a = b.add_node(Point2::new(0.0, 0.0));
//!     let c = b.add_node(Point2::new(5.0, 0.0));
//!     b.link(a, c, LinkQos::uniform(1)).unwrap();
//!     b.build()
//! };
//! let run = |seed: u64| {
//!     let mut sim = Simulator::new(topo(), RadioConfig::default(), seed, |_| Echo);
//!     sim.run_for(SimDuration::from_secs(1));
//!     sim.stats()
//! };
//! assert_eq!(run(9), run(9), "equal seeds replay byte-identically");
//! ```
//!
//! A two-node ping/pong:
//!
//! ```
//! use qolsr_graph::{NodeId, Point2, TopologyBuilder};
//! use qolsr_metrics::LinkQos;
//! use qolsr_sim::{Actor, Context, RadioConfig, SimDuration, Simulator, TimerId};
//!
//! struct Ping { got: u32 }
//! impl Actor for Ping {
//!     type Msg = u32;
//!     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
//!         if ctx.node_id() == NodeId(0) {
//!             ctx.broadcast(1);
//!         }
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Context<'_, u32>, _t: TimerId) {}
//!     fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: NodeId, m: u32) {
//!         self.got = m;
//!         if m < 3 {
//!             ctx.broadcast(m + 1);
//!         }
//!     }
//! }
//!
//! let mut b = TopologyBuilder::new(10.0);
//! let a = b.add_node(Point2::new(0.0, 0.0));
//! let c = b.add_node(Point2::new(5.0, 0.0));
//! b.link(a, c, LinkQos::uniform(1)).unwrap();
//!
//! let mut sim = Simulator::new(b.build(), RadioConfig::default(), 42, |_| Ping { got: 0 });
//! sim.run_until(qolsr_sim::SimTime::ZERO + SimDuration::from_secs(1));
//! assert_eq!(sim.actor(a).got, 2); // node 0 got the pong "2"
//! assert_eq!(sim.actor(c).got, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod queue;
mod rng;
pub mod scenario;
pub mod shard;
pub mod stats;
mod time;
pub mod trace;
pub mod traffic;

pub use engine::{
    Actor, Context, CorruptionParams, FrameCorruption, FrameDamage, LossyPhy, PhyModel,
    RadioConfig, SimStats, TimerId,
};
pub use queue::SchedulerKind;
pub use rng::SimRng;
pub use scenario::{apply_recorded, MobilityModel, Scenario, ScenarioBuilder};
pub use shard::{ExecMode, Simulator};
pub use time::{SimDuration, SimTime};

/// FNV-1a over a rendered run: the hash the unit tests record their
/// golden fingerprints in.
#[cfg(test)]
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
pub use traffic::{
    DataPacket, DropCause, FlowModel, FlowRecord, FlowSpec, FlowState, TrafficStats, TxQueue,
    TxQueueConfig, TRAFFIC_STREAM_SALT,
};
