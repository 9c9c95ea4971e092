//! The simulation engine: one event loop over spatial shards, stepped in
//! bounded windows with a deterministic barrier merge.
//!
//! [`Simulator`] partitions the node population into `K` shards by
//! vertical stripes over the deployment's x-extent (the same spatial
//! locality the grid-based neighbor discovery exploits) — one shard
//! unless built with [`Simulator::with_shards`] — gives each shard a
//! private [`TimerWheel`] event queue, and advances virtual time in
//! bounded windows:
//!
//! * **Window** — every shard with work due in the window `[t0, t1)`
//!   steps through it, each on its own scoped thread
//!   (`crossbeam::thread::scope` from `vendor/`) when more than one shard
//!   has work. The window width never exceeds the radio latency, so a
//!   frame sent inside a window is always due at or after the window's
//!   end — shards can run a whole window without observing each other.
//!   Each dispatch appends a record and its children (the timers and
//!   frames it created) to the shard's log; self-timers that land inside
//!   the window execute locally under *provisional* sequence numbers
//!   (high bit set).
//! * **Barrier** — a k-way merge walks the logs in globally sorted
//!   `(time, seq)` order (each log is already sorted, because local
//!   dispatch order equals the global order restricted to that shard)
//!   and commits each record: it appends the dispatch to the trace,
//!   assigns exact sequence numbers to the record's children in creation
//!   order (resolving the provisional ones), draws each delivery's jitter
//!   from the one engine stream and routes deliveries to their receivers'
//!   home shards.
//! * **Serial instants** — scheduled [`WorldEvent`]s are barriers by
//!   construction: everything due at such an instant is dispatched in
//!   exact `(time, seq)` order, each record committed at once by the same
//!   commit step (so zero-delay effect chains run at that instant), and a
//!   rejoining node whose position now lies in another stripe is re-homed
//!   there ([`Actor::on_rehome`] runs after [`Actor::on_reset`]). A
//!   zero-latency radio degrades every instant to this serial path —
//!   correct, but with nothing left to parallelize.
//!
//! # Determinism contract
//!
//! A run is **byte-identical for every shard count** — engine stats,
//! dispatch traces, per-node RNG streams and actor end states, with or
//! without radio jitter — because every order-dependent step (sequence
//! numbers, trace records, jitter draws) happens at commit, in global
//! `(time, seq)` order. That order and that jitter draw order are the
//! ones of the single-queue event loop this engine replaced: goldens
//! recorded from that loop pin every shard count in this module's tests,
//! and `tests/shard_differential.rs` pins whole OLSR networks at `K > 1`
//! against the one-shard run.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use qolsr_graph::{DynamicTopology, NodeId, Point2, Topology, WorldEvent};

use crate::engine::{
    corrupt_streams, loss_streams, Actor, Context, Effect, EventKind, FrameCorruption, FrameDamage,
    PhyModel, RadioConfig, Scheduled, SimStats, TimerId,
};
use crate::queue::TimerWheel;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceBuffer, TraceEvent, TraceKind};

/// How many spatial shards a simulation runs on.
///
/// Both variants run the one engine, [`Simulator`]: `SingleShard` (the
/// default) is one shard, and `Sharded { shards }` partitions the nodes
/// into `shards` spatial stripes that step through each window in
/// parallel. Every observable is identical for every shard count (see the
/// [module docs](self) for the contract), so the mode is a performance
/// knob, never a semantics knob.
///
/// # Examples
///
/// A seeded two-shard run replays the one-shard run exactly:
///
/// ```
/// use qolsr_graph::{NodeId, Point2, TopologyBuilder};
/// use qolsr_metrics::LinkQos;
/// use qolsr_sim::{
///     Actor, Context, ExecMode, RadioConfig, SimDuration, Simulator, TimerId,
/// };
///
/// struct Beacon;
/// impl Actor for Beacon {
///     type Msg = u32;
///     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
///         ctx.broadcast(ctx.node_id().0);
///         ctx.set_timer(SimDuration::from_millis(100), TimerId(0));
///     }
///     fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _t: TimerId) {
///         ctx.broadcast(ctx.node_id().0);
///         ctx.set_timer(SimDuration::from_millis(100), TimerId(0));
///     }
///     fn on_message(&mut self, _ctx: &mut Context<'_, u32>, _from: NodeId, _msg: u32) {}
/// }
///
/// let mut b = TopologyBuilder::new(10.0);
/// let n0 = b.add_node(Point2::new(0.0, 0.0));
/// let n1 = b.add_node(Point2::new(5.0, 0.0));
/// let n2 = b.add_node(Point2::new(9.0, 0.0));
/// b.link(n0, n1, LinkQos::uniform(1)).unwrap();
/// b.link(n1, n2, LinkQos::uniform(1)).unwrap();
/// let topo = b.build();
///
/// assert_eq!(ExecMode::default(), ExecMode::SingleShard);
/// let mode = ExecMode::Sharded { shards: 2 };
///
/// let mut one = Simulator::new(topo.clone(), RadioConfig::default(), 7, |_| Beacon);
/// one.run_for(SimDuration::from_secs(2));
///
/// let radio = RadioConfig::default();
/// let mut two = Simulator::with_shards(topo, radio, 7, mode.shards(), |_, _| Beacon);
/// two.run_for(SimDuration::from_secs(2));
///
/// assert_eq!(two.shard_count(), 2);
/// assert_eq!(one.stats(), two.stats());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One shard.
    #[default]
    SingleShard,
    /// The given number of spatial shards (clamped to at least 1).
    Sharded {
        /// Number of spatial shards.
        shards: u32,
    },
}

impl ExecMode {
    /// The shard count this mode runs with (`1` for `SingleShard`).
    pub fn shards(&self) -> u32 {
        match self {
            ExecMode::SingleShard => 1,
            ExecMode::Sharded { shards } => (*shards).max(1),
        }
    }
}

/// Marker bit of a provisional in-window sequence number. Provisional
/// numbers sort after every committed number at the same instant — which
/// matches the exact numbering, where an event created in the current
/// window necessarily receives a larger number than anything scheduled
/// before the window started.
const PROVISIONAL: u64 = 1 << 63;

/// Static x-stripe partition of the deployment area. A node's *home
/// shard* is the stripe covering its current position; re-homing happens
/// only when a node rejoins after churn (scheduling locality is a
/// performance concern, not a correctness one, so plain motion does not
/// migrate actors mid-life).
#[derive(Debug, Clone, Copy)]
struct RegionMap {
    min_x: f64,
    /// `shards / width` of the initial deployment's x-extent; `0.0`
    /// collapses everything into shard 0 (single shard or degenerate
    /// deployment).
    inv_stripe: f64,
    shards: u32,
}

impl RegionMap {
    fn new(world: &DynamicTopology, shards: usize) -> Self {
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        for node in world.nodes() {
            let x = world.position(node).x;
            min_x = min_x.min(x);
            max_x = max_x.max(x);
        }
        let width = max_x - min_x;
        let usable = width.is_finite() && width > 0.0 && shards > 1;
        Self {
            min_x: if min_x.is_finite() { min_x } else { 0.0 },
            inv_stripe: if usable { shards as f64 / width } else { 0.0 },
            shards: shards as u32,
        }
    }

    fn shard_of(&self, p: Point2) -> usize {
        if self.inv_stripe == 0.0 {
            return 0;
        }
        let stripe = ((p.x - self.min_x) * self.inv_stripe).floor();
        (stripe.max(0.0) as usize).min(self.shards as usize - 1)
    }
}

/// One dispatch (a handler ran), in local order.
#[derive(Clone, Copy)]
struct DispatchRecord {
    time: SimTime,
    /// The dispatched event's sequence number — exact, or provisional
    /// (high bit) for a timer that was both created and fired within the
    /// window.
    seq: u64,
    node: NodeId,
    /// Exclusive end index of this record's children in the shard's
    /// flat child log (the start is the previous record's end).
    children_end: u32,
}

/// An event a dispatch created, awaiting its exact sequence number at
/// commit.
enum Child<M> {
    /// A self-timer due within the window: already pushed into the local
    /// queue under the next provisional number; the commit maps that
    /// number to an exact one.
    LocalTimer,
    /// A self-timer due at or after the window end.
    Timer { at: SimTime, timer: TimerId },
    /// A frame to `to`, sent at its record's time. The commit adds
    /// `latency + jitter`, so it lands at or after the window end (the
    /// window is never wider than the latency, and jitter is never
    /// negative).
    Deliver { to: NodeId, msg: M },
}

/// The radio's verdict on one transmission.
enum InFlight<M> {
    /// Deliver the original frame untouched.
    Intact,
    /// Deliver this damaged copy instead.
    Damaged(M),
    /// Lost in flight: dropped by the PHY, or damaged and caught by the
    /// link-layer frame check.
    Lost,
}

/// The engine state every shard reads during a window and none mutates:
/// world events, generation bumps and re-homing only happen between
/// windows.
#[derive(Clone, Copy)]
struct Frozen<'a> {
    world: &'a DynamicTopology,
    generations: &'a [u32],
    locs: &'a [(u32, u32)],
    radio: RadioConfig,
}

/// One spatial shard: its member actors and their RNG streams, a private
/// event queue, its counters, and the dispatch log the commit consumes.
struct Shard<A: Actor> {
    queue: TimerWheel<Scheduled<A::Msg>>,
    /// Member node ids; `actors[i]`, `rngs[i]` and the per-node PHY state
    /// at `i` belong to `members[i]`.
    members: Vec<NodeId>,
    actors: Vec<A>,
    rngs: Vec<SimRng>,
    /// Per-node PHY loss streams (see [`loss_streams`]); empty under
    /// [`PhyModel::Ideal`].
    loss_rngs: Vec<SimRng>,
    /// Per-node frame-corruption streams (see [`corrupt_streams`]); empty
    /// under [`FrameCorruption::Off`].
    corrupt_rngs: Vec<SimRng>,
    /// Per-node receiver-capture state for the collision model; empty
    /// unless the PHY is lossy.
    busy_until: Vec<SimTime>,
    /// Dispatch log since the last barrier, in local dispatch order.
    records: Vec<DispatchRecord>,
    /// How many of `records` the running barrier walk has committed.
    committed: usize,
    /// Flat per-record child log (see [`DispatchRecord::children_end`]).
    children: Vec<Child<A::Msg>>,
    /// Provisional numbers handed out since the last barrier.
    provisional: u64,
    /// Provisional number -> exact number, filled by the barrier walk in
    /// provisional-assignment order.
    prov_map: Vec<u64>,
    /// Effect scratch buffer for handler invocations.
    effects: Vec<Effect<A::Msg>>,
    /// Counters of this shard's dispatches; [`Simulator::stats`] adds up
    /// every shard's (all fields are order-independent sums).
    stats: SimStats,
}

impl<A: Actor> Shard<A> {
    fn new() -> Self {
        Self {
            queue: TimerWheel::new(),
            members: Vec::new(),
            actors: Vec::new(),
            rngs: Vec::new(),
            loss_rngs: Vec::new(),
            corrupt_rngs: Vec::new(),
            busy_until: Vec::new(),
            records: Vec::new(),
            committed: 0,
            children: Vec::new(),
            provisional: 0,
            prov_map: Vec::new(),
            effects: Vec::new(),
            stats: SimStats::default(),
        }
    }

    /// Appends `node` as a member, with its actor and streams (a loss
    /// stream comes with a fresh capture state).
    fn admit(
        &mut self,
        node: NodeId,
        actor: A,
        rng: SimRng,
        loss: Option<SimRng>,
        corrupt: Option<SimRng>,
    ) {
        self.members.push(node);
        self.actors.push(actor);
        self.rngs.push(rng);
        if let Some(loss) = loss {
            self.loss_rngs.push(loss);
            self.busy_until.push(SimTime::ZERO);
        }
        self.corrupt_rngs.extend(corrupt);
    }

    /// Dispatches everything this shard has due before `end`.
    fn run_window(&mut self, f: Frozen<'_>, end: u64) {
        // `end` exceeds the window's first due instant, so `end - 1`
        // cannot wrap.
        while let Some(ev) = self.queue.pop_due_by(end - 1) {
            self.dispatch(ev, f, end);
        }
    }

    /// Dispatches one event popped from this shard's queue. The event is
    /// dropped if it belongs to a previous node life, crosses an active
    /// partition or collides at the receiver; otherwise its handler runs,
    /// each transmission is sampled by the radio, and the dispatch record
    /// with its children joins the log. A timer due before `end` goes
    /// straight back into the queue under a provisional number.
    fn dispatch(&mut self, ev: Scheduled<A::Msg>, f: Frozen<'_>, end: u64) {
        let node = ev.node;
        let data = matches!(&ev.kind, EventKind::Deliver { msg, .. } if A::is_data(msg));
        self.stats.events += 1;
        // Events of a previous node life (armed before a `Leave` or a
        // `Crash`) are dropped: the node's timers died with it, and
        // in-flight frames have no receiver.
        if ev.generation != f.generations[node.index()] {
            self.stats.stale_dropped += 1;
            self.stats.data_stale_drops += u64::from(data);
            return;
        }
        let slot = f.locs[node.index()].1 as usize;
        debug_assert_eq!(self.members[slot], node);
        if let EventKind::Deliver { from, .. } = &ev.kind {
            // An active partition drops cross-cut frames at dispatch —
            // including frames already in flight when the cut landed —
            // and leaves no mark on the receiver (checked before the
            // capture window, which a never-received frame cannot occupy).
            if f.world.partitioned(*from, node) {
                self.stats.partition_drops += 1;
                self.stats.data_partition_drops += u64::from(data);
                return;
            }
            // Receiver capture: a frame landing inside the busy window of
            // a previously received frame collides and is lost before the
            // actor sees it (like a stale drop, it leaves no trace
            // record).
            if let (PhyModel::Lossy(lossy), Some(busy)) =
                (f.radio.phy, self.busy_until.get_mut(slot))
            {
                if lossy.collides(ev.time, busy) {
                    self.stats.collisions += 1;
                    self.stats.data_collisions += u64::from(data);
                    return;
                }
            }
        }
        let mut effects = std::mem::take(&mut self.effects);
        let mut ctx = Context {
            now: ev.time,
            node,
            world: f.world,
            rng: &mut self.rngs[slot],
            effects: &mut effects,
        };
        let actor = &mut self.actors[slot];
        match ev.kind {
            EventKind::Start => actor.on_start(&mut ctx),
            EventKind::Timer(t) => {
                self.stats.timers += 1;
                actor.on_timer(&mut ctx, t);
            }
            EventKind::Deliver { from, msg } => {
                self.stats.deliveries += 1;
                self.stats.data_deliveries += u64::from(data);
                actor.on_message(&mut ctx, from, msg);
            }
        }
        for effect in effects.drain(..) {
            match effect {
                Effect::Broadcast(msg) => {
                    self.stats.broadcasts += 1;
                    for (to, _) in f.world.neighbors(node) {
                        let msg = match self.transmit(f, slot, to, &msg, false) {
                            InFlight::Intact => msg.clone(),
                            InFlight::Damaged(damaged) => damaged,
                            InFlight::Lost => continue,
                        };
                        self.children.push(Child::Deliver { to, msg });
                    }
                }
                Effect::Unicast(to, msg) => {
                    self.stats.unicasts += 1;
                    let data = A::is_data(&msg);
                    self.stats.data_unicasts += u64::from(data);
                    if !f.world.has_link(node, to) {
                        self.stats.dropped_unicasts += 1;
                        self.stats.data_no_link_drops += u64::from(data);
                        continue;
                    }
                    let msg = match self.transmit(f, slot, to, &msg, data) {
                        InFlight::Intact => msg,
                        InFlight::Damaged(damaged) => damaged,
                        InFlight::Lost => continue,
                    };
                    self.children.push(Child::Deliver { to, msg });
                }
                Effect::Timer(after, timer) => {
                    let at = ev.time + after;
                    if at.as_micros() < end {
                        self.queue.push(Scheduled {
                            time: at,
                            seq: PROVISIONAL | self.provisional,
                            node,
                            generation: ev.generation,
                            kind: EventKind::Timer(timer),
                        });
                        self.provisional += 1;
                        self.children.push(Child::LocalTimer);
                    } else {
                        self.children.push(Child::Timer { at, timer });
                    }
                }
            }
        }
        self.effects = effects;
        self.records.push(DispatchRecord {
            time: ev.time,
            seq: ev.seq,
            node,
            children_end: self.children.len() as u32,
        });
    }

    /// Samples the radio for one transmission of `msg` from member `slot`
    /// to `to`: first the PHY (one draw from the sender's loss stream per
    /// attempt under [`PhyModel::Lossy`], even at probability zero), then,
    /// if the frame survives, the corruption injector (one gate draw from
    /// the sender's corruption stream under [`FrameCorruption::On`]; when
    /// it hits, the damage draws and one frame-check draw follow). Stream
    /// positions stay a pure function of the sender's send history, so
    /// they are identical at every shard count. Counts every loss, and its
    /// `data_*` subset when `data` is set; `corrupted_frames` counts only
    /// damage that will actually arrive (message types opaque to
    /// [`Actor::corrupt_frame`] pass intact).
    fn transmit(
        &mut self,
        f: Frozen<'_>,
        slot: usize,
        to: NodeId,
        msg: &A::Msg,
        data: bool,
    ) -> InFlight<A::Msg> {
        if let (PhyModel::Lossy(lossy), Some(rng)) = (f.radio.phy, self.loss_rngs.get_mut(slot)) {
            let d = f
                .world
                .position(self.members[slot])
                .distance(f.world.position(to));
            if rng.next_f64() < lossy.drop_probability(d, f.world.radius()) {
                self.stats.phy_drops += 1;
                self.stats.data_phy_drops += u64::from(data);
                return InFlight::Lost;
            }
        }
        let (FrameCorruption::On(params), Some(rng)) =
            (f.radio.corruption, self.corrupt_rngs.get_mut(slot))
        else {
            return InFlight::Intact;
        };
        if rng.next_f64() >= f64::from(params.corrupt_ppm) / 1e6 {
            return InFlight::Intact;
        }
        let damage = FrameDamage::sample(&params, rng);
        if rng.next_f64() >= f64::from(params.fcs_evade_ppm) / 1e6 {
            self.stats.fcs_drops += 1;
            self.stats.data_fcs_drops += u64::from(data);
            return InFlight::Lost;
        }
        match A::corrupt_frame(msg, &damage) {
            Some(damaged) => {
                self.stats.corrupted_frames += 1;
                InFlight::Damaged(damaged)
            }
            None => InFlight::Intact,
        }
    }
}

/// A scheduled world event; kept outside the shard queues because world
/// mutation is a global barrier. Ordered by `(time, seq)` like every
/// other event.
struct WorldItem {
    time: SimTime,
    seq: u64,
    event: WorldEvent,
}

impl PartialEq for WorldItem {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for WorldItem {}
impl PartialOrd for WorldItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WorldItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap, we want the earliest.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The discrete-event simulator: one [`Actor`] per topology node, spread
/// over spatial shards with an event queue each, scheduled
/// [`WorldEvent`]s interleaved with actor events by `(time, sequence)`,
/// and the ideal-MAC radio over the resulting [`DynamicTopology`]. See
/// the [module docs](self) for the window/barrier algorithm.
///
/// Determinism: all randomness flows from the construction seed (each
/// node receives a split stream, and the rest of the engine stream draws
/// delivery jitter), world events apply at fixed scheduled instants, and
/// simultaneous events dispatch in schedule order, so identical inputs
/// yield identical executions — at every shard count.
pub struct Simulator<A: Actor> {
    world: DynamicTopology,
    radio: RadioConfig,
    region: RegionMap,
    shards: Vec<Shard<A>>,
    /// Per node: `(home shard, slot within the shard)`.
    locs: Vec<(u32, u32)>,
    /// Per-node lifetime counters, bumped when the node leaves or crashes
    /// so pending events of the old life are dropped at dispatch. Only
    /// mutated between windows, so shards read them as a frozen slice.
    generations: Vec<u32>,
    /// The engine stream, left over after the per-node splits: delivery
    /// jitter, drawn at commit.
    engine_rng: SimRng,
    world_queue: BinaryHeap<WorldItem>,
    now: SimTime,
    seq: u64,
    /// World-event counters; the dispatch counters live in the shards.
    stats: SimStats,
    trace: Option<TraceBuffer>,
    /// Window width in µs; at most the radio latency (the lookahead
    /// bound), `0` iff the latency is zero (serial instants only).
    window_micros: u64,
    /// Scratch for the serial-instant batch.
    instant_scratch: Vec<Scheduled<A::Msg>>,
}

impl<A: Actor> Simulator<A> {
    /// Creates a one-shard simulator over `topology`, building one actor
    /// per node with `build`, and schedules every actor's start event at
    /// time 0.
    pub fn new(
        topology: Topology,
        radio: RadioConfig,
        seed: u64,
        mut build: impl FnMut(NodeId) -> A,
    ) -> Self {
        Self::with_shards(topology, radio, seed, 1, |id, _| build(id))
    }

    /// Like [`Simulator::new`], with `shards` spatial stripes (clamped to
    /// `1..=node count`); `build(node, home_shard)` runs in node-id
    /// order. Every shard count replays the same run.
    pub fn with_shards(
        topology: Topology,
        radio: RadioConfig,
        seed: u64,
        shards: u32,
        mut build: impl FnMut(NodeId, usize) -> A,
    ) -> Self {
        let mut engine_rng = SimRng::seed_from_u64(seed);
        let n = topology.len();
        let k = (shards.max(1) as usize).min(n.max(1));
        let world = DynamicTopology::new(&topology);
        let region = RegionMap::new(&world, k);

        // Actors in node order first, then one RNG split per node; the
        // rest of the engine stream draws delivery jitter. The loss and
        // corruption streams come from their own salted masters, one per
        // node in node order (none under the ideal PHY or with
        // corruption off).
        let actors: Vec<A> = topology
            .nodes()
            .map(|id| build(id, region.shard_of(world.position(id))))
            .collect();
        let rngs: Vec<SimRng> = (0..n).map(|_| engine_rng.split()).collect();
        let mut loss = loss_streams(seed, n, radio.phy).into_iter();
        let mut corrupt = corrupt_streams(seed, n, radio.corruption).into_iter();
        let mut shard_vec: Vec<Shard<A>> = (0..k).map(|_| Shard::new()).collect();
        let mut locs = Vec::with_capacity(n);
        for (i, (actor, rng)) in actors.into_iter().zip(rngs).enumerate() {
            let node = NodeId(i as u32);
            let home = region.shard_of(world.position(node));
            let shard = &mut shard_vec[home];
            locs.push((home as u32, shard.members.len() as u32));
            shard.admit(node, actor, rng, loss.next(), corrupt.next());
        }

        let mut sim = Self {
            world,
            radio,
            region,
            shards: shard_vec,
            locs,
            generations: vec![0; n],
            engine_rng,
            world_queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            stats: SimStats::default(),
            trace: None,
            window_micros: radio.latency.as_micros(),
            instant_scratch: Vec::new(),
        };
        for i in 0..n {
            sim.push(SimTime::ZERO, NodeId(i as u32), EventKind::Start);
        }
        sim
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        debug_assert!(s < PROVISIONAL, "sequence space exhausted");
        s
    }

    /// Pushes an event of `node`'s current life, under the next exact
    /// sequence number, into its home shard's queue.
    fn push(&mut self, time: SimTime, node: NodeId, kind: EventKind<A::Msg>) {
        let seq = self.next_seq();
        let home = self.locs[node.index()].0 as usize;
        self.shards[home].queue.push(Scheduled {
            time,
            seq,
            node,
            generation: self.generations[node.index()],
            kind,
        });
    }

    /// Schedules a world event for application at virtual time `at`
    /// (clamped to now). Events scheduled for the same instant apply in
    /// scheduling order, interleaved with actor events by `(time, seq)`.
    pub fn schedule_world(&mut self, at: SimTime, event: WorldEvent) {
        let at = at.max(self.now);
        let seq = self.next_seq();
        self.world_queue.push(WorldItem {
            time: at,
            seq,
            event,
        });
    }

    /// Schedules a whole stream of timed world events (e.g. a generated
    /// scenario schedule).
    pub fn schedule_world_events(
        &mut self,
        events: impl IntoIterator<Item = (SimTime, WorldEvent)>,
    ) {
        for (at, ev) in events {
            self.schedule_world(at, ev);
        }
    }

    /// Schedules delivery of a raw frame from `from` to `to` after
    /// `after`, bypassing the radio (no neighbor check, no PHY sampling).
    /// A fault-injection/test hook: robustness suites use it to feed a
    /// node arbitrary — including garbage — frames through the real
    /// dispatch path.
    pub fn inject_frame(&mut self, after: SimDuration, from: NodeId, to: NodeId, msg: A::Msg) {
        let at = self.now + after;
        self.push(at, to, EventKind::Deliver { from, msg });
    }

    /// Enables event tracing with the given ring-buffer capacity. Trace
    /// records are emitted at commit, in global dispatch order.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceBuffer::new(capacity));
    }

    /// The trace buffer, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Engine statistics so far, summed over the shards.
    pub fn stats(&self) -> SimStats {
        let mut total = self.stats;
        for shard in &self.shards {
            total.merge(&shard.stats);
        }
        total
    }

    /// The simulated world (current ground truth).
    pub fn world(&self) -> &DynamicTopology {
        &self.world
    }

    /// Mutable access to the world, for out-of-band mutation between
    /// `run_*` calls (scheduled [`WorldEvent`]s via
    /// [`Simulator::schedule_world`] are the deterministic way to change
    /// the world mid-run).
    pub fn world_mut(&mut self) -> &mut DynamicTopology {
        &mut self.world
    }

    /// Number of node slots.
    pub fn node_count(&self) -> usize {
        self.locs.len()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The home shard of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn shard_of(&self, n: NodeId) -> usize {
        self.locs[n.index()].0 as usize
    }

    /// The shard whose x-stripe covers position `p` — where a node at
    /// `p` would be (re-)homed.
    pub fn shard_for_position(&self, p: Point2) -> usize {
        self.region.shard_of(p)
    }

    /// Member node ids of shard `shard`, in slot order.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_members(&self, shard: usize) -> &[NodeId] {
        &self.shards[shard].members
    }

    /// Overrides the window width (testing support: the shard
    /// proptests sweep arbitrary widths). Clamped into
    /// `[1 µs, radio latency]` — wider than the latency would break the
    /// lookahead bound; with a zero-latency radio the width stays 0 and
    /// every instant runs serially.
    pub fn set_window(&mut self, window: SimDuration) {
        let latency = self.radio.latency.as_micros();
        self.window_micros = window.as_micros().clamp(1, latency.max(1)).min(latency);
    }

    /// Immutable access to the actor of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn actor(&self, n: NodeId) -> &A {
        let (shard, slot) = self.locs[n.index()];
        &self.shards[shard as usize].actors[slot as usize]
    }

    /// Mutable access to the actor of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn actor_mut(&mut self, n: NodeId) -> &mut A {
        let (shard, slot) = self.locs[n.index()];
        &mut self.shards[shard as usize].actors[slot as usize]
    }

    /// Iterates over `(id, actor)` pairs in node-id order.
    pub fn actors(&self) -> impl Iterator<Item = (NodeId, &A)> {
        self.locs.iter().enumerate().map(|(i, &(shard, slot))| {
            (
                NodeId(i as u32),
                &self.shards[shard as usize].actors[slot as usize],
            )
        })
    }

    /// Commits every shard's dispatch log in globally sorted
    /// `(time, seq)` order — a k-way merge of the already sorted logs —
    /// then clears the logs.
    fn barrier(&mut self) {
        loop {
            let mut best: Option<(u64, u64, usize)> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                let Some(rec) = shard.records.get(shard.committed) else {
                    continue;
                };
                // Resolve a provisional head: the record that created it
                // is earlier in the same log, hence already committed.
                let seq = if rec.seq & PROVISIONAL != 0 {
                    shard.prov_map[(rec.seq & !PROVISIONAL) as usize]
                } else {
                    rec.seq
                };
                let key = (rec.time.as_micros(), seq, i);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            let Some((_, _, i)) = best else { break };
            let shard = &mut self.shards[i];
            let first = match shard.committed {
                0 => 0,
                c => shard.records[c - 1].children_end as usize,
            };
            let rec = shard.records[shard.committed];
            shard.committed += 1;
            self.commit(i, rec, first);
        }
        for shard in &mut self.shards {
            shard.records.clear();
            shard.committed = 0;
            shard.children.clear();
            shard.provisional = 0;
            shard.prov_map.clear();
        }
    }

    /// Commits one dispatch record of shard `i`, whose children start at
    /// `first` in the shard's child log: traces the dispatch, then gives
    /// each child the next exact sequence number in creation order. A
    /// local timer just records its number; a timer joins its node's
    /// queue; a frame draws its jitter from the engine stream and joins
    /// its receiver's home queue.
    fn commit(&mut self, i: usize, rec: DispatchRecord, first: usize) {
        if let Some(trace) = &mut self.trace {
            trace.record(TraceEvent {
                time: rec.time,
                node: rec.node,
                kind: TraceKind::Dispatched,
            });
        }
        for ci in first..rec.children_end as usize {
            // Move the child out; `LocalTimer` doubles as the cheap
            // placeholder so the log keeps its allocation.
            match std::mem::replace(&mut self.shards[i].children[ci], Child::LocalTimer) {
                Child::LocalTimer => {
                    let exact = self.next_seq();
                    self.shards[i].prov_map.push(exact);
                }
                Child::Timer { at, timer } => self.push(at, rec.node, EventKind::Timer(timer)),
                Child::Deliver { to, msg } => {
                    let at = rec.time + self.delivery_delay();
                    self.push(
                        at,
                        to,
                        EventKind::Deliver {
                            from: rec.node,
                            msg,
                        },
                    );
                }
            }
        }
    }

    /// The radio latency plus a uniform jitter drawn from the engine
    /// stream. Commits call this in global `(time, seq)` order, so the
    /// draws are the same at every shard count.
    fn delivery_delay(&mut self) -> SimDuration {
        let jitter_us = self.radio.jitter.as_micros();
        if jitter_us == 0 {
            self.radio.latency
        } else {
            self.radio.latency + SimDuration::from_micros(self.engine_rng.next_below(jitter_us))
        }
    }

    /// Dispatches everything due at exactly `t` in `(time, seq)` order —
    /// world events interleaved with actor events, including zero-delay
    /// effect chains landing back at `t` — committing each record at
    /// once.
    fn run_instant(&mut self, t: SimTime) {
        self.now = t;
        let t_us = t.as_micros();
        let mut batch = std::mem::take(&mut self.instant_scratch);
        loop {
            // Nothing is due before `t`: it is the earliest instant
            // queued, and dispatches at `t` schedule nothing earlier.
            for shard in &mut self.shards {
                while let Some(ev) = shard.queue.pop_due_by(t_us) {
                    batch.push(ev);
                }
            }
            let world_due = self.world_queue.peek().is_some_and(|w| w.time == t);
            if batch.is_empty() && !world_due {
                break;
            }
            batch.sort_unstable_by_key(|e| e.seq);
            let mut events = batch.drain(..).peekable();
            loop {
                let world_seq = self
                    .world_queue
                    .peek()
                    .filter(|w| w.time == t)
                    .map(|w| w.seq);
                let world_first = match (events.peek(), world_seq) {
                    (None, None) => break,
                    (ev, Some(ws)) => ev.is_none_or(|ev| ws < ev.seq),
                    (Some(_), None) => false,
                };
                if world_first {
                    let item = self.world_queue.pop().expect("peeked world item");
                    self.stats.events += 1;
                    self.apply_world_event(item.event);
                } else {
                    let ev = events.next().expect("peeked actor event");
                    let home = self.locs[ev.node.index()].0 as usize;
                    let f = Frozen {
                        world: &self.world,
                        generations: &self.generations,
                        locs: &self.locs,
                        radio: self.radio,
                    };
                    self.shards[home].dispatch(ev, f, t_us);
                    self.barrier();
                }
            }
        }
        self.instant_scratch = batch;
    }

    /// Applies one world event between windows: mutates the world, bumps
    /// the node generation on `Leave` and `Crash`, and restarts a
    /// rejoining or crashed node — moving a rejoiner to the shard covering
    /// its current position first.
    fn apply_world_event(&mut self, event: WorldEvent) {
        if !self.world.apply(&event) {
            return;
        }
        self.stats.world_changes += 1;
        if let Some(trace) = &mut self.trace {
            trace.record(TraceEvent {
                time: self.now,
                node: match event {
                    WorldEvent::LinkUp { a, .. }
                    | WorldEvent::LinkDown { a, .. }
                    | WorldEvent::QosChange { a, .. } => a,
                    WorldEvent::Move { node, .. }
                    | WorldEvent::Join { node }
                    | WorldEvent::Leave { node }
                    | WorldEvent::Crash { node } => node,
                    // Network-level faults have no single subject.
                    WorldEvent::Partition { .. } | WorldEvent::Heal => NodeId(0),
                },
                kind: TraceKind::WorldChanged,
            });
        }
        match event {
            WorldEvent::Leave { node } => {
                // Cancel the old life's pending timers and deliveries,
                // wherever they sit: the generation check drops them.
                self.generations[node.index()] += 1;
            }
            WorldEvent::Join { node } => {
                // The node boots fresh: protocol state resets and the
                // start handler runs again (in the *current* generation,
                // so its new timers are live), on the shard covering
                // where it rejoined.
                self.actor_mut(node).on_reset();
                let dest = self.region.shard_of(self.world.position(node));
                if dest != self.shard_of(node) {
                    self.rehome(node, dest);
                    self.actor_mut(node).on_rehome(dest);
                }
                self.restart(node);
            }
            WorldEvent::Crash { node } => {
                // Instant reboot: the node keeps its position, links and
                // home shard, but the old life's timers and in-flight
                // deliveries die with the crash, the actor wipes
                // everything (including sequence numbers — see
                // `Actor::on_crash`), and the start handler runs again in
                // the new generation.
                self.generations[node.index()] += 1;
                self.actor_mut(node).on_crash();
                self.restart(node);
            }
            _ => {}
        }
    }

    /// Runs `node`'s start handler again at the current instant. The
    /// radio front-end is new hardware too: no capture window survives a
    /// power cycle.
    fn restart(&mut self, node: NodeId) {
        let (shard, slot) = self.locs[node.index()];
        if let Some(busy) = self.shards[shard as usize]
            .busy_until
            .get_mut(slot as usize)
        {
            *busy = SimTime::ZERO;
        }
        self.push(self.now, node, EventKind::Start);
    }

    /// Moves a node's actor and streams to shard `dest`. Only called
    /// between windows, from `Join` handling; the node's pre-`Leave`
    /// events in the old shard are of a stale generation and die there.
    fn rehome(&mut self, node: NodeId, dest: usize) {
        let (from, slot) = self.locs[node.index()];
        let (from, slot) = (from as usize, slot as usize);
        let shard = &mut self.shards[from];
        debug_assert_eq!(shard.members[slot], node);
        let actor = shard.actors.swap_remove(slot);
        let rng = shard.rngs.swap_remove(slot);
        let loss = (!shard.loss_rngs.is_empty()).then(|| {
            shard.busy_until.swap_remove(slot);
            shard.loss_rngs.swap_remove(slot)
        });
        let corrupt =
            (!shard.corrupt_rngs.is_empty()).then(|| shard.corrupt_rngs.swap_remove(slot));
        shard.members.swap_remove(slot);
        if let Some(&moved) = shard.members.get(slot) {
            self.locs[moved.index()] = (from as u32, slot as u32);
        }
        let shard = &mut self.shards[dest];
        self.locs[node.index()] = (dest as u32, shard.members.len() as u32);
        shard.admit(node, actor, rng, loss, corrupt);
    }
}

impl<A: Actor + Send> Simulator<A>
where
    A::Msg: Send,
{
    /// Runs until every queue drains or virtual time would exceed
    /// `deadline`; afterwards `now() == deadline`. A deadline already in
    /// the past is a no-op — virtual time never rewinds.
    pub fn run_until(&mut self, deadline: SimTime) {
        let deadline = deadline.max(self.now);
        let dl = deadline.as_micros();
        loop {
            let next_actor = self
                .shards
                .iter_mut()
                .filter_map(|s| s.queue.next_due())
                .min();
            let next_world = self.world_queue.peek().map(|w| w.time.as_micros());
            let Some(next) = next_actor.into_iter().chain(next_world).min() else {
                break;
            };
            if next > dl {
                break;
            }
            // The window may not cross the next world instant (a barrier)
            // or extend past the deadline; `end <= next` means the
            // instant itself must run serially.
            let end = next
                .saturating_add(self.window_micros)
                .min(next_world.unwrap_or(u64::MAX))
                .min(dl.saturating_add(1));
            if end <= next {
                self.run_instant(SimTime::from_micros(next));
            } else {
                self.run_window(end);
                self.now = self.now.max(SimTime::from_micros(end - 1));
            }
        }
        self.now = deadline;
    }

    /// Runs for `d` of virtual time from the current instant.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Steps every shard with work due before `end` through the window —
    /// on scoped threads when more than one has work — then commits at
    /// the barrier.
    fn run_window(&mut self, end: u64) {
        let f = Frozen {
            world: &self.world,
            generations: &self.generations,
            locs: &self.locs,
            radio: self.radio,
        };
        let mut active = Vec::new();
        for shard in &mut self.shards {
            if shard.queue.next_due().is_some_and(|due| due < end) {
                active.push(shard);
            }
        }
        if let [shard] = &mut active[..] {
            shard.run_window(f, end);
        } else {
            crossbeam::thread::scope(|scope| {
                for shard in active {
                    scope.spawn(move |_| shard.run_window(f, end));
                }
            })
            .expect("shard worker panicked");
        }
        self.barrier();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CorruptionParams, LossyPhy};
    use crate::fnv1a;
    use qolsr_graph::TopologyBuilder;
    use qolsr_metrics::LinkQos;

    /// A chatty actor exercising broadcasts, unicasts, periodic and
    /// zero-delay timers, per-node randomness and resets.
    #[derive(Default, Clone, PartialEq, Eq, Debug)]
    struct Chatty {
        heard: Vec<(NodeId, u32)>,
        ticks: u32,
        resets: u32,
        draws: Vec<u64>,
    }

    impl Actor for Chatty {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            let due = 10_000 + 1_000 * u64::from(ctx.node_id().0 % 7);
            ctx.set_timer(SimDuration::from_micros(due), TimerId(1));
            ctx.broadcast(ctx.node_id().0);
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, t: TimerId) {
            self.ticks += 1;
            self.draws.push(ctx.rng().next_below(1000));
            match t {
                TimerId(1) => {
                    ctx.broadcast(self.ticks);
                    if self.ticks.is_multiple_of(3) {
                        // Zero-delay chain: fires at the same instant.
                        ctx.set_timer(SimDuration::ZERO, TimerId(2));
                    }
                    ctx.set_timer(SimDuration::from_micros(7_900), TimerId(1));
                }
                _ => {
                    let to = NodeId((ctx.node_id().0 + 1) % 5);
                    ctx.unicast(to, 99);
                }
            }
        }

        fn on_message(&mut self, _ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
            self.heard.push((from, msg));
        }

        fn on_reset(&mut self) {
            *self = Self::default();
            self.resets = 1;
        }
    }

    fn strip5() -> Topology {
        // Five nodes spread along x so 2 and 4 shards split them.
        let mut b = TopologyBuilder::new(30.0);
        let ids: Vec<NodeId> = (0..5)
            .map(|i| b.add_node(Point2::new(25.0 * i as f64, (i % 2) as f64)))
            .collect();
        for w in ids.windows(2) {
            b.link(w[0], w[1], LinkQos::uniform(1)).unwrap();
        }
        b.link(ids[0], ids[2], LinkQos::uniform(2)).unwrap();
        b.build()
    }

    /// Churn across shard boundaries: node 4 powers off, moves next to
    /// node 0 and rejoins there, plus link and QoS changes.
    fn churn() -> [(u64, WorldEvent); 5] {
        [
            (300_000, WorldEvent::Leave { node: NodeId(4) }),
            (
                350_000,
                WorldEvent::Move {
                    node: NodeId(4),
                    to: Point2::new(1.0, 1.0),
                },
            ),
            (600_000, WorldEvent::Join { node: NodeId(4) }),
            (
                600_000,
                WorldEvent::LinkUp {
                    a: NodeId(4),
                    b: NodeId(0),
                    qos: LinkQos::uniform(1),
                },
            ),
            (
                900_000,
                WorldEvent::QosChange {
                    a: NodeId(0),
                    b: NodeId(1),
                    qos: LinkQos::uniform(9),
                },
            ),
        ]
    }

    const JITTER: RadioConfig = RadioConfig {
        latency: SimDuration::from_millis(1),
        jitter: SimDuration::from_millis(2),
        phy: PhyModel::Ideal,
        corruption: FrameCorruption::Off,
    };

    /// A lossy PHY with receiver capture and frame corruption, so the
    /// loss, capture and corruption state all migrate on re-homing.
    fn lossy() -> RadioConfig {
        RadioConfig {
            phy: PhyModel::Lossy(LossyPhy {
                edge_drop_ppm: 600_000,
                exponent: 2,
                capture_window: SimDuration::from_micros(150),
            }),
            corruption: FrameCorruption::On(CorruptionParams::default()),
            ..RadioConfig::default()
        }
    }

    fn run(
        radio: RadioConfig,
        seed: u64,
        shards: u32,
        window: Option<SimDuration>,
        events: &[(u64, WorldEvent)],
        secs: SimDuration,
    ) -> Simulator<Chatty> {
        let mut sim =
            Simulator::with_shards(strip5(), radio, seed, shards, |_, _| Chatty::default());
        if let Some(w) = window {
            sim.set_window(w);
        }
        sim.enable_trace(1 << 16);
        for &(at, ev) in events {
            sim.schedule_world(SimTime::from_micros(at), ev);
        }
        sim.run_for(secs);
        sim
    }

    /// Hash of everything observable about a finished run: stats, every
    /// actor's end state, the clock and the full trace.
    fn fingerprint(sim: &Simulator<Chatty>) -> u64 {
        let trace = sim.trace().expect("trace enabled");
        assert!(trace.total_recorded() < 1 << 16, "trace must be complete");
        let actors: Vec<(NodeId, Chatty)> = sim.actors().map(|(n, a)| (n, a.clone())).collect();
        let events: Vec<TraceEvent> = trace.iter().copied().collect();
        let all = (
            sim.stats(),
            actors,
            sim.now(),
            trace.total_recorded(),
            events,
        );
        fnv1a(format!("{all:?}").as_bytes())
    }

    /// Fingerprints of the [`churn`] scenario run for 2 s, recorded from
    /// the single-queue event loop this engine replaced: `(seed, ideal
    /// radio, lossy radio, 2 ms-jitter radio)`.
    const GOLDEN: [(u64, u64, u64, u64); 3] = [
        (
            5,
            0x7c2e_b68e_d990_9845,
            0x6606_7898_7bad_49c6,
            0xa209_d703_1229_eab6,
        ),
        (
            11,
            0xcbed_b260_a173_01c4,
            0x217a_3173_bce8_d3bc,
            0x2960_6887_9d31_791d,
        ),
        (
            42,
            0x2125_b948_5f6c_4bd8,
            0x37b4_fce3_7c54_fa57,
            0x4abc_9a4f_f097_bebe,
        ),
    ];

    fn assert_golden(radio: RadioConfig, seed: u64, want: u64) {
        for shards in [1, 2, 4] {
            let sim = run(
                radio,
                seed,
                shards,
                None,
                &churn(),
                SimDuration::from_secs(2),
            );
            assert_eq!(
                fingerprint(&sim),
                want,
                "{shards} shards, seed {seed}, {radio:?}"
            );
        }
    }

    /// The sharded engine's delivery handlers must also see the world
    /// as of *receive* time when a QoS drift lands mid-flight — across
    /// a shard boundary, where the frame crosses via the barrier merge
    /// and the world mutation is applied between windows. A stale read
    /// here would make the quality of a link depend on the shard count.
    #[test]
    fn cross_shard_delivery_sees_world_at_receive_time() {
        #[derive(Default, Clone)]
        struct QosProbe {
            seen: Vec<(NodeId, Option<LinkQos>)>,
        }
        impl Actor for QosProbe {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.node_id() == NodeId(2) {
                    ctx.broadcast(());
                }
            }
            fn on_timer(&mut self, _c: &mut Context<'_, ()>, _t: TimerId) {}
            fn on_message(&mut self, ctx: &mut Context<'_, ()>, from: NodeId, _m: ()) {
                self.seen.push((from, ctx.link_qos(from)));
            }
        }
        for shards in [1u32, 2, 4] {
            let mut sim =
                Simulator::with_shards(strip5(), RadioConfig::default(), 9, shards, |_, _| {
                    QosProbe::default()
                });
            // Node 2 broadcasts at t = 0; delivery lands at t = 1 ms.
            // The 2—3 QoS drifts at 0.5 ms, while the frame is in
            // flight (at 4 shards, crossing a shard boundary).
            sim.schedule_world(
                SimTime::from_micros(500),
                WorldEvent::QosChange {
                    a: NodeId(2),
                    b: NodeId(3),
                    qos: LinkQos::uniform(7),
                },
            );
            sim.run_for(SimDuration::from_secs(1));
            assert_eq!(
                sim.actor(NodeId(3)).seen,
                vec![(NodeId(2), Some(LinkQos::uniform(7)))],
                "{shards} shards: handler must measure the drifted QoS"
            );
        }
    }

    /// Every shard count replays the single queue's recorded runs, with
    /// and without delivery jitter: the jitter is drawn at commit from
    /// the one engine stream, in the single queue's own draw order.
    #[test]
    fn sharded_replays_single_queue_exactly() {
        for (seed, ideal, _, jittered) in GOLDEN {
            assert_golden(RadioConfig::default(), seed, ideal);
            assert_golden(JITTER, seed, jittered);
        }
    }

    #[test]
    fn lossy_phy_replays_single_queue_exactly() {
        for (seed, _, lossy_golden, _) in GOLDEN {
            assert_golden(lossy(), seed, lossy_golden);
        }
        let stats = run(lossy(), 5, 4, None, &churn(), SimDuration::from_secs(2)).stats();
        assert!(stats.phy_drops > 0, "the loss model must bite");
        assert!(stats.collisions > 0, "the capture window must bite");
        assert!(stats.fcs_drops > 0, "the corruption injector must bite");
    }

    #[test]
    fn window_width_is_an_implementation_detail() {
        let secs = SimDuration::from_secs(2);
        let reference = fingerprint(&run(JITTER, 7, 1, None, &churn(), secs));
        for micros in [1, 13, 250, 999, 1000] {
            let window = Some(SimDuration::from_micros(micros));
            let got = fingerprint(&run(JITTER, 7, 3, window, &churn(), secs));
            assert_eq!(got, reference, "window {micros} µs");
        }
    }

    #[test]
    fn churn_and_rehoming_replay_single_queue() {
        let (seed, ideal, _, _) = GOLDEN[1];
        let sim = run(
            RadioConfig::default(),
            seed,
            4,
            None,
            &churn(),
            SimDuration::from_secs(2),
        );
        assert_eq!(fingerprint(&sim), ideal);
        // The rejoiner moved to x=1.0: it must now be homed with node 0.
        assert_eq!(sim.shard_of(NodeId(4)), sim.shard_of(NodeId(0)));
        assert_eq!(
            sim.shard_of(NodeId(4)),
            sim.shard_for_position(Point2::new(1.0, 1.0))
        );
    }

    /// A rejoining node is told about a new home only when it actually
    /// moved to another shard — never at one shard, never when it rejoins
    /// inside its old stripe.
    #[test]
    fn rehome_fires_only_when_the_home_shard_changes() {
        #[derive(Default)]
        struct Rehomes(Vec<usize>);
        impl Actor for Rehomes {
            type Msg = ();
            fn on_timer(&mut self, _c: &mut Context<'_, ()>, _t: TimerId) {}
            fn on_message(&mut self, _c: &mut Context<'_, ()>, _f: NodeId, _m: ()) {}
            fn on_rehome(&mut self, shard: usize) {
                self.0.push(shard);
            }
        }
        let cycle = |node: u32, at: u64| {
            [
                (at, WorldEvent::Leave { node: NodeId(node) }),
                (at + 100_000, WorldEvent::Join { node: NodeId(node) }),
            ]
        };
        let mut events = cycle(1, 100_000).to_vec();
        events.extend(churn());
        for shards in [1u32, 4] {
            let mut sim =
                Simulator::with_shards(strip5(), RadioConfig::default(), 3, shards, |_, _| {
                    Rehomes::default()
                });
            for &(at, ev) in &events {
                sim.schedule_world(SimTime::from_micros(at), ev);
            }
            sim.run_for(SimDuration::from_secs(1));
            let moved = sim.shard_for_position(Point2::new(1.0, 1.0));
            let want_4: &[usize] = if shards == 1 { &[] } else { &[moved] };
            assert_eq!(sim.actor(NodeId(1)).0, [0usize; 0], "{shards} shards");
            assert_eq!(sim.actor(NodeId(4)).0, want_4, "{shards} shards");
        }
    }

    #[test]
    fn traces_match_the_reference() {
        // Trace hash of this run, recorded from the single-queue loop.
        const GOLDEN_TRACE: (u64, u64) = (1533, 0xa3b1_e944_5c34_e5bc);
        let events = [(400_000, WorldEvent::Leave { node: NodeId(2) })];
        for shards in [1, 2, 4] {
            let mut sim =
                Simulator::with_shards(strip5(), RadioConfig::default(), 5, shards, |_, _| {
                    Chatty::default()
                });
            sim.enable_trace(4096);
            for &(at, ev) in &events {
                sim.schedule_world(SimTime::from_micros(at), ev);
            }
            sim.run_for(SimDuration::from_millis(800));
            let t = sim.trace().unwrap();
            let trace: Vec<TraceEvent> = t.iter().copied().collect();
            let got = (
                t.total_recorded(),
                fnv1a(format!("{:?}", (t.total_recorded(), trace)).as_bytes()),
            );
            assert_eq!(got, GOLDEN_TRACE, "{shards} shards");
        }
    }

    #[test]
    fn membership_stays_a_partition() {
        let events = [
            (100_000, WorldEvent::Leave { node: NodeId(0) }),
            (
                150_000,
                WorldEvent::Move {
                    node: NodeId(0),
                    to: Point2::new(100.0, 0.0),
                },
            ),
            (200_000, WorldEvent::Join { node: NodeId(0) }),
        ];
        let sim = run(
            RadioConfig::default(),
            3,
            4,
            None,
            &events,
            SimDuration::from_secs(1),
        );
        let mut seen = vec![0u32; sim.node_count()];
        for shard in 0..sim.shard_count() {
            for (slot, &node) in sim.shard_members(shard).iter().enumerate() {
                seen[node.index()] += 1;
                assert_eq!(sim.shard_of(node), shard);
                assert_eq!(sim.shard_members(shard)[slot], node);
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "every node in exactly one shard"
        );
    }
}
