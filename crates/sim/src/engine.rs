//! The actor model and the ideal-MAC radio model that the engine
//! ([`Simulator`]) runs.
//!
//! The engine runs against a *mutable* world: a scheduled stream of
//! [`WorldEvent`]s (link up/down, QoS drift, motion, node churn) is
//! interleaved with actor events in the same `(time, sequence)` order, so
//! a scenario's topology dynamics and the protocol's reaction to them
//! replay identically from a seed.

use std::cmp::Ordering;

#[cfg(doc)]
use qolsr_graph::WorldEvent;
use qolsr_graph::{DynamicTopology, NodeId};
use qolsr_metrics::LinkQos;

use crate::queue::QueueItem;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
#[cfg(doc)]
use crate::Simulator;

/// Identifier a protocol uses to distinguish its timers (opaque to the
/// engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub u32);

/// A per-node protocol state machine driven by the [`Simulator`].
///
/// Handlers interact with the world exclusively through the [`Context`]:
/// broadcasting/unicasting messages over the radio, arming timers and
/// drawing deterministic randomness.
pub trait Actor {
    /// The message payload exchanged between nodes. `Clone` because a
    /// broadcast fans out to every radio neighbor.
    type Msg: Clone;

    /// Called once at simulation start (time 0), in node-id order.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called when a timer armed via [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, timer: TimerId);

    /// Called when a message transmitted by a radio neighbor arrives.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when the node rejoins the network after a scenario
    /// [`WorldEvent::Leave`] (which models power-off: all pending timers
    /// and in-flight deliveries of the previous life are cancelled).
    /// Implementations should drop protocol state here; [`Actor::on_start`]
    /// runs again immediately afterwards.
    fn on_reset(&mut self) {}

    /// Called right after [`Actor::on_reset`] when a rejoining node's
    /// current position lies in another shard than its old home, and the
    /// engine moves it there; `shard` is the destination shard index. A
    /// node that rejoins inside its home shard stays put and is not told,
    /// so one-shard runs never call this. Actors holding shard-affine
    /// resources (e.g. a handle into a per-shard store arena) rebind them
    /// here; the default is a no-op.
    fn on_rehome(&mut self, shard: usize) {
        let _ = shard;
    }

    /// Called when the node crashes and instantly reboots
    /// ([`WorldEvent::Crash`]): pending timers and in-flight deliveries
    /// of the previous life are cancelled and [`Actor::on_start`] runs
    /// again immediately. Unlike the graceful [`Actor::on_reset`] (whose
    /// contract lets implementations preserve identity that survives an
    /// orderly power cycle, e.g. message sequence numbers), a crash
    /// must wipe *everything* — the rebooted node remembers nothing.
    /// The default forwards to [`Actor::on_reset`].
    fn on_crash(&mut self) {
        self.on_reset();
    }

    /// Produces the radio-corrupted copy of an in-flight frame, or
    /// `None` when the message type is opaque to the corruption injector
    /// (the default): the engine then delivers the frame intact. The
    /// damage description is fully decided by the engine's dedicated
    /// corruption RNG stream — implementations apply it mechanically
    /// (e.g. via [`FrameDamage::apply_to_bytes`]) and must not draw
    /// randomness of their own.
    fn corrupt_frame(msg: &Self::Msg, damage: &FrameDamage) -> Option<Self::Msg> {
        let _ = (msg, damage);
        None
    }

    /// Classifies a message as a data-plane frame so the engine can
    /// account for it in the [`SimStats`] `data_*` counters (sent,
    /// delivered, and every in-flight drop cause) without understanding
    /// the payload. Pure classification: implementations must not draw
    /// randomness or mutate anything, and the engine never branches on
    /// the answer — event order, RNG streams and delivery schedules are
    /// identical whether a frame is data or control. The default (`false`
    /// for everything) keeps control-plane-only protocols untouched.
    fn is_data(msg: &Self::Msg) -> bool {
        let _ = msg;
        false
    }
}

/// Radio parameters: every transmission reaches its destination(s)
/// after `latency` plus a uniform jitter in `[0, jitter)`, subject to
/// the [`PhyModel`]. Under the default [`PhyModel::Ideal`] there is no
/// loss, interference or collision (per the paper's §IV.A simulation
/// assumptions); [`PhyModel::Lossy`] samples per-delivery drops from a
/// distance-derived error curve and optionally models receiver capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadioConfig {
    /// Fixed per-hop latency.
    pub latency: SimDuration,
    /// Upper bound (exclusive) of the uniform per-delivery jitter; zero
    /// disables jitter and makes delivery order a pure function of send
    /// order.
    pub jitter: SimDuration,
    /// The physical-layer channel model.
    pub phy: PhyModel,
    /// The frame-corruption injector (default [`FrameCorruption::Off`]:
    /// no corruption randomness exists at all).
    pub corruption: FrameCorruption,
}

impl Default for RadioConfig {
    fn default() -> Self {
        Self {
            latency: SimDuration::from_millis(1),
            jitter: SimDuration::ZERO,
            phy: PhyModel::Ideal,
            corruption: FrameCorruption::Off,
        }
    }
}

/// The physical-layer channel behaviour of the radio.
///
/// `Ideal` is the living reference formulation every lossy run is
/// differentially pinned against (the same pattern as
/// `TcScoping::Uniform`): it performs **no PHY randomness at all**, so
/// `Ideal` runs are byte-identical to the engine as it existed before
/// the PHY layer landed. `Lossy` draws its randomness from dedicated
/// per-sender streams split from `seed ^ LOSS_STREAM_SALT` — never from
/// the engine or actor streams — so switching models cannot perturb
/// protocol jitter or actor draws, and drop decisions are identical at
/// every shard count of the [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PhyModel {
    /// Perfect channel: every frame within radio range is delivered.
    #[default]
    Ideal,
    /// Probabilistic channel with distance-dependent loss and optional
    /// receiver capture.
    Lossy(LossyPhy),
}

/// Parameters of [`PhyModel::Lossy`]. All integer-valued so the radio
/// config stays `Eq`/hashable.
///
/// The drop curve is `p(d) = (edge_drop_ppm / 10⁶) · (d / R)^exponent`
/// for sender–receiver distance `d` and radio range `R` — zero loss at
/// zero distance rising to `edge_drop_ppm` at the range edge, the usual
/// shape of a path-loss-driven frame-error curve. Links created without
/// geometry (distance beyond `R`, e.g. scenario `LinkUp` overrides) are
/// clamped to the edge probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossyPhy {
    /// Drop probability at the radio-range edge, in parts per million
    /// (`1_000_000` = certain loss at the edge).
    pub edge_drop_ppm: u32,
    /// Distance exponent of the drop curve (2 ≈ free-space path loss;
    /// higher values concentrate loss at the fringe).
    pub exponent: u32,
    /// Receiver-capture window: after a frame is received, further
    /// frames arriving at the same receiver within this window collide
    /// and are lost (first-frame capture). `ZERO` disables collision
    /// modelling.
    pub capture_window: SimDuration,
}

impl LossyPhy {
    /// A lossy channel with the given edge drop rate, quadratic distance
    /// falloff and no collision modelling.
    pub fn with_edge_drop_ppm(edge_drop_ppm: u32) -> Self {
        Self {
            edge_drop_ppm,
            exponent: 2,
            capture_window: SimDuration::ZERO,
        }
    }

    /// The drop probability for a frame travelling distance `d` under
    /// radio range `radius`, in `[0, 1]`.
    pub fn drop_probability(&self, d: f64, radius: f64) -> f64 {
        let frac = if radius > 0.0 {
            (d / radius).clamp(0.0, 1.0)
        } else {
            1.0
        };
        f64::from(self.edge_drop_ppm) / 1e6 * frac.powi(self.exponent as i32)
    }

    /// First-frame capture at a receiver busy until `busy_until`: `true`
    /// when a frame arriving at `now` collides with a previously captured
    /// frame and is lost; otherwise the frame is received and occupies
    /// the receiver for the capture window. Deterministic and
    /// shard-invariant, because a receiver's deliveries dispatch in the
    /// same global `(time, seq)` order at every shard count.
    pub(crate) fn collides(&self, now: SimTime, busy_until: &mut SimTime) -> bool {
        if self.capture_window == SimDuration::ZERO {
            return false;
        }
        if now < *busy_until {
            true
        } else {
            *busy_until = now + self.capture_window;
            false
        }
    }
}

/// The radio-path frame-corruption injector: seeded bit-flips and
/// truncation applied per delivery.
///
/// `Off` is the living reference formulation in the
/// [`PhyModel::Ideal`] mold: it performs **no corruption
/// randomness at all**, so default runs are byte-identical to the engine
/// as it existed before the injector landed. `On` draws from dedicated
/// per-sender streams split from `seed ^ CORRUPT_STREAM_SALT` — never
/// from the engine, actor or PHY-loss streams — with exactly one gate
/// draw per surviving delivery attempt, so corruption decisions are a
/// pure function of the sender's send history: identical at every shard
/// count of the [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrameCorruption {
    /// No corruption (the reference default).
    #[default]
    Off,
    /// Seeded per-delivery corruption.
    On(CorruptionParams),
}

/// Parameters of [`FrameCorruption::On`]. All integer-valued so the
/// radio config stays `Eq`/hashable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionParams {
    /// Probability a delivered frame is corrupted, in parts per million.
    pub corrupt_ppm: u32,
    /// Probability a corruption event truncates the frame instead of
    /// flipping bits, in parts per million.
    pub truncate_ppm: u32,
    /// Upper bound on bit flips per corrupted frame (the count is drawn
    /// uniformly from `1..=max_bit_flips`; 0 behaves as 1).
    pub max_bit_flips: u8,
    /// Probability a damaged frame *evades* the link-layer frame check
    /// (FCS/CRC) and reaches the protocol, in parts per million. The
    /// rest are detected and dropped at the radio
    /// ([`SimStats::fcs_drops`]) — which is what a real link layer does
    /// to virtually all corrupted frames. Without this gate a flooding
    /// protocol goes supercritical under bit flips: every flip landing
    /// in an originator/seq field mints a fresh flood identity that
    /// duplicate suppression cannot stop, and each re-flood breeds more
    /// mutants than it took to create it.
    pub fcs_evade_ppm: u32,
}

impl Default for CorruptionParams {
    fn default() -> Self {
        Self {
            corrupt_ppm: 20_000, // 2% of delivered frames
            truncate_ppm: 250_000,
            max_bit_flips: 4,
            fcs_evade_ppm: 30_000, // 3% slip past the frame check
        }
    }
}

/// The damage the corruption injector decided to inflict on one frame
/// copy, described length-independently (the engine never sees the wire
/// bytes): truncation keeps a fraction of the frame, and each bit flip
/// targets a fraction of the frame's bit length. [`Actor::corrupt_frame`]
/// implementations apply it via [`FrameDamage::apply_to_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameDamage {
    /// `Some(keep_ppm)`: truncate the frame to `len·keep_ppm/10⁶` bytes
    /// (rounded down). `None`: no truncation.
    pub truncate_keep_ppm: Option<u32>,
    /// Bit positions to flip, each as a fraction of the (post-truncation)
    /// frame bit length in parts per million.
    pub flip_points_ppm: Vec<u32>,
}

impl FrameDamage {
    /// Draws one damage description from a corruption stream (called by
    /// the engine after the per-delivery gate draw hits).
    pub(crate) fn sample(params: &CorruptionParams, rng: &mut SimRng) -> Self {
        if rng.next_f64() < f64::from(params.truncate_ppm) / 1e6 {
            Self {
                truncate_keep_ppm: Some(rng.next_below(1_000_000) as u32),
                flip_points_ppm: Vec::new(),
            }
        } else {
            let flips = 1 + rng.next_below(u64::from(params.max_bit_flips.max(1)));
            Self {
                truncate_keep_ppm: None,
                flip_points_ppm: (0..flips)
                    .map(|_| rng.next_below(1_000_000) as u32)
                    .collect(),
            }
        }
    }

    /// Applies the damage to a wire buffer in place: truncation first,
    /// then bit flips over whatever remains. Flips on an empty buffer
    /// are no-ops.
    pub fn apply_to_bytes(&self, bytes: &mut Vec<u8>) {
        if let Some(keep) = self.truncate_keep_ppm {
            let keep_len = (bytes.len() as u64 * u64::from(keep) / 1_000_000) as usize;
            bytes.truncate(keep_len);
        }
        let bits = bytes.len() as u64 * 8;
        if bits == 0 {
            return;
        }
        for &point in &self.flip_points_ppm {
            let bit = (u64::from(point) * bits / 1_000_000).min(bits - 1);
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
    }
}

/// Salt separating the PHY loss streams from the engine seed: the loss
/// master RNG is `seed ^ LOSS_STREAM_SALT`, split once per node in node
/// order. `Ideal` runs never touch them.
pub(crate) const LOSS_STREAM_SALT: u64 = 0x4c4f_5353_5048_5921; // "LOSSPHY!"

/// Salt separating the frame-corruption streams from the engine seed
/// (and from the loss streams): the corruption master RNG is
/// `seed ^ CORRUPT_STREAM_SALT`, split once per node in node order.
/// [`FrameCorruption::Off`] runs never touch them.
pub(crate) const CORRUPT_STREAM_SALT: u64 = 0x4252_4954_464c_4950; // "BRITFLIP"

/// Builds the per-sender corruption streams for `n` nodes — empty under
/// [`FrameCorruption::Off`] (no corruption randomness exists to track).
pub(crate) fn corrupt_streams(seed: u64, n: usize, corruption: FrameCorruption) -> Vec<SimRng> {
    match corruption {
        FrameCorruption::Off => Vec::new(),
        FrameCorruption::On(_) => {
            let mut master = SimRng::seed_from_u64(seed ^ CORRUPT_STREAM_SALT);
            (0..n).map(|_| master.split()).collect()
        }
    }
}

/// Builds the per-sender PHY loss streams for `n` nodes — empty under
/// [`PhyModel::Ideal`] (no PHY randomness exists to track).
pub(crate) fn loss_streams(seed: u64, n: usize, phy: PhyModel) -> Vec<SimRng> {
    match phy {
        PhyModel::Ideal => Vec::new(),
        PhyModel::Lossy(_) => {
            let mut master = SimRng::seed_from_u64(seed ^ LOSS_STREAM_SALT);
            (0..n).map(|_| master.split()).collect()
        }
    }
}

/// Effects an actor can request during a handler invocation.
pub(crate) enum Effect<M> {
    Broadcast(M),
    Unicast(NodeId, M),
    Timer(SimDuration, TimerId),
}

/// Handler-side interface to the engine.
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) world: &'a DynamicTopology,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) effects: &'a mut Vec<Effect<M>>,
}

impl<M> Context<'_, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node this handler runs on.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Measures the current QoS of the link from this node to `to`, or
    /// `None` if no such link exists right now. This is the radio-layer
    /// link measurement the paper scopes out ("the computation of these
    /// metrics is out of the scope of this paper"): the simulator provides
    /// ground truth at the instant of the call, so protocols see QoS drift
    /// and link churn as they would through a real measurement module.
    pub fn link_qos(&self, to: NodeId) -> Option<LinkQos> {
        self.world.link_qos(self.node, to)
    }

    /// This node's private deterministic random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Transmits `msg` to every current radio neighbor.
    pub fn broadcast(&mut self, msg: M) {
        self.effects.push(Effect::Broadcast(msg));
    }

    /// Transmits `msg` to `to`. Delivered only if `to` is a radio neighbor
    /// when the effect is applied; otherwise it is counted as a dropped
    /// unicast in [`SimStats`].
    pub fn unicast(&mut self, to: NodeId, msg: M) {
        self.effects.push(Effect::Unicast(to, msg));
    }

    /// Arms a timer that fires `after` from now with the given id. Timers
    /// are one-shot; re-arm from the handler for periodic behaviour.
    pub fn set_timer(&mut self, after: SimDuration, timer: TimerId) {
        self.effects.push(Effect::Timer(after, timer));
    }
}

pub(crate) enum EventKind<M> {
    Start,
    Timer(TimerId),
    Deliver { from: NodeId, msg: M },
}

pub(crate) struct Scheduled<M> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) node: NodeId,
    /// The node generation this event belongs to; events from a previous
    /// life (before a `Leave` or a `Crash`) are dropped at dispatch.
    pub(crate) generation: u32,
    pub(crate) kind: EventKind<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-queue order: (time, seq), unique per event.
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<M> QueueItem for Scheduled<M> {
    fn due_micros(&self) -> u64 {
        self.time.as_micros()
    }
}

/// Engine statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Events dispatched (start + timer + delivery + world).
    pub events: u64,
    /// Broadcast transmissions requested.
    pub broadcasts: u64,
    /// Unicast transmissions requested.
    pub unicasts: u64,
    /// Point-to-point deliveries performed (a broadcast to `k` neighbors
    /// counts `k`).
    pub deliveries: u64,
    /// Unicasts dropped because the destination was not a neighbor.
    pub dropped_unicasts: u64,
    /// Timer firings.
    pub timers: u64,
    /// World events applied that actually changed the topology.
    pub world_changes: u64,
    /// Actor events dropped because the node left the network in the
    /// meantime (stale timers and in-flight deliveries of a previous
    /// life).
    pub stale_dropped: u64,
    /// Deliveries dropped in flight by the probabilistic PHY
    /// ([`PhyModel::Lossy`]); always zero under [`PhyModel::Ideal`].
    pub phy_drops: u64,
    /// Deliveries lost to receiver collision: the frame arrived while a
    /// previously captured frame still occupied the receiver.
    pub collisions: u64,
    /// Deliveries dropped at dispatch because an active
    /// [`WorldEvent::Partition`] separated sender and receiver.
    pub partition_drops: u64,
    /// Deliveries whose frame the corruption injector damaged in flight
    /// ([`FrameCorruption::On`]) *and* which evaded the link-layer frame
    /// check; the mangled frame still arrives.
    pub corrupted_frames: u64,
    /// Damaged frames the link-layer frame check (FCS) detected and
    /// dropped at the radio — the fate of almost all corrupted frames on
    /// a real link (see [`CorruptionParams::fcs_evade_ppm`]).
    pub fcs_drops: u64,
    /// Unicast transmissions of data-plane frames ([`Actor::is_data`]);
    /// a subset of [`SimStats::unicasts`]. Zero unless a data plane is
    /// installed.
    pub data_unicasts: u64,
    /// Point-to-point deliveries of data frames; a subset of
    /// [`SimStats::deliveries`].
    pub data_deliveries: u64,
    /// Data unicasts dropped because the destination was not a neighbor
    /// (the route cache pointed at a link the world no longer has); a
    /// subset of [`SimStats::dropped_unicasts`].
    pub data_no_link_drops: u64,
    /// Data deliveries dropped in flight by the probabilistic PHY; a
    /// subset of [`SimStats::phy_drops`].
    pub data_phy_drops: u64,
    /// Data frames the link-layer frame check dropped at the radio; a
    /// subset of [`SimStats::fcs_drops`].
    pub data_fcs_drops: u64,
    /// Data deliveries dropped at dispatch by an active partition; a
    /// subset of [`SimStats::partition_drops`].
    pub data_partition_drops: u64,
    /// Data deliveries lost to receiver collision; a subset of
    /// [`SimStats::collisions`].
    pub data_collisions: u64,
    /// Data deliveries dropped because the receiver's node life ended
    /// while the frame was in flight; a subset of
    /// [`SimStats::stale_dropped`].
    pub data_stale_drops: u64,
}

impl SimStats {
    /// Field-wise sum: the engine keeps one set of counters per shard and
    /// adds them up on read.
    pub(crate) fn merge(&mut self, other: &SimStats) {
        self.events += other.events;
        self.broadcasts += other.broadcasts;
        self.unicasts += other.unicasts;
        self.deliveries += other.deliveries;
        self.dropped_unicasts += other.dropped_unicasts;
        self.timers += other.timers;
        self.world_changes += other.world_changes;
        self.stale_dropped += other.stale_dropped;
        self.phy_drops += other.phy_drops;
        self.collisions += other.collisions;
        self.partition_drops += other.partition_drops;
        self.corrupted_frames += other.corrupted_frames;
        self.fcs_drops += other.fcs_drops;
        self.data_unicasts += other.data_unicasts;
        self.data_deliveries += other.data_deliveries;
        self.data_no_link_drops += other.data_no_link_drops;
        self.data_phy_drops += other.data_phy_drops;
        self.data_fcs_drops += other.data_fcs_drops;
        self.data_partition_drops += other.data_partition_drops;
        self.data_collisions += other.data_collisions;
        self.data_stale_drops += other.data_stale_drops;
    }

    /// Data frames that left a sender but reached no receiver: the
    /// in-flight loss the engine (not a node) is responsible for. After
    /// the event queue quiesces this equals
    /// `data_unicasts − data_deliveries`; mid-run the difference also
    /// includes frames still in flight.
    pub fn data_in_flight_drops(&self) -> u64 {
        self.data_no_link_drops
            + self.data_phy_drops
            + self.data_fcs_drops
            + self.data_partition_drops
            + self.data_collisions
            + self.data_stale_drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fnv1a, Simulator};
    use qolsr_graph::{Point2, Topology, TopologyBuilder, WorldEvent};

    /// Three nodes in a line: 0—1—2.
    fn line3() -> Topology {
        let mut b = TopologyBuilder::new(10.0);
        let n0 = b.add_node(Point2::new(0.0, 0.0));
        let n1 = b.add_node(Point2::new(5.0, 0.0));
        let n2 = b.add_node(Point2::new(10.0, 0.0));
        b.link(n0, n1, LinkQos::uniform(1)).unwrap();
        b.link(n1, n2, LinkQos::uniform(1)).unwrap();
        b.build()
    }

    #[derive(Default)]
    struct Flood {
        seen: bool,
        heard_from: Vec<NodeId>,
    }

    impl Actor for Flood {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            if ctx.node_id() == NodeId(0) {
                self.seen = true;
                ctx.broadcast(());
            }
        }

        fn on_timer(&mut self, _ctx: &mut Context<'_, ()>, _t: TimerId) {}

        fn on_message(&mut self, ctx: &mut Context<'_, ()>, from: NodeId, _msg: ()) {
            self.heard_from.push(from);
            if !self.seen {
                self.seen = true;
                ctx.broadcast(());
            }
        }
    }

    #[test]
    fn flood_reaches_all_nodes() {
        let mut sim = Simulator::new(line3(), RadioConfig::default(), 1, |_| Flood::default());
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        for (_, a) in sim.actors() {
            assert!(a.seen);
        }
        // Node 1 hears the original from 0 and the re-broadcast echo from 2.
        assert_eq!(sim.actor(NodeId(1)).heard_from, vec![NodeId(0), NodeId(2)]);
        let stats = sim.stats();
        assert_eq!(stats.broadcasts, 3); // all three nodes broadcast once
        assert!(stats.deliveries >= 4);
    }

    #[test]
    fn messages_take_latency_to_arrive() {
        #[derive(Default)]
        struct Once {
            arrived: Vec<SimTime>,
        }
        impl Actor for Once {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.node_id() == NodeId(0) {
                    ctx.broadcast(());
                }
            }
            fn on_timer(&mut self, _ctx: &mut Context<'_, ()>, _t: TimerId) {}
            fn on_message(&mut self, ctx: &mut Context<'_, ()>, _f: NodeId, _m: ()) {
                self.arrived.push(ctx.now());
            }
        }
        let mut sim = Simulator::new(line3(), RadioConfig::default(), 1, |_| Once::default());
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(sim.actor(NodeId(1)).arrived, [SimTime::from_micros(1_000)]);
    }

    #[test]
    fn timers_fire_in_order() {
        struct Timers {
            fired: Vec<u32>,
        }
        impl Actor for Timers {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.node_id() == NodeId(0) {
                    ctx.set_timer(SimDuration::from_millis(20), TimerId(2));
                    ctx.set_timer(SimDuration::from_millis(10), TimerId(1));
                    ctx.set_timer(SimDuration::from_millis(30), TimerId(3));
                }
            }
            fn on_timer(&mut self, _ctx: &mut Context<'_, ()>, t: TimerId) {
                self.fired.push(t.0);
            }
            fn on_message(&mut self, _c: &mut Context<'_, ()>, _f: NodeId, _m: ()) {}
        }
        let mut sim = Simulator::new(line3(), RadioConfig::default(), 1, |_| Timers {
            fired: Vec::new(),
        });
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.actor(NodeId(0)).fired, vec![1, 2, 3]);
        assert_eq!(sim.stats().timers, 3);
    }

    #[test]
    fn unicast_to_non_neighbor_is_dropped() {
        struct Uni;
        impl Actor for Uni {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.node_id() == NodeId(0) {
                    ctx.unicast(NodeId(2), ()); // not a neighbor of 0
                    ctx.unicast(NodeId(1), ()); // neighbor
                }
            }
            fn on_timer(&mut self, _c: &mut Context<'_, ()>, _t: TimerId) {}
            fn on_message(&mut self, _c: &mut Context<'_, ()>, _f: NodeId, _m: ()) {}
        }
        let mut sim = Simulator::new(line3(), RadioConfig::default(), 1, |_| Uni);
        sim.run_for(SimDuration::from_secs(1));
        let stats = sim.stats();
        assert_eq!(stats.unicasts, 2);
        assert_eq!(stats.dropped_unicasts, 1);
        assert_eq!(stats.deliveries, 1);
    }

    #[test]
    fn identical_seeds_identical_executions() {
        let run = |seed: u64| {
            let mut sim =
                Simulator::new(line3(), RadioConfig::default(), seed, |_| Flood::default());
            sim.run_for(SimDuration::from_secs(1));
            (sim.stats(), sim.now())
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn jitter_stays_deterministic_per_seed() {
        let radio = RadioConfig {
            latency: SimDuration::from_millis(1),
            jitter: SimDuration::from_millis(5),
            ..RadioConfig::default()
        };
        let run = |seed: u64| {
            let mut sim = Simulator::new(line3(), radio, seed, |_| Flood::default());
            sim.run_for(SimDuration::from_secs(1));
            sim.stats()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn scheduled_link_down_stops_delivery() {
        // Flood at t=0 crosses 0—1; a link-down at t=500ms prevents a
        // second flood wave started at t=1s from crossing it.
        struct Waves {
            got: u32,
        }
        impl Actor for Waves {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.node_id() == NodeId(0) {
                    ctx.broadcast(());
                    ctx.set_timer(SimDuration::from_secs(1), TimerId(1));
                }
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, ()>, _t: TimerId) {
                ctx.broadcast(());
            }
            fn on_message(&mut self, _c: &mut Context<'_, ()>, _f: NodeId, _m: ()) {
                self.got += 1;
            }
        }
        let mut sim = Simulator::new(line3(), RadioConfig::default(), 1, |_| Waves { got: 0 });
        sim.schedule_world(
            SimTime::from_micros(500_000),
            WorldEvent::LinkDown {
                a: NodeId(0),
                b: NodeId(1),
            },
        );
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.actor(NodeId(1)).got, 1, "second wave must not cross");
        assert_eq!(sim.stats().world_changes, 1);
        assert!(!sim.world().has_link(NodeId(0), NodeId(1)));
    }

    #[test]
    fn leave_cancels_timers_and_join_restarts() {
        struct Ticker {
            started: u32,
            ticks: u32,
            reset: u32,
        }
        impl Actor for Ticker {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                self.started += 1;
                ctx.set_timer(SimDuration::from_millis(100), TimerId(1));
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, ()>, _t: TimerId) {
                self.ticks += 1;
                ctx.set_timer(SimDuration::from_millis(100), TimerId(1));
            }
            fn on_message(&mut self, _c: &mut Context<'_, ()>, _f: NodeId, _m: ()) {}
            fn on_reset(&mut self) {
                self.reset += 1;
                self.ticks = 0;
            }
        }
        let mut sim = Simulator::new(line3(), RadioConfig::default(), 1, |_| Ticker {
            started: 0,
            ticks: 0,
            reset: 0,
        });
        // Node 2 leaves at 250 ms and rejoins at 1 s.
        sim.schedule_world(
            SimTime::from_micros(250_000),
            WorldEvent::Leave { node: NodeId(2) },
        );
        sim.schedule_world(
            SimTime::from_micros(1_000_000),
            WorldEvent::Join { node: NodeId(2) },
        );
        sim.run_for(SimDuration::from_secs(2));

        let t = sim.actor(NodeId(2));
        assert_eq!(t.reset, 1, "rejoin must reset the actor");
        assert_eq!(t.started, 2, "on_start runs again after rejoin");
        // Second life ran from 1 s to 2 s: 10 ticks; the first life's
        // pending timer was cancelled (ticks was zeroed by on_reset).
        assert_eq!(t.ticks, 10);
        assert!(sim.stats().stale_dropped >= 1);
        // The world dropped 1—2 on leave; rejoin comes back isolated.
        assert!(!sim.world().has_link(NodeId(1), NodeId(2)));
        assert!(sim.world().is_active(NodeId(2)));
    }

    #[test]
    fn context_measures_current_link_qos() {
        struct Probe;
        impl Actor for Probe {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.node_id() == NodeId(1) {
                    assert_eq!(ctx.link_qos(NodeId(0)), Some(LinkQos::uniform(1)));
                    assert_eq!(ctx.link_qos(NodeId(2)), Some(LinkQos::uniform(1)));
                    assert_eq!(ctx.link_qos(NodeId(1)), None);
                }
            }
            fn on_timer(&mut self, _c: &mut Context<'_, ()>, _t: TimerId) {}
            fn on_message(&mut self, _c: &mut Context<'_, ()>, _f: NodeId, _m: ()) {}
        }
        let mut sim = Simulator::new(line3(), RadioConfig::default(), 1, |_| Probe);
        sim.run_for(SimDuration::from_secs(1));
    }

    /// A world mutation landing while a frame is in flight must be
    /// visible to the delivery handler: `Context::link_qos` reads the
    /// world at *receive* time, never a snapshot taken at broadcast.
    /// The measured-QoS protocol path stamps link tuples from exactly
    /// this call, so a stale read would poison neighbor tables for a
    /// full HELLO interval.
    #[test]
    fn delivery_handler_sees_world_at_receive_time() {
        #[derive(Default)]
        struct QosProbe {
            seen: Vec<Option<LinkQos>>,
        }
        impl Actor for QosProbe {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.node_id() == NodeId(0) {
                    ctx.broadcast(());
                }
            }
            fn on_timer(&mut self, _c: &mut Context<'_, ()>, _t: TimerId) {}
            fn on_message(&mut self, ctx: &mut Context<'_, ()>, from: NodeId, _m: ()) {
                self.seen.push(ctx.link_qos(from));
            }
        }
        // Broadcast leaves node 0 at t = 0; the frame lands at t = 1 ms
        // (default latency). The 0—1 QoS drifts at 0.5 ms, mid-flight.
        let mut sim = Simulator::new(line3(), RadioConfig::default(), 1, |_| QosProbe::default());
        sim.schedule_world(
            SimTime::from_micros(500),
            WorldEvent::QosChange {
                a: NodeId(0),
                b: NodeId(1),
                qos: LinkQos::uniform(7),
            },
        );
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(
            sim.actor(NodeId(1)).seen,
            vec![Some(LinkQos::uniform(7))],
            "handler must measure the drifted QoS, not the broadcast-time value"
        );
        // Same flight, but the carrying link is gone by receive time:
        // the handler must see its absence (the in-flight frame itself
        // still arrives — only Leave cancels deliveries).
        let mut sim = Simulator::new(line3(), RadioConfig::default(), 1, |_| QosProbe::default());
        sim.schedule_world(
            SimTime::from_micros(500),
            WorldEvent::LinkDown {
                a: NodeId(0),
                b: NodeId(1),
            },
        );
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(
            sim.actor(NodeId(1)).seen,
            vec![None],
            "handler must see the mid-flight link loss"
        );
    }

    #[test]
    fn world_events_replay_identically() {
        let run = |seed: u64| {
            let mut sim =
                Simulator::new(line3(), RadioConfig::default(), seed, |_| Flood::default());
            sim.schedule_world(
                SimTime::from_micros(100),
                WorldEvent::LinkDown {
                    a: NodeId(1),
                    b: NodeId(2),
                },
            );
            sim.schedule_world(
                SimTime::from_micros(200),
                WorldEvent::LinkUp {
                    a: NodeId(0),
                    b: NodeId(2),
                    qos: LinkQos::uniform(2),
                },
            );
            sim.run_for(SimDuration::from_secs(1));
            (sim.stats(), sim.world().link_count())
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn run_until_never_rewinds_time() {
        let mut sim = Simulator::new(line3(), RadioConfig::default(), 1, |_| Flood::default());
        sim.run_for(SimDuration::from_secs(10));
        let now = sim.now();
        sim.run_until(SimTime::from_micros(5));
        assert_eq!(sim.now(), now, "past deadline must be a no-op");
    }

    /// `fnv1a` of the run below under the binary-heap scheduler, recorded
    /// at f0b9e42 (the last commit with that scheduler), where this test
    /// ran both schedulers and found them equal.
    const HEAP_RUN: u64 = 0x0a99_321c_5871_4889;

    #[test]
    fn wheel_and_heap_schedulers_replay_identically() {
        let mut sim = Simulator::with_shards(
            line3(),
            RadioConfig {
                latency: SimDuration::from_millis(1),
                jitter: SimDuration::from_millis(3),
                ..RadioConfig::default()
            },
            11,
            1,
            |_, _| Flood::default(),
        );
        sim.schedule_world(
            SimTime::from_micros(400_000),
            WorldEvent::LinkDown {
                a: NodeId(0),
                b: NodeId(1),
            },
        );
        // A far-future world event exercises the wheel's overflow
        // heap fallback.
        sim.schedule_world(
            SimTime::ZERO + SimDuration::from_secs(120),
            WorldEvent::LinkUp {
                a: NodeId(0),
                b: NodeId(2),
                qos: LinkQos::uniform(3),
            },
        );
        sim.run_for(SimDuration::from_secs(200));
        let run = (
            sim.stats(),
            sim.now(),
            sim.world().link_count(),
            sim.actor(NodeId(1)).heard_from.clone(),
        );
        assert_eq!(fnv1a(format!("{run:?}").as_bytes()), HEAP_RUN);
    }

    fn lossy(edge_drop_ppm: u32) -> RadioConfig {
        RadioConfig {
            phy: PhyModel::Lossy(LossyPhy::with_edge_drop_ppm(edge_drop_ppm)),
            ..RadioConfig::default()
        }
    }

    #[test]
    fn drop_probability_curve_shape() {
        let phy = LossyPhy::with_edge_drop_ppm(400_000);
        assert_eq!(phy.drop_probability(0.0, 10.0), 0.0);
        assert_eq!(phy.drop_probability(10.0, 10.0), 0.4);
        assert_eq!(phy.drop_probability(5.0, 10.0), 0.1); // (1/2)² of the edge
        assert_eq!(phy.drop_probability(25.0, 10.0), 0.4, "clamped past range");
        assert_eq!(phy.drop_probability(3.0, 0.0), 0.4, "degenerate radius");
    }

    #[test]
    fn ideal_phy_draws_no_randomness() {
        // An Ideal run and a Lossy run at drop probability zero must
        // leave the actor-visible world identical: loss sampling comes
        // from dedicated streams, never the engine or actor streams.
        let run = |radio: RadioConfig| {
            let mut sim = Simulator::new(line3(), radio, 9, |_| Flood::default());
            sim.run_for(SimDuration::from_secs(1));
            (sim.stats(), sim.actor(NodeId(1)).heard_from.clone())
        };
        let ideal = run(RadioConfig::default());
        let zero_loss = run(lossy(0));
        assert_eq!(ideal.1, zero_loss.1);
        assert_eq!(ideal.0.deliveries, zero_loss.0.deliveries);
        assert_eq!(zero_loss.0.phy_drops, 0);
    }

    #[test]
    fn certain_edge_loss_silences_the_channel() {
        // Two nodes exactly one radio range apart: edge_drop = 1e6 puts
        // the hop at drop probability 1, so nothing ever arrives.
        let mut b = TopologyBuilder::new(10.0);
        let n0 = b.add_node(Point2::new(0.0, 0.0));
        let n1 = b.add_node(Point2::new(10.0, 0.0));
        b.link(n0, n1, LinkQos::uniform(1)).unwrap();
        let mut sim = Simulator::new(b.build(), lossy(1_000_000), 5, |_| Flood::default());
        sim.run_for(SimDuration::from_secs(1));
        let stats = sim.stats();
        assert_eq!(stats.deliveries, 0, "edge hop must always drop");
        assert_eq!(stats.phy_drops, 1);
        assert!(!sim.actor(NodeId(1)).seen);
    }

    #[test]
    fn lossy_runs_replay_identically_per_seed() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(line3(), lossy(500_000), seed, |_| Flood::default());
            sim.run_for(SimDuration::from_secs(1));
            (sim.stats(), sim.actor(NodeId(1)).heard_from.clone())
        };
        assert_eq!(run(21), run(21));
    }

    #[test]
    fn capture_window_collides_overlapping_deliveries() {
        // Both 0 and 2 broadcast at t=0; node 1 receives two frames at
        // the same instant. With a capture window the second collides.
        struct TwoTalkers;
        impl Actor for TwoTalkers {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.node_id() != NodeId(1) {
                    ctx.broadcast(());
                }
            }
            fn on_timer(&mut self, _c: &mut Context<'_, ()>, _t: TimerId) {}
            fn on_message(&mut self, _c: &mut Context<'_, ()>, _f: NodeId, _m: ()) {}
        }
        let radio = RadioConfig {
            phy: PhyModel::Lossy(LossyPhy {
                edge_drop_ppm: 0,
                exponent: 2,
                capture_window: SimDuration::from_micros(200),
            }),
            ..RadioConfig::default()
        };
        let mut sim = Simulator::new(line3(), radio, 1, |_| TwoTalkers);
        sim.run_for(SimDuration::from_secs(1));
        let stats = sim.stats();
        assert_eq!(stats.collisions, 1, "second frame at node 1 collides");
        assert_eq!(stats.deliveries, 1);
        // Without the window both frames arrive.
        let mut sim = Simulator::new(line3(), lossy(0), 1, |_| TwoTalkers);
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.stats().collisions, 0);
        assert_eq!(sim.stats().deliveries, 2);
    }

    #[test]
    fn trace_records_dispatches() {
        let mut sim = Simulator::new(line3(), RadioConfig::default(), 1, |_| Flood::default());
        sim.enable_trace(16);
        sim.run_for(SimDuration::from_secs(1));
        let trace = sim.trace().unwrap();
        assert!(trace.total_recorded() > 0);
        assert!(trace.iter().next().is_some());
    }
}
