//! The OLSR protocol state machine as a simulation actor.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use bytes::Bytes;
use qolsr_graph::{LocalView, NodeId};
use qolsr_metrics::LinkQos;
use qolsr_sim::stats::TC_RING_SLOTS;
use qolsr_sim::{
    Actor, Context, DropCause, FlowRecord, FlowState, FrameDamage, SimDuration, SimRng, SimTime,
    TimerId, TrafficStats, TxQueue,
};

use crate::config::{OlsrConfig, TcScoping};
use crate::messages::{Body, DataBody, Hello, HelloNeighbor, LinkState, Message, Tc};
use crate::mpr::select_mprs;
use crate::routing::{reference_routes, RouteCache, RouteEntry};
use crate::store::{SharedLinkStore, SharedTopology};
use crate::tables::{DuplicateSet, NeighborTables};
use crate::wire;
use crate::wire::{DataPeek, Peek, TcPeek};

const HELLO_TIMER: TimerId = TimerId(1);
const TC_TIMER: TimerId = TimerId(2);
const SWEEP_TIMER: TimerId = TimerId(3);
/// Flow arrival clock — armed only on nodes with installed flows.
const DATA_TIMER: TimerId = TimerId(4);
/// Transmit-queue service clock — armed only while the queue is
/// non-empty.
const SERVICE_TIMER: TimerId = TimerId(5);

/// Strategy deciding which neighbors a node advertises in its TC messages
/// (the paper's ANS / QANS).
///
/// The RFC behaviour is [`MprSelectorPolicy`]; the `qolsr` core crate
/// plugs in the QoS selectors (FNBP, topology filtering, QOLSR MPR
/// variants) through this trait.
pub trait AdvertisePolicy: Send {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Computes the advertised set from the node's current partial view
    /// `G_u` and the neighbors currently selecting it as MPR.
    fn advertised_set(&mut self, view: &LocalView, mpr_selectors: &[NodeId]) -> Vec<NodeId>;
}

/// RFC 3626 default: advertise the MPR-selector set.
#[derive(Debug, Default, Clone, Copy)]
pub struct MprSelectorPolicy;

impl AdvertisePolicy for MprSelectorPolicy {
    fn name(&self) -> &'static str {
        "mpr-selectors"
    }

    fn advertised_set(&mut self, _view: &LocalView, mpr_selectors: &[NodeId]) -> Vec<NodeId> {
        mpr_selectors.to_vec()
    }
}

/// Per-node protocol statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NodeStats {
    /// HELLO messages emitted.
    pub hello_sent: u64,
    /// TC messages originated.
    pub tc_sent: u64,
    /// TC messages forwarded (MPR flooding).
    pub tc_forwarded: u64,
    /// HELLO messages received.
    pub hello_received: u64,
    /// TC messages received (including duplicates).
    pub tc_received: u64,
    /// Total control bytes transmitted (originated + forwarded).
    pub bytes_sent: u64,
    /// Messages that failed to decode.
    pub decode_errors: u64,
    /// Routing tables recomputed from scratch (cache miss).
    pub routes_recomputed: u64,
    /// Routing-table queries served from the incremental cache: inside
    /// its validity window, a full-table query at an exact radius of ∞
    /// with no cut subtree, or a point query within the radius whose
    /// destination no cut lies above (see [`RouteCache`]).
    pub route_cache_hits: u64,
    /// TC emissions per fisheye scope ring (index = ring, innermost
    /// first). All zero under [`TcScoping::Uniform`].
    pub tc_sent_ring: [u64; TC_RING_SLOTS],
    /// TC deliveries resolved from the peeked header alone — duplicates
    /// and stale-ANSN refreshes whose body was never parsed.
    pub dup_peek_hits: u64,
    /// Payload bytes run through the full wire decoder: every HELLO, and
    /// only the fresh, acceptable TCs. Set against the bytes received,
    /// it shows what the header peek saved.
    pub bytes_decoded: u64,
    /// Received frames dropped as undecodable garbage (corrupted or
    /// arbitrary bytes rejected by `wire::peek`/`wire::decode`). Always
    /// counted alongside [`NodeStats::decode_errors`]; zero unless the
    /// radio corrupts frames or a fault suite injects garbage.
    pub malformed_frames: u64,
}

/// A node's resident protocol-table footprint (see
/// [`OlsrNode::table_footprint`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TableFootprint {
    /// Stored topology entries (one overlay per originator).
    pub topology_entries: u64,
    /// Approximate heap bytes of the node's topology overlays.
    pub topology_bytes: u64,
    /// Stored duplicate-set entries.
    pub duplicate_entries: u64,
    /// Approximate heap bytes of the duplicate set.
    pub duplicate_bytes: u64,
}

impl TableFootprint {
    /// Field-wise sum (network-level aggregation).
    pub fn merge(&mut self, other: &TableFootprint) {
        self.topology_entries += other.topology_entries;
        self.topology_bytes += other.topology_bytes;
        self.duplicate_entries += other.duplicate_entries;
        self.duplicate_bytes += other.duplicate_bytes;
    }
}

/// An OLSR node: link sensing, MPR selection, MPR flooding of TCs, and a
/// pluggable [`AdvertisePolicy`] for the TC content.
///
/// Link QoS is *measured at receive time* through
/// [`Context::link_qos`] — the engine's stand-in for the measurement
/// machinery the paper scopes out ("the computation of these metrics is
/// out of the scope of this paper"). Because measurement happens per
/// HELLO, nodes track QoS drift and newly appearing links in dynamic
/// scenarios without any out-of-band configuration.
///
/// The node's hot paths are allocation-lean: HELLO/TC payload assembly
/// reuses node-owned scratch buffers across ticks, per-delivery checks
/// are binary-search point queries on the flat tables, and the routing
/// table lives in a [`RouteCache`] exact out to a radius: every link
/// pair a TC or a HELLO inserts narrows the radius by what it can move,
/// a tree edge a TC removes cuts only the subtree under it, a change to
/// the symmetric-neighbor set narrows the radius to the node itself, and
/// a query recomputes only when its answer may lie beyond the radius or
/// below a cut.
#[derive(Debug)]
pub struct OlsrNode<P> {
    id: NodeId,
    config: OlsrConfig,
    neighbors: NeighborTables,
    topology: SharedTopology,
    /// The per-shard intern-arena table ([`OlsrNode::with_store_table`]):
    /// [`Actor::on_rehome`] re-binds `topology` to the destination
    /// shard's arena when churn moves this node across shards. `None`
    /// for nodes built on one fixed store ([`OlsrNode::with_store`]).
    stores: Option<Arc<[SharedLinkStore]>>,
    duplicates: DuplicateSet,
    mprs: BTreeSet<NodeId>,
    last_ans: Vec<(NodeId, LinkQos)>,
    ansn: u16,
    msg_seq: u16,
    /// TC-timer firing counter driving the fisheye ring rotation
    /// (unused under [`TcScoping::Uniform`]).
    tc_tick: u32,
    policy: P,
    stats: NodeStats,
    /// Incremental routing cache. Behind a mutex (not a `RefCell`) so
    /// `&OlsrNode` accessors stay shareable across threads; the lock is
    /// uncontended in the single-threaded engine and the `&mut`
    /// protocol paths bypass it via `get_mut`.
    routes: Mutex<RouteCache>,
    // Scratch buffers reused across emissions (no steady-state
    // allocation on the periodic HELLO/TC path).
    sym_buf: Vec<(NodeId, LinkQos)>,
    asym_buf: Vec<(NodeId, LinkQos)>,
    reported_buf: Vec<(NodeId, NodeId, LinkQos)>,
    selectors_buf: Vec<NodeId>,
    hello_buf: Vec<HelloNeighbor>,
    adv_buf: Vec<(NodeId, LinkQos)>,
    // --- Data plane (inert until `install_traffic`) ---
    /// Dedicated traffic stream (flow bursts, queue service jitter).
    /// `None` until flows are installed, and never drawn from while
    /// `None` — control-plane-only runs replay byte-identically.
    traffic_rng: Option<SimRng>,
    /// Flows originating at this node.
    flows: Vec<FlowState>,
    /// Store-and-forward transmit queue of already-encoded data frames.
    tx_queue: TxQueue<Bytes>,
    /// Whether a [`SERVICE_TIMER`] is currently pending (the queue is
    /// served by exactly one self-re-arming timer).
    service_armed: bool,
    /// Data-plane counters for this node.
    traffic_stats: TrafficStats,
    /// Per-flow delivery records, keyed by flow id, for flows whose
    /// destination is this node.
    flow_records: BTreeMap<u16, FlowRecord>,
}

impl<P: AdvertisePolicy> OlsrNode<P> {
    /// Creates a node with the given identity and advertise policy, on a
    /// *private* link-set store; nodes meant to share sets must be built
    /// through [`OlsrNode::with_store`] (as
    /// [`crate::network::OlsrNetwork`] does).
    pub fn new(id: NodeId, config: OlsrConfig, policy: P) -> Self {
        Self::with_store(id, config, policy, SharedLinkStore::new())
    }

    /// Creates a node whose topology base feeds the given network-wide
    /// store.
    pub fn with_store(id: NodeId, config: OlsrConfig, policy: P, store: SharedLinkStore) -> Self {
        Self {
            id,
            config,
            neighbors: NeighborTables::new(),
            topology: SharedTopology::new(store),
            stores: None,
            duplicates: DuplicateSet::new(),
            mprs: BTreeSet::new(),
            last_ans: Vec::new(),
            ansn: 0,
            msg_seq: 0,
            tc_tick: 0,
            policy,
            stats: NodeStats::default(),
            routes: Mutex::new(RouteCache::new()),
            sym_buf: Vec::new(),
            asym_buf: Vec::new(),
            reported_buf: Vec::new(),
            selectors_buf: Vec::new(),
            hello_buf: Vec::new(),
            adv_buf: Vec::new(),
            traffic_rng: None,
            flows: Vec::new(),
            tx_queue: TxQueue::new(config.traffic.capacity as usize),
            service_armed: false,
            traffic_stats: TrafficStats::default(),
            flow_records: BTreeMap::new(),
        }
    }

    /// Creates a node for a network with one intern arena per engine
    /// shard: it interns into the arena of its home `shard` and re-binds
    /// to the destination shard's arena whenever the engine re-homes it
    /// after a churn rejoin ([`Actor::on_rehome`]).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range for `stores`.
    pub fn with_store_table(
        id: NodeId,
        config: OlsrConfig,
        policy: P,
        stores: Arc<[SharedLinkStore]>,
        shard: usize,
    ) -> Self {
        let mut node = Self::with_store(id, config, policy, stores[shard].clone());
        node.stores = Some(stores);
        node
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Protocol statistics (including routing-cache counters).
    pub fn stats(&self) -> NodeStats {
        let mut stats = self.stats;
        let (recomputes, hits) = self.route_cache().counters();
        stats.routes_recomputed = recomputes;
        stats.route_cache_hits = hits;
        stats
    }

    /// The advertise policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The node's current partial view `G_u`, built from its tables.
    pub fn local_view(&self, now: SimTime) -> LocalView {
        self.neighbors.local_view(self.id, now)
    }

    /// Current symmetric neighbors.
    pub fn symmetric_neighbors(&self, now: SimTime) -> Vec<NodeId> {
        self.neighbors
            .symmetric_neighbors(now)
            .into_iter()
            .map(|(n, _)| n)
            .collect()
    }

    /// The most recently advertised neighbor set (TC content).
    pub fn advertised(&self) -> &[(NodeId, LinkQos)] {
        &self.last_ans
    }

    /// Neighbors currently selecting this node as MPR.
    pub fn mpr_selectors(&self, now: SimTime) -> Vec<NodeId> {
        self.neighbors.mpr_selectors(now)
    }

    /// Node-local resident footprint of the protocol tables. This counts
    /// the node's topology overlays only — the deduplicated sets are
    /// network-level state reported once through
    /// [`SharedLinkStore::gauges`].
    pub fn table_footprint(&self) -> TableFootprint {
        let (topology_entries, topology_bytes) = self.topology.footprint();
        let (duplicate_entries, duplicate_bytes) = self.duplicates.footprint();
        TableFootprint {
            topology_entries: topology_entries as u64,
            topology_bytes: topology_bytes as u64,
            duplicate_entries: duplicate_entries as u64,
            duplicate_bytes: duplicate_bytes as u64,
        }
    }

    fn route_cache(&self) -> MutexGuard<'_, RouteCache> {
        self.routes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hop-count routing table from current knowledge (RFC 3626 §10).
    ///
    /// Served from the node's incremental [`RouteCache`]: a full table
    /// is a hit only while the cache is exact everywhere — no tuple it
    /// read has expired, the symmetric-neighbor set is unchanged, and no
    /// link a TC or a HELLO changed since could move a route — and
    /// recomputed otherwise (see [`NodeStats::route_cache_hits`]).
    pub fn routes(&self, now: SimTime) -> BTreeMap<NodeId, RouteEntry> {
        let mut cache = self.route_cache();
        cache.ensure(self.id, &self.neighbors, &self.topology, now);
        cache.entries().map(|e| (e.dest, e)).collect()
    }

    /// The route to `dest`, if one exists — the allocation-free
    /// single-destination variant of [`OlsrNode::routes`]. A hit needs
    /// the cache exact only out to `dest`'s cached hop count and along
    /// its cached tree path, so links inserted farther out, and tree
    /// edges removed off that path, do not cost a recompute.
    pub fn route_to(&self, dest: NodeId, now: SimTime) -> Option<RouteEntry> {
        self.route_cache()
            .route_to(self.id, &self.neighbors, &self.topology, dest, now)
    }

    /// Number of destinations currently routable: a full-table query.
    pub fn route_count(&self, now: SimTime) -> usize {
        let mut cache = self.route_cache();
        cache.ensure(self.id, &self.neighbors, &self.topology, now);
        cache.route_count()
    }

    /// Recomputes the routing table from scratch through the *reference*
    /// formulation, bypassing the cache and the interned BFS entirely.
    /// The differential suites pin `routes() ≡ routes_uncached()` after
    /// arbitrary protocol histories.
    pub fn routes_uncached(&self, now: SimTime) -> BTreeMap<NodeId, RouteEntry> {
        reference_routes(
            self.id,
            &self.neighbors.symmetric_neighbors(now),
            &self.neighbors.reported_links(now),
            &self.topology.links(now),
        )
    }

    fn invalidate_routes(&mut self) {
        self.routes
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .invalidate();
    }

    /// Installs this node's originating flows and its dedicated traffic
    /// RNG stream (split from `seed ^ TRAFFIC_STREAM_SALT` by the
    /// network facade). Nodes without installed traffic never arm the
    /// data timer and never draw from a traffic stream, so
    /// control-plane-only runs replay byte-identically.
    pub fn install_traffic(&mut self, flows: Vec<FlowState>, rng: SimRng) {
        self.flows = flows;
        self.traffic_rng = Some(rng);
    }

    /// This node's data-plane counters.
    pub fn traffic_stats(&self) -> TrafficStats {
        self.traffic_stats
    }

    /// Delivery records of the flows terminating at this node, keyed by
    /// flow id.
    pub fn flow_records(&self) -> &BTreeMap<u16, FlowRecord> {
        &self.flow_records
    }

    /// Data frames currently parked in the transmit queue.
    pub fn queued_data(&self) -> u64 {
        self.tx_queue.len() as u64
    }

    /// One service-time draw from the traffic stream (plain base
    /// interval when no traffic was installed — a relay-only node on a
    /// hand-built simulator still services deterministically).
    fn service_delay(&mut self) -> SimDuration {
        match self.traffic_rng.as_mut() {
            Some(rng) => self.config.traffic.service_delay(rng),
            None => self.config.traffic.service_interval,
        }
    }

    /// Enqueues an encoded data frame for store-and-forward service,
    /// arming the service clock when the queue was idle. Returns `false`
    /// when the bounded queue sheds the frame.
    fn enqueue_data(&mut self, ctx: &mut Context<'_, Bytes>, frame: Bytes) -> bool {
        match self.tx_queue.push(frame) {
            Ok(()) => {
                if !self.service_armed {
                    self.service_armed = true;
                    let delay = self.service_delay();
                    ctx.set_timer(delay, SERVICE_TIMER);
                }
                true
            }
            Err(_) => {
                self.traffic_stats.count_drop(DropCause::QueueFull);
                false
            }
        }
    }

    /// Re-arms the flow arrival clock at the earliest pending tick.
    /// Draws no randomness — arrival instants are fixed by the specs and
    /// the clock stepping in [`FlowState::take_due`].
    fn arm_data_timer(&mut self, ctx: &mut Context<'_, Bytes>) {
        let Some(at) = self.flows.iter().map(|f| f.next_at).min() else {
            return;
        };
        let now = ctx.now();
        let delay = if at > now {
            at - now
        } else {
            SimDuration::from_micros(0)
        };
        ctx.set_timer(delay, DATA_TIMER);
    }

    /// Flow arrival tick: injects every packet due at or before now
    /// (including catch-up bursts after a reboot gap) and re-arms the
    /// clock.
    fn data_tick(&mut self, ctx: &mut Context<'_, Bytes>) {
        let now = ctx.now();
        for i in 0..self.flows.len() {
            let Some(rng) = self.traffic_rng.as_mut() else {
                break;
            };
            let packets = self.flows[i].take_due(now, rng);
            let spec = self.flows[i].spec;
            for _ in 0..packets {
                let seq = self.flows[i].next_seq;
                self.flows[i].next_seq = seq.wrapping_add(1);
                self.traffic_stats.injected += 1;
                let msg = Message::data(
                    self.id,
                    seq,
                    self.config.traffic.data_ttl,
                    DataBody {
                        dest: spec.dst,
                        flow: spec.id,
                        injected_us: now.as_micros(),
                        payload_len: spec.payload,
                    },
                );
                self.enqueue_data(ctx, wire::encode(&msg));
            }
        }
        self.arm_data_timer(ctx);
    }

    /// Queue service tick: looks up the next hop for the head-of-line
    /// frame in the live route cache and hands it to the radio, then
    /// re-arms while the queue is non-empty. Routing happens at
    /// *service* time, so a packet enqueued before a route change uses
    /// the freshest table.
    fn service_tick(&mut self, ctx: &mut Context<'_, Bytes>) {
        let now = ctx.now();
        if let Some(frame) = self.tx_queue.pop() {
            if let Ok(Peek::Data(p)) = wire::peek(&frame) {
                match self.route_to(p.dest, now) {
                    Some(route) => {
                        self.traffic_stats.data_tx += 1;
                        self.traffic_stats.data_bytes_sent += frame.len() as u64;
                        ctx.unicast(route.next_hop, frame);
                    }
                    None => self.traffic_stats.count_drop(DropCause::NoRoute),
                }
            } else {
                debug_assert!(false, "non-data frame in the tx queue");
            }
        }
        if self.tx_queue.is_empty() {
            self.service_armed = false;
        } else {
            let delay = self.service_delay();
            ctx.set_timer(delay, SERVICE_TIMER);
        }
    }

    /// Data receive path, decided from the peeked header: deliver if this
    /// node is the destination, else patch the header
    /// ([`wire::forward`]) and queue the *same* buffer for the next hop
    /// — data payloads are never re-encoded at relays.
    fn handle_data(&mut self, ctx: &mut Context<'_, Bytes>, raw: &Bytes, peek: DataPeek) {
        self.traffic_stats.data_rx += 1;
        if peek.dest == self.id {
            self.traffic_stats.delivered += 1;
            let delay_us = ctx.now().as_micros().saturating_sub(peek.injected_us);
            self.flow_records
                .entry(peek.flow)
                .or_default()
                .record_delivery(delay_us, u64::from(peek.hop_count) + 1);
            return;
        }
        match wire::forward(raw) {
            Some(fwd) => {
                if self.enqueue_data(ctx, fwd) {
                    self.traffic_stats.forwarded += 1;
                }
            }
            None => self.traffic_stats.count_drop(DropCause::TtlExpired),
        }
    }

    fn next_seq(&mut self) -> u16 {
        self.msg_seq = self.msg_seq.wrapping_add(1);
        self.msg_seq
    }

    fn jittered(&self, interval: SimDuration, ctx: &mut Context<'_, Bytes>) -> SimDuration {
        let max = self.config.max_jitter.as_micros().min(interval.as_micros());
        if max == 0 {
            return interval;
        }
        let jitter = ctx.rng().next_below(max);
        SimDuration::from_micros(interval.as_micros() - jitter)
    }

    fn transmit(&mut self, ctx: &mut Context<'_, Bytes>, msg: &Message) {
        let bytes = wire::encode(msg);
        self.stats.bytes_sent += bytes.len() as u64;
        ctx.broadcast(bytes);
    }

    fn emit_hello(&mut self, ctx: &mut Context<'_, Bytes>) {
        let now = ctx.now();
        self.neighbors.sweep(now);
        self.neighbors.symmetric_into(now, &mut self.sym_buf);
        self.neighbors.reported_into(now, &mut self.reported_buf);
        let view = LocalView::from_parts(self.id, &self.sym_buf, &self.reported_buf);
        self.mprs = select_mprs(&view);

        self.hello_buf.clear();
        for &(n, qos) in &self.sym_buf {
            let state = if self.mprs.contains(&n) {
                LinkState::Mpr
            } else {
                LinkState::Symmetric
            };
            self.hello_buf.push(HelloNeighbor { id: n, state, qos });
        }
        // Heard-but-unconfirmed links are announced as asymmetric so the
        // other side can complete the symmetry handshake.
        self.neighbors.asymmetric_into(now, &mut self.asym_buf);
        for &(n, qos) in &self.asym_buf {
            self.hello_buf.push(HelloNeighbor {
                id: n,
                state: LinkState::Asymmetric,
                qos,
            });
        }

        let seq = self.next_seq();
        let neighbors = std::mem::take(&mut self.hello_buf);
        let msg = Message::hello(self.id, seq, Hello { neighbors });
        self.stats.hello_sent += 1;
        self.transmit(ctx, &msg);
        // Reclaim the payload buffer (and its capacity) for the next tick.
        if let Body::Hello(hello) = msg.body {
            self.hello_buf = hello.neighbors;
        }
    }

    fn emit_tc(&mut self, ctx: &mut Context<'_, Bytes>) {
        let now = ctx.now();
        self.neighbors.sweep(now);
        self.neighbors.symmetric_into(now, &mut self.sym_buf);
        self.neighbors.reported_into(now, &mut self.reported_buf);
        self.neighbors.selectors_into(now, &mut self.selectors_buf);
        let view = LocalView::from_parts(self.id, &self.sym_buf, &self.reported_buf);
        let ans = self.policy.advertised_set(&view, &self.selectors_buf);

        // ANS members are 1-hop neighbors; advertise the QoS most recently
        // measured for them (from the link tuples HELLOs refresh).
        // `sym_buf` is ascending by id, so the lookup is a binary search.
        self.adv_buf.clear();
        for n in ans {
            if let Ok(i) = self.sym_buf.binary_search_by_key(&n, |&(m, _)| m) {
                self.adv_buf.push((n, self.sym_buf[i].1));
            }
        }
        self.adv_buf.sort_by_key(|&(n, _)| n);
        self.adv_buf.dedup_by_key(|&mut (n, _)| n);

        if self.adv_buf != self.last_ans {
            self.ansn = self.ansn.wrapping_add(1);
            self.last_ans.clear();
            self.last_ans.extend_from_slice(&self.adv_buf);
        }

        // Fisheye scope rotation: the timer cadence never changes, but
        // each firing serves the outermost *due* ring — full-radius
        // floods every `every`-th tick, cheap near-scope TCs in between.
        let (ring, ttl) = match self.config.tc_scoping {
            TcScoping::Uniform => (None, 255),
            TcScoping::Fisheye(rings) => {
                let (i, ttl) = rings.ring_for_tick(self.tc_tick);
                (Some(i), ttl)
            }
        };
        self.tc_tick = self.tc_tick.wrapping_add(1);

        let seq = self.next_seq();
        let advertised = std::mem::take(&mut self.adv_buf);
        let msg = Message::tc_with_ttl(
            self.id,
            seq,
            ttl,
            Tc {
                ansn: self.ansn,
                advertised,
            },
        );
        self.stats.tc_sent += 1;
        if let Some(i) = ring {
            self.stats.tc_sent_ring[i] += 1;
        }
        self.transmit(ctx, &msg);
        if let Body::Tc(tc) = msg.body {
            self.adv_buf = tc.advertised;
        }
    }

    /// The peek-first TC receive path: every decision on the
    /// duplicate-heavy flooding hot path — drop, integrate, forward —
    /// is made from the peeked header, and the advertised list is only
    /// parsed when the message is fresh *and* its ANSN is acceptable.
    /// Table mutations happen in exactly the order of the decode-first
    /// receive path this replaced, whose recorded runs
    /// `tests/tc_scoping_differential.rs` replays.
    fn handle_tc_peeked(
        &mut self,
        ctx: &mut Context<'_, Bytes>,
        from: NodeId,
        raw: &Bytes,
        peek: TcPeek,
    ) {
        let now = ctx.now();
        self.stats.tc_received += 1;
        if peek.originator == self.id {
            return;
        }
        // RFC: process/forward only messages arriving over a symmetric
        // link.
        if !self.neighbors.is_symmetric(from, now) {
            return;
        }
        let dup_hold = now + self.config.duplicate_hold_time();
        let mut decoded = false;
        if self.duplicates.fresh(peek.originator, peek.seq, dup_hold)
            && self.topology.accepts_ansn(peek.originator, peek.ansn, now)
        {
            // Fresh and acceptable: the body is actually needed. The
            // peek length-validates the buffer, but a corrupted frame
            // can still fail content validation here — drop it like any
            // other garbage.
            decoded = true;
            self.stats.bytes_decoded += raw.len() as u64;
            let Ok(Message {
                body: Body::Tc(tc), ..
            }) = wire::decode(raw.clone())
            else {
                self.stats.decode_errors += 1;
                self.stats.malformed_frames += 1;
                return;
            };
            let hold = now + self.config.topology_hold_time();
            let orig = peek.originator;
            let routes = self
                .routes
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            self.topology.process_tc(
                orig,
                peek.seq,
                tc.ansn,
                &tc.advertised,
                now,
                hold,
                |adv, inserted| routes.link_changed(orig, adv, inserted),
            );
        }
        if !decoded {
            self.stats.dup_peek_hits += 1;
        }
        // MPR forwarding needs no body either: the retransmission
        // patches the received buffer (ttl−1, hops+1).
        if peek.ttl > 1
            && self.neighbors.is_mpr_selector(from, now)
            && self
                .duplicates
                .mark_forwarded(peek.originator, peek.seq, dup_hold)
        {
            if let Some(fwd) = wire::forward(raw) {
                self.stats.tc_forwarded += 1;
                self.stats.bytes_sent += fwd.len() as u64;
                ctx.broadcast(fwd);
            }
        }
    }

    fn handle_hello(&mut self, ctx: &mut Context<'_, Bytes>, from: NodeId, hello: &Hello) {
        self.stats.hello_received += 1;
        // Measure the link at receive time; a frame that was in flight
        // when its link died is not a measurement.
        let Some(qos) = ctx.link_qos(from) else {
            return; // not a radio neighbor right now
        };
        let now = ctx.now();
        let hold = now + self.config.neighbor_hold_time();
        let routes = self
            .routes
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if self.neighbors.process_hello(
            self.id,
            from,
            qos,
            hello,
            now,
            hold,
            self.config.sensing(),
            |n| routes.link_changed(from, n, true),
        ) {
            routes.invalidate();
        }
    }
}

impl<P: AdvertisePolicy> Actor for OlsrNode<P> {
    type Msg = Bytes;

    fn on_start(&mut self, ctx: &mut Context<'_, Bytes>) {
        // Stagger first emissions uniformly across one interval to avoid
        // lock-step synchronization.
        let hello_at =
            SimDuration::from_micros(ctx.rng().next_below(self.config.hello_interval.as_micros()));
        let tc_at =
            SimDuration::from_micros(ctx.rng().next_below(self.config.tc_interval.as_micros()));
        ctx.set_timer(hello_at, HELLO_TIMER);
        ctx.set_timer(tc_at, TC_TIMER);
        ctx.set_timer(self.config.sweep_interval, SWEEP_TIMER);
        // Arrival instants are spec-fixed: arming draws nothing, and
        // nodes without flows skip the timer entirely, so
        // control-plane-only runs replay byte-identically.
        self.arm_data_timer(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Bytes>, timer: TimerId) {
        match timer {
            HELLO_TIMER => {
                self.emit_hello(ctx);
                let next = self.jittered(self.config.hello_interval, ctx);
                ctx.set_timer(next, HELLO_TIMER);
            }
            TC_TIMER => {
                self.emit_tc(ctx);
                let next = self.jittered(self.config.tc_interval, ctx);
                ctx.set_timer(next, TC_TIMER);
            }
            SWEEP_TIMER => {
                let now = ctx.now();
                // Sweeps only evict tuples that already expired — the
                // route cache's validity horizon covers those, so no
                // invalidation is needed here.
                self.neighbors.sweep(now);
                self.topology.sweep(now);
                self.duplicates.sweep(now);
                ctx.set_timer(self.config.sweep_interval, SWEEP_TIMER);
            }
            DATA_TIMER => self.data_tick(ctx),
            SERVICE_TIMER => self.service_tick(ctx),
            other => debug_assert!(false, "unknown timer {other:?}"),
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Bytes>, from: NodeId, bytes: Bytes) {
        match wire::peek(&bytes) {
            // The dominant path at scale: TC-flood deliveries whose fate
            // is decided from the header alone.
            Ok(Peek::Tc(peek)) => self.handle_tc_peeked(ctx, from, &bytes, peek),
            // Data frames never need the body (opaque filler): the
            // deliver/forward decision reads the peeked header only.
            Ok(Peek::Data(peek)) => self.handle_data(ctx, &bytes, peek),
            // HELLOs are 1-hop and processed on every delivery, so they
            // always need the body.
            Ok(Peek::Hello) => match wire::decode(bytes.clone()) {
                Ok(Message {
                    body: Body::Hello(hello),
                    ..
                }) => {
                    self.stats.bytes_decoded += bytes.len() as u64;
                    self.handle_hello(ctx, from, &hello);
                }
                _ => {
                    self.stats.decode_errors += 1;
                    self.stats.malformed_frames += 1;
                }
            },
            Err(_) => {
                self.stats.decode_errors += 1;
                self.stats.malformed_frames += 1;
            }
        }
    }

    fn on_reset(&mut self) {
        // The node rebooted (scenario leave/rejoin): all protocol state
        // is gone. `msg_seq` and `ansn` survive so peers holding
        // duplicate-set or ANSN entries from the previous life do not
        // discard the new one's messages; `stats` stays cumulative (and
        // so do the route-cache counters).
        self.neighbors = NeighborTables::new();
        self.topology.clear();
        self.duplicates = DuplicateSet::new();
        self.mprs = BTreeSet::new();
        self.last_ans = Vec::new();
        // Restart the fisheye rotation at the full-radius ring: a
        // rejoining node should re-announce itself network-wide first.
        self.tc_tick = 0;
        // A reboot loses the volatile transmit queue; the parked frames
        // are accounted as wiped. Flow specs and the traffic stream are
        // durable (re-read from "disk"), so arrivals resume — the missed
        // ticks burst out at the first post-restart data tick.
        self.traffic_stats.drop_queue_wiped += self.tx_queue.clear() as u64;
        self.service_armed = false;
        self.invalidate_routes();
    }

    fn on_crash(&mut self) {
        // A crash-reboot is harsher than a graceful leave/rejoin:
        // volatile memory is gone, *including* the sequence counters
        // `on_reset` deliberately preserves. Peers still holding
        // duplicate-set or ANSN entries from the previous life suppress
        // the restarted node's messages until those entries expire —
        // bounded by the duplicate/topology hold times, which the fault
        // suites pin as the recovery horizon.
        self.on_reset();
        self.msg_seq = 0;
        self.ansn = 0;
    }

    fn corrupt_frame(msg: &Bytes, damage: &FrameDamage) -> Option<Bytes> {
        let mut bytes = msg.to_vec();
        damage.apply_to_bytes(&mut bytes);
        Some(Bytes::from(bytes))
    }

    fn is_data(msg: &Bytes) -> bool {
        wire::is_data_frame(msg)
    }

    fn on_rehome(&mut self, shard: usize) {
        // The engine moved this node to another shard after a rejoin
        // reset: re-bind the shared topology base to the destination
        // shard's intern arena. `on_reset` already ran, so `topology.clear()`
        // has released every handle into the old shard's arena.
        if let Some(stores) = &self.stores {
            self.topology = SharedTopology::new(stores[shard].clone());
            self.invalidate_routes();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpr_selector_policy_echoes_selectors() {
        let mut p = MprSelectorPolicy;
        let view = LocalView::from_parts(NodeId(0), &[], &[]);
        let sel = vec![NodeId(3), NodeId(5)];
        assert_eq!(p.advertised_set(&view, &sel), sel);
        assert_eq!(p.name(), "mpr-selectors");
    }

    #[test]
    fn node_construction() {
        let node = OlsrNode::new(NodeId(4), OlsrConfig::default(), MprSelectorPolicy);
        assert_eq!(node.id(), NodeId(4));
        assert!(node.mprs.is_empty());
        assert!(node.advertised().is_empty());
        assert_eq!(node.stats(), NodeStats::default());
    }

    #[test]
    fn reset_clears_protocol_state_but_keeps_sequence_numbers() {
        let mut node = OlsrNode::new(NodeId(1), OlsrConfig::default(), MprSelectorPolicy);
        node.msg_seq = 41;
        node.ansn = 7;
        node.mprs.insert(NodeId(2));
        node.last_ans.push((NodeId(2), LinkQos::uniform(1)));
        node.on_reset();
        assert!(node.mprs.is_empty());
        assert!(node.advertised().is_empty());
        assert_eq!(node.next_seq(), 42, "msg_seq survives reboot");
        assert_eq!(node.ansn, 7, "ansn survives reboot");
    }

    #[test]
    fn crash_wipes_sequence_numbers_unlike_graceful_reset() {
        let mut node = OlsrNode::new(NodeId(1), OlsrConfig::default(), MprSelectorPolicy);
        node.msg_seq = 41;
        node.ansn = 7;
        node.mprs.insert(NodeId(2));
        node.on_crash();
        assert!(node.mprs.is_empty());
        assert_eq!(node.next_seq(), 1, "msg_seq restarts at zero");
        assert_eq!(node.ansn, 0, "ansn restarts at zero");
    }

    #[test]
    fn corrupt_frame_applies_damage_mechanically() {
        let damage = FrameDamage {
            truncate_keep_ppm: None,
            flip_points_ppm: vec![0],
        };
        let original = Bytes::from(vec![0xFF, 0x00]);
        let mangled =
            OlsrNode::<MprSelectorPolicy>::corrupt_frame(&original, &damage).expect("opt-in");
        assert_ne!(mangled, original, "a bit flip must change the frame");
        assert_eq!(mangled.len(), original.len());
    }

    #[test]
    fn empty_node_routes_hit_cache_on_repeat_queries() {
        let node = OlsrNode::new(NodeId(0), OlsrConfig::default(), MprSelectorPolicy);
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        assert!(node.routes(t).is_empty());
        assert!(node.routes(t).is_empty());
        assert_eq!(node.route_to(NodeId(5), t), None);
        let stats = node.stats();
        assert_eq!(stats.routes_recomputed, 1, "one compute of the empty table");
        assert_eq!(stats.route_cache_hits, 2);
    }
}
