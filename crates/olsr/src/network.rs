//! Whole-network harness: run an OLSR network over the discrete-event
//! engine — optionally under a mobility/churn scenario — and extract
//! converged protocol state.

use std::sync::Arc;

use bytes::Bytes;
use qolsr_graph::{DynamicTopology, LocalView, NodeId, Topology, WorldEvent};
use qolsr_metrics::LinkQos;
use std::collections::BTreeMap;

use qolsr_sim::trace::TraceBuffer;
use qolsr_sim::{
    ExecMode, FlowRecord, FlowSpec, FlowState, RadioConfig, Scenario, SchedulerKind, SimDuration,
    SimRng, SimStats, SimTime, Simulator, TrafficStats, TRAFFIC_STREAM_SALT,
};

use crate::config::OlsrConfig;
use crate::node::{AdvertisePolicy, MprSelectorPolicy, NodeStats, OlsrNode, TableFootprint};
use crate::store::{SharedLinkStore, StoreGauges};

/// An OLSR network simulation: one [`OlsrNode`] per topology node.
pub struct OlsrNetwork<P: AdvertisePolicy> {
    sim: Simulator<OlsrNode<P>>,
    /// The interned link-set arenas nodes share: one arena *per shard*
    /// (nodes only ever intern into their home shard's arena, keeping
    /// the store lock uncontended across shard threads).
    stores: Arc<[SharedLinkStore]>,
}

impl OlsrNetwork<MprSelectorPolicy> {
    /// Builds a network with RFC-default timing and the RFC advertise
    /// policy.
    pub fn with_defaults(topology: Topology, seed: u64) -> Self {
        Self::new(
            topology,
            OlsrConfig::default(),
            RadioConfig::default(),
            seed,
            |_| MprSelectorPolicy,
        )
    }
}

impl<P: AdvertisePolicy> OlsrNetwork<P> {
    /// Builds a network with explicit configuration; `policy` constructs
    /// each node's [`AdvertisePolicy`]. Nodes measure link QoS per
    /// received HELLO through the engine, so no out-of-band QoS
    /// configuration is needed — and none goes stale when the world
    /// changes.
    pub fn new(
        topology: Topology,
        config: OlsrConfig,
        radio: RadioConfig,
        seed: u64,
        policy: impl FnMut(NodeId) -> P,
    ) -> Self {
        Self::with_exec(
            topology,
            config,
            radio,
            seed,
            SchedulerKind::default(),
            ExecMode::SingleShard,
            policy,
        )
    }

    /// Like [`OlsrNetwork::new`], but with an explicit execution mode:
    /// the number of spatial shards the engine steps in parallel. Every
    /// observable (stats, traces, tables, routes) is byte-identical for
    /// any shard count. `_scheduler` has one value, the timer wheel (see
    /// [`SchedulerKind`]).
    ///
    /// The network builds one intern arena per shard and each node
    /// feeds its home shard's arena (re-binding when churn re-homes it),
    /// so shard threads never contend on a store lock. Store gauges
    /// therefore aggregate differently across shard counts — they are
    /// the one observable excluded from the shard-invariance contract.
    /// Every arena is seeded with the topology's node count, so all of
    /// them number originators alike and a re-homed node's topology
    /// walks keep their order.
    pub fn with_exec(
        topology: Topology,
        config: OlsrConfig,
        radio: RadioConfig,
        seed: u64,
        _scheduler: SchedulerKind,
        exec: ExecMode,
        mut policy: impl FnMut(NodeId) -> P,
    ) -> Self {
        // Mirror the engine's shard-count clamp so the arena table and
        // the shard map always agree.
        let k = (exec.shards() as usize).min(topology.len().max(1));
        let stores: Arc<[SharedLinkStore]> = (0..k)
            .map(|_| SharedLinkStore::seeded(topology.len()))
            .collect();
        let sim = Simulator::with_shards(topology, radio, seed, exec.shards(), |id, shard| {
            OlsrNode::with_store_table(id, config, policy(id), stores.clone(), shard)
        });
        Self { sim, stores }
    }

    /// Installs seeded application flows across the network: every node
    /// receives a dedicated traffic RNG stream (master
    /// `seed ^ `[`TRAFFIC_STREAM_SALT`], split once per node in id
    /// order — relays need service-jitter draws even when they source
    /// nothing), and each flow's arrival state lands on its source node.
    ///
    /// The streams are disjoint from every engine and protocol stream,
    /// and arming the arrival clock draws nothing, so a run with an
    /// empty `flows` slice replays byte-identically to one that never
    /// called this method. Per-node split order is node order, which
    /// makes the installation shard-count invariant.
    ///
    /// # Panics
    ///
    /// Panics if a flow names a source node outside the topology.
    pub fn install_flows(&mut self, flows: &[FlowSpec], seed: u64) {
        let mut master = SimRng::seed_from_u64(seed ^ TRAFFIC_STREAM_SALT);
        let n = self.world().len();
        for f in flows {
            assert!(
                (f.src.index()) < n,
                "flow {} sources at {:?}, outside the {n}-node topology",
                f.id,
                f.src
            );
        }
        for i in 0..n {
            let id = NodeId(i as u32);
            let rng = master.split();
            let node_flows: Vec<FlowState> = flows
                .iter()
                .filter(|f| f.src == id)
                .map(|f| FlowState::new(*f))
                .collect();
            self.sim.actor_mut(id).install_traffic(node_flows, rng);
        }
    }

    /// Sum of per-node data-plane counters.
    pub fn total_traffic(&self) -> TrafficStats {
        let mut total = TrafficStats::default();
        for (_, node) in self.actors() {
            total.merge(&node.traffic_stats());
        }
        total
    }

    /// Per-flow end-to-end delivery records, collected from every
    /// destination, keyed by flow id.
    pub fn flow_records(&self) -> BTreeMap<u16, FlowRecord> {
        let mut records = BTreeMap::new();
        for (_, node) in self.actors() {
            for (&flow, record) in node.flow_records() {
                records
                    .entry(flow)
                    .and_modify(|r: &mut FlowRecord| r.merge(record))
                    .or_insert_with(|| record.clone());
            }
        }
        records
    }

    /// Data frames currently parked in transmit queues network-wide.
    pub fn queued_data(&self) -> u64 {
        self.actors().map(|(_, node)| node.queued_data()).sum()
    }

    /// Schedules a generated mobility/churn scenario into the engine's
    /// world-event stream, starting at virtual time zero.
    pub fn install_scenario(&mut self, scenario: &Scenario) {
        self.install_scenario_at(scenario, SimTime::ZERO);
    }

    /// Schedules a scenario shifted to begin at `start` (warm up the
    /// protocol on the static world first, then let it move).
    pub fn install_scenario_at(&mut self, scenario: &Scenario, start: SimTime) {
        scenario.install_at(&mut self.sim, start);
    }

    /// Schedules a single world event.
    pub fn schedule_world(&mut self, at: SimTime, event: WorldEvent) {
        self.sim.schedule_world(at, event);
    }

    /// Advances the simulation by `d`.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Advances the simulation up to the absolute instant `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Engine statistics so far (events dispatched, deliveries, world
    /// changes, …).
    pub fn engine_stats(&self) -> SimStats {
        self.sim.stats()
    }

    /// Enables the engine event-trace ring buffer.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.sim.enable_trace(capacity);
    }

    /// The engine trace buffer, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.sim.trace()
    }

    /// The underlying simulator.
    pub fn sim(&self) -> &Simulator<OlsrNode<P>> {
        &self.sim
    }

    /// Mutable access to the underlying simulator (e.g. to schedule
    /// world events directly).
    pub fn sim_mut(&mut self) -> &mut Simulator<OlsrNode<P>> {
        &mut self.sim
    }

    /// The current ground-truth world.
    pub fn world(&self) -> &DynamicTopology {
        self.sim.world()
    }

    /// An immutable snapshot of the current ground-truth topology.
    pub fn topology(&self) -> Topology {
        self.world().snapshot()
    }

    /// The protocol node of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn node(&self, n: NodeId) -> &OlsrNode<P> {
        self.sim.actor(n)
    }

    /// Iterates every protocol node in ascending node-id order.
    fn actors(&self) -> impl Iterator<Item = (NodeId, &OlsrNode<P>)> {
        self.sim.actors()
    }

    /// Symmetric neighbors of `n` at the current time, ascending.
    pub fn symmetric_neighbors(&self, n: NodeId) -> Vec<NodeId> {
        self.node(n).symmetric_neighbors(self.now())
    }

    /// The current learned partial view `G_n`.
    pub fn local_view(&self, n: NodeId) -> LocalView {
        self.node(n).local_view(self.now())
    }

    /// Union of all nodes' currently-advertised links, as
    /// `(advertiser, neighbor, qos)` — the network-wide advertised
    /// topology remote nodes route over.
    pub fn advertised_topology(&self) -> Vec<(NodeId, NodeId, LinkQos)> {
        let mut links = Vec::new();
        for (id, node) in self.actors() {
            for &(n, qos) in node.advertised() {
                links.push((id, n, qos));
            }
        }
        links
    }

    /// Sum of per-node statistics.
    pub fn total_stats(&self) -> NodeStats {
        let mut total = NodeStats::default();
        for (_, node) in self.actors() {
            let s = node.stats();
            total.hello_sent += s.hello_sent;
            total.tc_sent += s.tc_sent;
            total.tc_forwarded += s.tc_forwarded;
            total.hello_received += s.hello_received;
            total.tc_received += s.tc_received;
            total.bytes_sent += s.bytes_sent;
            total.decode_errors += s.decode_errors;
            total.routes_recomputed += s.routes_recomputed;
            total.route_cache_hits += s.route_cache_hits;
            for (sum, ring) in total.tc_sent_ring.iter_mut().zip(s.tc_sent_ring) {
                *sum += ring;
            }
            total.dup_peek_hits += s.dup_peek_hits;
            total.bytes_decoded += s.bytes_decoded;
            total.malformed_frames += s.malformed_frames;
        }
        total
    }

    /// The shared stores' resident-memory and dedup statistics, summed
    /// over the per-shard arenas. Because arena boundaries follow shard
    /// boundaries, these gauges — unlike every protocol observable —
    /// legitimately vary with the shard count (a link set advertised in
    /// two shards is interned twice).
    pub fn store_gauges(&self) -> StoreGauges {
        let mut total = StoreGauges::default();
        for store in self.stores.iter() {
            let g = store.gauges();
            total.live_slots += g.live_slots;
            total.resident_links += g.resident_links;
            total.resident_bytes += g.resident_bytes;
            total.dedup_hits += g.dedup_hits;
            total.slots_interned += g.slots_interned;
        }
        total
    }

    /// Sum of per-node resident table footprints. Together with
    /// [`OlsrNetwork::store_gauges`] (counted once, not per node) this
    /// is the network's deterministic resident-memory figure:
    /// `total_footprint().bytes + store_gauges().resident_bytes`.
    pub fn total_footprint(&self) -> TableFootprint {
        let mut total = TableFootprint::default();
        for (_, node) in self.actors() {
            total.merge(&node.table_footprint());
        }
        total
    }

    /// Resident protocol-state summary: `(entries, approximate bytes)`
    /// across all per-node tables plus the shared store — the gauges
    /// the scale experiments report and CI budgets.
    pub fn resident_memory(&self) -> (u64, u64) {
        let f = self.total_footprint();
        let g = self.store_gauges();
        (
            f.topology_entries + f.duplicate_entries + g.resident_links,
            f.topology_bytes + f.duplicate_bytes + g.resident_bytes,
        )
    }
}

// `Bytes` is the message type; re-assert it so the harness fails to
// compile if the node's Actor impl drifts.
const _: fn() = || {
    fn assert_actor<A: qolsr_sim::Actor<Msg = Bytes>>() {}
    assert_actor::<OlsrNode<MprSelectorPolicy>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use qolsr_graph::{LocalView as GraphView, Point2, TopologyBuilder};

    /// 5-node line topology with distinct QoS per link.
    fn line5() -> Topology {
        let mut b = TopologyBuilder::new(15.0);
        let ids: Vec<NodeId> = (0..5)
            .map(|i| b.add_node(Point2::new(10.0 * i as f64, 0.0)))
            .collect();
        for w in ids.windows(2) {
            b.link(w[0], w[1], LinkQos::uniform((w[0].0 + 2) as u64))
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn neighbors_converge_to_ground_truth() {
        let topo = line5();
        let mut net = OlsrNetwork::with_defaults(topo, 7);
        net.run_for(SimDuration::from_secs(10));
        assert_eq!(net.symmetric_neighbors(NodeId(0)), vec![NodeId(1)]);
        assert_eq!(
            net.symmetric_neighbors(NodeId(2)),
            vec![NodeId(1), NodeId(3)]
        );
    }

    #[test]
    fn local_views_converge_to_extracted_views() {
        let topo = line5();
        let mut net = OlsrNetwork::with_defaults(topo.clone(), 7);
        net.run_for(SimDuration::from_secs(12));
        for n in topo.nodes() {
            let learned = net.local_view(n);
            let truth = GraphView::extract(&topo, n);
            assert!(
                learned.same_knowledge(&truth),
                "node {n} learned view differs from ground truth"
            );
        }
    }

    #[test]
    fn tc_flooding_reaches_everyone() {
        let topo = line5();
        let mut net = OlsrNetwork::with_defaults(topo.clone(), 9);
        net.run_for(SimDuration::from_secs(20));
        // Node 0 must know a route to node 4 (4 hops away).
        let routes = net.node(NodeId(0)).routes(net.now());
        let r = routes.get(&NodeId(4)).expect("route to far node");
        assert_eq!(r.hops, 4);
        assert_eq!(r.next_hop, NodeId(1));
        assert_eq!(net.total_stats().decode_errors, 0);
    }

    #[test]
    fn middle_nodes_become_mprs_on_a_line() {
        let topo = line5();
        let mut net = OlsrNetwork::with_defaults(topo, 11);
        net.run_for(SimDuration::from_secs(10));
        // On a line, each interior node must be an MPR of its neighbors.
        let sel1 = net.node(NodeId(1)).mpr_selectors(net.now());
        assert!(sel1.contains(&NodeId(0)) && sel1.contains(&NodeId(2)));
    }

    #[test]
    fn routes_reconverge_after_scheduled_link_break() {
        use qolsr_graph::WorldEvent;

        // Line 0—1—2—3—4 plus a detour link 1—3, so traffic 0→4 can
        // reroute when 2 fails out of the path.
        let mut b = TopologyBuilder::new(25.0);
        let ids: Vec<NodeId> = (0..5)
            .map(|i| b.add_node(Point2::new(10.0 * i as f64, 0.0)))
            .collect();
        for w in ids.windows(2) {
            b.link(w[0], w[1], LinkQos::uniform(2)).unwrap();
        }
        b.link(ids[1], ids[3], LinkQos::uniform(1)).unwrap();
        let mut net = OlsrNetwork::with_defaults(b.build(), 13);

        net.run_for(SimDuration::from_secs(20));
        let routes = net.node(NodeId(0)).routes(net.now());
        assert_eq!(routes.get(&NodeId(4)).expect("route").hops, 3); // 0-1-3-4

        // The detour dies: routing must fall back to the 4-hop line.
        net.schedule_world(
            net.now(),
            WorldEvent::LinkDown {
                a: NodeId(1),
                b: NodeId(3),
            },
        );
        net.run_for(SimDuration::from_secs(20));
        let routes = net.node(NodeId(0)).routes(net.now());
        let r = routes.get(&NodeId(4)).expect("route after re-convergence");
        assert_eq!(r.hops, 4, "must re-converge onto the line");
        assert!(!net.world().has_link(NodeId(1), NodeId(3)));
    }

    #[test]
    fn new_links_are_measured_and_used() {
        use qolsr_graph::WorldEvent;

        // Disconnected pair comes into range mid-run: the nodes must
        // discover each other purely through receive-time measurement.
        let mut b = TopologyBuilder::new(15.0);
        let a = b.add_node(Point2::new(0.0, 0.0));
        let c = b.add_node(Point2::new(100.0, 0.0));
        let mut net = OlsrNetwork::with_defaults(b.build(), 17);
        net.run_for(SimDuration::from_secs(5));
        assert!(net.symmetric_neighbors(a).is_empty());

        net.schedule_world(
            net.now(),
            WorldEvent::LinkUp {
                a,
                b: c,
                qos: LinkQos::uniform(6),
            },
        );
        net.run_for(SimDuration::from_secs(10));
        assert_eq!(net.symmetric_neighbors(a), vec![c]);
        let view = net.local_view(a);
        let lc = view.local_index(c).expect("c in view");
        assert_eq!(view.direct_qos(lc), Some(LinkQos::uniform(6)));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut net = OlsrNetwork::with_defaults(line5(), seed);
            net.run_for(SimDuration::from_secs(15));
            (net.total_stats(), net.advertised_topology())
        };
        assert_eq!(run(3), run(3));
    }
}
