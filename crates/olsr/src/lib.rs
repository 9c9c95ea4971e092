//! OLSR protocol substrate (RFC 3626 style, with the QoS extensions the
//! paper's QOLSR variants assume) for the `qolsr-rs` reproduction of
//! *"Towards an efficient QoS based selection of neighbors in QOLSR"*
//! (Khadar, Mitton, Simplot-Ryl — SN/ICDCS 2010).
//!
//! The crate implements the full proactive machinery the paper builds on:
//!
//! * [`messages`] — HELLO and TC messages carrying per-link QoS (the
//!   paper's "piggybacking neighborhood table in Hello messages"), plus a
//!   binary [`wire`] codec used on the simulated radio;
//! * [`tables`] — link sensing with validity times, the neighbor and
//!   2-hop neighbor sets, MPR-selector set, topology base (ANSN
//!   sequencing) and duplicate set;
//! * [`mpr`] — the classical RFC 3626 greedy MPR heuristic (the flooding
//!   set every variant keeps) and the bitset coverage rows it shares with
//!   the QOLSR heuristics;
//! * [`routing`] — RFC-style hop-count routing-table calculation from
//!   local links plus TC-learned topology;
//! * [`intern`] / [`store`] — dense id interning and the network-shared
//!   interned link-set store: each originator's advertised set is held
//!   once per network (delta-compressed, refcounted) instead of once
//!   per receiver, with nodes keeping only `(ansn, expiry, set)`
//!   overlays — the city-scale memory subsystem;
//! * [`node`] — [`OlsrNode`]: the protocol state machine as a
//!   [`qolsr_sim::Actor`], generic over an [`AdvertisePolicy`] so the core
//!   crate can plug in QANS selection (FNBP, topology filtering, QOLSR
//!   MPR variants) without forking the protocol;
//! * [`network`] — a harness that runs a whole OLSR network over
//!   `qolsr-sim` and extracts converged state.
//!
//! # The HELLO/TC lifecycle
//!
//! Each node runs three periodic timers (intervals in [`OlsrConfig`],
//! jittered per RFC 3626 §18.1):
//!
//! 1. **HELLO** (default every 2 s): the node broadcasts its current
//!    link table — every heard neighbor with an asymmetric, symmetric or
//!    MPR link code plus the measured link QoS. Receivers run link
//!    sensing over it: hearing a HELLO refreshes the asymmetric
//!    lifetime, being *listed* in one proves bidirectionality, and the
//!    MPR code registers the sender in the receiver's MPR-selector set.
//!    Links age out when `neighbor_hold_time` passes without refresh.
//! 2. **TC** (default every 5 s): the node floods its advertised
//!    neighbor set (chosen by the [`AdvertisePolicy`] — the paper's
//!    ANS/QANS) under an ANSN sequence number. Only MPRs retransmit
//!    (checked per sender against the MPR-selector set), the duplicate
//!    set suppresses re-floods, and retransmission patches the received
//!    buffer's TTL/hop bytes ([`wire::forward`]) instead of re-encoding.
//!    With [`TcScoping::Fisheye`], emissions rotate through TTL-bounded
//!    scope rings so near neighborhoods see frequent refreshes while
//!    expensive full-radius floods happen only every few intervals. On
//!    the receive side, every frame is first peeked ([`wire::peek`]):
//!    duplicate and stale TC deliveries are resolved from the header
//!    without ever parsing the body, and data frames are delivered or
//!    forwarded from the header alone.
//! 3. **Sweep** (default every 1 s): expired link, topology, and
//!    duplicate tuples are evicted.
//!
//! Routing tables derive on demand from the swept tables through an
//! incremental [`RouteCache`], exact out to a radius that each link pair
//! a TC or a HELLO inserts narrows by what it can move, except below the
//! tree edges a TC removed: a query recomputes only when its answer may
//! lie beyond the radius or below such a cut, or a tuple it read
//! expired.
//!
//! # Determinism contract
//!
//! Protocol behaviour is a pure function of `(topology, config, seed)`:
//! all randomness (emission jitter, delivery jitter) flows from the
//! engine's seeded per-node streams, so two runs with equal inputs
//! replay byte-identically — stats, traces and routing tables. The
//! differential suites lean on this: `TcScoping::Uniform` keeps the
//! pre-scoping behaviour as a live configuration, and seeded replays
//! pin each optimized path against the end state recorded from the
//! reference formulation it replaced — the decode-first receive path
//! (`tests/tc_scoping_differential.rs`), the binary-heap scheduler
//! (`tests/scheduler_differential.rs`) and the per-node topology
//! tables (`tests/store_differential.rs`).
//!
//! # Examples
//!
//! Run a three-node line network until HELLO/TC convergence and inspect
//! symmetric neighbors:
//!
//! ```
//! use qolsr_graph::{NodeId, Point2, TopologyBuilder};
//! use qolsr_metrics::LinkQos;
//! use qolsr_proto::{network::OlsrNetwork, OlsrConfig};
//! use qolsr_sim::SimDuration;
//!
//! let mut b = TopologyBuilder::new(10.0);
//! let n0 = b.add_node(Point2::new(0.0, 0.0));
//! let n1 = b.add_node(Point2::new(5.0, 0.0));
//! let n2 = b.add_node(Point2::new(10.0, 0.0));
//! b.link(n0, n1, LinkQos::uniform(5)).unwrap();
//! b.link(n1, n2, LinkQos::uniform(7)).unwrap();
//!
//! let mut net = OlsrNetwork::with_defaults(b.build(), 42);
//! net.run_for(SimDuration::from_secs(12));
//! assert_eq!(net.symmetric_neighbors(n1), vec![n0, n2]);
//! ```
//!
//! Fisheye-scoped dissemination cuts TC-flood traffic — here on a line,
//! where most full-radius forwards are replaced by 2-hop floods — while
//! the duplicate-peek decode path resolves repeat deliveries without
//! parsing:
//!
//! ```
//! use qolsr_graph::{NodeId, Point2, TopologyBuilder};
//! use qolsr_metrics::LinkQos;
//! use qolsr_proto::network::OlsrNetwork;
//! use qolsr_proto::{OlsrConfig, TcScoping};
//! use qolsr_sim::{RadioConfig, SimDuration};
//!
//! let line = || {
//!     let mut b = TopologyBuilder::new(15.0);
//!     let ids: Vec<_> = (0..8)
//!         .map(|i| b.add_node(Point2::new(10.0 * i as f64, 0.0)))
//!         .collect();
//!     for w in ids.windows(2) {
//!         b.link(w[0], w[1], LinkQos::uniform(3)).unwrap();
//!     }
//!     b.build()
//! };
//! let run = |scoping| {
//!     let cfg = OlsrConfig {
//!         tc_scoping: scoping,
//!         ..OlsrConfig::default()
//!     };
//!     let mut net =
//!         OlsrNetwork::new(line(), cfg, RadioConfig::default(), 7, |_| {
//!             qolsr_proto::MprSelectorPolicy
//!         });
//!     net.run_for(SimDuration::from_secs(60));
//!     net.total_stats()
//! };
//! let uniform = run(TcScoping::Uniform);
//! let fisheye = run(TcScoping::Fisheye(Default::default()));
//! assert!(fisheye.tc_forwarded < uniform.tc_forwarded);
//! assert!(fisheye.dup_peek_hits > 0, "duplicates resolved without decode");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod intern;
pub mod messages;
pub mod mpr;
pub mod network;
pub mod node;
pub mod routing;
pub mod store;
pub mod tables;
pub mod wire;

pub use config::{
    EtxParams, FisheyeRing, FisheyeRings, HysteresisParams, LinkHysteresis, LinkMetric, OlsrConfig,
    SensingParams, TcScoping,
};
pub use node::{AdvertisePolicy, MprSelectorPolicy, NodeStats, OlsrNode, TableFootprint};
pub use routing::{RouteCache, RouteEntry, RouteScratch};
pub use store::{SharedLinkStore, StoreGauges};
