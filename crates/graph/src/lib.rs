//! Wireless network substrate for the `qolsr-rs` reproduction of
//! *"Towards an efficient QoS based selection of neighbors in QOLSR"*
//! (Khadar, Mitton, Simplot-Ryl — SN/ICDCS 2010).
//!
//! This crate provides everything the paper's evaluation world needs:
//!
//! * [`Topology`] — unit-disk wireless graphs with QoS-labelled
//!   bidirectional links;
//! * [`deploy`] — Poisson point process deployment in a rectangle with the
//!   paper's `λ = δ/(πR²)` density parameterization and uniform random link
//!   weights;
//! * [`LocalView`] — the partial graph `G_u = (V_u, E_u)` a node learns
//!   from HELLO exchanges (its 1-hop and 2-hop neighborhood);
//! * [`DynamicTopology`] — the epoch-versioned mutable world behind
//!   mobility/churn scenarios, mutated by [`WorldEvent`]s;
//! * [`SpatialGrid`] — the uniform-cell spatial index behind every
//!   radius-based neighbor query (deployment linking, waypoint link
//!   recomputation, churn relinking), incremental and provably exact;
//! * [`paths`] — metric-generic best-path Dijkstra (additive *and*
//!   concave/bottleneck), **exact first-hop sets** `fP(u,v)` over simple
//!   paths, and a brute-force enumerator used to cross-check them;
//! * [`reduction`] — the QoS-weighted relative neighborhood graph used by
//!   the topology-filtering comparator;
//! * [`connectivity`] — component analysis for source/destination sampling;
//! * [`fixtures`] — the paper's worked example graphs (Figs. 1, 2, 4, 5).
//!
//! # Examples
//!
//! ```
//! use qolsr_graph::{fixtures, paths, LocalView};
//! use qolsr_metrics::{Bandwidth, BandwidthMetric};
//!
//! // The paper's Fig. 2 local-view example.
//! let fig = fixtures::fig2();
//! let view = LocalView::extract(&fig.topo, fig.u);
//! let table = paths::first_hop_table::<BandwidthMetric>(view.graph(), view.center_local());
//!
//! // fPBW(u, v3) = {v1, v2} with B~W(u, v3) = 4.
//! let v3 = view.local_index(fig.v[2]).unwrap();
//! assert_eq!(table.best_value(v3), Bandwidth(4));
//! let hops: Vec<_> = table.first_hops(v3).iter().map(|&w| view.global_id(w)).collect();
//! assert_eq!(hops, vec![fig.v[0], fig.v[1]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compact;
pub mod connectivity;
pub mod deploy;
pub mod dynamic;
pub mod fixtures;
mod geometry;
mod ids;
pub mod paths;
pub mod reduction;
mod spatial;
mod topology;
mod view;

pub use compact::CompactGraph;
pub use dynamic::{DynamicTopology, WorldEvent};
pub use geometry::Point2;
pub use ids::NodeId;
pub use spatial::SpatialGrid;
pub use topology::{Topology, TopologyBuilder, TopologyError};
pub use view::{LocalView, NeighborClass};
