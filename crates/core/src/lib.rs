//! # qolsr — QoS-based neighbor selection for QOLSR
//!
//! Rust reproduction of *"Towards an efficient QoS based selection of
//! neighbors in QOLSR"* (F. Khadar, N. Mitton, D. Simplot-Ryl — Third
//! International Workshop on Sensor Networks, SN 2010, in conjunction with
//! IEEE ICDCS 2010).
//!
//! OLSR routes packets over the neighbor sets nodes advertise in TC
//! messages. The paper contributes **FNBP** (*first node on best path*): a
//! QoS advertised-neighbor-set (QANS) selection that, inside each node's
//! 2-hop view `G_u`, advertises a near-minimal set of first hops of
//! QoS-optimal paths — achieving near-optimal bandwidth/delay routes with
//! a much smaller advertised set than prior QOLSR variants.
//!
//! This crate implements the contribution and every comparator:
//!
//! * [`selector`] — [`AnsSelector`] implementations: [`Fnbp`] (Algorithms
//!   1 and 2, metric-generic, with the smallest-id reachability rule),
//!   [`QolsrMpr`] (Badis & Al Agha's MPR-1/MPR-2 heuristics),
//!   [`TopologyFiltering`] (Moraru & Simplot-Ryl's RNG-based QANS) and
//!   [`ClassicMpr`] (plain RFC 3626);
//! * [`advertised`] — network-wide advertised-topology construction (with
//!   crossbeam-parallel per-node selection);
//! * [`routing`] — the three routing evaluators (hop-by-hop,
//!   source-routed, advertised-links-only) used for the overhead figures;
//! * [`policy`] — adapters plugging any selector into the `qolsr-proto`
//!   protocol node, so selections also run inside the full discrete-event
//!   OLSR simulation;
//! * [`eval`] — the experiment harness regenerating the paper's Figures
//!   6–9 plus ablations.
//!
//! # Examples
//!
//! FNBP on the paper's Fig. 2 example:
//!
//! ```
//! use qolsr::selector::{AnsSelector, Fnbp};
//! use qolsr_graph::{fixtures, LocalView};
//! use qolsr_metrics::BandwidthMetric;
//!
//! let fig = fixtures::fig2();
//! let view = LocalView::extract(&fig.topo, fig.u);
//! let ans = Fnbp::<BandwidthMetric>::new().select(&view);
//! // u advertises v1 (covers v3..v5, v10), v6 (covers v8, v11) and v7
//! // (covers v9) — three nodes for an eleven-node neighborhood.
//! assert_eq!(
//!     ans.into_iter().collect::<Vec<_>>(),
//!     vec![fig.v[0], fig.v[5], fig.v[6]],
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advertised;
pub mod eval;
pub mod policy;
pub mod report;
pub mod routing;
pub mod selector;

pub use advertised::{build_advertised, AdvertisedTopology};
pub use routing::{route, RouteFailure, RouteOutcome, RouteStrategy};
pub use selector::{AnsSelector, ClassicMpr, Fnbp, MprVariant, QolsrMpr, TopologyFiltering};
