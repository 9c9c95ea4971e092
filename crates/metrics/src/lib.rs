//! QoS metric framework for the `qolsr-rs` reproduction of
//! *"Towards an efficient QoS based selection of neighbors in QOLSR"*
//! (Khadar, Mitton, Simplot-Ryl — SN/ICDCS 2010).
//!
//! The paper parameterizes every algorithm by a QoS metric that is either
//! **additive** (the value of a path is the *sum* of its link values, e.g.
//! delay, jitter, packet loss in log-space) or **concave** (the value of a
//! path is the *minimum* of its link values, e.g. bandwidth, free buffers,
//! residual energy). This crate captures that abstraction as the [`Metric`]
//! trait together with the concrete value types used throughout the
//! workspace.
//!
//! # Examples
//!
//! Computing the QoS value of a path under both metric families:
//!
//! ```
//! use qolsr_metrics::{Bandwidth, BandwidthMetric, Delay, DelayMetric, Metric, path_value};
//!
//! // A three-link path with per-link bandwidths 10, 4, 7: bottleneck is 4.
//! let bw = path_value::<BandwidthMetric>([10, 4, 7].map(Bandwidth));
//! assert_eq!(bw, Bandwidth(4));
//!
//! // The same path with per-link delays 1, 2, 3: total is 6.
//! let d = path_value::<DelayMetric>([1, 2, 3].map(Delay));
//! assert_eq!(d, Delay(6));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod link;
mod metric;
mod pref;
mod value;

pub use link::LinkQos;
pub use metric::{
    path_value, BandwidthMetric, DelayMetric, Metric, MetricKind, ResidualEnergyMetric,
};
pub use pref::{best_by_preference, compare_preference};
pub use value::{Bandwidth, Delay, Energy};
