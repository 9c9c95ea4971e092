//! The [`Metric`] abstraction: additive and concave path metrics.

use std::fmt::Debug;
use std::hash::Hash;

use crate::link::LinkQos;
use crate::value::{Bandwidth, Delay, Energy};

/// Classification of a path metric, following §III of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Path value is the sum of link values (delay, jitter, loss).
    Additive,
    /// Path value is the minimum of link values (bandwidth, buffers, energy).
    ///
    /// The law the code relies on, for every path value `a` and link value
    /// `l`: `extend(a, l)` is whichever of `a` and `l` is not better, and
    /// [`Metric::empty_path`] is at least as good as every link value. Under
    /// it a path is exactly as good as its worst link, so best paths can be
    /// read off a maximum spanning forest, which is how `qolsr-graph`
    /// computes first-hop sets for concave metrics.
    Concave,
}

/// A QoS path metric.
///
/// A metric defines how link values [`extend`](Metric::extend) into path
/// values and which of two path values is [`better`](Metric::better). The
/// paper's algorithms (Algorithms 1 and 2) are *identical* up to this
/// abstraction — bandwidth maximizes a concave quantity, delay minimizes an
/// additive one — so all of `qolsr-graph`'s path algorithms and `qolsr`'s
/// selectors are generic over `M: Metric`.
///
/// Implementations must satisfy, for all values `a`, `b`, `l`:
///
/// * `extend(empty_path(), l) == l` for any single link `l`;
/// * `extend(no_path(), l)` is never better than `no_path()` (absorption);
/// * extending a path never improves it:
///   `!better(extend(a, l), a)` — delay grows, bandwidth shrinks;
/// * `better` is a strict weak order.
///
/// # Examples
///
/// ```
/// use qolsr_metrics::{Bandwidth, BandwidthMetric, Metric};
///
/// let a = Bandwidth(10);
/// let b = Bandwidth(3);
/// assert!(BandwidthMetric::better(a, b)); // more bandwidth is better
/// assert_eq!(BandwidthMetric::extend(a, b), Bandwidth(3)); // bottleneck
/// ```
pub trait Metric: Copy + Debug + Default + Send + Sync + 'static {
    /// The path-value type.
    type Value: Copy + Eq + Hash + Debug + Send + Sync;

    /// Human-readable metric name (used in reports and figures).
    const NAME: &'static str;

    /// Whether the metric is additive or concave.
    fn kind() -> MetricKind;

    /// Value of the empty path (identity of [`extend`](Metric::extend)).
    fn empty_path() -> Self::Value;

    /// Value representing the absence of any path; worse than every real
    /// path value and absorbing under [`extend`](Metric::extend).
    fn no_path() -> Self::Value;

    /// Extends a path value with one more link.
    fn extend(path: Self::Value, link: Self::Value) -> Self::Value;

    /// Returns `true` when `a` is *strictly* better than `b`.
    fn better(a: Self::Value, b: Self::Value) -> bool;

    /// Extracts this metric's link value from a QoS link label.
    fn link_value(qos: &LinkQos) -> Self::Value;

    /// Returns `true` when `a` is better than or equal to `b`.
    fn better_or_equal(a: Self::Value, b: Self::Value) -> bool {
        !Self::better(b, a)
    }

    /// Returns the better of two values (first argument wins ties).
    fn best(a: Self::Value, b: Self::Value) -> Self::Value {
        if Self::better(b, a) {
            b
        } else {
            a
        }
    }

    /// Returns `true` if `v` denotes a usable (reachable) path value.
    fn is_reachable(v: Self::Value) -> bool {
        Self::better(v, Self::no_path())
    }
}

/// Folds link values into a path value under metric `M`.
///
/// # Examples
///
/// ```
/// use qolsr_metrics::{path_value, Delay, DelayMetric};
///
/// let d = path_value::<DelayMetric>([1, 2, 3].map(Delay));
/// assert_eq!(d, Delay(6));
/// ```
pub fn path_value<M: Metric>(links: impl IntoIterator<Item = M::Value>) -> M::Value {
    links
        .into_iter()
        .fold(M::empty_path(), |acc, l| M::extend(acc, l))
}

/// The paper's concave example metric: **bandwidth**.
///
/// `BW(p) = min_i BW(x_i, x_{i+1})`; larger is better.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BandwidthMetric;

impl Metric for BandwidthMetric {
    type Value = Bandwidth;

    const NAME: &'static str = "bandwidth";

    fn kind() -> MetricKind {
        MetricKind::Concave
    }

    fn empty_path() -> Bandwidth {
        Bandwidth::MAX
    }

    fn no_path() -> Bandwidth {
        Bandwidth::ZERO
    }

    fn extend(path: Bandwidth, link: Bandwidth) -> Bandwidth {
        path.min(link)
    }

    fn better(a: Bandwidth, b: Bandwidth) -> bool {
        a > b
    }

    fn link_value(qos: &LinkQos) -> Bandwidth {
        qos.bandwidth
    }
}

/// The paper's additive example metric: **delay**.
///
/// `D(p) = Σ_i D(x_i, x_{i+1})`; smaller is better.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DelayMetric;

impl Metric for DelayMetric {
    type Value = Delay;

    const NAME: &'static str = "delay";

    fn kind() -> MetricKind {
        MetricKind::Additive
    }

    fn empty_path() -> Delay {
        Delay::ZERO
    }

    fn no_path() -> Delay {
        Delay::MAX
    }

    fn extend(path: Delay, link: Delay) -> Delay {
        path.saturating_add(link)
    }

    fn better(a: Delay, b: Delay) -> bool {
        a < b
    }

    fn link_value(qos: &LinkQos) -> Delay {
        qos.delay
    }
}

/// Residual-energy metric (concave): the energy of a path is the minimum
/// residual energy along it; larger is better. It models the paper's
/// future-work direction of energy-aware selection.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResidualEnergyMetric;

impl Metric for ResidualEnergyMetric {
    type Value = Energy;

    const NAME: &'static str = "residual-energy";

    fn kind() -> MetricKind {
        MetricKind::Concave
    }

    fn empty_path() -> Energy {
        Energy::MAX
    }

    fn no_path() -> Energy {
        Energy::ZERO
    }

    fn extend(path: Energy, link: Energy) -> Energy {
        path.min(link)
    }

    fn better(a: Energy, b: Energy) -> bool {
        a > b
    }

    fn link_value(qos: &LinkQos) -> Energy {
        qos.energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_is_bottleneck() {
        let v = path_value::<BandwidthMetric>([Bandwidth(10), Bandwidth(4), Bandwidth(7)]);
        assert_eq!(v, Bandwidth(4));
    }

    #[test]
    fn delay_is_sum() {
        let v = path_value::<DelayMetric>([Delay(1), Delay(2), Delay(3)]);
        assert_eq!(v, Delay(6));
    }

    #[test]
    fn empty_path_is_identity() {
        assert_eq!(
            BandwidthMetric::extend(BandwidthMetric::empty_path(), Bandwidth(5)),
            Bandwidth(5)
        );
        assert_eq!(
            DelayMetric::extend(DelayMetric::empty_path(), Delay(5)),
            Delay(5)
        );
        assert_eq!(
            ResidualEnergyMetric::extend(ResidualEnergyMetric::empty_path(), Energy(5)),
            Energy(5)
        );
    }

    #[test]
    fn no_path_is_absorbing_and_worst() {
        let l = Bandwidth(9);
        let ext = BandwidthMetric::extend(BandwidthMetric::no_path(), l);
        assert!(!BandwidthMetric::better(ext, BandwidthMetric::no_path()));
        assert!(BandwidthMetric::better(l, BandwidthMetric::no_path()));

        let l = Delay(9);
        let ext = DelayMetric::extend(DelayMetric::no_path(), l);
        assert!(!DelayMetric::better(ext, DelayMetric::no_path()));
        assert!(DelayMetric::better(l, DelayMetric::no_path()));
    }

    #[test]
    fn extending_never_improves() {
        assert!(!BandwidthMetric::better(
            BandwidthMetric::extend(Bandwidth(5), Bandwidth(2)),
            Bandwidth(5)
        ));
        assert!(!DelayMetric::better(
            DelayMetric::extend(Delay(5), Delay(2)),
            Delay(5)
        ));
    }

    #[test]
    fn concave_extend_keeps_the_worse_value() {
        fn law<M: Metric>(values: &[M::Value]) {
            assert_eq!(M::kind(), MetricKind::Concave);
            for &l in values {
                assert!(M::better_or_equal(M::empty_path(), l), "{l:?}");
                for &a in values {
                    let e = M::extend(a, l);
                    assert!(e == a || e == l, "extend({a:?}, {l:?}) = {e:?}");
                    assert!(!M::better(e, a) && !M::better(e, l), "extend({a:?}, {l:?})");
                }
            }
        }
        let raw = [0, 1, 2, 7, 100, u64::MAX - 1, u64::MAX];
        law::<BandwidthMetric>(&raw.map(Bandwidth));
        law::<ResidualEnergyMetric>(&raw.map(Energy));
    }

    #[test]
    fn better_direction() {
        assert!(BandwidthMetric::better(Bandwidth(10), Bandwidth(6)));
        assert!(DelayMetric::better(Delay(1), Delay(2)));
        assert!(ResidualEnergyMetric::better(Energy(8), Energy(2)));
    }

    #[test]
    fn best_prefers_first_on_tie() {
        assert_eq!(
            BandwidthMetric::best(Bandwidth(5), Bandwidth(5)),
            Bandwidth(5)
        );
        assert_eq!(
            BandwidthMetric::best(Bandwidth(2), Bandwidth(7)),
            Bandwidth(7)
        );
    }

    #[test]
    fn is_reachable() {
        assert!(BandwidthMetric::is_reachable(Bandwidth(1)));
        assert!(!BandwidthMetric::is_reachable(Bandwidth::ZERO));
        assert!(DelayMetric::is_reachable(Delay(100)));
        assert!(!DelayMetric::is_reachable(Delay::MAX));
    }

    #[test]
    fn kinds() {
        assert_eq!(BandwidthMetric::kind(), MetricKind::Concave);
        assert_eq!(DelayMetric::kind(), MetricKind::Additive);
        assert_eq!(ResidualEnergyMetric::kind(), MetricKind::Concave);
    }

    #[test]
    fn link_value_extraction() {
        let qos = LinkQos::with_energy(Bandwidth(3), Delay(4), Energy(5));
        assert_eq!(BandwidthMetric::link_value(&qos), Bandwidth(3));
        assert_eq!(DelayMetric::link_value(&qos), Delay(4));
        assert_eq!(ResidualEnergyMetric::link_value(&qos), Energy(5));
    }
}
