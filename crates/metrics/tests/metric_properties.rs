//! Property-based tests for the metric laws documented on
//! [`qolsr_metrics::Metric`].

use proptest::prelude::*;
use qolsr_metrics::{
    path_value, Bandwidth, BandwidthMetric, Delay, DelayMetric, Metric, ResidualEnergyMetric,
};

proptest! {
    #[test]
    fn bandwidth_path_value_is_min(links in proptest::collection::vec(1u64..1_000, 1..16)) {
        let v = path_value::<BandwidthMetric>(links.iter().copied().map(Bandwidth));
        prop_assert_eq!(v, Bandwidth(*links.iter().min().unwrap()));
    }

    #[test]
    fn delay_path_value_is_sum(links in proptest::collection::vec(1u64..1_000, 1..16)) {
        let v = path_value::<DelayMetric>(links.iter().copied().map(Delay));
        prop_assert_eq!(v, Delay(links.iter().sum()));
    }

    #[test]
    fn bandwidth_fold_order_invariant(mut links in proptest::collection::vec(1u64..1_000, 1..16)) {
        let forward = path_value::<BandwidthMetric>(links.iter().copied().map(Bandwidth));
        links.reverse();
        let backward = path_value::<BandwidthMetric>(links.iter().copied().map(Bandwidth));
        prop_assert_eq!(forward, backward);
    }

    #[test]
    fn extending_never_improves_bandwidth(path in 0u64..10_000, link in 0u64..10_000) {
        let ext = BandwidthMetric::extend(Bandwidth(path), Bandwidth(link));
        prop_assert!(!BandwidthMetric::better(ext, Bandwidth(path)));
    }

    #[test]
    fn extending_never_improves_delay(path in 0u64..10_000, link in 0u64..10_000) {
        let ext = DelayMetric::extend(Delay(path), Delay(link));
        prop_assert!(!DelayMetric::better(ext, Delay(path)));
    }

    #[test]
    fn better_is_asymmetric(a in 0u64..10_000, b in 0u64..10_000) {
        prop_assert!(!(BandwidthMetric::better(Bandwidth(a), Bandwidth(b))
            && BandwidthMetric::better(Bandwidth(b), Bandwidth(a))));
        prop_assert!(!(DelayMetric::better(Delay(a), Delay(b))
            && DelayMetric::better(Delay(b), Delay(a))));
    }

    #[test]
    fn better_is_transitive(a in 0u64..100, b in 0u64..100, c in 0u64..100) {
        if BandwidthMetric::better(Bandwidth(a), Bandwidth(b))
            && BandwidthMetric::better(Bandwidth(b), Bandwidth(c))
        {
            prop_assert!(BandwidthMetric::better(Bandwidth(a), Bandwidth(c)));
        }
    }

    #[test]
    fn best_by_preference_agrees_with_naive_scan(
        items in proptest::collection::vec((1u64..100, 0u32..64), 1..20),
    ) {
        let got = qolsr_metrics::best_by_preference::<BandwidthMetric, u32>(
            items.iter().map(|&(v, i)| (Bandwidth(v), i)),
        );
        // Naive: maximum value, then minimum id among maxima.
        let max = items.iter().map(|&(v, _)| v).max().unwrap();
        let id = items
            .iter()
            .filter(|&&(v, _)| v == max)
            .map(|&(_, i)| i)
            .min()
            .unwrap();
        prop_assert_eq!(got, Some((Bandwidth(max), id)));
    }

    #[test]
    fn energy_metric_is_concave(links in proptest::collection::vec(1u64..1_000, 1..16)) {
        let v = path_value::<ResidualEnergyMetric>(
            links.iter().copied().map(qolsr_metrics::Energy),
        );
        prop_assert_eq!(v.value(), *links.iter().min().unwrap());
    }
}
