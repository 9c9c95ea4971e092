//! The paper's total preference order `≺u` (§III.A).
//!
//! For a node `u` and two of its neighbors `v`, `w`, the paper defines
//! `w ≺u v` iff the direct link `(u,w)` has strictly better QoS than
//! `(u,v)`, or both links tie and `w` has the **larger** identifier — which
//! makes "smaller identifier" win when taking the associated maximum
//! (`max≺BW`) or minimum (`min≺D`). Both extrema coincide once phrased as
//! "best link value, ties broken by smallest id", which is what
//! [`best_by_preference`] computes for any [`Metric`].

use std::cmp::Ordering;

use crate::metric::Metric;

/// Compares two `(link value, id)` pairs under `≺u`: [`Ordering::Less`]
/// means the first is preferred.
pub fn compare_preference<M: Metric, I: Ord>(a: (M::Value, I), b: (M::Value, I)) -> Ordering {
    if M::better(a.0, b.0) {
        Ordering::Less
    } else if M::better(b.0, a.0) {
        Ordering::Greater
    } else {
        a.1.cmp(&b.1)
    }
}

/// Selects the most-preferred element of an iterator of `(value, id)`
/// pairs — the paper's `max≺BW` / `min≺D` — returning `None` on an empty
/// iterator.
///
/// # Examples
///
/// ```
/// use qolsr_metrics::{best_by_preference, Bandwidth, BandwidthMetric};
///
/// let picked = best_by_preference::<BandwidthMetric, u32>(
///     [(Bandwidth(4), 1), (Bandwidth(9), 7), (Bandwidth(9), 3)],
/// );
/// // Highest bandwidth wins; the id tie-break picks 3 over 7.
/// assert_eq!(picked, Some((Bandwidth(9), 3)));
/// ```
pub fn best_by_preference<M: Metric, I: Ord + Copy>(
    items: impl IntoIterator<Item = (M::Value, I)>,
) -> Option<(M::Value, I)> {
    items.into_iter().fold(None, |acc, item| match acc {
        None => Some(item),
        Some(cur) => {
            if compare_preference::<M, I>((item.0, item.1), (cur.0, cur.1)) == Ordering::Less {
                Some(item)
            } else {
                Some(cur)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{BandwidthMetric, DelayMetric};
    use crate::value::{Bandwidth, Delay};

    #[test]
    fn bandwidth_prefers_wider_link() {
        let got =
            best_by_preference::<BandwidthMetric, u32>([(Bandwidth(5), 1), (Bandwidth(10), 9)]);
        assert_eq!(got, Some((Bandwidth(10), 9)));
    }

    #[test]
    fn delay_prefers_faster_link() {
        let got = best_by_preference::<DelayMetric, u32>([(Delay(5), 1), (Delay(2), 9)]);
        assert_eq!(got, Some((Delay(2), 9)));
    }

    #[test]
    fn tie_breaks_by_smaller_id() {
        let got = best_by_preference::<BandwidthMetric, u32>([
            (Bandwidth(7), 4),
            (Bandwidth(7), 2),
            (Bandwidth(7), 6),
        ]);
        assert_eq!(got, Some((Bandwidth(7), 2)));
    }

    #[test]
    fn empty_iterator_yields_none() {
        let got = best_by_preference::<BandwidthMetric, u32>(std::iter::empty());
        assert_eq!(got, None);
    }

    #[test]
    fn paper_fig2_example() {
        // On Fig. 2 the paper states v5 ≺u v1 is *false*: BW(u,v5)=1 is less
        // than BW(u,v1)=5, so v1 is preferred; and v1 ≺u v2 because both
        // links have bandwidth 5 and v1 has the smaller id.
        let v1 = (Bandwidth(5), 1u32);
        let v2 = (Bandwidth(5), 2u32);
        let v5 = (Bandwidth(1), 5u32);
        let cmp = compare_preference::<BandwidthMetric, u32>;
        assert_eq!(cmp(v1, v5), Ordering::Less);
        assert_eq!(cmp(v5, v1), Ordering::Greater);
        assert_eq!(cmp(v1, v2), Ordering::Less);
        assert_eq!(cmp(v2, v5), Ordering::Less);
    }

    #[test]
    fn compare_is_total_on_distinct_ids() {
        let a = (Bandwidth(4), 1u32);
        let b = (Bandwidth(4), 2u32);
        assert_eq!(
            compare_preference::<BandwidthMetric, u32>(a, b),
            Ordering::Less
        );
        assert_eq!(
            compare_preference::<BandwidthMetric, u32>(b, a),
            Ordering::Greater
        );
    }
}
