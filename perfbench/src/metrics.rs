//! The benchmark's metric names and units, and the values one run fills in.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`; the self-tests check that every name there is printed
//! with the unit given here.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_ms_per_unit", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by traced runs. Counts are per measured
/// unit (simulated second, or world for `paper-sweep`); set-up spans are
/// per set-up; store and table gauges are levels at the end of the run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.timers", "count"),
    ("sim.ns_per_event", "ns"),
    ("span.run_ms", "ms"),
    ("sim.radio.broadcasts", "count"),
    ("sim.radio.deliveries", "count"),
    ("sim.radio.phy_drops", "count"),
    ("sim.radio.collisions", "count"),
    ("sim.stale_dropped", "count"),
    ("sim.world_changes", "count"),
    ("span.scenario_gen_ms", "ms"),
    ("sim.traffic.injected", "count"),
    ("sim.traffic.data_tx", "count"),
    ("sim.traffic.forwarded", "count"),
    ("sim.traffic.drop_no_route", "count"),
    ("sim.traffic.drop_queue_full", "count"),
    ("sim.traffic.drop_ttl", "count"),
    ("sim.traffic.drop_wiped", "count"),
    ("sim.traffic.in_flight", "count"),
    ("sim.traffic.event_share", "ratio"),
    ("sim.traffic.delivery_ratio", "ratio"),
    ("proto.wire.bytes_decoded", "B"),
    ("proto.wire.dup_peek_hits", "count"),
    ("proto.wire.peek_ratio", "ratio"),
    ("proto.wire.malformed", "count"),
    ("proto.hello_received", "count"),
    ("proto.tc_received", "count"),
    ("proto.tc_forwarded", "count"),
    ("proto.control_bytes", "B"),
    ("proto.routing.recomputes", "count"),
    ("proto.routing.cache_hits", "count"),
    ("proto.routing.hit_rate", "ratio"),
    ("span.route_probe_ms", "ms"),
    ("eval.route_validity", "ratio"),
    ("proto.store.dedup_ratio", "ratio"),
    ("proto.store.resident_mib", "MiB"),
    ("proto.tables.resident_mib", "MiB"),
    ("proto.tables.entries", "count"),
    ("span.deploy_ms", "ms"),
    ("span.network_build_ms", "ms"),
    ("span.install_ms", "ms"),
    ("span.warmup_ms", "ms"),
    ("span.view_extract_ms", "ms"),
    ("graph.view_nodes", "count"),
    ("span.select_ms.fnbp", "ms"),
    ("span.select_ms.tf", "ms"),
    ("span.select_ms.qolsr", "ms"),
    ("core.ans_size.fnbp", "count"),
    ("core.ans_size.tf", "count"),
    ("core.ans_size.qolsr", "count"),
    ("span.route_ms", "ms"),
    ("span.optimal_ms", "ms"),
    ("heap.allocs_per_event", "count"),
    ("heap.allocs_per_world", "count"),
    ("heap.peak_mib", "MiB"),
    ("span.validity_ms", "ms"),
    ("span.stats_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("sim.shard.k2_wall_ratio", "ratio"),
];

/// The spans every traced run opens, as `(span name, metric name)`. A
/// workload without one of these phases still opens and closes its span
/// once, so the metric reads the timer's own cost instead of a constant.
pub const PHASE_SPANS: &[(&str, &str)] = &[
    ("deploy", "span.deploy_ms"),
    ("scenario_gen", "span.scenario_gen_ms"),
    ("network_build", "span.network_build_ms"),
    ("install", "span.install_ms"),
    ("warmup", "span.warmup_ms"),
    ("run", "span.run_ms"),
    ("route_probe", "span.route_probe_ms"),
    ("validity", "span.validity_ms"),
    ("view_extract", "span.view_extract_ms"),
    ("select.fnbp", "span.select_ms.fnbp"),
    ("select.tf", "span.select_ms.tf"),
    ("select.qolsr", "span.select_ms.qolsr"),
    ("route", "span.route_ms"),
    ("optimal", "span.optimal_ms"),
    ("stats", "span.stats_ms"),
];

/// Mebibytes in `bytes`.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// `num / den`, or zero when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of `xs` (zero for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Metric values of one run, by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Renders the `metrics` object of the result line for `table`. A
    /// count or ratio a workload never touches reads zero; a time must
    /// have been measured.
    pub fn render(&self, table: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.get(name) {
                Some(v) => v,
                None if matches!(unit, "ms" | "s" | "ns") => {
                    return Err(format!("time metric {name} was not measured"));
                }
                None => 0.0,
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// A finite `f64` as a JSON number with all its digits.
pub fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(unit.len() <= 16);
        }
        for &(_, metric) in PHASE_SPANS {
            assert!(PER_LAYER.iter().any(|&(n, _)| n == metric), "{metric}");
        }
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn render_refuses_unmeasured_times() {
        let v = Values::default();
        assert!(v.render(&[("span.run_ms", "ms")]).is_err());
        assert_eq!(
            v.render(&[("sim.events", "count")]).unwrap(),
            "{\"sim.events\": {\"value\": 0, \"unit\": \"count\"}}"
        );
    }
}
