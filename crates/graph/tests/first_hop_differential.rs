//! Differential test on paper-sized views: `first_hop_table` against the
//! per-neighbor decomposition over the public `best_paths_avoiding`, on
//! seeded deployments at the paper's lowest and highest densities.
//!
//! The property tests stop at 8 nodes, where a spanning forest has at
//! most 7 links. These views have tens to hundreds of nodes, thousands of
//! links and many tied link values (weights drawn from [1, 100]): the
//! graphs the selectors run on.

use std::fmt::Debug;

use qolsr_graph::deploy::{deploy, Deployment, UniformWeights};
use qolsr_graph::paths::{best_paths_avoiding, first_hop_table};
use qolsr_graph::{CompactGraph, LocalView};
use qolsr_metrics::{BandwidthMetric, DelayMetric, Metric, ResidualEnergyMetric};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Centers checked per world: every `STRIDE`-th node.
const STRIDE: usize = 25;

/// The test-only oracle: for each view node `v`, the best value and
/// first-hop set by `best(u, v) = opt_w extend(qos(u, w), best_{G − u}(w,
/// v))`, one Dijkstra per neighbor `w` of the center.
fn oracle<M: Metric>(g: &CompactGraph, u: u32) -> Vec<(M::Value, Vec<u32>)> {
    let n = g.len();
    let mut out = vec![(M::no_path(), Vec::new()); n];
    out[u as usize].0 = M::empty_path();
    for &(w, qos) in g.neighbors(u) {
        let link = M::link_value(&qos);
        if !M::is_reachable(link) {
            continue;
        }
        let sub = best_paths_avoiding::<M>(g, w, Some(u));
        for v in (0..n as u32).filter(|&v| v != u && sub.reachable(v)) {
            let cand = M::extend(link, sub.value(v));
            if !M::is_reachable(cand) {
                continue;
            }
            let (best, hops) = &mut out[v as usize];
            if M::better(cand, *best) {
                *best = cand;
                *hops = vec![w];
            } else if !M::better(*best, cand) {
                hops.push(w);
            }
        }
    }
    out
}

fn check<M: Metric>(view: &LocalView)
where
    M::Value: Debug,
{
    let (g, u) = (view.graph(), view.center_local());
    let table = first_hop_table::<M>(g, u);
    for (v, (best, hops)) in (0..).zip(oracle::<M>(g, u)) {
        let at = (M::NAME, view.center(), view.global_id(v));
        assert_eq!(table.best_value(v), best, "value: {at:?}");
        assert_eq!(table.first_hops(v), hops.as_slice(), "fP: {at:?}");
    }
}

fn check_world(mean_degree: f64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let deployment = Deployment::paper_defaults(mean_degree);
    let topo = deploy(&deployment, &UniformWeights::new(1, 100), &mut rng);
    for u in topo.nodes().step_by(STRIDE) {
        let view = LocalView::extract(&topo, u);
        check::<BandwidthMetric>(&view);
        check::<ResidualEnergyMetric>(&view);
        check::<DelayMetric>(&view);
    }
}

#[test]
fn sparsest_paper_density_matches_the_per_neighbor_dijkstra() {
    check_world(10.0, 0xF1857);
}

#[test]
fn densest_paper_density_matches_the_per_neighbor_dijkstra() {
    check_world(35.0, 0xF1835);
}
