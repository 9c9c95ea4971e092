//! Property tests: Dijkstra and first-hop sets against brute-force simple
//! path enumeration on random small graphs.

use proptest::prelude::*;
use qolsr_graph::paths::{best_paths, enumerate, first_hop_table};
use qolsr_graph::CompactGraph;
use qolsr_metrics::{
    Bandwidth, BandwidthMetric, Delay, DelayMetric, Energy, LinkQos, Metric, ResidualEnergyMetric,
};

/// Strategy: a random graph over `n ∈ [2, 8]` nodes on a random subset of
/// edges. Each link draws its bandwidth, delay and residual energy
/// independently from `[0, 10]`; a link of bandwidth or energy 0 is no
/// path under that metric.
fn random_graph() -> impl Strategy<Value = CompactGraph> {
    (2usize..=8).prop_flat_map(|n| {
        let pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|a| ((a + 1)..n as u32).map(move |b| (a, b)))
            .collect();
        let m = pairs.len();
        let label = (0u64..=10, 0u64..=10, 0u64..=10);
        (
            Just(n),
            Just(pairs),
            proptest::collection::vec(proptest::option::weighted(0.55, label), m),
        )
            .prop_map(|(n, pairs, labels)| {
                let mut g = CompactGraph::with_nodes(n);
                for ((a, b), label) in pairs.into_iter().zip(labels) {
                    if let Some((bw, delay, energy)) = label {
                        let qos = LinkQos::with_energy(Bandwidth(bw), Delay(delay), Energy(energy));
                        g.add_undirected(a, b, qos);
                    }
                }
                g
            })
    })
}

/// Strategy: a [`random_graph`] and a center drawn among its nodes.
fn rooted_graph() -> impl Strategy<Value = (CompactGraph, u32)> {
    random_graph().prop_flat_map(|g| {
        let n = g.len() as u32;
        (Just(g), 0..n)
    })
}

fn check_best_paths_against_enumeration<M: Metric>(g: &CompactGraph) -> Result<(), TestCaseError>
where
    M::Value: std::fmt::Debug,
{
    let bp = best_paths::<M>(g, 0);
    for v in 1..g.len() as u32 {
        let brute = enumerate::brute_force_first_hops::<M>(g, 0, v);
        match brute {
            None => prop_assert!(!bp.reachable(v), "node {v} should be unreachable"),
            Some((best, _)) => {
                prop_assert!(bp.reachable(v));
                prop_assert_eq!(bp.value(v), best, "best value mismatch at {}", v);
                // The reconstructed path must achieve the claimed value.
                let path = bp.path_to(v).unwrap();
                let achieved = enumerate::evaluate_path::<M>(g, &path);
                prop_assert_eq!(achieved, best, "reconstructed path suboptimal at {}", v);
            }
        }
    }
    Ok(())
}

fn check_first_hops_against_enumeration<M: Metric>(
    g: &CompactGraph,
    u: u32,
) -> Result<(), TestCaseError>
where
    M::Value: std::fmt::Debug,
{
    let t = first_hop_table::<M>(g, u);
    for v in 0..g.len() as u32 {
        match enumerate::brute_force_first_hops::<M>(g, u, v) {
            None => {
                prop_assert!(!t.reachable(v), "node {v} should be unreachable");
                prop_assert_eq!(t.best_value(v), M::no_path(), "value at {}", v);
            }
            Some((best, hops)) => {
                prop_assert_eq!(t.best_value(v), best, "value mismatch at {}", v);
                prop_assert_eq!(t.first_hops(v), hops.as_slice(), "fP mismatch at {}", v);
            }
        }
    }
    Ok(())
}

/// Toussaint's rule under `M`'s order: some common neighbor `z` of `a`
/// and `b` has both links strictly better than the direct edge.
fn has_rng_witness<M: Metric>(g: &CompactGraph, a: u32, b: u32) -> bool {
    let direct = M::link_value(&g.qos(a, b).expect("an edge"));
    g.neighbors(a).iter().any(|&(z, qa)| {
        g.qos(z, b).is_some_and(|qb| {
            M::better(M::link_value(&qa), direct) && M::better(M::link_value(&qb), direct)
        })
    })
}

/// The reduced graph is a subgraph that kept every surviving edge's
/// label, and it is exactly the RNG: an edge of `g` is removed iff it has
/// a witness in `g`.
fn check_rng_reduction_is_exact<M: Metric>(g: &CompactGraph) -> Result<(), TestCaseError> {
    let r = qolsr_graph::reduction::rng_reduce::<M>(g);
    prop_assert_eq!(r.len(), g.len());
    for (a, b, qos) in r.edges() {
        prop_assert_eq!(g.qos(a, b), Some(qos));
    }
    for (a, b, _) in g.edges() {
        let witness = has_rng_witness::<M>(g, a, b);
        prop_assert_eq!(
            r.has_edge(a, b),
            !witness,
            "{} edge ({},{}): kept {} with witness {}",
            M::NAME,
            a,
            b,
            r.has_edge(a, b),
            witness
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn widest_paths_match_enumeration(g in random_graph()) {
        check_best_paths_against_enumeration::<BandwidthMetric>(&g)?;
    }

    #[test]
    fn min_delay_paths_match_enumeration(g in random_graph()) {
        check_best_paths_against_enumeration::<DelayMetric>(&g)?;
    }

    #[test]
    fn bandwidth_first_hops_match_enumeration((g, u) in rooted_graph()) {
        check_first_hops_against_enumeration::<BandwidthMetric>(&g, u)?;
    }

    #[test]
    fn residual_energy_first_hops_match_enumeration((g, u) in rooted_graph()) {
        check_first_hops_against_enumeration::<ResidualEnergyMetric>(&g, u)?;
    }

    #[test]
    fn delay_first_hops_match_enumeration((g, u) in rooted_graph()) {
        check_first_hops_against_enumeration::<DelayMetric>(&g, u)?;
    }

    #[test]
    fn rng_reduction_is_sound(g in random_graph()) {
        check_rng_reduction_is_exact::<BandwidthMetric>(&g)?;
        check_rng_reduction_is_exact::<DelayMetric>(&g)?;
        check_rng_reduction_is_exact::<ResidualEnergyMetric>(&g)?;
    }

    #[test]
    fn local_view_never_sees_two_hop_to_two_hop_links(
        g in random_graph(),
    ) {
        // Build a Topology from the random graph and check the E_u rule.
        use qolsr_graph::{LocalView, NodeId, TopologyBuilder, NeighborClass};
        let mut b = TopologyBuilder::abstract_nodes(g.len());
        for (x, y, qos) in g.edges() {
            b.link(NodeId(x), NodeId(y), qos).unwrap();
        }
        let topo = b.build();
        let view = LocalView::extract(&topo, NodeId(0));
        for (la, lb, _) in view.graph().edges() {
            let ca = view.class(la);
            let cb = view.class(lb);
            prop_assert!(
                ca == NeighborClass::OneHop || cb == NeighborClass::OneHop,
                "E_u edge must touch a 1-hop neighbor"
            );
            // And it must exist in the ground truth.
            prop_assert!(topo.has_link(view.global_id(la), view.global_id(lb)));
        }
    }
}

/// A triangle of three equal links: no link is strictly better than
/// another, so no edge has a witness and the reduction keeps all three,
/// under every metric.
#[test]
fn rng_reduction_keeps_an_equal_triangle() {
    fn check<M: Metric>() {
        let mut g = CompactGraph::with_nodes(3);
        let qos = LinkQos::with_energy(Bandwidth(5), Delay(5), Energy(5));
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            g.add_undirected(a, b, qos);
        }
        let r = qolsr_graph::reduction::rng_reduce::<M>(&g);
        assert_eq!(r, g, "{}", M::NAME);
    }
    check::<BandwidthMetric>();
    check::<DelayMetric>();
    check::<ResidualEnergyMetric>();
}
