//! Criterion benchmarks for the path-algorithm substrate: best-path
//! Dijkstra (both metric families), exact first-hop sets, shortest-best
//! route extraction and the RNG reduction — the inner loops of every
//! experiment.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use qolsr_bench::{busiest_view, paper_topology, sample_route_pair};
use qolsr_graph::paths::{best_paths, best_route, first_hop_table};
use qolsr_graph::reduction::rng_reduce;
use qolsr_graph::LocalView;
use qolsr_metrics::{BandwidthMetric, DelayMetric, Metric, ResidualEnergyMetric};
use std::hint::black_box;

fn bench_best_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("best_paths");
    for density in [10.0, 20.0, 30.0] {
        let topo = paper_topology(density, 0xBE9C);
        let n = topo.len();
        group.bench_with_input(
            BenchmarkId::new("widest/topology", format!("d{density}_n{n}")),
            &topo,
            |b, topo| {
                b.iter(|| black_box(best_paths::<BandwidthMetric>(topo.graph(), 0)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("min_delay/topology", format!("d{density}_n{n}")),
            &topo,
            |b, topo| {
                b.iter(|| black_box(best_paths::<DelayMetric>(topo.graph(), 0)));
            },
        );
    }
    group.finish();
}

fn bench_first_hops(c: &mut Criterion) {
    /// One table per iteration on the busiest view of the world.
    fn case<M: Metric>(group: &mut BenchmarkGroup<'_>, id: &str, view: &LocalView) {
        group.bench_with_input(
            BenchmarkId::new(format!("{}/local_view", M::NAME), id),
            view,
            |b, view| {
                b.iter(|| black_box(first_hop_table::<M>(view.graph(), view.center_local())));
            },
        );
    }
    let mut group = c.benchmark_group("first_hop_table");
    // δ = 35 is the paper's densest world, where a table costs the most.
    for density in [10.0, 20.0, 30.0, 35.0] {
        let topo = paper_topology(density, 0xF14B);
        let view = busiest_view(&topo);
        let id = format!("d{density}_view{}", view.len());
        // The two concave metrics read a maximum spanning forest; delay
        // runs one Dijkstra per neighbor.
        case::<BandwidthMetric>(&mut group, &id, &view);
        case::<ResidualEnergyMetric>(&mut group, &id, &view);
        case::<DelayMetric>(&mut group, &id, &view);
    }
    group.finish();
}

fn bench_best_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("best_route");
    let topo = paper_topology(20.0, 0x0A7E);
    let (s, t) = sample_route_pair(&topo).expect("connected pair");
    group.bench_function("shortest_widest/topology_d20", |b| {
        b.iter(|| black_box(best_route::<BandwidthMetric>(topo.graph(), s.0, t.0)));
    });
    group.bench_function("shortest_fastest/topology_d20", |b| {
        b.iter(|| black_box(best_route::<DelayMetric>(topo.graph(), s.0, t.0)));
    });
    group.finish();
}

fn bench_rng_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("rng_reduce");
    for density in [15.0, 30.0] {
        let topo = paper_topology(density, 0x4E6);
        let view = busiest_view(&topo);
        group.bench_with_input(
            BenchmarkId::new("bandwidth/local_view", format!("d{density}")),
            &view,
            |b, view| {
                b.iter(|| black_box(rng_reduce::<BandwidthMetric>(view.graph())));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_best_paths,
    bench_first_hops,
    bench_best_route,
    bench_rng_reduce
);
criterion_main!(benches);
