//! Criterion benchmarks for the ANS selectors — per-node selection cost
//! (the quantity a deployment cares about: FNBP's extra Dijkstras vs the
//! cheap QOLSR greedy), the local-view extraction every selector starts
//! from, and whole-network advertised-graph construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qolsr::advertised::build_advertised;
use qolsr::selector::{AnsSelector, ClassicMpr, Fnbp, MprVariant, QolsrMpr, TopologyFiltering};
use qolsr_bench::{busiest_view, paper_topology};
use qolsr_graph::LocalView;
use qolsr_metrics::BandwidthMetric;
use std::hint::black_box;

fn selectors() -> Vec<(&'static str, Box<dyn AnsSelector>)> {
    vec![
        ("classic_mpr", Box::new(ClassicMpr::new())),
        (
            "qolsr_mpr1",
            Box::new(QolsrMpr::<BandwidthMetric>::new(MprVariant::Mpr1)),
        ),
        (
            "qolsr_mpr2",
            Box::new(QolsrMpr::<BandwidthMetric>::new(MprVariant::Mpr2)),
        ),
        (
            "topology_filtering",
            Box::new(TopologyFiltering::<BandwidthMetric>::new()),
        ),
        ("fnbp", Box::new(Fnbp::<BandwidthMetric>::new())),
    ]
}

fn bench_single_node_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_one_node");
    for density in [10.0, 20.0, 30.0] {
        let topo = paper_topology(density, 0x5E1);
        let view = busiest_view(&topo);
        for (name, sel) in selectors() {
            group.bench_with_input(
                BenchmarkId::new(name, format!("d{density}_view{}", view.len())),
                &view,
                |b, view| {
                    b.iter(|| black_box(sel.select(view)));
                },
            );
        }
    }

    // The paper's densest setting, for the selectors whose cost is the
    // substrate under them (QOLSR's coverage rows, topology filtering's
    // RNG sweep) and for the view extraction they all start from.
    let topo = paper_topology(35.0, 0x5E1);
    let view = busiest_view(&topo);
    let id = format!("d35_view{}", view.len());
    for (name, sel) in selectors() {
        if matches!(name, "qolsr_mpr2" | "topology_filtering") {
            group.bench_with_input(BenchmarkId::new(name, &id), &view, |b, view| {
                b.iter(|| black_box(sel.select(view)));
            });
        }
    }
    group.bench_with_input(
        BenchmarkId::new("local_view_extract", &id),
        &topo,
        |b, topo| {
            b.iter(|| black_box(LocalView::extract(topo, view.center())));
        },
    );
    group.finish();
}

fn bench_network_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("build_advertised");
    group.sample_size(10);
    let topo = paper_topology(15.0, 0xAD50);
    for (name, sel) in selectors() {
        group.bench_with_input(
            BenchmarkId::new(name, format!("n{}", topo.len())),
            &topo,
            |b, topo| {
                b.iter(|| black_box(build_advertised(topo, sel.as_ref(), 1)));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_node_selection,
    bench_network_selection
);
criterion_main!(benches);
