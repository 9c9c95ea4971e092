//! Criterion benchmarks for the [`SpatialGrid`] neighbor index: the
//! radius-relink workload — the per-tick core of `RandomWaypoint` and
//! the per-rejoin core of `PoissonChurn` — grid vs brute-force O(n²)
//! reference at n = 1000 and n = 4000, plus the incremental update path.
//! The raw position scan is where brute force is *strongest* (branchless
//! sequential arithmetic), so the crossover here is the conservative
//! bound; in the real scenario tick an all-pairs scan also pays per-pair
//! activity and link lookups.
//!
//! [`SpatialGrid`]: qolsr_graph::SpatialGrid

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qolsr_graph::{NodeId, Point2, SpatialGrid};
use qolsr_sim::SimRng;
use std::hint::black_box;

const RADIUS: f64 = 100.0;

/// Field side holding `n` nodes at mean degree 10 with R = 100.
fn side_for(n: usize) -> f64 {
    (n as f64 * std::f64::consts::PI * RADIUS * RADIUS / 10.0).sqrt()
}

fn positions(n: usize, seed: u64) -> Vec<Point2> {
    let side = side_for(n);
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point2::new(rng.next_f64() * side, rng.next_f64() * side))
        .collect()
}

/// Full relink discovery, brute force: every unordered pair distance-
/// tested — the baseline the grid is measured against.
fn naive_relink(ps: &[Point2]) -> usize {
    let r_sq = RADIUS * RADIUS;
    let mut in_range = 0;
    for i in 0..ps.len() {
        for j in (i + 1)..ps.len() {
            if ps[i].distance_sq(ps[j]) <= r_sq {
                in_range += 1;
            }
        }
    }
    in_range
}

/// Full relink discovery through a pre-built grid: one radius query per
/// node (each in-range pair counted once via the id order).
fn grid_relink(grid: &SpatialGrid, ps: &[Point2], scratch: &mut Vec<NodeId>) -> usize {
    let mut in_range = 0;
    for (i, &p) in ps.iter().enumerate() {
        grid.neighbors_within_into(p, RADIUS, scratch);
        in_range += scratch.iter().filter(|m| m.index() > i).count();
    }
    in_range
}

fn bench_relink(c: &mut Criterion) {
    let mut group = c.benchmark_group("relink");
    group.sample_size(10);
    for n in [1000usize, 4000] {
        let side = side_for(n);
        let ps = positions(n, 0x5E1D);
        let grid = SpatialGrid::from_positions(side, side, RADIUS, &ps);

        // Both discovery paths must agree before their times mean
        // anything.
        let mut scratch = Vec::new();
        assert_eq!(naive_relink(&ps), grid_relink(&grid, &ps, &mut scratch));

        group.bench_with_input(BenchmarkId::new("naive_all_pairs", n), &ps, |b, ps| {
            b.iter(|| black_box(naive_relink(ps)));
        });
        group.bench_with_input(BenchmarkId::new("grid_queries", n), &ps, |b, ps| {
            let mut scratch = Vec::new();
            b.iter(|| black_box(grid_relink(&grid, ps, &mut scratch)));
        });
        group.bench_with_input(BenchmarkId::new("grid_build", n), &ps, |b, ps| {
            b.iter(|| black_box(SpatialGrid::from_positions(side, side, RADIUS, ps)));
        });
    }
    group.finish();
}

/// The waypoint-tick update path: move 10% of the nodes a small step and
/// re-query around each mover.
fn bench_incremental(c: &mut Criterion) {
    const N: usize = 1000;
    let side = side_for(N);
    let ps = positions(N, 0xA11E);
    let movers: Vec<u32> = (0..N as u32).step_by(10).collect();

    let mut group = c.benchmark_group("incremental_n1000");
    group.sample_size(10);
    group.bench_function("move_and_requery_10pct", |b| {
        let mut grid = SpatialGrid::from_positions(side, side, RADIUS, &ps);
        let mut rng = SimRng::seed_from_u64(3);
        let mut scratch = Vec::new();
        b.iter(|| {
            for &m in &movers {
                let node = NodeId(m);
                let p = grid.position(node).expect("mover is indexed");
                let to = Point2::new(
                    (p.x + rng.next_f64() * 10.0 - 5.0).clamp(0.0, side),
                    (p.y + rng.next_f64() * 10.0 - 5.0).clamp(0.0, side),
                );
                grid.move_node(node, to);
                grid.neighbors_within_into(to, RADIUS, &mut scratch);
                black_box(scratch.len());
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_relink, bench_incremental);
criterion_main!(benches);
