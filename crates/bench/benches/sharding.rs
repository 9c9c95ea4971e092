//! Criterion benchmarks of the engine's shard count: the same n = 1000
//! live HELLO/TC protocol run executed at 1, 2 and 4 shards.
//!
//! `sharded/1` is the default engine (every window on the calling
//! thread); 2 and 4 shards add the scoped worker threads and the
//! cross-shard frame hand-off at each barrier. The ratio of `sharded/2`
//! to `sharded/1` is the parallel speedup the host delivers after
//! paying for the barrier merge.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qolsr::policy::SelectorPolicy;
use qolsr::selector::Fnbp;
use qolsr_graph::deploy::{deploy_at, Deployment, UniformWeights};
use qolsr_graph::{Point2, Topology};
use qolsr_metrics::BandwidthMetric;
use qolsr_proto::network::OlsrNetwork;
use qolsr_proto::OlsrConfig;
use qolsr_sim::{ExecMode, RadioConfig, SchedulerKind, SimDuration, SimRng};
use std::f64::consts::PI;
use std::hint::black_box;

/// Uniform deployment of `n` nodes at the paper's density 10 / radius
/// 100, field grown with `n` — the same construction as the live scale
/// sweep, so numbers line up with `figures scale --live`.
fn field_topology(n: usize, seed: u64) -> Topology {
    let (radius, density) = (100.0, 10.0);
    let side = (n as f64 * PI * radius * radius / density).sqrt();
    let mut rng = SimRng::seed_from_u64(seed);
    let positions: Vec<Point2> = (0..n)
        .map(|_| Point2::new(rng.next_f64() * side, rng.next_f64() * side))
        .collect();
    let deployment = Deployment {
        width: side,
        height: side,
        radius,
        mean_degree: density,
    };
    deploy_at(
        &deployment,
        &UniformWeights::paper_defaults(),
        positions,
        &mut rng,
    )
}

fn run(topo: &Topology, exec: ExecMode, secs: u64) -> u64 {
    let mut net = OlsrNetwork::with_exec(
        topo.clone(),
        OlsrConfig::default(),
        RadioConfig::default(),
        1,
        SchedulerKind::default(),
        exec,
        |_| SelectorPolicy::new(Fnbp::<BandwidthMetric>::new()),
    );
    net.run_for(SimDuration::from_secs(secs));
    net.engine_stats().events
}

fn bench_sharded_engine(c: &mut Criterion) {
    let topo = field_topology(1000, 0x0150);
    let secs = 3;
    let mut group = c.benchmark_group("sharded_engine_n1000");
    group.sample_size(10);
    for shards in [1u32, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("sharded", shards),
            &shards,
            |b, &shards| b.iter(|| black_box(run(&topo, ExecMode::Sharded { shards }, secs))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sharded_engine);
criterion_main!(benches);
