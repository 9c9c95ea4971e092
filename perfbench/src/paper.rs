//! The `paper-sweep` workload: the paper's Figs. 6 and 8 computation on
//! one thread. Per world, every node's view is extracted once, each of
//! the three selectors runs on every view, and one connected pair is
//! routed over each selector's advertised topology (`AdvertisedOnly`) and
//! compared with the centralized optimum. No simulator runs.
//!
//! Set-up deploys every world of the run; the window then processes them
//! in rounds of one world per density.

use std::time::Instant;

use qolsr::eval::{EvalMetric, SelectorKind};
use qolsr::routing::optimal_value;
use qolsr::{route, AnsSelector, RouteStrategy};
use qolsr_graph::connectivity::Components;
use qolsr_graph::deploy::{deploy, Deployment, UniformWeights};
use qolsr_graph::{CompactGraph, LocalView, NodeId, Topology};
use qolsr_metrics::BandwidthMetric;
use qolsr_sim::SimRng;

use crate::calib::{self, Reference};
use crate::metrics::{median, mib, ratio, Values, PHASE_SPANS};
use crate::run::{check, derive_seed, Check, Fingerprint, Outcome};
use crate::trace::Tracer;

/// Configuration of the sweep.
#[derive(Debug, Clone)]
pub struct PaperSpec {
    /// Mean node degrees, one world per density per round.
    pub densities: Vec<f64>,
    /// Rounds measured.
    pub rounds: usize,
    /// Side of the square field.
    pub field: f64,
    /// Communication radius R.
    pub radius: f64,
    /// Set-ups per run; the median is reported.
    pub setups: usize,
}

impl PaperSpec {
    /// The paper's bandwidth setting: densities 10–35 in a 1000 × 1000
    /// field at R = 100.
    pub fn new(rounds: usize) -> Self {
        Self {
            densities: vec![10.0, 15.0, 20.0, 25.0, 30.0, 35.0],
            rounds,
            field: 1000.0,
            radius: 100.0,
            setups: 9,
        }
    }
}

/// One deployed world and the pair routed on it.
struct World {
    density: usize,
    topo: Topology,
    pair: Option<(NodeId, NodeId)>,
}

/// A uniform pair within one connected component, as the paper samples.
fn sample_pair(topo: &Topology, rng: &mut SimRng) -> Option<(NodeId, NodeId)> {
    let components = Components::compute(topo);
    let n = topo.len() as u64;
    if n < 2 {
        return None;
    }
    for _ in 0..4096 {
        let s = NodeId(rng.next_below(n) as u32);
        let t = NodeId(rng.next_below(n) as u32);
        if s != t && components.connected(s, t) {
            return Some((s, t));
        }
    }
    None
}

fn deploy_all(spec: &PaperSpec, seed: u64) -> Vec<Vec<World>> {
    let weights = UniformWeights::new(1, 100);
    (0..spec.rounds)
        .map(|r| {
            spec.densities
                .iter()
                .enumerate()
                .map(|(di, &mean_degree)| {
                    let tag = 1 + (r * spec.densities.len() + di) as u64;
                    let mut rng = SimRng::seed_from_u64(derive_seed(seed, tag));
                    let deployment = Deployment {
                        width: spec.field,
                        height: spec.field,
                        radius: spec.radius,
                        mean_degree,
                    };
                    let topo = deploy(&deployment, &weights, &mut rng);
                    let pair = sample_pair(&topo, &mut rng);
                    World {
                        density: di,
                        topo,
                        pair,
                    }
                })
                .collect()
        })
        .collect()
}

/// Sums over the processed worlds, per selector in [`SelectorKind::PAPER`]
/// order.
#[derive(Debug, Default)]
struct Tally {
    /// Advertised-set sizes summed per `[selector][density]`.
    ans: Vec<Vec<u64>>,
    /// Nodes per density.
    nodes: Vec<u64>,
    view_nodes: u64,
    routes: u64,
    delivered: u64,
    /// Routes whose QoS beat the optimum (negative overhead).
    below_optimum: u64,
    fingerprint: Fingerprint,
}

fn process(
    world: &World,
    selectors: &[(&'static str, Box<dyn AnsSelector>)],
    tr: &mut Tracer,
    tally: &mut Tally,
) {
    let topo = &world.topo;
    let n = topo.len();
    let span = tr.enter("world");
    let views: Vec<LocalView> = tr.time("view_extract", || {
        topo.nodes().map(|u| LocalView::extract(topo, u)).collect()
    });
    tally.view_nodes += views.iter().map(|v| v.len() as u64).sum::<u64>();
    tally.nodes[world.density] += n as u64;

    let mut graphs = Vec::with_capacity(selectors.len());
    for (si, (span_name, selector)) in selectors.iter().enumerate() {
        let (graph, total) = tr.time(span_name, || {
            let mut graph = CompactGraph::with_nodes(n);
            let mut total = 0u64;
            for (u, view) in topo.nodes().zip(&views) {
                let ans = selector.select(view);
                total += ans.len() as u64;
                for w in ans {
                    let qos = topo.link_qos(u, w).expect("selectors advertise neighbors");
                    graph.add_undirected(u.0, w.0, qos);
                }
            }
            (graph, total)
        });
        tally.ans[si][world.density] += total;
        tally.fingerprint.feed(&total.to_le_bytes());
        graphs.push(graph);
    }

    if let Some((s, t)) = world.pair {
        let optimal = tr
            .time("optimal", || optimal_value::<BandwidthMetric>(topo, s, t))
            .expect("the pair is sampled within one component");
        let outcomes: Vec<_> = tr.time("route", || {
            graphs
                .iter()
                .map(|g| route::<BandwidthMetric>(topo, g, s, t, RouteStrategy::AdvertisedOnly))
                .collect()
        });
        for outcome in outcomes {
            tally.routes += 1;
            if let Ok(outcome) = outcome {
                tally.delivered += 1;
                let achieved = outcome.qos::<BandwidthMetric>(topo);
                let overhead = BandwidthMetric::overhead(optimal, achieved);
                if overhead < 0.0 {
                    tally.below_optimum += 1;
                }
                tally
                    .fingerprint
                    .feed(&(outcome.hops() as u64).to_le_bytes());
                tally.fingerprint.feed(&overhead.to_bits().to_le_bytes());
            } else {
                tally.fingerprint.feed(b"undelivered");
            }
        }
    }
    tr.exit(span);
}

/// Wall ms per world: at each density, the median of the worlds' ms per
/// node scaled to the density's nominal node count, so a seed that deploys
/// a few more nodes does not read as slower; then the geometric mean over
/// densities, so a sparse density costing milliseconds weighs as much as
/// a dense one costing seconds, and a slow stretch of the host that hits
/// one density is diluted by the others.
fn world_ms(ms_per_node: &[Vec<f64>], nominal_nodes: &[f64]) -> f64 {
    let logs: Vec<f64> = ms_per_node
        .iter()
        .zip(nominal_nodes)
        .filter(|(v, _)| !v.is_empty())
        .map(|(v, n)| (median(v) * n).ln())
        .collect();
    (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
}

/// Runs the sweep.
pub fn run(spec: &PaperSpec, seed: u64, reference: &mut Reference, mut tr: Tracer) -> Outcome {
    let traced = tr.is_on();
    let root = tr.enter("workload");

    // Set-ups and worlds are each bracketed by host reference samples and
    // read at the nominal host speed, as the live workloads' engine steps.
    let mut setup_ms = Vec::with_capacity(spec.setups);
    let mut worlds = Vec::new();
    let mut before = reference.sample_ms();
    for _ in 0..spec.setups.max(1) {
        worlds.clear();
        let span = tr.enter("setup");
        let started = Instant::now();
        worlds = tr.time("deploy", || deploy_all(spec, seed));
        let ms = started.elapsed().as_secs_f64() * 1e3;
        tr.exit(span);
        let after = reference.sample_ms();
        setup_ms.push(calib::adjust(ms, (before + after) / 2.0));
        before = after;
    }

    let selectors: Vec<(&'static str, Box<dyn AnsSelector>)> = SelectorKind::PAPER
        .iter()
        .map(|&kind| {
            let span = match kind {
                SelectorKind::QolsrMpr2 => "select.qolsr",
                SelectorKind::TopologyFiltering => "select.tf",
                SelectorKind::Fnbp => "select.fnbp",
                other => unreachable!("{other:?} is not a series of the paper"),
            };
            (span, kind.instantiate::<BandwidthMetric>())
        })
        .collect();
    let per_round = spec.densities.len();
    let mut tally = Tally {
        ans: vec![vec![0; per_round]; selectors.len()],
        nodes: vec![0; per_round],
        ..Tally::default()
    };
    // Per-world nominal-speed wall ms per node by density, for traced and
    // untraced rounds, and the untraced worlds' raw ms, nodes and
    // reference samples for the report.
    let mut traced_ms = vec![Vec::new(); per_round];
    let mut plain_ms = vec![Vec::new(); per_round];
    let (mut unit_ms, mut unit_work, mut unit_ref_ms) = (Vec::new(), Vec::new(), Vec::new());
    let window = tr.enter("window");
    let mut before = reference.sample_ms();
    for (r, round) in worlds.iter().enumerate() {
        let traced_round = traced && r % 2 == 0;
        tr.set_on(traced_round);
        for world in round {
            let started = Instant::now();
            process(world, &selectors, &mut tr, &mut tally);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            let after = reference.sample_ms();
            let ref_ms = (before + after) / 2.0;
            before = after;
            let nodes = world.topo.len();
            let per_node = calib::adjust(ms, ref_ms) / nodes as f64;
            if traced_round {
                traced_ms[world.density].push(per_node);
            } else {
                plain_ms[world.density].push(per_node);
                unit_ms.push(ms);
                unit_work.push(nodes as u64);
                unit_ref_ms.push(ref_ms);
            }
        }
    }
    tr.set_on(traced);
    tr.exit(window);
    for &(span, _) in PHASE_SPANS {
        if !matches!(
            span,
            "deploy"
                | "view_extract"
                | "select.fnbp"
                | "select.tf"
                | "select.qolsr"
                | "route"
                | "optimal"
        ) {
            tr.time(span, || ());
        }
    }
    tr.exit(root);

    let mut checks: Vec<Check> = Vec::new();
    let mean_ans = |si: usize, di: usize| ratio(tally.ans[si][di], tally.nodes[di]);
    // SelectorKind::PAPER order: original QOLSR, topology filtering, FNBP.
    let ordered = (0..per_round)
        .all(|di| mean_ans(2, di) < mean_ans(1, di) && mean_ans(1, di) < mean_ans(0, di));
    let table: Vec<String> = (0..per_round)
        .map(|di| {
            format!(
                "δ={}: fnbp {:.3} < tf {:.3} < qolsr {:.3}",
                spec.densities[di],
                mean_ans(2, di),
                mean_ans(1, di),
                mean_ans(0, di)
            )
        })
        .collect();
    check(&mut checks, "fig6_ordering", ordered, table.join("; "));
    check(
        &mut checks,
        "overhead_nonnegative",
        tally.below_optimum == 0,
        format!("{} routes beat the optimum", tally.below_optimum),
    );
    check(
        &mut checks,
        "probes_reachable",
        tally.routes > 0,
        format!("{} routes attempted", tally.routes),
    );

    let worlds_n = (spec.rounds * per_round) as u64;
    let all_nodes: u64 = tally.nodes.iter().sum();
    let mut v = Values::default();
    v.set("setup_s", median(&setup_ms) / 1e3);
    let nominal: Vec<f64> = spec
        .densities
        .iter()
        .map(|d| d * spec.field * spec.field / (std::f64::consts::PI * spec.radius * spec.radius))
        .collect();
    v.set("wall_ms_per_unit", world_ms(&plain_ms, &nominal));
    v.set("eval.route_validity", ratio(tally.delivered, tally.routes));
    v.set(
        "graph.view_nodes",
        tally.view_nodes as f64 / worlds_n as f64,
    );
    for (si, name) in [
        "core.ans_size.qolsr",
        "core.ans_size.tf",
        "core.ans_size.fnbp",
    ]
    .into_iter()
    .enumerate()
    {
        v.set(name, ratio(tally.ans[si].iter().sum(), all_nodes));
    }
    if traced {
        let traced_worlds = traced_ms.iter().map(Vec::len).sum::<usize>() as f64;
        let by_name = tr.self_ms_by_name();
        for &(span, metric) in PHASE_SPANS {
            let ms = by_name.get(span).copied().unwrap_or(0.0);
            let value = match span {
                "deploy" => median(&tr.self_ms_of(span)),
                "view_extract" | "select.fnbp" | "select.tf" | "select.qolsr" | "route"
                | "optimal" => ms / traced_worlds,
                _ => ms,
            };
            v.set(metric, value);
        }
        let run_ns = by_name.get("run").copied().unwrap_or(0.0) * 1e6;
        v.set("sim.ns_per_event", run_ns);
        v.set(
            "heap.allocs_per_world",
            tr.allocs_of("world") as f64 / traced_worlds,
        );
        v.set("heap.peak_mib", mib(crate::alloc::peak_bytes()));
        v.set(
            "trace.overhead_pct",
            (world_ms(&traced_ms, &nominal) / world_ms(&plain_ms, &nominal) - 1.0) * 100.0,
        );
    }

    let mut fp = tally.fingerprint;
    fp.feed_debug(&(
        tally.routes,
        tally.delivered,
        tally.view_nodes,
        &tally.nodes,
    ));
    Outcome {
        units: worlds_n,
        unit_ms,
        unit_work,
        unit_ref_ms,
        values: v,
        checks,
        fingerprint: fp.value(),
        config: format!(
            "paper-sweep {spec:?} selectors=PAPER metric=bandwidth strategy=AdvertisedOnly"
        ),
        tracer: tr,
    }
}
