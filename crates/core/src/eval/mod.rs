//! Experiment harness reproducing the paper's evaluation (§IV).
//!
//! Simulation settings follow §IV.A: nodes deployed in a `1000 × 1000`
//! square by a Poisson point process with mean degree `δ` (the x-axis of
//! every figure), communication radius `R = 100`, link weights uniform in
//! a fixed interval, results averaged over `runs` independent topologies;
//! in each run one random source/destination pair is routed by every
//! approach on the *same* topology and compared against the centralized
//! Dijkstra optimum.
//!
//! The live experiments (churn, loss, faults, traffic, overhead and the
//! live scale sweep) share one driver, defined here: `sweep` owns the
//! thread split, per-run sharding and in-order merge; `live_network` is
//! the one place a live network is built, and the one place the runtime
//! [`QosMetric`] is matched; [`verify_shards`] is the one shard check
//! behind `figures --verify-shards`.

pub mod churn;
pub mod faults;
pub mod figures;
pub mod loss;
pub mod overhead;
pub mod robustness;
pub mod scale;
pub mod traffic;

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use qolsr_graph::connectivity::Components;
use qolsr_graph::deploy::{deploy, Deployment, UniformWeights};
use qolsr_graph::{NodeId, Topology};
use qolsr_metrics::{BandwidthMetric, DelayMetric, Metric, MetricKind, ResidualEnergyMetric};
use qolsr_proto::network::OlsrNetwork;
use qolsr_proto::OlsrConfig;
use qolsr_sim::stats::{HotPathCounters, OnlineStats};
use qolsr_sim::{LossyPhy, PhyModel, RadioConfig, SchedulerKind, SimDuration, SimRng, SimTime};

use crate::advertised::build_advertised_all;
use crate::policy::SelectorPolicy;
use crate::report::Figure;
use crate::routing::{optimal_value, route, RouteStrategy};
use crate::selector::{AnsSelector, ClassicMpr, Fnbp, MprVariant, QolsrMpr, TopologyFiltering};

/// A [`Metric`] whose path values can be compared as real numbers — what
/// the overhead ratios of Figures 8–9 need.
pub trait EvalMetric: Metric {
    /// Converts a path value to `f64`.
    fn value_as_f64(v: Self::Value) -> f64;

    /// The paper's overhead of an achieved value w.r.t. the optimum:
    /// `(b* − b)/b*` for concave metrics (bandwidth forgone),
    /// `(d − d*)/d*` for additive metrics (delay wasted).
    fn overhead(optimal: Self::Value, achieved: Self::Value) -> f64 {
        let opt = Self::value_as_f64(optimal);
        let got = Self::value_as_f64(achieved);
        if opt == 0.0 {
            return 0.0;
        }
        match Self::kind() {
            MetricKind::Concave => (opt - got) / opt,
            MetricKind::Additive => (got - opt) / opt,
        }
    }
}

impl EvalMetric for BandwidthMetric {
    fn value_as_f64(v: qolsr_metrics::Bandwidth) -> f64 {
        v.value() as f64
    }
}

impl EvalMetric for DelayMetric {
    fn value_as_f64(v: qolsr_metrics::Delay) -> f64 {
        v.value() as f64
    }
}

impl EvalMetric for ResidualEnergyMetric {
    fn value_as_f64(v: qolsr_metrics::Energy) -> f64 {
        v.value() as f64
    }
}

/// The selectors the harness can compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectorKind {
    /// Plain RFC 3626 MPRs as advertised set.
    ClassicOlsr,
    /// QOLSR with the MPR-1 heuristic.
    QolsrMpr1,
    /// QOLSR with the MPR-2 heuristic (the paper's "Original QOLSR").
    QolsrMpr2,
    /// RNG-based topology filtering.
    TopologyFiltering,
    /// The paper's contribution.
    Fnbp,
    /// FNBP without the smallest-id rule (ablation).
    FnbpNoIdRule,
}

impl SelectorKind {
    /// The three series of the paper's figures.
    pub const PAPER: [SelectorKind; 3] = [
        SelectorKind::QolsrMpr2,
        SelectorKind::TopologyFiltering,
        SelectorKind::Fnbp,
    ];

    /// Series label as used in the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            SelectorKind::ClassicOlsr => "Original OLSR (classic MPR)",
            SelectorKind::QolsrMpr1 => "QOLSR (MPR-1)",
            SelectorKind::QolsrMpr2 => "Original QOLSR",
            SelectorKind::TopologyFiltering => "Topology filtering based ANS selection",
            SelectorKind::Fnbp => "FNBP based ANS selection",
            SelectorKind::FnbpNoIdRule => "FNBP without id rule",
        }
    }

    /// Instantiates the selector for metric `M`.
    pub fn instantiate<M: Metric>(self) -> Box<dyn AnsSelector> {
        match self {
            SelectorKind::ClassicOlsr => Box::new(ClassicMpr::new()),
            SelectorKind::QolsrMpr1 => Box::new(QolsrMpr::<M>::new(MprVariant::Mpr1)),
            SelectorKind::QolsrMpr2 => Box::new(QolsrMpr::<M>::new(MprVariant::Mpr2)),
            SelectorKind::TopologyFiltering => Box::new(TopologyFiltering::<M>::new()),
            SelectorKind::Fnbp => Box::new(Fnbp::<M>::new()),
            SelectorKind::FnbpNoIdRule => Box::new(Fnbp::<M>::without_id_rule()),
        }
    }
}

/// The QoS metric the selectors of a live experiment select under,
/// chosen at runtime (`figures --metric`) and matched once, where the
/// eval driver builds the live network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QosMetric {
    /// Concave bottleneck bandwidth (the default, matching the static
    /// bandwidth figures).
    #[default]
    Bandwidth,
    /// Additive end-to-end delay.
    Delay,
}

impl QosMetric {
    /// Lower-case name used in figure slugs and CLI parsing.
    pub fn name(self) -> &'static str {
        match self {
            QosMetric::Bandwidth => "bandwidth",
            QosMetric::Delay => "delay",
        }
    }
}

impl std::str::FromStr for QosMetric {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "bandwidth" => Ok(QosMetric::Bandwidth),
            "delay" => Ok(QosMetric::Delay),
            other => Err(format!("unknown metric: {other} (bandwidth|delay)")),
        }
    }
}

/// Experiment configuration (defaults follow §IV.A).
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Mean node degrees to sweep (the figures' x-axis).
    pub densities: Vec<f64>,
    /// Independent topologies per density (paper: 100).
    pub runs: u32,
    /// Master seed; every run derives its own stream.
    pub seed: u64,
    /// Link-weight interval.
    pub weights: UniformWeights,
    /// Field width and height.
    pub field: (f64, f64),
    /// Communication radius `R`.
    pub radius: f64,
    /// Routing model for the overhead measurements.
    pub strategy: RouteStrategy,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
}

impl EvalConfig {
    /// Paper settings for the bandwidth figures (Figs. 6 and 8):
    /// densities 10–35.
    pub fn paper_bandwidth(runs: u32) -> Self {
        Self {
            densities: vec![10.0, 15.0, 20.0, 25.0, 30.0, 35.0],
            ..Self::base(runs)
        }
    }

    /// Paper settings for the delay figures (Figs. 7 and 9):
    /// densities 5–30.
    pub fn paper_delay(runs: u32) -> Self {
        Self {
            densities: vec![5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
            ..Self::base(runs)
        }
    }

    fn base(runs: u32) -> Self {
        Self {
            densities: Vec::new(),
            runs,
            seed: 0x51C0_2010,
            // The paper only says "uniformly drawn at random in a fixed
            // interval". [1, 100] approximates continuous weights; the
            // small interval of the paper's worked figures ([1, 10])
            // inflates tie sets and is kept as an ablation — see
            // DESIGN.md §3 and EXPERIMENTS.md.
            weights: UniformWeights::new(1, 100),
            field: (1000.0, 1000.0),
            radius: 100.0,
            // OLSR routing tables are built from TC-advertised links plus
            // each node's own links; this is also the model under which
            // the paper's Fig. 4 reachability concern (and hence the
            // smallest-id rule) is meaningful. Richer-knowledge models
            // are ablations (see DESIGN.md).
            strategy: RouteStrategy::AdvertisedOnly,
            threads: 0,
        }
    }
}

/// Maps an experiment `--shards` knob onto an engine execution mode:
/// `0`/`1` select one shard, `k ≥ 2` run `k` shards in parallel. Every
/// shard count replays byte-identically, so experiment counters are
/// shard-count-invariant (the store/residency gauges are the documented
/// exception — arena boundaries follow shard boundaries).
pub fn exec_mode(shards: u32) -> qolsr_sim::ExecMode {
    if shards <= 1 {
        qolsr_sim::ExecMode::SingleShard
    } else {
        qolsr_sim::ExecMode::Sharded { shards }
    }
}

/// Resolves a `threads` config value (0 = all available cores).
pub(crate) fn resolve_workers(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// How an experiment splits its thread budget: `workers` run-level
/// shards, each of which may fan per-node selection out over `inner`
/// further threads.
///
/// With many runs (the paper's sweeps) every thread shards across runs
/// and `inner == 1` — the historical behavior. With fewer runs than
/// threads (one large world, e.g. the scale sweep) the spare threads go
/// *inside* each run, where per-node selection is the dominant cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardPlan {
    /// Run-level worker threads, clamped to the run count.
    pub workers: usize,
    /// Per-run selection fan-out threads.
    pub inner: usize,
}

impl ShardPlan {
    pub fn new(threads: usize, runs: u32) -> Self {
        let total = resolve_workers(threads);
        let workers = total.min(runs.max(1) as usize).max(1);
        Self {
            workers,
            inner: (total / workers).max(1),
        }
    }
}

/// Runs `per_run` for every run index on `workers` crossbeam-scoped
/// threads and returns the results **in run order**, regardless of
/// scheduling. Keeping aggregation in run order is what makes results
/// independent of thread count (floating-point merges are
/// order-sensitive). The per-node selection fan-out
/// ([`crate::advertised`]) runs through it too, one index per node.
///
/// All worker state — the spawned threads and their result buckets — is
/// sized by the *clamped* worker count `min(workers, runs)`: configuring
/// more threads than runs must not allocate anything for the phantom
/// workers.
pub(crate) fn sharded_runs<T: Send>(
    runs: u32,
    workers: usize,
    per_run: impl Fn(u32) -> T + Sync,
) -> Vec<T> {
    let workers = workers.min(runs.max(1) as usize).max(1);
    if workers == 1 {
        return (0..runs).map(per_run).collect();
    }
    let next_run = &AtomicU32::new(0);
    let per_run = &per_run;
    let buckets: Vec<Vec<(u32, T)>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move |_| {
                    let mut local = Vec::new();
                    loop {
                        let run = next_run.fetch_add(1, Ordering::Relaxed);
                        if run >= runs {
                            break;
                        }
                        local.push((run, per_run(run)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment workers do not panic"))
            .collect()
    })
    .expect("experiment workers do not panic");
    let mut slots: Vec<Option<T>> = (0..runs).map(|_| None).collect();
    for bucket in buckets {
        for (run, result) in bucket {
            slots[run as usize] = Some(result);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every run index is processed"))
        .collect()
}

/// Per-run aggregates that fold into a total: what [`sweep`] reduces.
pub(crate) trait Merge {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: &Self);
}

impl Merge for OnlineStats {
    fn merge(&mut self, other: &Self) {
        OnlineStats::merge(self, other);
    }
}

impl<T: Merge> Merge for Vec<T> {
    fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.iter_mut().zip(other) {
            mine.merge(theirs);
        }
    }
}

/// Why a live run measured nothing on the world it drew.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Skip {
    /// Fewer than 4 nodes.
    TooSmall,
    /// More than one connected piece.
    Disconnected,
    /// No connected probe pair was drawn.
    NoProbes,
}

/// The worlds a live experiment drew but measured nothing on, by cause.
/// Its reports print them, so that curves averaged over fewer worlds
/// than asked for, or over none, do not read as measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkippedWorlds {
    /// Worlds of fewer than 4 nodes.
    pub too_small: u64,
    /// Worlds in more than one connected piece.
    pub disconnected: u64,
    /// Worlds where no connected probe pair was drawn.
    pub no_probes: u64,
}

impl SkippedWorlds {
    /// Skipped worlds of every cause.
    pub fn total(&self) -> u64 {
        self.too_small + self.disconnected + self.no_probes
    }

    /// The report line `# skipped k of N worlds (…)` for a sweep of
    /// `runs` worlds, naming every cause that skipped one; empty when
    /// none was skipped.
    pub fn report_line(&self, runs: u32) -> String {
        let causes: Vec<String> = [
            (self.too_small, "with fewer than 4 nodes"),
            (self.disconnected, "disconnected"),
            (self.no_probes, "with no probe pair"),
        ]
        .iter()
        .filter(|&&(k, _)| k > 0)
        .map(|(k, why)| format!("{k} {why}"))
        .collect();
        if causes.is_empty() {
            return String::new();
        }
        format!(
            "# skipped {} of {runs} worlds ({})\n",
            self.total(),
            causes.join(", ")
        )
    }
}

/// The sweep every multi-run experiment runs: `runs` independent runs,
/// each filling a fresh `empty()` accumulator through
/// `per_run(run, inner_threads, accum)`, sharded over the thread budget
/// ([`ShardPlan`]) and merged **in run order**, so results do not depend
/// on the thread count. A run that cannot measure its world returns why,
/// and the merge counts it into the returned [`SkippedWorlds`].
pub(crate) fn sweep<T: Merge + Send>(
    threads: usize,
    runs: u32,
    empty: impl Fn() -> T + Sync,
    per_run: impl Fn(u32, usize, &mut T) -> Result<(), Skip> + Sync,
) -> (T, SkippedWorlds) {
    let plan = ShardPlan::new(threads, runs);
    let per_run = sharded_runs(runs, plan.workers, |run| {
        let mut local = empty();
        let skip = per_run(run, plan.inner, &mut local).err();
        (local, skip)
    });
    let mut total = empty();
    let mut skipped = SkippedWorlds::default();
    for (local, skip) in &per_run {
        total.merge(local);
        match skip {
            None => {}
            Some(Skip::TooSmall) => skipped.too_small += 1,
            Some(Skip::Disconnected) => skipped.disconnected += 1,
            Some(Skip::NoProbes) => skipped.no_probes += 1,
        }
    }
    (total, skipped)
}

/// The network every live experiment runs: each node advertises through
/// a boxed selector.
pub(crate) type LiveNetwork = OlsrNetwork<SelectorPolicy<Box<dyn AnsSelector>>>;

/// Builds a live network over `topo` whose nodes all advertise with
/// `kind` under `metric`, stepped by `shards` engine shards — the one
/// place the eval harness builds a live network and matches the metric.
pub(crate) fn live_network(
    topo: &Topology,
    olsr: OlsrConfig,
    radio: RadioConfig,
    seed: u64,
    shards: u32,
    kind: SelectorKind,
    metric: QosMetric,
) -> LiveNetwork {
    OlsrNetwork::with_exec(
        topo.clone(),
        olsr,
        radio,
        seed,
        SchedulerKind::default(),
        exec_mode(shards),
        |_| {
            SelectorPolicy::new(match metric {
                QosMetric::Bandwidth => kind.instantiate::<BandwidthMetric>(),
                QosMetric::Delay => kind.instantiate::<DelayMetric>(),
            })
        },
    )
}

/// A radio over [`PhyModel::Lossy`] with the given edge drop
/// probability, falloff exponent and collision capture window.
pub(crate) fn lossy_radio(
    edge_drop_ppm: u32,
    exponent: u32,
    capture_window: SimDuration,
) -> RadioConfig {
    RadioConfig {
        phy: PhyModel::Lossy(LossyPhy {
            edge_drop_ppm,
            exponent,
            capture_window,
        }),
        ..RadioConfig::default()
    }
}

/// Times `seconds` simulated seconds of `net`, calling `probe` after
/// each, and returns the wall-clock milliseconds per simulated second
/// with the window's hot-path counter deltas (the resident gauges are
/// read at its end).
pub(crate) fn measured_window(
    net: &mut LiveNetwork,
    seconds: u64,
    mut probe: impl FnMut(&LiveNetwork),
) -> (f64, HotPathCounters) {
    let engine0 = net.engine_stats();
    let nodes0 = net.total_stats();
    let started = Instant::now();
    for _ in 0..seconds {
        net.run_for(SimDuration::from_secs(1));
        probe(net);
    }
    let ms_per_sim_s = started.elapsed().as_secs_f64() * 1e3 / seconds as f64;
    let engine = net.engine_stats();
    let nodes = net.total_stats();
    let mut tc_ring_emissions = nodes.tc_sent_ring;
    for (after, before) in tc_ring_emissions.iter_mut().zip(nodes0.tc_sent_ring) {
        *after -= before;
    }
    let (resident_entries, resident_bytes) = net.resident_memory();
    let counters = HotPathCounters {
        events_popped: engine.events - engine0.events,
        timers_fired: engine.timers - engine0.timers,
        routes_recomputed: nodes.routes_recomputed - nodes0.routes_recomputed,
        route_cache_hits: nodes.route_cache_hits - nodes0.route_cache_hits,
        tc_ring_emissions,
        dup_peek_hits: nodes.dup_peek_hits - nodes0.dup_peek_hits,
        bytes_decoded: nodes.bytes_decoded - nodes0.bytes_decoded,
        resident_entries,
        resident_bytes,
        malformed_frames: nodes.malformed_frames - nodes0.malformed_frames,
    };
    (ms_per_sim_s, counters)
}

/// Draws up to `count` uniform source/destination pairs that are distinct
/// and connected in `topo`, giving up after `attempts` source draws. With
/// `skip_isolated`, a source alone in its component is rejected before a
/// destination is drawn (the paper sweep's draw order).
pub(crate) fn connected_pairs(
    topo: &Topology,
    count: usize,
    attempts: usize,
    skip_isolated: bool,
    rng: &mut SimRng,
) -> Vec<(NodeId, NodeId)> {
    let components = Components::compute(topo);
    let n = topo.len() as u64;
    let mut pairs = Vec::with_capacity(count);
    for _ in 0..attempts {
        if pairs.len() == count {
            break;
        }
        let s = NodeId(rng.next_below(n) as u32);
        if skip_isolated && components.size(components.label_of(s)) < 2 {
            continue;
        }
        let t = NodeId(rng.next_below(n) as u32);
        if s != t && components.connected(s, t) {
            pairs.push((s, t));
        }
    }
    pairs
}

/// Sample instants from `first` through `last` inclusive, `every` apart.
pub(crate) fn sample_times(first: SimTime, last: SimTime, every: SimDuration) -> Vec<SimTime> {
    let mut times = Vec::new();
    let mut t = first;
    while t <= last {
        times.push(t);
        t += every;
    }
    times
}

/// A result the shard check compares: its whole `Debug` rendering, after
/// [`mask`](Self::mask) clears what legitimately differs between runs.
pub trait ShardInvariant: Clone + std::fmt::Debug {
    /// Clears the fields that differ between runs or shard counts by
    /// design: wall-clock, RSS and the store-residency gauges (per-shard
    /// intern arenas aggregate differently). Nothing, by default.
    fn mask(&mut self) {}
}

impl<T: ShardInvariant> ShardInvariant for Vec<T> {
    fn mask(&mut self) {
        self.iter_mut().for_each(T::mask);
    }
}

/// The shard check behind `figures --verify-shards`: runs `experiment`
/// at `shards` engine shards and at one shard, and returns the sharded
/// result if the two agree on every curve, counter and aggregate.
///
/// # Panics
///
/// Panics at the first line where the masked `Debug` renderings of the
/// two results differ.
pub fn verify_shards<T: ShardInvariant>(shards: u32, experiment: impl Fn(u32) -> T) -> T {
    let sharded = experiment(shards);
    let render = |result: &T| {
        let mut result = result.clone();
        result.mask();
        format!("{result:#?}")
    };
    let (got, want) = (render(&sharded), render(&experiment(1)));
    if got != want {
        let (got, want): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
        let at = (0..got.len().min(want.len()))
            .find(|&i| got[i] != want[i])
            .unwrap_or(got.len().min(want.len()));
        panic!(
            "the engine at shards={shards} diverged from the one-shard run:\n{}\n  one shard: {}",
            got[at.saturating_sub(6)..(at + 1).min(got.len())].join("\n"),
            want.get(at).unwrap_or(&"<end>"),
        );
    }
    sharded
}

/// Aggregated measurements of one selector at one density.
#[derive(Debug, Clone, Default)]
pub struct DensityMeasures {
    /// The density (mean node degree δ).
    pub density: f64,
    /// Advertised-set size per node (Figs. 6–7).
    pub ans_size: OnlineStats,
    /// QoS overhead vs the centralized optimum (Figs. 8–9); delivered
    /// pairs only.
    pub overhead: OnlineStats,
    /// 1 if the pair was delivered, 0 otherwise.
    pub delivery: OnlineStats,
    /// Hop count of delivered routes.
    pub hops: OnlineStats,
}

impl Merge for DensityMeasures {
    fn merge(&mut self, other: &DensityMeasures) {
        self.ans_size.merge(&other.ans_size);
        self.overhead.merge(&other.overhead);
        self.delivery.merge(&other.delivery);
        self.hops.merge(&other.hops);
    }
}

/// All measurements of one selector across the density sweep.
#[derive(Debug, Clone)]
pub struct SelectorMeasures {
    /// Which selector.
    pub kind: SelectorKind,
    /// Per-density aggregates, in sweep order.
    pub per_density: Vec<DensityMeasures>,
}

/// Result of a full experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Metric name (`bandwidth` / `delay`).
    pub metric: &'static str,
    /// One entry per compared selector.
    pub selectors: Vec<SelectorMeasures>,
}

impl ExperimentResult {
    fn figure(
        &self,
        title: &str,
        ylabel: &str,
        stat: fn(&DensityMeasures) -> &OnlineStats,
    ) -> Figure {
        let series = self.selectors.iter().map(|sel| {
            let points = sel.per_density.iter().map(|d| (d.density, stat(d)));
            (sel.kind.label(), points)
        });
        Figure::from_stats(title, "density", ylabel, series)
    }

    /// Advertised-set-size figure (paper Figs. 6–7).
    pub fn ans_size_figure(&self, title: &str) -> Figure {
        self.figure(title, "advertised neighbors per node", |d| &d.ans_size)
    }

    /// Overhead figure (paper Figs. 8–9).
    pub fn overhead_figure(&self, title: &str) -> Figure {
        self.figure(
            title,
            &format!("{} overhead vs optimal", self.metric),
            |d| &d.overhead,
        )
    }

    /// Delivery-rate figure (ablations).
    pub fn delivery_figure(&self, title: &str) -> Figure {
        self.figure(title, "delivery rate", |d| &d.delivery)
    }
}

/// SplitMix64-style seed derivation so every (density, run) pair gets an
/// independent deterministic stream.
fn derive_seed(seed: u64, density_index: usize, run: u32) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(1 + density_index as u64))
        .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(1 + run as u64));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the experiment under metric `M` for the given selectors.
///
/// Per density, `cfg.runs` independent topologies are generated; on each,
/// every selector's advertised sets are computed node by node (sizes →
/// Figs. 6–7) and one random connected source/destination pair is routed
/// by every selector and compared to the centralized optimum (overhead →
/// Figs. 8–9). Runs are distributed over worker threads; aggregation is
/// order-independent, and per-run randomness is derived from
/// `(seed, density, run)` alone, so results are reproducible.
pub fn run_experiment<M: EvalMetric>(cfg: &EvalConfig, kinds: &[SelectorKind]) -> ExperimentResult {
    let selectors: Vec<(SelectorKind, Box<dyn AnsSelector>)> =
        kinds.iter().map(|&k| (k, k.instantiate::<M>())).collect();

    let mut result = ExperimentResult {
        metric: M::NAME,
        selectors: kinds
            .iter()
            .map(|&kind| SelectorMeasures {
                kind,
                per_density: Vec::new(),
            })
            .collect(),
    };
    for (di, &density) in cfg.densities.iter().enumerate() {
        let empty = || {
            let at = DensityMeasures {
                density,
                ..DensityMeasures::default()
            };
            vec![at; kinds.len()]
        };
        let (totals, _) = sweep(cfg.threads, cfg.runs, empty, |run, inner, accum| {
            let seed = derive_seed(cfg.seed, di, run);
            single_run::<M>(cfg, density, seed, &selectors, inner, accum);
            Ok(())
        });
        for (sel, total) in result.selectors.iter_mut().zip(totals) {
            sel.per_density.push(total);
        }
    }
    result
}

/// One topology: measure ANS sizes for every selector and route one
/// random pair per selector.
///
/// Per-node selection fans out over `inner_threads` workers when the
/// run-level sharding leaves threads to spare (one large world);
/// aggregation always walks nodes in ascending order, so results are
/// identical to the sequential path.
fn single_run<M: EvalMetric>(
    cfg: &EvalConfig,
    density: f64,
    seed: u64,
    selectors: &[(SelectorKind, Box<dyn AnsSelector>)],
    inner_threads: usize,
    accum: &mut [DensityMeasures],
) {
    let mut rng = SimRng::seed_from_u64(seed);
    let deployment = Deployment {
        width: cfg.field.0,
        height: cfg.field.1,
        radius: cfg.radius,
        mean_degree: density,
    };
    let topo = deploy(&deployment, &cfg.weights, &mut rng);
    if topo.len() < 3 {
        return;
    }

    // Per-node selections; views are extracted once and shared across
    // selectors, nodes spread across the inner fan-out.
    let refs: Vec<&dyn AnsSelector> = selectors.iter().map(|(_, sel)| sel.as_ref()).collect();
    let advertised = build_advertised_all(&topo, &refs, inner_threads);
    for (adv, measures) in advertised.iter().zip(accum.iter_mut()) {
        for &size in adv.sizes() {
            measures.ans_size.push(size as f64);
        }
    }

    // One random connected pair, identical for every selector (§IV.A:
    // "Each approach is run on the same topology with the same source and
    // destination").
    let Some(&(s, t)) = connected_pairs(&topo, 1, 4096, true, &mut rng).first() else {
        return;
    };
    let optimal = optimal_value::<M>(&topo, s, t).expect("pair sampled within one component");

    for (si, _) in selectors.iter().enumerate() {
        match route::<M>(&topo, advertised[si].graph(), s, t, cfg.strategy) {
            Ok(outcome) => {
                let achieved = outcome.qos::<M>(&topo);
                accum[si].overhead.push(M::overhead(optimal, achieved));
                accum[si].delivery.push(1.0);
                accum[si].hops.push(outcome.hops() as f64);
            }
            Err(_) => {
                accum[si].delivery.push(0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_counts_skipped_worlds_in_any_thread_split() {
        // Runs 0, 3, 6 are too small, 4 disconnected, 5 probe-less; the
        // rest add their index.
        let per_run = |run: u32, _: usize, sum: &mut OnlineStats| match run {
            0 | 3 | 6 => Err(Skip::TooSmall),
            4 => Err(Skip::Disconnected),
            5 => Err(Skip::NoProbes),
            _ => {
                sum.push(f64::from(run));
                Ok(())
            }
        };
        for threads in [1, 3] {
            let (sum, skipped) = sweep(threads, 8, OnlineStats::new, per_run);
            assert_eq!(sum.count(), 3);
            assert!((3.0 * sum.mean() - 10.0).abs() < 1e-12);
            assert_eq!(
                skipped,
                SkippedWorlds {
                    too_small: 3,
                    disconnected: 1,
                    no_probes: 1,
                }
            );
            assert_eq!(
                skipped.report_line(8),
                "# skipped 5 of 8 worlds (3 with fewer than 4 nodes, 1 disconnected, \
                 1 with no probe pair)\n"
            );
        }
        assert_eq!(SkippedWorlds::default().report_line(8), "");
    }

    fn tiny_config() -> EvalConfig {
        EvalConfig {
            densities: vec![8.0],
            runs: 3,
            seed: 7,
            weights: UniformWeights::paper_defaults(),
            field: (300.0, 300.0),
            radius: 100.0,
            strategy: RouteStrategy::HopByHop,
            threads: 2,
        }
    }

    #[test]
    fn experiment_is_deterministic() {
        let cfg = tiny_config();
        let kinds = [SelectorKind::Fnbp, SelectorKind::QolsrMpr2];
        let a = run_experiment::<BandwidthMetric>(&cfg, &kinds);
        let b = run_experiment::<BandwidthMetric>(&cfg, &kinds);
        for (x, y) in a.selectors.iter().zip(&b.selectors) {
            for (dx, dy) in x.per_density.iter().zip(&y.per_density) {
                assert_eq!(dx.ans_size.count(), dy.ans_size.count());
                assert_eq!(dx.ans_size.mean(), dy.ans_size.mean());
                assert_eq!(dx.overhead.mean(), dy.overhead.mean());
            }
        }
    }

    #[test]
    fn fnbp_advertises_fewer_than_qolsr() {
        let cfg = tiny_config();
        let kinds = [SelectorKind::QolsrMpr2, SelectorKind::Fnbp];
        let r = run_experiment::<BandwidthMetric>(&cfg, &kinds);
        let qolsr = r.selectors[0].per_density[0].ans_size.mean();
        let fnbp = r.selectors[1].per_density[0].ans_size.mean();
        assert!(
            fnbp <= qolsr,
            "FNBP mean ANS {fnbp} should not exceed QOLSR {qolsr}"
        );
    }

    #[test]
    fn overheads_are_ratios() {
        let cfg = tiny_config();
        let r = run_experiment::<DelayMetric>(&cfg, &[SelectorKind::Fnbp]);
        let d = &r.selectors[0].per_density[0];
        assert!(d.overhead.mean() >= 0.0);
        assert!(d.delivery.mean() > 0.0);
    }

    #[test]
    fn figures_render_from_results() {
        let cfg = tiny_config();
        let r = run_experiment::<BandwidthMetric>(&cfg, &[SelectorKind::Fnbp]);
        let fig = r.ans_size_figure("test");
        assert_eq!(fig.series.len(), 1);
        assert_eq!(fig.series[0].points.len(), 1);
        assert!(fig.render_text().contains("FNBP"));
        assert!(r.overhead_figure("t").render_csv().lines().count() >= 2);
    }

    #[test]
    fn shard_plan_splits_thread_budget() {
        // Few runs, many threads: spares fan out inside each run.
        assert_eq!(
            ShardPlan::new(8, 2),
            ShardPlan {
                workers: 2,
                inner: 4
            }
        );
        // Many runs: all threads shard across runs (historical behavior).
        assert_eq!(
            ShardPlan::new(4, 100),
            ShardPlan {
                workers: 4,
                inner: 1
            }
        );
        // Zero runs must not divide by zero.
        assert_eq!(
            ShardPlan::new(3, 0),
            ShardPlan {
                workers: 1,
                inner: 3
            }
        );
    }

    #[test]
    fn sharded_runs_clamp_keeps_run_order() {
        // 16 configured workers, 5 runs: state sizes by the clamped
        // count and results still come back in run order.
        let out = sharded_runs(5, 16, |run| run * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
        assert_eq!(sharded_runs(0, 4, |run| run), Vec::<u32>::new());
    }

    #[test]
    fn inner_fanout_matches_sequential_results() {
        // One large world (n ≈ 115 > the sequential-fallback threshold):
        // with runs=1 every spare thread fans out per-node selection
        // inside the run, and results must match the 1-thread path bit
        // for bit.
        let base = EvalConfig {
            densities: vec![10.0],
            runs: 1,
            seed: 21,
            weights: UniformWeights::paper_defaults(),
            field: (600.0, 600.0),
            radius: 100.0,
            strategy: RouteStrategy::HopByHop,
            threads: 1,
        };
        let mut fanned = base.clone();
        fanned.threads = 4;
        // And the nested split: 2 runs over 8 threads = 2 run-level
        // workers, each fanning selection out over 4 inner threads.
        let mut nested_base = base.clone();
        nested_base.runs = 2;
        let mut nested = nested_base.clone();
        nested.threads = 8;
        let kinds = [SelectorKind::Fnbp, SelectorKind::QolsrMpr2];
        for (seq, par) in [(base, fanned), (nested_base, nested)] {
            let a = run_experiment::<BandwidthMetric>(&seq, &kinds);
            let b = run_experiment::<BandwidthMetric>(&par, &kinds);
            for (x, y) in a.selectors.iter().zip(&b.selectors) {
                for (dx, dy) in x.per_density.iter().zip(&y.per_density) {
                    assert_eq!(dx.ans_size.count(), dy.ans_size.count());
                    assert_eq!(dx.ans_size.mean(), dy.ans_size.mean());
                    assert_eq!(dx.overhead.mean(), dy.overhead.mean());
                    assert_eq!(dx.hops.mean(), dy.hops.mean());
                }
            }
        }
    }

    #[test]
    fn derive_seed_spreads() {
        let a = derive_seed(1, 0, 0);
        let b = derive_seed(1, 0, 1);
        let c = derive_seed(1, 1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(1, 0, 0));
    }

    #[test]
    fn overhead_directions() {
        use qolsr_metrics::{Bandwidth, Delay};
        // Bandwidth: losing bandwidth is positive overhead.
        let o = BandwidthMetric::overhead(Bandwidth(10), Bandwidth(8));
        assert!((o - 0.2).abs() < 1e-12);
        // Delay: extra delay is positive overhead.
        let o = DelayMetric::overhead(Delay(10), Delay(12));
        assert!((o - 0.2).abs() < 1e-12);
        // Optimal routes have zero overhead.
        assert_eq!(BandwidthMetric::overhead(Bandwidth(5), Bandwidth(5)), 0.0);
    }

    impl ShardInvariant for u32 {}

    #[test]
    fn verify_shards_ignores_masked_fields() {
        #[derive(Debug, Clone)]
        struct Timed {
            events: u64,
            wall_ms: f64,
        }
        impl ShardInvariant for Timed {
            fn mask(&mut self) {
                self.wall_ms = 0.0;
            }
        }
        let timed = |shards: u32| Timed {
            events: 7,
            wall_ms: f64::from(shards),
        };
        let r = verify_shards(3, timed);
        assert_eq!(
            (r.events, r.wall_ms),
            (7, 3.0),
            "the sharded run comes back"
        );
    }

    #[test]
    #[should_panic(expected = "diverged from the one-shard run")]
    fn verify_shards_panics_on_divergence() {
        verify_shards(2, |shards| vec![7, shards]);
    }

    #[test]
    fn sample_times_span_both_ends() {
        let at = |s| SimTime::ZERO + SimDuration::from_secs(s);
        let times = sample_times(at(30), at(40), SimDuration::from_secs(5));
        assert_eq!(times, vec![at(30), at(35), at(40)]);
        assert!(sample_times(at(2), at(1), SimDuration::from_secs(1)).is_empty());
    }

    #[test]
    fn connected_pairs_are_distinct_and_connected() {
        let mut rng = SimRng::seed_from_u64(5);
        let deployment = Deployment {
            width: 400.0,
            height: 400.0,
            radius: 100.0,
            mean_degree: 4.0,
        };
        let topo = deploy(&deployment, &UniformWeights::paper_defaults(), &mut rng);
        let components = Components::compute(&topo);
        for skip_isolated in [false, true] {
            let pairs = connected_pairs(&topo, 16, 4096, skip_isolated, &mut rng);
            assert_eq!(pairs.len(), 16);
            for (s, t) in pairs {
                assert!(s != t && components.connected(s, t));
            }
        }
        assert!(connected_pairs(&topo, 0, 4096, false, &mut rng).is_empty());
    }
}
