//! Differential acceptance suite of the PHY layer: the `Ideal` model
//! (the reference default) must replay the pre-PHY engine byte-for-byte
//! — same stats, traces, advertised topology and routes — across seeds,
//! pinned by golden fingerprints captured from the build immediately
//! before the PHY landed. The `Lossy` model must be shard-count
//! invariant: drop sampling commutes with the barrier merge, so shards
//! ∈ {1, 2, 4} replay identically. The
//! same invariance must survive the quality-aware protocol knobs (link
//! hysteresis, ETX metric) stacked on top.

mod common;

use common::{fingerprint_with, golden_fingerprint};
use qolsr_graph::deploy::UniformWeights;
use qolsr_graph::Topology;
use qolsr_proto::{EtxParams, HysteresisParams, LinkHysteresis, LinkMetric, OlsrConfig};
use qolsr_sim::scenario::{
    GaussMarkovDrift, PoissonChurn, RandomWaypoint, Scenario, ScenarioBuilder,
};
use qolsr_sim::{LossyPhy, PhyModel, RadioConfig, SimDuration};

fn dynamic_scenario(topo: &Topology, seed: u64) -> Scenario {
    let weights = UniformWeights::new(1, 100);
    ScenarioBuilder::new(topo, seed)
        .with(RandomWaypoint::new(
            (500.0, 500.0),
            SimDuration::from_secs(1),
            (2.0, 10.0),
            SimDuration::from_secs(3),
            weights,
        ))
        .with(PoissonChurn::new(0.15, SimDuration::from_secs(6), weights))
        .with(GaussMarkovDrift::new(
            SimDuration::from_secs(2),
            0.8,
            (1, 100),
            6.0,
        ))
        .generate(SimDuration::from_secs(30))
}

/// A lossy radio harsh enough to exercise drops and collisions on every
/// run (60% edge drop probability, quadratic falloff, 150 µs capture
/// window).
fn lossy_radio() -> RadioConfig {
    RadioConfig {
        phy: PhyModel::Lossy(LossyPhy {
            edge_drop_ppm: 600_000,
            exponent: 2,
            capture_window: SimDuration::from_micros(150),
        }),
        ..RadioConfig::default()
    }
}

/// Quality-aware protocol stack: RFC §14 hysteresis plus the ETX
/// metric.
fn quality_cfg() -> OlsrConfig {
    OlsrConfig {
        link_hysteresis: LinkHysteresis::On(HysteresisParams::default()),
        link_metric: LinkMetric::Etx(EtxParams::default()),
        ..OlsrConfig::default()
    }
}

/// `(seed, static golden, dynamic golden)` fingerprints of the build
/// immediately before the PHY landed (`Ideal` default everywhere).
const GOLDENS: [(u64, u64, u64); 3] = [
    (3, 0xf161_27a6_8fa4_ac19, 0x9fa5_e66f_ce86_3805),
    (17, 0x860f_0f95_2ccc_d9bb, 0x8094_16c2_a3f6_6667),
    (0x51C0_2010, 0x6f99_c56a_cf2a_ccdb, 0x3708_6223_6872_fd9c),
];

/// `PhyModel::Ideal` is the pre-PHY build: every observable quantity —
/// engine counters, per-node protocol stats, world state, advertised
/// topology, full route tables and the event trace — hashes to the
/// golden fingerprints captured before the PHY (and the hysteresis/ETX
/// machinery) landed, on static and churning worlds alike.
#[test]
fn ideal_phy_matches_pre_phy_goldens() {
    let topo = common::medium_topology(41, 7.0);
    for (seed, want_static, want_dynamic) in GOLDENS {
        assert_eq!(
            golden_fingerprint(&topo, seed, None),
            want_static,
            "static world diverged from the pre-PHY build (seed {seed})"
        );
        let scenario = dynamic_scenario(&topo, seed);
        assert_eq!(
            golden_fingerprint(&topo, seed, Some(&scenario)),
            want_dynamic,
            "dynamic world diverged from the pre-PHY build (seed {seed})"
        );
    }
}

/// Lossy drop sampling commutes with the barrier merge: the full
/// protocol fingerprint is identical across shard counts {1, 2, 4}.
#[test]
fn lossy_phy_is_shard_count_invariant() {
    let topo = common::medium_topology(41, 7.0);
    for seed in [3_u64, 17] {
        let scenario = dynamic_scenario(&topo, seed);
        for scen in [None, Some(&scenario)] {
            let reference =
                fingerprint_with(&topo, OlsrConfig::default(), lossy_radio(), seed, 1, scen);
            for shards in [2_u32, 4] {
                assert_eq!(
                    fingerprint_with(
                        &topo,
                        OlsrConfig::default(),
                        lossy_radio(),
                        seed,
                        shards,
                        scen
                    ),
                    reference,
                    "lossy run diverged at {shards} shards (seed {seed}, \
                     dynamic={})",
                    scen.is_some()
                );
            }
        }
    }
}

/// The quality-aware protocol stack (hysteresis + ETX) over the lossy
/// PHY replays per seed and stays shard-count invariant: the link
/// quality EWMA is driven purely by arrival times, which the
/// determinism contract already pins.
#[test]
fn hysteresis_and_etx_replay_and_shard_invariantly() {
    let topo = common::medium_topology(41, 7.0);
    let seed = 17_u64;
    let scenario = dynamic_scenario(&topo, seed);
    let reference = fingerprint_with(
        &topo,
        quality_cfg(),
        lossy_radio(),
        seed,
        1,
        Some(&scenario),
    );
    assert_eq!(
        fingerprint_with(
            &topo,
            quality_cfg(),
            lossy_radio(),
            seed,
            1,
            Some(&scenario)
        ),
        reference,
        "equal seeds must replay byte-identically"
    );
    for shards in [2_u32, 4] {
        assert_eq!(
            fingerprint_with(
                &topo,
                quality_cfg(),
                lossy_radio(),
                seed,
                shards,
                Some(&scenario)
            ),
            reference,
            "quality-aware lossy run diverged at {shards} shards"
        );
    }
}

/// Loss must actually be happening in the lossy differential runs —
/// otherwise the invariance tests above prove nothing.
#[test]
fn lossy_phy_drops_and_collides_in_the_differential_world() {
    let topo = common::medium_topology(41, 7.0);
    let mut net = common::build_net(&topo, lossy_radio(), 3, 1);
    net.run_for(SimDuration::from_secs(40));
    let e = net.engine_stats();
    assert!(e.phy_drops > 0, "the lossy channel must drop frames");
    assert!(e.deliveries > 0, "and still deliver most of them");
}
