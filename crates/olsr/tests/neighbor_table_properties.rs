//! Point queries of [`NeighborTables`] against its table scans: after
//! arbitrary HELLO histories — hysteresis on and off, measured and ETX
//! metrics, sweeps and reboots in between — `is_symmetric(n, t)` must
//! agree with membership in `symmetric_neighbors(t)`, and
//! `is_mpr_selector(n, t)` with membership in `mpr_selectors(t)`, for
//! every id and at instants on both sides of the tuples' expiries. The
//! point queries search a key array the tables keep beside the link
//! tuples; the scans read the tuples themselves.

use proptest::prelude::*;
use qolsr_graph::NodeId;
use qolsr_metrics::LinkQos;
use qolsr_proto::messages::{Hello, HelloNeighbor, LinkState};
use qolsr_proto::tables::NeighborTables;
use qolsr_proto::{EtxParams, HysteresisParams, LinkHysteresis, LinkMetric, SensingParams};
use qolsr_sim::{SimDuration, SimTime};

/// Ids `0..UNIVERSE`; the node itself is id 0.
const UNIVERSE: u32 = 12;
const ME: NodeId = NodeId(0);

/// A HELLO listing code: not listed, or listed with a link state.
fn listing(code: u8) -> Option<LinkState> {
    match code % 4 {
        0 => None,
        1 => Some(LinkState::Asymmetric),
        2 => Some(LinkState::Symmetric),
        _ => Some(LinkState::Mpr),
    }
}

#[derive(Debug, Clone)]
enum Step {
    /// A HELLO from `from`, `advance` µs after the previous step, held
    /// for `hold` µs, listing us with `me` and the others as given.
    Hello {
        advance: u64,
        from: u32,
        qos: u64,
        hold: u64,
        me: u8,
        others: Vec<(u32, u8)>,
    },
    /// The periodic sweep, `advance` µs after the previous step.
    Sweep { advance: u64 },
    /// A reboot: the node starts over with empty tables.
    Reset,
}

fn step() -> impl Strategy<Value = Step> {
    // Half the HELLOs list us as symmetric or MPR, so links complete
    // the handshake often enough to expire, pend and recover.
    let me = prop_oneof![0u8..4, 2u8..4];
    prop_oneof![
        (
            (0u64..3_000_000, 1..UNIVERSE, 1u64..100),
            (1_000_000u64..8_000_000, me),
            proptest::collection::vec((0..UNIVERSE, 0u8..4), 0..6),
        )
            .prop_map(|((advance, from, qos), (hold, me), others)| Step::Hello {
                advance,
                from,
                qos,
                hold,
                me,
                others,
            }),
        (0u64..4_000_000).prop_map(|advance| Step::Sweep { advance }),
        Just(Step::Reset),
    ]
}

fn sensing(hysteresis: bool, etx: bool) -> SensingParams {
    SensingParams {
        expected_interval: SimDuration::from_secs(2),
        hysteresis: if hysteresis {
            LinkHysteresis::On(HysteresisParams::default())
        } else {
            LinkHysteresis::Off
        },
        metric: if etx {
            LinkMetric::Etx(EtxParams::default())
        } else {
            LinkMetric::Measured
        },
    }
}

/// Checks both point queries against the scans for every id in the
/// universe at `at`, and that every reported link's reporter passes the
/// point query.
fn check_at(nt: &NeighborTables, at: SimTime) -> Result<(), TestCaseError> {
    let symmetric: Vec<NodeId> = nt.symmetric_neighbors(at).iter().map(|&(n, _)| n).collect();
    let selectors = nt.mpr_selectors(at);
    for id in 0..UNIVERSE {
        let n = NodeId(id);
        prop_assert_eq!(
            nt.is_symmetric(n, at),
            symmetric.contains(&n),
            "is_symmetric({:?}) at {:?}",
            n,
            at
        );
        prop_assert_eq!(
            nt.is_mpr_selector(n, at),
            selectors.contains(&n),
            "is_mpr_selector({:?}) at {:?}",
            n,
            at
        );
    }
    for (via, _, _) in nt.reported_links(at) {
        prop_assert!(
            symmetric.contains(&via),
            "reporter {:?} is not symmetric",
            via
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn point_queries_match_table_scans(
        steps in proptest::collection::vec(step(), 1..80),
        hysteresis in any::<bool>(),
        etx in any::<bool>(),
    ) {
        let params = sensing(hysteresis, etx);
        let mut nt = NeighborTables::new();
        let mut now = SimTime::ZERO;
        for step in steps {
            match step {
                Step::Hello { advance, from, qos, hold, me, others } => {
                    now += SimDuration::from_micros(advance);
                    let mut neighbors: Vec<HelloNeighbor> = others
                        .iter()
                        .filter_map(|&(id, code)| {
                            listing(code).map(|state| HelloNeighbor {
                                id: NodeId(id),
                                state,
                                qos: LinkQos::uniform(qos),
                            })
                        })
                        .collect();
                    if let Some(state) = listing(me) {
                        neighbors.push(HelloNeighbor { id: ME, state, qos: LinkQos::uniform(qos) });
                    }
                    nt.process_hello(
                        ME,
                        NodeId(from),
                        LinkQos::uniform(qos),
                        &Hello { neighbors },
                        now,
                        now + SimDuration::from_micros(hold),
                        params,
                        |_| {},
                    );
                }
                Step::Sweep { advance } => {
                    now += SimDuration::from_micros(advance);
                    nt.sweep(now);
                }
                Step::Reset => nt = NeighborTables::new(),
            }
            for later in [0, 1, 999_999, 2_000_000, 6_000_000, 9_000_000] {
                check_at(&nt, now + SimDuration::from_micros(later))?;
            }
        }
    }
}
