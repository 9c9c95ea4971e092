//! Differential proofs of the shared interned topology store: after
//! *any* history of TC integrations, sweeps, reboots and time advances
//! — including ANSN/seq wraparound and seq reuse across reboots — a
//! [`SharedTopology`] over a network-shared [`SharedLinkStore`] must
//! answer every query identically to the per-node [`TopologyBase`]
//! tables (the PR 4 formulation, now a test-only oracle in
//! `tests/support/`), and report the same changed link pairs for every
//! TC. The ANSN accept/reject rule and the flat
//! [`DuplicateSet`] table are additionally pinned against naive map
//! formulations.
//!
//! [`DuplicateSet`]: qolsr_proto::tables::DuplicateSet
//! [`SharedLinkStore`]: qolsr_proto::SharedLinkStore
//! [`SharedTopology`]: qolsr_proto::store::SharedTopology

mod support;

use std::collections::BTreeMap;

use proptest::prelude::*;
use qolsr_graph::NodeId;
use qolsr_metrics::LinkQos;
use qolsr_proto::store::SharedTopology;
use qolsr_proto::tables::{seq_newer, DuplicateSet, TopologyLinks};
use qolsr_proto::SharedLinkStore;
use qolsr_sim::{SimDuration, SimTime};
use support::topology_base::TopologyBase;

/// One step of a topology-base history.
#[derive(Debug, Clone)]
enum Op {
    /// TC from `orig`: message seq `seq` (keys the store's content
    /// dedup), advertising `advertised` under `ansn`, valid `hold_s`.
    Tc {
        orig: u32,
        seq: u16,
        ansn: u16,
        advertised: Vec<u32>,
        hold_s: u64,
    },
    /// Expire tuples (per-node) / overlays (shared) out of the tables.
    Sweep,
    /// Let virtual time pass (seconds).
    Advance(u64),
    /// Node power cycle: both formulations drop all topology state.
    Reboot,
}

/// ANSN values biased to straddle the u16 wrap (RFC 3626 §19 sequence
/// comparison), so histories routinely cross 65535 → 0. The mid-range
/// arm sets up the crash-reboot wedge: a recorded mid-range ANSN makes
/// a post-crash ANSN 0 look *older* under `seq_newer` (20 000 − 0 is
/// under the 32 768 half-window), so acceptance must come from record
/// expiry, not wraparound.
fn ansn_value() -> impl Strategy<Value = u16> {
    prop_oneof![0u16..6, 20_000u16..20_004, 65532u16..=65535]
}

fn tc_op() -> impl Strategy<Value = Op> {
    (
        1u32..6,
        0u16..4,
        ansn_value(),
        proptest::collection::vec(1u32..10, 0..4),
        4u64..12,
    )
        .prop_map(|(orig, seq, ansn, advertised, hold_s)| Op::Tc {
            orig,
            seq,
            ansn,
            advertised,
            hold_s,
        })
}

/// TCs as emitted by a freshly crash-rebooted *originator*: the wire
/// sequence and ANSN both restart at zero (what `Actor::on_crash` does
/// to `OlsrNode`), landing reborn numbers on receivers that may still
/// hold the pre-crash records.
fn crashed_tc_op() -> impl Strategy<Value = Op> {
    (1u32..6, proptest::collection::vec(1u32..10, 0..4), 4u64..12).prop_map(
        |(orig, advertised, hold_s)| Op::Tc {
            orig,
            seq: 0,
            ansn: 0,
            advertised,
            hold_s,
        },
    )
}

fn op() -> impl Strategy<Value = Op> {
    // TC arms repeated: integrations dominate real histories.
    prop_oneof![
        tc_op(),
        tc_op(),
        tc_op(),
        tc_op(),
        crashed_tc_op(),
        Just(Op::Sweep),
        (1u64..5).prop_map(Op::Advance),
        Just(Op::Reboot),
    ]
}

fn advertised_links(ids: &[u32]) -> Vec<(NodeId, LinkQos)> {
    ids.iter()
        .enumerate()
        .map(|(i, &n)| (NodeId(n), LinkQos::uniform(1 + (i as u64 % 5))))
        .collect()
}

fn sorted_links(mut links: Vec<(NodeId, NodeId, LinkQos)>) -> Vec<(NodeId, NodeId, LinkQos)> {
    links.sort_by_key(|&(a, b, _)| (a, b));
    links
}

/// The `(originator, advertised)` pairs a base's key walk visits, in
/// visit order, and the min-expiry it returns.
fn link_keys(base: &impl TopologyLinks, now: SimTime) -> (Vec<(NodeId, NodeId)>, SimTime) {
    let mut keys = Vec::new();
    let horizon = base.for_each_link_key(now, |orig, adv| keys.push((orig, adv)));
    (keys, horizon)
}

/// The duplicate-set oracle: a naive map from `(originator, seq)` to
/// `(hold horizon, forwarded)` with RFC 3626 §3.4 semantics — `fresh`
/// refreshes the horizon, `mark_forwarded` keeps it.
#[derive(Default)]
struct NaiveDuplicateSet(BTreeMap<(u32, u16), (SimTime, bool)>);

impl NaiveDuplicateSet {
    fn fresh(&mut self, orig: u32, seq: u16, hold: SimTime) -> bool {
        let known = self.0.contains_key(&(orig, seq));
        self.0.entry((orig, seq)).or_insert((hold, false)).0 = hold;
        !known
    }

    fn mark_forwarded(&mut self, orig: u32, seq: u16, hold: SimTime) -> bool {
        let entry = self.0.entry((orig, seq)).or_insert((hold, false));
        !std::mem::replace(&mut entry.1, true)
    }

    fn sweep(&mut self, now: SimTime) {
        self.0.retain(|_, &mut (until, _)| until > now);
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// Time steps for duplicate-set histories, in milliseconds: mostly
/// bursts at one instant (8 in 13), some sub-second steps (4 in 13) and
/// rare 5–40 s jumps that expire part of the table (1 in 13).
fn advance_ms() -> impl Strategy<Value = u64> {
    (0u8..13, 0u64..35_000).prop_map(|(pick, ms)| match pick {
        0..=7 => 0,
        8..=11 => ms % 1_000,
        _ => 5_000 + ms,
    })
}

/// Slots a [`DuplicateSet`] has allocated (12 bytes each).
fn dup_slots(dup: &DuplicateSet) -> usize {
    dup.footprint().1 / 12
}

proptest! {
    /// Shared-store topology ≡ per-node reference after arbitrary
    /// TC/sweep/reboot histories — per-op return values, the ANSN
    /// accept predicate, the held originators, the full link view and
    /// the key walk's order and horizon all identical. A second
    /// receiver rides the same store to prove sharing does not leak
    /// state between overlays. A third mirrors the first on a store
    /// seeded with a generated prefix of the id range, so some
    /// originators sit in the base's seeded array and the rest in its
    /// unseeded list: its walks must still ascend by originator, as the
    /// oracle's do.
    #[test]
    fn shared_store_equals_per_node_after_arbitrary_histories(
        ops in proptest::collection::vec(op(), 1..50),
        seeded_len in 0usize..8,
    ) {
        let store = SharedLinkStore::new();
        let mut shared_a = SharedTopology::new(store.clone());
        let mut shared_b = SharedTopology::new(store.clone());
        // Seeds the ids `0..seeded_len`: none, some or all of the
        // originators 1..=5, plus ids no TC originates from.
        let seeded_store = SharedLinkStore::seeded(seeded_len);
        let mut shared_c = SharedTopology::new(seeded_store.clone());
        let mut per_node_a = TopologyBase::new();
        let mut per_node_b = TopologyBase::new();
        let mut now = SimTime::ZERO;
        for op in &ops {
            match *op {
                Op::Tc { orig, seq, ansn, ref advertised, hold_s } => {
                    let adv = advertised_links(advertised);
                    let hold = now + SimDuration::from_secs(hold_s);
                    let o = NodeId(orig);
                    prop_assert_eq!(
                        shared_a.accepts_ansn(o, ansn, now),
                        per_node_a.accepts_ansn(o, ansn, now),
                        "accept predicate diverged at {}", now
                    );
                    prop_assert_eq!(
                        shared_c.accepts_ansn(o, ansn, now),
                        per_node_a.accepts_ansn(o, ansn, now),
                        "seeded accept predicate diverged at {}", now
                    );
                    let mut s_report = Vec::new();
                    let mut c_report = Vec::new();
                    let mut p_report = Vec::new();
                    let su = shared_a.process_tc(o, seq, ansn, &adv, now, hold, |id, ins| {
                        s_report.push((id, ins))
                    });
                    let su_c = shared_c.process_tc(o, seq, ansn, &adv, now, hold, |id, ins| {
                        c_report.push((id, ins))
                    });
                    let pu = per_node_a.process_tc(o, ansn, &adv, now, hold, |id, ins| {
                        p_report.push((id, ins))
                    });
                    prop_assert_eq!(su, pu, "applied flag diverged at {}", now);
                    prop_assert_eq!(&s_report, &p_report, "changed pairs diverged at {}", now);
                    prop_assert_eq!(su_c, pu, "seeded applied flag diverged at {}", now);
                    prop_assert_eq!(&c_report, &p_report, "seeded changed pairs diverged at {}", now);
                    // Receiver B sees the same flood one delivery later.
                    let (mut s_report_b, mut p_report_b) = (Vec::new(), Vec::new());
                    let su_b = shared_b.process_tc(o, seq, ansn, &adv, now, hold, |id, ins| {
                        s_report_b.push((id, ins))
                    });
                    let pu_b = per_node_b.process_tc(o, ansn, &adv, now, hold, |id, ins| {
                        p_report_b.push((id, ins))
                    });
                    prop_assert_eq!(su_b, pu_b, "receiver B diverged at {}", now);
                    prop_assert_eq!(s_report_b, p_report_b, "receiver B pairs diverged at {}", now);
                }
                Op::Sweep => {
                    shared_a.sweep(now);
                    shared_b.sweep(now);
                    shared_c.sweep(now);
                    per_node_a.sweep(now);
                    per_node_b.sweep(now);
                }
                Op::Advance(secs) => now += SimDuration::from_secs(secs),
                Op::Reboot => {
                    shared_a.clear();
                    shared_c.clear();
                    per_node_a.clear();
                }
            }
            prop_assert_eq!(
                sorted_links(shared_a.links(now)),
                sorted_links(per_node_a.links(now)),
                "link views diverged at {}", now
            );
            prop_assert_eq!(shared_a.len(), per_node_a.len());
            prop_assert_eq!(shared_a.is_empty(), per_node_a.is_empty());
            prop_assert_eq!(
                sorted_links(shared_b.links(now)),
                sorted_links(per_node_b.links(now)),
                "receiver B link views diverged at {}", now
            );
            prop_assert_eq!(shared_c.links(now), per_node_a.links(now), "seeded link view at {}", now);
            prop_assert_eq!(shared_c.len(), per_node_a.len());
            for (shared, per_node) in [
                (&shared_a, &per_node_a),
                (&shared_b, &per_node_b),
                (&shared_c, &per_node_a),
            ] {
                prop_assert_eq!(shared.originators(), per_node.originators(), "originators at {}", now);
                prop_assert_eq!(
                    link_keys(shared, now),
                    link_keys(per_node, now),
                    "key walk diverged at {}", now
                );
            }
        }
        // Releasing every overlay must drain the stores completely.
        shared_a.clear();
        shared_b.clear();
        shared_c.clear();
        prop_assert_eq!(store.gauges().live_slots, 0, "store leaked slots");
        prop_assert_eq!(seeded_store.gauges().live_slots, 0, "seeded store leaked slots");
    }

    /// The ANSN accept/reject rule (with the reboot fix: an *expired*
    /// record is as if the originator was never heard) matches a naive
    /// map of the last live `(ansn, until)` per originator — in both
    /// formulations.
    #[test]
    fn ansn_rule_matches_naive_map(
        steps in proptest::collection::vec(
            (1u32..5, ansn_value(), 4u64..12, 0u64..6),
            1..40,
        )
    ) {
        let store = SharedLinkStore::new();
        let mut shared = SharedTopology::new(store);
        let mut per_node = TopologyBase::new();
        let mut naive: BTreeMap<u32, (u16, SimTime)> = BTreeMap::new();
        let mut now = SimTime::ZERO;
        let adv = advertised_links(&[9]);
        for (i, &(orig, ansn, hold_s, advance)) in steps.iter().enumerate() {
            now += SimDuration::from_secs(advance);
            let hold = now + SimDuration::from_secs(hold_s);
            let o = NodeId(orig);
            let expect = match naive.get(&orig) {
                None => true,
                Some(&(rec, until)) => until <= now || !seq_newer(rec, ansn),
            };
            prop_assert_eq!(shared.accepts_ansn(o, ansn, now), expect, "shared step {}", i);
            prop_assert_eq!(per_node.accepts_ansn(o, ansn, now), expect, "per-node step {}", i);
            let su = shared.process_tc(o, i as u16, ansn, &adv, now, hold, |_, _| {});
            let pu = per_node.process_tc(o, ansn, &adv, now, hold, |_, _| {});
            prop_assert_eq!(su, expect);
            prop_assert_eq!(pu, expect);
            if expect {
                naive.insert(orig, (ansn, hold));
            }
        }
    }

    /// The non-mutating accept predicate IS the mutating path's accept
    /// decision: for every TC in any history, `accepts_ansn` queried
    /// immediately before `process_tc` equals the returned
    /// `applied` — in both formulations. The peek-decode fast path
    /// drops TC bodies on the strength of `accepts_ansn` alone, so any
    /// daylight between the two is a lost (or phantom) topology update.
    /// Histories are adversarial on exactly the two axes where the
    /// predicates could drift apart: the `Jump` arm lands arrivals on
    /// the *exact expiry instant* of a previously recorded hold
    /// (`until == now`, where `<=` vs `<` disagreements live), and
    /// ANSNs straddle the u16 wrap (where `seq_newer` asymmetry lives).
    #[test]
    fn accept_predicate_equals_applied_at_boundaries(
        steps in proptest::collection::vec(
            (
                1u32..4,
                ansn_value(),
                1u64..6,
                prop_oneof![
                    (0u64..3).prop_map(Some), // step forward
                    Just(None),               // jump to a recorded expiry
                ],
                0usize..8,
                any::<bool>(),
            ),
            1..60,
        )
    ) {
        let store = SharedLinkStore::new();
        let mut shared = SharedTopology::new(store);
        let mut per_node = TopologyBase::new();
        let mut horizons: Vec<SimTime> = Vec::new();
        let mut now = SimTime::ZERO;
        let adv = advertised_links(&[7, 8]);
        for (i, &(orig, ansn, hold_s, advance, pick, sweep)) in steps.iter().enumerate() {
            now = match advance {
                Some(secs) => now + SimDuration::from_secs(secs),
                // Land exactly on a previously recorded hold horizon —
                // the expiry boundary — whenever one is still ahead.
                None => horizons
                    .get(pick % horizons.len().max(1))
                    .copied()
                    .map_or(now, |h| h.max(now)),
            };
            let hold = now + SimDuration::from_secs(hold_s);
            horizons.push(hold);
            let o = NodeId(orig);
            let shared_accepts = shared.accepts_ansn(o, ansn, now);
            let per_node_accepts = per_node.accepts_ansn(o, ansn, now);
            let su = shared.process_tc(o, i as u16, ansn, &adv, now, hold, |_, _| {});
            let pu = per_node.process_tc(o, ansn, &adv, now, hold, |_, _| {});
            prop_assert_eq!(
                shared_accepts, su,
                "shared accepts_ansn lied about apply at {} (step {})", now, i
            );
            prop_assert_eq!(
                per_node_accepts, pu,
                "per-node accepts_ansn lied about apply at {} (step {})", now, i
            );
            prop_assert_eq!(su, pu, "formulations diverged at {}", now);
            if sweep {
                shared.sweep(now);
                per_node.sweep(now);
            }
        }
    }

    /// The flat duplicate table answers `fresh` and `mark_forwarded`,
    /// and keeps exactly the entries, of a naive `BTreeMap` keyed
    /// `(originator, seq)`. 16 originators × 10 seqs give 160 distinct
    /// keys; bursts at one instant grow the table through several
    /// resizes (so probe chains land on, and wrap past, the last slot
    /// of many capacities), and long jumps expire part of it, shrinking
    /// it again. Holds of 1–60 s over irregular time steps are not
    /// monotone, and seqs straddle both u16 wrap points.
    #[test]
    fn duplicate_set_matches_naive_map_across_wraparound(
        steps in proptest::collection::vec(
            (
                0u32..16,
                prop_oneof![0u16..3, 0x7FFE_u16..=0x8001, 0xFFFD_u16..=0xFFFF],
                any::<bool>(),
                1u64..60,
                advance_ms(),
                any::<bool>(),
            ),
            1..300,
        )
    ) {
        let mut dup = DuplicateSet::new();
        let mut naive = NaiveDuplicateSet::default();
        let mut now = SimTime::ZERO;
        for &(orig, seq, forward, hold_s, advance_ms, sweep) in &steps {
            now += SimDuration::from_millis(advance_ms);
            let hold = now + SimDuration::from_secs(hold_s);
            let o = NodeId(orig);
            if forward {
                prop_assert_eq!(
                    dup.mark_forwarded(o, seq, hold),
                    naive.mark_forwarded(orig, seq, hold),
                    "mark_forwarded diverged at {}", now
                );
            } else {
                prop_assert_eq!(
                    dup.fresh(o, seq, hold),
                    naive.fresh(orig, seq, hold),
                    "fresh diverged at {}", now
                );
            }
            if sweep {
                dup.sweep(now);
                naive.sweep(now);
                prop_assert!(
                    dup_slots(&dup) <= (5 * dup.len() / 3).max(8),
                    "{} slots for {} entries after a sweep", dup_slots(&dup), dup.len()
                );
            }
            prop_assert_eq!(dup.footprint().0, naive.len(), "entry counts diverged at {}", now);
        }
    }

    /// The duplicate table under the protocol's calling convention —
    /// one constant hold duration over non-decreasing `now`, so entries
    /// expire in arrival order, as in a ring — answers `fresh` and
    /// `mark_forwarded` identically to the naive reference map, and its
    /// sweep retains exactly the reference's entries. Sequence numbers
    /// straddle both u16 wrap points; dense key reuse drives repeated
    /// refreshes of live entries.
    #[test]
    fn duplicate_ring_matches_reference(
        steps in proptest::collection::vec(
            (
                0u32..6,
                prop_oneof![0u16..4, 0x7FFE_u16..=0x8001, 0xFFFD_u16..=0xFFFF],
                any::<bool>(),
                0u64..3,
                any::<bool>(),
            ),
            1..150,
        )
    ) {
        let mut dup = DuplicateSet::new();
        let mut reference = NaiveDuplicateSet::default();
        let mut now = SimTime::ZERO;
        for &(orig, seq, forward, advance, sweep) in &steps {
            now += SimDuration::from_secs(advance);
            let hold = now + SimDuration::from_secs(4);
            let o = NodeId(orig);
            if forward {
                prop_assert_eq!(
                    dup.mark_forwarded(o, seq, hold),
                    reference.mark_forwarded(orig, seq, hold),
                    "mark_forwarded diverged at {}",
                    now
                );
            } else {
                prop_assert_eq!(
                    dup.fresh(o, seq, hold),
                    reference.fresh(orig, seq, hold),
                    "fresh diverged at {}",
                    now
                );
            }
            if sweep {
                dup.sweep(now);
                reference.sweep(now);
            }
            prop_assert_eq!(dup.len(), reference.len(), "entry counts diverged at {}", now);
        }
    }
}

/// A refresh storm on a small key set, with a trickle of unique keys
/// driving growth and expiry at the same time and seqs straddling the
/// u16 wrap: every answer matches the naive map, and the table stays
/// sized to the live entries.
#[test]
fn duplicate_set_survives_refresh_storm() {
    let t = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let mut dup = DuplicateSet::new();
    let mut naive = NaiveDuplicateSet::default();
    for round in 0..200u64 {
        let now = t(round);
        let hold = now + SimDuration::from_secs(30);
        for k in 0..8u16 {
            let seq = (u16::MAX - 3).wrapping_add(k);
            assert_eq!(
                dup.fresh(NodeId(1), seq, hold),
                naive.fresh(1, seq, hold),
                "fresh diverged in round {round}"
            );
            assert_eq!(
                dup.mark_forwarded(NodeId(1), seq, hold),
                naive.mark_forwarded(1, seq, hold),
                "mark_forwarded diverged in round {round}"
            );
        }
        assert_eq!(
            dup.fresh(NodeId(2), round as u16, hold),
            naive.fresh(2, round as u16, hold)
        );
        dup.sweep(now);
        naive.sweep(now);
        assert_eq!(dup.len(), naive.len(), "sizes diverged in round {round}");
    }
    // The hold window is 30 s, so at most ~30 unique-key entries plus
    // the 8 hot keys are live, and the slots follow them.
    let entries = dup.len();
    assert!(entries <= 40, "live entries bounded: {entries}");
    assert!(
        3 * dup_slots(&dup) <= 5 * entries,
        "{} slots for {entries} live entries",
        dup_slots(&dup)
    );
}

/// A key is forwarded and refreshed, then a mass expiry sweeps every
/// other entry and shrinks the table, and in the same tick the
/// survivor is refreshed again and marked forwarded. A survivor lost or
/// misplaced by the shrink would be reported unseen (re-processing a
/// duplicate flood) or lose its forwarded bit (re-flooding); the naive
/// map pins every answer.
#[test]
fn duplicate_refresh_survives_same_tick_mass_expiry() {
    let t = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let mut dup = DuplicateSet::new();
    let mut naive = NaiveDuplicateSet::default();
    let survivor = 9;
    // 300 short-hold entries build up capacity.
    for seq in 0..300u16 {
        let orig = u32::from(seq) % 7;
        assert_eq!(
            dup.fresh(NodeId(orig), seq, t(4)),
            naive.fresh(orig, seq, t(4))
        );
    }
    // The survivor arrives, is forwarded, and is refreshed once.
    assert!(dup.fresh(NodeId(survivor), 42, t(4)) && naive.fresh(survivor, 42, t(4)));
    assert!(
        dup.mark_forwarded(NodeId(survivor), 42, t(4)) && naive.mark_forwarded(survivor, 42, t(4))
    );
    assert!(
        !dup.fresh(NodeId(survivor), 42, t(6)) && !naive.fresh(survivor, 42, t(6)),
        "refresh must report the key as already known"
    );
    let slots_before = dup_slots(&dup);
    // Mass expiry: all 300 short-hold entries age out at t(4); only the
    // refreshed survivor outlives the sweep.
    dup.sweep(t(4));
    naive.sweep(t(4));
    assert_eq!(dup.len(), 1);
    assert_eq!(naive.len(), 1);
    assert!(
        dup_slots(&dup) < slots_before && dup_slots(&dup) <= 4 * dup.len() + 8,
        "mass expiry must shrink the table: {} slots before, {} after",
        slots_before,
        dup_slots(&dup)
    );
    // Same tick, after the shrink: the survivor is still found, with
    // its forwarded bit intact.
    assert!(
        !dup.fresh(NodeId(survivor), 42, t(9)) && !naive.fresh(survivor, 42, t(9)),
        "lookup after the shrink lost the survivor"
    );
    assert!(
        !dup.mark_forwarded(NodeId(survivor), 42, t(9))
            && !naive.mark_forwarded(survivor, 42, t(9)),
        "forwarded bit lost across refresh + shrink"
    );
    // And a fresh key keeps agreeing afterwards.
    assert!(dup.fresh(NodeId(11), 7, t(9)) && naive.fresh(11, 7, t(9)));
    assert_eq!(dup.len(), naive.len());
}

/// Sustained churn — a stream of originators that each advertise once
/// and then vanish — must leave every table bounded by the *live*
/// population, not the historical one: sweeps reclaim departed
/// originators from the topology bases, the duplicate set, and the
/// shared store alike.
#[test]
fn long_churn_keeps_tables_and_store_bounded() {
    const HOLD_S: u64 = 4;
    let store = SharedLinkStore::new();
    let mut shared = SharedTopology::new(store.clone());
    let mut per_node = TopologyBase::new();
    let mut dup = DuplicateSet::new();
    let mut now = SimTime::ZERO;
    for round in 0..500u32 {
        let orig = NodeId(round);
        let adv = advertised_links(&[round + 1, round + 2]);
        let hold = now + SimDuration::from_secs(HOLD_S);
        let seq = round as u16;
        shared.process_tc(orig, seq, 0, &adv, now, hold, |_, _| {});
        per_node.process_tc(orig, 0, &adv, now, hold, |_, _| {});
        dup.fresh(orig, seq, hold);
        now += SimDuration::from_secs(1);
        shared.sweep(now);
        per_node.sweep(now);
        dup.sweep(now);
    }
    // Only originators inside the hold window may remain resident.
    let bound = HOLD_S as usize;
    assert!(
        shared.originators() <= bound,
        "shared overlays leak: {}",
        shared.originators()
    );
    assert!(
        per_node.originators() <= bound,
        "per-node originators leak: {}",
        per_node.originators()
    );
    assert!(
        dup.len() <= bound,
        "duplicate-set entries leak: {}",
        dup.len()
    );
    assert!(
        dup_slots(&dup) <= 8,
        "duplicate-set slots leak: {}",
        dup_slots(&dup)
    );
    let gauges = store.gauges();
    assert!(
        gauges.live_slots <= bound as u64,
        "store slots leak: {}",
        gauges.live_slots
    );
    // The footprints track the live population too (entries, not just
    // originator counts).
    assert!(shared.footprint().0 <= 2 * bound);
    assert!(per_node.footprint().0 <= 2 * bound);
}

/// A crash-rebooted originator restarts its wire sequence and ANSN at
/// zero (`Actor::on_crash`), while every receiver still holds the
/// pre-crash records. The reborn numbers must be suppressed only while
/// those records live: the duplicate stores free the reused seq once
/// the duplicate hold sweeps out, and the ANSN rule treats an expired
/// record as never-heard — so a crashed node is locked out of the
/// flood for at most the hold windows, never wedged network-wide until
/// the u16 half-window wraps. Pinned in both topology formulations and
/// the duplicate set.
#[test]
fn crash_reboot_at_seq_zero_recovers_within_the_holds() {
    const TOPOLOGY_HOLD_S: u64 = 15;
    const DUPLICATE_HOLD_S: u64 = 30;
    let store = SharedLinkStore::new();
    let mut shared = SharedTopology::new(store);
    let mut per_node = TopologyBase::new();
    let mut dup_set = DuplicateSet::new();
    let o = NodeId(3);
    let pre_crash = advertised_links(&[1, 2]);
    let post_crash = advertised_links(&[5]);

    // Pre-crash life: a mid-range ANSN and wire seqs 0..3 all recorded.
    let t0 = SimTime::ZERO;
    let dup_hold = |now: SimTime| now + SimDuration::from_secs(DUPLICATE_HOLD_S);
    let topo_hold = |now: SimTime| now + SimDuration::from_secs(TOPOLOGY_HOLD_S);
    for seq in 0u16..3 {
        assert!(dup_set.fresh(o, seq, dup_hold(t0)));
    }
    assert!(shared.process_tc(o, 2, 20_000, &pre_crash, t0, topo_hold(t0), |_, _| {}));
    assert!(per_node.process_tc(o, 20_000, &pre_crash, t0, topo_hold(t0), |_, _| {}));

    // Crash + reboot one second later: the reborn node floods seq 0 /
    // ANSN 0. Every store must suppress it — the old records live on.
    let t1 = t0 + SimDuration::from_secs(1);
    assert!(!dup_set.fresh(o, 0, dup_hold(t1)), "seq 0 is still held");
    assert!(!shared.accepts_ansn(o, 0, t1), "ANSN 0 looks stale");
    assert!(!per_node.accepts_ansn(o, 0, t1), "ANSN 0 looks stale");
    assert!(!shared.process_tc(o, 0, 0, &post_crash, t1, topo_hold(t1), |_, _| {}));
    assert!(!per_node.process_tc(o, 0, &post_crash, t1, topo_hold(t1), |_, _| {}));

    // The topology record expires first: at exactly `t0 + hold` the
    // expired entry counts as never-heard (no sweep required) and the
    // post-crash advertisement replaces the pre-crash links.
    let t2 = t0 + SimDuration::from_secs(TOPOLOGY_HOLD_S);
    assert!(
        shared.accepts_ansn(o, 0, t2),
        "expired record = never heard"
    );
    assert!(per_node.accepts_ansn(o, 0, t2));
    assert!(shared.process_tc(o, 1, 0, &post_crash, t2, topo_hold(t2), |_, _| {}));
    assert!(per_node.process_tc(o, 0, &post_crash, t2, topo_hold(t2), |_, _| {}));
    assert_eq!(
        sorted_links(shared.links(t2)),
        sorted_links(per_node.links(t2)),
        "formulations diverged after the crash recovery"
    );
    assert_eq!(shared.links(t2).len(), post_crash.len());

    // The reused wire seq frees once the duplicate hold drains. The
    // refresh at t1 extended it, so the lockout runs from the last
    // suppressed attempt — bounded, not forever.
    let t3 = t1 + SimDuration::from_secs(DUPLICATE_HOLD_S + 1);
    dup_set.sweep(t3);
    assert!(
        dup_set.fresh(o, 0, dup_hold(t3)),
        "seq 0 reusable post-hold"
    );
}

/// Two stores seeded alike meet their originators in opposite orders,
/// including two ids outside the seed, so those two get different
/// numbers on each. A base on either store that learns the same TCs
/// must still walk the same `(originator, advertised)` sequence,
/// ascending as the oracle's: a node that churn re-homes onto another
/// shard's store keeps its route inputs, which is what shard-count
/// invariance rests on.
#[test]
fn visit_order_does_not_depend_on_store_arrival_order() {
    let t = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let hold = t(10);
    let seeded = || SharedLinkStore::seeded(8);
    let (store_x, store_y) = (seeded(), seeded());
    // Ids 20 and 50 lie outside the seed.
    let met = [3u32, 50, 1, 7, 20];
    let mut other_x = SharedTopology::new(store_x.clone());
    let mut other_y = SharedTopology::new(store_y.clone());
    for &o in &met {
        let adv = advertised_links(&[o + 1]);
        other_x.process_tc(NodeId(o), 1, 1, &adv, t(0), hold, |_, _| {});
    }
    for &o in met.iter().rev() {
        let adv = advertised_links(&[o + 1]);
        other_y.process_tc(NodeId(o), 1, 1, &adv, t(0), hold, |_, _| {});
    }

    let mut x = SharedTopology::new(store_x);
    let mut y = SharedTopology::new(store_y);
    let mut oracle = TopologyBase::new();
    for (seq, o) in [50u32, 7, 20, 1, 3, 6].into_iter().enumerate() {
        let adv = advertised_links(&[o + 2, o + 1]);
        let seq = seq as u16;
        x.process_tc(NodeId(o), seq, 1, &adv, t(1), hold, |_, _| {});
        y.process_tc(NodeId(o), seq, 1, &adv, t(1), hold, |_, _| {});
        oracle.process_tc(NodeId(o), 1, &adv, t(1), hold, |_, _| {});
    }
    let walk = link_keys(&x, t(2));
    assert_eq!(
        walk,
        link_keys(&y, t(2)),
        "stores met the ids in other orders"
    );
    assert_eq!(walk, link_keys(&oracle, t(2)));
    let origins: Vec<u32> = walk.0.iter().map(|&(o, _)| o.0).step_by(2).collect();
    assert_eq!(origins, [1, 3, 6, 7, 20, 50]);
    assert_eq!(x.links(t(2)), y.links(t(2)));
    assert_eq!(x.links(t(2)), oracle.links(t(2)));
}
