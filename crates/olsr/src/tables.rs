//! Protocol information bases: link set, neighbor set, 2-hop set,
//! MPR-selector set and duplicate set — all with RFC-style validity
//! times — plus the interface of the topology base ([`TopologyLinks`]),
//! which [`SharedTopology`] implements over the network-shared store.
//!
//! Each message kind has one integration call, as RFC 3626 gives it one
//! processing rule: [`NeighborTables::process_hello`] (§7 link sensing)
//! and [`SharedTopology::process_tc`] (§9.5). Both report the link pairs
//! they change, which is what keeps a node's route cache exact.
//!
//! Storage is id-sorted flat vectors (binary-search point lookups,
//! in-order scans) rather than `BTreeMap`s: the per-message hot path
//! (HELLO/TC processing at every delivery) touches a handful of entries
//! in tables that are small per node, where contiguous storage wins, and
//! the `*_into` accessors fill caller-owned scratch buffers so the
//! per-tick read paths allocate nothing. The allocating accessors remain
//! for convenience and are pinned ≡ the flat storage by differential
//! tests against the original `BTreeMap` model. The duplicate set, the
//! largest table at scale, is a flat open-addressed hash table instead,
//! pinned against a naive map.

use qolsr_graph::{LocalView, NodeId};
use qolsr_metrics::LinkQos;
use qolsr_sim::SimTime;

use crate::config::{LinkHysteresis, LinkMetric, SensingParams};
use crate::messages::Hello;
use crate::store::SharedTopology;

/// "Never expires" sentinel returned by min-expiry accessors when no
/// tuple bounds the horizon.
pub(crate) const FAR_FUTURE: SimTime = SimTime::from_micros(u64::MAX);

/// One sensed link (RFC 3626 link tuple, condensed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTuple {
    /// The neighbor on the other end.
    pub neighbor: NodeId,
    /// Effective link QoS: the measured value under
    /// [`LinkMetric::Measured`], the ETX-reshaped value under
    /// [`LinkMetric::Etx`].
    pub qos: LinkQos,
    /// The link is heard (asymmetric) until this time.
    pub asym_until: SimTime,
    /// The link is verified bidirectional until this time.
    pub sym_until: SimTime,
    /// Online delivery-probability estimate in parts per million: an
    /// EWMA over HELLO arrivals, with misses inferred from inter-arrival
    /// gaps (observations are truncated — only arrivals are seen).
    pub quality_ppm: u32,
    /// When the last HELLO arrived over this link (the baseline for
    /// inferring missed HELLOs).
    pub last_heard: SimTime,
    /// RFC 3626 §14 hysteresis state: while pending, the link is kept
    /// out of the symmetric set (and thus MPR selection and routing)
    /// even if the symmetry handshake has completed. Always `false`
    /// under [`LinkHysteresis::Off`].
    pub pending: bool,
}

impl LinkTuple {
    /// Returns `true` if the link currently counts as symmetric (the
    /// handshake holds and hysteresis, when enabled, admits the link).
    pub fn is_symmetric(&self, now: SimTime) -> bool {
        self.symmetric_until() > now
    }

    /// The instant the link stops counting as symmetric:
    /// [`LinkTuple::is_symmetric`] holds exactly while `now` is before
    /// it. A pending link has stopped already.
    fn symmetric_until(&self) -> SimTime {
        if self.pending {
            SimTime::ZERO
        } else {
            self.sym_until
        }
    }

    /// Returns `true` if the tuple is still alive at all.
    pub fn is_alive(&self, now: SimTime) -> bool {
        self.asym_until > now || self.sym_until > now
    }

    /// Folds one HELLO arrival at `now` into the quality EWMA and the
    /// hysteresis state: one decay step per HELLO inferred lost since
    /// `last_heard`, one gain step for the arrival itself, then the
    /// RFC §14 threshold comparison.
    fn update_quality(&mut self, now: SimTime, sensing: &SensingParams) {
        const UNIT: u64 = 1_000_000;
        let scaling = u64::from(sensing.quality_scaling_ppm()).min(UNIT);
        let expected = sensing.expected_interval.as_micros().max(1);
        let elapsed = now.as_micros().saturating_sub(self.last_heard.as_micros());
        // Rounded inter-arrival slot count; one slot is a loss-free
        // cadence. The cap bounds the decay loop — past it the estimate
        // has decayed to irrelevance anyway.
        let missed = ((elapsed + expected / 2) / expected)
            .saturating_sub(1)
            .min(16);
        let mut q = u64::from(self.quality_ppm);
        for _ in 0..missed {
            q = q * (UNIT - scaling) / UNIT;
        }
        q = q * (UNIT - scaling) / UNIT + scaling;
        self.quality_ppm = q.min(UNIT) as u32;
        self.last_heard = now;
        if let LinkHysteresis::On(h) = sensing.hysteresis {
            if self.quality_ppm >= h.accept_ppm {
                self.pending = false;
            } else if self.quality_ppm <= h.reject_ppm {
                self.pending = true;
            }
        }
    }
}

/// Maps measured QoS to the effective QoS the protocol advertises:
/// under ETX the delivery estimate `q` scales bandwidth by `q²`
/// (InvETX — both a frame and its reverse must survive the link) and
/// delay by `1/q²` (ETX — expected transmission count); energy is left
/// untouched. `q = 0` pins the link to the worst representable QoS
/// rather than dividing by zero.
fn effective_qos(measured: LinkQos, quality_ppm: u32, metric: LinkMetric) -> LinkQos {
    use qolsr_metrics::{Bandwidth, Delay};
    match metric {
        LinkMetric::Measured => measured,
        LinkMetric::Etx(_) => {
            const UNIT: u64 = 1_000_000;
            let q = u64::from(quality_ppm).min(UNIT);
            let q2 = (q * q / UNIT).max(1);
            LinkQos {
                bandwidth: Bandwidth(measured.bandwidth.0 * q2 / UNIT),
                delay: Delay(measured.delay.0.saturating_mul(UNIT) / q2),
                energy: measured.energy,
            }
        }
    }
}

/// A link reported by a symmetric neighbor:
/// `via —qos→ node`, valid until `until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReportedLink {
    via: NodeId,
    node: NodeId,
    qos: LinkQos,
    until: SimTime,
}

/// Link sensing plus neighborhood knowledge learned from HELLOs.
#[derive(Debug, Default, Clone)]
pub struct NeighborTables {
    /// Link tuples, ascending by neighbor id.
    links: Vec<LinkTuple>,
    /// `sym_keys[i]` is `links[i]`'s neighbor and
    /// [`LinkTuple::symmetric_until`]: every neighbor search runs on
    /// these 16-byte pairs instead of the 64-byte tuples, which matters
    /// for the symmetric-link check on every TC delivery.
    sym_keys: Vec<(NodeId, SimTime)>,
    /// Links reported by symmetric neighbors, ascending by `(via, node)`.
    reported: Vec<ReportedLink>,
    /// Neighbors that currently select us as MPR, ascending by id.
    mpr_selectors: Vec<(NodeId, SimTime)>,
}

impl NeighborTables {
    /// Creates empty tables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Integrates a HELLO received from `from` over a link measured at
    /// `measured_qos`.
    ///
    /// Implements RFC 3626 link sensing: hearing the HELLO refreshes the
    /// asymmetric lifetime; seeing ourselves (`me`) listed refreshes the
    /// symmetric lifetime; being listed with the MPR code refreshes the
    /// MPR-selector tuple. Links the announcer reports as symmetric are
    /// recorded for 2-hop neighborhood and `G_u` construction.
    ///
    /// `sensing` sets the quality EWMA, RFC §14 hysteresis gating and the
    /// ETX metric mapping, which all live here. The default parameters
    /// (no hysteresis, measured metric) advertise the measured QoS and
    /// never hold a link back; the quality estimate ticks along unused.
    ///
    /// `entered(n)` names the links the HELLO brings into the route
    /// inputs: every reported link `from — n` that is new or had expired,
    /// while `from` is a symmetric neighbor after the HELLO.
    ///
    /// Returns `true` when the HELLO changed the route inputs in a way
    /// those pairs do not name: the symmetric-neighbor set gained or lost
    /// a member, or the hold of a symmetric link or of a reported link
    /// in the inputs moved earlier. A route computation's validity window
    /// ends at the earliest hold it read, so a shortened hold has to be
    /// reported. Pure lifetime refreshes return `false` and name nothing,
    /// so callers update derived state (the routing cache) only when
    /// needed.
    #[allow(clippy::too_many_arguments)]
    pub fn process_hello(
        &mut self,
        me: NodeId,
        from: NodeId,
        measured_qos: LinkQos,
        hello: &Hello,
        now: SimTime,
        hold_until: SimTime,
        sensing: SensingParams,
        mut entered: impl FnMut(NodeId),
    ) -> bool {
        let i = match search(&self.sym_keys, from) {
            Ok(i) => i,
            Err(i) => {
                self.sym_keys.insert(i, (from, SimTime::ZERO));
                self.links.insert(
                    i,
                    LinkTuple {
                        neighbor: from,
                        qos: measured_qos,
                        asym_until: hold_until,
                        sym_until: now,
                        quality_ppm: 0,
                        // `update_quality` below sees zero elapsed time,
                        // so the first arrival applies exactly one gain
                        // step from zero.
                        last_heard: now,
                        pending: matches!(sensing.hysteresis, LinkHysteresis::On(_)),
                    },
                );
                i
            }
        };
        let sym_before = self.sym_keys[i].1;
        let tuple = &mut self.links[i];
        tuple.update_quality(now, &sensing);
        tuple.qos = effective_qos(measured_qos, tuple.quality_ppm, sensing.metric);
        tuple.asym_until = hold_until;
        if let Some(entry) = hello.entry(me) {
            // The neighbor hears us: the link is bidirectional.
            tuple.sym_until = hold_until;
            if entry.state == crate::messages::LinkState::Mpr {
                match self.mpr_selectors.binary_search_by_key(&from, |s| s.0) {
                    Ok(j) => self.mpr_selectors[j].1 = hold_until,
                    Err(j) => self.mpr_selectors.insert(j, (from, hold_until)),
                }
            }
        }
        let sym_after = self.links[i].symmetric_until();
        self.sym_keys[i].1 = sym_after;
        // Reported links only enter route inputs while their reporter is
        // a symmetric neighbor, so inserts from a still-asymmetric
        // reporter are not a route-relevant change yet — the later
        // asym→sym transition flags one (and is detected here even when
        // it happens within this same HELLO, since the link tuple is
        // updated first).
        let reporter_symmetric = sym_after > now;
        let mut changed = reporter_symmetric != (sym_before > now);
        changed |= reporter_symmetric && sym_after < sym_before;
        for n in &hello.neighbors {
            // `n.id != from` discards a neighbor listing itself — no valid
            // HELLO carries one, but a bit-flipped frame that evades the
            // FCS can, and recording the (from, from) self-loop would
            // panic `LocalView::from_parts` at the next TC emission.
            if n.state.is_symmetric() && n.id != me && n.id != from {
                match self
                    .reported
                    .binary_search_by_key(&(from, n.id), |r| (r.via, r.node))
                {
                    Ok(j) => {
                        let r = &mut self.reported[j];
                        if reporter_symmetric {
                            if r.until <= now {
                                entered(n.id); // was expired: reappears
                            } else {
                                changed |= hold_until < r.until;
                            }
                        }
                        r.qos = n.qos;
                        r.until = hold_until;
                    }
                    Err(j) => {
                        self.reported.insert(
                            j,
                            ReportedLink {
                                via: from,
                                node: n.id,
                                qos: n.qos,
                                until: hold_until,
                            },
                        );
                        if reporter_symmetric {
                            entered(n.id);
                        }
                    }
                }
            }
        }
        changed
    }

    /// Discards every tuple that expired at `now`.
    pub fn sweep(&mut self, now: SimTime) {
        self.links.retain(|t| t.is_alive(now));
        self.sym_keys.clear();
        self.sym_keys
            .extend(self.links.iter().map(|t| (t.neighbor, t.symmetric_until())));
        // Reported links are only meaningful while the reporter is a live
        // symmetric neighbor.
        let keys = &self.sym_keys;
        self.reported
            .retain(|r| r.until > now && symmetric_until(keys, r.via, now).is_some());
        self.mpr_selectors.retain(|&(_, until)| until > now);
    }

    /// Returns `true` when `n` is currently a symmetric neighbor.
    pub fn is_symmetric(&self, n: NodeId, now: SimTime) -> bool {
        symmetric_until(&self.sym_keys, n, now).is_some()
    }

    /// Returns `true` when `n` currently selects us as MPR.
    pub fn is_mpr_selector(&self, n: NodeId, now: SimTime) -> bool {
        self.mpr_selectors
            .binary_search_by_key(&n, |s| s.0)
            .is_ok_and(|i| self.mpr_selectors[i].1 > now)
    }

    /// Shared scan behind the symmetric-neighbor accessors: pushes
    /// `map(tuple)` for every currently-symmetric link, ascending by id,
    /// and returns the earliest instant the set could shrink (the
    /// minimum `sym_until` among members, or far-future when empty).
    fn symmetric_scan<T>(
        &self,
        now: SimTime,
        out: &mut Vec<T>,
        mut map: impl FnMut(&LinkTuple) -> T,
    ) -> SimTime {
        out.clear();
        let mut min_expiry = FAR_FUTURE;
        for t in &self.links {
            if t.is_symmetric(now) {
                out.push(map(t));
                min_expiry = min_expiry.min(t.sym_until);
            }
        }
        min_expiry
    }

    /// Fills `out` with the current symmetric neighbors and link QoS,
    /// ascending by id; returns the earliest instant at which the set
    /// could shrink.
    pub fn symmetric_into(&self, now: SimTime, out: &mut Vec<(NodeId, LinkQos)>) -> SimTime {
        self.symmetric_scan(now, out, |t| (t.neighbor, t.qos))
    }

    /// Key-only variant of [`NeighborTables::symmetric_into`]: fills
    /// `out` with the symmetric neighbor ids alone (the route-relevant
    /// content — hop-count routing ignores QoS labels), same order and
    /// min-expiry return.
    pub fn symmetric_keys_into(&self, now: SimTime, out: &mut Vec<NodeId>) -> SimTime {
        self.symmetric_scan(now, out, |t| t.neighbor)
    }

    /// Fills `out` with neighbors heard but not (yet) verified
    /// bidirectional, ascending by id. These must be announced with the
    /// asymmetric link code so the other side can complete the symmetry
    /// handshake.
    pub fn asymmetric_into(&self, now: SimTime, out: &mut Vec<(NodeId, LinkQos)>) {
        out.clear();
        for t in &self.links {
            if t.is_alive(now) && !t.is_symmetric(now) {
                out.push((t.neighbor, t.qos));
            }
        }
    }

    /// Shared scan behind the reported-link accessors: pushes `map(r)`
    /// for every live link reported by a currently-symmetric neighbor,
    /// ascending by `(reporter, other end)`, and returns the earliest
    /// instant the set could shrink (a tuple expiry or its reporter's
    /// symmetry expiry, whichever is sooner).
    fn reported_scan<T>(
        &self,
        now: SimTime,
        out: &mut Vec<T>,
        mut map: impl FnMut(&ReportedLink) -> T,
    ) -> SimTime {
        out.clear();
        let mut min_expiry = FAR_FUTURE;
        // `reported` is sorted by (via, node): resolve each reporter's
        // link tuple once per `via` group.
        let mut cur_via = None;
        let mut cur_sym: Option<SimTime> = None; // sym_until when symmetric now
        for r in &self.reported {
            if cur_via != Some(r.via) {
                cur_via = Some(r.via);
                cur_sym = symmetric_until(&self.sym_keys, r.via, now);
            }
            let Some(sym_until) = cur_sym else { continue };
            if r.until > now {
                out.push(map(r));
                min_expiry = min_expiry.min(r.until).min(sym_until);
            }
        }
        min_expiry
    }

    /// Fills `out` with the links reported by current symmetric
    /// neighbors as `(reporter, other end, qos)`, ascending by
    /// `(reporter, other end)`; returns the earliest instant at which
    /// the set could shrink.
    pub fn reported_into(&self, now: SimTime, out: &mut Vec<(NodeId, NodeId, LinkQos)>) -> SimTime {
        self.reported_scan(now, out, |r| (r.via, r.node, r.qos))
    }

    /// Key-only variant of [`NeighborTables::reported_into`]: the
    /// `(reporter, other end)` pairs alone, same order and min-expiry
    /// return.
    pub fn reported_keys_into(&self, now: SimTime, out: &mut Vec<(NodeId, NodeId)>) -> SimTime {
        self.reported_scan(now, out, |r| (r.via, r.node))
    }

    /// Fills `out` with the neighbors currently selecting us as MPR,
    /// ascending.
    pub fn selectors_into(&self, now: SimTime, out: &mut Vec<NodeId>) {
        out.clear();
        for &(n, until) in &self.mpr_selectors {
            if until > now {
                out.push(n);
            }
        }
    }

    /// Current symmetric neighbors with link QoS, ascending by id.
    pub fn symmetric_neighbors(&self, now: SimTime) -> Vec<(NodeId, LinkQos)> {
        let mut out = Vec::new();
        self.symmetric_into(now, &mut out);
        out
    }

    /// Links reported by current symmetric neighbors, as
    /// `(reporter, other end, qos)`.
    pub fn reported_links(&self, now: SimTime) -> Vec<(NodeId, NodeId, LinkQos)> {
        let mut out = Vec::new();
        self.reported_into(now, &mut out);
        out
    }

    /// Neighbors currently selecting us as MPR, ascending.
    pub fn mpr_selectors(&self, now: SimTime) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.selectors_into(now, &mut out);
        out
    }

    /// Builds the node's current partial view `G_u` from its tables.
    pub fn local_view(&self, me: NodeId, now: SimTime) -> LocalView {
        LocalView::from_parts(
            me,
            &self.symmetric_neighbors(now),
            &self.reported_links(now),
        )
    }
}

/// Position of neighbor `n` in an id-sorted key array.
fn search(keys: &[(NodeId, SimTime)], n: NodeId) -> Result<usize, usize> {
    keys.binary_search_by_key(&n, |&(id, _)| id)
}

/// `n`'s symmetric-until instant, if `n` is a symmetric neighbor at
/// `now`.
fn symmetric_until(keys: &[(NodeId, SimTime)], n: NodeId, now: SimTime) -> Option<SimTime> {
    search(keys, n)
        .ok()
        .map(|i| keys[i].1)
        .filter(|&until| until > now)
}

/// Returns `true` if `a` is a newer 16-bit sequence number than `b`
/// (RFC 3626 §19 wraparound comparison).
pub fn seq_newer(a: u16, b: u16) -> bool {
    a != b && a.wrapping_sub(b) < 0x8000
}

/// Read access to the live advertised-link content of a topology base —
/// what the route computation consumes. Implemented by the node's
/// store-backed [`SharedTopology`]; the test suites implement it for
/// the per-node reference tables they keep as an oracle, so the route
/// cache runs over both.
pub trait TopologyLinks {
    /// The seed of the base's originator numbering: the ids `0..n`,
    /// each numbered by its own value (see
    /// [`SharedLinkStore::seeded`](crate::store::SharedLinkStore::seeded)).
    /// The route computation numbers its ids the same way.
    fn seeded(&self) -> usize;

    /// Calls `visit(originator, advertised)` for every live advertised
    /// link, ascending by `(originator, advertised)`; returns the
    /// earliest expiry among them (far-future when there are none).
    fn for_each_link_key(&self, now: SimTime, visit: impl FnMut(NodeId, NodeId)) -> SimTime;
}

impl TopologyLinks for SharedTopology {
    fn seeded(&self) -> usize {
        SharedTopology::seeded(self)
    }

    fn for_each_link_key(&self, now: SimTime, visit: impl FnMut(NodeId, NodeId)) -> SimTime {
        SharedTopology::for_each_link_key(self, now, visit)
    }
}

/// A duplicate-set entry packed into one `u64`:
/// `(until_micros << 17) | (forwarded << 16) | seq`.
///
/// The 47 until-bits cover ~4.4 simulated years — far beyond any run,
/// and `debug_assert`ed at pack time. Packing keeps the per-entry cost
/// at 8 bytes (plus the 4-byte originator the table stores beside it),
/// which matters because the duplicate set is the largest table at
/// scale (one entry per `(originator, seq)` heard within the 30 s
/// hold). Lookups compare the raw 16-bit seq for equality only, so
/// where an originator's seq space wraps mid-hold (…65535, 0…) is
/// irrelevant; the wraparound proptest in `topology_store_properties`
/// pins this against a naive map.
fn pack_entry(seq: u16, until: SimTime, forwarded: bool) -> u64 {
    let micros = until.as_micros();
    debug_assert!(micros < 1 << 47, "duplicate hold beyond packable range");
    (micros << 17) | (u64::from(forwarded) << 16) | u64::from(seq)
}

/// The raw sequence number of a packed entry.
fn entry_seq(e: u64) -> u16 {
    (e & 0xFFFF) as u16
}

fn entry_forwarded(e: u64) -> bool {
    e & (1 << 16) != 0
}

fn entry_until(e: u64) -> SimTime {
    SimTime::from_micros(e >> 17)
}

/// Packed value of a free [`DuplicateSet`] slot. Only `(seq 0, until 0,
/// not forwarded)` packs to it, which `slot_entry` rules out.
const EMPTY: u64 = 0;

/// Packs a duplicate-table entry, flooring the hold horizon at 1 µs so
/// no entry packs to [`EMPTY`]. A horizon at time zero has expired at
/// every later sweep either way, and the protocol's is `now + 30 s`.
fn slot_entry(seq: u16, hold_until: SimTime, forwarded: bool) -> u64 {
    pack_entry(seq, hold_until.max(SimTime::from_micros(1)), forwarded)
}

/// Smallest non-zero table capacity, so tiny tables do not resize on
/// every insert.
const MIN_SLOTS: usize = 8;

/// Duplicate suppression for flooded messages (RFC 3626 §3.4).
///
/// One flat open-addressed table per node keyed by `(originator, seq)`,
/// in 12-byte slots split over two parallel arrays: the packed entry
/// (see `pack_entry`; 0 marks a free slot) and the originator id. A
/// deterministic Fibonacci hash picks the home slot by
/// multiply-shift range reduction, which works for any capacity, so the
/// capacity follows the live count instead of the next power of two:
/// every resize lands at load 7/10, inserts grow the table past load
/// 4/5, and sweeps shrink it under 3/5 (releasing it entirely once
/// empty), so the load stays within 0.6–0.8 for tables above the
/// minimum size. Collisions probe linearly and deletions shift the
/// rest of the probe chain back, so there are no tombstones; a lookup
/// is one probe chain, and the sweep is one pass over the slots.
/// Nothing depends on the order of hold horizons, and no seeded hasher
/// is involved, so runs replay byte-identically.
#[derive(Debug, Default, Clone)]
pub struct DuplicateSet {
    /// Packed `(seq, until, forwarded)` entries; [`EMPTY`] marks a free
    /// slot.
    entries: Vec<u64>,
    /// Originator of each occupied slot, parallel to `entries`.
    origins: Vec<u32>,
    /// Occupied slots.
    live: usize,
}

impl DuplicateSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Slot count that holds `live` entries at load 7/10.
    fn slots_for(live: usize) -> usize {
        (live * 10).div_ceil(7).max(MIN_SLOTS)
    }

    /// Home slot of `(originator, seq)`: the top 32 bits of a Fibonacci
    /// hash, scaled onto the capacity.
    fn home(&self, originator: u32, seq: u16) -> usize {
        let key = (u64::from(originator) << 16) | u64::from(seq);
        let hash = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        ((hash * self.entries.len() as u64) >> 32) as usize
    }

    fn next(&self, i: usize) -> usize {
        if i + 1 == self.entries.len() {
            0
        } else {
            i + 1
        }
    }

    /// The slot holding `(originator, seq)`, or the free slot that ends
    /// its probe chain. The table must have a free slot.
    fn probe(&self, originator: u32, seq: u16) -> Result<usize, usize> {
        let mut i = self.home(originator, seq);
        loop {
            let e = self.entries[i];
            if e == EMPTY {
                return Err(i);
            }
            if self.origins[i] == originator && entry_seq(e) == seq {
                return Ok(i);
            }
            i = self.next(i);
        }
    }

    /// Rehashes every entry, in slot order, into `slots` fresh slots.
    fn resize(&mut self, slots: usize) {
        let entries = std::mem::replace(&mut self.entries, vec![EMPTY; slots]);
        let origins = std::mem::replace(&mut self.origins, vec![0; slots]);
        for (e, o) in entries.into_iter().zip(origins) {
            if e != EMPTY {
                let Err(i) = self.probe(o, entry_seq(e)) else {
                    unreachable!("keys are unique");
                };
                self.entries[i] = e;
                self.origins[i] = o;
            }
        }
    }

    /// The slot of `(originator, seq)`, inserting a new entry that holds
    /// until `hold_until` when the key is unknown; `true` when it was
    /// inserted.
    fn insert(&mut self, originator: NodeId, seq: u16, hold_until: SimTime) -> (usize, bool) {
        let o = originator.0;
        if self.entries.is_empty() {
            self.resize(MIN_SLOTS);
        }
        let vacant = match self.probe(o, seq) {
            Ok(i) => return (i, false),
            Err(i) if (self.live + 1) * 5 <= self.entries.len() * 4 => i,
            Err(_) => {
                self.resize(Self::slots_for(self.live + 1));
                self.probe(o, seq)
                    .expect_err("the key was absent before the resize")
            }
        };
        self.entries[vacant] = slot_entry(seq, hold_until, false);
        self.origins[vacant] = o;
        self.live += 1;
        (vacant, true)
    }

    /// Empties slot `hole` by backward-shift deletion: walking on to the
    /// next free slot, each entry whose probe path passes the hole moves
    /// back into it and leaves its own slot as the new hole, so no probe
    /// chain is broken.
    fn remove_at(&mut self, mut hole: usize) {
        let cap = self.entries.len();
        let dist = |from: usize, to: usize| {
            if to >= from {
                to - from
            } else {
                to + cap - from
            }
        };
        let mut j = hole;
        loop {
            j = self.next(j);
            let e = self.entries[j];
            if e == EMPTY {
                break;
            }
            let home = self.home(self.origins[j], entry_seq(e));
            if dist(home, hole) < dist(home, j) {
                self.entries[hole] = e;
                self.origins[hole] = self.origins[j];
                hole = j;
            }
        }
        self.entries[hole] = EMPTY;
        self.live -= 1;
    }

    /// Records `(originator, seq)`; returns `true` if it was not already
    /// known (i.e. the message content should be processed). A known
    /// entry is refreshed to the new hold horizon and keeps its
    /// forwarded flag.
    pub fn fresh(&mut self, originator: NodeId, seq: u16, hold_until: SimTime) -> bool {
        let (i, inserted) = self.insert(originator, seq, hold_until);
        if !inserted {
            self.entries[i] = slot_entry(seq, hold_until, entry_forwarded(self.entries[i]));
        }
        inserted
    }

    /// Marks `(originator, seq)` as forwarded; returns `true` if it had
    /// not been forwarded before (i.e. this node should retransmit now).
    /// A known entry keeps its hold horizon; only [`Self::fresh`]
    /// refreshes it.
    pub fn mark_forwarded(&mut self, originator: NodeId, seq: u16, hold_until: SimTime) -> bool {
        let (i, _) = self.insert(originator, seq, hold_until);
        let first = !entry_forwarded(self.entries[i]);
        self.entries[i] |= 1 << 16;
        first
    }

    /// Discards expired entries in one pass over the slots, then shrinks
    /// the table if the survivors leave it under load 3/5. A deletion
    /// moves later entries of its probe chain back: into the slot being
    /// visited, which is checked again, into slots the pass has yet to
    /// visit, or — for a chain that wraps past the last slot — from
    /// visited slots into visited slots. So every entry is checked.
    pub fn sweep(&mut self, now: SimTime) {
        for i in 0..self.entries.len() {
            while self.entries[i] != EMPTY && entry_until(self.entries[i]) <= now {
                self.remove_at(i);
            }
        }
        if self.live == 0 {
            *self = Self::default();
        } else if self.live * 5 < self.entries.len() * 3 && self.entries.len() > MIN_SLOTS {
            self.resize(Self::slots_for(self.live));
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` when no live entries are held.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Resident footprint as `(entries, approximate heap bytes)`.
    pub fn footprint(&self) -> (usize, usize) {
        let bytes = self.entries.capacity() * std::mem::size_of::<u64>()
            + self.origins.capacity() * std::mem::size_of::<u32>();
        (self.live, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EtxParams, HysteresisParams};
    use crate::messages::{HelloNeighbor, LinkState};
    use crate::store::SharedLinkStore;
    use qolsr_sim::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    /// A topology base on a private store.
    fn topology() -> SharedTopology {
        SharedTopology::new(SharedLinkStore::new())
    }

    /// Integrates a TC at `now`, reusing the ANSN as the message
    /// sequence number the store keys its dedup on. Returns whether the
    /// message was applied and whether it named a changed link pair.
    fn tc_at(
        tb: &mut SharedTopology,
        originator: NodeId,
        ansn: u16,
        advertised: &[(NodeId, LinkQos)],
        now: SimTime,
        hold_until: SimTime,
    ) -> (bool, bool) {
        let mut changed = false;
        let applied = tb.process_tc(
            originator,
            ansn,
            ansn,
            advertised,
            now,
            hold_until,
            |_, _| changed = true,
        );
        (applied, changed)
    }

    /// Integrates a TC with no time of its own (nothing recorded is
    /// live-checked against it). Returns whether the message updated
    /// the base.
    fn process_tc(
        tb: &mut SharedTopology,
        originator: NodeId,
        ansn: u16,
        advertised: &[(NodeId, LinkQos)],
        hold_until: SimTime,
    ) -> bool {
        tc_at(tb, originator, ansn, advertised, SimTime::ZERO, hold_until).0
    }

    /// Integrates a HELLO under the default link sensing. Returns
    /// whether it changed the route inputs, the links it names included.
    fn process_hello(
        nt: &mut NeighborTables,
        me: NodeId,
        from: NodeId,
        qos: LinkQos,
        hello: &Hello,
        now: SimTime,
        hold_until: SimTime,
    ) -> bool {
        let sensing = SensingParams::default();
        let mut named = Vec::new();
        let changed = nt.process_hello(me, from, qos, hello, now, hold_until, sensing, |n| {
            named.push(n)
        });
        changed || !named.is_empty()
    }

    fn hello_listing(ids: &[(u32, LinkState)]) -> Hello {
        Hello {
            neighbors: ids
                .iter()
                .map(|&(id, state)| HelloNeighbor {
                    id: NodeId(id),
                    state,
                    qos: LinkQos::uniform(3),
                })
                .collect(),
        }
    }

    #[test]
    fn link_becomes_symmetric_when_heard_back() {
        let mut nt = NeighborTables::new();
        let me = NodeId(0);
        // First hello from 1 does not list us: asymmetric.
        process_hello(
            &mut nt,
            me,
            NodeId(1),
            LinkQos::uniform(5),
            &hello_listing(&[]),
            t(0),
            t(6),
        );
        assert!(nt.symmetric_neighbors(t(1)).is_empty());
        // Second hello lists us: symmetric.
        process_hello(
            &mut nt,
            me,
            NodeId(1),
            LinkQos::uniform(5),
            &hello_listing(&[(0, LinkState::Asymmetric)]),
            t(2),
            t(8),
        );
        assert_eq!(
            nt.symmetric_neighbors(t(3)),
            vec![(NodeId(1), LinkQos::uniform(5))]
        );
        assert!(nt.is_symmetric(NodeId(1), t(3)));
        assert!(!nt.is_symmetric(NodeId(2), t(3)));
    }

    #[test]
    fn links_expire() {
        let mut nt = NeighborTables::new();
        let me = NodeId(0);
        process_hello(
            &mut nt,
            me,
            NodeId(1),
            LinkQos::uniform(5),
            &hello_listing(&[(0, LinkState::Symmetric)]),
            t(0),
            t(6),
        );
        assert_eq!(nt.symmetric_neighbors(t(5)).len(), 1);
        assert!(nt.symmetric_neighbors(t(7)).is_empty());
        nt.sweep(t(7));
        assert!(nt.reported_links(t(7)).is_empty());
    }

    #[test]
    fn mpr_selector_tracking() {
        let mut nt = NeighborTables::new();
        let me = NodeId(0);
        process_hello(
            &mut nt,
            me,
            NodeId(2),
            LinkQos::uniform(5),
            &hello_listing(&[(0, LinkState::Mpr)]),
            t(0),
            t(6),
        );
        assert_eq!(nt.mpr_selectors(t(1)), vec![NodeId(2)]);
        assert!(nt.is_mpr_selector(NodeId(2), t(1)));
        assert!(nt.mpr_selectors(t(7)).is_empty());
        assert!(!nt.is_mpr_selector(NodeId(2), t(7)));
    }

    #[test]
    fn reported_links_feed_local_view() {
        let mut nt = NeighborTables::new();
        let me = NodeId(0);
        process_hello(
            &mut nt,
            me,
            NodeId(1),
            LinkQos::uniform(5),
            &hello_listing(&[(0, LinkState::Symmetric), (2, LinkState::Symmetric)]),
            t(0),
            t(6),
        );
        let view = nt.local_view(me, t(1));
        assert_eq!(view.one_hop().collect::<Vec<_>>(), vec![NodeId(1)]);
        assert_eq!(view.two_hop().collect::<Vec<_>>(), vec![NodeId(2)]);
    }

    #[test]
    fn asymmetric_reported_links_are_ignored() {
        let mut nt = NeighborTables::new();
        let me = NodeId(0);
        process_hello(
            &mut nt,
            me,
            NodeId(1),
            LinkQos::uniform(5),
            &hello_listing(&[(0, LinkState::Symmetric), (3, LinkState::Asymmetric)]),
            t(0),
            t(6),
        );
        let view = nt.local_view(me, t(1));
        assert_eq!(view.two_hop().count(), 0);
    }

    /// 2 s HELLO cadence with the given hysteresis/metric pair.
    fn sensing(hysteresis: LinkHysteresis, metric: LinkMetric) -> SensingParams {
        SensingParams {
            expected_interval: SimDuration::from_secs(2),
            hysteresis,
            metric,
        }
    }

    /// One mutual HELLO from `NodeId(1)` at `now` held for `hold_secs`,
    /// sensed. Returns whether it changed the route inputs, the links it
    /// names included.
    fn mutual_hello_held(
        nt: &mut NeighborTables,
        now: SimTime,
        hold_secs: u64,
        s: SensingParams,
    ) -> bool {
        let mut named = Vec::new();
        let changed = nt.process_hello(
            NodeId(0),
            NodeId(1),
            LinkQos::uniform(5),
            &hello_listing(&[(0, LinkState::Symmetric)]),
            now,
            now + SimDuration::from_secs(hold_secs),
            s,
            |n| named.push(n),
        );
        changed || !named.is_empty()
    }

    /// One mutual HELLO from `NodeId(1)` at `now`, sensed, RFC hold.
    fn mutual_hello(nt: &mut NeighborTables, now: SimTime, s: SensingParams) -> bool {
        mutual_hello_held(nt, now, 6, s)
    }

    #[test]
    fn hysteresis_delays_link_admission() {
        // RFC §14 defaults: scaling 0.5, accept 0.8. Quality climbs
        // 0.5 → 0.75 → 0.875 over perfect arrivals, so the link stays
        // pending (excluded from the symmetric set) until the third
        // mutual HELLO despite the handshake completing on the first.
        let s = sensing(
            LinkHysteresis::On(HysteresisParams::default()),
            LinkMetric::Measured,
        );
        let mut nt = NeighborTables::new();
        mutual_hello(&mut nt, t(0), s);
        assert!(!nt.is_symmetric(NodeId(1), t(1)), "q=0.5 < accept");
        mutual_hello(&mut nt, t(2), s);
        assert!(!nt.is_symmetric(NodeId(1), t(3)), "q=0.75 < accept");
        let changed = mutual_hello(&mut nt, t(4), s);
        assert!(nt.is_symmetric(NodeId(1), t(5)), "q=0.875 ≥ accept");
        assert!(changed, "pending→usable is a route-relevant change");
    }

    #[test]
    fn hysteresis_demotes_a_link_after_a_silence() {
        // Gentle gain so a long gap outweighs the single arrival that
        // reports it: accept after eight clean HELLOs, then a 32 s
        // silence (15 inferred losses) drives quality under the reject
        // threshold. A generous 60 s hold keeps the handshake timer
        // alive across the gap, so hysteresis — not expiry — is what
        // demotes the link.
        let s = sensing(
            LinkHysteresis::On(HysteresisParams {
                scaling_ppm: 200_000,
                accept_ppm: 800_000,
                reject_ppm: 300_000,
            }),
            LinkMetric::Measured,
        );
        let mut nt = NeighborTables::new();
        for k in 0..8 {
            mutual_hello_held(&mut nt, t(2 * k), 60, s);
        }
        assert!(nt.is_symmetric(NodeId(1), t(15)), "eight clean arrivals");
        let changed = mutual_hello_held(&mut nt, t(46), 60, s);
        assert!(
            nt.links[0].sym_until > t(47),
            "handshake still held — hysteresis is doing the gating"
        );
        assert!(
            !nt.is_symmetric(NodeId(1), t(47)),
            "quality collapsed below reject: pending again"
        );
        assert!(changed, "usable→pending is a route-relevant change");
    }

    #[test]
    fn hysteresis_off_never_pends() {
        let s = sensing(LinkHysteresis::Off, LinkMetric::Measured);
        let mut nt = NeighborTables::new();
        mutual_hello(&mut nt, t(0), s);
        assert!(nt.is_symmetric(NodeId(1), t(1)), "admitted immediately");
        mutual_hello(&mut nt, t(60), s); // arbitrarily long silence
        assert!(nt.is_symmetric(NodeId(1), t(61)));
        assert!(!nt.links[0].pending);
    }

    #[test]
    fn etx_reshapes_advertised_qos() {
        use qolsr_metrics::{Bandwidth, Delay, Energy};
        let s = sensing(LinkHysteresis::Off, LinkMetric::Etx(EtxParams::default()));
        let measured = LinkQos::with_energy(Bandwidth(100), Delay(10), Energy(7));
        let mut nt = NeighborTables::new();
        let hello = hello_listing(&[(0, LinkState::Symmetric)]);
        nt.process_hello(
            NodeId(0),
            NodeId(1),
            measured,
            &hello,
            t(0),
            t(6),
            s,
            |_| {},
        );
        // First arrival: q = 0.3, q² = 0.09 → bandwidth 100·0.09 = 9,
        // delay 10/0.09 = 111; energy untouched.
        let first = nt.symmetric_neighbors(t(1));
        assert_eq!(
            first,
            vec![(
                NodeId(1),
                LinkQos::with_energy(Bandwidth(9), Delay(111), Energy(7))
            )]
        );
        // Second clean arrival: q = 0.51, q² = 0.2601 → the estimate
        // improves and so does the effective QoS.
        nt.process_hello(
            NodeId(0),
            NodeId(1),
            measured,
            &hello,
            t(2),
            t(8),
            s,
            |_| {},
        );
        let second = nt.symmetric_neighbors(t(3));
        assert_eq!(
            second,
            vec![(
                NodeId(1),
                LinkQos::with_energy(Bandwidth(26), Delay(38), Energy(7))
            )]
        );
    }

    #[test]
    fn default_sensing_tracks_quality_without_behavior_change() {
        // Default sensing (Off / Measured) must advertise the measured
        // QoS verbatim and never pend a link — the quality estimate
        // ticks along unused.
        let mut nt = NeighborTables::new();
        process_hello(
            &mut nt,
            NodeId(0),
            NodeId(1),
            LinkQos::uniform(5),
            &hello_listing(&[(0, LinkState::Symmetric)]),
            t(0),
            t(6),
        );
        assert!(nt.is_symmetric(NodeId(1), t(1)));
        assert_eq!(nt.links[0].qos, LinkQos::uniform(5));
        assert!(!nt.links[0].pending);
        assert_eq!(nt.links[0].quality_ppm, 500_000, "EWMA still tracked");
    }

    #[test]
    fn process_hello_reports_route_relevant_changes_only() {
        let mut nt = NeighborTables::new();
        let me = NodeId(0);
        // Asymmetric link appears, even with reported links: not
        // route-relevant (an asymmetric reporter's links never enter
        // route inputs).
        assert!(!process_hello(
            &mut nt,
            me,
            NodeId(1),
            LinkQos::uniform(5),
            &hello_listing(&[(2, LinkState::Symmetric)]),
            t(0),
            t(6),
        ));
        // Link turns symmetric and reports a new link: change.
        assert!(process_hello(
            &mut nt,
            me,
            NodeId(1),
            LinkQos::uniform(5),
            &hello_listing(&[(0, LinkState::Symmetric), (2, LinkState::Symmetric)]),
            t(1),
            t(7),
        ));
        // Pure refresh of the same knowledge: no change.
        assert!(!process_hello(
            &mut nt,
            me,
            NodeId(1),
            LinkQos::uniform(5),
            &hello_listing(&[(0, LinkState::Symmetric), (2, LinkState::Symmetric)]),
            t(2),
            t(8),
        ));
        // The reported link expired in the meantime: its refresh is a
        // reappearance, hence a change.
        assert!(process_hello(
            &mut nt,
            me,
            NodeId(1),
            LinkQos::uniform(5),
            &hello_listing(&[(0, LinkState::Symmetric), (2, LinkState::Symmetric)]),
            t(9),
            t(15),
        ));
    }

    #[test]
    fn process_hello_reporting_names_entering_links_and_shortened_holds() {
        let mut nt = NeighborTables::new();
        let both = hello_listing(&[(0, LinkState::Symmetric), (2, LinkState::Symmetric)]);
        let me_only = hello_listing(&[(0, LinkState::Symmetric)]);
        let two_only = hello_listing(&[(2, LinkState::Symmetric)]);
        let mut hello = |hello: &Hello, now: u64, hold: u64| {
            let mut named = Vec::new();
            let changed = nt.process_hello(
                NodeId(0),
                NodeId(1),
                LinkQos::uniform(5),
                hello,
                t(now),
                t(hold),
                SensingParams::default(),
                |n| named.push(n.0),
            );
            (changed, named)
        };
        // 1 turns symmetric and reports 2.
        assert_eq!(hello(&both, 0, 10), (true, vec![2]));
        // A refresh with later holds.
        assert_eq!(hello(&both, 1, 11), (false, vec![]));
        // Both holds moved earlier, to t(8).
        assert_eq!(hello(&both, 2, 8), (true, vec![]));
        // The symmetric link alone, later.
        assert_eq!(hello(&me_only, 3, 20), (false, vec![]));
        // The reported link alone, earlier: t(8) → t(6).
        assert_eq!(hello(&two_only, 4, 6), (true, vec![]));
        // The reported link expired at t(6): it enters again.
        assert_eq!(hello(&two_only, 7, 12), (false, vec![2]));
    }

    #[test]
    fn scratch_accessors_match_allocating_accessors() {
        let mut nt = NeighborTables::new();
        let me = NodeId(0);
        for (from, listed) in [
            (
                1u32,
                vec![(0, LinkState::Symmetric), (2, LinkState::Symmetric)],
            ),
            (3, vec![(4, LinkState::Symmetric)]),
            (5, vec![(0, LinkState::Mpr), (1, LinkState::Symmetric)]),
        ] {
            process_hello(
                &mut nt,
                me,
                NodeId(from),
                LinkQos::uniform(u64::from(from)),
                &hello_listing(&listed),
                t(0),
                t(6),
            );
        }
        let now = t(2);
        let mut sym = Vec::new();
        let mut asym = Vec::new();
        let mut rep = Vec::new();
        let mut sel = Vec::new();
        let sym_exp = nt.symmetric_into(now, &mut sym);
        nt.asymmetric_into(now, &mut asym);
        let rep_exp = nt.reported_into(now, &mut rep);
        nt.selectors_into(now, &mut sel);
        assert_eq!(sym, nt.symmetric_neighbors(now));
        assert_eq!(
            asym,
            vec![(NodeId(3), LinkQos::uniform(3))],
            "3 never lists 0"
        );
        assert_eq!(rep, nt.reported_links(now));
        assert_eq!(sel, nt.mpr_selectors(now));
        assert_eq!(sym_exp, t(6), "symmetric links all expire at hold");
        assert_eq!(rep_exp, t(6));
        // After everything expires the minima go to far-future.
        assert_eq!(nt.symmetric_into(t(10), &mut sym), FAR_FUTURE);
        assert!(sym.is_empty());
    }

    #[test]
    fn seq_newer_wraps() {
        assert!(seq_newer(1, 0));
        assert!(!seq_newer(0, 1));
        assert!(seq_newer(0, u16::MAX)); // wraparound
        assert!(!seq_newer(u16::MAX, 0));
        assert!(!seq_newer(5, 5));
    }

    #[test]
    fn topology_base_ansn_ordering() {
        let mut tb = topology();
        let adv1 = [(NodeId(2), LinkQos::uniform(1))];
        let adv2 = [(NodeId(3), LinkQos::uniform(2))];
        assert!(process_tc(&mut tb, NodeId(1), 5, &adv1, t(10)));
        // Stale ANSN rejected.
        assert!(!process_tc(&mut tb, NodeId(1), 4, &adv2, t(10)));
        assert_eq!(tb.links(t(0)).len(), 1);
        // Newer ANSN replaces the whole set.
        assert!(process_tc(&mut tb, NodeId(1), 6, &adv2, t(10)));
        let links = tb.links(t(0));
        assert_eq!(links, vec![(NodeId(1), NodeId(3), LinkQos::uniform(2))]);
    }

    #[test]
    fn accepts_ansn_mirrors_process_tc() {
        let mut tb = topology();
        let now = t(0);
        assert!(
            tb.accepts_ansn(NodeId(1), 0, now),
            "unknown originator accepts"
        );
        process_tc(
            &mut tb,
            NodeId(1),
            5,
            &[(NodeId(2), LinkQos::uniform(1))],
            t(10),
        );
        assert!(
            tb.accepts_ansn(NodeId(1), 5, now),
            "equal ANSN is a refresh"
        );
        assert!(tb.accepts_ansn(NodeId(1), 6, now));
        assert!(!tb.accepts_ansn(NodeId(1), 4, now), "stale ANSN rejected");
        assert!(tb.accepts_ansn(NodeId(1), 5u16.wrapping_add(0x7FFF), now));
        assert!(!tb.accepts_ansn(NodeId(1), 5u16.wrapping_add(0x8001), now));
        // The query must agree with what process_tc actually does.
        assert!(!tc_at(&mut tb, NodeId(1), 4, &[], now, t(10)).0);
        assert!(tc_at(&mut tb, NodeId(1), 5, &[], now, t(10)).0);
    }

    /// The power-cycle regression: an originator that reboots resets
    /// its ANSN to 0. Once its old advertised set has fully expired, a
    /// TC with the reset ANSN must be accepted immediately — before
    /// this fix `accepts_ansn` rejected the reborn originator until
    /// 16-bit wraparound.
    #[test]
    fn expired_ansn_record_relearns_rebooted_originator() {
        let mut tb = topology();
        let adv = [(NodeId(2), LinkQos::uniform(1))];
        // Long-lived originator with a high ANSN, holding until t=10.
        assert!(process_tc(&mut tb, NodeId(1), 50, &adv, t(10)));
        // While the record lives, the reset ANSN is (correctly) stale.
        assert!(!tb.accepts_ansn(NodeId(1), 0, t(5)));
        assert!(!tc_at(&mut tb, NodeId(1), 0, &adv, t(5), t(20)).0);
        // Power cycle: silence past the hold time, tuples expire.
        tb.sweep(t(11));
        // The reborn originator announces ANSN 0 and is re-learned at
        // once.
        assert!(tb.accepts_ansn(NodeId(1), 0, t(12)));
        assert_eq!(
            tc_at(&mut tb, NodeId(1), 0, &adv, t(12), t(27)),
            (true, true)
        );
        assert_eq!(tb.links(t(13)).len(), 1);
        // Even without an intervening sweep, expiry alone suffices.
        let mut tb2 = topology();
        assert!(process_tc(&mut tb2, NodeId(1), 50, &adv, t(10)));
        assert!(tb2.accepts_ansn(NodeId(1), 0, t(11)));
        assert!(tc_at(&mut tb2, NodeId(1), 0, &adv, t(11), t(26)).0);
    }

    /// The churn-leak regression: sweeps must reclaim per-originator
    /// entries (set vecs, ANSN records, duplicate entries) once every
    /// tuple expired, not just the tuples inside them.
    #[test]
    fn sweep_reclaims_departed_originators() {
        let mut tb = topology();
        let mut ds = DuplicateSet::new();
        for orig in 0..100u32 {
            process_tc(
                &mut tb,
                NodeId(orig),
                1,
                &[(NodeId(orig + 1), LinkQos::uniform(1))],
                t(10),
            );
            ds.fresh(NodeId(orig), 1, t(10));
        }
        assert_eq!(tb.originators(), 100);
        assert_eq!(ds.len(), 100);
        tb.sweep(t(11));
        ds.sweep(t(11));
        assert_eq!(tb.originators(), 0, "departed originators reclaimed");
        assert_eq!(ds.len(), 0, "departed originators reclaimed");
        assert_eq!(tb.footprint().0, 0);
        assert_eq!(ds.footprint().0, 0);
    }

    /// A fresh 8-slot duplicate table, and the first `n` originators
    /// (at seq 0) whose home slot in it is `slot`.
    fn homed_at(slot: usize, n: usize) -> (DuplicateSet, Vec<u32>) {
        let ds = DuplicateSet {
            entries: vec![EMPTY; MIN_SLOTS],
            origins: vec![0; MIN_SLOTS],
            live: 0,
        };
        let keys = (0u32..)
            .filter(|&o| ds.home(o, 0) == slot)
            .take(n)
            .collect();
        (ds, keys)
    }

    fn slot_of(ds: &DuplicateSet, o: u32) -> Option<usize> {
        ds.probe(o, 0).ok()
    }

    /// Backward-shift deletion inside a probe chain that wraps past the
    /// last slot: entries whose probe path passes the hole move back
    /// across the wrap, while entries homed after the hole stay put —
    /// one at its home, one displaced past it.
    #[test]
    fn backward_shift_delete_wraps_the_table_end() {
        let (mut ds, wrap) = homed_at(7, 3);
        let (_, zero) = homed_at(0, 1);
        let (_, three) = homed_at(3, 2);
        let keys = [wrap[0], wrap[1], wrap[2], zero[0], three[0], three[1]];
        for o in keys {
            assert!(ds.fresh(NodeId(o), 0, t(30)));
        }
        assert_eq!(ds.entries.len(), MIN_SLOTS, "no resize");
        let at = |ds: &DuplicateSet| keys.map(|o| slot_of(ds, o));
        assert_eq!(at(&ds), [7, 0, 1, 2, 3, 4].map(Some));
        // Delete the entry just past the wrap: the next two shift back,
        // and the chain ends at the hole they leave in slot 2; the
        // entries homed at slot 3 stay.
        ds.remove_at(0);
        assert_eq!(at(&ds), [Some(7), None, Some(0), Some(1), Some(3), Some(4)]);
        assert_eq!(ds.entries[2], EMPTY);
        // Delete the entry in the last slot: two entries shift back
        // across the wrap.
        ds.remove_at(7);
        assert_eq!(at(&ds), [None, None, Some(7), Some(0), Some(3), Some(4)]);
        assert_eq!(ds.len(), 4);
        for &o in &keys[2..] {
            assert!(!ds.fresh(NodeId(o), 0, t(30)), "originator {o} known");
        }
        assert_eq!(ds.len(), 4);
    }

    /// A sweep over a table whose slot 0 sits in the middle of a probe
    /// chain (slots 6, 7, 0, 1, 2), with expired entries on both sides
    /// of the wrap: every survivor stays reachable from its home.
    #[test]
    fn sweep_handles_a_chain_across_slot_zero() {
        let (mut ds, six) = homed_at(6, 4);
        let (_, zero) = homed_at(0, 1);
        // Holds: the entries in slots 6 and 0 expire at t(4).
        let keys = [
            (six[0], 4),
            (six[1], 30),
            (six[2], 4),
            (six[3], 30),
            (zero[0], 30),
        ];
        for (o, hold) in keys {
            assert!(ds.fresh(NodeId(o), 0, t(hold)));
        }
        let at = |ds: &DuplicateSet| keys.map(|(o, _)| slot_of(ds, o));
        assert_eq!(at(&ds), [Some(6), Some(7), Some(0), Some(1), Some(2)]);
        ds.sweep(t(4));
        assert_eq!(at(&ds), [None, Some(6), None, Some(7), Some(0)]);
        assert_eq!(ds.len(), 3);
        for (o, hold) in keys {
            assert_eq!(ds.fresh(NodeId(o), 0, t(30)), hold == 4, "originator {o}");
        }
    }

    /// A zero hold horizon must not pack to the free-slot marker.
    #[test]
    fn zero_hold_entry_is_not_a_free_slot() {
        let mut ds = DuplicateSet::new();
        assert!(ds.fresh(NodeId(0), 0, SimTime::ZERO));
        assert!(!ds.fresh(NodeId(0), 0, SimTime::ZERO));
        assert_eq!(ds.len(), 1);
        ds.sweep(t(1));
        assert!(ds.is_empty());
    }

    #[test]
    fn topology_base_expiry() {
        let mut tb = topology();
        process_tc(
            &mut tb,
            NodeId(1),
            1,
            &[(NodeId(2), LinkQos::uniform(1))],
            t(5),
        );
        assert_eq!(tb.links(t(4)).len(), 1);
        assert!(tb.links(t(6)).is_empty());
        tb.sweep(t(6));
        assert!(tb.is_empty());
    }

    #[test]
    fn tracked_tc_distinguishes_refresh_from_change() {
        let mut tb = topology();
        let adv = [
            (NodeId(2), LinkQos::uniform(1)),
            (NodeId(3), LinkQos::uniform(2)),
        ];
        let changed = (true, true);
        assert_eq!(tc_at(&mut tb, NodeId(1), 1, &adv, t(0), t(10)), changed);
        // Same pairs, refreshed lifetimes and different QoS: applied but
        // not a link change.
        let adv_q = [
            (NodeId(2), LinkQos::uniform(9)),
            (NodeId(3), LinkQos::uniform(9)),
        ];
        let refreshed = (true, false);
        assert_eq!(tc_at(&mut tb, NodeId(1), 2, &adv_q, t(1), t(11)), refreshed);
        // Dropped member: change.
        assert_eq!(
            tc_at(&mut tb, NodeId(1), 3, &[adv[0]], t(2), t(12)),
            changed
        );
        // Stale: neither.
        assert_eq!(
            tc_at(&mut tb, NodeId(1), 1, &adv, t(3), t(13)),
            (false, false)
        );
        // An unsorted list with duplicate ids keeps the last occurrence.
        let dup = [
            (NodeId(5), LinkQos::uniform(1)),
            (NodeId(4), LinkQos::uniform(1)),
            (NodeId(5), LinkQos::uniform(7)),
        ];
        assert_eq!(tc_at(&mut tb, NodeId(2), 1, &dup, t(0), t(10)), changed);
        let links = tb.links(t(0));
        assert!(links.contains(&(NodeId(2), NodeId(5), LinkQos::uniform(7))));
        assert_eq!(links.iter().filter(|l| l.0 == NodeId(2)).count(), 2);
    }

    #[test]
    fn links_into_reports_min_expiry() {
        let mut tb = topology();
        process_tc(
            &mut tb,
            NodeId(1),
            1,
            &[(NodeId(2), LinkQos::uniform(1))],
            t(5),
        );
        process_tc(
            &mut tb,
            NodeId(3),
            1,
            &[(NodeId(4), LinkQos::uniform(1))],
            t(9),
        );
        let mut out = Vec::new();
        assert_eq!(tb.links_into(t(0), &mut out), t(5));
        assert_eq!(out.len(), 2);
        assert_eq!(tb.links_into(t(6), &mut out), t(9));
        assert_eq!(out.len(), 1);
        assert_eq!(tb.links_into(t(10), &mut out), FAR_FUTURE);
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_set_freshness_and_forwarding() {
        let mut ds = DuplicateSet::new();
        assert!(ds.fresh(NodeId(1), 10, t(30)));
        assert!(!ds.fresh(NodeId(1), 10, t(30)));
        assert!(ds.fresh(NodeId(1), 11, t(30)));
        assert!(ds.mark_forwarded(NodeId(1), 10, t(30)));
        assert!(!ds.mark_forwarded(NodeId(1), 10, t(30)));
        ds.sweep(t(31));
        assert!(ds.fresh(NodeId(1), 10, t(60)));
    }

    /// A refresh of a known duplicate must extend the lifetime while
    /// preserving the forwarded flag — regressions here would reflood.
    #[test]
    fn duplicate_refresh_preserves_forwarded_flag() {
        let mut ds = DuplicateSet::new();
        assert!(ds.fresh(NodeId(1), 10, t(30)));
        assert!(ds.mark_forwarded(NodeId(1), 10, t(30)));
        // A re-heard copy refreshes the hold...
        assert!(!ds.fresh(NodeId(1), 10, t(45)));
        // ...but the entry still remembers it was forwarded.
        assert!(!ds.mark_forwarded(NodeId(1), 10, t(45)));
        // And the refreshed lifetime took effect.
        ds.sweep(t(40));
        assert!(!ds.fresh(NodeId(1), 10, t(50)), "entry survived to t=45");
    }

    #[test]
    fn packed_entry_roundtrip() {
        for (seq, until, fwd) in [
            (0u16, t(0), false),
            (u16::MAX, t(30), true),
            (1, SimTime::from_micros((1 << 47) - 1), false),
            (0x8000, t(12345), true),
        ] {
            let e = pack_entry(seq, until, fwd);
            assert_eq!(entry_seq(e), seq);
            assert_eq!(entry_until(e), until);
            assert_eq!(entry_forwarded(e), fwd);
        }
    }

    /// Wrapped sequence spaces stay exact: entries on both sides of the
    /// u16 wrap coexist and resolve independently.
    #[test]
    fn duplicate_set_survives_seq_wraparound() {
        let mut ds = DuplicateSet::new();
        for seq in [65534u16, 65535, 0, 1] {
            assert!(ds.fresh(NodeId(1), seq, t(30)), "seq {seq} fresh");
        }
        for seq in [65534u16, 65535, 0, 1] {
            assert!(!ds.fresh(NodeId(1), seq, t(30)), "seq {seq} known");
        }
        assert!(ds.mark_forwarded(NodeId(1), 65535, t(30)));
        assert!(ds.mark_forwarded(NodeId(1), 0, t(30)));
        assert!(!ds.mark_forwarded(NodeId(1), 65535, t(30)));
        assert_eq!(ds.footprint().0, 4);
    }
}
