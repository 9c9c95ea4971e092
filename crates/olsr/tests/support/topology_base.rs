//! The per-node topology tables: every node stores every originator's
//! advertised set privately — `O(n²)` tuples network-wide. They were the
//! protocol's topology base until the network-shared interned store
//! ([`qolsr_proto::store::SharedTopology`]) replaced them, and they live
//! on here as the test-only oracle the store is pinned against: the
//! simplest formulation of RFC 3626 §9.5 topology-set semantics.
//!
//! Shared by the crate's test suites through `mod support;`.

use std::collections::BTreeSet;

use qolsr_graph::NodeId;
use qolsr_metrics::LinkQos;
use qolsr_proto::tables::{seq_newer, TopologyLinks};
use qolsr_sim::SimTime;

/// "Never expires": the min-expiry of an empty scan.
const FAR_FUTURE: SimTime = SimTime::from_micros(u64::MAX);

/// One advertised link inside an originator's topology set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TopoLink {
    adv: NodeId,
    qos: LinkQos,
    until: SimTime,
}

/// Topology knowledge learned from flooded TCs.
///
/// Stored as one id-sorted advertised set per originator (outer vec
/// ascending by originator, inner ascending by advertised id): a fresh
/// TC replaces its originator's set in place, reusing the inner buffer,
/// without disturbing the rest of the base.
#[derive(Debug, Default, Clone)]
pub struct TopologyBase {
    /// Per-originator advertised sets, ascending by originator.
    sets: Vec<(NodeId, Vec<TopoLink>)>,
    /// Latest ANSN seen per originator with its validity horizon
    /// (the hold time of the TC that set it — the same instant the
    /// whole advertised set expires), ascending by originator.
    ansn: Vec<(NodeId, u16, SimTime)>,
    /// Stored tuples across all sets (including expired-but-unswept).
    count: usize,
    /// Scratch for sorting/deduplicating an incoming advertised list.
    scratch: Vec<(NodeId, LinkQos)>,
}

impl TopologyBase {
    /// Creates an empty base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` when a TC from `originator` carrying `ansn` would
    /// be accepted at `now` (RFC 3626 §9.5: not older than the recorded
    /// ANSN) — the non-mutating query the peek-decode fast path asks
    /// before parsing a TC body. Equal ANSNs are accepted: the refresh
    /// carries renewed lifetimes. An *expired* ANSN record is treated
    /// as absent: once an originator's advertised set has fully aged
    /// out, nothing it announced is held against it, so a rebooted
    /// originator whose ANSN reset to 0 is re-learned immediately
    /// instead of being rejected until 16-bit wraparound.
    pub fn accepts_ansn(&self, originator: NodeId, ansn: u16, now: SimTime) -> bool {
        match self.ansn.binary_search_by_key(&originator, |a| a.0) {
            Ok(i) => self.ansn[i].2 <= now || !seq_newer(self.ansn[i].1, ansn),
            Err(_) => true,
        }
    }

    /// Integrates a TC from `originator` (RFC 3626 §9.5): discarded if
    /// older than the live ANSN record; otherwise it replaces the
    /// originator's advertised set. Returns whether the TC was applied.
    ///
    /// `changed(id, inserted)` is called for every id in the symmetric
    /// difference of the originator's old live (at `now`) advertised ids
    /// and the new ones, ascending: `inserted` says it is a new one. When
    /// the TC moves the old live ids' hold earlier, the ids in both are
    /// reported as well, as removed.
    pub fn process_tc(
        &mut self,
        originator: NodeId,
        ansn: u16,
        advertised: &[(NodeId, LinkQos)],
        now: SimTime,
        hold_until: SimTime,
        mut changed: impl FnMut(NodeId, bool),
    ) -> bool {
        match self.ansn.binary_search_by_key(&originator, |a| a.0) {
            Ok(i) => {
                // A live record enforces the ordering; an expired one is
                // as if the originator was never heard (see
                // [`TopologyBase::accepts_ansn`]).
                if self.ansn[i].2 > now && seq_newer(self.ansn[i].1, ansn) {
                    return false;
                }
                self.ansn[i].1 = ansn;
                self.ansn[i].2 = hold_until;
            }
            Err(i) => self.ansn.insert(i, (originator, ansn, hold_until)),
        }
        // Sort the incoming list by advertised id, keeping the *last*
        // occurrence of duplicate ids (map-insert semantics).
        self.scratch.clear();
        self.scratch.extend_from_slice(advertised);
        self.scratch.sort_by_key(|&(n, _)| n);
        self.scratch.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                *earlier = *later;
                true
            } else {
                false
            }
        });

        let set = match self.sets.binary_search_by_key(&originator, |s| s.0) {
            Ok(i) => &mut self.sets[i].1,
            Err(i) => {
                self.sets.insert(i, (originator, Vec::new()));
                &mut self.sets[i].1
            }
        };
        let old_live: BTreeSet<NodeId> = set
            .iter()
            .filter(|l| l.until > now)
            .map(|l| l.adv)
            .collect();
        let shortened = set.iter().any(|l| l.until > now && hold_until < l.until);
        let new_ids: BTreeSet<NodeId> = self.scratch.iter().map(|&(n, _)| n).collect();
        for &id in old_live.union(&new_ids) {
            let inserted = !old_live.contains(&id);
            if inserted || shortened || !new_ids.contains(&id) {
                changed(id, inserted);
            }
        }
        self.count -= set.len();
        self.count += self.scratch.len();
        set.clear();
        set.extend(self.scratch.iter().map(|&(adv, qos)| TopoLink {
            adv,
            qos,
            until: hold_until,
        }));
        true
    }

    /// Discards expired tuples — and, once an originator's every tuple
    /// and its ANSN record have expired, the originator's entries
    /// themselves. Without that second step departed originators leak
    /// empty set vecs and ANSN records forever under churn.
    pub fn sweep(&mut self, now: SimTime) {
        let count = &mut self.count;
        self.sets.retain_mut(|(_, set)| {
            let before = set.len();
            set.retain(|l| l.until > now);
            *count -= before - set.len();
            !set.is_empty()
        });
        self.ansn.retain(|&(_, _, until)| until > now);
    }

    /// Drops all stored state, keeping allocations.
    pub fn clear(&mut self) {
        self.sets.clear();
        self.ansn.clear();
        self.count = 0;
    }

    /// Shared scan behind the advertised-link accessors: calls
    /// `visit(originator, link)` for every live tuple, ascending by
    /// `(originator, advertised)`, and returns the earliest expiry among
    /// them (far-future when empty).
    fn live_scan(&self, now: SimTime, mut visit: impl FnMut(NodeId, &TopoLink)) -> SimTime {
        let mut min_expiry = FAR_FUTURE;
        for (orig, set) in &self.sets {
            for l in set {
                if l.until > now {
                    visit(*orig, l);
                    min_expiry = min_expiry.min(l.until);
                }
            }
        }
        min_expiry
    }

    /// Fills `out` with all live advertised links as
    /// `(originator, advertised, qos)`, ascending by
    /// `(originator, advertised)`; returns the earliest expiry among
    /// them (far-future when empty).
    pub fn links_into(&self, now: SimTime, out: &mut Vec<(NodeId, NodeId, LinkQos)>) -> SimTime {
        out.clear();
        self.live_scan(now, |orig, l| out.push((orig, l.adv, l.qos)))
    }

    /// Key-only visitor over the live links: calls
    /// `visit(originator, advertised)` in the order of
    /// [`TopologyBase::links_into`] and returns the same min-expiry.
    pub fn for_each_link_key(
        &self,
        now: SimTime,
        mut visit: impl FnMut(NodeId, NodeId),
    ) -> SimTime {
        self.live_scan(now, |orig, l| visit(orig, l.adv))
    }

    /// All live advertised links as `(originator, advertised, qos)`.
    pub fn links(&self, now: SimTime) -> Vec<(NodeId, NodeId, LinkQos)> {
        let mut out = Vec::new();
        self.links_into(now, &mut out);
        out
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Returns `true` when no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Originator entries currently held (sets plus ANSN records —
    /// the quantity the churn-GC bound is asserted on).
    pub fn originators(&self) -> usize {
        self.sets.len().max(self.ansn.len())
    }

    /// Resident footprint as `(stored tuples, approximate heap bytes)`.
    pub fn footprint(&self) -> (usize, usize) {
        let bytes = self.sets.capacity() * std::mem::size_of::<(NodeId, Vec<TopoLink>)>()
            + self
                .sets
                .iter()
                .map(|(_, s)| s.capacity() * std::mem::size_of::<TopoLink>())
                .sum::<usize>()
            + self.ansn.capacity() * std::mem::size_of::<(NodeId, u16, SimTime)>()
            + self.scratch.capacity() * std::mem::size_of::<(NodeId, LinkQos)>();
        (self.count, bytes)
    }
}

impl TopologyLinks for TopologyBase {
    /// The per-node tables number nothing up front, so a route
    /// computation over them numbers every id past the seed.
    fn seeded(&self) -> usize {
        0
    }

    fn for_each_link_key(&self, now: SimTime, visit: impl FnMut(NodeId, NodeId)) -> SimTime {
        TopologyBase::for_each_link_key(self, now, visit)
    }
}
