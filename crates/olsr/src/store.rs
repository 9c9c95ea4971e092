//! The shared interned link-state store: each originator's advertised
//! link set is represented **once per network**, delta-compressed, and
//! shared copy-on-write across every node that heard it.
//!
//! # Why
//!
//! Under the per-node [`TopologyBase`] every node stores every
//! originator's advertised set privately — `O(n²)` tuples network-wide,
//! the memory wall that made the n = 4000 live sweep cost gigabytes of
//! RSS. But the sets are *identical by construction*: a TC emission is
//! flooded verbatim (forwarding patches only TTL/hop bytes), so all
//! receivers of `(originator, message seq)` decode the same advertised
//! list. The store exploits exactly that: one refcounted, packed copy
//! per emission, with nodes keeping only a per-originator
//! `(ansn, expiry, set reference)` overlay — see [`SharedTopology`].
//!
//! # Packing
//!
//! A slot's payload is the advertised list sorted ascending by id,
//! delta-compressed into two blocks: first the LEB128 varints of every
//! id delta, then the varints of every link's three QoS components.
//! Typical advertised sets (a handful of nearby ids with small QoS
//! values) pack into a few bytes per link instead of the 40-byte
//! in-memory tuple. The id block comes first so that the route
//! computation, which reads only the ids, stops at its end.
//!
//! # Correctness under sequence reuse
//!
//! Dedup is keyed by `(originator, seq)`, but the store never *trusts*
//! the key: an acquire that hits the key compares the packed payloads
//! and allocates a fresh slot on mismatch (repointing the key), so a
//! wrapped or rebooted sequence space degrades to plain refcounting,
//! never to corruption. The differential suites drive exactly this
//! with adversarial histories.
//!
//! [`TopologyBase`]: crate::tables::TopologyBase

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use qolsr_graph::NodeId;
use qolsr_metrics::{Bandwidth, Delay, Energy, LinkQos};
use qolsr_sim::SimTime;

use crate::intern::InternTable;
use crate::tables::{seq_newer, TcUpdate, FAR_FUTURE};

/// Appends `v` as an LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint at `*pos`, advancing it.
fn get_varint(buf: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let byte = buf[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Encodes a sorted advertised list into `out` (cleared first): the id
/// block, then the QoS block (see the module docs).
fn encode_links(links: &[(NodeId, LinkQos)], out: &mut Vec<u8>) {
    out.clear();
    let mut prev = 0u32;
    for &(adv, _) in links {
        debug_assert!(adv.0 >= prev, "advertised list must be sorted");
        put_varint(out, u64::from(adv.0 - prev));
        prev = adv.0;
    }
    for &(_, qos) in links {
        put_varint(out, qos.bandwidth.value());
        put_varint(out, qos.delay.value());
        put_varint(out, qos.energy.value());
    }
}

/// A refcounted handle to one interned advertised set. Obtained from
/// [`LinkSetStore::acquire`]; every copy handed out must eventually go
/// back through [`LinkSetStore::release`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetRef(u32);

/// One interned advertised set.
#[derive(Debug, Default)]
struct Slot {
    /// Dedup key: the emission this payload came from.
    orig: NodeId,
    seq: u16,
    /// Live references (0 = free).
    refs: u32,
    /// Advertised links in the payload.
    links: u32,
    /// Delta-varint packed payload (see module docs).
    packed: Vec<u8>,
}

/// Resident-memory and dedup statistics of a [`LinkSetStore`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreGauges {
    /// Slots currently referenced.
    pub live_slots: u64,
    /// Advertised links across live slots (each counted once, however
    /// many nodes reference the set).
    pub resident_links: u64,
    /// Packed payload bytes across live slots plus index/intern
    /// overhead — the store's approximate heap footprint.
    pub resident_bytes: u64,
    /// Acquires served by an existing slot (the sharing the store
    /// exists for).
    pub dedup_hits: u64,
    /// Acquires that allocated a slot.
    pub slots_interned: u64,
}

/// The network-wide interned set store. Usually owned behind a
/// [`SharedLinkStore`] handle; all nodes of one network feed and read
/// the same instance.
#[derive(Debug, Default)]
pub struct LinkSetStore {
    /// Originator → dense index for the per-originator dedup lists.
    intern: InternTable,
    /// Dense originator → `(seq, slot)` pairs, ascending by raw seq.
    /// Exact-match lookups only, so raw-u16 order is wraparound-safe.
    by_origin: Vec<Vec<(u16, u32)>>,
    slots: Vec<Slot>,
    /// Indices of free slots (packed buffers retained for reuse).
    free: Vec<u32>,
    /// Payload bytes across live slots.
    payload_bytes: usize,
    /// Advertised links across live slots.
    resident_links: usize,
    dedup_hits: u64,
    slots_interned: u64,
    /// Scratch encoding buffer for acquire-time content comparison.
    encode_buf: Vec<u8>,
}

impl LinkSetStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns the advertised set of emission `(orig, seq)` and returns
    /// a reference to it. `links` must be sorted ascending by id (the
    /// duplicate-free form the topology bases already produce).
    ///
    /// If the emission is already interned with identical content, its
    /// refcount is bumped; a key hit with *different* content (wrapped
    /// sequence space) allocates a fresh slot and repoints the key.
    pub fn acquire(&mut self, orig: NodeId, seq: u16, links: &[(NodeId, LinkQos)]) -> SetRef {
        let mut packed = std::mem::take(&mut self.encode_buf);
        encode_links(links, &mut packed);
        let dense = self.intern.intern(orig) as usize;
        if self.by_origin.len() <= dense {
            self.by_origin.resize_with(dense + 1, Vec::new);
        }
        let list = &mut self.by_origin[dense];
        match list.binary_search_by_key(&seq, |e| e.0) {
            Ok(i) => {
                let slot = list[i].1;
                if self.slots[slot as usize].packed == packed {
                    self.slots[slot as usize].refs += 1;
                    self.dedup_hits += 1;
                    self.encode_buf = packed;
                    SetRef(slot)
                } else {
                    // Same (orig, seq), different content: the sequence
                    // space wrapped while the old emission is still
                    // referenced. Repoint the key at a fresh slot; the
                    // old one stays alive under its references.
                    let fresh = self.alloc(orig, seq, links.len() as u32, packed);
                    self.by_origin[dense][i].1 = fresh.0;
                    fresh
                }
            }
            Err(i) => {
                let fresh = self.alloc(orig, seq, links.len() as u32, packed);
                self.by_origin[dense].insert(i, (seq, fresh.0));
                fresh
            }
        }
    }

    fn alloc(&mut self, orig: NodeId, seq: u16, links: u32, packed: Vec<u8>) -> SetRef {
        self.payload_bytes += packed.len();
        self.resident_links += links as usize;
        self.slots_interned += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                // Reclaim the retained buffer for the encode scratch.
                self.encode_buf = std::mem::replace(&mut s.packed, packed);
                self.encode_buf.clear();
                s.orig = orig;
                s.seq = seq;
                s.refs = 1;
                s.links = links;
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Slot {
                    orig,
                    seq,
                    refs: 1,
                    links,
                    packed,
                });
                slot
            }
        };
        SetRef(slot)
    }

    /// Adds a reference to an already-acquired set.
    pub fn retain(&mut self, r: SetRef) {
        let s = &mut self.slots[r.0 as usize];
        debug_assert!(s.refs > 0, "retain of a freed slot");
        s.refs += 1;
    }

    /// Drops a reference; the slot is reclaimed when the last holder
    /// releases (its packed buffer is retained for reuse).
    pub fn release(&mut self, r: SetRef) {
        let slot = r.0 as usize;
        let s = &mut self.slots[slot];
        debug_assert!(s.refs > 0, "release of a freed slot");
        s.refs -= 1;
        if s.refs > 0 {
            return;
        }
        self.payload_bytes -= s.packed.len();
        self.resident_links -= s.links as usize;
        s.packed.clear();
        let (orig, seq) = (s.orig, s.seq);
        // Unregister the dedup key — unless a wrapped sequence space
        // already repointed it at a newer slot.
        if let Some(dense) = self.intern.get(orig) {
            let list = &mut self.by_origin[dense as usize];
            if let Ok(i) = list.binary_search_by_key(&seq, |e| e.0) {
                if list[i].1 == r.0 {
                    list.remove(i);
                }
            }
        }
        self.free.push(r.0);
    }

    /// Advertised links in the referenced set.
    pub fn link_count(&self, r: SetRef) -> usize {
        self.slots[r.0 as usize].links as usize
    }

    /// Appends the referenced set as `(originator, advertised, qos)`
    /// triples, ascending by advertised id.
    pub fn links_append(&self, r: SetRef, orig: NodeId, out: &mut Vec<(NodeId, NodeId, LinkQos)>) {
        let buf = &self.slots[r.0 as usize].packed;
        // The QoS block starts where the id block ends.
        let mut pos = 0;
        for _ in 0..self.link_count(r) {
            get_varint(buf, &mut pos);
        }
        for adv in self.ids(r) {
            let qos = LinkQos {
                bandwidth: Bandwidth(get_varint(buf, &mut pos)),
                delay: Delay(get_varint(buf, &mut pos)),
                energy: Energy(get_varint(buf, &mut pos)),
            };
            out.push((orig, adv, qos));
        }
        debug_assert_eq!(pos, buf.len(), "payload fully consumed");
    }

    /// Appends the advertised ids of the referenced set, ascending.
    pub fn ids_append(&self, r: SetRef, out: &mut Vec<NodeId>) {
        // One push at a time, not `extend`: reserving the exact length
        // up front would grow `out` to other capacities, and callers'
        // footprints report those.
        for id in self.ids(r) {
            out.push(id);
        }
    }

    /// The advertised ids of the referenced set, ascending: a walk over
    /// the id block that never reads the QoS block.
    pub fn ids(&self, r: SetRef) -> impl Iterator<Item = NodeId> + '_ {
        let s = &self.slots[r.0 as usize];
        debug_assert!(s.refs > 0, "decode of a freed slot");
        let mut pos = 0;
        let mut prev = 0u32;
        (0..s.links).map(move |_| {
            prev += get_varint(&s.packed, &mut pos) as u32;
            NodeId(prev)
        })
    }

    /// Current resident-memory and dedup statistics.
    pub fn gauges(&self) -> StoreGauges {
        let overhead = self.intern.approx_bytes()
            + self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + self
                .by_origin
                .iter()
                .map(|l| l.capacity() * std::mem::size_of::<(u16, u32)>())
                .sum::<usize>()
            + self.by_origin.capacity() * std::mem::size_of::<Vec<(u16, u32)>>();
        StoreGauges {
            live_slots: (self.slots.len() - self.free.len()) as u64,
            resident_links: self.resident_links as u64,
            resident_bytes: (self.payload_bytes + overhead) as u64,
            dedup_hits: self.dedup_hits,
            slots_interned: self.slots_interned,
        }
    }
}

/// A cloneable handle to a network-wide [`LinkSetStore`].
///
/// The mutex is uncontended in the single-threaded engine (the same
/// pattern as the node's route-cache lock); it exists so `&OlsrNode`
/// accessors stay shareable across threads.
#[derive(Debug, Clone, Default)]
pub struct SharedLinkStore(Arc<Mutex<LinkSetStore>>);

impl SharedLinkStore {
    /// Creates a handle to a fresh empty store.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, LinkSetStore> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current resident-memory and dedup statistics.
    pub fn gauges(&self) -> StoreGauges {
        self.lock().gauges()
    }
}

/// One node's per-originator overlay over the shared store.
#[derive(Debug, Clone, Copy)]
struct Overlay {
    orig: NodeId,
    /// Latest accepted ANSN of `orig`.
    ansn: u16,
    /// Validity horizon of the whole set *and* the ANSN record — one
    /// instant, because a TC stamps every tuple it carries with the
    /// same hold time (the invariant the overlay representation rests
    /// on).
    until: SimTime,
    set: SetRef,
}

/// Store-backed topology base: the node keeps only `(ansn, expiry,
/// set reference)` overlays, one per originator, while the advertised
/// sets themselves live deduplicated in the network's
/// [`SharedLinkStore`].
///
/// Semantics are pinned ≡ [`TopologyBase`] — the surviving per-node
/// reference formulation — by differential proptests and full-network
/// replays (`tests/store_differential.rs`); every accessor produces the
/// same content in the same order with the same min-expiry horizons.
///
/// [`TopologyBase`]: crate::tables::TopologyBase
#[derive(Debug)]
pub struct SharedTopology {
    store: SharedLinkStore,
    /// Overlays ascending by originator.
    overlays: Vec<Overlay>,
    /// Stored links across all overlays (including expired-but-unswept),
    /// mirroring [`TopologyBase::len`].
    ///
    /// [`TopologyBase::len`]: crate::tables::TopologyBase::len
    count: usize,
    /// Scratch for sorting/deduplicating an incoming advertised list.
    scratch: Vec<(NodeId, LinkQos)>,
    /// Scratch for decoding the previous set during change tracking.
    old_ids: Vec<NodeId>,
}

impl SharedTopology {
    /// Creates an empty base feeding (and fed by) `store`.
    pub fn new(store: SharedLinkStore) -> Self {
        Self {
            store,
            overlays: Vec::new(),
            count: 0,
            scratch: Vec::new(),
            old_ids: Vec::new(),
        }
    }

    /// The store handle this base shares sets through.
    pub fn store(&self) -> &SharedLinkStore {
        &self.store
    }

    /// Returns `true` when a TC from `originator` carrying `ansn` would
    /// be accepted at `now` — the RFC 3626 §9.5 check, with an expired
    /// record treated as absent (a silent-past-hold originator is
    /// re-learned from any ANSN, e.g. after a power cycle reset it).
    pub fn accepts_ansn(&self, originator: NodeId, ansn: u16, now: SimTime) -> bool {
        match self.overlays.binary_search_by_key(&originator, |o| o.orig) {
            Ok(i) => self.overlays[i].until <= now || !seq_newer(self.overlays[i].ansn, ansn),
            Err(_) => true,
        }
    }

    /// Integrates the TC of emission `(originator, seq)` carrying
    /// `ansn` and `advertised`, mirroring
    /// [`TopologyBase::process_tc_tracked`] exactly; `seq` additionally
    /// keys the store's content dedup.
    ///
    /// [`TopologyBase::process_tc_tracked`]: crate::tables::TopologyBase::process_tc_tracked
    pub fn process_tc_tracked(
        &mut self,
        originator: NodeId,
        seq: u16,
        ansn: u16,
        advertised: &[(NodeId, LinkQos)],
        now: SimTime,
        hold_until: SimTime,
    ) -> TcUpdate {
        let slot = self.overlays.binary_search_by_key(&originator, |o| o.orig);
        if let Ok(i) = slot {
            let o = &self.overlays[i];
            if o.until > now && seq_newer(o.ansn, ansn) {
                return TcUpdate {
                    applied: false,
                    links_changed: false,
                };
            }
        }
        // Sort the incoming list by advertised id, keeping the *last*
        // occurrence of duplicate ids (map-insert semantics) — the
        // same normalization as the per-node reference.
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

        let mut st = self.store.lock();
        let links_changed = match slot {
            Ok(i) if self.overlays[i].until > now => {
                self.old_ids.clear();
                st.ids_append(self.overlays[i].set, &mut self.old_ids);
                !self
                    .old_ids
                    .iter()
                    .copied()
                    .eq(self.scratch.iter().map(|&(n, _)| n))
            }
            // No live previous set: changed iff the new set is nonempty
            // (matching the reference's empty-vs-new comparison).
            _ => !self.scratch.is_empty(),
        };
        let fresh = st.acquire(originator, seq, &self.scratch);
        self.count += self.scratch.len();
        match slot {
            Ok(i) => {
                let o = &mut self.overlays[i];
                self.count -= st.link_count(o.set);
                let old = std::mem::replace(&mut o.set, fresh);
                st.release(old);
                o.ansn = ansn;
                o.until = hold_until;
            }
            Err(i) => self.overlays.insert(
                i,
                Overlay {
                    orig: originator,
                    ansn,
                    until: hold_until,
                    set: fresh,
                },
            ),
        }
        TcUpdate {
            applied: true,
            links_changed,
        }
    }

    /// Discards expired overlays, releasing their set references — the
    /// epoch GC: once an originator's every tuple expired, *all* state
    /// about it (set, ANSN record, store slot when last-referenced) is
    /// reclaimed.
    pub fn sweep(&mut self, now: SimTime) {
        if self.overlays.iter().all(|o| o.until > now) {
            return;
        }
        let mut st = self.store.lock();
        let count = &mut self.count;
        self.overlays.retain(|o| {
            if o.until > now {
                return true;
            }
            *count -= st.link_count(o.set);
            st.release(o.set);
            false
        });
    }

    /// Releases every overlay (node reboot).
    pub fn clear(&mut self) {
        let mut st = self.store.lock();
        for o in self.overlays.drain(..) {
            st.release(o.set);
        }
        self.count = 0;
    }

    /// Fills `out` with all live advertised links as
    /// `(originator, advertised, qos)`, ascending by
    /// `(originator, advertised)`; returns the earliest expiry among
    /// them (far-future when empty).
    pub fn links_into(&self, now: SimTime, out: &mut Vec<(NodeId, NodeId, LinkQos)>) -> SimTime {
        out.clear();
        let mut min_expiry = FAR_FUTURE;
        let st = self.store.lock();
        for o in &self.overlays {
            if o.until > now && st.link_count(o.set) > 0 {
                st.links_append(o.set, o.orig, out);
                min_expiry = min_expiry.min(o.until);
            }
        }
        min_expiry
    }

    /// Calls `visit(originator, advertised)` for every live advertised
    /// link, ascending by `(originator, advertised)`, reading only the
    /// sets' id blocks; returns the earliest expiry among them
    /// (far-future when there are none).
    pub fn for_each_link_key(
        &self,
        now: SimTime,
        mut visit: impl FnMut(NodeId, NodeId),
    ) -> SimTime {
        let mut min_expiry = FAR_FUTURE;
        let st = self.store.lock();
        for o in &self.overlays {
            if o.until > now && st.link_count(o.set) > 0 {
                for adv in st.ids(o.set) {
                    visit(o.orig, adv);
                }
                min_expiry = min_expiry.min(o.until);
            }
        }
        min_expiry
    }

    /// All live advertised links as `(originator, advertised, qos)`.
    pub fn links(&self, now: SimTime) -> Vec<(NodeId, NodeId, LinkQos)> {
        let mut out = Vec::new();
        self.links_into(now, &mut out);
        out
    }

    /// Number of stored links (including expired-but-unswept).
    pub fn len(&self) -> usize {
        self.count
    }

    /// Returns `true` when no links are stored.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Overlays currently held (one per originator).
    pub fn originators(&self) -> usize {
        self.overlays.len()
    }

    /// Node-local resident footprint: overlay entries and the bytes of
    /// the overlay vector plus scratch buffers. The shared packed sets
    /// are **not** included — they are network-level state reported
    /// once through [`SharedLinkStore::gauges`].
    pub fn footprint(&self) -> (usize, usize) {
        let bytes = self.overlays.capacity() * std::mem::size_of::<Overlay>()
            + self.scratch.capacity() * std::mem::size_of::<(NodeId, LinkQos)>()
            + self.old_ids.capacity() * std::mem::size_of::<NodeId>();
        (self.overlays.len(), bytes)
    }
}

impl Drop for SharedTopology {
    fn drop(&mut self) {
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qolsr_sim::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn q(v: u64) -> LinkQos {
        LinkQos::uniform(v)
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn store_dedups_identical_emissions() {
        let mut st = LinkSetStore::new();
        let links = [(NodeId(2), q(3)), (NodeId(5), q(1))];
        let a = st.acquire(NodeId(1), 10, &links);
        let b = st.acquire(NodeId(1), 10, &links);
        assert_eq!(a, b, "same emission shares one slot");
        let g = st.gauges();
        assert_eq!(g.live_slots, 1);
        assert_eq!(g.resident_links, 2);
        assert_eq!(g.dedup_hits, 1);
        assert_eq!(g.slots_interned, 1);

        let mut out = Vec::new();
        st.links_append(a, NodeId(1), &mut out);
        assert_eq!(
            out,
            vec![(NodeId(1), NodeId(2), q(3)), (NodeId(1), NodeId(5), q(1))]
        );

        st.release(a);
        assert_eq!(st.gauges().live_slots, 1, "b still holds the slot");
        st.release(b);
        let g = st.gauges();
        assert_eq!(g.live_slots, 0);
        assert_eq!(g.resident_links, 0);
    }

    #[test]
    fn store_survives_seq_reuse_with_different_content() {
        let mut st = LinkSetStore::new();
        let a = st.acquire(NodeId(1), 7, &[(NodeId(2), q(1))]);
        // Same key, different payload: must NOT alias.
        let b = st.acquire(NodeId(1), 7, &[(NodeId(3), q(1))]);
        assert_ne!(a, b);
        let mut out = Vec::new();
        st.ids_append(a, &mut out);
        assert_eq!(out, vec![NodeId(2)]);
        out.clear();
        st.ids_append(b, &mut out);
        assert_eq!(out, vec![NodeId(3)]);
        // The key now points at b; releasing a must not unregister it.
        st.release(a);
        let c = st.acquire(NodeId(1), 7, &[(NodeId(3), q(1))]);
        assert_eq!(b, c, "repointed key still dedups");
        st.release(b);
        st.release(c);
        assert_eq!(st.gauges().live_slots, 0);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut st = LinkSetStore::new();
        let a = st.acquire(NodeId(1), 1, &[(NodeId(2), q(1))]);
        st.release(a);
        let b = st.acquire(NodeId(9), 4, &[(NodeId(3), q(2)), (NodeId(8), q(2))]);
        assert_eq!(st.slots.len(), 1, "slot recycled");
        let mut out = Vec::new();
        st.ids_append(b, &mut out);
        assert_eq!(out, vec![NodeId(3), NodeId(8)]);
    }

    #[test]
    fn empty_sets_intern_cleanly() {
        let mut st = LinkSetStore::new();
        let a = st.acquire(NodeId(4), 0, &[]);
        assert_eq!(st.link_count(a), 0);
        let mut out = Vec::new();
        st.links_append(a, NodeId(4), &mut out);
        assert!(out.is_empty());
        st.release(a);
    }

    /// The acquire/release/repoint sequence whose gauges
    /// `payload_size_and_overhead_are_pinned` pins.
    fn gauge_history() -> (LinkSetStore, [StoreGauges; 2]) {
        let wide = LinkQos::with_energy(Bandwidth(127), Delay(128), Energy(u64::MAX));
        let mut st = LinkSetStore::new();
        let a = st.acquire(NodeId(1), 1, &[(NodeId(2), q(0)), (NodeId(300), wide)]);
        let b = st.acquire(NodeId(1), 1, &[(NodeId(2), q(0)), (NodeId(300), wide)]);
        // Same key, new content: repointed.
        let c = st.acquire(NodeId(1), 1, &[(NodeId(5), q(128))]);
        let d = st.acquire(
            NodeId(7),
            9,
            &[(NodeId(1 << 22), q(200)), (NodeId(u32::MAX), q(1))],
        );
        let e = st.acquire(NodeId(7), 10, &[]);
        let mid = st.gauges();
        st.release(a);
        st.release(e);
        let f = st.acquire(
            NodeId(3),
            4,
            &[(NodeId(8), q(70_000)), (NodeId(9), q(u64::MAX))],
        );
        st.release(c);
        let end = st.gauges();
        for r in [b, d, f] {
            st.release(r);
        }
        (st, [mid, end])
    }

    #[test]
    fn payload_size_and_overhead_are_pinned() {
        // Recorded before the id block and the QoS block were split: the
        // layout moves the bytes, never their count.
        let (st, [mid, end]) = gauge_history();
        assert_eq!(
            mid,
            StoreGauges {
                live_slots: 4,
                resident_links: 5,
                resident_bytes: 412,
                dedup_hits: 1,
                slots_interned: 4,
            }
        );
        assert_eq!(
            end,
            StoreGauges {
                live_slots: 3,
                resident_links: 6,
                resident_bytes: 494,
                dedup_hits: 1,
                slots_interned: 5,
            }
        );
        assert_eq!(
            st.gauges(),
            StoreGauges {
                live_slots: 0,
                resident_links: 0,
                resident_bytes: 416,
                dedup_hits: 1,
                slots_interned: 5,
            }
        );
    }

    /// LEB128 length of `v`.
    fn varint_len(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
    }

    /// QoS components at the varint length boundaries, plus anything.
    fn component() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            Just(127),
            Just(128),
            Just(u64::MAX),
            any::<u64>(),
        ]
    }

    /// Id gaps: small, at the one-byte boundary, and past 2^21 (four
    /// varint bytes).
    fn gap() -> impl Strategy<Value = u32> {
        prop_oneof![1u32..4, Just(128), (1u32 << 21)..(1u32 << 24)]
    }

    proptest! {
        /// Any sorted advertised list round-trips through the packed
        /// form, id block and QoS block alike, and packs into exactly
        /// the sum of its fields' varint lengths.
        #[test]
        fn packed_sets_round_trip(
            start in 0u32..1000,
            fields in proptest::collection::vec((gap(), component(), component(), component()), 0..12),
        ) {
            let mut links = Vec::new();
            let mut id = start;
            for (i, &(g, bw, delay, energy)) in fields.iter().enumerate() {
                if i > 0 {
                    id = id.saturating_add(g);
                }
                if links.last().is_some_and(|&(last, _)| last == NodeId(id)) {
                    break;
                }
                links.push((NodeId(id), LinkQos::with_energy(Bandwidth(bw), Delay(delay), Energy(energy))));
            }
            let mut st = LinkSetStore::new();
            let r = st.acquire(NodeId(7), 3, &links);
            prop_assert_eq!(st.link_count(r), links.len());

            let mut triples = Vec::new();
            st.links_append(r, NodeId(7), &mut triples);
            let expected: Vec<_> = links.iter().map(|&(adv, qos)| (NodeId(7), adv, qos)).collect();
            prop_assert_eq!(triples, expected);
            let mut ids = Vec::new();
            st.ids_append(r, &mut ids);
            let expected_ids: Vec<NodeId> = links.iter().map(|&(adv, _)| adv).collect();
            prop_assert_eq!(ids, expected_ids);

            let mut prev = 0;
            let fields_len: usize = links
                .iter()
                .map(|&(adv, qos)| {
                    let delta = u64::from(adv.0 - prev);
                    prev = adv.0;
                    varint_len(delta)
                        + varint_len(qos.bandwidth.value())
                        + varint_len(qos.delay.value())
                        + varint_len(qos.energy.value())
                })
                .sum();
            prop_assert_eq!(st.slots[r.0 as usize].packed.len(), fields_len);
            prop_assert_eq!(st.payload_bytes, fields_len);
        }
    }

    #[test]
    fn shared_topology_tracks_reference_semantics() {
        let store = SharedLinkStore::new();
        let mut tb = SharedTopology::new(store.clone());
        let adv = [(NodeId(2), q(1)), (NodeId(3), q(2))];
        let up = tb.process_tc_tracked(NodeId(1), 1, 1, &adv, t(0), t(10));
        assert!(up.applied && up.links_changed);
        assert_eq!(tb.len(), 2);
        // Same pairs, new QoS: applied but not a link change.
        let adv_q = [(NodeId(2), q(9)), (NodeId(3), q(9))];
        let up = tb.process_tc_tracked(NodeId(1), 2, 2, &adv_q, t(1), t(11));
        assert!(up.applied && !up.links_changed);
        // Stale ANSN while live: rejected.
        let up = tb.process_tc_tracked(NodeId(1), 3, 1, &adv, t(2), t(12));
        assert!(!up.applied);
        assert!(!tb.accepts_ansn(NodeId(1), 1, t(2)));
        // After expiry the record is dead: any ANSN is re-learned.
        assert!(tb.accepts_ansn(NodeId(1), 1, t(12)));
        let up = tb.process_tc_tracked(NodeId(1), 4, 0, &adv, t(12), t(20));
        assert!(up.applied && up.links_changed);

        tb.sweep(t(30));
        assert!(tb.is_empty());
        assert_eq!(tb.originators(), 0);
        assert_eq!(store.gauges().live_slots, 0, "epoch GC frees the store");
    }

    #[test]
    fn two_nodes_share_one_slot() {
        let store = SharedLinkStore::new();
        let mut a = SharedTopology::new(store.clone());
        let mut b = SharedTopology::new(store.clone());
        let adv = [(NodeId(7), q(2))];
        a.process_tc_tracked(NodeId(1), 5, 1, &adv, t(0), t(10));
        b.process_tc_tracked(NodeId(1), 5, 1, &adv, t(0), t(10));
        let g = store.gauges();
        assert_eq!(g.live_slots, 1, "one slot for both receivers");
        assert_eq!(g.dedup_hits, 1);
        assert_eq!(a.links(t(1)), b.links(t(1)));
        drop(a);
        assert_eq!(store.gauges().live_slots, 1);
        drop(b);
        assert_eq!(store.gauges().live_slots, 0);
    }
}
