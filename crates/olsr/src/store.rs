//! The shared interned link-state store: each originator's advertised
//! link set is represented **once per network**, delta-compressed, and
//! shared copy-on-write across every node that heard it.
//!
//! # Why
//!
//! Per-node topology tables, where every node stores every
//! originator's advertised set privately, hold `O(n²)` tuples
//! network-wide — the memory wall that made the n = 4000 live sweep
//! cost gigabytes of RSS. But the sets are *identical by construction*: a TC emission is
//! flooded verbatim (forwarding patches only TTL/hop bytes), so all
//! receivers of `(originator, message seq)` decode the same advertised
//! list. The store exploits exactly that: one refcounted, packed copy
//! per emission, with nodes keeping only a per-originator
//! `(ansn, expiry, set reference)` overlay — see [`SharedTopology`].
//!
//! # One originator numbering
//!
//! The store numbers every originator it meets ([`InternTable`]) and
//! keys its dedup lists by that number. A network seeds each of its
//! stores with its node count `n` ([`SharedLinkStore::seeded`]), which
//! numbers the ids `0..n` by their own value, so every store of the
//! network numbers them alike. Each node keeps its overlays of those
//! ids in a flat array indexed by id: the receive path's ANSN check is
//! one array access and takes no lock, and walking the array visits
//! originators ascending on any store, so a node re-homed onto another
//! shard's store keeps its visit order. An id at or past `n` (only a
//! corrupted frame that passes the checksum mints one) keeps its
//! overlay in a short per-node list sorted by id, walked after the
//! array and emptied as its overlays expire, and the store forgets its
//! number and dedup list with its last set, handing the number to the
//! next such id: neither a node's visit order nor its memory, nor the
//! store's, depends on the originators its store met before. The route
//! computation numbers ids the same way, each id below `n` by its own
//! value ([`crate::routing`]), so its CSR rows and each route cache's
//! table are indexed by id too.
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
//! # Proof of equivalence
//!
//! The per-node tables survive as a test-only oracle
//! (`tests/support/topology_base.rs`): the `topology_store_properties`
//! proptests pin [`SharedTopology`] against them query by query, and
//! `tests/store_differential.rs` replays whole-network runs recorded
//! from them before they left the protocol.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use qolsr_graph::NodeId;
use qolsr_metrics::{Bandwidth, Delay, Energy, LinkQos};
use qolsr_sim::SimTime;

use crate::intern::InternTable;
use crate::tables::{seq_newer, FAR_FUTURE};

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
    /// Dedup key: the emission this payload came from, its originator
    /// by the store's number.
    origin: u32,
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
    /// The originator numbering (see the [module docs](self)): indexes
    /// the dedup lists.
    intern: InternTable,
    /// How many ids [`SharedLinkStore::seeded`] numbered up front: ids
    /// `0..seeded`, each by its own value.
    seeded: usize,
    /// Originator number → `(seq, slot)` pairs, ascending by raw seq.
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
        let origin = self.intern.intern(orig);
        let dense = origin as usize;
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
                    let fresh = self.alloc(origin, seq, links.len() as u32, packed);
                    self.by_origin[dense][i].1 = fresh.0;
                    fresh
                }
            }
            Err(i) => {
                let fresh = self.alloc(origin, seq, links.len() as u32, packed);
                self.by_origin[dense].insert(i, (seq, fresh.0));
                fresh
            }
        }
    }

    fn alloc(&mut self, origin: u32, seq: u16, links: u32, packed: Vec<u8>) -> SetRef {
        self.payload_bytes += packed.len();
        self.resident_links += links as usize;
        self.slots_interned += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                // Reclaim the retained buffer for the encode scratch.
                self.encode_buf = std::mem::replace(&mut s.packed, packed);
                self.encode_buf.clear();
                s.origin = origin;
                s.seq = seq;
                s.refs = 1;
                s.links = links;
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                assert!(slot < VACANT.set.0, "slot index collides with the sentinel");
                self.slots.push(Slot {
                    origin,
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
        // Unregister the dedup key — unless a wrapped sequence space
        // already repointed it at a newer slot.
        let list = &mut self.by_origin[s.origin as usize];
        if let Ok(i) = list.binary_search_by_key(&s.seq, |e| e.0) {
            if list[i].1 == r.0 {
                list.remove(i);
                if list.is_empty() && s.origin as usize >= self.seeded {
                    // The last keyed set of an originator past the seed:
                    // forget its number, which the next new originator
                    // takes. A slot a wrapped sequence orphaned may still
                    // carry the number; its release finds no key of its
                    // own under it, whoever holds the number then.
                    *list = Vec::new();
                    self.intern.remove(self.intern.resolve(s.origin));
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

    /// Creates a handle to an empty store whose originator numbering
    /// starts with the ids `0..n`, each numbered by its own value (see
    /// the [module docs](self)). A network seeds every one of its
    /// stores with its node count.
    pub fn seeded(n: usize) -> Self {
        let mut st = LinkSetStore::new();
        for id in 0..n as u32 {
            st.intern.intern(NodeId(id));
        }
        st.seeded = n;
        st.by_origin.resize_with(n, Vec::new);
        Self(Arc::new(Mutex::new(st)))
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, LinkSetStore> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current resident-memory and dedup statistics.
    pub fn gauges(&self) -> StoreGauges {
        self.lock().gauges()
    }
}

/// One node's overlay for one originator: 16 bytes.
#[derive(Debug, Clone, Copy)]
struct Overlay {
    /// Validity horizon of the whole set *and* the ANSN record — one
    /// instant, because a TC stamps every tuple it carries with the
    /// same hold time (the invariant the overlay representation rests
    /// on). [`VACANT`]'s is [`SimTime::ZERO`], so an originator the node
    /// holds nothing of reads as expired.
    until: SimTime,
    /// The advertised set; [`VACANT`]'s is a sentinel no slot carries.
    set: SetRef,
    /// Latest accepted ANSN of the originator.
    ansn: u16,
}

/// The entry of an originator the node holds no overlay for.
const VACANT: Overlay = Overlay {
    until: SimTime::ZERO,
    set: SetRef(u32::MAX),
    ansn: 0,
};

const _: () = assert!(std::mem::size_of::<Overlay>() == 16);

impl Overlay {
    fn held(&self) -> bool {
        self.set != VACANT.set
    }
}

/// Calls `changed(id, inserted)` for every id in exactly one of the
/// ascending, repeat-free lists `old` and `new`, ascending: `inserted`
/// says it is in `new`. With `shortened`, an id in both is reported too,
/// as removed.
fn diff_ascending(
    old: impl Iterator<Item = NodeId>,
    new: impl Iterator<Item = NodeId>,
    shortened: bool,
    mut changed: impl FnMut(NodeId, bool),
) {
    let (mut old, mut new) = (old.peekable(), new.peekable());
    loop {
        let inserted = match (old.peek(), new.peek()) {
            (None, None) => return,
            (Some(a), Some(b)) if a == b => {
                new.next();
                if !shortened {
                    old.next();
                    continue;
                }
                false
            }
            (Some(a), Some(b)) => b < a,
            (Some(_), None) => false,
            (None, Some(_)) => true,
        };
        let id = if inserted { new.next() } else { old.next() };
        changed(id.expect("peeked"), inserted);
    }
}

/// Store-backed topology base: the node keeps only `(ansn, expiry,
/// set reference)` overlays, one per originator — in an array indexed
/// by id for the store's seeded ids, in a list sorted by id for the
/// rest — while the advertised sets themselves live deduplicated in the
/// network's [`SharedLinkStore`].
///
/// Semantics are pinned ≡ the per-node reference tables — now a
/// test-only oracle — by differential proptests and full-network
/// replays (see the [module docs](self)); every accessor produces the
/// same content in the same order with the same min-expiry horizons.
#[derive(Debug)]
pub struct SharedTopology {
    store: SharedLinkStore,
    /// The store's seeded id count: ids below it index `overlays`.
    seeded: usize,
    /// Overlays of the seeded ids, indexed by id, [`VACANT`] where none
    /// is held; empty until the first TC.
    overlays: Vec<Overlay>,
    /// Overlays of the held originators outside the seed, ascending by
    /// id; every one is held.
    unseeded: Vec<(NodeId, Overlay)>,
    /// Overlays held.
    held: usize,
    /// Stored links across all overlays (including expired-but-unswept).
    count: usize,
    /// Scratch for sorting/deduplicating an incoming advertised list.
    scratch: Vec<(NodeId, LinkQos)>,
}

impl SharedTopology {
    /// Creates an empty base feeding (and fed by) `store`.
    pub fn new(store: SharedLinkStore) -> Self {
        let seeded = store.lock().seeded;
        Self {
            store,
            seeded,
            overlays: Vec::new(),
            unseeded: Vec::new(),
            held: 0,
            count: 0,
            scratch: Vec::new(),
        }
    }

    /// The store handle this base shares sets through.
    pub fn store(&self) -> &SharedLinkStore {
        &self.store
    }

    /// The store's seeded id count: the ids `0..n` its numbering
    /// assigns by their own value.
    pub(crate) fn seeded(&self) -> usize {
        self.seeded
    }

    /// The overlay held for `orig`, [`VACANT`] if none.
    fn overlay(&self, orig: NodeId) -> Overlay {
        let i = orig.0 as usize;
        if i < self.seeded {
            self.overlays.get(i).copied().unwrap_or(VACANT)
        } else {
            match self.unseeded.binary_search_by_key(&orig, |e| e.0) {
                Ok(at) => self.unseeded[at].1,
                Err(_) => VACANT,
            }
        }
    }

    /// The overlay entry of `orig`, inserted [`VACANT`] if absent.
    fn entry(&mut self, orig: NodeId) -> &mut Overlay {
        let i = orig.0 as usize;
        if i < self.seeded {
            if self.overlays.is_empty() {
                self.overlays.resize(self.seeded, VACANT);
            }
            &mut self.overlays[i]
        } else {
            let at = match self.unseeded.binary_search_by_key(&orig, |e| e.0) {
                Ok(at) => at,
                Err(at) => {
                    self.unseeded.insert(at, (orig, VACANT));
                    at
                }
            };
            &mut self.unseeded[at].1
        }
    }

    /// Returns `true` when a TC from `originator` carrying `ansn` would
    /// be accepted at `now` — the RFC 3626 §9.5 check, with an expired
    /// record treated as absent (a silent-past-hold originator is
    /// re-learned from any ANSN, e.g. after a power cycle reset it).
    pub fn accepts_ansn(&self, originator: NodeId, ansn: u16, now: SimTime) -> bool {
        let o = self.overlay(originator);
        o.until <= now || !seq_newer(o.ansn, ansn)
    }

    /// Integrates the TC of emission `(originator, seq)` carrying
    /// `ansn` and `advertised` (RFC 3626 §9.5): discarded if older than
    /// the live ANSN record; otherwise it replaces the originator's
    /// advertised set, sorted by id with the *last* occurrence of a
    /// duplicate id kept. `seq` additionally keys the store's content
    /// dedup. Returns whether the TC was applied.
    ///
    /// `changed(id, inserted)` is called for every advertised id in
    /// exactly one of the originator's old live (at `now`) set and the
    /// new one, ascending by id: `inserted` says it is in the new one.
    /// These are the link pairs `(originator, id)` the TC changed — what
    /// route caches keep their tables exact by; a pure refresh (same
    /// pairs, a later hold, new QoS) names none. A TC that moves a live
    /// set's hold earlier also reports each id it keeps, as removed:
    /// that pair now lapses before the hold a route computation read, so
    /// no cached route may rest on it.
    #[allow(clippy::too_many_arguments)]
    pub fn process_tc(
        &mut self,
        originator: NodeId,
        seq: u16,
        ansn: u16,
        advertised: &[(NodeId, LinkQos)],
        now: SimTime,
        hold_until: SimTime,
        changed: impl FnMut(NodeId, bool),
    ) -> bool {
        let old = self.overlay(originator);
        if old.until > now && seq_newer(old.ansn, ansn) {
            return false;
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

        let mut st = self.store.lock();
        // An expired previous set holds no live pair.
        let old_live = (old.until > now)
            .then(|| st.ids(old.set))
            .into_iter()
            .flatten();
        let new_ids = self.scratch.iter().map(|&(n, _)| n);
        let shortened = old.until > now && hold_until < old.until;
        diff_ascending(old_live, new_ids, shortened, changed);
        let fresh = st.acquire(originator, seq, &self.scratch);
        self.count += self.scratch.len();
        if old.held() {
            self.count -= st.link_count(old.set);
            st.release(old.set);
        } else {
            self.held += 1;
        }
        drop(st);
        *self.entry(originator) = Overlay {
            until: hold_until,
            set: fresh,
            ansn,
        };
        true
    }

    /// Discards expired overlays, releasing their set references — the
    /// epoch GC: once an originator's every tuple expired, *all* state
    /// about it (set, ANSN record, store slot when last-referenced) is
    /// reclaimed.
    pub fn sweep(&mut self, now: SimTime) {
        let mut st = self.store.lock();
        let (mut released, mut links) = (0, 0);
        let mut expire = |o: &Overlay| {
            let expired = o.held() && o.until <= now;
            if expired {
                links += st.link_count(o.set);
                st.release(o.set);
                released += 1;
            }
            expired
        };
        for o in &mut self.overlays {
            if expire(o) {
                *o = VACANT;
            }
        }
        self.unseeded.retain(|(_, o)| !expire(o));
        self.unseeded.shrink_to_fit();
        self.held -= released;
        self.count -= links;
    }

    /// Releases every overlay (node reboot).
    pub fn clear(&mut self) {
        let mut st = self.store.lock();
        let unseeded = std::mem::take(&mut self.unseeded)
            .into_iter()
            .map(|(_, o)| o);
        for o in self.overlays.drain(..).chain(unseeded) {
            if o.held() {
                st.release(o.set);
            }
        }
        self.held = 0;
        self.count = 0;
    }

    /// Calls `visit(originator, set)` for every live overlay with a
    /// nonempty set, ascending by originator — the seeded array, then
    /// the unseeded list, whose ids all lie past it; returns the
    /// earliest expiry among them (far-future when there are none).
    fn for_each_live(
        &self,
        st: &LinkSetStore,
        now: SimTime,
        mut visit: impl FnMut(NodeId, SetRef),
    ) -> SimTime {
        let mut min_expiry = FAR_FUTURE;
        let seeded = (0..).map(NodeId).zip(&self.overlays);
        let unseeded = self.unseeded.iter().map(|(id, o)| (*id, o));
        for (orig, o) in seeded.chain(unseeded) {
            // A vacant entry's `until` is zero, so it fails the first
            // test and its sentinel set is never read.
            if o.until > now && st.link_count(o.set) > 0 {
                visit(orig, o.set);
                min_expiry = min_expiry.min(o.until);
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
        let st = self.store.lock();
        self.for_each_live(&st, now, |orig, set| st.links_append(set, orig, out))
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
        let st = self.store.lock();
        self.for_each_live(&st, now, |orig, set| {
            for adv in st.ids(set) {
                visit(orig, adv);
            }
        })
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
        self.held
    }

    /// Node-local resident footprint: overlays held, and the bytes of
    /// the overlay array, the unseeded list and the scratch buffer. The
    /// shared packed sets are **not** included — they are network-level
    /// state reported once through [`SharedLinkStore::gauges`].
    pub fn footprint(&self) -> (usize, usize) {
        let bytes = self.overlays.capacity() * std::mem::size_of::<Overlay>()
            + self.unseeded.capacity() * std::mem::size_of::<(NodeId, Overlay)>()
            + self.scratch.capacity() * std::mem::size_of::<(NodeId, LinkQos)>();
        (self.held, bytes)
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
        assert_eq!(st.ids(a).collect::<Vec<_>>(), vec![NodeId(2)]);
        assert_eq!(st.ids(b).collect::<Vec<_>>(), vec![NodeId(3)]);
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
        assert_eq!(st.ids(b).collect::<Vec<_>>(), vec![NodeId(3), NodeId(8)]);
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
        // layout moves the bytes, never their count. The store is
        // unseeded, so every originator lies past the seed and is
        // forgotten with its last keyed set: originator 1 before `end`
        // (its 32-byte dedup list goes, the 16-byte free list of numbers
        // comes), 7 and 3 after it.
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
                resident_bytes: 478,
                dedup_hits: 1,
                slots_interned: 5,
            }
        );
        assert_eq!(
            st.gauges(),
            StoreGauges {
                live_slots: 0,
                resident_links: 0,
                resident_bytes: 336,
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
            let expected_ids: Vec<NodeId> = links.iter().map(|&(adv, _)| adv).collect();
            prop_assert_eq!(st.ids(r).collect::<Vec<_>>(), expected_ids);

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

    /// Integrates a TC from `orig` at `now`; returns whether it was
    /// applied and whether it named a changed link pair.
    fn tc(
        tb: &mut SharedTopology,
        orig: NodeId,
        seq: u16,
        ansn: u16,
        adv: &[(NodeId, LinkQos)],
        now: SimTime,
        hold: SimTime,
    ) -> (bool, bool) {
        let mut changed = false;
        let applied = tb.process_tc(orig, seq, ansn, adv, now, hold, |_, _| changed = true);
        (applied, changed)
    }

    #[test]
    fn shared_topology_tracks_reference_semantics() {
        let store = SharedLinkStore::new();
        let mut tb = SharedTopology::new(store.clone());
        let adv = [(NodeId(2), q(1)), (NodeId(3), q(2))];
        let up = tc(&mut tb, NodeId(1), 1, 1, &adv, t(0), t(10));
        assert_eq!(up, (true, true));
        assert_eq!(tb.len(), 2);
        // Same pairs, new QoS: applied but not a link change.
        let adv_q = [(NodeId(2), q(9)), (NodeId(3), q(9))];
        let up = tc(&mut tb, NodeId(1), 2, 2, &adv_q, t(1), t(11));
        assert_eq!(up, (true, false));
        // Stale ANSN while live: rejected.
        let up = tc(&mut tb, NodeId(1), 3, 1, &adv, t(2), t(12));
        assert!(!up.0);
        assert!(!tb.accepts_ansn(NodeId(1), 1, t(2)));
        // After expiry the record is dead: any ANSN is re-learned.
        assert!(tb.accepts_ansn(NodeId(1), 1, t(12)));
        let up = tc(&mut tb, NodeId(1), 4, 0, &adv, t(12), t(20));
        assert_eq!(up, (true, true));

        tb.sweep(t(30));
        assert!(tb.is_empty());
        assert_eq!(tb.originators(), 0);
        assert_eq!(store.gauges().live_slots, 0, "epoch GC frees the store");
    }

    #[test]
    fn a_tc_that_shortens_a_live_hold_reports_its_kept_ids_as_removed() {
        let mut tb = SharedTopology::new(SharedLinkStore::new());
        let mut tc = |ansn: u16, adv: &[u32], now: u64, hold: u64| {
            let adv: Vec<(NodeId, LinkQos)> = adv.iter().map(|&n| (NodeId(n), q(1))).collect();
            let mut named = Vec::new();
            tb.process_tc(NodeId(1), ansn, ansn, &adv, t(now), t(hold), |id, ins| {
                named.push((id.0, ins))
            });
            (!named.is_empty(), named)
        };
        assert_eq!(tc(1, &[2, 3], 0, 10), (true, vec![(2, true), (3, true)]));
        // A later hold: only the ids that changed.
        assert_eq!(tc(2, &[2, 4], 1, 11), (true, vec![(3, false), (4, true)]));
        // An earlier hold: the kept id 2 too, as removed.
        assert_eq!(
            tc(3, &[2, 5], 2, 6),
            (true, vec![(2, false), (4, false), (5, true)])
        );
        assert_eq!(tc(4, &[2, 5], 3, 5), (true, vec![(2, false), (5, false)]));
        // The same set and hold: nothing.
        assert_eq!(tc(5, &[2, 5], 4, 5), (false, vec![]));
        // An expired set keeps nothing.
        assert_eq!(tc(6, &[2], 6, 7), (true, vec![(2, true)]));
    }

    #[test]
    fn unseeded_originators_leave_nothing_behind_once_swept() {
        let store = SharedLinkStore::seeded(4);
        let mut tb = SharedTopology::new(store.clone());
        let adv = [(NodeId(3), q(1))];
        tb.process_tc(NodeId(2), 1, 1, &adv, t(0), t(100), |_, _| {});
        let seeded = tb.footprint();
        assert_eq!(seeded.0, 1);
        // Ids a corrupted frame could mint, never the same one twice.
        let mut resident = None;
        for round in 0..50 {
            let (now, hold) = (t(round), t(round + 1));
            for k in 0..20 {
                let junk = NodeId(1000 + 20 * round as u32 + k);
                assert!(tb.accepts_ansn(junk, 1, now));
                assert!(tb.process_tc(junk, 1, 1, &adv, now, hold, |_, _| {}));
            }
            assert_eq!(tb.originators(), 21);
            assert_eq!(tb.links(now).len(), 21);
            tb.sweep(hold);
            assert_eq!(tb.footprint(), seeded, "round {round}");
            assert_eq!(tb.len(), 1);
            // The store forgets them too: its footprint settles after
            // the first round instead of growing with the run.
            let bytes = store.gauges().resident_bytes;
            assert_eq!(*resident.get_or_insert(bytes), bytes, "round {round}");
        }
        assert_eq!(tb.links(t(60)), vec![(NodeId(2), NodeId(3), q(1))]);
        assert_eq!(store.gauges().live_slots, 1);
    }

    #[test]
    fn two_nodes_share_one_slot() {
        let store = SharedLinkStore::new();
        let mut a = SharedTopology::new(store.clone());
        let mut b = SharedTopology::new(store.clone());
        let adv = [(NodeId(7), q(2))];
        a.process_tc(NodeId(1), 5, 1, &adv, t(0), t(10), |_, _| {});
        b.process_tc(NodeId(1), 5, 1, &adv, t(0), t(10), |_, _| {});
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
