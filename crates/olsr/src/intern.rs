//! Dense [`NodeId`] interning for the interned link-state store.
//!
//! [`InternTable`] is an arrival-order interner for long-lived state: an
//! id keeps its dense index until it is removed, so per-originator
//! bookkeeping can live in flat `Vec`s indexed by dense id instead of
//! maps keyed by `NodeId`. The shared [`LinkSetStore`] owns one table as
//! its originator numbering, which indexes its dedup lists. A network's
//! stores intern the ids `0..n` first, in ascending order
//! ([`SharedLinkStore::seeded`]), so each of those ids is its own dense
//! index and every store of one network numbers them alike; the store
//! removes an id past them once it holds nothing of it, and the next new
//! id takes its index. The route BFS numbers its ids the same way: an
//! id below `n` is its own index, and only the ids past `n` go through
//! an [`InternTable`] of [`RouteScratch`]'s, cleared per computation, so
//! they take `n, n + 1, …` in arrival order.
//!
//! [`LinkSetStore`]: crate::store::LinkSetStore
//! [`SharedLinkStore::seeded`]: crate::store::SharedLinkStore::seeded
//! [`RouteScratch`]: crate::routing::RouteScratch

use qolsr_graph::NodeId;

/// Arrival-order interner: the first `intern` of an id assigns the next
/// dense index — the index of the id removed last, if one is free — and
/// the assignment holds until the id is removed.
///
/// Lookup is a binary search over a sorted `(id, dense)` index — ids
/// are interned rarely (once per node ever seen) while lookups run on
/// the hot path, so the flat sorted index beats a hash map on both
/// memory and cache behaviour at the sizes involved. One store's index
/// is shared by all the nodes on it, so the TC receive path finds it
/// in cache.
///
/// # Examples
///
/// ```
/// use qolsr_graph::NodeId;
/// use qolsr_proto::intern::InternTable;
///
/// let mut t = InternTable::new();
/// let a = t.intern(NodeId(7));
/// let b = t.intern(NodeId(3));
/// assert_eq!(t.intern(NodeId(7)), a, "re-interning is stable");
/// assert_eq!(t.get(NodeId(3)), Some(b));
/// assert_eq!(t.resolve(a), NodeId(7));
/// assert_eq!(t.len(), 2);
/// t.remove(NodeId(7));
/// assert_eq!(t.get(NodeId(7)), None);
/// assert_eq!(t.intern(NodeId(9)), a, "a removed id's index is reused");
/// ```
#[derive(Debug, Default)]
pub struct InternTable {
    /// Dense index → id, in arrival order.
    ids: Vec<NodeId>,
    /// Sorted `(id, dense)` pairs for lookup.
    index: Vec<(NodeId, u32)>,
    /// Dense indices of removed ids, the last removed on top.
    free: Vec<u32>,
}

impl InternTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the dense index of `id`, assigning the next free index on
    /// first sight.
    pub fn intern(&mut self, id: NodeId) -> u32 {
        match self.index.binary_search_by_key(&id, |e| e.0) {
            Ok(i) => self.index[i].1,
            Err(i) => {
                let dense = match self.free.pop() {
                    Some(dense) => {
                        self.ids[dense as usize] = id;
                        dense
                    }
                    None => {
                        self.ids.push(id);
                        self.ids.len() as u32 - 1
                    }
                };
                self.index.insert(i, (id, dense));
                dense
            }
        }
    }

    /// Forgets `id`, if interned; the next new id takes its dense index.
    pub fn remove(&mut self, id: NodeId) {
        if let Ok(i) = self.index.binary_search_by_key(&id, |e| e.0) {
            self.free.push(self.index.remove(i).1);
        }
    }

    /// The dense index of `id`, if it was ever interned.
    pub fn get(&self, id: NodeId) -> Option<u32> {
        self.index
            .binary_search_by_key(&id, |e| e.0)
            .ok()
            .map(|i| self.index[i].1)
    }

    /// The id behind dense index `dense` (the last one assigned it).
    ///
    /// # Panics
    ///
    /// Panics if `dense` was never assigned.
    pub fn resolve(&self, dense: u32) -> NodeId {
        self.ids[dense as usize]
    }

    /// Number of interned ids.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` when no id is interned.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Forgets every id, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.index.clear();
        self.free.clear();
    }

    /// Approximate heap bytes held by the table.
    pub fn approx_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<NodeId>()
            + self.index.capacity() * std::mem::size_of::<(NodeId, u32)>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

impl Clone for InternTable {
    fn clone(&self) -> Self {
        Self {
            ids: self.ids.clone(),
            index: self.index.clone(),
            free: self.free.clone(),
        }
    }

    /// Copies `source` into `self`'s buffers, so a table copied again and
    /// again allocates only as it grows.
    fn clone_from(&mut self, source: &Self) {
        self.ids.clone_from(&source.ids);
        self.index.clone_from(&source.index);
        self.free.clone_from(&source.free);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_table_is_arrival_ordered_and_stable() {
        let mut t = InternTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get(NodeId(5)), None);
        let a = t.intern(NodeId(5));
        let b = t.intern(NodeId(1));
        let c = t.intern(NodeId(5));
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(a, c);
        assert_eq!(t.resolve(0), NodeId(5));
        assert_eq!(t.resolve(1), NodeId(1));
        assert_eq!(t.get(NodeId(1)), Some(1));
        assert_eq!(t.len(), 2);
        assert!(t.approx_bytes() > 0);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(NodeId(5)), None);
        assert_eq!(t.intern(NodeId(1)), 0, "a cleared table numbers from 0");
    }
}
