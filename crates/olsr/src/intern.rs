//! Persistent dense [`NodeId`] interning for the interned link-state
//! store.
//!
//! [`InternTable`] is an arrival-order interner for long-lived state (the
//! shared [`LinkSetStore`]): ids keep their dense index for the lifetime
//! of the table, so per-originator bookkeeping can live in flat `Vec`s
//! indexed by dense id instead of maps keyed by `NodeId`. The route BFS
//! interns per computation through its own hashed table in
//! [`RouteScratch`].
//!
//! [`LinkSetStore`]: crate::store::LinkSetStore
//! [`RouteScratch`]: crate::routing::RouteScratch

use qolsr_graph::NodeId;

/// Persistent arrival-order interner: the first `intern` of an id
/// assigns the next dense index, and the assignment never changes.
///
/// Lookup is a binary search over a sorted `(id, dense)` index — ids
/// are interned rarely (once per node ever seen) while lookups run on
/// the hot path, so the flat sorted index beats a hash map on both
/// memory and cache behaviour at the sizes involved.
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
/// ```
#[derive(Debug, Default, Clone)]
pub struct InternTable {
    /// Dense index → id, in arrival order.
    ids: Vec<NodeId>,
    /// Sorted `(id, dense)` pairs for lookup.
    index: Vec<(NodeId, u32)>,
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
                let dense = self.ids.len() as u32;
                self.ids.push(id);
                self.index.insert(i, (id, dense));
                dense
            }
        }
    }

    /// The dense index of `id`, if it was ever interned.
    pub fn get(&self, id: NodeId) -> Option<u32> {
        self.index
            .binary_search_by_key(&id, |e| e.0)
            .ok()
            .map(|i| self.index[i].1)
    }

    /// The id behind dense index `dense`.
    ///
    /// # Panics
    ///
    /// Panics if `dense` was never assigned.
    pub fn resolve(&self, dense: u32) -> NodeId {
        self.ids[dense as usize]
    }

    /// Number of interned ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` when nothing was interned yet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Approximate heap bytes held by the table.
    pub fn approx_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<NodeId>()
            + self.index.capacity() * std::mem::size_of::<(NodeId, u32)>()
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
    }
}
