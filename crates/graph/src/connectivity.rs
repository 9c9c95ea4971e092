//! Connectivity analysis: connected components.
//!
//! The evaluation samples random source/destination pairs; at low
//! densities the Poisson deployments are frequently disconnected, so pairs
//! must be drawn from a common component (the paper implicitly does the
//! same by averaging successful routings).

use std::collections::VecDeque;

use crate::ids::NodeId;
use crate::topology::Topology;

/// Connected-component labelling of a topology.
#[derive(Debug, Clone)]
pub struct Components {
    label: Vec<u32>,
    sizes: Vec<usize>,
}

impl Components {
    /// Computes components by BFS.
    pub fn compute(topo: &Topology) -> Self {
        let n = topo.len();
        let mut label = vec![u32::MAX; n];
        let mut sizes = Vec::new();
        let mut queue = VecDeque::new();
        for start in 0..n {
            if label[start] != u32::MAX {
                continue;
            }
            let comp = sizes.len() as u32;
            let mut size = 0usize;
            label[start] = comp;
            queue.push_back(start as u32);
            while let Some(v) = queue.pop_front() {
                size += 1;
                for &(w, _) in topo.graph().neighbors(v) {
                    if label[w as usize] == u32::MAX {
                        label[w as usize] = comp;
                        queue.push_back(w);
                    }
                }
            }
            sizes.push(size);
        }
        Self { label, sizes }
    }

    /// Number of components.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// The component label of node `n`.
    pub fn label_of(&self, n: NodeId) -> u32 {
        self.label[n.index()]
    }

    /// Returns `true` if `a` and `b` are in the same component.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.label_of(a) == self.label_of(b)
    }

    /// Size of component `c`.
    pub fn size(&self, c: u32) -> usize {
        self.sizes[c as usize]
    }

    /// The label of a largest component.
    pub fn largest(&self) -> Option<u32> {
        (0..self.sizes.len() as u32).max_by_key(|&c| self.sizes[c as usize])
    }

    /// All node ids in component `c`, ascending.
    pub fn members(&self, c: u32) -> Vec<NodeId> {
        self.label
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l == c)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;
    use qolsr_metrics::LinkQos;

    /// Two components: 0—1—2 and 3—4.
    fn two_components() -> Topology {
        let mut b = TopologyBuilder::abstract_nodes(5);
        for (x, y) in [(0, 1), (1, 2), (3, 4)] {
            b.link(NodeId(x), NodeId(y), LinkQos::uniform(1)).unwrap();
        }
        b.build()
    }

    #[test]
    fn labels_components() {
        let t = two_components();
        let c = Components::compute(&t);
        assert_eq!(c.count(), 2);
        assert!(c.connected(NodeId(0), NodeId(2)));
        assert!(!c.connected(NodeId(0), NodeId(3)));
        assert_eq!(c.size(c.label_of(NodeId(0))), 3);
        assert_eq!(c.size(c.label_of(NodeId(4))), 2);
    }

    #[test]
    fn largest_component_members() {
        let t = two_components();
        let c = Components::compute(&t);
        let l = c.largest().unwrap();
        assert_eq!(c.members(l), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn empty_topology() {
        let t = TopologyBuilder::new(1.0).build();
        let c = Components::compute(&t);
        assert_eq!(c.count(), 0);
        assert_eq!(c.largest(), None);
    }
}
