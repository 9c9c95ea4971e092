//! Uniform-cell spatial index for radius-based neighbor discovery.
//!
//! Every radius query in this workspace — initial deployment linking,
//! random-waypoint link recomputation, churn rejoin relinking — asks the
//! same question: *which nodes lie within distance `r` of this point?*
//! Answering it by scanning all `n` positions is O(n) per query and
//! O(n²) per world tick, the bottleneck that caps scenario size around a
//! thousand nodes. [`SpatialGrid`] buckets positions into square cells of
//! side `cell` (normally the communication radius `R`), so a query only
//! visits the cells overlapping the query disk — O(k) for `k` nodes in
//! range at paper-like densities.
//!
//! # Exactness
//!
//! The grid is an *index*, never an approximation: membership is always
//! decided by an exact `distance_sq ≤ r²` test, the cells only bound
//! which candidates get tested. Positions outside the nominal bounds are
//! clamped into the border cells. Clamping is monotone per axis, so the
//! cell range scanned for `[p − r, p + r]` always covers every cell a
//! point within `r` of `p` can occupy — queries stay exact even for
//! out-of-field positions. The differential property suite
//! (`tests/spatial_properties.rs`) checks `neighbors_within` against a
//! brute-force scan after arbitrary insert/move/remove histories.
//!
//! # Determinism
//!
//! Query results are sorted ascending by node id before being returned,
//! so they are independent of insertion order and of how nodes migrated
//! between cells — a requirement for the byte-identical event traces the
//! scenario engine guarantees.
//!
//! # Examples
//!
//! ```
//! use qolsr_graph::{NodeId, Point2, SpatialGrid};
//!
//! let mut grid = SpatialGrid::new(1000.0, 1000.0, 100.0);
//! grid.insert(NodeId(0), Point2::new(10.0, 10.0));
//! grid.insert(NodeId(1), Point2::new(60.0, 10.0));
//! grid.insert(NodeId(2), Point2::new(900.0, 900.0));
//!
//! assert_eq!(
//!     grid.neighbors_within(Point2::new(0.0, 0.0), 100.0),
//!     vec![NodeId(0), NodeId(1)],
//! );
//! grid.move_node(NodeId(1), Point2::new(950.0, 950.0));
//! assert_eq!(
//!     grid.neighbors_within(Point2::new(1000.0, 1000.0), 150.0),
//!     vec![NodeId(1), NodeId(2)],
//! );
//! ```

use crate::geometry::Point2;
use crate::ids::NodeId;

/// Where one indexed node currently lives.
#[derive(Debug, Clone, Copy)]
struct Slot {
    pos: Point2,
    cell: usize,
}

/// Entries a cell holds before spilling to the heap. At radius-sized
/// cells and paper densities the mean occupancy is ~3, so nearly every
/// cell stays inline and the whole grid is one flat allocation the query
/// loop walks sequentially.
const CELL_INLINE: usize = 6;

/// One grid cell: id+position entries, unordered. Positions are stored
/// with the ids so the query hot loop never chases a per-node lookup.
#[derive(Debug, Clone)]
struct Cell {
    len: u32,
    inline: [(u32, Point2); CELL_INLINE],
    spill: Vec<(u32, Point2)>,
}

impl Cell {
    fn empty() -> Self {
        Self {
            len: 0,
            inline: [(0, Point2::new(0.0, 0.0)); CELL_INLINE],
            spill: Vec::new(),
        }
    }

    fn push(&mut self, entry: (u32, Point2)) {
        let at = self.len as usize;
        if at < CELL_INLINE {
            self.inline[at] = entry;
        } else {
            self.spill.push(entry);
        }
        self.len += 1;
    }

    fn entry_mut(&mut self, i: usize) -> &mut (u32, Point2) {
        if i < CELL_INLINE {
            &mut self.inline[i]
        } else {
            &mut self.spill[i - CELL_INLINE]
        }
    }

    fn find(&self, id: u32) -> Option<usize> {
        let inline_len = (self.len as usize).min(CELL_INLINE);
        if let Some(i) = self.inline[..inline_len].iter().position(|&(m, _)| m == id) {
            return Some(i);
        }
        self.spill
            .iter()
            .position(|&(m, _)| m == id)
            .map(|i| i + CELL_INLINE)
    }

    /// Removes entry `i`, moving the last entry into its place.
    fn swap_remove(&mut self, i: usize) {
        let last = self.len as usize - 1;
        let last_entry = if last < CELL_INLINE {
            self.inline[last]
        } else {
            self.spill.pop().expect("spill holds entries past inline")
        };
        if i != last {
            *self.entry_mut(i) = last_entry;
        }
        self.len -= 1;
    }

    fn scan(&self, center: Point2, r_sq: f64, out: &mut Vec<NodeId>) {
        let inline_len = (self.len as usize).min(CELL_INLINE);
        for &(m, pos) in &self.inline[..inline_len] {
            if center.distance_sq(pos) <= r_sq {
                out.push(NodeId(m));
            }
        }
        for &(m, pos) in &self.spill {
            if center.distance_sq(pos) <= r_sq {
                out.push(NodeId(m));
            }
        }
    }
}

/// A uniform cell grid over 2-D positions supporting incremental updates
/// and exact radius queries (see the module-level docs at the top of
/// `spatial.rs` for the exactness and determinism contracts).
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell: f64,
    cols: i64,
    rows: i64,
    cells: Vec<Cell>,
    /// Per node id: current position and cell, `None` while absent.
    slots: Vec<Option<Slot>>,
    len: usize,
}

impl SpatialGrid {
    /// Creates an empty grid covering `width × height` with square cells
    /// of side `cell`. Positions outside the covered rectangle are
    /// accepted and clamped into the border cells (queries stay exact;
    /// only their cost degrades if many nodes pile up out of bounds).
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the cell side is not positive and
    /// finite.
    pub fn new(width: f64, height: f64, cell: f64) -> Self {
        assert!(
            width > 0.0 && width.is_finite() && height > 0.0 && height.is_finite(),
            "grid bounds must be positive and finite"
        );
        assert!(
            cell > 0.0 && cell.is_finite(),
            "cell side must be positive and finite"
        );
        let cols = (width / cell).ceil().max(1.0) as i64;
        let rows = (height / cell).ceil().max(1.0) as i64;
        Self {
            cell,
            cols,
            rows,
            cells: vec![Cell::empty(); (cols * rows) as usize],
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Builds a grid over `positions`, indexing position `i` as
    /// `NodeId(i)` — the deployment and dynamic-world constructor path.
    pub fn from_positions(width: f64, height: f64, cell: f64, positions: &[Point2]) -> Self {
        let mut grid = Self::new(width, height, cell);
        for (i, &p) in positions.iter().enumerate() {
            grid.insert(NodeId(i as u32), p);
        }
        grid
    }

    /// Number of currently indexed nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no node is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current indexed position of `n`, or `None` while absent.
    pub fn position(&self, n: NodeId) -> Option<Point2> {
        self.slots.get(n.index()).and_then(|s| s.map(|s| s.pos))
    }

    /// Returns `true` if `n` is currently indexed.
    pub fn contains(&self, n: NodeId) -> bool {
        self.position(n).is_some()
    }

    /// Column/row of the cell covering `p`, clamped into bounds.
    fn cell_coords(&self, p: Point2) -> (i64, i64) {
        (
            ((p.x / self.cell).floor() as i64).clamp(0, self.cols - 1),
            ((p.y / self.cell).floor() as i64).clamp(0, self.rows - 1),
        )
    }

    fn cell_index(&self, p: Point2) -> usize {
        let (cx, cy) = self.cell_coords(p);
        (cy * self.cols + cx) as usize
    }

    /// Indexes `n` at `p`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is already indexed (use [`SpatialGrid::move_node`])
    /// or if a coordinate is NaN.
    pub fn insert(&mut self, n: NodeId, p: Point2) {
        assert!(!p.x.is_nan() && !p.y.is_nan(), "position must not be NaN");
        if self.slots.len() <= n.index() {
            self.slots.resize(n.index() + 1, None);
        }
        let slot = &mut self.slots[n.index()];
        assert!(slot.is_none(), "node {n} is already indexed");
        let cell = self.cell_index(p);
        self.slots[n.index()] = Some(Slot { pos: p, cell });
        self.cells[cell].push((n.0, p));
        self.len += 1;
    }

    /// Removes `n` from the index and returns its last position.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not indexed.
    pub fn remove(&mut self, n: NodeId) -> Point2 {
        let slot = self
            .slots
            .get_mut(n.index())
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("node {n} is not indexed"));
        let bucket = &mut self.cells[slot.cell];
        let at = bucket.find(n.0).expect("slot cell must contain the node");
        bucket.swap_remove(at);
        self.len -= 1;
        slot.pos
    }

    /// Moves `n` to `to`, migrating it between cells only when needed —
    /// the O(1) hot-path update behind per-tick waypoint motion.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not indexed or a coordinate is NaN.
    pub fn move_node(&mut self, n: NodeId, to: Point2) {
        assert!(!to.x.is_nan() && !to.y.is_nan(), "position must not be NaN");
        let new_cell = self.cell_index(to);
        let slot = self
            .slots
            .get_mut(n.index())
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("node {n} is not indexed"));
        let old_cell = slot.cell;
        slot.pos = to;
        slot.cell = new_cell;
        let bucket = &mut self.cells[old_cell];
        let at = bucket.find(n.0).expect("slot cell must contain the node");
        if old_cell == new_cell {
            bucket.entry_mut(at).1 = to;
        } else {
            bucket.swap_remove(at);
            self.cells[new_cell].push((n.0, to));
        }
    }

    /// All indexed nodes within `radius` of `center` (inclusive), sorted
    /// ascending by id. A node exactly at `center` is included — callers
    /// discovering neighbors *of* an indexed node filter it out.
    pub fn neighbors_within(&self, center: Point2, radius: f64) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.neighbors_within_into(center, radius, &mut out);
        out
    }

    /// [`SpatialGrid::neighbors_within`] writing into a caller-provided
    /// buffer (cleared first) so tick loops can reuse one allocation.
    pub fn neighbors_within_into(&self, center: Point2, radius: f64, out: &mut Vec<NodeId>) {
        out.clear();
        assert!(radius >= 0.0, "radius must be non-negative");
        let r_sq = radius * radius;
        let (lo_x, lo_y) = self.cell_coords(Point2::new(center.x - radius, center.y - radius));
        let (hi_x, hi_y) = self.cell_coords(Point2::new(center.x + radius, center.y + radius));
        for cy in lo_y..=hi_y {
            let row = cy * self.cols;
            for cx in lo_x..=hi_x {
                self.cells[(row + cx) as usize].scan(center, r_sq, out);
            }
        }
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid3() -> SpatialGrid {
        let mut g = SpatialGrid::new(300.0, 300.0, 100.0);
        g.insert(NodeId(0), Point2::new(10.0, 10.0));
        g.insert(NodeId(1), Point2::new(150.0, 150.0));
        g.insert(NodeId(2), Point2::new(290.0, 290.0));
        g
    }

    #[test]
    fn queries_are_exact_and_sorted() {
        let g = grid3();
        assert_eq!(g.len(), 3);
        assert_eq!(
            g.neighbors_within(Point2::new(0.0, 0.0), 500.0),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
        assert_eq!(
            g.neighbors_within(Point2::new(150.0, 150.0), 0.0),
            vec![NodeId(1)],
            "zero radius hits only exact matches"
        );
        assert!(g.neighbors_within(Point2::new(80.0, 80.0), 10.0).is_empty());
    }

    #[test]
    fn boundary_distance_is_inclusive() {
        let mut g = SpatialGrid::new(100.0, 100.0, 25.0);
        g.insert(NodeId(0), Point2::new(0.0, 0.0));
        g.insert(NodeId(1), Point2::new(50.0, 0.0));
        assert_eq!(
            g.neighbors_within(Point2::new(0.0, 0.0), 50.0),
            vec![NodeId(0), NodeId(1)]
        );
    }

    #[test]
    fn move_node_migrates_cells() {
        let mut g = grid3();
        g.move_node(NodeId(0), Point2::new(295.0, 295.0));
        assert!(g.neighbors_within(Point2::new(10.0, 10.0), 30.0).is_empty());
        assert_eq!(
            g.neighbors_within(Point2::new(290.0, 290.0), 30.0),
            vec![NodeId(0), NodeId(2)]
        );
        assert_eq!(g.position(NodeId(0)), Some(Point2::new(295.0, 295.0)));
        // In-cell move keeps the index consistent too.
        g.move_node(NodeId(0), Point2::new(296.0, 296.0));
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn remove_and_reinsert() {
        let mut g = grid3();
        let p = g.remove(NodeId(1));
        assert_eq!(p, Point2::new(150.0, 150.0));
        assert_eq!(g.len(), 2);
        assert!(!g.contains(NodeId(1)));
        assert!(g
            .neighbors_within(Point2::new(150.0, 150.0), 10.0)
            .is_empty());
        g.insert(NodeId(1), Point2::new(20.0, 10.0));
        assert_eq!(
            g.neighbors_within(Point2::new(10.0, 10.0), 15.0),
            vec![NodeId(0), NodeId(1)]
        );
    }

    #[test]
    fn out_of_bounds_positions_are_exact() {
        let mut g = SpatialGrid::new(100.0, 100.0, 50.0);
        g.insert(NodeId(0), Point2::new(-40.0, 50.0));
        g.insert(NodeId(1), Point2::new(400.0, 50.0));
        // Far outside on the left: only reachable with a big radius.
        assert!(g.neighbors_within(Point2::new(10.0, 50.0), 40.0).is_empty());
        assert_eq!(
            g.neighbors_within(Point2::new(10.0, 50.0), 50.0),
            vec![NodeId(0)]
        );
        assert_eq!(
            g.neighbors_within(Point2::new(390.0, 50.0), 10.0),
            vec![NodeId(1)]
        );
    }

    #[test]
    #[should_panic(expected = "already indexed")]
    fn double_insert_rejected() {
        let mut g = grid3();
        g.insert(NodeId(0), Point2::new(0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "not indexed")]
    fn removing_absent_node_rejected() {
        let mut g = grid3();
        g.remove(NodeId(7));
    }

    #[test]
    #[should_panic(expected = "cell side must be positive")]
    fn zero_cell_rejected() {
        let _ = SpatialGrid::new(10.0, 10.0, 0.0);
    }

    #[test]
    fn from_positions_indexes_by_slot() {
        let ps = [Point2::new(1.0, 1.0), Point2::new(2.0, 2.0)];
        let g = SpatialGrid::from_positions(10.0, 10.0, 5.0, &ps);
        assert_eq!(g.len(), 2);
        assert_eq!(g.position(NodeId(1)), Some(Point2::new(2.0, 2.0)));
    }
}
