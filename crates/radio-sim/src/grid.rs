//! Uniform spatial grid over node positions — the audibility-candidate
//! index that flattens link-cache row construction from O(n) to
//! O(local density).
//!
//! Audibility is distance-bounded (see [`crate::shard::max_audible_range`]):
//! beyond `r_max` no link can ever reach the modulation's sensitivity,
//! shadowing included. The grid buckets nodes into square cells of side
//! **at least** `r_max`, so every node within `r_max` of a position `p`
//! lies in the 3×3 block of cells around `p`'s cell — any point closer
//! than one cell side can shift the cell index by at most one per axis.
//! [`Grid::for_each_candidate`] therefore visits a *superset* of the
//! audible set by scanning at most nine cells instead of all n nodes.
//!
//! **Soundness** is the one property the engine relies on — candidates
//! ⊇ every node within `r_max` (`tests/grid_model.rs` checks this
//! against brute force). A node *outside* the candidate set is provably
//! inaudible, so a link row never needs to look at it: rows hold the
//! audible set only and *absent ≡ silent*
//! ([`crate::link_cache`]). The visit order is unspecified (cell by
//! cell); a row fill sorts the few audible survivors, so audible lists
//! and float-sum orders are still byte-identical to a full ascending
//! scan's. [`Grid::candidates_into`] is the same visit, sorted.
//!
//! The grid is value-only state, rebuilt from scratch (O(n), no
//! allocation after the first build) on exactly the events that move a
//! node: mobility ticks, explicit `set_position` calls and node
//! additions.

use lora_phy::propagation::Position;

/// Cap on cells per axis: bounds grid memory to O(n) even when `r_max`
/// is tiny relative to the deployment area (cells just get coarser,
/// which only ever *adds* candidates — soundness is one-sided).
const MAX_CELLS_PER_AXIS: usize = 256;

/// A uniform cell grid over the current node positions.
///
/// Storage is a counting-sort CSR layout: `starts[c]..starts[c + 1]`
/// indexes the slice of `items` (node indices, ascending) bucketed in
/// cell `c`. Rebuilds reuse both allocations.
#[derive(Debug, Default)]
pub struct Grid {
    /// Cell side length in metres (≥ the `r_max` the grid was built
    /// with; +∞ collapses everything into one cell, which stays sound).
    cell: f64,
    /// Bounding-box origin of the node positions.
    min_x: f64,
    min_y: f64,
    /// Cells per axis.
    cols: usize,
    rows: usize,
    /// CSR cell offsets into `items` (`cols * rows + 1` entries).
    starts: Vec<u32>,
    /// Node indices grouped by cell, ascending within each cell.
    items: Vec<u32>,
    /// Per-cell write positions of the counting sort, kept between
    /// rebuilds so a rebuild allocates nothing.
    cursor: Vec<u32>,
}

impl Grid {
    /// An empty grid (no nodes, no cells).
    #[must_use]
    pub fn new() -> Self {
        Grid::default()
    }

    /// Rebuilds the grid over `positions` with audibility bound `r_max`,
    /// reusing existing allocations. An empty position set or a
    /// non-positive/non-finite `r_max` yields a degenerate single-cell
    /// grid (every node is everyone's candidate — trivially sound).
    pub fn rebuild(&mut self, positions: &[Position], r_max: f64) {
        self.rebuild_from(positions.iter().copied(), r_max);
    }

    /// [`Grid::rebuild`] over any re-iterable position source, so callers
    /// holding positions inside larger records need not copy them out.
    pub fn rebuild_from<I>(&mut self, positions: I, r_max: f64)
    where
        I: Iterator<Item = Position> + ExactSizeIterator + Clone,
    {
        let n = positions.len();
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in positions.clone() {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        if n == 0 {
            min_x = 0.0;
            min_y = 0.0;
            max_x = 0.0;
            max_y = 0.0;
        }
        // The cell side must be at least r_max for the 3×3 soundness
        // argument, at least the span/MAX_CELLS quotient for the memory
        // bound, and positive so the index math below is well defined.
        let span = (max_x - min_x).max(max_y - min_y).max(1.0);
        let mut cell = r_max.max(span / MAX_CELLS_PER_AXIS as f64);
        if !cell.is_finite() || cell <= 0.0 {
            cell = f64::INFINITY;
        }
        self.cell = cell;
        self.min_x = min_x;
        self.min_y = min_y;
        self.cols = Self::axis_cells(max_x - min_x, cell);
        self.rows = Self::axis_cells(max_y - min_y, cell);

        // Counting sort by cell; pushing nodes in index order keeps each
        // cell's slice ascending.
        let cells = self.cols * self.rows;
        self.starts.clear();
        self.starts.resize(cells + 1, 0);
        for p in positions.clone() {
            let c = self.cell_of(p);
            if let Some(count) = self.starts.get_mut(c + 1) {
                *count += 1;
            }
        }
        let mut running = 0u32;
        for s in &mut self.starts {
            running = running.wrapping_add(*s);
            *s = running;
        }
        self.items.clear();
        self.items.resize(n, 0);
        let mut cursor = std::mem::take(&mut self.cursor);
        cursor.clear();
        cursor.extend_from_slice(&self.starts);
        for (i, p) in positions.enumerate() {
            let c = self.cell_of(p);
            if let Some(slot) = cursor.get_mut(c) {
                let at = *slot as usize;
                if let Some(item) = self.items.get_mut(at) {
                    // Node count < 2^32 by construction.
                    *item = i as u32;
                }
                *slot += 1;
            }
        }
        self.cursor = cursor;
    }

    /// Number of cells along one axis covering a span of `extent`.
    fn axis_cells(extent: f64, cell: f64) -> usize {
        if !extent.is_finite() || extent <= 0.0 || cell == f64::INFINITY {
            return 1;
        }
        // The quotient is clamped to MAX_CELLS_PER_AXIS right away.
        (((extent / cell).floor() as usize) + 1).min(MAX_CELLS_PER_AXIS)
    }

    /// The flat cell index containing `p` (clamped into range, so
    /// positions outside the build-time bounding box are still valid).
    fn cell_of(&self, p: Position) -> usize {
        let col = Self::axis_index(p.x - self.min_x, self.cell, self.cols);
        let row = Self::axis_index(p.y - self.min_y, self.cell, self.rows);
        row * self.cols + col
    }

    /// One axis of `cell_of`, clamped to `[0, cells)`.
    fn axis_index(offset: f64, cell: f64, cells: usize) -> usize {
        if cell == f64::INFINITY || cells <= 1 {
            return 0;
        }
        // The cast truncates toward zero and saturates (NaN → 0), so it
        // floors every non-negative quotient and maps the rest to cell
        // 0; clamped to the cell count right after.
        ((offset / cell) as usize).min(cells - 1)
    }

    /// The 3×3 block of cells around `p` as at most three slices of
    /// node indices: the cells of one grid row are adjacent in the CSR
    /// layout, so each row of the block is one contiguous run.
    fn block(&self, p: Position) -> impl Iterator<Item = &[u32]> + '_ {
        let col = Self::axis_index(p.x - self.min_x, self.cell, self.cols);
        let row = Self::axis_index(p.y - self.min_y, self.cell, self.rows);
        let (c0, c1) = (col.saturating_sub(1), (col + 2).min(self.cols));
        (row.saturating_sub(1)..(row + 2).min(self.rows)).filter_map(move |r| {
            let lo = *self.starts.get(r * self.cols + c0)? as usize;
            let hi = *self.starts.get(r * self.cols + c1)? as usize;
            self.items.get(lo..hi)
        })
    }

    /// Calls `visit` with every node index whose cell is within one
    /// cell of `p`'s — a superset of all nodes within `r_max` of `p` —
    /// each exactly once, in no particular order.
    pub fn for_each_candidate(&self, p: Position, mut visit: impl FnMut(usize)) {
        for run in self.block(p) {
            for &i in run {
                visit(i as usize);
            }
        }
    }

    /// [`Grid::for_each_candidate`] collected into `out` (cleared first)
    /// in ascending index order.
    pub fn candidates_into(&self, p: Position, out: &mut Vec<usize>) {
        out.clear();
        self.for_each_candidate(p, |i| out.push(i));
        // Cells are disjoint, so a sort (no dedup) yields one global
        // ascending order.
        out.sort_unstable();
    }

    /// The number of candidates around `p` — the node's *audible degree
    /// upper bound*, used as the occupancy weight when partitioning the
    /// world into shard bands.
    #[must_use]
    pub fn degree(&self, p: Position) -> usize {
        self.block(p).map(<[u32]>::len).sum()
    }

    /// The cell side the last rebuild settled on (test introspection).
    #[must_use]
    pub fn cell_side(&self) -> f64 {
        self.cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_over(ps: &[(f64, f64)], r_max: f64) -> (Grid, Vec<Position>) {
        let positions: Vec<Position> = ps.iter().map(|&(x, y)| Position::new(x, y)).collect();
        let mut g = Grid::new();
        g.rebuild(&positions, r_max);
        (g, positions)
    }

    fn candidates(g: &Grid, p: Position) -> Vec<usize> {
        let mut out = Vec::new();
        g.candidates_into(p, &mut out);
        out
    }

    #[test]
    fn candidates_cover_everything_within_r_max() {
        let pts: Vec<(f64, f64)> = (0..40)
            .map(|i| (f64::from(i % 8) * 37.0, f64::from(i / 8) * 53.0))
            .collect();
        let (g, positions) = grid_over(&pts, 60.0);
        for (i, &pi) in positions.iter().enumerate() {
            let cand = candidates(&g, pi);
            for (j, &pj) in positions.iter().enumerate() {
                if pi.distance(&pj) <= 60.0 {
                    assert!(
                        cand.binary_search(&j).is_ok(),
                        "node {j} within r_max of node {i} but not a candidate"
                    );
                }
            }
        }
    }

    #[test]
    fn candidates_are_ascending_and_unique() {
        let pts: Vec<(f64, f64)> = (0..30).map(|i| (f64::from(i) * 11.0, 0.0)).collect();
        let (g, positions) = grid_over(&pts, 25.0);
        for &p in &positions {
            let cand = candidates(&g, p);
            assert!(cand.windows(2).all(|w| w[0] < w[1]), "{cand:?}");
        }
    }

    #[test]
    fn far_clusters_are_not_candidates_of_each_other() {
        let mut pts: Vec<(f64, f64)> = (0..5).map(|i| (f64::from(i) * 10.0, 0.0)).collect();
        pts.extend((0..5).map(|i| (1.0e6 + f64::from(i) * 10.0, 0.0)));
        let (g, positions) = grid_over(&pts, 100.0);
        let near = candidates(&g, positions[0]);
        assert!(
            near.iter().all(|&j| j < 5),
            "distant cluster leaked: {near:?}"
        );
    }

    #[test]
    fn zero_and_infinite_r_max_are_sound() {
        // r_max = 0 (hopeless link budget): candidate sets may be anything
        // ⊇ ∅; the grid must simply not panic and stay ascending.
        let (g, positions) = grid_over(&[(0.0, 0.0), (5.0, 5.0)], 0.0);
        for &p in &positions {
            let cand = candidates(&g, p);
            assert!(cand.windows(2).all(|w| w[0] < w[1]));
        }
        // Gigantic r_max collapses to one cell: everyone is a candidate.
        let (g, positions) = grid_over(&[(0.0, 0.0), (1.0e9, 0.0), (0.0, 1.0e9)], 1.0e12);
        for &p in &positions {
            assert_eq!(candidates(&g, p), vec![0, 1, 2]);
        }
    }

    #[test]
    fn cell_cap_coarsens_but_stays_sound() {
        // Span 1e6 m with r_max 1 m would want a million cells; the cap
        // forces coarser cells, which must still cover the r_max ball.
        let pts: Vec<(f64, f64)> = (0..100).map(|i| (f64::from(i) * 10_101.0, 0.0)).collect();
        let (g, positions) = grid_over(&pts, 1.0);
        assert!(g.cell_side() >= 1.0);
        for (i, &pi) in positions.iter().enumerate() {
            let cand = candidates(&g, pi);
            assert!(cand.binary_search(&i).is_ok(), "node {i} misses itself");
        }
    }

    #[test]
    fn degree_matches_candidate_count() {
        let pts: Vec<(f64, f64)> = (0..25)
            .map(|i| (f64::from(i % 5) * 40.0, f64::from(i / 5) * 40.0))
            .collect();
        let (g, positions) = grid_over(&pts, 50.0);
        for &p in &positions {
            assert_eq!(g.degree(p), candidates(&g, p).len());
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let mut g = Grid::new();
        g.rebuild(&[], 10.0);
        let mut out = vec![7usize];
        g.candidates_into(Position::new(3.0, 4.0), &mut out);
        assert!(out.is_empty());
        assert_eq!(g.degree(Position::new(0.0, 0.0)), 0);
    }

    #[test]
    fn rebuild_reflects_moved_nodes() {
        let mut positions = vec![Position::new(0.0, 0.0), Position::new(1.0e6, 0.0)];
        let mut g = Grid::new();
        g.rebuild(&positions, 100.0);
        assert_eq!(candidates(&g, positions[0]), vec![0]);
        positions[1] = Position::new(50.0, 0.0);
        g.rebuild(&positions, 100.0);
        assert_eq!(candidates(&g, positions[0]), vec![0, 1]);
    }
}
