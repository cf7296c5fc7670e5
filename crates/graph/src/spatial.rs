//! Uniform-grid spatial index over node positions.
//!
//! The scaling bottleneck of every construction in this repository is the
//! same query: *which nodes lie within distance `r` of a point?* The naive
//! answer scans all `n` nodes, which makes [`unit_disk_graph`] and the
//! simulator's broadcast delivery `O(n²)` — fine for the paper's 100-node
//! networks (§5), fatal at the 10⁴–10⁵ nodes the churn experiments run.
//!
//! [`SpatialGrid`] buckets node IDs by square cell of a fixed side
//! (typically the maximum radio range `R`). A disk query of radius `r ≤ R`
//! then touches at most the 3 × 3 block of cells around the center, so
//! queries cost `O(candidates)` instead of `O(n)`, and [`SpatialGrid::update`]
//! maintains the index incrementally as nodes move — the operation mobility
//! models perform millions of times.
//!
//! The index stores only IDs, never positions: the caller (who owns the
//! [`Layout`]) filters candidates by exact distance. This keeps the grid
//! impossible to de-synchronize from positions *except* through the
//! `insert`/`remove`/`update` calls themselves, which the owner performs
//! alongside its own position writes.
//!
//! [`CellList`] is the static counterpart: one flat CSR array over a
//! fixed layout's bounding box, built once and thrown away. Both answer
//! the shell-ring queries of [`RingIndex`], which is what
//! [`ShellScan`] — and through it the output-sensitive CBTC growing
//! phase — runs on.
//!
//! [`unit_disk_graph`]: crate::unit_disk::unit_disk_graph

use std::collections::HashMap;

use cbtc_geom::Point2;

use crate::{Layout, NodeId};

/// The cell of `p` in a grid of side `cell`: `(⌊x / cell⌋, ⌊y / cell⌋)`,
/// the one assignment every index here shares.
fn cell_of(p: Point2, cell: f64) -> (i64, i64) {
    ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
}

/// A square-cell index that enumerates Chebyshev rings of cells — the
/// query [`ShellScan`] is built on.
///
/// Every implementation puts a point in cell `(⌊x / cell⌋, ⌊y / cell⌋)`,
/// so the ring bounds are provided methods, and two indexes of the same
/// nodes with the same cell side deliver the same ID *set* for every
/// ring (each in its own order).
pub trait RingIndex {
    /// The cell side length.
    fn cell_size(&self) -> f64;

    /// Appends to `out` every indexed ID in a cell at Chebyshev distance
    /// exactly `ring` from the cell containing `center` — the shell query
    /// underlying output-sensitive neighbor enumeration. Ring `0` is the
    /// center cell itself; ring `k ≥ 1` is the square annulus of `8k`
    /// cells around it.
    ///
    /// Scanning rings `0, 1, 2, …` enumerates candidates in roughly
    /// increasing distance: every node in a ring `> k` is at least
    /// [`RingIndex::ring_min_distance`]`(center, k + 1)` away, so a
    /// caller that consumes candidates nearest-first (see
    /// [`RingIndex::shell_scan`]) can stop as soon as its query resolves
    /// — without ever touching the farther cells.
    fn candidates_in_ring(&self, center: Point2, ring: u32, out: &mut Vec<NodeId>);

    /// A lower bound on the distance from `center` to any point of any
    /// cell in ring `ring` *or beyond*: the distance from `center` to the
    /// boundary of the block of cells covered by rings `0..ring`.
    ///
    /// Monotone in `ring`; `0` for rings `0` and (when `center` sits on a
    /// cell edge) `1`.
    fn ring_min_distance(&self, center: Point2, ring: u32) -> f64 {
        if ring == 0 {
            return 0.0;
        }
        let cell = self.cell_size();
        let (cx, cy) = cell_of(center, cell);
        let k = i64::from(ring) - 1;
        let x_lo = (cx - k) as f64 * cell;
        let x_hi = (cx + k + 1) as f64 * cell;
        let y_lo = (cy - k) as f64 * cell;
        let y_hi = (cy + k + 1) as f64 * cell;
        (center.x - x_lo)
            .min(x_hi - center.x)
            .min(center.y - y_lo)
            .min(y_hi - center.y)
            .max(0.0)
    }

    /// The largest ring that can contain a node within `radius` of a
    /// center point: rings beyond `⌊radius/cell⌋ + 1` lie entirely outside
    /// the query disk.
    ///
    /// # Panics
    ///
    /// Panics unless `radius` is finite and non-negative.
    fn rings_to_cover(&self, radius: f64) -> u32 {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "query radius must be finite and non-negative, got {radius}"
        );
        ((radius / self.cell_size()).floor() as u32).saturating_add(1)
    }

    /// Starts an expanding shell scan: candidates within `radius` of
    /// `center`, delivered ring by ring in roughly increasing distance.
    ///
    /// # Panics
    ///
    /// Panics unless `radius` is finite and non-negative.
    fn shell_scan(&self, center: Point2, radius: f64) -> ShellScan<'_, Self> {
        ShellScan {
            max_ring: self.rings_to_cover(radius),
            index: self,
            center,
            next_ring: 0,
        }
    }
}

/// A uniform grid over the plane bucketing node IDs by cell.
///
/// # Example
///
/// ```
/// use cbtc_geom::Point2;
/// use cbtc_graph::{Layout, NodeId, SpatialGrid};
///
/// let layout = Layout::new(vec![
///     Point2::new(0.0, 0.0),
///     Point2::new(30.0, 40.0),
///     Point2::new(900.0, 900.0),
/// ]);
/// let grid = SpatialGrid::from_layout(&layout, 100.0);
/// let mut hits = Vec::new();
/// grid.candidates_within(Point2::new(0.0, 0.0), 60.0, &mut hits);
/// // Candidate cells cover the query disk; the far node is never visited.
/// assert!(hits.contains(&NodeId::new(0)));
/// assert!(hits.contains(&NodeId::new(1)));
/// assert!(!hits.contains(&NodeId::new(2)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpatialGrid {
    cell: f64,
    buckets: HashMap<(i64, i64), Vec<NodeId>>,
    len: usize,
}

impl SpatialGrid {
    /// Creates an empty grid with square cells of side `cell`.
    ///
    /// Pick `cell` close to the dominant query radius: queries of radius
    /// `r` touch `⌈r/cell⌉ + 1` cells per axis, so a cell much smaller
    /// than `r` visits many cells and a cell much larger dilutes each
    /// bucket with far-away nodes.
    ///
    /// # Panics
    ///
    /// Panics unless `cell` is positive and finite.
    pub fn new(cell: f64) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "cell side must be positive and finite, got {cell}"
        );
        SpatialGrid {
            cell,
            buckets: HashMap::new(),
            len: 0,
        }
    }

    /// Builds a grid containing every node of `layout`.
    ///
    /// # Panics
    ///
    /// Panics unless `cell` is positive and finite.
    pub fn from_layout(layout: &Layout, cell: f64) -> Self {
        let mut grid = SpatialGrid::new(cell);
        for (id, p) in layout.iter() {
            grid.insert(id, p);
        }
        grid
    }

    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the grid holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn cell_of(&self, p: Point2) -> (i64, i64) {
        cell_of(p, self.cell)
    }

    /// Indexes `id` at position `p`.
    ///
    /// The caller must not insert an ID that is already present (the grid
    /// does not deduplicate; a double insert would make the ID appear
    /// twice in query results until both copies are removed).
    pub fn insert(&mut self, id: NodeId, p: Point2) {
        self.buckets.entry(self.cell_of(p)).or_default().push(id);
        self.len += 1;
    }

    /// Removes `id`, which was last indexed at position `p`. Returns
    /// whether the ID was found in `p`'s cell.
    pub fn remove(&mut self, id: NodeId, p: Point2) -> bool {
        let key = self.cell_of(p);
        let Some(bucket) = self.buckets.get_mut(&key) else {
            return false;
        };
        let Some(i) = bucket.iter().position(|&x| x == id) else {
            return false;
        };
        bucket.swap_remove(i);
        if bucket.is_empty() {
            self.buckets.remove(&key);
        }
        self.len -= 1;
        true
    }

    /// Re-indexes `id` after it moved from `from` to `to` — the
    /// incremental-maintenance operation mobility models drive. A move
    /// within one cell is free.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not indexed at `from` (the index would silently
    /// diverge from the caller's positions otherwise).
    pub fn update(&mut self, id: NodeId, from: Point2, to: Point2) {
        if self.cell_of(from) == self.cell_of(to) {
            return;
        }
        assert!(
            self.remove(id, from),
            "node {id} is not indexed at {from}; grid out of sync with positions"
        );
        self.insert(id, to);
    }

    /// Appends to `out` every indexed ID whose cell intersects the disk of
    /// radius `radius` around `center` — a superset of the IDs within the
    /// disk. The caller filters by exact distance; `out` is appended in
    /// deterministic (cell-scan) order but not sorted.
    ///
    /// # Panics
    ///
    /// Panics unless `radius` is finite and non-negative.
    pub fn candidates_within(&self, center: Point2, radius: f64, out: &mut Vec<NodeId>) {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "query radius must be finite and non-negative, got {radius}"
        );
        let (cx0, cy0) = self.cell_of(Point2::new(center.x - radius, center.y - radius));
        let (cx1, cy1) = self.cell_of(Point2::new(center.x + radius, center.y + radius));
        // When the query disk spans more cells than the grid holds nodes,
        // scanning buckets directly is cheaper than scanning empty cells.
        let span = (cx1 - cx0 + 1) as u64 * (cy1 - cy0 + 1) as u64;
        if span > self.buckets.len() as u64 {
            // Deterministic regardless of HashMap order: collect, then sort.
            let start = out.len();
            for (&(cx, cy), bucket) in &self.buckets {
                if (cx0..=cx1).contains(&cx) && (cy0..=cy1).contains(&cy) {
                    out.extend_from_slice(bucket);
                }
            }
            out[start..].sort_unstable();
            return;
        }
        for cx in cx0..=cx1 {
            for cy in cy0..=cy1 {
                if let Some(bucket) = self.buckets.get(&(cx, cy)) {
                    out.extend_from_slice(bucket);
                }
            }
        }
    }

    /// The IDs within exact distance `radius` of node `u` (excluding `u`
    /// itself), sorted by ID. Convenience wrapper over
    /// [`SpatialGrid::candidates_within`] + distance filtering against
    /// `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range for `layout` or `radius` is invalid.
    pub fn neighbors_within(&self, layout: &Layout, u: NodeId, radius: f64) -> Vec<NodeId> {
        let center = layout.position(u);
        let r2 = radius * radius;
        let mut out = Vec::new();
        self.candidates_within(center, radius, &mut out);
        out.retain(|&v| v != u && layout.position(v).distance_squared(center) <= r2);
        out.sort_unstable();
        out
    }
}

impl RingIndex for SpatialGrid {
    fn cell_size(&self) -> f64 {
        self.cell
    }

    fn candidates_in_ring(&self, center: Point2, ring: u32, out: &mut Vec<NodeId>) {
        let (cx, cy) = self.cell_of(center);
        let mut take = |x: i64, y: i64| {
            if let Some(bucket) = self.buckets.get(&(x, y)) {
                out.extend_from_slice(bucket);
            }
        };
        if ring == 0 {
            take(cx, cy);
            return;
        }
        let k = i64::from(ring);
        for x in (cx - k)..=(cx + k) {
            take(x, cy - k);
            take(x, cy + k);
        }
        for y in (cy - k + 1)..=(cy + k - 1) {
            take(cx - k, y);
            take(cx + k, y);
        }
    }
}

/// An in-progress expanding shell (annulus) scan over a [`RingIndex`].
///
/// Created by [`RingIndex::shell_scan`]. Each [`ShellScan::scan_next`]
/// call appends the candidates of the next Chebyshev ring;
/// [`ShellScan::guaranteed_radius`] reports the distance below which the
/// already-scanned rings are *complete* — every indexed node closer than
/// that bound has been delivered. This is the contract the
/// output-sensitive CBTC growing phase needs: consume candidates
/// nearest-first, scan further rings only while the decision is still
/// open, and never enumerate the far side of the layout at all.
///
/// # Example
///
/// ```
/// use cbtc_geom::Point2;
/// use cbtc_graph::{Layout, RingIndex, SpatialGrid};
///
/// let layout = Layout::new(vec![Point2::new(5.0, 5.0), Point2::new(95.0, 5.0)]);
/// let grid = SpatialGrid::from_layout(&layout, 10.0);
/// let mut scan = grid.shell_scan(Point2::new(5.0, 5.0), 100.0);
/// let mut out = Vec::new();
/// // Ring 0 finds the co-located node; the far node waits in ring 9.
/// assert!(scan.scan_next(&mut out));
/// assert_eq!(out.len(), 1);
/// assert!(scan.guaranteed_radius() > 0.0);
/// while scan.scan_next(&mut out) {}
/// assert_eq!(out.len(), 2);
/// assert_eq!(scan.guaranteed_radius(), f64::INFINITY);
/// ```
#[derive(Debug, Clone)]
pub struct ShellScan<'g, I: ?Sized> {
    index: &'g I,
    center: Point2,
    next_ring: u32,
    max_ring: u32,
}

impl<I: RingIndex + ?Sized> ShellScan<'_, I> {
    /// Appends the next ring's candidates to `out`. Returns `false` once
    /// every ring intersecting the query disk has been scanned (in which
    /// case `out` is untouched).
    pub fn scan_next(&mut self, out: &mut Vec<NodeId>) -> bool {
        if self.next_ring > self.max_ring {
            return false;
        }
        self.index
            .candidates_in_ring(self.center, self.next_ring, out);
        self.next_ring += 1;
        true
    }

    /// Every indexed node *within the query radius* and strictly closer
    /// to the center than this bound has already been delivered by
    /// [`ShellScan::scan_next`]. Infinite once the scan is exhausted (the
    /// query disk is fully covered). Read before a `scan_next`, it is
    /// also a lower bound on the distance of every node that call
    /// delivers.
    pub fn guaranteed_radius(&self) -> f64 {
        if self.next_ring > self.max_ring {
            f64::INFINITY
        } else {
            self.index.ring_min_distance(self.center, self.next_ring)
        }
    }
}

/// A static cell list: the bulk-construction counterpart of
/// [`SpatialGrid`].
///
/// Where `SpatialGrid` hashes cells so it can grow and shrink under
/// incremental updates, `CellList` lays the node IDs of a *fixed* layout
/// out in one flat CSR array over the layout's bounding box — built with a
/// counting sort in `O(n)`, queried with contiguous row slices. Use it
/// when the whole layout is indexed once and thrown away (graph
/// construction, per-probe snapshots); use `SpatialGrid` when positions
/// mutate. As a [`RingIndex`], a ring costs two row slices plus one cell
/// per row on each side, with no hashing.
///
/// [`CellList::try_from_layout`] declines layouts whose bounding box spans
/// far more cells than there are nodes (a dense array over a sparse box
/// would waste memory); callers fall back to [`SpatialGrid`].
#[derive(Debug, Clone)]
pub struct CellList {
    cell: f64,
    min_cx: i64,
    min_cy: i64,
    cols: usize,
    rows: usize,
    /// CSR offsets, row-major over cells; `len = cols·rows + 1`.
    starts: Vec<u32>,
    /// Node IDs grouped by cell, in layout order within each cell.
    ids: Vec<NodeId>,
    /// Size of the layout the list was built over (indexed or not).
    layout_len: usize,
}

impl CellList {
    /// Builds a cell list over `layout` with square cells of side `cell`,
    /// or `None` when the bounding box is too sparse for a dense grid
    /// (more than `max(4n, 1024)` cells).
    ///
    /// # Panics
    ///
    /// Panics unless `cell` is positive and finite.
    pub fn try_from_layout(layout: &Layout, cell: f64) -> Option<CellList> {
        CellList::try_from_layout_where(layout, cell, |_| true)
    }

    /// [`CellList::try_from_layout`] over the nodes where `keep` holds:
    /// the bounding box, the sparsity cap and the index cover only those
    /// nodes, as if the others were absent.
    ///
    /// # Panics
    ///
    /// Panics unless `cell` is positive and finite.
    pub fn try_from_layout_where(
        layout: &Layout,
        cell: f64,
        keep: impl Fn(NodeId) -> bool,
    ) -> Option<CellList> {
        assert!(
            cell.is_finite() && cell > 0.0,
            "cell side must be positive and finite, got {cell}"
        );
        let kept = || layout.iter().filter(|&(id, _)| keep(id));
        let (mut min_cx, mut min_cy) = (i64::MAX, i64::MAX);
        let (mut max_cx, mut max_cy) = (i64::MIN, i64::MIN);
        let mut count = 0usize;
        for (_, p) in kept() {
            let (cx, cy) = cell_of(p, cell);
            min_cx = min_cx.min(cx);
            min_cy = min_cy.min(cy);
            max_cx = max_cx.max(cx);
            max_cy = max_cy.max(cy);
            count += 1;
        }
        if count == 0 {
            return Some(CellList {
                cell,
                min_cx: 0,
                min_cy: 0,
                cols: 0,
                rows: 0,
                starts: vec![0],
                ids: Vec::new(),
                layout_len: layout.len(),
            });
        }
        let cols = i128::from(max_cx) - i128::from(min_cx) + 1;
        let rows = i128::from(max_cy) - i128::from(min_cy) + 1;
        let cap = (4 * count as i128).max(1024);
        if cols * rows > cap {
            return None;
        }
        let (cols, rows) = (cols as usize, rows as usize);
        // Counting sort of node IDs into row-major cells.
        let index_of = |p: Point2| -> usize {
            let (cx, cy) = cell_of(p, cell);
            (cy - min_cy) as usize * cols + (cx - min_cx) as usize
        };
        let mut starts = vec![0u32; cols * rows + 1];
        for (_, p) in kept() {
            starts[index_of(p) + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut cursor = starts.clone();
        let mut ids = vec![NodeId::new(0); count];
        for (id, p) in kept() {
            let c = index_of(p);
            ids[cursor[c] as usize] = id;
            cursor[c] += 1;
        }
        Some(CellList {
            cell,
            min_cx,
            min_cy,
            cols,
            rows,
            starts,
            ids,
            layout_len: layout.len(),
        })
    }

    /// The IDs of the cells `x0..=x1` of cell row `y`, clipped to the
    /// bounding box: one contiguous slice, since the cells of a row are
    /// consecutive in the CSR layout.
    fn row_span(&self, y: i64, x0: i64, x1: i64) -> &[NodeId] {
        let x0 = x0.max(self.min_cx);
        let x1 = x1.min(self.min_cx + self.cols as i64 - 1);
        if x0 > x1 || y < self.min_cy || y >= self.min_cy + self.rows as i64 {
            return &[];
        }
        let row = (y - self.min_cy) as usize * self.cols;
        let lo = row + (x0 - self.min_cx) as usize;
        let hi = row + (x1 - self.min_cx) as usize;
        &self.ids[self.starts[lo] as usize..self.starts[hi + 1] as usize]
    }

    /// Appends to `out` every indexed ID whose cell intersects the disk of
    /// radius `radius` around `center` — same contract as
    /// [`SpatialGrid::candidates_within`].
    ///
    /// # Panics
    ///
    /// Panics unless `radius` is finite and non-negative.
    pub fn candidates_within(&self, center: Point2, radius: f64, out: &mut Vec<NodeId>) {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "query radius must be finite and non-negative, got {radius}"
        );
        let (cx0, cy0) = cell_of(Point2::new(center.x - radius, center.y - radius), self.cell);
        let (cx1, cy1) = cell_of(Point2::new(center.x + radius, center.y + radius), self.cell);
        let cy0 = cy0.max(self.min_cy);
        let cy1 = cy1.min(self.min_cy + self.rows as i64 - 1);
        for cy in cy0..=cy1 {
            out.extend_from_slice(self.row_span(cy, cx0, cx1));
        }
    }

    /// Calls `f(u, v)` exactly once for every unordered pair at distance
    /// at most `radius`, with positions read from `layout`. Pairs are
    /// enumerated cell against forward-neighbor cell, so each candidate
    /// pair is distance-tested once — the classic cell-list sweep.
    ///
    /// # Panics
    ///
    /// Panics if `radius > cell` (the sweep only inspects adjacent cells)
    /// or `layout` does not match the indexed layout's length.
    pub fn for_each_pair_within(
        &self,
        layout: &Layout,
        radius: f64,
        mut f: impl FnMut(NodeId, NodeId),
    ) {
        assert!(
            radius <= self.cell,
            "pair sweep requires radius ≤ cell ({radius} > {})",
            self.cell
        );
        assert_eq!(layout.len(), self.layout_len, "layout/index size mismatch");
        let r2 = radius * radius;
        let slice = |cx: i64, cy: i64| self.row_span(cy, cx, cx);
        for cy in self.min_cy..self.min_cy + self.rows as i64 {
            for cx in self.min_cx..self.min_cx + self.cols as i64 {
                let here = slice(cx, cy);
                if here.is_empty() {
                    continue;
                }
                // Within-cell pairs.
                for (i, &u) in here.iter().enumerate() {
                    let pu = layout.position(u);
                    for &v in &here[i + 1..] {
                        if pu.distance_squared(layout.position(v)) <= r2 {
                            f(u, v);
                        }
                    }
                }
                // Cross pairs against the four forward neighbors (E, NW,
                // N, NE); the backward four were handled when those cells
                // were `here`.
                for (dx, dy) in [(1, 0), (-1, 1), (0, 1), (1, 1)] {
                    for &v in slice(cx + dx, cy + dy) {
                        let pv = layout.position(v);
                        for &u in here {
                            if layout.position(u).distance_squared(pv) <= r2 {
                                f(u, v);
                            }
                        }
                    }
                }
            }
        }
    }
}

impl RingIndex for CellList {
    fn cell_size(&self) -> f64 {
        self.cell
    }

    fn candidates_in_ring(&self, center: Point2, ring: u32, out: &mut Vec<NodeId>) {
        let (cx, cy) = cell_of(center, self.cell);
        let k = i64::from(ring);
        // The ring's bottom and top rows are one CSR slice each…
        out.extend_from_slice(self.row_span(cy - k, cx - k, cx + k));
        if k == 0 {
            return;
        }
        out.extend_from_slice(self.row_span(cy + k, cx - k, cx + k));
        // …and the rows between them contribute one cell on each side.
        let y0 = (cy - k + 1).max(self.min_cy);
        let y1 = (cy + k - 1).min(self.min_cy + self.rows as i64 - 1);
        for x in [cx - k, cx + k] {
            if x < self.min_cx || x >= self.min_cx + self.cols as i64 {
                continue;
            }
            for y in y0..=y1 {
                out.extend_from_slice(self.row_span(y, x, x));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(n(0), Point2::new(5.0, 5.0));
        g.insert(n(1), Point2::new(15.0, 5.0));
        assert_eq!(g.len(), 2);
        let mut out = Vec::new();
        g.candidates_within(Point2::new(5.0, 5.0), 10.0, &mut out);
        assert!(out.contains(&n(0)) && out.contains(&n(1)));
        assert!(g.remove(n(1), Point2::new(15.0, 5.0)));
        assert!(!g.remove(n(1), Point2::new(15.0, 5.0)), "already gone");
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn update_moves_between_cells() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(n(0), Point2::new(5.0, 5.0));
        g.update(n(0), Point2::new(5.0, 5.0), Point2::new(95.0, 95.0));
        let mut out = Vec::new();
        g.candidates_within(Point2::new(5.0, 5.0), 1.0, &mut out);
        assert!(out.is_empty());
        g.candidates_within(Point2::new(95.0, 95.0), 1.0, &mut out);
        assert_eq!(out, vec![n(0)]);
    }

    #[test]
    fn update_within_cell_is_a_noop_on_structure() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(n(0), Point2::new(1.0, 1.0));
        g.update(n(0), Point2::new(1.0, 1.0), Point2::new(9.0, 9.0));
        let mut out = Vec::new();
        g.candidates_within(Point2::new(9.0, 9.0), 0.0, &mut out);
        assert_eq!(out, vec![n(0)]);
    }

    #[test]
    #[should_panic(expected = "out of sync")]
    fn update_from_wrong_cell_panics() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(n(0), Point2::new(1.0, 1.0));
        g.update(n(0), Point2::new(50.0, 50.0), Point2::new(95.0, 95.0));
    }

    #[test]
    fn negative_coordinates_bucket_correctly() {
        let mut g = SpatialGrid::new(10.0);
        // Around the origin, floor() must separate (−ε) from (+ε) cells
        // without losing points to rounding-toward-zero.
        g.insert(n(0), Point2::new(-0.5, -0.5));
        g.insert(n(1), Point2::new(0.5, 0.5));
        let mut out = Vec::new();
        g.candidates_within(Point2::new(0.0, 0.0), 1.0, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn colocated_points_share_a_bucket() {
        let mut g = SpatialGrid::new(5.0);
        for i in 0..4 {
            g.insert(n(i), Point2::new(2.0, 2.0));
        }
        let mut out = Vec::new();
        g.candidates_within(Point2::new(2.0, 2.0), 0.0, &mut out);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn neighbors_within_filters_and_sorts() {
        let layout = Layout::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(3.0, 4.0), // distance 5
            Point2::new(5.0, 0.0), // distance 5 (boundary: included)
            Point2::new(5.1, 0.0), // distance 5.1 (excluded)
            Point2::new(0.0, 0.0), // co-located (included)
        ]);
        let grid = SpatialGrid::from_layout(&layout, 5.0);
        assert_eq!(
            grid.neighbors_within(&layout, n(0), 5.0),
            vec![n(1), n(2), n(4)]
        );
    }

    #[test]
    fn giant_radius_does_not_scan_empty_cells() {
        // Two points, cell 1.0, query radius 1e9: the span short-circuit
        // must answer by scanning the two buckets, not 10¹⁸ cells.
        let mut g = SpatialGrid::new(1.0);
        g.insert(n(7), Point2::new(0.0, 0.0));
        g.insert(n(3), Point2::new(100.0, 100.0));
        let mut out = Vec::new();
        g.candidates_within(Point2::new(0.0, 0.0), 1e9, &mut out);
        assert_eq!(out, vec![n(3), n(7)], "bucket-scan path sorts its output");
    }

    #[test]
    #[should_panic(expected = "cell side")]
    fn zero_cell_rejected() {
        let _ = SpatialGrid::new(0.0);
    }

    fn scattered(count: usize, side: f64, seed: u64) -> Layout {
        let mut state = seed.max(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..count)
            .map(|_| Point2::new(next() * side, next() * side))
            .collect()
    }

    #[test]
    fn cell_list_matches_spatial_grid_queries() {
        let layout = scattered(120, 300.0, 5);
        let cell = 40.0;
        let list = CellList::try_from_layout(&layout, cell).expect("dense enough");
        let grid = SpatialGrid::from_layout(&layout, cell);
        for (_, center) in layout.iter().take(20) {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            list.candidates_within(center, 40.0, &mut a);
            grid.candidates_within(center, 40.0, &mut b);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn cell_list_declines_sparse_layouts() {
        let layout = Layout::new(vec![Point2::new(0.0, 0.0), Point2::new(1e7, 1e7)]);
        assert!(CellList::try_from_layout(&layout, 1.0).is_none());
        // …but a cell size matched to the spread is fine.
        assert!(CellList::try_from_layout(&layout, 1e7).is_some());
    }

    #[test]
    fn cell_list_handles_empty_and_single_layouts() {
        let empty = CellList::try_from_layout(&Layout::default(), 5.0).unwrap();
        let mut out = Vec::new();
        empty.candidates_within(Point2::ORIGIN, 100.0, &mut out);
        assert!(out.is_empty());
        empty.for_each_pair_within(&Layout::default(), 5.0, |_, _| panic!("no pairs"));

        let one = Layout::new(vec![Point2::new(3.0, 3.0)]);
        let list = CellList::try_from_layout(&one, 5.0).unwrap();
        list.for_each_pair_within(&one, 5.0, |_, _| panic!("no pairs"));
        list.candidates_within(Point2::new(3.0, 3.0), 1.0, &mut out);
        assert_eq!(out, vec![n(0)]);
    }

    #[test]
    fn pair_sweep_matches_brute_force() {
        for seed in [1, 2, 3] {
            let layout = scattered(80, 200.0, seed);
            let radius = 35.0;
            let list = CellList::try_from_layout(&layout, radius).expect("dense enough");
            let mut pairs = Vec::new();
            list.for_each_pair_within(&layout, radius, |u, v| {
                pairs.push((u.min(v), u.max(v)));
            });
            pairs.sort_unstable();
            let before = pairs.len();
            pairs.dedup();
            assert_eq!(pairs.len(), before, "each pair must be visited once");
            let mut brute = Vec::new();
            let r2 = radius * radius;
            for (u, pu) in layout.iter() {
                for (v, pv) in layout.iter() {
                    if u < v && pu.distance_squared(pv) <= r2 {
                        brute.push((u, v));
                    }
                }
            }
            assert_eq!(pairs, brute, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "pair sweep requires")]
    fn pair_sweep_rejects_radius_beyond_cell() {
        let layout = Layout::new(vec![Point2::new(0.0, 0.0)]);
        let list = CellList::try_from_layout(&layout, 5.0).unwrap();
        list.for_each_pair_within(&layout, 6.0, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "query radius")]
    fn nan_radius_rejected() {
        let g = SpatialGrid::new(1.0);
        let mut out = Vec::new();
        g.candidates_within(Point2::ORIGIN, f64::NAN, &mut out);
    }

    #[test]
    fn rings_partition_the_plane() {
        // Every indexed node appears in exactly one ring, and the union of
        // rings 0..=k equals the (2k+1)² cell block query.
        let layout = scattered(150, 120.0, 9);
        let grid = SpatialGrid::from_layout(&layout, 10.0);
        let center = Point2::new(60.0, 60.0);
        let mut union = Vec::new();
        for ring in 0..=12u32 {
            let before = union.len();
            grid.candidates_in_ring(center, ring, &mut union);
            // Each ring's nodes are no closer than the bound for that ring.
            let bound = grid.ring_min_distance(center, ring);
            for &v in &union[before..] {
                assert!(
                    layout.position(v).distance(center) >= bound,
                    "ring {ring} node {v} closer than bound {bound}"
                );
            }
        }
        let mut sorted = union.clone();
        sorted.sort_unstable();
        let before = sorted.len();
        sorted.dedup();
        assert_eq!(sorted.len(), before, "rings must not overlap");
        assert_eq!(sorted.len(), 150, "rings 0..=12 cover the whole field");
    }

    #[test]
    fn ring_min_distance_is_monotone_and_anchored() {
        let grid = SpatialGrid::new(10.0);
        let on_edge = Point2::new(20.0, 5.0); // x exactly on a cell edge
        assert_eq!(grid.ring_min_distance(on_edge, 0), 0.0);
        assert_eq!(grid.ring_min_distance(on_edge, 1), 0.0, "edge point");
        let mut last = 0.0;
        for ring in 0..10 {
            let d = grid.ring_min_distance(on_edge, ring);
            assert!(d >= last, "monotone in ring");
            last = d;
        }
        // An interior point has a strictly positive ring-1 bound.
        let interior = Point2::new(23.0, 5.0);
        assert!(grid.ring_min_distance(interior, 1) > 0.0);
        assert_eq!(grid.ring_min_distance(interior, 1), 3.0);
    }

    #[test]
    fn shell_scan_delivers_everything_with_valid_guarantees() {
        let layout = scattered(200, 250.0, 3);
        let grid = SpatialGrid::from_layout(&layout, 15.0);
        let center = layout.position(n(0));
        let radius = 90.0;
        let mut scan = grid.shell_scan(center, radius);
        let mut seen = Vec::new();
        loop {
            let guaranteed = scan.guaranteed_radius();
            // Everything within the radius and closer than the guarantee
            // must already be delivered.
            for (v, p) in layout.iter() {
                let d = p.distance(center);
                if d <= radius && d < guaranteed {
                    assert!(seen.contains(&v), "node {v} at {d} missing at {guaranteed}");
                }
            }
            if !scan.scan_next(&mut seen) {
                break;
            }
        }
        assert_eq!(scan.guaranteed_radius(), f64::INFINITY);
        let mut expect: Vec<NodeId> = layout
            .iter()
            .filter(|(_, p)| p.distance(center) <= radius)
            .map(|(v, _)| v)
            .collect();
        seen.retain(|&v| layout.position(v).distance(center) <= radius);
        seen.sort_unstable();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }
}
