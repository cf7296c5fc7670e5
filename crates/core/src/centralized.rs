//! The construction engine of `CBTC(α)`: one growing phase and one §3
//! optimization pipeline, generic over the [`LinkMetric`] that measures
//! links.
//!
//! The distributed algorithm of Figure 1 grows each node's power through a
//! discrete schedule; its *idealized limit* grows power continuously, so a
//! node's final radius is exactly the cost of the neighbor whose
//! discovery removed the last α-gap. This module computes that limit
//! directly. On the ideal radio ([`GeometricMetric`]) it produces the
//! precise `rad⁻_{u,α}` values whose averages the paper's Table 1
//! reports, and serves as the reference the distributed protocol is
//! validated against; over a stochastic channel ([`crate::phy`]) the same
//! engine runs on effective distances.
//!
//! ## One engine
//!
//! * [`grow`] — the growing phase over the whole network or an alive
//!   mask (the §4 survivor re-run);
//! * [`optimize`] — shrink-back, symmetric core or closure, and pairwise
//!   removal, optionally behind the union-find connectivity guard that
//!   off-unit-disk metrics need;
//! * [`construct`] — [`optimize`] applied to [`grow`].
//!
//! [`run_basic`], [`run_centralized`] and [`run_centralized_masked`] are
//! the geometric conveniences; the phy wrappers live in [`crate::phy`].
//! The incremental [`crate::reconfig::DeltaTopology`] engine builds its
//! initial state with the same grow fan-out (over its own mutable grid),
//! and its guarded final stage reruns the same pairwise step.
//!
//! ## Output-sensitive growth
//!
//! CBTC's defining property (§2) is locality: a node's decision depends
//! only on neighbors out to its final grow radius. The engine exploits
//! that — each node runs an expanding shell scan
//! ([`cbtc_graph::spatial::ShellScan`]) over the [`ConstructionIndex`],
//! consuming candidates in `(cost, id)` order from a min-heap and
//! maintaining the α-gap incrementally with a flat, allocation-free
//! [`cbtc_geom::gap::FlatGapTracker`]. Most nodes stop after a handful of
//! rings, so the far side of the layout is never even enumerated; all
//! transient buffers live in a per-worker [`GrowScratch`], and the
//! per-node independence makes the whole phase a
//! [`crate::parallel::par_map_with`]. The all-pairs scan survives as
//! [`run_basic_brute`], the oracle the engine is property-tested against.
//!
//! The index is a dense, cell-major [`CellList`]: a ring is two
//! contiguous row slices plus one cell per row on each side, with no
//! hashing. A layout too sparse for a dense cell array falls back to a
//! [`SpatialGrid`] of the same cell side, which delivers the same ring
//! sets; [`crate::reconfig::DeltaTopology`] keeps a `SpatialGrid` too,
//! because its positions move.
//!
//! Over a shadowed channel a node scans out to `R · reach_boost` — about
//! 19 R at σ = 8 dB — although almost every candidate beyond `R` needs a
//! gain it does not have. So before each ring the kernel asks the metric
//! for a [`LinkMetric::admission_screen`] at the ring's distance floor ρ
//! (the scan's guaranteed radius, read before the ring is delivered).
//! For the shadowed channels of [`crate::phy`] the argument is:
//!
//! * admission (cost ≤ R) at distance d ≥ ρ > R needs gain
//!   `g ≥ (ρ/R)ⁿ` in every priced direction — the forward one, and for
//!   [`crate::phy::AckGatedChannel`] the reverse one against the gate's
//!   own range;
//! * the log-normal draw behind `g` is Box–Muller,
//!   `z = √(−2 ln u₁)·cos(2πu₂)`, so `g ≥ (ρ/R)ⁿ` needs `z ≥ t` with
//!   `t = 10·n·log₁₀(ρ/R)/σ`, hence `u₁ ≤ exp(−t²/2)` and a non-negative
//!   cosine;
//! * the screen rejects a candidate when u₁'s 53-bit integer exceeds
//!   `⌈exp(−t²/2)·(1 + 10⁻⁶)·2⁵³⌉ + 1`, when u₂ lies strictly inside
//!   `(¼ + 10⁻⁹, ¾ − 10⁻⁹)`, and — when `t > 3.2·(1 + 10⁻⁶)`, past the
//!   ±3.2σ clamp — always ([`cbtc_radio::LinkGain::gain_screen`]).
//!
//! Margins: ρ is shrunk by 10⁻⁹ before use, absorbing the rounding of
//! cell assignment, of `d` and of the floor's `powf`; the 10⁻⁶ slack and
//! the 10⁻⁹ sign band dwarf the few-ulp rounding of `ln`, `sqrt`, `cos`
//! and `powf` in the exact path. So every candidate the screen rejects is
//! one the exact path prices above R; borderline candidates still take
//! the exact path, and the views are the unscreened kernel's bit for bit.
//! Rings with ρ ≤ R, σ = 0, the ideal field and the geometric metric get
//! no screen and run literally the old path. A rejected candidate costs
//! one or two hash streams and an integer compare instead of `ln`,
//! `sqrt`, `cos` and two `powf`.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use cbtc_geom::{gap::has_alpha_gap, gap::FlatGapTracker, Alpha, Angle, Point2};
use cbtc_graph::{CellList, Layout, NodeId, RingIndex, SpatialGrid, UndirectedGraph, UnionFind};
use serde::{Deserialize, Serialize};

use crate::opt::{self, PairwiseOutcome, PairwisePolicy};
use crate::parallel::par_map_with;
use crate::reconfig::{GeometricMetric, LinkMetric};
use crate::view::{BasicOutcome, Discovery, NodeView};
use crate::{CbtcConfig, Network};

/// Smallest per-thread slice of nodes worth a thread spawn in the
/// parallel growing phase: below ~2× this many nodes, [`grow`] runs
/// inline (the paper-scale 100-node networks never pay fan-out overhead).
/// Public so the construction benchmark can report the exact thread
/// count [`crate::parallel::planned_threads`] derives from it.
pub const PAR_MIN_CHUNK: usize = 128;

/// Runs the growing phase of `CBTC(α)` for every node, with continuous
/// power growth over geometric distance — [`grow`] on the
/// [`GeometricMetric`] without a mask.
///
/// For each node `u`, neighbors within range `R` are discovered in order of
/// distance (ties discovered together); growth stops at the first radius at
/// which no cone of degree `α` around `u` is empty. Nodes that never reach
/// that state are *boundary nodes* and end at maximum power with every
/// in-range node discovered.
///
/// # Example
///
/// ```
/// use cbtc_core::{run_basic, Network};
/// use cbtc_geom::{Alpha, Point2};
/// use cbtc_graph::{Layout, NodeId};
///
/// // A node surrounded by three others 120° apart stops growing as soon
/// // as all three are discovered.
/// let center = Point2::new(0.0, 0.0);
/// let ring: Vec<Point2> = (0..3)
///     .map(|k| {
///         let a = k as f64 * 2.0 * std::f64::consts::PI / 3.0;
///         Point2::new(100.0 * a.cos(), 100.0 * a.sin())
///     })
///     .collect();
/// let mut pts = vec![center];
/// pts.extend(ring);
/// let net = Network::with_paper_radio(Layout::new(pts));
///
/// let outcome = run_basic(&net, Alpha::TWO_PI_THIRDS);
/// assert!(!outcome.view(NodeId::new(0)).boundary);
/// assert_eq!(outcome.view(NodeId::new(0)).grow_radius, 100.0);
/// ```
pub fn run_basic(network: &Network, alpha: Alpha) -> BasicOutcome {
    grow(network, &GeometricMetric, alpha, None)
}

/// The independent oracle for the growing phase: every node scans all
/// `n − 1` candidates, sorts them, and re-runs the batch α-gap test
/// ([`has_alpha_gap`]) per distance group. `O(n²)`, geometric metric
/// only, and sharing no code with [`grow`] beyond the geometry — the
/// reference [`run_basic`] is property-tested against. Pushed through
/// [`opt::shrink_back`], [`BasicOutcome::symmetric_closure`] /
/// [`BasicOutcome::symmetric_core`] and [`opt::pairwise_removal`], it is
/// the reference for [`run_centralized`] too.
pub fn run_basic_brute(network: &Network, alpha: Alpha) -> BasicOutcome {
    let layout = network.layout();
    let r = network.max_range();
    let views = layout
        .node_ids()
        .map(|u| grow_node_brute(layout, u, alpha, r))
        .collect();
    BasicOutcome::new(alpha, views)
}

/// The growing phase of `CBTC(α)` over an arbitrary [`LinkMetric`]:
/// every node grows through its candidates in `(cost, id)` order until no
/// α-gap remains or its cost budget `R` is exhausted.
///
/// With `alive = Some(mask)`, nodes whose entry is `false` take no part —
/// they discover nothing, are discovered by nobody, and receive the
/// placeholder [`dead_view`]. This is the §4 reconfiguration primitive:
/// survivors rerun `CBTC(α)` among themselves *in place*, with no
/// sub-layout allocated and no ID remapping, position-for-position
/// identical to extracting the survivors into a fresh network and
/// growing there.
///
/// # Panics
///
/// Panics if the mask's length differs from the network size.
pub fn grow<M: LinkMetric + ?Sized>(
    network: &Network,
    metric: &M,
    alpha: Alpha,
    alive: Option<&[bool]>,
) -> BasicOutcome {
    let layout = network.layout();
    let r = network.max_range();
    let index = construction_index(layout, r, alive);
    BasicOutcome::new(alpha, grow_views(layout, &index, metric, alpha, r, alive))
}

/// The index a construction grows over: a dense, cell-major
/// [`CellList`] of the live nodes, or — when their bounding box is too
/// sparse for a dense cell array — a hashed [`SpatialGrid`]. Both use
/// the [`construction_cell`] of the live population, so they deliver the
/// same ring sets.
#[derive(Debug, Clone)]
pub enum ConstructionIndex {
    /// The dense CSR index (the usual case).
    Cells(CellList),
    /// The sparse-layout fallback.
    Grid(SpatialGrid),
}

impl RingIndex for ConstructionIndex {
    fn cell_size(&self) -> f64 {
        match self {
            ConstructionIndex::Cells(list) => list.cell_size(),
            ConstructionIndex::Grid(grid) => grid.cell_size(),
        }
    }

    fn candidates_in_ring(&self, center: Point2, ring: u32, out: &mut Vec<NodeId>) {
        match self {
            ConstructionIndex::Cells(list) => list.candidates_in_ring(center, ring, out),
            ConstructionIndex::Grid(grid) => grid.candidates_in_ring(center, ring, out),
        }
    }
}

/// The construction index builder: exactly the live nodes (every node
/// without a mask) in a [`CellList`], falling back to a [`SpatialGrid`]
/// when the list declines the layout — the same pattern
/// [`cbtc_graph::unit_disk::unit_disk_graph`] uses. Public so benchmarks
/// can time the index [`grow`] actually builds.
///
/// # Panics
///
/// Panics if the mask's length differs from the layout size.
pub fn construction_index(
    layout: &Layout,
    max_range: f64,
    alive: Option<&[bool]>,
) -> ConstructionIndex {
    let cell = construction_cell(layout, max_range, live_count(layout, alive));
    let live = |id: NodeId| alive.is_none_or(|alive| alive[id.index()]);
    match CellList::try_from_layout_where(layout, cell, live) {
        Some(list) => ConstructionIndex::Cells(list),
        None => ConstructionIndex::Grid(grid_of(layout, cell, alive)),
    }
}

/// The mutable grid [`crate::reconfig::DeltaTopology`] maintains: a
/// [`SpatialGrid`] holding exactly the live nodes, with the
/// [`construction_cell`] of the live population.
///
/// # Panics
///
/// Panics if the mask's length differs from the layout size.
pub(crate) fn construction_grid(
    layout: &Layout,
    max_range: f64,
    alive: Option<&[bool]>,
) -> SpatialGrid {
    let cell = construction_cell(layout, max_range, live_count(layout, alive));
    grid_of(layout, cell, alive)
}

/// The number of live nodes: all of them without a mask.
///
/// # Panics
///
/// Panics if the mask's length differs from the layout size.
fn live_count(layout: &Layout, alive: Option<&[bool]>) -> usize {
    match alive {
        Some(alive) => {
            assert_eq!(alive.len(), layout.len(), "alive mask size mismatch");
            alive.iter().filter(|a| **a).count()
        }
        None => layout.len(),
    }
}

/// A [`SpatialGrid`] of side `cell` holding exactly the live nodes.
fn grid_of(layout: &Layout, cell: f64, alive: Option<&[bool]>) -> SpatialGrid {
    let mut grid = SpatialGrid::new(cell);
    for (id, p) in layout.iter() {
        if alive.is_none_or(|alive| alive[id.index()]) {
            grid.insert(id, p);
        }
    }
    grid
}

/// The one grow fan-out: every node's view over a prebuilt index of the
/// live nodes, one [`GrowScratch`] per worker; masked-out nodes get
/// [`dead_view`].
pub(crate) fn grow_views<M: LinkMetric + ?Sized, I: RingIndex + Sync + ?Sized>(
    layout: &Layout,
    index: &I,
    metric: &M,
    alpha: Alpha,
    max_range: f64,
    alive: Option<&[bool]>,
) -> Vec<NodeView> {
    let ids: Vec<NodeId> = layout.node_ids().collect();
    par_map_with(&ids, PAR_MIN_CHUNK, GrowScratch::new, |scratch, &u| {
        if alive.is_none_or(|alive| alive[u.index()]) {
            grow_node_metric_scratch(layout, index, metric, u, alpha, max_range, scratch)
        } else {
            dead_view()
        }
    })
}

/// The placeholder view of a node excluded by an alive mask: no
/// discoveries, not a boundary node, zero radius.
pub fn dead_view() -> NodeView {
    NodeView {
        discoveries: Vec::new(),
        boundary: false,
        grow_radius: 0.0,
    }
}

/// The grid cell side the output-sensitive engine uses: sized for ~4
/// nodes per cell at the layout's bounding-box density (so each shell
/// ring inspects a handful of candidates), clamped to `[R/32, R]`.
///
/// `population` is the number of nodes that will actually be indexed —
/// pass the survivor count when masking — so densities stay meaningful as
/// nodes die.
pub fn construction_cell(layout: &Layout, max_range: f64, population: usize) -> f64 {
    let mut min = Point2::new(f64::INFINITY, f64::INFINITY);
    let mut max = Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
    for (_, p) in layout.iter() {
        min = Point2::new(min.x.min(p.x), min.y.min(p.y));
        max = Point2::new(max.x.max(p.x), max.y.max(p.y));
    }
    let area = ((max.x - min.x) * (max.y - min.y)).max(0.0);
    let cell = (4.0 * area / population.max(1) as f64).sqrt();
    if cell.is_finite() && cell > 0.0 {
        cell.clamp(max_range / 32.0, max_range)
    } else {
        max_range
    }
}

/// A candidate waiting in the grow heap, ordered by `(distance, id)` —
/// the discovery order of continuous power growth.
#[derive(Debug, PartialEq)]
struct PendingCandidate {
    distance: f64,
    id: NodeId,
}

impl Eq for PendingCandidate {}

impl Ord for PendingCandidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.distance
            .total_cmp(&other.distance)
            .then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for PendingCandidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable buffers for the growing kernel: the candidate min-heap, the
/// shell-ring staging vec, the incremental α-gap tracker and the
/// discovery accumulator.
///
/// A scratch threaded through many growths
/// ([`grow_node_metric_scratch`]) allocates only on high-water-mark
/// increases, so per-node heap traffic drops to the output `Vec` alone.
/// [`grow`] keeps one scratch per worker thread
/// ([`crate::parallel::par_map_with`]); the incremental
/// [`crate::reconfig::DeltaTopology`] engine keeps one per re-grow
/// worker.
///
/// A scratch carries no information between nodes — every buffer is
/// cleared (capacity retained) at the top of each growth, so results are
/// independent of which scratch, and which previous nodes, it served.
#[derive(Debug, Default)]
pub struct GrowScratch {
    heap: BinaryHeap<Reverse<PendingCandidate>>,
    ring: Vec<NodeId>,
    tracker: Option<FlatGapTracker>,
    discoveries: Vec<Discovery>,
}

impl GrowScratch {
    /// Fresh, empty scratch buffers.
    pub fn new() -> Self {
        GrowScratch::default()
    }
}

/// Grows one node output-sensitively over a prebuilt [`RingIndex`] — the
/// [`ConstructionIndex`], or the mutable [`SpatialGrid`] of
/// [`crate::reconfig::DeltaTopology`] — which must index exactly the
/// participating nodes, `u` itself included or not (`u` is skipped
/// either way): an expanding shell scan in *geometric* space consuming
/// candidates in *metric-cost* order, with all transient state borrowed
/// from a caller-owned [`GrowScratch`].
///
/// Candidates stream in from expanding shell rings; a candidate is only
/// *discovered* once the scan guarantees nothing cheaper remains
/// unenumerated, so discoveries happen in exact `(cost, id)` order and
/// equal-cost groups complete before the α-gap is tested — matching
/// [`run_basic_brute`] bit for bit on the geometric metric. Nodes that
/// stop early never enumerate the rings beyond their grow radius.
///
/// The scan's completeness guarantee is geometric (every node nearer than
/// `guaranteed_radius` has been enumerated); since an unenumerated node
/// at geometric distance ≥ G has cost ≥ `G / reach_boost`, the heap's
/// head is safe to discover once its cost falls below that bound. With
/// [`GeometricMetric`] both bounds collapse to the geometric ones. The
/// α-gap verdict comes from a radian-keyed [`FlatGapTracker`], whose
/// spans are the same `ccw_to` arithmetic the batch [`has_alpha_gap`]
/// scan runs.
///
/// Before each ring the kernel asks the metric for its
/// [`LinkMetric::admission_screen`] at the ring's distance floor and
/// skips the candidates it rules out; the screen only ever rules out
/// candidates the exact path would price above `max_range`, so the view
/// is the one the unscreened kernel computes, bit for bit.
pub fn grow_node_metric_scratch<M: LinkMetric + ?Sized, I: RingIndex + ?Sized>(
    layout: &Layout,
    index: &I,
    metric: &M,
    u: NodeId,
    alpha: Alpha,
    max_range: f64,
    scratch: &mut GrowScratch,
) -> NodeView {
    let center = layout.position(u);
    let scan_radius = max_range * metric.reach_boost();
    // The cost of the nearest unenumerated node is at least (geometric
    // bound) × this factor. Exactly 1.0 for the geometric metric, so the
    // multiplications below are exact there.
    let shrink = 1.0 / metric.reach_boost();
    let mut scan = index.shell_scan(center, scan_radius);
    let GrowScratch {
        heap,
        ring,
        tracker,
        discoveries,
    } = scratch;
    heap.clear();
    ring.clear();
    discoveries.clear();
    let tracker = match tracker {
        Some(t) => {
            t.reset(alpha);
            t
        }
        None => tracker.insert(FlatGapTracker::new(alpha)),
    };

    let discover =
        |c: PendingCandidate, discoveries: &mut Vec<Discovery>, tracker: &mut FlatGapTracker| {
            let direction = metric.direction(layout, u, c.id);
            tracker.insert(direction);
            discoveries.push(Discovery {
                id: c.id,
                distance: c.distance,
                direction,
            });
        };

    loop {
        // Pull rings until the nearest pending candidate is certainly
        // next in (cost, id) order: strictly inside the region the scan
        // has completely enumerated.
        while heap
            .peek()
            .is_none_or(|c| c.0.distance >= scan.guaranteed_radius() * shrink)
        {
            ring.clear();
            // A lower bound on the distance of every node the coming
            // ring delivers.
            let ring_min = scan.guaranteed_radius();
            if !scan.scan_next(ring) {
                break;
            }
            let screen = metric.admission_screen(ring_min, max_range);
            for &v in ring.iter() {
                if v == u
                    || screen
                        .as_ref()
                        .is_some_and(|screened_out| screened_out(u, v))
                {
                    continue;
                }
                let distance = metric.cost(u, v, layout.distance(u, v));
                if distance <= max_range {
                    heap.push(Reverse(PendingCandidate { distance, id: v }));
                }
            }
        }
        let Some(Reverse(first)) = heap.pop() else {
            // Every in-range candidate is discovered and the α-gap never
            // closed: boundary node at maximum power.
            return NodeView {
                discoveries: discoveries.clone(),
                boundary: true,
                grow_radius: max_range,
            };
        };
        // Discover the whole equidistant group simultaneously (all its
        // members are already in the heap: their shared cost lies
        // strictly inside the enumerated region).
        let group_dist = first.distance;
        discover(first, discoveries, tracker);
        while heap.peek().is_some_and(|c| c.0.distance == group_dist) {
            let Reverse(c) = heap.pop().expect("peeked non-empty");
            discover(c, discoveries, tracker);
        }
        if !tracker.has_open_gap() {
            // Coverage achieved: stop growing here.
            return NodeView {
                discoveries: discoveries.clone(),
                boundary: false,
                grow_radius: group_dist,
            };
        }
    }
}

/// One node of [`run_basic_brute`]: scans every candidate, sorts, and
/// re-tests the batch α-gap per distance group.
fn grow_node_brute(layout: &Layout, u: NodeId, alpha: Alpha, r: f64) -> NodeView {
    // All candidates within max range, in discovery order.
    let mut candidates: Vec<Discovery> = layout
        .node_ids()
        .filter(|&v| v != u)
        .filter_map(|v| {
            let d = layout.distance(u, v);
            (d <= r).then(|| Discovery {
                id: v,
                distance: d,
                direction: layout.direction(u, v),
            })
        })
        .collect();
    candidates.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));

    // Continuous growth: after each distance group, test the α-gap.
    let mut dirs: Vec<Angle> = Vec::with_capacity(candidates.len());
    let mut idx = 0;
    while idx < candidates.len() {
        // Discover the whole group at this distance simultaneously.
        let group_dist = candidates[idx].distance;
        let mut end = idx;
        while end < candidates.len() && candidates[end].distance == group_dist {
            dirs.push(candidates[end].direction);
            end += 1;
        }
        if !has_alpha_gap(&dirs, alpha) {
            // Coverage achieved: stop growing here.
            candidates.truncate(end);
            return NodeView {
                discoveries: candidates,
                boundary: false,
                grow_radius: group_dist,
            };
        }
        idx = end;
    }
    // Max power reached with an α-gap remaining: boundary node.
    NodeView {
        discoveries: candidates,
        boundary: true,
        grow_radius: r,
    }
}

/// The staged result of a full `CBTC(α)` run with optimizations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CbtcRun {
    config: CbtcConfig,
    basic: BasicOutcome,
    after_shrink: Option<BasicOutcome>,
    graph: UndirectedGraph,
    pairwise_removed: Vec<(NodeId, NodeId)>,
    pairwise_restored: Vec<(NodeId, NodeId)>,
}

impl CbtcRun {
    /// The configuration the run used.
    pub fn config(&self) -> &CbtcConfig {
        &self.config
    }

    /// The raw growing-phase outcome (before any optimization).
    pub fn basic(&self) -> &BasicOutcome {
        &self.basic
    }

    /// The outcome after shrink-back, if op1 was enabled.
    pub fn after_shrink(&self) -> Option<&BasicOutcome> {
        self.after_shrink.as_ref()
    }

    /// The outcome the final graph was derived from (post-shrink when op1
    /// is on, raw otherwise).
    pub fn effective(&self) -> &BasicOutcome {
        self.after_shrink.as_ref().unwrap_or(&self.basic)
    }

    /// The final topology after all configured optimizations.
    pub fn final_graph(&self) -> &UndirectedGraph {
        &self.graph
    }

    /// Consumes the run and returns the final topology without copying —
    /// for callers that only want the graph (topology policies, plotting),
    /// sparing the deep clone `final_graph().clone()` would cost.
    pub fn into_final_graph(self) -> UndirectedGraph {
        self.graph
    }

    /// The edges dropped by pairwise removal (empty when op3 is off).
    pub fn pairwise_removed(&self) -> &[(NodeId, NodeId)] {
        &self.pairwise_removed
    }

    /// The redundant edges the connectivity guard put back because their
    /// removal would have split a component — empty unless the run was
    /// guarded, always empty on the unit disk (Theorem 3.6 holds there),
    /// and a direct measurement of how often §3.3 over-prunes off it.
    pub fn pairwise_restored(&self) -> &[(NodeId, NodeId)] {
        &self.pairwise_restored
    }

    /// Whether the final graph preserves the connectivity of `full`
    /// (normally `network.max_power_graph()`), the Theorem 2.1 property.
    pub fn preserves_connectivity_of(&self, full: &UndirectedGraph) -> bool {
        cbtc_graph::connectivity::preserves_connectivity(&self.graph, full)
    }
}

/// Runs `CBTC(α)` centrally with the configured optimizations, in the
/// paper's order: grow, shrink-back (§3.1), asymmetric edge removal (§3.2),
/// pairwise edge removal (§3.3) — [`construct`] on the
/// [`GeometricMetric`], unmasked and unguarded.
///
/// # Example
///
/// ```
/// use cbtc_core::{run_centralized, CbtcConfig, Network};
/// use cbtc_geom::{Alpha, Point2};
/// use cbtc_graph::Layout;
///
/// let net = Network::with_paper_radio(Layout::new(vec![
///     Point2::new(0.0, 0.0),
///     Point2::new(300.0, 0.0),
///     Point2::new(150.0, 200.0),
/// ]));
/// let run = run_centralized(&net, &CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS));
/// assert!(run.preserves_connectivity_of(&net.max_power_graph()));
/// ```
pub fn run_centralized(network: &Network, config: &CbtcConfig) -> CbtcRun {
    construct(network, &GeometricMetric, config, None, false)
}

/// [`run_centralized`] over the surviving subset of a network: the §3
/// optimizations see masked-out nodes as isolated (empty views contribute
/// no edges and no pairwise witnesses). The resulting graph lives on the
/// **original** node set with every dead node isolated — edge-for-edge
/// what extracting the survivors into a fresh network, running
/// [`run_centralized`], and mapping the IDs back would produce, minus all
/// of those allocations.
///
/// # Panics
///
/// Panics if `alive.len()` differs from the network size.
pub fn run_centralized_masked(network: &Network, config: &CbtcConfig, alive: &[bool]) -> CbtcRun {
    construct(network, &GeometricMetric, config, Some(alive), false)
}

/// The whole construction: [`optimize`] applied to [`grow`] under the
/// same metric and mask.
///
/// `guard` puts pairwise removal behind the union-find connectivity
/// guard (see [`optimize`]): use it whenever the metric is not a
/// unit-disk geometric one.
///
/// # Panics
///
/// Panics if the mask's length differs from the network size.
pub fn construct<M: LinkMetric + ?Sized>(
    network: &Network,
    metric: &M,
    config: &CbtcConfig,
    alive: Option<&[bool]>,
    guard: bool,
) -> CbtcRun {
    let basic = grow(network, metric, config.alpha(), alive);
    optimize(network, metric, config, basic, guard)
}

/// The §3 optimization pipeline over a growing-phase outcome obtained
/// anywhere (the engine's [`grow`], the oracle, or the distributed
/// protocol's views): shrink-back, then the symmetric core or closure,
/// then pairwise removal measured by `metric.cost` — each endpoint's
/// cost to reach the other, the same scalar the growth phase ordered by.
///
/// With `guard`, every removed edge whose endpoints fell into different
/// components of the pruned graph is put back and reported in
/// [`CbtcRun::pairwise_restored`]. Theorem 3.6's proof that all
/// redundant edges can go at once leans on the unit-disk structure of
/// `G_α`; off the unit disk that scaffolding is gone, and the guard
/// substitutes for it. On the unit disk it provably restores nothing.
pub fn optimize<M: LinkMetric + ?Sized>(
    network: &Network,
    metric: &M,
    config: &CbtcConfig,
    basic: BasicOutcome,
    guard: bool,
) -> CbtcRun {
    let after_shrink = config.shrink_back().then(|| opt::shrink_back(&basic));
    let effective = after_shrink.as_ref().unwrap_or(&basic);

    let mut graph = if config.asymmetric_removal() {
        // Soundness of the core was checked when the config was built.
        debug_assert!(config.alpha().supports_asymmetric_removal());
        effective.symmetric_core()
    } else {
        effective.symmetric_closure()
    };

    let mut pairwise_removed = Vec::new();
    let mut pairwise_restored = Vec::new();
    if config.pairwise_removal() {
        let (outcome, restored) = pairwise_step(&graph, network.layout(), metric, guard);
        graph = outcome.graph;
        pairwise_removed = outcome.removed;
        pairwise_restored = restored;
    }

    CbtcRun {
        config: *config,
        basic,
        after_shrink,
        graph,
        pairwise_removed,
        pairwise_restored,
    }
}

/// The one pairwise-plus-guard step: §3.3 power-reducing removal over
/// `pre_pairwise`, measured by `metric.cost`, then — with `guard` — the
/// union-find restore of every removed edge that bridges two components
/// of the pruned graph, in the removal list's deterministic order.
/// Returns the pruned outcome (its `removed` list minus the restored
/// edges) and the restored edges.
pub(crate) fn pairwise_step<M: LinkMetric + ?Sized>(
    pre_pairwise: &UndirectedGraph,
    layout: &Layout,
    metric: &M,
    guard: bool,
) -> (PairwiseOutcome, Vec<(NodeId, NodeId)>) {
    let mut outcome = opt::pairwise_removal_with(
        pre_pairwise,
        layout,
        PairwisePolicy::PowerReducing,
        |a, b| metric.cost(a, b, layout.distance(a, b)),
    );
    let mut restored = Vec::new();
    if guard {
        let mut uf = UnionFind::new(outcome.graph.node_count());
        for (u, v) in outcome.graph.edges() {
            uf.union(u, v);
        }
        let mut removed = Vec::with_capacity(outcome.removed.len());
        for (u, v) in outcome.removed {
            if uf.union(u, v) {
                outcome.graph.add_edge(u, v);
                restored.push((u, v));
            } else {
                removed.push((u, v));
            }
        }
        outcome.removed = removed;
    }
    (outcome, restored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtc_geom::constructions::{Example21, Theorem24};
    use cbtc_geom::Point2;
    use cbtc_graph::traversal::is_connected;
    use cbtc_graph::Layout;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn net(points: Vec<Point2>) -> Network {
        Network::with_paper_radio(Layout::new(points))
    }

    #[test]
    fn isolated_node_is_boundary_with_max_radius() {
        let network = net(vec![Point2::new(0.0, 0.0)]);
        let o = run_basic(&network, Alpha::FIVE_PI_SIXTHS);
        let v = o.view(n(0));
        assert!(v.boundary);
        assert!(v.discoveries.is_empty());
        assert_eq!(v.grow_radius, 500.0);
    }

    #[test]
    fn pair_of_nodes_are_mutual_boundary_neighbors() {
        let network = net(vec![Point2::new(0.0, 0.0), Point2::new(100.0, 0.0)]);
        let o = run_basic(&network, Alpha::FIVE_PI_SIXTHS);
        for i in [0, 1] {
            let v = o.view(n(i));
            assert!(v.boundary, "single direction can never cover all cones");
            assert_eq!(v.discoveries.len(), 1);
            assert_eq!(v.grow_radius, 500.0);
        }
        assert!(o.symmetric_closure().has_edge(n(0), n(1)));
        assert!(o.symmetric_core().has_edge(n(0), n(1)));
    }

    #[test]
    fn growth_stops_at_exact_covering_distance() {
        // Ring of 5 nodes at distance 200, plus a far node at 450: the far
        // node must not be discovered by the center.
        let mut pts = vec![Point2::new(0.0, 0.0)];
        for k in 0..5 {
            let a = k as f64 * std::f64::consts::TAU / 5.0;
            pts.push(Point2::new(200.0 * a.cos(), 200.0 * a.sin()));
        }
        pts.push(Point2::new(450.0, 10.0));
        let network = net(pts);
        let o = run_basic(&network, Alpha::TWO_PI_THIRDS);
        let v = o.view(n(0));
        assert!(!v.boundary);
        assert_eq!(v.grow_radius, 200.0);
        assert_eq!(v.discoveries.len(), 5);
        assert!(!v.discovered(n(6)));
    }

    #[test]
    fn equidistant_nodes_discovered_together() {
        // Two nodes at identical distance on opposite sides: a single
        // growth step discovers both.
        let network = net(vec![
            Point2::new(0.0, 0.0),
            Point2::new(100.0, 0.0),
            Point2::new(-100.0, 0.0),
        ]);
        let o = run_basic(&network, Alpha::new(std::f64::consts::PI).unwrap());
        let v = o.view(n(0));
        assert!(!v.boundary);
        assert_eq!(v.discoveries.len(), 2);
        assert_eq!(v.grow_radius, 100.0);
    }

    #[test]
    fn example_2_1_reproduces_asymmetry() {
        // Figure 2: (v, u0) ∈ N_α but (u0, v) ∉ N_α for 2π/3 < α ≤ 5π/6.
        for alpha in [Alpha::FIVE_PI_SIXTHS, Alpha::new(2.3).unwrap()] {
            let ex = Example21::new(500.0, alpha).unwrap();
            let network = net(ex.points());
            let o = run_basic(&network, alpha);
            let (u0, v) = (n(Example21::U0 as u32), n(Example21::V as u32));
            // N_α(u0) = {u1, u2, u3}: v is NOT discovered by u0.
            let mut ids = o.view(u0).neighbor_ids();
            ids.sort();
            assert_eq!(ids, vec![n(1), n(2), n(3)]);
            assert!(!o.view(u0).boundary);
            // N_α(v) = {u0}: v reaches max power and finds only u0.
            assert_eq!(o.view(v).neighbor_ids(), vec![u0]);
            assert!(o.view(v).boundary);
            // The symmetric closure restores the edge; the core drops it.
            assert!(o.symmetric_closure().has_edge(u0, v));
            assert!(!o.symmetric_core().has_edge(u0, v));
        }
    }

    #[test]
    fn theorem_2_4_construction_disconnects_above_threshold() {
        // Figure 5: for α = 5π/6 + ε the u- and v-clusters separate.
        for eps in [0.05, 0.2, 0.5] {
            let t = Theorem24::new(500.0, eps).unwrap();
            let network = net(t.points());
            let full = network.max_power_graph();
            assert!(is_connected(&full), "G_R must be connected (eps={eps})");

            let o = run_basic(&network, t.alpha);
            let g_alpha = o.symmetric_closure();
            assert!(
                !is_connected(&g_alpha),
                "G_α must disconnect for α = 5π/6 + {eps}"
            );
            // The specific failure: the bridge (u0, v0) is gone because u0
            // stopped growing before reaching v0.
            assert!(!g_alpha.has_edge(n(0), n(4)));
            assert!(o.view(n(0)).grow_radius < 500.0);
            assert!(!o.view(n(0)).boundary);

            // At α = 5π/6 exactly, the same layout stays connected
            // (Theorem 2.1).
            let o_tight = run_basic(&network, Alpha::FIVE_PI_SIXTHS);
            assert!(is_connected(&o_tight.symmetric_closure()));
        }
    }

    #[test]
    fn full_pipeline_preserves_connectivity_on_constructions() {
        let t = Theorem24::new(500.0, 0.1).unwrap();
        let network = net(t.points());
        let full = network.max_power_graph();
        for config in [
            CbtcConfig::new(Alpha::FIVE_PI_SIXTHS),
            CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS),
            CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS),
        ] {
            let run = run_centralized(&network, &config);
            assert!(
                run.preserves_connectivity_of(&full),
                "config {config:?} broke connectivity"
            );
        }
    }

    #[test]
    fn stages_are_exposed() {
        let network = net(vec![
            Point2::new(0.0, 0.0),
            Point2::new(200.0, 0.0),
            Point2::new(100.0, 150.0),
            Point2::new(320.0, 80.0),
        ]);
        let config = CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS);
        let run = run_centralized(&network, &config);
        assert!(run.after_shrink().is_some());
        assert_eq!(run.config(), &config);
        assert_eq!(run.basic().len(), 4);
        assert_eq!(run.effective().len(), 4);
        // Final graph is a subgraph of the basic closure.
        assert!(run
            .final_graph()
            .is_subgraph_of(&run.basic().symmetric_closure()));
    }

    #[test]
    fn construction_index_is_dense_unless_the_layout_is_sparse() {
        let dense = net((0..40)
            .map(|i| Point2::new(f64::from(i % 8) * 170.0, f64::from(i / 8) * 130.0))
            .collect());
        assert!(matches!(
            construction_index(dense.layout(), 500.0, None),
            ConstructionIndex::Cells(_)
        ));
        // Two clusters 10⁷ apart: a dense array over their box would hold
        // ~10⁹ cells, so the engine grows over the hashed grid instead —
        // and still matches the oracle, masked and unmasked.
        let mut pts = Vec::new();
        for k in 0..14 {
            let a = f64::from(k) * 0.9;
            pts.push(Point2::new(
                150.0 * a.cos() + f64::from(k % 3) * 40.0,
                150.0 * a.sin(),
            ));
            pts.push(Point2::new(1e7 + 210.0 * a.sin(), 1e7 + 120.0 * a.cos()));
        }
        let sparse = net(pts);
        let alive: Vec<bool> = (0..sparse.len()).map(|i| i % 4 != 1).collect();
        for mask in [None, Some(&alive[..])] {
            assert!(matches!(
                construction_index(sparse.layout(), 500.0, mask),
                ConstructionIndex::Grid(_)
            ));
        }
        // The masked oracle: the survivors as a fresh network.
        let survivors: Vec<NodeId> = sparse
            .layout()
            .node_ids()
            .filter(|u| alive[u.index()])
            .collect();
        let sub = net(survivors
            .iter()
            .map(|&u| sparse.layout().position(u))
            .collect());
        for alpha in [Alpha::FIVE_PI_SIXTHS, Alpha::TWO_PI_THIRDS] {
            assert_eq!(run_basic(&sparse, alpha), run_basic_brute(&sparse, alpha));
            let masked = grow(&sparse, &GeometricMetric, alpha, Some(&alive));
            let oracle = run_basic_brute(&sub, alpha);
            for (i, &u) in survivors.iter().enumerate() {
                let expected = oracle.view(n(i as u32));
                let ids: Vec<NodeId> = expected
                    .neighbor_ids()
                    .into_iter()
                    .map(|v| survivors[v.index()])
                    .collect();
                assert_eq!(masked.view(u).neighbor_ids(), ids, "node {u}");
                assert_eq!(masked.view(u).grow_radius, expected.grow_radius);
            }
        }
    }

    #[test]
    fn basic_without_optimizations_has_no_shrink_stage() {
        let network = net(vec![Point2::new(0.0, 0.0), Point2::new(10.0, 0.0)]);
        let run = run_centralized(&network, &CbtcConfig::new(Alpha::FIVE_PI_SIXTHS));
        assert!(run.after_shrink().is_none());
        assert!(run.pairwise_removed().is_empty());
    }
}
