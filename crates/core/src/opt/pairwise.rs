//! Pairwise (redundant) edge removal (§3.3, Theorem 3.6).
//!
//! Each edge gets a totally ordered *edge ID*
//! `eid(u,v) = (d(u,v), max(ID), min(ID))`. An edge `(u,v)` is **redundant**
//! when some other neighbor `w` of `u` satisfies `∠vuw < π/3` and
//! `eid(u,v) > eid(u,w)` (Definition 3.5): the witness edge plus a short
//! path can replace it, since `∠vuw < π/3` forces `d(v,w) < d(u,v)`.
//!
//! Theorem 3.6 shows *all* redundant edges can be removed at once while
//! preserving connectivity. The paper's actual optimization is more
//! conservative: since the goal is reducing transmission power, it only
//! removes redundant edges "with length greater than the longest
//! non-redundant edge" — realized here as [`PairwisePolicy::PowerReducing`]
//! (per endpoint: removal must shorten some endpoint's radius), with
//! [`PairwisePolicy::RemoveAll`] available for the maximal Theorem 3.6
//! variant.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::f64::consts::FRAC_PI_3;

use cbtc_geom::triangle::angle_at;
use cbtc_geom::Point2;
use cbtc_graph::{Layout, NodeId, UndirectedGraph};
use serde::{Deserialize, Serialize};

use crate::parallel::par_map_with;
use crate::view::NodeLists;
use crate::PAR_MIN_CHUNK;

/// The paper's lexicographic edge identifier:
/// `(length, max node ID, min node ID)`.
///
/// Total order over edges even when lengths tie; symmetric in the
/// endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeId {
    /// Edge length `d(u, v)`.
    pub length: f64,
    /// Larger endpoint ID.
    pub hi: u32,
    /// Smaller endpoint ID.
    pub lo: u32,
}

impl Eq for EdgeId {}

impl Ord for EdgeId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.length
            .total_cmp(&other.length)
            .then(self.hi.cmp(&other.hi))
            .then(self.lo.cmp(&other.lo))
    }
}

impl PartialOrd for EdgeId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The edge ID of `{u, v}` under the given layout.
pub fn edge_id(layout: &Layout, u: NodeId, v: NodeId) -> EdgeId {
    EdgeId {
        length: layout.distance(u, v),
        hi: u.raw().max(v.raw()),
        lo: u.raw().min(v.raw()),
    }
}

/// Which redundant edges to actually remove.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PairwisePolicy {
    /// Remove every redundant edge (the maximal removal Theorem 3.6
    /// licenses).
    RemoveAll,
    /// Remove a redundant edge only when it is longer than the longest
    /// non-redundant edge at one of its endpoints — i.e. only when removal
    /// can actually lower a node's broadcast radius. This is the paper's
    /// op3.
    PowerReducing,
}

/// Result of pairwise removal.
#[derive(Debug, Clone, PartialEq)]
pub struct PairwiseOutcome {
    /// The pruned graph.
    pub graph: UndirectedGraph,
    /// The removed edges, as canonical `(min, max)` pairs in deterministic
    /// order.
    pub removed: Vec<(NodeId, NodeId)>,
}

/// The edge ID of `{u, v}` from `u`'s perspective under a directional
/// length function — the generalization the stochastic-channel pipeline
/// uses (`length(u, v)` is `u`'s cost to reach `v`; under asymmetric
/// gains the two perspectives differ).
fn edge_id_with<L>(length: &L, u: NodeId, v: NodeId) -> EdgeId
where
    L: Fn(NodeId, NodeId) -> f64,
{
    EdgeId {
        length: length(u, v),
        hi: u.raw().max(v.raw()),
        lo: u.raw().min(v.raw()),
    }
}

/// Relative half-width of the band around `c² = 3d²` inside which
/// [`in_cone`] defers to `atan2`. Outside it the angle is more than
/// ~4·10⁻¹⁰ rad from π/3, a million times the combined error of `atan2`
/// and of `FRAC_PI_3`, so the exact comparison and the trigonometric
/// one cannot disagree.
const CONE_BAND: f64 = 1e-9;

/// Definition 3.5's cone test, `angle_at(v, u, w) < π/3`, without
/// trigonometry wherever the answer is not in doubt — and with the same
/// verdict, bit for bit, everywhere.
///
/// With `a = v − u`, `b = w − u`, `c = |a × b|` and `d = a · b` (the
/// exact values `angle_at` computes), the angle is `atan2(c, d)`:
///
/// * `d < 0`: `atan2` of a negative `x` is at least π/2 — not within π/3;
/// * `d > 0`: the angle is below π/3 iff `c/d < √3`, i.e. `c² < 3d²`,
///   decided by that comparison outside a [`CONE_BAND`] relative band
///   (and only while `c² + 3d²` is a normal float, so no rounding
///   underflows);
/// * `d = 0`, non-finite values and the band itself defer to
///   [`angle_at`].
fn in_cone(v: Point2, u: Point2, w: Point2) -> bool {
    let (a, b) = (v - u, w - u);
    let dot = a.dot(b);
    if dot < 0.0 {
        return false;
    }
    let cross = a.cross(b);
    let (c2, d2) = (cross * cross, 3.0 * (dot * dot));
    let scale = c2 + d2;
    if dot > 0.0 && scale.is_normal() && (c2 - d2).abs() > CONE_BAND * scale {
        return c2 < d2;
    }
    angle_at(v, u, w) < FRAC_PI_3
}

/// One incident edge of the node the kernel is judging.
#[derive(Debug, Clone, Copy)]
struct Incident {
    eid: EdgeId,
    id: NodeId,
    position: Point2,
    redundant: bool,
}

/// The pairwise kernel's per-worker scratch: one node's incident edges
/// in edge-ID order, reused (capacity kept) from node to node.
#[derive(Debug, Default)]
pub(crate) struct PairwiseScratch {
    row: Vec<Incident>,
}

/// The kernel: the neighbors `u` drops under `policy`, judged from `u`'s
/// own perspective, sorted by ID.
///
/// `u`'s incident edges are sorted by edge ID (distinct per node, since
/// they differ in the far endpoint, so the order is total). Definition
/// 3.5's `eid(u,v) > eid(u,w)` then means exactly "`w` comes earlier",
/// so entry `v` is redundant iff an earlier entry lies within π/3
/// ([`in_cone`]). The same pass folds the non-redundant lengths into
/// the [`PairwisePolicy::PowerReducing`] floor; `u` drops a redundant
/// edge longer than its floor, or under [`PairwisePolicy::RemoveAll`]
/// every redundant edge.
fn node_drops<L>(
    g: &UndirectedGraph,
    layout: &Layout,
    u: NodeId,
    length: &L,
    policy: PairwisePolicy,
    scratch: &mut PairwiseScratch,
) -> Vec<NodeId>
where
    L: Fn(NodeId, NodeId) -> f64,
{
    let pu = layout.position(u);
    let row = &mut scratch.row;
    row.clear();
    row.extend(g.neighbors(u).map(|v| Incident {
        eid: edge_id_with(length, u, v),
        id: v,
        position: layout.position(v),
        redundant: false,
    }));
    row.sort_unstable_by_key(|a| a.eid);
    let mut floor = 0.0f64;
    for i in 0..row.len() {
        let (earlier, rest) = row.split_at_mut(i);
        let entry = &mut rest[0];
        entry.redundant = earlier
            .iter()
            .any(|w| in_cone(entry.position, pu, w.position));
        if !entry.redundant {
            floor = floor.max(entry.eid.length);
        }
    }
    let mut drops: Vec<NodeId> = row
        .iter()
        .filter(|e| e.redundant && (policy == PairwisePolicy::RemoveAll || e.eid.length > floor))
        .map(|e| e.id)
        .collect();
    drops.sort_unstable();
    drops
}

/// Every node's drop set over one graph: the state behind
/// [`pairwise_removal_with`] and the incremental engine's pairwise stage.
///
/// A drop set is a function of one node's adjacency and the geometry
/// alone, so the sets fan out one node at a time ([`par_map_with`], one
/// [`PairwiseScratch`] per worker) and incremental reconfiguration
/// re-derives only the nodes whose neighborhoods or incident lengths
/// changed ([`PairwiseState::refresh`]). An edge goes iff either
/// endpoint drops it ([`PairwiseState::drops`]: two binary searches).
#[derive(Debug, Clone)]
pub(crate) struct PairwiseState {
    policy: PairwisePolicy,
    /// `drops[u]`: the neighbors `u` drops, sorted by ID.
    drops: Vec<Vec<NodeId>>,
}

impl PairwiseState {
    /// Every node's drop set over `g`.
    pub(crate) fn over<L>(
        g: &UndirectedGraph,
        layout: &Layout,
        length: &L,
        policy: PairwisePolicy,
    ) -> Self
    where
        L: Fn(NodeId, NodeId) -> f64 + Sync,
    {
        let ids: Vec<NodeId> = g.node_ids().collect();
        let drops = par_map_with(&ids, PAR_MIN_CHUNK, PairwiseScratch::default, |s, &u| {
            node_drops(g, layout, u, length, policy, s)
        });
        PairwiseState { policy, drops }
    }

    /// Re-derives `u`'s drop set over `g` (the current adjacency and
    /// geometry).
    pub(crate) fn refresh<L>(
        &mut self,
        g: &UndirectedGraph,
        layout: &Layout,
        u: NodeId,
        length: &L,
        scratch: &mut PairwiseScratch,
    ) where
        L: Fn(NodeId, NodeId) -> f64,
    {
        self.drops[u.index()] = node_drops(g, layout, u, length, self.policy, scratch);
    }

    /// Whether edge `{u, v}` goes: either endpoint drops it.
    pub(crate) fn drops(&self, u: NodeId, v: NodeId) -> bool {
        self.drops[u.index()].binary_search(&v).is_ok()
            || self.drops[v.index()].binary_search(&u).is_ok()
    }

    /// `g` without the dropped edges, built row by row — no clone of
    /// `g`, no per-edge removal. A counting sort first lists every
    /// dropped edge at both of its endpoints, so each row is filtered
    /// against its own contiguous list rather than by
    /// [`PairwiseState::drops`] lookups scattered over other nodes' sets;
    /// the rows are then filtered independently ([`par_map_with`]) and
    /// adopted in one bulk pass.
    pub(crate) fn prune(&self, g: &UndirectedGraph) -> UndirectedGraph {
        let gone = NodeLists::by_key(self.drops.len(), || {
            self.drops.iter().enumerate().flat_map(|(i, set)| {
                let u = NodeId::new(i as u32);
                set.iter().flat_map(move |&v| [(u, v), (v, u)])
            })
        });
        let ids: Vec<NodeId> = g.node_ids().collect();
        let rows = par_map_with(&ids, PAR_MIN_CHUNK, Vec::new, |dropped, &u| {
            dropped.clear();
            dropped.extend_from_slice(gone.of(u));
            dropped.sort_unstable();
            let mut dropped = dropped.iter().copied().peekable();
            let mut row = Vec::with_capacity(g.degree(u));
            for v in g.neighbors(u) {
                if dropped.next_if_eq(&v).is_some() {
                    // The edge may be dropped from both ends.
                    dropped.next_if_eq(&v);
                } else {
                    row.push(v);
                }
            }
            row
        });
        UndirectedGraph::from_symmetric_rows(rows)
    }
}

/// Classifies every edge of `g` per Definition 3.5, returning the redundant
/// ones (from either endpoint's perspective) as canonical `(min, max)`
/// pairs.
pub fn redundant_edges(g: &UndirectedGraph, layout: &Layout) -> BTreeSet<(NodeId, NodeId)> {
    let length = |a: NodeId, b: NodeId| layout.distance(a, b);
    let state = PairwiseState::over(g, layout, &length, PairwisePolicy::RemoveAll);
    g.edges().filter(|&(u, v)| state.drops(u, v)).collect()
}

/// Removes redundant edges from `g` under the chosen policy.
///
/// Two passes, each a per-node fan-out. Pass 1 loads every node's
/// incident edges into a reused scratch row sorted by [`EdgeId`] and
/// marks an edge redundant iff an earlier edge lies within π/3 —
/// Definition 3.5's `eid(u,v) > eid(u,w)` is exactly "earlier in edge-ID
/// order" — deriving the node's floor and drop set in the same pass.
/// Pass 2 keeps each row's edges that neither endpoint drops. The cone
/// test is trig-free with an exact `atan2` fallback, so every verdict
/// equals `angle_at(..) < FRAC_PI_3`, and the result — graph and
/// `removed` list, in canonical `(min, max)` lexicographic order — is
/// bit-identical to the all-pairs Definition 3.5 scan the property tests
/// keep as an independent reference.
///
/// # Example
///
/// ```
/// use cbtc_core::opt::{pairwise_removal, PairwisePolicy};
/// use cbtc_geom::Point2;
/// use cbtc_graph::{Layout, NodeId, UndirectedGraph};
///
/// // A narrow triangle: the long edge is redundant.
/// let layout = Layout::new(vec![
///     Point2::new(0.0, 0.0),
///     Point2::new(100.0, 10.0),
///     Point2::new(200.0, 0.0),
/// ]);
/// let mut g = UndirectedGraph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1));
/// g.add_edge(NodeId::new(1), NodeId::new(2));
/// g.add_edge(NodeId::new(0), NodeId::new(2));
///
/// let out = pairwise_removal(&g, &layout, PairwisePolicy::PowerReducing);
/// assert_eq!(out.removed, vec![(NodeId::new(0), NodeId::new(2))]);
/// assert_eq!(out.graph.edge_count(), 2);
/// ```
pub fn pairwise_removal(
    g: &UndirectedGraph,
    layout: &Layout,
    policy: PairwisePolicy,
) -> PairwiseOutcome {
    pairwise_removal_with(g, layout, policy, |a, b| layout.distance(a, b))
}

/// [`pairwise_removal`] under a directional length function: `length(u,
/// v)` is `u`'s cost to reach `v` (geometric distance on the ideal radio,
/// the gain-adjusted effective distance on a stochastic channel, where
/// the two directions may differ). Directions/angles stay geometric —
/// Definition 3.5's cone test is about bearings, which shadowing does not
/// move.
///
/// Definition 3.5 is directional: an endpoint `x` classifies its
/// incident edges as redundant via ITS neighbors, measured at ITS cost
/// to reach them, and under [`PairwisePolicy::PowerReducing`] removes,
/// from its own perspective, the redundant edges longer than its longest
/// non-redundant incident edge — the only removals that can lower its
/// broadcast radius. An edge goes iff either endpoint removes it.
///
/// With `length = layout.distance` this is exactly [`pairwise_removal`].
pub fn pairwise_removal_with<L>(
    g: &UndirectedGraph,
    layout: &Layout,
    policy: PairwisePolicy,
    length: L,
) -> PairwiseOutcome
where
    L: Fn(NodeId, NodeId) -> f64 + Sync,
{
    let graph = PairwiseState::over(g, layout, &length, policy).prune(g);
    // Each kept row is a subsequence of the original: one merge per row
    // lists the removed edges in lexicographic order.
    let mut removed = Vec::new();
    for u in g.node_ids() {
        let mut kept = graph.neighbors(u).peekable();
        for v in g.neighbors(u) {
            if kept.next_if_eq(&v).is_none() && u < v {
                removed.push((u, v));
            }
        }
    }
    PairwiseOutcome { graph, removed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtc_geom::Point2;
    use cbtc_graph::connectivity::preserves_connectivity;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn edge_id_total_order() {
        let layout = Layout::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
            Point2::new(1.0, 1.0),
        ]);
        // Equal lengths: ties broken by IDs.
        let a = edge_id(&layout, n(0), n(1)); // len 1, (1,0)
        let b = edge_id(&layout, n(2), n(3)); // len 1, (3,2)
        assert!(a < b);
        assert_eq!(a, edge_id(&layout, n(1), n(0)), "edge IDs are symmetric");
        let c = edge_id(&layout, n(0), n(3)); // len √2
        assert!(b < c);
    }

    /// A triangle with a sharp apex at node 0: edges 0–1 and 0–2 subtend
    /// less than π/3 at node 0, so the longer of them (0–2) is redundant.
    fn sharp_triangle() -> (Layout, UndirectedGraph) {
        let layout = Layout::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(100.0, 10.0),
            Point2::new(190.0, -15.0),
        ]);
        let mut g = UndirectedGraph::new(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(0), n(2));
        (layout, g)
    }

    #[test]
    fn definition_3_5_identifies_the_long_edge() {
        let (layout, g) = sharp_triangle();
        let red = redundant_edges(&g, &layout);
        assert_eq!(red.into_iter().collect::<Vec<_>>(), vec![(n(0), n(2))]);
    }

    #[test]
    fn remove_all_and_power_reducing_agree_on_triangle() {
        let (layout, g) = sharp_triangle();
        for policy in [PairwisePolicy::RemoveAll, PairwisePolicy::PowerReducing] {
            let out = pairwise_removal(&g, &layout, policy);
            assert_eq!(out.removed, vec![(n(0), n(2))]);
            assert!(preserves_connectivity(&out.graph, &g));
        }
    }

    #[test]
    fn wide_angle_pairs_are_not_redundant() {
        // Nearly right angle at node 0: nothing is redundant even though
        // one edge is much longer.
        let layout = Layout::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(100.0, 0.0),
            Point2::new(0.0, 300.0),
        ]);
        let mut g = UndirectedGraph::new(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(0), n(2));
        assert!(redundant_edges(&g, &layout).is_empty());
        let out = pairwise_removal(&g, &layout, PairwisePolicy::RemoveAll);
        assert!(out.removed.is_empty());
        assert_eq!(out.graph.edge_count(), 2);
    }

    #[test]
    fn power_reducing_spares_short_redundant_edges() {
        // Node 0 has a long NON-redundant edge (0–3, opposite side), plus a
        // sharp pair of short edges (0–1, 0–2) where 0–2 is redundant but
        // SHORTER than the non-redundant floor at both endpoints — so the
        // power-reducing policy keeps it while RemoveAll drops it.
        let layout = Layout::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(80.0, 8.0),
            Point2::new(150.0, -12.0),
            Point2::new(-400.0, 0.0),
            Point2::new(150.0, -412.0), // gives node 2 a long non-redundant edge
        ]);
        let mut g = UndirectedGraph::new(5);
        g.add_edge(n(0), n(1));
        g.add_edge(n(0), n(2)); // redundant via witness 0–1
        g.add_edge(n(0), n(3)); // long, non-redundant (≈ opposite direction)
        g.add_edge(n(2), n(4)); // long, non-redundant, keeps node 2's floor high
        g.add_edge(n(1), n(2));

        let red = redundant_edges(&g, &layout);
        assert!(red.contains(&(n(0), n(2))));

        let spare = pairwise_removal(&g, &layout, PairwisePolicy::PowerReducing);
        assert!(
            !spare.removed.contains(&(n(0), n(2))),
            "edge shorter than both endpoints' floors must be spared"
        );
        let all = pairwise_removal(&g, &layout, PairwisePolicy::RemoveAll);
        assert!(all.removed.contains(&(n(0), n(2))));
    }

    #[test]
    fn chain_of_redundancies_stays_connected() {
        // A fan of nodes at close angles from a hub: many redundant edges;
        // removing them all must keep the graph connected (Theorem 3.6).
        let mut pts = vec![Point2::new(0.0, 0.0)];
        for k in 0..8 {
            let a = 0.1 + k as f64 * 0.12; // all within a narrow sector
            let r = 100.0 + 40.0 * k as f64;
            pts.push(Point2::new(r * a.cos(), r * a.sin()));
        }
        let layout = Layout::new(pts);
        let mut g = UndirectedGraph::new(9);
        // Hub connects to everyone; consecutive fan nodes also linked.
        for i in 1..9 {
            g.add_edge(n(0), n(i as u32));
        }
        for i in 1..8 {
            g.add_edge(n(i as u32), n(i as u32 + 1));
        }
        let before = g.clone();
        let out = pairwise_removal(&g, &layout, PairwisePolicy::RemoveAll);
        assert!(!out.removed.is_empty());
        assert!(preserves_connectivity(&out.graph, &before));
    }

    /// `in_cone` against the trigonometric verdict it replaces.
    fn assert_cone_exact(v: Point2, u: Point2, w: Point2) {
        assert_eq!(
            in_cone(v, u, w),
            angle_at(v, u, w) < FRAC_PI_3,
            "v {v:?}, u {u:?}, w {w:?}"
        );
    }

    #[test]
    fn cone_test_matches_angle_at_on_the_pi_3_boundary() {
        let u = Point2::new(0.0, 0.0);
        // The equilateral triangle, at several scales and offsets.
        for scale in [1e-3, 1.0, 100.0, 7.5e5] {
            for offset in [0.0, 1234.5] {
                let o = Point2::new(offset, -offset);
                let at = |x: f64, y: f64| Point2::new(o.x + x * scale, o.y + y * scale);
                let (v, w) = (at(1.0, 0.0), at(0.5, 3f64.sqrt() / 2.0));
                assert_cone_exact(v, at(0.0, 0.0), w);
                assert_cone_exact(w, at(0.0, 0.0), v);
            }
        }
        // Bearings within a few ulps of π/3, and each coordinate of the
        // witness nudged by ±1 ulp.
        let v = Point2::new(250.0, 0.0);
        let mut theta = FRAC_PI_3;
        for _ in 0..4 {
            theta = theta.next_down();
        }
        for _ in 0..9 {
            let w = Point2::new(180.0 * theta.cos(), 180.0 * theta.sin());
            assert_cone_exact(v, u, w);
            for nudged in [
                Point2::new(w.x.next_up(), w.y),
                Point2::new(w.x.next_down(), w.y),
                Point2::new(w.x, w.y.next_up()),
                Point2::new(w.x, w.y.next_down()),
            ] {
                assert_cone_exact(v, u, nudged);
            }
            theta = theta.next_up();
        }
    }

    #[test]
    fn cone_test_defers_where_exact_and_rounded_verdicts_split() {
        // On `y = x·√3 ± a few ulps` the rounded squares `y·y` and
        // `3·x·x` and the rounded `atan2(y, x)` (against a rounded
        // `FRAC_PI_3`) can land on opposite sides: the square comparison
        // alone would disagree with `angle_at` at these witnesses.
        let (u, v) = (Point2::new(0.0, 0.0), Point2::new(1.0, 0.0));
        let mut split = 0;
        for x in [
            29.003_131_090_925_972,
            153.941_377_224_630_1,
            168.239_176_370_575_4,
            1_081.601_428_121_519,
            1.0,
            1e3,
        ] {
            let mut y = x * 3f64.sqrt();
            for _ in 0..3 {
                y = y.next_down();
            }
            for _ in 0..7 {
                let w = Point2::new(x, y);
                let exact = y * y < 3.0 * (x * x);
                if exact != (angle_at(v, u, w) < FRAC_PI_3) {
                    split += 1;
                }
                assert_cone_exact(v, u, w);
                assert_cone_exact(w, u, v);
                y = y.next_up();
            }
        }
        assert!(split > 0, "no witness splits the two verdicts");
    }

    #[test]
    fn cone_test_matches_angle_at_on_degenerate_and_obtuse_pairs() {
        let u = Point2::new(10.0, 20.0);
        let cases = [
            // dot == 0: a right angle.
            (Point2::new(15.0, 20.0), Point2::new(10.0, 29.0)),
            // cross == 0: the same bearing, and the opposite one.
            (Point2::new(11.0, 22.0), Point2::new(13.0, 26.0)),
            (Point2::new(11.0, 22.0), Point2::new(9.0, 18.0)),
            // Obtuse, and just past π/2.
            (Point2::new(20.0, 20.0), Point2::new(0.0, 25.0)),
            (Point2::new(20.0, 20.0), Point2::new(10.0 - 1e-9, 30.0)),
            // Acute, clearly inside and clearly outside π/3.
            (Point2::new(20.0, 20.0), Point2::new(20.0, 21.0)),
            (Point2::new(20.0, 20.0), Point2::new(15.0, 30.0)),
        ];
        for (v, w) in cases {
            assert_cone_exact(v, u, w);
            assert_cone_exact(w, u, v);
        }
        assert!(in_cone(Point2::new(11.0, 22.0), u, Point2::new(13.0, 26.0)));
        assert!(!in_cone(
            Point2::new(15.0, 20.0),
            u,
            Point2::new(10.0, 29.0)
        ));
    }

    #[test]
    fn removal_is_deterministic() {
        let (layout, g) = sharp_triangle();
        let a = pairwise_removal(&g, &layout, PairwisePolicy::PowerReducing);
        let b = pairwise_removal(&g, &layout, PairwisePolicy::PowerReducing);
        assert_eq!(a, b);
    }
}
