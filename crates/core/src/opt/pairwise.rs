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
use cbtc_graph::{Layout, NodeId, UndirectedGraph};
use serde::{Deserialize, Serialize};

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

/// The neighbors `v` of `u` such that `(u, v)` is redundant *from u's
/// perspective* (some other neighbor `w` of `u` witnesses Definition
/// 3.5), under a directional length function: `length(u, v)` is `u`'s
/// cost to reach `v` (the [`crate::reconfig::LinkMetric`]
/// generalization; `layout.distance` on the ideal radio).
///
/// A function of `u`'s adjacency and the geometry alone — the locality
/// that lets incremental reconfiguration re-derive pairwise decisions for
/// only the nodes whose neighborhoods changed.
pub fn node_redundancy_with<L>(
    g: &UndirectedGraph,
    layout: &Layout,
    u: NodeId,
    length: &L,
) -> BTreeSet<NodeId>
where
    L: Fn(NodeId, NodeId) -> f64,
{
    let neighbors: Vec<NodeId> = g.neighbors(u).collect();
    let mut from = BTreeSet::new();
    for &v in &neighbors {
        let eid_uv = edge_id_with(length, u, v);
        let is_redundant = neighbors.iter().any(|&w| {
            w != v
                && angle_at(layout.position(v), layout.position(u), layout.position(w)) < FRAC_PI_3
                && eid_uv > edge_id_with(length, u, w)
        });
        if is_redundant {
            from.insert(v);
        }
    }
    from
}

/// The [`PairwisePolicy::PowerReducing`] floor at `u`: the length of its
/// longest incident edge that is *not* redundant from `u`'s perspective
/// (`0` when every incident edge is redundant or `u` is isolated), under
/// a directional length function (`length(u, v)` is `u`'s cost to reach
/// `v`). Like [`node_redundancy_with`], a function of `u`'s adjacency
/// alone.
pub fn node_floor_with<L>(
    g: &UndirectedGraph,
    u: NodeId,
    redundant_from_u: &BTreeSet<NodeId>,
    length: &L,
) -> f64
where
    L: Fn(NodeId, NodeId) -> f64,
{
    g.neighbors(u)
        .filter(|v| !redundant_from_u.contains(v))
        .map(|v| length(u, v))
        .fold(0.0, f64::max)
}

/// Per-node directional redundancy under a length function.
fn directional_redundancy_with<L>(
    g: &UndirectedGraph,
    layout: &Layout,
    length: &L,
) -> Vec<BTreeSet<NodeId>>
where
    L: Fn(NodeId, NodeId) -> f64,
{
    g.node_ids()
        .map(|u| node_redundancy_with(g, layout, u, length))
        .collect()
}

/// Classifies every edge of `g` per Definition 3.5, returning the redundant
/// ones (from either endpoint's perspective) as canonical `(min, max)`
/// pairs.
pub fn redundant_edges(g: &UndirectedGraph, layout: &Layout) -> BTreeSet<(NodeId, NodeId)> {
    let mut redundant = BTreeSet::new();
    let length = |a: NodeId, b: NodeId| layout.distance(a, b);
    for (u, set) in directional_redundancy_with(g, layout, &length)
        .into_iter()
        .enumerate()
    {
        let u = NodeId::new(u as u32);
        for v in set {
            redundant.insert((u.min(v), u.max(v)));
        }
    }
    redundant
}

/// Removes redundant edges from `g` under the chosen policy.
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
/// With `length = layout.distance` this is exactly [`pairwise_removal`].
pub fn pairwise_removal_with<L>(
    g: &UndirectedGraph,
    layout: &Layout,
    policy: PairwisePolicy,
    length: L,
) -> PairwiseOutcome
where
    L: Fn(NodeId, NodeId) -> f64,
{
    let mut redundant = BTreeSet::new();
    let redundant_from = directional_redundancy_with(g, layout, &length);
    for (u, set) in redundant_from.iter().enumerate() {
        let u = NodeId::new(u as u32);
        for &v in set {
            redundant.insert((u.min(v), u.max(v)));
        }
    }
    let mut graph = g.clone();
    let mut removed = Vec::new();

    match policy {
        PairwisePolicy::RemoveAll => {
            for &(u, v) in &redundant {
                graph.remove_edge(u, v);
                removed.push((u, v));
            }
        }
        PairwisePolicy::PowerReducing => {
            // Definition 3.5 is directional: an endpoint `x` classifies its
            // incident edges as redundant via ITS neighbors, measured at
            // ITS cost to reach them. Each node then removes, from its own
            // perspective, the redundant edges longer than its longest
            // non-redundant incident edge — the only removals that can
            // lower its broadcast radius.
            let mut floor = vec![0.0f64; g.node_count()];
            for (u, v) in g.edges() {
                if !redundant_from[u.index()].contains(&v) {
                    floor[u.index()] = floor[u.index()].max(length(u, v));
                }
                if !redundant_from[v.index()].contains(&u) {
                    floor[v.index()] = floor[v.index()].max(length(v, u));
                }
            }
            for &(u, v) in &redundant {
                let u_drops =
                    redundant_from[u.index()].contains(&v) && length(u, v) > floor[u.index()];
                let v_drops =
                    redundant_from[v.index()].contains(&u) && length(v, u) > floor[v.index()];
                if u_drops || v_drops {
                    graph.remove_edge(u, v);
                    removed.push((u, v));
                }
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

    #[test]
    fn removal_is_deterministic() {
        let (layout, g) = sharp_triangle();
        let a = pairwise_removal(&g, &layout, PairwisePolicy::PowerReducing);
        let b = pairwise_removal(&g, &layout, PairwisePolicy::PowerReducing);
        assert_eq!(a, b);
    }
}
