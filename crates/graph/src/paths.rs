//! Weighted shortest paths and stretch factors.
//!
//! §1 of the paper cites the competitiveness result of \[16\]: the most
//! power-efficient route in `G_α` is at most a constant factor worse than in
//! `G_R`. These helpers compute exact *power stretch* and *hop stretch*
//! factors of a subgraph so the claim can be measured on simulated
//! networks.
//!
//! Every shortest-path function here is a thin caller of one kernel,
//! [`shortest_path_tree`], generic over where it reads arcs from
//! ([`Arcs`]): a graph with weight and include closures
//! ([`GraphArcs`]), or pre-priced adjacency rows ([`Rows`]), which is
//! how the lifetime engine routes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{Layout, NodeId, UndirectedGraph};

/// Where the shortest-path kernel ([`shortest_path_tree`]) reads a node's
/// out-arcs from.
///
/// The kernel is generic over this trait and monomorphized per arc
/// source, so relaxing an arc is a direct, inlinable call — never a `dyn`
/// call.
pub trait Arcs {
    /// Number of nodes: the length of the kernel's output arrays.
    fn node_count(&self) -> usize;

    /// Calls `relax(v, w)` for every arc `u → v` of weight `w ≥ 0` the
    /// kernel may use, in a fixed order.
    fn for_each_arc<R: FnMut(NodeId, f64)>(&mut self, u: NodeId, relax: R);
}

/// The arcs of an undirected graph priced by `weight`, restricted to
/// heads accepted by `include` (checked before `weight` is called). The
/// source itself is always included.
pub struct GraphArcs<'g, W, F> {
    /// The graph whose edges are the arcs (both directions).
    pub graph: &'g UndirectedGraph,
    /// The weight of arc `u → v`.
    pub weight: W,
    /// Whether a node may be entered at all.
    pub include: F,
}

impl<W, F> Arcs for GraphArcs<'_, W, F>
where
    W: FnMut(NodeId, NodeId) -> f64,
    F: FnMut(NodeId) -> bool,
{
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn for_each_arc<R: FnMut(NodeId, f64)>(&mut self, u: NodeId, mut relax: R) {
        for v in self.graph.neighbors(u) {
            if (self.include)(v) {
                relax(v, (self.weight)(u, v));
            }
        }
    }
}

/// One entry of an adjacency row ([`Rows`]): an out-arc's head and its
/// weight.
pub trait WeightedArc {
    /// The node the arc enters.
    fn head(&self) -> NodeId;
    /// The arc's non-negative weight.
    fn weight(&self) -> f64;
}

impl WeightedArc for (NodeId, f64) {
    fn head(&self) -> NodeId {
        self.0
    }

    fn weight(&self) -> f64 {
        self.1
    }
}

/// Pre-priced adjacency rows: `rows[u]` lists exactly the arcs leaving
/// `u`, in relaxation order. Rows may be directed (`w(u→v) ≠ w(v→u)`).
#[derive(Debug)]
pub struct Rows<'r, T>(pub &'r [Vec<T>]);

impl<T: WeightedArc> Arcs for Rows<'_, T> {
    fn node_count(&self) -> usize {
        self.0.len()
    }

    fn for_each_arc<R: FnMut(NodeId, f64)>(&mut self, u: NodeId, mut relax: R) {
        for arc in &self.0[u.index()] {
            relax(arc.head(), arc.weight());
        }
    }
}

/// The kernel's reusable priority queue. A caller computing many trees
/// (one per worker of a fan-out) passes the same scratch to every call,
/// so the heap's buffer is allocated once.
#[derive(Debug, Clone, Default)]
pub struct DijkstraScratch {
    /// Min-heap of `(cost bits, node)`.
    heap: BinaryHeap<Reverse<(u64, NodeId)>>,
}

/// The single-source shortest-path kernel: each node's predecessor on
/// its cheapest path from `source` (`None` for the source and for
/// unreachable nodes) and that path's cost (`f64::INFINITY` when
/// unreachable).
///
/// # Settle rule
///
/// Nodes settle in increasing `(dist, id)` order: cost first, node ID
/// breaking ties. A settled node `u` relaxes its arcs in the order
/// [`Arcs::for_each_arc`] yields them, and an arc `u → v` wins only when
/// `dist[u] + w` is *strictly* below `v`'s current cost. So `v`'s
/// parent is the first-settled neighbour among those minimizing
/// `dist[u] + w(u→v)` (for one neighbour with parallel arcs, the first
/// such arc).
///
/// The heap key is the integer pair `(dist.to_bits(), id)`. Costs are
/// non-negative, and for non-negative `f64` the bit pattern orders
/// exactly like `total_cmp`, so the pop order — and with it every parent
/// choice — is the one a float-keyed heap would produce.
///
/// # Example
///
/// ```
/// use cbtc_graph::paths::{shortest_path_tree, DijkstraScratch, Rows};
/// use cbtc_graph::NodeId;
///
/// // Directed rows: 0 → 1 costs 1, 1 → 2 costs 1, 0 → 2 costs 5.
/// let n = NodeId::new;
/// let rows = vec![
///     vec![(n(1), 1.0), (n(2), 5.0)],
///     vec![(n(0), 1.0), (n(2), 1.0)],
///     vec![(n(0), 5.0), (n(1), 1.0)],
/// ];
/// let mut scratch = DijkstraScratch::default();
/// let (parent, dist) = shortest_path_tree(Rows(&rows), n(0), &mut scratch);
/// assert_eq!(parent[2], Some(n(1)));
/// assert_eq!(dist[2], 2.0);
/// ```
pub fn shortest_path_tree<A: Arcs>(
    mut arcs: A,
    source: NodeId,
    scratch: &mut DijkstraScratch,
) -> (Vec<Option<NodeId>>, Vec<f64>) {
    let n = arcs.node_count();
    let mut dist: Vec<f64> = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let heap = &mut scratch.heap;
    heap.clear();
    dist[source.index()] = 0.0;
    heap.push(Reverse((0.0f64.to_bits(), source)));
    while let Some(Reverse((bits, u))) = heap.pop() {
        if bits > dist[u.index()].to_bits() {
            continue; // stale entry
        }
        let cost = f64::from_bits(bits);
        arcs.for_each_arc(u, |v, w| {
            debug_assert!(w >= 0.0, "negative edge weight");
            let next = cost + w;
            if next < dist[v.index()] {
                dist[v.index()] = next;
                parent[v.index()] = Some(u);
                heap.push(Reverse((next.to_bits(), v)));
            }
        });
    }
    (parent, dist)
}

/// Single-source shortest path costs under an arbitrary non-negative edge
/// weight. Unreachable nodes (and nodes reachable only at infinite cost)
/// get `None`.
///
/// # Example
///
/// ```
/// use cbtc_graph::{NodeId, UndirectedGraph, paths::dijkstra};
///
/// let mut g = UndirectedGraph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1));
/// g.add_edge(NodeId::new(1), NodeId::new(2));
/// let cost = dijkstra(&g, NodeId::new(0), |_, _| 2.0);
/// assert_eq!(cost[2], Some(4.0));
/// ```
pub fn dijkstra<W>(g: &UndirectedGraph, source: NodeId, weight: W) -> Vec<Option<f64>>
where
    W: FnMut(NodeId, NodeId) -> f64,
{
    let (_, dist) = dijkstra_tree(g, source, weight, |_| true);
    dist.into_iter()
        .map(|d| d.is_finite().then_some(d))
        .collect()
}

/// Single-source shortest-path **tree** under an arbitrary non-negative
/// edge weight, restricted to nodes accepted by `include`: returns each
/// node's predecessor on the cheapest path from `source` (`None` for the
/// source itself and for unreachable or excluded nodes).
///
/// The `include` predicate lets callers route over an induced subgraph —
/// e.g. the still-alive nodes of a lifetime simulation — without
/// materializing it. Ties follow [`shortest_path_tree`]'s settle rule,
/// so the tree is deterministic.
///
/// # Example
///
/// ```
/// use cbtc_graph::{NodeId, UndirectedGraph, paths::dijkstra_parents};
///
/// let mut g = UndirectedGraph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1));
/// g.add_edge(NodeId::new(1), NodeId::new(2));
/// let parent = dijkstra_parents(&g, NodeId::new(0), |_, _| 1.0, |_| true);
/// assert_eq!(parent[2], Some(NodeId::new(1)));
/// assert_eq!(parent[0], None);
/// ```
pub fn dijkstra_parents<W, F>(
    g: &UndirectedGraph,
    source: NodeId,
    weight: W,
    include: F,
) -> Vec<Option<NodeId>>
where
    W: FnMut(NodeId, NodeId) -> f64,
    F: FnMut(NodeId) -> bool,
{
    dijkstra_tree(g, source, weight, include).0
}

/// Like [`dijkstra_parents`], but also returns each node's path cost from
/// `source` (`f64::INFINITY` for unreachable or excluded nodes).
///
/// The cost array is what incremental routing caches need: whether a
/// topology change can affect a cached tree is decided by comparing the
/// change's endpoints' costs, without recomputing the tree.
pub fn dijkstra_tree<W, F>(
    graph: &UndirectedGraph,
    source: NodeId,
    weight: W,
    include: F,
) -> (Vec<Option<NodeId>>, Vec<f64>)
where
    W: FnMut(NodeId, NodeId) -> f64,
    F: FnMut(NodeId) -> bool,
{
    let arcs = GraphArcs {
        graph,
        weight,
        include,
    };
    shortest_path_tree(arcs, source, &mut DijkstraScratch::default())
}

/// The *power cost* of routing along an edge: `d(u,v)ⁿ` for path-loss
/// exponent `n`. Minimizing the sum over a route minimizes radiated energy.
pub fn power_weight(layout: &Layout, exponent: f64) -> impl Fn(NodeId, NodeId) -> f64 + '_ {
    move |u, v| layout.distance(u, v).powf(exponent)
}

/// Summary of how much worse routes in `sub` are than in `full`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stretch {
    /// Largest ratio over all connected pairs.
    pub max: f64,
    /// Mean ratio over all connected pairs.
    pub mean: f64,
    /// Number of node pairs measured.
    pub pairs: usize,
}

/// Computes the stretch of `sub` relative to `full` under a shared edge
/// weight: for every pair connected in `full`, the ratio of the cheapest
/// route in `sub` to the cheapest in `full`.
///
/// # Panics
///
/// Panics if `sub` disconnects a pair that `full` connects (the ratio would
/// be infinite), or if graphs have different node counts.
pub fn stretch<W>(sub: &UndirectedGraph, full: &UndirectedGraph, weight: W) -> Stretch
where
    W: FnMut(NodeId, NodeId) -> f64 + Copy,
{
    assert_eq!(sub.node_count(), full.node_count());
    let n = full.node_count();
    let mut max = 1.0f64;
    let mut sum = 0.0;
    let mut pairs = 0usize;
    for s in 0..n as u32 {
        let source = NodeId::new(s);
        let d_full = dijkstra(full, source, weight);
        let d_sub = dijkstra(sub, source, weight);
        for t in (s + 1)..n as u32 {
            let t = t as usize;
            match (d_full[t], d_sub[t]) {
                (None, _) => {}
                (Some(f), Some(g)) => {
                    // Pairs at zero cost (co-located chains) count as ratio 1.
                    let ratio = if f == 0.0 { 1.0 } else { g / f };
                    max = max.max(ratio);
                    sum += ratio;
                    pairs += 1;
                }
                (Some(_), None) => {
                    panic!("subgraph disconnects pair ({source}, n{t}); stretch undefined")
                }
            }
        }
    }
    Stretch {
        max,
        mean: if pairs == 0 { 1.0 } else { sum / pairs as f64 },
        pairs,
    }
}

/// Power stretch: route-energy ratio under `d(u,v)ⁿ` edge costs.
pub fn power_stretch(
    sub: &UndirectedGraph,
    full: &UndirectedGraph,
    layout: &Layout,
    exponent: f64,
) -> Stretch {
    stretch(sub, full, |u, v| layout.distance(u, v).powf(exponent))
}

/// Hop stretch: path-length ratio under unit edge costs.
pub fn hop_stretch(sub: &UndirectedGraph, full: &UndirectedGraph) -> Stretch {
    stretch(sub, full, |_, _| 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtc_geom::Point2;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn dijkstra_prefers_cheap_detour() {
        // 0-1-2 with cheap edges vs direct expensive 0-2.
        let mut g = UndirectedGraph::new(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(0), n(2));
        let layout = Layout::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(2.0, 0.0),
        ]);
        // Quadratic power cost: detour 1+1=2 beats direct 4.
        let cost = dijkstra(&g, n(0), power_weight(&layout, 2.0));
        assert_eq!(cost[2], Some(2.0));
        // Hop cost: direct edge wins.
        let hops = dijkstra(&g, n(0), |_, _| 1.0);
        assert_eq!(hops[2], Some(1.0));
    }

    #[test]
    fn dijkstra_parents_builds_the_tree_and_respects_include() {
        // 0-1-2-3 chain plus a 0-3 shortcut.
        let mut g = UndirectedGraph::new(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(3));
        g.add_edge(n(0), n(3));
        let parent = dijkstra_parents(&g, n(0), |_, _| 1.0, |_| true);
        assert_eq!(parent[0], None);
        assert_eq!(parent[1], Some(n(0)));
        assert_eq!(parent[3], Some(n(0)), "shortcut wins under hop weight");
        // Excluding node 3 forces the chain and leaves it parentless.
        let parent = dijkstra_parents(&g, n(0), |_, _| 1.0, |v| v != n(3));
        assert_eq!(parent[3], None);
        assert_eq!(parent[2], Some(n(1)));
    }

    #[test]
    fn dijkstra_unreachable_is_none() {
        let g = UndirectedGraph::new(2);
        let cost = dijkstra(&g, n(0), |_, _| 1.0);
        assert_eq!(cost[0], Some(0.0));
        assert_eq!(cost[1], None);
    }

    #[test]
    fn stretch_of_identical_graph_is_one() {
        let mut g = UndirectedGraph::new(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        let s = hop_stretch(&g, &g);
        assert_eq!(s.max, 1.0);
        assert_eq!(s.mean, 1.0);
        assert_eq!(s.pairs, 3);
    }

    #[test]
    fn removing_shortcut_increases_hop_stretch() {
        let mut full = UndirectedGraph::new(3);
        full.add_edge(n(0), n(1));
        full.add_edge(n(1), n(2));
        full.add_edge(n(0), n(2));
        let mut sub = full.clone();
        sub.remove_edge(n(0), n(2));
        let s = hop_stretch(&sub, &full);
        assert_eq!(s.max, 2.0);
        assert_eq!(s.pairs, 3);
    }

    #[test]
    fn power_stretch_can_be_below_hop_stretch() {
        // Power metric: two short hops cost the same as... less than one
        // long hop, so removing the long edge does not hurt power routes.
        let layout = Layout::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(2.0, 0.0),
        ]);
        let mut full = UndirectedGraph::new(3);
        full.add_edge(n(0), n(1));
        full.add_edge(n(1), n(2));
        full.add_edge(n(0), n(2));
        let mut sub = full.clone();
        sub.remove_edge(n(0), n(2));
        let p = power_stretch(&sub, &full, &layout, 2.0);
        assert_eq!(p.max, 1.0); // detour is strictly cheaper in energy
        let h = hop_stretch(&sub, &full);
        assert!(h.max > 1.0);
    }

    #[test]
    #[should_panic(expected = "disconnects")]
    fn stretch_panics_when_pair_disconnected() {
        let mut full = UndirectedGraph::new(2);
        full.add_edge(n(0), n(1));
        let sub = UndirectedGraph::new(2);
        let _ = hop_stretch(&sub, &full);
    }

    #[test]
    fn disconnected_full_pairs_are_skipped() {
        let full = UndirectedGraph::new(3); // no edges at all
        let sub = UndirectedGraph::new(3);
        let s = hop_stretch(&sub, &full);
        assert_eq!(s.pairs, 0);
        assert_eq!(s.mean, 1.0);
    }
}
