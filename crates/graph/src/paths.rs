//! Weighted shortest paths and stretch factors.
//!
//! §1 of the paper cites the competitiveness result of \[16\]: the most
//! power-efficient route in `G_α` is at most a constant factor worse than in
//! `G_R`. These helpers compute exact *power stretch* and *hop stretch*
//! factors of a subgraph so the claim can be measured on simulated
//! networks.
//!
//! Every shortest-path function here is a thin caller of one kernel,
//! [`SpTree`]'s, generic over where it reads arcs from ([`Arcs`]): a
//! graph with weight and include closures ([`GraphArcs`]), or pre-priced
//! adjacency rows ([`Rows`]), which is how the lifetime engine routes.
//! The kernel can stop once given targets are settled and resume later
//! ([`SpTree::grow_to`]); [`shortest_path_tree`] grows it to the end.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{Layout, NodeId, UndirectedGraph};

/// Where the shortest-path kernel ([`SpTree`]) reads a node's out-arcs
/// from.
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

/// `SpTree::parent` entry of a node without a predecessor: the source,
/// and every node not reached yet. `NodeId(u32)` has no niche, so an
/// `Option<NodeId>` would take 8 bytes a node instead of 4.
const NO_PARENT: u32 = u32::MAX;

/// A single-source shortest-path tree, grown by the one kernel in this
/// module, perhaps only part of the way: each node's cost from the source
/// and its predecessor on that cheapest path.
///
/// A node is *settled* once the kernel has popped it and relaxed its
/// arcs; its parent and cost are then final. A node is *reached* once
/// some settled node offered it a finite cost; the reached but unsettled
/// nodes are the *frontier*, holding tentative costs and parents. A tree
/// is *complete* when its frontier is empty: every node reachable from
/// the source is settled and every other node is at `f64::INFINITY`.
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
/// # Stop and resume
///
/// [`SpTree::grow_to`] settles nodes only until every given target is
/// settled (or the frontier runs dry), and stops right after relaxing the
/// last target's arcs, so every settled node has relaxed all of its arcs.
/// The heap is not kept: a later call rebuilds it from the frontier, one
/// entry per frontier node at its tentative cost, and continues. That
/// resumed heap holds exactly the live entries the uninterrupted heap
/// would hold at the same point (every other entry of it is stale: an
/// older, higher cost of a frontier node, or a settled node's), so the
/// next pop — and every later one — is the one an uninterrupted run makes.
/// A node's parent and cost never change after it settles, because no
/// later pop costs less. Hence, on the same arcs, a tree grown in any
/// sequence of stops agrees with the full tree ([`shortest_path_tree`])
/// on every settled node, and growing it to the end yields the full tree
/// bit for bit.
///
/// # Example
///
/// ```
/// use cbtc_graph::paths::{shortest_path_tree, DijkstraScratch, Rows, SpTree};
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
/// let mut tree = SpTree::new(3, n(0));
/// tree.grow_to(Rows(&rows), &[n(1)], &mut scratch);
/// assert!(tree.is_settled(n(1)) && !tree.is_settled(n(2)));
/// assert_eq!(tree.dist()[2], 2.0); // tentative, through 1
/// tree.grow_to(Rows(&rows), &[n(2)], &mut scratch);
/// assert_eq!(tree.parent(n(2)), Some(n(1)));
/// let full = shortest_path_tree(Rows(&rows), n(0), &mut scratch);
/// assert_eq!(tree.parents(), full.parents());
/// ```
#[derive(Debug, Clone)]
pub struct SpTree {
    /// Final cost of a settled node, tentative cost of a frontier node,
    /// `f64::INFINITY` elsewhere.
    dist: Vec<f64>,
    /// Predecessor's raw ID, or [`NO_PARENT`].
    parent: Vec<u32>,
    /// One bit per node: `dist` is finite.
    reached: Vec<u64>,
    /// One bit per node.
    settled: Vec<u64>,
    /// Whether the frontier is known to be empty.
    complete: bool,
}

impl SpTree {
    /// A tree over `n` nodes that has reached only `source`, at cost 0,
    /// and settled nothing yet.
    pub fn new(n: usize, source: NodeId) -> Self {
        let mut dist = vec![f64::INFINITY; n];
        dist[source.index()] = 0.0;
        let mut reached = vec![0; n.div_ceil(64)];
        set_bit(&mut reached, source.index());
        SpTree {
            dist,
            parent: vec![NO_PARENT; n],
            reached,
            settled: vec![0; n.div_ceil(64)],
            complete: false,
        }
    }

    /// The complete tree over an undirected graph priced by `weight`,
    /// restricted to nodes accepted by `include` (the source is always
    /// included): the kernel grown to the end over [`GraphArcs`].
    ///
    /// The cost array is what incremental routing caches need: whether a
    /// topology change can affect a cached tree is decided by comparing
    /// the change's endpoints' costs, without recomputing the tree.
    pub fn compute<W, F>(graph: &UndirectedGraph, source: NodeId, weight: W, include: F) -> Self
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

    /// Settles nodes until every node of `targets` is settled or the tree
    /// is complete (a target the source cannot reach never settles). A
    /// call whose targets are all settled already does nothing. The
    /// [stop-and-resume rule](SpTree#stop-and-resume) makes any sequence
    /// of calls on the same `arcs` agree with the full tree.
    pub fn grow_to<A: Arcs>(&mut self, arcs: A, targets: &[NodeId], scratch: &mut DijkstraScratch) {
        // Distinct targets still to settle.
        let pending = targets
            .iter()
            .enumerate()
            .filter(|&(i, &t)| !self.is_settled(t) && !targets[..i].contains(&t))
            .count();
        if pending > 0 {
            self.settle(arcs, Some((targets, pending)), scratch);
        }
    }

    /// Settles every node the source reaches: the tree is complete.
    pub fn grow_to_end<A: Arcs>(&mut self, arcs: A, scratch: &mut DijkstraScratch) {
        self.settle(arcs, None, scratch);
    }

    /// The kernel. Rebuilds the heap from the frontier, then settles in
    /// `(dist bits, id)` order until `until`'s pending count of targets
    /// drops to zero (`None`: until the heap is empty).
    fn settle<A: Arcs>(
        &mut self,
        mut arcs: A,
        mut until: Option<(&[NodeId], usize)>,
        scratch: &mut DijkstraScratch,
    ) {
        if self.complete {
            return;
        }
        // The frontier, a word of the reached-but-unsettled bits at a time.
        let mut entries = std::mem::take(&mut scratch.heap).into_vec();
        entries.clear();
        for (word, (&reached, &settled)) in self.reached.iter().zip(&self.settled).enumerate() {
            let mut frontier = reached & !settled;
            while frontier != 0 {
                let v = word * 64 + frontier.trailing_zeros() as usize;
                frontier &= frontier - 1;
                entries.push(Reverse((self.dist[v].to_bits(), NodeId::new(v as u32))));
            }
        }
        let mut heap = BinaryHeap::from(entries);
        let (dist, parent, reached) = (&mut self.dist, &mut self.parent, &mut self.reached);
        while let Some(Reverse((bits, u))) = heap.pop() {
            if bits > dist[u.index()].to_bits() {
                continue; // stale entry
            }
            set_bit(&mut self.settled, u.index());
            let cost = f64::from_bits(bits);
            arcs.for_each_arc(u, |v, w| {
                debug_assert!(w >= 0.0, "negative edge weight");
                let next = cost + w;
                if next < dist[v.index()] {
                    dist[v.index()] = next;
                    parent[v.index()] = u.raw();
                    set_bit(reached, v.index());
                    heap.push(Reverse((next.to_bits(), v)));
                }
            });
            if let Some((targets, pending)) = &mut until {
                if targets.contains(&u) {
                    *pending -= 1;
                    if *pending == 0 {
                        break;
                    }
                }
            }
        }
        self.complete = heap.is_empty();
        scratch.heap = heap;
    }

    /// Each node's cost from the source: final for a settled node,
    /// tentative for a frontier node, `f64::INFINITY` for the rest.
    pub fn dist(&self) -> &[f64] {
        &self.dist
    }

    /// `v`'s predecessor: final for a settled node, tentative for a
    /// frontier node, `None` for the source and unreached nodes.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        let p = self.parent[v.index()];
        (p != NO_PARENT).then(|| NodeId::new(p))
    }

    /// [`SpTree::parent`] of every node, in ID order.
    pub fn parents(&self) -> Vec<Option<NodeId>> {
        (0..self.parent.len() as u32)
            .map(|v| self.parent(NodeId::new(v)))
            .collect()
    }

    /// Whether `v` is reached: settled, or in the frontier.
    pub fn reaches(&self, v: NodeId) -> bool {
        bit(&self.reached, v.index())
    }

    /// Whether `v` is settled: its parent and cost are final.
    pub fn is_settled(&self, v: NodeId) -> bool {
        bit(&self.settled, v.index())
    }

    /// Whether every node the source reaches is settled.
    pub fn is_complete(&self) -> bool {
        self.complete
    }
}

/// Bit `i` of a bitset stored in 64-bit words.
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1 << (i % 64)) != 0
}

/// Sets bit `i` of a bitset stored in 64-bit words.
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// The single-source shortest-path kernel grown to the end: the complete
/// [`SpTree`] from `source` over `arcs`, reusing `scratch`'s heap. The
/// settle rule, and why partial growth agrees with this, are on
/// [`SpTree`].
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
/// let tree = shortest_path_tree(Rows(&rows), n(0), &mut scratch);
/// assert_eq!(tree.parent(n(2)), Some(n(1)));
/// assert_eq!(tree.dist()[2], 2.0);
/// ```
pub fn shortest_path_tree<A: Arcs>(
    arcs: A,
    source: NodeId,
    scratch: &mut DijkstraScratch,
) -> SpTree {
    let mut tree = SpTree::new(arcs.node_count(), source);
    tree.grow_to_end(arcs, scratch);
    tree
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
    SpTree::compute(g, source, weight, |_| true)
        .dist()
        .iter()
        .map(|d| d.is_finite().then_some(*d))
        .collect()
}

/// Single-source shortest-path **tree** under an arbitrary non-negative
/// edge weight, restricted to nodes accepted by `include`: returns each
/// node's predecessor on the cheapest path from `source` (`None` for the
/// source itself and for unreachable or excluded nodes).
///
/// The `include` predicate lets callers route over an induced subgraph —
/// e.g. the still-alive nodes of a lifetime simulation — without
/// materializing it. Ties follow [`SpTree`]'s settle rule, so the tree
/// is deterministic.
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
    SpTree::compute(g, source, weight, include).parents()
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
