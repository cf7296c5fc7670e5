//! Selective shortest-path-tree invalidation under topology deltas.
//!
//! A cached single-source shortest-path tree survives a topology change
//! when recomputing it would provably reproduce it bit-for-bit. The
//! rules here were proved for the lifetime engine's death epochs, where
//! positions never change, and apply verbatim to any consumer holding an
//! edge delta over fixed positions. When positions move, edge weights
//! move with them and no rule here applies.
//!
//! A tree is **reusable** iff
//!
//! 1. no *dead* node is reachable in it (its removal could re-route or
//!    orphan descendants);
//! 2. no *removed* edge is one of its tree edges (removed non-tree edges
//!    never won a relaxation, so their absence changes nothing);
//! 3. no *added* edge, priced in either direction, offers any node a
//!    path at most as cheap as its current one (strictly-worse additions
//!    never win a relaxation).

use cbtc_graph::paths::{dijkstra_tree, shortest_path_tree, Arcs, DijkstraScratch};
use cbtc_graph::{NodeId, UndirectedGraph};

use super::delta::TopologyDelta;

/// One source's cached shortest-path tree: predecessors plus path costs
/// (the costs decide whether a topology change can invalidate the tree).
#[derive(Debug, Clone)]
pub struct SpTree {
    /// `parent[v]` is `v`'s predecessor on the cheapest path from the
    /// source (`None` for the source and for unreachable nodes).
    pub parent: Vec<Option<NodeId>>,
    /// `dist[v]` is the cost of that path (`f64::INFINITY` when
    /// unreachable).
    pub dist: Vec<f64>,
}

impl SpTree {
    /// Computes the tree fresh with [`dijkstra_tree`], restricted to
    /// nodes accepted by `include`.
    pub fn compute<W, F>(g: &UndirectedGraph, source: NodeId, weight: W, include: F) -> Self
    where
        W: FnMut(NodeId, NodeId) -> f64,
        F: FnMut(NodeId) -> bool,
    {
        let (parent, dist) = dijkstra_tree(g, source, weight, include);
        SpTree { parent, dist }
    }

    /// Computes the tree over any arc source — e.g. pre-priced
    /// [`cbtc_graph::paths::Rows`] — reusing `scratch`'s heap. Same
    /// kernel and settle rule as [`SpTree::compute`].
    pub fn compute_on<A: Arcs>(arcs: A, source: NodeId, scratch: &mut DijkstraScratch) -> Self {
        let (parent, dist) = shortest_path_tree(arcs, source, scratch);
        SpTree { parent, dist }
    }

    /// Whether `v` is reachable from the source in this tree.
    pub fn reaches(&self, v: NodeId) -> bool {
        self.dist[v.index()].is_finite()
    }
}

/// Whether a cached tree survives the change described by `dead` and
/// `delta` — the three keep rules above, with `weight`
/// pricing the added edges at the *current* geometry. `weight(u, v)` is
/// the arc `u → v`; the two directions of an added edge are priced
/// separately, so directed weights are handled.
///
/// When this returns `true`, a recomputation would reproduce the tree
/// bit-for-bit, so keeping it leaves every downstream arithmetic
/// unchanged.
pub fn tree_reusable<W>(tree: &SpTree, dead: &[NodeId], delta: &TopologyDelta, weight: W) -> bool
where
    W: Fn(NodeId, NodeId) -> f64,
{
    let reaches_dead = dead.iter().any(|&d| tree.reaches(d));
    if reaches_dead {
        return false;
    }
    let lost_tree_edge = delta
        .removed
        .iter()
        .any(|&(u, v)| tree.parent[v.index()] == Some(u) || tree.parent[u.index()] == Some(v));
    if lost_tree_edge {
        return false;
    }
    let improvable = delta.added.iter().any(|&(a, b)| {
        let (da, db) = (tree.dist[a.index()], tree.dist[b.index()]);
        if !da.is_finite() && !db.is_finite() {
            return false;
        }
        da + weight(a, b) <= db || db + weight(b, a) <= da
    });
    !improvable
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// 0 — 1 — 2   3 (isolated)
    fn chain_tree() -> (UndirectedGraph, SpTree) {
        let mut g = UndirectedGraph::new(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        let tree = SpTree::compute(&g, n(0), |_, _| 1.0, |_| true);
        (g, tree)
    }

    #[test]
    fn compute_matches_expectations() {
        let (_, tree) = chain_tree();
        assert_eq!(tree.parent[2], Some(n(1)));
        assert_eq!(tree.dist[2], 2.0);
        assert!(!tree.reaches(n(3)));
    }

    #[test]
    fn empty_delta_keeps_the_tree() {
        let (_, tree) = chain_tree();
        assert!(tree_reusable(
            &tree,
            &[],
            &TopologyDelta::default(),
            |_, _| 1.0
        ));
    }

    #[test]
    fn reachable_death_invalidates() {
        let (_, tree) = chain_tree();
        assert!(!tree_reusable(
            &tree,
            &[n(2)],
            &TopologyDelta::default(),
            |_, _| 1.0
        ));
        // An unreachable death is irrelevant.
        assert!(tree_reusable(
            &tree,
            &[n(3)],
            &TopologyDelta::default(),
            |_, _| 1.0
        ));
    }

    #[test]
    fn tree_edge_removal_invalidates_but_nontree_does_not() {
        let (_, tree) = chain_tree();
        let lost_tree = TopologyDelta {
            removed: vec![(n(0), n(1))],
            added: vec![],
        };
        assert!(!tree_reusable(&tree, &[], &lost_tree, |_, _| 1.0));
        // Removing an edge the tree never used (2–3 was never present but
        // the rule only inspects parents) keeps the tree.
        let lost_other = TopologyDelta {
            removed: vec![(n(2), n(3))],
            added: vec![],
        };
        assert!(tree_reusable(&tree, &[], &lost_other, |_, _| 1.0));
    }

    #[test]
    fn improving_addition_invalidates_and_worse_does_not() {
        let (_, tree) = chain_tree();
        let added = TopologyDelta {
            removed: vec![],
            added: vec![(n(0), n(2))],
        };
        // Weight 1.0: 0→2 directly (cost 1) beats the cached cost 2.
        assert!(!tree_reusable(&tree, &[], &added, |_, _| 1.0));
        // Weight 10.0: strictly worse, never wins a relaxation.
        assert!(tree_reusable(&tree, &[], &added, |_, _| 10.0));
        // An addition that newly connects an unreachable node always
        // invalidates.
        let connects = TopologyDelta {
            removed: vec![],
            added: vec![(n(2), n(3))],
        };
        assert!(!tree_reusable(&tree, &[], &connects, |_, _| 10.0));
    }

    #[test]
    fn improvable_check_prices_each_direction_of_an_added_edge() {
        // Tree from 0 over 0–1, 1–2, 0–3 at unit weights: dist 2 at
        // node 2, 1 at node 3.
        let mut g = UndirectedGraph::new(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(0), n(3));
        let tree = SpTree::compute(&g, n(0), |_, _| 1.0, |_| true);
        assert_eq!(tree.parent[2], Some(n(1)));
        // Add 2–3 with w(2→3) = 5 but w(3→2) = 0.5: reaching 2 through 3
        // costs 1.5 < 2, so the tree is stale.
        let directed = |u: NodeId, v: NodeId| match (u.raw(), v.raw()) {
            (2, 3) => 5.0,
            (3, 2) => 0.5,
            _ => 1.0,
        };
        g.add_edge(n(2), n(3));
        let recomputed = SpTree::compute(&g, n(0), directed, |_| true);
        assert_eq!(recomputed.parent[2], Some(n(3)), "a recompute re-routes 2");
        for added in [(n(2), n(3)), (n(3), n(2))] {
            let delta = TopologyDelta {
                removed: vec![],
                added: vec![added],
            };
            assert!(
                !tree_reusable(&tree, &[], &delta, directed),
                "added {added:?} improves node 2 in the 3 → 2 direction"
            );
        }
    }
}
