//! Selective shortest-path-tree invalidation under topology deltas.
//!
//! A cached single-source shortest-path tree survives a topology change
//! when recomputing it would provably reproduce it bit-for-bit. The
//! rules here were proved for the lifetime engine's death epochs, where
//! positions never change, and apply verbatim to any consumer holding an
//! edge delta over fixed positions. When positions move, edge weights
//! move with them and no rule here applies.
//!
//! The tree may be partial ([`SpTree::grow_to`]): then the rules read its
//! *reached* set, the settled nodes plus the frontier at their tentative
//! costs and parents, exactly as they read a complete tree's reachable
//! set. A tree is **reusable** iff
//!
//! 1. no *dead* node is reached in it (its removal could re-route or
//!    orphan descendants, and a dead frontier node would settle later);
//! 2. no *removed* edge is one of its tree edges, tentative ones
//!    included (removed non-tree edges never won a relaxation that
//!    stands, so their absence changes nothing);
//! 3. no *added* edge, priced in either direction, offers any node a
//!    path at most as cheap as its current one (strictly-worse additions
//!    never win a relaxation that stands). Unreached nodes stand at
//!    `f64::INFINITY`, so an added edge leaving the reached set drops the
//!    tree and one between two unreached nodes does not.

use cbtc_graph::paths::SpTree;
use cbtc_graph::NodeId;

use super::delta::TopologyDelta;

/// Whether a cached tree survives the change described by `dead` and
/// `delta` — the three keep rules above, with `weight`
/// pricing the added edges at the *current* geometry. `weight(u, v)` is
/// the arc `u → v`; the two directions of an added edge are priced
/// separately, so directed weights are handled.
///
/// When this returns `true`, a recomputation would reproduce the tree
/// bit-for-bit, so keeping it leaves every downstream arithmetic
/// unchanged. For a partial tree that means: a fresh run on the changed
/// arcs, stopped after settling as many nodes, has the same settled
/// prefix and the same frontier (costs and parents). The settle order is
/// fixed by the settled nodes' costs, and no kept change moves one: no
/// dead node is reached and no arc a standing cost or parent came over
/// was lost (rules 1 and 2), and no added arc offers a settled or
/// frontier node a cost at most its own (rule 3), so every cost and
/// parent is still the strict minimum over the same offers from the
/// same settled nodes. An unreached node had no offer from a settled node
/// and still has none: rule 3 sees its cost as `f64::INFINITY`, so any
/// added arc from the reached set drops the tree. Resuming the kept tree
/// on the changed arcs therefore continues the fresh run ([`SpTree`]'s
/// stop-and-resume rule).
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
        .any(|&(u, v)| tree.parent(v) == Some(u) || tree.parent(u) == Some(v));
    if lost_tree_edge {
        return false;
    }
    let dist = tree.dist();
    let improvable = delta.added.iter().any(|&(a, b)| {
        let (da, db) = (dist[a.index()], dist[b.index()]);
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
    use cbtc_graph::paths::{DijkstraScratch, Rows};
    use cbtc_graph::UndirectedGraph;

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
        assert_eq!(tree.parent(n(2)), Some(n(1)));
        assert_eq!(tree.dist()[2], 2.0);
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
        assert_eq!(tree.parent(n(2)), Some(n(1)));
        // Add 2–3 with w(2→3) = 5 but w(3→2) = 0.5: reaching 2 through 3
        // costs 1.5 < 2, so the tree is stale.
        let directed = |u: NodeId, v: NodeId| match (u.raw(), v.raw()) {
            (2, 3) => 5.0,
            (3, 2) => 0.5,
            _ => 1.0,
        };
        g.add_edge(n(2), n(3));
        let recomputed = SpTree::compute(&g, n(0), directed, |_| true);
        assert_eq!(
            recomputed.parent(n(2)),
            Some(n(3)),
            "a recompute re-routes 2"
        );
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

    /// Unit-weight chain 0 — 1 — 2 — 3 — 4 plus an isolated 5, grown from
    /// 0 only until 1 settles: 0 and 1 settled, 2 in the frontier (cost
    /// 2, tentative parent 1), 3, 4 and 5 unreached.
    fn partial_chain_tree() -> SpTree {
        let mut rows: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); 6];
        for i in 0..4 {
            rows[i as usize].push((n(i + 1), 1.0));
            rows[i as usize + 1].push((n(i), 1.0));
        }
        let mut tree = SpTree::new(6, n(0));
        tree.grow_to(Rows(&rows), &[n(1)], &mut DijkstraScratch::default());
        assert!(tree.is_settled(n(1)) && !tree.is_settled(n(2)));
        assert!(tree.reaches(n(2)) && !tree.reaches(n(3)));
        assert_eq!(tree.parent(n(2)), Some(n(1)));
        assert!(!tree.is_complete());
        tree
    }

    #[test]
    fn partial_tree_keeps_through_a_death_outside_the_reached_set() {
        let tree = partial_chain_tree();
        let death = TopologyDelta {
            removed: vec![(n(3), n(4))],
            added: vec![],
        };
        assert!(tree_reusable(&tree, &[n(4)], &death, |_, _| 1.0));
    }

    #[test]
    fn partial_tree_drops_on_a_death_in_the_frontier() {
        let tree = partial_chain_tree();
        // The delta leaves out the dead node's tentative tree edge 1–2,
        // so only the dead-node rule can drop the tree.
        let death = TopologyDelta {
            removed: vec![(n(2), n(3))],
            added: vec![],
        };
        assert!(!tree_reusable(&tree, &[n(2)], &death, |_, _| 1.0));
    }

    #[test]
    fn partial_tree_drops_on_losing_a_tentative_parent_edge() {
        let tree = partial_chain_tree();
        let lost = TopologyDelta {
            removed: vec![(n(1), n(2))],
            added: vec![],
        };
        assert!(!tree_reusable(&tree, &[], &lost, |_, _| 1.0));
    }

    #[test]
    fn partial_tree_keeps_an_added_edge_between_unreached_nodes() {
        let tree = partial_chain_tree();
        let between_unreached = TopologyDelta {
            removed: vec![],
            added: vec![(n(3), n(5))],
        };
        assert!(tree_reusable(&tree, &[], &between_unreached, |_, _| 1.0));
        // An added edge leaving the frontier offers its far end a first,
        // finite cost: the tree drops.
        let leaves_frontier = TopologyDelta {
            removed: vec![],
            added: vec![(n(2), n(5))],
        };
        assert!(!tree_reusable(&tree, &[], &leaves_frontier, |_, _| 1.0));
    }
}
