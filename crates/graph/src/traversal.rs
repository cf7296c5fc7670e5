//! Breadth-first traversal, connected components and hop distances.

use std::collections::VecDeque;

use crate::{NodeId, UndirectedGraph, UnionFind};

/// Hop distances from `source` to every node: `dist[i]` is the number of
/// edges on a shortest path, or `None` when unreachable.
///
/// # Example
///
/// ```
/// use cbtc_graph::{NodeId, UndirectedGraph, traversal::bfs_distances};
///
/// let mut g = UndirectedGraph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1));
/// let d = bfs_distances(&g, NodeId::new(0));
/// assert_eq!(d[1], Some(1));
/// assert_eq!(d[2], None);
/// ```
pub fn bfs_distances(g: &UndirectedGraph, source: NodeId) -> Vec<Option<usize>> {
    let mut dist = vec![None; g.node_count()];
    dist[source.index()] = Some(0);
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued nodes have distances");
        for v in g.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Canonical connected-component labels (components numbered in order of
/// their smallest member).
pub fn component_labels(g: &UndirectedGraph) -> Vec<usize> {
    union_find_of(g).component_labels()
}

/// Number of connected components.
pub fn component_count(g: &UndirectedGraph) -> usize {
    union_find_of(g).component_count()
}

/// Whether the graph is connected (vacuously true when empty).
pub fn is_connected(g: &UndirectedGraph) -> bool {
    g.node_count() == 0 || component_count(g) == 1
}

/// Whether the nodes with `alive[i]` true induce one connected subgraph
/// of `g`. Unlike [`is_connected`], fewer than two alive nodes count as
/// *not* connected: a network of one survivor carries no traffic.
///
/// # Panics
///
/// Panics if `alive.len()` differs from the graph's node count.
///
/// # Example
///
/// ```
/// use cbtc_graph::{NodeId, UndirectedGraph, traversal::alive_connected};
///
/// let mut g = UndirectedGraph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1));
/// g.add_edge(NodeId::new(1), NodeId::new(2));
/// assert!(alive_connected(&g, &[true, true, true]));
/// assert!(!alive_connected(&g, &[true, false, true]));
/// ```
pub fn alive_connected(g: &UndirectedGraph, alive: &[bool]) -> bool {
    assert_eq!(alive.len(), g.node_count(), "alive mask size mismatch");
    let total = alive.iter().filter(|&&a| a).count();
    let Some(start) = alive.iter().position(|&a| a) else {
        return false;
    };
    if total < 2 {
        return false;
    }
    let mut seen = vec![false; alive.len()];
    seen[start] = true;
    let mut stack = vec![NodeId::new(start as u32)];
    let mut reached = 1;
    while let Some(u) = stack.pop() {
        for v in g.neighbors(u) {
            if alive[v.index()] && !seen[v.index()] {
                seen[v.index()] = true;
                reached += 1;
                stack.push(v);
            }
        }
    }
    reached == total
}

/// A [`UnionFind`] populated with the graph's edges.
pub fn union_find_of(g: &UndirectedGraph) -> UnionFind {
    let mut uf = UnionFind::new(g.node_count());
    for (u, v) in g.edges() {
        uf.union(u, v);
    }
    uf
}

/// The nodes of the component containing `u`, in increasing ID order.
pub fn component_of(g: &UndirectedGraph, u: NodeId) -> Vec<NodeId> {
    let dist = bfs_distances(g, u);
    dist.iter()
        .enumerate()
        .filter(|(_, d)| d.is_some())
        .map(|(i, _)| NodeId::new(i as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn path_graph(len: usize) -> UndirectedGraph {
        let mut g = UndirectedGraph::new(len);
        for i in 0..len.saturating_sub(1) {
            g.add_edge(n(i as u32), n(i as u32 + 1));
        }
        g
    }

    #[test]
    fn bfs_on_path() {
        let g = path_graph(5);
        let d = bfs_distances(&g, n(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        let d2 = bfs_distances(&g, n(2));
        assert_eq!(d2, vec![Some(2), Some(1), Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn bfs_unreachable() {
        let mut g = UndirectedGraph::new(4);
        g.add_edge(n(0), n(1));
        let d = bfs_distances(&g, n(0));
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
    }

    #[test]
    fn components() {
        let mut g = UndirectedGraph::new(6);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(4), n(5));
        assert_eq!(component_count(&g), 3);
        assert!(!is_connected(&g));
        assert_eq!(component_labels(&g), vec![0, 0, 0, 1, 2, 2]);
        assert_eq!(component_of(&g, n(1)), vec![n(0), n(1), n(2)]);
        assert_eq!(component_of(&g, n(3)), vec![n(3)]);
    }

    #[test]
    fn connected_cases() {
        assert!(is_connected(&UndirectedGraph::new(0)));
        assert!(is_connected(&UndirectedGraph::new(1)));
        assert!(!is_connected(&UndirectedGraph::new(2)));
        assert!(is_connected(&path_graph(10)));
    }

    #[test]
    fn alive_connected_needs_two_alive_nodes() {
        let g = path_graph(3);
        assert!(!alive_connected(&UndirectedGraph::new(0), &[]));
        assert!(!alive_connected(&g, &[false, false, false]));
        assert!(!alive_connected(&g, &[false, true, false]));
        assert!(alive_connected(&g, &[true, true, false]));
    }

    #[test]
    fn alive_connected_ignores_dead_nodes_and_their_edges() {
        // 0-1-2-3 plus a chord 0-2: killing 1 keeps {0, 2, 3} connected
        // through the chord; killing 2 as well cuts 3 off, and a dead
        // node never relays.
        let mut g = path_graph(4);
        g.add_edge(n(0), n(2));
        assert!(alive_connected(&g, &[true; 4]));
        assert!(alive_connected(&g, &[true, false, true, true]));
        assert!(!alive_connected(&g, &[true, false, false, true]));
        assert!(!alive_connected(&path_graph(3), &[true, false, true]));
    }

    #[test]
    fn alive_connected_sees_every_component() {
        // Two alive components: the search from the first alive node
        // must not stop at its own component.
        let mut g = UndirectedGraph::new(5);
        g.add_edge(n(1), n(2));
        g.add_edge(n(3), n(4));
        assert!(!alive_connected(&g, &[false, true, true, true, true]));
        assert!(alive_connected(&g, &[false, true, true, false, false]));
        assert!(!alive_connected(&g, &[true, false, false, true, true]));
    }

    #[test]
    #[should_panic(expected = "alive mask size mismatch")]
    fn alive_connected_rejects_a_short_mask() {
        alive_connected(&path_graph(3), &[true, true]);
    }

    #[test]
    fn bfs_shortest_over_cycle() {
        // 0-1-2-3-0 cycle: distance 0→3 is 1, 0→2 is 2.
        let mut g = path_graph(4);
        g.add_edge(n(3), n(0));
        let d = bfs_distances(&g, n(0));
        assert_eq!(d[3], Some(1));
        assert_eq!(d[2], Some(2));
    }
}
