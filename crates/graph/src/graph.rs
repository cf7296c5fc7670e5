//! Undirected graphs over a fixed node set.

use serde::Serialize;

use crate::NodeId;

/// An undirected simple graph on nodes `0..n`.
///
/// Adjacency is stored as sorted vectors, so iteration order is
/// deterministic — a requirement for reproducible experiments — while
/// insertion and membership stay cache-friendly at the low degrees
/// topology-controlled graphs have (the paper's whole point is bounded
/// degree, §3).
///
/// # Example
///
/// ```
/// use cbtc_graph::{NodeId, UndirectedGraph};
///
/// let mut g = UndirectedGraph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1));
/// assert!(g.has_edge(NodeId::new(1), NodeId::new(0)));
/// assert_eq!(g.degree(NodeId::new(0)), 1);
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct UndirectedGraph {
    adj: Vec<Vec<NodeId>>,
}

// Deserialization re-establishes the representation invariant (sorted,
// deduplicated, symmetric adjacency without self-loops) instead of
// trusting the input: external JSON with unsorted or one-sided lists
// would otherwise silently break every `binary_search`-based operation.
impl serde::Deserialize for UndirectedGraph {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let entries = v
            .as_map()
            .ok_or_else(|| serde::DeError::custom("UndirectedGraph: expected a map"))?;
        let adj: Vec<Vec<NodeId>> = serde::map_field(entries, "adj", "UndirectedGraph")?;
        let n = adj.len();
        let mut edges = Vec::new();
        for (i, nbrs) in adj.iter().enumerate() {
            let u = NodeId::new(i as u32);
            for &w in nbrs {
                if w == u {
                    return Err(serde::DeError::custom(format!(
                        "UndirectedGraph: self-loop at node {u}"
                    )));
                }
                if w.index() >= n {
                    return Err(serde::DeError::custom(format!(
                        "UndirectedGraph: neighbor {w} out of range for {n} nodes"
                    )));
                }
                edges.push((u, w));
            }
        }
        Ok(UndirectedGraph::from_edges(n, edges))
    }
}

impl UndirectedGraph {
    /// Creates an edgeless graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        UndirectedGraph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Builds a graph on `n` nodes from unordered edges in bulk:
    /// `O(n + |E| log Δ)` total instead of one sorted insertion per edge.
    /// Duplicate edges are deduplicated.
    ///
    /// # Panics
    ///
    /// Panics on self-loops or out-of-range endpoints.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let edges: Vec<(NodeId, NodeId)> = edges.into_iter().collect();
        let mut degree = vec![0u32; n];
        for &(u, v) in &edges {
            assert!(u != v, "self-loop {u} rejected");
            assert!(
                u.index() < n && v.index() < n,
                "edge ({u}, {v}) out of range for {n} nodes"
            );
            degree[u.index()] += 1;
            degree[v.index()] += 1;
        }
        let mut adj: Vec<Vec<NodeId>> = degree
            .iter()
            .map(|&d| Vec::with_capacity(d as usize))
            .collect();
        for &(u, v) in &edges {
            adj[u.index()].push(v);
            adj[v.index()].push(u);
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        UndirectedGraph { adj }
    }

    /// Adopts finished adjacency rows as the graph, without an
    /// intermediate edge list: `rows[u]` becomes `u`'s neighbor list.
    ///
    /// For bulk builders that already know every node's complete,
    /// symmetric neighborhood (the §3 stages compute each row
    /// independently, one worker per chunk of nodes). Symmetry — `v ∈
    /// rows[u]` iff `u ∈ rows[v]` — is the caller's contract and is
    /// checked in debug builds only; the per-row invariants are always
    /// checked.
    ///
    /// # Panics
    ///
    /// Panics if a row is not strictly sorted, holds its own node, or
    /// names a node out of range.
    pub fn from_symmetric_rows(rows: Vec<Vec<NodeId>>) -> Self {
        let n = rows.len();
        for (i, row) in rows.iter().enumerate() {
            let u = NodeId::new(i as u32);
            assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "row of {u} must be strictly sorted"
            );
            if let Some(&v) = row.last() {
                assert!(v.index() < n, "neighbor {v} out of range for {n} nodes");
            }
            assert!(row.binary_search(&u).is_err(), "self-loop {u} rejected");
        }
        debug_assert!(
            rows.iter()
                .enumerate()
                .all(|(i, row)| row.iter().all(|v| rows[v.index()]
                    .binary_search(&NodeId::new(i as u32))
                    .is_ok())),
            "rows must be symmetric"
        );
        UndirectedGraph { adj: rows }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Adds the undirected edge `{u, v}`. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loops are not meaningful for radio links)
    /// or either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(u != v, "self-loop {u} rejected");
        assert!(
            u.index() < self.adj.len() && v.index() < self.adj.len(),
            "edge ({u}, {v}) out of range for {} nodes",
            self.adj.len()
        );
        // Both directions are inserted or neither: the Err/Ok outcome is
        // identical for a consistent adjacency, so checking one suffices.
        if let Err(i) = self.adj[u.index()].binary_search(&v) {
            self.adj[u.index()].insert(i, v);
            let j = self.adj[v.index()]
                .binary_search(&u)
                .expect_err("adjacency out of sync");
            self.adj[v.index()].insert(j, u);
        }
    }

    /// Removes the undirected edge `{u, v}` if present; returns whether an
    /// edge was removed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        match self.adj[u.index()].binary_search(&v) {
            Err(_) => false,
            Ok(i) => {
                self.adj[u.index()].remove(i);
                let j = self.adj[v.index()]
                    .binary_search(&u)
                    .expect("adjacency out of sync");
                self.adj[v.index()].remove(j);
                true
            }
        }
    }

    /// Replaces `u`'s entire adjacency row with `new_row` in one pass,
    /// fixing the affected neighbor rows and reporting the net edge delta.
    ///
    /// `new_row` must be strictly sorted, free of `u`, and in range. The
    /// neighbors dropped from the row are appended to `removed` and the new
    /// ones to `added` (both are cleared first), each in increasing ID
    /// order; neighbors present in both the old and new row are untouched —
    /// their rows see **zero** edits, where a remove-all-then-re-add loop
    /// would binary-search and memmove every one of them twice.
    ///
    /// This is the batched form of per-edge [`Self::remove_edge`] /
    /// [`Self::add_edge`] that incremental reconfiguration uses when it
    /// already knows a node's complete new neighborhood: `u`'s row is
    /// diffed and rewritten once (`O(deg)`) instead of edited edge by edge
    /// (`O(deg²)` memmoves).
    ///
    /// # Panics
    ///
    /// Panics if `u` or any entry of `new_row` is out of range, or if
    /// `new_row` contains `u` or is not strictly sorted.
    pub fn rebuild_row(
        &mut self,
        u: NodeId,
        new_row: &[NodeId],
        removed: &mut Vec<NodeId>,
        added: &mut Vec<NodeId>,
    ) {
        removed.clear();
        added.clear();
        assert!(
            u.index() < self.adj.len(),
            "node {u} out of range for {} nodes",
            self.adj.len()
        );
        assert!(
            new_row.windows(2).all(|w| w[0] < w[1]),
            "new row for {u} must be strictly sorted"
        );
        if let Some(&v) = new_row.last() {
            assert!(
                v.index() < self.adj.len(),
                "neighbor {v} out of range for {} nodes",
                self.adj.len()
            );
        }
        assert!(new_row.binary_search(&u).is_err(), "self-loop {u} rejected");
        // Merge-diff the sorted old and new rows into the two delta lists.
        let mut old = std::mem::take(&mut self.adj[u.index()]);
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < new_row.len() {
            match old[i].cmp(&new_row[j]) {
                std::cmp::Ordering::Less => {
                    removed.push(old[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    added.push(new_row[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        removed.extend_from_slice(&old[i..]);
        added.extend_from_slice(&new_row[j..]);
        // Fix the far side of each changed edge; unchanged neighbors are
        // never touched.
        for &v in removed.iter() {
            let row = &mut self.adj[v.index()];
            let k = row.binary_search(&u).expect("adjacency out of sync");
            row.remove(k);
        }
        for &v in added.iter() {
            let row = &mut self.adj[v.index()];
            let k = row.binary_search(&u).expect_err("adjacency out of sync");
            row.insert(k, u);
        }
        // Rewrite u's row in place, reusing its allocation.
        old.clear();
        old.extend_from_slice(new_row);
        self.adj[u.index()] = old;
    }

    /// Whether the edge `{u, v}` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u.index()].binary_search(&v).is_ok()
    }

    /// The degree of node `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u.index()].len()
    }

    /// Iterator over the neighbors of `u`, in increasing ID order.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj[u.index()].iter().copied()
    }

    /// Iterator over all edges as `(u, v)` pairs with `u < v`, in
    /// lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adj.iter().enumerate().flat_map(|(i, nbrs)| {
            let u = NodeId::new(i as u32);
            nbrs.iter()
                .copied()
                .filter(move |v| u < *v)
                .map(move |v| (u, v))
        })
    }

    /// Iterator over all node IDs.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len() as u32).map(NodeId::new)
    }

    /// Whether `self` is a subgraph of `other` (same node set, edge subset).
    pub fn is_subgraph_of(&self, other: &UndirectedGraph) -> bool {
        self.node_count() == other.node_count() && self.edges().all(|(u, v)| other.has_edge(u, v))
    }

    /// The graph containing the edges of both inputs.
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn union(&self, other: &UndirectedGraph) -> UndirectedGraph {
        assert_eq!(
            self.node_count(),
            other.node_count(),
            "union requires equal node sets"
        );
        let mut g = self.clone();
        for (u, v) in other.edges() {
            g.add_edge(u, v);
        }
        g
    }
}

impl Extend<(NodeId, NodeId)> for UndirectedGraph {
    fn extend<T: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: T) {
        for (u, v) in iter {
            self.add_edge(u, v);
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
    fn empty_graph() {
        let g = UndirectedGraph::new(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.edges().count(), 0);
        assert_eq!(g.degree(n(0)), 0);
    }

    #[test]
    fn add_remove_edges() {
        let mut g = UndirectedGraph::new(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(0), n(1)); // idempotent
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(n(0), n(1)));
        assert!(g.has_edge(n(1), n(0)));
        assert!(!g.has_edge(n(0), n(2)));
        assert!(g.remove_edge(n(0), n(1)));
        assert!(!g.remove_edge(n(0), n(1)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut g = UndirectedGraph::new(2);
        g.add_edge(n(0), n(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut g = UndirectedGraph::new(2);
        g.add_edge(n(0), n(5));
    }

    #[test]
    fn edges_are_canonical_and_sorted() {
        let mut g = UndirectedGraph::new(4);
        g.add_edge(n(3), n(1));
        g.add_edge(n(2), n(0));
        g.add_edge(n(1), n(0));
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(n(0), n(1)), (n(0), n(2)), (n(1), n(3))]);
    }

    #[test]
    fn neighbors_sorted() {
        let mut g = UndirectedGraph::new(5);
        g.add_edge(n(2), n(4));
        g.add_edge(n(2), n(0));
        g.add_edge(n(2), n(3));
        let nbrs: Vec<_> = g.neighbors(n(2)).collect();
        assert_eq!(nbrs, vec![n(0), n(3), n(4)]);
        assert_eq!(g.degree(n(2)), 3);
    }

    #[test]
    fn subgraph_and_union() {
        let mut g = UndirectedGraph::new(3);
        g.add_edge(n(0), n(1));
        let mut h = g.clone();
        h.add_edge(n(1), n(2));
        assert!(g.is_subgraph_of(&h));
        assert!(!h.is_subgraph_of(&g));
        let u = g.union(&h);
        assert_eq!(u.edge_count(), 2);
        assert!(u.has_edge(n(1), n(2)));
    }

    #[test]
    fn from_edges_bulk_matches_incremental() {
        let pairs = vec![(n(3), n(1)), (n(1), n(2)), (n(3), n(1)), (n(0), n(2))];
        let bulk = UndirectedGraph::from_edges(4, pairs.clone());
        let mut incremental = UndirectedGraph::new(4);
        for (u, v) in pairs {
            incremental.add_edge(u, v);
        }
        assert_eq!(bulk, incremental);
        assert_eq!(bulk.edge_count(), 3, "duplicate edge deduplicated");
    }

    #[test]
    fn from_symmetric_rows_matches_from_edges() {
        let pairs = vec![(n(3), n(1)), (n(1), n(2)), (n(0), n(2))];
        let rows = vec![vec![n(2)], vec![n(2), n(3)], vec![n(0), n(1)], vec![n(1)]];
        assert_eq!(
            UndirectedGraph::from_symmetric_rows(rows),
            UndirectedGraph::from_edges(4, pairs)
        );
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn from_symmetric_rows_rejects_unsorted_rows() {
        let _ =
            UndirectedGraph::from_symmetric_rows(vec![vec![n(2), n(1)], vec![n(0)], vec![n(0)]]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_edges_rejects_self_loops() {
        let _ = UndirectedGraph::from_edges(2, vec![(n(1), n(1))]);
    }

    #[test]
    fn deserialize_normalizes_and_validates() {
        use serde::{Deserialize as _, Value};
        // Unsorted, duplicated, one-sided adjacency: deserialization must
        // restore the sorted/symmetric invariant.
        let raw = Value::Map(vec![(
            "adj".to_owned(),
            Value::Seq(vec![
                Value::Seq(vec![Value::UInt(2), Value::UInt(1), Value::UInt(2)]),
                Value::Seq(vec![]),
                Value::Seq(vec![]),
            ]),
        )]);
        let g = UndirectedGraph::from_value(&raw).expect("valid");
        assert!(g.has_edge(n(0), n(1)), "one-sided edge symmetrized");
        assert!(g.has_edge(n(2), n(0)));
        assert_eq!(g.edge_count(), 2, "duplicate deduplicated");
        let nbrs: Vec<_> = g.neighbors(n(0)).collect();
        assert_eq!(nbrs, vec![n(1), n(2)], "sorted");

        let self_loop = Value::Map(vec![(
            "adj".to_owned(),
            Value::Seq(vec![Value::Seq(vec![Value::UInt(0)])]),
        )]);
        assert!(UndirectedGraph::from_value(&self_loop).is_err());
        let out_of_range = Value::Map(vec![(
            "adj".to_owned(),
            Value::Seq(vec![Value::Seq(vec![Value::UInt(9)])]),
        )]);
        assert!(UndirectedGraph::from_value(&out_of_range).is_err());
    }

    #[test]
    fn rebuild_row_matches_per_edge_edits() {
        let mut g = UndirectedGraph::new(6);
        for (a, b) in [(0, 1), (0, 2), (0, 4), (3, 4), (1, 2)] {
            g.add_edge(n(a), n(b));
        }
        // Per-edge reference: remove all of 0's edges, re-add the new set.
        let mut reference = g.clone();
        for v in [1, 2, 4] {
            reference.remove_edge(n(0), n(v));
        }
        for v in [2, 3, 5] {
            reference.add_edge(n(0), n(v));
        }
        let (mut removed, mut added) = (Vec::new(), Vec::new());
        g.rebuild_row(n(0), &[n(2), n(3), n(5)], &mut removed, &mut added);
        assert_eq!(g, reference);
        assert_eq!(removed, vec![n(1), n(4)], "kept neighbor 2 not reported");
        assert_eq!(added, vec![n(3), n(5)]);
        // Rebuild to empty: clears the row and both far sides.
        g.rebuild_row(n(0), &[], &mut removed, &mut added);
        assert_eq!(removed, vec![n(2), n(3), n(5)]);
        assert!(added.is_empty());
        assert_eq!(g.degree(n(0)), 0);
        assert!(!g.has_edge(n(3), n(0)));
        assert!(g.has_edge(n(3), n(4)), "unrelated edge untouched");
        // No-op rebuild reports no deltas.
        g.rebuild_row(n(3), &[n(4)], &mut removed, &mut added);
        assert!(removed.is_empty() && added.is_empty());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rebuild_row_rejects_self_loop() {
        let mut g = UndirectedGraph::new(2);
        g.rebuild_row(n(0), &[n(0), n(1)], &mut Vec::new(), &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn rebuild_row_rejects_unsorted_input() {
        let mut g = UndirectedGraph::new(3);
        g.rebuild_row(n(0), &[n(2), n(1)], &mut Vec::new(), &mut Vec::new());
    }

    #[test]
    fn extend_from_pairs() {
        let mut g = UndirectedGraph::new(4);
        g.extend(vec![(n(0), n(1)), (n(2), n(3))]);
        assert_eq!(g.edge_count(), 2);
    }
}
