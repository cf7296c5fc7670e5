//! The shortest-path kernel against an independent O(n²) reference.
//!
//! The reference settles nodes by scanning an array for the smallest
//! unsettled `(dist, id)` and sets a parent only on strict improvement —
//! the settle rule [`SpTree`] documents, with no heap. Both arc sources
//! of the kernel (a graph with weight and include closures, and
//! pre-priced rows) must reproduce it exactly: every `parent` and the
//! bits of every `dist`. So must a tree grown in stops: through a random
//! sequence of 1–3-target resumptions every settled node already agrees
//! with the reference, and growing to the end gives the full tree.
//! Integer-weight lattices (zero weights included) make ties common, so
//! the tie-break is exercised, not just the costs.

use std::collections::HashMap;

use cbtc_graph::paths::{shortest_path_tree, DijkstraScratch, GraphArcs, Rows, SpTree};
use cbtc_graph::{NodeId, UndirectedGraph};
use proptest::prelude::*;

type Tree = (Vec<Option<NodeId>>, Vec<f64>);

/// The O(n²) array-scan Dijkstra over directed rows.
fn reference(rows: &[Vec<(NodeId, f64)>], source: NodeId) -> Tree {
    let n = rows.len();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    let mut settled = vec![false; n];
    dist[source.index()] = 0.0;
    loop {
        // Ascending scan with a strict `<`: the smallest ID wins a tie.
        let mut best: Option<usize> = None;
        for v in 0..n {
            if !settled[v] && dist[v].is_finite() && best.is_none_or(|b| dist[v] < dist[b]) {
                best = Some(v);
            }
        }
        let Some(u) = best else { break };
        settled[u] = true;
        for &(v, w) in &rows[u] {
            let next = dist[u] + w;
            if !settled[v.index()] && next < dist[v.index()] {
                dist[v.index()] = next;
                parent[v.index()] = Some(NodeId::new(u as u32));
            }
        }
    }
    (parent, dist)
}

/// A graph with a directed weight per arc and an include mask, plus the
/// target lists of a sequence of resumptions.
struct Instance {
    graph: UndirectedGraph,
    weight: HashMap<(u32, u32), f64>,
    include: Vec<bool>,
    source: NodeId,
    stops: Vec<Vec<NodeId>>,
}

impl Instance {
    fn new(
        n: usize,
        arcs: &[(u32, u32, f64, f64)],
        mask: &[u8],
        source: u32,
        stops: Vec<Vec<u32>>,
    ) -> Self {
        let mut graph = UndirectedGraph::new(n);
        let mut weight = HashMap::new();
        for &(a, b, ab, ba) in arcs {
            if a != b {
                graph.add_edge(NodeId::new(a), NodeId::new(b));
                weight.insert((a, b), ab);
                weight.insert((b, a), ba);
            }
        }
        Instance {
            graph,
            weight,
            // About one node in five is excluded.
            include: mask.iter().map(|&m| m != 0).collect(),
            source: NodeId::new(source),
            stops: stops
                .into_iter()
                .map(|targets| targets.into_iter().map(NodeId::new).collect())
                .collect(),
        }
    }

    fn w(&self, u: NodeId, v: NodeId) -> f64 {
        self.weight[&(u.raw(), v.raw())]
    }

    /// The included arcs, priced, in adjacency order.
    fn rows(&self) -> Vec<Vec<(NodeId, f64)>> {
        self.graph
            .node_ids()
            .map(|u| {
                self.graph
                    .neighbors(u)
                    .filter(|v| self.include[v.index()])
                    .map(|v| (v, self.w(u, v)))
                    .collect()
            })
            .collect()
    }

    /// Both kernel arc sources, and the rows grown in stops, against the
    /// reference.
    fn check(&self) -> Result<(), TestCaseError> {
        let rows = self.rows();
        let (want_parent, want_dist) = reference(&rows, self.source);
        let mut scratch = DijkstraScratch::default();
        let graph_arcs = GraphArcs {
            graph: &self.graph,
            weight: |u, v| self.w(u, v),
            include: |v: NodeId| self.include[v.index()],
        };
        let runs = [
            shortest_path_tree(graph_arcs, self.source, &mut scratch),
            // Reusing the scratch must not leak state between trees.
            shortest_path_tree(Rows(&rows), self.source, &mut scratch),
        ];
        let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for tree in &runs {
            prop_assert_eq!(tree.parents(), want_parent.clone());
            prop_assert_eq!(bits(tree.dist()), bits(&want_dist));
            prop_assert!(tree.is_complete());
        }

        let mut tree = SpTree::new(rows.len(), self.source);
        for targets in &self.stops {
            tree.grow_to(Rows(&rows), targets, &mut scratch);
            for &t in targets {
                // A target settles, unless the source cannot reach it.
                prop_assert!(
                    tree.is_settled(t)
                        || (tree.is_complete() && want_dist[t.index()].is_infinite()),
                    "target {} unsettled",
                    t
                );
            }
            for v in 0..rows.len() {
                let node = NodeId::new(v as u32);
                if tree.is_settled(node) {
                    prop_assert_eq!(tree.parent(node), want_parent[v]);
                    prop_assert_eq!(tree.dist()[v].to_bits(), want_dist[v].to_bits());
                }
            }
            // A scratch left holding another tree's stopped heap must not
            // leak into the next resume.
            SpTree::new(rows.len(), targets[0]).grow_to(Rows(&rows), &[self.source], &mut scratch);
        }
        tree.grow_to_end(Rows(&rows), &mut scratch);
        prop_assert!(tree.is_complete());
        prop_assert_eq!(tree.parents(), want_parent);
        prop_assert_eq!(bits(tree.dist()), bits(&want_dist));
        Ok(())
    }
}

/// 1–5 resumptions of 1–3 targets each among `n` nodes.
fn stops(n: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0..n as u32, 1..=3), 1..=5)
}

/// Random graphs with real, direction-dependent weights.
fn random_instances() -> impl Strategy<Value = Instance> {
    (2usize..40).prop_flat_map(|n| {
        let arcs =
            proptest::collection::vec((0..n as u32, 0..n as u32, 0.0..10.0, 0.0..10.0), 0..120);
        let mask = proptest::collection::vec(0u8..5, n);
        (Just(n), arcs, mask, 0..n as u32, stops(n))
            .prop_map(|(n, arcs, mask, s, stops)| Instance::new(n, &arcs, &mask, s, stops))
    })
}

/// `k × k` 4-neighbour lattices with integer weights in `0..=3` per
/// direction, plus a few random chords: many equal-cost paths.
fn lattice_instances() -> impl Strategy<Value = Instance> {
    (2usize..9).prop_flat_map(|k| {
        let n = k * k;
        let lattice = 2 * k * (k - 1);
        let weights = proptest::collection::vec((0u8..4, 0u8..4), lattice);
        let chords = proptest::collection::vec((0..n as u32, 0..n as u32, 0u8..4), 0..k);
        let mask = proptest::collection::vec(0u8..5, n);
        let picks = (Just(k), weights, chords, mask, 0..n as u32, stops(n));
        picks.prop_map(|(k, weights, chords, mask, s, stops)| {
            let id = |r: usize, c: usize| (r * k + c) as u32;
            let mut pairs = Vec::new();
            for r in 0..k {
                for c in 0..k {
                    if c + 1 < k {
                        pairs.push((id(r, c), id(r, c + 1)));
                    }
                    if r + 1 < k {
                        pairs.push((id(r, c), id(r + 1, c)));
                    }
                }
            }
            let mut arcs: Vec<(u32, u32, f64, f64)> = pairs
                .into_iter()
                .zip(weights)
                .map(|((a, b), (ab, ba))| (a, b, f64::from(ab), f64::from(ba)))
                .collect();
            arcs.extend(
                chords
                    .into_iter()
                    .map(|(a, b, w)| (a, b, f64::from(w), f64::from(w))),
            );
            Instance::new(k * k, &arcs, &mask, s, stops)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_matches_the_reference_on_random_graphs(instance in random_instances()) {
        instance.check()?;
    }

    #[test]
    fn kernel_matches_the_reference_on_tied_lattices(instance in lattice_instances()) {
        instance.check()?;
    }
}
