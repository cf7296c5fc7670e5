//! Property-based tests of the graph substrate.

use cbtc_geom::Point2;
use cbtc_graph::connectivity::preserves_connectivity;
use cbtc_graph::paths::{dijkstra, hop_stretch};
use cbtc_graph::spanners;
use cbtc_graph::traversal::{bfs_distances, component_count, component_labels};
use cbtc_graph::unit_disk::{unit_disk_graph, unit_disk_graph_brute, unit_disk_graph_where};
use cbtc_graph::{
    CellList, DirectedGraph, Layout, NodeId, RingIndex, SpatialGrid, UndirectedGraph, UnionFind,
};
use proptest::prelude::*;

fn layouts() -> impl Strategy<Value = Layout> {
    (1usize..40, 50.0f64..500.0).prop_flat_map(|(n, side)| {
        proptest::collection::vec((0.0..side, 0.0..side), n)
            .prop_map(|pts| Layout::new(pts.into_iter().map(|(x, y)| Point2::new(x, y)).collect()))
    })
}

/// Layouts engineered to stress the spatial index: every third point is
/// snapped onto the cell lattice of pitch `cell` (distances land exactly
/// on the radius boundary), and every seventh point duplicates its
/// predecessor (co-located nodes).
fn adversarial_layouts(cell: f64) -> impl Strategy<Value = Layout> {
    (1usize..50, 50.0f64..600.0).prop_flat_map(move |(n, side)| {
        proptest::collection::vec((0.0..side, 0.0..side), n).prop_map(move |pts| {
            let mut points: Vec<Point2> = Vec::with_capacity(pts.len());
            for (i, (x, y)) in pts.into_iter().enumerate() {
                let p = if i % 3 == 0 {
                    Point2::new((x / cell).round() * cell, (y / cell).round() * cell)
                } else {
                    Point2::new(x, y)
                };
                let p = if i % 7 == 0 && i > 0 {
                    points[i - 1]
                } else {
                    p
                };
                points.push(p);
            }
            Layout::new(points)
        })
    })
}

fn edge_lists() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..30).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..60);
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(u32, u32)]) -> UndirectedGraph {
    let mut g = UndirectedGraph::new(n);
    for &(a, b) in edges {
        if a != b {
            g.add_edge(NodeId::new(a), NodeId::new(b));
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn union_find_agrees_with_bfs((n, edges) in edge_lists()) {
        let g = build(n, &edges);
        let labels = component_labels(&g);
        let mut uf = UnionFind::new(n);
        for (u, v) in g.edges() {
            uf.union(u, v);
        }
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                let connected_bfs = labels[i as usize] == labels[j as usize];
                prop_assert_eq!(
                    uf.connected(NodeId::new(i), NodeId::new(j)),
                    connected_bfs
                );
            }
        }
        prop_assert_eq!(uf.component_count(), component_count(&g));
    }

    #[test]
    fn bfs_distances_are_consistent((n, edges) in edge_lists()) {
        let g = build(n, &edges);
        let source = NodeId::new(0);
        let dist = bfs_distances(&g, source);
        prop_assert_eq!(dist[0], Some(0));
        // Each reachable node's distance differs by exactly 1 from some
        // neighbor closer to the source.
        for u in g.node_ids() {
            if let Some(du) = dist[u.index()] {
                if du > 0 {
                    prop_assert!(g
                        .neighbors(u)
                        .any(|v| dist[v.index()] == Some(du - 1)));
                }
                for v in g.neighbors(u) {
                    let dv = dist[v.index()].expect("neighbor of reachable is reachable");
                    prop_assert!(dv + 1 >= du && du + 1 >= dv);
                }
            }
        }
    }

    #[test]
    fn dijkstra_unit_weights_match_bfs((n, edges) in edge_lists()) {
        let g = build(n, &edges);
        let bfs = bfs_distances(&g, NodeId::new(0));
        let dij = dijkstra(&g, NodeId::new(0), |_, _| 1.0);
        for i in 0..n {
            match (bfs[i], dij[i]) {
                (None, None) => {}
                (Some(b), Some(d)) => prop_assert!((d - b as f64).abs() < 1e-12),
                other => prop_assert!(false, "mismatch at {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn symmetric_closure_and_core_bracket(
        (n, edges) in edge_lists(),
    ) {
        let mut d = DirectedGraph::new(n);
        for &(a, b) in &edges {
            if a != b {
                d.add_edge(NodeId::new(a), NodeId::new(b));
            }
        }
        let core = d.symmetric_core();
        let closure = d.symmetric_closure();
        prop_assert!(core.is_subgraph_of(&closure));
        // Core + asymmetric edges == closure, as edge counts.
        prop_assert_eq!(
            closure.edge_count(),
            core.edge_count() + d.asymmetric_edges().len()
        );
    }

    #[test]
    fn grid_unit_disk_equals_brute_force(layout in layouts(), r in 1.0f64..600.0) {
        prop_assert_eq!(
            unit_disk_graph(&layout, r),
            unit_disk_graph_brute(&layout, r)
        );
    }

    #[test]
    fn grid_unit_disk_equals_brute_on_boundary_and_colocated(
        layout in adversarial_layouts(75.0),
    ) {
        // Cell side == radius == lattice pitch: snapped points sit exactly
        // on cell boundaries and at exact-radius distances; duplicated
        // points share buckets.
        prop_assert_eq!(
            unit_disk_graph(&layout, 75.0),
            unit_disk_graph_brute(&layout, 75.0)
        );
        // A small radius relative to the field forces the sparse
        // hash-grid fallback; it must agree too.
        prop_assert_eq!(
            unit_disk_graph(&layout, 4.0),
            unit_disk_graph_brute(&layout, 4.0)
        );
    }

    #[test]
    fn filtered_unit_disk_is_the_induced_subgraph(
        layout in layouts(),
        r in 20.0f64..300.0,
    ) {
        // Keep every other node: the filtered construction must equal the
        // full graph with the dropped nodes' edges removed.
        let keep = |u: NodeId| u.raw().is_multiple_of(2);
        let filtered = unit_disk_graph_where(&layout, r, keep);
        let mut expected = unit_disk_graph(&layout, r);
        let ids: Vec<NodeId> = expected.node_ids().collect();
        for u in ids {
            if !keep(u) {
                let nbrs: Vec<NodeId> = expected.neighbors(u).collect();
                for v in nbrs {
                    expected.remove_edge(u, v);
                }
            }
        }
        prop_assert_eq!(filtered, expected);
    }

    #[test]
    fn spanner_chain_holds_on_random_layouts(layout in layouts(), r in 20.0f64..300.0) {
        let ud = unit_disk_graph(&layout, r);
        let mst = spanners::euclidean_mst(&layout, r);
        let rng = spanners::relative_neighborhood_graph(&layout, r);
        let gg = spanners::gabriel_graph(&layout, r);
        prop_assert!(mst.is_subgraph_of(&rng));
        prop_assert!(rng.is_subgraph_of(&gg));
        prop_assert!(gg.is_subgraph_of(&ud));
        prop_assert!(preserves_connectivity(&mst, &ud));
        prop_assert!(preserves_connectivity(&rng, &ud));
        prop_assert!(preserves_connectivity(&gg, &ud));
    }

    #[test]
    fn hop_stretch_at_least_one(layout in layouts(), r in 20.0f64..300.0) {
        let ud = unit_disk_graph(&layout, r);
        let rng = spanners::relative_neighborhood_graph(&layout, r);
        let s = hop_stretch(&rng, &ud);
        prop_assert!(s.max >= 1.0);
        prop_assert!(s.mean >= 1.0 - 1e-12);
        prop_assert!(s.mean <= s.max + 1e-12);
    }

    #[test]
    fn unit_disk_is_monotone_in_radius(layout in layouts(), r in 10.0f64..200.0) {
        let small = unit_disk_graph(&layout, r);
        let big = unit_disk_graph(&layout, r * 1.5);
        prop_assert!(small.is_subgraph_of(&big));
    }

    #[test]
    fn bridges_and_articulation_points_actually_cut((n, edges) in edge_lists()) {
        use cbtc_graph::biconnectivity::cut_structure;
        let g = build(n, &edges);
        let before = component_count(&g);
        let cuts = cut_structure(&g);
        // Removing any bridge increases the component count.
        for &(u, v) in &cuts.bridges {
            let mut h = g.clone();
            h.remove_edge(u, v);
            prop_assert_eq!(component_count(&h), before + 1, "bridge ({}, {})", u, v);
        }
        // Removing any non-bridge edge does NOT change the partition.
        for (u, v) in g.edges() {
            if !cuts.bridges.contains(&(u.min(v), u.max(v))) {
                let mut h = g.clone();
                h.remove_edge(u, v);
                prop_assert_eq!(component_count(&h), before, "non-bridge ({}, {})", u, v);
            }
        }
        // Removing an articulation point splits its component: the count
        // over the remaining nodes (isolating the removed one) grows by at
        // least 2 (the isolated node itself plus the split).
        for &a in &cuts.articulation_points {
            let mut h = g.clone();
            let nbrs: Vec<NodeId> = h.neighbors(a).collect();
            for w in nbrs {
                h.remove_edge(a, w);
            }
            prop_assert!(
                component_count(&h) >= before + 2,
                "articulation point {a} did not split"
            );
        }
    }

    /// The dense `CellList` and the hashed `SpatialGrid` deliver the same
    /// ID set for every ring, and share the ring bounds: around random
    /// centers and node positions, on layouts shifted across negative
    /// coordinates, with rings partly or wholly outside the bounding box,
    /// masked and unmasked.
    #[test]
    fn cell_list_rings_equal_grid_rings(
        layout in adversarial_layouts(10.0),
        shift in (-400.0f64..100.0, -400.0f64..100.0),
        cell in 20.0f64..120.0,
        centers in proptest::collection::vec((-900.0f64..900.0, -900.0f64..900.0), 1..4),
        mask_seed in 0u64..u64::MAX,
    ) {
        let layout = Layout::new(
            layout.iter().map(|(_, p)| Point2::new(p.x + shift.0, p.y + shift.1)).collect(),
        );
        let mut centers: Vec<Point2> =
            centers.into_iter().map(|(x, y)| Point2::new(x, y)).collect();
        centers.extend(layout.iter().take(2).map(|(_, p)| p));
        for masked in [false, true] {
            let keep = |id: NodeId| !masked || (mask_seed >> (id.index() % 64)) & 1 == 0;
            let list = CellList::try_from_layout_where(&layout, cell, keep)
                .expect("a few hundred units of layout fit a dense array");
            let mut grid = SpatialGrid::new(cell);
            for (id, p) in layout.iter().filter(|&(id, _)| keep(id)) {
                grid.insert(id, p);
            }
            for &center in &centers {
                // Two rings past the farthest indexed node: wholly outside
                // the box.
                let reach = layout
                    .iter()
                    .map(|(_, p)| (p.x - center.x).abs().max((p.y - center.y).abs()))
                    .fold(0.0, f64::max);
                let last = (reach / cell) as u32 + 3;
                let (mut a, mut b) = (Vec::new(), Vec::new());
                for ring in 0..=last {
                    a.clear();
                    b.clear();
                    list.candidates_in_ring(center, ring, &mut a);
                    grid.candidates_in_ring(center, ring, &mut b);
                    a.sort_unstable();
                    b.sort_unstable();
                    prop_assert_eq!(&a, &b, "ring {} around {}", ring, center);
                    prop_assert_eq!(
                        list.ring_min_distance(center, ring).to_bits(),
                        grid.ring_min_distance(center, ring).to_bits()
                    );
                }
                prop_assert!(a.is_empty(), "the last ring lies outside the box");
            }
        }
    }
}
