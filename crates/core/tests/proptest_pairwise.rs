//! Property tests of the §3.3 pairwise kernel against an independent
//! reference: Definition 3.5 scanned over all neighbor pairs with
//! `angle_at`, a `BTreeSet` of redundant neighbors per node, and the
//! removals applied edge by edge to a clone of the graph — the plain
//! implementation the engine used before its kernel was flattened, kept
//! here so the engine's oracle (`run_basic_brute` pushed through the
//! public §3 stages) still has an independent §3.3 check.
//!
//! The kernel ([`pairwise_removal_with`], [`redundant_edges`]) must match
//! it exactly — graph, `removed` order and the redundant set — under
//! both policies, on random layouts, lattice ties, neighbor fans at
//! k·π/3 ± ≤1e-12 rad, and the asymmetric effective lengths of a shadowed
//! [`PhyChannel`].

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::f64::consts::{FRAC_PI_3, PI};

use cbtc_core::opt::{pairwise_removal_with, redundant_edges, PairwisePolicy};
use cbtc_core::parallel::without_nested_fan_out;
use cbtc_core::phy::PhyChannel;
use cbtc_core::reconfig::LinkMetric;
use cbtc_core::{run_basic, Network};
use cbtc_geom::triangle::angle_at;
use cbtc_geom::{Alpha, Point2};
use cbtc_graph::{Layout, NodeId, UndirectedGraph};
use cbtc_phy::{Shadowing, ShadowingMode};
use cbtc_radio::PowerLaw;
use proptest::prelude::*;

const POLICIES: [PairwisePolicy; 2] = [PairwisePolicy::RemoveAll, PairwisePolicy::PowerReducing];

/// Definition 3.5's `eid(u,v) > eid(u,w)`, spelled out: length first
/// (total order), then the larger endpoint ID, then the smaller.
fn eid_greater(length: &dyn Fn(NodeId, NodeId) -> f64, u: NodeId, v: NodeId, w: NodeId) -> bool {
    let key = |x: NodeId| (length(u, x), u.max(x), u.min(x));
    let (a, b) = (key(v), key(w));
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)) == Ordering::Greater
}

/// Every node's redundant neighbors: `v` is redundant at `u` when some
/// other neighbor `w` lies within π/3 of it and has the smaller edge ID.
fn reference_redundancy(
    g: &UndirectedGraph,
    layout: &Layout,
    length: &dyn Fn(NodeId, NodeId) -> f64,
) -> Vec<BTreeSet<NodeId>> {
    g.node_ids()
        .map(|u| {
            let neighbors: Vec<NodeId> = g.neighbors(u).collect();
            neighbors
                .iter()
                .copied()
                .filter(|&v| {
                    neighbors.iter().any(|&w| {
                        w != v
                            && angle_at(layout.position(v), layout.position(u), layout.position(w))
                                < FRAC_PI_3
                            && eid_greater(length, u, v, w)
                    })
                })
                .collect()
        })
        .collect()
}

/// The reference removal: every redundant edge (`RemoveAll`), or those
/// longer than an endpoint's longest non-redundant edge from that
/// endpoint's perspective (`PowerReducing`), removed one by one from a
/// clone, in canonical `(min, max)` order.
fn reference_removal(
    g: &UndirectedGraph,
    layout: &Layout,
    policy: PairwisePolicy,
    length: &dyn Fn(NodeId, NodeId) -> f64,
) -> (UndirectedGraph, Vec<(NodeId, NodeId)>) {
    let redundant_from = reference_redundancy(g, layout, length);
    let floor: Vec<f64> = g
        .node_ids()
        .map(|u| {
            g.neighbors(u)
                .filter(|v| !redundant_from[u.index()].contains(v))
                .map(|v| length(u, v))
                .fold(0.0, f64::max)
        })
        .collect();
    let drops = |u: NodeId, v: NodeId| {
        redundant_from[u.index()].contains(&v)
            && (policy == PairwisePolicy::RemoveAll || length(u, v) > floor[u.index()])
    };
    let candidates: BTreeSet<(NodeId, NodeId)> = redundant_from
        .iter()
        .enumerate()
        .flat_map(|(u, set)| {
            let u = NodeId::new(u as u32);
            set.iter().map(move |&v| (u.min(v), u.max(v)))
        })
        .collect();
    let mut graph = g.clone();
    let mut removed = Vec::new();
    for (u, v) in candidates {
        if drops(u, v) || drops(v, u) {
            graph.remove_edge(u, v);
            removed.push((u, v));
        }
    }
    (graph, removed)
}

/// The kernel equals the reference under both policies for this length,
/// and single-threaded equals the default.
fn check_kernel(
    g: &UndirectedGraph,
    layout: &Layout,
    length: &(dyn Fn(NodeId, NodeId) -> f64 + Sync),
) -> Result<(), TestCaseError> {
    for policy in POLICIES {
        let (graph, removed) = reference_removal(g, layout, policy, length);
        let out = pairwise_removal_with(g, layout, policy, length);
        prop_assert_eq!(&out.graph, &graph, "graph under {:?}", policy);
        prop_assert_eq!(&out.removed, &removed, "removed under {:?}", policy);
        let single = without_nested_fan_out(|| pairwise_removal_with(g, layout, policy, length));
        prop_assert_eq!(&single, &out, "single-threaded under {:?}", policy);
    }
    Ok(())
}

/// The kernel against the reference on the geometric length, plus the
/// redundant set.
fn check_geometric(g: &UndirectedGraph, layout: &Layout) -> Result<(), TestCaseError> {
    let length = |a: NodeId, b: NodeId| layout.distance(a, b);
    check_kernel(g, layout, &length)?;
    let expected: BTreeSet<(NodeId, NodeId)> = reference_redundancy(g, layout, &length)
        .iter()
        .enumerate()
        .flat_map(|(u, set)| {
            let u = NodeId::new(u as u32);
            set.iter().map(move |&v| (u.min(v), u.max(v)))
        })
        .collect();
    prop_assert_eq!(redundant_edges(g, layout), expected);
    Ok(())
}

/// Every pair within `range` — far denser than any CBTC graph, so every
/// node judges many neighbor pairs.
fn disk_graph(layout: &Layout, range: f64) -> UndirectedGraph {
    let mut g = UndirectedGraph::new(layout.len());
    for u in layout.node_ids() {
        for v in layout.node_ids().filter(|&v| v > u) {
            if layout.distance(u, v) <= range {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// The graphs the kernel is judged on: the CBTC(5π/6) closure (what
/// `optimize` feeds it) and a dense disk graph.
fn graphs(layout: &Layout) -> [UndirectedGraph; 2] {
    let network = Network::with_paper_radio(layout.clone());
    [
        run_basic(&network, Alpha::FIVE_PI_SIXTHS).symmetric_closure(),
        disk_graph(layout, 500.0),
    ]
}

/// Random layouts with no two nodes coincident.
fn layouts() -> impl Strategy<Value = Layout> {
    (2usize..40, 200.0f64..1600.0).prop_flat_map(|(n, side)| {
        proptest::collection::vec((0.0..side, 0.0..side), n).prop_map(|pts| {
            let mut points: Vec<Point2> = Vec::with_capacity(pts.len());
            for (x, y) in pts {
                let mut p = Point2::new(x, y);
                while points.contains(&p) {
                    p = Point2::new(p.x + 0.125, p.y);
                }
                points.push(p);
            }
            Layout::new(points)
        })
    })
}

/// Distinct lattice points: exact length ties (broken by IDs) and exact
/// right and 45° angles.
fn lattice_layouts() -> impl Strategy<Value = Layout> {
    (3usize..40, 3i32..10).prop_flat_map(|(n, cells)| {
        proptest::collection::vec((0..cells, 0..cells), n).prop_map(|pts| {
            let mut points: Vec<Point2> = Vec::new();
            for (i, j) in pts {
                let p = Point2::new(i as f64 * 125.0, j as f64 * 125.0);
                if !points.contains(&p) {
                    points.push(p);
                }
            }
            if points.len() < 2 {
                points.push(Point2::new(-125.0, -125.0));
            }
            Layout::new(points)
        })
    })
}

/// A hub at the origin with neighbors on bearings `k·π/3 + ε`,
/// `|ε| ≤ 1e-12` rad: every neighbor pair sits within rounding of the
/// cone boundary (or of 0, π/3's multiples, and π).
fn fan_layouts() -> impl Strategy<Value = Layout> {
    proptest::collection::vec((0i32..6, -1e-12f64..1e-12, 20.0f64..480.0), 2..14).prop_map(
        |spokes| {
            let mut points = vec![Point2::new(0.0, 0.0)];
            for (k, eps, r) in spokes {
                let theta = f64::from(k) * PI / 3.0 + eps;
                let p = Point2::new(r * theta.cos(), r * theta.sin());
                if !points.contains(&p) {
                    points.push(p);
                }
            }
            Layout::new(points)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_matches_reference_on_random_layouts(layout in layouts()) {
        for g in graphs(&layout) {
            check_geometric(&g, &layout)?;
        }
    }

    #[test]
    fn kernel_matches_reference_on_lattice_ties(layout in lattice_layouts()) {
        for g in graphs(&layout) {
            check_geometric(&g, &layout)?;
        }
    }

    #[test]
    fn kernel_matches_reference_on_pi_3_fans(layout in fan_layouts()) {
        // The complete graph: every pair of spokes is judged at the hub,
        // and every node sees every other.
        let g = disk_graph(&layout, f64::INFINITY);
        check_geometric(&g, &layout)?;
    }

    #[test]
    fn kernel_matches_reference_on_shadowed_lengths(
        layout in layouts(),
        seed in 0u64..u64::MAX,
    ) {
        // Independent per-direction shadowing: `length(u, v)` and
        // `length(v, u)` differ, so each endpoint ranks its edges by its
        // own cost while the cone test stays geometric.
        let model = PowerLaw::paper_default();
        let shadowing = Shadowing::new(8.0, ShadowingMode::Independent, seed);
        let channel = PhyChannel::new(&model, &shadowing);
        let length = |a: NodeId, b: NodeId| channel.cost(a, b, layout.distance(a, b));
        for g in graphs(&layout) {
            check_kernel(&g, &layout, &length)?;
        }
    }
}

/// A network large enough that both kernel passes fan out over several
/// workers on a multi-core host: the parallel result equals the
/// reference and the single-threaded run.
#[test]
fn parallel_kernel_matches_reference_at_scale() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    // The paper's density: 100 nodes per 1500 × 1500.
    let side = 1500.0 * 40f64.sqrt();
    let layout = Layout::new(
        (0..4000)
            .map(|_| Point2::new(next() * side, next() * side))
            .collect(),
    );
    let closure = run_basic(
        &Network::with_paper_radio(layout.clone()),
        Alpha::FIVE_PI_SIXTHS,
    )
    .symmetric_closure();
    assert!(closure.edge_count() > 8_000);
    check_geometric(&closure, &layout).unwrap();
}
