//! Property tests of the growing kernel's per-ring admission screen and
//! of the ring index it scans.
//!
//! The screen may only ever rule out a candidate the exact path would
//! price above the range, so a screened construction must equal the
//! unscreened one bit for bit: the same discovered IDs in the same
//! order, the same distance and direction bits, the same boundary flag
//! and grow radius. `Unscreened` is the reference — the metric with its
//! screen taken off (it forwards `cost`, `reach_boost` and `direction`
//! only, so it inherits the trait's "no screen" default).
//!
//! The table covers σ ∈ {2, 4, 8, 12} dB × {reciprocal, independent} ×
//! {`PhyChannel`, `AckGatedChannel`, gates whose range differs from the
//! kernel's} × {masked, unmasked}, on random and lattice layouts. The
//! ring-index half checks that the kernel over a dense `CellList` equals
//! the kernel over a hashed `SpatialGrid`, and the reach digraph — which
//! reuses the forward screen — against its all-pairs definition.

use cbtc_core::phy::{phy_reach_digraph, phy_reach_graph_where, AckGatedChannel, PhyChannel};
use cbtc_core::reconfig::LinkMetric;
use cbtc_core::{
    construction_cell, grow, grow_node_metric_scratch, GrowScratch, Network, NodeView,
};
use cbtc_geom::{Alpha, Angle, Point2};
use cbtc_graph::{CellList, DirectedGraph, Layout, NodeId, SpatialGrid};
use cbtc_phy::{Shadowing, ShadowingMode};
use proptest::prelude::*;

/// A metric with the screen taken off.
struct Unscreened<'m, M>(&'m M);

impl<M: LinkMetric> LinkMetric for Unscreened<'_, M> {
    fn cost(&self, u: NodeId, v: NodeId, d: f64) -> f64 {
        self.0.cost(u, v, d)
    }

    fn reach_boost(&self) -> f64 {
        self.0.reach_boost()
    }

    fn direction(&self, layout: &Layout, u: NodeId, v: NodeId) -> Angle {
        self.0.direction(layout, u, v)
    }
}

const SIGMAS: [f64; 4] = [2.0, 4.0, 8.0, 12.0];
const MODES: [ShadowingMode; 2] = [ShadowingMode::Reciprocal, ShadowingMode::Independent];

/// Views equal bit for bit: IDs, distance and direction bits, boundary
/// flags and grow-radius bits.
fn bit_equal(a: &[NodeView], b: &[NodeView], row: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "{}", row);
    for (u, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert_eq!(x.boundary, y.boundary, "node {} boundary: {}", u, row);
        prop_assert_eq!(
            x.grow_radius.to_bits(),
            y.grow_radius.to_bits(),
            "node {} radius: {}",
            u,
            row
        );
        prop_assert_eq!(
            x.discoveries.len(),
            y.discoveries.len(),
            "node {}: {}",
            u,
            row
        );
        for (p, q) in x.discoveries.iter().zip(&y.discoveries) {
            prop_assert_eq!(p.id, q.id, "node {}: {}", u, row);
            prop_assert_eq!(
                p.distance.to_bits(),
                q.distance.to_bits(),
                "node {}: {}",
                u,
                row
            );
            prop_assert_eq!(
                p.direction.radians().to_bits(),
                q.direction.radians().to_bits(),
                "node {}: {}",
                u,
                row
            );
        }
    }
    Ok(())
}

/// `grow` with the metric's screen equals `grow` without it.
fn check_metric<M: LinkMetric>(
    network: &Network,
    metric: &M,
    alive: Option<&[bool]>,
    row: &str,
) -> Result<(), TestCaseError> {
    for alpha in [Alpha::FIVE_PI_SIXTHS, Alpha::TWO_PI_THIRDS] {
        let screened = grow(network, metric, alpha, alive);
        let unscreened = grow(network, &Unscreened(metric), alpha, alive);
        bit_equal(screened.views(), unscreened.views(), row)?;
    }
    Ok(())
}

/// The whole table for one layout and shadowing seed.
fn check_table(network: &Network, seed: u64, alive: Option<&[bool]>) -> Result<(), TestCaseError> {
    let r = network.max_range();
    for sigma in SIGMAS {
        for mode in MODES {
            let shadowing = Shadowing::new(sigma, mode, seed);
            let channel = PhyChannel::new(network.model(), &shadowing);
            let row = format!("σ {sigma}, {mode:?}, masked {}", alive.is_some());
            check_metric(network, &channel, alive, &format!("channel, {row}"))?;
            // The gate at the kernel's range, then gates whose range
            // differs from it: the reverse screen must use the gate's.
            for gate in [r, 0.6 * r, 1.7 * r] {
                let gated = AckGatedChannel::new(&channel, gate);
                check_metric(network, &gated, alive, &format!("gate {gate}, {row}"))?;
            }
        }
    }
    Ok(())
}

/// A deterministic pseudo-random alive mask.
fn mask(n: usize, seed: u64) -> Vec<bool> {
    (0..n)
        .map(|i| (seed >> (i % 64)) & 1 == 0 || i % 5 == 0)
        .collect()
}

/// Random layouts with no two nodes coincident, on fields wide enough
/// that most shell rings lie beyond the range.
fn layouts() -> impl Strategy<Value = Layout> {
    (2usize..45, 300.0f64..4000.0).prop_flat_map(|(n, side)| {
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

/// Lattice layouts: exact distance ties and nodes on cell boundaries.
fn lattice_layouts() -> impl Strategy<Value = Layout> {
    (3usize..40, 3i32..14).prop_flat_map(|(n, cells)| {
        proptest::collection::vec((0..cells, 0..cells), n).prop_map(|pts| {
            let mut points: Vec<Point2> = Vec::new();
            for (i, j) in pts {
                let p = Point2::new(f64::from(i) * 250.0, f64::from(j) * 250.0);
                if !points.contains(&p) {
                    points.push(p);
                }
            }
            if points.len() < 2 {
                points.push(Point2::new(-250.0, -250.0));
            }
            Layout::new(points)
        })
    })
}

/// The all-pairs definition of the reach digraph: `u → v` iff the
/// forward effective distance closes at maximum power.
fn reach_brute(network: &Network, channel: &PhyChannel<'_>, alive: &[bool]) -> DirectedGraph {
    let layout = network.layout();
    let mut g = DirectedGraph::new(layout.len());
    for u in layout.node_ids().filter(|u| alive[u.index()]) {
        for v in layout.node_ids().filter(|v| alive[v.index()] && *v != u) {
            if channel.effective_distance(u, v, layout.distance(u, v)) <= network.max_range() {
                g.add_edge(u, v);
            }
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Screened ≡ unscreened on random layouts, masked and unmasked.
    #[test]
    fn screen_is_exact_on_random_layouts(
        layout in layouts(),
        seed in 0u64..u64::MAX,
    ) {
        let network = Network::with_paper_radio(layout);
        check_table(&network, seed, None)?;
        check_table(&network, seed, Some(&mask(network.len(), seed)))?;
    }

    /// Screened ≡ unscreened on lattice layouts, masked and unmasked.
    #[test]
    fn screen_is_exact_on_lattice_layouts(
        layout in lattice_layouts(),
        seed in 0u64..u64::MAX,
    ) {
        let network = Network::with_paper_radio(layout);
        check_table(&network, seed, None)?;
        check_table(&network, seed, Some(&mask(network.len(), seed)))?;
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For phy metrics, the kernel over a dense `CellList` equals the
    /// kernel over a hashed `SpatialGrid` of the same cell side, node by
    /// node, at the construction cell and at small and large ones,
    /// masked and unmasked.
    #[test]
    fn kernel_over_cell_list_equals_kernel_over_grid(
        layout in layouts(),
        seed in 0u64..u64::MAX,
    ) {
        let network = Network::with_paper_radio(layout.clone());
        let r = network.max_range();
        let mut scratch = GrowScratch::new();
        for alive in [vec![true; layout.len()], mask(layout.len(), seed)] {
            let live = |id: NodeId| alive[id.index()];
            let population = alive.iter().filter(|a| **a).count();
            for cell in [construction_cell(&layout, r, population), 400.0, 900.0] {
                let Some(list) = CellList::try_from_layout_where(&layout, cell, live) else {
                    continue;
                };
                let mut grid = SpatialGrid::new(cell);
                for (id, p) in layout.iter().filter(|&(id, _)| live(id)) {
                    grid.insert(id, p);
                }
                for mode in MODES {
                    let shadowing = Shadowing::new(8.0, mode, seed);
                    let channel = PhyChannel::new(network.model(), &shadowing);
                    let gated = AckGatedChannel::new(&channel, r);
                    for u in layout.node_ids().filter(|&u| live(u)) {
                        let row = format!("node {u}, cell {cell}, {mode:?}");
                        let alpha = Alpha::FIVE_PI_SIXTHS;
                        let a = grow_node_metric_scratch(
                            &layout, &list, &channel, u, alpha, r, &mut scratch,
                        );
                        let b = grow_node_metric_scratch(
                            &layout, &grid, &channel, u, alpha, r, &mut scratch,
                        );
                        bit_equal(&[a], &[b], &format!("channel, {row}"))?;
                        let a = grow_node_metric_scratch(
                            &layout, &list, &gated, u, alpha, r, &mut scratch,
                        );
                        let b = grow_node_metric_scratch(
                            &layout, &grid, &gated, u, alpha, r, &mut scratch,
                        );
                        bit_equal(&[a], &[b], &format!("gated, {row}"))?;
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The screened, ring-scanned reach digraph equals its all-pairs
    /// definition under both shadowing modes, and the masked reach graph
    /// equals the definition's symmetric core over the survivors.
    #[test]
    fn screened_reach_digraph_equals_all_pairs(
        layout in layouts(),
        seed in 0u64..u64::MAX,
        sigma in 1.0f64..12.0,
    ) {
        let network = Network::with_paper_radio(layout);
        let everyone = vec![true; network.len()];
        let alive = mask(network.len(), seed);
        for mode in MODES {
            let shadowing = Shadowing::new(sigma, mode, seed);
            let channel = PhyChannel::new(network.model(), &shadowing);
            prop_assert_eq!(
                phy_reach_digraph(&network, &channel),
                reach_brute(&network, &channel, &everyone),
                "{:?}", mode
            );
            prop_assert_eq!(
                phy_reach_graph_where(&network, &channel, |u| alive[u.index()]),
                reach_brute(&network, &channel, &alive).symmetric_core(),
                "masked, {:?}", mode
            );
        }
    }
}
