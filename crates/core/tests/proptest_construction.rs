//! Property tests of the construction engine: [`construct`] over every
//! metric, mask and configuration must match the independent oracle
//! *exactly* — the all-pairs [`run_basic_brute`] pushed through the
//! public §3 stages — on layouts engineered to stress every tie-breaking
//! and cell-boundary path. Those stages are the engine's own kernels, so
//! each has its own reference: the `DirectedGraph` closure/core and
//! per-view shrink-back here, the all-pairs Definition 3.5 scan in
//! `proptest_pairwise`.

use cbtc_core::opt::{pairwise_removal, shrink_back, shrink_back_view, PairwisePolicy};
use cbtc_core::parallel::without_nested_fan_out;
use cbtc_core::phy::PhyChannel;
use cbtc_core::reconfig::{GeometricMetric, LinkMetric};
use cbtc_core::{
    construct, dead_view, grow_node_metric_scratch, run_basic, run_basic_brute, run_centralized,
    run_centralized_masked, CbtcConfig, GrowScratch, Network, NodeView,
};
use cbtc_geom::{Alpha, Point2};
use cbtc_graph::{Layout, NodeId, SpatialGrid, UndirectedGraph};
use cbtc_radio::IdealGain;
use proptest::prelude::*;

fn alphas() -> [Alpha; 2] {
    [Alpha::FIVE_PI_SIXTHS, Alpha::TWO_PI_THIRDS]
}

fn configs() -> impl Iterator<Item = CbtcConfig> {
    alphas()
        .into_iter()
        .flat_map(|alpha| [CbtcConfig::new(alpha), CbtcConfig::all_applicable(alpha)])
}

/// What a construction must reproduce: the growing-phase views, the
/// final graph and the pairwise removals.
#[derive(Debug)]
struct Expected {
    views: Vec<NodeView>,
    graph: UndirectedGraph,
    removed: Vec<(NodeId, NodeId)>,
}

/// The oracle: brute-force growth through the plain public §3 stages.
fn oracle(network: &Network, config: &CbtcConfig) -> Expected {
    let basic = run_basic_brute(network, config.alpha());
    let effective = if config.shrink_back() {
        shrink_back(&basic)
    } else {
        basic.clone()
    };
    let graph = if config.asymmetric_removal() {
        effective.symmetric_core()
    } else {
        effective.symmetric_closure()
    };
    let (graph, removed) = if config.pairwise_removal() {
        let out = pairwise_removal(&graph, network.layout(), PairwisePolicy::PowerReducing);
        (out.graph, out.removed)
    } else {
        (graph, Vec::new())
    };
    Expected {
        views: basic.into_views(),
        graph,
        removed,
    }
}

/// The extract-and-remap oracle for masked rows: the survivors as a
/// fresh sub-network, the oracle there, IDs mapped back (the map is
/// increasing, so every sorted order survives it); dead nodes get the
/// placeholder view.
fn masked_oracle(network: &Network, config: &CbtcConfig, alive: &[bool]) -> Expected {
    let n = network.len();
    let survivors: Vec<NodeId> = network
        .layout()
        .node_ids()
        .filter(|u| alive[u.index()])
        .collect();
    let points: Vec<Point2> = survivors
        .iter()
        .map(|u| network.layout().position(*u))
        .collect();
    let sub = oracle(&Network::new(Layout::new(points), *network.model()), config);
    let map = |id: NodeId| survivors[id.index()];
    let mut views = vec![dead_view(); n];
    for (i, mut view) in sub.views.into_iter().enumerate() {
        for d in &mut view.discoveries {
            d.id = map(d.id);
        }
        views[survivors[i].index()] = view;
    }
    let mut graph = UndirectedGraph::new(n);
    for (a, b) in sub.graph.edges() {
        graph.add_edge(map(a), map(b));
    }
    Expected {
        views,
        graph,
        removed: sub.removed.iter().map(|&(a, b)| (map(a), map(b))).collect(),
    }
}

/// One row of the engine table: `construct` with this metric, mask and
/// guard equals the oracle, no edge is restored, and a single-threaded
/// run equals the (possibly parallel) default.
fn check_row<M: LinkMetric>(
    network: &Network,
    metric: &M,
    config: &CbtcConfig,
    alive: Option<&[bool]>,
    guard: bool,
    expected: &Expected,
) -> Result<(), TestCaseError> {
    let run = construct(network, metric, config, alive, guard);
    let row = format!(
        "config {config:?}, masked {}, guard {guard}",
        alive.is_some()
    );
    prop_assert_eq!(run.basic().views(), &expected.views[..], "views: {}", row);
    prop_assert_eq!(run.final_graph(), &expected.graph, "graph: {}", row);
    prop_assert_eq!(
        run.pairwise_removed(),
        &expected.removed[..],
        "removed: {}",
        row
    );
    prop_assert!(run.pairwise_restored().is_empty(), "restored: {}", row);
    let single = without_nested_fan_out(|| construct(network, metric, config, alive, guard));
    prop_assert_eq!(&single, &run, "single-threaded: {}", row);
    Ok(())
}

/// Every row of the engine table for one mask: metric {geometric, ideal
/// channel} × guard {off, on} × configuration.
fn check_table(network: &Network, alive: Option<&[bool]>) -> Result<(), TestCaseError> {
    let channel = PhyChannel::new(network.model(), &IdealGain);
    for config in configs() {
        let expected = match alive {
            None => oracle(network, &config),
            Some(alive) => masked_oracle(network, &config, alive),
        };
        for guard in [false, true] {
            check_row(network, &GeometricMetric, &config, alive, guard, &expected)?;
            check_row(network, &channel, &config, alive, guard, &expected)?;
        }
    }
    Ok(())
}

/// Random layouts with no two nodes exactly coincident (directions are
/// undefined between coincident nodes, in every engine alike).
fn layouts() -> impl Strategy<Value = Layout> {
    (2usize..50, 200.0f64..1600.0).prop_flat_map(|(n, side)| {
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

/// Layouts engineered to stress the shell scan: points snapped onto a
/// lattice of the given pitch, producing exact equidistant ties (lattice
/// symmetry) and points exactly on grid-cell boundaries.
fn lattice_layouts(pitch: f64) -> impl Strategy<Value = Layout> {
    (3usize..40, 3i32..12).prop_flat_map(move |(n, cells)| {
        proptest::collection::vec((0..cells, 0..cells), n).prop_map(move |pts| {
            let mut points: Vec<Point2> = Vec::new();
            for (i, j) in pts {
                let p = Point2::new(i as f64 * pitch, j as f64 * pitch);
                if !points.contains(&p) {
                    points.push(p);
                }
            }
            if points.len() < 2 {
                points.push(Point2::new(-pitch, -pitch));
            }
            Layout::new(points)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine table, unmasked half: metric {geometric, ideal channel}
    /// × guard {off, on} × configuration, every row against the oracle
    /// and single-threaded ≡ parallel. On an ideal channel every cost is
    /// the geometric distance bit for bit, so one oracle serves both
    /// metrics, and the guard never fires.
    #[test]
    fn engines_agree_on_random_layouts(layout in layouts()) {
        let network = Network::with_paper_radio(layout);
        check_table(&network, None)?;
    }

    /// The engine table, masked half: the same rows under a random alive
    /// mask, against the extract-and-remap oracle (a fresh sub-network of
    /// the survivors, the oracle there, IDs mapped back).
    #[test]
    fn masked_run_equals_subnetwork_oracle(
        layout in layouts(),
        mask_seed in 0u64..u64::MAX,
    ) {
        let network = Network::with_paper_radio(layout);
        // A deterministic pseudo-random alive mask from the seed.
        let alive: Vec<bool> = (0..network.len())
            .map(|i| (mask_seed >> (i % 64)) & 1 == 0 || i % 5 == 0)
            .collect();
        check_table(&network, Some(&alive))?;
    }

    /// Lattice layouts force exact distance ties (whole groups must be
    /// discovered atomically) and nodes exactly on cell boundaries; the
    /// agreement must survive any cell size, including pathological ones.
    #[test]
    fn engines_agree_on_lattice_layouts(layout in lattice_layouts(125.0)) {
        let network = Network::with_paper_radio(layout.clone());
        let r = network.max_range();
        let mut scratch = GrowScratch::new();
        for alpha in alphas() {
            let brute = run_basic_brute(&network, alpha);
            let default = without_nested_fan_out(|| run_basic(&network, alpha));
            prop_assert_eq!(&brute, &default, "default cell");
            // Cell exactly the lattice pitch (every node on a cell
            // corner), much smaller, and larger than the max range.
            for cell in [125.0, 30.0, 800.0] {
                let grid = SpatialGrid::from_layout(&layout, cell);
                for u in layout.node_ids() {
                    let view = grow_node_metric_scratch(
                        &layout, &grid, &GeometricMetric, u, alpha, r, &mut scratch,
                    );
                    prop_assert_eq!(
                        &view,
                        brute.view(u),
                        "node {} at cell {}", u, cell
                    );
                }
            }
        }
    }

    /// The bulk §3 builders against their plain counterparts: the
    /// closure and core built row by row from the views equal the
    /// `DirectedGraph` relation's, and the fanned-out shrink-back (one
    /// scratch reused across every node) equals shrinking each view
    /// alone with fresh buffers.
    #[test]
    fn bulk_stages_match_per_node_references(layout in layouts()) {
        let network = Network::with_paper_radio(layout);
        for alpha in alphas() {
            let basic = run_basic(&network, alpha);
            let relation = basic.neighbor_relation();
            prop_assert_eq!(basic.symmetric_closure(), relation.symmetric_closure());
            prop_assert_eq!(basic.symmetric_core(), relation.symmetric_core());
            let alone: Vec<NodeView> = basic
                .views()
                .iter()
                .map(|view| shrink_back_view(view, alpha))
                .collect();
            prop_assert_eq!(shrink_back(&basic).views(), &alone[..]);
        }
    }

    /// Masking nothing changes nothing.
    #[test]
    fn all_alive_mask_is_identity(layout in layouts()) {
        let network = Network::with_paper_radio(layout);
        let alive = vec![true; network.len()];
        let config = CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS);
        let masked = run_centralized_masked(&network, &config, &alive);
        let full = run_centralized(&network, &config);
        prop_assert_eq!(masked.final_graph(), full.final_graph());
        prop_assert_eq!(masked.basic(), full.basic());
    }
}
