//! The shrink-back operation (§3.1, Theorem 3.1).
//!
//! During growth each discovered neighbor is tagged with the power at which
//! it was first found. After the growing phase, a node successively drops
//! the highest tags **as long as its angular coverage does not change**:
//! with tags `p1 < … < pk`, it keeps the minimal prefix `i` such that
//! `coverα(dir_i) = coverα(dir_k)`. For boundary nodes — which ended at
//! maximum power — this can substantially lower the broadcast radius.
//!
//! In the centralized (continuous-growth) model the tag of a discovery is
//! its distance; distinct distances are distinct levels. The same procedure
//! applied to discrete power levels shrinks the overshoot of the
//! distributed protocol.

use cbtc_geom::coverage::ArcSet;
use cbtc_geom::{Alpha, Angle};

use crate::parallel::par_map_with;
use crate::view::{BasicOutcome, NodeView};
use crate::PAR_MIN_CHUNK;

/// Applies shrink-back to every node's view.
///
/// Each node retains the minimal distance-prefix of its discoveries whose
/// coverage equals its full coverage; `grow_radius` becomes the largest
/// retained distance (for boundary nodes this is the §3.1 power saving; for
/// non-boundary nodes under continuous growth nothing changes, since the
/// final discovery is what completed coverage).
///
/// A node's shrink depends on its own view alone, so the nodes fan out
/// over [`par_map_with`], each worker reusing one scratch —
/// direction buffer, span buffer and both arc sets — for every prefix
/// of every node it shrinks. Each coverage test is the same [`ArcSet`]
/// arithmetic on the same direction slices as a fresh
/// [`ArcSet::cover`], so the result is identical, view for view, to
/// [`shrink_back_view`] applied node by node.
///
/// # Example
///
/// ```
/// use cbtc_core::{opt::shrink_back, run_basic, Network};
/// use cbtc_geom::{Alpha, Point2};
/// use cbtc_graph::{Layout, NodeId};
///
/// // Node 0 sees node 1 close by and node 2 far away in the SAME
/// // direction: node 2 adds no coverage, so shrink-back drops it.
/// let net = Network::with_paper_radio(Layout::new(vec![
///     Point2::new(0.0, 0.0),
///     Point2::new(100.0, 0.0),
///     Point2::new(400.0, 0.0),
/// ]));
/// let basic = run_basic(&net, Alpha::FIVE_PI_SIXTHS);
/// assert_eq!(basic.view(NodeId::new(0)).discoveries.len(), 2);
///
/// let shrunk = shrink_back(&basic);
/// assert_eq!(shrunk.view(NodeId::new(0)).discoveries.len(), 1);
/// assert_eq!(shrunk.view(NodeId::new(0)).grow_radius, 100.0);
/// ```
pub fn shrink_back(outcome: &BasicOutcome) -> BasicOutcome {
    BasicOutcome::new(
        outcome.alpha(),
        shrink_back_views(outcome.views(), outcome.alpha()),
    )
}

/// The fan-out behind [`shrink_back`], over bare views — also how the
/// incremental engine shrinks its initial construction.
pub(crate) fn shrink_back_views(views: &[NodeView], alpha: Alpha) -> Vec<NodeView> {
    par_map_with(
        views,
        PAR_MIN_CHUNK,
        ShrinkScratch::default,
        |scratch, view| shrink_view(view, alpha, scratch),
    )
}

/// Shrink-back of a single node's view — the per-node kernel of
/// [`shrink_back`], exposed so incremental reconfiguration can re-shrink
/// only the nodes whose growth actually changed.
pub fn shrink_back_view(view: &NodeView, alpha: Alpha) -> NodeView {
    shrink_view(view, alpha, &mut ShrinkScratch::default())
}

/// Reusable buffers of the shrink-back kernel: every discovery's
/// direction (each distance prefix is a slice of it), the span buffer
/// [`ArcSet::assign_cover`] sorts, and the full and prefix covers.
#[derive(Debug, Default)]
struct ShrinkScratch {
    dirs: Vec<Angle>,
    spans: Vec<(f64, f64)>,
    full: ArcSet,
    prefix: ArcSet,
}

/// [`shrink_back_view`] over caller-owned buffers.
fn shrink_view(view: &NodeView, alpha: Alpha, scratch: &mut ShrinkScratch) -> NodeView {
    if view.discoveries.is_empty() {
        return view.clone();
    }
    let ShrinkScratch {
        dirs,
        spans,
        full,
        prefix,
    } = scratch;
    dirs.clear();
    dirs.extend(view.discoveries.iter().map(|d| d.direction));
    full.assign_cover(dirs, alpha, spans);

    // Walk distance groups from the nearest outward; stop at the first
    // prefix whose coverage equals the full coverage. The whole view is
    // never tested: it is kept whether or not the test would pass.
    let discoveries = &view.discoveries; // sorted by (distance, id)
    let mut keep = discoveries.len();
    let mut idx = 0;
    while idx < discoveries.len() {
        let group_dist = discoveries[idx].distance;
        let mut end = idx;
        while end < discoveries.len() && discoveries[end].distance == group_dist {
            end += 1;
        }
        if end == discoveries.len() {
            break;
        }
        prefix.assign_cover(&dirs[..end], alpha, spans);
        if prefix.same_coverage(full) {
            keep = end;
            break;
        }
        idx = end;
    }

    let retained: Vec<_> = discoveries[..keep].to_vec();
    let grow_radius = retained
        .last()
        .map(|d| d.distance)
        .expect("non-empty by the early return above");
    NodeView {
        discoveries: retained,
        // Boundary status is a property of the growing phase; shrink-back
        // lowers power without closing the α-gap.
        boundary: view.boundary,
        grow_radius,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_basic, Network};
    use cbtc_geom::{Alpha, Point2};
    use cbtc_graph::{Layout, NodeId};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn net(points: Vec<Point2>) -> Network {
        Network::with_paper_radio(Layout::new(points))
    }

    #[test]
    fn boundary_node_sheds_redundant_far_neighbors() {
        // u0 has two neighbors in exactly the same direction; the farther
        // one contributes no new coverage. (Coverage equality is exact: a
        // direction only slightly off-axis still widens the covered arc
        // and must be kept — see the next test.)
        let network = net(vec![
            Point2::new(0.0, 0.0),
            Point2::new(50.0, 0.0),
            Point2::new(300.0, 0.0),
        ]);
        let basic = run_basic(&network, Alpha::TWO_PI_THIRDS);
        let v0 = basic.view(n(0));
        assert!(v0.boundary);
        assert_eq!(v0.discoveries.len(), 2);
        assert_eq!(v0.grow_radius, 500.0);

        let shrunk = shrink_back(&basic);
        let s0 = shrunk.view(n(0));
        assert_eq!(s0.discoveries.len(), 1);
        assert_eq!(s0.discoveries[0].id, n(1));
        assert_eq!(s0.grow_radius, 50.0);
        assert!(s0.boundary, "shrink-back must not clear the boundary flag");
    }

    #[test]
    fn far_neighbor_with_new_coverage_is_kept() {
        // The far node sits in a different direction: dropping it would
        // change coverage, so it stays.
        let network = net(vec![
            Point2::new(0.0, 0.0),
            Point2::new(50.0, 0.0),
            Point2::new(0.0, 300.0),
        ]);
        let basic = run_basic(&network, Alpha::TWO_PI_THIRDS);
        let shrunk = shrink_back(&basic);
        assert_eq!(shrunk.view(n(0)).discoveries.len(), 2);
        assert_eq!(shrunk.view(n(0)).grow_radius, 300.0);
    }

    #[test]
    fn slightly_off_axis_far_neighbor_is_kept() {
        // A far neighbor a few degrees off the near one's axis widens the
        // covered arc, so exact coverage equality keeps it.
        let network = net(vec![
            Point2::new(0.0, 0.0),
            Point2::new(50.0, 0.0),
            Point2::new(300.0, 20.0),
        ]);
        let basic = run_basic(&network, Alpha::TWO_PI_THIRDS);
        let shrunk = shrink_back(&basic);
        assert_eq!(shrunk.view(n(0)).discoveries.len(), 2);
    }

    #[test]
    fn non_boundary_nodes_unchanged_under_continuous_growth() {
        // A well-covered center: its last discovery completed coverage, so
        // nothing can be shed.
        let mut pts = vec![Point2::new(0.0, 0.0)];
        for k in 0..6 {
            let a = k as f64 * std::f64::consts::TAU / 6.0;
            pts.push(Point2::new(150.0 * a.cos(), 150.0 * a.sin()));
        }
        let network = net(pts);
        let basic = run_basic(&network, Alpha::TWO_PI_THIRDS);
        assert!(!basic.view(n(0)).boundary);
        let shrunk = shrink_back(&basic);
        assert_eq!(shrunk.view(n(0)), basic.view(n(0)));
    }

    #[test]
    fn empty_view_passes_through() {
        let network = net(vec![Point2::new(0.0, 0.0)]);
        let basic = run_basic(&network, Alpha::FIVE_PI_SIXTHS);
        let shrunk = shrink_back(&basic);
        assert_eq!(shrunk.view(n(0)), basic.view(n(0)));
    }

    #[test]
    fn shrink_is_idempotent() {
        let network = net(vec![
            Point2::new(0.0, 0.0),
            Point2::new(50.0, 0.0),
            Point2::new(300.0, 20.0),
            Point2::new(100.0, 400.0),
        ]);
        let basic = run_basic(&network, Alpha::FIVE_PI_SIXTHS);
        let once = shrink_back(&basic);
        let twice = shrink_back(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn coverage_is_invariant_under_shrink() {
        use cbtc_geom::coverage::ArcSet;
        let network = net(vec![
            Point2::new(0.0, 0.0),
            Point2::new(80.0, 10.0),
            Point2::new(210.0, -40.0),
            Point2::new(390.0, 130.0),
            Point2::new(-120.0, 340.0),
        ]);
        let alpha = Alpha::FIVE_PI_SIXTHS;
        let basic = run_basic(&network, alpha);
        let shrunk = shrink_back(&basic);
        for u in network.layout().node_ids() {
            let before = ArcSet::cover(&basic.view(u).directions(), alpha);
            let after = ArcSet::cover(&shrunk.view(u).directions(), alpha);
            assert!(
                before.same_coverage(&after),
                "coverage changed at {u}: {before} vs {after}"
            );
        }
    }
}
