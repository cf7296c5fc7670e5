//! Per-node discovery views and the outcome of the growing phase.

use cbtc_geom::{Alpha, Angle};
use cbtc_graph::{DirectedGraph, NodeId, UndirectedGraph};
use serde::{Deserialize, Serialize};

use crate::parallel::par_map_with;
use crate::PAR_MIN_CHUNK;

/// One discovered neighbor, as known to the discovering node.
///
/// `distance` is the *effective* distance: exact in the centralized
/// reference, estimated from transmission/reception powers in the
/// distributed protocol (the paper's §2 estimate). The shrink-back
/// optimization orders discoveries by the power tag, which is monotone in
/// this distance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Discovery {
    /// The discovered node.
    pub id: NodeId,
    /// Effective distance to the node (sorting key for shrink-back tags).
    pub distance: f64,
    /// Measured direction toward the node (`dir_u(v)`).
    pub direction: Angle,
}

/// What one node knows at the end of the growing phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeView {
    /// Discovered neighbors, sorted by `(distance, id)` — i.e. in discovery
    /// order under continuous power growth.
    pub discoveries: Vec<Discovery>,
    /// Whether the node still has an α-gap at maximum power (§3.1's
    /// *boundary node*).
    pub boundary: bool,
    /// The growth radius `rad⁻_{u,α}`: distance of the farthest discovered
    /// neighbor, or the max range `R` for boundary nodes (whose final
    /// broadcast used maximum power).
    pub grow_radius: f64,
}

impl NodeView {
    /// The directions of all discoveries.
    pub fn directions(&self) -> Vec<Angle> {
        self.discoveries.iter().map(|d| d.direction).collect()
    }

    /// The IDs of all discoveries (the set `N_α(u)`).
    pub fn neighbor_ids(&self) -> Vec<NodeId> {
        self.discoveries.iter().map(|d| d.id).collect()
    }

    /// Whether `v` was discovered.
    pub fn discovered(&self, v: NodeId) -> bool {
        self.discoveries.iter().any(|d| d.id == v)
    }
}

/// The collective result of the growing phase: every node's view, i.e. the
/// directed relation `N_α` with its geometry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasicOutcome {
    alpha: Alpha,
    views: Vec<NodeView>,
}

impl BasicOutcome {
    /// Assembles an outcome from per-node views.
    pub fn new(alpha: Alpha, views: Vec<NodeView>) -> Self {
        BasicOutcome { alpha, views }
    }

    /// The cone degree this outcome was computed for.
    pub fn alpha(&self) -> Alpha {
        self.alpha
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// The view of node `u`.
    pub fn view(&self, u: NodeId) -> &NodeView {
        &self.views[u.index()]
    }

    /// All views, indexed by node.
    pub fn views(&self) -> &[NodeView] {
        &self.views
    }

    /// Consumes the outcome and returns the views without copying — for
    /// callers (incremental reconfiguration) that keep per-node views as
    /// long-lived state.
    pub fn into_views(self) -> Vec<NodeView> {
        self.views
    }

    /// The directed relation `N_α`.
    pub fn neighbor_relation(&self) -> DirectedGraph {
        let mut g = DirectedGraph::new(self.views.len());
        for (i, view) in self.views.iter().enumerate() {
            let u = NodeId::new(i as u32);
            for d in &view.discoveries {
                g.add_edge(u, d.id);
            }
        }
        g
    }

    /// The symmetric closure `E_α` — the graph `G_α` of Theorem 2.1.
    pub fn symmetric_closure(&self) -> UndirectedGraph {
        graph_from_views(&self.views, &reverse_discoveries(&self.views), false)
    }

    /// The symmetric core `E⁻_α` of §3.2 (only connectivity-preserving for
    /// `α ≤ 2π/3`; see [`crate::opt::asymmetric_removal`] for the checked
    /// entry point).
    pub fn symmetric_core(&self) -> UndirectedGraph {
        graph_from_views(&self.views, &reverse_discoveries(&self.views), true)
    }

    /// The growth radii `rad⁻_{u,α}` of all nodes.
    pub fn grow_radii(&self) -> Vec<f64> {
        self.views.iter().map(|v| v.grow_radius).collect()
    }

    /// Mean growth radius (the `p_{u,α}` energy proxy used in §5's
    /// discussion of the 5π/6-vs-2π/3 tradeoff).
    pub fn mean_grow_radius(&self) -> f64 {
        if self.views.is_empty() {
            return 0.0;
        }
        self.grow_radii().iter().sum::<f64>() / self.views.len() as f64
    }

    /// The boundary nodes (α-gap at maximum power).
    pub fn boundary_nodes(&self) -> Vec<NodeId> {
        self.views
            .iter()
            .enumerate()
            .filter(|(_, v)| v.boundary)
            .map(|(i, _)| NodeId::new(i as u32))
            .collect()
    }
}

/// One list of nodes per node, in two flat arrays: [`Self::of`]`(x)` is
/// `x`'s list.
#[derive(Debug)]
pub(crate) struct NodeLists {
    /// `ids[offsets[x]..offsets[x + 1]]` is `of(x)`.
    offsets: Vec<usize>,
    ids: Vec<NodeId>,
}

impl NodeLists {
    /// Groups the `(key, value)` pairs `pairs()` yields by key, each list
    /// in yield order — a counting sort: one pass counts, one fills.
    /// `pairs` is called twice and must yield the same pairs both times.
    pub(crate) fn by_key<I>(n: usize, pairs: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (NodeId, NodeId)>,
    {
        let mut offsets = vec![0usize; n + 1];
        for (key, _) in pairs() {
            offsets[key.index() + 1] += 1;
        }
        for x in 0..n {
            offsets[x + 1] += offsets[x];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut ids = vec![NodeId::new(0); offsets[n]];
        for (key, value) in pairs() {
            let slot = &mut cursor[key.index()];
            ids[*slot] = value;
            *slot += 1;
        }
        NodeLists { offsets, ids }
    }

    /// `x`'s list.
    pub(crate) fn of(&self, x: NodeId) -> &[NodeId] {
        &self.ids[self.offsets[x.index()]..self.offsets[x.index() + 1]]
    }

    /// One owned list per node — the form the incremental engine edits.
    pub(crate) fn into_lists(self) -> Vec<Vec<NodeId>> {
        (0..self.offsets.len() - 1)
            .map(|x| self.of(NodeId::new(x as u32)).to_vec())
            .collect()
    }
}

/// The reverse of the discovery relation: `of(x)` lists every node whose
/// view discovers `x`, filled in discoverer order and so born sorted.
pub(crate) fn reverse_discoveries(views: &[NodeView]) -> NodeLists {
    NodeLists::by_key(views.len(), || {
        views.iter().enumerate().flat_map(|(i, view)| {
            let u = NodeId::new(i as u32);
            view.discoveries.iter().map(move |d| (d.id, u))
        })
    })
}

/// The one closure/core builder, for [`BasicOutcome`] and the
/// incremental engine alike: node `u`'s row is its discoveries united
/// with (`core`: intersected with) the nodes that discovered it. Rows
/// are built independently per node — one reused buffer per worker —
/// and adopted as the adjacency in one bulk pass.
pub(crate) fn graph_from_views(
    views: &[NodeView],
    reverse: &NodeLists,
    core: bool,
) -> UndirectedGraph {
    let ids: Vec<NodeId> = (0..views.len() as u32).map(NodeId::new).collect();
    let rows = par_map_with(
        &ids,
        PAR_MIN_CHUNK,
        Vec::new,
        |row: &mut Vec<NodeId>, &u| {
            let discovered_by = reverse.of(u);
            row.clear();
            for d in &views[u.index()].discoveries {
                if !core || discovered_by.binary_search(&d.id).is_ok() {
                    row.push(d.id);
                }
            }
            if !core {
                row.extend_from_slice(discovered_by);
            }
            row.sort_unstable();
            row.dedup();
            row.to_vec()
        },
    );
    UndirectedGraph::from_symmetric_rows(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn disc(id: u32, dist: f64, dir: f64) -> Discovery {
        Discovery {
            id: n(id),
            distance: dist,
            direction: Angle::new(dir),
        }
    }

    fn two_node_outcome() -> BasicOutcome {
        // 0 discovered 1; 1 discovered nothing (asymmetric).
        BasicOutcome::new(
            Alpha::FIVE_PI_SIXTHS,
            vec![
                NodeView {
                    discoveries: vec![disc(1, 10.0, 0.0)],
                    boundary: true,
                    grow_radius: 10.0,
                },
                NodeView {
                    discoveries: vec![],
                    boundary: true,
                    grow_radius: 500.0,
                },
            ],
        )
    }

    #[test]
    fn relation_and_closures() {
        let o = two_node_outcome();
        let rel = o.neighbor_relation();
        assert!(rel.has_edge(n(0), n(1)));
        assert!(!rel.has_edge(n(1), n(0)));
        assert_eq!(o.symmetric_closure().edge_count(), 1);
        assert_eq!(o.symmetric_core().edge_count(), 0);
    }

    #[test]
    fn views_and_radii() {
        let o = two_node_outcome();
        assert_eq!(o.len(), 2);
        assert!(o.view(n(0)).discovered(n(1)));
        assert!(!o.view(n(1)).discovered(n(0)));
        assert_eq!(o.grow_radii(), vec![10.0, 500.0]);
        assert_eq!(o.mean_grow_radius(), 255.0);
        assert_eq!(o.boundary_nodes(), vec![n(0), n(1)]);
        assert_eq!(o.view(n(0)).neighbor_ids(), vec![n(1)]);
        assert_eq!(o.view(n(0)).directions().len(), 1);
    }
}
