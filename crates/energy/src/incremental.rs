//! Incremental survivor reconfiguration: the §4 re-run as a patch, not a
//! rebuild.
//!
//! The affected-set machinery lives in the metric-generic
//! [`cbtc_core::reconfig::DeltaTopology`] engine, which also handles
//! joins, moves and stochastic channels. What remains here is the
//! lifetime engine's *death-only adapter*: [`MetricSurvivorTopology`]
//! narrows the engine to the death streams a battery simulation
//! produces, keeps the view-free fast path (stripping the dead nodes'
//! edges is the whole update, for max power and for runs without
//! reconfiguration), and stays **edge-for-edge identical** to the
//! builder's from-scratch survivor construction — the property tests
//! replay the two against each other, and whole lifetime runs against a
//! tracker that rebuilds from scratch. [`SurvivorTopology`] is the
//! adapter on the ideal radio; the phy subsystem instantiates it on the
//! effective-distance metric.

use cbtc_core::reconfig::{DeltaTopology, GeometricMetric, LinkMetric, NodeEvent};
use cbtc_core::Network;
use cbtc_graph::{NodeId, UndirectedGraph};

use crate::builder::SurvivorTracker;
use crate::TopologyPolicy;

pub use cbtc_core::reconfig::TopologyDelta;

/// The current CBTC (or max-power) topology over the survivors of a
/// fixed network, maintained incrementally under node deaths: either a
/// [`DeltaTopology`] engine over some metric (CBTC policies), or a bare
/// graph whose survivor topology is the induced subgraph (view-free
/// max-power style policies, where a death strips exactly the dead
/// node's edges).
#[derive(Debug, Clone)]
pub struct MetricSurvivorTopology<M: LinkMetric> {
    alive: Vec<bool>,
    /// The CBTC engine; `None` for the view-free policies.
    cbtc: Option<DeltaTopology<M>>,
    /// The full topology for the view-free fast path (unused when the
    /// engine owns the topology).
    graph: UndirectedGraph,
}

/// [`MetricSurvivorTopology`] on the ideal radio: the incremental
/// counterpart of [`TopologyPolicy::build_on_survivors`].
///
/// # Example
///
/// ```
/// use cbtc_core::{CbtcConfig, Network};
/// use cbtc_energy::{SurvivorTopology, SurvivorTracker, TopologyPolicy};
/// use cbtc_geom::{Alpha, Point2};
/// use cbtc_graph::{Layout, NodeId};
///
/// let network = Network::with_paper_radio(Layout::new(vec![
///     Point2::new(0.0, 0.0),
///     Point2::new(300.0, 0.0),
///     Point2::new(600.0, 0.0),
/// ]));
/// let policy = TopologyPolicy::Cbtc(CbtcConfig::new(Alpha::FIVE_PI_SIXTHS));
/// let mut topo = SurvivorTopology::new(&network, policy);
/// assert_eq!(topo.graph().edge_count(), 2);
///
/// let delta = topo.kill(&[NodeId::new(1)]);
/// // The middle node's edges are gone; the ends are out of range.
/// assert_eq!(topo.graph().edge_count(), 0);
/// assert_eq!(delta.removed.len(), 2);
/// // Identical to a from-scratch survivor rebuild.
/// let full = policy.build_on_survivors(&network, &[true, false, true]);
/// assert_eq!(topo.graph(), &full);
/// ```
pub type SurvivorTopology = MetricSurvivorTopology<GeometricMetric>;

impl SurvivorTopology {
    /// Builds the initial (everyone-alive) topology for `policy`.
    pub fn new(network: &Network, policy: TopologyPolicy) -> Self {
        match policy {
            // Max power never re-grows: survivors keep broadcasting at
            // `P`, so the survivor topology is the induced subgraph.
            TopologyPolicy::MaxPower => Self::induced(network.max_power_graph()),
            TopologyPolicy::Cbtc(config) => Self::engine(DeltaTopology::new(
                network.layout().clone(),
                vec![true; network.len()],
                network.max_range(),
                config,
                false,
                GeometricMetric,
            )),
        }
    }
}

impl<M: LinkMetric> MetricSurvivorTopology<M> {
    /// An adapter over the incremental engine.
    pub(crate) fn engine(engine: DeltaTopology<M>) -> Self {
        MetricSurvivorTopology {
            alive: vec![true; engine.active().len()],
            cbtc: Some(engine),
            graph: UndirectedGraph::new(0),
        }
    }

    /// An adapter over an induced-subgraph topology (every node alive):
    /// a death strips the dead node's edges and nothing else re-grows.
    pub(crate) fn induced(graph: UndirectedGraph) -> Self {
        MetricSurvivorTopology {
            alive: vec![true; graph.node_count()],
            cbtc: None,
            graph,
        }
    }

    /// The alive mask this topology currently reflects.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }
}

/// The tracker seam the lifetime engine drives. The observability setters
/// reach the CBTC engine; they are no-ops for the view-free fast path,
/// whose kills are trivial edge strips.
impl<M: LinkMetric + std::fmt::Debug + Send> SurvivorTracker for MetricSurvivorTopology<M> {
    fn graph(&self) -> &UndirectedGraph {
        self.cbtc.as_ref().map_or(&self.graph, DeltaTopology::graph)
    }

    /// Only survivors whose discovery prefix contained a dead node re-run
    /// their growth; every edge between unaffected survivors is provably
    /// unchanged and is not touched.
    fn kill(&mut self, dead: &[NodeId]) -> TopologyDelta {
        match &mut self.cbtc {
            Some(engine) => {
                let events: Vec<NodeEvent> = dead.iter().map(|&d| NodeEvent::Death(d)).collect();
                let delta = engine.apply(&events);
                for &d in dead {
                    self.alive[d.index()] = false;
                }
                delta
            }
            None => {
                let mut delta = TopologyDelta::default();
                for &d in dead {
                    assert!(self.alive[d.index()], "node {d} is already dead");
                    self.alive[d.index()] = false;
                    let neighbors: Vec<NodeId> = self.graph.neighbors(d).collect();
                    for v in neighbors {
                        self.graph.remove_edge(d, v);
                        delta.removed.push((d.min(v), d.max(v)));
                    }
                }
                delta.removed.sort_unstable();
                delta.removed.dedup();
                delta
            }
        }
    }

    fn set_trace(&mut self, trace: cbtc_trace::TraceHandle) {
        if let Some(engine) = &mut self.cbtc {
            engine.set_trace(trace);
        }
    }

    fn set_trace_clock(&mut self, time: f64) {
        if let Some(engine) = &mut self.cbtc {
            engine.set_trace_clock(time);
        }
    }

    fn set_metrics(&mut self, registry: &cbtc_metrics::MetricsRegistry) {
        if let Some(engine) = &mut self.cbtc {
            engine.set_metrics(registry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtc_core::CbtcConfig;
    use cbtc_geom::{Alpha, Point2};
    use cbtc_graph::Layout;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn cluster() -> Network {
        // A dense two-ring cluster with enough redundancy that deaths
        // trigger actual re-growth.
        let mut pts = vec![Point2::new(0.0, 0.0)];
        for k in 0..6 {
            let a = k as f64 * std::f64::consts::TAU / 6.0;
            pts.push(Point2::new(180.0 * a.cos(), 180.0 * a.sin()));
        }
        for k in 0..5 {
            let a = 0.3 + k as f64 * std::f64::consts::TAU / 5.0;
            pts.push(Point2::new(340.0 * a.cos(), 340.0 * a.sin()));
        }
        Network::with_paper_radio(Layout::new(pts))
    }

    fn policies() -> Vec<TopologyPolicy> {
        vec![
            TopologyPolicy::MaxPower,
            TopologyPolicy::Cbtc(CbtcConfig::new(Alpha::FIVE_PI_SIXTHS)),
            TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS)),
            TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS)),
        ]
    }

    #[test]
    fn initial_build_matches_policy_build() {
        let network = cluster();
        for policy in policies() {
            let topo = SurvivorTopology::new(&network, policy);
            assert_eq!(
                topo.graph(),
                &policy.build(&network),
                "policy {}",
                policy.label()
            );
        }
    }

    #[test]
    fn kill_matches_full_survivor_rebuild_step_by_step() {
        let network = cluster();
        let death_order = [3u32, 8, 0, 10, 5];
        for policy in policies() {
            let mut topo = SurvivorTopology::new(&network, policy);
            let mut alive = vec![true; network.len()];
            for &d in &death_order {
                alive[d as usize] = false;
                let delta = topo.kill(&[n(d)]);
                let full = policy.build_on_survivors(&network, &alive);
                assert_eq!(
                    topo.graph(),
                    &full,
                    "policy {} after killing {d}",
                    policy.label()
                );
                // The delta must describe exactly the change.
                for (u, v) in &delta.removed {
                    assert!(!topo.graph().has_edge(*u, *v));
                }
                for (u, v) in &delta.added {
                    assert!(topo.graph().has_edge(*u, *v));
                }
            }
        }
    }

    #[test]
    fn batch_deaths_match_full_rebuild() {
        let network = cluster();
        for policy in policies() {
            let mut topo = SurvivorTopology::new(&network, policy);
            let dead = [n(1), n(2), n(7)];
            topo.kill(&dead);
            let mut alive = vec![true; network.len()];
            for d in dead {
                alive[d.index()] = false;
            }
            assert_eq!(
                topo.graph(),
                &policy.build_on_survivors(&network, &alive),
                "policy {}",
                policy.label()
            );
            assert_eq!(topo.alive(), &alive[..]);
        }
    }

    #[test]
    #[should_panic(expected = "already dead")]
    fn double_kill_panics() {
        let network = cluster();
        let mut topo = SurvivorTopology::new(&network, TopologyPolicy::MaxPower);
        topo.kill(&[n(0)]);
        topo.kill(&[n(0)]);
    }

    #[test]
    fn unrelated_deaths_leave_far_edges_alone() {
        // Two clusters far apart: killing in one must not change (or
        // re-derive differently) the other's edges.
        let mut pts = Vec::new();
        for k in 0..4 {
            let a = k as f64 * std::f64::consts::TAU / 4.0;
            pts.push(Point2::new(150.0 * a.cos(), 150.0 * a.sin()));
        }
        for k in 0..4 {
            let a = k as f64 * std::f64::consts::TAU / 4.0;
            pts.push(Point2::new(5_000.0 + 150.0 * a.cos(), 150.0 * a.sin()));
        }
        let network = Network::with_paper_radio(Layout::new(pts));
        let policy = TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS));
        let mut topo = SurvivorTopology::new(&network, policy);
        let before: Vec<_> = topo
            .graph()
            .edges()
            .filter(|(u, _)| u.index() >= 4)
            .collect();
        let delta = topo.kill(&[n(0)]);
        let after: Vec<_> = topo
            .graph()
            .edges()
            .filter(|(u, _)| u.index() >= 4)
            .collect();
        assert_eq!(before, after, "far cluster untouched");
        assert!(delta
            .removed
            .iter()
            .chain(&delta.added)
            .all(|(u, v)| u.index() < 4 && v.index() < 4));
    }
}
