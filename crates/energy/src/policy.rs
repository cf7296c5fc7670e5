//! Topology policies: how the network decides who its neighbors are.
//!
//! The lifetime engine is parameterized over a [`TopologyPolicy`] so the
//! same traffic can be replayed over the max-power graph and over any
//! CBTC configuration, isolating what topology control buys.

use cbtc_core::{run_centralized, run_centralized_masked, CbtcConfig, Network};
use cbtc_graph::unit_disk::unit_disk_graph_where;
use cbtc_graph::UndirectedGraph;
use cbtc_radio::PowerBasis;
use serde::{Deserialize, Serialize};

use crate::{IdealLinks, LinkReliability, SurvivorTopology, SurvivorTracker, TopologyBuilder};

/// The topology-construction rule a network runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TopologyPolicy {
    /// No topology control: every node broadcasts at maximum power and
    /// keeps every in-range link (`G_R`). Nodes know nothing about link
    /// distances, so data packets are also sent at maximum power.
    MaxPower,
    /// Cone-based topology control with the given configuration. Nodes
    /// learn per-neighbor distances during the growing phase, so data
    /// packets use per-link power control.
    Cbtc(CbtcConfig),
}

impl TopologyPolicy {
    /// Human-readable label for tables and JSON output.
    pub fn label(&self) -> String {
        match self {
            TopologyPolicy::MaxPower => "max power".to_owned(),
            TopologyPolicy::Cbtc(config) => {
                let mut opts = Vec::new();
                if config.shrink_back() {
                    opts.push("shrink");
                }
                if config.asymmetric_removal() {
                    opts.push("asym");
                }
                if config.pairwise_removal() {
                    opts.push("pairwise");
                }
                if opts.is_empty() {
                    format!("CBTC({})", config.alpha())
                } else {
                    format!("CBTC({}) +{}", config.alpha(), opts.join("+"))
                }
            }
        }
    }

    /// Whether nodes under this policy know link distances and can adapt
    /// per-packet transmission power.
    pub fn power_controlled(&self) -> bool {
        matches!(self, TopologyPolicy::Cbtc(_))
    }

    /// Builds the topology over the full network.
    pub fn build(&self, network: &Network) -> UndirectedGraph {
        match self {
            TopologyPolicy::MaxPower => network.max_power_graph(),
            TopologyPolicy::Cbtc(config) => run_centralized(network, config).into_final_graph(),
        }
    }

    /// Builds the topology over the surviving subset of `network`,
    /// returning a graph on the **original** node set whose edges touch
    /// only nodes with `alive[i]` true. This is the reconfiguration step
    /// (§4): survivors rerun the protocol among themselves.
    ///
    /// The run is masked in place ([`run_centralized_masked`]) — no
    /// survivor layout, sub-network, or ID remap is allocated. This is
    /// the from-scratch oracle; the lifetime engine patches its topology
    /// incrementally instead ([`crate::SurvivorTopology`], equal to this
    /// at every mask).
    ///
    /// # Panics
    ///
    /// Panics if `alive.len()` differs from the network size.
    pub fn build_on_survivors(&self, network: &Network, alive: &[bool]) -> UndirectedGraph {
        assert_eq!(alive.len(), network.len(), "alive mask size mismatch");
        match self {
            TopologyPolicy::MaxPower => {
                unit_disk_graph_where(network.layout(), network.max_range(), |u| alive[u.index()])
            }
            TopologyPolicy::Cbtc(config) => {
                run_centralized_masked(network, config, alive).into_final_graph()
            }
        }
    }
}

/// The ideal radio: the pricing basis changes nothing (every effective
/// distance is the geometric one) and every link takes one attempt.
impl TopologyBuilder for TopologyPolicy {
    fn build(&self, network: &Network, _basis: PowerBasis) -> UndirectedGraph {
        TopologyPolicy::build(self, network)
    }

    fn survivor_tracker(&self, network: &Network, _basis: PowerBasis) -> Box<dyn SurvivorTracker> {
        Box::new(SurvivorTopology::new(network, *self))
    }

    fn reliability(&self, _network: &Network) -> Box<dyn LinkReliability> {
        Box::new(IdealLinks)
    }

    fn power_controlled(&self) -> bool {
        TopologyPolicy::power_controlled(self)
    }

    fn label(&self) -> String {
        TopologyPolicy::label(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtc_geom::{Alpha, Point2};
    use cbtc_graph::{Layout, NodeId};

    fn line_network() -> Network {
        Network::with_paper_radio(Layout::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(300.0, 0.0),
            Point2::new(600.0, 0.0),
            Point2::new(900.0, 0.0),
        ]))
    }

    #[test]
    fn labels_are_distinct() {
        let a = TopologyPolicy::MaxPower.label();
        let b = TopologyPolicy::Cbtc(CbtcConfig::new(Alpha::FIVE_PI_SIXTHS)).label();
        let c = TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS)).label();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert!(c.contains("shrink"));
    }

    #[test]
    fn max_power_is_unit_disk() {
        let net = line_network();
        let g = TopologyPolicy::MaxPower.build(&net);
        assert_eq!(g, net.max_power_graph());
        assert!(!TopologyPolicy::MaxPower.power_controlled());
    }

    #[test]
    fn cbtc_is_subgraph_of_max_power() {
        let net = line_network();
        let policy = TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS));
        let g = policy.build(&net);
        assert!(g.is_subgraph_of(&net.max_power_graph()));
        assert!(policy.power_controlled());
    }

    #[test]
    fn survivor_rebuild_skips_the_dead() {
        let net = line_network();
        // Kill node 1; survivors 0,2,3. 0 is now isolated (600 > R).
        let alive = [true, false, true, true];
        for policy in [
            TopologyPolicy::MaxPower,
            TopologyPolicy::Cbtc(CbtcConfig::new(Alpha::FIVE_PI_SIXTHS)),
        ] {
            let g = policy.build_on_survivors(&net, &alive);
            assert_eq!(g.node_count(), 4);
            assert_eq!(g.degree(NodeId::new(1)), 0, "dead node must be isolated");
            assert!(g.has_edge(NodeId::new(2), NodeId::new(3)));
            assert_eq!(g.degree(NodeId::new(0)), 0, "out of range of all survivors");
        }
    }

    #[test]
    fn lone_survivor_yields_empty_graph() {
        let net = line_network();
        let g = TopologyPolicy::MaxPower.build_on_survivors(&net, &[false, true, false, false]);
        assert_eq!(g.edge_count(), 0);
    }
}
