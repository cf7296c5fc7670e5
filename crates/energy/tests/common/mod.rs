//! The from-scratch oracle for whole lifetime runs: a builder whose
//! survivor tracker rebuilds the survivor topology on every death epoch
//! instead of patching it.

use cbtc_core::reconfig::{graph_delta, TopologyDelta};
use cbtc_core::Network;
use cbtc_energy::{LinkReliability, PhyPolicy, SurvivorTracker, TopologyBuilder, TopologyPolicy};
use cbtc_graph::{NodeId, UndirectedGraph};
use cbtc_radio::PowerBasis;

/// A builder with a from-scratch survivor construction.
pub trait Rebuild: TopologyBuilder + Copy + 'static {
    /// The topology over the survivors, built from scratch.
    fn rebuild(&self, network: &Network, basis: PowerBasis, alive: &[bool]) -> UndirectedGraph;
}

impl Rebuild for TopologyPolicy {
    fn rebuild(&self, network: &Network, _basis: PowerBasis, alive: &[bool]) -> UndirectedGraph {
        self.build_on_survivors(network, alive)
    }
}

impl Rebuild for PhyPolicy {
    fn rebuild(&self, network: &Network, basis: PowerBasis, alive: &[bool]) -> UndirectedGraph {
        self.build_on_survivors(network, basis, alive)
    }
}

/// `B` with its survivor tracker replaced by a full rebuild per death
/// epoch; everything else (initial topology, link reliability, power
/// control, label) is `B`'s own.
#[derive(Debug)]
pub struct RebuildEveryEpoch<B>(pub B);

impl<B: Rebuild> TopologyBuilder for RebuildEveryEpoch<B> {
    fn build(&self, network: &Network, basis: PowerBasis) -> UndirectedGraph {
        self.0.build(network, basis)
    }

    fn survivor_tracker(&self, network: &Network, basis: PowerBasis) -> Box<dyn SurvivorTracker> {
        Box::new(Rebuilding {
            builder: self.0,
            network: network.clone(),
            basis,
            alive: vec![true; network.len()],
            graph: self.0.build(network, basis),
        })
    }

    fn reliability(&self, network: &Network) -> Box<dyn LinkReliability> {
        self.0.reliability(network)
    }

    fn power_controlled(&self) -> bool {
        self.0.power_controlled()
    }

    fn label(&self) -> String {
        self.0.label()
    }
}

/// The survivor topology rebuilt from scratch on every kill, reporting
/// the graphs' exact difference as its delta.
#[derive(Debug)]
struct Rebuilding<B> {
    builder: B,
    network: Network,
    basis: PowerBasis,
    alive: Vec<bool>,
    graph: UndirectedGraph,
}

impl<B: Rebuild> SurvivorTracker for Rebuilding<B> {
    fn graph(&self) -> &UndirectedGraph {
        &self.graph
    }

    fn kill(&mut self, dead: &[NodeId]) -> TopologyDelta {
        for &d in dead {
            assert!(self.alive[d.index()], "node {d} is already dead");
            self.alive[d.index()] = false;
        }
        let next = self.builder.rebuild(&self.network, self.basis, &self.alive);
        let delta = graph_delta(&self.graph, &next);
        self.graph = next;
        delta
    }
}
