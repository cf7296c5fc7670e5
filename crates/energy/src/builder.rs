//! The lifetime engine's pluggable topology and link-reliability
//! interfaces.
//!
//! [`TopologyPolicy`](crate::TopologyPolicy) covers the paper's two
//! worlds (max power, CBTC over the ideal radio). The phy subsystem needs
//! to run the *same* lifetime arithmetic over topologies built on a
//! stochastic channel, and to charge energy for the retransmissions lossy
//! links force. These traits are that seam:
//!
//! * [`TopologyBuilder`] — the initial topology, the
//!   [`SurvivorTracker`] that maintains it under deaths, and the links'
//!   [`LinkReliability`], all from one description of the channel;
//! * [`SurvivorTracker`] — the survivor topology the lifetime engine
//!   patches on every death epoch (§4 reconfiguration);
//! * [`LinkReliability`] — the expected number of transmission attempts a
//!   packet needs per hop (ARQ with retransmit-until-delivered), which
//!   multiplies both the hop's energy drains and its routing weight.
//!
//! [`IdealLinks`] returns the literal constant `1.0`, and multiplying by
//! `1.0` is exact in IEEE 754 — so the default path through the lifetime
//! engine is bit-identical to one with no reliability concept at all.

use cbtc_core::reconfig::TopologyDelta;
use cbtc_core::Network;
use cbtc_graph::{NodeId, UndirectedGraph};
use cbtc_radio::{Power, PowerBasis};

/// The survivor topology of a fixed network, maintained under node
/// deaths: patched per death epoch, never rebuilt.
///
/// Implementations must stay **edge-for-edge identical** to their
/// builder's from-scratch construction over the survivors at every alive
/// mask (`build_on_survivors` on [`crate::TopologyPolicy`] and
/// [`crate::PhyPolicy`], the oracles the equivalence tests replay whole
/// simulations against).
pub trait SurvivorTracker: std::fmt::Debug + Send {
    /// The current topology (dead nodes isolated, original node set).
    fn graph(&self) -> &UndirectedGraph;

    /// Kills `dead` and reconfigures incrementally, returning the final
    /// graph's exact edge delta.
    ///
    /// # Panics
    ///
    /// Panics if a node in `dead` is already dead.
    fn kill(&mut self, dead: &[NodeId]) -> TopologyDelta;

    /// Installs observability hooks on the underlying incremental engine,
    /// so every [`SurvivorTracker::kill`] records a per-batch
    /// reconfiguration sample. The default is a no-op (view-free
    /// trackers have no engine to instrument).
    fn set_trace(&mut self, trace: cbtc_trace::TraceHandle) {
        let _ = trace;
    }

    /// Advances the clock stamped onto recorded reconfiguration samples.
    fn set_trace_clock(&mut self, time: f64) {
        let _ = time;
    }

    /// Installs a metrics registry on the underlying incremental engine,
    /// so every [`SurvivorTracker::kill`] feeds the per-event-kind
    /// latency histograms and replay counters. The default is a no-op
    /// (view-free trackers have no engine to instrument).
    fn set_metrics(&mut self, registry: &cbtc_metrics::MetricsRegistry) {
        let _ = registry;
    }
}

/// How a lifetime run builds its topology, maintains it over the
/// survivors, and prices its links.
///
/// `basis` is the run's power-pricing basis
/// ([`EnergyModel::power_basis`](crate::EnergyModel::power_basis)): a
/// builder whose construction depends on how hops are priced (the phy
/// builder gates CBTC growth on feedback under measured pricing) reads
/// it here, so the topology and the pricing can never disagree.
///
/// Implementations must be deterministic: every method is a pure
/// function of its arguments.
pub trait TopologyBuilder: std::fmt::Debug + Send + Sync {
    /// Builds the topology over the full network.
    fn build(&self, network: &Network, basis: PowerBasis) -> UndirectedGraph;

    /// The survivor tracker the lifetime engine patches on every death
    /// epoch, starting from [`TopologyBuilder::build`]'s graph.
    fn survivor_tracker(&self, network: &Network, basis: PowerBasis) -> Box<dyn SurvivorTracker>;

    /// The expected ARQ attempts of the links this builder's channel
    /// carries.
    fn reliability(&self, network: &Network) -> Box<dyn LinkReliability>;

    /// Whether nodes know link costs and can adapt per-packet
    /// transmission power.
    fn power_controlled(&self) -> bool;

    /// Display label for tables and JSON output.
    fn label(&self) -> String;
}

/// Expected transmission attempts per packet per directed link.
///
/// Under ARQ a packet over a link with delivery probability `p` takes
/// `1/p` attempts in expectation; the sender pays that many
/// transmissions and the receiver that many receptions. Implementations
/// must be deterministic (a frozen channel) and return values `≥ 1`.
pub trait LinkReliability: std::fmt::Debug + Send + Sync {
    /// Expected attempts for one packet over `u → v` at `tx_power`,
    /// where `distance` is the geometric link length. `1.0` = perfectly
    /// reliable.
    fn attempts(&self, u: NodeId, v: NodeId, tx_power: Power, distance: f64) -> f64;

    /// The distance the §2 measurement assumption would report for
    /// `u → v`: the effective distance `d·g^(−1/n)` on a stochastic
    /// channel, the geometric `distance` itself (returned literally, no
    /// arithmetic) on the ideal one. The lifetime engine prices hops by
    /// this value under `PowerBasis::Measured`.
    fn priced_distance(&self, u: NodeId, v: NodeId, distance: f64) -> f64 {
        let _ = (u, v);
        distance
    }
}

/// The ideal channel: every link needs exactly one attempt.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealLinks;

impl LinkReliability for IdealLinks {
    fn attempts(&self, _u: NodeId, _v: NodeId, _tx_power: Power, _distance: f64) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_links_are_exactly_one() {
        let r = IdealLinks;
        assert_eq!(
            r.attempts(NodeId::new(0), NodeId::new(1), Power::new(10.0), 42.0),
            1.0
        );
    }
}
