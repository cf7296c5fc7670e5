//! # cbtc-energy
//!
//! Packet-level traffic and network-lifetime simulation over CBTC
//! topologies — the paper's §1/§6 energy motivation made measurable.
//!
//! The paper argues that cone-based topology control saves energy and
//! extends network lifetime, but reports only static proxies (average
//! radius, average degree). Follow-up work (Chu & Sethu,
//! arXiv:1309.3260 / 1309.3284) evaluates topology control the hard way:
//! simulate actual traffic over the derived graph, drain per-node
//! batteries, and watch the network die. This crate reproduces that
//! methodology:
//!
//! * [`Battery`] / [`EnergyModel`] / [`EnergyLedger`] — per-node energy
//!   state and the tx/rx/idle/maintenance cost model, priced through
//!   `cbtc-radio`'s [`PathLoss`](cbtc_radio::PathLoss) power function;
//! * [`TrafficPattern`] / [`FlowGenerator`] — deterministic seeded flow
//!   generation: uniform random pairs, convergecast-to-sink, hotspot;
//! * [`TopologyPolicy`] — max power vs. any
//!   [`CbtcConfig`](cbtc_core::CbtcConfig), including reconfiguration
//!   over the survivors after deaths;
//! * [`LifetimeSim`] — the epoch engine: minimum-energy routing over the
//!   current topology, battery drain per forwarded packet plus standby
//!   (idle + maintenance beaconing at broadcast-radius power), dead-node
//!   removal, and lifetime milestones ([`LifetimeReport`]): first death,
//!   fraction-alive curve, time-to-partition, energy-balance variance;
//! * [`run_trials`] / [`lifetime_experiment`] — a thread-parallel
//!   multi-seed runner aggregating mean/σ/CI across the paper's
//!   100-network × 100-node setup in seconds.
//!
//! # Paper map
//!
//! This crate extends the paper rather than transcribing a section: §1
//! motivates topology control by battery life and §6 names "energy
//! consumed … network lifetime" as the open evaluation; [`LifetimeSim`]
//! supplies that evaluation. The initial topology goes through the
//! grid-indexed
//! [`unit_disk_graph`](cbtc_graph::unit_disk::unit_disk_graph) and the §3
//! optimizations of [`cbtc_core::opt`]; death epochs take the §4
//! reconfiguration as an *incremental patch*: the builder's
//! [`SurvivorTracker`] ([`SurvivorTopology`] on the ideal radio, a
//! phy-channel tracker under [`phy`]) adapts the metric-generic
//! [`cbtc_core::reconfig::DeltaTopology`] engine — only nodes whose
//! discovery prefix contained the deceased re-grow, and only the routing
//! trees the edge delta can affect are dropped
//! ([`cbtc_core::reconfig::routing`]) and grown again on demand,
//! bit-for-bit equal to a full rebuild. Hop powers follow §2's measurement assumption through
//! [`cbtc_radio::PowerBasis`]: under `Measured`, drains, routing
//! weights and broadcast radii are priced from the channel's effective
//! distance (what the received Hello reports) instead of the geometric
//! one, and the phy construction switches to the feedback-gated
//! reference ([`cbtc_core::phy::AckGatedChannel`]) — exactly ×1 on the
//! ideal channel, and the close of the σ = 8 dB lifetime collapse on a
//! shadowed one.
//!
//! # Example
//!
//! ```
//! use cbtc_energy::{LifetimeConfig, LifetimeSim, TopologyPolicy};
//! use cbtc_core::CbtcConfig;
//! use cbtc_geom::Alpha;
//! use cbtc_workloads::{RandomPlacement, Scenario};
//!
//! let network = RandomPlacement::from_scenario(&Scenario::smoke()).generate(42);
//! let config = LifetimeConfig::smoke();
//!
//! let max_power =
//!     LifetimeSim::new(network.clone(), TopologyPolicy::MaxPower, config, 42).run();
//! let cbtc = LifetimeSim::new(
//!     network,
//!     TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS)),
//!     config,
//!     42,
//! )
//! .run();
//!
//! // Topology control extends time-to-first-death (the §6 claim).
//! assert!(cbtc.first_death_or_censored() > max_power.first_death_or_censored());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod incremental;
mod lifetime;
mod mobile;
mod model;
pub mod phy;
mod policy;
mod runner;
mod traffic;

pub use builder::{IdealLinks, LinkReliability, SurvivorTracker, TopologyBuilder};
pub use incremental::{MetricSurvivorTopology, SurvivorTopology, TopologyDelta};
pub use lifetime::{LifetimeConfig, LifetimeReport, LifetimeSim};
pub use mobile::{MobileLifetimeConfig, MobileLifetimeReport, MobileLifetimeSim};
pub use model::{Battery, EnergyLedger, EnergyModel};
pub use phy::{phy_lifetime_experiment, PhyLinks, PhyPolicy};
pub use policy::TopologyPolicy;
pub use runner::{
    aggregate, lifetime_experiment, run_trials, run_trials_with, LifetimeAggregate, Summary,
};
pub use traffic::{Flow, FlowGenerator, TrafficPattern};
