//! # cbtc — Cone-Based Topology Control
//!
//! A complete reproduction of *"Analysis of a Cone-Based Distributed
//! Topology Control Algorithm for Wireless Multi-hop Networks"* (Li,
//! Halpern, Bahl, Wang, Wattenhofer — PODC 2001) as a Rust workspace.
//!
//! This facade crate re-exports the member crates under stable names:
//!
//! * [`geom`] — planar geometry: angles, cones, α-gap tests, coverage;
//! * [`radio`] — path-loss models, power schedules, channel impairments;
//! * [`graph`] — graph substrate: unit-disk graphs, the uniform-grid
//!   spatial index behind every 10k+-node experiment, connectivity,
//!   metrics, baseline spanners;
//! * [`phy`] — the stochastic physical layer: frozen log-normal
//!   shadowing fields, Rayleigh/Rician fading, PRR curves, and the SINR
//!   interference engine (all seed-deterministic);
//! * [`sim`] — deterministic discrete-event simulator (synchronous rounds
//!   and asynchronous operation with faults), with an optional phy
//!   delivery pipeline and slotted CSMA;
//! * [`core`] — the CBTC algorithm itself: centralized reference,
//!   distributed protocol, the three optimizations and reconfiguration;
//! * [`workloads`] — scenario generators (the paper's random networks,
//!   mobility);
//! * [`energy`] — packet-level traffic and network-lifetime simulation:
//!   batteries, tx/rx/standby costs, seeded flow generators, the epoch
//!   lifetime engine and a parallel multi-seed experiment runner;
//! * [`trace`] — the observability layer: a versioned JSONL trace-event
//!   schema, streaming/in-memory sinks, and the replay/analysis toolkit
//!   behind `cbtc replay` and `cbtc analyze`;
//! * [`metrics`] — the quantitative observability layer: counters,
//!   gauges, log-bucketed latency histograms (p50/p99/p999/max) and
//!   serializable snapshots, no-ops when disabled;
//! * [`viz`] — SVG rendering of topologies (Figure 6) and animated
//!   replay of recorded traces.
//!
//! # Quickstart
//!
//! ```
//! use cbtc::core::{CbtcConfig, run_centralized};
//! use cbtc::geom::Alpha;
//! use cbtc::workloads::{RandomPlacement, Scenario};
//!
//! // The paper's setup: 100 nodes in a 1500×1500 field, max radius 500.
//! let scenario = Scenario::paper_default();
//! let network = RandomPlacement::from_scenario(&scenario).generate(42);
//! let outcome = run_centralized(&network, &CbtcConfig::new(Alpha::FIVE_PI_SIXTHS));
//!
//! // Theorem 2.1: connectivity of the max-power graph is preserved.
//! assert!(outcome.preserves_connectivity_of(&network.max_power_graph()));
//! ```
//!
//! # Measuring network lifetime
//!
//! The [`energy`] subsystem replays packet traffic over any topology and
//! drains batteries until the network dies:
//!
//! ```
//! use cbtc::core::CbtcConfig;
//! use cbtc::energy::{LifetimeConfig, LifetimeSim, TopologyPolicy};
//! use cbtc::geom::Alpha;
//! use cbtc::workloads::{RandomPlacement, Scenario};
//!
//! let network = RandomPlacement::from_scenario(&Scenario::smoke()).generate(7);
//! let cbtc = TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS));
//! let report = LifetimeSim::new(network, cbtc, LifetimeConfig::smoke(), 7).run();
//! assert!(report.first_death.is_some());
//! ```
//!
//! # Reconfiguration under churn
//!
//! The [`workloads::churn`] suite runs the §4 reconfiguration protocol —
//! NDP beacons plus the join/leave/angle-change rules — under continuous
//! random-waypoint motion with node joins and crash-stops, at 10k+ nodes:
//!
//! ```
//! use cbtc::metrics::MetricsRegistry;
//! use cbtc::workloads::churn::{run_churn, ChurnScenario};
//!
//! let registry = MetricsRegistry::disabled();
//! let report = run_churn(&ChurnScenario::smoke(), 7, None, &registry, None);
//! assert!(report.connectivity_fraction > 0.0);
//! ```
//!
//! # Serving reconfiguration with live latency percentiles
//!
//! The [`workloads::service`] driver streams a sustained churn mix
//! through maintained topologies — optionally sharded across spatial
//! streams and group-commit batched — and reports it like a production
//! service, the library form of `cbtc serve`. Every stream keeps its
//! `reconfig.*` series in its own registry shard; the report carries
//! the exact merge:
//!
//! ```
//! use cbtc::metrics::MetricsRegistry;
//! use cbtc::workloads::{run_service, ServiceConfig};
//!
//! let registry = MetricsRegistry::enabled();
//! let config = ServiceConfig {
//!     streams: 2,
//!     batch_max: 8,
//!     ..ServiceConfig::sized(60, 300)
//! };
//! let report = run_service(&config, 7, &registry, None);
//! assert!(report.matches_scratch, "every stream must track scratch");
//! let all = report.latency_for("all").unwrap();
//! assert!(all.p50 <= all.p99 && all.p99 <= all.max);
//! let committed: u64 = report.metrics.counter("reconfig.events.move").unwrap()
//!     + report.metrics.counter("reconfig.events.join").unwrap()
//!     + report.metrics.counter("reconfig.events.death").unwrap();
//! assert_eq!(committed, 300);
//! ```
//!
//! # Robustness off the unit disk
//!
//! The [`phy`] layer replaces the ideal `p(d) = S·dⁿ` radio with a
//! stochastic channel; the same constructions then run on *effective
//! distances* and the simulator's deliveries go through
//! shadowing/fading/PRR/SINR. The ideal profile is bit-identical to the
//! paper's model:
//!
//! ```
//! use cbtc::core::phy::PhyChannel;
//! use cbtc::core::{construct, run_centralized, CbtcConfig};
//! use cbtc::geom::Alpha;
//! use cbtc::radio::IdealGain;
//! use cbtc::workloads::{RandomPlacement, Scenario};
//!
//! let network = RandomPlacement::from_scenario(&Scenario::smoke()).generate(3);
//! let config = CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS);
//! let channel = PhyChannel::new(network.model(), &IdealGain);
//! // The one engine, on the channel's effective distances, with the
//! // pairwise connectivity guard that off-unit-disk metrics need.
//! let phy = construct(&network, &channel, &config, None, true);
//! let ideal = run_centralized(&network, &config);
//! assert_eq!(phy.final_graph(), ideal.final_graph());
//! assert!(phy.pairwise_restored().is_empty());
//! ```

pub use cbtc_core as core;
pub use cbtc_energy as energy;
pub use cbtc_geom as geom;
pub use cbtc_graph as graph;
pub use cbtc_metrics as metrics;
pub use cbtc_phy as phy;
pub use cbtc_radio as radio;
pub use cbtc_sim as sim;
pub use cbtc_trace as trace;
pub use cbtc_viz as viz;
pub use cbtc_workloads as workloads;
