//! # cbtc-core
//!
//! The Cone-Based Topology Control (CBTC) algorithm — the primary
//! contribution of *"Analysis of a Cone-Based Distributed Topology Control
//! Algorithm for Wireless Multi-hop Networks"* (Li, Halpern, Bahl, Wang,
//! Wattenhofer, PODC 2001).
//!
//! ## The algorithm
//!
//! Each node `u` grows its broadcast power from `p0` (Figure 1) until every
//! cone of degree `α` around `u` contains a discovered neighbor, or maximum
//! power is reached. With `α ≤ 5π/6`, the symmetric closure `G_α` of the
//! discovered relation preserves the connectivity of the max-power graph
//! `G_R` — and `5π/6` is tight (Theorems 2.1 / 2.4).
//!
//! ## What this crate provides
//!
//! * [`Network`] — a node layout plus radio model, the world experiments
//!   run against;
//! * [`construct`] (= [`optimize`] ∘ [`grow`]) — the exact *centralized
//!   reference*: continuous power growth through the sorted neighbor
//!   costs, yielding the precise `rad⁻_{u,α}` radii the paper reports,
//!   over any [`reconfig::LinkMetric`]; [`run_basic`] /
//!   [`run_centralized`] are its geometric conveniences;
//! * [`opt`] — the three §3 optimizations: shrink-back, asymmetric edge
//!   removal (`α ≤ 2π/3`), pairwise (redundant) edge removal;
//! * [`CbtcConfig`] — which α and which optimizations to apply;
//! * [`protocol`] — the *distributed protocol* of Figure 1 running on the
//!   `cbtc-sim` discrete-event engine, using only reception powers and
//!   angles of arrival (plus the asymmetric-removal notification phase of
//!   §3.2);
//! * [`reconfig`] — the §4 Neighbor Discovery Protocol (beacons) and the
//!   `join/leave/angle-change` reconfiguration rules;
//! * [`theory`] — executable forms of the paper's claims (Corollary 2.3
//!   short-edge paths, redundant-edge definition) used by tests and the
//!   experiment harness.
//!
//! ## Paper map
//!
//! | module | implements |
//! |--------|------------|
//! | [`run_basic`] / [`run_centralized`] | §2, Figure 1: the growing phase, centralized reference |
//! | [`opt::shrink_back`](opt) | §3.1, Theorem 3.1 |
//! | [`opt::asymmetric`](opt) | §3.2, Theorem 3.2 (requires `α ≤ 2π/3`) |
//! | [`opt::pairwise`](opt) | §3.3, Theorem 3.6 |
//! | [`protocol`] | Figure 1 as a distributed message-passing protocol |
//! | [`reconfig`] | §4: NDP beacons and the `join`/`leave`/`aChange` rules (driven at scale by `cbtc_workloads::churn`) |
//! | [`reconfig::DeltaTopology`] | §4 centralized mirror: a maintained `CBTC(α)` run under death/join/move streams, generic over a [`reconfig::LinkMetric`] (ideal or phy effective distance), affected sets from the reverse discovery relation, grid-free cached-prefix replay when no α-gap opens |
//! | [`reconfig::routing`] | scaling infrastructure: which cached shortest-path trees, complete or partial, a topology delta can invalidate (the lifetime engine's keep rules) |
//! | [`theory`] | Lemma 2.2 / Corollary 2.3 / redundancy, as executable predicates |
//! | [`construct`] = [`optimize`] ∘ [`grow`] | the one construction engine, generic over a [`reconfig::LinkMetric`], an alive mask and the pairwise connectivity guard; every from-scratch construction in the workspace is a call into it |
//! | [`run_basic_brute`] | the independent oracle (no paper analogue): all-pairs growth, pushed through the plain [`opt`] stages it is the reference the output-sensitive engine is validated against |
//! | [`run_centralized_masked`] / `grow(.., Some(alive))` | §4 at scale: survivor re-runs over an alive mask, no sub-network allocation |
//! | [`parallel`] | scaling infrastructure: scoped-thread fan-out of the per-node growing phase, with per-worker scratch state and an adaptive work-stealing chunker |
//! | [`grow_node_metric_scratch`] / [`GrowScratch`] | §2's growing phase as an allocation-free kernel: output-sensitive shell-scan growth with one reusable heap/ring/gap-tracker/discovery buffer set per worker |
//! | [`phy`] | beyond the paper: the same construction over a stochastic channel (per-link gains → effective distances), bit-identical to the ideal path when every gain is 1 |
//! | [`phy::AckGatedChannel`] / [`phy::run_phy_gated_centralized`] | §2's measurement assumption made honest off the ideal channel: the link cost a *distributed* measured-power node can learn (forward effective distance, gated on the reply closing at max power) — the centralized reference the measured-pricing differential oracle tests against |
//!
//! # Example
//!
//! ```
//! use cbtc_core::{run_centralized, CbtcConfig, Network};
//! use cbtc_geom::{Alpha, Point2};
//! use cbtc_graph::Layout;
//!
//! // A small network: four nodes in a line, 400 apart, radio range 500.
//! let layout = Layout::new(vec![
//!     Point2::new(0.0, 0.0),
//!     Point2::new(400.0, 0.0),
//!     Point2::new(800.0, 0.0),
//!     Point2::new(1200.0, 0.0),
//! ]);
//! let network = Network::with_paper_radio(layout);
//!
//! let run = run_centralized(&network, &CbtcConfig::new(Alpha::FIVE_PI_SIXTHS));
//! assert!(run.preserves_connectivity_of(&network.max_power_graph()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod centralized;
mod config;
mod error;
mod network;
mod view;

pub mod opt;
pub mod parallel;
pub mod phy;
pub mod protocol;
pub mod reconfig;
pub mod theory;

pub use centralized::{
    construct, construction_cell, construction_index, dead_view, grow, grow_node_metric_scratch,
    optimize, run_basic, run_basic_brute, run_centralized, run_centralized_masked, CbtcRun,
    ConstructionIndex, GrowScratch, PAR_MIN_CHUNK,
};
pub use config::CbtcConfig;
pub use error::CbtcError;
pub use network::Network;
pub use view::{BasicOutcome, Discovery, NodeView};
