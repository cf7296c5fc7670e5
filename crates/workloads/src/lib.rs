//! # cbtc-workloads
//!
//! Scenario generators for CBTC experiments.
//!
//! The paper's evaluation (§5) uses *"100 random networks, each with 100
//! nodes … randomly placed in a 1500 × 1500 rectangular region. Each node
//! has a maximum transmission radius of 500."* That setup is
//! [`Scenario::paper_default`]; [`RandomPlacement`] realizes it for any
//! seed. Clustered and jittered-grid placements cover the dense/sparse
//! regimes the paper's introduction motivates, and [`RandomWaypoint`]
//! supplies the mobility for §4 reconfiguration experiments.
//!
//! All generators are deterministic in their seed.
//!
//! # Paper map
//!
//! | item | implements |
//! |------|------------|
//! | [`Scenario`], [`RandomPlacement`] | §5's experimental setup (100 × 100 nodes, 1500², R = 500) |
//! | [`GridPlacement`], [`ClusteredPlacement`] | the dense/sparse regimes §1 motivates, beyond §5 |
//! | [`RandomWaypoint`] | the motion model for §4 reconfiguration experiments |
//! | [`churn`] | the §4 protocol *measured* under sustained mobility, joins and crashes at 10k+ nodes, judged against a centralized `G_α` that one `DeltaTopology` maintains (`cbtc churn`, [`run_churn`]) |
//! | [`service`] | the §4 maintenance loop served as a sharded stream, group-committed in batches of up to `batch_max`, with throughput and latency percentiles (`cbtc serve`, [`run_service`]) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clustered;
mod grid;
mod mobility;
mod random;
mod scenario;

pub mod churn;
pub mod phy;
pub mod service;

pub use churn::{run_churn, ChurnReport, ChurnScenario};
pub use clustered::ClusteredPlacement;
pub use grid::GridPlacement;
pub use mobility::RandomWaypoint;
pub use phy::{phy_construction_probe, phy_protocol_probe, PhyConstructionStats, PhyProtocolStats};
pub use random::RandomPlacement;
pub use scenario::Scenario;
pub use service::{run_service, stream_plan, ServiceConfig, ServiceReport, StreamReport};
