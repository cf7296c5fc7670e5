//! # cbtc-graph
//!
//! Graph substrate for the CBTC reproduction.
//!
//! The topology-control problem lives on graphs over a fixed node layout:
//! the max-power *unit-disk* graph `G_R`, the directed neighbor relation
//! `N_α` produced by `CBTC(α)`, its symmetric closure `E_α`, symmetric core
//! `E⁻_α`, and the optimized subgraphs. This crate provides those
//! structures and the analyses the paper's evaluation performs on them:
//!
//! * [`NodeId`] / [`Layout`] — node identities and positions;
//! * [`UndirectedGraph`] / [`DirectedGraph`] — adjacency structures with
//!   [`DirectedGraph::symmetric_closure`] (`E_α`) and
//!   [`DirectedGraph::symmetric_core`] (`E⁻_α`);
//! * [`SpatialGrid`] — uniform-grid spatial index making range queries and
//!   `G_R` construction `O(candidates)` instead of `O(n)`/`O(n²)`;
//! * [`unit_disk::unit_disk_graph`] — `G_R` construction (grid-indexed;
//!   [`unit_disk::unit_disk_graph_brute`] is the all-pairs oracle);
//! * [`UnionFind`], [`traversal`], [`connectivity`] — components and the
//!   connectivity-preservation predicate of Theorem 2.1;
//! * [`metrics`] — average degree and average radius (Table 1's columns);
//! * [`paths`] — Dijkstra and power/hop stretch factors vs `G_R`;
//! * [`spanners`] — the related-work baselines the paper cites in §1:
//!   relative neighborhood graph, Gabriel graph, Euclidean MST, k-nearest
//!   neighbors.
//!
//! # Paper map
//!
//! | module | implements |
//! |--------|------------|
//! | [`unit_disk`] | §1: the max-power graph `G_R` |
//! | [`DirectedGraph`] | §2: `N_α`, its closure `E_α` and core `E⁻_α` |
//! | [`connectivity`], [`traversal`] | Theorem 2.1's connectivity-preservation predicate |
//! | [`biconnectivity`] | cut vertices/bridges, for robustness analyses beyond §5 |
//! | [`metrics`] | §5 Table 1: average degree and average radius |
//! | [`paths`], [`load`] | §5: power/hop stretch, route load |
//! | [`spanners`] | §1 related work: RNG, Gabriel, MST, k-NN |
//! | [`spatial`] | scaling infrastructure (no paper analogue): the index that takes `G_R` construction and simulated beaconing to 10⁴–10⁵ nodes; its ring/shell queries ([`RingIndex::shell_scan`], over the hashed [`SpatialGrid`] or the static CSR [`CellList`]) drive the output-sensitive CBTC growing phase |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digraph;
mod graph;
mod layout;
mod node;
mod union_find;

pub mod biconnectivity;
pub mod connectivity;
pub mod load;
pub mod metrics;
pub mod paths;
pub mod spanners;
pub mod spatial;
pub mod traversal;
pub mod unit_disk;

pub use digraph::DirectedGraph;
pub use graph::UndirectedGraph;
pub use layout::Layout;
pub use node::NodeId;
pub use spatial::{CellList, RingIndex, SpatialGrid};
pub use union_find::UnionFind;
