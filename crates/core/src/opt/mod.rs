//! The three optimizations of §3, each proved connectivity-preserving in
//! the paper.
//!
//! | op  | name                    | theorem | precondition |
//! |-----|-------------------------|---------|--------------|
//! | op1 | shrink-back             | 3.1     | —            |
//! | op2 | asymmetric edge removal | 3.2     | `α ≤ 2π/3`   |
//! | op3 | pairwise edge removal   | 3.6     | `α ≤ 5π/6`   |

mod asymmetric;
mod pairwise;
mod shrink_back;

pub use asymmetric::asymmetric_removal;
pub use pairwise::{
    edge_id, pairwise_removal, pairwise_removal_with, redundant_edges, EdgeId, PairwiseOutcome,
    PairwisePolicy,
};
pub(crate) use pairwise::{PairwiseScratch, PairwiseState};
pub(crate) use shrink_back::shrink_back_views;
pub use shrink_back::{shrink_back, shrink_back_view};
