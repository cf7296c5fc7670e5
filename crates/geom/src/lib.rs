//! # cbtc-geom
//!
//! 2-D computational geometry substrate for the cone-based topology control
//! (CBTC) algorithm of Li, Halpern, Bahl, Wang and Wattenhofer (PODC 2001).
//!
//! This crate provides everything geometric that the algorithm and its
//! analysis rely on:
//!
//! * [`Point2`] / [`Vec2`] — planar points and displacement vectors;
//! * [`Angle`] — an angle normalized to `[0, 2π)` with circular arithmetic;
//! * [`Alpha`] — the validated cone-degree parameter `α ∈ (0, 2π]`, with the
//!   paper's two distinguished values [`Alpha::FIVE_PI_SIXTHS`] and
//!   [`Alpha::TWO_PI_THIRDS`];
//! * [`Cone`] — the cone `cone(u, α, v)` of degree `α` bisected by the ray
//!   from `u` through `v` (Lemma 2.2's central object);
//! * [`gap`] — the α-gap test over direction sets, the predicate that drives
//!   the CBTC growing phase (batch, and incremental via the flat
//!   allocation-free [`gap::FlatGapTracker`]);
//! * [`coverage`] — the angular coverage operator `coverα(dir)` used by the
//!   shrink-back optimization (§3.1);
//! * [`circle`] — circle intersection, used by the Theorem 2.4 lower-bound
//!   construction;
//! * [`triangle`] — triangle-angle helpers mirroring the side/angle facts the
//!   proofs invoke;
//! * [`constructions`] — the paper's exact point sets: Example 2.1
//!   (asymmetry of `N_α`) and Theorem 2.4 (disconnection for `α > 5π/6`).
//!
//! # Paper map
//!
//! | module | implements |
//! |--------|------------|
//! | [`Point2`], [`Angle`] | §1 problem statement: nodes in the plane, `dir_u(v)` |
//! | [`Alpha`] | the parameter `α` with the §2 (5π/6) and §3.2 (2π/3) thresholds |
//! | [`cone`], [`triangle`], [`circle`] | the geometric objects of the §2 proofs (Lemma 2.2, Theorem 2.4) |
//! | [`gap`] | the α-gap termination test of Figure 1 (batch, and the flat O(1)-per-insert [`gap::FlatGapTracker`] the construction hot loop runs) |
//! | [`coverage`] | `coverα(dir)` of §3.1 (shrink-back) |
//! | [`constructions`] | Example 2.1 / Figure 2 and Theorem 2.4 / Figure 5 |
//!
//! # Example
//!
//! ```
//! use cbtc_geom::{Angle, Alpha, gap::has_alpha_gap};
//!
//! // Three directions 2π/3 apart leave no gap larger than 2π/3 …
//! let dirs = [Angle::ZERO, Angle::new(2.0943951023931953), Angle::new(4.1887902047863905)];
//! assert!(!has_alpha_gap(&dirs, Alpha::TWO_PI_THIRDS));
//! // … but any two of them leave a gap larger than 5π/6.
//! assert!(has_alpha_gap(&dirs[..2], Alpha::FIVE_PI_SIXTHS));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alpha;
mod angle;
mod point;

pub mod circle;
pub mod cone;
pub mod constructions;
pub mod coverage;
pub mod gap;
pub mod triangle;

pub use alpha::{Alpha, InvalidAlphaError};
pub use angle::Angle;
pub use cone::Cone;
pub use point::{Point2, Vec2};

/// Crate-wide absolute tolerance for comparisons between derived floating
/// point quantities (arc endpoints, squared distances after subtraction).
///
/// Raw coordinates and angles are compared exactly; the tolerance is applied
/// only where values have been produced by chains of arithmetic and exact
/// equality would be brittle.
pub const EPS: f64 = 1e-9;
