//! Link metrics: what "distance" means to the construction.
//!
//! Sethu & Gerety (arXiv:0709.0961) argue that topology control must be
//! stated over the *measured* cost of closing a link, not the geometric
//! distance — under real propagation the two diverge. Everything CBTC
//! does with a distance (discovery order, grow radii, shrink-back tags,
//! pairwise edge IDs) only needs a scalar per directed link that is
//! monotone in required transmission power. [`LinkMetric`] is that
//! scalar, abstracted: the ideal radio measures geometric distance
//! ([`GeometricMetric`]), a shadowed channel measures the effective
//! distance `d·g^(−1/n)` ([`crate::phy::PhyChannel`] implements this
//! trait), and the incremental [`super::DeltaTopology`] engine is
//! parameterized over it so one maintenance algorithm serves both.

use cbtc_geom::Angle;
use cbtc_graph::{Layout, NodeId};

/// A per-directed-link cost scalar, in units comparable to geometric
/// distance (a link costs `c` iff the ideal radio would need the power
/// that reaches distance `c` to close it).
///
/// Implementations must be deterministic pure functions of `(u, v, d)` —
/// the incremental engine re-derives costs freely and relies on equal
/// inputs giving bit-equal outputs.
pub trait LinkMetric: Sync {
    /// The cost at which `u` reaches `v`, given their geometric distance
    /// `d`. May be asymmetric (`cost(u, v, d) ≠ cost(v, u, d)`).
    fn cost(&self, u: NodeId, v: NodeId, d: f64) -> f64;

    /// The factor by which a geometric search radius must expand so that
    /// every link of cost ≤ `r` lies within geometric distance
    /// `r · reach_boost()`. Exactly `1.0` when cost never undercuts
    /// geometric distance (the ideal radio).
    fn reach_boost(&self) -> f64 {
        1.0
    }

    /// The direction `u` measures for `v` (exact geometry by default;
    /// a stochastic channel may add angle-of-arrival error).
    fn direction(&self, layout: &Layout, u: NodeId, v: NodeId) -> Angle {
        layout.direction(u, v)
    }

    /// A conservative admission screen for one shell ring: candidates
    /// `v` at geometric distance at least `ring_min` from `u`, to be
    /// admitted only at cost ≤ `max_range`. The growing kernel asks for
    /// it once per ring and skips every candidate for which it returns
    /// `true`.
    ///
    /// The screen must be exact: it may rule out only a candidate whose
    /// [`LinkMetric::cost`] is above `max_range`. It is an admission test
    /// and nothing more — `cost` itself is unchanged, and callers that
    /// read costs above the range still get them. `None` — the default,
    /// and what the geometric metric and the ideal channel return — sends
    /// every candidate down the exact path.
    ///
    /// The shadowed channels of [`crate::phy`] screen by gain: admission
    /// at distance `d ≥ ρ` needs `g ≥ (ρ/R)ⁿ` in every priced direction
    /// (for the ack gate, the reverse one against the gate's own range),
    /// with `ρ = ring_min·(1 − 10⁻⁹)` absorbing the rounding of cell
    /// assignment, of `d` and of the floor's `powf`; the gain field rules
    /// out links below that floor by its own margins
    /// ([`cbtc_radio::LinkGain::gain_screen`]). A floor of at most 1 — a
    /// ring the range already reaches — gets no screen.
    fn admission_screen(
        &self,
        ring_min: f64,
        max_range: f64,
    ) -> Option<impl Fn(NodeId, NodeId) -> bool + '_> {
        let _ = (ring_min, max_range);
        None::<fn(NodeId, NodeId) -> bool>
    }
}

/// The ideal radio's metric: cost *is* geometric distance, returned
/// literally (no arithmetic), so every pipeline built on it is
/// bit-identical to one that reads `layout.distance` directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeometricMetric;

impl LinkMetric for GeometricMetric {
    fn cost(&self, _u: NodeId, _v: NodeId, d: f64) -> f64 {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtc_geom::Point2;

    #[test]
    fn geometric_metric_is_the_identity() {
        let m = GeometricMetric;
        assert_eq!(m.cost(NodeId::new(0), NodeId::new(1), 123.456), 123.456);
        assert_eq!(m.reach_boost(), 1.0);
        let layout = Layout::new(vec![Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)]);
        assert_eq!(
            m.direction(&layout, NodeId::new(0), NodeId::new(1)),
            layout.direction(NodeId::new(0), NodeId::new(1))
        );
    }
}
