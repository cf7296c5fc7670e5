//! `CBTC(α)` over a stochastic channel: the growing phase and the §3
//! optimization pipeline with per-link gains.
//!
//! The centralized reference ([`crate::run_basic`]) grows each node
//! through its neighbors in order of *distance*, because under the ideal
//! radio `p(d) = S·dⁿ` the power needed to close a link is monotone in
//! distance. Under a shadowed channel the link `u → v` closes at power
//! `S·d̂ⁿ / g(u→v)` for a frozen per-link gain `g` — still a scalar per
//! directed link, so the entire construction generalizes by replacing
//! every distance with the **effective distance**
//!
//! ```text
//! d_eff(u → v) = d̂(u, v) · g(u → v)^(-1/n)      (d̂ = near-field-clamped d)
//! ```
//!
//! the distance at which the *ideal* radio would charge the same power.
//! Discovery order, the α-gap test, grow radii, shrink-back and the
//! symmetric core/closure all read effective distances; the geometry
//! (directions) is untouched apart from optional angle-of-arrival error.
//! With every gain exactly `1.0` the effective distance *is* the
//! geometric distance, and this pipeline is **bit-identical** to
//! [`crate::run_centralized`] — the workspace property tests pin that
//! down.
//!
//! With independently drawn per-direction gains, `d_eff(u → v) ≠
//! d_eff(v → u)`: links are genuinely asymmetric, a node may hear a
//! neighbor it cannot reach back, and the §3.2 asymmetric-edge-removal
//! guarantee is exercised off the unit disk — the regime the `cbtc phy`
//! workload measures.
//!
//! ## The pairwise-removal connectivity guard
//!
//! Theorem 3.6's proof that *all* redundant edges can go at once leans on
//! the unit-disk structure of `G_α` (short edges are present, Corollary
//! 2.3). Off the unit disk that scaffolding is gone, so phy
//! constructions run the engine with `guard` set ([`crate::optimize`]):
//! any removed edge that still bridges two components of the pruned
//! graph is restored (a union-find pass over the removal list). On an
//! ideal channel the theorem holds and the guard provably restores
//! nothing, preserving bit-identity; off it, the restored count
//! ([`crate::CbtcRun::pairwise_restored`]) is itself a measurement of how
//! often §3.3 would have broken connectivity.
//!
//! A phy construction is `construct(network, &channel, config, alive,
//! true)`; the measured-power reference grows on [`AckGatedChannel`]
//! ([`run_phy_gated_basic`]) and prices pairwise removal on the plain
//! channel ([`optimize_phy`]).

use cbtc_geom::Alpha;
use cbtc_graph::{DirectedGraph, NodeId, RingIndex, UndirectedGraph};
use cbtc_radio::{DirectionSensor, GainScreen, LinkGain, PowerLaw};

use crate::centralized::construction_index;
use crate::reconfig::LinkMetric;
use crate::view::BasicOutcome;
use crate::{grow, optimize, CbtcConfig, CbtcRun, Network};

/// Relative slack a channel takes off a ring's distance floor before it
/// screens the ring: it absorbs the rounding of cell assignment, of the
/// candidate's distance and of the gain floor's `powf`, so a screened
/// link's cost clears the range by about this much.
const RING_SLACK: f64 = 1e-9;

/// The stochastic channel a phy construction runs against: the
/// deterministic path-loss model plus a frozen link-gain field and an
/// angle-of-arrival sensor.
#[derive(Debug, Clone, Copy)]
pub struct PhyChannel<'a> {
    model: &'a PowerLaw,
    gain: &'a (dyn LinkGain + Sync),
    sensor: DirectionSensor,
}

impl<'a> PhyChannel<'a> {
    /// Wraps a path-loss model and a gain field, with exact direction
    /// sensing.
    pub fn new(model: &'a PowerLaw, gain: &'a (dyn LinkGain + Sync)) -> Self {
        PhyChannel {
            model,
            gain,
            sensor: DirectionSensor::exact(),
        }
    }

    /// Replaces the angle-of-arrival sensor (default: exact).
    pub fn with_sensor(mut self, sensor: DirectionSensor) -> Self {
        self.sensor = sensor;
        self
    }

    /// The gain field.
    pub fn gain(&self) -> &dyn LinkGain {
        self.gain
    }

    /// The effective distance of the directed link `u → v` whose
    /// geometric distance is `d`: the distance at which the ideal radio
    /// would charge the power this link actually needs.
    ///
    /// Exactly `d` when the link's gain is exactly `1.0`, so an ideal
    /// gain field reproduces the geometric construction bit for bit.
    pub fn effective_distance(&self, u: NodeId, v: NodeId, d: f64) -> f64 {
        let g = self.gain.link_gain(u.raw() as u64, v.raw() as u64);
        if g == 1.0 {
            d
        } else {
            d.max(1.0) * g.powf(-1.0 / self.model.exponent())
        }
    }

    /// The gain field's screen for links at geometric distance at least
    /// `ring_min` that must close within effective distance `range`:
    /// `d·g^(−1/n) ≤ range` needs `g ≥ (d/range)ⁿ ≥ (ρ/range)ⁿ`, with ρ
    /// the ring floor less [`RING_SLACK`]. `None` when the field has no
    /// screen for that floor — as for a ring the range already reaches
    /// (ρ ≤ range, a floor of at most 1).
    fn gain_screen(&self, ring_min: f64, range: f64) -> Option<GainScreen> {
        let rho = ring_min * (1.0 - RING_SLACK);
        self.gain
            .gain_screen((rho / range).powf(self.model.exponent()))
    }

    /// Whether `screen` rules out the gain of the directed link `u → v`.
    fn screens_out(&self, screen: GainScreen, u: NodeId, v: NodeId) -> bool {
        self.gain
            .screens_out(screen, u.raw() as u64, v.raw() as u64)
    }
}

/// A [`PhyChannel`] *is* a [`LinkMetric`]: cost is the effective distance
/// `d·g^(−1/n)`, reach boost is `max_gain^(1/n)`, and directions carry
/// the configured angle-of-arrival error. This is the seam through which
/// the incremental [`crate::reconfig::DeltaTopology`] engine runs the
/// same maintenance algorithm over the stochastic channel that it runs
/// over the ideal radio.
impl LinkMetric for PhyChannel<'_> {
    fn cost(&self, u: NodeId, v: NodeId, d: f64) -> f64 {
        self.effective_distance(u, v, d)
    }

    fn reach_boost(&self) -> f64 {
        let g = self.gain.max_gain();
        if g == 1.0 {
            1.0
        } else {
            g.powf(1.0 / self.model.exponent())
        }
    }

    /// The direction `u` measures for `v`, with sensor error. The exact
    /// sensor adds literally nothing (not even `+ 0.0`), preserving
    /// bit-identity with the geometric pipeline.
    fn direction(&self, layout: &cbtc_graph::Layout, u: NodeId, v: NodeId) -> cbtc_geom::Angle {
        let true_bearing = layout.direction(u, v);
        let e = self.sensor.perturbation(u.raw() as u64, v.raw() as u64);
        if e == 0.0 {
            true_bearing
        } else {
            true_bearing.rotated(e)
        }
    }

    /// Screens the forward gain `u → v` against the floor `(ρ/R)ⁿ` (see
    /// [`LinkGain::gain_screen`] for the field's own margins): a link it
    /// rules out has `d_eff(u → v) > R`. No screen for rings within
    /// reach of every gain, and none from fields without one (σ = 0,
    /// [`cbtc_radio::IdealGain`]).
    fn admission_screen(
        &self,
        ring_min: f64,
        max_range: f64,
    ) -> Option<impl Fn(NodeId, NodeId) -> bool + '_> {
        let screen = self.gain_screen(ring_min, max_range)?;
        Some(move |u, v| self.screens_out(screen, u, v))
    }
}

/// The feedback-gated effective-distance metric: what a *distributed*
/// measured-power node can actually learn about its links.
///
/// The §2 measurement assumption lets `v` estimate the forward cost
/// `d_eff(u → v)` from a received Hello — but that estimate only reaches
/// `u` if `v`'s reply crosses the *reverse* channel, and the best any
/// reply can do is maximum power, which closes the reverse link iff
/// `d_eff(v → u) ≤ R`. So the link cost the distributed protocol
/// discovers is the forward effective distance *gated on reverse
/// reachability*:
///
/// ```text
/// cost(u → v) = d_eff(u → v)   if d_eff(v → u) ≤ R
///               ∞              otherwise (no feedback can ever arrive)
/// ```
///
/// Under reciprocal shadowing the gate never fires for any discoverable
/// link (`d_eff(v → u) = d_eff(u → v) ≤ grow radius ≤ R`), so this
/// metric coincides with the plain [`PhyChannel`]; under per-direction
/// gains it is the honest centralized reference for the distributed
/// measured-power protocol, which the differential oracle tests compare
/// against.
#[derive(Debug, Clone, Copy)]
pub struct AckGatedChannel<'a> {
    channel: &'a PhyChannel<'a>,
    max_range: f64,
}

impl<'a> AckGatedChannel<'a> {
    /// Gates `channel` on reverse reachability at maximum power, i.e. at
    /// effective distance `max_range`.
    pub fn new(channel: &'a PhyChannel<'a>, max_range: f64) -> Self {
        AckGatedChannel { channel, max_range }
    }
}

impl LinkMetric for AckGatedChannel<'_> {
    fn cost(&self, u: NodeId, v: NodeId, d: f64) -> f64 {
        if self.channel.effective_distance(v, u, d) <= self.max_range {
            self.channel.effective_distance(u, v, d)
        } else {
            f64::INFINITY
        }
    }

    fn reach_boost(&self) -> f64 {
        self.channel.reach_boost()
    }

    fn direction(&self, layout: &cbtc_graph::Layout, u: NodeId, v: NodeId) -> cbtc_geom::Angle {
        LinkMetric::direction(self.channel, layout, u, v)
    }

    /// Screens both directions: the forward gain against the kernel's
    /// `max_range`, as [`PhyChannel`] does, and the reverse gain `v → u`
    /// against the gate's own range — a link ruled out either way costs
    /// more than `max_range` (∞ when the gate shuts).
    fn admission_screen(
        &self,
        ring_min: f64,
        max_range: f64,
    ) -> Option<impl Fn(NodeId, NodeId) -> bool + '_> {
        let channel = self.channel;
        let forward = channel.gain_screen(ring_min, max_range);
        let reverse = channel.gain_screen(ring_min, self.max_range);
        (forward.is_some() || reverse.is_some()).then_some(move |u, v| {
            forward.is_some_and(|s| channel.screens_out(s, u, v))
                || reverse.is_some_and(|s| channel.screens_out(s, v, u))
        })
    }
}

/// The growing phase over the feedback-gated metric of
/// [`AckGatedChannel`]: the centralized reference for the distributed
/// measured-power protocol — [`grow`] on the gated metric. With
/// reciprocal (or ideal) gains, bit-identical to growing on the plain
/// channel.
pub fn run_phy_gated_basic(
    network: &Network,
    channel: &PhyChannel<'_>,
    alpha: Alpha,
) -> BasicOutcome {
    let gated = AckGatedChannel::new(channel, network.max_range());
    grow(network, &gated, alpha, None)
}

/// [`run_phy_gated_basic`] followed by the guarded §3 pipeline
/// ([`optimize_phy`]). Every edge of the symmetric core/closure has both
/// directions closable (`cost` finite both ways), so the ungated
/// effective distances the pipeline prices pairwise removal with agree
/// with the gated ones on every edge it can see.
pub fn run_phy_gated_centralized(
    network: &Network,
    channel: &PhyChannel<'_>,
    config: &CbtcConfig,
) -> CbtcRun {
    optimize_phy(
        network,
        channel,
        config,
        run_phy_gated_basic(network, channel, config.alpha()),
    )
}

/// The §3 optimization pipeline over a phy growing-phase outcome:
/// [`optimize`] on the channel with the connectivity guard — pairwise
/// removal measures edges by *effective* distance (each endpoint's
/// gain-adjusted cost to reach the other, the same metric the growth
/// phase ordered by).
///
/// Public so differential oracles can push a growing-phase outcome
/// obtained elsewhere (e.g. from the distributed protocol's views)
/// through exactly this pipeline.
pub fn optimize_phy(
    network: &Network,
    channel: &PhyChannel<'_>,
    config: &CbtcConfig,
    basic: BasicOutcome,
) -> CbtcRun {
    optimize(network, channel, config, basic, true)
}

/// The reachability digraph of the channel at maximum power: `u → v` iff
/// a max-power transmission from `u` closes the link (`d_eff(u→v) ≤ R`).
/// Asymmetric under per-direction gains.
pub fn phy_reach_digraph(network: &Network, channel: &PhyChannel<'_>) -> DirectedGraph {
    reach_digraph(network, channel, None)
}

/// [`phy_reach_digraph`] over the live nodes only (all of them without a
/// mask): masked-out nodes neither reach nor are reached.
///
/// Each node shell-scans the construction index out to the boosted
/// range, and the channel's forward [`LinkMetric::admission_screen`]
/// rules out, once per ring, candidates that cannot close at maximum
/// power — the rest are priced exactly.
fn reach_digraph(
    network: &Network,
    channel: &PhyChannel<'_>,
    alive: Option<&[bool]>,
) -> DirectedGraph {
    let layout = network.layout();
    let r = network.max_range();
    let index = construction_index(layout, r, alive);
    let scan_radius = r * channel.reach_boost();
    let mut g = DirectedGraph::new(layout.len());
    let mut ring = Vec::new();
    for (u, p) in layout.iter() {
        if alive.is_some_and(|alive| !alive[u.index()]) {
            continue;
        }
        let mut scan = index.shell_scan(p, scan_radius);
        loop {
            let ring_min = scan.guaranteed_radius();
            ring.clear();
            if !scan.scan_next(&mut ring) {
                break;
            }
            let screen = channel.admission_screen(ring_min, r);
            for &v in &ring {
                if v == u
                    || screen
                        .as_ref()
                        .is_some_and(|screened_out| screened_out(u, v))
                {
                    continue;
                }
                if channel.effective_distance(u, v, layout.distance(u, v)) <= r {
                    g.add_edge(u, v);
                }
            }
        }
    }
    g
}

/// The *symmetric* max-power reach graph: `{u, v}` iff both directions
/// close at maximum power — the phy analogue of the paper's `G_R` and the
/// baseline against which phy connectivity preservation is judged
/// (CBTC's guarantee concerns bidirectional links).
pub fn phy_reach_graph(network: &Network, channel: &PhyChannel<'_>) -> UndirectedGraph {
    phy_reach_digraph(network, channel).symmetric_core()
}

/// [`phy_reach_graph`] restricted to the nodes where `keep` holds: edges
/// touch only kept nodes (the phy analogue of
/// [`cbtc_graph::unit_disk::unit_disk_graph_where`], for survivor
/// rebuilds).
pub fn phy_reach_graph_where<F>(
    network: &Network,
    channel: &PhyChannel<'_>,
    keep: F,
) -> UndirectedGraph
where
    F: Fn(NodeId) -> bool,
{
    let alive: Vec<bool> = network.layout().node_ids().map(keep).collect();
    reach_digraph(network, channel, Some(&alive)).symmetric_core()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconfig::GeometricMetric;
    use crate::{construct, run_basic, run_centralized};
    use cbtc_geom::Point2;
    use cbtc_graph::Layout;
    use cbtc_phy::{Shadowing, ShadowingMode};
    use cbtc_radio::IdealGain;

    fn scattered(count: usize, side: f64, seed: u64) -> Network {
        let mut state = seed.max(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        Network::with_paper_radio(Layout::new(
            (0..count)
                .map(|_| Point2::new(next() * side, next() * side))
                .collect(),
        ))
    }

    #[test]
    fn ideal_channel_reproduces_run_basic_bitwise() {
        for seed in [1, 5, 23] {
            let network = scattered(60, 1400.0, seed);
            let channel = PhyChannel::new(network.model(), &IdealGain);
            for alpha in [Alpha::FIVE_PI_SIXTHS, Alpha::TWO_PI_THIRDS] {
                let phy = grow(&network, &channel, alpha, None);
                let ideal = run_basic(&network, alpha);
                assert_eq!(phy.views(), ideal.views(), "seed {seed}, α {alpha}");
                let gated = run_phy_gated_basic(&network, &channel, alpha);
                assert_eq!(gated.views(), ideal.views(), "the ideal gate never fires");
            }
        }
    }

    #[test]
    fn ideal_channel_reproduces_run_centralized_bitwise() {
        for seed in [2, 9] {
            let network = scattered(50, 1200.0, seed);
            let channel = PhyChannel::new(network.model(), &IdealGain);
            for config in [
                CbtcConfig::new(Alpha::FIVE_PI_SIXTHS),
                CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS),
                CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS),
            ] {
                let ideal = run_centralized(&network, &config);
                for phy in [
                    construct(&network, &channel, &config, None, true),
                    run_phy_gated_centralized(&network, &channel, &config),
                ] {
                    assert_eq!(phy.final_graph(), ideal.final_graph(), "seed {seed}");
                    assert_eq!(phy.pairwise_removed(), ideal.pairwise_removed());
                    assert!(phy.pairwise_restored().is_empty(), "guard must be a no-op");
                    assert_eq!(phy.basic().views(), ideal.basic().views());
                }
            }
        }
    }

    #[test]
    fn ideal_masked_matches_run_basic_masked_bitwise() {
        let network = scattered(40, 1000.0, 7);
        let channel = PhyChannel::new(network.model(), &IdealGain);
        let alive: Vec<bool> = (0..network.len()).map(|i| i % 5 != 0).collect();
        let phy = grow(&network, &channel, Alpha::TWO_PI_THIRDS, Some(&alive));
        let ideal = grow(
            &network,
            &GeometricMetric,
            Alpha::TWO_PI_THIRDS,
            Some(&alive),
        );
        assert_eq!(phy.views(), ideal.views());
    }

    #[test]
    fn ideal_reach_graph_is_the_unit_disk() {
        let network = scattered(40, 1200.0, 3);
        let channel = PhyChannel::new(network.model(), &IdealGain);
        let reach = phy_reach_graph(&network, &channel);
        let disk = network.max_power_graph();
        let a: Vec<_> = reach.edges().collect();
        let b: Vec<_> = disk.edges().collect();
        assert_eq!(a, b);
    }

    /// A deterministic asymmetric gain field for tests: u→v is attenuated
    /// when (u+v) is odd in one direction.
    #[derive(Debug)]
    struct Lopsided;
    impl LinkGain for Lopsided {
        fn link_gain(&self, from: u64, to: u64) -> f64 {
            if from < to {
                0.5
            } else {
                1.5
            }
        }
        fn max_gain(&self) -> f64 {
            1.5
        }
    }

    #[test]
    fn asymmetric_gains_produce_asymmetric_reach() {
        let network = Network::with_paper_radio(Layout::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(450.0, 0.0),
        ]));
        let channel = PhyChannel::new(network.model(), &Lopsided);
        let g = phy_reach_digraph(&network, &channel);
        // 0→1 has gain 0.5: d_eff = 450·√2 ≈ 636 > 500, link open.
        // 1→0 has gain 1.5: d_eff = 450/√1.5 ≈ 367 ≤ 500, link closed.
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(g.has_edge(NodeId::new(1), NodeId::new(0)));
        // The symmetric reach graph therefore has no edge.
        assert_eq!(phy_reach_graph(&network, &channel).edge_count(), 0);
    }

    #[test]
    fn only_rings_beyond_the_range_are_screened() {
        let network = scattered(2, 100.0, 1);
        let r = network.max_range();
        let shadowing = Shadowing::new(8.0, ShadowingMode::Independent, 3);
        let channel = PhyChannel::new(network.model(), &shadowing);
        assert!(channel.admission_screen(0.0, r).is_none());
        assert!(channel.admission_screen(r, r).is_none());
        assert!(
            channel.admission_screen(r * (1.0 + 1e-12), r).is_none(),
            "inside the ring slack"
        );
        assert!(channel.admission_screen(1.01 * r, r).is_some());
        // Past the boosted range no gain closes a link.
        let beyond = channel
            .admission_screen(1.01 * r * channel.reach_boost(), r)
            .expect("a ring beyond the range");
        assert!(beyond(NodeId::new(0), NodeId::new(1)));
        // σ = 0 and the ideal field take the exact path at any distance.
        let flat = Shadowing::new(0.0, ShadowingMode::Independent, 3);
        assert!(PhyChannel::new(network.model(), &flat)
            .admission_screen(1e6, r)
            .is_none());
        assert!(PhyChannel::new(network.model(), &IdealGain)
            .admission_screen(1e6, r)
            .is_none());
        // A gate screens as soon as either range is cleared.
        let wide = AckGatedChannel::new(&channel, 2.0 * r);
        assert!(wide.admission_screen(0.9 * r, r).is_none());
        assert!(wide.admission_screen(1.5 * r, r).is_some());
        let narrow = AckGatedChannel::new(&channel, 0.5 * r);
        assert!(narrow.admission_screen(0.9 * r, r).is_some());
    }

    #[test]
    fn effective_distance_is_monotone_in_gain() {
        let network = scattered(2, 100.0, 1);
        let channel = PhyChannel::new(network.model(), &Lopsided);
        let d = 300.0;
        let attenuated = channel.effective_distance(NodeId::new(0), NodeId::new(1), d);
        let boosted = channel.effective_distance(NodeId::new(1), NodeId::new(0), d);
        assert!(attenuated > d, "gain < 1 must push the link out");
        assert!(boosted < d, "gain > 1 must pull the link in");
    }

    #[test]
    fn sensor_error_perturbs_directions_but_stays_deterministic() {
        let network = scattered(30, 900.0, 4);
        let noisy = DirectionSensor::with_error_bound_seeded(0.05, 9);
        let channel = PhyChannel::new(network.model(), &IdealGain).with_sensor(noisy);
        let a = grow(&network, &channel, Alpha::TWO_PI_THIRDS, None);
        let b = grow(&network, &channel, Alpha::TWO_PI_THIRDS, None);
        assert_eq!(a.views(), b.views(), "same sensor seed must replay");
        let exact = run_basic(&network, Alpha::TWO_PI_THIRDS);
        let moved = a
            .views()
            .iter()
            .zip(exact.views())
            .flat_map(|(x, y)| x.discoveries.iter().zip(&y.discoveries))
            .any(|(x, y)| x.direction != y.direction);
        assert!(moved, "bounded error must actually move some bearing");
    }
}
