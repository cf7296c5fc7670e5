//! Network lifetime over the stochastic physical layer.
//!
//! Couples the phy construction (`cbtc_core::phy`) and link model
//! (`cbtc-phy`) into the lifetime engine through the
//! [`TopologyBuilder`]/[`LinkReliability`] seam:
//!
//! * [`PhyPolicy`] — a [`TopologyPolicy`] executed over a shadowed
//!   channel: max power becomes the *symmetric reach graph* (both
//!   directions must close), CBTC runs on effective distances with the
//!   connectivity-guarded optimization pipeline;
//! * [`PhyLinks`] — expected ARQ attempts per link from the PRR at the
//!   hop's transmission power: lossy links charge retransmission energy
//!   to both endpoints and weigh more in minimum-energy routing;
//! * [`phy_lifetime_experiment`] — the multi-seed experiment runner.
//!
//! With [`PhyProfile::ideal`] every gain is the literal `1.0` and every
//! attempt count the literal `1.0`, so this path reproduces
//! [`crate::lifetime_experiment`] **bit for bit** — the equivalence the
//! phy benchmark's σ = 0 column demonstrates and the property tests
//! assert.

use cbtc_core::phy::{phy_reach_graph, phy_reach_graph_where, AckGatedChannel, PhyChannel};
use cbtc_core::reconfig::{DeltaTopology, LinkMetric};
use cbtc_core::{construct, grow, optimize, CbtcConfig, Network};
use cbtc_graph::{NodeId, UndirectedGraph};
use cbtc_phy::{PhyProfile, PrrCurve, Shadowing};
use cbtc_radio::{DirectionSensor, LinkGain, PathLoss, Power, PowerBasis, PowerLaw, Prr};
use cbtc_workloads::{RandomPlacement, Scenario};

use crate::builder::SurvivorTracker;
use crate::incremental::MetricSurvivorTopology;
use crate::runner::run_trials_with;
use crate::{
    aggregate, LifetimeAggregate, LifetimeConfig, LifetimeSim, LinkReliability, TopologyBuilder,
    TopologyPolicy,
};

/// The lowest delivery probability a kept link is priced at: a link worse
/// than this would cost 1000+ attempts per packet, which in practice
/// means the topology should not contain it at all; the cap keeps drains
/// finite when it does.
const MIN_LINK_PRR: f64 = 1e-3;

/// A [`TopologyPolicy`] executed over the stochastic channel of a
/// [`PhyProfile`].
///
/// The angle-of-arrival sensor is seeded from the profile, so builds are
/// reproducible at any thread count. The builder prices its own links
/// ([`PhyLinks`] on the same profile). Under [`PowerBasis::Measured`]
/// the CBTC construction is *feedback-gated*
/// ([`cbtc_core::phy::AckGatedChannel`]): a link only enters the
/// topology if its reverse direction closes at maximum power, because
/// that is the only way the §2 measurement can ever reach the asker. On
/// the ideal channel the gate never fires, preserving bit-identity with
/// the geometric construction.
#[derive(Debug, Clone, Copy)]
pub struct PhyPolicy {
    /// The underlying construction rule.
    pub policy: TopologyPolicy,
    /// The channel it runs over.
    pub profile: PhyProfile,
}

impl PhyPolicy {
    /// Builds the topology over the surviving subset of `network` from
    /// scratch, for a run priced on `basis`: the oracle the maintained
    /// survivor tracker equals at every alive mask.
    ///
    /// # Panics
    ///
    /// Panics if `alive.len()` differs from the network size.
    pub fn build_on_survivors(
        &self,
        network: &Network,
        basis: PowerBasis,
        alive: &[bool],
    ) -> UndirectedGraph {
        assert_eq!(alive.len(), network.len(), "alive mask size mismatch");
        let shadowing = self.profile.shadowing();
        let channel =
            PhyChannel::new(network.model(), &shadowing).with_sensor(self.profile.sensor());
        match self.policy {
            TopologyPolicy::MaxPower => {
                phy_reach_graph_where(network, &channel, |u| alive[u.index()])
            }
            TopologyPolicy::Cbtc(config) => cbtc(network, &channel, &config, basis, Some(alive)),
        }
    }
}

/// The guarded CBTC construction over a phy channel, on the whole network
/// or an alive mask. Under measured pricing the growth is feedback-gated
/// and pairwise removal is priced on the plain channel, as in
/// [`cbtc_core::phy::run_phy_gated_centralized`].
fn cbtc(
    network: &Network,
    channel: &PhyChannel<'_>,
    config: &CbtcConfig,
    basis: PowerBasis,
    alive: Option<&[bool]>,
) -> UndirectedGraph {
    let run = match basis {
        PowerBasis::Geometric => construct(network, channel, config, alive, true),
        PowerBasis::Measured => {
            let gated = AckGatedChannel::new(channel, network.max_range());
            let basic = grow(network, &gated, config.alpha(), alive);
            optimize(network, channel, config, basic, true)
        }
    };
    run.into_final_graph()
}

impl TopologyBuilder for PhyPolicy {
    fn build(&self, network: &Network, basis: PowerBasis) -> UndirectedGraph {
        let shadowing = self.profile.shadowing();
        let channel =
            PhyChannel::new(network.model(), &shadowing).with_sensor(self.profile.sensor());
        match self.policy {
            TopologyPolicy::MaxPower => phy_reach_graph(network, &channel),
            TopologyPolicy::Cbtc(config) => cbtc(network, &channel, &config, basis, None),
        }
    }

    fn survivor_tracker(&self, network: &Network, basis: PowerBasis) -> Box<dyn SurvivorTracker> {
        Box::new(phy_survivor_topology(network, *self, basis))
    }

    fn reliability(&self, network: &Network) -> Box<dyn LinkReliability> {
        Box::new(PhyLinks::new(*network.model(), &self.profile))
    }

    fn power_controlled(&self) -> bool {
        self.policy.power_controlled()
    }

    fn label(&self) -> String {
        // Deliberately the underlying policy's label: phy parameters are
        // reported alongside, and the σ = 0 ideal check compares output
        // documents field-for-field against the ideal-radio benchmark.
        self.policy.label()
    }
}

/// An owning [`LinkMetric`] over a [`PhyProfile`]'s frozen channel: the
/// effective distance `d·g^(−1/n)` with the profile's angle-of-arrival
/// sensor. Every call constructs the borrowing [`PhyChannel`] on the
/// spot, so the arithmetic is *the same code* the from-scratch
/// [`PhyPolicy::build_on_survivors`] runs — bit-identity by
/// construction.
#[derive(Debug, Clone)]
struct PhyMetric {
    model: PowerLaw,
    shadowing: Shadowing,
    sensor: DirectionSensor,
    /// `Some(max_range)` under measured pricing: costs go through
    /// [`AckGatedChannel`], so the incremental survivor topology
    /// maintains exactly the graph the gated survivor rebuild produces.
    /// `None` leaves the ungated arithmetic untouched.
    gate: Option<f64>,
}

impl PhyMetric {
    fn channel(&self) -> PhyChannel<'_> {
        PhyChannel::new(&self.model, &self.shadowing).with_sensor(self.sensor)
    }
}

impl LinkMetric for PhyMetric {
    fn cost(&self, u: NodeId, v: NodeId, d: f64) -> f64 {
        let channel = self.channel();
        match self.gate {
            Some(max_range) => AckGatedChannel::new(&channel, max_range).cost(u, v, d),
            None => channel.cost(u, v, d),
        }
    }

    fn reach_boost(&self) -> f64 {
        self.channel().reach_boost()
    }

    fn direction(&self, layout: &cbtc_graph::Layout, u: NodeId, v: NodeId) -> cbtc_geom::Angle {
        self.channel().direction(layout, u, v)
    }
}

/// The incrementally maintained phy survivor topology: the same
/// death-only adapter as [`crate::SurvivorTopology`], instantiated on
/// the effective-distance metric with the pairwise connectivity guard
/// (Theorem 3.6's scaffolding does not survive off the unit disk).
/// Edge-for-edge identical to [`PhyPolicy::build_on_survivors`] at
/// every alive mask. Reach is a per-pair predicate, so the max-power
/// variant is the induced-subgraph fast path.
fn phy_survivor_topology(
    network: &Network,
    policy: PhyPolicy,
    basis: PowerBasis,
) -> MetricSurvivorTopology<PhyMetric> {
    let metric = PhyMetric {
        model: *network.model(),
        shadowing: policy.profile.shadowing(),
        sensor: policy.profile.sensor(),
        gate: (basis == PowerBasis::Measured).then(|| network.max_range()),
    };
    match policy.policy {
        TopologyPolicy::MaxPower => {
            let channel = metric.channel();
            MetricSurvivorTopology::induced(phy_reach_graph(network, &channel))
        }
        TopologyPolicy::Cbtc(config) => MetricSurvivorTopology::engine(DeltaTopology::new(
            network.layout().clone(),
            vec![true; network.len()],
            network.max_range(),
            config,
            true,
            metric,
        )),
    }
}

/// Expected ARQ attempts per link under a [`PhyProfile`]'s shadowing and
/// PRR curve.
///
/// Fading is deliberately averaged out (its mean power gain is 1 and the
/// expectation of `1/PRR` over fades has no useful closed form); the
/// discrete-event simulator is where per-packet fades act.
#[derive(Debug, Clone, Copy)]
pub struct PhyLinks {
    model: PowerLaw,
    shadowing: Shadowing,
    prr: PrrCurve,
}

impl PhyLinks {
    /// Prices links for `model` under `profile`'s channel.
    pub fn new(model: PowerLaw, profile: &PhyProfile) -> Self {
        PhyLinks {
            model,
            shadowing: profile.shadowing(),
            prr: profile.prr,
        }
    }
}

impl LinkReliability for PhyLinks {
    fn attempts(&self, u: NodeId, v: NodeId, tx_power: Power, distance: f64) -> f64 {
        let required = self.model.required_power(distance).linear();
        let gain = self.shadowing.link_gain(u.raw() as u64, v.raw() as u64);
        let p = self
            .prr
            .delivery_probability(tx_power.linear() * gain, required);
        if p >= 1.0 {
            1.0
        } else {
            1.0 / p.max(MIN_LINK_PRR)
        }
    }

    fn priced_distance(&self, u: NodeId, v: NodeId, distance: f64) -> f64 {
        // `PhyChannel::effective_distance` on the same frozen gains: the
        // literal geometric distance when the gain is exactly 1 (the ideal
        // channel), so measured pricing over σ = 0 is bit-identical to
        // geometric pricing.
        PhyChannel::new(&self.model, &self.shadowing).effective_distance(u, v, distance)
    }
}

/// Runs a lifetime experiment through the phy pipeline: every policy is
/// executed as a [`PhyPolicy`] with [`PhyLinks`] retransmission pricing,
/// over the scenario's random networks. The shadowing field is re-frozen
/// per trial (`profile.seed ^ trial seed`), mirroring how trials draw
/// fresh layouts.
///
/// With [`PhyProfile::ideal`] the results are bit-for-bit those of
/// [`crate::lifetime_experiment`] with the same inputs.
pub fn phy_lifetime_experiment(
    scenario: &Scenario,
    policies: &[TopologyPolicy],
    profile: PhyProfile,
    config: LifetimeConfig,
    base_seed: u64,
) -> Vec<LifetimeAggregate> {
    let generator = RandomPlacement::from_scenario(scenario);
    let seeds: Vec<u64> = scenario.seeds(base_seed).collect();
    policies
        .iter()
        .map(|&policy| {
            let reports = run_trials_with(
                |seed| generator.generate(seed),
                |network, seed| {
                    let profile = profile.with_seed(profile.seed ^ seed);
                    LifetimeSim::with_builder(network, &PhyPolicy { policy, profile }, config, seed)
                },
                &seeds,
            );
            aggregate(&reports)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime_experiment;
    use cbtc_core::CbtcConfig;
    use cbtc_geom::Alpha;

    fn tiny_scenario() -> Scenario {
        let mut s = Scenario::smoke();
        s.trials = 3;
        s
    }

    fn policies() -> Vec<TopologyPolicy> {
        vec![
            TopologyPolicy::MaxPower,
            TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS)),
            TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS)),
        ]
    }

    #[test]
    fn ideal_profile_reproduces_the_ideal_experiment_bitwise() {
        let scenario = tiny_scenario();
        let config = LifetimeConfig::smoke();
        let ideal = lifetime_experiment(&scenario, &policies(), config, 7);
        let phy = phy_lifetime_experiment(&scenario, &policies(), PhyProfile::ideal(), config, 7);
        assert_eq!(ideal, phy, "σ = 0 / PRR = 1 must be bit-identical");
    }

    #[test]
    fn shadowing_changes_lifetimes_deterministically() {
        let scenario = tiny_scenario();
        let config = LifetimeConfig::smoke();
        let profile = PhyProfile::shadowed(6.0, 3);
        let a = phy_lifetime_experiment(&scenario, &policies()[..2], profile, config, 7);
        let b = phy_lifetime_experiment(&scenario, &policies()[..2], profile, config, 7);
        assert_eq!(a, b, "phy experiments must replay");
        let ideal = lifetime_experiment(&scenario, &policies()[..2], config, 7);
        assert_ne!(a, ideal, "6 dB shadowing must move the statistics");
    }

    #[test]
    fn soft_prr_charges_retransmission_energy() {
        // A fixed 3-node chain (one possible route): with the soft PRR
        // curve every 400-unit hop sits ~2 dB above sensitivity, so its
        // expected attempts exceed 1 and the tx ledger must grow versus
        // the hard-threshold channel on identical traffic.
        use cbtc_geom::Point2;
        use cbtc_graph::Layout;
        let network = Network::with_paper_radio(Layout::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(400.0, 0.0),
            Point2::new(800.0, 0.0),
        ]));
        let mut config = LifetimeConfig::smoke();
        config.max_epochs = 40;
        let run = |prr: cbtc_phy::PrrCurve| {
            let mut profile = PhyProfile::ideal();
            profile.prr = prr;
            let policy = TopologyPolicy::MaxPower;
            LifetimeSim::with_builder(network.clone(), &PhyPolicy { policy, profile }, config, 5)
                .run()
        };
        let hard = run(cbtc_phy::PrrCurve::Perfect);
        let soft = run(cbtc_phy::PrrCurve::paper_transition());
        // Retransmissions drain batteries faster, so the lossy channel
        // cannot outlive or out-deliver the hard-threshold one, and each
        // delivered packet costs measurably more tx/rx energy.
        assert!(soft.first_death_or_censored() <= hard.first_death_or_censored());
        assert!(soft.delivered <= hard.delivered);
        assert!(soft.delivered > 0);
        let per = |r: &crate::LifetimeReport| {
            (
                r.ledger.tx / r.delivered as f64,
                r.ledger.rx / r.delivered as f64,
            )
        };
        let (hard_tx, hard_rx) = per(&hard);
        let (soft_tx, soft_rx) = per(&soft);
        assert!(
            soft_tx > hard_tx * 1.05,
            "tx per delivered packet: soft {soft_tx} vs hard {hard_tx}"
        );
        assert!(soft_rx > hard_rx * 1.05);
    }

    #[test]
    fn phy_links_price_marginal_links_higher() {
        let model = PowerLaw::paper_default();
        let mut profile = PhyProfile::ideal();
        profile.prr = cbtc_phy::PrrCurve::paper_transition();
        let links = PhyLinks::new(model, &profile);
        let u = NodeId::new(0);
        let v = NodeId::new(1);
        // Plenty of margin: one attempt.
        let strong = links.attempts(u, v, model.max_power(), 100.0);
        // Exactly at sensitivity: the logistic gives PRR 0.5 → 2 attempts.
        let marginal = links.attempts(u, v, model.required_power(400.0), 400.0);
        assert_eq!(strong, 1.0);
        assert!((marginal - 2.0).abs() < 1e-9, "marginal = {marginal}");
        // And the cap holds for hopeless links.
        let hopeless = links.attempts(u, v, Power::new(1.0), 499.0);
        assert!(hopeless <= 1.0 / MIN_LINK_PRR);
    }
}
