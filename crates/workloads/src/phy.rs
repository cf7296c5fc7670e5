//! The `cbtc-phy` robustness workload: CBTC's structural guarantees
//! measured off the unit disk.
//!
//! Two probes, composed by the CLI (`cbtc phy`) and the `phy` benchmark
//! binary into a shadowing-σ × node-density sweep:
//!
//! * [`phy_construction_probe`] — runs the centralized phy construction
//!   over many random networks at one `(σ, n)` point and reports how
//!   often the final graph (after asymmetric-edge removal) preserves the
//!   connectivity of the *symmetric reach graph* (the phy analogue of
//!   `G_R`), how asymmetric the channel actually was, how often the
//!   pairwise-removal connectivity guard had to intervene, and the power
//!   stretch against the reach graph;
//! * [`phy_protocol_probe`] — runs the *distributed* growing-phase
//!   protocol (Hello/Ack over the discrete-event engine) twice on the
//!   same layout — ideal radio vs. full stochastic stack (shadowing,
//!   fading, soft PRR, SINR interference, slotted CSMA) — and reports
//!   the beacon/Hello overhead the non-ideal channel induces.

use cbtc_core::phy::{phy_reach_digraph, phy_reach_graph, PhyChannel};
use cbtc_core::protocol::{collect_outcome, CbtcNode, GrowthConfig};
use cbtc_core::{construct, CbtcConfig, Network};
use cbtc_graph::connectivity::same_partition;
use cbtc_graph::metrics::average_degree;
use cbtc_graph::paths::{dijkstra, power_weight};
use cbtc_graph::{Layout, NodeId, UndirectedGraph};
use cbtc_phy::PhyProfile;
use cbtc_radio::{PathLoss, Power, PowerBasis, PowerLaw, PowerSchedule};
use cbtc_sim::{Engine, FaultConfig, QuiescenceResult};
use serde::{Deserialize, Serialize};

use crate::{RandomPlacement, Scenario};

/// Connectivity statistics of the phy construction at one `(σ, n)` sweep
/// point, aggregated over the scenario's trials.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhyConstructionStats {
    /// Shadowing standard deviation (dB) of the sweep point.
    pub sigma_db: f64,
    /// Nodes per network.
    pub nodes: usize,
    /// Trials aggregated.
    pub trials: u32,
    /// Trials whose symmetric reach graph was itself connected.
    pub base_connected: u32,
    /// Trials where the final graph partitions the node set exactly as
    /// the reach graph does (the §3.2 guarantee, measured off the unit
    /// disk).
    pub preserved: u32,
    /// `preserved / trials`.
    pub preserved_fraction: f64,
    /// Mean fraction of directed reach links with no reverse link — how
    /// asymmetric the channel actually was (0 under reciprocal or ideal
    /// shadowing).
    pub asymmetric_link_fraction: f64,
    /// Mean average degree of the final graph.
    pub mean_degree: f64,
    /// Mean count of redundant edges the pairwise connectivity guard had
    /// to restore per trial (0 on the unit disk, where Theorem 3.6
    /// holds).
    pub pairwise_restored_mean: f64,
    /// Mean power stretch (weight `d²`) of the final graph versus the
    /// reach graph, over sampled sources.
    pub power_stretch_mean: f64,
    /// Maximum observed power stretch.
    pub power_stretch_max: f64,
}

/// Sampled power stretch of `topo` versus `base` over a few spread
/// sources; `(mean, max, reachable-pair count)`.
fn sampled_power_stretch(
    topo: &UndirectedGraph,
    base: &UndirectedGraph,
    layout: &Layout,
) -> (f64, f64, u64) {
    const SOURCES: usize = 4;
    let n = layout.len();
    if n < 2 {
        return (1.0, 1.0, 0);
    }
    let picked: Vec<NodeId> = (0..SOURCES.min(n))
        .map(|i| NodeId::new((i * n / SOURCES.min(n).max(1)) as u32))
        .collect();
    let mut pairs = 0u64;
    let mut sum = 0.0;
    let mut max = 0.0f64;
    for &s in &picked {
        let d_topo = dijkstra(topo, s, power_weight(layout, 2.0));
        let d_base = dijkstra(base, s, power_weight(layout, 2.0));
        for v in layout.node_ids() {
            if v == s {
                continue;
            }
            if let (Some(a), Some(b)) = (d_topo[v.index()], d_base[v.index()]) {
                if b > 0.0 {
                    pairs += 1;
                    let ratio = a / b;
                    sum += ratio;
                    max = max.max(ratio);
                }
            }
        }
    }
    if pairs == 0 {
        (1.0, 1.0, 0)
    } else {
        (sum / pairs as f64, max, pairs)
    }
}

/// Runs the centralized phy construction over the scenario's random
/// networks with per-direction shadowing of `sigma_db`, and measures the
/// §3.2 guarantee off the unit disk.
///
/// The shadowing field is frozen per trial at `base_seed ^ trial seed`;
/// `config` is the CBTC configuration under test (asymmetric removal
/// requires `α ≤ 2π/3`).
pub fn phy_construction_probe(
    scenario: &Scenario,
    sigma_db: f64,
    config: &CbtcConfig,
    base_seed: u64,
) -> PhyConstructionStats {
    let generator = RandomPlacement::from_scenario(scenario);
    let mut base_connected = 0u32;
    let mut preserved = 0u32;
    let mut asym_sum = 0.0;
    let mut degree_sum = 0.0;
    let mut restored_sum = 0.0;
    let mut stretch_sum = 0.0;
    let mut stretch_pairs = 0u64;
    let mut stretch_max = 0.0f64;
    for seed in scenario.seeds(base_seed) {
        let network = generator.generate(seed);
        let profile = PhyProfile::shadowed(sigma_db, base_seed ^ seed);
        let shadowing = profile.shadowing();
        let channel = PhyChannel::new(network.model(), &shadowing);
        let run = construct(&network, &channel, config, None, true);
        // One reach scan per trial: the symmetric graph is derived from
        // the digraph rather than rebuilt.
        let digraph = phy_reach_digraph(&network, &channel);
        let reach = digraph.symmetric_core();
        let directed = digraph.edge_count();
        if directed > 0 {
            let symmetric = 2 * reach.edge_count();
            asym_sum += (directed - symmetric) as f64 / directed as f64;
        }
        if cbtc_graph::traversal::is_connected(&reach) {
            base_connected += 1;
        }
        if same_partition(run.final_graph(), &reach) {
            preserved += 1;
        }
        degree_sum += average_degree(run.final_graph());
        restored_sum += run.pairwise_restored().len() as f64;
        let (mean, max, pairs) = sampled_power_stretch(run.final_graph(), &reach, network.layout());
        stretch_sum += mean * pairs as f64;
        stretch_pairs += pairs;
        stretch_max = stretch_max.max(max);
    }
    let trials = scenario.trials;
    PhyConstructionStats {
        sigma_db,
        nodes: scenario.node_count,
        trials,
        base_connected,
        preserved,
        preserved_fraction: f64::from(preserved) / f64::from(trials.max(1)),
        asymmetric_link_fraction: asym_sum / f64::from(trials.max(1)),
        mean_degree: degree_sum / f64::from(trials.max(1)),
        pairwise_restored_mean: restored_sum / f64::from(trials.max(1)),
        power_stretch_mean: if stretch_pairs > 0 {
            stretch_sum / stretch_pairs as f64
        } else {
            1.0
        },
        power_stretch_max: if stretch_pairs > 0 { stretch_max } else { 1.0 },
    }
}

/// Distributed growing-phase overhead at one sweep point: the same
/// layout run over the ideal radio and over a stochastic profile, with
/// and without per-node start jitter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhyProtocolStats {
    /// Nodes in the network.
    pub nodes: usize,
    /// The run's seed.
    pub seed: u64,
    /// Hello/Ack broadcasts per node over the ideal radio.
    pub ideal_broadcasts_per_node: f64,
    /// Hello/Ack broadcasts per node over the stochastic channel.
    pub phy_broadcasts_per_node: f64,
    /// `phy / ideal` — the Hello retry overhead of the non-ideal channel.
    pub hello_overhead: f64,
    /// Fraction of phy deliveries killed by PRR/SINR draws.
    pub phy_lost_fraction: f64,
    /// Raw count of deliveries killed by PRR/SINR draws (the numerator
    /// of [`PhyProtocolStats::phy_lost_fraction`]).
    pub phy_lost: u64,
    /// CSMA backoffs per node.
    pub csma_deferrals_per_node: f64,
    /// Raw count of CSMA carrier-sense backoffs.
    pub csma_deferrals: u64,
    /// Transmissions forced out after exhausting carrier-sense attempts.
    pub csma_forced: u64,
    /// Whether the phy run's symmetric closure partitions the node set
    /// the same way the reach graph does (fading can close links beyond
    /// the frozen-shadowing reach, so this is partition agreement, not a
    /// subgraph check).
    pub connectivity_preserved: bool,
    /// Link margin (dB) applied to every Hello broadcast level
    /// ([`PowerSchedule::with_margin_db`]): each round reaches its
    /// nominal neighbors plus a reliability cushion. `0` is the paper's
    /// exact schedule, bit for bit.
    pub hello_margin_db: f64,
    /// The per-node random start jitter (ticks) of the desynchronized
    /// run below; `0` means the jittered columns replay the synchronized
    /// run.
    pub jitter_ticks: u64,
    /// Hello/Ack broadcasts per node with jittered starts.
    pub jitter_broadcasts_per_node: f64,
    /// Fraction of deliveries killed by PRR/SINR draws with jittered
    /// starts — synchronized first rounds are the SINR worst case, so
    /// the gap to `phy_lost_fraction` is the collision loss jitter
    /// removes.
    pub jitter_phy_lost_fraction: f64,
    /// CSMA backoffs per node with jittered starts.
    pub jitter_csma_deferrals_per_node: f64,
    /// The pricing basis the Hello/Ack exchange ran under
    /// ([`PowerBasis::label`]): `"geometric"` replies with the reverse
    /// estimate, `"measured"` carries the forward §2 measurement in a
    /// max-power `MeasuredAck`.
    pub pricing: String,
}

/// Runs the distributed CBTC growing phase (Figure 1 over the simulator)
/// on one random layout — ideal vs. `profile` with slot-aligned starts,
/// plus a third run with per-node start jitter of `jitter` ticks — and
/// reports the overhead the stochastic channel induces and how much of
/// it desynchronization removes. A `jitter` of 0 skips the third
/// simulation and copies the synchronized columns. `hello_margin_db`
/// boosts every Hello broadcast level
/// ([`PowerSchedule::with_margin_db`]); `0.0` is the paper's exact
/// schedule. `basis` selects how discovered links are priced:
/// [`PowerBasis::Measured`] makes repliers carry the forward §2
/// measurement in a max-power `MeasuredAck` instead of echoing a
/// reverse-channel estimate (bit-identical on the ideal radio).
///
/// # Panics
///
/// Panics if a run fails to quiesce within the event budget, or if the
/// margin is negative or non-finite.
pub fn phy_protocol_probe(
    nodes: usize,
    scenario: &Scenario,
    profile: &PhyProfile,
    jitter: u64,
    hello_margin_db: f64,
    basis: PowerBasis,
    seed: u64,
) -> PhyProtocolStats {
    let model = PowerLaw::paper_default();
    let layout = RandomPlacement::new(nodes, scenario.width, scenario.height, model.max_range())
        .generate_layout(seed);
    // The Ack window must cover CSMA backoff delays on top of the round
    // trip; otherwise the phy run times out rounds the channel merely
    // deferred.
    let ack_timeout = 3 + profile.csma.map(|c| 2 * c.max_backoff).unwrap_or(0);
    let growth = GrowthConfig {
        alpha: cbtc_geom::Alpha::TWO_PI_THIRDS,
        schedule: PowerSchedule::doubling(Power::new(100.0), model.max_power())
            .with_margin_db(hello_margin_db)
            .with_basis(basis),
        ack_timeout,
        model,
    };
    let run = |phy: Option<&PhyProfile>, jitter: u64| -> (Engine<CbtcNode, PowerLaw>, f64) {
        let protocol_nodes = (0..nodes).map(|_| CbtcNode::new(growth, false)).collect();
        let mut engine = Engine::new(
            layout.clone(),
            model,
            protocol_nodes,
            FaultConfig::reliable_synchronous()
                .with_seed(seed)
                .with_start_jitter(jitter),
        );
        if let Some(p) = phy {
            engine.set_phy(*p);
        }
        let result = engine.run_to_quiescence(200_000_000);
        assert!(
            matches!(result, QuiescenceResult::Quiescent(_)),
            "growing phase failed to quiesce"
        );
        let per_node = engine.stats().broadcasts as f64 / nodes.max(1) as f64;
        (engine, per_node)
    };
    let (_, ideal_per_node) = run(None, 0);
    let (phy_engine, phy_per_node) = run(Some(profile), 0);
    let lost_fraction = |stats: &cbtc_sim::TraceStats| {
        stats.phy_lost as f64 / (stats.deliveries + stats.phy_lost).max(1) as f64
    };
    let (jitter_per_node, jitter_lost, jitter_deferrals) = if jitter > 0 {
        let (jitter_engine, per_node) = run(Some(profile), jitter);
        let stats = jitter_engine.stats();
        (
            per_node,
            lost_fraction(stats),
            stats.csma_deferrals as f64 / nodes.max(1) as f64,
        )
    } else {
        let stats = phy_engine.stats();
        (
            phy_per_node,
            lost_fraction(stats),
            stats.csma_deferrals as f64 / nodes.max(1) as f64,
        )
    };

    let stats = phy_engine.stats();
    let shadowing = profile.shadowing();
    let network = Network::new(layout, model);
    let channel = PhyChannel::new(network.model(), &shadowing).with_sensor(profile.sensor());
    let reach = phy_reach_graph(&network, &channel);
    let closure = collect_outcome(&phy_engine).symmetric_closure();
    PhyProtocolStats {
        nodes,
        seed,
        ideal_broadcasts_per_node: ideal_per_node,
        phy_broadcasts_per_node: phy_per_node,
        hello_overhead: phy_per_node / ideal_per_node.max(f64::MIN_POSITIVE),
        phy_lost_fraction: lost_fraction(stats),
        phy_lost: stats.phy_lost,
        csma_deferrals_per_node: stats.csma_deferrals as f64 / nodes.max(1) as f64,
        csma_deferrals: stats.csma_deferrals,
        csma_forced: stats.csma_forced,
        connectivity_preserved: same_partition(&closure, &reach),
        hello_margin_db,
        jitter_ticks: jitter,
        jitter_broadcasts_per_node: jitter_per_node,
        jitter_phy_lost_fraction: jitter_lost,
        jitter_csma_deferrals_per_node: jitter_deferrals,
        pricing: basis.label().to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtc_geom::Alpha;

    fn small_scenario(nodes: usize, trials: u32) -> Scenario {
        Scenario {
            name: "phy-test".to_owned(),
            node_count: nodes,
            width: 1000.0,
            height: 1000.0,
            max_range: 500.0,
            trials,
        }
    }

    #[test]
    fn sigma_zero_probe_always_preserves() {
        let scenario = small_scenario(30, 4);
        let stats = phy_construction_probe(
            &scenario,
            0.0,
            &CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS),
            5,
        );
        assert_eq!(stats.preserved, stats.trials, "ideal channel is the paper");
        assert_eq!(stats.asymmetric_link_fraction, 0.0);
        assert_eq!(stats.pairwise_restored_mean, 0.0);
        assert!(stats.power_stretch_mean >= 1.0 - 1e-12);
    }

    #[test]
    fn heavy_shadowing_creates_asymmetry() {
        let scenario = small_scenario(30, 4);
        let stats = phy_construction_probe(
            &scenario,
            8.0,
            &CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS),
            5,
        );
        assert!(
            stats.asymmetric_link_fraction > 0.05,
            "8 dB independent shadowing must desymmetrize links, got {}",
            stats.asymmetric_link_fraction
        );
        // The guard keeps the final graph a connectivity-preserver of
        // whatever pre-pairwise graph existed, but against the reach
        // graph preservation may genuinely fail — both outcomes are
        // valid; the probe just has to report coherently.
        assert!(stats.preserved <= stats.trials);
        assert!(stats.power_stretch_mean >= 1.0 - 1e-12);
    }

    #[test]
    fn protocol_probe_reports_overhead() {
        let scenario = small_scenario(25, 1);
        let stats = phy_protocol_probe(
            25,
            &scenario,
            &PhyProfile::realistic(6.0, 2),
            16,
            0.0,
            PowerBasis::Geometric,
            3,
        );
        assert!(stats.ideal_broadcasts_per_node > 0.0);
        assert!(
            stats.hello_overhead >= 1.0,
            "stochastic channel cannot reduce Hello traffic, got {}",
            stats.hello_overhead
        );
        assert!(stats.phy_lost_fraction >= 0.0 && stats.phy_lost_fraction < 1.0);
        assert_eq!(stats.jitter_ticks, 16);
        assert!(stats.jitter_phy_lost_fraction >= 0.0 && stats.jitter_phy_lost_fraction < 1.0);
    }

    #[test]
    fn start_jitter_removes_collision_loss_and_backoff() {
        // Synchronized first rounds are the SINR worst case: scattering
        // starts must cut both the collision loss and the carrier-sense
        // deferrals on the full stochastic stack.
        let scenario = small_scenario(30, 1);
        let stats = phy_protocol_probe(
            30,
            &scenario,
            &PhyProfile::realistic(4.0, 5),
            16,
            0.0,
            PowerBasis::Geometric,
            5,
        );
        assert!(
            stats.jitter_phy_lost_fraction < stats.phy_lost_fraction,
            "jitter must remove collision loss: {} vs {}",
            stats.jitter_phy_lost_fraction,
            stats.phy_lost_fraction
        );
        assert!(
            stats.jitter_csma_deferrals_per_node < stats.csma_deferrals_per_node,
            "jitter must remove backoff burden: {} vs {}",
            stats.jitter_csma_deferrals_per_node,
            stats.csma_deferrals_per_node
        );
    }

    #[test]
    fn zero_jitter_copies_the_synchronized_columns() {
        let scenario = small_scenario(20, 1);
        let stats = phy_protocol_probe(
            20,
            &scenario,
            &PhyProfile::realistic(4.0, 2),
            0,
            0.0,
            PowerBasis::Geometric,
            3,
        );
        assert_eq!(stats.jitter_ticks, 0);
        assert_eq!(
            stats.jitter_broadcasts_per_node,
            stats.phy_broadcasts_per_node
        );
        assert_eq!(stats.jitter_phy_lost_fraction, stats.phy_lost_fraction);
        assert_eq!(
            stats.jitter_csma_deferrals_per_node,
            stats.csma_deferrals_per_node
        );
    }

    #[test]
    fn protocol_probe_with_ideal_profile_is_overhead_free() {
        let scenario = small_scenario(20, 1);
        let stats = phy_protocol_probe(
            20,
            &scenario,
            &PhyProfile::ideal(),
            16,
            0.0,
            PowerBasis::Geometric,
            7,
        );
        assert_eq!(stats.hello_overhead, 1.0);
        assert_eq!(stats.phy_lost_fraction, 0.0);
        assert_eq!(stats.jitter_phy_lost_fraction, 0.0);
        assert_eq!(stats.csma_forced, 0);
        assert!(stats.connectivity_preserved);
    }

    #[test]
    fn measured_basis_probe_is_overhead_free_on_ideal() {
        // The MeasuredAck path on the ideal radio carries exactly the
        // estimate the geometric path re-derives, so the probe stays
        // overhead-free and connectivity-preserving.
        let scenario = small_scenario(20, 1);
        let stats = phy_protocol_probe(
            20,
            &scenario,
            &PhyProfile::ideal(),
            0,
            0.0,
            PowerBasis::Measured,
            7,
        );
        assert_eq!(stats.hello_overhead, 1.0);
        assert_eq!(stats.phy_lost_fraction, 0.0);
        assert_eq!(stats.pricing, "measured");
        assert!(stats.connectivity_preserved);
    }

    #[test]
    fn probes_are_deterministic() {
        let scenario = small_scenario(25, 2);
        let config = CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS);
        assert_eq!(
            phy_construction_probe(&scenario, 6.0, &config, 9),
            phy_construction_probe(&scenario, 6.0, &config, 9)
        );
        let p = PhyProfile::realistic(4.0, 11);
        assert_eq!(
            phy_protocol_probe(20, &scenario, &p, 16, 0.0, PowerBasis::Geometric, 1),
            phy_protocol_probe(20, &scenario, &p, 16, 0.0, PowerBasis::Geometric, 1)
        );
    }
}
