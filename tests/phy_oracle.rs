//! The measured-power differential oracle: the *distributed* growing
//! phase run under [`PowerBasis::Measured`] over a deterministic shadowed
//! channel must land on exactly the topology the *centralized*
//! feedback-gated effective-distance reference
//! ([`cbtc::core::phy::run_phy_gated_centralized`]) computes — across
//! seeds, shadowing strengths, and both reciprocity modes.
//!
//! Why this is the right reference: a measured-power node prices a link
//! by the §2 estimate carried in the `MeasuredAck` payload, which is the
//! *forward* effective distance `d_eff(u→v)` — but the ack itself must
//! cross the *reverse* channel at maximum power, so a link is
//! discoverable iff `d_eff(v→u) ≤ R` too. That is precisely the
//! [`cbtc::core::phy::AckGatedChannel`] metric.

use cbtc::core::phy::{optimize_phy, run_phy_gated_centralized, PhyChannel};
use cbtc::core::protocol::{collect_outcome, CbtcNode, GrowthConfig};
use cbtc::core::{construct, opt, CbtcConfig, Network};
use cbtc::geom::{Alpha, Point2};
use cbtc::graph::Layout;
use cbtc::phy::{PhyProfile, ShadowingMode};
use cbtc::radio::{PathLoss, Power, PowerBasis, PowerLaw, PowerSchedule};
use cbtc::sim::{Engine, FaultConfig, QuiescenceResult};

fn scattered(count: usize, side: f64, seed: u64) -> Vec<Point2> {
    let mut state = seed.max(1);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..count)
        .map(|_| Point2::new(next() * side, next() * side))
        .collect()
}

/// Runs the distributed growing phase with the given pricing basis over
/// `profile` and returns the finished engine.
fn run_measured_protocol(
    points: Vec<Point2>,
    alpha: Alpha,
    basis: PowerBasis,
    profile: Option<&PhyProfile>,
) -> Engine<CbtcNode, PowerLaw> {
    let model = PowerLaw::paper_default();
    let config = GrowthConfig {
        alpha,
        schedule: PowerSchedule::doubling(Power::new(100.0), model.max_power()).with_basis(basis),
        ack_timeout: 3,
        model,
    };
    let layout = Layout::new(points);
    let nodes = (0..layout.len())
        .map(|_| CbtcNode::new(config, false))
        .collect();
    let mut engine = Engine::new(layout, model, nodes, FaultConfig::reliable_synchronous());
    if let Some(p) = profile {
        engine.set_phy(*p);
    }
    let result = engine.run_to_quiescence(10_000_000);
    assert!(
        matches!(result, QuiescenceResult::Quiescent(_)),
        "growing phase failed to quiesce"
    );
    engine
}

/// On the ideal channel the measured protocol is the geometric protocol:
/// the `MeasuredAck` payload carries the same §2 estimate the asker would
/// have re-derived from a plain `Ack`, so both runs discover identical
/// neighbor sets and boundary flags.
#[test]
fn measured_protocol_on_ideal_channel_matches_geometric() {
    for seed in [1, 5, 17] {
        let points = scattered(15, 900.0, seed);
        for alpha in [Alpha::FIVE_PI_SIXTHS, Alpha::TWO_PI_THIRDS] {
            let geometric = collect_outcome(&run_measured_protocol(
                points.clone(),
                alpha,
                PowerBasis::Geometric,
                None,
            ));
            let measured = collect_outcome(&run_measured_protocol(
                points.clone(),
                alpha,
                PowerBasis::Measured,
                None,
            ));
            for (u, (g, m)) in geometric.views().iter().zip(measured.views()).enumerate() {
                assert_eq!(
                    g.neighbor_ids(),
                    m.neighbor_ids(),
                    "seed {seed}, α {alpha}, node {u}"
                );
                assert_eq!(g.boundary, m.boundary, "seed {seed}, α {alpha}, node {u}");
            }
        }
    }
}

/// The differential oracle matrix: 20 seeds × {σ = 4, 8 dB} ×
/// {reciprocal, per-direction} shadowing. For every cell the distributed
/// measured-power protocol's outcome, pushed through the §3 pipeline
/// ([`optimize_phy`]), must equal the centralized gated reference's final
/// graph — and the per-node neighbor sets must already agree after
/// shrink-back.
#[test]
fn distributed_measured_equals_gated_centralized_across_the_matrix() {
    let model = PowerLaw::paper_default();
    let config = CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS);
    for mode in [ShadowingMode::Reciprocal, ShadowingMode::Independent] {
        for sigma in [4.0, 8.0] {
            for seed in 0..20u64 {
                let mut profile = PhyProfile::shadowed(sigma, 0xC0DE ^ (seed << 8));
                profile.shadowing_mode = mode;

                let points = scattered(14, 900.0, seed + 1);
                let network = Network::new(Layout::new(points.clone()), model);
                let engine = run_measured_protocol(
                    points,
                    config.alpha(),
                    PowerBasis::Measured,
                    Some(&profile),
                );
                let distributed = collect_outcome(&engine);

                let shadowing = profile.shadowing();
                let channel = PhyChannel::new(network.model(), &shadowing);
                let reference = run_phy_gated_centralized(&network, &channel, &config);

                // Neighbor sets after shrink-back (IDs, not distances:
                // the distributed side stores §2 estimates that differ
                // from the exact effective distances by float rounding).
                let d_shrunk = opt::shrink_back(&distributed);
                let c_shrunk = reference.after_shrink().expect("shrink-back enabled");
                for u in network.layout().node_ids() {
                    assert_eq!(
                        d_shrunk.view(u).neighbor_ids(),
                        c_shrunk.view(u).neighbor_ids(),
                        "σ {sigma}, {mode:?}, seed {seed}, node {u}"
                    );
                }

                // Final graphs through the identical pipeline.
                let d_run = optimize_phy(&network, &channel, &config, distributed);
                assert_eq!(
                    d_run.final_graph(),
                    reference.final_graph(),
                    "σ {sigma}, {mode:?}, seed {seed}: final graphs diverged"
                );
            }
        }
    }
}

/// Under reciprocal shadowing the ack gate can never fire (the reverse
/// effective distance equals the forward one, which is within reach by
/// construction), so the gated reference degenerates to the plain phy
/// construction — pin that equivalence so the oracle above is known to
/// be testing the gate only where per-direction gains exist.
#[test]
fn reciprocal_gains_make_the_gate_invisible() {
    let model = PowerLaw::paper_default();
    let config = CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS);
    for seed in [2u64, 9, 23] {
        let mut profile = PhyProfile::shadowed(8.0, seed ^ 0xFACE);
        profile.shadowing_mode = ShadowingMode::Reciprocal;
        let network = Network::new(Layout::new(scattered(16, 900.0, seed + 3)), model);
        let shadowing = profile.shadowing();
        let channel = PhyChannel::new(network.model(), &shadowing);
        let gated = run_phy_gated_centralized(&network, &channel, &config);
        let plain = construct(&network, &channel, &config, None, true);
        assert_eq!(gated.final_graph(), plain.final_graph(), "seed {seed}");
    }
}
