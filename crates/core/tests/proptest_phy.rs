//! Property tests of the stochastic-channel (phy) construction pipeline.
//! (The plain ideal channel's equivalence with the oracle is a row of
//! the engine table in `proptest_construction`.)
//!
//! Three guarantees are pinned down:
//!
//! 1. **Ideal equivalence** — with every link gain exactly 1 and exact
//!    sensing, the feedback-gated phy pipeline is bit-identical to the
//!    geometric reference (`run_centralized`), full and masked, at every
//!    optimization level.
//! 2. **Pairwise-removal safety off the unit disk** — on lossy
//!    (shadowed, per-direction asymmetric) topologies, the guarded
//!    pairwise removal never changes the partition of the symmetric
//!    subgraph it prunes (the §3.3 step can no longer rely on Theorem
//!    3.6's unit-disk scaffolding; the connectivity guard substitutes
//!    for it).
//! 3. **Asymmetric-edge removal semantics under asymmetric gains** —
//!    the final graph after §3.2 removal is a subgraph of the symmetric
//!    reach graph (it never keeps a one-directional link), and on an
//!    ideal channel it preserves the reach graph's connectivity exactly
//!    as Theorem 3.2 promises.

use cbtc_core::phy::{
    phy_reach_graph, run_phy_gated_basic, run_phy_gated_centralized, AckGatedChannel, PhyChannel,
};
use cbtc_core::{
    construct, run_basic, run_centralized, run_centralized_masked, CbtcConfig, Network,
};
use cbtc_geom::{Alpha, Point2};
use cbtc_graph::connectivity::same_partition;
use cbtc_graph::Layout;
use cbtc_phy::{Shadowing, ShadowingMode};
use cbtc_radio::IdealGain;
use proptest::prelude::*;

/// Random networks with no two nodes coincident.
fn networks() -> impl Strategy<Value = Network> {
    (2usize..40, 400.0f64..1600.0).prop_flat_map(|(n, side)| {
        proptest::collection::vec((0.0..side, 0.0..side), n).prop_map(|pts| {
            let mut points: Vec<Point2> = Vec::with_capacity(pts.len());
            for (x, y) in pts {
                let mut p = Point2::new(x, y);
                while points.contains(&p) {
                    p = Point2::new(p.x + 0.125, p.y);
                }
                points.push(p);
            }
            Network::with_paper_radio(Layout::new(points))
        })
    })
}

fn configs() -> [CbtcConfig; 3] {
    [
        CbtcConfig::new(Alpha::FIVE_PI_SIXTHS),
        CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS),
        CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ideal channel ⇒ the feedback-gated phy pipeline replays the
    /// geometric one bit for bit (growth views, final graphs, pairwise
    /// removals; the connectivity guard never fires).
    #[test]
    fn ideal_phy_pipeline_is_bit_identical(network in networks()) {
        let channel = PhyChannel::new(network.model(), &IdealGain);
        for alpha in [Alpha::FIVE_PI_SIXTHS, Alpha::TWO_PI_THIRDS] {
            prop_assert_eq!(
                run_phy_gated_basic(&network, &channel, alpha).views(),
                run_basic(&network, alpha).views()
            );
        }
        for config in configs() {
            let phy = run_phy_gated_centralized(&network, &channel, &config);
            let ideal = run_centralized(&network, &config);
            prop_assert_eq!(phy.final_graph(), ideal.final_graph());
            prop_assert_eq!(phy.pairwise_removed(), ideal.pairwise_removed());
            prop_assert!(phy.pairwise_restored().is_empty());
        }
    }

    /// Ideal channel, masked: the gated survivor re-run matches too.
    #[test]
    fn ideal_phy_masked_is_bit_identical(network in networks(), mask_seed in 0u64..1000) {
        let channel = PhyChannel::new(network.model(), &IdealGain);
        let gated = AckGatedChannel::new(&channel, network.max_range());
        let alive: Vec<bool> = (0..network.len())
            .map(|i| (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(mask_seed) % 4 != 0)
            .collect();
        let config = CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS);
        let phy = construct(&network, &gated, &config, Some(&alive), true);
        let ideal = run_centralized_masked(&network, &config, &alive);
        prop_assert_eq!(phy.final_graph(), ideal.final_graph());
        prop_assert!(phy.pairwise_restored().is_empty());
    }

    /// On lossy topologies (independent per-direction shadowing), the
    /// guarded pairwise removal never disconnects the symmetric subgraph
    /// it starts from: the final graph partitions the nodes exactly as
    /// the pre-pairwise graph (post-shrink symmetric core) does.
    #[test]
    fn pairwise_removal_never_disconnects_lossy_topologies(
        network in networks(),
        sigma in 1.0f64..10.0,
        seed in 0u64..10_000,
    ) {
        let shadowing = Shadowing::new(sigma, ShadowingMode::Independent, seed);
        let channel = PhyChannel::new(network.model(), &shadowing);
        let config = CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS);
        let run = construct(&network, &channel, &config, None, true);
        // Reconstruct the graph the pairwise stage was given: the
        // symmetric core of the post-shrink outcome.
        let pre_pairwise = run.effective().symmetric_core();
        prop_assert!(
            same_partition(run.final_graph(), &pre_pairwise),
            "pairwise removal changed the partition (σ = {}, restored {})",
            sigma,
            run.pairwise_restored().len()
        );
        // The removal can only ever delete edges, and everything it
        // deleted or restored came from that graph.
        prop_assert!(run.final_graph().is_subgraph_of(&pre_pairwise));
    }

    /// Asymmetric-edge removal under asymmetric gains keeps only
    /// bidirectional links: the final graph is a subgraph of the
    /// symmetric reach graph.
    #[test]
    fn asymmetric_removal_keeps_only_bidirectional_links(
        network in networks(),
        sigma in 0.0f64..10.0,
        seed in 0u64..10_000,
    ) {
        let shadowing = Shadowing::new(sigma, ShadowingMode::Independent, seed);
        let channel = PhyChannel::new(network.model(), &shadowing);
        let config = CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS);
        let run = construct(&network, &channel, &config, None, true);
        let reach = phy_reach_graph(&network, &channel);
        prop_assert!(
            run.final_graph().is_subgraph_of(&reach),
            "§3.2 removal must never keep a one-directional link"
        );
        // On the ideal slice of the strategy (σ = 0), Theorem 3.2's full
        // guarantee holds against the reach graph.
        if sigma == 0.0 {
            prop_assert!(same_partition(run.final_graph(), &reach));
        }
    }
}
