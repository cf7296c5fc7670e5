//! A pin on the shadowed construction's outputs: the feedback-gated
//! pipeline (`run_phy_gated_centralized`) on paper-density layouts under
//! σ = 8 dB per-direction shadowing — the `construct_phy` benchmark's
//! configuration at 1000 nodes — must keep reproducing the closure,
//! restored and final edge counts recorded before the growing kernel
//! gained its per-ring admission screen and its dense ring index. Any
//! change to which links the grow admits moves at least one count.

use cbtc::core::opt::shrink_back;
use cbtc::core::phy::{run_phy_gated_centralized, PhyChannel};
use cbtc::core::CbtcConfig;
use cbtc::geom::Alpha;
use cbtc::phy::{Shadowing, ShadowingMode};
use cbtc::workloads::RandomPlacement;

/// Nodes per network: small enough for a debug build.
const NODES: usize = 1000;

/// The benchmark's salt between the layout seed and the shadowing seed.
const SHADOW_SALT: u64 = 0x5AAD_0E55_F1E1_D000;

/// `(seed, closure edges, restored edges, final edges)`.
const PINNED: [(u64, usize, usize, usize); 3] = [
    (1, 5690, 281, 1076),
    (2, 5766, 239, 1090),
    (3, 5706, 262, 1079),
];

#[test]
fn gated_construction_reproduces_its_pinned_edge_counts() {
    let side = 1500.0 * (NODES as f64 / 100.0).sqrt();
    for (seed, closure, restored, final_edges) in PINNED {
        let network = RandomPlacement::new(NODES, side, side, 500.0).generate(seed);
        let shadowing = Shadowing::new(8.0, ShadowingMode::Independent, seed ^ SHADOW_SALT);
        let channel = PhyChannel::new(network.model(), &shadowing);
        let config = CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS);
        let run = run_phy_gated_centralized(&network, &channel, &config);
        let got = (
            shrink_back(run.basic()).symmetric_closure().edge_count(),
            run.pairwise_restored().len(),
            run.final_graph().edge_count(),
        );
        assert_eq!(got, (closure, restored, final_edges), "seed {seed}");
    }
}
