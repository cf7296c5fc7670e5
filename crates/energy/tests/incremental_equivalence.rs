//! Property tests of incremental survivor reconfiguration: after every
//! death batch, the patched [`SurvivorTopology`] must equal a
//! from-scratch [`TopologyPolicy::build_on_survivors`], and a whole
//! lifetime simulation over the maintained tracker must reproduce the
//! run over a tracker that rebuilds every death epoch, bit for bit — on
//! the ideal radio *and* through the phy pipeline (shadowed channel,
//! retransmission energy).

mod common;

use cbtc_core::{CbtcConfig, Network};
use cbtc_energy::{
    LifetimeConfig, LifetimeSim, PhyPolicy, SurvivorTopology, SurvivorTracker, TopologyPolicy,
};
use cbtc_geom::{Alpha, Point2};
use cbtc_graph::{Layout, NodeId};
use cbtc_phy::{PhyProfile, ShadowingMode};
use cbtc_radio::PowerBasis;
use common::RebuildEveryEpoch;
use proptest::prelude::*;

fn policies() -> Vec<TopologyPolicy> {
    vec![
        TopologyPolicy::MaxPower,
        TopologyPolicy::Cbtc(CbtcConfig::new(Alpha::FIVE_PI_SIXTHS)),
        TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS)),
        TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS)),
    ]
}

/// Random distinct-point layouts.
fn layouts() -> impl Strategy<Value = Layout> {
    (4usize..40, 300.0f64..1600.0).prop_flat_map(|(n, side)| {
        proptest::collection::vec((0.0..side, 0.0..side), n).prop_map(|pts| {
            let mut points: Vec<Point2> = Vec::with_capacity(pts.len());
            for (x, y) in pts {
                let mut p = Point2::new(x, y);
                while points.contains(&p) {
                    p = Point2::new(p.x + 0.25, p.y);
                }
                points.push(p);
            }
            Layout::new(points)
        })
    })
}

/// A random death sequence: batches of 1–3 nodes, leaving at least one
/// survivor.
fn death_batches(n: usize, seed: u64) -> Vec<Vec<NodeId>> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut state = seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for i in (1..order.len()).rev() {
        order.swap(i, next() % (i + 1));
    }
    order.truncate(n.saturating_sub(1));
    let mut batches = Vec::new();
    let mut cursor = 0;
    while cursor < order.len() {
        let size = 1 + next() % 3;
        let end = (cursor + size).min(order.len());
        batches.push(order[cursor..end].iter().map(|&i| NodeId::new(i)).collect());
        cursor = end;
    }
    batches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental reconfiguration ≡ full survivor rebuild after every
    /// death batch, under every policy.
    #[test]
    fn incremental_matches_full_rebuild(
        layout in layouts(),
        seed in 0u64..u64::MAX,
    ) {
        let network = Network::with_paper_radio(layout);
        let batches = death_batches(network.len(), seed);
        for policy in policies() {
            let mut topo = SurvivorTopology::new(&network, policy);
            prop_assert_eq!(topo.graph(), &policy.build(&network));
            let mut alive = vec![true; network.len()];
            for batch in &batches {
                for &d in batch {
                    alive[d.index()] = false;
                }
                let delta = topo.kill(batch);
                let full = policy.build_on_survivors(&network, &alive);
                prop_assert_eq!(
                    topo.graph(), &full,
                    "policy {} diverged after batch {:?}", policy.label(), batch
                );
                // The delta must be consistent with the new graph.
                for &(u, v) in &delta.removed {
                    prop_assert!(!topo.graph().has_edge(u, v));
                }
                for &(u, v) in &delta.added {
                    prop_assert!(topo.graph().has_edge(u, v));
                }
            }
        }
    }
}

/// A full lifetime simulation over the maintained tracker reproduces the
/// run over the rebuild-every-epoch oracle bit for bit — same
/// milestones, same drains, same delivered counts, same everything.
#[test]
fn lifetime_sim_is_bitwise_equal_across_paths() {
    let mut pts = Vec::new();
    let mut state = 0x5DEECE66Du64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..40 {
        pts.push(Point2::new(next() * 900.0, next() * 900.0));
    }
    let network = Network::with_paper_radio(Layout::new(pts));
    let config = LifetimeConfig {
        initial_energy: 150_000.0,
        packets_per_epoch: 20,
        max_epochs: 3_000,
        ..LifetimeConfig::paper_default()
    };
    for policy in policies() {
        for seed in [3u64, 17] {
            let a = LifetimeSim::new(network.clone(), policy, config, seed).run();
            let oracle = RebuildEveryEpoch(policy);
            let b = LifetimeSim::with_builder(network.clone(), &oracle, config, seed).run();
            assert_eq!(a, b, "policy {} seed {seed}", policy.label());
            assert!(a.first_death.is_some(), "the run must exercise deaths");
        }
    }
}

/// The phy lifetime path through the maintained survivor tracker: a
/// whole shadowed, soft-PRR lifetime run must reproduce the run over the
/// rebuild-every-epoch oracle bit for bit — same milestones, same
/// drains, same delivered counts, same everything. (The σ = 0 ideal
/// profile is additionally pinned to the ideal experiment by the
/// in-crate phy tests.)
///
/// Under per-direction shadowing the routing rows are directed: the
/// expected attempts (and, on the measured basis, the priced distance)
/// read the gain of the hop's own direction. Both shadowing modes run on
/// both pricing bases, so the selective tree invalidation is checked
/// against directed weights end to end.
#[test]
fn phy_lifetime_sim_is_bitwise_equal_across_paths() {
    let mut pts = Vec::new();
    let mut state = 0xFEED_5EEDu64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..35 {
        pts.push(Point2::new(next() * 900.0, next() * 900.0));
    }
    let network = Network::with_paper_radio(Layout::new(pts));
    let mut config = LifetimeConfig {
        initial_energy: 150_000.0,
        packets_per_epoch: 20,
        max_epochs: 3_000,
        ..LifetimeConfig::paper_default()
    };
    let mut profile = PhyProfile::shadowed(6.0, 11);
    profile.prr = cbtc_phy::PrrCurve::paper_transition();
    for mode in [ShadowingMode::Reciprocal, ShadowingMode::Independent] {
        for basis in [PowerBasis::Geometric, PowerBasis::Measured] {
            profile.shadowing_mode = mode;
            config.energy.power_basis = basis;
            for policy in policies() {
                for seed in [3u64, 17] {
                    let phy = PhyPolicy { policy, profile };
                    let a = LifetimeSim::with_builder(network.clone(), &phy, config, seed).run();
                    let oracle = RebuildEveryEpoch(phy);
                    let b = LifetimeSim::with_builder(network.clone(), &oracle, config, seed).run();
                    let label = policy.label();
                    assert_eq!(a, b, "phy policy {label} seed {seed}, {mode:?} {basis:?}");
                    assert!(a.first_death.is_some(), "the run must exercise deaths");
                }
            }
        }
    }
}
