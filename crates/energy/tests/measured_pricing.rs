//! Properties of measured-power pricing ([`cbtc_radio::PowerBasis`]):
//!
//! * on the ideal channel `Measured` is an exact ×1 — lifetime reports
//!   and traces reproduce the `Geometric` run bit for bit (the trace
//!   headers differ only in the declared pricing basis);
//! * the maintained survivor tracker under measured pricing reproduces
//!   the rebuild-every-epoch oracle bit for bit, through shadowed
//!   channels and retransmission energy;
//! * tracing never perturbs a measured run, and the trace declares its
//!   basis;
//! * under σ = 8 dB shadowing with the soft PRR curve, measured pricing
//!   un-pins the first death that geometric pricing collapses to the
//!   first epochs (the headline claim, in test form).

mod common;

use cbtc_core::CbtcConfig;
use cbtc_core::Network;
use cbtc_energy::{
    phy_lifetime_experiment, LifetimeConfig, LifetimeReport, LifetimeSim, PhyPolicy, TopologyPolicy,
};
use cbtc_geom::{Alpha, Point2};
use cbtc_graph::Layout;
use cbtc_phy::{PhyProfile, PrrCurve};
use cbtc_radio::PowerBasis;
use cbtc_trace::{analyze, parse_trace, MemorySink, TraceHandle};
use cbtc_workloads::Scenario;
use common::RebuildEveryEpoch;

fn scattered_network(count: usize, side: f64, seed: u64) -> Network {
    let mut state = seed.max(1);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let pts = (0..count)
        .map(|_| Point2::new(next() * side, next() * side))
        .collect();
    Network::with_paper_radio(Layout::new(pts))
}

fn fast_config(basis: PowerBasis) -> LifetimeConfig {
    let mut config = LifetimeConfig {
        initial_energy: 150_000.0,
        packets_per_epoch: 20,
        max_epochs: 3_000,
        ..LifetimeConfig::paper_default()
    };
    config.energy = config.energy.with_power_basis(basis);
    config
}

fn policies() -> Vec<TopologyPolicy> {
    vec![
        TopologyPolicy::MaxPower,
        TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS)),
        TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS)),
    ]
}

/// Runs a traced phy lifetime sim and returns `(report, jsonl)`.
fn traced_phy_run(
    network: &Network,
    policy: TopologyPolicy,
    profile: PhyProfile,
    config: LifetimeConfig,
    seed: u64,
) -> (LifetimeReport, String) {
    let (handle, events) = TraceHandle::in_memory();
    let mut sim = LifetimeSim::with_builder(
        network.clone(),
        &PhyPolicy { policy, profile },
        config,
        seed,
    );
    sim.set_trace(handle);
    let report = sim.run();
    let jsonl = MemorySink::to_jsonl(&events.lock().unwrap());
    (report, jsonl)
}

/// Measured pricing on the ideal channel is an exact ×1: reports and
/// traces are bit-identical to the geometric run, except for the trace
/// header's declared basis.
#[test]
fn measured_on_ideal_channel_is_bitwise_geometric() {
    let network = scattered_network(30, 900.0, 0xBA5E);
    for policy in policies() {
        for seed in [3u64, 17] {
            let (geo_report, geo_jsonl) = traced_phy_run(
                &network,
                policy,
                PhyProfile::ideal(),
                fast_config(PowerBasis::Geometric),
                seed,
            );
            let (mea_report, mea_jsonl) = traced_phy_run(
                &network,
                policy,
                PhyProfile::ideal(),
                fast_config(PowerBasis::Measured),
                seed,
            );
            assert_eq!(
                geo_report,
                mea_report,
                "policy {} seed {seed}: measured-on-ideal must be ×1",
                policy.label()
            );
            // Traces: line 1 is the Meta header and legitimately differs
            // in its `pricing` field; every following line is byte-equal.
            let geo_lines: Vec<&str> = geo_jsonl.lines().collect();
            let mea_lines: Vec<&str> = mea_jsonl.lines().collect();
            assert_eq!(geo_lines.len(), mea_lines.len());
            assert_eq!(
                geo_lines[0].replace("\"geometric\"", "\"measured\""),
                mea_lines[0],
                "headers differ only in the pricing basis"
            );
            assert_eq!(geo_lines[1..], mea_lines[1..], "trace bodies diverged");
        }
    }
}

/// The same ×1 guarantee at the aggregate level: a whole multi-seed
/// ideal-channel experiment produces identical aggregates under either
/// basis (the invariant the `phy` benchmark's drift check enforces in CI).
#[test]
fn ideal_experiment_aggregates_are_identical_across_bases() {
    let scenario = Scenario {
        name: "measured-ideal".to_owned(),
        node_count: 25,
        width: 900.0,
        height: 900.0,
        max_range: 500.0,
        trials: 3,
    };
    let policies = policies();
    let geo = phy_lifetime_experiment(
        &scenario,
        &policies,
        PhyProfile::ideal(),
        fast_config(PowerBasis::Geometric),
        7,
    );
    let mea = phy_lifetime_experiment(
        &scenario,
        &policies,
        PhyProfile::ideal(),
        fast_config(PowerBasis::Measured),
        7,
    );
    assert_eq!(geo, mea);
}

/// Measured pricing through the maintained survivor tracker: a whole
/// shadowed, soft-PRR lifetime run reproduces the run over the
/// rebuild-every-epoch oracle bit for bit.
#[test]
fn measured_lifetime_sim_is_bitwise_equal_across_paths() {
    let network = scattered_network(35, 900.0, 0xFEED);
    let config = fast_config(PowerBasis::Measured);
    let mut profile = PhyProfile::shadowed(6.0, 11);
    profile.prr = PrrCurve::paper_transition();
    for policy in policies() {
        for seed in [3u64, 17] {
            let phy = PhyPolicy { policy, profile };
            let a = LifetimeSim::with_builder(network.clone(), &phy, config, seed).run();
            let oracle = RebuildEveryEpoch(phy);
            let b = LifetimeSim::with_builder(network.clone(), &oracle, config, seed).run();
            assert_eq!(a, b, "measured policy {} seed {seed}", policy.label());
            assert!(a.first_death.is_some(), "the run must exercise deaths");
        }
    }
}

/// Tracing never perturbs a measured-pricing run, and the trace header
/// declares the measured basis for the analyzer to surface.
#[test]
fn tracing_never_perturbs_a_measured_run() {
    let network = scattered_network(25, 900.0, 0xACE5);
    let mut profile = PhyProfile::shadowed(8.0, 5);
    profile.prr = PrrCurve::paper_transition();
    let policy = TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS));
    let config = fast_config(PowerBasis::Measured);

    let untraced =
        LifetimeSim::with_builder(network.clone(), &PhyPolicy { policy, profile }, config, 9).run();
    let (traced, jsonl) = traced_phy_run(&network, policy, profile, config, 9);
    assert_eq!(untraced, traced, "tracing must not perturb the run");

    let events = parse_trace(&jsonl).expect("valid JSONL");
    let analysis = analyze(&events).expect("valid trace");
    assert_eq!(analysis.pricing, "measured");
}

/// The headline: under σ = 8 dB independent shadowing with the soft PRR
/// curve, geometric pricing collapses (shadowed links get floor-level
/// PRR, so ARQ burns the battery within the first epochs) while measured
/// pricing — same field, same traffic — keeps the network alive far
/// longer, because every link is priced to what the channel actually
/// demands.
#[test]
fn measured_pricing_unpins_the_sigma8_first_death() {
    let scenario = Scenario {
        name: "sigma8".to_owned(),
        node_count: 30,
        width: 900.0,
        height: 900.0,
        max_range: 500.0,
        trials: 3,
    };
    let mut profile = PhyProfile::shadowed(8.0, 21);
    profile.prr = PrrCurve::paper_transition();
    let policy = [TopologyPolicy::Cbtc(CbtcConfig::all_applicable(
        Alpha::TWO_PI_THIRDS,
    ))];
    let geo = &phy_lifetime_experiment(
        &scenario,
        &policy,
        profile,
        fast_config(PowerBasis::Geometric),
        13,
    )[0];
    let mea = &phy_lifetime_experiment(
        &scenario,
        &policy,
        profile,
        fast_config(PowerBasis::Measured),
        13,
    )[0];
    assert!(
        geo.first_death.mean < 20.0,
        "geometric pricing should collapse under σ = 8 dB, got mean first death {}",
        geo.first_death.mean
    );
    assert!(
        mea.first_death.mean >= 4.0 * geo.first_death.mean,
        "measured pricing must un-pin the first death: measured {} vs geometric {}",
        mea.first_death.mean,
        geo.first_death.mean
    );
}
