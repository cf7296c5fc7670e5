//! The per-epoch routing fan-out leaves no trace in the results: a
//! lifetime run gives an equal [`LifetimeReport`] whether the epoch's
//! missing trees are built on one thread or across every core.
//!
//! This is a test binary of its own because the thread cap and the
//! fan-out instruments are process-global.

use cbtc_core::parallel::{detected_cores, install_metrics, set_thread_cap, uninstall_metrics};
use cbtc_core::CbtcConfig;
use cbtc_energy::{LifetimeConfig, LifetimeReport, LifetimeSim, TopologyPolicy};
use cbtc_geom::Alpha;
use cbtc_metrics::MetricsRegistry;
use cbtc_workloads::RandomPlacement;

/// Nodes of the network, at the paper's density. One packet per node
/// per epoch makes the first epoch's distinct senders (~63% of the
/// nodes) far more than two fan-out chunks, so it spawns workers.
const NODES: usize = 200;

/// Runs the whole lifetime under `cap`; also returns how many parallel
/// fan-outs the first epoch made.
fn run(cap: Option<usize>) -> (LifetimeReport, u64) {
    let side = 1500.0 * (NODES as f64 / 100.0).sqrt();
    let network = RandomPlacement::new(NODES, side, side, 500.0).generate(7);
    let config = LifetimeConfig {
        initial_energy: 300_000.0,
        packets_per_epoch: NODES as u32,
        max_epochs: 150,
        ..LifetimeConfig::paper_default()
    };
    let policy = TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS));
    set_thread_cap(cap);
    let mut sim = LifetimeSim::new(network, policy, config, 3);
    // Only the first epoch is instrumented: no node dies in it, so the
    // routing fan-out is its only parallel map.
    let registry = MetricsRegistry::enabled();
    install_metrics(&registry);
    sim.step();
    uninstall_metrics();
    assert_eq!(
        sim.alive_count(),
        NODES as u32,
        "the first epoch kills no one"
    );
    let report = sim.run();
    set_thread_cap(None);
    let fan_outs = registry.snapshot().counter("par.fan_outs").unwrap_or(0);
    (report, fan_outs)
}

#[test]
fn lifetime_report_is_equal_at_one_thread_and_uncapped() {
    let (one_thread, capped_fan_outs) = run(Some(1));
    let (uncapped, fan_outs) = run(None);
    assert_eq!(capped_fan_outs, 0, "a cap of one thread runs inline");
    if detected_cores() >= 2 {
        assert!(fan_outs >= 1, "the first epoch's trees must fan out");
    }
    assert!(
        one_thread.first_death.is_some(),
        "the run must exercise deaths"
    );
    assert_eq!(one_thread, uncapped);
}
