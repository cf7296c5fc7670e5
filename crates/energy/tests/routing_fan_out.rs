//! The lifetime fan-outs leave no trace in the results: a lifetime run
//! gives an equal [`LifetimeReport`] whether the epoch's missing trees
//! are built on one thread or across every core, and so does a
//! multi-seed [`run_trials`].
//!
//! This is a test binary of its own because the thread cap and the
//! fan-out instruments are process-global; its tests take turns.

use std::sync::{Mutex, MutexGuard};

use cbtc_core::parallel::{detected_cores, install_metrics, set_thread_cap, uninstall_metrics};
use cbtc_core::CbtcConfig;
use cbtc_energy::{run_trials, LifetimeConfig, LifetimeReport, LifetimeSim, TopologyPolicy};
use cbtc_geom::Alpha;
use cbtc_metrics::MetricsRegistry;
use cbtc_workloads::RandomPlacement;

/// Serializes the tests: each sets the process-global cap and installs
/// the process-global fan-out instruments.
fn take_globals() -> MutexGuard<'static, ()> {
    static GLOBALS: Mutex<()> = Mutex::new(());
    GLOBALS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

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
    let _globals = take_globals();
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

/// Runs four seeds' trials under `cap`; also returns how many parallel
/// fan-outs the whole call made.
fn trials(cap: Option<usize>) -> (Vec<LifetimeReport>, u64) {
    let config = LifetimeConfig::smoke();
    let policy = TopologyPolicy::Cbtc(CbtcConfig::new(Alpha::FIVE_PI_SIXTHS));
    set_thread_cap(cap);
    let registry = MetricsRegistry::enabled();
    install_metrics(&registry);
    let reports = run_trials(
        |seed| RandomPlacement::new(30, 1000.0, 1000.0, 500.0).generate(seed),
        policy,
        config,
        &[1, 2, 3, 4],
    );
    uninstall_metrics();
    set_thread_cap(None);
    let fan_outs = registry.snapshot().counter("par.fan_outs").unwrap_or(0);
    (reports, fan_outs)
}

#[test]
fn run_trials_is_equal_at_one_thread_and_uncapped() {
    let _globals = take_globals();
    let (one_thread, capped_fan_outs) = trials(Some(1));
    let (uncapped, fan_outs) = trials(None);
    assert_eq!(capped_fan_outs, 0, "a cap of one thread runs inline");
    if detected_cores() >= 2 {
        assert!(fan_outs >= 1, "the seeds must fan out through par_map");
    }
    assert_eq!(one_thread.len(), 4);
    assert_eq!(one_thread, uncapped);
}
