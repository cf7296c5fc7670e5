//! The `lifetime` workload: `LifetimeSim` over CBTC(5π/6) with every §3
//! optimization, uniform traffic, run until every node is dead. One
//! epoch (`step()`) is one operation.
//!
//! How long a network lives, and so how many expensive route rebuilds it
//! needs, varies a lot from one random network to the next. A run
//! therefore simulates a series of networks, each with its own layout
//! and traffic seed derived from `--seed`, until the time budget is
//! spent (at least [`MIN_LIFETIMES`]), and reports over the series.
//!
//! Between steps, outside the timed region, the run tracks deaths and
//! partition itself and checks the maintained topology against a
//! from-scratch survivor construction at the first death, at partition
//! and at every [`CHECK_EVERY`]-th death epoch.

use std::time::Instant;

use cbtc_core::parallel::planned_threads;
use cbtc_core::{CbtcConfig, Network, PAR_MIN_CHUNK};
use cbtc_energy::{LifetimeConfig, LifetimeSim, TopologyPolicy};
use cbtc_geom::Alpha;
use cbtc_graph::{NodeId, UndirectedGraph};
use cbtc_metrics::MetricsRegistry;
use cbtc_workloads::RandomPlacement;

use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, sorted, tail};
use crate::Args;

/// Nodes of each network, at the paper's density.
const NODES: usize = 1000;
/// End-to-end packets injected per epoch.
const PACKETS: u32 = 1000;
/// Initial battery of every node.
const ENERGY: f64 = 500_000.0;
/// Death epochs between survivor-rebuild checks.
const CHECK_EVERY: u64 = 20;
/// Fewest networks a run simulates; their outputs form the fingerprint.
const MIN_LIFETIMES: u64 = 4;

fn policy() -> TopologyPolicy {
    TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS))
}

/// The seed of the run's `k`-th network (layout and traffic).
fn network_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k)
}

/// Whether the alive nodes induce a connected subgraph of `g` (fewer
/// than two alive nodes count as partitioned, as in the engine).
fn alive_connected(g: &UndirectedGraph, alive: &[bool]) -> bool {
    let total = alive.iter().filter(|a| **a).count();
    let Some(start) = alive.iter().position(|a| *a) else {
        return false;
    };
    if total < 2 {
        return false;
    }
    let mut seen = vec![false; alive.len()];
    seen[start] = true;
    let mut stack = vec![NodeId::new(start as u32)];
    let mut reached = 1;
    while let Some(u) = stack.pop() {
        for v in g.neighbors(u) {
            if alive[v.index()] && !seen[v.index()] {
                seen[v.index()] = true;
                reached += 1;
                stack.push(v);
            }
        }
    }
    reached == total
}

/// What one full lifetime produced.
struct Lifetime {
    setup_s: f64,
    /// Wall time of every `step()`.
    steps: Vec<f64>,
    deaths: u64,
    death_epochs: u64,
    first_death: u64,
    partition: u64,
    delivered: u64,
    /// Phase sums from the engine's own instruments (observed runs):
    /// traffic, standby, partition check, reconfiguration.
    phases: [f64; 4],
    grid_scan_ratio: f64,
}

impl Lifetime {
    fn seconds(&self) -> f64 {
        self.steps.iter().sum()
    }
}

/// Simulates one network's whole lifetime, checking it on the way.
fn one_lifetime(seed: u64, observed: bool, outcome: &mut Outcome) -> Lifetime {
    let t = Instant::now();
    let side = 1500.0 * (NODES as f64 / 100.0).sqrt();
    let network: Network = RandomPlacement::new(NODES, side, side, 500.0).generate(seed);
    let policy = policy();
    let config = LifetimeConfig {
        initial_energy: ENERGY,
        packets_per_epoch: PACKETS,
        ..LifetimeConfig::paper_default()
    };
    let mut sim = LifetimeSim::new(network.clone(), policy, config, seed);
    let setup_s = t.elapsed().as_secs_f64();
    let registry = if observed {
        MetricsRegistry::enabled()
    } else {
        MetricsRegistry::disabled()
    };
    sim.set_metrics(&registry);

    let alive_mask =
        |sim: &LifetimeSim| -> Vec<bool> { sim.batteries().iter().map(|b| b.is_alive()).collect() };
    let mut partition = (!alive_connected(sim.topology(), &alive_mask(&sim))).then_some(0);
    let mut first_death = None;
    let mut death_epochs = 0u64;
    let mut steps = Vec::with_capacity(512);
    let mut alive_before = sim.alive_count();
    // Epochs that begin with two or more nodes alive carry traffic.
    let mut traffic_epochs = 0u64;
    let mut ok = true;
    loop {
        let epoch = sim.epoch();
        traffic_epochs += u64::from(alive_before >= 2);
        let t = Instant::now();
        let more = sim.step();
        let dt = t.elapsed().as_secs_f64();
        if sim.epoch() == epoch {
            break;
        }
        steps.push(dt);
        if sim.alive_count() < alive_before {
            alive_before = sim.alive_count();
            death_epochs += 1;
            let alive = alive_mask(&sim);
            let mut check = first_death.is_none() || death_epochs.is_multiple_of(CHECK_EVERY);
            first_death = first_death.or(Some(sim.epoch()));
            if partition.is_none() && !alive_connected(sim.topology(), &alive) {
                partition = Some(sim.epoch());
                check = true;
            }
            if check && *sim.topology() != policy.build_on_survivors(&network, &alive) {
                eprintln!(
                    "lifetime: epoch {} topology differs from the survivor rebuild",
                    sim.epoch()
                );
                ok = false;
            }
        }
        if !more {
            break;
        }
    }

    let snap = registry.snapshot();
    let seconds = |name: &str| snap.histogram(name).map_or(0, |h| h.sum) as f64 * 1e-9;
    let phases = [
        seconds("lifetime.nanos.traffic"),
        seconds("lifetime.nanos.standby"),
        seconds("lifetime.nanos.partition"),
        seconds("lifetime.nanos.reconfig"),
    ];
    let scans = snap.counter("reconfig.grid_scans").unwrap_or(0);
    let replays = snap.counter("reconfig.replays").unwrap_or(0);
    let grid_scan_ratio = scans as f64 / (scans + replays).max(1) as f64;

    let deaths = u64::from(NODES as u32 - sim.alive_count());
    let report = sim.run();
    let epochs = steps.len() as u64;
    ok &= u64::from(report.epochs_run) == epochs
        && report.delivered + report.dropped == u64::from(PACKETS) * traffic_epochs
        && report.first_death == first_death
        && report.partition == partition
        && report.all_dead.is_some();
    outcome.attempted += epochs;
    outcome.check(ok, epochs, "lifetime: run disagrees with its checks");
    Lifetime {
        setup_s,
        steps,
        deaths,
        death_epochs,
        first_death: u64::from(first_death.unwrap_or(0)),
        partition: u64::from(partition.unwrap_or(0)),
        delivered: report.delivered,
        phases,
        grid_scan_ratio,
    }
}

/// The `lifetime` workload. A traced run simulates each network twice,
/// bare and then observed, so the observation overhead compares like
/// with like.
pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::new();
    let mut bare: Vec<Lifetime> = Vec::new();
    let mut observed: Vec<Lifetime> = Vec::new();
    let mut spent = 0.0;
    let mut k = 0;
    while spent < args.seconds || k < MIN_LIFETIMES {
        let seed = network_seed(args.seed, k);
        let lifetime = one_lifetime(seed, false, &mut outcome);
        spent += lifetime.seconds();
        if args.trace {
            let watched = one_lifetime(seed, true, &mut outcome);
            spent += watched.seconds();
            outcome.check(
                (watched.death_epochs, watched.delivered)
                    == (lifetime.death_epochs, lifetime.delivered),
                watched.steps.len() as u64,
                "lifetime: the observed run diverged from the bare one",
            );
            observed.push(watched);
        }
        bare.push(lifetime);
        k += 1;
    }

    let first = &bare[0];
    let series = &bare[..MIN_LIFETIMES as usize];
    let sum = |f: fn(&Lifetime) -> u64| series.iter().map(f).sum::<u64>();
    outcome.fingerprint = vec![
        ("epochs", first.steps.len() as u64),
        ("deaths", first.deaths),
        ("death_epochs", first.death_epochs),
        ("first_death", first.first_death),
        ("partition", first.partition),
        ("delivered", first.delivered),
        ("series_epochs", sum(|l| l.steps.len() as u64)),
        ("series_delivered", sum(|l| l.delivered)),
    ];

    let all_steps = |v: &[Lifetime]| {
        sorted(
            &v.iter()
                .flat_map(|l| l.steps.iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    if args.trace {
        let total = |v: &[Lifetime]| v.iter().map(Lifetime::seconds).sum::<f64>();
        let per = |f: fn(&Lifetime) -> f64| median(&observed.iter().map(f).collect::<Vec<_>>());
        let steps = all_steps(&observed);
        outcome.set("obs.overhead_ratio", total(&observed) / total(&bare) - 1.0);
        outcome.set("lifetime.traffic_s", per(|l| l.phases[0]));
        outcome.set("lifetime.standby_s", per(|l| l.phases[1]));
        outcome.set("lifetime.partition_s", per(|l| l.phases[2]));
        outcome.set("lifetime.reconfig_s", per(|l| l.phases[3]));
        outcome.set("lifetime.step_ms.p50", median(&steps) * 1e3);
        outcome.set("lifetime.step_ms.p99", tail(&steps) * 1e3);
        outcome.set("lifetime.grid_scan_ratio", per(|l| l.grid_scan_ratio));
        outcome.set("lifetime.deaths", first.deaths as f64);
        outcome.set("lifetime.death_epochs", first.death_epochs as f64);
        outcome.set("lifetime.first_death", first.first_death as f64);
        outcome.set("lifetime.partition", first.partition as f64);
        outcome.set("lifetime.delivered", first.delivered as f64);
        outcome.set(
            "host.planned_threads",
            planned_threads(NODES, PAR_MIN_CHUNK) as f64,
        );
    } else {
        let epochs: usize = bare.iter().map(|l| l.steps.len()).sum();
        let seconds: f64 = bare.iter().map(Lifetime::seconds).sum();
        outcome.set(
            "setup_s",
            median(&bare.iter().map(|l| l.setup_s).collect::<Vec<_>>()),
        );
        outcome.set("throughput_per_s", epochs as f64 / seconds);
        // A whole lifetime is the answer a caller waits for; the
        // per-epoch tail is what a caller stepping epoch by epoch sees.
        outcome.set(
            "latency_p50_ms",
            median(&bare.iter().map(Lifetime::seconds).collect::<Vec<_>>()) * 1e3,
        );
        outcome.set("latency_tail_ms", tail(&all_steps(&bare)) * 1e3);
        outcome.set("peak_rss_mb", peak_rss_mb());
    }
    outcome
}
