//! Physical-layer robustness benchmark: the shadowing-σ × node-density
//! sweep behind `BENCH_phy.json`.
//!
//! ```sh
//! cargo run --release -p cbtc-bench --bin phy \
//!     [-- --trials 30 --sizes 50,100,200 --sigmas 0,2,4,6,8 \
//!         --protocol-nodes 100 --protocol-seeds 2 \
//!         --lifetime-sigmas 0,4,8 --lifetime-trials 10 \
//!         --ideal-trials 100 --seed 0 --json BENCH_phy.json]
//! ```
//!
//! Six sections:
//!
//! * `construction` — P(final graph preserves reach-graph connectivity)
//!   per (σ, n), plus link asymmetry, degree, the pairwise-guard rate and
//!   power stretch;
//! * `protocol` — distributed Hello/Ack overhead under the full
//!   stochastic stack (fading, soft PRR, SINR interference, CSMA),
//!   with desynchronized-start columns showing how much collision loss
//!   and backoff per-node start jitter removes;
//! * `lifetime` — lifetime aggregates with retransmission energy charged,
//!   per σ (the σ = 0 row uses the soft-PRR lossy profile at zero
//!   shadowing; links at the margin already retransmit);
//! * `margin` — the link-margin sweep at `--margin-sigma` dB shadowing:
//!   the measured answer to the margin-free 0.04× lifetime collapse —
//!   each row prices every power-controlled hop `+m` dB above its
//!   minimum and reports the first-death/partition factors vs max power;
//! * `measured_pricing` — the same sweep re-priced on
//!   `PowerBasis::Measured` (per-hop power from the channel's effective
//!   distance instead of the geometric one), sharing the max-power
//!   baseline; also runs a reduced-scale ideal-channel drift check
//!   (measured ≡ geometric bit for bit, aborts on drift) and, with
//!   `--comparison-table PATH`, writes a geometric-vs-measured markdown
//!   table for artifact upload;
//! * `ideal_check` — the **σ = 0 / PRR = 1** configuration run through
//!   the entire phy pipeline on the exact `BENCH_lifetime.json` setup
//!   (paper scenario, same five policies, same seeds): its aggregates
//!   must reproduce that benchmark's statistics **bit for bit**.
//!
//! Pass `--ideal-trials 0` to skip the (slow) ideal check, e.g. in CI
//! smoke runs.

use std::time::Instant;

use cbtc_bench::Args;
use cbtc_core::CbtcConfig;
use cbtc_energy::{phy_lifetime_experiment, LifetimeAggregate, LifetimeConfig, TopologyPolicy};
use cbtc_geom::Alpha;
use cbtc_phy::{PhyProfile, PrrCurve};
use cbtc_radio::PowerBasis;
use cbtc_workloads::{
    phy_construction_probe, phy_protocol_probe, PhyConstructionStats, PhyProtocolStats, Scenario,
};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct LifetimeRow {
    sigma_db: f64,
    profile: PhyProfile,
    aggregate: LifetimeAggregate,
    /// First-death factor versus the same σ's max-power row.
    first_death_factor: f64,
    partition_factor: f64,
}

#[derive(Debug, Serialize)]
struct IdealCheckRow {
    aggregate: LifetimeAggregate,
    first_death_factor: f64,
    partition_factor: f64,
}

#[derive(Debug, Serialize)]
struct MarginRow {
    margin_db: f64,
    sigma_db: f64,
    aggregate: LifetimeAggregate,
    /// First-death factor versus the same margin's max-power row.
    first_death_factor: f64,
    partition_factor: f64,
}

/// The measured-pricing re-run of the margin sweep: every
/// power-controlled hop priced from the *effective* distance the channel
/// reported instead of the geometric one, same max-power baseline.
#[derive(Debug, Serialize)]
struct MeasuredPricingSection {
    sigma_db: f64,
    /// Whether the reduced-scale ideal-channel drift check ran (it
    /// asserts measured ≡ geometric bit-for-bit and aborts on drift).
    ideal_drift_checked: bool,
    rows: Vec<MarginRow>,
}

#[derive(Debug, Serialize)]
struct BenchDoc {
    seed: u64,
    alpha: String,
    construction_trials: u32,
    construction: Vec<PhyConstructionStats>,
    protocol_jitter: u64,
    protocol: Vec<PhyProtocolStats>,
    lifetime_scenario: Scenario,
    lifetime: Vec<LifetimeRow>,
    margin_sigma_db: f64,
    /// The shared max-power baseline of the margin sweep (hop power is
    /// already maximal there, so the margin cannot change it).
    margin_baseline: Option<LifetimeAggregate>,
    margin: Vec<MarginRow>,
    /// Margin sweep re-priced on [`PowerBasis::Measured`]; shares
    /// `margin_baseline` (max power ignores the pricing basis).
    measured_pricing: Option<MeasuredPricingSection>,
    ideal_check_trials: u32,
    /// Must match `BENCH_lifetime.json`'s `configs[*].aggregate`
    /// bit-for-bit when run with the same trials/seed.
    ideal_check: Vec<IdealCheckRow>,
    wall_seconds: f64,
}

fn main() {
    let args = Args::capture();
    let seed: u64 = args.get("seed", 0);
    let trials: u32 = args.get("trials", 30);
    let sigmas = args.get_list("sigmas", &[0.0, 2.0, 4.0, 6.0, 8.0]);
    let sizes: Vec<usize> = args.get_list("sizes", &[50, 100, 200]);
    let protocol_nodes: usize = args.get("protocol-nodes", 100);
    let protocol_seeds: u64 = args.get("protocol-seeds", 2);
    let lifetime_sigmas = args.get_list("lifetime-sigmas", &[0.0, 4.0, 8.0]);
    let lifetime_trials: u32 = args.get("lifetime-trials", 10);
    let margins = args.get_list("margins", &[0.0, 3.0, 6.0, 9.0]);
    let margin_sigma: f64 = args.get("margin-sigma", 8.0);
    let jitter: u64 = args.get("jitter", 16);
    let hello_margin: f64 = args.get("hello-margin", 0.0);
    let ideal_trials: u32 = args.get("ideal-trials", 100);

    let alpha = Alpha::TWO_PI_THIRDS;
    let config = CbtcConfig::all_applicable(alpha);
    let start = Instant::now();

    // ── construction sweep ──────────────────────────────────────────
    println!("phy construction sweep — CBTC({alpha}) all optimizations, {trials} trials/point\n");
    println!(
        "{:>6} {:>6} {:>10} {:>10} {:>8} {:>8} {:>9} {:>9}",
        "σ", "nodes", "base conn", "preserved", "asym %", "avg deg", "guarded", "stretch"
    );
    let mut construction = Vec::new();
    for &nodes in &sizes {
        let mut scenario = Scenario::paper_default();
        scenario.name = format!("phy-{nodes}");
        scenario.node_count = nodes;
        scenario.trials = trials;
        for &sigma in &sigmas {
            let stats = phy_construction_probe(&scenario, sigma, &config, seed);
            println!(
                "{:>6.1} {:>6} {:>7}/{:<2} {:>7}/{:<2} {:>7.1}% {:>8.2} {:>9.2} {:>9.3}",
                sigma,
                stats.nodes,
                stats.base_connected,
                stats.trials,
                stats.preserved,
                stats.trials,
                stats.asymmetric_link_fraction * 100.0,
                stats.mean_degree,
                stats.pairwise_restored_mean,
                stats.power_stretch_mean,
            );
            construction.push(stats);
        }
    }

    // ── distributed-protocol overhead ───────────────────────────────
    println!(
        "\nprotocol overhead — {protocol_nodes} nodes, full stack (fading, soft PRR, SINR, \
         CSMA), {protocol_seeds} seeds/σ; jit columns = ±{jitter}-tick start jitter\n"
    );
    println!(
        "{:>6} {:>6} {:>12} {:>12} {:>9} {:>9} {:>10} {:>9} {:>10}",
        "σ",
        "seed",
        "ideal bc/n",
        "phy bc/n",
        "overhead",
        "phy loss",
        "backoff/n",
        "jit loss",
        "jit bkf/n"
    );
    let mut protocol = Vec::new();
    let protocol_scenario = Scenario::paper_default();
    for &sigma in &sigmas {
        for s in 0..protocol_seeds {
            let profile = PhyProfile::realistic(sigma, seed ^ s);
            let stats = phy_protocol_probe(
                protocol_nodes,
                &protocol_scenario,
                &profile,
                jitter,
                hello_margin,
                PowerBasis::Geometric,
                seed + s,
            );
            println!(
                "{:>6.1} {:>6} {:>12.2} {:>12.2} {:>8.2}x {:>8.1}% {:>10.2} {:>8.1}% {:>10.2}",
                sigma,
                seed + s,
                stats.ideal_broadcasts_per_node,
                stats.phy_broadcasts_per_node,
                stats.hello_overhead,
                stats.phy_lost_fraction * 100.0,
                stats.csma_deferrals_per_node,
                stats.jitter_phy_lost_fraction * 100.0,
                stats.jitter_csma_deferrals_per_node,
            );
            protocol.push(stats);
        }
    }

    // ── lifetime with retransmission energy ─────────────────────────
    let mut lifetime_scenario = Scenario::paper_default();
    lifetime_scenario.name = "phy-lifetime".to_owned();
    lifetime_scenario.trials = lifetime_trials;
    let lifetime_config = LifetimeConfig::paper_default();
    // The one CBTC configuration the lifetime table and the margin sweep
    // both exercise — named once so the two sections can never drift
    // apart.
    let cbtc_policy = TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS));
    let lifetime_policies = [TopologyPolicy::MaxPower, cbtc_policy];
    println!(
        "\nlifetime with retransmission energy — {} nodes × {lifetime_trials} trials, soft PRR\n",
        lifetime_scenario.node_count
    );
    println!(
        "{:>6} {:<28} {:>16} {:>7} {:>16} {:>7}",
        "σ", "configuration", "first death", "×", "partition", "×"
    );
    let mut lifetime = Vec::new();
    for &sigma in &lifetime_sigmas {
        let mut profile = PhyProfile::shadowed(sigma, seed);
        profile.prr = PrrCurve::paper_transition();
        let aggregates = phy_lifetime_experiment(
            &lifetime_scenario,
            &lifetime_policies,
            profile,
            lifetime_config,
            seed,
        );
        let baseline = aggregates.first().expect("max power row").clone();
        for aggregate in aggregates {
            let first_death_factor =
                aggregate.first_death.mean / baseline.first_death.mean.max(1.0);
            let partition_factor = aggregate.partition.mean / baseline.partition.mean.max(1.0);
            println!(
                "{:>6.1} {:<28} {:>9.1} ±{:<5.1} {:>6.2}x {:>9.1} ±{:<5.1} {:>6.2}x",
                sigma,
                aggregate.policy,
                aggregate.first_death.mean,
                aggregate.first_death.std,
                first_death_factor,
                aggregate.partition.mean,
                aggregate.partition.std,
                partition_factor,
            );
            lifetime.push(LifetimeRow {
                sigma_db: sigma,
                profile,
                aggregate,
                first_death_factor,
                partition_factor,
            });
        }
    }

    // ── the link-margin sweep ───────────────────────────────────────
    // The margin-free rows above show CBTC's power control inverting its
    // lifetime advantage under a soft PRR (links parked at PRR ≈ 0.5).
    // Here every power-controlled hop is priced `+m` dB above its
    // minimum. The max-power baseline ignores the margin entirely (hops
    // already use max power), so it is computed once and shared by every
    // row.
    let mut margin = Vec::new();
    let mut measured_pricing = None;
    let mut margin_baseline = None;
    if !margins.is_empty() && lifetime_trials > 0 {
        println!(
            "\nlink-margin sweep — σ = {margin_sigma} dB shadowing, soft PRR, \
             {lifetime_trials} trials/margin\n"
        );
        println!(
            "{:>8} {:<28} {:>16} {:>7} {:>16} {:>7}",
            "margin", "configuration", "first death", "×", "partition", "×"
        );
        let mut profile = PhyProfile::shadowed(margin_sigma, seed);
        profile.prr = PrrCurve::paper_transition();
        let baseline = phy_lifetime_experiment(
            &lifetime_scenario,
            &[TopologyPolicy::MaxPower],
            profile,
            lifetime_config,
            seed,
        )
        .pop()
        .expect("max power row");
        println!(
            "{:>8} {:<28} {:>9.1} ±{:<5.1} {:>6.2}x {:>9.1} ±{:<5.1} {:>6.2}x",
            "any",
            baseline.policy,
            baseline.first_death.mean,
            baseline.first_death.std,
            1.0,
            baseline.partition.mean,
            baseline.partition.std,
            1.0,
        );
        let cbtc_only = [cbtc_policy];
        // The same sweep under either pricing basis; the max-power
        // baseline prices nothing (hops already run at max power), so
        // both sweeps share it.
        let sweep = |basis: PowerBasis| -> Vec<MarginRow> {
            let mut rows = Vec::new();
            for &m in &margins {
                let mut config = lifetime_config;
                config.energy = config.energy.with_link_margin_db(m).with_power_basis(basis);
                let aggregates =
                    phy_lifetime_experiment(&lifetime_scenario, &cbtc_only, profile, config, seed);
                for aggregate in aggregates {
                    let first_death_factor =
                        aggregate.first_death.mean / baseline.first_death.mean.max(1.0);
                    let partition_factor =
                        aggregate.partition.mean / baseline.partition.mean.max(1.0);
                    println!(
                        "{:>6.1}dB {:<28} {:>9.1} ±{:<5.1} {:>6.2}x {:>9.1} ±{:<5.1} {:>6.2}x",
                        m,
                        aggregate.policy,
                        aggregate.first_death.mean,
                        aggregate.first_death.std,
                        first_death_factor,
                        aggregate.partition.mean,
                        aggregate.partition.std,
                        partition_factor,
                    );
                    rows.push(MarginRow {
                        margin_db: m,
                        sigma_db: margin_sigma,
                        aggregate,
                        first_death_factor,
                        partition_factor,
                    });
                }
            }
            rows
        };
        margin = sweep(PowerBasis::Geometric);

        // ── measured pricing: same field, same traffic, hops priced on
        // the effective distance the channel actually demanded ─────────
        println!(
            "\nmeasured-pricing margin sweep — σ = {margin_sigma} dB shadowing, soft PRR, \
             {lifetime_trials} trials/margin (same max-power baseline)\n"
        );
        println!(
            "{:>8} {:<28} {:>16} {:>7} {:>16} {:>7}",
            "margin", "configuration", "first death", "×", "partition", "×"
        );
        let measured_rows = sweep(PowerBasis::Measured);

        // Reduced-scale ideal-channel drift check: measured pricing on
        // the ideal channel must reproduce geometric pricing **bit for
        // bit** (the exact-×1 contract the pricing seam is built on).
        // Cheap enough to run on every invocation, including CI smoke.
        let drift_scenario = Scenario {
            name: "ideal-drift".to_owned(),
            node_count: 25,
            trials: 3,
            ..Scenario::paper_default()
        };
        let drift_config = |basis: PowerBasis| {
            let mut config = LifetimeConfig {
                initial_energy: 150_000.0,
                packets_per_epoch: 20,
                max_epochs: 3_000,
                ..LifetimeConfig::paper_default()
            };
            config.energy = config.energy.with_power_basis(basis);
            config
        };
        let drift_policies = [TopologyPolicy::MaxPower, cbtc_policy];
        let geo = phy_lifetime_experiment(
            &drift_scenario,
            &drift_policies,
            PhyProfile::ideal(),
            drift_config(PowerBasis::Geometric),
            seed,
        );
        let mea = phy_lifetime_experiment(
            &drift_scenario,
            &drift_policies,
            PhyProfile::ideal(),
            drift_config(PowerBasis::Measured),
            seed,
        );
        assert_eq!(
            geo, mea,
            "measured pricing drifted from geometric on the ideal channel"
        );
        println!("\nideal-channel drift check — measured ≡ geometric: ok");

        // Optional side-by-side σ-comparison table (markdown, for CI
        // artifact upload).
        let table_path: String = args.get("comparison-table", String::new());
        if !table_path.is_empty() {
            let mut table = String::new();
            table.push_str(&format!(
                "# Geometric vs measured pricing — σ = {margin_sigma} dB shadowing, soft PRR, \
                 {lifetime_trials} trials/margin\n\n"
            ));
            table.push_str(&format!(
                "Max-power baseline: first death {:.1} ± {:.1}, partition {:.1} ± {:.1}\n\n",
                baseline.first_death.mean,
                baseline.first_death.std,
                baseline.partition.mean,
                baseline.partition.std,
            ));
            table.push_str(
                "| margin (dB) | geo first death | geo × | meas first death | meas × | \
                 geo partition | meas partition |\n\
                 |---:|---:|---:|---:|---:|---:|---:|\n",
            );
            for (g, m) in margin.iter().zip(&measured_rows) {
                table.push_str(&format!(
                    "| {:.1} | {:.1} ± {:.1} | {:.2}x | {:.1} ± {:.1} | {:.2}x | {:.1} | {:.1} |\n",
                    g.margin_db,
                    g.aggregate.first_death.mean,
                    g.aggregate.first_death.std,
                    g.first_death_factor,
                    m.aggregate.first_death.mean,
                    m.aggregate.first_death.std,
                    m.first_death_factor,
                    g.aggregate.partition.mean,
                    m.aggregate.partition.mean,
                ));
            }
            std::fs::write(&table_path, table).expect("write comparison table");
            println!("wrote {table_path}");
        }

        measured_pricing = Some(MeasuredPricingSection {
            sigma_db: margin_sigma,
            ideal_drift_checked: true,
            rows: measured_rows,
        });
        margin_baseline = Some(baseline);
    }

    // ── the σ = 0 / PRR = 1 ideal check ─────────────────────────────
    let mut ideal_check = Vec::new();
    if ideal_trials > 0 {
        let mut scenario = Scenario::paper_default();
        scenario.trials = ideal_trials;
        let a56 = Alpha::FIVE_PI_SIXTHS;
        let a23 = Alpha::TWO_PI_THIRDS;
        // Exactly the BENCH_lifetime policy set, in its order.
        let policies = [
            TopologyPolicy::MaxPower,
            TopologyPolicy::Cbtc(CbtcConfig::new(a56)),
            TopologyPolicy::Cbtc(CbtcConfig::new(a56).with_shrink_back()),
            TopologyPolicy::Cbtc(CbtcConfig::all_applicable(a56)),
            TopologyPolicy::Cbtc(CbtcConfig::all_applicable(a23)),
        ];
        println!(
            "\nideal check — σ = 0 / PRR = 1 through the phy pipeline on the BENCH_lifetime \
             setup ({ideal_trials} trials); must be bit-identical to BENCH_lifetime.json\n"
        );
        let aggregates = phy_lifetime_experiment(
            &scenario,
            &policies,
            PhyProfile::ideal(),
            LifetimeConfig::paper_default(),
            0,
        );
        let baseline = aggregates.first().expect("max power row").clone();
        println!(
            "{:<28} {:>16} {:>7} {:>16} {:>7}",
            "configuration", "first death", "×", "partition", "×"
        );
        for aggregate in aggregates {
            let first_death_factor =
                aggregate.first_death.mean / baseline.first_death.mean.max(1.0);
            let partition_factor = aggregate.partition.mean / baseline.partition.mean.max(1.0);
            println!(
                "{:<28} {:>9.1} ±{:<5.1} {:>6.2}x {:>9.1} ±{:<5.1} {:>6.2}x",
                aggregate.policy,
                aggregate.first_death.mean,
                aggregate.first_death.std,
                first_death_factor,
                aggregate.partition.mean,
                aggregate.partition.std,
                partition_factor,
            );
            ideal_check.push(IdealCheckRow {
                aggregate,
                first_death_factor,
                partition_factor,
            });
        }
    }

    let wall = start.elapsed().as_secs_f64();
    println!("\ncompleted in {wall:.2}s");

    if !args.has("no-json") {
        let path: String = args.get("json", "BENCH_phy.json".to_owned());
        let doc = BenchDoc {
            seed,
            alpha: format!("{alpha}"),
            construction_trials: trials,
            construction,
            protocol_jitter: jitter,
            protocol,
            lifetime_scenario,
            lifetime,
            margin_sigma_db: margin_sigma,
            margin_baseline,
            margin,
            measured_pricing,
            ideal_check_trials: ideal_trials,
            ideal_check,
            wall_seconds: wall,
        };
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&doc).expect("serializable"),
        )
        .expect("write json");
        println!("wrote {path}");
    }
}
