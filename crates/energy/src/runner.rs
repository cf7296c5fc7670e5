//! Multi-seed lifetime experiments, run across OS threads.
//!
//! The paper's evaluation methodology (§5) averages every measurement
//! over 100 random networks; lifetime experiments inherit that protocol.
//! [`run_trials`] fans independent seeds out through
//! [`cbtc_core::parallel::par_map`], one trial per item, and
//! [`aggregate`] reduces the reports to mean / standard deviation / 95%
//! confidence intervals.

use cbtc_core::parallel::par_map;
use cbtc_core::Network;
use cbtc_workloads::{RandomPlacement, Scenario};
use serde::{Deserialize, Serialize};

use crate::{LifetimeConfig, LifetimeReport, LifetimeSim, TopologyPolicy};

/// Mean, sample standard deviation and 95% confidence half-width of one
/// metric over trials.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than two trials).
    pub std: f64,
    /// Half-width of the normal-approximation 95% confidence interval.
    pub ci95: f64,
}

impl Summary {
    /// Summarizes a sample.
    pub fn of(samples: &[f64]) -> Summary {
        let n = samples.len() as f64;
        if samples.is_empty() {
            return Summary {
                mean: 0.0,
                std: 0.0,
                ci95: 0.0,
            };
        }
        let mean = samples.iter().sum::<f64>() / n;
        if samples.len() < 2 {
            return Summary {
                mean,
                std: 0.0,
                ci95: 0.0,
            };
        }
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let std = var.sqrt();
        Summary {
            mean,
            std,
            ci95: 1.96 * std / n.sqrt(),
        }
    }
}

/// Aggregated lifetime metrics of one policy over many random networks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifetimeAggregate {
    /// Policy display label.
    pub policy: String,
    /// Number of trials aggregated.
    pub trials: u32,
    /// Epoch of the first node death (censored at the run length when no
    /// node died).
    pub first_death: Summary,
    /// Epoch of the first partition of the surviving topology (censored
    /// at the run length when it never partitioned).
    pub partition: Summary,
    /// Fraction of injected packets that were delivered.
    pub delivered_ratio: Summary,
    /// Coefficient of variation of per-node drained energy at first
    /// death (energy balance; lower is more even).
    pub energy_balance_cv: Summary,
    /// Trials in which no node died before the epoch cap.
    pub censored_first_death: u32,
    /// Trials in which the topology never partitioned before the cap.
    pub censored_partition: u32,
}

/// Reduces per-trial reports to a [`LifetimeAggregate`].
pub fn aggregate(reports: &[LifetimeReport]) -> LifetimeAggregate {
    let metric = |f: &dyn Fn(&LifetimeReport) -> f64| -> Summary {
        Summary::of(&reports.iter().map(f).collect::<Vec<f64>>())
    };
    LifetimeAggregate {
        policy: reports
            .first()
            .map(|r| r.policy.clone())
            .unwrap_or_default(),
        trials: reports.len() as u32,
        first_death: metric(&|r| r.first_death_or_censored() as f64),
        partition: metric(&|r| r.partition_or_censored() as f64),
        delivered_ratio: metric(&|r| r.delivered_ratio()),
        energy_balance_cv: metric(&|r| r.energy_balance_cv),
        censored_first_death: reports.iter().filter(|r| r.first_death.is_none()).count() as u32,
        censored_partition: reports.iter().filter(|r| r.partition.is_none()).count() as u32,
    }
}

/// Runs one lifetime trial per seed, in parallel across OS threads, and
/// returns the reports in seed order.
///
/// `make_network` must be deterministic in the seed (it is called on
/// worker threads).
pub fn run_trials<F>(
    make_network: F,
    policy: TopologyPolicy,
    config: LifetimeConfig,
    seeds: &[u64],
) -> Vec<LifetimeReport>
where
    F: Fn(u64) -> Network + Sync,
{
    run_trials_with(
        make_network,
        |network, seed| LifetimeSim::new(network, policy, config, seed),
        seeds,
    )
}

/// [`run_trials`] with an arbitrary per-trial simulation factory — the
/// generalization the phy experiments use to inject
/// [`crate::TopologyBuilder`]/[`crate::LinkReliability`] implementations.
///
/// The seeds fan out through [`par_map`], one trial per item, so
/// [`cbtc_core::parallel::set_thread_cap`] bounds the workers and each
/// trial's own parallel maps run inline inside a worker. `make_sim` must
/// be deterministic in its inputs (it runs on worker threads in
/// unspecified order; reports are returned in seed order).
pub fn run_trials_with<F, S>(make_network: F, make_sim: S, seeds: &[u64]) -> Vec<LifetimeReport>
where
    F: Fn(u64) -> Network + Sync,
    S: Fn(Network, u64) -> LifetimeSim + Sync,
{
    par_map(seeds, 1, |&seed| make_sim(make_network(seed), seed).run())
}

/// Runs a whole lifetime experiment: every policy over the scenario's
/// random networks (seeds `base_seed .. base_seed + trials`), aggregated.
///
/// # Example
///
/// ```
/// use cbtc_energy::{lifetime_experiment, LifetimeConfig, TopologyPolicy};
/// use cbtc_core::CbtcConfig;
/// use cbtc_geom::Alpha;
/// use cbtc_workloads::Scenario;
///
/// let mut scenario = Scenario::smoke();
/// scenario.trials = 2;
/// let results = lifetime_experiment(
///     &scenario,
///     &[
///         TopologyPolicy::MaxPower,
///         TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS)),
///     ],
///     LifetimeConfig::smoke(),
///     0,
/// );
/// assert_eq!(results.len(), 2);
/// assert!(results[1].first_death.mean >= results[0].first_death.mean);
/// ```
pub fn lifetime_experiment(
    scenario: &Scenario,
    policies: &[TopologyPolicy],
    config: LifetimeConfig,
    base_seed: u64,
) -> Vec<LifetimeAggregate> {
    let generator = RandomPlacement::from_scenario(scenario);
    let seeds: Vec<u64> = scenario.seeds(base_seed).collect();
    policies
        .iter()
        .map(|&policy| {
            let reports = run_trials(|seed| generator.generate(seed), policy, config, &seeds);
            aggregate(&reports)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtc_core::CbtcConfig;
    use cbtc_geom::Alpha;

    fn tiny_scenario() -> Scenario {
        let mut s = Scenario::smoke();
        s.trials = 3;
        s
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::of(&[2.0, 4.0, 6.0]);
        assert_eq!(s.mean, 4.0);
        assert!((s.std - 2.0).abs() < 1e-12);
        assert!(s.ci95 > 0.0);
        assert_eq!(Summary::of(&[]).mean, 0.0);
        assert_eq!(Summary::of(&[5.0]).std, 0.0);
    }

    #[test]
    fn trials_are_deterministic_and_ordered() {
        let scenario = tiny_scenario();
        let generator = RandomPlacement::from_scenario(&scenario);
        let seeds: Vec<u64> = scenario.seeds(7).collect();
        let config = LifetimeConfig::smoke();
        let a = run_trials(
            |s| generator.generate(s),
            TopologyPolicy::MaxPower,
            config,
            &seeds,
        );
        let b = run_trials(
            |s| generator.generate(s),
            TopologyPolicy::MaxPower,
            config,
            &seeds,
        );
        assert_eq!(a, b, "parallel fan-out must not change results");
        assert_eq!(a.len(), seeds.len());
        for (report, seed) in a.iter().zip(&seeds) {
            assert_eq!(report.seed, *seed, "seed order must be preserved");
        }
    }

    #[test]
    fn experiment_shows_cbtc_outliving_max_power() {
        let results = lifetime_experiment(
            &tiny_scenario(),
            &[
                TopologyPolicy::MaxPower,
                TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS)),
            ],
            LifetimeConfig::smoke(),
            11,
        );
        assert_eq!(results.len(), 2);
        let (max_power, cbtc) = (&results[0], &results[1]);
        assert_eq!(max_power.trials, 3);
        assert!(
            cbtc.first_death.mean > max_power.first_death.mean,
            "CBTC {} vs max power {}",
            cbtc.first_death.mean,
            max_power.first_death.mean
        );
        assert!(cbtc.partition.mean >= max_power.partition.mean);
    }
}
