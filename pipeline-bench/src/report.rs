//! What a workload hands back, the metric catalogue, the result line,
//! and the per-seed determinism fingerprints.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Every end-to-end metric, `(name, unit)`. Each workload reports all of
/// them; see the crate docs for what each means per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Every per-layer metric, `(name, unit)`. Names under a workload prefix
/// (`construct.`, `construct_phy.`, `serve.`, `lifetime.`) describe layers
/// only that workload drives; the other workloads report them as `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Generic: every workload.
    ("failed_ratio", "ratio"),
    ("obs.overhead_ratio", "ratio"),
    ("host.nproc", "count"),
    ("host.thread_cap", "count"),
    ("host.planned_threads", "count"),
    // construct: CBTC(5π/6) + §3 at 100k nodes, phase by phase.
    ("construct.grid_build_s", "s"),
    ("construct.grow_s", "s"),
    ("construct.par_busy_ratio", "ratio"),
    ("construct.shrink_back_s", "s"),
    ("construct.closure_s", "s"),
    ("construct.pairwise_s", "s"),
    ("construct.unaccounted_s", "s"),
    ("construct.closure_edges", "count"),
    ("construct.pairwise_removed", "count"),
    ("construct.final_edges", "count"),
    // construct_phy: ack-gated grow + guarded §3 under σ = 8 dB.
    ("construct_phy.grow_s", "s"),
    ("construct_phy.par_busy_ratio", "ratio"),
    ("construct_phy.optimize_s", "s"),
    ("construct_phy.unaccounted_s", "s"),
    ("construct_phy.pairwise_restored", "count"),
    ("construct_phy.final_edges", "count"),
    // serve: DeltaTopology::apply under an open-loop event stream.
    ("serve.apply_us.p50", "us"),
    ("serve.apply_us.p99", "us"),
    ("serve.regrown_per_event", "ratio"),
    ("serve.grid_scan_ratio", "ratio"),
    ("serve.affected.p99", "count"),
    ("serve.edge_churn_per_event", "ratio"),
    ("serve.wait_us.p50", "us"),
    ("serve.wait_us.p99", "us"),
    ("serve.batch_size.mean.backlogged", "count"),
    ("serve.batch_size.mean.open_loop", "count"),
    ("serve.p99_us", "us"),
    ("serve.p999_us", "us"),
    ("serve.gen_late_us.p99", "us"),
    ("serve.backlog_end", "count"),
    // lifetime: LifetimeSim epochs until every node is dead.
    ("lifetime.traffic_s", "s"),
    ("lifetime.standby_s", "s"),
    ("lifetime.partition_s", "s"),
    ("lifetime.reconfig_s", "s"),
    ("lifetime.step_ms.p50", "ms"),
    ("lifetime.step_ms.p99", "ms"),
    ("lifetime.grid_scan_ratio", "ratio"),
    ("lifetime.deaths", "count"),
    ("lifetime.death_epochs", "count"),
    ("lifetime.first_death", "count"),
    ("lifetime.partition", "count"),
    ("lifetime.delivered", "count"),
];

/// One workload run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: constructions, events or epochs.
    pub attempted: u64,
    /// Operations whose check failed, that missed their latency limit,
    /// or that belong to a run whose final-state check failed.
    pub failed: u64,
    /// Whether every output check passed.
    pub correct: bool,
    /// Measured values by metric name (end-to-end or per-layer,
    /// depending on the run's mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Exact counts that must repeat for a seed.
    pub fingerprint: Vec<(&'static str, u64)>,
}

impl Outcome {
    /// An outcome with no failures yet.
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records an output check: a failed check marks the run incorrect
    /// and charges `ops` failed operations.
    pub fn check(&mut self, ok: bool, ops: u64, what: &str) {
        if !ok {
            eprintln!("check failed: {what}");
            self.correct = false;
            self.failed += ops;
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
///
/// # Panics
///
/// Panics when `/proc/self/status` is unreadable (the benchmark needs
/// Linux's process accounting).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// The result line: exactly the catalogue of the run's mode, each value
/// with its unit.
///
/// # Panics
///
/// Panics when the workload left an end-to-end metric unmeasured, or
/// when a value is not finite — both are bugs in the workload.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|&(name, unit)| {
            let value = match outcome.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => panic!("workload did not measure end-to-end metric {name}"),
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Where fingerprints live: next to the benchmark's own executable, in
/// the build directory, so they persist between runs of one checkout.
fn fingerprint_path(key: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.join("pipeline-bench-fingerprints").join(key))
}

/// Renders a fingerprint as `name value` lines.
pub fn render_fingerprint(fingerprint: &[(&str, u64)]) -> String {
    fingerprint
        .iter()
        .map(|(name, value)| format!("{name} {value}\n"))
        .collect()
}

/// Compares the run's fingerprint with the one an earlier run of the
/// same key stored, storing it when there is none. Returns `false` only
/// on a mismatch.
pub fn fingerprint_matches(key: &str, fingerprint: &[(&str, u64)]) -> bool {
    let rendered = render_fingerprint(fingerprint);
    let Some(path) = fingerprint_path(key) else {
        eprintln!("warning: no place to store fingerprints; determinism not checked");
        return true;
    };
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier == rendered => true,
        Ok(earlier) => {
            eprintln!("fingerprint {key} differs from an earlier run:\n{earlier}now:\n{rendered}");
            false
        }
        Err(_) => {
            let stored = path
                .parent()
                .map(std::fs::create_dir_all)
                .transpose()
                .and_then(|_| std::fs::write(&path, &rendered));
            if let Err(e) = stored {
                eprintln!(
                    "warning: could not store fingerprint {}: {e}",
                    path.display()
                );
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(unit.len() <= 16);
        }
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let doc = include_str!("../../BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_fills_other_workloads_layers_with_zero() {
        let mut outcome = Outcome::new();
        outcome.attempted = 3;
        outcome.set("serve.backlog_end", 2.0);
        let line = result_line(&outcome, true);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"serve.backlog_end\": {\"value\": 2, \"unit\": \"count\"}"));
        assert!(line.contains("\"lifetime.deaths\": {\"value\": 0, \"unit\": \"count\"}"));
    }

    #[test]
    #[should_panic(expected = "did not measure")]
    fn result_line_refuses_a_missing_end_to_end_metric() {
        result_line(&Outcome::new(), false);
    }

    #[test]
    fn failed_check_charges_operations() {
        let mut outcome = Outcome::new();
        outcome.check(true, 5, "fine");
        assert!(outcome.correct);
        outcome.check(false, 5, "broken");
        assert!(!outcome.correct);
        assert_eq!(outcome.failed, 5);
    }
}
