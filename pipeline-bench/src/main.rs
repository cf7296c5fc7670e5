//! End-to-end benchmark of the CBTC pipeline: construction, open-loop
//! serving and network lifetime, with per-layer timings.
//!
//! ```sh
//! cargo run --release --offline --manifest-path pipeline-bench/Cargo.toml -- \
//!     --workload construct --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1` (see
//! [`report::END_TO_END`] and [`report::PER_LAYER`]). Inputs are made
//! from `--seed` alone; the benchmark drives the repository only through
//! its public functions and times each layer from outside, by wrapping
//! those calls.
//!
//! # Workloads
//!
//! | workload | one operation | `throughput_per_s` | `latency_p50_ms` | `latency_tail_ms` |
//! |----------|---------------|--------------------|------------------|-------------------|
//! | `construct` | `run_centralized`, CBTC(5π/6) + §3, 100k nodes | nodes/s | per construction | per construction (a run holds ~20, so the median) |
//! | `construct_phy` | `run_phy_gated_centralized`, σ = 8 dB per-direction shadowing, 20k nodes | nodes/s | per construction | likewise (~9, the median) |
//! | `serve` | one event through `DeltaTopology::apply`, 10k slots | events/s, backlogged | due → commit, open loop at 7.5k events/s | p90 of the same (see `serve::TAIL_Q`) |
//! | `lifetime` | one `LifetimeSim::step`, 1000 nodes until all are dead | epochs/s | per simulated lifetime | p99 per epoch |
//!
//! The host this benchmark was tuned on (2 shared vCPUs) changes speed
//! by ±30% from minute to minute and pauses a process for milliseconds
//! every second. Host noise only ever adds time, so `serve`, whose
//! operations are tens of microseconds, is summarized over the calmer
//! part of its run: capacity at the upper quartile of its chunk rates,
//! and each latency percentile per window of the schedule at its lower
//! quartile over the windows. The tail is the highest percentile with
//! at least ten samples beyond it ([`stats::tail`]), except for `serve`.
//!
//! `setup_s` is layout generation plus the initial `DeltaTopology::new` /
//! `LifetimeSim::new` where the workload has one (median of several
//! set-ups per run); `peak_rss_mb` is the process's peak resident set.
//!
//! # Layer → metric → workload
//!
//! Each per-layer metric should move the named end-to-end metric on the
//! named workload:
//!
//! | layer | per-layer metric | moves | on |
//! |-------|------------------|-------|----|
//! | `cbtc_graph::spatial` | `construct.grid_build_s` | `throughput_per_s` (small share) | `construct` |
//! | `cbtc_core::centralized` grow kernel | `construct.grow_s` | `throughput_per_s` | `construct` |
//! | `cbtc_core::phy` gated grow | `construct_phy.grow_s` | `throughput_per_s` (dominant) | `construct_phy` |
//! | `cbtc_core::parallel` | `construct.par_busy_ratio`, `construct_phy.par_busy_ratio` | `throughput_per_s` | both constructions |
//! | `cbtc_core::opt::shrink_back` | `construct.shrink_back_s` | `throughput_per_s` | `construct` |
//! | `cbtc_core::view` closure | `construct.closure_s` | `throughput_per_s` | `construct` |
//! | `cbtc_core::opt::pairwise` | `construct.pairwise_s`; `construct_phy.optimize_s` should barely move | `throughput_per_s` | `construct` |
//! | `cbtc_core::reconfig::delta` | `serve.apply_us.*`, `serve.regrown_per_event`, `serve.grid_scan_ratio`, `serve.affected.p99`, `serve.edge_churn_per_event` | `latency_tail_ms`, `throughput_per_s` | `serve` |
//! | admission queue | `serve.wait_us.*`, `serve.batch_size.mean.*`, `serve.p99_us`, `serve.p999_us`, `serve.gen_late_us.p99`, `serve.backlog_end` | `latency_tail_ms` | `serve` |
//! | `cbtc_energy::lifetime` | `lifetime.traffic_s`, `lifetime.standby_s`, `lifetime.partition_s`, `lifetime.step_ms.*` | `throughput_per_s` | `lifetime` |
//! | `cbtc_energy::incremental` → `delta` | `lifetime.reconfig_s`, `lifetime.grid_scan_ratio` | `throughput_per_s` (~3% share) | `lifetime` |
//! | `cbtc_metrics` observers | `obs.overhead_ratio` (traced ÷ untraced − 1) | — | every workload |
//!
//! Residuals `construct.unaccounted_s` and `construct_phy.unaccounted_s`
//! are the traced end-to-end time minus the sum of its phases. Exact
//! counts (`*.closure_edges`, `*.final_edges`, `construct.pairwise_removed`,
//! `construct_phy.pairwise_restored`, `lifetime.deaths`, …) must repeat
//! for a seed: each run stores them per seed next to the benchmark's
//! executable and reports every operation failed when a later run of the
//! same seed disagrees.

mod construct;
mod lifetime;
mod report;
mod serve;
mod stats;

use std::time::Instant;

use cbtc_core::parallel::{detected_cores, thread_cap};

/// Wall-clock seconds of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Runs `build` `reps` times (at least once); returns the last result and
/// the median build time — a run's `setup_s`.
pub fn set_up<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps.max(1) {
        let (t, value) = timed(&mut build);
        times.push(t);
        built = Some(value);
    }
    (built.expect("at least one build"), stats::median(&times))
}

/// The command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "{problem}\nusage: cbtc-pipeline-bench --workload construct|construct_phy|serve|lifetime \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value {value:?} for {flag}")) };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| bad())),
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| bad());
                if !(s > 0.0 && s.is_finite()) {
                    bad();
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("missing --workload")),
        seed: seed.unwrap_or_else(|| usage("missing --seed")),
        seconds: seconds.unwrap_or_else(|| usage("missing --seconds")),
        trace: trace.unwrap_or_else(|| usage("missing --trace")),
    }
}

fn main() {
    let args = parse_args();
    let run = match args.workload.as_str() {
        "construct" => construct::run,
        "construct_phy" => construct::run_phy,
        "serve" => serve::run,
        "lifetime" => lifetime::run,
        other => usage(&format!("unknown workload {other:?}")),
    };
    let mut outcome = run(&args);

    let key = format!("{}-seed{}-s{}", args.workload, args.seed, args.seconds);
    if !report::fingerprint_matches(&key, &outcome.fingerprint) {
        outcome.correct = false;
        outcome.failed = outcome.attempted;
    }
    if args.trace {
        outcome.set(
            "failed_ratio",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
        );
        outcome.set("host.nproc", detected_cores() as f64);
        outcome.set("host.thread_cap", thread_cap().unwrap_or(0) as f64);
    }
    eprintln!(
        "{}: seed {}, {} attempted, {} failed, {} core(s), thread cap {:?}, fingerprint {}",
        args.workload,
        args.seed,
        outcome.attempted,
        outcome.failed,
        detected_cores(),
        thread_cap(),
        report::render_fingerprint(&outcome.fingerprint).replace('\n', "; "),
    );
    println!("{}", report::result_line(&outcome, args.trace));
}
