//! The `construct` and `construct_phy` workloads: one full topology
//! construction is one operation.
//!
//! Untraced runs time the library's one-call pipelines
//! (`run_centralized`, `run_phy_gated_centralized`). Traced runs
//! alternate that call with the same pipeline composed phase by phase
//! from its public stages, each stage wrapped in a timer and the
//! parallel fan-out instrumented, so the phases add up to a traced
//! end-to-end time and the difference to the untraced call is the
//! observation overhead.

use std::hint::black_box;
use std::time::Instant;

use cbtc_core::opt::{pairwise_removal, shrink_back, PairwisePolicy};
use cbtc_core::parallel::{install_metrics, planned_threads, uninstall_metrics};
use cbtc_core::phy::{optimize_phy, run_phy_gated_basic, run_phy_gated_centralized, PhyChannel};
use cbtc_core::{
    construction_cell, run_basic, run_centralized, CbtcConfig, Network, PAR_MIN_CHUNK,
};
use cbtc_geom::Alpha;
use cbtc_graph::connectivity::same_partition;
use cbtc_graph::{NodeId, SpatialGrid, UndirectedGraph};
use cbtc_metrics::MetricsRegistry;
use cbtc_phy::{Shadowing, ShadowingMode};
use cbtc_workloads::RandomPlacement;

use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, sorted, tail};
use crate::{set_up, timed, Args};

/// Nodes of the `construct` network.
const NODES: usize = 100_000;
/// Nodes of the `construct_phy` network.
const PHY_NODES: usize = 20_000;
/// Per-direction log-normal shadowing of `construct_phy`, in dB.
const SIGMA_DB: f64 = 8.0;
/// Decorrelates the shadowing field's seed from the layout's.
const SHADOW_SALT: u64 = 0x5AAD_0E55_F1E1_D000;
/// Network generations per run (the median is reported as `setup_s`).
const SETUP_REPS: usize = 31;
/// Fewest timed constructions per run, whatever `--seconds` says.
const MIN_OPS: usize = 3;

/// The paper's density — 100 nodes per 1500 × 1500 at `R = 500` — on a
/// square field scaled to `nodes`.
fn paper_density(nodes: usize) -> RandomPlacement {
    let side = 1500.0 * (nodes as f64 / 100.0).sqrt();
    RandomPlacement::new(nodes, side, side, 500.0)
}

fn config() -> CbtcConfig {
    CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS)
}

/// Refuses to time a "parallel" construction on a multi-core host whose
/// fan-out would plan a single thread.
fn require_parallel(nodes: usize) {
    let cores = cbtc_core::parallel::detected_cores();
    if cores >= 2 && planned_threads(nodes, PAR_MIN_CHUNK) < 2 {
        eprintln!(
            "abort: {cores} cores detected but the construction would plan one thread \
             (thread cap or nested fan-out?)"
        );
        std::process::exit(1);
    }
}

/// Σ worker busy time ÷ (planned threads × `wall`), read off the fan-out
/// instruments installed in `registry`.
fn busy_ratio(registry: &MetricsRegistry, threads: usize, wall: f64) -> f64 {
    let busy = registry
        .snapshot()
        .histogram("par.worker_busy_nanos")
        .map_or(0, |h| h.sum);
    if wall > 0.0 {
        busy as f64 * 1e-9 / (threads as f64 * wall)
    } else {
        0.0
    }
}

/// The exact outputs of one composed construction.
struct Pipeline {
    closure_edges: usize,
    removed: usize,
    graph: UndirectedGraph,
}

/// Timed phases of one traced geometric construction.
struct Phases {
    grid_build: f64,
    grow: f64,
    shrink_back: f64,
    closure: f64,
    pairwise: f64,
    total: f64,
    busy_ratio: f64,
}

/// The §3 pipeline of `run_centralized` composed from its public stages,
/// each timed. The grid build is timed on an identical grid built just
/// before the run; `run_basic` builds its own, so `grow` is its wall
/// minus that grid time and the phases still tile `total`.
fn phased(network: &Network, config: &CbtcConfig) -> (Phases, Pipeline) {
    assert!(!config.asymmetric_removal(), "5π/6 keeps the closure");
    let layout = network.layout();
    let r = network.max_range();
    let (grid_build, grid) =
        timed(|| SpatialGrid::from_layout(layout, construction_cell(layout, r, layout.len())));
    drop(black_box(grid));

    let registry = MetricsRegistry::enabled();
    install_metrics(&registry);
    let start = Instant::now();
    let (basic_wall, basic) = timed(|| run_basic(network, config.alpha()));
    let (shrink_s, shrunk) = timed(|| shrink_back(&basic));
    let (closure_s, closure) = timed(|| shrunk.symmetric_closure());
    let (pairwise_s, pruned) =
        timed(|| pairwise_removal(&closure, layout, PairwisePolicy::PowerReducing));
    let total = start.elapsed().as_secs_f64();
    uninstall_metrics();

    let threads = planned_threads(layout.len(), PAR_MIN_CHUNK);
    let phases = Phases {
        grid_build,
        grow: (basic_wall - grid_build).max(0.0),
        shrink_back: shrink_s,
        closure: closure_s,
        pairwise: pairwise_s,
        total,
        busy_ratio: busy_ratio(&registry, threads, basic_wall),
    };
    let pipeline = Pipeline {
        closure_edges: closure.edge_count(),
        removed: pruned.removed.len(),
        graph: pruned.graph,
    };
    (phases, pipeline)
}

/// Runs timed operations until their summed time reaches the budget (and
/// at least [`MIN_OPS`] ran). `op(i)` returns its own measured seconds.
fn repeat(seconds: f64, mut op: impl FnMut(usize) -> f64) {
    let mut spent = 0.0;
    let mut i = 0;
    while spent < seconds || i < MIN_OPS {
        spent += op(i);
        i += 1;
    }
}

/// End-to-end metrics of a run of constructions: nodes/s at the median
/// construction time, that median, and the tail — which for the few
/// constructions a run holds is the median too (see [`tail`]).
fn construction_metrics(outcome: &mut Outcome, nodes: usize, setup_s: f64, times: &[f64]) {
    let p50 = median(times);
    outcome.set("setup_s", setup_s);
    outcome.set("throughput_per_s", nodes as f64 / p50);
    outcome.set("latency_p50_ms", p50 * 1e3);
    outcome.set("latency_tail_ms", tail(&sorted(times)) * 1e3);
}

/// The `construct` workload.
pub fn run(args: &Args) -> Outcome {
    require_parallel(NODES);
    let (network, setup_s) = set_up(SETUP_REPS, || paper_density(NODES).generate(args.seed));
    let config = config();
    let mut outcome = Outcome::new();

    // The composed pipeline is the reference every timed run is checked
    // against; it must itself equal the one-call pipeline.
    let (
        _,
        Pipeline {
            closure_edges,
            removed,
            graph: reference,
        },
    ) = phased(&network, &config);
    let full = network.max_power_graph();
    outcome.check(
        cbtc_graph::connectivity::preserves_connectivity(&reference, &full),
        0,
        "construct: final graph loses max-power connectivity (Theorem 2.1)",
    );
    drop(full);
    outcome.fingerprint = vec![
        ("closure_edges", closure_edges as u64),
        ("pairwise_removed", removed as u64),
        ("final_edges", reference.edge_count() as u64),
    ];

    let mut untraced = Vec::new();
    let mut traced: Vec<Phases> = Vec::new();
    repeat(args.seconds, |i| {
        if args.trace && i % 2 == 1 {
            let (phases, pipeline) = phased(&network, &config);
            outcome.attempted += 1;
            outcome.check(
                pipeline.graph == reference,
                1,
                "construct: phased pipeline diverged",
            );
            let total = phases.total;
            traced.push(phases);
            total
        } else {
            let (t, run) = timed(|| run_centralized(&network, &config));
            outcome.attempted += 1;
            outcome.check(
                *run.final_graph() == reference && run.pairwise_removed().len() == removed,
                1,
                "construct: run_centralized differs from the phased pipeline",
            );
            untraced.push(t);
            t
        }
    });
    if !outcome.correct {
        outcome.failed = outcome.attempted;
    }

    if args.trace {
        let m = |f: fn(&Phases) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let total = m(|p| p.total);
        let phases = m(|p| p.grid_build + p.grow + p.shrink_back + p.closure + p.pairwise);
        outcome.set("construct.grid_build_s", m(|p| p.grid_build));
        outcome.set("construct.grow_s", m(|p| p.grow));
        outcome.set("construct.par_busy_ratio", m(|p| p.busy_ratio));
        outcome.set("construct.shrink_back_s", m(|p| p.shrink_back));
        outcome.set("construct.closure_s", m(|p| p.closure));
        outcome.set("construct.pairwise_s", m(|p| p.pairwise));
        outcome.set("construct.unaccounted_s", total - phases);
        outcome.set("obs.overhead_ratio", total / median(&untraced) - 1.0);
        outcome.set(
            "host.planned_threads",
            planned_threads(NODES, PAR_MIN_CHUNK) as f64,
        );
        outcome.set("construct.closure_edges", closure_edges as f64);
        outcome.set("construct.pairwise_removed", removed as f64);
        outcome.set("construct.final_edges", reference.edge_count() as f64);
    } else {
        construction_metrics(&mut outcome, NODES, setup_s, &untraced);
        outcome.set("peak_rss_mb", peak_rss_mb());
    }
    outcome
}

/// Timed phases of one traced phy construction.
struct PhyPhases {
    grow: f64,
    optimize: f64,
    total: f64,
    busy_ratio: f64,
}

/// The `construct_phy` workload.
pub fn run_phy(args: &Args) -> Outcome {
    require_parallel(PHY_NODES);
    let ((network, shadowing), setup_s) = set_up(SETUP_REPS, || {
        let network = paper_density(PHY_NODES).generate(args.seed);
        let shadowing = Shadowing::new(
            SIGMA_DB,
            ShadowingMode::Independent,
            args.seed ^ SHADOW_SALT,
        );
        (network, shadowing)
    });
    let channel = PhyChannel::new(network.model(), &shadowing);
    let config = config();
    let threads = planned_threads(PHY_NODES, PAR_MIN_CHUNK);
    let mut outcome = Outcome::new();

    let traced_op = || {
        let registry = MetricsRegistry::enabled();
        install_metrics(&registry);
        let start = Instant::now();
        let (grow, basic) = timed(|| run_phy_gated_basic(&network, &channel, config.alpha()));
        let (optimize, run) = timed(|| optimize_phy(&network, &channel, &config, basic));
        let total = start.elapsed().as_secs_f64();
        uninstall_metrics();
        let phases = PhyPhases {
            grow,
            optimize,
            total,
            busy_ratio: busy_ratio(&registry, threads, grow),
        };
        (phases, run)
    };

    // Reference: the composed pipeline, checked against the one-call
    // pipeline in the timed loop and against its own pre-pairwise
    // closure here (the guard keeps its components).
    let (_, reference) = traced_op();
    let closure = shrink_back(reference.basic()).symmetric_closure();
    outcome.check(
        same_partition(reference.final_graph(), &closure),
        0,
        "construct_phy: guarded pairwise changed the closure's components",
    );
    let restored: Vec<(NodeId, NodeId)> = reference.pairwise_restored().to_vec();
    outcome.fingerprint = vec![
        ("closure_edges", closure.edge_count() as u64),
        ("pairwise_restored", restored.len() as u64),
        ("final_edges", reference.final_graph().edge_count() as u64),
    ];
    drop(closure);

    let mut untraced = Vec::new();
    let mut traced: Vec<PhyPhases> = Vec::new();
    repeat(args.seconds, |i| {
        if args.trace && i % 2 == 1 {
            let (phases, run) = traced_op();
            outcome.attempted += 1;
            outcome.check(
                run.final_graph() == reference.final_graph(),
                1,
                "construct_phy: phased pipeline diverged",
            );
            let total = phases.total;
            traced.push(phases);
            total
        } else {
            let (t, run) = timed(|| run_phy_gated_centralized(&network, &channel, &config));
            outcome.attempted += 1;
            outcome.check(
                run.final_graph() == reference.final_graph()
                    && run.pairwise_restored() == restored.as_slice(),
                1,
                "construct_phy: run_phy_gated_centralized differs from the phased pipeline",
            );
            untraced.push(t);
            t
        }
    });
    if !outcome.correct {
        outcome.failed = outcome.attempted;
    }

    if args.trace {
        let m = |f: fn(&PhyPhases) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let total = m(|p| p.total);
        outcome.set("construct_phy.grow_s", m(|p| p.grow));
        outcome.set("construct_phy.par_busy_ratio", m(|p| p.busy_ratio));
        outcome.set("construct_phy.optimize_s", m(|p| p.optimize));
        outcome.set(
            "construct_phy.unaccounted_s",
            total - m(|p| p.grow + p.optimize),
        );
        outcome.set("obs.overhead_ratio", total / median(&untraced) - 1.0);
        outcome.set("host.planned_threads", threads as f64);
        outcome.set("construct_phy.pairwise_restored", restored.len() as f64);
        outcome.set(
            "construct_phy.final_edges",
            reference.final_graph().edge_count() as f64,
        );
    } else {
        construction_metrics(&mut outcome, PHY_NODES, setup_s, &untraced);
        outcome.set("peak_rss_mb", peak_rss_mb());
    }
    outcome
}
