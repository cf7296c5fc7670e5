//! Topology-construction benchmark: the whole `CBTC(5π/6)` pipeline a
//! caller pays for — grid build, grow, shrink-back, symmetric closure and
//! §3.3 pairwise removal — end to end, split into per-phase timings from
//! one run that add up to its end-to-end time, with a thread-scaling
//! table and million-node rows, plus the incremental
//! survivor-reconfiguration path against the rebuild-everything path.
//!
//! ```sh
//! cargo run --release -p cbtc-bench --bin construction \
//!     [-- --sizes 1000,10000,100000,1000000 --brute-max 20000 \
//!          --deaths 60 --seed 0 --json BENCH_construction.json]
//! ```
//!
//! Honesty rules, enforced at runtime:
//!
//! * every timed construction is `run_centralized` (or its phases), and
//!   the phased pipeline's final graph and removed edges are asserted
//!   equal to `run_centralized`'s;
//! * the phases are asserted to sum to the phased run's end-to-end time;
//! * the brute-force oracle (`run_basic_brute` through the same §3
//!   stages) runs at every size up to `--brute-max` and its run is
//!   asserted equal to the engine's;
//! * the parallel engine's run is asserted **bit-identical** to the same
//!   engine capped to one thread at every size, 1M included;
//! * the detected core count and the thread count each mode actually
//!   plans are recorded in the JSON, and the run **aborts** if the
//!   machine has multiple cores but the parallel mode would run
//!   single-threaded (a silent single-thread "parallel" row would fake
//!   the scaling story); on a single-core host the scaling table
//!   degenerates to its 1-thread row and says so.
//!
//! Writes `BENCH_construction.json` (override with `--json PATH`,
//! disable with `--no-json`) so the speedups are tracked across
//! revisions.

use std::time::Instant;

use cbtc_bench::Args;
use cbtc_core::opt::{pairwise_removal, shrink_back, PairwisePolicy};
use cbtc_core::parallel::{
    detected_cores, install_metrics, planned_threads, set_thread_cap, uninstall_metrics,
};
use cbtc_core::reconfig::GeometricMetric;
use cbtc_core::{
    construction_index, optimize, run_basic, run_basic_brute, run_centralized, CbtcConfig, CbtcRun,
    Network, PAR_MIN_CHUNK,
};
use cbtc_energy::{SurvivorTopology, SurvivorTracker, TopologyPolicy};
use cbtc_geom::Alpha;
use cbtc_graph::{NodeId, UndirectedGraph};
use cbtc_metrics::MetricsRegistry;
use cbtc_workloads::RandomPlacement;
use serde::Serialize;

/// Where one construction's time goes, measured on the parallel engine
/// in a single run of the pipeline composed from its public stages.
/// The phases tile `total`, that run's end-to-end wall time (asserted).
#[derive(Debug, Serialize)]
struct PhaseSeconds {
    /// The construction index `run_basic` grows over: the dense cell
    /// list, or its hashed-grid fallback on a sparse layout.
    grid_build: f64,
    grow: f64,
    shrink_back: f64,
    closure: f64,
    pairwise: f64,
    total: f64,
}

impl PhaseSeconds {
    fn sum(&self) -> f64 {
        self.grid_build + self.grow + self.shrink_back + self.closure + self.pairwise
    }
}

/// What the fan-out workers did during one (untimed) instrumented
/// parallel construction, read off the `par.*` metrics series: how many
/// fan-outs the run executed, per-worker wall-clock busy time, and the
/// chunks each worker pulled from the shared cursor — its steal count,
/// the load-balance signal (all-equal chunk counts mean the cursor
/// degenerated to a static split).
#[derive(Debug, Serialize)]
struct WorkerStats {
    fan_outs: u64,
    /// Worker samples across all fan-outs (one per worker per fan-out).
    worker_samples: u64,
    busy_p50_nanos: u64,
    busy_max_nanos: u64,
    chunks_p50: u64,
    chunks_max: u64,
}

/// Runs one instrumented parallel construction and distills the
/// `par.*` series. The run is returned so the caller can assert the
/// instrumented run stayed bit-identical to the timed one.
fn observe_workers(network: &Network, config: &CbtcConfig) -> (WorkerStats, CbtcRun) {
    let registry = MetricsRegistry::enabled();
    install_metrics(&registry);
    let run = run_centralized(network, config);
    uninstall_metrics();
    let snap = registry.snapshot();
    let busy = snap.histogram("par.worker_busy_nanos");
    let chunks = snap.histogram("par.worker_chunks");
    let stats = WorkerStats {
        fan_outs: snap.counter("par.fan_outs").unwrap_or(0),
        worker_samples: busy.map_or(0, |h| h.count),
        busy_p50_nanos: busy.map_or(0, |h| h.p50),
        busy_max_nanos: busy.map_or(0, |h| h.max),
        chunks_p50: chunks.map_or(0, |h| h.p50),
        chunks_max: chunks.map_or(0, |h| h.max),
    };
    (stats, run)
}

/// One network size's end-to-end construction timings, all engines
/// verified equal.
#[derive(Debug, Serialize)]
struct SizeRow {
    nodes: usize,
    /// Square field side, scaled to hold the paper's density (100 nodes
    /// per 1500×1500 at R = 500).
    side: f64,
    /// Edges of the symmetric closure `G_α` after shrink-back.
    closure_edges: usize,
    /// Edges §3.3 pairwise removal dropped from it.
    pairwise_removed: usize,
    /// Edges of the final topology.
    final_edges: usize,
    /// The all-pairs oracle growth through the same §3 stages. `None`
    /// above `--brute-max`: the O(n²) oracle is gated, and the
    /// grid↔parallel bit-identity assertion carries the verification.
    brute_seconds: Option<f64>,
    /// `run_centralized` capped to one thread.
    grid_seconds: f64,
    /// `run_centralized` on every core.
    parallel_seconds: f64,
    /// Brute / grid when the oracle ran.
    grid_speedup: Option<f64>,
    /// Grid / parallel — the multi-core win (1.0 on one core).
    parallel_speedup: f64,
    /// Worker threads the parallel mode planned for this size.
    parallel_threads: usize,
    grid_us_per_node: f64,
    parallel_us_per_node: f64,
    phases: PhaseSeconds,
    /// Worker-level observability from a separate instrumented run (the
    /// timed rows above stay uninstrumented).
    workers: WorkerStats,
}

/// One row of the thread-scaling table: the same parallel construction
/// under an explicit thread cap.
#[derive(Debug, Serialize)]
struct ThreadRow {
    threads: usize,
    seconds: f64,
    /// Wall-time ratio against the 1-thread row.
    speedup_vs_one: f64,
}

#[derive(Debug, Serialize)]
struct ThreadScaling {
    nodes: usize,
    rows: Vec<ThreadRow>,
    max_speedup: f64,
    /// Set on single-core hosts, where no multi-thread row can exist.
    note: Option<String>,
}

/// Death-epoch reconfiguration cost, rebuild-everything vs incremental.
#[derive(Debug, Serialize)]
struct ReconfigRow {
    nodes: usize,
    deaths: usize,
    full_ms_per_epoch: f64,
    incremental_ms_per_epoch: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct BenchDoc {
    schema_version: u32,
    alpha: String,
    /// The timed pipeline, stage by stage.
    pipeline: String,
    detected_cores: usize,
    base_seed: u64,
    sizes: Vec<SizeRow>,
    thread_scaling: ThreadScaling,
    reconfig: ReconfigRow,
    wall_seconds: f64,
}

/// Best-of-`rounds` wall time of `f`.
fn best_of<T>(rounds: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..rounds.max(1) {
        let t = Instant::now();
        last = Some(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, last.expect("rounds ≥ 1"))
}

/// Wall time of `f` and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

fn paper_density_network(nodes: usize, seed: u64) -> (Network, f64) {
    let side = 1500.0 * (nodes as f64 / 100.0).sqrt();
    let network = RandomPlacement::new(nodes, side, side, 500.0).generate(seed);
    (network, side)
}

/// The pipeline of `run_centralized` composed from its public stages,
/// each timed, in one run. The grid build is timed on an identical
/// construction index (the dense cell list `run_basic` grows over, or
/// its hashed-grid fallback) built just before the run; `run_basic`
/// builds its own, so `grow` is its wall minus that index time and the
/// phases tile `total`. Returns
/// the final graph and removed edges for the caller to check against
/// `run_centralized`.
fn phased_run(
    network: &Network,
    config: &CbtcConfig,
) -> (PhaseSeconds, UndirectedGraph, Vec<(NodeId, NodeId)>) {
    assert!(
        config.shrink_back() && !config.asymmetric_removal() && config.pairwise_removal(),
        "the phased pipeline is shrink-back, closure, pairwise"
    );
    let layout = network.layout();
    let r = network.max_range();
    let (grid_build, index) = timed(|| construction_index(layout, r, None));
    drop(std::hint::black_box(index));

    let start = Instant::now();
    let (basic_wall, basic) = timed(|| run_basic(network, config.alpha()));
    let (shrink_s, shrunk) = timed(|| shrink_back(&basic));
    let (closure_s, closure) = timed(|| shrunk.symmetric_closure());
    let (pairwise_s, pruned) =
        timed(|| pairwise_removal(&closure, layout, PairwisePolicy::PowerReducing));
    let total = start.elapsed().as_secs_f64();

    let phases = PhaseSeconds {
        grid_build,
        grow: (basic_wall - grid_build).max(0.0),
        shrink_back: shrink_s,
        closure: closure_s,
        pairwise: pairwise_s,
        total,
    };
    (phases, pruned.graph, pruned.removed)
}

fn bench_size(nodes: usize, config: &CbtcConfig, seed: u64, brute_max: usize) -> SizeRow {
    let (network, side) = paper_density_network(nodes, seed);
    // Big sizes get one timing round (a round is already seconds); small
    // ones best-of to damp scheduler noise.
    let rounds = if nodes >= 100_000 { 1 } else { 3 };

    set_thread_cap(Some(1));
    let (grid_seconds, grid) = best_of(rounds, || run_centralized(&network, config));
    set_thread_cap(None);
    let (parallel_seconds, parallel) = best_of(rounds, || run_centralized(&network, config));
    assert_eq!(
        grid, parallel,
        "parallel engine diverged from single-thread grid at n={nodes}"
    );

    let brute_seconds = (nodes <= brute_max).then(|| {
        let (brute_seconds, brute) = best_of(1, || {
            let basic = run_basic_brute(&network, config.alpha());
            optimize(&network, &GeometricMetric, config, basic, false)
        });
        assert_eq!(brute, grid, "grid engine diverged from oracle at n={nodes}");
        brute_seconds
    });

    let (phases, phased_graph, phased_removed) = phased_run(&network, config);
    assert!(
        phased_graph == *parallel.final_graph() && phased_removed == parallel.pairwise_removed(),
        "phased pipeline diverged from run_centralized at n={nodes}"
    );
    let gap = (phases.total - phases.sum()).abs();
    assert!(
        gap <= 0.01 * phases.total + 1e-3,
        "phases sum to {:.6}s but the run took {:.6}s at n={nodes}",
        phases.sum(),
        phases.total
    );

    let (workers, observed) = observe_workers(&network, config);
    assert_eq!(
        observed, parallel,
        "instrumented run diverged from the uninstrumented one at n={nodes}"
    );

    let closure_edges = parallel.final_graph().edge_count() + parallel.pairwise_removed().len();
    SizeRow {
        nodes,
        side,
        closure_edges,
        pairwise_removed: parallel.pairwise_removed().len(),
        final_edges: parallel.final_graph().edge_count(),
        brute_seconds,
        grid_seconds,
        parallel_seconds,
        grid_speedup: brute_seconds.map(|b| b / grid_seconds.max(f64::MIN_POSITIVE)),
        parallel_speedup: grid_seconds / parallel_seconds.max(f64::MIN_POSITIVE),
        parallel_threads: planned_threads(nodes, PAR_MIN_CHUNK),
        grid_us_per_node: grid_seconds * 1e6 / nodes as f64,
        parallel_us_per_node: parallel_seconds * 1e6 / nodes as f64,
        phases,
        workers,
    }
}

/// The same parallel construction under explicit thread caps 1, 2, 4, …
/// up to the detected core count. Every capped run is asserted
/// bit-identical to the uncapped one.
fn bench_thread_scaling(nodes: usize, config: &CbtcConfig, seed: u64) -> ThreadScaling {
    let (network, _) = paper_density_network(nodes, seed);
    let reference = run_centralized(&network, config);

    let cores = detected_cores();
    let mut caps = vec![1usize];
    let mut k = 2;
    while k < cores {
        caps.push(k);
        k *= 2;
    }
    if cores > 1 {
        caps.push(cores);
    }

    let mut rows: Vec<ThreadRow> = Vec::new();
    for &cap in &caps {
        set_thread_cap(Some(cap));
        let (seconds, run) = best_of(if nodes >= 100_000 { 1 } else { 3 }, || {
            run_centralized(&network, config)
        });
        assert_eq!(run, reference, "run changed under thread cap {cap}");
        let one = rows.first().map_or(seconds, |r: &ThreadRow| r.seconds);
        rows.push(ThreadRow {
            threads: cap,
            seconds,
            speedup_vs_one: one / seconds.max(f64::MIN_POSITIVE),
        });
    }
    set_thread_cap(None);

    let max_speedup = rows.iter().map(|r| r.speedup_vs_one).fold(1.0f64, f64::max);
    ThreadScaling {
        nodes,
        rows,
        max_speedup,
        note: (cores == 1).then(|| {
            "single-core host: no multi-thread row is possible, scaling not demonstrable here"
                .to_owned()
        }),
    }
}

/// A deterministic death order: a fixed-stride walk over the node IDs.
fn death_order(nodes: usize, deaths: usize) -> Vec<NodeId> {
    let stride = 37 % nodes.max(1);
    (0..deaths)
        .map(|k| NodeId::new(((k * stride.max(1)) % nodes) as u32))
        .scan(Vec::new(), |seen: &mut Vec<u32>, id| {
            // Skip collisions by linear probing; the sequence is fixed.
            let mut raw = id.raw();
            while seen.contains(&raw) {
                raw = (raw + 1) % nodes as u32;
            }
            seen.push(raw);
            Some(NodeId::new(raw))
        })
        .collect()
}

fn bench_reconfig(deaths: usize, alpha: Alpha, seed: u64) -> ReconfigRow {
    let nodes = 100usize;
    let network: Network = RandomPlacement::new(nodes, 1500.0, 1500.0, 500.0).generate(seed);
    let policy = TopologyPolicy::Cbtc(CbtcConfig::all_applicable(alpha));
    let deaths = deaths.min(nodes - 2);
    let order = death_order(nodes, deaths);

    // Untimed verification pass: the incremental topology must equal the
    // full survivor rebuild after every single death.
    {
        let mut topo = SurvivorTopology::new(&network, policy);
        let mut alive = vec![true; nodes];
        for &d in &order {
            alive[d.index()] = false;
            topo.kill(&[d]);
            assert_eq!(
                topo.graph(),
                &policy.build_on_survivors(&network, &alive),
                "incremental reconfiguration diverged from the full rebuild"
            );
        }
    }

    // Rebuild-everything path: one full survivor reconstruction per
    // death epoch, as PR 2's lifetime engine did.
    let mut alive = vec![true; nodes];
    let t = Instant::now();
    for &d in &order {
        alive[d.index()] = false;
        std::hint::black_box(policy.build_on_survivors(&network, &alive));
    }
    let full_seconds = t.elapsed().as_secs_f64();

    // Incremental path: patch the survivor topology in place.
    let mut topo = SurvivorTopology::new(&network, policy);
    let t = Instant::now();
    for &d in &order {
        std::hint::black_box(topo.kill(&[d]));
    }
    let incremental_seconds = t.elapsed().as_secs_f64();

    let per = |s: f64| s * 1e3 / deaths.max(1) as f64;
    ReconfigRow {
        nodes,
        deaths,
        full_ms_per_epoch: per(full_seconds),
        incremental_ms_per_epoch: per(incremental_seconds),
        speedup: full_seconds / incremental_seconds.max(f64::MIN_POSITIVE),
    }
}

fn main() {
    let args = Args::capture();
    let seed: u64 = args.get("seed", 0);
    let deaths: usize = args.get("deaths", 60);
    let sizes: Vec<usize> = args.get_list("sizes", &[1000, 10_000, 100_000, 1_000_000]);
    let brute_max: usize = args.get("brute-max", 20_000);
    let scaling_nodes: usize = args.get("scaling-nodes", 100_000);
    let alpha = Alpha::FIVE_PI_SIXTHS;
    let config = CbtcConfig::all_applicable(alpha);
    let cores = detected_cores();

    // Honesty gate: "parallel" rows from a machine that can fan out but
    // whose fan-out collapsed to one thread would silently misreport the
    // engine. Refuse to produce them.
    let representative = sizes.iter().copied().max().unwrap_or(0);
    if cores >= 2 && planned_threads(representative.max(2 * PAR_MIN_CHUNK), PAR_MIN_CHUNK) < 2 {
        eprintln!(
            "abort: {cores} cores detected but the parallel mode would run single-threaded \
             (thread cap or nested fan-out?); parallel rows would be meaningless"
        );
        std::process::exit(1);
    }
    if cores == 1 {
        eprintln!(
            "warning: single core detected — parallel rows will match grid rows and the \
             thread-scaling table degenerates to its 1-thread row"
        );
    }

    println!(
        "construction — CBTC({alpha}) end to end (grid → grow → shrink-back → closure → \
         pairwise), {cores} core(s) detected\n"
    );
    println!(
        "{:>9} {:>13} {:>11} {:>11} {:>11} {:>7} {:>6} {:>9}",
        "nodes", "final edges", "brute", "grid", "parallel", "grid×", "par×", "µs/node"
    );

    let start = Instant::now();
    let mut rows = Vec::new();
    for &nodes in &sizes {
        let row = bench_size(nodes, &config, seed, brute_max);
        println!(
            "{:>9} {:>13} {:>11} {:>10.1}ms {:>10.1}ms {:>7} {:>5.1}x {:>9.2}",
            row.nodes,
            row.final_edges,
            row.brute_seconds
                .map_or_else(|| "—".to_owned(), |s| format!("{:.1}ms", s * 1e3)),
            row.grid_seconds * 1e3,
            row.parallel_seconds * 1e3,
            row.grid_speedup
                .map_or_else(|| "—".to_owned(), |s| format!("{s:.1}x")),
            row.parallel_speedup,
            row.parallel_us_per_node,
        );
        let p = &row.phases;
        println!(
            "{:>9} phases: grid build {:.1} · grow {:.1} · shrink-back {:.1} · closure {:.1} · \
             pairwise {:.1} = {:.1}ms end to end · {} thread(s)",
            "",
            p.grid_build * 1e3,
            p.grow * 1e3,
            p.shrink_back * 1e3,
            p.closure * 1e3,
            p.pairwise * 1e3,
            p.total * 1e3,
            row.parallel_threads,
        );
        if row.workers.worker_samples > 0 {
            println!(
                "{:>9} workers: {} sample(s) over {} fan-out(s) · busy p50 {:.1}ms max {:.1}ms · \
                 chunks p50 {} max {}",
                "",
                row.workers.worker_samples,
                row.workers.fan_outs,
                row.workers.busy_p50_nanos as f64 / 1e6,
                row.workers.busy_max_nanos as f64 / 1e6,
                row.workers.chunks_p50,
                row.workers.chunks_max,
            );
        }
        rows.push(row);
    }

    let scaling = bench_thread_scaling(scaling_nodes.min(representative.max(1)), &config, seed);
    println!(
        "\nthread scaling at n={} (end to end, bit-identical under every cap):",
        scaling.nodes
    );
    for r in &scaling.rows {
        println!(
            "  {:>3} thread(s): {:>10.1}ms  ({:.2}x vs 1)",
            r.threads,
            r.seconds * 1e3,
            r.speedup_vs_one
        );
    }
    if let Some(note) = &scaling.note {
        println!("  note: {note}");
    }

    let reconfig = bench_reconfig(deaths, alpha, seed);
    println!(
        "\nlifetime reconfiguration ({} nodes, {} death epochs): \
         full rebuild {:.3} ms/epoch, incremental {:.3} ms/epoch — {:.1}x",
        reconfig.nodes,
        reconfig.deaths,
        reconfig.full_ms_per_epoch,
        reconfig.incremental_ms_per_epoch,
        reconfig.speedup,
    );
    let wall = start.elapsed().as_secs_f64();
    println!(
        "\ncompleted in {wall:.2}s (oracle ≤ {brute_max} nodes; grid ≡ parallel ≡ phased at every \
         size; phases sum to the end-to-end time)"
    );

    if !args.has("no-json") {
        let path: String = args.get("json", "BENCH_construction.json".to_owned());
        let doc = BenchDoc {
            schema_version: 4,
            alpha: alpha.to_string(),
            pipeline: "run_centralized(CbtcConfig::all_applicable(5π/6)): grid build → grow → \
                       shrink-back → symmetric closure → power-reducing pairwise removal"
                .to_owned(),
            detected_cores: cores,
            base_seed: seed,
            sizes: rows,
            thread_scaling: scaling,
            reconfig,
            wall_seconds: wall,
        };
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&doc).expect("serializable"),
        )
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
