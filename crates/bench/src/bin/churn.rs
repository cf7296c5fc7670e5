//! Churn-at-scale benchmark: the §4 reconfiguration protocol under
//! RandomWaypoint mobility with joins and crashes at 10k+ nodes, plus
//! two micro-benchmarks: the grid spatial index against the all-pairs
//! `G_R` construction it replaces, and the **incremental centralized
//! probe** — per-burst join/crash batches through
//! [`cbtc_core::reconfig::DeltaTopology`] against a from-scratch masked
//! `CBTC(α)` rebuild (graphs asserted equal edge for edge).
//!
//! ```sh
//! cargo run --release -p cbtc-bench --bin churn \
//!     [-- --nodes 10000 --cycles 4 --seed 0 --json BENCH_churn.json]
//! ```
//!
//! Writes `BENCH_churn.json` (override with `--json PATH`, disable with
//! `--no-json`) so churn/scaling results are tracked across revisions.

use std::time::Instant;

use cbtc_bench::Args;
use cbtc_core::reconfig::{DeltaTopology, GeometricMetric, NodeEvent};
use cbtc_core::{run_centralized_masked, CbtcConfig, Network};
use cbtc_graph::unit_disk::{unit_disk_graph, unit_disk_graph_brute};
use cbtc_metrics::MetricsRegistry;
use cbtc_radio::{PathLoss, PowerLaw};
use cbtc_trace::TraceHandle;
use cbtc_workloads::{run_churn, ChurnReport, ChurnScenario, RandomPlacement};
use serde::Serialize;

/// Grid-vs-brute `G_R` construction timing on the scenario's layout.
#[derive(Debug, Serialize)]
struct IndexBench {
    nodes: usize,
    edges: usize,
    grid_seconds: f64,
    brute_seconds: f64,
    speedup: f64,
}

/// One burst's centralized-probe timing: the same join/crash batch
/// through the incremental engine and through a from-scratch masked
/// rebuild, graphs asserted identical.
#[derive(Debug, Serialize)]
struct ProbeBench {
    burst_t: u64,
    events: usize,
    live: usize,
    /// Nodes the incremental update re-grew (from-scratch re-grows
    /// every live node).
    regrown: usize,
    /// Of those, how many needed a spatial-grid scan (the §4 "α-gap
    /// opened" case); the rest replayed from their cached prefix.
    grid_scans: usize,
    incremental_seconds: f64,
    from_scratch_seconds: f64,
    speedup: f64,
}

/// Observability overhead: alternating off/on pairs of the same churn
/// run, untraced and with the streaming JSONL trace sink installed
/// (wall-clock timing on), every traced report asserted bit-identical to
/// the untraced one. One pair is noise-dominated, so the overhead is the
/// median over the pairs, with its spread.
#[derive(Debug, Serialize)]
struct TraceBench {
    /// Off/on pairs run; the untraced run of the first pair is the
    /// bench's own `report` run.
    pairs: usize,
    /// Median untraced wall time.
    trace_off_seconds: f64,
    /// Median traced wall time.
    trace_on_seconds: f64,
    /// Median over the pairs of `on/off - 1`; the acceptance target is
    /// under 0.05.
    overhead_fraction: f64,
    overhead_fraction_min: f64,
    overhead_fraction_max: f64,
    /// Records and bytes of one more trace, recorded with timing off: with
    /// every `nanos` field 0 they repeat exactly for a given seed.
    events_recorded: u64,
    trace_bytes: u64,
}

#[derive(Debug, Serialize)]
struct BenchDoc {
    report: ChurnReport,
    index: IndexBench,
    probe: Vec<ProbeBench>,
    trace: TraceBench,
    wall_seconds: f64,
}

/// Off/on pairs [`bench_trace`] runs.
const TRACE_PAIRS: usize = 5;

/// Runs the scenario with a JSONL trace streaming to a temp file and
/// `timing` as given; asserts the report is bit-identical to the untraced
/// `reference`. Returns the wall time, the records and the bytes written.
fn traced_run(
    scenario: &ChurnScenario,
    seed: u64,
    reference: &ChurnReport,
    timing: bool,
) -> (f64, u64, u64) {
    let path = std::env::temp_dir().join("cbtc_bench_churn_trace.jsonl");
    let path_str = path.to_str().expect("utf-8 temp path");
    let handle = TraceHandle::to_file(path_str)
        .unwrap_or_else(|e| panic!("creating {path_str}: {e}"))
        .with_timing(timing);
    let t = Instant::now();
    let traced = run_churn(
        scenario,
        seed,
        None,
        &MetricsRegistry::disabled(),
        Some(&handle),
    );
    let seconds = t.elapsed().as_secs_f64();
    handle.flush();
    assert_eq!(
        reference, &traced,
        "tracing must not perturb the simulation"
    );
    let bytes = std::fs::read(&path).unwrap_or_default();
    std::fs::remove_file(&path).ok();
    let records = bytes.iter().filter(|&&c| c == b'\n').count() as u64;
    (seconds, records, bytes.len() as u64)
}

/// [`TRACE_PAIRS`] alternating off/on pairs (the first pair's off run is
/// the caller's `reference` run, which took `first_off_seconds`; later
/// pairs swap which side runs first), then one trace with timing off
/// whose size is deterministic.
fn bench_trace(
    scenario: &ChurnScenario,
    seed: u64,
    reference: &ChurnReport,
    first_off_seconds: f64,
) -> TraceBench {
    let untraced = || {
        let t = Instant::now();
        let report = run_churn(scenario, seed, None, &MetricsRegistry::disabled(), None);
        assert_eq!(reference, &report, "same-seed churn runs must agree");
        t.elapsed().as_secs_f64()
    };
    let traced = || traced_run(scenario, seed, reference, true).0;
    let (mut off, mut on) = (vec![first_off_seconds], vec![traced()]);
    for pair in 1..TRACE_PAIRS {
        if pair % 2 == 1 {
            on.push(traced());
            off.push(untraced());
        } else {
            off.push(untraced());
            on.push(traced());
        }
    }
    let mut overhead: Vec<f64> = on
        .iter()
        .zip(&off)
        .map(|(on, off)| on / off.max(f64::MIN_POSITIVE) - 1.0)
        .collect();
    let overhead_fraction = median(&mut overhead); // sorts `overhead`
    let (_, events_recorded, trace_bytes) = traced_run(scenario, seed, reference, false);
    TraceBench {
        pairs: TRACE_PAIRS,
        trace_off_seconds: median(&mut off),
        trace_on_seconds: median(&mut on),
        overhead_fraction,
        overhead_fraction_min: overhead[0],
        overhead_fraction_max: overhead[TRACE_PAIRS - 1],
        events_recorded,
        trace_bytes,
    }
}

/// Sorts `xs` ascending and returns its median (the mean of the middle
/// two for an even count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Times the suite's centralized `G_α` probe per burst on the scenario's
/// own churn schedule (static positions isolate the event cost):
/// incremental [`DeltaTopology`] update vs from-scratch
/// [`run_centralized_masked`], asserting edge-for-edge equality.
fn bench_probe(scenario: &ChurnScenario, seed: u64) -> Vec<ProbeBench> {
    let model = PowerLaw::paper_default();
    let total = scenario.total_nodes();
    let layout = RandomPlacement::new(total, scenario.width, scenario.height, model.max_range())
        .generate_layout(seed);
    let schedule = scenario.schedule(seed);
    let config = CbtcConfig::new(scenario.alpha);
    let mut active: Vec<bool> = schedule.start_ticks.iter().map(|&t| t == 0).collect();
    let mut delta = DeltaTopology::new(
        layout.clone(),
        active.clone(),
        model.max_range(),
        config,
        false,
        GeometricMetric,
    );
    let network = Network::new(layout.clone(), model);

    let mut rows = Vec::new();
    for &bt in &schedule.bursts {
        let mut events: Vec<NodeEvent> = Vec::new();
        for &(victim, ct) in &schedule.crashes {
            if ct == bt && active[victim.index()] {
                active[victim.index()] = false;
                events.push(NodeEvent::Death(victim));
            }
        }
        // Joiners occupy the slots above the initial population (a
        // crash victim freed above must not re-join as a "starter").
        for (u, &st) in schedule
            .start_ticks
            .iter()
            .enumerate()
            .skip(scenario.initial_nodes)
        {
            if st == bt && !active[u] {
                active[u] = true;
                let id = cbtc_graph::NodeId::new(u as u32);
                events.push(NodeEvent::Join(id, layout.position(id)));
            }
        }
        if events.is_empty() {
            continue;
        }
        let t0 = Instant::now();
        delta.apply(&events);
        let incremental_seconds = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let full = run_centralized_masked(&network, &config, &active).into_final_graph();
        let from_scratch_seconds = t1.elapsed().as_secs_f64();
        assert_eq!(
            delta.graph(),
            &full,
            "incremental probe must equal the from-scratch rebuild"
        );

        rows.push(ProbeBench {
            burst_t: bt,
            events: events.len(),
            live: active.iter().filter(|a| **a).count(),
            regrown: delta.last_regrown(),
            grid_scans: delta.last_grid_scans(),
            incremental_seconds,
            from_scratch_seconds,
            speedup: from_scratch_seconds / incremental_seconds.max(f64::MIN_POSITIVE),
        });
    }
    rows
}

fn bench_index(scenario: &ChurnScenario, seed: u64) -> IndexBench {
    let model = PowerLaw::paper_default();
    let nodes = scenario.total_nodes();
    let layout = RandomPlacement::new(nodes, scenario.width, scenario.height, model.max_range())
        .generate_layout(seed);
    let radius = model.max_range();

    // Warm up, then time the best of a few rounds each so the comparison
    // is not dominated by allocator noise.
    let grid_graph = unit_disk_graph(&layout, radius);
    let rounds = 3;
    let mut grid_seconds = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        let g = unit_disk_graph(&layout, radius);
        grid_seconds = grid_seconds.min(t.elapsed().as_secs_f64());
        assert_eq!(g.edge_count(), grid_graph.edge_count());
    }
    let mut brute_seconds = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        let g = unit_disk_graph_brute(&layout, radius);
        brute_seconds = brute_seconds.min(t.elapsed().as_secs_f64());
        assert_eq!(
            g.edge_count(),
            grid_graph.edge_count(),
            "grid and brute-force G_R must agree"
        );
    }
    IndexBench {
        nodes,
        edges: grid_graph.edge_count(),
        grid_seconds,
        brute_seconds,
        speedup: brute_seconds / grid_seconds.max(f64::MIN_POSITIVE),
    }
}

fn main() {
    let args = Args::capture();
    let nodes: usize = args.get("nodes", 10_000);
    let seed: u64 = args.get("seed", 0);
    let mut scenario = ChurnScenario::sized(nodes);
    scenario.cycles = args.get("cycles", scenario.cycles);
    scenario.cycle_ticks = args.get("cycle-ticks", scenario.cycle_ticks);
    scenario.warmup = args.get("warmup", scenario.warmup);
    scenario.validate().expect("valid scenario");

    println!(
        "churn — {} nodes ({} initial + {} joins, {} crashes), {:.0}×{:.0} field, \
         {} cycles × {} ticks (seed {seed})\n",
        scenario.total_nodes(),
        scenario.initial_nodes,
        scenario.joins,
        scenario.crashes,
        scenario.width,
        scenario.height,
        scenario.cycles,
        scenario.cycle_ticks,
    );

    let index = bench_index(&scenario, seed);
    println!(
        "spatial index: G_R at n={} ({} edges) — grid {:.1} ms, brute {:.1} ms, {:.0}× speedup\n",
        index.nodes,
        index.edges,
        index.grid_seconds * 1e3,
        index.brute_seconds * 1e3,
        index.speedup,
    );

    let probe = bench_probe(&scenario, seed);
    println!(
        "centralized G_α probe per burst — DeltaTopology vs from-scratch masked rebuild \
         (graphs asserted equal):"
    );
    for p in &probe {
        println!(
            "  burst t={:<6} {:>4} events, {:>6} live → re-grew {:>6} ({} grid scans): \
             incremental {:>7.1} ms vs scratch {:>7.1} ms ({:.1}×)",
            p.burst_t,
            p.events,
            p.live,
            p.regrown,
            p.grid_scans,
            p.incremental_seconds * 1e3,
            p.from_scratch_seconds * 1e3,
            p.speedup,
        );
    }
    println!();

    let start = Instant::now();
    let report = run_churn(&scenario, seed, None, &MetricsRegistry::disabled(), None);
    let wall = start.elapsed().as_secs_f64();

    for b in &report.bursts {
        println!(
            "  burst t={:<6} +{} joins, {} crashes → reconverged after {}",
            b.t,
            b.joins,
            b.crashes,
            match b.reconverged_after {
                Some(d) => format!("{d} ticks"),
                None => "—".to_owned(),
            }
        );
    }
    for r in &report.reference {
        println!(
            "  G_α ref t={:<6} {:>4} events → {:>6} view recomputations ({} live), {} edges, \
             settle-window partition {}",
            r.t,
            r.events,
            r.regrown,
            r.live,
            r.edges,
            if r.preserved {
                "preserved"
            } else {
                "NOT preserved"
            },
        );
    }
    println!(
        "\nbeacon overhead: {:.2} broadcasts/node/interval ({} broadcasts, {} deliveries)",
        report.traffic.broadcasts_per_node_per_interval,
        report.traffic.broadcasts,
        report.traffic.deliveries,
    );
    println!(
        "connectivity preserved at {:.1}% of probes; mean reconvergence {}; {} re-runs",
        report.connectivity_fraction * 100.0,
        match report.mean_reconvergence {
            Some(m) => format!("{m:.0} ticks"),
            None => "n/a".to_owned(),
        },
        report.reruns,
    );
    if let Some(s) = report.stretch.last() {
        println!(
            "stretch at t={}: power mean {:.3}, max {:.3} over {} pairs",
            s.t, s.power_mean, s.power_max, s.pairs
        );
    }
    println!(
        "live at end: {} of {} ({wall:.1}s wall)",
        report.live_at_end,
        scenario.total_nodes()
    );

    let trace = bench_trace(&scenario, seed, &report, wall);
    println!(
        "trace overhead over {} off/on pairs: median off {:.1}s vs on {:.1}s, {:+.1}% \
         (min {:+.1}%, max {:+.1}%) — {} events, {:.1} MB JSONL with timing off, \
         reports bit-identical",
        trace.pairs,
        trace.trace_off_seconds,
        trace.trace_on_seconds,
        trace.overhead_fraction * 100.0,
        trace.overhead_fraction_min * 100.0,
        trace.overhead_fraction_max * 100.0,
        trace.events_recorded,
        trace.trace_bytes as f64 / 1e6,
    );

    if !args.has("no-json") {
        let path = args.get("json", "BENCH_churn.json".to_owned());
        let doc = BenchDoc {
            report,
            index,
            probe,
            trace,
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
