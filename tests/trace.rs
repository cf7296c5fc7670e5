//! Observability guarantees (C-TRACE): tracing never perturbs a run,
//! same-seed traces are byte-identical regardless of thread count, and
//! the JSONL schema round-trips byte-exactly.

use cbtc::core::parallel::without_nested_fan_out;
use cbtc::core::{CbtcConfig, Network};
use cbtc::energy::{LifetimeConfig, LifetimeSim, TopologyPolicy};
use cbtc::geom::Alpha;
use cbtc::metrics::MetricsRegistry;
use cbtc::trace::{
    analyze, parse_trace, timeline, MemorySink, TraceEvent, TraceHandle, TRACE_VERSION,
};
use cbtc::workloads::{run_churn, ChurnReport, ChurnScenario, RandomPlacement};
use proptest::prelude::*;

/// Runs the smoke churn scenario with an in-memory trace and returns the
/// report plus the trace serialized exactly as a `JsonlSink` would have
/// written it.
fn traced_smoke_run(seed: u64) -> (ChurnReport, String) {
    let (handle, events) = TraceHandle::in_memory();
    let registry = MetricsRegistry::disabled();
    let report = run_churn(
        &ChurnScenario::smoke(),
        seed,
        None,
        &registry,
        Some(&handle),
    );
    let jsonl = MemorySink::to_jsonl(&events.lock().unwrap());
    (report, jsonl)
}

/// Tracing must not change the simulation: the report of a traced run is
/// bit-identical to the untraced run of the same seed.
#[test]
fn tracing_does_not_perturb_the_run() {
    let untraced = run_churn(
        &ChurnScenario::smoke(),
        11,
        None,
        &MetricsRegistry::disabled(),
        None,
    );
    let (traced, jsonl) = traced_smoke_run(11);
    assert_eq!(untraced, traced);
    assert!(!jsonl.is_empty());
}

/// Same seed → byte-identical JSONL, whether the parallel fan-out is
/// live or forced inline (the "regardless of thread count" guarantee:
/// trace hooks only observe state the sequential merge already fixed).
#[test]
fn trace_is_byte_identical_across_thread_counts() {
    let (report_parallel, jsonl_parallel) = traced_smoke_run(5);
    let (report_inline, jsonl_inline) = without_nested_fan_out(|| traced_smoke_run(5));
    assert_eq!(report_parallel, report_inline);
    assert_eq!(jsonl_parallel, jsonl_inline);

    // And a rerun on the same thread pool reproduces it too.
    let (_, jsonl_again) = traced_smoke_run(5);
    assert_eq!(jsonl_parallel, jsonl_again);
}

/// A real churn trace passes the analyzer's validation (header first,
/// clean epoch deltas, in-range node IDs) and replays into frames.
#[test]
fn churn_trace_validates_and_replays() {
    let (report, jsonl) = traced_smoke_run(3);
    let events = parse_trace(&jsonl).expect("traced run emits parseable JSONL");
    assert!(matches!(events.first(), Some(TraceEvent::Meta { .. })));

    let analysis = analyze(&events).expect("traced run emits a valid trace");
    let scenario = ChurnScenario::smoke();
    assert_eq!(analysis.version, TRACE_VERSION);
    assert_eq!(analysis.nodes as usize, scenario.total_nodes());
    assert_eq!(analysis.run, scenario.name);
    assert!(!analysis.epoch_timeline.is_empty());
    assert_eq!(analysis.deaths, scenario.crashes);
    assert_eq!(analysis.joins, scenario.joins);
    assert_eq!(analysis.span, scenario.horizon() as f64);

    // The last epoch's accumulated edge set must equal the maintained
    // topology's final probe.
    let last_sample = report.samples.last().expect("probes recorded");
    assert_eq!(analysis.final_edges.len() as u64, last_sample.edges);

    let frames = timeline(&events).expect("timeline replays");
    assert_eq!(frames.len(), analysis.epoch_timeline.len());
    let last = frames.last().expect("at least one frame");
    assert_eq!(last.edges, analysis.final_edges);
    assert_eq!(
        last.alive.iter().filter(|a| **a).count() as u32,
        last_sample.live
    );
}

/// The lifetime engine's hooks: deaths, power changes and energy
/// snapshots recorded over battery drain form a valid trace, and tracing
/// leaves the report bit-identical.
#[test]
fn lifetime_trace_records_deaths_power_and_energy() {
    let network = || {
        let layout = RandomPlacement::new(15, 700.0, 700.0, 500.0).generate_layout(2);
        Network::with_paper_radio(layout)
    };
    let mut config = LifetimeConfig::paper_default();
    config.packets_per_epoch = 10;
    config.max_epochs = 3_000;
    config.initial_energy = 150_000.0;
    let policy = || TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS));

    let untraced = LifetimeSim::new(network(), policy(), config, 2).run();

    let (handle, events) = TraceHandle::in_memory();
    let mut sim = LifetimeSim::new(network(), policy(), config, 2);
    sim.set_trace(handle);
    let traced = sim.run();
    assert_eq!(untraced, traced);

    let events = events.lock().unwrap();
    let analysis = analyze(&events).expect("lifetime trace is valid");
    assert_eq!(analysis.nodes, 15);
    assert!(analysis.deaths >= 1, "the run should reach first death");
    assert!(
        analysis
            .power_per_node
            .iter()
            .any(|(changes, _)| *changes > 0),
        "CBTC radii are recorded as PowerChange events"
    );
    let (_, energy) = analysis.last_energy.as_ref().expect("energy snapshots");
    assert_eq!(energy.len(), 15);
    assert!(
        !analysis.epoch_timeline.is_empty(),
        "the initial topology and each death epoch are recorded"
    );
}

/// Strategy: one arbitrary event of every schema variant, with payload
/// floats exercising the shortest-round-trip serializer.
fn events() -> impl Strategy<Value = TraceEvent> {
    (
        (0u32..13, 0.0f64..1e7, 0u32..64, 0u64..u64::MAX),
        proptest::collection::vec(-2000.0f64..2000.0, 0..8),
        proptest::collection::vec((0u32..64, 64u32..128), 0..8),
    )
        .prop_map(|((variant, time, node, big), floats, pairs)| {
            let f = |i: usize| floats.get(i).copied().unwrap_or(0.25);
            match variant {
                0 => TraceEvent::Meta {
                    version: TRACE_VERSION,
                    run: format!("run-{node}"),
                    nodes: node + 1,
                    seed: big,
                    alpha: time,
                    width: f(0),
                    height: f(1),
                    pricing: if node % 2 == 0 {
                        "geometric"
                    } else {
                        "measured"
                    }
                    .to_owned(),
                },
                1 => TraceEvent::Positions {
                    time,
                    xs: floats.clone(),
                    ys: floats.iter().map(|v| -v).collect(),
                    alive: floats.iter().map(|v| *v > 0.0).collect(),
                },
                2 => TraceEvent::TopologyEpoch {
                    time,
                    epoch: node,
                    live: node + 1,
                    edges: big % 10_000,
                    added: pairs.clone(),
                    removed: pairs.iter().rev().copied().collect(),
                },
                3 => TraceEvent::PowerChange {
                    time,
                    node,
                    power: f(0),
                },
                4 => TraceEvent::Death { time, node },
                5 => TraceEvent::Join {
                    time,
                    node,
                    x: f(0),
                    y: f(1),
                },
                6 => TraceEvent::Move {
                    time,
                    node,
                    x: f(2),
                    y: f(3),
                },
                7 => TraceEvent::Burst {
                    time,
                    joins: node,
                    crashes: node / 2,
                },
                8 => TraceEvent::Beacon { time },
                9 => TraceEvent::Reconverged {
                    time,
                    burst: time / 2.0,
                    after: time - time / 2.0,
                },
                10 => TraceEvent::Reconfig {
                    time,
                    events: node,
                    regrown: node * 3,
                    grid_scans: node / 2,
                    added: node,
                    removed: node + 7,
                    nanos: big,
                },
                11 => TraceEvent::EnergySnapshot {
                    time,
                    energy: floats.clone(),
                },
                _ => TraceEvent::PrrSnapshot {
                    time,
                    delivered: big,
                    lost: big / 3,
                    phy_lost: big / 5,
                    csma_deferrals: big / 7,
                    csma_forced: big / 11,
                    prr: (f(0) / 2000.0).clamp(0.0, 1.0),
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Schema round-trip: serialize → deserialize → re-serialize is
    /// byte-exact for every variant, so trace equality can be checked on
    /// the JSONL itself.
    #[test]
    fn schema_roundtrips_byte_exact(event in events()) {
        let json = serde_json::to_string(&event).expect("serialize");
        let back: TraceEvent = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(&back, &event);
        prop_assert_eq!(serde_json::to_string(&back).expect("re-serialize"), json);
    }
}
