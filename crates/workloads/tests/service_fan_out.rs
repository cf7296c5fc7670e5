//! `run_service` fans its streams out through `par_map`: the report's
//! `stream_workers` is the thread count that fan-out planned, the
//! process-wide `par.*` series record it, a thread cap of one serves the
//! streams inline, and none of it changes the outcome or, with timing
//! off, the trace.
//!
//! This is a test binary of its own because the thread cap and the
//! fan-out instruments are process-global; its tests take turns.

use std::sync::{Mutex, MutexGuard};

use cbtc_core::parallel::{
    detected_cores, install_metrics, planned_threads, set_thread_cap, uninstall_metrics,
};
use cbtc_metrics::MetricsRegistry;
use cbtc_trace::{MemorySink, TraceHandle};
use cbtc_workloads::{run_service, ServiceConfig, ServiceReport};

/// Serializes the tests: each sets the process-global cap and installs
/// the process-global fan-out instruments.
fn take_globals() -> MutexGuard<'static, ()> {
    static GLOBALS: Mutex<()> = Mutex::new(());
    GLOBALS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Serves four streams under `cap` with the fan-out instruments on.
fn serve(cap: Option<usize>) -> ServiceReport {
    let config = ServiceConfig {
        streams: 4,
        batch_max: 8,
        ..ServiceConfig::sized(160, 800)
    };
    set_thread_cap(cap);
    let registry = MetricsRegistry::enabled();
    install_metrics(&registry);
    let report = run_service(&config, 3, &registry, None);
    uninstall_metrics();
    set_thread_cap(None);
    report
}

/// The outcome: every field but the wall-clock ones, the worker count
/// and the metrics, plus the engines' own (non-`par.*`) counters.
fn outcome(report: &ServiceReport) -> (ServiceReport, Vec<(String, u64)>) {
    let mut r = report.clone();
    r.elapsed_secs = 0.0;
    r.events_per_sec = 0.0;
    r.latency.clear();
    r.stream_workers = 0;
    for s in &mut r.per_stream {
        s.elapsed_secs = 0.0;
        s.events_per_sec = 0.0;
        s.latency.clear();
    }
    let counters = r
        .metrics
        .counters
        .iter()
        .filter(|(name, _)| !name.starts_with("par."))
        .cloned()
        .collect();
    r.metrics = Default::default();
    (r, counters)
}

#[test]
fn uncapped_streams_fan_out_over_the_planned_workers() {
    let _globals = take_globals();
    let report = serve(None);
    assert!(report.matches_scratch);
    assert_eq!(report.stream_workers as usize, planned_threads(4, 1));
    if detected_cores() >= 2 {
        assert!(report.stream_workers >= 2, "4 streams on ≥ 2 cores");
        assert_eq!(
            report.metrics.gauge("par.planned_threads"),
            Some(f64::from(report.stream_workers)),
            "the par.* series must record the stream fan-out"
        );
        assert_eq!(report.metrics.counter("par.fan_outs"), Some(1));
    }
}

#[test]
fn a_cap_of_one_serves_the_streams_inline_with_equal_outcomes() {
    let _globals = take_globals();
    let capped = serve(Some(1));
    let uncapped = serve(None);
    assert_eq!(capped.stream_workers, 1);
    assert_eq!(capped.metrics.counter("par.fan_outs"), Some(0));
    let (capped_outcome, capped_counters) = outcome(&capped);
    let (uncapped_outcome, uncapped_counters) = outcome(&uncapped);
    assert!(capped_counters
        .iter()
        .any(|(name, _)| name == "reconfig.batches"));
    assert_eq!(capped_outcome, uncapped_outcome);
    assert_eq!(capped_counters, uncapped_counters);
}

/// Two streams served in parallel (on two or more cores) record their
/// traces apart and append them in stream order: two same-seed runs with
/// timing off write byte-identical JSONL, whatever the threads' timing.
#[test]
fn same_seed_multi_stream_traces_are_byte_identical() {
    let _globals = take_globals();
    set_thread_cap(None);
    let config = ServiceConfig {
        streams: 2,
        batch_max: 8,
        ..ServiceConfig::sized(400, 4000)
    };
    let trace = || {
        let (handle, sink) = TraceHandle::in_memory();
        let report = run_service(&config, 5, &MetricsRegistry::disabled(), Some(&handle));
        assert!(report.matches_scratch);
        assert_eq!(report.stream_workers as usize, planned_threads(2, 1));
        let records = sink.lock().unwrap();
        MemorySink::to_jsonl(&records)
    };
    let (first, second) = (trace(), trace());
    assert!(
        first.lines().count() > 100,
        "{} records",
        first.lines().count()
    );
    assert_eq!(first, second);
}
