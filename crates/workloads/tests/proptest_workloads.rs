//! Property-based tests of the scenario generators and the sharded,
//! batched reconfiguration service.

use cbtc_geom::Point2;
use cbtc_graph::Layout;
use cbtc_metrics::MetricsRegistry;
use cbtc_workloads::{
    run_service, stream_plan, ClusteredPlacement, GridPlacement, RandomPlacement, RandomWaypoint,
    ServiceConfig, ServiceReport,
};
use proptest::prelude::*;

/// Strips wall-clock fields (and the latency histograms built from
/// them), leaving the part of a report that must be deterministic.
fn deterministic(report: &ServiceReport) -> ServiceReport {
    let mut r = report.clone();
    r.elapsed_secs = 0.0;
    r.events_per_sec = 0.0;
    r.latency.clear();
    r.metrics = Default::default();
    for s in &mut r.per_stream {
        s.elapsed_secs = 0.0;
        s.events_per_sec = 0.0;
        s.latency.clear();
    }
    r
}

/// Additionally strips the commit grouping, for comparisons across
/// batch sizes (same events, same final state, different commits).
fn grouping_free(report: &ServiceReport) -> ServiceReport {
    let mut r = deterministic(report);
    r.batches = 0;
    r.batch_max = 0;
    r.stream_workers = 0;
    for s in &mut r.per_stream {
        s.batches = 0;
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_placement_is_in_field_and_deterministic(
        n in 1usize..60,
        w in 10.0f64..2000.0,
        h in 10.0f64..2000.0,
        seed in 0u64..1000,
    ) {
        let gen = RandomPlacement::new(n, w, h, 100.0);
        let a = gen.generate_layout(seed);
        prop_assert_eq!(a.len(), n);
        for (_, p) in a.iter() {
            prop_assert!((0.0..w).contains(&p.x));
            prop_assert!((0.0..h).contains(&p.y));
        }
        prop_assert_eq!(a, gen.generate_layout(seed));
    }

    #[test]
    fn clustered_placement_in_field(
        clusters in 1usize..6,
        per in 1usize..12,
        spread in 1.0f64..200.0,
        seed in 0u64..100,
    ) {
        let gen = ClusteredPlacement::new(clusters, per, spread, 1000.0, 800.0, 400.0);
        let layout = gen.generate_layout(seed);
        prop_assert_eq!(layout.len(), clusters * per);
        for (_, p) in layout.iter() {
            prop_assert!((0.0..=1000.0).contains(&p.x));
            prop_assert!((0.0..=800.0).contains(&p.y));
        }
    }

    #[test]
    fn grid_jitter_bounded(
        cols in 1usize..8,
        rows in 1usize..8,
        jitter in 0.0f64..30.0,
        seed in 0u64..100,
    ) {
        let spacing = 100.0;
        let layout = GridPlacement::new(cols, rows, spacing, jitter, 400.0).generate_layout(seed);
        prop_assert_eq!(layout.len(), cols * rows);
        for (i, (_, p)) in layout.iter().enumerate() {
            let gx = (i % cols) as f64 * spacing;
            let gy = (i / cols) as f64 * spacing;
            prop_assert!((p.x - gx).abs() <= jitter + 1e-9);
            prop_assert!((p.y - gy).abs() <= jitter + 1e-9);
        }
    }

    #[test]
    fn waypoint_motion_stays_in_field_and_respects_speed(
        n in 1usize..10,
        speed_max in 1.0f64..50.0,
        dt in 0.1f64..20.0,
        steps in 1usize..15,
        seed in 0u64..50,
    ) {
        let side = 500.0;
        let mut layout = Layout::new(vec![Point2::new(side / 2.0, side / 2.0); n]);
        let mut model = RandomWaypoint::new(side, side, 0.5, speed_max, 1.0, n, seed);
        for _ in 0..steps {
            let before: Vec<Point2> = layout.iter().map(|(_, p)| p).collect();
            model.advance(&mut layout, dt);
            for (i, (_, after)) in layout.iter().enumerate() {
                prop_assert!((0.0..=side).contains(&after.x));
                prop_assert!((0.0..=side).contains(&after.y));
                prop_assert!(
                    before[i].distance(after) <= speed_max * dt + 1e-6,
                    "node {i} exceeded its speed limit"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The serving pipeline's equivalence web, across streams × batch
    /// sizes × seeds × event mixes:
    ///
    /// * every stream's final graph matches a from-scratch construction;
    /// * a batched run is bit-identical (minus commit grouping) to the
    ///   event-at-a-time run of the same config;
    /// * stream `s` of a sharded run is bit-identical to the standalone
    ///   single-stream run of `stream_plan(config, seed, s)`;
    /// * a metrics-instrumented run is bit-identical to a bare one.
    #[test]
    fn sharded_batched_serve_equals_sequential_single_stream(
        seed in 0u64..u64::MAX,
        death in 20u32..130,
        join in 20u32..130,
        streams_idx in 0usize..3,
        batch_idx in 0usize..3,
    ) {
        let streams = [1u32, 2, 4][streams_idx];
        let batch_max = [1u32, 4, 32][batch_idx];
        let config = ServiceConfig {
            death_per_mille: death,
            join_per_mille: join,
            streams,
            batch_max,
            ..ServiceConfig::sized(96, 240)
        };
        let bare = |config: &ServiceConfig, seed| {
            run_service(config, seed, &MetricsRegistry::disabled(), None)
        };
        let report = bare(&config, seed);
        prop_assert!(report.matches_scratch, "a stream drifted from scratch");
        prop_assert_eq!(report.moves + report.joins + report.deaths, 240);
        for s in &report.per_stream {
            prop_assert!(s.matches_scratch, "stream {} drifted", s.stream);
        }

        // Batching changes commit grouping, never outcomes.
        let sequential = bare(&ServiceConfig { batch_max: 1, ..config }, seed);
        prop_assert_eq!(grouping_free(&report), grouping_free(&sequential));

        // Shard equivalence: each stream is its standalone plan.
        for s in 0..streams {
            let (plan, stream_seed) = stream_plan(&config, seed, s);
            let solo = bare(&plan, stream_seed);
            let mut lone = solo.per_stream[0].clone();
            let mut shard = report.per_stream[s as usize].clone();
            lone.stream = s;
            lone.elapsed_secs = 0.0;
            shard.elapsed_secs = 0.0;
            lone.events_per_sec = 0.0;
            shard.events_per_sec = 0.0;
            lone.latency.clear();
            shard.latency.clear();
            prop_assert_eq!(lone, shard, "stream {} != its standalone plan", s);
        }

        // Observability is inert.
        let observed = run_service(&config, seed, &MetricsRegistry::enabled(), None);
        prop_assert_eq!(deterministic(&observed), deterministic(&report));
    }
}
