//! Property tests of the metric-generic incremental reconfiguration
//! engine: after every batch of deaths, joins and moves, the maintained
//! [`DeltaTopology`] must equal a from-scratch masked construction over
//! the current membership and geometry — on the **geometric** metric
//! (against `run_centralized_masked`) and on a **shadowed
//! effective-distance** metric with genuinely asymmetric links (against
//! a guarded masked `construct` on the channel).

use cbtc_core::phy::{optimize_phy, AckGatedChannel, PhyChannel};
use cbtc_core::reconfig::{DeltaTopology, GeometricMetric, LinkMetric, NodeEvent};
use cbtc_core::{construct, grow, run_centralized_masked, CbtcConfig, Network};
use cbtc_geom::{Alpha, Point2};
use cbtc_graph::{Layout, NodeId, UndirectedGraph};
use cbtc_phy::{Shadowing, ShadowingMode};
use cbtc_radio::PowerLaw;
use proptest::prelude::*;

/// An owning effective-distance metric for the tests: constructs the
/// borrowing [`PhyChannel`] per call, so the arithmetic is exactly what
/// the from-scratch phy reference computes.
#[derive(Debug, Clone)]
struct ShadowedMetric {
    model: PowerLaw,
    shadowing: Shadowing,
}

impl ShadowedMetric {
    fn channel(&self) -> PhyChannel<'_> {
        PhyChannel::new(&self.model, &self.shadowing)
    }
}

impl LinkMetric for ShadowedMetric {
    fn cost(&self, u: NodeId, v: NodeId, d: f64) -> f64 {
        self.channel().cost(u, v, d)
    }

    fn reach_boost(&self) -> f64 {
        self.channel().reach_boost()
    }
}

/// The feedback-gated effective-distance metric, owning its channel
/// state: forward cost gated on the reverse link closing at max power —
/// the [`cbtc_core::phy::AckGatedChannel`] arithmetic, owned so it can
/// live inside a [`DeltaTopology`].
#[derive(Debug, Clone)]
struct GatedMetric {
    inner: ShadowedMetric,
    max_range: f64,
}

impl LinkMetric for GatedMetric {
    fn cost(&self, u: NodeId, v: NodeId, d: f64) -> f64 {
        AckGatedChannel::new(&self.inner.channel(), self.max_range).cost(u, v, d)
    }

    fn reach_boost(&self) -> f64 {
        self.inner.channel().reach_boost()
    }
}

/// Random distinct-point layouts.
fn layouts() -> impl Strategy<Value = Layout> {
    (6usize..36, 400.0f64..1600.0).prop_flat_map(|(n, side)| {
        proptest::collection::vec((0.0..side, 0.0..side), n).prop_map(|pts| {
            let mut points: Vec<Point2> = Vec::with_capacity(pts.len());
            for (x, y) in pts {
                let mut p = Point2::new(x, y);
                while points.contains(&p) {
                    p = Point2::new(p.x + 0.25, p.y);
                }
                points.push(p);
            }
            Layout::new(points)
        })
    })
}

fn configs() -> [CbtcConfig; 3] {
    [
        CbtcConfig::new(Alpha::FIVE_PI_SIXTHS),
        CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS),
        CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS),
    ]
}

/// A deterministic stream of event batches over `n` slots inside a
/// `side × side` field: deaths (keeping ≥ 2 alive), joins of previously
/// departed slots, and moves — every kind exercised, at most one event
/// per node per batch.
fn event_batches(n: usize, side: f64, seed: u64) -> Vec<Vec<NodeEvent>> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    let mut active = vec![true; n];
    let mut alive_count = n;
    let mut batches = Vec::new();
    for _ in 0..6 {
        let mut batch: Vec<NodeEvent> = Vec::new();
        let mut used = vec![false; n];
        for _ in 0..1 + (next() as usize % 3) {
            let kind = next() % 3;
            let pick =
                |pred: &dyn Fn(usize) -> bool, next: &mut dyn FnMut() -> u64| -> Option<usize> {
                    let candidates: Vec<usize> = (0..n).filter(|&i| pred(i)).collect();
                    if candidates.is_empty() {
                        None
                    } else {
                        Some(candidates[next() as usize % candidates.len()])
                    }
                };
            match kind {
                0 if alive_count > 2 => {
                    if let Some(i) = pick(&|i| active[i] && !used[i], &mut next) {
                        active[i] = false;
                        alive_count -= 1;
                        used[i] = true;
                        batch.push(NodeEvent::Death(NodeId::new(i as u32)));
                    }
                }
                1 => {
                    if let Some(i) = pick(&|i| !active[i] && !used[i], &mut next) {
                        active[i] = true;
                        alive_count += 1;
                        used[i] = true;
                        let p = Point2::new(
                            next() as f64 / u64::MAX as f64 * side,
                            next() as f64 / u64::MAX as f64 * side,
                        );
                        batch.push(NodeEvent::Join(NodeId::new(i as u32), p));
                    }
                }
                _ => {
                    if let Some(i) = pick(&|i| active[i] && !used[i], &mut next) {
                        used[i] = true;
                        let p = Point2::new(
                            next() as f64 / u64::MAX as f64 * side,
                            next() as f64 / u64::MAX as f64 * side,
                        );
                        batch.push(NodeEvent::Move(NodeId::new(i as u32), p));
                    }
                }
            }
        }
        if !batch.is_empty() {
            batches.push(batch);
        }
    }
    batches
}

/// The field side of a layout (for placing joins/moves inside it).
fn side_of(layout: &Layout) -> f64 {
    layout
        .positions()
        .iter()
        .fold(0.0f64, |m, p| m.max(p.x).max(p.y))
        .max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Geometric metric: incremental ≡ from-scratch for every event
    /// kind, at every optimization level, after every batch.
    #[test]
    fn geometric_events_match_from_scratch(
        layout in layouts(),
        seed in 0u64..u64::MAX,
    ) {
        let side = side_of(&layout);
        let batches = event_batches(layout.len(), side, seed);
        for config in configs() {
            let mut topo = DeltaTopology::new(
                layout.clone(),
                vec![true; layout.len()],
                500.0,
                config,
                false,
                GeometricMetric,
            );
            for batch in &batches {
                topo.apply(batch);
                let network = Network::new(topo.layout().clone(), PowerLaw::paper_default());
                let full: UndirectedGraph =
                    run_centralized_masked(&network, &config, topo.active()).into_final_graph();
                prop_assert_eq!(
                    topo.graph(), &full,
                    "config {:?} diverged after {:?}", config, batch
                );
            }
        }
    }

    /// Shadowed effective-distance metric (per-direction gains, so
    /// genuinely asymmetric costs), guarded pipeline: incremental ≡
    /// from-scratch for every event kind after every batch.
    #[test]
    fn shadowed_events_match_from_scratch(
        layout in layouts(),
        seed in 0u64..u64::MAX,
        sigma in 1.0f64..8.0,
    ) {
        let side = side_of(&layout);
        let batches = event_batches(layout.len(), side, seed);
        let model = PowerLaw::paper_default();
        let metric = ShadowedMetric {
            model,
            shadowing: Shadowing::new(sigma, ShadowingMode::Independent, seed ^ 0xD1CE),
        };
        for config in configs() {
            let mut topo = DeltaTopology::new(
                layout.clone(),
                vec![true; layout.len()],
                500.0,
                config,
                true,
                metric.clone(),
            );
            for batch in &batches {
                topo.apply(batch);
                let network = Network::new(topo.layout().clone(), model);
                let channel = PhyChannel::new(network.model(), &metric.shadowing);
                let full = construct(&network, &channel, &config, Some(topo.active()), true)
                    .into_final_graph();
                prop_assert_eq!(
                    topo.graph(), &full,
                    "config {:?}, σ {} diverged after {:?}", config, sigma, batch
                );
            }
        }
    }

    /// Feedback-gated metric (forward cost gated on the reverse link
    /// closing at max power — genuinely infinite costs in play),
    /// guarded pipeline: incremental ≡ from-scratch after every batch,
    /// and a metrics-instrumented twin stays bit-identical throughout.
    #[test]
    fn gated_events_match_from_scratch_metrics_on_and_off(
        layout in layouts(),
        seed in 0u64..u64::MAX,
        sigma in 1.0f64..8.0,
    ) {
        let side = side_of(&layout);
        let batches = event_batches(layout.len(), side, seed);
        let model = PowerLaw::paper_default();
        let metric = GatedMetric {
            inner: ShadowedMetric {
                model,
                shadowing: Shadowing::new(sigma, ShadowingMode::Independent, seed ^ 0x6A7E),
            },
            max_range: 500.0,
        };
        let config = CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS);
        let mut topo = DeltaTopology::new(
            layout.clone(),
            vec![true; layout.len()],
            500.0,
            config,
            true,
            metric.clone(),
        );
        let registry = cbtc_metrics::MetricsRegistry::enabled();
        let mut observed = DeltaTopology::new(
            layout.clone(),
            vec![true; layout.len()],
            500.0,
            config,
            true,
            metric.clone(),
        );
        observed.set_metrics(&registry);
        for batch in &batches {
            topo.apply(batch);
            observed.apply(batch);
            prop_assert_eq!(
                topo.graph(), observed.graph(),
                "metrics instrumentation perturbed the gated graph after {:?}", batch
            );
            let network = Network::new(topo.layout().clone(), model);
            let channel = PhyChannel::new(network.model(), &metric.inner.shadowing);
            let gated = AckGatedChannel::new(&channel, 500.0);
            let basic = grow(&network, &gated, config.alpha(), Some(topo.active()));
            let full = optimize_phy(&network, &channel, &config, basic).into_final_graph();
            prop_assert_eq!(
                topo.graph(), &full,
                "gated metric, σ {} diverged after {:?}", sigma, batch
            );
        }
        prop_assert!(
            registry.snapshot().counter("reconfig.batches").unwrap_or(0) >= batches.len() as u64
        );
    }
}

/// One large mixed batch whose affected set far exceeds the re-grow
/// fan-out's chunk floor, judged against a from-scratch construction —
/// and against a thread-capped run, so on multi-core hosts the parallel
/// re-grow path is asserted bit-identical to the inline one.
#[test]
fn large_batch_parallel_regrow_is_bit_identical_to_sequential() {
    // A 17 × 17 grid with slight deterministic jitter, ~40 % churned in
    // one batch: every survivor near an event re-grows.
    let n = 289usize;
    let side = 2400.0;
    let cols = 17usize;
    let points: Vec<Point2> = (0..n)
        .map(|i| {
            let (r, c) = (i / cols, i % cols);
            Point2::new(
                c as f64 * side / cols as f64 + (i % 7) as f64,
                r as f64 * side / cols as f64 + (i % 5) as f64,
            )
        })
        .collect();
    let layout = Layout::new(points);
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    let mut batch: Vec<NodeEvent> = Vec::new();
    for i in (0..n).step_by(3) {
        let u = NodeId::new(i as u32);
        match next() % 3 {
            0 => batch.push(NodeEvent::Death(u)),
            _ => batch.push(NodeEvent::Move(
                u,
                Point2::new(
                    next() as f64 / u64::MAX as f64 * side,
                    next() as f64 / u64::MAX as f64 * side,
                ),
            )),
        }
    }
    let config = CbtcConfig::new(Alpha::FIVE_PI_SIXTHS);
    let build = || {
        DeltaTopology::new(
            layout.clone(),
            vec![true; n],
            500.0,
            config,
            false,
            GeometricMetric,
        )
    };
    let mut parallel = build();
    parallel.apply(&batch);
    assert!(
        parallel.last_regrown() > 64,
        "batch must push the affected set past the fan-out floor (got {})",
        parallel.last_regrown()
    );
    let mut capped = build();
    cbtc_core::parallel::set_thread_cap(Some(1));
    capped.apply(&batch);
    cbtc_core::parallel::set_thread_cap(None);
    assert_eq!(
        parallel.graph(),
        capped.graph(),
        "parallel re-grow diverged from the single-threaded apply"
    );
    assert_eq!(parallel.last_regrown(), capped.last_regrown());
    assert_eq!(parallel.last_grid_scans(), capped.last_grid_scans());
    let network = Network::new(parallel.layout().clone(), PowerLaw::paper_default());
    let full: UndirectedGraph =
        run_centralized_masked(&network, &config, parallel.active()).into_final_graph();
    assert_eq!(parallel.graph(), &full, "batch apply drifted from scratch");
}
