//! Criterion micro-benchmarks of the hot paths: the α-gap test (batch
//! and incremental), the spatial shell query, the centralized growing
//! phase (geometric, and shadowed with and without its per-ring
//! admission screen), the three optimizations, the baseline spanners,
//! one routing tree (full, and grown only until one or two random
//! targets settle), and a full distributed-protocol simulation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cbtc_core::opt::{pairwise_removal, shrink_back, PairwisePolicy};
use cbtc_core::phy::{AckGatedChannel, PhyChannel};
use cbtc_core::protocol::{CbtcNode, GrowthConfig};
use cbtc_core::reconfig::{GeometricMetric, LinkMetric};
use cbtc_core::{
    grow, grow_node_metric_scratch, run_basic, run_centralized, CbtcConfig, GrowScratch, Network,
};
use cbtc_geom::gap::{has_alpha_gap, FlatGapTracker};
use cbtc_geom::{Alpha, Angle};
use cbtc_graph::paths::{power_weight, shortest_path_tree, DijkstraScratch, Rows, SpTree};
use cbtc_graph::{spanners, Layout, NodeId, RingIndex, SpatialGrid};
use cbtc_phy::{Shadowing, ShadowingMode};
use cbtc_radio::{PathLoss, Power, PowerSchedule};
use cbtc_sim::{Engine, FaultConfig};
use cbtc_workloads::RandomPlacement;

fn paper_network(n: usize, seed: u64) -> Network {
    RandomPlacement::new(n, 1500.0, 1500.0, 500.0).generate(seed)
}

fn bench_gap_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("gap_detection");
    for size in [8usize, 64, 512] {
        // Deterministic pseudo-random direction sets.
        let dirs: Vec<Angle> = (0..size)
            .map(|i| Angle::new((i as f64 * 0.61803398875).fract() * std::f64::consts::TAU))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(size), &dirs, |b, dirs| {
            b.iter(|| has_alpha_gap(std::hint::black_box(dirs), Alpha::FIVE_PI_SIXTHS));
        });
    }
    group.finish();
}

fn bench_gap_tracker(c: &mut Criterion) {
    let mut group = c.benchmark_group("gap_tracker");
    for size in [8usize, 64, 512] {
        let dirs: Vec<Angle> = (0..size)
            .map(|i| Angle::new((i as f64 * 0.61803398875).fract() * std::f64::consts::TAU))
            .collect();
        // The growing-phase access pattern: insert one direction, ask for
        // the α-gap, repeat — re-running the batch scan vs the flat
        // tracker.
        group.bench_with_input(BenchmarkId::new("batch", size), &dirs, |b, dirs| {
            b.iter(|| {
                let mut prefix: Vec<Angle> = Vec::with_capacity(dirs.len());
                let mut open = true;
                for &d in std::hint::black_box(dirs) {
                    prefix.push(d);
                    open &= has_alpha_gap(&prefix, Alpha::FIVE_PI_SIXTHS);
                }
                open
            });
        });
        // The flat sorted-vec tracker the hot loop actually runs: same
        // verdicts bit-for-bit as `batch`, O(1) per insert after the
        // sorted insertion, allocation amortized via `reset`.
        group.bench_with_input(BenchmarkId::new("flat", size), &dirs, |b, dirs| {
            let mut tracker = FlatGapTracker::new(Alpha::FIVE_PI_SIXTHS);
            b.iter(|| {
                tracker.reset(Alpha::FIVE_PI_SIXTHS);
                let mut open = true;
                for &d in std::hint::black_box(dirs) {
                    tracker.insert(d);
                    open &= tracker.has_open_gap();
                }
                open
            });
        });
    }
    group.finish();
}

fn bench_grow_node_scratch(c: &mut Criterion) {
    let mut group = c.benchmark_group("grow_node");
    group.sample_size(20);
    let n = 10_000usize;
    let side = 1500.0 * (n as f64 / 100.0).sqrt();
    let network = RandomPlacement::new(n, side, side, 500.0).generate(21);
    let layout = network.layout().clone();
    let cell = cbtc_core::construction_cell(&layout, 500.0, n);
    let grid = SpatialGrid::from_layout(&layout, cell);
    let ids: Vec<cbtc_graph::NodeId> = layout.node_ids().take(256).collect();
    // Growing 256 nodes with one reused scratch — what each worker
    // thread runs.
    group.bench_function("scratch_reuse_256_of_10k", |b| {
        let mut scratch = GrowScratch::new();
        b.iter(|| {
            std::hint::black_box(&ids)
                .iter()
                .map(|&u| {
                    grow_node_metric_scratch(
                        &layout,
                        &grid,
                        &GeometricMetric,
                        u,
                        Alpha::FIVE_PI_SIXTHS,
                        500.0,
                        &mut scratch,
                    )
                    .discoveries
                    .len()
                })
                .sum::<usize>()
        });
    });
    group.finish();
}

/// A metric with its admission screen taken off: it forwards `cost`,
/// `reach_boost` and `direction` only, so every candidate is priced.
struct Unscreened<'m, M>(&'m M);

impl<M: LinkMetric> LinkMetric for Unscreened<'_, M> {
    fn cost(&self, u: NodeId, v: NodeId, d: f64) -> f64 {
        self.0.cost(u, v, d)
    }

    fn reach_boost(&self) -> f64 {
        self.0.reach_boost()
    }

    fn direction(&self, layout: &Layout, u: NodeId, v: NodeId) -> Angle {
        self.0.direction(layout, u, v)
    }
}

fn bench_phy_grow(c: &mut Criterion) {
    let mut group = c.benchmark_group("phy_grow");
    group.sample_size(10);
    // The construct_phy grow at 2k nodes: paper density, σ = 8 dB
    // per-direction shadowing, ack-gated — with the per-ring screen and
    // with every candidate priced (the same views either way).
    let n = 2000usize;
    let side = 1500.0 * (n as f64 / 100.0).sqrt();
    let network = RandomPlacement::new(n, side, side, 500.0).generate(1);
    let shadowing = Shadowing::new(8.0, ShadowingMode::Independent, 1);
    let channel = PhyChannel::new(network.model(), &shadowing);
    let gated = AckGatedChannel::new(&channel, network.max_range());
    group.bench_function("screened_2k", |b| {
        b.iter(|| {
            grow(
                std::hint::black_box(&network),
                &gated,
                Alpha::FIVE_PI_SIXTHS,
                None,
            )
        });
    });
    group.bench_function("unscreened_2k", |b| {
        b.iter(|| {
            grow(
                std::hint::black_box(&network),
                &Unscreened(&gated),
                Alpha::FIVE_PI_SIXTHS,
                None,
            )
        });
    });
    group.finish();
}

fn bench_shell_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("shell_query");
    group.sample_size(20);
    let n = 10_000usize;
    let side = 1500.0 * (n as f64 / 100.0).sqrt();
    let network = RandomPlacement::new(n, side, side, 500.0).generate(13);
    let layout = network.layout().clone();
    let cell = cbtc_core::construction_cell(&layout, 500.0, n);
    let grid = SpatialGrid::from_layout(&layout, cell);
    let center = layout.position(cbtc_graph::NodeId::new(0));
    // Nearest-first termination: how fast can the shell scan surface the
    // first ~20 candidates, vs materializing the whole max-range disk.
    group.bench_function("first_rings_10k", |b| {
        b.iter(|| {
            let mut scan = grid.shell_scan(std::hint::black_box(center), 500.0);
            let mut out = Vec::new();
            while out.len() < 20 && scan.scan_next(&mut out) {}
            out.len()
        });
    });
    group.bench_function("full_disk_10k", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            grid.candidates_within(std::hint::black_box(center), 500.0, &mut out);
            out.len()
        });
    });
    group.finish();
}

fn bench_centralized(c: &mut Criterion) {
    let mut group = c.benchmark_group("centralized_cbtc");
    group.sample_size(20);
    for n in [50usize, 100, 200] {
        let network = paper_network(n, 7);
        group.bench_with_input(BenchmarkId::new("basic_5pi6", n), &network, |b, net| {
            b.iter(|| run_basic(std::hint::black_box(net), Alpha::FIVE_PI_SIXTHS));
        });
        group.bench_with_input(BenchmarkId::new("all_ops_2pi3", n), &network, |b, net| {
            b.iter(|| {
                run_centralized(
                    std::hint::black_box(net),
                    &CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS),
                )
            });
        });
    }
    group.finish();
}

fn bench_optimizations(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizations");
    group.sample_size(20);
    // 100 nodes is the paper's scale and always runs inline; at 10k
    // nodes (paper density) every §3 stage fans out over the cores.
    for n in [100usize, 10_000] {
        let side = 1500.0 * (n as f64 / 100.0).sqrt();
        let network = RandomPlacement::new(n, side, side, 500.0).generate(3);
        let basic = run_basic(&network, Alpha::FIVE_PI_SIXTHS);
        let closure = basic.symmetric_closure();

        group.bench_function(format!("shrink_back_{n}"), |b| {
            b.iter(|| shrink_back(std::hint::black_box(&basic)));
        });
        group.bench_function(format!("pairwise_removal_{n}"), |b| {
            b.iter(|| {
                pairwise_removal(
                    std::hint::black_box(&closure),
                    network.layout(),
                    PairwisePolicy::PowerReducing,
                )
            });
        });
        group.bench_function(format!("symmetric_closure_{n}"), |b| {
            b.iter(|| std::hint::black_box(&basic).symmetric_closure());
        });
    }
    group.finish();
}

fn bench_spanners(c: &mut Criterion) {
    let mut group = c.benchmark_group("spanners");
    group.sample_size(20);
    let network = paper_network(100, 5);
    let layout = network.layout();
    group.bench_function("rng_100", |b| {
        b.iter(|| spanners::relative_neighborhood_graph(std::hint::black_box(layout), 500.0));
    });
    group.bench_function("gabriel_100", |b| {
        b.iter(|| spanners::gabriel_graph(std::hint::black_box(layout), 500.0));
    });
    group.bench_function("mst_100", |b| {
        b.iter(|| spanners::euclidean_mst(std::hint::black_box(layout), 500.0));
    });
    group.bench_function("min_energy_100", |b| {
        b.iter(|| spanners::minimum_energy_graph(std::hint::black_box(layout), 500.0, 2.0, 0.0));
    });
    group.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis");
    group.sample_size(20);
    let network = paper_network(100, 11);
    let graph = run_centralized(&network, &CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS))
        .into_final_graph();
    group.bench_function("edge_betweenness_100", |b| {
        b.iter(|| cbtc_graph::load::edge_betweenness(std::hint::black_box(&graph)));
    });
    group.bench_function("cut_structure_100", |b| {
        b.iter(|| cbtc_graph::biconnectivity::cut_structure(std::hint::black_box(&graph)));
    });
    group.bench_function("path_stats_100", |b| {
        b.iter(|| cbtc_graph::load::path_stats(std::hint::black_box(&graph)));
    });
    group.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing");
    group.sample_size(20);
    // The lifetime workload's tree: 1000 nodes at paper density,
    // CBTC(5π/6) with every §3 optimization, priced at d².
    let n = 1000usize;
    let side = 1500.0 * (n as f64 / 100.0).sqrt();
    let network = RandomPlacement::new(n, side, side, 500.0).generate(17);
    let graph = run_centralized(&network, &CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS))
        .into_final_graph();
    let weight = power_weight(network.layout(), 2.0);
    let rows: Vec<Vec<(NodeId, f64)>> = graph
        .node_ids()
        .map(|u| graph.neighbors(u).map(|v| (v, weight(u, v))).collect())
        .collect();
    let source = NodeId::new(0);
    // Pre-priced rows with a reused heap: what each lifetime worker runs.
    group.bench_function("row_kernel_1000", |b| {
        let mut scratch = DijkstraScratch::default();
        b.iter(|| shortest_path_tree(Rows(std::hint::black_box(&rows)), source, &mut scratch));
    });
    // A fresh tree grown only until 1 or 2 targets settle: what a
    // lifetime sender with that many destinations starts. The targets
    // cycle through a fixed pseudo-random sequence of nodes.
    let targets: Vec<NodeId> = (0..1024u64)
        .map(|i| NodeId::new((i.wrapping_mul(2_654_435_761) % n as u64) as u32))
        .collect();
    for k in [1usize, 2] {
        group.bench_function(format!("grow_until_{k}_1000"), |b| {
            let mut scratch = DijkstraScratch::default();
            let mut stops = targets.chunks(k).cycle();
            b.iter(|| {
                let mut tree = SpTree::new(n, source);
                let stop = stops.next().expect("cycle is endless");
                tree.grow_to(Rows(std::hint::black_box(&rows)), stop, &mut scratch);
                tree
            });
        });
    }
    // Graph, weight closure and include mask, pricing every relaxation.
    group.bench_function("sp_tree_compute_1000", |b| {
        b.iter(|| SpTree::compute(std::hint::black_box(&graph), source, &weight, |_| true));
    });
    group.finish();
}

fn bench_distributed(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed_protocol");
    group.sample_size(10);
    for n in [25usize, 50] {
        let network = paper_network(n, 9);
        let model = *network.model();
        let config = GrowthConfig {
            alpha: Alpha::FIVE_PI_SIXTHS,
            schedule: PowerSchedule::doubling(Power::new(100.0), model.max_power()),
            ack_timeout: 3,
            model,
        };
        group.bench_with_input(BenchmarkId::from_parameter(n), &network, |b, net| {
            b.iter(|| {
                let nodes: Vec<CbtcNode> = (0..net.len())
                    .map(|_| CbtcNode::new(config, false))
                    .collect();
                let mut engine = Engine::new(
                    net.layout().clone(),
                    model,
                    nodes,
                    FaultConfig::reliable_synchronous(),
                );
                engine.run_to_quiescence(10_000_000)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gap_detection,
    bench_gap_tracker,
    bench_grow_node_scratch,
    bench_phy_grow,
    bench_shell_query,
    bench_centralized,
    bench_optimizations,
    bench_spanners,
    bench_analysis,
    bench_routing,
    bench_distributed
);
criterion_main!(benches);
