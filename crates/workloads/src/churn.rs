//! Mobility-and-churn reconfiguration scenarios (`cbtc-churn`).
//!
//! The paper analyzes the reconfiguration protocol (§4) but evaluates only
//! static layouts (§5). This module supplies the missing experiment: it
//! drives [`ReconfigNode`] — NDP beacons plus the §4 `join`/`leave`/
//! `aChange` rules — under continuous [`RandomWaypoint`] motion with
//! scheduled node joins and crash-stops, and measures what the §4 guarantee
//! promises:
//!
//! * **beacon overhead** — broadcasts per live node per beacon interval;
//! * **reconvergence time** — ticks from each churn burst until the
//!   maintained topology again preserves the partition of the live
//!   max-power graph `G_R` (Theorem 2.1's predicate, applied online);
//! * **degree/connectivity maintenance** — average degree and the fraction
//!   of probes at which the partition is preserved;
//! * **stretch over time** — sampled power/hop stretch of the maintained
//!   topology versus the live `G_R`;
//! * **centralized `G_α` tracking** — at every burst, the distributed
//!   topology is additionally judged against the *centralized* `CBTC(α)`
//!   reference over the live nodes at their current positions.
//!
//! The suite is built to run at 10⁴–10⁵ nodes: every geometric query goes
//! through [`cbtc_graph::SpatialGrid`] (the simulator's broadcast delivery
//! does too), so a probe costs `O(n + |E|)` rather than `O(n²)`. The
//! centralized `G_α` reference is one [`DeltaTopology`] maintained across
//! bursts (join/crash/waypoint events in, edge delta out), never rebuilt;
//! a check compiled only into this crate's tests compares it with a
//! from-scratch masked construction at every burst and at the horizon.
//! The stretch probes compute their few shortest-path trees fresh at
//! every sample: every node moves between samples, so no cached tree
//! would survive.
//!
//! [`ReconfigNode`]: cbtc_core::reconfig::ReconfigNode

use cbtc_core::protocol::GrowthConfig;
use cbtc_core::reconfig::{
    collect_topology, graph_delta, DeltaTopology, GeometricMetric, NdpConfig, NodeEvent,
    ReconfigNode,
};
use cbtc_core::CbtcConfig;
use cbtc_geom::Alpha;
use cbtc_graph::connectivity::same_partition;
use cbtc_graph::paths::{power_weight, SpTree};
use cbtc_graph::unit_disk::unit_disk_graph_where;
use cbtc_graph::{Layout, NodeId, UndirectedGraph};
use cbtc_metrics::MetricsRegistry;
use cbtc_radio::{PathLoss, Power, PowerLaw, PowerSchedule};
use cbtc_sim::{Engine, FaultConfig, SimTime};
use cbtc_trace::{TraceEvent, TraceHandle, TRACE_VERSION};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{RandomPlacement, RandomWaypoint};

/// Parameters of one churn experiment.
///
/// Timeline: `initial_nodes` start at tick 0 and run a `warmup` quiet
/// period; then `cycles` churn *bursts* fire every `cycle_ticks`, each
/// injecting its share of the `joins` (late node starts) and `crashes`
/// (crash-stops). Mobility runs continuously throughout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnScenario {
    /// Human-readable name, used in experiment output.
    pub name: String,
    /// Nodes live from tick 0.
    pub initial_nodes: usize,
    /// Nodes that join at churn bursts (total node count is
    /// `initial_nodes + joins`).
    pub joins: usize,
    /// Crash-stops injected at churn bursts.
    pub crashes: usize,
    /// Field width.
    pub width: f64,
    /// Field height.
    pub height: f64,
    /// The cone angle α.
    pub alpha: Alpha,
    /// Ticks between NDP beacons.
    pub beacon_interval: u64,
    /// Missed beacons before a neighbor is declared gone.
    pub miss_limit: u32,
    /// Minimum waypoint speed (distance units per tick).
    pub speed_min: f64,
    /// Maximum waypoint speed (distance units per tick).
    pub speed_max: f64,
    /// Pause at each waypoint (ticks).
    pub pause: f64,
    /// Quiet ticks before the first churn burst.
    pub warmup: u64,
    /// Number of churn bursts.
    pub cycles: u32,
    /// Ticks between bursts (the settle window reconvergence is measured
    /// within).
    pub cycle_ticks: u64,
    /// Ticks between mobility pushes into the simulator.
    pub mobility_dt: u64,
}

impl ChurnScenario {
    /// A scenario sized for `nodes` total nodes: the field is scaled so
    /// the max-power graph keeps an average degree of ≈ 18 under the
    /// paper's radio (`R = 500`), which keeps `G_R` connected with high
    /// probability while staying sparse enough to stress reconfiguration.
    ///
    /// 10% of the nodes arrive as late joins and 10% crash during the run.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 10`.
    pub fn sized(nodes: usize) -> Self {
        assert!(nodes >= 10, "need at least 10 nodes, got {nodes}");
        let range = PowerLaw::paper_default().max_range();
        let target_degree = 18.0;
        let side = (nodes as f64 * std::f64::consts::PI * range * range / target_degree).sqrt();
        let joins = nodes / 10;
        let crashes = nodes / 10;
        ChurnScenario {
            name: format!("churn-{nodes}"),
            initial_nodes: nodes - joins,
            joins,
            crashes,
            width: side,
            height: side,
            alpha: Alpha::FIVE_PI_SIXTHS,
            beacon_interval: 10,
            miss_limit: 3,
            speed_min: 0.5,
            speed_max: 2.0,
            pause: 20.0,
            warmup: 200,
            cycles: 4,
            cycle_ticks: 250,
            mobility_dt: 5,
        }
    }

    /// A tiny fast scenario for tests and doc examples.
    pub fn smoke() -> Self {
        ChurnScenario {
            name: "churn-smoke".to_owned(),
            initial_nodes: 24,
            joins: 4,
            crashes: 3,
            width: 1100.0,
            height: 1100.0,
            cycles: 2,
            cycle_ticks: 200,
            warmup: 150,
            ..ChurnScenario::sized(28)
        }
    }

    /// Last tick of the run: `warmup + cycles·cycle_ticks`.
    pub fn horizon(&self) -> u64 {
        self.warmup + u64::from(self.cycles) * self.cycle_ticks
    }

    /// Total node count, including late joiners.
    pub fn total_nodes(&self) -> usize {
        self.initial_nodes + self.joins
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.initial_nodes < 2 {
            return Err("initial_nodes must be at least 2".into());
        }
        if self.crashes >= self.initial_nodes {
            return Err("crashes must leave at least one initial node alive".into());
        }
        if !(self.width.is_finite()
            && self.width > 0.0
            && self.height.is_finite()
            && self.height > 0.0)
        {
            return Err("field dimensions must be positive".into());
        }
        if self.cycles == 0 || self.cycle_ticks == 0 {
            return Err("cycles and cycle_ticks must be positive".into());
        }
        if self.mobility_dt == 0 {
            return Err("mobility_dt must be positive".into());
        }
        if self.cycle_ticks < self.mobility_dt {
            // Burst registration advances with the mobility clock; a
            // settle window shorter than one mobility step would batch
            // two bursts into one registration pass and the per-burst
            // reference probes would measure batching, not maintenance.
            return Err("cycle_ticks must be at least mobility_dt".into());
        }
        if self.beacon_interval == 0 || self.miss_limit == 0 {
            return Err("beacon_interval and miss_limit must be positive".into());
        }
        if !(self.speed_min > 0.0 && self.speed_min <= self.speed_max) || self.pause < 0.0 {
            return Err("need 0 < speed_min ≤ speed_max and pause ≥ 0".into());
        }
        Ok(())
    }

    /// Expands the scenario into a concrete churn plan for `seed`.
    pub fn schedule(&self, seed: u64) -> ChurnSchedule {
        let total = self.total_nodes();
        let bursts: Vec<u64> = (0..self.cycles)
            .map(|k| self.warmup + u64::from(k) * self.cycle_ticks)
            .collect();
        let mut start_ticks = vec![0u64; total];
        for j in 0..self.joins {
            start_ticks[self.initial_nodes + j] = bursts[j % bursts.len()];
        }
        // Distinct crash victims among the initial nodes (partial
        // Fisher–Yates over the ID pool).
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00);
        let mut pool: Vec<u32> = (0..self.initial_nodes as u32).collect();
        let mut crashes = Vec::with_capacity(self.crashes);
        for c in 0..self.crashes.min(pool.len()) {
            let pick = rng.gen_range(c..pool.len());
            pool.swap(c, pick);
            crashes.push((NodeId::new(pool[c]), bursts[c % bursts.len()]));
        }
        ChurnSchedule {
            start_ticks,
            crashes,
            bursts,
            horizon: self.horizon(),
        }
    }
}

/// A concrete churn plan: who starts when, who crashes when.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnSchedule {
    /// Start tick per node (0 for the initial population).
    pub start_ticks: Vec<u64>,
    /// `(victim, tick)` crash-stops.
    pub crashes: Vec<(NodeId, u64)>,
    /// Burst ticks (every join/crash happens at one of these).
    pub bursts: Vec<u64>,
    /// Last tick of the run.
    pub horizon: u64,
}

/// One churn burst and how long the network took to recover from it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstOutcome {
    /// The burst tick.
    pub t: u64,
    /// Nodes that joined at this burst.
    pub joins: u32,
    /// Nodes that crashed at this burst.
    pub crashes: u32,
    /// Ticks until the maintained topology again preserved the partition
    /// of the live `G_R`; `None` if it never did before the horizon.
    pub reconverged_after: Option<u64>,
}

/// One periodic probe of the maintained topology.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplePoint {
    /// Probe tick.
    pub t: u64,
    /// Live (started, not crashed) nodes.
    pub live: u32,
    /// Edges of the maintained topology.
    pub edges: u64,
    /// Average degree over live nodes.
    pub avg_degree: f64,
    /// Whether the topology preserves the partition of the live `G_R`.
    pub partition_preserved: bool,
}

/// One update of the centralized `CBTC(α)` reference topology — the
/// `G_α` a centralized observer would build over the live nodes at their
/// current positions — maintained across bursts by the incremental
/// [`DeltaTopology`] engine instead of rebuilt from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReferenceSample {
    /// The burst tick the reference was brought up to date at.
    pub t: u64,
    /// Live (started, not crashed) nodes.
    pub live: u32,
    /// Edges of the reference `G_α`.
    pub edges: u64,
    /// Nodes the update re-grew (a from-scratch probe re-grows every
    /// live node; the gap between the two is the incremental win).
    pub regrown: u32,
    /// Join/crash/move events fed into the engine at this update.
    pub events: u32,
    /// Whether the *maintained* distributed topology partitions the node
    /// set exactly as the centralized reference does — §4 maintenance
    /// judged against the paper's own construction rather than `G_R`.
    /// Measured at the **end of this burst's settle window** (the next
    /// burst tick, or the horizon for the last burst), with the
    /// reference synced to the positions at that instant; judging at the
    /// burst tick itself would only measure NDP detection latency.
    pub preserved: bool,
}

/// Sampled stretch of the maintained topology versus the live `G_R`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StretchSample {
    /// Probe tick.
    pub t: u64,
    /// Source nodes sampled.
    pub sources: u32,
    /// Destination pairs measured.
    pub pairs: u64,
    /// Mean power-stretch over measured pairs.
    pub power_mean: f64,
    /// Maximum power-stretch over measured pairs.
    pub power_max: f64,
    /// Pairs reachable in the live `G_R` but not in the topology (0 when
    /// the partition is preserved).
    pub unreachable: u64,
}

/// Aggregate message/energy accounting for the run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnTraffic {
    /// Broadcasts issued (Hellos + beacons).
    pub broadcasts: u64,
    /// Unicasts issued (Acks).
    pub unicasts: u64,
    /// Messages delivered to a handler.
    pub deliveries: u64,
    /// Broadcasts per live node per beacon interval — the beacon-overhead
    /// headline (1.0 ≈ steady-state beaconing, excess is reconfiguration
    /// traffic).
    pub broadcasts_per_node_per_interval: f64,
    /// Deliveries suppressed by the physical layer (failed PRR/SINR
    /// draws); 0 without a phy profile.
    pub phy_lost: u64,
    /// Transmissions deferred by CSMA carrier sensing.
    pub csma_deferrals: u64,
    /// Transmissions that aired despite a busy carrier after exhausting
    /// their sense attempts.
    pub csma_forced: u64,
    /// Total transmission energy (linear power units).
    pub energy_spent: f64,
}

/// The full result of one churn run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnReport {
    /// The scenario that was run.
    pub scenario: ChurnScenario,
    /// The seed it was run under.
    pub seed: u64,
    /// Per-burst reconvergence outcomes.
    pub bursts: Vec<BurstOutcome>,
    /// Per-burst centralized `G_α` reference probes (incrementally
    /// maintained through [`DeltaTopology`]).
    pub reference: Vec<ReferenceSample>,
    /// Periodic topology probes.
    pub samples: Vec<SamplePoint>,
    /// Periodic stretch probes (one per cycle boundary).
    pub stretch: Vec<StretchSample>,
    /// Message and energy accounting.
    pub traffic: ChurnTraffic,
    /// Total growing-phase re-runs across all nodes (§4 event handling).
    pub reruns: u64,
    /// Live nodes at the horizon.
    pub live_at_end: u32,
    /// Fraction of probes at which the partition was preserved.
    pub connectivity_fraction: f64,
    /// Mean reconvergence ticks over bursts that reconverged.
    pub mean_reconvergence: Option<f64>,
}

/// The engine type the churn suite drives.
pub type ChurnEngine = Engine<ReconfigNode, PowerLaw>;

/// Builds `G_R` restricted to the live nodes: edges of the unit-disk graph
/// over the *current* positions whose endpoints are both live. Dead and
/// not-yet-started nodes stay as isolated vertices, mirroring
/// [`collect_topology`]'s treatment so the two graphs are comparable with
/// [`same_partition`].
pub fn live_unit_disk(layout: &Layout, radius: f64, live: &[bool]) -> UndirectedGraph {
    assert_eq!(layout.len(), live.len(), "live mask size mismatch");
    unit_disk_graph_where(layout, radius, |u| live[u.index()])
}

/// Runs one churn experiment and reports the measurements.
///
/// * `phy` installs a stochastic physical layer on the simulator
///   ([`cbtc_sim::Engine::set_phy`]). With [`cbtc_phy::PhyProfile::ideal`]
///   the report is bit-identical to `None`; with a lossy profile the NDP
///   beacons, Hellos and Acks experience shadowing, fading, PRR loss and
///   (per the profile) SINR collisions and CSMA backoff. The probes still
///   judge reconvergence against the *geometric* live `G_R`: the
///   measurement is how well §4 maintenance tracks the ideal topology
///   when its control traffic is lossy.
/// * `registry` receives the `G_α` reference's `reconfig.*` series —
///   every burst's event batch: per-kind latency, affected-set sizes,
///   replay-vs-grid-scan counters — under the same names the lifetime
///   engine and the reconfiguration service use. Pass
///   [`MetricsRegistry::disabled`] for none.
/// * `trace` streams [`TraceEvent`]s: the `Meta` header, per-probe
///   `Beacon`/`TopologyEpoch` edge deltas and `PrrSnapshot` counters,
///   engine `Join`/`Death` lifecycle events, `Burst`/`Reconverged`
///   markers, per-batch `Reconfig` samples from the `G_α` reference, and
///   `Positions`/`EnergySnapshot` keyframes — at every probe tick up to
///   2048 total nodes, else only at start, bursts and the horizon (a
///   10k-node trace stays tens of megabytes, not gigabytes).
///
/// Metrics and trace only observe computed state and draw no
/// randomness: the report is bit-identical with or without them, and —
/// with the handle's timing off — the recorded trace is byte-identical
/// across machines and thread counts. Deterministic in
/// `(scenario, seed, phy)`.
///
/// # Panics
///
/// Panics if the scenario fails [`ChurnScenario::validate`].
///
/// # Example
///
/// ```
/// use cbtc_metrics::MetricsRegistry;
/// use cbtc_workloads::churn::{run_churn, ChurnScenario};
///
/// let registry = MetricsRegistry::disabled();
/// let report = run_churn(&ChurnScenario::smoke(), 7, None, &registry, None);
/// assert!(!report.samples.is_empty());
/// assert!(report.traffic.broadcasts > 0);
/// ```
pub fn run_churn(
    scenario: &ChurnScenario,
    seed: u64,
    phy: Option<&cbtc_phy::PhyProfile>,
    registry: &MetricsRegistry,
    trace: Option<&TraceHandle>,
) -> ChurnReport {
    if let Err(e) = scenario.validate() {
        panic!("invalid churn scenario: {e}");
    }
    let model = PowerLaw::paper_default();
    let total = scenario.total_nodes();
    let schedule = scenario.schedule(seed);

    let layout = RandomPlacement::new(total, scenario.width, scenario.height, model.max_range())
        .generate_layout(seed);
    let growth = GrowthConfig {
        alpha: scenario.alpha,
        schedule: PowerSchedule::doubling(Power::new(100.0), model.max_power()),
        ack_timeout: 3,
        model,
    };
    let ndp = NdpConfig::new(scenario.beacon_interval, scenario.miss_limit, 0.05);
    let nodes: Vec<ReconfigNode> = (0..total).map(|_| ReconfigNode::new(growth, ndp)).collect();
    let starts: Vec<SimTime> = schedule
        .start_ticks
        .iter()
        .map(|&t| SimTime::new(t))
        .collect();
    let mut engine = ChurnEngine::with_start_times(
        layout.clone(),
        model,
        nodes,
        FaultConfig::reliable_synchronous(),
        &starts,
    );
    if let Some(profile) = phy {
        engine.set_phy(*profile);
    }
    for &(victim, t) in &schedule.crashes {
        engine.schedule_crash(victim, SimTime::new(t));
    }
    if let Some(trace) = trace {
        trace.record(TraceEvent::Meta {
            version: TRACE_VERSION,
            run: scenario.name.clone(),
            nodes: total as u32,
            seed,
            alpha: scenario.alpha.radians(),
            width: scenario.width,
            height: scenario.height,
            // The churn engine's energy probe charges geometric powers.
            pricing: "geometric".to_owned(),
        });
        // Engine lifecycle hooks: late starts → `Join`, crash-stops →
        // `Death`, both at their exact simulation tick.
        engine.set_trace(trace.clone());
    }

    // The centralized G_α reference: live nodes at current positions,
    // under the scenario's α with no optional optimizations — maintained
    // across bursts by the incremental engine, whose own `layout()` and
    // `active()` are the reference's positions and membership.
    let ref_config = CbtcConfig::new(scenario.alpha);
    let mut ref_topo = DeltaTopology::new(
        layout.clone(),
        schedule.start_ticks.iter().map(|&s| s == 0).collect(),
        model.max_range(),
        ref_config,
        false,
        GeometricMetric,
    );
    if let Some(trace) = trace {
        // Every `DeltaTopology::apply` batch records a `Reconfig` cost
        // sample.
        ref_topo.set_trace(trace.clone());
    }
    ref_topo.set_metrics(registry);
    let mut reference: Vec<ReferenceSample> = Vec::new();

    let mut roaming = layout;
    let mut mobility = RandomWaypoint::new(
        scenario.width,
        scenario.height,
        scenario.speed_min,
        scenario.speed_max,
        scenario.pause,
        total,
        seed ^ 0x5EED_CAFE,
    );

    // Burst bookkeeping: joins/crashes per burst tick, pending
    // reconvergence measurements.
    let mut bursts: Vec<BurstOutcome> = schedule
        .bursts
        .iter()
        .map(|&t| BurstOutcome {
            t,
            joins: schedule.start_ticks[scenario.initial_nodes..]
                .iter()
                .filter(|&&s| s == t)
                .count() as u32,
            crashes: schedule.crashes.iter().filter(|&&(_, c)| c == t).count() as u32,
            reconverged_after: None,
        })
        .collect();
    let mut pending: Vec<usize> = Vec::new();
    let mut next_burst = 0usize;

    let probe_interval = scenario.beacon_interval;
    let step = scenario.mobility_dt;
    let mut samples = Vec::new();
    let mut stretch = Vec::new();
    let mut next_probe = 0u64;
    let mut next_stretch = schedule.horizon.min(scenario.warmup);
    let mut live_ticks = 0f64;
    let mut preserved_probes = 0u64;

    // Trace-size policy: position/energy keyframes at every probe tick
    // for small runs, only at start/bursts/horizon for large ones.
    let snap_every_probe = total <= 2048;
    let mut traced_prev: Option<UndirectedGraph> = None;
    let mut trace_epoch = 0u32;

    let mut t = 0u64;
    loop {
        engine.run_until(SimTime::new(t));
        if trace.is_some() {
            ref_topo.set_trace_clock(t as f64);
        }

        // Register bursts whose tick has arrived (they just fired inside
        // run_until) so the next preserved probe closes them out, and
        // bring the centralized G_α reference up to date: first close
        // the *previous* burst's settle window (sync waypoint drift,
        // then judge the distributed topology against the settled
        // reference — comparing at the burst instant would measure NDP
        // detection latency, not §4 maintenance), then apply this
        // burst's join/crash events.
        while next_burst < bursts.len() && bursts[next_burst].t <= t {
            let bt = bursts[next_burst].t;
            let (drift_count, drift_regrown) = settle_reference(&mut ref_topo, engine.layout());
            if let Some(prev) = reference.last_mut() {
                prev.preserved = same_partition(&collect_topology(&engine), ref_topo.graph());
            }
            // Crash victims are initial nodes and joiners occupy the
            // slots above them, so no node appears twice in a burst.
            let active = ref_topo.active();
            let deaths = schedule
                .crashes
                .iter()
                .filter(|&&(victim, ct)| ct == bt && active[victim.index()])
                .map(|&(victim, _)| NodeEvent::Death(victim));
            let joins = (scenario.initial_nodes..total)
                .filter(|&u| !active[u] && schedule.start_ticks[u] == bt)
                .map(|u| NodeId::new(u as u32))
                .map(|id| NodeEvent::Join(id, engine.layout().position(id)));
            let events: Vec<NodeEvent> = deaths.chain(joins).collect();
            ref_topo.apply(&events);
            #[cfg(test)]
            check_reference(&ref_topo, engine.layout(), &schedule, &ref_config, bt);
            reference.push(ReferenceSample {
                t: bt,
                live: ref_topo.active().iter().filter(|a| **a).count() as u32,
                edges: ref_topo.graph().edge_count() as u64,
                regrown: ref_topo.last_regrown() as u32 + drift_regrown,
                events: (events.len() + drift_count) as u32,
                // Judged at the end of this burst's settle window (the
                // next burst tick or the horizon).
                preserved: false,
            });
            if let Some(trace) = trace {
                trace.record(TraceEvent::Burst {
                    time: bt as f64,
                    joins: bursts[next_burst].joins,
                    crashes: bursts[next_burst].crashes,
                });
                if !snap_every_probe {
                    record_keyframes(trace, &engine, t as f64);
                }
            }
            pending.push(next_burst);
            next_burst += 1;
        }

        if t >= next_probe {
            let live = live_mask(&engine);
            let live_count = live.iter().filter(|&&l| l).count() as u32;
            let topo = collect_topology(&engine);
            let target = live_unit_disk(engine.layout(), model.max_range(), &live);
            let preserved = same_partition(&topo, &target);
            if preserved {
                preserved_probes += 1;
                if let Some(trace) = trace {
                    for &b in &pending {
                        trace.record(TraceEvent::Reconverged {
                            time: t as f64,
                            burst: bursts[b].t as f64,
                            after: (t - bursts[b].t) as f64,
                        });
                    }
                }
                for &b in &pending {
                    bursts[b].reconverged_after = Some(t - bursts[b].t);
                }
                pending.clear();
            }
            samples.push(SamplePoint {
                t,
                live: live_count,
                edges: topo.edge_count() as u64,
                avg_degree: 2.0 * topo.edge_count() as f64 / f64::from(live_count.max(1)),
                partition_preserved: preserved,
            });
            if let Some(trace) = trace {
                trace.record(TraceEvent::Beacon { time: t as f64 });
                let prev = traced_prev
                    .take()
                    .unwrap_or_else(|| UndirectedGraph::new(total));
                let delta = graph_delta(&prev, &topo);
                let pairs = |edges: &[(NodeId, NodeId)]| -> Vec<(u32, u32)> {
                    edges.iter().map(|&(u, v)| (u.raw(), v.raw())).collect()
                };
                trace.record(TraceEvent::TopologyEpoch {
                    time: t as f64,
                    epoch: trace_epoch,
                    live: live_count,
                    edges: topo.edge_count() as u64,
                    added: pairs(&delta.added),
                    removed: pairs(&delta.removed),
                });
                trace_epoch += 1;
                traced_prev = Some(topo.clone());
                let stats = engine.stats();
                let attempted = stats.deliveries + stats.lost + stats.phy_lost;
                trace.record(TraceEvent::PrrSnapshot {
                    time: t as f64,
                    delivered: stats.deliveries,
                    lost: stats.lost,
                    phy_lost: stats.phy_lost,
                    csma_deferrals: stats.csma_deferrals,
                    csma_forced: stats.csma_forced,
                    prr: if attempted == 0 {
                        1.0
                    } else {
                        stats.deliveries as f64 / attempted as f64
                    },
                });
                if snap_every_probe || t == 0 {
                    record_keyframes(trace, &engine, t as f64);
                }
            }
            if t >= next_stretch {
                stretch.push(stretch_sample(&topo, &target, engine.layout(), &live, t));
                next_stretch = t + scenario.cycle_ticks;
            }
            next_probe = t + probe_interval;
        }

        if t >= schedule.horizon {
            // Close out the last burst's settle window at the horizon.
            settle_reference(&mut ref_topo, engine.layout());
            #[cfg(test)]
            check_reference(&ref_topo, engine.layout(), &schedule, &ref_config, t);
            if let Some(prev) = reference.last_mut() {
                prev.preserved = same_partition(&collect_topology(&engine), ref_topo.graph());
            }
            if let Some(trace) = trace {
                if !snap_every_probe {
                    record_keyframes(trace, &engine, t as f64);
                }
                trace.flush();
            }
            break;
        }

        // Advance mobility and push the new positions into the simulator
        // (incremental spatial-index updates).
        let dt = step.min(schedule.horizon - t);
        mobility.advance(&mut roaming, dt as f64);
        for (id, p) in roaming.iter() {
            if p != engine.layout().position(id) {
                engine.move_node(id, p);
            }
        }
        let live_now = live_mask(&engine).iter().filter(|&&l| l).count();
        live_ticks += live_now as f64 * dt as f64;
        t += dt;
    }

    let stats = engine.stats();
    let live_at_end = live_mask(&engine).iter().filter(|&&l| l).count() as u32;
    let reruns: u64 = engine.nodes().iter().map(|n| u64::from(n.reruns())).sum();
    let reconverged: Vec<u64> = bursts.iter().filter_map(|b| b.reconverged_after).collect();
    ChurnReport {
        scenario: scenario.clone(),
        seed,
        traffic: ChurnTraffic {
            broadcasts: stats.broadcasts,
            unicasts: stats.unicasts,
            deliveries: stats.deliveries,
            broadcasts_per_node_per_interval: stats.broadcasts as f64
                / (live_ticks / scenario.beacon_interval as f64).max(1.0),
            phy_lost: stats.phy_lost,
            csma_deferrals: stats.csma_deferrals,
            csma_forced: stats.csma_forced,
            // Through the conservation assertion: per-node energy must
            // sum to the whole-run tally.
            energy_spent: stats.energy_total(),
        },
        reruns,
        live_at_end,
        connectivity_fraction: preserved_probes as f64 / samples.len().max(1) as f64,
        mean_reconvergence: if reconverged.is_empty() {
            None
        } else {
            Some(reconverged.iter().sum::<u64>() as f64 / reconverged.len() as f64)
        },
        bursts,
        reference,
        samples,
        stretch,
    }
}

/// Which nodes are live (started, not crashed) in the simulator.
fn live_mask(engine: &ChurnEngine) -> Vec<bool> {
    engine
        .layout()
        .node_ids()
        .map(|u| engine.is_alive(u) && engine.has_started(u))
        .collect()
}

/// Emits one `Positions` + `EnergySnapshot` keyframe pair from the
/// engine's current state. Positions are quantized to 0.01 distance
/// units — enough for replay rendering, and it keeps large traces from
/// drowning in 17-digit waypoint coordinates.
fn record_keyframes(trace: &TraceHandle, engine: &ChurnEngine, time: f64) {
    let quant = |v: f64| (v * 100.0).round() / 100.0;
    let (xs, ys) = engine
        .layout()
        .iter()
        .map(|(_, p)| (quant(p.x), quant(p.y)))
        .unzip();
    trace.record(TraceEvent::Positions {
        time,
        xs,
        ys,
        alive: live_mask(engine),
    });
    trace.record(TraceEvent::EnergySnapshot {
        time,
        energy: engine.stats().energy_per_node.clone(),
    });
}

/// Syncs the reference with waypoint drift: feeds a `Move` event for
/// every active node whose position in the simulator's `layout` differs
/// from the reference's own. Returns `(moves fed, nodes re-grown)`.
fn settle_reference(
    reference: &mut DeltaTopology<GeometricMetric>,
    layout: &Layout,
) -> (usize, u32) {
    let drift: Vec<NodeEvent> = layout
        .iter()
        .filter(|&(u, here)| reference.active()[u.index()] && reference.position(u) != here)
        .map(|(u, here)| NodeEvent::Move(u, here))
        .collect();
    if drift.is_empty() {
        return (0, 0);
    }
    reference.apply(&drift);
    (drift.len(), reference.last_regrown() as u32)
}

/// Test-only oracle behind every burst update and the horizon settle:
/// the maintained reference equals a from-scratch masked `CBTC(α)` over
/// the simulator's own positions and the membership `schedule` implies
/// at tick `t` (started, not yet crashed). Neither input passes through
/// the event bookkeeping of [`run_churn`].
#[cfg(test)]
fn check_reference(
    reference: &DeltaTopology<GeometricMetric>,
    layout: &Layout,
    schedule: &ChurnSchedule,
    config: &CbtcConfig,
    t: u64,
) {
    let mut members: Vec<bool> = schedule.start_ticks.iter().map(|&s| s <= t).collect();
    for &(victim, ct) in &schedule.crashes {
        if ct <= t {
            members[victim.index()] = false;
        }
    }
    let network = cbtc_core::Network::new(layout.clone(), PowerLaw::paper_default());
    let scratch = cbtc_core::run_centralized_masked(&network, config, &members).into_final_graph();
    assert_eq!(
        reference.active(),
        &members[..],
        "reference membership at t={t}"
    );
    assert!(
        *reference.graph() == scratch,
        "reference G_α differs from scratch at t={t}"
    );
    tests::ORACLE_CHECKS.set(tests::ORACLE_CHECKS.get() + 1);
}

/// Power-stretch probe: Dijkstra under the power weight `d²` from a few
/// spread sources in both graphs, ratio per destination reachable in
/// both. The trees are computed fresh: every node moves between samples,
/// so no tree from the previous sample would still be valid.
fn stretch_sample(
    topo: &UndirectedGraph,
    target: &UndirectedGraph,
    layout: &Layout,
    live: &[bool],
    t: u64,
) -> StretchSample {
    const SOURCES: usize = 4;
    let weight = power_weight(layout, 2.0);
    let live_ids: Vec<NodeId> = layout.node_ids().filter(|u| live[u.index()]).collect();
    let picked: Vec<NodeId> = (0..SOURCES.min(live_ids.len()))
        .map(|i| live_ids[i * live_ids.len() / SOURCES.min(live_ids.len()).max(1)])
        .collect();
    let mut pairs = 0u64;
    let mut unreachable = 0u64;
    let mut sum = 0.0;
    let mut max = 0.0f64;
    for &s in &picked {
        let d_sub = SpTree::compute(topo, s, &weight, |_| true);
        let d_full = SpTree::compute(target, s, &weight, |_| true);
        for &v in &live_ids {
            if v == s {
                continue;
            }
            let a = d_sub.dist()[v.index()];
            let b = d_full.dist()[v.index()];
            if a.is_finite() && b.is_finite() {
                if b > 0.0 {
                    pairs += 1;
                    let ratio = a / b;
                    sum += ratio;
                    max = max.max(ratio);
                }
            } else if !a.is_finite() && b.is_finite() {
                unreachable += 1;
            }
        }
    }
    StretchSample {
        t,
        sources: picked.len() as u32,
        pairs,
        power_mean: if pairs > 0 { sum / pairs as f64 } else { 1.0 },
        power_max: if pairs > 0 { max } else { 1.0 },
        unreachable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    std::thread_local! {
        /// How many times `check_reference` ran on this thread.
        pub(super) static ORACLE_CHECKS: Cell<usize> = const { Cell::new(0) };
    }

    /// The smoke scenario with no metrics and no trace.
    fn smoke(seed: u64, phy: Option<&cbtc_phy::PhyProfile>) -> ChurnReport {
        let registry = MetricsRegistry::disabled();
        run_churn(&ChurnScenario::smoke(), seed, phy, &registry, None)
    }

    #[test]
    fn smoke_scenario_runs_and_reconverges() {
        let report = smoke(3, None);
        assert_eq!(report.bursts.len(), 2);
        assert!(report.traffic.broadcasts > 0);
        assert!(report.traffic.deliveries > 0);
        assert!(!report.samples.is_empty());
        assert!(report.live_at_end > 0);
        // The run must spend most probes partition-preserving: the §4
        // rules are supposed to maintain connectivity under churn.
        assert!(
            report.connectivity_fraction > 0.5,
            "connectivity fraction {} too low",
            report.connectivity_fraction
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = smoke(11, None);
        let b = smoke(11, None);
        assert_eq!(a, b);
    }

    #[test]
    fn metered_churn_is_bit_identical_and_counts_burst_events() {
        let plain = smoke(3, None);
        let registry = MetricsRegistry::enabled();
        let metered = run_churn(&ChurnScenario::smoke(), 3, None, &registry, None);
        assert_eq!(plain, metered, "metrics must not perturb the run");
        let snap = registry.snapshot();
        let batches = snap.counter("reconfig.batches").unwrap();
        assert!(batches > 0, "the reference absorbed no batches");
        // Every sampled burst event is in the engine's counters; the
        // final horizon settle adds drift moves beyond the samples.
        let total_events = plain
            .reference
            .iter()
            .map(|s| u64::from(s.events))
            .sum::<u64>();
        let counted = snap.counter("reconfig.events.move").unwrap()
            + snap.counter("reconfig.events.join").unwrap()
            + snap.counter("reconfig.events.death").unwrap();
        assert!(counted >= total_events, "{counted} < {total_events}");
    }

    #[test]
    fn incremental_probes_match_from_scratch_probes() {
        // `run_churn` checks the maintained G_α reference against a
        // from-scratch masked construction at every burst and at the
        // horizon settle (`check_reference`, compiled only into tests).
        // Counting the checks keeps the oracle from going silent.
        for seed in [3u64, 11] {
            ORACLE_CHECKS.set(0);
            let report = smoke(seed, None);
            assert_eq!(
                ORACLE_CHECKS.get(),
                report.bursts.len() + 1,
                "seed {seed}: one check per burst plus the horizon"
            );
        }
    }

    #[test]
    fn traced_and_metered_churn_is_bit_identical() {
        // Trace and metrics together: the report still equals the bare
        // run, and every reference batch the registry counted left one
        // `Reconfig` record in the trace.
        let plain = smoke(7, None);
        let registry = MetricsRegistry::enabled();
        let (handle, sink) = TraceHandle::in_memory();
        let observed = run_churn(&ChurnScenario::smoke(), 7, None, &registry, Some(&handle));
        assert_eq!(plain, observed, "hooks must not perturb the run");
        let events = sink.lock().unwrap();
        let reconfigs = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Reconfig { .. }))
            .count() as u64;
        assert!(reconfigs > 0, "the reference recorded no batches");
        assert_eq!(
            registry.snapshot().counter("reconfig.batches"),
            Some(reconfigs)
        );
    }

    #[test]
    fn reference_probe_tracks_every_burst() {
        let report = smoke(3, None);
        assert_eq!(report.reference.len(), report.bursts.len());
        for s in &report.reference {
            assert!(s.live > 0);
            assert!(s.events > 0, "bursts carry joins/crashes/moves");
            assert!(
                s.regrown as usize <= 2 * report.scenario.total_nodes(),
                "regrowth is bounded by drift sync + burst update"
            );
        }
        // Judged at the end of the settle window, §4 maintenance should
        // track the centralized construction at least once on the smoke
        // scenario (it reconverges within ~1 expiry window).
        assert!(
            report.reference.iter().any(|s| s.preserved),
            "no settle window ever preserved the centralized partition"
        );
    }

    #[test]
    fn ideal_phy_churn_is_bit_identical() {
        let ideal = cbtc_phy::PhyProfile::ideal();
        let a = smoke(11, None);
        let b = smoke(11, Some(&ideal));
        assert_eq!(a, b, "σ = 0 / PRR = 1 churn must replay the ideal run");
    }

    #[test]
    fn metered_lossy_phy_churn_is_bit_identical() {
        // The metrics hooks must stay invisible on the stochastic stack
        // too: a lossy channel reorders packet fates, and an instrument
        // that drew from any of the run's RNG streams — or perturbed
        // the burst/settle schedule — would show up here.
        let profile = cbtc_phy::PhyProfile::realistic(4.0, 3);
        let plain = smoke(7, Some(&profile));
        let registry = MetricsRegistry::enabled();
        let metered = run_churn(&ChurnScenario::smoke(), 7, Some(&profile), &registry, None);
        assert_eq!(plain, metered, "metrics must not perturb the lossy run");
        let snap = registry.snapshot();
        assert!(
            snap.counter("reconfig.batches").unwrap() > 0,
            "the reference absorbed no batches under phy"
        );
    }

    #[test]
    fn lossy_phy_churn_still_mostly_reconverges() {
        let profile = cbtc_phy::PhyProfile::realistic(4.0, 3);
        let report = smoke(3, Some(&profile));
        assert!(report.traffic.broadcasts > 0);
        // Lossy control traffic degrades but must not collapse §4
        // maintenance on the small smoke scenario.
        assert!(
            report.connectivity_fraction > 0.3,
            "connectivity fraction {} under lossy phy",
            report.connectivity_fraction
        );
        let ideal = smoke(3, None);
        assert_ne!(report, ideal, "a lossy channel must change the run");
    }

    #[test]
    fn different_seeds_differ() {
        let a = smoke(1, None);
        let b = smoke(2, None);
        assert_ne!(a.samples, b.samples);
    }

    #[test]
    fn schedule_spreads_churn_over_bursts() {
        let scenario = ChurnScenario::smoke();
        let schedule = scenario.schedule(9);
        assert_eq!(schedule.bursts.len(), scenario.cycles as usize);
        assert_eq!(schedule.start_ticks.len(), scenario.total_nodes());
        // Joiners all start at burst ticks.
        for j in 0..scenario.joins {
            let s = schedule.start_ticks[scenario.initial_nodes + j];
            assert!(schedule.bursts.contains(&s), "join at non-burst tick {s}");
        }
        // Crash victims are distinct initial nodes.
        let mut victims: Vec<u32> = schedule.crashes.iter().map(|(v, _)| v.raw()).collect();
        victims.sort_unstable();
        victims.dedup();
        assert_eq!(victims.len(), scenario.crashes);
        assert!(victims
            .iter()
            .all(|&v| (v as usize) < scenario.initial_nodes));
    }

    #[test]
    fn live_unit_disk_ignores_dead_nodes() {
        use cbtc_geom::Point2;
        let layout = Layout::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(100.0, 0.0),
            Point2::new(200.0, 0.0),
        ]);
        let g = live_unit_disk(&layout, 150.0, &[true, false, true]);
        assert_eq!(g.edge_count(), 0, "middle node is dead; ends are 200 apart");
        let g2 = live_unit_disk(&layout, 250.0, &[true, false, true]);
        assert!(g2.has_edge(NodeId::new(0), NodeId::new(2)));
    }

    #[test]
    fn invalid_scenarios_are_rejected() {
        let mut s = ChurnScenario::smoke();
        s.crashes = s.initial_nodes;
        assert!(s.validate().is_err());
        let mut s = ChurnScenario::smoke();
        s.mobility_dt = 0;
        assert!(s.validate().is_err());
        let mut s = ChurnScenario::smoke();
        s.cycle_ticks = s.mobility_dt - 1;
        assert!(s.validate().is_err(), "sub-step settle windows rejected");
        let mut s = ChurnScenario::smoke();
        s.speed_min = 0.0;
        assert!(s.validate().is_err());
    }
}
