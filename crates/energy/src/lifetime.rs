//! The epoch-based network-lifetime engine.
//!
//! Time advances in epochs. Each epoch the engine
//!
//! 1. draws a batch of end-to-end packets from the traffic generator,
//! 2. routes each packet over the current topology along the
//!    minimum-energy path and drains the sender/forwarders (tx) and
//!    receivers (rx),
//! 3. drains every alive node's standby cost — idle listening plus
//!    maintenance beaconing at its current broadcast radius,
//! 4. removes nodes whose batteries emptied and patches the topology:
//!    when configured, survivors re-run the topology policy where a
//!    death touched it (§4 reconfiguration); otherwise the dead nodes'
//!    edges are stripped and the initial topology merely decays,
//! 5. records lifetime milestones: the first death, the first partition
//!    of the surviving topology, and the death of the last node.
//!
//! Everything is deterministic in the seed, so a lifetime trace can be
//! replayed bit-for-bit.
//!
//! ## Steady-state and death-epoch costs
//!
//! Routing is nearly the whole cost of an epoch, so the hot loop keeps
//! it cheap:
//!
//! * **Priced once.** Each node keeps a row of priced arcs to its alive
//!   neighbours, in adjacency order: transmission power, routing weight
//!   and expected attempts, priced once per topology change rather than
//!   once per packet-hop. Routing trees are built straight from these
//!   rows by the one Dijkstra kernel in [`cbtc_graph::paths`], with no
//!   per-relaxation lookup or alive check.
//! * **Grown on demand per source, fanned out per epoch.** Routing
//!   trees persist per source, and each is grown only as far as its
//!   packets need: after an epoch's flows are drawn, every sender whose
//!   tree has not settled all of the sender's destinations this epoch
//!   gets its tree started, or resumed where it stopped, until those
//!   destinations are settled ([`SpTree::grow_to`]). A sender has about
//!   1.6 destinations an epoch and a death drops most trees soon after,
//!   so on the benchmark's 1000-node lifetime the trees settle about 64%
//!   of the nodes full trees would. The trees grow in parallel
//!   ([`cbtc_core::parallel::par_map_with`], one reused heap per worker)
//!   before the first packet moves; inside a caller's own fan-out (the
//!   multi-seed runner) this runs inline. A settled node's parent and
//!   cost are final, so the packet loop walks cached paths that are bit
//!   for bit the full tree's, reusing one path buffer.
//! * **Death epochs patch, not rebuild.** The topology is one
//!   [`SurvivorTracker`], patched on every death epoch: the builder's
//!   own (the ideal-radio [`crate::SurvivorTopology`] or the phy
//!   tracker, both thin adapters over
//!   [`cbtc_core::reconfig::DeltaTopology`]) when survivors reconfigure,
//!   the strip-only tracker over the builder's initial topology when
//!   they do not. Only the rows the edge delta touches are re-priced,
//!   and only the routing trees the change can actually affect — those
//!   reaching a dead node, using a removed tree edge, or improvable by
//!   an added edge in either direction, where a partial tree's reach is
//!   its settled nodes plus its frontier — are dropped, to be started
//!   again when their source next sends. In a connected network a death
//!   reaches every complete tree, and only a partial tree that has not
//!   reached the dead node survives; the epoch after a death restarts the
//!   rest, and that burst is what the fan-out spreads over the cores.
//!
//! Topology, prices and the alive mask are fixed while packets move, so
//! growing the trees up front and in parallel reproduces the lazy,
//! sequential order bit for bit. The tests hold both death-epoch
//! mechanisms to from-scratch oracles: whole runs over a tracker that
//! rebuilds the survivor topology every death epoch, and, after every
//! epoch, each cached tree (grown to the end) and each priced row and
//! radius against a fresh computation.

use std::sync::Mutex;
use std::time::Instant;

use cbtc_core::parallel::par_map_with;
use cbtc_core::reconfig::routing::tree_reusable;
use cbtc_core::Network;
use cbtc_graph::paths::{DijkstraScratch, Rows, SpTree, WeightedArc};
use cbtc_graph::traversal::alive_connected;
use cbtc_graph::{NodeId, UndirectedGraph};
use cbtc_metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use cbtc_radio::{PathLoss, Power, PowerBasis};
use cbtc_trace::{TraceEvent, TraceHandle, TRACE_VERSION};
use serde::{Deserialize, Serialize};

use crate::{
    Battery, EnergyLedger, EnergyModel, Flow, FlowGenerator, LinkReliability, SurvivorTopology,
    SurvivorTracker, TopologyBuilder, TopologyDelta, TopologyPolicy, TrafficPattern,
};

/// Parameters of a lifetime run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LifetimeConfig {
    /// Initial battery capacity of every node.
    pub initial_energy: f64,
    /// End-to-end packets injected per epoch (network-wide).
    pub packets_per_epoch: u32,
    /// Which traffic workload drives the network.
    pub pattern: TrafficPattern,
    /// Hard cap on simulated epochs.
    pub max_epochs: u32,
    /// Whether survivors rerun the topology policy after deaths
    /// (reconfiguration). When off, the initial topology merely decays.
    pub reconfigure: bool,
    /// The radio energy price list.
    pub energy: EnergyModel,
}

impl LifetimeConfig {
    /// Defaults for the paper's §5 networks (100 nodes, `R = 500`): one
    /// packet per node per epoch, standby-dominated energy model, budget
    /// for a few hundred max-power epochs.
    pub fn paper_default() -> Self {
        LifetimeConfig {
            initial_energy: 5_000_000.0,
            packets_per_epoch: 100,
            pattern: TrafficPattern::Uniform,
            max_epochs: 40_000,
            reconfigure: true,
            energy: EnergyModel::paper_default(),
        }
    }

    /// A fast-draining variant for tests and doc examples: the same model
    /// with 1/25 of the battery, so full lifetimes resolve in tens to
    /// hundreds of epochs.
    pub fn smoke() -> Self {
        LifetimeConfig {
            initial_energy: 200_000.0,
            packets_per_epoch: 25,
            max_epochs: 5_000,
            ..LifetimeConfig::paper_default()
        }
    }
}

/// The outcome of a full lifetime run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifetimeReport {
    /// The topology policy's display label.
    pub policy: String,
    /// The run's seed (traffic stream).
    pub seed: u64,
    /// Epochs actually simulated.
    pub epochs_run: u32,
    /// Epoch at which the first node died (1-based: the epoch whose
    /// drains emptied it), if any died.
    pub first_death: Option<u32>,
    /// Epoch at which the surviving topology first became disconnected
    /// (or fewer than two nodes remained), if it happened.
    pub partition: Option<u32>,
    /// Epoch at which the last node died, if the network fully drained.
    pub all_dead: Option<u32>,
    /// Total packets delivered.
    pub delivered: u64,
    /// Total packets dropped for lack of a route.
    pub dropped: u64,
    /// Where the energy went.
    pub ledger: EnergyLedger,
    /// Energy drained per node over the whole run.
    pub drained_per_node: Vec<f64>,
    /// Battery remaining per node at the end.
    pub remaining_per_node: Vec<f64>,
    /// Alive-node count after each epoch (the fraction-alive curve).
    pub alive_curve: Vec<u32>,
    /// Coefficient of variation of per-node drained energy, snapshotted
    /// at the first death (or at the end when nothing died): the
    /// energy-balance metric — lower is more even.
    pub energy_balance_cv: f64,
}

impl LifetimeReport {
    /// Delivered fraction of all injected packets (1.0 when no traffic).
    pub fn delivered_ratio(&self) -> f64 {
        let total = self.delivered + self.dropped;
        if total == 0 {
            1.0
        } else {
            self.delivered as f64 / total as f64
        }
    }

    /// First-death epoch, censored at `epochs_run` when nothing died.
    pub fn first_death_or_censored(&self) -> u32 {
        self.first_death.unwrap_or(self.epochs_run)
    }

    /// Partition epoch, censored at `epochs_run` when it never happened.
    pub fn partition_or_censored(&self) -> u32 {
        self.partition.unwrap_or(self.epochs_run)
    }
}

/// Smallest slice of an epoch's growing trees worth a worker thread: 16
/// full trees of a 1000-node network are about a millisecond of work
/// (`hot_paths`' `routing/row_kernel_1000`), a partial one a fraction of
/// that (`routing/grow_until_{1,2}_1000`), still far above a thread spawn.
const ROUTE_MIN_CHUNK: usize = 16;

/// Minimum-energy routing state: one shortest-path tree per source,
/// started the first time the source sends, grown only as far as the
/// source's packets need, and kept until a topology change that can
/// actually affect it.
///
/// Each epoch, before any packet moves, [`RoutingTable::install_missing`]
/// starts or resumes the tree of every sender with a destination its tree
/// has not settled, fanned out over the cores. The packet loop then only
/// walks cached trees from settled destinations. Traffic changes neither
/// the topology, the prices nor the alive mask, and a settled node's path
/// is final ([`SpTree`]'s stop-and-resume rule), so a path read from a
/// partial tree grown up front is bit for bit the one a full tree built
/// by the packet would give.
#[derive(Debug)]
struct RoutingTable {
    trees: Vec<Option<SpTree>>,
}

impl RoutingTable {
    /// A table for `n` nodes with no tree built yet.
    fn new(n: usize) -> Self {
        RoutingTable {
            trees: vec![None; n],
        }
    }

    /// Groups `flows` by sender and grows, in one fan-out, every
    /// sender's tree that lacks a settled destination: a missing tree is
    /// started, a partial one resumed, each only until the sender's
    /// destinations are settled. Routes on the priced `rows` (each row
    /// holds exactly its node's alive neighbours, in adjacency order,
    /// with their directed weights). One heap per worker.
    fn install_missing(&mut self, flows: &[Flow], rows: &[Vec<PricedArc>]) {
        let mut pairs: Vec<(NodeId, NodeId)> = flows.iter().map(|f| (f.src, f.dst)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let dsts: Vec<NodeId> = pairs.iter().map(|&(_, dst)| dst).collect();
        // One job per growing tree, in ascending sender order. Each job's
        // lock is taken once, by the worker that pulls it: it only hands
        // that worker its tree's slot.
        let mut slots = self.trees.iter_mut().enumerate();
        let mut jobs = Vec::new();
        let mut end = 0;
        for group in pairs.chunk_by(|a, b| a.0 == b.0) {
            let (src, targets) = (group[0].0, &dsts[end..end + group.len()]);
            end += group.len();
            let (_, slot) = slots
                .find(|&(i, _)| i == src.index())
                .expect("senders are in ascending order");
            let ready = slot.as_ref().is_some_and(|tree| {
                tree.is_complete() || targets.iter().all(|&dst| tree.is_settled(dst))
            });
            if !ready {
                jobs.push((src, Mutex::new(slot), targets));
            }
        }
        par_map_with(
            &jobs,
            ROUTE_MIN_CHUNK,
            DijkstraScratch::default,
            |scratch, (src, slot, targets)| {
                let mut slot = slot.lock().expect("a job is grown once");
                slot.get_or_insert_with(|| SpTree::new(rows.len(), *src))
                    .grow_to(Rows(rows), targets, scratch);
            },
        );
    }

    /// Writes the node path `src → … → dst` into `out`; returns `false`
    /// (leaving `out` in an unspecified state) when unreachable.
    ///
    /// # Panics
    ///
    /// Panics when `src` has no tree: [`RoutingTable::install_missing`]
    /// must have run for this epoch's flows.
    fn path_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<NodeId>) -> bool {
        let tree = self.trees[src.index()]
            .as_ref()
            .expect("the epoch's trees are installed before the packet loop");
        debug_assert!(tree.is_settled(dst) || tree.is_complete());
        out.clear();
        out.push(dst);
        let mut cursor = dst;
        while cursor != src {
            match tree.parent(cursor) {
                None => return false,
                Some(prev) => {
                    cursor = prev;
                    out.push(cursor);
                }
            }
        }
        out.reverse();
        true
    }

    /// Drops exactly the cached trees a topology change can affect — the
    /// [`tree_reusable`] keep rules (no reachable death, no lost tree
    /// edge, no improvable addition). A kept tree is provably what a
    /// recomputation would produce bit-for-bit, so keeping it leaves the
    /// simulation's arithmetic unchanged.
    fn invalidate_after<W>(&mut self, dead: &[NodeId], delta: &TopologyDelta, weight: W)
    where
        W: Fn(NodeId, NodeId) -> f64,
    {
        for slot in &mut self.trees {
            let Some(tree) = slot else { continue };
            if !tree_reusable(tree, dead, delta, &weight) {
                *slot = None;
            }
        }
    }
}

/// Pre-resolved lifetime-engine instruments (see [`LifetimeSim::set_metrics`]):
/// per-epoch phase timings, outcome counters, and the accumulated expected
/// ARQ attempts. Resolved once at install so the epoch loop never touches
/// the registry's name map.
#[derive(Debug)]
struct LifetimeMetrics {
    /// Wall-clock nanos of the traffic phase (routing + tx/rx drains).
    nanos_traffic: Histogram,
    /// Wall-clock nanos of the standby-drain phase.
    nanos_standby: Histogram,
    /// Wall-clock nanos of a death epoch's reconfiguration (tracker kill,
    /// row re-pricing and routing invalidation).
    nanos_reconfig: Histogram,
    /// Wall-clock nanos of the post-death connectivity check.
    nanos_partition: Histogram,
    epochs: Counter,
    deaths: Counter,
    delivered: Counter,
    dropped: Counter,
    /// Total expected transmission attempts across all delivered hops
    /// (ARQ retransmissions included; exactly the hop count on ideal
    /// links).
    arq_attempts: Gauge,
}

impl LifetimeMetrics {
    fn resolve(registry: &MetricsRegistry) -> Self {
        LifetimeMetrics {
            nanos_traffic: registry.histogram("lifetime.nanos.traffic"),
            nanos_standby: registry.histogram("lifetime.nanos.standby"),
            nanos_reconfig: registry.histogram("lifetime.nanos.reconfig"),
            nanos_partition: registry.histogram("lifetime.nanos.partition"),
            epochs: registry.counter("lifetime.epochs"),
            deaths: registry.counter("lifetime.deaths"),
            delivered: registry.counter("lifetime.delivered"),
            dropped: registry.counter("lifetime.dropped"),
            arq_attempts: registry.gauge("lifetime.arq_attempts"),
        }
    }
}

/// Records the nanos since `*start` and resets `*start` to now, so
/// consecutive phases chain without gaps.
fn lap(start: &mut Instant) -> u64 {
    let now = Instant::now();
    let nanos = now
        .duration_since(*start)
        .as_nanos()
        .min(u128::from(u64::MAX)) as u64;
    *start = now;
    nanos
}

/// One priced arc of a node's cost row.
#[derive(Debug, Clone, Copy)]
struct PricedArc {
    /// The neighbour the hop reaches.
    to: NodeId,
    /// The hop's transmission power.
    tx: Power,
    /// The routing weight: the attempt-scaled hop cost (with ideal links,
    /// attempts is exactly `1.0` and the weight is exactly the hop cost).
    weight: f64,
    /// Expected transmission attempts (ARQ).
    attempts: f64,
}

impl WeightedArc for PricedArc {
    fn head(&self) -> NodeId {
        self.to
    }

    fn weight(&self) -> f64 {
        self.weight
    }
}

/// Looks up the priced arc `u → v` in `u`'s row.
///
/// # Panics
///
/// Panics when the edge is not priced — i.e. not in the current topology.
fn edge_cost(edge_costs: &[Vec<PricedArc>], u: NodeId, v: NodeId) -> PricedArc {
    let row = &edge_costs[u.index()];
    let i = row
        .binary_search_by_key(&v, |e| e.to)
        .expect("edge is in the topology and therefore priced");
    row[i]
}

/// A deterministic packet-level battery simulation over one network and
/// one topology policy.
///
/// # Example
///
/// ```
/// use cbtc_energy::{LifetimeConfig, LifetimeSim, TopologyPolicy};
/// use cbtc_workloads::{RandomPlacement, Scenario};
///
/// let network = RandomPlacement::from_scenario(&Scenario::smoke()).generate(1);
/// let sim = LifetimeSim::new(network, TopologyPolicy::MaxPower, LifetimeConfig::smoke(), 1);
/// let report = sim.run();
/// assert!(report.first_death.is_some());
/// assert!(report.delivered > 0);
/// ```
#[derive(Debug)]
pub struct LifetimeSim {
    network: Network,
    /// The builder's [`TopologyBuilder::label`].
    label: String,
    /// Expected per-link transmission attempts (ARQ), supplied by the
    /// builder. [`crate::IdealLinks`] multiplies by the literal `1.0` —
    /// bit-identical to no reliability model at all.
    reliability: Box<dyn LinkReliability>,
    /// The builder's [`TopologyBuilder::power_controlled`].
    power_controlled: bool,
    config: LifetimeConfig,
    flows: FlowGenerator,
    seed: u64,

    batteries: Vec<Battery>,
    alive: Vec<bool>,
    alive_count: u32,
    /// Cached list of alive node IDs (pruned on deaths).
    alive_ids: Vec<NodeId>,
    /// The current topology, patched on every death epoch: the builder's
    /// survivor tracker when `config.reconfigure`, else the strip-only
    /// tracker over the builder's initial topology.
    topology: Box<dyn SurvivorTracker>,
    routes: RoutingTable,
    /// Per-node rows of priced arcs to the alive neighbours, in the
    /// topology's adjacency order: the routing kernel's arc source, so
    /// neither routing nor the packet loop ever re-prices a link.
    edge_costs: Vec<Vec<PricedArc>>,
    /// Scratch buffer for the per-packet path walk.
    path_buf: Vec<NodeId>,
    /// Scratch buffer for the per-epoch flow draw.
    flow_buf: Vec<crate::Flow>,
    /// Per-node broadcast-radius power for the standby drain.
    radius_power: Vec<Power>,

    /// Observability hooks: when installed, death epochs record
    /// [`TraceEvent`]s (deaths, topology deltas, power changes, energy
    /// snapshots). Absent by default — one `Option` check per epoch.
    trace: Option<TraceHandle>,
    /// Monotone counter of emitted [`TraceEvent::TopologyEpoch`] frames.
    trace_epoch: u32,
    /// Pre-resolved metrics instruments; `None` (one `Option` check per
    /// epoch) unless [`LifetimeSim::set_metrics`] installed an enabled
    /// registry.
    metrics: Option<LifetimeMetrics>,

    epoch: u32,
    first_death: Option<u32>,
    partition: Option<u32>,
    all_dead: Option<u32>,
    delivered: u64,
    dropped: u64,
    ledger: EnergyLedger,
    drained: Vec<f64>,
    alive_curve: Vec<u32>,
    balance_cv_at_first_death: Option<f64>,
}

impl LifetimeSim {
    /// Sets up a run: builds the initial topology and routing state, and
    /// charges every battery to `config.initial_energy`.
    pub fn new(
        network: Network,
        policy: TopologyPolicy,
        config: LifetimeConfig,
        seed: u64,
    ) -> Self {
        LifetimeSim::with_builder(network, &policy, config, seed)
    }

    /// [`LifetimeSim::new`] with an injected topology builder — the phy
    /// subsystem's entry point.
    ///
    /// The builder is told the run's pricing basis
    /// (`config.energy.power_basis`) and supplies the link reliability
    /// its channel implies. With `config.reconfigure` the engine patches
    /// the builder's [`TopologyBuilder::survivor_tracker`] on every death
    /// epoch; without it, the builder's initial topology decays: each
    /// death strips the dead node's edges.
    pub fn with_builder(
        network: Network,
        builder: &dyn TopologyBuilder,
        config: LifetimeConfig,
        seed: u64,
    ) -> Self {
        let n = network.len();
        let basis = config.energy.power_basis;
        let topology = if config.reconfigure {
            builder.survivor_tracker(&network, basis)
        } else {
            Box::new(SurvivorTopology::induced(builder.build(&network, basis)))
        };
        let mut sim = LifetimeSim {
            flows: FlowGenerator::new(config.pattern, seed),
            seed,
            batteries: vec![Battery::new(config.initial_energy); n],
            alive: vec![true; n],
            alive_count: n as u32,
            alive_ids: (0..n as u32).map(NodeId::new).collect(),
            topology,
            routes: RoutingTable::new(n),
            edge_costs: vec![Vec::new(); n],
            path_buf: Vec::new(),
            flow_buf: Vec::new(),
            radius_power: vec![Power::ZERO; n],
            trace: None,
            trace_epoch: 0,
            metrics: None,
            epoch: 0,
            first_death: None,
            partition: None,
            all_dead: None,
            delivered: 0,
            dropped: 0,
            ledger: EnergyLedger::default(),
            drained: vec![0.0; n],
            alive_curve: Vec::new(),
            balance_cv_at_first_death: None,
            label: builder.label(),
            reliability: builder.reliability(&network),
            power_controlled: builder.power_controlled(),
            network,
            config,
        };
        for u in 0..n as u32 {
            sim.refresh_node_costs_and_radius(NodeId::new(u));
        }
        sim.check_partition();
        sim
    }

    /// The epoch about to be simulated next.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Nodes still alive.
    pub fn alive_count(&self) -> u32 {
        self.alive_count
    }

    /// The current topology (dead nodes are isolated).
    pub fn topology(&self) -> &UndirectedGraph {
        self.topology.graph()
    }

    /// The per-node batteries.
    pub fn batteries(&self) -> &[Battery] {
        &self.batteries
    }

    /// Installs observability hooks and emits the trace preamble: the
    /// run header, the initial positions/topology/power/energy state.
    /// Subsequent death epochs record their deaths, exact edge deltas,
    /// power changes and energy snapshots.
    ///
    /// The hooks only observe already-computed state and draw no
    /// randomness — a traced run is bit-identical to an untraced one.
    /// Times are epochs (the engine's native unit).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.topology.set_trace(trace.clone());
        self.topology.set_trace_clock(self.epoch as f64);
        let layout = self.network.layout();
        let (mut width, mut height) = (0.0f64, 0.0f64);
        for (_, p) in layout.iter() {
            width = width.max(p.x);
            height = height.max(p.y);
        }
        trace.record(TraceEvent::Meta {
            version: TRACE_VERSION,
            run: format!("lifetime/{}", self.label),
            nodes: self.network.len() as u32,
            seed: self.seed,
            alpha: 0.0,
            width,
            height,
            pricing: self.config.energy.power_basis.label().to_owned(),
        });
        let time = self.epoch as f64;
        trace.record(TraceEvent::Positions {
            time,
            xs: layout.iter().map(|(_, p)| p.x).collect(),
            ys: layout.iter().map(|(_, p)| p.y).collect(),
            alive: self.alive.clone(),
        });
        let topology = self.topology.graph();
        trace.record(TraceEvent::TopologyEpoch {
            time,
            epoch: self.trace_epoch,
            live: self.alive_count,
            edges: topology.edge_count() as u64,
            added: topology
                .edges()
                .map(|(u, v)| (u.raw().min(v.raw()), u.raw().max(v.raw())))
                .collect(),
            removed: Vec::new(),
        });
        self.trace_epoch += 1;
        for (i, p) in self.radius_power.iter().enumerate() {
            trace.record(TraceEvent::PowerChange {
                time,
                node: i as u32,
                power: p.linear(),
            });
        }
        trace.record(TraceEvent::EnergySnapshot {
            time,
            energy: self.batteries.iter().map(Battery::remaining).collect(),
        });
        self.trace = Some(trace);
    }

    /// Installs metrics instruments: per-epoch phase timings
    /// (`lifetime.nanos.{traffic,standby,reconfig,partition}`), outcome
    /// counters (`lifetime.{epochs,deaths,delivered,dropped}`), the
    /// accumulated expected ARQ attempts (`lifetime.arq_attempts`), and —
    /// through the survivor tracker — the incremental engine's per-batch
    /// `reconfig.*` series. A disabled registry uninstalls.
    ///
    /// Like [`LifetimeSim::set_trace`], the instruments only observe
    /// already-computed state: a metered run is bit-identical to an
    /// unmetered one.
    pub fn set_metrics(&mut self, registry: &MetricsRegistry) {
        self.topology.set_metrics(registry);
        self.metrics = registry
            .is_enabled()
            .then(|| LifetimeMetrics::resolve(registry));
    }

    /// Whether the run is over (battery exhaustion or the epoch cap).
    pub fn finished(&self) -> bool {
        self.alive_count == 0 || self.epoch >= self.config.max_epochs
    }

    /// Simulates one epoch. Returns `false` once the run is over.
    pub fn step(&mut self) -> bool {
        if self.finished() {
            return false;
        }
        let energy = self.config.energy;
        // Phase clock (metered runs only): each phase records the nanos
        // since the previous one's end, so the phases tile the epoch.
        let mut phase_start = self.metrics.as_ref().map(|_| Instant::now());
        let metrics_on = self.metrics.is_some();
        let mut arq_attempts = 0.0f64;

        // 1. + 2. Traffic: route each packet, drain tx/rx along the path.
        let mut delivered = 0u32;
        let mut dropped = 0u32;
        let mut flow_buf = std::mem::take(&mut self.flow_buf);
        self.flows.epoch_flows_into(
            &self.alive_ids,
            self.config.packets_per_epoch,
            &mut flow_buf,
        );
        self.routes.install_missing(&flow_buf, &self.edge_costs);
        let mut path_buf = std::mem::take(&mut self.path_buf);
        for &flow in &flow_buf {
            if !self.routes.path_into(flow.src, flow.dst, &mut path_buf) {
                dropped += 1;
                continue;
            }
            for hop in path_buf.windows(2) {
                let (u, v) = (hop[0], hop[1]);
                let PricedArc {
                    tx: tx_power,
                    attempts,
                    ..
                } = edge_cost(&self.edge_costs, u, v);
                // ARQ: lossy links retransmit; sender and receiver both
                // pay per attempt. With ideal links `attempts` is the
                // literal 1.0 and the products are bit-exact.
                let tx = self.batteries[u.index()].drain(attempts * energy.tx_cost(tx_power));
                self.ledger.tx += tx;
                self.drained[u.index()] += tx;
                let rx = self.batteries[v.index()].drain(attempts * energy.rx_cost);
                self.ledger.rx += rx;
                self.drained[v.index()] += rx;
                if metrics_on {
                    arq_attempts += attempts;
                }
            }
            delivered += 1;
        }
        self.path_buf = path_buf;
        self.flow_buf = flow_buf;
        self.delivered += delivered as u64;
        self.dropped += dropped as u64;
        if let (Some(m), Some(start)) = (&self.metrics, &mut phase_start) {
            m.nanos_traffic.record(lap(start));
            m.epochs.inc();
            m.delivered.add(delivered as u64);
            m.dropped.add(dropped as u64);
            m.arq_attempts.add(arq_attempts);
        }

        // 3. Standby: idle + maintenance beaconing at radius power.
        for u in 0..self.batteries.len() {
            if !self.alive[u] {
                continue;
            }
            let idle = self.batteries[u].drain(energy.idle_per_epoch);
            self.ledger.idle += idle;
            self.drained[u] += idle;
            let beacons =
                self.batteries[u].drain(energy.maintenance_duty * self.radius_power[u].linear());
            self.ledger.maintenance += beacons;
            self.drained[u] += beacons;
        }
        if let (Some(m), Some(start)) = (&self.metrics, &mut phase_start) {
            m.nanos_standby.record(lap(start));
        }

        self.epoch += 1;

        // 4. Deaths and reconfiguration.
        let mut newly_dead: Vec<NodeId> = Vec::new();
        for u in 0..self.batteries.len() {
            if self.alive[u] && !self.batteries[u].is_alive() {
                newly_dead.push(NodeId::new(u as u32));
            }
        }
        if !newly_dead.is_empty() {
            let time = self.epoch as f64;
            if let Some(trace) = &self.trace {
                for &d in &newly_dead {
                    trace.record(TraceEvent::Death {
                        time,
                        node: d.raw(),
                    });
                }
            }
            // Pre-death radii, so power changes can be diffed after the
            // reconfiguration refresh (only when traced).
            let old_radii = self.trace.is_some().then(|| self.radius_power.clone());
            self.alive_count -= newly_dead.len() as u32;
            if self.first_death.is_none() {
                // The balance snapshot reads `drained`, not `alive`; the
                // mask flip order is irrelevant to it.
                self.first_death = Some(self.epoch);
                self.balance_cv_at_first_death = Some(self.balance_cv());
            }
            if self.alive_count == 0 {
                self.all_dead = Some(self.epoch);
            }
            for &d in &newly_dead {
                self.alive[d.index()] = false;
            }
            if let (Some(m), Some(start)) = (&self.metrics, &mut phase_start) {
                m.deaths.add(newly_dead.len() as u64);
                // Reset so trace bookkeeping above stays out of the
                // reconfiguration timing.
                *start = Instant::now();
            }
            self.topology.set_trace_clock(time);
            let delta = self.topology.kill(&newly_dead);
            self.apply_topology_delta(&newly_dead, &delta);
            if let (Some(m), Some(start)) = (&self.metrics, &mut phase_start) {
                m.nanos_reconfig.record(lap(start));
            }
            if let Some(old) = old_radii {
                self.record_death_epoch(time, &delta, &old);
            }
            // 5. Milestones. Connectivity can only change when the
            // topology does, so the check lives inside the death branch.
            if let Some(start) = &mut phase_start {
                *start = Instant::now();
            }
            self.check_partition();
            if let (Some(m), Some(start)) = (&self.metrics, &mut phase_start) {
                m.nanos_partition.record(lap(start));
            }
        }

        self.alive_curve.push(self.alive_count);
        !self.finished()
    }

    /// Runs to completion and summarizes.
    pub fn run(mut self) -> LifetimeReport {
        while self.step() {}
        if let Some(trace) = &self.trace {
            trace.flush();
        }
        LifetimeReport {
            policy: self.label.clone(),
            seed: self.seed,
            epochs_run: self.epoch,
            first_death: self.first_death,
            partition: self.partition,
            all_dead: self.all_dead,
            delivered: self.delivered,
            dropped: self.dropped,
            ledger: self.ledger,
            drained_per_node: self.drained.clone(),
            remaining_per_node: self.batteries.iter().map(Battery::remaining).collect(),
            alive_curve: self.alive_curve.clone(),
            energy_balance_cv: self
                .balance_cv_at_first_death
                .unwrap_or_else(|| self.balance_cv()),
        }
    }

    /// Emits a death epoch's observable aftermath: the exact topology
    /// delta, every maintenance-radius change, and an energy snapshot.
    fn record_death_epoch(&mut self, time: f64, delta: &TopologyDelta, old_radii: &[Power]) {
        let Some(trace) = &self.trace else { return };
        let canonical = |pairs: &[(NodeId, NodeId)]| {
            let mut out: Vec<(u32, u32)> = pairs
                .iter()
                .map(|&(u, v)| (u.raw().min(v.raw()), u.raw().max(v.raw())))
                .collect();
            out.sort_unstable();
            out
        };
        trace.record(TraceEvent::TopologyEpoch {
            time,
            epoch: self.trace_epoch,
            live: self.alive_count,
            edges: self.topology.graph().edge_count() as u64,
            added: canonical(&delta.added),
            removed: canonical(&delta.removed),
        });
        for (i, (old, new)) in old_radii.iter().zip(&self.radius_power).enumerate() {
            if old != new {
                trace.record(TraceEvent::PowerChange {
                    time,
                    node: i as u32,
                    power: new.linear(),
                });
            }
        }
        trace.record(TraceEvent::EnergySnapshot {
            time,
            energy: self.batteries.iter().map(Battery::remaining).collect(),
        });
        self.trace_epoch += 1;
    }

    /// Coefficient of variation (σ/μ) of per-node drained energy.
    fn balance_cv(&self) -> f64 {
        let n = self.drained.len() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let mean = self.drained.iter().sum::<f64>() / n;
        if mean <= 0.0 {
            return 0.0;
        }
        let var = self.drained.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n;
        var.sqrt() / mean
    }

    /// The incremental aftermath of a death epoch: refresh only the state
    /// the edge delta actually touches, and keep every routing tree the
    /// change provably cannot affect.
    fn apply_topology_delta(&mut self, newly_dead: &[NodeId], delta: &TopologyDelta) {
        self.alive_ids.retain(|u| self.alive[u.index()]);
        let mut touched: Vec<NodeId> = newly_dead.to_vec();
        for &(u, v) in delta.removed.iter().chain(&delta.added) {
            touched.push(u);
            touched.push(v);
        }
        touched.sort_unstable();
        touched.dedup();
        for &u in &touched {
            self.refresh_node_costs_and_radius(u);
        }
        let edge_costs = &self.edge_costs;
        self.routes
            .invalidate_after(newly_dead, delta, |u, v| edge_cost(edge_costs, u, v).weight);
    }

    /// Rebuilds node `u`'s cached edge-cost row and maintenance radius
    /// from the current topology.
    fn refresh_node_costs_and_radius(&mut self, u: NodeId) {
        let mut row = std::mem::take(&mut self.edge_costs[u.index()]);
        self.radius_power[u.index()] = self.price_node(u, &mut row);
        self.edge_costs[u.index()] = row;
    }

    /// Prices node `u` on the current topology and alive mask: writes its
    /// row of priced arcs into `row` and returns its maintenance-radius
    /// power.
    fn price_node(&self, u: NodeId, row: &mut Vec<PricedArc>) -> Power {
        let model = *self.network.model();
        let energy = self.config.energy;
        let power_control = self.power_controlled;
        let layout = self.network.layout();
        let reliability = &self.reliability;
        let i = u.index();

        let topology = self.topology.graph();
        let measured = energy.power_basis == PowerBasis::Measured;
        row.clear();
        let mut farthest: Option<f64> = None;
        for v in topology.neighbors(u) {
            if !self.alive[v.index()] {
                continue;
            }
            let d = layout.distance(u, v);
            if measured {
                // §2 measured pricing: the hop pays for the effective
                // distance the channel presents, so the receiver gets
                // exactly `p(d̂)` instead of `p(d)·g`. Capped at `P` —
                // a node cannot exceed its maximum power. Attempts
                // still take the geometric distance (the channel
                // re-applies its own gain to the delivered power).
                let pd = reliability.priced_distance(u, v, d);
                let tx = energy
                    .hop_tx_power(&model, pd, power_control)
                    .min(model.max_power());
                let attempts = reliability.attempts(u, v, tx, d);
                row.push(PricedArc {
                    to: v,
                    tx,
                    weight: attempts * energy.hop_cost(tx),
                    attempts,
                });
                farthest = Some(farthest.map_or(pd, |a| a.max(pd)));
            } else {
                let tx = energy.hop_tx_power(&model, d, power_control);
                // Routing minimizes *expected* energy: lossy links carry
                // their retransmission factor in the weight, so the router
                // prefers reliable links. Ideal links multiply by exactly 1.
                let attempts = reliability.attempts(u, v, tx, d);
                row.push(PricedArc {
                    to: v,
                    tx,
                    weight: attempts * energy.hop_cost(tx),
                    attempts,
                });
                farthest = Some(farthest.map_or(d, |a| a.max(d)));
            }
        }

        // Maintenance radius: max power without topology control; the
        // farthest kept alive neighbor (max power when isolated) with it.
        if !self.alive[i] {
            Power::ZERO
        } else if power_control {
            if measured {
                farthest.map_or(model.max_power(), |r| {
                    model.required_power(r).min(model.max_power())
                })
            } else {
                farthest.map_or(model.max_power(), |r| model.required_power(r))
            }
        } else {
            model.max_power()
        }
    }

    /// Records the first epoch at which the surviving topology stopped
    /// being one connected component (or shrank below two nodes).
    fn check_partition(&mut self) {
        if self.partition.is_some() {
            return;
        }
        if !alive_connected(self.topology.graph(), &self.alive) {
            self.partition = Some(self.epoch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhyPolicy;
    use cbtc_core::CbtcConfig;
    use cbtc_geom::{Alpha, Point2};
    use cbtc_graph::paths::shortest_path_tree;
    use cbtc_graph::Layout;
    use cbtc_phy::{PhyProfile, PrrCurve, ShadowingMode};

    fn chain(spacing: f64, n: usize) -> Network {
        Network::with_paper_radio(Layout::new(
            (0..n)
                .map(|i| Point2::new(i as f64 * spacing, 0.0))
                .collect(),
        ))
    }

    fn quick_config() -> LifetimeConfig {
        LifetimeConfig {
            initial_energy: 100_000.0,
            packets_per_epoch: 5,
            max_epochs: 2_000,
            ..LifetimeConfig::paper_default()
        }
    }

    #[test]
    fn lifetime_milestones_are_ordered() {
        let sim = LifetimeSim::new(chain(200.0, 6), TopologyPolicy::MaxPower, quick_config(), 3);
        let report = sim.run();
        let fd = report.first_death.expect("someone must die");
        let ad = report.all_dead.expect("everyone must die");
        let part = report.partition.expect("a chain partitions");
        assert!(fd <= part && part <= ad, "{fd} <= {part} <= {ad}");
        assert_eq!(report.epochs_run as usize, report.alive_curve.len());
        assert_eq!(*report.alive_curve.last().unwrap(), 0);
    }

    #[test]
    fn routing_charges_intermediate_nodes() {
        // 3-node chain, ends out of direct range: the middle node relays.
        let network = chain(400.0, 3);
        let mut config = quick_config();
        config.packets_per_epoch = 10;
        config.energy.idle_per_epoch = 0.0;
        config.energy.maintenance_duty = 0.0;
        let mut sim = LifetimeSim::new(network, TopologyPolicy::MaxPower, config, 1);
        sim.step();
        let drained_mid = sim.batteries()[1].drained();
        assert!(drained_mid > 0.0, "relay must spend energy");
        assert!(sim.ledger.tx > 0.0 && sim.ledger.rx > 0.0);
    }

    #[test]
    fn unreachable_packets_are_dropped() {
        // Two nodes beyond max range: all traffic drops.
        let network = chain(600.0, 2);
        let sim = LifetimeSim::new(network, TopologyPolicy::MaxPower, quick_config(), 1);
        let report = sim.run();
        assert_eq!(report.delivered, 0);
        assert!(report.dropped > 0);
        assert_eq!(report.partition, Some(0), "born partitioned");
    }

    #[test]
    fn cbtc_standby_is_cheaper_than_max_power() {
        let network = chain(150.0, 8);
        let max_power =
            LifetimeSim::new(network.clone(), TopologyPolicy::MaxPower, quick_config(), 1);
        let cbtc = LifetimeSim::new(
            network,
            TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS)),
            quick_config(),
            1,
        );
        let sum = |sim: &LifetimeSim| -> f64 { sim.radius_power.iter().map(|p| p.linear()).sum() };
        assert!(sum(&cbtc) < sum(&max_power) / 2.0);
    }

    #[test]
    fn metrics_count_the_run_without_perturbing_it() {
        let network = chain(100.0, 10);
        let policy = TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS));
        let plain = LifetimeSim::new(network.clone(), policy, quick_config(), 5).run();

        let registry = MetricsRegistry::enabled();
        let mut sim = LifetimeSim::new(network, policy, quick_config(), 5);
        sim.set_metrics(&registry);
        let report = sim.run();
        assert_eq!(report, plain, "metered run must be bit-identical");

        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("lifetime.epochs"),
            Some(u64::from(report.epochs_run))
        );
        assert_eq!(snap.counter("lifetime.delivered"), Some(report.delivered));
        assert_eq!(snap.counter("lifetime.dropped"), Some(report.dropped));
        let dead = 10 - u64::from(*report.alive_curve.last().unwrap());
        assert_eq!(snap.counter("lifetime.deaths"), Some(dead));
        assert!(dead > 0, "the scenario must exercise deaths");
        assert!(snap.gauge("lifetime.arq_attempts").unwrap() > 0.0);
        let hist = |name: &str| snap.histogram(name).map_or(0, |h| h.count);
        assert_eq!(hist("lifetime.nanos.traffic"), u64::from(report.epochs_run));
        assert_eq!(hist("lifetime.nanos.standby"), u64::from(report.epochs_run));
        assert!(hist("lifetime.nanos.reconfig") > 0);
        assert_eq!(
            hist("lifetime.nanos.reconfig"),
            hist("lifetime.nanos.partition")
        );
        // The survivor tracker forwards to the incremental engine's
        // per-batch reconfiguration series.
        assert!(snap.counter("reconfig.batches").unwrap() > 0);
        assert_eq!(
            snap.counter("reconfig.events.death"),
            snap.counter("lifetime.deaths")
        );

        // A disabled registry uninstalls and records nothing further.
        let registry2 = MetricsRegistry::enabled();
        let mut sim2 = LifetimeSim::new(chain(100.0, 4), policy, quick_config(), 5);
        sim2.set_metrics(&registry2);
        sim2.set_metrics(&MetricsRegistry::disabled());
        sim2.step();
        assert_eq!(registry2.snapshot().counter("lifetime.epochs"), Some(0));
    }

    #[test]
    fn reconfiguration_restores_routes_after_death() {
        // Dense cluster: after deaths the survivors stay connected and
        // keep delivering.
        let network = chain(100.0, 10);
        let config = quick_config();
        let report = LifetimeSim::new(
            network,
            TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS)),
            config,
            5,
        )
        .run();
        assert!(report.first_death.is_some());
        assert!(report.delivered_ratio() > 0.5);
    }

    /// 35 nodes scattered over a 900 × 900 field.
    fn scattered() -> Network {
        let mut state = 0xFEED_5EEDu64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts = (0..35)
            .map(|_| Point2::new(next() * 900.0, next() * 900.0))
            .collect();
        Network::with_paper_radio(Layout::new(pts))
    }

    /// Every policy on the ideal radio, and through the phy pipeline
    /// under σ = 6 dB per-direction shadowing with the soft PRR curve
    /// (directed routing weights, attempts above one).
    fn builders() -> Vec<Box<dyn TopologyBuilder>> {
        let mut profile = PhyProfile::shadowed(6.0, 11);
        profile.shadowing_mode = ShadowingMode::Independent;
        profile.prr = PrrCurve::paper_transition();
        let policies = [
            TopologyPolicy::MaxPower,
            TopologyPolicy::Cbtc(CbtcConfig::new(Alpha::FIVE_PI_SIXTHS)),
            TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS)),
            TopologyPolicy::Cbtc(CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS)),
        ];
        policies
            .into_iter()
            .flat_map(|policy| -> [Box<dyn TopologyBuilder>; 2] {
                [Box::new(policy), Box::new(PhyPolicy { policy, profile })]
            })
            .collect()
    }

    /// Runs `builder` on both pricing bases to the end, with and without
    /// reconfiguration as `reconfigure` lists, under each traffic pattern
    /// of `patterns`, calling `check` after construction and after every
    /// epoch. Returns how many runs died.
    fn every_epoch(
        builder: &dyn TopologyBuilder,
        reconfigure: &[bool],
        patterns: &[TrafficPattern],
        mut check: impl FnMut(&LifetimeSim),
    ) -> usize {
        let network = scattered();
        let mut runs_with_deaths = 0;
        for &pattern in patterns {
            for &reconfigure in reconfigure {
                for basis in [PowerBasis::Geometric, PowerBasis::Measured] {
                    let mut config = LifetimeConfig {
                        initial_energy: 150_000.0,
                        packets_per_epoch: 20,
                        pattern,
                        max_epochs: 3_000,
                        reconfigure,
                        ..LifetimeConfig::paper_default()
                    };
                    config.energy.power_basis = basis;
                    let mut sim = LifetimeSim::with_builder(network.clone(), builder, config, 3);
                    check(&sim);
                    while sim.step() {
                        check(&sim);
                    }
                    check(&sim);
                    runs_with_deaths += usize::from(sim.first_death.is_some());
                }
            }
        }
        runs_with_deaths
    }

    /// Selective invalidation and on-demand growth ≡ a fresh full tree:
    /// after every epoch, each cached routing tree, partial or complete,
    /// grown to the end on the current rows equals a fresh tree over them
    /// (parents and `dist` bits), and each priced row, radius and the
    /// alive-ID cache equal a fresh pricing of the current topology. Runs
    /// under uniform, convergecast and hotspot traffic, and counts the
    /// partial trees kept through a death epoch and the trees resumed in
    /// a later epoch, so both paths are known to be exercised.
    #[test]
    fn cached_routing_state_equals_a_fresh_computation_every_epoch() {
        let bits = |row: &[PricedArc]| -> Vec<(NodeId, u64, u64, u64)> {
            row.iter()
                .map(|a| {
                    let tx = a.tx.linear().to_bits();
                    (a.to, tx, a.weight.to_bits(), a.attempts.to_bits())
                })
                .collect()
        };
        let dist_bits = |t: &SpTree| t.dist().iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        let settled = |t: &SpTree, n: usize| {
            (0..n as u32)
                .filter(|&v| t.is_settled(NodeId::new(v)))
                .count()
        };
        let patterns = [
            TrafficPattern::Uniform,
            TrafficPattern::Convergecast {
                sink: NodeId::new(0),
            },
            TrafficPattern::Hotspot {
                hotspot: NodeId::new(0),
                bias: 0.5,
            },
        ];
        let mut scratch = DijkstraScratch::default();
        let mut fresh_row = Vec::new();
        let (mut trees, mut kept_through_deaths) = (0usize, 0usize);
        let (mut partial_kept_through_deaths, mut resumed) = (0usize, 0usize);
        for builder in builders() {
            let mut alive_before = u32::MAX;
            // Each source's settled count at the previous check, when it
            // had a tree then.
            let mut settled_before: Vec<Option<usize>> = Vec::new();
            let runs = every_epoch(builder.as_ref(), &[true, false], &patterns, |sim| {
                let label = builder.label();
                let layout = sim.network.layout();
                let n = layout.len();
                let alive: Vec<NodeId> =
                    layout.node_ids().filter(|u| sim.alive[u.index()]).collect();
                assert_eq!(sim.alive_ids, alive, "{label}: alive ids");
                for u in layout.node_ids() {
                    let radius = sim.price_node(u, &mut fresh_row);
                    let (i, epoch) = (u.index(), sim.epoch);
                    assert_eq!(
                        bits(&sim.edge_costs[i]),
                        bits(&fresh_row),
                        "{label}: row of {u} at epoch {epoch}"
                    );
                    assert_eq!(
                        sim.radius_power[i].linear().to_bits(),
                        radius.linear().to_bits(),
                        "{label}: radius of {u} at epoch {epoch}"
                    );
                }
                // A fresh run starts with no trees and no deaths.
                let died = sim.epoch > 0 && sim.alive_count < alive_before;
                alive_before = sim.alive_count;
                if sim.epoch == 0 {
                    settled_before = vec![None; n];
                }
                for (s, cached) in sim.routes.trees.iter().enumerate() {
                    let Some(cached) = cached else {
                        settled_before[s] = None;
                        continue;
                    };
                    let source = NodeId::new(s as u32);
                    let fresh = shortest_path_tree(Rows(&sim.edge_costs), source, &mut scratch);
                    let mut grown = cached.clone();
                    grown.grow_to_end(Rows(&sim.edge_costs), &mut scratch);
                    assert_eq!(
                        grown.parents(),
                        fresh.parents(),
                        "{label}: tree of {source}"
                    );
                    assert_eq!(
                        dist_bits(&grown),
                        dist_bits(&fresh),
                        "{label}: tree of {source}"
                    );
                    trees += 1;
                    kept_through_deaths += usize::from(died);
                    partial_kept_through_deaths += usize::from(died && !cached.is_complete());
                    // A tree held before and after an epoch is the same
                    // one: the epoch only starts trees that are missing,
                    // and drops come after its packets.
                    let now = settled(cached, n);
                    resumed += usize::from(settled_before[s].is_some_and(|before| before < now));
                    settled_before[s] = Some(now);
                }
            });
            assert_eq!(runs, 12, "{}: every run must see deaths", builder.label());
        }
        assert!(
            kept_through_deaths > 1000 && partial_kept_through_deaths > 0 && resumed > 0,
            "of {trees} checked trees, {kept_through_deaths} survived a death epoch \
             ({partial_kept_through_deaths} of them partial) and {resumed} were resumed"
        );
    }

    /// Without reconfiguration the topology only decays: at every epoch
    /// it is the builder's initial topology with the dead nodes' edges
    /// stripped.
    #[test]
    fn decay_strips_the_dead_from_the_initial_topology() {
        let network = scattered();
        for builder in builders() {
            // One initial topology per pricing basis.
            let mut initial: [Option<UndirectedGraph>; 2] = [None, None];
            let runs = every_epoch(
                builder.as_ref(),
                &[false],
                &[TrafficPattern::Uniform],
                |sim| {
                    let basis = sim.config.energy.power_basis;
                    let mut expected = initial[usize::from(basis == PowerBasis::Measured)]
                        .get_or_insert_with(|| builder.build(&network, basis))
                        .clone();
                    for u in network.layout().node_ids() {
                        if !sim.alive[u.index()] {
                            let neighbors: Vec<NodeId> = expected.neighbors(u).collect();
                            for v in neighbors {
                                expected.remove_edge(u, v);
                            }
                        }
                    }
                    assert_eq!(
                        sim.topology(),
                        &expected,
                        "{} on {basis:?} at epoch {}",
                        builder.label(),
                        sim.epoch
                    );
                },
            );
            assert_eq!(runs, 2, "{}: every run must see deaths", builder.label());
        }
    }
}
