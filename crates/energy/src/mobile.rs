//! The RandomWaypoint *lifetime* scenario: mobility and energy composed
//! in one workload over one incrementally maintained topology.
//!
//! The static lifetime engine ([`crate::LifetimeSim`]) drains batteries
//! over a fixed layout; the churn suite (`cbtc-workloads`) moves nodes
//! but never prices their energy. This module closes the gap the §4
//! event model leaves open: every epoch, nodes roam under
//! [`RandomWaypoint`], pay idle plus maintenance-beaconing energy at the
//! broadcast radius their *current* cone topology demands, and the
//! resulting `Move` and `Death` events flow through **one**
//! [`DeltaTopology`] tracker as a single batch — the engine absorbs
//! mobility and battery exhaustion exactly the way §4's `aChange` and
//! `leave` rules interleave in the field.
//!
//! The maintained graph stays bit-identical to a from-scratch
//! `CBTC(α)` construction over the live nodes at their current
//! positions ([`MobileLifetimeSim::matches_scratch`], replayed by the
//! in-module tests), and with a [`MetricsRegistry`] installed the
//! scenario's events land in the same `reconfig.*` series every other
//! workload reports through.

use cbtc_core::reconfig::{DeltaTopology, GeometricMetric, NodeEvent};
use cbtc_core::{run_centralized_masked, CbtcConfig, Network};
use cbtc_geom::Alpha;
use cbtc_graph::traversal::alive_connected;
use cbtc_graph::{Layout, NodeId};
use cbtc_metrics::MetricsRegistry;
use cbtc_radio::{PathLoss, PowerLaw};
use cbtc_workloads::{RandomPlacement, RandomWaypoint};
use serde::{Deserialize, Serialize};

use crate::{Battery, EnergyModel};

/// Parameters of a mobile lifetime run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MobileLifetimeConfig {
    /// Nodes roaming the field.
    pub nodes: usize,
    /// Field width.
    pub width: f64,
    /// Field height.
    pub height: f64,
    /// Minimum waypoint speed (distance units per epoch of motion).
    pub speed_min: f64,
    /// Maximum waypoint speed.
    pub speed_max: f64,
    /// Pause at each waypoint.
    pub pause: f64,
    /// Motion time units advanced per epoch.
    pub mobility_dt: f64,
    /// The maintained cone topology.
    pub cbtc: CbtcConfig,
    /// Initial battery capacity of every node.
    pub initial_energy: f64,
    /// The radio energy price list (only `idle_per_epoch` and
    /// `maintenance_duty` apply — this scenario carries no traffic).
    pub energy: EnergyModel,
    /// Hard cap on simulated epochs.
    pub max_epochs: u32,
}

impl MobileLifetimeConfig {
    /// A compact scenario for tests and doc examples: 30 nodes on a
    /// 1 km² field under the paper's radio, batteries sized so the
    /// whole fleet drains within a few hundred epochs.
    pub fn smoke() -> Self {
        MobileLifetimeConfig {
            nodes: 30,
            width: 1_000.0,
            height: 1_000.0,
            speed_min: 5.0,
            speed_max: 15.0,
            pause: 0.0,
            mobility_dt: 5.0,
            cbtc: CbtcConfig::new(Alpha::FIVE_PI_SIXTHS),
            initial_energy: 120_000.0,
            energy: EnergyModel::paper_default(),
            max_epochs: 400,
        }
    }
}

/// The outcome of a full mobile lifetime run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MobileLifetimeReport {
    /// Epochs actually simulated.
    pub epochs_run: u32,
    /// Epoch of the first battery death, if any.
    pub first_death: Option<u32>,
    /// Epoch at which the maintained topology first failed to connect
    /// the survivors (or fewer than two remained), if it happened.
    pub partition: Option<u32>,
    /// `Move` events absorbed by the tracker.
    pub moves: u64,
    /// `Death` events absorbed by the tracker.
    pub deaths: u64,
    /// Alive-node count after each epoch.
    pub alive_curve: Vec<u32>,
    /// Edges of the final maintained topology.
    pub final_edges: u64,
}

/// A deterministic mobility-plus-battery simulation whose topology is
/// maintained event-granularly by one [`DeltaTopology`] engine.
///
/// # Example
///
/// ```
/// use cbtc_energy::{MobileLifetimeConfig, MobileLifetimeSim};
///
/// let mut sim = MobileLifetimeSim::new(MobileLifetimeConfig::smoke(), 7);
/// let report = sim.run();
/// assert!(report.moves > 0 && report.deaths > 0);
/// ```
#[derive(Debug, Clone)]
pub struct MobileLifetimeSim {
    config: MobileLifetimeConfig,
    model: PowerLaw,
    /// The one tracker both event kinds flow through.
    topo: DeltaTopology<GeometricMetric>,
    mobility: RandomWaypoint,
    /// Roaming positions for every node (dead ones keep drifting but
    /// emit nothing — their radios are off).
    layout: Layout,
    batteries: Vec<Battery>,
    alive: Vec<bool>,
    alive_count: u32,
    /// Scratch batch, reused across epochs.
    events: Vec<NodeEvent>,

    epoch: u32,
    first_death: Option<u32>,
    partition: Option<u32>,
    moves: u64,
    deaths: u64,
    alive_curve: Vec<u32>,
}

impl MobileLifetimeSim {
    /// Places `config.nodes` uniformly (seed-deterministic), builds the
    /// initial `CBTC(α)` topology, and charges every battery.
    pub fn new(config: MobileLifetimeConfig, seed: u64) -> Self {
        let model = PowerLaw::paper_default();
        let layout =
            RandomPlacement::new(config.nodes, config.width, config.height, model.max_range())
                .generate_layout(seed);
        let topo = DeltaTopology::new(
            layout.clone(),
            vec![true; config.nodes],
            model.max_range(),
            config.cbtc,
            false,
            GeometricMetric,
        );
        let mobility = RandomWaypoint::new(
            config.width,
            config.height,
            config.speed_min,
            config.speed_max,
            config.pause,
            config.nodes,
            seed ^ 0x5EED_CAFE,
        );
        let mut sim = MobileLifetimeSim {
            model,
            topo,
            mobility,
            layout,
            batteries: vec![Battery::new(config.initial_energy); config.nodes],
            alive: vec![true; config.nodes],
            alive_count: config.nodes as u32,
            events: Vec::new(),
            epoch: 0,
            first_death: None,
            partition: None,
            moves: 0,
            deaths: 0,
            alive_curve: Vec::new(),
            config,
        };
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

    /// The maintained topology (dead nodes isolated).
    pub fn topology(&self) -> &cbtc_graph::UndirectedGraph {
        self.topo.graph()
    }

    /// Installs metrics on the tracker, so every epoch's batch lands in
    /// the same `reconfig.*` series (per-kind latency, event counts,
    /// replay-vs-grid-scan split) the churn and lifetime workloads
    /// report through. Purely observational — a metered run is
    /// bit-identical to an unmetered one.
    pub fn set_metrics(&mut self, registry: &MetricsRegistry) {
        self.topo.set_metrics(registry);
    }

    /// Whether the maintained graph is bit-identical to a from-scratch
    /// `CBTC(α)` construction over the live nodes at their current
    /// positions — the §4 invariant this scenario exists to exercise
    /// under composed mobility + energy churn.
    pub fn matches_scratch(&self) -> bool {
        let network = Network::new(self.topo.layout().clone(), self.model);
        let scratch = run_centralized_masked(&network, &self.config.cbtc, self.topo.active())
            .into_final_graph();
        *self.topo.graph() == scratch
    }

    /// Whether the run is over (battery exhaustion or the epoch cap).
    pub fn finished(&self) -> bool {
        self.alive_count == 0 || self.epoch >= self.config.max_epochs
    }

    /// Simulates one epoch: drain standby energy, collect battery
    /// deaths, advance mobility, and absorb the epoch's `Move` + `Death`
    /// events as one tracker batch. Returns `false` once the run is
    /// over.
    pub fn step(&mut self) -> bool {
        if self.finished() {
            return false;
        }
        let energy = self.config.energy;

        // 1. Standby drains at the radius the *current* maintained
        //    topology demands (max power when isolated), and the deaths
        //    they cause. Reads pre-move state: the engine's layout and
        //    graph are consistent here.
        let mut newly_dead: Vec<NodeId> = Vec::new();
        for u in 0..self.batteries.len() {
            if !self.alive[u] {
                continue;
            }
            let id = NodeId::new(u as u32);
            let layout = self.topo.layout();
            let farthest = self
                .topo
                .graph()
                .neighbors(id)
                .filter(|v| self.alive[v.index()])
                .map(|v| layout.distance(id, v))
                .fold(None, |a: Option<f64>, d| Some(a.map_or(d, |a| a.max(d))));
            let radius = farthest.map_or(self.model.max_power(), |r| self.model.required_power(r));
            self.batteries[u]
                .drain(energy.idle_per_epoch + energy.maintenance_duty * radius.linear());
            if !self.batteries[u].is_alive() {
                newly_dead.push(id);
            }
        }

        // 2. Mobility: everyone drifts; only live radios announce.
        self.mobility
            .advance(&mut self.layout, self.config.mobility_dt);
        self.epoch += 1;

        // 3. One batch through one tracker: survivors' position changes
        //    (§4 aChange) then this epoch's battery deaths (§4 leave).
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        for u in 0..self.alive.len() {
            let id = NodeId::new(u as u32);
            if self.alive[u] && !newly_dead.contains(&id) {
                let pos = self.layout.position(id);
                if pos != self.topo.layout().position(id) {
                    events.push(NodeEvent::Move(id, pos));
                }
            }
        }
        self.moves += events.len() as u64;
        for &d in &newly_dead {
            events.push(NodeEvent::Death(d));
            self.alive[d.index()] = false;
        }
        self.deaths += newly_dead.len() as u64;
        self.alive_count -= newly_dead.len() as u32;
        if !newly_dead.is_empty() && self.first_death.is_none() {
            self.first_death = Some(self.epoch);
        }
        self.topo.apply(&events);
        self.events = events;

        self.check_partition();
        self.alive_curve.push(self.alive_count);
        !self.finished()
    }

    /// Runs to completion and summarizes.
    pub fn run(&mut self) -> MobileLifetimeReport {
        while self.step() {}
        MobileLifetimeReport {
            epochs_run: self.epoch,
            first_death: self.first_death,
            partition: self.partition,
            moves: self.moves,
            deaths: self.deaths,
            alive_curve: self.alive_curve.clone(),
            final_edges: self.topo.graph().edge_count() as u64,
        }
    }

    /// Records the first epoch at which the survivors stopped being one
    /// connected component (or shrank below two nodes). Unlike the
    /// static engine, mobility can both break and *heal* connectivity;
    /// the milestone keeps the static semantics (first failure).
    fn check_partition(&mut self) {
        if self.partition.is_some() {
            return;
        }
        if !alive_connected(self.topo.graph(), &self.alive) {
            self.partition = Some(self.epoch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maintained_topology_tracks_scratch_construction() {
        let mut sim = MobileLifetimeSim::new(MobileLifetimeConfig::smoke(), 11);
        // Check the invariant mid-flight (mixed move+death batches) and
        // at the end, not only after the fleet is gone.
        for _ in 0..25 {
            if !sim.step() {
                break;
            }
        }
        assert!(sim.matches_scratch(), "mid-run drift from scratch build");
        let report = sim.run();
        assert!(sim.matches_scratch(), "final drift from scratch build");
        assert!(report.moves > 0, "nodes must move");
        assert!(report.deaths > 0, "batteries must die");
        assert!(report.first_death.is_some());
        assert_eq!(report.epochs_run as usize, report.alive_curve.len());
    }

    #[test]
    fn metrics_count_moves_and_deaths_without_perturbing() {
        let plain = MobileLifetimeSim::new(MobileLifetimeConfig::smoke(), 3).run();

        let registry = MetricsRegistry::enabled();
        let mut sim = MobileLifetimeSim::new(MobileLifetimeConfig::smoke(), 3);
        sim.set_metrics(&registry);
        let report = sim.run();
        assert_eq!(report, plain, "metered run must be bit-identical");

        let snap = registry.snapshot();
        assert_eq!(snap.counter("reconfig.events.move"), Some(report.moves));
        assert_eq!(snap.counter("reconfig.events.death"), Some(report.deaths));
        assert_eq!(
            snap.counter("reconfig.batches"),
            Some(u64::from(report.epochs_run))
        );
        // Epochs mixing survivor moves with deaths land in the mixed
        // latency series.
        assert!(
            snap.histogram("reconfig.nanos.mixed")
                .map_or(0, |h| h.count)
                > 0
        );
    }
}
