//! The metric-generic incremental reconfiguration engine.
//!
//! The paper's §4 protocol repairs the topology *locally* after a join,
//! leave, or angle change; this module is the centralized mirror of that
//! locality. [`DeltaTopology`] maintains a full `CBTC(α)` construction —
//! per-node views, the discovery relation, the pre-pairwise graph and the
//! optimized final graph — under a stream of [`NodeEvent`]s, re-growing
//! only the nodes an event can actually reach and emitting the exact
//! edge delta. It is parameterized over a [`LinkMetric`], so the same
//! maintenance algorithm serves the ideal radio ([`GeometricMetric`])
//! and the stochastic channel of [`crate::phy`] (effective distances
//! `d·g^(−1/n)` via [`crate::phy::PhyChannel`]).
//!
//! ## Paper map (§4 reconfiguration rules → code)
//!
//! | §4 rule | here |
//! |---------|------|
//! | `leave_u(v)`: re-run growth if dropping `v` opens an α-gap | [`NodeEvent::Death`] → exactly the nodes whose discovery prefix contained the deceased re-grow ([`DeltaTopology::apply`]) |
//! | `join_u(v)`: add `v`, then shed | [`NodeEvent::Join`] → nodes whose grow radius reaches the newcomer re-grow; shrink-back re-runs per re-grown view |
//! | `aChange_u(v)` under mobility | [`NodeEvent::Move`] = leave at the old position + join at the new one, fused |
//! | Theorem 4.1 (result equals a full re-run) | the maintained graph is **edge-for-edge identical** to a from-scratch masked run; property-tested for every event kind on both metrics |
//!
//! ## Affected sets
//!
//! A node's view is a function of the *candidate set* it can reach, so an
//! event at `x` changes `u`'s view iff it changes `u`'s discovery prefix:
//!
//! * a **death** of `x` affects exactly the nodes whose prefix contained
//!   `x` — the reverse discovery relation, maintained incrementally;
//! * a **join** at position `p` affects exactly the nodes whose grow
//!   radius covers the newcomer's cost (`cost(u→x) ≤ rad⁻_u`, where
//!   boundary nodes have `rad⁻_u = R`);
//! * a **move** is both rules at once.
//!
//! Everything else — every view, every edge between unaffected survivors
//! — is provably unchanged and never touched. Pairwise-removal state is
//! refreshed only at nodes whose pre-pairwise adjacency changed, plus
//! (under moves) nodes adjacent to a mover, whose edge *lengths* changed.

use std::collections::BTreeSet;
use std::time::Instant;

use cbtc_geom::{gap::FlatGapTracker, Alpha, Point2};
use cbtc_graph::{Layout, NodeId, SpatialGrid, UndirectedGraph};
use cbtc_metrics::{Counter, Histogram, MetricsRegistry};
use cbtc_trace::{TraceEvent, TraceHandle};

use crate::centralized::{
    construction_grid, dead_view, grow_node_metric_scratch, grow_views, pairwise_step, GrowScratch,
};
use crate::opt::{
    shrink_back_view, shrink_back_views, PairwisePolicy, PairwiseScratch, PairwiseState,
};
use crate::parallel::par_map_with;
use crate::view::{graph_from_views, reverse_discoveries, Discovery, NodeView};
use crate::CbtcConfig;

#[cfg(test)]
use super::metric::GeometricMetric;
use super::metric::LinkMetric;

/// One membership or geometry change fed to [`DeltaTopology::apply`].
///
/// Node IDs index a fixed slot space chosen at construction time (a
/// joining node occupies a pre-allocated inactive slot, mirroring how
/// the churn suite pre-allocates late joiners).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeEvent {
    /// The node leaves (crash-stop / battery death). Must be active.
    Death(NodeId),
    /// The node joins at the given position. Must be inactive.
    Join(NodeId, Point2),
    /// The node moves to the given position. Must be active.
    Move(NodeId, Point2),
}

impl NodeEvent {
    /// The node the event concerns.
    pub fn node(&self) -> NodeId {
        match *self {
            NodeEvent::Death(u) | NodeEvent::Join(u, _) | NodeEvent::Move(u, _) => u,
        }
    }
}

/// The edges by which one [`DeltaTopology::apply`] changed the final
/// graph — what routing caches need to decide which trees survive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopologyDelta {
    /// Edges present before the events and absent after, as `(min, max)`.
    pub removed: Vec<(NodeId, NodeId)>,
    /// Edges absent before the events and present after, as `(min, max)`.
    pub added: Vec<(NodeId, NodeId)>,
}

impl TopologyDelta {
    /// Whether the events changed no edge at all.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// The exact edge difference between two graphs on the same node set, as
/// canonical sorted `(min, max)` pairs — the delta a consumer that only
/// sees graph snapshots (e.g. the churn suite's maintained topology) can
/// still drive routing-tree invalidation with.
///
/// # Panics
///
/// Panics if the node counts differ.
pub fn graph_delta(before: &UndirectedGraph, after: &UndirectedGraph) -> TopologyDelta {
    assert_eq!(
        before.node_count(),
        after.node_count(),
        "graph delta needs a shared node set"
    );
    let mut delta = TopologyDelta::default();
    for u in before.node_ids() {
        let mut old = before.neighbors(u).filter(|v| *v > u).peekable();
        let mut new = after.neighbors(u).filter(|v| *v > u).peekable();
        loop {
            match (old.peek().copied(), new.peek().copied()) {
                (None, None) => break,
                (Some(a), Some(b)) if a == b => {
                    old.next();
                    new.next();
                }
                (Some(a), b) if b.is_none_or(|b| a < b) => {
                    delta.removed.push((u, a));
                    old.next();
                }
                (_, Some(b)) => {
                    delta.added.push((u, b));
                    new.next();
                }
                _ => unreachable!("peeked arms are exhaustive"),
            }
        }
    }
    delta
}

/// How the final graph is derived from the maintained pre-pairwise graph.
#[derive(Debug, Clone)]
enum FinalStage {
    /// No pairwise removal: the final graph *is* the pre-pairwise graph.
    Closure,
    /// §3.3 pairwise removal, re-judged locally at dirty nodes (sound on
    /// the unit disk, where Theorem 3.6 needs no guard): the
    /// [`PairwisePolicy::PowerReducing`] drop sets over the pre-pairwise
    /// graph, each a function of one node's adjacency plus the (current)
    /// geometry measured through the metric — exactly why only the nodes
    /// whose neighborhoods or incident lengths changed are re-derived.
    Pairwise(PairwiseState),
    /// §3.3 pairwise removal behind the union-find connectivity guard of
    /// a guarded [`crate::construct`]: the guard's restorations are
    /// global, so the stage reruns the engine's pairwise step on the
    /// (incrementally maintained) pre-pairwise graph and diffs — still
    /// far cheaper than re-growing every node.
    Guarded,
}

/// A full `CBTC(α)` construction over the active subset of a fixed node
/// slot space, maintained incrementally under deaths, joins and moves —
/// the centralized counterpart of the paper's §4 reconfiguration,
/// generic over the [`LinkMetric`] the construction measures links with.
///
/// The maintained [`DeltaTopology::graph`] is edge-for-edge identical to
/// a from-scratch masked [`crate::construct`] over the current membership
/// and geometry with the same metric and `guard`
/// ([`crate::run_centralized_masked`] on the geometric metric); the
/// workspace property tests pin this down for every event kind on both
/// metrics.
///
/// # Example
///
/// ```
/// use cbtc_core::reconfig::{DeltaTopology, GeometricMetric, NodeEvent};
/// use cbtc_core::CbtcConfig;
/// use cbtc_geom::{Alpha, Point2};
/// use cbtc_graph::{Layout, NodeId};
///
/// let layout = Layout::new(vec![
///     Point2::new(0.0, 0.0),
///     Point2::new(300.0, 0.0),
///     Point2::new(600.0, 0.0),
/// ]);
/// let config = CbtcConfig::new(Alpha::FIVE_PI_SIXTHS);
/// let mut topo = DeltaTopology::new(
///     layout,
///     vec![true, true, true],
///     500.0,
///     config,
///     false,
///     GeometricMetric,
/// );
/// assert_eq!(topo.graph().edge_count(), 2);
///
/// // The middle node dies: both its edges go, the ends are out of range.
/// let delta = topo.apply(&[NodeEvent::Death(NodeId::new(1))]);
/// assert_eq!(delta.removed.len(), 2);
/// assert_eq!(topo.graph().edge_count(), 0);
///
/// // It comes back as a join, halfway: the chain re-forms.
/// let delta = topo.apply(&[NodeEvent::Join(NodeId::new(1), Point2::new(250.0, 0.0))]);
/// assert_eq!(delta.added.len(), 2);
/// assert_eq!(topo.graph().edge_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DeltaTopology<M: LinkMetric> {
    metric: M,
    config: CbtcConfig,
    max_range: f64,
    /// Positions of every slot (joins/moves update it in place).
    layout: Layout,
    active: Vec<bool>,
    /// Index over the *active* slots only.
    grid: SpatialGrid,
    /// Raw growing-phase views over the active nodes; inactive slots
    /// hold [`dead_view`].
    basic: Vec<NodeView>,
    /// Post-shrink-back views — the views the graph stages are derived
    /// from. **Empty when op1 is off**: the effective views are then the
    /// basic views themselves, and maintaining a second copy would be
    /// pure duplication (every reader goes through the shrink-aware
    /// selectors below).
    effective: Vec<NodeView>,
    /// Reverse discovery over the *basic* views: `discovered_by_basic[x]`
    /// holds every `u` whose growing-phase prefix contains `x`, sorted.
    /// This is the exact death/move affected set.
    discovered_by_basic: Vec<Vec<NodeId>>,
    /// Reverse discovery over the *effective* views — what edge
    /// reconstruction at an affected node consults. Empty when op1 is
    /// off (aliasing `discovered_by_basic`).
    discovered_by: Vec<Vec<NodeId>>,
    /// The symmetric closure/core before pairwise removal.
    pre_pairwise: UndirectedGraph,
    stage: FinalStage,
    /// The final graph after all configured optimizations.
    graph: UndirectedGraph,
    /// Nodes re-grown by the most recent [`DeltaTopology::apply`].
    last_regrown: usize,
    /// Of those, how many needed a spatial-grid scan (the §4 "re-run
    /// the growing phase" case: an α-gap opened, or the node itself
    /// moved/joined); the rest replayed from their cached prefix.
    last_grid_scans: usize,
    /// Observability hooks: when installed, every [`DeltaTopology::apply`]
    /// records a [`TraceEvent::Reconfig`] sample. Absent by default —
    /// the untraced path pays one `Option` check per batch.
    trace: Option<TraceHandle>,
    /// The caller-maintained clock stamped onto recorded samples
    /// (`DeltaTopology` itself has no notion of time).
    trace_clock: f64,
    /// Pre-resolved metrics instruments ([`DeltaTopology::set_metrics`]);
    /// `None` (the default, and for a disabled registry) costs one
    /// `Option` check per batch.
    metrics: Option<ReconfigMetrics>,
}

/// The engine's instruments, resolved once at installation so the apply
/// path never touches the registry's name map.
#[derive(Debug, Clone)]
struct ReconfigMetrics {
    /// Per-batch wall-clock latency, split by the batch's event kind.
    nanos_death: Histogram,
    nanos_join: Histogram,
    nanos_move: Histogram,
    nanos_mixed: Histogram,
    /// Affected-set size (nodes re-grown) per batch.
    affected: Histogram,
    batches: Counter,
    events_death: Counter,
    events_join: Counter,
    events_move: Counter,
    /// Re-grown nodes served from their cached discovery prefix (§4
    /// replay) vs full spatial-grid scans.
    replays: Counter,
    grid_scans: Counter,
    edges_added: Counter,
    edges_removed: Counter,
}

impl ReconfigMetrics {
    fn resolve(registry: &MetricsRegistry) -> Self {
        ReconfigMetrics {
            nanos_death: registry.histogram("reconfig.nanos.death"),
            nanos_join: registry.histogram("reconfig.nanos.join"),
            nanos_move: registry.histogram("reconfig.nanos.move"),
            nanos_mixed: registry.histogram("reconfig.nanos.mixed"),
            affected: registry.histogram("reconfig.affected"),
            batches: registry.counter("reconfig.batches"),
            events_death: registry.counter("reconfig.events.death"),
            events_join: registry.counter("reconfig.events.join"),
            events_move: registry.counter("reconfig.events.move"),
            replays: registry.counter("reconfig.replays"),
            grid_scans: registry.counter("reconfig.grid_scans"),
            edges_added: registry.counter("reconfig.edges_added"),
            edges_removed: registry.counter("reconfig.edges_removed"),
        }
    }

    /// The latency histogram for a batch: homogeneous batches go to
    /// their kind's series, anything else to `mixed`.
    fn nanos_for(&self, events: &[NodeEvent]) -> &Histogram {
        let mut kinds = events.iter().map(|e| match e {
            NodeEvent::Death(_) => 0u8,
            NodeEvent::Join(..) => 1,
            NodeEvent::Move(..) => 2,
        });
        let Some(first) = kinds.next() else {
            return &self.nanos_mixed;
        };
        if kinds.all(|k| k == first) {
            match first {
                0 => &self.nanos_death,
                1 => &self.nanos_join,
                _ => &self.nanos_move,
            }
        } else {
            &self.nanos_mixed
        }
    }
}

impl<M: LinkMetric> DeltaTopology<M> {
    /// Builds the initial construction over the active subset of
    /// `layout`. `guard` enables the pairwise connectivity guard (use it
    /// whenever the metric is not a unit-disk geometric metric — Theorem
    /// 3.6's scaffolding does not survive off the unit disk; it is a
    /// provable no-op on the geometric metric).
    ///
    /// # Panics
    ///
    /// Panics if `active.len()` differs from the layout size.
    pub fn new(
        layout: Layout,
        active: Vec<bool>,
        max_range: f64,
        config: CbtcConfig,
        guard: bool,
        metric: M,
    ) -> Self {
        assert_eq!(active.len(), layout.len(), "active mask size mismatch");
        let grid = construction_grid(&layout, max_range, Some(&active));
        let basic = grow_views(
            &layout,
            &grid,
            &metric,
            config.alpha(),
            max_range,
            Some(&active),
        );
        let effective: Vec<NodeView> = if config.shrink_back() {
            shrink_back_views(&basic, config.alpha())
        } else {
            Vec::new()
        };
        let reverse_basic = reverse_discoveries(&basic);
        let reverse_effective = config
            .shrink_back()
            .then(|| reverse_discoveries(&effective));
        let pre_pairwise = match &reverse_effective {
            Some(reverse) => graph_from_views(&effective, reverse, config.asymmetric_removal()),
            None => graph_from_views(&basic, &reverse_basic, config.asymmetric_removal()),
        };
        let discovered_by_basic = reverse_basic.into_lists();
        let discovered_by = reverse_effective.map_or_else(Vec::new, |r| r.into_lists());

        let (stage, graph) = if !config.pairwise_removal() {
            (FinalStage::Closure, pre_pairwise.clone())
        } else if guard {
            let (outcome, _) = pairwise_step(&pre_pairwise, &layout, &metric, true);
            (FinalStage::Guarded, outcome.graph)
        } else {
            let length = |a: NodeId, b: NodeId| metric.cost(a, b, layout.distance(a, b));
            let state = PairwiseState::over(
                &pre_pairwise,
                &layout,
                &length,
                PairwisePolicy::PowerReducing,
            );
            let graph = state.prune(&pre_pairwise);
            (FinalStage::Pairwise(state), graph)
        };

        DeltaTopology {
            stage,
            graph,
            last_regrown: 0,
            last_grid_scans: 0,
            trace: None,
            trace_clock: 0.0,
            metrics: None,
            metric,
            config,
            max_range,
            layout,
            active,
            grid,
            basic,
            effective,
            discovered_by_basic,
            discovered_by,
            pre_pairwise,
        }
    }

    /// The current topology: edges only between active nodes, inactive
    /// slots isolated, on the full slot space.
    pub fn graph(&self) -> &UndirectedGraph {
        &self.graph
    }

    /// The maintained pre-pairwise graph (the symmetric closure, or core
    /// under op2).
    pub fn pre_pairwise(&self) -> &UndirectedGraph {
        &self.pre_pairwise
    }

    /// The membership mask this construction currently reflects.
    pub fn active(&self) -> &[bool] {
        &self.active
    }

    /// The positions this construction currently reflects.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The position of a slot.
    pub fn position(&self, u: NodeId) -> Point2 {
        self.layout.position(u)
    }

    /// How many nodes the most recent [`DeltaTopology::apply`] re-grew —
    /// the observable cost of an incremental update (a from-scratch run
    /// re-grows every active node).
    pub fn last_regrown(&self) -> usize {
        self.last_regrown
    }

    /// Of [`DeltaTopology::last_regrown`], how many needed a
    /// spatial-grid scan — the §4 "re-run the growing phase" case: the
    /// node itself moved or joined, or a departure opened an α-gap its
    /// cached prefix cannot close. The remainder replayed their new view
    /// from the cached prefix without touching the grid.
    pub fn last_grid_scans(&self) -> usize {
        self.last_grid_scans
    }

    /// Installs observability hooks: every subsequent
    /// [`DeltaTopology::apply`] records a [`TraceEvent::Reconfig`] sample
    /// to `trace`. The hooks only observe already-computed state — a
    /// traced run is bit-identical to an untraced one.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    /// Advances the clock stamped onto recorded [`TraceEvent::Reconfig`]
    /// samples. Call before [`DeltaTopology::apply`] with the driving
    /// engine's current time; a no-op burden-wise when no trace is
    /// installed.
    pub fn set_trace_clock(&mut self, time: f64) {
        self.trace_clock = time;
    }

    /// Installs metrics instruments: every subsequent
    /// [`DeltaTopology::apply`] records per-event-kind latency, the
    /// affected-set size, replay-vs-grid-scan counts and edge churn to
    /// `registry`. A disabled registry installs nothing — the apply path
    /// stays a single `Option` check, and (like traces) an instrumented
    /// run is bit-identical to a bare one: the hooks only observe
    /// already-computed state.
    pub fn set_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = registry
            .is_enabled()
            .then(|| ReconfigMetrics::resolve(registry));
    }

    /// Applies a batch of events and reconfigures incrementally,
    /// returning the final graph's exact edge delta.
    ///
    /// Only nodes whose discovery prefix an event can change re-run
    /// their growth; everyone else's view — and therefore every edge
    /// between unaffected nodes — is provably unchanged and not touched.
    ///
    /// # Panics
    ///
    /// Panics if an event's membership precondition fails (dead node
    /// dying again, active node joining, inactive node moving) or if two
    /// events in the batch concern the same node.
    pub fn apply(&mut self, events: &[NodeEvent]) -> TopologyDelta {
        // Metrics time the batch with their own clock so per-event-kind
        // latency works with or without a (timing-enabled) trace.
        let metrics_start = self.metrics.as_ref().map(|_| Instant::now());
        let delta = match self.trace.clone() {
            None => self.apply_inner(events),
            Some(trace) => {
                let (delta, nanos) = trace.timed(|| self.apply_inner(events));
                trace.record(TraceEvent::Reconfig {
                    time: self.trace_clock,
                    events: events.len() as u32,
                    regrown: self.last_regrown as u32,
                    grid_scans: self.last_grid_scans as u32,
                    added: delta.added.len() as u32,
                    removed: delta.removed.len() as u32,
                    nanos,
                });
                delta
            }
        };
        if let (Some(start), Some(m)) = (metrics_start, &self.metrics) {
            let nanos = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            m.nanos_for(events).record(nanos);
            m.affected.record(self.last_regrown as u64);
            m.batches.inc();
            for event in events {
                match event {
                    NodeEvent::Death(_) => m.events_death.inc(),
                    NodeEvent::Join(..) => m.events_join.inc(),
                    NodeEvent::Move(..) => m.events_move.inc(),
                }
            }
            m.replays
                .add((self.last_regrown - self.last_grid_scans) as u64);
            m.grid_scans.add(self.last_grid_scans as u64);
            m.edges_added.add(delta.added.len() as u64);
            m.edges_removed.add(delta.removed.len() as u64);
        }
        delta
    }

    fn apply_inner(&mut self, events: &[NodeEvent]) -> TopologyDelta {
        // ── A. Classify and validate. ───────────────────────────────
        let mut deaths: Vec<NodeId> = Vec::new();
        let mut joins: Vec<(NodeId, Point2)> = Vec::new();
        let mut moves: Vec<(NodeId, Point2)> = Vec::new();
        for event in events {
            match *event {
                NodeEvent::Death(u) => {
                    assert!(self.active[u.index()], "node {u} is already dead");
                    deaths.push(u);
                }
                NodeEvent::Join(u, p) => {
                    assert!(!self.active[u.index()], "node {u} is already active");
                    joins.push((u, p));
                }
                NodeEvent::Move(u, p) => {
                    assert!(self.active[u.index()], "cannot move inactive node {u}");
                    moves.push((u, p));
                }
            }
        }
        {
            let mut seen: Vec<NodeId> = events.iter().map(NodeEvent::node).collect();
            seen.sort_unstable();
            let before = seen.len();
            seen.dedup();
            assert_eq!(before, seen.len(), "a node may appear in one event only");
        }

        // ── B. Affected nodes of removals: exactly those whose basic
        //       discovery prefix contains the deceased/mover. Each pair
        //       `(observer, departed)` is also a cached-prefix edit. ───
        let mut removal_pairs: Vec<(NodeId, NodeId)> = Vec::new();
        for &d in &deaths {
            for &u in &self.discovered_by_basic[d.index()] {
                removal_pairs.push((u, d));
            }
        }
        for &(m, _) in &moves {
            for &u in &self.discovered_by_basic[m.index()] {
                removal_pairs.push((u, m));
            }
        }

        // ── C. Commit membership and geometry. ──────────────────────
        let mut full_regrow = vec![false; self.layout.len()];
        for &d in &deaths {
            self.grid.remove(d, self.layout.position(d));
            self.active[d.index()] = false;
        }
        for &(m, p) in &moves {
            let from = self.layout.position(m);
            self.grid.update(m, from, p);
            self.layout.set_position(m, p);
            full_regrow[m.index()] = true;
        }
        for &(j, p) in &joins {
            self.layout.set_position(j, p);
            self.grid.insert(j, p);
            self.active[j.index()] = true;
            full_regrow[j.index()] = true;
        }

        // ── D. Affected nodes of insertions: exactly those whose grow
        //       radius covers the newcomer's cost at its new position.
        //       Each pair `(observer, newcomer, cost)` is a cached-
        //       prefix edit. ─────────────────────────────────────────
        let scan_radius = self.max_range * self.metric.reach_boost();
        let mut candidates = Vec::new();
        let mut insertion_pairs: Vec<(NodeId, NodeId, f64)> = Vec::new();
        for &(x, p) in joins.iter().chain(&moves) {
            candidates.clear();
            self.grid.candidates_within(p, scan_radius, &mut candidates);
            for &u in &candidates {
                if u == x {
                    continue;
                }
                let d = self.layout.distance(u, x);
                let cost = self.metric.cost(u, x, d);
                if cost <= self.basic[u.index()].grow_radius {
                    insertion_pairs.push((u, x, cost));
                }
            }
        }
        let mut affected: Vec<NodeId> = removal_pairs
            .iter()
            .map(|&(u, _)| u)
            .chain(insertion_pairs.iter().map(|&(u, _, _)| u))
            .collect();
        for &(m, _) in &moves {
            affected.push(m);
        }
        for &(j, _) in &joins {
            affected.push(j);
        }
        affected.sort_unstable();
        affected.dedup();
        affected.retain(|u| self.active[u.index()]);
        self.last_regrown = affected.len();
        self.last_grid_scans = 0;
        removal_pairs.sort_unstable();
        insertion_pairs.sort_by_key(|&(u, x, _)| (u, x));

        // ── E. Retire the dead nodes' views and reverse entries. ─────
        let shrink = self.config.shrink_back();
        for &d in &deaths {
            for v in &self.basic[d.index()].discoveries {
                remove_sorted(&mut self.discovered_by_basic[v.id.index()], d);
            }
            self.discovered_by_basic[d.index()].clear();
            self.basic[d.index()] = dead_view();
            if shrink {
                for v in &self.effective[d.index()].discoveries {
                    remove_sorted(&mut self.discovered_by[v.id.index()], d);
                }
                self.discovered_by[d.index()].clear();
                self.effective[d.index()] = dead_view();
            }
        }

        // ── F. Recompute the affected views: replay from the cached
        //       prefix when the §4 rules allow it, grid-scan otherwise —
        //       and refresh both reverse relations. A view whose id
        //       sequence is exactly the old one minus the deceased
        //       changes no reverse entry (retirement already erased the
        //       dead) and no edge between survivors, so both updates are
        //       skipped; `patch` keeps only the genuinely edge-relevant
        //       nodes. ────────────────────────────────────────────────
        let mut is_dead = vec![false; self.layout.len()];
        for &d in &deaths {
            is_dead[d.index()] = true;
        }
        let mut patch: Vec<NodeId> = Vec::new();

        // F1: one sequential cursor walk turns the sorted pair lists into
        // per-node slice ranges, so each re-grow job is self-contained.
        let mut jobs: Vec<RegrowJob> = Vec::with_capacity(affected.len());
        let mut removal_cursor = 0usize;
        let mut insertion_cursor = 0usize;
        for &u in &affected {
            while removal_cursor < removal_pairs.len() && removal_pairs[removal_cursor].0 < u {
                removal_cursor += 1;
            }
            let removals_end = removal_pairs[removal_cursor..]
                .iter()
                .take_while(|&&(o, _)| o == u)
                .count()
                + removal_cursor;
            while insertion_cursor < insertion_pairs.len()
                && insertion_pairs[insertion_cursor].0 < u
            {
                insertion_cursor += 1;
            }
            let insertions_end = insertion_pairs[insertion_cursor..]
                .iter()
                .take_while(|&&(o, _, _)| o == u)
                .count()
                + insertion_cursor;
            jobs.push(RegrowJob {
                node: u,
                removals: (removal_cursor, removals_end),
                insertions: (insertion_cursor, insertions_end),
            });
            removal_cursor = removals_end;
            insertion_cursor = insertions_end;
        }

        // F2: fan the re-grows out. Each job reads only pre-F state (the
        // old views, the committed layout/grid/membership and the sorted
        // pair lists), so jobs are independent; per-worker scratch keeps
        // the fan-out allocation-free, exactly like construction. Output
        // order is the affected order whatever the thread count, so the
        // sequential merge below is bit-identical either way. An affected
        // set under 2 × `REGROW_MIN_CHUNK` (every serve-size commit),
        // one core, or an outer fan-out (e.g. a sharded serve's stream
        // threads) re-grows inline with a single scratch.
        let computed: Vec<(NodeView, bool)> = {
            let (basic, layout, grid, metric) =
                (&self.basic, &self.layout, &self.grid, &self.metric);
            let (alpha, max_range) = (self.config.alpha(), self.max_range);
            let (removal_pairs, insertion_pairs, full_regrow) =
                (&removal_pairs, &insertion_pairs, &full_regrow);
            par_map_with(
                &jobs,
                REGROW_MIN_CHUNK,
                || (GrowScratch::new(), FlatGapTracker::new(alpha)),
                move |(scratch, tracker), job| {
                    let u = job.node;
                    let replayed = if full_regrow[u.index()] {
                        None
                    } else {
                        replay_view(
                            &basic[u.index()],
                            layout,
                            metric,
                            alpha,
                            max_range,
                            u,
                            &removal_pairs[job.removals.0..job.removals.1],
                            &insertion_pairs[job.insertions.0..job.insertions.1],
                            tracker,
                        )
                    };
                    match replayed {
                        Some(view) => (view, false),
                        None => (
                            grow_node_metric_scratch(
                                layout, grid, metric, u, alpha, max_range, scratch,
                            ),
                            true,
                        ),
                    }
                },
            )
        };

        // F3: merge in deterministic (affected) node order.
        for (&u, (basic, grid_scanned)) in affected.iter().zip(computed) {
            if grid_scanned {
                self.last_grid_scans += 1;
            }
            let basic_changed = !ids_equal_minus_dead(&self.basic[u.index()], &basic, &is_dead);
            if basic_changed {
                refile(
                    &mut self.discovered_by_basic,
                    u,
                    &self.basic[u.index()],
                    &basic,
                );
            }
            if shrink {
                let effective = shrink_back_view(&basic, self.config.alpha());
                if !ids_equal_minus_dead(&self.effective[u.index()], &effective, &is_dead) {
                    refile(
                        &mut self.discovered_by,
                        u,
                        &self.effective[u.index()],
                        &effective,
                    );
                    patch.push(u);
                }
                self.effective[u.index()] = effective;
            } else if basic_changed {
                patch.push(u);
            }
            self.basic[u.index()] = basic;
        }

        // ── G. Patch the pre-pairwise graph by whole rows: a dead
        //       node's new row is empty, and an edge-relevant re-grown
        //       node's new row is exactly its `connect` set (symmetric
        //       links from its new view plus the reverse relation —
        //       symmetric in `u, v` by construction, so sequential
        //       per-node rebuilds agree and each changed edge is
        //       reported by exactly one endpoint). `rebuild_row` diffs
        //       old against new in one merge pass, so edges a node
        //       keeps cost zero neighbor-row edits, where the previous
        //       remove-all-then-re-add loop paid two binary-search
        //       memmoves per kept edge. Edges between two unaffected
        //       (or affected but edge-neutral) nodes are untouched —
        //       neither endpoint's id set changed. Removals cancelled
        //       by a re-add net out, so the recorded events are the
        //       exact delta. ─────────────────────────────────────────
        let mut pre_removed: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        let mut pre_added: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        let (mut row_removed, mut row_added) = (Vec::new(), Vec::new());
        for &d in &deaths {
            self.pre_pairwise
                .rebuild_row(d, &[], &mut row_removed, &mut row_added);
            for &v in &row_removed {
                pre_removed.insert((d.min(v), d.max(v)));
            }
            debug_assert!(row_added.is_empty());
        }
        let asymmetric = self.config.asymmetric_removal();
        let views: &[NodeView] = if shrink { &self.effective } else { &self.basic };
        let reverse: &[Vec<NodeId>] = if shrink {
            &self.discovered_by
        } else {
            &self.discovered_by_basic
        };
        let mut connect = Vec::new();
        for &u in &patch {
            connect.clear();
            for v in &views[u.index()].discoveries {
                if !asymmetric || views[v.id.index()].discovered(u) {
                    connect.push(v.id);
                }
            }
            for &v in &reverse[u.index()] {
                if !asymmetric || views[u.index()].discovered(v) {
                    connect.push(v);
                }
            }
            connect.sort_unstable();
            connect.dedup();
            self.pre_pairwise
                .rebuild_row(u, &connect, &mut row_removed, &mut row_added);
            for &v in &row_removed {
                let e = (u.min(v), u.max(v));
                if !pre_added.remove(&e) {
                    pre_removed.insert(e);
                }
            }
            for &v in &row_added {
                let e = (u.min(v), u.max(v));
                if !pre_removed.remove(&e) {
                    pre_added.insert(e);
                }
            }
        }

        // ── H. Re-derive the final graph from the delta alone. ───────
        let movers: Vec<NodeId> = moves.iter().map(|&(m, _)| m).collect();
        self.finalize(&movers, pre_removed, pre_added)
    }

    /// The final-stage update: closure verbatim, local pairwise
    /// re-judging, or the guarded recomputation.
    fn finalize(
        &mut self,
        movers: &[NodeId],
        pre_removed: BTreeSet<(NodeId, NodeId)>,
        pre_added: BTreeSet<(NodeId, NodeId)>,
    ) -> TopologyDelta {
        // Field-disjoint borrows: the stage is mutated while the metric,
        // layout and pre-pairwise graph are read.
        let DeltaTopology {
            metric,
            layout,
            pre_pairwise,
            stage,
            graph,
            ..
        } = self;
        match stage {
            FinalStage::Closure => {
                // No op3: the final graph *is* the pre-pairwise graph, so
                // the events apply verbatim.
                for &(u, v) in &pre_removed {
                    graph.remove_edge(u, v);
                }
                for &(u, v) in &pre_added {
                    graph.add_edge(u, v);
                }
                TopologyDelta {
                    removed: pre_removed.into_iter().collect(),
                    added: pre_added.into_iter().collect(),
                }
            }
            FinalStage::Pairwise(pairwise) => {
                // Pairwise decisions are functions of an endpoint's
                // adjacency and its incident lengths: nodes whose
                // pre-pairwise adjacency changed are dirty, and — under
                // moves — so are the movers and their neighbors, whose
                // incident lengths/angles changed under their feet.
                // (Dead endpoints stay dirty: their now-empty adjacency
                // refreshes to nothing and the row rewrite below strips
                // their final-graph edges.)
                let mut dirty: Vec<NodeId> = pre_removed
                    .iter()
                    .chain(&pre_added)
                    .flat_map(|&(u, v)| [u, v])
                    .collect();
                for &m in movers {
                    dirty.push(m);
                    dirty.extend(pre_pairwise.neighbors(m));
                }
                dirty.sort_unstable();
                dirty.dedup();
                let length = |a: NodeId, b: NodeId| metric.cost(a, b, layout.distance(a, b));
                let mut scratch = PairwiseScratch::default();
                for &x in &dirty {
                    pairwise.refresh(pre_pairwise, layout, x, &length, &mut scratch);
                }
                let old_rows: Vec<(NodeId, Vec<NodeId>)> = dirty
                    .iter()
                    .map(|&x| (x, graph.neighbors(x).collect()))
                    .collect();
                for (x, row) in &old_rows {
                    for &v in row {
                        graph.remove_edge(*x, v);
                    }
                }
                for &x in &dirty {
                    let neighbors: Vec<NodeId> = pre_pairwise.neighbors(x).collect();
                    for v in neighbors {
                        if !pairwise.drops(x, v) {
                            graph.add_edge(x, v);
                        }
                    }
                }
                let mut removed: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
                let mut added: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
                for (x, old_row) in &old_rows {
                    for &v in old_row {
                        if !graph.has_edge(*x, v) {
                            removed.insert((*x.min(&v), *x.max(&v)));
                        }
                    }
                    for v in graph.neighbors(*x) {
                        if old_row.binary_search(&v).is_err() {
                            added.insert((*x.min(&v), *x.max(&v)));
                        }
                    }
                }
                TopologyDelta {
                    removed: removed.into_iter().collect(),
                    added: added.into_iter().collect(),
                }
            }
            FinalStage::Guarded => {
                // The guard's restorations depend on global connectivity,
                // so re-derive the optimization tail from the maintained
                // pre-pairwise graph and diff. The expensive part — the
                // growth phase — stayed incremental.
                let (next, _) = pairwise_step(pre_pairwise, layout, metric, true);
                let delta = graph_delta(graph, &next.graph);
                *graph = next.graph;
                delta
            }
        }
    }
}

/// The smallest slice of affected nodes worth handing a re-grow worker:
/// a commit fans its re-grows out only when every worker gets at least
/// this many. A re-grow costs about a microsecond (most replay their
/// cached prefix), a worker spawn about fifty, so a 16-event commit's
/// ~130 re-grows run inline while bursts of a few hundred moves or more
/// (churn's drift, large group commits) fan out.
///
/// `hot_paths`' `delta_apply` group is the sweep behind the value:
/// commits of 16 to 1024 moves on `cbtc serve`'s layout (10k slots, mean
/// max-power degree 18), one thread against uncapped, with this floor
/// lowered to 32 so that every size fans out. The gain is the one-thread
/// median over the two-thread median, one value per run, from six runs
/// in two sittings on a 2-vCPU Linux VM:
///
/// | moves | affected nodes | fan-out gain | runs it won |
/// |------:|---------------:|-------------:|------------:|
/// |    16 |            128 |   0.63–1.14× |      1 of 6 |
/// |    64 |            499 |   0.80–0.93× |      0 of 6 |
/// |   256 |          1,844 |   0.88–1.24× |      2 of 6 |
/// |  1024 |          5,538 |   0.91–1.25× |      3 of 6 |
///
/// Up to ~500 affected nodes the spawn outweighs the work; from ~2,000
/// the fan-out lost ~10 % in one sitting and won up to 25 % in the
/// other, the host's load deciding. The floor sits at 512 per worker,
/// between the two: serve-size commits never pay the spawn, while large
/// bursts keep the parallel path (bit-identical, because
/// [`par_map_with`]'s output order never depends on its thread count).
const REGROW_MIN_CHUNK: usize = 512;

/// One affected node's re-grow work order: its id plus the half-open
/// ranges of the batch's sorted `removal_pairs` / `insertion_pairs`
/// that concern it (precomputed sequentially so workers only index).
struct RegrowJob {
    node: NodeId,
    removals: (usize, usize),
    insertions: (usize, usize),
}

/// The §4 fast path: recomputes `u`'s view *from its cached prefix*
/// instead of a grid scan, applying the given departure and arrival
/// edits. Returns `None` when only a grid scan can answer — a
/// departure opened an α-gap that survives the whole cached prefix,
/// so growth must continue past the cached radius (the paper's
/// "re-run the growing phase" case).
///
/// Sound because a cached non-boundary prefix is *complete* up to
/// its grow radius (discovery proceeds through whole cost groups):
/// departures can only push the stop radius outward, arrivals can
/// only pull it inward, so any stop found within the edited prefix
/// is the true stop, bit-identical to a full re-growth.
///
/// A free function over the engine's immutable pre-merge state (`old`
/// view, layout, metric) rather than a method, so batch apply can fan
/// replays across workers while the engine is merely borrowed.
#[allow(clippy::too_many_arguments)]
fn replay_view<M: LinkMetric>(
    old: &NodeView,
    layout: &Layout,
    metric: &M,
    alpha: Alpha,
    max_range: f64,
    u: NodeId,
    removals: &[(NodeId, NodeId)],
    insertions: &[(NodeId, NodeId, f64)],
    tracker: &mut FlatGapTracker,
) -> Option<NodeView> {
    let mut entries: Vec<Discovery> = old
        .discoveries
        .iter()
        .filter(|d| removals.iter().all(|&(_, x)| x != d.id))
        .copied()
        .collect();
    for &(_, x, cost) in insertions {
        let entry = Discovery {
            id: x,
            distance: cost,
            direction: metric.direction(layout, u, x),
        };
        let at = entries
            .binary_search_by(|e| {
                e.distance
                    .total_cmp(&entry.distance)
                    .then(e.id.cmp(&entry.id))
            })
            .unwrap_err();
        entries.insert(at, entry);
    }

    // Replay continuous growth over the edited prefix: whole cost
    // groups at a time, α-gap after each — the in-memory mirror of
    // the grid walk, bit-identical by the [`FlatGapTracker`]
    // equivalence. The worker's tracker is re-armed and reused so a
    // burst of replays allocates its direction buffer once.
    tracker.reset(alpha);
    let mut idx = 0;
    while idx < entries.len() {
        let group = entries[idx].distance;
        let mut end = idx;
        while end < entries.len() && entries[end].distance == group {
            tracker.insert(entries[end].direction);
            end += 1;
        }
        if !tracker.has_open_gap() {
            entries.truncate(end);
            return Some(NodeView {
                discoveries: entries,
                boundary: false,
                grow_radius: group,
            });
        }
        idx = end;
    }
    if old.boundary {
        // A boundary prefix covers everything in range; edits keep
        // it complete, and the gap persisting to max power keeps the
        // node a boundary node.
        Some(NodeView {
            discoveries: entries,
            boundary: true,
            grow_radius: max_range,
        })
    } else {
        None
    }
}

/// Whether `new`'s discovery id *sequence* is exactly `old`'s with the
/// dead entries dropped. When true, the node's reverse-relation entries
/// are already correct (retirement erased the dead) and its edges to
/// survivors cannot have changed — edges are a function of neighbor id
/// sets only, never of the cached distances or bearings.
fn ids_equal_minus_dead(old: &NodeView, new: &NodeView, is_dead: &[bool]) -> bool {
    let mut new_ids = new.discoveries.iter().map(|d| d.id);
    for d in &old.discoveries {
        if is_dead[d.id.index()] {
            continue;
        }
        if new_ids.next() != Some(d.id) {
            return false;
        }
    }
    new_ids.next().is_none()
}

/// Updates a reverse discovery relation for `u`'s view changing from
/// `old` to `new`: `u` leaves the lists of ids only `old` discovered and
/// joins the lists of ids only `new` discovered; lists of ids both
/// discovered already hold `u` and are not touched. Quadratic in the
/// view size, which is bounded by the max-power degree.
fn refile(reverse: &mut [Vec<NodeId>], u: NodeId, old: &NodeView, new: &NodeView) {
    for d in &old.discoveries {
        if !new.discovered(d.id) {
            remove_sorted(&mut reverse[d.id.index()], u);
        }
    }
    for d in &new.discoveries {
        if !old.discovered(d.id) {
            insert_sorted(&mut reverse[d.id.index()], u);
        }
    }
}

fn insert_sorted(list: &mut Vec<NodeId>, v: NodeId) {
    if let Err(i) = list.binary_search(&v) {
        list.insert(i, v);
    }
}

fn remove_sorted(list: &mut Vec<NodeId>, v: NodeId) {
    if let Ok(i) = list.binary_search(&v) {
        list.remove(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_centralized_masked, Network};
    use cbtc_geom::Alpha;
    use cbtc_graph::Layout;
    use cbtc_radio::PowerLaw;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn scattered(count: usize, side: f64, seed: u64) -> Layout {
        let mut state = seed.max(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        Layout::new(
            (0..count)
                .map(|_| Point2::new(next() * side, next() * side))
                .collect(),
        )
    }

    fn configs() -> Vec<CbtcConfig> {
        vec![
            CbtcConfig::new(Alpha::FIVE_PI_SIXTHS),
            CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS),
            CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS),
        ]
    }

    /// From-scratch reference over the engine's current state.
    fn reference(topo: &DeltaTopology<GeometricMetric>, config: &CbtcConfig) -> UndirectedGraph {
        let network = Network::new(topo.layout().clone(), PowerLaw::paper_default());
        run_centralized_masked(&network, config, topo.active()).into_final_graph()
    }

    #[test]
    fn event_stream_matches_from_scratch_at_every_step() {
        let layout = scattered(30, 1200.0, 9);
        let events: Vec<Vec<NodeEvent>> = vec![
            vec![NodeEvent::Death(n(3))],
            vec![NodeEvent::Move(n(7), Point2::new(40.0, 900.0))],
            vec![
                NodeEvent::Death(n(11)),
                NodeEvent::Join(n(3), Point2::new(600.0, 600.0)),
            ],
            vec![
                NodeEvent::Move(n(0), Point2::new(1100.0, 80.0)),
                NodeEvent::Move(n(20), Point2::new(500.0, 420.0)),
                NodeEvent::Death(n(25)),
            ],
            vec![NodeEvent::Join(n(11), Point2::new(111.0, 222.0))],
        ];
        for config in configs() {
            let mut topo = DeltaTopology::new(
                layout.clone(),
                vec![true; layout.len()],
                500.0,
                config,
                false,
                GeometricMetric,
            );
            assert_eq!(topo.graph(), &reference(&topo, &config), "initial build");
            for batch in &events {
                let before = topo.graph().clone();
                let delta = topo.apply(batch);
                assert_eq!(
                    topo.graph(),
                    &reference(&topo, &config),
                    "config {config:?} diverged after {batch:?}"
                );
                // The delta must be the exact difference.
                assert_eq!(delta, graph_delta(&before, topo.graph()), "exact delta");
            }
        }
    }

    #[test]
    fn metrics_count_events_and_latency_by_kind() {
        let layout = scattered(30, 1200.0, 9);
        let config = CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS);
        let mut topo = DeltaTopology::new(
            layout.clone(),
            vec![true; layout.len()],
            250.0,
            config,
            false,
            GeometricMetric,
        );
        let registry = MetricsRegistry::enabled();
        topo.set_metrics(&registry);
        topo.apply(&[NodeEvent::Death(n(3))]);
        topo.apply(&[NodeEvent::Move(n(7), Point2::new(40.0, 900.0))]);
        topo.apply(&[
            NodeEvent::Death(n(11)),
            NodeEvent::Join(n(3), Point2::new(600.0, 600.0)),
        ]);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("reconfig.batches"), Some(3));
        assert_eq!(snap.counter("reconfig.events.death"), Some(2));
        assert_eq!(snap.counter("reconfig.events.join"), Some(1));
        assert_eq!(snap.counter("reconfig.events.move"), Some(1));
        assert_eq!(snap.histogram("reconfig.nanos.death").unwrap().count, 1);
        assert_eq!(snap.histogram("reconfig.nanos.move").unwrap().count, 1);
        assert_eq!(snap.histogram("reconfig.nanos.mixed").unwrap().count, 1);
        assert!(snap.histogram("reconfig.nanos.death").unwrap().max > 0);
        assert_eq!(snap.histogram("reconfig.affected").unwrap().count, 3);
        let replays = snap.counter("reconfig.replays").unwrap();
        let scans = snap.counter("reconfig.grid_scans").unwrap();
        assert!(replays + scans > 0, "someone re-grew");
        // A disabled registry uninstalls the instruments entirely.
        topo.set_metrics(&MetricsRegistry::disabled());
        assert!(topo.metrics.is_none());
        topo.apply(&[NodeEvent::Join(n(11), Point2::new(111.0, 222.0))]);
        assert_eq!(
            registry.snapshot().counter("reconfig.batches"),
            Some(3),
            "no further recording after uninstall"
        );
    }

    #[test]
    fn join_far_away_touches_nothing_else() {
        let layout = scattered(12, 400.0, 4);
        let config = CbtcConfig::all_applicable(Alpha::FIVE_PI_SIXTHS);
        let mut active = vec![true; 12];
        active[5] = false;
        let mut topo = DeltaTopology::new(
            layout.clone(),
            active,
            500.0,
            config,
            false,
            GeometricMetric,
        );
        let before = topo.graph().clone();
        let delta = topo.apply(&[NodeEvent::Join(n(5), Point2::new(50_000.0, 0.0))]);
        assert!(delta.is_empty(), "an out-of-range joiner changes no edge");
        assert_eq!(topo.last_regrown(), 1, "only the joiner grows");
        assert_eq!(topo.graph(), &before);
        assert_eq!(topo.graph(), &reference(&topo, &config));
    }

    #[test]
    fn death_affects_only_reverse_discoverers() {
        let layout = scattered(60, 2500.0, 17);
        let config = CbtcConfig::new(Alpha::FIVE_PI_SIXTHS);
        let mut topo = DeltaTopology::new(
            layout.clone(),
            vec![true; 60],
            500.0,
            config,
            false,
            GeometricMetric,
        );
        let expected = topo.discovered_by_basic[13].len();
        topo.apply(&[NodeEvent::Death(n(13))]);
        assert_eq!(
            topo.last_regrown(),
            expected,
            "the affected set is exactly the reverse discovery set"
        );
        assert_eq!(topo.graph(), &reference(&topo, &config));
    }

    #[test]
    fn small_move_is_cheap_and_exact() {
        let layout = scattered(80, 3000.0, 23);
        let config = CbtcConfig::all_applicable(Alpha::TWO_PI_THIRDS);
        let mut topo = DeltaTopology::new(
            layout.clone(),
            vec![true; 80],
            500.0,
            config,
            false,
            GeometricMetric,
        );
        let from = layout.position(n(40));
        topo.apply(&[NodeEvent::Move(
            n(40),
            Point2::new(from.x + 3.0, from.y - 2.0),
        )]);
        assert!(
            topo.last_regrown() < 80 / 2,
            "a small move must stay local (re-grew {})",
            topo.last_regrown()
        );
        assert_eq!(topo.graph(), &reference(&topo, &config));
    }

    #[test]
    #[should_panic(expected = "already dead")]
    fn double_death_panics() {
        let layout = scattered(5, 300.0, 2);
        let mut topo = DeltaTopology::new(
            layout,
            vec![true; 5],
            500.0,
            CbtcConfig::new(Alpha::FIVE_PI_SIXTHS),
            false,
            GeometricMetric,
        );
        topo.apply(&[NodeEvent::Death(n(0))]);
        topo.apply(&[NodeEvent::Death(n(0))]);
    }

    #[test]
    #[should_panic(expected = "one event only")]
    fn duplicate_node_in_batch_panics() {
        let layout = scattered(5, 300.0, 2);
        let mut topo = DeltaTopology::new(
            layout,
            vec![true; 5],
            500.0,
            CbtcConfig::new(Alpha::FIVE_PI_SIXTHS),
            false,
            GeometricMetric,
        );
        topo.apply(&[
            NodeEvent::Move(n(1), Point2::new(1.0, 1.0)),
            NodeEvent::Move(n(1), Point2::new(2.0, 2.0)),
        ]);
    }

    #[test]
    fn graph_delta_reports_exact_difference() {
        let mut a = UndirectedGraph::new(4);
        a.add_edge(n(0), n(1));
        a.add_edge(n(1), n(2));
        let mut b = UndirectedGraph::new(4);
        b.add_edge(n(1), n(2));
        b.add_edge(n(2), n(3));
        let delta = graph_delta(&a, &b);
        assert_eq!(delta.removed, vec![(n(0), n(1))]);
        assert_eq!(delta.added, vec![(n(2), n(3))]);
        assert!(graph_delta(&a, &a).is_empty());
    }
}
