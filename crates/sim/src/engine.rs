//! The discrete-event simulation engine.

use std::collections::BTreeMap;

use cbtc_geom::Angle;
use cbtc_graph::{Layout, NodeId, RingIndex, SpatialGrid};
use cbtc_phy::{InterferenceField, InterferenceProfile, PhyProfile};
use cbtc_radio::{DirectionSensor, LinkGain, PathLoss, Power, Prr};
use cbtc_trace::{TraceEvent, TraceHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::event::{EventKind, EventQueue};
use crate::runtime::{Command, Context, Incoming, Node};
use crate::{FaultConfig, SimTime, TraceStats};

/// Hard cap on the broadcast reach expansion a lossy profile can demand,
/// as a multiple of the deterministic maximum range `R`. A candidate
/// beyond it would need a combined shadowing + fading + PRR-tail gain
/// above `REACH_FACTOR_CAP²ⁿ` in power (≈ +24 dB at n = 2) merely to hit
/// the PRR floor — the bounded-reach approximation that keeps broadcasts
/// output-sensitive under heavy shadowing profiles.
const REACH_FACTOR_CAP: f64 = 4.0;

/// The installed physical-layer pipeline: stochastic channel, reception
/// curve, and the optional SINR/CSMA machinery with its per-slot
/// transmission registry.
///
/// Everything here draws from fields frozen at [`Engine::set_phy`] time
/// (the channel) or from the dedicated phy RNG (PRR coins, backoff), so
/// installing a phy never perturbs the fault RNG stream — with the
/// [`PhyProfile::ideal`] profile the run is bit-identical to no phy at
/// all.
#[derive(Debug)]
struct PhyState {
    profile: PhyProfile,
    channel: cbtc_phy::StochasticChannel,
    rng: StdRng,
    /// Per-transmission fading token (transmission counter).
    token: u64,
    /// Slot start-time → that slot's transmissions, kept while deliveries
    /// from the slot can still arrive. Only populated when interference
    /// or CSMA is configured.
    slots: BTreeMap<u64, InterferenceField>,
    /// Cleared fields of pruned slots, recycled so steady-state ticks
    /// allocate nothing.
    field_pool: Vec<InterferenceField>,
    /// Cell side for newly created slot fields.
    field_cell: f64,
}

impl PhyState {
    fn tracks_slots(&self) -> bool {
        self.profile.interference.is_some() || self.profile.csma.is_some()
    }

    /// The combined worst-case factor by which gains and the PRR floor
    /// can extend a transmission's reach beyond the deterministic range.
    fn reach_expansion(&self) -> f64 {
        self.channel.max_gain() * self.channel.max_packet_gain()
            / self.profile.prr.min_viable_ratio()
    }
}

/// Outcome of [`Engine::run_to_quiescence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuiescenceResult {
    /// The event queue drained; no node has anything left to do. Carries
    /// the time of the last processed event.
    Quiescent(SimTime),
    /// The event budget was exhausted before the queue drained (e.g. a
    /// protocol that beacons forever).
    EventLimitReached,
}

/// A deterministic discrete-event simulator running one [`Node`] protocol
/// instance per network node over a [`PathLoss`] radio.
///
/// * **Information hiding** — protocols observe reception powers and
///   angles of arrival, never positions (the paper's GPS-free model).
/// * **Determinism** — events are processed in `(time, insertion)` order;
///   latency jitter, loss and duplication derive from the seed in
///   [`FaultConfig`].
/// * **Faults** — messages may be lost or duplicated; nodes can crash-stop
///   via [`Engine::schedule_crash`]. Crashed nodes neither receive nor
///   send, matching §4's crash-failure model.
///
/// # Example
///
/// A trivial protocol in which node 0 broadcasts once and everyone records
/// what they hear:
///
/// ```
/// use cbtc_graph::{Layout, NodeId};
/// use cbtc_geom::Point2;
/// use cbtc_radio::{PathLoss, Power, PowerLaw};
/// use cbtc_sim::{Context, Engine, FaultConfig, Incoming, Node};
///
/// struct Gossip { heard: bool }
/// impl Node for Gossip {
///     type Msg = ();
///     fn on_start(&mut self, ctx: &mut Context<()>) {
///         if ctx.self_id() == NodeId::new(0) {
///             ctx.broadcast(Power::new(10_000.0), ());
///         }
///     }
///     fn on_message(&mut self, _ctx: &mut Context<()>, _msg: Incoming<()>) {
///         self.heard = true;
///     }
/// }
///
/// let layout = Layout::new(vec![Point2::new(0.0, 0.0), Point2::new(50.0, 0.0)]);
/// let model = PowerLaw::paper_default();
/// let nodes = vec![Gossip { heard: false }, Gossip { heard: false }];
/// let mut engine = Engine::new(layout, model, nodes, FaultConfig::reliable_synchronous());
/// engine.run_to_quiescence(10_000);
/// assert!(engine.node(NodeId::new(1)).heard);
/// ```
#[derive(Debug)]
pub struct Engine<P: Node, M: PathLoss> {
    layout: Layout,
    /// Spatial index over `layout`, cell side `R`: broadcast delivery
    /// queries the 3×3 cell block around the sender instead of scanning
    /// all nodes. Kept in sync by [`Engine::move_node`].
    grid: SpatialGrid,
    /// Scratch buffer for grid queries (reused across broadcasts).
    scratch: Vec<NodeId>,
    model: M,
    sensor: DirectionSensor,
    config: FaultConfig,
    rng: StdRng,
    queue: EventQueue<P::Msg>,
    nodes: Vec<P>,
    alive: Vec<bool>,
    started: Vec<bool>,
    time: SimTime,
    stats: TraceStats,
    /// The stochastic physical layer, when installed ([`Engine::set_phy`]).
    phy: Option<PhyState>,
    /// Observability hooks, when installed ([`Engine::set_trace`]). With
    /// none, recording is a single `Option` check per lifecycle event.
    trace: Option<TraceHandle>,
}

impl<P: Node, M: PathLoss> Engine<P, M> {
    /// Creates an engine with every node starting at time 0.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != layout.len()`.
    pub fn new(layout: Layout, model: M, nodes: Vec<P>, config: FaultConfig) -> Self {
        let starts = vec![SimTime::ZERO; nodes.len()];
        Engine::with_start_times(layout, model, nodes, config, &starts)
    }

    /// Creates an engine with per-node start times (later starts model
    /// nodes joining an already-running network).
    ///
    /// When the fault configuration carries a
    /// [`FaultConfig::with_start_jitter`], each start is additionally
    /// delayed by a seeded uniform draw from `[0, jitter]` ticks —
    /// desynchronizing the otherwise slot-aligned first Hello rounds.
    /// The jitter RNG is dedicated (`seed ^ 0x5EED_1A57`), so enabling
    /// jitter never perturbs the fault stream, and a zero jitter draws
    /// nothing at all.
    ///
    /// # Panics
    ///
    /// Panics if the node, layout and start counts disagree.
    pub fn with_start_times(
        layout: Layout,
        model: M,
        nodes: Vec<P>,
        config: FaultConfig,
        starts: &[SimTime],
    ) -> Self {
        assert_eq!(nodes.len(), layout.len(), "one protocol instance per node");
        assert_eq!(nodes.len(), starts.len(), "one start time per node");
        let n = nodes.len();
        let mut queue = EventQueue::new();
        let jitter = config.start_jitter();
        let mut jitter_rng =
            (jitter > 0).then(|| StdRng::seed_from_u64(config.seed() ^ 0x5EED_1A57));
        for (i, &t) in starts.iter().enumerate() {
            let t = match &mut jitter_rng {
                Some(rng) => t + rng.gen_range(0..=jitter),
                None => t,
            };
            queue.push(
                t,
                EventKind::Start {
                    node: NodeId::new(i as u32),
                },
            );
        }
        Engine {
            grid: SpatialGrid::from_layout(&layout, model.max_range()),
            scratch: Vec::new(),
            layout,
            model,
            sensor: DirectionSensor::exact(),
            config,
            rng: StdRng::seed_from_u64(config.seed()),
            queue,
            nodes,
            alive: vec![true; n],
            started: vec![false; n],
            time: SimTime::ZERO,
            stats: TraceStats::new(n),
            phy: None,
            trace: None,
        }
    }

    /// Replaces the angle-of-arrival sensor (default: exact).
    pub fn set_sensor(&mut self, sensor: DirectionSensor) {
        self.sensor = sensor;
    }

    /// Installs a stochastic physical layer: per-link shadowing gains,
    /// per-packet fading, a PRR curve, and (per the profile) SINR
    /// interference between same-slot transmissions plus slotted-CSMA
    /// listen-before-talk. Install before the first event is processed.
    ///
    /// With [`PhyProfile::ideal`] the run is **bit-identical** to an
    /// engine without a phy: every gain is the constant `1.0`, the hard
    /// PRR threshold reproduces the `p(d) ≤ p` reception set exactly, and
    /// no extra RNG draws occur.
    ///
    /// Half-duplex falls out of the SINR sum: a node that transmitted in
    /// a slot sees its own (near-field, enormous) energy as interference
    /// on anything it would receive in that slot.
    pub fn set_phy(&mut self, profile: PhyProfile) {
        if profile.aoa_error > 0.0 {
            self.sensor = profile.sensor();
        }
        let cutoff_factor = profile
            .interference
            .map(|i| i.range_factor)
            .unwrap_or(1.0)
            .max(profile.csma.map(|c| c.cs_range_factor).unwrap_or(1.0));
        self.phy = Some(PhyState {
            channel: profile.channel(),
            rng: StdRng::seed_from_u64(profile.seed ^ 0x5EED_F1E1),
            token: 0,
            slots: BTreeMap::new(),
            field_pool: Vec::new(),
            field_cell: (cutoff_factor * self.model.max_range()).max(1.0),
            profile,
        });
    }

    /// The installed phy profile, if any.
    pub fn phy_profile(&self) -> Option<&PhyProfile> {
        self.phy.as_ref().map(|p| &p.profile)
    }

    /// Installs observability hooks: the engine records a
    /// [`TraceEvent::Death`] when a crash-stop fires and a
    /// [`TraceEvent::Join`] when a node with a late start time powers
    /// on. Hooks only *observe* already-computed state — they draw no
    /// randomness and schedule nothing, so a traced run is bit-identical
    /// to an untraced one.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    /// Schedules a crash-stop of `node` at `time`. From that moment the
    /// node sends and receives nothing.
    pub fn schedule_crash(&mut self, node: NodeId, time: SimTime) {
        self.queue.push(time, EventKind::Crash { node });
    }

    /// Moves a node (mobility). Takes effect immediately: messages already
    /// in flight are delivered against the *new* geometry, matching a radio
    /// whose reception happens at arrival time.
    pub fn move_node(&mut self, node: NodeId, position: cbtc_geom::Point2) {
        let from = self.layout.position(node);
        self.layout.set_position(node, position);
        self.grid.update(node, from, position);
    }

    /// The current simulated time (time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// The node layout (ground truth; tests and metrics only — protocols
    /// cannot see this).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The propagation model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Read access to a node's protocol state.
    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id.index()]
    }

    /// All protocol instances, indexed by node.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Whether `node` has not crashed.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// Whether `node` has processed its start event (a node with a future
    /// start time models a device that has not yet joined the network).
    pub fn has_started(&self, node: NodeId) -> bool {
        self.started[node.index()]
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(event) = self.queue.pop() else {
            return false;
        };
        self.time = event.time;
        self.stats.last_event_time = event.time;
        self.prune_slots();
        match event.kind {
            EventKind::Start { node } => {
                if self.alive[node.index()] {
                    self.started[node.index()] = true;
                    if self.time > SimTime::ZERO {
                        if let Some(trace) = &self.trace {
                            let p = self.layout.position(node);
                            trace.record(TraceEvent::Join {
                                time: self.time.ticks() as f64,
                                node: node.raw(),
                                x: p.x,
                                y: p.y,
                            });
                        }
                    }
                    let mut ctx = Context::new(self.time, node);
                    self.nodes[node.index()].on_start(&mut ctx);
                    self.execute(node, ctx.into_commands());
                }
            }
            EventKind::Deliver {
                to,
                from,
                rx_power,
                tx_power,
                sent_at,
                signal,
                threshold,
                payload,
            } => {
                // A node that has not started yet (not powered on / not
                // joined) receives nothing.
                if self.alive[to.index()] && self.started[to.index()] {
                    if !self.phy_accepts(to, from, sent_at, signal, threshold) {
                        self.stats.phy_lost += 1;
                        return true;
                    }
                    self.stats.deliveries += 1;
                    let direction = self.bearing(to, from);
                    let incoming = Incoming {
                        from,
                        tx_power,
                        rx_power,
                        direction,
                        payload,
                    };
                    let mut ctx = Context::new(self.time, to);
                    self.nodes[to.index()].on_message(&mut ctx, incoming);
                    self.execute(to, ctx.into_commands());
                }
            }
            EventKind::Transmit {
                origin,
                power,
                to,
                attempt,
                payload,
            } => {
                // A node that crashed while backed off airs nothing.
                if self.alive[origin.index()] {
                    self.csma_transmit(origin, power, to, attempt, payload);
                }
            }
            EventKind::Timer { node, id } => {
                if self.alive[node.index()] {
                    self.stats.timer_firings += 1;
                    let mut ctx = Context::new(self.time, node);
                    self.nodes[node.index()].on_timer(&mut ctx, id);
                    self.execute(node, ctx.into_commands());
                }
            }
            EventKind::Crash { node } => {
                if self.alive[node.index()] {
                    if let Some(trace) = &self.trace {
                        trace.record(TraceEvent::Death {
                            time: self.time.ticks() as f64,
                            node: node.raw(),
                        });
                    }
                }
                self.alive[node.index()] = false;
            }
        }
        true
    }

    /// Runs until the queue holds no event at or before `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.queue.peek_time().is_some_and(|t| t <= deadline) {
            self.step();
        }
        self.time = self.time.max(deadline);
    }

    /// Runs until the event queue drains or `max_events` have been
    /// processed.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> QuiescenceResult {
        for _ in 0..max_events {
            if !self.step() {
                return QuiescenceResult::Quiescent(self.time);
            }
        }
        if self.queue.is_empty() {
            QuiescenceResult::Quiescent(self.time)
        } else {
            QuiescenceResult::EventLimitReached
        }
    }

    /// The direction `observer` measures for a transmission from `source`,
    /// including sensor error. Co-located nodes yield an arbitrary fixed
    /// bearing.
    fn bearing(&self, observer: NodeId, source: NodeId) -> Angle {
        let po = self.layout.position(observer);
        let ps = self.layout.position(source);
        let true_bearing = if po == ps {
            Angle::ZERO
        } else {
            po.direction_to(ps)
        };
        true_bearing.rotated(
            self.sensor
                .perturbation(observer.raw() as u64, source.raw() as u64),
        )
    }

    fn execute(&mut self, origin: NodeId, commands: Vec<Command<P::Msg>>) {
        let defer = self.phy.as_ref().is_some_and(|p| p.profile.csma.is_some());
        for command in commands {
            match command {
                Command::Broadcast { power, payload } => {
                    if defer {
                        // Listen-before-talk: the transmission becomes an
                        // event so carrier sensing sees every same-slot
                        // command, whatever handler order produced them.
                        self.queue.push(
                            self.time,
                            EventKind::Transmit {
                                origin,
                                power,
                                to: None,
                                attempt: 0,
                                payload,
                            },
                        );
                    } else {
                        self.transmit(origin, power, None, payload);
                    }
                }
                Command::Send { power, payload, to } => {
                    if defer {
                        self.queue.push(
                            self.time,
                            EventKind::Transmit {
                                origin,
                                power,
                                to: Some(to),
                                attempt: 0,
                                payload,
                            },
                        );
                    } else {
                        self.transmit(origin, power, Some(to), payload);
                    }
                }
                Command::SetTimer { delay, id } => {
                    self.queue
                        .push(self.time + delay, EventKind::Timer { node: origin, id });
                }
            }
        }
    }

    /// A [`EventKind::Transmit`] fires: sense the carrier, then air or
    /// back off. Slotted CSMA — "in progress" means "aired in this slot".
    fn csma_transmit(
        &mut self,
        origin: NodeId,
        power: Power,
        to: Option<NodeId>,
        attempt: u32,
        payload: P::Msg,
    ) {
        let position = self.layout.position(origin);
        let csma = match self.phy.as_ref().and_then(|phy| phy.profile.csma) {
            Some(csma) => csma,
            // A Transmit event without CSMA configured (phy swapped out
            // mid-flight): air directly.
            None => return self.transmit(origin, power, to, payload),
        };
        let cs_range = csma.cs_range_factor * self.model.max_range();
        let now = self.time.ticks();
        let phy = self.phy.as_mut().expect("csma implies a phy");
        let busy = phy
            .slots
            .get_mut(&now)
            .is_some_and(|field| field.carrier_busy(position, origin, cs_range));
        if busy && attempt + 1 < csma.max_attempts {
            self.stats.csma_deferrals += 1;
            let phy = self.phy.as_mut().expect("csma implies a phy");
            let backoff = 1 + phy.rng.gen_range(0..=csma.max_backoff);
            self.queue.push(
                self.time + backoff,
                EventKind::Transmit {
                    origin,
                    power,
                    to,
                    attempt: attempt + 1,
                    payload,
                },
            );
        } else {
            if busy {
                self.stats.csma_forced += 1;
            }
            self.transmit(origin, power, to, payload);
        }
    }

    /// Airs one transmission: accounts energy, registers it in the slot's
    /// interference field, resolves the reception set, and enqueues
    /// deliveries.
    fn transmit(&mut self, origin: NodeId, power: Power, to: Option<NodeId>, payload: P::Msg) {
        match to {
            None => self.stats.broadcasts += 1,
            Some(_) => self.stats.unicasts += 1,
        }
        self.charge(origin, power);
        let position = self.layout.position(origin);
        let now = self.time.ticks();
        let token = match self.phy.as_mut() {
            Some(phy) => {
                let token = phy.token;
                phy.token += 1;
                if phy.tracks_slots() {
                    let cell = phy.field_cell;
                    let pool = &mut phy.field_pool;
                    phy.slots
                        .entry(now)
                        .or_insert_with(|| {
                            // Recycle a pruned slot's field (its grid and
                            // buffers survive `clear`) before allocating.
                            pool.pop().unwrap_or_else(|| InterferenceField::new(cell))
                        })
                        .register(origin, position, power);
                }
                token
            }
            None => 0,
        };
        match to {
            None => {
                // Every node the transmission can plausibly reach lies
                // within range(power · worst-case gain) of the sender, so
                // the shared shell-scan enumeration plus the exact
                // per-candidate filter reproduces the all-nodes scan.
                // Sorting keeps delivery (and thus fault-RNG) order
                // identical to it. The worst-case expansion is capped at
                // REACH_FACTOR_CAP × R — a combined shadowing+fading+PRR
                // tail beyond that is vanishingly rare, and the cap is
                // what keeps lossy-profile broadcasts output-sensitive
                // (the bounded-reach counterpart of the interference
                // cutoff). The cap never binds for the ideal profile.
                let radius = match &self.phy {
                    None => self.model.range(power),
                    Some(phy) => self
                        .model
                        .range(power * phy.reach_expansion())
                        .min(self.model.max_range() * REACH_FACTOR_CAP),
                };
                let mut targets = std::mem::take(&mut self.scratch);
                targets.clear();
                let mut scan = self.grid.shell_scan(self.layout.position(origin), radius);
                while scan.scan_next(&mut targets) {}
                targets.sort_unstable();
                for &v in &targets {
                    if v != origin {
                        self.try_enqueue(origin, v, power, token, &payload);
                    }
                }
                self.scratch = targets;
            }
            Some(v) => {
                if v != origin {
                    self.try_enqueue(origin, v, power, token, &payload);
                }
            }
        }
    }

    /// Applies the per-link reception filter and enqueues the delivery.
    /// The payload is only cloned once a delivery is actually enqueued,
    /// so filtered-out candidates cost no allocation.
    ///
    /// Without a phy this is exactly the paper's reception set
    /// `p(d(u,v)) ≤ p`. With one, the signal budget `p·g·f` (link gain
    /// and this packet's fading draw, both frozen fields) is checked for
    /// *possible* delivery now; the SINR/PRR coin is tossed at arrival,
    /// when the slot's interference is known.
    fn try_enqueue(
        &mut self,
        from: NodeId,
        to: NodeId,
        power: Power,
        token: u64,
        payload: &P::Msg,
    ) {
        let distance = self.layout.distance(from, to);
        let required = self.model.required_power(distance);
        let (signal, gain, viable) = match &self.phy {
            None => (power.linear(), 1.0, required <= power),
            Some(phy) => {
                let g = phy.channel.link_gain(from.raw() as u64, to.raw() as u64);
                let f = phy
                    .channel
                    .packet_gain(from.raw() as u64, to.raw() as u64, token);
                let signal = power.linear() * g * f;
                let viable = phy
                    .profile
                    .prr
                    .delivery_probability(signal, required.linear())
                    > 0.0;
                (signal, g * f, viable)
            }
        };
        if !viable {
            return;
        }
        self.enqueue_delivery(from, to, power, distance, gain, signal, required, payload);
    }

    fn charge(&mut self, node: NodeId, power: Power) {
        self.stats.energy_spent += power.linear();
        self.stats.energy_per_node[node.index()] += power.linear();
    }

    /// The arrival-time phy decision for one delivery: PRR over the SINR
    /// margin, with the slot's interference raising the threshold.
    /// Always `true` without a phy; with the ideal profile the
    /// probability is exactly 1 and no RNG draw occurs.
    fn phy_accepts(
        &mut self,
        to: NodeId,
        from: NodeId,
        sent_at: SimTime,
        signal: f64,
        threshold: f64,
    ) -> bool {
        let Some(phy) = self.phy.as_mut() else {
            return true;
        };
        let channel = phy.channel;
        let interference = match phy.profile.interference {
            None => 0.0,
            Some(InterferenceProfile { range_factor }) => {
                match phy.slots.get_mut(&sent_at.ticks()) {
                    None => 0.0,
                    Some(field) => field.relative_interference(
                        &self.model,
                        self.layout.position(to),
                        to,
                        from,
                        range_factor * self.model.max_range(),
                        &channel,
                    ),
                }
            }
        };
        let probability = phy
            .profile
            .prr
            .delivery_probability(signal, threshold * (1.0 + interference));
        if probability >= 1.0 {
            true
        } else if probability <= 0.0 {
            false
        } else {
            phy.rng.gen::<f64>() < probability
        }
    }

    /// Drops slot interference registries no in-flight delivery can still
    /// reference (slots older than the maximum latency plus the same-slot
    /// margin).
    fn prune_slots(&mut self) {
        let now = self.time.ticks();
        let (_, max_latency) = self.config.latency();
        let Some(phy) = self.phy.as_mut() else { return };
        while let Some(entry) = phy.slots.first_entry() {
            if entry.key() + max_latency < now {
                let mut field = entry.remove();
                field.clear();
                phy.field_pool.push(field);
            } else {
                break;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn enqueue_delivery(
        &mut self,
        from: NodeId,
        to: NodeId,
        tx_power: Power,
        distance: f64,
        gain: f64,
        signal: f64,
        required: Power,
        payload: &P::Msg,
    ) {
        // Loss, duplication, then latency — all drawn deterministically.
        if self.config.loss_probability() > 0.0
            && self.rng.gen::<f64>() < self.config.loss_probability()
        {
            self.stats.lost += 1;
            return;
        }
        let copies = if self.config.duplication_probability() > 0.0
            && self.rng.gen::<f64>() < self.config.duplication_probability()
        {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        // The protocol-visible reception power carries the same channel
        // gains as the delivery decision, so the §2 attenuation estimate
        // recovers the *effective* link cost (what it actually takes to
        // close this link), not the geometric distance.
        let rx_power = match &self.phy {
            None => self.model.reception_power(tx_power, distance),
            Some(_) => self.model.reception_power(tx_power, distance) * gain,
        };
        for _ in 0..copies {
            let (lo, hi) = self.config.latency();
            let latency = if lo == hi {
                lo
            } else {
                self.rng.gen_range(lo..=hi)
            };
            self.queue.push(
                self.time + latency,
                EventKind::Deliver {
                    to,
                    from,
                    rx_power,
                    tx_power,
                    sent_at: self.time,
                    signal,
                    threshold: required.linear(),
                    payload: payload.clone(),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtc_geom::Point2;
    use cbtc_radio::PowerLaw;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Flood: node 0 broadcasts a counter; every first reception
    /// rebroadcasts with decremented TTL.
    #[derive(Debug)]
    struct Flood {
        received: Vec<u32>,
    }

    impl Node for Flood {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Context<u32>) {
            if ctx.self_id() == n(0) {
                ctx.broadcast(Power::new(250_000.0), 3);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<u32>, msg: Incoming<u32>) {
            let first_time = self.received.is_empty();
            self.received.push(msg.payload);
            if first_time && msg.payload > 0 {
                ctx.broadcast(Power::new(250_000.0), msg.payload - 1);
            }
        }
    }

    fn line_layout(spacing: f64, count: usize) -> Layout {
        Layout::new(
            (0..count)
                .map(|i| Point2::new(i as f64 * spacing, 0.0))
                .collect(),
        )
    }

    fn flood_engine(count: usize, config: FaultConfig) -> Engine<Flood, PowerLaw> {
        let layout = line_layout(400.0, count);
        let nodes = (0..count).map(|_| Flood { received: vec![] }).collect();
        Engine::new(layout, PowerLaw::paper_default(), nodes, config)
    }

    #[test]
    fn flood_propagates_hop_by_hop() {
        // Nodes 400 apart, range 500: only adjacent nodes hear each other.
        let mut e = flood_engine(4, FaultConfig::reliable_synchronous());
        let result = e.run_to_quiescence(1_000);
        assert!(matches!(result, QuiescenceResult::Quiescent(_)));
        // Full trace: t1 node 1 gets TTL-3 and rebroadcasts TTL-2; t2 nodes
        // 0 and 2 both hear it (their first) and rebroadcast TTL-1; t3 node
        // 1 hears both TTL-1 copies (no rebroadcast — not first) and node 3
        // hears TTL-1 and rebroadcasts TTL-0; t4 node 2 hears TTL-0.
        assert_eq!(e.node(n(1)).received, vec![3, 1, 1]);
        assert_eq!(e.node(n(2)).received, vec![2, 0]);
        assert_eq!(e.node(n(3)).received, vec![1]);
        assert_eq!(e.now(), SimTime::new(4));
        assert_eq!(e.stats().broadcasts, 5);
        assert!(e.stats().energy_spent > 0.0);
    }

    #[test]
    fn unicast_requires_sufficient_power() {
        #[derive(Debug)]
        struct OneShot {
            got: u32,
        }
        impl Node for OneShot {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Context<u32>) {
                if ctx.self_id() == n(0) {
                    // Too weak to span 400 units (needs 160 000).
                    ctx.send(Power::new(10_000.0), 7, n(1));
                    // Strong enough.
                    ctx.send(Power::new(250_000.0), 9, n(1));
                }
            }
            fn on_message(&mut self, _ctx: &mut Context<u32>, msg: Incoming<u32>) {
                self.got = msg.payload;
            }
        }
        let layout = line_layout(400.0, 2);
        let nodes = vec![OneShot { got: 0 }, OneShot { got: 0 }];
        let mut e = Engine::new(
            layout,
            PowerLaw::paper_default(),
            nodes,
            FaultConfig::reliable_synchronous(),
        );
        e.run_to_quiescence(100);
        assert_eq!(e.node(n(1)).got, 9);
        assert_eq!(e.stats().deliveries, 1);
        assert_eq!(e.stats().unicasts, 2);
    }

    #[test]
    fn incoming_envelope_carries_physics() {
        #[derive(Debug, Default)]
        struct Probe {
            seen: Option<(f64, f64, f64)>, // (tx, rx, direction)
        }
        impl Node for Probe {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<()>) {
                if ctx.self_id() == n(0) {
                    ctx.broadcast(Power::new(40_000.0), ());
                }
            }
            fn on_message(&mut self, _ctx: &mut Context<()>, msg: Incoming<()>) {
                self.seen = Some((
                    msg.tx_power.linear(),
                    msg.rx_power.linear(),
                    msg.direction.radians(),
                ));
            }
        }
        // Node 1 is 100 units due *east* of node 0, so node 1 sees node 0
        // due west (π).
        let layout = Layout::new(vec![Point2::new(0.0, 0.0), Point2::new(100.0, 0.0)]);
        let mut e = Engine::new(
            layout,
            PowerLaw::paper_default(),
            vec![Probe::default(), Probe::default()],
            FaultConfig::reliable_synchronous(),
        );
        e.run_to_quiescence(10);
        let (tx, rx, dir) = e.node(n(1)).seen.expect("message must arrive");
        assert_eq!(tx, 40_000.0);
        assert!((rx - 4.0).abs() < 1e-9); // 40 000 / 100²
        assert!((dir - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn crashed_nodes_are_silent() {
        let mut e = flood_engine(3, FaultConfig::reliable_synchronous());
        e.schedule_crash(n(1), SimTime::ZERO);
        e.run_to_quiescence(100);
        // Node 1 crashed before receiving; node 2 (800 from node 0) never
        // hears anything.
        assert!(e.node(n(1)).received.is_empty());
        assert!(e.node(n(2)).received.is_empty());
        assert!(!e.is_alive(n(1)));
        assert!(e.is_alive(n(0)));
    }

    #[test]
    fn loss_drops_messages_deterministically() {
        let config = FaultConfig::asynchronous(1, 1, 7).with_loss(0.9);
        let mut a = flood_engine(4, config);
        let mut b = flood_engine(4, config);
        a.run_to_quiescence(10_000);
        b.run_to_quiescence(10_000);
        // Identical seeds → identical outcomes.
        for i in 0..4 {
            assert_eq!(a.node(n(i)).received, b.node(n(i)).received);
        }
        assert!(a.stats().lost > 0);
    }

    #[test]
    fn duplication_delivers_twice() {
        // Two nodes, always duplicate: receiver sees the broadcast twice.
        #[derive(Debug, Default)]
        struct CountRx {
            count: u32,
        }
        impl Node for CountRx {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<()>) {
                if ctx.self_id() == n(0) {
                    ctx.broadcast(Power::new(250_000.0), ());
                }
            }
            fn on_message(&mut self, _ctx: &mut Context<()>, _msg: Incoming<()>) {
                self.count += 1;
            }
        }
        let config = FaultConfig::asynchronous(1, 1, 1).with_duplication(0.999_999);
        let layout = line_layout(100.0, 2);
        let mut e = Engine::new(
            layout,
            PowerLaw::paper_default(),
            vec![CountRx::default(), CountRx::default()],
            config,
        );
        e.run_to_quiescence(100);
        assert_eq!(e.node(n(1)).count, 2);
        assert_eq!(e.stats().duplicated, 1);
    }

    #[test]
    fn timers_fire_in_order() {
        #[derive(Debug, Default)]
        struct Timers {
            fired: Vec<u64>,
        }
        impl Node for Timers {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<()>) {
                ctx.set_timer(5, 1);
                ctx.set_timer(2, 2);
                ctx.set_timer(9, 3);
            }
            fn on_message(&mut self, _ctx: &mut Context<()>, _msg: Incoming<()>) {}
            fn on_timer(&mut self, _ctx: &mut Context<()>, id: u64) {
                self.fired.push(id);
            }
        }
        let layout = line_layout(1.0, 1);
        let mut e = Engine::new(
            layout,
            PowerLaw::paper_default(),
            vec![Timers::default()],
            FaultConfig::reliable_synchronous(),
        );
        e.run_to_quiescence(100);
        assert_eq!(e.node(n(0)).fired, vec![2, 1, 3]);
        assert_eq!(e.stats().timer_firings, 3);
        assert_eq!(e.now(), SimTime::new(9));
    }

    #[test]
    fn deferred_start_times() {
        let layout = line_layout(100.0, 2);
        let nodes = vec![Flood { received: vec![] }, Flood { received: vec![] }];
        let starts = [SimTime::ZERO, SimTime::new(50)];
        let mut e = Engine::with_start_times(
            layout,
            PowerLaw::paper_default(),
            nodes,
            FaultConfig::reliable_synchronous(),
            &starts,
        );
        e.run_until(SimTime::new(10));
        // Node 1 has not started yet: node 0's broadcast is lost on it.
        assert_eq!(e.node(n(1)).received, Vec::<u32>::new());
        e.run_to_quiescence(100);
        // After starting at t=50, node 1 broadcasts nothing itself (only
        // node 0 initiates), so it still has heard nothing; node 0 heard
        // nothing either.
        assert_eq!(e.node(n(0)).received, Vec::<u32>::new());
        assert!(matches!(
            e.run_to_quiescence(1),
            QuiescenceResult::Quiescent(_)
        ));
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let layout = line_layout(1.0, 1);
        let mut e = Engine::new(
            layout,
            PowerLaw::paper_default(),
            vec![Flood { received: vec![] }],
            FaultConfig::reliable_synchronous(),
        );
        e.run_until(SimTime::new(500));
        assert_eq!(e.now(), SimTime::new(500));
    }

    #[test]
    fn mobility_affects_in_flight_delivery() {
        // Node 1 starts in range but moves out before the message lands.
        let layout = line_layout(400.0, 2);
        let nodes = vec![Flood { received: vec![] }, Flood { received: vec![] }];
        let mut e = Engine::new(
            layout,
            PowerLaw::paper_default(),
            nodes,
            FaultConfig::reliable_synchronous(),
        );
        // Process node starts only (t=0): node 0's broadcast is now queued
        // for t=1 — the reaches() check already passed at send time, so the
        // message arrives, but the *measured direction* uses the new
        // position.
        e.run_until(SimTime::ZERO);
        e.move_node(n(1), Point2::new(0.0, 300.0));
        e.run_to_quiescence(100);
        // The in-flight TTL-3 lands despite the move; the echo chain then
        // runs over the new 300-unit geometry (still in range).
        assert_eq!(e.node(n(1)).received, vec![3, 1]);
    }

    #[test]
    fn ideal_phy_is_bit_identical_to_no_phy() {
        // Same seeds, same faults; the only difference is the installed
        // ideal phy. Every observable must match exactly.
        let config = FaultConfig::asynchronous(1, 3, 9)
            .with_loss(0.2)
            .with_duplication(0.1);
        let mut plain = flood_engine(4, config);
        let mut phy = flood_engine(4, config);
        phy.set_phy(cbtc_phy::PhyProfile::ideal());
        plain.run_to_quiescence(100_000);
        phy.run_to_quiescence(100_000);
        for i in 0..4 {
            assert_eq!(plain.node(n(i)).received, phy.node(n(i)).received);
        }
        assert_eq!(plain.stats(), phy.stats());
        assert_eq!(phy.stats().phy_lost, 0);
    }

    #[test]
    fn shadowing_changes_the_reception_set() {
        use cbtc_phy::{PhyProfile, ShadowingMode};
        // A link right at the reception margin: nodes 499.99 apart with
        // range 500. Under heavy per-direction shadowing some seeds close
        // the link and some do not.
        let layout = line_layout(499.99, 2);
        let mut outcomes = Vec::new();
        for seed in 0..12u64 {
            let nodes = vec![Flood { received: vec![] }, Flood { received: vec![] }];
            let mut e = Engine::new(
                layout.clone(),
                PowerLaw::paper_default(),
                nodes,
                FaultConfig::reliable_synchronous(),
            );
            let mut profile = PhyProfile::shadowed(8.0, seed);
            profile.shadowing_mode = ShadowingMode::Independent;
            e.set_phy(profile);
            e.run_to_quiescence(1_000);
            outcomes.push(!e.node(n(1)).received.is_empty());
        }
        assert!(
            outcomes.iter().any(|&heard| heard),
            "no seed ever delivered"
        );
        assert!(
            outcomes.iter().any(|&heard| !heard),
            "no seed ever faded out"
        );
    }

    #[test]
    fn same_slot_interference_drops_the_collision() {
        use cbtc_phy::{InterferenceProfile, PhyProfile};
        // Two senders flank a receiver at equal distance and broadcast in
        // the same slot: under SINR each packet sees the other at equal
        // power (SINR ≈ 1 ≪ required margin), so both are lost. The same
        // geometry without interference delivers both.
        #[derive(Debug, Default)]
        struct Pulse {
            got: u32,
        }
        impl Node for Pulse {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<()>) {
                if ctx.self_id() != n(1) {
                    ctx.broadcast(Power::new(250_000.0), ());
                }
            }
            fn on_message(&mut self, _ctx: &mut Context<()>, _msg: Incoming<()>) {
                self.got += 1;
            }
        }
        let layout = Layout::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(400.0, 0.0),
            Point2::new(800.0, 0.0),
        ]);
        let run = |interference: bool| -> (u32, u64) {
            let nodes = vec![Pulse::default(), Pulse::default(), Pulse::default()];
            let mut e = Engine::new(
                layout.clone(),
                PowerLaw::paper_default(),
                nodes,
                FaultConfig::reliable_synchronous(),
            );
            let mut profile = PhyProfile::ideal();
            if interference {
                profile.interference = Some(InterferenceProfile { range_factor: 4.0 });
            }
            e.set_phy(profile);
            e.run_to_quiescence(1_000);
            (e.node(n(1)).got, e.stats().phy_lost)
        };
        let (clean, lost_clean) = run(false);
        assert_eq!(clean, 2);
        assert_eq!(lost_clean, 0);
        let (jammed, lost) = run(true);
        assert_eq!(jammed, 0, "equal-power same-slot packets must collide");
        assert!(lost >= 2);
    }

    #[test]
    fn csma_defers_the_second_transmission() {
        use cbtc_phy::{CsmaProfile, InterferenceProfile, PhyProfile};
        // Same collision geometry, now with listen-before-talk: the later
        // Transmit event senses the earlier one and backs off to another
        // slot, so both packets get through.
        #[derive(Debug, Default)]
        struct Pulse {
            got: u32,
        }
        impl Node for Pulse {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<()>) {
                if ctx.self_id() != n(1) {
                    ctx.broadcast(Power::new(250_000.0), ());
                }
            }
            fn on_message(&mut self, _ctx: &mut Context<()>, _msg: Incoming<()>) {
                self.got += 1;
            }
        }
        let layout = Layout::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(400.0, 0.0),
            Point2::new(800.0, 0.0),
        ]);
        let nodes = vec![Pulse::default(), Pulse::default(), Pulse::default()];
        let mut e = Engine::new(
            layout.clone(),
            PowerLaw::paper_default(),
            nodes,
            FaultConfig::reliable_synchronous(),
        );
        let mut profile = PhyProfile::ideal();
        profile.interference = Some(InterferenceProfile { range_factor: 4.0 });
        profile.csma = Some(CsmaProfile {
            cs_range_factor: 2.0,
            max_backoff: 8,
            max_attempts: 5,
        });
        e.set_phy(profile);
        e.run_to_quiescence(1_000);
        assert_eq!(e.node(n(1)).got, 2, "backoff must separate the slots");
        assert_eq!(e.stats().csma_deferrals, 1);
        assert_eq!(e.stats().phy_lost, 0);
    }

    #[test]
    fn csma_runs_are_deterministic() {
        use cbtc_phy::PhyProfile;
        let run = || {
            let mut e = flood_engine(4, FaultConfig::asynchronous(1, 2, 5).with_loss(0.05));
            e.set_phy(PhyProfile::realistic(6.0, 3));
            e.run_to_quiescence(100_000);
            (
                (0..4)
                    .map(|i| e.node(n(i)).received.clone())
                    .collect::<Vec<_>>(),
                e.stats().clone(),
            )
        };
        let (a_rx, a_stats) = run();
        let (b_rx, b_stats) = run();
        assert_eq!(a_rx, b_rx);
        assert_eq!(a_stats, b_stats);
    }

    #[test]
    fn start_jitter_scatters_starts_deterministically() {
        // Jitter delays node starts reproducibly; zero jitter is the
        // bit-identical default.
        let base = FaultConfig::reliable_synchronous().with_seed(5);
        let mut plain = flood_engine(4, base);
        let mut zero = flood_engine(4, base.with_start_jitter(0));
        plain.run_to_quiescence(1_000);
        zero.run_to_quiescence(1_000);
        assert_eq!(plain.stats(), zero.stats());

        let jittered = || {
            let mut e = flood_engine(4, base.with_start_jitter(16));
            e.run_to_quiescence(1_000);
            (e.now(), e.stats().clone())
        };
        let (t1, s1) = jittered();
        let (t2, s2) = jittered();
        assert_eq!(t1, t2, "jitter must be seeded");
        assert_eq!(s1, s2);
        assert!(t1 > plain.now(), "scattered starts shift the timeline");
    }

    #[test]
    fn quiescence_limit() {
        // A protocol that reschedules a timer forever never quiesces.
        #[derive(Debug)]
        struct Beacon;
        impl Node for Beacon {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<()>) {
                ctx.set_timer(1, 0);
            }
            fn on_message(&mut self, _ctx: &mut Context<()>, _msg: Incoming<()>) {}
            fn on_timer(&mut self, ctx: &mut Context<()>, _id: u64) {
                ctx.set_timer(1, 0);
            }
        }
        let layout = line_layout(1.0, 1);
        let mut e = Engine::new(
            layout,
            PowerLaw::paper_default(),
            vec![Beacon],
            FaultConfig::reliable_synchronous(),
        );
        assert_eq!(
            e.run_to_quiescence(100),
            QuiescenceResult::EventLimitReached
        );
    }
}
