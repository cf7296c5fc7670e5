//! The `serve` workload: one `DeltaTopology` engine maintaining
//! CBTC(5π/6) under a seeded move/death/join stream, one event is one
//! operation.
//!
//! Two phases run over the same stream, one after the other:
//!
//! * **backlogged** — every event is already queued, so commits run
//!   back to back; this measures capacity (events/s);
//! * **open loop** — events arrive by a seeded Poisson schedule at the
//!   fixed [`RATE`], well below capacity, whatever the engine is
//!   doing. Each event is timed from its *due* time to the end of the
//!   commit that carries it, so queueing behind a slow commit counts.
//!
//! A commit takes every queued event up to [`BATCH_MAX`], cut at the
//! first event whose node is already aboard (the engine takes one event
//! per node per batch). The arrival generator, the batcher and `apply`
//! share one thread; the engine may fan its own re-grows out.

use std::collections::VecDeque;
use std::time::Instant;

use cbtc_core::parallel::{effective_parallelism, planned_threads};
use cbtc_core::reconfig::{DeltaTopology, GeometricMetric, NodeEvent};
use cbtc_core::{run_centralized_masked, CbtcConfig, Network, PAR_MIN_CHUNK};
use cbtc_geom::{Alpha, Point2};
use cbtc_graph::NodeId;
use cbtc_metrics::MetricsRegistry;
use cbtc_radio::{PathLoss, PowerLaw};
use cbtc_workloads::RandomPlacement;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, percentile, quantile, sorted, tail};
use crate::{set_up, Args};

/// Node slots (active population plus the standby pool).
const SLOTS: usize = 10_000;
/// Share of slots that start in the standby pool.
const STANDBY_FRACTION: f64 = 0.05;
/// `Death` events per 1000 (moves take the rest after deaths and joins).
const DEATH_PER_MILLE: u32 = 50;
/// `Join` events per 1000.
const JOIN_PER_MILLE: u32 = 50;
/// Largest per-axis displacement of one move.
const MAX_STEP: f64 = 50.0;
/// Most events one commit carries.
pub const BATCH_MAX: usize = 16;
/// Offered rate of the open-loop phase, events per second: about a
/// quarter of the backlogged capacity on a 2-core host, so that the
/// host's own ±30% speed swings leave the engine well short of
/// saturation and latency measures the engine, not the swing.
pub const RATE: f64 = 7_500.0;
/// An event committed later than this after its due time fails. A
/// shared 2-vCPU host pauses a process for 10–20 ms every few seconds
/// and now and then for over 50 ms, so a tighter limit would fail events
/// the engine never delayed; a saturated engine passes this one within
/// a fraction of a second.
const LATENCY_LIMIT_NS: u64 = 200_000_000;
/// Backlogged-phase events per second of `--seconds`.
const BACKLOGGED_PER_S: f64 = 10_000.0;
/// Share of `--seconds` the open-loop schedule spans.
const OPEN_LOOP_SHARE: f64 = 0.6;
/// The backlogged phase is timed in this many equal chunks; capacity is
/// summarized over their rates.
const CHUNKS: usize = 20;
/// The open-loop schedule is split into this many windows of events;
/// latency percentiles are summarized over the windows.
const WINDOWS: usize = 20;
/// The quantile `latency_tail_ms` reports. An event costs tens of
/// microseconds, so its p99 follows the shared host's speed from run to
/// run (±30%) more than the engine; p90 is the tail steady enough to
/// bound. The p99 and p999 are traced (`serve.p99_us`, `serve.p999_us`).
const TAIL_Q: f64 = 0.9;
/// Setups per run (the median is reported).
const SETUP_REPS: usize = 5;
const STREAM_SALT: u64 = 0x5E7C_E0D5;
const ARRIVAL_SALT: u64 = 0xA441_7A15;

/// The construction `cbtc serve` maintains: the basic CBTC(5π/6) graph.
fn config() -> CbtcConfig {
    CbtcConfig::new(Alpha::FIVE_PI_SIXTHS)
}

/// The seeded event source. It keeps its own membership and positions,
/// so the event sequence depends on the seed alone, never on how events
/// are batched or when they commit.
pub struct EventStream {
    rng: StdRng,
    active: Vec<NodeId>,
    standby: Vec<NodeId>,
    positions: Vec<Point2>,
    min_active: usize,
    width: f64,
    height: f64,
}

impl EventStream {
    /// A stream over `positions`, whose slots from `first_standby` on
    /// start in the standby pool.
    pub fn new(positions: Vec<Point2>, first_standby: usize, side: f64, seed: u64) -> Self {
        let slots = positions.len();
        EventStream {
            rng: StdRng::seed_from_u64(seed ^ STREAM_SALT),
            active: (0..first_standby as u32).map(NodeId::new).collect(),
            standby: (first_standby as u32..slots as u32)
                .map(NodeId::new)
                .collect(),
            positions,
            min_active: slots / 2,
            width: side,
            height: side,
        }
    }

    /// The next event: a death of a random active node (while more than
    /// half the slots are active), a join of a random standby slot at a
    /// fresh position (while any is on standby), or else a bounded move.
    pub fn next_event(&mut self) -> NodeEvent {
        let roll: u32 = self.rng.gen_range(0..1000);
        if roll < DEATH_PER_MILLE && self.active.len() > self.min_active {
            let i = self.rng.gen_range(0..self.active.len());
            let victim = self.active.swap_remove(i);
            self.standby.push(victim);
            NodeEvent::Death(victim)
        } else if roll < DEATH_PER_MILLE + JOIN_PER_MILLE && !self.standby.is_empty() {
            let i = self.rng.gen_range(0..self.standby.len());
            let joiner = self.standby.swap_remove(i);
            self.active.push(joiner);
            let p = Point2::new(
                self.rng.gen_range(0.0..self.width),
                self.rng.gen_range(0.0..self.height),
            );
            self.positions[joiner.index()] = p;
            NodeEvent::Join(joiner, p)
        } else {
            let mover = self.active[self.rng.gen_range(0..self.active.len())];
            let p = self.positions[mover.index()];
            let p = Point2::new(
                (p.x + self.rng.gen_range(-MAX_STEP..MAX_STEP)).clamp(0.0, self.width),
                (p.y + self.rng.gen_range(-MAX_STEP..MAX_STEP)).clamp(0.0, self.height),
            );
            self.positions[mover.index()] = p;
            NodeEvent::Move(mover, p)
        }
    }
}

/// A seeded Poisson arrival schedule: exponential gaps at a fixed rate,
/// as due times in nanoseconds from the start of the schedule.
pub struct Arrivals {
    rng: StdRng,
    mean_gap_ns: f64,
    clock_ns: f64,
}

impl Arrivals {
    /// Arrivals at `rate` per second.
    pub fn new(rate: f64, seed: u64) -> Self {
        Arrivals {
            rng: StdRng::seed_from_u64(seed ^ ARRIVAL_SALT),
            mean_gap_ns: 1e9 / rate,
            clock_ns: 0.0,
        }
    }

    /// The due time of the next arrival.
    pub fn next_due(&mut self) -> u64 {
        let u: f64 = self.rng.gen();
        self.clock_ns += -(1.0 - u).ln() * self.mean_gap_ns;
        self.clock_ns as u64
    }
}

/// An event waiting in the admission queue.
#[derive(Debug, Clone, Copy)]
pub struct Queued {
    pub event: NodeEvent,
    pub due_ns: u64,
}

/// Moves events from the front of `queue` into `batch` (cleared first):
/// at most `max`, stopping at the first event whose node is already
/// aboard — it must commit after this batch, so it stays at the front.
pub fn take_batch(queue: &mut VecDeque<Queued>, max: usize, batch: &mut Vec<Queued>) {
    batch.clear();
    while batch.len() < max {
        let Some(next) = queue.front() else { break };
        if batch.iter().any(|b| b.event.node() == next.event.node()) {
            break;
        }
        batch.push(queue.pop_front().expect("peeked"));
    }
}

/// The engine plus what the stream needs to continue from it.
struct Served {
    topo: DeltaTopology<GeometricMetric>,
    stream: EventStream,
    model: PowerLaw,
}

/// Generates the layout and builds the initial maintained construction.
fn build(seed: u64) -> Served {
    let model = PowerLaw::paper_default();
    // The density of `cbtc serve`: an average max-power degree of ≈ 18.
    let range = model.max_range();
    let side = (SLOTS as f64 * std::f64::consts::PI * range * range / 18.0).sqrt();
    let layout = RandomPlacement::new(SLOTS, side, side, model.max_range()).generate_layout(seed);
    let standby = (SLOTS as f64 * STANDBY_FRACTION) as usize;
    let first_standby = SLOTS - standby;
    let active: Vec<bool> = (0..SLOTS).map(|i| i < first_standby).collect();
    let positions: Vec<Point2> = layout.iter().map(|(_, p)| p).collect();
    let topo = DeltaTopology::new(
        layout,
        active,
        model.max_range(),
        config(),
        false,
        GeometricMetric,
    );
    Served {
        topo,
        stream: EventStream::new(positions, first_standby, side, seed),
        model,
    }
}

/// Whether the maintained graph equals a from-scratch construction over
/// the engine's current layout and membership.
fn matches_scratch(served: &Served) -> bool {
    let network = Network::new(served.topo.layout().clone(), served.model);
    let scratch = run_centralized_masked(&network, &config(), served.topo.active());
    served.topo.graph() == scratch.final_graph()
}

/// Per-commit engine counters.
#[derive(Default)]
struct EngineWork {
    events: u64,
    batches: u64,
    regrown: u64,
    grid_scans: u64,
}

impl EngineWork {
    fn commit(&mut self, topo: &mut DeltaTopology<GeometricMetric>, batch: &[Queued]) {
        let events: Vec<NodeEvent> = batch.iter().map(|q| q.event).collect();
        topo.apply(&events);
        self.events += batch.len() as u64;
        self.batches += 1;
        self.regrown += topo.last_regrown() as u64;
        self.grid_scans += topo.last_grid_scans() as u64;
    }

    fn mean_batch(&self) -> f64 {
        ratio(self.events, self.batches)
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// What the backlogged phase measured.
struct Backlogged {
    /// Event rates of the chunks committed without metrics.
    plain: Vec<f64>,
    /// Event rates of the chunks committed with metrics installed.
    observed: Vec<f64>,
    work: EngineWork,
}

/// The backlogged phase: `events` events through back-to-back commits,
/// timed per chunk. In a traced run every odd chunk commits with the
/// engine's metrics installed.
fn backlogged(served: &mut Served, events: u64, trace: bool) -> Backlogged {
    let mut work = EngineWork::default();
    let mut queue: VecDeque<Queued> = VecDeque::with_capacity(BATCH_MAX);
    let mut batch = Vec::with_capacity(BATCH_MAX);
    let (mut plain, mut observed) = (Vec::new(), Vec::new());
    let mut generated = 0u64;
    for chunk in 0..CHUNKS as u64 {
        let metered = trace && chunk % 2 == 1;
        served.topo.set_metrics(&if metered {
            MetricsRegistry::enabled()
        } else {
            MetricsRegistry::disabled()
        });
        let target = events * (chunk + 1) / CHUNKS as u64;
        let before = work.events;
        let t = Instant::now();
        while work.events < target {
            while queue.len() < BATCH_MAX && generated < events {
                queue.push_back(Queued {
                    event: served.stream.next_event(),
                    due_ns: 0,
                });
                generated += 1;
            }
            take_batch(&mut queue, BATCH_MAX, &mut batch);
            work.commit(&mut served.topo, &batch);
        }
        let rate = (work.events - before) as f64 / t.elapsed().as_secs_f64();
        if metered {
            observed.push(rate);
        } else {
            plain.push(rate);
        }
    }
    served.topo.set_metrics(&MetricsRegistry::disabled());
    Backlogged {
        plain,
        observed,
        work,
    }
}

/// Timings of the open-loop phase, all in nanoseconds.
#[derive(Default)]
struct OpenLoop {
    /// Per event: due → end of its commit.
    response: Vec<f64>,
    /// Per event: due → start of its commit.
    wait: Vec<f64>,
    /// Per commit: the `apply` call.
    apply: Vec<f64>,
    /// Per commit that began from an idle engine: its start minus the
    /// due time of its first event.
    gen_late: Vec<f64>,
    /// Events due but not committed when the last one fell due.
    backlog_end: u64,
    work: EngineWork,
}

/// The open-loop phase: `events` events arriving on `arrivals`.
fn open_loop(served: &mut Served, events: u64, mut arrivals: Arrivals) -> OpenLoop {
    let mut out = OpenLoop {
        response: Vec::with_capacity(events as usize),
        wait: Vec::with_capacity(events as usize),
        ..OpenLoop::default()
    };
    let mut queue: VecDeque<Queued> = VecDeque::new();
    let mut batch = Vec::with_capacity(BATCH_MAX);
    let mut generated = 0u64;
    let mut next_due = arrivals.next_due();
    let mut from_idle = false;
    let start = Instant::now();
    let now = || start.elapsed().as_nanos() as u64;
    while out.work.events < events {
        let t = now();
        while generated < events && next_due <= t {
            queue.push_back(Queued {
                event: served.stream.next_event(),
                due_ns: next_due,
            });
            generated += 1;
            if generated == events {
                // The schedule has ended: whatever is queued is backlog.
                out.backlog_end = queue.len() as u64;
            } else {
                next_due = arrivals.next_due();
            }
        }
        if queue.is_empty() {
            while now() < next_due {
                std::hint::spin_loop();
            }
            from_idle = true;
            continue;
        }
        take_batch(&mut queue, BATCH_MAX, &mut batch);
        let begin = now();
        if from_idle {
            out.gen_late
                .push(begin.saturating_sub(batch[0].due_ns) as f64);
            from_idle = false;
        }
        out.work.commit(&mut served.topo, &batch);
        let end = now();
        out.apply.push((end - begin) as f64);
        for q in &batch {
            out.response.push(end.saturating_sub(q.due_ns) as f64);
            out.wait.push(begin.saturating_sub(q.due_ns) as f64);
        }
    }
    out
}

/// The `serve` workload.
pub fn run(args: &Args) -> Outcome {
    let (mut served, setup_s) = set_up(SETUP_REPS, || build(args.seed));
    let mut outcome = Outcome::new();

    let backlogged_events = (BACKLOGGED_PER_S * args.seconds).round().max(CHUNKS as f64) as u64;
    let open_events = (RATE * OPEN_LOOP_SHARE * args.seconds).round().max(1.0) as u64;
    outcome.attempted = backlogged_events + open_events;

    let Backlogged {
        plain,
        observed,
        work,
    } = backlogged(&mut served, backlogged_events, args.trace);
    let backlogged_batch = work.mean_batch();
    outcome.check(
        matches_scratch(&served),
        backlogged_events,
        "serve: graph drifted from scratch after the backlogged phase",
    );
    let edges_backlogged = served.topo.graph().edge_count() as u64;

    let registry = if args.trace {
        MetricsRegistry::enabled()
    } else {
        MetricsRegistry::disabled()
    };
    served.topo.set_metrics(&registry);
    let open = open_loop(&mut served, open_events, Arrivals::new(RATE, args.seed));
    let open_work = &open.work;
    served.topo.set_metrics(&MetricsRegistry::disabled());
    outcome.check(
        matches_scratch(&served),
        open_events,
        "serve: graph drifted from scratch after the open-loop phase",
    );

    // Open-loop validity: a schedule that ends with more queued than
    // arrives within one latency limit outran the engine.
    let saturated = open.backlog_end as f64 > RATE * LATENCY_LIMIT_NS as f64 * 1e-9;
    if saturated {
        eprintln!(
            "serve: saturated — {} events still queued when the schedule ended; \
             the open-loop phase is invalid",
            open.backlog_end
        );
        outcome.failed += open_events;
    } else {
        outcome.failed += open
            .response
            .iter()
            .filter(|&&r| r > LATENCY_LIMIT_NS as f64)
            .count() as u64;
    }
    outcome.failed = outcome.failed.min(outcome.attempted);
    outcome.fingerprint = vec![
        ("edges_after_backlogged", edges_backlogged),
        (
            "edges_after_open_loop",
            served.topo.graph().edge_count() as u64,
        ),
        (
            "active_after_open_loop",
            served.topo.active().iter().filter(|a| **a).count() as u64,
        ),
    ];

    // The q-quantile of sorted samples, or their tail when too few lie
    // beyond it; 0 for no samples.
    let pct = |v: &[f64], q: f64| match v {
        [] => 0.0,
        _ => percentile(v, q).unwrap_or_else(|| tail(v)),
    };
    if args.trace {
        let response = sorted(&open.response);
        let snap = registry.snapshot();
        let apply = sorted(&open.apply);
        let wait = sorted(&open.wait);
        let late = sorted(&open.gen_late);
        outcome.set(
            "obs.overhead_ratio",
            median(&plain) / median(&observed) - 1.0,
        );
        outcome.set("serve.apply_us.p50", median(&apply) * 1e-3);
        outcome.set("serve.apply_us.p99", pct(&apply, 0.99) * 1e-3);
        outcome.set(
            "serve.regrown_per_event",
            ratio(open_work.regrown, open_work.events),
        );
        outcome.set(
            "serve.grid_scan_ratio",
            ratio(open_work.grid_scans, open_work.regrown),
        );
        outcome.set(
            "serve.affected.p99",
            snap.histogram("reconfig.affected").map_or(0, |h| h.p99) as f64,
        );
        let churn = snap.counter("reconfig.edges_added").unwrap_or(0)
            + snap.counter("reconfig.edges_removed").unwrap_or(0);
        outcome.set("serve.edge_churn_per_event", ratio(churn, open_work.events));
        outcome.set("serve.wait_us.p50", median(&wait) * 1e-3);
        outcome.set("serve.wait_us.p99", pct(&wait, 0.99) * 1e-3);
        outcome.set("serve.batch_size.mean.backlogged", backlogged_batch);
        outcome.set("serve.batch_size.mean.open_loop", open_work.mean_batch());
        outcome.set("serve.p99_us", pct(&response, 0.99) * 1e-3);
        outcome.set("serve.p999_us", pct(&response, 0.999) * 1e-3);
        outcome.set("serve.gen_late_us.p99", pct(&late, 0.99) * 1e-3);
        outcome.set("serve.backlog_end", open.backlog_end as f64);
        outcome.set(
            "host.planned_threads",
            planned_threads(SLOTS, PAR_MIN_CHUNK) as f64,
        );
    } else {
        // Host pauses only ever add time, so the calmer part of the run
        // measures the engine and its own queueing rather than the
        // neighbours: capacity is the upper quartile of the chunk rates,
        // and each latency percentile is taken per window of the
        // schedule and summarized by its lower quartile over the windows.
        outcome.set("setup_s", setup_s);
        outcome.set("throughput_per_s", quantile(&plain, 0.75));
        let windows: Vec<Vec<f64>> = open
            .response
            .chunks(open.response.len().div_ceil(WINDOWS))
            .map(sorted)
            .collect();
        let calm = |f: &dyn Fn(&[f64]) -> f64| {
            quantile(&windows.iter().map(|w| f(w)).collect::<Vec<_>>(), 0.25) * 1e-6
        };
        outcome.set("latency_p50_ms", calm(&|w| median(w)));
        outcome.set("latency_tail_ms", calm(&|w| pct(w, TAIL_Q)));
        outcome.set("peak_rss_mb", peak_rss_mb());
    }
    eprintln!(
        "serve: {backlogged_events} backlogged events (mean batch {backlogged_batch:.2}), \
         {open_events} open-loop events at {RATE} ev/s (mean batch {:.2}), backlog at end {}, \
         {} worker thread(s) available",
        open_work.mean_batch(),
        open.backlog_end,
        effective_parallelism(),
    );
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moved(u: u32) -> Queued {
        Queued {
            event: NodeEvent::Move(NodeId::new(u), Point2::new(0.0, 0.0)),
            due_ns: u64::from(u),
        }
    }

    #[test]
    fn arrival_schedule_is_deterministic_in_the_seed() {
        let draw = |seed| {
            let mut a = Arrivals::new(RATE, seed);
            (0..1000).map(|_| a.next_due()).collect::<Vec<u64>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let dues = draw(7);
        assert!(dues.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        // 1000 arrivals at 7.5k/s span about 133 ms.
        let span = *dues.last().unwrap() as f64 * 1e-9;
        assert!((0.11..0.16).contains(&span), "span {span}");
    }

    #[test]
    fn batch_is_cut_on_a_node_conflict() {
        let mut queue: VecDeque<Queued> = [1, 2, 3, 2, 4].into_iter().map(moved).collect();
        let mut batch = Vec::new();
        take_batch(&mut queue, BATCH_MAX, &mut batch);
        let nodes: Vec<u32> = batch.iter().map(|q| q.event.node().raw()).collect();
        assert_eq!(
            nodes,
            vec![1, 2, 3],
            "the second event at node 2 opens the next batch"
        );
        assert_eq!(queue.front().unwrap().event.node().raw(), 2);
        take_batch(&mut queue, BATCH_MAX, &mut batch);
        assert_eq!(batch.len(), 2);
        assert!(queue.is_empty());
    }

    #[test]
    fn batch_is_capped() {
        let mut queue: VecDeque<Queued> = (0..40).map(moved).collect();
        let mut batch = Vec::new();
        take_batch(&mut queue, BATCH_MAX, &mut batch);
        assert_eq!(batch.len(), BATCH_MAX);
        assert_eq!(queue.len(), 40 - BATCH_MAX);
    }

    #[test]
    fn event_stream_is_deterministic_and_keeps_membership_valid() {
        let positions: Vec<Point2> = (0..100).map(|i| Point2::new(f64::from(i), 0.0)).collect();
        let mut a = EventStream::new(positions.clone(), 95, 1000.0, 3);
        let mut b = EventStream::new(positions, 95, 1000.0, 3);
        let mut active: Vec<bool> = (0..100).map(|i| i < 95).collect();
        for _ in 0..5000 {
            let e = a.next_event();
            assert_eq!(e, b.next_event());
            match e {
                NodeEvent::Death(u) => {
                    assert!(active[u.index()]);
                    active[u.index()] = false;
                }
                NodeEvent::Join(u, _) => {
                    assert!(!active[u.index()]);
                    active[u.index()] = true;
                }
                NodeEvent::Move(u, _) => assert!(active[u.index()]),
            }
        }
        assert!(active.iter().filter(|a| **a).count() >= 50);
    }
}
