//! The reconfiguration service: sustained churn streams through
//! [`DeltaTopology`] engines, measured like a production system.
//!
//! ROADMAP item 3's serving story, grown into a sharded, batched
//! pipeline:
//!
//! * **Group commit** — the stream's events are coalesced into mixed
//!   batches of up to `batch_max`, committed through `apply`'s
//!   mixed-batch path instead of one call per event. A batch is cut early
//!   when the next event concerns a node already in it (the engine
//!   requires one event per node per batch); the conflicting event opens
//!   the next batch. Every event in a batch observes the batch's commit
//!   latency — the group-commit trade: amortized throughput for a bounded
//!   latency spread. `batch_max = 1` commits event at a time, as
//!   schema v1 did. The generator is closed-loop (the next event is always
//!   ready), so batch size is the only batching knob; there is no
//!   admission window to wait out.
//! * **Sharded multi-stream serving** — `streams > 1` runs that many
//!   independent engines over spatially partitioned sub-fields (equal
//!   vertical strips, equal density), each with its own deterministic
//!   generator and metrics shard. The event router is round-robin by
//!   arrival index, so stream `s`'s substream is exactly the standalone
//!   run of [`stream_plan`]`(config, seed, s)` — what the equivalence
//!   property suite asserts. Shard histograms and registries merge
//!   exactly ([`MetricsSnapshot::merge`]) into one aggregate report.
//!
//! Every stream's final maintained graph is judged bit-for-bit against
//! a from-scratch `CBTC(α)` construction over its final membership and
//! positions, so a throughput number can never be bought with drift.
//!
//! ## Paper map (group commit vs §4)
//!
//! | §4 notion | here |
//! |-----------|------|
//! | reconfiguration ops arrive one at a time | group commit batches them; Theorem 4.1's "equals a full re-run" holds per *batch*, so the commit point sees the same graph as op-at-a-time application |
//! | ops at distinct nodes commute | the batch cut on node conflict is exactly the non-commuting case: two ops at one node must order through separate batches |
//!
//! The stream mix is deterministic in the seed: weighted `Move`
//! (bounded random displacement), `Death` (random active node, floored
//! so the population never collapses), and `Join` (random standby slot
//! re-entering at a fresh position). Deaths feed the standby pool and
//! joins drain it, so membership hovers around its starting point. The
//! generator tracks positions itself, so the *event sequence* is a
//! function of the seed alone — identical across batch sizes, stream
//! counts and thread schedules.

use std::time::Instant;

use cbtc_core::parallel::{detected_cores, par_map, planned_threads};
use cbtc_core::reconfig::{DeltaTopology, GeometricMetric, NodeEvent};
use cbtc_core::{run_centralized_masked, CbtcConfig, Network};
use cbtc_geom::{Alpha, Point2};
use cbtc_graph::NodeId;
use cbtc_metrics::{HistogramSnapshot, LogHistogram, MetricsRegistry, MetricsSnapshot};
use cbtc_radio::{PathLoss, PowerLaw};
use cbtc_trace::{TraceEvent, TraceHandle, TRACE_VERSION};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::RandomPlacement;

/// Parameters of a reconfiguration-service run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Node slots (active population plus the standby join pool),
    /// summed across streams.
    pub nodes: usize,
    /// Events to stream, summed across streams.
    pub events: u64,
    /// Field width (split into `streams` equal strips).
    pub width: f64,
    /// Field height.
    pub height: f64,
    /// The cone angle α of the maintained topology.
    pub alpha: Alpha,
    /// `Death` events per 1000 (the rest after deaths + joins are
    /// `Move`s). Deaths are skipped (demoted to `Move`) when the active
    /// population has fallen to half the slots.
    pub death_per_mille: u32,
    /// `Join` events per 1000. Joins are demoted to `Move` when the
    /// standby pool is empty.
    pub join_per_mille: u32,
    /// Maximum per-axis displacement of one `Move` event.
    pub max_step: f64,
    /// Fraction of slots that start in the standby pool (inactive,
    /// available to `Join`).
    pub standby_fraction: f64,
    /// Most events one group commit may coalesce; `1` commits every
    /// event alone, the schema-v1 behavior (`0` is treated as `1`). The
    /// generator is closed-loop, so each batch fills to `batch_max` or to
    /// the first event whose node is already aboard.
    pub batch_max: u32,
    /// Independent sharded engines ( ≥ 1). See [`stream_plan`] for how
    /// slots, field and events partition.
    pub streams: u32,
    /// When nonzero and a trace + metrics are installed: each stream
    /// snapshots its metrics shard every this-many *local* events, and
    /// the run emits the snapshots as periodic [`TraceEvent::Metrics`]
    /// records — the live percentile timeline `cbtc analyze` renders.
    pub metrics_every: u64,
}

impl ServiceConfig {
    /// A run sized for `nodes` slots and `events` events: the field is
    /// scaled so the max-power graph keeps an average degree of ≈ 18
    /// under the paper's radio (`R = 500`) — the same density the churn
    /// suite uses — with a 5 % standby pool and a 90/5/5 move/death/join
    /// mix. Batching and sharding default off (`batch_max = 1`, one
    /// stream), reproducing the schema-v1 single-stream run.
    pub fn sized(nodes: usize, events: u64) -> Self {
        let range = PowerLaw::paper_default().max_range();
        let side = (nodes as f64 * std::f64::consts::PI * range * range / 18.0).sqrt();
        ServiceConfig {
            nodes,
            events,
            width: side,
            height: side,
            alpha: Alpha::FIVE_PI_SIXTHS,
            death_per_mille: 50,
            join_per_mille: 50,
            max_step: 50.0,
            standby_fraction: 0.05,
            batch_max: 1,
            streams: 1,
            metrics_every: 0,
        }
    }
}

/// The slice of a sharded run one stream serves: a [`ServiceConfig`]
/// with `streams = 1` over the stream's own sub-field, plus the
/// stream's seed.
///
/// The partition is deterministic and exact:
///
/// * **slots**: `nodes / streams`, remainder to the lowest streams;
/// * **field**: a `width / streams` vertical strip of full height —
///   every strip keeps the global node density;
/// * **events**: round-robin by arrival index, so `events / streams`
///   with the remainder to the lowest streams;
/// * **seed**: `seed ^ (stream · golden-ratio-odd)`, so substreams are
///   decorrelated while stream 0 of a one-stream plan keeps the
///   original seed (the sharded server with `streams = 1` *is* the
///   single-stream server).
///
/// Running [`run_service`] on the returned plan reproduces stream
/// `stream` of the sharded run bit for bit — the equivalence the
/// property suite pins.
///
/// # Panics
///
/// Panics if `stream` is out of range.
pub fn stream_plan(config: &ServiceConfig, seed: u64, stream: u32) -> (ServiceConfig, u64) {
    let streams = config.streams.max(1);
    assert!(stream < streams, "stream {stream} out of {streams}");
    let (s, n) = (streams as usize, stream as usize);
    let nodes = config.nodes / s + usize::from(n < config.nodes % s);
    let events = config.events / u64::from(streams)
        + u64::from(u64::from(stream) < config.events % u64::from(streams));
    let plan = ServiceConfig {
        nodes,
        events,
        width: config.width / streams as f64,
        streams: 1,
        ..*config
    };
    (
        plan,
        seed ^ u64::from(stream).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// One stream's share of a [`ServiceReport`]: its own throughput,
/// per-kind latency and integrity verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamReport {
    /// Stream index.
    pub stream: u32,
    /// Node slots this stream owns.
    pub nodes: u32,
    /// Events this stream served.
    pub events: u64,
    /// `Move` events applied.
    pub moves: u64,
    /// `Join` events applied.
    pub joins: u64,
    /// `Death` events applied.
    pub deaths: u64,
    /// Group commits executed.
    pub batches: u64,
    /// Wall-clock seconds in this stream's event loop.
    pub elapsed_secs: f64,
    /// This stream's sustained throughput.
    pub events_per_sec: f64,
    /// Latency histograms: per kind (`move`, `join`, `death`), the
    /// combined `all` series (all four charge each event its group
    /// commit's latency), the per-commit `batch` series, and the
    /// `batch_size` distribution (events per commit).
    pub latency: Vec<HistogramSnapshot>,
    /// Active nodes at the end of the stream.
    pub final_active: u32,
    /// Edges of this stream's final maintained topology.
    pub final_edges: u64,
    /// Whether this stream's final maintained graph is bit-identical to
    /// a from-scratch construction over its final membership/positions.
    pub matches_scratch: bool,
}

impl StreamReport {
    /// The named latency series, if present.
    pub fn latency_for(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.latency.iter().find(|h| h.name == name)
    }
}

/// The outcome of a service run: aggregate throughput, merged per-kind
/// latency percentiles, per-stream shares, final-state integrity, and
/// the merged metrics snapshot. This is the `BENCH_reconfig.json`
/// schema (v3; v2 also recorded an admission-window length that batching
/// never consulted, v1 was the single-stream, event-at-a-time report).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Schema version of this report.
    pub schema_version: u32,
    /// Node slots across all streams.
    pub nodes: u32,
    /// Events streamed across all streams.
    pub events: u64,
    /// Streams served.
    pub streams: u32,
    /// The group-commit size cap (`1` = event-at-a-time).
    pub batch_max: u32,
    /// Hardware cores visible to the run.
    pub detected_cores: u32,
    /// Worker threads the stream fan-out planned:
    /// [`planned_threads`]`(streams, 1)`, so `1` when the streams ran
    /// sequentially — one stream, one core, or a thread cap of one.
    pub stream_workers: u32,
    /// Wall-clock seconds from first admission to last commit (streams
    /// overlap, so this is the *aggregate* window, not a sum).
    pub elapsed_secs: f64,
    /// Sustained aggregate throughput.
    pub events_per_sec: f64,
    /// `Move` events applied, all streams.
    pub moves: u64,
    /// `Join` events applied, all streams.
    pub joins: u64,
    /// `Death` events applied, all streams.
    pub deaths: u64,
    /// Group commits executed, all streams.
    pub batches: u64,
    /// Merged latency histograms (exact shard merges): `move`, `join`,
    /// `death`, `all`, per-commit `batch`, and the `batch_size`
    /// distribution.
    pub latency: Vec<HistogramSnapshot>,
    /// Each stream's own report, ascending by stream index.
    pub per_stream: Vec<StreamReport>,
    /// Active nodes at the end, all streams.
    pub final_active: u32,
    /// Edges of the final maintained topologies, all streams.
    pub final_edges: u64,
    /// Whether **every** stream's final maintained graph is
    /// bit-identical to its from-scratch construction.
    pub matches_scratch: bool,
    /// The merged metrics snapshot: every stream's registry shard
    /// folded into the caller's registry snapshot (which carries the
    /// process-wide `par.*` fan-out series when installed). Empty when
    /// the service ran without metrics.
    pub metrics: MetricsSnapshot,
}

impl ServiceReport {
    /// The named merged latency series, if present.
    pub fn latency_for(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.latency.iter().find(|h| h.name == name)
    }
}

/// Event kinds; a kind's discriminant indexes its count and its
/// latency series in [`SERIES`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Move,
    Join,
    Death,
}

/// The latency series of every report, in report order: one per
/// [`Kind`], then every event (`all`), per-commit nanos (`batch`) and
/// events per commit (`batch_size`).
const SERIES: [&str; 6] = ["move", "join", "death", "all", "batch", "batch_size"];
const ALL: usize = 3;
const BATCH: usize = 4;
const BATCH_SIZE: usize = 5;

/// One [`LogHistogram`] per entry of [`SERIES`].
type Series = [LogHistogram; 6];

fn snapshots(series: &Series) -> Vec<HistogramSnapshot> {
    SERIES
        .iter()
        .zip(series)
        .map(|(name, hist)| HistogramSnapshot::of(name, hist))
        .collect()
}

/// The deterministic event source of one stream. It owns the membership
/// bookkeeping *and* a shadow of every slot's position, so the sequence
/// it produces depends on the seed alone — never on when (or in what
/// batch) the engine applies the events. That independence is what
/// makes batched, sharded and threaded runs bit-identical to the
/// event-at-a-time baseline.
struct EventGen {
    rng: StdRng,
    active_ids: Vec<NodeId>,
    standby_ids: Vec<NodeId>,
    positions: Vec<Point2>,
    min_active: usize,
    death_cut: u32,
    join_cut: u32,
    width: f64,
    height: f64,
    max_step: f64,
}

impl EventGen {
    fn next(&mut self) -> (NodeEvent, Kind) {
        let roll: u32 = self.rng.gen_range(0..1000);
        if roll < self.death_cut && self.active_ids.len() > self.min_active {
            let victim = self
                .active_ids
                .swap_remove(self.rng.gen_range(0..self.active_ids.len()));
            self.standby_ids.push(victim);
            (NodeEvent::Death(victim), Kind::Death)
        } else if roll < self.join_cut && !self.standby_ids.is_empty() {
            let joiner = self
                .standby_ids
                .swap_remove(self.rng.gen_range(0..self.standby_ids.len()));
            self.active_ids.push(joiner);
            let p = Point2::new(
                self.rng.gen_range(0.0..self.width),
                self.rng.gen_range(0.0..self.height),
            );
            self.positions[joiner.index()] = p;
            (NodeEvent::Join(joiner, p), Kind::Join)
        } else {
            let mover = self.active_ids[self.rng.gen_range(0..self.active_ids.len())];
            let p = self.positions[mover.index()];
            let p = Point2::new(
                (p.x + self.rng.gen_range(-self.max_step..self.max_step)).clamp(0.0, self.width),
                (p.y + self.rng.gen_range(-self.max_step..self.max_step)).clamp(0.0, self.height),
            );
            self.positions[mover.index()] = p;
            (NodeEvent::Move(mover, p), Kind::Move)
        }
    }
}

/// What one stream hands back to the driver: live histograms (merged
/// exactly into the aggregate), counts, its integrity verdict, its
/// metrics shard and the periodic checkpoint snapshots.
struct StreamOutcome {
    /// Events applied, by [`Kind`].
    counts: [u64; 3],
    batches: u64,
    series: Series,
    elapsed_secs: f64,
    events: u64,
    nodes: u32,
    final_active: u32,
    final_edges: u64,
    matches_scratch: bool,
    snapshot: MetricsSnapshot,
    /// `(local events done, shard snapshot)` at each `metrics_every`
    /// boundary.
    checkpoints: Vec<(u64, MetricsSnapshot)>,
    /// The engine's trace records, in commit order (traced runs only).
    records: Vec<TraceEvent>,
}

impl StreamOutcome {
    fn into_report(self, stream: u32) -> StreamReport {
        StreamReport {
            stream,
            nodes: self.nodes,
            events: self.events,
            moves: self.counts[Kind::Move as usize],
            joins: self.counts[Kind::Join as usize],
            deaths: self.counts[Kind::Death as usize],
            batches: self.batches,
            elapsed_secs: self.elapsed_secs,
            events_per_sec: self.events as f64 / self.elapsed_secs.max(f64::MIN_POSITIVE),
            latency: snapshots(&self.series),
            final_active: self.final_active,
            final_edges: self.final_edges,
            matches_scratch: self.matches_scratch,
        }
    }
}

/// Serves one stream: build the engine over the stream's sub-field,
/// pump its whole event share through group commits, verify against a
/// from-scratch construction. `config.streams` must be 1 (see
/// [`stream_plan`]). With `trace_timing` set, the engine records into
/// the stream's own in-memory trace (wall-clock timing as given),
/// returned in the outcome's `records`.
fn run_stream(
    config: &ServiceConfig,
    seed: u64,
    stream: u32,
    metrics_enabled: bool,
    trace_timing: Option<bool>,
) -> StreamOutcome {
    let model = PowerLaw::paper_default();
    let cbtc = CbtcConfig::new(config.alpha);
    let layout = RandomPlacement::new(config.nodes, config.width, config.height, model.max_range())
        .generate_layout(seed);
    // The standby pool is the tail of the slot space; joins re-enter at
    // fresh positions, so which slots start inactive is immaterial.
    let standby = ((config.nodes as f64 * config.standby_fraction) as usize).min(config.nodes - 2);
    let first_standby = config.nodes - standby;
    let active: Vec<bool> = (0..config.nodes).map(|i| i < first_standby).collect();
    let positions: Vec<Point2> = layout.node_ids().map(|u| layout.position(u)).collect();
    let mut topo = DeltaTopology::new(
        layout,
        active,
        model.max_range(),
        cbtc,
        false,
        GeometricMetric,
    );
    let shard = if metrics_enabled {
        MetricsRegistry::enabled()
    } else {
        MetricsRegistry::disabled()
    };
    topo.set_metrics(&shard);
    let stream_gauge = shard.gauge("serve.stream");
    let progress_gauge = shard.gauge("serve.events_done");
    stream_gauge.set(f64::from(stream));
    let trace = trace_timing.map(|timing| {
        let (handle, records) = TraceHandle::in_memory();
        let handle = handle.with_timing(timing);
        topo.set_trace(handle.clone());
        (handle, records)
    });

    let mut gen = EventGen {
        rng: StdRng::seed_from_u64(seed ^ 0x5E7C_E0D5),
        active_ids: (0..first_standby as u32).map(NodeId::new).collect(),
        standby_ids: (first_standby as u32..config.nodes as u32)
            .map(NodeId::new)
            .collect(),
        positions,
        min_active: config.nodes / 2,
        death_cut: config.death_per_mille,
        join_cut: config.death_per_mille + config.join_per_mille,
        width: config.width,
        height: config.height,
        max_step: config.max_step,
    };

    let cap = config.batch_max.max(1) as usize;
    let mut outcome = StreamOutcome {
        counts: [0; 3],
        batches: 0,
        series: Series::default(),
        elapsed_secs: 0.0,
        events: config.events,
        nodes: config.nodes as u32,
        final_active: 0,
        final_edges: 0,
        matches_scratch: false,
        snapshot: MetricsSnapshot::default(),
        checkpoints: Vec::new(),
        records: Vec::new(),
    };
    let mut batch: Vec<NodeEvent> = Vec::with_capacity(cap);
    let mut kinds: Vec<Kind> = Vec::with_capacity(cap);
    let mut pending: Option<(NodeEvent, Kind)> = None;
    let mut generated = 0u64;
    let mut done = 0u64;
    let checkpointing = config.metrics_every > 0 && metrics_enabled && trace.is_some();

    let loop_start = Instant::now();
    while done < config.events {
        batch.clear();
        kinds.clear();
        if let Some((event, kind)) = pending.take() {
            batch.push(event);
            kinds.push(kind);
        }
        // Group-commit admission: coalesce up to `cap`, cut on the
        // first event whose node is already aboard (it must order
        // after this commit) or when the stream's share is exhausted.
        while batch.len() < cap && generated < config.events {
            let (event, kind) = gen.next();
            generated += 1;
            if batch.iter().any(|b| b.node() == event.node()) {
                pending = Some((event, kind));
                break;
            }
            batch.push(event);
            kinds.push(kind);
        }
        if trace.is_some() {
            topo.set_trace_clock(done as f64);
        }
        let t0 = Instant::now();
        topo.apply(&batch);
        let nanos = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        outcome.batches += 1;
        outcome.series[BATCH].record(nanos);
        outcome.series[BATCH_SIZE].record(batch.len() as u64);
        for &kind in &kinds {
            // Group commit: each coalesced event observes its batch's
            // commit latency.
            outcome.counts[kind as usize] += 1;
            outcome.series[kind as usize].record(nanos);
            outcome.series[ALL].record(nanos);
        }
        let before = done;
        done += batch.len() as u64;
        if checkpointing && done / config.metrics_every > before / config.metrics_every {
            progress_gauge.set(done as f64);
            outcome.checkpoints.push((done, shard.snapshot()));
        }
    }
    outcome.elapsed_secs = loop_start.elapsed().as_secs_f64();

    let network = Network::new(topo.layout().clone(), model);
    let scratch = run_centralized_masked(&network, &cbtc, topo.active()).into_final_graph();
    outcome.matches_scratch = *topo.graph() == scratch;
    outcome.final_active = gen.active_ids.len() as u32;
    outcome.final_edges = topo.graph().edge_count() as u64;
    progress_gauge.set(done as f64);
    outcome.snapshot = shard.snapshot();
    if let Some((_, records)) = trace {
        outcome.records = std::mem::take(&mut records.lock().expect("trace buffer"));
    }
    outcome
}

/// Runs the service: every stream of `config` (see [`stream_plan`])
/// through its own engine, merged into one report. The report's own
/// latency series are always measured.
///
/// Every stream's `reconfig.*` series land in a per-stream registry
/// shard, merged (with `registry`'s own snapshot — the home of the
/// process-wide `par.*` fan-out series) into the report's `metrics`;
/// pass [`MetricsRegistry::disabled`] for none. When a trace is supplied
/// the run streams a `Meta` header, every engine's per-commit `Reconfig`
/// samples (stamped with the stream's local event clock) stream by
/// stream, periodic [`TraceEvent::Metrics`] checkpoints (nonzero
/// `metrics_every`, metrics enabled) in ascending local-time order, and
/// the final merged [`TraceEvent::Metrics`] record. Each stream records
/// into its own in-memory trace with the caller's timing switch,
/// appended to the caller's in stream order after the fan-out, so with
/// timing off two same-seed traces are byte-identical at any worker
/// count.
///
/// Streams fan out through [`par_map`], one stream per item, on
/// [`planned_threads`]`(streams, 1)` workers (`stream_workers` in the
/// report), so [`cbtc_core::parallel::set_thread_cap`] applies. The
/// outcome is bit-identical at any worker count: streams share nothing,
/// and each stream's substream is deterministic in the seed.
/// Inside a stream worker the engine's own re-grow fan-out runs inline
/// (the workers already own the cores); when the streams run inline —
/// one stream, or one worker — the engine fans re-grows out itself.
///
/// The hooks only observe: the maintained graphs, the event streams,
/// and every report field except the wall-clock timings are
/// bit-identical whether or not a registry or trace is installed.
///
/// # Panics
///
/// Panics on a config with no streams, fewer than two node slots or one
/// event per stream, non-positive field dimensions, or an event mix
/// exceeding 1000 per mille.
pub fn run_service(
    config: &ServiceConfig,
    seed: u64,
    registry: &MetricsRegistry,
    trace: Option<&TraceHandle>,
) -> ServiceReport {
    let streams = config.streams;
    assert!(streams >= 1, "need at least one stream");
    assert!(
        config.nodes >= 2 * streams as usize,
        "need at least two node slots per stream"
    );
    assert!(
        config.events >= u64::from(streams),
        "need at least one event per stream"
    );
    assert!(
        config.width > 0.0 && config.height > 0.0,
        "field dimensions must be positive"
    );
    assert!(
        config.death_per_mille + config.join_per_mille <= 1000,
        "event mix exceeds 1000 per mille"
    );
    assert!(
        (0.0..1.0).contains(&config.standby_fraction),
        "standby fraction must be in [0, 1)"
    );

    if let Some(trace) = trace {
        trace.record(TraceEvent::Meta {
            version: TRACE_VERSION,
            run: format!("serve/{}-nodes-{}-streams", config.nodes, streams),
            nodes: config.nodes as u32,
            seed,
            alpha: config.alpha.radians(),
            width: config.width,
            height: config.height,
            pricing: "geometric".to_owned(),
        });
    }

    let plans: Vec<(u32, ServiceConfig, u64)> = (0..streams)
        .map(|s| {
            let (plan, stream_seed) = stream_plan(config, seed, s);
            (s, plan, stream_seed)
        })
        .collect();
    let stream_workers = planned_threads(plans.len(), 1);
    let metrics_enabled = registry.is_enabled();
    let start = Instant::now();
    let trace_timing = trace.map(TraceHandle::timing);
    let mut outcomes: Vec<StreamOutcome> = par_map(&plans, 1, |(s, plan, stream_seed)| {
        run_stream(plan, *stream_seed, *s, metrics_enabled, trace_timing)
    });
    let elapsed_secs = start.elapsed().as_secs_f64();
    if let Some(trace) = trace {
        for o in &mut outcomes {
            for record in o.records.drain(..) {
                trace.record(record);
            }
        }
    }

    // Periodic checkpoints, ascending by local event time (ties by
    // stream) so the analyzer's timeline ordering holds however the
    // stream threads interleaved.
    if let Some(trace) = trace {
        let mut timeline: Vec<(u64, u32, &MetricsSnapshot)> = outcomes
            .iter()
            .enumerate()
            .flat_map(|(s, o)| {
                o.checkpoints
                    .iter()
                    .map(move |(at, snap)| (*at, s as u32, snap))
            })
            .collect();
        timeline.sort_by_key(|&(at, s, _)| (at, s));
        for (at, _, snap) in timeline {
            trace.record(TraceEvent::Metrics {
                time: at as f64,
                snapshot: snap.clone(),
            });
        }
    }

    // Exact shard merges: histograms bucket-merge, counters add, the
    // caller's registry contributes the process-wide series (par.*).
    let mut series = Series::default();
    let mut metrics = registry.snapshot();
    let (mut counts, mut batches) = ([0u64; 3], 0u64);
    let (mut final_active, mut final_edges) = (0u32, 0u64);
    let mut matches_scratch = true;
    for o in &outcomes {
        for (total, shard) in series.iter_mut().zip(&o.series) {
            total.merge(shard);
        }
        metrics.merge(&o.snapshot);
        for (total, shard) in counts.iter_mut().zip(o.counts) {
            *total += shard;
        }
        batches += o.batches;
        final_active += o.final_active;
        final_edges += o.final_edges;
        matches_scratch &= o.matches_scratch;
    }

    if let (Some(trace), true) = (trace, metrics_enabled) {
        trace.record(TraceEvent::Metrics {
            time: config.events as f64,
            snapshot: metrics.clone(),
        });
    }

    ServiceReport {
        schema_version: 3,
        nodes: config.nodes as u32,
        events: config.events,
        streams,
        batch_max: config.batch_max,
        detected_cores: detected_cores() as u32,
        stream_workers: stream_workers as u32,
        elapsed_secs,
        events_per_sec: config.events as f64 / elapsed_secs.max(f64::MIN_POSITIVE),
        moves: counts[Kind::Move as usize],
        joins: counts[Kind::Join as usize],
        deaths: counts[Kind::Death as usize],
        batches,
        latency: snapshots(&series),
        per_stream: outcomes
            .into_iter()
            .enumerate()
            .map(|(s, o)| o.into_report(s as u32))
            .collect(),
        final_active,
        final_edges,
        matches_scratch,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtc_trace::MemorySink;

    fn small() -> ServiceConfig {
        ServiceConfig {
            events: 400,
            ..ServiceConfig::sized(60, 400)
        }
    }

    /// A run with no metrics and no trace.
    fn bare(config: &ServiceConfig, seed: u64) -> ServiceReport {
        run_service(config, seed, &MetricsRegistry::disabled(), None)
    }

    /// Strips the wall-clock fields, leaving only the deterministic
    /// part of a report.
    fn deterministic(report: &ServiceReport) -> ServiceReport {
        let mut r = report.clone();
        r.elapsed_secs = 0.0;
        r.events_per_sec = 0.0;
        r.latency.clear();
        for s in &mut r.per_stream {
            s.elapsed_secs = 0.0;
            s.events_per_sec = 0.0;
            s.latency.clear();
        }
        r
    }

    #[test]
    fn stream_mixes_kinds_and_matches_scratch() {
        let report = bare(&small(), 9);
        assert_eq!(report.moves + report.joins + report.deaths, 400);
        assert!(report.moves > 0 && report.joins > 0 && report.deaths > 0);
        assert!(report.matches_scratch, "maintained graph drifted");
        assert_eq!(report.latency_for("all").unwrap().count, 400);
        let h = report.latency_for("move").unwrap();
        assert_eq!(h.count, report.moves);
        assert!(h.p50 <= h.p99 && h.p99 <= h.max, "percentiles not monotone");
        assert!(h.max > 0, "moves must cost nonzero time");
        // Event-at-a-time: every commit carries one event.
        assert_eq!(report.batches, 400);
        let sizes = report.latency_for("batch_size").unwrap();
        assert_eq!(sizes.min, 1);
        assert_eq!(sizes.max, 1);
        // Membership conservation: every slot is active or standby.
        assert!(report.final_active >= (small().nodes / 2) as u32);
        assert_eq!(report.schema_version, 3);
        assert_eq!(report.per_stream.len(), 1);
        assert_eq!(report.stream_workers, 1);
    }

    #[test]
    fn batched_run_is_bit_identical_and_coalesces() {
        let sequential = bare(&small(), 9);
        let batched = bare(
            &ServiceConfig {
                batch_max: 16,
                ..small()
            },
            9,
        );
        // Same events, same final graph — only the commit grouping (and
        // the wall clock) differ.
        let mut seq = deterministic(&sequential);
        let mut bat = deterministic(&batched);
        assert!(bat.batches < seq.batches, "batching must coalesce");
        assert_eq!(bat.moves, seq.moves);
        assert_eq!(bat.joins, seq.joins);
        assert_eq!(bat.deaths, seq.deaths);
        assert_eq!(bat.final_edges, seq.final_edges);
        assert_eq!(bat.final_active, seq.final_active);
        assert!(bat.matches_scratch, "batched maintained graph drifted");
        // Everything else matches once the batching knobs are aligned.
        seq.batches = 0;
        bat.batches = 0;
        seq.batch_max = 0;
        bat.batch_max = 0;
        for r in seq.per_stream.iter_mut().chain(bat.per_stream.iter_mut()) {
            r.batches = 0;
        }
        assert_eq!(seq, bat);
        let sizes = batched.latency_for("batch_size").unwrap();
        assert!(sizes.max > 1, "batch_max > 1 must form multi-event batches");
        assert!(sizes.max <= 16, "cap respected");
    }

    #[test]
    fn sharded_run_partitions_everything_and_matches_each_stream_plan() {
        let config = ServiceConfig {
            streams: 3,
            ..ServiceConfig::sized(90, 300)
        };
        let report = bare(&config, 5);
        assert_eq!(report.per_stream.len(), 3);
        assert_eq!(report.moves + report.joins + report.deaths, 300);
        assert!(report.matches_scratch, "some stream drifted");
        let total_nodes: u32 = report.per_stream.iter().map(|s| s.nodes).sum();
        let total_events: u64 = report.per_stream.iter().map(|s| s.events).sum();
        assert_eq!(total_nodes, 90);
        assert_eq!(total_events, 300);
        // Each stream is exactly the standalone run of its plan.
        for (s, stream_report) in report.per_stream.iter().enumerate() {
            let (plan, stream_seed) = stream_plan(&config, 5, s as u32);
            let standalone = bare(&plan, stream_seed);
            assert_eq!(standalone.per_stream.len(), 1);
            let mut solo = standalone.per_stream[0].clone();
            let mut shard = stream_report.clone();
            assert_eq!(solo.stream, 0);
            solo.stream = shard.stream;
            solo.elapsed_secs = 0.0;
            shard.elapsed_secs = 0.0;
            solo.events_per_sec = 0.0;
            shard.events_per_sec = 0.0;
            solo.latency.clear();
            shard.latency.clear();
            assert_eq!(solo, shard, "stream {s} diverged from its plan");
        }
    }

    #[test]
    fn stream_plan_is_exact_and_identity_for_one_stream() {
        let config = ServiceConfig {
            streams: 4,
            ..ServiceConfig::sized(103, 1001)
        };
        let mut nodes = 0usize;
        let mut events = 0u64;
        for s in 0..4 {
            let (plan, _) = stream_plan(&config, 7, s);
            assert_eq!(plan.streams, 1);
            assert!((plan.width - config.width / 4.0).abs() < 1e-12);
            nodes += plan.nodes;
            events += plan.events;
        }
        assert_eq!(nodes, 103);
        assert_eq!(events, 1001);
        let single = ServiceConfig::sized(50, 100);
        let (plan, seed) = stream_plan(&single, 42, 0);
        assert_eq!(plan, single, "one-stream plan is the identity");
        assert_eq!(seed, 42, "stream 0 keeps the original seed");
    }

    #[test]
    fn observed_run_is_deterministically_identical_and_counts_events() {
        let plain = bare(&small(), 4);

        let registry = MetricsRegistry::enabled();
        let (handle, sink) = TraceHandle::in_memory();
        let report = run_service(&small(), 4, &registry, Some(&handle));
        assert_eq!(deterministic(&report), {
            let mut p = deterministic(&plain);
            p.metrics = report.metrics.clone();
            p
        });

        // The engine counted exactly the stream's events.
        assert_eq!(
            report.metrics.counter("reconfig.events.move"),
            Some(report.moves)
        );
        assert_eq!(
            report.metrics.counter("reconfig.events.join"),
            Some(report.joins)
        );
        assert_eq!(
            report.metrics.counter("reconfig.events.death"),
            Some(report.deaths)
        );
        assert_eq!(report.metrics.counter("reconfig.batches"), Some(400));

        // The trace ends with the Metrics record carrying the merged
        // snapshot.
        let jsonl = MemorySink::to_jsonl(&sink.lock().unwrap());
        let events = cbtc_trace::parse_trace(&jsonl).unwrap();
        match events.last() {
            Some(TraceEvent::Metrics { snapshot, .. }) => {
                assert_eq!(snapshot, &report.metrics);
            }
            other => panic!("expected final Metrics record, got {other:?}"),
        }
    }

    #[test]
    fn periodic_checkpoints_build_an_analyzable_timeline() {
        let config = ServiceConfig {
            metrics_every: 100,
            batch_max: 8,
            ..small()
        };
        let registry = MetricsRegistry::enabled();
        let (handle, sink) = TraceHandle::in_memory();
        let report = run_service(&config, 11, &registry, Some(&handle));
        assert!(report.matches_scratch);
        let jsonl = MemorySink::to_jsonl(&sink.lock().unwrap());
        let events = cbtc_trace::parse_trace(&jsonl).unwrap();
        let analysis = cbtc_trace::analyze(&events).unwrap();
        // 400 events at one checkpoint per 100: at least three periodic
        // records (a batch may straddle a boundary) plus the final one.
        assert!(
            analysis.metrics_timeline.len() >= 4,
            "timeline has {} records",
            analysis.metrics_timeline.len()
        );
        let times: Vec<f64> = analysis.metrics_timeline.iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        // Checkpoint event counts grow monotonically within the stream.
        let counts: Vec<u64> = analysis
            .metrics_timeline
            .iter()
            .filter_map(|(_, s)| s.counter("reconfig.events.move"))
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert_eq!(
            analysis.metrics.as_ref().unwrap(),
            &report.metrics,
            "final record carries the merged snapshot"
        );
    }

    #[test]
    fn report_json_round_trips() {
        let report = bare(&small(), 2);
        let json = serde_json::to_string(&report).unwrap();
        let back: ServiceReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
