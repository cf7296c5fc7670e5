//! The CLI subcommands.

use std::fs;

use cbtc_core::{run_centralized, CbtcConfig, Network};
use cbtc_energy::{lifetime_experiment, LifetimeConfig, TopologyPolicy, TrafficPattern};
use cbtc_geom::constructions::{Example21, Theorem24};
use cbtc_geom::Alpha;
use cbtc_graph::load::path_stats;
use cbtc_graph::metrics::{average_degree, average_radius};
use cbtc_graph::traversal::component_count;
use cbtc_graph::Layout;
use cbtc_radio::PowerBasis;
use cbtc_trace::{TraceEvent, TraceHandle};
use cbtc_viz::{render_replay_html, render_replay_svg, render_svg, ReplayFrame, SvgOptions};
use cbtc_workloads::RandomPlacement;

use crate::args::Args;

/// Top-level usage text.
pub const USAGE: &str = "\
cbtc — cone-based topology control (Li et al., PODC 2001)

USAGE:
    cbtc run [--nodes N] [--width W] [--height H] [--range R] [--seed S]
             [--alpha 5pi6|2pi3|<radians>] [--shrink] [--asym] [--pairwise]
             [--all] [--svg FILE] [--json FILE]
        Run CBTC on a random network; print metrics, optionally write the
        topology as SVG and/or the edge list as JSON.

    cbtc construct (example21 | theorem24) [--range R] [--alpha …|--epsilon E]
                   [--svg FILE]
        Build the paper's Figure 2 / Figure 5 point sets, run the algorithm
        on them, and report the witnessed property.

    cbtc compare [--nodes N] [--width W] [--height H] [--range R] [--seed S]
        Compare every optimization level on one network.

    cbtc lifetime [--nodes N] [--width W] [--height H] [--range R]
                  [--trials T] [--seed S] [--packets P] [--epochs E]
                  [--energy J] [--pattern uniform|convergecast[:SINK]|hotspot[:NODE]]
                  [--no-reconfig] [--basis geometric|measured]
        Simulate packet traffic and battery drain over random networks and
        report lifetime factors (first death, partition) of CBTC
        configurations versus max power. --basis selects the pricing of
        per-hop transmission powers: geometric distance (the paper's
        model) or the §2 measured effective distance (identical on the
        ideal channel).

    cbtc churn [--nodes N] [--cycles C] [--cycle-ticks T] [--warmup W]
               [--beacon-interval B] [--miss-limit M] [--seed S]
               [--speed-min V] [--speed-max V] [--pause P] [--json FILE]
               [--phy-sigma DB] [--trace FILE]
        Run the §4 reconfiguration protocol under RandomWaypoint mobility
        with node joins and crashes; report beacon overhead, reconvergence
        time, connectivity maintenance and stretch. --nodes is the total
        population (10% arrive as late joins, 10% crash). Scales to 10k+
        nodes via the grid spatial index. --phy-sigma installs the
        realistic stochastic channel at that shadowing σ; --trace streams
        the run as JSONL trace events for cbtc replay / cbtc analyze.

    cbtc replay <trace.jsonl> [--svg FILE] [--html FILE] [--max-frames N]
                [--image-width PX]
        Reconstruct the topology timeline of a recorded trace and render
        it as an animated SVG (SMIL, one frame per topology epoch) and/or
        a standalone HTML canvas player with play/pause and scrubbing.
        Writes <trace>.replay.html when no output is named.

    cbtc analyze <trace.jsonl> [--json FILE]
        Validate a recorded trace and summarize it: event counts, the
        topology-epoch timeline, the final connection matrix (bucketed
        above 24 nodes), per-node degree and power, churn and
        reconvergence outcomes, p50/p99/max per-event reconfiguration
        latency, and — when the trace carries periodic metrics
        checkpoints (serve --metrics-every) — the live percentile
        timeline.

    cbtc phy [--nodes N] [--sigmas 0,4,8] [--trials T] [--seed S]
             [--alpha 2pi3|<radians>] [--protocol-nodes N] [--no-protocol]
             [--jitter T] [--hello-margin DB] [--basis geometric|measured]
        Sweep log-normal shadowing σ (dB) over random networks: report how
        often CBTC's final graph (after asymmetric-edge removal) preserves
        the connectivity of the symmetric reach graph, link asymmetry,
        power stretch, and the distributed protocol's Hello overhead under
        the full stochastic stack (fading, soft PRR, SINR, CSMA).
        --jitter sets the per-node start jitter (ticks, default 16) of the
        desynchronized protocol columns; 0 copies the synchronized ones.
        --hello-margin boosts every Hello broadcast level by DB (default
        0, the paper's exact schedule). --basis measured makes protocol
        repliers carry the forward §2 measurement in a max-power
        MeasuredAck (measured-power pricing).

    cbtc serve [--nodes N] [--events E] [--seed S] [--alpha 5pi6|<radians>]
               [--death-per-mille D] [--join-per-mille J] [--max-step L]
               [--streams S] [--batch-max N] [--metrics-every K]
               [--trace FILE] [--json FILE]
        Stream a sustained churn workload (moves, joins, crashes) through
        the §4 incremental engine, like a long-running reconfiguration
        service. --streams shards the field into S spatial strips, each
        served by its own engine (spread over the worker threads the host
        offers). --batch-max turns on group commit: up to N events
        coalesce per engine commit, taking the engine's mixed-batch path;
        N = 1 (the default) keeps the event-at-a-time service. Batching
        and sharding never change outcomes — every stream's final graph
        is verified bit-identical to a from-scratch construction, and the
        run fails on any integrity violation. Reports aggregate and
        per-stream events/s, p50/p99/p999 latency per event kind,
        batch-size distribution and worker utilization. --json writes the
        full v3 report (per-stream histograms + merged metrics snapshot);
        --trace streams the run as JSONL, with a metrics checkpoint every
        K local events per stream (--metrics-every, the live percentile
        timeline cbtc analyze renders) and a final merged metrics record.

    cbtc help
        Show this message.
";

/// One subcommand: its name, the flags it reads (space-separated, in the
/// order its `USAGE` block lists them) and its entry point.
struct Command {
    name: &'static str,
    flags: &'static str,
    run: fn(&Args) -> Result<(), String>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "run",
        flags: "nodes width height range seed alpha shrink asym pairwise all svg json",
        run,
    },
    Command {
        name: "construct",
        flags: "range alpha epsilon svg",
        run: construct,
    },
    Command {
        name: "compare",
        flags: "nodes width height range seed",
        run: compare,
    },
    Command {
        name: "lifetime",
        flags: "nodes width height range trials seed packets epochs energy pattern no-reconfig \
                basis",
        run: lifetime,
    },
    Command {
        name: "churn",
        flags: "nodes cycles cycle-ticks warmup beacon-interval miss-limit seed speed-min \
                speed-max pause json phy-sigma trace",
        run: churn,
    },
    Command {
        name: "replay",
        flags: "svg html max-frames image-width",
        run: replay,
    },
    Command {
        name: "analyze",
        flags: "json",
        run: analyze,
    },
    Command {
        name: "phy",
        flags:
            "nodes sigmas trials seed alpha protocol-nodes no-protocol jitter hello-margin basis",
        run: phy,
    },
    Command {
        name: "serve",
        flags: "nodes events seed alpha death-per-mille join-per-mille max-step streams batch-max \
                metrics-every trace json",
        run: serve,
    },
];

/// Runs the subcommand `name`, first rejecting any `--flag` it does not
/// read: a misspelt or removed flag fails before the run starts instead
/// of silently leaving its setting at the default.
pub fn dispatch(name: &str, args: &Args) -> Result<(), String> {
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command `{name}`\n\n{USAGE}"))?;
    args.reject_unknown_flags(command.flags)
        .map_err(|e| format!("{e} for `cbtc {name}` (see cbtc help)"))?;
    (command.run)(args)
}

fn build_config(args: &Args, alpha: Alpha) -> Result<CbtcConfig, String> {
    if args.has("all") {
        return Ok(CbtcConfig::all_applicable(alpha));
    }
    let mut config = CbtcConfig::new(alpha);
    if args.has("shrink") {
        config = config.with_shrink_back();
    }
    if args.has("asym") {
        config = config
            .with_asymmetric_removal()
            .map_err(|e| e.to_string())?;
    }
    if args.has("pairwise") {
        config = config.with_pairwise_removal();
    }
    Ok(config)
}

/// Parses `--basis` into a [`PowerBasis`] (geometric when absent).
fn parse_basis(args: &Args) -> Result<PowerBasis, String> {
    match args.value_of("basis") {
        None => Ok(PowerBasis::Geometric),
        Some(raw) => PowerBasis::parse(raw)
            .ok_or_else(|| format!("invalid --basis: {raw} (expected geometric or measured)")),
    }
}

fn generate_network(args: &Args) -> Result<Network, String> {
    let nodes: usize = args.get("nodes", 100)?;
    let width: f64 = args.get("width", 1500.0)?;
    let height: f64 = args.get("height", 1500.0)?;
    let range: f64 = args.get("range", 500.0)?;
    let seed: u64 = args.get("seed", 0)?;
    if nodes == 0 {
        return Err("--nodes must be positive".into());
    }
    Ok(RandomPlacement::new(nodes, width, height, range).generate(seed))
}

/// `cbtc run`
pub fn run(args: &Args) -> Result<(), String> {
    let alpha = args.alpha()?;
    let config = build_config(args, alpha)?;
    let network = generate_network(args)?;
    let full = network.max_power_graph();

    let run = run_centralized(&network, &config);
    let graph = run.final_graph();
    let preserved = run.preserves_connectivity_of(&full);
    let stats = path_stats(graph);

    println!(
        "CBTC({alpha}) on {} nodes (seed {})",
        network.len(),
        args.get("seed", 0u64)?
    );
    println!(
        "  optimizations: shrink-back={} asym={} pairwise={}",
        config.shrink_back(),
        config.asymmetric_removal(),
        config.pairwise_removal()
    );
    println!(
        "  edges: {} (max power: {})",
        graph.edge_count(),
        full.edge_count()
    );
    println!("  avg degree: {:.2}", average_degree(graph));
    println!(
        "  avg radius: {:.1} (max power: {:.0})",
        average_radius(graph, network.layout(), network.max_range()),
        network.max_range()
    );
    println!("  components: {}", component_count(graph));
    println!(
        "  hop diameter: {}, mean hops: {:.2}",
        stats.hop_diameter, stats.mean_hops
    );
    println!(
        "  connectivity preserved: {}",
        if preserved { "yes" } else { "NO" }
    );

    if let Some(path) = args.value_of("svg") {
        let svg = render_svg(
            network.layout(),
            graph,
            &SvgOptions {
                caption: Some(format!("CBTC({alpha})")),
                ..SvgOptions::default()
            },
        );
        fs::write(path, svg).map_err(|e| format!("writing {path}: {e}"))?;
        println!("  wrote {path}");
    }
    if let Some(path) = args.value_of("json") {
        let edges: Vec<(u32, u32)> = graph.edges().map(|(u, v)| (u.raw(), v.raw())).collect();
        let doc = serde_json::json!({
            "alpha": alpha.radians(),
            "nodes": network.layout().positions(),
            "edges": edges,
            "preserved": preserved,
        });
        fs::write(
            path,
            serde_json::to_string_pretty(&doc).expect("serializable"),
        )
        .map_err(|e| format!("writing {path}: {e}"))?;
        println!("  wrote {path}");
    }
    Ok(())
}

/// `cbtc construct`
pub fn construct(args: &Args) -> Result<(), String> {
    let range: f64 = args.get("range", 500.0)?;

    match args.positional().unwrap_or("example21") {
        "example21" => {
            let alpha = args.alpha()?;
            let ex = Example21::new(range, alpha).map_err(|e| e.to_string())?;
            let network = Network::with_paper_radio(Layout::new(ex.points()));
            let outcome = cbtc_core::run_basic(&network, alpha);
            let u0 = cbtc_graph::NodeId::new(Example21::U0 as u32);
            let v = cbtc_graph::NodeId::new(Example21::V as u32);
            println!(
                "Example 2.1 (Figure 2) at α = {alpha}, ε = {:.5}",
                ex.epsilon
            );
            for (label, p) in [
                ("u0", ex.u0),
                ("u1", ex.u1),
                ("u2", ex.u2),
                ("u3", ex.u3),
                ("v", ex.v),
            ] {
                println!("  {label:<3} ({:9.2}, {:9.2})", p.x, p.y);
            }
            println!(
                "  (v,u0) ∈ N_α: {}   (u0,v) ∈ N_α: {}",
                outcome.view(v).discovered(u0),
                outcome.view(u0).discovered(v)
            );
            maybe_svg(args, &network, &outcome.symmetric_closure(), "Example 2.1")?;
        }
        "theorem24" => {
            let epsilon: f64 = args.get("epsilon", 0.1)?;
            let t = Theorem24::new(range, epsilon).map_err(|e| e.to_string())?;
            let network = Network::with_paper_radio(Layout::new(t.points()));
            let full = network.max_power_graph();
            let g = cbtc_core::run_basic(&network, t.alpha).symmetric_closure();
            println!(
                "Theorem 2.4 (Figure 5) at α = 5π/6 + {epsilon}: G_R components = {}, G_α components = {}",
                component_count(&full),
                component_count(&g)
            );
            maybe_svg(args, &network, &g, "Theorem 2.4")?;
        }
        other => {
            return Err(format!(
                "unknown construction `{other}` (example21 or theorem24)"
            ))
        }
    }
    Ok(())
}

fn maybe_svg(
    args: &Args,
    network: &Network,
    graph: &cbtc_graph::UndirectedGraph,
    caption: &str,
) -> Result<(), String> {
    if let Some(path) = args.value_of("svg") {
        let svg = render_svg(
            network.layout(),
            graph,
            &SvgOptions {
                caption: Some(caption.to_owned()),
                node_radius: 4.0,
                ..SvgOptions::default()
            },
        );
        fs::write(path, svg).map_err(|e| format!("writing {path}: {e}"))?;
        println!("  wrote {path}");
    }
    Ok(())
}

/// `cbtc compare`
pub fn compare(args: &Args) -> Result<(), String> {
    let network = generate_network(args)?;
    let full = network.max_power_graph();
    let a56 = Alpha::FIVE_PI_SIXTHS;
    let a23 = Alpha::TWO_PI_THIRDS;

    println!(
        "{:<30} {:>8} {:>10} {:>10}",
        "configuration", "avg deg", "avg radius", "preserved"
    );
    let rows: Vec<(String, Option<CbtcConfig>)> = vec![
        ("max power".into(), None),
        (format!("basic α={a56}"), Some(CbtcConfig::new(a56))),
        (format!("basic α={a23}"), Some(CbtcConfig::new(a23))),
        (
            format!("all applicable α={a56}"),
            Some(CbtcConfig::all_applicable(a56)),
        ),
        (
            format!("all optimizations α={a23}"),
            Some(CbtcConfig::all_applicable(a23)),
        ),
    ];
    for (label, config) in rows {
        let (graph, preserved) = match config {
            None => (full.clone(), true),
            Some(c) => {
                let run = run_centralized(&network, &c);
                let p = run.preserves_connectivity_of(&full);
                (run.into_final_graph(), p)
            }
        };
        println!(
            "{:<30} {:>8.2} {:>10.1} {:>10}",
            label,
            average_degree(&graph),
            average_radius(&graph, network.layout(), network.max_range()),
            if preserved { "yes" } else { "NO" }
        );
    }
    Ok(())
}

/// `cbtc lifetime`
pub fn lifetime(args: &Args) -> Result<(), String> {
    let nodes: usize = args.get("nodes", 100)?;
    let width: f64 = args.get("width", 1500.0)?;
    let height: f64 = args.get("height", 1500.0)?;
    let range: f64 = args.get("range", 500.0)?;
    let trials: u32 = args.get("trials", 10)?;
    let base_seed: u64 = args.get("seed", 0)?;
    if nodes == 0 || trials == 0 {
        return Err("--nodes and --trials must be positive".into());
    }
    if !width.is_finite() || !height.is_finite() || width <= 0.0 || height <= 0.0 {
        return Err("--width and --height must be positive".into());
    }
    if !range.is_finite() || range < 1.0 {
        return Err("--range must be at least 1".into());
    }

    let mut config = LifetimeConfig::paper_default();
    config.packets_per_epoch = args.get("packets", config.packets_per_epoch)?;
    config.max_epochs = args.get("epochs", config.max_epochs)?;
    config.initial_energy = args.get("energy", config.initial_energy)?;
    config.reconfigure = !args.has("no-reconfig");
    config.energy = config.energy.with_power_basis(parse_basis(args)?);
    if !config.initial_energy.is_finite() || config.initial_energy <= 0.0 {
        return Err("--energy must be positive".into());
    }
    if let Some(raw) = args.value_of("pattern") {
        config.pattern = raw.parse::<TrafficPattern>()?;
    }
    let pattern_node = match config.pattern {
        TrafficPattern::Uniform => None,
        TrafficPattern::Convergecast { sink } => Some(sink),
        TrafficPattern::Hotspot { hotspot, .. } => Some(hotspot),
    };
    if let Some(node) = pattern_node {
        if node.index() >= nodes {
            return Err(format!(
                "traffic pattern names node {node}, but the network only has nodes n0..n{}",
                nodes - 1
            ));
        }
    }

    let mut scenario = cbtc_workloads::Scenario::paper_default();
    scenario.name = "cli-lifetime".to_owned();
    scenario.node_count = nodes;
    scenario.width = width;
    scenario.height = height;
    scenario.max_range = range;
    scenario.trials = trials;

    let a56 = Alpha::FIVE_PI_SIXTHS;
    let a23 = Alpha::TWO_PI_THIRDS;
    let policies = [
        TopologyPolicy::MaxPower,
        TopologyPolicy::Cbtc(CbtcConfig::new(a56)),
        TopologyPolicy::Cbtc(CbtcConfig::all_applicable(a56)),
        TopologyPolicy::Cbtc(CbtcConfig::all_applicable(a23)),
    ];

    println!("network lifetime — {nodes} nodes × {trials} trials, {width}×{height}, R = {range}");
    println!(
        "traffic: {} × {} packets/epoch, reconfigure: {}, pricing: {}\n",
        config.pattern.label(),
        config.packets_per_epoch,
        if config.reconfigure { "yes" } else { "no" },
        config.energy.power_basis,
    );
    println!(
        "{:<28} {:>16} {:>7} {:>16} {:>7} {:>10} {:>9}",
        "configuration", "first death", "×", "partition", "×", "delivered", "bal. CV"
    );

    let results = lifetime_experiment(&scenario, &policies, config, base_seed);
    let baseline = results
        .first()
        .ok_or_else(|| "no results".to_string())?
        .clone();
    for agg in &results {
        let fd_factor = agg.first_death.mean / baseline.first_death.mean.max(1.0);
        let part_factor = agg.partition.mean / baseline.partition.mean.max(1.0);
        println!(
            "{:<28} {:>9.1} ±{:<5.1} {:>6.2}x {:>9.1} ±{:<5.1} {:>6.2}x {:>9.1}% {:>9.3}",
            agg.policy,
            agg.first_death.mean,
            agg.first_death.std,
            fd_factor,
            agg.partition.mean,
            agg.partition.std,
            part_factor,
            agg.delivered_ratio.mean * 100.0,
            agg.energy_balance_cv.mean,
        );
    }
    println!(
        "\nEpochs are standby-dominated time units; × columns are lifetime factors vs max power."
    );
    Ok(())
}

/// `cbtc churn`
pub fn churn(args: &Args) -> Result<(), String> {
    let nodes: usize = args.get("nodes", 2_000)?;
    if nodes < 10 {
        return Err("--nodes must be at least 10".into());
    }
    let mut scenario = cbtc_workloads::ChurnScenario::sized(nodes);
    scenario.cycles = args.get("cycles", scenario.cycles)?;
    scenario.cycle_ticks = args.get("cycle-ticks", scenario.cycle_ticks)?;
    scenario.warmup = args.get("warmup", scenario.warmup)?;
    scenario.beacon_interval = args.get("beacon-interval", scenario.beacon_interval)?;
    scenario.miss_limit = args.get("miss-limit", scenario.miss_limit)?;
    scenario.speed_min = args.get("speed-min", scenario.speed_min)?;
    scenario.speed_max = args.get("speed-max", scenario.speed_max)?;
    scenario.pause = args.get("pause", scenario.pause)?;
    scenario.validate()?;
    let seed: u64 = args.get("seed", 0)?;
    let phy = match args.value_of("phy-sigma") {
        None => None,
        Some(raw) => {
            let sigma: f64 = raw
                .parse()
                .map_err(|_| format!("invalid --phy-sigma: {raw}"))?;
            if !sigma.is_finite() || sigma < 0.0 {
                return Err("--phy-sigma must be a finite non-negative dB value".into());
            }
            Some(cbtc_phy::PhyProfile::realistic(sigma, seed))
        }
    };

    println!(
        "churn — {} nodes ({} initial + {} joins, {} crashes), {:.0}×{:.0} field, \
         {} cycles × {} ticks after {} warmup (seed {seed})",
        scenario.total_nodes(),
        scenario.initial_nodes,
        scenario.joins,
        scenario.crashes,
        scenario.width,
        scenario.height,
        scenario.cycles,
        scenario.cycle_ticks,
        scenario.warmup,
    );
    println!(
        "NDP: beacon interval {}, miss limit {}; mobility {}–{} units/tick, pause {}\n",
        scenario.beacon_interval,
        scenario.miss_limit,
        scenario.speed_min,
        scenario.speed_max,
        scenario.pause,
    );

    let trace = open_trace(args)?;
    let start = std::time::Instant::now();
    let report = cbtc_workloads::run_churn(
        &scenario,
        seed,
        phy.as_ref(),
        &cbtc_metrics::MetricsRegistry::disabled(),
        trace.as_ref(),
    );
    let wall = start.elapsed().as_secs_f64();

    println!(
        "{:>6} {:>6} {:>8} {:>9} {:>10}",
        "t", "live", "edges", "avg deg", "preserved"
    );
    // Print the start, the probe at each churn-burst tick (where the
    // connectivity dip shows), and the last probe.
    let burst_tick =
        |t: u64| t >= scenario.warmup && (t - scenario.warmup).is_multiple_of(scenario.cycle_ticks);
    for s in report
        .samples
        .iter()
        .filter(|s| s.t == 0 || burst_tick(s.t) || s.t == report.samples.last().map_or(0, |l| l.t))
    {
        println!(
            "{:>6} {:>6} {:>8} {:>9.2} {:>10}",
            s.t,
            s.live,
            s.edges,
            s.avg_degree,
            if s.partition_preserved { "yes" } else { "NO" }
        );
    }
    println!("\nbursts:");
    for b in &report.bursts {
        println!(
            "  t={:<6} +{} joins, {} crashes → reconverged after {}",
            b.t,
            b.joins,
            b.crashes,
            match b.reconverged_after {
                Some(d) => format!("{d} ticks"),
                None => "— (never before horizon)".to_owned(),
            }
        );
    }
    if let Some(s) = report.stretch.last() {
        println!(
            "\nstretch (t={}, {} sources × {} pairs): power mean {:.3}, max {:.3}",
            s.t, s.sources, s.pairs, s.power_mean, s.power_max
        );
    }
    println!(
        "\nbeacon overhead: {:.2} broadcasts/node/interval ({} broadcasts, {} deliveries)",
        report.traffic.broadcasts_per_node_per_interval,
        report.traffic.broadcasts,
        report.traffic.deliveries
    );
    println!(
        "channel: {} phy-lost deliveries, {} CSMA deferrals, {} forced transmissions",
        report.traffic.phy_lost, report.traffic.csma_deferrals, report.traffic.csma_forced,
    );
    println!(
        "connectivity preserved at {:.1}% of probes; {} growing-phase re-runs; \
         mean reconvergence {}",
        report.connectivity_fraction * 100.0,
        report.reruns,
        match report.mean_reconvergence {
            Some(m) => format!("{m:.0} ticks"),
            None => "n/a".to_owned(),
        }
    );
    println!(
        "live at end: {} of {} ({wall:.1}s wall)",
        report.live_at_end,
        scenario.total_nodes()
    );

    if let Some(path) = args.value_of("json") {
        fs::write(
            path,
            serde_json::to_string_pretty(&report).expect("serializable"),
        )
        .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = args.value_of("trace") {
        println!("wrote trace {path} (replay/analyze it with cbtc replay / cbtc analyze)");
    }
    Ok(())
}

/// Opens the `--trace FILE` JSONL sink, wall-clock timing on; `None`
/// without the flag.
fn open_trace(args: &Args) -> Result<Option<TraceHandle>, String> {
    args.value_of("trace")
        .map(|path| {
            TraceHandle::to_file(path)
                .map(|trace| trace.with_timing(true))
                .map_err(|e| format!("creating trace {path}: {e}"))
        })
        .transpose()
}

/// Parses a comma-separated `--name` list of floats, or the default.
fn parse_float_list(args: &Args, name: &str, default: &[f64]) -> Result<Vec<f64>, String> {
    match args.value_of(name) {
        None => Ok(default.to_vec()),
        Some(raw) => raw
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("invalid --{name} entry: {s}"))
            })
            .collect(),
    }
}

/// `cbtc phy`
pub fn phy(args: &Args) -> Result<(), String> {
    use cbtc_workloads::{phy_construction_probe, phy_protocol_probe};

    let nodes: usize = args.get("nodes", 100)?;
    let trials: u32 = args.get("trials", 10)?;
    let seed: u64 = args.get("seed", 0)?;
    let protocol_nodes: usize = args.get("protocol-nodes", 60)?;
    let jitter: u64 = args.get("jitter", 16)?;
    let basis = parse_basis(args)?;
    let hello_margin: f64 = args.get("hello-margin", 0.0)?;
    if !(hello_margin.is_finite() && hello_margin >= 0.0) {
        return Err("--hello-margin must be a finite non-negative dB value".into());
    }
    let sigmas = parse_float_list(args, "sigmas", &[0.0, 4.0, 8.0])?;
    if nodes == 0 || trials == 0 {
        return Err("--nodes and --trials must be positive".into());
    }
    if protocol_nodes == 0 && !args.has("no-protocol") {
        return Err("--protocol-nodes must be positive (or pass --no-protocol)".into());
    }
    for &s in &sigmas {
        if !s.is_finite() || s < 0.0 {
            return Err(format!("--sigmas entries must be ≥ 0, got {s}"));
        }
    }
    let alpha = match args.value_of("alpha") {
        None => Alpha::TWO_PI_THIRDS,
        Some(_) => args.alpha()?,
    };
    let config = CbtcConfig::all_applicable(alpha);
    if !alpha.supports_asymmetric_removal() {
        println!(
            "note: α = {alpha} > 2π/3, so asymmetric-edge removal is off and the \
             final graph is the symmetric closure\n"
        );
    }

    let mut scenario = cbtc_workloads::Scenario::paper_default();
    scenario.name = "cli-phy".to_owned();
    scenario.node_count = nodes;
    scenario.trials = trials;

    println!(
        "phy robustness — {nodes} nodes × {trials} trials, CBTC({alpha}) all optimizations, \
         per-direction log-normal shadowing (seed {seed})\n"
    );
    println!(
        "{:>6} {:>10} {:>10} {:>8} {:>8} {:>9} {:>9} {:>9}",
        "σ (dB)", "base conn", "preserved", "asym %", "avg deg", "guarded", "stretch", "max"
    );
    for &sigma in &sigmas {
        let stats = phy_construction_probe(&scenario, sigma, &config, seed);
        println!(
            "{:>6.1} {:>7}/{:<2} {:>7}/{:<2} {:>7.1}% {:>8.2} {:>9.2} {:>9.3} {:>9.2}",
            sigma,
            stats.base_connected,
            stats.trials,
            stats.preserved,
            stats.trials,
            stats.asymmetric_link_fraction * 100.0,
            stats.mean_degree,
            stats.pairwise_restored_mean,
            stats.power_stretch_mean,
            stats.power_stretch_max,
        );
    }
    println!(
        "\nbase conn = trials whose symmetric max-power reach graph is connected;\n\
         preserved = trials where the final graph partitions nodes as the reach graph does;\n\
         guarded   = mean redundant edges the pairwise connectivity guard restored per trial."
    );

    if !args.has("no-protocol") {
        println!(
            "\ndistributed growing phase under the full stack (fading, soft PRR, SINR, CSMA) — \
             {protocol_nodes} nodes, {basis} pricing, desynchronized columns use \
             ±{jitter}-tick start jitter:"
        );
        println!(
            "{:>6} {:>12} {:>12} {:>9} {:>9} {:>10} {:>10} {:>11} {:>10}",
            "σ (dB)",
            "ideal bc/n",
            "phy bc/n",
            "overhead",
            "phy loss",
            "backoff/n",
            "preserved",
            "jit loss",
            "jit bkf/n"
        );
        let mut channel_rows = Vec::new();
        for &sigma in &sigmas {
            let profile = cbtc_phy::PhyProfile::realistic(sigma, seed);
            let stats = phy_protocol_probe(
                protocol_nodes,
                &scenario,
                &profile,
                jitter,
                hello_margin,
                basis,
                seed,
            );
            println!(
                "{:>6.1} {:>12.2} {:>12.2} {:>8.2}x {:>8.1}% {:>10.2} {:>10} {:>10.1}% {:>10.2}",
                sigma,
                stats.ideal_broadcasts_per_node,
                stats.phy_broadcasts_per_node,
                stats.hello_overhead,
                stats.phy_lost_fraction * 100.0,
                stats.csma_deferrals_per_node,
                if stats.connectivity_preserved {
                    "yes"
                } else {
                    "NO"
                },
                stats.jitter_phy_lost_fraction * 100.0,
                stats.jitter_csma_deferrals_per_node,
            );
            channel_rows.push((
                sigma,
                stats.phy_lost,
                stats.csma_deferrals,
                stats.csma_forced,
            ));
        }
        println!("\nraw channel counters (synchronized run):");
        println!(
            "{:>6} {:>10} {:>11} {:>8}",
            "σ (dB)", "phy lost", "deferrals", "forced"
        );
        for (sigma, phy_lost, deferrals, forced) in channel_rows {
            println!("{sigma:>6.1} {phy_lost:>10} {deferrals:>11} {forced:>8}");
        }
    }
    Ok(())
}

/// The `Meta` header's run name and world bounds, if the trace has one
/// (the analyzer guarantees it for validated traces).
fn trace_header(events: &[TraceEvent]) -> (String, Option<(f64, f64, f64, f64)>) {
    match events.first() {
        Some(TraceEvent::Meta {
            run, width, height, ..
        }) => {
            let bounds = (*width > 0.0 && *height > 0.0).then_some((0.0, 0.0, *width, *height));
            (run.clone(), bounds)
        }
        _ => (String::new(), None),
    }
}

/// `cbtc replay`
pub fn replay(args: &Args) -> Result<(), String> {
    let path = args
        .positional()
        .ok_or("usage: cbtc replay <trace.jsonl> [--svg FILE] [--html FILE]")?
        .to_owned();
    let max_frames: usize = args.get("max-frames", 240)?;
    let image_width: f64 = args.get("image-width", 760.0)?;
    if max_frames == 0 {
        return Err("--max-frames must be positive".into());
    }
    if !image_width.is_finite() || image_width < 64.0 {
        return Err("--image-width must be at least 64 pixels".into());
    }

    let events = cbtc_trace::read_trace(&path).map_err(|e| e.to_string())?;
    let frames = cbtc_trace::timeline(&events).map_err(|e| e.to_string())?;
    if frames.is_empty() {
        return Err(format!(
            "{path}: no TopologyEpoch events — nothing to replay"
        ));
    }
    let (run, bounds) = trace_header(&events);

    // Sample evenly down to the frame budget, always keeping the final
    // frame so the replay ends on the trace's last topology.
    let stride = frames.len().div_ceil(max_frames);
    let last = frames.len() - 1;
    let sampled: Vec<ReplayFrame> = frames
        .iter()
        .enumerate()
        .filter(|(i, _)| i % stride == 0 || *i == last)
        .map(|(_, f)| ReplayFrame {
            time: f.time,
            positions: f.positions.clone(),
            alive: f.alive.clone(),
            edges: f.edges.clone(),
        })
        .collect();

    let options = SvgOptions {
        image_width,
        labels: false,
        node_radius: 2.5,
        caption: Some(run),
        bounds,
        ..SvgOptions::default()
    };
    println!(
        "replay — {} topology epochs in {path}, {} frames rendered",
        frames.len(),
        sampled.len()
    );
    if let Some(out) = args.value_of("svg") {
        fs::write(out, render_replay_svg(&sampled, &options))
            .map_err(|e| format!("writing {out}: {e}"))?;
        println!("  wrote {out}");
    }
    let html_out = match args.value_of("html") {
        Some(out) => Some(out.to_owned()),
        None => args
            .value_of("svg")
            .is_none()
            .then(|| format!("{path}.replay.html")),
    };
    if let Some(out) = html_out {
        fs::write(&out, render_replay_html(&sampled, &options))
            .map_err(|e| format!("writing {out}: {e}"))?;
        println!("  wrote {out}");
    }
    Ok(())
}

/// `cbtc serve`: stream a sustained churn workload through the
/// incremental engine and report it like a production service — throughput, per-kind latency percentiles, and
/// hard integrity gates (from-scratch bit-identity, monotone
/// percentiles) that fail the command when violated.
pub fn serve(args: &Args) -> Result<(), String> {
    let nodes: usize = args.get("nodes", 10_000)?;
    if nodes < 10 {
        return Err("--nodes must be at least 10".into());
    }
    let events: u64 = args.get("events", 1_000_000)?;
    if events == 0 {
        return Err("--events must be positive".into());
    }
    let seed: u64 = args.get("seed", 1)?;
    let mut config = cbtc_workloads::ServiceConfig::sized(nodes, events);
    config.alpha = args.alpha()?;
    config.death_per_mille = args.get("death-per-mille", config.death_per_mille)?;
    config.join_per_mille = args.get("join-per-mille", config.join_per_mille)?;
    if config.death_per_mille + config.join_per_mille > 1000 {
        return Err("--death-per-mille + --join-per-mille must not exceed 1000".into());
    }
    config.max_step = args.get("max-step", config.max_step)?;
    config.streams = args.get("streams", config.streams)?;
    if config.streams == 0 {
        return Err("--streams must be at least 1".into());
    }
    config.batch_max = args.get("batch-max", config.batch_max)?;
    if config.batch_max == 0 {
        return Err("--batch-max must be at least 1".into());
    }
    config.metrics_every = args.get("metrics-every", config.metrics_every)?;
    if config.metrics_every > 0 && args.value_of("trace").is_none() {
        return Err("--metrics-every requires --trace (checkpoints are trace records)".into());
    }

    println!(
        "serve — {nodes} node slots on a {:.0}×{:.0} field (α = {:.4}), \
         streaming {events} events (mix ‰: {} death / {} join / {} move; seed {seed})",
        config.width,
        config.height,
        config.alpha.radians(),
        config.death_per_mille,
        config.join_per_mille,
        1000 - config.death_per_mille - config.join_per_mille,
    );
    println!(
        "        {} stream{} (spatial shards), group-commit batches of up to {} event{}",
        config.streams,
        if config.streams == 1 { "" } else { "s" },
        config.batch_max,
        if config.batch_max == 1 {
            " (one per commit)"
        } else {
            "s"
        },
    );

    let registry = cbtc_metrics::MetricsRegistry::enabled();
    // The initial construction fans out through par_map_with; surface
    // detected cores / planned threads / worker busy time in the same
    // snapshot.
    cbtc_core::parallel::install_metrics(&registry);
    let trace = open_trace(args)?;
    let report = cbtc_workloads::run_service(&config, seed, &registry, trace.as_ref());
    cbtc_core::parallel::uninstall_metrics();
    if let Some(trace) = &trace {
        trace.flush();
    }

    println!(
        "\n{:>10} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "kind", "events", "p50 µs", "p99 µs", "p999 µs", "max µs"
    );
    let us = |nanos: u64| nanos as f64 / 1_000.0;
    // `batch_size` counts events per commit, not nanoseconds — it gets
    // its own line below instead of a row in the µs table.
    for h in report.latency.iter().filter(|h| h.name != "batch_size") {
        println!(
            "{:>10} {:>9} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            h.name,
            h.count,
            us(h.p50),
            us(h.p99),
            us(h.p999),
            us(h.max),
        );
    }
    if let Some(sizes) = report.latency_for("batch_size") {
        if sizes.count > 0 {
            println!(
                "\nbatching: {} group commits; batch size min {} / p50 {} / p99 {} / max {} events",
                report.batches, sizes.min, sizes.p50, sizes.p99, sizes.max,
            );
        }
    }
    if report.per_stream.len() > 1 {
        println!(
            "\n{:>6} {:>6} {:>9} {:>9} {:>10} {:>10} {:>10} {:>10} {:>8}",
            "stream",
            "nodes",
            "events",
            "batches",
            "events/s",
            "p50 µs",
            "p99 µs",
            "p999 µs",
            "scratch"
        );
        for s in &report.per_stream {
            let all = s
                .latency
                .iter()
                .find(|h| h.name == "all")
                .cloned()
                .unwrap_or_default();
            println!(
                "{:>6} {:>6} {:>9} {:>9} {:>10.0} {:>10.1} {:>10.1} {:>10.1} {:>8}",
                s.stream,
                s.nodes,
                s.events,
                s.batches,
                s.events_per_sec,
                us(all.p50),
                us(all.p99),
                us(all.p999),
                if s.matches_scratch { "ok" } else { "DRIFT" },
            );
        }
    }
    println!(
        "\nthroughput: {:.0} events/s sustained over {:.2} s \
         ({} moves, {} joins, {} deaths; {} commits)",
        report.events_per_sec,
        report.elapsed_secs,
        report.moves,
        report.joins,
        report.deaths,
        report.batches,
    );
    println!(
        "final: {} active nodes, {} edges; from-scratch bit-identity: {}",
        report.final_active,
        report.final_edges,
        if report.matches_scratch { "yes" } else { "NO" },
    );
    println!(
        "workers: {} core{} detected, {} stream worker{} ({})",
        report.detected_cores,
        if report.detected_cores == 1 { "" } else { "s" },
        report.stream_workers,
        if report.stream_workers == 1 { "" } else { "s" },
        if report.stream_workers > 1 {
            "streams fanned out over the workers"
        } else if report.streams > 1 {
            "single worker — streams ran sequentially, outcome bit-identical"
        } else {
            "one stream, one worker"
        },
    );
    // The par.* series are only populated when the streams or a re-grow
    // actually fan out; serial hosts and small affected sets have
    // nothing to report.
    if report.metrics.counter("par.fan_outs").unwrap_or(0) > 0 {
        let sum = |name: &str| report.metrics.histogram(name).map_or(0, |h| h.sum);
        println!(
            "parallel: {} fan-outs, {} worker chunks, {:.1} ms total worker busy time \
             ({:.0} threads planned)",
            report.metrics.counter("par.fan_outs").unwrap_or(0),
            sum("par.worker_chunks"),
            sum("par.worker_busy_nanos") as f64 / 1_000_000.0,
            report.metrics.gauge("par.planned_threads").unwrap_or(1.0),
        );
    }

    // Production gates — the CI smoke run relies on these failing loud.
    if !report.matches_scratch {
        return Err("maintained graph diverged from the from-scratch construction".into());
    }
    for s in &report.per_stream {
        if !s.matches_scratch {
            return Err(format!(
                "stream {} diverged from its from-scratch construction",
                s.stream
            ));
        }
    }
    if report.events_per_sec <= 0.0 || report.events_per_sec.is_nan() {
        return Err("throughput must be positive".into());
    }
    for h in &report.latency {
        if !(h.p50 <= h.p99 && h.p99 <= h.p999 && h.p999 <= h.max) {
            return Err(format!(
                "non-monotone percentiles in the `{}` series",
                h.name
            ));
        }
    }
    for s in &report.per_stream {
        for h in &s.latency {
            if !(h.p50 <= h.p99 && h.p99 <= h.p999 && h.p999 <= h.max) {
                return Err(format!(
                    "non-monotone percentiles in stream {}'s `{}` series",
                    s.stream, h.name
                ));
            }
        }
    }
    // Honesty gate: a multi-core host asked for multiple streams must
    // actually plan multiple workers — a silent sequential fallback
    // would publish parallel-looking numbers measured serially.
    if report.detected_cores >= 2 && report.streams >= 2 && report.stream_workers < 2 {
        return Err(format!(
            "{} cores detected but only {} stream worker planned — refusing to \
             report a sequential run as a multi-stream benchmark",
            report.detected_cores, report.stream_workers
        ));
    }

    if let Some(path) = args.value_of("json") {
        fs::write(
            path,
            serde_json::to_string_pretty(&report).expect("serializable"),
        )
        .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `cbtc analyze`
pub fn analyze(args: &Args) -> Result<(), String> {
    let path = args
        .positional()
        .ok_or("usage: cbtc analyze <trace.jsonl> [--json FILE]")?;
    let events = cbtc_trace::read_trace(path).map_err(|e| e.to_string())?;
    let a = cbtc_trace::analyze(&events).map_err(|e| e.to_string())?;

    println!(
        "trace {path} — run \"{}\" (schema v{}, {} pricing), {} nodes, seed {}",
        a.run, a.version, a.pricing, a.nodes, a.seed
    );
    println!("{} events over t = 0..{}:", events.len(), a.span);
    for (kind, count) in &a.kind_counts {
        println!("  {kind:<16} {count:>8}");
    }

    println!("\ntopology epochs ({}):", a.epoch_timeline.len());
    println!("{:>10} {:>6} {:>8} {:>9}", "t", "live", "edges", "avg deg");
    let total = a.epoch_timeline.len();
    for (i, (t, live, edges)) in a.epoch_timeline.iter().enumerate() {
        if total > 12 && i == 6 {
            println!("{:>10}", "…");
        }
        if total > 12 && (6..total - 6).contains(&i) {
            continue;
        }
        let avg = 2.0 * *edges as f64 / (*live).max(1) as f64;
        println!("{t:>10} {live:>6} {edges:>8} {avg:>9.2}");
    }

    let degrees = a.final_degrees();
    let (dmin, dmax) = degrees
        .iter()
        .fold((u32::MAX, 0), |(lo, hi), &d| (lo.min(d), hi.max(d)));
    let dmean = 2.0 * a.final_edges.len() as f64 / degrees.len().max(1) as f64;
    println!(
        "\nfinal topology: {} edges; degree min {} / mean {:.2} / max {}",
        a.final_edges.len(),
        if degrees.is_empty() { 0 } else { dmin },
        dmean,
        dmax
    );

    let n = a.nodes as usize;
    if n <= 24 {
        println!("connection matrix ({n}×{n}):");
        for (i, row) in a.connection_matrix().iter().enumerate() {
            let cells: String = row.iter().map(|&c| if c { '#' } else { '·' }).collect();
            println!("  {i:>3} {cells}");
        }
    } else {
        let k = 16;
        println!(
            "connection matrix (bucketed {k}×{k}, ≈{} node IDs per bucket, cells are edge counts):",
            n.div_ceil(k)
        );
        for row in a.bucketed_matrix(k) {
            let cells: String = row.iter().map(|c| format!("{c:>5}")).collect();
            println!("  {cells}");
        }
    }

    let changed = a.power_per_node.iter().filter(|(c, _)| *c > 0).count();
    if changed > 0 {
        let powers: Vec<f64> = a
            .power_per_node
            .iter()
            .filter(|(c, _)| *c > 0)
            .map(|&(_, p)| p)
            .collect();
        let (pmin, pmax) = powers.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &p| {
            (lo.min(p), hi.max(p))
        });
        let pmean = powers.iter().sum::<f64>() / powers.len() as f64;
        // Name the pricing basis: under measured pricing these radius
        // powers are effective-distance prices, not geometric ones, and
        // the old unqualified label misread as geometric units.
        println!(
            "power ({} pricing): {changed} nodes recorded changes; \
             last power min {pmin:.1} / mean {pmean:.1} / max {pmax:.1}",
            a.pricing
        );
    }

    println!(
        "churn: {} deaths, {} joins, {} moves",
        a.deaths, a.joins, a.moves
    );
    if !a.reconvergence.is_empty() {
        let mean =
            a.reconvergence.iter().map(|(_, d)| d).sum::<f64>() / a.reconvergence.len() as f64;
        println!(
            "reconvergence: {} bursts reconverged, mean {:.0} after the burst",
            a.reconvergence.len(),
            mean
        );
        for (burst, after) in &a.reconvergence {
            println!("  burst t={burst:<8} reconverged after {after}");
        }
    }

    let latency = a.reconfig_latency();
    if latency.count > 0 {
        let regrown: u64 = a.reconfig_regrown.sum();
        if a.has_latency_samples() {
            println!(
                "reconfiguration: {} incremental updates, {regrown} nodes re-grown; \
                 latency p50 {:.1} µs / p99 {:.1} µs / max {:.1} µs",
                latency.count,
                latency.p50 / 1_000.0,
                latency.p99 / 1_000.0,
                latency.max / 1_000.0
            );
        } else {
            println!(
                "reconfiguration: {} incremental updates, {regrown} nodes re-grown \
                 (trace recorded without timing; no latency samples)",
                latency.count
            );
        }
    }

    // The live percentile timeline: periodic Metrics checkpoints from a
    // `cbtc serve --metrics-every` run. Each checkpoint is one stream's
    // metrics shard; the final record is the run's merged snapshot.
    if a.metrics_timeline.len() > 1 {
        println!(
            "\nlive metrics timeline ({} checkpoints):",
            a.metrics_timeline.len()
        );
        println!(
            "{:>10} {:>7} {:>9} {:>9} {:>10} {:>10} {:>10}",
            "t", "stream", "events", "commits", "p50 µs", "p99 µs", "p999 µs"
        );
        let last = a.metrics_timeline.len() - 1;
        for (i, (t, snap)) in a.metrics_timeline.iter().enumerate() {
            // Merge the per-kind reconfig.nanos.* shards into one
            // distribution per checkpoint — exact, via the log buckets.
            let mut merged: Option<cbtc_metrics::HistogramSnapshot> = None;
            for h in &snap.histograms {
                if h.name.starts_with("reconfig.nanos") {
                    match merged.as_mut() {
                        None => merged = Some(h.clone()),
                        Some(m) => m.merge(h),
                    }
                }
            }
            let stream = if i == last {
                "final".to_owned()
            } else {
                match snap.gauge("serve.stream") {
                    Some(s) => format!("{s:.0}"),
                    None => "-".to_owned(),
                }
            };
            let events = snap.counter("reconfig.events.move").unwrap_or(0)
                + snap.counter("reconfig.events.join").unwrap_or(0)
                + snap.counter("reconfig.events.death").unwrap_or(0);
            let commits = snap.counter("reconfig.batches").unwrap_or(0);
            match merged {
                Some(m) if m.count > 0 => println!(
                    "{t:>10} {stream:>7} {events:>9} {commits:>9} {:>10.1} {:>10.1} {:>10.1}",
                    m.p50 as f64 / 1_000.0,
                    m.p99 as f64 / 1_000.0,
                    m.p999 as f64 / 1_000.0,
                ),
                _ => println!(
                    "{t:>10} {stream:>7} {events:>9} {commits:>9} {:>10} {:>10} {:>10}",
                    "-", "-", "-"
                ),
            }
        }
    }

    if let Some((t, energy)) = &a.last_energy {
        let remaining: f64 = energy.iter().sum();
        let low = energy.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "energy at t={t}: {remaining:.0} total across {} nodes (poorest node {low:.0})",
            energy.len()
        );
    }
    if let Some((t, delivered, lost, prr)) = a.last_prr {
        println!(
            "delivery at t={t}: {delivered} delivered, {lost} lost — PRR {:.2}%",
            prr * 100.0
        );
    }

    if let Some(out) = args.value_of("json") {
        let kinds: Vec<serde_json::Value> = a
            .kind_counts
            .iter()
            .map(|(k, c)| serde_json::json!({ "kind": k, "count": c }))
            .collect();
        let regrown: u64 = a.reconfig_regrown.sum();
        let reconfig = serde_json::json!({
            "count": latency.count,
            "regrown": regrown,
            "p50_nanos": latency.p50,
            "p99_nanos": latency.p99,
            "max_nanos": latency.max,
        });
        let doc = serde_json::json!({
            "trace": path,
            "version": a.version,
            "run": a.run,
            "nodes": a.nodes,
            "seed": a.seed,
            "pricing": a.pricing,
            "span": a.span,
            "events": kinds,
            "epochs": a.epoch_timeline.len(),
            "final_edges": a.final_edges.len(),
            "deaths": a.deaths,
            "joins": a.joins,
            "moves": a.moves,
            "reconvergence": a.reconvergence,
            "reconfig": reconfig,
        });
        fs::write(
            out,
            serde_json::to_string_pretty(&doc).expect("serializable"),
        )
        .map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn run_with_defaults_succeeds() {
        assert!(run(&args(&["--nodes", "20", "--seed", "3"])).is_ok());
    }

    #[test]
    fn run_with_all_optimizations() {
        assert!(run(&args(&["--nodes", "15", "--all", "--alpha", "2pi3"])).is_ok());
    }

    #[test]
    fn asym_rejected_for_large_alpha() {
        let e = run(&args(&["--nodes", "10", "--asym", "--alpha", "5pi6"])).unwrap_err();
        assert!(e.contains("2π/3"));
    }

    #[test]
    fn zero_nodes_rejected() {
        assert!(run(&args(&["--nodes", "0"])).is_err());
    }

    #[test]
    fn construct_both_kinds() {
        assert!(construct(&args(&[])).is_ok()); // example21 default
        assert!(construct(&args(&["theorem24", "--epsilon", "0.2"])).is_ok());
        assert!(construct(&args(&["theorem42"])).is_err());
    }

    /// The flags in `name`'s `USAGE` synopsis: its `cbtc NAME` line plus
    /// the continuation lines indented past the description column.
    fn usage_flags(name: &str) -> Vec<String> {
        let head = format!("    cbtc {name} ");
        let mut lines = USAGE.lines().skip_while(|l| !l.starts_with(&head));
        let first = lines
            .next()
            .unwrap_or_else(|| panic!("no USAGE block for {name}"));
        let indent = |l: &str| l.len() - l.trim_start().len();
        std::iter::once(first)
            .chain(lines.take_while(|l| indent(l) > 8))
            .flat_map(|l| l.split("--").skip(1))
            .map(|f| {
                f.chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect()
            })
            .collect()
    }

    #[test]
    fn usage_lists_exactly_the_flags_each_command_reads() {
        for command in COMMANDS {
            let flags: Vec<&str> = command.flags.split_whitespace().collect();
            assert_eq!(usage_flags(command.name), flags, "cbtc {}", command.name);
        }
        // And every command USAGE documents is dispatched.
        for line in USAGE.lines().filter(|l| l.starts_with("    cbtc ")) {
            let name = line.split_whitespace().nth(1).unwrap();
            assert!(
                name == "help" || COMMANDS.iter().any(|c| c.name == name),
                "USAGE documents `cbtc {name}`, which dispatch does not know"
            );
        }
    }

    #[test]
    fn dispatch_rejects_flags_the_command_does_not_read() {
        for flag in ["--batch-wait-us", "--batch-wiat-us"] {
            let e = dispatch("serve", &args(&["--nodes", "100", flag, "100"])).unwrap_err();
            assert!(e.contains(flag), "unexpected: {e}");
        }
        // A flag another command reads is still unknown here.
        assert!(dispatch("compare", &args(&["--all"])).is_err());
        assert!(dispatch("construct", &args(&["--theorem24"])).is_err());
        assert!(dispatch("bogus", &args(&[]))
            .unwrap_err()
            .contains("unknown command"));
        assert!(dispatch("compare", &args(&["--nodes", "12"])).is_ok());
    }

    #[test]
    fn compare_runs() {
        assert!(compare(&args(&["--nodes", "20"])).is_ok());
    }

    #[test]
    fn lifetime_runs_on_a_small_scenario() {
        assert!(lifetime(&args(&[
            "--nodes",
            "15",
            "--width",
            "700",
            "--height",
            "700",
            "--trials",
            "2",
            "--packets",
            "10",
            "--energy",
            "150000",
            "--epochs",
            "3000",
        ]))
        .is_ok());
    }

    #[test]
    fn lifetime_accepts_measured_basis() {
        assert!(lifetime(&args(&[
            "--nodes",
            "15",
            "--width",
            "700",
            "--height",
            "700",
            "--trials",
            "1",
            "--packets",
            "10",
            "--energy",
            "150000",
            "--epochs",
            "3000",
            "--basis",
            "measured",
        ]))
        .is_ok());
    }

    #[test]
    fn lifetime_rejects_bad_input() {
        assert!(lifetime(&args(&["--nodes", "10", "--basis", "bogus"])).is_err());
        assert!(lifetime(&args(&["--trials", "0"])).is_err());
        assert!(lifetime(&args(&["--nodes", "5", "--pattern", "bogus"])).is_err());
        assert!(lifetime(&args(&["--range", "0.5"])).is_err());
        assert!(lifetime(&args(&["--width", "-1"])).is_err());
        assert!(lifetime(&args(&["--energy", "0"])).is_err());
        // Pattern node beyond the node count would silently carry no
        // traffic; it must be rejected instead.
        let e = lifetime(&args(&["--nodes", "10", "--pattern", "convergecast:50"])).unwrap_err();
        assert!(e.contains("n9"), "unexpected message: {e}");
    }

    #[test]
    fn churn_runs_on_a_small_scenario() {
        let dir = std::env::temp_dir();
        let json = dir.join("cbtc_cli_churn_test.json");
        assert!(churn(&args(&[
            "--nodes",
            "30",
            "--cycles",
            "2",
            "--cycle-ticks",
            "150",
            "--warmup",
            "120",
            "--json",
            json.to_str().unwrap(),
        ]))
        .is_ok());
        let doc: serde_json::Value =
            serde_json::from_str(&fs::read_to_string(&json).unwrap()).unwrap();
        assert!(doc["bursts"].is_array());
        assert!(doc["traffic"]["broadcasts"].as_u64().unwrap() > 0);
        fs::remove_file(json).ok();
    }

    #[test]
    fn phy_runs_on_a_small_sweep() {
        assert!(phy(&args(&[
            "--nodes",
            "25",
            "--trials",
            "2",
            "--sigmas",
            "0,6",
            "--protocol-nodes",
            "20",
        ]))
        .is_ok());
    }

    #[test]
    fn phy_runs_with_measured_basis() {
        assert!(phy(&args(&[
            "--nodes",
            "20",
            "--trials",
            "1",
            "--sigmas",
            "0",
            "--protocol-nodes",
            "15",
            "--basis",
            "measured",
        ]))
        .is_ok());
    }

    #[test]
    fn phy_rejects_bad_input() {
        assert!(phy(&args(&["--nodes", "0"])).is_err());
        assert!(phy(&args(&["--nodes", "20", "--basis", "bogus"])).is_err());
        assert!(phy(&args(&["--nodes", "20", "--sigmas", "abc"])).is_err());
        assert!(phy(&args(&["--nodes", "20", "--sigmas", "-3"])).is_err());
        assert!(phy(&args(&["--nodes", "20", "--alpha", "bogus"])).is_err());
        let e = phy(&args(&["--nodes", "20", "--protocol-nodes", "0"])).unwrap_err();
        assert!(e.contains("protocol-nodes"), "unexpected: {e}");
    }

    #[test]
    fn churn_rejects_bad_input() {
        assert!(churn(&args(&["--nodes", "5"])).is_err());
        assert!(churn(&args(&["--nodes", "30", "--cycles", "0"])).is_err());
        assert!(churn(&args(&["--nodes", "30", "--speed-min", "0"])).is_err());
        assert!(churn(&args(&["--nodes", "30", "--phy-sigma", "abc"])).is_err());
        assert!(churn(&args(&["--nodes", "30", "--phy-sigma", "-1"])).is_err());
    }

    #[test]
    fn traced_churn_feeds_analyze_and_replay() {
        let dir = std::env::temp_dir();
        let trace = dir.join("cbtc_cli_trace_test.jsonl");
        let trace_str = trace.to_str().unwrap();
        assert!(churn(&args(&[
            "--nodes",
            "30",
            "--cycles",
            "2",
            "--cycle-ticks",
            "150",
            "--warmup",
            "120",
            "--phy-sigma",
            "4",
            "--trace",
            trace_str,
        ]))
        .is_ok());
        // The trace is valid JSONL with the Meta header first.
        let first = fs::read_to_string(&trace)
            .unwrap()
            .lines()
            .next()
            .unwrap()
            .to_owned();
        assert!(first.contains("\"Meta\""), "first line: {first}");

        let json = dir.join("cbtc_cli_trace_test_analysis.json");
        assert!(analyze(&args(&[trace_str, "--json", json.to_str().unwrap()])).is_ok());
        let doc: serde_json::Value =
            serde_json::from_str(&fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(doc["nodes"].as_u64(), Some(30));
        assert!(doc["epochs"].as_u64().unwrap() > 0);
        assert!(doc["reconfig"]["max_nanos"].as_f64().unwrap() > 0.0);

        let svg = dir.join("cbtc_cli_trace_test.svg");
        let html = dir.join("cbtc_cli_trace_test.html");
        assert!(replay(&args(&[
            trace_str,
            "--svg",
            svg.to_str().unwrap(),
            "--html",
            html.to_str().unwrap(),
            "--max-frames",
            "8",
        ]))
        .is_ok());
        assert!(fs::read_to_string(&svg).unwrap().starts_with("<svg"));
        assert!(fs::read_to_string(&html)
            .unwrap()
            .starts_with("<!DOCTYPE html>"));
        for f in [&trace, &json, &svg, &html] {
            fs::remove_file(f).ok();
        }
    }

    #[test]
    fn replay_and_analyze_reject_bad_input() {
        assert!(replay(&args(&[])).unwrap_err().contains("usage"));
        assert!(analyze(&args(&[])).unwrap_err().contains("usage"));
        assert!(replay(&args(&["/nonexistent/trace.jsonl"])).is_err());
        assert!(analyze(&args(&["/nonexistent/trace.jsonl"])).is_err());
        let dir = std::env::temp_dir();
        let bad = dir.join("cbtc_cli_bad_trace.jsonl");
        fs::write(&bad, "not json\n").unwrap();
        let e = analyze(&args(&[bad.to_str().unwrap()])).unwrap_err();
        assert!(e.contains("line 1"), "unexpected: {e}");
        assert!(replay(&args(&[bad.to_str().unwrap(), "--max-frames", "0"])).is_err());
        fs::remove_file(bad).ok();
    }

    #[test]
    fn svg_and_json_outputs() {
        let dir = std::env::temp_dir();
        let svg = dir.join("cbtc_cli_test.svg");
        let json = dir.join("cbtc_cli_test.json");
        let result = run(&args(&[
            "--nodes",
            "12",
            "--svg",
            svg.to_str().unwrap(),
            "--json",
            json.to_str().unwrap(),
        ]));
        assert!(result.is_ok());
        assert!(fs::read_to_string(&svg).unwrap().starts_with("<svg"));
        let doc: serde_json::Value =
            serde_json::from_str(&fs::read_to_string(&json).unwrap()).unwrap();
        assert!(doc["edges"].is_array());
        fs::remove_file(svg).ok();
        fs::remove_file(json).ok();
    }
}
