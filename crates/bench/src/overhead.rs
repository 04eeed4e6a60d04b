//! The Figure 7/8 overhead experiment: run GC, RW, and MWM on the three
//! performance datasets under each DebugConfig of Table 3, and report
//! runtimes normalized to the no-debug run, with capture counts.

use std::time::{Duration, Instant};

use graft::{DebugConfig, GraftRunner};
use graft_algorithms::coloring::{GCMessage, GCValue, GraphColoring, GraphColoringMaster};
use graft_algorithms::matching::{MWMValue, MaxWeightMatching};
use graft_algorithms::random_walk::{RWValue, RandomWalk};
use graft_datasets::{catalog, weighted, Dataset, EdgeList};
use graft_pregel::{Computation, Engine, Graph};

/// The DebugConfig variants of Table 3, plus the no-debug baseline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dc {
    /// No Graft at all (the 1.0 baseline).
    NoDebug,
    /// DC-sp: captures 5 specified vertices.
    Sp,
    /// DC-sp+nbr: captures 5 specified vertices and their neighbors.
    SpNbr,
    /// DC-msg: checks that message values are non-negative.
    Msg,
    /// DC-vv: checks that vertex values are non-negative.
    Vv,
    /// DC-full: 10 specified vertices + neighbors + both constraints +
    /// exception capture.
    Full,
}

impl Dc {
    /// All bars of one cluster, in display order.
    pub const ALL: [Dc; 6] = [Dc::NoDebug, Dc::Sp, Dc::SpNbr, Dc::Msg, Dc::Vv, Dc::Full];

    /// The label used in the paper.
    pub fn label(self) -> &'static str {
        match self {
            Dc::NoDebug => "no-debug",
            Dc::Sp => "DC-sp",
            Dc::SpNbr => "DC-sp+nbr",
            Dc::Msg => "DC-msg",
            Dc::Vv => "DC-vv",
            Dc::Full => "DC-full",
        }
    }

    /// Table 3's description of the configuration.
    pub fn description(self) -> &'static str {
        match self {
            Dc::NoDebug => "Runs without Graft (baseline)",
            Dc::Sp => "Captures 5 specified vertices",
            Dc::SpNbr => "Captures 5 specified vertices and their neighbors",
            Dc::Msg => "Specifies constraint that message values are non-negative",
            Dc::Vv => "Specifies constraint that vertex values are non-negative",
            Dc::Full => {
                "Captures 10 specified vertices and their neighbors, specifies message \
                 and vertex constraints, and checks for exceptions"
            }
        }
    }
}

/// One measured bar of the figure.
#[derive(Clone, Debug)]
pub struct OverheadRow {
    /// "GC", "RW", or "MWM".
    pub algorithm: &'static str,
    /// Dataset name.
    pub dataset: String,
    /// Configuration label.
    pub config: &'static str,
    /// Mean wall time over the repetitions.
    pub mean: Duration,
    /// Standard deviation over the repetitions (the error bars).
    pub stdev: Duration,
    /// Mean normalized to the no-debug mean of the same cluster.
    pub normalized: f64,
    /// Vertex contexts captured (identical across repetitions).
    pub captures: u64,
}

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// Linear scale divisor applied to the paper's dataset sizes.
    pub scale: u64,
    /// Repetitions per bar (the paper uses 5).
    pub reps: usize,
    /// Engine workers.
    pub workers: usize,
    /// Generator / algorithm seed.
    pub seed: u64,
}

impl Default for Settings {
    fn default() -> Self {
        Self { scale: 1000, reps: 5, workers: 8, seed: 42 }
    }
}

fn mean_stdev(samples: &[Duration]) -> (Duration, Duration) {
    let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    let mean_s = mean.as_secs_f64();
    let variance = samples.iter().map(|s| (s.as_secs_f64() - mean_s).powi(2)).sum::<f64>()
        / samples.len() as f64;
    (mean, Duration::from_secs_f64(variance.sqrt()))
}

/// Picks the "specified vertices" for DC-sp style configs: spread across
/// the id space, skewing away from hubs (capturing a hub's whole
/// neighborhood every superstep would swamp the trace files; the paper's
/// capture counts indicate moderate-degree choices).
fn specified_ids(list: &EdgeList, count: u64) -> Vec<u64> {
    let degrees = list.out_degrees();
    let average = (list.num_edges() / list.num_vertices.max(1)).max(1);
    let mut picked = Vec::with_capacity(count as usize);
    let mut cursor = 0u64;
    while (picked.len() as u64) < count {
        let candidate = cursor * 7919 % list.num_vertices;
        if degrees[candidate as usize] <= average * 2 && !picked.contains(&candidate) {
            picked.push(candidate);
        }
        cursor += 1;
        if cursor > list.num_vertices * 4 {
            // Degenerate degree distribution: take anything.
            picked.push(cursor % list.num_vertices);
        }
    }
    picked
}

fn sample_then_row(
    algorithm: &'static str,
    dataset: &str,
    config: Dc,
    samples: Vec<Duration>,
    baseline_mean: Option<Duration>,
    captures: u64,
) -> OverheadRow {
    let (mean, stdev) = mean_stdev(&samples);
    let normalized = match baseline_mean {
        Some(base) => mean.as_secs_f64() / base.as_secs_f64(),
        None => 1.0,
    };
    OverheadRow {
        algorithm,
        dataset: dataset.to_string(),
        config: config.label(),
        mean,
        stdev,
        normalized,
        captures,
    }
}

/// Generic cluster runner: measures all six bars for one prepared graph.
fn run_cluster<C, FPlain, FGraft>(
    algorithm: &'static str,
    dataset: &str,
    reps: usize,
    run_plain: FPlain,
    run_graft: FGraft,
) -> Vec<OverheadRow>
where
    C: Computation,
    FPlain: Fn() -> Duration,
    FGraft: Fn(Dc) -> (Duration, u64),
{
    let mut rows = Vec::new();
    // One untimed warmup so cold caches and first-touch page faults do
    // not land on the baseline bar.
    let _ = run_plain();
    let baseline_samples: Vec<Duration> = (0..reps).map(|_| run_plain()).collect();
    let (baseline_mean, _) = mean_stdev(&baseline_samples);
    rows.push(sample_then_row(algorithm, dataset, Dc::NoDebug, baseline_samples, None, 0));
    for dc in [Dc::Sp, Dc::SpNbr, Dc::Msg, Dc::Vv, Dc::Full] {
        let mut samples = Vec::with_capacity(reps);
        let mut captures = 0;
        for _ in 0..reps {
            let (elapsed, caps) = run_graft(dc);
            samples.push(elapsed);
            captures = caps;
        }
        rows.push(sample_then_row(algorithm, dataset, dc, samples, Some(baseline_mean), captures));
    }
    let _ = std::marker::PhantomData::<C>;
    rows
}

fn gc_config(dc: Dc, ids: &[u64]) -> DebugConfig<GraphColoring> {
    let builder = DebugConfig::<GraphColoring>::builder().catch_exceptions(dc == Dc::Full);
    match dc {
        Dc::NoDebug => unreachable!("baseline runs without Graft"),
        Dc::Sp => builder.capture_ids(ids[..5].to_vec()).build(),
        Dc::SpNbr => builder.capture_ids(ids[..5].to_vec()).capture_neighbors(true).build(),
        Dc::Msg => builder
            .message_constraint(|m, _, _, _| match m {
                GCMessage::Priority { priority, .. } => *priority < u64::MAX,
                GCMessage::InSet => true,
            })
            .build(),
        Dc::Vv => builder
            .vertex_value_constraint(|v, _, _| v.color.is_none_or(|c| (c as i64) >= 0))
            .build(),
        Dc::Full => builder
            .capture_ids(ids.to_vec())
            .capture_neighbors(true)
            .message_constraint(|m, _, _, _| match m {
                GCMessage::Priority { priority, .. } => *priority < u64::MAX,
                GCMessage::InSet => true,
            })
            .vertex_value_constraint(|v, _, _| v.color.is_none_or(|c| (c as i64) >= 0))
            .build(),
    }
}

fn rw_config(dc: Dc, ids: &[u64]) -> DebugConfig<RandomWalk> {
    let builder = DebugConfig::<RandomWalk>::builder().catch_exceptions(dc == Dc::Full);
    match dc {
        Dc::NoDebug => unreachable!("baseline runs without Graft"),
        Dc::Sp => builder.capture_ids(ids[..5].to_vec()).build(),
        Dc::SpNbr => builder.capture_ids(ids[..5].to_vec()).capture_neighbors(true).build(),
        Dc::Msg => builder.message_constraint(|m, _, _, _| *m >= 0).build(),
        Dc::Vv => builder.vertex_value_constraint(|v, _, _| v.walkers >= 0).build(),
        Dc::Full => builder
            .capture_ids(ids.to_vec())
            .capture_neighbors(true)
            .message_constraint(|m, _, _, _| *m >= 0)
            .vertex_value_constraint(|v, _, _| v.walkers >= 0)
            .build(),
    }
}

fn mwm_config(dc: Dc, ids: &[u64]) -> DebugConfig<MaxWeightMatching> {
    let builder = DebugConfig::<MaxWeightMatching>::builder().catch_exceptions(dc == Dc::Full);
    match dc {
        Dc::NoDebug => unreachable!("baseline runs without Graft"),
        Dc::Sp => builder.capture_ids(ids[..5].to_vec()).build(),
        Dc::SpNbr => builder.capture_ids(ids[..5].to_vec()).capture_neighbors(true).build(),
        Dc::Msg => builder.message_constraint(|_, _, _, _| true).build(),
        Dc::Vv => builder
            .vertex_value_constraint(|v, _, _| v.matched_with.is_none_or(|p| (p as i64) >= 0))
            .build(),
        Dc::Full => builder
            .capture_ids(ids.to_vec())
            .capture_neighbors(true)
            .message_constraint(|_, _, _, _| true)
            .vertex_value_constraint(|v, _, _| v.matched_with.is_none_or(|p| (p as i64) >= 0))
            .build(),
    }
}

/// Runs the GC cluster on one dataset.
pub fn gc_cluster(list: &EdgeList, settings: Settings) -> Vec<OverheadRow> {
    let graph: Graph<u64, GCValue, ()> = list.to_graph(GCValue::default());
    let ids = specified_ids(list, 10);
    let seed = settings.seed;
    run_cluster::<GraphColoring, _, _>(
        "GC",
        &list.name,
        settings.reps,
        || {
            let start = Instant::now();
            Engine::new(GraphColoring::new(seed))
                .with_master(GraphColoringMaster)
                .num_workers(settings.workers)
                .max_supersteps(5000)
                .run(graph.clone())
                .expect("GC does not fail");
            start.elapsed()
        },
        |dc| {
            let runner = GraftRunner::new(GraphColoring::new(seed), gc_config(dc, &ids))
                .with_master(GraphColoringMaster)
                .num_workers(settings.workers)
                .max_supersteps(5000);
            let start = Instant::now();
            let run = runner.run(graph.clone(), "/bench/gc").expect("trace setup succeeds");
            let elapsed = start.elapsed();
            run.outcome.as_ref().expect("GC does not fail");
            (elapsed, run.captures)
        },
    )
}

/// Runs the RW cluster on one dataset.
pub fn rw_cluster(list: &EdgeList, settings: Settings, steps: u64) -> Vec<OverheadRow> {
    let graph: Graph<u64, RWValue, ()> = list.to_graph(RWValue::default());
    let ids = specified_ids(list, 10);
    let seed = settings.seed;
    run_cluster::<RandomWalk, _, _>(
        "RW",
        &list.name,
        settings.reps,
        || {
            let start = Instant::now();
            Engine::new(RandomWalk::new(seed, steps))
                .num_workers(settings.workers)
                .run(graph.clone())
                .expect("RW does not fail");
            start.elapsed()
        },
        |dc| {
            let runner = GraftRunner::new(RandomWalk::new(seed, steps), rw_config(dc, &ids))
                .num_workers(settings.workers);
            let start = Instant::now();
            let run = runner.run(graph.clone(), "/bench/rw").expect("trace setup succeeds");
            let elapsed = start.elapsed();
            run.outcome.as_ref().expect("RW does not fail");
            (elapsed, run.captures)
        },
    )
}

/// Runs the MWM cluster on one dataset (weighted symmetrically).
pub fn mwm_cluster(list: &EdgeList, settings: Settings) -> Vec<OverheadRow> {
    let graph = weighted::weight_graph(list, settings.seed, MWMValue::default());
    let ids = specified_ids(list, 10);
    run_cluster::<MaxWeightMatching, _, _>(
        "MWM",
        &list.name,
        settings.reps,
        || {
            let start = Instant::now();
            Engine::new(MaxWeightMatching::new())
                .num_workers(settings.workers)
                .max_supersteps(500)
                .run(graph.clone())
                .expect("MWM does not fail");
            start.elapsed()
        },
        |dc| {
            let runner = GraftRunner::new(MaxWeightMatching::new(), mwm_config(dc, &ids))
                .num_workers(settings.workers)
                .max_supersteps(500);
            let start = Instant::now();
            let run = runner.run(graph.clone(), "/bench/mwm").expect("trace setup succeeds");
            let elapsed = start.elapsed();
            run.outcome.as_ref().expect("MWM does not fail");
            (elapsed, run.captures)
        },
    )
}

/// Runs the whole figure: {GC, RW, MWM} × Table 2 datasets × Table 3
/// configs.
pub fn run_figure(settings: Settings) -> Vec<OverheadRow> {
    let mut rows = Vec::new();
    for dataset in catalog::PERF {
        eprintln!("generating {} at 1/{} scale…", dataset.name, settings.scale);
        let list = undirected(&dataset, settings);
        eprintln!("  {} vertices, {} edges", list.num_vertices, list.num_edges());
        for (name, cluster) in [
            ("GC", gc_cluster(&list, settings)),
            ("RW", rw_cluster(&list, settings, 10)),
            ("MWM", mwm_cluster(&list, settings)),
        ] {
            eprintln!("  {name}-{} done", list.name);
            rows.extend(cluster);
        }
    }
    rows
}

fn undirected(dataset: &Dataset, settings: Settings) -> EdgeList {
    let mut list = dataset.generate_undirected(settings.scale, settings.seed);
    list.dedupe();
    list
}

/// Prints the figure as text bars, one cluster per algorithm × dataset.
pub fn print_figure(rows: &[OverheadRow]) -> String {
    let mut out = String::new();
    let mut current_cluster = String::new();
    for row in rows {
        let cluster = format!("{}-{}", row.algorithm, row.dataset);
        if cluster != current_cluster {
            out.push_str(&format!("\n== {cluster} ==\n"));
            current_cluster = cluster;
        }
        let bar_len = (row.normalized * 40.0).round() as usize;
        out.push_str(&format!(
            "{:<10} {:<44} {:>6.3}x  ±{:>6.3}  {:>9.3}s  captures={}\n",
            row.config,
            "#".repeat(bar_len.min(60)),
            row.normalized,
            row.stdev.as_secs_f64() / row.mean.as_secs_f64().max(1e-12),
            row.mean.as_secs_f64(),
            row.captures,
        ));
    }
    out
}

/// Serializes rows as a machine-readable JSON document (for EXPERIMENTS.md
/// bookkeeping).
pub fn rows_to_json(rows: &[OverheadRow]) -> String {
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"algorithm\":\"{}\",\"dataset\":\"{}\",\"config\":\"{}\",\
                 \"mean_secs\":{:.6},\"stdev_secs\":{:.6},\"normalized\":{:.4},\
                 \"captures\":{}}}",
                r.algorithm,
                r.dataset,
                r.config,
                r.mean.as_secs_f64(),
                r.stdev.as_secs_f64(),
                r.normalized,
                r.captures
            )
        })
        .collect();
    format!("[\n  {}\n]", entries.join(",\n  "))
}
