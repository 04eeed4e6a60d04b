//! `graft-cli run` — execute a built-in algorithm on the simulated HDFS
//! cluster with checkpoint/restart fault tolerance, optionally under a
//! deterministic fault plan.
//!
//! ```text
//! graft-cli run pagerank --vertices 64 --workers 4 \
//!     --checkpoint-every 2 --fault-plan "kill-worker:1@3; kill-datanode:0@2" \
//!     --export ./traces
//! ```
//!
//! The result checksum printed at the end is computed over the sorted
//! final vertex values bit-for-bit, so a faulted run that recovered
//! correctly prints exactly the same checksum as a failure-free run.

use std::process::ExitCode;
use std::sync::Arc;

use graft::{DebugConfig, GraftRunner};
use graft_algorithms::coloring::{GCValue, GraphColoring, GraphColoringMaster};
use graft_algorithms::components::ConnectedComponents;
use graft_algorithms::pagerank::PageRank;
use graft_algorithms::sssp::ShortestPaths;
use graft_dfs::{ClusterFs, ClusterFsConfig, FileSystem, LocalFs};
use graft_obs::Obs;
use graft_pregel::{Computation, FaultPlan, Graph, Value};

const TRACE_ROOT: &str = "/traces/run";

pub fn usage() -> ExitCode {
    eprintln!(
        "usage: graft-cli run <algorithm> [options]\n\
         algorithms:\n\
         \x20 pagerank             8 iterations of PageRank (damping 0.85)\n\
         \x20 sssp                 single-source shortest paths from vertex 0\n\
         \x20 components           connected components by min-label\n\
         \x20 coloring             greedy MIS-based graph coloring (master-driven)\n\
         options:\n\
         \x20 --vertices <n>       graph size (default 64)\n\
         \x20 --workers <n>        engine workers (default: GRAFT_NUM_WORKERS env var,\n\
         \x20                      else 4 — fixed, not hardware-dependent, so fault\n\
         \x20                      plans that name worker ids stay reproducible)\n\
         \x20 --checkpoint-every <k>  checkpoint every k supersteps (default 2; 0 disables)\n\
         \x20 --recovery-mode <m>  restart (default): rewind every partition to the\n\
         \x20                      last checkpoint; log-replay: confined recovery —\n\
         \x20                      replay only the failed partitions from logged\n\
         \x20                      messages while survivors keep their state\n\
         \x20 --fault-plan <spec>  inject faults, e.g. \"kill-worker:1@3; panic@5;\n\
         \x20                      kill-datanode:0@2\" (semicolon- or comma-separated)\n\
         \x20 --memory-budget <b>  cap resident partition + shuffle memory at <b> bytes;\n\
         \x20                      overflow spills to <trace_root>/ooc on the cluster and\n\
         \x20                      streams back on demand (results stay bit-identical)\n\
         \x20 --datanodes <n>      simulated HDFS datanodes (default 4)\n\
         \x20 --replication <r>    block replication factor (default 2)\n\
         \x20 --export <dir>       copy the trace directory to a local directory\n\
         \x20 --metrics <dir>      record metrics + events and export them to a local\n\
         \x20                      directory (browse with `graft-cli profile <dir>`)\n\
         \x20 --logical-clock <ns> use a deterministic logical clock advancing <ns>\n\
         \x20                      per reading, so identical runs export identical bytes\n\
         \x20 --live               stream observability while running: append events to\n\
         \x20                      obs/events.jsonl and commit obs/live snapshots at\n\
         \x20                      superstep boundaries (watch with `graft-cli watch` or\n\
         \x20                      `graft-cli serve --follow`)\n\
         \x20 --pace-ms <ms>       sleep <ms> between supersteps (slows a run down so a\n\
         \x20                      live watcher can observe it in flight)\n\
         \x20 --straggler-threshold <x>  flag a worker as a straggler when its compute\n\
         \x20                      time exceeds <x> times the superstep median"
    );
    ExitCode::FAILURE
}

struct RunOptions {
    algorithm: String,
    vertices: u64,
    workers: usize,
    checkpoint_every: u64,
    recovery_mode: graft_pregel::RecoveryMode,
    fault_plan: Option<FaultPlan>,
    memory_budget: Option<u64>,
    datanodes: usize,
    replication: usize,
    export: Option<String>,
    metrics: Option<String>,
    logical_clock: Option<u64>,
    live: bool,
    pace_ms: Option<u64>,
    straggler_threshold: Option<f64>,
}

fn parse_options(args: &[String]) -> Result<RunOptions, String> {
    let algorithm = args.first().ok_or("missing algorithm")?.clone();
    let mut options = RunOptions {
        algorithm,
        vertices: 64,
        workers: graft_pregel::EngineConfig::worker_override(
            std::env::var("GRAFT_NUM_WORKERS").ok().as_deref(),
        )
        .unwrap_or(4),
        checkpoint_every: 2,
        recovery_mode: graft_pregel::RecoveryMode::default(),
        fault_plan: None,
        memory_budget: None,
        datanodes: 4,
        replication: 2,
        export: None,
        metrics: None,
        logical_clock: None,
        live: false,
        pace_ms: None,
        straggler_threshold: None,
    };
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        if flag == "--live" {
            options.live = true;
            continue;
        }
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--vertices" => {
                options.vertices = value.parse().map_err(|_| format!("bad --vertices {value}"))?
            }
            "--workers" => {
                options.workers = value.parse().map_err(|_| format!("bad --workers {value}"))?
            }
            "--checkpoint-every" => {
                options.checkpoint_every =
                    value.parse().map_err(|_| format!("bad --checkpoint-every {value}"))?
            }
            "--recovery-mode" => {
                options.recovery_mode =
                    value.parse().map_err(|_| format!("bad --recovery-mode {value}"))?
            }
            "--fault-plan" => {
                options.fault_plan =
                    Some(value.parse().map_err(|e| format!("bad --fault-plan: {e}"))?)
            }
            "--memory-budget" => {
                options.memory_budget =
                    Some(value.parse().map_err(|_| format!("bad --memory-budget {value}"))?)
            }
            "--datanodes" => {
                options.datanodes = value.parse().map_err(|_| format!("bad --datanodes {value}"))?
            }
            "--replication" => {
                options.replication =
                    value.parse().map_err(|_| format!("bad --replication {value}"))?
            }
            "--export" => options.export = Some(value.clone()),
            "--metrics" => options.metrics = Some(value.clone()),
            "--logical-clock" => {
                options.logical_clock =
                    Some(value.parse().map_err(|_| format!("bad --logical-clock {value}"))?)
            }
            "--pace-ms" => {
                options.pace_ms = Some(value.parse().map_err(|_| format!("bad --pace-ms {value}"))?)
            }
            "--straggler-threshold" => {
                options.straggler_threshold =
                    Some(value.parse().map_err(|_| format!("bad --straggler-threshold {value}"))?)
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(options)
}

/// Entry point for `graft-cli run <algorithm> [options]`.
pub fn run(args: &[String]) -> ExitCode {
    let options = match parse_options(args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("error: {e}\n");
            return usage();
        }
    };
    match options.algorithm.as_str() {
        "pagerank" => {
            execute(&options, PageRank::new(8), pr_graph(options.vertices), |v| v.to_bits(), |r| r)
        }
        "sssp" => execute(
            &options,
            ShortestPaths::new(0),
            sssp_graph(options.vertices),
            |v| v.to_bits(),
            |r| r,
        ),
        "components" => {
            execute(&options, ConnectedComponents::new(), cc_graph(options.vertices), |v| *v, |r| r)
        }
        "coloring" => execute(
            &options,
            GraphColoring::new(7),
            gc_graph(options.vertices),
            // Colors are small integers; +1 keeps "uncolored" distinct.
            |v| v.color.map(|c| c + 1).unwrap_or(0),
            |r| r.with_master(GraphColoringMaster),
        ),
        other => {
            eprintln!("error: unknown algorithm {other}\n");
            usage()
        }
    }
}

/// Deterministic ring-with-chords topology, the same family the chaos
/// tests use.
fn build_graph<V: Value, E: Value>(
    n: u64,
    vertex: impl Fn(u64) -> V,
    edge: impl Fn(u64) -> E,
) -> Graph<u64, V, E> {
    let mut b = Graph::builder();
    for v in 0..n {
        b.add_vertex(v, vertex(v)).expect("distinct ids");
    }
    for v in 0..n {
        b.add_edge(v, (v + 1) % n, edge(v)).expect("valid edge");
        b.add_edge(v, (v * 7 + 3) % n, edge(v + 1)).expect("valid edge");
    }
    b.build().expect("valid graph")
}

fn pr_graph(n: u64) -> Graph<u64, f64, ()> {
    build_graph(n, |_| 0.0, |_| ())
}

fn sssp_graph(n: u64) -> Graph<u64, f64, f64> {
    build_graph(n, |_| f64::INFINITY, |v| 1.0 + (v % 5) as f64)
}

fn cc_graph(n: u64) -> Graph<u64, u64, ()> {
    build_graph(n, |v| v, |_| ())
}

fn gc_graph(n: u64) -> Graph<u64, GCValue, ()> {
    build_graph(n, |_| GCValue::default(), |_| ())
}

fn execute<C>(
    options: &RunOptions,
    computation: C,
    graph: Graph<C::Id, C::VValue, C::EValue>,
    value_bits: impl Fn(&C::VValue) -> u64,
    tune: impl FnOnce(GraftRunner<C>) -> GraftRunner<C>,
) -> ExitCode
where
    C: Computation<Id = u64>,
{
    let cluster = ClusterFs::new(ClusterFsConfig {
        num_datanodes: options.datanodes,
        replication: options.replication.min(options.datanodes),
        block_size: 4096,
    });
    let config = DebugConfig::<C>::builder().capture_all_active(true).build();
    // The registry, event log, and superstep profiler all hang off one
    // shared Obs; --logical-clock swaps its clock for a deterministic one.
    // --live needs an Obs too: the streaming flusher is fed from it.
    let obs =
        (options.metrics.is_some() || options.logical_clock.is_some() || options.live).then(|| {
            match options.logical_clock {
                Some(step_nanos) => Obs::deterministic(step_nanos),
                None => Obs::wall(),
            }
        });
    let mut runner = tune(
        GraftRunner::new(computation, config)
            .with_cluster(cluster.clone())
            .num_workers(options.workers),
    );
    if let Some(obs) = &obs {
        runner = runner.with_obs(Arc::clone(obs));
    }
    if options.live {
        runner = runner.live_flush(true);
    }
    if let Some(ms) = options.pace_ms {
        runner = runner.pace_supersteps(std::time::Duration::from_millis(ms));
    }
    if let Some(threshold) = options.straggler_threshold {
        runner = runner.straggler_threshold(threshold);
    }
    runner = runner.recovery_mode(options.recovery_mode);
    if options.checkpoint_every > 0 {
        runner = runner.checkpoint_every(options.checkpoint_every);
    }
    if let Some(plan) = &options.fault_plan {
        runner = runner.with_fault_plan(plan.clone());
    }
    if let Some(bytes) = options.memory_budget {
        runner = runner.memory_budget(bytes);
    }
    let run = match runner.run(graph, TRACE_ROOT) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("setup failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("algorithm   : {}", options.algorithm);
    println!("vertices    : {}", options.vertices);
    println!("workers     : {}", options.workers);
    println!(
        "checkpoints : {}",
        if options.checkpoint_every > 0 {
            format!(
                "every {} superstep(s), {} recovery",
                options.checkpoint_every,
                options.recovery_mode.as_str()
            )
        } else {
            "disabled".to_string()
        }
    );
    if let Some(plan) = &options.fault_plan {
        println!("fault plan  : {plan}");
    }
    if let Some(bytes) = options.memory_budget {
        println!("memory      : {bytes} byte budget (overflow spills out of core)");
    }
    let stats = cluster.stats();
    println!(
        "cluster     : {}/{} datanodes live, {} blocks, {} under-replicated",
        stats.live_datanodes, stats.total_datanodes, stats.blocks, stats.under_replicated
    );
    println!("captures    : {}", run.captures);

    match &run.outcome {
        Ok(outcome) => {
            // JobStats renders its own one-line summary (counts plus the
            // p50/p95/max superstep wall-time spread).
            println!("stats       : {}", outcome.stats);
            println!("recoveries  : {}", outcome.stats.recoveries);
            println!("halt reason : {:?}", outcome.halt_reason);
            let checksum =
                checksum(outcome.graph.sorted_values().iter().map(|(id, v)| (*id, value_bits(v))));
            println!("result checksum: {checksum:016x}");
        }
        Err(e) => {
            eprintln!("job FAILED  : {e}");
            return ExitCode::FAILURE;
        }
    }

    if let (Some(obs), Some(dir)) = (&obs, &options.metrics) {
        if let Err(e) = export_metrics(obs, dir) {
            eprintln!("metrics export failed: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics exported to {dir}");
    }
    if let Some(dir) = &options.export {
        if let Err(e) = export_traces(&cluster, dir) {
            eprintln!("export failed: {e}");
            return ExitCode::FAILURE;
        }
        println!("traces exported to {dir}");
    }
    ExitCode::SUCCESS
}

/// Writes `events.jsonl`, `metrics.prom`, and `metrics.json` to a local
/// directory, ready for `graft-cli profile <dir>`.
fn export_metrics(obs: &Obs, dir: &str) -> Result<(), String> {
    let local = LocalFs::new(dir).map_err(|e| e.to_string())?;
    obs.write_artifacts(&local, "/").map_err(|e| e.to_string())
}

/// FNV-1a over the (id, value-bits) stream: stable across runs, so a
/// recovered run's checksum is comparable to a clean run's.
fn checksum(values: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (id, bits) in values {
        mix(id);
        mix(bits);
    }
    hash
}

/// Copies the trace directory (including checkpoints) from the cluster to
/// a local directory, so the traces can be browsed with the other
/// `graft-cli` commands.
fn export_traces(cluster: &ClusterFs, dir: &str) -> Result<(), String> {
    let fs: Arc<dyn FileSystem> = Arc::new(cluster.clone());
    let files = fs.list_files_recursive(TRACE_ROOT).map_err(|e| e.to_string())?;
    for file in files {
        let relative = file.path.strip_prefix(TRACE_ROOT).unwrap_or(&file.path);
        let target = std::path::Path::new(dir).join(relative.trim_start_matches('/'));
        if let Some(parent) = target.parent() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
        let bytes = fs.read_all(&file.path).map_err(|e| e.to_string())?;
        std::fs::write(&target, bytes).map_err(|e| e.to_string())?;
    }
    Ok(())
}
