//! Engine throughput benchmark fed by the observability registry.
//!
//! `cargo run -p graft-bench --release --bin bench_pregel [--vertices N]
//!  [--workers W] [--scale-sweep-max V] [--sweep-only] [--out PATH]`
//!
//! The sections, all written to `BENCH_pregel.json` (override with
//! `--out`):
//!
//! 1. **Per-algorithm throughput** — each built-in algorithm on a
//!    ring-with-chords graph with an [`Obs`](graft_obs::Obs) attached;
//!    wall time, message throughput, and peak active vertices come from
//!    the metrics registry, so the bench doubles as an end-to-end check
//!    of the instrumentation.
//! 2. **Capture overhead** — capture-all PageRank through `GraftRunner`
//!    under each trace codec (the framed binary default and the
//!    JSON-lines fallback), best-of-3, against the uninstrumented
//!    engine. Reports the wall time each codec adds over the baseline
//!    and the bytes its trace channels occupy — the numbers behind
//!    making the binary format the default and behind the GA0019 lint.
//! 3. **Sched-shim overhead** — the same PageRank job through the
//!    graft-sched shims outside any schedule session (passthrough, the
//!    production configuration) vs under the deterministic scheduler
//!    (`run_schedule`, the `check-sched` configuration). The passthrough
//!    number is the one regressions gate on; the instrumented ratio
//!    documents what a model-checking run costs. With the `check`
//!    feature disabled the shim hooks vanish at compile time, so the
//!    passthrough column *is* the production hot path.
//! 4. **Recovery time** — the same mid-job worker kill on a 16-worker
//!    PageRank under full-restart recovery vs confined log-replay
//!    recovery, against a failure-free baseline with the identical
//!    checkpoint schedule; the speedup column is whole-job wall restart
//!    over log-replay.
//! 5. **Out-of-core scale sweep** — RMAT PageRank at 10^4, 10^5, …
//!    vertices up to `--scale-sweep-max` (default 10^6; the committed
//!    report uses 10^7), each tier run unbounded and then under a
//!    memory budget of a third of the graph's serialized footprint,
//!    spilling to a local temp directory. Per tier: spill/load counts
//!    and bytes, budget overruns, both wall times, and whether the
//!    budgeted FNV checksum matched the unbounded run bit-for-bit.
//!
//! `--sweep-only` runs and prints section 5 alone. Whether every tier
//! spills and reproduces the unbounded checksum is a test
//! (`crates/core/tests/ooc_scale.rs`), and so is whether binary capture
//! writes at most half the JSON bytes (`crates/core/tests/capture_bytes.rs`);
//! neither is a flag here.

use std::process::ExitCode;
use std::sync::Arc;

use graft::{trace, DebugConfig, GraftRunner, TraceCodec};
use graft_algorithms::components::ConnectedComponents;
use graft_algorithms::pagerank::PageRank;
use graft_algorithms::sssp::ShortestPaths;
use graft_datasets::rmat::{self, RmatParams};
use graft_dfs::{FileSystem, InMemoryFs, LocalFs};
use graft_obs::{Obs, Scope};
use graft_pregel::{
    estimate_max_partition_bytes, CheckpointConfig, Computation, Engine, Graph, OocConfig,
    RecoveryMode, Value,
};
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize)]
struct BenchEntry {
    algorithm: String,
    vertices: u64,
    workers: u64,
    supersteps: u64,
    wall_nanos: u64,
    messages: u64,
    messages_per_sec: u64,
    peak_active_vertices: u64,
}

/// Capture-all PageRank under each trace codec against the plain
/// engine: what full-fidelity capture costs on disk and on the clock
/// per wire format.
#[derive(Serialize, Deserialize)]
struct CaptureOverhead {
    workload: String,
    vertices: u64,
    workers: u64,
    supersteps: u64,
    /// Vertex contexts captured per instrumented run (identical across
    /// codecs by construction).
    captures: u64,
    /// Best-of-N per mode (wall time of the fastest run).
    runs_per_mode: u64,
    /// Plain engine, no Graft attached (the overhead baseline).
    baseline_wall_nanos: u64,
    binary_wall_nanos: u64,
    /// Bytes across all worker channels plus the master channel.
    binary_trace_bytes: u64,
    json_wall_nanos: u64,
    json_trace_bytes: u64,
    /// json trace bytes / binary trace bytes — the on-disk win.
    size_ratio: f64,
    /// Wall time capture-all added over the baseline under each codec.
    binary_capture_overhead_nanos: i64,
    json_capture_overhead_nanos: i64,
    /// json capture overhead / binary capture overhead — above 1.0 the
    /// binary codec captures cheaper.
    capture_speedup: f64,
}

/// PageRank through the sync shims, passthrough vs instrumented.
#[derive(Serialize, Deserialize)]
struct SchedShimOverhead {
    workload: String,
    vertices: u64,
    workers: u64,
    /// Best-of-N per mode (wall time of the fastest run).
    runs_per_mode: u64,
    /// Shims present, no schedule session installed (production).
    passthrough_wall_nanos: u64,
    /// Same job serialized under one deterministic schedule.
    instrumented_wall_nanos: u64,
    /// Scheduler yield points the instrumented run executed.
    instrumented_sched_steps: u64,
    /// instrumented wall / passthrough wall.
    instrumented_slowdown: f64,
}

/// Full-restart vs confined log-replay recovery from the same mid-job
/// worker kill on a 16-worker PageRank. Each mode is measured against its
/// own failure-free baseline, so the recovery cost isolates what the
/// failure added — for log-replay the always-on message-logging overhead
/// sits in the clean baseline and is reported separately.
#[derive(Serialize, Deserialize)]
struct RecoveryTime {
    workload: String,
    vertices: u64,
    workers: u64,
    checkpoint_every: u64,
    /// The injected fault, in fault-plan spec syntax.
    fault: String,
    /// Best-of-N per configuration (wall time of the fastest run).
    runs_per_mode: u64,
    /// Failure-free wall under restart recovery (checkpoints only).
    restart_clean_wall_nanos: u64,
    /// Whole-job wall with the kill under full-restart recovery.
    restart_faulted_wall_nanos: u64,
    /// Failure-free wall under log-replay recovery (checkpoints plus
    /// sender-side message logging every superstep).
    logreplay_clean_wall_nanos: u64,
    /// Whole-job wall with the kill under confined log-replay recovery.
    logreplay_faulted_wall_nanos: u64,
    /// Faulted minus clean, same mode — what the recovery itself cost.
    /// Negative only under measurement noise.
    restart_recovery_nanos: i64,
    logreplay_recovery_nanos: i64,
    /// Log-replay clean minus restart clean: what the logging costs on a
    /// run that never fails.
    logging_overhead_nanos: i64,
    /// restart recovery cost / log-replay recovery cost — above 1.0 means
    /// confining the replay to the failed partition wins.
    recovery_speedup: f64,
}

/// One RMAT tier of the out-of-core scale sweep: the same PageRank job
/// unbounded and under a memory budget of `graph_bytes / 3`, spilling
/// overflow partitions and shuffle batches to a local temp directory.
#[derive(Serialize, Deserialize)]
struct OocScaleTier {
    vertices: u64,
    edges: u64,
    /// Serialized footprint of the whole graph in checkpoint framing.
    graph_bytes: u64,
    /// Estimated footprint of the largest single partition (the GA0018
    /// lint threshold).
    est_max_partition_bytes: u64,
    /// The cap the budgeted run executed under.
    budget_bytes: u64,
    supersteps: u64,
    unbounded_wall_nanos: u64,
    budgeted_wall_nanos: u64,
    /// budgeted wall / unbounded wall — what going out of core costs.
    ooc_slowdown: f64,
    spills: u64,
    spill_bytes: u64,
    loads: u64,
    load_bytes: u64,
    shuffle_spills: u64,
    budget_overruns: u64,
    /// FNV-1a over the sorted (id, value-bits) stream of the unbounded
    /// result — the same checksum `graft-cli run` prints.
    checksum: String,
    /// Whether the budgeted run reproduced that checksum bit-for-bit.
    checksum_matches_unbounded: bool,
}

/// RMAT PageRank from 10^4 vertices up, each decade run in-memory and
/// under a budget of a third of the graph's serialized footprint.
#[derive(Serialize, Deserialize)]
struct OocScaleSweep {
    workload: String,
    workers: u64,
    /// Edges requested per vertex from the RMAT generator.
    edge_factor: u64,
    iterations: u64,
    /// budget = graph_bytes / this.
    budget_divisor: u64,
    rmat_seed: u64,
    tiers: Vec<OocScaleTier>,
}

#[derive(Serialize, Deserialize)]
struct BenchReport {
    entries: Vec<BenchEntry>,
    capture_overhead: CaptureOverhead,
    sched_shim_overhead: SchedShimOverhead,
    recovery_time: RecoveryTime,
    ooc_scale_sweep: OocScaleSweep,
}

fn main() -> ExitCode {
    let vertices = graft_bench::arg_u64("--vertices", 10_000);
    let workers = graft_bench::arg_u64("--workers", 4) as usize;
    let sweep_max = graft_bench::arg_u64("--scale-sweep-max", 1_000_000);
    let sweep_only = graft_bench::arg_flag("--sweep-only");
    let out = std::env::args()
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "BENCH_pregel.json".to_string());

    if sweep_only {
        print_sweep(&bench_ooc_sweep(sweep_max, workers));
        return ExitCode::SUCCESS;
    }

    let entries = vec![
        bench("pagerank", PageRank::new(8), build_graph(vertices, |_| 0.0, |_| ()), workers),
        bench(
            "sssp",
            ShortestPaths::new(0),
            build_graph(vertices, |_| f64::INFINITY, |v| 1.0 + (v % 5) as f64),
            workers,
        ),
        bench(
            "components",
            ConnectedComponents::new(),
            build_graph(vertices, |v| v, |_| ()),
            workers,
        ),
    ];

    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            vec![
                e.algorithm.clone(),
                e.supersteps.to_string(),
                format!("{:.2}ms", e.wall_nanos as f64 / 1e6),
                e.messages.to_string(),
                e.messages_per_sec.to_string(),
                e.peak_active_vertices.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        graft_bench::render_table(
            &["algorithm", "supersteps", "wall", "messages", "msgs/sec", "peak active"],
            &rows,
        )
    );

    let capture_overhead = bench_capture(vertices, workers);
    println!(
        "{}",
        graft_bench::render_table(
            &["capture", "wall", "trace bytes", "overhead"],
            &[
                vec![
                    "no-capture".to_string(),
                    format!("{:.2}ms", capture_overhead.baseline_wall_nanos as f64 / 1e6),
                    "-".to_string(),
                    "-".to_string(),
                ],
                vec![
                    "binary".to_string(),
                    format!("{:.2}ms", capture_overhead.binary_wall_nanos as f64 / 1e6),
                    capture_overhead.binary_trace_bytes.to_string(),
                    format!(
                        "+{:.2}ms",
                        capture_overhead.binary_capture_overhead_nanos as f64 / 1e6
                    ),
                ],
                vec![
                    "json".to_string(),
                    format!("{:.2}ms", capture_overhead.json_wall_nanos as f64 / 1e6),
                    capture_overhead.json_trace_bytes.to_string(),
                    format!("+{:.2}ms", capture_overhead.json_capture_overhead_nanos as f64 / 1e6),
                ],
            ],
        )
    );
    println!(
        "binary traces are {:.2}x smaller than JSON; capture overhead speedup {:.2}x",
        capture_overhead.size_ratio, capture_overhead.capture_speedup
    );

    let sched_shim_overhead = bench_sched_shims(vertices, workers);
    println!(
        "{}",
        graft_bench::render_table(
            &["shim mode", "wall", "sched steps", "slowdown"],
            &[
                vec![
                    "passthrough".to_string(),
                    format!("{:.2}ms", sched_shim_overhead.passthrough_wall_nanos as f64 / 1e6),
                    "-".to_string(),
                    "1.00x".to_string(),
                ],
                vec![
                    "instrumented".to_string(),
                    format!("{:.2}ms", sched_shim_overhead.instrumented_wall_nanos as f64 / 1e6),
                    sched_shim_overhead.instrumented_sched_steps.to_string(),
                    format!("{:.2}x", sched_shim_overhead.instrumented_slowdown),
                ],
            ],
        )
    );

    let recovery_time = bench_recovery(vertices);
    println!(
        "{}",
        graft_bench::render_table(
            &["recovery", "clean wall", "faulted wall", "recovery cost", "speedup"],
            &[
                vec![
                    "restart".to_string(),
                    format!("{:.2}ms", recovery_time.restart_clean_wall_nanos as f64 / 1e6),
                    format!("{:.2}ms", recovery_time.restart_faulted_wall_nanos as f64 / 1e6),
                    format!("{:.2}ms", recovery_time.restart_recovery_nanos as f64 / 1e6),
                    "1.00x".to_string(),
                ],
                vec![
                    "log-replay".to_string(),
                    format!("{:.2}ms", recovery_time.logreplay_clean_wall_nanos as f64 / 1e6),
                    format!("{:.2}ms", recovery_time.logreplay_faulted_wall_nanos as f64 / 1e6),
                    format!("{:.2}ms", recovery_time.logreplay_recovery_nanos as f64 / 1e6),
                    format!("{:.2}x", recovery_time.recovery_speedup),
                ],
            ],
        )
    );
    println!(
        "message logging overhead on a clean run: {:.2}ms",
        recovery_time.logging_overhead_nanos as f64 / 1e6
    );

    let ooc_scale_sweep = bench_ooc_sweep(sweep_max, workers);
    print_sweep(&ooc_scale_sweep);

    let report = BenchReport {
        entries,
        capture_overhead,
        sched_shim_overhead,
        recovery_time,
        ooc_scale_sweep,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write bench report");
    println!("written to {out}");
    ExitCode::SUCCESS
}

fn bench<C: Computation<Id = u64>>(
    name: &str,
    computation: C,
    graph: Graph<u64, C::VValue, C::EValue>,
    workers: usize,
) -> BenchEntry {
    let vertices = graph.num_vertices() as u64;
    let obs = Obs::wall();
    let engine = Engine::new(computation).num_workers(workers).with_obs(Arc::clone(&obs));
    let outcome = engine.run(graph).expect("bench job succeeds");

    // Throughput numbers come from the registry the engine populated.
    let reg = obs.registry();
    let messages = reg.counter_total("pregel_messages_sent");
    let peak = reg.gauge_value("pregel_peak_active_vertices", Scope::GLOBAL).unwrap_or(0) as u64;
    let wall_nanos = (outcome.stats.total_wall_time.as_nanos() as u64).max(1);
    BenchEntry {
        algorithm: name.to_string(),
        vertices,
        workers: workers as u64,
        supersteps: outcome.stats.superstep_count(),
        wall_nanos,
        messages,
        messages_per_sec: (messages as u128 * 1_000_000_000 / wall_nanos as u128) as u64,
        peak_active_vertices: peak,
    }
}

/// Capture-all PageRank under each trace codec, best-of-3, against the
/// plain engine. Every instrumented run serializes every active vertex
/// context each superstep — the worst case for the trace sink and the
/// workload where the wire format dominates. Trace bytes are read back
/// from the run's own file system, so the number is exactly what the
/// sink flushed, not an estimate.
fn bench_capture(vertices: u64, workers: usize) -> CaptureOverhead {
    const RUNS: u64 = 3;
    let graph = || build_graph(vertices, |_| 0.0, |_| ());

    let baseline_wall = {
        let mut best = u64::MAX;
        for _ in 0..RUNS {
            let start = std::time::Instant::now();
            Engine::new(PageRank::new(8))
                .num_workers(workers)
                .run(graph())
                .expect("pagerank succeeds");
            best = best.min(start.elapsed().as_nanos() as u64);
        }
        best.max(1)
    };

    // (best wall, trace bytes, captures, supersteps); the last three are
    // deterministic, so keeping the final run's values is fine.
    let captured = |codec: TraceCodec| -> (u64, u64, u64, u64) {
        let root = "/bench/capture";
        let mut best = u64::MAX;
        let mut bytes = 0u64;
        let mut captures = 0u64;
        let mut supersteps = 0u64;
        for _ in 0..RUNS {
            let config =
                DebugConfig::<PageRank>::builder().capture_all_active(true).codec(codec).build();
            let runner = GraftRunner::new(PageRank::new(8), config).num_workers(workers);
            let start = std::time::Instant::now();
            let run = runner.run(graph(), root).expect("trace setup succeeds");
            best = best.min(start.elapsed().as_nanos() as u64);
            let outcome = run.outcome.as_ref().expect("pagerank succeeds");
            supersteps = outcome.stats.superstep_count();
            captures = run.captures;
            bytes = 0;
            for worker in 0..workers {
                if let Ok(data) = run.fs().read_all(&trace::worker_trace_path(root, worker)) {
                    bytes += data.len() as u64;
                }
            }
            if let Ok(data) = run.fs().read_all(&trace::master_trace_path(root)) {
                bytes += data.len() as u64;
            }
        }
        (best.max(1), bytes, captures, supersteps)
    };

    let (binary_wall, binary_bytes, binary_captures, supersteps) = captured(TraceCodec::Binary);
    let (json_wall, json_bytes, json_captures, _) = captured(TraceCodec::JsonLines);
    assert_eq!(binary_captures, json_captures, "capture counts must not depend on the trace codec");

    let binary_overhead = binary_wall as i64 - baseline_wall as i64;
    let json_overhead = json_wall as i64 - baseline_wall as i64;
    CaptureOverhead {
        workload: "pagerank".to_string(),
        vertices,
        workers: workers as u64,
        supersteps,
        captures: binary_captures,
        runs_per_mode: RUNS,
        baseline_wall_nanos: baseline_wall,
        binary_wall_nanos: binary_wall,
        binary_trace_bytes: binary_bytes,
        json_wall_nanos: json_wall,
        json_trace_bytes: json_bytes,
        size_ratio: json_bytes as f64 / binary_bytes.max(1) as f64,
        binary_capture_overhead_nanos: binary_overhead,
        json_capture_overhead_nanos: json_overhead,
        capture_speedup: json_overhead as f64 / binary_overhead.max(1) as f64,
    }
}

/// The same PageRank job twice through the shims: passthrough (no
/// schedule session — every shim op is one thread-local load) and
/// serialized under one deterministic schedule. The graph is kept small
/// so the instrumented run's serialized step count stays reasonable;
/// both modes use the identical graph, so the ratio is apples-to-apples.
fn bench_sched_shims(vertices: u64, workers: usize) -> SchedShimOverhead {
    const RUNS: u64 = 3;
    let n = vertices.clamp(64, 256);
    let job = || {
        let outcome = Engine::new(PageRank::new(8))
            .num_workers(workers)
            .run(build_graph(n, |_| 0.0, |_| ()))
            .expect("pagerank succeeds");
        outcome.stats.superstep_count()
    };

    let mut passthrough_wall = u64::MAX;
    for _ in 0..RUNS {
        let start = std::time::Instant::now();
        job();
        passthrough_wall = passthrough_wall.min(start.elapsed().as_nanos() as u64);
    }

    let mut instrumented_wall = u64::MAX;
    let mut sched_steps = 0;
    for run in 0..RUNS {
        let start = std::time::Instant::now();
        let outcome = graft_sched::run_schedule(
            0xBE7C_0DE0 + run,
            graft_sched::StrategyKind::Random,
            50_000_000,
            || {
                job();
            },
        );
        assert!(!outcome.failed(), "instrumented pagerank must be clean: {}", outcome.verdict());
        instrumented_wall = instrumented_wall.min(start.elapsed().as_nanos() as u64);
        sched_steps = outcome.steps;
    }

    SchedShimOverhead {
        workload: "pagerank".to_string(),
        vertices: n,
        workers: workers as u64,
        runs_per_mode: RUNS,
        passthrough_wall_nanos: passthrough_wall.max(1),
        instrumented_wall_nanos: instrumented_wall.max(1),
        instrumented_sched_steps: sched_steps,
        instrumented_slowdown: instrumented_wall as f64 / passthrough_wall.max(1) as f64,
    }
}

/// The same mid-job worker kill under both recovery modes, on a
/// 16-worker PageRank with checkpoints every 4 supersteps. The kill
/// lands 3 supersteps past the last commit, so full restart rewinds and
/// re-executes all 16 partitions over that window while confined
/// log-replay restores and replays exactly one, re-serving the other
/// fifteen partitions' messages from the sender-side log.
fn bench_recovery(vertices: u64) -> RecoveryTime {
    const RUNS: u64 = 3;
    const WORKERS: usize = 16;
    const EVERY: u64 = 4;
    let fault = "kill-worker:1@11";

    let run = |recovery: RecoveryMode, plan: Option<&str>| -> u64 {
        let mut best = u64::MAX;
        for _ in 0..RUNS {
            let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
            let mut engine = Engine::new(PageRank::new(12)).num_workers(WORKERS).with_checkpoints(
                fs,
                CheckpointConfig::new(EVERY, "/bench/checkpoints").recovery_mode(recovery),
            );
            if let Some(plan) = plan {
                engine = engine.with_fault_plan(plan.parse().expect("valid fault plan"));
            }
            let graph = build_graph(vertices, |_| 0.0, |_| ());
            let start = std::time::Instant::now();
            let outcome = engine.run(graph).expect("recovery bench job succeeds");
            let wall = (start.elapsed().as_nanos() as u64).max(1);
            assert_eq!(
                outcome.stats.recoveries > 0,
                plan.is_some(),
                "the kill must fire exactly when planned"
            );
            best = best.min(wall);
        }
        best
    };

    let restart_clean = run(RecoveryMode::Restart, None);
    let restart_faulted = run(RecoveryMode::Restart, Some(fault));
    let logreplay_clean = run(RecoveryMode::LogReplay, None);
    let logreplay_faulted = run(RecoveryMode::LogReplay, Some(fault));
    let restart_recovery = restart_faulted as i64 - restart_clean as i64;
    let logreplay_recovery = logreplay_faulted as i64 - logreplay_clean as i64;
    RecoveryTime {
        workload: "pagerank".to_string(),
        vertices,
        workers: WORKERS as u64,
        checkpoint_every: EVERY,
        fault: fault.to_string(),
        runs_per_mode: RUNS,
        restart_clean_wall_nanos: restart_clean,
        restart_faulted_wall_nanos: restart_faulted,
        logreplay_clean_wall_nanos: logreplay_clean,
        logreplay_faulted_wall_nanos: logreplay_faulted,
        restart_recovery_nanos: restart_recovery,
        logreplay_recovery_nanos: logreplay_recovery,
        logging_overhead_nanos: logreplay_clean as i64 - restart_clean as i64,
        recovery_speedup: restart_recovery.max(1) as f64 / logreplay_recovery.max(1) as f64,
    }
}

/// RMAT PageRank at each decade of vertices up to `max_vertices`:
/// unbounded in memory, then under a budget of a third of the graph's
/// serialized footprint, spilling to a per-process temp directory on the
/// real filesystem (the point of the sweep is that the budgeted run's
/// resident set stays bounded while the graph does not). The engine
/// removes its spill root when each job finishes; the temp directory is
/// deleted after the sweep.
fn bench_ooc_sweep(max_vertices: u64, workers: usize) -> OocScaleSweep {
    const EDGE_FACTOR: u64 = 4;
    const ITERATIONS: u64 = 3;
    const BUDGET_DIVISOR: u64 = 3;
    const SEED: u64 = 42;

    let spill_root = std::env::temp_dir().join(format!("graft-bench-ooc-{}", std::process::id()));
    std::fs::create_dir_all(&spill_root).expect("create spill temp dir");
    let checksum = |graph: &Graph<u64, f64, ()>| -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for (id, value) in graph.sorted_values() {
            for word in [id, value.to_bits()] {
                for byte in word.to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        hash
    };

    let mut tiers = Vec::new();
    let mut vertices = 10_000u64;
    while vertices <= max_vertices {
        let list = rmat::generate(
            &format!("rmat-{vertices}"),
            vertices,
            vertices * EDGE_FACTOR,
            RmatParams::default(),
            SEED,
        );
        let graph = list.to_graph(0.0f64);
        drop(list);
        let edges = graph.num_edges();
        let graph_bytes = estimate_max_partition_bytes::<PageRank>(&graph, 1);
        let est_part = estimate_max_partition_bytes::<PageRank>(&graph, workers);
        let budget_bytes = (graph_bytes / BUDGET_DIVISOR).max(1);

        let unbounded = Engine::new(PageRank::new(ITERATIONS))
            .num_workers(workers)
            .run(graph.clone())
            .expect("unbounded sweep run succeeds");
        let unbounded_wall = (unbounded.stats.total_wall_time.as_nanos() as u64).max(1);
        let unbounded_sum = checksum(&unbounded.graph);
        drop(unbounded);

        let fs: Arc<dyn FileSystem> =
            Arc::new(LocalFs::new(&spill_root).expect("open spill temp dir"));
        let obs = Obs::wall();
        let budgeted = Engine::new(PageRank::new(ITERATIONS))
            .num_workers(workers)
            .with_memory_budget(fs, OocConfig::new(budget_bytes, format!("/v{vertices}")))
            .with_obs(Arc::clone(&obs))
            .run(graph)
            .expect("budgeted sweep run succeeds");
        let budgeted_wall = (budgeted.stats.total_wall_time.as_nanos() as u64).max(1);
        let budgeted_sum = checksum(&budgeted.graph);
        let supersteps = budgeted.stats.superstep_count();
        drop(budgeted);

        let reg = obs.registry();
        tiers.push(OocScaleTier {
            vertices,
            edges,
            graph_bytes,
            est_max_partition_bytes: est_part,
            budget_bytes,
            supersteps,
            unbounded_wall_nanos: unbounded_wall,
            budgeted_wall_nanos: budgeted_wall,
            ooc_slowdown: budgeted_wall as f64 / unbounded_wall as f64,
            spills: reg.counter_value("ooc_spills_total", Scope::GLOBAL),
            spill_bytes: reg.counter_value("ooc_spill_bytes_total", Scope::GLOBAL),
            loads: reg.counter_value("ooc_loads_total", Scope::GLOBAL),
            load_bytes: reg.counter_value("ooc_load_bytes_total", Scope::GLOBAL),
            shuffle_spills: reg.counter_value("ooc_shuffle_spills_total", Scope::GLOBAL),
            budget_overruns: reg.counter_value("ooc_budget_overruns_total", Scope::GLOBAL),
            checksum: format!("{unbounded_sum:016x}"),
            checksum_matches_unbounded: unbounded_sum == budgeted_sum,
        });
        vertices *= 10;
    }
    let _ = std::fs::remove_dir_all(&spill_root);

    OocScaleSweep {
        workload: "rmat-pagerank".to_string(),
        workers: workers as u64,
        edge_factor: EDGE_FACTOR,
        iterations: ITERATIONS,
        budget_divisor: BUDGET_DIVISOR,
        rmat_seed: SEED,
        tiers,
    }
}

fn print_sweep(sweep: &OocScaleSweep) {
    let mb = |bytes: u64| format!("{:.1}MB", bytes as f64 / 1e6);
    let rows: Vec<Vec<String>> = sweep
        .tiers
        .iter()
        .map(|t| {
            vec![
                t.vertices.to_string(),
                t.edges.to_string(),
                mb(t.graph_bytes),
                mb(t.budget_bytes),
                t.spills.to_string(),
                mb(t.spill_bytes),
                t.loads.to_string(),
                format!("{:.2}ms", t.unbounded_wall_nanos as f64 / 1e6),
                format!("{:.2}ms", t.budgeted_wall_nanos as f64 / 1e6),
                format!("{:.2}x", t.ooc_slowdown),
                if t.checksum_matches_unbounded { "match" } else { "DIVERGED" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        graft_bench::render_table(
            &[
                "vertices",
                "edges",
                "graph",
                "budget",
                "spills",
                "spill bytes",
                "loads",
                "in-mem wall",
                "ooc wall",
                "slowdown",
                "checksum",
            ],
            &rows,
        )
    );
}

/// The same deterministic ring-with-chords family the CLI and chaos
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
