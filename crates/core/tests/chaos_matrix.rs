//! Chaos-run matrix (the ISSUE's acceptance scenario): PageRank, SSSP,
//! and connected components executed under a seeded fault matrix — worker
//! kills, compute panics, and datanode kills at chosen supersteps — must
//! produce results *and trace directories* identical to a failure-free
//! run, and the trace directory must remain loadable as a debug session.

use std::collections::BTreeMap;
use std::sync::Arc;

use graft::{DebugConfig, GraftRun, GraftRunner};
use graft_algorithms::components::ConnectedComponents;
use graft_algorithms::pagerank::PageRank;
use graft_algorithms::sssp::ShortestPaths;
use graft_dfs::{ClusterFs, ClusterFsConfig, FileSystem};
use graft_pregel::{Computation, FaultPlan, Graph, RecoveryMode};

const TRACE_ROOT: &str = "/traces/chaos";

fn cluster() -> ClusterFs {
    ClusterFs::new(ClusterFsConfig { num_datanodes: 4, replication: 2, block_size: 256 })
}

/// Deterministic ring-with-chords topology shared by all three
/// algorithms; vertex and edge payloads are supplied per algorithm.
fn build_graph<V, E>(n: u64, vertex: impl Fn(u64) -> V, edge: impl Fn(u64) -> E) -> Graph<u64, V, E>
where
    V: graft_pregel::Value,
    E: graft_pregel::Value,
{
    let mut b = Graph::builder();
    for v in 0..n {
        b.add_vertex(v, vertex(v)).unwrap();
    }
    for v in 0..n {
        b.add_edge(v, (v + 1) % n, edge(v)).unwrap();
        b.add_edge(v, (v * 7 + 3) % n, edge(v + 1)).unwrap();
    }
    b.build().unwrap()
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

/// Runs `computation` with checkpointing every 2 supersteps on its own
/// 4-node cluster, under the given fault plan and recovery mode.
fn run_matrix_cell<C, G>(
    computation: C,
    graph: G,
    plan: FaultPlan,
    recovery: RecoveryMode,
) -> (GraftRun<C>, ClusterFs)
where
    C: Computation<Id = u64>,
    G: FnOnce() -> Graph<C::Id, C::VValue, C::EValue>,
{
    let cluster = cluster();
    let config = DebugConfig::<C>::builder().capture_all_active(true).build();
    let run = GraftRunner::new(computation, config)
        .with_cluster(cluster.clone())
        .num_workers(4)
        .max_supersteps(40)
        .checkpoint_every(2)
        .recovery_mode(recovery)
        .with_fault_plan(plan)
        .run(graph(), TRACE_ROOT)
        .unwrap();
    (run, cluster)
}

/// The original matrix column: full restart recovery.
fn run_with_plan<C, G>(computation: C, graph: G, plan: FaultPlan) -> (GraftRun<C>, ClusterFs)
where
    C: Computation<Id = u64>,
    G: FnOnce() -> Graph<C::Id, C::VValue, C::EValue>,
{
    run_matrix_cell(computation, graph, plan, RecoveryMode::Restart)
}

/// FNV-1a over a run's sorted final vertex values (via their `Debug`
/// rendering, which is bit-faithful for the value types in this matrix):
/// a cross-mode fingerprint of the result independent of trace bytes.
fn result_checksum<C>(run: &GraftRun<C>) -> u64
where
    C: Computation<Id = u64>,
    C::VValue: std::fmt::Debug,
{
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (id, value) in run.outcome.as_ref().unwrap().graph.sorted_values() {
        for byte in format!("{id}={value:?};").bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Every trace file (everything under the root except the checkpoints
/// directory), keyed by path, with its full contents.
fn trace_files(fs: &ClusterFs) -> BTreeMap<String, Vec<u8>> {
    let fs: Arc<dyn FileSystem> = Arc::new(fs.clone());
    fs.list_files_recursive(TRACE_ROOT)
        .unwrap()
        .into_iter()
        .filter(|f| !f.path.contains("/checkpoints/"))
        .map(|f| {
            let bytes = fs.read_all(&f.path).unwrap();
            (f.path, bytes)
        })
        .collect()
}

/// Asserts that a faulted run converged to the clean run bit-for-bit:
/// same sorted vertex values, same superstep count, and a byte-identical
/// trace directory.
fn assert_matches_clean<C>(
    clean: &(GraftRun<C>, ClusterFs),
    faulted: &(GraftRun<C>, ClusterFs),
    expect_recoveries: bool,
    label: &str,
) where
    C: Computation<Id = u64>,
    C::VValue: PartialEq + std::fmt::Debug,
{
    let co = clean.0.outcome.as_ref().unwrap();
    let fo = faulted.0.outcome.as_ref().unwrap();
    assert_eq!(co.graph.sorted_values(), fo.graph.sorted_values(), "{label}: values diverged");
    assert_eq!(co.stats.superstep_count(), fo.stats.superstep_count(), "{label}");
    assert_eq!(co.stats.recoveries, 0, "{label}: clean run must not recover");
    if expect_recoveries {
        assert!(fo.stats.recoveries > 0, "{label}: fault plan never fired");
    }

    let clean_files = trace_files(&clean.1);
    let fault_files = trace_files(&faulted.1);
    assert_eq!(
        clean_files.keys().collect::<Vec<_>>(),
        fault_files.keys().collect::<Vec<_>>(),
        "{label}: trace directory listings diverged"
    );
    for (path, bytes) in &clean_files {
        if path.ends_with("meta.json") {
            // meta.json records the armed fault plan by design (the
            // analyzer's GA0015 reads it back) — the one field that
            // legitimately differs between a clean and a faulted run.
            let mut clean_meta: graft::JobMeta = serde_json::from_slice(bytes).unwrap();
            let mut fault_meta: graft::JobMeta =
                serde_json::from_slice(&fault_files[path]).unwrap();
            for meta in [&mut clean_meta, &mut fault_meta] {
                if let Some(facts) = &mut meta.facts {
                    facts.fault_plan = None;
                }
            }
            assert_eq!(
                clean_meta, fault_meta,
                "{label}: {path} diverged beyond the recorded fault plan"
            );
            continue;
        }
        assert_eq!(bytes, &fault_files[path], "{label}: trace file {path} diverged");
    }

    // Both trace directories load as complete debug sessions.
    let clean_session = clean.0.session().unwrap();
    let fault_session = faulted.0.session().unwrap();
    assert_eq!(clean_session.total_captures(), fault_session.total_captures(), "{label}");
    assert!(fault_session.result().unwrap().error.is_none(), "{label}");
}

#[test]
fn pagerank_survives_worker_kill_matrix() {
    let clean = run_with_plan(PageRank::new(8), || pr_graph(48), FaultPlan::new());
    for kill_at in [1u64, 3, 6] {
        let plan: FaultPlan = format!("kill-worker:1@{kill_at}").parse().unwrap();
        let faulted = run_with_plan(PageRank::new(8), || pr_graph(48), plan);
        assert_matches_clean(&clean, &faulted, true, &format!("pagerank kill@{kill_at}"));
    }
}

#[test]
fn sssp_survives_worker_kill_matrix() {
    let clean = run_with_plan(ShortestPaths::new(0), || sssp_graph(48), FaultPlan::new());
    for kill_at in [1u64, 2, 4] {
        let plan: FaultPlan = format!("kill-worker:2@{kill_at}").parse().unwrap();
        let faulted = run_with_plan(ShortestPaths::new(0), || sssp_graph(48), plan);
        assert_matches_clean(&clean, &faulted, true, &format!("sssp kill@{kill_at}"));
    }
}

#[test]
fn connected_components_survives_compute_panic_matrix() {
    let clean = run_with_plan(ConnectedComponents::new(), || cc_graph(48), FaultPlan::new());
    for panic_at in [1u64, 2] {
        let plan: FaultPlan = format!("panic@{panic_at}").parse().unwrap();
        let faulted = run_with_plan(ConnectedComponents::new(), || cc_graph(48), plan);
        assert_matches_clean(&clean, &faulted, true, &format!("components panic@{panic_at}"));
    }
}

#[test]
fn pagerank_survives_worker_kill_with_datanode_down() {
    // The acceptance scenario: a worker dies mid-job *and* one datanode
    // of the trace cluster goes down. The job must recover from the last
    // checkpoint and finish with results and trace files identical to
    // the failure-free run.
    let clean = run_with_plan(PageRank::new(8), || pr_graph(48), FaultPlan::new());
    let plan: FaultPlan = "kill-datanode:0@3; kill-worker:1@5".parse().unwrap();
    let faulted = run_with_plan(PageRank::new(8), || pr_graph(48), plan);
    let stats = faulted.1.stats();
    assert!(stats.live_datanodes < stats.total_datanodes, "datanode kill must have fired");
    assert_matches_clean(&clean, &faulted, true, "pagerank kill-worker+kill-datanode");
}

#[test]
fn pagerank_log_replay_kill_matrix_is_bit_identical() {
    // The confined-recovery column of the matrix: same kills as the
    // restart column, but only the failed partitions replay. The traces,
    // captures, and results must still match a clean log-replay run
    // bit-for-bit, and the result checksum must agree with the restart
    // column's — recovery mode is an execution detail, never a semantic
    // one.
    let clean = run_matrix_cell(
        PageRank::new(8),
        || pr_graph(48),
        FaultPlan::new(),
        RecoveryMode::LogReplay,
    );
    let restart_clean = run_with_plan(PageRank::new(8), || pr_graph(48), FaultPlan::new());
    assert_eq!(result_checksum(&clean.0), result_checksum(&restart_clean.0));
    for kill_at in [1u64, 3, 6] {
        let plan: FaultPlan = format!("kill-worker:1@{kill_at}").parse().unwrap();
        let faulted =
            run_matrix_cell(PageRank::new(8), || pr_graph(48), plan, RecoveryMode::LogReplay);
        assert_matches_clean(&clean, &faulted, true, &format!("pagerank logreplay kill@{kill_at}"));
        assert_eq!(
            result_checksum(&faulted.0),
            result_checksum(&restart_clean.0),
            "pagerank logreplay kill@{kill_at}: checksum diverged from the restart column"
        );
    }
}

#[test]
fn sssp_log_replay_kill_matrix_is_bit_identical() {
    let clean = run_matrix_cell(
        ShortestPaths::new(0),
        || sssp_graph(48),
        FaultPlan::new(),
        RecoveryMode::LogReplay,
    );
    let plan: FaultPlan = "kill-worker:2@4".parse().unwrap();
    let faulted =
        run_matrix_cell(ShortestPaths::new(0), || sssp_graph(48), plan, RecoveryMode::LogReplay);
    assert_matches_clean(&clean, &faulted, true, "sssp logreplay");
}

#[test]
fn connected_components_log_replay_survives_compute_panics() {
    let clean = run_matrix_cell(
        ConnectedComponents::new(),
        || cc_graph(48),
        FaultPlan::new(),
        RecoveryMode::LogReplay,
    );
    for panic_at in [1u64, 2] {
        let plan: FaultPlan = format!("panic@{panic_at}").parse().unwrap();
        let faulted = run_matrix_cell(
            ConnectedComponents::new(),
            || cc_graph(48),
            plan,
            RecoveryMode::LogReplay,
        );
        assert_matches_clean(
            &clean,
            &faulted,
            true,
            &format!("components logreplay panic@{panic_at}"),
        );
    }
}

#[test]
fn log_replay_double_fault_falls_back_to_full_restart_and_still_matches() {
    // A second fault during the confined replay window: the engine must
    // descend the recovery ladder to a full restart (two recoveries) and
    // the final state must still be indistinguishable from a clean run.
    let clean = run_matrix_cell(
        PageRank::new(8),
        || pr_graph(48),
        FaultPlan::new(),
        RecoveryMode::LogReplay,
    );
    let plan: FaultPlan = "kill-worker:1@3; panic:1@3".parse().unwrap();
    let faulted = run_matrix_cell(PageRank::new(8), || pr_graph(48), plan, RecoveryMode::LogReplay);
    let recoveries = faulted.0.outcome.as_ref().unwrap().stats.recoveries;
    assert!(recoveries >= 2, "expected confined attempt + full restart, got {recoveries}");
    assert_matches_clean(&clean, &faulted, true, "pagerank logreplay double-fault");
}

#[test]
fn fault_spec_round_trips_through_display() {
    let plan: FaultPlan = "kill-worker:1@5; panic:2@3; kill-datanode:0@2".parse().unwrap();
    let rendered = plan.to_string();
    let reparsed: FaultPlan = rendered.parse().unwrap();
    assert_eq!(plan, reparsed);
}
