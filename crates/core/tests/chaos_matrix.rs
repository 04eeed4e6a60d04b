//! Chaos-run matrix (the ISSUE's acceptance scenario): PageRank, SSSP,
//! and connected components executed under a seeded fault matrix — worker
//! kills, compute panics, and datanode kills at chosen supersteps — must
//! produce results *and trace directories* identical to a failure-free
//! run, and the trace directory must remain loadable as a debug session.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use graft::trace::{
    decode_vertex_records, ChannelWriter, ErasedVertexTrace, WireEdges, WireValue, WireVertexTrace,
    FRAME_INDEX, FRAME_VERTEX,
};
use graft::{DebugConfig, GraftRun, GraftRunner, SuperstepFilter};
use graft_algorithms::components::ConnectedComponents;
use graft_algorithms::pagerank::PageRank;
use graft_algorithms::sssp::ShortestPaths;
use graft_codec::frame::FrameScanner;
use graft_codec::BinValue;
use graft_dfs::{ClusterFs, ClusterFsConfig, FileSystem};
use graft_obs::{Obs, Scope};
use graft_pregel::{
    AggOp, AggValue, AggregatorRegistry, Computation, ContextOf, FaultPlan, GlobalData, Graph,
    RecoveryMode, VertexHandleOf,
};
use serde::Serialize;

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

/// Sums what it receives and forwards it for seven supersteps; every
/// third vertex adds an edge in each odd superstep. A binary channel so
/// holds each vertex's adjacency inline at its first capture and again
/// after each edit, and references to it in between.
struct Rewire;

impl Computation for Rewire {
    type Id = u64;
    type VValue = u64;
    type EValue = ();
    type Message = u64;

    fn compute(
        &self,
        vertex: &mut VertexHandleOf<'_, Self>,
        messages: &[u64],
        ctx: &mut ContextOf<'_, Self>,
    ) {
        let superstep = ctx.superstep();
        if superstep >= 7 {
            vertex.vote_to_halt();
            return;
        }
        let id = vertex.id();
        vertex.set_value((vertex.value() + messages.iter().sum::<u64>()) % 1_000);
        if superstep % 2 == 1 && id % 3 == 0 {
            vertex.add_edge((id + superstep) % ctx.num_vertices(), ());
        }
        ctx.send_message_to_all_edges(vertex, *vertex.value());
    }
}

/// `(path, length, FNV-1a)` of every worker channel of a run.
fn channel_checksums(fs: &ClusterFs) -> Vec<(String, usize, u64)> {
    trace_files(fs)
        .into_iter()
        .filter(|(path, _)| path.contains("/worker_"))
        .map(|(path, bytes)| {
            let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
                (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            (path, bytes.len(), hash)
        })
        .collect()
}

#[test]
fn edge_references_survive_recovery_and_budgets_byte_for_byte() {
    // Checkpoints before supersteps 0, 2, 4, 6; worker 1 dies in
    // superstep 3, so recovery rewinds every channel (worker 1's alone
    // when confined) to the start of superstep 2. Behind that cut lie
    // each vertex's first inline adjacency and a reference to it; past
    // it, references to those lists and the inline lists the superstep-1
    // edits force. A rewind must rebuild the back-reference rule from
    // what it keeps: with a rule kept from the discarded execution the
    // replay writes self-references, with a rule cleared instead it
    // writes lists inline that were references.
    let run = |plan: &str, recovery, budget: Option<u64>| {
        let cluster = cluster();
        let config = DebugConfig::<Rewire>::builder().capture_all_active(true).build();
        let mut runner = GraftRunner::new(Rewire, config)
            .with_cluster(cluster.clone())
            .num_workers(4)
            .max_supersteps(40);
        if !plan.is_empty() {
            let plan: FaultPlan = plan.parse().unwrap();
            runner = runner.checkpoint_every(2).recovery_mode(recovery).with_fault_plan(plan);
        }
        let obs = Obs::deterministic(1);
        if let Some(bytes) = budget {
            runner = runner.memory_budget(bytes).with_obs(obs.clone());
        }
        let run = runner.run(build_graph(24, |v| v, |_| ()), TRACE_ROOT).unwrap();
        let spills = obs.registry().counter_value("ooc_spills_total", Scope::GLOBAL);
        (run, cluster, spills)
    };
    let clean = run("", RecoveryMode::Restart, None);
    let expected = channel_checksums(&clean.1);
    // Those of a run on one thread (`taskset -c 0`): the channels do not
    // depend on how many threads ran the partitions.
    let one_thread: &[(&str, usize, u64)] = &[
        ("/traces/chaos/worker_0.trace", 1541, 0xa16410908ff674e6),
        ("/traces/chaos/worker_1.trace", 1538, 0x59a3780375386022),
        ("/traces/chaos/worker_2.trace", 1546, 0x56bec3691fe72cf2),
        ("/traces/chaos/worker_3.trace", 1543, 0x7ad99565f06c33d6),
    ];
    let rendered: Vec<String> = expected
        .iter()
        .map(|(path, len, sum)| format!("(\"{path}\", {len}, {sum:#018x}),"))
        .collect();
    assert!(
        expected.iter().map(|(p, l, s)| (p.as_str(), *l, *s)).eq(one_thread.iter().copied()),
        "the clean run's channels moved:\n{}",
        rendered.join("\n")
    );
    for (label, recovery, budget) in [
        ("restart", RecoveryMode::Restart, None),
        ("log-replay", RecoveryMode::LogReplay, None),
        ("log-replay under a budget", RecoveryMode::LogReplay, Some(250)),
    ] {
        let faulted = run("kill-worker:1@3", recovery, budget);
        assert!(faulted.0.outcome.as_ref().unwrap().stats.recoveries > 0, "{label}");
        assert_eq!(faulted.2 > 0, budget.is_some(), "{label}: spilled exactly when budgeted");
        assert_eq!(channel_checksums(&faulted.1), expected, "{label}");
        assert_eq!(faulted.0.session().unwrap().total_captures(), clean.0.captures as usize);
    }
}

/// Sums what it receives and forwards it for eight supersteps, and edits
/// other vertices' edges by request: in each odd superstep every fourth
/// vertex asks its successor to add an edge, in each even one to drop its
/// ring edge again. No vertex edits its own edges, so a partition's
/// topology changes only where the engine applies the requests.
struct Splice;

impl Computation for Splice {
    type Id = u64;
    type VValue = u64;
    type EValue = ();
    type Message = u64;

    fn compute(
        &self,
        vertex: &mut VertexHandleOf<'_, Self>,
        messages: &[u64],
        ctx: &mut ContextOf<'_, Self>,
    ) {
        let superstep = ctx.superstep();
        if superstep >= 8 {
            vertex.vote_to_halt();
            return;
        }
        let (id, n) = (vertex.id(), ctx.num_vertices());
        vertex.set_value((vertex.value() + messages.iter().sum::<u64>()) % 1_000);
        if id % 4 == 1 {
            let successor = (id + 1) % n;
            match superstep % 2 {
                1 => ctx.add_edge_request(successor, (id * 5 + superstep) % n, ()),
                _ => ctx.remove_edge_request(successor, (successor + 1) % n),
            }
        }
        ctx.send_message_to_all_edges(vertex, *vertex.value());
    }
}

/// Sends for twelve supersteps, each vertex in one of five ways that
/// turn with the superstep, each vertex from its own start: a broadcast
/// and one send more, two broadcasts, one send and then a broadcast, one
/// broadcast, or nothing. Only the one broadcast is vouched for, and in
/// some supersteps a call that sends nothing follows a vouched one in its
/// partition's sweep.
struct Mixed;

impl Computation for Mixed {
    type Id = u64;
    type VValue = u64;
    type EValue = ();
    type Message = u64;

    fn compute(
        &self,
        vertex: &mut VertexHandleOf<'_, Self>,
        messages: &[u64],
        ctx: &mut ContextOf<'_, Self>,
    ) {
        let superstep = ctx.superstep();
        if superstep >= 12 {
            vertex.vote_to_halt();
            return;
        }
        let id = vertex.id();
        vertex.set_value((vertex.value() + messages.iter().sum::<u64>() + 1) % 1_000);
        let value = *vertex.value();
        match (id * id + superstep) % 5 {
            0 => {
                ctx.send_message_to_all_edges(vertex, value);
                ctx.send_message(id, value);
            }
            1 => {
                ctx.send_message_to_all_edges(vertex, value);
                ctx.send_message_to_all_edges(vertex, value);
            }
            2 => {
                ctx.send_message(id, value);
                ctx.send_message_to_all_edges(vertex, value);
            }
            3 => ctx.send_message_to_all_edges(vertex, value),
            _ => {}
        }
    }
}

/// What `compute` was handed, independent of any trace: a vertex's value
/// and out-edges at compute entry, type-erased as a trace reads them, and
/// the context — global data and aggregator values — it ran in; and what
/// it sent, with whether the engine vouched for the sends as one
/// broadcast.
struct Entry {
    value: BinValue,
    edges: Vec<(BinValue, BinValue)>,
    global: GlobalData,
    aggregators: Vec<(String, AggValue)>,
    sends: Vec<(BinValue, BinValue)>,
    vouched: bool,
}

fn erased<T: Serialize>(value: &T) -> BinValue {
    graft_codec::to_bin_value(value).unwrap()
}

/// Each compute call's [`Entry`], by `(superstep, vertex)`; a superstep
/// run again after a fault overwrites what its first run noted.
type Entries = Arc<Mutex<BTreeMap<(u64, u64), Entry>>>;

/// Runs `C`, noting each call's [`Entry`] as it goes, and adds an
/// aggregator of its own whose value moves every superstep, so that every
/// superstep's context differs from the last. (`Rewire`, `Splice` and
/// `Mixed` use no combiner and no aggregator, so nothing else is
/// forwarded.)
struct Witnessed<C> {
    inner: C,
    seen: Entries,
}

impl<C: Computation<Id = u64>> Computation for Witnessed<C> {
    type Id = u64;
    type VValue = C::VValue;
    type EValue = C::EValue;
    type Message = C::Message;

    fn compute(
        &self,
        vertex: &mut VertexHandleOf<'_, Self>,
        messages: &[C::Message],
        ctx: &mut ContextOf<'_, Self>,
    ) {
        let value = erased(vertex.value());
        let edges = vertex.edges().iter().map(|e| (erased(&e.target), erased(&e.value))).collect();
        let (global, aggregators) = (ctx.global(), ctx.aggregator_snapshot());
        let (superstep, id) = (ctx.superstep(), vertex.id());
        ctx.aggregate("witness", AggValue::Long((superstep * id) as i64));
        self.inner.compute(vertex, messages, ctx);
        let sends = ctx.staged_sends().iter().map(|(to, m)| (erased(to), erased(m))).collect();
        let vouched = ctx.staged_broadcast();
        let entry = Entry { value, edges, global, aggregators, sends, vouched };
        self.seen.lock().unwrap().insert((superstep, id), entry);
    }

    fn register_aggregators(&self, registry: &mut AggregatorRegistry) {
        registry.register("witness", AggOp::Sum, AggValue::Long(0));
    }
}

/// Runs `computation` on the chaos graph of 24 vertices under `plan`
/// (checkpoints every 2 supersteps if any) and an optional memory budget,
/// capturing every active vertex in the supersteps `filter` lets through.
/// Then the channels must hold one record of every compute call there, and
/// every worker channel must be the bytes a fresh writer, which has no
/// value, adjacency or context versions and no broadcast vouches and so
/// decides each `Same`, each reference, each group and each broadcast on
/// bytes, writes for the channel's records with their value at entry,
/// edges, context and sends as `compute` saw and made them. Every vouch
/// must stand for a broadcast: at least one send, along the entry edges in
/// edge order, of one message.
fn assert_versions_write_the_byte_rule<C>(
    computation: C,
    plan: &str,
    recovery: RecoveryMode,
    budget: Option<u64>,
    filter: SuperstepFilter,
    label: &str,
) where
    C: Computation<Id = u64, VValue = u64, EValue = ()>,
{
    let seen = Entries::default();
    let cluster = cluster();
    let computation = Witnessed { inner: computation, seen: seen.clone() };
    let config = DebugConfig::builder().capture_all_active(true).supersteps(filter.clone()).build();
    let mut runner = GraftRunner::new(computation, config)
        .with_cluster(cluster.clone())
        .num_workers(4)
        .max_supersteps(40);
    if !plan.is_empty() {
        let plan: FaultPlan = plan.parse().unwrap();
        runner = runner.checkpoint_every(2).recovery_mode(recovery).with_fault_plan(plan);
    }
    let obs = Obs::deterministic(1);
    if let Some(bytes) = budget {
        runner = runner.memory_budget(bytes).with_obs(obs.clone());
    }
    let run = runner.run(build_graph(24, |v| v, |_| ()), TRACE_ROOT).unwrap();
    let stats = &run.outcome.as_ref().unwrap().stats;
    assert_eq!(stats.recoveries > 0, !plan.is_empty(), "{label}: recovered exactly when faulted");
    let spills = obs.registry().counter_value("ooc_spills_total", Scope::GLOBAL);
    assert_eq!(spills > 0, budget.is_some(), "{label}: spilled exactly when budgeted");

    let mut seen = seen.lock().unwrap();
    seen.retain(|(superstep, _), _| filter.matches(*superstep));
    let (mut references, mut same, mut groups) = (0, 0, 0);
    let mut captured = BTreeMap::new();
    for (path, native) in trace_files(&cluster).into_iter().filter(|(p, _)| p.contains("/worker_"))
    {
        let records: Vec<ErasedVertexTrace> = decode_vertex_records(&native).unwrap();
        let (mut writer, mut rebuilt) = (ChannelWriter::default(), Vec::new());
        for mut record in records {
            let key = (record.superstep, record.vertex.0.as_u64().unwrap());
            *captured.entry(key).or_insert(0) += 1;
            let entry = &seen[&key];
            record.value_before = entry.value.clone();
            record.edges = entry.edges.clone();
            record.outgoing = entry.sends.clone();
            (record.global, record.aggregators) = (entry.global, entry.aggregators.clone());
            writer.append_vertex(&record, &mut rebuilt).unwrap();
        }
        assert!(rebuilt == native, "{label}: {path} is not what the byte rule writes");
        let mut scanner = FrameScanner::new(&native);
        while let Some(frame) = scanner.next_frame().unwrap() {
            if frame.kind == FRAME_VERTEX {
                let wire: WireVertexTrace = graft_codec::from_slice(frame.payload).unwrap();
                references += usize::from(matches!(wire.edges, WireEdges::At(_)));
                same += usize::from(wire.value_before == WireValue::Same);
            }
            groups += usize::from(frame.kind == FRAME_INDEX);
        }
    }
    // A record filed under another superstep's group is a key `compute`
    // never saw there, and leaves the one it did see uncaptured.
    assert!(
        captured.keys().eq(seen.keys()) && captured.values().all(|count| *count == 1),
        "{label}: the channels do not hold one record of every compute call"
    );
    // A vouch the writer ignores, for no sends, shows only here.
    for ((superstep, vertex), entry) in seen.iter().filter(|(_, entry)| entry.vouched) {
        let sends = &entry.sends;
        let one_message =
            sends.first().is_some_and(|(_, first)| sends.iter().all(|(_, m)| m == first));
        let targets = sends.iter().map(|(to, _)| to);
        let broadcast = one_message && targets.eq(entry.edges.iter().map(|(target, _)| target));
        assert!(broadcast, "{label}: superstep {superstep}, vertex {vertex}: vouched {sends:?}");
    }
    assert!(seen.values().any(|entry| entry.vouched), "{label}: no broadcast was vouched for");
    assert!(references > 0, "{label}: no edge list was written by reference");
    // Every captured value differs from the one two supersteps before.
    assert_eq!(same > 0, filter == SuperstepFilter::All, "{label}: values written as `Same`");
    let supersteps: BTreeSet<u64> = seen.keys().map(|(superstep, _)| *superstep).collect();
    assert_eq!(groups, supersteps.len() * 4, "{label}: one group per channel and superstep");
}

/// The differential for the value-, adjacency- and context-version fast
/// paths and the broadcast vouch: whatever the versions and vouches let
/// the writer skip, every channel is what the byte rule writes for the
/// value, edges and context `compute` actually saw and the sends it made. A partition that kept its version across an edge change
/// would have the writer refer back to a stale list, which the channel,
/// decoded and written again, repeats; the witnessed edges do not. A value
/// version kept across a change would have the writer write a `Same` for a
/// value the vertex no longer had, where a superstep between its captures
/// changed it (the even-supersteps cells), which the witnessed value is
/// not. A context version reused for another superstep would have the
/// writer file a record in the group before, which the witnessed calls do
/// not. A vouch for sends that are not one broadcast would have the writer
/// write a broadcast of the wrong count, which does not decode, or of the
/// wrong messages, which the sends do not repeat. Covers local edits
/// (`Rewire`, which broadcasts after them), remote edge mutations
/// (`Splice`), sends around and beside a broadcast (`Mixed`), both
/// recovery modes, and spilling.
#[test]
fn edge_references_by_version_are_what_the_byte_rule_writes() {
    let cells = [
        ("clean", "", RecoveryMode::Restart, None),
        ("restart", "kill-worker:1@3", RecoveryMode::Restart, None),
        ("log-replay", "kill-worker:1@3", RecoveryMode::LogReplay, None),
        ("log-replay under a budget", "kill-worker:1@3", RecoveryMode::LogReplay, Some(250)),
    ];
    let even = SuperstepFilter::set([0, 2, 4, 6, 8]);
    for (label, plan, recovery, budget) in cells {
        for (filter, supersteps) in [(SuperstepFilter::All, "every"), (even.clone(), "even")] {
            let label = format!("{label}, {supersteps} superstep");
            let rewire = format!("Rewire {label}");
            assert_versions_write_the_byte_rule(
                Rewire,
                plan,
                recovery,
                budget,
                filter.clone(),
                &rewire,
            );
            let splice = format!("Splice {label}");
            assert_versions_write_the_byte_rule(
                Splice,
                plan,
                recovery,
                budget,
                filter.clone(),
                &splice,
            );
            let mixed = format!("Mixed {label}");
            assert_versions_write_the_byte_rule(Mixed, plan, recovery, budget, filter, &mixed);
        }
    }
}

#[test]
fn fault_spec_round_trips_through_display() {
    let plan: FaultPlan = "kill-worker:1@5; panic:2@3; kill-datanode:0@2".parse().unwrap();
    let rendered = plan.to_string();
    let reparsed: FaultPlan = rendered.parse().unwrap();
    assert_eq!(plan, reparsed);
}
