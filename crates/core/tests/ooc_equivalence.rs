//! Out-of-core equivalence matrix: a run under a memory budget — spilling
//! partitions and shuffle batches to the trace cluster and streaming them
//! back — must be observationally identical to the unbounded in-memory
//! run. For PageRank, SSSP, and connected components, the budgeted run
//! must produce byte-identical trace directories (`meta.json` aside: it legitimately records the budget),
//! equal deterministic `JobStats` counters, and equal result checksums —
//! also through a worker kill with confined log-replay recovery. The
//! obs counters prove the budgeted runs actually spilled.

use std::collections::BTreeMap;
use std::sync::Arc;

use graft::{DebugConfig, GraftRun, GraftRunner};
use graft_algorithms::components::ConnectedComponents;
use graft_algorithms::pagerank::PageRank;
use graft_algorithms::sssp::ShortestPaths;
use graft_dfs::{ClusterFs, ClusterFsConfig, FileSystem};
use graft_obs::{Obs, Scope};
use graft_pregel::{Computation, FaultPlan, Graph, RecoveryMode};

const TRACE_ROOT: &str = "/traces/ooc-equiv";

/// A budget far below the working set of the 48-vertex matrix graphs:
/// partitions and shuffle batches must churn through the spill store.
const TIGHT_BUDGET: u64 = 250;

fn cluster() -> ClusterFs {
    ClusterFs::new(ClusterFsConfig { num_datanodes: 4, replication: 2, block_size: 256 })
}

/// Same deterministic ring-with-chords family the engine-equivalence
/// matrix uses.
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

/// Runs `computation` with or without a memory budget. Budgeted runs get
/// an obs handle so the spill counters can prove spilling happened; obs
/// artifacts live under `obs/` and are excluded from the byte comparison.
fn run_mode<C, G, F>(
    computation: C,
    graph: G,
    budget: Option<u64>,
    customize: F,
) -> (GraftRun<C>, ClusterFs, Option<Arc<Obs>>)
where
    C: Computation<Id = u64>,
    G: FnOnce() -> Graph<C::Id, C::VValue, C::EValue>,
    F: FnOnce(GraftRunner<C>) -> GraftRunner<C>,
{
    let cluster = cluster();
    let config = DebugConfig::<C>::builder().capture_all_active(true).build();
    let mut runner = GraftRunner::new(computation, config)
        .with_cluster(cluster.clone())
        .num_workers(4)
        .max_supersteps(40);
    let mut obs = None;
    if let Some(bytes) = budget {
        let handle = Obs::deterministic(1);
        runner = runner.memory_budget(bytes).with_obs(handle.clone());
        obs = Some(handle);
    }
    let run = customize(runner).run(graph(), TRACE_ROOT).unwrap();
    (run, cluster, obs)
}

/// Every trace file, keyed by path — minus checkpoints, obs artifacts,
/// and `meta.json` (the budgeted run's facts record the budget; the spill
/// directory itself must be *gone*, which `assert_equivalent` checks
/// separately rather than filtering).
fn trace_files(fs: &ClusterFs) -> BTreeMap<String, Vec<u8>> {
    let fs: Arc<dyn FileSystem> = Arc::new(fs.clone());
    fs.list_files_recursive(TRACE_ROOT)
        .unwrap()
        .into_iter()
        .filter(|f| {
            !f.path.contains("/checkpoints/")
                && !f.path.contains("/obs/")
                && !f.path.ends_with("/meta.json")
        })
        .map(|f| {
            let bytes = fs.read_all(&f.path).unwrap();
            (f.path, bytes)
        })
        .collect()
}

/// FNV-1a over the sorted (id, value-bits) stream — the same checksum
/// `graft-cli run` prints, so the matrix certifies what users compare.
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

/// Asserts the budgeted run is observationally identical to the unbounded
/// one — and that it really went out of core: the spill counters are
/// positive, everything was loaded back, and the spill directory is gone.
fn assert_equivalent<C>(
    unbounded: &(GraftRun<C>, ClusterFs, Option<Arc<Obs>>),
    budgeted: &(GraftRun<C>, ClusterFs, Option<Arc<Obs>>),
    value_bits: impl Fn(&C::VValue) -> u64,
    label: &str,
) where
    C: Computation<Id = u64>,
{
    let uo = unbounded.0.outcome.as_ref().unwrap();
    let bo = budgeted.0.outcome.as_ref().unwrap();

    let usum = checksum(uo.graph.sorted_values().iter().map(|(id, v)| (*id, value_bits(v))));
    let bsum = checksum(bo.graph.sorted_values().iter().map(|(id, v)| (*id, value_bits(v))));
    assert_eq!(usum, bsum, "{label}: result checksums diverged");

    assert!(uo.stats.same_counters(&bo.stats), "{label}: JobStats counters diverged");
    assert_eq!(uo.halt_reason, bo.halt_reason, "{label}: halt reasons diverged");

    let ufiles = trace_files(&unbounded.1);
    let bfiles = trace_files(&budgeted.1);
    assert_eq!(
        ufiles.keys().collect::<Vec<_>>(),
        bfiles.keys().collect::<Vec<_>>(),
        "{label}: trace directory listings diverged"
    );
    for (path, bytes) in &ufiles {
        assert_eq!(bytes, &bfiles[path], "{label}: trace file {path} diverged");
    }

    // meta.json is excluded from the byte comparison for exactly one
    // reason: the budgeted facts record the budget and the partition
    // estimate. Everything else about the configs matches.
    let ufacts = unbounded.0.session().unwrap().meta().facts.clone().unwrap();
    let bfacts = budgeted.0.session().unwrap().meta().facts.clone().unwrap();
    assert_eq!(ufacts.memory_budget, None, "{label}: unbounded run recorded a budget");
    assert_eq!(bfacts.memory_budget, Some(TIGHT_BUDGET), "{label}: budget fact missing");
    assert!(bfacts.est_max_partition_bytes.unwrap() > 0, "{label}: estimate missing");
    let mut scrubbed = bfacts;
    scrubbed.memory_budget = None;
    scrubbed.est_max_partition_bytes = None;
    // The budgeted run also carries the obs handle the spill assertions
    // below need; that fact difference is the harness's, not the budget's.
    scrubbed.obs_enabled = ufacts.obs_enabled;
    assert_eq!(ufacts, scrubbed, "{label}: facts differ beyond the budget fields");

    // The budget was tight enough to matter, and the job cleaned up.
    let reg_obs = budgeted.2.as_ref().expect("budgeted runs carry an obs handle");
    let reg = reg_obs.registry();
    assert!(reg.counter_value("ooc_spills_total", Scope::GLOBAL) > 0, "{label}: never spilled");
    assert!(reg.counter_value("ooc_loads_total", Scope::GLOBAL) > 0, "{label}: never loaded back");
    assert_eq!(
        reg.gauge_value("live_spill_bytes", Scope::GLOBAL),
        Some(0),
        "{label}: spill bytes left on disk"
    );
    let fs: Arc<dyn FileSystem> = Arc::new(budgeted.1.clone());
    assert!(!fs.exists(&format!("{TRACE_ROOT}/ooc")), "{label}: spill directory not cleaned up");
}

#[test]
fn pagerank_budgeted_is_bit_identical() {
    let graph = || build_graph(48, |_| 0.0f64, |_| ());
    let unbounded = run_mode(PageRank::new(10), graph, None, |r| r);
    let budgeted = run_mode(PageRank::new(10), graph, Some(TIGHT_BUDGET), |r| r);
    assert_equivalent(&unbounded, &budgeted, |v: &f64| v.to_bits(), "pagerank");
}

#[test]
fn sssp_budgeted_is_bit_identical() {
    let graph = || build_graph(48, |_| f64::INFINITY, |v| 1.0 + (v % 5) as f64);
    let unbounded = run_mode(ShortestPaths::new(0), graph, None, |r| r);
    let budgeted = run_mode(ShortestPaths::new(0), graph, Some(TIGHT_BUDGET), |r| r);
    assert_equivalent(&unbounded, &budgeted, |v: &f64| v.to_bits(), "sssp");
}

#[test]
fn components_budgeted_is_bit_identical() {
    let graph = || build_graph(48, |v| v, |_| ());
    let unbounded = run_mode(ConnectedComponents::new(), graph, None, |r| r);
    let budgeted = run_mode(ConnectedComponents::new(), graph, Some(TIGHT_BUDGET), |r| r);
    assert_equivalent(&unbounded, &budgeted, |v: &u64| *v, "components");
}

#[test]
fn killed_worker_recovers_identically_under_the_budget() {
    // A worker kill mid-job with confined log-replay recovery: the failed
    // partitions rewind to the last checkpoint (pinned resident through
    // the restore) while survivors re-serve logged batches — all of it
    // under the budget, and the traces still match the unbounded run's.
    let plan = || "kill-worker:1@3".parse::<FaultPlan>().unwrap();
    let graph = || build_graph(48, |_| 0.0f64, |_| ());
    for mode in [RecoveryMode::Restart, RecoveryMode::LogReplay] {
        let fault = |r: GraftRunner<PageRank>| {
            r.checkpoint_every(2).recovery_mode(mode).with_fault_plan(plan())
        };
        let unbounded = run_mode(PageRank::new(10), graph, None, fault);
        let budgeted = run_mode(PageRank::new(10), graph, Some(TIGHT_BUDGET), fault);
        for (run, label) in [(&unbounded, "unbounded"), (&budgeted, "budgeted")] {
            let outcome = run.0.outcome.as_ref().unwrap();
            assert!(outcome.stats.recoveries > 0, "{mode:?}/{label}: fault plan never fired");
        }
        assert_equivalent(
            &unbounded,
            &budgeted,
            |v: &f64| v.to_bits(),
            &format!("pagerank+kill/{mode:?}"),
        );
    }
}
