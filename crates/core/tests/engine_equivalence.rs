//! Engine-equivalence matrix: the engine's one execution path, pinned
//! against two references.
//!
//! * **Goldens.** The trace-file checksums, result checksums, halt
//!   reasons and `JobStats` counters below were generated at commit
//!   `a8022e1` — the last one that still had the pre-pool engine
//!   configuration (fresh scoped threads per phase, combiner folds at
//!   the receiver) — by running these same five cells under that legacy
//!   configuration. They pin the surviving path to the bytes the deleted
//!   one produced, not merely to itself. The trace-file checksums were
//!   regenerated once when binary traces moved to layout v2 (each
//!   adjacency written once), once more at layout v3 (one message sent
//!   along every edge written once), once at layout v4 (a superstep's
//!   context written once per group), and once at layout v6 (a value the
//!   vertex already wrote is one `Same` byte); nothing else moved.
//! * **Oracle.** The four fault-free cells must also equal
//!   `graft_pregel::reference::run_sequential` at four partitions on
//!   final values (bit-for-bit), counters and halt reason.

use std::sync::Arc;

use graft::{DebugConfig, GraftRun, GraftRunner};
use graft_algorithms::coloring::{GCValue, GraphColoring, GraphColoringMaster};
use graft_algorithms::components::ConnectedComponents;
use graft_algorithms::pagerank::PageRank;
use graft_algorithms::sssp::ShortestPaths;
use graft_dfs::{ClusterFs, ClusterFsConfig, FileSystem};
use graft_pregel::reference::run_sequential;
use graft_pregel::{Computation, FaultPlan, Graph, HaltReason, JobOutcome, MasterComputation};

const TRACE_ROOT: &str = "/traces/equiv";
const WORKERS: usize = 4;
const MAX_SUPERSTEPS: u64 = 40;

/// What the legacy configuration produced for one cell.
struct Golden {
    /// `(path below the trace root, length, FNV-1a)` of every trace file
    /// (everything except checkpoints), sorted by path.
    files: &'static [(&'static str, usize, u64)],
    /// The result checksum `graft-cli run` prints.
    checksum: u64,
    halt_reason: HaltReason,
    /// Checkpoint restores the run performed.
    recoveries: u64,
    /// `SuperstepStats::counters()` of every superstep.
    counters: &'static [[u64; 7]],
}

fn cluster() -> ClusterFs {
    ClusterFs::new(ClusterFsConfig { num_datanodes: 4, replication: 2, block_size: 256 })
}

/// Same deterministic ring-with-chords family the chaos matrix uses.
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

/// Runs `computation` under Graft with capture-all on a fresh cluster.
fn run_cell<C, F>(
    computation: C,
    graph: Graph<C::Id, C::VValue, C::EValue>,
    plan: Option<FaultPlan>,
    customize: F,
) -> (GraftRun<C>, ClusterFs)
where
    C: Computation<Id = u64>,
    F: FnOnce(GraftRunner<C>) -> GraftRunner<C>,
{
    let cluster = cluster();
    let config = DebugConfig::<C>::builder().capture_all_active(true).build();
    let mut runner = GraftRunner::new(computation, config)
        .with_cluster(cluster.clone())
        .num_workers(WORKERS)
        .max_supersteps(MAX_SUPERSTEPS);
    if let Some(plan) = plan {
        runner = runner.checkpoint_every(2).with_fault_plan(plan);
    }
    let run = customize(runner).run(graph, TRACE_ROOT).unwrap();
    (run, cluster)
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |hash, byte| (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `(path below the trace root, length, FNV-1a)` of every trace file.
fn trace_checksums(fs: &ClusterFs) -> Vec<(String, usize, u64)> {
    let fs: Arc<dyn FileSystem> = Arc::new(fs.clone());
    let mut files: Vec<_> = fs
        .list_files_recursive(TRACE_ROOT)
        .unwrap()
        .into_iter()
        .filter(|f| !f.path.contains("/checkpoints/"))
        .map(|f| {
            let bytes = fs.read_all(&f.path).unwrap();
            (f.path[TRACE_ROOT.len()..].to_string(), bytes.len(), fnv1a(FNV_OFFSET, &bytes))
        })
        .collect();
    files.sort();
    files
}

/// FNV-1a over the sorted (id, value-bits) stream — the same checksum
/// `graft-cli run` prints, so the matrix certifies what users compare.
fn checksum<C: Computation<Id = u64>>(
    outcome: &JobOutcome<C>,
    value_bits: impl Fn(&C::VValue) -> u64,
) -> u64 {
    outcome.graph.sorted_values().iter().fold(FNV_OFFSET, |hash, (id, value)| {
        fnv1a(fnv1a(hash, &id.to_le_bytes()), &value_bits(value).to_le_bytes())
    })
}

/// Asserts the run reproduces what the legacy configuration produced.
/// On a mismatch the message is the run's own `Golden` literal.
fn assert_golden<C: Computation<Id = u64>>(
    run: &(GraftRun<C>, ClusterFs),
    value_bits: impl Fn(&C::VValue) -> u64,
    golden: &Golden,
    label: &str,
) {
    let outcome = run.0.outcome.as_ref().unwrap();
    let files = trace_checksums(&run.1);
    let sum = checksum(outcome, value_bits);
    let counters: Vec<[u64; 7]> = outcome.stats.supersteps.iter().map(|s| s.counters()).collect();

    let matches = files.len() == golden.files.len()
        && files.iter().zip(golden.files).all(|(a, g)| (a.0.as_str(), a.1, a.2) == *g)
        && sum == golden.checksum
        && outcome.halt_reason == golden.halt_reason
        && outcome.stats.recoveries == golden.recoveries
        && counters == golden.counters;
    let rendered_files: Vec<String> = files
        .iter()
        .map(|(path, len, sum)| format!("        (\"{path}\", {len}, {sum:#018x}),"))
        .collect();
    let rendered_counters: Vec<String> =
        counters.iter().map(|c| format!("        {c:?},")).collect();
    assert!(
        matches,
        "{label}: diverged from the legacy golden; this run produced:\n\
         Golden {{\n    files: &[\n{}\n    ],\n    checksum: {sum:#018x},\n    \
         halt_reason: HaltReason::{:?},\n    recoveries: {},\n    counters: &[\n{}\n    ],\n}}",
        rendered_files.join("\n"),
        outcome.halt_reason,
        outcome.stats.recoveries,
        rendered_counters.join("\n"),
    );
}

/// Asserts a fault-free run equals the sequential oracle at the same
/// partition count: values bit-for-bit, counters, halt reason.
fn assert_matches_oracle<C: Computation<Id = u64>>(
    run: &(GraftRun<C>, ClusterFs),
    computation: &C,
    master: Option<&dyn MasterComputation<C>>,
    graph: Graph<C::Id, C::VValue, C::EValue>,
    value_bits: impl Fn(&C::VValue) -> u64,
    label: &str,
) {
    let engine = run.0.outcome.as_ref().unwrap();
    let oracle = run_sequential(computation, master, graph, WORKERS, MAX_SUPERSTEPS);
    let bits = |o: &JobOutcome<C>| -> Vec<(u64, u64)> {
        o.graph.sorted_values().iter().map(|(id, v)| (*id, value_bits(v))).collect()
    };
    assert_eq!(bits(engine), bits(&oracle), "{label}: values diverged from the oracle");
    assert!(engine.stats.same_counters(&oracle.stats), "{label}: counters diverged");
    assert_eq!(engine.halt_reason, oracle.halt_reason, "{label}: halt reasons diverged");
}

#[test]
fn pagerank_matches_the_legacy_golden_and_the_oracle() {
    let graph = || build_graph(48, |_| 0.0f64, |_| ());
    assert!(PageRank::new(10).use_combiner(), "this cell must exercise a combiner");
    let run = run_cell(PageRank::new(10), graph(), None, |r| r);
    assert_golden(&run, |v: &f64| v.to_bits(), &PAGERANK, "pagerank");
    assert_matches_oracle(&run, &PageRank::new(10), None, graph(), |v| v.to_bits(), "pagerank");
}

#[test]
fn sssp_matches_the_legacy_golden_and_the_oracle() {
    let graph = || build_graph(48, |_| f64::INFINITY, |v| 1.0 + (v % 5) as f64);
    let run = run_cell(ShortestPaths::new(0), graph(), None, |r| r);
    assert_golden(&run, |v: &f64| v.to_bits(), &SSSP, "sssp");
    assert_matches_oracle(&run, &ShortestPaths::new(0), None, graph(), |v| v.to_bits(), "sssp");
}

#[test]
fn components_matches_the_legacy_golden_and_the_oracle() {
    let graph = || build_graph(48, |v| v, |_| ());
    let run = run_cell(ConnectedComponents::new(), graph(), None, |r| r);
    assert_golden(&run, |v: &u64| *v, &COMPONENTS, "components");
    assert_matches_oracle(&run, &ConnectedComponents::new(), None, graph(), |v| *v, "components");
}

#[test]
fn coloring_with_master_matches_the_legacy_golden_and_the_oracle() {
    // No combiner here: raw batches must shuffle and deliver in exactly
    // the legacy order, master included.
    let graph = || build_graph(48, |_| GCValue::default(), |_| ());
    let bits = |v: &GCValue| v.color.map(|c| c + 1).unwrap_or(0);
    assert!(!GraphColoring::new(7).use_combiner());
    let run =
        run_cell(GraphColoring::new(7), graph(), None, |r| r.with_master(GraphColoringMaster));
    assert_golden(&run, bits, &COLORING, "coloring");
    let master: &dyn MasterComputation<GraphColoring> = &GraphColoringMaster;
    assert_matches_oracle(&run, &GraphColoring::new(7), Some(master), graph(), bits, "coloring");
}

#[test]
fn faulted_pagerank_recovers_to_the_legacy_golden() {
    // A worker kill and a compute panic at different supersteps: the run
    // must checkpoint, restore and replay to the legacy bytes — and must
    // actually have recovered.
    let plan = "kill-worker:1@3; panic@5".parse::<FaultPlan>().unwrap();
    let run = run_cell(PageRank::new(10), build_graph(48, |_| 0.0f64, |_| ()), Some(plan), |r| r);
    assert!(run.0.outcome.as_ref().unwrap().stats.recoveries > 0, "fault plan never fired");
    assert_golden(&run, |v: &f64| v.to_bits(), &PAGERANK_FAULTED, "pagerank+faults");
}

const PAGERANK: Golden = Golden {
    files: &[
        ("/master.trace", 0, 0xcbf29ce484222325),
        ("/meta.json", 919, 0x2c15592b203d6521),
        ("/result.json", 135, 0xe21ddde9e992313b),
        ("/worker_0.trace", 5707, 0xb53f8d860aa8bb70),
        ("/worker_1.trace", 5707, 0x5c7270f77fa385b8),
        ("/worker_2.trace", 5707, 0x8c229c1b1e0b56ec),
        ("/worker_3.trace", 5707, 0x58c05ee67f5dd19c),
    ],
    checksum: 0xfa979ad63cc18845,
    halt_reason: HaltReason::AllVerticesHalted,
    recoveries: 0,
    counters: &[
        [0, 48, 48, 96, 96, 0, 0],
        [1, 48, 48, 96, 96, 0, 0],
        [2, 48, 48, 96, 96, 0, 0],
        [3, 48, 48, 96, 96, 0, 0],
        [4, 48, 48, 96, 96, 0, 0],
        [5, 48, 48, 96, 96, 0, 0],
        [6, 48, 48, 96, 96, 0, 0],
        [7, 48, 48, 96, 96, 0, 0],
        [8, 48, 48, 96, 96, 0, 0],
        [9, 48, 48, 96, 96, 0, 0],
        [10, 48, 0, 0, 0, 0, 0],
    ],
};

const SSSP: Golden = Golden {
    files: &[
        ("/master.trace", 0, 0xcbf29ce484222325),
        ("/meta.json", 926, 0x6a146607a776772e),
        ("/result.json", 135, 0xa9067f3f057c6a80),
        ("/worker_0.trace", 1557, 0x43f11c68d6487b32),
        ("/worker_1.trace", 1590, 0xafdba09a65e396ee),
        ("/worker_2.trace", 1579, 0xcaa9f9550d8cdbcc),
        ("/worker_3.trace", 1556, 0x92f4e12f8189f2f2),
    ],
    checksum: 0x9f44dee8c9bba0f7,
    halt_reason: HaltReason::AllVerticesHalted,
    recoveries: 0,
    counters: &[
        [0, 48, 0, 2, 2, 0, 0],
        [1, 2, 0, 4, 4, 0, 0],
        [2, 4, 0, 8, 8, 0, 0],
        [3, 7, 0, 12, 12, 0, 0],
        [4, 9, 0, 16, 16, 0, 0],
        [5, 11, 0, 18, 18, 0, 0],
        [6, 11, 0, 16, 16, 0, 0],
        [7, 10, 0, 12, 12, 0, 0],
        [8, 9, 0, 6, 6, 0, 0],
        [9, 5, 0, 2, 2, 0, 0],
        [10, 2, 0, 0, 0, 0, 0],
    ],
};

const COMPONENTS: Golden = Golden {
    files: &[
        ("/master.trace", 0, 0xcbf29ce484222325),
        ("/meta.json", 943, 0x6052565fa91f7cf0),
        ("/result.json", 135, 0x6aac4a88d8e98229),
        ("/worker_0.trace", 2189, 0xce9adeea0c77d7b1),
        ("/worker_1.trace", 2098, 0xd9d10e6e44dc7cc6),
        ("/worker_2.trace", 2089, 0xfe6a112defcaeca1),
        ("/worker_3.trace", 2032, 0xb9ff6620488c83bf),
    ],
    checksum: 0x1566a3b08b8c8b25,
    halt_reason: HaltReason::AllVerticesHalted,
    recoveries: 0,
    counters: &[
        [0, 48, 0, 96, 96, 0, 0],
        [1, 48, 0, 94, 94, 0, 0],
        [2, 48, 0, 90, 90, 0, 0],
        [3, 48, 0, 82, 82, 0, 0],
        [4, 46, 0, 70, 70, 0, 0],
        [5, 43, 0, 54, 54, 0, 0],
        [6, 36, 0, 36, 36, 0, 0],
        [7, 26, 0, 20, 20, 0, 0],
        [8, 16, 0, 8, 8, 0, 0],
        [9, 7, 0, 2, 2, 0, 0],
        [10, 2, 0, 0, 0, 0, 0],
    ],
};

const COLORING: Golden = Golden {
    files: &[
        ("/master.trace", 1260, 0x03815a96983ddadc),
        ("/meta.json", 1012, 0x27af82512c95de87),
        ("/result.json", 135, 0x997a581ffa15309c),
        ("/worker_0.trace", 14203, 0x5bd272d7fa8a3d2c),
        ("/worker_1.trace", 14737, 0x817e4842602225ee),
        ("/worker_2.trace", 14795, 0xffc06aabba3c9423),
        ("/worker_3.trace", 14782, 0xbb2bad8d809e5761),
    ],
    checksum: 0x441441b3462a5686,
    halt_reason: HaltReason::AllVerticesHalted,
    recoveries: 0,
    counters: &[
        [0, 48, 48, 96, 96, 0, 0],
        [1, 48, 48, 28, 28, 0, 0],
        [2, 48, 48, 0, 0, 0, 0],
        [3, 48, 48, 28, 28, 0, 0],
        [4, 48, 48, 16, 16, 0, 0],
        [5, 48, 48, 0, 0, 0, 0],
        [6, 48, 48, 2, 2, 0, 0],
        [7, 48, 48, 2, 2, 0, 0],
        [8, 48, 48, 0, 0, 0, 0],
        [9, 48, 25, 0, 0, 0, 0],
        [10, 25, 25, 50, 50, 0, 0],
        [11, 47, 25, 38, 38, 0, 0],
        [12, 45, 25, 0, 0, 0, 0],
        [13, 25, 25, 4, 4, 0, 0],
        [14, 27, 25, 4, 4, 0, 0],
        [15, 27, 25, 0, 0, 0, 0],
        [16, 25, 4, 0, 0, 0, 0],
        [17, 4, 4, 8, 8, 0, 0],
        [18, 12, 4, 8, 8, 0, 0],
        [19, 12, 4, 0, 0, 0, 0],
        [20, 4, 0, 0, 0, 0, 0],
    ],
};

/// Recovery is bit-identical: only `meta.json` (which records the
/// checkpoint schedule) and the recovery count differ from [`PAGERANK`].
const PAGERANK_FAULTED: Golden = Golden {
    files: &[
        ("/master.trace", 0, 0xcbf29ce484222325),
        ("/meta.json", 937, 0x6496d8b2aa4f4169),
        ("/result.json", 135, 0xe21ddde9e992313b),
        ("/worker_0.trace", 5707, 0xb53f8d860aa8bb70),
        ("/worker_1.trace", 5707, 0x5c7270f77fa385b8),
        ("/worker_2.trace", 5707, 0x8c229c1b1e0b56ec),
        ("/worker_3.trace", 5707, 0x58c05ee67f5dd19c),
    ],
    recoveries: 2,
    ..PAGERANK
};
