//! Golden trace bytes: FNV-1a checksums of every file two small
//! deterministic runs leave in their trace directory. The checksums were
//! generated with the tree-building encoder this repository captured
//! with before the single-pass one (`wire_vertex_trace` →
//! `write_value_frame`), so they pin the capture path's bytes against
//! that encoder and not only against itself.

use std::sync::Arc;

use graft::{DebugConfig, GraftRunner};
use graft_algorithms::coloring::{GCMessage, GCValue, GraphColoring, GraphColoringMaster};
use graft_algorithms::pagerank::PageRank;
use graft_dfs::FileSystem;
use graft_pregel::Graph;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(path below the trace root, length, FNV-1a)` of every trace file.
fn trace_checksums(fs: &Arc<dyn FileSystem>, root: &str) -> Vec<(String, usize, u64)> {
    let mut files: Vec<_> = fs
        .list_files_recursive(root)
        .unwrap()
        .into_iter()
        .map(|f| {
            let bytes = fs.read_all(&f.path).unwrap();
            (f.path[root.len()..].to_string(), bytes.len(), fnv1a(&bytes))
        })
        .collect();
    files.sort();
    files
}

fn assert_golden(actual: &[(String, usize, u64)], golden: &[(&str, usize, u64)]) {
    let rendered: Vec<String> = actual
        .iter()
        .map(|(path, len, sum)| format!("(\"{path}\", {len}, {sum:#018x}),"))
        .collect();
    let matches = actual.len() == golden.len()
        && actual.iter().zip(golden).all(|(a, g)| (a.0.as_str(), a.1, a.2) == *g);
    assert!(matches, "trace bytes moved; this run wrote:\n{}", rendered.join("\n"));
}

#[test]
fn pagerank_capture_all_on_a_ring_matches_the_golden_bytes() {
    let mut builder = Graph::builder();
    for v in 0..64u64 {
        builder.add_vertex(v, 0.0f64).unwrap();
    }
    for v in 0..64u64 {
        builder.add_edge(v, (v + 1) % 64, ()).unwrap();
    }
    let config = DebugConfig::<PageRank>::builder().capture_all_active(true).build();
    let run = GraftRunner::new(PageRank::new(5), config)
        .num_workers(2)
        .run(builder.build().unwrap(), "/golden/pagerank")
        .unwrap();
    assert_eq!(run.captures, 64 * 6);
    assert_golden(
        &trace_checksums(run.fs(), "/golden/pagerank"),
        &[
            ("/master.trace", 0, 0xcbf29ce484222325),
            ("/meta.json", 951, 0xa432459e2d35036a),
            ("/result.json", 134, 0x717a457666199e07),
            ("/worker_0.trace", 10533, 0xb7f84d8665cb36bb),
            ("/worker_1.trace", 10533, 0x8b534b00876e883b),
        ],
    );
}

#[test]
fn graph_coloring_dc_full_with_master_capture_matches_the_golden_bytes() {
    // A ring with chords: enough structure for several MIS rounds.
    let mut builder = Graph::builder();
    for v in 0..48u64 {
        builder.add_vertex(v, GCValue::default()).unwrap();
    }
    for v in 0..48u64 {
        builder.add_undirected_edge(v, (v + 1) % 48, ()).unwrap();
        if v % 3 == 0 {
            builder.add_undirected_edge(v, (v + 7) % 48, ()).unwrap();
        }
    }
    // DC-full of the paper's Table 3: specified ids and their neighbours,
    // both constraints, exception capture, master capture.
    let config = DebugConfig::<GraphColoring>::builder()
        .catch_exceptions(true)
        .capture_ids([0, 5, 17, 30, 41])
        .capture_neighbors(true)
        .message_constraint(|m, _, _, _| match m {
            GCMessage::Priority { priority, .. } => *priority < u64::MAX,
            GCMessage::InSet => true,
        })
        .vertex_value_constraint(|v, _, _| v.color.is_none_or(|c| (c as i64) >= 0))
        .capture_master(true)
        .build();
    let run = GraftRunner::new(GraphColoring::new(7), config)
        .with_master(GraphColoringMaster)
        .num_workers(2)
        .max_supersteps(500)
        .run(builder.build().unwrap(), "/golden/coloring")
        .unwrap();
    assert!(run.outcome.is_ok());
    assert!(run.captures > 0);
    assert_golden(
        &trace_checksums(run.fs(), "/golden/coloring"),
        &[
            ("/master.trace", 1527, 0xe5c024cd347ad7db),
            ("/meta.json", 1141, 0x6f913aaed9868850),
            ("/result.json", 135, 0x71e63516e0dd4c5b),
            ("/worker_0.trace", 27858, 0x1a99787eb6d02d6d),
            ("/worker_1.trace", 26129, 0x92ce56f131316c15),
        ],
    );
}
