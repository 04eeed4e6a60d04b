//! Golden trace bytes: FNV-1a checksums of every file two small
//! deterministic runs leave in their trace directory, in binary layout
//! v4 (edge lists written once, repeats by back-reference; one message
//! sent along every edge written once, as a broadcast; a superstep's
//! context written once per group, in its index frame). Each run also
//! exports its channels to JSON lines and imports the export back, which
//! must give the captured bytes: the bytes are pinned against the
//! converter's record-by-record re-encoding and not only against the
//! capture path itself.
//!
//! Golden view bytes: FNV-1a checksums of every document the untyped
//! read path serves over the same two runs and over a hand-built trace
//! with violations and an exception. They were generated at commit
//! 284e78e, where `UntypedSession::open` decoded every frame into a
//! tree and every view re-decoded every row, so they pin the skimming
//! reader's views and reproducers against that reader.

use std::collections::BTreeMap;
use std::sync::Arc;

use graft::trace::{
    convert_channel, master_trace_path, meta_path, worker_trace_path, ChannelKind, ChannelWriter,
    JobMeta, TraceFormat,
};
use graft::untyped::UntypedSession;
use graft::views::json as vj;
use graft::{
    CaptureReason, DebugConfig, ExceptionInfo, GraftRunner, VertexTrace, ViolationKind,
    ViolationRecord,
};
use graft_algorithms::coloring::{GCMessage, GCValue, GraphColoring, GraphColoringMaster};
use graft_algorithms::pagerank::PageRank;
use graft_dfs::{FileSystem, InMemoryFs};
use graft_pregel::{AggValue, GlobalData, Graph};

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

/// `(view kind, total length, FNV-1a)` of the documents of each kind,
/// concatenated in request order: the superstep listing; every tabular
/// page (25 rows a page) of every superstep; the violations view, whole
/// and per superstep; every superstep's node-link view; the reproducer
/// of every captured `(vertex, superstep)`.
fn view_checksums(fs: &Arc<dyn FileSystem>, root: &str) -> Vec<(String, usize, u64)> {
    let session = UntypedSession::open(Arc::clone(fs), root).unwrap();
    let mut kinds: BTreeMap<&str, String> = BTreeMap::new();
    let mut push = |kind, text: String| kinds.entry(kind).or_default().push_str(&text);
    push("supersteps", vj::to_line(&vj::supersteps_json(&session)));
    push("violations", vj::to_line(&vj::violations_json(&session, None)));
    for ss in session.supersteps() {
        let pages = vj::tabular_json(&session, ss, None, 1, 25).total_pages;
        for page in 1..=pages {
            push("tabular", vj::to_line(&vj::tabular_json(&session, ss, None, page, 25)));
        }
        push("violations", vj::to_line(&vj::violations_json(&session, Some(ss))));
        push("node_link", vj::to_line(&vj::node_link_json(&session, ss)));
        for row in session.captured_at(ss) {
            push("repro", vj::repro_source(&session, &row.vertex(), ss).unwrap());
        }
    }
    kinds
        .into_iter()
        .map(|(kind, text)| (kind.to_string(), text.len(), fnv1a(text.as_bytes())))
        .collect()
}

/// Asserts that every channel of the two-worker run under `root`,
/// exported to JSON lines and imported back, is the captured channel.
fn assert_converts(fs: &Arc<dyn FileSystem>, root: &str) {
    let (native, json) = (TraceFormat::NATIVE, TraceFormat::JsonLines);
    for worker in 0..2 {
        let captured = fs.read_all(&worker_trace_path(root, worker)).unwrap();
        let exported =
            convert_channel(ChannelKind::Worker, native, json, captured.clone()).unwrap();
        let imported = convert_channel(ChannelKind::Worker, json, native, exported).unwrap();
        assert_eq!(imported, captured, "worker {worker}");
    }
    let captured = fs.read_all(&master_trace_path(root)).unwrap();
    let exported = convert_channel(ChannelKind::Master, native, json, captured.clone()).unwrap();
    let imported = convert_channel(ChannelKind::Master, json, native, exported).unwrap();
    assert_eq!(imported, captured, "master");
}

fn assert_golden(actual: &[(String, usize, u64)], golden: &[(&str, usize, u64)]) {
    let rendered: Vec<String> = actual
        .iter()
        .map(|(path, len, sum)| format!("(\"{path}\", {len}, {sum:#018x}),"))
        .collect();
    let matches = actual.len() == golden.len()
        && actual.iter().zip(golden).all(|(a, g)| (a.0.as_str(), a.1, a.2) == *g);
    assert!(matches, "golden bytes moved; this run gave:\n{}", rendered.join("\n"));
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
    let graph = builder.build().unwrap();
    let config = DebugConfig::<PageRank>::builder().capture_all_active(true).build();
    let run = GraftRunner::new(PageRank::new(5), config)
        .num_workers(2)
        .run(graph, "/golden/pagerank")
        .unwrap();
    assert_eq!(run.captures, 64 * 6);
    assert_converts(run.fs(), "/golden/pagerank");
    assert_golden(
        &trace_checksums(run.fs(), "/golden/pagerank"),
        &[
            ("/master.trace", 0, 0xcbf29ce484222325),
            ("/meta.json", 923, 0x80a6fcf8f4382c18),
            ("/result.json", 134, 0x717a457666199e07),
            ("/worker_0.trace", 9326, 0xd6fe0a187ea57b7f),
            ("/worker_1.trace", 9326, 0xdbf8dc8d42ee0adf),
        ],
    );
    assert_golden(
        &view_checksums(run.fs(), "/golden/pagerank"),
        &[
            ("node_link", 44056, 0xdab9626fdb6cfe19),
            ("repro", 621616, 0x44c7a48589c7a5d1),
            ("supersteps", 696, 0xc4a61ef14193b01a),
            ("tabular", 53092, 0x6eff78729a6b9738),
            ("violations", 185, 0x37bacc6ebd3e65ed),
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
    let graph = builder.build().unwrap();
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
        .run(graph, "/golden/coloring")
        .unwrap();
    assert!(run.outcome.is_ok());
    assert_converts(run.fs(), "/golden/coloring");
    assert!(run.captures > 0);
    assert_golden(
        &trace_checksums(run.fs(), "/golden/coloring"),
        &[
            ("/master.trace", 1527, 0xe5c024cd347ad7db),
            ("/meta.json", 1113, 0xad13975de22384fa),
            ("/result.json", 135, 0x71e63516e0dd4c5b),
            ("/worker_0.trace", 18458, 0xf647c63a00160fa7),
            ("/worker_1.trace", 17857, 0xf7ec54b632528e11),
        ],
    );
    assert_golden(
        &view_checksums(run.fs(), "/golden/coloring"),
        &[
            ("node_link", 95291, 0xa4a4f0080ba3720f),
            ("repro", 584105, 0x55dd4308b240678d),
            ("supersteps", 2339, 0x0dae01526dd9432f),
            ("tabular", 74893, 0xad71281e43c07ae1),
            ("violations", 586, 0xcb0b74f9d0d35afa),
        ],
    );
}

/// A trace written record by record (a captured backtrace differs from
/// build to build, so no job can produce these bytes twice): string
/// vertex ids, object-valued vertex values, both violation kinds, two
/// exceptions, one vertex captured by both workers in one superstep, and
/// an aggregator that differs from record to record, so that each record
/// opens a group of its own.
#[test]
fn hand_built_trace_with_violations_and_exceptions_matches_the_golden_view_bytes() {
    #[derive(Clone, serde::Serialize)]
    struct Balance {
        owed: i64,
        rate: f64,
    }
    let root = "/golden/flagged";
    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let meta = JobMeta {
        computation: "Ledger".into(),
        computation_type: "ledger::Ledger".into(),
        master: None,
        value_types: ("String".into(), "Balance".into(), "f64".into(), "i64".into()),
        num_workers: 2,
        trace_format: Some(TraceFormat::NATIVE),
        config: vec!["capture_all_active".into()],
        facts: None,
    };
    fs.write_all(&meta_path(root), &serde_json::to_vec(&meta).unwrap()).unwrap();

    let violation = |kind, detail: &str, target: Option<&str>| ViolationRecord {
        kind,
        detail: detail.into(),
        target: target.map(str::to_string),
    };
    let mut channels =
        [(ChannelWriter::default(), Vec::new()), (ChannelWriter::default(), Vec::new())];
    for superstep in 0..3u64 {
        for (worker, (writer, buf)) in channels.iter_mut().enumerate() {
            // Worker 1 also captures v4 in superstep 1: a duplicate key.
            let ids = (0..10u64).filter(|v| v % 2 == worker as u64 || (superstep, *v) == (1, 4));
            for v in ids {
                let mut violations = Vec::new();
                if superstep == 1 && v % 3 == 1 {
                    violations.push(violation(ViolationKind::Message, "-7", Some("v0")));
                    violations.push(violation(ViolationKind::Message, "-9", Some("v2")));
                }
                if superstep >= 1 && v % 5 == 2 {
                    violations.push(violation(
                        ViolationKind::VertexValue,
                        "Balance { owed: -1 }",
                        None,
                    ));
                }
                let exception = (superstep == 2 && v % 4 == 2).then(|| ExceptionInfo {
                    message: format!("ledger overflow at v{v}"),
                    backtrace: (v == 2).then(|| "   0: ledger::compute\n   1: main".into()),
                });
                let owed = v as i64 * 10 - superstep as i64 * 25;
                let trace = VertexTrace {
                    superstep,
                    vertex: format!("v{v}"),
                    value_before: Balance { owed, rate: 0.5 },
                    value_after: Balance { owed: owed - 25, rate: f64::NAN },
                    edges: vec![(format!("v{}", (v + 1) % 10), 1.5), (format!("w{v}"), -0.0)],
                    incoming: if superstep == 0 { vec![] } else { vec![owed, -owed] },
                    outgoing: vec![(format!("v{}", (v + 1) % 10), owed - 25)],
                    aggregators: vec![
                        ("phase".to_string(), AggValue::Text("SETTLE".into())),
                        ("total".to_string(), AggValue::Long(owed)),
                    ],
                    global: GlobalData { superstep, num_vertices: 10, num_edges: 20 },
                    halted_after: superstep == 2 && exception.is_none(),
                    reasons: if violations.is_empty() && exception.is_none() {
                        vec![CaptureReason::AllActive]
                    } else {
                        vec![CaptureReason::AllActive, CaptureReason::MessageViolation]
                    },
                    violations,
                    exception,
                };
                writer.append_vertex(&trace, buf).unwrap();
            }
        }
    }
    for (worker, (_, buf)) in channels.iter().enumerate() {
        fs.write_all(&worker_trace_path(root, worker), buf).unwrap();
    }
    assert_golden(
        &view_checksums(&fs, root),
        &[
            ("node_link", 8195, 0xf3cd04c72a0284c3),
            ("repro", 55856, 0x08245fd5cf87bace),
            ("supersteps", 363, 0x3797866f891d1c5a),
            ("tabular", 5805, 0xfdf848be5dea5368),
            ("violations", 3010, 0x34562b1be0f72ded),
        ],
    );
}

/// A node-link document the traces above do not produce, byte for byte
/// as commit bc2dbf5 (tree-per-row reader, map-probing assembly) served
/// it, over binary frames and legacy JSON lines: string ids that sort as text (`10 < 100 < 9 <
/// b`); `9` captured by both workers, so the later capture is the node
/// and the links of both stay, merged by target; `10` both captured and
/// a target, so not a stub; unit (`null`) and `"()"` edge values, which
/// show no label, beside ones that do, one of them the text `null`.
#[test]
fn node_link_of_repeated_ids_and_shared_targets_matches_the_golden_document() {
    type Edges = Vec<(&'static str, Option<&'static str>)>;
    let rows: [Vec<(&str, i64, bool, Edges)>; 2] = [
        vec![
            ("10", 1, false, vec![("9", None), ("b", Some("()")), ("100", Some("w"))]),
            ("9", 2, false, vec![("10", Some("null")), ("zz", Some("x\"y"))]),
            ("b", 3, true, vec![("10", None), ("a", Some("3"))]),
        ],
        vec![("9", 4, true, vec![("2", None), ("10", Some("late"))]), ("100", 5, false, vec![])],
    ];
    for format in [TraceFormat::NATIVE, TraceFormat::JsonLines] {
        let root = "/golden/node-link";
        let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
        let meta = JobMeta {
            computation: "Links".into(),
            computation_type: "links::Links".into(),
            master: None,
            value_types: ("String".into(), "i64".into(), "Option<String>".into(), "i64".into()),
            num_workers: 2,
            trace_format: Some(format),
            config: vec![],
            facts: None,
        };
        fs.write_all(&meta_path(root), &serde_json::to_vec(&meta).unwrap()).unwrap();
        for (worker, rows) in rows.iter().enumerate() {
            let (mut writer, mut buf) = (ChannelWriter::default(), Vec::new());
            for (id, value, halted, edges) in rows {
                let trace = VertexTrace::<String, i64, Option<String>, i64> {
                    superstep: 0,
                    vertex: id.to_string(),
                    value_before: 0,
                    value_after: *value,
                    edges: edges
                        .iter()
                        .map(|(t, v)| (t.to_string(), v.map(String::from)))
                        .collect(),
                    incoming: vec![7],
                    outgoing: vec![],
                    aggregators: vec![("round".to_string(), AggValue::Long(*value))],
                    global: GlobalData { superstep: 0, num_vertices: 8, num_edges: 10 },
                    halted_after: *halted,
                    reasons: vec![CaptureReason::SpecifiedId],
                    violations: (*value == 3)
                        .then(|| ViolationRecord {
                            kind: ViolationKind::VertexValue,
                            detail: "3".into(),
                            target: None,
                        })
                        .into_iter()
                        .collect(),
                    exception: None,
                };
                match format {
                    TraceFormat::JsonLines => {
                        serde_json::to_vec_into(&trace, &mut buf).unwrap();
                        buf.push(b'\n');
                    }
                    _ => writer.append_vertex(&trace, &mut buf).unwrap(),
                }
            }
            fs.write_all(&worker_trace_path(root, worker), &buf).unwrap();
        }
        let session = UntypedSession::open(fs, root).unwrap();
        let golden = concat!(
            r#"{"aggregators":[["round","{\"Long\":1}"]],"#,
            r#""global":{"num_edges":10,"num_vertices":8,"superstep":0},"#,
            r#""indicators":{"exception":false,"message_violation":false,"value_violation":true},"#,
            r#""links":[{"from":"10","label":"w","to":"100"},{"from":"10","label":"","to":"9"},"#,
            r#"{"from":"10","label":"","to":"b"},{"from":"9","label":"","to":"10"},"#,
            r#"{"from":"9","label":"late","to":"10"},{"from":"9","label":"","to":"2"},"#,
            r#"{"from":"9","label":"x\"y","to":"zz"},{"from":"b","label":"","to":"10"},"#,
            r#"{"from":"b","label":"3","to":"a"}],"#,
            r#""nodes":[{"active":true,"captured":true,"flagged":false,"id":"10","value":"1"},"#,
            r#"{"active":true,"captured":true,"flagged":false,"id":"100","value":"5"},"#,
            r#"{"active":false,"captured":true,"flagged":false,"id":"9","value":"4"},"#,
            r#"{"active":false,"captured":true,"flagged":true,"id":"b","value":"3"},"#,
            r#"{"active":true,"captured":false,"flagged":false,"id":"2","value":null},"#,
            r#"{"active":true,"captured":false,"flagged":false,"id":"a","value":null},"#,
            r#"{"active":true,"captured":false,"flagged":false,"id":"zz","value":null}],"superstep":0}"#,
            "\n"
        );
        assert_eq!(vj::to_line(&vj::node_link_json(&session, 0)), golden, "{format:?}");
    }
}
