//! Backward compatibility with trace directories written by earlier
//! versions, committed copies of the same job captured by the computation
//! below:
//!
//! * in JSON lines, before the binary pipeline, whose `meta.json` has no
//!   `trace_format` field (it used the since-renamed `codec` key) and
//!   which readers must auto-detect as JSON lines —
//!   `tests/fixtures/legacy_json_trace/`;
//! * in binary layout v1, every edge list inline —
//!   `tests/fixtures/legacy_binary_v1_trace/`;
//! * in binary layout v2, a repeated edge list by back-reference and
//!   every send as a `(target, message)` pair —
//!   `tests/fixtures/legacy_binary_v2_trace/`;
//! * in binary layout v3, one message sent along every edge as a
//!   broadcast, and the superstep, global data and aggregator values in
//!   every vertex record — `tests/fixtures/legacy_binary_v3_trace/`;
//! * in binary layout v4, a superstep's context once, in the index frame
//!   that opens its group — `tests/fixtures/legacy_binary_v4_trace/`;
//! * in binary layout v5, each name once per record, and every value at
//!   compute entry inline — `tests/fixtures/legacy_binary_v5_trace/`.
//!
//! None has a generator: this version captures the native layout
//! (`TraceFormat::NATIVE`, v6) only. Each reads, serves what a native
//! capture serves, and imports (`trace convert --to binary`) to the bytes
//! of a native capture; and JSON lines, the export format, gives back the
//! JSON fixture's own bytes. The job's values and messages are integers,
//! which hold no names, so its v4 and v5 channels are the same bytes; a
//! second v4 fixture and a second v5 one,
//! `tests/fixtures/legacy_binary_v4_coloring_trace/` and
//! `tests/fixtures/legacy_binary_v5_coloring_trace/`, capture a job with
//! struct values and enum messages, whose names v5 writes once per
//! record.

use std::sync::Arc;

use graft::testing::premade;
use graft::trace::convert_trace_dir;
use graft::untyped::{JobSummary, UntypedSession};
use graft::views::json as vj;
use graft::{DebugConfig, DebugSession, GraftRunner, JobMeta, TraceFormat};
use graft_algorithms::coloring::{GCValue, GraphColoring, GraphColoringMaster};
use graft_dfs::{FileSystem, InMemoryFs};
use graft_pregel::{Computation, ContextOf, VertexHandleOf};

/// Same shape as the fixture's recorded computation: forward `value + 1`
/// around a cycle for two rounds.
struct Relay;

impl Computation for Relay {
    type Id = u64;
    type VValue = i64;
    type EValue = ();
    type Message = i64;

    fn compute(
        &self,
        vertex: &mut VertexHandleOf<'_, Self>,
        messages: &[i64],
        ctx: &mut ContextOf<'_, Self>,
    ) {
        *vertex.value_mut() += messages.iter().sum::<i64>();
        if ctx.superstep() < 2 {
            ctx.send_message_to_all_edges(vertex, *vertex.value() + 1);
        } else {
            vertex.vote_to_halt();
        }
    }
}

const FIXTURE_FILES: &[&str] =
    &["meta.json", "worker_0.trace", "worker_1.trace", "master.trace", "result.json"];

const CHANNELS: &[&str] = &["worker_0.trace", "worker_1.trace", "master.trace"];

/// Every legacy fixture, oldest first.
const LEGACY: &[&str] = &[
    "legacy_binary_v1_trace",
    "legacy_binary_v2_trace",
    "legacy_binary_v3_trace",
    "legacy_binary_v4_trace",
    "legacy_binary_v5_trace",
    "legacy_json_trace",
];

fn fixture_dir(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Loads a committed fixture into an in-memory fs at `/legacy`.
fn load_fixture(name: &str) -> Arc<dyn FileSystem> {
    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    for file in FIXTURE_FILES {
        let bytes = std::fs::read(fixture_dir(name).join(file))
            .unwrap_or_else(|e| panic!("fixture file {name}/{file} missing: {e}"));
        fs.write_all(&format!("/legacy/{file}"), &bytes).unwrap();
    }
    fs
}

/// Every document the views serve over a session, in request order: the
/// superstep listing, the violations view, and per superstep every
/// tabular page, the node-link view and the reproducer of every capture.
/// Each document also goes through every renderer it has.
fn served_views(session: &UntypedSession) -> Vec<String> {
    let supersteps = vj::supersteps_json(session);
    let violations = vj::violations_json(session, None);
    assert_eq!(supersteps.to_text().lines().count(), supersteps.supersteps.len() + 1);
    assert!(violations.to_text().starts_with("=== Violations and Exceptions view ("));
    let mut docs = vec![vj::to_line(&supersteps), vj::to_line(&violations)];
    for ss in session.supersteps() {
        let pages = vj::tabular_json(session, ss, None, 1, 2).total_pages;
        for page in 1..=pages {
            let tabular = vj::tabular_json(session, ss, None, page, 2);
            assert!(tabular.to_text().starts_with("=== Tabular view — superstep"));
            docs.push(vj::to_line(&tabular));
        }
        let node_link = vj::node_link_json(session, ss);
        assert!(node_link.to_text().starts_with("=== Node-link view — superstep"));
        assert!(node_link.to_dot().ends_with("}\n"));
        assert!(node_link.to_html().ends_with("</body></html>\n"));
        docs.push(vj::to_line(&node_link));
        for row in session.captured_at(ss) {
            docs.push(vj::repro_source(session, &row.vertex(), ss).unwrap());
        }
    }
    docs
}

/// The fixtures' job, captured now.
fn capture() -> Arc<dyn FileSystem> {
    let config =
        DebugConfig::<Relay>::builder().capture_all_active(true).catch_exceptions(false).build();
    let run = GraftRunner::new(Relay, config)
        .num_workers(2)
        .run(premade::cycle(4, 0i64), "/legacy")
        .unwrap();
    assert!(run.outcome.is_ok());
    run.fs().clone()
}

#[test]
fn legacy_meta_without_trace_format_reads_as_json() {
    let fs = load_fixture("legacy_json_trace");

    // The committed meta.json must really be legacy-shaped: no
    // trace_format key, so detection falls back to JSON lines.
    let meta_bytes = fs.read_all("/legacy/meta.json").unwrap();
    assert!(
        !String::from_utf8_lossy(&meta_bytes).contains("trace_format"),
        "fixture regressed: meta.json must predate the trace_format field"
    );
    let meta: JobMeta = serde_json::from_slice(&meta_bytes).unwrap();
    assert_eq!(meta.trace_format, None);
    assert_eq!(meta.format(), TraceFormat::JsonLines);

    // Untyped path: summary and full open agree and see the captures.
    let summary = JobSummary::scan(fs.as_ref(), "/legacy").unwrap();
    let session = UntypedSession::open(fs.clone(), "/legacy").unwrap();
    assert_eq!(session.supersteps(), vec![0, 1, 2]);
    assert_eq!(summary.total_captures(), session.total_captures());
    assert_eq!(session.total_captures(), 12, "4 vertices x 3 supersteps");
    let ids: Vec<String> = session.traces_at(1).map(|t| t.vertex()).collect();
    assert_eq!(ids.len(), 4, "all four vertices captured in superstep 1");

    // Typed path: the same auto-detection drives DebugSession.
    let typed = DebugSession::<Relay>::open(fs, "/legacy").unwrap();
    assert_eq!(typed.meta().format(), TraceFormat::JsonLines);
    assert_eq!(typed.supersteps(), vec![0, 1, 2]);
    let t0 = typed.vertex_at(0, 2).unwrap();
    assert!(t0.halted_after);
}

/// The format `meta.json` of the trace in `fs` names.
fn format_of(fs: &Arc<dyn FileSystem>) -> TraceFormat {
    serde_json::from_slice::<JobMeta>(&fs.read_all("/legacy/meta.json").unwrap()).unwrap().format()
}

#[test]
fn a_v1_binary_trace_serves_what_v2_and_json_lines_serve() {
    let v1 = load_fixture("legacy_binary_v1_trace");
    assert_eq!(format_of(&v1), TraceFormat::Binary, "fixture regressed: meta.json must say v1");
    let v2 = load_fixture("legacy_binary_v2_trace");
    assert_eq!(format_of(&v2), TraceFormat::BinaryV2, "fixture regressed: meta.json must say v2");
    let v3 = load_fixture("legacy_binary_v3_trace");
    assert_eq!(format_of(&v3), TraceFormat::BinaryV3, "fixture regressed: meta.json must say v3");
    let v4 = load_fixture("legacy_binary_v4_trace");
    assert_eq!(format_of(&v4), TraceFormat::BinaryV4, "fixture regressed: meta.json must say v4");
    let v5 = load_fixture("legacy_binary_v5_trace");
    assert_eq!(format_of(&v5), TraceFormat::BinaryV5, "fixture regressed: meta.json must say v5");

    let v6 = capture();
    let json = load_fixture("legacy_json_trace");
    assert_eq!(format_of(&v6), TraceFormat::BinaryV6);
    // The same records, fewer bytes each layout: v2 writes each adjacency
    // once, v3 each message sent along every edge once, v4 each
    // superstep's context once; v5 each name once per record, and this
    // job's integers hold none; v6 a value the vertex already wrote as
    // one byte.
    for worker in ["worker_0.trace", "worker_1.trace"] {
        let path = format!("/legacy/{worker}");
        let sizes = [&v1, &v2, &v3, &v4, &v6].map(|fs| fs.read_all(&path).unwrap().len());
        assert!(sizes.windows(2).all(|pair| pair[1] < pair[0]), "{worker}: v1 to v6 {sizes:?}");
        assert_eq!(v4.read_all(&path).unwrap(), v5.read_all(&path).unwrap(), "{worker}: v4, v5");
    }

    let views = |fs: &Arc<dyn FileSystem>| {
        let session = UntypedSession::open(fs.clone(), "/legacy").unwrap();
        assert_eq!(session.total_captures(), 12);
        assert_eq!(JobSummary::scan(fs.as_ref(), "/legacy").unwrap().total_captures(), 12);
        served_views(&session)
    };
    let served = views(&v1);
    assert_eq!(served, views(&v2), "v1 vs v2");
    assert_eq!(served, views(&v3), "v1 vs v3");
    assert_eq!(served, views(&v4), "v1 vs v4");
    assert_eq!(served, views(&v5), "v1 vs v5");
    assert_eq!(served, views(&v6), "v1 vs v6");
    assert_eq!(served, views(&json), "v1 vs JSON lines");

    // The typed reader too.
    let records = |fs: Arc<dyn FileSystem>| {
        let session = DebugSession::<Relay>::open(fs, "/legacy").unwrap();
        assert_eq!(session.total_captures(), 12);
        session.all_traces().cloned().collect::<Vec<_>>()
    };
    let fresh = records(v6);
    assert_eq!(records(v1), fresh, "v1 vs v6");
    assert_eq!(records(v2), fresh, "v2 vs v6");
    assert_eq!(records(v3), fresh, "v3 vs v6");
    assert_eq!(records(v4), fresh, "v4 vs v6");
    assert_eq!(records(v5), fresh, "v5 vs v6");
    assert_eq!(records(json), fresh, "JSON lines vs v6");
}

/// The struct-valued job of the second v4 and v5 fixtures: graph coloring
/// on a three-vertex path, every active vertex captured.
fn coloring_capture() -> Arc<dyn FileSystem> {
    let config = DebugConfig::<GraphColoring>::builder()
        .capture_all_active(true)
        .catch_exceptions(false)
        .build();
    let run = GraftRunner::new(GraphColoring::new(7), config)
        .with_master(GraphColoringMaster)
        .num_workers(2)
        .run(premade::path(3, GCValue::default()), "/legacy")
        .unwrap();
    assert!(run.outcome.is_ok());
    run.fs().clone()
}

/// A job whose values are structs and whose messages are enum variants:
/// its v4 and v5 channels import to a native capture's bytes, which are
/// fewer each layout — v5 writes each field and variant name once per
/// record, v6 a value the vertex already wrote as one byte — and serve
/// the same views and typed records.
#[test]
fn v4_and_v5_traces_with_struct_values_import_to_fewer_bytes() {
    let v4 = load_fixture("legacy_binary_v4_coloring_trace");
    assert_eq!(format_of(&v4), TraceFormat::BinaryV4, "fixture regressed: meta.json must say v4");
    let v5 = load_fixture("legacy_binary_v5_coloring_trace");
    assert_eq!(format_of(&v5), TraceFormat::BinaryV5, "fixture regressed: meta.json must say v5");
    let native = coloring_capture();
    let session = |fs: &Arc<dyn FileSystem>| UntypedSession::open(fs.clone(), "/legacy").unwrap();
    let records = |fs: &Arc<dyn FileSystem>| {
        let session = DebugSession::<GraphColoring>::open(fs.clone(), "/legacy").unwrap();
        assert_eq!(session.total_captures(), 22);
        session.all_traces().cloned().collect::<Vec<_>>()
    };
    for legacy in [&v4, &v5] {
        let imported: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
        let format = format_of(legacy);
        convert_trace_dir(legacy.as_ref(), imported.as_ref(), "/legacy", TraceFormat::NATIVE)
            .unwrap();
        for channel in CHANNELS {
            let path = format!("/legacy/{channel}");
            let (got, want) = (imported.read_all(&path).unwrap(), native.read_all(&path).unwrap());
            assert_eq!(got, want, "{format:?} {channel}");
        }
        assert_eq!(served_views(&session(legacy)), served_views(&session(&native)), "{format:?}");
        assert_eq!(records(legacy), records(&native), "{format:?}");
    }
    for worker in ["worker_0.trace", "worker_1.trace"] {
        let path = format!("/legacy/{worker}");
        let sizes = [&v4, &v5, &native].map(|fs| fs.read_all(&path).unwrap().len());
        assert!(sizes.windows(2).all(|pair| pair[1] < pair[0]), "{worker}: v4 to v6 {sizes:?}");
    }
}

/// The import half of `trace convert`: every legacy directory becomes,
/// channel for channel, the bytes a native capture of their job writes,
/// and serves the same views and typed records. A native directory is not
/// imported again.
#[test]
fn legacy_traces_import_to_the_bytes_of_a_native_capture() {
    let native = capture();
    let session = |fs: &Arc<dyn FileSystem>| UntypedSession::open(fs.clone(), "/legacy").unwrap();
    let records = |fs: &Arc<dyn FileSystem>| {
        let session = DebugSession::<Relay>::open(fs.clone(), "/legacy").unwrap();
        session.all_traces().cloned().collect::<Vec<_>>()
    };
    for name in LEGACY {
        let legacy = load_fixture(name);
        let imported: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
        convert_trace_dir(legacy.as_ref(), imported.as_ref(), "/legacy", TraceFormat::NATIVE)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for channel in CHANNELS {
            let path = format!("/legacy/{channel}");
            let (got, want) = (imported.read_all(&path).unwrap(), native.read_all(&path).unwrap());
            assert_eq!(got, want, "{name}");
        }
        assert_eq!(format_of(&imported), TraceFormat::NATIVE, "{name}");
        assert_eq!(served_views(&session(&imported)), served_views(&session(&native)), "{name}");
        assert_eq!(records(&imported), records(&native), "{name}");
    }
    let again =
        convert_trace_dir(native.as_ref(), &InMemoryFs::new(), "/legacy", TraceFormat::NATIVE);
    assert!(again.unwrap_err().to_string().contains("already uses BinaryV6"));
}

/// Opens the legacy directory of `fs` through every reader. Each must end
/// in a typed error or in a session whose every view and reproducer
/// renders; where the summary and the session both open, they agree.
fn every_reader_fails_typed_or_renders(fs: &Arc<dyn FileSystem>) {
    let opened = UntypedSession::open(fs.clone(), "/legacy");
    if let (Ok(session), Ok(summary)) = (&opened, JobSummary::scan(fs.as_ref(), "/legacy")) {
        assert_eq!(summary.supersteps(), session.supersteps());
        for ss in session.supersteps() {
            assert_eq!(summary.count_at(ss), session.count_at(ss));
        }
    }
    let partial = UntypedSession::open_partial(fs.clone(), "/legacy", u64::MAX);
    for session in [opened, partial].into_iter().flatten() {
        served_views(&session);
    }
    if let Ok(typed) = DebugSession::<Relay>::open(fs.clone(), "/legacy") {
        for ss in typed.supersteps() {
            for trace in typed.captured_at(ss) {
                typed.reproduce_vertex(trace.vertex, ss).unwrap().generate_test_source();
            }
        }
    }
}

/// The door under damage: every cut and a set of single-byte flips of
/// each channel of every legacy fixture, through every reader. A release
/// build flips each byte three ways, a debug one once.
#[test]
fn damaged_legacy_channels_fail_typed_or_serve_every_view() {
    let flips: &[u8] = if cfg!(debug_assertions) { &[0xff] } else { &[0x01, 0x80, 0xff] };
    for name in LEGACY {
        let fs = load_fixture(name);
        for channel in CHANNELS {
            let path = format!("/legacy/{channel}");
            let pristine = fs.read_all(&path).unwrap();
            let cuts = (0..pristine.len()).map(|cut| pristine[..cut].to_vec());
            let flipped = (0..pristine.len()).flat_map(|at| {
                flips.iter().map({
                    let pristine = &pristine;
                    move |flip| {
                        let mut bytes = pristine.clone();
                        bytes[at] ^= flip;
                        bytes
                    }
                })
            });
            for damaged in cuts.chain(flipped) {
                fs.write_all(&path, &damaged).unwrap();
                every_reader_fails_typed_or_renders(&fs);
            }
            fs.write_all(&path, &pristine).unwrap();
        }
    }
}

/// The export half, pinned against real legacy bytes: the JSON fixture
/// imported and exported again is the fixture, channel for channel.
#[test]
fn the_json_fixture_imports_and_exports_back_to_its_own_bytes() {
    let legacy = load_fixture("legacy_json_trace");
    let imported = InMemoryFs::new();
    convert_trace_dir(legacy.as_ref(), &imported, "/legacy", TraceFormat::NATIVE).unwrap();
    let exported = InMemoryFs::new();
    convert_trace_dir(&imported, &exported, "/legacy", TraceFormat::JsonLines).unwrap();
    for channel in CHANNELS {
        let path = format!("/legacy/{channel}");
        assert_eq!(exported.read_all(&path).unwrap(), legacy.read_all(&path).unwrap(), "{channel}");
    }
}
