//! End-to-end test of `graft-cli`: run an instrumented job with traces
//! on a real directory, then drive the binary against it.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use graft::untyped::UntypedSession;
use graft::views::json as vj;
use graft::{DebugConfig, GraftRunner};
use graft_dfs::LocalFs;
use graft_pregel::{Computation, ContextOf, VertexHandleOf};

struct Spiky;

impl Computation for Spiky {
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
        let sum: i64 = messages.iter().sum();
        vertex.set_value(vertex.value() + sum + 10);
        if ctx.superstep() < 3 {
            ctx.send_message_to_all_edges(vertex, *vertex.value());
        } else {
            vertex.vote_to_halt();
        }
    }
}

fn cli_binary() -> PathBuf {
    // cargo puts integration-test binaries in target/<profile>/deps; the
    // cli binary itself lands one level up.
    let mut path = std::env::current_exe().expect("test binary path");
    path.pop();
    path.pop();
    path.push("graft-cli");
    path
}

fn run_cli(dir: &std::path::Path, args: &[&str]) -> (String, bool) {
    let output = Command::new(cli_binary())
        .arg(dir)
        .args(args)
        .output()
        .expect("graft-cli binary exists (build with --workspace)");
    (
        String::from_utf8_lossy(&output.stdout).to_string()
            + &String::from_utf8_lossy(&output.stderr),
        output.status.success(),
    )
}

#[test]
fn cli_browses_a_real_trace_directory() {
    let dir = std::env::temp_dir().join(format!("graft-cli-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fs = Arc::new(LocalFs::new(&dir).unwrap());

    // Produce traces: ring of 6 vertices, capture 2 ids + a constraint.
    let config = DebugConfig::<Spiky>::builder()
        .capture_ids([1, 4])
        .message_constraint(|m, _, _, _| *m < 60)
        .catch_exceptions(false)
        .build();
    let run = GraftRunner::new(Spiky, config)
        .with_fs(fs)
        .num_workers(2)
        .run(graft::testing::premade::cycle(6, 0i64), "/")
        .unwrap();
    assert!(run.outcome.is_ok());
    assert!(run.captures > 0);

    let (info, ok) = run_cli(&dir, &["info"]);
    assert!(ok, "info failed: {info}");
    assert!(info.contains("computation : Spiky"), "{info}");
    assert!(info.contains("job status  : success"), "{info}");

    let (supersteps, ok) = run_cli(&dir, &["supersteps"]);
    assert!(ok);
    assert!(supersteps.contains("superstep  captures"));
    assert!(supersteps.lines().count() >= 4, "{supersteps}");

    // The text views render the documents `--format json` prints: `show`
    // every tabular page, then the superstep's violations.
    let session = UntypedSession::open(run.fs().clone(), "/").unwrap();
    let (show, ok) = run_cli(&dir, &["show", "0"]);
    assert!(ok);
    assert!(show.contains("| 1      |"), "{show}");
    assert!(show.contains("SpecifiedId"), "{show}");
    let tabular = vj::tabular_json(&session, 0, None, 1, 50).to_text();
    let violations = vj::violations_json(&session, Some(0)).to_text();
    assert_eq!(show, tabular + &violations);

    let (history, ok) = run_cli(&dir, &["vertex", "4"]);
    assert!(ok);
    assert!(history.contains("superstep    0"), "{history}");

    let (violations, ok) = run_cli(&dir, &["violations"]);
    assert!(ok);
    assert!(violations.contains("Violations and Exceptions view ("), "{violations}");
    assert_eq!(violations, vj::violations_json(&session, None).to_text());

    // `nodelink` honours `--format` like every other view: text by default.
    let node_link = vj::node_link_json(&session, 1);
    for args in [&["nodelink", "1"][..], &["nodelink", "1", "--format", "text"]] {
        let (text, ok) = run_cli(&dir, args);
        assert!(ok, "{text}");
        assert_eq!(text, node_link.to_text(), "{args:?}");
    }
    let (json, ok) = run_cli(&dir, &["nodelink", "1", "--format", "json"]);
    assert!(ok);
    assert_eq!(json, vj::to_line(&node_link));

    // A `--format` with no value is a usage error, not a silent default.
    let (usage, ok) = run_cli(&dir, &["show", "0", "--format"]);
    assert!(!ok);
    assert!(usage.contains("--format needs a value") && usage.contains("usage:"), "{usage}");

    // A healthy config analyzes clean and exits zero.
    let (analysis, ok) = run_cli(&dir, &["analyze"]);
    assert!(ok, "analyze failed: {analysis}");
    assert!(analysis.contains("Analysis findings (0 row(s))"), "{analysis}");

    // Unknown command prints usage and fails.
    let (usage, ok) = run_cli(&dir, &["bogus"]);
    assert!(!ok);
    assert!(usage.contains("usage:"), "{usage}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_analyze_flags_a_broken_config_and_exits_nonzero() {
    let dir = std::env::temp_dir().join(format!("graft-cli-analyze-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fs = Arc::new(LocalFs::new(&dir).unwrap());

    // Two config bugs at once: an inverted superstep range (GA0006,
    // Error) and a neighbor rule with nothing to neighbor (GA0008,
    // Warning).
    let config = DebugConfig::<Spiky>::builder()
        .capture_all_active(true)
        .capture_neighbors(true)
        .supersteps(graft::SuperstepFilter::Range { from: 8, to: 2 })
        .build();
    let run = GraftRunner::new(Spiky, config)
        .with_fs(fs)
        .run(graft::testing::premade::cycle(4, 0i64), "/")
        .unwrap();
    assert!(run.outcome.is_ok());
    assert_eq!(run.captures, 0);

    let (analysis, ok) = run_cli(&dir, &["analyze"]);
    assert!(!ok, "an Error finding must exit nonzero: {analysis}");
    assert!(analysis.contains("GA0006"), "{analysis}");
    assert!(analysis.contains("GA0008"), "{analysis}");
    assert!(analysis.contains("[error] superstep filter Range"), "{analysis}");

    let _ = std::fs::remove_dir_all(&dir);
}

fn run_cli_raw(args: &[&str]) -> (String, bool) {
    let output = Command::new(cli_binary())
        .args(args)
        .output()
        .expect("graft-cli binary exists (build with --workspace)");
    (
        String::from_utf8_lossy(&output.stdout).to_string()
            + &String::from_utf8_lossy(&output.stderr),
        output.status.success(),
    )
}

fn checksum_line(output: &str) -> &str {
    output.lines().find(|l| l.starts_with("result checksum")).expect("run prints a result checksum")
}

#[test]
fn cli_run_recovers_from_faults_with_identical_checksum() {
    let (clean, ok) =
        run_cli_raw(&["run", "pagerank", "--vertices", "32", "--checkpoint-every", "2"]);
    assert!(ok, "clean run failed: {clean}");
    assert!(clean.contains("recoveries  : 0"), "{clean}");

    let export = std::env::temp_dir().join(format!("graft-cli-run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&export);
    let (faulted, ok) = run_cli_raw(&[
        "run",
        "pagerank",
        "--vertices",
        "32",
        "--checkpoint-every",
        "2",
        "--fault-plan",
        "kill-worker:1@3; kill-datanode:0@2",
        "--export",
        export.to_str().unwrap(),
    ]);
    assert!(ok, "faulted run failed: {faulted}");
    assert!(faulted.contains("recoveries  : 1"), "{faulted}");
    assert!(faulted.contains("3/4 datanodes live"), "{faulted}");
    assert_eq!(checksum_line(&clean), checksum_line(&faulted), "recovery must be bit-identical");

    // The exported trace directory is complete and browsable.
    let (info, ok) = run_cli(&export, &["info"]);
    assert!(ok, "exported traces must load: {info}");
    assert!(info.contains("job status  : success"), "{info}");
    let _ = std::fs::remove_dir_all(&export);
}

#[test]
fn cli_run_rejects_a_malformed_fault_plan() {
    let (out, ok) = run_cli_raw(&["run", "pagerank", "--fault-plan", "explode@now"]);
    assert!(!ok);
    assert!(out.contains("bad --fault-plan"), "{out}");
}

#[test]
fn cli_reports_missing_traces_cleanly() {
    let dir = std::env::temp_dir().join(format!("graft-cli-empty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (out, ok) = run_cli(&dir, &["info"]);
    assert!(!ok);
    assert!(out.contains("cannot load traces"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Stdout only — JSON-mode comparisons must not pick up stderr noise.
fn run_cli_stdout(dir: &std::path::Path, args: &[&str]) -> String {
    let output = Command::new(cli_binary())
        .arg(dir)
        .args(args)
        .output()
        .expect("graft-cli binary exists (build with --workspace)");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    String::from_utf8(output.stdout).expect("UTF-8 stdout")
}

/// Satellite contract of the debug server: `graft-cli <dir> <view>
/// --format json` and the matching HTTP endpoint emit identical bytes,
/// because both go through `graft::views::json`.
#[test]
fn cli_json_output_is_byte_identical_to_the_server() {
    use graft_server::client::HttpClient;
    use graft_server::server::{serve, ServerConfig};

    let parent = std::env::temp_dir().join(format!("graft-cli-json-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&parent);
    let fs: Arc<dyn graft_dfs::FileSystem> = Arc::new(LocalFs::new(&parent).unwrap());

    let config = DebugConfig::<Spiky>::builder()
        .capture_ids([1, 4])
        .message_constraint(|m, _, _, _| *m < 60)
        .build();
    let run = GraftRunner::new(Spiky, config)
        .with_fs(Arc::clone(&fs))
        .num_workers(2)
        .run(graft::testing::premade::cycle(6, 0i64), "/spiky-job")
        .unwrap();
    assert!(run.captures > 0);

    let session = UntypedSession::open(Arc::clone(&fs), "/spiky-job").unwrap();
    let job_dir = parent.join("spiky-job");

    let handle = serve(fs, "/", graft_obs::Obs::wall(), ServerConfig::default()).unwrap();
    let mut client = HttpClient::new(handle.addr());

    // (cli args, server path, renderer output) — all three must agree.
    let cases: Vec<(Vec<&str>, String, String)> = vec![
        (
            vec!["info", "--format", "json"],
            "/jobs/spiky-job".into(),
            vj::to_line(&vj::job_json("spiky-job", &session)),
        ),
        (
            vec!["supersteps", "--format", "json"],
            "/jobs/spiky-job/supersteps".into(),
            vj::to_line(&vj::supersteps_json(&session)),
        ),
        (
            vec!["show", "0", "--format", "json"],
            "/jobs/spiky-job/ss/0/tabular".into(),
            vj::to_line(&vj::tabular_json(&session, 0, None, 1, 50)),
        ),
        (
            vec!["nodelink", "0", "--format", "json"],
            "/jobs/spiky-job/ss/0/node-link".into(),
            vj::to_line(&vj::node_link_json(&session, 0)),
        ),
        (
            vec!["violations", "--format", "json"],
            "/jobs/spiky-job/violations".into(),
            vj::to_line(&vj::violations_json(&session, None)),
        ),
        (
            vec!["repro", "1", "0"],
            "/jobs/spiky-job/repro/1/0".into(),
            vj::repro_source(&session, "1", 0).expect("vertex 1 is captured"),
        ),
    ];
    for (cli_args, server_path, want) in cases {
        let cli_out = run_cli_stdout(&job_dir, &cli_args);
        assert_eq!(cli_out, want, "cli {cli_args:?} diverged from the renderer");
        let response = client.get(&server_path).unwrap();
        assert_eq!(response.status, 200, "{server_path}");
        assert_eq!(response.text(), cli_out, "{server_path} diverged from the cli");
    }

    let _ = std::fs::remove_dir_all(&parent);
}

/// Satellite contract of the binary pipeline: `trace convert --to json`
/// exports a capture and `--to binary` imports the export back byte for
/// byte, `trace dump` surfaces the physical frames of either, and every
/// served view renders the same bytes over the native, exported and
/// re-imported directories.
#[test]
fn cli_trace_convert_roundtrips_byte_identically() {
    let parent = std::env::temp_dir().join(format!("graft-cli-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&parent);
    let fs: Arc<dyn graft_dfs::FileSystem> = Arc::new(LocalFs::new(&parent).unwrap());

    let config = DebugConfig::<Spiky>::builder()
        .capture_all_active(true)
        .message_constraint(|m, _, _, _| *m < 60)
        .build();
    let run = GraftRunner::new(Spiky, config)
        .with_fs(Arc::clone(&fs))
        .num_workers(2)
        .run(graft::testing::premade::cycle(6, 0i64), "/bin-run")
        .unwrap();
    assert!(run.outcome.is_ok());
    assert!(run.captures > 0);
    let bin_dir = parent.join("bin-run");

    // Export the capture, then import the export.
    let json_dir = parent.join("json-export");
    let conv_bin = parent.join("reimported");
    for (src, dst, to) in [(&bin_dir, &json_dir, "json"), (&json_dir, &conv_bin, "binary")] {
        let (out, ok) = run_cli_raw(&[
            "trace",
            "convert",
            src.to_str().unwrap(),
            dst.to_str().unwrap(),
            "--to",
            to,
        ]);
        assert!(ok, "convert --to {to} failed: {out}");
    }

    // The imported channel files are byte-identical to the capture's.
    for name in ["worker_0.trace", "worker_1.trace", "master.trace"] {
        let native_bin = std::fs::read(bin_dir.join(name)).unwrap();
        let exported = std::fs::read(json_dir.join(name)).unwrap();
        let converted_bin = std::fs::read(conv_bin.join(name)).unwrap();
        assert_eq!(converted_bin, native_bin, "binary->json->binary diverged for {name}");
        // Spiky has no master computation, so master.trace is empty in
        // both formats; the size win is asserted on the vertex channels.
        if !exported.is_empty() {
            assert!(
                native_bin.len() < exported.len(),
                "{name}: binary ({}) must be smaller than JSON ({})",
                native_bin.len(),
                exported.len()
            );
        }
    }

    // Every served view is byte-identical across the three directories.
    for view in [
        vec!["info", "--format", "json"],
        vec!["supersteps", "--format", "json"],
        vec!["show", "1", "--format", "json"],
        vec!["violations", "--format", "json"],
        vec!["nodelink", "1", "--format", "json"],
        vec!["repro", "2", "1"],
        vec!["show", "1"],
        vec!["nodelink", "1"],
    ] {
        // The job id (directory basename) is baked into the info view, so
        // it is compared with the ids replaced; the rest must match
        // exactly.
        let strip = |dir: &std::path::Path| {
            let id = dir.file_name().unwrap().to_str().unwrap();
            run_cli_stdout(dir, &view).replace(id, "JOB")
        };
        let native = strip(&bin_dir);
        assert_eq!(strip(&json_dir), native, "{view:?} diverged after binary->json");
        assert_eq!(strip(&conv_bin), native, "{view:?} diverged after json->binary");
    }

    // The dump shows the physical layout: index frames in binary, plain
    // records in JSON, with formats labeled.
    let (dump, ok) = run_cli_raw(&["trace", "dump", bin_dir.to_str().unwrap(), "--limit", "5"]);
    assert!(ok, "{dump}");
    assert!(dump.contains("format      : BinaryV4"), "{dump}");
    assert!(dump.contains("index   superstep=0 records_before=0 bytes_before=0"), "{dump}");
    assert!(dump.contains("aggregators=0"), "{dump}");
    assert!(dump.contains("vertex  superstep=0"), "{dump}");
    let (dump, ok) = run_cli_raw(&["trace", "dump", json_dir.to_str().unwrap(), "--limit", "2"]);
    assert!(ok, "{dump}");
    assert!(dump.contains("format      : JsonLines (frames as read: BinaryV4)"), "{dump}");
    assert!(dump.contains("vertex  superstep=0"), "{dump}");

    // Converting to the format a directory already uses is refused.
    let (out, ok) = run_cli_raw(&[
        "trace",
        "convert",
        bin_dir.to_str().unwrap(),
        parent.join("noop").to_str().unwrap(),
        "--to",
        "binary",
    ]);
    assert!(!ok);
    assert!(out.contains("already uses"), "{out}");

    // A back-reference made to name its own frame: dump and convert fail
    // on it, naming the frame, instead of printing or converting it.
    let damaged = parent.join("damaged");
    std::fs::create_dir_all(&damaged).unwrap();
    for entry in std::fs::read_dir(&bin_dir).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), damaged.join(entry.file_name())).unwrap();
        }
    }
    let channel = std::fs::read(bin_dir.join("worker_0.trace")).unwrap();
    let mut scanner = graft_codec::frame::FrameScanner::new(&channel);
    let mut last_reference = None;
    while let Some(frame) = scanner.next_frame().unwrap() {
        if frame.kind != graft::trace::FRAME_VERTEX {
            continue;
        }
        let wire: graft::trace::WireVertexTrace = graft_codec::from_slice(frame.payload).unwrap();
        if matches!(wire.edges, graft::trace::WireEdges::At(_)) {
            last_reference = Some((frame.start, frame.end, wire));
        }
    }
    let (start, end, mut wire) = last_reference.expect("a repeated capture holds a reference");
    wire.edges = graft::trace::WireEdges::At(start as u64);
    let mut bytes = channel[..start].to_vec();
    graft_codec::frame::write_value_frame(&mut bytes, graft::trace::FRAME_VERTEX, &wire).unwrap();
    bytes.extend_from_slice(&channel[end..]);
    std::fs::write(damaged.join("worker_0.trace"), bytes).unwrap();
    let (dump, ok) = run_cli_raw(&["trace", "dump", damaged.to_str().unwrap()]);
    assert!(!ok, "{dump}");
    assert!(dump.contains(&format!("edge reference to byte {start}")), "{dump}");
    assert!(dump.contains(&format!("at byte {start}")), "{dump}");
    let (out, ok) = run_cli_raw(&[
        "trace",
        "convert",
        damaged.to_str().unwrap(),
        parent.join("damaged-json").to_str().unwrap(),
        "--to",
        "json",
    ]);
    assert!(!ok && out.contains(&format!("at byte {start}")), "{out}");

    let _ = std::fs::remove_dir_all(&parent);
}
