//! `graft-cli trace` — inspect and convert trace files at the wire level.
//!
//! ```text
//! graft-cli trace dump <trace-dir> [--limit <n>]
//! graft-cli trace convert <src-dir> <dst-dir> --to json|binary
//! ```
//!
//! `dump` walks every channel file frame by frame and pretty-prints the
//! frames every reader walks — including the index frames, which hold
//! each group's superstep and context and which the higher-level views
//! never surface. A native (v4) channel is shown as it is on disk; a
//! legacy (JSON-lines, v1, v2 or v3) channel as the v4 frames it is read
//! as, which the header says.
//!
//! `convert` rewrites a trace directory into the other encoding
//! (`graft::trace::convert_trace_dir`): `--to json` exports a binary
//! trace as JSON lines, dropping the index frames, writing every edge
//! list inline, listing every broadcast and giving every record its
//! group's context; `--to binary` imports a JSON-lines, v1, v2 or v3
//! binary trace as layout v4, re-deriving groups, edge references and
//! broadcasts through the
//! writer capture uses, so the result is byte-identical to a native
//! capture and an export imported back is the capture it came from.

use std::process::ExitCode;

use graft::trace::{
    convert_trace_dir, master_trace_path, meta_path, native_channel, walk_vertex_channel,
    worker_trace_path, ChannelKind, ChannelRecord, VertexChannel, FRAME_MASTER,
};
use graft::{JobMeta, MasterTrace, TraceFormat};
use graft_codec::frame::FrameScanner;
use graft_dfs::{FileSystem, LocalFs};

pub fn usage() -> ExitCode {
    eprintln!(
        "usage: graft-cli trace dump <trace-dir> [--limit <n>]\n\
         \x20      graft-cli trace convert <src-dir> <dst-dir> --to json|binary\n\
         subcommands:\n\
         \x20 dump     pretty-print every record frame in the trace directory,\n\
         \x20          including binary superstep index frames (--limit caps the\n\
         \x20          records shown per channel file)\n\
         \x20 convert  rewrite a trace directory into the other encoding: json\n\
         \x20          exports a capture as JSON lines, binary imports JSON lines\n\
         \x20          or a legacy binary trace byte-identically to a native capture"
    );
    ExitCode::FAILURE
}

/// Entry point for `graft-cli trace <subcommand>`.
pub fn run(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("dump") => dump(&args[1..]),
        Some("convert") => convert(&args[1..]),
        _ => usage(),
    }
}

fn open_meta(fs: &dyn FileSystem) -> Result<JobMeta, String> {
    let bytes = fs.read_all(&meta_path("")).map_err(|e| format!("cannot read meta.json: {e}"))?;
    serde_json::from_slice(&bytes).map_err(|e| format!("cannot parse meta.json: {e}"))
}

fn dump(args: &[String]) -> ExitCode {
    let Some(dir) = args.first() else { return usage() };
    let mut limit = usize::MAX;
    if let Some(pos) = args.iter().position(|a| a == "--limit") {
        match args.get(pos + 1).and_then(|v| v.parse().ok()) {
            Some(n) => limit = n,
            None => return usage(),
        }
    }
    let fs = match LocalFs::new(dir) {
        Ok(fs) => fs,
        Err(e) => {
            eprintln!("cannot open {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let meta = match open_meta(&fs) {
        Ok(meta) => meta,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("computation : {}", meta.computation);
    // Every channel is shown as the readers read it: through the door.
    println!("format      : {:?} (frames as read: {:?})", meta.format(), TraceFormat::NATIVE);

    let mut channels: Vec<(String, ChannelKind)> =
        (0..meta.num_workers).map(|w| (worker_trace_path("", w), ChannelKind::Worker)).collect();
    channels.push((master_trace_path(""), ChannelKind::Master));
    for (path, kind) in channels {
        let name = path.trim_start_matches('/');
        let Ok(bytes) = fs.read_all(&path) else {
            println!("\n{name}: absent");
            continue;
        };
        println!("\n{name}: {} bytes", bytes.len());
        let shown = native_channel(meta.format(), kind, bytes, false).map_err(|e| e.to_string());
        let shown = shown.and_then(|bytes| match kind {
            ChannelKind::Worker => dump_worker_channel(VertexChannel::new(&bytes), limit),
            ChannelKind::Master => dump_master_channel(&bytes, limit),
        });
        match shown {
            Ok(records) if records == limit => println!("  ... (limit reached)"),
            Ok(_) => {}
            Err(e) => {
                eprintln!("error in {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Renders one binary worker channel, checked whole as every reader
/// checks it; returns the number of records printed.
fn dump_worker_channel(channel: VertexChannel<'_>, limit: usize) -> Result<usize, String> {
    let mut lines = Vec::new();
    walk_vertex_channel(channel, None, |frame, read| {
        let at = frame.start;
        let len = frame.end - frame.start;
        if lines.len() < limit {
            lines.push(match read {
                ChannelRecord::Index(index) => format!(
                    "  [{at:>8}] index   superstep={} records_before={} bytes_before={} \
                     aggregators={} ({len} bytes)",
                    index.superstep,
                    index.records_before,
                    index.bytes_before,
                    index.aggregators.len()
                ),
                ChannelRecord::Vertex(head) => format!(
                    "  [{at:>8}] vertex  superstep={} vertex={} ({len} bytes)",
                    head.superstep, head.vertex
                ),
            });
        }
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    for line in &lines {
        println!("{line}");
    }
    Ok(lines.len())
}

/// Renders one binary master channel; returns the number of records
/// printed.
fn dump_master_channel(bytes: &[u8], limit: usize) -> Result<usize, String> {
    let mut scanner = FrameScanner::new(bytes);
    let mut shown = 0;
    while shown < limit {
        let frame = match scanner.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(e) => return Err(format!("at byte {}: {e}", scanner.offset())),
        };
        let at = frame.start;
        let len = frame.end - frame.start;
        if frame.kind != FRAME_MASTER {
            return Err(format!("unexpected record kind {} at byte {at}", frame.kind));
        }
        let record: MasterTrace = graft_codec::from_slice(frame.payload)
            .map_err(|e| format!("bad master frame at byte {at}: {e}"))?;
        println!(
            "  [{at:>8}] master  superstep={} aggregators={} halted={} ({len} bytes)",
            record.superstep,
            record.aggregators.len(),
            record.halted,
        );
        shown += 1;
    }
    Ok(shown)
}

fn convert(args: &[String]) -> ExitCode {
    let (Some(src), Some(dst)) = (args.first(), args.get(1)) else { return usage() };
    let target = match args.iter().position(|a| a == "--to") {
        Some(pos) => match args.get(pos + 1).map(String::as_str) {
            Some("json") => TraceFormat::JsonLines,
            Some("binary") => TraceFormat::NATIVE,
            _ => return usage(),
        },
        None => return usage(),
    };
    match convert_dir(src, dst, target) {
        Ok(()) => {
            println!("converted {src} -> {dst} ({target:?})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("convert failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn convert_dir(src: &str, dst: &str, target: TraceFormat) -> Result<(), String> {
    let src_fs = LocalFs::new(src).map_err(|e| format!("cannot open {src}: {e}"))?;
    let dst_fs = LocalFs::new(dst).map_err(|e| format!("cannot open {dst}: {e}"))?;
    convert_trace_dir(&src_fs, &dst_fs, "/", target).map_err(|e| format!("{src}: {e}"))
}
