//! `graft-cli trace` — inspect and convert trace files at the wire level.
//!
//! ```text
//! graft-cli trace dump <trace-dir> [--limit <n>]
//! graft-cli trace convert <src-dir> <dst-dir> --to json|binary
//! ```
//!
//! `dump` walks every channel file frame by frame (or line by line for
//! JSON traces) and pretty-prints what is physically on disk — including
//! the superstep index frames the higher-level views never surface.
//!
//! `convert` rewrites a trace directory into the other encoding. The
//! conversion is *canonical*: converting a binary run to JSON produces
//! byte-identical worker/master files to a native JSON run of the same
//! job, and vice versa — binary→JSON drops the index frames a JSON file
//! never has, JSON→binary re-derives them from the record stream exactly
//! the way the trace sink does. `meta.json` is rewritten so readers
//! auto-detect the new format; every other file (checkpoints, obs
//! artifacts, result.json) is copied verbatim.

use std::process::ExitCode;
use std::sync::Arc;

use graft::trace::{
    decode_master_records, decode_vertex_records, encode_index_frame, encode_record,
    index_record_from_payload, master_trace_path, meta_path, vertex_value_from_payload,
    worker_trace_path, IndexRecord, WireVertexTrace, FRAME_INDEX, FRAME_MASTER, FRAME_VERTEX,
};
use graft::{JobMeta, MasterTrace, TraceCodec};
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
         \x20 convert  rewrite a trace directory into the other encoding; the\n\
         \x20          converted worker/master files are byte-identical to what a\n\
         \x20          native run in the target format would have written"
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
    println!("format      : {:?}", meta.codec());

    let mut channels: Vec<String> =
        (0..meta.num_workers).map(|w| worker_trace_path("", w)).collect();
    channels.push(master_trace_path(""));
    for path in channels {
        let name = path.trim_start_matches('/');
        let Ok(bytes) = fs.read_all(&path) else {
            println!("\n{name}: absent");
            continue;
        };
        println!("\n{name}: {} bytes", bytes.len());
        let shown = match meta.codec() {
            TraceCodec::Binary => dump_binary_channel(&bytes, name == "master.trace", limit),
            TraceCodec::JsonLines => dump_json_channel(&bytes, name == "master.trace", limit),
        };
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

/// Renders one binary channel; returns the number of records printed.
fn dump_binary_channel(bytes: &[u8], master: bool, limit: usize) -> Result<usize, String> {
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
        match frame.kind {
            FRAME_INDEX => {
                let index = index_record_from_payload(frame.payload)
                    .map_err(|e| format!("bad index frame at byte {at}: {e}"))?;
                println!(
                    "  [{at:>8}] index   superstep={} records_before={} bytes_before={} ({len} bytes)",
                    index.superstep, index.records_before, index.bytes_before
                );
            }
            FRAME_VERTEX if !master => {
                let value = vertex_value_from_payload(frame.payload)
                    .map_err(|e| format!("bad vertex frame at byte {at}: {e}"))?;
                println!(
                    "  [{at:>8}] vertex  superstep={} vertex={} ({len} bytes)",
                    render(value.get("superstep")),
                    render(value.get("vertex")),
                );
            }
            FRAME_MASTER if master => {
                let record: MasterTrace = graft_codec::from_slice(frame.payload)
                    .map_err(|e| format!("bad master frame at byte {at}: {e}"))?;
                println!(
                    "  [{at:>8}] master  superstep={} aggregators={} halted={} ({len} bytes)",
                    record.superstep,
                    record.aggregators.len(),
                    record.halted,
                );
            }
            other => return Err(format!("unexpected record kind {other} at byte {at}")),
        }
        shown += 1;
    }
    Ok(shown)
}

/// Renders one JSON-lines channel; returns the number of records printed.
fn dump_json_channel(bytes: &[u8], master: bool, limit: usize) -> Result<usize, String> {
    let mut shown = 0;
    let mut at = 0;
    for line in bytes.split(|b| *b == b'\n') {
        if line.is_empty() || shown >= limit {
            at += line.len() + 1;
            continue;
        }
        let value: serde_json::Value =
            serde_json::from_slice(line).map_err(|e| format!("bad JSON line at byte {at}: {e}"))?;
        if master {
            println!(
                "  [{at:>8}] master  superstep={} halted={} ({} bytes)",
                render(value.get("superstep")),
                render(value.get("halted")),
                line.len(),
            );
        } else {
            println!(
                "  [{at:>8}] vertex  superstep={} vertex={} ({} bytes)",
                render(value.get("superstep")),
                render(value.get("vertex")),
                line.len(),
            );
        }
        at += line.len() + 1;
        shown += 1;
    }
    Ok(shown)
}

fn render(value: Option<&serde_json::Value>) -> String {
    match value {
        Some(serde_json::Value::String(s)) => s.clone(),
        Some(v) => serde_json::to_string(v).unwrap_or_else(|_| "?".to_string()),
        None => "?".to_string(),
    }
}

fn convert(args: &[String]) -> ExitCode {
    let (Some(src), Some(dst)) = (args.first(), args.get(1)) else { return usage() };
    let target = match args.iter().position(|a| a == "--to") {
        Some(pos) => match args.get(pos + 1).map(String::as_str) {
            Some("json") => TraceCodec::JsonLines,
            Some("binary") => TraceCodec::Binary,
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

fn convert_dir(src: &str, dst: &str, target: TraceCodec) -> Result<(), String> {
    let src_fs = LocalFs::new(src).map_err(|e| format!("cannot open {src}: {e}"))?;
    let mut meta = open_meta(&src_fs)?;
    let source = meta.codec();
    if source == target {
        return Err(format!("{src} already uses {target:?}"));
    }
    let dst_fs = LocalFs::new(dst).map_err(|e| format!("cannot open {dst}: {e}"))?;

    // The rewritten meta.json records the new format both at the top
    // level (for readers) and in the analyzer's config facts (GA0019).
    meta.trace_format = Some(target);
    if let Some(facts) = &mut meta.facts {
        facts.trace_format = Some(
            match target {
                TraceCodec::JsonLines => "json",
                TraceCodec::Binary => "binary",
            }
            .to_string(),
        );
    }
    let meta_bytes = serde_json::to_vec_pretty(&meta).map_err(|e| e.to_string())?;
    dst_fs.write_all(&meta_path(""), &meta_bytes).map_err(|e| e.to_string())?;

    let mut converted = vec![meta_path("")];
    for worker in 0..meta.num_workers {
        let path = worker_trace_path("", worker);
        if let Ok(bytes) = src_fs.read_all(&path) {
            let out = convert_vertex_channel(source, target, &bytes)
                .map_err(|e| format!("{}: {e}", path.trim_start_matches('/')))?;
            dst_fs.write_all(&path, &out).map_err(|e| e.to_string())?;
            converted.push(path);
        }
    }
    let path = master_trace_path("");
    if let Ok(bytes) = src_fs.read_all(&path) {
        let records = decode_master_records(source, &bytes).map_err(|e| e.to_string())?;
        let mut out = Vec::new();
        for record in &records {
            encode_record(target, record, &mut out).map_err(|e| e.to_string())?;
        }
        dst_fs.write_all(&path, &out).map_err(|e| e.to_string())?;
        converted.push(path);
    }

    // Everything else travels unchanged: result.json, checkpoints, obs
    // artifacts, out-of-core spill files.
    let fs: Arc<dyn FileSystem> = Arc::new(src_fs);
    for file in fs.list_files_recursive("/").map_err(|e| e.to_string())? {
        if converted.contains(&file.path) {
            continue;
        }
        let bytes = fs.read_all(&file.path).map_err(|e| e.to_string())?;
        dst_fs.write_all(&file.path, &bytes).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Re-encodes one worker channel. Vertex records pass through the same
/// type-erased tree both formats are defined over, and index frames are
/// re-derived with the sink's rule — one per superstep transition, with
/// the counts as of the frame's own start — so a JSON→binary conversion
/// is byte-identical to a native binary capture.
fn convert_vertex_channel(
    source: TraceCodec,
    target: TraceCodec,
    bytes: &[u8],
) -> Result<Vec<u8>, String> {
    let records: Vec<WireVertexTrace> =
        decode_vertex_records(source, bytes).map_err(|e| e.to_string())?;

    let mut out = Vec::new();
    let mut last_superstep = None;
    for (count, record) in records.iter().enumerate() {
        if target == TraceCodec::Binary && last_superstep != Some(record.superstep) {
            let index = IndexRecord {
                superstep: record.superstep,
                records_before: count as u64,
                bytes_before: out.len() as u64,
            };
            encode_index_frame(&index, &mut out).map_err(|e| e.to_string())?;
            last_superstep = Some(record.superstep);
        }
        encode_record(target, record, &mut out).map_err(|e| e.to_string())?;
    }
    Ok(out)
}
