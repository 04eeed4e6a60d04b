//! `graft-cli` — browse Graft trace directories from the terminal: the
//! navigation half of the paper's browser GUI.
//!
//! Traces written to a `LocalFs` (directory on disk) can be inspected
//! without recompiling the original program, in the framed binary format
//! capture writes or in a legacy one (`meta.json` records which; files
//! without the record are legacy JSON lines):
//!
//! ```text
//! graft-cli <trace-dir> info
//! graft-cli <trace-dir> supersteps
//! graft-cli <trace-dir> show <superstep>
//! graft-cli <trace-dir> nodelink <superstep>
//! graft-cli <trace-dir> vertex <id>
//! graft-cli <trace-dir> violations
//! graft-cli <trace-dir> master
//! graft-cli <trace-dir> analyze
//! graft-cli trace dump <trace-dir>
//! graft-cli trace convert <src> <dst> --to json|binary
//! ```
//!
//! The views (`supersteps`, `show`, `nodelink`, `violations`) build the
//! document graft-server sends for them: `--format json` prints it,
//! the default text form renders it (`graft::views::render`).
//!
//! `analyze` runs `graft-analyzer`'s configuration lints over the
//! [`ConfigFacts`](graft::ConfigFacts) recorded in `meta.json` and exits
//! nonzero when any Error-severity finding fires, so it can gate CI. The
//! deeper semantic checks (combiner algebra, message-order races) need
//! the compiled computation; run those through
//! `graft_analyzer::analyze_session` in a test.
//!
//! `graft-cli run <algorithm>` executes a built-in algorithm on the
//! simulated HDFS cluster with checkpoint/restart fault tolerance —
//! optionally under an injected fault plan — and can export the trace
//! directory for browsing (see `run_cmd`). With `--live` the run
//! streams its observability channel as it goes; `graft-cli watch`
//! tails that channel from the terminal and `graft-cli serve --follow`
//! serves it over HTTP (see `watch_cmd` / `serve_cmd`).

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::sync::Arc;

use graft::untyped::UntypedSession;
use graft::views::json as vj;
use graft_dfs::LocalFs;

mod check_sched_cmd;
mod profile_cmd;
mod run_cmd;
mod serve_cmd;
mod trace_cmd;
mod watch_cmd;

fn usage() -> ExitCode {
    eprintln!(
        "usage: graft-cli <trace-dir> <command> [--format json|text]\n\
         \x20      graft-cli run <algorithm> [options]   (see `graft-cli run` for details)\n\
         \x20      graft-cli profile <obs-dir> [options] (see `graft-cli profile`)\n\
         \x20      graft-cli serve --trace-root <dir>    (see `graft-cli serve`)\n\
         \x20      graft-cli watch <trace-dir> [options] (see `graft-cli watch`)\n\
         \x20      graft-cli trace <dump|convert> ...    (see `graft-cli trace`)\n\
         \x20      graft-cli check-sched [options]       (see `graft-cli check-sched --help`)\n\
         commands:\n\
         \x20 info                 job metadata and terminal status\n\
         \x20 supersteps           captured supersteps with counts and M/V/E indicators\n\
         \x20 show <superstep>     the tabular view of one superstep, then its violations\n\
         \x20 nodelink <superstep> the node-link view of one superstep\n\
         \x20 vertex <id>          one vertex's history across supersteps\n\
         \x20 violations           the violations & exceptions view\n\
         \x20 repro <id> <ss>      generated reproducer test for one captured vertex\n\
         \x20 master               captured master contexts\n\
         \x20 analyze              run config lints (GA0006-GA0018) over meta.json\n\
         `--format json` prints the same bytes graft-server sends for the\n\
         matching endpoint (info, supersteps, show, nodelink, violations);\n\
         the text form of each view renders that same document."
    );
    ExitCode::FAILURE
}

/// Runs the command. A reader of stdout that goes away early, as `head`
/// does in `graft-cli trace dump <dir> | head -3`, makes the next `print!`
/// panic; that ends the command quietly and with success, for the reader
/// has what it asked for. Any other panic is reported as it always is.
fn main() -> ExitCode {
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !stdout_closed(info.payload()) {
            report(info)
        }
    }));
    match std::panic::catch_unwind(command) {
        Ok(code) => code,
        Err(payload) if stdout_closed(&*payload) => ExitCode::SUCCESS,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Whether a panic is `print!` failing on a stdout its reader closed.
fn stdout_closed(payload: &(dyn std::any::Any + Send)) -> bool {
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied());
    message.is_some_and(|message| {
        message.starts_with("failed printing to stdout") && message.contains("Broken pipe")
    })
}

fn command() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Commands without a trace directory; each prints its usage when
    // given no arguments.
    type Command = (&'static str, fn(&[String]) -> ExitCode, fn() -> ExitCode);
    let commands: [Command; 5] = [
        ("run", run_cmd::run, run_cmd::usage),
        ("profile", profile_cmd::run, profile_cmd::usage),
        ("serve", serve_cmd::run, serve_cmd::usage),
        ("watch", watch_cmd::run, watch_cmd::usage),
        ("trace", trace_cmd::run, trace_cmd::usage),
    ];
    let first = args.first().map(String::as_str);
    if let Some((_, run, usage)) = commands.iter().find(|(name, ..)| first == Some(*name)) {
        return if args.len() > 1 { run(&args[1..]) } else { usage() };
    }
    if first == Some("check-sched") {
        // No arguments means the full gate, so empty `rest` is valid.
        if args.get(1).map(String::as_str) == Some("--help") {
            return check_sched_cmd::usage();
        }
        return check_sched_cmd::run(&args[1..]);
    }

    // `--format json|text` may appear anywhere after the command.
    let json = match args.iter().position(|arg| arg == "--format") {
        Some(pos) => {
            let Some(format) = args.get(pos + 1).cloned() else {
                eprintln!("error: --format needs a value\n");
                return usage();
            };
            args.drain(pos..pos + 2);
            match format.as_str() {
                "json" => true,
                "text" => false,
                other => {
                    eprintln!("error: unknown format {other}\n");
                    return usage();
                }
            }
        }
        None => false,
    };
    let (dir, command) = match (args.first(), args.get(1)) {
        (Some(dir), Some(command)) => (dir.clone(), command.clone()),
        _ => return usage(),
    };

    // The trace directory on disk becomes the root of a LocalFs.
    let fs = match LocalFs::new(&dir) {
        Ok(fs) => Arc::new(fs),
        Err(e) => {
            eprintln!("cannot open {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let session = match UntypedSession::open(fs, "/") {
        Ok(session) => session,
        Err(e) => {
            eprintln!("cannot load traces from {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // In JSON mode the job id is the trace directory's basename — the
    // same id `graft-cli serve --trace-root <parent>` would route it as.
    let job_id = std::path::Path::new(&dir)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| dir.clone());
    // A view document: its wire line, or its text rendering.
    fn view<D: serde::Serialize>(json: bool, doc: &D, to_text: fn(&D) -> String) {
        print!("{}", if json { vj::to_line(doc) } else { to_text(doc) });
    }
    let superstep_arg = || args.get(2).and_then(|s| s.parse::<u64>().ok());

    match command.as_str() {
        "info" if json => print!("{}", vj::to_line(&vj::job_json(&job_id, &session))),
        "info" => info(&session),
        "supersteps" => view(json, &vj::supersteps_json(&session), vj::SuperstepsJson::to_text),
        // `show` is the server's tabular document with the server's
        // defaults (no query, 50 rows per page): page 1 in JSON, every
        // page then the superstep's violations in text.
        "show" => match superstep_arg() {
            Some(superstep) => {
                let page = |page| vj::tabular_json(&session, superstep, None, page, 50);
                let pages = if json { 1 } else { page(1).total_pages };
                for number in 1..=pages {
                    view(json, &page(number), vj::TabularJson::to_text);
                }
                if !json {
                    print!("{}", vj::violations_json(&session, Some(superstep)).to_text());
                }
            }
            None => return usage(),
        },
        "nodelink" => match superstep_arg() {
            Some(superstep) => {
                view(json, &vj::node_link_json(&session, superstep), vj::NodeLinkJson::to_text)
            }
            None => return usage(),
        },
        "vertex" => match args.get(2) {
            Some(id) => vertex(&session, id),
            None => return usage(),
        },
        "violations" => {
            view(json, &vj::violations_json(&session, None), vj::ViolationsJson::to_text)
        }
        "repro" => match (args.get(2), args.get(3).and_then(|s| s.parse().ok())) {
            (Some(id), Some(superstep)) => match vj::repro_source(&session, id, superstep) {
                Some(source) => print!("{source}"),
                None => {
                    eprintln!("vertex {id} was not captured in superstep {superstep}");
                    return ExitCode::FAILURE;
                }
            },
            _ => return usage(),
        },
        "master" => master(&session),
        "analyze" => return analyze(&session),
        _ => return usage(),
    }
    ExitCode::SUCCESS
}

fn analyze(session: &UntypedSession) -> ExitCode {
    if session.meta().facts.is_none() {
        println!(
            "meta.json has no config facts (trace written by an older graft); nothing to analyze"
        );
        return ExitCode::SUCCESS;
    }
    let report = graft_analyzer::analyze_meta(session.meta());
    print!("{}", report.to_text());
    println!(
        "\nnote: combiner algebra and message-order race checks need the compiled \
         computation;\nrun graft_analyzer::analyze_session against this trace from a test."
    );
    if report.errors().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn info(session: &UntypedSession) {
    let meta = session.meta();
    println!("computation : {}", meta.computation);
    if let Some(master) = &meta.master {
        println!("master      : {master}");
    }
    println!(
        "types       : Id={} VValue={} EValue={} Message={}",
        meta.value_types.0, meta.value_types.1, meta.value_types.2, meta.value_types.3
    );
    println!("workers     : {}", meta.num_workers);
    println!("format      : {:?}", meta.format());
    println!("debug config:");
    for line in &meta.config {
        println!("  - {line}");
    }
    match session.result() {
        Some(result) => {
            println!(
                "result      : {} supersteps, {} captures, {} violations, {} exceptions{}",
                result.supersteps_executed,
                result.captures,
                result.violations,
                result.exceptions,
                if result.capture_limit_hit { " (capture limit hit)" } else { "" },
            );
            match &result.error {
                Some(error) => println!("job FAILED  : {error}"),
                None => println!("job status  : success"),
            }
        }
        None => println!("result      : job still running or crashed before finalize"),
    }
}

fn vertex(session: &UntypedSession, id: &str) {
    let history = session.history(id);
    if history.is_empty() {
        println!("vertex {id} was never captured");
        return;
    }
    for trace in history {
        println!(
            "superstep {:>4}: {} -> {}  edges={} in={} out={} {}",
            trace.superstep(),
            trace.value_before(),
            trace.value_after(),
            trace.edges().len(),
            trace.incoming_count(),
            trace.outgoing_count(),
            if trace.halted_after() { "halted" } else { "active" },
        );
    }
}

fn master(session: &UntypedSession) {
    for trace in session.master_traces() {
        let aggregators: Vec<String> =
            trace.aggregators.iter().map(|(name, value)| format!("{name}={value}")).collect();
        println!(
            "superstep {:>4}: {}{}",
            trace.superstep,
            aggregators.join(" "),
            if trace.halted { "  [HALTED]" } else { "" },
        );
    }
}
