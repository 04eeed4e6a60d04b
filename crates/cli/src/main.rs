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
//! graft-cli <trace-dir> vertex <id>
//! graft-cli <trace-dir> violations
//! graft-cli <trace-dir> master
//! graft-cli <trace-dir> analyze
//! graft-cli trace dump <trace-dir>
//! graft-cli trace convert <src> <dst> --to json|binary
//! ```
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
         \x20 show <superstep>     the tabular view of one superstep\n\
         \x20 nodelink <superstep> the node-link view document (always JSON)\n\
         \x20 vertex <id>          one vertex's history across supersteps\n\
         \x20 violations           the violations & exceptions view\n\
         \x20 repro <id> <ss>      generated reproducer test for one captured vertex\n\
         \x20 master               captured master contexts\n\
         \x20 analyze              run config lints (GA0006-GA0018) over meta.json\n\
         `--format json` prints the same bytes graft-server sends for the\n\
         matching endpoint (info, supersteps, show, violations)."
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("run") {
        return match args.get(1) {
            Some(_) => run_cmd::run(&args[1..]),
            None => run_cmd::usage(),
        };
    }
    if args.first().map(String::as_str) == Some("profile") {
        return match args.get(1) {
            Some(_) => profile_cmd::run(&args[1..]),
            None => profile_cmd::usage(),
        };
    }
    if args.first().map(String::as_str) == Some("serve") {
        return match args.get(1) {
            Some(_) => serve_cmd::run(&args[1..]),
            None => serve_cmd::usage(),
        };
    }
    if args.first().map(String::as_str) == Some("watch") {
        return match args.get(1) {
            Some(_) => watch_cmd::run(&args[1..]),
            None => watch_cmd::usage(),
        };
    }
    if args.first().map(String::as_str) == Some("trace") {
        return match args.get(1) {
            Some(_) => trace_cmd::run(&args[1..]),
            None => trace_cmd::usage(),
        };
    }
    if args.first().map(String::as_str) == Some("check-sched") {
        // No arguments means the full gate, so empty `rest` is valid.
        if args.get(1).map(String::as_str) == Some("--help") {
            return check_sched_cmd::usage();
        }
        return check_sched_cmd::run(&args[1..]);
    }

    // `--format json|text` may appear anywhere after the command.
    let json = match args.windows(2).position(|w| w[0] == "--format") {
        Some(pos) => {
            let format = args[pos + 1].clone();
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

    match command.as_str() {
        "info" if json => print!("{}", vj::to_line(&vj::job_json(&job_id, &session))),
        "info" => info(&session),
        "supersteps" if json => print!("{}", vj::to_line(&vj::supersteps_json(&session))),
        "supersteps" => supersteps(&session),
        "show" => match args.get(2).and_then(|s| s.parse().ok()) {
            // JSON `show` is the server's tabular document with the
            // server's defaults (no query, page 1, 50 rows per page).
            Some(superstep) if json => {
                print!("{}", vj::to_line(&vj::tabular_json(&session, superstep, None, 1, 50)))
            }
            Some(superstep) => show(&session, superstep),
            None => return usage(),
        },
        "nodelink" => match args.get(2).and_then(|s| s.parse().ok()) {
            Some(superstep) => {
                print!("{}", vj::to_line(&vj::node_link_json(&session, superstep)))
            }
            None => return usage(),
        },
        "vertex" => match args.get(2) {
            Some(id) => vertex(&session, id),
            None => return usage(),
        },
        "violations" if json => print!("{}", vj::to_line(&vj::violations_json(&session, None))),
        "violations" => violations(&session),
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

fn supersteps(session: &UntypedSession) {
    println!("superstep  captures  M    V    E");
    for superstep in session.supersteps() {
        let ind = session.indicators(superstep);
        let mark = |red: bool| if red { "RED " } else { "ok  " };
        println!(
            "{superstep:>9}  {:>8}  {}  {}  {}",
            session.count_at(superstep),
            mark(ind.message_violation),
            mark(ind.value_violation),
            mark(ind.exception),
        );
    }
}

fn show(session: &UntypedSession, superstep: u64) {
    let traces = session.captured_at(superstep);
    println!("superstep {superstep}: {} capture(s)", traces.len());
    for trace in traces {
        println!(
            "  vertex {:<12} {} -> {}  in={} out={} {}  [{}]",
            trace.vertex(),
            trace.value_before(),
            trace.value_after(),
            trace.incoming_count(),
            trace.outgoing_count(),
            if trace.halted_after() { "halted" } else { "active" },
            trace.reasons().join(","),
        );
        for violation in trace.violations() {
            let (kind, detail) = (violation.kind, &violation.detail);
            match &violation.target {
                Some(target) => println!("    violation {kind:?}: {detail} -> {target}"),
                None => println!("    violation {kind:?}: {detail}"),
            }
        }
        if let Some(exception) = trace.exception() {
            println!("    exception: {}", exception.message);
        }
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

fn violations(session: &UntypedSession) {
    let offenders = session.violations();
    println!("{} offending capture(s)", offenders.len());
    for trace in offenders {
        for violation in trace.violations() {
            println!(
                "superstep {:>4}  vertex {:<12} {:?}: {}{}",
                trace.superstep(),
                trace.vertex(),
                violation.kind,
                violation.detail,
                violation.target.as_ref().map(|t| format!(" -> {t}")).unwrap_or_default(),
            );
        }
        if let Some(exception) = trace.exception() {
            println!(
                "superstep {:>4}  vertex {:<12} exception: {}",
                trace.superstep(),
                trace.vertex(),
                exception.message,
            );
            if let Some(backtrace) = &exception.backtrace {
                for line in backtrace.lines().take(8) {
                    println!("    {line}");
                }
            }
        }
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
