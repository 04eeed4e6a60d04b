//! What a run leaves behind: the metric table on stdout, the
//! `<workload>.json` document, the `<workload>.trace.json` spans, and
//! the one-line JSON result the acceptance driver reads.

use std::path::Path;

use serde_json::{Map, Number, Value};

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::pipeline::{RunArgs, RunResult};
use crate::spans::trace_document;
use crate::stats::quartiles;

/// Golden result checksums: `workload tier seed checksum` per line.
const GOLDEN: &str = include_str!("../golden/checksums.txt");

/// The committed checksum for this input, if there is one (seeds 1 and
/// 2 of each tier); other seeds are only checked plain-against-debug.
pub fn golden_for(workload: &str, smoke: bool, seed: u64) -> Option<u64> {
    let tier = if smoke { "smoke" } else { "full" };
    GOLDEN.lines().filter(|line| !line.starts_with('#')).find_map(|line| {
        let mut fields = line.split_whitespace();
        let matches = fields.next() == Some(workload)
            && fields.next() == Some(tier)
            && fields.next().and_then(|s| s.parse().ok()) == Some(seed);
        matches.then(|| fields.next().and_then(|hex| u64::from_str_radix(hex, 16).ok())).flatten()
    })
}

fn float(v: f64) -> Value {
    Value::Number(Number::F64(v))
}

fn uint(v: u64) -> Value {
    Value::Number(Number::U64(v))
}

fn text(v: impl Into<String>) -> Value {
    Value::String(v.into())
}

fn first_line(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()?.lines().next().map(str::to_string)
}

/// Host facts: what the numbers were measured on.
fn host_facts(args: &RunArgs) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".to_string());
    let mut host = Map::new();
    host.insert(
        "nproc".into(),
        uint(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
    );
    host.insert("cpu_model".into(), text(cpu));
    // `run.sh` pins the run to one CPU; this is what the kernel granted.
    let allowed = std::fs::read_to_string("/proc/self/status").ok().and_then(|status| {
        status
            .lines()
            .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
            .map(|list| list.trim().to_string())
    });
    host.insert("cpus_allowed".into(), text(allowed.unwrap_or_else(|| "unknown".to_string())));
    host.insert(
        "kernel".into(),
        text(first_line("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".to_string())),
    );
    // `run.sh` fills these in; a bare binary invocation leaves them unknown.
    host.insert("rustc".into(), text(env("SPINE_RUSTC")));
    host.insert("git_commit".into(), text(env("SPINE_COMMIT")));
    host.insert("trace_store".into(), text(args.workload.store.label()));
    host.insert("work_dir".into(), text(args.work_dir.display().to_string()));
    Value::Object(host)
}

/// The samples a reported value was computed from.
fn samples_key(metric: &str) -> &str {
    match metric {
        "core.session_open_ms" => "open_ms",
        "obs.on_added_s" | "obs.on_added_pct" => "obs.debug_job_s",
        other => other,
    }
}

/// `(name, unit)` of every metric this run reports, in table order.
fn reported(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

fn metric_entries(result: &RunResult, trace: bool, detail: bool) -> Map {
    let mut metrics = Map::new();
    for (name, unit) in reported(trace) {
        let mut entry = Map::new();
        entry.insert("value".into(), float(result.values[name]));
        entry.insert("unit".into(), text(unit));
        if detail {
            if let Some(samples) = result.samples.get(samples_key(name)) {
                entry.insert("n".into(), uint(samples.len() as u64));
                // Quartiles only where the value comes from samples of
                // its own name (their median, or their minimum).
                if samples_key(name) == name {
                    let (q1, q3) = quartiles(samples);
                    entry.insert("q1".into(), float(q1));
                    entry.insert("q3".into(), float(q3));
                }
            }
        }
        metrics.insert(name.to_string(), Value::Object(entry));
    }
    metrics
}

/// The `<workload>.json` document.
pub fn run_document(args: &RunArgs, result: &RunResult) -> Value {
    let mut doc = Map::new();
    doc.insert("workload".into(), text(args.workload.name));
    doc.insert("why".into(), text(args.workload.why));
    doc.insert("seed".into(), uint(args.seed));
    doc.insert("tier".into(), text(if args.smoke { "smoke" } else { "full" }));
    doc.insert("trace".into(), Value::Bool(args.trace));
    doc.insert("seconds".into(), float(args.seconds));
    doc.insert("pairs".into(), uint(u64::from(result.pairs)));
    doc.insert("read_rounds".into(), uint(u64::from(result.rounds)));
    doc.insert("wall_s".into(), float(result.wall_ns as f64 / 1e9));
    doc.insert("ops_attempted".into(), uint(result.ops.attempted));
    doc.insert("ops_failed".into(), uint(result.ops.failed));
    doc.insert(
        "failures".into(),
        Value::Array(result.ops.failures.iter().map(|f| text(f.as_str())).collect()),
    );
    doc.insert("checksum".into(), text(format!("{:016x}", result.checksum)));
    doc.insert("host".into(), host_facts(args));
    doc.insert("metrics".into(), Value::Object(metric_entries(result, args.trace, true)));
    Value::Object(doc)
}

/// Every metric by name, with its unit.
pub fn print_table(args: &RunArgs, result: &RunResult) {
    println!(
        "graft-spine {} seed={} tier={} trace={} pairs={} read_rounds={} wall={:.1}s ops={}/{} failed",
        args.workload.name,
        args.seed,
        if args.smoke { "smoke" } else { "full" },
        u8::from(args.trace),
        result.pairs,
        result.rounds,
        result.wall_ns as f64 / 1e9,
        result.ops.failed,
        result.ops.attempted,
    );
    for (name, unit) in reported(args.trace) {
        let spread = result.samples.get(samples_key(name)).map_or(String::new(), |samples| {
            if samples_key(name) != name {
                return format!("  n={}", samples.len());
            }
            let (q1, q3) = quartiles(samples);
            format!("  n={} q1={q1:.6} q3={q3:.6}", samples.len())
        });
        println!("  {name:<32} {:>16.6} {unit:<6}{spread}", result.values[name]);
    }
    for failure in &result.ops.failures {
        println!("  FAILED: {failure}");
    }
}

/// Writes `<workload>.json` and, for a traced run, `<workload>.trace.json`.
pub fn write_files(args: &RunArgs, result: &RunResult, out_dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let suffix = if args.trace { ".layers" } else { "" };
    let name = format!("{}{suffix}.json", args.workload.name);
    let doc = serde_json::to_string_pretty(&run_document(args, result))
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(out_dir.join(name), doc + "\n")?;
    if args.trace {
        let spans = trace_document(result.recorder.spans(), result.wall_ns);
        std::fs::write(
            out_dir.join(format!("{}.trace.json", args.workload.name)),
            spans.to_string() + "\n",
        )?;
    }
    Ok(())
}

/// The acceptance driver's result line: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn result_line(args: &RunArgs, result: &RunResult) -> String {
    let mut line = Map::new();
    line.insert("correct".into(), Value::Bool(result.ops.failed == 0));
    line.insert("attempted".into(), uint(result.ops.attempted));
    line.insert("failed".into(), uint(result.ops.failed));
    line.insert("metrics".into(), Value::Object(metric_entries(result, args.trace, false)));
    Value::Object(line).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_lookup_matches_workload_tier_and_seed() {
        for line in GOLDEN.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields.len(), 4, "malformed golden line {line:?}");
            let seed: u64 = fields[2].parse().expect("seed");
            let expect = u64::from_str_radix(fields[3], 16).expect("hex checksum");
            assert_eq!(golden_for(fields[0], fields[1] == "smoke", seed), Some(expect));
        }
        assert_eq!(golden_for("pr_dense", false, 987_654), None);
        assert_eq!(golden_for("no_such_workload", false, 1), None);
    }
}
