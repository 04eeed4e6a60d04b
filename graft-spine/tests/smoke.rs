//! The `--smoke` size tier: all eight stages of all five workloads, and
//! the traced run with its layer replays, in a few seconds.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use graft_spine::metrics::{END_TO_END, PER_LAYER};
use graft_spine::pipeline::{run, RunArgs, RunResult};
use graft_spine::report::{golden_for, result_line, run_document, write_files};
use graft_spine::spans::{self_times, top_level_coverage_pct};
use graft_spine::workloads::{by_name, WORKLOADS};

/// Tests run on parallel threads: each run gets a directory of its own.
static RUNS: AtomicU32 = AtomicU32::new(0);

fn smoke(workload: &str, seed: u64, trace: bool) -> (RunArgs, RunResult) {
    let workload = by_name(workload).expect("workload exists");
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}",
        workload.name,
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&work_dir).expect("work dir");
    // Zero seconds: the minimum number of rounds and nothing more.
    let args = RunArgs { workload, seed, seconds: 0.0, trace, smoke: true, work_dir };
    let result = run(&args, golden_for(workload.name, true, seed));
    let leftovers = std::fs::read_dir(&args.work_dir).expect("work dir survives").count();
    assert_eq!(leftovers, 0, "{}: stores clean up after themselves", workload.name);
    (args, result)
}

#[test]
fn every_workload_runs_all_stages_and_passes_its_checks() {
    for workload in &WORKLOADS {
        let (args, result) = smoke(workload.name, 1, false);
        assert_eq!(result.ops.failed, 0, "{}: {:?}", workload.name, result.ops.failures);
        assert!(result.ops.attempted > 100, "{}: checks were made", workload.name);
        assert!(golden_for(workload.name, true, 1).is_some(), "{}: golden exists", workload.name);
        for metric in &END_TO_END {
            let value = result.values[metric.name];
            assert!(
                value.is_finite() && value > 0.0,
                "{} {} = {value}",
                workload.name,
                metric.name
            );
        }
        // Every stage left samples behind.
        for stage in [
            "setup_s",
            "plain_job_s",
            "debug_job_s",
            "open_ms",
            "first_view_ms",
            "view_p50_ms",
            "view_p99_ms",
            "nodelink_ms",
            "repro_ms",
        ] {
            assert!(!result.samples[stage].is_empty(), "{}: {stage} ran", workload.name);
        }
        // One value per round for the read stages, one per pair for the jobs.
        assert_eq!(result.samples["view_p99_ms"].len(), result.rounds as usize);
        assert_eq!(result.samples["debug_job_s"].len(), result.pairs as usize);

        let line: serde_json::Value = serde_json::from_str(&result_line(&args, &result)).unwrap();
        let keys: Vec<&String> = line.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line["metrics"].as_object().unwrap().len(), END_TO_END.len());
        assert_eq!(run_document(&args, &result)["ops_failed"], 0u64);
    }
}

#[test]
fn traced_runs_report_every_layer_and_cover_the_wall_clock() {
    for workload in &WORKLOADS {
        let (args, result) = smoke(workload.name, 2, true);
        assert_eq!(result.ops.failed, 0, "{}: {:?}", workload.name, result.ops.failures);
        for metric in &PER_LAYER {
            let value = result.values.get(metric.name).copied();
            assert!(
                value.is_some_and(f64::is_finite),
                "{} {} = {value:?}",
                workload.name,
                metric.name
            );
        }
        assert_eq!(result.values["codec.roundtrip_mismatches"], 0.0);
        assert_eq!(result.values["server.responses_non200"], 0.0);
        assert!(result.values["codec.frames"] > 0.0);
        assert!(result.values["dfs.bytes_read"] == result.values["dfs.bytes_written"]);

        let spans = result.recorder.spans();
        let coverage = top_level_coverage_pct(spans, result.wall_ns);
        assert!(coverage >= 95.0, "{}: top-level spans cover {coverage:.1}%", workload.name);
        for (span, self_ns) in spans.iter().zip(self_times(spans)) {
            assert!(self_ns <= span.end_ns - span.start_ns, "self time within the span");
        }
        for name in ["S0.setup", "S1.plain_job", "S2.debug_job", "S3.open", "S4.first_view"] {
            assert!(spans.iter().any(|s| s.name == name), "{}: span {name}", workload.name);
        }
        for name in ["S5.view_mix", "S6.nodelink", "S7.repro", "L.codec_replay", "L.dfs_replay"] {
            assert!(spans.iter().any(|s| s.name == name), "{}: span {name}", workload.name);
        }

        let out = args.work_dir.join("out");
        write_files(&args, &result, &out).expect("results are written");
        for file in [".layers.json", ".trace.json"] {
            let path = out.join(format!("{}{file}", workload.name));
            let text = std::fs::read_to_string(&path).expect("file exists");
            serde_json::from_str::<serde_json::Value>(&text).expect("valid JSON");
        }
        std::fs::remove_dir_all(&out).expect("clean up");
    }
}

#[test]
fn robustness_workload_recovers_spills_and_checkpoints() {
    let (_, result) = smoke("ft_ooc", 1, true);
    for counter in ["pregel.recoveries", "pregel.checkpoint_bytes", "pregel.spill_bytes"] {
        assert!(result.values[counter] > 0.0, "{counter} = {}", result.values[counter]);
    }
    let (_, result) = smoke("pr_dense", 1, true);
    for counter in ["pregel.recoveries", "pregel.checkpoint_bytes", "pregel.spill_bytes"] {
        assert_eq!(result.values[counter], 0.0, "{counter} stays zero elsewhere");
    }
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let (_, first) = smoke("pr_dense", 3, false);
    let (_, again) = smoke("pr_dense", 3, false);
    let (_, other) = smoke("pr_dense", 4, false);
    assert_eq!(first.checksum, again.checksum);
    assert_eq!(first.values["trace_bytes"], again.values["trace_bytes"]);
    assert_ne!(first.checksum, other.checksum);
    // gc_dcfull freezes its graph and what is captured.
    let (_, first) = smoke("gc_dcfull", 3, false);
    let (_, other) = smoke("gc_dcfull", 4, false);
    assert_eq!(first.checksum, other.checksum);
    assert_eq!(first.values["trace_bytes"], other.values["trace_bytes"]);
}
