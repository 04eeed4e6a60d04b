//! End-to-end observability: a GraftRunner with an [`Obs`] attached must
//! export deterministic metric/event artifacts through the simulated DFS,
//! and a faulted run's event log must tell the recovery story — one
//! `recovery` point per rewind plus the `checkpoint.restore` span that
//! paid for it.

use std::sync::Arc;

use graft::{DebugConfig, GraftRun, GraftRunner};
use graft_algorithms::pagerank::PageRank;
use graft_dfs::{ClusterFs, ClusterFsConfig, FileSystem};
use graft_obs::{
    parse_jsonl, to_jsonl, Event, Obs, EVENTS_FILE, METRICS_JSON_FILE, METRICS_PROM_FILE,
};
use graft_pregel::{FaultPlan, Graph};

const TRACE_ROOT: &str = "/traces/obsrun";
/// Where the runner exports the Obs artifacts: `<trace_root>/obs`.
const OBS_DIR: &str = "/traces/obsrun/obs";

fn pr_graph(n: u64) -> Graph<u64, f64, ()> {
    let mut b = Graph::builder();
    for v in 0..n {
        b.add_vertex(v, 0.0).unwrap();
    }
    for v in 0..n {
        b.add_edge(v, (v + 1) % n, ()).unwrap();
        b.add_edge(v, (v * 7 + 3) % n, ()).unwrap();
    }
    b.build().unwrap()
}

/// Runs PageRank with a deterministic logical clock and returns the run,
/// the cluster holding the exported artifacts, and the Obs itself.
fn run_once(plan: FaultPlan) -> (GraftRun<PageRank>, ClusterFs, Arc<Obs>) {
    let cluster =
        ClusterFs::new(ClusterFsConfig { num_datanodes: 4, replication: 2, block_size: 512 });
    let obs = Obs::deterministic(1_000);
    let config = DebugConfig::<PageRank>::builder().capture_all_active(true).build();
    let run = GraftRunner::new(PageRank::new(8), config)
        .with_cluster(cluster.clone())
        .with_obs(Arc::clone(&obs))
        .num_workers(4)
        .checkpoint_every(2)
        .with_fault_plan(plan)
        .run(pr_graph(48), TRACE_ROOT)
        .unwrap();
    (run, cluster, obs)
}

fn artifact(cluster: &ClusterFs, name: &str) -> Vec<u8> {
    let fs: Arc<dyn FileSystem> = Arc::new(cluster.clone());
    fs.read_all(&format!("{OBS_DIR}/{name}")).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

fn events(cluster: &ClusterFs) -> Vec<Event> {
    let text = String::from_utf8(artifact(cluster, EVENTS_FILE)).unwrap();
    parse_jsonl(&text).expect("exported event log parses")
}

#[test]
fn identical_deterministic_runs_export_identical_bytes() {
    let (run_a, cluster_a, _) = run_once(FaultPlan::new());
    let (run_b, cluster_b, _) = run_once(FaultPlan::new());
    assert!(run_a.outcome.is_ok() && run_b.outcome.is_ok());

    for name in [EVENTS_FILE, METRICS_PROM_FILE, METRICS_JSON_FILE] {
        let a = artifact(&cluster_a, name);
        let b = artifact(&cluster_b, name);
        assert!(!a.is_empty(), "{name} must not be empty");
        assert_eq!(a, b, "{name} diverged between two identical deterministic runs");
    }

    // The exported log is a faithful JSON-lines round trip.
    let text = String::from_utf8(artifact(&cluster_a, EVENTS_FILE)).unwrap();
    let parsed = parse_jsonl(&text).unwrap();
    assert_eq!(to_jsonl(&parsed), text);

    // The clean run tells a complete story: a job span bracketing one
    // superstep span (with both phases inside) per executed superstep.
    let log = events(&cluster_a);
    let supersteps = run_a.outcome.as_ref().unwrap().stats.superstep_count() as usize;
    assert_eq!(log.iter().filter(|e| e.is_end("job")).count(), 1);
    assert_eq!(log.iter().filter(|e| e.is_end("superstep")).count(), supersteps);
    assert_eq!(log.iter().filter(|e| e.is_end("phase.compute")).count(), supersteps);
    assert_eq!(log.iter().filter(|e| e.is_end("phase.delivery")).count(), supersteps);
    assert!(log.iter().any(|e| e.is_end("checkpoint.write")), "checkpoints every 2 supersteps");
    assert!(log.iter().all(|e| !e.is_point("recovery")), "clean run must not recover");
}

#[test]
fn faulted_run_logs_one_recovery_point_per_rewind() {
    let (run, cluster, obs) = run_once("kill-worker:1@3".parse().unwrap());
    let outcome = run.outcome.as_ref().unwrap();
    assert!(outcome.stats.recoveries > 0, "fault plan never fired");

    let log = events(&cluster);
    let recovery_points = log.iter().filter(|e| e.is_point("recovery")).count();
    assert_eq!(recovery_points as u64, outcome.stats.recoveries, "one recovery point per rewind");
    // Every rewind pays for a checkpoint restore, recorded as a full span.
    let restores = log.iter().filter(|e| e.is_end("checkpoint.restore")).count();
    assert_eq!(restores as u64, outcome.stats.recoveries);
    assert!(
        log.iter().filter(|e| e.is_end("checkpoint.restore")).all(|e| e.dur.is_some()),
        "restore spans carry a duration"
    );

    // The registry agrees with the event log.
    assert_eq!(obs.registry().counter_total("pregel_recoveries_total"), outcome.stats.recoveries);
}

/// [`run_once`] under a chosen recovery mode, optionally streaming live
/// snapshots.
fn run_job(
    plan: FaultPlan,
    mode: graft_pregel::RecoveryMode,
    live: bool,
) -> (GraftRun<PageRank>, ClusterFs) {
    let cluster =
        ClusterFs::new(ClusterFsConfig { num_datanodes: 4, replication: 2, block_size: 512 });
    let config = DebugConfig::<PageRank>::builder().capture_all_active(true).build();
    let run = GraftRunner::new(PageRank::new(8), config)
        .with_cluster(cluster.clone())
        .with_obs(Obs::deterministic(1_000))
        .live_flush(live)
        .num_workers(4)
        .checkpoint_every(2)
        .recovery_mode(mode)
        .with_fault_plan(plan)
        .run(pr_graph(48), TRACE_ROOT)
        .unwrap();
    (run, cluster)
}

#[test]
fn profile_live_snapshot_and_stats_agree_on_recoveries_under_both_modes() {
    for mode in [graft_pregel::RecoveryMode::Restart, graft_pregel::RecoveryMode::LogReplay] {
        let (run, cluster) = run_job("kill-worker:1@3".parse().unwrap(), mode, true);
        let recoveries = run.outcome.as_ref().unwrap().stats.recoveries;
        assert_eq!(recoveries, 1, "{mode:?}: the kill fires once");
        let profile = graft_obs::Profile::build(&events(&cluster), None).unwrap();
        let fs: Arc<dyn FileSystem> = Arc::new(cluster.clone());
        let snapshot = graft_obs::latest_snapshot(fs.as_ref(), OBS_DIR).unwrap().unwrap();
        assert_eq!(profile.recoveries, recoveries, "{mode:?}: profile");
        assert_eq!(snapshot.recoveries, recoveries, "{mode:?}: live snapshot");
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(job/artifact, length, FNV-1a)` of the three obs artifacts.
fn artifact_checksums(job: &str, cluster: &ClusterFs) -> Vec<(String, usize, u64)> {
    [EVENTS_FILE, METRICS_PROM_FILE, METRICS_JSON_FILE]
        .into_iter()
        .map(|name| {
            let bytes = artifact(cluster, name);
            (format!("{job}/{name}"), bytes.len(), fnv1a(&bytes))
        })
        .collect()
}

/// Pins the obs artifacts' bytes, not just their run-to-run equality: a
/// change that moves, adds or drops one clock reading shifts every later
/// timestamp and fails here.
#[test]
fn obs_artifacts_match_the_golden_bytes() {
    let (_, clean, _) = run_once(FaultPlan::new());
    let (_, restart, _) = run_once("kill-worker:1@3".parse().unwrap());
    let (_, replay) =
        run_job("kill-worker:1@3".parse().unwrap(), graft_pregel::RecoveryMode::LogReplay, true);
    let mut actual = artifact_checksums("clean", &clean);
    actual.extend(artifact_checksums("restart", &restart));
    actual.extend(artifact_checksums("log-replay", &replay));
    let fs: Arc<dyn FileSystem> = Arc::new(replay.clone());
    let (_, last) = graft_obs::snapshot_files(fs.as_ref(), OBS_DIR).unwrap().pop().unwrap();
    let bytes = fs.read_all(&last).unwrap();
    actual.push(("log-replay/live/terminal".to_string(), bytes.len(), fnv1a(&bytes)));

    let golden: &[(&str, usize, u64)] = &[
        ("clean/events.jsonl", 12555, 0xf02e2efdc07953db),
        ("clean/metrics.prom", 19167, 0xa7792d13345b498e),
        ("clean/metrics.json", 24117, 0x036f38ab13318442),
        ("restart/events.jsonl", 14460, 0x639431cf12257af1),
        ("restart/metrics.prom", 21087, 0xdf517692165a6711),
        ("restart/metrics.json", 25754, 0x4bc4dcb6386da239),
        ("log-replay/events.jsonl", 14024, 0x9153b461a48b1ab1),
        ("log-replay/metrics.prom", 21283, 0x07d4e7887356037d),
        ("log-replay/metrics.json", 26254, 0xca51df28164e12b4),
        ("log-replay/live/terminal", 13974, 0x2c054165f179a0b2),
    ];
    let rendered: Vec<String> = actual
        .iter()
        .map(|(path, len, sum)| format!("(\"{path}\", {len}, {sum:#018x}),"))
        .collect();
    let matches = actual.len() == golden.len()
        && actual.iter().zip(golden).all(|(a, g)| (a.0.as_str(), a.1, a.2) == *g);
    assert!(matches, "golden bytes moved; this run gave:\n{}", rendered.join("\n"));
}
