//! Static validation of a [`ConfigFacts`] summary (GA0006–GA0013,
//! GA0015–GA0018).
//!
//! These lints need no computation and no traces — just the config
//! summary the runner writes into `meta.json` — so they run both from
//! [`crate::analyze_session`] and untyped from the CLI.

use graft::{ConfigFacts, SuperstepFilter};
use graft_pregel::{Fault, FaultPlan};

use crate::{
    Finding, GA0006, GA0007, GA0008, GA0009, GA0010, GA0011, GA0012, GA0013, GA0015, GA0016,
    GA0017, GA0018,
};

/// Runs every configuration lint over `facts`.
pub fn check_config(facts: &ConfigFacts) -> Vec<Finding> {
    let mut findings = Vec::new();

    let filter = &facts.superstep_filter;
    if filter.selects_none() {
        let detail = match filter {
            SuperstepFilter::Set(_) => {
                "superstep filter is an empty Set; no superstep is ever captured".to_string()
            }
            SuperstepFilter::Range { from, to } => format!(
                "superstep filter Range {{ from: {from}, to: {to} }} is inverted; \
                 no superstep is ever captured"
            ),
            _ => unreachable!("All/After always select something"),
        };
        findings.push(Finding::global(&GA0006, detail));
    } else if let Some(max) = facts.max_supersteps {
        // The job executes supersteps 0..max; anything the filter selects
        // at or past `max` is unreachable.
        match filter {
            SuperstepFilter::Set(set) => {
                let beyond: Vec<u64> = set.iter().copied().filter(|s| *s >= max).collect();
                if !beyond.is_empty() {
                    let all = beyond.len() == set.len();
                    let mut finding = Finding::global(
                        &GA0007,
                        format!(
                            "{} of {} supersteps in the Set filter are at or beyond the \
                             job limit of {max}{}",
                            beyond.len(),
                            set.len(),
                            if all { "; the filter can never fire" } else { "" }
                        ),
                    );
                    finding.evidence.push(format!("unreachable supersteps: {beyond:?}"));
                    findings.push(finding);
                }
            }
            _ => {
                if filter.earliest().is_some_and(|from| from >= max) {
                    findings.push(Finding::global(
                        &GA0007,
                        format!(
                            "superstep filter {filter:?} starts at or beyond the job \
                             limit of {max}; the filter can never fire"
                        ),
                    ));
                }
            }
        }
    }

    if facts.capture_neighbors && facts.num_capture_ids == 0 && facts.num_random == 0 {
        findings.push(Finding::global(
            &GA0008,
            "capture_neighbors is set but no vertex ids are listed and the random \
             sample is empty; the neighbor rule can never fire"
                .to_string(),
        ));
    }

    if facts.max_captures == 0 {
        findings.push(Finding::global(
            &GA0009,
            "max_captures is 0; the safety net drops every capture".to_string(),
        ));
    }

    if facts.num_capture_ids == 0
        && facts.num_random == 0
        && !facts.capture_all_active
        && !facts.has_vertex_value_constraint
        && !facts.has_message_constraint
        && !facts.catch_exceptions
    {
        findings.push(Finding::global(
            &GA0010,
            "no capture rule is configured (no ids, no random sample, no capture-all, \
             no constraints, exceptions not caught); the run cannot capture anything"
                .to_string(),
        ));
    }

    // GA0013: catch_exceptions alone is a valid config (GA0010 does not
    // fire) but on a healthy run it records nothing — every view of a
    // debug session or server over the traces comes up empty. Skipped
    // when max_captures == 0 because GA0009 already covers that.
    if facts.num_capture_ids == 0
        && facts.num_random == 0
        && !facts.capture_all_active
        && !facts.has_vertex_value_constraint
        && !facts.has_message_constraint
        && facts.catch_exceptions
        && facts.max_captures > 0
    {
        findings.push(Finding::global(
            &GA0013,
            "the only capture rule is catch_exceptions; unless the run raises an \
             exception it captures no vertices and no violations, so every debug \
             view will be empty — add capture ids, a sample, capture_all_active, \
             or a constraint"
                .to_string(),
        ));
    }

    // GA0012: capture-all with a filter that selects every superstep the
    // job can reach serializes every vertex context at every superstep —
    // the configuration behind the paper's worst overhead numbers. Only
    // meaningful when captures actually happen (GA0009 covers the
    // max_captures == 0 case).
    if facts.capture_all_active && facts.max_captures > 0 {
        let covers_every_superstep = match filter {
            SuperstepFilter::All => true,
            SuperstepFilter::After(from) => *from == 0,
            SuperstepFilter::Range { from, to } => {
                *from == 0 && facts.max_supersteps.is_some_and(|max| *to >= max.saturating_sub(1))
            }
            SuperstepFilter::Set(_) => false,
        };
        if covers_every_superstep {
            findings.push(Finding::global(
                &GA0012,
                "capture_all_active with an unbounded superstep filter captures every \
                 vertex at every superstep — the maximal-overhead configuration; bound \
                 the filter with supersteps(...) or capture ids/samples instead"
                    .to_string(),
            ));
        }
    }

    // GA0015: a fault plan aiming at a worker id the job does not have.
    // Workers are indexed 0..num_workers, so any fault naming an id at or
    // beyond that count waits forever — the fault-injection test passes
    // while injecting nothing. The spec string in meta.json is the
    // runner's own `Display` rendering, so a parse failure here means a
    // hand-edited meta and is ignored rather than guessed at.
    if let (Some(spec), Some(num_workers)) = (&facts.fault_plan, facts.num_workers) {
        if let Ok(plan) = FaultPlan::parse(spec) {
            let unreachable: Vec<&Fault> = plan
                .faults()
                .iter()
                .filter(|f| match f {
                    Fault::KillWorker { worker, .. } => *worker >= num_workers,
                    Fault::ComputePanic { worker: Some(w), .. } => *w >= num_workers,
                    Fault::ComputePanic { worker: None, .. } | Fault::KillDatanode { .. } => false,
                })
                .collect();
            if !unreachable.is_empty() {
                let mut finding = Finding::global(
                    &GA0015,
                    format!(
                        "{} fault(s) in the plan target worker ids at or beyond the \
                         configured worker count of {num_workers}; they can never fire",
                        unreachable.len()
                    ),
                );
                finding
                    .evidence
                    .extend(unreachable.iter().map(|f| format!("unreachable fault: {f}")));
                findings.push(finding);
            }
        }
    }

    if let Some(every) = facts.checkpoint_every {
        if every == 0 {
            findings.push(Finding::global(
                &GA0011,
                "checkpoint interval is 0; checkpointing is configured but never fires, \
                 so any worker failure is fatal"
                    .to_string(),
            ));
        } else if let Some(max) = facts.max_supersteps {
            if every >= max {
                findings.push(Finding::global(
                    &GA0011,
                    format!(
                        "checkpoint interval {every} is at least the superstep limit {max}; \
                         only the superstep-0 checkpoint is ever written, so every recovery \
                         replays the whole job"
                    ),
                ));
            }
        }
    }

    // GA0016: confined log-replay recovery only ever pays off when a
    // checkpoint past superstep 0 can commit — the replay window starts at
    // the last checkpoint. With checkpointing off, at interval 0, or at an
    // interval the job never reaches, the engine logs every message batch
    // for nothing and every worker failure still takes the full-restart
    // path (or is fatal outright).
    if facts.recovery_mode.as_deref() == Some("log-replay") {
        let useless = match facts.checkpoint_every {
            None | Some(0) => true,
            Some(every) => facts.max_supersteps.is_some_and(|max| every >= max),
        };
        if useless {
            let why = match facts.checkpoint_every {
                None => "checkpointing is not enabled".to_string(),
                Some(0) => "the checkpoint interval is 0".to_string(),
                Some(every) => format!(
                    "the checkpoint interval {every} is at least the superstep limit {}",
                    facts.max_supersteps.unwrap_or(0)
                ),
            };
            findings.push(Finding::global(
                &GA0016,
                format!(
                    "recovery mode is log-replay but {why}; message logging pays its \
                     overhead while no failure can be confined — enable a checkpoint \
                     interval below the superstep limit or switch to restart recovery"
                ),
            ));
        }
    }

    // GA0017: live flushing is an obs feature — snapshots, watermarks,
    // and the event-log tail all stream *out of* the obs handle. Asking
    // for it while no handle is attached silently produces no live
    // directory at all, and the monitoring client polls an empty job
    // forever. Both fields come from the runner; old meta.json files
    // without them are not judged.
    if facts.live_flush == Some(true) && facts.obs_enabled == Some(false) {
        findings.push(Finding::global(
            &GA0017,
            "live_flush is enabled but no observability handle is attached; the run \
             emits no events, snapshots, or metrics, so `serve --follow` and `watch` \
             see nothing — attach one with GraftRunner::with_obs"
                .to_string(),
        ));
    }

    // GA0018: the out-of-core store guarantees progress under any budget,
    // but a budget smaller than the largest single partition means *every*
    // pin is a counted overrun: no two partitions are ever resident
    // together, so workers serialize behind the disk and the budget caps
    // nothing it was meant to cap. The runner records the estimate only
    // when a budget is set; old meta.json files without either field are
    // not judged.
    if let (Some(budget), Some(largest)) = (facts.memory_budget, facts.est_max_partition_bytes) {
        if budget < largest {
            findings.push(Finding::global(
                &GA0018,
                format!(
                    "memory budget of {budget} bytes is below the estimated footprint \
                     of the largest partition ({largest} bytes); every partition pin \
                     overruns the budget and execution degrades to one partition at \
                     a time — raise the budget or increase the worker count to \
                     shrink partitions"
                ),
            ));
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft::{DebugConfig, SuperstepFilter};
    use graft_pregel::{Computation, ContextOf, VertexHandleOf};

    struct Dummy;
    impl Computation for Dummy {
        type Id = u64;
        type VValue = i64;
        type EValue = ();
        type Message = i64;
        fn compute(
            &self,
            _v: &mut VertexHandleOf<'_, Self>,
            _m: &[i64],
            _c: &mut ContextOf<'_, Self>,
        ) {
        }
    }

    fn ids(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.lint.id).collect()
    }

    #[test]
    fn healthy_config_is_clean() {
        // Capture-all bounded to a superstep window: the recommended shape.
        let facts = DebugConfig::<Dummy>::builder()
            .capture_all_active(true)
            .supersteps(SuperstepFilter::Range { from: 0, to: 9 })
            .build()
            .facts();
        assert!(check_config(&facts).is_empty());
    }

    #[test]
    fn empty_set_is_ga0006() {
        let facts = DebugConfig::<Dummy>::builder()
            .capture_all_active(true)
            .supersteps(SuperstepFilter::set([]))
            .build()
            .facts();
        assert_eq!(ids(&check_config(&facts)), vec!["GA0006"]);
    }

    #[test]
    fn inverted_range_is_ga0006() {
        let facts = DebugConfig::<Dummy>::builder()
            .capture_all_active(true)
            .supersteps(SuperstepFilter::Range { from: 9, to: 3 })
            .build()
            .facts();
        assert_eq!(ids(&check_config(&facts)), vec!["GA0006"]);
    }

    #[test]
    fn set_beyond_job_limit_is_ga0007() {
        let mut facts = DebugConfig::<Dummy>::builder()
            .capture_all_active(true)
            .supersteps(SuperstepFilter::set([2, 50, 80]))
            .build()
            .facts();
        facts.max_supersteps = Some(30);
        let findings = check_config(&facts);
        assert_eq!(ids(&findings), vec!["GA0007"]);
        assert!(findings[0].detail.contains("2 of 3"));
        // Within the horizon: clean.
        facts.max_supersteps = Some(100);
        assert!(check_config(&facts).is_empty());
    }

    #[test]
    fn after_beyond_job_limit_is_ga0007() {
        let mut facts = DebugConfig::<Dummy>::builder()
            .capture_all_active(true)
            .supersteps(SuperstepFilter::After(500))
            .build()
            .facts();
        facts.max_supersteps = Some(100);
        assert_eq!(ids(&check_config(&facts)), vec!["GA0007"]);
    }

    #[test]
    fn neighbors_without_targets_is_ga0008() {
        let facts = DebugConfig::<Dummy>::builder()
            .capture_all_active(true)
            .supersteps(SuperstepFilter::After(1))
            .capture_neighbors(true)
            .build()
            .facts();
        assert_eq!(ids(&check_config(&facts)), vec!["GA0008"]);
        // With ids listed the rule is reachable.
        let facts = DebugConfig::<Dummy>::builder()
            .capture_ids([1])
            .capture_neighbors(true)
            .build()
            .facts();
        assert!(check_config(&facts).is_empty());
    }

    #[test]
    fn max_captures_zero_is_ga0009() {
        let facts = DebugConfig::<Dummy>::builder()
            .capture_all_active(true)
            .max_captures(0)
            .build()
            .facts();
        assert_eq!(ids(&check_config(&facts)), vec!["GA0009"]);
    }

    #[test]
    fn captures_nothing_is_ga0010() {
        let facts = DebugConfig::<Dummy>::builder().catch_exceptions(false).build().facts();
        assert_eq!(ids(&check_config(&facts)), vec!["GA0010"]);
    }

    #[test]
    fn exception_only_capture_is_ga0013() {
        // The default config's only rule is catch_exceptions: valid, but a
        // healthy run leaves every debug view empty.
        let facts = DebugConfig::<Dummy>::default().facts();
        assert_eq!(ids(&check_config(&facts)), vec!["GA0013"]);
        // Any positive capture rule silences it.
        let facts = DebugConfig::<Dummy>::builder().capture_ids([7]).build().facts();
        assert!(check_config(&facts).is_empty());
        let facts = DebugConfig::<Dummy>::builder()
            .vertex_value_constraint(|v, _, _| *v >= 0)
            .build()
            .facts();
        assert!(check_config(&facts).is_empty());
        // max_captures == 0 is GA0009's territory, not a double report.
        let facts = DebugConfig::<Dummy>::builder().max_captures(0).build().facts();
        assert_eq!(ids(&check_config(&facts)), vec!["GA0009"]);
    }

    #[test]
    fn zero_checkpoint_interval_is_ga0011() {
        let mut facts = DebugConfig::<Dummy>::builder()
            .capture_all_active(true)
            .supersteps(SuperstepFilter::After(1))
            .build()
            .facts();
        facts.checkpoint_every = Some(0);
        let findings = check_config(&facts);
        assert_eq!(ids(&findings), vec!["GA0011"]);
        assert!(findings[0].detail.contains("interval is 0"));
    }

    #[test]
    fn checkpoint_interval_at_or_past_limit_is_ga0011() {
        let mut facts = DebugConfig::<Dummy>::builder()
            .capture_all_active(true)
            .supersteps(SuperstepFilter::After(1))
            .build()
            .facts();
        facts.max_supersteps = Some(30);
        facts.checkpoint_every = Some(30);
        assert_eq!(ids(&check_config(&facts)), vec!["GA0011"]);
        facts.checkpoint_every = Some(100);
        assert_eq!(ids(&check_config(&facts)), vec!["GA0011"]);
        // A firing interval is clean, as is no checkpointing at all.
        facts.checkpoint_every = Some(10);
        assert!(check_config(&facts).is_empty());
        facts.checkpoint_every = None;
        assert!(check_config(&facts).is_empty());
        // Without a known horizon only the zero interval can be judged.
        facts.max_supersteps = None;
        facts.checkpoint_every = Some(1_000_000);
        assert!(check_config(&facts).is_empty());
    }

    #[test]
    fn fault_plan_beyond_worker_count_is_ga0015() {
        let mut facts = DebugConfig::<Dummy>::builder()
            .capture_all_active(true)
            .supersteps(SuperstepFilter::After(1))
            .build()
            .facts();
        facts.num_workers = Some(2);
        facts.fault_plan = Some("kill-worker:5@3".to_string());
        let findings = check_config(&facts);
        assert_eq!(ids(&findings), vec!["GA0015"]);
        assert!(findings[0].evidence[0].contains("kill-worker:5@3"));
        // Worker-confined panics are checked the same way.
        facts.fault_plan = Some("panic:2@1".to_string());
        assert_eq!(ids(&check_config(&facts)), vec!["GA0015"]);
        // The boundary: workers are 0-indexed, so id == count is out.
        facts.fault_plan = Some("kill-worker:2@3".to_string());
        assert_eq!(ids(&check_config(&facts)), vec!["GA0015"]);
    }

    #[test]
    fn fault_plan_within_worker_count_is_clean() {
        let mut facts = DebugConfig::<Dummy>::builder()
            .capture_all_active(true)
            .supersteps(SuperstepFilter::After(1))
            .build()
            .facts();
        facts.num_workers = Some(2);
        // Every targetable kind in range: the last valid worker, an
        // any-worker panic, and a datanode kill (not a worker id).
        facts.fault_plan = Some("kill-worker:1@3;panic@2;kill-datanode:9@1".to_string());
        assert!(check_config(&facts).is_empty());
        // No worker count recorded (old meta.json): nothing to judge.
        facts.num_workers = None;
        facts.fault_plan = Some("kill-worker:5@3".to_string());
        assert!(check_config(&facts).is_empty());
        // No fault plan at all: nothing to judge either.
        facts.num_workers = Some(2);
        facts.fault_plan = None;
        assert!(check_config(&facts).is_empty());
    }

    #[test]
    fn log_replay_without_usable_checkpoints_is_ga0016() {
        let mut facts = DebugConfig::<Dummy>::builder()
            .capture_all_active(true)
            .supersteps(SuperstepFilter::After(1))
            .build()
            .facts();
        facts.recovery_mode = Some("log-replay".to_string());
        // No checkpointing at all: logging buys nothing.
        assert_eq!(ids(&check_config(&facts)), vec!["GA0016"]);
        // Interval 0 / interval at the limit: GA0011 fires too, since the
        // checkpoint itself is also broken.
        facts.checkpoint_every = Some(0);
        assert_eq!(ids(&check_config(&facts)), vec!["GA0011", "GA0016"]);
        facts.max_supersteps = Some(30);
        facts.checkpoint_every = Some(30);
        assert_eq!(ids(&check_config(&facts)), vec!["GA0011", "GA0016"]);
    }

    #[test]
    fn log_replay_with_firing_checkpoints_is_clean() {
        let mut facts = DebugConfig::<Dummy>::builder()
            .capture_all_active(true)
            .supersteps(SuperstepFilter::After(1))
            .build()
            .facts();
        facts.recovery_mode = Some("log-replay".to_string());
        facts.max_supersteps = Some(30);
        facts.checkpoint_every = Some(2);
        assert!(check_config(&facts).is_empty());
        // Unknown horizon: a positive interval is presumed reachable.
        facts.max_supersteps = None;
        assert!(check_config(&facts).is_empty());
        // Restart recovery never needs the log, whatever the interval.
        facts.recovery_mode = Some("restart".to_string());
        facts.checkpoint_every = None;
        assert!(check_config(&facts).is_empty());
        // Old meta.json without the field: nothing to judge.
        facts.recovery_mode = None;
        assert!(check_config(&facts).is_empty());
    }

    #[test]
    fn live_flush_without_obs_is_ga0017() {
        let mut facts = DebugConfig::<Dummy>::builder()
            .capture_all_active(true)
            .supersteps(SuperstepFilter::After(1))
            .build()
            .facts();
        facts.live_flush = Some(true);
        facts.obs_enabled = Some(false);
        let findings = check_config(&facts);
        assert_eq!(ids(&findings), vec!["GA0017"]);
        assert!(findings[0].detail.contains("with_obs"));
        // Live flushing with an obs handle attached is the intended pair.
        facts.obs_enabled = Some(true);
        assert!(check_config(&facts).is_empty());
        // Not asking for live flushing is always fine, obs or not.
        facts.live_flush = Some(false);
        facts.obs_enabled = Some(false);
        assert!(check_config(&facts).is_empty());
        // Old meta.json without the fields: nothing to judge.
        facts.live_flush = None;
        facts.obs_enabled = None;
        assert!(check_config(&facts).is_empty());
    }

    #[test]
    fn budget_below_largest_partition_is_ga0018() {
        let mut facts = DebugConfig::<Dummy>::builder()
            .capture_all_active(true)
            .supersteps(SuperstepFilter::After(1))
            .build()
            .facts();
        facts.memory_budget = Some(1_000);
        facts.est_max_partition_bytes = Some(4_096);
        let findings = check_config(&facts);
        assert_eq!(ids(&findings), vec!["GA0018"]);
        assert!(findings[0].detail.contains("4096 bytes"));
    }

    #[test]
    fn budget_fitting_largest_partition_is_clean() {
        let mut facts = DebugConfig::<Dummy>::builder()
            .capture_all_active(true)
            .supersteps(SuperstepFilter::After(1))
            .build()
            .facts();
        // The boundary: a budget exactly the largest partition works —
        // that partition can be resident alone without an overrun.
        facts.memory_budget = Some(4_096);
        facts.est_max_partition_bytes = Some(4_096);
        assert!(check_config(&facts).is_empty());
        facts.memory_budget = Some(1 << 20);
        assert!(check_config(&facts).is_empty());
        // No budget set (fully in-memory run): nothing to judge.
        facts.memory_budget = None;
        facts.est_max_partition_bytes = None;
        assert!(check_config(&facts).is_empty());
        // Old meta.json with a budget but no estimate: not judged either.
        facts.memory_budget = Some(1);
        assert!(check_config(&facts).is_empty());
    }

    #[test]
    fn capture_everything_is_ga0012() {
        // The default filter is All: every vertex, every superstep.
        let facts = DebugConfig::<Dummy>::builder().capture_all_active(true).build().facts();
        assert_eq!(ids(&check_config(&facts)), vec!["GA0012"]);
        // After(0) spells the same thing differently.
        let facts = DebugConfig::<Dummy>::builder()
            .capture_all_active(true)
            .supersteps(SuperstepFilter::After(0))
            .build()
            .facts();
        assert_eq!(ids(&check_config(&facts)), vec!["GA0012"]);
        // After(1) leaves superstep 0 uncaptured: deliberately bounded.
        let facts = DebugConfig::<Dummy>::builder()
            .capture_all_active(true)
            .supersteps(SuperstepFilter::After(1))
            .build()
            .facts();
        assert!(check_config(&facts).is_empty());
        // Without capture-all the filter's reach is irrelevant.
        let facts = DebugConfig::<Dummy>::builder().capture_ids([1, 2]).build().facts();
        assert!(check_config(&facts).is_empty());
    }

    #[test]
    fn range_covering_the_whole_horizon_is_ga0012() {
        let mut facts = DebugConfig::<Dummy>::builder()
            .capture_all_active(true)
            .supersteps(SuperstepFilter::Range { from: 0, to: 100 })
            .build()
            .facts();
        // Without a known horizon a Range is assumed intentional.
        assert!(check_config(&facts).is_empty());
        // With one, [0, 100] covers all 50 supersteps the job can run.
        facts.max_supersteps = Some(50);
        assert_eq!(ids(&check_config(&facts)), vec!["GA0012"]);
        // A range that ends before the horizon is a deliberate window.
        facts.superstep_filter = SuperstepFilter::Range { from: 0, to: 30 };
        assert!(check_config(&facts).is_empty());
    }
}
