//! `graft-cli check-sched` — the concurrency gate: deterministic
//! schedule exploration plus happens-before race detection over the
//! graft runtime, packaged as a CI-gateable command.
//!
//! ```text
//! graft-cli check-sched                       full gate (fixtures + runtime)
//! graft-cli check-sched --list                list the seeded-race fixtures
//! graft-cli check-sched --fixture <name>      explore one fixture
//! graft-cli check-sched --fixture <name> --replay <seed> [--strategy s]
//! ```
//!
//! The full gate runs two phases:
//!
//! 1. **Self-test** over [`graft_sched::fixtures`]: every racy fixture
//!    (a planted bug in a miniature engine/server protocol) must be
//!    *caught* within the schedule budget, and the clean fixture must
//!    pass every schedule. A racy fixture that survives means the
//!    detector regressed; the command exits nonzero.
//! 2. **Runtime gate**: the real [`graft_pregel::Engine`] worker pool
//!    and the real `graft-server` concurrency protocols
//!    (TraceIndex cold-miss, ThreadPool shutdown-during-panic) are
//!    driven through many distinct interleavings. Any race, deadlock,
//!    panic, or stall fails the command and prints a step-by-step
//!    replay trace plus the exact `--replay` invocation reproducing it.
//!
//! Exit status: 0 when every expectation holds, 1 otherwise — gate CI
//! on it directly. In replay mode the status mirrors the verdict of the
//! replayed schedule (nonzero when it fails), so scripts can assert a
//! seed still reproduces.

use std::process::ExitCode;
use std::sync::Arc;

use graft_dfs::{FileSystem, InMemoryFs};
use graft_obs::{Obs, Scope};
use graft_pregel::{Computation, ContextOf, Engine, Graph, VertexHandleOf};
use graft_sched::fixtures::{self, Fixture};
use graft_sched::{
    explore, render_trace, run_schedule, ExploreConfig, ExploreReport, ScheduleOutcome,
    StrategyKind,
};
use graft_server::index::TraceIndex;
use graft_server::pool::ThreadPool;
use graft_server::synth::write_synthetic_trace;

/// Trailing trace steps printed for a failing schedule.
const TRACE_STEPS: usize = 150;

pub fn usage() -> ExitCode {
    eprintln!(
        "usage: graft-cli check-sched [options]\n\
         options:\n\
         \x20 --schedules <n>      distinct interleavings to explore per target (default 200)\n\
         \x20 --seed <s>           base exploration seed, decimal or 0x-hex (default 0xC0FFEE00)\n\
         \x20 --strategy <s>       random | pct[:depth] | mixed (default mixed)\n\
         \x20 --fixture <name>     check a single fixture instead of the full gate\n\
         \x20 --replay <seed>      replay one exact schedule (requires --fixture);\n\
         \x20                      pass the --strategy printed with the failing seed\n\
         \x20 --list               list the seeded-race fixtures and exit\n\
         with no options the full gate runs: every racy fixture must be caught\n\
         within the budget, the clean fixture and the real engine/server must\n\
         pass every explored schedule. exit status 0 = gate holds."
    );
    ExitCode::FAILURE
}

#[derive(Debug)]
struct CheckOptions {
    schedules: usize,
    seed: u64,
    strategy: StrategyKind,
    fixture: Option<String>,
    replay: Option<u64>,
    list: bool,
}

fn parse_seed(value: &str) -> Result<u64, String> {
    let parsed = match value.strip_prefix("0x").or_else(|| value.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    };
    parsed.map_err(|_| format!("bad seed {value}"))
}

fn parse_strategy(value: &str) -> Result<StrategyKind, String> {
    match value {
        "random" => Ok(StrategyKind::Random),
        "mixed" => Ok(StrategyKind::Mixed),
        "pct" => Ok(StrategyKind::Pct { depth: 3 }),
        other => match other.strip_prefix("pct:") {
            Some(depth) => depth
                .parse()
                .map(|depth| StrategyKind::Pct { depth })
                .map_err(|_| format!("bad pct depth in {other}")),
            None => Err(format!("unknown strategy {other}")),
        },
    }
}

/// Renders a strategy the way `--strategy` parses it, so failure
/// reports can print a copy-pastable replay command.
fn strategy_flag(kind: StrategyKind) -> String {
    match kind {
        StrategyKind::Random => "random".to_string(),
        StrategyKind::Pct { depth } => format!("pct:{depth}"),
        StrategyKind::Mixed => "mixed".to_string(),
    }
}

fn parse_options(args: &[String]) -> Result<CheckOptions, String> {
    let mut options = CheckOptions {
        schedules: 200,
        seed: 0xC0FF_EE00,
        strategy: StrategyKind::Mixed,
        fixture: None,
        replay: None,
        list: false,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        if flag == "--list" {
            options.list = true;
            continue;
        }
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--schedules" => {
                options.schedules =
                    value.parse().map_err(|_| format!("bad --schedules {value}"))?;
                if options.schedules == 0 {
                    return Err("--schedules must be at least 1".to_string());
                }
            }
            "--seed" => options.seed = parse_seed(value)?,
            "--strategy" => options.strategy = parse_strategy(value)?,
            "--fixture" => options.fixture = Some(value.clone()),
            "--replay" => options.replay = Some(parse_seed(value)?),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if options.replay.is_some() && options.fixture.is_none() {
        return Err("--replay needs --fixture <name>".to_string());
    }
    Ok(options)
}

/// Entry point for `graft-cli check-sched [options]`.
pub fn run(args: &[String]) -> ExitCode {
    let options = match parse_options(args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("error: {e}\n");
            return usage();
        }
    };
    if options.list {
        return list_fixtures();
    }
    if let Some(seed) = options.replay {
        let fixture = options.fixture.as_deref().unwrap();
        return replay_fixture(fixture, seed, options.strategy);
    }
    if let Some(name) = &options.fixture {
        return check_one_fixture(name, &options);
    }
    full_gate(&options)
}

fn list_fixtures() -> ExitCode {
    for fixture in fixtures::catalog() {
        println!(
            "{:<28} {:>5}  {}",
            fixture.name,
            if fixture.racy { "racy" } else { "clean" },
            fixture.summary.split_whitespace().collect::<Vec<_>>().join(" "),
        );
    }
    ExitCode::SUCCESS
}

fn replay_fixture(name: &str, seed: u64, strategy: StrategyKind) -> ExitCode {
    let Some(fixture) = fixtures::by_name(name) else {
        eprintln!("error: no fixture named {name} (try --list)\n");
        return usage();
    };
    let outcome = run_schedule(seed, strategy, ExploreConfig::default().max_steps, fixture.body);
    print!("{}", render_trace(&outcome, TRACE_STEPS));
    if outcome.failed() {
        ExitCode::FAILURE
    } else {
        println!("schedule completed clean");
        ExitCode::SUCCESS
    }
}

/// Prints the replay trace and the exact command reproducing a failing
/// schedule.
fn report_failure(failure: &ScheduleOutcome, fixture: Option<&str>) {
    print!("{}", render_trace(failure, TRACE_STEPS));
    if let Some(name) = fixture {
        println!(
            "replay: graft-cli check-sched --fixture {name} --replay {:#x} --strategy {}",
            failure.seed,
            strategy_flag(failure.strategy_kind),
        );
    }
}

/// Explores one fixture and checks the report against its expectation:
/// racy fixtures must be caught, clean ones must survive every
/// schedule. Returns whether the expectation held.
fn fixture_holds(fixture: &Fixture, options: &CheckOptions, verbose_clean: bool) -> bool {
    let cfg = ExploreConfig {
        schedules: options.schedules,
        seed: options.seed,
        strategy: options.strategy,
        ..ExploreConfig::default()
    };
    let report = explore(&cfg, fixture.body);
    match (&report.failure, fixture.racy) {
        (Some(failure), true) => {
            println!(
                "fixture {:<28} racy   CAUGHT after {} schedule(s): {} \
                 (replay --replay {:#x} --strategy {})",
                fixture.name,
                report.attempted,
                failure.verdict(),
                failure.seed,
                strategy_flag(failure.strategy_kind),
            );
            true
        }
        (None, true) => {
            println!(
                "fixture {:<28} racy   MISSED: survived {} schedule(s) ({} distinct) — \
                 the detector regressed",
                fixture.name, report.attempted, report.distinct,
            );
            false
        }
        (Some(failure), false) => {
            println!("fixture {:<28} clean  FALSE POSITIVE: {}", fixture.name, failure.verdict());
            report_failure(failure, Some(fixture.name));
            false
        }
        (None, false) => {
            if verbose_clean {
                println!(
                    "fixture {:<28} clean  PASS over {} distinct schedule(s)",
                    fixture.name, report.distinct,
                );
            }
            true
        }
    }
}

fn check_one_fixture(name: &str, options: &CheckOptions) -> ExitCode {
    let Some(fixture) = fixtures::by_name(name) else {
        eprintln!("error: no fixture named {name} (try --list)\n");
        return usage();
    };
    if fixture_holds(fixture, options, true) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// Runtime gates: the real engine and server under exploration.
// ---------------------------------------------------------------------

/// Min-label propagation over a small ring: every interleaving must
/// converge to label 0 everywhere, so cross-schedule nondeterminism
/// shows up as a failing (panicking) schedule, not a silent wrong
/// answer.
struct MinLabel;

impl Computation for MinLabel {
    type Id = u64;
    type VValue = u64;
    type EValue = ();
    type Message = u64;

    fn compute(
        &self,
        vertex: &mut VertexHandleOf<'_, Self>,
        messages: &[u64],
        ctx: &mut ContextOf<'_, Self>,
    ) {
        let best = messages.iter().copied().chain([vertex.id(), *vertex.value()]).min().unwrap();
        if best < *vertex.value() {
            vertex.set_value(best);
            ctx.send_message_to_all_edges(vertex, best);
        }
        vertex.vote_to_halt();
    }
}

fn ring(n: u64) -> Graph<u64, u64, ()> {
    let mut b = Graph::builder();
    for v in 0..n {
        b.add_vertex(v, u64::MAX).unwrap();
    }
    for v in 0..n {
        b.add_edge(v, (v + 1) % n, ()).unwrap();
    }
    b.build().unwrap()
}

/// Three partitions, and inside a session a thread for each whatever
/// the host has: the coordinator (which runs partition 0's phases
/// itself) plus `pool-worker-1` and `pool-worker-2`.
fn engine_gate() {
    let outcome = Engine::new(MinLabel).num_workers(3).run(ring(6)).expect("job runs");
    for v in 0..6 {
        assert_eq!(outcome.graph.value(v), Some(&0), "vertex {v} converged");
    }
}

/// Two requests cold-miss the same job concurrently: the per-slot lock
/// must serialize the parse (one counted miss, one shared `Arc`).
fn index_gate() {
    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    write_synthetic_trace(fs.as_ref(), "/traces/shared", 8, 2).unwrap();
    let obs = Obs::wall();
    let index = Arc::new(TraceIndex::new(fs, "/traces", 4, Arc::clone(&obs)));
    let mut handles = Vec::new();
    for i in 0..2 {
        let index = Arc::clone(&index);
        let forked = graft_sched::thread::fork(format!("request-{i}"));
        let token = forked.token();
        let handle = std::thread::spawn(forked.wrap(move || index.session("shared").unwrap()));
        handles.push((token, handle));
    }
    let mut sessions = Vec::new();
    for (token, handle) in handles {
        token.join_point();
        sessions.push(handle.join().expect("request thread completes"));
    }
    assert!(Arc::ptr_eq(&sessions[0], &sessions[1]), "one parsed session shared");
    let misses = obs.registry().counter_value("server_index_misses", Scope::GLOBAL);
    assert_eq!(misses, 1, "the slot lock serializes the cold parse");
}

/// A handler panics while shutdown interleaves with the unwinding
/// worker; the job queued behind the panic must still run and the pool
/// must join cleanly.
fn pool_gate() {
    let mut pool = ThreadPool::new(1);
    let survived = Arc::new(graft_sched::atomic::AtomicUsize::new(0));
    pool.execute(|| panic!("handler blew up mid-shutdown"));
    let survived_in_job = Arc::clone(&survived);
    pool.execute(move || {
        survived_in_job.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    });
    pool.shutdown();
    assert_eq!(survived.load(std::sync::atomic::Ordering::SeqCst), 1);
}

/// Explores one real-runtime protocol; the report must be clean.
fn runtime_holds(what: &str, options: &CheckOptions, schedules: usize, body: impl Fn()) -> bool {
    let cfg = ExploreConfig {
        schedules,
        seed: options.seed,
        strategy: options.strategy,
        ..ExploreConfig::default()
    };
    let report: ExploreReport = explore(&cfg, body);
    match &report.failure {
        Some(failure) => {
            println!("runtime {what:<28} FAIL: {}", failure.verdict());
            report_failure(failure, None);
            false
        }
        None => {
            println!("runtime {what:<28} PASS over {} distinct schedule(s)", report.distinct);
            true
        }
    }
}

fn full_gate(options: &CheckOptions) -> ExitCode {
    let mut holds = true;

    println!(
        "phase 1: detector self-test ({} fixtures, budget {} schedules, seed {:#x})",
        fixtures::catalog().len(),
        options.schedules,
        options.seed,
    );
    for fixture in fixtures::catalog() {
        holds &= fixture_holds(fixture, options, true);
    }

    // The real runtime explores far more steps per schedule than the
    // fixtures, so the gate uses a proportional slice of the budget.
    let runtime_schedules = (options.schedules / 8).clamp(10, 50);
    println!("phase 2: runtime gate ({runtime_schedules} schedules per protocol)");
    holds &= runtime_holds("engine:persistent-pool", options, runtime_schedules, engine_gate);
    holds &= runtime_holds("server:index-cold-miss", options, runtime_schedules, index_gate);
    holds &= runtime_holds("server:pool-panic-shutdown", options, runtime_schedules, pool_gate);

    if holds {
        println!("check-sched: gate holds");
        ExitCode::SUCCESS
    } else {
        println!("check-sched: GATE FAILED");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(schedules: usize, seed: u64) -> CheckOptions {
        CheckOptions {
            schedules,
            seed,
            strategy: StrategyKind::Mixed,
            fixture: None,
            replay: None,
            list: false,
        }
    }

    #[test]
    fn seeds_parse_in_both_bases() {
        assert_eq!(parse_seed("42").unwrap(), 42);
        assert_eq!(parse_seed("0xC0FFEE00").unwrap(), 0xC0FF_EE00);
        assert!(parse_seed("zebra").is_err());
    }

    #[test]
    fn strategies_round_trip_through_the_flag_renderer() {
        for flag in ["random", "mixed", "pct:3", "pct:7"] {
            let kind = parse_strategy(flag).unwrap();
            assert_eq!(strategy_flag(kind), flag);
        }
        assert_eq!(parse_strategy("pct").unwrap(), StrategyKind::Pct { depth: 3 });
        assert!(parse_strategy("eager").is_err());
    }

    #[test]
    fn replay_without_fixture_is_rejected() {
        let args: Vec<String> = ["--replay", "7"].iter().map(|s| s.to_string()).collect();
        assert!(parse_options(&args).unwrap_err().contains("--fixture"));
    }

    #[test]
    fn racy_fixture_expectation_holds_and_clean_one_passes() {
        let racy = fixtures::by_name("unsync-partition-write").unwrap();
        assert!(fixture_holds(racy, &options(60, 0xD1CE), false));
        let clean = fixtures::by_name("clean-pool-protocol").unwrap();
        assert!(fixture_holds(clean, &options(30, 0xD1CE), false));
    }

    #[test]
    fn runtime_gate_passes_on_the_real_engine() {
        assert!(runtime_holds("engine:persistent-pool", &options(10, 0xBEEF), 10, engine_gate));
    }
}
