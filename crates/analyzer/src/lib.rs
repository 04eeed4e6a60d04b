//! # graft-analyzer
//!
//! Static and semantic analysis for Graft-instrumented Pregel programs.
//!
//! The Java Graft of the paper captures, visualizes, and reproduces; this
//! crate closes the loop by *checking*. It has three families of lints,
//! each with a stable `GAxxxx` id:
//!
//! 1. **Algebraic property checks** (`GA0001`, `GA0002`, `GA0004`,
//!    `GA0005`) — a Pregel combiner must be commutative and associative,
//!    because the engine folds messages in arrival order. The analyzer
//!    verifies this empirically, feeding the combiner randomized pairs
//!    and triples drawn from the *observed* message pool of a captured
//!    run. Aggregator merge operators are classified the same way.
//! 2. **Message-order race detection** (`GA0003`) — `compute()` must not
//!    depend on the order incoming messages are delivered in. The
//!    analyzer re-runs every captured vertex context through the replay
//!    harness with permuted message delivery and flags vertices whose
//!    value, outgoing messages, halt decision, or edges differ.
//! 3. **Configuration lints** (`GA0006`–`GA0013`, `GA0015`–`GA0018`) — a
//!    [`DebugConfig`] that can never capture anything (empty superstep
//!    sets, inverted ranges, `max_captures == 0`, filters entirely beyond
//!    the job's superstep horizon, neighbor capture with no capture
//!    targets, a checkpoint interval that never fires, a fault plan naming
//!    a worker the job does not have, log-replay recovery with no usable
//!    checkpoint to confine to, live flushing with observability
//!    disabled) fails
//!    silently at debug time, which is the worst possible time; and a
//!    config that captures every vertex at every superstep (`GA0012`)
//!    is the maximal-overhead way to debug — the paper's overhead
//!    numbers come from exactly that configuration. These
//!    lints run on the [`ConfigFacts`] recorded in `meta.json`, so they
//!    also work untyped from the CLI (`graft analyze <trace-root>`).
//! 4. **Shuffle-volume lint** (`GA0014`) — a computation that sends
//!    multiple messages to the same target vertex in one superstep
//!    without enabling a combiner ships the full uncombined stream
//!    across the shuffle; the analyzer scans the captured outgoing
//!    messages for that fan-in pattern and points at the combiner the
//!    engine's sender-side combining could exploit.
//!
//! Findings are reported as paper-style violation rows through
//! `graft`'s Violations & Exceptions view rendering.
//!
//! ```
//! use graft::{DebugConfig, GraftRunner, SuperstepFilter};
//! use graft::testing::premade;
//! use graft_algorithms::components::ConnectedComponents;
//! use graft_analyzer::{analyze_session, AnalyzeOptions};
//!
//! let config = DebugConfig::<ConnectedComponents>::builder()
//!     .capture_all_active(true)
//!     .supersteps(SuperstepFilter::Range { from: 0, to: 31 })
//!     .build();
//! let run = GraftRunner::new(ConnectedComponents, config)
//!     .run(premade::cycle(6, u64::MAX), "/traces/cc")
//!     .unwrap();
//! let session = run.session().unwrap();
//! let report = analyze_session(&session, || ConnectedComponents, &AnalyzeOptions::default());
//! assert!(report.is_clean(), "{}", report.to_text());
//! ```
//!
//! [`DebugConfig`]: graft::DebugConfig
//! [`ConfigFacts`]: graft::ConfigFacts

#![forbid(unsafe_code)]

mod algebra;
mod config_lints;
mod race;
mod shuffle;

use graft::views::violations::{render_rows, ViolationRow};
use graft::{DebugSession, JobMeta};
use graft_pregel::Computation;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use config_lints::check_config;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only; excluded from [`AnalysisReport::is_clean`].
    Info,
    /// Probably a mistake; the job still runs.
    Warning,
    /// A semantic bug or a config that cannot work.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// A lint in the catalog: a stable id, a slug, a severity, and a
/// one-line description.
#[derive(Debug)]
pub struct Lint {
    /// Stable identifier, `GA0001`..`GA0018`.
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// Default severity of findings from this lint.
    pub severity: Severity,
    /// What the lint checks.
    pub summary: &'static str,
}

/// Combiner result depends on operand order.
pub static GA0001: Lint = Lint {
    id: "GA0001",
    name: "combiner-not-commutative",
    severity: Severity::Error,
    summary: "combine(a, b) != combine(b, a) for observed messages; \
              results depend on delivery order",
};

/// Combiner result depends on fold grouping.
pub static GA0002: Lint = Lint {
    id: "GA0002",
    name: "combiner-not-associative",
    severity: Severity::Error,
    summary: "combine(combine(a, b), c) != combine(a, combine(b, c)); \
              results depend on how the engine groups the fold",
};

/// `compute()` output depends on message delivery order.
pub static GA0003: Lint = Lint {
    id: "GA0003",
    name: "message-order-race",
    severity: Severity::Error,
    summary: "replaying compute() with permuted message delivery changes \
              the vertex value, messages, edges, or halt decision",
};

/// Combiner double-counts duplicated delivery (advisory).
pub static GA0004: Lint = Lint {
    id: "GA0004",
    name: "combiner-not-idempotent",
    severity: Severity::Info,
    summary: "combine(a, a) != a; correct for sums, but worth knowing if \
              the transport could ever duplicate a message",
};

/// Aggregator merged with an order-sensitive operator.
pub static GA0005: Lint = Lint {
    id: "GA0005",
    name: "aggregator-order-dependent",
    severity: Severity::Warning,
    summary: "aggregator uses an order-sensitive merge operator \
              (Overwrite); vertex-side updates race across workers",
};

/// Superstep filter can never match.
pub static GA0006: Lint = Lint {
    id: "GA0006",
    name: "empty-superstep-range",
    severity: Severity::Error,
    summary: "the superstep filter selects no supersteps (empty Set or \
              inverted Range); nothing will ever be captured",
};

/// Superstep filter points past the job's horizon.
pub static GA0007: Lint = Lint {
    id: "GA0007",
    name: "filter-beyond-max-supersteps",
    severity: Severity::Warning,
    summary: "the superstep filter only selects supersteps the job can \
              never reach under its superstep limit",
};

/// A capture rule that cannot fire.
pub static GA0008: Lint = Lint {
    id: "GA0008",
    name: "unreachable-capture-rule",
    severity: Severity::Warning,
    summary: "capture_neighbors is set but no vertices are specified or \
              randomly sampled, so there is nothing to be a neighbor of",
};

/// The capture safety net is zero.
pub static GA0009: Lint = Lint {
    id: "GA0009",
    name: "max-captures-zero",
    severity: Severity::Error,
    summary: "max_captures is 0; every capture is dropped by the safety \
              net",
};

/// The config selects nothing at all.
pub static GA0010: Lint = Lint {
    id: "GA0010",
    name: "no-capture-rules",
    severity: Severity::Warning,
    summary: "no ids, no random sample, no capture-all, no constraints, \
              and exceptions are not caught; the run cannot capture \
              anything",
};

/// The checkpoint interval can never produce a usable checkpoint.
pub static GA0011: Lint = Lint {
    id: "GA0011",
    name: "checkpoint-never-fires",
    severity: Severity::Warning,
    summary: "the checkpoint interval is 0 (checkpointing disabled while \
              configured) or at least the superstep limit, so no failure \
              after superstep 0 can be recovered from a useful checkpoint",
};

/// The config captures everything, everywhere, all the time.
pub static GA0012: Lint = Lint {
    id: "GA0012",
    name: "capture-all-every-superstep",
    severity: Severity::Warning,
    summary: "capture_all_active with an unbounded superstep filter serializes \
              every vertex context at every superstep — the maximal-overhead \
              debug configuration",
};

/// The only capture rule is catching exceptions: healthy runs record
/// nothing, so the debug session has nothing to show.
pub static GA0013: Lint = Lint {
    id: "GA0013",
    name: "exception-only-capture",
    severity: Severity::Warning,
    summary: "the only capture rule is catch_exceptions; a run without \
              exceptions captures no vertices and no violations, leaving \
              every debug view empty",
};

/// Repeated sends to one target in one superstep, with no combiner.
pub static GA0014: Lint = Lint {
    id: "GA0014",
    name: "uncombined-fanin",
    severity: Severity::Warning,
    summary: "a vertex sent multiple messages to the same target in one \
              superstep without a combiner; enabling one lets the engine \
              fold them sender-side and shrink the shuffle",
};

/// A fault plan targets a worker the job does not have.
pub static GA0015: Lint = Lint {
    id: "GA0015",
    name: "fault-plan-worker-out-of-range",
    severity: Severity::Warning,
    summary: "the fault plan names a worker id at or beyond the configured \
              worker count; that fault can never fire, so the fault-injection \
              test silently tests nothing",
};

/// Log-replay recovery configured without a checkpoint to confine to.
pub static GA0016: Lint = Lint {
    id: "GA0016",
    name: "log-replay-without-checkpoints",
    severity: Severity::Warning,
    summary: "recovery mode is log-replay but no checkpoint can ever commit \
              (interval 0 or at least the superstep limit); message logging \
              pays its cost while every failure still restarts the whole job",
};

/// Live flushing requested with observability disabled.
pub static GA0017: Lint = Lint {
    id: "GA0017",
    name: "live-flush-without-obs",
    severity: Severity::Warning,
    summary: "live_flush is enabled but no observability handle is attached; \
              no events, snapshots, or metrics are emitted, so a live monitor \
              (`serve --follow`, `watch`) sees nothing",
};

/// Memory budget below the largest single partition's footprint.
pub static GA0018: Lint = Lint {
    id: "GA0018",
    name: "memory-budget-below-largest-partition",
    severity: Severity::Warning,
    summary: "the out-of-core memory budget is smaller than the estimated \
              footprint of the largest single partition; every pin overruns \
              the budget and execution degrades to one partition at a time",
};

/// The full catalog, in id order. Ids are never reused.
pub fn catalog() -> [&'static Lint; 18] {
    // GA0019 (capture-all-with-json-traces) is retired: capture writes only binary traces.
    [
        &GA0001, &GA0002, &GA0003, &GA0004, &GA0005, &GA0006, &GA0007, &GA0008, &GA0009, &GA0010,
        &GA0011, &GA0012, &GA0013, &GA0014, &GA0015, &GA0016, &GA0017, &GA0018,
    ]
}

/// One concrete finding: a lint that fired, where, and the evidence.
#[derive(Debug)]
pub struct Finding {
    /// The lint that produced this finding.
    pub lint: &'static Lint,
    /// Superstep of the offending capture, for trace-level findings.
    pub superstep: Option<u64>,
    /// Offending vertex (rendered), for trace-level findings.
    pub vertex: Option<String>,
    /// One-line description of what was observed.
    pub detail: String,
    /// Supporting evidence (counterexample operands, permutations, …).
    pub evidence: Vec<String>,
}

impl Finding {
    pub(crate) fn global(lint: &'static Lint, detail: String) -> Self {
        Finding { lint, superstep: None, vertex: None, detail, evidence: Vec::new() }
    }

    /// This finding as a row of the paper's Violations & Exceptions view.
    pub fn to_violation_row(&self) -> ViolationRow {
        ViolationRow {
            superstep: self.superstep.unwrap_or(0),
            vertex: self.vertex.clone().unwrap_or_else(|| "-".to_string()),
            kind: self.lint.id,
            detail: format!("[{}] {}", self.lint.severity, self.detail),
            target: None,
            backtrace: if self.evidence.is_empty() { None } else { Some(self.evidence.join("\n")) },
        }
    }
}

/// Tuning knobs for [`analyze_session`].
#[derive(Clone, Debug)]
pub struct AnalyzeOptions {
    /// Seed for randomized operand/permutation selection; analyses are
    /// deterministic in it.
    pub seed: u64,
    /// Randomized algebraic cases per property (pairs/triples drawn from
    /// the observed message pool).
    pub algebra_cases: usize,
    /// Delivery permutations tried per captured context.
    pub permutations_per_trace: usize,
    /// Upper bound on harness replays across the whole session, so
    /// analysis stays cheap even on huge captures.
    pub max_replays: usize,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            seed: 0x6AF7_A11A,
            algebra_cases: 64,
            permutations_per_trace: 4,
            max_replays: 512,
        }
    }
}

/// The outcome of an analysis pass.
#[derive(Debug, Default)]
pub struct AnalysisReport {
    findings: Vec<Finding>,
    /// Captured contexts examined.
    pub traces_analyzed: usize,
    /// Harness replays executed by the race detector.
    pub replays_run: usize,
    /// Algebraic cases evaluated against the combiner.
    pub combiner_cases: usize,
}

impl AnalysisReport {
    pub(crate) fn push_all(&mut self, findings: Vec<Finding>) {
        self.findings.extend(findings);
    }

    fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            b.lint
                .severity
                .cmp(&a.lint.severity)
                .then_with(|| a.lint.id.cmp(b.lint.id))
                .then_with(|| a.superstep.cmp(&b.superstep))
                .then_with(|| a.vertex.cmp(&b.vertex))
        });
    }

    /// Every finding, most severe first.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Findings at `Warning` or above — what "the analyzer flagged
    /// something" means. `Info` findings are advisory (e.g. a sum
    /// combiner is legitimately non-idempotent).
    pub fn problems(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.lint.severity >= Severity::Warning).collect()
    }

    /// Findings at `Error` severity.
    pub fn errors(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.lint.severity == Severity::Error).collect()
    }

    /// Whether nothing at `Warning` or above fired.
    pub fn is_clean(&self) -> bool {
        self.problems().is_empty()
    }

    /// Renders the report in the style of the Violations & Exceptions
    /// view, one row per finding, with evidence below the table.
    pub fn to_text(&self) -> String {
        let rows: Vec<ViolationRow> = self.findings.iter().map(Finding::to_violation_row).collect();
        let mut out = render_rows("Analysis findings", &rows);
        out.push_str(&format!(
            "\nanalyzed {} capture(s), {} replay(s), {} combiner case(s)\n",
            self.traces_analyzed, self.replays_run, self.combiner_cases
        ));
        out
    }
}

/// Runs every analysis over a captured session.
///
/// `make` builds fresh instances of the computation — the replay harness
/// consumes one per replay. The pass is deterministic in
/// [`AnalyzeOptions::seed`].
pub fn analyze_session<C, F>(
    session: &DebugSession<C>,
    make: F,
    options: &AnalyzeOptions,
) -> AnalysisReport
where
    C: Computation,
    F: Fn() -> C,
{
    let mut report =
        AnalysisReport { traces_analyzed: session.total_captures(), ..Default::default() };

    if let Some(facts) = &session.meta().facts {
        report.push_all(config_lints::check_config(facts));
    }
    report.push_all(algebra::check_aggregators(&make()));

    let mut rng = StdRng::seed_from_u64(options.seed);
    let (findings, cases) = algebra::check_combiner(session, &make, options, &mut rng);
    report.combiner_cases = cases;
    report.push_all(findings);

    let (findings, replays) = race::check_message_order(session, &make, options, &mut rng);
    report.replays_run = replays;
    report.push_all(findings);

    report.push_all(shuffle::check_uncombined_fanin(session, &make()));

    report.sort();
    report
}

/// The untyped subset of the analysis: configuration lints computed from
/// the [`ConfigFacts`](graft::ConfigFacts) in `meta.json`. This is what
/// `graft analyze` runs when it only has a trace directory and no
/// compiled computation.
pub fn analyze_meta(meta: &JobMeta) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    if let Some(facts) = &meta.facts {
        report.push_all(config_lints::check_config(facts));
    }
    report.sort();
    report
}
