//! The `DebugConfig`: how users tell Graft which vertices to capture.
//!
//! Mirrors Section 3.1 of the paper. A config can request capture of:
//!
//! 1. vertices specified by id (optionally with their neighbors),
//! 2. a random sample of a given size (optionally with neighbors),
//! 3. vertices whose value violates a constraint,
//! 4. vertices that send a message violating a constraint,
//! 5. vertices whose `compute()` raises an exception (panics),
//!
//! or alternatively *all active vertices*. Captures can be limited to a
//! subset of supersteps, and a global `max_captures` safety net stops
//! capturing once exceeded.

use std::fmt;
use std::sync::Arc;

use graft_pregel::Computation;
use serde::{Deserialize, Serialize};

/// Vertex-value constraint: `(value, vertex id, superstep) -> ok?`.
/// Returning `false` marks a violation and captures the vertex.
pub type VertexValueConstraint<C> =
    Arc<dyn Fn(&<C as Computation>::VValue, &<C as Computation>::Id, u64) -> bool + Send + Sync>;

/// Message constraint: `(message, source id, target id, superstep) -> ok?`.
/// Returning `false` marks a violation and captures the sending vertex.
pub type MessageConstraint<C> = Arc<
    dyn Fn(
            &<C as Computation>::Message,
            &<C as Computation>::Id,
            &<C as Computation>::Id,
            u64,
        ) -> bool
        + Send
        + Sync,
>;

/// Which supersteps Graft captures in. Defaults to all.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SuperstepFilter {
    /// Capture in every superstep (the default).
    All,
    /// Capture only in supersteps `>= from` (used in the paper's MWM
    /// scenario: "capture all active vertices after superstep 500").
    After(u64),
    /// Capture in the inclusive range `[from, to]`.
    Range {
        /// First superstep captured.
        from: u64,
        /// Last superstep captured (inclusive).
        to: u64,
    },
    /// Capture only in the listed supersteps. Kept sorted and deduplicated
    /// (see [`SuperstepFilter::set`]) so membership tests are a binary
    /// search instead of a linear scan.
    Set(Vec<u64>),
}

impl SuperstepFilter {
    /// Builds a `Set` filter from any iterator of supersteps, sorting and
    /// deduplicating so [`matches`](Self::matches) can binary-search.
    /// Prefer this over constructing `SuperstepFilter::Set` directly.
    pub fn set(supersteps: impl IntoIterator<Item = u64>) -> Self {
        let mut set: Vec<u64> = supersteps.into_iter().collect();
        set.sort_unstable();
        set.dedup();
        SuperstepFilter::Set(set)
    }

    /// Returns a copy with `Set` contents sorted and deduplicated. The
    /// builder applies this, so configs built through the public API
    /// always satisfy the `Set` ordering invariant.
    pub fn normalized(&self) -> Self {
        match self {
            SuperstepFilter::Set(set) => SuperstepFilter::set(set.iter().copied()),
            other => other.clone(),
        }
    }

    /// Whether `superstep` is selected by this filter.
    pub fn matches(&self, superstep: u64) -> bool {
        match self {
            SuperstepFilter::All => true,
            SuperstepFilter::After(from) => superstep >= *from,
            SuperstepFilter::Range { from, to } => superstep >= *from && superstep <= *to,
            SuperstepFilter::Set(set) => set.binary_search(&superstep).is_ok(),
        }
    }

    /// Whether this filter can never select any superstep (an inverted
    /// `Range` or an empty `Set`) — such a config silently captures
    /// nothing, which the analyzer flags as GA0006.
    pub fn selects_none(&self) -> bool {
        match self {
            SuperstepFilter::All | SuperstepFilter::After(_) => false,
            SuperstepFilter::Range { from, to } => from > to,
            SuperstepFilter::Set(set) => set.is_empty(),
        }
    }

    /// The earliest superstep this filter can select, if bounded below.
    /// `All` starts at 0; an unsatisfiable filter returns `None`.
    pub fn earliest(&self) -> Option<u64> {
        match self {
            SuperstepFilter::All => Some(0),
            SuperstepFilter::After(from) => Some(*from),
            SuperstepFilter::Range { from, to } => (from <= to).then_some(*from),
            SuperstepFilter::Set(set) => set.iter().min().copied(),
        }
    }
}

/// What to do after capturing a vertex whose `compute()` panicked.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExceptionPolicy {
    /// Re-raise the panic so the job fails, as Giraph jobs do on uncaught
    /// exceptions. The capture survives: Graft flushes traces on failure.
    Abort,
    /// Swallow the panic and halt the vertex, letting the rest of the job
    /// proceed — useful when hunting several failing vertices in one run.
    SuppressAndHalt,
}

/// Why a vertex context was captured. A single capture may have several
/// reasons.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CaptureReason {
    /// The vertex id was listed in the config.
    SpecifiedId,
    /// The vertex was picked by random sampling.
    RandomSample,
    /// The vertex neighbors a specified/random capture target.
    NeighborOfCaptured,
    /// The vertex's value violated the vertex-value constraint.
    VertexValueViolation,
    /// The vertex sent a message violating the message constraint.
    MessageViolation,
    /// The vertex's `compute()` panicked.
    Exception,
    /// The config requested capture of all active vertices.
    AllActive,
}

impl CaptureReason {
    /// The reason's name, as its JSON rendition spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            CaptureReason::SpecifiedId => "SpecifiedId",
            CaptureReason::RandomSample => "RandomSample",
            CaptureReason::NeighborOfCaptured => "NeighborOfCaptured",
            CaptureReason::VertexValueViolation => "VertexValueViolation",
            CaptureReason::MessageViolation => "MessageViolation",
            CaptureReason::Exception => "Exception",
            CaptureReason::AllActive => "AllActive",
        }
    }
}

/// A type-erased summary of a [`DebugConfig`], recorded in `meta.json`
/// and consumed by `graft-analyzer`'s configuration lints (GA0006–GA0011).
///
/// Constraints and capture ids are reduced to presence/counts because the
/// typed payloads (closures, `C::Id` values) cannot be serialized; the
/// structural fields the lints reason about are carried verbatim.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigFacts {
    /// How many vertex ids the config lists for capture.
    pub num_capture_ids: usize,
    /// Whether neighbors of captured vertices are also captured.
    pub capture_neighbors: bool,
    /// Size of the random capture sample.
    pub num_random: usize,
    /// Whether every active vertex is captured.
    pub capture_all_active: bool,
    /// Whether a vertex-value constraint is installed.
    pub has_vertex_value_constraint: bool,
    /// Whether a message constraint is installed.
    pub has_message_constraint: bool,
    /// Whether exceptions are captured.
    pub catch_exceptions: bool,
    /// The superstep filter, verbatim.
    pub superstep_filter: SuperstepFilter,
    /// The capture safety-net threshold.
    pub max_captures: u64,
    /// Whether master contexts are captured.
    pub capture_master: bool,
    /// The job's superstep limit, when known (filled in by the runner; a
    /// config on its own has no superstep horizon).
    pub max_supersteps: Option<u64>,
    /// The checkpoint interval, when the runner enabled fault tolerance
    /// (`None` means checkpointing is off). Filled in by the runner.
    pub checkpoint_every: Option<u64>,
    /// The engine worker count. Filled in by the runner. (`Option` fields
    /// are implicitly optional to the vendored serde, so meta.json files
    /// written before this field existed still deserialize.)
    pub num_workers: Option<usize>,
    /// The armed fault plan in its spec syntax (`Display` form), when the
    /// runner injects faults. Filled in by the runner.
    pub fault_plan: Option<String>,
    /// The recovery mode the engine was configured with (`"restart"` or
    /// `"log-replay"`), when the runner set one. Filled in by the runner;
    /// absent in meta.json files written before confined recovery existed.
    pub recovery_mode: Option<String>,
    /// Whether the runner streamed live observability snapshots during
    /// the run. Filled in by the runner; absent in older meta.json files.
    pub live_flush: Option<bool>,
    /// Whether an observability handle was attached at all — live
    /// flushing without one is a no-op, which lint GA0017 flags. Filled
    /// in by the runner.
    pub obs_enabled: Option<bool>,
    /// The out-of-core memory budget in bytes, when the runner capped
    /// resident partition + shuffle memory (`None` means fully
    /// in-memory). Filled in by the runner.
    pub memory_budget: Option<u64>,
    /// The estimated serialized footprint of the largest single
    /// partition under hash partitioning, in bytes. Filled in by the
    /// runner only when a memory budget is set; lint GA0018 compares it
    /// against the budget.
    pub est_max_partition_bytes: Option<u64>,
}

/// The assembled debug configuration for a computation `C`.
///
/// Build one with [`DebugConfig::builder`]. The paper's Figure 2 example
/// — capture 5 random vertices with neighbors, plus any vertex sending a
/// negative message — looks like this:
///
/// ```ignore
/// let config = DebugConfig::<RW>::builder()
///     .capture_random(5, 42)
///     .capture_neighbors(true)
///     .message_constraint(|msg, _src, _dst, _ss| msg.walkers >= 0)
///     .build();
/// ```
pub struct DebugConfig<C: Computation> {
    pub(crate) capture_ids: Vec<C::Id>,
    pub(crate) capture_neighbors: bool,
    pub(crate) num_random: usize,
    pub(crate) random_seed: u64,
    pub(crate) capture_all_active: bool,
    pub(crate) vertex_value_constraint: Option<VertexValueConstraint<C>>,
    pub(crate) message_constraint: Option<MessageConstraint<C>>,
    pub(crate) catch_exceptions: bool,
    pub(crate) exception_policy: ExceptionPolicy,
    pub(crate) superstep_filter: SuperstepFilter,
    pub(crate) max_captures: u64,
    pub(crate) capture_master: bool,
}

impl<C: Computation> Clone for DebugConfig<C> {
    fn clone(&self) -> Self {
        Self {
            capture_ids: self.capture_ids.clone(),
            capture_neighbors: self.capture_neighbors,
            num_random: self.num_random,
            random_seed: self.random_seed,
            capture_all_active: self.capture_all_active,
            vertex_value_constraint: self.vertex_value_constraint.clone(),
            message_constraint: self.message_constraint.clone(),
            catch_exceptions: self.catch_exceptions,
            exception_policy: self.exception_policy,
            superstep_filter: self.superstep_filter.clone(),
            max_captures: self.max_captures,
            capture_master: self.capture_master,
        }
    }
}

impl<C: Computation> Default for DebugConfig<C> {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl<C: Computation> DebugConfig<C> {
    /// Starts a builder with paper defaults: nothing captured except
    /// exceptions, all supersteps eligible, a one-million capture safety
    /// net, and abort-on-exception semantics.
    pub fn builder() -> DebugConfigBuilder<C> {
        DebugConfigBuilder {
            config: DebugConfig {
                capture_ids: Vec::new(),
                capture_neighbors: false,
                num_random: 0,
                random_seed: 0x9e3779b97f4a7c15,
                capture_all_active: false,
                vertex_value_constraint: None,
                message_constraint: None,
                catch_exceptions: true,
                exception_policy: ExceptionPolicy::Abort,
                superstep_filter: SuperstepFilter::All,
                max_captures: 1_000_000,
                capture_master: true,
            },
        }
    }

    /// Whether any capture can only be decided *after* `compute()` runs
    /// (constraints, exceptions, capture-all). These configs make the
    /// instrumenter snapshot every vertex's pre-compute state, which is
    /// where most of the measured overhead comes from.
    pub fn has_posthoc_captures(&self) -> bool {
        self.capture_all_active
            || self.vertex_value_constraint.is_some()
            || self.message_constraint.is_some()
            || self.catch_exceptions
    }

    /// Whether this config selects any vertices up front.
    pub fn has_preselected_captures(&self) -> bool {
        !self.capture_ids.is_empty() || self.num_random > 0
    }

    /// One-line-per-feature human description, used by the Table 3
    /// regeneration and the GUI header.
    pub fn describe(&self) -> Vec<String> {
        let mut out = Vec::new();
        if !self.capture_ids.is_empty() {
            out.push(format!(
                "captures {} specified vertices{}",
                self.capture_ids.len(),
                if self.capture_neighbors { " and their neighbors" } else { "" }
            ));
        }
        if self.num_random > 0 {
            out.push(format!(
                "captures {} random vertices{} (seed {})",
                self.num_random,
                if self.capture_neighbors { " and their neighbors" } else { "" },
                self.random_seed
            ));
        }
        if self.capture_all_active {
            out.push("captures all active vertices".to_string());
        }
        if self.vertex_value_constraint.is_some() {
            out.push("checks a vertex value constraint".to_string());
        }
        if self.message_constraint.is_some() {
            out.push("checks a message value constraint".to_string());
        }
        if self.catch_exceptions {
            out.push(format!("captures exceptions ({:?})", self.exception_policy));
        }
        if self.superstep_filter != SuperstepFilter::All {
            out.push(format!("supersteps: {:?}", self.superstep_filter));
        }
        out.push(format!("max captures: {}", self.max_captures));
        out
    }

    /// The type-erased summary of this config, for `meta.json` and the
    /// analyzer's configuration lints. `max_supersteps` is left `None`;
    /// the runner fills it in from the job limit.
    pub fn facts(&self) -> ConfigFacts {
        ConfigFacts {
            num_capture_ids: self.capture_ids.len(),
            capture_neighbors: self.capture_neighbors,
            num_random: self.num_random,
            capture_all_active: self.capture_all_active,
            has_vertex_value_constraint: self.vertex_value_constraint.is_some(),
            has_message_constraint: self.message_constraint.is_some(),
            catch_exceptions: self.catch_exceptions,
            superstep_filter: self.superstep_filter.clone(),
            max_captures: self.max_captures,
            capture_master: self.capture_master,
            max_supersteps: None,
            checkpoint_every: None,
            num_workers: None,
            fault_plan: None,
            recovery_mode: None,
            live_flush: None,
            obs_enabled: None,
            memory_budget: None,
            est_max_partition_bytes: None,
        }
    }
}

impl<C: Computation> fmt::Debug for DebugConfig<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DebugConfig")
            .field("capture_ids", &self.capture_ids)
            .field("capture_neighbors", &self.capture_neighbors)
            .field("num_random", &self.num_random)
            .field("capture_all_active", &self.capture_all_active)
            .field("vertex_value_constraint", &self.vertex_value_constraint.is_some())
            .field("message_constraint", &self.message_constraint.is_some())
            .field("catch_exceptions", &self.catch_exceptions)
            .field("superstep_filter", &self.superstep_filter)
            .field("max_captures", &self.max_captures)
            .finish()
    }
}

/// Fluent builder for [`DebugConfig`].
pub struct DebugConfigBuilder<C: Computation> {
    config: DebugConfig<C>,
}

impl<C: Computation> DebugConfigBuilder<C> {
    /// Capture the vertices with these ids (category 1).
    pub fn capture_ids(mut self, ids: impl IntoIterator<Item = C::Id>) -> Self {
        self.config.capture_ids.extend(ids);
        self
    }

    /// Capture `n` randomly sampled vertices (category 2). The sample is
    /// deterministic in `seed`, so reruns capture the same vertices.
    pub fn capture_random(mut self, n: usize, seed: u64) -> Self {
        self.config.num_random = n;
        self.config.random_seed = seed;
        self
    }

    /// Also capture the neighbors of every specified/random vertex.
    pub fn capture_neighbors(mut self, yes: bool) -> Self {
        self.config.capture_neighbors = yes;
        self
    }

    /// Capture every active vertex (used in the paper's MWM scenario).
    pub fn capture_all_active(mut self, yes: bool) -> Self {
        self.config.capture_all_active = yes;
        self
    }

    /// Install a vertex-value constraint (category 3).
    pub fn vertex_value_constraint<F>(mut self, constraint: F) -> Self
    where
        F: Fn(&C::VValue, &C::Id, u64) -> bool + Send + Sync + 'static,
    {
        self.config.vertex_value_constraint = Some(Arc::new(constraint));
        self
    }

    /// Install a message constraint (category 4).
    pub fn message_constraint<F>(mut self, constraint: F) -> Self
    where
        F: Fn(&C::Message, &C::Id, &C::Id, u64) -> bool + Send + Sync + 'static,
    {
        self.config.message_constraint = Some(Arc::new(constraint));
        self
    }

    /// Enable/disable exception capture (category 5; on by default).
    pub fn catch_exceptions(mut self, yes: bool) -> Self {
        self.config.catch_exceptions = yes;
        self
    }

    /// What happens to the job after an exception is captured.
    pub fn exception_policy(mut self, policy: ExceptionPolicy) -> Self {
        self.config.exception_policy = policy;
        self
    }

    /// Restrict capturing to a subset of supersteps. `Set` filters are
    /// normalized (sorted, deduplicated) so membership is a binary search.
    pub fn supersteps(mut self, filter: SuperstepFilter) -> Self {
        self.config.superstep_filter = filter.normalized();
        self
    }

    /// Adjust the safety-net threshold after which Graft stops capturing.
    pub fn max_captures(mut self, max: u64) -> Self {
        self.config.max_captures = max;
        self
    }

    /// Enable/disable master-context capture (on by default).
    pub fn capture_master(mut self, yes: bool) -> Self {
        self.config.capture_master = yes;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> DebugConfig<C> {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn superstep_filters() {
        assert!(SuperstepFilter::All.matches(0));
        assert!(SuperstepFilter::After(500).matches(500));
        assert!(!SuperstepFilter::After(500).matches(499));
        assert!(SuperstepFilter::Range { from: 2, to: 4 }.matches(4));
        assert!(!SuperstepFilter::Range { from: 2, to: 4 }.matches(5));
        assert!(SuperstepFilter::Set(vec![1, 41]).matches(41));
        assert!(!SuperstepFilter::Set(vec![1, 41]).matches(2));
    }

    #[test]
    fn set_constructor_sorts_and_dedups() {
        let filter = SuperstepFilter::set([41, 1, 7, 41, 1]);
        assert_eq!(filter, SuperstepFilter::Set(vec![1, 7, 41]));
        for superstep in [1, 7, 41] {
            assert!(filter.matches(superstep));
        }
        for superstep in [0, 2, 40, 42, u64::MAX] {
            assert!(!filter.matches(superstep));
        }
    }

    #[test]
    fn builder_normalizes_unsorted_sets() {
        let config = DebugConfig::<Dummy>::builder()
            .supersteps(SuperstepFilter::Set(vec![9, 3, 9, 5]))
            .build();
        assert_eq!(config.superstep_filter, SuperstepFilter::Set(vec![3, 5, 9]));
        assert!(config.superstep_filter.matches(5));
    }

    #[test]
    fn empty_set_matches_nothing() {
        let filter = SuperstepFilter::set(std::iter::empty());
        assert!(filter.selects_none());
        assert_eq!(filter.earliest(), None);
        for superstep in [0, 1, 500, u64::MAX] {
            assert!(!filter.matches(superstep));
        }
    }

    #[test]
    fn inverted_range_matches_nothing() {
        let filter = SuperstepFilter::Range { from: 10, to: 2 };
        assert!(filter.selects_none());
        assert_eq!(filter.earliest(), None);
        for superstep in [0, 2, 5, 10, u64::MAX] {
            assert!(!filter.matches(superstep));
        }
        assert!(!SuperstepFilter::Range { from: 2, to: 10 }.selects_none());
        assert_eq!(SuperstepFilter::Range { from: 2, to: 10 }.earliest(), Some(2));
    }

    #[test]
    fn facts_summarize_the_config() {
        let config = DebugConfig::<Dummy>::builder()
            .capture_ids([672, 673])
            .capture_neighbors(true)
            .message_constraint(|msg, _, _, _| *msg >= 0)
            .supersteps(SuperstepFilter::set([4, 2]))
            .max_captures(99)
            .build();
        let facts = config.facts();
        assert_eq!(facts.num_capture_ids, 2);
        assert!(facts.capture_neighbors);
        assert!(!facts.has_vertex_value_constraint);
        assert!(facts.has_message_constraint);
        assert_eq!(facts.superstep_filter, SuperstepFilter::Set(vec![2, 4]));
        assert_eq!(facts.max_captures, 99);
        assert_eq!(facts.max_supersteps, None);
    }

    #[test]
    fn builder_collects_all_features() {
        let config = DebugConfig::<Dummy>::builder()
            .capture_ids([672, 673])
            .capture_random(5, 7)
            .capture_neighbors(true)
            .vertex_value_constraint(|value, _, _| *value >= 0)
            .message_constraint(|msg, _, _, _| *msg >= 0)
            .supersteps(SuperstepFilter::After(10))
            .max_captures(99)
            .build();
        assert_eq!(config.capture_ids, vec![672, 673]);
        assert!(config.capture_neighbors);
        assert_eq!(config.num_random, 5);
        assert!(config.has_posthoc_captures());
        assert!(config.has_preselected_captures());
        assert_eq!(config.max_captures, 99);
        let description = config.describe().join("; ");
        assert!(description.contains("2 specified"));
        assert!(description.contains("5 random"));
        assert!(description.contains("message value constraint"));
    }

    #[test]
    fn default_config_only_catches_exceptions() {
        let config = DebugConfig::<Dummy>::default();
        assert!(!config.has_preselected_captures());
        assert!(config.catch_exceptions);
        assert!(config.has_posthoc_captures());
        assert_eq!(config.exception_policy, ExceptionPolicy::Abort);
    }

    #[test]
    fn constraints_evaluate() {
        let config = DebugConfig::<Dummy>::builder()
            .message_constraint(|msg, _src, _dst, _ss| *msg >= 0)
            .build();
        let c = config.message_constraint.as_ref().unwrap();
        assert!(c(&5, &1, &2, 0));
        assert!(!c(&-5, &1, &2, 0));
    }

    #[test]
    fn reason_names_are_their_json_text() {
        use CaptureReason::*;
        for reason in [
            SpecifiedId,
            RandomSample,
            NeighborOfCaptured,
            VertexValueViolation,
            MessageViolation,
            Exception,
            AllActive,
        ] {
            let json = serde_json::to_value(&reason).unwrap();
            assert_eq!(json, serde_json::Value::String(reason.as_str().into()), "{reason:?}");
        }
    }
}
