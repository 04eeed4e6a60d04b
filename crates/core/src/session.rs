//! The debug session: loads a run's traces as typed records and supports
//! the superstep-by-superstep inspection workflow of the Graft GUI —
//! stepping, indicators, search and reproduction. The views themselves
//! are documents over an [`UntypedSession`](crate::untyped::UntypedSession)
//! (see [`crate::views`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use graft_dfs::{FileSystem, FsError};
use graft_pregel::Computation;

use crate::reproduce::{ReproducedContext, ReproducedMaster};
use crate::trace::{
    decode_master_records, decode_vertex_records, master_trace_path, meta_path, native_channel,
    result_path, worker_trace_path, ChannelKind, JobMeta, JobResultRecord, MasterTrace,
    TraceReadError, VertexTraceOf,
};

/// Errors from opening or querying a debug session.
#[derive(Debug)]
pub enum SessionError {
    /// The trace file system failed.
    Fs(FsError),
    /// A trace file could not be decoded.
    Decode {
        /// Which file failed.
        path: String,
        /// What the decoder made of it.
        error: TraceReadError,
    },
    /// No capture exists for the requested vertex and superstep.
    NoSuchCapture {
        /// The requested vertex (rendered).
        vertex: String,
        /// The requested superstep.
        superstep: u64,
    },
    /// No master context was captured for the requested superstep.
    NoMasterCapture(u64),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Fs(e) => write!(f, "trace file system error: {e}"),
            SessionError::Decode { path, error } => write!(f, "cannot decode {path}: {error}"),
            SessionError::NoSuchCapture { vertex, superstep } => {
                write!(f, "no capture for vertex {vertex} in superstep {superstep}")
            }
            SessionError::NoMasterCapture(s) => {
                write!(f, "no master capture for superstep {s}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl SessionError {
    /// The file at `path` could not be decoded, for the reason `error`.
    pub(crate) fn decode(path: impl Into<String>, error: impl Into<TraceReadError>) -> Self {
        SessionError::Decode { path: path.into(), error: error.into() }
    }
}

impl From<FsError> for SessionError {
    fn from(e: FsError) -> Self {
        SessionError::Fs(e)
    }
}

/// Reads and parses the JSON document at `path`.
pub(crate) fn read_json<T: serde::de::DeserializeOwned>(
    fs: &dyn FileSystem,
    path: &str,
) -> Result<T, SessionError> {
    let bytes = fs.read_all(path)?;
    serde_json::from_slice(&bytes).map_err(|e| SessionError::decode(path, e))
}

/// The `kind` channel at `path` of the job `meta` describes, through the
/// door ([`native_channel`]): its v3 bytes, none if the job wrote no such
/// file.
pub(crate) fn read_channel(
    fs: &dyn FileSystem,
    path: &str,
    meta: &JobMeta,
    kind: ChannelKind,
    torn_tail_ok: bool,
) -> Result<Vec<u8>, SessionError> {
    if !fs.exists(path) {
        return Ok(Vec::new());
    }
    let bytes = fs.read_all(path)?;
    native_channel(meta.format(), kind, bytes, torn_tail_ok)
        .map_err(|e| SessionError::decode(path, e))
}

/// The terminal status of the job under `root`, if it has written one.
pub(crate) fn read_result(
    fs: &dyn FileSystem,
    root: &str,
) -> Result<Option<JobResultRecord>, SessionError> {
    let path = result_path(root);
    fs.exists(&path).then(|| read_json(fs, &path)).transpose()
}

/// The red/green M, V, E indicator boxes of the GUI (Figure 3): whether
/// any message violation, vertex-value violation, or exception occurred
/// in a given superstep. Served as is, so its fields are declared in key
/// order (see [`crate::views::json`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct Indicators {
    /// An exception was raised ("E" box red).
    pub exception: bool,
    /// A message constraint was violated ("M" box red).
    pub message_violation: bool,
    /// A vertex-value constraint was violated ("V" box red).
    pub value_violation: bool,
}

impl Indicators {
    /// True when all three boxes are green.
    pub fn all_green(&self) -> bool {
        !self.message_violation && !self.value_violation && !self.exception
    }
}

/// Text search over captured contexts (the Tabular view's search box).
#[derive(Clone, Debug, Default)]
pub struct SearchQuery {
    /// Match the vertex id (rendered with `Display`).
    pub id: Option<String>,
    /// Match any out-neighbor's id.
    pub neighbor: Option<String>,
    /// Substring of the `Debug`-rendered vertex value (before or after).
    pub value_contains: Option<String>,
    /// Substring of any `Debug`-rendered sent message.
    pub sent_contains: Option<String>,
    /// Substring of any `Debug`-rendered received message.
    pub received_contains: Option<String>,
}

impl SearchQuery {
    /// Query matching a vertex id exactly.
    pub fn by_id(id: impl std::fmt::Display) -> Self {
        Self { id: Some(id.to_string()), ..Self::default() }
    }

    /// Query matching vertices adjacent to `id`.
    pub fn by_neighbor(id: impl std::fmt::Display) -> Self {
        Self { neighbor: Some(id.to_string()), ..Self::default() }
    }

    /// Query matching a substring of the vertex value.
    pub fn value_contains(s: impl Into<String>) -> Self {
        Self { value_contains: Some(s.into()), ..Self::default() }
    }

    /// Whether `trace` satisfies every populated criterion.
    pub fn matches<C: Computation>(&self, trace: &VertexTraceOf<C>) -> bool {
        if let Some(id) = &self.id {
            if trace.vertex.to_string() != *id {
                return false;
            }
        }
        if let Some(neighbor) = &self.neighbor {
            if !trace.edges.iter().any(|(t, _)| t.to_string() == *neighbor) {
                return false;
            }
        }
        if let Some(needle) = &self.value_contains {
            let before = format!("{:?}", trace.value_before);
            let after = format!("{:?}", trace.value_after);
            if !before.contains(needle.as_str()) && !after.contains(needle.as_str()) {
                return false;
            }
        }
        if let Some(needle) = &self.sent_contains {
            if !trace.outgoing.iter().any(|(_, m)| format!("{m:?}").contains(needle.as_str())) {
                return false;
            }
        }
        if let Some(needle) = &self.received_contains {
            if !trace.incoming.iter().any(|m| format!("{m:?}").contains(needle.as_str())) {
                return false;
            }
        }
        true
    }
}

/// A loaded Graft run: every captured vertex context grouped by
/// superstep, the master traces, and the job metadata/result.
pub struct DebugSession<C: Computation> {
    meta: JobMeta,
    result: Option<JobResultRecord>,
    by_superstep: BTreeMap<u64, Vec<VertexTraceOf<C>>>,
    master: BTreeMap<u64, MasterTrace>,
}

impl<C: Computation> DebugSession<C> {
    /// Loads the traces a [`crate::GraftRunner`] wrote under `root`.
    pub fn open(fs: Arc<dyn FileSystem>, root: &str) -> Result<Self, SessionError> {
        let meta: JobMeta = read_json(fs.as_ref(), &meta_path(root))?;

        let mut by_superstep: BTreeMap<u64, Vec<VertexTraceOf<C>>> = BTreeMap::new();
        for worker in 0..meta.num_workers {
            let path = worker_trace_path(root, worker);
            let bytes = read_channel(fs.as_ref(), &path, &meta, ChannelKind::Worker, false)?;
            let records: Vec<VertexTraceOf<C>> =
                decode_vertex_records(&bytes).map_err(|e| SessionError::decode(path, e))?;
            for record in records {
                by_superstep.entry(record.superstep).or_default().push(record);
            }
        }
        for traces in by_superstep.values_mut() {
            traces.sort_by_key(|a| a.vertex);
        }

        let path = master_trace_path(root);
        let bytes = read_channel(fs.as_ref(), &path, &meta, ChannelKind::Master, false)?;
        let records =
            decode_master_records(&bytes, None).map_err(|e| SessionError::decode(path, e))?;
        let master = records.into_iter().map(|record| (record.superstep, record)).collect();

        let result = read_result(fs.as_ref(), root)?;

        Ok(Self { meta, result, by_superstep, master })
    }

    /// Job metadata.
    pub fn meta(&self) -> &JobMeta {
        &self.meta
    }

    /// Terminal job status, if the job finished.
    pub fn result(&self) -> Option<&JobResultRecord> {
        self.result.as_ref()
    }

    /// The supersteps that have at least one capture, in order.
    pub fn supersteps(&self) -> Vec<u64> {
        self.by_superstep.keys().copied().collect()
    }

    /// Total captured contexts.
    pub fn total_captures(&self) -> usize {
        self.by_superstep.values().map(Vec::len).sum()
    }

    /// Captures in `superstep`, sorted by vertex id.
    pub fn captured_at(&self, superstep: u64) -> &[VertexTraceOf<C>] {
        self.by_superstep.get(&superstep).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The capture of one vertex in one superstep.
    pub fn vertex_at(&self, vertex: C::Id, superstep: u64) -> Option<&VertexTraceOf<C>> {
        self.captured_at(superstep).iter().find(|t| t.vertex == vertex)
    }

    /// Every capture in the session, superstep-ordered then vertex-ordered.
    /// This is the analyzer's raw material: the observed message pool for
    /// algebraic combiner checks and the replay corpus for the
    /// message-order race detector.
    pub fn all_traces(&self) -> impl Iterator<Item = &VertexTraceOf<C>> {
        self.by_superstep.values().flat_map(|traces| traces.iter())
    }

    /// Every capture of `vertex`, across supersteps in order — the
    /// "replay the algorithm's effects superstep by superstep" workflow.
    pub fn history(&self, vertex: C::Id) -> Vec<&VertexTraceOf<C>> {
        self.by_superstep
            .values()
            .flat_map(|traces| traces.iter().filter(|t| t.vertex == vertex))
            .collect()
    }

    /// The first captured superstep, if any.
    pub fn first_superstep(&self) -> Option<u64> {
        self.by_superstep.keys().next().copied()
    }

    /// The last captured superstep, if any.
    pub fn last_superstep(&self) -> Option<u64> {
        self.by_superstep.keys().next_back().copied()
    }

    /// The next captured superstep after `superstep` (the GUI's "Next
    /// superstep" button).
    pub fn next_superstep(&self, superstep: u64) -> Option<u64> {
        self.by_superstep.range(superstep + 1..).next().map(|(s, _)| *s)
    }

    /// The previous captured superstep (the "Previous superstep" button).
    pub fn prev_superstep(&self, superstep: u64) -> Option<u64> {
        self.by_superstep.range(..superstep).next_back().map(|(s, _)| *s)
    }

    /// The M/V/E indicator state for one superstep.
    pub fn indicators(&self, superstep: u64) -> Indicators {
        let mut ind = Indicators::default();
        for trace in self.captured_at(superstep) {
            for violation in &trace.violations {
                match violation.kind {
                    crate::trace::ViolationKind::Message => ind.message_violation = true,
                    crate::trace::ViolationKind::VertexValue => ind.value_violation = true,
                }
            }
            if trace.exception.is_some() {
                ind.exception = true;
            }
        }
        ind
    }

    /// All captures with at least one constraint violation.
    pub fn violations(&self) -> Vec<&VertexTraceOf<C>> {
        self.by_superstep
            .values()
            .flat_map(|traces| traces.iter().filter(|t| !t.violations.is_empty()))
            .collect()
    }

    /// All captures whose `compute()` raised an exception.
    pub fn exceptions(&self) -> Vec<&VertexTraceOf<C>> {
        self.by_superstep
            .values()
            .flat_map(|traces| traces.iter().filter(|t| t.exception.is_some()))
            .collect()
    }

    /// Searches captures (optionally restricted to one superstep).
    pub fn search(&self, superstep: Option<u64>, query: &SearchQuery) -> Vec<&VertexTraceOf<C>> {
        match superstep {
            Some(s) => self.captured_at(s).iter().filter(|t| query.matches::<C>(t)).collect(),
            None => self
                .by_superstep
                .values()
                .flat_map(|traces| traces.iter().filter(|t| query.matches::<C>(t)))
                .collect(),
        }
    }

    /// Captured master contexts by superstep.
    pub fn master_traces(&self) -> impl Iterator<Item = &MasterTrace> {
        self.master.values()
    }

    /// The master context before `superstep`.
    pub fn master_at(&self, superstep: u64) -> Option<&MasterTrace> {
        self.master.get(&superstep)
    }

    /// The "Reproduce Vertex Context" button: a handle that can replay
    /// the captured compute call in-process or generate test source.
    pub fn reproduce_vertex(
        &self,
        vertex: C::Id,
        superstep: u64,
    ) -> Result<ReproducedContext<C>, SessionError> {
        let trace = self
            .vertex_at(vertex, superstep)
            .ok_or_else(|| SessionError::NoSuchCapture { vertex: vertex.to_string(), superstep })?;
        Ok(ReproducedContext::new(trace.clone(), self.meta.clone()))
    }

    /// The "Reproduce Master Context" button.
    pub fn reproduce_master(&self, superstep: u64) -> Result<ReproducedMaster, SessionError> {
        let trace = self.master_at(superstep).ok_or(SessionError::NoMasterCapture(superstep))?;
        Ok(ReproducedMaster::new(trace.clone(), self.meta.clone()))
    }
}
