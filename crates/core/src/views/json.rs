//! JSON serialization of the three views over type-erased traces — the
//! single source of truth shared by `graft-cli --format json` and every
//! `graft-server` endpoint, so the bytes a script scrapes from the CLI
//! are exactly the bytes the debug server sends over HTTP.
//!
//! Every renderer returns a serde struct; [`to_line`] turns it into the
//! canonical wire form — compact JSON, an object's keys in the order the
//! `serde_json` stand-in's crate docs state (byte order of the key), one
//! trailing newline. The structs here declare their fields in that
//! order, so the writer never has to reorder one. Both consumers must
//! emit the string untouched (`print!` in the CLI, the response body on
//! the server); the byte-equality is asserted in `cli_e2e.rs` and the
//! server tests.
//!
//! The listing views — node-link, tabular — read a [`RowDigest`] a row,
//! skimmed from the payload; only what shows a whole record (the
//! violations view, reproducers) decodes rows into records.

use std::collections::HashSet;
use std::sync::Arc;

use graft_pregel::GlobalData;
use serde::Serialize;

use crate::session::Indicators;
use crate::trace::{JobMeta, JobResultRecord, RowDigest};
use crate::untyped::{JobSummary, UntypedSession};
use crate::views::violations::{capture_rows, ViolationRow};

/// Renders a view value in the canonical wire form: compact JSON plus a
/// trailing newline.
pub fn to_line<T: Serialize>(value: &T) -> String {
    let mut line = serde_json::to_string(value).expect("view structs serialize infallibly");
    line.push('\n');
    line
}

/// One job in the `/jobs` listing / `graft-cli info`.
#[derive(Clone, Debug, Serialize)]
pub struct JobJson {
    /// Computation name from the job metadata.
    pub computation: String,
    /// The job id (its directory name under the trace root).
    pub id: String,
    /// Master computation name, if any.
    pub master: Option<String>,
    /// Terminal status, if the job finished.
    pub result: Option<ResultJson>,
    /// Supersteps that captured at least one context.
    pub supersteps: Vec<u64>,
    /// Total captured contexts.
    pub total_captures: usize,
    /// Workers the job ran with.
    pub workers: usize,
}

/// Terminal job status.
#[derive(Clone, Debug, Serialize)]
pub struct ResultJson {
    /// Whether the capture safety net tripped.
    pub capture_limit_hit: bool,
    /// Total vertex contexts captured.
    pub captures: u64,
    /// `None` on success, the engine error text otherwise.
    pub error: Option<String>,
    /// Total exceptions recorded.
    pub exceptions: u64,
    /// Supersteps fully executed.
    pub supersteps_executed: u64,
    /// Total constraint violations recorded.
    pub violations: u64,
}

/// The M/V/E indicator boxes as JSON.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct IndicatorsJson {
    /// "E" box red: an exception was raised.
    pub exception: bool,
    /// "M" box red: a message constraint was violated.
    pub message_violation: bool,
    /// "V" box red: a vertex-value constraint was violated.
    pub value_violation: bool,
}

impl From<Indicators> for IndicatorsJson {
    fn from(ind: Indicators) -> Self {
        Self {
            message_violation: ind.message_violation,
            value_violation: ind.value_violation,
            exception: ind.exception,
        }
    }
}

/// One superstep in the `/jobs/{id}/supersteps` listing.
#[derive(Clone, Debug, Serialize)]
pub struct SuperstepJson {
    /// Its M/V/E indicator state.
    pub indicators: IndicatorsJson,
    /// Captured contexts in it.
    pub rows: usize,
    /// The superstep number.
    pub superstep: u64,
}

/// The superstep listing of one job.
#[derive(Clone, Debug, Serialize)]
pub struct SuperstepsJson {
    /// Computation name, for display.
    pub computation: String,
    /// One entry per captured superstep, ascending.
    pub supersteps: Vec<SuperstepJson>,
}

/// One node of the node-link view (paper Figure 3).
#[derive(Clone, Debug, Serialize)]
pub struct NodeJson {
    /// Whether the vertex is active (inactive nodes are dimmed).
    pub active: bool,
    /// Whether the vertex was captured (stubs are drawn small).
    pub captured: bool,
    /// Whether the vertex violated a constraint or raised an exception.
    pub flagged: bool,
    /// The vertex id, rendered; shared with the node's links.
    pub id: Arc<str>,
    /// The vertex value after compute (`None` for stub neighbors).
    pub value: Option<String>,
}

/// One link of the node-link view.
#[derive(Clone, Debug, Serialize)]
pub struct LinkJson {
    /// Source vertex id, rendered.
    pub from: Arc<str>,
    /// Edge value, rendered; empty for unit-valued edges.
    pub label: String,
    /// Target vertex id, rendered.
    pub to: String,
}

/// The default global data shown in the view's corner.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct GlobalJson {
    /// Total edges in the graph.
    pub num_edges: u64,
    /// Total vertices in the graph.
    pub num_vertices: u64,
    /// The superstep the vertices observed.
    pub superstep: u64,
}

/// The node-link view of one superstep.
#[derive(Clone, Debug, Serialize)]
pub struct NodeLinkJson {
    /// Aggregator `(name, rendered value)` pairs of the first capture.
    pub aggregators: Vec<(String, String)>,
    /// Global data, if any context was captured.
    pub global: Option<GlobalJson>,
    /// The M/V/E indicator boxes.
    pub indicators: IndicatorsJson,
    /// Links, sorted by `(from, to)`.
    pub links: Vec<LinkJson>,
    /// Captured vertices in full, uncaptured neighbors as stubs; sorted
    /// captured-first, then by id.
    pub nodes: Vec<NodeJson>,
    /// The displayed superstep.
    pub superstep: u64,
}

/// One row of the tabular view (paper Figure 4).
#[derive(Clone, Debug, Serialize)]
pub struct RowJson {
    /// Incoming message count.
    pub incoming: usize,
    /// Outgoing message count.
    pub outgoing: usize,
    /// Capture reasons, rendered.
    pub reasons: Vec<String>,
    /// `"halted"` or `"active"`.
    pub state: &'static str,
    /// The value after compute, rendered.
    pub value_after: String,
    /// The value at compute entry, rendered.
    pub value_before: String,
    /// The vertex id, rendered.
    pub vertex: String,
}

/// One page of the tabular view, with server-side search.
#[derive(Clone, Debug, Serialize)]
pub struct TabularJson {
    /// Rows matching the query (equals `total_rows` without one).
    pub matching_rows: usize,
    /// The 1-based page number.
    pub page: usize,
    /// Rows per page.
    pub per_page: usize,
    /// The search query applied, if any.
    pub query: Option<String>,
    /// The rows of this page, in vertex order.
    pub rows: Vec<RowJson>,
    /// The displayed superstep.
    pub superstep: u64,
    /// Pages the matching rows span (at least 1).
    pub total_pages: usize,
    /// Captured contexts in the superstep, pre-search.
    pub total_rows: usize,
}

/// The violations view (paper Figure 5), optionally restricted to one
/// superstep.
#[derive(Clone, Debug, Serialize)]
pub struct ViolationsJson {
    /// Violation/exception rows, ordered by superstep then vertex.
    pub rows: Vec<ViolationRow>,
    /// The superstep filter, if any.
    pub superstep: Option<u64>,
}

/// The `/jobs` listing / `graft-cli info` document for one job.
pub fn job_json(id: &str, session: &UntypedSession) -> JobJson {
    job_doc(id, session.meta(), session.supersteps(), session.total_captures(), session.result())
}

/// [`job_json`] built from a listing-only [`JobSummary`] instead of a
/// fully parsed session — same document, byte for byte (asserted in the
/// server tests), without paying for a row index.
pub fn job_summary_json(id: &str, summary: &JobSummary) -> JobJson {
    job_doc(id, summary.meta(), summary.supersteps(), summary.total_captures(), summary.result())
}

fn job_doc(
    id: &str,
    meta: &JobMeta,
    supersteps: Vec<u64>,
    total_captures: usize,
    result: Option<&JobResultRecord>,
) -> JobJson {
    JobJson {
        id: id.to_string(),
        computation: meta.computation.clone(),
        master: meta.master.clone(),
        workers: meta.num_workers,
        supersteps,
        total_captures,
        result: result.map(|r| ResultJson {
            supersteps_executed: r.supersteps_executed,
            error: r.error.clone(),
            captures: r.captures,
            violations: r.violations,
            exceptions: r.exceptions,
            capture_limit_hit: r.capture_limit_hit,
        }),
    }
}

/// The `/jobs/{id}/supersteps` document.
pub fn supersteps_json(session: &UntypedSession) -> SuperstepsJson {
    SuperstepsJson {
        computation: session.meta().computation.clone(),
        supersteps: session
            .supersteps()
            .into_iter()
            .map(|ss| SuperstepJson {
                superstep: ss,
                rows: session.count_at(ss),
                indicators: session.indicators(ss).into(),
            })
            .collect(),
    }
}

/// The node-link view of one superstep: captured vertices in full, their
/// uncaptured neighbors as stubs — the type-erased twin of
/// `NodeLinkView::layout`, with the same ordering. Rows arrive sorted by
/// id, so nodes and links are built in output order.
pub fn node_link_json(session: &UntypedSession, superstep: u64) -> NodeLinkJson {
    // The aggregators are the one thing shown that a digest does not keep.
    let first = session.traces_at(superstep).next();
    let mut global = None;
    let mut nodes: Vec<NodeJson> = Vec::new();
    let mut links: Vec<LinkJson> = Vec::new();
    // Where the links of the rows sharing the current id begin.
    let mut group_at = 0;
    let by_target = |a: &LinkJson, b: &LinkJson| a.to.cmp(&b.to);
    for row in session.digests(superstep, 0, usize::MAX, true) {
        let GlobalData { superstep: at, num_vertices, num_edges } = row.global;
        global.get_or_insert(GlobalJson { num_edges, num_vertices, superstep: at });
        let id: Arc<str> = row.vertex.into();
        if nodes.last().is_some_and(|node| node.id == id) {
            // A later capture of the same vertex replaces the node; the
            // links of both stay.
            nodes.pop();
        } else {
            links[group_at..].sort_by(by_target);
            group_at = links.len();
        }
        nodes.push(NodeJson {
            active: !row.halted_after,
            captured: true,
            flagged: row.flags != 0,
            id: Arc::clone(&id),
            value: Some(row.value_after),
        });
        links.extend(row.edges.into_iter().map(|(to, value)| {
            // Unit edge values arrive as JSON null ("null"); the typed
            // renderer suppresses its "()" the same way.
            let label = if value == "null" || value == "()" { String::new() } else { value };
            LinkJson { from: Arc::clone(&id), label, to }
        }));
    }
    links[group_at..].sort_by(by_target);
    // Stubs: the targets nobody captured, once each, after the captured.
    let captured: HashSet<&str> = nodes.iter().map(|node| &*node.id).collect();
    let mut stubs: Vec<&str> =
        links.iter().map(|link| link.to.as_str()).filter(|to| !captured.contains(to)).collect();
    stubs.sort_unstable();
    stubs.dedup();
    nodes.extend(stubs.into_iter().map(|id| NodeJson {
        active: true,
        captured: false,
        flagged: false,
        id: id.into(),
        value: None,
    }));
    NodeLinkJson {
        aggregators: first.map(|trace| trace.aggregators()).unwrap_or_default(),
        global,
        indicators: session.indicators(superstep).into(),
        links,
        nodes,
        superstep,
    }
}

fn row_json(row: RowDigest) -> RowJson {
    RowJson {
        incoming: row.incoming,
        outgoing: row.outgoing,
        reasons: row.reasons,
        state: if row.halted_after { "halted" } else { "active" },
        value_after: row.value_after,
        value_before: row.value_before,
        vertex: row.vertex,
    }
}

fn matches_query(row: &RowDigest, query: &str) -> bool {
    row.vertex.contains(query)
        || row.value_before.contains(query)
        || row.value_after.contains(query)
        || row.reasons.iter().any(|r| r.contains(query))
}

/// Upper bound on `per_page`: one response parses at most this many rows,
/// no matter what the query string asks for.
pub const MAX_PER_PAGE: usize = 1_000;

/// One page of the tabular view with server-side search. `page` is
/// 1-based; without a query only the page's rows are read.
pub fn tabular_json(
    session: &UntypedSession,
    superstep: u64,
    query: Option<&str>,
    page: usize,
    per_page: usize,
) -> TabularJson {
    let per_page = per_page.clamp(1, MAX_PER_PAGE);
    let page = page.max(1);
    let total_rows = session.count_at(superstep);
    // Both parameters come straight off the URL; a saturating offset turns
    // an absurd page into an empty one instead of overflowing.
    let offset = page.saturating_sub(1).saturating_mul(per_page);
    let (matching_rows, rows) = match query {
        None | Some("") => {
            let rows = session.digests(superstep, offset, per_page, false);
            (total_rows, rows.map(row_json).collect())
        }
        Some(q) => {
            let mut matching = 0usize;
            let mut rows = Vec::new();
            let all = session.digests(superstep, 0, usize::MAX, false);
            for row in all.filter(|row| matches_query(row, q)) {
                if matching >= offset && rows.len() < per_page {
                    rows.push(row_json(row));
                }
                matching += 1;
            }
            (matching, rows)
        }
    };
    TabularJson {
        superstep,
        query: query.filter(|q| !q.is_empty()).map(str::to_string),
        page,
        per_page,
        total_rows,
        matching_rows,
        total_pages: matching_rows.div_ceil(per_page).max(1),
        rows,
    }
}

/// The violations view, optionally restricted to one superstep: the rows
/// the typed view shows, read off the flagged rows' records.
pub fn violations_json(session: &UntypedSession, superstep: Option<u64>) -> ViolationsJson {
    let supersteps: Vec<u64> = match superstep {
        Some(ss) => vec![ss],
        None => session.supersteps(),
    };
    let mut rows = Vec::new();
    for ss in supersteps {
        for trace in session.flagged_at(ss) {
            let (vertex, record) = (trace.vertex(), trace.record());
            rows.extend(capture_rows(ss, &vertex, &record.violations, &record.exception));
        }
    }
    ViolationsJson { superstep, rows }
}

/// The reproducer source for one captured context, if it exists — the
/// `/jobs/{id}/repro/{vertex}/{ss}` download.
pub fn repro_source(session: &UntypedSession, vertex: &str, superstep: u64) -> Option<String> {
    session
        .vertex_at(superstep, vertex)
        .map(|trace| crate::reproduce::untyped_test_source(&trace, session.meta()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::premade;
    use crate::{DebugConfig, GraftRunner};
    use graft_pregel::{Computation, ContextOf, VertexHandleOf};
    use std::sync::Arc;

    struct Failing;
    impl Computation for Failing {
        type Id = u64;
        type VValue = i64;
        type EValue = ();
        type Message = i64;
        fn compute(
            &self,
            vertex: &mut VertexHandleOf<'_, Self>,
            _messages: &[i64],
            ctx: &mut ContextOf<'_, Self>,
        ) {
            if ctx.superstep() == 1 && vertex.id() == 2 {
                panic!("vertex 2 exploded");
            }
            vertex.set_value(*vertex.value() + 1);
            if ctx.superstep() < 2 {
                ctx.send_message_to_all_edges(vertex, *vertex.value());
            } else {
                vertex.vote_to_halt();
            }
        }
    }

    fn session() -> UntypedSession {
        let config = DebugConfig::<Failing>::builder()
            .capture_all_active(true)
            .message_constraint(|m, _, _, _| *m < 2)
            .build();
        let run = GraftRunner::new(Failing, config)
            .num_workers(2)
            .run(premade::cycle(6, 0i64), "/t/json-views")
            .unwrap();
        UntypedSession::open(run.fs().clone(), "/t/json-views").unwrap()
    }

    #[test]
    fn documents_are_compact_single_lines() {
        let s = session();
        for line in [
            to_line(&job_json("json-views", &s)),
            to_line(&supersteps_json(&s)),
            to_line(&node_link_json(&s, 0)),
            to_line(&tabular_json(&s, 0, None, 1, 3)),
            to_line(&violations_json(&s, None)),
        ] {
            assert!(line.ends_with('\n'));
            assert_eq!(line.matches('\n').count(), 1, "one trailing newline only");
            serde_json::from_str::<serde_json::Value>(line.trim_end()).expect("valid JSON");
        }
    }

    #[test]
    fn node_link_marks_flags_and_unit_edges() {
        let s = session();
        let view = node_link_json(&s, 1);
        let exploded = view.nodes.iter().find(|n| &*n.id == "2").expect("vertex 2 present");
        assert!(exploded.flagged, "exception flags the node");
        assert!(view.links.iter().all(|l| l.label.is_empty()), "unit edges have no label");
        assert!(view.indicators.exception);
        assert!(view.global.is_some());
    }

    #[test]
    fn tabular_search_and_pagination_agree_with_full_listing() {
        let s = session();
        let full = tabular_json(&s, 0, None, 1, 100);
        assert_eq!(full.total_rows, 6);
        assert_eq!(full.matching_rows, 6);
        assert_eq!(full.rows.len(), 6);

        let page2 = tabular_json(&s, 0, None, 2, 4);
        assert_eq!(page2.rows.len(), 2);
        assert_eq!(page2.total_pages, 2);
        assert_eq!(
            page2.rows.iter().map(|r| r.vertex.clone()).collect::<Vec<_>>(),
            full.rows[4..].iter().map(|r| r.vertex.clone()).collect::<Vec<_>>(),
        );

        let searched = tabular_json(&s, 0, Some("5"), 1, 100);
        assert!(searched.matching_rows < full.matching_rows);
        assert!(searched.rows.iter().all(|r| {
            r.vertex.contains('5') || r.value_before.contains('5') || r.value_after.contains('5')
        }));
    }

    #[test]
    fn tabular_survives_hostile_page_and_per_page() {
        let s = session();
        // page/per_page come off the URL unchecked; the extremes must not
        // overflow the offset computation — just produce an empty page.
        let wild = tabular_json(&s, 0, None, usize::MAX, usize::MAX);
        assert!(wild.rows.is_empty());
        assert_eq!(wild.per_page, MAX_PER_PAGE, "per_page is clamped");
        let wild_search = tabular_json(&s, 0, Some("5"), usize::MAX, 2);
        assert!(wild_search.rows.is_empty());
        assert_eq!(tabular_json(&s, 0, None, 1, usize::MAX).rows.len(), 6);
    }

    #[test]
    fn violations_include_exception_backtrace_rows() {
        let s = session();
        let all = violations_json(&s, None);
        assert!(all.rows.iter().any(|r| r.kind == "exception" && r.vertex == "2"));
        assert!(all.rows.iter().any(|r| r.kind == "message"));
        let only_ss1 = violations_json(&s, Some(1));
        assert!(only_ss1.rows.iter().all(|r| r.superstep == 1));
    }

    #[test]
    fn repro_source_renders_for_captured_vertices_only() {
        let s = session();
        let source = repro_source(&s, "1", 0).expect("vertex 1 captured in superstep 0");
        assert!(source.contains("reproduce_vertex_1_superstep_0"));
        assert!(source.contains("VertexTestHarness"));
        assert!(repro_source(&s, "99", 0).is_none());
    }

    #[test]
    fn untyped_session_is_shareable_across_threads() {
        // The server keeps parsed sessions in an LRU shared by its worker
        // pool; this fails to compile if UntypedSession loses Send + Sync.
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let s = Arc::new(session());
        assert_send_sync(&s);
    }
}
