//! JSON serialization of the three views over type-erased traces — the
//! single source of truth shared by `graft-cli --format json` and every
//! `graft-server` endpoint, so the bytes a script scrapes from the CLI
//! are exactly the bytes the debug server sends over HTTP.
//!
//! Every renderer returns a serde struct; [`to_line`] turns it into the
//! canonical wire form — compact JSON, declaration-order fields, one
//! trailing newline. Both consumers must emit that string untouched
//! (`print!` in the CLI, the response body on the server); the
//! byte-equality is asserted in `cli_e2e.rs` and the server tests.

use serde::Serialize;

use crate::session::Indicators;
use crate::trace::{JobMeta, JobResultRecord};
use crate::untyped::{JobSummary, UntypedSession, UntypedTrace};

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
    /// The job id (its directory name under the trace root).
    pub id: String,
    /// Computation name from the job metadata.
    pub computation: String,
    /// Master computation name, if any.
    pub master: Option<String>,
    /// Workers the job ran with.
    pub workers: usize,
    /// Supersteps that captured at least one context.
    pub supersteps: Vec<u64>,
    /// Total captured contexts.
    pub total_captures: usize,
    /// Terminal status, if the job finished.
    pub result: Option<ResultJson>,
}

/// Terminal job status.
#[derive(Clone, Debug, Serialize)]
pub struct ResultJson {
    /// Supersteps fully executed.
    pub supersteps_executed: u64,
    /// `None` on success, the engine error text otherwise.
    pub error: Option<String>,
    /// Total vertex contexts captured.
    pub captures: u64,
    /// Total constraint violations recorded.
    pub violations: u64,
    /// Total exceptions recorded.
    pub exceptions: u64,
    /// Whether the capture safety net tripped.
    pub capture_limit_hit: bool,
}

/// The M/V/E indicator boxes as JSON.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct IndicatorsJson {
    /// "M" box red: a message constraint was violated.
    pub message_violation: bool,
    /// "V" box red: a vertex-value constraint was violated.
    pub value_violation: bool,
    /// "E" box red: an exception was raised.
    pub exception: bool,
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
    /// The superstep number.
    pub superstep: u64,
    /// Captured contexts in it.
    pub rows: usize,
    /// Its M/V/E indicator state.
    pub indicators: IndicatorsJson,
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
    /// The vertex id, rendered.
    pub id: String,
    /// The vertex value after compute (`None` for stub neighbors).
    pub value: Option<String>,
    /// Whether the vertex is active (inactive nodes are dimmed).
    pub active: bool,
    /// Whether the vertex was captured (stubs are drawn small).
    pub captured: bool,
    /// Whether the vertex violated a constraint or raised an exception.
    pub flagged: bool,
}

/// One link of the node-link view.
#[derive(Clone, Debug, Serialize)]
pub struct LinkJson {
    /// Source vertex id, rendered.
    pub from: String,
    /// Target vertex id, rendered.
    pub to: String,
    /// Edge value, rendered; empty for unit-valued edges.
    pub label: String,
}

/// The default global data shown in the view's corner.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct GlobalJson {
    /// The superstep the vertices observed.
    pub superstep: u64,
    /// Total vertices in the graph.
    pub num_vertices: u64,
    /// Total edges in the graph.
    pub num_edges: u64,
}

/// The node-link view of one superstep.
#[derive(Clone, Debug, Serialize)]
pub struct NodeLinkJson {
    /// The displayed superstep.
    pub superstep: u64,
    /// The M/V/E indicator boxes.
    pub indicators: IndicatorsJson,
    /// Global data, if any context was captured.
    pub global: Option<GlobalJson>,
    /// Aggregator `(name, rendered value)` pairs of the first capture.
    pub aggregators: Vec<(String, String)>,
    /// Captured vertices in full, uncaptured neighbors as stubs; sorted
    /// captured-first, then by id.
    pub nodes: Vec<NodeJson>,
    /// Links, sorted by `(from, to)`.
    pub links: Vec<LinkJson>,
}

/// One row of the tabular view (paper Figure 4).
#[derive(Clone, Debug, Serialize)]
pub struct RowJson {
    /// The vertex id, rendered.
    pub vertex: String,
    /// The value at compute entry, rendered.
    pub value_before: String,
    /// The value after compute, rendered.
    pub value_after: String,
    /// Incoming message count.
    pub incoming: usize,
    /// Outgoing message count.
    pub outgoing: usize,
    /// `"halted"` or `"active"`.
    pub state: String,
    /// Capture reasons, rendered.
    pub reasons: Vec<String>,
}

/// One page of the tabular view, with server-side search.
#[derive(Clone, Debug, Serialize)]
pub struct TabularJson {
    /// The displayed superstep.
    pub superstep: u64,
    /// The search query applied, if any.
    pub query: Option<String>,
    /// The 1-based page number.
    pub page: usize,
    /// Rows per page.
    pub per_page: usize,
    /// Captured contexts in the superstep, pre-search.
    pub total_rows: usize,
    /// Rows matching the query (equals `total_rows` without one).
    pub matching_rows: usize,
    /// Pages the matching rows span (at least 1).
    pub total_pages: usize,
    /// The rows of this page, in vertex order.
    pub rows: Vec<RowJson>,
}

/// One row of the violations view (paper Figure 5).
#[derive(Clone, Debug, Serialize)]
pub struct ViolationJson {
    /// The superstep the violation/exception happened in.
    pub superstep: u64,
    /// The offending vertex, rendered.
    pub vertex: String,
    /// `"message"`, `"vertex value"`, or `"exception"`.
    pub kind: String,
    /// The offending value / the exception message.
    pub detail: String,
    /// For message violations, the target vertex.
    pub target: Option<String>,
    /// For exceptions, the captured stack trace.
    pub backtrace: Option<String>,
}

/// The violations view, optionally restricted to one superstep.
#[derive(Clone, Debug, Serialize)]
pub struct ViolationsJson {
    /// The superstep filter, if any.
    pub superstep: Option<u64>,
    /// Violation/exception rows, ordered by superstep then vertex.
    pub rows: Vec<ViolationJson>,
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
/// `NodeLinkView::layout`, with the same ordering.
pub fn node_link_json(session: &UntypedSession, superstep: u64) -> NodeLinkJson {
    use std::collections::BTreeMap;
    let mut nodes: BTreeMap<String, NodeJson> = BTreeMap::new();
    let mut links = Vec::new();
    let mut global = None;
    let mut aggregators = Vec::new();
    for (i, trace) in session.traces_at(superstep).enumerate() {
        if i == 0 {
            global = trace.global().map(|(superstep, num_vertices, num_edges)| GlobalJson {
                superstep,
                num_vertices,
                num_edges,
            });
            aggregators = trace.aggregators();
        }
        let id = trace.vertex();
        let flagged = !trace.violations().is_empty() || trace.exception().is_some();
        nodes.insert(
            id.clone(),
            NodeJson {
                id: id.clone(),
                value: Some(trace.value_after()),
                active: !trace.halted_after(),
                captured: true,
                flagged,
            },
        );
        for (target, value) in trace.edges() {
            // A stub, unless the target was captured; one captured later
            // in the pass replaces its stub.
            nodes.entry(target.clone()).or_insert_with(|| NodeJson {
                id: target.clone(),
                value: None,
                active: true,
                captured: false,
                flagged: false,
            });
            // Unit edge values arrive as JSON null ("null"); the typed
            // renderer suppresses its "()" the same way.
            let label = if value == "null" || value == "()" { String::new() } else { value };
            links.push(LinkJson { from: id.clone(), to: target, label });
        }
    }
    let mut nodes: Vec<NodeJson> = nodes.into_values().collect();
    nodes.sort_by(|a, b| (!a.captured, &a.id).cmp(&(!b.captured, &b.id)));
    links.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));
    NodeLinkJson {
        superstep,
        indicators: session.indicators(superstep).into(),
        global,
        aggregators,
        nodes,
        links,
    }
}

fn row_json(trace: &UntypedTrace) -> RowJson {
    RowJson {
        vertex: trace.vertex(),
        value_before: trace.value_before(),
        value_after: trace.value_after(),
        incoming: trace.incoming_count(),
        outgoing: trace.outgoing_count(),
        state: if trace.halted_after() { "halted" } else { "active" }.to_string(),
        reasons: trace.reasons(),
    }
}

fn matches_query(trace: &UntypedTrace, query: &str) -> bool {
    trace.vertex().contains(query)
        || trace.value_before().contains(query)
        || trace.value_after().contains(query)
        || trace.reasons().iter().any(|r| r.contains(query))
}

/// Upper bound on `per_page`: one response parses at most this many rows,
/// no matter what the query string asks for.
pub const MAX_PER_PAGE: usize = 1_000;

/// One page of the tabular view with server-side search. `page` is
/// 1-based; without a query only the page's rows are parsed (the
/// streaming fast path of [`UntypedSession::rows_window`]).
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
            let rows = session.rows_window(superstep, offset, per_page);
            (total_rows, rows.iter().map(row_json).collect())
        }
        Some(q) => {
            let mut matching = 0usize;
            let mut rows = Vec::new();
            for trace in session.traces_at(superstep).filter(|t| matches_query(t, q)) {
                if matching >= offset && rows.len() < per_page {
                    rows.push(row_json(&trace));
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

/// The violations view, optionally restricted to one superstep. Kind
/// names match the typed `ViolationRow` ones: `"message"`,
/// `"vertex value"`, `"exception"`.
pub fn violations_json(session: &UntypedSession, superstep: Option<u64>) -> ViolationsJson {
    let supersteps: Vec<u64> = match superstep {
        Some(ss) => vec![ss],
        None => session.supersteps(),
    };
    let mut rows = Vec::new();
    for ss in supersteps {
        for trace in session.flagged_at(ss) {
            for (kind, detail, target) in trace.violations() {
                rows.push(ViolationJson {
                    superstep: ss,
                    vertex: trace.vertex(),
                    kind: match kind.as_str() {
                        "Message" => "message".to_string(),
                        "VertexValue" => "vertex value".to_string(),
                        other => other.to_ascii_lowercase(),
                    },
                    detail,
                    target,
                    backtrace: None,
                });
            }
            if let Some((message, backtrace)) = trace.exception() {
                rows.push(ViolationJson {
                    superstep: ss,
                    vertex: trace.vertex(),
                    kind: "exception".to_string(),
                    detail: message,
                    target: None,
                    backtrace,
                });
            }
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
        let exploded = view.nodes.iter().find(|n| n.id == "2").expect("vertex 2 present");
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
