//! The Violations and Exceptions view (paper Figure 5).

use graft_pregel::Computation;
use serde::Serialize;

use crate::session::DebugSession;
use crate::trace::{ExceptionInfo, ViolationKind, ViolationRecord};
use crate::views::{text_table, truncate};

/// One row of the view, and of its JSON document (`views::json`), whose
/// key order its fields are declared in.
#[derive(Clone, Debug, Serialize)]
pub struct ViolationRow {
    /// For exceptions, the captured stack trace.
    pub backtrace: Option<String>,
    /// The offending value / the exception message.
    pub detail: String,
    /// `"message"`, `"vertex value"`, or `"exception"`.
    pub kind: &'static str,
    /// The superstep the violation/exception happened in.
    pub superstep: u64,
    /// For message violations, the target vertex.
    pub target: Option<String>,
    /// The offending vertex, rendered.
    pub vertex: String,
}

/// Tabular view of every constraint violation and exception in the run.
pub struct ViolationsView<'a, C: Computation> {
    session: &'a DebugSession<C>,
}

impl<'a, C: Computation> ViolationsView<'a, C> {
    pub(crate) fn new(session: &'a DebugSession<C>) -> Self {
        Self { session }
    }

    /// Collects every violation/exception row, ordered by superstep then
    /// vertex.
    pub fn rows(&self) -> Vec<ViolationRow> {
        let mut rows = Vec::new();
        for superstep in self.session.supersteps() {
            for trace in self.session.captured_at(superstep) {
                let vertex = trace.vertex.to_string();
                rows.extend(capture_rows(superstep, &vertex, &trace.violations, &trace.exception));
            }
        }
        rows
    }

    /// Renders the view as a text table.
    pub fn to_text(&self) -> String {
        render_rows("Violations and Exceptions view", &self.rows())
    }
}

/// The rows of one capture of `vertex` (rendered): one per violation,
/// then one for the exception, if any.
pub(crate) fn capture_rows<'a>(
    superstep: u64,
    vertex: &'a str,
    violations: &'a [ViolationRecord],
    exception: &'a Option<ExceptionInfo>,
) -> impl Iterator<Item = ViolationRow> + 'a {
    let violations = violations.iter().map(move |violation| ViolationRow {
        superstep,
        vertex: vertex.to_string(),
        kind: match violation.kind {
            ViolationKind::Message => "message",
            ViolationKind::VertexValue => "vertex value",
        },
        detail: violation.detail.clone(),
        target: violation.target.clone(),
        backtrace: None,
    });
    violations.chain(exception.iter().map(move |exception| ViolationRow {
        superstep,
        vertex: vertex.to_string(),
        kind: "exception",
        detail: exception.message.clone(),
        target: None,
        backtrace: exception.backtrace.clone(),
    }))
}

/// Renders violation rows in the paper's tabular style. Public so other
/// producers of [`ViolationRow`]s — notably `graft-analyzer`'s findings —
/// share the exact rendering of the Violations and Exceptions view.
pub fn render_rows(title: &str, rows: &[ViolationRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.superstep.to_string(),
                row.vertex.clone(),
                row.kind.to_string(),
                truncate(&row.detail, 48),
                row.target.clone().unwrap_or_default(),
            ]
        })
        .collect();
    let mut out = format!("=== {title} ({} row(s)) ===\n", table_rows.len());
    out.push_str(&text_table(&["superstep", "vertex", "kind", "detail", "target"], &table_rows));
    for row in rows.iter().filter(|r| r.backtrace.is_some()) {
        out.push_str(&format!(
            "\nstack trace for vertex {} (superstep {}):\n{}\n",
            row.vertex,
            row.superstep,
            row.backtrace.as_deref().unwrap_or_default()
        ));
    }
    out
}
