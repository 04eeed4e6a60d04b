//! The Graft "GUI": the three views of the paper's Section 3.2 as one
//! model and its renderings.
//!
//! * [`json`] — the model: one serializable document per view, built
//!   over an [`UntypedSession`](crate::untyped::UntypedSession). These
//!   are the bytes `graft-server` sends and `graft-cli --format json`
//!   prints:
//!   * [`json::NodeLinkJson`] — Figure 3: captured vertices as a
//!     node-link diagram, inactive vertices dimmed, uncaptured neighbors
//!     as stubs, M/V/E indicator boxes, aggregators and global data;
//!   * [`json::TabularJson`] — Figure 4: one page of rows, one per
//!     captured vertex, with search;
//!   * [`json::ViolationsJson`] — Figure 5: constraint violations and
//!     exceptions with messages and stack traces;
//!   * [`json::SuperstepsJson`] — the superstep listing with indicators.
//! * [`render`] — text (terminals and tests), Graphviz DOT and static
//!   HTML, each a function of a document.

pub mod json;
pub mod render;

/// Escapes text for embedding into HTML.
pub(crate) fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            other => out.push(other),
        }
    }
    out
}

/// Truncates a rendered value for table cells, appending `…`.
pub(crate) fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        return s.to_string();
    }
    let mut out: String = s.chars().take(max.saturating_sub(1)).collect();
    out.push('…');
    out
}

/// Renders a fixed-width text table from a header and rows.
pub(crate) fn text_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let columns = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(columns) {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
        out.push('|');
        for (i, cell) in cells.iter().enumerate().take(columns) {
            out.push(' ');
            out.push_str(cell);
            for _ in cell.chars().count()..widths[i] {
                out.push(' ');
            }
            out.push_str(" |");
        }
        out.push('\n');
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    render_row(&header_cells, &widths, &mut out);
    out.push('|');
    for width in &widths {
        out.push_str(&"-".repeat(width + 2));
        out.push('|');
    }
    out.push('\n');
    for row in rows {
        render_row(row, &widths, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_special_characters() {
        assert_eq!(
            html_escape("<a href=\"x\">&'</a>"),
            "&lt;a href=&quot;x&quot;&gt;&amp;&#39;&lt;/a&gt;"
        );
    }

    #[test]
    fn truncate_respects_char_boundaries() {
        assert_eq!(truncate("héllo wörld", 6), "héllo…");
        assert_eq!(truncate("short", 10), "short");
    }

    #[test]
    fn table_alignment() {
        let rendered = text_table(
            &["id", "value"],
            &[vec!["1".into(), "long value".into()], vec!["1000".into(), "x".into()]],
        );
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines[0], "| id   | value      |");
        assert_eq!(lines[1], "|------|------------|");
        assert_eq!(lines[2], "| 1    | long value |");
        assert_eq!(lines[3], "| 1000 | x          |");
    }
}
