//! Text, Graphviz DOT and static HTML renderings of the [`json`]
//! documents: every human-readable view is a function of the document
//! the server sends, so a value reads the same in a terminal, a diagram
//! and a response body — as its JSON text.
//!
//! [`json`]: crate::views::json

use std::collections::HashMap;

use crate::session::Indicators;
use crate::views::json::{
    render_rows, NodeJson, NodeLinkJson, SuperstepsJson, TabularJson, ViolationsJson,
};
use crate::views::{html_escape, text_table, truncate};

impl SuperstepsJson {
    /// The superstep listing with its M/V/E indicators, one line each.
    pub fn to_text(&self) -> String {
        let mut out = String::from("superstep  captures  M    V    E\n");
        let mark = |red: bool| if red { "RED " } else { "ok  " };
        for entry in &self.supersteps {
            let ind = entry.indicators;
            out.push_str(&format!(
                "{:>9}  {:>8}  {}  {}  {}\n",
                entry.superstep,
                entry.rows,
                mark(ind.message_violation),
                mark(ind.value_violation),
                mark(ind.exception),
            ));
        }
        out
    }
}

impl TabularJson {
    /// The page as a table (paper Figure 4).
    pub fn to_text(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                vec![
                    row.vertex.clone(),
                    truncate(&row.value_before, 24),
                    truncate(&row.value_after, 24),
                    row.incoming.to_string(),
                    row.outgoing.to_string(),
                    row.state.to_string(),
                    row.reasons.join(","),
                ]
            })
            .collect();
        let search = self.query.as_ref().map(|q| format!(", search {q:?}")).unwrap_or_default();
        let mut out = format!(
            "=== Tabular view — superstep {}, page {}/{} ({} row(s){search}) ===\n",
            self.superstep, self.page, self.total_pages, self.matching_rows
        );
        out.push_str(&text_table(
            &["vertex", "value before", "value after", "in", "out", "state", "captured because"],
            &rows,
        ));
        out
    }
}

impl ViolationsJson {
    /// The rows as a table with every backtrace below it (paper Figure 5).
    pub fn to_text(&self) -> String {
        let title = match self.superstep {
            Some(ss) => format!("Violations and Exceptions view — superstep {ss}"),
            None => "Violations and Exceptions view".to_string(),
        };
        render_rows(&title, &self.rows)
    }
}

/// How a node is drawn: its text marker, DOT attributes and SVG fill.
/// Stubs are small; a captured node is red when flagged, green when
/// active, and grey (dimmed) when inactive.
fn look(node: &NodeJson) -> (&'static str, &'static str, &'static str) {
    match (node.captured, node.flagged, node.active) {
        (false, ..) => ("(stub)", "shape=point, width=0.15", "#bbb"),
        (true, true, _) => {
            ("(FLAGGED)", "shape=ellipse, style=filled, fillcolor=lightcoral", "#f08080")
        }
        (true, false, true) => {
            ("(active)", "shape=ellipse, style=filled, fillcolor=palegreen", "#98fb98")
        }
        (true, false, false) => {
            ("(inactive)", "shape=ellipse, style=filled, fillcolor=lightgray", "#d3d3d3")
        }
    }
}

/// The red/green state of the M, V and E boxes, in that order.
fn boxes(ind: Indicators) -> [(bool, &'static str); 3] {
    [(ind.message_violation, "M"), (ind.value_violation, "V"), (ind.exception, "E")]
}

impl NodeLinkJson {
    /// The view as plain text for terminals (paper Figure 3).
    pub fn to_text(&self) -> String {
        let mut out = format!("=== Node-link view — superstep {} ===\n", self.superstep);
        for (red, letter) in boxes(self.indicators) {
            out.push_str(&format!("[{letter}:{}] ", if red { "RED" } else { "green" }));
        }
        out.pop();
        out.push('\n');
        if let Some(global) = &self.global {
            out.push_str(&format!(
                "global: superstep={} vertices={} edges={}\n",
                global.superstep, global.num_vertices, global.num_edges
            ));
        }
        if !self.aggregators.is_empty() {
            out.push_str("aggregators:");
            for (name, value) in &self.aggregators {
                out.push_str(&format!(" {name}={value}"));
            }
            out.push('\n');
        }
        out.push_str("nodes:\n");
        for node in &self.nodes {
            let (marker, ..) = look(node);
            match &node.value {
                Some(value) => {
                    out.push_str(&format!("  {} = {} {marker}\n", node.id, truncate(value, 60)))
                }
                None => out.push_str(&format!("  {} {marker}\n", node.id)),
            }
        }
        out.push_str("links:\n");
        for link in &self.links {
            out.push_str(&format!("  {} -> {}", link.from, link.to));
            if !link.label.is_empty() {
                out.push_str(&format!(" [{}]", link.label));
            }
            out.push('\n');
        }
        out
    }

    /// The view as Graphviz DOT: stubs are points, captured nodes filled
    /// by state.
    pub fn to_dot(&self) -> String {
        let mut out = format!("digraph superstep_{} {{\n  rankdir=LR;\n", self.superstep);
        for node in &self.nodes {
            let label = match &node.value {
                Some(value) => format!("{}\n{}", node.id, truncate(value, 40)),
                None => node.id.to_string(),
            };
            let (_, attrs, _) = look(node);
            out.push_str(&format!(
                "  {} [label={}, {attrs}];\n",
                dot_quote(&node.id),
                dot_quote(&label)
            ));
        }
        for link in &self.links {
            out.push_str(&format!("  {} -> {}", dot_quote(&link.from), dot_quote(&link.to)));
            if !link.label.is_empty() {
                out.push_str(&format!(" [label={}]", dot_quote(&link.label)));
            }
            out.push_str(";\n");
        }
        out.push_str("}\n");
        out
    }

    /// A self-contained HTML page with an inline SVG circular layout —
    /// the browser GUI's stand-in.
    pub fn to_html(&self) -> String {
        let n = self.nodes.len().max(1);
        let radius = 200.0 + 12.0 * (n as f64).sqrt();
        let size = (radius * 2.0 + 120.0) as i64;
        let center = size as f64 / 2.0;
        let positions: HashMap<&str, (f64, f64)> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let angle = std::f64::consts::TAU * i as f64 / n as f64;
                (&*node.id, (center + radius * angle.cos(), center + radius * angle.sin()))
            })
            .collect();

        let mut svg = String::new();
        for link in &self.links {
            let (Some(&(x1, y1)), Some(&(x2, y2))) =
                (positions.get(&*link.from), positions.get(link.to.as_str()))
            else {
                continue;
            };
            svg.push_str(&format!(
                "<line x1='{x1:.1}' y1='{y1:.1}' x2='{x2:.1}' y2='{y2:.1}' \
                 stroke='#999' stroke-width='1'/>\n"
            ));
            if !link.label.is_empty() {
                svg.push_str(&format!(
                    "<text x='{:.1}' y='{:.1}' font-size='9' fill='#666'>{}</text>\n",
                    (x1 + x2) / 2.0,
                    (y1 + y2) / 2.0,
                    html_escape(&link.label)
                ));
            }
        }
        for node in &self.nodes {
            let (x, y) = positions[&*node.id];
            let id = html_escape(&node.id);
            let (.., fill) = look(node);
            if !node.captured {
                svg.push_str(&format!(
                    "<circle cx='{x:.1}' cy='{y:.1}' r='4' fill='{fill}' stroke='#888'/>\n\
                     <text x='{x:.1}' y='{:.1}' text-anchor='middle' font-size='8' \
                     fill='#888'>{id}</text>\n",
                    y - 8.0
                ));
                continue;
            }
            let opacity = if node.active { "1.0" } else { "0.5" };
            svg.push_str(&format!(
                "<circle cx='{x:.1}' cy='{y:.1}' r='22' fill='{fill}' stroke='#333' \
                 opacity='{opacity}'/>\n\
                 <text x='{x:.1}' y='{:.1}' text-anchor='middle' font-size='11'>{id}</text>\n",
                y - 2.0
            ));
            if let Some(value) = &node.value {
                svg.push_str(&format!(
                    "<text x='{x:.1}' y='{:.1}' text-anchor='middle' font-size='8' \
                     fill='#333'>{}</text>\n",
                    y + 9.0,
                    html_escape(&truncate(value, 18))
                ));
            }
        }

        let indicators: String = boxes(self.indicators)
            .into_iter()
            .map(|(red, letter)| {
                format!(
                    "<span style='display:inline-block;width:1.6em;text-align:center;\
                     background:{};color:white;border-radius:3px;margin-right:4px'>{letter}</span>",
                    if red { "#c0392b" } else { "#27ae60" }
                )
            })
            .collect();
        let mut corner = String::new();
        if let Some(global) = &self.global {
            corner.push_str(&format!(
                "<p>superstep {} — {} vertices, {} edges</p>",
                global.superstep, global.num_vertices, global.num_edges
            ));
        }
        if !self.aggregators.is_empty() {
            corner.push_str("<ul>");
            for (name, value) in &self.aggregators {
                corner.push_str(&format!(
                    "<li><code>{}</code> = {}</li>",
                    html_escape(name),
                    html_escape(value)
                ));
            }
            corner.push_str("</ul>");
        }

        format!(
            "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>\
             <title>Graft — superstep {ss}</title></head>\n\
             <body style='font-family:sans-serif'>\n\
             <h2>Node-link view — superstep {ss}</h2>\n\
             <div>{indicators}</div>\n\
             <div style='float:right;max-width:320px'>{corner}</div>\n\
             <svg width='{size}' height='{size}' viewBox='0 0 {size} {size}'>\n{svg}</svg>\n\
             </body></html>\n",
            ss = self.superstep,
        )
    }
}

/// `s` as a DOT quoted string: `"` and `\` escaped, a line break written
/// as DOT's centered-line escape `\n`.
fn dot_quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::views::json::LinkJson;
    use graft_pregel::GlobalData;

    #[test]
    fn dot_quotes_ids_values_and_labels() {
        let id: std::sync::Arc<str> = "a\"b\\c".into();
        let view = NodeLinkJson {
            aggregators: Vec::new(),
            global: Some(GlobalData { superstep: 3, num_vertices: 2, num_edges: 1 }),
            indicators: Indicators::default(),
            links: vec![LinkJson {
                from: id.clone(),
                label: "{\"w\":\"x\\\\y\"}".into(),
                to: "z\"".into(),
            }],
            nodes: vec![
                NodeJson {
                    active: true,
                    captured: true,
                    flagged: false,
                    id: id.clone(),
                    value: Some("{\"color\":\"red\"}".into()),
                },
                NodeJson {
                    active: true,
                    captured: false,
                    flagged: false,
                    id: "z\"".into(),
                    value: None,
                },
            ],
            superstep: 3,
        };
        let dot = view.to_dot();
        assert!(
            dot.contains(r#"  "a\"b\\c" [label="a\"b\\c\n{\"color\":\"red\"}", shape=ellipse"#),
            "{dot}"
        );
        assert!(dot.contains(r#"  "z\"" [label="z\"", shape=point"#), "{dot}");
        assert!(dot.contains(r#"  "a\"b\\c" -> "z\"" [label="{\"w\":\"x\\\\y\"}"];"#), "{dot}");
        // Every quote inside a quoted string is escaped: the unescaped
        // quotes pair up on each line.
        for line in dot.lines() {
            let bare = line.replace("\\\\", "").replace("\\\"", "");
            assert_eq!(bare.matches('"').count() % 2, 0, "{line}");
        }
        assert!(view.to_text().contains("a\"b\\c = {\"color\":\"red\"} (active)"));
        assert!(view.to_html().contains("a&quot;b\\c"));
    }
}
