//! # graft-bench
//!
//! The harness that regenerates every table and figure of the Graft
//! paper's evaluation:
//!
//! * `cargo run -p graft-bench --release --bin table1` — Table 1, the
//!   demonstration datasets.
//! * `cargo run -p graft-bench --release --bin table2` — Table 2, the
//!   performance datasets (generated at a scale divisor; default 1000).
//! * `cargo run -p graft-bench --release --bin table3` — Table 3, the
//!   five DebugConfig configurations, described from live values.
//! * `cargo run -p graft-bench --release --bin figure7` — Figure 7/8,
//!   Graft's runtime overhead per algorithm × dataset × DebugConfig,
//!   with capture counts and error bars.
//!
//! Every other performance number comes from graft-spine.

#![forbid(unsafe_code)]

pub mod overhead;
pub mod tables;

/// Reads `--name value` style u64 arguments, with a default.
pub fn arg_u64(name: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Whether a bare `--flag` argument is present.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Renders a fixed-width table.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let columns = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(columns) {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let render = |cells: &[String], out: &mut String| {
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
    render(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>(), &mut out);
    out.push('|');
    for w in &widths {
        out.push_str(&"-".repeat(w + 2));
        out.push('|');
    }
    out.push('\n');
    for row in rows {
        render(row, &mut out);
    }
    out
}
