//! `graft-spine compare A_DIR B_DIR`: per workload and end-to-end
//! metric, both medians, both inter-quartile ranges, the relative delta
//! with its base, and a verdict against the metric's bound.
//!
//! Each directory holds any number of runs (`<workload>.json` files, at
//! any depth — one sub-directory per run is the usual layout). With
//! several runs of a workload the statistics are taken over the runs'
//! reported values; with one, over that run's own samples.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};

/// How B's metric stands against A's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    /// The spread of either side exceeds the bound: no claim either way.
    Unresolved,
    /// An exact count that differs.
    Different,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
            Verdict::Different => "DIFFERENT",
        }
    }
}

/// Median and inter-quartile range of one side.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    pub median: f64,
    pub iqr: f64,
    pub runs: usize,
}

/// The verdict for a lower-is-better metric with regression bound
/// `bound` (a share of A's median).
pub fn verdict(a: Side, b: Side, bound: f64, exact: bool) -> Verdict {
    if exact {
        return if a.median == b.median && a.iqr == 0.0 && b.iqr == 0.0 {
            Verdict::Same
        } else {
            Verdict::Different
        };
    }
    let base = a.median.abs().max(f64::MIN_POSITIVE);
    if a.iqr.max(b.iqr) / base > bound {
        return Verdict::Unresolved;
    }
    let delta = (b.median - a.median) / base;
    if delta > bound {
        Verdict::Worse
    } else if delta < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// A metric `compare` judges: every end-to-end metric against its bound,
/// and every exact per-layer count for identity.
struct Judged {
    name: &'static str,
    unit: &'static str,
    bound: f64,
    exact: bool,
    /// Found in traced (`*.layers.json`) run documents.
    traced: bool,
}

fn judged() -> Vec<Judged> {
    let end_to_end = END_TO_END.iter().map(|m| Judged {
        name: m.name,
        unit: m.unit,
        bound: m.bound,
        exact: m.exact,
        traced: false,
    });
    let counts = PER_LAYER.iter().filter(|m| m.exact).map(|m| Judged {
        name: m.name,
        unit: m.unit,
        bound: 0.0,
        exact: true,
        traced: true,
    });
    end_to_end.chain(counts).collect()
}

fn collect(dir: &Path, docs: &mut Vec<Value>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect(&path, docs);
        } else if path.extension().is_some_and(|ext| ext == "json") {
            let parsed = std::fs::read_to_string(&path)
                .ok()
                .and_then(|text| serde_json::from_str::<Value>(&text).ok());
            // Run documents only; span dumps have no workload field.
            if let Some(doc) = parsed {
                if doc["workload"].as_str().is_some() {
                    docs.push(doc);
                }
            }
        }
    }
}

/// `(workload, metric)` → one side's statistics.
fn sides(dir: &Path, judged: &[Judged]) -> BTreeMap<(String, &'static str), Side> {
    let mut docs = Vec::new();
    collect(dir, &mut docs);
    let mut by_workload: BTreeMap<String, Vec<&Value>> = BTreeMap::new();
    for doc in &docs {
        let workload = doc["workload"].as_str().unwrap_or_default().to_string();
        by_workload.entry(workload).or_default().push(doc);
    }
    let mut out = BTreeMap::new();
    for (workload, runs) in by_workload {
        for metric in judged {
            let entries: Vec<&Value> = runs
                .iter()
                .filter(|doc| doc["trace"] == metric.traced)
                .map(|doc| &doc["metrics"][metric.name])
                .collect();
            let values: Vec<f64> = entries.iter().filter_map(|e| e["value"].as_f64()).collect();
            if values.is_empty() {
                continue;
            }
            let iqr = if values.len() > 1 {
                let (q1, q3) = quartiles(&values);
                q3 - q1
            } else {
                // One run: fall back on the spread of its own samples.
                match (entries[0]["q1"].as_f64(), entries[0]["q3"].as_f64()) {
                    (Some(q1), Some(q3)) => q3 - q1,
                    _ => 0.0,
                }
            };
            out.insert(
                (workload.clone(), metric.name),
                Side { median: median(&values), iqr, runs: values.len() },
            );
        }
    }
    out
}

/// Prints the comparison; returns whether every exact count agreed and
/// at least one pairing was found.
pub fn compare(a_dir: &Path, b_dir: &Path) -> bool {
    let judged = judged();
    let (a, b) = (sides(a_dir, &judged), sides(b_dir, &judged));
    let mut ok = true;
    let mut rows = 0;
    println!(
        "{:<12} {:<26} {:>14} {:>10} {:>14} {:>10} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "delta", "bound"
    );
    for ((workload, name), a_side) in &a {
        let Some(b_side) = b.get(&(workload.clone(), *name)) else { continue };
        let metric = judged.iter().find(|m| m.name == *name).expect("known metric");
        let v = verdict(*a_side, *b_side, metric.bound, metric.exact);
        ok &= v != Verdict::Different;
        rows += 1;
        println!(
            "{workload:<12} {name:<26} {:>14.6} {:>10.6} {:>14.6} {:>10.6} {:>+8.2}% {:>5.0}%  {} \
             (base A={:.6} {}, runs {}/{})",
            a_side.median,
            a_side.iqr,
            b_side.median,
            b_side.iqr,
            100.0 * (b_side.median - a_side.median) / a_side.median.abs().max(f64::MIN_POSITIVE),
            100.0 * metric.bound,
            v.label(),
            a_side.median,
            metric.unit,
            a_side.runs,
            b_side.runs,
        );
    }
    if rows == 0 {
        eprintln!("no workload has runs in both {} and {}", a_dir.display(), b_dir.display());
    }
    ok && rows > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, iqr: f64) -> Side {
        Side { median, iqr, runs: 10 }
    }

    #[test]
    fn verdicts_follow_the_bound() {
        assert_eq!(verdict(side(1.0, 0.01), side(1.05, 0.01), 0.10, false), Verdict::Same);
        assert_eq!(verdict(side(1.0, 0.01), side(1.2, 0.01), 0.10, false), Verdict::Worse);
        assert_eq!(verdict(side(1.0, 0.01), side(0.8, 0.01), 0.10, false), Verdict::Better);
        // A spread wider than the bound resolves nothing, whichever side has it.
        assert_eq!(verdict(side(1.0, 0.2), side(1.5, 0.01), 0.10, false), Verdict::Unresolved);
        assert_eq!(verdict(side(1.0, 0.01), side(0.5, 0.2), 0.10, false), Verdict::Unresolved);
    }

    #[test]
    fn exact_counts_must_be_identical() {
        assert_eq!(verdict(side(4096.0, 0.0), side(4096.0, 0.0), 0.05, true), Verdict::Same);
        assert_eq!(verdict(side(4096.0, 0.0), side(4097.0, 0.0), 0.05, true), Verdict::Different);
        assert_eq!(verdict(side(4096.0, 1.0), side(4096.0, 0.0), 0.05, true), Verdict::Different);
    }
}
