//! The superstep profiler: folds an event log (plus an optional metrics
//! snapshot) into a per-superstep phase breakdown, and renders it as an
//! ASCII timeline, a hotspot table, and a compute-skew table.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::events::Event;
use crate::registry::{MetricsSnapshot, VertexCost};

/// Phase keys in display order. Each maps an event kind to the label the
/// renderers use and the fill character of its timeline segment.
const PHASES: &[(&str, &str, char)] = &[
    ("phase.master", "master compute", 'M'),
    ("phase.compute", "vertex compute", 'C'),
    ("phase.aggregate", "aggregator merge", 'A'),
    ("phase.delivery", "message delivery", 'D'),
    ("phase.mutate", "topology mutations", 'U'),
    ("checkpoint.write", "checkpoint write (DFS)", 'K'),
    ("trace.flush", "trace flush (DFS)", 'F'),
];

/// Width of the timeline bar for the longest superstep.
const BAR_WIDTH: usize = 40;

/// Phase durations for one superstep (accumulated across replays).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuperstepProfile {
    /// The superstep number.
    pub superstep: u64,
    /// Times the superstep executed (>1 after a checkpoint replay).
    pub executions: u64,
    /// Total superstep span duration in nanoseconds.
    pub wall_nanos: u64,
    /// Nanoseconds per phase, keyed by event kind (`phase.compute`, ...).
    pub phase_nanos: BTreeMap<String, u64>,
    /// Messages sent during the superstep (from the end-event attrs).
    pub messages_sent: u64,
    /// Vertices still active after the superstep.
    pub active_vertices: u64,
}

/// One row of the hotspot table.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTotal {
    /// Event kind, e.g. `phase.compute`.
    pub kind: String,
    /// Human label, e.g. `vertex compute`.
    pub label: String,
    /// Total nanoseconds across all supersteps.
    pub nanos: u64,
    /// Number of spans folded in.
    pub spans: u64,
}

/// One checkpoint-restore span.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RestoreSpan {
    /// Timestamp of the restore's end event.
    pub ts: u64,
    /// Duration of the restore in nanoseconds.
    pub nanos: u64,
    /// Superstep execution resumed from.
    pub resumed_superstep: u64,
}

/// A fully folded profile, ready for rendering or JSON export.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Profile {
    /// Whole-job duration (the `job` span when present, else the sum of
    /// superstep walls).
    pub total_nanos: u64,
    /// Recoveries performed: full restarts and confined replays (see
    /// [`crate::Event::is_recovery`]).
    pub recoveries: u64,
    /// Per-superstep breakdown, ordered by superstep.
    pub supersteps: Vec<SuperstepProfile>,
    /// Per-phase totals, costliest first.
    pub phases: Vec<PhaseTotal>,
    /// Checkpoint-restore spans, in event order.
    pub restores: Vec<RestoreSpan>,
    /// Costliest vertices by compute time (empty without a metrics
    /// snapshot).
    pub top_vertices: Vec<VertexCost>,
}

impl Profile {
    /// Folds an event log into a profile. Fails on an empty log.
    pub fn build(events: &[Event], metrics: Option<&MetricsSnapshot>) -> Result<Profile, String> {
        if events.is_empty() {
            return Err("event log contains no events".to_string());
        }
        let mut steps: BTreeMap<u64, SuperstepProfile> = BTreeMap::new();
        let mut phase_totals: BTreeMap<&str, PhaseTotal> = BTreeMap::new();
        let mut restores = Vec::new();
        let mut recoveries = 0u64;
        let mut job_nanos = None;

        for event in events {
            if event.is_end("superstep") {
                let ss = event.superstep.unwrap_or(0);
                let entry = steps.entry(ss).or_insert_with(|| SuperstepProfile {
                    superstep: ss,
                    ..SuperstepProfile::default()
                });
                entry.executions += 1;
                entry.wall_nanos += event.dur.unwrap_or(0);
                // Replays overwrite the counter attrs: the last execution
                // is the one whose results the job kept.
                entry.messages_sent = attr_u64(event, "messages_sent");
                entry.active_vertices = attr_u64(event, "active_vertices");
                continue;
            }
            if let Some((kind, label, _)) = PHASES.iter().find(|(kind, _, _)| event.is_end(kind)) {
                let dur = event.dur.unwrap_or(0);
                let ss = event.superstep.unwrap_or(0);
                let entry = steps.entry(ss).or_insert_with(|| SuperstepProfile {
                    superstep: ss,
                    ..SuperstepProfile::default()
                });
                *entry.phase_nanos.entry(kind.to_string()).or_insert(0) += dur;
                let total = phase_totals.entry(kind).or_insert_with(|| PhaseTotal {
                    kind: kind.to_string(),
                    label: label.to_string(),
                    ..PhaseTotal::default()
                });
                total.nanos += dur;
                total.spans += 1;
                continue;
            }
            if event.is_end("checkpoint.restore") {
                restores.push(RestoreSpan {
                    ts: event.ts,
                    nanos: event.dur.unwrap_or(0),
                    resumed_superstep: attr_u64(event, "resumed_superstep"),
                });
                continue;
            }
            if event.is_recovery() {
                recoveries += 1;
                continue;
            }
            if event.is_end("job") {
                job_nanos = event.dur;
            }
        }

        let supersteps: Vec<SuperstepProfile> = steps.into_values().collect();
        let total_nanos =
            job_nanos.unwrap_or_else(|| supersteps.iter().map(|s| s.wall_nanos).sum());
        let mut phases: Vec<PhaseTotal> = phase_totals.into_values().collect();
        phases.sort_by(|a, b| b.nanos.cmp(&a.nanos).then_with(|| a.kind.cmp(&b.kind)));
        let top_vertices = metrics.map(|m| m.top_vertices.clone()).unwrap_or_default();

        Ok(Profile { total_nanos, recoveries, supersteps, phases, restores, top_vertices })
    }

    /// The ASCII superstep timeline.
    pub fn render_timeline(&self) -> String {
        let mut out = String::new();
        out.push_str("Superstep timeline (M master, C compute, A aggregate, D delivery,\n");
        out.push_str("                    U mutations, K checkpoint, F trace flush)\n");
        let max_wall = self.supersteps.iter().map(|s| s.wall_nanos).max().unwrap_or(0).max(1);
        out.push_str(&format!(
            "{:>4}  {:>10}  {:<w$}  {:>10}  {:>8}\n",
            "step",
            "wall",
            "phases",
            "msgs sent",
            "active",
            w = BAR_WIDTH + 2
        ));
        for step in &self.supersteps {
            let width = ((step.wall_nanos as f64 / max_wall as f64) * BAR_WIDTH as f64)
                .round()
                .max(1.0) as usize;
            let mut bar = String::new();
            for (kind, _, fill) in PHASES {
                let nanos = step.phase_nanos.get(*kind).copied().unwrap_or(0);
                let chars = ((nanos as f64 / step.wall_nanos.max(1) as f64) * width as f64).round()
                    as usize;
                let remaining = width.saturating_sub(bar.len());
                bar.extend(std::iter::repeat_n(*fill, chars.min(remaining)));
            }
            while bar.len() < width {
                bar.push('.');
            }
            let replay = if step.executions > 1 {
                format!("  (x{})", step.executions)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{:>4}  {:>10}  |{:<w$}|  {:>10}  {:>8}{}\n",
                step.superstep,
                fmt_nanos(step.wall_nanos),
                bar,
                step.messages_sent,
                step.active_vertices,
                replay,
                w = BAR_WIDTH
            ));
        }
        for restore in &self.restores {
            out.push_str(&format!(
                "      restore: rewound to superstep {} in {}\n",
                restore.resumed_superstep,
                fmt_nanos(restore.nanos)
            ));
        }
        out
    }

    /// The phase-breakdown hotspot table.
    pub fn render_hotspots(&self) -> String {
        let mut out = String::new();
        out.push_str("Phase hotspots\n");
        out.push_str(&format!(
            "{:<24}  {:>10}  {:>6}  {:>6}\n",
            "phase", "total", "share", "spans"
        ));
        let accounted: u64 = self.phases.iter().map(|p| p.nanos).sum::<u64>().max(1);
        for phase in &self.phases {
            out.push_str(&format!(
                "{:<24}  {:>10}  {:>5.1}%  {:>6}\n",
                phase.label,
                fmt_nanos(phase.nanos),
                phase.nanos as f64 * 100.0 / accounted as f64,
                phase.spans
            ));
        }
        out.push_str(&format!(
            "job total {} across {} superstep(s), {} recover{}\n",
            fmt_nanos(self.total_nanos),
            self.supersteps.len(),
            self.recoveries,
            if self.recoveries == 1 { "y" } else { "ies" }
        ));
        out
    }

    /// The top-`k` compute-skew table (empty string without vertex data).
    pub fn render_skew(&self, k: usize) -> String {
        if self.top_vertices.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        out.push_str(&format!("Top {} vertices by compute time\n", k.min(self.top_vertices.len())));
        out.push_str(&format!(
            "{:>4}  {:<16}  {:>10}  {:>8}  {:>10}\n",
            "rank", "vertex", "total", "calls", "per call"
        ));
        for (rank, vertex) in self.top_vertices.iter().take(k).enumerate() {
            out.push_str(&format!(
                "{:>4}  {:<16}  {:>10}  {:>8}  {:>10}\n",
                rank + 1,
                vertex.vertex,
                fmt_nanos(vertex.nanos),
                vertex.calls,
                fmt_nanos(vertex.nanos / vertex.calls.max(1))
            ));
        }
        out
    }

    /// The profile as pretty JSON with a trailing newline.
    pub fn to_json(&self) -> String {
        let mut out =
            serde_json::to_string_pretty(self).expect("profile serialization is infallible");
        out.push('\n');
        out
    }
}

fn attr_u64(event: &Event, key: &str) -> u64 {
    event.attrs.get(key).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Formats nanoseconds with a unit matched to magnitude.
pub fn fmt_nanos(nanos: u64) -> String {
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}us", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2}ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", nanos as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EDGE_END, EDGE_POINT};

    fn end(kind: &str, ss: u64, dur: u64) -> Event {
        Event {
            ts: 0,
            kind: kind.to_string(),
            edge: EDGE_END.to_string(),
            superstep: Some(ss),
            worker: None,
            dur: Some(dur),
            attrs: BTreeMap::new(),
        }
    }

    #[test]
    fn build_folds_phases_per_superstep() {
        let mut superstep_end = end("superstep", 0, 100);
        superstep_end.attrs.insert("messages_sent".into(), "7".into());
        superstep_end.attrs.insert("active_vertices".into(), "3".into());
        let events = vec![
            end("phase.compute", 0, 60),
            end("phase.delivery", 0, 30),
            superstep_end,
            end("phase.compute", 1, 10),
            end("superstep", 1, 15),
        ];
        let profile = Profile::build(&events, None).unwrap();
        assert_eq!(profile.supersteps.len(), 2);
        assert_eq!(profile.supersteps[0].wall_nanos, 100);
        assert_eq!(profile.supersteps[0].messages_sent, 7);
        assert_eq!(profile.supersteps[0].phase_nanos["phase.compute"], 60);
        assert_eq!(profile.phases[0].kind, "phase.compute");
        assert_eq!(profile.phases[0].nanos, 70);
        assert_eq!(profile.total_nanos, 115);
        let timeline = profile.render_timeline();
        assert!(timeline.contains("|"), "timeline has bars: {timeline}");
        let hotspots = profile.render_hotspots();
        assert!(hotspots.contains("vertex compute"));
    }

    #[test]
    fn replays_and_restores_are_visible() {
        let mut restore = end("checkpoint.restore", 0, 50);
        restore.superstep = None;
        restore.attrs.insert("resumed_superstep".into(), "1".into());
        let recovery = Event {
            ts: 0,
            kind: "recovery".to_string(),
            edge: EDGE_POINT.to_string(),
            superstep: None,
            worker: None,
            dur: None,
            attrs: BTreeMap::new(),
        };
        let events = vec![end("superstep", 1, 10), restore, recovery, end("superstep", 1, 12)];
        let profile = Profile::build(&events, None).unwrap();
        assert_eq!(profile.recoveries, 1);
        assert_eq!(profile.restores.len(), 1);
        assert_eq!(profile.restores[0].resumed_superstep, 1);
        assert_eq!(profile.supersteps[0].executions, 2);
        assert!(profile.render_timeline().contains("(x2)"));
    }

    #[test]
    fn empty_log_is_an_error() {
        assert!(Profile::build(&[], None).is_err());
    }

    #[test]
    fn fmt_nanos_units() {
        assert_eq!(fmt_nanos(500), "500ns");
        assert_eq!(fmt_nanos(1_500), "1.5us");
        assert_eq!(fmt_nanos(2_500_000), "2.50ms");
        assert_eq!(fmt_nanos(3_000_000_000), "3.00s");
    }
}
