//! The metric tables: names, units, direction, regression bounds. The
//! root `BENCHMARK.json` repeats these tables for the acceptance driver;
//! a unit test keeps the two in step.

/// An end-to-end metric: something a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression. All are lower-is-better.
    pub bound: f64,
    /// Repeats exactly for a given seed; `compare` demands identity.
    pub exact: bool,
    /// Timed many times in a run (per set-up, job pair or round of
    /// S3–S7); a run reports the smallest of those values.
    pub per_round: bool,
}

pub const END_TO_END: [EndToEnd; 11] = [
    EndToEnd { name: "setup_s", unit: "s", bound: 0.25, exact: false, per_round: true },
    EndToEnd { name: "plain_job_s", unit: "s", bound: 0.25, exact: false, per_round: true },
    EndToEnd { name: "debug_job_s", unit: "s", bound: 0.25, exact: false, per_round: true },
    EndToEnd { name: "trace_bytes", unit: "bytes", bound: 0.25, exact: true, per_round: false },
    EndToEnd { name: "open_ms", unit: "ms", bound: 0.25, exact: false, per_round: true },
    EndToEnd { name: "first_view_ms", unit: "ms", bound: 0.25, exact: false, per_round: true },
    EndToEnd { name: "view_p50_ms", unit: "ms", bound: 0.25, exact: false, per_round: true },
    EndToEnd { name: "view_p99_ms", unit: "ms", bound: 0.25, exact: false, per_round: true },
    EndToEnd { name: "nodelink_ms", unit: "ms", bound: 0.25, exact: false, per_round: true },
    EndToEnd { name: "repro_ms", unit: "ms", bound: 0.25, exact: false, per_round: true },
    EndToEnd { name: "peak_rss_mb", unit: "MB", bound: 0.25, exact: false, per_round: false },
];

/// A metric of a single layer, reported by the traced run. No bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// A count that repeats exactly for a given seed.
    pub exact: bool,
    /// Timed once per set-up, job pair, round or request; a run reports
    /// the smallest of those values (the median otherwise).
    pub per_round: bool,
}

const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: false, exact: false, per_round: false }
}

const fn round_time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: false, exact: false, per_round: true }
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: false, exact: true, per_round: false }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: true, exact: false, per_round: false }
}

pub const PER_LAYER: [PerLayer; 55] = [
    // datasets → setup_s
    round_time("datasets.generate_s", "s"),
    round_time("datasets.to_graph_s", "s"),
    count("datasets.edges", "count"),
    // pregel engine (S1 JobStats) → plain_job_s, debug_job_s
    count("pregel.supersteps", "count"),
    count("pregel.compute_calls", "count"),
    count("pregel.messages_sent", "count"),
    round_time("pregel.compute_s", "s"),
    round_time("pregel.delivery_s", "s"),
    time("pregel.sync_s", "s"),
    round_time("pregel.superstep_p50_us", "us"),
    round_time("pregel.superstep_max_us", "us"),
    round_time("pregel.ns_per_message", "ns"),
    round_time("pregel.ns_per_compute_call", "ns"),
    // pregel robustness (S2 JobStats + Obs counters) → debug_job_s, peak_rss_mb
    count("pregel.recoveries", "count"),
    count("pregel.checkpoint_bytes", "bytes"),
    count("pregel.msglog_bytes", "bytes"),
    // Spill traffic follows eviction order, which follows thread timing.
    time("pregel.spill_bytes", "bytes"),
    time("pregel.load_bytes", "bytes"),
    time("pregel.budget_overruns", "count"),
    // core write side → debug_job_s, trace_bytes
    time("core.capture_added_s", "s"),
    time("core.overhead_ratio", "ratio"),
    count("core.captures", "count"),
    count("core.violations", "count"),
    time("core.us_per_capture", "us"),
    time("core.bytes_per_capture", "bytes"),
    time("core.instrument_residual_s", "s"),
    // codec: encode → debug_job_s; scan/decode → open_ms, first_view_ms, nodelink_ms
    count("codec.frames", "count"),
    time("codec.scan_s", "s"),
    time("codec.decode_s", "s"),
    time("codec.encode_s", "s"),
    rate("codec.encode_mb_per_s", "MB/s"),
    rate("codec.decode_mb_per_s", "MB/s"),
    count("codec.roundtrip_mismatches", "count"),
    // dfs: append → debug_job_s; read → open_ms, first_view_ms
    time("dfs.append_s", "s"),
    count("dfs.appends", "count"),
    time("dfs.read_s", "s"),
    count("dfs.bytes_written", "bytes"),
    count("dfs.bytes_read", "bytes"),
    count("dfs.retries", "count"),
    // core read side → open_ms, view_p50_ms, view_p99_ms, nodelink_ms, repro_ms
    time("core.session_open_ms", "ms"),
    round_time("core.supersteps_json_us", "us"),
    round_time("core.tabular_page_us", "us"),
    round_time("core.tabular_search_us", "us"),
    round_time("core.violations_us", "us"),
    round_time("core.node_link_ms", "ms"),
    round_time("core.repro_us", "us"),
    // server → first_view_ms, view_p50_ms
    time("server.index_miss_ms", "ms"),
    round_time("server.index_hit_us", "us"),
    time("server.http_overhead_us", "us"),
    // Response bytes scale with the number of rounds the clock allowed.
    time("server.bytes_out", "bytes"),
    count("server.responses_non200", "count"),
    // obs → nothing today (obs is off end to end)
    time("obs.on_added_s", "s"),
    time("obs.on_added_pct", "%"),
    // the benchmark itself
    time("bench.trace_overhead_pct", "%"),
    rate("bench.span_coverage_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use serde_json::Value;

    /// `BENCHMARK.json` at the repository root must list exactly these
    /// workloads and metrics, with the same units and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");

        let names = |key: &str| -> Vec<String> {
            doc[key]
                .as_array()
                .expect("an array")
                .iter()
                .map(|entry| entry["name"].as_str().expect("a name").to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        for (entry, workload) in doc["workloads"].as_array().unwrap().iter().zip(&WORKLOADS) {
            assert_eq!(entry["why"].as_str(), Some(workload.why), "{}", workload.name);
        }

        assert_eq!(names("end_to_end"), END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        for (entry, metric) in doc["end_to_end"].as_array().unwrap().iter().zip(&END_TO_END) {
            assert_eq!(entry["unit"].as_str(), Some(metric.unit), "{}", metric.name);
            assert_eq!(entry["better"].as_str(), Some("lower"), "{}", metric.name);
            assert_eq!(entry["bound"].as_f64(), Some(metric.bound), "{}", metric.name);
        }

        assert_eq!(names("per_layer"), PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
        for (entry, metric) in doc["per_layer"].as_array().unwrap().iter().zip(&PER_LAYER) {
            assert_eq!(entry["unit"].as_str(), Some(metric.unit), "{}", metric.name);
            let better = if metric.higher_is_better { "higher" } else { "lower" };
            assert_eq!(entry["better"].as_str(), Some(better), "{}", metric.name);
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
