//! Per-superstep and whole-job statistics.

use std::fmt;
use std::time::Duration;

use crate::computation::Computation;
use crate::graph::Graph;

/// Counters gathered for one superstep.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SuperstepStats {
    /// The superstep these counters describe.
    pub superstep: u64,
    /// Vertices that executed `compute()` this superstep.
    pub compute_calls: u64,
    /// Vertices still active (not halted) after the superstep.
    pub active_vertices: u64,
    /// Messages sent (before any combining).
    pub messages_sent: u64,
    /// Messages delivered into inboxes (after combining).
    pub messages_delivered: u64,
    /// Messages addressed to vertices that do not exist (dropped).
    pub messages_to_missing: u64,
    /// Topology mutations applied at the barrier.
    pub mutations_applied: u64,
    /// Wall-clock time of the compute half: parallel vertex computation
    /// plus the aggregator merge (phases 2–3).
    pub compute_time: Duration,
    /// Wall-clock time of the delivery half: parallel message delivery
    /// plus topology mutations (phases 4–5).
    pub delivery_time: Duration,
    /// Wall-clock duration of the superstep — always the sum of
    /// [`SuperstepStats::compute_time`] and
    /// [`SuperstepStats::delivery_time`].
    pub wall_time: Duration,
}

impl SuperstepStats {
    /// The deterministic counters of this superstep, in declaration
    /// order, excluding the wall-clock durations. Two runs of the same
    /// job at the same partition count agree on these — as does the
    /// sequential reference runner; timings naturally differ.
    pub fn counters(&self) -> [u64; 7] {
        [
            self.superstep,
            self.compute_calls,
            self.active_vertices,
            self.messages_sent,
            self.messages_delivered,
            self.messages_to_missing,
            self.mutations_applied,
        ]
    }

    /// Whether every deterministic counter matches `other` (timings are
    /// ignored).
    pub fn same_counters(&self, other: &SuperstepStats) -> bool {
        self.counters() == other.counters()
    }
}

/// Why the job stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HaltReason {
    /// Every vertex voted to halt and no messages were in flight.
    AllVerticesHalted,
    /// The master computation called `halt_computation()`.
    MasterHalted,
    /// The configured superstep limit was reached.
    MaxSuperstepsReached,
}

/// Counters for a completed job.
#[derive(Clone, Debug)]
pub struct JobStats {
    /// One entry per executed superstep. Supersteps re-executed after a
    /// checkpoint restore appear once: a restore truncates the tail back
    /// to the checkpointed superstep before the replay refills it.
    pub supersteps: Vec<SuperstepStats>,
    /// Total wall-clock time including setup and teardown.
    pub total_wall_time: Duration,
    /// Checkpoint restores performed during the job (0 for a clean run).
    pub recoveries: u64,
}

impl JobStats {
    /// Number of supersteps executed.
    pub fn superstep_count(&self) -> u64 {
        self.supersteps.len() as u64
    }

    /// Total messages sent across all supersteps.
    pub fn total_messages(&self) -> u64 {
        self.supersteps.iter().map(|s| s.messages_sent).sum()
    }

    /// Total `compute()` invocations across all supersteps.
    pub fn total_compute_calls(&self) -> u64 {
        self.supersteps.iter().map(|s| s.compute_calls).sum()
    }

    /// Peak number of active vertices across supersteps.
    pub fn peak_active_vertices(&self) -> u64 {
        self.supersteps.iter().map(|s| s.active_vertices).max().unwrap_or(0)
    }

    /// Median superstep wall time (nearest-rank; zero without supersteps).
    pub fn p50_superstep_wall(&self) -> Duration {
        self.wall_percentile(50)
    }

    /// 95th-percentile superstep wall time (nearest-rank).
    pub fn p95_superstep_wall(&self) -> Duration {
        self.wall_percentile(95)
    }

    /// Longest superstep wall time.
    pub fn max_superstep_wall(&self) -> Duration {
        self.supersteps.iter().map(|s| s.wall_time).max().unwrap_or(Duration::ZERO)
    }

    /// Whether every deterministic per-superstep counter and the recovery
    /// count match `other` (wall-clock timings are ignored). This is the
    /// equality the differential tests assert between the engine and
    /// the sequential reference runner.
    pub fn same_counters(&self, other: &JobStats) -> bool {
        self.recoveries == other.recoveries
            && self.supersteps.len() == other.supersteps.len()
            && self.supersteps.iter().zip(&other.supersteps).all(|(a, b)| a.same_counters(b))
    }

    /// Nearest-rank percentile of the superstep wall times: the smallest
    /// wall time such that at least `pct`% of supersteps were as fast.
    fn wall_percentile(&self, pct: u64) -> Duration {
        if self.supersteps.is_empty() {
            return Duration::ZERO;
        }
        let mut walls: Vec<Duration> = self.supersteps.iter().map(|s| s.wall_time).collect();
        walls.sort_unstable();
        let rank = (pct * walls.len() as u64).div_ceil(100).max(1) as usize;
        walls[rank.min(walls.len()) - 1]
    }
}

/// One-line job summary, e.g.
/// `9 supersteps in 1.52ms (step wall p50/p95/max 120.0us/210.0us/230.0us),
/// 486 messages, 270 compute calls, 0 recoveries`.
impl fmt::Display for JobStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} supersteps in {} (step wall p50/p95/max {}/{}/{}), \
             {} messages, {} compute calls, {} recoveries",
            self.superstep_count(),
            fmt_duration(self.total_wall_time),
            fmt_duration(self.p50_superstep_wall()),
            fmt_duration(self.p95_superstep_wall()),
            fmt_duration(self.max_superstep_wall()),
            self.total_messages(),
            self.total_compute_calls(),
            self.recoveries,
        )
    }
}

fn fmt_duration(d: Duration) -> String {
    graft_obs::fmt_nanos(d.as_nanos() as u64)
}

/// Result of a successful job.
pub struct JobOutcome<C: Computation> {
    /// The graph with final vertex values and (possibly mutated) topology.
    pub graph: Graph<C::Id, C::VValue, C::EValue>,
    /// Per-superstep counters.
    pub stats: JobStats,
    /// Why the job stopped.
    pub halt_reason: HaltReason,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_stats_totals() {
        let stats = JobStats {
            supersteps: vec![
                SuperstepStats {
                    superstep: 0,
                    messages_sent: 10,
                    compute_calls: 4,
                    ..Default::default()
                },
                SuperstepStats {
                    superstep: 1,
                    messages_sent: 5,
                    compute_calls: 2,
                    ..Default::default()
                },
            ],
            total_wall_time: Duration::from_millis(3),
            recoveries: 0,
        };
        assert_eq!(stats.superstep_count(), 2);
        assert_eq!(stats.total_messages(), 15);
        assert_eq!(stats.total_compute_calls(), 6);
    }

    fn stats_with_walls(millis: &[u64]) -> JobStats {
        JobStats {
            supersteps: millis
                .iter()
                .enumerate()
                .map(|(i, &ms)| SuperstepStats {
                    superstep: i as u64,
                    wall_time: Duration::from_millis(ms),
                    ..Default::default()
                })
                .collect(),
            total_wall_time: Duration::from_millis(millis.iter().sum()),
            recoveries: 0,
        }
    }

    #[test]
    fn wall_time_percentiles() {
        let stats = stats_with_walls(&[5, 1, 3, 2, 4, 6, 8, 7, 9, 10]);
        assert_eq!(stats.p50_superstep_wall(), Duration::from_millis(5));
        assert_eq!(stats.p95_superstep_wall(), Duration::from_millis(10));
        assert_eq!(stats.max_superstep_wall(), Duration::from_millis(10));
    }

    #[test]
    fn percentiles_of_empty_and_single() {
        assert_eq!(stats_with_walls(&[]).p50_superstep_wall(), Duration::ZERO);
        assert_eq!(stats_with_walls(&[]).max_superstep_wall(), Duration::ZERO);
        let one = stats_with_walls(&[7]);
        assert_eq!(one.p50_superstep_wall(), Duration::from_millis(7));
        assert_eq!(one.p95_superstep_wall(), Duration::from_millis(7));
    }

    #[test]
    fn display_is_a_one_liner() {
        let stats = stats_with_walls(&[1, 2]);
        let line = stats.to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("2 supersteps"));
        assert!(line.contains("0 recoveries"));
        assert!(line.contains("p50/p95/max"));
    }

    #[test]
    fn peak_active_vertices() {
        let mut stats = stats_with_walls(&[1, 2, 3]);
        stats.supersteps[0].active_vertices = 4;
        stats.supersteps[1].active_vertices = 9;
        stats.supersteps[2].active_vertices = 2;
        assert_eq!(stats.peak_active_vertices(), 9);
    }
}
