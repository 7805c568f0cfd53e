//! Run results: simulated time, per-stage breakdown, counters.

use bk_obs::MetricsRegistry;
use bk_simcore::{Schedule, ScheduleView, SimTime};

/// Aggregate statistics for one pipeline stage across a whole run.
#[derive(Clone, Debug, PartialEq)]
pub struct StageStat {
    /// Stage name (one of `pipeline::STAGE_NAMES`).
    pub name: &'static str,
    /// Total busy time of the stage across all chunks (and waves).
    pub busy: SimTime,
    /// Mean duration of one chunk instance.
    pub mean: SimTime,
}

/// Result of one simulated run (BigKernel or a baseline). `PartialEq`
/// supports the determinism suite's bit-identity assertions (parallel vs
/// sequential block simulation).
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Which implementation produced this (e.g. "bigkernel",
    /// "gpu-double-buffer").
    pub implementation: &'static str,
    /// End-to-end simulated time.
    pub total: SimTime,
    /// Per-stage aggregate statistics, in pipeline order.
    pub stages: Vec<StageStat>,
    /// Unified metrics: event counters (bytes over PCIe, transactions,
    /// cache hits, stall totals, ...) plus histograms (span durations,
    /// per-chunk bytes).
    pub metrics: MetricsRegistry,
    /// Number of chunks processed (across all waves).
    pub chunks: usize,
}

impl RunResult {
    /// Per-stage busy time relative to the busiest stage (paper Fig. 6).
    pub fn relative_stage_times(&self) -> Vec<(&'static str, f64)> {
        let max = self
            .stages
            .iter()
            .map(|s| s.busy)
            .fold(SimTime::ZERO, SimTime::max);
        self.stages
            .iter()
            .map(|s| {
                (
                    s.name,
                    if max.is_zero() {
                        0.0
                    } else {
                        s.busy.ratio(max)
                    },
                )
            })
            .collect()
    }

    /// Busy time of a named stage (zero if absent).
    pub fn stage_busy(&self, name: &str) -> SimTime {
        self.stages
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.busy)
            .unwrap_or(SimTime::ZERO)
    }

    /// speedup of this run relative to `other` (>1 means self is faster).
    pub fn speedup_over(&self, other: &RunResult) -> f64 {
        other.total.ratio(self.total)
    }
}

/// Fold a wave's schedule (a whole wave or one device's shard) into
/// per-stage totals.
pub fn accumulate_stage_stats(stats: &mut Vec<StageStat>, schedule: &Schedule) {
    if stats.is_empty() {
        for s in 0..schedule.num_stages() {
            stats.push(StageStat {
                name: schedule.stage_name(s),
                busy: SimTime::ZERO,
                mean: SimTime::ZERO,
            });
        }
    }
    assert_eq!(
        stats.len(),
        schedule.num_stages(),
        "stage shape changed between waves"
    );
    for (s, st) in stats.iter_mut().enumerate() {
        st.busy += schedule.stage_busy(s);
    }
}

/// Finalize means after all waves are accumulated.
pub fn finalize_stage_stats(stats: &mut [StageStat], total_chunks: usize) {
    if total_chunks == 0 {
        return;
    }
    for st in stats.iter_mut() {
        st.mean = st.busy / total_chunks as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bk_simcore::{pipeline, GraphSpec, ResourceId, ResourceKind, SimTime};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample_schedule() -> pipeline::Schedule {
        let spec = GraphSpec::chain(vec![
            ("a", ResourceId::new(ResourceKind::DmaH2D, 0)),
            ("b", ResourceId::new(ResourceKind::GpuCompute, 0)),
        ]);
        pipeline::schedule(spec, &[vec![t(1.0), t(3.0)], vec![t(1.0), t(3.0)]])
    }

    #[test]
    fn accumulate_and_finalize() {
        let mut stats = Vec::new();
        let sched = sample_schedule();
        accumulate_stage_stats(&mut stats, &sched);
        accumulate_stage_stats(&mut stats, &sched);
        finalize_stage_stats(&mut stats, 4);
        assert_eq!(stats[0].busy.secs(), 4.0);
        assert_eq!(stats[1].busy.secs(), 12.0);
        assert_eq!(stats[1].mean.secs(), 3.0);
    }

    #[test]
    fn relative_stage_times_normalized_to_busiest() {
        let r = RunResult {
            implementation: "x",
            total: t(10.0),
            stages: vec![
                StageStat {
                    name: "a",
                    busy: t(2.0),
                    mean: t(1.0),
                },
                StageStat {
                    name: "b",
                    busy: t(8.0),
                    mean: t(4.0),
                },
            ],
            metrics: MetricsRegistry::new(),
            chunks: 2,
        };
        let rel = r.relative_stage_times();
        assert_eq!(rel[0], ("a", 0.25));
        assert_eq!(rel[1], ("b", 1.0));
        assert_eq!(r.stage_busy("a").secs(), 2.0);
        assert_eq!(r.stage_busy("missing"), SimTime::ZERO);
    }

    #[test]
    fn speedup_over_is_ratio_of_totals() {
        let mk = |secs| RunResult {
            implementation: "x",
            total: t(secs),
            stages: vec![],
            metrics: MetricsRegistry::new(),
            chunks: 0,
        };
        assert_eq!(mk(2.0).speedup_over(&mk(6.0)), 3.0);
    }
}
