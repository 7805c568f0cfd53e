//! The benchmark's metric catalogue: every end-to-end metric with its unit,
//! direction and regression bound, and every per-layer metric with the
//! end-to-end metric it is expected to move. `BENCHMARK.json` at the
//! repository root lists the same names, units and bounds; a self-test keeps
//! the two in step.

/// Whether a larger or a smaller value is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the simulator sees, reported by untraced runs.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// A metric of one layer, reported by traced runs.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric a change to this layer should move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics. `sim_*` come from the simulated clock and repeat
/// exactly for a seed; the rest are host-clock measurements.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("sim_makespan_ms", "ms", Lower, 0.2),
    e2e("sim_speedup_vs_double_buffer", "x", Higher, 0.2),
    e2e("sim_sustained_mib_per_s", "MiB/s", Higher, 0.2),
    e2e("sim_p99_window_latency_ms", "ms", Lower, 0.2),
    e2e("host_mib_per_s", "MiB/s", Higher, 0.25),
    e2e("baseline_host_mib_per_s", "MiB/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("host_peak_heap_mib", "MiB", Lower, 0.1),
];

const MAKESPAN: &str = "sim_makespan_ms";
const HOST: &str = "host_mib_per_s";

/// Per-layer metrics, grouped by the module that owns the layer.
pub const PER_LAYER: &[PerLayer] = &[
    // Host spans around the benchmark's calls into each layer.
    layer("host.apps.instantiate_s", "s", Lower, "setup_s"),
    layer("host.runtime.pipeline_s", "s", Lower, HOST),
    layer("host.runtime.stream_s", "s", Lower, HOST),
    layer("host.runtime.stream_per_window_us", "us", Lower, HOST),
    layer("host.apps.verify_s", "s", Lower, HOST),
    layer(
        "host.baselines.double_buffer_s",
        "s",
        Lower,
        "baseline_host_mib_per_s",
    ),
    layer("host.obs.critpath_s", "s", Lower, HOST),
    layer("host.other_s", "s", Lower, "setup_s"),
    layer("host.trace_overhead_s", "s", Lower, HOST),
    // runtime::graph / runtime::pipeline: simulated stage busy time and
    // critical-path blame (blame tiles the makespan exactly).
    layer("sim.busy.addr-gen_ms", "ms", Lower, MAKESPAN),
    layer("sim.busy.assemble_ms", "ms", Lower, MAKESPAN),
    layer("sim.busy.transfer_ms", "ms", Lower, MAKESPAN),
    layer("sim.busy.compute_ms", "ms", Lower, MAKESPAN),
    layer("sim.busy.wb-xfer_ms", "ms", Lower, MAKESPAN),
    layer("sim.busy.wb-apply_ms", "ms", Lower, MAKESPAN),
    layer("sim.crit.addr-gen_ms", "ms", Lower, MAKESPAN),
    layer("sim.crit.assemble_ms", "ms", Lower, MAKESPAN),
    layer("sim.crit.transfer_ms", "ms", Lower, MAKESPAN),
    layer("sim.crit.compute_ms", "ms", Lower, MAKESPAN),
    layer("sim.crit.wb-xfer_ms", "ms", Lower, MAKESPAN),
    layer("sim.crit.wb-apply_ms", "ms", Lower, MAKESPAN),
    // Stall totals of the causes that occur on these workloads; secondary,
    // since a stall off the critical path moves nothing. The ingest stall is
    // `stream.backpressure_ms`.
    layer("sim.stall.addr-gen.buffer-reuse_ms", "ms", Lower, MAKESPAN),
    layer("sim.stall.addr-gen.gpu-queue_ms", "ms", Lower, MAKESPAN),
    layer("sim.stall.assemble.cpu-thread_ms", "ms", Lower, MAKESPAN),
    layer("sim.stall.transfer.dma-queue_ms", "ms", Lower, MAKESPAN),
    layer("sim.stall.compute.gpu-queue_ms", "ms", Lower, MAKESPAN),
    // runtime::addr / runtime::pattern (paper §IV.A).
    layer("addr.entries", "count", Lower, HOST),
    layer("addr.pattern_hit_ratio", "ratio", Higher, HOST),
    layer("addr.encoded_mib", "MiB", Lower, HOST),
    // runtime::assembly + host::cache (paper §IV.B).
    layer("assembly.gathered_mib", "MiB", Lower, MAKESPAN),
    layer("assembly.llc_hit_ratio", "ratio", Higher, MAKESPAN),
    layer("assembly.simd_run_ratio", "ratio", Higher, HOST),
    // host::pcie.
    layer("pcie.h2d_mib", "MiB", Lower, MAKESPAN),
    layer("pcie.d2h_mib", "MiB", Lower, "sim_speedup_vs_double_buffer"),
    // gpu: coalescing and functional execution of the compute stage.
    layer("gpu.coalescing_efficiency", "ratio", Higher, MAKESPAN),
    layer("gpu.mem_moved_mib", "MiB", Lower, MAKESPAN),
    layer("gpu.issue_slots", "count", Lower, MAKESPAN),
    layer("gpu.atomics", "count", Lower, MAKESPAN),
    // runtime::fusion.
    layer("fusion.fused", "count", Higher, MAKESPAN),
    layer("fusion.saved_mib", "MiB", Higher, MAKESPAN),
    // runtime::pipeline: chunking and the §IV.D launch.
    layer("run.chunks", "count", Lower, MAKESPAN),
    layer("run.waves", "count", Lower, MAKESPAN),
    layer("launch.active_blocks", "count", Higher, MAKESPAN),
    // baselines.
    layer(
        "sim.double_buffer_makespan_ms",
        "ms",
        Lower,
        "sim_speedup_vs_double_buffer",
    ),
    // runtime::stream.
    layer("stream.windows", "count", Higher, "sim_sustained_mib_per_s"),
    layer(
        "stream.backpressure_ms",
        "ms",
        Lower,
        "sim_sustained_mib_per_s",
    ),
    layer(
        "stream.max_queue_depth",
        "count",
        Lower,
        "sim_sustained_mib_per_s",
    ),
    layer(
        "stream.redetects",
        "count",
        Lower,
        "sim_p99_window_latency_ms",
    ),
    layer(
        "stream.p50_window_latency_ms",
        "ms",
        Lower,
        "sim_p99_window_latency_ms",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad metric name {n:?}");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(valid_unit(u), "bad unit {u:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "metric names must be unique");
    }

    #[test]
    fn counts_and_bounds_are_within_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{}: bound {}",
                m.name,
                m.bound
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the widest bound");
    }

    #[test]
    fn every_layer_metric_moves_an_end_to_end_metric() {
        for m in PER_LAYER {
            assert!(
                END_TO_END.iter().any(|e| e.name == m.moves),
                "{} declares it moves {:?}, which is not an end-to-end metric",
                m.name,
                m.moves
            );
        }
    }

    /// `BENCHMARK.json` at the repository root declares exactly this
    /// catalogue, in the same order, with the same units and bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        let mut expected = String::from("\"end_to_end\":[");
        for (i, m) in END_TO_END.iter().enumerate() {
            if i > 0 {
                expected.push(',');
            }
            expected.push_str(&format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            ));
        }
        expected.push_str("],\"per_layer\":[");
        for (i, m) in PER_LAYER.iter().enumerate() {
            if i > 0 {
                expected.push(',');
            }
            expected.push_str(&format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            ));
        }
        expected.push(']');
        assert!(
            compact.contains(&expected),
            "BENCHMARK.json's metric lists differ from the catalogue; expected\n{expected}"
        );
    }
}
