//! Application harness: run any app under every implementation on identical
//! data, verify outputs, and merge multi-pass results.

use bk_baselines::{
    run_cpu_multithreaded, run_cpu_serial, run_gpu_double_buffer, run_gpu_single_buffer,
    run_variant, BaselineConfig, BigKernelVariant,
};
use bk_runtime::fusion::FusePlan;
use bk_runtime::{
    run_bigkernel, run_bigkernel_fused, BigKernelConfig, LaunchConfig, Machine, RunResult,
    StageStat, StreamArray, StreamId, StreamKernel,
};
use bk_simcore::SimTime;

/// Static description of an application (Table I row + metadata).
#[derive(Clone, Copy, Debug)]
pub struct AppSpec {
    pub name: &'static str,
    /// Dataset size used in the paper (for Table I).
    pub paper_data_size: &'static str,
    pub record_type: &'static str,
    /// Paper's Table I mapped-data read proportion (percent).
    pub paper_read_pct: u32,
    /// Paper's Table I mapped-data modified proportion (percent).
    pub paper_modified_pct: u32,
    /// Whether §IV.A pattern recognition applies (Table II lists "NA" for
    /// the indexed MasterCard Affinity variant).
    pub pattern_applicable: bool,
}

/// Post-run output check against the pure-Rust reference.
pub type VerifyFn = Box<dyn Fn(&Machine) -> Result<(), String> + Send + Sync>;

/// A generated, ready-to-run application instance.
///
/// `Send + Sync` bounds let the harness run independent implementations on
/// separate machines in parallel (each gets its own freshly-generated
/// instance; nothing is shared).
pub struct Instance {
    /// Kernel passes, run in order (MasterCard Affinity has two).
    pub kernels: Vec<Box<dyn StreamKernel + Send + Sync>>,
    pub streams: Vec<StreamArray>,
    /// Streams produced and consumed entirely *inside* the multi-pass
    /// program (intermediates). Under fusion their write-back transfer is
    /// elided ([`bk_runtime::fusion::PassIo::skip_writeback`]); unfused
    /// runs still materialize them in host memory between passes.
    pub scratch_streams: Vec<StreamId>,
    /// A pre-fused single-kernel program equivalent to running `kernels`
    /// in order (IR-level fusion, see `bk_kernelc::fuse`). When present
    /// and fusion is requested, the harness runs this one kernel instead
    /// of analyzing the pass pair at the schedule level.
    pub fused: Option<Box<dyn StreamKernel + Send + Sync>>,
    /// Verifies the machine state after all passes against the reference.
    pub verify: VerifyFn,
}

/// An application that the experiment harness can drive.
pub trait BenchApp {
    fn spec(&self) -> AppSpec;
    /// Generate ~`bytes` of input (deterministic in `seed`) plus device
    /// state, into `machine`.
    fn instantiate(&self, machine: &mut Machine, bytes: u64, seed: u64) -> Instance;
}

/// The five evaluated implementations plus the Fig. 5 ablation variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Implementation {
    CpuSerial,
    CpuMultithreaded,
    GpuSingleBuffer,
    GpuDoubleBuffer,
    BigKernel,
    Variant(BigKernelVariant),
}

impl Implementation {
    /// The paper's Fig. 4(a) bar set, in plot order.
    pub const FIG4A: [Implementation; 5] = [
        Implementation::CpuSerial,
        Implementation::CpuMultithreaded,
        Implementation::GpuSingleBuffer,
        Implementation::GpuDoubleBuffer,
        Implementation::BigKernel,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Implementation::CpuSerial => "cpu-serial",
            Implementation::CpuMultithreaded => "cpu-multithreaded",
            Implementation::GpuSingleBuffer => "gpu-single-buffer",
            Implementation::GpuDoubleBuffer => "gpu-double-buffer",
            Implementation::BigKernel => "bigkernel",
            Implementation::Variant(v) => v.label(),
        }
    }
}

/// Shared run parameters.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    pub machine: fn() -> Machine,
    pub launch: LaunchConfig,
    pub bigkernel: BigKernelConfig,
    pub baseline: BaselineConfig,
    /// Factor applied to the platform's fixed latencies (DMA setup, flags,
    /// kernel launch) so that scaled-down datasets keep the paper-scale
    /// balance between fixed and bandwidth costs. 1.0 = unscaled.
    pub fixed_cost_scale: f64,
    /// Replace the platform's CPU-GPU interconnect (sensitivity studies);
    /// `None` keeps the machine's default link.
    pub link: Option<bk_host::PcieLink>,
    /// Number of simulated GPUs; chunks are sharded across them by the
    /// stage-graph executor. Functional outputs are identical at any count.
    pub gpus: usize,
    /// Mega-kernel fusion: compile multi-pass programs into one multi-stage
    /// pipeline when the dependence analysis proves it safe (BigKernel
    /// implementation only; refused pairs fall back to the per-pass loop).
    pub fuse: bool,
}

impl HarnessConfig {
    /// Paper-platform defaults used by the figure/table binaries.
    pub fn paper() -> Self {
        HarnessConfig {
            machine: Machine::paper_platform,
            launch: LaunchConfig::new(16, 128),
            bigkernel: BigKernelConfig {
                chunk_input_bytes: 1 << 20,
                ..BigKernelConfig::default()
            },
            baseline: BaselineConfig::default(),
            fixed_cost_scale: 1.0,
            link: None,
            gpus: 1,
            fuse: false,
        }
    }

    /// Paper platform with buffer/window sizes scaled to the dataset, so a
    /// scaled-down run keeps the paper's pipeline depth (the authors tuned
    /// buffer sizes per application for best execution time; ~12 chunk
    /// rounds keeps per-chunk sync overhead amortized while leaving real
    /// overlap to measure).
    pub fn paper_scaled(bytes: u64) -> Self {
        const ROUNDS: u64 = 12;
        /// The paper's typical dataset size; the scale reference point.
        const PAPER_BYTES: f64 = 6.0e9;
        let mut cfg = Self::paper();
        // The paper tuned the GPU thread count per application for best
        // time; at reduced dataset sizes fewer blocks keep each lane's
        // chunk slice large enough for patterns and pipelining to matter
        // (a 2048-lane launch over a few MiB leaves ~2 records per slice).
        let blocks = (bytes / (2 << 20)).clamp(2, 16) as u32;
        cfg.launch = LaunchConfig::new(blocks, cfg.launch.threads_per_block);
        cfg.bigkernel.chunk_input_bytes = (bytes / (blocks as u64 * ROUNDS)).max(16 * 1024);
        cfg.baseline.window_bytes = (bytes / ROUNDS).max(64 * 1024);
        cfg.fixed_cost_scale = (bytes as f64 / PAPER_BYTES).clamp(1e-4, 1.0);
        cfg.baseline.kernel_launch_overhead =
            cfg.baseline.kernel_launch_overhead * cfg.fixed_cost_scale;
        cfg
    }

    /// A fresh machine for one run: the platform preset replicated to
    /// [`gpus`](Self::gpus) devices, with the [`link`](Self::link) override
    /// applied and fixed costs scaled by
    /// [`fixed_cost_scale`](Self::fixed_cost_scale).
    pub fn build_machine(&self) -> Machine {
        let mut machine = (self.machine)();
        machine.replicate_gpus(self.gpus);
        if let Some(link) = &self.link {
            machine.link = link.clone();
        }
        machine.scale_fixed_costs(self.fixed_cost_scale);
        machine
    }

    /// Small everything for fast unit tests.
    pub fn test_small() -> Self {
        HarnessConfig {
            machine: Machine::test_platform,
            launch: LaunchConfig::new(2, 32),
            bigkernel: BigKernelConfig {
                chunk_input_bytes: 16 * 1024,
                ..BigKernelConfig::default()
            },
            baseline: BaselineConfig {
                window_bytes: 64 * 1024,
                ..BaselineConfig::default()
            },
            fixed_cost_scale: 1.0,
            link: None,
            gpus: 1,
            fuse: false,
        }
    }
}

/// Merge the results of an app's kernel passes into one.
pub fn merge_pass_results(name: &'static str, results: Vec<RunResult>) -> RunResult {
    let mut total = SimTime::ZERO;
    let mut stages: Vec<StageStat> = Vec::new();
    let mut metrics = bk_runtime::MetricsRegistry::new();
    let mut chunks = 0;
    for r in results {
        total += r.total;
        metrics.merge(&r.metrics);
        chunks += r.chunks;
        for s in r.stages {
            match stages.iter_mut().find(|x| x.name == s.name) {
                Some(x) => {
                    x.busy += s.busy;
                    x.mean = x.busy / chunks.max(1) as f64;
                }
                None => stages.push(s),
            }
        }
    }
    RunResult {
        implementation: name,
        total,
        stages,
        metrics,
        chunks,
    }
}

/// Run every pass of `instance` under one implementation; outputs land in
/// `machine` (verify separately via `instance.verify`).
pub fn run_implementation(
    machine: &mut Machine,
    instance: &Instance,
    imp: Implementation,
    cfg: &HarnessConfig,
) -> RunResult {
    let fuse_requested = cfg.fuse && imp == Implementation::BigKernel;
    if fuse_requested {
        if let Some(result) = run_fused(machine, instance, cfg) {
            return result;
        }
    }
    let results: Vec<RunResult> = instance
        .kernels
        .iter()
        .enumerate()
        .map(|(pass, k)| {
            bk_obs::critpath::set_pass(pass);
            run_one(machine, k.as_ref(), &instance.streams, imp, cfg)
        })
        .collect();
    bk_obs::critpath::set_pass(0);
    let mut merged = merge_pass_results(imp.label(), results);
    if fuse_requested {
        // Dependence analysis could not prove the pass pair safe; record
        // the conservative fallback so sweeps can tell "fused" from
        // "refused, ran unfused" without comparing byte counts.
        merged.metrics.add("fusion.refused", 1);
    }
    merged
}

/// Attempt the fused execution of a multi-pass program: the IR-fused
/// single kernel when the app provides one, otherwise schedule-level
/// fusion via [`FusePlan::analyze`] over the passes' access summaries.
/// Returns `None` when fusion is refused — the caller falls back to the
/// ordinary per-pass loop, which is always functionally correct.
fn run_fused(machine: &mut Machine, instance: &Instance, cfg: &HarnessConfig) -> Option<RunResult> {
    let label = Implementation::BigKernel.label();
    if let Some(fused) = &instance.fused {
        let mut r = run_bigkernel(
            machine,
            fused.as_ref(),
            &instance.streams,
            cfg.launch,
            &cfg.bigkernel,
        );
        r.implementation = label;
        r.metrics.add("fusion.fused", 1);
        return Some(r);
    }
    if instance.kernels.len() < 2 {
        return None;
    }
    let summaries: Vec<_> = instance
        .kernels
        .iter()
        .map(|k| k.access_summary())
        .collect();
    let plan = FusePlan::analyze(
        &summaries,
        instance.streams.len(),
        &instance.scratch_streams,
    )
    .ok()?;
    let kernels: Vec<&dyn StreamKernel> = instance
        .kernels
        .iter()
        .map(|k| k.as_ref() as &dyn StreamKernel)
        .collect();
    let mut r = run_bigkernel_fused(
        machine,
        &kernels,
        &instance.streams,
        cfg.launch,
        &cfg.bigkernel,
        &plan,
    )
    .ok()?;
    r.implementation = label;
    r.metrics.add("fusion.fused", 1);
    Some(r)
}

fn run_one(
    machine: &mut Machine,
    kernel: &dyn StreamKernel,
    streams: &[StreamArray],
    imp: Implementation,
    cfg: &HarnessConfig,
) -> RunResult {
    match imp {
        Implementation::CpuSerial => run_cpu_serial(machine, kernel, streams),
        Implementation::CpuMultithreaded => run_cpu_multithreaded(machine, kernel, streams),
        Implementation::GpuSingleBuffer => {
            run_gpu_single_buffer(machine, kernel, streams, cfg.launch, &cfg.baseline)
        }
        Implementation::GpuDoubleBuffer => {
            run_gpu_double_buffer(machine, kernel, streams, cfg.launch, &cfg.baseline)
        }
        Implementation::BigKernel => {
            run_bigkernel(machine, kernel, streams, cfg.launch, &cfg.bigkernel)
        }
        Implementation::Variant(v) => {
            run_variant(machine, kernel, streams, cfg.launch, &cfg.bigkernel, v)
        }
    }
}

/// Run `app` under each of `imps` on identical data (fresh machine + same
/// seed per implementation), verifying every run. Returns results in the
/// order of `imps`.
///
/// Implementations are independent (each gets its own machine and its own
/// deterministic regeneration of the data), so they execute in parallel on
/// the host running the simulation — this is where `rayon` earns its place
/// in the workspace (DESIGN.md §6). Simulated times are unaffected.
pub fn run_all(
    app: &(dyn BenchApp + Sync),
    bytes: u64,
    seed: u64,
    cfg: &HarnessConfig,
    imps: &[Implementation],
) -> Vec<(Implementation, RunResult)> {
    use rayon::prelude::*;
    imps.par_iter()
        .map(|&imp| {
            let mut machine = cfg.build_machine();
            let instance = app.instantiate(&mut machine, bytes, seed);
            let result = run_implementation(&mut machine, &instance, imp, cfg);
            if let Err(e) = (instance.verify)(&machine) {
                panic!(
                    "{} failed verification under {}: {e}",
                    app.spec().name,
                    imp.label()
                );
            }
            (imp, result)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bk_runtime::MetricsRegistry;

    fn res(name: &'static str, secs: f64, stage: &'static str) -> RunResult {
        let t = SimTime::from_secs(secs);
        let mut c = MetricsRegistry::new();
        c.add("x", 1);
        RunResult {
            implementation: name,
            total: t,
            stages: vec![StageStat {
                name: stage,
                busy: t,
                mean: t,
            }],
            metrics: c,
            chunks: 2,
        }
    }

    #[test]
    fn merge_pass_results_sums() {
        let merged = merge_pass_results(
            "mca",
            vec![res("p1", 1.0, "compute"), res("p2", 2.0, "compute")],
        );
        assert_eq!(merged.total.secs(), 3.0);
        assert_eq!(merged.stages.len(), 1);
        assert_eq!(merged.stages[0].busy.secs(), 3.0);
        assert_eq!(merged.metrics.get("x"), 2);
        assert_eq!(merged.chunks, 4);
    }

    #[test]
    fn merge_keeps_distinct_stage_names() {
        let merged = merge_pass_results(
            "x",
            vec![res("p1", 1.0, "compute"), res("p2", 2.0, "transfer")],
        );
        assert_eq!(merged.stages.len(), 2);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = Implementation::FIG4A.iter().map(|i| i.label()).collect();
        labels.push(Implementation::Variant(BigKernelVariant::OverlapOnly).label());
        let mut sorted = labels.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len());
    }
}

#[cfg(test)]
mod scaled_config_tests {
    use super::*;

    #[test]
    fn paper_scaled_keeps_twelve_rounds() {
        for mib in [4u64, 8, 16, 32, 64] {
            let bytes = mib << 20;
            let cfg = HarnessConfig::paper_scaled(bytes);
            let blocks = cfg.launch.num_blocks as u64;
            // Chunk rounds ≈ 12 (input per round = blocks * chunk bytes).
            let rounds = bytes / (blocks * cfg.bigkernel.chunk_input_bytes);
            assert!((8..=16).contains(&rounds), "{mib} MiB -> {rounds} rounds");
            // Baseline windows ≈ 12 as well.
            let windows = bytes / cfg.baseline.window_bytes;
            assert!(
                (8..=16).contains(&windows),
                "{mib} MiB -> {windows} windows"
            );
        }
    }

    #[test]
    fn paper_scaled_launch_grows_with_data() {
        let small = HarnessConfig::paper_scaled(4 << 20);
        let large = HarnessConfig::paper_scaled(64 << 20);
        assert!(small.launch.num_blocks < large.launch.num_blocks);
        assert_eq!(large.launch.num_blocks, 16); // capped at the paper launch
    }

    #[test]
    fn paper_scaled_fixed_costs_track_data_ratio() {
        let cfg = HarnessConfig::paper_scaled(6_000_000_000);
        assert!(
            (cfg.fixed_cost_scale - 1.0).abs() < 1e-9,
            "paper scale is unscaled"
        );
        let cfg = HarnessConfig::paper_scaled(6_000_000);
        assert!((cfg.fixed_cost_scale - 1e-3).abs() < 1e-6);
    }
}
