//! Golden name set: every counter, histogram, span track and span stage
//! name three small traced runs emit, byte for byte.
//!
//! The runs share one K-means instance on two GPUs. BigKernel runs fused
//! into one two-pass pipeline with a targeted compute fault, so it reaches
//! every composed-name family: fused `p<i>.` stages, `dev<i>.` resource
//! tracks, `device.<i>.*` counters, `bound.*` and `stall.*.fault` counters
//! and the `hist.reuse-wait.*` histograms. The single- and double-buffered
//! baselines add the rest of the resource vocabulary: the `serial`,
//! `cpu-stage` and `gpu` tracks on both devices and their
//! `stall.*.serial` and `stall.*.cpu-thread` counters. Reports, BENCH files
//! and the benchmark read metrics by these names, so any change to the set
//! is a format change and must show here.

use bk_apps::kmeans::KMeans;
use bk_apps::{run_implementation, BenchApp, HarnessConfig, Implementation};
use bk_runtime::FaultPlan;
use std::collections::BTreeSet;

/// Every emitted name, tagged by kind, in sorted order.
const GOLDEN: &[&str] = &[
    "counter:addr.encoded_bytes",
    "counter:addr.entries",
    "counter:addr.patterns_found",
    "counter:addr.patterns_missed",
    "counter:addr.segmented_found",
    "counter:assembly.cache_blocked_warps",
    "counter:assembly.cache_hits",
    "counter:assembly.cache_misses",
    "counter:assembly.gathered_bytes",
    "counter:assembly.locality_order_chunks",
    "counter:assembly.padding_bytes",
    "counter:assembly.scalar_runs",
    "counter:assembly.simd_runs",
    "counter:bound.addr-gen.pcie-zerocopy",
    "counter:bound.assemble.cpu-dram-latency",
    "counter:bound.assemble.cpu-issue",
    "counter:bound.compute.gpu-atomic-throughput",
    "counter:bound.compute.gpu-issue",
    "counter:bound.transfer.dma-latency",
    "counter:bound.wb-apply.cpu-issue",
    "counter:bound.wb-xfer.dma-latency",
    "counter:device.0.busy_ns",
    "counter:device.0.chunks",
    "counter:device.0.makespan_ns",
    "counter:device.0.stall_ns",
    "counter:device.1.busy_ns",
    "counter:device.1.chunks",
    "counter:device.1.makespan_ns",
    "counter:device.1.stall_ns",
    "counter:fault.injected",
    "counter:fault.retried",
    "counter:fusion.fused",
    "counter:fusion.h2d_saved_bytes",
    "counter:fusion.passes",
    "counter:fusion.resident_bytes_per_chunk",
    "counter:fusion.scratch_bytes",
    "counter:gpu.comp_atomics",
    "counter:gpu.comp_hot_atomic_chain",
    "counter:gpu.comp_issue_slots",
    "counter:gpu.comp_mem_bytes_moved",
    "counter:gpu.comp_mem_bytes_useful",
    "counter:gpu.mem_transactions",
    "counter:launch.active_blocks",
    "counter:launch.blocks",
    "counter:launch.threads",
    "counter:pcie.d2h_bytes",
    "counter:pcie.h2d_bytes",
    "counter:run.chunks_per_block",
    "counter:run.devices",
    "counter:run.modified_mapped_data",
    "counter:run.waves",
    "counter:run.windows",
    "counter:stall.addr-gen.buffer-reuse",
    "counter:stall.addr-gen.gpu-queue",
    "counter:stall.assemble.cpu-thread",
    "counter:stall.compute.fault",
    "counter:stall.compute.gpu-queue",
    "counter:stall.stage-pin.cpu-thread",
    "counter:stall.stage-pin.serial",
    "counter:stall.transfer.dma-queue",
    "counter:stream.bytes_read",
    "counter:stream.bytes_read_unique",
    "counter:stream.bytes_written",
    "hist:hist.assembly.run_bytes",
    "hist:hist.chunk.d2h_bytes",
    "hist:hist.chunk.h2d_bytes",
    "hist:hist.reuse-wait.addr-gen",
    "hist:hist.span.addr-gen",
    "hist:hist.span.assemble",
    "hist:hist.span.compute",
    "hist:hist.span.stage-pin",
    "hist:hist.span.transfer",
    "hist:hist.span.wb-apply",
    "hist:hist.span.wb-xfer",
    "stage:compute",
    "stage:fault",
    "stage:p0.addr-gen",
    "stage:p0.assemble",
    "stage:p0.compute",
    "stage:p0.transfer",
    "stage:p0.wb-apply",
    "stage:p0.wb-xfer",
    "stage:p1.addr-gen",
    "stage:p1.assemble",
    "stage:p1.compute",
    "stage:p1.transfer",
    "stage:stage-pin",
    "stage:transfer",
    "stage:wb-apply",
    "stage:wb-xfer",
    "track:cpu-asm",
    "track:cpu-stage",
    "track:cpu-wb",
    "track:dev1.cpu-asm",
    "track:dev1.cpu-stage",
    "track:dev1.cpu-wb",
    "track:dev1.dma",
    "track:dev1.gpu",
    "track:dev1.gpu-ag",
    "track:dev1.gpu-comp",
    "track:dev1.serial",
    "track:dma",
    "track:gpu",
    "track:gpu-ag",
    "track:gpu-comp",
    "track:serial",
];

fn emitted_names() -> Vec<String> {
    let mut cfg = HarnessConfig::test_small();
    cfg.gpus = 2;
    cfg.fuse = true;
    cfg.bigkernel.faults = Some(FaultPlan::parse("fail=compute@1").expect("valid fault spec"));
    let mut machine = cfg.build_machine();
    let instance = KMeans::default().instantiate(&mut machine, 256 * 1024, 7);

    let mut names = BTreeSet::new();
    for imp in [
        Implementation::BigKernel,
        Implementation::GpuSingleBuffer,
        Implementation::GpuDoubleBuffer,
    ] {
        let guard = bk_obs::trace::start();
        let r = run_implementation(&mut machine, &instance, imp, &cfg);
        let spans = guard.finish();
        names.extend(r.metrics.iter().map(|(n, _)| format!("counter:{n}")));
        names.extend(r.metrics.hists().map(|(n, _)| format!("hist:{n}")));
        for sp in &spans {
            names.insert(format!("track:{}", sp.track));
            names.insert(format!("stage:{}", sp.stage));
        }
    }
    names.into_iter().collect()
}

#[test]
fn emitted_names_match_the_golden_set() {
    let names = emitted_names();
    for family in [
        "stage:p1.",
        "track:dev1.",
        "counter:device.1.",
        "counter:bound.",
        "counter:stall.compute.fault",
        "hist:hist.reuse-wait.",
        "track:dev1.serial",
        "track:dev1.cpu-stage",
        "track:dev1.gpu",
        "counter:stall.stage-pin.serial",
        "counter:stall.stage-pin.cpu-thread",
    ] {
        assert!(
            names.iter().any(|n| n.starts_with(family)),
            "the run emitted no `{family}` name"
        );
    }
    if names != GOLDEN {
        let listing: String = names.iter().map(|n| format!("    {n:?},\n")).collect();
        panic!("emitted names differ from the golden set; actual:\n{listing}");
    }
}
