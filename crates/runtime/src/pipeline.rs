//! The BigKernel pipeline runner.
//!
//! Orchestrates the 4-stage pipeline of §III (plus the two write-back stages
//! when the kernel modifies mapped data) over all chunks, thread blocks and
//! block waves:
//!
//! 1. **addr-gen** (GPU, half the warps): run the kernel's address slice for
//!    every lane's chunk slice; optionally compress each lane's stream to a
//!    pattern (§IV.A). Cost: issue slots on the addr-gen pool + zero-copy
//!    PCIe stores of the encoded address bytes + sync (§IV.C).
//! 2. **assemble** (one CPU thread per block): gather addressed bytes into
//!    the pinned prefetch buffer (§IV.B order), measured against the LLC
//!    simulator. Blocks assemble in parallel on the host's hardware threads.
//! 3. **transfer** (DMA engine): prefetch buffer → GPU data buffer, plus the
//!    in-order completion-flag copy.
//! 4. **compute** (GPU, the other half of the warps): run the kernel body;
//!    mapped reads resolve into the prefetch buffer per the layout; every
//!    access is traced for the coalescing/roofline model and (optionally)
//!    verified against the stage-1 address stream.
//! 5. **wb-xfer** (DMA): GPU write-value buffer → CPU.
//! 6. **wb-apply** (CPU): scatter the values into the mapped host array.
//!
//! This module is a thin *configuration* layer: the per-block functional
//! simulation and cost accounting live in `crate::exec`, and scheduling is
//! delegated to the declarative stage graph in [`crate::graph`] — the stages
//! above, their hardware resources, the dependency edges and the §IV.C
//! `addr-gen(n) waits for compute(n − depth)` buffer-reuse rule are expressed
//! as data ([`pipeline_graph`]), and the graph executor shards chunks across
//! however many simulated GPUs the [`Machine`] carries. The schedule's
//! makespan is the run's simulated time.
//!
//! ## One runner for every program
//!
//! There is a single runner body, over an ordered list of passes. A plain
//! run ([`run_bigkernel`], [`run_bigkernel_window`]) is the one-pass program
//! on the six-stage graph above. A fused multi-pass program
//! ([`run_bigkernel_fused`], DESIGN.md §15) is the same loop over `passes`
//! kernels on a `6 × passes`-stage graph, plus a [`FusePlan`] whose per-pass
//! [`PassIo`] elides the device-resident bytes. Occupancy, partitioning,
//! chunk sizing, fault injection, autotuning and the wave loop are therefore
//! shared: every feature that works on a plain run works on a fused one.
//!
//! ## Two-phase block simulation
//!
//! Simulating one chunk means simulating every active block's stage work.
//! For kernels whose device effects are log-replayable (the default, see
//! [`DeviceEffects`]) each block's work is split into
//!
//! * a **pure costing phase** — address-slice execution, §IV.A pattern
//!   recognition, assembly + LLC simulation, warp-trace alignment and the
//!   kernel body run against a per-block write log ([`bk_gpu::BlockLog`])
//!   over a read snapshot of device memory — which touches no shared
//!   simulator state and therefore may run on multiple host threads, and
//! * an **ordered effects phase** — device-buffer writes and atomics
//!   replayed from each block's log *in block order*, followed by host
//!   write-back — which is serial and makes the result bit-identical to the
//!   sequential block schedule.
//!
//! If a logged observation (a device load or CAS result consumed by the
//! kernel) no longer holds at replay time, the replay rolls back and the
//! block re-executes against live memory at its in-order turn — exactly what
//! the sequential schedule would have computed. `cfg.parallel_blocks` only
//! toggles whether the pure phases use the rayon pool: both settings run the
//! identical logged algorithm, so metrics, times and outputs match bit for
//! bit. Kernels whose device ops are *not* log-replayable (e.g. consuming
//! `atomic_add` return values across blocks) declare
//! [`DeviceEffects::Sequential`] and run the legacy fused per-block loop.
//!
//! Thread blocks beyond the §IV.D active-block count run as successive
//! waves, reusing the active blocks' buffers (and their per-slot simulation
//! state: warp aligner + LLC model).

use crate::autotune::{Autotuner, RankBy, TunePlan, WindowFeedback};
use crate::config::BigKernelConfig;
use crate::exec::{
    run_block_sequential, run_block_sequential_staged, run_chunk_assembled_logged,
    run_chunk_staged_logged, BlockSlot, ChunkCosts, WaveCell,
};
use crate::fault::FaultContext;
use crate::fusion::{FusePlan, FuseRefusal, PassIo};
use crate::graph::{pipeline_graph, Executor};
use crate::kernel::{chunk_slice, partition_ranges, DeviceEffects, LaunchConfig, StreamKernel};
use crate::machine::Machine;
use crate::result::{finalize_stage_stats, RunResult};
use crate::stream::{StreamArray, StreamId};
use crate::sync;
use bk_gpu::occupancy::{self, BlockResources};
use bk_gpu::GpuPool;
use bk_host::{cpu, CpuCost, DmaDirection};
use bk_obs::{MetricsRegistry, SpanRecord, RETUNE_MARKER_STAGE};
use bk_simcore::SimTime;
use std::ops::Range;

/// Stage names, in pipeline order.
pub const STAGE_NAMES: [&str; 6] = [
    "addr-gen", "assemble", "transfer", "compute", "wb-xfer", "wb-apply",
];

/// Counter name for "stage S was bound by B this chunk". Labels come from a
/// small fixed set, so interning to 'static is a lookup, not a leak risk.
fn bound_counter(stage: &str, bound: &str) -> &'static str {
    // The cross product is small and known; match to static strings.
    match (stage, bound) {
        ("addr-gen", "gpu-issue") => "bound.addr-gen.gpu-issue",
        ("addr-gen", "gpu-mem") => "bound.addr-gen.gpu-mem",
        ("addr-gen", "gpu-l2") => "bound.addr-gen.gpu-l2",
        ("addr-gen", "gpu-atomic-throughput") => "bound.addr-gen.gpu-atomic-throughput",
        ("addr-gen", "gpu-atomic-conflict") => "bound.addr-gen.gpu-atomic-conflict",
        ("addr-gen", "pcie-zerocopy") => "bound.addr-gen.pcie-zerocopy",
        ("assemble", "cpu-issue") => "bound.assemble.cpu-issue",
        ("assemble", "cpu-dram-bw") => "bound.assemble.cpu-dram-bw",
        ("assemble", "cpu-dram-latency") => "bound.assemble.cpu-dram-latency",
        ("assemble", "cpu-atomic-throughput") => "bound.assemble.cpu-atomic-throughput",
        ("assemble", "cpu-atomic-contention") => "bound.assemble.cpu-atomic-contention",
        ("transfer", "dma-bandwidth") => "bound.transfer.dma-bandwidth",
        ("transfer", "dma-latency") => "bound.transfer.dma-latency",
        ("compute", "gpu-issue") => "bound.compute.gpu-issue",
        ("compute", "gpu-mem") => "bound.compute.gpu-mem",
        ("compute", "gpu-l2") => "bound.compute.gpu-l2",
        ("compute", "gpu-atomic-throughput") => "bound.compute.gpu-atomic-throughput",
        ("compute", "gpu-atomic-conflict") => "bound.compute.gpu-atomic-conflict",
        ("wb-xfer", "dma-bandwidth") => "bound.wb-xfer.dma-bandwidth",
        ("wb-xfer", "dma-latency") => "bound.wb-xfer.dma-latency",
        ("wb-apply", "cpu-issue") => "bound.wb-apply.cpu-issue",
        ("wb-apply", "cpu-dram-bw") => "bound.wb-apply.cpu-dram-bw",
        ("wb-apply", "cpu-dram-latency") => "bound.wb-apply.cpu-dram-latency",
        ("wb-apply", "cpu-atomic-throughput") => "bound.wb-apply.cpu-atomic-throughput",
        ("wb-apply", "cpu-atomic-contention") => "bound.wb-apply.cpu-atomic-contention",
        _ => {
            // An unknown pair means a stage or roofline label was added
            // without extending this table — surface it instead of silently
            // merging everything into one bucket: assert in debug builds,
            // log once (not per chunk) in release builds.
            debug_assert!(
                false,
                "unknown stage/bound pair ({stage}, {bound}) has no counter"
            );
            static LOGGED: std::sync::atomic::AtomicBool =
                std::sync::atomic::AtomicBool::new(false);
            if !LOGGED.swap(true, std::sync::atomic::Ordering::Relaxed) {
                eprintln!(
                    "bk-runtime: unknown stage/bound pair ({stage}, {bound}); \
                     counting as bound.other"
                );
            }
            "bound.other"
        }
    }
}

/// Log one autotuner re-plan: the decision counters that pin the re-plan
/// sequence in the determinism suite, plus a Perfetto instant marker on the
/// `"autotune"` track placed at the simulated time the new plan takes
/// effect. `reuse_stall` is the triggering window's reuse stall (zero for
/// wave-boundary chunk re-plans, which act on chunk counts, not stall).
fn note_retune(
    metrics: &mut MetricsRegistry,
    plan: TunePlan,
    next_chunk: usize,
    now: SimTime,
    reuse_stall: SimTime,
) {
    metrics.incr("autotune.retune");
    metrics.observe("hist.autotune.depth", plan.data_depth as u64);
    metrics.observe("hist.autotune.buffers", plan.wb_depth as u64);
    bk_obs::trace::record(&SpanRecord {
        track: "autotune",
        stage: RETUNE_MARKER_STAGE,
        chunk: next_chunk,
        start: now,
        dur: SimTime::ZERO,
        stall: Some(("buffer-reuse", reuse_stall)),
    });
}

/// Aux-staged secondary streams for the overlap-only path (`transfer_all`):
/// the staged execution modes resolve `StreamId(0)` through the chunk window
/// but have no per-chunk window for secondary streams, so those are staged
/// *whole* to device buffers up front — the paper's "simply defaults to
/// fetching all data" fallback extended to every mapped stream. The up-front
/// h2d DMA time is charged to the first non-empty chunk's transfer stage;
/// dirty streams flush back to host memory after the last chunk (unfused
/// multi-pass apps re-map the same regions in their next pass, so secondary
/// writes must land in `hmem`).
struct StagedAux {
    /// `(stream, whole-stream device buffer)`, in `streams[1..]` order.
    table: Vec<(StreamId, bk_gpu::BufferId)>,
    /// Up-front h2d DMA time not yet charged to a chunk's transfer stage.
    pending_xfer: SimTime,
    /// Union of the per-block written masks (bit = table index).
    dirty: u64,
}

impl StagedAux {
    fn empty() -> Self {
        StagedAux {
            table: Vec::new(),
            pending_xfer: SimTime::ZERO,
            dirty: 0,
        }
    }
}

/// Simulate one chunk of one pass: run every active block's functional
/// simulation, fold the per-block costs into the six per-stage durations and
/// emit the bound counters and transfer histograms. The runner places the
/// returned stage times at the pass's offset in a `6 × passes`-wide duration
/// row. `io` carries the fusion byte-cost elision for this pass (`None`
/// outside fused runs); it changes cost accounting only — the functional
/// simulation is identical.
#[allow(clippy::too_many_arguments)]
fn simulate_chunk(
    machine: &mut Machine,
    kernel: &dyn StreamKernel,
    streams: &[StreamArray],
    ranges: &[Range<u64>],
    blocks: &[u32],
    slots: &mut [BlockSlot],
    chunk: usize,
    num_chunks: usize,
    launch: LaunchConfig,
    cfg: &BigKernelConfig,
    io: Option<&PassIo>,
    aux: &mut StagedAux,
    logged: bool,
    parallel: bool,
    ag_pool: &GpuPool,
    comp_pool: &GpuPool,
    sync_costs: &sync::SyncCosts,
    metrics: &mut MetricsRegistry,
) -> [SimTime; 6] {
    let tpb = launch.threads_per_block;
    let rec = kernel.record_size();
    let mut row = [SimTime::ZERO; 6];
    let mut costs = ChunkCosts::new();
    let h2d_before = metrics.get("pcie.h2d_bytes");
    let d2h_before = metrics.get("pcie.d2h_bytes");

    // Pair each working block with its persistent slot.
    let mut cells: Vec<WaveCell<'_>> = Vec::with_capacity(blocks.len());
    for (i, slot) in slots.iter_mut().enumerate().take(blocks.len()) {
        let b = blocks[i];
        let slices: Vec<Range<u64>> = (0..tpb)
            .map(|t| {
                let lane_range = &ranges[(b * tpb + t) as usize];
                chunk_slice(lane_range, chunk, num_chunks, rec)
            })
            .collect();
        if slices.iter().all(|s| s.is_empty()) {
            continue;
        }
        cells.push(WaveCell {
            block: b,
            slices,
            slot,
            pure: None,
            staged: None,
            data_buf: None,
            write_buf: None,
            computed: None,
        });
    }

    if cells.is_empty() {
        return row;
    }

    if !logged {
        // Sequential-capability kernels: legacy fused per-block loop
        // in block order (both parallel_blocks settings).
        for cell in cells.iter_mut() {
            if cfg.transfer_all {
                run_block_sequential_staged(
                    machine,
                    kernel,
                    streams,
                    &aux.table,
                    &cell.slices,
                    cell.block,
                    tpb,
                    launch,
                    cell.slot,
                    &mut costs,
                    metrics,
                );
            } else {
                run_block_sequential(
                    machine,
                    kernel,
                    streams,
                    &cell.slices,
                    cell.block,
                    tpb,
                    launch,
                    cfg,
                    io,
                    cell.slot,
                    &mut costs,
                    metrics,
                );
            }
        }
    } else if cfg.transfer_all {
        run_chunk_staged_logged(
            machine, kernel, streams, &aux.table, &mut cells, parallel, tpb, launch, &mut costs,
            metrics,
        );
    } else {
        run_chunk_assembled_logged(
            machine, kernel, streams, &mut cells, parallel, tpb, launch, cfg, io, &mut costs,
            metrics,
        );
    }

    // Stage 1: addr-gen pool roofline + zero-copy address stores.
    if !cfg.transfer_all {
        let mut terms = ag_pool.stage_terms(&costs.ag);
        terms.bound(
            "pcie-zerocopy",
            machine.link.zero_copy_write_time(costs.addr_bytes),
        );
        if let Some(b) = terms.dominant() {
            metrics.incr(bound_counter("addr-gen", b.label));
        }
        row[0] = terms.duration() + sync_costs.addr_gen;
    }
    // Stage 2: block assembly threads run in parallel on the host.
    let asm_threads = (blocks.len() as u32).min(machine.cpu.hw_threads).max(1);
    let asm_terms = cpu::cpu_stage_terms(&machine.cpu, &costs.asm, asm_threads);
    if let Some(b) = asm_terms.dominant() {
        metrics.incr(bound_counter("assemble", b.label));
    }
    row[1] = asm_terms.duration() + sync_costs.assembly;
    // Stage 3: DMA (already summed per block, one engine). Bound
    // classification: fixed per-transfer setup + flag costs vs the
    // bandwidth share. The first chunk that does any work also pays the
    // up-front aux-stream staging transfer.
    aux.dirty |= costs.aux_dirty;
    costs.xfer += std::mem::replace(&mut aux.pending_xfer, SimTime::ZERO);
    row[2] = costs.xfer;
    if costs.xfer > SimTime::ZERO {
        let fixed = SimTime::from_secs(
            machine.link.flag_latency.secs() * costs.h2d_flags as f64
                + machine.link.latency.secs() * costs.h2d_lats as f64,
        );
        let bw = costs.xfer.saturating_sub(fixed);
        let label = if bw >= fixed {
            "dma-bandwidth"
        } else {
            "dma-latency"
        };
        metrics.incr(bound_counter("transfer", label));
    }
    // Stage 4: compute pool.
    let comp_terms = comp_pool.stage_terms(&costs.comp);
    if let Some(b) = comp_terms.dominant() {
        metrics.incr(bound_counter("compute", b.label));
    }
    row[3] = comp_terms.duration() + sync_costs.compute;
    metrics.add("gpu.comp_issue_slots", costs.comp.issue_slots);
    metrics.add("gpu.comp_mem_bytes_moved", costs.comp.mem_bytes_moved);
    metrics.add("gpu.comp_mem_bytes_useful", costs.comp.mem_bytes_useful);
    metrics.add("gpu.comp_atomics", costs.comp.atomic_ops);
    metrics.add("gpu.comp_hot_atomic_chain", costs.comp.hot_atomic_max());
    // Stage 5: write-back DMA (one transfer per chunk).
    if costs.wb_bytes > 0 {
        row[4] = machine
            .link
            .dma_time_with_flag(DmaDirection::DeviceToHost, costs.wb_bytes);
        let fixed = machine.link.latency + machine.link.flag_latency;
        let bw = row[4].saturating_sub(fixed);
        let label = if bw >= fixed {
            "dma-bandwidth"
        } else {
            "dma-latency"
        };
        metrics.incr(bound_counter("wb-xfer", label));
    }
    // Stage 6: write-back apply.
    let wb_terms = cpu::cpu_stage_terms(&machine.cpu, &costs.wb, asm_threads);
    if costs.wb_bytes > 0 {
        if let Some(b) = wb_terms.dominant() {
            metrics.incr(bound_counter("wb-apply", b.label));
        }
    }
    row[5] = wb_terms.duration();

    // Per-chunk transfer-volume histograms (delta of the byte
    // counters the block stages just folded in).
    let h2d = metrics.get("pcie.h2d_bytes") - h2d_before;
    let d2h = metrics.get("pcie.d2h_bytes") - d2h_before;
    metrics.observe("hist.chunk.h2d_bytes", h2d);
    metrics.observe("hist.chunk.d2h_bytes", d2h);

    row
}

/// Run `kernel` over `streams` with the BigKernel pipeline.
///
/// `streams[i]` must have id `StreamId(i)`; `streams[0]` is the primary
/// stream whose records define the work partition.
pub fn run_bigkernel(
    machine: &mut Machine,
    kernel: &dyn StreamKernel,
    streams: &[StreamArray],
    launch: LaunchConfig,
    cfg: &BigKernelConfig,
) -> RunResult {
    let window = 0..streams.first().map_or(0, |s| s.len());
    run_bigkernel_window(machine, kernel, streams, launch, cfg, window)
}

/// [`run_bigkernel`] restricted to one *window* of the primary stream: the
/// absolute byte range `window` of `streams[0]` is partitioned across the
/// launch's lanes exactly as a whole-stream run partitions `0..len`, and
/// everything downstream (chunking, scheduling, §IV.A recognition, fault and
/// autotune handling) operates on those absolute ranges unchanged.
///
/// This is the batch building block of the streaming runner
/// ([`crate::stream::run_bigkernel_streamed`]): a stream of windows is a
/// sequence of these calls, and because every record of `streams[0]` is
/// processed exactly once by whichever window covers it, the concatenation
/// is functionally identical to one whole-stream run (the determinism suite
/// pins this per app). `window` must lie inside the primary stream and, for
/// fixed-record kernels, start on a record boundary. Kernels that scan past
/// their range end ([`StreamKernel::halo_bytes`]) keep doing so across the
/// window end — halos are bounded by the *stream* length, never the window.
pub fn run_bigkernel_window(
    machine: &mut Machine,
    kernel: &dyn StreamKernel,
    streams: &[StreamArray],
    launch: LaunchConfig,
    cfg: &BigKernelConfig,
    window: Range<u64>,
) -> RunResult {
    run_program(machine, &[kernel], None, streams, launch, cfg, window)
        .expect("a single-pass program never refuses")
}

/// Run a fused multi-pass program — `kernels[p]` is pass `p` — as **one**
/// pipeline over a single `6 × passes`-stage graph ([`pipeline_graph`]),
/// instead of `passes` sequential [`run_bigkernel`] invocations with a full
/// pipeline drain between them.
///
/// `plan` must come from [`FusePlan::analyze`] over the kernels' access
/// summaries: it proves which of a later pass's stream reads are covered by
/// an earlier pass's writes. Covered streams stay device-resident between
/// passes — their gather bytes never cross PCIe again — and scratch streams
/// consumed only inside the fusion skip their write-back entirely. The
/// elision is *cost-only*: every pass still executes functionally in strict
/// program order against host memory, so outputs are bit-identical to the
/// unfused run by construction.
///
/// The §IV.D occupancy check charges the resident intermediate footprint
/// against the buffer-set budget via [`occupancy::max_buffer_sets_resident`]
/// and refuses ([`FuseRefusal::ResidentFootprint`]) when even depth 1 does
/// not fit — callers fall back to the unfused per-pass loop on any refusal.
///
/// Passes declaring a [`barrier
/// dependence`](crate::kernel::StreamKernel::barrier_dependence) (they read
/// device state an earlier pass accumulates, e.g. a hash-table join) fuse
/// only when the launch is a single co-resident wave: the per-wave
/// pass-major functional order then acts as the global pass barrier.
/// Multi-wave launches refuse ([`FuseRefusal::BarrierNotCoResident`]).
pub fn run_bigkernel_fused(
    machine: &mut Machine,
    kernels: &[&dyn StreamKernel],
    streams: &[StreamArray],
    launch: LaunchConfig,
    cfg: &BigKernelConfig,
    plan: &FusePlan,
) -> Result<RunResult, FuseRefusal> {
    assert!(
        !cfg.transfer_all,
        "fused execution requires the assembled pipeline; \
         transfer_all is the overlap-only baseline"
    );
    assert_eq!(
        kernels.len(),
        plan.passes,
        "fuse plan covers {} passes but {} kernels were supplied",
        plan.passes,
        kernels.len()
    );
    let whole = 0..streams.first().map_or(0, |s| s.len());
    run_program(machine, kernels, Some(plan), streams, launch, cfg, whole)
}

/// The one pipeline runner: a program of `kernels.len()` passes over one
/// `window` of the primary stream, scheduled on the [`pipeline_graph`] of
/// that many passes. A plain run is the one-pass program with no `plan`; a
/// fused run carries the [`FusePlan`] whose per-pass [`PassIo`] elides the
/// device-resident bytes.
///
/// Per wave, the runner builds `passes × num_chunks` duration rows in
/// pass-major order, each `6 × passes` wide with pass `p`'s stage times at
/// columns `p*6 ..= p*6+5`, and submits them to **one** executor run. The
/// graph chains pass `p`'s addr-gen after pass `p−1`'s wb-apply per chunk
/// while the shared hardware resources (GPU pools, assembly threads, DMA
/// engines) pipeline across passes; zero-duration stages occupy nothing.
/// Functionally each wave runs pass 0 to completion before pass 1 reads its
/// output (covered reads are lane-local, so waves never race ahead of their
/// inputs).
///
/// Fusion refusals ([`FuseRefusal`]) apply to planned programs only; a
/// program without a plan always runs.
fn run_program(
    machine: &mut Machine,
    kernels: &[&dyn StreamKernel],
    plan: Option<&FusePlan>,
    streams: &[StreamArray],
    launch: LaunchConfig,
    cfg: &BigKernelConfig,
    window: Range<u64>,
) -> Result<RunResult, FuseRefusal> {
    cfg.validate();
    assert!(!streams.is_empty(), "need at least one mapped stream");
    for (i, s) in streams.iter().enumerate() {
        assert_eq!(s.id.0 as usize, i, "streams must be indexed by id");
    }
    let passes = kernels.len();

    // Identical record sizes ⇒ identical lane partitions in every pass, the
    // property the coverage proof (and cross-wave ordering) relies on.
    let rec = kernels[0].record_size();
    if kernels.iter().any(|k| k.record_size() != rec) {
        return Err(FuseRefusal::MismatchedRecordSize);
    }

    let primary = &streams[0];
    let tpb = launch.threads_per_block;

    assert!(
        window.start <= window.end && window.end <= primary.len(),
        "window {window:?} outside primary stream (len {})",
        primary.len()
    );
    if let Some(unit) = rec {
        assert_eq!(
            window.start % unit,
            0,
            "window start {} must be record-aligned (record size {unit})",
            window.start
        );
    }

    // §IV.D: occupancy with the doubled thread count (addr-gen + compute;
    // the overlap-only variant launches no addr-gen warps). Every pass runs
    // on the same active-block front, so take the most constrained pass
    // (fewest active blocks, lowest thread occupancy) — conservative for the
    // schedule and exact for the memory footprint of the blocks in flight.
    let mut occ: Option<occupancy::Occupancy> = None;
    let mut occ_factor = f64::INFINITY;
    for k in kernels {
        let base_res = k.resources();
        let threads = base_res.threads_per_block.max(tpb);
        let doubled = BlockResources {
            threads_per_block: if cfg.transfer_all {
                threads
            } else {
                threads * 2
            },
            ..base_res
        };
        let o = occupancy::compute(machine.gpu(), &doubled, launch.num_blocks);
        occ_factor = occ_factor.min(o.thread_occupancy(machine.gpu(), &doubled));
        if occ
            .as_ref()
            .is_none_or(|prev| o.active_blocks < prev.active_blocks)
        {
            occ = Some(o);
        }
    }
    let occ = occ.expect("at least one pass");
    let occ_factor = occ_factor.max(0.125);
    let active_blocks = occ.active_blocks.max(1);
    let waves = launch.num_blocks.div_ceil(active_blocks);

    // Resident intermediates charge against the buffer-set budget (zero
    // outside fused programs). The result also caps the autotuner.
    let set_bytes = cfg.chunk_input_bytes.max(1);
    let resident_bytes = plan.map_or(0, |p| p.resident_bytes_per_chunk(cfg.chunk_input_bytes));
    let feasible_sets =
        occupancy::max_buffer_sets_resident(machine.gpu(), &occ, set_bytes, resident_bytes);
    if plan.is_some() {
        // If not even one set fits alongside the intermediates, fusion is
        // infeasible on this device.
        if feasible_sets == 0 {
            return Err(FuseRefusal::ResidentFootprint {
                needed: u64::from(active_blocks) * (set_bytes + resident_bytes),
                budget: machine.gpu().mem_capacity / 2,
            });
        }
        // Passes that read device state accumulated by an earlier pass need
        // a global pass barrier. The pass-major functional order provides
        // one per wave — all of pass p's chunks run before pass p+1's — but a
        // second wave would count against state its own pass-0 front has not
        // produced yet. Fusing such programs is therefore only legal when the
        // launch is a single co-resident wave (persistent blocks).
        if waves > 1 {
            if let Some(pass) = kernels.iter().position(|k| k.barrier_dependence()) {
                return Err(FuseRefusal::BarrierNotCoResident { pass, waves });
            }
        }
    }

    // GPU pools: addr-gen and compute each get half the issue throughput
    // (the overlap-only variant launches no addr-gen warps). Devices are
    // homogeneous (see `Machine::replicate_gpus`), so one pool pair models
    // any of them.
    let pool_fraction = if cfg.transfer_all { 1.0 } else { 0.5 };
    let ag_pool = GpuPool::new(machine.gpu().clone(), pool_fraction, occ_factor);
    let comp_pool = GpuPool::new(machine.gpu().clone(), pool_fraction, occ_factor);

    // One work partition over the window (the whole stream in batch mode),
    // shared by every pass and offset back to absolute stream positions:
    // kernels, chunk slicing and the FIFO cross-check all speak absolute
    // offsets into `streams[0]`.
    let ranges: Vec<Range<u64>> =
        partition_ranges(window.end - window.start, launch.total_threads(), rec)
            .into_iter()
            .map(|r| r.start + window.start..r.end + window.start)
            .collect();

    // Chunking: each block consumes ~chunk_input_bytes of input per chunk.
    // Mutable because the autotuner may re-plan the chunk size at a wave
    // boundary (never mid-wave — a wave boundary is the only point with no
    // chunk in flight).
    let unit = rec.unwrap_or(1);
    let max_range = ranges.iter().map(|r| r.end - r.start).max().unwrap_or(0);
    let lane_slice = |chunk_bytes: u64| ((chunk_bytes / tpb as u64) / unit).max(1) * unit;
    let chunks_for = |slice: u64| (max_range.div_ceil(slice)).max(1) as usize;
    let mut per_lane_slice = lane_slice(cfg.chunk_input_bytes);
    let mut num_chunks = chunks_for(per_lane_slice);

    let sync_costs = sync::per_chunk(machine, cfg.sync);
    let mut metrics = MetricsRegistry::new();
    metrics.add("launch.blocks", launch.num_blocks as u64);
    metrics.add("launch.active_blocks", active_blocks as u64);
    metrics.add("launch.threads", launch.total_threads() as u64);
    metrics.add("run.chunks_per_block", num_chunks as u64);
    metrics.add("run.devices", machine.num_gpus() as u64);
    if let Some(plan) = plan {
        metrics.add("fusion.passes", passes as u64);
        metrics.add("fusion.resident_bytes_per_chunk", resident_bytes);
        metrics.add("fusion.scratch_bytes", plan.scratch_stream_bytes(streams));
    }

    // The schedule is a stage-graph configuration: stages, resources, edges
    // and the §IV.C reuse rule are data (see [`pipeline_graph`]), and the
    // executor deals chunks across the machine's simulated GPUs. Each device
    // owns its buffer pool, so the reuse depth applies within a device's
    // local chunk sequence. The executor is rebuilt whenever the autotuner
    // re-plans the reuse depths between scheduling windows.
    let copy_engines = machine.gpu().copy_engines as usize;
    let graph =
        |depth: usize, wb_depth: usize| pipeline_graph(copy_engines, passes, depth, wb_depth);
    let mut executor = Executor::new(
        graph(cfg.buffer_depth, cfg.wb_depth()),
        machine.num_gpus(),
        cfg.shard_policy,
    );

    // Fault injection (see [`crate::fault`]): when a plan is configured the
    // fault context replaces `executor.run` per wave — inflating durations
    // with retries, requeuing chunks off a dead device and degrading the
    // graph when a stage exhausts its budget. `None` takes the executor
    // path untouched. Either way the functional simulation below is
    // identical: faults perturb timing and placement only.
    let mut fault_ctx = cfg.faults.clone().map(|fplan| {
        FaultContext::new(
            fplan,
            machine.num_gpus(),
            cfg.shard_policy,
            copy_engines,
            passes,
            cfg.buffer_depth,
            cfg.wb_depth(),
        )
    });

    // Adaptive occupancy autotuning (see [`crate::autotune`]): the §IV.D
    // occupancy model bounds how many buffer sets per active block the
    // device can hold (resident intermediates included), and the controller
    // re-plans reuse depths / chunk size within that cap from recorded
    // schedule state only. `None` schedules each wave in one piece.
    // Blame-ranked feedback walks the window's critical path; raw-stall
    // feedback (the default) only sums per-slot stall counters.
    let blame_rank = cfg
        .autotune
        .as_ref()
        .is_some_and(|t| t.rank_by == RankBy::CritBlame);
    let mut tuner = cfg.autotune.clone().map(|tcfg| {
        Autotuner::new(
            tcfg,
            TunePlan {
                data_depth: cfg.buffer_depth,
                wb_depth: cfg.wb_depth(),
                chunk_bytes: cfg.chunk_input_bytes,
            },
            feasible_sets.max(1),
        )
    });

    let mut total = SimTime::ZERO;
    let mut stage_stats = Vec::new();
    let mut total_chunks = 0usize;
    let mut slots: Vec<BlockSlot> = (0..active_blocks.min(launch.num_blocks).max(1))
        .map(|_| BlockSlot::new())
        .collect();

    // Overlap-only with secondary streams: stage each whole aux stream to a
    // device buffer up front (see [`StagedAux`]).
    let mut aux = StagedAux::empty();
    if cfg.transfer_all && streams.len() > 1 {
        for s in &streams[1..] {
            let buf = machine.gmem.alloc(s.len().max(1));
            let src = machine.hmem.read(s.region, 0, s.len() as usize).to_vec();
            machine.gmem.dma_in(buf, 0, &src);
            metrics.add("pcie.h2d_bytes", s.len());
            aux.pending_xfer += machine
                .link
                .dma_time_with_flag(DmaDirection::HostToDevice, s.len());
            aux.table.push((s.id, buf));
        }
    }

    let mut seen_fault_level = 0usize;
    for wave in 0..waves {
        // Wave-boundary chunk-size re-plan: buffers swap between windows,
        // but the chunk granularity only changes where nothing is in
        // flight. Purely a re-chunking of each block's lane ranges — every
        // record is still processed exactly once, so outputs are unchanged.
        if wave > 0 {
            if let Some(tuner) = tuner.as_mut() {
                if let Some(p) = tuner.plan_wave(num_chunks) {
                    per_lane_slice = lane_slice(p.chunk_bytes);
                    num_chunks = chunks_for(per_lane_slice);
                    note_retune(&mut metrics, p, total_chunks, total, SimTime::ZERO);
                }
            }
        }
        let blocks: Vec<u32> =
            (wave * active_blocks..((wave + 1) * active_blocks).min(launch.num_blocks)).collect();

        // Pass-major rows: all of pass 0's chunks, then pass 1's, … Each row
        // is `6 × passes` wide with only its own pass's stages non-zero; the
        // in-order resource queues plus the per-chunk stage chain give every
        // pass-p chunk its cross-pass ordering, while zero stages cost
        // nothing.
        let mut durations: Vec<Vec<SimTime>> = Vec::with_capacity(passes * num_chunks);
        for (p, kernel) in kernels.iter().enumerate() {
            // Capability gate: only log-replayable kernels run the two-phase
            // algorithm. `parallel_blocks` then merely toggles the thread
            // pool — the algorithm (and thus every observable result) is the
            // same either way.
            let logged = kernel.device_effects() == DeviceEffects::Replayable;
            let parallel = logged && cfg.parallel_blocks;
            let io = plan.map(|plan| &plan.io[p]);
            for chunk in 0..num_chunks {
                let stages = simulate_chunk(
                    machine,
                    *kernel,
                    streams,
                    &ranges,
                    &blocks,
                    &mut slots,
                    chunk,
                    num_chunks,
                    launch,
                    cfg,
                    io,
                    &mut aux,
                    logged,
                    parallel,
                    &ag_pool,
                    &comp_pool,
                    &sync_costs,
                    &mut metrics,
                );
                let mut row = vec![SimTime::ZERO; 6 * passes];
                row[p * 6..p * 6 + 6].copy_from_slice(&stages);
                durations.push(row);
            }
        }

        // Untuned runs schedule the whole wave in one piece. Tuned runs
        // schedule it in windows: each window drains the pipeline
        // (re-planning swaps buffer allocations, so it needs a quiesce point
        // — the honest cost of adapting), gets measured, and may trigger a
        // re-plan that takes effect from the next window. Once the
        // controller converges the window widens to the rest of the wave and
        // the drain overhead stops.
        let mut idx = 0usize;
        while idx < durations.len() {
            let win = tuner
                .as_ref()
                .map_or(durations.len(), |t| t.window_len())
                .min(durations.len() - idx);
            let rows = &durations[idx..idx + win];
            let sharded = match fault_ctx.as_mut() {
                Some(fc) => fc.run_wave(wave as usize, total_chunks, total, rows, &mut metrics),
                None => executor.run(rows),
            };
            // Observability: spans (when a trace guard is live), per-stage
            // span histograms, stall.<stage>.<cause> totals and device.<d>.*
            // counters, offset into run-global chunk indices / simulated
            // time. Windows run back to back, so the running `total` is this
            // window's time base.
            sharded.record(total_chunks, total, &mut metrics);
            total += sharded.makespan();
            sharded.accumulate(&mut stage_stats);
            total_chunks += win;
            idx += win;

            let Some(tuner) = tuner.as_mut() else {
                continue;
            };
            let fb = if blame_rank {
                WindowFeedback::from_sharded_with_blame(&sharded)
            } else {
                WindowFeedback::from_sharded(&sharded)
            };
            metrics.incr("autotune.windows");
            let window_stall = fb.data_reuse_stall + fb.wb_reuse_stall;
            // Degradation first: if the fault ladder swapped the graph during
            // this window, the controller adopts the degraded depths and
            // keeps tuning *that* graph.
            if let Some(fc) = fault_ctx.as_mut() {
                if fc.level() > seen_fault_level {
                    seen_fault_level = fc.level();
                    if let Some(p) = tuner.on_degraded(seen_fault_level) {
                        note_retune(&mut metrics, p, total_chunks, total, window_stall);
                    }
                }
            }
            if let Some(p) = tuner.observe(&fb) {
                note_retune(&mut metrics, p, total_chunks, total, window_stall);
                let spec = graph(p.data_depth, p.wb_depth);
                match fault_ctx.as_mut() {
                    Some(fc) => {
                        fc.retune_current(spec);
                    }
                    None => {
                        executor = Executor::new(spec, machine.num_gpus(), cfg.shard_policy);
                    }
                }
            }
        }
    }

    // Flush dirty aux streams back to host and free the staged buffers. The
    // flush is a serial drain tail after the last chunk retires: one d2h DMA
    // plus the host-side apply per dirty stream.
    for (i, (id, buf)) in aux.table.iter().enumerate() {
        let s = &streams[id.0 as usize];
        if aux.dirty & (1u64 << (i as u64).min(63)) != 0 {
            let bytes = machine.gmem.dma_out(*buf, 0, s.len() as usize);
            machine.hmem.write(s.region, 0, &bytes);
            metrics.add("pcie.d2h_bytes", s.len());
            total += machine
                .link
                .dma_time_with_flag(DmaDirection::DeviceToHost, s.len());
            let apply = CpuCost::streaming(s.len(), 2, 1);
            total += cpu::cpu_stage_terms(&machine.cpu, &apply, 1).duration();
        }
        machine.gmem.free(*buf);
    }

    finalize_stage_stats(&mut stage_stats, total_chunks);
    metrics.add("run.waves", waves as u64);
    if let Some(tuner) = tuner.as_ref() {
        let p = tuner.plan();
        metrics.add("autotune.depth", p.data_depth as u64);
        metrics.add("autotune.buffers", p.wb_depth as u64);
        metrics.add("autotune.chunk_bytes", p.chunk_bytes);
    }

    Ok(RunResult {
        implementation: if plan.is_some() {
            "bigkernel-fused"
        } else if cfg.transfer_all {
            "bigkernel-overlap-only"
        } else if cfg.layout == crate::config::AssemblyLayout::PerLane {
            "bigkernel-volume-reduction"
        } else {
            "bigkernel"
        },
        total,
        stages: stage_stats,
        metrics,
        chunks: total_chunks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::AddrGenCtx;
    use crate::kernel::{KernelCtx, ValueExt};
    use crate::stream::{StreamArray, StreamId};

    /// Sums all u64 records into a device accumulator (one atomic per
    /// thread-chunk, local accumulation in registers).
    struct SumKernel {
        acc: bk_gpu::BufferId,
    }

    impl StreamKernel for SumKernel {
        fn name(&self) -> &'static str {
            "test-sum"
        }
        fn record_size(&self) -> Option<u64> {
            Some(8)
        }
        fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
            let mut off = range.start;
            while off < range.end {
                ctx.emit_read(StreamId(0), off, 8);
                off += 8;
            }
        }
        fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
            let mut sum = 0u64;
            let mut off = range.start;
            while off < range.end {
                sum = sum.wrapping_add(ctx.stream_read(StreamId(0), off, 8));
                ctx.alu(2);
                off += 8;
            }
            if range.start < range.end {
                ctx.dev_atomic_add_u64(self.acc, 0, sum);
            }
        }
    }

    /// Reads field A (u32 at +0) of 8-byte records and writes 2*A to field
    /// B (u32 at +4) — exercises the write-back path.
    pub(super) struct ScaleKernel;

    impl StreamKernel for ScaleKernel {
        fn name(&self) -> &'static str {
            "test-scale"
        }
        fn record_size(&self) -> Option<u64> {
            Some(8)
        }
        fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
            let mut off = range.start;
            while off < range.end {
                ctx.emit_read(StreamId(0), off, 4);
                ctx.emit_write(StreamId(0), off + 4, 4);
                off += 8;
            }
        }
        fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
            let mut off = range.start;
            while off < range.end {
                let a = ctx.stream_read_u32(StreamId(0), off);
                ctx.alu(1);
                ctx.stream_write_u32(StreamId(0), off + 4, a.wrapping_mul(2));
                off += 8;
            }
        }
        fn access_summary(&self) -> Option<crate::fusion::AccessSummary> {
            Some(scale_summary())
        }
    }

    /// Reads field B (u32 at +4) of 8-byte records and accumulates it into a
    /// device counter — the fusable consumer of [`ScaleKernel`]'s output.
    pub(super) struct SumBKernel {
        pub(super) acc: bk_gpu::BufferId,
    }

    impl StreamKernel for SumBKernel {
        fn name(&self) -> &'static str {
            "test-sum-b"
        }
        fn record_size(&self) -> Option<u64> {
            Some(8)
        }
        fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
            let mut off = range.start;
            while off < range.end {
                ctx.emit_read(StreamId(0), off + 4, 4);
                off += 8;
            }
        }
        fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
            let mut sum = 0u64;
            let mut off = range.start;
            while off < range.end {
                sum = sum.wrapping_add(ctx.stream_read_u32(StreamId(0), off + 4) as u64);
                ctx.alu(1);
                off += 8;
            }
            if range.start < range.end {
                ctx.dev_atomic_add_u64(self.acc, 0, sum);
            }
        }
        fn access_summary(&self) -> Option<crate::fusion::AccessSummary> {
            Some(crate::fusion::AccessSummary {
                reads: vec![crate::fusion::StreamAccess {
                    stream: StreamId(0),
                    unit: 8,
                    stride: 8,
                    fields: vec![crate::fusion::FieldSpan {
                        offset: 4,
                        width: 4,
                    }],
                    exact: true,
                }],
                writes: vec![],
            })
        }
    }

    pub(super) fn scale_summary() -> crate::fusion::AccessSummary {
        crate::fusion::AccessSummary {
            reads: vec![crate::fusion::StreamAccess {
                stream: StreamId(0),
                unit: 8,
                stride: 8,
                fields: vec![crate::fusion::FieldSpan {
                    offset: 0,
                    width: 4,
                }],
                exact: true,
            }],
            writes: vec![crate::fusion::StreamAccess {
                stream: StreamId(0),
                unit: 8,
                stride: 8,
                fields: vec![crate::fusion::FieldSpan {
                    offset: 4,
                    width: 4,
                }],
                exact: true,
            }],
        }
    }

    fn fill_u64s(machine: &mut Machine, n: u64) -> (StreamArray, u64) {
        let region = machine.hmem.alloc(n * 8);
        let mut expected = 0u64;
        for i in 0..n {
            machine.hmem.write_u64(region, i * 8, i * 3 + 1);
            expected = expected.wrapping_add(i * 3 + 1);
        }
        (StreamArray::map(machine, StreamId(0), region), expected)
    }

    fn small_cfg() -> BigKernelConfig {
        BigKernelConfig {
            chunk_input_bytes: 4096,
            ..BigKernelConfig::default()
        }
    }

    #[test]
    fn sum_kernel_end_to_end() {
        let mut m = Machine::test_platform();
        let (stream, expected) = fill_u64s(&mut m, 4096);
        let acc = m.gmem.alloc(8);
        let kernel = SumKernel { acc };
        let launch = LaunchConfig::new(2, 32);
        let r = run_bigkernel(&mut m, &kernel, &[stream], launch, &small_cfg());
        assert_eq!(m.gmem.read_u64(acc, 0), expected, "functional sum mismatch");
        assert!(r.total > SimTime::ZERO);
        assert!(r.chunks > 1, "expected multiple chunks, got {}", r.chunks);
        // Sequential 8B reads → every lane pattern-compresses.
        assert!(r.metrics.get("addr.patterns_found") > 0);
        assert_eq!(r.metrics.get("addr.patterns_missed"), 0);
        // h2d carried only the accessed bytes (plus interleave padding).
        assert!(r.metrics.get("pcie.h2d_bytes") >= 4096 * 8);
    }

    #[test]
    fn scale_kernel_write_back_applies() {
        let mut m = Machine::test_platform();
        let region = m.hmem.alloc(1024 * 8);
        for i in 0..1024u64 {
            m.hmem.write_u32(region, i * 8, i as u32);
        }
        let stream = StreamArray::map(&m, StreamId(0), region);
        let kernel = ScaleKernel;
        let r = run_bigkernel(
            &mut m,
            &kernel,
            &[stream],
            LaunchConfig::new(1, 32),
            &small_cfg(),
        );
        for i in 0..1024u64 {
            assert_eq!(
                m.hmem.read_u32(region, i * 8 + 4),
                (i as u32).wrapping_mul(2),
                "i={i}"
            );
        }
        assert!(r.stage_busy("wb-xfer") > SimTime::ZERO);
        assert!(r.stage_busy("wb-apply") > SimTime::ZERO);
        assert!(r.metrics.get("stream.bytes_written") == 1024 * 4);
    }

    #[test]
    fn overlap_only_variant_is_functional_and_transfers_all() {
        let mut m = Machine::test_platform();
        let (stream, expected) = fill_u64s(&mut m, 2048);
        let acc = m.gmem.alloc(8);
        let kernel = SumKernel { acc };
        let cfg = BigKernelConfig {
            chunk_input_bytes: 4096,
            ..BigKernelConfig::overlap_only()
        };
        let r = run_bigkernel(&mut m, &kernel, &[stream], LaunchConfig::new(1, 32), &cfg);
        assert_eq!(m.gmem.read_u64(acc, 0), expected);
        assert_eq!(r.implementation, "bigkernel-overlap-only");
        // It must ship the whole stream.
        assert!(r.metrics.get("pcie.h2d_bytes") >= 2048 * 8);
        assert_eq!(r.stage_busy("addr-gen"), SimTime::ZERO);
    }

    /// Per 8-byte record `i`: read stream 0 and stream 1, write their sum
    /// back to stream 1 — exercises aux staging of secondary streams under
    /// the overlap-only variant.
    struct TwoStreamKernel;

    impl StreamKernel for TwoStreamKernel {
        fn name(&self) -> &'static str {
            "test-two-stream"
        }
        fn record_size(&self) -> Option<u64> {
            Some(8)
        }
        fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
            let mut off = range.start;
            while off < range.end {
                ctx.emit_read(StreamId(0), off, 8);
                ctx.emit_read(StreamId(1), off, 8);
                ctx.emit_write(StreamId(1), off, 8);
                off += 8;
            }
        }
        fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
            let mut off = range.start;
            while off < range.end {
                let a = ctx.stream_read(StreamId(0), off, 8);
                let b = ctx.stream_read(StreamId(1), off, 8);
                ctx.alu(1);
                ctx.stream_write(StreamId(1), off, 8, a.wrapping_add(b));
                off += 8;
            }
        }
    }

    #[test]
    fn overlap_only_stages_secondary_streams() {
        let n = 2048u64;
        let mut m = Machine::test_platform();
        let (s0, _) = fill_u64s(&mut m, n);
        let region1 = m.hmem.alloc(n * 8);
        for i in 0..n {
            m.hmem.write_u64(region1, i * 8, i * 7 + 2);
        }
        let s1 = StreamArray::map(&m, StreamId(1), region1);
        let cfg = BigKernelConfig {
            chunk_input_bytes: 4096,
            ..BigKernelConfig::overlap_only()
        };
        let r = run_bigkernel(
            &mut m,
            &TwoStreamKernel,
            &[s0, s1],
            LaunchConfig::new(2, 32),
            &cfg,
        );
        // The dirty aux stream flushed back to host memory.
        for i in 0..n {
            assert_eq!(
                m.hmem.read_u64(region1, i * 8),
                (i * 3 + 1).wrapping_add(i * 7 + 2),
                "record {i}"
            );
        }
        // Whole-stream h2d for both streams (the primary re-ships per
        // wave); d2h is exactly the aux flush — the primary was never
        // written, so no staged window copied back.
        assert!(r.metrics.get("pcie.h2d_bytes") >= 2 * n * 8);
        assert_eq!(r.metrics.get("pcie.d2h_bytes"), n * 8);
    }

    #[test]
    fn volume_reduction_variant_is_functional() {
        let mut m = Machine::test_platform();
        let (stream, expected) = fill_u64s(&mut m, 2048);
        let acc = m.gmem.alloc(8);
        let kernel = SumKernel { acc };
        let cfg = BigKernelConfig {
            chunk_input_bytes: 4096,
            ..BigKernelConfig::volume_reduction()
        };
        let r = run_bigkernel(&mut m, &kernel, &[stream], LaunchConfig::new(1, 32), &cfg);
        assert_eq!(m.gmem.read_u64(acc, 0), expected);
        assert_eq!(r.implementation, "bigkernel-volume-reduction");
    }

    #[test]
    fn partial_read_kernel_reduces_h2d_vs_overlap_only() {
        // ScaleKernel reads 4 of every 8 bytes; BigKernel should ship about
        // half of what overlap-only ships.
        let n = 4096u64;
        let mk = |m: &mut Machine| {
            let region = m.hmem.alloc(n * 8);
            StreamArray::map(m, StreamId(0), region)
        };
        let mut m1 = Machine::test_platform();
        let s1 = mk(&mut m1);
        let r_big = run_bigkernel(
            &mut m1,
            &ScaleKernel,
            &[s1],
            LaunchConfig::new(1, 32),
            &small_cfg(),
        );
        let mut m2 = Machine::test_platform();
        let s2 = mk(&mut m2);
        let cfg2 = BigKernelConfig {
            chunk_input_bytes: 4096,
            ..BigKernelConfig::overlap_only()
        };
        let r_all = run_bigkernel(
            &mut m2,
            &ScaleKernel,
            &[s2],
            LaunchConfig::new(1, 32),
            &cfg2,
        );
        let big = r_big.metrics.get("pcie.h2d_bytes");
        let all = r_all.metrics.get("pcie.h2d_bytes");
        assert!(big < all, "bigkernel {big} vs overlap-only {all}");
    }

    #[test]
    fn deeper_buffers_never_slower() {
        let mut m1 = Machine::test_platform();
        let (s1, _) = fill_u64s(&mut m1, 8192);
        let acc1 = m1.gmem.alloc(8);
        let shallow = BigKernelConfig {
            buffer_depth: 1,
            ..small_cfg()
        };
        let r1 = run_bigkernel(
            &mut m1,
            &SumKernel { acc: acc1 },
            &[s1],
            LaunchConfig::new(1, 32),
            &shallow,
        );
        let mut m2 = Machine::test_platform();
        let (s2, _) = fill_u64s(&mut m2, 8192);
        let acc2 = m2.gmem.alloc(8);
        let r2 = run_bigkernel(
            &mut m2,
            &SumKernel { acc: acc2 },
            &[s2],
            LaunchConfig::new(1, 32),
            &small_cfg(),
        );
        assert!(
            r2.total <= r1.total,
            "depth 3 {} vs depth 1 {}",
            r2.total,
            r1.total
        );
    }

    #[test]
    fn pattern_recognition_reduces_addr_bytes() {
        let mut m1 = Machine::test_platform();
        let (s1, _) = fill_u64s(&mut m1, 4096);
        let acc1 = m1.gmem.alloc(8);
        let r_on = run_bigkernel(
            &mut m1,
            &SumKernel { acc: acc1 },
            &[s1],
            LaunchConfig::new(1, 32),
            &small_cfg(),
        );
        let mut m2 = Machine::test_platform();
        let (s2, _) = fill_u64s(&mut m2, 4096);
        let acc2 = m2.gmem.alloc(8);
        let cfg_off = BigKernelConfig {
            pattern_recognition: false,
            ..small_cfg()
        };
        let r_off = run_bigkernel(
            &mut m2,
            &SumKernel { acc: acc2 },
            &[s2],
            LaunchConfig::new(1, 32),
            &cfg_off,
        );
        // With 16 records per lane-chunk the raw stream is 128 B vs a 28 B
        // pattern; larger chunks compress far better (see bench runs).
        assert!(
            r_on.metrics.get("addr.encoded_bytes") * 3 < r_off.metrics.get("addr.encoded_bytes"),
            "patterns {} vs raw {}",
            r_on.metrics.get("addr.encoded_bytes"),
            r_off.metrics.get("addr.encoded_bytes"),
        );
        assert!(r_on.total <= r_off.total);
    }

    #[test]
    fn multi_wave_execution_covers_all_blocks() {
        // Launch far more blocks than can be active at once on the tiny
        // device; every record must still be processed exactly once.
        let mut m = Machine::test_platform();
        let (stream, expected) = fill_u64s(&mut m, 8192);
        let acc = m.gmem.alloc(8);
        let kernel = SumKernel { acc };
        let r = run_bigkernel(
            &mut m,
            &kernel,
            &[stream],
            LaunchConfig::new(64, 32),
            &small_cfg(),
        );
        assert_eq!(m.gmem.read_u64(acc, 0), expected);
        assert!(
            r.metrics.get("run.waves") >= 2,
            "waves {}",
            r.metrics.get("run.waves")
        );
    }

    #[test]
    fn relative_stage_times_have_a_dominant_stage() {
        let mut m = Machine::test_platform();
        let (stream, _) = fill_u64s(&mut m, 8192);
        let acc = m.gmem.alloc(8);
        let r = run_bigkernel(
            &mut m,
            &SumKernel { acc },
            &[stream],
            LaunchConfig::new(1, 32),
            &small_cfg(),
        );
        let rel = r.relative_stage_times();
        assert_eq!(rel.len(), 6);
        assert!(rel.iter().any(|&(_, v)| (v - 1.0).abs() < 1e-9));
    }

    /// Sharding across simulated GPUs is timing-level only: every output,
    /// metric that tracks functional behaviour, and chunk count matches the
    /// single-GPU run; only the schedule (and thus `total`) may differ.
    #[test]
    fn multi_gpu_outputs_match_single_gpu() {
        let run = |gpus: usize| {
            let mut m = Machine::test_platform();
            m.replicate_gpus(gpus);
            let (stream, _) = fill_u64s(&mut m, 8192);
            let acc = m.gmem.alloc(8);
            let r = run_bigkernel(
                &mut m,
                &SumKernel { acc },
                &[stream],
                LaunchConfig::new(2, 32),
                &small_cfg(),
            );
            (r, m.gmem.read_u64(acc, 0))
        };
        let (r1, v1) = run(1);
        let (r2, v2) = run(2);
        assert_eq!(v1, v2, "functional result diverged across device counts");
        assert_eq!(r1.chunks, r2.chunks);
        assert_eq!(
            r1.metrics.get("pcie.h2d_bytes"),
            r2.metrics.get("pcie.h2d_bytes"),
            "transfer volume is device-count independent"
        );
        assert!(
            r2.total <= r1.total,
            "2 GPUs {} vs 1 GPU {}",
            r2.total,
            r1.total
        );
        assert!(r2.metrics.get("device.1.chunks") > 0, "device 1 got work");
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::ctx::AddrGenCtx;
    use crate::kernel::{KernelCtx, ValueExt};
    use crate::stream::{StreamArray, StreamId};

    /// Same kernels as the main test module, re-declared locally so each
    /// module stays self-contained.
    struct SumKernel {
        acc: bk_gpu::BufferId,
    }

    impl StreamKernel for SumKernel {
        fn name(&self) -> &'static str {
            "par-sum"
        }
        fn record_size(&self) -> Option<u64> {
            Some(8)
        }
        fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
            let mut off = range.start;
            while off < range.end {
                ctx.emit_read(StreamId(0), off, 8);
                off += 8;
            }
        }
        fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
            let mut sum = 0u64;
            let mut off = range.start;
            while off < range.end {
                sum = sum.wrapping_add(ctx.stream_read(StreamId(0), off, 8));
                ctx.alu(2);
                off += 8;
            }
            if range.start < range.end {
                ctx.dev_atomic_add_u64(self.acc, 0, sum);
            }
        }
    }

    struct ScaleKernel;

    impl StreamKernel for ScaleKernel {
        fn name(&self) -> &'static str {
            "par-scale"
        }
        fn record_size(&self) -> Option<u64> {
            Some(8)
        }
        fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
            let mut off = range.start;
            while off < range.end {
                ctx.emit_read(StreamId(0), off, 4);
                ctx.emit_write(StreamId(0), off + 4, 4);
                off += 8;
            }
        }
        fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
            let mut off = range.start;
            while off < range.end {
                let a = ctx.stream_read_u32(StreamId(0), off);
                ctx.alu(1);
                ctx.stream_write_u32(StreamId(0), off + 4, a.wrapping_mul(2));
                off += 8;
            }
        }
    }

    fn filled_machine(n: u64) -> (Machine, StreamArray) {
        let mut m = Machine::test_platform();
        let region = m.hmem.alloc(n * 8);
        for i in 0..n {
            m.hmem
                .write_u64(region, i * 8, i.wrapping_mul(0x9E37_79B9).rotate_left(13));
        }
        let s = StreamArray::map(&m, StreamId(0), region);
        (m, s)
    }

    fn cfg_with(parallel: bool) -> BigKernelConfig {
        BigKernelConfig {
            chunk_input_bytes: 4096,
            parallel_blocks: parallel,
            ..BigKernelConfig::default()
        }
    }

    #[test]
    fn parallel_matches_sequential_sum() {
        let run = |parallel: bool| {
            let (mut m, s) = filled_machine(8192);
            let acc = m.gmem.alloc(8);
            let r = run_bigkernel(
                &mut m,
                &SumKernel { acc },
                &[s],
                LaunchConfig::new(8, 32),
                &cfg_with(parallel),
            );
            (r, m.gmem.read_u64(acc, 0))
        };
        let (r_par, v_par) = run(true);
        let (r_seq, v_seq) = run(false);
        assert_eq!(v_par, v_seq, "device accumulator diverged");
        assert_eq!(r_par, r_seq, "RunResult diverged between schedules");
    }

    #[test]
    fn parallel_matches_sequential_writeback() {
        let run = |parallel: bool| {
            let (mut m, s) = filled_machine(4096);
            let region = s.region;
            let r = run_bigkernel(
                &mut m,
                &ScaleKernel,
                &[s],
                LaunchConfig::new(4, 32),
                &cfg_with(parallel),
            );
            let host: Vec<u8> = m.hmem.read(region, 0, 4096 * 8).to_vec();
            (r, host)
        };
        let (r_par, h_par) = run(true);
        let (r_seq, h_seq) = run(false);
        assert_eq!(h_par, h_seq, "host write-back diverged");
        assert_eq!(r_par, r_seq);
    }

    #[test]
    fn parallel_matches_sequential_overlap_only() {
        let run = |parallel: bool| {
            let (mut m, s) = filled_machine(4096);
            let acc = m.gmem.alloc(8);
            let cfg = BigKernelConfig {
                chunk_input_bytes: 4096,
                parallel_blocks: parallel,
                ..BigKernelConfig::overlap_only()
            };
            let r = run_bigkernel(
                &mut m,
                &SumKernel { acc },
                &[s],
                LaunchConfig::new(4, 32),
                &cfg,
            );
            (r, m.gmem.read_u64(acc, 0))
        };
        let (r_par, v_par) = run(true);
        let (r_seq, v_seq) = run(false);
        assert_eq!(v_par, v_seq);
        assert_eq!(r_par, r_seq);
    }

    /// Every block's first-observing lane CASes the same slot; losers bump a
    /// second counter. Concurrently simulated blocks all observe the slot
    /// free, so replay conflicts and the losers re-execute live — landing on
    /// exactly the sequential schedule's outcome.
    struct RaceKernel {
        table: bk_gpu::BufferId,
    }

    impl StreamKernel for RaceKernel {
        fn name(&self) -> &'static str {
            "race"
        }
        fn record_size(&self) -> Option<u64> {
            Some(8)
        }
        fn addresses(&self, _ctx: &mut AddrGenCtx<'_>, _range: Range<u64>) {}
        fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
            if range.is_empty() {
                return;
            }
            let won = ctx.dev_atomic_cas_u64(self.table, 0, 0, 1) == 0;
            if !won {
                ctx.dev_atomic_add_u64(self.table, 8, 1);
            }
        }
    }

    #[test]
    fn replay_conflicts_fall_back_to_in_order_re_execution() {
        let run = |parallel: bool| {
            let mut m = Machine::test_platform();
            let region = m.hmem.alloc(128 * 8);
            let s = StreamArray::map(&m, StreamId(0), region);
            let table = m.gmem.alloc(16);
            let r = run_bigkernel(
                &mut m,
                &RaceKernel { table },
                &[s],
                LaunchConfig::new(4, 32),
                &BigKernelConfig {
                    parallel_blocks: parallel,
                    ..BigKernelConfig::default()
                },
            );
            (r, m.gmem.read_u64(table, 0), m.gmem.read_u64(table, 8))
        };
        let (r_par, t0, t8) = run(true);
        let (r_seq, s0, s8) = run(false);
        // One global winner; every other lane (127 of 128) bumps the loser
        // counter — the sequential schedule's exact outcome.
        assert_eq!((t0, t8), (1, 127));
        assert_eq!((s0, s8), (1, 127));
        assert_eq!(r_par, r_seq);
        // In the first wave every concurrently simulated block except the
        // first observes stale state and must re-execute in order.
        let first_wave_blocks = r_par.metrics.get("launch.active_blocks").min(4);
        assert_eq!(
            r_par.metrics.get("parallel.replay_conflicts"),
            first_wave_blocks - 1
        );
    }

    /// Hands out sequence slots by consuming `atomic_add` return values —
    /// not log-replayable, so the kernel declares `DeviceEffects::Sequential`
    /// and must run the legacy in-order path under either setting.
    struct TicketKernel {
        table: bk_gpu::BufferId,
    }

    impl StreamKernel for TicketKernel {
        fn name(&self) -> &'static str {
            "ticket"
        }
        fn record_size(&self) -> Option<u64> {
            Some(8)
        }
        fn device_effects(&self) -> crate::kernel::DeviceEffects {
            crate::kernel::DeviceEffects::Sequential
        }
        fn addresses(&self, _ctx: &mut AddrGenCtx<'_>, _range: Range<u64>) {}
        fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
            if range.is_empty() {
                return;
            }
            let slot = ctx.dev_atomic_add_u32(self.table, 0, 1);
            ctx.dev_write(
                self.table,
                8 + 4 * slot as u64,
                4,
                (ctx.thread_id() + 1) as u64,
            );
        }
    }

    #[test]
    fn sequential_capability_kernels_keep_block_order() {
        let run = |parallel: bool| {
            let mut m = Machine::test_platform();
            let region = m.hmem.alloc(64 * 8);
            let s = StreamArray::map(&m, StreamId(0), region);
            let table = m.gmem.alloc(8 + 4 * 64);
            let r = run_bigkernel(
                &mut m,
                &TicketKernel { table },
                &[s],
                LaunchConfig::new(2, 32),
                &BigKernelConfig {
                    parallel_blocks: parallel,
                    ..BigKernelConfig::default()
                },
            );
            let slots: Vec<u32> = (0..64).map(|i| m.gmem.read_u32(table, 8 + 4 * i)).collect();
            (r, m.gmem.read_u32(table, 0), slots)
        };
        let (r_par, count, slots) = run(true);
        let (r_seq, count2, slots2) = run(false);
        assert_eq!(count, 64);
        // Tickets issue strictly in block-then-lane order.
        for (i, v) in slots.iter().enumerate() {
            assert_eq!(*v, i as u32 + 1, "slot {i}");
        }
        assert_eq!((count, &slots), (count2, &slots2));
        assert_eq!(r_par, r_seq);
        assert_eq!(r_par.metrics.get("parallel.replay_conflicts"), 0);
    }
}

#[cfg(test)]
mod bound_counter_tests {
    use super::*;
    use crate::ctx::AddrGenCtx;
    use crate::kernel::{KernelCtx, ValueExt};
    use crate::stream::{StreamArray, StreamId};

    #[test]
    fn labels_cover_every_stage() {
        assert_eq!(
            bound_counter("addr-gen", "pcie-zerocopy"),
            "bound.addr-gen.pcie-zerocopy"
        );
        assert_eq!(
            bound_counter("assemble", "cpu-dram-bw"),
            "bound.assemble.cpu-dram-bw"
        );
        assert_eq!(
            bound_counter("transfer", "dma-bandwidth"),
            "bound.transfer.dma-bandwidth"
        );
        assert_eq!(
            bound_counter("transfer", "dma-latency"),
            "bound.transfer.dma-latency"
        );
        assert_eq!(bound_counter("compute", "gpu-mem"), "bound.compute.gpu-mem");
        assert_eq!(
            bound_counter("wb-xfer", "dma-bandwidth"),
            "bound.wb-xfer.dma-bandwidth"
        );
        assert_eq!(
            bound_counter("wb-xfer", "dma-latency"),
            "bound.wb-xfer.dma-latency"
        );
        assert_eq!(
            bound_counter("wb-apply", "cpu-issue"),
            "bound.wb-apply.cpu-issue"
        );
        assert_eq!(
            bound_counter("wb-apply", "cpu-dram-latency"),
            "bound.wb-apply.cpu-dram-latency"
        );
    }

    /// Unknown pairs no longer vanish silently: debug builds assert (a
    /// missing table entry is a bug to fix, not a bucket to hide in);
    /// release builds log once and still count under `bound.other` so the
    /// chunk tally stays complete.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "unknown stage/bound pair"))]
    fn unknown_pairs_assert_in_debug_and_fall_back_in_release() {
        assert_eq!(bound_counter("no-such-stage", "gpu-mem"), "bound.other");
        for stage in STAGE_NAMES {
            assert_eq!(bound_counter(stage, "no-such-bound"), "bound.other");
        }
    }

    struct ScaleKernel;

    impl StreamKernel for ScaleKernel {
        fn name(&self) -> &'static str {
            "bc-scale"
        }
        fn record_size(&self) -> Option<u64> {
            Some(8)
        }
        fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
            let mut off = range.start;
            while off < range.end {
                ctx.emit_read(StreamId(0), off, 4);
                ctx.emit_write(StreamId(0), off + 4, 4);
                off += 8;
            }
        }
        fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
            let mut off = range.start;
            while off < range.end {
                let a = ctx.stream_read_u32(StreamId(0), off);
                ctx.alu(1);
                ctx.stream_write_u32(StreamId(0), off + 4, a.wrapping_mul(2));
                off += 8;
            }
        }
    }

    /// A write-back run must classify every active stage — transfer, wb-xfer
    /// and wb-apply no longer collapse into `bound.other`.
    #[test]
    fn every_active_stage_is_classified() {
        let mut m = Machine::test_platform();
        let region = m.hmem.alloc(2048 * 8);
        let s = StreamArray::map(&m, StreamId(0), region);
        let cfg = BigKernelConfig {
            chunk_input_bytes: 4096,
            ..BigKernelConfig::default()
        };
        let r = run_bigkernel(&mut m, &ScaleKernel, &[s], LaunchConfig::new(2, 32), &cfg);
        let c = &r.metrics;
        let chunks = r.chunks as u64;
        let transfer = c.get("bound.transfer.dma-bandwidth") + c.get("bound.transfer.dma-latency");
        assert!(transfer > 0, "transfer chunks unclassified: {c}");
        let wbx = c.get("bound.wb-xfer.dma-bandwidth") + c.get("bound.wb-xfer.dma-latency");
        assert!(wbx > 0, "wb-xfer chunks unclassified: {c}");
        let wba = [
            "cpu-issue",
            "cpu-dram-bw",
            "cpu-dram-latency",
            "cpu-atomic-throughput",
            "cpu-atomic-contention",
        ]
        .iter()
        .map(|b| c.get(bound_counter("wb-apply", b)))
        .sum::<u64>();
        assert!(wba > 0, "wb-apply chunks unclassified: {c}");
        assert!(transfer <= chunks && wbx <= chunks && wba <= chunks);
        assert_eq!(c.get("bound.other"), 0, "metrics: {c}");
    }
}

#[cfg(test)]
mod fused_pipeline_tests {
    use super::tests::{ScaleKernel, SumBKernel};
    use super::*;
    use crate::config::BigKernelConfig;
    use crate::fusion::{FusePlan, FuseRefusal};
    use crate::stream::{StreamArray, StreamId};

    /// Fill `n` 8-byte records and keep the region handle for post-run
    /// byte-level comparison.
    fn fill_records(machine: &mut Machine, n: u64) -> (StreamArray, bk_host::RegionId) {
        let region = machine.hmem.alloc(n * 8);
        for i in 0..n {
            machine.hmem.write_u64(region, i * 8, i * 3 + 1);
        }
        (StreamArray::map(machine, StreamId(0), region), region)
    }

    fn small_cfg() -> BigKernelConfig {
        BigKernelConfig {
            chunk_input_bytes: 4096,
            ..BigKernelConfig::default()
        }
    }

    #[test]
    fn fused_pair_bit_identical_and_cuts_h2d() {
        let n = 4096u64;
        let launch = LaunchConfig::new(2, 32);
        let cfg = small_cfg();

        // Unfused reference: two sequential pipeline runs.
        let mut m1 = Machine::test_platform();
        let (s1, region1) = fill_records(&mut m1, n);
        let acc1 = m1.gmem.alloc(8);
        let ra = run_bigkernel(&mut m1, &ScaleKernel, &[s1], launch, &cfg);
        let rb = run_bigkernel(&mut m1, &SumBKernel { acc: acc1 }, &[s1], launch, &cfg);
        let h2d_unfused = ra.metrics.get("pcie.h2d_bytes") + rb.metrics.get("pcie.h2d_bytes");

        // Fused: one run over the proven plan.
        let mut m2 = Machine::test_platform();
        let (s2, region2) = fill_records(&mut m2, n);
        let acc2 = m2.gmem.alloc(8);
        let consumer = SumBKernel { acc: acc2 };
        let plan = FusePlan::analyze(
            &[ScaleKernel.access_summary(), consumer.access_summary()],
            1,
            &[],
        )
        .expect("scale→sum-b is a covered pair");
        assert!(plan.io[1].resident_reads[0]);
        let rf = run_bigkernel_fused(
            &mut m2,
            &[&ScaleKernel, &consumer],
            &[s2],
            launch,
            &cfg,
            &plan,
        )
        .expect("fused run");
        assert_eq!(rf.implementation, "bigkernel-fused");

        // Bit-identical outputs: accumulator and every stream byte.
        assert_eq!(m2.gmem.read_u64(acc2, 0), m1.gmem.read_u64(acc1, 0));
        for i in 0..n {
            assert_eq!(
                m2.hmem.read_u64(region2, i * 8),
                m1.hmem.read_u64(region1, i * 8),
                "record {i} diverged"
            );
        }

        // The covered read stayed device-resident: strictly fewer PCIe
        // h2d bytes than the two unfused runs, with the saving accounted.
        let h2d_fused = rf.metrics.get("pcie.h2d_bytes");
        assert!(
            h2d_fused < h2d_unfused,
            "fused h2d {h2d_fused} !< unfused {h2d_unfused}"
        );
        assert!(rf.metrics.get("fusion.h2d_saved_bytes") > 0);
        assert_eq!(rf.metrics.get("fusion.passes"), 2);
        // One DAG run: every chunk row carries both passes.
        assert_eq!(rf.chunks, ra.chunks + rb.chunks);
    }

    #[test]
    fn fused_refuses_when_resident_set_cannot_fit() {
        let mut m = Machine::test_platform();
        let (s, _) = fill_records(&mut m, 1024);
        let acc = m.gmem.alloc(8);
        let consumer = SumBKernel { acc };
        let plan = FusePlan::analyze(
            &[ScaleKernel.access_summary(), consumer.access_summary()],
            1,
            &[],
        )
        .unwrap();
        // A chunk set as large as device memory leaves no room for even one
        // buffer set next to the resident intermediate.
        let cfg = BigKernelConfig {
            chunk_input_bytes: m.gpu().mem_capacity,
            ..BigKernelConfig::default()
        };
        let err = run_bigkernel_fused(
            &mut m,
            &[&ScaleKernel, &consumer],
            &[s],
            LaunchConfig::new(2, 32),
            &cfg,
            &plan,
        )
        .unwrap_err();
        assert!(
            matches!(err, FuseRefusal::ResidentFootprint { .. }),
            "{err}"
        );
    }
}

#[cfg(test)]
mod segmented_pipeline_tests {
    use super::*;
    use crate::config::BigKernelConfig;
    use crate::ctx::AddrGenCtx;
    use crate::kernel::KernelCtx;
    use crate::stream::{StreamArray, StreamId};

    /// Access shape flips every 64 records: even phases read the first 8
    /// bytes of each 32-byte record, odd phases read two 4-byte fields at
    /// offsets 16 and 24. Whole-stream stride detection fails; the
    /// segmented detector compresses each phase separately.
    struct PhasedKernel {
        acc: bk_gpu::BufferId,
    }

    const REC: u64 = 32;
    const PHASE: u64 = 64;

    fn phase_of(off: u64) -> u64 {
        (off / REC / PHASE) % 2
    }

    impl StreamKernel for PhasedKernel {
        fn name(&self) -> &'static str {
            "phased"
        }
        fn record_size(&self) -> Option<u64> {
            Some(REC)
        }
        fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: std::ops::Range<u64>) {
            let mut off = range.start;
            while off < range.end {
                if phase_of(off) == 0 {
                    ctx.emit_read(StreamId(0), off, 8);
                } else {
                    ctx.emit_read(StreamId(0), off + 16, 4);
                    ctx.emit_read(StreamId(0), off + 24, 4);
                }
                off += REC;
            }
        }
        fn process(&self, ctx: &mut dyn KernelCtx, range: std::ops::Range<u64>) {
            let mut sum = 0u64;
            let mut off = range.start;
            while off < range.end {
                if phase_of(off) == 0 {
                    sum = sum.wrapping_add(ctx.stream_read(StreamId(0), off, 8));
                } else {
                    sum = sum.wrapping_add(ctx.stream_read(StreamId(0), off + 16, 4));
                    sum = sum.wrapping_add(ctx.stream_read(StreamId(0), off + 24, 4));
                }
                ctx.alu(2);
                off += REC;
            }
            if !range.is_empty() {
                ctx.dev_atomic_add_u64(self.acc, 0, sum);
            }
        }
    }

    fn setup(n: u64) -> (Machine, StreamArray, u64) {
        let mut m = Machine::test_platform();
        let region = m.hmem.alloc(n * REC);
        let mut rng = bk_simcore::SplitMix64::new(17);
        let mut expected = 0u64;
        for r in 0..n {
            let base = r * REC;
            for f in 0..4u64 {
                m.hmem.write_u64(region, base + f * 8, rng.next_u64() >> 32);
            }
            if phase_of(base) == 0 {
                expected = expected.wrapping_add(m.hmem.read_u64(region, base));
            } else {
                expected = expected.wrapping_add(m.hmem.read_u32(region, base + 16) as u64);
                expected = expected.wrapping_add(m.hmem.read_u32(region, base + 24) as u64);
            }
        }
        let stream = StreamArray::map(&m, StreamId(0), region);
        (m, stream, expected)
    }

    /// One big lane so every chunk slice spans several phases.
    fn launch() -> LaunchConfig {
        LaunchConfig::new(1, 32)
    }

    #[test]
    fn segmented_patterns_compress_phase_changing_kernels() {
        let n = 16 * 1024u64; // 512 KiB, 8 phase flips per lane slice
        let (mut m, stream, expected) = setup(n);
        let acc = m.gmem.alloc(8);
        let cfg = BigKernelConfig {
            chunk_input_bytes: 512 * 1024,
            ..Default::default()
        };
        let r = run_bigkernel(&mut m, &PhasedKernel { acc }, &[stream], launch(), &cfg);
        assert_eq!(m.gmem.read_u64(acc, 0), expected, "functional result");
        assert!(
            r.metrics.get("addr.segmented_found") > 0,
            "expected segmented pieces, metrics: {}",
            r.metrics
        );
    }

    #[test]
    fn segmented_compression_reduces_addr_traffic_and_never_slows() {
        let n = 16 * 1024u64;
        let cfg_on = BigKernelConfig {
            chunk_input_bytes: 512 * 1024,
            ..Default::default()
        };
        let cfg_off = BigKernelConfig {
            segmented_patterns: false,
            ..cfg_on.clone()
        };

        let (mut m1, s1, e1) = setup(n);
        let acc1 = m1.gmem.alloc(8);
        let on = run_bigkernel(
            &mut m1,
            &PhasedKernel { acc: acc1 },
            &[s1],
            launch(),
            &cfg_on,
        );
        assert_eq!(m1.gmem.read_u64(acc1, 0), e1);

        let (mut m2, s2, e2) = setup(n);
        let acc2 = m2.gmem.alloc(8);
        let off = run_bigkernel(
            &mut m2,
            &PhasedKernel { acc: acc2 },
            &[s2],
            launch(),
            &cfg_off,
        );
        assert_eq!(m2.gmem.read_u64(acc2, 0), e2);

        let b_on = on.metrics.get("addr.encoded_bytes");
        let b_off = off.metrics.get("addr.encoded_bytes");
        assert!(b_on * 5 < b_off, "segmented {b_on} vs raw {b_off}");
        assert!(on.total <= off.total, "on {} off {}", on.total, off.total);
    }
}

#[cfg(test)]
mod validation_tests {
    use super::*;
    use crate::config::BigKernelConfig;
    use crate::ctx::AddrGenCtx;
    use crate::kernel::KernelCtx;
    use crate::stream::{StreamArray, StreamId};

    struct NopKernel;

    impl StreamKernel for NopKernel {
        fn name(&self) -> &'static str {
            "nop"
        }
        fn record_size(&self) -> Option<u64> {
            Some(8)
        }
        fn addresses(&self, _ctx: &mut AddrGenCtx<'_>, _range: std::ops::Range<u64>) {}
        fn process(&self, _ctx: &mut dyn KernelCtx, _range: std::ops::Range<u64>) {}
    }

    #[test]
    #[should_panic(expected = "at least one mapped stream")]
    fn empty_streams_rejected() {
        let mut m = Machine::test_platform();
        run_bigkernel(
            &mut m,
            &NopKernel,
            &[],
            LaunchConfig::new(1, 32),
            &BigKernelConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "indexed by id")]
    fn misnumbered_streams_rejected() {
        let mut m = Machine::test_platform();
        let r = m.hmem.alloc(64);
        let s = StreamArray::map(&m, StreamId(3), r); // wrong id for slot 0
        run_bigkernel(
            &mut m,
            &NopKernel,
            &[s],
            LaunchConfig::new(1, 32),
            &BigKernelConfig::default(),
        );
    }

    #[test]
    fn nop_kernel_runs_and_transfers_nothing() {
        let mut m = Machine::test_platform();
        let r = m.hmem.alloc(1024);
        let s = StreamArray::map(&m, StreamId(0), r);
        let res = run_bigkernel(
            &mut m,
            &NopKernel,
            &[s],
            LaunchConfig::new(1, 32),
            &BigKernelConfig::default(),
        );
        assert_eq!(res.metrics.get("assembly.gathered_bytes"), 0);
        assert_eq!(res.metrics.get("stream.bytes_read"), 0);
        // Sync/barrier overheads still tick, so time is not exactly zero.
        assert!(res.chunks >= 1);
    }

    /// A kernel whose addresses() lies about widths must be caught by the
    /// FIFO cross-check at the first read.
    struct LyingKernel;

    impl StreamKernel for LyingKernel {
        fn name(&self) -> &'static str {
            "liar"
        }
        fn record_size(&self) -> Option<u64> {
            Some(8)
        }
        fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: std::ops::Range<u64>) {
            let mut off = range.start;
            while off < range.end {
                ctx.emit_read(StreamId(0), off, 4); // claims 4 bytes...
                off += 8;
            }
        }
        fn process(&self, ctx: &mut dyn KernelCtx, range: std::ops::Range<u64>) {
            let mut off = range.start;
            while off < range.end {
                let _ = ctx.stream_read(StreamId(0), off, 8); // ...reads 8
                off += 8;
            }
        }
    }

    #[test]
    #[should_panic(expected = "address-stream mismatch")]
    fn width_lies_are_caught() {
        let mut m = Machine::test_platform();
        let r = m.hmem.alloc(1024);
        let s = StreamArray::map(&m, StreamId(0), r);
        run_bigkernel(
            &mut m,
            &LyingKernel,
            &[s],
            LaunchConfig::new(1, 32),
            &BigKernelConfig::default(),
        );
    }
}
