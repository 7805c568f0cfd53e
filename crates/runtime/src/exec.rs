//! Per-block execution of the pipeline stages (functional simulation +
//! cost accounting), split out of the pipeline runner so `pipeline.rs` is a
//! thin configuration layer over the stage-graph executor.
//!
//! Everything here implements the *work* of a chunk — address generation,
//! assembly, DMA, the kernel body, write-back — under the block algorithm
//! described in [`crate::pipeline`]'s module docs: a pure phase A that fans
//! out over the installed rayon pool's width (run inline at width 1), then
//! ordered phases that run every block's kernel body live, in block order.
//! Scheduling the resulting stage durations is the stage graph's job
//! ([`crate::graph`]).
//!
//! There is one chunk runner, [`run_chunk`], for every layout. What phase A
//! prepares per block is a [`Prepared`]: an assembled chunk (full BigKernel,
//! volume reduction) or a staged one (overlap only), and phases A, B and C
//! each dispatch on it once. There is one kernel lane loop per layout, each
//! against live device memory: `compute_assembled`, and [`compute_staged`],
//! which the buffered baselines also run for each granule of their windows.
//!
//! Functional execution always uses the primary device's memory image
//! (`machine.gmem` is one unified image shared by all simulated devices)
//! and runs in global chunk order — multi-GPU sharding is a timing-level
//! decision, so outputs are identical for any device count.

use crate::addr::LaneAddrs;
use crate::assembly::{assemble, AssemblyOutput, GatherConfig};
use crate::config::BigKernelConfig;
use crate::ctx::{AddrGenCtx, ComputeCtx};
use crate::fusion::PassIo;
use crate::kernel::{LaunchConfig, StreamKernel};
use crate::layout::{ChunkLayout, StagedLayout};
use crate::machine::Machine;
use crate::pool::{AddrGenScratch, Compression};
use crate::stream::{StreamArray, StreamId};
use bk_gpu::{BlockSim, DeviceSpec, GpuMemory, KernelCost, WARP_SIZE};
use bk_host::{cpu, ArenaRef, CacheSim, CpuCost, DmaDirection, PinnedArena};
use bk_obs::MetricsRegistry;
use bk_simcore::SimTime;
use rayon::prelude::*;
use std::ops::Range;

/// Per-active-block simulation state, persistent across chunks and waves:
/// the warp aligner (with its reusable trace arena), this block slot's LLC
/// model (one assembly thread per block, so one cache each), and the pooled
/// addr-gen/assembly scratch whose vectors cycle chunk to chunk.
///
/// Slots are owned by the caller of the runner, not by one run: a batch run
/// passes a fresh pool, and the streaming runner keeps one pool for the
/// whole stream so its windows stop rebuilding them. Every run starts by
/// clearing each slot's LLC ([`prepare_slots`]); everything else in a slot
/// is scratch whose contents never reach a result.
pub(crate) struct BlockSlot {
    pub(crate) sim: BlockSim,
    pub(crate) llc: CacheSim,
    pub(crate) scratch: AddrGenScratch,
}

impl BlockSlot {
    pub(crate) fn new() -> Self {
        BlockSlot {
            sim: BlockSim::new(),
            llc: CacheSim::xeon_llc(),
            scratch: AddrGenScratch::new(),
        }
    }

    /// Return a finished chunk's phase-A vectors to this slot's pool so
    /// the next chunk allocates nothing. Resetting the arena recycles the
    /// chunk's pinned prefetch window (and invalidates its `ArenaRef`s, so
    /// any stale read past this point panics instead of aliasing).
    fn recycle(&mut self, work: Prepared) {
        if let Prepared::Assembled(pure) = work {
            self.scratch.pool.give_lanes(pure.lane_addrs);
            self.scratch.pool.give_output(pure.out);
        }
        self.scratch.pool.arena.reset();
    }
}

/// Ready a caller-owned slot pool for one run with `active` working blocks:
/// clear every slot's LLC model, so the run starts as cold as on new slots,
/// then grow the pool to `active` slots. A pool that is already larger keeps
/// its extra slots for a later run that needs them.
pub(crate) fn prepare_slots(pool: &mut Vec<BlockSlot>, active: usize) {
    for slot in pool.iter_mut() {
        slot.llc.clear();
    }
    if pool.len() < active {
        pool.resize_with(active, BlockSlot::new);
    }
}

/// Address-generation metrics accumulated per block in the pure phase and
/// folded into the run metrics in block order.
#[derive(Default)]
struct AddrCounts {
    entries: u64,
    patterns_found: u64,
    segmented_found: u64,
    patterns_missed: u64,
}

/// Pure per-block output of stages 1–2 (no shared-simulator mutation).
pub(crate) struct BlockPure {
    lane_addrs: Vec<LaneAddrs>,
    ag_cost: KernelCost,
    out: AssemblyOutput,
    counts: AddrCounts,
    addr_bytes: u64,
}

/// Pure per-block output of the overlap-only staging copy.
pub(crate) struct StagedPure {
    layout: StagedLayout,
    bytes: ArenaRef,
}

/// One block's phase-A output for the current chunk, by layout.
// Inline on purpose: boxing the assembled variant would add a heap
// allocation per block per chunk.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Prepared {
    /// Addresses generated and gathered into an assembled chunk (full
    /// BigKernel, volume reduction).
    Assembled(BlockPure),
    /// Slices copied verbatim into a staged chunk (overlap only).
    Staged(StagedPure),
}

/// What one block's compute-stage lanes did: their traced cost and
/// counters.
pub struct BlockComputed {
    /// Traced issue, memory and atomic cost of the block's lanes.
    pub comp_cost: KernelCost,
    /// Mapped-stream bytes the lanes read.
    pub bytes_read: u64,
    /// Mapped-stream bytes the lanes wrote.
    pub bytes_written: u64,
    /// Per-lane count of stream writes performed (assembled chunks; empty
    /// for staged ones).
    pub writes_performed: Vec<usize>,
    /// Whether any lane modified the *primary* stream's staged chunk in
    /// place (staged chunks).
    pub any_writes: bool,
    /// Bitmask of aux-staged secondary streams written (staged chunks; bit
    /// = table index, see [`ComputeCtx::staged_on`]).
    pub aux_dirty: u64,
}

/// One active block's work for the current chunk.
pub(crate) struct WaveCell<'s> {
    pub(crate) block: u32,
    pub(crate) slices: Vec<Range<u64>>,
    pub(crate) slot: &'s mut BlockSlot,
    pub(crate) work: Option<Prepared>,
    pub(crate) data_buf: Option<bk_gpu::BufferId>,
    pub(crate) write_buf: Option<bk_gpu::BufferId>,
}

/// Per-chunk cost accumulators shared by every execution path.
pub(crate) struct ChunkCosts {
    pub(crate) ag: KernelCost,
    pub(crate) asm: CpuCost,
    pub(crate) xfer: SimTime,
    /// H2D transfer count (each pays the completion-flag copy).
    pub(crate) h2d_flags: u64,
    /// H2D transfers with a nonzero payload (each pays the DMA setup
    /// latency).
    pub(crate) h2d_lats: u64,
    pub(crate) comp: KernelCost,
    pub(crate) wb_bytes: u64,
    pub(crate) wb: CpuCost,
    pub(crate) addr_bytes: u64,
    /// Union of per-block aux-stream dirty masks (overlap-only mode).
    pub(crate) aux_dirty: u64,
}

impl ChunkCosts {
    pub(crate) fn new() -> Self {
        ChunkCosts {
            ag: KernelCost::new(),
            asm: CpuCost::new(),
            xfer: SimTime::ZERO,
            h2d_flags: 0,
            h2d_lats: 0,
            comp: KernelCost::new(),
            wb_bytes: 0,
            wb: CpuCost::new(),
            addr_bytes: 0,
            aux_dirty: 0,
        }
    }
}

/// Tally one committed lane stream into the per-block counts (the former
/// `compress_stream` bookkeeping; the decision itself lives in
/// [`crate::pool::AddrGenScratch`]).
fn tally(counts: &mut AddrCounts, c: Compression) {
    match c {
        Compression::Pattern => counts.patterns_found += 1,
        Compression::Segmented => counts.segmented_found += 1,
        Compression::Missed => counts.patterns_missed += 1,
        Compression::Raw => {}
    }
}

/// Pure phase, stages 1–2: address generation + compression + assembly
/// against this block's own LLC. Reads shared state immutably; safe to run
/// concurrently across blocks.
///
/// The whole phase runs out of the slot's pooled scratch: lanes record into
/// the reusable [`crate::ctx::AddrRecorder`] (with §IV.A detection running
/// online as entries are emitted), committed streams and the assembly
/// output draw their vectors from the slot's [`crate::pool::StreamPool`],
/// and everything returns there when the chunk retires — so steady-state
/// chunks allocate nothing.
fn block_pure_bigkernel(
    machine: &Machine,
    kernel: &dyn StreamKernel,
    streams: &[StreamArray],
    slices: &[Range<u64>],
    tpb: u32,
    cfg: &BigKernelConfig,
    slot: &mut BlockSlot,
) -> BlockPure {
    let mut ag_cost = KernelCost::new();
    let mut counts = AddrCounts::default();
    let BlockSlot { sim, llc, scratch } = slot;
    let mut lane_addrs: Vec<LaneAddrs> = scratch.pool.take_lanes();
    {
        let gmem = &machine.gmem;
        let counts = &mut counts;
        let lane_addrs = &mut lane_addrs;
        let scratch = &mut *scratch;
        bk_gpu::run_block_lanes(machine.gpu(), sim, tpb, &mut ag_cost, |lane, trace| {
            scratch.begin_lane(cfg.pattern_recognition);
            {
                let mut ctx = AddrGenCtx::recording(gmem, trace, &mut scratch.recorder);
                kernel.addresses(&mut ctx, slices[lane].clone());
            }
            counts.entries += (scratch.recorder.reads_len() + scratch.recorder.writes_len()) as u64;
            let (reads, rc) = scratch.commit_reads(cfg);
            let (writes, wc) = scratch.commit_writes(cfg);
            tally(counts, rc);
            tally(counts, wc);
            lane_addrs.push(LaneAddrs { reads, writes });
        });
    }
    ag_cost.add_barrier(1);
    let addr_bytes: u64 = lane_addrs.iter().map(|l| l.encoded_bytes()).sum();
    let out = assemble(
        &machine.hmem,
        streams,
        &lane_addrs,
        GatherConfig::from_config(cfg),
        llc,
        &mut scratch.pool,
    );
    BlockPure {
        lane_addrs,
        ag_cost,
        out,
        counts,
        addr_bytes,
    }
}

/// Fold one block's pure-phase results into chunk costs and metrics (block
/// order).
fn fold_pure(pure: &BlockPure, costs: &mut ChunkCosts, metrics: &mut MetricsRegistry) {
    costs.ag.merge(&pure.ag_cost);
    metrics.add("addr.entries", pure.counts.entries);
    metrics.add("addr.patterns_found", pure.counts.patterns_found);
    metrics.add("addr.segmented_found", pure.counts.segmented_found);
    metrics.add("addr.patterns_missed", pure.counts.patterns_missed);
    costs.addr_bytes += pure.addr_bytes;
    metrics.add("addr.encoded_bytes", pure.addr_bytes);
    metrics.add("pcie.d2h_bytes", pure.addr_bytes);
    costs.asm.merge(&pure.out.cost);
    metrics.add("assembly.gathered_bytes", pure.out.gathered_bytes);
    metrics.add("assembly.padding_bytes", pure.out.padding_bytes);
    metrics.add("assembly.cache_hits", pure.out.cost.cache_hits);
    metrics.add("assembly.cache_misses", pure.out.cost.cache_misses);
    if pure.out.locality_order_used {
        metrics.incr("assembly.locality_order_chunks");
    }
    metrics.add("assembly.simd_runs", pure.out.simd_runs);
    metrics.add("assembly.scalar_runs", pure.out.scalar_runs);
    metrics.add("assembly.cache_blocked_warps", pure.out.cache_blocked_warps);
    metrics.merge_hist("hist.assembly.run_bytes", &pure.out.run_bytes);
    metrics.add("stream.bytes_read_unique", pure.out.gathered_bytes);
}

/// Ordered phase, stage 3: allocate the block's device buffers and DMA the
/// assembled bytes in.
///
/// Under a fusion plan (`io`), reads of device-resident streams — proven
/// covered by an earlier fused pass's writes — never cross PCIe in the
/// modeled system, so their bytes are elided from the transfer *cost* and
/// counted under `fusion.h2d_saved_bytes` instead. The functional `dma_in`
/// still carries the full assembled buffer (the simulator's unified memory
/// image), which is exactly what keeps fused outputs bit-identical.
fn stage_transfer(
    machine: &mut Machine,
    pure: &BlockPure,
    arena: &PinnedArena,
    io: Option<&PassIo>,
    costs: &mut ChunkCosts,
    metrics: &mut MetricsRegistry,
) -> (bk_gpu::BufferId, Option<bk_gpu::BufferId>) {
    let bytes = arena.bytes(&pure.out.bytes);
    let buf_len = pure.out.layout.total_len().max(1);
    let data_buf = machine.gmem.alloc(buf_len);
    machine.gmem.dma_in(data_buf, 0, bytes);
    let mut resident = 0u64;
    if let Some(io) = io.filter(|io| io.any_resident()) {
        for l in &pure.lane_addrs {
            for e in l.reads.iter() {
                if io
                    .resident_reads
                    .get(e.stream.0 as usize)
                    .copied()
                    .unwrap_or(false)
                {
                    resident += e.width as u64;
                }
            }
        }
    }
    let charged = (bytes.len() as u64).saturating_sub(resident);
    costs.xfer += machine
        .link
        .dma_time_with_flag(DmaDirection::HostToDevice, charged);
    costs.h2d_flags += 1;
    if charged > 0 {
        costs.h2d_lats += 1;
    }
    metrics.add("pcie.h2d_bytes", charged);
    if (bytes.len() as u64) > charged {
        metrics.add("fusion.h2d_saved_bytes", bytes.len() as u64 - charged);
    }
    let write_buf = pure
        .out
        .write_layout
        .as_ref()
        .map(|wl| machine.gmem.alloc(wl.total_len().max(1)));
    (data_buf, write_buf)
}

/// Fold one block's compute results into chunk costs and metrics (block
/// order), charging the block's two compute-stage barriers (§IV.C).
fn fold_computed(computed: &BlockComputed, costs: &mut ChunkCosts, metrics: &mut MetricsRegistry) {
    costs.comp.merge(&computed.comp_cost);
    costs.comp.add_barrier(2);
    costs.aux_dirty |= computed.aux_dirty;
    metrics.add("stream.bytes_read", computed.bytes_read);
    metrics.add("stream.bytes_written", computed.bytes_written);
}

/// Ordered phase, stages 5–6 of the assembled path.
///
/// Under a fusion plan (`io`), writes to scratch streams consumed entirely
/// by later fused passes stay device-resident: their bytes are elided from
/// the write-back transfer/apply *cost* (counted under
/// `fusion.d2h_saved_bytes`), while the functional scatter into host memory
/// still runs — see [`stage_transfer`] for why that keeps outputs
/// bit-identical.
#[allow(clippy::too_many_arguments)]
fn writeback_assembled(
    machine: &mut Machine,
    streams: &[StreamArray],
    pure: &BlockPure,
    write_buf: Option<bk_gpu::BufferId>,
    computed: &BlockComputed,
    io: Option<&PassIo>,
    llc: &mut CacheSim,
    costs: &mut ChunkCosts,
    metrics: &mut MetricsRegistry,
) {
    if let (Some(wl), Some(wb)) = (pure.out.write_layout.as_ref(), write_buf) {
        let total = wl.total_len();
        let mut charged = total;
        if let Some(io) = io.filter(|io| io.any_skipped_writeback()) {
            let mut entry_total = 0u64;
            let mut scratch = 0u64;
            for (lane, l) in pure.lane_addrs.iter().enumerate() {
                let n = computed.writes_performed.get(lane).copied().unwrap_or(0);
                for e in l.writes.iter().take(n) {
                    entry_total += e.width as u64;
                    if io
                        .skip_writeback
                        .get(e.stream.0 as usize)
                        .copied()
                        .unwrap_or(false)
                    {
                        scratch += e.width as u64;
                    }
                }
            }
            // All performed writes scratch → the whole buffer (padding
            // included) stays on the device; a mix elides the scratch
            // entries' bytes only.
            charged = if scratch == entry_total {
                0
            } else {
                total.saturating_sub(scratch)
            };
        }
        costs.wb_bytes += charged;
        metrics.add("pcie.d2h_bytes", charged);
        if total > charged {
            metrics.add("fusion.d2h_saved_bytes", total - charged);
        }
        apply_writeback(
            machine,
            streams,
            &pure.lane_addrs,
            wl,
            wb,
            &computed.writes_performed,
            io,
            &mut costs.wb,
            llc,
        );
    }
}

/// The compute stage's lane loop over an assembled chunk: run the kernel
/// body for each of the block's lanes against live device memory.
#[allow(clippy::too_many_arguments)]
fn compute_assembled(
    gpu: &DeviceSpec,
    sim: &mut BlockSim,
    gmem: &mut GpuMemory,
    kernel: &dyn StreamKernel,
    slices: &[Range<u64>],
    pure: &BlockPure,
    data_buf: bk_gpu::BufferId,
    write_buf: Option<bk_gpu::BufferId>,
    block: u32,
    launch: LaunchConfig,
) -> BlockComputed {
    let tpb = slices.len() as u32;
    let mut comp_cost = KernelCost::new();
    let mut writes_performed: Vec<usize> = vec![0; slices.len()];
    let mut bytes_read = 0u64;
    let mut bytes_written = 0u64;
    bk_gpu::run_block_lanes(gpu, sim, tpb, &mut comp_cost, |lane, trace| {
        let mut ctx = ComputeCtx::assembled_on(
            &mut *gmem,
            data_buf,
            write_buf,
            &pure.out.layout,
            pure.out.write_layout.as_ref(),
            &pure.lane_addrs[lane],
            lane,
            block * tpb + lane as u32,
            launch.total_threads(),
            trace,
        );
        kernel.process(&mut ctx, slices[lane].clone());
        bytes_read += ctx.stream_bytes_read;
        bytes_written += ctx.stream_bytes_written;
        writes_performed[lane] = ctx.write_count();
    });
    BlockComputed {
        comp_cost,
        bytes_read,
        bytes_written,
        writes_performed,
        any_writes: false,
        aux_dirty: 0,
    }
}

/// Scatter the chunk's write-buffer values into the mapped host arrays
/// (pipeline stage 6, functional + cost).
#[allow(clippy::too_many_arguments)]
fn apply_writeback(
    machine: &mut Machine,
    streams: &[StreamArray],
    lane_addrs: &[LaneAddrs],
    write_layout: &ChunkLayout,
    write_buf: bk_gpu::BufferId,
    writes_performed: &[usize],
    io: Option<&PassIo>,
    wb_cost: &mut CpuCost,
    llc: &mut CacheSim,
) {
    for (lane, l) in lane_addrs.iter().enumerate() {
        let n = writes_performed[lane];
        let mut perlane_cursor = 0u64;
        for (k, e) in l.writes.iter().take(n).enumerate() {
            let pos = match write_layout {
                ChunkLayout::Interleaved { warps, .. } => {
                    warps[lane / WARP_SIZE].slot(lane % WARP_SIZE, k).0
                }
                ChunkLayout::PerLane { lane_base, .. } => {
                    let p = lane_base[lane] + perlane_cursor;
                    perlane_cursor += e.width as u64;
                    p
                }
            };
            let Machine {
                ref gmem,
                ref mut hmem,
                ..
            } = *machine;
            let val = gmem.read(write_buf, pos, e.width as usize);
            let arr = &streams[e.stream.0 as usize];
            hmem.write(arr.region, e.offset, val);
            // A fused scratch stream stays device-resident: the host-side
            // scatter above is simulator bookkeeping only, so it carries no
            // apply cost in the modeled system.
            if io.is_some_and(|io| {
                io.skip_writeback
                    .get(e.stream.0 as usize)
                    .copied()
                    .unwrap_or(false)
            }) {
                continue;
            }
            // Cost: sequential read of the landed write buffer + scattered
            // store into the mapped array.
            let (h, m) = llc.access_range(hmem.vaddr(arr.region, e.offset), e.width as u64);
            wb_cost.cache_hits += h;
            wb_cost.cache_misses += m;
            wb_cost.dram_bytes += m * llc.line_bytes() + e.width as u64;
            wb_cost.instructions += 4;
        }
    }
}

/// Pure phase of the overlap-only variant: staging-window layout + host-side
/// gather into a local buffer.
fn block_pure_staged(
    machine: &Machine,
    kernel: &dyn StreamKernel,
    streams: &[StreamArray],
    slices: &[Range<u64>],
    arena: &mut PinnedArena,
) -> StagedPure {
    let primary = &streams[0];
    let halo = kernel.halo_bytes();
    let layout = StagedLayout::build_slices(slices, halo, primary.len());
    let bytes_ref = arena.alloc_zeroed(layout.total_len as usize);
    let bytes = arena.bytes_mut(&bytes_ref);
    for (base, range) in &layout.segs {
        let src = machine.hmem.read(
            primary.region,
            range.start,
            (range.end - range.start) as usize,
        );
        bytes[*base as usize..*base as usize + src.len()].copy_from_slice(src);
    }
    StagedPure {
        layout,
        bytes: bytes_ref,
    }
}

/// Ordered phase, stage 3 of the overlap-only variant: "assembly" is the
/// plain staging copy (1 read + 1 write per byte, the classical scheme),
/// then the whole window ships over the link.
fn stage_transfer_staged(
    machine: &mut Machine,
    staged: &StagedPure,
    arena: &PinnedArena,
    costs: &mut ChunkCosts,
    metrics: &mut MetricsRegistry,
) -> bk_gpu::BufferId {
    let len = staged.layout.total_len;
    costs.asm.merge(&CpuCost::streaming(len, 2, 1));
    let data_buf = machine.gmem.alloc(len.max(1));
    machine.gmem.dma_in(data_buf, 0, arena.bytes(&staged.bytes));
    costs.xfer += machine
        .link
        .dma_time_with_flag(DmaDirection::HostToDevice, len);
    costs.h2d_flags += 1;
    if len > 0 {
        costs.h2d_lats += 1;
    }
    metrics.add("pcie.h2d_bytes", len);
    data_buf
}

/// The compute stage's lane loop over a staged chunk (the overlap-only
/// variant's stage 4, and the kernel of the buffered baselines): run the
/// kernel body for each lane of one block against live device memory, in
/// lane order.
///
/// Lane `l` processes `slices[l]` (absolute stream ranges) as layout lane
/// `first_lane + l` and thread `first_thread + l` of `num_threads`. Only
/// the lane loop is shared: each caller keeps what its cost model differs
/// in — the baselines' launch overhead and any barrier cost.
#[allow(clippy::too_many_arguments)]
pub fn compute_staged(
    gpu: &DeviceSpec,
    sim: &mut BlockSim,
    gmem: &mut GpuMemory,
    kernel: &dyn StreamKernel,
    layout: &StagedLayout,
    data_buf: bk_gpu::BufferId,
    aux: &[(StreamId, bk_gpu::BufferId)],
    slices: &[Range<u64>],
    first_lane: usize,
    first_thread: u32,
    num_threads: u32,
) -> BlockComputed {
    let mut comp_cost = KernelCost::new();
    let mut bytes_read = 0u64;
    let mut bytes_written = 0u64;
    let mut any_writes = false;
    let mut aux_dirty = 0u64;
    let num_lanes = slices.len() as u32;
    bk_gpu::run_block_lanes(gpu, sim, num_lanes, &mut comp_cost, |lane, trace| {
        let mut ctx = ComputeCtx::staged_on(
            &mut *gmem,
            data_buf,
            layout,
            aux,
            first_lane + lane,
            first_thread + lane as u32,
            num_threads,
            trace,
        );
        kernel.process(&mut ctx, slices[lane].clone());
        bytes_read += ctx.stream_bytes_read;
        bytes_written += ctx.stream_bytes_written;
        any_writes |= ctx.primary_bytes_written > 0;
        aux_dirty |= ctx.aux_written_mask;
    });
    BlockComputed {
        comp_cost,
        bytes_read,
        bytes_written,
        writes_performed: Vec::new(),
        any_writes,
        aux_dirty,
    }
}

/// Secondary streams staged *whole* to device buffers up front — the
/// paper's "simply defaults to fetching all data" fallback extended to
/// every mapped stream. The overlap-only BigKernel path and the buffered
/// baselines both stage only a window of the primary stream, so each keeps
/// the other mapped streams resident this way: it charges
/// [`take_xfer`](Self::take_xfer) to its first non-empty chunk or window,
/// folds each block's written mask into [`dirty`](Self::dirty) and
/// [`flush`](Self::flush)es after the last one (unfused multi-pass apps
/// re-map the same regions in their next pass, so secondary writes must
/// land in host memory).
pub struct StagedAux {
    /// `(stream, whole-stream device buffer)`, in stream order.
    pub table: Vec<(StreamId, bk_gpu::BufferId)>,
    /// Union of the per-block written masks (bit = table index).
    pub dirty: u64,
    /// Staging h2d DMA time not yet charged.
    pending_xfer: SimTime,
}

impl StagedAux {
    /// Stage each of `secondary` whole to a fresh device buffer.
    pub fn stage(
        machine: &mut Machine,
        secondary: &[StreamArray],
        metrics: &mut MetricsRegistry,
    ) -> StagedAux {
        let mut aux = StagedAux {
            table: Vec::with_capacity(secondary.len()),
            dirty: 0,
            pending_xfer: SimTime::ZERO,
        };
        for s in secondary {
            let buf = machine.gmem.alloc(s.len().max(1));
            let src = machine.hmem.read(s.region, 0, s.len() as usize).to_vec();
            machine.gmem.dma_in(buf, 0, &src);
            metrics.add("pcie.h2d_bytes", s.len());
            aux.pending_xfer += machine
                .link
                .dma_time_with_flag(DmaDirection::HostToDevice, s.len());
            aux.table.push((s.id, buf));
        }
        aux
    }

    /// The staging transfer time on the first call, zero after.
    pub fn take_xfer(&mut self) -> SimTime {
        std::mem::replace(&mut self.pending_xfer, SimTime::ZERO)
    }

    /// Copy every dirty stream back to host memory and free every staged
    /// buffer. Returns each dirty stream's `(d2h DMA, host apply)` time, in
    /// stream order, for the caller to charge.
    pub fn flush(
        self,
        machine: &mut Machine,
        streams: &[StreamArray],
        metrics: &mut MetricsRegistry,
    ) -> Vec<(SimTime, SimTime)> {
        let mut flushed = Vec::new();
        for (i, (id, buf)) in self.table.iter().enumerate() {
            if self.dirty & (1u64 << i.min(63)) != 0 {
                let s = &streams[id.0 as usize];
                let bytes = machine.gmem.dma_out(*buf, 0, s.len() as usize);
                machine.hmem.write(s.region, 0, &bytes);
                metrics.add("pcie.d2h_bytes", s.len());
                flushed.push((
                    machine
                        .link
                        .dma_time_with_flag(DmaDirection::DeviceToHost, s.len()),
                    cpu::cpu_stage_time(&machine.cpu, &CpuCost::streaming(s.len(), 2, 1), 1),
                ));
            }
            machine.gmem.free(*buf);
        }
        flushed
    }
}

/// Ordered phase, stages 5–6 of the overlap-only variant: the staged chunk
/// was modified in place; copy each lane's own slice (not the halo) back.
#[allow(clippy::too_many_arguments)]
fn writeback_staged(
    machine: &mut Machine,
    streams: &[StreamArray],
    layout: &StagedLayout,
    data_buf: bk_gpu::BufferId,
    slices: &[Range<u64>],
    any_writes: bool,
    costs: &mut ChunkCosts,
    metrics: &mut MetricsRegistry,
) {
    if !any_writes {
        return;
    }
    let primary = &streams[0];
    let mut copied = 0u64;
    for (lane, sl) in slices.iter().enumerate() {
        if sl.is_empty() {
            continue;
        }
        let off_in_seg = layout.pos(lane, sl.start);
        let len = sl.end - sl.start;
        let bytes = machine.gmem.dma_out(data_buf, off_in_seg, len as usize);
        machine.hmem.write(primary.region, sl.start, &bytes);
        copied += len;
    }
    costs.wb_bytes += copied;
    metrics.add("pcie.d2h_bytes", copied);
    costs.wb.merge(&CpuCost::streaming(copied, 2, 1));
}

/// One chunk for `cells`, in the three phases of the block algorithm
/// ([`crate::pipeline`]'s module docs): `cfg.transfer_all` picks the staged
/// layout (overlap only), otherwise the assembled one (full BigKernel,
/// volume reduction).
///
/// Phase A prepares each block's chunk — address generation, §IV.A
/// detection and assembly, or the verbatim staging copy — and fans out over
/// the installed rayon pool (inline at width 1). B (DMA in) and C (kernel
/// body, write-back) are ordered: every block's kernel body runs live
/// against `machine.gmem` in block order, which is the sequential schedule
/// itself, so the pool width never changes the result. `aux` is the staged
/// chunks' whole-stream table ([`StagedAux`]); assembled chunks ignore it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_chunk(
    machine: &mut Machine,
    kernel: &dyn StreamKernel,
    streams: &[StreamArray],
    aux: &[(StreamId, bk_gpu::BufferId)],
    cells: &mut [WaveCell<'_>],
    launch: LaunchConfig,
    cfg: &BigKernelConfig,
    io: Option<&PassIo>,
    costs: &mut ChunkCosts,
    metrics: &mut MetricsRegistry,
) {
    let tpb = launch.threads_per_block;
    // Phase A (pure, on the pool): each block's chunk, from its own slot.
    {
        let shared: &Machine = machine;
        cells.par_iter_mut().for_each(|cell| {
            let WaveCell {
                slices, slot, work, ..
            } = cell;
            *work = Some(if cfg.transfer_all {
                Prepared::Staged(block_pure_staged(
                    shared,
                    kernel,
                    streams,
                    slices,
                    &mut slot.scratch.pool.arena,
                ))
            } else {
                Prepared::Assembled(block_pure_bigkernel(
                    shared, kernel, streams, slices, tpb, cfg, slot,
                ))
            });
        });
    }

    // Phase B (ordered): fold pure results; allocate + DMA in block order so
    // device addresses are schedule-independent.
    for cell in cells.iter_mut() {
        let arena = &cell.slot.scratch.pool.arena;
        match cell.work.as_ref().expect("phase A prepared every cell") {
            Prepared::Assembled(pure) => {
                fold_pure(pure, costs, metrics);
                let (db, wb) = stage_transfer(machine, pure, arena, io, costs, metrics);
                cell.data_buf = Some(db);
                cell.write_buf = wb;
            }
            Prepared::Staged(staged) => {
                cell.data_buf = Some(stage_transfer_staged(
                    machine, staged, arena, costs, metrics,
                ));
            }
        }
    }

    // Phase C (ordered): each block's kernel body runs live at its turn,
    // then host write-back + frees.
    for cell in cells.iter_mut() {
        let WaveCell {
            block,
            slices,
            slot,
            work,
            data_buf,
            write_buf,
        } = cell;
        let data_buf = data_buf.expect("phase B allocated every data buffer");
        let work = work.take().expect("phase A prepared every cell");
        match &work {
            Prepared::Assembled(pure) => {
                let done = compute_assembled(
                    &machine.devices[0],
                    &mut slot.sim,
                    &mut machine.gmem,
                    kernel,
                    slices,
                    pure,
                    data_buf,
                    *write_buf,
                    *block,
                    launch,
                );
                fold_computed(&done, costs, metrics);
                writeback_assembled(
                    machine,
                    streams,
                    pure,
                    *write_buf,
                    &done,
                    io,
                    &mut slot.llc,
                    costs,
                    metrics,
                );
            }
            Prepared::Staged(staged) => {
                let done = compute_staged(
                    &machine.devices[0],
                    &mut slot.sim,
                    &mut machine.gmem,
                    kernel,
                    &staged.layout,
                    data_buf,
                    aux,
                    slices,
                    0,
                    *block * tpb,
                    launch.total_threads(),
                );
                fold_computed(&done, costs, metrics);
                writeback_staged(
                    machine,
                    streams,
                    &staged.layout,
                    data_buf,
                    slices,
                    done.any_writes,
                    costs,
                    metrics,
                );
            }
        }
        machine.gmem.free(data_buf);
        if let Some(wb) = *write_buf {
            machine.gmem.free(wb);
        }
        // Chunk retired: its address streams, layouts and prefetch bytes go
        // back to the slot's pool for the next chunk.
        slot.recycle(work);
    }
}
