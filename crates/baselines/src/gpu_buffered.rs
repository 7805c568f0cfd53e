//! GPU single-buffer and double-buffer implementations (paper §VI (iii)/(iv)).
//!
//! The classical scheme the paper improves on: the CPU copies the next chunk
//! of the mapped array into a pinned staging buffer, DMAs it to a device
//! buffer, and (re-)invokes the kernel on that chunk:
//!
//! * **single buffer** — one buffer, so staging, transfer and computation
//!   fully serialize;
//! * **double buffer** — two buffers, so chunk `n+1`'s staging/transfer
//!   overlaps chunk `n`'s computation (the state of the art BigKernel is
//!   measured against).
//!
//! Both pay a kernel-launch overhead per chunk — BigKernel's single big
//! kernel was explicitly motivated by avoiding this re-invocation and the
//! attendant loss of kernel context (§I).
//!
//! Chunks are contiguous windows of the stream; data stays in its original
//! record layout, so strided field accesses stay uncoalesced — the warp
//! traces measure that directly.
//!
//! ## Granule simulation
//!
//! The simulation of one window is split into per-block granules of
//! `threads_per_block` lanes, and each granule runs BigKernel's own staged
//! lane loop ([`bk_runtime::compute_staged`]) live against device memory,
//! in granule order — the order of one plain kernel launch per window.
//! A buffered window is staged whole, with no address generation, so its
//! granules have no pure phase to run on the host pool, and a run's result
//! does not depend on the host thread count.

use bk_gpu::occupancy::{self, BlockResources};
use bk_gpu::{BlockSim, GpuPool, KernelCost};
use bk_host::{cpu, CpuCost, DmaDirection};
use bk_runtime::compute_staged;
use bk_runtime::graph::{buffered_graph, serial_graph, Executor};
use bk_runtime::kernel::{chunk_slice, partition_ranges, LaunchConfig};
use bk_runtime::layout::StagedLayout;
use bk_runtime::result::finalize_stage_stats;
use bk_runtime::MetricsRegistry;
use bk_runtime::{Machine, RunResult, StagedAux, StreamArray, StreamKernel};
use bk_simcore::SimTime;

/// Configuration of the buffered baselines.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// Bytes staged per chunk window.
    pub window_bytes: u64,
    /// Cost of one kernel invocation (driver + launch + context setup).
    pub kernel_launch_overhead: SimTime,
    /// Ignored: granules always run live in granule order; delete with the
    /// next benchmark change.
    pub parallel_blocks: bool,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            window_bytes: 4 << 20,
            kernel_launch_overhead: SimTime::from_micros(8.0),
            parallel_blocks: true,
        }
    }
}

/// Stage names for the buffered baselines.
pub const BASELINE_STAGES: [&str; 5] = ["stage-pin", "transfer", "compute", "wb-xfer", "wb-apply"];

/// Single-buffer implementation: fully serialized chunks.
pub fn run_gpu_single_buffer(
    machine: &mut Machine,
    kernel: &dyn StreamKernel,
    streams: &[StreamArray],
    launch: LaunchConfig,
    cfg: &BaselineConfig,
) -> RunResult {
    run_buffered(
        machine,
        kernel,
        streams,
        launch,
        cfg,
        1,
        "gpu-single-buffer",
    )
}

/// Double-buffer implementation: staging/transfer of chunk n+1 overlaps
/// computation of chunk n.
pub fn run_gpu_double_buffer(
    machine: &mut Machine,
    kernel: &dyn StreamKernel,
    streams: &[StreamArray],
    launch: LaunchConfig,
    cfg: &BaselineConfig,
) -> RunResult {
    run_buffered(
        machine,
        kernel,
        streams,
        launch,
        cfg,
        2,
        "gpu-double-buffer",
    )
}

fn run_buffered(
    machine: &mut Machine,
    kernel: &dyn StreamKernel,
    streams: &[StreamArray],
    launch: LaunchConfig,
    cfg: &BaselineConfig,
    buffers: usize,
    name: &'static str,
) -> RunResult {
    assert!(!streams.is_empty(), "need at least one mapped stream");
    let primary = &streams[0];
    let rec = kernel.record_size();
    let halo = kernel.halo_bytes();
    let total_threads = launch.total_threads();
    let tpb = launch.threads_per_block as usize;

    let res = kernel.resources();
    let block_res = BlockResources {
        threads_per_block: res.threads_per_block.max(launch.threads_per_block),
        ..res
    };
    let occ = occupancy::compute(machine.gpu(), &block_res, launch.num_blocks);
    let occ_factor = occ.thread_occupancy(machine.gpu(), &block_res).max(0.125);
    let pool = GpuPool::new(machine.gpu().clone(), 1.0, occ_factor);

    let full = 0..primary.len();
    let num_windows = (primary.len().div_ceil(cfg.window_bytes)).max(1) as usize;
    let num_granules = launch.num_blocks.max(1) as usize;

    let mut metrics = MetricsRegistry::new();
    let mut durations: Vec<Vec<SimTime>> = Vec::with_capacity(num_windows);
    // Every granule's warp state is scratch, so one simulator serves all.
    let mut sim = BlockSim::new();
    let mut any_writes_at_all = false;

    // A traditional buffered implementation needs a whole resident copy of
    // every secondary mapped array (the staging window holds the primary
    // stream only). Stage them up front; the transfer cost lands on the
    // first window, and dirty aux streams copy back after the last.
    let mut aux = StagedAux::stage(machine, &streams[1..], &mut metrics);

    for w in 0..num_windows {
        let window = chunk_slice(&full, w, num_windows, rec);
        if window.is_empty() {
            durations.push(vec![SimTime::ZERO; 5]);
            continue;
        }
        let layout =
            StagedLayout::build_window(window.clone(), halo, primary.len(), total_threads as usize);
        let staged_len = layout.total_len;
        let data_buf = machine.gmem.alloc(staged_len.max(1));
        {
            let src = machine
                .hmem
                .read(primary.region, window.start, staged_len as usize)
                .to_vec();
            machine.gmem.dma_in(data_buf, 0, &src);
        }

        // Stage 1: pin-copy on the CPU (read + write per byte).
        let stage_cost = CpuCost::streaming(staged_len, 2, 1);
        let t_stage = cpu::cpu_stage_time(&machine.cpu, &stage_cost, 1);
        // Stage 2: DMA (plus the one-time aux staging on the first window).
        let t_xfer = machine
            .link
            .dma_time_with_flag(DmaDirection::HostToDevice, staged_len)
            + aux.take_xfer();
        metrics.add("pcie.h2d_bytes", staged_len);

        // Stage 3: kernel over the window (original layout), one granule of
        // tpb lanes per launched block.
        let mut ranges = partition_ranges(window.end - window.start, total_threads, rec);
        for r in &mut ranges {
            *r = window.start + r.start..window.start + r.end;
        }
        let mut comp_cost = KernelCost::new();
        let mut any_writes = false;
        for granule in 0..num_granules {
            let first_lane = granule * tpb;
            let computed = compute_staged(
                &machine.devices[0],
                &mut sim,
                &mut machine.gmem,
                kernel,
                &layout,
                data_buf,
                &aux.table,
                &ranges[first_lane..first_lane + tpb],
                first_lane,
                first_lane as u32,
                total_threads,
            );
            comp_cost.merge(&computed.comp_cost);
            metrics.add("stream.bytes_read", computed.bytes_read);
            metrics.add("stream.bytes_written", computed.bytes_written);
            any_writes |= computed.any_writes;
            aux.dirty |= computed.aux_dirty;
        }
        let t_comp = pool.stage_time(&comp_cost) + cfg.kernel_launch_overhead;
        metrics.add("gpu.mem_transactions", comp_cost.mem_transactions);
        metrics.add("gpu.comp_mem_bytes_moved", comp_cost.mem_bytes_moved);
        metrics.add("gpu.comp_mem_bytes_useful", comp_cost.mem_bytes_useful);
        metrics.add("gpu.comp_issue_slots", comp_cost.issue_slots);
        metrics.add("gpu.comp_atomics", comp_cost.atomic_ops);
        metrics.add("gpu.comp_hot_atomic_chain", comp_cost.hot_atomic_max());

        // Stages 4–5: copy the (possibly modified) window back.
        let (mut t_wbx, mut t_wba) = (SimTime::ZERO, SimTime::ZERO);
        if any_writes {
            any_writes_at_all = true;
            let wlen = window.end - window.start;
            let bytes = machine.gmem.dma_out(data_buf, 0, wlen as usize);
            machine.hmem.write(primary.region, window.start, &bytes);
            t_wbx = machine
                .link
                .dma_time_with_flag(DmaDirection::DeviceToHost, wlen);
            t_wba = cpu::cpu_stage_time(&machine.cpu, &CpuCost::streaming(wlen, 2, 1), 1);
            metrics.add("pcie.d2h_bytes", wlen);
        }

        machine.gmem.free(data_buf);
        durations.push(vec![t_stage, t_xfer, t_comp, t_wbx, t_wba]);
    }

    // Copy dirty aux streams back once, after the last window.
    let (mut t_aux_wbx, mut t_aux_wba) = (SimTime::ZERO, SimTime::ZERO);
    for (xfer, apply) in aux.flush(machine, streams, &mut metrics) {
        t_aux_wbx += xfer;
        t_aux_wba += apply;
        any_writes_at_all = true;
    }
    if t_aux_wbx > SimTime::ZERO {
        if let Some(last) = durations.last_mut() {
            last[3] += t_aux_wbx;
            last[4] += t_aux_wba;
        }
    }

    // The schedule is a stage-graph configuration: a fully serialized chain
    // for the single buffer, and for the double buffer the software-pipelined
    // graph with `buffers`-deep reuse edges (device-buffer reuse: transfer n
    // waits for compute n-buffers; pinned staging-buffer reuse: stage n
    // waits for transfer n-buffers). Write-back apply runs on its own host
    // thread; only the DMA engine is a genuinely shared single resource. The
    // executor deals windows across the machine's simulated GPUs.
    let spec = if buffers <= 1 {
        serial_graph(&BASELINE_STAGES)
    } else {
        buffered_graph(machine.gpu().copy_engines as usize, buffers)
    };
    let executor = Executor::new(spec, machine.num_gpus());
    let sharded = executor.run(&durations);

    // Observability: spans on the baseline's resource tracks (collected only
    // while a trace guard is live), span-duration histograms,
    // stall.<stage>.<cause> totals and device.<d>.* counters. One schedule
    // covers the whole run, so chunk/time bases are zero.
    sharded.record(0, SimTime::ZERO, &mut metrics);

    metrics.add("run.windows", num_windows as u64);
    metrics.add("run.devices", machine.num_gpus() as u64);
    if any_writes_at_all {
        metrics.incr("run.modified_mapped_data");
    }
    let mut stages = Vec::new();
    sharded.accumulate(&mut stages);
    finalize_stage_stats(&mut stages, num_windows);

    RunResult {
        implementation: name,
        total: sharded.makespan(),
        stages,
        metrics,
        chunks: num_windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bk_runtime::ctx::AddrGenCtx;
    use bk_runtime::{KernelCtx, StreamId};
    use std::ops::Range;

    struct SumKernel {
        acc: bk_gpu::BufferId,
    }

    impl StreamKernel for SumKernel {
        fn name(&self) -> &'static str {
            "sum"
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
                off += 8;
            }
            if !range.is_empty() {
                ctx.dev_atomic_add_u64(self.acc, 0, sum);
            }
        }
    }

    struct ScaleKernel;

    impl StreamKernel for ScaleKernel {
        fn name(&self) -> &'static str {
            "scale"
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
                let a = ctx.stream_read(StreamId(0), off, 4) as u32;
                ctx.stream_write(StreamId(0), off + 4, 4, a.wrapping_mul(2) as u64);
                off += 8;
            }
        }
    }

    /// Reads both streams per record, writes the sum back to stream 1 —
    /// exercises aux staging of a whole secondary stream.
    struct TwoStreamKernel;

    impl StreamKernel for TwoStreamKernel {
        fn name(&self) -> &'static str {
            "two-stream"
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
                ctx.stream_write(StreamId(1), off, 8, a.wrapping_add(b));
                off += 8;
            }
        }
    }

    /// Hands out sequence slots by consuming `atomic_add` return values, so
    /// its tickets show the order granules and lanes run in.
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

    fn setup(n: u64) -> (Machine, Vec<StreamArray>, u64) {
        let mut m = Machine::test_platform();
        let r = m.hmem.alloc(n * 8);
        let mut expected = 0u64;
        for i in 0..n {
            m.hmem.write_u64(r, i * 8, i * 5 + 2);
            expected = expected.wrapping_add(i * 5 + 2);
        }
        let s = vec![StreamArray::map(&m, StreamId(0), r)];
        (m, s, expected)
    }

    fn small_cfg() -> BaselineConfig {
        BaselineConfig {
            window_bytes: 4096,
            ..BaselineConfig::default()
        }
    }

    #[test]
    fn single_buffer_functional() {
        let (mut m, streams, expected) = setup(4096);
        let acc = m.gmem.alloc(8);
        let r = run_gpu_single_buffer(
            &mut m,
            &SumKernel { acc },
            &streams,
            LaunchConfig::new(2, 32),
            &small_cfg(),
        );
        assert_eq!(m.gmem.read_u64(acc, 0), expected);
        assert!(r.chunks > 1);
        assert!(r.metrics.get("pcie.h2d_bytes") >= 4096 * 8);
    }

    #[test]
    fn double_buffer_functional_and_faster() {
        let (mut m1, s1, expected) = setup(8192);
        let acc1 = m1.gmem.alloc(8);
        let single = run_gpu_single_buffer(
            &mut m1,
            &SumKernel { acc: acc1 },
            &s1,
            LaunchConfig::new(2, 32),
            &small_cfg(),
        );
        assert_eq!(m1.gmem.read_u64(acc1, 0), expected);
        let (mut m2, s2, _) = setup(8192);
        let acc2 = m2.gmem.alloc(8);
        let double = run_gpu_double_buffer(
            &mut m2,
            &SumKernel { acc: acc2 },
            &s2,
            LaunchConfig::new(2, 32),
            &small_cfg(),
        );
        assert_eq!(m2.gmem.read_u64(acc2, 0), expected);
        assert!(
            double.total < single.total,
            "double {} !< single {}",
            double.total,
            single.total
        );
    }

    #[test]
    fn writes_are_copied_back() {
        let mut m = Machine::test_platform();
        let r = m.hmem.alloc(2048 * 8);
        for i in 0..2048u64 {
            m.hmem.write_u32(r, i * 8, i as u32);
        }
        let streams = vec![StreamArray::map(&m, StreamId(0), r)];
        let res = run_gpu_double_buffer(
            &mut m,
            &ScaleKernel,
            &streams,
            LaunchConfig::new(1, 32),
            &small_cfg(),
        );
        for i in 0..2048u64 {
            assert_eq!(m.hmem.read_u32(r, i * 8 + 4), (i as u32).wrapping_mul(2));
        }
        assert!(res.metrics.get("pcie.d2h_bytes") >= 2048 * 8);
        assert!(res.stage_busy("wb-xfer") > SimTime::ZERO);
    }

    #[test]
    fn secondary_streams_are_aux_staged() {
        let mut m = Machine::test_platform();
        let n = 2048u64;
        let r0 = m.hmem.alloc(n * 8);
        let r1 = m.hmem.alloc(n * 8);
        for i in 0..n {
            m.hmem.write_u64(r0, i * 8, i * 3);
            m.hmem.write_u64(r1, i * 8, 1000 + i);
        }
        let streams = vec![
            StreamArray::map(&m, StreamId(0), r0),
            StreamArray::map(&m, StreamId(1), r1),
        ];
        let res = run_gpu_double_buffer(
            &mut m,
            &TwoStreamKernel,
            &streams,
            LaunchConfig::new(2, 32),
            &small_cfg(),
        );
        for i in 0..n {
            assert_eq!(m.hmem.read_u64(r1, i * 8), i * 3 + 1000 + i);
        }
        // Aux stream rides PCIe once each way; the primary stream was never
        // written, so no window copies back.
        assert!(res.metrics.get("pcie.h2d_bytes") >= 2 * n * 8);
        assert_eq!(res.metrics.get("pcie.d2h_bytes"), n * 8);
    }

    #[test]
    fn launch_overhead_counts_per_window() {
        let (mut m1, s1, _) = setup(8192);
        let acc1 = m1.gmem.alloc(8);
        let cheap = BaselineConfig {
            window_bytes: 4096,
            kernel_launch_overhead: SimTime::ZERO,
            ..BaselineConfig::default()
        };
        let r_cheap = run_gpu_single_buffer(
            &mut m1,
            &SumKernel { acc: acc1 },
            &s1,
            LaunchConfig::new(1, 32),
            &cheap,
        );
        let (mut m2, s2, _) = setup(8192);
        let acc2 = m2.gmem.alloc(8);
        let costly = BaselineConfig {
            window_bytes: 4096,
            kernel_launch_overhead: SimTime::from_micros(100.0),
            ..BaselineConfig::default()
        };
        let r_costly = run_gpu_single_buffer(
            &mut m2,
            &SumKernel { acc: acc2 },
            &s2,
            LaunchConfig::new(1, 32),
            &costly,
        );
        let windows = r_cheap.metrics.get("run.windows") as f64;
        let diff = r_costly.total.secs() - r_cheap.total.secs();
        assert!((diff - windows * 100e-6).abs() < 1e-6, "diff {diff}");
    }

    #[test]
    fn sequential_kernels_issue_tickets_in_granule_then_lane_order() {
        // 128 one-record lanes' worth of data in two 512 B windows, each run
        // by 2 granules of 32 lanes.
        for buffers in [1, 2] {
            let mut m = Machine::test_platform();
            let region = m.hmem.alloc(128 * 8);
            let s = vec![StreamArray::map(&m, StreamId(0), region)];
            let table = m.gmem.alloc(8 + 4 * 128);
            let cfg = BaselineConfig {
                window_bytes: 512,
                ..BaselineConfig::default()
            };
            let kernel = TicketKernel { table };
            let launch = LaunchConfig::new(2, 32);
            let r = if buffers == 1 {
                run_gpu_single_buffer(&mut m, &kernel, &s, launch, &cfg)
            } else {
                run_gpu_double_buffer(&mut m, &kernel, &s, launch, &cfg)
            };
            assert_eq!(r.metrics.get("run.windows"), 2);
            assert_eq!(m.gmem.read_u32(table, 0), 128);
            // Window by window, tickets go to granule 0's lanes, then
            // granule 1's: thread ids 1..=64 in order, twice.
            for i in 0..128 {
                let v = m.gmem.read_u32(table, 8 + 4 * i);
                assert_eq!(v, (i % 64) as u32 + 1, "{buffers}-buffer slot {i}");
            }
        }
    }
}
