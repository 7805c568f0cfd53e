//! Data assembly (pipeline stage 2) with the §IV.B locality optimization.
//!
//! A dedicated CPU thread per thread block walks the address buffer and
//! gathers the addressed bytes from the mapped host array into a pinned
//! prefetch buffer, laid out per [`crate::layout::ChunkLayout`].
//!
//! Cost accounting follows the paper's "two reads and two writes per
//! element" analysis (§III): the GPU first DMAs the address into CPU memory
//! (one write), the CPU reads the address (one read), reads the target data
//! (second read — this one goes through the simulated LLC because locality
//! matters here), and writes it to the pinned buffer (second write,
//! streaming). Pattern-compressed streams skip the address write+read
//! almost entirely.
//!
//! §IV.B: when a pattern is available, the gather reads *all of one GPU
//! thread's data at a time* (each GPU thread reads consecutive data, so the
//! CPU walk is near-sequential) instead of in GPU access order (which
//! interleaves distant regions of the source array across lanes). The
//! destination writes stay in access order either way — the paper found
//! read cost dominates write cost.
//!
//! Two raw-speed refinements ride on that order (both bit-identical to a
//! per-entry gather, property-tested below):
//!
//! * **Vectorized runs** — a contiguous uniform-width run (width 1, 2, 4 or
//!   8) at or above [`SIMD_MIN_RUN_BYTES`] is gathered as one bulk source
//!   read scattered into its destination slots with width-monomorphized
//!   copies; shorter or mixed-width runs take the per-element scalar path.
//! * **Cache blocking** — exactly when a warp's gather footprint exceeds
//!   the simulated LLC's capacity, the per-lane walk is tiled over step
//!   ranges so each tile's source range stays resident before the walk
//!   advances.
//!
//! The prefetch buffer itself lives in the pool's [`bk_host::PinnedArena`]:
//! assembly bumps a window per chunk and the pipeline wholesale-resets the
//! arena when the chunk's buffers are recycled, so steady-state assembly
//! performs zero heap allocations.

use crate::addr::{AddrStream, LaneAddrs, Run};
use crate::config::AssemblyLayout;
use crate::layout::{ChunkLayout, WarpRegion};
use crate::pool::StreamPool;
use crate::stream::StreamArray;
use bk_gpu::WARP_SIZE;
use bk_host::{ArenaRef, CacheSim, CpuCost, HostMemory};
use bk_obs::Histogram;

/// Instructions charged per assembled element (address decode, bounds math,
/// load, store).
const INSTRS_PER_ELEMENT: u64 = 4;
/// Block-copy gather rate for contiguous pattern runs: one instruction per
/// this many bytes (vectorized copy), plus a fixed per-run cost.
const RUN_BYTES_PER_INSTR: u64 = 16;
const INSTRS_PER_RUN: u64 = 3;

/// Minimum contiguous run length (bytes) for the vectorized gather fast
/// path. Below this the fixed cost of the bulk source read and the width
/// dispatch outweighs the copy savings, so short runs keep the scalar
/// per-element path.
pub const SIMD_MIN_RUN_BYTES: u64 = 32;

/// How [`assemble`] should gather: destination layout plus the §IV.B read
/// order. The vectorized-run path and cache blocking need no setting: the
/// run geometry and the warp footprint against the LLC decide them.
#[derive(Clone, Copy, Debug)]
pub struct GatherConfig {
    /// Destination chunk-buffer layout.
    pub layout: AssemblyLayout,
    /// §IV.B per-GPU-thread read order when every lane is compressed.
    pub locality: bool,
}

impl GatherConfig {
    /// Extract the gather settings from a full runtime configuration.
    pub fn from_config(cfg: &crate::config::BigKernelConfig) -> Self {
        GatherConfig {
            layout: cfg.layout,
            locality: cfg.locality_assembly,
        }
    }
}

/// Charge the cost of one contiguous gather run.
fn flush_run(
    cost: &mut CpuCost,
    cache: &mut CacheSim,
    hmem: &HostMemory,
    streams: &[StreamArray],
    stream: u32,
    start: u64,
    len: u64,
) {
    let arr = &streams[stream as usize];
    let (h, m) = cache.access_range(hmem.vaddr(arr.region, start), len);
    cost.cache_hits += h;
    cost.cache_misses += m;
    cost.dram_bytes += m * cache.line_bytes();
    cost.instructions += INSTRS_PER_RUN + len / RUN_BYTES_PER_INSTR;
}

/// Scatter a bulk-read run back into interleaved destination slots, one
/// `W`-byte fixed-size copy per element (monomorphized so each width
/// compiles to a single move).
fn scatter_run<const W: usize>(
    buf: &mut [u8],
    region: &WarpRegion,
    lane: usize,
    first: usize,
    count: usize,
    src: &[u8],
) {
    for i in 0..count {
        let (dest, _) = region.slot(lane, first + i);
        let d = dest as usize;
        buf[d..d + W].copy_from_slice(&src[i * W..(i + 1) * W]);
    }
}

/// Per-chunk gather statistics surfaced on [`AssemblyOutput`].
#[derive(Default)]
struct RunStats {
    simd_runs: u64,
    scalar_runs: u64,
    gathered: u64,
    run_bytes: Histogram,
}

/// Shared context for the run-granular gather paths.
struct RunGather<'a> {
    hmem: &'a HostMemory,
    streams: &'a [StreamArray],
    cost: &'a mut CpuCost,
    cache: &'a mut CacheSim,
    stats: &'a mut RunStats,
}

impl RunGather<'_> {
    /// Gather one contiguous run into a lane's interleaved slots:
    /// vectorized when the run is long and uniform-width, per-element
    /// otherwise. Cost is charged per run either way, so the dispatch is
    /// invisible to the simulated timeline.
    fn gather_run(
        &mut self,
        buf: &mut [u8],
        region: &WarpRegion,
        lane: usize,
        stream: &AddrStream,
        run: &Run,
    ) {
        self.stats.run_bytes.observe(run.len);
        let arr = &self.streams[run.stream.0 as usize];
        if run.len >= SIMD_MIN_RUN_BYTES && matches!(run.width, 1 | 2 | 4 | 8) {
            let src = self.hmem.read(arr.region, run.start, run.len as usize);
            match run.width {
                1 => scatter_run::<1>(buf, region, lane, run.first, run.count, src),
                2 => scatter_run::<2>(buf, region, lane, run.first, run.count, src),
                4 => scatter_run::<4>(buf, region, lane, run.first, run.count, src),
                _ => scatter_run::<8>(buf, region, lane, run.first, run.count, src),
            }
            self.stats.simd_runs += 1;
        } else if run.width != 0 {
            // Uniform-width run below the SIMD threshold: the element
            // offsets are `start + i*width` by construction, so skip the
            // per-element stream decode and read the source once.
            let src = self.hmem.read(arr.region, run.start, run.len as usize);
            let w = run.width as usize;
            for i in 0..run.count {
                let (dest, _) = region.slot(lane, run.first + i);
                buf[dest as usize..dest as usize + w].copy_from_slice(&src[i * w..(i + 1) * w]);
            }
            self.stats.scalar_runs += 1;
        } else {
            // Mixed widths: per-element decode is unavoidable.
            for k in run.first..run.first + run.count {
                let e = stream.entry(k);
                let (dest, _) = region.slot(lane, k);
                let src = self.hmem.read(arr.region, e.offset, e.width as usize);
                buf[dest as usize..dest as usize + e.width as usize].copy_from_slice(src);
            }
            self.stats.scalar_runs += 1;
        }
        self.stats.gathered += run.len;
        flush_run(
            self.cost,
            self.cache,
            self.hmem,
            self.streams,
            run.stream.0,
            run.start,
            run.len,
        );
    }

    /// Gather one lane's entries in step range `k0..k1`, merging contiguous
    /// entries into runs exactly like [`AddrStream::runs`] does over the
    /// whole stream. This is the cache-blocked walk: runs are clipped at
    /// tile boundaries, which changes the cost sequence (that is the point)
    /// but never the gathered bytes.
    fn gather_steps(
        &mut self,
        buf: &mut [u8],
        region: &WarpRegion,
        lane: usize,
        stream: &AddrStream,
        k0: usize,
        k1: usize,
    ) {
        let mut pending: Option<Run> = None;
        for k in k0..k1 {
            let e = stream.entry(k);
            match &mut pending {
                Some(r) if r.stream == e.stream && e.offset == r.start + r.len => {
                    r.len += e.width as u64;
                    r.count += 1;
                    if e.width != r.width {
                        r.width = 0;
                    }
                }
                p => {
                    if let Some(done) = p.replace(Run::seed(e, k)) {
                        self.gather_run(buf, region, lane, stream, &done);
                    }
                }
            }
        }
        if let Some(done) = pending.take() {
            self.gather_run(buf, region, lane, stream, &done);
        }
    }
}

/// Output of assembling one block's chunk.
pub struct AssemblyOutput {
    /// Read-side layout (what the compute stage consumes).
    pub layout: ChunkLayout,
    /// Write-side layout (geometry of the GPU write-value buffer), present
    /// when any lane emits writes.
    pub write_layout: Option<ChunkLayout>,
    /// The pinned prefetch-buffer contents: a generation-tagged window into
    /// the pool's arena, valid until the chunk's buffers are recycled.
    pub bytes: ArenaRef,
    /// CPU cost of the gather.
    pub cost: CpuCost,
    /// Useful data bytes gathered.
    pub gathered_bytes: u64,
    /// Padding bytes in the buffer (interleaved-layout raggedness).
    pub padding_bytes: u64,
    /// Whether the §IV.B per-lane read order was actually used.
    pub locality_order_used: bool,
    /// Warps gathered with the cache-blocked (tiled) walk.
    pub cache_blocked_warps: u64,
    /// Contiguous runs gathered via the vectorized fast path.
    pub simd_runs: u64,
    /// Contiguous runs gathered per element (short or mixed-width).
    pub scalar_runs: u64,
    /// Distribution of contiguous gather-run lengths (bytes).
    pub run_bytes: Histogram,
}

/// Assemble one block's chunk.
///
/// `lanes[i]` are the address streams of lane `i`; `streams` maps
/// `StreamId(i)` → `streams[i]`. Layout vectors are drawn from `pool` (and
/// return to it when the chunk's [`AssemblyOutput`] is recycled via
/// [`StreamPool::give_output`]); the prefetch bytes are bump-allocated from
/// the pool's arena and recycled by the arena reset when the block slot is
/// recycled. Steady-state assembly therefore performs no heap allocation.
pub fn assemble(
    hmem: &HostMemory,
    streams: &[StreamArray],
    lanes: &[LaneAddrs],
    gcfg: GatherConfig,
    cache: &mut CacheSim,
    pool: &mut StreamPool,
) -> AssemblyOutput {
    let (layout, padding) = match gcfg.layout {
        AssemblyLayout::Interleaved => {
            let l = pool.build_interleaved(lanes, |l| &l.reads);
            let p = match &l {
                ChunkLayout::Interleaved { padding, .. } => *padding,
                _ => unreachable!(),
            };
            (l, p)
        }
        AssemblyLayout::PerLane => (pool.build_per_lane(lanes, |l| &l.reads), 0),
    };

    let bytes_ref = pool.arena.alloc_zeroed(layout.total_len() as usize);
    let mut cost = CpuCost::new();
    let mut stats = RunStats::default();
    let mut cache_blocked_warps = 0u64;

    // §IV.B applies when every non-empty lane has a pattern: the per-lane
    // walk needs the pattern to know the addresses without scanning the raw
    // buffer in access order.
    let all_patterned = lanes
        .iter()
        .filter(|l| !l.reads.is_empty())
        .all(|l| l.reads.is_compressed());
    let use_locality_order = gcfg.locality && all_patterned;

    {
        let bytes = pool.arena.bytes_mut(&bytes_ref);

        let gather_one = |cost: &mut CpuCost,
                          cache: &mut CacheSim,
                          bytes: &mut [u8],
                          gathered: &mut u64,
                          lane: usize,
                          k: usize,
                          dest: u64| {
            let e = lanes[lane].reads.entry(k);
            let arr = &streams[e.stream.0 as usize];
            let src = hmem.read(arr.region, e.offset, e.width as usize);
            bytes[dest as usize..dest as usize + e.width as usize].copy_from_slice(src);
            let (h, m) = cache.access_range(hmem.vaddr(arr.region, e.offset), e.width as u64);
            cost.cache_hits += h;
            cost.cache_misses += m;
            cost.dram_bytes += m * cache.line_bytes();
            *gathered += e.width as u64;
        };

        match (&layout, use_locality_order) {
            // Per-lane (locality) order: lane-major walk within each warp.
            // Contiguous source runs (the common case under a stride
            // pattern — byte scans, record walks) are gathered as block
            // copies: the cache is probed per line, not per element, and
            // the instruction cost is per run. This is what makes
            // pattern-driven assembly cheap for byte-granular data
            // (Table II). Warps whose gather footprint overflows the LLC
            // are tiled over step ranges (§IV.B blocking).
            (ChunkLayout::Interleaved { warps, .. }, true) => {
                let mut rg = RunGather {
                    hmem,
                    streams,
                    cost: &mut cost,
                    cache,
                    stats: &mut stats,
                };
                for (region, warp_lanes) in warps.iter().zip(lanes.chunks(WARP_SIZE)) {
                    let footprint: u64 = warp_lanes.iter().map(|l| l.reads.data_bytes()).sum();
                    let steps = region.step_off.len();
                    if footprint > rg.cache.capacity_bytes() && steps > 0 {
                        cache_blocked_warps += 1;
                        // Tile so one tile's source bytes stay within half
                        // the LLC (the other half absorbs destination and
                        // address traffic).
                        let per_step = footprint.div_ceil(steps as u64);
                        let tile = ((rg.cache.capacity_bytes() / 2) / per_step).max(1) as usize;
                        let mut k0 = 0;
                        while k0 < steps {
                            let k1 = (k0 + tile).min(steps);
                            for (li, l) in warp_lanes.iter().enumerate() {
                                let n = l.reads.len();
                                let (a, b) = (k0.min(n), k1.min(n));
                                if a < b {
                                    rg.gather_steps(bytes, region, li, &l.reads, a, b);
                                }
                            }
                            k0 = k1;
                        }
                    } else {
                        for (li, l) in warp_lanes.iter().enumerate() {
                            for run in l.reads.runs() {
                                rg.gather_run(bytes, region, li, &l.reads, &run);
                            }
                        }
                    }
                }
            }
            // Access order: step-major walk per warp.
            (ChunkLayout::Interleaved { warps, .. }, false) => {
                for (w, region) in warps.iter().enumerate() {
                    let lanes_here = &lanes[w * WARP_SIZE..((w + 1) * WARP_SIZE).min(lanes.len())];
                    for k in 0..region.step_off.len() {
                        for (li, l) in lanes_here.iter().enumerate() {
                            if k < l.reads.len() {
                                let (dest, _) = region.slot(li, k);
                                gather_one(
                                    &mut cost,
                                    cache,
                                    bytes,
                                    &mut stats.gathered,
                                    w * WARP_SIZE + li,
                                    k,
                                    dest,
                                );
                            }
                        }
                    }
                }
                cost.instructions +=
                    lanes.iter().map(|l| l.reads.len() as u64).sum::<u64>() * INSTRS_PER_ELEMENT;
            }
            // PerLane destination layout is inherently lane-major; pattern
            // lanes gather as contiguous runs (source and destination are
            // both contiguous, so each run is one bulk copy and one cost
            // flush), raw lanes pay per element (each raw address must be
            // decoded).
            (ChunkLayout::PerLane { lane_base, .. }, _) => {
                for (lane, l) in lanes.iter().enumerate() {
                    let mut dest = lane_base[lane];
                    if l.reads.is_compressed() {
                        for run in l.reads.runs() {
                            let arr = &streams[run.stream.0 as usize];
                            let src = hmem.read(arr.region, run.start, run.len as usize);
                            bytes[dest as usize..dest as usize + run.len as usize]
                                .copy_from_slice(src);
                            dest += run.len;
                            stats.gathered += run.len;
                            stats.run_bytes.observe(run.len);
                            flush_run(
                                &mut cost,
                                cache,
                                hmem,
                                streams,
                                run.stream.0,
                                run.start,
                                run.len,
                            );
                        }
                    } else {
                        for k in 0..l.reads.len() {
                            let w = l.reads.entry(k).width as u64;
                            gather_one(&mut cost, cache, bytes, &mut stats.gathered, lane, k, dest);
                            dest += w;
                        }
                        cost.instructions += l.reads.len() as u64 * INSTRS_PER_ELEMENT;
                    }
                }
            }
        }
    }

    // Address-buffer traffic: raw streams are written by the GPU's
    // zero-copy stores (one DRAM write) and scanned by the assembler (one
    // DRAM read); patterns are a few dozen bytes.
    let addr_bytes: u64 = lanes.iter().map(|l| l.reads.encoded_bytes()).sum();
    cost.dram_bytes += 2 * addr_bytes;
    // Streaming stores into the pinned prefetch buffer.
    cost.dram_bytes += layout.total_len();

    // Write-side geometry (no data movement here; values arrive in stage 4).
    let has_writes = lanes.iter().any(|l| !l.writes.is_empty());
    let write_layout = has_writes.then(|| match gcfg.layout {
        AssemblyLayout::Interleaved => pool.build_interleaved(lanes, |l| &l.writes),
        AssemblyLayout::PerLane => pool.build_per_lane(lanes, |l| &l.writes),
    });

    AssemblyOutput {
        layout,
        write_layout,
        bytes: bytes_ref,
        cost,
        gathered_bytes: stats.gathered,
        padding_bytes: padding,
        locality_order_used: use_locality_order,
        cache_blocked_warps,
        simd_runs: stats.simd_runs,
        scalar_runs: stats.scalar_runs,
        run_bytes: stats.run_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{AddrEntry, AddrStream};
    use crate::machine::Machine;
    use crate::pattern;
    use crate::stream::{StreamArray, StreamId};
    use proptest::prelude::*;

    fn setup(data: &[u8]) -> (Machine, Vec<StreamArray>) {
        let mut m = Machine::test_platform();
        let r = m.hmem.alloc_from(data);
        let s = StreamArray::map(&m, StreamId(0), r);
        (m, vec![s])
    }

    fn raw_lane(entries: Vec<(u64, u32)>) -> LaneAddrs {
        LaneAddrs {
            reads: AddrStream::Raw(
                entries
                    .into_iter()
                    .map(|(o, w)| AddrEntry {
                        stream: StreamId(0),
                        offset: o,
                        width: w,
                    })
                    .collect(),
            ),
            writes: AddrStream::Raw(Vec::new()),
        }
    }

    fn cfg(layout: AssemblyLayout, locality: bool) -> GatherConfig {
        GatherConfig { layout, locality }
    }

    #[test]
    fn gather_places_bytes_at_slots() {
        let data: Vec<u8> = (0..=255).collect();
        let (m, streams) = setup(&data);
        let lanes = vec![raw_lane(vec![(10, 4), (200, 2)])];
        let mut cache = CacheSim::xeon_llc();
        let mut pool = StreamPool::new();
        let out = assemble(
            &m.hmem,
            &streams,
            &lanes,
            cfg(AssemblyLayout::Interleaved, true),
            &mut cache,
            &mut pool,
        );
        let ChunkLayout::Interleaved { warps, .. } = &out.layout else {
            panic!()
        };
        let (p0, _) = warps[0].slot(0, 0);
        let (p1, _) = warps[0].slot(0, 1);
        let bytes = pool.arena.bytes(&out.bytes);
        assert_eq!(&bytes[p0 as usize..p0 as usize + 4], &[10, 11, 12, 13]);
        assert_eq!(&bytes[p1 as usize..p1 as usize + 2], &[200, 201]);
        assert_eq!(out.gathered_bytes, 6);
        assert!(!out.locality_order_used, "raw streams use access order");
    }

    #[test]
    fn locality_order_requires_patterns() {
        let data = vec![7u8; 1 << 16];
        let (m, streams) = setup(&data);
        let entries: Vec<AddrEntry> = (0..64)
            .map(|i| AddrEntry {
                stream: StreamId(0),
                offset: i * 8,
                width: 8,
            })
            .collect();
        let pat = pattern::detect(&entries, pattern::MAX_PERIOD).unwrap();
        let lanes = vec![LaneAddrs {
            reads: AddrStream::Pattern(pat),
            writes: AddrStream::Raw(Vec::new()),
        }];
        let mut cache = CacheSim::xeon_llc();
        let mut pool = StreamPool::new();
        let out = assemble(
            &m.hmem,
            &streams,
            &lanes,
            cfg(AssemblyLayout::Interleaved, true),
            &mut cache,
            &mut pool,
        );
        assert!(out.locality_order_used);
        assert_eq!(out.gathered_bytes, 64 * 8);
        // The 64 contiguous 8-byte reads merge into one 512-byte run,
        // gathered via the vectorized path.
        assert_eq!(out.simd_runs, 1);
        assert_eq!(out.run_bytes.count(), 1);
        // locality off → access order even with patterns
        let mut cache2 = CacheSim::xeon_llc();
        let mut pool2 = StreamPool::new();
        let out2 = assemble(
            &m.hmem,
            &streams,
            &lanes,
            cfg(AssemblyLayout::Interleaved, false),
            &mut cache2,
            &mut pool2,
        );
        assert!(!out2.locality_order_used);
        assert_eq!(
            pool.arena.bytes(&out.bytes),
            pool2.arena.bytes(&out2.bytes),
            "order must not change contents"
        );
    }

    #[test]
    fn per_lane_layout_packs_in_order() {
        let data: Vec<u8> = (0..=255).collect();
        let (m, streams) = setup(&data);
        let lanes = vec![raw_lane(vec![(0, 2), (100, 2)]), raw_lane(vec![(50, 4)])];
        let mut cache = CacheSim::xeon_llc();
        let mut pool = StreamPool::new();
        let out = assemble(
            &m.hmem,
            &streams,
            &lanes,
            cfg(AssemblyLayout::PerLane, false),
            &mut cache,
            &mut pool,
        );
        let bytes = pool.arena.bytes(&out.bytes);
        assert_eq!(&bytes[0..2], &[0, 1]);
        assert_eq!(&bytes[2..4], &[100, 101]);
        assert_eq!(&bytes[4..8], &[50, 51, 52, 53]);
        assert_eq!(out.padding_bytes, 0);
    }

    #[test]
    fn pattern_streams_cost_less_dram_for_addresses() {
        let data = vec![1u8; 1 << 16];
        let (m, streams) = setup(&data);
        let entries: Vec<AddrEntry> = (0..1000)
            .map(|i| AddrEntry {
                stream: StreamId(0),
                offset: i,
                width: 1,
            })
            .collect();
        let raw = vec![LaneAddrs {
            reads: AddrStream::Raw(entries.clone()),
            writes: AddrStream::Raw(Vec::new()),
        }];
        let pat = vec![LaneAddrs {
            reads: AddrStream::Pattern(pattern::detect(&entries, 8).unwrap()),
            writes: AddrStream::Raw(Vec::new()),
        }];
        let mut c1 = CacheSim::xeon_llc();
        let mut c2 = CacheSim::xeon_llc();
        let mut p1 = StreamPool::new();
        let mut p2 = StreamPool::new();
        let o_raw = assemble(
            &m.hmem,
            &streams,
            &raw,
            cfg(AssemblyLayout::Interleaved, true),
            &mut c1,
            &mut p1,
        );
        let o_pat = assemble(
            &m.hmem,
            &streams,
            &pat,
            cfg(AssemblyLayout::Interleaved, true),
            &mut c2,
            &mut p2,
        );
        assert_eq!(
            p1.arena.bytes(&o_raw.bytes),
            p2.arena.bytes(&o_pat.bytes),
            "compression must not change data"
        );
        // Raw pays 2 * 8000 addr bytes of DRAM traffic that the pattern avoids.
        assert!(o_raw.cost.dram_bytes >= o_pat.cost.dram_bytes + 15_000);
    }

    #[test]
    fn locality_order_improves_hit_rate_for_strided_lanes() {
        // 64 lanes each scanning a distant 8 KiB region byte by byte. In
        // access order the cache bounces across 64 regions; in per-lane
        // order each region is read sequentially.
        let region = 8192u64;
        let data = vec![3u8; (64 * region) as usize];
        let (m, streams) = setup(&data);
        let mk = |lane: u64| -> Vec<AddrEntry> {
            (0..region / 8)
                .map(|i| AddrEntry {
                    stream: StreamId(0),
                    offset: lane * region + i * 8,
                    width: 8,
                })
                .collect()
        };
        let lanes_pat: Vec<LaneAddrs> = (0..64)
            .map(|l| LaneAddrs {
                reads: AddrStream::Pattern(pattern::detect(&mk(l), 8).unwrap()),
                writes: AddrStream::Raw(Vec::new()),
            })
            .collect();
        // Tiny cache to make the order difference visible.
        let mut c_seq = CacheSim::new(4096, 64, 4);
        let mut c_acc = CacheSim::new(4096, 64, 4);
        let mut p_seq = StreamPool::new();
        let mut p_acc = StreamPool::new();
        let a = assemble(
            &m.hmem,
            &streams,
            &lanes_pat,
            cfg(AssemblyLayout::Interleaved, true),
            &mut c_seq,
            &mut p_seq,
        );
        let b = assemble(
            &m.hmem,
            &streams,
            &lanes_pat,
            cfg(AssemblyLayout::Interleaved, false),
            &mut c_acc,
            &mut p_acc,
        );
        assert_eq!(p_seq.arena.bytes(&a.bytes), p_acc.arena.bytes(&b.bytes));
        // Locality order gathers each lane's region as sequential runs: one
        // cache probe per line and per-run instructions. Access order pays
        // a probe and decode per element. Both DRAM traffic and
        // instructions must drop substantially.
        assert!(
            a.cost.dram_bytes * 2 < b.cost.dram_bytes,
            "locality dram {} vs access-order dram {}",
            a.cost.dram_bytes,
            b.cost.dram_bytes
        );
        assert!(
            a.cost.instructions * 4 < b.cost.instructions,
            "locality instrs {} vs access-order instrs {}",
            a.cost.instructions,
            b.cost.instructions
        );
    }

    #[test]
    fn write_layout_built_when_writes_present() {
        let data = vec![0u8; 4096];
        let (m, streams) = setup(&data);
        let mut lane = raw_lane(vec![(0, 8)]);
        lane.writes = AddrStream::Raw(vec![AddrEntry {
            stream: StreamId(0),
            offset: 8,
            width: 4,
        }]);
        let mut cache = CacheSim::xeon_llc();
        let mut pool = StreamPool::new();
        let out = assemble(
            &m.hmem,
            &streams,
            &[lane],
            cfg(AssemblyLayout::Interleaved, true),
            &mut cache,
            &mut pool,
        );
        assert!(out.write_layout.is_some());
        assert!(out.write_layout.unwrap().total_len() >= 4);
    }

    #[test]
    fn empty_lanes_produce_empty_buffer() {
        let data = vec![0u8; 64];
        let (m, streams) = setup(&data);
        let lanes = vec![LaneAddrs::empty(), LaneAddrs::empty()];
        let mut cache = CacheSim::xeon_llc();
        let mut pool = StreamPool::new();
        let out = assemble(
            &m.hmem,
            &streams,
            &lanes,
            cfg(AssemblyLayout::Interleaved, true),
            &mut cache,
            &mut pool,
        );
        assert_eq!(out.bytes.len(), 0);
        assert_eq!(out.gathered_bytes, 0);
        assert!(out.write_layout.is_none());
    }

    #[test]
    fn auto_blocks_exactly_when_the_warp_footprint_exceeds_the_llc() {
        // One warp of 32 lanes scanning 4 KiB each: a 128 KiB footprint
        // fits the 8 MiB Xeon LLC but overflows a 4 KiB test cache.
        let span = 4096u64;
        let data: Vec<u8> = (0..32 * span).map(|i| (i % 251) as u8).collect();
        let (m, streams) = setup(&data);
        let mk = |lane: u64| -> Vec<AddrEntry> {
            (0..span / 8)
                .map(|i| AddrEntry {
                    stream: StreamId(0),
                    offset: lane * span + i * 8,
                    width: 8,
                })
                .collect()
        };
        let lanes: Vec<LaneAddrs> = (0..32)
            .map(|l| LaneAddrs {
                reads: AddrStream::Pattern(pattern::detect(&mk(l), 8).unwrap()),
                writes: AddrStream::Raw(Vec::new()),
            })
            .collect();
        let run = |mut cache: CacheSim| {
            let mut pool = StreamPool::new();
            let out = assemble(
                &m.hmem,
                &streams,
                &lanes,
                cfg(AssemblyLayout::Interleaved, true),
                &mut cache,
                &mut pool,
            );
            (
                pool.arena.bytes(&out.bytes).to_vec(),
                out.cache_blocked_warps,
            )
        };
        let (large, large_blocked) = run(CacheSim::xeon_llc());
        let (small, small_blocked) = run(CacheSim::new(4096, 64, 4));
        assert_eq!(large, small, "blocking must not change contents");
        assert_eq!(large_blocked, 0, "footprint fits the LLC → natural walk");
        assert!(small_blocked > 0, "footprint overflows the LLC → blocked");
    }

    #[test]
    fn simd_dispatch_honours_threshold_and_width() {
        let data = vec![5u8; 1 << 16];
        let (m, streams) = setup(&data);
        // Lane 0: one long sequential run (SIMD); lane 1: strided 8-byte
        // reads — each entry its own 8-byte run, below the threshold.
        let long: Vec<AddrEntry> = (0..128)
            .map(|i| AddrEntry {
                stream: StreamId(0),
                offset: i * 8,
                width: 8,
            })
            .collect();
        let strided: Vec<AddrEntry> = (0..128)
            .map(|i| AddrEntry {
                stream: StreamId(0),
                offset: 32768 + i * 64,
                width: 8,
            })
            .collect();
        let lanes = vec![
            LaneAddrs {
                reads: AddrStream::Pattern(pattern::detect(&long, 8).unwrap()),
                writes: AddrStream::Raw(Vec::new()),
            },
            LaneAddrs {
                reads: AddrStream::Pattern(pattern::detect(&strided, 8).unwrap()),
                writes: AddrStream::Raw(Vec::new()),
            },
        ];
        let mut cache = CacheSim::xeon_llc();
        let mut pool = StreamPool::new();
        let out = assemble(
            &m.hmem,
            &streams,
            &lanes,
            cfg(AssemblyLayout::Interleaved, true),
            &mut cache,
            &mut pool,
        );
        assert_eq!(out.simd_runs, 1, "one merged 1 KiB run");
        assert_eq!(out.scalar_runs, 128, "short strided runs stay scalar");
        assert_eq!(out.run_bytes.count(), 129);
    }

    /// Per-entry reference gather: every entry's source bytes written at
    /// its slot in `layout`, everything else zero.
    fn reference_gather(data: &[u8], lanes: &[LaneAddrs], layout: &ChunkLayout) -> Vec<u8> {
        let ChunkLayout::Interleaved { warps, .. } = layout else {
            panic!("interleaved layout expected")
        };
        let mut buf = vec![0u8; layout.total_len() as usize];
        for (lane, l) in lanes.iter().enumerate() {
            for (k, e) in l.reads.iter().enumerate() {
                let (dest, _) = warps[lane / WARP_SIZE].slot(lane % WARP_SIZE, k);
                let (d, o, w) = (dest as usize, e.offset as usize, e.width as usize);
                buf[d..d + w].copy_from_slice(&data[o..o + w]);
            }
        }
        buf
    }

    /// One cycle position of a generated lane: `count` contiguous elements
    /// of `width` bytes, then `gap` skipped bytes.
    fn arb_piece() -> impl Strategy<Value = (u32, u64, u64)> {
        (
            prop_oneof![Just(1u32), Just(2u32), Just(4u32), Just(8u32), Just(3u32)],
            1u64..24,
            prop_oneof![Just(0u64), 1u64..12],
        )
    }

    proptest! {
        /// `assemble` ≡ the per-entry reference gather on pattern lanes that
        /// mix long runs (≥ `SIMD_MIN_RUN_BYTES`), short runs and runs whose
        /// widths change mid-run, over unaligned starts, empty lanes and
        /// source windows shared between lanes — on a large cache (natural
        /// walk) and on a small one (cache-blocked walk). On the large cache
        /// the vectorized path takes exactly the long uniform-width runs of
        /// width 1, 2, 4 or 8.
        #[test]
        fn gather_matches_per_entry_reference(
            geom in proptest::collection::vec(
                (0u64..4096, proptest::collection::vec(arb_piece(), 1..5),
                 prop_oneof![Just(0u64), 1u64..64], 0usize..4, 0usize..4),
                1..40,
            )
        ) {
            // Each lane is a hand-built pattern: a cycle of pieces starting at
            // `base`, repeated `reps` times plus `tail` quarters of a cycle,
            // each cycle `span + extra` bytes after the last (extra 0 →
            // consecutive cycles merge into one run). Zero entries → an
            // empty lane.
            let data: Vec<u8> = (0..32768u32).map(|i| (i * 7 + 13) as u8).collect();
            let (m, streams) = setup(&data);
            let lanes: Vec<LaneAddrs> = geom
                .iter()
                .map(|&(base, ref pieces, extra, reps, tail)| {
                    let (mut bases, mut widths) = (Vec::new(), Vec::new());
                    let mut at = base;
                    for &(width, count, gap) in pieces {
                        for _ in 0..count {
                            bases.push(at);
                            widths.push(width);
                            at += width as u64;
                        }
                        at += gap;
                    }
                    let period = bases.len();
                    let count = period * reps + period * tail / 4;
                    let reads = if count == 0 {
                        AddrStream::Raw(Vec::new())
                    } else {
                        AddrStream::Pattern(pattern::Pattern {
                            streams: vec![StreamId(0); period],
                            bases,
                            strides: vec![(at - base + extra) as i64; period],
                            widths,
                            count,
                        })
                    };
                    LaneAddrs { reads, writes: AddrStream::Raw(Vec::new()) }
                })
                .collect();
            let expected_simd: u64 = lanes
                .iter()
                .flat_map(|l| l.reads.runs())
                .filter(|r| r.len >= SIMD_MIN_RUN_BYTES && matches!(r.width, 1 | 2 | 4 | 8))
                .count() as u64;
            let total: u64 = lanes.iter().map(|l| l.reads.data_bytes()).sum();
            for (mut cache, natural) in
                [(CacheSim::xeon_llc(), true), (CacheSim::new(4096, 64, 4), false)]
            {
                let mut pool = StreamPool::new();
                let out = assemble(
                    &m.hmem,
                    &streams,
                    &lanes,
                    cfg(AssemblyLayout::Interleaved, true),
                    &mut cache,
                    &mut pool,
                );
                prop_assert!(out.locality_order_used);
                prop_assert_eq!(
                    pool.arena.bytes(&out.bytes),
                    &reference_gather(&data, &lanes, &out.layout)[..],
                    "gathered bytes differ from the per-entry reference"
                );
                prop_assert_eq!(out.gathered_bytes, total);
                if natural {
                    prop_assert_eq!(out.cache_blocked_warps, 0);
                    prop_assert_eq!(out.simd_runs, expected_simd);
                }
            }
        }
    }
}
