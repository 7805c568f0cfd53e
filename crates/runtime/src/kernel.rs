//! The BigKernel programming model: [`StreamKernel`] and [`KernelCtx`].
//!
//! The programmer writes one kernel body (`process`) against the abstract
//! [`KernelCtx`]; the same body runs unchanged in every implementation
//! variant (CPU serial/MT, GPU single/double buffer, BigKernel compute
//! stage) — only the context behind it changes. The address-generation half
//! (`addresses`) corresponds to the code the paper's compiler produces by
//! slicing away everything but control flow and address computation; for
//! kernels written in the `bk-kernelc` IR that slice is derived
//! mechanically, and for hand-written kernels the runtime *verifies* at
//! execution time that the address stream exactly covers the compute
//! stage's stream accesses (the FIFO cross-check in [`crate::ctx`]).

use crate::ctx::AddrGenCtx;
use crate::stream::StreamId;
use bk_gpu::occupancy::BlockResources;
use std::ops::Range;

/// A device-resident buffer (non-mapped data: cluster arrays, dictionaries,
/// hash tables, output tables). Same handle type as `bk_gpu::BufferId`.
pub type DevBufId = bk_gpu::BufferId;

/// Execution context a kernel body runs against.
///
/// Values up to 8 bytes wide travel as little-endian-packed `u64`; use
/// [`ValueExt`] for typed accessors. Every call both *performs* the access
/// functionally and *charges* it in the active cost model.
pub trait KernelCtx {
    /// Read `width` (1..=8) bytes of mapped stream `s` at byte `offset`.
    fn stream_read(&mut self, s: StreamId, offset: u64, width: u32) -> u64;
    /// Read a run of consecutive `width`-byte elements of mapped stream `s`
    /// into the kernel's `buf`: element `i` is what
    /// [`KernelCtx::stream_read`] returns at `offset + i * width`, stored
    /// packed little-endian at `buf[i * width..]`, and the run holds at
    /// most `buf.len() / width` elements.
    ///
    /// The consume rule: after each element, `more` gets its value and
    /// answers whether the kernel reads the next one. The run stops at the
    /// first `false` (that element is consumed) or when `buf` is full, and
    /// the call returns the number of elements consumed. Those elements —
    /// and only those — are performed exactly as the same number of
    /// `stream_read` calls would be: same values, same FIFO verification
    /// (element by element, panicking at the first mismatching ordinal),
    /// same charges, and the same accesses in the cost model. A context
    /// may load past the consumed prefix, but an element the kernel does
    /// not consume is never charged, verified or traced.
    ///
    /// The default loops over `stream_read`; the GPU compute context
    /// resolves, loads and traces the whole run at once.
    fn stream_read_run(
        &mut self,
        s: StreamId,
        offset: u64,
        width: u32,
        buf: &mut [u8],
        more: &mut dyn FnMut(u64) -> bool,
    ) -> usize {
        let w = width as usize;
        let mut n = 0;
        for dst in buf.chunks_exact_mut(w) {
            let v = self.stream_read(s, offset + n as u64 * width as u64, width);
            dst.copy_from_slice(&v.to_le_bytes()[..w]);
            n += 1;
            if !more(v) {
                break;
            }
        }
        n
    }
    /// Write `width` bytes to mapped stream `s` at byte `offset`.
    fn stream_write(&mut self, s: StreamId, offset: u64, width: u32, value: u64);
    /// Read from a device-resident buffer.
    fn dev_read(&mut self, b: DevBufId, offset: u64, width: u32) -> u64;
    /// Read `out.len() / width` consecutive `width`-byte elements of device
    /// buffer `b` from `offset` into `out`, packed little-endian: exactly
    /// that many [`KernelCtx::dev_read`] calls at `offset`,
    /// `offset + width`, ... (same bytes, same charges, same accesses in
    /// the cost model). Bytes past the last whole element are left alone.
    ///
    /// The default loops over `dev_read`; the GPU compute context traces
    /// the whole run as one record and copies it in one slice (a block
    /// staging a table, like K-means' centroids).
    fn dev_read_run(&mut self, b: DevBufId, offset: u64, width: u32, out: &mut [u8]) {
        let w = width as usize;
        for (i, dst) in out.chunks_exact_mut(w).enumerate() {
            let v = self.dev_read(b, offset + (i * w) as u64, width);
            dst.copy_from_slice(&v.to_le_bytes()[..w]);
        }
    }
    /// Write to a device-resident buffer.
    fn dev_write(&mut self, b: DevBufId, offset: u64, width: u32, value: u64);
    /// Atomic fetch-add on a `u32` cell of a device buffer.
    fn dev_atomic_add_u32(&mut self, b: DevBufId, offset: u64, v: u32) -> u32;
    /// Atomic fetch-add on a `u64` cell of a device buffer.
    fn dev_atomic_add_u64(&mut self, b: DevBufId, offset: u64, v: u64) -> u64;
    /// Atomic compare-and-swap on a `u64` cell (CUDA `atomicCAS` semantics).
    fn dev_atomic_cas_u64(&mut self, b: DevBufId, offset: u64, expected: u64, new: u64) -> u64;
    /// Account `n` arithmetic/control instructions of kernel work.
    fn alu(&mut self, n: u64);
    /// Account `n` shared-memory accesses (unaddressed; no bank analysis).
    fn shared(&mut self, n: u64);
    /// Account one *addressed* shared-memory access: on GPU contexts the
    /// per-warp bank-conflict model applies (Kepler: 32 banks x 4 B; lanes
    /// hitting one bank at different words serialize). Defaults to an
    /// unaddressed access for hosts without shared memory.
    fn shared_at(&mut self, _addr: u32, _width: u32) {
        self.shared(1);
    }
    /// Account `n` addressed shared-memory accesses at `base`,
    /// `base + stride`, ... — exactly equivalent to `n`
    /// [`KernelCtx::shared_at`] calls, but one dynamic dispatch for the
    /// common staged-table scan loop.
    fn shared_at_strided(&mut self, base: u32, stride: u32, n: u32, width: u32) {
        for i in 0..n {
            self.shared_at(base + i * stride, width);
        }
    }
    /// Global id of this (compute) thread.
    fn thread_id(&self) -> u32;
    /// Total number of (compute) threads in the launch.
    fn num_threads(&self) -> u32;
}

/// Typed helpers over the packed-`u64` accessors.
pub trait ValueExt: KernelCtx {
    /// Read a mapped-stream `f64`.
    fn stream_read_f64(&mut self, s: StreamId, offset: u64) -> f64 {
        f64::from_bits(self.stream_read(s, offset, 8))
    }
    /// Read a mapped-stream `f32`.
    fn stream_read_f32(&mut self, s: StreamId, offset: u64) -> f32 {
        f32::from_bits(self.stream_read(s, offset, 4) as u32)
    }
    /// Read a mapped-stream byte.
    fn stream_read_u8(&mut self, s: StreamId, offset: u64) -> u8 {
        self.stream_read(s, offset, 1) as u8
    }
    /// Read `buf.len()` consecutive mapped-stream bytes starting at
    /// `offset` as one run (every byte consumed; see
    /// [`KernelCtx::stream_read_run`]).
    fn stream_read_bytes(&mut self, s: StreamId, offset: u64, buf: &mut [u8]) {
        self.stream_read_run(s, offset, 1, buf, &mut |_| true);
    }
    /// Read a mapped-stream `u32`.
    fn stream_read_u32(&mut self, s: StreamId, offset: u64) -> u32 {
        self.stream_read(s, offset, 4) as u32
    }
    /// Write a mapped-stream `u32`.
    fn stream_write_u32(&mut self, s: StreamId, offset: u64, v: u32) {
        self.stream_write(s, offset, 4, v as u64);
    }
    /// Write a mapped-stream `u64`.
    fn stream_write_u64(&mut self, s: StreamId, offset: u64, v: u64) {
        self.stream_write(s, offset, 8, v);
    }
    /// Read an `f64` from device state.
    fn dev_read_f64(&mut self, b: DevBufId, offset: u64) -> f64 {
        f64::from_bits(self.dev_read(b, offset, 8))
    }
    /// Read a `u32` from device state.
    fn dev_read_u32(&mut self, b: DevBufId, offset: u64) -> u32 {
        self.dev_read(b, offset, 4) as u32
    }
    /// Read a `u64` from device state.
    fn dev_read_u64(&mut self, b: DevBufId, offset: u64) -> u64 {
        self.dev_read(b, offset, 8)
    }
    /// Write an `f64` to device state.
    fn dev_write_f64(&mut self, b: DevBufId, offset: u64, v: f64) {
        self.dev_write(b, offset, 8, v.to_bits());
    }
    /// Write a `u32` to device state.
    fn dev_write_u32(&mut self, b: DevBufId, offset: u64, v: u32) {
        self.dev_write(b, offset, 4, v as u64);
    }
}

impl<T: KernelCtx + ?Sized> ValueExt for T {}

/// A streaming kernel: the paper's programming model.
pub trait StreamKernel: Sync {
    /// Kernel name, used in reports and traces.
    fn name(&self) -> &'static str;

    /// Fixed record size in bytes, or `None` for variable-length
    /// (delimiter-separated) records. Used to keep work-partition boundaries
    /// record-aligned.
    fn record_size(&self) -> Option<u64>;

    /// How many bytes past the end of its assigned range a thread may read
    /// (finishing a record/word that *starts* inside the range). Baseline
    /// runners stage this much extra data per chunk window.
    fn halo_bytes(&self) -> u64 {
        0
    }

    /// The address-generation half: emit, in exactly the order `process`
    /// will perform them, the stream accesses for `range`.
    fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>);

    /// The kernel body for one thread: process the records starting within
    /// `range`, reading/writing mapped data exclusively through `ctx`.
    fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>);

    /// Per-thread-block resource usage (paper §IV.D, `R_tb`).
    fn resources(&self) -> BlockResources {
        BlockResources::streaming_default()
    }

    /// Declarative record-periodic access summary for mega-kernel fusion
    /// dependence analysis (see [`crate::fusion`]). `None` (the default)
    /// means the kernel's accesses cannot be summarized — e.g. indirect,
    /// data-dependent addressing — and any fusion involving it refuses.
    fn access_summary(&self) -> Option<crate::fusion::AccessSummary> {
        None
    }

    /// Whether this pass reads device-memory state (hash tables,
    /// accumulators) that an *earlier pass* of the same multi-pass program
    /// accumulates — a dependence the stream-level analysis cannot see, so
    /// passes must declare it. Fused execution then needs a global pass
    /// barrier, which the pass-major schedule provides only when the whole
    /// launch is one co-resident wave (persistent blocks, the mega-kernel
    /// precondition); [`crate::run_bigkernel_fused`] refuses multi-wave
    /// launches for such programs and the caller falls back to the unfused
    /// per-pass loop.
    fn barrier_dependence(&self) -> bool {
        false
    }
}

/// Launch geometry (compute threads; BigKernel internally doubles the thread
/// count for the address-generation warps, §III).
#[derive(Clone, Copy, Debug)]
pub struct LaunchConfig {
    /// Thread blocks launched.
    pub num_blocks: u32,
    /// Compute threads per block (multiple of the warp size).
    pub threads_per_block: u32,
}

impl LaunchConfig {
    /// A launch of `num_blocks` x `threads_per_block` compute threads.
    pub fn new(num_blocks: u32, threads_per_block: u32) -> Self {
        assert!(num_blocks > 0 && threads_per_block > 0, "empty launch");
        assert!(
            threads_per_block.is_multiple_of(bk_gpu::WARP_SIZE as u32),
            "threads per block must be a multiple of the warp size"
        );
        LaunchConfig {
            num_blocks,
            threads_per_block,
        }
    }

    /// Compute threads across the whole launch.
    pub fn total_threads(&self) -> u32 {
        self.num_blocks * self.threads_per_block
    }
}

/// Partition `len` bytes into `n` contiguous ranges, aligned to
/// `record_size` boundaries when given. Every byte belongs to exactly one
/// range; trailing ranges may be empty when there are fewer records than
/// threads.
pub fn partition_ranges(len: u64, n: u32, record_size: Option<u64>) -> Vec<Range<u64>> {
    assert!(n > 0);
    let unit = record_size.unwrap_or(1);
    assert!(unit > 0, "zero record size");
    let records = len / unit; // a trailing partial record is never assigned
    let base = records / n as u64;
    let extra = records % n as u64;
    let mut out = Vec::with_capacity(n as usize);
    let mut start = 0u64;
    for i in 0..n as u64 {
        let cnt = base + u64::from(i < extra);
        let end = start + cnt * unit;
        out.push(start..end);
        start = end;
    }
    // Variable-length data: extend the last non-empty range to cover the
    // tail bytes (records starting there still get processed).
    if record_size.is_none() {
        if let Some(r) = out.iter_mut().rev().find(|r| !r.is_empty()) {
            r.end = len;
        } else if let Some(r) = out.first_mut() {
            r.end = len;
        }
    }
    out
}

/// Slice `range` into `num_chunks` record-aligned sub-ranges; chunk `i`
/// covers the i-th slice (possibly empty once the range is exhausted).
pub fn chunk_slice(
    range: &Range<u64>,
    chunk: usize,
    num_chunks: usize,
    record_size: Option<u64>,
) -> Range<u64> {
    assert!(num_chunks > 0 && chunk < num_chunks);
    let unit = record_size.unwrap_or(1);
    let len = range.end - range.start;
    let records = len / unit;
    let base = records / num_chunks as u64;
    let extra = records % num_chunks as u64;
    let prior: u64 = (0..chunk as u64).map(|i| base + u64::from(i < extra)).sum();
    let cnt = base + u64::from((chunk as u64) < extra);
    let start = range.start + prior * unit;
    let mut end = start + cnt * unit;
    // Tail bytes of a variable-length range belong to the last chunk.
    if record_size.is_none() && chunk == num_chunks - 1 {
        end = range.end;
    }
    start..end.min(range.end.max(start))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_all_bytes_fixed_records() {
        let parts = partition_ranges(100 * 16, 7, Some(16));
        assert_eq!(parts.len(), 7);
        assert_eq!(parts[0].start, 0);
        assert_eq!(parts.last().unwrap().end, 1600);
        for w in parts.windows(2) {
            assert_eq!(w[0].end, w[1].start);
            assert_eq!((w[0].end - w[0].start) % 16, 0);
        }
    }

    #[test]
    fn partition_trailing_partial_record_unassigned() {
        let parts = partition_ranges(35, 2, Some(16)); // 2 whole records
        assert_eq!(parts[0], 0..16);
        assert_eq!(parts[1], 16..32); // bytes 32..35 are a partial record
    }

    #[test]
    fn partition_variable_length_covers_tail() {
        let parts = partition_ranges(103, 4, None);
        assert_eq!(parts.last().unwrap().end, 103);
        let total: u64 = parts.iter().map(|r| r.end - r.start).sum();
        assert_eq!(total, 103);
    }

    #[test]
    fn partition_more_threads_than_records() {
        let parts = partition_ranges(32, 8, Some(16));
        let nonempty: Vec<_> = parts.iter().filter(|r| !r.is_empty()).collect();
        assert_eq!(nonempty.len(), 2);
    }

    #[test]
    fn chunk_slices_tile_the_range() {
        let range = 160..160 + 10 * 16;
        let mut cursor = range.start;
        for c in 0..4 {
            let s = chunk_slice(&range, c, 4, Some(16));
            assert_eq!(s.start, cursor);
            cursor = s.end;
        }
        assert_eq!(cursor, range.end);
    }

    #[test]
    fn chunk_slice_variable_tail_in_last() {
        let range = 0..101u64;
        let s3 = chunk_slice(&range, 3, 4, None);
        assert_eq!(s3.end, 101);
        let total: u64 = (0..4)
            .map(|c| chunk_slice(&range, c, 4, None))
            .map(|r| r.end - r.start)
            .sum();
        assert_eq!(total, 101);
    }

    #[test]
    fn chunk_slice_of_empty_range_is_empty() {
        let range = 5..5u64;
        for c in 0..3 {
            assert!(chunk_slice(&range, c, 3, Some(1)).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "warp size")]
    fn launch_must_be_warp_multiple() {
        let _ = LaunchConfig::new(1, 33);
    }

    #[test]
    fn launch_total_threads() {
        assert_eq!(LaunchConfig::new(4, 64).total_threads(), 256);
    }
}

#[cfg(test)]
mod value_ext_tests {
    use super::*;
    use std::collections::HashMap;

    /// Minimal in-memory context for testing the packed-u64 helpers.
    #[derive(Default)]
    struct MapCtx {
        stream: HashMap<u64, u8>,
        dev: HashMap<(usize, u64), u8>,
    }

    impl KernelCtx for MapCtx {
        fn stream_read(&mut self, _s: StreamId, offset: u64, width: u32) -> u64 {
            let mut buf = [0u8; 8];
            for i in 0..width as u64 {
                buf[i as usize] = *self.stream.get(&(offset + i)).unwrap_or(&0);
            }
            u64::from_le_bytes(buf)
        }
        fn stream_write(&mut self, _s: StreamId, offset: u64, width: u32, value: u64) {
            for (i, b) in value.to_le_bytes().iter().take(width as usize).enumerate() {
                self.stream.insert(offset + i as u64, *b);
            }
        }
        fn dev_read(&mut self, b: DevBufId, offset: u64, width: u32) -> u64 {
            let key = format!("{b:?}");
            let id = key.len(); // stable per-buffer discriminator for tests
            let mut buf = [0u8; 8];
            for i in 0..width as u64 {
                buf[i as usize] = *self.dev.get(&(id, offset + i)).unwrap_or(&0);
            }
            u64::from_le_bytes(buf)
        }
        fn dev_write(&mut self, b: DevBufId, offset: u64, width: u32, value: u64) {
            let key = format!("{b:?}");
            let id = key.len();
            for (i, byte) in value.to_le_bytes().iter().take(width as usize).enumerate() {
                self.dev.insert((id, offset + i as u64), *byte);
            }
        }
        fn dev_atomic_add_u32(&mut self, b: DevBufId, offset: u64, v: u32) -> u32 {
            let old = self.dev_read(b, offset, 4) as u32;
            self.dev_write(b, offset, 4, old.wrapping_add(v) as u64);
            old
        }
        fn dev_atomic_add_u64(&mut self, b: DevBufId, offset: u64, v: u64) -> u64 {
            let old = self.dev_read(b, offset, 8);
            self.dev_write(b, offset, 8, old.wrapping_add(v));
            old
        }
        fn dev_atomic_cas_u64(&mut self, b: DevBufId, offset: u64, expected: u64, new: u64) -> u64 {
            let old = self.dev_read(b, offset, 8);
            if old == expected {
                self.dev_write(b, offset, 8, new);
            }
            old
        }
        fn alu(&mut self, _n: u64) {}
        fn shared(&mut self, _n: u64) {}
        fn thread_id(&self) -> u32 {
            0
        }
        fn num_threads(&self) -> u32 {
            1
        }
    }

    #[test]
    fn float_roundtrips_are_bit_exact() {
        let mut ctx = MapCtx::default();
        let s = StreamId(0);
        for v in [0.0f64, -1.5, f64::MIN_POSITIVE, 1e300, -0.0] {
            ctx.stream_write(s, 0, 8, v.to_bits());
            assert_eq!(ctx.stream_read_f64(s, 0).to_bits(), v.to_bits());
        }
        for v in [0.5f32, -3.25, f32::MAX] {
            ctx.stream_write(s, 16, 4, v.to_bits() as u64);
            assert_eq!(ctx.stream_read_f32(s, 16).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn narrow_helpers_mask_correctly() {
        let mut ctx = MapCtx::default();
        let s = StreamId(0);
        ctx.stream_write_u64(s, 0, 0x1122_3344_5566_7788);
        assert_eq!(ctx.stream_read_u8(s, 0), 0x88);
        assert_eq!(ctx.stream_read_u32(s, 0), 0x5566_7788);
        ctx.stream_write_u32(s, 8, 0xAABB_CCDD);
        assert_eq!(ctx.stream_read(s, 8, 4), 0xAABB_CCDD);
    }

    #[test]
    fn shared_at_default_counts_as_unaddressed() {
        // The default shared_at must not panic for hosts without shared
        // memory; it degrades to shared(1).
        let mut ctx = MapCtx::default();
        ctx.shared_at(128, 4);
    }
}
