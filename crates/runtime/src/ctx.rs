//! Kernel execution contexts.
//!
//! * [`AddrGenCtx`] — what the address-generation half runs against: it
//!   *emits* the stream access sequence instead of performing it (stage 1).
//!   Device-resident reads still execute (and are traced) — that is how the
//!   indexed MasterCard Affinity variant walks its index.
//! * [`ComputeCtx`] — what the kernel body runs against in GPU modes: mapped
//!   stream accesses resolve into the chunk's prefetch buffer according to
//!   its layout — an assembled [`ChunkLayout`] or a verbatim
//!   [`StagedLayout`]; device accesses execute against simulated global
//!   memory; everything is traced for the warp-level timing model.
//!
//! `ComputeCtx` performs every access directly against the live
//! [`GpuMemory`]: each BigKernel block and each buffered-baseline granule
//! runs its kernel body in order, so no access needs isolating.
//!
//! On an assembled chunk `ComputeCtx` verifies every stream access against
//! the address stream recorded in stage 1 — the runtime cross-check that
//! the hand-written (or compiler-sliced) `addresses()` is exactly the access
//! slice of `process()`. A mismatch panics with a precise diagnostic: in a
//! real deployment that is a compiler bug, and in this reproduction it is
//! how the test suite proves the transformation's correctness invariant.

use crate::addr::{AddrEntry, AddrStreamIter, LaneAddrs};
use crate::kernel::{DevBufId, KernelCtx};
use crate::layout::{ChunkLayout, StagedLayout};
use crate::pattern::{OnlineDetect, MAX_PERIOD};
use crate::stream::StreamId;
use bk_gpu::trace::AccessClass;
use bk_gpu::{AccessKind, GpuMemory, ThreadTrace};

/// Reusable per-worker recording state for one address-generation lane:
/// the raw entry buffers plus the streaming pattern detectors feeding on
/// them. Owned by pipeline scratch and recycled across lanes and chunks so
/// the hot path performs no heap allocation in steady state; with detection
/// enabled, compressible lanes never materialize their raw stream at all
/// (the detector tracks a live candidate instead — see
/// [`crate::pattern::OnlineDetect`]).
pub struct AddrRecorder {
    pub(crate) reads: Vec<AddrEntry>,
    pub(crate) writes: Vec<AddrEntry>,
    pub(crate) read_det: OnlineDetect,
    pub(crate) write_det: OnlineDetect,
}

impl AddrRecorder {
    /// Fresh recorder with empty buffers; pattern detection stays off
    /// until [`Self::reset`] turns it on.
    pub fn new() -> Self {
        AddrRecorder {
            reads: Vec::new(),
            writes: Vec::new(),
            read_det: OnlineDetect::new(MAX_PERIOD),
            write_det: OnlineDetect::new(MAX_PERIOD),
        }
    }

    /// Prepare for a new lane; buffer and detector capacity is retained.
    /// `detect` mirrors `BigKernelConfig::pattern_recognition`.
    pub fn reset(&mut self, detect: bool) {
        self.reads.clear();
        self.writes.clear();
        self.read_det.reset(detect);
        self.write_det.reset(detect);
    }

    /// Reads recorded so far (buffered or tracked by the detector).
    pub fn reads_len(&self) -> usize {
        self.read_det.len()
    }

    /// Writes recorded so far (buffered or tracked by the detector).
    pub fn writes_len(&self) -> usize {
        self.write_det.len()
    }

    /// Materialize and surrender both raw streams. The pipeline commits
    /// through the pooled scratch instead (see `pool.rs`); tests and the
    /// kernel compiler's adapter read a lane back with this.
    pub fn take(&mut self) -> (Vec<AddrEntry>, Vec<AddrEntry>) {
        self.read_det.materialize(&mut self.reads);
        self.write_det.materialize(&mut self.writes);
        (
            std::mem::take(&mut self.reads),
            std::mem::take(&mut self.writes),
        )
    }
}

impl Default for AddrRecorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Context for the address-generation half (pipeline stage 1).
pub struct AddrGenCtx<'a> {
    gmem: &'a GpuMemory,
    trace: &'a mut ThreadTrace,
    rec: &'a mut AddrRecorder,
}

impl<'a> AddrGenCtx<'a> {
    /// Record into `rec`. The caller resets the recorder beforehand and
    /// commits (or [takes](AddrRecorder::take)) its streams after the
    /// context drops.
    pub fn recording(
        gmem: &'a GpuMemory,
        trace: &'a mut ThreadTrace,
        rec: &'a mut AddrRecorder,
    ) -> Self {
        AddrGenCtx { gmem, trace, rec }
    }

    /// Record that the computation will read `width` bytes of stream `s` at
    /// `offset`. Costs one issue slot (the store into the address buffer)
    /// plus one address-computation instruction.
    #[inline]
    pub fn emit_read(&mut self, s: StreamId, offset: u64, width: u32) {
        debug_assert!((1..=8).contains(&width));
        self.trace.alu(2);
        let r = &mut *self.rec;
        r.read_det.push(
            &mut r.reads,
            AddrEntry {
                stream: s,
                offset,
                width,
            },
        );
    }

    /// Record that the computation will read a run of `n` consecutive
    /// `width`-byte elements of stream `s` from `offset` (element `i` at
    /// `offset + i * width`): exactly `n` [`Self::emit_read`] calls — same
    /// entries, same cost — fed to the pattern detector as one run.
    #[inline]
    pub fn emit_read_run(&mut self, s: StreamId, offset: u64, width: u32, n: u64) {
        debug_assert!((1..=8).contains(&width));
        self.trace.alu(2 * n);
        let r = &mut *self.rec;
        r.read_det
            .push_run(&mut r.reads, s, offset, width, n as usize);
    }

    /// Record that the computation will write `width` bytes of stream `s`.
    #[inline]
    pub fn emit_write(&mut self, s: StreamId, offset: u64, width: u32) {
        debug_assert!((1..=8).contains(&width));
        self.trace.alu(2);
        let r = &mut *self.rec;
        r.write_det.push(
            &mut r.writes,
            AddrEntry {
                stream: s,
                offset,
                width,
            },
        );
    }

    /// Read a device-resident buffer (traced global access; e.g. an index).
    #[inline]
    pub fn dev_read(&mut self, b: DevBufId, offset: u64, width: u32) -> u64 {
        self.trace.record(
            self.gmem.vaddr(b, offset),
            width,
            AccessKind::Read,
            AccessClass::Dev,
        );
        le_load(self.gmem.read(b, offset, width as usize))
    }

    /// [`Self::dev_read`] of a little-endian `u32`.
    pub fn dev_read_u32(&mut self, b: DevBufId, offset: u64) -> u32 {
        self.dev_read(b, offset, 4) as u32
    }

    /// [`Self::dev_read`] of a little-endian `u64`.
    pub fn dev_read_u64(&mut self, b: DevBufId, offset: u64) -> u64 {
        self.dev_read(b, offset, 8)
    }

    /// Account address-calculation arithmetic.
    #[inline]
    pub fn alu(&mut self, n: u64) {
        self.trace.alu(n);
    }
}

#[inline]
fn le_load(bytes: &[u8]) -> u64 {
    // Full-word and u32 loads dominate compute-phase traffic; give them
    // branch-predictable direct conversions instead of the zero-fill copy.
    match bytes.len() {
        8 => u64::from_le_bytes(bytes.try_into().unwrap()),
        4 => u32::from_le_bytes(bytes.try_into().unwrap()) as u64,
        n => {
            let mut buf = [0u8; 8];
            buf[..n].copy_from_slice(bytes);
            u64::from_le_bytes(buf)
        }
    }
}

#[inline]
fn le_store(value: u64, width: u32) -> [u8; 8] {
    debug_assert!((1..=8).contains(&width));
    value.to_le_bytes()
}

/// What a GPU-mode stream access resolves against: the chunk's layout
/// plus the per-lane state that layout needs.
enum Chunk<'a> {
    /// An assembled chunk (full BigKernel, volume reduction): prefetch-buffer
    /// consumption with FIFO verification of every access. The cursors walk
    /// the recorded streams in FIFO order (accesses are consumed strictly in
    /// emission order) — they replace a per-access `entry(k)` dispatch,
    /// which for compressed streams cost a div/mod per element.
    Assembled {
        layout: &'a ChunkLayout,
        lane_addrs: &'a LaneAddrs,
        read_cur: AddrStreamIter<'a>,
        write_cur: AddrStreamIter<'a>,
        /// Bytes of this lane consumed so far under a per-lane layout.
        perlane_read_cursor: u64,
        perlane_write_cursor: u64,
        /// GPU-side write-value buffer and its layout; `None` when the
        /// chunk's address slice emitted no writes.
        write_buf: Option<DevBufId>,
        write_layout: Option<&'a ChunkLayout>,
    },
    /// A verbatim staged window (the overlap-only variant and the buffered
    /// baselines): primary-stream accesses resolve by offset inside the
    /// lane's staged segment and writes modify it in place; every other
    /// stream resolves at its direct offset inside its whole-stream buffer
    /// in `aux`.
    Staged {
        layout: &'a StagedLayout,
        aux: &'a [(StreamId, DevBufId)],
    },
}

/// Context for the computation half on the GPU (pipeline stage 4, and the
/// kernel of the single/double-buffer baselines).
pub struct ComputeCtx<'a> {
    mem: &'a mut GpuMemory,
    data_buf: DevBufId,
    chunk: Chunk<'a>,
    /// Lane index within the block (warp * 32 + lane-in-warp).
    lane: usize,
    thread_id: u32,
    num_threads: u32,
    trace: &'a mut ThreadTrace,
    read_k: usize,
    write_k: usize,
    /// Bytes of mapped data actually written (for counters).
    pub stream_bytes_written: u64,
    /// Bytes of mapped data actually read (for counters / Table I).
    pub stream_bytes_read: u64,
    /// Bytes written to the *primary* stream of a staged chunk — the
    /// per-window write-back decision keys on this, so aux-only writes don't
    /// force a primary-window copy-back.
    pub primary_bytes_written: u64,
    /// Bit `i` set when aux stream `i` (by table index) of a staged chunk
    /// was written; the runner copies dirty aux buffers back to the host
    /// once at the end.
    pub aux_written_mask: u64,
}

impl<'a> ComputeCtx<'a> {
    fn on(
        mem: &'a mut GpuMemory,
        data_buf: DevBufId,
        chunk: Chunk<'a>,
        lane: usize,
        thread_id: u32,
        num_threads: u32,
        trace: &'a mut ThreadTrace,
    ) -> Self {
        ComputeCtx {
            mem,
            data_buf,
            chunk,
            lane,
            thread_id,
            num_threads,
            trace,
            read_k: 0,
            write_k: 0,
            stream_bytes_written: 0,
            stream_bytes_read: 0,
            primary_bytes_written: 0,
            aux_written_mask: 0,
        }
    }

    /// Context for BigKernel's compute stage against `mem`: reads resolve
    /// through `layout`, writes through `write_layout` into `write_buf`.
    #[allow(clippy::too_many_arguments)]
    pub fn assembled_on(
        mem: &'a mut GpuMemory,
        data_buf: DevBufId,
        write_buf: Option<DevBufId>,
        layout: &'a ChunkLayout,
        write_layout: Option<&'a ChunkLayout>,
        lane_addrs: &'a LaneAddrs,
        lane: usize,
        thread_id: u32,
        num_threads: u32,
        trace: &'a mut ThreadTrace,
    ) -> Self {
        let chunk = Chunk::Assembled {
            layout,
            lane_addrs,
            read_cur: lane_addrs.reads.iter(),
            write_cur: lane_addrs.writes.iter(),
            perlane_read_cursor: 0,
            perlane_write_cursor: 0,
            write_buf,
            write_layout,
        };
        Self::on(mem, data_buf, chunk, lane, thread_id, num_threads, trace)
    }

    /// Context for staged-chunk execution against `mem` (the buffered
    /// baselines and the overlap-only variant): primary-stream accesses
    /// resolve by offset inside the staged window and writes modify it in
    /// place. Each `aux` pair declares a buffer holding a secondary stream's
    /// full contents (see [`crate::StagedAux`]), so accesses to that stream
    /// resolve at their direct stream offset; BigKernel's assembly gathers
    /// from any stream and needs no such table.
    #[allow(clippy::too_many_arguments)]
    pub fn staged_on(
        mem: &'a mut GpuMemory,
        data_buf: DevBufId,
        layout: &'a StagedLayout,
        aux: &'a [(StreamId, DevBufId)],
        lane: usize,
        thread_id: u32,
        num_threads: u32,
        trace: &'a mut ThreadTrace,
    ) -> Self {
        let chunk = Chunk::Staged { layout, aux };
        Self::on(mem, data_buf, chunk, lane, thread_id, num_threads, trace)
    }

    /// Load `width` bytes at `offset` of buffer `b`, little-endian.
    #[inline]
    fn load(&self, b: DevBufId, offset: u64, width: u32) -> u64 {
        le_load(self.mem.read(b, offset, width as usize))
    }

    /// Store the low `width` bytes of `value` at `offset` of buffer `b`.
    #[inline]
    fn store(&mut self, b: DevBufId, offset: u64, width: u32, value: u64) {
        let bytes = le_store(value, width);
        self.mem.write(b, offset, &bytes[..width as usize]);
    }

    /// Number of mapped-stream reads performed so far.
    pub fn read_count(&self) -> usize {
        self.read_k
    }

    /// Number of mapped-stream writes performed so far.
    pub fn write_count(&self) -> usize {
        self.write_k
    }

    /// Resolve the next read to its buffer and position.
    fn resolve_read(&mut self, s: StreamId, offset: u64, width: u32) -> (DevBufId, u64) {
        match &mut self.chunk {
            Chunk::Staged { layout, aux } => {
                if s == StreamId(0) {
                    (self.data_buf, layout.pos(self.lane, offset))
                } else {
                    // The whole stream sits in a device buffer, so the
                    // stream offset IS the buffer offset.
                    (aux_buf(aux, s).1, offset)
                }
            }
            Chunk::Assembled {
                layout,
                lane_addrs,
                read_cur,
                perlane_read_cursor,
                ..
            } => {
                let k = self.read_k;
                let pos = match layout {
                    ChunkLayout::Interleaved { warps, .. } => {
                        assert!(
                            k < lane_addrs.reads.len(),
                            "lane {} performed stream read #{k} but its address slice emitted \
                             only {} reads — the kernel scanned past its emitted window \
                             (data-dependent scan exceeding halo_bytes? run with \
                             BigKernelConfig::overlap_only, the paper's fetch-all fallback)",
                            self.lane,
                            lane_addrs.reads.len()
                        );
                        let expected = read_cur.next().expect("read cursor in step with read_k");
                        verify_entry("read", expected, s, offset, width, self.lane, k);
                        let warp = self.lane / bk_gpu::WARP_SIZE;
                        warps[warp].slot(self.lane % bk_gpu::WARP_SIZE, k).0
                    }
                    ChunkLayout::PerLane { lane_base, .. } => {
                        assert!(
                            k < lane_addrs.reads.len(),
                            "lane {} read past its address slice ({} reads emitted) — see \
                             halo_bytes",
                            self.lane,
                            lane_addrs.reads.len()
                        );
                        let expected = read_cur.next().expect("read cursor in step with read_k");
                        verify_entry("read", expected, s, offset, width, self.lane, k);
                        let pos = lane_base[self.lane] + *perlane_read_cursor;
                        *perlane_read_cursor += width as u64;
                        pos
                    }
                };
                (self.data_buf, pos)
            }
        }
    }
}

/// The whole-stream buffer for secondary stream `s` of a staged chunk, with
/// its aux-table index.
fn aux_buf(aux: &[(StreamId, DevBufId)], s: StreamId) -> (usize, DevBufId) {
    match aux.iter().position(|(id, _)| *id == s) {
        Some(i) => (i, aux[i].1),
        None => panic!(
            "staged execution has no staged buffer for stream {s:?}; stage secondary \
             streams with StagedAux and pass its table to ComputeCtx::staged_on, or run \
             the kernel under BigKernel / the CPU"
        ),
    }
}

/// Where a run read's elements live in device memory (see
/// [`ComputeCtx::plan_run`]).
struct RunPlan<'a> {
    /// Buffer the elements are loaded from.
    buf: DevBufId,
    /// Elements loaded ahead of the kernel's scan.
    len: usize,
    place: RunPlace<'a>,
}

enum RunPlace<'a> {
    /// Element `i` at `pos + i * stride`.
    Linear { pos: u64, stride: u64 },
    /// The slots of ordinals `k..` of lane-in-warp `lane`: consecutive
    /// slots of one lane are a warp group apart, so the stride is constant
    /// while the slot width stays the same.
    Interleaved {
        region: &'a crate::layout::WarpRegion,
        lane: usize,
        k: usize,
    },
}

/// One constant-stride piece of a run: elements `first..first + len` at
/// `pos`, `pos + stride`, ...
struct RunPiece {
    first: usize,
    len: usize,
    pos: u64,
    stride: u64,
}

impl RunPlan<'_> {
    /// The constant-stride pieces covering elements `0..to`.
    fn pieces(&self, to: usize) -> impl Iterator<Item = RunPiece> + '_ {
        let mut i = 0;
        std::iter::from_fn(move || {
            if i >= to {
                return None;
            }
            let first = i;
            Some(match self.place {
                RunPlace::Linear { pos, stride } => {
                    i = to;
                    RunPiece {
                        first,
                        len: to,
                        pos,
                        stride,
                    }
                }
                RunPlace::Interleaved { region, lane, k } => {
                    let sw = region.step_width[k + i];
                    while i < to && region.step_width[k + i] == sw {
                        i += 1;
                    }
                    RunPiece {
                        first,
                        len: i - first,
                        pos: region.slot(lane, k + first).0,
                        stride: bk_gpu::WARP_SIZE as u64 * sw as u64,
                    }
                }
            })
        })
    }
}

impl<'a> ComputeCtx<'a> {
    /// Resolve up to `n_max` run elements starting at the lane's next read:
    /// the same slots (or staged positions) [`Self::resolve_read`] would
    /// give, clipped to elements that are safe to load ahead of the
    /// kernel's scan — emitted, and wholly inside their slot, lane bytes or
    /// staged range. A scan that goes further continues element by element.
    fn plan_run(&self, s: StreamId, offset: u64, width: u32, n_max: usize) -> RunPlan<'a> {
        let w = width as u64;
        match self.chunk {
            Chunk::Staged { aux, .. } if s != StreamId(0) => {
                // Aux-staged secondary stream: read element by element.
                RunPlan {
                    buf: aux_buf(aux, s).1,
                    len: 0,
                    place: RunPlace::Linear {
                        pos: offset,
                        stride: w,
                    },
                }
            }
            Chunk::Staged { layout, .. } => {
                let (base, range) = layout.seg(self.lane);
                // Elements lying wholly inside the staged range.
                let fits = if range.contains(&offset) {
                    ((range.end - offset) / w) as usize
                } else {
                    0
                };
                RunPlan {
                    buf: self.data_buf,
                    len: n_max.min(fits),
                    place: RunPlace::Linear {
                        pos: base + offset.saturating_sub(range.start),
                        stride: w,
                    },
                }
            }
            Chunk::Assembled {
                layout,
                lane_addrs,
                perlane_read_cursor,
                ..
            } => {
                // Only the lane's emitted reads are loaded.
                let len = n_max.min(lane_addrs.reads.len() - self.read_k);
                match layout {
                    ChunkLayout::Interleaved { warps, .. } => {
                        // ...and only slots at least `width` wide: a
                        // narrower slot cannot hold a matching element.
                        let region = &warps[self.lane / bk_gpu::WARP_SIZE];
                        let k = self.read_k;
                        let len = region.step_width[k..k + len]
                            .iter()
                            .position(|&sw| sw < width)
                            .unwrap_or(len);
                        RunPlan {
                            buf: self.data_buf,
                            len,
                            place: RunPlace::Interleaved {
                                region,
                                lane: self.lane % bk_gpu::WARP_SIZE,
                                k,
                            },
                        }
                    }
                    ChunkLayout::PerLane {
                        lane_base,
                        lane_len,
                        ..
                    } => {
                        // ...and only elements inside the lane's own bytes.
                        let left = lane_len[self.lane] - perlane_read_cursor;
                        RunPlan {
                            buf: self.data_buf,
                            len: len.min((left / w) as usize),
                            place: RunPlace::Linear {
                                pos: lane_base[self.lane] + perlane_read_cursor,
                                stride: w,
                            },
                        }
                    }
                }
            }
        }
    }
}

#[cold]
#[inline(never)]
fn verify_failed(
    kind: &str,
    expected: AddrEntry,
    s: StreamId,
    offset: u64,
    width: u32,
    lane: usize,
    k: usize,
) -> ! {
    panic!(
        "address-stream mismatch: lane {lane} {kind} #{k} expected \
         (stream {:?}, offset {}, width {}) but kernel performed \
         (stream {s:?}, offset {offset}, width {width}) — the addresses() \
         slice does not match process()",
        expected.stream, expected.offset, expected.width
    );
}

#[inline]
fn verify_entry(
    kind: &str,
    expected: AddrEntry,
    s: StreamId,
    offset: u64,
    width: u32,
    lane: usize,
    k: usize,
) {
    if expected.stream != s || expected.offset != offset || expected.width != width {
        verify_failed(kind, expected, s, offset, width, lane, k);
    }
}

impl KernelCtx for ComputeCtx<'_> {
    fn stream_read(&mut self, s: StreamId, offset: u64, width: u32) -> u64 {
        let (buf, pos) = self.resolve_read(s, offset, width);
        self.read_k += 1;
        self.stream_bytes_read += width as u64;
        self.trace.record(
            self.mem.vaddr(buf, pos),
            width,
            AccessKind::Read,
            AccessClass::StreamRead,
        );
        self.load(buf, pos, width)
    }

    fn stream_read_run(
        &mut self,
        s: StreamId,
        offset: u64,
        width: u32,
        buf: &mut [u8],
        more: &mut dyn FnMut(u64) -> bool,
    ) -> usize {
        let w = width as usize;
        let n_max = buf.len() / w;
        if n_max == 0 {
            return 0;
        }
        // Load what the plan allows in constant-stride pieces; the same
        // pieces, cut at the consumed count, become the trace records.
        let plan = self.plan_run(s, offset, width, n_max);
        let n = plan.len;
        for piece in plan.pieces(n) {
            let out = &mut buf[piece.first * w..(piece.first + piece.len) * w];
            self.mem
                .read_strided(plan.buf, piece.pos, piece.stride, w, out);
        }
        // The kernel's scan decides how many elements it consumes.
        let mut consumed = 0;
        let mut wants_next = true;
        for e in buf[..n * w].chunks_exact(w) {
            consumed += 1;
            if !more(le_load(e)) {
                wants_next = false;
                break;
            }
        }
        // Verify the consumed elements, ordinal by ordinal, and advance a
        // per-lane layout's byte cursor past them.
        if let Chunk::Assembled {
            layout,
            read_cur,
            perlane_read_cursor,
            ..
        } = &mut self.chunk
        {
            if let Err((i, expected)) = read_cur.check_run(s, offset, width, consumed) {
                let off = offset + (i * w) as u64;
                verify_failed("read", expected, s, off, width, self.lane, self.read_k + i);
            }
            if matches!(layout, ChunkLayout::PerLane { .. }) {
                *perlane_read_cursor += (consumed * w) as u64;
            }
        }
        for piece in plan.pieces(consumed) {
            self.trace.record_run(
                self.mem.vaddr(plan.buf, piece.pos),
                width,
                piece.stride,
                piece.len as u32,
                AccessClass::StreamRead,
            );
        }
        self.read_k += consumed;
        self.stream_bytes_read += (consumed * w) as u64;
        // A scan that wants more than the plan could load continues element
        // by element: those reads succeed, or panic, exactly as they would
        // have without the run.
        if wants_next && consumed == n {
            for dst in buf[n * w..n_max * w].chunks_exact_mut(w) {
                let v = self.stream_read(s, offset + (consumed * w) as u64, width);
                dst.copy_from_slice(&v.to_le_bytes()[..w]);
                consumed += 1;
                if !more(v) {
                    break;
                }
            }
        }
        consumed
    }

    fn stream_write(&mut self, s: StreamId, offset: u64, width: u32, value: u64) {
        self.stream_bytes_written += width as u64;
        let (buf, pos) = match &mut self.chunk {
            Chunk::Staged { layout, aux } => {
                if s == StreamId(0) {
                    // In-place modification of the staged chunk; the runner
                    // copies the dirty window back to host memory afterwards.
                    self.primary_bytes_written += width as u64;
                    (self.data_buf, layout.pos(self.lane, offset))
                } else {
                    let (i, buf) = aux_buf(aux, s);
                    self.aux_written_mask |= 1u64 << i.min(63);
                    (buf, offset)
                }
            }
            Chunk::Assembled {
                write_cur,
                perlane_write_cursor,
                write_buf,
                write_layout,
                ..
            } => {
                let Some(wl) = write_layout else {
                    panic!("kernel wrote to mapped stream {s:?} but no write layout was assembled")
                };
                let k = self.write_k;
                let expected = write_cur.next().expect("write cursor in step with write_k");
                verify_entry("write", expected, s, offset, width, self.lane, k);
                let wb = write_buf.expect("write layout implies a write buffer");
                let pos = match wl {
                    ChunkLayout::Interleaved { warps, .. } => {
                        let warp = self.lane / bk_gpu::WARP_SIZE;
                        warps[warp].slot(self.lane % bk_gpu::WARP_SIZE, k).0
                    }
                    ChunkLayout::PerLane { lane_base, .. } => {
                        let p = lane_base[self.lane] + *perlane_write_cursor;
                        *perlane_write_cursor += width as u64;
                        p
                    }
                };
                self.write_k += 1;
                (wb, pos)
            }
        };
        self.trace.record(
            self.mem.vaddr(buf, pos),
            width,
            AccessKind::Write,
            AccessClass::StreamWrite,
        );
        self.store(buf, pos, width, value);
    }

    fn dev_read(&mut self, b: DevBufId, offset: u64, width: u32) -> u64 {
        self.trace.record(
            self.mem.vaddr(b, offset),
            width,
            AccessKind::Read,
            AccessClass::Dev,
        );
        self.load(b, offset, width)
    }

    fn dev_read_run(&mut self, b: DevBufId, offset: u64, width: u32, out: &mut [u8]) {
        let w = width as usize;
        let n = out.len() / w;
        if n == 0 {
            return;
        }
        self.trace.record_run(
            self.mem.vaddr(b, offset),
            width,
            width as u64,
            n as u32,
            AccessClass::Dev,
        );
        out[..n * w].copy_from_slice(self.mem.read(b, offset, n * w));
    }

    fn dev_write(&mut self, b: DevBufId, offset: u64, width: u32, value: u64) {
        self.trace.record(
            self.mem.vaddr(b, offset),
            width,
            AccessKind::Write,
            AccessClass::Dev,
        );
        self.store(b, offset, width, value);
    }

    fn dev_atomic_add_u32(&mut self, b: DevBufId, offset: u64, v: u32) -> u32 {
        self.trace.record(
            self.mem.vaddr(b, offset),
            4,
            AccessKind::Atomic,
            AccessClass::Dev,
        );
        self.mem.atomic_add_u32(b, offset, v)
    }

    fn dev_atomic_add_u64(&mut self, b: DevBufId, offset: u64, v: u64) -> u64 {
        self.trace.record(
            self.mem.vaddr(b, offset),
            8,
            AccessKind::Atomic,
            AccessClass::Dev,
        );
        self.mem.atomic_add_u64(b, offset, v)
    }

    fn dev_atomic_cas_u64(&mut self, b: DevBufId, offset: u64, expected: u64, new: u64) -> u64 {
        self.trace.record(
            self.mem.vaddr(b, offset),
            8,
            AccessKind::Atomic,
            AccessClass::Dev,
        );
        self.mem.atomic_cas_u64(b, offset, expected, new)
    }

    fn alu(&mut self, n: u64) {
        self.trace.alu(n);
    }

    fn shared(&mut self, n: u64) {
        self.trace.shared(n);
    }

    fn shared_at(&mut self, addr: u32, width: u32) {
        self.trace.record_shared(addr, width);
    }

    fn shared_at_strided(&mut self, base: u32, stride: u32, n: u32, width: u32) {
        self.trace.record_shared_strided(base, stride, n, width);
    }

    fn thread_id(&self) -> u32 {
        self.thread_id
    }

    fn num_threads(&self) -> u32 {
        self.num_threads
    }
}

#[cfg(test)]
#[allow(clippy::drop_non_drop)] // drop(ctx) ends the &mut GpuMemory borrow
mod tests {
    use super::*;
    use crate::addr::AddrStream;
    use crate::machine::Machine;

    fn entry(off: u64, w: u32) -> AddrEntry {
        AddrEntry {
            stream: StreamId(0),
            offset: off,
            width: w,
        }
    }

    #[test]
    fn addrgen_records_reads_writes_and_cost() {
        let m = Machine::test_platform();
        let mut trace = ThreadTrace::default();
        let mut rec = AddrRecorder::new();
        let mut ctx = AddrGenCtx::recording(&m.gmem, &mut trace, &mut rec);
        ctx.emit_read(StreamId(0), 0, 8);
        ctx.emit_read(StreamId(0), 8, 8);
        ctx.emit_write(StreamId(0), 16, 4);
        ctx.alu(3);
        let (reads, writes) = rec.take();
        assert_eq!(reads, vec![entry(0, 8), entry(8, 8)]);
        assert_eq!(writes, vec![entry(16, 4)]);
        assert_eq!(trace.instructions, 2 * 3 + 3);
        assert_eq!(trace.access_count(), 0); // emits are not memory accesses
    }

    #[test]
    fn addrgen_dev_read_is_functional_and_traced() {
        let mut m = Machine::test_platform();
        let b = m.gmem.alloc(16);
        m.gmem.write_u64(b, 8, 0xABCD);
        let mut trace = ThreadTrace::default();
        let mut rec = AddrRecorder::new();
        let mut ctx = AddrGenCtx::recording(&m.gmem, &mut trace, &mut rec);
        assert_eq!(ctx.dev_read_u64(b, 8), 0xABCD);
        assert_eq!(trace.access_count(), 1);
        assert!(!trace.classed[AccessClass::Dev.index()][0].atomic); // plain read
    }

    fn interleaved_single_lane_setup(
        m: &mut Machine,
        values: &[(u64, u64)], // (stream offset, value) 8-byte reads
    ) -> (DevBufId, ChunkLayout, LaneAddrs) {
        let entries: Vec<AddrEntry> = values.iter().map(|&(o, _)| entry(o, 8)).collect();
        let stream = AddrStream::Raw(entries);
        let layout = ChunkLayout::build_interleaved(&[&stream]);
        let buf = m.gmem.alloc(layout.total_len().max(8));
        // Manually "assemble": lane 0's k-th read sits at slot (0, k).
        if let ChunkLayout::Interleaved { warps, .. } = &layout {
            for (k, &(_, v)) in values.iter().enumerate() {
                let (pos, _) = warps[0].slot(0, k);
                m.gmem.write_u64(buf, pos, v);
            }
        }
        let lane = LaneAddrs {
            reads: stream,
            writes: AddrStream::Raw(Vec::new()),
        };
        (buf, layout, lane)
    }

    #[test]
    fn compute_reads_assembled_fifo() {
        let mut m = Machine::test_platform();
        let (buf, layout, lane) =
            interleaved_single_lane_setup(&mut m, &[(100, 11), (108, 22), (200, 33)]);
        let mut trace = ThreadTrace::default();
        let mut ctx = ComputeCtx::assembled_on(
            &mut m.gmem,
            buf,
            None,
            &layout,
            None,
            &lane,
            0,
            0,
            1,
            &mut trace,
        );
        assert_eq!(ctx.stream_read(StreamId(0), 100, 8), 11);
        assert_eq!(ctx.stream_read(StreamId(0), 108, 8), 22);
        assert_eq!(ctx.stream_read(StreamId(0), 200, 8), 33);
        assert_eq!(ctx.stream_bytes_read, 24);
        assert_eq!(trace.access_count(), 3);
    }

    #[test]
    #[should_panic(expected = "address-stream mismatch")]
    fn compute_read_mismatch_panics() {
        let mut m = Machine::test_platform();
        let (buf, layout, lane) = interleaved_single_lane_setup(&mut m, &[(100, 11)]);
        let mut trace = ThreadTrace::default();
        let mut ctx = ComputeCtx::assembled_on(
            &mut m.gmem,
            buf,
            None,
            &layout,
            None,
            &lane,
            0,
            0,
            1,
            &mut trace,
        );
        let _ = ctx.stream_read(StreamId(0), 999, 8); // wrong offset
    }

    #[test]
    fn staged_mode_reads_and_writes_in_place() {
        let mut m = Machine::test_platform();
        let layout = StagedLayout::build_window(1000..1100, 0, 4096, 2);
        let buf = m.gmem.alloc(layout.total_len);
        m.gmem.write_u64(buf, 8, 777); // stream offset 1008
        let mut trace = ThreadTrace::default();
        let mut ctx = ComputeCtx::staged_on(&mut m.gmem, buf, &layout, &[], 1, 5, 8, &mut trace);
        assert_eq!(ctx.stream_read(StreamId(0), 1008, 8), 777);
        ctx.stream_write(StreamId(0), 1016, 4, 42);
        assert_eq!(ctx.thread_id(), 5);
        assert_eq!(ctx.num_threads(), 8);
        assert_eq!(ctx.stream_bytes_written, 4);
        drop(ctx);
        assert_eq!(m.gmem.read_u32(buf, 16), 42);
    }

    #[test]
    fn staged_aux_streams_resolve_at_direct_offsets() {
        let mut m = Machine::test_platform();
        let layout = StagedLayout::build_window(0..64, 0, 64, 1);
        let data = m.gmem.alloc(64);
        let aux_buf = m.gmem.alloc(128);
        m.gmem.write_u64(aux_buf, 40, 99);
        let aux = [(StreamId(1), aux_buf)];
        let mut trace = ThreadTrace::default();
        let mut ctx = ComputeCtx::staged_on(&mut m.gmem, data, &layout, &aux, 0, 0, 1, &mut trace);
        assert_eq!(ctx.stream_read(StreamId(1), 40, 8), 99);
        ctx.stream_write(StreamId(1), 48, 8, 7);
        ctx.stream_write(StreamId(0), 8, 4, 1);
        assert_eq!(ctx.aux_written_mask, 1, "aux stream 1 is table entry 0");
        assert_eq!(ctx.primary_bytes_written, 4, "aux writes are not primary");
        assert_eq!(ctx.stream_bytes_written, 12);
        drop(ctx);
        assert_eq!(m.gmem.read_u64(aux_buf, 48), 7);
    }

    #[test]
    #[should_panic(expected = "no staged buffer")]
    fn staged_unknown_secondary_stream_panics() {
        let mut m = Machine::test_platform();
        let layout = StagedLayout::build_window(0..64, 0, 64, 1);
        let data = m.gmem.alloc(64);
        let mut trace = ThreadTrace::default();
        let mut ctx = ComputeCtx::staged_on(&mut m.gmem, data, &layout, &[], 0, 0, 1, &mut trace);
        let _ = ctx.stream_read(StreamId(3), 0, 8);
    }

    #[test]
    fn dev_ops_functional_and_atomic_traced() {
        let mut m = Machine::test_platform();
        let layout = StagedLayout::build_window(0..64, 0, 64, 1);
        let data = m.gmem.alloc(64);
        let table = m.gmem.alloc(64);
        let mut trace = ThreadTrace::default();
        let mut ctx = ComputeCtx::staged_on(&mut m.gmem, data, &layout, &[], 0, 0, 1, &mut trace);
        ctx.dev_write(table, 0, 8, 5);
        assert_eq!(ctx.dev_read(table, 0, 8), 5);
        assert_eq!(ctx.dev_atomic_add_u32(table, 8, 3), 0);
        assert_eq!(ctx.dev_atomic_cas_u64(table, 16, 0, 9), 0);
        ctx.alu(4);
        ctx.shared(2);
        drop(ctx);
        let atomics: usize = trace
            .classed
            .iter()
            .map(|c| c.iter().filter(|a| a.atomic).count())
            .sum();
        assert_eq!(atomics, 2);
        assert_eq!(m.gmem.read_u32(table, 8), 3);
        assert_eq!(m.gmem.read_u64(table, 16), 9);
    }

    #[test]
    fn assembled_writes_land_in_write_buffer() {
        let mut m = Machine::test_platform();
        let reads = AddrStream::Raw(Vec::new());
        let writes = AddrStream::Raw(vec![entry(64, 4), entry(128, 4)]);
        let wl = ChunkLayout::build_interleaved(&[&writes]);
        let data = m.gmem.alloc(8);
        let wbuf = m.gmem.alloc(wl.total_len());
        let rl = ChunkLayout::build_interleaved(&[&reads]);
        let lane = LaneAddrs { reads, writes };
        let mut trace = ThreadTrace::default();
        let mut ctx = ComputeCtx::assembled_on(
            &mut m.gmem,
            data,
            Some(wbuf),
            &rl,
            Some(&wl),
            &lane,
            0,
            0,
            1,
            &mut trace,
        );
        ctx.stream_write(StreamId(0), 64, 4, 0xAA);
        ctx.stream_write(StreamId(0), 128, 4, 0xBB);
        drop(ctx);
        if let ChunkLayout::Interleaved { warps, .. } = &wl {
            assert_eq!(m.gmem.read_u32(wbuf, warps[0].slot(0, 0).0), 0xAA);
            assert_eq!(m.gmem.read_u32(wbuf, warps[0].slot(0, 1).0), 0xBB);
        }
    }

    #[test]
    #[should_panic(expected = "no write layout")]
    fn assembled_write_without_layout_panics() {
        let mut m = Machine::test_platform();
        let (buf, layout, lane) = interleaved_single_lane_setup(&mut m, &[(0, 1)]);
        let mut trace = ThreadTrace::default();
        let mut ctx = ComputeCtx::assembled_on(
            &mut m.gmem,
            buf,
            None,
            &layout,
            None,
            &lane,
            0,
            0,
            1,
            &mut trace,
        );
        ctx.stream_write(StreamId(0), 0, 4, 1);
    }
}

#[cfg(test)]
mod run_tests {
    //! The run reads against their element-by-element meaning: the same
    //! kernel scan performed through [`KernelCtx::stream_read_run`] and
    //! [`KernelCtx::dev_read_run`], through the trait's default run reads,
    //! and through `stream_read` / `dev_read` calls must read the same values
    //! and leave the same cost model behind, warp by warp.
    use super::*;
    use crate::addr::AddrStream;
    use crate::machine::Machine;
    use crate::pattern::{detect, MAX_PERIOD};
    use bk_gpu::trace::WarpCost;
    use bk_gpu::{KernelCost, WarpAligner, WARP_SIZE};
    use proptest::prelude::*;

    /// One kernel access: a single read, a run of `n` elements of which
    /// the scan consumes the first `take`, or a run of `n` elements of the
    /// device table.
    #[derive(Clone, Debug)]
    enum Op {
        Single(u64, u32),
        Run(u64, u32, usize, usize),
        Dev(u64, u32, usize),
    }

    /// How a block performs its runs.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Mode {
        /// Through `ComputeCtx`'s run reads.
        Runs,
        /// Through the trait's default run reads over `ComputeCtx`'s
        /// element reads.
        Defaults,
        /// Element by element.
        Elements,
    }

    /// A context that forwards every required method to a `ComputeCtx`, so
    /// its run reads are the trait defaults.
    struct Defaults<'c, 'a>(&'c mut ComputeCtx<'a>);

    impl KernelCtx for Defaults<'_, '_> {
        fn stream_read(&mut self, s: StreamId, offset: u64, width: u32) -> u64 {
            self.0.stream_read(s, offset, width)
        }
        fn stream_write(&mut self, s: StreamId, offset: u64, width: u32, value: u64) {
            self.0.stream_write(s, offset, width, value)
        }
        fn dev_read(&mut self, b: DevBufId, offset: u64, width: u32) -> u64 {
            self.0.dev_read(b, offset, width)
        }
        fn dev_write(&mut self, b: DevBufId, offset: u64, width: u32, value: u64) {
            self.0.dev_write(b, offset, width, value)
        }
        fn dev_atomic_add_u32(&mut self, b: DevBufId, offset: u64, v: u32) -> u32 {
            self.0.dev_atomic_add_u32(b, offset, v)
        }
        fn dev_atomic_add_u64(&mut self, b: DevBufId, offset: u64, v: u64) -> u64 {
            self.0.dev_atomic_add_u64(b, offset, v)
        }
        fn dev_atomic_cas_u64(&mut self, b: DevBufId, offset: u64, expected: u64, new: u64) -> u64 {
            self.0.dev_atomic_cas_u64(b, offset, expected, new)
        }
        fn alu(&mut self, n: u64) {
            self.0.alu(n)
        }
        fn shared(&mut self, n: u64) {
            self.0.shared(n)
        }
        fn thread_id(&self) -> u32 {
            self.0.thread_id()
        }
        fn num_threads(&self) -> u32 {
            self.0.num_threads()
        }
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Layout {
        Interleaved,
        PerLane,
        Staged,
    }

    /// The entries a lane's ops perform, in order.
    fn performed(ops: &[Op]) -> Vec<AddrEntry> {
        let mut out = Vec::new();
        for op in ops {
            match *op {
                Op::Single(offset, width) => out.push(AddrEntry {
                    stream: StreamId(0),
                    offset,
                    width,
                }),
                Op::Run(offset, width, _, take) => {
                    out.extend((0..take as u64).map(|i| AddrEntry {
                        stream: StreamId(0),
                        offset: offset + i * width as u64,
                        width,
                    }))
                }
                Op::Dev(..) => {}
            }
        }
        out
    }

    /// Run `ops` against `ctx` (device runs read `table`), through runs or
    /// element by element; returns every consumed value.
    fn body(ctx: &mut dyn KernelCtx, ops: &[Op], runs: bool, table: DevBufId) -> Vec<u64> {
        let mut seen = Vec::new();
        for op in ops {
            match *op {
                Op::Single(offset, width) => seen.push(ctx.stream_read(StreamId(0), offset, width)),
                Op::Run(offset, width, n, take) if runs => {
                    let w = width as usize;
                    let mut buf = vec![0u8; n * w];
                    let mut left = take;
                    let got =
                        ctx.stream_read_run(StreamId(0), offset, width, &mut buf, &mut |_| {
                            left -= 1;
                            left > 0
                        });
                    assert_eq!(got, take);
                    seen.extend(buf[..got * w].chunks_exact(w).map(le_load));
                }
                Op::Run(offset, width, _, take) => {
                    for i in 0..take as u64 {
                        seen.push(ctx.stream_read(StreamId(0), offset + i * width as u64, width));
                    }
                }
                Op::Dev(offset, width, n) if runs => {
                    let w = width as usize;
                    let mut buf = vec![0u8; n * w];
                    ctx.dev_read_run(table, offset, width, &mut buf);
                    seen.extend(buf.chunks_exact(w).map(le_load));
                }
                Op::Dev(offset, width, n) => {
                    for i in 0..n as u64 {
                        seen.push(ctx.dev_read(table, offset + i * width as u64, width));
                    }
                }
            }
            ctx.alu(1);
        }
        seen
    }

    /// Everything one block run leaves behind.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        values: Vec<Vec<u64>>,
        warps: Vec<WarpCost>,
        kernel: String,
        bytes_read: u64,
        reads: Vec<usize>,
    }

    fn run_block(lanes: &[Vec<Op>], layout: Layout, mode: Mode) -> Outcome {
        let mut m = Machine::test_platform();
        let streams: Vec<AddrStream> = lanes
            .iter()
            .map(|ops| {
                let e = performed(ops);
                match detect(&e, MAX_PERIOD) {
                    Some(p) => AddrStream::Pattern(p),
                    None => AddrStream::Raw(e),
                }
            })
            .collect();
        let refs: Vec<&AddrStream> = streams.iter().collect();
        let staged = StagedLayout::build_window(0..1 << 18, 0, 1 << 18, lanes.len());
        let chunk = match layout {
            Layout::Interleaved => Some(ChunkLayout::build_interleaved(&refs)),
            Layout::PerLane => Some(ChunkLayout::build_per_lane(&refs)),
            Layout::Staged => None,
        };
        let len = chunk
            .as_ref()
            .map_or(staged.total_len, ChunkLayout::total_len)
            .max(1);
        let data = m.gmem.alloc(len);
        let bytes: Vec<u8> = (0..len)
            .map(|i| (i.wrapping_mul(2654435761) >> 7) as u8)
            .collect();
        m.gmem.write(data, 0, &bytes);
        let table = m.gmem.alloc(TABLE_LEN);
        m.gmem
            .write(table, 0, &bytes[..TABLE_LEN.min(len) as usize]);
        let lane_addrs: Vec<LaneAddrs> = streams
            .into_iter()
            .map(|reads| LaneAddrs {
                reads,
                writes: AddrStream::Raw(Vec::new()),
            })
            .collect();
        let spec = bk_gpu::DeviceSpec::test_tiny();
        let mut out = Outcome {
            values: Vec::new(),
            warps: Vec::new(),
            kernel: String::new(),
            bytes_read: 0,
            reads: Vec::new(),
        };
        let mut kernel = KernelCost::new();
        let mut aligner = WarpAligner::new();
        let mut traces = vec![ThreadTrace::default(); WARP_SIZE];
        for warp0 in (0..lanes.len()).step_by(WARP_SIZE) {
            let in_warp = WARP_SIZE.min(lanes.len() - warp0);
            for (li, trace) in traces.iter_mut().enumerate().take(in_warp) {
                let lane = warp0 + li;
                trace.clear();
                let mut ctx = match &chunk {
                    None => {
                        ComputeCtx::staged_on(&mut m.gmem, data, &staged, &[], lane, 0, 1, trace)
                    }
                    Some(chunk) => ComputeCtx::assembled_on(
                        &mut m.gmem,
                        data,
                        None,
                        chunk,
                        None,
                        &lane_addrs[lane],
                        lane,
                        0,
                        1,
                        trace,
                    ),
                };
                out.values.push(match mode {
                    Mode::Runs => body(&mut ctx, &lanes[lane], true, table),
                    Mode::Defaults => body(&mut Defaults(&mut ctx), &lanes[lane], true, table),
                    Mode::Elements => body(&mut ctx, &lanes[lane], false, table),
                });
                out.bytes_read += ctx.stream_bytes_read;
                out.reads.push(ctx.read_count());
            }
            let w = aligner.align(&spec, &traces[..in_warp]);
            kernel.add_warp(w);
            out.warps.push(w.clone());
        }
        out.kernel = format!("{kernel:?}");
        out
    }

    /// Bytes of the device table; every `Op::Dev` stays inside it.
    const TABLE_LEN: u64 = 8192;

    fn arb_op() -> impl Strategy<Value = Op> {
        let width = || proptest::sample::select(vec![1u32, 2, 4, 8]);
        prop_oneof![
            (0u64..4096, width()).prop_map(|(o, w)| Op::Single(o, w)),
            (0u64..4096, width(), 0usize..48).prop_map(|(o, w, n)| Op::Dev(o, w, n)),
            (0u64..4096, width(), 1usize..48, 0usize..48).prop_map(|(o, w, n, t)| Op::Run(
                o,
                w,
                n,
                1 + t % n
            )),
        ]
    }

    /// Lanes of random ops, Opinion-shaped record walks (a 4 B field then a
    /// byte run, records 256 B apart) with a ragged record count, or
    /// K-means-shaped lanes (every lane stages the same `k`-row table, then
    /// reads four 8 B fields per 64 B record), some lanes without records.
    fn arb_lanes() -> impl Strategy<Value = Vec<Vec<Op>>> {
        let random = proptest::collection::vec(proptest::collection::vec(arb_op(), 0..8), 1..70);
        let records = (1usize..70, 1usize..5, 1usize..64, any::<bool>()).prop_map(
            |(lanes, records, text, ragged)| {
                (0..lanes)
                    .map(|l| {
                        let r = if ragged && l % 3 == 1 {
                            records - 1
                        } else {
                            records
                        };
                        (0..r as u64)
                            .flat_map(|i| {
                                let base = (l as u64 * 8 + i) * 256;
                                [Op::Single(base, 4), Op::Run(base + 64, 1, text, text)]
                            })
                            .collect()
                    })
                    .collect()
            },
        );
        let staging = (1usize..70, 1usize..5, 1usize..33, any::<bool>()).prop_map(
            |(lanes, records, k, ragged)| {
                (0..lanes)
                    .map(|l| {
                        if ragged && l % 3 == 1 {
                            return Vec::new();
                        }
                        let mut ops = vec![Op::Dev(0, 8, k * 4)];
                        for i in 0..records as u64 {
                            let base = (l as u64 * 8 + i) * 64;
                            ops.extend((0..4).map(|f| Op::Single(base + f * 8, 8)));
                        }
                        ops
                    })
                    .collect()
            },
        );
        prop_oneof![random, records, staging]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// Run reads (the compute context's and the trait defaults) and
        /// element reads agree on values, counters, the stage's
        /// `KernelCost` (every field) and each warp's `WarpCost`, under
        /// every layout.
        #[test]
        fn run_reads_match_element_reads(
            lanes in arb_lanes(),
            layout in proptest::sample::select(vec![Layout::Interleaved, Layout::PerLane, Layout::Staged]),
        ) {
            let by_element = run_block(&lanes, layout, Mode::Elements);
            prop_assert_eq!(&run_block(&lanes, layout, Mode::Runs), &by_element);
            prop_assert_eq!(&run_block(&lanes, layout, Mode::Defaults), &by_element);
        }
    }

    fn single_lane(ops: &[Op], addrs: Vec<AddrEntry>, corrupt: bool) {
        let mut m = Machine::test_platform();
        let mut entries = addrs;
        if corrupt {
            // Ordinal 5: the fifth byte of the run after the 4 B field.
            entries[5].offset += 1;
        }
        let stream = AddrStream::Raw(entries);
        let layout = ChunkLayout::build_interleaved(&[&stream]);
        let buf = m.gmem.alloc(layout.total_len().max(8));
        let lane = LaneAddrs {
            reads: stream,
            writes: AddrStream::Raw(Vec::new()),
        };
        let mut trace = ThreadTrace::default();
        let mut ctx = ComputeCtx::assembled_on(
            &mut m.gmem,
            buf,
            None,
            &layout,
            None,
            &lane,
            0,
            0,
            1,
            &mut trace,
        );
        body(&mut ctx, ops, true, buf);
    }

    #[test]
    #[should_panic(expected = "address-stream mismatch: lane 0 read #5")]
    fn corrupted_element_inside_a_run_panics_with_its_ordinal() {
        let ops = [Op::Single(0, 4), Op::Run(64, 1, 20, 20)];
        single_lane(&ops, performed(&ops), true);
    }

    #[test]
    #[should_panic(expected = "address-stream mismatch: lane 0 read #43")]
    fn corrupted_element_of_a_pattern_stream_panics_with_its_ordinal() {
        // Four records of a 4 B field and a 20-byte run compress to a
        // period-21 pattern; the kernel's third run starts one byte late,
        // so its first element (ordinal 2 * 21 + 1) mismatches.
        let record = |r: u64, late: u64| {
            [
                Op::Single(r * 256, 4),
                Op::Run(r * 256 + 64 + late, 1, 20, 20),
            ]
        };
        let emitted: Vec<Op> = (0..4).flat_map(|r| record(r, 0)).collect();
        let performed_ops: Vec<Op> = (0..4).flat_map(|r| record(r, u64::from(r == 2))).collect();
        let mut m = Machine::test_platform();
        let stream = AddrStream::Pattern(detect(&performed(&emitted), MAX_PERIOD).unwrap());
        let layout = ChunkLayout::build_interleaved(&[&stream]);
        let buf = m.gmem.alloc(layout.total_len());
        let lane = LaneAddrs {
            reads: stream,
            writes: AddrStream::Raw(Vec::new()),
        };
        let mut trace = ThreadTrace::default();
        let mut ctx = ComputeCtx::assembled_on(
            &mut m.gmem,
            buf,
            None,
            &layout,
            None,
            &lane,
            0,
            0,
            1,
            &mut trace,
        );
        body(&mut ctx, &performed_ops, true, buf);
    }

    #[test]
    #[should_panic(expected = "performed stream read #11 but its address slice emitted only 11")]
    fn run_past_the_emitted_window_panics() {
        let ops = [Op::Single(0, 4), Op::Run(64, 1, 20, 20)];
        let mut addrs = performed(&ops);
        addrs.truncate(11);
        single_lane(&ops, addrs, false);
    }

    #[test]
    fn partial_consumption_leaves_the_rest_for_the_next_read() {
        let ops = [Op::Run(64, 1, 20, 7), Op::Run(71, 1, 20, 13)];
        single_lane(&ops, performed(&ops), false);
    }
}
