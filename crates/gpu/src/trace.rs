//! Per-thread access traces, warp-level alignment and memory coalescing.
//!
//! The paper's third motivating problem (§I): GPU memory bandwidth is only
//! achievable when the 32 threads of a warp access adjacent locations, so
//! that the hardware can merge them into few memory transactions; scattered
//! or strided accesses serialize into many transactions.
//!
//! We model Kepler-style coalescing: for one lock-step access by a warp, the
//! addressed bytes are covered by aligned 32-byte segments; each distinct
//! segment touched costs one transaction that moves the full 32 bytes. A
//! fully-coalesced 4-byte access by 32 lanes touches 4 segments (128 bytes);
//! a 48-byte-strided access touches up to 32 segments (1024 bytes moved for
//! 128 useful); an access straddling a segment boundary touches both, and
//! lanes reading the same word share its one segment (a broadcast).
//!
//! Kernel threads in this simulator run one after another (sequentially) for
//! functional simplicity, but the *timing* model needs warp-level lock-step
//! behaviour: the i-th global access of each lane in a warp happens in the
//! same cycle and coalesces (or not) with its 31 siblings. So each thread
//! records a compact trace of its memory accesses; once a warp's 32 lanes
//! have run, [`WarpAligner`] aligns the traces by access index and feeds each
//! aligned step through that coalescing model ([`StepCost`] per step).
//!
//! This trace-then-align approach is exact for the streaming kernels the
//! paper targets (no data-dependent reconvergence games) and keeps memory
//! bounded: traces are reused per warp, never stored for the whole kernel.
//!
//! A contiguous run read — of a mapped stream or of a device buffer — is
//! recorded as one strided [`TraceRec`] standing for `count` accesses (and
//! `count` issue slots), never expanded into the trace. The aligner expands
//! runs lazily, one step at a time, and charges whole step ranges in closed
//! form in two shapes (see [`WarpAligner::align`]): every active lane inside
//! a run of the same width and a stride that is a multiple of the segment
//! size (the interleaved stream layout), or every active lane at the same
//! element of an identical run (a broadcast: a warp staging one device-side
//! table, like K-means' centroids), which costs one lane's walk. Either way
//! the cost equals that of the per-access expansion exactly.

use crate::spec::{DeviceSpec, WARP_SIZE};

/// Cost of one aligned warp step (or a sum of steps) against global memory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepCost {
    /// Number of DRAM memory transactions (distinct new segments touched).
    pub transactions: u64,
    /// Bytes actually moved over the DRAM interface
    /// (`transactions * segment_bytes`).
    pub bytes_moved: u64,
    /// Bytes served from L2 (segments re-touched within the reuse window) —
    /// cheaper than DRAM but not free; the L2 has ~4x DRAM bandwidth.
    pub bytes_l2: u64,
    /// Bytes the lanes asked for (useful bytes).
    pub bytes_useful: u64,
}

impl StepCost {
    /// Accumulate another step's cost into this one.
    pub fn merge(&mut self, other: StepCost) {
        self.transactions += other.transactions;
        self.bytes_moved += other.bytes_moved;
        self.bytes_l2 += other.bytes_l2;
        self.bytes_useful += other.bytes_useful;
    }
}

/// Classifies one recorded memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Plain load.
    Read,
    /// Plain store.
    Write,
    /// Atomic read-modify-write (adds atomic-unit cost on top of the
    /// transaction).
    Atomic,
}

/// Which warp-alignment class an access belongs to.
///
/// Lanes of a warp are aligned *per class by ordinal*: the k-th
/// mapped-stream read of each lane coalesces with its siblings' k-th reads
/// (that is the contract of BigKernel's `dataBuf[counter][tid]` layout and
/// matches reconvergent SIMT execution of record-structured loops), and
/// likewise for stream writes and for device-buffer accesses. Aligning one
/// merged sequence instead would let lanes drift after divergent sections
/// (e.g. per-word dictionary lookups) and spuriously destroy coalescing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessClass {
    /// Read of a mapped-stream (prefetch) buffer.
    StreamRead,
    /// Write of a mapped-stream (write-back staging) buffer.
    StreamWrite,
    /// Access to persistent device state (hash tables, accumulators).
    Dev,
}

impl AccessClass {
    /// Every class, in [`AccessClass::index`] order.
    pub const ALL: [AccessClass; 3] = [
        AccessClass::StreamRead,
        AccessClass::StreamWrite,
        AccessClass::Dev,
    ];

    /// Dense index of the class, for per-class scratch arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            AccessClass::StreamRead => 0,
            AccessClass::StreamWrite => 1,
            AccessClass::Dev => 2,
        }
    }
}

/// One recorded global-memory access record: `count` accesses of `width`
/// bytes at `addr`, `addr + stride`, `addr + 2 * stride`, ... issued one per
/// lock-step, in that order. A single access is a record with `count == 1`
/// (its `stride` is unused); a run read records its contiguous run as one
/// record, so tracing it costs one push instead of one per element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRec {
    /// Device address of the first access.
    pub addr: u64,
    /// Accesses the record stands for (at least 1).
    pub count: u32,
    /// Address advance between consecutive accesses of the record.
    pub stride: u16,
    /// Width of every access in bytes.
    pub width: u8,
    /// Whether the access is an atomic read-modify-write (single records
    /// only; runs are plain loads or stores).
    pub atomic: bool,
}

impl TraceRec {
    /// Address of the record's `e`-th access.
    #[inline]
    pub fn addr_at(&self, e: u32) -> u64 {
        self.addr + e as u64 * self.stride as u64
    }
}

/// One recorded shared-memory access (cost-only; shared memory holds
/// transient per-block state that the kernels keep in locals functionally).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SharedAccess {
    /// Byte address within the block's shared memory.
    pub addr: u32,
    /// Access width in bytes.
    pub width: u32,
}

/// Shared memory banks on Kepler-class parts: 32 banks of 4-byte words.
pub const SHARED_BANKS: u32 = 32;
/// Width of one shared-memory bank word in bytes.
pub const SHARED_BANK_BYTES: u32 = 4;

/// Trace of one thread's execution within a chunk.
#[derive(Clone, Debug, Default)]
pub struct ThreadTrace {
    /// Global-memory access records grouped by alignment class (program
    /// order within each class). Grouping at record time lets
    /// [`WarpAligner::align`] address "lane's k-th class-c access" directly
    /// instead of rebuilding a per-class view for every warp.
    pub classed: [Vec<TraceRec>; 3],
    /// Per class: whether any record stands for more than one access. A
    /// class without runs keeps the aligner's direct-index path.
    pub has_runs: [bool; 3],
    /// Addressed shared-memory accesses, aligned per ordinal for the bank
    /// conflict model.
    pub shared: Vec<SharedAccess>,
    /// Dynamic instructions issued by this lane (ALU + control + one issue
    /// slot per memory/shared access; recorded by the kernel context).
    pub instructions: u64,
    /// Unaddressed shared-memory accesses (issue slots only).
    pub shared_accesses: u64,
}

impl ThreadTrace {
    /// Reset the trace for reuse by the next thread.
    pub fn clear(&mut self) {
        for c in &mut self.classed {
            c.clear();
        }
        self.has_runs = [false; 3];
        self.shared.clear();
        self.instructions = 0;
        self.shared_accesses = 0;
    }

    /// Record an addressed shared-memory access (bank-conflict analyzed).
    #[inline]
    pub fn record_shared(&mut self, addr: u32, width: u32) {
        self.shared.push(SharedAccess { addr, width });
        self.instructions += 1;
    }

    /// Record `n` addressed shared accesses at `base`, `base + stride`, ... —
    /// the trace is identical to `n` [`ThreadTrace::record_shared`] calls.
    #[inline]
    pub fn record_shared_strided(&mut self, base: u32, stride: u32, n: u32, width: u32) {
        self.shared.extend((0..n).map(|i| SharedAccess {
            addr: base + i * stride,
            width,
        }));
        self.instructions += n as u64;
    }

    /// Total global-memory accesses recorded across all classes (a run
    /// record counts each of its accesses).
    pub fn access_count(&self) -> usize {
        self.classed
            .iter()
            .flatten()
            .map(|r| r.count as usize)
            .sum()
    }

    /// Record one global-memory access (one issue slot).
    #[inline]
    pub fn record(&mut self, addr: u64, width: u32, kind: AccessKind, class: AccessClass) {
        debug_assert!((1..=u8::MAX as u32).contains(&width));
        self.classed[class.index()].push(TraceRec {
            addr,
            count: 1,
            stride: 0,
            width: width as u8,
            atomic: kind == AccessKind::Atomic,
        });
        self.instructions += 1;
    }

    /// Record `n` plain (non-atomic) accesses of `width` bytes at `addr`,
    /// `addr + stride`, ... — `n` issue slots, and exactly the trace `n`
    /// [`ThreadTrace::record`] calls describe to the aligner. A run that
    /// continues the class's last run record (same width and stride, next
    /// address in line) extends it, so a lane scanning its data in several
    /// calls still holds one record.
    #[inline]
    pub fn record_run(&mut self, addr: u64, width: u32, stride: u64, n: u32, class: AccessClass) {
        debug_assert!((1..=u8::MAX as u32).contains(&width));
        if n == 0 {
            return;
        }
        self.instructions += n as u64;
        let ci = class.index();
        let Ok(stride) = u16::try_from(stride) else {
            for e in 0..n as u64 {
                self.classed[ci].push(TraceRec {
                    addr: addr + e * stride,
                    count: 1,
                    stride: 0,
                    width: width as u8,
                    atomic: false,
                });
            }
            return;
        };
        let recs = &mut self.classed[ci];
        if let Some(last) = recs.last_mut() {
            let joins = !last.atomic
                && last.width as u32 == width
                && (last.count == 1 || last.stride == stride)
                && last.addr + last.count as u64 * stride as u64 == addr;
            if joins {
                if let Some(count) = last.count.checked_add(n) {
                    last.stride = stride;
                    last.count = count;
                    self.has_runs[ci] = true;
                    return;
                }
            }
        }
        recs.push(TraceRec {
            addr,
            count: n,
            stride,
            width: width as u8,
            atomic: false,
        });
        self.has_runs[ci] |= n > 1;
    }

    /// Account `n` ALU/control instructions.
    #[inline]
    pub fn alu(&mut self, n: u64) {
        self.instructions += n;
    }

    /// Account `n` unaddressed shared-memory accesses (issue slots only,
    /// no bank-conflict analysis).
    #[inline]
    pub fn shared(&mut self, n: u64) {
        self.shared_accesses += n;
        self.instructions += n;
    }
}

/// Result of aligning one warp's lanes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WarpCost {
    /// Aggregated coalescing cost over all aligned steps.
    pub mem: StepCost,
    /// Issue slots consumed by the warp: `max(lane instructions) * 32`
    /// (lock-step issue; short lanes waste their slots — this is how
    /// divergence shows up as cost).
    pub issue_slots: u64,
    /// Sum of lane instruction counts (useful work), for utilization stats.
    pub useful_instructions: u64,
    /// Addresses of atomic operations, for contention tracking by the
    /// caller.
    pub atomic_addrs: Vec<u64>,
    /// Total shared-memory accesses issued by the warp.
    pub shared_accesses: u64,
    /// Extra warp issue slots from shared-memory bank-conflict replays: a
    /// step whose lanes hit the same bank at different words re-issues once
    /// per extra way.
    pub bank_replay_slots: u64,
}

/// Aligns up to [`WARP_SIZE`] thread traces and produces a [`WarpCost`].
///
/// All working storage is owned by the aligner and reused across calls, so
/// [`WarpAligner::align`] performs no heap allocations in steady state (once
/// every scratch vector has grown to the warp's working-set size). The
/// per-class access index comes straight from each trace's
/// [`ThreadTrace::classed`] storage — no per-warp rebuild.
pub struct WarpAligner {
    prev_segs: Vec<u64>,
    cur_segs: Vec<u64>,
    /// Per-lane `(record, element)` cursors of the run-aware path.
    cursors: Vec<(usize, u32)>,
    /// Bank-conflict scratch: `(bank, word)` pairs of one shared step.
    words: Vec<(u32, u32)>,
    cost: WarpCost,
}

impl Default for WarpAligner {
    fn default() -> Self {
        Self::new()
    }
}

impl WarpAligner {
    /// A fresh aligner with empty scratch storage.
    pub fn new() -> Self {
        WarpAligner {
            prev_segs: Vec::new(),
            cur_segs: Vec::new(),
            cursors: Vec::with_capacity(WARP_SIZE),
            words: Vec::with_capacity(WARP_SIZE),
            cost: WarpCost::default(),
        }
    }

    /// Align `lanes` (1..=32 traces) and compute the warp's cost.
    ///
    /// A one-step segment-reuse window models the GPU's L2: a memory
    /// segment touched in the immediately preceding warp step is still
    /// resident and costs no new transaction. This is what keeps
    /// *sequential* per-thread scans (each lane walking its own region byte
    /// by byte) from being charged a full transaction per byte — on real
    /// hardware the 32-byte sector fetched for step `k` serves steps
    /// `k+1..k+31` of the same lane. Strided record walks still pay per
    /// record, and scattered accesses pay per access.
    ///
    /// Run records cost exactly what their per-access expansion costs. A
    /// class without runs is walked by direct index; a class with runs by
    /// per-lane `(record, element)` cursors, with step ranges where every
    /// active lane is inside an equal-shape, segment-multiple-stride run, or
    /// at the same element of an identical run (a broadcast), charged in
    /// closed form (the derivations are on the private `align_runs`).
    ///
    /// The returned reference borrows the aligner's internal cost buffer; it
    /// is valid until the next `align` call. Callers that need to keep the
    /// result must clone it (the pipeline folds it into a `KernelCost`
    /// immediately, so it never does).
    pub fn align(&mut self, spec: &DeviceSpec, lanes: &[ThreadTrace]) -> &WarpCost {
        assert!(
            !lanes.is_empty() && lanes.len() <= WARP_SIZE,
            "warp must have 1..=32 lanes"
        );
        let seg = spec.segment_bytes;
        // Segment sizes are powers of two on every real part; requiring it
        // here keeps the per-access math off the u64-divide unit.
        assert!(
            seg.is_power_of_two(),
            "segment_bytes must be a power of two"
        );
        let seg_shift = seg.trailing_zeros();

        self.cost.mem = StepCost::default();
        self.cost.issue_slots = 0;
        self.cost.useful_instructions = 0;
        self.cost.atomic_addrs.clear();
        self.cost.shared_accesses = 0;
        self.cost.bank_replay_slots = 0;

        for ci in 0..3 {
            self.prev_segs.clear();
            if lanes.iter().any(|l| l.has_runs[ci]) {
                self.align_runs(ci, seg, lanes);
                continue;
            }
            let mut step = 0usize;
            loop {
                // One pass per step: collect the distinct segments touched
                // (minus the one-step reuse window) and the useful bytes
                // directly from the flat index.
                self.cur_segs.clear();
                let mut useful = 0u64;
                let mut sorted = true;
                let mut active = false;
                for lane in lanes {
                    let Some(r) = lane.classed[ci].get(step) else {
                        continue;
                    };
                    active = true;
                    Self::touch_into(
                        &mut self.cur_segs,
                        &mut self.cost.atomic_addrs,
                        r.addr,
                        r.width,
                        r.atomic,
                        seg_shift,
                        &mut useful,
                        &mut sorted,
                    );
                }
                if !active {
                    break;
                }
                self.finish_step(seg, useful, sorted);
                step += 1;
            }
        }

        // Shared-memory bank conflicts: align addressed shared accesses by
        // ordinal; within one step, lanes hitting the same bank at
        // *different* words serialize (same-word accesses broadcast free).
        // Lock-step kernels (every lane issuing the identical shared
        // sequence — the staged-centroid idiom) make every step a same-word
        // broadcast by construction, so one sequence compare per lane
        // replaces the whole per-step scan.
        let uniform = lanes[1..].iter().all(|l| l.shared == lanes[0].shared);
        let max_shared = if uniform {
            0
        } else {
            lanes.iter().map(|l| l.shared.len()).max().unwrap_or(0)
        };
        for step in 0..max_shared {
            self.words.clear();
            let mut broadcast = true;
            for lane in lanes {
                if let Some(a) = lane.shared.get(step) {
                    let word = a.addr / SHARED_BANK_BYTES;
                    let pair = (word % SHARED_BANKS, word);
                    broadcast &= self.words.last().is_none_or(|&p| p == pair);
                    self.words.push(pair);
                }
            }
            if broadcast {
                // Every lane hit the same word (the common shared-memory
                // idiom: one value read by the whole warp) — conflict-free.
                continue;
            }
            self.words.sort_unstable();
            self.words.dedup(); // same-word lanes broadcast
            let mut max_ways = 1u64;
            let mut i = 0;
            while i < self.words.len() {
                let bank = self.words[i].0;
                let mut ways = 0u64;
                while i < self.words.len() && self.words[i].0 == bank {
                    ways += 1;
                    i += 1;
                }
                max_ways = max_ways.max(ways);
            }
            self.cost.bank_replay_slots += (max_ways - 1) * WARP_SIZE as u64;
        }

        let max_instr = lanes.iter().map(|l| l.instructions).max().unwrap_or(0);
        self.cost.issue_slots = max_instr * WARP_SIZE as u64 + self.cost.bank_replay_slots;
        self.cost.useful_instructions = lanes.iter().map(|l| l.instructions).sum();
        self.cost.shared_accesses = lanes.iter().map(|l| l.shared_accesses).sum::<u64>()
            + lanes.iter().map(|l| l.shared.len() as u64).sum::<u64>();
        &self.cost
    }

    /// Add one lane's access to the step collected in `cur_segs`: its
    /// segments are appended, deduplicated inline while the sequence stays
    /// sorted (lanes usually touch segments in ascending order — coalesced
    /// layouts are built that way); `sorted` drops to false when it does not.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn touch_into(
        cur_segs: &mut Vec<u64>,
        atomic_addrs: &mut Vec<u64>,
        addr: u64,
        width: u8,
        is_atomic: bool,
        seg_shift: u32,
        useful: &mut u64,
        sorted: &mut bool,
    ) {
        if is_atomic {
            atomic_addrs.push(addr);
        }
        *useful += width as u64;
        let first = addr >> seg_shift;
        let last = (addr + width as u64 - 1) >> seg_shift;
        for s in first..=last {
            match cur_segs.last() {
                Some(&p) if *sorted && p == s => {}
                Some(&p) if p > s => {
                    *sorted = false;
                    cur_segs.push(s);
                }
                _ => cur_segs.push(s),
            }
        }
    }

    /// Charge the step collected in `cur_segs`: a segment also touched in
    /// the previous step is an L2 reuse, any other a new transaction. The
    /// step's segments become the next step's reuse window.
    #[inline]
    fn finish_step(&mut self, seg: u64, useful: u64, sorted: bool) {
        if !sorted {
            self.cur_segs.sort_unstable();
            self.cur_segs.dedup();
        }
        let new_txns = self
            .cur_segs
            .iter()
            .filter(|s| self.prev_segs.binary_search(s).is_err())
            .count() as u64;
        let reused = self.cur_segs.len() as u64 - new_txns;
        self.cost.mem.merge(StepCost {
            transactions: new_txns,
            bytes_moved: new_txns * seg,
            bytes_l2: reused * seg,
            bytes_useful: useful,
        });
        std::mem::swap(&mut self.prev_segs, &mut self.cur_segs);
    }

    /// Align class `ci` when some lane holds run records: every lane walks
    /// its records with a `(record, element)` cursor, so a run expands
    /// lazily, one step at a time, into exactly the accesses it stands for.
    ///
    /// Where every active lane sits inside a run of the same width and the
    /// same stride `S`, and `S` is a multiple of the segment size, the next
    /// `L` steps (up to the shortest remaining run) are charged in closed
    /// form. Step `t` of the range touches the segments of its first step
    /// shifted by `t * S / seg`, so with `n0` distinct segments per step and
    /// `o` of them whose shifted copy is again one of them, step 0 pays
    /// what the ordinary step would and every later step pays `n0 - o` new
    /// transactions and reuses `o`. The sums equal the step-by-step sums
    /// exactly; only the work is gone.
    ///
    /// Where instead every active lane sits at the same element of an
    /// identical run (same current address, width, stride and remaining
    /// count: a warp-uniform table read), each step of the run is one
    /// access broadcast to the warp, so the whole run is charged by walking
    /// that one access, with `active * width` useful bytes per step. The
    /// same probe pass over the lanes detects both forms.
    fn align_runs(&mut self, ci: usize, seg: u64, lanes: &[ThreadTrace]) {
        let seg_shift = seg.trailing_zeros();
        self.cursors.clear();
        self.cursors.resize(lanes.len(), (0, 0));
        loop {
            // Closed-form probe over the active lanes: the first lane's
            // `(address, width, stride, remaining)`, whether every lane
            // shares its width and stride, and whether every lane is at
            // exactly that element.
            let mut first: Option<(u64, u8, u16, u32)> = None;
            let mut uniform = true;
            let mut broadcast = true;
            let mut steps = u32::MAX;
            let mut active = 0u64;
            for (lane, &(ri, e)) in lanes.iter().zip(&self.cursors) {
                let Some(r) = lane.classed[ci].get(ri) else {
                    continue;
                };
                active += 1;
                let at = (r.addr_at(e), r.width, r.stride, r.count - e);
                if r.count < 2 || r.atomic || first.is_some_and(|f| (f.1, f.2) != (at.1, at.2)) {
                    uniform = false;
                    break;
                }
                broadcast &= first.is_none_or(|f| f == at);
                first.get_or_insert(at);
                steps = steps.min(at.3);
            }
            if active == 0 {
                break;
            }
            let shape = first.filter(|_| uniform && steps >= 2);
            let closed = shape.and_then(|(_, _, stride, _)| {
                (stride as u64)
                    .is_multiple_of(seg)
                    .then_some((stride as u64) >> seg_shift)
            });
            if let Some((addr, width, stride, _)) = shape.filter(|_| closed.is_none() && broadcast)
            {
                self.walk_broadcast(seg, addr, width, stride, steps, active);
                // Every active lane had exactly `steps` elements left.
                for (lane, cur) in lanes.iter().zip(self.cursors.iter_mut()) {
                    if cur.0 < lane.classed[ci].len() {
                        *cur = (cur.0 + 1, 0);
                    }
                }
                continue;
            }
            self.cur_segs.clear();
            let mut useful = 0u64;
            let mut sorted = true;
            let taken = if closed.is_some() { steps } else { 1 };
            for (lane, cur) in lanes.iter().zip(self.cursors.iter_mut()) {
                let Some(r) = lane.classed[ci].get(cur.0) else {
                    continue;
                };
                let (addr, width, atomic) = (r.addr_at(cur.1), r.width, r.atomic);
                cur.1 += taken;
                if cur.1 == r.count {
                    *cur = (cur.0 + 1, 0);
                }
                Self::touch_into(
                    &mut self.cur_segs,
                    &mut self.cost.atomic_addrs,
                    addr,
                    width,
                    atomic,
                    seg_shift,
                    &mut useful,
                    &mut sorted,
                );
            }
            match closed {
                None => self.finish_step(seg, useful, sorted),
                Some(shift) => {
                    if !sorted {
                        self.cur_segs.sort_unstable();
                        self.cur_segs.dedup();
                    }
                    let n0 = self.cur_segs.len() as u64;
                    let first_new = self
                        .cur_segs
                        .iter()
                        .filter(|s| self.prev_segs.binary_search(s).is_err())
                        .count() as u64;
                    let overlap = self
                        .cur_segs
                        .iter()
                        .filter(|&&s| self.cur_segs.binary_search(&(s + shift)).is_ok())
                        .count() as u64;
                    let l = steps as u64;
                    let txns = first_new + (l - 1) * (n0 - overlap);
                    let reused = l * n0 - txns;
                    self.cost.mem.merge(StepCost {
                        transactions: txns,
                        bytes_moved: txns * seg,
                        bytes_l2: reused * seg,
                        bytes_useful: l * useful,
                    });
                    // The range's last step is the next step's reuse window.
                    let last = (l - 1) * shift;
                    for s in self.cur_segs.iter_mut() {
                        *s += last;
                    }
                    std::mem::swap(&mut self.prev_segs, &mut self.cur_segs);
                }
            }
        }
    }

    /// Charge `steps` broadcast steps: step `t` is the one access
    /// `addr + t * stride` of `width` bytes, issued by `active` lanes. A
    /// single access touches one contiguous segment range, so each step's
    /// reuse is the overlap of its range with the previous step's; the
    /// first step is checked against the reuse window left in `prev_segs`,
    /// and the last step's range becomes the next one.
    fn walk_broadcast(
        &mut self,
        seg: u64,
        addr: u64,
        width: u8,
        stride: u16,
        steps: u32,
        active: u64,
    ) {
        let seg_shift = seg.trailing_zeros();
        let range = |a: u64| (a >> seg_shift, (a + width as u64 - 1) >> seg_shift);
        let (mut lo, mut hi) = range(addr);
        let mut txns = (lo..=hi)
            .filter(|s| self.prev_segs.binary_search(s).is_err())
            .count() as u64;
        let mut touched = hi - lo + 1;
        for t in 1..steps as u64 {
            let (nlo, nhi) = range(addr + t * stride as u64);
            let overlap = (hi.min(nhi) + 1).saturating_sub(lo.max(nlo));
            touched += nhi - nlo + 1;
            txns += nhi - nlo + 1 - overlap;
            (lo, hi) = (nlo, nhi);
        }
        self.cost.mem.merge(StepCost {
            transactions: txns,
            bytes_moved: txns * seg,
            bytes_l2: (touched - txns) * seg,
            bytes_useful: steps as u64 * active * width as u64,
        });
        self.prev_segs.clear();
        self.prev_segs.extend(lo..=hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::test_tiny()
    }

    fn lane_with_reads(addrs: &[u64], width: u32) -> ThreadTrace {
        let mut t = ThreadTrace::default();
        for &a in addrs {
            t.record(a, width, AccessKind::Read, AccessClass::StreamRead);
        }
        t
    }

    #[test]
    fn coalesced_warp_costs_few_transactions() {
        // 32 lanes, 2 steps each, contiguous 4B per step: step k lane i reads
        // base + k*128 + i*4 → 4 transactions per step, 8 total.
        let lanes: Vec<ThreadTrace> = (0..32u64)
            .map(|i| lane_with_reads(&[4096 + i * 4, 4096 + 128 + i * 4], 4))
            .collect();
        let mut al = WarpAligner::new();
        let c = al.align(&spec(), &lanes);
        assert_eq!(c.mem.transactions, 8);
        assert_eq!(c.mem.bytes_useful, 32 * 2 * 4);

        // One-step warps: (lane addresses, width) → (transactions, bytes
        // moved, useful bytes).
        let one_step = |addrs: Vec<u64>, width: u32| {
            let lanes: Vec<ThreadTrace> = addrs
                .iter()
                .map(|&a| lane_with_reads(&[a], width))
                .collect();
            let m = WarpAligner::new().align(&spec(), &lanes).mem;
            (m.transactions, m.bytes_moved, m.bytes_useful)
        };
        // An unaligned access straddling a segment boundary touches both.
        assert_eq!(one_step(vec![4096 + 30], 4), (2, 64, 4));
        // Every lane reading the same word is one transaction (broadcast).
        assert_eq!(one_step(vec![4096; 32], 8), (1, 32, 32 * 8));
        // 32 contiguous bytes are exactly one segment: nothing is wasted.
        assert_eq!(
            one_step((0..32).map(|i| 8192 + i).collect(), 1),
            (1, 32, 32)
        );
        // The same bytes 2 KiB apart touch one segment each.
        assert_eq!(
            one_step((0..32).map(|i| 8192 + i * 2048).collect(), 1),
            (32, 1024, 32)
        );
    }

    #[test]
    fn lockstep_issue_charges_divergence() {
        let mut short = ThreadTrace::default();
        short.alu(10);
        let mut long = ThreadTrace::default();
        long.alu(100);
        let mut al = WarpAligner::new();
        let c = al.align(&spec(), &[short, long]);
        assert_eq!(c.issue_slots, 100 * 32);
        assert_eq!(c.useful_instructions, 110);
    }

    #[test]
    fn ragged_lanes_align_by_index() {
        // Lane 0 has 2 accesses, lane 1 has 1. Step 1 only has lane 0.
        let l0 = lane_with_reads(&[4096, 8192], 4);
        let l1 = lane_with_reads(&[4100], 4);
        let mut al = WarpAligner::new();
        let c = al.align(&spec(), &[l0, l1]);
        // step 0: 4096 & 4100 share a segment (1 txn); step 1: 8192 (1 txn)
        assert_eq!(c.mem.transactions, 2);
    }

    #[test]
    fn sequential_byte_scan_reuses_segments() {
        // One lane reading 64 consecutive bytes: without reuse that would
        // be 64 probes of 2 segments; with the one-step reuse window only
        // the two segment *entries* cost transactions.
        let addrs: Vec<u64> = (0..64u64).map(|i| 4096 + i).collect();
        let lane = lane_with_reads(&addrs, 1);
        let mut al = WarpAligner::new();
        let c = al.align(&spec(), &[lane]);
        assert_eq!(c.mem.transactions, 2, "{:?}", c.mem);
        assert_eq!(c.mem.bytes_useful, 64);
    }

    #[test]
    fn strided_record_walk_still_pays_per_record() {
        // One lane reading one 8B field per 4 KiB record: every access is a
        // fresh segment; reuse must not help.
        let addrs: Vec<u64> = (0..16u64).map(|i| 4096 + i * 4096).collect();
        let lane = lane_with_reads(&addrs, 8);
        let mut al = WarpAligner::new();
        let c = al.align(&spec(), &[lane]);
        assert_eq!(c.mem.transactions, 16);
    }

    #[test]
    fn atomics_are_reported() {
        let mut t = ThreadTrace::default();
        t.record(4096, 4, AccessKind::Atomic, AccessClass::Dev);
        t.record(4096, 4, AccessKind::Atomic, AccessClass::Dev);
        let mut al = WarpAligner::new();
        let c = al.align(&spec(), &[t]);
        assert_eq!(c.atomic_addrs, vec![4096, 4096]);
    }

    #[test]
    fn record_counts_instructions() {
        let mut t = ThreadTrace::default();
        t.record(0x1000, 8, AccessKind::Read, AccessClass::StreamRead);
        t.alu(5);
        t.shared(2);
        assert_eq!(t.instructions, 8);
        assert_eq!(t.shared_accesses, 2);
        t.clear();
        assert_eq!(t.instructions, 0);
        assert_eq!(t.access_count(), 0);
    }

    #[test]
    #[should_panic(expected = "warp must have")]
    fn oversized_warp_rejected() {
        let lanes = vec![ThreadTrace::default(); 33];
        WarpAligner::new().align(&spec(), &lanes);
    }

    #[test]
    fn reused_aligner_matches_fresh_aligner() {
        // The aligner's scratch must fully reset between calls: aligning a
        // large atomic-heavy warp first, then a second workload, must give
        // the same cost a fresh aligner computes for that second workload.
        let s = spec();
        let noisy: Vec<ThreadTrace> = (0..32u64)
            .map(|i| {
                let mut t = ThreadTrace::default();
                t.record(i * 4096, 4, AccessKind::Atomic, AccessClass::Dev);
                t.record(i * 8, 8, AccessKind::Read, AccessClass::StreamRead);
                t.record(i * 8, 8, AccessKind::Write, AccessClass::StreamWrite);
                t.record_shared((i as u32 % 8) * 128, 4);
                t
            })
            .collect();
        let probe: Vec<ThreadTrace> = (0..7u64)
            .map(|i| lane_with_reads(&[1 << 16, (1 << 16) + i * 4], 4))
            .collect();

        let mut reused = WarpAligner::new();
        reused.align(&s, &noisy);
        let got = reused.align(&s, &probe).clone();
        let mut fresh = WarpAligner::new();
        assert_eq!(&got, fresh.align(&s, &probe));
    }
}

#[cfg(test)]
mod run_tests {
    use super::*;
    use proptest::prelude::*;

    /// One traced operation: a single access or a strided run.
    #[derive(Clone, Debug)]
    enum Op {
        Single(u64, u32, bool),
        Run(u64, u32, u64, u32),
    }

    /// The same operations recorded as written and expanded into one
    /// `record` per access. Every operation is recorded in both the
    /// stream-read and the device class.
    fn traces(ops: &[(usize, Op)], lanes: usize) -> (Vec<ThreadTrace>, Vec<ThreadTrace>) {
        let mut runs = vec![ThreadTrace::default(); lanes];
        let mut flat = vec![ThreadTrace::default(); lanes];
        for (lane, op) in ops {
            let (r, f) = (&mut runs[*lane], &mut flat[*lane]);
            match *op {
                Op::Single(addr, w, atomic) => {
                    let kind = if atomic {
                        AccessKind::Atomic
                    } else {
                        AccessKind::Read
                    };
                    r.record(addr, w, kind, AccessClass::Dev);
                    f.record(addr, w, kind, AccessClass::Dev);
                    r.record(addr, w, AccessKind::Read, AccessClass::StreamRead);
                    f.record(addr, w, AccessKind::Read, AccessClass::StreamRead);
                }
                Op::Run(addr, w, stride, n) => {
                    for class in [AccessClass::StreamRead, AccessClass::Dev] {
                        r.record_run(addr, w, stride, n, class);
                        for e in 0..n as u64 {
                            f.record(addr + e * stride, w, AccessKind::Read, class);
                        }
                    }
                }
            }
        }
        (runs, flat)
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let width = || proptest::sample::select(vec![1u32, 2, 4, 8]);
        prop_oneof![
            (0u64..4096, width(), any::<bool>()).prop_map(|(a, w, t)| Op::Single(a, w, t)),
            (
                0u64..4096,
                width(),
                proptest::sample::select(vec![0u64, 1, 2, 4, 8, 32, 64, 96, 128, 256, 70_000]),
                1u32..80,
            )
                .prop_map(|(a, w, st, n)| Op::Run(a, w, st, n)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Run records align to exactly the cost of their per-access
        /// expansion, whether the closed form or the lazy expansion applies.
        #[test]
        fn runs_align_like_their_expansion(
            lanes in 1usize..=WARP_SIZE,
            ops in proptest::collection::vec((0usize..WARP_SIZE, arb_op()), 0..120),
            seg in proptest::sample::select(vec![32u64, 128]),
        ) {
            let ops: Vec<(usize, Op)> = ops.into_iter().map(|(l, o)| (l % lanes, o)).collect();
            let (runs, flat) = traces(&ops, lanes);
            let mut spec = DeviceSpec::test_tiny();
            spec.segment_bytes = seg;
            let got = WarpAligner::new().align(&spec, &runs).clone();
            let want = WarpAligner::new().align(&spec, &flat).clone();
            prop_assert_eq!(got, want);
            for (r, f) in runs.iter().zip(&flat) {
                prop_assert_eq!(r.access_count(), f.access_count());
                prop_assert_eq!(r.instructions, f.instructions);
            }
        }

        /// Lock-step warps of equal runs (the interleaved-layout shape)
        /// take the closed form and still match their expansion.
        #[test]
        fn lockstep_runs_align_like_their_expansion(
            lanes in 1usize..=WARP_SIZE,
            width in proptest::sample::select(vec![1u32, 2, 4, 8]),
            lens in proptest::collection::vec(1u32..200, 1..4),
            ragged in 0u32..40,
        ) {
            let mut ops = Vec::new();
            for lane in 0..lanes {
                let stride = WARP_SIZE as u64 * width as u64;
                let mut base = 4096 + lane as u64 * width as u64;
                for &len in &lens {
                    let n = if lane % 3 == 1 { len.saturating_sub(ragged).max(1) } else { len };
                    ops.push((lane, Op::Run(base, width, stride, n)));
                    base += len as u64 * stride + 4096;
                    ops.push((lane, Op::Single(base, 4, false)));
                    base += 256;
                }
            }
            let (runs, flat) = traces(&ops, lanes);
            let spec = DeviceSpec::test_tiny();
            let got = WarpAligner::new().align(&spec, &runs).clone();
            let want = WarpAligner::new().align(&spec, &flat).clone();
            prop_assert_eq!(got, want);
        }

        /// Warps staging one table (every lane reading the same run, the
        /// broadcast closed form) match their expansion, also with ragged
        /// lanes, lanes without the run, per-lane singles around it and a
        /// trailing atomic (drifting K-means' shape after its flip).
        #[test]
        fn broadcast_runs_align_like_their_expansion(
            lanes in 1usize..=WARP_SIZE,
            addr in 0u64..4096,
            width in proptest::sample::select(vec![1u32, 2, 4, 8]),
            stride in proptest::sample::select(vec![0u64, 1, 2, 4, 8, 16, 24, 32, 40, 64, 128, 256]),
            count in 1u32..80,
            (absent, ragged, singles, atomic) in (any::<u64>(), 0u32..40, any::<bool>(), any::<bool>()),
            seg in proptest::sample::select(vec![32u64, 128]),
        ) {
            let mut ops = Vec::new();
            for lane in 0..lanes {
                let solo = 8192 + lane as u64 * 8;
                if singles && lane % 5 == 3 {
                    ops.push((lane, Op::Single(solo, 4, false)));
                }
                // About one lane in four has no run.
                if (absent >> lane) & (absent >> (lane + 32)) & 1 == 0 {
                    let n = if lane % 3 == 1 { count.saturating_sub(ragged).max(1) } else { count };
                    ops.push((lane, Op::Run(addr, width, stride, n)));
                }
                if singles {
                    ops.push((lane, Op::Single(solo + 4, 4, false)));
                }
                if atomic {
                    ops.push((lane, Op::Single(16384 + (lane as u64 % 4) * 8, 8, true)));
                }
            }
            let (runs, flat) = traces(&ops, lanes);
            let mut spec = DeviceSpec::test_tiny();
            spec.segment_bytes = seg;
            let got = WarpAligner::new().align(&spec, &runs).clone();
            let want = WarpAligner::new().align(&spec, &flat).clone();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn consecutive_runs_join_into_one_record() {
        let mut t = ThreadTrace::default();
        t.record_run(4096, 1, 32, 5, AccessClass::StreamRead);
        t.record_run(4096 + 5 * 32, 1, 32, 7, AccessClass::StreamRead);
        t.record_run(8192, 1, 32, 3, AccessClass::StreamRead);
        let recs = &t.classed[AccessClass::StreamRead.index()];
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].count, recs[1].count), (12, 3));
        assert_eq!(t.instructions, 15);
        assert_eq!(t.access_count(), 15);
        assert!(t.has_runs[AccessClass::StreamRead.index()]);
    }
}

#[cfg(test)]
mod bank_tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::test_tiny()
    }

    fn lanes_with_shared(addr_of_lane: impl Fn(u32) -> u32) -> Vec<ThreadTrace> {
        (0..32u32)
            .map(|l| {
                let mut t = ThreadTrace::default();
                t.record_shared(addr_of_lane(l), 4);
                t
            })
            .collect()
    }

    #[test]
    fn conflict_free_consecutive_words() {
        // Lane l -> word l: every lane its own bank.
        let lanes = lanes_with_shared(|l| l * 4);
        let mut al = WarpAligner::new();
        let c = al.align(&spec(), &lanes);
        assert_eq!(c.bank_replay_slots, 0);
        assert_eq!(c.shared_accesses, 32);
    }

    #[test]
    fn broadcast_same_word_is_free() {
        let lanes = lanes_with_shared(|_| 64);
        let mut al = WarpAligner::new();
        let c = al.align(&spec(), &lanes);
        assert_eq!(c.bank_replay_slots, 0);
    }

    #[test]
    fn stride_32_words_is_32_way_conflict() {
        // Lane l -> word l*32: all lanes hit bank 0 at distinct words.
        let lanes = lanes_with_shared(|l| l * 32 * 4);
        let mut al = WarpAligner::new();
        let c = al.align(&spec(), &lanes);
        assert_eq!(c.bank_replay_slots, 31 * WARP_SIZE as u64);
    }

    #[test]
    fn two_way_conflict() {
        // Lanes pair up on 16 banks: words l and l+32 share bank l.
        let lanes = lanes_with_shared(|l| ((l % 16) + (l / 16) * 32 * 16) * 4);
        let mut al = WarpAligner::new();
        let c = al.align(&spec(), &lanes);
        assert_eq!(c.bank_replay_slots, WARP_SIZE as u64);
    }

    #[test]
    fn replays_add_issue_slots() {
        let free = lanes_with_shared(|l| l * 4);
        let conflicted = lanes_with_shared(|l| l * 32 * 4);
        let spec = spec();
        let mut al = WarpAligner::new();
        let a = al.align(&spec, &free).issue_slots;
        let b = al.align(&spec, &conflicted).issue_slots;
        assert!(b > a);
    }
}
