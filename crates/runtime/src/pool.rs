//! Pooled scratch for the addr-gen → assembly hot path.
//!
//! The pipeline's inner loop used to pay a heap allocation per lane per
//! chunk: fresh `Vec<AddrEntry>` buffers in each addr-gen context, fresh
//! pattern component vectors in `detect`, a fresh `Vec<LaneAddrs>`, fresh
//! layout vectors and a fresh prefetch-byte buffer in `assemble`. None of that
//! churn models anything — the paper's stage 1–2 must be near-zero-cost for
//! the overlap to pay (§III) — so every one of those vectors now cycles
//! through a per-block-slot [`StreamPool`] of typed freelists: taken at the
//! start of a chunk, handed back when the chunk's buffers are freed. In
//! steady state (second chunk onward) the hot path performs no heap
//! allocation at all; `crates/runtime/tests/alloc_free.rs` pins this.
//!
//! Pooling never changes results: the recycled vectors are cleared on take,
//! and the commit logic below reproduces the former
//! `pipeline::compress_stream` decision tree exactly (same detection calls
//! on the same entry sequences, same profitability comparisons, same
//! counter increments).

use crate::addr::{AddrEntry, AddrStream, LaneAddrs};
use crate::assembly::AssemblyOutput;
use crate::config::BigKernelConfig;
use crate::ctx::AddrRecorder;
use crate::layout::{ChunkLayout, WarpRegion, REGION_ALIGN};
use crate::pattern::{Pattern, MAX_PERIOD};
use crate::segmented::{detect_segmented, detect_segmented_below};
use crate::stream::StreamId;
use bk_gpu::WARP_SIZE;
use bk_host::PinnedArena;

/// Typed freelists for every vector shape the addr-gen → assembly path
/// allocates, plus the pinned arena the prefetch and staged byte buffers
/// are bump-allocated from. Each `take_*` returns a cleared vector with its
/// previous capacity; each `give_*` clears and shelves one for reuse; the
/// arena is wholesale-reset when the block slot recycles its chunk.
pub struct StreamPool {
    entries: Vec<Vec<AddrEntry>>,
    stream_ids: Vec<Vec<StreamId>>,
    u64s: Vec<Vec<u64>>,
    i64s: Vec<Vec<i64>>,
    u32s: Vec<Vec<u32>>,
    lanes: Vec<Vec<LaneAddrs>>,
    warps: Vec<Vec<WarpRegion>>,
    /// Pinned-buffer arena backing `AssemblyOutput::bytes` (and the staged
    /// path's chunk image). Reset per chunk by the block slot.
    pub arena: PinnedArena,
}

impl StreamPool {
    /// An empty pool; vectors are pooled on first give-back.
    pub fn new() -> Self {
        StreamPool {
            entries: Vec::new(),
            stream_ids: Vec::new(),
            u64s: Vec::new(),
            i64s: Vec::new(),
            u32s: Vec::new(),
            lanes: Vec::new(),
            warps: Vec::new(),
            arena: PinnedArena::new(),
        }
    }

    /// Take a cleared address-entry vector from the pool.
    pub fn take_entries(&mut self) -> Vec<AddrEntry> {
        self.entries.pop().unwrap_or_default()
    }

    /// Return an address-entry vector to the pool (cleared here).
    pub fn give_entries(&mut self, mut v: Vec<AddrEntry>) {
        v.clear();
        self.entries.push(v);
    }

    fn take_u64(&mut self) -> Vec<u64> {
        self.u64s.pop().unwrap_or_default()
    }

    fn give_u64(&mut self, mut v: Vec<u64>) {
        v.clear();
        self.u64s.push(v);
    }

    fn take_u32(&mut self) -> Vec<u32> {
        self.u32s.pop().unwrap_or_default()
    }

    fn give_u32(&mut self, mut v: Vec<u32>) {
        v.clear();
        self.u32s.push(v);
    }

    /// Take a cleared per-lane stream vector from the pool.
    pub fn take_lanes(&mut self) -> Vec<LaneAddrs> {
        self.lanes.pop().unwrap_or_default()
    }

    /// Build an owned [`Pattern`] from the online detector's borrowed cycle
    /// slices using pooled component vectors.
    pub fn pattern_from(
        &mut self,
        streams: &[StreamId],
        bases: &[u64],
        strides: &[i64],
        widths: &[u32],
        count: usize,
    ) -> Pattern {
        let mut s = self.stream_ids.pop().unwrap_or_default();
        let mut b = self.take_u64();
        let mut t = self.i64s.pop().unwrap_or_default();
        let mut w = self.take_u32();
        s.extend_from_slice(streams);
        b.extend_from_slice(bases);
        t.extend_from_slice(strides);
        w.extend_from_slice(widths);
        Pattern {
            streams: s,
            bases: b,
            strides: t,
            widths: w,
            count,
        }
    }

    /// Return a pattern's component vectors to the pool.
    pub fn give_pattern(&mut self, p: Pattern) {
        let Pattern {
            mut streams,
            bases,
            strides,
            mut widths,
            ..
        } = p;
        streams.clear();
        self.stream_ids.push(streams);
        self.give_u64(bases);
        let mut strides = strides;
        strides.clear();
        self.i64s.push(strides);
        widths.clear();
        self.u32s.push(widths);
    }

    /// Recycle one address stream. Raw buffers and pattern components return
    /// to their freelists; segmented streams are dropped (they are rare —
    /// phase-changing lanes — and their piece vectors are built by the
    /// offline segmented scan, not the pooled path).
    pub fn give_stream(&mut self, s: AddrStream) {
        match s {
            AddrStream::Raw(v) => self.give_entries(v),
            AddrStream::Pattern(p) => self.give_pattern(p),
            AddrStream::Segmented(_) => {}
        }
    }

    /// Recycle a whole block's lane streams.
    pub fn give_lanes(&mut self, mut lanes: Vec<LaneAddrs>) {
        for l in lanes.drain(..) {
            self.give_stream(l.reads);
            self.give_stream(l.writes);
        }
        self.lanes.push(lanes);
    }

    /// Recycle a chunk layout's vectors.
    pub fn give_layout(&mut self, l: ChunkLayout) {
        match l {
            ChunkLayout::Interleaved { mut warps, .. } => {
                for w in warps.drain(..) {
                    self.give_u64(w.step_off);
                    self.give_u32(w.step_width);
                }
                self.warps.push(warps);
            }
            ChunkLayout::PerLane {
                lane_base,
                lane_len,
                ..
            } => {
                self.give_u64(lane_base);
                self.give_u64(lane_len);
            }
        }
    }

    /// Recycle everything an [`AssemblyOutput`] owns. The prefetch bytes
    /// themselves are an arena window, reclaimed by the arena reset when
    /// the block slot recycles — only the layout vectors return here.
    pub fn give_output(&mut self, out: AssemblyOutput) {
        let AssemblyOutput {
            layout,
            write_layout,
            ..
        } = out;
        self.give_layout(layout);
        if let Some(wl) = write_layout {
            self.give_layout(wl);
        }
    }

    /// Pooled equivalent of [`ChunkLayout::build_interleaved`]: identical
    /// output, but component vectors come from the freelists and lane
    /// streams are walked once each with their sequential cursors
    /// (lane-major) instead of the per-`(step, lane)` `entry(k)` dispatch.
    pub fn build_interleaved(
        &mut self,
        lanes: &[LaneAddrs],
        side: fn(&LaneAddrs) -> &AddrStream,
    ) -> ChunkLayout {
        let mut warps = self.warps.pop().unwrap_or_default();
        let mut cursor = 0u64;
        let mut padding = 0u64;
        for warp_lanes in lanes.chunks(WARP_SIZE) {
            let region_off = cursor;
            let max_steps = warp_lanes.iter().map(|l| side(l).len()).max().unwrap_or(0);
            let mut step_width = self.take_u32();
            step_width.resize(max_steps, 0);
            let mut active = self.take_u64();
            active.resize(max_steps, 0);
            for l in warp_lanes {
                for (k, e) in side(l).iter().enumerate() {
                    if e.width > step_width[k] {
                        step_width[k] = e.width;
                    }
                    active[k] += e.width as u64;
                }
            }
            let mut step_off = self.take_u64();
            let mut off = 0u64;
            for (k, &w) in step_width.iter().enumerate() {
                debug_assert!(w > 0);
                step_off.push(off);
                let group = WARP_SIZE as u64 * w as u64;
                padding += group - active[k];
                off += group;
            }
            self.give_u64(active);
            cursor += off.div_ceil(REGION_ALIGN) * REGION_ALIGN;
            warps.push(WarpRegion {
                region_off,
                step_off,
                step_width,
            });
        }
        ChunkLayout::Interleaved {
            warps,
            total_len: cursor,
            padding,
        }
    }

    /// Pooled equivalent of [`ChunkLayout::build_per_lane`].
    pub fn build_per_lane(
        &mut self,
        lanes: &[LaneAddrs],
        side: fn(&LaneAddrs) -> &AddrStream,
    ) -> ChunkLayout {
        let mut lane_base = self.take_u64();
        let mut lane_len = self.take_u64();
        let mut cursor = 0u64;
        for l in lanes {
            lane_base.push(cursor);
            let len = side(l).data_bytes();
            lane_len.push(len);
            cursor += len;
        }
        ChunkLayout::PerLane {
            lane_base,
            lane_len,
            total_len: cursor,
        }
    }
}

impl Default for StreamPool {
    fn default() -> Self {
        Self::new()
    }
}

/// How one lane stream was committed (the tallying decision of the former
/// `compress_stream`, surfaced so the pipeline can bump its counters).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Compression {
    /// Whole-stream pattern (§IV.A).
    Pattern,
    /// Piecewise pattern (the §IV.A extension).
    Segmented,
    /// Pattern recognition was on and found nothing for a non-empty stream.
    Missed,
    /// Raw with no tally (empty stream, or recognition off).
    Raw,
}

/// Per-worker scratch for the pooled address-generation fast path: the
/// reusable recorder the [`crate::ctx::AddrGenCtx`] streams into, plus the
/// pool its committed streams draw from and return to.
pub struct AddrGenScratch {
    /// The per-lane recorder streamed into during address generation.
    pub recorder: AddrRecorder,
    /// Pool the committed streams draw from and return to.
    pub pool: StreamPool,
}

impl AddrGenScratch {
    /// Fresh scratch with an empty pool.
    pub fn new() -> Self {
        AddrGenScratch {
            recorder: AddrRecorder::new(),
            pool: StreamPool::new(),
        }
    }

    /// Reset the recorder for the next lane. `detect` mirrors
    /// `BigKernelConfig::pattern_recognition` (the online detectors idle
    /// when it is off).
    pub fn begin_lane(&mut self, detect: bool) {
        self.recorder.reset(detect);
    }

    /// Commit the recorded read stream (§IV.A decision tree).
    pub fn commit_reads(&mut self, cfg: &BigKernelConfig) -> (AddrStream, Compression) {
        let AddrGenScratch { recorder, pool } = self;
        commit_side(cfg, &recorder.read_det, &mut recorder.reads, pool)
    }

    /// Commit the recorded write stream.
    pub fn commit_writes(&mut self, cfg: &BigKernelConfig) -> (AddrStream, Compression) {
        let AddrGenScratch { recorder, pool } = self;
        commit_side(cfg, &recorder.write_det, &mut recorder.writes, pool)
    }
}

impl Default for AddrGenScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The §IV.A whole-stream / segmented / raw decision, decision-for-decision
/// identical to the offline `compress_stream` it replaces:
///
/// * whole-stream pattern (now confirmed online, or by the detector's
///   offline fallback rescan — same result, see `pattern::OnlineDetect`);
/// * for long cycles (period > 16), piecewise compression if it encodes
///   smaller (the segmented walk stops once it cannot);
/// * piecewise compression alone when no whole-stream pattern exists;
/// * raw fallback, with the buffer swapped against a pooled vector.
fn commit_side(
    cfg: &BigKernelConfig,
    det: &crate::pattern::OnlineDetect,
    buf: &mut Vec<AddrEntry>,
    pool: &mut StreamPool,
) -> (AddrStream, Compression) {
    use crate::pattern::OnlineOutcome;
    if cfg.pattern_recognition {
        let found = match det.finish(buf) {
            OnlineOutcome::Hit {
                streams,
                bases,
                strides,
                widths,
            } => Some(pool.pattern_from(streams, bases, strides, widths, det.len())),
            OnlineOutcome::Offline(r) => r,
            OnlineOutcome::Miss => None,
        };
        if let Some(p) = found {
            // Long cycles (e.g. a phase super-pattern) can encode worse than
            // piecewise compression; pick the smaller. The walk is bounded by
            // the pattern's size: it gives up as soon as it cannot encode
            // smaller, which only skips results this comparison would reject.
            if p.period() > 16 {
                det.materialize(buf);
                if let Some(seg) = detect_segmented_below(buf, MAX_PERIOD, p.encoded_bytes()) {
                    pool.give_pattern(p);
                    return (AddrStream::Segmented(seg), Compression::Segmented);
                }
            }
            return (AddrStream::Pattern(p), Compression::Pattern);
        }
        // No whole-stream pattern: the buffer holds the complete raw stream.
        if let Some(s) = detect_segmented(buf, MAX_PERIOD) {
            return (AddrStream::Segmented(s), Compression::Segmented);
        }
        if !buf.is_empty() {
            let mut v = pool.take_entries();
            std::mem::swap(&mut v, buf);
            return (AddrStream::Raw(v), Compression::Missed);
        }
    }
    let mut v = pool.take_entries();
    std::mem::swap(&mut v, buf);
    (AddrStream::Raw(v), Compression::Raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BigKernelConfig;
    use crate::layout::ChunkLayout;

    fn e(off: u64, w: u32) -> AddrEntry {
        AddrEntry {
            stream: StreamId(0),
            offset: off,
            width: w,
        }
    }

    fn record_lane(scratch: &mut AddrGenScratch, detect: bool, entries: &[AddrEntry]) {
        scratch.begin_lane(detect);
        let rec = &mut scratch.recorder;
        for &x in entries {
            rec.read_det.push(&mut rec.reads, x);
        }
    }

    #[test]
    fn commit_matches_offline_compress_decisions() {
        let cfg = BigKernelConfig::default();
        let mut scratch = AddrGenScratch::new();

        // Periodic stream → pattern, same as offline detect.
        let seq: Vec<AddrEntry> = (0..200u64).map(|i| e(i * 8, 8)).collect();
        record_lane(&mut scratch, cfg.pattern_recognition, &seq);
        let (s, c) = scratch.commit_reads(&cfg);
        assert_eq!(c, Compression::Pattern);
        let offline = crate::pattern::detect(&seq, MAX_PERIOD).unwrap();
        match &s {
            AddrStream::Pattern(p) => assert_eq!(*p, offline),
            other => panic!("expected pattern, got {other:?}"),
        }

        // Opinion-shaped lane: 5 records of a 4 B timestamp and a 183-byte
        // text scan, 256 B apart. The period-184 pattern encodes in two
        // groups (48 B); the per-record segmented split (5 × (12 + 32) =
        // 220 B) cannot beat it, so the bounded walk gives up and the
        // pattern commits.
        let opinion: Vec<AddrEntry> = (0..5u64)
            .flat_map(|r| {
                std::iter::once(e(r * 256, 4)).chain((0..183).map(move |t| e(r * 256 + 4 + t, 1)))
            })
            .collect();
        assert_eq!(
            detect_segmented(&opinion, MAX_PERIOD).map(|s| s.encoded_bytes()),
            Some(220)
        );
        record_lane(&mut scratch, cfg.pattern_recognition, &opinion);
        let (s, c) = scratch.commit_reads(&cfg);
        assert_eq!(c, Compression::Pattern);
        match &s {
            AddrStream::Pattern(p) => {
                assert_eq!((p.period(), p.encoded_bytes()), (184, 48));
                assert_eq!(*p, crate::pattern::detect(&opinion, MAX_PERIOD).unwrap());
            }
            other => panic!("expected pattern, got {other:?}"),
        }

        // Long-period phase change where segmented wins: 3 records of 100
        // gapped 8 B reads then 100 gapped 4 B reads elsewhere. The
        // whole-stream period-200 pattern has a group per position (4008 B);
        // six period-1 pieces cost 192 B.
        let phased: Vec<AddrEntry> = (0..3u64)
            .flat_map(|r| {
                let a = (0..100).map(move |j| e(r * 4096 + j * 16, 8));
                a.chain((0..100).map(move |j| e((1 << 20) + r * 4096 + j * 12, 4)))
            })
            .collect();
        let whole = crate::pattern::detect(&phased, MAX_PERIOD).unwrap();
        assert_eq!((whole.period(), whole.encoded_bytes()), (200, 4008));
        record_lane(&mut scratch, cfg.pattern_recognition, &phased);
        let (s, c) = scratch.commit_reads(&cfg);
        assert_eq!(c, Compression::Segmented);
        match &s {
            AddrStream::Segmented(seg) => {
                assert_eq!(seg.encoded_bytes(), 192);
                assert_eq!(seg.iter().collect::<Vec<_>>(), phased);
            }
            other => panic!("expected segmented, got {other:?}"),
        }

        // Irregular short stream → raw miss, buffer contents preserved.
        let irr: Vec<AddrEntry> = [3u64, 11, 5, 40, 2, 93, 7, 1]
            .iter()
            .map(|&o| e(o * 64, 8))
            .collect();
        record_lane(&mut scratch, cfg.pattern_recognition, &irr);
        let (s, c) = scratch.commit_reads(&cfg);
        assert_eq!(c, Compression::Missed);
        match &s {
            AddrStream::Raw(v) => assert_eq!(v, &irr),
            other => panic!("expected raw, got {other:?}"),
        }

        // Empty stream → raw, no tally.
        record_lane(&mut scratch, cfg.pattern_recognition, &[]);
        let (s, c) = scratch.commit_reads(&cfg);
        assert_eq!(c, Compression::Raw);
        assert!(s.is_empty());

        // Recognition off → raw even for periodic streams.
        record_lane(&mut scratch, false, &seq);
        let (s, c) = scratch.commit_reads(&cfg_no_pr());
        assert_eq!(c, Compression::Raw);
        match &s {
            AddrStream::Raw(v) => assert_eq!(v, &seq),
            other => panic!("expected raw, got {other:?}"),
        }
    }

    fn cfg_no_pr() -> BigKernelConfig {
        BigKernelConfig {
            pattern_recognition: false,
            ..BigKernelConfig::default()
        }
    }

    #[test]
    fn two_phase_stream_commits_segmented() {
        let cfg = BigKernelConfig::default();
        let mut scratch = AddrGenScratch::new();
        let mut entries: Vec<AddrEntry> = (0..200u64).map(|i| e(i * 8, 8)).collect();
        entries.extend((0..200u64).map(|i| e((1 << 20) + i * 16, 4)));
        record_lane(&mut scratch, cfg.pattern_recognition, &entries);
        let (s, c) = scratch.commit_reads(&cfg);
        assert_eq!(c, Compression::Segmented);
        assert_eq!(s.len(), 400);
        for (k, &want) in entries.iter().enumerate() {
            assert_eq!(s.entry(k), want, "k={k}");
        }
    }

    #[test]
    fn pooled_layout_builders_match_reference() {
        // 40 mixed lanes across two warps: raw, patterned, and empty.
        let lanes: Vec<LaneAddrs> = (0..40usize)
            .map(|i| {
                let reads = match i % 3 {
                    0 => AddrStream::Raw(
                        (0..(i % 7) as u64)
                            .map(|k| e(i as u64 * 512 + k * 8, 8))
                            .collect(),
                    ),
                    1 => {
                        let v: Vec<AddrEntry> =
                            (0..64u64).map(|k| e(i as u64 * 4096 + k * 4, 4)).collect();
                        AddrStream::Pattern(crate::pattern::detect(&v, MAX_PERIOD).unwrap())
                    }
                    _ => AddrStream::Raw(Vec::new()),
                };
                LaneAddrs {
                    reads,
                    writes: AddrStream::Raw(Vec::new()),
                }
            })
            .collect();
        let refs: Vec<&AddrStream> = lanes.iter().map(|l| &l.reads).collect();
        let mut pool = StreamPool::new();

        fn interleaved_parts(l: &ChunkLayout) -> (&Vec<WarpRegion>, u64, u64) {
            match l {
                ChunkLayout::Interleaved {
                    warps,
                    total_len,
                    padding,
                } => (warps, *total_len, *padding),
                other => panic!("expected interleaved, got {other:?}"),
            }
        }
        fn per_lane_parts(l: &ChunkLayout) -> (&Vec<u64>, &Vec<u64>, u64) {
            match l {
                ChunkLayout::PerLane {
                    lane_base,
                    lane_len,
                    total_len,
                } => (lane_base, lane_len, *total_len),
                other => panic!("expected per-lane, got {other:?}"),
            }
        }

        let reference = ChunkLayout::build_interleaved(&refs);
        let pooled = pool.build_interleaved(&lanes, |l| &l.reads);
        assert_eq!(interleaved_parts(&reference), interleaved_parts(&pooled));

        let reference_pl = ChunkLayout::build_per_lane(&refs);
        let pooled_pl = pool.build_per_lane(&lanes, |l| &l.reads);
        assert_eq!(per_lane_parts(&reference_pl), per_lane_parts(&pooled_pl));

        // Recycle and rebuild: identical again, now from the freelists.
        pool.give_layout(pooled);
        pool.give_layout(pooled_pl);
        let again = pool.build_interleaved(&lanes, |l| &l.reads);
        assert_eq!(interleaved_parts(&reference), interleaved_parts(&again));
        let again_pl = pool.build_per_lane(&lanes, |l| &l.reads);
        assert_eq!(per_lane_parts(&reference_pl), per_lane_parts(&again_pl));
    }

    /// Feed `entries` as runs: maximal stretches on one stream and width
    /// whose offsets advance by the width, each cut once more at a
    /// pseudo-random point so runs also start and end mid-stretch.
    fn record_lane_runs(
        scratch: &mut AddrGenScratch,
        detect: bool,
        entries: &[AddrEntry],
        cut: u64,
    ) {
        scratch.begin_lane(detect);
        let rec = &mut scratch.recorder;
        let mut i = 0;
        while i < entries.len() {
            let first = entries[i];
            let mut j = i + 1;
            while j < entries.len()
                && entries[j].stream == first.stream
                && entries[j].width == first.width
                && entries[j].offset == first.offset + (j - i) as u64 * first.width as u64
            {
                j += 1;
            }
            let split = i + 1 + (cut.wrapping_mul(j as u64 * 2654435761) % (j - i) as u64) as usize;
            for (a, b) in [(i, split), (split, j)] {
                if a < b {
                    let e = entries[a];
                    rec.read_det
                        .push_run(&mut rec.reads, e.stream, e.offset, e.width, b - a);
                }
            }
            i = j;
        }
    }

    /// The pool tests' fixed shapes: the Opinion-shaped lane (a 4 B field
    /// then a 183-byte text run per record) and the period-200 phase change.
    fn fixed_lanes() -> Vec<Vec<AddrEntry>> {
        let opinion: Vec<AddrEntry> = (0..5u64)
            .flat_map(|r| {
                std::iter::once(e(r * 256, 4)).chain((0..183).map(move |t| e(r * 256 + 4 + t, 1)))
            })
            .collect();
        let phased: Vec<AddrEntry> = (0..3u64)
            .flat_map(|r| {
                let a = (0..100).map(move |j| e(r * 4096 + j * 16, 8));
                a.chain((0..100).map(move |j| e((1 << 20) + r * 4096 + j * 12, 4)))
            })
            .collect();
        let scan: Vec<AddrEntry> = (0..3000u64).map(|i| e(i, 1)).collect();
        vec![opinion, phased, scan]
    }

    /// Commit `entries` fed entry by entry and fed as runs under `cfg`.
    fn both_ways(cfg: &BigKernelConfig, entries: &[AddrEntry], cut: u64) -> [String; 2] {
        let mut scratch = AddrGenScratch::new();
        record_lane(&mut scratch, cfg.pattern_recognition, entries);
        let by_entry = scratch.commit_reads(cfg);
        record_lane_runs(&mut scratch, cfg.pattern_recognition, entries, cut);
        assert_eq!(scratch.recorder.reads_len(), entries.len());
        let by_run = scratch.commit_reads(cfg);
        [format!("{by_entry:?}"), format!("{by_run:?}")]
    }

    fn configs() -> [BigKernelConfig; 2] {
        [BigKernelConfig::default(), cfg_no_pr()]
    }

    #[test]
    fn run_fed_commit_matches_entry_fed_on_fixed_lanes() {
        for entries in fixed_lanes() {
            for cfg in configs() {
                for cut in 0..4 {
                    let [a, b] = both_ways(&cfg, &entries, cut);
                    assert_eq!(a, b);
                }
            }
        }
    }

    mod run_fed {
        use super::*;
        use crate::pattern::proptests::{arb_mixed, arb_record_walk};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

            /// §IV.A fed by runs commits the same `AddrStream` (pattern,
            /// segmented pieces or raw entries) and the same `Compression`
            /// as §IV.A fed entry by entry.
            #[test]
            fn run_fed_commit_matches_entry_fed(
                entries in prop_oneof![arb_mixed(), arb_record_walk()],
                cut in any::<u64>(),
                which in 0usize..2,
            ) {
                let [a, b] = both_ways(&configs()[which], &entries, cut);
                prop_assert_eq!(a, b);
            }
        }
    }
}
