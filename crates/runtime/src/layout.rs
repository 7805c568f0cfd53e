//! Prefetch/write buffer layouts shared by the CPU assembler and the GPU
//! consumer.
//!
//! The layout is the contract that makes stage 2 (CPU assembly) and stage 4
//! (GPU computation) agree on where each prefetched item lives. The three
//! layouts are the three bars of Fig. 5:
//!
//! * [`ChunkLayout::Interleaved`] — the paper's `dataBuf[counter][tid]`
//!   arrangement: for each warp, the k-th accesses of all 32 lanes sit side
//!   by side, so a warp step reads one contiguous 32-lane group — perfectly
//!   coalesced. This is BigKernel's "data layout optimized for coalesced
//!   accesses" (Fig. 5, third bar).
//! * [`ChunkLayout::PerLane`] — each lane's accessed bytes packed
//!   contiguously, in access order ("transferred data in its original
//!   layout", the Fig. 5 volume-reduction-only variant): transfer volume is
//!   reduced but warp steps touch 32 scattered regions.
//! * [`StagedLayout`] — whole input slices staged verbatim (the
//!   overlap-only variant and the single/double-buffer baselines): reads
//!   resolve by stream offset inside the staged window(s). It is its own
//!   type because nothing assembles into it: the assembled path only ever
//!   sees the first two.

use crate::addr::AddrStream;
use bk_gpu::WARP_SIZE;
use std::ops::Range;

/// Alignment of per-warp regions inside the chunk buffer. A multiple of the
/// 32-byte transaction segment so warp groups never straddle segments.
pub const REGION_ALIGN: u64 = 256;

/// Geometry of one warp's region in an interleaved chunk buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WarpRegion {
    /// Offset of the region within the chunk buffer.
    pub region_off: u64,
    /// Per aligned step: offset of the 32-slot group within the region.
    pub step_off: Vec<u64>,
    /// Per aligned step: slot width (max active lane width at that step).
    pub step_width: Vec<u32>,
}

impl WarpRegion {
    /// Buffer offset of `(lane, step)`'s slot.
    #[inline]
    pub fn slot(&self, lane: usize, step: usize) -> (u64, u32) {
        let w = self.step_width[step];
        (
            self.region_off + self.step_off[step] + lane as u64 * w as u64,
            w,
        )
    }

    /// Total bytes the warp's region occupies.
    pub fn len(&self) -> u64 {
        match self.step_off.last() {
            Some(&off) => off + WARP_SIZE as u64 * *self.step_width.last().unwrap() as u64,
            None => 0,
        }
    }

    /// Whether the warp stages no data at all.
    pub fn is_empty(&self) -> bool {
        self.step_off.is_empty()
    }
}

/// The chunk-buffer layout for one thread block and chunk.
#[derive(Clone, Debug)]
pub enum ChunkLayout {
    /// Coalescing-optimized: `dataBuf[counter][tid]` per warp.
    Interleaved {
        /// One staged region per warp of the block.
        warps: Vec<WarpRegion>,
        /// Total staged bytes including padding.
        total_len: u64,
        /// Bytes written as padding (inactive lanes / width raggedness).
        padding: u64,
    },
    /// Volume-reduced but original (per-thread sequential) order.
    PerLane {
        /// Base offset of each lane's packed run (index: lane within block).
        lane_base: Vec<u64>,
        /// Packed length of each lane's run.
        lane_len: Vec<u64>,
        /// Total staged bytes.
        total_len: u64,
    },
}

impl ChunkLayout {
    /// Total bytes the chunk buffer occupies under this layout.
    pub fn total_len(&self) -> u64 {
        match self {
            ChunkLayout::Interleaved { total_len, .. } | ChunkLayout::PerLane { total_len, .. } => {
                *total_len
            }
        }
    }

    /// Build the interleaved layout from the block's per-lane read streams
    /// (lane index = warp * 32 + lane-in-warp; the slice may be shorter than
    /// a full block on the last warp).
    pub fn build_interleaved(lane_reads: &[&AddrStream]) -> ChunkLayout {
        let mut warps = Vec::new();
        let mut cursor = 0u64;
        let mut padding = 0u64;
        for warp_lanes in lane_reads.chunks(WARP_SIZE) {
            let region_off = cursor;
            let max_steps = warp_lanes.iter().map(|s| s.len()).max().unwrap_or(0);
            let mut step_off = Vec::with_capacity(max_steps);
            let mut step_width = Vec::with_capacity(max_steps);
            let mut off = 0u64;
            for k in 0..max_steps {
                let mut w = 0u32;
                let mut active_bytes = 0u64;
                for s in warp_lanes {
                    if k < s.len() {
                        let ew = s.entry(k).width;
                        w = w.max(ew);
                        active_bytes += ew as u64;
                    }
                }
                debug_assert!(w > 0);
                step_off.push(off);
                step_width.push(w);
                let group = WARP_SIZE as u64 * w as u64;
                padding += group - active_bytes;
                off += group;
            }
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

    /// Build the per-lane (volume-reduction-only) layout.
    pub fn build_per_lane(lane_reads: &[&AddrStream]) -> ChunkLayout {
        let mut lane_base = Vec::with_capacity(lane_reads.len());
        let mut lane_len = Vec::with_capacity(lane_reads.len());
        let mut cursor = 0u64;
        for s in lane_reads {
            lane_base.push(cursor);
            let len = s.data_bytes();
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

/// Verbatim staged input: whole stream ranges copied as they are, so reads
/// resolve by stream offset inside the lane's staged segment.
#[derive(Clone, Debug)]
pub struct StagedLayout {
    /// Segments: (base offset within the buffer, stream byte range).
    pub segs: Vec<(u64, Range<u64>)>,
    /// Lane → segment index.
    pub lane_seg: Vec<usize>,
    /// Total staged bytes.
    pub total_len: u64,
}

impl StagedLayout {
    /// One segment per lane slice (+halo each) — the "overlap only"
    /// variant: every lane's slice is shipped verbatim.
    pub fn build_slices(slices: &[Range<u64>], halo: u64, stream_len: u64) -> StagedLayout {
        let mut segs = Vec::with_capacity(slices.len());
        let mut cursor = 0u64;
        for sl in slices {
            let end = (sl.end + halo).min(stream_len).max(sl.start);
            segs.push((cursor, sl.start..end));
            cursor += end - sl.start;
        }
        StagedLayout {
            segs,
            lane_seg: (0..slices.len()).collect(),
            total_len: cursor,
        }
    }

    /// One contiguous chunk window (+halo) shared by all lanes — the
    /// single/double-buffer baselines.
    pub fn build_window(
        window: Range<u64>,
        halo: u64,
        stream_len: u64,
        num_lanes: usize,
    ) -> StagedLayout {
        let end = (window.end + halo).min(stream_len).max(window.start);
        StagedLayout {
            total_len: end - window.start,
            segs: vec![(0, window.start..end)],
            lane_seg: vec![0; num_lanes],
        }
    }

    /// `lane`'s segment: its base offset in the buffer and the stream
    /// range it holds.
    #[inline]
    pub fn seg(&self, lane: usize) -> &(u64, Range<u64>) {
        &self.segs[self.lane_seg[lane]]
    }

    /// Resolve stream offset `offset` of `lane` to its buffer position.
    /// Panics when the offset lies outside the lane's staged segment
    /// (insufficient halo — a configuration bug).
    pub fn pos(&self, lane: usize, offset: u64) -> u64 {
        let (base, range) = self.seg(lane);
        assert!(
            range.contains(&offset),
            "lane {lane} accessed stream offset {offset} outside staged range {range:?} \
             (increase halo_bytes)"
        );
        base + (offset - range.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrEntry;
    use crate::stream::StreamId;

    fn raw(entries: Vec<(u64, u32)>) -> AddrStream {
        AddrStream::Raw(
            entries
                .into_iter()
                .map(|(o, w)| AddrEntry {
                    stream: StreamId(0),
                    offset: o,
                    width: w,
                })
                .collect(),
        )
    }

    #[test]
    fn interleaved_uniform_width() {
        // 32 lanes x 3 steps of 8B.
        let lanes: Vec<AddrStream> = (0..32)
            .map(|_| raw(vec![(0, 8), (8, 8), (16, 8)]))
            .collect();
        let refs: Vec<&AddrStream> = lanes.iter().collect();
        let l = ChunkLayout::build_interleaved(&refs);
        let ChunkLayout::Interleaved {
            warps,
            total_len,
            padding,
        } = &l
        else {
            panic!()
        };
        assert_eq!(warps.len(), 1);
        assert_eq!(*padding, 0);
        assert_eq!(
            *total_len,
            (3 * 32 * 8u64).div_ceil(REGION_ALIGN) * REGION_ALIGN
        );
        // Slot addresses: step k group at k*256, lane slot stride 8.
        let (off, w) = warps[0].slot(5, 2);
        assert_eq!(w, 8);
        assert_eq!(off, 2 * 256 + 5 * 8);
    }

    #[test]
    fn interleaved_ragged_lanes_pad() {
        // Lane 0 has 2 accesses, lane 1 has 1 → step 1 pads 31 inactive
        // lanes (only 2 lanes exist; the group is still 32 slots wide).
        let lanes = [raw(vec![(0, 4), (4, 4)]), raw(vec![(100, 4)])];
        let refs: Vec<&AddrStream> = lanes.iter().collect();
        let ChunkLayout::Interleaved { warps, padding, .. } = ChunkLayout::build_interleaved(&refs)
        else {
            panic!()
        };
        assert_eq!(warps[0].step_off.len(), 2);
        // step 0: 2 active x4 of 128 → 120 pad; step 1: 1 active → 124 pad.
        assert_eq!(padding, 120 + 124);
    }

    #[test]
    fn interleaved_mixed_width_uses_max() {
        let lanes = [raw(vec![(0, 8)]), raw(vec![(0, 4)])];
        let refs: Vec<&AddrStream> = lanes.iter().collect();
        let ChunkLayout::Interleaved { warps, .. } = ChunkLayout::build_interleaved(&refs) else {
            panic!()
        };
        assert_eq!(warps[0].step_width, vec![8]);
        let (off1, w1) = warps[0].slot(1, 0);
        assert_eq!((off1, w1), (8, 8));
    }

    #[test]
    fn interleaved_multiple_warps_disjoint_regions() {
        let lanes: Vec<AddrStream> = (0..64).map(|_| raw(vec![(0, 8), (8, 8)])).collect();
        let refs: Vec<&AddrStream> = lanes.iter().collect();
        let ChunkLayout::Interleaved {
            warps, total_len, ..
        } = ChunkLayout::build_interleaved(&refs)
        else {
            panic!()
        };
        assert_eq!(warps.len(), 2);
        assert!(warps[1].region_off >= warps[0].region_off + warps[0].len());
        assert_eq!(warps[1].region_off % REGION_ALIGN, 0);
        assert!(total_len >= warps[1].region_off + warps[1].len());
    }

    #[test]
    fn per_lane_layout_packs_contiguously() {
        let lanes = [raw(vec![(0, 8), (8, 8)]), raw(vec![(100, 4)]), raw(vec![])];
        let refs: Vec<&AddrStream> = lanes.iter().collect();
        let ChunkLayout::PerLane {
            lane_base,
            lane_len,
            total_len,
        } = ChunkLayout::build_per_lane(&refs)
        else {
            panic!()
        };
        assert_eq!(lane_base, vec![0, 16, 20]);
        assert_eq!(lane_len, vec![16, 4, 0]);
        assert_eq!(total_len, 20);
    }

    #[test]
    fn staged_slices_with_halo_clamped() {
        let slices = vec![0..100u64, 100..200u64];
        let l = StagedLayout::build_slices(&slices, 16, 210);
        assert_eq!(l.segs[0], (0, 0..116));
        assert_eq!(l.segs[1], (116, 100..210)); // halo clamped to stream end
        assert_eq!(l.lane_seg, vec![0, 1]);
        assert_eq!(l.total_len, 116 + 110);
        // Lane 0 resolves inside its own segment, including the halo.
        assert_eq!(l.pos(0, 110), 110);
        assert_eq!(l.pos(1, 100), 116);
    }

    #[test]
    fn staged_window_shared_by_lanes() {
        let l = StagedLayout::build_window(1000..2000, 32, 4096, 4);
        assert_eq!(l.total_len, 1032);
        for lane in 0..4 {
            assert_eq!(l.pos(lane, 1000), 0);
            assert_eq!(l.pos(lane, 2031), 1031);
        }
    }

    #[test]
    #[should_panic(expected = "increase halo_bytes")]
    fn staged_out_of_range_panics() {
        let l = StagedLayout::build_window(0..100, 0, 4096, 1);
        let _ = l.pos(0, 100);
    }

    #[test]
    fn empty_region_len_zero() {
        let r = WarpRegion {
            region_off: 0,
            step_off: vec![],
            step_width: vec![],
        };
        assert_eq!(r.len(), 0);
        assert!(r.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::addr::{AddrEntry, AddrStream};
    use crate::stream::StreamId;
    use proptest::prelude::*;

    fn arb_lanes() -> impl Strategy<Value = Vec<AddrStream>> {
        // Up to 40 lanes (spans two warps), each with up to 20 accesses of
        // width 1/2/4/8 at arbitrary small offsets.
        proptest::collection::vec(
            proptest::collection::vec(
                (
                    0u64..(1 << 16),
                    proptest::sample::select(vec![1u32, 2, 4, 8]),
                ),
                0..20,
            )
            .prop_map(|v| {
                AddrStream::Raw(
                    v.into_iter()
                        .map(|(o, w)| AddrEntry {
                            stream: StreamId(0),
                            offset: o,
                            width: w,
                        })
                        .collect(),
                )
            }),
            1..40,
        )
    }

    proptest! {
        /// Interleaved slots never overlap and never exceed the buffer.
        #[test]
        fn interleaved_slots_are_disjoint(lanes in arb_lanes()) {
            let refs: Vec<&AddrStream> = lanes.iter().collect();
            let layout = ChunkLayout::build_interleaved(&refs);
            let ChunkLayout::Interleaved { warps, total_len, .. } = &layout else {
                unreachable!()
            };
            let mut used: Vec<(u64, u64)> = Vec::new();
            for (lane, s) in lanes.iter().enumerate() {
                let region = &warps[lane / WARP_SIZE];
                for k in 0..s.len() {
                    let (off, w) = region.slot(lane % WARP_SIZE, k);
                    let width = s.entry(k).width as u64;
                    prop_assert!(width <= w as u64, "entry wider than slot");
                    prop_assert!(off + w as u64 <= *total_len, "slot beyond buffer");
                    used.push((off, off + width));
                }
            }
            used.sort();
            for w in used.windows(2) {
                prop_assert!(w[1].0 >= w[0].1, "slots overlap: {:?} vs {:?}", w[0], w[1]);
            }
        }

        /// Per-lane layout is exactly the concatenation of lane data runs.
        #[test]
        fn per_lane_layout_is_compact(lanes in arb_lanes()) {
            let refs: Vec<&AddrStream> = lanes.iter().collect();
            let ChunkLayout::PerLane { lane_base, lane_len, total_len } =
                ChunkLayout::build_per_lane(&refs)
            else {
                unreachable!()
            };
            let mut cursor = 0u64;
            for (lane, s) in lanes.iter().enumerate() {
                prop_assert_eq!(lane_base[lane], cursor);
                prop_assert_eq!(lane_len[lane], s.data_bytes());
                cursor += s.data_bytes();
            }
            prop_assert_eq!(total_len, cursor);
        }

        /// Padding equals buffer size minus useful bytes minus the region
        /// alignment slack.
        #[test]
        fn interleaved_padding_is_accounted(lanes in arb_lanes()) {
            let refs: Vec<&AddrStream> = lanes.iter().collect();
            let ChunkLayout::Interleaved { warps, total_len, padding } =
                ChunkLayout::build_interleaved(&refs)
            else {
                unreachable!()
            };
            let useful: u64 = lanes.iter().map(|s| s.data_bytes()).sum();
            let regions: u64 = warps.iter().map(|w| w.len()).sum();
            prop_assert_eq!(regions, useful + padding);
            prop_assert!(total_len >= regions);
            // Alignment slack below one region-align unit per warp.
            prop_assert!(total_len - regions < warps.len() as u64 * REGION_ALIGN);
        }
    }
}
