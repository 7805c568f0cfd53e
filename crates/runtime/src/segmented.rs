//! Segmented pattern recognition — the §IV.A extension the paper sketches:
//! *"One can easily conceive of ways to extend it and make it more
//! versatile (e.g., allow patterns to change midstream)."*
//!
//! A [`SegmentedStream`] is a sequence of pieces, each either a stride
//! [`Pattern`] or a raw run. Detection walks the address stream greedily:
//! it tries to grow a pattern from the current position, accepts it if it
//! covers at least [`MIN_SEGMENT`] accesses (shorter patterns cost more to
//! describe than they save), and otherwise accumulates raw entries until
//! the next pattern takes hold. Kernels whose access shape changes phase —
//! a header walk followed by a payload scan, or per-record shapes that
//! alternate — compress piecewise instead of falling back to fully raw
//! streams.

use crate::addr::{AddrEntry, ADDR_ENTRY_BYTES};
use crate::pattern::{detect, Pattern, PatternIter, DETECT_WINDOW};

/// Minimum accesses a pattern piece must cover to be worth describing.
pub const MIN_SEGMENT: usize = 48;

/// Per-piece header bytes in the encoded address buffer.
pub const PIECE_HEADER_BYTES: u64 = 4;

/// One piece of a segmented stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Piece {
    /// A compressed run described by a [`Pattern`].
    Pattern(Pattern),
    /// Literal entries kept uncompressed.
    Raw(Vec<AddrEntry>),
}

impl Piece {
    /// Number of accesses the piece covers.
    pub fn len(&self) -> usize {
        match self {
            Piece::Pattern(p) => p.count,
            Piece::Raw(v) => v.len(),
        }
    }

    /// Whether the piece covers no accesses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn entry(&self, k: usize) -> AddrEntry {
        match self {
            Piece::Pattern(p) => p.entry(k),
            Piece::Raw(v) => v[k],
        }
    }

    fn encoded_bytes(&self) -> u64 {
        PIECE_HEADER_BYTES
            + match self {
                Piece::Pattern(p) => p.encoded_bytes(),
                Piece::Raw(v) => v.len() as u64 * ADDR_ENTRY_BYTES,
            }
    }

    fn data_bytes(&self) -> u64 {
        match self {
            Piece::Pattern(p) => p.data_bytes(),
            Piece::Raw(v) => v.iter().map(|e| e.width as u64).sum(),
        }
    }
}

/// A piecewise-compressed address stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentedStream {
    /// `(first ordinal, piece)`, ordinals strictly increasing.
    pieces: Vec<(usize, Piece)>,
    total: usize,
}

impl SegmentedStream {
    /// Total number of accesses across all pieces.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the stream has no accesses.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of pieces the stream was split into.
    pub fn num_pieces(&self) -> usize {
        self.pieces.len()
    }

    /// Iterate the pieces in stream order.
    pub fn pieces(&self) -> impl Iterator<Item = &Piece> {
        self.pieces.iter().map(|(_, p)| p)
    }

    /// The `k`-th access overall.
    pub fn entry(&self, k: usize) -> AddrEntry {
        assert!(k < self.total, "segmented entry out of range");
        let idx = match self.pieces.binary_search_by_key(&k, |&(s, _)| s) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let (start, piece) = &self.pieces[idx];
        piece.entry(k - start)
    }

    /// Encoded size of the stream on the wire, headers included.
    pub fn encoded_bytes(&self) -> u64 {
        self.pieces.iter().map(|(_, p)| p.encoded_bytes()).sum()
    }

    /// Total payload bytes the stream's accesses touch.
    pub fn data_bytes(&self) -> u64 {
        self.pieces.iter().map(|(_, p)| p.data_bytes()).sum()
    }

    /// Iterate all entries in order, piece by piece, without the per-entry
    /// binary search of [`SegmentedStream::entry`].
    pub fn iter(&self) -> SegmentedIter<'_> {
        SegmentedIter {
            outer: self.pieces.iter(),
            cur: None,
            remaining: self.total,
        }
    }

    /// Fraction of accesses covered by pattern pieces.
    pub fn pattern_coverage(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let patterned: usize = self
            .pieces
            .iter()
            .map(|(_, p)| {
                if matches!(p, Piece::Pattern(_)) {
                    p.len()
                } else {
                    0
                }
            })
            .sum();
        patterned as f64 / self.total as f64
    }
}

/// Iterator over a segmented stream's entries (piece-chaining cursor).
pub struct SegmentedIter<'a> {
    outer: std::slice::Iter<'a, (usize, Piece)>,
    cur: Option<PieceIter<'a>>,
    remaining: usize,
}

enum PieceIter<'a> {
    Pattern(PatternIter<'a>),
    Raw(std::slice::Iter<'a, AddrEntry>),
}

impl Iterator for SegmentedIter<'_> {
    type Item = AddrEntry;

    #[inline]
    fn next(&mut self) -> Option<AddrEntry> {
        loop {
            if let Some(cur) = &mut self.cur {
                let e = match cur {
                    PieceIter::Pattern(it) => it.next(),
                    PieceIter::Raw(it) => it.next().copied(),
                };
                if let Some(e) = e {
                    self.remaining -= 1;
                    return Some(e);
                }
            }
            match self.outer.next() {
                Some((_, Piece::Pattern(p))) => self.cur = Some(PieceIter::Pattern(p.iter())),
                Some((_, Piece::Raw(v))) => self.cur = Some(PieceIter::Raw(v.iter())),
                None => return None,
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for SegmentedIter<'_> {}

/// Greedy piecewise detection. Returns `None` when the stream is too short
/// or ends up as a single raw piece (callers keep the plain raw vector in
/// that case — no reason to pay the segmented indirection).
pub fn detect_segmented(entries: &[AddrEntry], max_period: usize) -> Option<SegmentedStream> {
    detect_segmented_below(entries, max_period, u64::MAX)
}

/// [`detect_segmented`], keeping only a result that encodes in fewer than
/// `bound` bytes: exactly
/// `detect_segmented(entries, max_period).filter(|s| s.encoded_bytes() < bound)`.
///
/// The walk carries a lower bound on the final encoding — the committed
/// pieces, the pending raw run (it can only grow before it is flushed),
/// and, with entries left and nothing pending, the cheapest piece that
/// must still cover them (a header plus one raw entry). That bound never
/// decreases, so the walk stops as soon as it reaches `bound`: the
/// remaining pattern searches cannot produce a result that survives the
/// filter.
pub fn detect_segmented_below(
    entries: &[AddrEntry],
    max_period: usize,
    bound: u64,
) -> Option<SegmentedStream> {
    if entries.len() < MIN_SEGMENT {
        return None;
    }
    let mut pieces: Vec<(usize, Piece)> = Vec::new();
    let mut committed = 0u64; // encoded bytes of `pieces`
    let mut raw_start = 0usize; // start of the pending raw run
    let mut i = 0usize;
    let lower_bound = |committed: u64, raw_start: usize, i: usize| {
        committed
            + if raw_start < i {
                PIECE_HEADER_BYTES + (i - raw_start) as u64 * ADDR_ENTRY_BYTES
            } else if i < entries.len() {
                PIECE_HEADER_BYTES + ADDR_ENTRY_BYTES
            } else {
                0
            }
    };

    // Try windows from large to small: a large window rejects a pattern
    // whose phase changes inside it, so shrinking windows let detection
    // lock onto the prefix phase and grow from there.
    let windows = [DETECT_WINDOW, DETECT_WINDOW / 4, MIN_SEGMENT];

    'outer: while i < entries.len() {
        if lower_bound(committed, raw_start, i) >= bound {
            return None;
        }
        for w in windows {
            let window_end = (i + w).min(entries.len());
            if window_end - i < MIN_SEGMENT.min(w) {
                continue;
            }
            // Candidate pattern over the local window...
            if let Some(mut p) = detect(&entries[i..window_end], max_period) {
                // ...extended for as long as subsequent accesses keep
                // matching (the paper's generate-and-verify loop, restarted
                // per piece).
                let count = window_end - i + extend_len(&p, &entries[window_end..]);
                if count >= MIN_SEGMENT {
                    if raw_start < i {
                        let raw = Piece::Raw(entries[raw_start..i].to_vec());
                        committed += raw.encoded_bytes();
                        pieces.push((raw_start, raw));
                    }
                    p.count = count;
                    let piece = Piece::Pattern(p);
                    committed += piece.encoded_bytes();
                    pieces.push((i, piece));
                    i += count;
                    raw_start = i;
                    continue 'outer;
                }
            }
        }
        i += 1;
    }
    // At the end of the stream the lower bound is the exact encoding.
    if lower_bound(committed, raw_start, i) >= bound {
        return None;
    }
    if raw_start < entries.len() {
        pieces.push((raw_start, Piece::Raw(entries[raw_start..].to_vec())));
    }

    // A single raw piece means nothing compressed.
    if pieces.len() == 1 && matches!(pieces[0].1, Piece::Raw(_)) {
        return None;
    }
    Some(SegmentedStream {
        pieces,
        total: entries.len(),
    })
}

/// How many of `rest` continue `p` past its `p.count` detected accesses,
/// stopping at the first mismatch. A rolling cycle position replaces the
/// per-entry division; offsets are compared signed, so a decreasing
/// pattern probed past its valid run reads as "no match", not a panic.
fn extend_len(p: &Pattern, rest: &[AddrEntry]) -> usize {
    let period = p.period();
    let (mut j, mut m) = (p.count % period, (p.count / period) as i64);
    for (n, e) in rest.iter().enumerate() {
        if p.streams[j] != e.stream
            || p.widths[j] != e.width
            || p.bases[j] as i64 + m * p.strides[j] != e.offset as i64
        {
            return n;
        }
        j += 1;
        if j == period {
            j = 0;
            m += 1;
        }
    }
    rest.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamId;

    fn e(off: u64, w: u32) -> AddrEntry {
        AddrEntry {
            stream: StreamId(0),
            offset: off,
            width: w,
        }
    }

    fn seq(start: u64, stride: u64, w: u32, n: usize) -> Vec<AddrEntry> {
        (0..n as u64).map(|i| e(start + i * stride, w)).collect()
    }

    #[test]
    fn two_phase_stream_compresses_piecewise() {
        // Phase 1: 200 x 8B stride-8; phase 2: 200 x 4B stride-16 from a new
        // base. Whole-stream detection fails; segmented finds two patterns.
        let mut entries = seq(0, 8, 8, 200);
        entries.extend(seq(1 << 20, 16, 4, 200));
        assert!(detect(&entries, 8).is_none(), "whole-stream must fail");
        let s = detect_segmented(&entries, 8).expect("segmented must succeed");
        assert_eq!(s.len(), 400);
        assert_eq!(s.num_pieces(), 2);
        assert!(s.pattern_coverage() > 0.99, "{}", s.pattern_coverage());
        for (k, &want) in entries.iter().enumerate() {
            assert_eq!(s.entry(k), want, "k={k}");
        }
        // Compression: 400*8 raw bytes vs two small descriptors.
        assert!(s.encoded_bytes() < 200, "{}", s.encoded_bytes());
        assert_eq!(s.data_bytes(), 200 * 8 + 200 * 4);
    }

    #[test]
    fn irregular_gap_between_patterns_stays_raw() {
        let mut entries = seq(0, 8, 8, 100);
        // 60 irregular accesses (hash-like).
        entries.extend((0..60u64).map(|i| e((i.wrapping_mul(2654435761)) % 4096 * 8, 8)));
        entries.extend(seq(1 << 20, 8, 8, 100));
        let s = detect_segmented(&entries, 8).expect("segmented");
        assert_eq!(s.len(), 260);
        assert!(s.num_pieces() >= 3, "{}", s.num_pieces());
        for (k, &want) in entries.iter().enumerate() {
            assert_eq!(s.entry(k), want);
        }
        let cov = s.pattern_coverage();
        assert!((0.6..=0.85).contains(&cov), "coverage {cov}");
    }

    #[test]
    fn fully_irregular_stream_returns_none() {
        let entries: Vec<AddrEntry> = (0..200u64)
            .map(|i| e((i.wrapping_mul(0x9E3779B9)) % (1 << 20), 8))
            .collect();
        assert!(detect_segmented(&entries, 8).is_none());
    }

    #[test]
    fn short_streams_return_none() {
        assert!(detect_segmented(&seq(0, 8, 8, MIN_SEGMENT - 1), 8).is_none());
    }

    #[test]
    fn fully_regular_stream_is_one_pattern_piece() {
        let entries = seq(0, 8, 8, 500);
        let s = detect_segmented(&entries, 8).expect("segmented");
        assert_eq!(s.num_pieces(), 1);
        assert_eq!(s.pattern_coverage(), 1.0);
        assert_eq!(s.encoded_bytes(), PIECE_HEADER_BYTES + 28);
    }

    #[test]
    fn short_pattern_runs_are_not_worth_describing() {
        // Alternating 20-long regular runs and irregular gaps: every run is
        // below MIN_SEGMENT, so the whole thing stays raw (None).
        let mut entries = Vec::new();
        for phase in 0..8u64 {
            entries.extend(seq(phase << 22, 8, 8, 20));
            entries.extend(
                (0..20u64).map(|i| e(((i + phase).wrapping_mul(2654435761)) % (1 << 20), 8)),
            );
        }
        assert!(detect_segmented(&entries, 8).is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn entry_out_of_range_panics() {
        let s = detect_segmented(&seq(0, 8, 8, 100), 8).unwrap();
        let _ = s.entry(100);
    }

    #[test]
    fn iter_equals_entry_dispatch_across_pieces() {
        let mut entries = seq(0, 8, 8, 100);
        entries.extend((0..60u64).map(|i| e((i.wrapping_mul(2654435761)) % 4096 * 8, 8)));
        entries.extend(seq(1 << 20, 8, 8, 100));
        let s = detect_segmented(&entries, 8).expect("segmented");
        let via_iter: Vec<AddrEntry> = s.iter().collect();
        let via_entry: Vec<AddrEntry> = (0..s.len()).map(|k| s.entry(k)).collect();
        assert_eq!(via_iter, via_entry);
        assert_eq!(s.iter().len(), entries.len());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::stream::StreamId;
    use proptest::prelude::*;

    /// Build a stream from 1..4 phases, each a run of stride/width pairs,
    /// separated by base jumps.
    fn arb_phased() -> impl Strategy<Value = Vec<AddrEntry>> {
        proptest::collection::vec(
            (
                0u64..(1 << 20),                               // phase base
                1u64..64,                                      // stride
                proptest::sample::select(vec![1u32, 2, 4, 8]), // width
                (MIN_SEGMENT as u64)..200,                     // length
            ),
            1..4,
        )
        .prop_map(|phases| {
            let mut out = Vec::new();
            for (base, stride, width, len) in phases {
                for i in 0..len {
                    out.push(AddrEntry {
                        stream: StreamId(0),
                        offset: (1 << 22) + base + i * stride,
                        width,
                    });
                }
            }
            out
        })
    }

    proptest! {
        /// Whatever the detector produces must reconstruct the exact stream,
        /// never cost more than raw, and cover every phase it claims.
        #[test]
        fn segmented_reconstruction_is_exact(entries in arb_phased()) {
            if let Some(s) = detect_segmented(&entries, 8) {
                prop_assert_eq!(s.len(), entries.len());
                for (k, &want) in entries.iter().enumerate() {
                    prop_assert_eq!(s.entry(k), want, "k={}", k);
                }
                prop_assert!(
                    s.encoded_bytes()
                        <= entries.len() as u64 * crate::addr::ADDR_ENTRY_BYTES
                            + s.num_pieces() as u64 * PIECE_HEADER_BYTES
                );
                let cov = s.pattern_coverage();
                prop_assert!((0.0..=1.0).contains(&cov));
            }
        }
    }
}
