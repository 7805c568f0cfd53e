//! Address streams produced by the prefetch address-generation stage.
//!
//! Each address-generation thread records, for its chunk slice, the exact
//! sequence of mapped-stream accesses the corresponding computation thread
//! will later perform (paper §III, stage 1). A stream is shipped to the CPU
//! either raw or compressed to a stride pattern (§IV.A, [`crate::pattern`]).

use crate::pattern::{Pattern, PatternIter};
use crate::segmented::{SegmentedIter, SegmentedStream};
use crate::stream::StreamId;

/// Bytes one raw address entry occupies in the CPU-side address buffer.
/// The paper uses 4- or 8-byte addresses; we charge 8 (64-bit address with
/// stream id and width packed into otherwise-unused high bits).
pub const ADDR_ENTRY_BYTES: u64 = 8;

/// One recorded mapped-stream access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AddrEntry {
    /// Which mapped stream the access targets.
    pub stream: StreamId,
    /// Byte offset within the stream.
    pub offset: u64,
    /// Access width in bytes.
    pub width: u32,
}

/// A lane's address sequence for one chunk: raw, pattern-compressed, or
/// piecewise-compressed (patterns changing midstream, the §IV.A extension).
#[derive(Clone, Debug)]
pub enum AddrStream {
    /// Uncompressed entry list, shipped verbatim.
    Raw(Vec<AddrEntry>),
    /// One whole-stream stride pattern (§IV.A).
    Pattern(Pattern),
    /// Piecewise patterns with raw gaps (the §IV.A extension).
    Segmented(SegmentedStream),
}

impl AddrStream {
    /// Whether the stream is compressed (fully or piecewise) — compressed
    /// streams can be walked by the assembler without scanning the raw
    /// address buffer, enabling the §IV.B locality order.
    pub fn is_compressed(&self) -> bool {
        !matches!(self, AddrStream::Raw(_))
    }

    /// Number of accesses described.
    pub fn len(&self) -> usize {
        match self {
            AddrStream::Raw(v) => v.len(),
            AddrStream::Pattern(p) => p.count,
            AddrStream::Segmented(s) => s.len(),
        }
    }

    /// Whether the stream describes no accesses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k`-th access (0-based). Panics when out of range.
    pub fn entry(&self, k: usize) -> AddrEntry {
        match self {
            AddrStream::Raw(v) => v[k],
            AddrStream::Pattern(p) => p.entry(k),
            AddrStream::Segmented(s) => s.entry(k),
        }
    }

    /// Bytes this stream occupies in the pinned CPU-side address buffer
    /// (what travels over PCIe in stage 1).
    pub fn encoded_bytes(&self) -> u64 {
        match self {
            AddrStream::Raw(v) => v.len() as u64 * ADDR_ENTRY_BYTES,
            AddrStream::Pattern(p) => p.encoded_bytes(),
            AddrStream::Segmented(s) => s.encoded_bytes(),
        }
    }

    /// Total useful data bytes addressed.
    pub fn data_bytes(&self) -> u64 {
        match self {
            AddrStream::Raw(v) => v.iter().map(|e| e.width as u64).sum(),
            AddrStream::Pattern(p) => p.data_bytes(),
            AddrStream::Segmented(s) => s.data_bytes(),
        }
    }

    /// Iterate entries in order. Each variant is walked by a specialized
    /// cursor — raw streams by the slice iterator, patterns by a rolling
    /// (cycle position, cycle number) pair — instead of the bounds-checked
    /// `entry(k)` dispatch per element.
    pub fn iter(&self) -> AddrStreamIter<'_> {
        AddrStreamIter {
            inner: match self {
                AddrStream::Raw(v) => IterInner::Raw(v.iter()),
                AddrStream::Pattern(p) => IterInner::Pattern(p.iter()),
                AddrStream::Segmented(s) => IterInner::Segmented(s.iter()),
            },
        }
    }

    /// Iterate the stream as maximal contiguous gather runs: consecutive
    /// entries on the same mapped stream whose offsets tile exactly
    /// (`next.offset == start + len`) merge into one `(stream, start, len)`
    /// run. This is what lets the assembler issue one bulk copy and one
    /// `flush_run` per run instead of touching every entry (§IV.B).
    pub fn runs(&self) -> RunIter<'_> {
        RunIter {
            it: self.iter(),
            next_k: 0,
            pending: None,
        }
    }
}

/// Iterator over the entries of an [`AddrStream`].
pub struct AddrStreamIter<'a> {
    inner: IterInner<'a>,
}

enum IterInner<'a> {
    Raw(std::slice::Iter<'a, AddrEntry>),
    Pattern(PatternIter<'a>),
    Segmented(SegmentedIter<'a>),
}

impl Iterator for AddrStreamIter<'_> {
    type Item = AddrEntry;

    #[inline]
    fn next(&mut self) -> Option<AddrEntry> {
        match &mut self.inner {
            IterInner::Raw(it) => it.next().copied(),
            IterInner::Pattern(it) => it.next(),
            IterInner::Segmented(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            IterInner::Raw(it) => it.size_hint(),
            IterInner::Pattern(it) => it.size_hint(),
            IterInner::Segmented(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for AddrStreamIter<'_> {}

impl AddrStreamIter<'_> {
    /// Check the next `n` entries against the run `width` bytes of `s` at
    /// `offset`, `offset + width`, ... and step past them — exactly `n`
    /// [`Iterator::next`] calls each compared with its element, stopping at
    /// the first mismatch with its index in the run and the entry expected
    /// there. A pattern stream compares its cycle arrays in place instead
    /// of building each entry.
    pub(crate) fn check_run(
        &mut self,
        s: StreamId,
        offset: u64,
        width: u32,
        n: usize,
    ) -> Result<(), (usize, AddrEntry)> {
        if let IterInner::Pattern(it) = &mut self.inner {
            return it.check_run(s, offset, width, n);
        }
        for i in 0..n {
            let e = self.next().expect("address cursor covers the run");
            if e.stream != s || e.offset != offset + i as u64 * width as u64 || e.width != width {
                return Err((i, e));
            }
        }
        Ok(())
    }
}

/// One maximal contiguous gather run (byte range `start..start + len` of
/// one mapped stream).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// Which mapped stream the run gathers from.
    pub stream: StreamId,
    /// Byte offset of the run's first byte.
    pub start: u64,
    /// Run length in bytes.
    pub len: u64,
    /// Index (into the entry sequence) of the run's first entry.
    pub first: usize,
    /// Number of entries merged into the run.
    pub count: usize,
    /// The entries' common access width, or 0 when widths are mixed — the
    /// vectorized gather needs a uniform element size to scatter a bulk
    /// source read back into per-element destination slots.
    pub width: u32,
}

impl Run {
    /// A single-entry run for entry `e` at sequence index `k` (the unit the
    /// merge loops grow from).
    pub(crate) fn seed(e: AddrEntry, k: usize) -> Run {
        Run {
            stream: e.stream,
            start: e.offset,
            len: e.width as u64,
            first: k,
            count: 1,
            width: e.width,
        }
    }
}

/// Iterator merging an address stream's entries into [`Run`]s.
pub struct RunIter<'a> {
    it: AddrStreamIter<'a>,
    next_k: usize,
    pending: Option<Run>,
}

impl Iterator for RunIter<'_> {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        for e in self.it.by_ref() {
            let k = self.next_k;
            self.next_k += 1;
            match &mut self.pending {
                Some(r) if r.stream == e.stream && e.offset == r.start + r.len => {
                    r.len += e.width as u64;
                    r.count += 1;
                    if e.width != r.width {
                        r.width = 0;
                    }
                }
                pending => {
                    let run = Run::seed(e, k);
                    if let Some(done) = pending.replace(run) {
                        return Some(done);
                    }
                }
            }
        }
        self.pending.take()
    }
}

/// The address streams of one lane for one chunk: reads and writes travel in
/// separate buffers (writes need the extra GPU-side value buffer, §III
/// "Writes to mapped data").
#[derive(Clone, Debug)]
pub struct LaneAddrs {
    /// Addresses the compute stage will read.
    pub reads: AddrStream,
    /// Addresses the compute stage will write.
    pub writes: AddrStream,
}

impl LaneAddrs {
    /// A lane that touches no mapped data.
    pub fn empty() -> Self {
        LaneAddrs {
            reads: AddrStream::Raw(Vec::new()),
            writes: AddrStream::Raw(Vec::new()),
        }
    }

    /// Bytes both streams occupy in the address buffer once encoded.
    pub fn encoded_bytes(&self) -> u64 {
        self.reads.encoded_bytes() + self.writes.encoded_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(off: u64, w: u32) -> AddrEntry {
        AddrEntry {
            stream: StreamId(0),
            offset: off,
            width: w,
        }
    }

    #[test]
    fn raw_stream_accessors() {
        let s = AddrStream::Raw(vec![e(0, 8), e(8, 8), e(16, 4)]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.entry(2), e(16, 4));
        assert_eq!(s.encoded_bytes(), 24);
        assert_eq!(s.data_bytes(), 20);
        let collected: Vec<_> = s.iter().collect();
        assert_eq!(collected, vec![e(0, 8), e(8, 8), e(16, 4)]);
    }

    #[test]
    fn empty_stream() {
        let s = AddrStream::Raw(Vec::new());
        assert!(s.is_empty());
        assert_eq!(s.encoded_bytes(), 0);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn iter_size_hint_exact() {
        let s = AddrStream::Raw(vec![e(0, 1), e(1, 1)]);
        let mut it = s.iter();
        assert_eq!(it.size_hint(), (2, Some(2)));
        it.next();
        assert_eq!(it.size_hint(), (1, Some(1)));
    }

    #[test]
    fn runs_merge_contiguous_entries_across_variants() {
        // 0..24 contiguous (three 8-byte reads), a gap, then 100..104.
        let raw = AddrStream::Raw(vec![e(0, 8), e(8, 8), e(16, 8), e(100, 4)]);
        let runs: Vec<Run> = raw.runs().collect();
        assert_eq!(
            runs,
            vec![
                Run {
                    stream: StreamId(0),
                    start: 0,
                    len: 24,
                    first: 0,
                    count: 3,
                    width: 8
                },
                Run {
                    stream: StreamId(0),
                    start: 100,
                    len: 4,
                    first: 3,
                    count: 1,
                    width: 4
                },
            ]
        );

        // A strided pattern never merges: one run per entry.
        let strided: Vec<AddrEntry> = (0..10).map(|i| e(i * 64, 8)).collect();
        let p = crate::pattern::detect(&strided, crate::pattern::MAX_PERIOD).unwrap();
        let ps = AddrStream::Pattern(p);
        assert_eq!(ps.runs().count(), 10);

        // A sequential pattern collapses to a single run.
        let seq: Vec<AddrEntry> = (0..100).map(|i| e(1000 + i, 1)).collect();
        let p = crate::pattern::detect(&seq, crate::pattern::MAX_PERIOD).unwrap();
        let ps = AddrStream::Pattern(p);
        let runs: Vec<Run> = ps.runs().collect();
        assert_eq!(
            runs,
            vec![Run {
                stream: StreamId(0),
                start: 1000,
                len: 100,
                first: 0,
                count: 100,
                width: 1
            }]
        );
    }

    #[test]
    fn runs_track_entry_indices_and_mixed_widths() {
        // 8B + 4B contiguous (mixed width), a gap, then two 2B entries.
        let s = AddrStream::Raw(vec![e(0, 8), e(8, 4), e(100, 2), e(102, 2)]);
        let runs: Vec<Run> = s.runs().collect();
        assert_eq!(runs.len(), 2);
        assert_eq!((runs[0].first, runs[0].count, runs[0].width), (0, 2, 0));
        assert_eq!((runs[1].first, runs[1].count, runs[1].width), (2, 2, 2));
    }

    #[test]
    fn runs_split_on_stream_change() {
        let s = AddrStream::Raw(vec![
            e(0, 8),
            AddrEntry {
                stream: StreamId(1),
                offset: 8,
                width: 8,
            },
        ]);
        assert_eq!(s.runs().count(), 2);
    }

    #[test]
    fn empty_stream_has_no_runs() {
        assert_eq!(AddrStream::Raw(Vec::new()).runs().count(), 0);
    }

    #[test]
    fn pattern_iter_equals_entry_dispatch() {
        let strided: Vec<AddrEntry> = (0..25).map(|i| e(i * 16, 4)).collect();
        let p = crate::pattern::detect(&strided, crate::pattern::MAX_PERIOD).unwrap();
        let s = AddrStream::Pattern(p);
        let via_iter: Vec<AddrEntry> = s.iter().collect();
        let via_entry: Vec<AddrEntry> = (0..s.len()).map(|k| s.entry(k)).collect();
        assert_eq!(via_iter, via_entry);
        assert_eq!(s.iter().size_hint(), (25, Some(25)));
    }

    #[test]
    fn lane_addrs_encoded_bytes_sums() {
        let l = LaneAddrs {
            reads: AddrStream::Raw(vec![e(0, 8)]),
            writes: AddrStream::Raw(vec![e(8, 4), e(12, 4)]),
        };
        assert_eq!(l.encoded_bytes(), 3 * ADDR_ENTRY_BYTES);
    }
}
