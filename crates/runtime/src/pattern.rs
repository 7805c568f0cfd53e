//! Stride-pattern recognition (paper §IV.A).
//!
//! Address-generation threads first collect a few addresses in a private
//! temporary buffer, try to extract a `[base address, stride(s)]` pattern,
//! and — if every subsequently generated address adheres to it — ship the
//! tiny pattern descriptor to the CPU instead of the full address stream.
//! This matters most for byte-granular data (Word Count sends one address
//! per *character* otherwise; Table II shows 66% improvement).
//!
//! A pattern is a cycle of length `p`; cycle position `j` is an arithmetic
//! progression `offset(j + m·p) = base[j] + m·stride[j]` on a fixed
//! `(stream, width)`. This subsumes the paper's `[base, strides]` form
//! (single-stream record walks like K-means' `x,y,z` reads) and also covers
//! accesses that interleave multiple mapped arrays.

use crate::addr::{AddrEntry, ADDR_ENTRY_BYTES};
use crate::stream::StreamId;

/// Size of the temporary per-thread address buffer used for detection.
/// The paper uses "a few tens of bytes"; we extend it to 512 entries (4 KiB
/// of GPU shared memory) so that record-wide cycles — e.g. Opinion Finder's
/// 184-access tweet walk or DNA Assembly's 43-access fragment walk — are
/// detectable. This is the "one can easily conceive of ways to extend it"
/// direction the paper sketches in §IV.A, and it is what makes Table II's
/// improvements reproducible for the fixed-record text applications.
pub const DETECT_WINDOW: usize = 512;

/// Default maximum cycle length considered (bounded by half the window).
pub const MAX_PERIOD: usize = 256;

/// A recognized address pattern (see module docs for the address formula).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pattern {
    /// Stream touched at each position within one cycle.
    pub streams: Vec<StreamId>,
    /// First-cycle offset at each position within one cycle.
    pub bases: Vec<u64>,
    /// Per-cycle advance at each position within one cycle.
    pub strides: Vec<i64>,
    /// Access width at each position within one cycle.
    pub widths: Vec<u32>,
    /// Total number of accesses the pattern reproduces.
    pub count: usize,
}

impl Pattern {
    /// Cycle length (number of positions per cycle).
    pub fn period(&self) -> usize {
        self.bases.len()
    }

    /// Signed offset of the `k`-th access (used during verification, where
    /// a bogus candidate may walk below zero and must be rejected, not
    /// panicked on).
    #[inline]
    fn offset_at(&self, k: usize) -> i64 {
        let p = self.period();
        self.bases[k % p] as i64 + (k / p) as i64 * self.strides[k % p]
    }

    /// The `k`-th access described by the pattern.
    ///
    /// Panics (in every build profile) if the walk lands below zero: a
    /// legitimately *detected* pattern reproduces the original unsigned
    /// offsets exactly, so a negative offset here means the descriptor was
    /// corrupted or hand-built wrong — silently wrapping to a huge u64
    /// (the old release-mode behavior) must not reach the gather stage.
    pub fn entry(&self, k: usize) -> AddrEntry {
        assert!(k < self.count, "pattern entry out of range");
        let j = k % self.period();
        let offset = self.offset_at(k);
        assert!(offset >= 0, "pattern walked below zero");
        AddrEntry {
            stream: self.streams[j],
            offset: offset as u64,
            width: self.widths[j],
        }
    }

    /// Iterate the described entries without the per-entry div/mod of
    /// [`Pattern::entry`]: the cursor carries (cycle position, cycle number)
    /// and advances them incrementally.
    pub fn iter(&self) -> PatternIter<'_> {
        PatternIter {
            p: self,
            k: 0,
            j: 0,
            m: 0,
        }
    }

    /// Bytes the encoded pattern occupies in the address buffer:
    /// count+period header (8) plus 20 per *run-length group* of the cycle.
    /// Consecutive cycle positions that continue a contiguous equal-width
    /// walk (base advances by the width, same stream, same stride) collapse
    /// into one group — a 183-byte sequential text scan inside a record
    /// cycle costs one group, not 183 elements.
    pub fn encoded_bytes(&self) -> u64 {
        encoded_bytes_for(&self.streams, &self.bases, &self.strides, &self.widths)
    }

    /// Total useful data bytes addressed by the pattern.
    pub fn data_bytes(&self) -> u64 {
        let p = self.period();
        let full = (self.count / p) as u64;
        let cycle: u64 = self.widths.iter().map(|&w| w as u64).sum();
        let rem: u64 = self.widths[..self.count % p]
            .iter()
            .map(|&w| w as u64)
            .sum();
        full * cycle + rem
    }

    /// Whether the pattern reproduces `entries` exactly (non-panicking: a
    /// walk below zero reads as a mismatch).
    pub fn matches(&self, entries: &[AddrEntry]) -> bool {
        let p = self.period();
        self.count == entries.len()
            && entries.iter().enumerate().all(|(k, e)| {
                self.streams[k % p] == e.stream
                    && self.widths[k % p] == e.width
                    && self.offset_at(k) == e.offset as i64
            })
    }
}

/// Incremental cursor over a pattern's entries (same checked semantics as
/// [`Pattern::entry`], but one multiply and no division per step).
pub struct PatternIter<'a> {
    p: &'a Pattern,
    k: usize,
    j: usize,
    m: i64,
}

impl Iterator for PatternIter<'_> {
    type Item = AddrEntry;

    #[inline]
    fn next(&mut self) -> Option<AddrEntry> {
        if self.k >= self.p.count {
            return None;
        }
        let j = self.j;
        let offset = self.p.bases[j] as i64 + self.m * self.p.strides[j];
        assert!(offset >= 0, "pattern walked below zero");
        let e = AddrEntry {
            stream: self.p.streams[j],
            offset: offset as u64,
            width: self.p.widths[j],
        };
        self.k += 1;
        self.j += 1;
        if self.j == self.p.period() {
            self.j = 0;
            self.m += 1;
        }
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.p.count - self.k;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for PatternIter<'_> {}

impl PatternIter<'_> {
    /// [`crate::addr::AddrStreamIter::check_run`] on a pattern: the run's
    /// element `i` is compared with the cycle position and cycle number the
    /// cursor carries, without materializing the entry.
    pub(crate) fn check_run(
        &mut self,
        s: StreamId,
        offset: u64,
        width: u32,
        n: usize,
    ) -> Result<(), (usize, AddrEntry)> {
        let p = self.p;
        assert!(self.k + n <= p.count, "address cursor covers the run");
        for i in 0..n {
            let j = self.j;
            let off = p.bases[j] as i64 + self.m * p.strides[j];
            let want = (offset + i as u64 * width as u64) as i64;
            if p.streams[j] != s || p.widths[j] != width || off != want {
                let expected = self.next().expect("cursor in range");
                return Err((i, expected));
            }
            self.k += 1;
            self.j += 1;
            if self.j == p.period() {
                self.j = 0;
                self.m += 1;
            }
        }
        Ok(())
    }
}

/// Encoded size of a cycle given as parallel slices (shared between
/// [`Pattern::encoded_bytes`] and the online detector, which sizes its
/// candidate before materializing a `Pattern`).
fn encoded_bytes_for(streams: &[StreamId], bases: &[u64], strides: &[i64], widths: &[u32]) -> u64 {
    let p = bases.len();
    let mut groups = 0u64;
    for j in 0..p {
        let continues = j > 0
            && streams[j] == streams[j - 1]
            && widths[j] == widths[j - 1]
            && strides[j] == strides[j - 1]
            && bases[j] == bases[j - 1] + widths[j - 1] as u64;
        if !continues {
            groups += 1;
        }
    }
    8 + groups * 20
}

/// Try to recognize a pattern covering *all* of `entries` (detection window
/// first, then full verification — the simulator equivalent of the paper's
/// generate-and-verify loop; a mid-stream violation means fallback to the
/// raw stream, exactly like the paper's restart).
///
/// ```
/// use bk_runtime::addr::AddrEntry;
/// use bk_runtime::pattern::{detect, MAX_PERIOD};
/// use bk_runtime::StreamId;
///
/// // A byte scan: one address per character, stride 1.
/// let scan: Vec<AddrEntry> = (0..1000)
///     .map(|i| AddrEntry { stream: StreamId(0), offset: i, width: 1 })
///     .collect();
/// let p = detect(&scan, MAX_PERIOD).expect("periodic");
/// assert_eq!(p.period(), 1);
/// assert!(p.encoded_bytes() < 32); // vs 8000 raw bytes over PCIe
/// ```
pub fn detect(entries: &[AddrEntry], max_period: usize) -> Option<Pattern> {
    detect_from(entries, 1, max_period)
}

/// [`detect`] restricted to periods `>= lo` — used by the online detector's
/// fallback path, which has already disproved every smaller period
/// incrementally and must not pay to re-disprove them.
pub(crate) fn detect_from(entries: &[AddrEntry], lo: usize, max_period: usize) -> Option<Pattern> {
    if entries.len() < 2 {
        return None; // nothing worth compressing
    }
    let window = entries.len().min(DETECT_WINDOW);
    // Run-structure prune: if the stream opens with a stretch of `stretch`
    // entries on one (stream, width) and then changes, every period up to
    // `stretch` fails — entry `stretch` would have to repeat the stream and
    // width of entry `stretch - p`, which lies inside the opening stretch.
    // Those periods are skipped instead of verified entry by entry (a text
    // scan followed by a header field otherwise re-verifies every short
    // period across the whole scan).
    let first = (entries[0].stream, entries[0].width);
    let stretch = entries
        .iter()
        .position(|e| (e.stream, e.width) != first)
        .unwrap_or(entries.len());
    let lo = if stretch < entries.len() {
        lo.max(stretch + 1)
    } else {
        lo
    };

    'period: for p in lo..=max_period {
        // Need at least two full cycles inside the window to call it a
        // candidate (one cycle to establish the strides, one to confirm).
        if 2 * p > window {
            break;
        }
        // And at least three cycles overall to *accept*: with only two, each
        // cycle position has just two samples, which any arithmetic
        // progression fits trivially — irregular streams (e.g. the indexed
        // Affinity walk) would be "compressed" vacuously.
        if entries.len() < 3 * p {
            continue;
        }
        // Cheap pre-check before the full verification: widths/streams
        // must repeat at lag p and the first three cycles must agree on the
        // stride. Rejects wrong periods in O(1) on typical streams.
        let quick_ok = (0..p).all(|j| {
            let (a, b, c) = (&entries[j], &entries[j + p], &entries[j + 2 * p]);
            a.width == b.width
                && b.width == c.width
                && a.stream == b.stream
                && b.stream == c.stream
                && (b.offset as i64 - a.offset as i64) == (c.offset as i64 - b.offset as i64)
        });
        if !quick_ok {
            continue;
        }
        // Verify every entry (window and beyond) in place: the candidate
        // built from the first two cycles reproduces `entries` exactly iff
        // each entry repeats the stream and width of the entry one cycle
        // back and advances by its cycle position's first-cycle stride
        // (induction on the cycle number). The pre-check covered the first
        // three cycles; a rolling cycle position keeps the rest free of
        // allocation and division.
        let mut j = 0;
        for k in 3 * p..entries.len() {
            let (prev, e) = (&entries[k - p], &entries[k]);
            if e.stream != prev.stream
                || e.width != prev.width
                || e.offset as i64 - prev.offset as i64
                    != entries[j + p].offset as i64 - entries[j].offset as i64
            {
                continue 'period;
            }
            j += 1;
            if j == p {
                j = 0;
            }
        }
        let cand = candidate(entries, p);
        // Profitability: never ship a descriptor bigger than the raw
        // addresses it replaces (larger periods only get bigger — stop).
        if cand.encoded_bytes() >= entries.len() as u64 * ADDR_ENTRY_BYTES {
            break;
        }
        return Some(cand);
    }
    None
}

/// The period-`p` candidate covering all of `entries`: the first cycle's
/// streams, offsets and widths, strides from the first two cycles.
fn candidate(entries: &[AddrEntry], p: usize) -> Pattern {
    let first = &entries[..p];
    Pattern {
        streams: first.iter().map(|e| e.stream).collect(),
        bases: first.iter().map(|e| e.offset).collect(),
        strides: (0..p)
            .map(|j| entries[j + p].offset as i64 - entries[j].offset as i64)
            .collect(),
        widths: first.iter().map(|e| e.width).collect(),
        count: entries.len(),
    }
}

/// Online promotion work budget. After a candidate dies the detector
/// re-builds candidates at successively larger periods, O(p) each — fine
/// while locking onto a short true cycle (K-means locks at p = 3 within six
/// entries) but O(max_period²) on a long irregular stream. Once the budget
/// is spent the detector stops promoting and the finish step re-scans the
/// (complete, buffered) stream offline from the first untried period — the
/// result is identical either way, only the work moves.
const ONLINE_BUDGET: usize = 2048;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum OnlineMode {
    /// Pattern recognition off: every entry goes straight to the buffer.
    Disabled,
    /// Not enough entries to define the current candidate (n < 2p); still
    /// buffering.
    Pending,
    /// A live candidate matches every entry seen; raw entries beyond the
    /// buffered prefix are NOT materialized (they are reproducible from the
    /// candidate).
    Tracking,
    /// Online promotion gave up (budget or max period); buffering, with the
    /// offline rescan at finish starting from `from`.
    Fallback { from: usize },
}

/// Incremental (streaming) version of [`detect`]: consumes entries as the
/// address-generation lane emits them and maintains the smallest candidate
/// period consistent with everything seen, so compressible lanes never
/// buffer their raw stream whole-chunk nor re-scan it at commit time. The
/// `online_matches_offline_*` proptests pin the equivalence with the
/// offline scan.
///
/// Invariant: `buf` (owned by the caller, passed to every method) always
/// holds the exact prefix `entries[0..buf.len()]`; while `Tracking`, the
/// candidate reproduces all `n` entries seen, so the un-buffered suffix can
/// be rematerialized from it on demand (candidate death, or a finish
/// outcome that needs the raw stream).
pub struct OnlineDetect {
    max_period: usize,
    mode: OnlineMode,
    /// Current candidate period.
    p: usize,
    /// Total entries seen.
    n: usize,
    budget: usize,
    // Candidate cycle (valid while Tracking).
    streams: Vec<StreamId>,
    bases: Vec<u64>,
    strides: Vec<i64>,
    widths: Vec<u32>,
    // Rolling (cycle position, cycle number) of the next index `n`.
    next_j: usize,
    next_m: i64,
}

/// What [`OnlineDetect::finish`] decided for the stream.
pub enum OnlineOutcome<'a> {
    /// Candidate confirmed online; the cycle slices borrow the detector.
    /// The caller's buffer still holds only a prefix — call
    /// [`OnlineDetect::materialize`] if the raw entries are needed too.
    Hit {
        /// Stream touched at each cycle position.
        streams: &'a [StreamId],
        /// First-cycle offset at each cycle position.
        bases: &'a [u64],
        /// Per-cycle advance at each cycle position.
        strides: &'a [i64],
        /// Access width at each cycle position.
        widths: &'a [u32],
    },
    /// Online tracking gave up mid-stream; this is the offline rescan of
    /// the untried periods (the buffer is complete).
    Offline(Option<Pattern>),
    /// Definitively no whole-stream pattern (buffer is complete).
    Miss,
}

impl OnlineDetect {
    /// A fresh detector trying cycle lengths up to `max_period`.
    pub fn new(max_period: usize) -> Self {
        OnlineDetect {
            max_period,
            mode: OnlineMode::Disabled,
            p: 1,
            n: 0,
            budget: ONLINE_BUDGET,
            streams: Vec::new(),
            bases: Vec::new(),
            strides: Vec::new(),
            widths: Vec::new(),
            next_j: 0,
            next_m: 0,
        }
    }

    /// Prepare for a new lane's stream; candidate capacity is retained.
    pub fn reset(&mut self, enabled: bool) {
        self.mode = if enabled {
            OnlineMode::Pending
        } else {
            OnlineMode::Disabled
        };
        self.p = 1;
        self.n = 0;
        self.budget = ONLINE_BUDGET;
    }

    /// Entries fed so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no entry was fed yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Feed the next entry. `buf` is the lane's raw buffer (see the struct
    /// invariant); the detector appends to it whenever the entry is not
    /// covered by a live candidate.
    #[inline]
    pub fn push(&mut self, buf: &mut Vec<AddrEntry>, e: AddrEntry) {
        self.n += 1;
        if self.mode == OnlineMode::Tracking {
            let j = self.next_j;
            if self.streams[j] == e.stream
                && self.widths[j] == e.width
                && self.bases[j] as i64 + self.next_m * self.strides[j] == e.offset as i64
            {
                self.next_j += 1;
                if self.next_j == self.p {
                    self.next_j = 0;
                    self.next_m += 1;
                }
            } else {
                // Candidate died: complete the raw prefix it was standing in
                // for, then look for a larger cycle.
                self.rematerialize(buf, self.n - 1);
                buf.push(e);
                self.p += 1;
                self.seek(buf);
            }
        } else {
            buf.push(e);
            if self.mode == OnlineMode::Pending && self.n == 2 * self.p {
                self.seek(buf);
            }
        }
    }

    /// Feed `n` consecutive entries of one run: `width` bytes of `stream`
    /// at `offset`, `offset + width`, ... — exactly `n` [`Self::push`]
    /// calls. A tracking candidate advances across the matching prefix of
    /// the run (one check when it is a period-1 walk of the run's own
    /// stride); while pending or in fallback the run is buffered with one
    /// extend, stopping only where a pending detector must try its next
    /// period.
    pub fn push_run(
        &mut self,
        buf: &mut Vec<AddrEntry>,
        stream: StreamId,
        offset: u64,
        width: u32,
        n: usize,
    ) {
        let entry = |i: usize| AddrEntry {
            stream,
            offset: offset + i as u64 * width as u64,
            width,
        };
        let mut i = 0;
        while i < n {
            match self.mode {
                OnlineMode::Tracking => {
                    let matched = self.track_run(entry(i), n - i);
                    self.n += matched;
                    i += matched;
                    if i < n {
                        // The candidate dies on this entry.
                        self.push(buf, entry(i));
                        i += 1;
                    }
                }
                OnlineMode::Pending => {
                    let take = (2 * self.p - self.n).min(n - i);
                    buf.extend((i..i + take).map(entry));
                    self.n += take;
                    i += take;
                    if self.n == 2 * self.p {
                        self.seek(buf);
                    }
                }
                OnlineMode::Disabled | OnlineMode::Fallback { .. } => {
                    buf.extend((i..n).map(entry));
                    self.n += n - i;
                    i = n;
                }
            }
        }
    }

    /// Advance the live candidate over the longest prefix of the run
    /// `first`, `first + width`, ... (`n` entries) it reproduces; returns
    /// that prefix's length. Does not touch `self.n`.
    fn track_run(&mut self, first: AddrEntry, n: usize) -> usize {
        let (s, w) = (first.stream, first.width);
        if self.p == 1 && self.streams[0] == s && self.widths[0] == w && self.strides[0] == w as i64
        {
            // A period-1 walk of the run's own stride: it reproduces the
            // whole run iff it reproduces the first entry.
            if self.bases[0] as i64 + self.next_m * self.strides[0] != first.offset as i64 {
                return 0;
            }
            self.next_m += n as i64;
            return n;
        }
        for i in 0..n {
            let j = self.next_j;
            let off = first.offset as i64 + i as i64 * w as i64;
            if !(self.streams[j] == s
                && self.widths[j] == w
                && self.bases[j] as i64 + self.next_m * self.strides[j] == off)
            {
                return i;
            }
            self.next_j += 1;
            if self.next_j == self.p {
                self.next_j = 0;
                self.next_m += 1;
            }
        }
        n
    }

    /// Find the smallest period `>= self.p` whose candidate matches all `n`
    /// buffered entries, leaving the detector Tracking, Pending (not enough
    /// entries yet) or Fallback (budget / max period exhausted).
    fn seek(&mut self, buf: &[AddrEntry]) {
        loop {
            if self.p > self.max_period || self.budget == 0 {
                self.mode = OnlineMode::Fallback { from: self.p };
                return;
            }
            if 2 * self.p > self.n {
                self.mode = OnlineMode::Pending;
                return;
            }
            if self.try_build(buf) {
                self.mode = OnlineMode::Tracking;
                return;
            }
            self.p += 1;
        }
    }

    /// Build the candidate for the current period from the first two cycles
    /// and verify it against the rest of the buffer; charges the budget.
    fn try_build(&mut self, buf: &[AddrEntry]) -> bool {
        let p = self.p;
        self.budget = self.budget.saturating_sub(p);
        self.streams.clear();
        self.bases.clear();
        self.strides.clear();
        self.widths.clear();
        for j in 0..p {
            let (a, b) = (&buf[j], &buf[j + p]);
            if a.stream != b.stream || a.width != b.width {
                return false;
            }
            self.streams.push(a.stream);
            self.bases.push(a.offset);
            self.widths.push(a.width);
            self.strides.push(b.offset as i64 - a.offset as i64);
        }
        // Verify beyond the two defining cycles (rolling cycle position).
        let (mut j, mut m) = (0usize, 2i64);
        for (i, e) in buf[2 * p..self.n].iter().enumerate() {
            if !(self.streams[j] == e.stream
                && self.widths[j] == e.width
                && self.bases[j] as i64 + m * self.strides[j] == e.offset as i64)
            {
                self.budget = self.budget.saturating_sub(i + 1);
                return false;
            }
            j += 1;
            if j == p {
                j = 0;
                m += 1;
            }
        }
        self.budget = self.budget.saturating_sub(self.n - 2 * p);
        self.next_j = j;
        self.next_m = m;
        true
    }

    /// Append candidate-described entries to extend `buf` up to index
    /// `upto` (exclusive).
    fn rematerialize(&self, buf: &mut Vec<AddrEntry>, upto: usize) {
        let p = self.p;
        let k0 = buf.len();
        let (mut j, mut m) = (k0 % p, (k0 / p) as i64);
        for _ in k0..upto {
            let off = self.bases[j] as i64 + m * self.strides[j];
            debug_assert!(
                off >= 0,
                "live candidate reproduces original unsigned offsets"
            );
            buf.push(AddrEntry {
                stream: self.streams[j],
                offset: off as u64,
                width: self.widths[j],
            });
            j += 1;
            if j == p {
                j = 0;
                m += 1;
            }
        }
    }

    /// Complete the raw buffer (callers that need the raw entries after a
    /// `Hit` — e.g. the segmented-compression comparison — use this).
    pub fn materialize(&self, buf: &mut Vec<AddrEntry>) {
        if self.mode == OnlineMode::Tracking {
            self.rematerialize(buf, self.n);
        }
        debug_assert_eq!(buf.len(), self.n);
    }

    /// The offline-equivalent detection result over the whole stream. On
    /// anything but a `Hit`, `buf` is left holding the complete raw stream
    /// so segmented/raw fallback can proceed.
    pub fn finish(&self, buf: &mut Vec<AddrEntry>) -> OnlineOutcome<'_> {
        match self.mode {
            OnlineMode::Disabled | OnlineMode::Pending => OnlineOutcome::Miss,
            OnlineMode::Fallback { from } => {
                OnlineOutcome::Offline(detect_from(buf, from, self.max_period))
            }
            OnlineMode::Tracking => {
                let (p, n) = (self.p, self.n);
                // Same acceptance gates as the offline scan: three full
                // cycles, candidate definable inside the detection window,
                // and a descriptor smaller than the raw stream. Any failure
                // implies the offline scan returns None too (larger periods
                // fail the three-cycle rule even harder; smaller ones died).
                let accepted = n >= 3 * p
                    && 2 * p <= DETECT_WINDOW
                    && encoded_bytes_for(&self.streams, &self.bases, &self.strides, &self.widths)
                        < n as u64 * ADDR_ENTRY_BYTES;
                if accepted {
                    OnlineOutcome::Hit {
                        streams: &self.streams,
                        bases: &self.bases,
                        strides: &self.strides,
                        widths: &self.widths,
                    }
                } else {
                    self.materialize(buf);
                    OnlineOutcome::Miss
                }
            }
        }
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

    fn seq(start: u64, stride: u64, w: u32, n: usize) -> Vec<AddrEntry> {
        (0..n as u64).map(|i| e(start + i * stride, w)).collect()
    }

    #[test]
    fn sequential_byte_scan_is_period_one() {
        let entries = seq(100, 1, 1, 1000);
        let p = detect(&entries, MAX_PERIOD).expect("should detect");
        assert_eq!(p.period(), 1);
        assert_eq!(p.strides, vec![1]);
        assert!(p.matches(&entries));
        assert_eq!(p.data_bytes(), 1000);
        // Compression: 1000 * 8 raw bytes -> 28 pattern bytes.
        assert!(p.encoded_bytes() < 32);
    }

    #[test]
    fn kmeans_xyz_record_walk_is_period_three() {
        // 64-byte records, read three 8-byte doubles at offsets 0, 8, 16.
        let mut entries = Vec::new();
        for r in 0..50u64 {
            for f in 0..3u64 {
                entries.push(e(r * 64 + f * 8, 8));
            }
        }
        let p = detect(&entries, MAX_PERIOD).expect("should detect");
        assert_eq!(p.period(), 3);
        assert_eq!(p.bases, vec![0, 8, 16]);
        assert_eq!(p.strides, vec![64, 64, 64]);
        assert!(p.matches(&entries));
        assert_eq!(p.data_bytes(), 50 * 24);
    }

    #[test]
    fn entry_reconstruction_with_partial_cycle() {
        let mut entries = Vec::new();
        for r in 0..5u64 {
            entries.push(e(r * 32, 8));
            entries.push(e(r * 32 + 8, 4));
        }
        entries.push(e(5 * 32, 8)); // partial final cycle
        let p = detect(&entries, MAX_PERIOD).expect("detect");
        assert_eq!(p.period(), 2);
        for (k, &want) in entries.iter().enumerate() {
            assert_eq!(p.entry(k), want, "k={k}");
        }
        assert_eq!(p.data_bytes(), 5 * 12 + 8);
    }

    #[test]
    fn entry_at_exact_cycle_boundaries() {
        // count an exact multiple of the period — the shape a chunk edge
        // produces when the chunk size divides evenly into records. The
        // cycle-start entries (where a chunk slice begins) and the final
        // entry (where the previous slice ended) must reconstruct exactly.
        let mut entries = Vec::new();
        for r in 0..6u64 {
            entries.push(e(r * 32, 8));
            entries.push(e(r * 32 + 8, 4));
        }
        let p = detect(&entries, MAX_PERIOD).expect("detect");
        assert_eq!(p.period(), 2);
        assert_eq!(p.count, 12);
        for m in 0..6u64 {
            assert_eq!(p.entry(2 * m as usize), e(m * 32, 8), "cycle {m} start");
        }
        assert_eq!(p.entry(11), e(5 * 32 + 8, 4), "final entry of last cycle");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn entry_one_past_exact_cycle_count_panics() {
        // With count a multiple of the period, index `count` sits exactly on
        // the next cycle boundary — still out of range, not cycle 7 entry 0.
        let mut entries = Vec::new();
        for r in 0..6u64 {
            entries.push(e(r * 32, 8));
            entries.push(e(r * 32 + 8, 4));
        }
        let p = detect(&entries, MAX_PERIOD).expect("detect");
        let _ = p.entry(p.count);
    }

    #[test]
    fn irregular_stream_is_rejected() {
        // Hash-directed lookups: no period.
        let entries: Vec<AddrEntry> = [
            3u64, 11, 5, 40, 2, 93, 7, 1, 55, 23, 9, 77, 31, 4, 62, 18, 90, 6,
        ]
        .iter()
        .map(|&o| e(o * 64, 8))
        .collect();
        assert!(detect(&entries, MAX_PERIOD).is_none());
    }

    #[test]
    fn violation_after_window_is_rejected() {
        // Perfectly periodic through the 16-entry window, then one deviant
        // address — the verify phase must catch it (paper: restart raw).
        let mut entries = seq(0, 8, 8, 100);
        entries[60] = e(999_999, 8);
        assert!(detect(&entries, MAX_PERIOD).is_none());
    }

    #[test]
    fn width_change_breaks_pattern() {
        let mut entries = seq(0, 4, 4, 50);
        entries[30] = e(30 * 4, 2);
        assert!(detect(&entries, MAX_PERIOD).is_none());
    }

    #[test]
    fn multi_stream_cycle_detected() {
        // Alternating reads from two mapped arrays with different strides.
        let mut entries = Vec::new();
        for i in 0..40u64 {
            entries.push(AddrEntry {
                stream: StreamId(0),
                offset: i * 8,
                width: 8,
            });
            entries.push(AddrEntry {
                stream: StreamId(1),
                offset: i * 4,
                width: 4,
            });
        }
        let p = detect(&entries, MAX_PERIOD).expect("detect");
        assert_eq!(p.period(), 2);
        assert_eq!(p.streams, vec![StreamId(0), StreamId(1)]);
        assert_eq!(p.strides, vec![8, 4]);
        assert!(p.matches(&entries));
    }

    #[test]
    fn stream_change_mid_way_rejected() {
        let mut entries = seq(0, 8, 8, 40);
        entries[20].stream = StreamId(1);
        assert!(detect(&entries, MAX_PERIOD).is_none());
    }

    #[test]
    fn too_short_streams_not_compressed() {
        assert!(detect(&[], MAX_PERIOD).is_none());
        assert!(detect(&[e(0, 8)], MAX_PERIOD).is_none());
    }

    #[test]
    fn negative_strides_supported() {
        // Backward walk: base high, stride -16.
        let entries: Vec<AddrEntry> = (0..20u64).map(|i| e(10_000 - i * 16, 8)).collect();
        let p = detect(&entries, MAX_PERIOD).expect("detect");
        assert_eq!(p.strides, vec![-16]);
        assert!(p.matches(&entries));
    }

    #[test]
    fn minimum_profitable_stream_compresses_shorter_does_not() {
        // A period-1 descriptor is 28 bytes; four raw entries are 32.
        let four = seq(0, 8, 8, 4);
        let p = detect(&four, MAX_PERIOD).expect("detect");
        assert_eq!(p.count, 4);
        assert!(p.matches(&four));
        // Three entries (24 raw bytes) are cheaper to ship raw.
        assert!(detect(&seq(0, 8, 8, 3), MAX_PERIOD).is_none());
        assert!(detect(&seq(0, 8, 8, 2), MAX_PERIOD).is_none());
    }

    #[test]
    fn two_cycle_irregular_streams_are_not_vacuously_compressed() {
        // Six entries from two variable-length records (3 fields each):
        // every cycle position would have exactly two samples at p = 3,
        // fitting any AP — the 3-cycle rule must reject it.
        let entries = vec![e(0, 8), e(8, 8), e(26, 8), e(72, 8), e(80, 8), e(98, 8)];
        assert!(detect(&entries, MAX_PERIOD).is_none());
    }

    #[test]
    fn smallest_period_wins() {
        // A period-1 stream is also periodic at 2 and 4; detection must pick 1.
        let entries = seq(0, 8, 8, 64);
        assert_eq!(detect(&entries, MAX_PERIOD).unwrap().period(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn entry_out_of_range_panics() {
        let p = detect(&seq(0, 8, 8, 4), MAX_PERIOD).unwrap();
        let _ = p.entry(4);
    }

    #[test]
    #[should_panic(expected = "below zero")]
    fn negative_stride_walk_past_zero_panics_in_release_too() {
        // Hand-built descriptor that detection would never emit (verification
        // rejects candidates that fail to reproduce the original unsigned
        // offsets): base 16, stride -16 — entry 3 lands at offset -32. This
        // must be a hard panic, not a silent wrap to a huge u64, in every
        // build profile.
        let p = Pattern {
            streams: vec![StreamId(0)],
            bases: vec![16],
            strides: vec![-16],
            widths: vec![8],
            count: 5,
        };
        let _ = p.entry(3);
    }

    #[test]
    fn pattern_iter_matches_entry_including_partial_cycle() {
        let mut entries = Vec::new();
        for r in 0..7u64 {
            entries.push(e(r * 32, 8));
            entries.push(e(r * 32 + 8, 4));
            entries.push(e(r * 32 + 12, 2));
        }
        entries.push(e(7 * 32, 8));
        entries.push(e(7 * 32 + 8, 4)); // partial final cycle
        let p = detect(&entries, MAX_PERIOD).expect("detect");
        let via_iter: Vec<AddrEntry> = p.iter().collect();
        let via_entry: Vec<AddrEntry> = (0..p.count).map(|k| p.entry(k)).collect();
        assert_eq!(via_iter, via_entry);
        assert_eq!(p.iter().len(), entries.len());
    }

    fn online_run(entries: &[AddrEntry]) -> (Option<Pattern>, Vec<AddrEntry>) {
        let mut det = OnlineDetect::new(MAX_PERIOD);
        det.reset(true);
        let mut buf = Vec::new();
        for &e in entries {
            det.push(&mut buf, e);
        }
        let found = match det.finish(&mut buf) {
            OnlineOutcome::Hit {
                streams,
                bases,
                strides,
                widths,
            } => Some(Pattern {
                streams: streams.to_vec(),
                bases: bases.to_vec(),
                strides: strides.to_vec(),
                widths: widths.to_vec(),
                count: entries.len(),
            }),
            OnlineOutcome::Offline(r) => r,
            OnlineOutcome::Miss => None,
        };
        (found, buf)
    }

    #[test]
    fn online_locks_onto_kmeans_cycle_and_matches_offline() {
        let mut entries = Vec::new();
        for r in 0..50u64 {
            for f in 0..3u64 {
                entries.push(e(r * 64 + f * 8, 8));
            }
        }
        let (online, _) = online_run(&entries);
        assert_eq!(online, detect(&entries, MAX_PERIOD));
        assert_eq!(online.unwrap().period(), 3);
    }

    #[test]
    fn online_miss_leaves_buffer_complete() {
        // Periodic through the window, then a deviant address: the live
        // candidate dies late, forcing rematerialization of the suffix the
        // detector had stopped buffering.
        let mut entries = seq(0, 8, 8, 100);
        entries[60] = e(999_999, 8);
        let (online, buf) = online_run(&entries);
        assert_eq!(online, detect(&entries, MAX_PERIOD));
        assert!(online.is_none());
        assert_eq!(buf, entries);
    }

    #[test]
    fn online_matches_offline_on_irregular_budget_fallback() {
        // Long pseudo-random stream: online promotion exhausts its budget
        // and defers to the offline rescan — results must still agree.
        let entries: Vec<AddrEntry> = (0..600u64)
            .map(|i| e((i.wrapping_mul(2654435761)) % (1 << 20), 8))
            .collect();
        let (online, buf) = online_run(&entries);
        assert_eq!(online, detect(&entries, MAX_PERIOD));
        assert_eq!(buf, entries);
    }

    #[test]
    fn online_pending_two_cycles_is_none_like_offline() {
        // Exactly two cycles of a long period: offline rejects (three-cycle
        // rule); online must agree from its Tracking state.
        let mut entries = Vec::new();
        for _ in 0..2 {
            for j in 0..20u64 {
                entries.push(e(j * 128, 8));
            }
        }
        let (online, buf) = online_run(&entries);
        assert_eq!(online, detect(&entries, MAX_PERIOD));
        assert!(online.is_none());
        assert_eq!(buf, entries);
    }
}

#[cfg(test)]
pub(crate) mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_cycle() -> impl Strategy<Value = (Vec<u64>, Vec<i64>, Vec<u32>)> {
        // period 1..=6, bases < 2^20, strides small positive (keep offsets
        // non-negative over any count), widths in {1,2,4,8}
        (1usize..=6).prop_flat_map(|p| {
            (
                proptest::collection::vec(0u64..(1 << 20), p),
                proptest::collection::vec(1i64..512, p),
                proptest::collection::vec(proptest::sample::select(vec![1u32, 2, 4, 8]), p),
            )
        })
    }

    proptest! {
        /// Any stream generated from a cycle must be detected and
        /// reconstructed exactly (detection may find a *smaller* equivalent
        /// period; only reconstruction equality is guaranteed).
        #[test]
        fn generated_cycles_roundtrip(
            (bases, strides, widths) in arb_cycle(),
            cycles in 3usize..40,
        ) {
            let p = bases.len();
            let count = cycles * p;
            let gen = Pattern {
                streams: vec![crate::stream::StreamId(0); p],
                bases,
                strides,
                widths,
                count,
            };
            let entries: Vec<AddrEntry> = (0..count).map(|k| gen.entry(k)).collect();
            let det = detect(&entries, MAX_PERIOD);
            // Tiny streams may be unprofitable to compress; detection must
            // then decline rather than mis-reconstruct.
            match det {
                Some(found) => prop_assert!(found.matches(&entries)),
                None => prop_assert!(
                    entries.len() as u64 * crate::addr::ADDR_ENTRY_BYTES <= 8 + p as u64 * 20,
                    "profitable {p}-cycle of {count} entries went undetected"
                ),
            }
        }

        /// A detected pattern's encoded size never exceeds the raw stream's.
        #[test]
        fn compression_never_negative(
            (bases, strides, widths) in arb_cycle(),
            cycles in 3usize..20,
        ) {
            let p = bases.len();
            let count = cycles * p;
            let gen = Pattern {
                streams: vec![crate::stream::StreamId(0); p],
                bases, strides, widths, count,
            };
            let entries: Vec<AddrEntry> = (0..count).map(|k| gen.entry(k)).collect();
            if let Some(found) = detect(&entries, MAX_PERIOD) {
                prop_assert!(
                    found.encoded_bytes()
                        <= entries.len() as u64 * crate::addr::ADDR_ENTRY_BYTES,
                );
                prop_assert_eq!(
                    found.data_bytes(),
                    entries.iter().map(|e| e.width as u64).sum::<u64>()
                );
            }
        }

        /// Corrupting one entry of a long periodic stream kills detection or
        /// still reconstructs exactly (never silently mismatches).
        #[test]
        fn corruption_is_never_silently_absorbed(
            stride in 1u64..64,
            n in 24usize..200,
            victim in 0usize..200,
            bump in 1u64..100,
        ) {
            let mut entries: Vec<AddrEntry> = (0..n as u64)
                .map(|i| AddrEntry {
                    stream: crate::stream::StreamId(0),
                    offset: 1000 + i * stride,
                    width: 8,
                })
                .collect();
            let victim = victim % n;
            entries[victim].offset += bump;
            if let Some(p) = detect(&entries, MAX_PERIOD) {
                prop_assert!(p.matches(&entries), "detected pattern must reproduce exactly");
            }
        }
    }

    /// One segment of a mixed stream: a patterned run, an irregular run, or
    /// a width-changing strided run.
    fn arb_segment() -> impl Strategy<Value = Vec<AddrEntry>> {
        let patterned = (arb_cycle(), 1usize..16).prop_map(|((bases, strides, widths), cycles)| {
            let p = bases.len();
            let gen = Pattern {
                streams: vec![crate::stream::StreamId(0); p],
                bases,
                strides,
                widths,
                count: cycles * p,
            };
            (0..gen.count).map(|k| gen.entry(k)).collect::<Vec<_>>()
        });
        let irregular = proptest::collection::vec(
            (
                0u32..3,
                0u64..(1 << 20),
                proptest::sample::select(vec![1u32, 2, 4, 8]),
            ),
            1..48,
        )
        .prop_map(|v| {
            v.into_iter()
                .map(|(s, o, w)| AddrEntry {
                    stream: crate::stream::StreamId(s),
                    offset: o,
                    width: w,
                })
                .collect::<Vec<_>>()
        });
        let width_flip = (1u64..64, 4usize..40).prop_map(|(stride, n)| {
            (0..n as u64)
                .map(|i| AddrEntry {
                    stream: crate::stream::StreamId(0),
                    offset: 4096 + i * stride,
                    width: if i % 2 == 0 { 8 } else { 2 },
                })
                .collect::<Vec<_>>()
        });
        prop_oneof![patterned, irregular, width_flip]
    }

    pub(crate) fn arb_mixed() -> impl Strategy<Value = Vec<AddrEntry>> {
        proptest::collection::vec(arb_segment(), 1..4).prop_map(|segs| segs.concat())
    }

    /// Fixed-size record walks with long cycles: every record is the same
    /// one to three runs (a timestamp then a text scan, say; each run
    /// contiguous or gapped), records 64 KiB apart, and at most one access
    /// knocked off the walk (its offset, width or stream changed).
    pub(crate) fn arb_record_walk() -> impl Strategy<Value = Vec<AddrEntry>> {
        (
            proptest::collection::vec(
                (
                    0u64..4096,
                    proptest::sample::select(vec![1u32, 2, 4, 8]),
                    1u64..3,
                    1u64..100,
                ),
                1..4,
            ),
            2u64..8,
            0usize..125,
            0u8..3,
        )
            .prop_map(|(runs, records, victim_pct, how)| {
                let mut out = Vec::new();
                for r in 0..records {
                    for &(base, width, gap, len) in &runs {
                        out.extend((0..len).map(|t| AddrEntry {
                            stream: crate::stream::StreamId(0),
                            offset: (r << 16) + base + t * gap * width as u64,
                            width,
                        }));
                    }
                }
                let victim = out.len() * victim_pct / 100;
                if let Some(e) = out.get_mut(victim) {
                    match how {
                        0 => e.offset += 1,
                        1 => e.width = if e.width == 1 { 2 } else { e.width / 2 },
                        _ => e.stream = crate::stream::StreamId(1),
                    }
                }
                out
            })
    }

    fn arb_stream() -> impl Strategy<Value = Vec<AddrEntry>> {
        prop_oneof![arb_mixed(), arb_record_walk()]
    }

    /// [`detect_from`] by its contract, one candidate at a time: the
    /// smallest period `p >= lo` that fits two cycles in the detection
    /// window and three in the stream, and whose candidate `matches` every
    /// entry and encodes smaller than the raw stream.
    fn detect_from_reference(
        entries: &[AddrEntry],
        lo: usize,
        max_period: usize,
    ) -> Option<Pattern> {
        let window = entries.len().min(DETECT_WINDOW);
        (lo..=max_period)
            .filter(|&p| 2 * p <= window && 3 * p <= entries.len())
            .map(|p| candidate(entries, p))
            .find(|c| {
                c.matches(entries) && c.encoded_bytes() < entries.len() as u64 * ADDR_ENTRY_BYTES
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The in-place lag-p verification accepts exactly the candidates
        /// `Pattern::matches` accepts, and the scan returns the smallest
        /// profitable one.
        #[test]
        fn detect_from_matches_its_reference(
            entries in arb_stream(),
            lo in 1usize..6,
            max_period in proptest::sample::select(vec![8usize, 64, MAX_PERIOD]),
        ) {
            prop_assert_eq!(
                detect_from(&entries, lo, max_period),
                detect_from_reference(&entries, lo, max_period)
            );
        }

        /// The bounded segmented walk returns exactly the unbounded result
        /// filtered by the bound, at the bound's edges and away from them;
        /// the unbounded result reproduces the stream.
        #[test]
        fn segmented_below_is_filtered_segmented(
            entries in arb_stream(),
            max_period in proptest::sample::select(vec![1usize, 8, MAX_PERIOD]),
            frac in 0u64..=100,
        ) {
            use crate::segmented::{detect_segmented, detect_segmented_below};
            let full = detect_segmented(&entries, max_period);
            if let Some(s) = &full {
                prop_assert!(s.iter().eq(entries.iter().copied()));
            }
            let bytes = full.as_ref().map_or(0, |s| s.encoded_bytes());
            let raw = entries.len() as u64 * ADDR_ENTRY_BYTES;
            let bounds = [0, bytes.saturating_sub(1), bytes, bytes + 1, raw * frac / 100, u64::MAX];
            for bound in bounds {
                let want = full.clone().filter(|s| s.encoded_bytes() < bound);
                prop_assert_eq!(
                    detect_segmented_below(&entries, max_period, bound),
                    want,
                    "bound {}", bound
                );
            }
        }
    }

    proptest! {
        /// The streaming detector must be bit-equivalent to the offline scan
        /// on arbitrary mixed streams (patterned + irregular + width
        /// changes), and must leave the caller's buffer holding the stream
        /// verbatim whenever no whole-stream pattern is committed.
        #[test]
        fn online_matches_offline_on_mixed_streams(entries in arb_mixed()) {
            let mut det = OnlineDetect::new(MAX_PERIOD);
            det.reset(true);
            let mut buf = Vec::new();
            for &e in &entries {
                det.push(&mut buf, e);
            }
            let offline = detect(&entries, MAX_PERIOD);
            let online = match det.finish(&mut buf) {
                OnlineOutcome::Hit { streams, bases, strides, widths } => Some(Pattern {
                    streams: streams.to_vec(),
                    bases: bases.to_vec(),
                    strides: strides.to_vec(),
                    widths: widths.to_vec(),
                    count: entries.len(),
                }),
                OnlineOutcome::Offline(r) => r,
                OnlineOutcome::Miss => None,
            };
            prop_assert_eq!(&online, &offline);
            if online.is_none() {
                prop_assert_eq!(&buf, &entries);
            } else {
                det.materialize(&mut buf);
                prop_assert_eq!(&buf, &entries);
            }
        }
    }
}
