//! Set-associative LRU cache simulator.
//!
//! Used to measure the CPU-side data-assembly stage's locality: BigKernel's
//! gather walks the mapped source array in either GPU-access order (poor
//! locality when records interleave across threads) or per-GPU-thread order
//! (paper §IV.B, good locality because each GPU thread reads consecutive
//! data). The measured hit rate feeds the CPU cost model.
//!
//! The model is a single-level "last level cache" (the paper quotes 10 MB
//! combined L2/L3); inner levels are folded into the hit cost.
//!
//! The simulator sits on the assembly hot path (one probe per gathered
//! line), so the lookup is branch-light: line/set/tag come from shifts and
//! masks, and each set's LRU order lives in a flat `ways`-wide row moved
//! with `copy_within` rather than a per-set `Vec`.
//!
//! A model that outlives one run (the streaming runner keeps each block's
//! cache for the whole stream) is reset with [`CacheSim::clear`], which
//! zeroes only the sets touched since the last clear instead of the whole
//! tag array.

/// Outcome of one access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    Hit,
    Miss,
}

/// Set-associative cache with LRU replacement.
///
/// ```
/// use bk_host::CacheSim;
///
/// let mut llc = CacheSim::xeon_llc();
/// // A sequential scan misses once per 64-byte line.
/// for addr in 0..4096u64 {
///     llc.access(addr);
/// }
/// assert_eq!(llc.misses(), 4096 / 64);
/// ```
pub struct CacheSim {
    line_bytes: u64,
    /// `log2(line_bytes)`: byte address → line number by shift.
    line_shift: u32,
    num_sets: u64,
    /// `num_sets - 1`: line number → set index by mask.
    set_mask: u64,
    /// `log2(num_sets)`: line number → tag by shift.
    set_shift: u32,
    ways: usize,
    /// Flat `num_sets x ways` tag rows, each most-recent first. Entries
    /// store `tag + 1` so `0` means "empty way" (tags are bounded well
    /// below `u64::MAX` because they are `addr >> line_shift / num_sets`).
    tags: Vec<u64>,
    /// Sets that went from empty to occupied since the last
    /// [`CacheSim::clear`], each listed once: a set is recorded on the miss
    /// that installs into its still-empty MRU way, and its MRU way stays
    /// non-zero until the next clear.
    touched: Vec<u32>,
    hits: u64,
    misses: u64,
}

impl CacheSim {
    /// Create a cache of `capacity_bytes` with `line_bytes` lines and
    /// `ways`-way associativity. Capacity must be a multiple of
    /// `line_bytes * ways` and the resulting set count a power of two.
    pub fn new(capacity_bytes: u64, line_bytes: u64, ways: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(ways > 0, "need at least one way");
        let num_sets = capacity_bytes / (line_bytes * ways as u64);
        assert!(
            num_sets > 0 && num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(
            num_sets <= 1 << 32,
            "set count must fit the touched-set list"
        );
        CacheSim {
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            num_sets,
            set_mask: num_sets - 1,
            set_shift: num_sets.trailing_zeros(),
            ways,
            tags: vec![0; (num_sets as usize) * ways],
            touched: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The paper's host: 10 MB combined L2/L3. (8 MiB power-of-two sets,
    /// 64 B lines, 16-way.)
    pub fn xeon_llc() -> Self {
        CacheSim::new(8 * (1 << 20), 64, 16)
    }

    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Total capacity in bytes (`sets * ways * line_bytes`) — the working
    /// set that fits fully resident, used to size cache-blocked gather
    /// tiles.
    pub fn capacity_bytes(&self) -> u64 {
        self.num_sets * self.ways as u64 * self.line_bytes
    }

    /// Probe one line number (not a byte address).
    #[inline]
    fn access_line(&mut self, line: u64) -> Access {
        let set_idx = (line & self.set_mask) as usize;
        let tag = (line >> self.set_shift) + 1;
        let row = &mut self.tags[set_idx * self.ways..(set_idx + 1) * self.ways];
        if row[0] == tag {
            // Already MRU — the streaming common case (consecutive gathers
            // landing in the same line) needs no reordering.
            self.hits += 1;
            return Access::Hit;
        }
        if let Some(pos) = row.iter().position(|&t| t == tag) {
            // Move to MRU position.
            row.copy_within(0..pos, 1);
            row[0] = tag;
            self.hits += 1;
            Access::Hit
        } else {
            // Shift everything down one way (the LRU falls off) and
            // install at MRU. An empty MRU way means the set is empty: this
            // is its first install since the last clear.
            if row[0] == 0 {
                self.touched.push(set_idx as u32);
            }
            row.copy_within(0..self.ways - 1, 1);
            row[0] = tag;
            self.misses += 1;
            Access::Miss
        }
    }

    /// Access one byte address; widths that stay within a line count as one
    /// access (callers split multi-line accesses — see [`CacheSim::access_range`]).
    pub fn access(&mut self, addr: u64) -> Access {
        self.access_line(addr >> self.line_shift)
    }

    /// Access `[addr, addr+len)`, one access per touched line — partial
    /// leading and trailing lines each count as a full probe, and a
    /// zero-length range touches nothing. Returns `(hits, misses)` for the
    /// range.
    pub fn access_range(&mut self, addr: u64, len: u64) -> (u64, u64) {
        if len == 0 {
            return (0, 0);
        }
        let first = addr >> self.line_shift;
        let last = (addr + len - 1) >> self.line_shift;
        let mut h = 0;
        let mut m = 0;
        for line in first..=last {
            match self.access_line(line) {
                Access::Hit => h += 1,
                Access::Miss => m += 1,
            }
        }
        (h, m)
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Empty the cache and zero its statistics. Afterwards the cache is
    /// indistinguishable from a new one of the same geometry, but only the
    /// sets touched since the last clear are zeroed, so clearing a cache
    /// that saw a small working set costs that working set, not the
    /// capacity.
    pub fn clear(&mut self) {
        for &set in &self.touched {
            let at = set as usize * self.ways;
            self.tags[at..at + self.ways].fill(0);
        }
        self.touched.clear();
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheSim {
        // 4 sets x 2 ways x 64B lines = 512B capacity
        CacheSim::new(512, 64, 2)
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = tiny();
        assert_eq!(c.access(0), Access::Miss);
        assert_eq!(c.access(0), Access::Hit);
        assert_eq!(c.access(63), Access::Hit); // same line
        assert_eq!(c.access(64), Access::Miss); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_oldest_within_set() {
        let mut c = tiny();
        // Three lines mapping to set 0: line numbers 0, 4, 8 (4 sets).
        let (a, b, d) = (0u64, 4 * 64, 8 * 64);
        c.access(a);
        c.access(b);
        c.access(d); // evicts a (2-way)
        assert_eq!(c.access(b), Access::Hit);
        assert_eq!(c.access(a), Access::Miss);
    }

    #[test]
    fn lru_touch_refreshes() {
        let mut c = tiny();
        let (a, b, d) = (0u64, 4 * 64, 8 * 64);
        c.access(a);
        c.access(b);
        c.access(a); // refresh a → b becomes LRU
        c.access(d); // evicts b
        assert_eq!(c.access(a), Access::Hit);
        assert_eq!(c.access(b), Access::Miss);
    }

    #[test]
    fn sequential_scan_hit_rate_matches_line_size() {
        let mut c = CacheSim::xeon_llc();
        for addr in 0..(1u64 << 16) {
            c.access(addr);
        }
        // 1 miss per 64B line → hit rate 63/64.
        let expected = 63.0 / 64.0;
        assert!((c.hit_rate() - expected).abs() < 1e-3, "{}", c.hit_rate());
    }

    #[test]
    fn scattered_scan_mostly_misses() {
        let mut c = CacheSim::xeon_llc();
        // Stride far beyond capacity repeatedly.
        let mut addr = 0u64;
        for _ in 0..100_000 {
            c.access(addr);
            addr = addr.wrapping_add(1 << 20) & ((1 << 36) - 1);
        }
        assert!(c.hit_rate() < 0.05, "{}", c.hit_rate());
    }

    #[test]
    fn access_range_counts_lines() {
        let mut c = tiny();
        let (h, m) = c.access_range(0, 129); // lines 0,1,2
        assert_eq!((h, m), (0, 3));
        let (h, m) = c.access_range(0, 129);
        assert_eq!((h, m), (3, 0));
        assert_eq!(c.access_range(0, 0), (0, 0));
    }

    #[test]
    fn access_range_partial_edge_lines() {
        let mut c = tiny();
        // [60, 70): straddles the 0/1 line boundary — both partial lines
        // count as one probe each.
        assert_eq!(c.access_range(60, 10), (0, 2));
        // [65, 66): entirely inside line 1, already resident.
        assert_eq!(c.access_range(65, 1), (1, 0));
        // Trailing byte exactly on a boundary stays in the leading line.
        assert_eq!(c.access_range(128, 64), (0, 1));
        assert_eq!(c.access_range(128, 65), (1, 1));
    }

    #[test]
    fn reset_stats_after_access_range_keeps_contents() {
        let mut c = tiny();
        // Warm lines 0..=2 through the range API, then reset the stats.
        assert_eq!(c.access_range(0, 129), (0, 3));
        c.reset_stats();
        assert_eq!((c.hits(), c.misses()), (0, 0));
        // The tags must survive the reset: the same range now fully hits,
        // and the counters restart from zero.
        assert_eq!(c.access_range(0, 129), (3, 0));
        assert_eq!((c.hits(), c.misses()), (3, 0));
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = tiny();
        c.access(0);
        c.reset_stats();
        assert_eq!((c.hits(), c.misses()), (0, 0));
        assert_eq!(c.access(0), Access::Hit); // still cached
    }

    #[test]
    fn capacity_matches_geometry() {
        assert_eq!(tiny().capacity_bytes(), 512);
        assert_eq!(CacheSim::xeon_llc().capacity_bytes(), 8 << 20);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        let _ = CacheSim::new(3 * 64 * 2, 64, 2);
    }

    mod props {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// A small geometry (`line_bytes`, `ways`, `num_sets`) plus two
        /// address sequences over a few times its capacity, so sets fill,
        /// evict and overlap between the sequences.
        fn geometry_and_streams() -> impl Strategy<Value = (u64, usize, u64, Vec<u64>, Vec<u64>)> {
            (0u32..=6, 1usize..=4, 0u32..=4).prop_flat_map(|(line_log, ways, sets_log)| {
                let (line, sets) = (1u64 << line_log, 1u64 << sets_log);
                let span = 4 * line * ways as u64 * sets;
                (
                    Just(line),
                    Just(ways),
                    Just(sets),
                    vec(0..span, 0..200usize),
                    vec(0..span, 0..200usize),
                )
            })
        }

        fn feed(c: &mut CacheSim, addrs: &[u64]) -> Vec<Access> {
            addrs.iter().map(|&a| c.access(a)).collect()
        }

        /// Every set index recorded at most once, and never more than the
        /// cache has sets.
        fn touched_is_a_set_list(c: &CacheSim) -> bool {
            let mut seen = c.touched.clone();
            seen.sort_unstable();
            seen.dedup();
            seen.len() == c.touched.len() && c.touched.len() as u64 <= c.num_sets
        }

        proptest! {
            /// `clear()` is exact: after feeding A and clearing, the cache
            /// answers B access for access like a new cache, ends with the
            /// same statistics and the same tag array, and clearing a new
            /// cache changes nothing.
            #[test]
            fn clear_equals_a_fresh_cache((line, ways, sets, a, b) in geometry_and_streams()) {
                let capacity = line * ways as u64 * sets;
                let mut fresh = CacheSim::new(capacity, line, ways);
                fresh.clear();
                prop_assert!(fresh.tags.iter().all(|&t| t == 0));
                prop_assert_eq!((fresh.hits(), fresh.misses()), (0, 0));
                prop_assert!(fresh.touched.is_empty());

                let mut reused = CacheSim::new(capacity, line, ways);
                feed(&mut reused, &a);
                prop_assert!(touched_is_a_set_list(&reused));
                reused.clear();
                prop_assert!(reused.touched.is_empty());
                prop_assert!(reused.tags == fresh.tags);

                let want = feed(&mut fresh, &b);
                let got = feed(&mut reused, &b);
                prop_assert_eq!(got, want);
                prop_assert_eq!(
                    (reused.hits(), reused.misses()),
                    (fresh.hits(), fresh.misses())
                );
                prop_assert!(reused.tags == fresh.tags);
                prop_assert!(touched_is_a_set_list(&reused));
            }
        }
    }
}
