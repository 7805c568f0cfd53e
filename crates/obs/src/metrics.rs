//! The unified metrics registry: counters + fixed-footprint histograms.
//!
//! [`MetricsRegistry`] is the single sink every layer (runtime, baselines,
//! experiment binaries) reports through. It wraps the existing
//! [`Counters`] map unchanged and adds log₂-bucketed [`Histogram`]s for
//! distributions the counters flatten away: span durations per stage,
//! per-chunk transferred bytes, and anything a later PR wants to observe.
//!
//! Both halves use `BTreeMap`s keyed by `&'static str`, so iteration order —
//! and therefore every printed report and exported JSON — is deterministic.
//! Fixed names are literals at the call site; composed ones
//! (`stall.<stage>.<cause>`, `device.<i>.busy_ns`, …) come interned from
//! [`crate::names`].
//! A histogram's storage is a fixed inline array: `observe` never allocates
//! once the name exists, which keeps the steady-state pipeline loop
//! allocation-free (pinned by `crates/gpu/tests/alloc_free.rs`).

use bk_simcore::Counters;
use std::collections::BTreeMap;
use std::fmt;

/// Number of log₂ buckets: bucket `i` counts values whose bit length is `i`
/// (so bucket 0 is exactly the value 0, bucket 64 is `2^63..=u64::MAX`).
pub const HIST_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples with exact count / sum /
/// min / max. Fixed footprint; `observe` is branch-light and allocation-free.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// An empty histogram (identical to `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[(64 - value.leading_zeros()) as usize] += 1;
    }

    /// Number of samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observed sample; zero for an empty histogram.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observed sample; zero for an empty histogram.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the observed samples, zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Occupancy of one log₂ bucket (see [`HIST_BUCKETS`]).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }
}

/// The workspace-wide metrics sink: named counters plus named histograms.
///
/// The counter half mirrors the [`Counters`] API (`add` / `incr` / `get` /
/// `ratio` / `merge` / `iter`) so migrated call sites read the same; the
/// histogram half adds `observe` / `hist`.
///
/// ```
/// use bk_obs::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// m.add("pcie.h2d_bytes", 4096);
/// m.incr("chunks");
/// m.observe("hist.span.compute", 1250);
/// assert_eq!(m.get("pcie.h2d_bytes"), 4096);
/// assert_eq!(m.hist("hist.span.compute").unwrap().count(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: Counters,
    hists: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry (identical to `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter (overflow-checked, see
    /// [`Counters::add`]).
    #[inline]
    pub fn add(&mut self, name: &'static str, delta: u64) {
        self.counters.add(name, delta);
    }

    /// Increment the named counter by one.
    #[inline]
    pub fn incr(&mut self, name: &'static str) {
        self.counters.incr(name);
    }

    /// Current counter value (zero if never touched).
    #[inline]
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name)
    }

    /// Ratio of two counters, `0.0` when the denominator is zero.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        self.counters.ratio(num, den)
    }

    /// Record one sample into the named histogram (created empty first).
    #[inline]
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.hists.entry(name).or_default().observe(value);
    }

    /// The named histogram, if any sample was ever observed under it.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Merge a standalone histogram into the named one (created empty
    /// first) — for stages that accumulate a local [`Histogram`] off to the
    /// side and fold it in wholesale.
    pub fn merge_hist(&mut self, name: &'static str, h: &Histogram) {
        self.hists.entry(name).or_default().merge(h);
    }

    /// Merge another registry into this one (summing counters, merging
    /// histograms by name).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        self.counters.merge(&other.counters);
        for (&k, v) in &other.hists {
            self.hists.entry(k).or_default().merge(v);
        }
    }

    /// Iterate counters in deterministic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter()
    }

    /// Iterate histograms in deterministic name order.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.hists.iter().map(|(&k, v)| (k, v))
    }

    /// The wrapped counter map (for code that still speaks [`Counters`]).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Whether neither a counter nor a histogram was ever touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.counters)?;
        for (name, h) in self.hists() {
            writeln!(
                f,
                "{name:40} n={} mean={:.1} min={} max={}",
                h.count(),
                h.mean(),
                h.min(),
                h.max()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let mut h = Histogram::new();
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (0, 0, 0, 0));
        for v in [0u64, 1, 7, 8, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1040);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1024);
        assert!((h.mean() - 208.0).abs() < 1e-12);
        // log2 buckets: 0 → bucket 0, 1 → 1, 7 → 3, 8 → 4, 1024 → 11.
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(3), 1);
        assert_eq!(h.bucket(4), 1);
        assert_eq!(h.bucket(11), 1);
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = Histogram::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.bucket(64), 2);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
    }

    #[test]
    fn histogram_merge_is_additive() {
        let mut a = Histogram::new();
        a.observe(3);
        let mut b = Histogram::new();
        b.observe(100);
        b.observe(1);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 104);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 100);
    }

    #[test]
    fn registry_mirrors_counter_api_and_adds_histograms() {
        let mut m = MetricsRegistry::new();
        assert!(m.is_empty());
        m.add("bytes", 10);
        m.incr("bytes");
        assert_eq!(m.get("bytes"), 11);
        m.add("hits", 3);
        m.add("total", 4);
        assert!((m.ratio("hits", "total") - 0.75).abs() < 1e-12);
        m.observe("lat", 5);
        m.observe("lat", 7);
        assert_eq!(m.hist("lat").unwrap().count(), 2);
        assert!(m.hist("absent").is_none());
        assert!(!m.is_empty());
    }

    #[test]
    fn registry_merge_combines_both_halves() {
        let mut a = MetricsRegistry::new();
        a.add("c", 1);
        a.observe("h", 2);
        let mut b = MetricsRegistry::new();
        b.add("c", 2);
        b.observe("h", 4);
        b.observe("only_b", 1);
        a.merge(&b);
        assert_eq!(a.get("c"), 3);
        assert_eq!(a.hist("h").unwrap().count(), 2);
        assert_eq!(a.hist("h").unwrap().sum(), 6);
        assert_eq!(a.hist("only_b").unwrap().count(), 1);
    }

    #[test]
    fn merge_hist_folds_a_local_histogram_in() {
        let mut m = MetricsRegistry::new();
        m.observe("h", 1);
        let mut local = Histogram::new();
        local.observe(9);
        local.observe(3);
        m.merge_hist("h", &local);
        m.merge_hist("fresh", &local);
        assert_eq!(m.hist("h").unwrap().count(), 3);
        assert_eq!(m.hist("h").unwrap().sum(), 13);
        assert_eq!(m.hist("fresh").unwrap().count(), 2);
    }

    #[test]
    fn registry_equality_covers_histograms() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        assert_eq!(a, b);
        a.observe("h", 1);
        assert_ne!(a, b);
        b.observe("h", 1);
        assert_eq!(a, b);
    }

    #[test]
    fn display_lists_counters_and_hist_summaries() {
        let mut m = MetricsRegistry::new();
        m.add("events", 2);
        m.observe("lat", 10);
        let s = format!("{m}");
        assert!(s.contains("events"));
        assert!(s.contains("lat"));
        assert!(s.contains("n=1"));
    }
}
