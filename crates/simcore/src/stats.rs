//! Named event/byte counters.
//!
//! The simulators record what happened (bytes over PCIe, memory transactions,
//! cache hits/misses, atomics issued, ...) into a [`Counters`] map. The
//! experiment harness reads these to print Table I (% of mapped data read /
//! modified) and to explain figure shapes.

use std::collections::BTreeMap;
use std::fmt;

/// A set of named monotonically-increasing `u64` counters.
///
/// Uses a `BTreeMap` so iteration (and therefore printed output) is always in
/// deterministic name order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    values: BTreeMap<&'static str, u64>,
}

impl Counters {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter (creating it at zero first).
    ///
    /// Overflow is a modelling bug (counters track bytes/events of bounded
    /// simulations): debug builds assert, release builds saturate at
    /// `u64::MAX` instead of wrapping silently.
    #[inline]
    pub fn add(&mut self, name: &'static str, delta: u64) {
        let slot = self.values.entry(name).or_insert(0);
        match slot.checked_add(delta) {
            Some(v) => *slot = v,
            None => {
                debug_assert!(false, "counter `{name}` overflowed u64 adding {delta}");
                *slot = u64::MAX;
            }
        }
    }

    /// Increment the named counter by one.
    #[inline]
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Current value (zero if never touched).
    #[inline]
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Merge another counter set into this one (summing shared names).
    pub fn merge(&mut self, other: &Counters) {
        for (&k, &v) in &other.values {
            self.add(k, v);
        }
    }

    /// Ratio of two counters, `0.0` when the denominator is zero.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.get(den);
        if d == 0 {
            0.0
        } else {
            self.get(num) as f64 / d as f64
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.values.iter().map(|(&k, &v)| (k, v))
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k:40} {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_incr_get() {
        let mut c = Counters::new();
        assert_eq!(c.get("x"), 0);
        c.add("x", 5);
        c.incr("x");
        assert_eq!(c.get("x"), 6);
        assert_eq!(c.get("absent"), 0);
    }

    #[test]
    fn merge_sums_by_name() {
        let mut a = Counters::new();
        a.add("bytes", 10);
        a.add("only_a", 1);
        let mut b = Counters::new();
        b.add("bytes", 32);
        b.add("only_b", 2);
        a.merge(&b);
        assert_eq!(a.get("bytes"), 42);
        assert_eq!(a.get("only_a"), 1);
        assert_eq!(a.get("only_b"), 2);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "overflowed"))]
    fn add_overflow_asserts_in_debug_and_saturates_in_release() {
        let mut c = Counters::new();
        c.add("x", u64::MAX - 1);
        c.add("x", 5);
        // Only reached in release builds, where the add saturates.
        assert_eq!(c.get("x"), u64::MAX);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "overflowed"))]
    fn merge_saturates_shared_counters() {
        let mut a = Counters::new();
        a.add("bytes", u64::MAX - 1);
        let mut b = Counters::new();
        b.add("bytes", 10);
        b.add("other", 1);
        a.merge(&b);
        assert_eq!(a.get("bytes"), u64::MAX);
        assert_eq!(a.get("other"), 1);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let mut c = Counters::new();
        c.add("hits", 3);
        assert_eq!(c.ratio("hits", "accesses"), 0.0);
        c.add("accesses", 4);
        assert!((c.ratio("hits", "accesses") - 0.75).abs() < 1e-12);
    }

    #[test]
    fn deterministic_iteration_order() {
        let mut c = Counters::new();
        c.add("zeta", 1);
        c.add("alpha", 2);
        c.add("mid", 3);
        let names: Vec<_> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn display_lists_all() {
        let mut c = Counters::new();
        c.add("a", 1);
        c.add("b", 2);
        let s = format!("{c}");
        assert!(s.contains('a') && s.contains('b'));
    }
}
