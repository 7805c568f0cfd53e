//! Roofline-style stage cost composition.
//!
//! Every stage duration in the model is the maximum of a small number of
//! bound terms (compute-bound, memory-bound, link-bound, ...) plus fixed
//! latency overheads that cannot be hidden. [`RooflineTerms`] accumulates the
//! terms with labels so that experiment output can explain *which* bound won
//! — that is how the harness reports "computation-dominant" vs
//! "communication-dominant" applications (paper Fig. 4(b)).

use crate::time::SimTime;

/// A named bound contributing to a stage's duration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoundTerm {
    pub label: &'static str,
    pub time: SimTime,
}

/// Accumulates bound terms and fixed overheads for one stage execution.
#[derive(Clone, Debug, Default)]
pub struct RooflineTerms {
    bounds: Vec<BoundTerm>,
    fixed: SimTime,
}

impl RooflineTerms {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a throughput bound: the stage cannot finish faster than this.
    pub fn bound(&mut self, label: &'static str, time: SimTime) -> &mut Self {
        self.bounds.push(BoundTerm { label, time });
        self
    }

    /// Add un-hideable fixed latency (added on top of the max bound).
    pub fn fixed(&mut self, time: SimTime) -> &mut Self {
        self.fixed += time;
        self
    }

    /// The resulting duration: `max(bounds) + fixed`.
    pub fn duration(&self) -> SimTime {
        let max = self
            .bounds
            .iter()
            .map(|b| b.time)
            .fold(SimTime::ZERO, SimTime::max);
        max + self.fixed
    }

    /// The bound that determined the duration, if any bound was recorded.
    pub fn dominant(&self) -> Option<BoundTerm> {
        self.bounds.iter().copied().max_by_key(|b| b.time)
    }

    pub fn bounds(&self) -> &[BoundTerm] {
        &self.bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_roofline_is_zero() {
        let r = RooflineTerms::new();
        assert_eq!(r.duration(), SimTime::ZERO);
        assert!(r.dominant().is_none());
    }

    #[test]
    fn max_of_bounds_plus_fixed() {
        let mut r = RooflineTerms::new();
        r.bound("compute", SimTime::from_secs(2.0))
            .bound("memory", SimTime::from_secs(3.0))
            .fixed(SimTime::from_secs(0.5));
        assert_eq!(r.duration().secs(), 3.5);
        assert_eq!(r.dominant().unwrap().label, "memory");
    }

    #[test]
    fn fixed_overheads_accumulate() {
        let mut r = RooflineTerms::new();
        r.fixed(SimTime::from_secs(0.1))
            .fixed(SimTime::from_secs(0.2));
        assert!((r.duration().secs() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn dominant_prefers_later_on_tie_is_still_a_max() {
        let mut r = RooflineTerms::new();
        r.bound("a", SimTime::from_secs(1.0))
            .bound("b", SimTime::from_secs(1.0));
        // max_by_key returns the last max — either label is acceptable; the
        // duration must be exactly the tied value.
        assert_eq!(r.duration().secs(), 1.0);
        assert!(r.dominant().is_some());
    }
}
