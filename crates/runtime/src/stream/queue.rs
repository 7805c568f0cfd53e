//! The bounded inter-stage queue between ingestion and the pipeline.
//!
//! Ingestion hands completed windows to the pipeline through a queue with a
//! hard bound of `bound` windows in flight (admitted but not yet fully
//! retired by the six-stage pipeline). When the bound is reached the
//! **high-watermark backpressure** rule applies: the source may have fully
//! delivered a window's bytes, but its *admission* waits until the oldest
//! in-flight window retires — the stall the streaming runner attributes as
//! `stall.ingest.backpressure`
//! ([`StallCause::Backpressure`](bk_obs::StallCause)).
//!
//! The timing recurrence, per window `w` (all simulated time):
//!
//! ```text
//! admitted(w)  = max(ready(w), completed(w − bound))
//! started(w)   = max(admitted(w), completed(w − 1))
//! completed(w) = started(w) + makespan(w)
//! backpressure(w) = admitted(w) − ready(w)
//! ```
//!
//! `ready(w)` is when the window's bytes (plus halo) have arrived;
//! `makespan(w)` is the window's measured pipeline time. Every quantity is
//! a finite maximum of finite earlier quantities, so **admission can never
//! deadlock**: by induction `completed(w)` is finite for every `w` whenever
//! every `ready(w)` is (sources always deliver — hiccups delay, they do not
//! drop). The determinism suite pins this under randomized hiccupy sources
//! and queue bounds.

use bk_simcore::SimTime;

/// What admitting one window through the queue decided — everything the
/// recurrence fixes before the window runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Admission {
    /// When the window was admitted into the pipeline's inlet queue.
    pub admitted: SimTime,
    /// When the pipeline starts executing it (after the previous window).
    pub started: SimTime,
    /// Admission delay charged to the high-watermark (zero when the queue
    /// had room the moment the window's bytes arrived).
    pub backpressure: SimTime,
    /// Windows in flight (including this one) right after admission —
    /// never exceeds the queue bound.
    pub depth: usize,
}

/// Timing state of the bounded inter-stage queue (see the module docs).
/// Each window is [`admit`](Self::admit)ted before it runs and
/// [`retire`](Self::retire)d with its measured makespan after.
#[derive(Clone, Debug)]
pub struct BoundedQueue {
    bound: usize,
    completed: Vec<SimTime>,
    /// Start of the admitted window not yet retired.
    running: Option<SimTime>,
}

impl BoundedQueue {
    /// An empty queue admitting at most `bound >= 1` windows in flight.
    pub fn new(bound: usize) -> Self {
        assert!(bound >= 1, "queue bound must be at least 1");
        BoundedQueue {
            bound,
            completed: Vec::new(),
            running: None,
        }
    }

    /// Windows retired so far.
    pub fn windows(&self) -> usize {
        self.completed.len()
    }

    /// Admit the next window, whose bytes have fully arrived at `ready`.
    /// Its admission and start depend only on `ready` and earlier
    /// completions, so they are known before the window runs. Panics if
    /// the previous window was not retired.
    pub fn admit(&mut self, ready: SimTime) -> Admission {
        assert!(self.running.is_none(), "previous window not retired");
        let w = self.completed.len();
        let oldest_free = if w >= self.bound {
            self.completed[w - self.bound]
        } else {
            SimTime::ZERO
        };
        let admitted = ready.max(oldest_free);
        let started = admitted.max(self.completed.last().copied().unwrap_or(SimTime::ZERO));
        // In flight at admission: earlier windows not yet retired, plus
        // this one. `completed` is non-decreasing, so a partition point
        // counts the retired prefix.
        let retired = self.completed.partition_point(|&c| c <= admitted);
        let depth = w - retired + 1;
        debug_assert!(depth <= self.bound, "high-watermark violated");
        self.running = Some(started);
        Admission {
            admitted,
            started,
            backpressure: admitted.saturating_sub(ready),
            depth,
        }
    }

    /// Retire the admitted window after it occupied the pipeline for
    /// `makespan`; returns when it completed. Panics without an admitted
    /// window.
    pub fn retire(&mut self, makespan: SimTime) -> SimTime {
        let started = self.running.take().expect("no admitted window to retire");
        let completed = started + makespan;
        self.completed.push(completed);
        completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Admit one window and retire it after `makespan`.
    fn push(q: &mut BoundedQueue, ready: SimTime, makespan: SimTime) -> (Admission, SimTime) {
        let a = q.admit(ready);
        (a, q.retire(makespan))
    }

    #[test]
    fn unbounded_by_arrival_when_pipeline_keeps_up() {
        // Fast pipeline, slow source: no backpressure, depth stays 1.
        let mut q = BoundedQueue::new(2);
        for w in 0..4 {
            let (a, _) = push(&mut q, t(w as f64), t(0.1));
            assert!(a.backpressure.is_zero());
            assert_eq!(a.depth, 1);
            assert_eq!(a.started, t(w as f64));
        }
    }

    #[test]
    fn high_watermark_delays_admission() {
        // Source delivers instantly, pipeline takes 1 s per window, bound 2:
        // window w admits when window w-2 retires.
        let mut q = BoundedQueue::new(2);
        let (a0, c0) = push(&mut q, t(0.0), t(1.0));
        let (a1, _) = push(&mut q, t(0.0), t(1.0));
        let (a2, _) = push(&mut q, t(0.0), t(1.0));
        let (a3, c3) = push(&mut q, t(0.0), t(1.0));
        assert_eq!(c0, t(1.0));
        assert!(a1.backpressure.is_zero(), "still under the bound");
        assert_eq!(a2.admitted, t(1.0), "waits for window 0 to retire");
        assert_eq!(a2.backpressure, t(1.0));
        assert_eq!(a3.admitted, t(2.0));
        assert_eq!(c3, t(4.0));
        assert!(
            [a0, a1, a2, a3].iter().all(|a| a.depth <= 2),
            "depth bounded"
        );
    }

    #[test]
    fn bound_one_serializes_ingestion_and_pipeline() {
        let mut q = BoundedQueue::new(1);
        let (_, c0) = push(&mut q, t(0.0), t(1.0));
        let (a1, _) = push(&mut q, t(0.5), t(1.0));
        assert_eq!(a1.admitted, c0, "one window in flight at most");
        assert_eq!(a1.backpressure, t(0.5));
        assert_eq!(a1.depth, 1);
    }

    #[test]
    fn completion_times_are_monotone() {
        let mut q = BoundedQueue::new(3);
        let readies = [0.0, 0.2, 0.1, 5.0, 5.1];
        let spans = [1.0, 0.1, 2.0, 0.5, 0.5];
        let mut prev = SimTime::ZERO;
        for (&r, &m) in readies.iter().zip(&spans) {
            let (a, completed) = push(&mut q, t(r), t(m));
            assert!(completed >= prev);
            assert!(a.started >= a.admitted);
            prev = completed;
        }
        assert_eq!(q.windows(), 5);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_bound_rejected() {
        BoundedQueue::new(0);
    }

    proptest! {
        /// The bound moves only admission, backpressure and depth: a window
        /// cannot start before its predecessor completes, which is never
        /// earlier than any older window's completion, so start and
        /// completion times are the same at every bound.
        #[test]
        fn bound_moves_only_admission(
            windows in proptest::collection::vec((0u64..2_000_000, 0u64..1_000_000), 1..40),
        ) {
            let run = |bound| {
                let mut q = BoundedQueue::new(bound);
                windows
                    .iter()
                    .map(|&(ready, makespan)| {
                        let (a, completed) = push(
                            &mut q,
                            SimTime::from_nanos(ready as f64),
                            SimTime::from_nanos(makespan as f64),
                        );
                        (a.started, completed)
                    })
                    .collect::<Vec<_>>()
            };
            let one = run(1);
            prop_assert_eq!(&run(2), &one);
            prop_assert_eq!(&run(4), &one);
        }
    }
}
