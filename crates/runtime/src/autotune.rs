//! Between-window reuse-depth tuner for the streaming runner (§IV.C/§IV.D).
//!
//! The paper fixes the buffer-reuse depth at 3 (`addr-gen(n)` waits for
//! `compute(n−3)`) and sizes buffers for that constant once at startup. A
//! stream of windows gives a controller something a single batch run does
//! not: free quiesce points. Every window boundary is a moment with nothing
//! in flight, so a new plan (reuse depths for the prefetch-data and
//! write-back edges independently, plus the chunk size) can take effect
//! from the next window without draining anything.
//!
//! [`Autotuner`] is that controller.
//! [`run_bigkernel_streamed`](crate::stream::run_bigkernel_streamed) feeds
//! it each window's reuse-stall totals ([`WindowFeedback`]) and runs the
//! next window under the returned [`TunePlan`]. Plans are bounded by the
//! §IV.D occupancy model, so a plan never exceeds what the device can hold
//! ([`bk_gpu::occupancy::max_buffer_sets`]).
//!
//! ## Determinism
//!
//! Every input to a decision is part of the recorded schedule state: window
//! stall totals and window makespans, all derived from the deterministic
//! list scheduler. No wall-clock, no randomness. The same seed therefore
//! reproduces the same re-plan sequence on any thread count, and because
//! re-planning only changes *when* chunks are scheduled — never what they
//! compute — tuned outputs stay bit-identical to untuned runs.
//!
//! ## Controller state machine
//!
//! `Warmup → Searching ⇄ Converged`. The first window is measured without
//! acting (Warmup). While Searching, any window whose reuse-stall fraction
//! exceeds [`AutotuneConfig::stall_threshold`] doubles the depth of the
//! worse-stalling edge (geometric search, clamped to the feasibility cap);
//! a quiet window latches Converged. A converged controller re-enters
//! Searching if stall returns, or when the stream's access pattern drifts
//! ([`Autotuner::on_drift`]).

use bk_simcore::SimTime;

/// Tuner knobs. All thresholds are compared against deterministic simulated
/// quantities, never wall-clock measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct AutotuneConfig {
    /// Reuse-stall fraction of a window's makespan above which the
    /// controller deepens a reuse edge.
    pub stall_threshold: f64,
    /// Hard cap on either reuse depth, on top of the device feasibility cap.
    pub max_depth: usize,
    /// Lower clamp for chunk-size re-planning.
    pub min_chunk_bytes: u64,
    /// Upper clamp for chunk-size re-planning.
    pub max_chunk_bytes: u64,
}

impl Default for AutotuneConfig {
    fn default() -> Self {
        AutotuneConfig {
            stall_threshold: 0.10,
            max_depth: 32,
            min_chunk_bytes: 64 * 1024,
            max_chunk_bytes: 4 * 1024 * 1024,
        }
    }
}

impl AutotuneConfig {
    /// Panic on nonsensical knobs (mirrors `BigKernelConfig::validate`).
    pub fn validate(&self) {
        assert!(
            self.stall_threshold.is_finite() && (0.0..1.0).contains(&self.stall_threshold),
            "stall threshold must be in [0, 1)"
        );
        assert!(self.max_depth >= 1, "max depth must be >= 1");
        assert!(
            self.min_chunk_bytes >= 1 && self.min_chunk_bytes <= self.max_chunk_bytes,
            "chunk-size clamps must satisfy 1 <= min <= max"
        );
    }
}

/// The current plan: everything the tuner controls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TunePlan {
    /// Depth of the prefetch-data reuse edge (`addr-gen ↔ compute`).
    pub data_depth: usize,
    /// Depth of the write-back reuse edge (`compute ↔ wb-apply`).
    pub wb_depth: usize,
    /// Input bytes per chunk (the next window's
    /// [`BigKernelConfig::chunk_input_bytes`](crate::BigKernelConfig::chunk_input_bytes)).
    pub chunk_bytes: u64,
}

/// Controller state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TunerState {
    /// Measuring the first window before acting.
    Warmup,
    /// Actively deepening reuse edges while stall persists.
    Searching,
    /// Stall below threshold (or both edges at the cap); the plan holds.
    Converged,
}

/// What one stream window looked like — the controller's whole input.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowFeedback {
    /// Window makespan (all passes of the window, back to back).
    pub makespan: SimTime,
    /// Stall attributed to the prefetch-data reuse edge.
    pub data_reuse_stall: SimTime,
    /// Stall attributed to the write-back reuse edge.
    pub wb_reuse_stall: SimTime,
}

impl WindowFeedback {
    /// Fraction of the window makespan lost to reuse stall (0 when empty).
    pub fn reuse_fraction(&self) -> f64 {
        let span = self.makespan.secs();
        if span <= 0.0 {
            return 0.0;
        }
        (self.data_reuse_stall.secs() + self.wb_reuse_stall.secs()) / span
    }
}

/// The feedback controller. One per stream; fed after every window.
#[derive(Clone, Debug)]
pub struct Autotuner {
    cfg: AutotuneConfig,
    state: TunerState,
    plan: TunePlan,
    /// Device feasibility cap from `gpu::occupancy::max_buffer_sets`.
    feasible_depth: usize,
    retunes: u64,
}

impl Autotuner {
    /// A tuner starting from the statically-configured plan. `feasible_depth`
    /// is the occupancy-model cap on buffer sets per active block; the tuner
    /// never plans past `min(feasible_depth, cfg.max_depth)`.
    pub fn new(cfg: AutotuneConfig, initial: TunePlan, feasible_depth: usize) -> Self {
        cfg.validate();
        assert!(initial.data_depth >= 1 && initial.wb_depth >= 1);
        Autotuner {
            cfg,
            state: TunerState::Warmup,
            plan: initial,
            feasible_depth: feasible_depth.max(1),
            retunes: 0,
        }
    }

    /// The plan currently in force.
    pub fn plan(&self) -> TunePlan {
        self.plan
    }

    /// Current controller state.
    pub fn state(&self) -> TunerState {
        self.state
    }

    /// Re-plans issued so far.
    pub fn retunes(&self) -> u64 {
        self.retunes
    }

    /// The effective depth ceiling: device feasibility ∧ configured cap.
    pub fn depth_cap(&self) -> usize {
        self.feasible_depth.min(self.cfg.max_depth).max(1)
    }

    /// Feed one window's measurements. Returns the new plan if the
    /// controller decided to re-plan the reuse depths, `None` otherwise.
    pub fn observe(&mut self, fb: &WindowFeedback) -> Option<TunePlan> {
        let frac = fb.reuse_fraction();
        match self.state {
            TunerState::Warmup => {
                self.state = TunerState::Searching;
                None
            }
            TunerState::Searching => {
                if frac <= self.cfg.stall_threshold {
                    self.state = TunerState::Converged;
                    return None;
                }
                let cap = self.depth_cap();
                let deepen_data = fb.data_reuse_stall >= fb.wb_reuse_stall;
                if deepen_data && self.plan.data_depth < cap {
                    self.plan.data_depth = (self.plan.data_depth * 2).min(cap);
                } else if self.plan.wb_depth < cap {
                    self.plan.wb_depth = (self.plan.wb_depth * 2).min(cap);
                } else if self.plan.data_depth < cap {
                    self.plan.data_depth = (self.plan.data_depth * 2).min(cap);
                } else {
                    // Both edges at the cap and still stalling: nothing left
                    // to trade — stop churning.
                    self.state = TunerState::Converged;
                    return None;
                }
                self.retunes += 1;
                Some(self.plan)
            }
            TunerState::Converged => {
                if frac > self.cfg.stall_threshold {
                    // Stall returned (e.g. bigger chunks): resume the
                    // search on the next window.
                    self.state = TunerState::Searching;
                }
                None
            }
        }
    }

    /// Chunk-size re-plan for the next window. `prev_window_chunks` is how
    /// many chunks the finished window produced; too few chunks to fill the
    /// reuse pipeline halve the chunk size, an excessive chunk count doubles
    /// it. The clamps only ever stop a move: a chunk already at or below
    /// `min_chunk_bytes` is never grown by a shrink (nor one at or above
    /// `max_chunk_bytes` shrunk by a grow). Returns the new plan if the
    /// chunk size changed.
    pub fn plan_wave(&mut self, prev_window_chunks: usize) -> Option<TunePlan> {
        if self.state == TunerState::Warmup {
            return None;
        }
        let depth = self.plan.data_depth.max(self.plan.wb_depth);
        let bytes = self.plan.chunk_bytes;
        let next = if prev_window_chunks < 2 * depth + 2 {
            (bytes / 2).max(self.cfg.min_chunk_bytes).min(bytes)
        } else if prev_window_chunks > 64 * depth {
            (bytes * 2).min(self.cfg.max_chunk_bytes).max(bytes)
        } else {
            bytes
        };
        if next == bytes {
            return None;
        }
        self.plan.chunk_bytes = next;
        self.retunes += 1;
        Some(self.plan)
    }

    /// Distribution-drift hook: the per-window §IV.A access-pattern
    /// fingerprint changed beyond the stream's re-detect threshold, so plans
    /// tuned for the old distribution may no longer fit. A converged
    /// controller re-opens its search; a warming-up or already-searching one
    /// is unaffected. The current plan is kept — re-detection questions the
    /// plan's *fitness*, not its legality. Returns whether the search was
    /// re-opened.
    pub fn on_drift(&mut self) -> bool {
        if self.state != TunerState::Converged {
            return false;
        }
        self.state = TunerState::Searching;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn tuner(cap: usize) -> Autotuner {
        Autotuner::new(
            AutotuneConfig::default(),
            TunePlan {
                data_depth: 3,
                wb_depth: 3,
                chunk_bytes: 256 * 1024,
            },
            cap,
        )
    }

    fn stalled(data: f64, wb: f64) -> WindowFeedback {
        WindowFeedback {
            makespan: t(1.0),
            data_reuse_stall: t(data),
            wb_reuse_stall: t(wb),
        }
    }

    #[test]
    fn warmup_measures_without_acting() {
        let mut a = tuner(32);
        assert_eq!(a.state(), TunerState::Warmup);
        assert_eq!(a.observe(&stalled(0.9, 0.0)), None);
        assert_eq!(a.state(), TunerState::Searching);
        assert_eq!(a.plan().data_depth, 3);
    }

    #[test]
    fn searching_doubles_the_worse_edge_until_quiet() {
        let mut a = tuner(32);
        a.observe(&stalled(0.9, 0.0)); // warmup
        let p = a.observe(&stalled(0.5, 0.1)).expect("should retune");
        assert_eq!((p.data_depth, p.wb_depth), (6, 3));
        let p = a.observe(&stalled(0.1, 0.4)).expect("wb edge worse now");
        assert_eq!((p.data_depth, p.wb_depth), (6, 6));
        assert_eq!(a.observe(&stalled(0.01, 0.01)), None);
        assert_eq!(a.state(), TunerState::Converged);
        assert_eq!(a.retunes(), 2);
    }

    #[test]
    fn depth_never_exceeds_feasibility_cap() {
        let mut a = tuner(5);
        a.observe(&stalled(0.9, 0.0)); // warmup
        assert_eq!(a.observe(&stalled(0.9, 0.0)).unwrap().data_depth, 5);
        // Data edge capped; the next re-plan falls through to the wb edge.
        assert_eq!(a.observe(&stalled(0.9, 0.0)).unwrap().wb_depth, 5);
        // Both capped: converge rather than churn.
        assert_eq!(a.observe(&stalled(0.9, 0.0)), None);
        assert_eq!(a.state(), TunerState::Converged);
    }

    #[test]
    fn converged_reopens_on_renewed_stall() {
        let mut a = tuner(32);
        a.observe(&stalled(0.9, 0.0)); // warmup
        a.observe(&stalled(0.0, 0.0)); // quiet → converged
        assert_eq!(a.state(), TunerState::Converged);
        assert_eq!(a.observe(&stalled(0.5, 0.0)), None); // reopens, no act yet
        assert_eq!(a.state(), TunerState::Searching);
    }

    #[test]
    fn wave_replanning_halves_chunks_that_cannot_fill_the_pipeline() {
        let mut a = tuner(32);
        a.observe(&stalled(0.9, 0.0)); // leave warmup
                                       // 13-chunk wave at depth 3 fills 2·3+2 = 8 slots: no change.
        assert_eq!(a.plan_wave(13), None);
        // 4-chunk wave cannot: halve toward more, smaller chunks.
        let p = a.plan_wave(4).expect("should shrink chunks");
        assert_eq!(p.chunk_bytes, 128 * 1024);
        // Clamped at the configured floor.
        a.plan_wave(1);
        assert_eq!(a.plan_wave(1).map(|p| p.chunk_bytes), None);
        assert_eq!(a.plan().chunk_bytes, 64 * 1024);
    }

    #[test]
    fn wave_replanning_never_grows_a_chunk_below_the_floor() {
        // 16 KiB and 2 KiB chunks sit below the 64 KiB default floor: a
        // too-few-chunks wave must leave them alone and count no retune.
        for chunk_bytes in [16 * 1024, 2 * 1024] {
            let mut a = Autotuner::new(
                AutotuneConfig::default(),
                TunePlan {
                    data_depth: 3,
                    wb_depth: 3,
                    chunk_bytes,
                },
                32,
            );
            a.observe(&stalled(0.9, 0.0)); // leave warmup
            assert_eq!(a.plan_wave(1), None, "{chunk_bytes} B chunk must stay put");
            assert_eq!(a.plan().chunk_bytes, chunk_bytes);
            assert_eq!(a.retunes(), 0);
        }
    }

    #[test]
    fn wave_replanning_doubles_excessively_fine_chunks() {
        let mut a = tuner(32);
        a.observe(&stalled(0.9, 0.0));
        let p = a.plan_wave(1000).expect("should coarsen chunks");
        assert_eq!(p.chunk_bytes, 512 * 1024);
    }

    #[test]
    fn drift_reopens_a_converged_search_only() {
        let mut a = tuner(32);
        assert!(!a.on_drift(), "warmup is unaffected");
        a.observe(&stalled(0.9, 0.0)); // warmup → searching
        assert!(!a.on_drift(), "searching is unaffected");
        a.observe(&stalled(0.0, 0.0)); // quiet → converged
        assert_eq!(a.state(), TunerState::Converged);
        assert!(a.on_drift(), "converged re-opens");
        assert_eq!(a.state(), TunerState::Searching);
    }

    #[test]
    fn decisions_are_pure_functions_of_feedback() {
        // Two tuners fed the same sequence make identical decisions —
        // the determinism contract in miniature.
        let feed = [
            stalled(0.9, 0.0),
            stalled(0.4, 0.5),
            stalled(0.2, 0.0),
            stalled(0.0, 0.0),
            stalled(0.6, 0.6),
        ];
        let (mut a, mut b) = (tuner(32), tuner(32));
        for fb in &feed {
            assert_eq!(a.observe(fb), b.observe(fb));
            assert_eq!(a.plan(), b.plan());
            assert_eq!(a.state(), b.state());
        }
    }

    #[test]
    #[should_panic(expected = "stall threshold")]
    fn threshold_of_one_rejected() {
        let cfg = AutotuneConfig {
            stall_threshold: 1.0,
            ..AutotuneConfig::default()
        };
        cfg.validate();
    }
}
