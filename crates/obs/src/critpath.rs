//! Critical-path reconstruction over recorded schedules.
//!
//! Stall attribution ([`crate::stall`]) answers *where time waits*; this
//! module answers the sharper question — *which waits actually bound the
//! makespan*. The forward list scheduler records, for every slot, the
//! constraint that set its start time and the slot whose finish bound it
//! ([`bk_simcore::SlotMeta`]): a dataflow dependency, the previous occupant
//! of the slot's resource unit, or the consumer of a buffer-reuse edge
//! (§IV.C back-pressure). Because each start is computed as an exact f64
//! `max` over candidate ready times, every slot's start *equals* the finish
//! of that recorded predecessor. Walking the recorded predecessors back
//! from the slot that finishes at the makespan therefore yields a chain of
//! abutting segments that tiles `[0, makespan]` with **no gaps**: the
//! critical path.
//!
//! Blame — the share of the critical path a stage / resource / device
//! occupies — is accounted in integer nanoseconds derived by rounding the
//! segment *boundaries* (not the durations). Consecutive segments share the
//! exact same boundary value, so the per-segment nanosecond durations
//! telescope and their sum equals the rounded makespan **exactly**; the
//! `report bottleneck` section and CI gate on that identity.
//!
//! Resource and device blame read each path slot's typed
//! [`ResourceId`]: its kind's name keys the resource table (every device's
//! unit of a kind adds up) and its device keys the device table.
//!
//! [`critical_path`] reads one [`Schedule`]: its slots and their recorded
//! predecessors are all the walk needs. Capture follows the [`crate::trace`]
//! pattern: the runtime records every scheduled wave as a [`WaveDag`] — a
//! clone of each device's shard with run-global chunk ids — into a
//! thread-local sink, but only while a [`capture`] guard is live — an
//! unobserved run allocates nothing and does no work beyond one
//! thread-local check per wave.

use crate::trace::SpanRecord;
use bk_simcore::{ResourceId, Schedule, ScheduleView, SimTime, StallKind};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Track name the exporter uses for critical-path marker spans (one
/// Perfetto lane showing the bottleneck chain; see [`marker_spans`]).
pub const CRITPATH_TRACK: &str = "critpath";

/// The constraint through which the critical path *entered* a slot — i.e.
/// what the slot was waiting for when it started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// The slot started at t = 0 unconstrained (the path's origin).
    Start,
    /// A same-chunk dataflow dependency finished exactly at the start.
    Dataflow,
    /// The slot waited for its resource's in-order queue to drain.
    Resource,
    /// The slot waited on a buffer-reuse edge: `consumer` of chunk
    /// `n − depth` had to release the buffer set first.
    Reuse {
        /// Consumer stage index of the binding reuse edge.
        consumer: usize,
    },
}

impl EdgeKind {
    /// Stable label for reports and trace span annotations.
    pub fn label(self) -> &'static str {
        match self {
            EdgeKind::Start => "start",
            EdgeKind::Dataflow => "dataflow",
            EdgeKind::Resource => "resource",
            EdgeKind::Reuse { .. } => "reuse",
        }
    }
}

/// One slot on the critical path of a single schedule. Segments abut
/// exactly: each segment's `start` equals the previous segment's `finish`.
#[derive(Clone, Copy, Debug)]
pub struct CritSegment {
    /// Schedule-local chunk row of the slot.
    pub chunk: usize,
    /// Stage index of the slot.
    pub stage: usize,
    /// Slot start (schedule-local time).
    pub start: SimTime,
    /// Slot finish (schedule-local time).
    pub finish: SimTime,
    /// Constraint that set the slot's start.
    pub entered: EdgeKind,
    /// The slot's recorded stall (start − dataflow-ready).
    pub wait: SimTime,
}

/// Round a simulated time to integer nanoseconds. All blame accounting
/// rounds *boundaries* with this one function so that equal `f64` times map
/// to equal integers and segment sums telescope exactly.
pub fn boundary_ns(t: SimTime) -> u64 {
    t.nanos().round() as u64
}

fn segment_ns(start: SimTime, finish: SimTime) -> u64 {
    boundary_ns(finish).saturating_sub(boundary_ns(start))
}

/// Reconstruct the critical path of one schedule: the chain of slots, in
/// time order, whose segments tile `[0, makespan]` exactly.
///
/// Walks back from the first slot that finishes at the makespan through
/// each slot's recorded [`bk_simcore::SlotMeta::pred`], labelling the
/// edge it entered by from its recorded [`StallKind`]: `None` is a
/// dataflow handover (or the path origin when the slot has no
/// predecessor), `Resource` the previous occupant of its unit, `Reuse` the
/// consumer of the binding reuse edge.
///
/// Every predecessor's finish equals the slot's start *bit-exactly*, so
/// the returned segments abut with no gaps. Zero-duration slots can appear
/// on the path; they contribute zero-length segments and no blame.
pub fn critical_path(sched: &Schedule) -> Vec<CritSegment> {
    let makespan = sched.makespan();
    let mut cur = (0..sched.num_chunks())
        .flat_map(|chunk| (0..sched.num_stages()).map(move |stage| (chunk, stage)))
        .find(|&(chunk, stage)| sched.slot(chunk, stage).finish == makespan);
    let mut segs: Vec<CritSegment> = Vec::new();
    while let Some((chunk, stage)) = cur {
        let slot = sched.slot(chunk, stage);
        let meta = sched.slot_meta(chunk, stage);
        let entered = match meta.kind {
            Some(StallKind::Reuse { consumer }) => EdgeKind::Reuse { consumer },
            Some(StallKind::Resource(_)) => EdgeKind::Resource,
            None if meta.pred.is_none() => EdgeKind::Start,
            None => EdgeKind::Dataflow,
        };
        segs.push(CritSegment {
            chunk,
            stage,
            start: slot.start,
            finish: slot.finish,
            entered,
            wait: meta.stall,
        });
        cur = meta.pred;
    }
    segs.reverse();
    segs
}

/// Sum of a path's segment durations in integer nanoseconds. Equals
/// `boundary_ns(makespan)` exactly for any path produced by
/// [`critical_path`] (the boundaries telescope).
pub fn path_sum_ns(segs: &[CritSegment]) -> u64 {
    segs.iter().map(|s| segment_ns(s.start, s.finish)).sum()
}

/// One scheduled wave: every device's shard plus the absolute simulated
/// time the wave started (waves run back to back, so `time_base` of wave
/// `w + 1` equals `time_base + max shard makespan` of wave `w`).
#[derive(Clone, Debug)]
pub struct WaveDag {
    /// Explicit pass index of the pipeline invocation that scheduled this
    /// wave. Multi-pass apps run one pipeline per kernel pass with its own
    /// clock; the recording side stamps the current [`set_pass`] value so
    /// [`analyze`] stacks passes on explicit boundaries instead of
    /// guessing them from clock restarts.
    pub pass: usize,
    /// Absolute simulated start time of the wave (relative to its pass's
    /// pipeline invocation).
    pub time_base: SimTime,
    /// Per-device shards, each a clone of the executor's shard with
    /// run-global chunk ids.
    pub shards: Vec<Schedule>,
}

// ---------------------------------------------------------------------------
// Capture guard (mirrors `trace`, but runtime-gated only: snapshots are
// built per wave, never per span, so there is no hot-path cost to gate at
// compile time).
// ---------------------------------------------------------------------------

thread_local! {
    static CAPTURE: RefCell<Option<Vec<WaveDag>>> = const { RefCell::new(None) };
    static PASS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Set the pass index stamped into subsequently recorded waves. Multi-pass
/// harnesses call this before each pipeline invocation so the capture
/// carries explicit pass boundaries; [`capture`] resets it to 0.
pub fn set_pass(pass: usize) {
    PASS.with(|p| p.set(pass));
}

/// The pass index the next recorded wave will carry (see [`set_pass`]).
pub fn current_pass() -> usize {
    PASS.with(|p| p.get())
}

/// RAII guard for schedule capture on the current thread. Obtain with
/// [`capture`], harvest with [`CaptureGuard::finish`]; dropping it without
/// finishing discards the buffer. Guards do not nest: a second [`capture`]
/// on the same thread resets the buffer.
#[must_use = "dropping the guard discards captured waves"]
pub struct CaptureGuard {
    _priv: (),
}

/// Begin capturing scheduled waves on this thread. Resets the current
/// pass index (see [`set_pass`]) to 0.
pub fn capture() -> CaptureGuard {
    CAPTURE.with(|c| *c.borrow_mut() = Some(Vec::new()));
    set_pass(0);
    CaptureGuard { _priv: () }
}

impl CaptureGuard {
    /// Stop capturing and return the waves recorded since [`capture`].
    pub fn finish(self) -> Vec<WaveDag> {
        std::mem::forget(self);
        CAPTURE.with(|c| c.borrow_mut().take()).unwrap_or_default()
    }
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        CAPTURE.with(|c| drop(c.borrow_mut().take()));
    }
}

/// Is schedule capture active on this thread? The runtime checks this
/// before building any [`WaveDag`] snapshot, so an unobserved run performs
/// no allocation.
#[inline]
pub fn capture_enabled() -> bool {
    CAPTURE.with(|c| c.borrow().is_some())
}

/// Record one wave snapshot if capture is active on this thread.
pub fn record_wave(wave: WaveDag) {
    CAPTURE.with(|c| {
        if let Some(v) = c.borrow_mut().as_mut() {
            v.push(wave);
        }
    });
}

// ---------------------------------------------------------------------------
// Run-level analysis.
// ---------------------------------------------------------------------------

/// One slot on the whole-run critical path, in absolute simulated time and
/// run-global chunk ids.
#[derive(Clone, Copy, Debug)]
pub struct RunSegment {
    /// Run-global chunk id.
    pub chunk: usize,
    /// Stage name.
    pub stage: &'static str,
    /// Resource the slot ran on, on its device.
    pub resource: ResourceId,
    /// Absolute start time.
    pub start: SimTime,
    /// Absolute finish time.
    pub finish: SimTime,
    /// Constraint that set the slot's start.
    pub entered: EdgeKind,
    /// The slot's recorded stall (start − dataflow-ready).
    pub wait: SimTime,
}

/// Critical path of a whole run plus blame aggregations. Produced by
/// [`analyze`]; rendered by the `report` sections `bottleneck` and
/// `pipeline`.
#[derive(Clone, Debug, Default)]
pub struct CritReport {
    /// End of the run: sum over waves of the bottleneck shard's makespan —
    /// the same f64 additions the pipeline performs for its total, so this
    /// equals the reported simulated time bit-exactly.
    pub makespan: SimTime,
    /// `makespan` rounded with [`boundary_ns`]; the blame tables sum to
    /// this exactly.
    pub makespan_ns: u64,
    /// The path segments in time order, tiling `[0, makespan]`.
    pub segments: Vec<RunSegment>,
    /// Critical-path nanoseconds per stage name, descending.
    pub stage_blame: Vec<(&'static str, u64)>,
    /// Critical-path nanoseconds per resource kind name (all devices
    /// together), descending.
    pub resource_blame: Vec<(&'static str, u64)>,
    /// Critical-path nanoseconds per device, descending.
    pub device_blame: Vec<(usize, u64)>,
    /// Time the path spent waiting on each reuse edge, keyed by the edge's
    /// consumer stage index, descending. Distinct from (and usually much
    /// smaller than) the raw reuse-stall totals, because only waits that
    /// bound the makespan count.
    pub reuse_blame: Vec<(usize, u64)>,
    /// Number of waves analyzed.
    pub waves: usize,
}

impl CritReport {
    /// Total blamed nanoseconds (sum over path segments).
    pub fn blame_sum_ns(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| segment_ns(s.start, s.finish))
            .sum()
    }

    /// Do the path segments sum to the makespan exactly? True by
    /// construction; `report bottleneck` and CI gate on it anyway.
    pub fn tiles_exactly(&self) -> bool {
        self.blame_sum_ns() == self.makespan_ns
    }

    /// A blame entry's share of the makespan in `[0, 1]`.
    pub fn share(&self, ns: u64) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            ns as f64 / self.makespan_ns as f64
        }
    }
}

/// Compute the whole-run critical path and blame tables from captured
/// waves. Per wave, the path runs through the *bottleneck shard* (the
/// device whose schedule finishes last — ties go to the lowest device);
/// the other devices finish earlier and are not on the run's critical
/// chain. Segments are offset into absolute time by each wave's
/// `time_base`, so the whole-run path tiles `[0, makespan]` across wave
/// boundaries exactly.
///
/// A capture may span *several* pipeline invocations — multi-pass apps
/// (e.g. MasterCard Affinity) launch one pipeline per kernel pass, and
/// each pass restarts its clock at zero. Each wave carries its explicit
/// pass index (stamped from [`set_pass`] at record time); a pass change
/// stacks the new pass directly after the previous pass's end, mirroring
/// how the harness sums pass totals, so `makespan` still equals the
/// reported simulated total bit-exactly. The old clock-restart inference
/// (`time_base` running backwards) survives only as a debug assertion: a
/// restart without a pass boundary means a recorder forgot [`set_pass`].
pub fn analyze(waves: &[WaveDag]) -> CritReport {
    let mut segments: Vec<RunSegment> = Vec::new();
    let mut end = SimTime::ZERO;
    // Absolute start of the current pipeline invocation, and the relative
    // time_base the next wave of that invocation would carry. Boundaries
    // are always computed as `offset + rel` with `rel` formed first, so
    // abutting segments share bit-identical f64 boundaries and the
    // integer-ns blame telescopes to `makespan_ns` exactly.
    let mut offset = SimTime::ZERO;
    let mut expected = SimTime::ZERO;
    let mut prev_pass: Option<usize> = None;
    for wave in waves {
        let Some(shard) = wave
            .shards
            .iter()
            .fold(None::<&Schedule>, |best, s| match best {
                Some(b) if b.makespan() >= s.makespan() => Some(b),
                _ => Some(s),
            })
        else {
            continue;
        };
        match prev_pass {
            Some(p) if p != wave.pass => offset = end,
            Some(_) => debug_assert!(
                wave.time_base >= expected,
                "wave clock restarted ({:?} < {:?}) without an explicit pass \
                 boundary — the recorder must call critpath::set_pass per pass",
                wave.time_base,
                expected,
            ),
            None => {}
        }
        prev_pass = Some(wave.pass);
        for seg in critical_path(shard) {
            segments.push(RunSegment {
                chunk: shard.chunk_ids[seg.chunk],
                stage: shard.stage_name(seg.stage),
                resource: shard.stage_resource(seg.stage),
                start: offset + (wave.time_base + seg.start),
                finish: offset + (wave.time_base + seg.finish),
                entered: seg.entered,
                wait: seg.wait,
            });
        }
        expected = wave.time_base + shard.makespan();
        end = offset + expected;
    }

    let mut by_stage: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut by_resource: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut by_device: BTreeMap<usize, u64> = BTreeMap::new();
    let mut by_edge: BTreeMap<usize, u64> = BTreeMap::new();
    for seg in &segments {
        let ns = segment_ns(seg.start, seg.finish);
        *by_stage.entry(seg.stage).or_default() += ns;
        *by_resource.entry(seg.resource.kind.name()).or_default() += ns;
        *by_device.entry(seg.resource.device).or_default() += ns;
        if let EdgeKind::Reuse { consumer } = seg.entered {
            *by_edge.entry(consumer).or_default() += boundary_ns(seg.wait);
        }
    }
    fn sorted<K: Copy + Ord>(m: BTreeMap<K, u64>) -> Vec<(K, u64)> {
        let mut v: Vec<(K, u64)> = m.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
    CritReport {
        makespan: end,
        makespan_ns: boundary_ns(end),
        segments,
        stage_blame: sorted(by_stage),
        resource_blame: sorted(by_resource),
        device_blame: sorted(by_device),
        reuse_blame: sorted(by_edge),
        waves: waves.len(),
    }
}

/// Render a report's path as marker spans on the [`CRITPATH_TRACK`] lane,
/// so the bottleneck chain is visible alongside the per-resource tracks in
/// the Perfetto UI. Zero-length segments are skipped; segments that
/// entered through a wait carry it as the span's stall annotation.
pub fn marker_spans(report: &CritReport) -> Vec<SpanRecord> {
    report
        .segments
        .iter()
        .filter(|s| !s.finish.saturating_sub(s.start).is_zero())
        .map(|s| SpanRecord {
            track: CRITPATH_TRACK,
            stage: s.stage,
            chunk: s.chunk,
            start: s.start,
            dur: s.finish.saturating_sub(s.start),
            stall: match s.entered {
                EdgeKind::Reuse { .. } | EdgeKind::Resource if !s.wait.is_zero() => {
                    Some((s.entered.label(), s.wait))
                }
                _ => None,
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bk_simcore::{pipeline, GraphSpec, ResourceKind};
    use ResourceKind::*;

    fn t(us: f64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Schedule of `rows` over `stages` (name, device-0 resource)
    /// chained in order, with the given `(producer, consumer, depth)`
    /// reuse edges.
    fn chain(
        stages: &[(&'static str, ResourceKind)],
        reuse: &[(usize, usize, usize)],
        rows: Vec<Vec<SimTime>>,
    ) -> Schedule {
        let stages = stages
            .iter()
            .map(|&(name, kind)| (name, ResourceId::new(kind, 0)))
            .collect();
        let spec = reuse
            .iter()
            .fold(GraphSpec::chain(stages), |spec, &(p, c, d)| {
                spec.with_reuse(p, c, d)
            });
        pipeline::schedule(spec, &rows)
    }

    /// One chunk, two chained stages of 1 µs and 3 µs on distinct
    /// resources: the path is both slots back to back.
    fn single_chunk_chain() -> Schedule {
        chain(
            &[("transfer", DmaH2D), ("compute", GpuCompute)],
            &[],
            vec![vec![t(1.0), t(3.0)]],
        )
    }

    #[test]
    fn chain_path_visits_every_stage_and_sums_to_makespan() {
        let d = single_chunk_chain();
        let path = critical_path(&d);
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].entered, EdgeKind::Start);
        assert_eq!(path[1].entered, EdgeKind::Dataflow);
        assert_eq!((path[0].stage, path[1].stage), (0, 1));
        assert_eq!(path_sum_ns(&path), boundary_ns(d.makespan));
    }

    #[test]
    fn resource_contention_walks_through_the_prior_occupant() {
        // Two chunks on one serial resource: chunk 1 waits for chunk 0.
        let d = chain(&[("compute", Serial)], &[], vec![vec![t(2.0)]; 2]);
        assert_eq!(
            d.meta[1][0].kind,
            Some(StallKind::Resource(ResourceId::new(Serial, 0))),
            "chunk 1 queues behind chunk 0"
        );
        let path = critical_path(&d);
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].chunk, 0);
        assert_eq!(path[1].chunk, 1);
        assert_eq!(path[1].entered, EdgeKind::Resource);
        assert_eq!(path_sum_ns(&path), boundary_ns(d.makespan));
    }

    #[test]
    fn reuse_stall_walks_across_chunks_via_the_edge() {
        // Stage 0 of chunk 1 waits on stage 1 of chunk 0 (depth 1). Distinct
        // resources, so only the reuse edge can couple chunks.
        let d = chain(
            &[("transfer", DmaH2D), ("compute", GpuCompute)],
            &[(0, 1, 1)],
            vec![vec![t(1.0), t(4.0)]; 2],
        );
        let path = critical_path(&d);
        assert_eq!(path.len(), 4);
        assert_eq!(path[2].entered, EdgeKind::Reuse { consumer: 1 });
        assert_eq!((path[2].chunk, path[2].stage), (1, 0));
        assert_eq!((path[1].chunk, path[1].stage), (0, 1));
        assert_eq!(path_sum_ns(&path), boundary_ns(d.makespan));
    }

    #[test]
    fn capture_guard_gates_recording() {
        assert!(!capture_enabled());
        record_wave(WaveDag {
            pass: 0,
            time_base: SimTime::ZERO,
            shards: vec![],
        });
        let g = capture();
        assert!(capture_enabled());
        record_wave(WaveDag {
            pass: 0,
            time_base: SimTime::ZERO,
            shards: vec![Schedule {
                chunk_ids: vec![7],
                ..single_chunk_chain()
            }],
        });
        let waves = g.finish();
        assert!(!capture_enabled());
        assert_eq!(waves.len(), 1);
        assert_eq!(waves[0].shards[0].chunk_ids, vec![7]);
    }

    #[test]
    fn dropping_the_guard_discards_waves() {
        let g = capture();
        record_wave(WaveDag {
            pass: 0,
            time_base: SimTime::ZERO,
            shards: vec![],
        });
        drop(g);
        assert!(!capture_enabled());
        assert!(capture().finish().is_empty());
    }

    #[test]
    fn analyze_offsets_waves_and_blames_exactly() {
        let shard = single_chunk_chain();
        let mut shard2 = shard.clone();
        shard2.chunk_ids = vec![1];
        let waves = vec![
            WaveDag {
                pass: 0,
                time_base: SimTime::ZERO,
                shards: vec![shard.clone()],
            },
            WaveDag {
                pass: 0,
                time_base: shard.makespan(),
                shards: vec![shard2],
            },
        ];
        let report = analyze(&waves);
        assert_eq!(report.waves, 2);
        assert_eq!(report.segments.len(), 4);
        assert_eq!(report.segments[2].chunk, 1);
        assert!(report.tiles_exactly());
        assert_eq!(report.makespan_ns, boundary_ns(t(8.0)));
        // 1 µs transfer + 3 µs compute per wave.
        assert_eq!(report.stage_blame[0], ("compute", 6_000));
        assert_eq!(report.stage_blame[1], ("transfer", 2_000));
        assert_eq!(report.resource_blame[0], ("gpu-comp", 6_000));
        assert_eq!(report.device_blame, vec![(0, 8_000)]);
    }

    #[test]
    fn explicit_pass_boundaries_stack_passes() {
        // Two pipeline invocations, each restarting its clock at zero. The
        // explicit pass indices stack pass 1 after pass 0's end.
        let shard = single_chunk_chain();
        let mut shard2 = shard.clone();
        shard2.chunk_ids = vec![1];
        let waves = vec![
            WaveDag {
                pass: 0,
                time_base: SimTime::ZERO,
                shards: vec![shard.clone()],
            },
            WaveDag {
                pass: 1,
                time_base: SimTime::ZERO,
                shards: vec![shard2],
            },
        ];
        let report = analyze(&waves);
        assert_eq!(report.waves, 2);
        assert!(report.tiles_exactly());
        // 4 µs per pass, stacked back to back.
        assert_eq!(report.makespan_ns, boundary_ns(t(8.0)));
        assert_eq!(report.segments[2].chunk, 1);
        assert!(report.segments[2].start >= t(4.0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "without an explicit pass boundary")]
    fn clock_restart_without_pass_boundary_asserts() {
        let shard = single_chunk_chain();
        let waves = vec![
            WaveDag {
                pass: 0,
                time_base: SimTime::ZERO,
                shards: vec![shard.clone()],
            },
            // Same pass index but a restarted clock: the recorder forgot
            // set_pass — the debug assertion must catch it.
            WaveDag {
                pass: 0,
                time_base: SimTime::ZERO,
                shards: vec![shard],
            },
        ];
        let _ = analyze(&waves);
    }

    #[test]
    fn set_pass_stamps_recorded_waves() {
        let g = capture();
        assert_eq!(current_pass(), 0);
        set_pass(3);
        assert_eq!(current_pass(), 3);
        record_wave(WaveDag {
            pass: current_pass(),
            time_base: SimTime::ZERO,
            shards: vec![],
        });
        let waves = g.finish();
        assert_eq!(waves[0].pass, 3);
        // A fresh capture resets the pass index.
        let g2 = capture();
        assert_eq!(current_pass(), 0);
        drop(g2);
    }

    #[test]
    fn bottleneck_shard_wins_per_wave() {
        let fast = single_chunk_chain();
        let mut slow = single_chunk_chain();
        slow.slots[0][1].finish = t(9.0);
        slow.makespan = t(9.0);
        slow.spec = std::sync::Arc::new(slow.spec.for_device(1));
        slow.device = 1;
        slow.chunk_ids = vec![1];
        let report = analyze(&[WaveDag {
            pass: 0,
            time_base: SimTime::ZERO,
            shards: vec![fast, slow],
        }]);
        assert_eq!(report.device_blame, vec![(1, 9_000)]);
        assert_eq!(report.resource_blame[0].0, "gpu-comp"); // kind, not device
        assert!(report.tiles_exactly());
    }

    #[test]
    fn marker_spans_land_on_the_critpath_track() {
        let shard = single_chunk_chain();
        let report = analyze(&[WaveDag {
            pass: 0,
            time_base: SimTime::ZERO,
            shards: vec![shard],
        }]);
        let spans = marker_spans(&report);
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.track == CRITPATH_TRACK));
        assert_eq!(spans[1].stage, "compute");
    }
}
