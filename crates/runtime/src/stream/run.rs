//! The continuous streaming runner: unbounded ingestion over the batch
//! pipeline.
//!
//! [`run_bigkernel_streamed`] generalizes [`run_bigkernel`] to input that
//! *arrives over simulated time*: a [`Source`] describes the arrival curve,
//! a [`WindowPolicy`] cuts the live stream into record-aligned windows, and
//! each window runs through the full §III pipeline: the body of
//! [`run_bigkernel`], restricted to the window's byte range. Between
//! ingestion and the pipeline sits the
//! [`BoundedQueue`]: at most `queue_bound` windows may be in flight, and
//! when the bound is hit, admission stalls — attributed as
//! `stall.ingest.backpressure` and drawn on the `ingest` trace lane.
//!
//! ## Per-block state lives for the stream
//!
//! The runner owns one pool of per-block simulation slots (warp aligner,
//! LLC model, addr-gen scratch) for the whole stream, window-major loop and
//! pass-major tail alike, and drops it when the stream ends. Each window
//! starts by clearing every slot's LLC model
//! ([`CacheSim::clear`](bk_host::CacheSim::clear)), which zeroes only the
//! sets the previous window touched and leaves the cache exactly as cold as
//! a new one, so a window costs no 1 MiB tag-array allocation per block and
//! its results equal those of the same window run on fresh slots.
//!
//! ## Pass ordering
//!
//! Multi-pass programs default to **window-major** order: every pass runs
//! over window `w` before window `w + 1` is admitted, so results stream out
//! incrementally. Programs where a later pass reads device state an earlier
//! pass accumulates *globally*
//! ([`StreamKernel::barrier_dependence`]) cannot do that — pass `p + 1` of
//! window 0 would read a table pass `p` has only partially built. Those run
//! **pass-major**: pass 0 streams through the bounded queue as windows
//! arrive, and each later pass sweeps all windows in order after its
//! predecessor fully drains (the stream-level analogue of the fusion
//! engine's co-residency rule). End-to-end latency honestly reflects the
//! blocking passes.
//!
//! ## Drift re-detection and cross-window tuning
//!
//! Each window's §IV.A recognition metrics are folded into a normalized
//! *fingerprint* (pattern-hit fraction, encoded-address density, PCIe
//! density, atomic density). When consecutive fingerprints differ by more
//! than [`StreamConfig::redetect_threshold`] in any component, the window is
//! flagged as a distribution drift: `stream.redetect` increments, a
//! [`REDETECT_MARKER_STAGE`] instant lands on the `ingest` lane, and the
//! persistent [`Autotuner`] (when [`StreamConfig::autotune`] is set) —
//! which observes every window's reuse-stall feedback and re-plans
//! depths/chunk size *across* windows — re-opens a converged search
//! ([`Autotuner::on_drift`]). Window boundaries are free quiesce points:
//! nothing is in flight between two windows, so a new plan costs no drain.
//!
//! ## Determinism
//!
//! Every record is processed by exactly one window, windows execute in
//! stream order, and all ingestion arithmetic (arrival, admission, drift,
//! tuning) is pure over the per-window [`RunResult`](crate::RunResult)s — so a streamed run
//! over a replayable source is bit-identical to the equivalent batch run.
//! The determinism suite pins this for every application under every window
//! policy.
//!
//! [`run_bigkernel`]: crate::pipeline::run_bigkernel
//! [`StreamKernel::barrier_dependence`]: crate::kernel::StreamKernel::barrier_dependence
//! [`REDETECT_MARKER_STAGE`]: bk_obs::REDETECT_MARKER_STAGE

use super::queue::BoundedQueue;
use super::source::Source;
use super::window::{plan_windows, WindowPolicy};
use crate::autotune::{AutotuneConfig, Autotuner, TunePlan, WindowFeedback};
use crate::config::BigKernelConfig;
use crate::kernel::{LaunchConfig, StreamKernel};
use crate::machine::Machine;
use crate::pipeline::{pipeline_occupancy, run_window_in};
use crate::stream::StreamArray;
use bk_gpu::occupancy;
use bk_obs::{
    names, MetricsRegistry, SpanRecord, StallCause, REDETECT_MARKER_STAGE, RETUNE_MARKER_STAGE,
};
use bk_simcore::SimTime;
use std::ops::Range;

/// Configuration of the ingestion layer (the batch pipeline keeps its own
/// [`BigKernelConfig`]).
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// How the arriving stream is cut into execution windows.
    pub policy: WindowPolicy,
    /// High-watermark of the inter-stage queue: at most this many windows
    /// admitted-but-unretired. Must be ≥ 1.
    pub queue_bound: usize,
    /// Relative per-component change between consecutive window fingerprints
    /// above which the stream is flagged as a distribution drift. Must be
    /// positive and finite; large values effectively disable re-detection.
    pub redetect_threshold: f64,
    /// Between-window tuner knobs. `None` keeps the batch config's depths
    /// and chunk size fixed for the whole stream; `Some` runs one persistent
    /// controller that re-plans them at window boundaries.
    pub autotune: Option<AutotuneConfig>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            policy: WindowPolicy::ByBytes(1 << 20),
            queue_bound: 2,
            redetect_threshold: 0.5,
            autotune: None,
        }
    }
}

impl StreamConfig {
    /// Panic on degenerate parameters.
    pub fn validate(&self) {
        self.policy.validate();
        assert!(self.queue_bound >= 1, "queue bound must be at least 1");
        assert!(
            self.redetect_threshold.is_finite() && self.redetect_threshold > 0.0,
            "redetect threshold must be positive and finite"
        );
        if let Some(t) = &self.autotune {
            t.validate();
        }
    }
}

/// What happened to one window of the stream.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowReport {
    /// Absolute byte range of the primary stream this window covered.
    pub window: Range<u64>,
    /// When the window's bytes (plus halo) had fully arrived.
    pub ready: SimTime,
    /// When the bounded queue admitted it (`ready` + backpressure).
    pub admitted: SimTime,
    /// When the pipeline retired it (pass 0 in pass-major runs).
    pub completed: SimTime,
    /// Admission delay charged to the queue's high-watermark.
    pub backpressure: SimTime,
    /// Windows in flight right after admission.
    pub depth: usize,
    /// Pipeline time this window consumed, summed over all passes.
    pub makespan: SimTime,
    /// End-to-end latency: final-pass completion minus first-byte arrival.
    pub latency: SimTime,
    /// Whether this window's §IV.A fingerprint drifted past the threshold.
    pub drifted: bool,
}

/// Result of one streamed run.
#[derive(Clone, Debug)]
pub struct StreamResult {
    /// Always `"bigkernel-streamed"`.
    pub implementation: &'static str,
    /// Per-window admission/timing reports, in stream order.
    pub windows: Vec<WindowReport>,
    /// Simulated completion time of the last window's last pass.
    pub total: SimTime,
    /// Chunks executed across all windows and passes.
    pub chunks: usize,
    /// Merged metrics of every window run, plus the stream-level counters
    /// (`stream.windows`, `stream.redetect`, `stream.backpressure_ns`,
    /// `stall.ingest.backpressure`, `hist.stream.latency`,
    /// `hist.stream.queue-depth`).
    pub metrics: MetricsRegistry,
    /// 99th-percentile end-to-end window latency.
    pub p99_latency: SimTime,
    /// Sustained throughput: stream bytes over the completion time.
    pub sustained_bytes_per_sec: f64,
    /// Windows flagged as distribution drifts.
    pub redetects: u64,
    /// Re-plans issued by the persistent autotuner.
    pub retunes: u64,
}

/// Record-alignment unit across all passes: the least common multiple of the
/// declared record sizes (`None` when every pass is variable-length).
fn record_unit(kernels: &[&dyn StreamKernel]) -> Option<u64> {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    kernels
        .iter()
        .filter_map(|k| k.record_size())
        .fold(None, |acc, r| {
            Some(match acc {
                None => r,
                Some(a) => a / gcd(a, r) * r,
            })
        })
}

/// The batch config one window runs under: the persistent tuner's current
/// plan.
fn window_cfg(cfg: &BigKernelConfig, plan: TunePlan) -> BigKernelConfig {
    BigKernelConfig {
        buffer_depth: plan.data_depth,
        wb_buffer_depth: Some(plan.wb_depth),
        chunk_input_bytes: plan.chunk_bytes,
        ..cfg.clone()
    }
}

/// Reuse-stall feedback for the persistent tuner, reconstructed from a
/// window's merged stall counters (nanosecond totals recorded by
/// [`bk_obs::record_schedule`]): the consumers of the prefetch-data edge
/// stall on `addr-gen`/`assemble`/`transfer`, the write-back edge on
/// `compute`/`wb-xfer`/`wb-apply`.
fn reuse_feedback(wm: &MetricsRegistry, makespan: SimTime) -> WindowFeedback {
    let ns = |n: &str| SimTime::from_nanos(wm.get(n) as f64);
    WindowFeedback {
        makespan,
        data_reuse_stall: ns("stall.addr-gen.buffer-reuse")
            + ns("stall.assemble.buffer-reuse")
            + ns("stall.transfer.buffer-reuse"),
        wb_reuse_stall: ns("stall.compute.buffer-reuse")
            + ns("stall.wb-xfer.buffer-reuse")
            + ns("stall.wb-apply.buffer-reuse"),
    }
}

/// Normalized §IV.A fingerprint of one window: pattern-hit fraction,
/// encoded-address density, PCIe host-to-device density, and atomic density
/// (all per window byte, so window size cancels out of the comparison).
fn fingerprint(wm: &MetricsRegistry, window_bytes: u64) -> [f64; 4] {
    let b = window_bytes.max(1) as f64;
    let entries = wm.get("addr.entries") as f64;
    let hits = (wm.get("addr.patterns_found") + wm.get("addr.segmented_found")) as f64;
    [
        if entries > 0.0 { hits / entries } else { 0.0 },
        wm.get("addr.encoded_bytes") as f64 / b,
        wm.get("pcie.h2d_bytes") as f64 / b,
        wm.get("gpu.comp_atomics") as f64 / b,
    ]
}

/// Whether any fingerprint component changed by more than `threshold`,
/// relative to the larger magnitude (components near zero never trigger).
fn drift_exceeds(prev: &[f64; 4], cur: &[f64; 4], threshold: f64) -> bool {
    prev.iter().zip(cur).any(|(&a, &b)| {
        let scale = a.abs().max(b.abs());
        scale > 1e-9 && (a - b).abs() / scale > threshold
    })
}

/// Log one stream-level re-plan: decision counters plus a
/// [`RETUNE_MARKER_STAGE`] instant at the window boundary the new plan takes
/// effect.
fn note_stream_retune(
    metrics: &mut MetricsRegistry,
    plan: TunePlan,
    next_window: usize,
    at: SimTime,
    reuse_stall: SimTime,
) {
    metrics.incr("autotune.retune");
    metrics.observe("hist.autotune.depth", plan.data_depth as u64);
    metrics.observe("hist.autotune.buffers", plan.wb_depth as u64);
    bk_obs::trace::record(&SpanRecord {
        track: "autotune",
        stage: RETUNE_MARKER_STAGE,
        chunk: next_window,
        start: at,
        dur: SimTime::ZERO,
        stall: Some(("buffer-reuse", reuse_stall)),
    });
}

/// Run a (possibly multi-pass) program over `streams` as a continuous
/// stream: `source` delivers the primary stream's bytes over simulated time,
/// `scfg.policy` windows them, and each window runs the batch pipeline under
/// `cfg` (as adjusted by the persistent tuner when `scfg.autotune` is set).
/// See the module docs for pass ordering, backpressure and drift semantics.
///
/// `kernels[p]` is pass `p`; `source.len()` must equal the primary stream's
/// length. A configured fault plan re-arms per window.
pub fn run_bigkernel_streamed(
    machine: &mut Machine,
    kernels: &[&dyn StreamKernel],
    streams: &[StreamArray],
    launch: LaunchConfig,
    cfg: &BigKernelConfig,
    scfg: &StreamConfig,
    source: &dyn Source,
) -> StreamResult {
    cfg.validate();
    scfg.validate();
    assert!(!kernels.is_empty(), "need at least one pass");
    assert!(!streams.is_empty(), "need at least one mapped stream");
    let len = streams[0].len();
    assert_eq!(
        source.len(),
        len,
        "source must deliver exactly the primary stream"
    );

    let unit = record_unit(kernels);
    let halo = kernels.iter().map(|k| k.halo_bytes()).max().unwrap_or(0);
    let windows = plan_windows(len, unit, &scfg.policy, source);

    let mut metrics = MetricsRegistry::new();
    let mut reports: Vec<WindowReport> = Vec::with_capacity(windows.len());
    let mut total_chunks = 0usize;
    let mut redetects = 0u64;

    // Persistent cross-window controller, feasibility-capped by the §IV.D
    // occupancy model.
    let mut plan = TunePlan {
        data_depth: cfg.buffer_depth,
        wb_depth: cfg.wb_depth(),
        chunk_bytes: cfg.chunk_input_bytes,
    };
    let mut tuner = scfg.autotune.clone().map(|tcfg| {
        let (occ, _) = pipeline_occupancy(machine.gpu(), kernels, launch, cfg.transfer_all);
        let feasible =
            occupancy::max_buffer_sets(machine.gpu(), &occ, cfg.chunk_input_bytes.max(1));
        Autotuner::new(tcfg, plan, feasible)
    });

    // Pass-major fallback: a later pass reading globally-accumulated device
    // state must see every window of its predecessor first.
    let pass_major = kernels.len() > 1 && kernels.iter().any(|k| k.barrier_dependence());
    let queued_passes: &[&dyn StreamKernel] = if pass_major { &kernels[..1] } else { kernels };

    let mut queue = BoundedQueue::new(scfg.queue_bound);
    let mut prev_fp: Option<[f64; 4]> = None;
    // One block-slot pool for every window and pass (see the module docs).
    let mut slots = Vec::new();

    for (w, win) in windows.iter().enumerate() {
        let ready = source.arrival((win.end + halo).min(len));
        // Admission and start depend only on arrival and *earlier*
        // completions, so they are known before the window runs. The start
        // anchors the trace offset so the window's spans land at absolute
        // stream time.
        let adm = queue.admit(ready);

        let wcfg = window_cfg(cfg, plan);
        let mut makespan = SimTime::ZERO;
        let mut window_chunks = 0usize;
        let mut wm = MetricsRegistry::new();
        for (p, kernel) in queued_passes.iter().enumerate() {
            bk_obs::critpath::set_pass(p);
            bk_obs::trace::set_time_offset(adm.started + makespan);
            let r = run_window_in(
                &mut slots,
                machine,
                *kernel,
                streams,
                launch,
                &wcfg,
                win.clone(),
            );
            makespan += r.total;
            window_chunks += r.chunks;
            if p == 0 {
                wm = r.metrics;
            } else {
                wm.merge(&r.metrics);
            }
        }
        bk_obs::trace::set_time_offset(SimTime::ZERO);

        let completed = queue.retire(makespan);

        // Ingest lane: the window's life from first-byte arrival to
        // admission, with the backpressure share attributed.
        let arriving_from = source.arrival(win.start);
        bk_obs::trace::record(&SpanRecord {
            track: "ingest",
            stage: "ingest",
            chunk: w,
            start: arriving_from,
            dur: adm.admitted.saturating_sub(arriving_from),
            stall: (!adm.backpressure.is_zero())
                .then_some((StallCause::Backpressure.label(), adm.backpressure)),
        });
        if !adm.backpressure.is_zero() {
            metrics.add(
                names::stall("ingest", StallCause::Backpressure),
                adm.backpressure.nanos() as u64,
            );
            metrics.add("stream.backpressure_ns", adm.backpressure.nanos() as u64);
        }
        metrics.incr("stream.windows");
        metrics.observe("hist.stream.queue-depth", adm.depth as u64);

        // Incremental §IV.A re-detection: compare this window's normalized
        // recognition fingerprint against the previous window's.
        let fp = fingerprint(&wm, win.end - win.start);
        let drifted = prev_fp
            .as_ref()
            .is_some_and(|p| drift_exceeds(p, &fp, scfg.redetect_threshold));
        prev_fp = Some(fp);
        if drifted {
            redetects += 1;
            metrics.incr("stream.redetect");
            bk_obs::trace::record(&SpanRecord {
                track: "ingest",
                stage: REDETECT_MARKER_STAGE,
                chunk: w,
                start: adm.admitted,
                dur: SimTime::ZERO,
                stall: None,
            });
        }

        // Feed the persistent controller. Window boundaries are quiesce
        // points (nothing in flight), so both the depth re-plan and the
        // chunk-size re-plan are legal here; a drift re-opens a converged
        // search before the observation lands.
        if let Some(t) = tuner.as_mut() {
            if drifted {
                t.on_drift();
            }
            let fb = reuse_feedback(&wm, makespan);
            let window_stall = fb.data_reuse_stall + fb.wb_reuse_stall;
            if let Some(p) = t.observe(&fb) {
                plan = p;
                note_stream_retune(&mut metrics, p, w + 1, completed, window_stall);
            }
            if let Some(p) = t.plan_wave(window_chunks) {
                plan = p;
                note_stream_retune(&mut metrics, p, w + 1, completed, SimTime::ZERO);
            }
        }

        metrics.merge(&wm);
        total_chunks += window_chunks;
        reports.push(WindowReport {
            window: win.clone(),
            ready,
            admitted: adm.admitted,
            completed,
            backpressure: adm.backpressure,
            depth: adm.depth,
            makespan,
            latency: SimTime::ZERO, // finalized below
            drifted,
        });
    }

    // Pass-major tail: each remaining pass sweeps all windows in stream
    // order after its predecessor fully drains (the global pass barrier the
    // barrier dependence demands). The final pass's per-window completion
    // defines end-to-end latency.
    let mut completed_final: Vec<SimTime> = reports.iter().map(|r| r.completed).collect();
    if pass_major && !windows.is_empty() {
        let mut t = completed_final.last().copied().unwrap_or(SimTime::ZERO);
        for (p, kernel) in kernels.iter().enumerate().skip(1) {
            bk_obs::critpath::set_pass(p);
            let wcfg = window_cfg(cfg, plan);
            for (w, win) in windows.iter().enumerate() {
                bk_obs::trace::set_time_offset(t);
                let r = run_window_in(
                    &mut slots,
                    machine,
                    *kernel,
                    streams,
                    launch,
                    &wcfg,
                    win.clone(),
                );
                t += r.total;
                total_chunks += r.chunks;
                reports[w].makespan += r.total;
                completed_final[w] = t;
                metrics.merge(&r.metrics);
            }
        }
        bk_obs::trace::set_time_offset(SimTime::ZERO);
    }

    // Per-window end-to-end latency (completion of the last pass minus the
    // arrival of the window's first byte) and the stream-level summary.
    let mut latencies: Vec<SimTime> = Vec::with_capacity(reports.len());
    for (rep, &done) in reports.iter_mut().zip(&completed_final) {
        let first_byte = source.arrival(rep.window.start + 1);
        rep.latency = done.saturating_sub(first_byte);
        metrics.observe("hist.stream.latency", rep.latency.nanos() as u64);
        latencies.push(rep.latency);
    }
    latencies.sort();
    let p99_latency = if latencies.is_empty() {
        SimTime::ZERO
    } else {
        let idx = (99 * latencies.len()).div_ceil(100).saturating_sub(1);
        latencies[idx.min(latencies.len() - 1)]
    };
    let total = completed_final.last().copied().unwrap_or(SimTime::ZERO);
    let sustained_bytes_per_sec = if total.is_zero() {
        0.0
    } else {
        len as f64 / total.secs()
    };
    let retunes = tuner.as_ref().map_or(0, |t| t.retunes());
    if tuner.is_some() {
        metrics.add("autotune.depth", plan.data_depth as u64);
        metrics.add("autotune.buffers", plan.wb_depth as u64);
        metrics.add("autotune.chunk_bytes", plan.chunk_bytes);
    }

    StreamResult {
        implementation: "bigkernel-streamed",
        windows: reports,
        total,
        chunks: total_chunks,
        metrics,
        p99_latency,
        sustained_bytes_per_sec,
        redetects,
        retunes,
    }
}

#[cfg(test)]
mod tests {
    use super::super::source::ReplaySource;
    use super::*;
    use crate::ctx::AddrGenCtx;
    use crate::kernel::{KernelCtx, ValueExt};
    use crate::stream::StreamId;

    /// Doubles field A (u32 at +0) into field B (u32 at +4) of 8-byte
    /// records — position-local, so streamed and batch runs must leave
    /// bit-identical host memory.
    struct ScaleKernel;

    impl StreamKernel for ScaleKernel {
        fn name(&self) -> &'static str {
            "stream-test-scale"
        }
        fn record_size(&self) -> Option<u64> {
            Some(8)
        }
        fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
            let mut off = range.start;
            while off < range.end {
                ctx.emit_read(StreamId(0), off, 4);
                ctx.emit_write(StreamId(0), off + 4, 4);
                off += 8;
            }
        }
        fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
            let mut off = range.start;
            while off < range.end {
                let a = ctx.stream_read_u32(StreamId(0), off);
                ctx.alu(1);
                ctx.stream_write_u32(StreamId(0), off + 4, a.wrapping_mul(2));
                off += 8;
            }
        }
    }

    fn filled(machine: &mut Machine, records: u64) -> StreamArray {
        let region = machine.hmem.alloc(records * 8);
        for i in 0..records {
            machine.hmem.write_u32(region, i * 8, i as u32);
        }
        StreamArray::map(machine, StreamId(0), region)
    }

    fn small_cfg() -> BigKernelConfig {
        BigKernelConfig {
            chunk_input_bytes: 4096,
            ..BigKernelConfig::default()
        }
    }

    #[test]
    fn streamed_run_is_bit_identical_to_batch() {
        let n = 2048u64;
        let launch = LaunchConfig::new(2, 32);

        let mut batch = Machine::test_platform();
        let bs = filled(&mut batch, n);
        crate::pipeline::run_bigkernel(&mut batch, &ScaleKernel, &[bs], launch, &small_cfg());

        let mut streamed = Machine::test_platform();
        let ss = filled(&mut streamed, n);
        let scfg = StreamConfig {
            policy: WindowPolicy::ByBytes(3000),
            ..StreamConfig::default()
        };
        let src = ReplaySource::new(n * 8, 1e9);
        let r = run_bigkernel_streamed(
            &mut streamed,
            &[&ScaleKernel],
            &[ss],
            launch,
            &small_cfg(),
            &scfg,
            &src,
        );
        assert!(r.windows.len() > 1, "should cut multiple windows");
        assert_eq!(r.metrics.get("stream.windows"), r.windows.len() as u64);
        assert_eq!(
            streamed.hmem.read(ss.region, 0, (n * 8) as usize),
            batch.hmem.read(bs.region, 0, (n * 8) as usize),
            "streamed output must match batch bit for bit"
        );
        assert!(r.total > SimTime::ZERO);
        assert!(r.sustained_bytes_per_sec > 0.0);
        assert!(r.p99_latency >= r.windows.iter().map(|w| w.latency).min().unwrap());
    }

    #[test]
    fn fast_source_hits_the_high_watermark() {
        let n = 4096u64;
        let mut m = Machine::test_platform();
        let s = filled(&mut m, n);
        // Bytes arrive (almost) instantly; the pipeline takes real simulated
        // time per window, so windows past the bound must stall on admission.
        let src = ReplaySource::new(n * 8, 1e18);
        let scfg = StreamConfig {
            policy: WindowPolicy::ByBytes(4096),
            queue_bound: 2,
            ..StreamConfig::default()
        };
        let r = run_bigkernel_streamed(
            &mut m,
            &[&ScaleKernel],
            &[s],
            LaunchConfig::new(2, 32),
            &small_cfg(),
            &scfg,
            &src,
        );
        assert!(r.windows.len() > 2);
        assert!(
            r.metrics.get("stall.ingest.backpressure") > 0,
            "backpressure must be attributed"
        );
        assert_eq!(
            r.metrics.get("stream.backpressure_ns"),
            r.metrics.get("stall.ingest.backpressure")
        );
        assert!(r.windows.iter().all(|w| w.depth <= 2), "bound respected");
        assert!(r.windows.iter().skip(2).all(|w| !w.backpressure.is_zero()));
    }

    #[test]
    fn slow_source_never_backpressures() {
        let n = 1024u64;
        let mut m = Machine::test_platform();
        let s = filled(&mut m, n);
        // One byte per simulated second: the pipeline always drains long
        // before the next window's bytes arrive.
        let src = ReplaySource::new(n * 8, 1.0);
        let scfg = StreamConfig {
            policy: WindowPolicy::ByBytes(2048),
            queue_bound: 1,
            ..StreamConfig::default()
        };
        let r = run_bigkernel_streamed(
            &mut m,
            &[&ScaleKernel],
            &[s],
            LaunchConfig::new(1, 32),
            &small_cfg(),
            &scfg,
            &src,
        );
        assert_eq!(r.metrics.get("stall.ingest.backpressure"), 0);
        assert!(r.windows.iter().all(|w| w.depth == 1));
        // Throughput is source-bound: roughly the delivery rate.
        assert!(r.sustained_bytes_per_sec <= 1.05);
    }

    #[test]
    fn window_results_follow_the_queue_recurrence() {
        let n = 2048u64;
        let mut m = Machine::test_platform();
        let s = filled(&mut m, n);
        let src = ReplaySource::new(n * 8, 1e6);
        let scfg = StreamConfig {
            policy: WindowPolicy::ByRecords(512),
            queue_bound: 3,
            ..StreamConfig::default()
        };
        let r = run_bigkernel_streamed(
            &mut m,
            &[&ScaleKernel],
            &[s],
            LaunchConfig::new(1, 32),
            &small_cfg(),
            &scfg,
            &src,
        );
        let mut prev_done = SimTime::ZERO;
        for w in &r.windows {
            assert!(w.admitted >= w.ready);
            assert_eq!(w.backpressure, w.admitted.saturating_sub(w.ready));
            assert!(w.completed >= w.admitted.max(prev_done) + w.makespan);
            assert!(w.latency >= w.makespan, "latency includes pipeline time");
            prev_done = w.completed;
        }
        assert_eq!(r.total, prev_done);
    }

    #[test]
    fn drift_helpers_flag_relative_changes_only() {
        let a = [0.9, 0.5, 8.0, 0.1];
        assert!(!drift_exceeds(&a, &a, 0.25));
        // One component moved 50% — over a 25% threshold, under a 60% one.
        let b = [0.9, 0.25, 8.0, 0.1];
        assert!(drift_exceeds(&a, &b, 0.25));
        assert!(!drift_exceeds(&a, &b, 0.6));
        // Near-zero components never trigger on noise.
        assert!(!drift_exceeds(&[0.0; 4], &[1e-12; 4], 0.01));
    }

    #[test]
    #[should_panic(expected = "source must deliver")]
    fn mismatched_source_length_rejected() {
        let mut m = Machine::test_platform();
        let s = filled(&mut m, 64);
        let src = ReplaySource::new(100, 1.0);
        run_bigkernel_streamed(
            &mut m,
            &[&ScaleKernel],
            &[s],
            LaunchConfig::new(1, 32),
            &small_cfg(),
            &StreamConfig::default(),
            &src,
        );
    }

    #[test]
    #[should_panic(expected = "stall threshold")]
    fn invalid_tuner_knobs_rejected() {
        StreamConfig {
            autotune: Some(AutotuneConfig {
                stall_threshold: 1.0,
                ..AutotuneConfig::default()
            }),
            ..StreamConfig::default()
        }
        .validate();
    }
}
