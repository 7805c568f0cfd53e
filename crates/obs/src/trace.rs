//! Simulated-time span recorder.
//!
//! A [`SpanRecord`] is one stage instance of one chunk, placed on the track
//! of the hardware resource it occupied (GPU addr-gen half, CPU assembly
//! thread, DMA engine, GPU compute half...). Spans carry simulated time, not
//! wall-clock time: the exporter turns them into a Chrome/Perfetto trace of
//! the *schedule*, which is what the paper's Fig. 2 pipeline diagrams show.
//!
//! Two gates keep the untraced path free:
//!
//! * **compile time** — without the `trace` cargo feature every function
//!   here is an empty `#[inline]` stub;
//! * **runtime** — with the feature on, spans are only collected while a
//!   [`start`] guard is live on the *calling* thread (collection is
//!   thread-local; the pipeline records spans from the scheduling thread).
//!   The disabled path is one thread-local `Option` check and performs zero
//!   heap allocations — pinned by `crates/gpu/tests/alloc_free.rs`.
//!
//! Guards do not nest: a second [`start`] on the same thread resets the
//! buffer.

use bk_simcore::SimTime;

/// Stage label marking a span as a fault-recovery marker rather than a
/// pipeline stage instance: `dur` is zero, `start` is where the faulted
/// stage was rescheduled, and `stall` carries `("fault", lost time)`. The
/// exporter renders these as Perfetto instant events on the faulted
/// resource's track.
pub const FAULT_MARKER_STAGE: &str = "fault";

/// Stage label marking a span as a streaming re-detection point: the
/// per-window §IV.A access-pattern fingerprint drifted past the configured
/// threshold, so `OnlineDetect` re-classified the stream and the persistent
/// autotuner re-opened its search (`bk_runtime::stream`). `dur` is zero,
/// `start` is the admission time of the window that drifted, `chunk` is that
/// window's index, and `stall` is `None`. Rendered as Perfetto instant
/// events on the `"ingest"` track.
pub const REDETECT_MARKER_STAGE: &str = "redetect";

/// Stage label marking a span as a streaming tuner re-plan point
/// (`bk_runtime::stream`): `dur` is zero, `start` is the simulated time the
/// new plan took effect (a window boundary), `chunk` is the index of the
/// first window run under the new plan, and
/// `stall` carries `("buffer-reuse", reuse stall of the window that
/// triggered the decision)`. Rendered as Perfetto instant events on the
/// `"autotune"` track.
pub const RETUNE_MARKER_STAGE: &str = "retune";

/// One recorded stage instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanRecord {
    /// Track the span sits on — one exporter lane per distinct value: a
    /// resource's [`crate::names::resource`] name, or a marker lane.
    pub track: &'static str,
    /// Stage name ("addr-gen", "assemble", ...).
    pub stage: &'static str,
    /// Global chunk index (monotone across waves).
    pub chunk: usize,
    /// Absolute simulated start time.
    pub start: SimTime,
    /// Busy duration of the stage instance.
    pub dur: SimTime,
    /// Why the span started later than its dataflow predecessor finished,
    /// and by how much — `None` when the pipeline handed over seamlessly.
    pub stall: Option<(&'static str, SimTime)>,
}

#[cfg(feature = "trace")]
mod imp {
    use super::SpanRecord;
    use bk_simcore::SimTime;
    use std::cell::{Cell, RefCell};

    thread_local! {
        static SINK: RefCell<Option<Vec<SpanRecord>>> = const { RefCell::new(None) };
        static OFFSET: Cell<SimTime> = const { Cell::new(SimTime::ZERO) };
    }

    pub fn start() {
        SINK.with(|s| *s.borrow_mut() = Some(Vec::new()));
        OFFSET.with(|o| o.set(SimTime::ZERO));
    }

    pub fn finish() -> Vec<SpanRecord> {
        OFFSET.with(|o| o.set(SimTime::ZERO));
        SINK.with(|s| s.borrow_mut().take()).unwrap_or_default()
    }

    #[inline]
    pub fn record(span: &SpanRecord) {
        SINK.with(|s| {
            if let Some(v) = s.borrow_mut().as_mut() {
                let mut placed = *span;
                placed.start += OFFSET.with(|o| o.get());
                v.push(placed);
            }
        });
    }

    #[inline]
    pub fn set_time_offset(offset: SimTime) {
        OFFSET.with(|o| o.set(offset));
    }

    #[inline]
    pub fn enabled() -> bool {
        SINK.with(|s| s.borrow().is_some())
    }
}

/// RAII guard for span collection on the current thread. Obtain with
/// [`start`], harvest with [`TraceGuard::finish`]; dropping it without
/// finishing discards the buffer.
#[must_use = "dropping the guard discards collected spans"]
pub struct TraceGuard {
    _priv: (),
}

/// Begin collecting spans on this thread.
pub fn start() -> TraceGuard {
    #[cfg(feature = "trace")]
    imp::start();
    TraceGuard { _priv: () }
}

impl TraceGuard {
    /// Stop collecting and return the spans recorded since [`start`].
    pub fn finish(self) -> Vec<SpanRecord> {
        std::mem::forget(self);
        #[cfg(feature = "trace")]
        {
            imp::finish()
        }
        #[cfg(not(feature = "trace"))]
        {
            Vec::new()
        }
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        #[cfg(feature = "trace")]
        drop(imp::finish());
    }
}

/// Record one span if collection is active on this thread; a no-op (and,
/// without the `trace` feature, an empty stub) otherwise.
#[inline]
pub fn record(span: &SpanRecord) {
    #[cfg(feature = "trace")]
    imp::record(span);
    #[cfg(not(feature = "trace"))]
    let _ = span;
}

/// Shift the `start` of every span recorded *after* this call by `offset`
/// (on the current thread, until changed or a new guard [`start`]s).
///
/// Batch runners place spans on their own zero-based time axis; the
/// streaming runner (`bk_runtime::stream`) sets the offset to each window's
/// pipeline start time before invoking the batch runner, so all windows of a
/// streamed run land on one absolute stream timeline in the exported trace.
/// Purely observational: without an active guard (or the `trace` feature)
/// this is a no-op and no simulated result can depend on it.
#[inline]
pub fn set_time_offset(offset: SimTime) {
    #[cfg(feature = "trace")]
    imp::set_time_offset(offset);
    #[cfg(not(feature = "trace"))]
    let _ = offset;
}

/// Is span collection active on this thread?
#[inline]
pub fn enabled() -> bool {
    #[cfg(feature = "trace")]
    {
        imp::enabled()
    }
    #[cfg(not(feature = "trace"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(chunk: usize) -> SpanRecord {
        SpanRecord {
            track: "dma",
            stage: "transfer",
            chunk,
            start: SimTime::from_micros(chunk as f64),
            dur: SimTime::from_micros(1.0),
            stall: None,
        }
    }

    #[test]
    fn record_without_guard_is_dropped() {
        assert!(!enabled());
        record(&span(0));
        let g = start();
        drop(g.finish()); // not asserting content here; see below
        assert!(!enabled());
    }

    #[cfg(feature = "trace")]
    #[test]
    fn guard_collects_and_finish_harvests() {
        let g = start();
        assert!(enabled());
        record(&span(0));
        record(&span(1));
        let spans = g.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].chunk, 1);
        assert!(!enabled(), "finish disables collection");
        record(&span(2)); // dropped, no guard
        let spans = start().finish();
        assert!(spans.is_empty());
    }

    #[cfg(feature = "trace")]
    #[test]
    fn time_offset_shifts_spans_until_reset() {
        let g = start();
        record(&span(0)); // starts at 0 µs
        set_time_offset(SimTime::from_micros(100.0));
        record(&span(1)); // starts at 1 µs + 100 µs offset
        set_time_offset(SimTime::ZERO);
        record(&span(2));
        let spans = g.finish();
        assert!((spans[0].start.micros() - 0.0).abs() < 1e-9);
        assert!((spans[1].start.micros() - 101.0).abs() < 1e-9);
        assert!((spans[2].start.micros() - 2.0).abs() < 1e-9);
        // A fresh guard resets any lingering offset.
        set_time_offset(SimTime::from_micros(7.0));
        let g = start();
        record(&span(0));
        assert!((g.finish()[0].start.micros() - 0.0).abs() < 1e-9);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn dropping_the_guard_discards_spans() {
        let g = start();
        record(&span(0));
        drop(g);
        assert!(!enabled());
        assert!(start().finish().is_empty());
    }

    #[cfg(not(feature = "trace"))]
    #[test]
    fn feature_off_is_fully_inert() {
        let g = start();
        assert!(!enabled());
        record(&span(0));
        assert!(g.finish().is_empty());
    }
}
