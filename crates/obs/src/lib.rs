//! # bk-obs — observability for the BigKernel reproduction
//!
//! The pipeline's whole value proposition (§III, Fig. 2) is *staying full*;
//! this crate makes emptiness visible. Its pieces:
//!
//! * [`metrics`] — the [`MetricsRegistry`]: the workspace's single metrics
//!   sink, wrapping the event counters ([`bk_simcore::Counters`]) and adding
//!   fixed-footprint log₂ [`Histogram`]s (span durations, per-chunk bytes).
//! * [`names`] — the one builder of composed names: `stall.<stage>.<cause>`,
//!   `hist.span.<stage>`, `bound.<stage>.<label>`, `device.<i>.<quantity>`,
//!   `dev<i>.<resource>` tracks and `p<i>.<role>` fused stages, each
//!   interned as a `&'static str` the first time it is asked for.
//! * [`trace`] — a span recorder for simulated-time spans
//!   `(chunk, stage, resource)`. Collection is compile-time gated behind the
//!   `trace` cargo feature *and* runtime-gated behind a thread-local
//!   [`trace::start`] guard, so an untraced run does no work and allocates
//!   nothing.
//! * [`stall`] — stall attribution: converts the scheduler's per-slot
//!   [`bk_simcore::StallKind`] into typed [`StallCause`]s and
//!   `stall.<stage>.<cause>` counters, and [`stall::record_schedule`] walks a
//!   computed [`bk_simcore::Schedule`] emitting spans + stall counters +
//!   duration histograms in one pass.
//! * [`export`] — exporters: Chrome/Perfetto `trace.json` (one track per
//!   hardware resource) and a plain-text utilization / bubble report.
//! * [`critpath`] — critical-path reconstruction: which chain of slots
//!   actually bound the makespan, with per-stage/resource/device blame and
//!   a capture sink for the runtime's scheduled-wave snapshots.
//!
//! Determinism contract: everything recorded into the [`MetricsRegistry`]
//! (counters, histograms, stall totals) is derived purely from the
//! deterministic [`bk_simcore::Schedule`] and is recorded *unconditionally*,
//! whether or not tracing is enabled — so enabling tracing can never change
//! a simulated result. Only span collection and export are gated.

#![deny(missing_docs)]

pub mod critpath;
pub mod export;
pub mod metrics;
pub mod names;
pub mod stall;
pub mod trace;

pub use critpath::{analyze, critical_path, CritReport};
pub use export::{text_report, to_chrome_json};
pub use metrics::{Histogram, MetricsRegistry};
pub use stall::{record_schedule, stage_role, StallCause};
pub use trace::{SpanRecord, FAULT_MARKER_STAGE, REDETECT_MARKER_STAGE, RETUNE_MARKER_STAGE};
