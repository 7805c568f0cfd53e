//! Streamed arrays **and** continuous streaming ingestion.
//!
//! Two layers live here:
//!
//! * [`mod@array`] — the original `streamingMalloc`/`streamingMap` handle: a
//!   [`StreamArray`] names an arbitrarily large pseudo-virtual GPU array
//!   backed by host memory. Everything in the repo runs over these.
//! * the **continuous ingestion mode** (`source` / `window` / `queue` /
//!   [`run`]) — the unbounded generalization of the batch pipeline: input
//!   *arrives over simulated time* from a [`Source`], a [`WindowPolicy`]
//!   cuts the live stream into record-aligned windows, and each window runs
//!   through the full §III pipeline: the body of
//!   [`run_bigkernel`](crate::pipeline::run_bigkernel) restricted to that
//!   window's byte range. A
//!   bounded inter-stage queue ([`BoundedQueue`]) applies high-watermark
//!   backpressure from assembly back to ingestion (attributed as
//!   `stall.ingest.backpressure`), per-window §IV.A fingerprints drive
//!   incremental re-detection when the distribution drifts, and a
//!   persistent [`Autotuner`](crate::autotune::Autotuner), when configured,
//!   re-plans reuse depths and chunk size *across* windows.
//!
//! ## Determinism
//!
//! A streamed run over a replayable source is bit-identical to the batch
//! run over the concatenated input: windows are record-aligned, every
//! record is processed by exactly one window, and device effects land in
//! window order just as batch chunks land in chunk order. Arrival times,
//! queue admission and drift decisions are pure arithmetic over the
//! deterministic per-window [`RunResult`](crate::RunResult)s — no
//! wall-clock, no ambient randomness. The determinism suite pins
//! streamed ≡ batch for every application under every window policy.

pub mod array;
pub mod queue;
pub mod run;
pub mod source;
pub mod window;

pub use array::{StreamArray, StreamId};
pub use queue::{Admission, BoundedQueue};
pub use run::{run_bigkernel_streamed, StreamConfig, StreamResult, WindowReport};
pub use source::{HiccupSource, ReplaySource, Source};
pub use window::{plan_windows, WindowPolicy};
