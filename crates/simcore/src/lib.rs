//! # bk-simcore — simulation core for the BigKernel reproduction
//!
//! Shared infrastructure used by the GPU simulator (`bk-gpu`), the host
//! simulator (`bk-host`) and the BigKernel runtime (`bk-runtime`):
//!
//! * [`time`] — the simulated-time type ([`SimTime`]) and rate helpers
//!   ([`Bandwidth`], [`Frequency`]).
//! * [`roofline`] — throughput-model primitives: a stage's duration is the
//!   max over its compute-bound, memory-bound and fixed-latency terms.
//! * [`pipeline`] — the stage-graph vocabulary: typed resources
//!   ([`ResourceKind`] × device = [`ResourceId`], the only place a resource
//!   is spelled), [`GraphSpec`] (stages, dependency edges, buffer-reuse
//!   edges, capacities), the one scheduler ([`pipeline::schedule`], and
//!   [`pipeline::deal`] plus [`pipeline::schedule_shards`] for a wave
//!   sharded over simulated devices) and [`Schedule`], the solved schedule
//!   it returns: slots with [`SlotMeta`] stall attribution and binding
//!   predecessors, plus the device, chunk ids and shared graph spec they
//!   were solved under.
//! * [`stats`] — cheap named counters for bytes moved, transactions issued,
//!   cache hits, etc.
//! * [`rng`] — deterministic RNG (SplitMix64) and a Zipf sampler used by the
//!   synthetic data generators.

pub mod pipeline;
pub mod rng;
pub mod roofline;
pub mod stats;
pub mod time;

pub use pipeline::{
    GraphSpec, GraphStage, ResourceId, ResourceKind, ReuseEdge, Schedule, ScheduleView, SlotMeta,
    StallKind,
};
pub use rng::{SplitMix64, Zipf};
pub use roofline::RooflineTerms;
pub use stats::Counters;
pub use time::{Bandwidth, Frequency, SimTime};
