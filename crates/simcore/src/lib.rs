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
//!   edges, capacities) and [`Schedule`], the one solved-schedule type
//!   every scheduler returns (slots with [`SlotMeta`] stall attribution,
//!   plus the device, chunk ids and graph shape they were solved under).
//!   Runs schedule with `bk_runtime`'s stage-graph executor;
//!   [`pipeline::schedule`] is its reference implementation for
//!   capacity-1 chains, whose result it must equal.
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
