//! # bk-runtime — the BigKernel runtime (the paper's primary contribution)
//!
//! Implements the scheme of *BigKernel — High Performance CPU-GPU
//! Communication Pipelining for Big Data-style Applications* (IPDPS 2014) on
//! top of the simulated substrates in `bk-gpu` and `bk-host`:
//!
//! * [`stream`] — `streamingMalloc`/`streamingMap`: pseudo-virtual GPU
//!   arrays of arbitrary size backed by host memory ([`StreamArray`]).
//! * [`kernel`] — the [`StreamKernel`] programming model: one kernel body
//!   plus its compiler-sliced address half (see `bk-kernelc` for the actual
//!   mechanical slicing of IR kernels), and the [`KernelCtx`] abstraction
//!   the body is written against.
//! * [`addr`] — address streams emitted by the prefetch address-generation
//!   stage.
//! * [`pattern`] — §IV.A stride-pattern recognition (base + stride cycle,
//!   verify-and-fallback).
//! * [`segmented`] — the §IV.A extension the paper sketches: patterns that
//!   change midstream, compressed piecewise.
//! * [`assembly`] — §III stage 2 + §IV.B locality-ordered gather, measured
//!   against the simulated LLC.
//! * [`layout`] — the interleaved (coalescing-friendly) prefetch-buffer
//!   layout shared between the CPU assembler and GPU consumer.
//! * [`pool`] — per-block-slot recycled scratch (address buffers, pattern
//!   components, layouts, prefetch bytes) keeping the stage 1–2 hot path
//!   allocation-free in steady state.
//! * [`ctx`] — the AddrGen / Compute kernel contexts, including the runtime
//!   FIFO cross-check that the address stream exactly covers the compute
//!   stage's reads (our machine-checked analogue of compiler-transformation
//!   correctness).
//! * [`sync`] — §IV.C synchronization cost model (bar.red barriers, flag
//!   signalling over PCIe, the `n-3` buffer-reuse rule).
//! * [`graph`] — the declarative stage-graph executor: the BigKernel and
//!   baseline graphs as [`bk_simcore::GraphSpec`] data (stages, typed
//!   hardware resources, dependency edges), a generalized list scheduler,
//!   and round-robin chunk sharding across `N` simulated GPUs
//!   ([`Executor`]).
//! * [`fault`] — deterministic fault injection & recovery: a seeded
//!   [`FaultPlan`] failing stage instances or whole devices, with bounded
//!   retry + backoff, chunk requeue onto survivors and graceful degradation
//!   to the double-buffered / serial graphs.
//! * [`fusion`] — MPK-style mega-kernel fusion: dependence analysis over
//!   per-kernel access summaries proving when a later pass's stream reads
//!   are covered by an earlier pass's device-buffer writes, producing a
//!   [`FusePlan`] that runs all passes through one multi-stage graph with
//!   device-resident intermediates (conservative refusal otherwise).
//! * [`autotune`] — the streaming runner's between-window tuner: a
//!   deterministic feedback controller that reads each window's reuse-stall
//!   totals and re-plans reuse depths and chunk size for the next window,
//!   bounded by the §IV.D occupancy model ([`Autotuner`]).
//! * [`pipeline`] — the 4-stage (plus 2 write-back stage) pipeline runner
//!   producing a [`RunResult`] with simulated time, per-stage breakdown and
//!   counters; a thin configuration layer over [`graph`].
//! * [`whatif`] — what-if replay over captured schedule snapshots: predict
//!   the makespan of a perturbed pipeline (deeper reuse edge, extra
//!   device, faster stage) by re-running the pure scheduler, without
//!   re-simulating the application.

#![deny(missing_docs)]

pub mod addr;
pub mod assembly;
pub mod autotune;
pub mod config;
pub mod ctx;
mod exec;
pub mod fault;
pub mod fusion;
pub mod graph;
pub mod kernel;
pub mod layout;
pub mod machine;
pub mod pattern;
pub mod pipeline;
pub mod pool;
pub mod result;
pub mod segmented;
pub mod stream;
pub mod sync;
pub mod whatif;

pub use assembly::GatherConfig;
pub use autotune::{AutotuneConfig, Autotuner, TunePlan, TunerState, WindowFeedback};
pub use bk_obs::{Histogram, MetricsRegistry};
pub use config::{AssemblyLayout, BigKernelConfig, SyncMode};
pub use ctx::{AddrGenCtx, ComputeCtx};
pub use exec::{compute_staged, BlockComputed, StagedAux};
pub use fault::{DeviceFailure, FaultPlan, FaultSite, FaultStage};
pub use fusion::{AccessSummary, FieldSpan, FusePlan, FuseRefusal, PassIo, StreamAccess};
pub use graph::Executor;
pub use kernel::{DevBufId, KernelCtx, LaunchConfig, StreamKernel, ValueExt};
pub use machine::Machine;
pub use pipeline::{run_bigkernel, run_bigkernel_fused};
pub use pool::{AddrGenScratch, StreamPool};
pub use result::{RunResult, StageStat};
pub use stream::{
    run_bigkernel_streamed, HiccupSource, ReplaySource, Source, StreamArray, StreamConfig,
    StreamId, StreamResult, WindowPolicy, WindowReport,
};
pub use whatif::{Perturbation, Prediction, Scenario};
