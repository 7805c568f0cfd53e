//! # bk-gpu — functional + timing GPU simulator
//!
//! The BigKernel paper evaluates on an NVIDIA GTX 680. We have no GPU, so
//! this crate supplies the substitute substrate (see DESIGN.md §2): a
//! simulator that (i) executes kernel work *functionally* — real bytes in a
//! simulated global memory — and (ii) derives simulated time from the
//! architectural mechanisms the paper's results hinge on:
//!
//! * **warp-level coalescing** ([`trace`]): each aligned warp step's 32
//!   addresses are mapped to the minimal set of 32-byte segments; strided or
//!   scattered access patterns inflate the number of memory transactions
//!   exactly the way GDDR5 transactions do;
//! * **occupancy** ([`occupancy`]): registers/shared-memory limits determine
//!   the number of *active thread blocks* (paper §IV.D);
//! * **roofline timing** ([`timing`]): a kernel stage's duration is the max
//!   of its instruction-issue bound, memory-bandwidth bound, and atomic
//!   serialization bound (hot hash-table entries serialize — this is what
//!   makes Word Count computation-dominant, paper Fig. 6);
//! * **functional memory** ([`mem`]): byte-addressable global-memory buffers
//!   with typed and atomic accessors, so every implementation variant
//!   produces real, checkable output.

#![deny(missing_docs)]

pub mod exec;
pub mod mem;
pub mod occupancy;
pub mod spec;
pub mod timing;
pub mod trace;

pub use exec::{run_block_lanes, BlockSim};
pub use mem::{BufferId, GpuMemory};
pub use occupancy::{BlockResources, Occupancy};
pub use spec::{DeviceSpec, WARP_SIZE};
pub use timing::{GpuPool, KernelCost};
pub use trace::{AccessKind, StepCost, ThreadTrace, WarpAligner};
