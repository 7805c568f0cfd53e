//! # bk-host — host-side simulator
//!
//! Substrate for the CPU half of the BigKernel system (DESIGN.md §2–3):
//!
//! * [`cpu`] — CPU cost model (cores/SMT, IPC, memory bandwidth roofline)
//!   with the paper's Xeon E5 quad-core preset; used both for the CPU
//!   baseline implementations and for costing BigKernel's data-assembly
//!   stage.
//! * [`cache`] — a set-associative LRU cache simulator. The assembly stage
//!   feeds its real gather address stream through this to measure the hit
//!   rate, which is what the paper's §IV.B locality optimization improves.
//! * [`hostmem`] — functional host memory regions (the mapped source
//!   arrays).
//! * [`arena`] — region-style bump allocator with generation-tagged reset,
//!   modelling the long-lived pinned assembly buffers: allocate once, bump
//!   per chunk, wholesale-reset between chunks, zero steady-state heap
//!   traffic.
//! * [`pcie`] — the PCIe Gen3 x16 link and DMA-engine cost model, including
//!   the in-order flag-copy completion signal BigKernel relies on (§IV.C).

pub mod arena;
pub mod cache;
pub mod cpu;
pub mod hostmem;
pub mod pcie;

pub use arena::{ArenaRef, PinnedArena};
pub use cache::CacheSim;
pub use cpu::{CpuCost, CpuSpec};
pub use hostmem::{HostMemory, RegionId};
pub use pcie::{DmaDirection, PcieLink};
