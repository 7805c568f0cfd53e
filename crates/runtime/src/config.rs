//! BigKernel runtime configuration.

use crate::fault::FaultPlan;
use crate::graph::ShardPolicy;

/// How the assembly stage lays out prefetched data in the chunk buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AssemblyLayout {
    /// `dataBuf[counter][tid]` — optimized for coalesced GPU accesses
    /// (full BigKernel).
    Interleaved,
    /// Per-lane packed runs — transfer volume reduced but original order
    /// (the Fig. 5 "volume reduction only" variant).
    PerLane,
}

/// Order the assembly stage visits gather elements in (paper §IV.B).
///
/// Destination slots are fixed by the [`AssemblyLayout`], so every order
/// produces bit-identical prefetch buffers; what changes is the *source*
/// access sequence seen by the simulated LLC and therefore the assembly
/// stage's cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AssemblyOrder {
    /// Pick per chunk: cache-block a warp's gather only when its source
    /// footprint overflows the simulated LLC, otherwise walk naturally.
    Auto,
    /// Per-GPU-thread order exactly as the locality optimization emits it.
    Natural,
    /// Tile the per-warp gather so each tile's source range fits the LLC
    /// before moving on (the §IV.B blocking the paper sketches for inputs
    /// whose per-warp working set exceeds the cache).
    CacheBlocked,
}

/// Synchronization scheme between pipeline stages (paper §IV.C).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncMode {
    /// The paper's scheme: one block-wide `bar.red` per stage boundary, one
    /// flag write over PCIe per direction, and the `addr-gen(n) waits on
    /// compute(n - depth)` buffer-reuse barrier.
    IterationBarrier,
    /// The footnote-3 alternative: full/empty flags per buffer. More PCIe
    /// flag transfers and more busy waiting per chunk (ablation knob).
    PerBufferFlags,
}

/// Configuration of one BigKernel run.
#[derive(Clone, Debug)]
pub struct BigKernelConfig {
    /// Input bytes each thread block consumes per chunk (determines chunk
    /// count; data/address buffers are sized to match).
    pub chunk_input_bytes: u64,
    /// Buffer multiplicity: address generation of chunk `n` waits for
    /// computation of chunk `n - depth`. The paper uses 3 ("iteration
    /// n synchronizes with the computation threads in iteration n-3").
    pub buffer_depth: usize,
    /// Write-back buffer multiplicity: compute of chunk `n` waits for
    /// write-back apply of chunk `n - depth`. `None` (the default) follows
    /// [`buffer_depth`](Self::buffer_depth), which is the paper's single
    /// shared depth; `--buffers N` and the streaming runner's between-window
    /// tuner set the two edges independently.
    pub wb_buffer_depth: Option<usize>,
    /// §IV.A stride-pattern recognition.
    pub pattern_recognition: bool,
    /// Piecewise (mid-stream-changing) patterns, the §IV.A extension; only
    /// consulted when whole-stream recognition fails.
    pub segmented_patterns: bool,
    /// §IV.B locality-ordered assembly reads (per-GPU-thread order) when a
    /// pattern is available.
    pub locality_assembly: bool,
    /// Chunk-buffer layout (Interleaved = coalescing optimization on).
    pub layout: AssemblyLayout,
    /// Gather element order for the assembly stage (see [`AssemblyOrder`]).
    /// Purely a cost/throughput knob: buffers are bit-identical across
    /// orders.
    pub assembly_order: AssemblyOrder,
    /// Vectorized gather fast path: copy long contiguous runs with unrolled
    /// word-wide moves instead of per-element loads. Bit-identical to the
    /// scalar path (property-tested); purely a simulator-throughput knob.
    pub simd_gather: bool,
    /// Transfer *all* input data verbatim instead of only addressed bytes —
    /// the Fig. 5 "overlap only" variant (address generation and gather are
    /// skipped; the pipeline overlap is the only remaining benefit).
    pub transfer_all: bool,
    /// Stage synchronization scheme (§IV.C).
    pub sync: SyncMode,
    /// Verify at every compute-stage access that the address stream entry
    /// matches (the compiler-correctness cross-check). Cheap; on by default.
    pub verify_reads: bool,
    /// Select the host algorithm for a chunk's blocks. On: the logged
    /// algorithm — the pure phases run on the host thread pool and device
    /// effects replay from per-block write logs in block order. Off: every
    /// block runs live in block order, with no write log. The model is
    /// identical either way (outputs, simulated times, every metric), except
    /// `parallel.replay_conflicts`, which counts wasted logged attempts and
    /// so is 0 when off. Kernels declaring `DeviceEffects::Sequential`
    /// always run live.
    pub parallel_blocks: bool,
    /// How chunks are dealt out across the machine's simulated GPUs (only
    /// meaningful when `Machine::num_gpus() > 1`). A timing-level decision:
    /// functional execution stays in global chunk order, so outputs are
    /// identical under every policy and device count.
    pub shard_policy: ShardPolicy,
    /// Deterministic fault injection (see [`crate::fault`]). `None` (the
    /// default) takes the exact fault-free code path. Like `shard_policy`,
    /// faults perturb only durations and chunk placement — outputs stay
    /// bit-identical to the fault-free run for any plan that completes.
    pub faults: Option<FaultPlan>,
}

impl Default for BigKernelConfig {
    fn default() -> Self {
        BigKernelConfig {
            chunk_input_bytes: 256 * 1024,
            buffer_depth: 3,
            wb_buffer_depth: None,
            pattern_recognition: true,
            segmented_patterns: true,
            locality_assembly: true,
            layout: AssemblyLayout::Interleaved,
            assembly_order: AssemblyOrder::Auto,
            simd_gather: true,
            transfer_all: false,
            sync: SyncMode::IterationBarrier,
            verify_reads: true,
            parallel_blocks: true,
            shard_policy: ShardPolicy::RoundRobin,
            faults: None,
        }
    }
}

impl BigKernelConfig {
    /// The Fig. 5 "overlap only" variant.
    pub fn overlap_only() -> Self {
        BigKernelConfig {
            transfer_all: true,
            pattern_recognition: false,
            ..Self::default()
        }
    }

    /// The Fig. 5 "transfer volume reduction" variant (no coalescing
    /// layout).
    pub fn volume_reduction() -> Self {
        BigKernelConfig {
            layout: AssemblyLayout::PerLane,
            ..Self::default()
        }
    }

    /// The effective write-back reuse depth: the explicit override if set,
    /// otherwise the shared [`buffer_depth`](Self::buffer_depth).
    pub fn wb_depth(&self) -> usize {
        self.wb_buffer_depth.unwrap_or(self.buffer_depth)
    }

    /// Panic on configurations that cannot be run (zero chunk size, zero
    /// buffer depth, contradictory variants, invalid fault plan).
    pub fn validate(&self) {
        assert!(self.chunk_input_bytes > 0, "chunk size must be positive");
        assert!(self.buffer_depth >= 1, "need at least one buffer");
        assert!(self.wb_depth() >= 1, "need at least one write-back buffer");
        if self.transfer_all {
            assert!(
                !self.pattern_recognition,
                "transfer_all skips address generation; pattern recognition is meaningless"
            );
        }
        if let Some(plan) = &self.faults {
            if let Err(e) = plan.check() {
                panic!("invalid fault plan: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_bigkernel() {
        let c = BigKernelConfig::default();
        c.validate();
        assert_eq!(c.buffer_depth, 3);
        assert!(c.pattern_recognition);
        assert_eq!(c.layout, AssemblyLayout::Interleaved);
        assert_eq!(c.assembly_order, AssemblyOrder::Auto);
        assert!(c.simd_gather);
        assert!(!c.transfer_all);
    }

    #[test]
    fn variants_validate() {
        BigKernelConfig::overlap_only().validate();
        BigKernelConfig::volume_reduction().validate();
        assert_eq!(
            BigKernelConfig::volume_reduction().layout,
            AssemblyLayout::PerLane
        );
        assert!(BigKernelConfig::overlap_only().transfer_all);
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn transfer_all_with_patterns_rejected() {
        let c = BigKernelConfig {
            transfer_all: true,
            pattern_recognition: true,
            ..BigKernelConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one buffer")]
    fn zero_depth_rejected() {
        let c = BigKernelConfig {
            buffer_depth: 0,
            ..BigKernelConfig::default()
        };
        c.validate();
    }

    #[test]
    fn wb_depth_follows_buffer_depth_unless_overridden() {
        let mut c = BigKernelConfig::default();
        assert_eq!(c.wb_depth(), 3);
        c.buffer_depth = 7;
        assert_eq!(c.wb_depth(), 7);
        c.wb_buffer_depth = Some(2);
        assert_eq!(c.wb_depth(), 2);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "write-back buffer")]
    fn zero_wb_depth_rejected() {
        let c = BigKernelConfig {
            wb_buffer_depth: Some(0),
            ..BigKernelConfig::default()
        };
        c.validate();
    }
}
