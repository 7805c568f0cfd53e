//! BigKernel runtime configuration.
//!
//! Every field changes the modeled system except
//! [`BigKernelConfig::parallel_blocks`], which nothing reads. How many host
//! threads run the simulation is not configuration: the runner's pure
//! address half fans out to the installed rayon pool's width, and the
//! result is bit-identical at any width (see [`crate::pipeline`]).

use crate::fault::FaultPlan;

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
    /// §IV.A stride-pattern recognition. When a lane's whole stream has no
    /// pattern, piecewise (mid-stream-changing) patterns — the §IV.A
    /// extension — are tried before falling back to the raw stream.
    pub pattern_recognition: bool,
    /// §IV.B locality-ordered assembly reads (per-GPU-thread order) when a
    /// pattern is available.
    pub locality_assembly: bool,
    /// Chunk-buffer layout (Interleaved = coalescing optimization on).
    pub layout: AssemblyLayout,
    /// Transfer *all* input data verbatim instead of only addressed bytes —
    /// the Fig. 5 "overlap only" variant (address generation and gather are
    /// skipped; the pipeline overlap is the only remaining benefit).
    pub transfer_all: bool,
    /// Stage synchronization scheme (§IV.C).
    pub sync: SyncMode,
    /// Ignored: phase A fans out to the pool width; delete with the next
    /// benchmark change.
    pub parallel_blocks: bool,
    /// Deterministic fault injection (see [`crate::fault`]). `None` (the
    /// default) takes the exact fault-free code path. Faults perturb only
    /// durations and chunk placement — outputs stay bit-identical to the
    /// fault-free run for any plan that completes.
    pub faults: Option<FaultPlan>,
}

impl Default for BigKernelConfig {
    fn default() -> Self {
        BigKernelConfig {
            chunk_input_bytes: 256 * 1024,
            buffer_depth: 3,
            wb_buffer_depth: None,
            pattern_recognition: true,
            locality_assembly: true,
            layout: AssemblyLayout::Interleaved,
            transfer_all: false,
            sync: SyncMode::IterationBarrier,
            parallel_blocks: true,
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
