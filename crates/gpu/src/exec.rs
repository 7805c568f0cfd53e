//! Block execution helper: drive a block's lanes warp by warp, aligning
//! each completed warp's traces into a [`KernelCost`].
//!
//! Every runner (BigKernel's address-generation and compute stages, the
//! buffered baselines' kernels) iterates lanes the same way; this helper is
//! the single copy of that loop.

use crate::spec::{DeviceSpec, WARP_SIZE};
use crate::timing::KernelCost;
use crate::trace::{ThreadTrace, WarpAligner};

/// Reusable block simulation state: the warp aligner plus one trace per
/// warp lane. Reusing a `BlockSim` lets [`run_block_lanes`] run
/// allocation-free in steady state; its contents are scratch that no result
/// reads after the lane loop, so blocks may share one.
pub struct BlockSim {
    /// The block's warp aligner (scratch reused across warps).
    pub aligner: WarpAligner,
    traces: Vec<ThreadTrace>,
}

impl BlockSim {
    /// Fresh scratch for simulating a block's lanes.
    pub fn new() -> Self {
        BlockSim {
            aligner: WarpAligner::new(),
            traces: vec![ThreadTrace::default(); WARP_SIZE],
        }
    }
}

impl Default for BlockSim {
    fn default() -> Self {
        Self::new()
    }
}

/// Run `num_lanes` lanes in warps of 32: `lane_body(lane, trace)` executes
/// one lane's kernel against a fresh trace; after each warp its 32 traces
/// are aligned (coalescing, bank conflicts, divergence) and folded into
/// `cost`.
pub fn run_block_lanes(
    spec: &DeviceSpec,
    sim: &mut BlockSim,
    num_lanes: u32,
    cost: &mut KernelCost,
    mut lane_body: impl FnMut(usize, &mut ThreadTrace),
) {
    let BlockSim { aligner, traces } = sim;
    for warp0 in (0..num_lanes).step_by(WARP_SIZE) {
        let lanes_in_warp = WARP_SIZE.min((num_lanes - warp0) as usize);
        for (li, trace) in traces.iter_mut().enumerate().take(lanes_in_warp) {
            trace.clear();
            lane_body(warp0 as usize + li, trace);
        }
        cost.add_warp(aligner.align(spec, &traces[..lanes_in_warp]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{AccessClass, AccessKind};

    #[test]
    fn visits_every_lane_once_in_order() {
        let spec = DeviceSpec::test_tiny();
        let mut sim = BlockSim::new();
        let mut cost = KernelCost::new();
        let mut seen = Vec::new();
        run_block_lanes(&spec, &mut sim, 70, &mut cost, |lane, trace| {
            seen.push(lane);
            trace.alu(1);
        });
        assert_eq!(seen, (0..70).collect::<Vec<_>>());
        assert_eq!(cost.useful_instructions, 70);
        // 3 warps: 32 + 32 + 6 lanes; issue slots = 3 warps x 32 slots.
        assert_eq!(cost.issue_slots, 3 * 32);
    }

    #[test]
    fn warp_alignment_is_applied_per_warp() {
        let spec = DeviceSpec::test_tiny();
        let mut sim = BlockSim::new();
        let mut cost = KernelCost::new();
        // 64 lanes each read 4 coalesced bytes: 4 segments per warp.
        run_block_lanes(&spec, &mut sim, 64, &mut cost, |lane, trace| {
            let base = if lane < 32 { 0u64 } else { 1 << 20 };
            trace.record(
                base + (lane % 32) as u64 * 4,
                4,
                AccessKind::Read,
                AccessClass::Dev,
            );
        });
        assert_eq!(cost.mem_transactions, 8);
    }

    #[test]
    fn traces_are_fresh_per_lane() {
        let spec = DeviceSpec::test_tiny();
        let mut sim = BlockSim::new();
        let mut cost = KernelCost::new();
        run_block_lanes(&spec, &mut sim, 40, &mut cost, |_, trace| {
            assert_eq!(trace.instructions, 0, "trace must arrive cleared");
            assert_eq!(trace.access_count(), 0);
            trace.alu(5);
        });
    }
}
