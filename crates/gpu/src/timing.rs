//! Kernel-stage timing: aggregate warp costs into a roofline duration.
//!
//! A GPU stage (address generation or computation) is characterized by the
//! totals accumulated in [`KernelCost`]; its duration on a [`GpuPool`] (the
//! whole device, or the half of it that BigKernel dedicates to each thread
//! role) is the maximum of:
//!
//! * the **issue bound**: warp issue slots / aggregate issue rate;
//! * the **memory bound**: transacted bytes / achievable DRAM bandwidth —
//!   this is where coalescing quality changes everything;
//! * the **atomic bound**: throughput of the atomic units plus the serial
//!   chain on the hottest address (the centralized hash-table effect that
//!   dominates Word Count);
//! * plus fixed overheads: barrier executions and a per-launch constant.
//!
//! Occupancy scales the achievable issue rate: with too few resident warps
//! an SM cannot hide latency, so a low occupancy fraction derates compute
//! throughput (it does not derate DRAM bandwidth, which saturates with few
//! warps on streaming patterns).

use crate::spec::DeviceSpec;
use crate::trace::WarpCost;
use bk_simcore::{RooflineTerms, SimTime};

/// L2 bandwidth relative to DRAM bandwidth. Kepler GK104's L2 sustains
/// roughly 2-3x its DRAM bandwidth on sector-hit streams, and its 512 KiB
/// capacity sits right at the concurrent working set of a full complement
/// of per-thread streaming warps — so treating every one-step reuse as an
/// L2 hit at 2x DRAM speed is the balanced middle of those two effects.
pub const L2_BANDWIDTH_FACTOR: f64 = 2.0;

/// Accumulated cost of one kernel stage execution over a chunk.
#[derive(Clone, Debug, Default)]
pub struct KernelCost {
    /// Warp issue slots consumed (lock-step; includes divergence waste).
    pub issue_slots: u64,
    /// Sum of per-lane instruction counts (useful work).
    pub useful_instructions: u64,
    /// Global-memory transactions after coalescing.
    pub mem_transactions: u64,
    /// Bytes moved over DRAM (segment-granular).
    pub mem_bytes_moved: u64,
    /// Bytes served from the L2 reuse window instead of DRAM.
    pub mem_bytes_l2: u64,
    /// Bytes the lanes actually asked for.
    pub mem_bytes_useful: u64,
    /// Global atomic operations issued.
    pub atomic_ops: u64,
    /// Shared-memory accesses issued.
    pub shared_accesses: u64,
    /// Block-wide barriers executed.
    pub barriers: u64,
    /// Address of every atomic issued, appended raw — the stage hot path
    /// pays one `extend` per warp; contention (the serial chain on the
    /// hottest cell) is derived by sorting once in
    /// [`Self::hot_atomic_max`].
    atomic_addrs: Vec<u64>,
}

impl KernelCost {
    /// An empty cost (identical to `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one warp's cost into the stage totals.
    pub fn add_warp(&mut self, w: &WarpCost) {
        self.issue_slots += w.issue_slots;
        self.useful_instructions += w.useful_instructions;
        self.mem_transactions += w.mem.transactions;
        self.mem_bytes_moved += w.mem.bytes_moved;
        self.mem_bytes_l2 += w.mem.bytes_l2;
        self.mem_bytes_useful += w.mem.bytes_useful;
        self.shared_accesses += w.shared_accesses;
        self.atomic_ops += w.atomic_addrs.len() as u64;
        self.atomic_addrs.extend_from_slice(&w.atomic_addrs);
    }

    /// Account `n` block-wide barriers.
    pub fn add_barrier(&mut self, n: u64) {
        self.barriers += n;
    }

    /// Merge another stage cost (e.g. across thread blocks).
    pub fn merge(&mut self, other: &KernelCost) {
        self.issue_slots += other.issue_slots;
        self.useful_instructions += other.useful_instructions;
        self.mem_transactions += other.mem_transactions;
        self.mem_bytes_moved += other.mem_bytes_moved;
        self.mem_bytes_l2 += other.mem_bytes_l2;
        self.mem_bytes_useful += other.mem_bytes_useful;
        self.atomic_ops += other.atomic_ops;
        self.shared_accesses += other.shared_accesses;
        self.barriers += other.barriers;
        self.atomic_addrs.extend_from_slice(&other.atomic_addrs);
    }

    /// Largest number of atomics aimed at a single address.
    pub fn hot_atomic_max(&self) -> u64 {
        if self.atomic_addrs.is_empty() {
            return 0;
        }
        let mut addrs = self.atomic_addrs.clone();
        addrs.sort_unstable();
        let mut best = 1u64;
        let mut run = 1u64;
        for w in addrs.windows(2) {
            run = if w[1] == w[0] { run + 1 } else { 1 };
            best = best.max(run);
        }
        best
    }

    /// Moved/useful byte ratio (1.0 = perfectly coalesced).
    pub fn coalescing_inflation(&self) -> f64 {
        if self.mem_bytes_useful == 0 {
            0.0
        } else {
            self.mem_bytes_moved as f64 / self.mem_bytes_useful as f64
        }
    }

    /// Whether the stage did no accountable work at all.
    pub fn is_empty(&self) -> bool {
        self.issue_slots == 0 && self.mem_transactions == 0 && self.atomic_ops == 0
    }
}

/// A share of the device's execution resources.
///
/// BigKernel launches twice the threads and dedicates alternate warps to
/// address generation vs computation (§III), so each role gets roughly half
/// the issue throughput; `fraction` expresses that split. DRAM bandwidth is
/// not split: a single role easily saturates it and the pipeline overlaps
/// the two roles' phases.
#[derive(Clone, Debug)]
pub struct GpuPool {
    spec: DeviceSpec,
    fraction: f64,
    /// Issue-rate derating from occupancy (latency hiding), in `(0, 1]`.
    occupancy_factor: f64,
}

impl GpuPool {
    /// A pool giving `fraction` of the device's issue throughput, derated
    /// by `occupancy_factor` (both in `(0, 1]`).
    pub fn new(spec: DeviceSpec, fraction: f64, occupancy_factor: f64) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0, "invalid pool fraction");
        assert!(
            occupancy_factor > 0.0 && occupancy_factor <= 1.0,
            "invalid occupancy factor"
        );
        GpuPool {
            spec,
            fraction,
            occupancy_factor,
        }
    }

    /// The whole device at full occupancy.
    pub fn whole(spec: DeviceSpec) -> Self {
        Self::new(spec, 1.0, 1.0)
    }

    /// The underlying device description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Roofline duration of a stage with this cost.
    pub fn stage_terms(&self, cost: &KernelCost) -> RooflineTerms {
        let s = &self.spec;
        let mut t = RooflineTerms::new();

        let issue_rate = s.issue_rate() * self.fraction * self.occupancy_factor;
        t.bound(
            "gpu-issue",
            SimTime::from_secs(cost.issue_slots as f64 / issue_rate),
        );

        t.bound(
            "gpu-mem",
            s.mem_bandwidth.transfer_time(cost.mem_bytes_moved),
        );

        if cost.mem_bytes_l2 > 0 {
            // L2 sector hits: ~4x DRAM bandwidth on Kepler-class parts.
            t.bound(
                "gpu-l2",
                s.mem_bandwidth
                    .scale(L2_BANDWIDTH_FACTOR)
                    .transfer_time(cost.mem_bytes_l2),
            );
        }

        if cost.atomic_ops > 0 {
            // Atomic units: one per SM, `atomic_cycles` per op throughput.
            let atomic_rate = s.num_sms as f64 * s.clock.as_hz() / s.atomic_cycles;
            t.bound(
                "gpu-atomic-throughput",
                SimTime::from_secs(cost.atomic_ops as f64 / atomic_rate),
            );
            // Hot-address serial chain: conflicting RMWs to one cell cannot
            // be parallelized across SMs at all.
            let hot = cost.hot_atomic_max();
            t.bound(
                "gpu-atomic-conflict",
                s.clock.cycles(hot as f64 * s.atomic_conflict_cycles),
            );
        }

        t.fixed(s.clock.cycles(cost.barriers as f64 * s.barrier_cycles));
        t
    }

    /// [`Self::stage_terms`] collapsed to the roofline duration.
    pub fn stage_time(&self, cost: &KernelCost) -> SimTime {
        self.stage_terms(cost).duration()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{StepCost, WarpCost};

    fn warp(issue: u64, txns: u64, atomics: Vec<u64>) -> WarpCost {
        WarpCost {
            mem: StepCost {
                transactions: txns,
                bytes_moved: txns * 32,
                bytes_l2: 0,
                bytes_useful: txns * 32,
            },
            issue_slots: issue,
            useful_instructions: issue,
            atomic_addrs: atomics,
            shared_accesses: 0,
            bank_replay_slots: 0,
        }
    }

    #[test]
    fn accumulation_and_merge() {
        let mut a = KernelCost::new();
        a.add_warp(&warp(100, 10, vec![4096, 4096]));
        let mut b = KernelCost::new();
        b.add_warp(&warp(50, 5, vec![4096, 8192]));
        a.merge(&b);
        assert_eq!(a.issue_slots, 150);
        assert_eq!(a.mem_transactions, 15);
        assert_eq!(a.atomic_ops, 4);
        assert_eq!(a.hot_atomic_max(), 3); // 4096 hit three times
    }

    #[test]
    fn memory_bound_dominates_when_uncoalesced() {
        let spec = DeviceSpec::gtx680();
        let pool = GpuPool::whole(spec);
        let mut c = KernelCost::new();
        // Huge memory traffic, little compute.
        c.mem_bytes_moved = 100 * (1u64 << 30);
        c.issue_slots = 1_000;
        let terms = pool.stage_terms(&c);
        assert_eq!(terms.dominant().unwrap().label, "gpu-mem");
    }

    #[test]
    fn issue_bound_dominates_for_compute_heavy() {
        let pool = GpuPool::whole(DeviceSpec::gtx680());
        let mut c = KernelCost::new();
        c.issue_slots = 10u64.pow(13);
        c.mem_bytes_moved = 1024;
        assert_eq!(pool.stage_terms(&c).dominant().unwrap().label, "gpu-issue");
    }

    #[test]
    fn hot_atomics_serialize() {
        let pool = GpuPool::whole(DeviceSpec::gtx680());
        let mut spread = KernelCost::new();
        let mut hot = KernelCost::new();
        for i in 0..10_000u64 {
            spread.add_warp(&warp(1, 0, vec![i * 64]));
            hot.add_warp(&warp(1, 0, vec![4096]));
        }
        assert!(pool.stage_time(&hot) > pool.stage_time(&spread) * 5.0);
    }

    #[test]
    fn half_pool_is_slower_for_compute() {
        let spec = DeviceSpec::gtx680();
        let whole = GpuPool::whole(spec.clone());
        let half = GpuPool::new(spec, 0.5, 1.0);
        let mut c = KernelCost::new();
        c.issue_slots = 1u64 << 32;
        let t_whole = whole.stage_time(&c);
        let t_half = half.stage_time(&c);
        assert!((t_half.secs() / t_whole.secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn occupancy_derates_issue_not_memory() {
        let spec = DeviceSpec::gtx680();
        let full = GpuPool::new(spec.clone(), 1.0, 1.0);
        let low = GpuPool::new(spec, 1.0, 0.25);
        let mut mem_heavy = KernelCost::new();
        mem_heavy.mem_bytes_moved = 10 * (1u64 << 30);
        assert_eq!(full.stage_time(&mem_heavy), low.stage_time(&mem_heavy));
        let mut cpu_heavy = KernelCost::new();
        cpu_heavy.issue_slots = 1u64 << 40;
        assert!(low.stage_time(&cpu_heavy) > full.stage_time(&cpu_heavy) * 3.9);
    }

    #[test]
    fn barriers_add_fixed_cost() {
        let pool = GpuPool::whole(DeviceSpec::gtx680());
        let mut a = KernelCost::new();
        a.issue_slots = 1000;
        let base = pool.stage_time(&a);
        a.add_barrier(1000);
        assert!(pool.stage_time(&a) > base);
    }

    #[test]
    fn coalescing_inflation_reported() {
        let mut c = KernelCost::new();
        c.mem_bytes_moved = 800;
        c.mem_bytes_useful = 100;
        assert_eq!(c.coalescing_inflation(), 8.0);
        assert_eq!(KernelCost::new().coalescing_inflation(), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid pool fraction")]
    fn zero_fraction_rejected() {
        let _ = GpuPool::new(DeviceSpec::test_tiny(), 0.0, 1.0);
    }

    #[test]
    fn empty_cost_is_empty_and_free() {
        let c = KernelCost::new();
        assert!(c.is_empty());
        let pool = GpuPool::whole(DeviceSpec::test_tiny());
        assert_eq!(pool.stage_time(&c), SimTime::ZERO);
    }
}
