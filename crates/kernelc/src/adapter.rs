//! Package an IR kernel (plus its compiler-derived address slice) as a
//! [`StreamKernel`] runnable by every implementation in the workspace.

use crate::interp::{run_addr_slice, run_kernel};
use crate::ir::KernelIr;
use crate::slice::SliceError;
use bk_runtime::ctx::AddrGenCtx;
use bk_runtime::{DevBufId, KernelCtx, StreamKernel};
use std::ops::Range;

/// An IR kernel compiled for BigKernel execution: the `addresses()` half is
/// *derived* by [`slice_addresses`](crate::slice::slice_addresses), not hand-written — running it on
/// the BigKernel pipeline machine-checks the transformation, because the
/// compute stage verifies every stream access against the address stream.
pub struct IrKernel {
    full: KernelIr,
    slice: KernelIr,
    dev_bufs: Vec<DevBufId>,
    pass_log: crate::pass::PassLog,
}

impl IrKernel {
    /// Compile `full` (derive the address slice via the chained-pass
    /// pipeline, see [`crate::pass`]) and bind its device-buffer parameters.
    pub fn compile(full: KernelIr, dev_bufs: Vec<DevBufId>) -> Result<Self, SliceError> {
        assert!(
            dev_bufs.len() >= full.num_dev_bufs as usize,
            "kernel expects {} device buffers, got {}",
            full.num_dev_bufs,
            dev_bufs.len()
        );
        let (slice, pass_log) =
            crate::pass::run_passes(&full, crate::pass::ADDRESS_SLICE_PIPELINE)?;
        Ok(IrKernel {
            full,
            slice,
            dev_bufs,
            pass_log,
        })
    }

    /// The derived address slice (for inspection/tests).
    pub fn address_slice(&self) -> &KernelIr {
        &self.slice
    }

    /// The names of the compile passes that produced the address slice.
    pub fn pass_log(&self) -> &crate::pass::PassLog {
        &self.pass_log
    }
}

impl StreamKernel for IrKernel {
    fn name(&self) -> &'static str {
        self.full.name
    }

    fn record_size(&self) -> Option<u64> {
        self.full.record_size
    }

    fn halo_bytes(&self) -> u64 {
        self.full.halo_bytes
    }

    fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
        run_addr_slice(&self.slice, ctx, &self.dev_bufs, range);
    }

    fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
        run_kernel(&self.full, ctx, &self.dev_bufs, range);
    }

    fn access_summary(&self) -> Option<bk_runtime::fusion::AccessSummary> {
        crate::fuse::derive_summary(&self.full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, Expr, Stmt, Var, RANGE_END, RANGE_START};
    use bk_runtime::{
        run_bigkernel, BigKernelConfig, LaunchConfig, Machine, StreamArray, StreamId,
    };

    /// `while i < end { acc += read8(i); write4(i+8) = lo32(read8(i+...)); }`
    /// — a sum kernel with 16-byte records.
    fn sum_ir() -> KernelIr {
        let i = Var(2);
        let sum = Var(3);
        KernelIr {
            name: "ir-sum",
            record_size: Some(16),
            halo_bytes: 0,
            num_dev_bufs: 1,
            body: vec![
                Stmt::Assign(i, Expr::var(RANGE_START)),
                Stmt::Assign(sum, Expr::int(0)),
                Stmt::While {
                    cond: Expr::lt(Expr::var(i), Expr::var(RANGE_END)),
                    body: vec![
                        Stmt::Assign(
                            sum,
                            Expr::add(Expr::var(sum), Expr::stream_read(0, Expr::var(i), 8)),
                        ),
                        Stmt::Assign(i, Expr::add(Expr::var(i), Expr::int(16))),
                    ],
                },
                Stmt::If {
                    cond: Expr::bin(BinOp::Ne, Expr::var(RANGE_START), Expr::var(RANGE_END)),
                    then_body: vec![Stmt::DevAtomicAdd {
                        buf: 0,
                        offset: Expr::int(0),
                        value: Expr::var(sum),
                    }],
                    else_body: vec![],
                },
            ],
        }
    }

    #[test]
    fn compiled_ir_kernel_runs_on_the_pipeline() {
        let mut m = Machine::test_platform();
        let n = 2048u64;
        let region = m.hmem.alloc(n * 16);
        let mut expected = 0u64;
        for r in 0..n {
            m.hmem.write_u64(region, r * 16, r * 11 + 3);
            expected = expected.wrapping_add(r * 11 + 3);
        }
        let stream = StreamArray::map(&m, StreamId(0), region);
        let acc = m.gmem.alloc(8);
        let kernel = IrKernel::compile(sum_ir(), vec![acc]).expect("sliceable");

        let cfg = BigKernelConfig {
            chunk_input_bytes: 4096,
            ..BigKernelConfig::default()
        };
        let r = run_bigkernel(&mut m, &kernel, &[stream], LaunchConfig::new(1, 32), &cfg);
        assert_eq!(m.gmem.read_u64(acc, 0), expected, "IR kernel result");
        assert!(
            r.metrics.get("addr.patterns_found") > 0,
            "sequential reads compress"
        );
    }

    #[test]
    fn slice_matches_kernel_accesses_exactly() {
        // The pipeline test above already proves it via the compute stage's
        // FIFO cross-check; here check the emitted addresses directly.
        let mut m = Machine::test_platform();
        let acc = m.gmem.alloc(8);
        let kernel = IrKernel::compile(sum_ir(), vec![acc]).unwrap();
        let mut trace = bk_gpu::ThreadTrace::default();
        let mut rec = bk_runtime::ctx::AddrRecorder::new();
        let mut actx = bk_runtime::ctx::AddrGenCtx::recording(&m.gmem, &mut trace, &mut rec);
        kernel.addresses(&mut actx, 0..64);
        let (reads, writes) = rec.take();
        assert_eq!(reads.len(), 4); // 4 records of 16 bytes
        assert_eq!(reads[2].offset, 32);
        assert!(writes.is_empty());
    }

    #[test]
    fn indirect_ir_kernel_fails_to_compile() {
        let k = KernelIr {
            name: "bad",
            record_size: Some(8),
            halo_bytes: 0,
            num_dev_bufs: 0,
            body: vec![
                Stmt::Assign(Var(2), Expr::stream_read(0, Expr::var(RANGE_START), 8)),
                Stmt::Assign(Var(3), Expr::stream_read(0, Expr::var(Var(2)), 8)),
            ],
        };
        assert!(IrKernel::compile(k, vec![]).is_err());
    }

    #[test]
    fn address_slice_is_exposed() {
        let mut m = Machine::test_platform();
        let acc = m.gmem.alloc(8);
        let kernel = IrKernel::compile(sum_ir(), vec![acc]).unwrap();
        // The slice must be free of compute statements.
        assert!(kernel
            .address_slice()
            .body
            .iter()
            .all(|s| !matches!(s, Stmt::DevAtomicAdd { .. } | Stmt::Alu(_))));
    }
}
