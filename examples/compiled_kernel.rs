//! Domain scenario: the compiler route. A K-means-style kernel is written
//! once in the `bk-kernelc` IR; the address-generation half is *derived* by
//! the slicing pass (paper §III's compiler transformation), and the whole
//! thing runs on the BigKernel pipeline with the FIFO cross-check verifying
//! the transformation at every access.
//!
//! Run with: `cargo run --release --example compiled_kernel`

use bk_kernelc::ir::{BinOp, Expr, KernelIr, Stmt, Var, RANGE_END, RANGE_START};
use bk_kernelc::IrKernel;
use bk_runtime::{run_bigkernel, BigKernelConfig, LaunchConfig, Machine, StreamArray, StreamId};

/// 32-byte records: one `f64` sample at offset 0 (read), a threshold class
/// id written back at offset 8, and 16 unread metadata bytes.
///
/// ```text
/// i = range.start
/// while i < range.end {
///     x   = f64(stream[0][i]);
///     cls = (x >= cut0) + (x >= cut1)        // 3-way threshold classify
///     stream[0][i + 8] = cls                 // write-back
///     count[cls] += 1                        // device histogram
///     i += 32
/// }
/// ```
fn classify_ir(cut0: f64, cut1: f64) -> KernelIr {
    let i = Var(2);
    let x = Var(3);
    let cls = Var(4);
    KernelIr {
        name: "ir-classify",
        record_size: Some(32),
        halo_bytes: 0,
        num_dev_bufs: 1,
        body: vec![
            Stmt::Assign(i, Expr::var(RANGE_START)),
            Stmt::While {
                cond: Expr::lt(Expr::var(i), Expr::var(RANGE_END)),
                body: vec![
                    Stmt::Assign(
                        x,
                        Expr::BitsToFloat(Box::new(Expr::stream_read(0, Expr::var(i), 8))),
                    ),
                    Stmt::Assign(
                        cls,
                        Expr::add(
                            Expr::bin(BinOp::Le, Expr::ConstFloat(cut0), Expr::var(x)),
                            Expr::bin(BinOp::Le, Expr::ConstFloat(cut1), Expr::var(x)),
                        ),
                    ),
                    Stmt::StreamWrite {
                        stream: 0,
                        offset: Expr::add(Expr::var(i), Expr::int(8)),
                        width: 8,
                        value: Expr::var(cls),
                    },
                    Stmt::DevAtomicAdd {
                        buf: 0,
                        offset: Expr::bin(BinOp::Mul, Expr::var(cls), Expr::int(8)),
                        value: Expr::int(1),
                    },
                    Stmt::Assign(i, Expr::add(Expr::var(i), Expr::int(32))),
                ],
            },
        ],
    }
}

fn main() {
    let n = 262_144u64; // 8 MiB of records
    let (cut0, cut1) = (300.0, 700.0);

    let mut machine = Machine::paper_platform();
    let region = machine.hmem.alloc(n * 32);
    let mut rng = bk_simcore::SplitMix64::new(99);
    let mut expected = [0u64; 3];
    for r in 0..n {
        let x = rng.next_f64() * 1000.0;
        machine.hmem.write_f64(region, r * 32, x);
        let cls = (x >= cut0) as usize + (x >= cut1) as usize;
        expected[cls] += 1;
    }
    let stream = StreamArray::map(&machine, StreamId(0), region);
    let counts = machine.gmem.alloc(3 * 8);

    // The "compiler": derive the address slice mechanically.
    let kernel = IrKernel::compile(classify_ir(cut0, cut1), vec![counts])
        .expect("classify kernel has no indirections — sliceable");
    println!(
        "address slice derived: {} statements (from {} in the full kernel)",
        kernel.address_slice().body.len(),
        classify_ir(cut0, cut1).body.len()
    );
    println!(
        "\n--- full kernel ---\n{}",
        bk_kernelc::kernel_to_string(&classify_ir(cut0, cut1))
    );
    println!(
        "--- derived address slice ---\n{}",
        bk_kernelc::kernel_to_string(kernel.address_slice())
    );

    let cfg = BigKernelConfig::default();
    let result = run_bigkernel(
        &mut machine,
        &kernel,
        &[stream],
        LaunchConfig::new(16, 128),
        &cfg,
    );

    let mut got = [0u64; 3];
    for (c, slot) in got.iter_mut().enumerate() {
        *slot = machine.gmem.read_u64(counts, c as u64 * 8);
    }
    assert_eq!(got, expected, "device histogram mismatch");
    // Spot-check the write-back.
    for r in [0u64, n / 2, n - 1] {
        let x = machine.hmem.read_f64(region, r * 32);
        let cls = (x >= cut0) as u64 + (x >= cut1) as u64;
        assert_eq!(machine.hmem.read_u64(region, r * 32 + 8), cls);
    }

    println!(
        "class counts: low={} mid={} high={}",
        got[0], got[1], got[2]
    );
    println!(
        "simulated time: {} over {} chunks",
        result.total, result.chunks
    );
    println!(
        "patterns found: {} (the sliced loop is perfectly periodic)",
        result.metrics.get("addr.patterns_found")
    );
    println!("\nevery compute-stage access was verified against the compiler-derived");
    println!("address stream — the transformation is machine-checked end to end.");
}
