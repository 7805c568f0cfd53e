//! End-to-end compiler validation: the paper's running example (K-means)
//! written in the `bk-kernelc` IR, compiled (address slice derived
//! mechanically), executed on the full BigKernel pipeline with the FIFO
//! cross-check on, and compared bit-for-bit against the hand-written
//! `bk-apps` K-means reference.

use bigkernel::kernelc::ir::{BinOp, Expr, KernelIr, Stmt, Var, RANGE_END, RANGE_START};
use bigkernel::kernelc::{count_stmts, IrKernel};
use bigkernel::runtime::{
    run_bigkernel, BigKernelConfig, LaunchConfig, Machine, StreamArray, StreamId,
};
use bk_apps::kmeans::{closest_cluster, RECORD};
use bk_simcore::SplitMix64;

/// The K-means assignment kernel in IR form (paper §III's running example):
/// for each 64-byte particle record, read the four coordinate doubles, find
/// the nearest of `k` centroids held in device buffer 0, and write the
/// cluster id back into the record.
fn kmeans_ir(k: u64) -> KernelIr {
    let i = Var(2);
    let c = Var(3);
    let best = Var(4);
    let best_d = Var(5);
    let d = Var(6);
    let (x, y, z, w) = (Var(7), Var(8), Var(9), Var(10));
    let t = Var(11);

    let read_f64 =
        |off: Expr| -> Expr { Expr::BitsToFloat(Box::new(Expr::stream_read(0, off, 8))) };
    let dev_f64 = |off: Expr| -> Expr {
        Expr::BitsToFloat(Box::new(Expr::DevRead {
            buf: 0,
            offset: Box::new(off),
            width: 8,
        }))
    };
    let coord_off = |base: Var, f: u64| Expr::add(Expr::var(base), Expr::int(f * 8));
    let centre_off = |f: u64| {
        Expr::add(
            Expr::bin(BinOp::Mul, Expr::var(c), Expr::int(32)),
            Expr::int(f * 8),
        )
    };
    // d += (p - centre)^2 for one dimension, accumulated via `t`.
    let dim_term = |p: Var, f: u64| -> Vec<Stmt> {
        vec![
            Stmt::Assign(
                t,
                Expr::bin(BinOp::Sub, Expr::var(p), dev_f64(centre_off(f))),
            ),
            Stmt::Assign(
                d,
                Expr::add(
                    Expr::var(d),
                    Expr::bin(BinOp::Mul, Expr::var(t), Expr::var(t)),
                ),
            ),
        ]
    };

    let mut cluster_body = vec![Stmt::Assign(d, Expr::ConstFloat(0.0))];
    for (f, p) in [x, y, z, w].into_iter().enumerate() {
        cluster_body.extend(dim_term(p, f as u64));
    }
    cluster_body.push(Stmt::If {
        cond: Expr::lt(Expr::var(d), Expr::var(best_d)),
        then_body: vec![
            Stmt::Assign(best_d, Expr::var(d)),
            Stmt::Assign(best, Expr::var(c)),
        ],
        else_body: vec![],
    });
    cluster_body.push(Stmt::Assign(c, Expr::add(Expr::var(c), Expr::int(1))));

    KernelIr {
        name: "kmeans-ir",
        record_size: Some(RECORD),
        halo_bytes: 0,
        num_dev_bufs: 1,
        body: vec![
            Stmt::Assign(i, Expr::var(RANGE_START)),
            Stmt::While {
                cond: Expr::lt(Expr::var(i), Expr::var(RANGE_END)),
                body: vec![
                    Stmt::Assign(x, read_f64(coord_off(i, 0))),
                    Stmt::Assign(y, read_f64(coord_off(i, 1))),
                    Stmt::Assign(z, read_f64(coord_off(i, 2))),
                    Stmt::Assign(w, read_f64(coord_off(i, 3))),
                    Stmt::Assign(best, Expr::int(0)),
                    Stmt::Assign(best_d, Expr::ConstFloat(f64::INFINITY)),
                    Stmt::Assign(c, Expr::int(0)),
                    Stmt::While {
                        cond: Expr::lt(Expr::var(c), Expr::int(k)),
                        body: cluster_body,
                    },
                    Stmt::StreamWrite {
                        stream: 0,
                        offset: Expr::add(Expr::var(i), Expr::int(32)),
                        width: 8,
                        value: Expr::var(best),
                    },
                    Stmt::Assign(i, Expr::add(Expr::var(i), Expr::int(RECORD))),
                ],
            },
        ],
    }
}

struct Setup {
    machine: Machine,
    stream: StreamArray,
    clusters: Vec<[f64; 4]>,
    n: u64,
}

fn setup(n: u64, k: u64, seed: u64) -> Setup {
    let mut machine = Machine::test_platform();
    let mut rng = SplitMix64::new(seed);
    let clusters: Vec<[f64; 4]> = (0..k)
        .map(|_| {
            let mut c = [0.0; 4];
            for v in c.iter_mut() {
                *v = rng.next_f64() * 1000.0;
            }
            c
        })
        .collect();
    let region = machine.hmem.alloc(n * RECORD);
    for r in 0..n {
        for f in 0..4u64 {
            let v = rng.next_f64() * 1000.0;
            machine.hmem.write_f64(region, r * RECORD + f * 8, v);
        }
        machine.hmem.write_u64(region, r * RECORD + 32, u64::MAX);
    }
    let stream = StreamArray::map(&machine, StreamId(0), region);
    Setup {
        machine,
        stream,
        clusters,
        n,
    }
}

fn upload_clusters(machine: &mut Machine, clusters: &[[f64; 4]]) -> bigkernel::runtime::DevBufId {
    let buf = machine.gmem.alloc(clusters.len() as u64 * 32);
    for (i, c) in clusters.iter().enumerate() {
        for (f, &v) in c.iter().enumerate() {
            machine.gmem.write_f64(buf, i as u64 * 32 + f as u64 * 8, v);
        }
    }
    buf
}

#[test]
fn compiled_kmeans_matches_the_handwritten_reference() {
    let (n, k) = (2048u64, 8u64);
    let mut s = setup(n, k, 77);
    let dev = upload_clusters(&mut s.machine, &s.clusters);
    let kernel = IrKernel::compile(kmeans_ir(k), vec![dev]).expect("kmeans is sliceable");

    // The derived slice must be much smaller than the kernel (only control
    // flow + address arithmetic survive), echoing the paper's observation
    // that the *generated* kernel grows while the addr-gen half stays thin.
    let full_size = count_stmts(&kmeans_ir(k).body);
    let slice_size = count_stmts(&kernel.address_slice().body);
    assert!(
        slice_size * 2 < full_size,
        "slice {slice_size} vs full {full_size} statements"
    );

    let cfg = BigKernelConfig {
        chunk_input_bytes: 32 * 1024,
        ..BigKernelConfig::default()
    };
    let result = run_bigkernel(
        &mut s.machine,
        &kernel,
        &[s.stream],
        LaunchConfig::new(2, 32),
        &cfg,
    );

    // Every record's cid must equal the hand-written app's shared reference.
    for r in 0..s.n {
        let mut p = [0.0f64; 4];
        for (f, v) in p.iter_mut().enumerate() {
            *v = s
                .machine
                .hmem
                .read_f64(s.stream.region, r * RECORD + f as u64 * 8);
        }
        let want = closest_cluster(&p, &s.clusters);
        let got = s.machine.hmem.read_u64(s.stream.region, r * RECORD + 32);
        assert_eq!(got, want, "record {r}");
    }
    // The xyzw/record walk plus the cid write must both pattern-compress.
    assert!(result.metrics.get("addr.patterns_found") > 0);
    assert_eq!(result.metrics.get("addr.patterns_missed"), 0);
}

#[test]
fn compiled_kmeans_runs_on_baselines_too() {
    use bigkernel::baselines::{run_gpu_double_buffer, BaselineConfig};
    let (n, k) = (1024u64, 4u64);
    let mut s = setup(n, k, 13);
    let dev = upload_clusters(&mut s.machine, &s.clusters);
    let kernel = IrKernel::compile(kmeans_ir(k), vec![dev]).unwrap();
    let cfg = BaselineConfig {
        window_bytes: 16 * 1024,
        ..BaselineConfig::default()
    };
    run_gpu_double_buffer(
        &mut s.machine,
        &kernel,
        &[s.stream],
        LaunchConfig::new(1, 32),
        &cfg,
    );
    for r in 0..s.n {
        let mut p = [0.0f64; 4];
        for (f, v) in p.iter_mut().enumerate() {
            *v = s
                .machine
                .hmem
                .read_f64(s.stream.region, r * RECORD + f as u64 * 8);
        }
        assert_eq!(
            s.machine.hmem.read_u64(s.stream.region, r * RECORD + 32),
            closest_cluster(&p, &s.clusters),
        );
    }
}
