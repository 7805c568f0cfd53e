//! K-means (paper §V): assign each particle to its nearest cluster.
//!
//! Mapped data: an array of 64-byte particle records; the kernel reads the
//! four coordinate doubles (32 B = 50% of the record, matching Table I) and
//! writes the 8-byte cluster id (12.5% ≈ the paper's 12%). The cluster
//! centroid array is ordinary device-resident data copied up front, exactly
//! like the paper's running example. This is the only benchmark that
//! modifies mapped data, so it exercises the write-back pipeline stages.
//!
//! The app runs as a fusable assign → count pass pair (one K-means
//! iteration): the count pass reads back only each record's just-written
//! cluster id and accumulates per-cluster populations on the device. The
//! dependence is exact and record-local — assign writes `(32, 8)` of every
//! record, count reads exactly those bytes — so mega-kernel fusion keeps
//! the cluster ids device-resident and elides the count pass's gather.

use crate::harness::{AppSpec, BenchApp, Instance};
use bk_runtime::ctx::AddrGenCtx;
use bk_runtime::fusion::{AccessSummary, FieldSpan, StreamAccess};
use bk_runtime::{DevBufId, KernelCtx, Machine, StreamArray, StreamId, ValueExt};
use bk_simcore::SplitMix64;
use std::ops::Range;

/// Bytes per particle record.
pub const RECORD: u64 = 64;
/// Offset of the written cluster-id field.
const CID_OFF: u64 = 32;

/// Number of coordinate dimensions (x, y, z, w).
const DIMS: usize = 4;

/// Most centroids a K-means kernel stages: the staged table lives on the
/// kernel's stack, so staging allocates nothing per invocation.
pub const MAX_K: usize = 64;

/// Stage the `k` centroid rows of `buf` with one device-buffer run read of
/// `k * DIMS` doubles, as a real kernel stages the table into shared memory
/// at block start, and run `f` over them. The table is a stack buffer sized
/// for `k` rounded up to 8, 32 or [`MAX_K`] rows, so a small table is not
/// paid for at the size of the largest.
pub fn with_centroids<R>(
    ctx: &mut dyn KernelCtx,
    buf: DevBufId,
    k: u32,
    f: impl FnOnce(&mut dyn KernelCtx, &[[f64; DIMS]]) -> R,
) -> R {
    match k {
        0..=8 => stage::<8, R>(ctx, buf, k as usize, f),
        9..=32 => stage::<32, R>(ctx, buf, k as usize, f),
        _ => stage::<MAX_K, R>(ctx, buf, k as usize, f),
    }
}

fn stage<const N: usize, R>(
    ctx: &mut dyn KernelCtx,
    buf: DevBufId,
    k: usize,
    f: impl FnOnce(&mut dyn KernelCtx, &[[f64; DIMS]]) -> R,
) -> R {
    assert!(k <= N, "K-means stages at most {MAX_K} centroids, got {k}");
    let mut raw = [[0u8; DIMS * 8]; N];
    ctx.dev_read_run(buf, 0, 8, raw[..k].as_flattened_mut());
    let mut table = [[0.0; DIMS]; N];
    for (centre, row) in table.iter_mut().zip(&raw).take(k) {
        for (v, b) in centre.iter_mut().zip(row.chunks_exact(8)) {
            *v = f64::from_le_bytes(b.try_into().expect("8-byte field"));
        }
    }
    f(ctx, &table[..k])
}

/// Nearest-cluster search shared by the kernel and the reference
/// implementation so results are bit-identical.
pub fn closest_cluster(p: &[f64; DIMS], clusters: &[[f64; DIMS]]) -> u64 {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (c, centre) in clusters.iter().enumerate() {
        let mut d = 0.0;
        for i in 0..DIMS {
            let t = p[i] - centre[i];
            d += t * t;
        }
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best as u64
}

/// The K-means assignment kernel.
pub struct KMeansKernel {
    pub clusters_buf: DevBufId,
    pub k: u32,
}

impl bk_runtime::StreamKernel for KMeansKernel {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn record_size(&self) -> Option<u64> {
        Some(RECORD)
    }

    fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
        let mut off = range.start;
        while off < range.end {
            for f in 0..DIMS as u64 {
                ctx.emit_read(StreamId(0), off + f * 8, 8);
            }
            ctx.emit_write(StreamId(0), off + CID_OFF, 8);
            ctx.alu(2);
            off += RECORD;
        }
    }

    fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
        if range.is_empty() {
            return;
        }
        // Each thread stages the centroid array once per chunk invocation.
        with_centroids(ctx, self.clusters_buf, self.k, |ctx, clusters| {
            let mut off = range.start;
            while off < range.end {
                let mut p = [0.0; DIMS];
                for (i, v) in p.iter_mut().enumerate() {
                    *v = ctx.stream_read_f64(StreamId(0), off + i as u64 * 8);
                }
                // Distance arithmetic: ~2 FLOPs x DIMS per cluster;
                // centroids are staged in shared memory and read per
                // comparison. All lanes compare against the same centroid
                // in lock-step, so the reads broadcast (no bank conflicts)
                // — the realistic kernel shape.
                ctx.alu(2 * DIMS as u64 * self.k as u64);
                ctx.shared_at_strided(0, 32, self.k, 8);
                let cid = closest_cluster(&p, clusters);
                ctx.stream_write_u64(StreamId(0), off + CID_OFF, cid);
                off += RECORD;
            }
        })
    }

    fn access_summary(&self) -> Option<AccessSummary> {
        Some(AccessSummary {
            reads: vec![StreamAccess {
                stream: StreamId(0),
                unit: RECORD,
                stride: RECORD,
                fields: vec![FieldSpan {
                    offset: 0,
                    width: (DIMS * 8) as u64,
                }],
                exact: true,
            }],
            writes: vec![StreamAccess {
                stream: StreamId(0),
                unit: RECORD,
                stride: RECORD,
                fields: vec![FieldSpan {
                    offset: CID_OFF,
                    width: 8,
                }],
                exact: true,
            }],
        })
    }
}

/// The K-means population-count kernel (pass 2): read each record's
/// assigned cluster id and bump that cluster's population counter with a
/// device atomic add. Reads exactly the 8 bytes assign just wrote, so the
/// pair fuses with the ids device-resident.
pub struct KMeansCountKernel {
    /// `k` u64 population counters.
    pub counts_buf: DevBufId,
}

impl bk_runtime::StreamKernel for KMeansCountKernel {
    fn name(&self) -> &'static str {
        "kmeans-count"
    }

    fn record_size(&self) -> Option<u64> {
        Some(RECORD)
    }

    fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
        let mut off = range.start;
        while off < range.end {
            ctx.emit_read(StreamId(0), off + CID_OFF, 8);
            ctx.alu(1);
            off += RECORD;
        }
    }

    fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
        let mut off = range.start;
        while off < range.end {
            let cid = ctx.stream_read(StreamId(0), off + CID_OFF, 8);
            ctx.alu(2);
            ctx.dev_atomic_add_u64(self.counts_buf, cid * 8, 1);
            off += RECORD;
        }
    }

    fn access_summary(&self) -> Option<AccessSummary> {
        Some(AccessSummary {
            reads: vec![StreamAccess {
                stream: StreamId(0),
                unit: RECORD,
                stride: RECORD,
                fields: vec![FieldSpan {
                    offset: CID_OFF,
                    width: 8,
                }],
                exact: true,
            }],
            writes: vec![],
        })
    }
}

/// The K-means benchmark application.
pub struct KMeans {
    pub k: u32,
}

impl Default for KMeans {
    fn default() -> Self {
        KMeans { k: 32 }
    }
}

impl BenchApp for KMeans {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "K-means",
            paper_data_size: "6.0GB",
            record_type: "Fixed-length",
            paper_read_pct: 50,
            paper_modified_pct: 12,
            pattern_applicable: true,
        }
    }

    fn instantiate(&self, machine: &mut Machine, bytes: u64, seed: u64) -> Instance {
        let n = (bytes / RECORD).max(1);
        let mut rng = SplitMix64::new(seed);

        // Centroids.
        let clusters: Vec<[f64; DIMS]> = (0..self.k)
            .map(|_| {
                let mut c = [0.0; DIMS];
                for v in c.iter_mut() {
                    *v = rng.next_f64() * 1000.0;
                }
                c
            })
            .collect();
        let clusters_buf = machine.gmem.alloc(self.k as u64 * 32);
        for (i, c) in clusters.iter().enumerate() {
            for (d, &v) in c.iter().enumerate() {
                machine
                    .gmem
                    .write_f64(clusters_buf, i as u64 * 32 + d as u64 * 8, v);
            }
        }

        // Particles.
        let region = machine.hmem.alloc(n * RECORD);
        {
            let data = machine.hmem.bytes_mut(region);
            for r in 0..n {
                let base = (r * RECORD) as usize;
                for d in 0..DIMS {
                    let v = rng.next_f64() * 1000.0;
                    data[base + d * 8..base + d * 8 + 8].copy_from_slice(&v.to_le_bytes());
                }
                // cid starts invalid; trailing metadata random.
                data[base + CID_OFF as usize..base + CID_OFF as usize + 8]
                    .copy_from_slice(&u64::MAX.to_le_bytes());
                rng.fill_bytes(&mut data[base + 40..base + 64]);
            }
        }
        let stream = StreamArray::map(machine, StreamId(0), region);

        // Per-cluster population counters for the count pass.
        let counts_buf = machine.gmem.alloc(self.k as u64 * 8);

        let verify_clusters = clusters.clone();
        let k = self.k;
        let verify = move |m: &Machine| -> Result<(), String> {
            let mut want_counts = vec![0u64; k as usize];
            for r in 0..n {
                let base = r * RECORD;
                let mut p = [0.0; DIMS];
                for (i, v) in p.iter_mut().enumerate() {
                    *v = m.hmem.read_f64(region, base + i as u64 * 8);
                }
                let want = closest_cluster(&p, &verify_clusters);
                want_counts[want as usize] += 1;
                let got = m.hmem.read_u64(region, base + CID_OFF);
                if got != want {
                    return Err(format!("record {r}: cid {got} != expected {want}"));
                }
            }
            for (c, &want) in want_counts.iter().enumerate() {
                let got = m.gmem.read_u64(counts_buf, c as u64 * 8);
                if got != want {
                    return Err(format!("cluster {c}: population {got} != {want}"));
                }
            }
            Ok(())
        };

        Instance {
            kernels: vec![
                Box::new(KMeansKernel {
                    clusters_buf,
                    k: self.k,
                }),
                Box::new(KMeansCountKernel { counts_buf }),
            ],
            streams: vec![stream],
            scratch_streams: vec![],
            fused: None,
            verify: Box::new(verify),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_all, HarnessConfig, Implementation};
    use bk_baselines::BigKernelVariant;

    #[test]
    fn closest_cluster_basic() {
        let clusters = vec![[0.0, 0.0, 0.0, 0.0], [10.0, 0.0, 0.0, 0.0]];
        assert_eq!(closest_cluster(&[1.0, 0.0, 0.0, 0.0], &clusters), 0);
        assert_eq!(closest_cluster(&[9.0, 0.0, 0.0, 0.0], &clusters), 1);
        // Tie goes to the lower index (strict less-than).
        assert_eq!(closest_cluster(&[5.0, 0.0, 0.0, 0.0], &clusters), 0);
    }

    #[test]
    fn all_implementations_agree() {
        let app = KMeans { k: 4 };
        let cfg = HarnessConfig::test_small();
        let results = run_all(&app, 64 * 1024, 42, &cfg, &Implementation::FIG4A);
        assert_eq!(results.len(), 5);
        for (imp, r) in &results {
            assert!(r.total.secs() > 0.0, "{:?} has zero time", imp);
        }
    }

    #[test]
    fn variants_agree_too() {
        let app = KMeans { k: 4 };
        let cfg = HarnessConfig::test_small();
        let imps = [
            Implementation::Variant(BigKernelVariant::OverlapOnly),
            Implementation::Variant(BigKernelVariant::VolumeReduction),
            Implementation::Variant(BigKernelVariant::Full),
        ];
        run_all(&app, 32 * 1024, 7, &cfg, &imps);
    }

    #[test]
    fn read_and_modified_proportions_match_table1() {
        let app = KMeans::default();
        let cfg = HarnessConfig::test_small();
        let results = run_all(&app, 64 * 1024, 3, &cfg, &[Implementation::BigKernel]);
        let c = &results[0].1.metrics;
        let data = 64 * 1024u64;
        // Assign reads the coordinates (Table I's 50%); the count pass adds
        // one cluster-id read per record (12.5%).
        let read_pct = 100.0 * c.get("stream.bytes_read") as f64 / data as f64;
        let mod_pct = 100.0 * c.get("stream.bytes_written") as f64 / data as f64;
        assert!((read_pct - 62.5).abs() < 2.0, "read {read_pct}%");
        assert!((mod_pct - 12.5).abs() < 1.0, "modified {mod_pct}%");
    }

    #[test]
    fn fused_pair_verifies_and_cuts_transfer() {
        let app = KMeans { k: 4 };
        let bytes = 64 * 1024u64;
        let mut cfg = HarnessConfig::test_small();
        let unfused = run_all(&app, bytes, 5, &cfg, &[Implementation::BigKernel]);
        cfg.fuse = true;
        let fused = run_all(&app, bytes, 5, &cfg, &[Implementation::BigKernel]);
        assert_eq!(fused[0].1.metrics.get("fusion.fused"), 1);
        let transfer = |r: &bk_runtime::RunResult| {
            r.metrics.get("pcie.h2d_bytes") + r.metrics.get("pcie.d2h_bytes")
        };
        let (un, fu) = (transfer(&unfused[0].1), transfer(&fused[0].1));
        // The device-resident cluster ids elide the count pass's gather
        // (bytes/8); the live-out write-back is kept in both runs.
        assert!(
            fu + bytes / 16 < un,
            "fused transfer {fu} not well below unfused {un}"
        );
        assert!(fused[0].1.metrics.get("fusion.h2d_saved_bytes") >= bytes / 8);
    }

    #[test]
    fn generation_is_deterministic() {
        let app = KMeans { k: 4 };
        let mut m1 = Machine::test_platform();
        let i1 = app.instantiate(&mut m1, 4096, 9);
        let mut m2 = Machine::test_platform();
        let i2 = app.instantiate(&mut m2, 4096, 9);
        assert_eq!(
            m1.hmem.bytes(i1.streams[0].region),
            m2.hmem.bytes(i2.streams[0].region)
        );
    }
}
