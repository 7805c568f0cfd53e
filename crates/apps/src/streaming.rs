//! Streaming benchmark support: run any [`BenchApp`] through the continuous
//! ingestion runner, plus *drifting* variants of Word Count, FilterCount and
//! K-means whose input distribution or record schema changes mid-stream.
//!
//! The drifting apps exist to exercise the streaming runner's §IV.A
//! re-detection path (DESIGN.md §16): each one flips a property at the
//! stream's midpoint so the per-window access-pattern fingerprint moves and
//! `stream.redetect` fires. Three distinct drift axes are covered:
//!
//! * [`DriftingWordCount`] — **data drift**: the text switches from short
//!   words to long words, shifting the words-per-byte (and so hash-table
//!   atomics-per-byte) density. The access pattern itself (a period-1 byte
//!   scan) is unchanged.
//! * [`DriftingFilterCount`] — **schema drift**: records after the flip are
//!   filtered on the whole 16-byte record instead of the 8-byte value field
//!   (doubling gather density), and the keep-predicate widens, shifting the
//!   count-atomic density.
//! * [`DriftingKMeans`] — **schema drift on the write side**: records after
//!   the flip carry a per-record weight that is read (extra gather field)
//!   and accumulated into device-side weighted populations (atomics appear
//!   where there were none).
//!
//! All three verify exactly — the drifting halves are part of the expected
//! output, computed record-by-record at generation time — so the streamed ≡
//! batch determinism contract holds for them like for every other app.

use crate::harness::{AppSpec, BenchApp, HarnessConfig, Instance};
use crate::kmeans::{closest_cluster, with_centroids};
use crate::util::DevHashTable;
use crate::wordcount::{generate_text_sized, reference_counts, WordCountKernel, MAX_WORD};
use bk_runtime::ctx::AddrGenCtx;
use bk_runtime::stream::{run_bigkernel_streamed, ReplaySource, Source};
use bk_runtime::{
    DevBufId, KernelCtx, Machine, StreamArray, StreamConfig, StreamId, StreamKernel, StreamResult,
    ValueExt,
};
use bk_simcore::SplitMix64;
use std::ops::Range;

/// Run `app` through the streaming runner over a source built by
/// `make_source` (called with the mapped primary stream's byte length), then
/// check the app's exact-output verification. Panics — like
/// [`run_all`](crate::harness::run_all) — if verification fails.
///
/// The machine comes from [`HarnessConfig::build_machine`], as in the batch
/// harness, so streamed results are comparable with batch results from the
/// same [`HarnessConfig`]. Multi-pass apps run unfused; pass ordering is the
/// streaming runner's concern.
pub fn run_streamed(
    app: &dyn BenchApp,
    bytes: u64,
    seed: u64,
    cfg: &HarnessConfig,
    scfg: &StreamConfig,
    make_source: &dyn Fn(u64) -> Box<dyn Source>,
) -> (StreamResult, Machine) {
    let mut machine = cfg.build_machine();
    let instance = app.instantiate(&mut machine, bytes, seed);
    let kernels: Vec<&dyn StreamKernel> = instance
        .kernels
        .iter()
        .map(|k| k.as_ref() as &dyn StreamKernel)
        .collect();
    let source = make_source(instance.streams[0].len());
    let result = run_bigkernel_streamed(
        &mut machine,
        &kernels,
        &instance.streams,
        cfg.launch,
        &cfg.bigkernel,
        scfg,
        source.as_ref(),
    );
    if let Err(e) = (instance.verify)(&machine) {
        panic!(
            "{} failed verification under streaming: {e}",
            app.spec().name
        );
    }
    (result, machine)
}

/// [`run_streamed`] over a constant-rate [`ReplaySource`] delivering
/// `bytes_per_sec` — the common case for benchmarks and determinism tests.
pub fn run_streamed_at_rate(
    app: &dyn BenchApp,
    bytes: u64,
    seed: u64,
    cfg: &HarnessConfig,
    scfg: &StreamConfig,
    bytes_per_sec: f64,
) -> (StreamResult, Machine) {
    run_streamed(app, bytes, seed, cfg, scfg, &|len| {
        Box::new(ReplaySource::new(len, bytes_per_sec))
    })
}

/// Word Count whose text flips from short words (2–4 letters) to long words
/// (9–12 letters) at the stream midpoint: the words-per-byte density — and
/// with it the hash-table atomic density the fingerprint tracks — drops by
/// roughly 3x.
pub struct DriftingWordCount {
    /// Vocabulary size *per phase* (the phases use disjoint vocabularies).
    pub vocab: usize,
    /// Zipf skew of word frequencies in both phases.
    pub skew: f64,
}

impl Default for DriftingWordCount {
    fn default() -> Self {
        DriftingWordCount {
            vocab: 2048,
            skew: 1.0,
        }
    }
}

impl BenchApp for DriftingWordCount {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "Word Count (drifting)",
            paper_data_size: "synthetic",
            record_type: "Variable-length",
            paper_read_pct: 100,
            paper_modified_pct: 0,
            pattern_applicable: true,
        }
    }

    fn instantiate(&self, machine: &mut Machine, bytes: u64, seed: u64) -> Instance {
        let half = bytes / 2;
        let mut text = generate_text_sized(half, self.vocab, self.skew, seed, 2, 4);
        text.extend(generate_text_sized(
            bytes - half,
            self.vocab,
            self.skew,
            seed ^ 0x9e37_79b9_7f4a_7c15,
            9,
            MAX_WORD,
        ));
        let expected = reference_counts(&text);
        let region = machine.hmem.alloc_from(&text);
        let stream = StreamArray::map(machine, StreamId(0), region);

        // Two disjoint phase vocabularies share the table.
        let slots = (self.vocab as u64 * 8).next_power_of_two();
        let buf = machine.gmem.alloc(DevHashTable::bytes_for(slots));
        let table = DevHashTable { buf, slots };

        let verify = move |m: &Machine| -> Result<(), String> {
            let total: u64 = expected.values().sum();
            let got_total = table.total(&m.gmem);
            if got_total != total {
                return Err(format!("total words {got_total} != expected {total}"));
            }
            for (&key, &count) in &expected {
                let got = table.get(&m.gmem, key);
                if got != count {
                    return Err(format!("word key {key:#x}: count {got} != {count}"));
                }
            }
            if table.occupied(&m.gmem) != expected.len() as u64 {
                return Err("spurious words counted".into());
            }
            Ok(())
        };

        Instance {
            kernels: vec![Box::new(WordCountKernel {
                table,
                text_len: bytes,
            })],
            streams: vec![stream],
            scratch_streams: vec![],
            fused: None,
            verify: Box::new(verify),
        }
    }
}

/// Bytes per drifting-FilterCount record (same layout as
/// [`crate::filtercount::RECORD`]: 8-byte value + 8-byte payload).
pub const FC_RECORD: u64 = 16;
/// Phase-1 keep threshold on `value & 0xFF` (~39% selectivity).
pub const FC_NARROW: u64 = 100;
/// Phase-2 keep threshold on `(value ^ payload) & 0xFF` (~78% selectivity).
pub const FC_WIDE: u64 = 200;

/// The drifting filter+count kernel: one pass, one device counter. Records
/// before `flip_at` are filtered on the value field alone; from `flip_at`
/// on, the payload joins both the gather and the predicate — the "feed
/// version bump" schema-drift scenario.
pub struct DriftingFilterKernel {
    /// Absolute byte offset of the first phase-2 record.
    pub flip_at: u64,
    /// Device buffer holding the single kept-record counter.
    pub count_buf: DevBufId,
}

impl DriftingFilterKernel {
    fn keep(&self, off: u64, value: u64, payload: u64) -> bool {
        if off < self.flip_at {
            value & 0xFF < FC_NARROW
        } else {
            (value ^ payload) & 0xFF < FC_WIDE
        }
    }
}

impl StreamKernel for DriftingFilterKernel {
    fn name(&self) -> &'static str {
        "filtercount-drift"
    }

    fn record_size(&self) -> Option<u64> {
        Some(FC_RECORD)
    }

    fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
        let mut off = range.start;
        while off < range.end {
            ctx.emit_read(StreamId(0), off, 8);
            if off >= self.flip_at {
                ctx.emit_read(StreamId(0), off + 8, 8);
            }
            ctx.alu(1);
            off += FC_RECORD;
        }
    }

    fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
        let mut off = range.start;
        while off < range.end {
            let v = ctx.stream_read(StreamId(0), off, 8);
            let p = if off >= self.flip_at {
                ctx.stream_read(StreamId(0), off + 8, 8)
            } else {
                0
            };
            ctx.alu(2);
            if self.keep(off, v, p) {
                ctx.dev_atomic_add_u64(self.count_buf, 0, 1);
            }
            off += FC_RECORD;
        }
    }
}

/// FilterCount whose record schema flips at the stream midpoint (see
/// [`DriftingFilterKernel`]).
#[derive(Default)]
pub struct DriftingFilterCount;

impl BenchApp for DriftingFilterCount {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "FilterCount (drifting)",
            paper_data_size: "synthetic",
            record_type: "Fixed-length",
            // Phase 1 reads 8 of 16 bytes; phase 2 reads all 16.
            paper_read_pct: 75,
            paper_modified_pct: 0,
            pattern_applicable: true,
        }
    }

    fn instantiate(&self, machine: &mut Machine, bytes: u64, seed: u64) -> Instance {
        let n = (bytes / FC_RECORD).max(1);
        let flip_at = n / 2 * FC_RECORD;
        let mut rng = SplitMix64::new(seed);

        let count_buf = machine.gmem.alloc(8);
        let kernel = DriftingFilterKernel { flip_at, count_buf };

        let region = machine.hmem.alloc(n * FC_RECORD);
        let mut expected = 0u64;
        {
            let data = machine.hmem.bytes_mut(region);
            for r in 0..n {
                let base = (r * FC_RECORD) as usize;
                let v = rng.next_u64();
                let p = rng.next_u64();
                data[base..base + 8].copy_from_slice(&v.to_le_bytes());
                data[base + 8..base + 16].copy_from_slice(&p.to_le_bytes());
                if kernel.keep(r * FC_RECORD, v, p) {
                    expected += 1;
                }
            }
        }
        let stream = StreamArray::map(machine, StreamId(0), region);

        let verify = move |m: &Machine| -> Result<(), String> {
            let got = m.gmem.read_u64(count_buf, 0);
            if got != expected {
                return Err(format!("kept-record count {got} != {expected}"));
            }
            Ok(())
        };

        Instance {
            kernels: vec![Box::new(kernel)],
            streams: vec![stream],
            scratch_streams: vec![],
            fused: None,
            verify: Box::new(verify),
        }
    }
}

/// Bytes per drifting-K-means record (same layout as
/// [`crate::kmeans::RECORD`]).
pub const KM_RECORD: u64 = 64;
/// Offset of the written cluster-id field.
const KM_CID_OFF: u64 = 32;
/// Offset of the phase-2 per-record weight field.
const KM_WEIGHT_OFF: u64 = 40;
/// Coordinate dimensions (matches the batch K-means app).
const KM_DIMS: usize = 4;

/// The drifting K-means assignment kernel: every record gets its nearest
/// cluster id written back; records from `flip_at` on additionally carry a
/// weight that is gathered and atomically accumulated into per-cluster
/// weighted populations on the device.
pub struct DriftingKMeansKernel {
    /// Device-resident centroid array (`k` rows of 4 doubles).
    pub clusters_buf: DevBufId,
    /// Number of clusters.
    pub k: u32,
    /// Absolute byte offset of the first weighted (phase-2) record.
    pub flip_at: u64,
    /// `k` u64 weighted-population counters.
    pub counts_buf: DevBufId,
}

impl StreamKernel for DriftingKMeansKernel {
    fn name(&self) -> &'static str {
        "kmeans-drift"
    }

    fn record_size(&self) -> Option<u64> {
        Some(KM_RECORD)
    }

    fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
        let mut off = range.start;
        while off < range.end {
            for f in 0..KM_DIMS as u64 {
                ctx.emit_read(StreamId(0), off + f * 8, 8);
            }
            if off >= self.flip_at {
                ctx.emit_read(StreamId(0), off + KM_WEIGHT_OFF, 8);
            }
            ctx.emit_write(StreamId(0), off + KM_CID_OFF, 8);
            ctx.alu(2);
            off += KM_RECORD;
        }
    }

    fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
        if range.is_empty() {
            return;
        }
        // Stage the centroid array once per chunk invocation, like the
        // batch K-means kernel.
        with_centroids(ctx, self.clusters_buf, self.k, |ctx, clusters| {
            let mut off = range.start;
            while off < range.end {
                let mut p = [0.0; KM_DIMS];
                for (i, v) in p.iter_mut().enumerate() {
                    *v = ctx.stream_read_f64(StreamId(0), off + i as u64 * 8);
                }
                ctx.alu(2 * KM_DIMS as u64 * self.k as u64);
                ctx.shared_at_strided(0, 32, self.k, 8);
                let cid = closest_cluster(&p, clusters);
                ctx.stream_write_u64(StreamId(0), off + KM_CID_OFF, cid);
                if off >= self.flip_at {
                    let w = ctx.stream_read(StreamId(0), off + KM_WEIGHT_OFF, 8);
                    ctx.alu(1);
                    ctx.dev_atomic_add_u64(self.counts_buf, cid * 8, w);
                }
                off += KM_RECORD;
            }
        })
    }
}

/// K-means whose records grow a weight field at the stream midpoint (see
/// [`DriftingKMeansKernel`]).
pub struct DriftingKMeans {
    /// Number of clusters.
    pub k: u32,
}

impl Default for DriftingKMeans {
    fn default() -> Self {
        DriftingKMeans { k: 8 }
    }
}

impl BenchApp for DriftingKMeans {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "K-means (drifting)",
            paper_data_size: "synthetic",
            record_type: "Fixed-length",
            // Phase 1 reads 32 of 64 bytes; phase 2 reads 40.
            paper_read_pct: 56,
            paper_modified_pct: 12,
            pattern_applicable: true,
        }
    }

    fn instantiate(&self, machine: &mut Machine, bytes: u64, seed: u64) -> Instance {
        let n = (bytes / KM_RECORD).max(1);
        let flip_at = n / 2 * KM_RECORD;
        let mut rng = SplitMix64::new(seed);

        let clusters: Vec<[f64; KM_DIMS]> = (0..self.k)
            .map(|_| {
                let mut c = [0.0; KM_DIMS];
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

        let region = machine.hmem.alloc(n * KM_RECORD);
        {
            let data = machine.hmem.bytes_mut(region);
            for r in 0..n {
                let base = (r * KM_RECORD) as usize;
                for d in 0..KM_DIMS {
                    let v = rng.next_f64() * 1000.0;
                    data[base + d * 8..base + d * 8 + 8].copy_from_slice(&v.to_le_bytes());
                }
                data[base + KM_CID_OFF as usize..base + KM_CID_OFF as usize + 8]
                    .copy_from_slice(&u64::MAX.to_le_bytes());
                let w = rng.next_below(8) + 1;
                data[base + KM_WEIGHT_OFF as usize..base + KM_WEIGHT_OFF as usize + 8]
                    .copy_from_slice(&w.to_le_bytes());
                rng.fill_bytes(&mut data[base + 48..base + 64]);
            }
        }
        let stream = StreamArray::map(machine, StreamId(0), region);
        let counts_buf = machine.gmem.alloc(self.k as u64 * 8);

        let verify_clusters = clusters;
        let k = self.k;
        let verify = move |m: &Machine| -> Result<(), String> {
            let mut want_counts = vec![0u64; k as usize];
            for r in 0..n {
                let base = r * KM_RECORD;
                let mut p = [0.0; KM_DIMS];
                for (i, v) in p.iter_mut().enumerate() {
                    *v = m.hmem.read_f64(region, base + i as u64 * 8);
                }
                let want = closest_cluster(&p, &verify_clusters);
                let got = m.hmem.read_u64(region, base + KM_CID_OFF);
                if got != want {
                    return Err(format!("record {r}: cid {got} != expected {want}"));
                }
                if base >= flip_at {
                    want_counts[want as usize] += m.hmem.read_u64(region, base + KM_WEIGHT_OFF);
                }
            }
            for (c, &want) in want_counts.iter().enumerate() {
                let got = m.gmem.read_u64(counts_buf, c as u64 * 8);
                if got != want {
                    return Err(format!("cluster {c}: weighted population {got} != {want}"));
                }
            }
            Ok(())
        };

        Instance {
            kernels: vec![Box::new(DriftingKMeansKernel {
                clusters_buf,
                k: self.k,
                flip_at,
                counts_buf,
            })],
            streams: vec![stream],
            scratch_streams: vec![],
            fused: None,
            verify: Box::new(verify),
        }
    }
}

/// The drifting applications, boxed for sweeps (the `report streaming`
/// section).
pub fn drifting_apps() -> Vec<Box<dyn BenchApp + Sync>> {
    vec![
        Box::new(DriftingWordCount::default()),
        Box::new(DriftingFilterCount),
        Box::new(DriftingKMeans::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bk_runtime::WindowPolicy;

    // FilterCount's schema flip doubles gather and atomic density — a
    // relative change of exactly 0.5 against the larger magnitude — so the
    // tests run with the threshold just below that.
    fn scfg(window_bytes: u64) -> StreamConfig {
        StreamConfig {
            policy: WindowPolicy::ByBytes(window_bytes),
            queue_bound: 2,
            redetect_threshold: 0.4,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn drifting_filtercount_verifies_and_redetects() {
        let cfg = HarnessConfig::test_small();
        let (r, _m) = run_streamed_at_rate(
            &DriftingFilterCount,
            64 * 1024,
            42,
            &cfg,
            &scfg(8 * 1024),
            1e9,
        );
        assert_eq!(r.windows.len(), 8);
        assert!(r.redetects >= 1, "schema flip must trigger re-detection");
        assert_eq!(r.metrics.get("stream.redetect"), r.redetects);
        assert_eq!(
            r.windows.iter().filter(|w| w.drifted).count() as u64,
            r.redetects
        );
    }

    #[test]
    fn drifting_wordcount_verifies_under_streaming() {
        let app = DriftingWordCount {
            vocab: 256,
            skew: 1.0,
        };
        let cfg = HarnessConfig::test_small();
        let (r, _m) = run_streamed_at_rate(&app, 48 * 1024, 42, &cfg, &scfg(16 * 1024), 1e6);
        assert_eq!(r.windows.len(), 3);
        assert!(r.sustained_bytes_per_sec > 0.0);
    }

    #[test]
    fn drifting_kmeans_verifies_and_redetects() {
        let app = DriftingKMeans { k: 4 };
        let cfg = HarnessConfig::test_small();
        let (r, _m) = run_streamed_at_rate(&app, 64 * 1024, 7, &cfg, &scfg(16 * 1024), 1e9);
        assert!(
            r.redetects >= 1,
            "weight-field appearance must trigger re-detection"
        );
    }

    #[test]
    fn custom_sources_flow_through_the_helper() {
        use bk_runtime::{HiccupSource, ReplaySource};
        use bk_simcore::SimTime;
        let cfg = HarnessConfig::test_small();
        let (r, _m) = run_streamed(
            &DriftingFilterCount,
            32 * 1024,
            3,
            &cfg,
            &scfg(8 * 1024),
            &|len| {
                Box::new(HiccupSource::new(
                    ReplaySource::new(len, 1e8),
                    3,
                    SimTime::from_micros(50.0),
                    9,
                ))
            },
        );
        // Hiccups delay but never drop: every window still completes.
        assert_eq!(r.windows.len(), 4);
        assert!(r.windows.iter().all(|w| !w.completed.is_zero()));
    }
}
