//! DNA Assembly (paper §V): merge DNA fragments to reconstruct a sequence.
//!
//! Mapped data: fixed 128-byte fragment records. Following the paper's
//! description, the kernel hashes a fixed *portion* of each fragment (the
//! k-mer window) and counts identical fragments in a device hash table, the
//! first phase of Meraculous-style assembly used to deduplicate and drop
//! noisy reads. The kernel reads the 4-byte id plus a 42-byte window
//! (46 B = 36% of the record, matching Table I); records are large enough
//! that consecutive threads' reads can never coalesce in the original
//! layout — the paper's example of an application that is *inherently*
//! uncoalesced without BigKernel's layout optimization.

use crate::harness::{AppSpec, BenchApp, Instance};
use crate::util::{fnv1a_step, DevHashTable, FNV_OFFSET};
use bk_runtime::ctx::AddrGenCtx;
use bk_runtime::{KernelCtx, Machine, StreamArray, StreamId, ValueExt};
use bk_simcore::{SplitMix64, Zipf};
use std::collections::HashMap;
use std::ops::Range;

/// Bytes per fragment record.
pub const RECORD: u64 = 128;
/// Offset of the fragment sequence within the record.
pub const SEQ_OFF: u64 = 16;
/// K-mer window length hashed for deduplication.
pub const KMER: u64 = 42;

const BASES: [u8; 4] = *b"ACGT";

#[inline]
fn key(h: u64) -> u64 {
    h | 1
}

/// Hash the k-mer window of a fragment (shared kernel/reference logic).
pub fn kmer_key(window: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in window {
        h = fnv1a_step(h, b);
    }
    key(h)
}

/// The fragment-deduplication kernel.
pub struct DnaKernel {
    pub table: DevHashTable,
}

impl bk_runtime::StreamKernel for DnaKernel {
    fn name(&self) -> &'static str {
        "dna-assembly"
    }

    fn record_size(&self) -> Option<u64> {
        Some(RECORD)
    }

    fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
        let mut off = range.start;
        while off < range.end {
            ctx.emit_read(StreamId(0), off, 4); // fragment id
            for i in 0..KMER {
                ctx.emit_read(StreamId(0), off + SEQ_OFF + i, 1);
            }
            ctx.alu(2);
            off += RECORD;
        }
    }

    fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
        let mut off = range.start;
        while off < range.end {
            let _id = ctx.stream_read_u32(StreamId(0), off);
            let mut h = FNV_OFFSET;
            for i in 0..KMER {
                let b = ctx.stream_read_u8(StreamId(0), off + SEQ_OFF + i);
                h = fnv1a_step(h, b);
                ctx.alu(2);
            }
            self.table.add(ctx, key(h), 1);
            off += RECORD;
        }
    }
}

/// The DNA Assembly benchmark application.
pub struct DnaAssembly {
    /// Number of distinct true sequences fragments are drawn from.
    pub distinct_fragments: usize,
}

impl Default for DnaAssembly {
    fn default() -> Self {
        DnaAssembly {
            distinct_fragments: 4096,
        }
    }
}

impl BenchApp for DnaAssembly {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "DNA Assembly",
            paper_data_size: "4.5GB",
            record_type: "Fixed-length",
            paper_read_pct: 36,
            paper_modified_pct: 0,
            pattern_applicable: true,
        }
    }

    fn instantiate(&self, machine: &mut Machine, bytes: u64, seed: u64) -> Instance {
        let n = (bytes / RECORD).max(1);
        let mut rng = SplitMix64::new(seed);

        // Distinct source fragments; reads sample them with skew so some
        // fragments repeat many times (the duplicates assembly removes).
        let sources: Vec<Vec<u8>> = (0..self.distinct_fragments)
            .map(|_| {
                (0..RECORD - SEQ_OFF)
                    .map(|_| BASES[rng.next_below(4) as usize])
                    .collect()
            })
            .collect();
        let zipf = Zipf::new(self.distinct_fragments, 0.8);

        let region = machine.hmem.alloc(n * RECORD);
        let mut expected: HashMap<u64, u64> = HashMap::new();
        {
            let data = machine.hmem.bytes_mut(region);
            for r in 0..n {
                let base = (r * RECORD) as usize;
                let id = r as u32;
                data[base..base + 4].copy_from_slice(&id.to_le_bytes());
                rng.fill_bytes(&mut data[base + 4..base + SEQ_OFF as usize]);
                let src = &sources[zipf.sample(&mut rng)];
                data[base + SEQ_OFF as usize..base + RECORD as usize].copy_from_slice(src);
                *expected.entry(kmer_key(&src[..KMER as usize])).or_insert(0) += 1;
            }
        }
        let stream = StreamArray::map(machine, StreamId(0), region);

        let slots = (self.distinct_fragments as u64 * 4).next_power_of_two();
        let buf = machine.gmem.alloc(DevHashTable::bytes_for(slots));
        let table = DevHashTable { buf, slots };

        let verify = move |m: &Machine| -> Result<(), String> {
            let total: u64 = expected.values().sum();
            if table.total(&m.gmem) != total {
                return Err(format!(
                    "total fragments {} != expected {total}",
                    table.total(&m.gmem)
                ));
            }
            for (&k, &c) in &expected {
                let got = table.get(&m.gmem, k);
                if got != c {
                    return Err(format!("k-mer {k:#x}: {got} != {c}"));
                }
            }
            Ok(())
        };

        Instance {
            kernels: vec![Box::new(DnaKernel { table })],
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

    #[test]
    fn kmer_key_distinguishes() {
        assert_ne!(kmer_key(b"ACGTACGT"), kmer_key(b"ACGTACGA"));
        assert_eq!(kmer_key(b"ACGT"), kmer_key(b"ACGT"));
        assert_ne!(kmer_key(b"ACGT"), 0);
    }

    #[test]
    fn all_implementations_agree() {
        let app = DnaAssembly {
            distinct_fragments: 64,
        };
        let cfg = HarnessConfig::test_small();
        run_all(&app, 64 * 1024, 42, &cfg, &Implementation::FIG4A);
    }

    #[test]
    fn read_proportion_matches_table1() {
        let app = DnaAssembly {
            distinct_fragments: 64,
        };
        let cfg = HarnessConfig::test_small();
        let results = run_all(&app, 128 * 1024, 3, &cfg, &[Implementation::BigKernel]);
        let c = &results[0].1.metrics;
        let read_pct = 100.0 * c.get("stream.bytes_read") as f64 / (128.0 * 1024.0);
        assert!((read_pct - 36.0).abs() < 2.0, "read {read_pct}%");
        assert_eq!(c.get("stream.bytes_written"), 0);
    }

    #[test]
    fn duplicates_are_counted() {
        let app = DnaAssembly {
            distinct_fragments: 4,
        };
        let mut m = Machine::test_platform();
        let inst = app.instantiate(&mut m, 64 * RECORD, 5);
        // 64 records over 4 distinct fragments → counts must exceed 1.
        let cfg = HarnessConfig::test_small();
        let r = crate::harness::run_implementation(&mut m, &inst, Implementation::CpuSerial, &cfg);
        (inst.verify)(&m).unwrap();
        assert!(r.total.secs() > 0.0);
    }
}
