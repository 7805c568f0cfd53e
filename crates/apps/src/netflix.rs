//! Netflix (paper §V): predict user preferences of movies.
//!
//! Mapped data: fixed 80-byte records, each holding one movie's rating pair
//! sample (movie id, two user ids, two ratings, timestamp — 24 B read = 30%,
//! matching Table I). The kernel accumulates the rating-pair correlation
//! into a pre-allocated GPU-side user-pair table; nothing is written back to
//! mapped memory.

use crate::harness::{AppSpec, BenchApp, Instance};
use bk_runtime::ctx::AddrGenCtx;
use bk_runtime::{DevBufId, KernelCtx, Machine, StreamArray, StreamId, ValueExt};
use bk_simcore::SplitMix64;
use std::ops::Range;

/// Bytes per rating record.
pub const RECORD: u64 = 80;
/// User-pair table dimension (table is `USERS x USERS` u64 cells).
pub const USERS: u64 = 128;

/// Fixed-point correlation contribution of one record, shared by kernel and
/// reference so results are bit-identical.
#[inline]
pub fn contribution(rating_a: f32, rating_b: f32) -> u64 {
    (rating_a * rating_b * 100.0) as u64
}

/// The correlation-accumulation kernel.
pub struct NetflixKernel {
    pub table: DevBufId,
}

impl bk_runtime::StreamKernel for NetflixKernel {
    fn name(&self) -> &'static str {
        "netflix"
    }

    fn record_size(&self) -> Option<u64> {
        Some(RECORD)
    }

    fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
        let mut off = range.start;
        while off < range.end {
            // movieId, userA, ratingA, userB, ratingB, timestamp
            for f in 0..6u64 {
                ctx.emit_read(StreamId(0), off + f * 4, 4);
            }
            ctx.alu(2);
            off += RECORD;
        }
    }

    fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
        let mut off = range.start;
        while off < range.end {
            let _movie = ctx.stream_read_u32(StreamId(0), off);
            let user_a = ctx.stream_read_u32(StreamId(0), off + 4);
            let rating_a = ctx.stream_read_f32(StreamId(0), off + 8);
            let user_b = ctx.stream_read_u32(StreamId(0), off + 12);
            let rating_b = ctx.stream_read_f32(StreamId(0), off + 16);
            let _ts = ctx.stream_read_u32(StreamId(0), off + 20);
            ctx.alu(12);
            let cell = (user_a as u64 % USERS) * USERS + (user_b as u64 % USERS);
            ctx.dev_atomic_add_u64(self.table, cell * 8, contribution(rating_a, rating_b));
            off += RECORD;
        }
    }
}

/// The Netflix benchmark application.
#[derive(Default)]
pub struct Netflix;

impl BenchApp for Netflix {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "Netflix",
            paper_data_size: "6.0GB",
            record_type: "Fixed-length",
            paper_read_pct: 30,
            paper_modified_pct: 0,
            pattern_applicable: true,
        }
    }

    fn instantiate(&self, machine: &mut Machine, bytes: u64, seed: u64) -> Instance {
        let n = (bytes / RECORD).max(1);
        let mut rng = SplitMix64::new(seed);

        let region = machine.hmem.alloc(n * RECORD);
        let mut expected = vec![0u64; (USERS * USERS) as usize];
        {
            let data = machine.hmem.bytes_mut(region);
            for r in 0..n {
                let base = (r * RECORD) as usize;
                let movie = rng.next_below(10_000) as u32;
                let user_a = rng.next_below(1_000_000) as u32;
                let user_b = rng.next_below(1_000_000) as u32;
                let rating_a = (1 + rng.next_below(5)) as f32;
                let rating_b = (1 + rng.next_below(5)) as f32;
                let ts = rng.next_below(1 << 30) as u32;
                data[base..base + 4].copy_from_slice(&movie.to_le_bytes());
                data[base + 4..base + 8].copy_from_slice(&user_a.to_le_bytes());
                data[base + 8..base + 12].copy_from_slice(&rating_a.to_le_bytes());
                data[base + 12..base + 16].copy_from_slice(&user_b.to_le_bytes());
                data[base + 16..base + 20].copy_from_slice(&rating_b.to_le_bytes());
                data[base + 20..base + 24].copy_from_slice(&ts.to_le_bytes());
                rng.fill_bytes(&mut data[base + 24..base + RECORD as usize]);

                let cell = (user_a as u64 % USERS) * USERS + (user_b as u64 % USERS);
                expected[cell as usize] =
                    expected[cell as usize].wrapping_add(contribution(rating_a, rating_b));
            }
        }
        let stream = StreamArray::map(machine, StreamId(0), region);
        let table = machine.gmem.alloc(USERS * USERS * 8);

        let verify = move |m: &Machine| -> Result<(), String> {
            for (cell, &want) in expected.iter().enumerate() {
                let got = m.gmem.read_u64(table, cell as u64 * 8);
                if got != want {
                    return Err(format!("cell {cell}: {got} != {want}"));
                }
            }
            Ok(())
        };

        Instance {
            kernels: vec![Box::new(NetflixKernel { table })],
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
    fn contribution_fixed_point() {
        assert_eq!(contribution(5.0, 5.0), 2500);
        assert_eq!(contribution(1.0, 1.0), 100);
    }

    #[test]
    fn all_implementations_agree() {
        let cfg = HarnessConfig::test_small();
        run_all(&Netflix, 64 * 1024, 42, &cfg, &Implementation::FIG4A);
    }

    #[test]
    fn read_proportion_matches_table1() {
        let cfg = HarnessConfig::test_small();
        let results = run_all(&Netflix, 80 * 1024, 3, &cfg, &[Implementation::BigKernel]);
        let c = &results[0].1.metrics;
        let read_pct = 100.0 * c.get("stream.bytes_read") as f64 / (80.0 * 1024.0);
        assert!((read_pct - 30.0).abs() < 2.0, "read {read_pct}%");
        assert_eq!(c.get("stream.bytes_written"), 0);
    }

    #[test]
    fn field_reads_are_pattern_compressed() {
        let cfg = HarnessConfig::test_small();
        let results = run_all(&Netflix, 40 * 1024, 5, &cfg, &[Implementation::BigKernel]);
        let c = &results[0].1.metrics;
        assert!(c.get("addr.patterns_found") > 0);
        assert_eq!(c.get("addr.patterns_missed"), 0);
    }
}
