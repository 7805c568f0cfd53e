//! Gather (assembly-stage) throughput microbenchmarks: one warp gathered in
//! natural order on the Xeon LLC, and cache-blocked on an LLC smaller than
//! the warp's footprint. The assembly stage is the pipeline's hot loop, so a
//! regression here shows up directly in `report pipeline` blocks/sec.

use bk_host::CacheSim;
use bk_runtime::addr::{AddrEntry, AddrStream, LaneAddrs};
use bk_runtime::assembly::assemble;
use bk_runtime::pattern;
use bk_runtime::{AssemblyLayout, GatherConfig, Machine, StreamArray, StreamId, StreamPool};
use criterion::{criterion_group, criterion_main, Criterion};

/// One warp of 32 lanes, each reading `span` consecutive bytes as 8-byte
/// entries — the Netflix/K-means contiguous-record shape that the SIMD run
/// path targets.
fn warp_lanes(span: u64) -> Vec<LaneAddrs> {
    (0..32u64)
        .map(|lane| {
            let entries: Vec<AddrEntry> = (0..span / 8)
                .map(|i| AddrEntry {
                    stream: StreamId(0),
                    offset: lane * span + i * 8,
                    width: 8,
                })
                .collect();
            LaneAddrs {
                reads: AddrStream::Pattern(pattern::detect(&entries, 8).unwrap()),
                writes: AddrStream::Raw(Vec::new()),
            }
        })
        .collect()
}

fn bench_gather(c: &mut Criterion) {
    let span = 16 * 1024u64; // 512 KiB per warp: well past the SIMD threshold
    let data = vec![0xA5u8; (32 * span) as usize];
    let mut m = Machine::test_platform();
    let r = m.hmem.alloc_from(&data);
    let streams = vec![StreamArray::map(&m, StreamId(0), r)];
    let lanes = warp_lanes(span);

    let mut group = c.benchmark_group("gather");
    // The warp's footprint is 512 KiB: it fits the 8 MiB Xeon LLC and
    // overflows a 256 KiB one, which tiles the walk.
    for (name, llc) in [
        ("natural", CacheSim::xeon_llc as fn() -> CacheSim),
        ("cache-blocked", || CacheSim::new(256 * 1024, 64, 16)),
    ] {
        group.bench_function(name, |b| {
            let mut cache = llc();
            let mut pool = StreamPool::new();
            b.iter(|| {
                let out = assemble(
                    &m.hmem,
                    &streams,
                    &lanes,
                    GatherConfig {
                        layout: AssemblyLayout::Interleaved,
                        locality: true,
                    },
                    &mut cache,
                    &mut pool,
                );
                let gathered = out.gathered_bytes;
                pool.give_output(out);
                pool.arena.reset();
                std::hint::black_box(gathered)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gather);
criterion_main!(benches);
