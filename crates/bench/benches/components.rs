//! Microbenchmarks of the simulator's hot components: pattern detection,
//! warp-trace alignment/coalescing, the stage-graph scheduler and the LLC
//! cache simulator. These dominate the reproduction's own wall-clock, so
//! they get dedicated regression coverage.

use bk_gpu::trace::AccessClass;
use bk_gpu::{AccessKind, DeviceSpec, ThreadTrace, WarpAligner};
use bk_host::CacheSim;
use bk_runtime::addr::AddrEntry;
use bk_runtime::graph::pipeline_graph;
use bk_runtime::pattern;
use bk_runtime::StreamId;
use bk_simcore::pipeline::schedule;
use bk_simcore::{ScheduleView, SimTime};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

fn bench_pattern_detect(c: &mut Criterion) {
    // A 3-entry-per-record cycle over 1000 records (K-means-like).
    let entries: Vec<AddrEntry> = (0..1000u64)
        .flat_map(|r| {
            (0..3u64).map(move |f| AddrEntry {
                stream: StreamId(0),
                offset: r * 64 + f * 8,
                width: 8,
            })
        })
        .collect();
    c.bench_function("pattern/detect-periodic-3000", |b| {
        b.iter(|| std::hint::black_box(pattern::detect(&entries, pattern::MAX_PERIOD)))
    });

    let irregular: Vec<AddrEntry> = (0..3000u64)
        .map(|i| AddrEntry {
            stream: StreamId(0),
            offset: (i.wrapping_mul(2654435761)) % (1 << 20),
            width: 8,
        })
        .collect();
    c.bench_function("pattern/detect-irregular-3000", |b| {
        b.iter(|| std::hint::black_box(pattern::detect(&irregular, pattern::MAX_PERIOD)))
    });
}

fn bench_warp_align(c: &mut Criterion) {
    let spec = DeviceSpec::gtx680();
    let lanes: Vec<ThreadTrace> = (0..32u64)
        .map(|l| {
            let mut t = ThreadTrace::default();
            for k in 0..512u64 {
                t.record(l * 4096 + k, 1, AccessKind::Read, AccessClass::StreamRead);
            }
            t
        })
        .collect();
    c.bench_function("gpu/warp-align-512-steps", |b| {
        let mut aligner = WarpAligner::new();
        b.iter(|| {
            // `align` returns a borrow of the aligner's reused scratch
            // cost; copy a field out so the borrow ends inside the closure.
            let cost = aligner.align(&spec, &lanes);
            std::hint::black_box(cost.issue_slots)
        })
    });

    // A warp staging one 256-byte table (K-means' centroids): every lane
    // reads the same 32 words, recorded as one run (the broadcast closed
    // form) or as 32 single reads (the per-step walk).
    let staged = |run: bool| -> Vec<ThreadTrace> {
        (0..32u64)
            .map(|_| {
                let mut t = ThreadTrace::default();
                if run {
                    t.record_run(1 << 16, 8, 8, 32, AccessClass::Dev);
                } else {
                    for k in 0..32u64 {
                        t.record((1 << 16) + k * 8, 8, AccessKind::Read, AccessClass::Dev);
                    }
                }
                t
            })
            .collect()
    };
    for (name, run) in [
        ("gpu/warp-align-broadcast-run", true),
        ("gpu/warp-align-broadcast-singles", false),
    ] {
        let lanes = staged(run);
        c.bench_function(name, |b| {
            let mut aligner = WarpAligner::new();
            b.iter(|| std::hint::black_box(aligner.align(&spec, &lanes).mem.transactions))
        });
    }
}

/// Blocks/sec of the full BigKernel pipeline simulation, per app, at
/// 1 thread (the shape the addr-gen/assembly fast path is tuned against),
/// plus a KMeans all-cores tier for the pool payoff. Each tier runs inside a
/// pool of its width, as `--threads` sizes the global one: each chunk's
/// pure address half (addr-gen, §IV.A detection, assembly) fans out to the
/// pool, inline at width 1; kernel bodies run live in block order at any
/// width. Simulated results are bit-identical either way; see the
/// determinism suite.
fn bench_sim_throughput(c: &mut Criterion) {
    use bk_apps::{run_implementation, HarnessConfig, Implementation};
    use bk_bench::{all_apps, short_name};
    use bk_runtime::{LaunchConfig, Machine};

    let bytes = 2u64 << 20;
    let mut cfg = HarnessConfig::test_small();
    cfg.launch = LaunchConfig::new(8, 32);
    cfg.bigkernel.chunk_input_bytes = 32 * 1024;

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    for app in all_apps() {
        let name = short_name(app.spec().name);
        // The multi-thread tier only on KMeans: per-app scaling curves are
        // the experiment binaries' job; here one app tracks pool overhead.
        let tiers: &[usize] = if name == "KMeans" && cores > 1 {
            &[1, cores]
        } else {
            &[1]
        };
        for &threads in tiers {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let app = &app;
            group.bench_function(format!("{name}-2mib-8blocks/threads-{threads}"), |b| {
                b.iter_batched(
                    || {
                        let mut machine = Machine::test_platform();
                        let instance = app.instantiate(&mut machine, bytes, 42);
                        (machine, instance)
                    },
                    |(mut machine, instance)| {
                        pool.install(|| {
                            std::hint::black_box(run_implementation(
                                &mut machine,
                                &instance,
                                Implementation::BigKernel,
                                &cfg,
                            ))
                        })
                    },
                    criterion::BatchSize::LargeInput,
                );
            });
        }
    }
    group.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let spec = Arc::new(pipeline_graph(1, 1, 3, 3));
    let durations: Vec<Vec<SimTime>> = (0..1000)
        .map(|i| {
            (0..6)
                .map(|s| SimTime::from_micros(((i * 7 + s * 13) % 50 + 1) as f64))
                .collect()
        })
        .collect();
    c.bench_function("graph/schedule-1000-chunks", |b| {
        b.iter(|| std::hint::black_box(schedule(Arc::clone(&spec), &durations).makespan()))
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("host/llc-sequential-64k", |b| {
        b.iter(|| {
            let mut cache = CacheSim::xeon_llc();
            let mut acc = 0u64;
            for addr in (0..(64u64 << 10)).step_by(8) {
                let (h, _) = cache.access_range(addr, 8);
                acc += h;
            }
            std::hint::black_box(acc)
        })
    });
}

criterion_group!(
    benches,
    bench_pattern_detect,
    bench_warp_align,
    bench_scheduler,
    bench_cache,
    bench_sim_throughput
);
criterion_main!(benches);
