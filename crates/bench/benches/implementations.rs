//! Criterion bench over the Fig. 4(a) implementation matrix: wall-clock
//! cost of simulating each implementation on representative applications.
//! (The *simulated* times are what `report fig4a` prints; this measures the
//! simulator itself so regressions in the reproduction's own performance
//! are caught.)

use bk_apps::kmeans::KMeans;
use bk_apps::wordcount::WordCount;
use bk_apps::{run_all, BenchApp, HarnessConfig, Implementation};
use criterion::{criterion_group, criterion_main, Criterion};

const BYTES: u64 = 1 << 20;

fn bench_impls(c: &mut Criterion) {
    let cfg = HarnessConfig::paper_scaled(BYTES);
    let kmeans = KMeans { k: 16 };
    let wordcount = WordCount {
        vocab: 1024,
        skew: 1.0,
    };
    let apps: [(&str, &(dyn BenchApp + Sync)); 2] =
        [("kmeans", &kmeans), ("wordcount", &wordcount)];

    let mut group = c.benchmark_group("fig4a-implementations");
    group.sample_size(10);
    for (name, app) in apps {
        for imp in Implementation::FIG4A {
            group.bench_function(format!("{name}/{}", imp.label()), |b| {
                b.iter(|| {
                    let r = run_all(app, BYTES, 42, &cfg, &[imp]);
                    std::hint::black_box(r[0].1.total)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_impls);
criterion_main!(benches);
