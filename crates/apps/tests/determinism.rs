//! Parallel-vs-sequential determinism suite.
//!
//! The rayon pool's width only decides how many host threads run
//! BigKernel's pure address half (address generation, detection,
//! assembly); every kernel body, and every buffered-baseline granule, runs
//! live in block order at any width. So runs at widths 1 and 2 must be
//! *bit-identical* field for field: same simulated times, same counters,
//! same verified outputs.
//!
//! These tests pin that property for every evaluation application and for
//! the buffered GPU baselines, plus a property test over random launch
//! geometries.

use bk_apps::affinity::{Affinity, AffinityIndexed};
use bk_apps::dna::DnaAssembly;
use bk_apps::filtercount::FilterCount;
use bk_apps::kmeans::KMeans;
use bk_apps::netflix::Netflix;
use bk_apps::opinion::OpinionFinder;
use bk_apps::wordcount::WordCount;
use bk_apps::{
    drifting_apps, run_implementation, run_streamed, run_streamed_at_rate, BenchApp, HarnessConfig,
    Implementation,
};
use bk_baselines::BigKernelVariant;
use bk_runtime::stream::{HiccupSource, ReplaySource};
use bk_runtime::{
    AutotuneConfig, DeviceFailure, FaultPlan, FaultSite, FaultStage, LaunchConfig, Machine,
    RunResult, StreamConfig, StreamResult, WindowPolicy,
};
use bk_simcore::SimTime;
use proptest::prelude::*;

/// The paper's seven application configurations, in Table I order.
fn all_apps() -> Vec<Box<dyn BenchApp + Sync>> {
    vec![
        Box::new(KMeans::default()),
        Box::new(WordCount::default()),
        Box::new(Netflix),
        Box::new(OpinionFinder::default()),
        Box::new(DnaAssembly::default()),
        Box::new(Affinity::default()),
        Box::new(AffinityIndexed::default()),
    ]
}

/// Run `f` on a rayon pool of `width` host threads — the only parallelism
/// switch the simulator has.
fn at_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("build a rayon pool")
        .install(f)
}

/// One verified run of `app` under `imp` with the given geometry on a pool
/// of `width` threads; panics if the output diverges from the pure-Rust
/// reference.
fn run_once(
    app: &dyn BenchApp,
    imp: Implementation,
    launch: LaunchConfig,
    chunk_bytes: u64,
    bytes: u64,
    width: usize,
) -> RunResult {
    run_on_gpus(app, imp, launch, chunk_bytes, bytes, width, 1)
}

/// [`run_once`] on a machine with `gpus` replicated devices.
#[allow(clippy::too_many_arguments)]
fn run_on_gpus(
    app: &dyn BenchApp,
    imp: Implementation,
    launch: LaunchConfig,
    chunk_bytes: u64,
    bytes: u64,
    width: usize,
    gpus: usize,
) -> RunResult {
    run_faulted(app, imp, launch, chunk_bytes, bytes, width, gpus, None)
}

/// [`run_on_gpus`] with an optional fault-injection plan.
#[allow(clippy::too_many_arguments)]
fn run_faulted(
    app: &dyn BenchApp,
    imp: Implementation,
    launch: LaunchConfig,
    chunk_bytes: u64,
    bytes: u64,
    width: usize,
    gpus: usize,
    faults: Option<FaultPlan>,
) -> RunResult {
    let mut cfg = HarnessConfig::test_small();
    cfg.launch = launch;
    cfg.bigkernel.chunk_input_bytes = chunk_bytes;
    cfg.bigkernel.faults = faults;
    cfg.baseline.window_bytes = chunk_bytes.max(16 * 1024);
    cfg.gpus = gpus;
    let mut machine = Machine::test_platform();
    machine.replicate_gpus(gpus);
    let instance = app.instantiate(&mut machine, bytes, 42);
    let result = at_width(width, || {
        run_implementation(&mut machine, &instance, imp, &cfg)
    });
    if let Err(e) = (instance.verify)(&machine) {
        panic!(
            "{} failed verification under {} (pool width {width}): {e}",
            app.spec().name,
            imp.label()
        );
    }
    result
}

#[test]
fn bigkernel_parallel_is_bit_identical_for_every_app() {
    let launch = LaunchConfig::new(4, 32);
    for app in all_apps() {
        let par = run_once(
            app.as_ref(),
            Implementation::BigKernel,
            launch,
            16 * 1024,
            192 * 1024,
            2,
        );
        let seq = run_once(
            app.as_ref(),
            Implementation::BigKernel,
            launch,
            16 * 1024,
            192 * 1024,
            1,
        );
        assert_eq!(par, seq, "{}", app.spec().name);
    }
}

#[test]
fn baselines_parallel_is_bit_identical_for_every_app() {
    let launch = LaunchConfig::new(4, 32);
    for app in all_apps() {
        for imp in [
            Implementation::GpuSingleBuffer,
            Implementation::GpuDoubleBuffer,
        ] {
            let par = run_once(app.as_ref(), imp, launch, 32 * 1024, 128 * 1024, 2);
            let seq = run_once(app.as_ref(), imp, launch, 32 * 1024, 128 * 1024, 1);
            assert_eq!(par, seq, "{} under {}", app.spec().name, imp.label());
        }
    }
}

/// One golden row: app, implementation, total simulated seconds, per-stage
/// busy seconds (pipeline order), `pcie.h2d_bytes`, `pcie.d2h_bytes`. The
/// f64 literals are shortest round-trip forms, so comparing their bits is
/// exact.
type GoldenRow = (&'static str, &'static str, f64, &'static [f64], u64, u64);

/// Golden results of the staged and per-lane paths under
/// [`HarnessConfig::test_small`] (128 KiB per app, seed 42). The committed
/// benchmark snapshots only pin full BigKernel, so these rows are what holds
/// the buffered baselines and the overlap-only / volume-reduction variants
/// to their exact simulated times and transfer volumes.
#[rustfmt::skip]
const GOLDEN_STAGED_AND_PER_LANE: &[GoldenRow] = &[
    ("K-means", "gpu-single-buffer", 0.00020599712820512818, &[1.4003418803418795e-5, 6.184533333333334e-5, 9.222399999999999e-5, 3.0922666666666675e-5, 7.001709401709403e-6], 262144, 131072),
    ("K-means", "gpu-double-buffer", 0.00018003323076923078, &[1.40034188034188e-5, 6.184533333333334e-5, 9.222399999999999e-5, 3.0922666666666675e-5, 7.001709401709403e-6], 262144, 131072),
    ("K-means", "overlap-only", 0.000285035282051282, &[0.0, 3.0003418803418795e-5, 0.0001818453333333333, 8.153599999999997e-5, 5.092266666666665e-5, 7.001709401709416e-6], 262144, 131072),
    ("K-means", "volume-reduction", 0.0002853844210526315, &[2.1983999999999995e-5, 3.2383999999999994e-5, 0.00016682666666666666, 0.00010131200000000001, 4.1365333333333315e-5, 3.2336842105262973e-6], 81920, 37888),
    ("Word Count", "gpu-single-buffer", 0.0006908531282051281, &[7.005128205128222e-6, 3.092800000000002e-5, 0.0006529199999999999, 0.0, 0.0], 131136, 0),
    ("Word Count", "gpu-double-buffer", 0.0006718909401709401, &[7.005128205128203e-6, 3.0928e-5, 0.00065292, 0.0, 0.0], 131136, 0),
    ("Word Count", "overlap-only", 0.0006737412307692308, &[0.0, 1.5873504273504283e-5, 9.228266666666666e-5, 0.0006467, 0.0, 0.0], 147392, 0),
    ("Word Count", "volume-reduction", 0.000680984, &[2.7631999999999992e-5, 1.6246153846153834e-5, 9.228266666666666e-5, 0.0006467, 0.0, 0.0], 147392, 7168),
    ("Netflix", "gpu-single-buffer", 8.668e-5, &[6.999999999999996e-6, 3.0919999999999995e-5, 4.876000000000001e-5, 0.0, 0.0], 131040, 0),
    ("Netflix", "gpu-double-buffer", 6.772000000000001e-5, &[6.999999999999998e-6, 3.0919999999999995e-5, 4.876000000000001e-5, 0.0, 0.0], 131040, 0),
    ("Netflix", "overlap-only", 0.00012344991452991453, &[0.0, 1.6999999999999993e-5, 0.00011092, 4.576000000000001e-5, 0.0, 0.0], 131040, 0),
    ("Netflix", "volume-reduction", 0.00011869999999999998, &[1.3030666666666664e-5, 1.8188e-5, 0.00010327599999999999, 4.576000000000001e-5, 0.0, 0.0], 39312, 8960),
    ("Opinion Finder", "gpu-single-buffer", 6.926933606837607e-5, &[7.001709401709398e-6, 3.092266666666667e-5, 3.134496e-5, 0.0, 0.0], 131072, 0),
    ("Opinion Finder", "gpu-double-buffer", 5.030714803418803e-5, &[7.0017094017094e-6, 3.092266666666667e-5, 3.134495999999999e-5, 0.0, 0.0], 131072, 0),
    ("Opinion Finder", "overlap-only", 0.000101112134017094, &[0.0, 1.5001709401709397e-5, 9.092266666666665e-5, 2.578416e-5, 0.0, 0.0], 131072, 0),
    ("Opinion Finder", "volume-reduction", 0.00010672466666666664, &[2.1040000000000002e-5, 1.6191999999999997e-5, 8.797866666666664e-5, 3.779e-5, 0.0, 0.0], 95744, 22528),
    ("DNA Assembly", "gpu-single-buffer", 9.540437606837606e-5, &[7.001709401709398e-6, 3.092266666666667e-5, 5.748e-5, 0.0, 0.0], 131072, 0),
    ("DNA Assembly", "gpu-double-buffer", 7.644218803418804e-5, &[7.0017094017094e-6, 3.092266666666667e-5, 5.748000000000001e-5, 0.0, 0.0], 131072, 0),
    ("DNA Assembly", "overlap-only", 0.000107773094017094, &[0.0, 1.5001709401709397e-5, 9.092266666666665e-5, 5.205999999999999e-5, 0.0, 0.0], 131072, 0),
    ("DNA Assembly", "volume-reduction", 0.00010375733333333332, &[1.4832e-5, 1.2095999999999997e-5, 8.392533333333331e-5, 5.2060000000000006e-5, 0.0, 0.0], 47104, 12288),
    ("MasterCard Affinity", "gpu-single-buffer", 0.0001725709305982906, &[1.4013675213675205e-5, 8.732533333333334e-5, 5.674864000000002e-5, 1.2732e-5, 1.7512820512820466e-6], 327904, 32784),
    ("MasterCard Affinity", "gpu-double-buffer", 0.00014030788786324784, &[1.401367521367521e-5, 8.732533333333334e-5, 5.674864e-5, 1.2732e-5, 1.7512820512820466e-6], 327904, 32784),
    ("MasterCard Affinity", "overlap-only", 0.00024579708034188036, &[0.0, 3.2618803418803415e-5, 0.0002113893333333333, 4.644735999999998e-5, 0.0, 0.0], 376672, 32784),
    ("MasterCard Affinity", "volume-reduction", 0.0002837913333333333, &[4.264266666666667e-5, 2.7272888888888892e-5, 0.00017773466666666667, 5.346399999999999e-5, 4.273200000000002e-5, 5.794210526315774e-6], 212816, 54288),
    ("MasterCard Affinity (indexed)", "gpu-single-buffer", 0.0001134262564102564, &[1.4010256410256403e-5, 6.1856e-5, 3.756e-5, 0.0, 0.0], 262272, 0),
    ("MasterCard Affinity (indexed)", "gpu-double-buffer", 8.714454700854701e-5, &[1.4010256410256407e-5, 6.1856e-5, 3.756e-5, 0.0, 0.0], 262272, 0),
    ("MasterCard Affinity (indexed)", "overlap-only", 0.00019930379487179486, &[0.0, 3.174700854700854e-5, 0.00018456533333333333, 2.6400639999999992e-5, 0.0, 0.0], 294784, 0),
    ("MasterCard Affinity (indexed)", "volume-reduction", 0.000187616, &[2.947199999999999e-5, 3.1608e-5, 0.00016553599999999998, 2.6359999999999985e-5, 0.0, 0.0], 66432, 66432),
];

/// Golden results of full BigKernel under [`HarnessConfig::test_small`]
/// (128 KiB per app, seed 42). The benchmark snapshots pin BigKernel at
/// benchmark scale only; these rows hold its compute-stage busy time (and
/// every other stage) bit for bit at test scale, so a host-side refactor of
/// the address or compute half cannot move the model unnoticed.
#[rustfmt::skip]
const GOLDEN_BIGKERNEL: &[GoldenRow] = &[
    ("K-means", "bigkernel", 0.0002853844210526315, &[2.1983999999999995e-5, 3.2383999999999994e-5, 0.00016682666666666666, 0.00010131200000000001, 4.1365333333333315e-5, 3.2336842105262973e-6], 81920, 37888),
    ("Word Count", "bigkernel", 0.000680984, &[2.7631999999999992e-5, 1.6247863247863236e-5, 9.228799999999998e-5, 0.0006467, 0.0, 0.0], 147456, 7168),
    ("Netflix", "bigkernel", 0.00011875199999999999, &[1.3030666666666664e-5, 1.8188e-5, 0.000103328, 4.576000000000001e-5, 0.0, 0.0], 39936, 8960),
    ("Opinion Finder", "bigkernel", 0.00010676733333333332, &[2.1040000000000002e-5, 1.6191999999999997e-5, 8.802133333333332e-5, 3.7789999999999996e-5, 0.0, 0.0], 96256, 22528),
    ("DNA Assembly", "bigkernel", 0.00010375733333333332, &[1.4832e-5, 1.2095999999999997e-5, 8.392533333333331e-5, 5.2060000000000006e-5, 0.0, 0.0], 47104, 12288),
    ("MasterCard Affinity", "bigkernel", 0.00028388999999999997, &[4.2642666666666664e-5, 2.7278017094017098e-5, 0.00017779199999999997, 5.3464e-5, 4.2773333333333346e-5, 5.794210526315774e-6], 213504, 54784),
    ("MasterCard Affinity (indexed)", "bigkernel", 0.000188352, &[2.947199999999999e-5, 3.1608e-5, 0.000166272, 2.636e-5, 0.0, 0.0], 75264, 66432),
];

/// Run every app under each of `imps` at pool widths 2 and 1 and compare
/// against `golden`. On a mismatch the panic prints the
/// actual table in the same Rust syntax.
fn assert_golden(imps: &[Implementation], golden: &[GoldenRow]) {
    for width in [2, 1] {
        let mut actual = Vec::new();
        for app in all_apps() {
            for &imp in imps {
                let cfg = HarnessConfig::test_small();
                let mut machine = Machine::test_platform();
                let instance = app.instantiate(&mut machine, 128 * 1024, 42);
                let r = at_width(width, || {
                    run_implementation(&mut machine, &instance, imp, &cfg)
                });
                if let Err(e) = (instance.verify)(&machine) {
                    panic!(
                        "{} failed verification under {} (pool width {width}): {e}",
                        app.spec().name,
                        imp.label()
                    );
                }
                actual.push((
                    app.spec().name,
                    imp.label(),
                    r.total.secs(),
                    r.stages.iter().map(|s| s.busy.secs()).collect::<Vec<f64>>(),
                    r.metrics.get("pcie.h2d_bytes"),
                    r.metrics.get("pcie.d2h_bytes"),
                ));
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let matches = actual.len() == golden.len()
            && actual.iter().zip(golden).all(|(a, g)| {
                (a.0, a.1, a.2.to_bits(), bits(&a.3), a.4, a.5)
                    == (g.0, g.1, g.2.to_bits(), bits(g.3), g.4, g.5)
            });
        if !matches {
            let mut table = String::new();
            for (app, imp, total, stages, h2d, d2h) in &actual {
                table +=
                    &format!("    (\"{app}\", \"{imp}\", {total:?}, &{stages:?}, {h2d}, {d2h}),\n");
            }
            panic!("golden results diverged (pool width {width}); actual table:\n{table}");
        }
    }
}

/// The buffered baselines and the Fig. 5 variants land on their golden rows
/// at pool widths 2 and 1.
#[test]
fn baselines_and_variants_match_golden_results() {
    assert_golden(
        &[
            Implementation::GpuSingleBuffer,
            Implementation::GpuDoubleBuffer,
            Implementation::Variant(BigKernelVariant::OverlapOnly),
            Implementation::Variant(BigKernelVariant::VolumeReduction),
        ],
        GOLDEN_STAGED_AND_PER_LANE,
    );
}

/// Full BigKernel lands on its golden rows at pool widths 2 and 1.
#[test]
fn bigkernel_matches_golden_results() {
    assert_golden(&[Implementation::BigKernel], GOLDEN_BIGKERNEL);
}

/// Chunk sharding is a timing-level decision: with the machine replicated
/// to 2 or 4 devices, every application still verifies against the
/// pure-Rust reference, produces the same chunk count and transfer
/// volumes, and finishes no later than the single-device schedule.
#[test]
fn multi_gpu_runs_verify_and_match_single_gpu_for_every_app() {
    let launch = LaunchConfig::new(4, 32);
    for app in all_apps() {
        let one = run_on_gpus(
            app.as_ref(),
            Implementation::BigKernel,
            launch,
            16 * 1024,
            192 * 1024,
            2,
            1,
        );
        for gpus in [2usize, 4] {
            let many = run_on_gpus(
                app.as_ref(),
                Implementation::BigKernel,
                launch,
                16 * 1024,
                192 * 1024,
                2,
                gpus,
            );
            let name = app.spec().name;
            assert_eq!(
                one.chunks, many.chunks,
                "{name} chunk count changed at {gpus} GPUs"
            );
            for key in ["pcie.h2d_bytes", "pcie.d2h_bytes", "addr.encoded_bytes"] {
                assert_eq!(
                    one.metrics.get(key),
                    many.metrics.get(key),
                    "{name}: {key} changed at {gpus} GPUs"
                );
            }
            assert!(
                many.total <= one.total,
                "{name} got slower on {gpus} GPUs: {:?} vs {:?}",
                many.total,
                one.total
            );
            assert!(
                many.metrics.get("device.1.chunks") > 0,
                "{name}: device 1 received no chunks at {gpus} GPUs"
            );
        }
    }
}

/// Parallel-vs-sequential bit-identity must survive sharding: the block
/// algorithm and the multi-device executor compose.
#[test]
fn bigkernel_parallel_bit_identical_at_two_gpus() {
    let launch = LaunchConfig::new(4, 32);
    for app in all_apps() {
        let par = run_on_gpus(
            app.as_ref(),
            Implementation::BigKernel,
            launch,
            16 * 1024,
            192 * 1024,
            2,
            2,
        );
        let seq = run_on_gpus(
            app.as_ref(),
            Implementation::BigKernel,
            launch,
            16 * 1024,
            192 * 1024,
            1,
            2,
        );
        assert_eq!(par, seq, "{} at 2 GPUs", app.spec().name);
    }
}

/// A fault plan that exercises every recovery policy at once: random
/// transient faults at a rate that forces retries, a deterministic site
/// hammering one compute instance into the backoff path, and the death of
/// device 1 at wave 0 (so most chunks requeue onto device 0).
fn busy_plan() -> FaultPlan {
    FaultPlan {
        seed: 7,
        rate: 0.05,
        sites: vec![FaultSite {
            stage: FaultStage::Compute,
            chunk: 1,
            times: 2,
        }],
        device_failure: Some(DeviceFailure { device: 1, wave: 0 }),
        ..FaultPlan::default()
    }
}

/// The ISSUE's headline property: for every application, a seeded fault
/// plan that injects retries *and* kills a device mid-run still verifies
/// against the pure-Rust reference ([`run_faulted`] panics otherwise) and
/// leaves every functional metric bit-identical to the fault-free run.
/// Faults perturb durations and chunk placement only — never what executes.
#[test]
fn fault_injected_runs_produce_identical_outputs_for_every_app() {
    let launch = LaunchConfig::new(4, 32);
    for app in all_apps() {
        let name = app.spec().name;
        let clean = run_on_gpus(
            app.as_ref(),
            Implementation::BigKernel,
            launch,
            16 * 1024,
            192 * 1024,
            2,
            2,
        );
        let faulted = run_faulted(
            app.as_ref(),
            Implementation::BigKernel,
            launch,
            16 * 1024,
            192 * 1024,
            2,
            2,
            Some(busy_plan()),
        );
        assert_eq!(
            clean.chunks, faulted.chunks,
            "{name}: chunk count changed under faults"
        );
        for key in ["pcie.h2d_bytes", "pcie.d2h_bytes", "addr.encoded_bytes"] {
            assert_eq!(
                clean.metrics.get(key),
                faulted.metrics.get(key),
                "{name}: {key} changed under faults"
            );
        }
        // The plan really fired: the site guarantees injections and the
        // wave-0 device death guarantees requeued chunks.
        assert!(
            faulted.metrics.get("fault.injected") > 0,
            "{name}: no faults injected"
        );
        assert!(
            faulted.metrics.get("fault.retried") > 0,
            "{name}: no retries recorded"
        );
        assert!(
            faulted.metrics.get("fault.failed_over") > 0,
            "{name}: no chunks failed over"
        );
        assert!(
            faulted.total >= clean.total,
            "{name}: faults made the run faster ({:?} vs {:?})",
            faulted.total,
            clean.total
        );
    }
}

/// Same seed + same plan ⇒ same schedule, same output, same metrics — and
/// the host-parallel block simulation doesn't perturb any of it.
#[test]
fn same_fault_plan_is_bitwise_reproducible_for_every_app() {
    let launch = LaunchConfig::new(4, 32);
    for app in all_apps() {
        let runs: Vec<RunResult> = [2, 2, 1]
            .iter()
            .map(|&width| {
                run_faulted(
                    app.as_ref(),
                    Implementation::BigKernel,
                    launch,
                    16 * 1024,
                    192 * 1024,
                    width,
                    2,
                    Some(busy_plan()),
                )
            })
            .collect();
        assert_eq!(
            runs[0],
            runs[1],
            "{}: identical fault plans diverged",
            app.spec().name
        );
        assert_eq!(
            runs[0],
            runs[2],
            "{}: a fault plan diverged between parallel and sequential blocks",
            app.spec().name
        );
    }
}

/// Tracing must be observation-only: running with a live span-collection
/// guard yields a bit-identical [`RunResult`] (times, stages, metrics) to an
/// untraced run, for every app, under both the pipeline and the buffered
/// baseline. The dev-dependency compiles `bk-obs/trace` in, so this really
/// exercises the recording path — the guard collects spans while the
/// simulated result stays untouched.
#[test]
fn tracing_on_or_off_is_bit_identical_for_every_app() {
    let launch = LaunchConfig::new(4, 32);
    for app in all_apps() {
        for imp in [Implementation::BigKernel, Implementation::GpuDoubleBuffer] {
            let plain = run_once(app.as_ref(), imp, launch, 16 * 1024, 128 * 1024, 2);
            let guard = bk_obs::trace::start();
            let traced = run_once(app.as_ref(), imp, launch, 16 * 1024, 128 * 1024, 2);
            let spans = guard.finish();
            assert!(
                !spans.is_empty(),
                "{} under {} recorded no spans with tracing enabled",
                app.spec().name,
                imp.label()
            );
            assert_eq!(
                traced,
                plain,
                "{} under {} diverged with tracing enabled",
                app.spec().name,
                imp.label()
            );
        }
    }
}

/// Mega-kernel fusion (DESIGN.md §15) is a transfer-schedule decision, not
/// a functional one: with `--fuse`, every application's BigKernel run must
/// still verify bit-identical against the pure-Rust reference — fused where
/// the dependence analysis proves the pass pair safe, conservatively
/// refused (and therefore running the ordinary per-pass loop) otherwise.
/// Also pins which side of that line each app falls on, and that a refusal
/// really is a fallback: same simulated schedule as the unfused run.
#[test]
fn fused_runs_verify_identically_for_every_app() {
    let mut apps = all_apps();
    apps.push(Box::new(FilterCount));
    for app in apps {
        let name = app.spec().name;
        let run = |fuse: bool| {
            let mut cfg = HarnessConfig::test_small();
            cfg.fuse = fuse;
            let mut machine = Machine::test_platform();
            let instance = app.instantiate(&mut machine, 96 * 1024, 42);
            let result =
                run_implementation(&mut machine, &instance, Implementation::BigKernel, &cfg);
            if let Err(e) = (instance.verify)(&machine) {
                panic!("{name} failed verification (fuse={fuse}): {e}");
            }
            result
        };
        let off = run(false);
        let on = run(true);
        let fused = on.metrics.get("fusion.fused");
        let refused = on.metrics.get("fusion.refused");
        assert_eq!(
            fused + refused,
            1,
            "{name}: fusion must be taken or refused"
        );
        let expect_fused = matches!(name, "K-means" | "MasterCard Affinity" | "FilterCount");
        assert_eq!(
            fused == 1,
            expect_fused,
            "{name}: fused={fused} refused={refused}"
        );
        if refused == 1 {
            // The fallback is the unfused loop itself: identical schedule
            // and transfers, the refusal marker being the only trace.
            assert_eq!(on.total, off.total, "{name}: refused run changed timing");
            assert_eq!(on.chunks, off.chunks);
            for key in ["pcie.h2d_bytes", "pcie.d2h_bytes"] {
                assert_eq!(on.metrics.get(key), off.metrics.get(key), "{name}: {key}");
            }
        } else {
            let moved =
                |r: &RunResult| r.metrics.get("pcie.h2d_bytes") + r.metrics.get("pcie.d2h_bytes");
            assert!(
                moved(&on) < moved(&off),
                "{name}: fusion did not cut PCIe traffic ({} vs {})",
                moved(&on),
                moved(&off)
            );
        }
    }
}

/// Features in combination, all through the one pipeline runner: fusion ×
/// fault injection ([`busy_plan`]: retries plus a device death) × two GPUs.
/// For every application whose passes fuse, the combined run must verify
/// against the pure-Rust reference, leave every mapped non-scratch host
/// region bit-identical to the plain unfused run on one GPU, and its
/// critical-path blame must tile the makespan exactly.
#[test]
fn fused_faulted_multi_gpu_runs_match_the_clean_unfused_run() {
    let apps: Vec<Box<dyn BenchApp + Sync>> = vec![
        Box::new(KMeans::default()),
        Box::new(FilterCount),
        Box::new(Affinity::default()),
    ];
    for app in apps {
        let name = app.spec().name;
        let run = |composed: bool| {
            let mut cfg = HarnessConfig::test_small();
            if composed {
                cfg.fuse = true;
                cfg.gpus = 2;
                cfg.bigkernel.faults = Some(busy_plan());
            }
            let mut machine = Machine::test_platform();
            machine.replicate_gpus(cfg.gpus);
            let instance = app.instantiate(&mut machine, 96 * 1024, 42);
            let guard = bk_obs::critpath::capture();
            let result =
                run_implementation(&mut machine, &instance, Implementation::BigKernel, &cfg);
            let waves = guard.finish();
            if let Err(e) = (instance.verify)(&machine) {
                panic!("{name} failed verification (composed={composed}): {e}");
            }
            // Scratch intermediates are outputs of no one: the IR-fused
            // FilterCount kernel keeps its intermediate on the device and
            // never writes the scratch region.
            let regions: Vec<Vec<u8>> = instance
                .streams
                .iter()
                .filter(|s| !instance.scratch_streams.contains(&s.id))
                .map(|s| machine.hmem.bytes(s.region).to_vec())
                .collect();
            (result, waves, regions)
        };
        let (_, _, clean) = run(false);
        let (composed, waves, regions) = run(true);

        // Every feature really engaged.
        for key in ["fusion.fused", "fault.injected", "fault.failed_over"] {
            assert!(composed.metrics.get(key) > 0, "{name}: {key} is zero");
        }
        assert_eq!(regions, clean, "{name}: mapped streams diverged");

        let report = bk_obs::analyze(&waves);
        assert!(
            report.tiles_exactly(),
            "{name}: blame sums to {} ns, makespan is {} ns",
            report.blame_sum_ns(),
            report.makespan_ns
        );
        assert_eq!(
            report.makespan, composed.total,
            "{name}: analyzer makespan diverged from the simulated total"
        );
    }
}

/// The streaming contract (DESIGN.md §16): cutting a stream into
/// record-aligned windows and running each through the batch pipeline as it
/// arrives is a *scheduling* decision — for every application and every
/// window policy, the streamed run must verify against the pure-Rust
/// reference (`run_streamed` panics otherwise) and leave every mapped host
/// region bit-identical to the one-shot batch run.
#[test]
fn streamed_matches_batch_bit_identical_for_every_app() {
    let bytes = 96 * 1024;
    // Fast enough that arrival never limits the pipeline; the windows land
    // back-to-back exactly like batch partitions.
    let rate = 1e9;
    for app in all_apps() {
        let name = app.spec().name;
        let cfg = HarnessConfig::test_small();
        let mut batch = Machine::test_platform();
        let instance = app.instantiate(&mut batch, bytes, 42);
        run_implementation(&mut batch, &instance, Implementation::BigKernel, &cfg);
        if let Err(e) = (instance.verify)(&batch) {
            panic!("{name} failed batch verification: {e}");
        }

        for policy in [
            WindowPolicy::ByBytes(16 * 1024),
            WindowPolicy::ByRecords(256),
            WindowPolicy::ByInterval(SimTime::from_secs(bytes as f64 / rate / 8.0)),
        ] {
            let scfg = StreamConfig {
                policy,
                ..StreamConfig::default()
            };
            let (result, streamed) =
                run_streamed_at_rate(app.as_ref(), bytes, 42, &cfg, &scfg, rate);
            assert!(
                !result.windows.is_empty(),
                "{name} under {policy:?} produced no windows"
            );
            if matches!(policy, WindowPolicy::ByBytes(_)) {
                assert!(
                    result.windows.len() > 1,
                    "{name}: 16 KiB byte windows over 96 KiB must cut the stream"
                );
            }
            // Instantiation is deterministic on identical fresh machines, so
            // the batch instance's region ids address the streamed machine's
            // mapped arrays too.
            for s in &instance.streams {
                assert_eq!(
                    batch.hmem.bytes(s.region),
                    streamed.hmem.bytes(s.region),
                    "{name} under {policy:?}: mapped stream {:?} diverged from batch",
                    s.id
                );
            }
        }
    }
}

/// Bytes streamed by every tuned-stream run.
const TUNED_STREAM_BYTES: u64 = 96 * 1024;

/// One drifting app streamed through 32 KiB windows of 2 KiB chunks (eight
/// per block, enough for buffer-reuse stall at depth 3), with or without
/// the between-window tuner (DESIGN.md §12) at a hair-trigger stall
/// threshold, so the controller really re-plans depths and chunk size at
/// window boundaries. Every run must verify (`run_streamed` panics
/// otherwise).
fn tuned_stream(
    app: &dyn BenchApp,
    autotune: Option<AutotuneConfig>,
    width: usize,
) -> (StreamResult, Machine) {
    let mut cfg = HarnessConfig::test_small();
    cfg.bigkernel.chunk_input_bytes = 2 * 1024;
    let scfg = StreamConfig {
        policy: WindowPolicy::ByBytes(32 * 1024),
        redetect_threshold: 0.4,
        autotune,
        ..StreamConfig::default()
    };
    at_width(width, || {
        run_streamed_at_rate(app, TUNED_STREAM_BYTES, 42, &cfg, &scfg, 1e9)
    })
}

fn hair_trigger_tuner() -> AutotuneConfig {
    AutotuneConfig {
        stall_threshold: 0.01,
        ..AutotuneConfig::default()
    }
}

/// The between-window tuner end to end: on every drifting app, the tuned
/// streamed run leaves every mapped non-scratch host region bit-identical
/// to the untuned streamed run, and the tuner is really exercised (some
/// app re-plans, and some app deepens a reuse edge).
#[test]
fn autotuned_outputs_identical_to_untuned_for_every_app() {
    let mut total_retunes = 0u64;
    let mut deepened = false;
    for app in drifting_apps() {
        let name = app.spec().name;
        // Instantiation is deterministic on identical fresh machines, so
        // this instance's region ids address every run's mapped arrays.
        let instance = app.instantiate(
            &mut (HarnessConfig::test_small().machine)(),
            TUNED_STREAM_BYTES,
            42,
        );
        let regions = |m: &Machine| -> Vec<Vec<u8>> {
            instance
                .streams
                .iter()
                .filter(|s| !instance.scratch_streams.contains(&s.id))
                .map(|s| m.hmem.bytes(s.region).to_vec())
                .collect()
        };
        let (_, plain) = tuned_stream(app.as_ref(), None, 2);
        let (result, tuned) = tuned_stream(app.as_ref(), Some(hair_trigger_tuner()), 2);
        assert_eq!(
            regions(&tuned),
            regions(&plain),
            "{name}: tuned streamed run changed the mapped streams"
        );
        total_retunes += result.retunes;
        deepened |= result.metrics.get("autotune.depth") > 3;
    }
    assert!(
        total_retunes > 0,
        "no drifting app ever re-planned; the tuner was never exercised"
    );
    assert!(deepened, "no drifting app ever deepened a reuse edge");
}

/// Re-plans are pure functions of the recorded schedule, so the tuned
/// stream's re-plan sequence does not depend on host threading:
/// pool widths 2 and 1 must give the same [`StreamResult`] —
/// windows, `total` to the bit, chunks, retunes and every metric.
#[test]
fn autotune_replan_sequence_identical_across_thread_counts() {
    let mut total_retunes = 0u64;
    for app in drifting_apps() {
        let name = app.spec().name;
        let (par, _) = tuned_stream(app.as_ref(), Some(hair_trigger_tuner()), 2);
        let (seq, _) = tuned_stream(app.as_ref(), Some(hair_trigger_tuner()), 1);
        let model = |r: &StreamResult| {
            (
                r.windows.clone(),
                r.total.secs().to_bits(),
                r.chunks,
                r.retunes,
                r.metrics.clone(),
            )
        };
        assert_eq!(
            model(&par),
            model(&seq),
            "{name}: tuned stream diverged between parallel and sequential blocks"
        );
        total_retunes += par.retunes;
    }
    assert!(
        total_retunes > 0,
        "no drifting app ever re-planned; the comparison never saw a re-plan"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The bounded-queue no-deadlock property under faulty ingestion:
    /// whatever the queue bound, window shape, source rate and hiccup plan,
    /// the streamed run *drains* — every planned window is admitted and
    /// completed in finite simulated time, the windows tile the stream, the
    /// recorded queue depth never exceeds the bound, and backpressure is
    /// exactly the admission delay the recurrence charges
    /// (`admitted - ready`). Verification still passes (`run_streamed`
    /// panics otherwise), so hiccups delay the schedule without touching
    /// what executes.
    #[test]
    fn bounded_queue_drains_under_faulty_sources(
        bound in 1usize..=4,
        hiccups in 0usize..=8,
        pause_ms in 0u64..=80,
        window_kib in 4u64..=32,
        policy_kind in 0u8..3,
        rate_exp in 5i32..=9,
        seed in 0u64..1024,
    ) {
        let bytes = 64 * 1024;
        let rate = 10f64.powi(rate_exp);
        let policy = match policy_kind {
            0 => WindowPolicy::ByBytes(window_kib * 1024),
            1 => WindowPolicy::ByRecords(window_kib * 16),
            // An interval that would cut the (hiccup-free) stream into a
            // handful of windows; hiccups stretch quiet gaps the planner
            // must jump over rather than spin in.
            _ => WindowPolicy::ByInterval(SimTime::from_secs(
                bytes as f64 / rate / window_kib as f64,
            )),
        };
        let scfg = StreamConfig {
            policy,
            queue_bound: bound,
            ..StreamConfig::default()
        };
        let pause = SimTime::from_secs(pause_ms as f64 / 1e3);
        let app = WordCount::default();
        let (result, _machine) = run_streamed(&app, bytes, 42, &cfg_small(), &scfg, &|len| {
            Box::new(HiccupSource::new(ReplaySource::new(len, rate), hiccups, pause, seed))
        });

        prop_assert!(!result.windows.is_empty());
        let mut pos = 0u64;
        for w in &result.windows {
            prop_assert_eq!(w.window.start, pos, "windows must tile the stream");
            prop_assert!(w.window.end > w.window.start);
            pos = w.window.end;
            prop_assert!(w.admitted >= w.ready, "admission cannot precede arrival");
            prop_assert!(w.completed >= w.admitted, "completion cannot precede admission");
            prop_assert_eq!(
                w.backpressure,
                w.admitted.saturating_sub(w.ready),
                "backpressure must equal the admission delay"
            );
            prop_assert!(w.depth <= bound, "queue depth {} exceeded bound {}", w.depth, bound);
            prop_assert!(
                result.total >= w.completed,
                "a window completed after the reported total"
            );
        }
        prop_assert_eq!(pos, bytes, "windows must cover the whole stream");
    }
}

/// [`HarnessConfig::test_small`] (free fn so the proptest macro body stays
/// terse).
fn cfg_small() -> HarnessConfig {
    HarnessConfig::test_small()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Bit-identity holds for arbitrary launch geometries, not just the
    /// defaults: blocks (waves when > active limit), warp counts and chunk
    /// sizes all vary.
    #[test]
    fn bigkernel_parallel_bit_identical_over_random_geometry(
        blocks in 1u32..=24,
        warps in 1u32..=4,
        chunk_kib in 4u64..=64,
        bytes_kib in 32u64..=128,
        seed in 0u64..1024,
    ) {
        let launch = LaunchConfig::new(blocks, warps * 32);
        let chunk = chunk_kib * 1024;
        let bytes = bytes_kib * 1024;
        let app = KMeans::default();
        let run = |width: usize| {
            let mut cfg = HarnessConfig::test_small();
            cfg.launch = launch;
            cfg.bigkernel.chunk_input_bytes = chunk;
            let mut machine = Machine::test_platform();
            let instance = app.instantiate(&mut machine, bytes, seed);
            let result = at_width(width, || {
                run_implementation(&mut machine, &instance, Implementation::BigKernel, &cfg)
            });
            prop_assert!((instance.verify)(&machine).is_ok(), "verification failed");
            Ok(result)
        };
        let par = run(2)?;
        let seq = run(1)?;
        prop_assert_eq!(par, seq);
    }
}
