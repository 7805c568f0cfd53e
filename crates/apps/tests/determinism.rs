//! Parallel-vs-sequential determinism suite.
//!
//! The block-wave simulation may run on multiple host threads
//! (`parallel_blocks`), but device effects replay in block order against a
//! read snapshot, so a parallel run must be *bit-identical* to the
//! sequential schedule: same simulated times, same counters, same verified
//! outputs. These tests pin that property for every evaluation application
//! and for the buffered GPU baselines, plus a property test over random
//! launch geometries.

use bk_apps::affinity::{Affinity, AffinityIndexed};
use bk_apps::dna::DnaAssembly;
use bk_apps::filtercount::FilterCount;
use bk_apps::kmeans::KMeans;
use bk_apps::netflix::Netflix;
use bk_apps::opinion::OpinionFinder;
use bk_apps::wordcount::WordCount;
use bk_apps::{
    run_implementation, run_streamed, run_streamed_at_rate, BenchApp, HarnessConfig, Implementation,
};
use bk_runtime::stream::{HiccupSource, ReplaySource};
use bk_runtime::{
    AutotuneConfig, DeviceFailure, FaultPlan, FaultSite, FaultStage, LaunchConfig, Machine,
    RunResult, StreamConfig, WindowPolicy,
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

/// One verified run of `app` under `imp` with the given geometry; panics if
/// the output diverges from the pure-Rust reference.
fn run_once(
    app: &dyn BenchApp,
    imp: Implementation,
    launch: LaunchConfig,
    chunk_bytes: u64,
    bytes: u64,
    parallel: bool,
) -> RunResult {
    run_on_gpus(app, imp, launch, chunk_bytes, bytes, parallel, 1)
}

/// [`run_once`] on a machine with `gpus` replicated devices.
#[allow(clippy::too_many_arguments)]
fn run_on_gpus(
    app: &dyn BenchApp,
    imp: Implementation,
    launch: LaunchConfig,
    chunk_bytes: u64,
    bytes: u64,
    parallel: bool,
    gpus: usize,
) -> RunResult {
    run_faulted(app, imp, launch, chunk_bytes, bytes, parallel, gpus, None)
}

/// [`run_on_gpus`] with an optional fault-injection plan.
#[allow(clippy::too_many_arguments)]
fn run_faulted(
    app: &dyn BenchApp,
    imp: Implementation,
    launch: LaunchConfig,
    chunk_bytes: u64,
    bytes: u64,
    parallel: bool,
    gpus: usize,
    faults: Option<FaultPlan>,
) -> RunResult {
    let mut cfg = HarnessConfig::test_small();
    cfg.launch = launch;
    cfg.bigkernel.chunk_input_bytes = chunk_bytes;
    cfg.bigkernel.parallel_blocks = parallel;
    cfg.bigkernel.faults = faults;
    cfg.baseline.window_bytes = chunk_bytes.max(16 * 1024);
    cfg.baseline.parallel_blocks = parallel;
    cfg.gpus = gpus;
    let mut machine = Machine::test_platform();
    machine.replicate_gpus(gpus);
    let instance = app.instantiate(&mut machine, bytes, 42);
    let result = run_implementation(&mut machine, &instance, imp, &cfg);
    if let Err(e) = (instance.verify)(&machine) {
        panic!(
            "{} failed verification under {} (parallel={parallel}): {e}",
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
            true,
        );
        let seq = run_once(
            app.as_ref(),
            Implementation::BigKernel,
            launch,
            16 * 1024,
            192 * 1024,
            false,
        );
        assert_eq!(
            par,
            seq,
            "{} parallel vs sequential RunResult diverged",
            app.spec().name
        );
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
            let par = run_once(app.as_ref(), imp, launch, 32 * 1024, 128 * 1024, true);
            let seq = run_once(app.as_ref(), imp, launch, 32 * 1024, 128 * 1024, false);
            assert_eq!(
                par,
                seq,
                "{} under {} parallel vs sequential diverged",
                app.spec().name,
                imp.label()
            );
        }
    }
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
            true,
            1,
        );
        for gpus in [2usize, 4] {
            let many = run_on_gpus(
                app.as_ref(),
                Implementation::BigKernel,
                launch,
                16 * 1024,
                192 * 1024,
                true,
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

/// Parallel-vs-sequential bit-identity must survive sharding: the two-phase
/// block simulation and the multi-device executor compose.
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
            true,
            2,
        );
        let seq = run_on_gpus(
            app.as_ref(),
            Implementation::BigKernel,
            launch,
            16 * 1024,
            192 * 1024,
            false,
            2,
        );
        assert_eq!(par, seq, "{} diverged at 2 GPUs", app.spec().name);
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
            true,
            2,
        );
        let faulted = run_faulted(
            app.as_ref(),
            Implementation::BigKernel,
            launch,
            16 * 1024,
            192 * 1024,
            true,
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
        let runs: Vec<RunResult> = [true, true, false]
            .iter()
            .map(|&parallel| {
                run_faulted(
                    app.as_ref(),
                    Implementation::BigKernel,
                    launch,
                    16 * 1024,
                    192 * 1024,
                    parallel,
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
            "{}: fault plan diverged parallel vs sequential",
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
            let plain = run_once(app.as_ref(), imp, launch, 16 * 1024, 128 * 1024, true);
            let guard = bk_obs::trace::start();
            let traced = run_once(app.as_ref(), imp, launch, 16 * 1024, 128 * 1024, true);
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

/// [`run_faulted`] with the adaptive occupancy autotuner enabled at the
/// given starting reuse depth; panics if the tuned run fails verification.
#[allow(clippy::too_many_arguments)]
fn run_tuned(
    app: &dyn BenchApp,
    launch: LaunchConfig,
    chunk_bytes: u64,
    bytes: u64,
    parallel: bool,
    depth: usize,
    tune: AutotuneConfig,
    faults: Option<FaultPlan>,
) -> RunResult {
    let mut cfg = HarnessConfig::test_small();
    cfg.launch = launch;
    cfg.bigkernel.chunk_input_bytes = chunk_bytes;
    cfg.bigkernel.parallel_blocks = parallel;
    cfg.bigkernel.buffer_depth = depth;
    cfg.bigkernel.autotune = Some(tune);
    cfg.bigkernel.faults = faults;
    let mut machine = Machine::test_platform();
    let instance = app.instantiate(&mut machine, bytes, 42);
    let result = run_implementation(&mut machine, &instance, Implementation::BigKernel, &cfg);
    if let Err(e) = (instance.verify)(&machine) {
        panic!(
            "{} failed verification with autotune (parallel={parallel}): {e}",
            app.spec().name
        );
    }
    result
}

/// The autotuner's determinism contract, half one: tuning re-plans the
/// schedule, never the computation. For every application an autotuned run
/// verifies against the pure-Rust reference (bit-identical outputs — the
/// verify closure compares machine state) and its functional stream byte
/// counters match the untuned run exactly.
#[test]
fn autotuned_outputs_identical_to_untuned_for_every_app() {
    let launch = LaunchConfig::new(4, 32);
    // Freeze the chunk knob (min == max == the configured chunk size): a
    // wave-boundary re-chunk moves chunk *boundaries*, which legitimately
    // shifts per-chunk edge-read accounting while leaving the outputs
    // untouched (verification still passes either way — `run_tuned` panics
    // otherwise). Pinning it lets this test demand exact counter equality
    // for the depth/buffer re-plans, which never touch execution at all.
    let tune = AutotuneConfig {
        min_chunk_bytes: 16 * 1024,
        max_chunk_bytes: 16 * 1024,
        ..AutotuneConfig::default()
    };
    for app in all_apps() {
        let name = app.spec().name;
        let plain = run_once(
            app.as_ref(),
            Implementation::BigKernel,
            launch,
            16 * 1024,
            192 * 1024,
            true,
        );
        let tuned = run_tuned(
            app.as_ref(),
            launch,
            16 * 1024,
            192 * 1024,
            true,
            3,
            tune.clone(),
            None,
        );
        for key in ["stream.bytes_read", "stream.bytes_written"] {
            assert_eq!(
                plain.metrics.get(key),
                tuned.metrics.get(key),
                "{name}: {key} changed with autotune enabled"
            );
        }
        assert!(
            tuned.metrics.get("autotune.windows") > 0,
            "{name}: tuner never observed a window"
        );
    }
}

/// Determinism contract, half two: re-plan decisions are pure functions of
/// the recorded schedule, so the same seed reproduces the same re-plan
/// sequence regardless of host threading. The full [`RunResult`] — including
/// `autotune.retune` and the `hist.autotune.depth` decision trace — is
/// bit-identical between parallel and sequential block simulation.
#[test]
fn autotune_replan_sequence_identical_across_thread_counts() {
    let launch = LaunchConfig::new(4, 32);
    // Start shallow with a hair-trigger threshold so the controller really
    // acts (stall fractions at test scale are small but nonzero).
    let tune = AutotuneConfig {
        interval: 2,
        stall_threshold: 0.01,
        ..AutotuneConfig::default()
    };
    let mut total_retunes = 0u64;
    for app in all_apps() {
        let par = run_tuned(
            app.as_ref(),
            launch,
            16 * 1024,
            192 * 1024,
            true,
            1,
            tune.clone(),
            None,
        );
        let seq = run_tuned(
            app.as_ref(),
            launch,
            16 * 1024,
            192 * 1024,
            false,
            1,
            tune.clone(),
            None,
        );
        assert_eq!(
            par,
            seq,
            "{}: autotuned run diverged parallel vs sequential",
            app.spec().name
        );
        total_retunes += par.metrics.get("autotune.retune");
    }
    assert!(
        total_retunes > 0,
        "no app ever re-planned; the sequence being pinned is empty"
    );
}

/// Fault interplay: when the recovery ladder degrades the stage graph
/// mid-run, the controller adopts the degraded depths and keeps tuning from
/// there ("retuned, not reset") — the run verifies, records both the
/// degradation and the adoption re-plan, and stays bit-reproducible.
#[test]
fn degraded_graph_is_retuned_not_reset() {
    let launch = LaunchConfig::new(4, 32);
    // times > max_retries (3) forces a degradation at chunk 1.
    let plan = FaultPlan {
        seed: 7,
        rate: 0.0,
        sites: vec![FaultSite {
            stage: FaultStage::Compute,
            chunk: 1,
            times: 5,
        }],
        device_failure: None,
        ..FaultPlan::default()
    };
    let app = KMeans::default();
    let run = |parallel| {
        run_tuned(
            &app,
            launch,
            16 * 1024,
            192 * 1024,
            parallel,
            3,
            AutotuneConfig::default(),
            Some(plan.clone()),
        )
    };
    let r = run(true);
    assert!(
        r.metrics.get("fault.degraded") > 0,
        "the fault site never degraded the graph"
    );
    assert!(
        r.metrics.get("autotune.retune") >= 1,
        "tuner did not adopt the degraded graph as a re-plan"
    );
    assert_eq!(
        r,
        run(false),
        "degraded+tuned run diverged across threading"
    );
}

/// The raw-speed assembly knobs (DESIGN.md §13) never change what a run
/// computes: every (simd, order) combination must verify against the
/// pure-Rust reference, and the SIMD dispatch specifically must be
/// invisible to the simulated timeline (identical total and per-stage
/// times; only the `assembly.simd_runs`/`scalar_runs` diagnostics may
/// differ). Gather *ordering* legitimately changes the simulated LLC
/// sequence — that is its purpose — so only outputs are pinned across
/// orders.
#[test]
fn assembly_knobs_preserve_outputs_and_simd_preserves_timing() {
    use bk_runtime::AssemblyOrder;
    let launch = LaunchConfig::new(4, 32);
    for app in all_apps() {
        let run_with = |simd: bool, order: AssemblyOrder| {
            let mut cfg = HarnessConfig::test_small();
            cfg.launch = launch;
            cfg.bigkernel.chunk_input_bytes = 16 * 1024;
            cfg.bigkernel.simd_gather = simd;
            cfg.bigkernel.assembly_order = order;
            let mut machine = Machine::test_platform();
            let instance = app.instantiate(&mut machine, 192 * 1024, 42);
            let result =
                run_implementation(&mut machine, &instance, Implementation::BigKernel, &cfg);
            if let Err(e) = (instance.verify)(&machine) {
                panic!(
                    "{} failed verification (simd={simd}, order={order:?}): {e}",
                    app.spec().name
                );
            }
            result
        };
        for order in [
            AssemblyOrder::Auto,
            AssemblyOrder::Natural,
            AssemblyOrder::CacheBlocked,
        ] {
            let on = run_with(true, order);
            let off = run_with(false, order);
            assert_eq!(
                on.total,
                off.total,
                "{} simulated total changed with SIMD under {order:?}",
                app.spec().name
            );
            assert_eq!(
                on.stages,
                off.stages,
                "{} per-stage times changed with SIMD under {order:?}",
                app.spec().name
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
/// fault injection ([`busy_plan`]: retries plus a device death) × the
/// adaptive autotuner × two GPUs. For every application whose passes fuse,
/// the combined run must verify against the pure-Rust reference, leave every
/// mapped non-scratch host region bit-identical to the plain unfused run on
/// one GPU, and
/// its critical-path blame must tile the makespan exactly.
#[test]
fn fused_faulted_autotuned_multi_gpu_runs_match_the_clean_unfused_run() {
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
                cfg.bigkernel.autotune = Some(AutotuneConfig::default());
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
        for key in [
            "fusion.fused",
            "fault.injected",
            "fault.failed_over",
            "autotune.windows",
        ] {
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
        let run = |parallel: bool| {
            let mut cfg = HarnessConfig::test_small();
            cfg.launch = launch;
            cfg.bigkernel.chunk_input_bytes = chunk;
            cfg.bigkernel.parallel_blocks = parallel;
            let mut machine = Machine::test_platform();
            let instance = app.instantiate(&mut machine, bytes, seed);
            let result =
                run_implementation(&mut machine, &instance, Implementation::BigKernel, &cfg);
            prop_assert!((instance.verify)(&machine).is_ok(), "verification failed");
            Ok(result)
        };
        let par = run(true)?;
        let seq = run(false)?;
        prop_assert_eq!(par, seq);
    }
}
