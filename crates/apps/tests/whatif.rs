//! What-if replay soundness, end to end: for every evaluation application
//! the predictions produced by re-running the pure scheduler over a
//! captured schedule must match *actual* perturbed re-runs of the full
//! pipeline.
//!
//! Two layers of guarantee:
//!
//! * **Identity** — replaying the captured schedule unperturbed reproduces
//!   the observed simulated total to ulp-level error, and the critical-path
//!   analyzer's per-app blame tiles that makespan exactly in integer
//!   nanoseconds.
//! * **Structural scenarios** — a deeper data-reuse edge, a deeper
//!   write-back edge, and one more device each have an exact config
//!   spelling, so the prediction is checked against a real re-run within
//!   1% (the acceptance bar; the observed error is ~1e-9 — durations are
//!   device-independent and the scheduler is pure).

use bk_apps::affinity::{Affinity, AffinityIndexed};
use bk_apps::dna::DnaAssembly;
use bk_apps::kmeans::KMeans;
use bk_apps::netflix::Netflix;
use bk_apps::opinion::OpinionFinder;
use bk_apps::wordcount::WordCount;
use bk_apps::{run_implementation, BenchApp, HarnessConfig, Implementation};
use bk_obs::critpath::WaveDag;
use bk_runtime::{whatif, LaunchConfig, Machine, Perturbation, RunResult};

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

/// The test geometry's BigKernel reuse edges (§IV.C): stage 0 → 3 at the
/// data depth, stage 3 → 5 at the write-back depth.
const DATA_DEPTH: usize = 3;

/// One verified BigKernel run with schedule capture live.
fn run_captured(
    app: &dyn BenchApp,
    gpus: usize,
    depth: usize,
    wb_depth: Option<usize>,
) -> (RunResult, Vec<WaveDag>) {
    let mut cfg = HarnessConfig::test_small();
    cfg.launch = LaunchConfig::new(4, 32);
    cfg.bigkernel.chunk_input_bytes = 16 * 1024;
    cfg.bigkernel.buffer_depth = depth;
    cfg.bigkernel.wb_buffer_depth = wb_depth;
    cfg.gpus = gpus;
    let mut machine = Machine::test_platform();
    machine.replicate_gpus(gpus);
    let instance = app.instantiate(&mut machine, 192 * 1024, 42);
    let guard = bk_obs::critpath::capture();
    let result = run_implementation(&mut machine, &instance, Implementation::BigKernel, &cfg);
    if let Err(e) = (instance.verify)(&machine) {
        panic!("{} failed verification: {e}", app.spec().name);
    }
    (result, guard.finish())
}

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-12)
}

#[test]
fn identity_replay_and_blame_tiling_hold_for_every_app() {
    for app in all_apps() {
        let name = app.spec().name;
        let (r, waves) = run_captured(app.as_ref(), 1, DATA_DEPTH, None);
        assert!(!waves.is_empty(), "{name}: no waves captured");

        let report = bk_obs::analyze(&waves);
        assert!(
            report.tiles_exactly(),
            "{name}: blame sums to {} ns, makespan is {} ns",
            report.blame_sum_ns(),
            report.makespan_ns
        );
        assert_eq!(
            report.makespan, r.total,
            "{name}: analyzer makespan diverged from the simulated total"
        );

        let identity =
            whatif::predict(&waves, 1, &Perturbation::Identity).expect("identity replay");
        assert!(
            rel_err(identity.secs(), r.total.secs()) < 1e-9,
            "{name}: identity replay {} vs observed {}",
            identity,
            r.total
        );
    }
}

/// A re-run's `(gpus, data depth, write-back depth)` configuration.
type RerunConfig = (usize, usize, Option<usize>);

#[test]
fn structural_predictions_match_actual_reruns_for_every_app() {
    for app in all_apps() {
        let name = app.spec().name;
        let (base, waves) = run_captured(app.as_ref(), 1, DATA_DEPTH, None);

        // Each structural perturbation paired with its config spelling.
        // Deepening one edge pins the other at the baseline depth (the
        // write-back depth follows the data depth when unset).
        let cases: Vec<(&str, Perturbation, RerunConfig)> = vec![
            (
                "deeper data reuse",
                Perturbation::SetReuseDepth {
                    producer: 0,
                    consumer: 3,
                    depth: DATA_DEPTH * 2,
                },
                (1, DATA_DEPTH * 2, Some(DATA_DEPTH)),
            ),
            (
                "deeper write-back reuse",
                Perturbation::SetReuseDepth {
                    producer: 3,
                    consumer: 5,
                    depth: DATA_DEPTH * 2,
                },
                (1, DATA_DEPTH, Some(DATA_DEPTH * 2)),
            ),
            (
                "one more device",
                Perturbation::AddDevice,
                (2, DATA_DEPTH, None),
            ),
        ];

        for (label, perturbation, (gpus, depth, wb)) in cases {
            let predicted = whatif::predict(&waves, 1, &perturbation)
                .unwrap_or_else(|| panic!("{name}: {label} failed to replay"));
            let (actual, _) = run_captured(app.as_ref(), gpus, depth, wb);
            let err = rel_err(predicted.secs(), actual.total.secs());
            assert!(
                err < 0.01,
                "{name}: {label} predicted {} but the actual re-run took {} (rel err {err:.2e})",
                predicted,
                actual.total
            );
            // Not bit-exact for multi-pass apps: the replay folds all
            // passes' waves in one sum while the harness sums per pass,
            // so allow ulp-level association error.
            assert!(
                predicted.secs() <= base.total.secs() * (1.0 + 1e-12),
                "{name}: {label} predicted a slowdown ({} vs base {})",
                predicted,
                base.total
            );
        }
    }
}
