//! Critical-path bottleneck analyzer: where did the simulated time go, and
//! what single change would buy the most?
//!
//! For every selected app this runs the BigKernel pipeline once with
//! schedule capture enabled, reconstructs the critical path through the
//! makespan ([`bk_obs::critpath`]), prints per-stage / per-resource /
//! per-device blame tables, then ranks the standard what-if scenarios by
//! predicted speedup ([`bk_runtime::whatif`]). Structural scenarios — a
//! deeper reuse edge, one more device — are validated against actual
//! perturbed re-runs of the full pipeline.
//!
//! The binary doubles as the CI gate for the analyzer's core identities and
//! exits non-zero if any of these fail:
//!
//! * the critical-path segments do not tile the observed makespan exactly
//!   (integer-nanosecond identity: blame must sum to the makespan),
//! * the analyzer's makespan disagrees bit-for-bit with the run's
//!   simulated total (fault-free runs only),
//! * the identity what-if replay drifts more than 1e-6 relative, or
//! * a structural what-if prediction misses its actual re-run by > 1%.
//!
//! Usage mirrors the other experiment binaries:
//! `bottleneck [--mib N] [--seed S] [--app SUBSTR] [--threads N]
//! [--machine NAME] [--gpus N] [--reuse-depth N] [--buffers N]`.

use bk_apps::{run_implementation, HarnessConfig, Implementation};
use bk_bench::{all_apps, args::ExpArgs, short_name};
use bk_obs::critpath::WaveDag;
use bk_runtime::{whatif, Perturbation};
use bk_simcore::SimTime;

/// Structural predictions must land within this fraction of the actual
/// perturbed re-run (the acceptance bar; observed error is ~1e-9).
const STRUCTURAL_TOL: f64 = 0.01;
/// The identity replay re-derives the very schedule that was captured, so
/// it only accrues ulp-level error from reconstructing durations.
const IDENTITY_TOL: f64 = 1e-6;

/// One BigKernel run with the schedule-capture guard live.
fn run_captured(
    app: &dyn bk_apps::BenchApp,
    cfg: &HarnessConfig,
    bytes: u64,
    seed: u64,
) -> (bk_runtime::RunResult, Vec<WaveDag>) {
    let mut machine = cfg.build_machine();
    let instance = app.instantiate(&mut machine, bytes, seed);
    let guard = bk_obs::critpath::capture();
    let r = run_implementation(&mut machine, &instance, Implementation::BigKernel, cfg);
    (r, guard.finish())
}

/// Re-run the full pipeline with `p` applied through the config, for
/// prediction-vs-actual validation. Returns `None` for modeled
/// perturbations (no config spelling — they assume a cost model, not a
/// schedule change) and for the reuse edges the config cannot reach.
fn run_perturbed(
    app: &dyn bk_apps::BenchApp,
    cfg: &HarnessConfig,
    bytes: u64,
    seed: u64,
    p: &Perturbation,
) -> Option<SimTime> {
    let mut cfg = cfg.clone();
    match *p {
        Perturbation::SetReuseDepth {
            producer: 0,
            consumer: 3,
            depth,
        } => cfg.bigkernel.buffer_depth = depth,
        Perturbation::SetReuseDepth {
            producer: 3,
            consumer: 5,
            depth,
        } => cfg.bigkernel.wb_buffer_depth = Some(depth),
        Perturbation::AddDevice => cfg.gpus += 1,
        _ => return None,
    }
    let mut machine = cfg.build_machine();
    let instance = app.instantiate(&mut machine, bytes, seed);
    Some(run_implementation(&mut machine, &instance, Implementation::BigKernel, &cfg).total)
}

fn print_blame<K: std::fmt::Display>(label: &str, items: &[(K, u64)], report: &bk_obs::CritReport) {
    print!("  {label:<12}");
    for (name, ns) in items.iter().take(6) {
        print!("  {}={:.1}%", name, report.share(*ns) * 100.0);
    }
    println!();
}

fn main() {
    let args = ExpArgs::from_env();
    let mut cfg = HarnessConfig::paper_scaled(args.bytes);
    args.apply(&mut cfg);
    // The makespan identity and the structural re-runs both assume the
    // captured schedule is the pure depth/device configuration; fault plans
    // perturb durations, so a faulted run only gets the (always-checked)
    // tiling identity.
    let pure = cfg.bigkernel.faults.is_none();

    let mut failures = 0usize;
    let mut ran = 0usize;
    for app in all_apps() {
        let name = app.spec().name;
        if !args.selected(name) {
            continue;
        }
        ran += 1;
        let (r, waves) = run_captured(app.as_ref(), &cfg, args.bytes, args.seed);
        let report = bk_obs::analyze(&waves);

        println!(
            "== {} ==  makespan {}  ({} ns, {} waves, {} critical segments)",
            short_name(name),
            report.makespan,
            report.makespan_ns,
            report.waves,
            report.segments.len()
        );
        if !report.tiles_exactly() {
            eprintln!(
                "FAILED: critical-path blame sums to {} ns, observed makespan {} ns",
                report.blame_sum_ns(),
                report.makespan_ns
            );
            failures += 1;
        }
        if pure && report.makespan != r.total {
            eprintln!(
                "FAILED: analyzer makespan {} != simulated total {}",
                report.makespan, r.total
            );
            failures += 1;
        }
        print_blame("by stage:", &report.stage_blame, &report);
        print_blame("by resource:", &report.resource_blame, &report);
        let devs: Vec<(String, u64)> = report
            .device_blame
            .iter()
            .map(|&(d, ns)| (format!("dev{d}"), ns))
            .collect();
        print_blame("by device:", &devs, &report);
        if !report.reuse_blame.is_empty() {
            print!("  reuse back-pressure on path:");
            for &(consumer, ns) in &report.reuse_blame {
                print!("  consumer#{consumer}={:.3}ms", ns as f64 / 1e6);
            }
            println!();
        }

        match whatif::predict(&waves, cfg.gpus, &Perturbation::Identity) {
            Some(identity) => {
                let err = (identity.secs() - report.makespan.secs()).abs()
                    / report.makespan.secs().max(1e-12);
                if err > IDENTITY_TOL {
                    eprintln!(
                        "FAILED: identity replay {} vs observed {} (rel err {err:.2e})",
                        identity, report.makespan
                    );
                    failures += 1;
                }
            }
            None => {
                eprintln!("FAILED: identity replay could not re-schedule the capture");
                failures += 1;
            }
        }

        println!("  what-if (ranked by predicted speedup):");
        for p in whatif::rank(&waves, cfg.gpus) {
            print!(
                "    {:<28} {:>5.2}x -> {}  [{}]",
                p.scenario.label,
                p.speedup,
                p.makespan,
                if p.scenario.modeled {
                    "modeled"
                } else {
                    "structural"
                }
            );
            if pure && !p.scenario.modeled {
                if let Some(actual) = run_perturbed(
                    app.as_ref(),
                    &cfg,
                    args.bytes,
                    args.seed,
                    &p.scenario.perturbation,
                ) {
                    let err = (p.makespan.secs() - actual.secs()).abs() / actual.secs().max(1e-12);
                    print!("  actual {} (err {:.4}%)", actual, err * 100.0);
                    if err > STRUCTURAL_TOL {
                        println!();
                        eprintln!(
                            "FAILED: {:?} predicted {} but actual re-run took {}",
                            p.scenario.label, p.makespan, actual
                        );
                        failures += 1;
                        continue;
                    }
                }
            }
            println!();
        }
    }

    if ran == 0 {
        eprintln!("no app matches the --app filter");
        std::process::exit(2);
    }
    if failures > 0 {
        eprintln!("{failures} critical-path / what-if checks FAILED");
        std::process::exit(1);
    }
    println!("all critical-path identities and what-if validations passed");
}
