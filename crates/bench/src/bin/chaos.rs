//! Chaos experiment: sweep deterministic fault-injection rates over the
//! BigKernel pipeline and measure the recovery ladder's cost (simulated
//! time, not wall clock). Writes `BENCH_chaos.json` and prints two tables:
//!
//! * **sweep** — every selected app at each fault rate, with the slowdown
//!   relative to the fault-free run and the `fault.*` recovery counters.
//!   Every run is verified against the pure-Rust reference: outputs must be
//!   identical to the fault-free run for any plan that completes (faults
//!   perturb only durations and chunk placement, never functional order).
//! * **failover** — each app on 2 simulated GPUs with one device killed at
//!   wave 0, exercising the chunk-requeue path end to end.
//!
//! Usage mirrors the other experiment binaries:
//! `chaos [--mib N] [--seed S] [--app SUBSTR] [--threads N]
//! [--machine NAME] [--gpus N] [--faults SPEC]`.
//! A `--faults` spec seeds the sweep template (its `retries`, `backoff_us`
//! and `fail=` sites are kept; the rate is overridden per sweep point).

use bk_apps::{run_implementation, HarnessConfig, Implementation};
use bk_bench::{all_apps, args::ExpArgs, short_name};
use bk_runtime::{DeviceFailure, FaultPlan};
use std::fmt::Write as _;

/// Fault rates swept per app; 0.0 is the fault-free baseline row.
const RATES: [f64; 4] = [0.0, 0.005, 0.02, 0.05];

/// Wave the failover section kills a device at (early, so most chunks
/// requeue).
const KILL_WAVE: usize = 0;

/// One (app, rate) sweep point.
struct SweepRow {
    app: &'static str,
    rate: f64,
    sim_secs: f64,
    /// Simulated time relative to the same app's fault-free run (1.0 = no
    /// cost).
    slowdown: f64,
    verified: bool,
    injected: u64,
    retried: u64,
    failed_over: u64,
    degraded: u64,
}

/// One device-failure run (2 GPUs, one killed).
struct FailoverRow {
    app: &'static str,
    gpus: usize,
    killed_device: usize,
    sim_secs: f64,
    clean_sim_secs: f64,
    slowdown: f64,
    failed_over: u64,
    verified: bool,
}

/// Run one app under BigKernel with `faults`, verifying the output.
fn run_with_faults(
    app: &dyn bk_apps::BenchApp,
    cfg: &HarnessConfig,
    bytes: u64,
    seed: u64,
    faults: Option<FaultPlan>,
) -> (bk_runtime::RunResult, bool) {
    let mut cfg = cfg.clone();
    cfg.bigkernel.faults = faults;
    let mut machine = cfg.build_machine();
    let instance = app.instantiate(&mut machine, bytes, seed);
    let r = run_implementation(&mut machine, &instance, Implementation::BigKernel, &cfg);
    let verified = (instance.verify)(&machine).is_ok();
    (r, verified)
}

fn sweep(args: &ExpArgs, cfg: &HarnessConfig, template: &FaultPlan) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for app in all_apps() {
        let name = app.spec().name;
        if !args.selected(name) {
            continue;
        }
        let mut clean_secs = 0.0;
        for rate in RATES {
            let faults = (rate > 0.0).then(|| FaultPlan {
                rate,
                device_failure: None,
                ..template.clone()
            });
            let (r, verified) = run_with_faults(app.as_ref(), cfg, args.bytes, args.seed, faults);
            if rate == 0.0 {
                clean_secs = r.total.secs();
            }
            rows.push(SweepRow {
                app: short_name(name),
                rate,
                sim_secs: r.total.secs(),
                slowdown: if clean_secs > 0.0 {
                    r.total.secs() / clean_secs
                } else {
                    1.0
                },
                verified,
                injected: r.metrics.get("fault.injected"),
                retried: r.metrics.get("fault.retried"),
                failed_over: r.metrics.get("fault.failed_over"),
                degraded: r.metrics.get("fault.degraded"),
            });
        }
    }
    rows
}

fn failover(args: &ExpArgs, cfg: &HarnessConfig, template: &FaultPlan) -> Vec<FailoverRow> {
    // Device death needs survivors; run this section on at least 2 GPUs.
    let mut cfg = cfg.clone();
    cfg.gpus = cfg.gpus.max(2);
    let killed = cfg.gpus - 1;
    let mut rows = Vec::new();
    for app in all_apps() {
        let name = app.spec().name;
        if !args.selected(name) {
            continue;
        }
        let (clean, _) = run_with_faults(app.as_ref(), &cfg, args.bytes, args.seed, None);
        let plan = FaultPlan {
            rate: 0.0,
            sites: Vec::new(),
            device_failure: Some(DeviceFailure {
                device: killed,
                wave: KILL_WAVE,
            }),
            ..template.clone()
        };
        let (r, verified) = run_with_faults(app.as_ref(), &cfg, args.bytes, args.seed, Some(plan));
        rows.push(FailoverRow {
            app: short_name(name),
            gpus: cfg.gpus,
            killed_device: killed,
            sim_secs: r.total.secs(),
            clean_sim_secs: clean.total.secs(),
            slowdown: if clean.total.secs() > 0.0 {
                r.total.secs() / clean.total.secs()
            } else {
                1.0
            },
            failed_over: r.metrics.get("fault.failed_over"),
            verified,
        });
    }
    rows
}

fn to_json(args: &ExpArgs, template: &FaultPlan, rows: &[SweepRow], fo: &[FailoverRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bytes_per_app\": {},", args.bytes);
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    let mut apps: Vec<&str> = rows.iter().map(|r| r.app).collect();
    apps.dedup();
    let _ = writeln!(
        out,
        "  \"provenance\": {},",
        args.provenance_json("chaos", &apps)
    );
    let _ = writeln!(out, "  \"fault_seed\": {},", template.seed);
    let _ = writeln!(out, "  \"max_retries\": {},", template.max_retries);
    let _ = writeln!(out, "  \"backoff_us\": {:.3},", template.backoff.micros());
    let _ = write!(out, "  \"rates\": [");
    for (i, r) in RATES.iter().enumerate() {
        let _ = write!(out, "{}{:.4}", if i > 0 { ", " } else { "" }, r);
    }
    let _ = writeln!(out, "],");
    let _ = writeln!(out, "  \"sweep\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"app\": \"{}\", \"rate\": {:.4}, \"sim_secs\": {:.9}, \
             \"slowdown\": {:.4}, \"verified\": {}, \"injected\": {}, \
             \"retried\": {}, \"failed_over\": {}, \"degraded\": {} }}{}",
            r.app,
            r.rate,
            r.sim_secs,
            r.slowdown,
            r.verified,
            r.injected,
            r.retried,
            r.failed_over,
            r.degraded,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"failover\": [");
    for (i, r) in fo.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"app\": \"{}\", \"gpus\": {}, \"killed_device\": {}, \
             \"kill_wave\": {}, \"sim_secs\": {:.9}, \"clean_sim_secs\": {:.9}, \
             \"slowdown\": {:.4}, \"failed_over\": {}, \"verified\": {} }}{}",
            r.app,
            r.gpus,
            r.killed_device,
            KILL_WAVE,
            r.sim_secs,
            r.clean_sim_secs,
            r.slowdown,
            r.failed_over,
            r.verified,
            if i + 1 < fo.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    out.push('}');
    out
}

fn main() {
    let args = ExpArgs::from_env();
    let mut cfg = HarnessConfig::paper_scaled(args.bytes);
    args.apply(&mut cfg);
    // The sweep controls rate and device failure itself; a user-supplied
    // --faults spec contributes the template (seed, retries, backoff, sites).
    let template = args.faults.clone().unwrap_or(FaultPlan {
        seed: args.seed,
        ..FaultPlan::default()
    });
    cfg.bigkernel.faults = None;

    let rows = sweep(&args, &cfg, &template);
    println!(
        "{:<9} {:>7} {:>14} {:>9} {:>9} {:>8} {:>8} {:>9} {:>9}",
        "app",
        "rate",
        "sim(s)",
        "slowdown",
        "verified",
        "injected",
        "retried",
        "failover",
        "degraded"
    );
    for r in &rows {
        println!(
            "{:<9} {:>7.3} {:>14.6} {:>8.2}x {:>9} {:>8} {:>8} {:>9} {:>9}",
            r.app,
            r.rate,
            r.sim_secs,
            r.slowdown,
            r.verified,
            r.injected,
            r.retried,
            r.failed_over,
            r.degraded
        );
    }

    let fo = failover(&args, &cfg, &template);
    println!();
    println!(
        "{:<9} {:>5} {:>7} {:>14} {:>14} {:>9} {:>9} {:>9}",
        "failover", "gpus", "killed", "sim(s)", "clean(s)", "slowdown", "requeued", "verified"
    );
    for r in &fo {
        println!(
            "{:<9} {:>5} {:>7} {:>14.6} {:>14.6} {:>8.2}x {:>9} {:>9}",
            r.app,
            r.gpus,
            r.killed_device,
            r.sim_secs,
            r.clean_sim_secs,
            r.slowdown,
            r.failed_over,
            r.verified
        );
    }

    let json = to_json(&args, &template, &rows, &fo);
    std::fs::write("BENCH_chaos.json", &json).expect("write BENCH_chaos.json");
    println!("wrote BENCH_chaos.json");

    let all_ok = rows.iter().all(|r| r.verified) && fo.iter().all(|r| r.verified);
    if all_ok {
        println!("all runs verified against the reference output");
    } else {
        eprintln!("FAILED: some runs did not verify against the reference output");
        std::process::exit(1);
    }
}
