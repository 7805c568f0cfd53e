//! Streaming experiment: continuous ingestion with backpressure
//! (DESIGN.md §16). Sweeps a window-shape × queue-bound grid over the
//! drifting applications (Word Count, FilterCount and K-means variants
//! whose distribution or record schema shifts mid-stream), feeding each from
//! a replayable constant-rate source set to `RATE_FACTOR` × the app's
//! batch-pipeline throughput — fast enough that the bounded inter-stage
//! queue, not the source, is the limiter, so high-watermark backpressure is
//! visible and attributed (`stall.ingest.backpressure`).
//!
//! Per grid point it reports window count, simulated completion time,
//! sustained throughput, p99 end-to-end window latency, total backpressure,
//! the deepest queue occupancy, §IV.A re-detections and between-window
//! tuner re-plans, plus exact-output verification. Writes
//! `BENCH_streaming.json`.
//!
//! Usage mirrors the other experiment binaries; `--window
//! bytes=N|records=N|interval-us=F` and `--queue-bound N` pin the grid to a
//! single point instead of sweeping, and `--autotune on` attaches the
//! stream-level persistent tuner.
//!
//! Exits non-zero if any run fails verification, if no grid point ever
//! experienced backpressure (the queue never pushed back — the scenario is
//! not exercising the tentpole), or if no drifting app triggered a
//! re-detection. This doubles as the CI smoke check.

use bk_apps::{drifting_apps, run_implementation, HarnessConfig, Implementation};
use bk_bench::{args::ExpArgs, short_name};
use bk_runtime::stream::{run_bigkernel_streamed, ReplaySource};
use bk_runtime::{StreamConfig, StreamKernel, WindowPolicy};
use bk_simcore::SimTime;
use std::fmt::Write as _;

/// Source rate as a multiple of the app's measured batch throughput: the
/// pipeline is the bottleneck, so queue bounds and window shapes matter.
const RATE_FACTOR: f64 = 2.0;
/// Fingerprint drift threshold: the drifting apps double a density
/// component at the flip (a relative change of exactly 0.5 against the
/// larger magnitude), so the sweep runs just below that.
const REDETECT_THRESHOLD: f64 = 0.4;
/// Queue bounds swept (unless `--queue-bound` pins one).
const QUEUE_BOUNDS: [usize; 3] = [1, 2, 4];

/// One grid point.
struct Row {
    app: &'static str,
    /// `--window` spelling of the policy, e.g. `bytes=1048576`.
    window: String,
    queue_bound: usize,
    windows: usize,
    sim_secs: f64,
    sustained_bytes_per_sec: f64,
    p99_latency_us: f64,
    backpressure_ns: u64,
    max_depth: usize,
    redetects: u64,
    retunes: u64,
    verified: bool,
}

/// One streamed run of `app` over a fresh machine; returns the row and
/// whether the exact-output verification passed.
fn run_point(
    app: &dyn bk_apps::BenchApp,
    cfg: &HarnessConfig,
    bytes: u64,
    seed: u64,
    scfg: &StreamConfig,
    rate: f64,
    window_label: String,
) -> Row {
    let mut machine = cfg.build_machine();
    let instance = app.instantiate(&mut machine, bytes, seed);
    let kernels: Vec<&dyn StreamKernel> = instance
        .kernels
        .iter()
        .map(|k| k.as_ref() as &dyn StreamKernel)
        .collect();
    let source = ReplaySource::new(instance.streams[0].len(), rate);
    let r = run_bigkernel_streamed(
        &mut machine,
        &kernels,
        &instance.streams,
        cfg.launch,
        &cfg.bigkernel,
        scfg,
        &source,
    );
    let verified = (instance.verify)(&machine).is_ok();
    Row {
        app: short_name(app.spec().name),
        window: window_label,
        queue_bound: scfg.queue_bound,
        windows: r.windows.len(),
        sim_secs: r.total.secs(),
        sustained_bytes_per_sec: r.sustained_bytes_per_sec,
        p99_latency_us: r.p99_latency.micros(),
        backpressure_ns: r.metrics.get("stream.backpressure_ns"),
        max_depth: r.windows.iter().map(|w| w.depth).max().unwrap_or(0),
        redetects: r.redetects,
        retunes: r.retunes,
        verified,
    }
}

fn to_json(args: &ExpArgs, rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bytes_per_app\": {},", args.bytes);
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    let mut apps: Vec<&str> = rows.iter().map(|r| r.app).collect();
    apps.dedup();
    let _ = writeln!(
        out,
        "  \"provenance\": {},",
        args.provenance_json("streaming", &apps)
    );
    let _ = writeln!(out, "  \"source_rate_factor\": {RATE_FACTOR},");
    let _ = writeln!(out, "  \"redetect_threshold\": {REDETECT_THRESHOLD},");
    let _ = writeln!(out, "  \"runs\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"app\": \"{}\", \"window\": \"{}\", \"queue_bound\": {}, \
             \"windows\": {}, \"sim_secs\": {:.9}, \
             \"sustained_bytes_per_sec\": {:.1}, \"p99_latency_us\": {:.3}, \
             \"backpressure_ns\": {}, \"max_depth\": {}, \"redetects\": {}, \
             \"retunes\": {}, \"verified\": {} }}{}",
            r.app,
            r.window,
            r.queue_bound,
            r.windows,
            r.sim_secs,
            r.sustained_bytes_per_sec,
            r.p99_latency_us,
            r.backpressure_ns,
            r.max_depth,
            r.redetects,
            r.retunes,
            r.verified,
            if i + 1 < rows.len() { "," } else { "" }
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
    // `--autotune on` attaches the between-window tuner to every stream.
    let tune = (args.autotune == Some(true)).then(bk_runtime::AutotuneConfig::default);

    let mut rows: Vec<Row> = Vec::new();
    for app in drifting_apps() {
        let name = app.spec().name;
        if !args.selected(name) {
            continue;
        }

        // Calibrate the source: one batch run measures the pipeline's
        // throughput; the stream then arrives RATE_FACTOR times faster.
        let mut machine = cfg.build_machine();
        let instance = app.instantiate(&mut machine, args.bytes, args.seed);
        let batch = run_implementation(&mut machine, &instance, Implementation::BigKernel, &cfg);
        let len = instance.streams[0].len();
        let rate = RATE_FACTOR * len as f64 / batch.total.secs().max(1e-12);

        // Window-shape axis: a fine and a coarse byte window plus an
        // arrival-interval window (~24 cuts at the calibrated rate), unless
        // `--window` pins one shape.
        let policies: Vec<WindowPolicy> = match args.window {
            Some(w) => vec![w],
            None => vec![
                WindowPolicy::ByBytes((len / 32).max(1)),
                WindowPolicy::ByBytes((len / 8).max(1)),
                WindowPolicy::ByInterval(SimTime::from_secs(len as f64 / rate / 24.0)),
            ],
        };
        let bounds: Vec<usize> = match args.queue_bound {
            Some(b) => vec![b],
            None => QUEUE_BOUNDS.to_vec(),
        };

        for policy in &policies {
            for &bound in &bounds {
                let scfg = StreamConfig {
                    policy: *policy,
                    queue_bound: bound,
                    redetect_threshold: REDETECT_THRESHOLD,
                    autotune: tune.clone(),
                };
                rows.push(run_point(
                    app.as_ref(),
                    &cfg,
                    args.bytes,
                    args.seed,
                    &scfg,
                    rate,
                    ExpArgs::window_spec(policy),
                ));
            }
        }
    }
    if rows.is_empty() {
        eprintln!("no app matched the --app filter");
        std::process::exit(2);
    }

    println!(
        "{:<9} {:<22} {:>5} {:>8} {:>11} {:>13} {:>13} {:>13} {:>5} {:>8} {:>7}",
        "app",
        "window",
        "bound",
        "windows",
        "sim(s)",
        "MiB/s",
        "p99-lat(us)",
        "backpr(ms)",
        "depth",
        "redetect",
        "retunes"
    );
    for r in &rows {
        println!(
            "{:<9} {:<22} {:>5} {:>8} {:>11.6} {:>13.1} {:>13.3} {:>13.3} {:>5} {:>8} {:>7}{}",
            r.app,
            r.window,
            r.queue_bound,
            r.windows,
            r.sim_secs,
            r.sustained_bytes_per_sec / (1 << 20) as f64,
            r.p99_latency_us,
            r.backpressure_ns as f64 / 1e6,
            r.max_depth,
            r.redetects,
            r.retunes,
            if r.verified { "" } else { "  UNVERIFIED" }
        );
    }

    let json = to_json(&args, &rows);
    std::fs::write("BENCH_streaming.json", &json).expect("write BENCH_streaming.json");
    println!("wrote BENCH_streaming.json");

    let all_verified = rows.iter().all(|r| r.verified);
    let any_backpressure = rows.iter().any(|r| r.backpressure_ns > 0);
    let any_redetect = rows.iter().any(|r| r.redetects > 0);
    if !all_verified {
        eprintln!("FAILED: some streamed runs did not verify against the reference output");
        std::process::exit(1);
    }
    if !any_backpressure {
        eprintln!("FAILED: no grid point ever hit the queue's high-watermark");
        std::process::exit(1);
    }
    if !any_redetect {
        eprintln!("FAILED: no drifting app triggered a re-detection");
        std::process::exit(1);
    }
    println!("all streamed runs verified; backpressure and re-detection both exercised");
}
