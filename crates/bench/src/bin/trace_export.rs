//! Export one BigKernel run as a Chrome/Perfetto trace plus a text
//! utilization report.
//!
//! Runs a single app (first match of `--app`, default: the first app, so
//! `trace_export --app wordcount` traces Word Count) under the full
//! BigKernel pipeline with span tracing enabled, then writes the recorded
//! spans as a trace-event JSON file loadable in <https://ui.perfetto.dev>
//! or `chrome://tracing`: one track per hardware resource (gpu-ag, cpu-asm,
//! dma, gpu-comp, dma-d2h, cpu-wb — prefixed `dev<i>.` per replica when
//! `--gpus N` shards the run, each device as its own Perfetto process), one
//! complete event per (chunk, stage) slot, stalled slots annotated with
//! their attributed [`bk_obs::StallCause`], plus a `critpath` marker lane
//! re-plotting the slots on the reconstructed critical path.
//!
//! Usage: `trace_export [--app SUBSTR] [--mib N] [--seed S] [--threads N]
//! [--machine NAME] [--gpus N] [--out PATH]` (default `trace.json`).

use bk_apps::{run_implementation, HarnessConfig, Implementation};
use bk_bench::{all_apps, args::ExpArgs};

fn main() {
    // `--out PATH` is specific to this binary; strip it before handing the
    // rest to the shared experiment-argument parser.
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("trace.json");
    if let Some(i) = raw.iter().position(|a| a == "--out") {
        if i + 1 >= raw.len() {
            eprintln!("--out needs a value");
            std::process::exit(2);
        }
        out_path = raw.remove(i + 1);
        raw.remove(i);
    }
    let args = ExpArgs::parse_named("trace_export", raw.into_iter())
        .and_then(|a| a.check_streaming("trace_export", false).map(|()| a));
    let args = match args {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e} [--out PATH]");
            std::process::exit(2);
        }
    };
    let mut cfg = HarnessConfig::paper_scaled(args.bytes);
    args.apply(&mut cfg);

    // A trace is one timeline: run exactly one app (the first match).
    let apps = all_apps();
    let Some(app) = apps.iter().find(|a| args.selected(a.spec().name)) else {
        eprintln!("no app matches the --app filter");
        std::process::exit(2);
    };
    let name = app.spec().name;

    let mut machine = cfg.build_machine();
    let instance = app.instantiate(&mut machine, args.bytes, args.seed);

    let guard = bk_obs::trace::start();
    let cap = bk_obs::critpath::capture();
    let r = run_implementation(&mut machine, &instance, Implementation::BigKernel, &cfg);
    let waves = cap.finish();
    let mut spans = guard.finish();

    // Coverage is judged on the stage spans alone — the critical-path
    // markers appended below re-plot slots that are already on their
    // resource tracks.
    let busy: bk_simcore::SimTime = r.stages.iter().map(|s| s.busy).sum();
    let coverage = bk_obs::export::busy_coverage(&spans, busy);

    let report = bk_obs::analyze(&waves);
    spans.extend(bk_obs::critpath::marker_spans(&report));

    std::fs::write(&out_path, bk_obs::to_chrome_json(&spans))
        .unwrap_or_else(|e| panic!("write {out_path}: {e}"));

    println!("{name}: {} chunks, simulated total {}", r.chunks, r.total);
    if let Some((stage, ns)) = report.stage_blame.first() {
        println!(
            "critical path: {} segments on the `critpath` track; top blame {} ({:.1}%)",
            report.segments.len(),
            stage,
            report.share(*ns) * 100.0
        );
    }
    print!("{}", bk_obs::text_report(&spans));
    println!(
        "span coverage: {:.2}% of {} simulated busy time",
        coverage * 100.0,
        busy
    );
    println!(
        "wrote {out_path} ({} spans) — open in https://ui.perfetto.dev",
        spans.len()
    );
    if coverage < 0.99 {
        eprintln!("warning: trace covers < 99% of simulated busy time");
        std::process::exit(1);
    }
}
