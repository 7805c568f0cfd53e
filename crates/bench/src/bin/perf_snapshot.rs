//! Wall-clock throughput snapshot of the BigKernel pipeline *simulation
//! itself* (host seconds, not simulated time): how many simulated
//! block-chunks per second the runner sustains for each app, plus the
//! simulated per-stage shares for context. Writes `BENCH_pipeline.json`
//! (committed at the repo root as the tracked baseline) and prints a table.
//!
//! Usage mirrors the other experiment binaries:
//! `perf_snapshot [--mib N] [--seed S] [--app SUBSTR] [--threads N]
//! [--machine NAME] [--gpus N]`.
//! `--threads 1` measures the sequential block path (the per-block hot loop
//! with no rayon overhead) — the number the addr-gen/assembly fast path is
//! tuned against.
//!
//! Besides the per-app wall-clock rows, the snapshot records a simulated
//! multi-GPU scaling section (the three streaming apps on 1/2/4 replicated
//! devices, verified at every count; `report scaling` prints the same
//! sweep as a table), a simulated
//! `fusion` sweep (the multi-pass apps unfused vs fused, DESIGN.md §15 —
//! the binary exits non-zero unless every fused run verifies and moves
//! strictly fewer PCIe bytes), a per-app `critical_path` blame block plus
//! ranked `what_if` predictions from an untimed capture run, and a
//! `provenance` block recording how the file was produced.

use bk_apps::{run_implementation, HarnessConfig, Implementation};
use bk_bench::report::{scaling_sweep, ScalingRow};
use bk_bench::{all_apps, args::ExpArgs, short_name};
use std::fmt::Write as _;
use std::time::Instant;

/// Wall-clock measurements for one app.
struct Row {
    app: &'static str,
    wall_secs: f64,
    chunks: usize,
    num_blocks: u32,
    blocks_per_sec: f64,
    /// Simulated relative stage times (share of the busiest stage set).
    stage_shares: Vec<(&'static str, f64)>,
    /// Simulated per-stage utilization (stage busy time / total run time).
    stage_utilization: Vec<(&'static str, f64)>,
    /// Top critical-path waits by `stall.<stage>.<cause>` counter,
    /// simulated nanoseconds (see [`top_stalls`]).
    top_stalls: Vec<(&'static str, u64)>,
    /// Per-stage buffer-reuse wait-time distribution summaries, from the
    /// `hist.reuse-wait.<stage>` log₂ histograms (simulated ns per wait).
    reuse_waits: Vec<ReuseWaitRow>,
    /// Simulated devices the run was sharded across.
    gpus: usize,
    /// Per-device `device.<i>.*` counters, one entry per device.
    devices: Vec<DeviceRow>,
    /// Critical-path blame report from an untimed capture run (simulated
    /// results are deterministic, so it matches every timed iteration).
    crit: bk_obs::CritReport,
    /// Top what-if predictions for the captured schedule, best first.
    what_if: Vec<bk_runtime::Prediction>,
}

/// How many ranked what-if scenarios the snapshot records per app.
const WHAT_IF_TOP: usize = 5;

/// One simulated device's share of a run.
struct DeviceRow {
    device: usize,
    chunks: u64,
    busy_ns: u64,
    makespan_ns: u64,
    stall_ns: u64,
}

fn device_rows(r: &bk_runtime::RunResult, gpus: usize) -> Vec<DeviceRow> {
    (0..gpus)
        .map(|d| DeviceRow {
            device: d,
            chunks: r.metrics.get(&format!("device.{d}.chunks")),
            busy_ns: r.metrics.get(&format!("device.{d}.busy_ns")),
            makespan_ns: r.metrics.get(&format!("device.{d}.makespan_ns")),
            stall_ns: r.metrics.get(&format!("device.{d}.stall_ns")),
        })
        .collect()
}

/// One row of the mega-kernel fusion sweep (EXPERIMENTS.md "Fusion
/// sweep"): the same app run unfused and with fusion requested, simulated
/// PCIe traffic side by side. All fields are functional/simulated, so the
/// committed values are deterministic and `bench_diff.py` compares them
/// exactly.
struct FusionRow {
    app: &'static str,
    /// Whether fusion was actually taken (`false` = conservatively
    /// refused, the run fell back to the unfused per-pass loop).
    fused: bool,
    unfused_h2d: u64,
    unfused_d2h: u64,
    fused_h2d: u64,
    fused_d2h: u64,
    unfused_sim_secs: f64,
    fused_sim_secs: f64,
}

impl FusionRow {
    fn saved_bytes(&self) -> i64 {
        (self.unfused_h2d + self.unfused_d2h) as i64 - (self.fused_h2d + self.fused_d2h) as i64
    }

    fn speedup(&self) -> f64 {
        if self.fused_sim_secs > 0.0 {
            self.unfused_sim_secs / self.fused_sim_secs
        } else {
            1.0
        }
    }
}

/// Summary of one stage's `hist.reuse-wait.<stage>` histogram.
struct ReuseWaitRow {
    stage: String,
    count: u64,
    sum_ns: u64,
    mean_ns: f64,
    max_ns: u64,
}

/// Per-stage buffer-reuse wait distributions, sorted by total wait time
/// descending (stages that never waited on reuse are omitted).
fn reuse_waits(r: &bk_runtime::RunResult) -> Vec<ReuseWaitRow> {
    const PREFIX: &str = "hist.reuse-wait.";
    let mut v: Vec<ReuseWaitRow> = r
        .metrics
        .hists()
        .filter(|(name, h)| name.starts_with(PREFIX) && h.count() > 0)
        .map(|(name, h)| ReuseWaitRow {
            stage: name[PREFIX.len()..].to_string(),
            count: h.count(),
            sum_ns: h.sum(),
            mean_ns: h.mean(),
            max_ns: h.max(),
        })
        .collect();
    v.sort_by(|a, b| b.sum_ns.cmp(&a.sum_ns).then_with(|| a.stage.cmp(&b.stage)));
    v
}

/// Largest stalls *on the critical path* (simulated ns), descending, keyed
/// by their `stall.<stage>.<cause>` counter. Only waits that bound the
/// makespan count: each path segment entered through a reuse or resource
/// wait is charged to its stage and cause, so the headline agrees with the
/// critical-path blame rather than with raw stall totals that may sit
/// entirely off the path. A slot's wait can span earlier path segments, so
/// the sums rank causes; they need not add up to the makespan.
fn top_stalls(crit: &bk_obs::CritReport) -> Vec<(&'static str, u64)> {
    use bk_obs::critpath::EdgeKind;
    use bk_simcore::StallKind;
    let mut sums: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for seg in crit.segments.iter().filter(|s| !s.wait.is_zero()) {
        let kind = match seg.entered {
            EdgeKind::Reuse { consumer } => StallKind::Reuse { consumer },
            EdgeKind::Resource => StallKind::Resource(seg.resource),
            EdgeKind::Start | EdgeKind::Dataflow => continue,
        };
        let cause = bk_obs::StallCause::from_kind(kind).label();
        if let Some(name) = bk_obs::stall_counter(bk_obs::stage_role(seg.stage), cause) {
            *sums.entry(name).or_default() += seg.wait.nanos() as u64;
        }
    }
    let mut v: Vec<(&'static str, u64)> = sums.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    v.truncate(5);
    v
}

fn to_json(
    args: &ExpArgs,
    iters: usize,
    rows: &[Row],
    scaling: &[ScalingRow],
    fusion: &[FusionRow],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bytes_per_app\": {},", args.bytes);
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    let _ = writeln!(
        out,
        "  \"threads\": {},",
        args.threads
            .map(|t| t.to_string())
            .unwrap_or_else(|| "null".into())
    );
    let _ = writeln!(out, "  \"iters\": {iters},");
    let app_names: Vec<&str> = rows.iter().map(|r| r.app).collect();
    let _ = writeln!(
        out,
        "  \"provenance\": {},",
        args.provenance_json("perf_snapshot", &app_names)
    );
    let _ = writeln!(out, "  \"apps\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"app\": \"{}\",", r.app);
        let _ = writeln!(out, "      \"wall_secs\": {:.6},", r.wall_secs);
        let _ = writeln!(out, "      \"chunks\": {},", r.chunks);
        let _ = writeln!(out, "      \"num_blocks\": {},", r.num_blocks);
        let _ = writeln!(out, "      \"blocks_per_sec\": {:.1},", r.blocks_per_sec);
        let _ = writeln!(out, "      \"gpus\": {},", r.gpus);
        let _ = writeln!(out, "      \"devices\": [");
        for (j, d) in r.devices.iter().enumerate() {
            let _ = writeln!(
                out,
                "        {{ \"device\": {}, \"chunks\": {}, \"busy_ns\": {}, \
                 \"makespan_ns\": {}, \"stall_ns\": {} }}{}",
                d.device,
                d.chunks,
                d.busy_ns,
                d.makespan_ns,
                d.stall_ns,
                if j + 1 < r.devices.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "      ],");
        let _ = writeln!(out, "      \"stage_shares\": {{");
        for (j, (name, share)) in r.stage_shares.iter().enumerate() {
            let _ = writeln!(
                out,
                "        \"{}\": {:.4}{}",
                name,
                share,
                if j + 1 < r.stage_shares.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(out, "      }},");
        let _ = writeln!(out, "      \"stage_utilization\": {{");
        for (j, (name, util)) in r.stage_utilization.iter().enumerate() {
            let _ = writeln!(
                out,
                "        \"{}\": {:.4}{}",
                name,
                util,
                if j + 1 < r.stage_utilization.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(out, "      }},");
        let _ = writeln!(out, "      \"top_stalls\": {{");
        for (j, (name, ns)) in r.top_stalls.iter().enumerate() {
            let _ = writeln!(
                out,
                "        \"{}\": {}{}",
                name,
                ns,
                if j + 1 < r.top_stalls.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "      }},");
        let _ = writeln!(out, "      \"reuse_waits\": [");
        for (j, w) in r.reuse_waits.iter().enumerate() {
            let _ = writeln!(
                out,
                "        {{ \"stage\": \"{}\", \"count\": {}, \"sum_ns\": {}, \
                 \"mean_ns\": {:.1}, \"max_ns\": {} }}{}",
                w.stage,
                w.count,
                w.sum_ns,
                w.mean_ns,
                w.max_ns,
                if j + 1 < r.reuse_waits.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "      ],");
        let _ = writeln!(out, "      \"critical_path\": {{");
        let _ = writeln!(out, "        \"makespan_ns\": {},", r.crit.makespan_ns);
        let _ = writeln!(out, "        \"segments\": {},", r.crit.segments.len());
        let blame_obj = |out: &mut String, key: &str, items: &[(&'static str, u64)], comma| {
            let _ = write!(out, "        \"{key}\": {{ ");
            for (j, (name, ns)) in items.iter().enumerate() {
                let _ = write!(
                    out,
                    "\"{}\": {}{}",
                    name,
                    ns,
                    if j + 1 < items.len() { ", " } else { "" }
                );
            }
            let _ = writeln!(out, " }}{}", if comma { "," } else { "" });
        };
        blame_obj(&mut out, "stage_blame", &r.crit.stage_blame, true);
        blame_obj(&mut out, "resource_blame", &r.crit.resource_blame, true);
        let _ = write!(out, "        \"device_blame\": [ ");
        for (j, (dev, ns)) in r.crit.device_blame.iter().enumerate() {
            let _ = write!(
                out,
                "{{ \"device\": {}, \"ns\": {} }}{}",
                dev,
                ns,
                if j + 1 < r.crit.device_blame.len() {
                    ", "
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(out, " ],");
        let _ = write!(out, "        \"reuse_blame\": [ ");
        for (j, (consumer, ns)) in r.crit.reuse_blame.iter().enumerate() {
            let _ = write!(
                out,
                "{{ \"consumer\": {}, \"ns\": {} }}{}",
                consumer,
                ns,
                if j + 1 < r.crit.reuse_blame.len() {
                    ", "
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(out, " ]");
        let _ = writeln!(out, "      }},");
        let _ = writeln!(out, "      \"what_if\": [");
        for (j, p) in r.what_if.iter().enumerate() {
            let _ = writeln!(
                out,
                "        {{ \"scenario\": \"{}\", \"predicted_sim_secs\": {:.9}, \
                 \"speedup\": {:.4}, \"modeled\": {} }}{}",
                p.scenario.label,
                p.makespan.secs(),
                p.speedup,
                p.scenario.modeled,
                if j + 1 < r.what_if.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "      ]");
        let _ = writeln!(out, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"scaling\": [");
    for (i, s) in scaling.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"app\": \"{}\", \"gpus\": {}, \"sim_secs\": {:.9}, \
             \"speedup\": {:.3} }}{}",
            s.app,
            s.gpus,
            s.sim_secs,
            s.speedup,
            if i + 1 < scaling.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"fusion\": [");
    for (i, f) in fusion.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"app\": \"{}\", \"fused\": {}, \
             \"unfused_h2d_bytes\": {}, \"unfused_d2h_bytes\": {}, \
             \"fused_h2d_bytes\": {}, \"fused_d2h_bytes\": {}, \
             \"saved_bytes\": {}, \"unfused_sim_secs\": {:.9}, \
             \"fused_sim_secs\": {:.9}, \"speedup\": {:.4} }}{}",
            f.app,
            f.fused,
            f.unfused_h2d,
            f.unfused_d2h,
            f.fused_h2d,
            f.fused_d2h,
            f.saved_bytes(),
            f.unfused_sim_secs,
            f.fused_sim_secs,
            f.speedup(),
            if i + 1 < fusion.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    out.push('}');
    out
}

/// Simulated fusion sweep over the multi-pass apps (EXPERIMENTS.md
/// "Fusion sweep"). Like the scaling sweep it ignores `--app`, so every
/// snapshot gates the fusion transfer reduction. Both runs of each app are
/// verified against the pure-Rust reference; a verification failure exits
/// non-zero immediately.
fn fusion_sweep(args: &ExpArgs, cfg: &HarnessConfig) -> Vec<FusionRow> {
    let fusion_apps: Vec<Box<dyn bk_apps::BenchApp + Sync>> = vec![
        Box::new(bk_apps::kmeans::KMeans::default()),
        Box::new(bk_apps::affinity::Affinity::default()),
        Box::new(bk_apps::filtercount::FilterCount),
    ];
    let mut out = Vec::new();
    for app in fusion_apps {
        let name = app.spec().name;
        let run = |fuse: bool| {
            let mut cfg = cfg.clone();
            cfg.fuse = fuse;
            let mut machine = cfg.build_machine();
            let instance = app.instantiate(&mut machine, args.bytes, args.seed);
            let r = run_implementation(&mut machine, &instance, Implementation::BigKernel, &cfg);
            if let Err(e) = (instance.verify)(&machine) {
                eprintln!("fusion sweep: {name} failed verification (fuse={fuse}): {e}");
                std::process::exit(1);
            }
            r
        };
        let un = run(false);
        let fu = run(true);
        out.push(FusionRow {
            app: short_name(name),
            fused: fu.metrics.get("fusion.fused") == 1,
            unfused_h2d: un.metrics.get("pcie.h2d_bytes"),
            unfused_d2h: un.metrics.get("pcie.d2h_bytes"),
            fused_h2d: fu.metrics.get("pcie.h2d_bytes"),
            fused_d2h: fu.metrics.get("pcie.d2h_bytes"),
            unfused_sim_secs: un.total.secs(),
            fused_sim_secs: fu.total.secs(),
        });
    }
    out
}

fn main() {
    let args = ExpArgs::from_env();
    let mut cfg = HarnessConfig::paper_scaled(args.bytes);
    args.apply(&mut cfg);
    const ITERS: usize = 3;

    let mut rows: Vec<Row> = Vec::new();
    for app in all_apps() {
        let name = app.spec().name;
        if !args.selected(name) {
            continue;
        }
        // Best of ITERS runs; a fresh machine + instance per run so every
        // measurement exercises the same cold-start pipeline (generation
        // time is excluded from the timed region).
        let mut best = f64::INFINITY;
        let mut result = None;
        for _ in 0..ITERS {
            let mut machine = cfg.build_machine();
            let instance = app.instantiate(&mut machine, args.bytes, args.seed);
            let t0 = Instant::now();
            let r = run_implementation(&mut machine, &instance, Implementation::BigKernel, &cfg);
            let dt = t0.elapsed().as_secs_f64();
            if dt < best {
                best = dt;
                result = Some(r);
            }
        }
        let r = result.unwrap();
        // One extra untimed run with schedule capture live for the
        // critical-path / what-if sections — outside the timed region so
        // the capture allocations never skew the wall numbers.
        let (crit, what_if) = {
            let mut machine = cfg.build_machine();
            let instance = app.instantiate(&mut machine, args.bytes, args.seed);
            let guard = bk_obs::critpath::capture();
            let _ = run_implementation(&mut machine, &instance, Implementation::BigKernel, &cfg);
            let waves = guard.finish();
            let mut ranked = bk_runtime::whatif::rank(&waves, cfg.gpus);
            ranked.truncate(WHAT_IF_TOP);
            (bk_obs::analyze(&waves), ranked)
        };
        let block_chunks = cfg.launch.num_blocks as f64 * r.chunks as f64;
        rows.push(Row {
            app: short_name(name),
            wall_secs: best,
            chunks: r.chunks,
            num_blocks: cfg.launch.num_blocks,
            blocks_per_sec: block_chunks / best,
            stage_shares: r.relative_stage_times(),
            stage_utilization: r
                .stages
                .iter()
                .map(|s| {
                    (
                        s.name,
                        if r.total.is_zero() {
                            0.0
                        } else {
                            s.busy.ratio(r.total)
                        },
                    )
                })
                .collect(),
            top_stalls: top_stalls(&crit),
            reuse_waits: reuse_waits(&r),
            gpus: cfg.gpus,
            devices: device_rows(&r, cfg.gpus),
            crit,
            what_if,
        });
    }

    println!(
        "{:<9} {:>10} {:>7} {:>7} {:>12}  stage shares",
        "app", "wall(s)", "chunks", "blocks", "blocks/sec"
    );
    for r in &rows {
        print!(
            "{:<9} {:>10.3} {:>7} {:>7} {:>12.0} ",
            r.app, r.wall_secs, r.chunks, r.num_blocks, r.blocks_per_sec
        );
        for (name, share) in &r.stage_shares {
            if *share > 0.005 {
                print!(" {}={:.0}%", name, share * 100.0);
            }
        }
        println!();
        print!("{:<49} util", "");
        for (name, util) in &r.stage_utilization {
            if *util > 0.005 {
                print!(" {}={:.0}%", name, util * 100.0);
            }
        }
        match r.top_stalls.first() {
            Some((name, ns)) => println!("  top-stall {}={:.2}ms", name, *ns as f64 / 1e6),
            None => println!("  no stalls on the critical path"),
        }
        for w in &r.reuse_waits {
            println!(
                "{:<49} reuse-wait {}: {} waits, mean {:.1}us, max {:.1}us",
                "",
                w.stage,
                w.count,
                w.mean_ns / 1e3,
                w.max_ns as f64 / 1e3
            );
        }
        if let Some((stage, ns)) = r.crit.stage_blame.first() {
            print!(
                "{:<49} critpath: {}={:.0}% of makespan",
                "",
                stage,
                r.crit.share(*ns) * 100.0
            );
            if let Some(p) = r.what_if.first() {
                print!("; best what-if {} ({:.2}x)", p.scenario.label, p.speedup);
            }
            println!();
        }
    }

    let scaling = scaling_sweep(&args, &cfg);
    println!();
    println!(
        "{:<9} {:>5} {:>14} {:>9}",
        "scaling", "gpus", "sim(s)", "speedup"
    );
    for s in &scaling {
        println!(
            "{:<9} {:>5} {:>14.6} {:>8.2}x",
            s.app, s.gpus, s.sim_secs, s.speedup
        );
    }

    let fusion = fusion_sweep(&args, &cfg);
    println!();
    println!(
        "{:<9} {:>6} {:>14} {:>14} {:>12} {:>8}",
        "fusion", "fused", "unfused(B)", "fused(B)", "saved(B)", "speedup"
    );
    let mut fusion_ok = true;
    for f in &fusion {
        println!(
            "{:<9} {:>6} {:>14} {:>14} {:>12} {:>7.2}x",
            f.app,
            f.fused,
            f.unfused_h2d + f.unfused_d2h,
            f.fused_h2d + f.fused_d2h,
            f.saved_bytes(),
            f.speedup()
        );
        // The sweep apps are fusable by construction; a refusal or a fused
        // run that fails to *strictly* reduce PCIe traffic means the
        // dependence analysis or the transfer elision regressed.
        if !f.fused {
            eprintln!("FUSION: {} was refused — sweep apps must fuse", f.app);
            fusion_ok = false;
        } else if f.saved_bytes() <= 0 {
            eprintln!(
                "FUSION: {} moved {} bytes fused vs {} unfused — fusion must \
                 strictly reduce transfers",
                f.app,
                f.fused_h2d + f.fused_d2h,
                f.unfused_h2d + f.unfused_d2h
            );
            fusion_ok = false;
        }
    }

    let json = to_json(&args, ITERS, &rows, &scaling, &fusion);
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    println!("wrote BENCH_pipeline.json");
    if !fusion_ok {
        std::process::exit(1);
    }
}
