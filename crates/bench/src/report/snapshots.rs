//! The sections behind the committed `BENCH_*.json` snapshots (`pipeline`,
//! `chaos`, `streaming`) and the critical-path gate (`bottleneck`). Each
//! returns its markdown, its artifact and the gate checks it failed. The
//! snapshot formats are written by hand (the workspace has no serde
//! dependency); `scripts/bench_diff.py` compares every non-wall-clock field
//! of a regenerated file with the committed one exactly.

use super::{Rendered, Report};
use crate::render::{self, table};
use crate::{args::ExpArgs, short_name};
use bk_apps::affinity::Affinity;
use bk_apps::filtercount::FilterCount;
use bk_apps::kmeans::KMeans;
use bk_apps::{drifting_apps, run_implementation, run_streamed_at_rate};
use bk_apps::{BenchApp, HarnessConfig, Implementation};
use bk_obs::critpath::EdgeKind;
use bk_obs::CritReport;
use bk_runtime::{whatif, AutotuneConfig, DeviceFailure, FaultPlan, Perturbation, RunResult};
use bk_runtime::{StreamConfig, WindowPolicy};
use bk_simcore::{SimTime, StallKind};

/// Timed BigKernel runs per app in the pipeline snapshot; the fastest
/// counts, so every measurement is one cold-start pipeline.
const ITERS: usize = 3;
/// Ranked what-if scenarios the pipeline snapshot records per app.
const WHAT_IF_TOP: usize = 5;

/// Fault rates the chaos sweep runs per app; 0.0 is the fault-free row.
const RATES: [f64; 4] = [0.0, 0.005, 0.02, 0.05];
/// Wave at which the chaos failover kills a device (early, so most chunks
/// requeue).
const KILL_WAVE: usize = 0;

/// Streaming source rate as a multiple of the app's batch throughput: the
/// pipeline is the bottleneck, so queue bounds and window shapes matter.
const RATE_FACTOR: f64 = 2.0;
/// Fingerprint drift threshold: the drifting apps double a density
/// component at the flip (a relative change of exactly 0.5 against the
/// larger magnitude), so the sweep runs just below that.
const REDETECT_THRESHOLD: f64 = 0.4;
/// Queue bounds the streaming sweep runs (unless `--queue-bound` pins one).
const QUEUE_BOUNDS: [usize; 3] = [1, 2, 4];

/// Structural what-if predictions must land within this fraction of the
/// actual perturbed re-run (observed error is about 1e-9).
const STRUCTURAL_TOL: f64 = 0.01;
/// The identity replay re-derives the captured schedule, so it only
/// accrues ulp-level error from reconstructing durations.
const IDENTITY_TOL: f64 = 1e-6;

/// A JSON array or object between `open` and `close` with one item per
/// line at `indent`, comma-separated; the closing bracket sits one level
/// (two spaces) out.
fn json_block(
    open: char,
    close: char,
    indent: &str,
    items: impl IntoIterator<Item = String>,
) -> String {
    let items: Vec<String> = items.into_iter().collect();
    let last = items.len().saturating_sub(1);
    let mut out = format!("{open}\n");
    for (i, item) in items.iter().enumerate() {
        let comma = if i < last { "," } else { "" };
        out += &format!("{indent}{item}{comma}\n");
    }
    out + &indent[2..] + &close.to_string()
}

/// `"name": value` pairs, comma-separated on one line.
fn json_pairs<V: std::fmt::Display>(items: &[(&str, V)]) -> String {
    let pairs: Vec<String> = items.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    pairs.join(", ")
}

/// `|x - base| / base`, guarding a zero base.
fn rel_err(x: SimTime, base: SimTime) -> f64 {
    (x.secs() - base.secs()).abs() / base.secs().max(1e-12)
}

/// `t` relative to `clean` (1.0 when the clean run took no time).
fn slowdown(t: SimTime, clean: SimTime) -> f64 {
    if clean.is_zero() {
        1.0
    } else {
        t.ratio(clean)
    }
}

/// The largest waits *on the critical path* (simulated ns), descending,
/// keyed by their `stall.<stage>.<cause>` counter. Each path segment
/// entered through a reuse or resource wait is charged to its stage and
/// cause, so the ranking agrees with the critical-path blame rather than
/// with raw stall totals that may sit entirely off the path. A slot's wait
/// can span earlier segments, so the sums rank causes; they need not add
/// up to the makespan.
fn top_stalls(crit: &CritReport) -> Vec<(&'static str, u64)> {
    let mut sums: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for seg in crit.segments.iter().filter(|s| !s.wait.is_zero()) {
        let kind = match seg.entered {
            EdgeKind::Reuse { consumer } => StallKind::Reuse { consumer },
            EdgeKind::Resource => StallKind::Resource(seg.resource),
            EdgeKind::Start | EdgeKind::Dataflow => continue,
        };
        let cause = bk_obs::StallCause::from_kind(kind);
        let name = bk_obs::names::stall(bk_obs::stage_role(seg.stage), cause);
        *sums.entry(name).or_default() += seg.wait.nanos() as u64;
    }
    let mut v: Vec<(&'static str, u64)> = sums.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    v.truncate(5);
    v
}

/// One app's entry in `BENCH_pipeline.json`: wall clock, per-device and
/// per-stage simulated shares, critical-path waits, buffer-reuse wait
/// distributions (from the `hist.reuse-wait.<stage>` histograms, largest
/// total first), blame and the top what-ifs.
fn pipeline_app_json(
    name: &str,
    wall_secs: f64,
    cfg: &HarnessConfig,
    r: &RunResult,
    crit: &CritReport,
    what_if: &[bk_runtime::Prediction],
) -> String {
    let blocks_per_sec = cfg.launch.num_blocks as f64 * r.chunks as f64 / wall_secs;
    let devices = (0..cfg.gpus).map(|d| {
        let get = |k: &str| r.metrics.get(&format!("device.{d}.{k}"));
        let (chunks, busy, makespan) = (get("chunks"), get("busy_ns"), get("makespan_ns"));
        let stall = get("stall_ns");
        format!(
            "{{ \"device\": {d}, \"chunks\": {chunks}, \"busy_ns\": {busy}, \
             \"makespan_ns\": {makespan}, \"stall_ns\": {stall} }}"
        )
    });
    let utilization = (r.stages.iter())
        .map(|s| {
            let u = if r.total.is_zero() {
                0.0
            } else {
                s.busy.ratio(r.total)
            };
            (s.name, u)
        })
        .collect();
    const INDENT: &str = "        ";
    let ratios = |v: Vec<(&str, f64)>| {
        let items = v.into_iter().map(|(k, x)| format!("\"{k}\": {x:.4}"));
        json_block('{', '}', INDENT, items)
    };
    let stalls = top_stalls(crit)
        .into_iter()
        .map(|(k, ns)| format!("\"{k}\": {ns}"));
    const PREFIX: &str = "hist.reuse-wait.";
    let mut waits: Vec<_> = (r.metrics.hists())
        .filter(|(k, h)| k.starts_with(PREFIX) && h.count() > 0)
        .map(|(k, h)| (&k[PREFIX.len()..], h))
        .collect();
    waits.sort_by(|a, b| b.1.sum().cmp(&a.1.sum()).then_with(|| a.0.cmp(b.0)));
    let waits = waits.iter().map(|(stage, h)| {
        format!(
            "{{ \"stage\": \"{stage}\", \"count\": {}, \"sum_ns\": {}, \
             \"mean_ns\": {:.1}, \"max_ns\": {} }}",
            h.count(),
            h.sum(),
            h.mean(),
            h.max()
        )
    });
    let blame = |key: &str, items: &[(usize, u64)]| {
        let items: Vec<String> = (items.iter())
            .map(|(k, ns)| format!("{{ \"{key}\": {k}, \"ns\": {ns} }}"))
            .collect();
        items.join(", ")
    };
    let critical_path = [
        format!("\"makespan_ns\": {}", crit.makespan_ns),
        format!("\"segments\": {}", crit.segments.len()),
        format!("\"stage_blame\": {{ {} }}", json_pairs(&crit.stage_blame)),
        format!(
            "\"resource_blame\": {{ {} }}",
            json_pairs(&crit.resource_blame)
        ),
        format!(
            "\"device_blame\": [ {} ]",
            blame("device", &crit.device_blame)
        ),
        format!(
            "\"reuse_blame\": [ {} ]",
            blame("consumer", &crit.reuse_blame)
        ),
    ];
    let what_if = what_if.iter().map(|p| {
        format!(
            "{{ \"scenario\": \"{}\", \"predicted_sim_secs\": {:.9}, \
             \"speedup\": {:.4}, \"modeled\": {} }}",
            p.scenario.label,
            p.makespan.secs(),
            p.speedup,
            p.scenario.modeled
        )
    });
    let fields = [
        format!("\"app\": \"{name}\""),
        format!("\"wall_secs\": {wall_secs:.6}"),
        format!("\"chunks\": {}", r.chunks),
        format!("\"num_blocks\": {}", cfg.launch.num_blocks),
        format!("\"blocks_per_sec\": {blocks_per_sec:.1}"),
        format!("\"gpus\": {}", cfg.gpus),
        format!("\"devices\": {}", json_block('[', ']', INDENT, devices)),
        format!("\"stage_shares\": {}", ratios(r.relative_stage_times())),
        format!("\"stage_utilization\": {}", ratios(utilization)),
        format!("\"top_stalls\": {}", json_block('{', '}', INDENT, stalls)),
        format!("\"reuse_waits\": {}", json_block('[', ']', INDENT, waits)),
        format!(
            "\"critical_path\": {}",
            json_block('{', '}', INDENT, critical_path)
        ),
        format!("\"what_if\": {}", json_block('[', ']', INDENT, what_if)),
    ];
    json_block('{', '}', "      ", fields)
}

/// A one-cell `name=share%` summary of the leading `items`.
fn shares<K: std::fmt::Display>(items: &[(K, u64)], crit: &CritReport) -> String {
    let cells: Vec<String> = (items.iter().take(6))
        .map(|(k, ns)| format!("{k}={:.1}%", crit.share(*ns) * 100.0))
        .collect();
    cells.join(" ")
}

/// `cfg` with a structural what-if perturbation applied, to re-run the
/// prediction for real; `None` for modeled perturbations (they assume a
/// cost model, not a schedule change) and reuse edges the config cannot
/// reach.
fn perturbed(cfg: &HarnessConfig, p: &Perturbation) -> Option<HarnessConfig> {
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
    Some(cfg)
}

impl Report {
    /// The fields every snapshot starts with: size, seed and the
    /// `provenance` block naming the producer `bench` and the apps run.
    fn snapshot_head(&self, bench: &str, apps: &[&str]) -> Vec<String> {
        vec![
            format!("\"bytes_per_app\": {}", self.args.bytes),
            format!("\"seed\": {}", self.args.seed),
            format!("\"provenance\": {}", self.args.provenance_json(bench, apps)),
        ]
    }

    /// `BENCH_pipeline.json`: host wall clock of each app's BigKernel run
    /// (best of [`ITERS`], set-up excluded) beside its simulated stage
    /// shares, critical-path blame and top what-ifs, then the `scaling`
    /// sweep and a fusion sweep over the multi-pass apps. Like the scaling
    /// sweep, the fusion sweep ignores `--app`; it fails unless every app
    /// fuses and moves strictly fewer PCIe bytes fused than unfused.
    pub(super) fn pipeline(&self) -> Rendered {
        let cfg = &self.cfg;
        let (mut names, mut apps_json, mut rows) = (Vec::new(), Vec::new(), Vec::new());
        for app in self.apps() {
            let name = short_name(app.spec().name);
            let wall = (0..ITERS)
                .map(|_| self.timed_bigkernel(app.as_ref(), cfg).1)
                .fold(f64::INFINITY, f64::min);
            // Simulated results are deterministic: one more run, with the
            // schedule captured and outside the timed region, stands for
            // every timed one.
            let (r, waves) = self.captured(app.as_ref(), cfg);
            let crit = bk_obs::analyze(&waves);
            let mut what_if = whatif::rank(&waves, cfg.gpus);
            what_if.truncate(WHAT_IF_TOP);
            apps_json.push(pipeline_app_json(name, wall, cfg, &r, &crit, &what_if));
            let stage_shares: Vec<String> = (r.relative_stage_times().into_iter())
                .filter(|(_, share)| *share > 0.005)
                .map(|(stage, share)| format!("{stage}={:.0}%", share * 100.0))
                .collect();
            let top_stall = top_stalls(&crit).first().map_or("none".into(), |(k, ns)| {
                format!("{k}={:.2}ms", *ns as f64 / 1e6)
            });
            let best = what_if.first().map_or("–".into(), |p| {
                format!("{} ({})", p.scenario.label, render::speedup(p.speedup))
            });
            let path = crit.stage_blame.first().map_or("–".into(), |(stage, ns)| {
                format!("{stage} {:.0}%", crit.share(*ns) * 100.0)
            });
            rows.push(format!(
                "{name} | {wall:.3} | {} | {:.0} | {} | {top_stall} | {path} | {best}",
                r.chunks,
                cfg.launch.num_blocks as f64 * r.chunks as f64 / wall,
                stage_shares.join(" "),
            ));
            names.push(name);
        }

        let scaling = self.scaling_rows().iter().map(|s| {
            format!(
                "{{ \"app\": \"{}\", \"gpus\": {}, \"sim_secs\": {:.9}, \"speedup\": {:.3} }}",
                s.app, s.gpus, s.sim_secs, s.speedup
            )
        });
        let (mut failures, mut fusion_json, mut fusion_rows) = (Vec::new(), Vec::new(), Vec::new());
        let fusion_apps: [Box<dyn BenchApp>; 3] = [
            Box::new(KMeans::default()),
            Box::new(Affinity::default()),
            Box::new(FilterCount),
        ];
        for app in &fusion_apps {
            let name = short_name(app.spec().name);
            let run = |fuse| {
                self.bigkernel(
                    app.as_ref(),
                    &HarnessConfig {
                        fuse,
                        ..cfg.clone()
                    },
                )
            };
            let (un, fu) = (run(false), run(true));
            let get = |r: &RunResult, k| r.metrics.get(k);
            let (un_h2d, un_d2h) = (get(&un, "pcie.h2d_bytes"), get(&un, "pcie.d2h_bytes"));
            let (fu_h2d, fu_d2h) = (get(&fu, "pcie.h2d_bytes"), get(&fu, "pcie.d2h_bytes"));
            let fused = get(&fu, "fusion.fused") == 1;
            let saved = (un_h2d + un_d2h) as i64 - (fu_h2d + fu_d2h) as i64;
            let speedup = if fu.total.is_zero() {
                1.0
            } else {
                un.total.ratio(fu.total)
            };
            // The sweep apps fuse by construction: a refusal, or a fused run
            // that does not strictly cut PCIe traffic, means the dependence
            // analysis or the transfer elision regressed.
            if !fused {
                failures.push(format!("fusion: {name} was refused — sweep apps must fuse"));
            } else if saved <= 0 {
                failures.push(format!(
                    "fusion: {name} moved {} bytes fused vs {} unfused — fusion must \
                     strictly reduce transfers",
                    fu_h2d + fu_d2h,
                    un_h2d + un_d2h
                ));
            }
            fusion_json.push(format!(
                "{{ \"app\": \"{name}\", \"fused\": {fused}, \
                 \"unfused_h2d_bytes\": {un_h2d}, \"unfused_d2h_bytes\": {un_d2h}, \
                 \"fused_h2d_bytes\": {fu_h2d}, \"fused_d2h_bytes\": {fu_d2h}, \
                 \"saved_bytes\": {saved}, \"unfused_sim_secs\": {:.9}, \
                 \"fused_sim_secs\": {:.9}, \"speedup\": {speedup:.4} }}",
                un.total.secs(),
                fu.total.secs()
            ));
            fusion_rows.push(format!(
                "{name} | {fused} | {} | {} | {saved} | {}",
                un_h2d + un_d2h,
                fu_h2d + fu_d2h,
                render::speedup(speedup)
            ));
        }

        let threads = self.args.threads.map_or("null".into(), |t| t.to_string());
        let provenance = self.args.provenance_json("perf_snapshot", &names);
        let fields = [
            format!("\"bytes_per_app\": {}", self.args.bytes),
            format!("\"seed\": {}", self.args.seed),
            format!("\"threads\": {threads}"),
            format!("\"iters\": {ITERS}"),
            format!("\"provenance\": {provenance}"),
            format!("\"apps\": {}", json_block('[', ']', "    ", apps_json)),
            format!("\"scaling\": {}", json_block('[', ']', "    ", scaling)),
            format!("\"fusion\": {}", json_block('[', ']', "    ", fusion_json)),
        ];
        let json = json_block('{', '}', "  ", fields);
        let markdown = table(
            "app | wall (s) | chunks | blocks/s | stage shares | top critical stall | \
             critical path | best what-if",
            rows,
        )
            + "\n(wall clock is host seconds of the run itself, best of 3; everything else \
             is simulated. Scaling rows: see the `scaling` section)\n\n### Fusion sweep\n\n"
            + &table(
                "app | fused | unfused PCIe B | fused PCIe B | saved B | speedup",
                fusion_rows,
            );
        Rendered {
            markdown,
            artifact: Some(("BENCH_pipeline.json", json)),
            failures,
        }
    }

    /// `BENCH_chaos.json`: every selected app at each fault rate in
    /// [`RATES`] (slowdown against its fault-free run, plus the `fault.*`
    /// recovery counters), then on at least 2 GPUs with the last device
    /// killed at [`KILL_WAVE`]. A `--faults` spec seeds the template (its
    /// seed, retries, backoff and `fail=` sites; rate and device failure
    /// are the sweep's). Every run is verified: faults move durations and
    /// chunk placement, never outputs.
    pub(super) fn chaos(&self) -> Rendered {
        let template = self.args.faults.clone().unwrap_or(FaultPlan {
            seed: self.args.seed,
            ..FaultPlan::default()
        });
        let run = |app: &dyn BenchApp, gpus: usize, faults: Option<FaultPlan>| {
            let mut cfg = HarnessConfig {
                gpus,
                ..self.cfg.clone()
            };
            cfg.bigkernel.faults = faults;
            self.bigkernel(app, &cfg)
        };
        let gpus = self.cfg.gpus;
        let failover_gpus = gpus.max(2);
        let killed = failover_gpus - 1;
        let (mut names, mut sweep, mut sweep_rows) = (Vec::new(), Vec::new(), Vec::new());
        let (mut failover, mut failover_rows) = (Vec::new(), Vec::new());
        for app in self.apps() {
            let name = short_name(app.spec().name);
            names.push(name);
            let mut clean = SimTime::ZERO;
            for rate in RATES {
                let faults = (rate > 0.0).then(|| FaultPlan {
                    rate,
                    device_failure: None,
                    ..template.clone()
                });
                let r = run(app.as_ref(), gpus, faults);
                if rate == 0.0 {
                    clean = r.total;
                }
                let c = |k| r.metrics.get(k);
                let counters = [
                    c("fault.injected"),
                    c("fault.retried"),
                    c("fault.failed_over"),
                    c("fault.degraded"),
                ];
                let [injected, retried, failed_over, degraded] = counters;
                let (secs, slow) = (r.total.secs(), slowdown(r.total, clean));
                sweep.push(format!(
                    "{{ \"app\": \"{name}\", \"rate\": {rate:.4}, \"sim_secs\": {secs:.9}, \
                     \"slowdown\": {slow:.4}, \"injected\": {injected}, \
                     \"retried\": {retried}, \"failed_over\": {failed_over}, \
                     \"degraded\": {degraded} }}"
                ));
                let counters = counters.map(|n| n.to_string()).join(" | ");
                sweep_rows.push(format!(
                    "{name} | {rate:.3} | {secs:.6} | {slow:.2}x | {counters}"
                ));
            }
            let clean = run(app.as_ref(), failover_gpus, None).total;
            let kill = FaultPlan {
                rate: 0.0,
                sites: Vec::new(),
                device_failure: Some(DeviceFailure {
                    device: killed,
                    wave: KILL_WAVE,
                }),
                ..template.clone()
            };
            let r = run(app.as_ref(), failover_gpus, Some(kill));
            let (secs, clean_secs) = (r.total.secs(), clean.secs());
            let (slow, requeued) = (slowdown(r.total, clean), r.metrics.get("fault.failed_over"));
            failover.push(format!(
                "{{ \"app\": \"{name}\", \"gpus\": {failover_gpus}, \"killed_device\": {killed}, \
                 \"kill_wave\": {KILL_WAVE}, \"sim_secs\": {secs:.9}, \"clean_sim_secs\": \
                 {clean_secs:.9}, \"slowdown\": {slow:.4}, \"failed_over\": {requeued} }}"
            ));
            failover_rows.push(format!(
                "{name} | {failover_gpus} | {killed} | {secs:.6} | {clean_secs:.6} | \
                 {slow:.2}x | {requeued}"
            ));
        }

        let rates: Vec<String> = RATES.iter().map(|r| format!("{r:.4}")).collect();
        let mut fields = self.snapshot_head("chaos", &names);
        fields.extend([
            format!("\"fault_seed\": {}", template.seed),
            format!("\"max_retries\": {}", template.max_retries),
            format!("\"backoff_us\": {:.3}", template.backoff.micros()),
            format!("\"rates\": [{}]", rates.join(", ")),
            format!("\"sweep\": {}", json_block('[', ']', "    ", sweep)),
            format!("\"failover\": {}", json_block('[', ']', "    ", failover)),
        ]);
        let json = json_block('{', '}', "  ", fields);
        let markdown = table(
            "app | fault rate | time (s) | slowdown | injected | retried | failed over | degraded",
            sweep_rows,
        ) + "\n### Device failover\n\n"
            + &table(
                "app | gpus | killed | time (s) | fault-free (s) | slowdown | requeued",
                failover_rows,
            )
            + "\n(every run verified against the pure-Rust reference output)\n";
        Rendered {
            markdown,
            artifact: Some(("BENCH_chaos.json", json)),
            failures: Vec::new(),
        }
    }

    /// `BENCH_streaming.json`: continuous ingestion (DESIGN.md §16) of the
    /// drifting apps over a window-shape × queue-bound grid, each fed by a
    /// constant-rate source at [`RATE_FACTOR`] × the app's batch throughput,
    /// so the bounded queue, not the source, limits and backpressure shows.
    /// `--window` and `--queue-bound` pin one grid point; `--autotune on`
    /// attaches the between-window tuner. Fails unless some grid point hit
    /// backpressure and some app re-detected its pattern; an `--app` that
    /// matches no drifting app fails too.
    pub(super) fn streaming(&self) -> Rendered {
        let (bytes, seed) = (self.args.bytes, self.args.seed);
        let tune = (self.args.autotune == Some(true)).then(AutotuneConfig::default);
        let mut runs = Vec::new();
        for app in drifting_apps() {
            if !self.args.selected(app.spec().name) {
                continue;
            }
            // Calibrate the source: one batch run measures the pipeline's
            // throughput.
            let mut machine = self.cfg.build_machine();
            let instance = app.instantiate(&mut machine, bytes, seed);
            let batch = run_implementation(
                &mut machine,
                &instance,
                Implementation::BigKernel,
                &self.cfg,
            );
            let len = instance.streams[0].len();
            let rate = RATE_FACTOR * len as f64 / batch.total.secs().max(1e-12);
            // A fine and a coarse byte window plus an arrival-interval
            // window of about 24 cuts at the calibrated rate.
            let policies = match self.args.window {
                Some(w) => vec![w],
                None => vec![
                    WindowPolicy::ByBytes((len / 32).max(1)),
                    WindowPolicy::ByBytes((len / 8).max(1)),
                    WindowPolicy::ByInterval(SimTime::from_secs(len as f64 / rate / 24.0)),
                ],
            };
            let bounds = self
                .args
                .queue_bound
                .map_or(QUEUE_BOUNDS.to_vec(), |b| vec![b]);
            for policy in policies {
                for &queue_bound in &bounds {
                    let scfg = StreamConfig {
                        policy,
                        queue_bound,
                        redetect_threshold: REDETECT_THRESHOLD,
                        autotune: tune.clone(),
                    };
                    let (r, _) =
                        run_streamed_at_rate(app.as_ref(), bytes, seed, &self.cfg, &scfg, rate);
                    let name = short_name(app.spec().name);
                    runs.push((name, ExpArgs::window_spec(&policy), queue_bound, r));
                }
            }
        }

        let gates = [
            (!runs.is_empty(), "no drifting app matches the --app filter"),
            (
                runs.iter()
                    .any(|(.., r)| r.metrics.get("stream.backpressure_ns") > 0),
                "no grid point ever hit the queue's high-watermark",
            ),
            (
                runs.iter().any(|(.., r)| r.redetects > 0),
                "no drifting app triggered a re-detection",
            ),
        ];
        let failures = (gates.iter().filter(|(ok, _)| !ok))
            .map(|(_, why)| format!("streaming: {why}"))
            .collect();
        let mut names: Vec<&str> = runs.iter().map(|(name, ..)| *name).collect();
        names.dedup();
        let (mut json_runs, mut rows) = (Vec::new(), Vec::new());
        for (name, window, bound, r) in &runs {
            let depth = r.windows.iter().map(|w| w.depth).max().unwrap_or(0);
            let backpressure = r.metrics.get("stream.backpressure_ns");
            let (n, secs, p99) = (r.windows.len(), r.total.secs(), r.p99_latency.micros());
            let (redetects, retunes) = (r.redetects, r.retunes);
            json_runs.push(format!(
                "{{ \"app\": \"{name}\", \"window\": \"{window}\", \"queue_bound\": {bound}, \
                 \"windows\": {n}, \"sim_secs\": {secs:.9}, \
                 \"sustained_bytes_per_sec\": {:.1}, \"p99_latency_us\": {p99:.3}, \
                 \"backpressure_ns\": {backpressure}, \"max_depth\": {depth}, \
                 \"redetects\": {redetects}, \"retunes\": {retunes} }}",
                r.sustained_bytes_per_sec
            ));
            rows.push(format!(
                "{name} | {window} | {bound} | {n} | {secs:.6} | {:.1} | {p99:.3} | {:.3} | \
                 {depth} | {redetects} | {retunes}",
                r.sustained_bytes_per_sec / (1 << 20) as f64,
                backpressure as f64 / 1e6
            ));
        }
        let mut fields = self.snapshot_head("streaming", &names);
        fields.extend([
            format!("\"source_rate_factor\": {RATE_FACTOR}"),
            format!("\"redetect_threshold\": {REDETECT_THRESHOLD}"),
            format!("\"runs\": {}", json_block('[', ']', "    ", json_runs)),
        ]);
        let json = json_block('{', '}', "  ", fields);
        let markdown = table(
            "app | window | queue bound | windows | time (s) | MiB/s | p99 latency (us) | \
             backpressure (ms) | max depth | re-detects | re-tunes",
            rows,
        )
            + "\n(every streamed run verified against the pure-Rust reference output)\n";
        Rendered {
            markdown,
            artifact: Some(("BENCH_streaming.json", json)),
            failures,
        }
    }

    /// Where each selected app's simulated time went and what single change
    /// would buy the most: critical-path blame per stage, resource and
    /// device from one captured BigKernel run, then the what-if scenarios
    /// ranked by predicted speedup, with each structural one re-run for
    /// real. Fails when the path segments do not tile the makespan exactly
    /// (integer ns), the analyzer's makespan differs from the simulated
    /// total, the identity replay drifts by more than [`IDENTITY_TOL`], a
    /// structural prediction misses its re-run by more than
    /// [`STRUCTURAL_TOL`], or `--app` matches no app. Fault plans perturb
    /// durations, so a faulted run gets the tiling check only.
    pub(super) fn bottleneck(&self) -> Rendered {
        let cfg = &self.cfg;
        let pure = cfg.bigkernel.faults.is_none();
        let (mut failures, mut paths, mut whatifs) = (Vec::new(), Vec::new(), Vec::new());
        for app in self.apps() {
            let name = short_name(app.spec().name);
            let (r, waves) = self.captured(app.as_ref(), cfg);
            let crit = bk_obs::analyze(&waves);
            if !crit.tiles_exactly() {
                failures.push(format!(
                    "{name}: critical-path blame sums to {} ns, observed makespan {} ns",
                    crit.blame_sum_ns(),
                    crit.makespan_ns
                ));
            }
            if pure && crit.makespan != r.total {
                failures.push(format!(
                    "{name}: analyzer makespan {} != simulated total {}",
                    crit.makespan, r.total
                ));
            }
            match whatif::predict(&waves, cfg.gpus, &Perturbation::Identity) {
                Some(identity) if rel_err(identity, crit.makespan) > IDENTITY_TOL => {
                    failures.push(format!(
                        "{name}: identity replay {identity} vs observed {}",
                        crit.makespan
                    ))
                }
                Some(_) => {}
                None => failures.push(format!(
                    "{name}: identity replay could not re-schedule the capture"
                )),
            }
            let devices: Vec<(String, u64)> = (crit.device_blame.iter())
                .map(|&(d, ns)| (format!("dev{d}"), ns))
                .collect();
            let reuse: Vec<String> = (crit.reuse_blame.iter())
                .map(|&(consumer, ns)| format!("consumer#{consumer}={:.3}ms", ns as f64 / 1e6))
                .collect();
            paths.push(format!(
                "{name} | {} | {} | {} | {} | {} | {} | {}",
                crit.makespan,
                crit.waves,
                crit.segments.len(),
                shares(&crit.stage_blame, &crit),
                shares(&crit.resource_blame, &crit),
                shares(&devices, &crit),
                reuse.join(" ")
            ));
            for p in whatif::rank(&waves, cfg.gpus) {
                let rerun = (pure && !p.scenario.modeled)
                    .then(|| perturbed(cfg, &p.scenario.perturbation))
                    .flatten();
                let actual = rerun.map_or("–".into(), |cfg| {
                    let actual = self.bigkernel(app.as_ref(), &cfg).total;
                    let err = rel_err(p.makespan, actual);
                    if err > STRUCTURAL_TOL {
                        failures.push(format!(
                            "{name}: {:?} predicted {} but the re-run took {actual}",
                            p.scenario.label, p.makespan
                        ));
                    }
                    format!("{actual} (err {:.4}%)", err * 100.0)
                });
                let kind = if p.scenario.modeled {
                    "modeled"
                } else {
                    "structural"
                };
                whatifs.push(format!(
                    "{name} | {} | {} | {} | {kind} | {actual}",
                    p.scenario.label,
                    render::speedup(p.speedup),
                    p.makespan
                ));
            }
        }
        if paths.is_empty() {
            failures.push("bottleneck: no app matches the --app filter".into());
        }
        let markdown = table(
            "app | makespan | waves | critical segments | by stage | by resource | by device | \
             reuse waits on path",
            paths,
        ) + "\n### What-if scenarios (ranked by predicted speedup)\n\n"
            + &table(
                "app | scenario | speedup | predicted | kind | actual re-run",
                whatifs,
            );
        Rendered {
            markdown,
            artifact: None,
            failures,
        }
    }
}
