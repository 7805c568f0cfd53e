//! The experiment driver behind the `report` binary: one fixed, ordered
//! list of named sections, each rendering one markdown section.
//!
//! The first six (the paper set) regenerate the paper's §V evaluation
//! in `results/REPORT.md` order; the rest are extension experiments, and
//! the last four also produce the committed `BENCH_*.json` snapshots and
//! check the critical-path identities (`report/snapshots.rs`). The
//! Fig. 4(a), Table I, Fig. 4(b) and Fig. 6 sections read one shared
//! [`Implementation::FIG4A`] run set per app (every implementation runs on
//! a fresh machine with the same seed, so a run does not depend on which
//! others ran beside it).

use crate::render::{self, table};
use crate::{all_apps, args::ExpArgs, expectations, short_name};
use bk_apps::kmeans::KMeans;
use bk_apps::wordcount::WordCount;
use bk_apps::{run_all, run_implementation, BenchApp, HarnessConfig, Implementation};
use bk_baselines::gpu_buffered::BASELINE_STAGES;
use bk_baselines::BigKernelVariant;
use bk_host::PcieLink;
use bk_obs::critpath::WaveDag;
use bk_runtime::graph::{buffered_graph, pipeline_graph, serial_graph};
use bk_runtime::pipeline::STAGE_NAMES;
use bk_runtime::{Machine, RunResult, StageStat, SyncMode};
use bk_simcore::pipeline::schedule;
use bk_simcore::{Schedule, SimTime};
use std::cell::OnceCell;
use std::fmt::Write as _;
use std::time::Instant;

mod snapshots;

/// One named section of the report.
pub struct Section {
    /// Name selecting the section on the `report` command line.
    pub name: &'static str,
    /// Markdown heading.
    pub title: &'static str,
    body: Body,
}

/// How a section renders: markdown alone, or a snapshot section's full
/// [`Rendered`] output.
enum Body {
    Markdown(fn(&Report) -> String),
    Snapshot(fn(&Report) -> Rendered),
}

const fn section(name: &'static str, title: &'static str, body: fn(&Report) -> String) -> Section {
    let body = Body::Markdown(body);
    Section { name, title, body }
}

const fn snapshot(
    name: &'static str,
    title: &'static str,
    body: fn(&Report) -> Rendered,
) -> Section {
    let body = Body::Snapshot(body);
    Section { name, title, body }
}

/// What a section produced.
pub struct Rendered {
    /// The section as markdown.
    pub markdown: String,
    /// A file for the `report` binary to write: (file name, contents).
    pub artifact: Option<(&'static str, String)>,
    /// The section's gate checks that failed, one line each; the `report`
    /// binary exits non-zero after writing the artifact when any did.
    pub failures: Vec<String>,
}

impl Section {
    /// Run the section; its markdown starts with the section heading.
    pub fn render(&self, report: &Report) -> Rendered {
        let mut out = match self.body {
            Body::Markdown(body) => Rendered {
                markdown: body(report),
                artifact: None,
                failures: Vec::new(),
            },
            Body::Snapshot(body) => body(report),
        };
        out.markdown = format!("## {}\n\n{}", self.title, out.markdown);
        out
    }
}

/// Every section, paper set first (in `results/REPORT.md` order).
pub const SECTIONS: [Section; 15] = [
    section(
        "fig4a",
        "Fig. 4(a) — speedup over serial CPU",
        Report::fig4a,
    ),
    section(
        "table1",
        "Table I — mapped data (paper / measured)",
        Report::table1,
    ),
    section(
        "fig4b",
        "Fig. 4(b) — single-buffer comp/comm",
        Report::fig4b,
    ),
    section(
        "fig6",
        "Fig. 6 — relative stage times (BigKernel)",
        Report::fig6,
    ),
    section(
        "fig5",
        "Fig. 5 — incremental feature benefit (vs single buffer)",
        Report::fig5,
    ),
    section(
        "table2",
        "Table II — pattern recognition improvement",
        Report::table2,
    ),
    section(
        "ablation",
        "Ablations — §IV design choices",
        Report::ablation,
    ),
    section(
        "sensitivity",
        "Interconnect sensitivity",
        Report::sensitivity,
    ),
    section(
        "scaling",
        "GPU scaling — chunks sharded across replicated GPUs",
        Report::scaling,
    ),
    section(
        "stages",
        "Stage busy times per implementation",
        Report::stages,
    ),
    section(
        "timeline",
        "Pipeline timelines (paper Fig. 2)",
        Report::timeline,
    ),
    snapshot(
        "pipeline",
        "Pipeline snapshot — host wall clock, simulated blame, fusion (BENCH_pipeline.json)",
        Report::pipeline,
    ),
    snapshot(
        "chaos",
        "Chaos — fault-rate sweep and device failover (BENCH_chaos.json)",
        Report::chaos,
    ),
    snapshot(
        "streaming",
        "Streaming — window and queue-bound sweep over the drifting apps (BENCH_streaming.json)",
        Report::streaming,
    ),
    snapshot(
        "bottleneck",
        "Bottleneck — critical-path blame and checked what-if predictions",
        Report::bottleneck,
    ),
];

/// How many leading [`SECTIONS`] make up the paper set.
const PAPER_SECTIONS: usize = 6;

/// The sections `names` select, in the order given; no names selects the
/// paper set. An unknown name is an error that lists the valid ones.
pub fn select(names: &[String]) -> Result<Vec<&'static Section>, String> {
    if names.is_empty() {
        return Ok(SECTIONS[..PAPER_SECTIONS].iter().collect());
    }
    names
        .iter()
        .map(|n| {
            SECTIONS.iter().find(|s| s.name == n).ok_or_else(|| {
                let valid: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
                format!(
                    "unknown section {n:?} (expected one of: {})",
                    valid.join(", ")
                )
            })
        })
        .collect()
}

/// Parse the `report` flags for the selected `sections`, refusing what no
/// selected section reads: the streaming-only `--autotune`, `--window` and
/// `--queue-bound` need the `streaming` section, which refuses `--fuse`.
pub fn parse_flags(sections: &[&Section], flags: Vec<String>) -> Result<ExpArgs, String> {
    let args = ExpArgs::parse_named("report", flags.into_iter())?;
    args.check_streaming("report", sections.iter().any(|s| s.name == "streaming"))?;
    Ok(args)
}

/// Split command-line words into section names and [`ExpArgs`] flags. A
/// word is a flag, or the value of the flag before it, when it starts with
/// `-` or follows a flag that takes a value (every flag but `--fuse[=..]`
/// and `--help`); any other word is a section name.
pub fn split_names(words: impl IntoIterator<Item = String>) -> (Vec<String>, Vec<String>) {
    let (mut names, mut flags) = (Vec::new(), Vec::new());
    let mut value_next = false;
    for w in words {
        if value_next {
            value_next = false;
            flags.push(w);
        } else if w.starts_with('-') {
            value_next = !(w.starts_with("--fuse") || w == "--help" || w == "-h");
            flags.push(w);
        } else {
            names.push(w);
        }
    }
    (names, flags)
}

/// One app's [`Implementation::FIG4A`] runs, in that order.
struct AppRuns {
    app: Box<dyn BenchApp + Sync>,
    runs: Vec<RunResult>,
}

impl AppRuns {
    fn name(&self) -> &'static str {
        self.app.spec().name
    }
    /// Speedup of `FIG4A[i]` over the serial CPU run.
    fn speedup(&self, i: usize) -> f64 {
        self.runs[0].total.ratio(self.runs[i].total)
    }
    /// BigKernel's speedup over `FIG4A[i]`.
    fn bk_over(&self, i: usize) -> f64 {
        self.runs[i].total.ratio(self.runs[4].total)
    }
    /// Table I's measured (read %, modified %) from the BigKernel run.
    /// MasterCard Affinity scans the data once per pass; Table I reports
    /// the per-pass proportion, so reads are normalized by pass count.
    fn read_modified_pct(&self, bytes: u64) -> (f64, f64) {
        let m = &self.runs[4].metrics;
        let passes = if self.name().starts_with("MasterCard") {
            2
        } else {
            1
        };
        (
            100.0 * m.get("stream.bytes_read") as f64 / (bytes * passes) as f64,
            100.0 * m.get("stream.bytes_written") as f64 / bytes as f64,
        )
    }
}

/// A report run: the parsed flags, the harness config they give, and the
/// run sets several sections share (computed on first use): the Fig. 4(a)
/// runs and the GPU scaling sweep.
pub struct Report {
    args: ExpArgs,
    cfg: HarnessConfig,
    fig4a_runs: OnceCell<Vec<AppRuns>>,
    scaling_rows: OnceCell<Vec<ScalingRow>>,
}

/// Cell width of the timeline Gantt charts.
const GANTT_WIDTH: usize = 100;
/// Chunks in each timeline's representative window.
const TIMELINE_CHUNKS: usize = 8;

impl Report {
    /// Build the config for `args` (`paper_scaled` plus the flags).
    pub fn new(args: ExpArgs) -> Self {
        let mut cfg = HarnessConfig::paper_scaled(args.bytes);
        args.apply(&mut cfg);
        Report {
            args,
            cfg,
            fig4a_runs: OnceCell::new(),
            scaling_rows: OnceCell::new(),
        }
    }

    /// The `results/REPORT.md` document: a preamble, then every rendered
    /// section's markdown.
    pub fn markdown(&self, sections: &[Rendered]) -> String {
        let mut md = format!(
            "# BigKernel reproduction report\n\nScale: {} MiB per application, seed {}. \
             Times are simulated; see\nEXPERIMENTS.md for interpretation.\n",
            self.args.bytes >> 20,
            self.args.seed
        );
        for s in sections {
            md.push('\n');
            md.push_str(&s.markdown);
        }
        md
    }

    /// Apps passing `--app`, in Table I order.
    fn apps(&self) -> impl Iterator<Item = Box<dyn BenchApp + Sync>> + '_ {
        all_apps()
            .into_iter()
            .filter(|a| self.args.selected(a.spec().name))
    }

    /// Verified runs of `imps` on `app` under `cfg`, in `imps` order.
    fn run(
        &self,
        app: &(dyn BenchApp + Sync),
        cfg: &HarnessConfig,
        imps: &[Implementation],
    ) -> Vec<RunResult> {
        let runs = run_all(app, self.args.bytes, self.args.seed, cfg, imps);
        runs.into_iter().map(|(_, r)| r).collect()
    }

    fn bigkernel(&self, app: &dyn BenchApp, cfg: &HarnessConfig) -> RunResult {
        self.timed_bigkernel(app, cfg).0
    }

    /// One verified BigKernel run of `app` under `cfg` on this thread, and
    /// the host seconds the run itself took (machine set-up, data
    /// generation and verification excluded).
    fn timed_bigkernel(&self, app: &dyn BenchApp, cfg: &HarnessConfig) -> (RunResult, f64) {
        let mut machine = cfg.build_machine();
        let instance = app.instantiate(&mut machine, self.args.bytes, self.args.seed);
        let t0 = Instant::now();
        let r = run_implementation(&mut machine, &instance, Implementation::BigKernel, cfg);
        let secs = t0.elapsed().as_secs_f64();
        if let Err(e) = (instance.verify)(&machine) {
            panic!(
                "{} failed verification under BigKernel: {e}",
                app.spec().name
            );
        }
        (r, secs)
    }

    /// [`Report::bigkernel`] with schedule capture live: the run and every
    /// wave it scheduled, for the critical-path analyzer.
    fn captured(&self, app: &dyn BenchApp, cfg: &HarnessConfig) -> (RunResult, Vec<WaveDag>) {
        let guard = bk_obs::critpath::capture();
        let r = self.bigkernel(app, cfg);
        (r, guard.finish())
    }

    fn fig4a_runs(&self) -> &[AppRuns] {
        self.fig4a_runs.get_or_init(|| {
            self.apps()
                .map(|app| {
                    let runs = self.run(app.as_ref(), &self.cfg, &Implementation::FIG4A);
                    AppRuns { app, runs }
                })
                .collect()
        })
    }

    /// BigKernel on 1, 2 and 4 replicated GPUs for the three streaming-heavy
    /// apps (Word Count, DNA Assembly, Netflix: they keep every stage busy,
    /// so sharding has real work to spread), under the report's config with
    /// the device count overridden. `--app` does not apply, so `scaling` and
    /// `pipeline` record the same rows. Every run is verified.
    fn scaling_rows(&self) -> &[ScalingRow] {
        const SCALING_APPS: [&str; 3] = ["Word Count", "DNA Assembly", "Netflix"];
        self.scaling_rows.get_or_init(|| {
            let mut out = Vec::new();
            for app in all_apps() {
                let name = app.spec().name;
                if !SCALING_APPS.contains(&name) {
                    continue;
                }
                let mut base: Option<SimTime> = None;
                for gpus in [1usize, 2, 4] {
                    let cfg = HarnessConfig {
                        gpus,
                        ..self.cfg.clone()
                    };
                    let r = self.bigkernel(app.as_ref(), &cfg);
                    let b = *base.get_or_insert(r.total);
                    let overlap = (0..gpus)
                        .map(|d| {
                            let busy = r.metrics.get(&format!("device.{d}.busy_ns"));
                            let span = r.metrics.get(&format!("device.{d}.makespan_ns"));
                            (span > 0).then(|| busy as f64 / span as f64)
                        })
                        .collect();
                    out.push(ScalingRow {
                        app: short_name(name),
                        gpus,
                        sim_secs: r.total.secs(),
                        speedup: b.ratio(r.total),
                        overlap,
                    });
                }
            }
            out
        })
    }

    /// Geomean of BigKernel's speedup over `FIG4A[i]` across the apps.
    fn bk_geomean(&self, i: usize) -> f64 {
        let v: Vec<f64> = self.fig4a_runs().iter().map(|a| a.bk_over(i)).collect();
        render::geomean(&v)
    }

    fn fig4a(&self) -> String {
        use expectations::headline::*;
        let runs = self.fig4a_runs();
        let rows = runs.iter().map(|a| {
            let s = |i| render::speedup(a.speedup(i));
            let serial = a.runs[0].total.secs();
            let name = short_name(a.name());
            format!(
                "{name} | {} | {} | {} | **{}** | {serial:.4}",
                s(1),
                s(2),
                s(3),
                s(4)
            )
        });
        // BigKernel over double buffer, single buffer and cpu-mt (FIG4A[3, 2, 1]).
        let vs = |label: &str, measured: [f64; 3], paper: [f64; 3]| {
            format!(
                "\n{label}: BK/double {:.2}x (paper {:.1}x), BK/single {:.2}x (paper {:.1}x), \
                 BK/cpu-mt {:.2}x (paper {:.1}x)\n",
                measured[0], paper[0], measured[1], paper[1], measured[2], paper[2]
            )
        };
        let max = |i| runs.iter().map(|a| a.bk_over(i)).fold(0.0, f64::max);
        table(
            "app | cpu-mt | gpu-1buf | gpu-2buf | bigkernel | serial (s)",
            rows,
        ) + &vs(
            "Geomeans",
            [3, 2, 1].map(|i| self.bk_geomean(i)),
            [BK_VS_DB_AVG, BK_VS_SB_AVG, BK_VS_CPU_MT_AVG],
        ) + &vs(
            "Maxima",
            [3, 2, 1].map(max),
            [BK_VS_DB_MAX, BK_VS_SB_MAX, BK_VS_CPU_MT_MAX],
        )
    }

    fn table1(&self) -> String {
        let mib = self.args.bytes >> 20;
        let rows = self.fig4a_runs().iter().map(|a| {
            let spec = a.app.spec();
            let (read, modified) = a.read_modified_pct(self.args.bytes);
            let (paper_read, paper_mod) = (spec.paper_read_pct, spec.paper_modified_pct);
            format!(
                "{} | {} | {paper_read}% / {read:.1}% | {paper_mod}% / {modified:.1}% | {mib}MiB",
                spec.name, spec.record_type
            )
        });
        table("app | record type | read | modified | data size", rows)
            + "\n(paper data sizes were 4.5-6.4 GB; proportions are scale-invariant)\n"
    }

    fn fig4b(&self) -> String {
        let rows = self.fig4a_runs().iter().map(|a| {
            let sb = &a.runs[2];
            let comp = sb.stage_busy("compute");
            let comm = sb.stage_busy("stage-pin")
                + sb.stage_busy("transfer")
                + sb.stage_busy("wb-xfer")
                + sb.stage_busy("wb-apply");
            let total = comp + comm;
            let frac = if total.is_zero() {
                0.0
            } else {
                comp.ratio(total)
            };
            let (name, note) = (
                short_name(a.name()),
                expectations::discussion_note(a.name()),
            );
            format!(
                "{name} | {:.0}% | {:.0}% | {note}",
                frac * 100.0,
                (1.0 - frac) * 100.0
            )
        });
        table("app | computation | communication | paper discussion", rows)
            + "\n(paper: Word Count and Opinion Finder are computation-dominant;\n\
               the remaining applications are communication-dominant)\n"
    }

    fn fig6(&self) -> String {
        let rows = self.fig4a_runs().iter().map(|a| {
            let bk = &a.runs[4];
            let busy = STAGE_NAMES.map(|stage| role_stat(bk, stage, |s| s.busy));
            let max = busy.iter().copied().fold(SimTime::ZERO, SimTime::max);
            let pct = busy.map(|b| {
                let f = if max.is_zero() {
                    0.0
                } else {
                    b.ratio(max) * 100.0
                };
                format!("{f:.0}%")
            });
            format!(
                "{} | {} | {:.5}",
                short_name(a.name()),
                pct.join(" | "),
                bk.total.secs()
            )
        });
        let header = format!("app | {} | total (s)", STAGE_NAMES.join(" | "));
        table(&header, rows)
            + "\n(paper: addr-gen usually <20%; computation is the slowest stage for\n\
               most applications, indicating the bottleneck moved to the GPU)\n"
    }

    fn fig5(&self) -> String {
        let imps = [
            Implementation::GpuSingleBuffer,
            Implementation::Variant(BigKernelVariant::OverlapOnly),
            Implementation::Variant(BigKernelVariant::VolumeReduction),
            Implementation::Variant(BigKernelVariant::Full),
        ];
        let rows = self.apps().map(|app| {
            let r = self.run(app.as_ref(), &self.cfg, &imps);
            let s = |i: usize| render::speedup(r[0].total.ratio(r[i].total));
            format!(
                "{} | {} | {} | {}",
                short_name(app.spec().name),
                s(1),
                s(2),
                s(3)
            )
        });
        table("app | +overlap | +volume | +coalesce", rows)
            + "\n(speedup over single-buffer, cumulative; paper: Word Count and MasterCard\n\
               Affinity gain nothing from volume reduction — their whole input must be\n\
               transferred; Opinion Finder's dominant computation also hides transfer gains)\n"
    }

    fn table2(&self) -> String {
        let mut no_patterns = self.cfg.clone();
        no_patterns.bigkernel.pattern_recognition = false;
        let rows = self.apps().map(|app| {
            let spec = app.spec();
            let on = self.bigkernel(app.as_ref(), &self.cfg);
            let off = self.bigkernel(app.as_ref(), &no_patterns);
            let paper =
                expectations::table2_pct(spec.name).map_or("NA".into(), |p| format!("{p}%"));
            // Patterns never match the indexed variant's data-dependent
            // addresses, so enabling them changes nothing.
            let ours = if spec.pattern_applicable {
                format!("{:.0}%", (off.total.ratio(on.total) - 1.0) * 100.0)
            } else {
                "NA".into()
            };
            let addr = |r: &RunResult| r.metrics.get("addr.encoded_bytes");
            format!(
                "{} | {paper} | {ours} | {} | {}",
                spec.name,
                addr(&off),
                addr(&on)
            )
        });
        table("app | paper | measured | addr B (raw) | addr B (pat)", rows)
            + "\n(improvement = time(patterns off) / time(patterns on) - 1; the paper's\n\
               exact metric is unstated, but the ordering is what matters)\n"
    }

    /// §IV design-choice ablations the paper discusses but does not plot,
    /// on K-means (writes mapped data) and Word Count (read-only): one
    /// table per choice, BigKernel's simulated time per setting.
    fn ablation(&self) -> String {
        /// (heading, column labels, config tweak for column `i` at `bytes`, note).
        type Ablation = (
            &'static str,
            &'static str,
            fn(&mut HarnessConfig, usize, u64),
            &'static str,
        );
        const ABLATIONS: [Ablation; 6] = [
            (
                "Buffer depth (addr-gen(n) waits compute(n-depth))",
                "depth=1 | depth=2 | depth=3 | depth=4",
                |cfg, i, _| cfg.bigkernel.buffer_depth = i + 1,
                "paper §IV.C uses depth 3; depth 1 forfeits the pipeline",
            ),
            (
                "Synchronization scheme (§IV.C footnote 3)",
                "iter-barrier | per-buffer-flags",
                |cfg, i, _| {
                    // Flag/busy-wait costs are fixed latencies; run this
                    // ablation with them unscaled so the footnote-3 tradeoff
                    // is visible at any size.
                    cfg.fixed_cost_scale = 1.0;
                    cfg.bigkernel.sync = [SyncMode::IterationBarrier, SyncMode::PerBufferFlags][i];
                },
                "unscaled flag latencies",
            ),
            (
                "§IV.B locality-ordered assembly",
                "locality on | locality off",
                |cfg, i, _| cfg.bigkernel.locality_assembly = i == 0,
                "",
            ),
            (
                "Chunk size (buffer size vs sync amortization, §IV.D)",
                "x1/4 | x1/2 | x1 | x2",
                |cfg, i, _| {
                    let mult = [0.25, 0.5, 1.0, 2.0][i];
                    cfg.bigkernel.chunk_input_bytes =
                        ((cfg.bigkernel.chunk_input_bytes as f64 * mult) as u64).max(4096);
                },
                "larger chunks amortize sync but add pipeline fill latency and \
                 per-chunk buffer footprint — the paper tuned these per app",
            ),
            (
                "DMA copy engines (GeForce x1 vs Tesla-class x2)",
                "1 engine | 2 engines",
                |cfg, i, _| cfg.machine = [Machine::paper_platform, Machine::tesla_platform][i],
                "K-means writes mapped data back; only write-back traffic competes for \
                 the engine, so the gain is K-means-shaped and absent for read-only kernels",
            ),
            (
                "Active thread blocks (§IV.D occupancy limits)",
                "4 | 16 | 64",
                |cfg, i, bytes| {
                    let blocks = [4u32, 16, 64][i];
                    cfg.launch = bk_runtime::LaunchConfig::new(blocks, 128);
                    cfg.bigkernel.chunk_input_bytes = (bytes / (blocks as u64 * 12)).max(16 * 1024);
                },
                "blocks launched, active capped by resources; beyond the active-block \
                 limit, extra blocks run as waves reusing the active blocks' buffers — \
                 time should stay roughly flat",
            ),
        ];
        let apps: [(&str, &(dyn BenchApp + Sync)); 2] = [
            ("K-means", &KMeans::default()),
            ("Word Count", &WordCount::default()),
        ];
        let tables = ABLATIONS.map(|(heading, columns, tweak, note)| {
            let rows = apps.iter().map(|&(name, app)| {
                let cells: Vec<String> = (0..columns.split(" | ").count())
                    .map(|i| {
                        let mut cfg = self.cfg.clone();
                        tweak(&mut cfg, i, self.args.bytes);
                        format!("{:.2}ms", self.bigkernel(app, &cfg).total.secs() * 1e3)
                    })
                    .collect();
                format!("{name} | {}", cells.join(" | "))
            });
            let table = table(&format!("app | {columns}"), rows);
            let note = if note.is_empty() {
                String::new()
            } else {
                format!("\n({note})\n")
            };
            format!("### {heading}\n\n{table}{note}")
        });
        tables.join("\n")
    }

    /// BigKernel's speedup over double buffering as the CPU-GPU link goes
    /// from PCIe Gen1 to an NVLink-class interconnect.
    fn sensitivity(&self) -> String {
        let links = [
            PcieLink::gen1_x16(),
            PcieLink::gen2_x16(),
            PcieLink::gen3_x16(),
            PcieLink::nvlink_class(),
        ];
        let imps = [Implementation::GpuDoubleBuffer, Implementation::BigKernel];
        let rows = self.apps().map(|app| {
            let cells: Vec<String> = links
                .iter()
                .map(|link| {
                    let mut cfg = self.cfg.clone();
                    cfg.link = Some(link.clone());
                    let r = self.run(app.as_ref(), &cfg, &imps);
                    format!("{:.2}x", r[0].total.ratio(r[1].total))
                })
                .collect();
            format!("{} | {}", short_name(app.spec().name), cells.join(" | "))
        });
        table("app | pcie-gen1 | pcie-gen2 | pcie-gen3 | nvlink", rows)
            + "\n(BigKernel speedup over double buffering; expected shape: the advantage\n\
               shrinks left to right — a faster link leaves less communication for\n\
               BigKernel to hide or reduce)\n"
    }

    fn scaling(&self) -> String {
        let rows = self.scaling_rows().iter().map(|s| {
            let overlap: Vec<String> = (s.overlap.iter().enumerate())
                .map(|(d, o)| o.map_or(format!("d{d}: idle"), |x| format!("d{d}: {x:.2}x")))
                .collect();
            let speedup = render::speedup(s.speedup);
            let overlap = overlap.join("  ");
            format!(
                "{} | {} | {:.6} | {speedup} | {overlap}",
                s.app, s.gpus, s.sim_secs
            )
        });
        table(
            "app | gpus | time (s) | speedup | per-device overlap (busy/span)",
            rows,
        ) + "\n(Word Count, DNA Assembly and Netflix; `--app` does not apply. Speedup is\n\
               vs the same configuration on 1 GPU; overlap is the sum of busy time across\n\
               the device's six stage resources divided by the device's schedule span —\n\
               >1.00x means stages genuinely overlap; sources: device.<i>.busy_ns /\n\
               device.<i>.makespan_ns counters)\n"
    }

    /// Absolute per-stage busy times and GPU counters of every
    /// implementation, per app (not a paper figure; explains the shapes).
    fn stages(&self) -> String {
        let apps: Vec<String> = self
            .apps()
            .map(|app| self.stage_breakdown(app.as_ref()))
            .collect();
        apps.join("\n")
    }

    /// One app's `stages` subsection.
    fn stage_breakdown(&self, app: &(dyn BenchApp + Sync)) -> String {
        let imps = [
            Implementation::CpuSerial,
            Implementation::CpuMultithreaded,
            Implementation::GpuSingleBuffer,
            Implementation::GpuDoubleBuffer,
            Implementation::Variant(BigKernelVariant::OverlapOnly),
            Implementation::Variant(BigKernelVariant::VolumeReduction),
            Implementation::BigKernel,
        ];
        let results = self.run(app, &self.cfg, &imps);
        let rows = imps.iter().zip(&results).map(|(imp, r)| {
            let busy: Vec<String> = (r.stages.iter().filter(|s| !s.busy.is_zero()))
                .map(|s| format!("{}={}", s.name, s.busy))
                .collect();
            let c = |k| r.metrics.get(k);
            let gpu = if c("gpu.comp_issue_slots") > 0 {
                let (slots, moved) = (c("gpu.comp_issue_slots"), c("gpu.comp_mem_bytes_moved"));
                let (useful, atomics) = (c("gpu.comp_mem_bytes_useful"), c("gpu.comp_atomics"));
                let chain = c("gpu.comp_hot_atomic_chain");
                format!("{slots} | {moved}/{useful} | {atomics} | {chain}")
            } else {
                "– | – | – | –".into()
            };
            format!("{} | {} | {} | {gpu}", imp.label(), r.total, busy.join(" "))
        });
        let header =
            "implementation | total | stage busy | gpu slots | mem moved/useful | atomics | hot chain";
        let bk = &results[6].metrics;
        let bounds: Vec<String> = (bk.iter())
            .filter_map(|(k, v)| Some(format!("{}={v}", k.strip_prefix("bound.")?)))
            .collect();
        let c = |k| bk.get(k);
        let (found, missed) = (c("addr.patterns_found"), c("addr.patterns_missed"));
        let (h2d, d2h) = (c("pcie.h2d_bytes"), c("pcie.d2h_bytes"));
        let (gathered, padding) = (c("assembly.gathered_bytes"), c("assembly.padding_bytes"));
        format!(
            "### {}\n\n{}\nbigkernel dominant bounds: {}\n\nbigkernel counters: h2d={h2d} \
             d2h={d2h} gathered={gathered} padding={padding} patterns={found}/{}\n",
            short_name(app.spec().name),
            table(header, rows),
            bounds.join(" "),
            found + missed,
        )
    }

    /// The paper's Fig. 2 from measured stage costs: one app's mean
    /// per-chunk stage durations (K-means by default, else the first app
    /// passing `--app`) laid out over a representative window by the very
    /// stage graphs the runs schedule with.
    fn timeline(&self) -> String {
        let app: Box<dyn BenchApp + Sync> = match (&self.args.filter, self.apps().next()) {
            (None, _) => Box::new(KMeans::default()),
            (Some(_), Some(app)) => app,
            (Some(f), None) => return format!("(no application matches `--app {f}`)\n"),
        };
        let imps = [
            Implementation::GpuSingleBuffer,
            Implementation::GpuDoubleBuffer,
            Implementation::BigKernel,
        ];
        let r = self.run(app.as_ref(), &self.cfg, &imps);
        let stage_names: [&[&str]; 3] = [&BASELINE_STAGES, &BASELINE_STAGES, &STAGE_NAMES];
        let means = [0, 1, 2].map(|i| {
            stage_names[i]
                .iter()
                .map(|&n| role_stat(&r[i], n, |s| s.mean))
                .collect::<Vec<_>>()
        });
        let rows = ["addr-gen", "assemble"]
            .iter()
            .chain(&BASELINE_STAGES)
            .map(|&stage| {
                let cell = |i: usize| match stage_names[i].iter().position(|&n| n == stage) {
                    Some(at) => means[i][at].to_string(),
                    None => "–".into(),
                };
                format!("{stage} | {} | {} | {}", cell(0), cell(1), cell(2))
            });
        let mut md = format!(
            "{} ({} MiB), mean per-chunk stage times over a representative \
             {TIMELINE_CHUNKS}-chunk window:\n\n{}",
            app.spec().name,
            self.args.bytes >> 20,
            table("stage | single buffer | double buffer | bigkernel", rows),
        );
        let copy_engines = (self.cfg.machine)().gpu().copy_engines as usize;
        let bk = &self.cfg.bigkernel;
        let charts = timeline_charts(copy_engines, bk.buffer_depth, bk.wb_depth(), &means);
        for (title, sched) in &charts {
            let gantt = render::gantt(sched, GANTT_WIDTH);
            let _ = write!(md, "\n### {title}\n\n```\n{gantt}```\n");
        }
        md + "\n(digits are chunk ids; '.' is idle — compare how much of each row\n\
              overlaps with the rows above it)\n"
    }

    /// `results/report.json`: the Fig. 4(a) rows (speedups over the serial
    /// CPU implementation, plus the Table I proportions measured from the
    /// same runs) for downstream analysis and plotting. Written by hand —
    /// the records are flat and the workspace has no serde dependency.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\n  \"bytes_per_app\": {},\n  \"seed\": {},\n",
            self.args.bytes, self.args.seed
        );
        for (key, i) in [("double", 3), ("single", 2), ("cpu_mt", 1)] {
            let _ = writeln!(out, "  \"geomean_bk_vs_{key}\": {:.6},", self.bk_geomean(i));
        }
        out.push_str("  \"apps\": [\n");
        let runs = self.fig4a_runs();
        for (i, a) in runs.iter().enumerate() {
            let (read, modified) = a.read_modified_pct(self.args.bytes);
            let name = a.name().replace('\\', "\\\\").replace('"', "\\\"");
            let _ = writeln!(out, "    {{\n      \"app\": \"{name}\",");
            for (key, v) in [
                ("cpu_multithreaded", a.speedup(1)),
                ("gpu_single_buffer", a.speedup(2)),
                ("gpu_double_buffer", a.speedup(3)),
                ("bigkernel", a.speedup(4)),
                ("serial_seconds", a.runs[0].total.secs()),
                ("read_pct", read),
            ] {
                let _ = writeln!(out, "      \"{key}\": {v:.6},");
            }
            let comma = if i + 1 < runs.len() { "," } else { "" };
            let _ = writeln!(out, "      \"modified_pct\": {modified:.6}\n    }}{comma}");
        }
        out + "  ]\n}"
    }
}

/// `stat` of stage `role` in `r`, summed over a fused run's per-pass
/// `p<i>.<role>` stages (zero if the run has no such stage).
fn role_stat(r: &RunResult, role: &str, stat: impl Fn(&StageStat) -> SimTime) -> SimTime {
    r.stages
        .iter()
        .filter(|s| bk_obs::stage_role(s.name) == role)
        .fold(SimTime::ZERO, |t, s| t + stat(s))
}

/// The timeline section's three schedules — single buffer, double buffer,
/// BigKernel — of eight identical chunks with the per-stage durations in
/// `means` (baseline stages, baseline stages, BigKernel stages), scheduled
/// on the graphs the runs use for a GPU with `copy_engines` DMA engines.
fn timeline_charts(
    copy_engines: usize,
    depth: usize,
    wb_depth: usize,
    means: &[Vec<SimTime>; 3],
) -> [(&'static str, Schedule); 3] {
    let window = |i: usize| vec![means[i].clone(); TIMELINE_CHUNKS];
    [
        (
            "single buffer (fully serialized)",
            schedule(serial_graph(&BASELINE_STAGES), &window(0)),
        ),
        (
            "double buffer (2-deep)",
            schedule(buffered_graph(copy_engines, 2), &window(1)),
        ),
        (
            "BigKernel (4+2 stages, paper Fig. 2)",
            schedule(pipeline_graph(copy_engines, 1, depth, wb_depth), &window(2)),
        ),
    ]
}

/// One point of the simulated multi-GPU scaling sweep.
struct ScalingRow {
    app: &'static str,
    gpus: usize,
    sim_secs: f64,
    /// Speedup over the same app on one GPU.
    speedup: f64,
    /// Per-device busy/span ratio (`None` for a device that got no chunk).
    overlap: Vec<Option<f64>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn section_names_are_unique_and_each_selects_itself() {
        for (i, s) in SECTIONS.iter().enumerate() {
            assert!(
                SECTIONS[..i].iter().all(|t| t.name != s.name),
                "duplicate section {}",
                s.name
            );
            let picked = select(&[s.name.to_string()]).unwrap();
            assert_eq!(picked.len(), 1);
            assert_eq!(picked[0].name, s.name);
        }
    }

    #[test]
    fn no_names_select_the_paper_set_in_order() {
        let names: Vec<&str> = select(&[]).unwrap().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["fig4a", "table1", "fig4b", "fig6", "fig5", "table2"]
        );
    }

    #[test]
    fn unknown_name_errors_and_lists_the_valid_names() {
        let err = select(&words("fig4a nosuch")).err().unwrap();
        assert!(err.contains("\"nosuch\""), "{err}");
        for s in &SECTIONS {
            assert!(err.contains(s.name), "{err} does not list {}", s.name);
        }
    }

    #[test]
    fn split_names_keeps_flag_values_with_their_flags() {
        let (names, flags) = split_names(words(
            "--mib 1 timeline --app word --fuse ablation --seed 7 scaling",
        ));
        assert_eq!(names, ["timeline", "ablation", "scaling"]);
        assert_eq!(
            flags,
            words("--mib 1 --app word --fuse --seed 7"),
            "flags must parse as ExpArgs"
        );
        assert!(ExpArgs::parse(flags.into_iter()).is_ok());
    }

    /// `line` parsed as a `report` command line: its sections' flags.
    fn command(line: &str) -> Result<ExpArgs, String> {
        let (names, flags) = split_names(words(line));
        parse_flags(&select(&names)?, flags)
    }

    #[test]
    fn fig4a_refuses_streaming_only_flags() {
        for flag in ["--autotune on", "--window bytes=65536", "--queue-bound 4"] {
            let err = command(&format!("fig4a {flag}")).unwrap_err();
            let name = flag.split(' ').next().unwrap();
            assert!(err.contains(name) && err.contains("`streaming`"), "{err}");
            assert!(command(&format!("fig4a streaming {flag}")).is_ok());
        }
        assert!(
            command("--autotune on").is_err(),
            "the paper set reads no tuner"
        );
    }

    #[test]
    fn streaming_section_refuses_fuse() {
        for flag in ["--fuse", "--fuse=on", "--fuse=off"] {
            let err = command(&format!("streaming {flag}")).unwrap_err();
            assert!(
                err.contains("--fuse is not read by the `streaming` section"),
                "{err}"
            );
            assert!(command(&format!("pipeline {flag}")).is_ok());
        }
    }

    #[test]
    fn streaming_section_reads_its_flags() {
        let args = command("streaming --autotune on --window bytes=65536 --queue-bound 4").unwrap();
        assert_eq!(args.autotune, Some(true));
        assert_eq!(args.window, Some(bk_runtime::WindowPolicy::ByBytes(65536)));
        assert_eq!(args.queue_bound, Some(4));
    }

    #[test]
    fn bench_sections_return_their_artifacts_at_tiny_scale() {
        let args = command("--bytes 262144 --machine test-tiny --app word").unwrap();
        let report = Report::new(args);
        for name in ["pipeline", "chaos", "streaming", "bottleneck"] {
            let out = select(&[name.to_string()]).unwrap()[0].render(&report);
            if name == "bottleneck" {
                assert!(out.artifact.is_none());
            } else {
                let (file, json) = out.artifact.expect("a BENCH file");
                assert_eq!(file, format!("BENCH_{name}.json"));
                assert_eq!(
                    json.matches('{').count(),
                    json.matches('}').count(),
                    "{json}"
                );
                assert!(json.contains("\"provenance\": { \"bench\": \""), "{json}");
            }
            if name == "pipeline" || name == "bottleneck" {
                assert!(out.failures.is_empty(), "{name}: {:?}", out.failures);
            }
        }
    }

    #[test]
    fn app_filter_matching_nothing_fails_the_gated_sections() {
        let report = Report::new(command("--bytes 262144 --app nosuch").unwrap());
        for name in ["streaming", "bottleneck"] {
            let out = select(&[name.to_string()]).unwrap()[0].render(&report);
            assert!(
                out.failures.iter().any(|f| f.contains("--app")),
                "{name}: {:?}",
                out.failures
            );
        }
    }

    /// Longest run of columns in which both named rows of a chart are busy.
    fn shared_busy_run(chart: &str, a: &str, b: &str) -> usize {
        let row = |name: &str| -> Vec<bool> {
            let line = chart
                .lines()
                .find(|l| l.trim_start().starts_with(&format!("{name} |")))
                .unwrap_or_else(|| panic!("no {name} row in\n{chart}"));
            let cells = &line[line.find('|').unwrap() + 1..line.rfind('|').unwrap()];
            cells.bytes().map(|c| c.is_ascii_digit()).collect()
        };
        let (ra, rb) = (row(a), row(b));
        let (mut best, mut run) = (0, 0);
        for (x, y) in ra.iter().zip(&rb) {
            run = if *x && *y { run + 1 } else { 0 };
            best = best.max(run);
        }
        best
    }

    #[test]
    fn second_copy_engine_lets_double_buffer_write_back_overlap_transfer() {
        // Long transfer and write-back stages: on one copy engine the two
        // DMA stages serialize (their rows share at most the rounding cell
        // of a hand-over); a second engine runs write-back n beside
        // transfer n+2.
        let us = SimTime::from_micros;
        let means = [
            vec![us(5.0), us(40.0), us(20.0), us(40.0), us(5.0)],
            vec![us(5.0), us(40.0), us(20.0), us(40.0), us(5.0)],
            vec![us(5.0), us(5.0), us(40.0), us(20.0), us(40.0), us(5.0)],
        ];
        let double_buffer = |engines: usize| {
            let [_, (title, sched), _] = timeline_charts(engines, 3, 3, &means);
            assert_eq!(title, "double buffer (2-deep)");
            render::gantt(&sched, GANTT_WIDTH)
        };
        let one = double_buffer(1);
        let two = double_buffer(2);
        assert!(shared_busy_run(&one, "transfer", "wb-xfer") <= 1, "{one}");
        assert!(shared_busy_run(&two, "transfer", "wb-xfer") >= 3, "{two}");
    }

    #[test]
    fn fused_runs_fold_pass_stages_onto_their_roles() {
        // Two-pass K-means fuses, so its BigKernel run names its stages
        // `p0.addr-gen` … `p1.wb-apply`.
        let args = ExpArgs::parse(
            words("--bytes 262144 --machine test-tiny --app kmeans --fuse").into_iter(),
        )
        .unwrap();
        let report = Report::new(args);
        let fig6 = report.fig6();
        let row = fig6.lines().find(|l| l.starts_with("| KMeans |")).unwrap();
        assert!(row.contains("| 100% |"), "no busiest stage in {row}");
        let timeline = report.timeline();
        let compute = timeline
            .lines()
            .find(|l| l.starts_with("| compute |"))
            .unwrap();
        let bigkernel = compute.rsplit('|').nth(1).unwrap().trim();
        assert_ne!(bigkernel, SimTime::ZERO.to_string(), "{compute}");
    }

    #[test]
    fn every_section_renders_a_table_at_tiny_scale() {
        let args =
            ExpArgs::parse(words("--bytes 262144 --machine test-tiny --app word").into_iter())
                .unwrap();
        let report = Report::new(args);
        for s in &SECTIONS {
            let md = s.render(&report).markdown;
            let body = md
                .strip_prefix(&format!("## {}\n\n", s.title))
                .unwrap_or_else(|| panic!("{} lacks its title:\n{md}", s.name));
            let lines: Vec<&str> = body.lines().collect();
            let table = lines.windows(3).any(|w| {
                w[0].starts_with("| ") && w[1].starts_with("|---") && w[2].starts_with("| ")
            });
            assert!(table, "{} has no markdown table with a row:\n{md}", s.name);
        }
    }
}
