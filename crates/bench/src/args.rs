//! Minimal CLI argument handling shared by the experiment binaries
//! (`report` and `trace_export`).

/// Common experiment parameters.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Mapped-data bytes per application.
    pub bytes: u64,
    /// Generator seed.
    pub seed: u64,
    /// Only run apps whose name contains this substring.
    pub filter: Option<String>,
    /// Host threads for the block-wave simulation (`None` = rayon default,
    /// one per core): the width of the pool BigKernel's address half
    /// (addr-gen, detection, assembly) fans out to, inline at `1` (see
    /// [`ExpArgs::apply_threads`]). Every kernel body runs live in block
    /// order at any width, so simulated results are bit-identical.
    pub threads: Option<usize>,
    /// Platform preset name (`--machine`); `None` keeps the config default
    /// (the paper's GTX 680 platform).
    pub machine: Option<String>,
    /// Simulated GPU count (`--gpus`); `None` keeps the config default (1).
    pub gpus: Option<usize>,
    /// Fault-injection plan (`--faults SPEC`, see
    /// [`bk_runtime::FaultPlan::parse`]); `None` runs fault-free.
    pub faults: Option<bk_runtime::FaultPlan>,
    /// Prefetch-data reuse depth (`--reuse-depth N`); `None` keeps the
    /// config default (the paper's depth 3).
    pub reuse_depth: Option<usize>,
    /// Write-back buffer count (`--buffers N`); `None` follows the
    /// prefetch-data depth, as in the paper.
    pub buffers: Option<usize>,
    /// Streaming between-window tuner (`--autotune on|off`, DESIGN.md §12);
    /// `None` keeps the streaming default (off). Only the `streaming`
    /// report section reads it.
    pub autotune: Option<bool>,
    /// Mega-kernel fusion (`--fuse` / `--fuse=off`, DESIGN.md §15); `None`
    /// keeps the config default (off). Pairs the analysis refuses fall back
    /// to the unfused per-pass loop. Streamed runs never fuse, so the
    /// `streaming` section refuses the flag.
    pub fuse: Option<bool>,
    /// Streaming window policy (`--window bytes=N|records=N|interval-us=F`,
    /// DESIGN.md §16); `None` sweeps the `streaming` section's window
    /// shapes. Only that section reads it.
    pub window: Option<bk_runtime::WindowPolicy>,
    /// Streaming inter-stage queue high-watermark (`--queue-bound N`);
    /// `None` sweeps the `streaming` section's bounds. Only that section
    /// reads it.
    pub queue_bound: Option<usize>,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            bytes: 32 << 20,
            seed: 42,
            filter: None,
            threads: None,
            machine: None,
            gpus: None,
            faults: None,
            reuse_depth: None,
            buffers: None,
            autotune: None,
            fuse: None,
            window: None,
            queue_bound: None,
        }
    }
}

/// Parse a `--window` spec (`bytes=N`, `records=N` or `interval-us=F`) into
/// a [`bk_runtime::WindowPolicy`]. Errors name the binary, like the rest of
/// the parser's diagnostics.
fn parse_window(binary: &str, spec: &str) -> Result<bk_runtime::WindowPolicy, String> {
    let bad = |detail: String| format!("{binary}: --window: {detail}");
    let (kind, val) = spec.split_once('=').ok_or_else(|| {
        bad(format!(
            "expected bytes=N, records=N or interval-us=F, got {spec:?}"
        ))
    })?;
    match kind {
        "bytes" => {
            let n: u64 = val.parse().map_err(|e| bad(format!("bytes: {e}")))?;
            if n == 0 {
                return Err(bad("window bytes must be positive".into()));
            }
            Ok(bk_runtime::WindowPolicy::ByBytes(n))
        }
        "records" => {
            let n: u64 = val.parse().map_err(|e| bad(format!("records: {e}")))?;
            if n == 0 {
                return Err(bad("window records must be positive".into()));
            }
            Ok(bk_runtime::WindowPolicy::ByRecords(n))
        }
        "interval-us" => {
            let us: f64 = val.parse().map_err(|e| bad(format!("interval-us: {e}")))?;
            if !us.is_finite() || us <= 0.0 {
                return Err(bad("interval must be positive and finite".into()));
            }
            Ok(bk_runtime::WindowPolicy::ByInterval(
                bk_simcore::SimTime::from_micros(us),
            ))
        }
        other => Err(bad(format!(
            "unknown policy {other:?} (expected bytes, records or interval-us)"
        ))),
    }
}

impl ExpArgs {
    /// Parse `--bytes N`, `--mib N`, `--seed S`, `--app SUBSTR`,
    /// `--threads N`, `--machine NAME`, `--gpus N`, `--faults SPEC`,
    /// `--reuse-depth N`, `--buffers N`, `--autotune on|off`,
    /// `--fuse[=on|off]`, `--window bytes=N|records=N|interval-us=F`,
    /// `--queue-bound N` from an iterator of arguments. Error messages
    /// attribute unknown flags to the generic name "bench"; binaries use
    /// [`ExpArgs::parse_named`], which names them.
    pub fn parse<I: Iterator<Item = String>>(args: I) -> Result<Self, String> {
        Self::parse_named("bench", args)
    }

    /// [`ExpArgs::parse`] with the binary name used in error messages, so
    /// `fig4a --fsue` fails with "fig4a: unknown argument" rather than an
    /// anonymous complaint.
    pub fn parse_named<I: Iterator<Item = String>>(
        binary: &str,
        mut args: I,
    ) -> Result<Self, String> {
        let mut out = ExpArgs::default();
        while let Some(a) = args.next() {
            let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
            match a.as_str() {
                "--bytes" => {
                    out.bytes = value("--bytes")?
                        .parse()
                        .map_err(|e| format!("--bytes: {e}"))?
                }
                "--mib" => {
                    let m: u64 = value("--mib")?.parse().map_err(|e| format!("--mib: {e}"))?;
                    out.bytes = m << 20;
                }
                "--seed" => {
                    out.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--app" => out.filter = Some(value("--app")?),
                "--threads" => {
                    let t: usize = value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?;
                    if t == 0 {
                        return Err("--threads must be positive".into());
                    }
                    out.threads = Some(t);
                }
                "--machine" => {
                    let name = value("--machine")?;
                    if bk_runtime::Machine::preset(&name).is_none() {
                        return Err(format!(
                            "--machine: unknown preset {name:?} (expected one of: {})",
                            bk_runtime::Machine::PRESET_NAMES.join(", ")
                        ));
                    }
                    out.machine = Some(name);
                }
                "--gpus" => {
                    let g: usize = value("--gpus")?
                        .parse()
                        .map_err(|e| format!("--gpus: {e}"))?;
                    if g == 0 {
                        return Err("--gpus must be positive".into());
                    }
                    out.gpus = Some(g);
                }
                "--faults" => {
                    let spec = value("--faults")?;
                    let plan = bk_runtime::FaultPlan::parse(&spec)
                        .map_err(|e| format!("--faults: {e}"))?;
                    out.faults = Some(plan);
                }
                "--reuse-depth" => {
                    let d: usize = value("--reuse-depth")?
                        .parse()
                        .map_err(|e| format!("--reuse-depth: {e}"))?;
                    if d == 0 {
                        return Err("--reuse-depth must be positive".into());
                    }
                    out.reuse_depth = Some(d);
                }
                "--buffers" => {
                    let b: usize = value("--buffers")?
                        .parse()
                        .map_err(|e| format!("--buffers: {e}"))?;
                    if b == 0 {
                        return Err("--buffers must be positive".into());
                    }
                    out.buffers = Some(b);
                }
                "--autotune" => {
                    out.autotune = match value("--autotune")?.as_str() {
                        "on" => Some(true),
                        "off" => Some(false),
                        other => return Err(format!("--autotune: expected on|off, got {other:?}")),
                    };
                }
                "--window" => {
                    let spec = value("--window")?;
                    out.window = Some(parse_window(binary, &spec)?);
                }
                "--queue-bound" => {
                    let b: usize = value("--queue-bound")?
                        .parse()
                        .map_err(|e| format!("{binary}: --queue-bound: {e}"))?;
                    if b == 0 {
                        return Err(format!("{binary}: --queue-bound must be at least 1"));
                    }
                    out.queue_bound = Some(b);
                }
                // `--fuse` takes its value with `=` (no separate word) so a
                // bare `--fuse` reads naturally in sweep scripts.
                "--fuse" | "--fuse=on" => out.fuse = Some(true),
                "--fuse=off" => out.fuse = Some(false),
                other if other.starts_with("--fuse=") => {
                    return Err(format!(
                        "--fuse: expected on|off, got {:?}",
                        &other["--fuse=".len()..]
                    ))
                }
                "--help" | "-h" => {
                    return Err(
                        "usage: [--bytes N | --mib N] [--seed S] [--app SUBSTR] [--threads N] \
                         [--machine gtx680|tesla-like|test-tiny] [--gpus N] [--faults SPEC] \
                         [--reuse-depth N] [--buffers N] [--fuse[=on|off]]\n\
                         `streaming` section only: [--autotune on|off] \
                         [--window bytes=N|records=N|interval-us=F] [--queue-bound N]\n\
                         fault SPEC: comma-separated seed=N,rate=F,retries=N,backoff_us=F,\
                         fail=STAGE@CHUNK[xN],kill=DEV@WAVE"
                            .to_string(),
                    )
                }
                other => return Err(format!("{binary}: unknown argument: {other}")),
            }
        }
        if out.bytes == 0 {
            return Err("--bytes must be positive".into());
        }
        Ok(out)
    }

    /// Refuse flags the run would not read, naming `binary` in the error:
    /// the streaming-only `--autotune`, `--window` and `--queue-bound`
    /// unless the `streaming` report section runs, and `--fuse` when it
    /// does (streamed runs never fuse).
    pub fn check_streaming(&self, binary: &str, streaming: bool) -> Result<(), String> {
        if streaming {
            if self.fuse.is_some() {
                return Err(format!(
                    "{binary}: --fuse is not read by the `streaming` section (streamed runs never fuse)"
                ));
            }
            return Ok(());
        }
        let streaming_only = [
            ("--autotune", self.autotune.is_some()),
            ("--window", self.window.is_some()),
            ("--queue-bound", self.queue_bound.is_some()),
        ];
        match streaming_only.iter().find(|(_, set)| *set) {
            Some((flag, _)) => Err(format!(
                "{binary}: {flag} is read by the `streaming` report section only; \
                 run `report streaming` to use it"
            )),
            None => Ok(()),
        }
    }

    /// Whether the app should run under the `--app` filter. Matching is
    /// case-insensitive and ignores spaces and dashes on both sides, so
    /// `--app wordcount` selects "Word Count" and `--app k-means` selects
    /// "Kmeans".
    pub fn selected(&self, app_name: &str) -> bool {
        fn squash(s: &str) -> String {
            s.chars()
                .filter(|c| *c != ' ' && *c != '-')
                .flat_map(|c| c.to_lowercase())
                .collect()
        }
        match &self.filter {
            Some(f) => squash(app_name).contains(&squash(f)),
            None => true,
        }
    }

    /// Size the global rayon pool to `--threads` (call once, before the
    /// first parallel region). The pool width is the only parallelism
    /// switch: BigKernel's address half fans out to it, and at width 1 the
    /// pool runs it inline, block by block. Kernel bodies and the buffered
    /// baselines' granules run in order at any width, and every result is
    /// identical.
    pub fn apply_threads(&self) {
        if let Some(t) = self.threads {
            // Ignore the error: the pool can only be built once per
            // process, and a second binary invocation in-process (tests)
            // may have already built it.
            let _ = rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build_global();
        }
    }

    /// Apply `--machine` / `--gpus` to the harness config. Validity of the
    /// preset name was already checked at parse time.
    pub fn apply_platform(&self, cfg: &mut bk_apps::HarnessConfig) {
        if let Some(name) = &self.machine {
            cfg.machine = bk_runtime::Machine::preset(name)
                .unwrap_or_else(|| panic!("--machine preset {name:?} vanished after parsing"));
        }
        if let Some(g) = self.gpus {
            cfg.gpus = g;
        }
        // Faults apply to the bigkernel pipeline only: the baselines have no
        // recovery ladder, and the comparison of interest is bigkernel with
        // vs without faults.
        if let Some(plan) = &self.faults {
            cfg.bigkernel.faults = Some(plan.clone());
        }
        // Buffer knobs also target the bigkernel pipeline only (the baselines keep their own double-buffer semantics).
        if let Some(d) = self.reuse_depth {
            cfg.bigkernel.buffer_depth = d;
        }
        if let Some(b) = self.buffers {
            cfg.bigkernel.wb_buffer_depth = Some(b);
        }
        // Fusion is a harness-level decision (it changes which runner the
        // BigKernel implementation uses); baselines always run unfused.
        if let Some(on) = self.fuse {
            cfg.fuse = on;
        }
    }

    /// `apply_threads` + `apply_platform` in one call — what every
    /// experiment binary wants right after building its config.
    pub fn apply(&self, cfg: &mut bk_apps::HarnessConfig) {
        self.apply_threads();
        self.apply_platform(cfg);
    }

    /// Every non-default flag in command-line spelling, space-separated
    /// (empty when the run used all defaults). This is the `flags` field of
    /// the provenance block every BENCH_*.json carries, so a committed
    /// baseline records how it was produced. A `--faults` spec is noted by
    /// presence only (plans have no canonical flag spelling).
    pub fn flags_string(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        let defaults = ExpArgs::default();
        if self.bytes != defaults.bytes {
            parts.push(format!("--bytes {}", self.bytes));
        }
        if self.seed != defaults.seed {
            parts.push(format!("--seed {}", self.seed));
        }
        if let Some(f) = &self.filter {
            parts.push(format!("--app {f}"));
        }
        if let Some(t) = self.threads {
            parts.push(format!("--threads {t}"));
        }
        if let Some(m) = &self.machine {
            parts.push(format!("--machine {m}"));
        }
        if let Some(g) = self.gpus {
            parts.push(format!("--gpus {g}"));
        }
        if self.faults.is_some() {
            parts.push("--faults <spec>".to_string());
        }
        if let Some(d) = self.reuse_depth {
            parts.push(format!("--reuse-depth {d}"));
        }
        if let Some(b) = self.buffers {
            parts.push(format!("--buffers {b}"));
        }
        if let Some(on) = self.autotune {
            parts.push(format!("--autotune {}", if on { "on" } else { "off" }));
        }
        if let Some(on) = self.fuse {
            parts.push(if on { "--fuse" } else { "--fuse=off" }.to_string());
        }
        if let Some(w) = self.window {
            parts.push(format!("--window {}", Self::window_spec(&w)));
        }
        if let Some(b) = self.queue_bound {
            parts.push(format!("--queue-bound {b}"));
        }
        parts.join(" ")
    }

    /// The command-line spelling of a window policy (inverse of the
    /// `--window` parser; used by `flags_string` and the `streaming`
    /// section's sweep labels).
    pub fn window_spec(policy: &bk_runtime::WindowPolicy) -> String {
        match *policy {
            bk_runtime::WindowPolicy::ByBytes(n) => format!("bytes={n}"),
            bk_runtime::WindowPolicy::ByRecords(n) => format!("records={n}"),
            bk_runtime::WindowPolicy::ByInterval(dt) => format!("interval-us={:.3}", dt.micros()),
        }
    }

    /// The shared `provenance` JSON object (one line, no trailing comma):
    /// which producer made the file, from which crate version, with which
    /// seed, flags and app set. Emitters embed it verbatim under a
    /// `"provenance":` key.
    pub fn provenance_json(&self, bench: &str, apps: &[&str]) -> String {
        let list = apps
            .iter()
            .map(|a| format!("\"{a}\""))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{ \"bench\": \"{bench}\", \"crate_version\": \"{}\", \"seed\": {}, \
             \"flags\": \"{}\", \"apps\": [{list}] }}",
            env!("CARGO_PKG_VERSION"),
            self.seed,
            self.flags_string()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<ExpArgs, String> {
        ExpArgs::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.bytes, 32 << 20);
        assert_eq!(a.seed, 42);
        assert!(a.selected("anything"));
        assert_eq!(a.threads, None);
    }

    #[test]
    fn mib_and_bytes() {
        assert_eq!(parse(&["--mib", "4"]).unwrap().bytes, 4 << 20);
        assert_eq!(parse(&["--bytes", "12345"]).unwrap().bytes, 12345);
    }

    #[test]
    fn seed_and_filter() {
        let a = parse(&["--seed", "7", "--app", "word"]).unwrap();
        assert_eq!(a.seed, 7);
        assert!(a.selected("Word Count"));
        assert!(!a.selected("K-means"));
    }

    #[test]
    fn filter_ignores_spaces_and_dashes() {
        let a = parse(&["--app", "wordcount"]).unwrap();
        assert!(a.selected("Word Count"));
        assert!(parse(&["--app", "k-means"]).unwrap().selected("Kmeans"));
        assert!(parse(&["--app", "DNA"]).unwrap().selected("dna-assembly"));
        assert!(!a.selected("Netflix"));
    }

    #[test]
    fn threads() {
        assert_eq!(parse(&["--threads", "4"]).unwrap().threads, Some(4));
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads"]).is_err());
    }

    /// `--threads 1` sizes the global pool to one thread, and the pool
    /// width is the only switch: the same config at widths 1 and 2 gives
    /// the same result.
    #[test]
    fn single_thread_forces_sequential_path() {
        use bk_apps::{run_implementation, BenchApp, Implementation};
        parse(&["--threads", "1"]).unwrap().apply_threads();
        assert_eq!(rayon::current_num_threads(), 1);
        let cfg = bk_apps::HarnessConfig::test_small();
        let run = |width: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            pool.install(|| {
                let mut machine = bk_runtime::Machine::test_platform();
                let instance =
                    bk_apps::kmeans::KMeans::default().instantiate(&mut machine, 64 * 1024, 42);
                let r =
                    run_implementation(&mut machine, &instance, Implementation::BigKernel, &cfg);
                (instance.verify)(&machine).unwrap();
                r
            })
        };
        assert_eq!(run(1), run(2));
    }

    #[test]
    fn machine_preset() {
        let a = parse(&["--machine", "tesla-like"]).unwrap();
        assert_eq!(a.machine.as_deref(), Some("tesla-like"));
        let mut cfg = bk_apps::HarnessConfig::test_small();
        a.apply_platform(&mut cfg);
        assert_eq!((cfg.machine)().gpu().copy_engines, 2);
        let err = parse(&["--machine", "voodoo2"]).unwrap_err();
        assert!(err.contains("gtx680"), "error lists valid presets: {err}");
    }

    #[test]
    fn gpus_flag() {
        let a = parse(&["--gpus", "4"]).unwrap();
        assert_eq!(a.gpus, Some(4));
        let mut cfg = bk_apps::HarnessConfig::test_small();
        assert_eq!(cfg.gpus, 1);
        a.apply(&mut cfg);
        assert_eq!(cfg.gpus, 4);
        assert!(parse(&["--gpus", "0"]).is_err());
        assert!(parse(&["--gpus"]).is_err());
    }

    #[test]
    fn faults_flag_parses_and_applies() {
        let a = parse(&["--faults", "seed=7,rate=0.01,retries=2,kill=1@0"]).unwrap();
        let plan = a.faults.clone().unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.max_retries, 2);
        assert_eq!(plan.device_failure.unwrap().device, 1);
        let mut cfg = bk_apps::HarnessConfig::test_small();
        assert!(cfg.bigkernel.faults.is_none());
        a.apply_platform(&mut cfg);
        assert_eq!(cfg.bigkernel.faults, Some(plan));
        assert!(parse(&["--faults", "rate=2.0"]).is_err());
        assert!(parse(&["--faults", "bogus"]).is_err());
        assert!(parse(&["--faults"]).is_err());
    }

    #[test]
    fn reuse_depth_and_buffers_flags() {
        let a = parse(&["--reuse-depth", "8", "--buffers", "2"]).unwrap();
        assert_eq!(a.reuse_depth, Some(8));
        assert_eq!(a.buffers, Some(2));
        let mut cfg = bk_apps::HarnessConfig::test_small();
        a.apply_platform(&mut cfg);
        assert_eq!(cfg.bigkernel.buffer_depth, 8);
        assert_eq!(cfg.bigkernel.wb_buffer_depth, Some(2));
        assert_eq!(cfg.bigkernel.wb_depth(), 2);
        assert!(parse(&["--reuse-depth", "0"]).is_err());
        assert!(parse(&["--buffers", "0"]).is_err());
        assert!(parse(&["--reuse-depth"]).is_err());
    }

    #[test]
    fn autotune_flag() {
        assert_eq!(parse(&["--autotune", "on"]).unwrap().autotune, Some(true));
        assert_eq!(parse(&["--autotune", "off"]).unwrap().autotune, Some(false));
        assert!(parse(&["--autotune", "maybe"]).is_err());
        assert!(parse(&["--autotune"]).is_err());
    }

    #[test]
    fn flags_string_reconstructs_non_defaults() {
        assert_eq!(parse(&[]).unwrap().flags_string(), "");
        let a = parse(&[
            "--mib",
            "4",
            "--seed",
            "7",
            "--gpus",
            "2",
            "--autotune",
            "on",
            "--fuse",
        ])
        .unwrap();
        assert_eq!(
            a.flags_string(),
            "--bytes 4194304 --seed 7 --gpus 2 --autotune on --fuse"
        );
    }

    #[test]
    fn provenance_json_is_one_balanced_object() {
        let a = parse(&["--seed", "9"]).unwrap();
        let p = a.provenance_json("perf_snapshot", &["word", "grep"]);
        assert!(p.starts_with("{ \"bench\": \"perf_snapshot\""));
        assert!(p.contains("\"crate_version\": \""));
        assert!(p.contains("\"seed\": 9"));
        assert!(p.contains("\"flags\": \"--seed 9\""));
        assert!(p.contains("\"apps\": [\"word\", \"grep\"]"));
        assert_eq!(p.matches('{').count(), p.matches('}').count());
    }

    #[test]
    fn fuse_flag() {
        let a = parse(&["--fuse"]).unwrap();
        assert_eq!(a.fuse, Some(true));
        let mut cfg = bk_apps::HarnessConfig::test_small();
        assert!(!cfg.fuse);
        a.apply_platform(&mut cfg);
        assert!(cfg.fuse);
        parse(&["--fuse=off"]).unwrap().apply_platform(&mut cfg);
        assert!(!cfg.fuse);
        assert_eq!(parse(&["--fuse=on"]).unwrap().fuse, Some(true));
        assert!(parse(&["--fuse=maybe"]).is_err());
        assert_eq!(parse(&["--fuse"]).unwrap().flags_string(), "--fuse");
        assert_eq!(parse(&["--fuse=off"]).unwrap().flags_string(), "--fuse=off");
    }

    #[test]
    fn window_flag_parses_every_policy() {
        use bk_runtime::WindowPolicy;
        let a = parse(&["--window", "bytes=65536"]).unwrap();
        assert_eq!(a.window, Some(WindowPolicy::ByBytes(65536)));
        assert_eq!(a.flags_string(), "--window bytes=65536");
        let b = parse(&["--window", "records=512"]).unwrap();
        assert_eq!(b.window, Some(WindowPolicy::ByRecords(512)));
        let c = parse(&["--window", "interval-us=250"]).unwrap();
        match c.window {
            Some(WindowPolicy::ByInterval(dt)) => assert!((dt.micros() - 250.0).abs() < 1e-9),
            other => panic!("expected ByInterval, got {other:?}"),
        }
        assert_eq!(parse(&[]).unwrap().window, None);
    }

    #[test]
    fn window_flag_malformed_values_name_the_binary() {
        let err = ExpArgs::parse_named(
            "streaming",
            ["--window".to_string(), "bytes=lots".to_string()].into_iter(),
        )
        .unwrap_err();
        assert!(err.starts_with("streaming: --window"), "{err}");
        let err = ExpArgs::parse_named(
            "streaming",
            ["--window".to_string(), "seconds=5".to_string()].into_iter(),
        )
        .unwrap_err();
        assert!(err.contains("unknown policy"), "{err}");
        assert!(parse(&["--window", "bytes=0"]).is_err());
        assert!(parse(&["--window", "interval-us=-1"]).is_err());
        assert!(parse(&["--window", "noequals"]).is_err());
        assert!(parse(&["--window"]).is_err());
    }

    #[test]
    fn queue_bound_flag() {
        let a = parse(&["--queue-bound", "4"]).unwrap();
        assert_eq!(a.queue_bound, Some(4));
        assert_eq!(a.flags_string(), "--queue-bound 4");
        let err = ExpArgs::parse_named(
            "streaming",
            ["--queue-bound".to_string(), "two".to_string()].into_iter(),
        )
        .unwrap_err();
        assert!(err.starts_with("streaming: --queue-bound"), "{err}");
        assert!(parse(&["--queue-bound", "0"]).is_err());
        assert!(parse(&["--queue-bound"]).is_err());
    }

    #[test]
    fn unknown_flag_errors_name_the_binary() {
        let err = ExpArgs::parse_named("fig4a", ["--fsue".to_string()].into_iter()).unwrap_err();
        assert!(err.starts_with("fig4a: unknown argument"), "{err}");
        // The generic entry point attributes to "bench".
        let err = parse(&["--whatever"]).unwrap_err();
        assert!(err.starts_with("bench: unknown argument"), "{err}");
    }

    #[test]
    fn trace_export_rejects_streaming_only_flags() {
        for flag in [
            &["--autotune", "on"][..],
            &["--window", "bytes=65536"],
            &["--queue-bound", "4"],
        ] {
            let args = ExpArgs::parse_named("trace_export", flag.iter().map(|s| s.to_string()));
            let err = args
                .unwrap()
                .check_streaming("trace_export", false)
                .unwrap_err();
            let want = format!(
                "trace_export: {} is read by the `streaming` report",
                flag[0]
            );
            assert!(err.starts_with(&want), "{err}");
        }
    }

    #[test]
    fn errors() {
        assert!(parse(&["--bytes"]).is_err());
        assert!(parse(&["--bytes", "0"]).is_err());
        assert!(parse(&["--whatever"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }
}
