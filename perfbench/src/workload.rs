//! The benchmark's workloads and one measured iteration of each.
//!
//! Every number that shapes the load is an absolute constant here (and is
//! repeated in `BENCHMARK.json`'s workload descriptions): sizes, the stream
//! window, queue bound, re-detect threshold and both source rates. Nothing
//! is calibrated from the code under test, so a change to the model or the
//! simulator never changes the load it is measured on. The generators
//! receive only the seed and the size.

use crate::spans::{IterationTimes, Recorder};
use bk_apps::kmeans::KMeans;
use bk_apps::opinion::OpinionFinder;
use bk_apps::{run_implementation, BenchApp, DriftingKMeans, HarnessConfig, Implementation};
use bk_obs::critpath::{self, boundary_ns, WaveDag};
use bk_obs::MetricsRegistry;
use bk_runtime::stream::{run_bigkernel_streamed, ReplaySource, Source};
use bk_runtime::{Machine, RunResult, StreamConfig, StreamKernel, StreamResult, WindowPolicy};
use bk_simcore::{ScheduleView, SimTime};
use std::collections::BTreeMap;

const MIB: f64 = (1u64 << 20) as f64;

/// Workload seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;
/// Seed kept out of tuning: a performance claim made on the default seed
/// must also hold on this one.
pub const HELD_OUT_SEED: u64 = 1_000_003;

/// `kmeans_stream`: bytes per execution window (1024 windows of 16 MiB).
pub const STREAM_WINDOW_BYTES: u64 = 16 * 1024;
/// `kmeans_stream`: windows admitted but not yet retired, at most.
pub const STREAM_QUEUE_BOUND: usize = 2;
/// `kmeans_stream`: fingerprint drift threshold (the drifting K-means flips
/// its record schema at the midpoint, a relative change above this).
pub const STREAM_REDETECT_THRESHOLD: f64 = 0.4;
/// `kmeans_stream`: nominal source rate, simulated bytes per second. About
/// half the streamed pipeline's capacity when the benchmark was defined.
pub const STREAM_NOMINAL_BYTES_PER_SEC: f64 = 1_250.0 * MIB;
/// `kmeans_stream`: overload source rate, simulated bytes per second. About
/// four times the capacity when the benchmark was defined, so the bounded
/// queue, not the source, limits throughput.
pub const STREAM_OVERLOAD_BYTES_PER_SEC: f64 = 10_000.0 * MIB;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Opinion Finder, 8 MiB, one read-only pass.
    Opinion,
    /// K-means, 64 MiB, two passes fused into one pipeline, 12.5 % written.
    KMeansFused,
    /// Drifting K-means, 16 MiB, streamed in 1024 windows at two rates.
    KMeansStream,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Opinion,
        Workload::KMeansFused,
        Workload::KMeansStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Opinion => "opinion",
            Workload::KMeansFused => "kmeans_fused",
            Workload::KMeansStream => "kmeans_stream",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Input bytes at full size.
    pub fn bytes(self) -> u64 {
        match self {
            Workload::Opinion => 8 << 20,
            Workload::KMeansFused => 64 << 20,
            Workload::KMeansStream => 16 << 20,
        }
    }

    fn app(self) -> Box<dyn BenchApp + Sync> {
        match self {
            Workload::Opinion => Box::new(OpinionFinder::default()),
            Workload::KMeansFused => Box::new(KMeans::default()),
            Workload::KMeansStream => Box::new(DriftingKMeans::default()),
        }
    }
}

/// Everything one iteration needs: the workload at a size and seed, and the
/// harness configuration for a host thread count.
pub struct Plan {
    workload: Workload,
    bytes: u64,
    seed: u64,
    app: Box<dyn BenchApp + Sync>,
    cfg: HarnessConfig,
}

impl Plan {
    /// `threads > 1` selects the parallel block path; the caller installs a
    /// matching rayon pool.
    pub fn new(workload: Workload, bytes: u64, seed: u64, threads: usize) -> Plan {
        let mut cfg = HarnessConfig::paper_scaled(bytes);
        cfg.gpus = 1;
        cfg.fuse = workload == Workload::KMeansFused;
        cfg.bigkernel.parallel_blocks = threads > 1;
        cfg.baseline.parallel_blocks = threads > 1;
        Plan {
            workload,
            bytes,
            seed,
            app: workload.app(),
            cfg,
        }
    }

    fn machine(&self) -> Machine {
        let mut m = (self.cfg.machine)();
        m.replicate_gpus(self.cfg.gpus);
        m.scale_fixed_costs(self.cfg.fixed_cost_scale);
        m
    }
}

/// Simulated values by metric name. Deterministic for a plan's seed and
/// size: every iteration, traced or not, at any thread count, must produce
/// bit-identical values.
pub type SimValues = BTreeMap<String, f64>;

/// What one iteration measured.
#[derive(Debug, Default)]
pub struct Iteration {
    /// End-to-end and per-layer simulated values.
    pub sim: SimValues,
    /// Critical-path blame per stage; traced iterations only.
    pub crit: SimValues,
    /// Host time per layer span.
    pub times: IterationTimes,
    /// Input MiB of the BigKernel or streamed runs.
    pub pipeline_mib: f64,
    /// Input MiB of the double-buffer run.
    pub baseline_mib: f64,
    /// Pipeline invocations of the streamed runs (windows), 0 for batch.
    pub windows: u64,
    /// Peak heap bytes during the iteration.
    pub peak_heap: usize,
    /// Verified runs attempted.
    pub attempted: u64,
    /// Failed verifications and failed consistency checks.
    pub errors: Vec<String>,
}

impl Iteration {
    pub fn layer_s(&self, name: &str) -> f64 {
        self.times.layers.get(name).copied().unwrap_or(0.0)
    }

    /// Host seconds in `instantiate`, summed over the iteration's instances.
    pub fn setup_s(&self) -> f64 {
        self.layer_s("host.apps.instantiate")
    }

    /// Host seconds of the BigKernel or streamed runs.
    pub fn pipeline_s(&self) -> f64 {
        self.layer_s("host.runtime.pipeline") + self.layer_s("host.runtime.stream")
    }

    /// Host seconds of the double-buffer run.
    pub fn baseline_s(&self) -> f64 {
        self.layer_s("host.baselines.double_buffer")
    }
}

fn ms(t: SimTime) -> f64 {
    t.secs() * 1e3
}

fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer simulated counters of one run (or of a stream's merged
/// windows). `invocations` is the number of pipeline launches merged.
fn counters(sim: &mut SimValues, m: &MetricsRegistry, invocations: u64) {
    let mut put = |k: &str, v: f64| {
        sim.insert(k.to_string(), v);
    };
    let found = m.get("addr.patterns_found") + m.get("addr.segmented_found");
    put("addr.entries", m.get("addr.entries") as f64);
    put(
        "addr.pattern_hit_ratio",
        ratio(found, found + m.get("addr.patterns_missed")),
    );
    put("addr.encoded_mib", m.get("addr.encoded_bytes") as f64 / MIB);
    put(
        "assembly.gathered_mib",
        m.get("assembly.gathered_bytes") as f64 / MIB,
    );
    let (hits, misses) = (m.get("assembly.cache_hits"), m.get("assembly.cache_misses"));
    put("assembly.llc_hit_ratio", ratio(hits, hits + misses));
    let (simd, scalar) = (m.get("assembly.simd_runs"), m.get("assembly.scalar_runs"));
    put("assembly.simd_run_ratio", ratio(simd, simd + scalar));
    put("pcie.h2d_mib", m.get("pcie.h2d_bytes") as f64 / MIB);
    put("pcie.d2h_mib", m.get("pcie.d2h_bytes") as f64 / MIB);
    let moved = m.get("gpu.comp_mem_bytes_moved");
    put(
        "gpu.coalescing_efficiency",
        ratio(m.get("gpu.comp_mem_bytes_useful"), moved),
    );
    put("gpu.mem_moved_mib", moved as f64 / MIB);
    put("gpu.issue_slots", m.get("gpu.comp_issue_slots") as f64);
    put("gpu.atomics", m.get("gpu.comp_atomics") as f64);
    put("fusion.fused", m.get("fusion.fused") as f64);
    put(
        "fusion.saved_mib",
        (m.get("fusion.h2d_saved_bytes") + m.get("fusion.d2h_saved_bytes")) as f64 / MIB,
    );
    put("run.waves", m.get("run.waves") as f64);
    put(
        "launch.active_blocks",
        ratio(m.get("launch.active_blocks"), invocations.max(1)),
    );
    for (name, ns) in m.iter() {
        // The ingest stall is reported as `stream.backpressure_ms`.
        match name.strip_prefix("stall.") {
            Some(rest) if !rest.starts_with("ingest.") => {
                put(&format!("sim.stall.{rest}_ms"), ns_ms(ns))
            }
            _ => {}
        }
    }
}

/// Nearest-rank percentile of `v` (sorted in place), `p` in (0, 100].
fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Stage role name: fused pipelines prefix each pass's stages with `p<i>.`,
/// which the per-layer metrics aggregate away.
fn role(stage: &str) -> &str {
    match stage.split_once('.') {
        Some((p, rest)) if p.starts_with('p') && p[1..].parse::<u32>().is_ok() => rest,
        _ => stage,
    }
}

/// Stage busy time and critical-path blame of captured waves, grouped into
/// pipeline invocations (a new invocation restarts the wave clock at zero,
/// as every streamed window does). Returns (busy ms per stage, blame ms per
/// stage, summed makespan ns, summed blame ns).
fn blame(waves: &[WaveDag]) -> (SimValues, SimValues, u64, u64) {
    let mut busy = SimValues::new();
    let mut crit = SimValues::new();
    let mut makespan_ns = 0u64;
    let mut blame_ns = 0u64;
    let mut groups: Vec<&[WaveDag]> = Vec::new();
    let mut start = 0;
    for i in 1..=waves.len() {
        if i == waves.len() || (waves[i].time_base.is_zero() && waves[i].pass == waves[i - 1].pass)
        {
            groups.push(&waves[start..i]);
            start = i;
        }
    }
    for group in groups {
        let report = critpath::analyze(group);
        makespan_ns += report.makespan_ns;
        blame_ns += report.blame_sum_ns();
        for (stage, ns) in &report.stage_blame {
            *crit
                .entry(format!("sim.crit.{}_ms", role(stage)))
                .or_default() += ns_ms(*ns);
        }
    }
    for wave in waves {
        for shard in &wave.shards {
            for s in 0..shard.num_stages() {
                *busy
                    .entry(format!("sim.busy.{}_ms", role(shard.stage_name(s))))
                    .or_default() += ms(shard.stage_busy(s));
            }
        }
    }
    (busy, crit, makespan_ns, blame_ns)
}

/// Run `f` with schedule capture on when `traced`; returns its result and
/// the captured waves (empty when untraced).
fn captured<R>(traced: bool, f: impl FnOnce() -> R) -> (R, Vec<WaveDag>) {
    if traced {
        let guard = critpath::capture();
        let out = f();
        (out, guard.finish())
    } else {
        (f(), Vec::new())
    }
}

/// One measured iteration of `plan`. Spans go to `rec` under iteration `id`;
/// `traced` adds critical-path capture and analysis.
pub fn run_iteration(plan: &Plan, rec: &mut Recorder, id: usize, traced: bool) -> Iteration {
    crate::heap::reset_peak();
    rec.begin(id, traced);
    let mut it = Iteration::default();
    let (waves, makespan_ns) = match plan.workload {
        Workload::Opinion | Workload::KMeansFused => batch(plan, rec, traced, &mut it),
        Workload::KMeansStream => stream(plan, rec, traced, &mut it),
    };
    let db = baseline(plan, rec, &mut it);
    if traced {
        let (busy, crit, crit_makespan_ns, blame_ns) =
            rec.time("host.obs.critpath", || blame(&waves));
        if crit_makespan_ns != makespan_ns || blame_ns != makespan_ns {
            it.errors.push(format!(
                "critical-path blame {blame_ns} ns over analyzed makespan \
                 {crit_makespan_ns} ns does not tile sim_makespan_ms ({makespan_ns} ns)"
            ));
        }
        it.sim.extend(busy);
        it.crit = crit;
    }
    let bk_makespan_ms = it.sim["sim_makespan_ms"];
    it.sim
        .insert("sim.double_buffer_makespan_ms".into(), ms(db));
    it.sim.insert(
        "sim_speedup_vs_double_buffer".into(),
        ms(db) / bk_makespan_ms,
    );
    match rec.end() {
        Ok(times) => it.times = times,
        Err(e) => it.errors.push(e),
    }
    it.peak_heap = crate::heap::peak();
    it
}

fn check(it: &mut Iteration, what: &str, result: Result<(), String>) {
    it.attempted += 1;
    if let Err(e) = result {
        it.errors.push(format!("{what} failed verification: {e}"));
    }
}

/// The BigKernel run of a batch workload (fused on `kmeans_fused`).
/// Returns the captured waves and the makespan in integer ns.
fn batch(plan: &Plan, rec: &mut Recorder, traced: bool, it: &mut Iteration) -> (Vec<WaveDag>, u64) {
    let mut m = plan.machine();
    let instance = rec.time("host.apps.instantiate", || {
        plan.app.instantiate(&mut m, plan.bytes, plan.seed)
    });
    let (r, waves): (RunResult, _) = captured(traced, || {
        rec.time("host.runtime.pipeline", || {
            run_implementation(&mut m, &instance, Implementation::BigKernel, &plan.cfg)
        })
    });
    let verified = rec.time("host.apps.verify", || (instance.verify)(&m));
    check(it, "bigkernel", verified);

    let mib = instance.streams[0].len() as f64 / MIB;
    it.pipeline_mib += mib;
    let makespan = ms(r.total);
    let sim = &mut it.sim;
    sim.insert("sim_makespan_ms".into(), makespan);
    sim.insert("sim_sustained_mib_per_s".into(), mib / r.total.secs());
    // A batch run is one window that has fully arrived at time zero.
    sim.insert("sim_p99_window_latency_ms".into(), makespan);
    sim.insert("stream.p50_window_latency_ms".into(), makespan);
    sim.insert("stream.windows".into(), 1.0);
    sim.insert("stream.backpressure_ms".into(), 0.0);
    sim.insert("stream.max_queue_depth".into(), 1.0);
    sim.insert("stream.redetects".into(), 0.0);
    sim.insert("run.chunks".into(), r.chunks as f64);
    counters(sim, &r.metrics, 1);
    (waves, boundary_ns(r.total))
}

/// The two streamed runs of `kmeans_stream`: the nominal rate (latency) and
/// the overload rate (capacity). Returns the overload run's captured waves
/// and its summed window pipeline time in integer ns.
fn stream(
    plan: &Plan,
    rec: &mut Recorder,
    traced: bool,
    it: &mut Iteration,
) -> (Vec<WaveDag>, u64) {
    let scfg = StreamConfig {
        policy: WindowPolicy::ByBytes(STREAM_WINDOW_BYTES),
        queue_bound: STREAM_QUEUE_BOUND,
        redetect_threshold: STREAM_REDETECT_THRESHOLD,
        autotune: None,
    };
    let mut run = |rate: f64,
                   capture: bool,
                   it: &mut Iteration|
     -> (StreamResult, ReplaySource, Vec<WaveDag>) {
        let mut m = plan.machine();
        let instance = rec.time("host.apps.instantiate", || {
            plan.app.instantiate(&mut m, plan.bytes, plan.seed)
        });
        let kernels: Vec<&dyn StreamKernel> = instance
            .kernels
            .iter()
            .map(|k| k.as_ref() as &dyn StreamKernel)
            .collect();
        let source = ReplaySource::new(instance.streams[0].len(), rate);
        let (r, waves) = captured(capture, || {
            rec.time("host.runtime.stream", || {
                run_bigkernel_streamed(
                    &mut m,
                    &kernels,
                    &instance.streams,
                    plan.cfg.launch,
                    &plan.cfg.bigkernel,
                    &scfg,
                    &source,
                )
            })
        });
        let verified = rec.time("host.apps.verify", || (instance.verify)(&m));
        check(it, "streamed run", verified);
        it.pipeline_mib += instance.streams[0].len() as f64 / MIB;
        it.windows += r.windows.len() as u64;
        (r, source, waves)
    };

    let (nominal, source, _) = run(STREAM_NOMINAL_BYTES_PER_SEC, false, it);
    let mut since_ready: Vec<f64> = nominal
        .windows
        .iter()
        .map(|w| {
            let done = source.arrival(w.window.start + 1) + w.latency;
            ms(done.saturating_sub(w.ready))
        })
        .collect();
    let p99 = percentile(&mut since_ready, 99.0);
    let p50 = percentile(&mut since_ready, 50.0);

    let (over, _, waves) = run(STREAM_OVERLOAD_BYTES_PER_SEC, traced, it);
    let pipeline_ns: u64 = over.windows.iter().map(|w| boundary_ns(w.makespan)).sum();
    let sim = &mut it.sim;
    sim.insert("sim_makespan_ms".into(), ns_ms(pipeline_ns));
    sim.insert(
        "sim_sustained_mib_per_s".into(),
        over.sustained_bytes_per_sec / MIB,
    );
    sim.insert("sim_p99_window_latency_ms".into(), p99);
    sim.insert("stream.p50_window_latency_ms".into(), p50);
    sim.insert("stream.windows".into(), over.windows.len() as f64);
    sim.insert(
        "stream.backpressure_ms".into(),
        ns_ms(over.metrics.get("stream.backpressure_ns")),
    );
    sim.insert(
        "stream.max_queue_depth".into(),
        over.windows.iter().map(|w| w.depth).max().unwrap_or(0) as f64,
    );
    sim.insert("stream.redetects".into(), over.redetects as f64);
    sim.insert("run.chunks".into(), over.chunks as f64);
    counters(sim, &over.metrics, over.windows.len() as u64);
    (waves, pipeline_ns)
}

/// The double-buffer baseline on identical data; returns its makespan.
fn baseline(plan: &Plan, rec: &mut Recorder, it: &mut Iteration) -> SimTime {
    let mut m = plan.machine();
    let instance = rec.time("host.apps.instantiate", || {
        plan.app.instantiate(&mut m, plan.bytes, plan.seed)
    });
    let r = rec.time("host.baselines.double_buffer", || {
        run_implementation(
            &mut m,
            &instance,
            Implementation::GpuDoubleBuffer,
            &plan.cfg,
        )
    });
    let verified = rec.time("host.apps.verify", || (instance.verify)(&m));
    check(it, "double buffer", verified);
    it.baseline_mib += instance.streams[0].len() as f64 / MIB;
    r.total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny-size smoke run of every workload: all runs verify, blame
    /// tiles the makespan, and every simulated end-to-end value is present.
    #[test]
    fn tiny_runs_of_every_workload_verify() {
        for w in Workload::ALL {
            let plan = Plan::new(w, 256 << 10, DEFAULT_SEED, 1);
            let mut rec = Recorder::default();
            let it = run_iteration(&plan, &mut rec, 0, true);
            assert!(it.errors.is_empty(), "{}: {:?}", w.name(), it.errors);
            assert!(
                it.attempted >= 2,
                "{}: {} runs verified",
                w.name(),
                it.attempted
            );
            for name in [
                "sim_makespan_ms",
                "sim_speedup_vs_double_buffer",
                "sim_sustained_mib_per_s",
                "sim_p99_window_latency_ms",
            ] {
                let v = it.sim[name];
                assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", w.name());
            }
            let blamed: f64 = it.crit.values().sum();
            assert!(blamed > 0.0, "{}: no critical-path blame", w.name());
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=1024).map(f64::from).collect();
        // 1024 windows: the p99 rank is 1014, leaving ten windows beyond it.
        assert_eq!(percentile(&mut v, 99.0), 1014.0);
        assert_eq!(percentile(&mut v, 50.0), 512.0);
        assert_eq!(percentile(&mut [], 99.0), 0.0);
    }

    #[test]
    fn fused_stage_names_reduce_to_their_role() {
        assert_eq!(role("p1.wb-xfer"), "wb-xfer");
        assert_eq!(role("compute"), "compute");
        assert_eq!(role("pcie.x"), "pcie.x");
    }
}

#[cfg(test)]
mod declared {
    use super::*;

    /// `BENCHMARK.json` names exactly these workloads, and states the
    /// stream's absolute load next to them.
    #[test]
    fn benchmark_json_declares_the_workloads_and_their_load() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        let declared = compact.matches("\"why\":").count();
        assert_eq!(declared, Workload::ALL.len());
        for w in Workload::ALL {
            assert!(compact.contains(&format!("{{\"name\":\"{}\",\"why\":", w.name())));
        }
        let rates = [STREAM_NOMINAL_BYTES_PER_SEC, STREAM_OVERLOAD_BYTES_PER_SEC]
            .map(|r| format!("{}MiB/s", r / MIB));
        for fact in [
            format!(
                "{}windowsof{}B",
                16 * 1024 * 1024 / STREAM_WINDOW_BYTES,
                STREAM_WINDOW_BYTES
            ),
            format!("queuebound{STREAM_QUEUE_BOUND}"),
            format!("re-detect{STREAM_REDETECT_THRESHOLD}"),
            format!("{}and{}", rates[0].trim_end_matches("MiB/s"), rates[1]),
        ] {
            assert!(
                compact.contains(&fact),
                "BENCHMARK.json does not state {fact:?}"
            );
        }
    }
}
