//! Deterministic fault injection and recovery for the stage-graph executor.
//!
//! A production-scale BigKernel deployment cannot assume every DMA, assembly
//! thread and device always succeeds. This module lets a run declare, up
//! front and reproducibly, *what goes wrong* — a seeded [`FaultPlan`] — and
//! gives the executor three recovery policies, tried in escalating order:
//!
//! 1. **Bounded retry with exponential backoff** — a transient stage fault
//!    (a failed DMA descriptor, a crashed assembly thread, a compute launch
//!    error) re-runs the stage instance. Each failed attempt costs the
//!    stage's full duration (the wasted attempt) plus `backoff · 2^attempt`
//!    before the retry is issued. The lost time is folded into that stage's
//!    scheduled duration and surfaced as a `stall.<stage>.fault` counter.
//! 2. **Chunk requeue onto surviving devices** — when a whole device dies
//!    (at a wave boundary, per [`DeviceFailure`]), its dealt chunks are
//!    re-dealt across the survivors with the run's [`ShardPolicy`] and every
//!    later wave shards across survivors only.
//! 3. **Graceful degradation** — when a stage instance exhausts its retry
//!    budget the bigkernel pipeline is deemed unable to make progress at its
//!    current depth: the run drops to the double-buffered graph (reuse
//!    depth 1) and, if that still cannot complete, to a fully serialized
//!    graph.
//!    All three levels keep the run's `6 × passes` stage shape, so per-stage
//!    accounting stays comparable across the degradation.
//!
//! **Determinism contract.** Whether a given stage instance faults is a pure
//! hash of `(plan seed, global chunk id, stage, attempt, degradation
//! level)` — independent of device assignment, wave partitioning and thread
//! scheduling. Same seed + same plan ⇒ same injected faults ⇒ same schedule,
//! same metrics. And because fault injection only perturbs *durations* and
//! *chunk→device placement* — both timing-level decisions; functional
//! execution stays in global chunk order — outputs are bit-identical to the
//! fault-free run for any plan that completes. See DESIGN.md §11.

use crate::graph::{
    deal_chunks, pipeline_graph, pipeline_stage_names, schedule_graph, serial_graph, GraphSpec,
    Shard, ShardPolicy, ShardedSchedule,
};
use crate::pipeline::STAGE_NAMES;
use bk_obs::{stall_counter, MetricsRegistry, SpanRecord, FAULT_MARKER_STAGE};
use bk_simcore::{ScheduleView, SimTime, SplitMix64};

/// A pipeline stage that can be failed by a [`FaultSite`]. Maps 1:1 onto the
/// 6-stage bigkernel graph (indices into [`STAGE_NAMES`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultStage {
    /// The GPU address-generation mini-kernel (stage 0).
    AddrGen,
    /// CPU locality assembly (stage 1).
    Assemble,
    /// Host-to-device DMA of the assembled chunk (stage 2).
    Transfer,
    /// The GPU compute kernel (stage 3).
    Compute,
    /// Device-to-host DMA of the write-back buffer (stage 4).
    WbXfer,
    /// CPU scatter of write-back values into mapped memory (stage 5).
    WbApply,
}

impl FaultStage {
    /// Every stage, in pipeline order.
    pub const ALL: [FaultStage; 6] = [
        FaultStage::AddrGen,
        FaultStage::Assemble,
        FaultStage::Transfer,
        FaultStage::Compute,
        FaultStage::WbXfer,
        FaultStage::WbApply,
    ];

    /// Index into the 6-stage graph (and [`STAGE_NAMES`]).
    pub fn index(self) -> usize {
        match self {
            FaultStage::AddrGen => 0,
            FaultStage::Assemble => 1,
            FaultStage::Transfer => 2,
            FaultStage::Compute => 3,
            FaultStage::WbXfer => 4,
            FaultStage::WbApply => 5,
        }
    }

    /// The stage's pipeline name (`"addr-gen"`, `"assemble"`, ...).
    pub fn name(self) -> &'static str {
        STAGE_NAMES[self.index()]
    }

    /// Parse a pipeline stage name as used in `--faults` specs.
    pub fn from_name(s: &str) -> Option<FaultStage> {
        FaultStage::ALL.into_iter().find(|f| f.name() == s)
    }
}

/// A targeted fault: fail `stage` of global chunk `chunk` on its first
/// `times` attempts. Sites model faults tied to the deep-pipelined
/// configuration, so they apply at degradation level 0 only — a site with
/// `times > max_retries` therefore forces a degradation, after which the
/// replacement graph clears it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSite {
    /// Which pipeline stage to fail.
    pub stage: FaultStage,
    /// Run-global chunk index (monotone across waves).
    pub chunk: usize,
    /// How many consecutive attempts fail (1 = fail once, succeed on retry).
    pub times: u32,
}

/// Drop a whole simulated device at the start of wave `wave`. Its dealt
/// chunks requeue onto the survivors and all later waves shard across the
/// survivors only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceFailure {
    /// Device index to kill (must leave at least one survivor).
    pub device: usize,
    /// Wave at whose boundary the device dies.
    pub wave: usize,
}

/// A seeded, declarative description of everything that goes wrong in a run.
///
/// Two ways to inject faults, freely combined:
///
/// * `rate` — every non-empty stage instance independently fails with this
///   probability per attempt (hashed from the seed; see the module docs);
/// * `sites` — targeted [`FaultSite`]s failing a specific stage of a
///   specific chunk a specific number of times.
///
/// Plus at most one [`DeviceFailure`]. Recovery is bounded by `max_retries`
/// per stage instance, with `backoff · 2^attempt` added before each retry.
///
/// ```
/// use bk_runtime::fault::{FaultPlan, FaultStage};
///
/// let plan = FaultPlan::parse("seed=7,rate=0.01,retries=2,fail=compute@5x2,kill=1@0").unwrap();
/// assert_eq!(plan.seed, 7);
/// assert_eq!(plan.max_retries, 2);
/// assert_eq!(plan.sites[0].stage, FaultStage::Compute);
/// assert_eq!(plan.sites[0].chunk, 5);
/// assert_eq!(plan.device_failure.unwrap().device, 1);
/// // Same plan, same draw key => same verdict, forever.
/// assert_eq!(plan.fails(5, 3, 0, 0), plan.fails(5, 3, 0, 0));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-instance fault draws.
    pub seed: u64,
    /// Probability in `[0, 1]` that any one stage-instance attempt faults.
    pub rate: f64,
    /// Targeted faults (applied at degradation level 0; see [`FaultSite`]).
    pub sites: Vec<FaultSite>,
    /// At most one whole-device failure.
    pub device_failure: Option<DeviceFailure>,
    /// Retry budget per stage instance; exhausting it degrades the graph.
    pub max_retries: u32,
    /// Base backoff delay; attempt `k`'s retry waits `backoff · 2^k`.
    pub backoff: SimTime,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            rate: 0.0,
            sites: Vec::new(),
            device_failure: None,
            max_retries: 3,
            backoff: SimTime::from_micros(1.0),
        }
    }
}

impl FaultPlan {
    /// Parse a `--faults` spec string: comma-separated `key=value` pairs.
    ///
    /// | key | value | meaning |
    /// |---|---|---|
    /// | `seed=N` | u64 | draw seed |
    /// | `rate=F` | 0..=1 | per-attempt transient fault probability |
    /// | `retries=N` | u32 | retry budget per stage instance |
    /// | `backoff_us=F` | µs | base backoff before a retry |
    /// | `fail=STAGE@CHUNK[xN]` | e.g. `compute@5x2` | targeted site, N times (default 1) |
    /// | `kill=DEV@WAVE` | e.g. `1@0` | drop device DEV at wave WAVE |
    ///
    /// An empty string is the default (fault-free) plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}` is not key=value"))?;
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|e| format!("bad seed `{value}`: {e}"))?;
                }
                "rate" => {
                    plan.rate = value
                        .parse()
                        .map_err(|e| format!("bad rate `{value}`: {e}"))?;
                }
                "retries" => {
                    plan.max_retries = value
                        .parse()
                        .map_err(|e| format!("bad retries `{value}`: {e}"))?;
                }
                "backoff_us" => {
                    let us: f64 = value
                        .parse()
                        .map_err(|e| format!("bad backoff_us `{value}`: {e}"))?;
                    if us.is_nan() || us < 0.0 {
                        return Err(format!("backoff_us must be >= 0, got `{value}`"));
                    }
                    plan.backoff = SimTime::from_micros(us);
                }
                "fail" => {
                    let (stage, rest) = value
                        .split_once('@')
                        .ok_or_else(|| format!("fail site `{value}` is not STAGE@CHUNK[xN]"))?;
                    let stage = FaultStage::from_name(stage).ok_or_else(|| {
                        format!(
                            "unknown stage `{stage}` (expected one of {})",
                            STAGE_NAMES.join(", ")
                        )
                    })?;
                    let (chunk, times) = match rest.split_once('x') {
                        Some((c, t)) => (
                            c.parse()
                                .map_err(|e| format!("bad fail chunk `{c}`: {e}"))?,
                            t.parse()
                                .map_err(|e| format!("bad fail times `{t}`: {e}"))?,
                        ),
                        None => (
                            rest.parse()
                                .map_err(|e| format!("bad fail chunk `{rest}`: {e}"))?,
                            1,
                        ),
                    };
                    plan.sites.push(FaultSite {
                        stage,
                        chunk,
                        times,
                    });
                }
                "kill" => {
                    let (dev, wave) = value
                        .split_once('@')
                        .ok_or_else(|| format!("kill `{value}` is not DEV@WAVE"))?;
                    if plan.device_failure.is_some() {
                        return Err("at most one kill= per plan".to_string());
                    }
                    plan.device_failure = Some(DeviceFailure {
                        device: dev
                            .parse()
                            .map_err(|e| format!("bad kill device `{dev}`: {e}"))?,
                        wave: wave
                            .parse()
                            .map_err(|e| format!("bad kill wave `{wave}`: {e}"))?,
                    });
                }
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        plan.check().map(|()| plan)
    }

    /// Validate field ranges (rate in `[0, 1]`, site `times >= 1`).
    pub fn check(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.rate) {
            return Err(format!("fault rate {} outside [0, 1]", self.rate));
        }
        for s in &self.sites {
            if s.times == 0 {
                return Err("fault site times must be >= 1".to_string());
            }
        }
        Ok(())
    }

    /// Does attempt `attempt` of `stage` (graph index) for global chunk
    /// `chunk` fault, at degradation level `level`? Pure function of the
    /// plan — order-independent, so the schedule is reproducible regardless
    /// of how chunks are sharded or waves are partitioned.
    pub fn fails(&self, chunk: usize, stage: usize, attempt: u32, level: usize) -> bool {
        if level == 0 {
            for s in &self.sites {
                if s.stage.index() == stage && s.chunk == chunk && attempt < s.times {
                    return true;
                }
            }
        }
        if self.rate <= 0.0 {
            return false;
        }
        // One hash per draw: SplitMix64 over a mixed key. Distinct odd
        // multipliers keep the key components from aliasing.
        let key = self
            .seed
            .wrapping_add((chunk as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((stage as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add((attempt as u64 + 1).wrapping_mul(0x94D0_49BB_1331_11EB))
            .wrapping_add((level as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let draw = SplitMix64::new(key).next_u64();
        let threshold = (self.rate.min(1.0) * u64::MAX as f64) as u64;
        draw < threshold
    }
}

/// A wave's fault-inflated durations plus the injected-fault events.
/// `Err((chunk, stage))` from the producer means retry-budget exhaustion.
type InflatedWave = (Vec<Vec<SimTime>>, Vec<FaultEvent>);

/// One stage instance that faulted and recovered: `attempts` injected faults
/// before success, costing `extra` simulated time on top of the clean
/// duration.
#[derive(Clone, Copy, Debug)]
struct FaultEvent {
    /// Wave-local chunk index.
    chunk: usize,
    /// Graph stage index.
    stage: usize,
    /// Number of attempts that faulted (retries performed).
    attempts: u32,
    /// Wasted attempts + backoff, folded into the scheduled duration.
    extra: SimTime,
}

/// Per-run fault state: the plan, which devices are still alive, and the
/// current degradation level. Built by the pipeline runner when
/// [`crate::BigKernelConfig::faults`] is set; one [`FaultContext::run_wave`]
/// call replaces `Executor::run` per wave.
pub(crate) struct FaultContext {
    plan: FaultPlan,
    policy: ShardPolicy,
    alive: Vec<bool>,
    /// Degradation level: 0 = full pipeline, 1 = double-buffered (reuse
    /// depth 1), 2 = serial. Sticky across waves.
    level: usize,
    specs: [GraphSpec; 3],
}

impl FaultContext {
    /// A fault context over the `passes`-pass [`pipeline_graph`]. The
    /// degradation ladder keeps the `6 × passes` stage shape at every rung
    /// (full depth → depth 1 → serial), so stage indices in the inflated rows
    /// stay stable; fault sites address stages by their 6-stage *role*
    /// (`stage % 6`), hitting the same role in every pass.
    pub(crate) fn new(
        plan: FaultPlan,
        num_devices: usize,
        policy: ShardPolicy,
        copy_engines: usize,
        passes: usize,
        depth: usize,
        wb_depth: usize,
    ) -> FaultContext {
        if let Some(df) = plan.device_failure {
            assert!(
                df.device < num_devices,
                "fault plan kills device {} but the machine has {num_devices}",
                df.device
            );
            assert!(
                num_devices > 1,
                "fault plan kills the only device — no survivor to requeue onto"
            );
        }
        FaultContext {
            plan,
            policy,
            alive: vec![true; num_devices],
            level: 0,
            specs: [
                pipeline_graph(copy_engines, passes, depth, wb_depth),
                pipeline_graph(copy_engines, passes, 1, 1),
                serial_graph(&pipeline_stage_names(passes)),
            ],
        }
    }

    /// Degradation level reached so far (0 = full pipeline). The autotuner
    /// reads this after every window to adopt degraded depths.
    pub(crate) fn level(&self) -> usize {
        self.level
    }

    /// Replace the graph at the *current* degradation level with a retuned
    /// spec — the autotuner deepening (or shallowing) reuse edges between
    /// windows. The serial fallback (level 2) has no reuse edges to tune and
    /// is never replaced; returns whether the retune was applied. Degrading
    /// still swaps to the untouched next-level spec, and a degraded level is
    /// itself retunable — "retuned, not reset".
    pub(crate) fn retune_current(&mut self, spec: GraphSpec) -> bool {
        if self.level >= 2 {
            return false;
        }
        self.specs[self.level] = spec;
        true
    }

    /// Inflate the wave's clean durations with injected faults at the
    /// current degradation level. `Err((chunk, stage))` means that instance
    /// exhausted its retry budget (global chunk id reported).
    fn inflate(
        &self,
        chunk_base: usize,
        durations: &[Vec<SimTime>],
    ) -> Result<InflatedWave, (usize, usize)> {
        let mut rows = durations.to_vec();
        let mut events = Vec::new();
        for (c, row) in rows.iter_mut().enumerate() {
            let global = chunk_base + c;
            for (stage, dur) in row.iter_mut().enumerate() {
                // A stage that does no work this chunk cannot fault.
                if dur.is_zero() {
                    continue;
                }
                let clean = *dur;
                let mut attempts = 0u32;
                let mut extra = SimTime::ZERO;
                // Fault sites and rate hashing address the 6-stage *role*:
                // in a fused `6 × passes`-wide row, pass p's copy of a role
                // sits at `p*6 + role`. `% 6` is a no-op for 6-stage graphs.
                while self.plan.fails(global, stage % 6, attempts, self.level) {
                    if attempts >= self.plan.max_retries {
                        return Err((global, stage));
                    }
                    // The failed attempt ran (and was discarded), then the
                    // retry waited out the exponential backoff.
                    extra += clean;
                    extra += SimTime::from_secs(
                        self.plan.backoff.secs() * (1u64 << attempts.min(62)) as f64,
                    );
                    attempts += 1;
                }
                if attempts > 0 {
                    *dur += extra;
                    events.push(FaultEvent {
                        chunk: c,
                        stage,
                        attempts,
                        extra,
                    });
                }
            }
        }
        Ok((rows, events))
    }

    /// Shard, schedule and fault one wave. Drives the full recovery ladder:
    /// retry inflation at the current degradation level, degrading until the
    /// wave completes within its retry budgets; then the wave-boundary
    /// device failure (if due), requeuing the dead device's chunks across
    /// the survivors. Emits `fault.*` counters, `stall.<stage>.fault` time
    /// and Perfetto fault markers (when a trace guard is live).
    pub(crate) fn run_wave(
        &mut self,
        wave: usize,
        chunk_base: usize,
        time_base: SimTime,
        durations: &[Vec<SimTime>],
        metrics: &mut MetricsRegistry,
    ) -> ShardedSchedule {
        // 1. Settle the degradation level: the first level at which every
        //    stage instance of this wave completes within its retry budget.
        //    Abandoned levels contribute no fault counters — only the pass
        //    the run actually takes is accounted.
        let (rows, events) = loop {
            match self.inflate(chunk_base, durations) {
                Ok(out) => break out,
                Err((chunk, stage)) => {
                    assert!(
                        self.level + 1 < self.specs.len(),
                        "fault plan cannot make progress: {} of chunk {chunk} still \
                         exhausts {} retries in the serial fallback graph",
                        STAGE_NAMES[stage % 6],
                        self.plan.max_retries,
                    );
                    self.level += 1;
                    metrics.incr("fault.degraded");
                }
            }
        };

        // 2. Deal across the devices alive at the start of the wave; if the
        //    planned device failure fires now, requeue its chunks across the
        //    survivors with the same policy.
        let mut targets: Vec<usize> = (0..self.alive.len()).filter(|&d| self.alive[d]).collect();
        let mut owned = deal_chunks(self.policy, targets.len(), &rows);
        if let Some(df) = self.plan.device_failure {
            if df.wave == wave && self.alive[df.device] {
                let pos = targets
                    .iter()
                    .position(|&d| d == df.device)
                    .expect("alive device is a target");
                let orphaned = owned.remove(pos);
                targets.remove(pos);
                self.alive[df.device] = false;
                assert!(
                    !targets.is_empty(),
                    "fault plan killed the last surviving device"
                );
                metrics.add("fault.failed_over", orphaned.len() as u64);
                match self.policy {
                    ShardPolicy::RoundRobin => {
                        for (i, c) in orphaned.into_iter().enumerate() {
                            let n = owned.len();
                            owned[i % n].push(c);
                        }
                    }
                    ShardPolicy::LeastLoaded => {
                        let mut load: Vec<SimTime> = owned
                            .iter()
                            .map(|ids| ids.iter().map(|&c| rows[c].iter().copied().sum()).sum())
                            .collect();
                        for c in orphaned {
                            let mut dev = 0usize;
                            for (d, &l) in load.iter().enumerate() {
                                if l < load[dev] {
                                    dev = d;
                                }
                            }
                            owned[dev].push(c);
                            load[dev] += rows[c].iter().copied().sum();
                        }
                    }
                }
                // Requeued chunks splice back into each survivor's sequence
                // in global order (the shard invariant).
                for ids in owned.iter_mut() {
                    ids.sort_unstable();
                }
            }
        }

        // 3. Schedule each survivor's share on its device resources.
        let spec = &self.specs[self.level];
        let shards: Vec<Shard> = targets
            .into_iter()
            .zip(owned)
            .map(|(device, chunk_ids)| {
                let spec_d = spec.for_device(device);
                let dev_rows: Vec<Vec<SimTime>> =
                    chunk_ids.iter().map(|&c| rows[c].clone()).collect();
                let sched = schedule_graph(&spec_d, &dev_rows);
                Shard {
                    device,
                    chunk_ids,
                    sched,
                }
            })
            .collect();
        let sharded = ShardedSchedule::from_shards(shards);

        // 4. Account the faults the wave absorbed, and drop a Perfetto
        //    instant marker on each recovered stage instance.
        for ev in &events {
            metrics.incr("fault.injected");
            metrics.add("fault.retried", ev.attempts as u64);
            if let Some(c) = stall_counter(STAGE_NAMES[ev.stage % 6], "fault") {
                metrics.add(c, ev.extra.nanos() as u64);
            }
            for shard in sharded.shards() {
                if let Some(local) = shard.chunk_ids.iter().position(|&c| c == ev.chunk) {
                    bk_obs::trace::record(&SpanRecord {
                        track: shard.sched.stage_resource(ev.stage),
                        stage: FAULT_MARKER_STAGE,
                        chunk: chunk_base + ev.chunk,
                        start: time_base + shard.sched.slot(local, ev.stage).start,
                        dur: SimTime::ZERO,
                        stall: Some(("fault", ev.extra)),
                    });
                    break;
                }
            }
        }

        sharded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: f64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn rows(n: usize) -> Vec<Vec<SimTime>> {
        vec![vec![t(0.2), t(0.9), t(0.7), t(1.3), t(0.3), t(0.2)]; n]
    }

    #[test]
    fn parse_full_spec() {
        let p =
            FaultPlan::parse("seed=9,rate=0.25,retries=5,backoff_us=2.5,fail=transfer@3,kill=2@1")
                .unwrap();
        assert_eq!(p.seed, 9);
        assert_eq!(p.rate, 0.25);
        assert_eq!(p.max_retries, 5);
        assert_eq!(p.backoff, t(2.5));
        assert_eq!(
            p.sites,
            vec![FaultSite {
                stage: FaultStage::Transfer,
                chunk: 3,
                times: 1
            }]
        );
        assert_eq!(p.device_failure, Some(DeviceFailure { device: 2, wave: 1 }));
    }

    #[test]
    fn parse_empty_is_default() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "rate",
            "rate=1.5",
            "fail=warp@1",
            "fail=compute",
            "kill=1",
            "frobnicate=2",
            "fail=compute@1x0",
            "kill=0@0,kill=1@0",
            "backoff_us=-1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn stage_names_round_trip() {
        for stage in FaultStage::ALL {
            assert_eq!(FaultStage::from_name(stage.name()), Some(stage));
            assert_eq!(STAGE_NAMES[stage.index()], stage.name());
        }
        assert_eq!(FaultStage::from_name("warp"), None);
    }

    #[test]
    fn draws_are_deterministic_and_rate_scaled() {
        let p = FaultPlan {
            rate: 0.3,
            seed: 11,
            ..FaultPlan::default()
        };
        let mut fired = 0u32;
        for chunk in 0..2000 {
            let a = p.fails(chunk, 3, 0, 0);
            assert_eq!(a, p.fails(chunk, 3, 0, 0), "draws must be pure");
            fired += a as u32;
        }
        // ~600 expected; wide tolerance, the point is rate-proportionality.
        assert!((400..800).contains(&fired), "fired {fired} of 2000 at 0.3");
        let zero = FaultPlan::default();
        assert!((0..100).all(|c| !zero.fails(c, 3, 0, 0)));
    }

    #[test]
    fn site_fails_exactly_times_attempts_at_level_zero_only() {
        let p = FaultPlan::parse("fail=compute@4x2").unwrap();
        assert!(p.fails(4, 3, 0, 0));
        assert!(p.fails(4, 3, 1, 0));
        assert!(!p.fails(4, 3, 2, 0));
        assert!(!p.fails(5, 3, 0, 0));
        assert!(!p.fails(4, 2, 0, 0));
        assert!(!p.fails(4, 3, 0, 1), "sites clear after degradation");
    }

    #[test]
    fn retry_inflates_duration_and_counts() {
        // One site failing compute of chunk 2 twice: the inflated row pays
        // two wasted attempts plus backoff 1µs + 2µs.
        let plan = FaultPlan::parse("fail=compute@2x2,backoff_us=1").unwrap();
        let ctx = FaultContext::new(plan, 1, ShardPolicy::RoundRobin, 1, 1, 3, 3);
        let clean = rows(4);
        let (inflated, events) = ctx.inflate(0, &clean).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].attempts, 2);
        assert_eq!(events[0].extra, t(1.3) + t(1.0) + t(1.3) + t(2.0));
        assert_eq!(inflated[2][3], t(1.3) + events[0].extra);
        // Every other entry untouched.
        for (c, row) in inflated.iter().enumerate() {
            for (s, &d) in row.iter().enumerate() {
                if (c, s) != (2, 3) {
                    assert_eq!(d, clean[c][s]);
                }
            }
        }
    }

    #[test]
    fn zero_duration_stages_never_fault() {
        let plan = FaultPlan {
            rate: 1.0,
            max_retries: 0,
            ..FaultPlan::default()
        };
        let ctx = FaultContext::new(plan, 1, ShardPolicy::RoundRobin, 1, 1, 3, 3);
        // All-zero rows: rate 1.0 with no retries would exhaust instantly if
        // zero-duration stages drew faults.
        let clean = vec![vec![SimTime::ZERO; 6]; 3];
        let (inflated, events) = ctx.inflate(0, &clean).unwrap();
        assert!(events.is_empty());
        assert_eq!(inflated, clean);
    }

    #[test]
    fn exhausted_retries_degrade_to_double_buffered_then_serial() {
        // The site fails 10 times but the budget is 1 retry: level 0 cannot
        // complete. Sites clear at level 1, so the wave runs double-buffered.
        let plan = FaultPlan::parse("fail=compute@0x10,retries=1").unwrap();
        let mut ctx = FaultContext::new(plan, 1, ShardPolicy::RoundRobin, 1, 1, 3, 3);
        let mut metrics = MetricsRegistry::new();
        let sharded = ctx.run_wave(0, 0, SimTime::ZERO, &rows(6), &mut metrics);
        assert_eq!(ctx.level(), 1);
        assert_eq!(metrics.get("fault.degraded"), 1);
        assert_eq!(sharded.num_chunks(), 6);
        // The degraded graph still has the 6-stage shape.
        let mut stats = Vec::new();
        sharded.accumulate(&mut stats);
        assert_eq!(stats.len(), 6);
        assert_eq!(stats[3].name, "compute");
    }

    #[test]
    fn degraded_wave_is_slower_than_clean_pipeline() {
        let plan = FaultPlan::parse("fail=compute@0x10,retries=1").unwrap();
        let mut ctx = FaultContext::new(plan.clone(), 1, ShardPolicy::RoundRobin, 1, 1, 3, 3);
        let mut metrics = MetricsRegistry::new();
        let degraded = ctx.run_wave(0, 0, SimTime::ZERO, &rows(8), &mut metrics);
        let clean = crate::graph::Executor::new(
            crate::graph::bigkernel_graph(1, 3),
            1,
            ShardPolicy::RoundRobin,
        )
        .run(&rows(8));
        assert!(degraded.makespan() > clean.makespan());
    }

    #[test]
    #[should_panic(expected = "cannot make progress")]
    fn rate_one_panics_past_serial_fallback() {
        let plan = FaultPlan {
            rate: 1.0,
            max_retries: 2,
            ..FaultPlan::default()
        };
        let mut ctx = FaultContext::new(plan, 1, ShardPolicy::RoundRobin, 1, 1, 3, 3);
        let mut metrics = MetricsRegistry::new();
        let _ = ctx.run_wave(0, 0, SimTime::ZERO, &rows(2), &mut metrics);
    }

    #[test]
    fn device_death_requeues_onto_survivors_in_order() {
        let plan = FaultPlan::parse("kill=0@1").unwrap();
        let mut ctx = FaultContext::new(plan, 2, ShardPolicy::RoundRobin, 1, 1, 3, 3);
        let mut metrics = MetricsRegistry::new();
        // Wave 0: both devices.
        let w0 = ctx.run_wave(0, 0, SimTime::ZERO, &rows(8), &mut metrics);
        assert_eq!(w0.shards().len(), 2);
        assert_eq!(metrics.get("fault.failed_over"), 0);
        // Wave 1: device 0 dies; its 4 round-robin chunks requeue onto
        // device 1, which now owns all 8 in global order.
        let w1 = ctx.run_wave(1, 8, w0.makespan(), &rows(8), &mut metrics);
        assert_eq!(w1.shards().len(), 1);
        assert_eq!(w1.shards()[0].device, 1);
        assert_eq!(w1.shards()[0].chunk_ids, (0..8).collect::<Vec<_>>());
        assert_eq!(metrics.get("fault.failed_over"), 4);
        // Wave 2: survivors only, nothing more fails over.
        let w2 = ctx.run_wave(2, 16, SimTime::ZERO, &rows(4), &mut metrics);
        assert_eq!(w2.shards().len(), 1);
        assert_eq!(metrics.get("fault.failed_over"), 4);
    }

    #[test]
    fn least_loaded_requeue_balances_survivors() {
        let plan = FaultPlan::parse("kill=1@0").unwrap();
        let mut ctx = FaultContext::new(plan, 3, ShardPolicy::LeastLoaded, 1, 1, 3, 3);
        let mut metrics = MetricsRegistry::new();
        let w0 = ctx.run_wave(0, 0, SimTime::ZERO, &rows(9), &mut metrics);
        assert_eq!(w0.shards().len(), 2);
        assert_eq!(w0.num_chunks(), 9);
        assert!(metrics.get("fault.failed_over") > 0);
        // Uniform chunks: the survivors split the dead device's share about
        // evenly (within one chunk).
        let sizes: Vec<usize> = w0.shards().iter().map(|s| s.chunk_ids.len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        for shard in w0.shards() {
            for w in shard.chunk_ids.windows(2) {
                assert!(w[0] < w[1], "requeued chunks must stay in global order");
            }
        }
    }

    #[test]
    #[should_panic(expected = "only device")]
    fn killing_the_only_device_is_rejected_up_front() {
        let plan = FaultPlan::parse("kill=0@0").unwrap();
        let _ = FaultContext::new(plan, 1, ShardPolicy::RoundRobin, 1, 1, 3, 3);
    }

    #[test]
    fn fault_counters_and_stall_time_are_emitted() {
        let plan = FaultPlan::parse("fail=transfer@1x2,fail=compute@3,backoff_us=1").unwrap();
        let mut ctx = FaultContext::new(plan, 1, ShardPolicy::RoundRobin, 1, 1, 3, 3);
        let mut metrics = MetricsRegistry::new();
        let _ = ctx.run_wave(0, 0, SimTime::ZERO, &rows(6), &mut metrics);
        assert_eq!(metrics.get("fault.injected"), 2);
        assert_eq!(metrics.get("fault.retried"), 3);
        assert_eq!(metrics.get("fault.degraded"), 0);
        assert!(metrics.get("stall.transfer.fault") > 0);
        assert!(metrics.get("stall.compute.fault") > 0);
        assert_eq!(metrics.get("stall.assemble.fault"), 0);
    }

    #[test]
    fn same_plan_same_wave_is_bitwise_reproducible() {
        let plan = FaultPlan::parse("seed=3,rate=0.2,retries=4,kill=1@0").unwrap();
        let run = || {
            let mut ctx = FaultContext::new(plan.clone(), 2, ShardPolicy::RoundRobin, 1, 1, 3, 3);
            let mut metrics = MetricsRegistry::new();
            let s = ctx.run_wave(0, 0, SimTime::ZERO, &rows(12), &mut metrics);
            (s.makespan(), format!("{metrics}"))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_markers_appear_in_the_trace() {
        let plan = FaultPlan::parse("fail=compute@2,backoff_us=1").unwrap();
        let mut ctx = FaultContext::new(plan, 1, ShardPolicy::RoundRobin, 1, 1, 3, 3);
        let mut metrics = MetricsRegistry::new();
        let guard = bk_obs::trace::start();
        let _ = ctx.run_wave(0, 0, SimTime::ZERO, &rows(4), &mut metrics);
        let spans = guard.finish();
        if spans.is_empty() {
            // bk-obs compiled without the `trace` feature in this build
            // graph; marker content is covered when the workspace test run
            // unifies the feature in.
            return;
        }
        let markers: Vec<_> = spans
            .iter()
            .filter(|s| s.stage == FAULT_MARKER_STAGE)
            .collect();
        assert_eq!(markers.len(), 1);
        assert_eq!(markers[0].chunk, 2);
        assert_eq!(markers[0].track, "gpu-comp");
        assert!(markers[0].dur.is_zero());
        assert_eq!(markers[0].stall.unwrap().0, "fault");
    }
}
