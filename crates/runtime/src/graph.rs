//! Declarative stage-graph executor.
//!
//! Historically `run_bigkernel` and the buffered baselines each wove their
//! stage structure into control flow: hand-built [`bk_simcore::PipelineSpec`]s
//! with stringly resource names, an inline `copy_engines >= 2` branch choosing
//! the write-back DMA resource, and their own schedule/record/accumulate
//! loops. This module turns that structure into *data*:
//!
//! * [`ResourceId`] — a typed hardware resource (kind × device index) that
//!   interns to the legacy resource strings, so trace tracks, stall counters
//!   and BENCH output are unchanged on device 0.
//! * [`GraphSpec`] — stages, dependency edges (a DAG, not just a chain),
//!   buffer-reuse edges (§IV.C's `addr-gen(n)` ↔ `compute(n−3)` rule) and
//!   per-resource capacities.
//! * [`schedule_graph`] — forward list scheduling generalized to DAG deps and
//!   multi-unit resources. For a linear chain on unit-capacity resources it
//!   performs the *identical* sequence of exact f64 max/add operations as
//!   [`bk_simcore::pipeline::schedule`], so single-GPU schedules are
//!   bit-identical to the pre-refactor ones (the golden tests in
//!   `crates/apps/tests` hold simcore to be the oracle).
//! * [`Executor`] / [`ShardedSchedule`] — chunk sharding across `N` simulated
//!   GPUs: each device runs an independent copy of the stage graph (its own
//!   DMA engine, GPU queues and host-side worker threads — resources are
//!   qualified `dev<i>.<name>`), chunks are dealt out round-robin or
//!   least-loaded, and reuse depth applies within a device's local chunk
//!   sequence (per-device buffer pools). The wave makespan is the max over
//!   device schedules. Devices are homogeneous ([`crate::Machine`] replicates
//!   device 0's spec), so per-chunk durations are device-independent and
//!   sharding is purely a timing-level decision — functional execution stays
//!   in global chunk order and outputs are bit-identical for any device
//!   count. See DESIGN.md §10.

use crate::pipeline::STAGE_NAMES;
use crate::result::{accumulate_stage_stats, StageStat};
use bk_obs::{device_counter, MetricsRegistry, MAX_DEVICES};
use bk_simcore::pipeline::Slot;
use bk_simcore::{ReuseEdge, ScheduleView, SimTime, SlotMeta, StallKind};
use std::collections::HashMap;

/// The kinds of hardware resources the pipelines schedule onto. One kind ×
/// one device index = one serializing unit (or `capacity` identical units).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// GPU queue running the address-generation mini-kernel.
    GpuAddrGen,
    /// CPU assembly threads gathering scattered data into a chunk.
    CpuAssembly,
    /// Host-to-device DMA engine (also D2H on single-copy-engine GPUs).
    DmaH2D,
    /// Device-to-host DMA engine (only present with `copy_engines >= 2`).
    DmaD2H,
    /// GPU queue running the main computation kernel.
    GpuCompute,
    /// CPU threads applying write-backs to host memory.
    CpuWriteback,
    /// CPU staging/pinning thread (double-buffered baseline).
    CpuStage,
    /// The whole GPU as one queue (baseline granularity).
    Gpu,
    /// The single shared resource of a fully serialized baseline.
    Serial,
}

/// A typed resource identity: which kind of unit, on which simulated device.
///
/// `as_str()` interns to the exact legacy resource vocabulary on device 0
/// (`"gpu-ag"`, `"cpu-asm"`, `"dma"`, `"dma-d2h"`, `"gpu-comp"`, `"cpu-wb"`,
/// `"cpu-stage"`, `"gpu"`, `"serial"`) and to `"dev<i>.<name>"` on devices
/// `1..MAX_DEVICES` — so single-GPU trace/BENCH output is unchanged, and
/// multi-GPU runs get one Perfetto lane per device resource for free.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ResourceId {
    /// Which kind of execution unit.
    pub kind: ResourceKind,
    /// Which simulated device the unit belongs to.
    pub device: usize,
}

impl ResourceId {
    /// A resource of `kind` on `device`.
    pub const fn new(kind: ResourceKind, device: usize) -> Self {
        ResourceId { kind, device }
    }

    /// Same kind of unit on another device.
    pub fn on_device(self, device: usize) -> Self {
        ResourceId { device, ..self }
    }

    /// Interned resource string (see the type docs). Panics past
    /// [`MAX_DEVICES`]; [`crate::Machine::replicate_gpus`] enforces the cap
    /// before any schedule is built.
    pub fn as_str(self) -> &'static str {
        macro_rules! dev_arms {
            ($name:literal, $dev:expr) => {
                match $dev {
                    0 => $name,
                    1 => concat!("dev1.", $name),
                    2 => concat!("dev2.", $name),
                    3 => concat!("dev3.", $name),
                    4 => concat!("dev4.", $name),
                    5 => concat!("dev5.", $name),
                    6 => concat!("dev6.", $name),
                    7 => concat!("dev7.", $name),
                    d => panic!("device index {d} exceeds MAX_DEVICES"),
                }
            };
        }
        match self.kind {
            ResourceKind::GpuAddrGen => dev_arms!("gpu-ag", self.device),
            ResourceKind::CpuAssembly => dev_arms!("cpu-asm", self.device),
            ResourceKind::DmaH2D => dev_arms!("dma", self.device),
            ResourceKind::DmaD2H => dev_arms!("dma-d2h", self.device),
            ResourceKind::GpuCompute => dev_arms!("gpu-comp", self.device),
            ResourceKind::CpuWriteback => dev_arms!("cpu-wb", self.device),
            ResourceKind::CpuStage => dev_arms!("cpu-stage", self.device),
            ResourceKind::Gpu => dev_arms!("gpu", self.device),
            ResourceKind::Serial => dev_arms!("serial", self.device),
        }
    }

    /// Parse an interned resource string (as produced by [`Self::as_str`],
    /// bare or `dev<i>.`-qualified) back into a typed id. The inverse of
    /// `as_str` for every kind × device pair; `None` for anything outside
    /// the vocabulary. The what-if replayer uses this to rebuild a
    /// [`GraphSpec`] from a captured schedule snapshot.
    pub fn parse(s: &str) -> Option<ResourceId> {
        let (device, base) = match s.strip_prefix("dev").and_then(|rest| rest.split_once('.')) {
            Some((d, tail)) => (d.parse::<usize>().ok().filter(|&d| d < MAX_DEVICES)?, tail),
            None => (0, s),
        };
        use ResourceKind::*;
        let kind = match base {
            "gpu-ag" => GpuAddrGen,
            "cpu-asm" => CpuAssembly,
            "dma" => DmaH2D,
            "dma-d2h" => DmaD2H,
            "gpu-comp" => GpuCompute,
            "cpu-wb" => CpuWriteback,
            "cpu-stage" => CpuStage,
            "gpu" => Gpu,
            "serial" => Serial,
            _ => return None,
        };
        Some(ResourceId::new(kind, device))
    }
}

impl std::fmt::Display for ResourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One stage of the graph: a name, the resource it occupies, and the stage
/// indices it depends on (all must be smaller — stages are listed in
/// topological order, which forward list scheduling requires).
#[derive(Clone, Debug)]
pub struct GraphStage {
    /// Stage name as it appears in spans and BENCH output.
    pub name: &'static str,
    /// The execution unit the stage occupies while running.
    pub resource: ResourceId,
    /// Indices of same-chunk stages that must finish first.
    pub deps: Vec<usize>,
}

/// Declarative pipeline description: stages + DAG edges + reuse edges +
/// resource capacities. Built once per configuration; the per-wave work is
/// only [`schedule_graph`] over that wave's durations.
///
/// ```
/// use bk_runtime::graph::{bigkernel_graph, schedule_graph};
/// use bk_simcore::{ScheduleView, SimTime};
///
/// // The paper's 6-stage pipeline, double-buffered, one copy engine.
/// let spec = bigkernel_graph(1, 2);
/// assert_eq!(spec.num_stages(), 6);
///
/// // Schedule three chunks whose stages each take 10 µs: with every
/// // stage on its own resource the pipeline overlaps, so the makespan
/// // is well under the serial 3 × 6 × 10 µs.
/// let per_chunk = vec![SimTime::from_micros(10.0); 6];
/// let sched = schedule_graph(&spec, &[per_chunk.clone(), per_chunk.clone(), per_chunk]);
/// assert!(sched.makespan() < SimTime::from_micros(180.0));
/// ```
#[derive(Clone, Debug)]
pub struct GraphSpec {
    /// The stages in topological order.
    pub stages: Vec<GraphStage>,
    /// Cross-chunk buffer-reuse edges (double/multi-buffering).
    pub reuse: Vec<ReuseEdge>,
    /// Resources with more than one identical unit; absent means capacity 1.
    capacities: Vec<(ResourceId, usize)>,
}

impl GraphSpec {
    /// Build from explicit stages. Panics if any dependency is not an
    /// earlier stage (the list must be a topological order).
    pub fn new(stages: Vec<GraphStage>) -> Self {
        for (i, st) in stages.iter().enumerate() {
            for &d in &st.deps {
                assert!(
                    d < i,
                    "stage {i} ({}) depends on non-earlier stage {d}",
                    st.name
                );
            }
        }
        GraphSpec {
            stages,
            reuse: Vec::new(),
            capacities: Vec::new(),
        }
    }

    /// The common case: a linear chain, each stage depending on the previous.
    pub fn chain(stages: Vec<(&'static str, ResourceId)>) -> Self {
        let stages = stages
            .into_iter()
            .enumerate()
            .map(|(i, (name, resource))| GraphStage {
                name,
                resource,
                deps: if i > 0 { vec![i - 1] } else { Vec::new() },
            })
            .collect();
        GraphSpec {
            stages,
            reuse: Vec::new(),
            capacities: Vec::new(),
        }
    }

    /// Add a buffer-reuse edge: `producer` of chunk `i` waits for `consumer`
    /// of chunk `i − depth` (per-device local chunk sequence when sharded).
    pub fn with_reuse(mut self, producer: usize, consumer: usize, depth: usize) -> Self {
        assert!(producer < self.stages.len(), "producer index out of range");
        assert!(consumer < self.stages.len(), "consumer index out of range");
        assert!(depth > 0, "reuse depth must be >= 1");
        self.reuse.push(ReuseEdge {
            producer,
            consumer,
            depth,
        });
        self
    }

    /// Depth of the reuse edge from `producer` to `consumer`, if one exists.
    /// The autotuner's re-planning hook: it reads the current depth of the
    /// §IV.C edges here before deciding whether (and how far) to deepen them.
    pub fn reuse_depth(&self, producer: usize, consumer: usize) -> Option<usize> {
        self.reuse
            .iter()
            .find(|e| e.producer == producer && e.consumer == consumer)
            .map(|e| e.depth)
    }

    /// Give a resource `n` identical units (e.g. a thread pool). Production
    /// configs all use the default capacity 1 — that is what keeps
    /// [`schedule_graph`] bit-identical to the legacy scheduler; capacities
    /// exist for the property tests and future heterogeneous setups.
    pub fn with_capacity(mut self, resource: ResourceId, n: usize) -> Self {
        assert!(n >= 1, "capacity must be >= 1");
        self.capacities.retain(|(r, _)| *r != resource);
        self.capacities.push((resource, n));
        self
    }

    /// Number of stages per chunk.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    fn capacity_of(&self, resource: ResourceId) -> usize {
        self.capacities
            .iter()
            .find(|(r, _)| *r == resource)
            .map_or(1, |&(_, n)| n)
    }

    /// The same graph with every resource (and capacity entry) moved to
    /// `device` — one independent sub-pipeline per simulated GPU.
    pub fn for_device(&self, device: usize) -> GraphSpec {
        GraphSpec {
            stages: self
                .stages
                .iter()
                .map(|s| GraphStage {
                    name: s.name,
                    resource: s.resource.on_device(device),
                    deps: s.deps.clone(),
                })
                .collect(),
            reuse: self.reuse.clone(),
            capacities: self
                .capacities
                .iter()
                .map(|&(r, n)| (r.on_device(device), n))
                .collect(),
        }
    }
}

/// The BigKernel 6-stage graph (§IV): addr-gen → assemble → transfer →
/// compute → wb-xfer → wb-apply, with the paper's depth-`depth` buffer-reuse
/// edges `addr-gen(n) ↔ compute(n−depth)` and `compute(n) ↔ wb-apply(n−depth)`.
/// On GPUs with a second copy engine the write-back transfer gets its own
/// D2H DMA resource; otherwise it queues on the one engine. Shorthand for the
/// one-pass [`pipeline_graph`] with both reuse edges at `depth`.
pub fn bigkernel_graph(copy_engines: usize, depth: usize) -> GraphSpec {
    pipeline_graph(copy_engines, 1, depth, depth)
}

/// The double-buffered baseline graph: stage-pin → transfer → compute →
/// wb-xfer → wb-apply with `buffers`-deep reuse on the staging and transfer
/// buffers.
pub fn buffered_graph(copy_engines: usize, buffers: usize) -> GraphSpec {
    use ResourceKind::*;
    let wb_dma = if copy_engines >= 2 { DmaD2H } else { DmaH2D };
    GraphSpec::chain(vec![
        ("stage-pin", ResourceId::new(CpuStage, 0)),
        ("transfer", ResourceId::new(DmaH2D, 0)),
        ("compute", ResourceId::new(Gpu, 0)),
        ("wb-xfer", ResourceId::new(wb_dma, 0)),
        ("wb-apply", ResourceId::new(CpuWriteback, 0)),
    ])
    .with_reuse(1, 2, buffers)
    .with_reuse(0, 1, buffers)
}

/// A fully serialized graph: every stage on the one `serial` resource (the
/// single-buffer baseline — no overlap at all).
pub fn serial_graph(names: &[&'static str]) -> GraphSpec {
    GraphSpec::chain(
        names
            .iter()
            .map(|&n| (n, ResourceId::new(ResourceKind::Serial, 0)))
            .collect(),
    )
}

/// Stage names of a multi-pass program's graph: pass `p`'s six pipeline
/// stages, prefixed `p<p>.` so observability can both distinguish passes
/// and strip back to the role name for aggregation. A one-pass program keeps
/// the plain [`STAGE_NAMES`].
pub const FUSED_STAGE_NAMES: [[&str; 6]; 4] = [
    [
        "p0.addr-gen",
        "p0.assemble",
        "p0.transfer",
        "p0.compute",
        "p0.wb-xfer",
        "p0.wb-apply",
    ],
    [
        "p1.addr-gen",
        "p1.assemble",
        "p1.transfer",
        "p1.compute",
        "p1.wb-xfer",
        "p1.wb-apply",
    ],
    [
        "p2.addr-gen",
        "p2.assemble",
        "p2.transfer",
        "p2.compute",
        "p2.wb-xfer",
        "p2.wb-apply",
    ],
    [
        "p3.addr-gen",
        "p3.assemble",
        "p3.transfer",
        "p3.compute",
        "p3.wb-xfer",
        "p3.wb-apply",
    ],
];

/// Per-pass stage names of a `passes`-pass program: [`STAGE_NAMES`] alone
/// for one pass, the `p<i>.`-prefixed rows of [`FUSED_STAGE_NAMES`] for
/// more. Borrowed from the static tables, so building a graph allocates no
/// name list.
fn pass_stage_names(passes: usize) -> &'static [[&'static str; 6]] {
    assert!(
        (1..=FUSED_STAGE_NAMES.len()).contains(&passes),
        "pipeline graph supports 1..=4 passes"
    );
    if passes == 1 {
        std::slice::from_ref(&STAGE_NAMES)
    } else {
        &FUSED_STAGE_NAMES[..passes]
    }
}

/// Flat stage-name list of the `passes`-pass [`pipeline_graph`], in stage
/// order — e.g. for the fault ladder's [`serial_graph`] rung, which keeps
/// the `6 × passes` stage shape.
pub fn pipeline_stage_names(passes: usize) -> Vec<&'static str> {
    pass_stage_names(passes).iter().flatten().copied().collect()
}

/// The BigKernel graph of a `passes`-pass program: `passes` copies of the
/// 6-stage pipeline chained end-to-end per chunk (pass `p`'s addr-gen
/// depends on pass `p−1`'s wb-apply of the *same* chunk — the
/// device-resident intermediate), sharing the one set of hardware resources,
/// with each pass's own §IV.C buffer-reuse edges: `depth` buffer sets on the
/// prefetch-data edge `addr-gen(n) ↔ compute(n−depth)` and `wb_depth` sets on
/// the write-back edge `compute(n) ↔ wb-apply(n−wb_depth)`. The autotuner
/// deepens the two edges independently, because the prefetch and write-back
/// buffer pools are sized (and stall) independently. On GPUs with a second
/// copy engine the write-back transfer gets its own D2H DMA resource;
/// otherwise it queues on the one engine.
///
/// One pass is the paper's plain 6-stage chain under [`STAGE_NAMES`]; more
/// passes form one fused DAG, so a later pass's stages overlap an earlier
/// pass's tail chunks wherever the resources allow.
pub fn pipeline_graph(
    copy_engines: usize,
    passes: usize,
    depth: usize,
    wb_depth: usize,
) -> GraphSpec {
    use ResourceKind::*;
    let wb_dma = if copy_engines >= 2 { DmaD2H } else { DmaH2D };
    let roles = [
        GpuAddrGen,
        CpuAssembly,
        DmaH2D,
        GpuCompute,
        wb_dma,
        CpuWriteback,
    ];
    let per_pass = pass_stage_names(passes);
    let mut chain = Vec::with_capacity(per_pass.len() * 6);
    for names in per_pass {
        for (&name, &kind) in names.iter().zip(&roles) {
            chain.push((name, ResourceId::new(kind, 0)));
        }
    }
    let mut spec = GraphSpec::chain(chain);
    for p in 0..passes {
        spec = spec
            .with_reuse(p * 6, p * 6 + 3, depth)
            .with_reuse(p * 6 + 3, p * 6 + 5, wb_depth);
    }
    spec
}

/// A computed graph schedule; same slot/meta surface as
/// [`bk_simcore::Schedule`] via [`ScheduleView`], plus the graph shape it
/// was scheduled under (deps, reuse edges, capacities) so it satisfies
/// [`bk_obs::critpath::ScheduleDag`] — the critical-path analyzer re-derives
/// each slot's binding predecessor from these.
#[derive(Clone, Debug)]
pub struct GraphSchedule {
    stage_names: Vec<&'static str>,
    resources: Vec<&'static str>,
    deps: Vec<Vec<usize>>,
    reuse: Vec<ReuseEdge>,
    capacities: Vec<(&'static str, usize)>,
    /// `slots[chunk][stage]`
    slots: Vec<Vec<Slot>>,
    meta: Vec<Vec<SlotMeta>>,
    makespan: SimTime,
}

impl ScheduleView for GraphSchedule {
    fn num_chunks(&self) -> usize {
        self.slots.len()
    }
    fn num_stages(&self) -> usize {
        self.stage_names.len()
    }
    fn slot(&self, chunk: usize, stage: usize) -> Slot {
        self.slots[chunk][stage]
    }
    fn stage_name(&self, stage: usize) -> &'static str {
        self.stage_names[stage]
    }
    fn stage_resource(&self, stage: usize) -> &'static str {
        self.resources[stage]
    }
    fn slot_meta(&self, chunk: usize, stage: usize) -> SlotMeta {
        self.meta[chunk][stage]
    }
    fn makespan(&self) -> SimTime {
        self.makespan
    }
}

impl bk_obs::critpath::ScheduleDag for GraphSchedule {
    fn stage_deps(&self, stage: usize) -> &[usize] {
        &self.deps[stage]
    }
    fn reuse_edges(&self) -> &[ReuseEdge] {
        &self.reuse
    }
    fn resource_capacity(&self, resource: &str) -> usize {
        self.capacities
            .iter()
            .find(|&&(r, _)| r == resource)
            .map_or(1, |&(_, n)| n)
    }
}

impl GraphSchedule {
    /// Total stalled time across every slot (feeds `device.<i>.stall_ns`).
    pub fn total_stall(&self) -> SimTime {
        self.meta.iter().flatten().map(|m| m.stall).sum()
    }

    /// Total busy time across every stage.
    pub fn total_busy(&self) -> SimTime {
        (0..self.num_stages()).map(|s| self.stage_busy(s)).sum()
    }
}

/// Compute the schedule for `durations[chunk][stage]` under the graph's
/// dataflow edges, resource capacities and reuse edges.
///
/// Forward list scheduling in (chunk, stage) order, generalized from
/// [`bk_simcore::pipeline::schedule`]:
///
/// * dataflow-ready = max over the stage's dependency finishes (a chain's
///   single dependency reduces to "previous stage of the same chunk");
/// * resource-ready = the earliest-free of the resource's `capacity`
///   identical units (capacity 1 reduces to the legacy single free time —
///   an untouched unit is free at t=0, exactly like an absent entry in the
///   legacy scheduler's map, and `max(x, 0) = x` exactly in f64);
/// * reuse edges and the stall-attribution tie rule (reuse wins ties over
///   resource contention) are verbatim from the legacy scheduler.
///
/// Zero-duration stages neither wait for nor occupy their resource.
pub fn schedule_graph(spec: &GraphSpec, durations: &[Vec<SimTime>]) -> GraphSchedule {
    let ns = spec.num_stages();
    for (i, row) in durations.iter().enumerate() {
        assert_eq!(
            row.len(),
            ns,
            "chunk {i} has wrong number of stage durations"
        );
    }

    let mut resource_free: HashMap<ResourceId, Vec<SimTime>> = HashMap::new();
    let mut slots: Vec<Vec<Slot>> = Vec::with_capacity(durations.len());
    let mut meta: Vec<Vec<SlotMeta>> = Vec::with_capacity(durations.len());

    for (chunk, row) in durations.iter().enumerate() {
        let mut chunk_slots: Vec<Slot> = Vec::with_capacity(ns);
        let mut chunk_meta: Vec<SlotMeta> = Vec::with_capacity(ns);
        for (stage, &dur) in row.iter().enumerate() {
            let mut start = SimTime::ZERO;
            // 1. dataflow: all dependency stages of this chunk must finish.
            let dataflow = spec.stages[stage]
                .deps
                .iter()
                .map(|&d| chunk_slots[d].finish)
                .fold(SimTime::ZERO, SimTime::max);
            start = start.max(dataflow);
            // 2. resource availability: earliest-free unit, in-order issue.
            let res = spec.stages[stage].resource;
            let mut res_ready = SimTime::ZERO;
            let mut unit = 0usize;
            if !dur.is_zero() {
                let free = resource_free
                    .entry(res)
                    .or_insert_with(|| vec![SimTime::ZERO; spec.capacity_of(res)]);
                for (i, &t) in free.iter().enumerate() {
                    if t < free[unit] {
                        unit = i;
                    }
                }
                res_ready = free[unit];
                start = start.max(res_ready);
            }
            // 3. buffer-reuse edges.
            let mut reuse_ready = SimTime::ZERO;
            let mut reuse_consumer = 0usize;
            for e in &spec.reuse {
                if e.producer == stage && chunk >= e.depth {
                    let ready = slots[chunk - e.depth][e.consumer].finish;
                    if ready >= reuse_ready {
                        reuse_ready = ready;
                        reuse_consumer = e.consumer;
                    }
                    start = start.max(ready);
                }
            }
            // Attribute the inter-stage gap to whichever constraint won;
            // reuse takes precedence on ties (see the legacy scheduler).
            let stalled = start.saturating_sub(dataflow);
            let kind = if stalled.is_zero() {
                None
            } else if reuse_ready >= res_ready {
                Some(StallKind::Reuse {
                    consumer: reuse_consumer,
                })
            } else {
                Some(StallKind::Resource(res.as_str()))
            };
            let finish = start + dur;
            if !dur.is_zero() {
                resource_free.get_mut(&res).expect("initialized above")[unit] = finish;
            }
            chunk_slots.push(Slot { start, finish });
            chunk_meta.push(SlotMeta {
                kind,
                stall: stalled,
            });
        }
        slots.push(chunk_slots);
        meta.push(chunk_meta);
    }

    let makespan = slots
        .iter()
        .flat_map(|c| c.iter().map(|s| s.finish))
        .fold(SimTime::ZERO, SimTime::max);

    GraphSchedule {
        stage_names: spec.stages.iter().map(|s| s.name).collect(),
        resources: spec.stages.iter().map(|s| s.resource.as_str()).collect(),
        deps: spec.stages.iter().map(|s| s.deps.clone()).collect(),
        reuse: spec.reuse.clone(),
        capacities: spec
            .capacities
            .iter()
            .map(|&(r, n)| (r.as_str(), n))
            .collect(),
        slots,
        meta,
        makespan,
    }
}

/// How chunks are dealt out across devices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Chunk `c` goes to device `c % N`. With homogeneous devices and
    /// roughly uniform chunk costs this is optimal and keeps per-device
    /// chunk sequences maximally regular (good for the reuse pipeline).
    RoundRobin,
    /// Greedy work-stealing flavour: each chunk (in order) goes to the
    /// device with the least accumulated stage-duration sum; ties go to the
    /// lowest device index. Helps when chunk costs are skewed.
    LeastLoaded,
}

/// Executes a [`GraphSpec`] over `N` simulated devices.
///
/// ```
/// use bk_runtime::graph::{bigkernel_graph, Executor, ShardPolicy};
/// use bk_simcore::SimTime;
///
/// // Shard four equal-cost chunks over two devices, round-robin.
/// let exec = Executor::new(bigkernel_graph(1, 2), 2, ShardPolicy::RoundRobin);
/// let per_chunk = vec![SimTime::from_micros(10.0); 6];
/// let wave = exec.run(&vec![per_chunk; 4]);
///
/// assert_eq!(wave.num_chunks(), 4);
/// assert_eq!(wave.shards().len(), 2);
/// // Each device got every other chunk.
/// assert_eq!(wave.shards()[0].chunk_ids, vec![0, 2]);
/// assert_eq!(wave.shards()[1].chunk_ids, vec![1, 3]);
/// ```
pub struct Executor {
    spec: GraphSpec,
    num_devices: usize,
    policy: ShardPolicy,
}

/// One device's share of a wave: which wave-local chunks it owns (in order)
/// and their schedule on that device's resources.
pub struct Shard {
    /// The device that ran this share.
    pub device: usize,
    /// Wave-local chunk ids owned by the device, in issue order.
    pub chunk_ids: Vec<usize>,
    /// The device-local schedule over those chunks.
    pub sched: GraphSchedule,
}

/// A wave scheduled across all devices. The devices run concurrently, so
/// the wave's makespan is the max over shard makespans.
pub struct ShardedSchedule {
    shards: Vec<Shard>,
    makespan: SimTime,
}

impl Executor {
    /// An executor that shards each wave over `num_devices` copies of
    /// `spec`'s resources according to `policy`.
    pub fn new(spec: GraphSpec, num_devices: usize, policy: ShardPolicy) -> Self {
        assert!(num_devices >= 1, "need at least one device");
        assert!(
            num_devices <= MAX_DEVICES,
            "at most {MAX_DEVICES} simulated devices"
        );
        Executor {
            spec,
            num_devices,
            policy,
        }
    }

    /// How many simulated devices the executor shards over.
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Shard the wave's chunks and schedule each device's share. With one
    /// device this is exactly [`schedule_graph`] over all chunks in order.
    pub fn run(&self, durations: &[Vec<SimTime>]) -> ShardedSchedule {
        let owned = deal_chunks(self.policy, self.num_devices, durations);
        let shards: Vec<Shard> = owned
            .into_iter()
            .enumerate()
            .map(|(device, chunk_ids)| {
                let spec_d = self.spec.for_device(device);
                let rows: Vec<Vec<SimTime>> =
                    chunk_ids.iter().map(|&c| durations[c].clone()).collect();
                let sched = schedule_graph(&spec_d, &rows);
                Shard {
                    device,
                    chunk_ids,
                    sched,
                }
            })
            .collect();
        ShardedSchedule::from_shards(shards)
    }
}

/// Deal wave-local chunks (rows of `durations`) across `n` schedule targets
/// following `policy`. Returns, per target, the owned chunk indices in
/// ascending order. This is the dealing half of [`Executor::run`], split out
/// so the fault-recovery path ([`crate::fault`]) can re-deal a dead device's
/// chunks across the survivors with the same policy.
pub fn deal_chunks(policy: ShardPolicy, n: usize, durations: &[Vec<SimTime>]) -> Vec<Vec<usize>> {
    assert!(n >= 1, "need at least one schedule target");
    let mut owned: Vec<Vec<usize>> = vec![Vec::new(); n];
    match policy {
        ShardPolicy::RoundRobin => {
            for c in 0..durations.len() {
                owned[c % n].push(c);
            }
        }
        ShardPolicy::LeastLoaded => {
            let mut load = vec![SimTime::ZERO; n];
            for (c, row) in durations.iter().enumerate() {
                let weight: SimTime = row.iter().copied().sum();
                let mut dev = 0usize;
                for (d, &l) in load.iter().enumerate() {
                    if l < load[dev] {
                        dev = d;
                    }
                }
                owned[dev].push(c);
                load[dev] += weight;
            }
        }
    }
    owned
}

impl ShardedSchedule {
    /// Assemble a wave from already-scheduled shards (the executor's normal
    /// path and the fault-recovery path both end here). The wave makespan is
    /// the max over shard makespans — devices run concurrently.
    pub fn from_shards(shards: Vec<Shard>) -> ShardedSchedule {
        let makespan = shards
            .iter()
            .map(|s| s.sched.makespan)
            .fold(SimTime::ZERO, SimTime::max);
        ShardedSchedule { shards, makespan }
    }

    /// Wave makespan: the max over the concurrent shard makespans.
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Total chunks scheduled across all shards.
    pub fn num_chunks(&self) -> usize {
        self.shards.iter().map(|s| s.chunk_ids.len()).sum()
    }

    /// The per-device shards, ordered by device id.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Record every shard's spans, stall counters and histograms into the
    /// registry ([`bk_obs::record_schedule_mapped`] maps each shard's local
    /// chunk rows back to run-global chunk ids), plus the per-device
    /// `device.<i>.{chunks, busy_ns, makespan_ns, stall_ns}` counters.
    ///
    /// While a [`bk_obs::critpath::capture`] guard is live, the wave is
    /// additionally snapshot as a [`bk_obs::critpath::WaveDag`] (per-shard
    /// schedules with their graph shape, global chunk ids and this wave's
    /// `time_base`) for post-run critical-path analysis and what-if replay.
    /// Without a guard the check is one thread-local read — no allocation.
    pub fn record(&self, chunk_base: usize, time_base: SimTime, metrics: &mut MetricsRegistry) {
        if bk_obs::critpath::capture_enabled() {
            let shards = self
                .shards
                .iter()
                .map(|shard| {
                    let ids: Vec<usize> = shard.chunk_ids.iter().map(|&c| chunk_base + c).collect();
                    bk_obs::critpath::ShardDag::from_dag(&shard.sched, shard.device, ids)
                })
                .collect();
            bk_obs::critpath::record_wave(bk_obs::critpath::WaveDag {
                pass: bk_obs::critpath::current_pass(),
                time_base,
                shards,
            });
        }
        for shard in &self.shards {
            let ids: Vec<usize> = shard.chunk_ids.iter().map(|&c| chunk_base + c).collect();
            bk_obs::record_schedule_mapped(&shard.sched, &ids, time_base, metrics);
            let add = |metrics: &mut MetricsRegistry, what: &str, v: u64| {
                if let Some(c) = device_counter(shard.device, what) {
                    metrics.add(c, v);
                }
            };
            add(metrics, "chunks", shard.chunk_ids.len() as u64);
            add(metrics, "busy_ns", shard.sched.total_busy().nanos() as u64);
            add(metrics, "makespan_ns", shard.sched.makespan.nanos() as u64);
            add(
                metrics,
                "stall_ns",
                shard.sched.total_stall().nanos() as u64,
            );
        }
    }

    /// Fold every shard's per-stage busy times into the run's stage stats
    /// (all shards share the graph's stage shape, so the accumulator's
    /// shape check holds across devices and waves).
    pub fn accumulate(&self, stats: &mut Vec<StageStat>) {
        for shard in &self.shards {
            accumulate_stage_stats(stats, &shard.sched);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bk_simcore::{pipeline, StageDef};

    fn t(us: f64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn resource_ids_intern_to_the_legacy_vocabulary() {
        use ResourceKind::*;
        for (kind, want) in [
            (GpuAddrGen, "gpu-ag"),
            (CpuAssembly, "cpu-asm"),
            (DmaH2D, "dma"),
            (DmaD2H, "dma-d2h"),
            (GpuCompute, "gpu-comp"),
            (CpuWriteback, "cpu-wb"),
            (CpuStage, "cpu-stage"),
            (Gpu, "gpu"),
            (Serial, "serial"),
        ] {
            assert_eq!(ResourceId::new(kind, 0).as_str(), want);
            assert_eq!(ResourceId::new(kind, 0).to_string(), want);
        }
        assert_eq!(ResourceId::new(GpuCompute, 3).as_str(), "dev3.gpu-comp");
        assert_eq!(ResourceId::new(DmaH2D, 7).to_string(), "dev7.dma");
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_DEVICES")]
    fn resource_id_past_cap_panics() {
        let _ = ResourceId::new(ResourceKind::Gpu, MAX_DEVICES).as_str();
    }

    /// The golden equivalence: a linear unit-capacity graph schedules
    /// bit-identically to the legacy simcore scheduler (slots *and* stall
    /// attribution), for the exact BigKernel shape.
    #[test]
    fn chain_schedule_is_bit_identical_to_simcore() {
        let depth = 3;
        let graph = bigkernel_graph(1, depth);
        let legacy = pipeline::PipelineSpec::new(vec![
            StageDef {
                name: "addr-gen",
                resource: "gpu-ag",
            },
            StageDef {
                name: "assemble",
                resource: "cpu-asm",
            },
            StageDef {
                name: "transfer",
                resource: "dma",
            },
            StageDef {
                name: "compute",
                resource: "gpu-comp",
            },
            StageDef {
                name: "wb-xfer",
                resource: "dma",
            },
            StageDef {
                name: "wb-apply",
                resource: "cpu-wb",
            },
        ])
        .with_reuse(0, 3, depth)
        .with_reuse(3, 5, depth);
        // Irregular durations, including zero-duration write-back rows.
        let durations: Vec<Vec<SimTime>> = (0..20)
            .map(|c| {
                let f = 1.0 + (c as f64 * 0.37).sin().abs();
                let wb = if c % 3 == 0 { 0.0 } else { 0.4 * f };
                vec![
                    t(0.2 * f),
                    t(0.9 * f),
                    t(0.7 * f),
                    t(1.3 * f),
                    t(wb),
                    t(wb * 0.5),
                ]
            })
            .collect();
        let g = schedule_graph(&graph, &durations);
        let s = pipeline::schedule(&legacy, &durations);
        assert_eq!(g.makespan(), ScheduleView::makespan(&s));
        for c in 0..durations.len() {
            for st in 0..6 {
                assert_eq!(
                    g.slot(c, st),
                    pipeline::Schedule::slot(&s, c, st),
                    "c{c} s{st}"
                );
                assert_eq!(
                    g.slot_meta(c, st),
                    pipeline::Schedule::slot_meta(&s, c, st),
                    "c{c} s{st}"
                );
            }
        }
    }

    #[test]
    fn dag_deps_wait_for_all_parents() {
        use ResourceKind::*;
        // Diamond: a → {b, c} → d. b and c run on different resources and
        // overlap; d waits for the slower of the two.
        let spec = GraphSpec::new(vec![
            GraphStage {
                name: "a",
                resource: ResourceId::new(CpuStage, 0),
                deps: vec![],
            },
            GraphStage {
                name: "b",
                resource: ResourceId::new(DmaH2D, 0),
                deps: vec![0],
            },
            GraphStage {
                name: "c",
                resource: ResourceId::new(Gpu, 0),
                deps: vec![0],
            },
            GraphStage {
                name: "d",
                resource: ResourceId::new(CpuWriteback, 0),
                deps: vec![1, 2],
            },
        ]);
        let s = schedule_graph(&spec, &[vec![t(1.0), t(2.0), t(5.0), t(1.0)]]);
        assert_eq!(s.slot(0, 1).start, t(1.0));
        assert_eq!(s.slot(0, 2).start, t(1.0));
        // Compare against the same float op sequence the scheduler performs
        // (t(1.0) + t(5.0) differs from t(6.0) in the last ulp).
        assert_eq!(
            s.slot(0, 3).start,
            t(1.0) + t(5.0),
            "d waits for the slower parent"
        );
        assert_eq!(s.makespan(), t(1.0) + t(5.0) + t(1.0));
    }

    #[test]
    #[should_panic(expected = "non-earlier stage")]
    fn forward_deps_rejected() {
        let _ = GraphSpec::new(vec![GraphStage {
            name: "a",
            resource: ResourceId::new(ResourceKind::Gpu, 0),
            deps: vec![0],
        }]);
    }

    #[test]
    fn capacity_two_overlaps_two_chunks() {
        use ResourceKind::*;
        let res = ResourceId::new(Gpu, 0);
        let spec = GraphSpec::chain(vec![("comp", res)]).with_capacity(res, 2);
        let s = schedule_graph(&spec, &vec![vec![t(4.0)]; 4]);
        // Two units: chunks 0/1 start at 0, chunks 2/3 at 4.
        assert_eq!(s.slot(1, 0).start, SimTime::ZERO);
        assert_eq!(s.slot(2, 0).start, t(4.0));
        assert_eq!(s.makespan(), t(8.0));
    }

    #[test]
    fn round_robin_shards_halve_streaming_makespan() {
        let spec = bigkernel_graph(1, 3);
        let rows = vec![vec![t(0.2), t(0.9), t(0.7), t(1.3), t(0.3), t(0.2)]; 24];
        let one = Executor::new(spec.clone(), 1, ShardPolicy::RoundRobin).run(&rows);
        let two = Executor::new(spec, 2, ShardPolicy::RoundRobin).run(&rows);
        let speedup = one.makespan().secs() / two.makespan().secs();
        assert!(speedup > 1.8, "expected near-2x, got {speedup:.2}x");
        assert_eq!(two.shards().len(), 2);
        assert_eq!(
            two.shards()[0].chunk_ids,
            (0..24).step_by(2).collect::<Vec<_>>()
        );
        assert_eq!(two.num_chunks(), 24);
    }

    #[test]
    fn single_device_executor_matches_schedule_graph_exactly() {
        let spec = bigkernel_graph(2, 3);
        let rows: Vec<Vec<SimTime>> = (0..10)
            .map(|c| {
                (0..6)
                    .map(|s| t(((c * 7 + s * 3) % 11) as f64 * 0.1))
                    .collect()
            })
            .collect();
        let sharded = Executor::new(spec.clone(), 1, ShardPolicy::RoundRobin).run(&rows);
        let direct = schedule_graph(&spec, &rows);
        assert_eq!(sharded.makespan(), direct.makespan());
        let shard = &sharded.shards()[0];
        for c in 0..rows.len() {
            for s in 0..6 {
                assert_eq!(shard.sched.slot(c, s), direct.slot(c, s));
            }
        }
    }

    #[test]
    fn least_loaded_balances_skewed_chunks() {
        // One huge chunk then many small ones: round-robin pins half the
        // small chunks behind the huge one's device; least-loaded doesn't.
        let spec = GraphSpec::chain(vec![("comp", ResourceId::new(ResourceKind::Gpu, 0))]);
        let mut rows = vec![vec![t(100.0)]];
        rows.extend(std::iter::repeat_with(|| vec![t(1.0)]).take(20));
        let rr = Executor::new(spec.clone(), 2, ShardPolicy::RoundRobin).run(&rows);
        let ll = Executor::new(spec, 2, ShardPolicy::LeastLoaded).run(&rows);
        assert!(ll.makespan() < rr.makespan());
        // Ties go to the lowest device: the first chunk lands on device 0.
        assert_eq!(ll.shards()[0].chunk_ids[0], 0);
        // All small chunks avoid the loaded device.
        assert_eq!(ll.shards()[1].chunk_ids.len(), 20);
    }

    #[test]
    fn deal_chunks_least_loaded_tracks_running_load_not_chunk_count() {
        // Alternating heavy/light chunks on 3 targets: the greedy argmin
        // must follow accumulated duration, not deal evenly by count.
        // Weights 9,1,9,1,9,1,9,1 — target 0 takes the first heavy chunk
        // and then stays loaded while 1 and 2 soak up the rest.
        let rows: Vec<Vec<SimTime>> = (0..8)
            .map(|c| vec![t(if c % 2 == 0 { 9.0 } else { 1.0 })])
            .collect();
        let owned = deal_chunks(ShardPolicy::LeastLoaded, 3, &rows);
        // c0(9)->0, c1(1)->1, c2(9)->2, c3(1)->1 (load 2), c4(9)->1 (still
        // the min at 2), c5(1)->0 (9-tie with target 2; lowest index wins),
        // c6(9)->2 (min 9), c7(1)->0 (min 10). Loads end at 11/11/18.
        assert_eq!(owned[0], vec![0, 5, 7]);
        assert_eq!(owned[1], vec![1, 3, 4]);
        assert_eq!(owned[2], vec![2, 6]);
        // Every chunk dealt exactly once, each shard in ascending order.
        let mut all: Vec<usize> = owned.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
        // Resulting loads are near-balanced: 18 / 14 / 10 vs 27 max naive.
        let load = |ids: &Vec<usize>| -> f64 { ids.iter().map(|&c| rows[c][0].secs()).sum() };
        assert!(owned.iter().map(load).fold(0.0, f64::max) <= 18.0);
    }

    #[test]
    fn deal_chunks_least_loaded_with_equal_weights_matches_round_robin() {
        // Uniform chunk costs: ties always go to the lowest-loaded, lowest-
        // index target, which degenerates to the round-robin deal — so the
        // policies only diverge when costs are actually skewed.
        let rows = vec![vec![t(1.0), t(2.0)]; 12];
        let ll = deal_chunks(ShardPolicy::LeastLoaded, 4, &rows);
        let rr = deal_chunks(ShardPolicy::RoundRobin, 4, &rows);
        assert_eq!(ll, rr);
    }

    #[test]
    fn sharded_record_emits_per_device_counters_and_same_stage_totals() {
        let spec = bigkernel_graph(1, 3);
        let rows = vec![vec![t(0.2), t(0.9), t(0.7), t(1.3), t(0.3), t(0.2)]; 8];
        let mut m1 = MetricsRegistry::new();
        Executor::new(spec.clone(), 1, ShardPolicy::RoundRobin)
            .run(&rows)
            .record(0, SimTime::ZERO, &mut m1);
        assert_eq!(m1.get("device.0.chunks"), 8);
        assert!(m1.get("device.0.busy_ns") > 0);
        let mut m2 = MetricsRegistry::new();
        Executor::new(spec, 2, ShardPolicy::RoundRobin)
            .run(&rows)
            .record(0, SimTime::ZERO, &mut m2);
        assert_eq!(m2.get("device.0.chunks") + m2.get("device.1.chunks"), 8);
        // Span histograms aggregate across devices: same population either way.
        assert_eq!(
            m1.hist("hist.span.compute").unwrap().count(),
            m2.hist("hist.span.compute").unwrap().count(),
        );
    }

    #[test]
    #[should_panic(expected = "reuse depth must be >= 1")]
    fn with_reuse_depth_zero_panics() {
        let _ = bigkernel_graph(1, 3).with_reuse(0, 3, 0);
    }

    #[test]
    #[should_panic(expected = "producer index out of range")]
    fn with_reuse_producer_out_of_range_panics() {
        let _ = bigkernel_graph(1, 3).with_reuse(6, 3, 1);
    }

    #[test]
    #[should_panic(expected = "consumer index out of range")]
    fn with_reuse_consumer_out_of_range_panics() {
        let _ = bigkernel_graph(1, 3).with_reuse(0, 6, 1);
    }

    #[test]
    fn reuse_depth_reports_both_bigkernel_edges() {
        let spec = pipeline_graph(1, 1, 4, 7);
        assert_eq!(spec.reuse_depth(0, 3), Some(4));
        assert_eq!(spec.reuse_depth(3, 5), Some(7));
        assert_eq!(spec.reuse_depth(1, 2), None);
        // The single-depth factory keeps both edges in lockstep.
        let legacy = bigkernel_graph(1, 3);
        assert_eq!(legacy.reuse_depth(0, 3), legacy.reuse_depth(3, 5));
    }

    /// Everything scheduling reads from a spec: stage names, resources,
    /// deps, reuse edges.
    type Shape = (
        Vec<(&'static str, &'static str, Vec<usize>)>,
        Vec<(usize, usize, usize)>,
    );

    fn shape(spec: &GraphSpec) -> Shape {
        (
            spec.stages
                .iter()
                .map(|s| (s.name, s.resource.as_str(), s.deps.clone()))
                .collect(),
            spec.reuse
                .iter()
                .map(|e| (e.producer, e.consumer, e.depth))
                .collect(),
        )
    }

    /// A one-pass program is the paper's plain 6-stage chain: the
    /// `STAGE_NAMES` stages on their own resources, write-back DMA on the
    /// second copy engine when there is one, and the two §IV.C reuse edges.
    #[test]
    fn one_pass_pipeline_graph_is_the_plain_six_stage_chain() {
        use ResourceKind::*;
        for (copy_engines, wb_dma) in [(1, DmaH2D), (2, DmaD2H)] {
            for (depth, wb_depth) in [(1, 1), (3, 3), (4, 7)] {
                let resources = [
                    GpuAddrGen,
                    CpuAssembly,
                    DmaH2D,
                    GpuCompute,
                    wb_dma,
                    CpuWriteback,
                ];
                let expected = GraphSpec::chain(
                    STAGE_NAMES
                        .iter()
                        .zip(resources)
                        .map(|(&n, k)| (n, ResourceId::new(k, 0)))
                        .collect(),
                )
                .with_reuse(0, 3, depth)
                .with_reuse(3, 5, wb_depth);
                let spec = pipeline_graph(copy_engines, 1, depth, wb_depth);
                assert_eq!(shape(&spec), shape(&expected));
                let rows = vec![vec![t(0.2), t(0.9), t(0.7), t(1.3), t(0.3), t(0.2)]; 10];
                let (a, b) = (
                    schedule_graph(&spec, &rows),
                    schedule_graph(&expected, &rows),
                );
                for c in 0..rows.len() {
                    for s in 0..6 {
                        assert_eq!(a.slot(c, s), b.slot(c, s));
                        assert_eq!(a.slot_meta(c, s), b.slot_meta(c, s));
                    }
                }
            }
        }
        // The fault ladder's serial rung over one pass is the plain one.
        assert_eq!(
            shape(&serial_graph(&pipeline_stage_names(1))),
            shape(&serial_graph(&STAGE_NAMES))
        );
    }

    /// Two to four passes chain `p<i>.`-named copies of the six stages on
    /// the shared resources, each pass with its own reuse edges.
    #[test]
    fn multi_pass_pipeline_graph_keeps_pass_names_and_per_pass_reuse() {
        for passes in 2..=4 {
            let spec = pipeline_graph(2, passes, 3, 5);
            let single = pipeline_graph(2, 1, 3, 5);
            assert_eq!(spec.num_stages(), 6 * passes);
            for (i, st) in spec.stages.iter().enumerate() {
                let (p, role) = (i / 6, i % 6);
                assert_eq!(st.name, format!("p{p}.{}", STAGE_NAMES[role]));
                assert_eq!(st.resource, single.stages[role].resource);
                assert_eq!(st.deps, if i > 0 { vec![i - 1] } else { Vec::new() });
            }
            let expected: Vec<(usize, usize, usize)> = (0..passes)
                .flat_map(|p| [(p * 6, p * 6 + 3, 3), (p * 6 + 3, p * 6 + 5, 5)])
                .collect();
            assert_eq!(shape(&spec).1, expected);
            let serial = serial_graph(&pipeline_stage_names(passes));
            assert_eq!(serial.num_stages(), 6 * passes);
            assert!(serial
                .stages
                .iter()
                .zip(&spec.stages)
                .all(|(a, b)| a.name == b.name && a.resource.kind == ResourceKind::Serial));
        }
    }

    #[test]
    #[should_panic(expected = "1..=4 passes")]
    fn pipeline_graph_rejects_five_passes() {
        let _ = pipeline_graph(1, 5, 3, 3);
    }

    #[test]
    fn chain_critical_path_is_sum_of_stage_costs() {
        // Golden: a single-chunk linear chain has exactly one possible
        // critical path — every stage, back to back, no waits — so the
        // reconstructed path must equal the sum of stage costs.
        use bk_obs::critpath::{boundary_ns, critical_path, path_sum_ns, EdgeKind};
        let spec = GraphSpec::chain(vec![
            ("ag", ResourceId::new(ResourceKind::GpuAddrGen, 0)),
            ("asm", ResourceId::new(ResourceKind::CpuAssembly, 0)),
            ("xfer", ResourceId::new(ResourceKind::DmaH2D, 0)),
        ]);
        let rows = vec![vec![t(0.5), t(1.25), t(0.25)]];
        let s = schedule_graph(&spec, &rows);
        assert_eq!(s.makespan(), t(2.0));
        let segs = critical_path(&s);
        assert_eq!(segs.len(), 3);
        assert_eq!(path_sum_ns(&segs), boundary_ns(s.makespan()));
        for (i, seg) in segs.iter().enumerate() {
            assert_eq!(seg.stage, i);
            assert_eq!(seg.chunk, 0);
            assert!(seg.wait.is_zero());
            if i == 0 {
                assert_eq!(seg.entered, EdgeKind::Start);
            } else {
                assert_eq!(seg.entered, EdgeKind::Dataflow);
            }
        }
    }

    #[test]
    fn sharded_accumulate_preserves_stage_shape_and_totals() {
        let spec = bigkernel_graph(1, 3);
        let rows = vec![vec![t(0.2), t(0.9), t(0.7), t(1.3), t(0.3), t(0.2)]; 12];
        let mut one = Vec::new();
        Executor::new(spec.clone(), 1, ShardPolicy::RoundRobin)
            .run(&rows)
            .accumulate(&mut one);
        let mut two = Vec::new();
        Executor::new(spec, 3, ShardPolicy::RoundRobin)
            .run(&rows)
            .accumulate(&mut two);
        assert_eq!(one.len(), 6);
        assert_eq!(two.len(), 6);
        for (a, b) in one.iter().zip(&two) {
            assert_eq!(a.name, b.name);
            // Durations partition across shards, so busy totals match.
            assert!((a.busy.secs() - b.busy.secs()).abs() < 1e-9);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use bk_simcore::pipeline;
    use bk_simcore::StageDef;
    use proptest::prelude::*;

    fn t_us(us: u32) -> SimTime {
        SimTime::from_micros(us as f64)
    }

    /// Random durations for `stages` stages.
    fn arb_durations(max_chunks: usize, stages: usize) -> impl Strategy<Value = Vec<Vec<SimTime>>> {
        proptest::collection::vec(
            proptest::collection::vec(0u32..1000, stages)
                .prop_map(|row| row.into_iter().map(t_us).collect()),
            1..max_chunks,
        )
    }

    /// A random DAG over `n` stages: each stage depends on a random subset
    /// of earlier stages and occupies one of four resources, each with a
    /// random capacity in 1..=3.
    fn arb_dag(n: usize) -> impl Strategy<Value = GraphSpec> {
        use ResourceKind::*;
        let kinds = [DmaH2D, Gpu, CpuStage, CpuWriteback];
        (
            proptest::collection::vec(
                (
                    0u8..4,
                    proptest::collection::vec(proptest::arbitrary::any::<bool>(), n),
                ),
                n,
            ),
            proptest::collection::vec(1usize..=3, 4),
        )
            .prop_map(move |(stage_rows, caps)| {
                let stages = stage_rows
                    .into_iter()
                    .enumerate()
                    .map(|(i, (k, dep_bits))| GraphStage {
                        name: "s",
                        resource: ResourceId::new(kinds[k as usize % 4], 0),
                        deps: dep_bits
                            .into_iter()
                            .take(i)
                            .enumerate()
                            .filter_map(|(d, b)| b.then_some(d))
                            .collect(),
                    })
                    .collect();
                let mut spec = GraphSpec::new(stages);
                for (kind, cap) in kinds.iter().zip(caps) {
                    spec = spec.with_capacity(ResourceId::new(*kind, 0), cap);
                }
                spec
            })
    }

    proptest! {
        /// Equivalence with the legacy scheduler on random linear chains
        /// with random reuse depth — the property behind the 1-GPU golden
        /// guarantee.
        #[test]
        fn chain_matches_simcore(d in arb_durations(30, 4), depth in 1usize..5) {
            use ResourceKind::*;
            let graph = GraphSpec::chain(vec![
                ("ag", ResourceId::new(GpuAddrGen, 0)),
                ("asm", ResourceId::new(CpuAssembly, 0)),
                ("xfer", ResourceId::new(DmaH2D, 0)),
                ("comp", ResourceId::new(GpuCompute, 0)),
            ])
            .with_reuse(0, 3, depth);
            let legacy = pipeline::PipelineSpec::new(vec![
                StageDef { name: "ag", resource: "gpu-ag" },
                StageDef { name: "asm", resource: "cpu-asm" },
                StageDef { name: "xfer", resource: "dma" },
                StageDef { name: "comp", resource: "gpu-comp" },
            ])
            .with_reuse(0, 3, depth);
            let g = schedule_graph(&graph, &d);
            let s = pipeline::schedule(&legacy, &d);
            prop_assert_eq!(g.makespan(), ScheduleView::makespan(&s));
            for c in 0..d.len() {
                for st in 0..4 {
                    prop_assert_eq!(g.slot(c, st), pipeline::Schedule::slot(&s, c, st));
                    prop_assert_eq!(
                        g.slot_meta(c, st),
                        pipeline::Schedule::slot_meta(&s, c, st)
                    );
                }
            }
        }

        /// Random DAGs with random capacities: a resource with capacity `k`
        /// never has more than `k` spans in flight at once — in particular,
        /// two spans never overlap on a unit-capacity resource.
        #[test]
        fn dag_capacity_is_never_exceeded(
            spec in arb_dag(5),
            d in arb_durations(20, 5),
        ) {
            let s = schedule_graph(&spec, &d);
            // Group busy intervals by resource.
            let mut by_res: std::collections::HashMap<ResourceId, Vec<(SimTime, SimTime)>> =
                std::collections::HashMap::new();
            for c in 0..s.num_chunks() {
                for st in 0..s.num_stages() {
                    let slot = s.slot(c, st);
                    if !slot.duration().is_zero() {
                        by_res
                            .entry(spec.stages[st].resource)
                            .or_default()
                            .push((slot.start, slot.finish));
                    }
                }
            }
            for (res, mut iv) in by_res {
                let cap = spec.capacity_of(res);
                // Sweep: +1 at start, -1 at finish; finishes drain before
                // coincident starts (back-to-back slots don't overlap).
                let mut events: Vec<(SimTime, i32)> = Vec::new();
                for (a, b) in iv.drain(..) {
                    events.push((a, 1));
                    events.push((b, -1));
                }
                events.sort_by(|x, y| {
                    x.0.partial_cmp(&y.0).unwrap().then(x.1.cmp(&y.1))
                });
                let mut in_flight = 0i32;
                for (_, delta) in events {
                    in_flight += delta;
                    prop_assert!(
                        in_flight <= cap as i32,
                        "{} spans in flight on {} (capacity {cap})",
                        in_flight,
                        res.as_str(),
                    );
                }
            }
        }

        /// DAG slots are causal: every slot starts at or after each of its
        /// dependencies' finishes.
        #[test]
        fn dag_slots_are_causal(spec in arb_dag(5), d in arb_durations(20, 5)) {
            let s = schedule_graph(&spec, &d);
            for c in 0..s.num_chunks() {
                for st in 0..s.num_stages() {
                    for &dep in &spec.stages[st].deps {
                        prop_assert!(s.slot(c, st).start >= s.slot(c, dep).finish);
                    }
                }
            }
        }

        /// Reuse edges are never violated: for any depths >= 1 on the two
        /// BigKernel edges and any durations (zero-duration slots included),
        /// `producer(c)` never starts before `consumer(c − depth)` finishes.
        /// Generalizes the random-DAG capacity proptest to the §IV.C rule
        /// the autotuner re-plans.
        #[test]
        fn schedule_never_violates_reuse_edges(
            d in arb_durations(30, 6),
            depth in 1usize..8,
            wb_depth in 1usize..8,
            copy_engines in 1usize..=2,
        ) {
            let spec = pipeline_graph(copy_engines, 1, depth, wb_depth);
            let s = schedule_graph(&spec, &d);
            for e in &spec.reuse {
                for c in e.depth..s.num_chunks() {
                    prop_assert!(
                        s.slot(c, e.producer).start >= s.slot(c - e.depth, e.consumer).finish,
                        "reuse edge {}→{} depth {} violated at chunk {c}",
                        e.producer, e.consumer, e.depth,
                    );
                }
            }
        }

        /// Critical-path reconstruction over random DAGs: the path tiles
        /// the makespan exactly in integer nanoseconds, segments abut, and
        /// the makespan dominates every resource's busy time divided by its
        /// capacity — for unit-capacity resources that's the classic
        /// single-resource lower bound on any schedule.
        #[test]
        fn critical_path_tiles_random_dags(
            spec in arb_dag(5),
            d in arb_durations(20, 5),
        ) {
            use bk_obs::critpath::{boundary_ns, critical_path, path_sum_ns};
            let s = schedule_graph(&spec, &d);
            let segs = critical_path(&s);
            prop_assert!(!segs.is_empty());
            prop_assert_eq!(path_sum_ns(&segs), boundary_ns(s.makespan()));
            prop_assert!(segs[0].start.is_zero());
            prop_assert_eq!(segs.last().unwrap().finish, s.makespan());
            for w in segs.windows(2) {
                prop_assert_eq!(w[1].start, w[0].finish);
            }
            // Path length never exceeds the makespan (it tiles it), and the
            // makespan itself is bounded below by busy/capacity per resource.
            let path_secs: f64 =
                segs.iter().map(|g| g.finish.secs() - g.start.secs()).sum();
            prop_assert!(path_secs <= s.makespan().secs() + 1e-9);
            let mut busy: std::collections::HashMap<ResourceId, f64> =
                std::collections::HashMap::new();
            for c in 0..s.num_chunks() {
                for st in 0..s.num_stages() {
                    *busy.entry(spec.stages[st].resource).or_default() +=
                        s.slot(c, st).duration().secs();
                }
            }
            for (res, total) in busy {
                let cap = spec.capacity_of(res) as f64;
                prop_assert!(
                    s.makespan().secs() + 1e-9 >= total / cap,
                    "makespan below busy/capacity bound for {}",
                    res.as_str(),
                );
            }
        }

        /// Sharding partitions chunks: every chunk appears exactly once
        /// across shards, for both policies and any device count.
        #[test]
        fn sharding_partitions_chunks(
            d in arb_durations(40, 2),
            n in 1usize..=4,
            least_loaded in proptest::arbitrary::any::<bool>(),
        ) {
            use ResourceKind::*;
            let spec = GraphSpec::chain(vec![
                ("xfer", ResourceId::new(DmaH2D, 0)),
                ("comp", ResourceId::new(Gpu, 0)),
            ]);
            let policy =
                if least_loaded { ShardPolicy::LeastLoaded } else { ShardPolicy::RoundRobin };
            let sharded = Executor::new(spec, n, policy).run(&d);
            let mut seen = vec![false; d.len()];
            for shard in sharded.shards() {
                prop_assert!(shard.device < n);
                for &c in &shard.chunk_ids {
                    prop_assert!(!seen[c], "chunk {c} scheduled twice");
                    seen[c] = true;
                }
                // Within a shard, chunks stay in global order.
                for w in shard.chunk_ids.windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
            }
            prop_assert!(seen.into_iter().all(|b| b));
        }
    }
}
