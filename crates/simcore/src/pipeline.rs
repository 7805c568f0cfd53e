//! The stage-graph vocabulary and the pipeline scheduler.
//!
//! BigKernel's execution is a software pipeline over *chunks* of the streamed
//! data: address generation (GPU), data assembly (CPU), data transfer (DMA),
//! computation (GPU), plus two optional write-back stages. The baselines are
//! shallower pipelines over the same chunks (single buffering is a pipeline
//! with no overlap at all). A [`GraphSpec`] describes one such pipeline as
//! data: its [`GraphStage`]s in topological order, each on a typed hardware
//! [`ResourceId`] (a [`ResourceKind`] on one simulated device), their
//! same-chunk dependency edges, the cross-chunk [`ReuseEdge`]s and the
//! resources with more than one identical unit. [`ResourceKind::name`] is
//! the one spelling of each kind; `bk_obs::names::resource` composes the
//! `dev<i>.` prefix where traces and metrics are written.
//!
//! Scheduling computes, given per-chunk per-stage durations, when each
//! stage instance starts and finishes, subject to:
//!
//! 1. **Dataflow**: a stage of chunk `i` starts after its dependencies
//!    (on a chain, the previous stage) of chunk `i` finish.
//! 2. **Resource exclusivity**: stages mapped to the same resource (e.g. the
//!    one DMA engine, or the CPU assembly thread) serialize; chunks are
//!    issued in order per resource.
//! 3. **Buffer reuse**: a [`ReuseEdge`] `(producer, consumer, depth)` says
//!    stage `producer` of chunk `i` may not *start* before stage `consumer`
//!    of chunk `i - depth` has finished — this encodes the paper's rule that
//!    address generation of iteration `n` synchronizes with the computation
//!    threads of iteration `n - 3` (§IV.C), i.e. triple buffering.
//!
//! [`schedule`] computes this by forward list scheduling in (chunk, stage)
//! order, which is exact for in-order pipelines of this shape, over DAG
//! dependencies and multi-unit resources. It is the one scheduler: runs
//! shard a wave over simulated devices with [`deal`] and
//! [`schedule_shards`], which solve each device's share the same way on
//! that device's copy of the graph. Each result is a [`Schedule`] holding
//! the spec it was solved under and, per slot, the predecessor whose finish
//! set its start, so the critical-path walk and the what-if replayer read
//! everything from the value alone.

use crate::time::SimTime;
use std::collections::HashMap;
use std::sync::Arc;

#[doc(hidden)]
pub mod oracle;

/// The kinds of hardware unit the pipelines schedule onto. One kind × one
/// device index = one serializing unit (or `capacity` identical units).
///
/// Declared in trace lane order: a device's Perfetto lanes list its
/// resources in this order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// GPU queue running the address-generation mini-kernel.
    GpuAddrGen,
    /// CPU assembly threads gathering scattered data into a chunk.
    CpuAssembly,
    /// Host-to-device DMA engine (also D2H on single-copy-engine GPUs).
    DmaH2D,
    /// GPU queue running the main computation kernel.
    GpuCompute,
    /// Device-to-host DMA engine (only present with `copy_engines >= 2`).
    DmaD2H,
    /// CPU threads applying write-backs to host memory.
    CpuWriteback,
    /// CPU staging/pinning thread (double-buffered baseline).
    CpuStage,
    /// The whole GPU as one queue (baseline granularity).
    Gpu,
    /// The single shared resource of a fully serialized baseline.
    Serial,
}

impl ResourceKind {
    /// Every kind, in declaration (lane) order.
    pub const ALL: [ResourceKind; 9] = [
        ResourceKind::GpuAddrGen,
        ResourceKind::CpuAssembly,
        ResourceKind::DmaH2D,
        ResourceKind::GpuCompute,
        ResourceKind::DmaD2H,
        ResourceKind::CpuWriteback,
        ResourceKind::CpuStage,
        ResourceKind::Gpu,
        ResourceKind::Serial,
    ];

    /// The kind's spelling in trace tracks and critical-path blame keys.
    pub fn name(self) -> &'static str {
        match self {
            ResourceKind::GpuAddrGen => "gpu-ag",
            ResourceKind::CpuAssembly => "cpu-asm",
            ResourceKind::DmaH2D => "dma",
            ResourceKind::GpuCompute => "gpu-comp",
            ResourceKind::DmaD2H => "dma-d2h",
            ResourceKind::CpuWriteback => "cpu-wb",
            ResourceKind::CpuStage => "cpu-stage",
            ResourceKind::Gpu => "gpu",
            ResourceKind::Serial => "serial",
        }
    }
}

/// A typed resource identity: which kind of unit, on which simulated device.
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
}

/// One stage of the graph: a name, the resource it occupies, and the stage
/// indices it depends on (all must be smaller — stages are listed in
/// topological order, which forward list scheduling requires).
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStage {
    /// Stage name as it appears in spans and BENCH output.
    pub name: &'static str,
    /// The execution unit the stage occupies while running.
    pub resource: ResourceId,
    /// Indices of same-chunk stages that must finish first.
    pub deps: Vec<usize>,
}

/// Buffer-reuse dependency: `producer` of chunk `i` waits for `consumer` of
/// chunk `i - depth`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReuseEdge {
    pub producer: usize,
    pub consumer: usize,
    pub depth: usize,
}

/// Declarative pipeline description: stages + DAG edges + reuse edges +
/// resource capacities. Built once per configuration; the per-wave work is
/// only scheduling that wave's durations.
///
/// ```
/// use bk_simcore::pipeline::{self, GraphSpec, ResourceId, ResourceKind};
/// use bk_simcore::{ScheduleView, SimTime};
///
/// // Transfer and compute on their own resources, double-buffered.
/// let spec = GraphSpec::chain(vec![
///     ("transfer", ResourceId::new(ResourceKind::DmaH2D, 0)),
///     ("compute", ResourceId::new(ResourceKind::GpuCompute, 0)),
/// ])
/// .with_reuse(0, 1, 2);
/// assert_eq!(spec.num_stages(), 2);
///
/// // Three chunks whose stages each take 10 µs overlap: the makespan is
/// // well under the serial 3 × 2 × 10 µs.
/// let per_chunk = vec![SimTime::from_micros(10.0); 2];
/// let sched = pipeline::schedule(spec, &vec![per_chunk; 3]);
/// assert!(sched.makespan() < SimTime::from_micros(60.0));
/// ```
#[derive(Clone, Debug, PartialEq)]
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
                deps: i.checked_sub(1).into_iter().collect(),
            })
            .collect();
        GraphSpec::new(stages)
    }

    /// Add a buffer-reuse edge: `producer` of chunk `i` waits for `consumer`
    /// of chunk `i − depth` (per-device local chunk sequence when sharded).
    /// Panics if a stage index is out of range or the depth is zero (a
    /// zero-depth edge would deadlock the chunk on itself).
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

    /// Depth of the reuse edge from `producer` to `consumer`, if one exists:
    /// how many buffer sets the §IV.C rule on that edge allows in flight.
    pub fn reuse_depth(&self, producer: usize, consumer: usize) -> Option<usize> {
        self.reuse
            .iter()
            .find(|e| e.producer == producer && e.consumer == consumer)
            .map(|e| e.depth)
    }

    /// Give a resource `n` identical units (e.g. a thread pool). Production
    /// configs all use the default capacity 1; capacities exist for the
    /// property tests and future heterogeneous setups.
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

    /// Number of identical units of `resource` (1 when not listed).
    pub fn capacity(&self, resource: ResourceId) -> usize {
        self.capacities
            .iter()
            .find(|&&(r, _)| r == resource)
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
                    resource: s.resource.on_device(device),
                    ..s.clone()
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

/// One scheduled stage instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Slot {
    pub start: SimTime,
    pub finish: SimTime,
}

impl Slot {
    pub fn duration(&self) -> SimTime {
        self.finish.saturating_sub(self.start)
    }
}

/// The scheduling constraint that delayed a slot past its dataflow-ready
/// time (the finish of the previous stage of the same chunk).
///
/// A slot's start is `max(dataflow, resource, reuse)`; when the winner is
/// not the dataflow edge, the slot *stalled* — the pipeline itself (not the
/// chunk's own critical path) held it back. That gap is what the paper's
/// §IV.C synchronization machinery (flags over PCIe, `bar.red` barriers)
/// spends its time waiting on, so attributing it is the core of the
/// observability layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallKind {
    /// Waiting for the stage's resource (DMA engine, CPU assembly thread,
    /// GPU queue...) to drain earlier chunks — in-order issue contention.
    Resource(ResourceId),
    /// Waiting on a buffer-reuse edge: the named consumer stage of chunk
    /// `i - depth` had not released the buffer (the `addr-gen(n)` waits for
    /// `compute(n-3)` rule, implemented by flag signalling in the paper).
    Reuse {
        /// Consumer stage index of the winning [`ReuseEdge`].
        consumer: usize,
    },
}

/// Stall attribution for one slot: why it started late, by how much, and
/// which slot's finish set its start.
/// `kind` is `None` exactly when the slot started the moment its dataflow
/// predecessor finished (no inter-stage gap).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SlotMeta {
    pub kind: Option<StallKind>,
    /// Gap between the dataflow-ready time and the actual start.
    pub stall: SimTime,
    /// The binding predecessor, as `(row, stage)` of the same schedule: the
    /// dependency of the same row when `kind` is `None`, the previous
    /// occupant of the unit for [`StallKind::Resource`], and the consumer of
    /// row `row − depth` for [`StallKind::Reuse`]. Its finish equals this
    /// slot's start bit-exactly. `None` exactly when the slot started at 0.
    pub pred: Option<(usize, usize)>,
}

/// A solved schedule: one slot per (chunk, stage), plus the device-mapped
/// graph it was solved under, shared with every other schedule solved on
/// that device's copy of the graph.
///
/// [`schedule`] and [`schedule_shards`] (one per device's shard of a wave)
/// produce it; a critical-path capture is a clone of a shard with
/// run-global chunk ids.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// The simulated device whose resources the stages ran on.
    pub device: usize,
    /// Chunk id of each row: `0..n` from [`schedule`], the wave-local ids a
    /// device owns in a shard, run-global ids in a capture.
    pub chunk_ids: Vec<usize>,
    /// The graph the slots were solved under, its resources on `device`.
    pub spec: Arc<GraphSpec>,
    /// `slots[chunk][stage]`
    pub slots: Vec<Vec<Slot>>,
    /// `meta[chunk][stage]`, parallel to `slots`.
    pub meta: Vec<Vec<SlotMeta>>,
    /// Time from t=0 to the last finish.
    pub makespan: SimTime,
}

impl Schedule {
    /// The schedule of `spec` on `device` with rows `chunk_ids`: the solved
    /// `slots` and `meta`, with the last finish as the makespan.
    pub fn solved(
        spec: Arc<GraphSpec>,
        device: usize,
        chunk_ids: Vec<usize>,
        slots: Vec<Vec<Slot>>,
        meta: Vec<Vec<SlotMeta>>,
    ) -> Schedule {
        let makespan = slots
            .iter()
            .flatten()
            .map(|s| s.finish)
            .fold(SimTime::ZERO, SimTime::max);
        Schedule {
            device,
            chunk_ids,
            spec,
            slots,
            meta,
            makespan,
        }
    }

    /// Total stalled time across every slot (feeds `device.<i>.stall_ns`).
    pub fn total_stall(&self) -> SimTime {
        self.meta.iter().flatten().map(|m| m.stall).sum()
    }

    /// Total busy time across every stage.
    pub fn total_busy(&self) -> SimTime {
        (0..self.num_stages()).map(|s| self.stage_busy(s)).sum()
    }
}

/// Read-only accessors of a [`Schedule`]. Observability, stage-stat
/// accumulation and reports read schedules through these.
pub trait ScheduleView {
    fn num_chunks(&self) -> usize;
    fn num_stages(&self) -> usize;
    fn slot(&self, chunk: usize, stage: usize) -> Slot;
    fn stage_name(&self, stage: usize) -> &'static str;
    /// Resource the stage was mapped to (one trace track per resource).
    fn stage_resource(&self, stage: usize) -> ResourceId;
    fn slot_meta(&self, chunk: usize, stage: usize) -> SlotMeta;
    /// Total time from the first stage start (t=0) to the last finish.
    fn makespan(&self) -> SimTime;

    /// Total busy time of a stage across all chunks.
    fn stage_busy(&self, stage: usize) -> SimTime {
        (0..self.num_chunks())
            .map(|c| self.slot(c, stage).duration())
            .sum()
    }
}

impl ScheduleView for Schedule {
    fn num_chunks(&self) -> usize {
        self.slots.len()
    }
    fn num_stages(&self) -> usize {
        self.spec.num_stages()
    }
    fn slot(&self, chunk: usize, stage: usize) -> Slot {
        self.slots[chunk][stage]
    }
    fn stage_name(&self, stage: usize) -> &'static str {
        self.spec.stages[stage].name
    }
    fn stage_resource(&self, stage: usize) -> ResourceId {
        self.spec.stages[stage].resource
    }
    fn slot_meta(&self, chunk: usize, stage: usize) -> SlotMeta {
        self.meta[chunk][stage]
    }
    fn makespan(&self) -> SimTime {
        self.makespan
    }
}

/// Compute the device-0 schedule of `spec` for `durations[chunk][stage]`,
/// with chunk rows `0..n`.
///
/// ```
/// use bk_simcore::pipeline::{self, GraphSpec, ResourceId, ResourceKind};
/// use bk_simcore::{ScheduleView, SimTime};
///
/// // Two stages on separate resources: transfers overlap computation.
/// let spec = GraphSpec::chain(vec![
///     ("xfer", ResourceId::new(ResourceKind::DmaH2D, 0)),
///     ("comp", ResourceId::new(ResourceKind::Gpu, 0)),
/// ]);
/// let per_chunk = vec![SimTime::from_micros(10.0), SimTime::from_micros(10.0)];
/// let s = pipeline::schedule(spec, &vec![per_chunk; 4]);
/// // Fill (10us) + 4 overlapped chunks (40us):
/// assert!((s.makespan().micros() - 50.0).abs() < 1e-9);
/// ```
///
/// Panics if any chunk row has a different number of stages than the spec.
pub fn schedule(spec: impl Into<Arc<GraphSpec>>, durations: &[Vec<SimTime>]) -> Schedule {
    solve(spec.into(), 0, (0..durations.len()).collect(), durations)
}

/// Deal `chunks` wave-local chunk rows round-robin across the `targets`
/// devices: chunk `c` goes to `targets[c % n]`. With homogeneous devices
/// and roughly uniform chunk costs this keeps per-device chunk sequences
/// maximally regular (good for the reuse pipeline). Returns each target
/// with its owned rows in ascending order.
pub fn deal(targets: Vec<usize>, chunks: usize) -> Vec<(usize, Vec<usize>)> {
    assert!(!targets.is_empty(), "need at least one schedule target");
    let n = targets.len();
    let mut shares: Vec<(usize, Vec<usize>)> =
        targets.into_iter().map(|d| (d, Vec::new())).collect();
    for c in 0..chunks {
        shares[c % n].1.push(c);
    }
    shares
}

/// Schedule each device's share of a wave: device `d` runs the rows `ids`
/// of `durations`, in order, on `specs[d]` (the graph moved to device `d`;
/// every shard on a device shares it). Reuse depth therefore applies
/// within a device's local chunk sequence (per-device buffer pools).
pub fn schedule_shards(
    specs: &[Arc<GraphSpec>],
    shares: Vec<(usize, Vec<usize>)>,
    durations: &[Vec<SimTime>],
) -> Vec<Schedule> {
    shares
        .into_iter()
        .map(|(device, ids)| solve(Arc::clone(&specs[device]), device, ids, durations))
        .collect()
}

/// Forward list scheduling of the rows `chunk_ids` of `durations`, in
/// (row, stage) order:
///
/// * dataflow-ready = max over the stage's dependency finishes (a chain's
///   single dependency reduces to "previous stage of the same chunk");
/// * resource-ready = the earliest-free of the resource's `capacity`
///   identical units (an untouched unit is free at t=0, and
///   `max(x, 0) = x` exactly in f64); zero-duration stages neither wait
///   for nor occupy their resource (an absent write-back must not delay
///   the DMA engine);
/// * reuse-ready = max over the stage's reuse edges of the consumer's
///   finish `depth` rows back.
///
/// The start is the exact f64 `max` of the three, so it equals the finish
/// of the slot recorded as [`SlotMeta::pred`].
fn solve(
    spec: Arc<GraphSpec>,
    device: usize,
    chunk_ids: Vec<usize>,
    durations: &[Vec<SimTime>],
) -> Schedule {
    let ns = spec.num_stages();
    // Per resource: each unit's free time and the slot that occupied it.
    type Unit = (SimTime, Option<(usize, usize)>);
    let mut resource_free: HashMap<ResourceId, Vec<Unit>> = HashMap::new();
    let mut slots: Vec<Vec<Slot>> = Vec::with_capacity(chunk_ids.len());
    let mut meta: Vec<Vec<SlotMeta>> = Vec::with_capacity(chunk_ids.len());

    for (chunk, &id) in chunk_ids.iter().enumerate() {
        let row = &durations[id];
        assert_eq!(
            row.len(),
            ns,
            "chunk {id} has wrong number of stage durations"
        );
        let mut chunk_slots: Vec<Slot> = Vec::with_capacity(ns);
        let mut chunk_meta: Vec<SlotMeta> = Vec::with_capacity(ns);
        for (stage, &dur) in row.iter().enumerate() {
            let st = &spec.stages[stage];
            let mut start = SimTime::ZERO;
            // 1. dataflow: all dependency stages of this chunk must finish.
            let dataflow = st
                .deps
                .iter()
                .map(|&d| chunk_slots[d].finish)
                .fold(SimTime::ZERO, SimTime::max);
            start = start.max(dataflow);
            // 2. resource availability: earliest-free unit, in-order issue.
            let mut res_ready = SimTime::ZERO;
            let mut occupant = None;
            let mut unit = 0usize;
            if !dur.is_zero() {
                let free = resource_free
                    .entry(st.resource)
                    .or_insert_with(|| vec![(SimTime::ZERO, None); spec.capacity(st.resource)]);
                for (i, &(t, _)) in free.iter().enumerate() {
                    if t < free[unit].0 {
                        unit = i;
                    }
                }
                (res_ready, occupant) = free[unit];
                start = start.max(res_ready);
            }
            // 3. buffer-reuse edges; later edges win ties.
            let mut reuse_ready = SimTime::ZERO;
            let mut reuse_pred = (0usize, 0usize);
            for e in &spec.reuse {
                if e.producer == stage && chunk >= e.depth {
                    let ready = slots[chunk - e.depth][e.consumer].finish;
                    if ready >= reuse_ready {
                        reuse_ready = ready;
                        reuse_pred = (chunk - e.depth, e.consumer);
                    }
                    start = start.max(ready);
                }
            }
            // Attribute the inter-stage gap (start − dataflow) to whichever
            // constraint won. On a tie the reuse edge takes precedence over
            // plain resource contention: the reuse wait is the one the
            // runtime pays synchronization costs for, so it is the more
            // actionable label.
            let stalled = start.saturating_sub(dataflow);
            let (kind, pred) = if stalled.is_zero() {
                let dep = st.deps.iter().find(|&&d| chunk_slots[d].finish == start);
                (None, dep.filter(|_| !start.is_zero()).map(|&d| (chunk, d)))
            } else if reuse_ready >= res_ready {
                let consumer = reuse_pred.1;
                (Some(StallKind::Reuse { consumer }), Some(reuse_pred))
            } else {
                (Some(StallKind::Resource(st.resource)), occupant)
            };
            let finish = start + dur;
            if !dur.is_zero() {
                resource_free
                    .get_mut(&st.resource)
                    .expect("initialized above")[unit] = (finish, Some((chunk, stage)));
            }
            chunk_slots.push(Slot { start, finish });
            chunk_meta.push(SlotMeta {
                kind,
                stall: stalled,
                pred,
            });
        }
        slots.push(chunk_slots);
        meta.push(chunk_meta);
    }

    Schedule::solved(spec, device, chunk_ids, slots, meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ResourceKind::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn r(kind: ResourceKind) -> ResourceId {
        ResourceId::new(kind, 0)
    }

    fn two_stage_spec() -> GraphSpec {
        GraphSpec::chain(vec![("xfer", r(DmaH2D)), ("comp", r(Gpu))])
    }

    #[test]
    fn single_chunk_is_sum_of_stages() {
        let s = schedule(two_stage_spec(), &[vec![t(1.0), t(2.0)]]);
        assert_eq!(s.makespan().secs(), 3.0);
        assert_eq!(s.slot(0, 1).start.secs(), 1.0);
    }

    #[test]
    fn perfect_overlap_two_stages() {
        // 4 chunks, xfer=1, comp=1 → makespan = 1 (fill) + 4*1 = 5
        let d = vec![vec![t(1.0), t(1.0)]; 4];
        let s = schedule(two_stage_spec(), &d);
        assert!((s.makespan().secs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn bottleneck_stage_dominates() {
        // comp=2 dominates: makespan = xfer_0 + 4*comp = 1 + 8 = 9
        let d = vec![vec![t(1.0), t(2.0)]; 4];
        let s = schedule(two_stage_spec(), &d);
        assert!((s.makespan().secs() - 9.0).abs() < 1e-12);
        assert_eq!(s.stage_busy(1).secs(), 8.0);
    }

    #[test]
    fn serialized_schedule_is_sum() {
        let d = vec![vec![t(1.0), t(2.0)]; 4];
        // Every stage on one shared resource: no overlap at all.
        let serial = |name| (name, r(Serial));
        let s = schedule(GraphSpec::chain(vec![serial("xfer"), serial("comp")]), &d);
        assert!((s.makespan().secs() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn reuse_edge_limits_lookahead() {
        // Stage 0 is instantaneous, stage 1 takes 1s. With depth-1 reuse
        // (single buffering of the intermediate), stage 0 of chunk i waits
        // for stage 1 of chunk i-1, so chunk starts are 1s apart.
        let spec = two_stage_spec().with_reuse(0, 1, 1);
        let d = vec![vec![t(0.0), t(1.0)]; 3];
        let s = schedule(spec, &d);
        assert!((s.slot(2, 0).start.secs() - 2.0).abs() < 1e-12);
        assert!((s.makespan().secs() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn deeper_reuse_allows_more_inflight() {
        let d = vec![vec![t(0.1), t(1.0)]; 6];
        let shallow = schedule(two_stage_spec().with_reuse(0, 1, 1), &d);
        let deep = schedule(two_stage_spec().with_reuse(0, 1, 3), &d);
        assert!(deep.makespan() <= shallow.makespan());
    }

    #[test]
    fn resource_sharing_serializes_stages() {
        // Both stages on the same resource → no overlap even across chunks.
        let spec = GraphSpec::chain(vec![("a", r(Serial)), ("b", r(Serial))]);
        let d = vec![vec![t(1.0), t(1.0)]; 3];
        let s = schedule(spec, &d);
        assert!((s.makespan().secs() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn four_stage_bigkernel_shape() {
        // addr-gen / assemble / xfer / compute on distinct resources with the
        // paper's depth-3 reuse: steady state throughput = max stage time.
        let spec = GraphSpec::chain(vec![
            ("addrgen", r(GpuAddrGen)),
            ("assemble", r(CpuAssembly)),
            ("xfer", r(DmaH2D)),
            ("compute", r(GpuCompute)),
        ])
        .with_reuse(0, 3, 3);
        let n = 50;
        let d = vec![vec![t(0.2), t(0.5), t(0.4), t(1.0)]; n];
        let s = schedule(spec, &d);
        // Steady state: one chunk per 1.0s (compute-bound); fill = 0.2+0.5+0.4.
        let expect = 0.2 + 0.5 + 0.4 + n as f64 * 1.0;
        assert!(
            (s.makespan().secs() - expect).abs() < 1e-9,
            "{}",
            s.makespan()
        );
        // Compute is the busiest stage; addr-gen is busy a fifth as long.
        let busy: Vec<SimTime> = (0..4).map(|st| s.stage_busy(st)).collect();
        assert_eq!(
            busy.iter().copied().fold(SimTime::ZERO, SimTime::max),
            busy[3]
        );
        assert!((busy[0].ratio(busy[3]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_schedule_is_idle() {
        let s = schedule(two_stage_spec(), &[]);
        assert_eq!(s.makespan(), SimTime::ZERO);
        for st in 0..s.num_stages() {
            assert_eq!(s.stage_busy(st), SimTime::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "reuse depth")]
    fn zero_depth_reuse_rejected() {
        let _ = two_stage_spec().with_reuse(0, 1, 0);
    }

    #[test]
    #[should_panic(expected = "not a chain link")]
    fn non_chain_spec_rejected() {
        let spec = GraphSpec::new(vec![
            GraphStage {
                name: "a",
                resource: r(DmaH2D),
                deps: vec![],
            },
            GraphStage {
                name: "b",
                resource: r(Gpu),
                deps: vec![],
            },
        ]);
        let _ = oracle::schedule(&spec, &[vec![t(1.0), t(1.0)]]);
    }

    #[test]
    #[should_panic(expected = "multi-unit resource")]
    fn multi_unit_resource_rejected() {
        let spec = two_stage_spec().with_capacity(r(Gpu), 2);
        let _ = oracle::schedule(&spec, &[vec![t(1.0), t(1.0)]]);
    }

    #[test]
    #[should_panic(expected = "wrong number of stage durations")]
    fn mismatched_durations_rejected() {
        let _ = schedule(two_stage_spec(), &[vec![t(1.0)]]);
    }

    #[test]
    fn zero_duration_stage_does_not_occupy_resource() {
        // 3 stages; the middle "write-back" stage shares the dma resource
        // with stage 0 but has zero duration — it must not delay stage 0 of
        // later chunks.
        let spec = GraphSpec::chain(vec![
            ("xfer", r(DmaH2D)),
            ("comp", r(Gpu)),
            ("wb", r(DmaH2D)),
        ]);
        let d = vec![vec![t(1.0), t(5.0), t(0.0)]; 3];
        let s = schedule(spec, &d);
        // xfer fully overlaps compute: makespan = 1 + 3*5.
        assert!(
            (s.makespan().secs() - 16.0).abs() < 1e-9,
            "{}",
            s.makespan()
        );
    }

    #[test]
    fn stall_attribution_blames_the_resource_queue() {
        // Both stages on one resource: stage "b" of chunk 0 waits for "a" of
        // chunk 0 via dataflow (no stall), but "a" of chunk 1 waits for the
        // shared resource to drain "b" of chunk 0.
        let spec = GraphSpec::chain(vec![("a", r(Serial)), ("b", r(Serial))]);
        let s = schedule(spec, &vec![vec![t(1.0), t(1.0)]; 2]);
        assert_eq!(s.slot_meta(0, 0).kind, None);
        assert_eq!(
            s.slot_meta(0, 1).kind,
            None,
            "dataflow waits are not stalls"
        );
        let m = s.slot_meta(1, 0);
        assert_eq!(m.kind, Some(StallKind::Resource(r(Serial))));
        assert!((m.stall.secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stall_attribution_blames_the_reuse_edge() {
        // Stage 0 is instantaneous and unconstrained except for the depth-1
        // reuse edge on stage 1: every chunk past the first stalls on reuse.
        let spec = two_stage_spec().with_reuse(0, 1, 1);
        let s = schedule(spec, &vec![vec![t(0.1), t(1.0)]; 3]);
        assert_eq!(s.slot_meta(0, 0).kind, None);
        let m = s.slot_meta(1, 0);
        assert_eq!(m.kind, Some(StallKind::Reuse { consumer: 1 }));
        assert!(m.stall > SimTime::ZERO);
        assert_eq!(s.stage_resource(0), r(DmaH2D));
        assert_eq!(s.stage_resource(1), r(Gpu));
    }

    #[test]
    fn stall_gap_equals_start_minus_dataflow_ready() {
        // Every positive inter-stage gap must carry a cause, and the gap
        // must equal start − previous-stage finish exactly.
        let spec = two_stage_spec().with_reuse(0, 1, 2);
        let s = schedule(spec, &vec![vec![t(0.3), t(1.0)]; 8]);
        for c in 0..s.num_chunks() {
            for st in 0..s.num_stages() {
                let m = s.slot_meta(c, st);
                let df = if st > 0 {
                    s.slot(c, st - 1).finish
                } else {
                    SimTime::ZERO
                };
                let gap = s.slot(c, st).start.saturating_sub(df);
                assert_eq!(m.stall, gap);
                assert_eq!(m.kind.is_some(), !gap.is_zero(), "chunk {c} stage {st}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::time::SimTime;
    use proptest::prelude::*;
    use ResourceKind::*;

    fn r(kind: ResourceKind) -> ResourceId {
        ResourceId::new(kind, 0)
    }

    fn arb_durations(max_chunks: usize, stages: usize) -> impl Strategy<Value = Vec<Vec<SimTime>>> {
        proptest::collection::vec(
            proptest::collection::vec(0u32..1000, stages).prop_map(|row| {
                row.into_iter()
                    .map(|d| SimTime::from_micros(d as f64))
                    .collect()
            }),
            1..max_chunks,
        )
    }

    fn bigkernel_spec(depth: usize) -> GraphSpec {
        GraphSpec::chain(vec![
            ("ag", r(GpuAddrGen)),
            ("asm", r(CpuAssembly)),
            ("xfer", r(DmaH2D)),
            ("comp", r(Gpu)),
        ])
        .with_reuse(0, 3, depth)
    }

    proptest! {
        /// Equivalence with the chain-only reference on random chains with
        /// random reuse depth: slots, stall attribution and recorded
        /// predecessors are equal.
        #[test]
        fn chain_matches_oracle(d in arb_durations(30, 4), depth in 1usize..5) {
            let spec = bigkernel_spec(depth);
            prop_assert_eq!(schedule(spec.clone(), &d), oracle::schedule(&spec, &d));
        }

        /// Makespan is bounded below by every stage's busy time and by any
        /// single chunk's critical path, and above by full serialization.
        #[test]
        fn makespan_bounds(d in arb_durations(40, 4), depth in 1usize..5) {
            let spec = bigkernel_spec(depth);
            let s = schedule(spec, &d);
            for st in 0..4 {
                prop_assert!(s.makespan() + SimTime::from_nanos(1.0) >= s.stage_busy(st));
            }
            let serial: SimTime = d.iter().flatten().copied().sum();
            prop_assert!(s.makespan() <= serial + SimTime::from_nanos(1.0));
            for row in &d {
                let chain: SimTime = row.iter().copied().sum();
                prop_assert!(s.makespan() + SimTime::from_nanos(1.0) >= chain);
            }
        }

        /// Slots never run backwards and respect intra-chunk dataflow.
        #[test]
        fn slots_are_causal(d in arb_durations(30, 4), depth in 1usize..4) {
            let spec = bigkernel_spec(depth);
            let s = schedule(spec, &d);
            for c in 0..s.num_chunks() {
                for st in 0..4 {
                    let slot = s.slot(c, st);
                    prop_assert!(slot.finish >= slot.start);
                    if st > 0 {
                        prop_assert!(slot.start >= s.slot(c, st - 1).finish);
                    }
                }
            }
        }

        /// Deeper buffering never increases the makespan.
        #[test]
        fn deeper_buffers_never_hurt(d in arb_durations(30, 4)) {
            let mut prev = None;
            for depth in 1..=4 {
                let s = schedule(bigkernel_spec(depth), &d);
                if let Some(p) = prev {
                    prop_assert!(s.makespan() <= p, "depth {depth} regressed");
                }
                prev = Some(s.makespan() + SimTime::from_nanos(1.0));
            }
        }

        /// Stages sharing one resource never overlap in time.
        #[test]
        fn resource_exclusivity(d in arb_durations(25, 3)) {
            let spec = GraphSpec::chain(vec![
                ("a", r(DmaH2D)),
                ("b", r(Gpu)),
                ("c", r(DmaH2D)),
            ]);
            let s = schedule(spec, &d);
            // Collect non-empty busy intervals on "shared" and check pairwise
            // disjointness.
            let mut intervals: Vec<(SimTime, SimTime)> = Vec::new();
            for c in 0..s.num_chunks() {
                for st in [0usize, 2] {
                    let sl = s.slot(c, st);
                    if sl.finish > sl.start {
                        intervals.push((sl.start, sl.finish));
                    }
                }
            }
            intervals.sort();
            for w in intervals.windows(2) {
                prop_assert!(w[1].0 >= w[0].1, "overlap: {:?} then {:?}", w[0], w[1]);
            }
        }
    }
}
