//! Stage-graph factories, scheduler and multi-GPU executor.
//!
//! `run_bigkernel` and the buffered baselines describe their stage
//! structure as *data*: a [`GraphSpec`] of stages on typed
//! [`ResourceId`]s (kind × device), with dependency edges (a DAG, not just
//! a chain), buffer-reuse edges (§IV.C's `addr-gen(n)` ↔ `compute(n−3)`
//! rule) and per-resource capacities — the vocabulary lives in
//! [`bk_simcore::pipeline`]. This module adds:
//!
//! * the factories [`pipeline_graph`] (with its one-pass shorthand
//!   [`bigkernel_graph`]), [`buffered_graph`] and [`serial_graph`], which
//!   also choose the write-back DMA resource from the copy-engine count;
//! * [`schedule_graph`] — forward list scheduling generalized to DAG deps and
//!   multi-unit resources, returning a [`bk_simcore::Schedule`]. For a
//!   linear chain on unit-capacity resources it performs the *identical*
//!   sequence of exact f64 max/add operations as
//!   [`bk_simcore::pipeline::schedule`], and the two results are equal
//!   (the golden tests in `crates/apps/tests` hold simcore to be the
//!   oracle).
//! * [`Executor`] / [`ShardedSchedule`] — chunk sharding across `N` simulated
//!   GPUs, one device-local [`bk_simcore::Schedule`] per device with its
//!   `device` and wave-local `chunk_ids` set. Each device runs an
//!   independent copy of the stage graph (its own DMA engine, GPU queues
//!   and host-side worker threads — the same resource kinds on its own
//!   device index), chunks are dealt out round-robin, and reuse depth
//!   applies within a device's local chunk sequence
//!   (per-device buffer pools). The wave makespan is the max over
//!   device schedules. Devices are homogeneous ([`crate::Machine`] replicates
//!   device 0's spec), so per-chunk durations are device-independent and
//!   sharding is purely a timing-level decision — functional execution stays
//!   in global chunk order and outputs are bit-identical for any device
//!   count. See DESIGN.md §10.

use crate::fusion::MAX_FUSED_PASSES;
use crate::machine::MAX_DEVICES;
use crate::pipeline::STAGE_NAMES;
use crate::result::{accumulate_stage_stats, StageStat};
use bk_obs::{names, MetricsRegistry};
use bk_simcore::pipeline::Slot;
use bk_simcore::{GraphSpec, ResourceId, ResourceKind, Schedule, SimTime, SlotMeta, StallKind};
use std::collections::HashMap;

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

/// Flat stage-name list of the `passes`-pass [`pipeline_graph`], in stage
/// order: the plain [`STAGE_NAMES`] for one pass; for more, each pass's six
/// stages prefixed `p<p>.`, so observability can both distinguish passes
/// and strip back to the role name for aggregation. The fault ladder's
/// [`serial_graph`] rung uses it to keep the `6 × passes` stage shape.
pub fn pipeline_stage_names(passes: usize) -> Vec<&'static str> {
    assert!(
        (1..=MAX_FUSED_PASSES).contains(&passes),
        "pipeline graph supports 1..={MAX_FUSED_PASSES} passes"
    );
    if passes == 1 {
        return STAGE_NAMES.to_vec();
    }
    (0..passes)
        .flat_map(|p| {
            STAGE_NAMES
                .iter()
                .map(move |&role| names::pass_stage(p, role))
        })
        .collect()
}

/// The BigKernel graph of a `passes`-pass program: `passes` copies of the
/// 6-stage pipeline chained end-to-end per chunk (pass `p`'s addr-gen
/// depends on pass `p−1`'s wb-apply of the *same* chunk — the
/// device-resident intermediate), sharing the one set of hardware resources,
/// with each pass's own §IV.C buffer-reuse edges: `depth` buffer sets on the
/// prefetch-data edge `addr-gen(n) ↔ compute(n−depth)` and `wb_depth` sets on
/// the write-back edge `compute(n) ↔ wb-apply(n−wb_depth)`. The two depths
/// are separate because the prefetch and write-back buffer pools are sized
/// (and stall) independently. On GPUs with a second
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
    let mut spec = GraphSpec::chain(
        pipeline_stage_names(passes)
            .into_iter()
            .zip(roles.iter().cycle())
            .map(|(name, &kind)| (name, ResourceId::new(kind, 0)))
            .collect(),
    );
    for p in 0..passes {
        spec = spec
            .with_reuse(p * 6, p * 6 + 3, depth)
            .with_reuse(p * 6 + 3, p * 6 + 5, wb_depth);
    }
    spec
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
///   reference scheduler's map, and `max(x, 0) = x` exactly in f64);
/// * reuse edges and the stall-attribution tie rule (reuse wins ties over
///   resource contention) are verbatim from the reference scheduler.
///
/// Zero-duration stages neither wait for nor occupy their resource.
pub fn schedule_graph(spec: &GraphSpec, durations: &[Vec<SimTime>]) -> Schedule {
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
                    .or_insert_with(|| vec![SimTime::ZERO; spec.capacity(res)]);
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
            // reuse takes precedence on ties (see the reference scheduler).
            let stalled = start.saturating_sub(dataflow);
            let kind = if stalled.is_zero() {
                None
            } else if reuse_ready >= res_ready {
                Some(StallKind::Reuse {
                    consumer: reuse_consumer,
                })
            } else {
                Some(StallKind::Resource(res))
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

    Schedule::solved(spec, slots, meta)
}

/// Schedule one device's share of a wave: the rows `chunk_ids` of
/// `durations`, in order, on `spec`'s resources moved to `device`. The
/// executor and the fault-recovery path both build their shards here.
pub(crate) fn schedule_shard(
    spec: &GraphSpec,
    device: usize,
    chunk_ids: Vec<usize>,
    durations: &[Vec<SimTime>],
) -> Schedule {
    let rows: Vec<Vec<SimTime>> = chunk_ids.iter().map(|&c| durations[c].clone()).collect();
    Schedule {
        device,
        chunk_ids,
        ..schedule_graph(&spec.for_device(device), &rows)
    }
}

/// Executes a [`GraphSpec`] over `N` simulated devices.
///
/// ```
/// use bk_runtime::graph::{bigkernel_graph, Executor};
/// use bk_simcore::SimTime;
///
/// // Shard four equal-cost chunks over two devices, round-robin.
/// let exec = Executor::new(bigkernel_graph(1, 2), 2);
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
}

/// A wave scheduled across all devices. The devices run concurrently, so
/// the wave's makespan is the max over shard makespans.
pub struct ShardedSchedule {
    shards: Vec<Schedule>,
    makespan: SimTime,
}

impl Executor {
    /// An executor that shards each wave round-robin over `num_devices`
    /// copies of `spec`'s resources.
    pub fn new(spec: GraphSpec, num_devices: usize) -> Self {
        assert!(num_devices >= 1, "need at least one device");
        assert!(
            num_devices <= MAX_DEVICES,
            "at most {MAX_DEVICES} simulated devices"
        );
        Executor { spec, num_devices }
    }

    /// How many simulated devices the executor shards over.
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Shard the wave's chunks and schedule each device's share. With one
    /// device this is exactly [`schedule_graph`] over all chunks in order.
    pub fn run(&self, durations: &[Vec<SimTime>]) -> ShardedSchedule {
        let owned = deal_chunks(self.num_devices, durations);
        let shards = owned
            .into_iter()
            .enumerate()
            .map(|(device, chunk_ids)| schedule_shard(&self.spec, device, chunk_ids, durations))
            .collect();
        ShardedSchedule::from_shards(shards)
    }
}

/// Deal wave-local chunks (rows of `durations`) round-robin across `n`
/// schedule targets: chunk `c` goes to target `c % n`. With homogeneous
/// devices and roughly uniform chunk costs this keeps per-device chunk
/// sequences maximally regular (good for the reuse pipeline). Returns, per
/// target, the owned chunk indices in ascending order. This is the dealing
/// half of [`Executor::run`], split out so the fault-recovery path
/// ([`crate::fault`]) can re-deal a dead device's chunks across the
/// survivors the same way.
pub fn deal_chunks(n: usize, durations: &[Vec<SimTime>]) -> Vec<Vec<usize>> {
    assert!(n >= 1, "need at least one schedule target");
    let mut owned: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in 0..durations.len() {
        owned[c % n].push(c);
    }
    owned
}

impl ShardedSchedule {
    /// Assemble a wave from already-scheduled shards (the executor's normal
    /// path and the fault-recovery path both end here). The wave makespan is
    /// the max over shard makespans — devices run concurrently.
    pub fn from_shards(shards: Vec<Schedule>) -> ShardedSchedule {
        let makespan = shards
            .iter()
            .map(|s| s.makespan)
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
    pub fn shards(&self) -> &[Schedule] {
        &self.shards
    }

    /// Record every shard's spans, stall counters and histograms into the
    /// registry ([`bk_obs::record_schedule`] offsets each shard's wave-local
    /// chunk ids by `chunk_base`), plus the per-device
    /// `device.<i>.{chunks, busy_ns, makespan_ns, stall_ns}` counters.
    ///
    /// While a [`bk_obs::critpath::capture`] guard is live, the wave is
    /// additionally captured as a [`bk_obs::critpath::WaveDag`]: a clone of
    /// each shard with run-global chunk ids, plus this wave's `time_base`,
    /// for post-run critical-path analysis and what-if replay. Without a
    /// guard the check is one thread-local read — no allocation.
    pub fn record(&self, chunk_base: usize, time_base: SimTime, metrics: &mut MetricsRegistry) {
        if bk_obs::critpath::capture_enabled() {
            let shards = self
                .shards
                .iter()
                .map(|shard| {
                    let mut shard = shard.clone();
                    for c in &mut shard.chunk_ids {
                        *c += chunk_base;
                    }
                    shard
                })
                .collect();
            bk_obs::critpath::record_wave(bk_obs::critpath::WaveDag {
                pass: bk_obs::critpath::current_pass(),
                time_base,
                shards,
            });
        }
        for shard in &self.shards {
            bk_obs::record_schedule(shard, chunk_base, time_base, metrics);
            for (quantity, v) in [
                ("chunks", shard.chunk_ids.len() as u64),
                ("busy_ns", shard.total_busy().nanos() as u64),
                ("makespan_ns", shard.makespan.nanos() as u64),
                ("stall_ns", shard.total_stall().nanos() as u64),
            ] {
                metrics.add(names::device(shard.device, quantity), v);
            }
        }
    }

    /// Fold every shard's per-stage busy times into the run's stage stats
    /// (all shards share the graph's stage shape, so the accumulator's
    /// shape check holds across devices and waves).
    pub fn accumulate(&self, stats: &mut Vec<StageStat>) {
        for shard in &self.shards {
            accumulate_stage_stats(stats, shard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bk_simcore::{pipeline, GraphStage, ScheduleView};

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
            assert_eq!(names::resource(ResourceId::new(kind, 0)), want);
            assert_eq!(
                names::resource(ResourceId::new(kind, 2)),
                format!("dev2.{want}")
            );
        }
        assert_eq!(
            names::resource(ResourceId::new(GpuCompute, 3)),
            "dev3.gpu-comp"
        );
        assert_eq!(names::resource(ResourceId::new(DmaH2D, 7)), "dev7.dma");
        // The device cap belongs to the machine, not to the names.
        assert_eq!(
            names::resource(ResourceId::new(Gpu, MAX_DEVICES)),
            "dev8.gpu"
        );
    }

    /// The golden equivalence: a linear unit-capacity graph schedules
    /// bit-identically to the reference simcore scheduler (slots *and* stall
    /// attribution), for the exact BigKernel shape.
    #[test]
    fn chain_schedule_is_bit_identical_to_simcore() {
        let depth = 3;
        let graph = bigkernel_graph(1, depth);
        let legacy = GraphSpec::chain(vec![
            ("addr-gen", ResourceId::new(ResourceKind::GpuAddrGen, 0)),
            ("assemble", ResourceId::new(ResourceKind::CpuAssembly, 0)),
            ("transfer", ResourceId::new(ResourceKind::DmaH2D, 0)),
            ("compute", ResourceId::new(ResourceKind::GpuCompute, 0)),
            ("wb-xfer", ResourceId::new(ResourceKind::DmaH2D, 0)),
            ("wb-apply", ResourceId::new(ResourceKind::CpuWriteback, 0)),
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
        assert_eq!(
            schedule_graph(&graph, &durations),
            pipeline::schedule(&legacy, &durations)
        );
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
        let one = Executor::new(spec.clone(), 1).run(&rows);
        let two = Executor::new(spec, 2).run(&rows);
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
        let sharded = Executor::new(spec.clone(), 1).run(&rows);
        let direct = schedule_graph(&spec, &rows);
        assert_eq!(sharded.makespan(), direct.makespan());
        assert_eq!(sharded.shards()[0], direct);
    }

    /// A capture is the executor's shard field for field — deps, reuse
    /// edges and capacities included — with chunk ids offset by the wave's
    /// base.
    #[test]
    fn captured_shards_equal_the_executor_shards() {
        let asm = ResourceId::new(ResourceKind::CpuAssembly, 0);
        let spec = pipeline_graph(2, 2, 3, 2).with_capacity(asm, 2);
        let rows: Vec<Vec<SimTime>> = (0..9)
            .map(|c| {
                (0..12)
                    .map(|s| t(((c * 5 + s * 3) % 7) as f64 * 0.1 + 0.1))
                    .collect()
            })
            .collect();
        let wave = Executor::new(spec, 2).run(&rows);
        let guard = bk_obs::critpath::capture();
        wave.record(40, t(3.0), &mut MetricsRegistry::new());
        let captured = guard.finish();
        assert_eq!(captured.len(), 1);
        assert_eq!(captured[0].time_base, t(3.0));
        assert_eq!(captured[0].shards.len(), 2);
        for (got, shard) in captured[0].shards.iter().zip(wave.shards()) {
            let want = Schedule {
                chunk_ids: shard.chunk_ids.iter().map(|&c| 40 + c).collect(),
                ..shard.clone()
            };
            assert_eq!(got, &want);
        }
        // The shape a capture must carry: device 1's resources, both
        // passes' reuse edges, the cross-pass dependency and the capacity.
        let dev1 = &wave.shards()[1];
        assert_eq!((dev1.device, &dev1.chunk_ids[..]), (1, &[1, 3, 5, 7][..]));
        assert_eq!(dev1.reuse.len(), 4);
        assert_eq!(dev1.deps[6], vec![5]);
        assert!(dev1
            .capacities
            .contains(&(ResourceId::new(ResourceKind::CpuAssembly, 1), 2)));
        assert!(dev1
            .capacities
            .contains(&(ResourceId::new(ResourceKind::GpuCompute, 1), 1)));
    }

    #[test]
    fn deal_chunks_is_round_robin_whatever_the_costs() {
        // Chunk costs are skewed, but the deal follows the chunk index
        // alone: chunk `c` lands on target `c % n`.
        let rows: Vec<Vec<SimTime>> = (0..8)
            .map(|c| vec![t(if c % 2 == 0 { 9.0 } else { 1.0 })])
            .collect();
        let owned = deal_chunks(3, &rows);
        assert_eq!(owned, vec![vec![0, 3, 6], vec![1, 4, 7], vec![2, 5]]);
    }

    #[test]
    fn sharded_record_emits_per_device_counters_and_same_stage_totals() {
        let spec = bigkernel_graph(1, 3);
        let rows = vec![vec![t(0.2), t(0.9), t(0.7), t(1.3), t(0.3), t(0.2)]; 8];
        let mut m1 = MetricsRegistry::new();
        Executor::new(spec.clone(), 1)
            .run(&rows)
            .record(0, SimTime::ZERO, &mut m1);
        assert_eq!(m1.get("device.0.chunks"), 8);
        assert!(m1.get("device.0.busy_ns") > 0);
        let mut m2 = MetricsRegistry::new();
        Executor::new(spec, 2)
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
        Vec<(&'static str, ResourceId, Vec<usize>)>,
        Vec<(usize, usize, usize)>,
    );

    fn shape(spec: &GraphSpec) -> Shape {
        (
            spec.stages
                .iter()
                .map(|s| (s.name, s.resource, s.deps.clone()))
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
                assert_eq!(
                    schedule_graph(&spec, &rows),
                    schedule_graph(&expected, &rows)
                );
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
        Executor::new(spec.clone(), 1)
            .run(&rows)
            .accumulate(&mut one);
        let mut two = Vec::new();
        Executor::new(spec, 3).run(&rows).accumulate(&mut two);
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
    use bk_simcore::{pipeline, GraphStage, ScheduleView};
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
        /// Equivalence with the reference scheduler on random linear chains
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
            prop_assert_eq!(schedule_graph(&graph, &d), pipeline::schedule(&graph, &d));
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
                let cap = spec.capacity(res);
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
                        "{} spans in flight on {:?} (capacity {cap})",
                        in_flight,
                        res,
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
        /// at every depth a run can configure.
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
                let cap = spec.capacity(res) as f64;
                prop_assert!(
                    s.makespan().secs() + 1e-9 >= total / cap,
                    "makespan below busy/capacity bound for {:?}",
                    res,
                );
            }
        }

        /// Sharding partitions chunks: every chunk appears exactly once
        /// across shards, for any device count.
        #[test]
        fn sharding_partitions_chunks(
            d in arb_durations(40, 2),
            n in 1usize..=4,
        ) {
            use ResourceKind::*;
            let spec = GraphSpec::chain(vec![
                ("xfer", ResourceId::new(DmaH2D, 0)),
                ("comp", ResourceId::new(Gpu, 0)),
            ]);
            let sharded = Executor::new(spec, n).run(&d);
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
