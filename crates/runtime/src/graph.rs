//! Stage-graph factories and the multi-GPU executor.
//!
//! `run_bigkernel` and the buffered baselines describe their stage
//! structure as *data*: a [`GraphSpec`] of stages on typed
//! [`ResourceId`]s (kind × device), with dependency edges (a DAG, not just
//! a chain), buffer-reuse edges (§IV.C's `addr-gen(n)` ↔ `compute(n−3)`
//! rule) and per-resource capacities. The vocabulary and the one scheduler
//! live in [`bk_simcore::pipeline`]. This module adds:
//!
//! * the factories [`pipeline_graph`], [`buffered_graph`] and
//!   [`serial_graph`], which also choose the write-back DMA resource from
//!   the copy-engine count;
//! * [`Executor`] / [`ShardedSchedule`] — chunk sharding across `N` simulated
//!   GPUs, one device-local [`bk_simcore::Schedule`] per device with its
//!   `device` and wave-local `chunk_ids` set. Each device runs an
//!   independent copy of the stage graph (its own DMA engine, GPU queues
//!   and host-side worker threads — the same resource kinds on its own
//!   device index), built once per executor and shared by every shard on
//!   that device. Chunks are dealt out round-robin
//!   ([`bk_simcore::pipeline::deal`]), and reuse depth applies within a
//!   device's local chunk sequence (per-device buffer pools). The wave
//!   makespan is the max over device schedules. Devices are homogeneous
//!   ([`crate::Machine`] replicates device 0's spec), so per-chunk durations
//!   are device-independent and sharding is purely a timing-level decision
//!   — functional execution stays in global chunk order and outputs are
//!   bit-identical for any device count. See DESIGN.md §10.

use crate::fusion::MAX_FUSED_PASSES;
use crate::machine::MAX_DEVICES;
use crate::pipeline::STAGE_NAMES;
use crate::result::{accumulate_stage_stats, StageStat};
use bk_obs::{names, MetricsRegistry};
use bk_simcore::pipeline::{self, GraphSpec, ResourceId, ResourceKind, Schedule};
use bk_simcore::SimTime;
use std::sync::Arc;

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

/// Executes a [`GraphSpec`] over `N` simulated devices.
///
/// ```
/// use bk_runtime::graph::{pipeline_graph, Executor};
/// use bk_simcore::SimTime;
///
/// // Shard four equal-cost chunks over two devices, round-robin.
/// let exec = Executor::new(pipeline_graph(1, 1, 2, 2), 2);
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
    /// `specs[d]`: the graph with its resources moved to device `d`.
    specs: Vec<Arc<GraphSpec>>,
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
        let specs = (0..num_devices)
            .map(|d| Arc::new(spec.for_device(d)))
            .collect();
        Executor { specs }
    }

    /// How many simulated devices the executor shards over.
    pub fn num_devices(&self) -> usize {
        self.specs.len()
    }

    /// Deal the wave's chunks round-robin over every device and schedule
    /// each device's share. With one device this is exactly
    /// [`pipeline::schedule`] over all chunks in order.
    pub fn run(&self, durations: &[Vec<SimTime>]) -> ShardedSchedule {
        let devices = (0..self.specs.len()).collect();
        self.run_shares(pipeline::deal(devices, durations.len()), durations)
    }

    /// Schedule a wave already dealt into `(device, chunk rows)` shares —
    /// [`Self::run`]'s path, which the fault-recovery path ([`crate::fault`])
    /// takes after requeuing a dead device's chunks across the survivors.
    pub(crate) fn run_shares(
        &self,
        shares: Vec<(usize, Vec<usize>)>,
        durations: &[Vec<SimTime>],
    ) -> ShardedSchedule {
        let shards = pipeline::schedule_shards(&self.specs, shares, durations);
        let makespan = shards
            .iter()
            .map(|s| s.makespan)
            .fold(SimTime::ZERO, SimTime::max);
        ShardedSchedule { shards, makespan }
    }
}

impl ShardedSchedule {
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
    use bk_simcore::{GraphStage, ScheduleView};

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

    /// The golden equivalence: the one-pass BigKernel graph schedules
    /// bit-identically to the chain-only reference scheduler over the
    /// hard-coded legacy chain (slots, stall attribution and predecessors).
    #[test]
    fn chain_schedule_is_bit_identical_to_simcore() {
        let depth = 3;
        let graph = pipeline_graph(1, 1, depth, depth);
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
            pipeline::schedule(graph, &durations),
            pipeline::oracle::schedule(&legacy, &durations)
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
        let s = pipeline::schedule(spec, &[vec![t(1.0), t(2.0), t(5.0), t(1.0)]]);
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
        let s = pipeline::schedule(spec, &vec![vec![t(4.0)]; 4]);
        // Two units: chunks 0/1 start at 0, chunks 2/3 at 4.
        assert_eq!(s.slot(1, 0).start, SimTime::ZERO);
        assert_eq!(s.slot(2, 0).start, t(4.0));
        assert_eq!(s.makespan(), t(8.0));
    }

    #[test]
    fn round_robin_shards_halve_streaming_makespan() {
        let spec = pipeline_graph(1, 1, 3, 3);
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
    fn single_device_executor_matches_schedule_exactly() {
        let spec = pipeline_graph(2, 1, 3, 3);
        let rows: Vec<Vec<SimTime>> = (0..10)
            .map(|c| {
                (0..6)
                    .map(|s| t(((c * 7 + s * 3) % 11) as f64 * 0.1))
                    .collect()
            })
            .collect();
        let sharded = Executor::new(spec.clone(), 1).run(&rows);
        let direct = pipeline::schedule(spec, &rows);
        assert_eq!(sharded.makespan(), direct.makespan());
        assert_eq!(sharded.shards()[0], direct);
    }

    /// A capture is the executor's shard field for field — its device's
    /// spec included — with chunk ids offset by the wave's base.
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
        let exec = Executor::new(spec, 2);
        let wave = exec.run(&rows);
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
        assert_eq!(dev1.spec.reuse.len(), 4);
        assert_eq!(dev1.spec.stages[6].deps, vec![5]);
        assert_eq!(
            dev1.spec
                .capacity(ResourceId::new(ResourceKind::CpuAssembly, 1)),
            2
        );
        assert_eq!(
            dev1.spec
                .capacity(ResourceId::new(ResourceKind::GpuCompute, 1)),
            1
        );
        // Every wave's shard on a device shares that device's one spec.
        let again = exec.run(&rows);
        assert!(Arc::ptr_eq(&again.shards()[1].spec, &dev1.spec));
        assert!(!Arc::ptr_eq(&wave.shards()[0].spec, &dev1.spec));
    }

    #[test]
    fn deal_chunks_is_round_robin_whatever_the_costs() {
        // Chunk costs are skewed, but the deal follows the chunk index
        // alone: chunk `c` lands on target `c % n`.
        let rows: Vec<Vec<SimTime>> = (0..8)
            .map(|c| vec![t(if c % 2 == 0 { 9.0 } else { 1.0 })])
            .collect();
        let res = ResourceId::new(ResourceKind::Gpu, 0);
        let wave = Executor::new(GraphSpec::chain(vec![("comp", res)]), 3).run(&rows);
        let owned: Vec<&[usize]> = wave.shards().iter().map(|s| &s.chunk_ids[..]).collect();
        assert_eq!(owned, [&[0, 3, 6][..], &[1, 4, 7], &[2, 5]]);
    }

    #[test]
    fn sharded_record_emits_per_device_counters_and_same_stage_totals() {
        let spec = pipeline_graph(1, 1, 3, 3);
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
        let _ = pipeline_graph(1, 1, 3, 3).with_reuse(0, 3, 0);
    }

    #[test]
    #[should_panic(expected = "producer index out of range")]
    fn with_reuse_producer_out_of_range_panics() {
        let _ = pipeline_graph(1, 1, 3, 3).with_reuse(6, 3, 1);
    }

    #[test]
    #[should_panic(expected = "consumer index out of range")]
    fn with_reuse_consumer_out_of_range_panics() {
        let _ = pipeline_graph(1, 1, 3, 3).with_reuse(0, 6, 1);
    }

    #[test]
    fn reuse_depth_reports_both_bigkernel_edges() {
        let spec = pipeline_graph(1, 1, 4, 7);
        assert_eq!(spec.reuse_depth(0, 3), Some(4));
        assert_eq!(spec.reuse_depth(3, 5), Some(7));
        assert_eq!(spec.reuse_depth(1, 2), None);
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
                    pipeline::schedule(spec, &rows),
                    pipeline::schedule(expected, &rows)
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
        let s = pipeline::schedule(spec, &rows);
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
        let spec = pipeline_graph(1, 1, 3, 3);
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
    use bk_simcore::{GraphStage, ScheduleView, StallKind};
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
        /// Random DAGs with random capacities: a resource with capacity `k`
        /// never has more than `k` spans in flight at once — in particular,
        /// two spans never overlap on a unit-capacity resource.
        #[test]
        fn dag_capacity_is_never_exceeded(
            spec in arb_dag(5),
            d in arb_durations(20, 5),
        ) {
            let s = pipeline::schedule(spec.clone(), &d);
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
            let s = pipeline::schedule(spec.clone(), &d);
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
            let s = pipeline::schedule(spec.clone(), &d);
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
            let s = pipeline::schedule(spec.clone(), &d);
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

        /// Every slot that starts after t = 0 records the predecessor whose
        /// finish set its start, bit-exactly: a dependency of the same
        /// chunk when it did not stall, an earlier occupant of the same
        /// resource on a resource stall, and the edge's consumer `depth`
        /// rows back on a reuse stall. Random DAGs with random capacities
        /// and reuse edges, dealt over one to four devices.
        #[test]
        fn recorded_predecessors_bind_every_start(
            spec in arb_dag(5),
            reuse in proptest::collection::vec((0usize..5, 0usize..5, 1usize..4), 0..3),
            d in arb_durations(20, 5),
            n in 1usize..=4,
        ) {
            let spec = reuse
                .into_iter()
                .fold(spec, |spec, (p, c, depth)| spec.with_reuse(p, c, depth));
            for s in Executor::new(spec, n).run(&d).shards() {
                for c in 0..s.num_chunks() {
                    for st in 0..s.num_stages() {
                        let (slot, meta) = (s.slot(c, st), s.slot_meta(c, st));
                        let Some((pc, ps)) = meta.pred else {
                            prop_assert!(slot.start.is_zero() && meta.kind.is_none());
                            continue;
                        };
                        prop_assert_eq!(s.slot(pc, ps).finish, slot.start);
                        let deps = &s.spec.stages[st].deps;
                        match meta.kind {
                            None => prop_assert!(pc == c && deps.contains(&ps)),
                            Some(StallKind::Resource(r)) => {
                                prop_assert_eq!(r, s.stage_resource(st));
                                prop_assert_eq!(s.stage_resource(ps), r);
                                prop_assert!((pc, ps) < (c, st));
                            }
                            Some(StallKind::Reuse { consumer }) => {
                                let edge = s.spec.reuse.iter().any(|e| {
                                    e.producer == st && e.consumer == ps && pc + e.depth == c
                                });
                                prop_assert!(edge && ps == consumer);
                            }
                        }
                    }
                }
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
