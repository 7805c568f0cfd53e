//! Proof that the simulator's per-chunk hot loops are allocation-free in
//! steady state: `WarpAligner::align` (per-access warps and warps staging a
//! table as one broadcast run), and the pooled addr-gen → assembly
//! path (`AddrGenScratch` recording/commit plus `assemble`).
//!
//! The counting allocator counts per thread: each test measures only the
//! allocations its own thread makes, so the test harness's threads and
//! concurrently running tests cannot leak into a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bk_gpu::trace::{AccessClass, AccessKind, ThreadTrace, WarpAligner};
use bk_gpu::{DeviceSpec, WARP_SIZE};

struct CountingAlloc;

thread_local! {
    // `const`-initialized with no destructor, so touching it from inside the
    // allocator never allocates or registers anything itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation on the calling thread. `try_with` because a thread
/// may still allocate while its thread-locals are being torn down.
fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The per-thread counter is live: it counts each allocation made on this
/// thread exactly once, and not the allocations of another thread.
#[test]
fn counter_sees_only_this_threads_allocations() {
    let before = allocs();
    std::thread::spawn(|| {
        for _ in 0..1000 {
            drop(std::hint::black_box(vec![0u8; 64]));
        }
    })
    .join()
    .unwrap();
    let spawn_cost = allocs() - before;
    assert!(
        spawn_cost < 1000,
        "another thread's allocations were counted here ({spawn_cost})"
    );

    let before = allocs();
    drop(std::hint::black_box(vec![0u8; 64]));
    assert_eq!(allocs() - before, 1, "own allocation not counted once");
}

#[test]
fn align_performs_no_heap_allocations_in_steady_state() {
    let spec = DeviceSpec::test_tiny();
    // A mixed workload touching every scratch path: stream reads/writes,
    // device atomics, multi-segment accesses, and shared-memory conflicts.
    let lanes: Vec<ThreadTrace> = (0..WARP_SIZE as u64)
        .map(|i| {
            let mut t = ThreadTrace::default();
            for k in 0..4u64 {
                t.record(
                    4096 + k * 128 + i * 4,
                    4,
                    AccessKind::Read,
                    AccessClass::StreamRead,
                );
                t.record(
                    1 << 20 | (i * 64 + k * 8),
                    8,
                    AccessKind::Write,
                    AccessClass::StreamWrite,
                );
                t.record(
                    (2 << 20) + (i % 4) * 8,
                    8,
                    AccessKind::Atomic,
                    AccessClass::Dev,
                );
            }
            t.record_shared((i as u32 % 8) * 512, 4);
            t.alu(10);
            t
        })
        .collect();

    let mut aligner = WarpAligner::new();
    // Warm-up: let every scratch vector grow to the workload's size.
    for _ in 0..3 {
        let _ = aligner.align(&spec, &lanes);
    }

    let before = allocs();
    for _ in 0..100 {
        let c = aligner.align(&spec, &lanes);
        assert!(c.mem.transactions > 0);
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "align allocated {} times in steady state",
        after - before
    );
}

/// The broadcast closed form allocates nothing either: a warp staging one
/// 256-byte table as a run (K-means' centroid staging), each lane then
/// reading its own record field and bumping a shared counter.
#[test]
fn broadcast_run_align_performs_no_heap_allocations_in_steady_state() {
    let spec = DeviceSpec::test_tiny();
    let lanes: Vec<ThreadTrace> = (0..WARP_SIZE as u64)
        .map(|i| {
            let mut t = ThreadTrace::default();
            t.record_run(1 << 16, 8, 8, 32, AccessClass::Dev);
            t.record(4096 + i * 64, 8, AccessKind::Read, AccessClass::StreamRead);
            t.record(
                (2 << 20) + (i % 4) * 8,
                8,
                AccessKind::Atomic,
                AccessClass::Dev,
            );
            t
        })
        .collect();

    let mut aligner = WarpAligner::new();
    for _ in 0..3 {
        let _ = aligner.align(&spec, &lanes);
    }

    let before = allocs();
    for _ in 0..100 {
        let c = aligner.align(&spec, &lanes);
        assert_eq!(c.mem.bytes_useful, 32 * (32 * 8 + 8 + 8));
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "broadcast align allocated {} times in steady state",
        after - before
    );
}

mod chunk {
    use bk_host::CacheSim;
    use bk_runtime::addr::LaneAddrs;
    use bk_runtime::assembly::{assemble, GatherConfig};
    use bk_runtime::pool::Compression;
    use bk_runtime::{
        AddrGenCtx, AddrGenScratch, AssemblyLayout, BigKernelConfig, Machine, StreamArray, StreamId,
    };

    pub const LANES: u64 = 8;
    pub const STEPS: u64 = 256;
    pub const LANE_SPAN: u64 = STEPS * 8;

    /// Record, commit, and assemble one chunk's worth of lane streams
    /// through the pooled fast path, then recycle everything back into the
    /// scratch's pool. Returns the gathered byte count.
    pub fn run_chunk(
        scratch: &mut AddrGenScratch,
        machine: &Machine,
        streams: &[StreamArray],
        cache: &mut CacheSim,
        cfg: &BigKernelConfig,
        trace: &mut bk_gpu::ThreadTrace,
    ) -> u64 {
        let mut lanes = scratch.pool.take_lanes();
        for lane in 0..LANES {
            scratch.begin_lane(cfg.pattern_recognition);
            let mut ctx = AddrGenCtx::recording(&machine.gmem, trace, &mut scratch.recorder);
            for k in 0..STEPS {
                ctx.emit_read(StreamId(0), lane * LANE_SPAN + k * 8, 8);
            }
            let (reads, c) = scratch.commit_reads(cfg);
            assert_eq!(c, Compression::Pattern, "strided lane must compress");
            let (writes, _) = scratch.commit_writes(cfg);
            lanes.push(LaneAddrs { reads, writes });
        }
        let out = assemble(
            &machine.hmem,
            streams,
            &lanes,
            GatherConfig {
                layout: AssemblyLayout::Interleaved,
                locality: true,
            },
            cache,
            &mut scratch.pool,
        );
        assert!(out.locality_order_used);
        let gathered = out.gathered_bytes;
        scratch.pool.give_output(out);
        scratch.pool.give_lanes(lanes);
        // Retire the chunk's arena window exactly like `BlockSlot::recycle`.
        scratch.pool.arena.reset();
        gathered
    }

    pub fn setup() -> (Machine, Vec<StreamArray>) {
        let mut m = Machine::test_platform();
        let data = vec![0xA5u8; (LANES * LANE_SPAN) as usize];
        let r = m.hmem.alloc_from(&data);
        let s = StreamArray::map(&m, StreamId(0), r);
        (m, vec![s])
    }
}

/// The tentpole guarantee: from the second chunk on, address generation
/// (recording + online pattern detection + commit) and assembly (layout
/// build + gather into the pooled prefetch buffer) touch the heap zero
/// times — every vector cycles through the `StreamPool` freelists.
#[test]
fn addr_gen_and_assembly_second_chunk_allocates_nothing() {
    let (machine, streams) = chunk::setup();
    let cfg = bk_runtime::BigKernelConfig::default();
    let mut scratch = bk_runtime::AddrGenScratch::new();
    let mut cache = bk_host::CacheSim::xeon_llc();
    let mut trace = bk_gpu::ThreadTrace::default();

    // First chunk: grows every pooled vector (and the LLC sim) to size.
    let first = chunk::run_chunk(
        &mut scratch,
        &machine,
        &streams,
        &mut cache,
        &cfg,
        &mut trace,
    );
    assert_eq!(first, chunk::LANES * chunk::LANE_SPAN);

    // Second chunk onward: bit-for-bit the same work, zero allocations.
    let before = allocs();
    for _ in 0..10 {
        let g = chunk::run_chunk(
            &mut scratch,
            &machine,
            &streams,
            &mut cache,
            &cfg,
            &mut trace,
        );
        assert_eq!(g, first);
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "addr-gen + assembly allocated {} times in steady state",
        after - before
    );
}

/// Observability zero-overhead guarantee: with span recording compiled in
/// (`bk-obs/trace`) but no live [`bk_obs::trace::start`] guard, walking a
/// schedule into a warmed [`bk_obs::MetricsRegistry`] touches the heap zero
/// times — counter and histogram slots are interned on first use, span
/// records are dropped at the thread-local check, and nothing grows.
#[test]
fn untraced_record_schedule_allocates_nothing() {
    use bk_simcore::{pipeline, GraphSpec, ResourceId, ResourceKind, SimTime};

    let spec = GraphSpec::chain(vec![
        ("transfer", ResourceId::new(ResourceKind::DmaH2D, 0)),
        ("compute", ResourceId::new(ResourceKind::GpuCompute, 0)),
    ])
    .with_reuse(0, 1, 1);
    let t = SimTime::from_micros(1.0);
    let sched = pipeline::schedule(spec, &vec![vec![t, t + t]; 8]);

    let mut metrics = bk_obs::MetricsRegistry::new();
    // Warm-up: interns every counter/histogram slot this schedule touches
    // and initializes the thread-local sink (lazily created on first use).
    bk_obs::record_schedule(&sched, 0, SimTime::ZERO, &mut metrics);

    let before = allocs();
    for wave in 1..=100 {
        bk_obs::record_schedule(&sched, wave * 8, SimTime::ZERO, &mut metrics);
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "untraced record_schedule allocated {} times in steady state",
        after - before
    );
    assert_eq!(metrics.hist("hist.span.transfer").unwrap().count(), 8 * 101);
}
