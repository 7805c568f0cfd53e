//! Golden-schedule suite: on one GPU, the stage-graph executor must place
//! every stage instance exactly where the pre-refactor forward-list
//! scheduler did.
//!
//! Method: run BigKernel for every application with span tracing on, then
//! rebuild the schedule independently with the chain-only reference
//! scheduler [`bk_simcore::pipeline::oracle`] — the pre-refactor scheduler,
//! left untouched — configured exactly as the pre-refactor `run_bigkernel` configured it
//! (stage/resource table, §IV.C reuse edges, second-copy-engine rule). The
//! legacy configuration is *hard-coded here* on purpose: it is the golden
//! record, and must not drift along with `runtime::graph`.
//!
//! Each recorded span's start time and resource track must equal the
//! oracle's placement bit-for-bit, and the per-wave makespans must sum to
//! the run total.

use bk_apps::affinity::{Affinity, AffinityIndexed};
use bk_apps::dna::DnaAssembly;
use bk_apps::kmeans::KMeans;
use bk_apps::netflix::Netflix;
use bk_apps::opinion::OpinionFinder;
use bk_apps::wordcount::WordCount;
use bk_apps::{BenchApp, HarnessConfig};
use bk_runtime::{run_bigkernel, LaunchConfig, Machine};
use bk_simcore::pipeline::oracle::schedule;
use bk_simcore::{GraphSpec, ResourceId, ResourceKind, ScheduleView, SimTime};
use std::collections::HashMap;

/// The pre-refactor pipeline, verbatim (stage order, resources and their
/// track names, reuse depth semantics). The write-back transfer ran on the
/// `"dma-d2h"` engine on parts with a second copy engine and on the shared
/// `"dma"` engine otherwise.
const GOLDEN_STAGES: [&str; 6] = [
    "addr-gen", "assemble", "transfer", "compute", "wb-xfer", "wb-apply",
];

/// The golden chain and each stage's track name.
fn golden_spec(copy_engines: u32, depth: usize) -> (GraphSpec, [&'static str; 6]) {
    use ResourceKind::*;
    let wb_dma = if copy_engines >= 2 {
        (DmaD2H, "dma-d2h")
    } else {
        (DmaH2D, "dma")
    };
    let resources = [
        (GpuAddrGen, "gpu-ag"),
        (CpuAssembly, "cpu-asm"),
        (DmaH2D, "dma"),
        (GpuCompute, "gpu-comp"),
        wb_dma,
        (CpuWriteback, "cpu-wb"),
    ];
    let spec = GraphSpec::chain(
        GOLDEN_STAGES
            .iter()
            .zip(resources)
            .map(|(&name, (kind, _))| (name, ResourceId::new(kind, 0)))
            .collect(),
    )
    .with_reuse(0, 3, depth)
    .with_reuse(3, 5, depth);
    (spec, resources.map(|(_, track)| track))
}

fn stage_index(name: &str) -> usize {
    GOLDEN_STAGES
        .iter()
        .position(|&s| s == name)
        .unwrap_or_else(|| {
            panic!("span on unknown stage {name:?}");
        })
}

/// Run one kernel pass traced and check every span against the oracle.
fn check_pass(app_name: &str, machine: &mut Machine, instance: &bk_apps::Instance, pass: usize) {
    let cfg = HarnessConfig::test_small();
    let mut bk = cfg.bigkernel.clone();
    bk.chunk_input_bytes = 16 * 1024;
    let launch = LaunchConfig::new(4, 32);

    let guard = bk_obs::trace::start();
    let result = run_bigkernel(
        machine,
        instance.kernels[pass].as_ref(),
        &instance.streams,
        launch,
        &bk,
    );
    let spans = guard.finish();
    assert!(
        !spans.is_empty(),
        "{app_name} pass {pass}: no spans recorded"
    );

    // Rebuild (chunk, stage) -> (start, duration, track) from the trace.
    // Zero-duration stages record no span; they reconstruct as ZERO rows.
    let chunks = result.chunks;
    let mut durations = vec![vec![SimTime::ZERO; GOLDEN_STAGES.len()]; chunks];
    let mut placed: HashMap<(usize, usize), (SimTime, &'static str)> = HashMap::new();
    for s in &spans {
        let stage = stage_index(s.stage);
        assert!(
            s.chunk < chunks,
            "{app_name}: span chunk {} out of range",
            s.chunk
        );
        let old = placed.insert((s.chunk, stage), (s.start, s.track));
        assert!(
            old.is_none(),
            "{app_name}: duplicate span for chunk {} {}",
            s.chunk,
            s.stage
        );
        durations[s.chunk][stage] = s.dur;
    }

    // Re-schedule wave by wave with the legacy oracle and compare.
    let per_wave = result.metrics.get("run.chunks_per_block") as usize;
    let waves = result.metrics.get("run.waves") as usize;
    assert_eq!(
        chunks,
        per_wave * waves,
        "{app_name}: waves must tile the chunk count"
    );
    let (spec, tracks) = golden_spec(machine.gpu().copy_engines, bk.buffer_depth);

    let mut time_base = SimTime::ZERO;
    let mut compared = 0usize;
    for wave in 0..waves {
        let rows = &durations[wave * per_wave..(wave + 1) * per_wave];
        let oracle = schedule(&spec, rows);
        for (local, row) in rows.iter().enumerate() {
            for (stage, dur) in row.iter().enumerate() {
                if dur.is_zero() {
                    continue;
                }
                let slot = oracle.slot(local, stage);
                let chunk = wave * per_wave + local;
                let (start, track) = placed[&(chunk, stage)];
                assert_eq!(
                    start,
                    time_base + slot.start,
                    "{app_name} pass {pass}: chunk {chunk} {} placed differently",
                    GOLDEN_STAGES[stage],
                );
                assert_eq!(
                    track, tracks[stage],
                    "{app_name} pass {pass}: chunk {chunk} {} on the wrong resource",
                    GOLDEN_STAGES[stage],
                );
                compared += 1;
            }
        }
        time_base += oracle.makespan();
    }
    assert_eq!(
        compared,
        placed.len(),
        "{app_name}: every span must be checked"
    );
    assert_eq!(
        time_base, result.total,
        "{app_name} pass {pass}: summed wave makespans must equal the run total"
    );
}

fn golden_check(app: &dyn BenchApp) {
    let mut machine = Machine::test_platform();
    let instance = app.instantiate(&mut machine, 192 * 1024, 42);
    for pass in 0..instance.kernels.len() {
        check_pass(app.spec().name, &mut machine, &instance, pass);
    }
    if let Err(e) = (instance.verify)(&machine) {
        panic!("{} failed verification: {e}", app.spec().name);
    }
}

#[test]
fn graph_schedule_matches_legacy_scheduler_for_every_app() {
    let apps: Vec<Box<dyn BenchApp + Sync>> = vec![
        Box::new(KMeans::default()),
        Box::new(WordCount::default()),
        Box::new(Netflix),
        Box::new(OpinionFinder::default()),
        Box::new(DnaAssembly::default()),
        Box::new(Affinity::default()),
        Box::new(AffinityIndexed::default()),
    ];
    for app in apps {
        golden_check(app.as_ref());
    }
}

/// The second-copy-engine rule must survive the refactor too: on a
/// tesla-like device the write-back transfer runs on its own engine, and
/// the graph schedule still matches the oracle configured the legacy way.
#[test]
fn graph_schedule_matches_legacy_scheduler_with_two_copy_engines() {
    let mut machine = Machine::test_platform();
    machine.devices[0].copy_engines = 2;
    let app = WordCount::default();
    let instance = app.instantiate(&mut machine, 192 * 1024, 42);
    check_pass("Word Count (2 engines)", &mut machine, &instance, 0);
}
