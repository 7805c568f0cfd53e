//! Stall attribution: typed causes, `stall.<stage>.<cause>` counters, and
//! [`record_schedule`], the one walker that turns a [`Schedule`] into
//! spans + metrics in one pass (its chunk ids plus the wave's chunk base
//! name each span's run-global chunk).
//!
//! Every scheduler records in its [`Schedule`] *why* each
//! slot started later than its dataflow predecessor finished — a
//! [`StallKind`]: either a buffer-reuse edge (§IV.C's `addr-gen(n)` waits
//! for `compute(n−3)` rule, implemented by flag signalling over PCIe) or
//! in-order contention on the slot's resource. This module maps those raw
//! kinds onto the pipeline's hardware vocabulary ([`StallCause`]) by the
//! stalled resource's [`ResourceKind`], whatever its device: the DMA
//! in-order queue, CPU thread availability (assembly, staging, write-back
//! apply), GPU queue pressure, the fully-serialized single-buffer resource,
//! or the buffer-reuse/flag wait.

use crate::metrics::MetricsRegistry;
use crate::names;
use crate::trace::{self, SpanRecord};
use bk_simcore::{ResourceKind, Schedule, ScheduleView, SimTime, StallKind};

/// Why a pipeline stage instance could not start when its input was ready.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallCause {
    /// Buffer-reuse rule: the producer waited for the consumer of chunk
    /// `n − depth` to release the buffer (the paper's flag/barrier wait).
    BufferReuse,
    /// The in-order DMA queue was still transferring earlier chunks.
    DmaQueue,
    /// No CPU thread (assembly, staging, write-back apply) was available.
    CpuThread,
    /// The GPU half (addr-gen or compute queue) was still busy.
    GpuQueue,
    /// The single shared resource of a fully serialized baseline.
    Serial,
    /// Injected fault recovery: wasted attempts plus retry backoff added by
    /// a fault plan (`bk_runtime::fault`). Never produced by
    /// [`StallCause::from_kind`] — fault delays are injected into stage
    /// durations before scheduling, not attributed by the scheduler; the
    /// fault context records them directly.
    Fault,
    /// Streaming ingestion blocked on the bounded inter-stage queue's
    /// high-watermark: a window's bytes had fully arrived but the pipeline
    /// still held `queue_bound` unretired windows, so admission waited for
    /// the oldest to drain (`bk_runtime::stream`). Like [`Fault`](Self::Fault)
    /// this is never produced by [`StallCause::from_kind`] — the streaming
    /// runner attributes it directly on the `ingest` stage.
    Backpressure,
}

impl StallCause {
    /// Stable label used in counter names, span records and reports.
    pub fn label(self) -> &'static str {
        match self {
            StallCause::BufferReuse => "buffer-reuse",
            StallCause::DmaQueue => "dma-queue",
            StallCause::CpuThread => "cpu-thread",
            StallCause::GpuQueue => "gpu-queue",
            // Named after the one resource this cause waits on.
            StallCause::Serial => ResourceKind::Serial.name(),
            StallCause::Fault => "fault",
            StallCause::Backpressure => "backpressure",
        }
    }

    /// Classify a scheduler-level stall by the kind of the stalled
    /// resource. Every device's unit of a kind feeds the same cause bucket.
    pub fn from_kind(kind: StallKind) -> StallCause {
        use ResourceKind::*;
        match kind {
            StallKind::Reuse { .. } => StallCause::BufferReuse,
            StallKind::Resource(r) => match r.kind {
                DmaH2D | DmaD2H => StallCause::DmaQueue,
                CpuAssembly | CpuWriteback | CpuStage => StallCause::CpuThread,
                GpuAddrGen | GpuCompute | Gpu => StallCause::GpuQueue,
                Serial => StallCause::Serial,
            },
        }
    }
}

/// Strip a fused-pass `p<i>.` qualifier from a stage name. Fused multi-pass
/// graphs name their stages `p0.addr-gen` … `p3.wb-apply`; every pass's copy
/// of a role feeds the same span histogram and stall buckets, exactly like
/// the `dev<i>.` resource qualifier. Names without the qualifier pass
/// through unchanged.
pub fn stage_role(name: &str) -> &str {
    if let Some(rest) = name.strip_prefix('p') {
        if let Some((idx, role)) = rest.split_once('.') {
            if !idx.is_empty() && idx.bytes().all(|b| b.is_ascii_digit()) {
                return role;
            }
        }
    }
    name
}

/// Walk one computed wave [`Schedule`] and record, for every non-empty slot:
///
/// * a [`SpanRecord`] on the slot's resource track (only collected while a
///   [`trace::start`] guard is live — see the crate docs; the track names
///   are composed once per stage, and only then),
/// * the span-duration histogram `hist.span.<stage>`,
/// * if the slot stalled, the `stall.<stage>.<cause>` counter (simulated
///   nanoseconds), plus the per-wait `hist.reuse-wait.<stage>` histogram
///   when the cause is the buffer-reuse rule.
///
/// `chunk_base` and `time_base` place the wave in the whole run: the
/// runtime schedules waves back to back, so the schedule's chunk ids
/// ([`Schedule::chunk_ids`], wave-local) and times are offset into
/// run-global ones. Metrics are recorded unconditionally and derive purely
/// from the deterministic schedule, so tracing on/off cannot change any
/// simulated result.
pub fn record_schedule(
    sched: &Schedule,
    chunk_base: usize,
    time_base: SimTime,
    metrics: &mut MetricsRegistry,
) {
    let tracks: Option<Vec<&'static str>> = trace::enabled().then(|| {
        sched
            .spec
            .stages
            .iter()
            .map(|s| names::resource(s.resource))
            .collect()
    });
    for chunk in 0..sched.num_chunks() {
        for stage in 0..sched.num_stages() {
            let slot = sched.slot(chunk, stage);
            let dur = slot.duration();
            if dur.is_zero() {
                continue;
            }
            let full_name = sched.stage_name(stage);
            let name = stage_role(full_name);
            metrics.observe(names::span_hist(name), dur.nanos() as u64);
            let meta = sched.slot_meta(chunk, stage);
            let stall = meta.kind.map(|k| {
                let cause = StallCause::from_kind(k);
                if cause == StallCause::BufferReuse {
                    metrics.observe(names::reuse_wait_hist(name), meta.stall.nanos() as u64);
                }
                metrics.add(names::stall(name, cause), meta.stall.nanos() as u64);
                (cause.label(), meta.stall)
            });
            if let Some(tracks) = &tracks {
                trace::record(&SpanRecord {
                    track: tracks[stage],
                    stage: full_name,
                    chunk: chunk_base + sched.chunk_ids[chunk],
                    start: time_base + slot.start,
                    dur,
                    stall,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bk_simcore::{pipeline, GraphSpec, ResourceId, SimTime};

    fn t(us: f64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn sched() -> pipeline::Schedule {
        // Two stages on the DMA engine and the compute queue plus a reuse
        // edge, so both stall flavours appear.
        let spec = GraphSpec::chain(vec![
            ("transfer", ResourceId::new(ResourceKind::DmaH2D, 0)),
            ("compute", ResourceId::new(ResourceKind::GpuCompute, 0)),
        ])
        .with_reuse(0, 1, 1);
        pipeline::schedule(spec, &vec![vec![t(1.0), t(3.0)]; 4])
    }

    #[test]
    fn cause_classification_covers_the_resource_vocabulary() {
        use ResourceKind::*;
        use StallCause::*;
        for kind in ResourceKind::ALL {
            let want = match kind {
                DmaH2D | DmaD2H => DmaQueue,
                CpuAssembly | CpuStage | CpuWriteback => CpuThread,
                GpuAddrGen | GpuCompute | Gpu => GpuQueue,
                ResourceKind::Serial => StallCause::Serial,
            };
            for device in [0, 3] {
                let r = ResourceId::new(kind, device);
                assert_eq!(StallCause::from_kind(StallKind::Resource(r)), want, "{r:?}");
            }
        }
        assert_eq!(
            StallCause::from_kind(StallKind::Reuse { consumer: 3 }),
            BufferReuse
        );
    }

    #[test]
    fn stall_counter_names_are_interned() {
        use StallCause::*;
        for (stage, cause, want) in [
            ("addr-gen", BufferReuse, "stall.addr-gen.buffer-reuse"),
            ("stage-pin", Serial, "stall.stage-pin.serial"),
            ("compute", Fault, "stall.compute.fault"),
            ("ingest", Backpressure, "stall.ingest.backpressure"),
        ] {
            assert_eq!(names::stall(stage, cause), want);
        }
        assert!(std::ptr::eq(
            names::stall("compute", Fault),
            names::stall("compute", Fault)
        ));
    }

    #[test]
    fn record_schedule_rolls_stalls_into_counters_and_histograms() {
        let s = sched();
        let mut m = MetricsRegistry::new();
        record_schedule(&s, 0, SimTime::ZERO, &mut m);
        // 4 chunks × 2 stages, all non-empty.
        assert_eq!(m.hist("hist.span.transfer").unwrap().count(), 4);
        assert_eq!(m.hist("hist.span.compute").unwrap().count(), 4);
        // Chunks 1.. stall on the reuse edge before transferring.
        assert!(m.get("stall.transfer.buffer-reuse") > 0);
        // The stall totals must equal the scheduler's per-slot gaps.
        let want: u64 = (0..s.num_chunks())
            .map(|c| s.slot_meta(c, 0).stall.nanos() as u64)
            .sum();
        assert_eq!(m.get("stall.transfer.buffer-reuse"), want);
    }

    #[test]
    fn reuse_wait_histogram_counts_each_stalled_wait() {
        let s = sched();
        let mut m = MetricsRegistry::new();
        record_schedule(&s, 0, SimTime::ZERO, &mut m);
        // One wait per reuse-stalled slot, summing to the stall counter.
        let stalled = (0..s.num_chunks())
            .filter(|&c| matches!(s.slot_meta(c, 0).kind, Some(StallKind::Reuse { .. })))
            .count() as u64;
        let h = m.hist("hist.reuse-wait.transfer").expect("histogram");
        assert!(stalled > 0);
        assert_eq!(h.count(), stalled);
        assert_eq!(h.sum(), m.get("stall.transfer.buffer-reuse"));
        // The non-reuse stage recorded no reuse waits.
        assert!(m.hist("hist.reuse-wait.compute").is_none());
    }

    #[test]
    fn fused_stage_names_fold_onto_roles() {
        assert_eq!(stage_role("p0.addr-gen"), "addr-gen");
        assert_eq!(stage_role("p3.wb-apply"), "wb-apply");
        assert_eq!(stage_role("addr-gen"), "addr-gen");
        // Not a fused qualifier: no digits / no dot.
        assert_eq!(stage_role("prefetch"), "prefetch");
        assert_eq!(stage_role("px.compute"), "px.compute");
    }

    #[test]
    fn reuse_wait_hist_names_are_interned() {
        assert_eq!(
            names::reuse_wait_hist("addr-gen"),
            "hist.reuse-wait.addr-gen"
        );
        assert_eq!(names::reuse_wait_hist("compute"), "hist.reuse-wait.compute");
        assert_eq!(names::span_hist("stage-pin"), "hist.span.stage-pin");
    }

    #[test]
    fn record_schedule_offsets_chunks_and_time() {
        let s = sched();
        let g = crate::trace::start();
        record_schedule(
            &s,
            100,
            SimTime::from_micros(50.0),
            &mut MetricsRegistry::new(),
        );
        let spans = g.finish();
        if cfg!(feature = "trace") {
            assert_eq!(spans.len(), 8);
            assert_eq!(spans[0].chunk, 100);
            assert_eq!(spans[0].track, "dma");
            assert!((spans[0].start.micros() - 50.0).abs() < 1e-9);
            // Every positive inter-stage gap carries a cause.
            for sp in &spans {
                if let Some((cause, gap)) = sp.stall {
                    assert!(!gap.is_zero());
                    assert!(!cause.is_empty());
                }
            }
            assert!(spans.iter().any(|sp| sp.stall.is_some()));
        } else {
            assert!(spans.is_empty());
        }
    }

    #[test]
    fn metrics_identical_with_and_without_tracing() {
        let s = sched();
        let mut with = MetricsRegistry::new();
        let g = crate::trace::start();
        record_schedule(&s, 0, SimTime::ZERO, &mut with);
        drop(g.finish());
        let mut without = MetricsRegistry::new();
        record_schedule(&s, 0, SimTime::ZERO, &mut without);
        assert_eq!(with, without);
    }
}
