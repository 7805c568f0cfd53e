//! Mega-kernel fusion planning (MPK-style, PAPERS.md).
//!
//! Multi-pass applications (MasterCard Affinity's two launches, K-means'
//! assign + count) round-trip every intermediate over simulated PCIe when
//! each pass runs as its own one-shot pipeline: pass *a* writes an
//! intermediate back to host memory only for pass *b* to gather the same
//! bytes straight back onto the device. The fusion planner proves, from
//! per-kernel [`AccessSummary`]s, when pass *b*'s stream reads are fully
//! covered by pass *a*'s device-buffer writes — in which case the runtime
//! runs every pass through **one** multi-stage [`GraphSpec`](crate::graph::GraphSpec)
//! ([`crate::graph::pipeline_graph`]) and keeps the intermediate
//! device-resident: the covered reads skip their host-to-device transfer and
//! scratch intermediates skip their device-to-host write-back entirely.
//!
//! The analysis is deliberately conservative: a kernel without a summary, a
//! conditional or partial write, a granularity mismatch, or an intermediate
//! too large for the §IV.D occupancy budget all *refuse* fusion
//! ([`FuseRefusal`]), and the caller falls back to the unfused per-pass
//! loop. Refusal is never an error — it is the paper-faithful default.
//!
//! Functional execution is untouched by fusion: chunks still gather, DMA and
//! apply their write-backs in the same global order, so fused outputs are
//! bit-identical to unfused outputs by construction. Only the *costed*
//! transfer bytes change.

use crate::stream::{StreamArray, StreamId};

/// Maximum number of passes one fused graph supports (matches the static
/// stage-name tables in [`crate::graph`]).
pub const MAX_FUSED_PASSES: usize = 4;

/// One contiguous field within a record-periodic access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FieldSpan {
    /// Byte offset of the field within the per-record stride.
    pub offset: u64,
    /// Field width in bytes.
    pub width: u64,
}

impl FieldSpan {
    /// Exclusive end offset of the span.
    pub fn end(&self) -> u64 {
        self.offset + self.width
    }
}

/// A record-periodic access pattern on one mapped stream.
///
/// For every `unit` bytes of the kernel's primary range, the kernel accesses
/// `fields` at `record_index * stride + field.offset` in `stream` (where
/// `record_index = primary_offset / unit`). This captures every evaluated
/// kernel pair: K-means reads/writes fields of its own 64-byte records
/// (`unit == stride == 64`), Affinity's compacted pass writes one 16-byte
/// slot per 64 bytes of text (`unit == 64, stride == 16`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamAccess {
    /// The accessed mapped stream.
    pub stream: StreamId,
    /// Primary-range bytes consumed per record.
    pub unit: u64,
    /// Bytes of `stream` spanned per record.
    pub stride: u64,
    /// Accessed fields within each stride.
    pub fields: Vec<FieldSpan>,
    /// Whether the access is unconditional and complete over the partition:
    /// every record in the assigned range is accessed at exactly these
    /// fields. Only exact *writes* can cover another pass's reads.
    pub exact: bool,
}

impl StreamAccess {
    /// Total accessed bytes per record.
    pub fn bytes_per_record(&self) -> u64 {
        self.fields.iter().map(|f| f.width).sum()
    }

    /// Whether `self` (a write) provably covers `read`: same granularity,
    /// unconditional/complete, and every read field contained in the merged
    /// written spans.
    pub fn covers(&self, read: &StreamAccess) -> bool {
        if !self.exact || self.stream != read.stream {
            return false;
        }
        if self.unit != read.unit || self.stride != read.stride {
            return false;
        }
        let written = merge_spans(&self.fields);
        read.fields.iter().all(|r| {
            written
                .iter()
                .any(|w| w.offset <= r.offset && r.end() <= w.end())
        })
    }
}

/// Merge overlapping/adjacent spans into a sorted disjoint list.
fn merge_spans(fields: &[FieldSpan]) -> Vec<FieldSpan> {
    let mut spans: Vec<FieldSpan> = fields.to_vec();
    spans.sort_by_key(|f| f.offset);
    let mut out: Vec<FieldSpan> = Vec::with_capacity(spans.len());
    for f in spans {
        match out.last_mut() {
            Some(last) if f.offset <= last.end() => {
                let end = last.end().max(f.end());
                last.width = end - last.offset;
            }
            _ => out.push(f),
        }
    }
    out
}

/// Declarative summary of a kernel's mapped-stream accesses, the input to
/// dependence analysis. Kernels that cannot promise a record-periodic shape
/// (e.g. the indexed Affinity variant, whose addresses come from a
/// device-resident index) return `None` from
/// [`crate::kernel::StreamKernel::access_summary`] and refuse fusion.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessSummary {
    /// Record-periodic stream reads.
    pub reads: Vec<StreamAccess>,
    /// Record-periodic stream writes.
    pub writes: Vec<StreamAccess>,
}

/// Why the planner refused to fuse a kernel sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FuseRefusal {
    /// Fewer than two passes — nothing to fuse.
    SinglePass,
    /// More passes than the fused graph supports.
    TooManyPasses(usize),
    /// Pass `pass` publishes no access summary (data-dependent addressing).
    NoSummary {
        /// Index of the summary-less pass.
        pass: usize,
    },
    /// Pass `reader` reads a stream an earlier pass wrote, but the writes do
    /// not provably cover the reads (partial, conditional, or mismatched
    /// granularity) — the dependence cannot be kept device-resident.
    UncoveredDependence {
        /// Index of the reading pass.
        reader: usize,
        /// The stream carrying the unproven dependence.
        stream: StreamId,
    },
    /// Passes disagree on record size, so their chunk partitions differ and
    /// per-chunk residency cannot be aligned.
    MismatchedRecordSize,
    /// No pass reads an earlier pass's writes — fusing saves nothing.
    NoCoveredStream,
    /// The resident intermediate exceeds the §IV.D device-memory budget.
    ResidentFootprint {
        /// Estimated resident bytes per in-flight chunk set.
        needed: u64,
        /// Available budget in bytes.
        budget: u64,
    },
    /// A pass declares a [`barrier
    /// dependence`](crate::kernel::StreamKernel::barrier_dependence) on
    /// earlier device state, which the pass-major fused schedule satisfies
    /// only when every block is co-resident (one wave); this launch needs
    /// `waves` block fronts.
    BarrierNotCoResident {
        /// Index of the barrier-dependent pass.
        pass: usize,
        /// Block fronts the launch needs on this device.
        waves: u32,
    },
}

impl std::fmt::Display for FuseRefusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuseRefusal::SinglePass => write!(f, "single pass, nothing to fuse"),
            FuseRefusal::TooManyPasses(n) => {
                write!(
                    f,
                    "{n} passes exceed the fused-graph limit of {MAX_FUSED_PASSES}"
                )
            }
            FuseRefusal::NoSummary { pass } => {
                write!(
                    f,
                    "pass {pass} has no access summary (data-dependent addressing)"
                )
            }
            FuseRefusal::UncoveredDependence { reader, stream } => write!(
                f,
                "pass {reader} reads stream {} without provable coverage by earlier writes",
                stream.0
            ),
            FuseRefusal::MismatchedRecordSize => {
                write!(
                    f,
                    "passes disagree on record size; chunk partitions would differ"
                )
            }
            FuseRefusal::NoCoveredStream => {
                write!(f, "no cross-pass dependence found; fusion saves nothing")
            }
            FuseRefusal::ResidentFootprint { needed, budget } => write!(
                f,
                "resident intermediate needs {needed} B against a {budget} B occupancy budget"
            ),
            FuseRefusal::BarrierNotCoResident { pass, waves } => write!(
                f,
                "pass {pass} needs a global pass barrier but the launch spans {waves} waves"
            ),
        }
    }
}

/// Per-pass fusion IO: which streams each pass serves from device-resident
/// intermediates instead of PCIe.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassIo {
    /// `resident_reads[s]`: this pass's reads of `StreamId(s)` are covered
    /// by an earlier pass's writes — skip their host-to-device gather bytes.
    pub resident_reads: Vec<bool>,
    /// `skip_writeback[s]`: this pass's writes to `StreamId(s)` feed a later
    /// fused pass and the stream is scratch (dead after the run) — skip the
    /// device-to-host write-back bytes.
    pub skip_writeback: Vec<bool>,
}

impl PassIo {
    /// Whether any stream read by this pass is device-resident.
    pub fn any_resident(&self) -> bool {
        self.resident_reads.iter().any(|&b| b)
    }

    /// Whether any written stream skips its write-back.
    pub fn any_skipped_writeback(&self) -> bool {
        self.skip_writeback.iter().any(|&b| b)
    }
}

/// A proven fusion plan over an ordered kernel sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FusePlan {
    /// Number of fused passes.
    pub passes: usize,
    /// Per-pass residency decisions, indexed like the kernel sequence.
    pub io: Vec<PassIo>,
    /// The summaries the plan was proven from (for footprint estimation).
    summaries: Vec<AccessSummary>,
}

impl FusePlan {
    /// Prove a fusion plan for `summaries` (one per pass, in launch order)
    /// over `num_streams` mapped streams, of which `scratch` are dead after
    /// the run. Returns a refusal when any dependence cannot be proven
    /// device-resident.
    pub fn analyze(
        summaries: &[Option<AccessSummary>],
        num_streams: usize,
        scratch: &[StreamId],
    ) -> Result<FusePlan, FuseRefusal> {
        let passes = summaries.len();
        if passes < 2 {
            return Err(FuseRefusal::SinglePass);
        }
        if passes > MAX_FUSED_PASSES {
            return Err(FuseRefusal::TooManyPasses(passes));
        }
        let mut resolved = Vec::with_capacity(passes);
        for (i, s) in summaries.iter().enumerate() {
            match s {
                Some(s) => resolved.push(s.clone()),
                None => return Err(FuseRefusal::NoSummary { pass: i }),
            }
        }

        let is_scratch = |s: StreamId| scratch.contains(&s);
        let mut io: Vec<PassIo> = (0..passes)
            .map(|_| PassIo {
                resident_reads: vec![false; num_streams],
                skip_writeback: vec![false; num_streams],
            })
            .collect();
        let mut any_covered = false;

        for b in 1..passes {
            for read in resolved[b].reads.clone() {
                let s = read.stream.0 as usize;
                // Earlier writers of this stream, latest first.
                let mut written_earlier = false;
                let mut covered = false;
                for a in (0..b).rev() {
                    for w in &resolved[a].writes {
                        if w.stream != read.stream {
                            continue;
                        }
                        written_earlier = true;
                        if w.covers(&read) {
                            covered = true;
                        }
                    }
                    if written_earlier {
                        break; // the nearest writer decides the dependence
                    }
                }
                if written_earlier {
                    if !covered {
                        return Err(FuseRefusal::UncoveredDependence {
                            reader: b,
                            stream: read.stream,
                        });
                    }
                    if s < num_streams {
                        io[b].resident_reads[s] = true;
                    }
                    any_covered = true;
                }
            }
        }
        if !any_covered {
            return Err(FuseRefusal::NoCoveredStream);
        }

        // A pass's write skips its write-back when the stream is scratch and
        // every later read of it (if any) is device-resident — which holds
        // by construction here: an uncovered later read already refused.
        for a in 0..passes {
            for w in &resolved[a].writes {
                let s = w.stream.0 as usize;
                if s < num_streams && is_scratch(w.stream) {
                    io[a].skip_writeback[s] = true;
                }
            }
        }

        Ok(FusePlan {
            passes,
            io,
            summaries: resolved,
        })
    }

    /// Estimated device-resident intermediate bytes per `chunk_bytes` of
    /// primary input: the covered read bytes every in-flight chunk set must
    /// keep on the device (§IV.D occupancy accounting).
    pub fn resident_bytes_per_chunk(&self, chunk_bytes: u64) -> u64 {
        let mut total = 0u64;
        for (p, io) in self.io.iter().enumerate() {
            for read in &self.summaries[p].reads {
                let s = read.stream.0 as usize;
                if io.resident_reads.get(s).copied().unwrap_or(false) && read.unit > 0 {
                    total += (chunk_bytes / read.unit) * read.bytes_per_record();
                }
            }
        }
        total
    }

    /// Total mapped bytes of streams whose write-back is skipped (the PCIe
    /// volume the fusion removes on the device-to-host side), given the run's
    /// streams.
    pub fn scratch_stream_bytes(&self, streams: &[StreamArray]) -> u64 {
        let mut seen = vec![false; streams.len()];
        for io in &self.io {
            for (s, &skip) in io.skip_writeback.iter().enumerate() {
                if skip && s < seen.len() {
                    seen[s] = true;
                }
            }
        }
        streams
            .iter()
            .enumerate()
            .filter(|(i, _)| seen[*i])
            .map(|(_, a)| a.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(
        stream: u32,
        unit: u64,
        stride: u64,
        fields: &[(u64, u64)],
        exact: bool,
    ) -> StreamAccess {
        StreamAccess {
            stream: StreamId(stream),
            unit,
            stride,
            fields: fields
                .iter()
                .map(|&(offset, width)| FieldSpan { offset, width })
                .collect(),
            exact,
        }
    }

    fn kmeans_like() -> [Option<AccessSummary>; 2] {
        let assign = AccessSummary {
            reads: vec![access(0, 64, 64, &[(0, 32)], true)],
            writes: vec![access(0, 64, 64, &[(32, 8)], true)],
        };
        let count = AccessSummary {
            reads: vec![access(0, 64, 64, &[(32, 8)], true)],
            writes: vec![],
        };
        [Some(assign), Some(count)]
    }

    #[test]
    fn covered_pair_fuses() {
        let plan = FusePlan::analyze(&kmeans_like(), 1, &[]).expect("covered pair");
        assert_eq!(plan.passes, 2);
        assert!(plan.io[1].resident_reads[0]);
        assert!(
            !plan.io[0].skip_writeback[0],
            "live-out stream keeps write-back"
        );
    }

    #[test]
    fn scratch_stream_skips_writeback() {
        let a = AccessSummary {
            reads: vec![access(0, 16, 16, &[(0, 8)], true)],
            writes: vec![access(1, 16, 8, &[(0, 8)], true)],
        };
        let b = AccessSummary {
            reads: vec![access(1, 16, 8, &[(0, 8)], true)],
            writes: vec![],
        };
        let plan = FusePlan::analyze(&[Some(a), Some(b)], 2, &[StreamId(1)]).unwrap();
        assert!(plan.io[1].resident_reads[1]);
        assert!(plan.io[0].skip_writeback[1]);
        assert_eq!(plan.resident_bytes_per_chunk(1600), 800);
    }

    #[test]
    fn partial_coverage_refuses() {
        let a = AccessSummary {
            reads: vec![],
            writes: vec![access(0, 64, 64, &[(32, 4)], true)], // writes only 4 B
        };
        let b = AccessSummary {
            reads: vec![access(0, 64, 64, &[(32, 8)], true)], // reads 8 B
            writes: vec![],
        };
        assert_eq!(
            FusePlan::analyze(&[Some(a), Some(b)], 1, &[]),
            Err(FuseRefusal::UncoveredDependence {
                reader: 1,
                stream: StreamId(0)
            })
        );
    }

    #[test]
    fn conditional_write_refuses() {
        let a = AccessSummary {
            reads: vec![],
            writes: vec![access(0, 64, 64, &[(32, 8)], false)], // not exact
        };
        let b = AccessSummary {
            reads: vec![access(0, 64, 64, &[(32, 8)], true)],
            writes: vec![],
        };
        assert!(matches!(
            FusePlan::analyze(&[Some(a), Some(b)], 1, &[]),
            Err(FuseRefusal::UncoveredDependence { .. })
        ));
    }

    #[test]
    fn missing_summary_refuses() {
        let [a, _] = kmeans_like();
        assert_eq!(
            FusePlan::analyze(&[a, None], 1, &[]),
            Err(FuseRefusal::NoSummary { pass: 1 })
        );
    }

    #[test]
    fn independent_passes_refuse() {
        let a = AccessSummary {
            reads: vec![access(0, 64, 64, &[(0, 8)], true)],
            writes: vec![],
        };
        let b = AccessSummary {
            reads: vec![access(0, 64, 64, &[(8, 8)], true)],
            writes: vec![],
        };
        assert_eq!(
            FusePlan::analyze(&[Some(a), Some(b)], 1, &[]),
            Err(FuseRefusal::NoCoveredStream)
        );
    }

    #[test]
    fn single_and_too_many_refuse() {
        let [a, b] = kmeans_like();
        assert_eq!(
            FusePlan::analyze(std::slice::from_ref(&a), 1, &[]),
            Err(FuseRefusal::SinglePass)
        );
        let five = vec![a.clone(), b, a.clone(), a.clone(), a];
        assert_eq!(
            FusePlan::analyze(&five, 1, &[]),
            Err(FuseRefusal::TooManyPasses(5))
        );
    }

    #[test]
    fn merged_spans_cover_split_reads() {
        // Write (0,8)+(8,8) covers a single 16-byte read.
        let w = access(0, 64, 64, &[(0, 8), (8, 8)], true);
        let r = access(0, 64, 64, &[(2, 12)], true);
        assert!(w.covers(&r));
        let r2 = access(0, 64, 64, &[(12, 8)], true); // runs past 16
        assert!(!w.covers(&r2));
    }

    #[test]
    fn refusals_display() {
        for r in [
            FuseRefusal::SinglePass,
            FuseRefusal::TooManyPasses(9),
            FuseRefusal::NoSummary { pass: 1 },
            FuseRefusal::UncoveredDependence {
                reader: 1,
                stream: StreamId(2),
            },
            FuseRefusal::MismatchedRecordSize,
            FuseRefusal::NoCoveredStream,
            FuseRefusal::ResidentFootprint {
                needed: 10,
                budget: 5,
            },
            FuseRefusal::BarrierNotCoResident { pass: 1, waves: 2 },
        ] {
            assert!(!r.to_string().is_empty());
        }
    }
}
