//! # bk-bench — experiment harness regenerating the paper's tables & figures
//!
//! Two binaries (see DESIGN.md §5):
//!
//! | binary | regenerates |
//! |---|---|
//! | `report` | the paper's evaluation, the extension experiments and the committed `BENCH_*.json` snapshots, one named markdown section each ([`report::SECTIONS`]) |
//! | `trace_export` | one span-traced run → Perfetto JSON plus a utilization/stall report |
//!
//! `report`'s sections:
//!
//! | section | regenerates |
//! |---|---|
//! | `fig4a` | Fig. 4(a) — speedup over the serial CPU implementation |
//! | `table1` | Table I — application mapped-data characteristics |
//! | `fig4b` | Fig. 4(b) — comp/comm ratio of the single-buffer implementation |
//! | `fig6` | Fig. 6 — relative completion time of each BigKernel stage |
//! | `fig5` | Fig. 5 — incremental benefit of overlap / volume reduction / coalescing |
//! | `table2` | Table II — improvement from pattern recognition |
//! | `ablation` | §IV design-choice ablations (buffer depth, sync mode, locality, chunk size, copy engines, blocks) |
//! | `sensitivity` | BigKernel over double buffering from PCIe Gen1 to an NVLink-class link |
//! | `scaling` | GPU scaling — chunks sharded across 1/2/4 replicated devices |
//! | `stages` | absolute per-stage busy times and GPU counters of every implementation |
//! | `timeline` | Fig. 2 — Gantt charts of the single-buffer, double-buffer and BigKernel stage graphs |
//! | `pipeline` | host wall clock per app + simulated stage shares, critical path, scaling and fusion → `BENCH_pipeline.json` |
//! | `chaos` | fault-rate sweep + device-kill failover → `BENCH_chaos.json` |
//! | `streaming` | continuous-ingestion window/queue sweep over the drifting apps → `BENCH_streaming.json` |
//! | `bottleneck` | critical-path blame + what-if predictions checked against re-runs |
//!
//! `report` writes each section's `BENCH_*.json` to the current directory
//! and exits 1 after writing when a section fails a gate check (a fusion
//! that saves no bytes, a streaming sweep without backpressure, a broken
//! critical-path identity).
//!
//! Both binaries accept `--bytes N` / `--mib N` (per-app input size, default
//! 32 MiB), `--seed S`, `--app SUBSTR`, `--threads N`, `--machine NAME`
//! (platform preset), `--gpus N` (replicated simulated devices) and
//! `--faults SPEC` (deterministic fault injection, DESIGN.md §11), and
//! print both our measured values and
//! the paper's reported numbers side by side. Absolute values are simulated time; the claim being
//! reproduced is the *shape* (ordering, ratios, crossovers) — see
//! EXPERIMENTS.md.

use bk_apps::{
    affinity::{Affinity, AffinityIndexed},
    dna::DnaAssembly,
    kmeans::KMeans,
    netflix::Netflix,
    opinion::OpinionFinder,
    wordcount::WordCount,
    BenchApp,
};

pub mod args;
pub mod expectations;
pub mod render;
pub mod report;

/// The paper's seven application configurations, in Table I order.
pub fn all_apps() -> Vec<Box<dyn BenchApp + Sync>> {
    vec![
        Box::new(KMeans::default()),
        Box::new(WordCount::default()),
        Box::new(Netflix),
        Box::new(OpinionFinder::default()),
        Box::new(DnaAssembly::default()),
        Box::new(Affinity::default()),
        Box::new(AffinityIndexed::default()),
    ]
}

/// Short display keys matching the paper's x-axis labels.
pub fn short_name(name: &str) -> &'static str {
    match name {
        "K-means" => "KMeans",
        "Word Count" => "WordCnt",
        "Netflix" => "Netflix",
        "Opinion Finder" => "Opinion",
        "DNA Assembly" => "DNA",
        "MasterCard Affinity" => "MCA",
        "MasterCard Affinity (indexed)" => "MCA-idx",
        // Not a Table I app: the IR-fusion showcase scenario (DESIGN.md
        // §15), used by the `pipeline` section's fusion sweep.
        "FilterCount" => "FiltCnt",
        // Streaming drift scenarios (DESIGN.md §16), used by the `streaming`
        // section only.
        "Word Count (drifting)" => "WordCnt~",
        "FilterCount (drifting)" => "FiltCnt~",
        "K-means (drifting)" => "KMeans~",
        other => {
            debug_assert!(false, "unknown app {other}");
            "?"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_apps_in_table1_order() {
        let apps = all_apps();
        assert_eq!(apps.len(), 7);
        assert_eq!(apps[0].spec().name, "K-means");
        assert_eq!(apps[6].spec().name, "MasterCard Affinity (indexed)");
        for a in &apps {
            assert!(!short_name(a.spec().name).is_empty());
        }
    }
}
