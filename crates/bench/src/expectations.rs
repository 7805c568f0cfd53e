//! The paper's reported numbers, for side-by-side comparison in the
//! experiment output (BigKernel, IPDPS 2014).

/// Table II: performance improvement due to pattern recognition
/// (`None` = "NA", the indexed variant's data-dependent addresses).
pub fn table2_pct(app: &str) -> Option<u32> {
    match app {
        "K-means" => Some(31),
        "Word Count" => Some(66),
        "Netflix" => Some(3),
        "Opinion Finder" => Some(6),
        "DNA Assembly" => Some(7),
        "MasterCard Affinity" => Some(57),
        "MasterCard Affinity (indexed)" => None,
        _ => None,
    }
}

/// §VI headline claims (averages / maxima over the seven configurations).
pub mod headline {
    /// BigKernel speedup over double buffering: average.
    pub const BK_VS_DB_AVG: f64 = 1.7;
    /// BigKernel speedup over double buffering: maximum.
    pub const BK_VS_DB_MAX: f64 = 3.1;
    /// BigKernel speedup over single buffering: average.
    pub const BK_VS_SB_AVG: f64 = 2.6;
    /// BigKernel speedup over single buffering: maximum.
    pub const BK_VS_SB_MAX: f64 = 4.6;
    /// BigKernel speedup over the multi-threaded CPU: average.
    pub const BK_VS_CPU_MT_AVG: f64 = 3.0;
    /// BigKernel speedup over the multi-threaded CPU: maximum.
    pub const BK_VS_CPU_MT_MAX: f64 = 7.2;
}

/// Qualitative expectations for Fig. 4(b) / Fig. 5 / Fig. 6, quoted from
/// the paper's §VI discussion.
pub fn discussion_note(app: &str) -> &'static str {
    match app {
        "K-means" => "benefits from all three features; writes mapped data",
        "Word Count" => {
            "computation-dominant (centralized hash table); gains come from \
             overlap + coalescing, transfer volume cannot shrink"
        }
        "Netflix" => "communication-heavy; large gain from transfer-volume reduction",
        "Opinion Finder" => "computation-dominant (heavy lexical analysis); modest gains",
        "DNA Assembly" => "records too large to coalesce in original form; big coalescing benefit",
        "MasterCard Affinity" => "whole input must be transferred; only overlap + coalescing help",
        "MasterCard Affinity (indexed)" => {
            "index shrinks transfers; significant speedup vs the plain variant"
        }
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_seven_rows() {
        // Table I's rows are the apps' specs; each also needs a Table II
        // policy ("NA" exactly where patterns cannot apply) and a §VI note.
        let apps = crate::all_apps();
        assert_eq!(apps.len(), 7);
        for app in apps {
            let spec = app.spec();
            assert_eq!(
                table2_pct(spec.name).is_some(),
                spec.pattern_applicable,
                "{}",
                spec.name
            );
            assert!(!discussion_note(spec.name).is_empty(), "{}", spec.name);
        }
    }

    #[test]
    fn table2_matches_paper() {
        assert_eq!(table2_pct("Word Count"), Some(66));
        assert_eq!(table2_pct("MasterCard Affinity (indexed)"), None);
    }
}
