//! Plain-text rendering helpers for the experiment report.

use bk_simcore::{Schedule, ScheduleView};
use std::fmt::Write as _;

/// Format a speedup like the paper's log axis labels ("2.4x").
pub fn speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// Geometric mean of positive values; 0 on empty input.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// A markdown table: the `" | "`-separated `header`, the separator line,
/// then one line per row (each row's cells already joined by `" | "`).
pub(crate) fn table(header: &str, rows: impl IntoIterator<Item = String>) -> String {
    let columns = header.split(" | ").count();
    let mut md = format!("| {header} |\n|{}\n", "---|".repeat(columns));
    for row in rows {
        let _ = writeln!(md, "| {row} |");
    }
    md
}

/// An ASCII Gantt chart of a schedule: one row per stage, time across
/// `width` cells, a digit marking which chunk (mod 10) occupies each cell,
/// and an axis line ending at the makespan — the textual form of the
/// paper's Fig. 2 pipeline diagram. Empty for an empty schedule.
pub fn gantt(schedule: &Schedule, width: usize) -> String {
    let mut out = String::new();
    let makespan = schedule.makespan();
    if makespan.is_zero() || width == 0 {
        return out;
    }
    let cell = makespan.secs() / width as f64;
    let name_w = (0..schedule.num_stages())
        .map(|s| schedule.stage_name(s).len())
        .max()
        .unwrap_or(0);
    for stage in 0..schedule.num_stages() {
        let mut row = vec![b'.'; width];
        for chunk in 0..schedule.num_chunks() {
            let slot = schedule.slot(chunk, stage);
            if slot.duration().is_zero() {
                continue;
            }
            let a = (slot.start.secs() / cell).floor() as usize;
            let b = ((slot.finish.secs() / cell).ceil() as usize).min(width);
            let digit = b'0' + (chunk % 10) as u8;
            for c in row.iter_mut().take(b).skip(a.min(width)) {
                *c = digit;
            }
        }
        let _ = writeln!(
            out,
            "{:>name_w$} |{}|",
            schedule.stage_name(stage),
            String::from_utf8(row).expect("ascii"),
        );
    }
    let _ = writeln!(out, "{:>name_w$}  0{:>width$}", "", makespan.to_string());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bk_simcore::pipeline::schedule;
    use bk_simcore::{GraphSpec, ResourceId, ResourceKind, SimTime};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn xfer_comp() -> GraphSpec {
        GraphSpec::chain(vec![
            ("xfer", ResourceId::new(ResourceKind::DmaH2D, 0)),
            ("comp", ResourceId::new(ResourceKind::GpuCompute, 0)),
        ])
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_format() {
        assert_eq!(speedup(2.0), "2.00x");
    }

    #[test]
    fn table_has_header_separator_and_rows() {
        let md = table("a | b", ["1 | 2".to_string(), "3 | 4".to_string()]);
        assert_eq!(md, "| a | b |\n|---|---|\n| 1 | 2 |\n| 3 | 4 |\n");
    }

    #[test]
    fn gantt_shows_overlap() {
        let s = schedule(xfer_comp(), &vec![vec![t(1.0), t(1.0)]; 3]);
        let g = gantt(&s, 40);
        assert_eq!(g.lines().count(), 3); // two stages + axis
        assert!(g.contains("xfer |"));
        assert!(g.contains('0') && g.contains('1') && g.contains('2'));
        // Steady-state overlap: the comp row starts after the xfer row.
        let xfer_row = g.lines().next().unwrap();
        let comp_row = g.lines().nth(1).unwrap();
        let first_busy = |row: &str| row.find(|c: char| c.is_ascii_digit()).unwrap();
        assert!(first_busy(comp_row) > first_busy(xfer_row));
        assert!(g.lines().nth(2).unwrap().ends_with("4.000s"), "{g}");
    }

    #[test]
    fn empty_schedule_renders_empty() {
        let s = schedule(xfer_comp(), &[]);
        assert!(gantt(&s, 20).is_empty());
    }
}
