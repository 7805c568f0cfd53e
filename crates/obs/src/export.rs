//! Exporters: Chrome/Perfetto `trace.json` and a text utilization report.
//!
//! The Chrome trace-event format is the least common denominator both
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load directly:
//! an object `{"traceEvents": [...]}` of `"ph":"X"` complete events with
//! microsecond `ts`/`dur`, one thread (track) per hardware resource, plus
//! `"ph":"M"` metadata events naming the tracks. Everything here is written
//! with the workspace's hand-rolled JSON (no serde in the dependency set),
//! with deterministic ordering: one process per simulated device (pid =
//! device + 1, named `bigkernel-sim` / `bigkernel-sim dev<i>`), tracks in
//! canonical lane order within each device — the resources in
//! [`ResourceKind`] declaration order, then the marker lanes — and spans
//! in recorded order.
//! Canonical — not first-seen — track order matters on multi-GPU traces:
//! shards interleave recording, so first-seen order would shuffle lanes
//! from run to run.

use crate::critpath::CRITPATH_TRACK;
use crate::trace::SpanRecord;
use bk_simcore::{ResourceKind, SimTime};
use std::fmt::Write as _;

/// Escape a string for a JSON literal. Span/track names are static
/// identifiers today, but the exporter should not silently corrupt output if
/// that ever changes.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Split an optional `dev<i>.` shard prefix off a track name; unprefixed
/// tracks belong to device 0.
fn track_device(track: &str) -> (usize, &str) {
    if let Some(rest) = track.strip_prefix("dev") {
        if let Some(dot) = rest.find('.') {
            if let Ok(d) = rest[..dot].parse::<usize>() {
                return (d, &rest[dot + 1..]);
            }
        }
    }
    (0, track)
}

/// Lane rank of a track within one device's process: the resources in
/// [`ResourceKind`] declaration order, then the autotune and critical-path
/// marker lanes. Tracks outside both sort after them, alphabetically.
fn rank(base: &str) -> usize {
    let markers = ["autotune", CRITPATH_TRACK];
    ResourceKind::ALL
        .iter()
        .map(|k| k.name())
        .chain(markers)
        .position(|lane| lane == base)
        .unwrap_or(ResourceKind::ALL.len() + markers.len())
}

/// Distinct tracks in canonical order: device ascending, then pipeline
/// rank within the device — stable no matter what order the spans were
/// recorded in, so multi-GPU traces never shuffle lanes between runs.
fn tracks(spans: &[SpanRecord]) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    for s in spans {
        if !out.contains(&s.track) {
            out.push(s.track);
        }
    }
    out.sort_by(|a, b| {
        let (da, ba) = track_device(a);
        let (db, bb) = track_device(b);
        da.cmp(&db).then(rank(ba).cmp(&rank(bb))).then(ba.cmp(bb))
    });
    out
}

/// Render spans as a Chrome trace-event JSON document (Perfetto-loadable).
/// Each simulated device is its own process (pid = device + 1) so replica
/// lanes group under their device instead of interleaving in one flat list.
pub fn to_chrome_json(spans: &[SpanRecord]) -> String {
    let tracks = tracks(spans);
    // tids are globally unique (position in the canonical order + 1); pids
    // come from the `dev<i>.` track prefix.
    let ids = |t: &str| {
        let pos = tracks.iter().position(|&x| x == t).unwrap();
        (track_device(t).0 + 1, pos + 1)
    };

    let mut out = String::new();
    out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
    let mut first = true;
    let mut push = |ev: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("    ");
        out.push_str(&ev);
    };

    let mut named_devices: Vec<usize> = Vec::new();
    for t in &tracks {
        let dev = track_device(t).0;
        if !named_devices.contains(&dev) {
            named_devices.push(dev);
            let name = if dev == 0 {
                "bigkernel-sim".to_string()
            } else {
                format!("bigkernel-sim dev{dev}")
            };
            push(
                format!(
                    "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {}, \"tid\": 0, \
                     \"args\": {{\"name\": \"{name}\"}}}}",
                    dev + 1
                ),
                &mut out,
            );
            push(
                format!(
                    "{{\"name\": \"process_sort_index\", \"ph\": \"M\", \"pid\": {}, \
                     \"tid\": 0, \"args\": {{\"sort_index\": {dev}}}}}",
                    dev + 1
                ),
                &mut out,
            );
        }
    }
    for t in &tracks {
        let (pid, tid) = ids(t);
        push(
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                esc(t)
            ),
            &mut out,
        );
        push(
            format!(
                "{{\"name\": \"thread_sort_index\", \"ph\": \"M\", \"pid\": {pid}, \
                 \"tid\": {tid}, \"args\": {{\"sort_index\": {tid}}}}}"
            ),
            &mut out,
        );
    }
    for s in spans {
        let (pid, tid) = ids(s.track);
        if s.stage == crate::trace::FAULT_MARKER_STAGE {
            // Fault-recovery markers render as thread-scoped instant events
            // pinned to the moment the faulted stage was rescheduled.
            let lost = s.stall.map_or(0.0, |(_, gap)| gap.micros());
            push(
                format!(
                    "{{\"name\": \"fault c{}\", \"cat\": \"fault\", \"ph\": \"i\", \
                     \"s\": \"t\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {:.3}, \
                     \"args\": {{\"chunk\": {}, \"lost_us\": {:.3}}}}}",
                    s.chunk,
                    s.start.micros(),
                    s.chunk,
                    lost
                ),
                &mut out,
            );
            continue;
        }
        let mut args = format!("\"chunk\": {}, \"stage\": \"{}\"", s.chunk, esc(s.stage));
        if let Some((cause, gap)) = s.stall {
            let _ = write!(
                args,
                ", \"stall_cause\": \"{}\", \"stall_us\": {:.3}",
                esc(cause),
                gap.micros()
            );
        }
        push(
            format!(
                "{{\"name\": \"{} c{}\", \"cat\": \"stage\", \"ph\": \"X\", \"pid\": {pid}, \
                 \"tid\": {tid}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{{}}}}}",
                esc(s.stage),
                s.chunk,
                s.start.micros(),
                s.dur.micros(),
                args
            ),
            &mut out,
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Fraction of `total_busy` covered by the recorded spans (the acceptance
/// gauge: the trace must account for ≥ 99% of simulated busy time).
pub fn busy_coverage(spans: &[SpanRecord], total_busy: SimTime) -> f64 {
    if total_busy.is_zero() {
        return if spans.is_empty() { 1.0 } else { 0.0 };
    }
    let covered: SimTime = spans.iter().map(|s| s.dur).sum();
    covered.ratio(total_busy)
}

/// Plain-text utilization / bubble report: per-track busy time and
/// utilization over the traced window, plus the top stall causes by total
/// stalled simulated time.
pub fn text_report(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    if spans.is_empty() {
        out.push_str("no spans recorded\n");
        return out;
    }
    let t0 = spans
        .iter()
        .map(|s| s.start)
        .fold(spans[0].start, SimTime::min);
    let t1 = spans
        .iter()
        .map(|s| s.start + s.dur)
        .fold(SimTime::ZERO, SimTime::max);
    let window = t1.saturating_sub(t0);

    let _ = writeln!(
        out,
        "trace window: {window}  ({} spans on {} tracks)",
        spans.len(),
        tracks(spans).len()
    );
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>12} {:>7} {:>12}",
        "track", "spans", "busy", "util", "bubble"
    );
    for t in tracks(spans) {
        let busy: SimTime = spans.iter().filter(|s| s.track == t).map(|s| s.dur).sum();
        let n = spans.iter().filter(|s| s.track == t).count();
        let util = if window.is_zero() {
            0.0
        } else {
            busy.ratio(window)
        };
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>12} {:>6.1}% {:>12}",
            t,
            n,
            format!("{busy}"),
            util * 100.0,
            format!("{}", window.saturating_sub(busy)),
        );
    }

    // Top stall causes: aggregate by (stage, cause), sort by stalled time.
    let mut totals: Vec<(String, SimTime)> = Vec::new();
    for s in spans {
        if let Some((cause, gap)) = s.stall {
            let key = format!("{}.{}", s.stage, cause);
            match totals.iter_mut().find(|(k, _)| *k == key) {
                Some((_, t)) => *t += gap,
                None => totals.push((key, gap)),
            }
        }
    }
    totals.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    if totals.is_empty() {
        let _ = writeln!(out, "no stalls: the pipeline never went hungry");
    } else {
        let _ = writeln!(out, "top stall causes (stage.cause, total stalled time):");
        for (k, t) in totals.iter().take(8) {
            let share = if window.is_zero() {
                0.0
            } else {
                t.ratio(window)
            };
            let _ = writeln!(
                out,
                "  {:<28} {:>12}  ({:.1}% of window)",
                k,
                format!("{t}"),
                share * 100.0
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans() -> Vec<SpanRecord> {
        vec![
            SpanRecord {
                track: "dma",
                stage: "transfer",
                chunk: 0,
                start: SimTime::ZERO,
                dur: SimTime::from_micros(10.0),
                stall: None,
            },
            SpanRecord {
                track: "gpu-comp",
                stage: "compute",
                chunk: 0,
                start: SimTime::from_micros(10.0),
                dur: SimTime::from_micros(30.0),
                stall: None,
            },
            SpanRecord {
                track: "dma",
                stage: "transfer",
                chunk: 1,
                start: SimTime::from_micros(40.0),
                dur: SimTime::from_micros(10.0),
                stall: Some(("buffer-reuse", SimTime::from_micros(30.0))),
            },
        ]
    }

    #[test]
    fn chrome_json_has_tracks_events_and_stalls() {
        let j = to_chrome_json(&spans());
        assert!(j.contains("\"traceEvents\""));
        assert!(j.contains("\"thread_name\""));
        assert!(j.contains("\"name\": \"dma\""));
        assert!(j.contains("\"name\": \"gpu-comp\""));
        assert!(j.contains("\"ph\": \"X\""));
        assert!(j.contains("\"transfer c1\""));
        assert!(j.contains("\"stall_cause\": \"buffer-reuse\""));
        assert!(j.contains("\"ts\": 40.000"));
        // Two metadata-named tracks → tids 1 and 2, consistent between
        // metadata and spans.
        assert!(j.contains("\"tid\": 1"));
        assert!(j.contains("\"tid\": 2"));
    }

    #[test]
    fn chrome_json_is_structurally_balanced() {
        let j = to_chrome_json(&spans());
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        let empty = to_chrome_json(&[]);
        assert!(empty.contains("\"traceEvents\""));
        assert_eq!(empty.matches('{').count(), empty.matches('}').count());
    }

    #[test]
    fn fault_markers_become_instant_events() {
        let mut s = spans();
        s.push(SpanRecord {
            track: "gpu-comp",
            stage: crate::trace::FAULT_MARKER_STAGE,
            chunk: 1,
            start: SimTime::from_micros(12.0),
            dur: SimTime::ZERO,
            stall: Some(("fault", SimTime::from_micros(7.0))),
        });
        let j = to_chrome_json(&s);
        assert!(j.contains("\"ph\": \"i\""));
        assert!(j.contains("\"fault c1\""));
        assert!(j.contains("\"cat\": \"fault\""));
        assert!(j.contains("\"lost_us\": 7.000"));
        assert!(j.contains("\"s\": \"t\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn device_prefixed_tracks_get_their_own_process() {
        let mut s = spans();
        s.push(SpanRecord {
            track: "dev1.gpu-comp",
            stage: "compute",
            chunk: 2,
            start: SimTime::from_micros(5.0),
            dur: SimTime::from_micros(10.0),
            stall: None,
        });
        let j = to_chrome_json(&s);
        // Device 0 keeps the bare process name; device 1 is a second
        // process with pid 2 and an explicit sort index.
        assert!(j.contains("\"pid\": 1, \"tid\": 0, \"args\": {\"name\": \"bigkernel-sim\"}"));
        assert!(j.contains("\"args\": {\"name\": \"bigkernel-sim dev1\"}"));
        assert!(j.contains("\"process_sort_index\""));
        // The dev1 span carries the dev1 pid.
        assert!(j.contains("\"cat\": \"stage\", \"ph\": \"X\", \"pid\": 2"));
    }

    #[test]
    fn track_order_is_canonical_not_first_seen() {
        // Record compute before transfer, on two devices, deliberately
        // interleaved: the exported lane order must still be
        // device-major pipeline order.
        let mk = |track: &'static str, start: f64| SpanRecord {
            track,
            stage: "x",
            chunk: 0,
            start: SimTime::from_micros(start),
            dur: SimTime::from_micros(1.0),
            stall: None,
        };
        let s = vec![
            mk("dev1.gpu-comp", 0.0),
            mk("gpu-comp", 1.0),
            mk("dev1.dma", 2.0),
            mk("dma", 3.0),
        ];
        assert_eq!(
            tracks(&s),
            vec!["dma", "gpu-comp", "dev1.dma", "dev1.gpu-comp"]
        );
        // Shuffled recording order yields the same lane order.
        let mut rev = s.clone();
        rev.reverse();
        assert_eq!(tracks(&rev), tracks(&s));
    }

    #[test]
    fn track_device_splits_prefixes() {
        assert_eq!(track_device("dma"), (0, "dma"));
        assert_eq!(track_device("dev3.gpu-comp"), (3, "gpu-comp"));
        assert_eq!(track_device("devoid"), (0, "devoid"));
        assert_eq!(track_device("dev9.custom"), (9, "custom"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(esc("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(esc("x\ny"), "x\\u000ay");
        assert_eq!(esc("plain"), "plain");
    }

    #[test]
    fn coverage_counts_span_time() {
        let s = spans();
        let busy = SimTime::from_micros(50.0);
        assert!((busy_coverage(&s, busy) - 1.0).abs() < 1e-12);
        assert!((busy_coverage(&s[..2], busy) - 0.8).abs() < 1e-12);
        assert_eq!(busy_coverage(&[], SimTime::ZERO), 1.0);
    }

    #[test]
    fn text_report_lists_tracks_and_top_stalls() {
        let r = text_report(&spans());
        assert!(r.contains("dma"));
        assert!(r.contains("gpu-comp"));
        assert!(r.contains("transfer.buffer-reuse"));
        assert!(r.contains("% of window"));
        assert!(text_report(&[]).contains("no spans"));
    }
}
