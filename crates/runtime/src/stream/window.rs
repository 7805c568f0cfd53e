//! Windowing: cut the live stream into record-aligned execution windows.
//!
//! A window is an absolute byte range of the primary stream that runs
//! through the batch pipeline ([`run_bigkernel`](crate::pipeline::run_bigkernel)'s
//! body, restricted to that range) as one unit. The
//! planner guarantees the properties the streamed ≡ batch contract rests
//! on: windows are non-empty, disjoint, cover `0..len` exactly, and every
//! interior boundary is record-aligned — so no record ever straddles two
//! windows, and the per-window partitions tile the stream exactly like one
//! whole-stream partition does.

use super::source::Source;
use bk_simcore::SimTime;
use std::ops::Range;

/// How the ingestion layer cuts the arriving stream into windows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WindowPolicy {
    /// Close a window every `n` bytes (rounded down to a whole number of
    /// records; at least one record).
    ByBytes(u64),
    /// Close a window every `n` records. For variable-length (delimited)
    /// streams the runner cannot know record boundaries without scanning,
    /// so every byte conservatively counts as a potential record start and
    /// `ByRecords(n)` degenerates to [`ByBytes`](Self::ByBytes)`(n)`.
    ByRecords(u64),
    /// Close a window at every multiple of the interval in *arrival* time:
    /// window `k` covers the bytes that arrived in `(k·dt, (k+1)·dt]`.
    /// Quiet intervals (no new whole record) produce no window.
    ByInterval(SimTime),
}

impl WindowPolicy {
    /// Short stable label for reports and bench JSON.
    pub fn label(&self) -> &'static str {
        match self {
            WindowPolicy::ByBytes(_) => "by-bytes",
            WindowPolicy::ByRecords(_) => "by-records",
            WindowPolicy::ByInterval(_) => "by-interval",
        }
    }

    /// Panic on degenerate parameters.
    pub fn validate(&self) {
        match *self {
            WindowPolicy::ByBytes(n) => assert!(n > 0, "window bytes must be positive"),
            WindowPolicy::ByRecords(n) => assert!(n > 0, "window records must be positive"),
            WindowPolicy::ByInterval(dt) => {
                assert!(!dt.is_zero(), "window interval must be positive")
            }
        }
    }
}

/// Largest byte count `b <= len` with `arrival(b) <= t`, found by binary
/// search over the monotone curve.
fn arrived_by(source: &dyn Source, len: u64, t: SimTime) -> u64 {
    let (mut lo, mut hi) = (0u64, len);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if source.arrival(mid) <= t {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// Plan the execution windows for a `len`-byte stream under `policy`.
///
/// `record_size` is the unit every interior boundary must align to (the
/// kernel's fixed record size, or the least common multiple across passes;
/// `None` for variable-length streams where any boundary is legal). The
/// returned windows are non-empty, disjoint, ascending and cover `0..len`;
/// the final window always ends at `len`, absorbing any trailing partial
/// record exactly as a batch partition would.
pub fn plan_windows(
    len: u64,
    record_size: Option<u64>,
    policy: &WindowPolicy,
    source: &dyn Source,
) -> Vec<Range<u64>> {
    policy.validate();
    if len == 0 {
        return Vec::new();
    }
    let unit = record_size.unwrap_or(1);
    let aligned = |b: u64| (b / unit) * unit;
    let mut cuts: Vec<u64> = Vec::new();
    match *policy {
        WindowPolicy::ByBytes(n) | WindowPolicy::ByRecords(n) => {
            // ByRecords: n records of `unit` bytes each (n bytes when
            // variable-length — see the enum docs).
            let step = match *policy {
                WindowPolicy::ByRecords(r) if record_size.is_some() => {
                    r.saturating_mul(unit).max(unit)
                }
                _ => aligned(n).max(unit),
            };
            let mut b = step;
            while b < len {
                cuts.push(b);
                b += step;
            }
        }
        WindowPolicy::ByInterval(dt) => {
            let mut k = 1u64;
            loop {
                let b = aligned(arrived_by(source, len, dt * k as f64));
                if b >= len {
                    break;
                }
                if b > *cuts.last().unwrap_or(&0) {
                    cuts.push(b);
                }
                // Jump to the first interval by which the next whole record
                // can have arrived — quiet stretches (source hiccups, slow
                // feeds with a fine interval) are skipped instead of
                // scanned one empty interval at a time.
                let next_t = source.arrival((b + unit).min(len));
                let reach = (next_t.secs() / dt.secs()).floor() as u64;
                k = (k + 1).max(reach);
            }
        }
    }
    let mut windows = Vec::with_capacity(cuts.len() + 1);
    let mut start = 0u64;
    for c in cuts {
        windows.push(start..c);
        start = c;
    }
    windows.push(start..len);
    debug_assert!(windows.iter().all(|w| !w.is_empty()));
    windows
}

#[cfg(test)]
mod tests {
    use super::super::source::ReplaySource;
    use super::*;

    fn check_tiling(windows: &[Range<u64>], len: u64, unit: u64) {
        assert!(!windows.is_empty());
        let mut pos = 0;
        for w in windows {
            assert_eq!(w.start, pos, "windows must be contiguous");
            assert!(w.start < w.end, "windows must be non-empty");
            pos = w.end;
        }
        assert_eq!(pos, len, "windows must cover the stream");
        for w in &windows[..windows.len() - 1] {
            assert_eq!(w.end % unit, 0, "interior boundaries must align");
        }
    }

    #[test]
    fn by_bytes_cuts_on_record_boundaries() {
        let src = ReplaySource::new(1000, 1e6);
        let w = plan_windows(1000, Some(64), &WindowPolicy::ByBytes(300), &src);
        // 300 → 256-byte aligned steps; tail (incl. the partial record)
        // rides on the final window.
        check_tiling(&w, 1000, 64);
        assert_eq!(w[0], 0..256);
        assert_eq!(w.last().unwrap().end, 1000);
    }

    #[test]
    fn by_records_scales_by_the_record_size() {
        let src = ReplaySource::new(4096, 1e6);
        let w = plan_windows(4096, Some(64), &WindowPolicy::ByRecords(8), &src);
        check_tiling(&w, 4096, 64);
        assert!(w.iter().take(w.len() - 1).all(|r| r.end - r.start == 512));
        // Variable-length: degenerates to ByBytes(n).
        let v = plan_windows(4096, None, &WindowPolicy::ByRecords(1024), &src);
        check_tiling(&v, 4096, 1);
        assert_eq!(v[0], 0..1024);
    }

    #[test]
    fn by_interval_follows_the_arrival_curve() {
        // 1000 bytes/sec, 0.25 s interval → cuts every 250 bytes (aligned
        // down to 100-byte records → 200, 500, 700, ...).
        let src = ReplaySource::new(1000, 1000.0);
        let w = plan_windows(
            1000,
            Some(100),
            &WindowPolicy::ByInterval(SimTime::from_secs(0.25)),
            &src,
        );
        check_tiling(&w, 1000, 100);
        assert_eq!(w[0], 0..200);
        assert_eq!(w[1], 200..500);
        assert_eq!(w[2], 500..700);
        assert_eq!(w[3], 700..1000);
    }

    #[test]
    fn tiny_window_parameters_still_make_whole_record_windows() {
        let src = ReplaySource::new(640, 1e6);
        let w = plan_windows(640, Some(64), &WindowPolicy::ByBytes(1), &src);
        check_tiling(&w, 640, 64);
        assert!(w.iter().all(|r| r.end - r.start == 64));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bytes_policy_rejected() {
        let src = ReplaySource::new(10, 1.0);
        plan_windows(10, None, &WindowPolicy::ByBytes(0), &src);
    }

    #[test]
    fn empty_stream_plans_no_windows() {
        let src = ReplaySource::new(0, 1.0);
        assert!(plan_windows(0, None, &WindowPolicy::ByBytes(10), &src).is_empty());
    }
}
