//! Host-clock spans around the benchmark's calls into each layer.
//!
//! Every timed iteration is one root span (`iteration`); each call into a
//! layer (`instantiate`, a pipeline run, `verify`, critical-path analysis)
//! is a child span of it. Durations are always accumulated per layer, since
//! the end-to-end host metrics need them; the span records themselves are
//! kept only for traced iterations and written at exit as Chrome-trace JSON,
//! which loads beside the simulator's own Perfetto trace.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span of one iteration.
const ITERATION: &str = "iteration";

/// One closed span, in microseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    /// Index of the parent span in [`Recorder::spans`]; `None` for roots.
    parent: Option<usize>,
    iteration: usize,
}

/// Host time of one finished iteration.
#[derive(Clone, Debug, Default)]
pub struct IterationTimes {
    /// Wall seconds of the whole iteration.
    pub wall_s: f64,
    /// Seconds per layer span name, summed over the iteration's calls.
    pub layers: BTreeMap<&'static str, f64>,
    /// Wall seconds no layer span covers.
    pub other_s: f64,
}

/// Span recorder for one benchmark process.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// The iteration being timed, if any.
    open: Option<OpenIteration>,
}

struct OpenIteration {
    id: usize,
    start: Instant,
    /// Whether the spans are kept for the trace file.
    keep: bool,
    /// Index of the root span in `Recorder::spans` (when kept).
    root: usize,
    /// Child spans as (name, start, end) in seconds since `start`.
    children: Vec<(&'static str, f64, f64)>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: None,
        }
    }
}

impl Recorder {
    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Open iteration `id`; `keep` records its spans for the trace file.
    pub fn begin(&mut self, id: usize, keep: bool) {
        assert!(self.open.is_none(), "iterations do not nest");
        let start = Instant::now();
        let root = self.spans.len();
        if keep {
            let at = self.us(start);
            self.spans.push(Span {
                name: ITERATION,
                start_us: at,
                end_us: at,
                parent: None,
                iteration: id,
            });
        }
        self.open = Some(OpenIteration {
            id,
            start,
            keep,
            root,
            children: Vec::new(),
        });
    }

    /// Run `f` inside a child span `name` of the open iteration.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let (start_us, end_us) = (self.us(t0), self.us(t1));
        let it = self.open.as_mut().expect("span outside an iteration");
        it.children.push((
            name,
            t0.duration_since(it.start).as_secs_f64(),
            t1.duration_since(it.start).as_secs_f64(),
        ));
        if it.keep {
            let (root, iteration) = (it.root, it.id);
            self.spans.push(Span {
                name,
                start_us,
                end_us,
                parent: Some(root),
                iteration,
            });
        }
        out
    }

    /// Close the open iteration and return its host times. Errors if the
    /// child spans overlap or leave the iteration, i.e. if the spans plus
    /// `other_s` would not account for the iteration's wall time exactly.
    pub fn end(&mut self) -> Result<IterationTimes, String> {
        let it = self.open.take().expect("no open iteration");
        let end = Instant::now();
        let wall_s = end.duration_since(it.start).as_secs_f64();
        if it.keep {
            let end_us = self.us(end);
            self.spans[it.root].end_us = end_us;
        }
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut covered = 0.0;
        let mut last_end = 0.0;
        for &(name, s, e) in &it.children {
            if s < last_end || e < s || e > wall_s {
                return Err(format!(
                    "span {name} [{s}, {e}] overlaps its predecessor or leaves the iteration"
                ));
            }
            last_end = e;
            covered += e - s;
            *layers.entry(name).or_default() += e - s;
        }
        Ok(IterationTimes {
            wall_s,
            layers,
            other_s: wall_s - covered,
        })
    }

    /// Every kept span, roots first within each iteration.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Render spans as Chrome-trace JSON (complete events, microseconds). The
/// host lane uses its own process id so it sits beside, not on top of, the
/// simulated-time lanes when both files are loaded together.
pub fn to_chrome_json(spans: &[Span], workload: &str) -> String {
    const PID: u32 = 1000;
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\
         \"args\":{{\"name\":\"host: perfbench {workload}\"}}}}"
    );
    for s in spans {
        let parent = s
            .parent
            .map_or("null".to_string(), |p| format!("\"{}\"", spans[p].name));
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":{PID},\"tid\":0,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"iteration\":{},\"parent\":{}}}}}",
            s.name,
            s.start_us,
            s.end_us - s.start_us,
            s.iteration,
            parent
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_other_account_for_the_iteration() {
        let mut rec = Recorder::default();
        rec.begin(0, true);
        rec.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.time("b", || ());
        std::thread::sleep(std::time::Duration::from_millis(1));
        let t = rec.end().expect("spans are sequential");
        let spans: f64 = t.layers.values().sum();
        assert!(t.other_s >= 0.0);
        assert!((spans + t.other_s - t.wall_s).abs() < 1e-9);
        assert_eq!(rec.spans().len(), 3);
        assert_eq!(rec.spans()[1].parent, Some(0));
        let json = to_chrome_json(rec.spans(), "w");
        assert!(json.contains("\"name\":\"a\"") && json.contains("\"parent\":\"iteration\""));
    }

    #[test]
    fn untraced_iterations_keep_no_spans() {
        let mut rec = Recorder::default();
        rec.begin(0, false);
        rec.time("a", || ());
        let t = rec.end().expect("one span");
        assert!(t.layers.contains_key("a"));
        assert!(rec.spans().is_empty());
    }
}
