//! `perfbench`: the repository benchmark. One process runs one workload for
//! a fixed host-time budget and prints every metric by name and unit, then,
//! as its last line, one JSON object:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {NAME: {"value": V, "unit": U}, ...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones, from iterations with critical-path capture and host
//! spans kept (alternating with untraced iterations, whose difference is the
//! tracing overhead). Spans are written at exit to
//! `perfbench/out/host-trace-<workload>-<seed>.json`.
//!
//! Usage: `cargo run --release --offline --manifest-path perfbench/Cargo.toml --
//! --workload opinion|kmeans_fused|kmeans_stream [--seed N] [--seconds S]
//! [--trace 0|1]`. See `perfbench/README.md`.

mod catalogue;
mod heap;
mod spans;
mod workload;

use catalogue::{END_TO_END, PER_LAYER};
use spans::Recorder;
use std::collections::BTreeMap;
use std::time::Instant;
use workload::{run_iteration, Iteration, Plan, SimValues, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const MIB: f64 = (1u64 << 20) as f64;
/// Fewest timed iterations per run, whatever `--seconds` says; a traced run
/// alternates, so this gives it at least two of each kind.
const MIN_ITERATIONS: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1]\n\
         seed {} is the default; check a claim on the held-out seed {} too",
        names.join("|"),
        workload::DEFAULT_SEED,
        workload::HELD_OUT_SEED
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workload::DEFAULT_SEED;
    let mut seconds = 35.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Names whose values differ bitwise between `want` and `got`, over the
/// names `want` holds.
fn mismatches(want: &SimValues, got: &SimValues) -> Vec<String> {
    want.iter()
        .filter(|(k, v)| got.get(*k).map(|g| g.to_bits()) != Some(v.to_bits()))
        .map(|(k, v)| format!("{k}: {v} vs {:?}", got.get(k)))
        .collect()
}

/// Every timed iteration of one run, plus the untimed parallel-path check.
struct Run {
    reference: Iteration,
    iterations: Vec<(bool, Iteration)>,
    errors: Vec<String>,
    attempted: u64,
}

fn measure(args: &Args, rec: &mut Recorder) -> Run {
    let bytes = args.workload.bytes();
    // Untimed: the parallel block path at two host threads must reproduce
    // every simulated value of the sequential timed runs. It also warms the
    // allocator and page cache before timing starts.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("a two-thread pool");
    let parallel = Plan::new(args.workload, bytes, args.seed, 2);
    let reference = pool.install(|| run_iteration(&parallel, rec, 0, false));

    let plan = Plan::new(args.workload, bytes, args.seed, 1);
    let start = Instant::now();
    let mut iterations: Vec<(bool, Iteration)> = Vec::new();
    // Start another iteration while it is expected to end less than half an
    // iteration past the budget, so a run lasts `--seconds` on average.
    let more = |done: &[(bool, Iteration)]| {
        let last = done.last().map_or(0.0, |(_, it)| it.times.wall_s);
        done.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() + last / 2.0 < args.seconds
    };
    while more(&iterations) {
        let traced = args.trace && iterations.len() % 2 == 1;
        let it = run_iteration(&plan, rec, iterations.len() + 1, traced);
        eprintln!(
            "iteration {}{}: wall {:.3} s, pipeline {:.3} s, baseline {:.3} s, setup {:.4} s",
            iterations.len() + 1,
            if traced { " (traced)" } else { "" },
            it.times.wall_s,
            it.pipeline_s(),
            it.baseline_s(),
            it.setup_s()
        );
        iterations.push((traced, it));
    }

    let mut errors = reference.errors.clone();
    let mut attempted = reference.attempted;
    let first_traced = iterations.iter().find(|(t, _)| *t).map(|(_, it)| it);
    for (traced, it) in &iterations {
        attempted += it.attempted;
        errors.extend(it.errors.iter().cloned());
        // Untraced iterations hold exactly the reference's values; traced
        // ones add stage busy times, which must agree among themselves.
        let mut diff = mismatches(&reference.sim, &it.sim);
        if !traced && it.sim.len() != reference.sim.len() {
            diff.push("untraced iteration reports a different set of values".into());
        }
        if let (true, Some(first)) = (*traced, first_traced) {
            diff.extend(mismatches(&first.sim, &it.sim));
            diff.extend(mismatches(&first.crit, &it.crit));
        }
        if !diff.is_empty() {
            errors.push(format!(
                "simulated values changed between iterations: {diff:?}"
            ));
        }
    }
    Run {
        reference,
        iterations,
        errors,
        attempted,
    }
}

fn end_to_end(run: &Run) -> BTreeMap<&'static str, f64> {
    let timed: Vec<&Iteration> = run.iterations.iter().map(|(_, it)| it).collect();
    let total = |f: &dyn Fn(&Iteration) -> f64| -> f64 { timed.iter().map(|it| f(it)).sum() };
    let mut m = BTreeMap::new();
    for name in [
        "sim_makespan_ms",
        "sim_speedup_vs_double_buffer",
        "sim_sustained_mib_per_s",
        "sim_p99_window_latency_ms",
    ] {
        m.insert(name, run.reference.sim[name]);
    }
    // Throughput over the whole run (total MiB over total seconds): the
    // host alternates between fast and slow phases lasting seconds, and a
    // run-long mean averages over them where a per-iteration median cannot.
    m.insert(
        "host_mib_per_s",
        total(&|it| it.pipeline_mib) / total(&|it| it.pipeline_s()),
    );
    m.insert(
        "baseline_host_mib_per_s",
        total(&|it| it.baseline_mib) / total(&|it| it.baseline_s()),
    );
    m.insert(
        "setup_s",
        median(timed.iter().map(|it| it.setup_s()).collect()),
    );
    m.insert(
        "host_peak_heap_mib",
        median(timed.iter().map(|it| it.peak_heap as f64 / MIB).collect()),
    );
    m
}

fn per_layer(run: &Run) -> BTreeMap<&'static str, f64> {
    let traced: Vec<&Iteration> = run
        .iterations
        .iter()
        .filter(|(t, _)| *t)
        .map(|(_, it)| it)
        .collect();
    let untraced: Vec<&Iteration> = run
        .iterations
        .iter()
        .filter(|(t, _)| !*t)
        .map(|(_, it)| it)
        .collect();
    let med = |v: &[&Iteration], f: &dyn Fn(&Iteration) -> f64| {
        median(v.iter().map(|it| f(it)).collect())
    };
    let mut m = BTreeMap::new();
    let Some(first) = traced.first() else {
        return m;
    };
    for metric in PER_LAYER {
        let name = metric.name;
        // A host metric `<span>_s` is the median of that span's seconds; the
        // three host metrics no single span gives are filled in below. A
        // simulated value a workload does not produce (a stage it lacks, a
        // stall that never occurs) is 0.
        let value = match name.strip_suffix("_s") {
            Some(span) if name.starts_with("host.") => med(&traced, &|it| it.layer_s(span)),
            _ => first
                .sim
                .get(name)
                .or_else(|| first.crit.get(name))
                .copied()
                .unwrap_or(0.0),
        };
        m.insert(name, value);
    }
    m.insert(
        "host.runtime.stream_per_window_us",
        med(&traced, &|it| {
            if it.windows == 0 {
                0.0
            } else {
                it.layer_s("host.runtime.stream") / it.windows as f64 * 1e6
            }
        }),
    );
    m.insert("host.other_s", med(&traced, &|it| it.times.other_s));
    m.insert(
        "host.trace_overhead_s",
        med(&traced, &|it| it.times.wall_s) - med(&untraced, &|it| it.times.wall_s),
    );
    m
}

/// A printed metric: name, unit, and what the line means for a reader.
type Row = (&'static str, &'static str, String);

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    // Timed runs simulate blocks on one host thread (see README).
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global();

    let mut rec = Recorder::default();
    let run = measure(&args, &mut rec);
    let (metrics, catalogue): (BTreeMap<&str, f64>, Vec<Row>) = if args.trace {
        (
            per_layer(&run),
            PER_LAYER
                .iter()
                .map(|m| {
                    (
                        m.name,
                        m.unit,
                        format!("{} is better; moves {}", m.better.label(), m.moves),
                    )
                })
                .collect(),
        )
    } else {
        (
            end_to_end(&run),
            END_TO_END
                .iter()
                .map(|m| {
                    (
                        m.name,
                        m.unit,
                        format!("{} is better; bound {}", m.better.label(), m.bound),
                    )
                })
                .collect(),
        )
    };

    let mut errors = run.errors;
    let wl = args.workload.name();
    println!(
        "perfbench {wl}: seed {}, {} timed iterations ({} traced) + 1 untimed at 2 threads",
        args.seed,
        run.iterations.len(),
        run.iterations.iter().filter(|(t, _)| *t).count()
    );
    for (name, unit, note) in &catalogue {
        let v = metrics.get(name).copied().unwrap_or(f64::NAN);
        if !v.is_finite() {
            errors.push(format!("{name} is not a finite number"));
        }
        println!("  {name:<36} {v:>18.6} {unit:<6} ({note})");
    }
    if let Some((_, it)) = run.iterations.iter().find(|(t, _)| *t) {
        let known = |k: &str| {
            PER_LAYER.iter().any(|m| m.name == k) || END_TO_END.iter().any(|m| m.name == k)
        };
        for (k, v) in it.sim.iter().chain(&it.crit) {
            if !known(k) && *v != 0.0 {
                println!("  uncatalogued simulated value {k} = {v}");
            }
        }
    }
    if !args.trace {
        use bk_bench::expectations::headline;
        println!(
            "  paper (BigKernel vs double buffering, IPDPS 2014): {:.1}x average, {:.1}x \
             maximum over its seven configurations; the model is unvalidated per \
             workload (no per-app paper speed-ups are recorded), so no error figure is given",
            headline::BK_VS_DB_AVG,
            headline::BK_VS_DB_MAX
        );
    }
    if args.trace {
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{out}/host-trace-{wl}-{}.json", args.seed);
        let written = std::fs::create_dir_all(out)
            .and_then(|()| std::fs::write(&path, spans::to_chrome_json(rec.spans(), wl)));
        match written {
            Ok(()) => println!("  host spans: {path}"),
            Err(e) => errors.push(format!("writing {path}: {e}")),
        }
    }
    for e in &errors {
        eprintln!("FAILED: {e}");
    }

    let body: Vec<String> = catalogue
        .iter()
        .map(|(name, unit, _)| {
            let v = metrics.get(name).copied().unwrap_or(f64::NAN);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        run.attempted,
        errors.len(),
        body.join(", ")
    );
}
