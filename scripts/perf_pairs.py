#!/usr/bin/env python3
"""Interleaved parent/change runs of the repo benchmark, stdlib only.

Usage:
  perf_pairs.py PARENT_BIN CHANGE_BIN --workload W [--seed N] [--pairs N]
                [--seconds S] [--claim METRIC] [--benchmark BENCHMARK.json]
  perf_pairs.py --self-test

PARENT_BIN and CHANGE_BIN are two builds of the `perfbench` binary (for
example `cargo build --release --manifest-path perfbench/Cargo.toml` in a
clone of the parent commit and in the working tree, each with its own
`CARGO_TARGET_DIR`). Each pair runs both binaries once with identical
flags (`--workload W --seed N --seconds S --trace 0`), alternating which
side goes first, and reads the JSON object on the last stdout line.

The end-to-end metrics, their `better` direction and their `bound` come
from BENCHMARK.json. For each metric the script prints each side's median
and q1-q3 and how many pairs the change won (ties count for neither), and
judges the change against the bound:

* `worse`      - the change's median is worse than the parent's by more
                 than the bound (relative);
* `unresolved` - the parent's own q1-q3 spread is wider than the bound and
                 not every change run beats every parent run;
* `ok`         - otherwise.

Every `sim_*` value is deterministic, so any value that differs between
two runs (within or across sides) is flagged as drift.

With `--claim METRIC` it also gives the verdict of the claim rule: the
change wins at least 9/10 of the pairs, and its median is better than the
parent's by more than the parent's q1-q3 spread.

Exits 0 when every run is correct, no `sim_*` value drifts, the change's
failed share is no larger, no metric is `worse`, and a requested claim is
met; 1 otherwise; 2 on usage errors. `--self-test` checks the analysis on
canned benchmark output.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Share of pairs the change must win for a claimed gain.
CLAIM_WIN_SHARE = 0.9


def parse_output(stdout):
    """The benchmark's result: the JSON object on the last non-empty line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("benchmark printed nothing")
    out = json.loads(lines[-1])
    values = {name: m["value"] for name, m in out["metrics"].items()}
    return {
        "correct": bool(out["correct"]),
        "attempted": int(out.get("attempted", 0)),
        "failed": int(out.get("failed", 0)),
        "values": values,
    }


def run_once(binary, args):
    cmd = [
        str(binary),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        "0",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}")
    return parse_output(done.stdout)


def quartiles(xs):
    """(q1, median, q3) with linear interpolation between order statistics."""
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def gain(better, change, parent):
    """Signed improvement of `change` over `parent`: positive is better."""
    return change - parent if better == "higher" else parent - change


def judge_metric(spec, parent, change):
    """Summary of one end-to-end metric over the paired runs."""
    better, bound = spec["better"], spec["bound"]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if gain(better, c, p) > 0)
    scale = abs(p_med) if p_med else 1.0
    worse_by = -gain(better, c_med, p_med) / scale
    iqr = p_q3 - p_q1
    all_better = all(gain(better, c, p) > 0 for c in change for p in parent)
    if worse_by > bound:
        status = "worse"
    elif iqr / scale > bound and not all_better:
        status = "unresolved"
    else:
        status = "ok"
    claim = (
        wins >= math.ceil(CLAIM_WIN_SHARE * len(parent))
        and gain(better, c_med, p_med) > iqr
    )
    return {
        "name": spec["name"],
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "status": status,
        "claim": claim,
    }


def sim_drift(parent_runs, change_runs):
    """Names of `sim_*` values that are not bit-identical across all runs."""
    runs = parent_runs + change_runs
    names = sorted({n for r in runs for n in r["values"] if n.startswith("sim_")})
    drift = []
    for n in names:
        seen = {json.dumps(r["values"].get(n)) for r in runs}
        if len(seen) > 1:
            drift.append(n)
    return drift


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def analyze(benchmark, parent_runs, change_runs, claim=None):
    """Judge paired runs; returns (report lines, ok)."""
    lines, ok = [], True
    metrics = [m for m in benchmark["end_to_end"] if not m["name"].startswith("sim_")]
    judged = {}
    lines.append(
        f"{'metric':<26} {'parent median [q1, q3]':>30} "
        f"{'change median [q1, q3]':>30} {'wins':>6}  status"
    )
    for spec in metrics:
        name = spec["name"]
        parent = [r["values"][name] for r in parent_runs if name in r["values"]]
        change = [r["values"][name] for r in change_runs if name in r["values"]]
        if len(parent) != len(parent_runs) or len(change) != len(change_runs):
            lines.append(f"{name:<26} missing from some runs")
            ok = False
            continue
        j = judge_metric(spec, parent, change)
        judged[name] = j
        fmt = lambda t: f"{t[0]:.4g} [{t[1]:.4g}, {t[2]:.4g}]"
        lines.append(
            f"{name:<26} {fmt(j['parent']):>30} {fmt(j['change']):>30} "
            f"{j['wins']:>3}/{j['pairs']:<2}  {j['status']}"
        )
        if j["status"] == "worse":
            ok = False

    drift = sim_drift(parent_runs, change_runs)
    if drift:
        ok = False
        lines.append("sim_* drift (not bit-identical): " + ", ".join(drift))
    else:
        lines.append("sim_* values: bit-identical across every run")

    bad = [i for i, r in enumerate(parent_runs + change_runs) if not r["correct"]]
    if bad:
        ok = False
        lines.append(f"incorrect output in {len(bad)} run(s)")
    p_fail, c_fail = failed_share(parent_runs), failed_share(change_runs)
    lines.append(f"failed share: parent {p_fail:.4f}, change {c_fail:.4f}")
    if c_fail > p_fail:
        ok = False

    if claim is not None:
        j = judged.get(claim)
        if j is None:
            lines.append(f"claim {claim}: not an end-to-end host metric")
            ok = False
        else:
            p_iqr = j["parent"][2] - j["parent"][1]
            verdict = "MET" if j["claim"] else "NOT MET"
            lines.append(
                f"claim {claim}: {verdict} (wins {j['wins']}/{j['pairs']}, "
                f"need {math.ceil(CLAIM_WIN_SHARE * j['pairs'])}; median "
                f"{j['parent'][0]:.4g} -> {j['change'][0]:.4g}, parent IQR {p_iqr:.4g})"
            )
            ok = ok and j["claim"]
    return lines, ok


def run_pairs(args, benchmark):
    parent_runs, change_runs = [], []
    for i in range(args.pairs):
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            order.reverse()
        for side, binary in order:
            r = run_once(binary, args)
            (parent_runs if side == "parent" else change_runs).append(r)
            shown = ", ".join(
                f"{m['name']}={r['values'].get(m['name'], float('nan')):.4g}"
                for m in benchmark["end_to_end"]
                if not m["name"].startswith("sim_")
            )
            print(f"pair {i + 1}/{args.pairs} {side}: {shown}", flush=True)
    return parent_runs, change_runs


def canned(host, sim=1.5, failed=0, correct=True):
    """One benchmark output line as the binary prints it."""
    metrics = {
        "sim_makespan_ms": {"value": sim, "unit": "ms"},
        "host_mib_per_s": {"value": host, "unit": "MiB/s"},
        "setup_s": {"value": 0.04, "unit": "s"},
    }
    return "perfbench: header line\n" + json.dumps(
        {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}
    )


def self_test():
    bench = {
        "end_to_end": [
            {"name": "sim_makespan_ms", "better": "lower", "bound": 0.2},
            {"name": "host_mib_per_s", "better": "higher", "bound": 0.25},
            {"name": "setup_s", "better": "lower", "bound": 0.25},
        ]
    }
    parse = lambda outs: [parse_output(o) for o in outs]
    parent = parse(canned(h) for h in [6.7, 5.2, 5.8, 6.1, 6.4, 5.5, 6.0, 5.9, 6.3, 5.7])

    # A clear gain on every pair: claim met, nothing flagged.
    change = parse(canned(h) for h in [32, 31.8, 27.2, 30, 29, 31, 30.5, 28, 29.5, 31.2])
    lines, ok = analyze(bench, parent, change, claim="host_mib_per_s")
    assert ok, lines
    assert any("claim host_mib_per_s: MET" in line for line in lines), lines
    assert any("bit-identical" in line for line in lines), lines

    # 8/10 wins is not enough, even with a large median gap.
    mixed = parse(canned(h) for h in [32, 31.8, 27.2, 30, 29, 31, 30.5, 28, 5.0, 5.1])
    lines, ok = analyze(bench, parent, mixed, claim="host_mib_per_s")
    assert not ok and any("NOT MET" in line for line in lines), lines

    # 10/10 wins but a median gap inside the parent's IQR: not met, though
    # within the bound the change is fine without a claim.
    nudged = parse(canned(p["values"]["host_mib_per_s"] + 0.01) for p in parent)
    lines, ok = analyze(bench, parent, nudged, claim="host_mib_per_s")
    assert not ok and any("NOT MET" in line for line in lines), lines
    lines, ok = analyze(bench, parent, nudged)
    assert ok, lines

    # A simulated value that moves is drift, whatever the host numbers say.
    drifted = parse(canned(30, sim=1.5 + 1e-12) for _ in parent)
    lines, ok = analyze(bench, parent, drifted)
    assert not ok and any("drift" in line and "sim_makespan_ms" in line for line in lines)

    # A host metric worse than its bound fails; so do extra failures and
    # wrong output.
    slow = parse(canned(3.0) for _ in parent)
    lines, ok = analyze(bench, parent, slow)
    assert not ok and any(line.endswith("worse") for line in lines), lines
    failing = parse(canned(6.0, failed=1) for _ in parent)
    assert not analyze(bench, parent, failing)[1]
    wrong = parse(canned(6.0, correct=False) for _ in parent)
    assert not analyze(bench, parent, wrong)[1]

    # A noisy parent whose IQR exceeds the bound leaves a small move
    # unresolved rather than passing it as unchanged.
    noisy = parse(canned(h) for h in [2, 10, 3, 9, 2.5, 9.5, 3, 10, 2, 9])
    lines, _ = analyze(bench, noisy, parse(canned(5.5) for _ in noisy))
    assert any("host_mib_per_s" in line and line.endswith("unresolved") for line in lines)

    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert gain("lower", 1.0, 2.0) == 1.0 and gain("higher", 1.0, 2.0) == -1.0
    print("perf_pairs self-test: ok")


def main():
    if "--self-test" in sys.argv[1:]:
        self_test()
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="perfbench binary of the parent commit")
    ap.add_argument("change", type=Path, help="perfbench binary of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--claim", default=None, help="end-to-end metric claimed to improve")
    ap.add_argument("--benchmark", type=Path, default=DEFAULT_BENCHMARK)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    benchmark = json.loads(args.benchmark.read_text())
    if args.seconds is None:
        args.seconds = benchmark.get("run_seconds", 35)
    parent_runs, change_runs = run_pairs(args, benchmark)
    lines, ok = analyze(benchmark, parent_runs, change_runs, args.claim)
    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs at {args.seconds} s")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
