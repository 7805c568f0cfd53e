#!/usr/bin/env python3
"""Compare two BENCH_*.json snapshots, stdlib only: a hard gate on every
simulated field, a soft warning on wall clock.

Usage: bench_diff.py BASELINE.json CURRENT.json [--wall-tol F]

Works on any pair of BENCH_pipeline.json or BENCH_streaming.json files.
Fields are judged by how they were produced:

* **wall-clock fields** (`wall_secs`, `blocks_per_sec`) move with host
  load. A worsening beyond `--wall-tol` (relative, default 0.25) prints a
  warning; it never fails the comparison, and faster is never reported.
* **`provenance`** describes how a file was produced; differences are
  printed as notes.
* **every other leaf** is simulated, structural, fusion or streaming data:
  deterministic given the code and the flags. Any drift in either
  direction, and any field, list entry or app present on one side only,
  is a failure.

Exits 0 when every non-wall-clock field matches exactly, 1 on any drift,
2 on usage errors. CI runs it against the committed baselines as a hard
gate.
"""

import json
import sys

# Wall-clock fields and the direction that counts as a worsening
# (+1: larger is worse, -1: smaller is worse).
WALL = {"wall_secs": +1, "blocks_per_sec": -1}

# Keys that identify an entry of a list of objects, used to label paths.
ID_KEYS = ("app", "gpus", "window", "queue_bound", "scenario", "stage", "device")


def label(entry, index):
    if isinstance(entry, dict):
        ids = [str(entry[k]) for k in ID_KEYS if k in entry]
        if ids:
            return ",".join(ids)
    return str(index)


def rel(cur, base):
    if base:
        return (cur - base) / abs(base)
    return 0.0 if cur == base else float("inf")


def compare(base, cur, path, drift, warnings, wall_tol):
    if isinstance(base, dict) and isinstance(cur, dict):
        for key in sorted(set(base) | set(cur), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in cur or key not in base:
                side = "baseline" if key in base else "current"
                drift.append(f"{sub}: only in {side}")
            elif key in WALL:
                b, c = base[key], cur[key]
                if rel(c, b) * WALL[key] > wall_tol:
                    warnings.append(
                        f"{sub}: {b:g} -> {c:g} ({rel(c, b):+.1%}) [wall clock, tol {wall_tol:.0%}]"
                    )
            else:
                compare(base[key], cur[key], sub, drift, warnings, wall_tol)
    elif isinstance(base, list) and isinstance(cur, list):
        if len(base) != len(cur):
            drift.append(f"{path}: {len(base)} entries -> {len(cur)}")
            return
        for i, (b, c) in enumerate(zip(base, cur)):
            lb, lc = label(b, i), label(c, i)
            if lb != lc:
                drift.append(f"{path}[{i}]: entry {lb!r} -> {lc!r}")
                continue
            compare(b, c, f"{path}[{lb}]", drift, warnings, wall_tol)
    elif base != cur or type(base) is not type(cur):
        drift.append(f"{path}: {base!r} -> {cur!r}")


def usage(msg):
    print(f"bench_diff: {msg}\n\n{__doc__.strip()}", file=sys.stderr)
    return 2


def main(argv):
    wall_tol = 0.25
    args = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a == "--wall-tol":
            if i + 1 >= len(argv):
                return usage("--wall-tol needs a value")
            try:
                wall_tol = float(argv[i + 1])
            except ValueError:
                return usage(f"--wall-tol needs a number, got {argv[i + 1]!r}")
            i += 2
        elif a.startswith("--"):
            return usage(f"unknown option {a!r}")
        else:
            args.append(a)
            i += 1
    if len(args) != 2:
        return usage("expected BASELINE.json and CURRENT.json")

    try:
        with open(args[0]) as f:
            base = json.load(f)
        with open(args[1]) as f:
            cur = json.load(f)
    except (OSError, ValueError) as e:
        return usage(str(e))

    notes = []
    bp, cp = base.pop("provenance", {}), cur.pop("provenance", {})
    for key in sorted(set(bp) | set(cp)):
        if bp.get(key) != cp.get(key):
            notes.append(f"provenance.{key}: {bp.get(key)!r} -> {cp.get(key)!r}")

    drift, warnings = [], []
    compare(base, cur, "", drift, warnings, wall_tol)

    for line in notes:
        print(f"  note: {line}")
    for line in warnings:
        print(f"WARNING: {line}")
    if drift:
        for line in drift:
            print(f"DRIFT: {line}")
        print(f"bench_diff: {len(drift)} simulated field(s) drifted ({args[0]} vs {args[1]})")
        return 1
    print(f"bench_diff: every simulated field matches ({args[0]} vs {args[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
