"""Compare two checkouts on one perfbench workload, in alternating pairs.

Usage::

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload two-party \
        --seed 1 --pairs 10

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, the
parent first in even pairs and the change first in odd ones, for the
``run_seconds`` that the parent's ``BENCHMARK.json`` sets, and reads
the JSON object on the last line of each run's standard output. For
every end-to-end metric that the parent's ``BENCHMARK.json`` gates, the
report gives each side's median and quartiles, the parent's
interquartile range over its median, and how many pairs the change won
(ties count for neither side). It then applies two rules:

* gain: at least ten pairs ran, the change wins at least nine tenths of
  them and its median beats the parent's by more than the parent's
  interquartile range; a "no" names the first of these that failed;
* bound: the change's median is no worse than the parent's by more than
  the metric's bound. When the parent's own spread is wider than the
  bound this is reported as unresolved, unless every run of the change
  beats every run of the parent.

Run records go to a temporary directory, and bytecode caching is off in
the runs, so neither checkout is written to. Exit status 1 when a run
failed a request or its determinism check, or printed no result.
Standard library only; the script imports nothing from the package.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

MIN_PAIRS = 10  # fewer pairs give no gain verdict


def last_json(stdout: str) -> dict | None:
    """The JSON object on the last non-empty line, or None."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        obj = json.loads(lines[-1])
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method, so all three lie within the runs."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Apply the pair rule and the regression bound to one metric.

    ``parent[i]`` and ``change[i]`` are the two runs of pair ``i``;
    ``better`` is "higher" or "lower"; ``bound`` is the worsening the
    benchmark allows, as a fraction of the parent's median.
    """
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    iqr = p3 - p1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    if len(parent) < MIN_PAIRS:
        why_not = f"{len(parent)} pairs, fewer than the {MIN_PAIRS} a gain needs"
    elif 10 * wins < 9 * len(parent):
        why_not = f"won {wins} of {len(parent)} pairs, fewer than nine tenths"
    elif sign * (cm - pm) <= iqr:
        why_not = "median gap within the parent's interquartile range"
    else:
        why_not = None
    spread = iqr / abs(pm) if pm else 0.0
    worse_by = sign * (pm - cm) / abs(pm) if pm else 0.0
    if spread <= bound:
        within = "yes" if worse_by <= bound else "no"
    elif min(sign * c for c in change) > max(sign * p for p in parent):
        within = "yes, every change run better"
    else:
        within = "unresolved, the parent spreads wider than the bound"
    return {
        "parent": (p1, pm, p3), "change": (c1, cm, c3),
        "parent_iqr_frac": spread,
        "wins": wins, "losses": losses, "pairs": len(parent),
        "gain": why_not is None, "why_not": why_not,
        "worse_by": worse_by, "within_bound": within,
    }


def run_once(tree: Path, out_dir: Path, args, seconds: float) -> dict | None:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", "0", "--out-dir", str(out_dir)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    result = last_json(proc.stdout)
    if result is None:
        sys.stderr.write(f"ab_pairs: no result from {tree}:\n{proc.stderr}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    gated, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    values: dict[str, dict[str, list[float]]] = {s: {} for s in sides}
    bad = 0
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(sides[side], Path(tmp) / side, args, seconds)
                if result is None:
                    return 1
                bad += not result["correct"]
                for m in gated:
                    values[side].setdefault(m["name"], []).append(
                        result["metrics"][m["name"]]["value"])
                print(f"pair {i + 1}/{args.pairs} {side}: " + ", ".join(
                    f"{m['name']}={values[side][m['name']][-1]:.4g}"
                    for m in gated) + ("" if result["correct"] else
                                       f"  (failed {result['failed']} of "
                                       f"{result['attempted']})"), flush=True)

    print(f"\n{args.workload} seed={args.seed} pairs={args.pairs} "
          f"seconds={seconds:g}")
    for m in gated:
        name = m["name"]
        v = verdict(values["parent"][name], values["change"][name],
                    m["better"], m["bound"])
        print(f"{name} ({m['unit']}, {m['better']} is better, "
              f"bound {m['bound']:.0%})")
        for side in sides:
            q1, med, q3 = v[side]
            print(f"  {side:6s} median {med:.4g}  quartiles {q1:.4g} .. {q3:.4g}")
        print(f"  parent IQR / median {v['parent_iqr_frac']:.3f}; change won "
              f"{v['wins']} of {v['pairs']} pairs, lost {v['losses']}")
        gain = "yes" if v["gain"] else f"no ({v['why_not']})"
        print(f"  gain: {gain}; change worse by "
              f"{v['worse_by']:+.1%} of the parent median, within bound: "
              f"{v['within_bound']}")
    if bad:
        print(f"ab_pairs: {bad} run(s) failed a request or a determinism check")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
