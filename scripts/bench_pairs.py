#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, summarized per metric.

Usage (from the repository root):

    python3 scripts/bench_pairs.py --parent ../parent-checkout --change . \\
        --workload ergodic-long --seed 91 --pairs 10 --name 23

Each pair runs ``perfbench/run.py --workload <w> --seed <s> --seconds <t>
--trace 0`` once in each checkout, as its own process with the checkout as
working directory; the parent goes first in even-numbered pairs (0, 2, ...)
and the change first in odd ones, so host drift falls on both sides alike.
``--workload`` may be repeated; every workload gets its own pairs.

Before the first pair, ``python -m compileall -q src`` runs in each
checkout.  With ``PYTHONDONTWRITEBYTECODE`` set, a checkout whose
``__pycache__`` is missing or stale would otherwise recompile every module
in every op process, which shows up as start-up time and peak RSS on that
side alone.  The summary's host stamp records whether the variable was set.

The summary is written to ``BENCH_<name>.json`` in the change's checkout.
For each workload and end-to-end metric of the change's ``BENCHMARK.json``
it holds both sides' runs with their median and quartiles (linear
interpolation), each run's ``attempted`` op count beside its value (a
reading such as ``peak_rss_mb`` can follow how many ops the harness held),
the pairs the change won (ties count for neither side), the median change
in percent and the parent's interquartile range.
``gain_rule_met`` says whether the change won at least nine tenths of the
pairs by a median gap wider than that range; ``within_bound`` whether the
change's median is no worse than the parent's by more than the metric's
bound.  Runs that fail, or whose outputs fail perfbench's checks, are
counted and kept out of the statistics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run in ``checkout``: its result line and stamp."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": proc.stderr.strip()[-2000:]}
    result = json.loads(lines[-1])
    stamps = [line[len("stamp: "):] for line in lines if line.startswith("stamp: ")]
    result["stamp"] = json.loads(stamps[0]) if stamps else {}
    return result


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: dict, metric: dict) -> dict:
    """Statistics of one metric over the pairs whose two runs both passed."""
    name, lower = metric["name"], metric["better"] == "lower"
    kept = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if p["correct"] and c["correct"]]
    if not kept:
        return {"unit": metric["unit"], "pairs": 0}
    pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in kept]
    out = {"unit": metric["unit"], "pairs": len(pairs)}
    for i, side in enumerate(SIDES):
        values = [pair[i] for pair in pairs]
        q1, median, q3 = quartiles(values)
        out[side] = {"median": median, "q1": q1, "q3": q3, "runs": values,
                     "attempted": [pair[i]["attempted"] for pair in kept]}
    wins = sum((c < p) if lower else (c > p) for p, c in pairs)
    parent, change = out["parent"]["median"], out["change"]["median"]
    iqr = out["parent"]["q3"] - out["parent"]["q1"]
    gap = parent - change if lower else change - parent
    worse = -gap / abs(parent) if parent else 0.0
    out.update({
        "change_better_pairs": f"{wins}/{len(pairs)}",
        "median_change_pct": round(100.0 * (change - parent) / parent, 2) if parent else None,
        "parent_iqr": iqr,
        "gain_rule_met": wins >= 0.9 * len(pairs) and gap > iqr,
        "within_bound": worse <= metric["bound"],
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--name", required=True, help="the summary goes to BENCH_<name>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no perfbench/run.py")
    metrics = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    for path in checkouts.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=path, check=True)

    workloads, stamp = {}, {}
    for workload in args.workload:
        runs = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(checkouts[side], workload, args.seed, args.seconds)
                stamp = stamp or result.get("stamp", {})
                runs[side].append(result)
                print(f"{workload} pair {pair} {side}: correct {result['correct']}, "
                      + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
        workloads[workload] = {
            "pairs": args.pairs,
            "order": "alternating, parent first in even-numbered pairs (0, 2, ...)",
            "ops_attempted_failed": {side: [sum(r["attempted"] for r in runs[side]),
                                            sum(r["failed"] for r in runs[side])]
                                     for side in SIDES},
            "runs_correct": {side: sum(r["correct"] for r in runs[side]) for side in SIDES},
            "metrics": {m["name"]: summarize(runs, m) for m in metrics},
        }
    out = checkouts["change"] / f"BENCH_{args.name}.json"
    stamp = dict(stamp, pythondontwritebytecode=bool(os.environ.get("PYTHONDONTWRITEBYTECODE")))
    out.write_text(json.dumps({
        "host": stamp,
        "perfbench": {
            "command": f"python3 perfbench/run.py --workload <w> --seed {args.seed} "
                       f"--seconds {args.seconds} --trace 0",
            "workloads": workloads,
        },
    }, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
