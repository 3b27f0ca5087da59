#!/usr/bin/env python3
"""Run one fixed list of CLI commands in two checkouts and compare the outputs.

Usage (from the repository root):

    python3 scripts/compare_outputs.py --parent ../parent-checkout --change .

Each command of ``COMMANDS`` runs once in each checkout, as
``python -m pcmlab.cli`` with that checkout's ``src`` first on the path and
its own ``configs``, writing into a temporary directory.  For every output
file but ``manifest.json`` (which holds a timestamp) one line is printed: the
command, the config and the file, then ``identical``, or the number of rows
that differ and the largest absolute difference in each numeric column.
A JSON output counts one row per number in it, named by its key path.  A
command that fails on either side is reported with its exit codes, and the
script exits 1 if any command failed.  The commands of ``BREAKDOWNS`` are
meant to fail: for each, the exit code and standard error of the two
checkouts are compared instead, and one line gives ``identical`` or both.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = (
    "paper_section5.json",
    "paper_section5_moderate.json",
    "paper_section5_heavy.json",
    "paper_full_scale.json",
)
PER_CONFIG = (
    ("validate",),
    ("compare",),
    ("ergodic",),
    ("empirical",),
    ("simulate",),
    ("approx", "--method", "delta"),
    ("approx", "--method", "enumerate", "--max-len", "15"),
)
RATE = ("rate", "--ergodic-length", "200000")
# At a million steps the grid walks the most rows, so its warm-up and its
# walks are tested hardest there.
LONG_RATE = ("rate", "--ergodic-length", "1000000")
# 200k-step words take the segment grid on moderate loss and the walk on
# heavy loss; samples.csv holds every one of their distances.
LONG_ERGODIC = ("ergodic", "--ergodic-length", "200000")
COMMANDS = [(config, args) for config in CONFIGS for args in PER_CONFIG] + [
    ("paper_section5.json", RATE),
    ("paper_section5_moderate.json", RATE),
    ("paper_section5_moderate.json", RATE + ("--seed", "1")),
    ("paper_section5_heavy.json", RATE),
    ("paper_section5.json", LONG_RATE),
    ("paper_section5_moderate.json", LONG_RATE),
    ("paper_section5_moderate.json", LONG_ERGODIC),
    ("paper_section5_heavy.json", LONG_ERGODIC),
]
# A persistent, mostly dropping channel takes the desk plant's PCM out of the
# positive-definite cone: each command exits 3 naming the step.
PERSISTENT = ("--alpha", "0.9", "--beta", "0.995")
BREAKDOWNS = [
    ("paper_section5.json", LONG_ERGODIC + PERSISTENT),
    ("paper_section5.json", ("empirical",) + PERSISTENT),
    ("paper_section5.json", ("compare",) + PERSISTENT),
]


def run(checkout: Path, config: str, args: tuple, out: Path) -> tuple[int, str]:
    """Exit code and standard error of one command in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-m", "pcmlab.cli", *args,
            "--config", str(checkout / "configs" / config), "--out", str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stderr.strip()


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _gap(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b)


def _leaves(value, where: str = "") -> list:
    """``[key path, number]`` for every number in a JSON value, in order."""
    if isinstance(value, dict):
        return [row for key, item in value.items() for row in _leaves(item, f"{where}.{key}")]
    if isinstance(value, list):
        return [row for i, item in enumerate(value) for row in _leaves(item, f"{where}[{i}]")]
    return [[where, repr(value)]] if isinstance(value, (int, float)) else []


def _table(path: Path) -> tuple[list, list]:
    """Column names and rows of a CSV output, or of a JSON one as numbers."""
    if path.suffix == ".json":
        return ["key", "value"], _leaves(json.loads(path.read_text()))
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def describe(parent: Path, change: Path) -> str:
    """``identical``, or what differs between two outputs of one command."""
    if parent.read_bytes() == change.read_bytes():
        return "identical"
    header, old = _table(parent)
    _, new = _table(change)
    if len(old) != len(new):
        return f"{len(old)} rows against {len(new)}"
    differing = sum(a != b for a, b in zip(old, new))
    gaps = {}
    for a, b in zip(old, new):
        if a == b or len(a) != len(b):
            continue
        for name, x, y in zip(header, a, b):
            fx, fy = _number(x), _number(y)
            if fx is not None and fy is not None:
                gaps[name] = max(gaps.get(name, 0.0), _gap(fx, fy))
    detail = ", ".join(f"{name} {gap:.3g}" for name, gap in gaps.items())
    return f"{differing} of {len(old)} rows differ; largest |difference|: {detail or 'none numeric'}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for i, (config, command) in enumerate(COMMANDS + BREAKDOWNS):
            label = f"{' '.join(command)} [{Path(config).stem}]"
            outs = {side: Path(tmp) / f"{i}-{side}" for side in checkouts}
            results = {side: run(root, config, command, outs[side])
                       for side, root in checkouts.items()}
            if (config, command) in BREAKDOWNS:
                if results["parent"] == results["change"]:
                    print(f"{label} exit and stderr: identical", flush=True)
                else:
                    for side, (code, err) in results.items():
                        print(f"{label} ({side}): exit {code}: {err[-2000:]}", flush=True)
                continue
            codes = {side: code for side, (code, _) in results.items()}
            if any(codes.values()):
                failed = True
                for side, (code, err) in results.items():
                    if code:
                        print(err[-2000:], file=sys.stderr)
                print(f"{label}: exit {codes['parent']} (parent), {codes['change']} (change)")
                continue
            for path in sorted(outs["parent"].iterdir()):
                if path.name != "manifest.json":
                    print(f"{label} {path.name}: {describe(path, outs['change'] / path.name)}",
                          flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
