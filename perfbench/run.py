#!/usr/bin/env python3
"""pcmlab benchmark: one closed-loop client running `pcmlab` commands.

Usage (from the repository root):

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

Each operation (op) runs `pcmlab <command>` as its own process, the way users
run it, from the checkout's ``src/`` tree; the next op starts only after the
previous one has exited (one client, no concurrency).  Ops run until
``--seconds`` of measuring have passed.  Every op's outputs are checked, and
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of untraced ops, with times
scaled by a host-speed calibration taken in the same run.  ``--trace 1``
alternates untraced ops with ops run under ``traced_op.py`` and reports the
per-layer metrics of the traced ones plus the tracing overhead.  The spans of
a traced run are written to ``.bench_run/`` when the run ends.  See README.md
beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
RUN_DIR = ROOT / ".bench_run"
TRACER = HERE / "traced_op.py"
REFERENCE = HERE / "reference.json"

SIZES = ("full", "tiny")
TABLE_CASES = (
    ("low_loss", "paper_section5.json"),
    ("moderate_loss", "paper_section5_moderate.json"),
    ("heavy_loss", "paper_section5_heavy.json"),
)
# Tiny overrides keep the desk configs' plant, channel and ladder.
TABLE_TINY = {"trials": 200, "horizon": 60, "ergodic_length": 4000}
# Largest |empirical - delta| and |ergodic - delta| allowed per cluster row at
# seeds other than master_seed.  At full size eight seeds gave at most 0.022,
# most of it the moderate-loss channel-correlation bias the acceptance suite
# documents; tiny runs sample far fewer trials.
TABLE_TOL = {"full": 0.04, "tiny": 0.2}
RATE_CONFIG = "paper_section5_moderate.json"
RATE_SIZE = {"full": (200_000, (1_000, 10_000, 100_000)), "tiny": (3_000, (100, 1_000))}
RATE_TOL = 1e-9
ENUM_CONFIG = "paper_section5_heavy.json"
ENUM_MAX_LEN = {"full": 15, "tiny": 8}
ENUM_RTOL = 1e-9
SETUP_REPS = {"full": 5, "tiny": 1}
# Calibration kernel time, in seconds, on the host that recorded the baseline.
# Reported times are scaled to a host on which the kernel takes this long.
CAL_REF_S = 0.08
# How strongly op times follow the kernel: the least-squares slope of log op
# time on log kernel time over 80 baseline runs of the three workloads was 0.62.
CAL_EXPONENT = 0.6

LAYERS = ("cli", "experiments", "channel", "pdm", "riccati", "plant", "stationary")
# Every per-layer metric, in report order.  A layer a workload never reaches
# reports 0.
PER_LAYER = (
    "experiments.run_empirical.self_s",
    "experiments.run_empirical.trial_steps_per_s",
    "channel.sample_chain_batch.s",
    "channel.sample_chain_batch.buffer_bytes",
    "experiments.run_ergodic.self_s",
    "experiments.run_ergodic.steps_per_s",
    "experiments.rate_study.self_s",
    "pdm.distances_to.s",
    "pdm.distances_to.matrices_per_s",
    "pdm.homographic.calls",
    "pdm.homographic.s",
    "pdm.riemannian_distance.calls",
    "pdm.riemannian_distance.s",
    "stationary.enumeration_distribution.self_s",
    "stationary.enumeration_distribution.atoms",
    "stationary.enumeration_distribution.homographic_per_atom",
    "riccati.solve_dare.s",
    "riccati.solve_dare.iterations",
    "riccati.orbit_distances.s",
    "plant.build_modified_plant.s",
    "pcmlab.import.s",
    "cli.write_csv.s",
    "cli.write_csv.bytes",
    *(f"layer.{name}.self_s" for name in LAYERS),
    "op.unattributed_s",
    "trace.overhead_ratio",
)
END_TO_END = ("wall_s", "pcm_updates_per_s", "cpu_s", "peak_rss_mb", "setup_s")


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("bytes"):
        return "B"
    if metric.endswith(("_ratio", "_per_atom")):
        return "ratio"
    return "count"


# --------------------------------------------------------------------------
# Processes


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list, workdir: Path, spans: Path | None = None, op_id: int = 0) -> dict:
    """Run one pcmlab process to completion; wall, CPU and peak RSS from wait4."""
    if spans is None:
        cmd = [sys.executable, "-m", "pcmlab.cli", *argv]
    else:
        cmd = [sys.executable, str(TRACER), str(spans), str(op_id), *argv]
    with open(workdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "argv": argv,
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "stderr": (workdir / "stderr.txt").read_text(errors="replace")[-2000:],
    }


# --------------------------------------------------------------------------
# Host-speed calibration.  On a shared host the speed of the same op drifts by
# a third over minutes, in CPU time as much as in wall time, and the drift
# outlasts a run.  A fixed kernel is therefore timed before the first timed
# process and after each one, and every time of the run is scaled by CAL_REF_S
# over the mean of those samples, raised to CAL_EXPONENT.  The kernel does what pcmlab's ops do: 2x2
# float arithmetic in plain Python and small numpy calls.  It runs in this
# process, between ops, so no change to pcmlab can move it.


def _kernel() -> float:
    import numpy as np

    start = time.perf_counter()
    a, b, c, d = 1.1234, 0.0196, 0.0, 0.9802
    p0, p1, p2 = 21.3, 20.2, 20.0
    for _ in range(40_000):
        r0, r1 = a * p0 + b * p1, a * p1 + b * p2
        r2, r3 = c * p0 + d * p1, c * p1 + d * p2
        z0, z1, z2 = r0 * a + r1 * b + 1.9, r0 * c + r1 * d + 0.02, r2 * c + r3 * d + 1.9
        m0, m1, m2, m3 = 1.0 + z0 - z1, z1 - z2, z1 - z0, 1.0 - z1 + z2
        det = m0 * m3 - m1 * m2
        p0, p2 = (z0 * m3 - z1 * m2) / det, (z2 * m0 - z1 * m1) / det
        p1 = 0.5 * ((z1 * m0 - z0 * m1) + (z1 * m3 - z2 * m2)) / det
    a = np.array([[1.1234, 0.0196], [0.0, 0.9802]])
    w = np.array([[1.96, 0.02], [0.02, 1.96]])
    k = np.array([[1.0, -1.0], [-1.0, 1.0]])
    p, eye = 20.0 * np.eye(2), np.eye(2)
    for _ in range(2_500):
        z = a @ p @ a.T + w
        out = np.linalg.solve((eye + k @ z).T, z.T).T
        p = 0.5 * (out + out.T)
    return time.perf_counter() - start


class HostSpeed:
    """Calibrations taken before, between and after the timed processes of a run."""

    def __init__(self):
        self.samples: list = []
        self.calibrate()

    def calibrate(self) -> None:
        self.samples.append(statistics.median(_kernel() for _ in range(3)))

    def factor(self) -> float:
        """Scale for every time of the run: (CAL_REF_S / mean sample) ** CAL_EXPONENT.

        The mean, not the median: samples switch between a fast and a slow
        host state, and an op lasting seconds pays for the mix of the two.
        """
        return (CAL_REF_S / statistics.fmean(self.samples)) ** CAL_EXPONENT


# --------------------------------------------------------------------------
# Workloads: each yields the pcmlab argv of one op's processes, the PCM map
# applications one op performs, and the check of an op's output files.


class Workload:
    name = ""
    setup_config = ""

    def __init__(self, size: str, seed: int):
        self.size = size
        self.seed = seed

    def processes(self, out: Path) -> list:
        raise NotImplementedError

    def outputs(self, out: Path) -> dict:
        raise NotImplementedError

    def updates(self, outputs: dict) -> int:
        raise NotImplementedError

    def check(self, outputs: dict) -> str | None:
        """Return None when the outputs are correct, else what is wrong."""
        raise NotImplementedError


def _config(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text())


def _csv_rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def reference_table(case: str) -> str:
    """results/<case>/clusters.csv as recorded in reference.json."""
    return json.loads(REFERENCE.read_text())["tables"][case]


class Tables(Workload):
    """`pcmlab compare` on the three desk configs: one op is the table pass."""

    name = "tables"
    setup_config = "paper_section5.json"

    def _overrides(self) -> list:
        if self.size == "full":
            return []
        return [tok for key, val in TABLE_TINY.items()
                for tok in (f"--{key.replace('_', '-')}", str(val))]

    def processes(self, out):
        return [
            ["compare", "--config", str(CONFIGS / cfg), "--out", str(out / case),
             "--seed", str(self.seed), *self._overrides()]
            for case, cfg in TABLE_CASES
        ]

    def outputs(self, out):
        return {case: (out / case / "clusters.csv").read_text() for case, _ in TABLE_CASES}

    def updates(self, outputs):
        total = 0
        for _, cfg_name in TABLE_CASES:
            cfg = {**_config(cfg_name), **(TABLE_TINY if self.size == "tiny" else {})}
            total += cfg["trials"] * cfg["horizon"] + cfg["ergodic_length"]
        return total

    def check(self, outputs):
        tol = TABLE_TOL[self.size]
        for case, cfg_name in TABLE_CASES:
            text = outputs[case]
            expected = reference_table(case)
            if self.size == "full" and self.seed == _config(cfg_name)["master_seed"]:
                if text != expected:
                    return f"{case}: clusters.csv differs from results/{case}/clusters.csv"
                continue
            got, ref = _csv_rows(text), _csv_rows(expected)
            if [r[:2] for r in got] != [r[:2] for r in ref]:
                return f"{case}: distance or mass_delta column differs from results/{case}"
            cols = [[float(v) for v in row[1:]] for row in got[1:]]
            for j, name in enumerate(("mass_delta", "mass_ergodic", "mass_empirical")):
                column = [row[j] for row in cols]
                if not all(math.isfinite(v) and -1e-12 <= v <= 1 + 1e-12 for v in column):
                    return f"{case}: {name} has a value outside [0, 1]"
                if abs(math.fsum(column) - 1.0) > 1e-9:
                    return f"{case}: {name} does not sum to 1"
            for row in cols:
                if max(abs(row[1] - row[0]), abs(row[2] - row[0])) > tol:
                    return f"{case}: row {row} strays more than {tol} from mass_delta"
        return None


class ErgodicLong(Workload):
    """`pcmlab rate` on the moderate config with one long trajectory."""

    name = "ergodic-long"
    setup_config = RATE_CONFIG

    def processes(self, out):
        length, checkpoints = RATE_SIZE[self.size]
        return [[
            "rate", "--config", str(CONFIGS / RATE_CONFIG), "--out", str(out),
            "--seed", str(self.seed), "--ergodic-length", str(length),
            "--checkpoints", ",".join(map(str, checkpoints)),
        ]]

    def outputs(self, out):
        return {"rate": (out / "rate.csv").read_text()}

    def updates(self, outputs):
        return RATE_SIZE[self.size][0]

    def check(self, outputs):
        rows = _csv_rows(outputs["rate"])
        length, checkpoints = RATE_SIZE[self.size]
        if rows[0] != ["n", "sup_gap", "envelope_ratio"]:
            return f"unexpected rate.csv header {rows[0]}"
        got = [(int(r[0]), float(r[1]), float(r[2])) for r in rows[1:]]
        want = rate_oracle(CONFIGS / RATE_CONFIG, self.seed, length, checkpoints)
        if [g[0] for g in got] != [w[0] for w in want]:
            return f"checkpoints {[g[0] for g in got]} != {list(checkpoints)}"
        for (n, gap, env), (_, gap_ref, env_ref) in zip(got, want):
            if not (math.isfinite(gap) and math.isfinite(env)):
                return f"n = {n}: non-finite output"
            if abs(gap - gap_ref) > RATE_TOL or abs(env - env_ref) > RATE_TOL * max(1.0, env_ref):
                return f"n = {n}: ({gap!r}, {env!r}) != reference ({gap_ref!r}, {env_ref!r})"
        return None


class EnumerateDeep(Workload):
    """`pcmlab approx --method enumerate` on the heavy config, pruning active."""

    name = "enumerate-deep"
    setup_config = ENUM_CONFIG

    def processes(self, out):
        return [[
            "approx", "--method", "enumerate", "--max-len", str(ENUM_MAX_LEN[self.size]),
            "--config", str(CONFIGS / ENUM_CONFIG), "--out", str(out),
            "--seed", str(self.seed),
        ]]

    def outputs(self, out):
        return {"atoms": (out / "atoms.csv").read_text()}

    def updates(self, outputs):
        return atoms_summary(outputs["atoms"], ENUM_MAX_LEN[self.size])["homographic_calls"]

    def check(self, outputs):
        summary = atoms_summary(outputs["atoms"], ENUM_MAX_LEN[self.size])
        if isinstance(summary, str):
            return summary
        reference = json.loads(REFERENCE.read_text())[self.name][self.size]
        for key, want in reference.items():
            got = summary[key]
            if isinstance(want, int):
                if got != want:
                    return f"{key} = {got}, reference {want}"
            elif abs(got - want) > ENUM_RTOL * max(1.0, abs(want)):
                return f"{key} = {got!r}, reference {want!r}"
        return None


WORKLOADS = {w.name: w for w in (Tables, ErgodicLong, EnumerateDeep)}


def atoms_summary(text: str, max_len: int):
    """Seed-independent digest of atoms.csv, or a string naming a defect.

    ``homographic_calls`` counts the DFS's PCM map applications: the root
    plus two children of every kept atom shorter than ``max_len``.
    """
    rows = _csv_rows(text)
    if rows[0] != ["index", "distance", "mass", "code"]:
        return f"unexpected atoms.csv header {rows[0]}"
    rows = rows[1:]
    dist = [float(r[1]) for r in rows]
    mass = [float(r[2]) for r in rows]
    codes = [r[3] for r in rows]
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        return "atom indices are not 0..n-1"
    if not all(math.isfinite(d) and d >= 0 for d in dist):
        return "non-finite or negative atom distance"
    if any(b < a for a, b in zip(dist, dist[1:])):
        return "atoms are not sorted by distance"
    if not all(m >= 0 for m in mass) or len(set(codes)) != len(codes):
        return "negative atom mass or repeated atom code"
    residual = 1.0 - math.fsum(mass)
    if not -1e-12 <= residual < 1.0:
        return f"residual mass {residual!r} outside [0, 1)"
    return {
        "atoms": len(rows),
        "homographic_calls": 1 + 2 * sum(1 for c in codes if 0 < len(c) < max_len),
        "residual": residual,
        "distance_sum": math.fsum(dist),
        "mass_weighted_distance": math.fsum(m * d for m, d in zip(mass, dist)),
        "max_distance": dist[-1],
    }


def rate_oracle(config: Path, seed: int, length: int, checkpoints) -> list:
    """Independent recomputation of `pcmlab rate` for a 2x2 plant.

    Takes the modified plant, fixed point, ladder and arrival word from
    pcmlab's public functions, then runs the PCM recursion, the distances and
    the running distribution function in plain Python floats.  The recursion
    contracts, so its round-off stays at the 1e-15 level and the sup gaps
    match the program's to well within ``RATE_TOL``.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from pcmlab.channel import sample_chain, stationary_probability
    from pcmlab.cli import load_config
    from pcmlab.experiments import ERGODIC_STREAM, prepare

    cfg = load_config(config)
    prep = prepare(cfg)
    mp = prep.mp
    if mp.a0.shape != (2, 2):
        raise ValueError("the rate oracle handles 2x2 plants only")
    word = sample_chain(
        cfg.channel, stationary_probability(cfg.channel), length, seed, stream=ERGODIC_STREAM
    )
    (a00, a01), (a10, a11) = mp.a0.tolist()
    (b00, b01), (b10, b11) = mp.a1.tolist()
    (w00, w01), (_, w11) = (mp.g0 @ mp.g0.T).tolist()
    (v00, v01), (_, v11) = (mp.g1 @ mp.g1.T).tolist()
    (k00, k01), (k10, k11) = (mp.h1.T @ mp.h1).tolist()
    (s00, s01), (_, s11) = prep.p_star.entries.tolist()
    # Whitening by the Cholesky factor L of the fixed point: W = L^-1 P L^-T.
    l00 = math.sqrt(s00)
    l10 = s01 / l00
    l11 = math.sqrt(s11 - l10 * l10)

    def distance(p00, p01, p11):
        u00 = p00 / l00
        u01 = p01 / l00
        u11 = (p11 - l10 * u01) / l11
        u10 = (p01 - l10 * u00) / l11
        x00 = u00 / l00
        x01 = (u01 - l10 * x00) / l11
        x11 = (u11 - l10 * u10 / l00) / l11
        half = 0.5 * (x00 + x11)
        rad = math.sqrt((0.5 * (x00 - x11)) ** 2 + x01 * x01)
        hi = half + rad
        lo = (x00 * x11 - x01 * x01) / hi
        return math.sqrt(math.log(hi) ** 2 + math.log(lo) ** 2) / math.log(10.0)

    p00, p01, p11 = s00, s01, s11
    samples = [distance(p00, p01, p11)]
    for got in word[1:].tolist():
        if got:
            # z = A1 P A1' + W1, then P' = z (I + K1 z)^-1, symmetrized.
            r00 = b00 * p00 + b01 * p01
            r01 = b00 * p01 + b01 * p11
            r10 = b10 * p00 + b11 * p01
            r11 = b10 * p01 + b11 * p11
            z00 = r00 * b00 + r01 * b01 + v00
            z01 = r00 * b10 + r01 * b11 + v01
            z11 = r10 * b10 + r11 * b11 + v11
            m00 = 1.0 + k00 * z00 + k01 * z01
            m01 = k00 * z01 + k01 * z11
            m10 = k10 * z00 + k11 * z01
            m11 = 1.0 + k10 * z01 + k11 * z11
            det = m00 * m11 - m01 * m10
            p00 = (z00 * m11 - z01 * m10) / det
            p11 = (-z01 * m01 + z11 * m00) / det
            p01 = 0.5 * ((-z00 * m01 + z01 * m00) + (z01 * m11 - z11 * m10)) / det
        else:
            r00 = a00 * p00 + a01 * p01
            r01 = a00 * p01 + a01 * p11
            r10 = a10 * p00 + a11 * p01
            r11 = a10 * p01 + a11 * p11
            p00 = r00 * a00 + r01 * a01 + w00
            p01 = 0.5 * ((r00 * a10 + r01 * a11) + (r10 * a00 + r11 * a01)) + w01
            p11 = r10 * a10 + r11 * a11 + w11
        samples.append(distance(p00, p01, p11))

    ladder = prep.ladder.tolist()
    grid = [ladder[1] / cfg.n_s]
    grid += [d + (nxt - d) / cfg.n_s for d, nxt in zip(ladder[1:-1], ladder[2:])]
    grid.append(ladder[-1])
    running = {c: [0] * len(grid) for c in checkpoints}
    counts = [0] * len(grid)
    marks = set(checkpoints)
    for k, s in enumerate(samples):
        for i, hi in enumerate(grid):
            if s <= hi:
                counts[i] += 1
        if k in marks:
            running[k] = [c / (k + 1) for c in counts]
    final = [c / len(samples) for c in counts]
    out = []
    for c in checkpoints:
        gap = max(abs(a - b) for a, b in zip(running[c], final))
        out.append((c, gap, gap / (math.log(c) / c) ** 0.25))
    return out


# --------------------------------------------------------------------------
# Traces


def layer_metrics(processes: list) -> dict:
    """Per-layer metrics of one traced op from its processes' spans.

    A span's self time is its duration minus that of its direct children;
    spans nest, since each process is single-threaded.
    """
    calls, total, self_s, count = {}, {}, {}, {}
    wall = 0.0
    for proc in processes:
        wall += proc["wall_s"]
        spans = proc["spans"]
        child = [0.0] * len(spans)
        for span_id, name, start, end, parent, _op, _n in spans:
            if parent >= 0:
                child[parent] += end - start
        for span_id, name, start, end, parent, _op, n in spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[span_id]
            count[name] = count.get(name, 0) + (n or 0)

    def rate(name):
        return count[name] / self_s[name] if self_s.get(name) else 0.0

    per_atom = (
        calls.get("pdm.homographic", 0) / count["stationary.enumeration_distribution"]
        if count.get("stationary.enumeration_distribution") else 0.0
    )
    metrics = {
        "experiments.run_empirical.self_s": self_s.get("experiments.run_empirical", 0.0),
        "experiments.run_empirical.trial_steps_per_s": rate("experiments.run_empirical"),
        "channel.sample_chain_batch.s": total.get("channel.sample_chain_batch", 0.0),
        "channel.sample_chain_batch.buffer_bytes": count.get("channel.sample_chain_batch", 0),
        "experiments.run_ergodic.self_s": self_s.get("experiments.run_ergodic", 0.0),
        "experiments.run_ergodic.steps_per_s": rate("experiments.run_ergodic"),
        "experiments.rate_study.self_s": self_s.get("experiments.rate_study", 0.0),
        "pdm.distances_to.s": total.get("pdm.distances_to", 0.0),
        "pdm.distances_to.matrices_per_s": rate("pdm.distances_to"),
        "pdm.homographic.calls": calls.get("pdm.homographic", 0),
        "pdm.homographic.s": total.get("pdm.homographic", 0.0),
        "pdm.riemannian_distance.calls": calls.get("pdm.riemannian_distance", 0),
        "pdm.riemannian_distance.s": total.get("pdm.riemannian_distance", 0.0),
        "stationary.enumeration_distribution.self_s":
            self_s.get("stationary.enumeration_distribution", 0.0),
        "stationary.enumeration_distribution.atoms":
            count.get("stationary.enumeration_distribution", 0),
        "stationary.enumeration_distribution.homographic_per_atom": per_atom,
        "riccati.solve_dare.s": total.get("riccati.solve_dare", 0.0),
        "riccati.solve_dare.iterations": count.get("riccati.solve_dare", 0),
        "riccati.orbit_distances.s": total.get("riccati.orbit_distances", 0.0),
        "plant.build_modified_plant.s": total.get("plant.build_modified_plant", 0.0),
        "pcmlab.import.s": total.get("pcmlab.import", 0.0),
        "cli.write_csv.s": total.get("cli.write_csv", 0.0),
        "cli.write_csv.bytes": count.get("cli.write_csv", 0),
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.split(".")[0] == layer
        )
    metrics["op.unattributed_s"] = wall - sum(self_s.values())
    return metrics


# --------------------------------------------------------------------------
# Environment stamp


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def stamp() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


# --------------------------------------------------------------------------
# Main loop


def tail_text(values: list) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no percentile has ten samples beyond it (n = {n})"
    ordered = sorted(values)
    return f"p{100.0 * (n - 10) / n:.1f} = {ordered[n - 11]:.4f} s (n = {n})"


def run_op(workload: Workload, op_id: int, traced: bool) -> dict:
    RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUN_DIR, prefix="op-") as tmp:
        tmp = Path(tmp)
        procs, error = [], None
        start = time.perf_counter()
        for i, argv in enumerate(workload.processes(tmp / "out")):
            spans = tmp / f"spans-{i}.json" if traced else None
            proc = spawn(argv, tmp, spans, op_id)
            if spans is not None and spans.is_file():
                proc["spans"] = json.loads(spans.read_text())["spans"]
            procs.append(proc)
            if proc["code"] != 0:
                error = f"`pcmlab {argv[0]}` exited {proc['code']}: {proc['stderr']}"
                break
        wall = time.perf_counter() - start
        outputs = workload.outputs(tmp / "out") if error is None else None
    return {
        "op_id": op_id,
        "traced": traced,
        "wall_s": wall,
        "cpu_s": sum(p["cpu_s"] for p in procs),
        "rss_mb": max(p["rss_mb"] for p in procs),
        "processes": procs,
        "outputs": outputs,
        "error": error,
    }


def measure_setup(workload: Workload, speed: HostSpeed) -> tuple[list, str | None]:
    """Wall times of `pcmlab validate` on the workload's config."""
    case = {cfg: case for case, cfg in TABLE_CASES}.get(workload.setup_config)
    times = []
    RUN_DIR.mkdir(exist_ok=True)
    for _ in range(SETUP_REPS[workload.size]):
        with tempfile.TemporaryDirectory(dir=RUN_DIR, prefix="setup-") as tmp:
            tmp = Path(tmp)
            argv = ["validate", "--config", str(CONFIGS / workload.setup_config),
                    "--out", str(tmp / "out")]
            proc = spawn(argv, tmp)
            if proc["code"] != 0:
                return times, f"`pcmlab validate` exited {proc['code']}: {proc['stderr']}"
            ladder = json.loads((tmp / "out" / "validate.json").read_text())["distance_ladder"]
            times.append(proc["wall_s"])
            speed.calibrate()
        expected = [float(r[0]) for r in _csv_rows(reference_table(case))[1:-1]]
        if ladder != expected:
            return times, f"validate ladder {ladder} != results/{case} distances"
    return times, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=SIZES,
                        help="`tiny` shrinks every op for smoke tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    missing = [p for p in (SRC / "pcmlab" / "cli.py", CONFIGS) if not p.exists()]
    if missing:
        print(f"perfbench: not a pcmlab checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.size, args.seed)
    info = stamp()
    print("stamp: " + json.dumps(info, sort_keys=True))
    speed = HostSpeed()
    setup, setup_error = measure_setup(workload, speed)

    # A traced run alternates untraced and traced ops and needs one of each.
    min_ops = 2 if args.trace else 1
    ops, failures, first = [], [], None
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < args.seconds:
        op = run_op(workload, len(ops), traced=bool(args.trace) and len(ops) % 2 == 1)
        speed.calibrate()
        ops.append(op)
        # Outputs are deterministic in the seed: later ops must repeat the first.
        if op["error"] is None and first is None:
            first = op["outputs"]
        elif op["error"] is None and op["outputs"] != first:
            op["error"] = "outputs differ from the first op of this run"
    if first is not None:
        verdict = workload.check(first)
        for op in ops:
            if op["error"] is None and verdict is not None:
                op["error"] = verdict
    for op in ops:
        if op["error"] is not None:
            failures.append(op["error"])
            print(f"op {op['op_id']} failed: {op['error']}", file=sys.stderr)
    if setup_error:
        print(f"setup failed: {setup_error}", file=sys.stderr)

    good = [op for op in ops if op["error"] is None]
    if args.trace:
        traced = [op for op in good if op["traced"]]
        plain = [op for op in good if not op["traced"]]
        per_op = [layer_metrics(op["processes"]) for op in traced]
        values = {name: statistics.median(m[name] for m in per_op) if per_op else 0.0
                  for name in PER_LAYER if name != "trace.overhead_ratio"}
        values["trace.overhead_ratio"] = (
            statistics.median(o["wall_s"] for o in traced)
            / statistics.median(o["wall_s"] for o in plain) - 1.0
            if traced and plain else 0.0
        )
        RUN_DIR.mkdir(exist_ok=True)
        spans_path = RUN_DIR / f"spans-{workload.name}-{args.size}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "stamp": info,
            "workload": workload.name,
            "ops": [{k: op[k] for k in ("op_id", "traced", "wall_s", "processes")}
                    for op in ops],
        }))
        layer = max(LAYERS, key=lambda name: values[f"layer.{name}.self_s"])
        # Function-level times below are all self times or leaf spans.
        spans = sorted(
            (v, k) for k, v in values.items()
            if k.endswith(("self_s", ".s")) and not k.startswith(("layer.", "op."))
        )[::-1][:3]
        print(f"{workload.name}: {len(traced)} traced / {len(plain)} untraced ops; "
              f"dominant layer {layer}; top self times "
              + ", ".join(f"{k} {v:.3f} s" for v, k in spans)
              + f"; tracing overhead {100 * values['trace.overhead_ratio']:+.1f}%; "
              f"spans in {spans_path.relative_to(ROOT)}")
    else:
        factor = speed.factor()
        walls = [op["wall_s"] * factor for op in good]
        updates = workload.updates(good[0]["outputs"]) if good else 0
        values = {
            "wall_s": statistics.median(walls) if good else 0.0,
            "pcm_updates_per_s": statistics.median(updates / w for w in walls) if good else 0.0,
            "cpu_s": statistics.median(op["cpu_s"] * factor for op in good) if good else 0.0,
            "peak_rss_mb": statistics.median(op["rss_mb"] for op in good) if good else 0.0,
            "setup_s": statistics.median(setup) * factor if setup else 0.0,
        }
        raw = [op["wall_s"] for op in good]
        print(f"{workload.name}: wall_s median {values['wall_s']:.4f} s, "
              f"{tail_text(walls)}; {updates} PCM updates per op; "
              f"failed_ratio {len(failures) / len(ops):.3f}")
        print("unscaled: op wall " + " ".join(f"{w:.3f}" for w in raw)
              + f" s (median {statistics.median(raw) if raw else 0.0:.4f}); setup "
              + " ".join(f"{w:.3f}" for w in setup) + " s; calibration "
              + " ".join(f"{1000 * c:.1f}" for c in speed.samples)
              + f" ms; scale factor {factor:.4f}")
    correct = not failures and setup_error is None
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
