"""Smoke tests of the benchmark: every workload at tiny size, both modes.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 7


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def tiny_run(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1 + trace
    return result


def test_benchmark_json_names_what_run_reports():
    assert WORKLOADS == list(run.WORKLOADS)
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCH["per_layer"]] == list(run.PER_LAYER)
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = tiny_run(workload, trace=0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_inside_op_wall(workload):
    metrics = tiny_run(workload, trace=1)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]
    }
    trace = json.loads(
        (run.RUN_DIR / f"spans-{workload}-tiny-seed{SEED}.json").read_text()
    )
    traced = [p for op in trace["ops"] if op["traced"] for p in op["processes"]]
    assert traced
    for proc in traced:
        per_layer = run.layer_metrics([proc])
        self_total = sum(per_layer[f"layer.{name}.self_s"] for name in run.LAYERS)
        assert 0 < self_total <= proc["wall_s"]
        assert per_layer["pcmlab.import.s"] > 0
        assert per_layer["op.unattributed_s"] >= 0


def test_enumeration_trace_counts_match_the_reference():
    metrics = tiny_run("enumerate-deep", trace=1)["metrics"]
    reference = json.loads(run.REFERENCE.read_text())["enumerate-deep"]["tiny"]
    assert metrics["pdm.homographic.calls"]["value"] == reference["homographic_calls"]
    assert metrics["stationary.enumeration_distribution.atoms"]["value"] == reference["atoms"]


def test_checks_reject_altered_outputs():
    tables = run.Tables("full", seed=SEED)
    outputs = {case: run.reference_table(case) for case, _ in run.TABLE_CASES}
    assert tables.check(outputs) is None
    rows = outputs["low_loss"].splitlines()
    cells = rows[1].split(",")
    cells[3] = repr(float(cells[3]) - 0.1)
    rows[1] = ",".join(cells)
    assert tables.check({**outputs, "low_loss": "\n".join(rows) + "\n"}) is not None
    master = run.Tables("full", seed=run._config("paper_section5.json")["master_seed"])
    assert master.check({**outputs, "low_loss": outputs["low_loss"] + "\n"}) is not None

    ergodic = run.ErgodicLong("tiny", seed=SEED)
    length, checkpoints = run.RATE_SIZE["tiny"]
    good = run.rate_oracle(run.CONFIGS / run.RATE_CONFIG, SEED, length, checkpoints)
    as_csv = lambda rows: "n,sup_gap,envelope_ratio\n" + "".join(
        f"{n},{g!r},{e!r}\n" for n, g, e in rows)
    assert ergodic.check({"rate": as_csv(good)}) is None
    bad = [(n, g + 1e-6, e) for n, g, e in good]
    assert ergodic.check({"rate": as_csv(bad)}) is not None

    enum = run.EnumerateDeep("tiny", seed=SEED)
    assert "header" in enum.check({"atoms": "index,distance\n0,0.0\n"})


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
