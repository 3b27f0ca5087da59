"""The package's public names and the layer functions the benchmark traces."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pcmlab
import pcmlab.cli
import pcmlab.experiments
import pcmlab.plant
import pcmlab.stationary

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = {
    "__version__",
    "ChannelParams",
    "ExperimentConfig",
    "NominalPlant",
    "PDMatrix",
    "build_modified_plant",
    "delta_distribution",
    "enumerate_reachable",
    "pcm_step",
    "prepare",
    "riemannian_distance",
    "solve_dare",
}


def test_public_names():
    assert len(pcmlab.__all__) == len(PUBLIC_NAMES)
    assert set(pcmlab.__all__) == PUBLIC_NAMES
    for name in pcmlab.__all__:
        assert hasattr(pcmlab, name), name


def test_traced_layer_functions_resolve():
    # The benchmark's tracer replaces these attributes after importing
    # pcmlab.cli; a missing one breaks every traced run.
    spec = importlib.util.spec_from_file_location(
        "perfbench_traced_op", ROOT / "perfbench" / "traced_op.py"
    )
    traced_op = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_op)
    patches = traced_op.PATCHES
    assert patches
    for module, attr, *_ in patches:
        mod = sys.modules[f"pcmlab.{module}"]
        assert callable(getattr(mod, attr, None)), f"pcmlab.{module}.{attr}"


def test_stack_jobs_reach_the_branch_maps_only_through_the_kernel():
    # The stack representation and the branch maps are private to
    # pcmlab.plant; the Monte-Carlo runs and the enumeration step their
    # stacks through _advance, and the experiments walk one PCM's path
    # through _walk.
    allowed = {
        pcmlab.experiments: {"_advance", "_branch_blocks", "_walk"},
        pcmlab.stationary: {"_advance", "_branch_blocks"},
    }
    for module, names in allowed.items():
        bound = {
            name for name, value in vars(module).items()
            if name.startswith("_") and not name.startswith("__")
            and vars(pcmlab.plant).get(name) is value
        }
        assert bound <= names, module.__name__


def test_cli_import_loads_no_scipy():
    # scipy serves only the test oracles; importing it cost every CLI
    # process most of its start-up time.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import sys, pcmlab.cli; "
        "print(' '.join(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""
