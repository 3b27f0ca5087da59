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
    # pcmlab.cli; a missing one breaks every traced run, and one bound to
    # another function books its time under the wrong span.
    spec = importlib.util.spec_from_file_location(
        "perfbench_traced_op", ROOT / "perfbench" / "traced_op.py"
    )
    traced_op = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_op)
    patches = traced_op.PATCHES
    assert patches
    for module, attr, span, _ in patches:
        target = getattr(sys.modules[f"pcmlab.{module}"], attr, None)
        assert callable(target), f"pcmlab.{module}.{attr}"
        home, name = span.split(".")
        assert target is getattr(sys.modules[f"pcmlab.{home}"], name), span


def test_stack_jobs_reach_the_branch_maps_only_through_the_kernel():
    # The stack representation and the branch maps are private to
    # pcmlab.plant; the Monte-Carlo runs and the enumeration step their
    # stacks through _advance, and the experiments walk one PCM's path
    # through _walk, or piece by piece through _walk_pieces.
    allowed = {
        pcmlab.experiments: {"_advance", "_branch_blocks", "_walk", "_walk_pieces"},
        pcmlab.stationary: {"_advance", "_branch_blocks"},
    }
    for module, names in allowed.items():
        bound = {
            name for name, value in vars(module).items()
            if name.startswith("_") and not name.startswith("__")
            and vars(pcmlab.plant).get(name) is value
        }
        assert bound <= names, module.__name__


def run_python(code, **env_changes):
    """Standard output of ``python -c code`` with this checkout's ``src``
    first on the path; an ``env_changes`` value of None unsets the name."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for name, value in env_changes.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    # scipy serves only the test oracles; importing it cost every CLI
    # process most of its start-up time.
    code = (
        "import sys, pcmlab.cli; "
        "print(' '.join(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert run_python(code) == ""


def test_package_import_loads_no_numpy():
    # The exports resolve on first use, so the CLI can set numpy's
    # environment after `import pcmlab` and before numpy loads.
    code = "import sys, pcmlab; print('numpy' in sys.modules, len(pcmlab.__all__))"
    assert run_python(code) == "False 12"


def test_cli_pins_openblas_to_one_thread_unless_set():
    code = "import os, pcmlab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(code, OPENBLAS_NUM_THREADS=None) == "1"
    assert run_python(code, OPENBLAS_NUM_THREADS="3") == "3"
