"""The package's public names and the layer functions the benchmark traces."""

import importlib.util
import sys
from pathlib import Path

import pcmlab
import pcmlab.cli

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
