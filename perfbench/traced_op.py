#!/usr/bin/env python3
"""Run one `pcmlab` command with timing spans around its layer functions.

Usage: python3 perfbench/traced_op.py SPANS_JSON OP_ID <pcmlab arguments...>

Before calling ``pcmlab.cli.main`` this replaces public layer functions, at
the module names their callers bind, with wrappers that record a span per
call: ``[id, name, start, end, parent id, op id, count]``.  ``count`` is the
work a call did where one is defined (steps, matrices, atoms, bytes,
iterations).  Spans stay in memory and are written to SPANS_JSON at exit.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list = []
        self.stack: list = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, op_id, clock = self.spans, self.stack, self.op_id, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), name, 0.0, 0.0, stack[-1] if stack else -1, op_id, None]
            spans.append(span)
            stack.append(span[0])
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                span[6] = count(args, result)
            return result

        return traced


# (module, attribute, span name, count of work done).  A function bound in
# several modules is wrapped at each binding its callers use.
PATCHES = (
    ("cli", "write_csv", "cli.write_csv", lambda a, r: Path(a[0]).stat().st_size),
    ("cli", "build_modified_plant", "plant.build_modified_plant", None),
    ("cli", "prepare", "experiments.prepare", None),
    ("cli", "compare_table", "experiments.compare_table", None),
    ("cli", "rate_study", "experiments.rate_study", None),
    ("cli", "enumeration_distribution", "stationary.enumeration_distribution",
     lambda a, r: len(r.atoms)),
    ("experiments", "prepare", "experiments.prepare", None),
    ("experiments", "build_modified_plant", "plant.build_modified_plant", None),
    ("experiments", "solve_dare", "riccati.solve_dare", lambda a, r: r.iterations),
    ("experiments", "orbit_distances", "riccati.orbit_distances", None),
    ("experiments", "delta_distribution", "stationary.delta_distribution", None),
    ("experiments", "run_empirical", "experiments.run_empirical",
     lambda a, r: a[0].trials * a[0].horizon),
    ("experiments", "run_ergodic", "experiments.run_ergodic", lambda a, r: r[0].size - 1),
    ("experiments", "sample_chain", "channel.sample_chain", None),
    # Bytes of the float64 uniforms plus the uint8 words it materializes.
    ("experiments", "sample_chain_batch", "channel.sample_chain_batch",
     lambda a, r: 9 * r.size),
    ("experiments", "distances_to", "pdm.distances_to", lambda a, r: r.size),
    ("stationary", "homographic", "pdm.homographic", None),
    ("stationary", "riemannian_distance", "pdm.riemannian_distance", None),
)


def main(argv: list) -> int:
    spans_path, op_id, pcmlab_args = Path(argv[0]), int(argv[1]), argv[2:]
    tracer = Tracer(op_id)
    start = time.perf_counter()
    import pcmlab.cli

    tracer.spans.append([0, "pcmlab.import", start, time.perf_counter(), -1, op_id, None])
    for module, attr, name, count in PATCHES:
        mod = sys.modules[f"pcmlab.{module}"]
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), count))
    try:
        return tracer.wrap("cli.main", pcmlab.cli.main)(pcmlab_args)
    finally:
        spans_path.write_text(json.dumps({"op_id": op_id, "spans": tracer.spans}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
