#!/usr/bin/env python3
"""Record the reference outputs that run.py checks into perfbench/reference.json.

Usage (from the repository root): python3 perfbench/record_reference.py

- ``tables``: the committed ``results/<case>/clusters.csv`` texts, so the
  check does not depend on ``results/`` being present in a checkout.
- ``enumerate-deep``: a digest of `pcmlab approx --method enumerate` at each
  benchmark size.  Enumeration ignores the seed, so one digest per size
  serves every seed.

Re-record only when a change to the program is meant to move these outputs,
and say so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, ROOT, RUN_DIR, SIZES, TABLE_CASES, EnumerateDeep, atoms_summary, spawn


def main() -> int:
    tables = {case: (ROOT / "results" / case / "clusters.csv").read_text()
              for case, _ in TABLE_CASES}
    RUN_DIR.mkdir(exist_ok=True)
    digests = {}
    for size in SIZES:
        workload = EnumerateDeep(size, seed=0)
        with tempfile.TemporaryDirectory(dir=RUN_DIR) as tmp:
            tmp = Path(tmp)
            (argv,) = workload.processes(tmp / "out")
            proc = spawn(argv, tmp)
            if proc["code"] != 0:
                print(proc["stderr"], file=sys.stderr)
                return 1
            text = workload.outputs(tmp / "out")["atoms"]
        digests[size] = atoms_summary(text, int(argv[argv.index("--max-len") + 1]))
    REFERENCE.write_text(
        json.dumps({"tables": tables, EnumerateDeep.name: digests}, indent=2) + "\n"
    )
    print(json.dumps(digests, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
