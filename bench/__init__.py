"""The repository's layered benchmark (see bench/README.md).

``python3 -m bench --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; without ``--workload`` it runs all four.  The
package imports only ``repro`` — never ``benchmarks/`` or ``tools/`` —
and ``BENCHMARK.json`` at the repository root is the one catalogue of
workload and metric names.
"""

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"


def catalogue() -> dict:
    """``BENCHMARK.json`` as a dict (workloads, metrics, units, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
