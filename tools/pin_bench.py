#!/usr/bin/env python
"""pin_bench — check or regenerate the committed quick pins of the
benchmark (``tests/golden/bench_quick_seed11.json`` and
``tests/golden/bench_calls_seed11.json``).

Usage:
    python tools/pin_bench.py            # diff the quick passes against the pins
    python tools/pin_bench.py --write    # rewrite both pins from this checkout

Runs one quick dark repetition of every ``BENCHMARK.json`` workload
in-process (``bench.rep.run``, the same call ``tests/test_bench_pins.py``
makes), then one quick profiled repetition, and prints every number
that differs from the pins: by workload and metric name, and by
workload and layer for the calls per layer.  ``--write`` refuses to pin
a run whose oracles fail.  Needs no pytest.
Exit status: 0 when the pins match (or were written), 1 otherwise.
"""

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from tests.test_bench_pins import (  # noqa: E402
    CALLS_PATH, PIN_PATH, calls_pin, diff, diff_calls, quick_pin, render)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the pin files from this checkout")
    args = parser.parse_args(argv)
    measured = quick_pin()
    calls = calls_pin()
    failures = [f"{workload}: {failure}"
                for workload, row in measured.items()
                for failure in row["oracle_failures"]]
    if args.write:
        if failures:
            print("oracle failures; not pinned:", *failures, sep="\n  ")
            return 1
        for path, pin in ((PIN_PATH, measured), (CALLS_PATH, calls)):
            path.write_text(render(pin))
            print(f"wrote {path.relative_to(ROOT)}")
        return 0
    moved = (diff(json.loads(PIN_PATH.read_text()), measured)
             + diff_calls(json.loads(CALLS_PATH.read_text()), calls))
    print("\n".join(moved) if moved else "quick passes match the pins")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
