#!/usr/bin/env python
"""pin_bench — check or regenerate the committed quick pin of the
benchmark (``tests/golden/bench_quick_seed11.json``).

Usage:
    python tools/pin_bench.py            # diff the quick dark pass against the pin
    python tools/pin_bench.py --write    # rewrite the pin from this checkout

Runs one quick dark repetition of every ``BENCHMARK.json`` workload
in-process (``bench.rep.run``, the same call ``tests/test_bench_pins.py``
makes) and prints every number that differs from the pin, by workload
and metric name.  ``--write`` refuses to pin a run whose oracles fail.
Exit status: 0 when the pin matches (or was written), 1 otherwise.
"""

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from tests.test_bench_pins import PIN_PATH, diff, quick_pin, render  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the pin file from this checkout")
    args = parser.parse_args(argv)
    measured = quick_pin()
    failures = [f"{workload}: {failure}"
                for workload, row in measured.items()
                for failure in row["oracle_failures"]]
    if args.write:
        if failures:
            print("oracle failures; not pinned:", *failures, sep="\n  ")
            return 1
        PIN_PATH.write_text(render(measured))
        print(f"wrote {PIN_PATH.relative_to(ROOT)}")
        return 0
    moved = diff(json.loads(PIN_PATH.read_text()), measured)
    print("\n".join(moved) if moved else "quick dark pass matches the pin")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
