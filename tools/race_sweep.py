#!/usr/bin/env python
"""race_sweep — replay golden scenarios under permuted tie-break orders.

Usage:
    python tools/race_sweep.py [--seeds 1,2,3] [--json report.json]
                               [--scenario NAME]

The dynamic companion to ``reprolint`` (docs/STATIC_ANALYSIS.md): runs
every golden scenario once on the stock scheduler, once in
identity-replay mode, and once per permutation seed, permuting the
order of same-instant network arrivals from *different* source hosts —
the orderings a real LAN never promises.  Exits non-zero if any
semantic artifact (delivery traces, final replica states, semantic
metric series) differs byte-for-byte from the baseline; transport
*effort* series (retransmissions, datagram/byte counts) legitimately
vary with arrival order and are reported as informational deltas.
"""

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from reprolint.race import permutation_sweep  # noqa: E402
from reprolint.scenarios import GOLDEN_SCENARIOS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="race_sweep",
        description="permute same-time tie-break orders over the golden "
                    "scenarios and diff the artifacts")
    parser.add_argument("--seeds", default="1,2,3",
                        help="comma-separated permutation seeds "
                             "(default: 1,2,3)")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="write the machine-readable report to FILE")
    parser.add_argument("--scenario", choices=sorted(GOLDEN_SCENARIOS),
                        default=None,
                        help="sweep a single scenario (default: all)")
    args = parser.parse_args(argv)
    seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())

    scenarios = ({args.scenario: GOLDEN_SCENARIOS[args.scenario]}
                 if args.scenario else GOLDEN_SCENARIOS)
    reports = []
    ok = True
    for name, scenario in scenarios.items():
        report = permutation_sweep(scenario, name=name,
                                   permutation_seeds=seeds)
        reports.append(report)
        ok = ok and report.ok
        print(f"{name}: {'OK' if report.ok else 'DIVERGED'} "
              f"({len(report.runs)} runs, seeds {list(seeds)})")
        for run in report.runs:
            stats = run.recorder or {}
            print(f"  {run.label}: cohorts={stats.get('cohorts', 0)} "
                  f"multi_lane={stats.get('multi_lane_cohorts', 0)} "
                  f"effort_deltas={len(run.effort_deltas)} "
                  f"divergences={len(run.divergences)}")
            for key, note in sorted(run.divergences.items()):
                print(f"    DIVERGED {key}: {note}")

    if args.json:
        payload = {"schema": 1, "ok": ok,
                   "seeds": list(seeds),
                   "sweeps": [r.to_dict() for r in reports]}
        pathlib.Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"race_sweep: wrote {args.json}")
    print("race sweep:", "every semantic artifact byte-identical"
          if ok else "SEMANTIC DIVERGENCE — tie-break order leaked")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
