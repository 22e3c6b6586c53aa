#!/usr/bin/env python
"""seed_sweep — is a change steady across seeds, the way the benchmark
driver will read it?

Usage:
    python tools/seed_sweep.py [--seeds 11-30] [--parent PATH]
                               [--scale 1] [WORKLOAD ...]

Runs ``python3 -m bench.rep`` (dark, one repetition per seed — the
simulated metrics are exact, so one is enough) for each named workload
(default: all of ``BENCHMARK.json``) and prints, per end-to-end metric,
the median and the distance between the quartiles over the seeds.  With
``--parent PATH`` (a second checkout, e.g. ``git clone . /root/scratch/
parent``) every seed is run there too, and each row gains the parent's
median and quartile distance, what the metric's ``BENCHMARK.json`` bound
allows (bound x the parent's median), on how many seeds the change reads
better, and the per-seed difference — one number when it is the same at
every seed.  A quartile distance wider than the allowance is a metric
the driver cannot read (``SPREAD``), whatever its median did.

The host-clock rows (``host_*``, ``setup_s``, ``peak_rss_mb``) come from
one repetition each and are as noisy as the machine; trust the simulated
rows.  This tool only calls ``bench``; it is not part of it.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import catalogue  # noqa: E402
from bench.__main__ import end_to_end, problems_of  # noqa: E402


def run_rep(checkout, workload, seed, scale):
    """One dark repetition of ``workload`` in ``checkout``'s own code."""
    job = {"workload": workload, "seed": seed, "scale": scale, "mode": "dark"}
    done = subprocess.run(
        [sys.executable, "-m", "bench.rep", json.dumps(job)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def sweep(checkout, workload, seeds, scale):
    """End-to-end rows per seed, and the problems the oracles found."""
    rows, problems = [], []
    for seed in seeds:
        rep = run_rep(checkout, workload, seed, scale)
        rows.append(dict(end_to_end([rep]), sim_digest=rep["sim_digest"]))
        problems += [f"seed {seed}: {p}"
                     for p in problems_of([rep], "one repetition")]
    return rows, problems


def spread(values):
    """(median, distance between the quartiles)."""
    if len(values) < 2:
        return values[0], 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return statistics.median(values), high - low


def report(workload, metrics, ours, parents):
    head = f"{workload}: {len(ours)} seeds"
    if parents:
        same = sum(a["sim_digest"] == b["sim_digest"]
                   for a, b in zip(ours, parents))
        head += f", sim_digest equal to the parent's on {same}"
    print(head)
    for metric in metrics:
        name = metric["name"]
        values = [row[name] for row in ours]
        median, iqr = spread(values)
        line = f"  {name:<24} median {median:<12.6g} iqr {iqr:<10.4g}"
        if parents:
            base = [row[name] for row in parents]
            base_median, base_iqr = spread(base)
            allowed = metric["bound"] * abs(base_median)
            sign = 1 if metric["better"] == "higher" else -1
            diffs = [round(a - b, 9) + 0.0 for a, b in zip(values, base)]
            wins = sum(sign * d > 0 for d in diffs)
            losses = sum(sign * d < 0 for d in diffs)
            delta = (f"{diffs[0]:+.6g} at every seed"
                     if len(set(diffs)) == 1
                     else f"{min(diffs):+.6g} … {max(diffs):+.6g}")
            line += (f" | parent {base_median:<12.6g} iqr {base_iqr:<10.4g}"
                     f" allowed {allowed:<10.4g} better on {wins}, worse on "
                     f"{losses} of {len(diffs)}; diff {delta}")
            if max(iqr, base_iqr) > allowed:
                line += "  SPREAD"
        print(line)


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    benchmark = catalogue()
    known = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        prog="seed_sweep",
        description="median and quartile distance of every end-to-end "
                    "metric over a range of seeds, optionally against a "
                    "second checkout")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"default: all of {known}")
    parser.add_argument("--seeds", default="11-30", metavar="A-B")
    parser.add_argument("--parent", metavar="PATH", default=None,
                        help="a checkout of the commit to compare with")
    parser.add_argument("--scale", type=int, default=1,
                        help="divide the op counts (50 = bench --quick)")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    unknown = sorted(set(args.workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {known}")
    problems = []
    for workload in args.workloads or known:
        ours, found = sweep(ROOT, workload, seeds, args.scale)
        problems += found
        parents = None
        if args.parent:
            parents, found = sweep(args.parent, workload, seeds, args.scale)
            problems += [f"parent: {p}" for p in found]
        report(workload, benchmark["end_to_end"], ours, parents)
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
