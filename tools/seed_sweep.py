#!/usr/bin/env python
"""seed_sweep — is a change steady across seeds, the way the benchmark
driver will read it?

Usage:
    python tools/seed_sweep.py [--seeds 11-30] [--parent PATH]
                               [--scale 1] [WORKLOAD ...]
    python tools/seed_sweep.py --pairs 10 --parent PATH [--seeds 11]
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
the driver cannot read (``SPREAD``), whatever its median did; the row
then says whether every seed of the change reads better than every seed
of the parent (``SPREAD, every seed better``), worse than every one
(``SPREAD, every seed worse``), or neither (``SPREAD, unresolved``).

The host-clock rows (``host_*``, ``setup_s``, ``peak_rss_mb``) come from
one repetition each and are as noisy as the machine; trust the simulated
rows.  For them, ``--pairs N`` runs N pairs of dark repetitions of the
parent and this checkout at one seed, alternating which side goes
first, and prints for ``host_cpu_us_per_op``, ``host_ops_per_s`` and
``peak_rss_mb`` each side's median and quartiles, the pairs this checkout won (ties
count for neither) and whether a gain may be claimed: at least nine
tenths of the pairs won and a median gap wider than the distance
between the parent's quartiles.  This tool only calls ``bench``; it is
not part of it.
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
from bench.__main__ import end_to_end, host_samples, problems_of  # noqa: E402

#: The host metrics ``--pairs`` compares.
PAIRED = ("host_cpu_us_per_op", "host_ops_per_s", "peak_rss_mb")


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


def quartiles(values):
    """(lower quartile, median, upper quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def spread(values):
    """(median, distance between the quartiles)."""
    low, median, high = quartiles(values)
    return median, high - low


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
                line += "  " + spread_verdict(base, values, metric["better"])
        print(line)


def spread_verdict(parent, change, better):
    """What a SPREAD row still says: the change's seeds all read better
    than every seed of the parent, all worse, or the ranges overlap."""
    sign = 1 if better == "higher" else -1
    base, ours = [sign * p for p in parent], [sign * c for c in change]
    if min(ours) > max(base):
        return "SPREAD, every seed better"
    if max(ours) < min(base):
        return "SPREAD, every seed worse"
    return "SPREAD, unresolved"


def claim(parent, change, better):
    """Pairs won by ``change`` and whether the gain may be claimed:
    nine tenths of the pairs won, and the medians further apart, the
    right way, than the parent's quartiles."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    low, base_median, high = quartiles(parent)
    gap = sign * (quartiles(change)[1] - base_median)
    return wins, wins >= 0.9 * len(parent) and gap > high - low


def pairs(workload, metrics, parent_path, seed, count, scale):
    """``count`` alternating pairs of dark repetitions: the parent runs
    first in even pairs, this checkout in odd ones."""
    sides = {"parent": [], "change": []}
    for index in range(count):
        order = [("parent", parent_path), ("change", ROOT)]
        if index % 2:
            order.reverse()
        for side, checkout in order:
            sides[side].append(run_rep(checkout, workload, seed, scale))
    problems = []
    for side, reps in sides.items():
        problems += [f"{side}: {p}"
                     for p in problems_of(reps, f"the {side}'s repetitions")]
    same = sides["parent"][0]["sim_digest"] == sides["change"][0]["sim_digest"]
    print(f"{workload}: {count} alternating pairs at seed {seed}, "
          f"sim_digest {'equal to' if same else 'differs from'} the parent's")
    samples = {side: host_samples(reps) for side, reps in sides.items()}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        if name not in PAIRED:
            continue
        parent, change = samples["parent"][name], samples["change"][name]
        wins, holds = claim(parent, change, better)
        (p_low, p_median, p_high), (c_low, c_median, c_high) = (
            quartiles(parent), quartiles(change))
        print(f"  {name:<19} parent median {p_median:<10.5g} quartiles "
              f"{p_low:.5g}/{p_high:.5g} | change median {c_median:<10.5g} "
              f"quartiles {c_low:.5g}/{c_high:.5g} | {better} is better, "
              f"won {wins} of {count}, gap {c_median - p_median:+.5g} "
              f"({(c_median - p_median) / p_median:+.1%}) vs parent "
              f"spread {p_high - p_low:.5g}: "
              f"{'gain holds' if holds else 'no claim'}")
    return problems


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
    parser.add_argument("--seeds", default=None, metavar="A-B",
                        help="default: 11-30, or 11 with --pairs")
    parser.add_argument("--parent", metavar="PATH", default=None,
                        help="a checkout of the commit to compare with")
    parser.add_argument("--scale", type=int, default=1,
                        help="divide the op counts (50 = bench --quick)")
    parser.add_argument("--pairs", type=int, default=0, metavar="N",
                        help="compare host time over N alternating pairs "
                             "at one seed (needs --parent)")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds or ("11" if args.pairs else "11-30"))
    unknown = sorted(set(args.workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {known}")
    if args.pairs and (not args.parent or len(seeds) != 1):
        parser.error("--pairs needs --parent and a single seed")
    problems = []
    for workload in args.workloads or known:
        if args.pairs:
            problems += pairs(workload, benchmark["end_to_end"], args.parent,
                              seeds[0], args.pairs, args.scale)
            continue
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
