"""``python3 -m bench``: run the benchmark and print every metric.

The driver's form is ``--workload NAME --seed N --seconds S --trace
0|1``; without ``--workload`` all four run, and without ``--trace``
both passes do (the dark pass for the end-to-end metrics, then the
traced pass for the per-layer ledger).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import OUT_DIR, ROOT, catalogue, ledger
from .inputs import BANK_STYLES, WORKLOADS

DEFAULT_SEED = 11
MIN_REPS = 3
QUICK_SCALE = 50
NOT_MEASURED = -1.0     # a per-layer metric whose source no longer exists


class ChildFailed(Exception):
    """A repetition's process exited non-zero (its stderr says why)."""


def spawn(workload: str, seed: int, scale: int, mode: str) -> Dict[str, Any]:
    """Run one repetition in a child process; wait for it to end."""
    job = {"workload": workload, "seed": seed, "scale": scale, "mode": mode,
           "spawned_at": time.time()}
    done = subprocess.run(
        [sys.executable, "-m", "bench.rep", json.dumps(job)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise ChildFailed(f"{workload}/{mode} repetition exited "
                          f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def dark_pass(workload: str, seed: int, scale: int, seconds: float,
              min_reps: int) -> List[Dict[str, Any]]:
    """Dark repetitions, one process each, until ``seconds`` are used."""
    reps = []
    started = time.perf_counter()
    while (len(reps) < min_reps
           or time.perf_counter() - started < seconds):
        reps.append(spawn(workload, seed, scale, "dark"))
    return reps


def problems_of(reps: Sequence[Dict[str, Any]], label: str) -> List[str]:
    """Oracle failures, hangs and digest mismatches of a set of reps."""
    found = []
    for rep in reps:
        found += rep["oracle_failures"]
        found += [f"timeout: {row['name']}: {row['timed_out']}"
                  for row in rep["segments"] if row["timed_out"]]
    digests = sorted({rep["sim_digest"] for rep in reps})
    if len(digests) > 1:
        found.append(f"sim_digest differs across {label}: {digests}")
    return sorted(set(found))


def _median(reps: Sequence[Dict[str, Any]], fn: Any) -> float:
    return statistics.median(fn(rep) for rep in reps)


def host_samples(reps: Sequence[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Per-repetition values of the host-clock metrics, in reference
    seconds (see :mod:`bench.clock`)."""
    attempted = reps[0]["sim"]["attempted"]
    return {
        "host_ops_per_s": [attempted / r["wall_s"] for r in reps],
        "host_cpu_us_per_op": [r["cpu_s"] / attempted * 1e6 for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }


def end_to_end(reps: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Simulated metrics are exact (taken from the first repetition,
    the digest check proves the rest agree); host metrics are medians."""
    sim = reps[0]["sim"]
    rows = {name: sim[name] for name in (
        "sim_latency_p50_ms", "sim_latency_p99_ms", "sim_goodput_ops_per_s",
        "served_share")}
    rows["events_per_op"] = reps[0]["counts"]["sim.events_per_op"]
    rows.update((name, statistics.median(values))
                for name, values in host_samples(reps).items())
    return rows


def per_layer(workload: str, seed: int, scale: int,
              dark: Sequence[Dict[str, Any]]
              ) -> Tuple[Dict[str, Optional[float]], List[str], Dict[str, Any]]:
    """The traced passes: profiled, armed (not the farm) and probes."""
    profiled = spawn(workload, seed, scale, "profiled")
    armed = (spawn(workload, seed, scale, "armed")
             if workload != "farm_open" else None)
    probes = spawn(workload, seed, scale, "probes")["probes"]

    sim = dark[0]["sim"]
    attempted = sim["attempted"]
    dark_wall = _median(dark, lambda r: r["wall_s"])
    rows: Dict[str, Optional[float]] = dict(dark[0]["counts"])
    rows.update(ledger.src_lines())
    rows.update(probes)

    profile = profiled["profile"]
    for bucket in ledger.BUCKETS:
        share = profile["buckets_s"][bucket] / profile["profiled_s"]
        rows[f"{bucket}.host_share"] = share
        # The dark pass's microseconds, split by the profiled shares.
        rows[f"{bucket}.host_us_per_op"] = (
            share * dark_wall / attempted * 1e6)
    for name, calls in (("iiop.ior_parse_calls_per_op", "ior_parse_calls"),
                        ("core.ring_walk_calls_per_op", "ring_walk_calls")):
        rows[name] = (None if profile[calls] is None
                      else profile[calls] / attempted)
    rows["obs.profile_overhead_x"] = profiled["wall_s"] / dark_wall
    # Function calls (Python and C) of the load: a host-cost count that
    # repeats exactly, unlike host time.
    rows["bench.profiled_calls_per_op"] = profile["calls"] / attempted

    # No armed pass on the farm: its hop rows read 0.
    rows.update(armed["simspans"] if armed else ledger.simspans(()))
    rows["obs.armed_overhead_x"] = (armed["wall_s"] / dark_wall
                                    if armed else 0.0)

    # End-to-end numbers that only one workload has; 0 elsewhere.
    rows["e2e.failed_share"] = sim["failed_share"]
    for name in ("slo_rate_ops_per_s", "unavail_p50_ms", "unavail_max_ms"):
        rows[f"e2e.{name}"] = sim.get(name, 0.0)
    rows["core.gateway_failover_unavail_ms"] = sim.get(
        "gateway_failover_unavail_ms", 0.0)
    rows["eternal.replica_failover_unavail_ms"] = sim.get(
        "replica_failover_unavail_ms", 0.0)
    for index, style in enumerate(BANK_STYLES):
        ops_per_s = broadcasts = 0.0
        if workload == "bank_styles":       # one segment per style
            ops_per_s = _median(dark, lambda r: r["segments"][index]["attempted"]
                                / r["segments"][index]["wall_s"])
            first = dark[0]["segments"][index]
            broadcasts = first["broadcasts"] / first["attempted"]
        rows[f"eternal.style.{style}.host_ops_per_s"] = ops_per_s
        rows[f"eternal.style.{style}.broadcasts_per_op"] = broadcasts
    rows["bench.cpu_wall_ratio"] = _median(
        dark, lambda r: r["cpu_s"] / r["wall_s"])
    rows["bench.machine_speed_x"] = _median(
        dark, lambda r: r["machine_speed_x"])

    passes = list(dark) + [profiled] + ([armed] if armed else [])
    problems = problems_of(passes, "the dark, profiled and armed passes")
    trace = {
        "workload": workload, "seed": seed, "ledger": rows,
        "profile_buckets_s": profile["buckets_s"],
        "ladder": sim.get("ladder"),
        "harness_spans": {
            "dark": dark[0]["harness_spans"],
            "profiled": profiled["harness_spans"],
            "armed": armed["harness_spans"] if armed else None},
    }
    return rows, problems, trace


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 scale: int, declared: Dict[str, Any]) -> Dict[str, Any]:
    """One workload, one pass; prints its rows, returns the result."""
    min_reps = 1 if scale > 1 else MIN_REPS
    budget = 0.0 if scale > 1 else (seconds / 2 if trace else seconds)
    reps = dark_pass(workload, seed, scale, budget, min_reps)
    sim = reps[0]["sim"]
    if trace:
        metrics, problems, trace_doc = per_layer(workload, seed, scale, reps)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        (OUT_DIR / f"trace-{workload}.json").write_text(
            json.dumps(trace_doc, indent=1, sort_keys=True) + "\n")
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        metrics, problems = end_to_end(reps), problems_of(reps, "repetitions")
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}

    if any(row["timed_out"] for rep in reps for row in rep["segments"]):
        # A hang reproduces: re-run it armed for the flight recorder.
        armed = spawn(workload, seed, scale, "armed")
        print(f"bench: {workload} hung; flight recorder dump: "
              f"{armed.get('flight_dump')}")

    print(f"== {workload} seed={seed} "
          f"{'per-layer ledger' if trace else 'end to end (dark)'}: "
          f"{len(reps)} repetition(s), sim_digest {reps[0]['sim_digest']}")
    print(f"   attempted {sim['attempted']}, served {sim['served']}, "
          f"shed {sim['shed']}, failed {sim['failed']}; "
          f"{sim['latency_samples']} latency samples, "
          f"{sim['latency_samples_beyond_p99']} beyond p99"
          + (f"; {sim['unavail_faults']} faults injected"
             if "unavail_faults" in sim else ""))
    print("   open-loop arrivals are scheduler events at their due time: "
          "generator lateness is 0 by construction")
    values: Dict[str, Dict[str, Any]] = {}
    for name, unit in units.items():
        value = metrics.get(name)
        if value is None:
            ledger.warn(f"{name} could not be measured; "
                        f"reported as {NOT_MEASURED}")
            value = NOT_MEASURED
        values[name] = {"value": value, "unit": unit}
        print(f"   {name:44s} {value:>18.6f} {unit}")
    extra = sorted(set(metrics) - set(units))
    if extra:
        problems.append(f"metrics not declared in BENCHMARK.json: {extra}")
    for problem in problems:
        print(f"   CHECK FAILED: {problem}")
    return {"correct": not problems, "attempted": sim["attempted"],
            "failed": sim["failed"], "metrics": values,
            "sim_digest": reps[0]["sim_digest"], "problems": problems,
            "repetitions": len(reps), "host_samples": host_samples(reps)}


def selfcheck(seed: int, seconds: float, scale: int,
              declared: Dict[str, Any]) -> int:
    """Two dark sets of the same code, the second in reverse workload
    order: simulated metrics must be identical, host medians must agree
    within each metric's bound."""
    sets = [{w: run_workload(w, seed, seconds, 0, scale, declared)
             for w in order}
            for order in (WORKLOADS, tuple(reversed(WORKLOADS)))]
    bad = 0
    print("== selfcheck: second set against first")
    for workload in WORKLOADS:
        first, second = (s[workload] for s in sets)
        bad += (not first["correct"]) + (not second["correct"])
        if first["sim_digest"] != second["sim_digest"]:
            bad += 1
            print(f"   {workload}: sim_digest DIFFERS")
        for metric in declared["end_to_end"]:
            name = metric["name"]
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            samples = first["host_samples"].get(name)
            if samples is None:
                verdict = "identical" if a == b else "DIFFERS"
                bad += a != b
                print(f"   {workload:14s} {name:24s} {a:.6f} {verdict}")
                continue
            worse = (a / b if metric["better"] == "higher" else b / a) - 1.0
            ok = worse <= metric["bound"] or (
                name == "setup_s" and abs(b - a) <= 0.1)
            bad += not ok
            quartiles = (statistics.quantiles(samples, n=4)
                         if len(samples) > 1 else [a, a, a])
            print(f"   {workload:14s} {name:24s} median {a:.4f} -> {b:.4f} "
                  f"(worse by {worse:+.2%}, bound {metric['bound']:.0%}; "
                  f"first set quartiles {quartiles[0]:.4f}/"
                  f"{quartiles[2]:.4f}) {'ok' if ok else 'OUT OF BOUND'}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "selfcheck.json").write_text(json.dumps(
        {"seed": seed, "seconds": seconds, "sets": sets},
        indent=1, sort_keys=True) + "\n")
    print(f"   wrote {(OUT_DIR / 'selfcheck.json').relative_to(ROOT)}; "
          f"{'all agree' if not bad else f'{bad} disagreement(s)'}")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    declared = catalogue()
    parser = argparse.ArgumentParser(prog="python3 -m bench",
                                     description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"],
                        help="how long one dark pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: the per-layer "
                             "ledger only (default: both)")
    parser.add_argument("--quick", action="store_true",
                        help=f"smoke run: op counts / {QUICK_SCALE}, "
                             "one repetition")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the dark pass twice and compare")
    args = parser.parse_args(argv)
    scale = QUICK_SCALE if args.quick else 1

    try:
        if args.selfcheck:
            return selfcheck(args.seed, args.seconds, scale, declared)
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        passes = [args.trace] if args.trace is not None else [0, 1]
        results = {(w, t): run_workload(w, args.seed, args.seconds, t, scale,
                                        declared)
                   for w in workloads for t in passes}
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{w}/{name}": row for (w, _t), result in results.items()
                   for name, row in result["metrics"].items()}
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        (OUT_DIR / "latest.json").write_text(json.dumps(
            {"seed": args.seed,
             "results": [{"workload": w, "trace": t, **result}
                         for (w, t), result in results.items()]},
            indent=1, sort_keys=True) + "\n")
    correct = all(result["correct"] for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
