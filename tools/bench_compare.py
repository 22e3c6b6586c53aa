#!/usr/bin/env python
"""Perf-regression gate: run the hot-path benchmarks and compare means
against the committed ``BENCH_BASELINE.json``.

Usage::

    python tools/bench_compare.py [--baseline BENCH_BASELINE.json]
                                  [--threshold 0.20] [--update-baseline]

The script

* runs ``benchmarks/bench_totem_ring.py``,
  ``benchmarks/bench_gateway_scaling.py``,
  ``benchmarks/bench_gateway_farm.py`` and
  ``benchmarks/bench_replication_styles.py`` under pytest-benchmark,
* writes the dated raw results plus the comparison to
  ``BENCH_<YYYY-MM-DD>.json`` in the repository root,
* reports the headline speedup of each benchmark against the recorded
  pre-overhaul means (``pre_pr_mean_s``),
* **fails (exit 1)** when any benchmark's wall-clock mean regresses more
  than ``--threshold`` (default 20%) over the committed ``mean_s``, or
  when any simulated-time scalar in ``extra_info`` (latencies,
  completion times, delivery counts — everything the discrete-event
  simulation fully determines) differs from the baseline.  Simulated numbers are
  deterministic, so *any* drift there is a semantic change, not noise.
  CI runs this step advisory (``continue-on-error``); the blocking
  gate is the ``bench`` job (``python3 -m bench --quick``).

Wall-clock numbers depend on the machine; refresh the baseline on the
reference runner with ``--update-baseline`` (this preserves the
recorded ``pre_pr_mean_s`` values so the headline speedup stays
anchored to the pre-overhaul measurement).

``--trace-overhead`` runs a separate mode instead: the gateway-scaling
workload with causal tracing off and on, reporting the wall-clock cost
of the instrumentation and verifying that the *simulated* results are
identical either way (tracing must never perturb the discrete-event
schedule).

``--series-overhead`` is the analogous mode for the time-series
registry (``repro.obs.series``): same workload with the registry off
and on, verifying identical simulated rows (event series add no
scheduler events), gating the series-*disabled* wall-clock at 1.05x
of the committed baseline minimum (the laziness contract: a disabled
registry costs one attribute load and one boolean test per hook), and
publishing per-group latency/shed aggregates from the enabled run to
the CI job summary.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILES = [
    "benchmarks/bench_totem_ring.py",
    "benchmarks/bench_gateway_scaling.py",
    "benchmarks/bench_gateway_farm.py",
    "benchmarks/bench_replication_styles.py",
]
FARM_BENCH_PREFIX = "test_farm_"
FARM_CURVE_PATH = "FARM_CURVE.json"
STYLE_BENCH_PREFIX = "test_styles_"
STYLE_COMPARISON_PATH = "STYLE_COMPARISON.json"
# extra_info keys that legitimately vary with implementation details
# (event counts), depend on wall-clock (throughput rates), or hold
# nested blobs rather than simulated scalars.
EXTRA_INFO_IGNORED = {"metrics", "events_processed", "events_per_sec",
                      "reference_events_per_sec", "speedup_vs_reference"}


def run_benchmarks() -> dict:
    """Run the benchmark suite; return the pytest-benchmark JSON doc."""
    with tempfile.NamedTemporaryFile(
            suffix=".json", delete=False, mode="w") as tmp:
        out_path = tmp.name
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"),
                    env.get("PYTHONPATH", "")) if p)
    cmd = [sys.executable, "-m", "pytest", *BENCH_FILES,
           "-p", "no:cacheprovider", "-q",
           f"--benchmark-json={out_path}"]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
    if proc.returncode != 0:
        print(f"benchmark run failed (pytest exit {proc.returncode})")
        sys.exit(proc.returncode)
    with open(out_path) as f:
        doc = json.load(f)
    os.unlink(out_path)
    return doc


def scalar_extra_info(bench: dict) -> dict:
    return {k: v for k, v in bench.get("extra_info", {}).items()
            if k not in EXTRA_INFO_IGNORED}


def compare(baseline: dict, fresh: dict, threshold: float) -> dict:
    """Build the comparison report; report['failures'] drives the gate."""
    fresh_by_name = {b["name"]: b for b in fresh["benchmarks"]}
    rows, failures = [], []
    for name, ref in sorted(baseline["benchmarks"].items()):
        cur = fresh_by_name.get(name)
        if cur is None:
            failures.append(f"{name}: benchmark missing from run")
            continue
        mean = cur["stats"]["mean"]
        best = cur["stats"]["min"]
        # Gate on the *min*: the discrete-event workload is fixed, so
        # the minimum is the least noise-contaminated wall-clock sample;
        # means of the sub-millisecond benches swing >20% run to run.
        gate_ref = ref.get("min_s", ref["mean_s"])
        ratio = best / gate_ref if gate_ref else float("inf")
        row = {
            "name": name,
            "mean_s": mean,
            "min_s": best,
            "baseline_mean_s": ref["mean_s"],
            "baseline_min_s": gate_ref,
            "ratio_vs_baseline": ratio,
        }
        if "pre_pr_mean_s" in ref:
            row["speedup_vs_pre_pr"] = ref["pre_pr_mean_s"] / mean
        if ratio > 1.0 + threshold:
            failures.append(
                f"{name}: wall-clock regression {ratio:.2f}x over baseline "
                f"min ({gate_ref * 1000:.2f}ms -> {best * 1000:.2f}ms, "
                f"allowed {1.0 + threshold:.2f}x)")
        extra = scalar_extra_info(cur)
        if extra != ref.get("extra_info", {}):
            failures.append(
                f"{name}: simulated extra_info drifted "
                f"(expected {ref.get('extra_info')}, got {extra})")
        rows.append(row)
    for name in sorted(set(fresh_by_name) - set(baseline["benchmarks"])):
        rows.append({
            "name": name,
            "mean_s": fresh_by_name[name]["stats"]["mean"],
            "baseline_mean_s": None,
            "note": "not in baseline",
        })
    return {"rows": rows, "failures": failures}


def write_farm_summary(fresh: dict) -> None:
    """Publish the gateway-farm scaling curve.

    Renders the per-pool-size curve from ``test_farm_scaling_curve``
    (sustained throughput, shed/unroutable rates, p95 latency) as a
    table on stdout and in the CI job summary, and writes the full farm
    rows to ``FARM_CURVE.json`` for upload as an advisory artifact.
    """
    farm = {b["name"]: b.get("extra_info", {})
            for b in fresh["benchmarks"]
            if b["name"].startswith(FARM_BENCH_PREFIX)}
    if not farm:
        return
    curve_info = next((info for name, info in farm.items()
                       if "speedup_4v1" in info), {})
    sizes = sorted({int(key[1:key.index("_")])
                    for key in curve_info if key.startswith("k")
                    and key[1:key.index("_")].isdigit()})
    header = ("| gateways | sustained req/s | shed rate | unroutable rate "
              "| p95 latency (s) |")
    rule = "|---:|---:|---:|---:|---:|"
    lines = [header, rule]
    for k in sizes:
        lines.append(
            f"| {k} | {curve_info.get(f'k{k}_sustained_tput_per_s', '?')} "
            f"| {curve_info.get(f'k{k}_shed_rate', '?')} "
            f"| {curve_info.get(f'k{k}_unroutable_rate', '?')} "
            f"| {curve_info.get(f'k{k}_lat_p95_s', '?')} |")
    speedup = (f"throughput speedup: "
               f"{curve_info.get('speedup_4v1', '?')}x at 4 gateways, "
               f"{curve_info.get('speedup_8v1', '?')}x at 8 (vs 1)")
    print("\ngateway-farm scaling curve:")
    for line in lines:
        print(f"  {line}")
    print(f"  {speedup}")
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as f:
            f.write("### Gateway-farm scaling curve\n\n")
            for line in lines:
                f.write(f"{line}\n")
            f.write(f"\n{speedup}\n")
    curve_path = os.path.join(REPO_ROOT, FARM_CURVE_PATH)
    with open(curve_path, "w") as f:
        json.dump({"benchmarks": farm}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {curve_path}")


def write_styles_summary(fresh: dict) -> None:
    """Publish the replication-style comparison (E9/E17).

    Renders the per-style trade-off table from
    ``test_styles_comparison_table`` (broadcasts and executions per
    operation, failover latency, replayed operations) plus the E17
    leader-follower vs voting latency headline on stdout and in the CI
    job summary, and writes every ``test_styles_*`` bench's rows to
    ``STYLE_COMPARISON.json`` for upload as an advisory artifact.
    """
    styles = {b["name"]: b.get("extra_info", {})
              for b in fresh["benchmarks"]
              if b["name"].startswith(STYLE_BENCH_PREFIX)}
    if not styles:
        return
    table_info = styles.get("test_styles_comparison_table", {})
    style_rows = {name: row for name, row in table_info.items()
                  if isinstance(row, dict) and "broadcasts_per_op" in row}
    lines = []
    if style_rows:
        lines.append("| style | broadcasts/op | executions/op "
                     "| failover (s) | replayed ops |")
        lines.append("|---|---:|---:|---:|---:|")
        for name in sorted(style_rows):
            row = style_rows[name]
            lines.append(
                f"| {name} | {row.get('broadcasts_per_op', '?')} "
                f"| {row.get('executions_per_op', '?')} "
                f"| {row.get('failover_latency_s', '?')} "
                f"| {row.get('replayed_ops', '?')} |")
    latency = styles.get("test_styles_lf_vs_voting_latency", {})
    headline = None
    if "lf_p50_latency_s" in latency:
        headline = (
            f"leader-follower p50 {latency['lf_p50_latency_s']}s vs "
            f"active-with-voting {latency['voting_p50_latency_s']}s "
            f"({latency.get('p50_speedup', '?')}x)")
    if lines or headline:
        print("\nreplication-style comparison:")
        for line in lines:
            print(f"  {line}")
        if headline:
            print(f"  {headline}")
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as f:
            f.write("### Replication-style comparison\n\n")
            for line in lines:
                f.write(f"{line}\n")
            if headline:
                f.write(f"\n{headline}\n")
    comparison_path = os.path.join(REPO_ROOT, STYLE_COMPARISON_PATH)
    with open(comparison_path, "w") as f:
        json.dump({"benchmarks": styles}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {comparison_path}")


def trace_overhead(rounds: int) -> int:
    """Measure causal-tracing overhead on the gateway-scaling workload.

    For each client count, times ``run_clients`` with tracing disabled
    and enabled (best of ``rounds``), and checks the simulated result
    rows are identical — the tracing hooks observe the schedule, they
    must never change it.
    """
    import time as _time
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))
    from bench_gateway_scaling import run_clients  # noqa: E402

    failures = []
    print(f"{'clients':>7} {'off ms':>9} {'on ms':>9} {'overhead':>9}")
    for clients in (1, 2, 4, 8):
        timings = {}
        for traced in (False, True):
            best, row = None, None
            for _ in range(rounds):
                t0 = _time.perf_counter()
                row = run_clients(clients, trace_spans=traced)
                dt = _time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
            timings[traced] = (best, row)
        (off_s, off_row), (on_s, on_row) = timings[False], timings[True]
        if off_row != on_row:
            failures.append(f"{clients} clients: simulated results differ "
                            f"with tracing on ({off_row} vs {on_row})")
        ratio = on_s / off_s if off_s else float("inf")
        print(f"{clients:>7} {off_s * 1000:>9.2f} {on_s * 1000:>9.2f} "
              f"{ratio:>8.2f}x")
    if failures:
        print("\nTRACING PERTURBED THE SIMULATION:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nsimulated results identical with tracing on and off")
    return 0


SERIES_DISABLED_LIMIT = 1.05


def _series_summary_lines(clients: int, snapshot: dict) -> list:
    """Markdown table of the enabled run's windowed aggregates."""
    lines = [f"series aggregates at {clients} clients "
             f"(t={snapshot['t']:.4f}s, window {snapshot['window_s']}s):",
             "| series | count | last | rate/s | ewma | p95 |",
             "|---|---:|---:|---:|---:|---:|"]
    for key, row in sorted(snapshot["series"].items()):
        def fmt(value):
            return "-" if value is None else f"{value:.4f}"
        lines.append(
            f"| `{key}` | {row['count']} | {fmt(row['last'])} "
            f"| {fmt(row['rate'])} | {fmt(row['ewma'])} "
            f"| {fmt(row['p95'])} |")
    return lines


def series_overhead(rounds: int, baseline_path: str) -> int:
    """Measure time-series overhead on the gateway-scaling workload.

    For each client count, times ``run_clients`` with the series
    registry disabled and enabled (best of ``rounds``) and checks

    * the simulated result rows are identical either way — the
      gateway's event series observe the schedule without adding
      events to it;
    * the series-*disabled* wall-clock stays within
      ``SERIES_DISABLED_LIMIT`` (1.05x) of the committed baseline
      minimum for the same client count, so the always-present lazy
      hooks (one attribute load + one boolean test per shed/latency
      site) stay free when the feature is off.
    """
    import time as _time
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))
    from bench_gateway_scaling import run_clients  # noqa: E402

    with open(baseline_path) as f:
        baseline = json.load(f)["benchmarks"]

    failures = []
    summary = None
    print(f"{'clients':>7} {'off ms':>9} {'on ms':>9} {'overhead':>9} "
          f"{'vs base':>9}")
    for clients in (1, 2, 4, 8):
        timings = {}
        for enabled in (False, True):
            best, row = None, None
            for _ in range(rounds):
                t0 = _time.perf_counter()
                row = run_clients(clients, series=enabled)
                dt = _time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
            timings[enabled] = (best, row)
        (off_s, off_row), (on_s, on_row) = timings[False], timings[True]
        if off_row != on_row:
            failures.append(f"{clients} clients: simulated results differ "
                            f"with series on ({off_row} vs {on_row})")
        snapshot = getattr(run_clients, "last_series", None)
        if snapshot and snapshot.get("series"):
            summary = _series_summary_lines(clients, snapshot)
        ref = baseline.get(f"test_gateway_scaling_clients[{clients}]", {})
        gate_ref = ref.get("min_s", ref.get("mean_s"))
        base_ratio = off_s / gate_ref if gate_ref else None
        if base_ratio is not None and base_ratio > SERIES_DISABLED_LIMIT:
            failures.append(
                f"{clients} clients: series-disabled wall-clock "
                f"{base_ratio:.3f}x over baseline min "
                f"({gate_ref * 1000:.2f}ms -> {off_s * 1000:.2f}ms, "
                f"allowed {SERIES_DISABLED_LIMIT:.2f}x)")
        ratio = on_s / off_s if off_s else float("inf")
        base_text = (f"{base_ratio:>8.2f}x" if base_ratio is not None
                     else f"{'n/a':>9}")
        print(f"{clients:>7} {off_s * 1000:>9.2f} {on_s * 1000:>9.2f} "
              f"{ratio:>8.2f}x {base_text}")

    if summary:
        print()
        for line in summary:
            print(f"  {line}")
        summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
        if summary_path:
            with open(summary_path, "a") as f:
                f.write("### Time-series overhead\n\n")
                for line in summary:
                    f.write(f"{line}\n")
    if failures:
        print("\nSERIES OVERHEAD GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nsimulated results identical with series on and off; "
          "disabled wall-clock within gate")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline",
                        default=os.path.join(REPO_ROOT, "BENCH_BASELINE.json"))
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional wall-clock regression "
                             "(default 0.20 = 20%%)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline means from this run "
                             "(keeps pre_pr_mean_s anchors)")
    parser.add_argument("--trace-overhead", action="store_true",
                        help="measure causal-tracing overhead on the "
                             "gateway-scaling workload instead of running "
                             "the regression gate")
    parser.add_argument("--series-overhead", action="store_true",
                        help="measure time-series registry overhead on the "
                             "gateway-scaling workload (identical-rows check "
                             "plus the 1.05x disabled-cost gate) instead of "
                             "running the regression gate")
    parser.add_argument("--rounds", type=int, default=3,
                        help="repeats per measurement in --trace-overhead / "
                             "--series-overhead modes (default 3; best-of "
                             "wins)")
    args = parser.parse_args()

    if args.trace_overhead:
        return trace_overhead(args.rounds)
    if args.series_overhead:
        return series_overhead(args.rounds, args.baseline)

    with open(args.baseline) as f:
        baseline = json.load(f)
    fresh = run_benchmarks()
    report = compare(baseline, fresh, args.threshold)

    today = datetime.date.today().isoformat()
    dated_path = os.path.join(REPO_ROOT, f"BENCH_{today}.json")
    with open(dated_path, "w") as f:
        json.dump({"date": today, "comparison": report,
                   "raw": fresh}, f, indent=1, sort_keys=True)
    print(f"\nwrote {dated_path}")

    for row in report["rows"]:
        if row.get("baseline_mean_s") is None:
            continue
        speed = row.get("speedup_vs_pre_pr")
        headline = f"  {row['ratio_vs_baseline']:5.2f}x vs baseline"
        if speed is not None:
            headline += f", {speed:5.2f}x vs pre-overhaul"
        print(f"{row['name']:55s}{headline}")

    if args.update_baseline:
        for b in fresh["benchmarks"]:
            entry = baseline["benchmarks"].setdefault(b["name"], {})
            entry["mean_s"] = b["stats"]["mean"]
            entry["min_s"] = b["stats"]["min"]
            entry["extra_info"] = scalar_extra_info(b)
        baseline["captured"] = today
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    write_farm_summary(fresh)
    write_styles_summary(fresh)

    if report["failures"]:
        print("\nREGRESSIONS DETECTED:")
        for failure in report["failures"]:
            print(f"  - {failure}")
        return 1
    print("\nno regressions: wall-clock within thresholds, "
          "simulated numbers identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
