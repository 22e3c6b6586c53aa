#!/usr/bin/env python
"""Run the full experiment harness and summarise paper-relevant metrics.

Usage:
    python tools/run_experiments.py [--out results.json]

Runs ``pytest benchmarks/ --benchmark-only`` with JSON output, then
prints one grouped, human-readable section per experiment (E1..E11)
with every benchmark's ``extra_info`` — the reproduction's analogue of
the paper's reported behaviour.  Exit status mirrors pytest's.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

EXPERIMENT_OF_FILE = {
    "bench_fig1_multidomain": "E1  Figure 1: multi-domain topology",
    "bench_fig2_infrastructure": "E2  Figure 2: infrastructure invocation path",
    "bench_totem_ring": "E2b Totem substrate microbenchmarks",
    "bench_fig3_duplicate_suppression": "E3  Figure 3: duplicate suppression",
    "bench_fig4_message_formats": "E4  Figure 4: message formats",
    "bench_fig5_gateway_actions": "E5  Figure 5: gateway action loops",
    "bench_fig6_identifiers": "E6  Figure 6: operation identifiers",
    "bench_sec34_plain_orb_failover": "E7  Section 3.4: plain ORB failures",
    "bench_sec35_enhanced_failover": "E8  Section 3.5: enhanced failover",
    "bench_replication_styles": "E9  Replication styles ablation",
    "bench_gateway_scaling": "E10 Gateway scaling",
    "bench_workload_mix": "E11 Workload latency models",
    "bench_state_transfer": "E12 State transfer vs state size",
    "bench_ablation_totem_tuning": "E13 Totem tuning ablation",
    "bench_gateway_state_lifecycle": "E14 Gateway state lifecycle & audit",
    "bench_gateway_farm": "E16 Gateway farm scaling",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the raw pytest-benchmark JSON here")
    args = parser.parse_args()

    json_path = args.out or Path(tempfile.mkstemp(suffix=".json")[1])
    command = [sys.executable, "-m", "pytest", "benchmarks/",
               "--benchmark-only", "-q",
               f"--benchmark-json={json_path}"]
    print("$", " ".join(command))
    status = subprocess.call(command)
    if not json_path.exists():
        print("no benchmark JSON produced", file=sys.stderr)
        return status or 1

    data = json.loads(json_path.read_text())
    by_experiment = defaultdict(list)
    for bench in data["benchmarks"]:
        source_file = bench["fullname"].split("::")[0]
        stem = Path(source_file).stem
        experiment = EXPERIMENT_OF_FILE.get(stem, stem)
        by_experiment[experiment].append(bench)

    print("\n" + "=" * 72)
    print("REPRODUCTION RESULTS (see EXPERIMENTS.md for paper-vs-measured)")
    print("=" * 72)
    for experiment in sorted(by_experiment):
        print(f"\n{experiment}")
        for bench in sorted(by_experiment[experiment],
                            key=lambda b: b["name"]):
            wall_ms = bench["stats"]["mean"] * 1000
            line = f"  {bench['name']}: wall={wall_ms:.1f}ms"
            extra = bench.get("extra_info") or {}
            if extra:
                rendered = ", ".join(f"{k}={v}" for k, v in extra.items())
                line += f" | {rendered}"
            print(line)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
