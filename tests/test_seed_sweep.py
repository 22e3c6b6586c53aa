"""Smoke test of ``tools/seed_sweep.py``: two seeds of the quick-scale
``bank_styles`` against this very checkout as its own "parent", so every
simulated row must read equal, seed by seed."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_sweep_against_itself_reads_equal():
    done = subprocess.run(
        [sys.executable, "tools/seed_sweep.py", "--seeds", "11-12",
         "--scale", "50", "--parent", str(ROOT), "bank_styles"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    assert done.returncode == 0, done.stdout
    lines = done.stdout.splitlines()
    assert lines[0] == ("bank_styles: 2 seeds, sim_digest equal to the "
                        "parent's on 2")
    rows = {line.split()[0]: line for line in lines[1:]}
    assert len(rows) == 9       # BENCHMARK.json's end-to-end metrics
    for name in ("sim_latency_p50_ms", "sim_latency_p99_ms",
                 "sim_goodput_ops_per_s", "served_share", "events_per_op"):
        assert "better on 0, worse on 0 of 2; diff +0 at every seed" in (
            rows[name])
        assert "SPREAD" not in rows[name]


def test_unknown_workload_is_refused():
    done = subprocess.run(
        [sys.executable, "tools/seed_sweep.py", "no_such_workload"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 2
    assert "unknown workload" in done.stderr
