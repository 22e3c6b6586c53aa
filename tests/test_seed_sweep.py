"""Smoke tests of ``tools/seed_sweep.py``: two seeds of the quick-scale
``bank_styles`` against this very checkout as its own "parent", so every
simulated row must read equal, seed by seed; one ``--pairs`` pair the
same way, with its host rows and ``peak_rss_mb``; the claim rule
``--pairs`` applies, and the verdict a ``SPREAD`` row prints."""

import importlib.util
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


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "seed_sweep", ROOT / "tools" / "seed_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_claim_needs_nine_tenths_and_a_gap_beyond_the_parent_spread():
    claim = load_tool().claim
    parent = [100.0 + i for i in range(10)]           # quartiles 102.25/106.75
    assert claim(parent, [p - 10 for p in parent], "lower") == (10, True)
    # Nine of ten pairs won still holds; eight does not.
    nine = [p - 10 for p in parent[:9]] + [parent[9] + 1]
    assert claim(parent, nine, "lower") == (9, True)
    eight = [p - 10 for p in parent[:8]] + [parent[8] + 1, parent[9] + 1]
    assert claim(parent, eight, "lower") == (8, False)
    # Every pair won by less than the parent's spread: no claim.
    assert claim(parent, [p - 1 for p in parent], "lower") == (10, False)
    # Ties count for neither side; "higher" turns the comparison round.
    assert claim(parent, parent, "higher") == (0, False)
    assert claim(parent, [p + 10 for p in parent], "higher") == (10, True)


def test_spread_verdict_needs_ranges_that_do_not_overlap():
    verdict = load_tool().spread_verdict
    parent = [26.44, 26.9, 27.2, 27.56]
    # One frame per token visit on bank_styles: spread, yet disjoint.
    change = [21.87, 23.0, 24.1, 24.63]
    assert verdict(parent, change, "lower") == "SPREAD, every seed better"
    assert verdict(change, parent, "lower") == "SPREAD, every seed worse"
    assert verdict(parent, change, "higher") == "SPREAD, every seed worse"
    assert verdict(change, parent, "higher") == "SPREAD, every seed better"
    # Touching or overlapping ranges resolve nothing.
    assert verdict(parent, [26.44, 20.0], "lower") == "SPREAD, unresolved"
    assert verdict(parent, [27.0, 25.0], "lower") == "SPREAD, unresolved"


def test_pairs_against_itself_prints_both_host_metrics():
    done = subprocess.run(
        [sys.executable, "tools/seed_sweep.py", "--pairs", "1", "--scale",
         "50", "--parent", str(ROOT), "steady_closed"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    assert done.returncode == 0, done.stdout
    lines = done.stdout.splitlines()
    assert lines[0] == ("steady_closed: 1 alternating pairs at seed 11, "
                        "sim_digest equal to the parent's")
    assert [line.split()[0] for line in lines[1:]] == [
        "host_ops_per_s", "host_cpu_us_per_op",
        "peak_rss_mb"]                               # BENCHMARK.json order
    assert all("parent median" in line and "change median" in line
               and "won " in line for line in lines[1:])
    assert all(line.endswith(("gain holds", "no claim"))
               for line in lines[1:])


def test_pairs_needs_a_parent():
    done = subprocess.run(
        [sys.executable, "tools/seed_sweep.py", "--pairs", "3"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 2
    assert "--pairs needs --parent" in done.stderr
