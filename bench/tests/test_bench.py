"""Tests of the benchmark harness itself.

Run as ``PYTHONPATH=src python -m pytest bench/tests -q`` (outside
tier-1's ``testpaths``).  They prove that the emitted names are the
catalogue's, that every oracle fires on a corrupted history, that the
profile attribution loses no time, and that a hang ends as failed ops
rather than as a stuck process.
"""

import copy
import json
import re
import subprocess
import sys

import pytest

from bench import OUT_DIR, ROOT, catalogue, ledger, oracle, rep, workloads
from bench.inputs import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def bench(*args):
    done = subprocess.run([sys.executable, "-m", "bench", *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    return done.returncode, json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def quick_all():
    code, result = bench("--quick")
    assert code == 0, result
    return result


def test_quick_run_emits_exactly_the_catalogue(quick_all):
    declared = catalogue()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names + list(WORKLOADS))
    # run_workload prints declared names only and fails the run on an
    # undeclared one, so equality of the two sets is what "correct"
    # plus this comparison establishes.
    assert quick_all["correct"]
    assert set(quick_all["metrics"]) == {
        f"{w}/{name}" for w in WORKLOADS for name in names}
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    for key, row in quick_all["metrics"].items():
        assert row["unit"] == units[key.split("/", 1)[1]]
        assert row["value"] != -1.0, f"{key} was not measured"
    for w in WORKLOADS:
        for metric in declared["end_to_end"]:
            assert quick_all["metrics"][f"{w}/{metric['name']}"]["value"] > 0


def test_selecting_a_subset_changes_no_simulated_value(quick_all):
    code, alone = bench("--quick", "--workload", "steady_closed",
                        "--trace", "0")
    assert code == 0
    assert set(alone["metrics"]) == {
        m["name"] for m in catalogue()["end_to_end"]}
    for name in ("sim_latency_p50_ms", "sim_latency_p99_ms",
                 "sim_goodput_ops_per_s", "served_share", "events_per_op"):
        assert (alone["metrics"][name]
                == quick_all["metrics"][f"steady_closed/{name}"])


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------

def counter_history():
    ops = [[0.01 * i, 0.01 * i + 0.084, oracle.SERVED, [2]] for i in range(10)]
    return {"segments": [{"name": "steady", "cell": 0, "ops": ops,
                          "faults": []}],
            "states": [{"audit_violations": 0, "warmup_sum": 0,
                        "counts": {"h0": 20, "h1": 20, "h2": 20}}],
            "expect": {"accounts": 0, "opening": 0, "window": 0.0}}


def bank_history():
    ops = [[0.01 * i, 0.01 * i + 0.09, oracle.SERVED, ["a", "b", 5]]
           for i in range(4)]
    replicas = ("h0", "h1", "h2")
    return {"segments": [{"name": "active", "cell": 0, "ops": ops,
                          "faults": []}],
            "states": [{"audit_violations": 0, "warmup_sum": 0,
                        "balance_totals": dict.fromkeys(replicas, 200),
                        "ledger_entries": dict.fromkeys(replicas, 4),
                        "transfers_done": dict.fromkeys(replicas, 4)}],
            "expect": {"accounts": 2, "opening": 100, "window": 0.0}}


def test_oracles_pass_on_a_clean_history():
    assert oracle.check("steady_closed", counter_history()) == []
    assert oracle.check("bank_styles", bank_history()) == []


def corrupt(history, edit):
    history = copy.deepcopy(history)
    edit(history)
    return history


@pytest.mark.parametrize("workload, history, edit, fired", [
    ("steady_closed", counter_history(),
     lambda h: h["segments"][0]["ops"][3].__setitem__(2, None), "lost-op"),
    ("steady_closed", counter_history(),
     lambda h: h["states"][0]["counts"].__setitem__("h1", 22),
     "exactly-once"),
    ("steady_closed", counter_history(),
     lambda h: h["states"][0]["counts"].clear(), "exactly-once"),
    ("farm_open", counter_history(),
     lambda h: h["segments"][0]["ops"][0].__setitem__(2, oracle.FAILED),
     "non-transient-failure"),
    ("steady_closed", counter_history(),
     lambda h: h["states"][0].__setitem__("audit_violations", 1), "audit"),
    ("bank_styles", bank_history(),
     lambda h: h["states"][0]["balance_totals"].__setitem__("h2", 195),
     "conservation"),
    ("bank_styles", bank_history(),
     lambda h: h["states"][0]["ledger_entries"].__setitem__("h0", 3),
     "ledger_entries"),
    ("bank_styles", bank_history(),
     lambda h: h["states"][0]["transfers_done"].__setitem__("h0", 5),
     "transfers_done"),
])
def test_each_oracle_fires(workload, history, edit, fired):
    failures = oracle.check(workload, corrupt(history, edit))
    assert any(f.startswith(fired) for f in failures), failures


def test_shed_ops_count_against_the_slo_not_the_oracle():
    history = counter_history()
    history["segments"][0]["name"] = "rate4000"
    history["segments"][0]["ops"][0][2] = oracle.SHED
    history["states"][0]["counts"] = dict.fromkeys(("h0", "h1", "h2"), 18)
    assert oracle.check("farm_open", history) == []
    rows = oracle.summarise("farm_open", history)
    assert rows["shed"] == 1 and rows["failed"] == 0
    assert rows["failed_share"] == pytest.approx(0.1)
    assert rows["slo_rate_ops_per_s"] == 0.0       # 10 % refused > 2 %


def test_unavailability_is_the_longest_completion_gap_after_a_fault():
    history = counter_history()
    ops = history["segments"][0]["ops"]
    for i, op in enumerate(ops):            # completions every 100 ms ...
        op[1] = 0.1 * i
    for op in ops[5:]:                      # ... except a 300 ms outage
        op[1] += 0.2
    history["segments"][0]["faults"] = [0.41, 0.41]
    history["expect"]["window"] = 0.55
    rows = oracle.summarise("failover_open", history)
    assert rows["unavail_max_ms"] == pytest.approx(300.0)
    assert rows["unavail_faults"] == 2


# ----------------------------------------------------------------------
# Ledger
# ----------------------------------------------------------------------

def test_c_function_time_is_charged_to_callers_and_nothing_is_lost():
    result = rep.run({"workload": "steady_closed", "seed": 11, "scale": 50,
                      "mode": "profiled"})
    profile = result["profile"]
    charged = sum(profile["buckets_s"].values())
    assert charged == pytest.approx(profile["profiled_s"], rel=0.01)
    # struct, heapq and dict methods are C: had their time not been
    # charged to callers, the layers would hold far less than this.
    layers = sum(profile["buckets_s"][layer] for layer in ledger.LAYERS)
    assert layers > 0.8 * profile["profiled_s"]
    assert profile["ior_parse_calls"] == 0      # IORs are parsed in set-up
    assert profile["ring_walk_calls"] == 0      # no pool on this workload


def test_a_vanished_series_or_function_reads_null_with_a_warning(capsys):
    counts = ledger.Counts()
    assert counts.value("no.such.series") is None
    assert counts.value("pool.route.owner") == 0        # optional: absent = 0
    assert counts.quantile_ms("no.such.histogram", "p50") is None
    assert ledger.calls_of({}, ledger, "no_such_function", "x.py") is None
    assert capsys.readouterr().err.count("warning") == 3
    rows = ledger.count_metrics(counts, attempted=10)
    assert rows["sim.events_per_op"] is None            # null, not a crash


def test_a_hang_becomes_failed_ops_and_a_flight_dump(monkeypatch):
    monkeypatch.setattr(workloads, "SIM_TIMEOUT_S", 0.05)
    result = rep.run({"workload": "steady_closed", "seed": 11, "scale": 50,
                      "mode": "armed"})
    assert result["segments"][0]["timed_out"]
    assert result["sim"]["failed"] > 0
    assert any(f.startswith("lost-op") for f in result["oracle_failures"])
    dump = ROOT / result["flight_dump"]
    assert dump.parent == OUT_DIR and json.loads(dump.read_text())
