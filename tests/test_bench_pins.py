"""The committed pins of the benchmark's quick pass.

``python3 -m bench --quick`` runs each workload at a fiftieth of its
operations.  Its simulated numbers are pure functions of the seed, so
this test runs the same quick dark repetition in-process through
``bench.rep.run`` (the benchmark is read as a library, never edited)
and diffs every deterministic number against
``tests/golden/bench_quick_seed11.json``.  Per workload the pin holds
``sim_digest``, the oracle failures (none), every ``sim`` field and
every per-op ``counts`` field; no host-clock number is in it.

A second pass, profiled, pins the host cost that a count can show:
per workload, the calls to Python functions defined under each
``src/repro/<layer>/`` (``tests/golden/bench_calls_seed11.json``).  It
is each layer's row of a host-time change, exact on every run.

A change that moves a simulated number on purpose says so up front
(docs/PERFORMANCE.md, "The prime directive"), regenerates the files
with ``python tools/pin_bench.py --write`` and commits the diff, so the
review sees which numbers moved; a host change moves only the calls.
"""

import copy
import json
import os
import pathlib
import subprocess
import sys
from unittest import mock

from bench import clock, ledger, rep
from bench.__main__ import DEFAULT_SEED, QUICK_SCALE
from bench.inputs import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parent.parent
PIN_PATH = (pathlib.Path(__file__).parent / "golden"
            / f"bench_quick_seed{DEFAULT_SEED}.json")
CALLS_PATH = PIN_PATH.parent / f"bench_calls_seed{DEFAULT_SEED}.json"
SECTIONS = ("sim", "counts")
# Python 3.12 runs these inline (PEP 709), 3.10 and 3.11 as calls: left
# out, the calls pin is the same on every interpreter CI runs.
INLINED = ("<listcomp>", "<dictcomp>", "<setcomp>")


def quick_pin():
    """The deterministic part of one quick dark repetition per workload,
    as the pin file holds it."""
    pin = {}
    with _reference_speed():
        for workload in WORKLOADS:
            result = rep.run(_job(workload, "dark"))
            pin[workload] = {"sim_digest": result["sim_digest"],
                             "oracle_failures": result["oracle_failures"],
                             **{section: result[section]
                                for section in SECTIONS}}
    # Through JSON, so tuples compare equal to the file's lists.
    return json.loads(render(pin))


def calls_pin():
    """Per workload and layer, the calls one quick profiled repetition
    makes to Python functions defined under ``src/repro/<layer>/``, in
    an interpreter of its own: what earlier work left in this one's
    caches (compiled codecs, parsed IORs) would move the counts."""
    run = subprocess.run(
        [sys.executable, "-c", "import json, tests.test_bench_pins as t; "
         "print(json.dumps(t.profiled_calls()))"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            (str(ROOT), str(ROOT / "src")))})
    return json.loads(run.stdout.splitlines()[-1])


def profiled_calls():
    """:func:`calls_pin`, in this interpreter.  The repetition is
    ``quick_pin``'s, with ``cProfile`` around the load; its ``pstats``
    table is read where ``bench.ledger.attribute`` receives it."""
    tables, attribute = [], ledger.attribute

    def keep(stats):
        tables.append(stats)
        return attribute(stats)

    pin = {}
    with _reference_speed(), mock.patch.object(ledger, "attribute", keep):
        for workload in WORKLOADS:
            rep.run(_job(workload, "profiled"))
            pin[workload] = layer_calls(tables.pop())
    return pin


def layer_calls(stats):
    """layer -> calls to the Python functions of ``src/repro/<layer>/``
    in a ``pstats`` table, comprehensions left out."""
    calls = dict.fromkeys(ledger.LAYERS, 0)
    for (filename, _, name), row in stats.items():
        if filename.startswith(ledger.REPRO_DIR) and name not in INLINED:
            layer = filename[len(ledger.REPRO_DIR):].split(os.sep)[0]
            if layer in calls:
                calls[layer] += row[1]
    return calls


def _job(workload, mode):
    return {"workload": workload, "seed": DEFAULT_SEED,
            "scale": QUICK_SCALE, "mode": mode}


def _reference_speed():
    """A repetition times ``clock.reference_kernel`` (0.1 s of
    interpreter work) before its load and after every slice of it; no
    pin reads those samples, so the kernel reports a machine of
    reference speed at once."""
    return mock.patch.object(clock, "reference_kernel", lambda: (
        clock.REFERENCE_S, clock.REFERENCE_S))


def render(pin):
    """The pin file's canonical text."""
    return json.dumps(pin, indent=1, sort_keys=True) + "\n"


def diff(pinned, measured):
    """One line per number that differs, named by workload, section and
    metric."""
    lines = []
    for workload in sorted(set(pinned) | set(measured)):
        if workload not in pinned or workload not in measured:
            lines.append(f"{workload}: pinned {workload in pinned}, "
                         f"measured {workload in measured}")
            continue
        old, new = pinned[workload], measured[workload]
        for key in ("sim_digest", "oracle_failures"):
            if old.get(key) != new.get(key):
                lines.append(f"{workload}: {key}: pinned {old.get(key)!r}, "
                             f"measured {new.get(key)!r}")
        for section in SECTIONS:
            before, after = old.get(section, {}), new.get(section, {})
            for name in sorted(set(before) | set(after)):
                if before.get(name) != after.get(name):
                    lines.append(
                        f"{workload}: {section} {name}: pinned "
                        f"{before.get(name)!r}, measured {after.get(name)!r}")
    return lines


def diff_calls(pinned, measured):
    """One line per workload and layer whose calls differ."""
    lines = []
    for workload in sorted(set(pinned) | set(measured)):
        before, after = pinned.get(workload, {}), measured.get(workload, {})
        for layer in sorted(set(before) | set(after)):
            if before.get(layer) != after.get(layer):
                lines.append(f"{workload}: calls {layer}: pinned "
                             f"{before.get(layer)!r}, measured "
                             f"{after.get(layer)!r}")
    return lines


def test_quick_pass_matches_the_pin():
    pinned = json.loads(PIN_PATH.read_text())
    assert all(row["oracle_failures"] == [] for row in pinned.values())
    moved = diff(pinned, quick_pin())
    assert not moved, ("the quick dark pass moved; if on purpose, run "
                       "`python tools/pin_bench.py --write`:\n"
                       + "\n".join(moved))


def test_each_layers_calls_match_the_pin():
    moved = diff_calls(json.loads(CALLS_PATH.read_text()), calls_pin())
    assert not moved, ("calls per layer moved; if on purpose, run "
                       "`python tools/pin_bench.py --write`:\n"
                       + "\n".join(moved))


def test_a_moved_count_is_named_not_only_the_digest():
    pinned = json.loads(PIN_PATH.read_text())
    doctored = copy.deepcopy(pinned)
    doctored["steady_closed"]["counts"]["sim.events_per_op"] += 0.25
    moved = diff(doctored, pinned)
    assert moved == [
        f"steady_closed: counts sim.events_per_op: pinned "
        f"{doctored['steady_closed']['counts']['sim.events_per_op']!r}, "
        f"measured {pinned['steady_closed']['counts']['sim.events_per_op']!r}"]


def test_a_seeded_run_does_not_depend_on_the_hash_salt():
    """``PYTHONHASHSEED`` salts every str hash, and members of
    ``MsgKind`` and ``ReplicationStyle`` hash by address: a set whose
    iteration order reached the run would move the digest between these
    two processes.  Both run at once, so the test costs one repetition."""
    job = json.dumps({"workload": "bank_styles", "seed": DEFAULT_SEED,
                      "scale": QUICK_SCALE, "mode": "dark"})
    runs = [subprocess.Popen(
        [sys.executable, "-m", "bench.rep", job], cwd=ROOT,
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONHASHSEED": salt})
        for salt in ("0", "4242")]
    digests = []
    for run in runs:
        out, _ = run.communicate(timeout=60)
        assert run.returncode == 0
        digests.append(json.loads(out.splitlines()[-1])["sim_digest"])
    pinned = json.loads(PIN_PATH.read_text())["bank_styles"]["sim_digest"]
    assert digests == [pinned, pinned]
