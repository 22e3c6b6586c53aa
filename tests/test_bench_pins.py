"""The committed pin of the benchmark's quick dark pass.

``python3 -m bench --quick`` runs each workload at a fiftieth of its
operations.  Its simulated numbers are pure functions of the seed, so
this test runs the same quick dark repetition in-process through
``bench.rep.run`` (the benchmark is read as a library, never edited)
and diffs every deterministic number against
``tests/golden/bench_quick_seed11.json``.  Per workload the pin holds
``sim_digest``, the oracle failures (none), every ``sim`` field and
every per-op ``counts`` field; no host-clock number is in it.

A change that moves a simulated number on purpose says so up front
(docs/PERFORMANCE.md, "The prime directive"), regenerates the file with
``python tools/pin_bench.py --write`` and commits the diff, so the
review sees which numbers moved.
"""

import copy
import json
import pathlib
from unittest import mock

from bench import clock, rep
from bench.__main__ import DEFAULT_SEED, QUICK_SCALE
from bench.inputs import WORKLOADS

PIN_PATH = (pathlib.Path(__file__).parent / "golden"
            / f"bench_quick_seed{DEFAULT_SEED}.json")
SECTIONS = ("sim", "counts")


def quick_pin():
    """The deterministic part of one quick dark repetition per workload,
    as the pin file holds it.

    A repetition times ``clock.reference_kernel`` (0.1 s of interpreter
    work) before its load and after every slice of it, to calibrate
    host seconds; the pin reads none of them, so the kernel is replaced
    by one that reports a machine of reference speed at once.
    """
    pin = {}
    with mock.patch.object(clock, "reference_kernel", lambda: (
            clock.REFERENCE_S, clock.REFERENCE_S)):
        for workload in WORKLOADS:
            result = rep.run({"workload": workload, "seed": DEFAULT_SEED,
                              "scale": QUICK_SCALE, "mode": "dark"})
            pin[workload] = {"sim_digest": result["sim_digest"],
                             "oracle_failures": result["oracle_failures"],
                             **{section: result[section]
                                for section in SECTIONS}}
    # Through JSON, so tuples compare equal to the file's lists.
    return json.loads(render(pin))


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


def test_quick_pass_matches_the_pin():
    pinned = json.loads(PIN_PATH.read_text())
    assert all(row["oracle_failures"] == [] for row in pinned.values())
    moved = diff(pinned, quick_pin())
    assert not moved, ("the quick dark pass moved; if on purpose, run "
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
