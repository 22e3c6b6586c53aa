"""Tests for the dynamic race detector (``repro.analysis.race``).

Three layers: the :class:`RaceScheduler` must be observationally
equivalent to the base :class:`Scheduler` when replaying the identity
order; the :class:`CohortPermuter` must only ever emit *legal*
orderings (per-source FIFO kept, barriers immovable); and the full
:func:`permutation_sweep` over the golden scenarios must hold every
semantic artifact byte-identical — the acceptance property this PR
exists to verify.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.race import (CohortPermuter, RaceRecorder, RaceScheduler,
                                 _lane_of, partition_metric_series,
                                 permutation_sweep)
from repro.analysis.scenarios import GOLDEN_SCENARIOS
from repro.errors import SimulationError
from repro.sim.network import Network as SimNetwork
from repro.sim.reference_scheduler import ReferenceTimer
from repro.sim.scheduler import Scheduler


# ----------------------------------------------------------------------
# Identity equivalence: RaceScheduler(permuter=None) == Scheduler
# ----------------------------------------------------------------------


def _exercise(sched):
    """A workload with same-time cohorts, cancels, lazy reschedules and
    events that schedule follow-ups at the current instant."""
    log = []

    def note(tag):
        log.append((sched.now, tag))

    def chain(tag, depth):
        log.append((sched.now, tag))
        if depth:
            sched.call_soon(chain, f"{tag}+", depth - 1)

    sched.call_at(1.0, note, "a")
    sched.call_at(1.0, note, "b")
    victim = sched.call_at(1.0, note, "never")
    sched.call_at(1.0, victim.cancel)
    sched.call_at(1.0, chain, "c", 2)
    moved = sched.call_at(2.0, note, "moved")
    sched.call_at(1.5, lambda: sched.reschedule(moved, 3.0))
    late = sched.call_at(5.0, note, "late")
    sched.call_at(2.5, lambda: sched.reschedule(late, 2.5))
    sched.run()
    return log, sched.now, sched.events_processed


def test_identity_replay_matches_base_scheduler():
    base = _exercise(Scheduler())
    race = _exercise(RaceScheduler())
    assert race == base


def test_cancel_inside_cohort_respected():
    """A cohort member cancelling a same-time sibling must still win:
    liveness is re-checked at fire time, not just at extraction."""
    sched = RaceScheduler()
    fired = []
    victim = sched.call_at(1.0, fired.append, "victim")
    sched.call_at(1.0, victim.cancel)
    sched.call_at(1.0, fired.append, "survivor")
    sched.run()
    # The cancel was scheduled *after* the victim, so in identity order
    # the victim fires first — but a fresh pre-cancelled one must not:
    assert fired == ["victim", "survivor"]
    sched2 = RaceScheduler()
    fired2 = []
    pre = sched2.call_at(1.0, fired2.append, "victim")
    sched2.call_at(0.5, pre.cancel)
    sched2.call_at(1.0, fired2.append, "survivor")
    sched2.run()
    assert fired2 == ["survivor"]


def test_racescheduler_loop_contracts():
    sched = RaceScheduler()
    assert sched.step() is False
    hits = []
    sched.call_after(1.0, hits.append, 1)
    sched.call_after(1.0, hits.append, 2)
    assert sched.pending_events == 2
    assert sched.step() is True
    # The second cohort member sits extracted in the ready deque:
    assert sched.pending_events == 1
    assert sched.step() is True and hits == [1, 2]

    sched.call_after(1.0, lambda: sched.run())
    with pytest.raises(SimulationError, match="re-entered"):
        sched.run()

    looping = RaceScheduler()

    def again():
        looping.call_soon(again)

    looping.call_soon(again)
    with pytest.raises(SimulationError, match="budget"):
        looping.run(max_events=100)

    waiting = RaceScheduler()
    waiting.call_after(1.0, lambda: None)
    with pytest.raises(SimulationError, match="quiesced"):
        waiting.run_until(lambda: False)
    timed = RaceScheduler()
    timed.call_after(100.0, lambda: None)
    with pytest.raises(SimulationError, match="not reached"):
        timed.run_until(lambda: False, timeout=1.0)


def test_run_advances_clock_to_bound():
    sched = RaceScheduler()
    sched.call_at(1.0, lambda: None)
    sched.run(until=10.0)
    assert sched.now == 10.0


# ----------------------------------------------------------------------
# Permuter legality
# ----------------------------------------------------------------------


class Network:
    """Stand-in whose arrival qualnames match the real network's."""

    def _arrive(self, src, payload):
        pass

    def _arrive_group(self, src, payload, group):
        pass


def _arrival(time, tiebreak, src):
    timer = ReferenceTimer(time, Network()._arrive, (src, b""))
    timer._key = (time, tiebreak)
    return (time, tiebreak, timer)


def _group_arrival(time, tiebreak, src):
    timer = ReferenceTimer(time, Network()._arrive_group, (src, b"", []))
    timer._key = (time, tiebreak)
    return (time, tiebreak, timer)


def _barrier(time, tiebreak):
    def crash():
        pass

    timer = ReferenceTimer(time, crash, ())
    timer._key = (time, tiebreak)
    return (time, tiebreak, timer)


def test_lane_classification():
    assert _lane_of(_arrival(1.0, 0, "h1")[2]) == ("net", "h1")
    assert _lane_of(_barrier(1.0, 0)[2]) is None


def test_a_broadcast_delay_group_is_an_arrival_on_its_source_lane():
    assert _lane_of(_group_arrival(1.0, 0, "h1")[2]) == ("net", "h1")
    # The real bound method, not only the stand-in, classifies the same.
    network = SimNetwork(Scheduler())
    timer = ReferenceTimer(1.0, network._arrive_group, ("h2", b"", []))
    assert _lane_of(timer) == ("net", "h2")


def test_permuter_respects_fifo_and_barriers():
    a1, b1, a2 = (_arrival(1.0, 0, "A"), _arrival(1.0, 1, "B"),
                  _arrival(1.0, 2, "A"))
    bar = _barrier(1.0, 3)
    c1, a3 = _arrival(1.0, 4, "C"), _arrival(1.0, 5, "A")
    cohort = [a1, b1, a2, bar, c1, a3]
    changed = 0
    for seed in range(20):
        out = CohortPermuter(seed).permute(1.0, list(cohort))
        assert sorted(map(id, out)) == sorted(map(id, cohort))
        # The barrier never moves, and nothing crosses it:
        assert out[3] is bar
        assert set(map(id, out[:3])) == {id(a1), id(b1), id(a2)}
        # Per-source FIFO: A's arrivals keep their relative order.
        a_order = [e for e in out if _lane_of(e[2]) == ("net", "A")]
        assert a_order == [a1, a2, a3]
        if out != cohort:
            changed += 1
    assert changed > 0, "20 seeds never produced a reordering"


def test_permuter_single_lane_run_is_untouched():
    cohort = [_arrival(2.0, i, "only") for i in range(4)]
    permuter = CohortPermuter(7)
    assert permuter.permute(2.0, list(cohort)) == cohort
    assert permuter.permuted_runs == 0
    assert permuter.changed_cohorts == 0


def test_recorder_counts_and_caps():
    recorder = RaceRecorder(max_records=1)
    recorder.record(1.0, [_arrival(1.0, 0, "A"), _arrival(1.0, 1, "B")])
    recorder.record(2.0, [_arrival(2.0, 2, "A"), _barrier(2.0, 3)])
    summary = recorder.summary()
    assert summary == {"cohorts": 2, "colliding_events": 4,
                       "multi_lane_cohorts": 1, "recorded": 1}


# ----------------------------------------------------------------------
# Metric partition
# ----------------------------------------------------------------------


def test_partition_metric_series_splits_and_canonicalises():
    payload = {"schema": 1, "metrics": {
        "gateway.req.received": {"value": 4},
        "net.bytes.sent": {"value": 480},
        "totem.broadcasts{host=h1}": {"value": 7},
        "sched.queue.compactions": {"value": 2},
    }}
    semantic, effort = partition_metric_series(json.dumps(payload))
    sem = json.loads(semantic)
    assert list(sem["metrics"]) == ["gateway.req.received"]
    assert sem["schema"] == 1
    eff = json.loads(effort)
    # Labelled series partition by their base name; volatile is dropped.
    assert sorted(eff) == ["net.bytes.sent", "totem.broadcasts{host=h1}"]
    # Canonical byte form: compact separators, sorted keys.
    assert semantic == json.dumps(sem, sort_keys=True,
                                  separators=(",", ":"))


# ----------------------------------------------------------------------
# The acceptance property: golden scenarios survive legal reorderings
# ----------------------------------------------------------------------


#: Same-instant cohorts holding arrivals from two or more source lanes —
#: the ones the permuter can reorder.  A delay group of a broadcast is
#: one event; misfiled as a barrier it would split these runs and the
#: count would fall, silently shrinking what the sweep proves.
MULTI_LANE_COHORTS = {"chaos_seed5": 10, "failover_seed350": 10,
                      "parked_seed9": 15}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_permutation_sweep_keeps_semantic_artifacts_identical(name):
    report = permutation_sweep(GOLDEN_SCENARIOS[name], name,
                               permutation_seeds=(1, 2, 3))
    assert report.ok, json.dumps(
        report.to_dict()["runs"], indent=2, default=str)
    assert report.divergent_runs == []
    labels = [run.label for run in report.runs]
    assert labels == ["baseline", "identity", "permutation-1",
                      "permutation-2", "permutation-3"]
    # The scenarios genuinely race: every instrumented run saw cohorts,
    # and at least one seed actually reordered something (otherwise the
    # sweep proves nothing).
    for run in report.runs[1:]:
        assert run.recorder["cohorts"] > 0
        assert run.recorder["multi_lane_cohorts"] == MULTI_LANE_COHORTS[name]
    assert any(run.permuter["changed_cohorts"] > 0
               for run in report.runs[2:])
    # The report round-trips to JSON for the CI artifact.
    json.dumps(report.to_dict())
