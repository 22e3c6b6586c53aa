"""Twin-kernel differential harness: calendar queue vs reference heap.

The production :class:`repro.sim.scheduler.Scheduler` (calendar-queue
kernel, this PR) and the pre-overhaul binary-heap kernel preserved as
:class:`repro.sim.reference_scheduler.ReferenceScheduler` promise the
*same* semantics: events fire in ``(time, tiebreak)`` order with the
tie-break drawn at schedule/reschedule time.  This module pins
that promise three ways:

* every golden scenario in :mod:`repro.analysis.scenarios` is replayed
  on both kernels and the canonical artifacts (delivery traces, metric
  snapshots) must be **byte-identical**;
* Hypothesis generates random programs over the full scheduling API —
  ``call_at`` / ``call_after`` / ``call_soon`` / ``post`` /
  ``post_batch`` / ``call_every`` / ``cancel`` / ``reschedule`` /
  ``reschedule_after`` — executed from *inside* running events, and
  both kernels must produce identical firing logs, final clocks and event
  counts;
* segmented ``run(until=...)`` / ``step()`` / ``run_until(predicate)``
  drives (which exercise the calendar kernel's partially drained cohort
  stash, and the seal before every predicate call) must match the
  reference at every cut point.

Any future kernel change that alters observable ordering fails here
first, long before a golden file drifts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.scenarios import (GOLDEN_SCENARIOS,
                                      run_failover_scenario)
from repro.analysis.race import drop_metric_series
from repro.errors import SimulationError
from repro.sim.reference_scheduler import ReferenceScheduler
from repro.sim.scheduler import Scheduler

KERNELS = (Scheduler, ReferenceScheduler)

# ----------------------------------------------------------------------
# Golden scenarios: byte-identical artifacts on both kernels
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_golden_artifacts_byte_identical_across_kernels(name):
    """Each golden scenario's canonical artifacts — the same strings the
    golden-file gate and the race sweep compare — must not depend on
    which kernel ran the simulation."""
    builder = GOLDEN_SCENARIOS[name]
    new_artifacts = dict(builder(None))
    ref_artifacts = dict(builder(ReferenceScheduler()))
    assert sorted(new_artifacts) == sorted(ref_artifacts)
    for key in sorted(new_artifacts):
        assert new_artifacts[key] == ref_artifacts[key], (
            f"{name}:{key} differs between kernels")


def test_failover_world_state_identical_across_kernels():
    """Beyond the exported artifacts: the raw end-of-run world state —
    clock, event count, full metric snapshot minus the volatile
    compaction counter — matches between kernels."""
    new_world = run_failover_scenario()
    ref_world = run_failover_scenario(scheduler=ReferenceScheduler())
    assert new_world.now == ref_world.now
    assert (new_world.scheduler.events_processed
            == ref_world.scheduler.events_processed)
    assert (drop_metric_series(new_world.metrics_json())
            == drop_metric_series(ref_world.metrics_json()))


# ----------------------------------------------------------------------
# Random programs over the scheduling API
# ----------------------------------------------------------------------

# Times/delays on a 2.5ms grid spanning 0–150ms: fine enough to create
# same-time cohorts, coarse enough to repeatedly cross the calendar
# kernel's 8ms slot boundaries (the interesting alignments).
_TIMES = st.integers(0, 60).map(lambda k: k * 0.0025)
_DELAYS = st.integers(0, 40).map(lambda k: k * 0.0025)
_IDX = st.integers(0, 99)

_OPS = st.one_of(
    st.tuples(st.just("timer"), _TIMES, _DELAYS, st.just(0)),
    st.tuples(st.just("at"), _TIMES, _DELAYS, st.just(0)),
    st.tuples(st.just("soon"), _TIMES, st.just(0), st.just(0)),
    st.tuples(st.just("post"), _TIMES, _DELAYS, st.just(0)),
    st.tuples(st.just("post_batch"), _TIMES, _DELAYS,
              st.integers(0, 5)),
    st.tuples(st.just("every"), _TIMES,
              st.integers(1, 8).map(lambda k: k * 0.003),
              st.integers(1, 5).map(lambda k: k * 0.01)),
    st.tuples(st.just("cancel"), _TIMES, _IDX, st.just(0)),
    st.tuples(st.just("resched"), _TIMES, _IDX, _DELAYS),
    st.tuples(st.just("resched_after"), _TIMES, _IDX, _DELAYS),
)

_PROGRAMS = st.lists(_OPS, min_size=1, max_size=30)


def _run_program(kernel, program):
    """Execute ``program`` on a fresh kernel; each op runs as an event
    at its own simulated time, so cancels and reschedules interleave
    with firings exactly as application code would issue them."""
    sched = kernel()
    log = []
    handles = []

    def note(tag):
        log.append((sched.now, "fire", tag))

    def run_op(i, op):
        kind, _, p1, p2 = op
        if kind == "timer":
            handles.append(sched.call_after(p1, note, i))
        elif kind == "at":
            handles.append(sched.call_at(sched.now + p1, note, i))
        elif kind == "soon":
            handles.append(sched.call_soon(note, i))
        elif kind == "post":
            sched.post(p1, note, i)
        elif kind == "post_batch":
            sched.post_batch(p1, note, [(f"{i}.{j}",) for j in range(p2)])
        elif kind == "every":
            timer = sched.call_every(p1, note, i)
            handles.append(timer)
            # Bound the series: cancel it a fixed delay later.
            sched.call_after(p2, timer.cancel)
        elif kind == "cancel":
            if handles:
                target = p1 % len(handles)
                handles[target].cancel()
                log.append((sched.now, "cancel", target))
        elif kind == "resched":
            if handles:
                target = handles[p1 % len(handles)]
                if target.active:
                    sched.reschedule(target, sched.now + p2)
                    log.append((sched.now, "resched", p1 % len(handles)))
        elif kind == "resched_after":
            if handles:
                target = handles[p1 % len(handles)]
                if target.active:
                    sched.reschedule_after(target, p2)
                    log.append((sched.now, "resched_after",
                                p1 % len(handles)))
    for i, op in enumerate(program):
        sched.call_at(op[1], run_op, i, op)
    returned = sched.run(max_events=100_000)
    return log, sched.now, sched.events_processed, returned


@settings(max_examples=200, deadline=None)
@given(program=_PROGRAMS)
def test_random_programs_fire_identically(program):
    """The headline differential: 200 random API programs, identical
    firing order (the log captures every fire/cancel/reschedule
    with its simulated time), final clock, and event count."""
    new_result = _run_program(Scheduler, program)
    ref_result = _run_program(ReferenceScheduler, program)
    assert new_result == ref_result


_PREDICATE_ACTIONS = ("none", "cancel", "earlier", "same_slot")


def _drive_until(sched, log, predicate, **limits):
    """One ``run_until`` drive; the outcome is the stop reason plus
    everything observable at the boundary, garbage accounting included."""
    try:
        sched.run_until(predicate, **limits)
        outcome = "satisfied"
    except SimulationError as exc:
        outcome = str(exc)
    return ("run_until", outcome, sched.now, tuple(log),
            sched.pending_events, sched.stale_entries)


def _mutating_predicate(sched, log, handles, mutate_at, stop_at, action):
    """True once ``stop_at`` more events have fired; mutates the queue
    from *inside* the predicate, once, when ``mutate_at`` have.  (Once:
    the reference kernel also polls the predicate between garbage
    pops, so a per-call side effect would not be comparable.)"""
    start = len(log)
    pending = [action]

    def predicate():
        fired = len(log) - start
        if pending and fired >= mutate_at:
            active = [h for h in handles if h.active]
            kind = pending.pop()
            if kind == "cancel" and active:
                active[0].cancel()
            elif kind == "earlier" and active:
                sched.reschedule(active[-1], sched.now)
            elif kind == "same_slot":
                handles.append(sched.call_at(sched.now + 0.0005, log.append,
                                             ("predicate", start)))
        return fired >= stop_at

    return predicate


@settings(max_examples=50, deadline=None)
@given(
    timers=st.lists(st.tuples(_TIMES, st.booleans()), min_size=1,
                    max_size=25),
    cuts=st.lists(st.integers(1, 70), min_size=1, max_size=5),
    steps=st.integers(0, 3),
    predicates=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 5),
                  st.sampled_from(_PREDICATE_ACTIONS)),
        min_size=1, max_size=3),
)
def test_segmented_until_and_step_drives_match(timers, cuts, steps,
                                               predicates):
    """run(until=...) leaves partially drained state behind (the
    calendar kernel stashes a half-consumed cohort; the heap kernel
    leaves entries queued).  Driving both kernels through the same cut
    points — with step() calls, run_until(predicate) drives whose
    predicates mutate the queue, and mid-segment cancels thrown in —
    must keep them in lockstep at every boundary."""
    bounds = sorted(k * 0.0025 for k in cuts)
    results = []
    for kernel in KERNELS:
        sched = kernel()
        log = []
        handles = [sched.call_after(t, log.append, (t, i))
                   for i, (t, flag) in enumerate(timers)]
        # Pre-run hygiene: cancel the flagged half before anything runs.
        for handle, (_, flag) in zip(handles, timers):
            if flag:
                handle.cancel()
        observations = []
        for _ in range(steps):
            observations.append(("step", sched.step(), sched.now,
                                 tuple(log)))
        # run_until(predicate) is the drive the traffic uses.  Each
        # drive stops after k fired events (k = 0: true on entry),
        # quiesces, or times out with the due event left queued.
        for mutate_at, stop_at, action in predicates:
            observations.append(_drive_until(
                sched, log, _mutating_predicate(sched, log, handles,
                                                mutate_at, stop_at, action),
                timeout=0.03))
        # Strict budget: the predicate would hold after the one event
        # the budget allows, and the drive raises all the same.
        base = len(log)
        observations.append(_drive_until(
            sched, log, lambda: len(log) > base, max_events=1))
        # Zero timeout: only events due right now may run.
        observations.append(_drive_until(sched, log, lambda: False,
                                         timeout=0.0))
        for bound in bounds:
            processed = sched.run(until=bound)
            observations.append(("run", bound, processed, sched.now,
                                 tuple(log)))
            # Mid-drive mutation: push the first still-active timer out
            # past the next bound, exercising lazy reschedule across
            # segment boundaries.
            for handle in handles:
                if handle.active:
                    sched.reschedule(handle, sched.now + 0.02)
                    break
        final = sched.run()
        observations.append(("final", final, sched.now, tuple(log),
                             sched.events_processed))
        # Already true on entry, nothing queued: returns, fires nothing.
        observations.append(_drive_until(sched, log, lambda: True))
        results.append(observations)
    assert results[0] == results[1]


@settings(max_examples=30, deadline=None)
@given(program=_PROGRAMS)
def test_narrow_slots_change_nothing(program):
    """Slot width is a pure performance knob: a calendar kernel with
    pathologically narrow slots (every event its own bucket, maximal
    slot-heap traffic) still matches the reference exactly."""
    narrow = _run_program(lambda: Scheduler(slot_width=0.0001), program)
    ref = _run_program(ReferenceScheduler, program)
    assert narrow == ref
