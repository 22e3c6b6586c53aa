"""Kernel vs model: the scheduler's firing order against a plain oracle.

:class:`Model` states the kernel's promise directly — events fire in
``(time, tiebreak)`` order, the tiebreak drawn at schedule or
reschedule time — as live entries in a list, fired by a linear
minimum.  Random programs over the whole scheduling API, run from
inside events, and segmented ``run(until=)`` / ``step()`` /
``run_until(predicate)`` drives must give both the same firing log,
clock, event count and stop reasons.  ``--hypothesis-profile=search``
(``tests/conftest.py``) runs the profile's 400 examples of each.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.scheduler import Scheduler

SEARCH = settings.get_current_profile_name() == "search"


class _Handle:
    def __init__(self, fn, args):
        self.fn, self.args = fn, args
        self.cancelled = self.fired = False

    active = property(lambda self: not (self.cancelled or self.fired))

    def cancel(self):
        self.cancelled = not self.fired


class Model:
    """The ordering contract and nothing else."""

    def __init__(self):
        self.now, self.events_processed, self.handles = 0.0, 0, []
        self._tiebreaks = itertools.count()

    def reschedule(self, handle, time):  # cancel plus a fresh tiebreak
        handle.key = (time, next(self._tiebreaks))
        return handle

    def call_at(self, time, fn, *args):
        self.handles.append(_Handle(fn, args))
        return self.reschedule(self.handles[-1], time)

    def call_after(self, delay, fn, *args):
        return self.call_at(self.now + delay, fn, *args)

    def call_soon(self, fn, *args):
        return self.call_at(self.now, fn, *args)

    def reschedule_after(self, handle, delay):
        return self.reschedule(handle, self.now + delay)

    def post_batch(self, delay, fn, argss):
        for args in argss:
            self.call_after(delay, fn, *args)

    post = call_after

    def _loop(self, budget, limit, predicate):
        fired = 0
        while fired < budget:
            if predicate is not None and predicate():
                return fired, None
            live = [h for h in self.handles if h.active]
            if not live:
                return fired, "quiesced"
            handle = min(live, key=lambda h: h.key)
            if limit is not None and handle.key[0] > limit:
                return fired, "not reached"
            self.now = handle.key[0]
            handle.fired = True
            self.events_processed += 1
            fired += 1
            handle.fn(*handle.args)
        return fired, "budget"

    def step(self):
        return self._loop(1, None, None)[0] == 1

    def run(self, until=None, max_events=10_000_000):
        fired, why = self._loop(max_events, until, None)
        assert why != "budget"
        self.now = self.now if until is None else max(self.now, until)
        return fired

    def run_until(self, predicate, timeout=60.0, max_events=10_000_000):
        _, why = self._loop(max_events, self.now + timeout, predicate)
        if why:
            raise SimulationError(why)


KERNELS = (Scheduler, Model)

# Times/delays on a 2.5ms grid spanning 0–150ms: same-time cohorts.
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
        elif kind == "cancel" and handles:
            target = p1 % len(handles)
            handles[target].cancel()
            log.append((sched.now, "cancel", target))
        elif kind in ("resched", "resched_after") and handles:
            target = p1 % len(handles)
            if handles[target].active:
                if kind == "resched":
                    sched.reschedule(handles[target], sched.now + p2)
                else:
                    sched.reschedule_after(handles[target], p2)
                log.append((sched.now, kind, target))
    for i, op in enumerate(program):
        sched.call_at(op[1], run_op, i, op)
    returned = sched.run(max_events=100_000)
    return log, sched.now, sched.events_processed, returned


@settings(deadline=None, **({} if SEARCH else {"max_examples": 100}))
@given(program=_PROGRAMS)
def test_random_programs_fire_identically(program):
    """Random API programs: identical firing order (the log captures
    every fire/cancel/reschedule with its simulated time), final clock,
    and event count on the kernel and the model."""
    assert _run_program(Scheduler, program) == _run_program(Model, program)


_PREDICATE_ACTIONS = ("none", "cancel", "earlier", "schedule")


def _drive_until(sched, log, predicate, **limits):
    """One ``run_until`` drive; the outcome is the stop reason plus
    the clock and the log at the boundary."""
    try:
        sched.run_until(predicate, **limits)
        outcome = "satisfied"
    except SimulationError as exc:
        outcome = next(reason for reason in ("quiesced", "not reached",
                                             "budget")
                       if reason in str(exc))
    return ("run_until", outcome, sched.now, tuple(log))


def _mutating_predicate(sched, log, handles, mutate_at, stop_at, action):
    """True once ``stop_at`` more events have fired; mutates the queue
    from *inside* the predicate, once, when ``mutate_at`` have."""
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
            elif kind == "schedule":
                handles.append(sched.call_at(sched.now + 0.0005, log.append,
                                             ("predicate", start)))
        return fired >= stop_at

    return predicate


@settings(deadline=None, **({} if SEARCH else {"max_examples": 50}))
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
    """run(until=...) leaves partially drained state behind.  Driving
    the kernel and the model through the same cut points — with step()
    calls, run_until(predicate) drives whose predicates mutate the
    queue, and mid-segment reschedules thrown in — must keep them in
    lockstep at every boundary."""
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
