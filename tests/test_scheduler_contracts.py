"""Loop-contract parity (`run` vs `run_until`) and kernel edge cases.

Satellite coverage for the kernel overhaul PR, in two halves:

* **run_until parity regressions** — the pre-overhaul ``run_until``
  diverged from ``run`` in three ways: the event budget only raised
  strictly *beyond* ``max_events`` (``run`` raises the moment the
  budget is spent), there was no ``_running`` re-entrancy guard, and
  the deadline was checked only *after* popping the next entry, so a
  timeout silently consumed the event it refused to run.  Both kernels
  now share the strict contracts; these tests fail against the old
  behaviour.
* **calendar-kernel edge cases** — compaction fired from inside an
  event handler, lazy reschedules surfacing after a compaction,
  ``cancel`` of a fired timer, garbage accounting in
  ``pending_events``, and rescheduling into a cohort stashed by a
  ``run(until=...)`` bound (the insertion-below-resume-point hazard the
  differential harness originally caught).

Everything that is kernel-independent is parametrized over both
kernels, so the reference heap keeps certifying the same contracts.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.reference_scheduler import (_COMPACT_MIN_QUEUE,
                                           ReferenceScheduler)
from repro.sim.scheduler import Scheduler

KERNELS = [Scheduler, ReferenceScheduler]
KERNEL_IDS = ["calendar", "reference"]


# ----------------------------------------------------------------------
# Satellite: run_until parity with run
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_run_until_rejects_reentry_from_event(kernel):
    """run() refuses re-entry from an event handler; run_until must too
    (pre-fix it recursed into a corrupted loop)."""
    sched = kernel()
    errors = []

    def reenter():
        try:
            sched.run_until(lambda: True)
        except SimulationError as exc:
            errors.append(str(exc))

    sched.call_after(1.0, reenter)
    sched.run()
    assert errors and "re-entered" in errors[0]
    # ... and symmetrically from inside a run_until drive:
    sched2 = kernel()
    errors2 = []

    def reenter2():
        try:
            sched2.run_until(lambda: True)
        except SimulationError as exc:
            errors2.append(str(exc))

    sched2.call_after(1.0, reenter2)
    sched2.run_until(lambda: bool(errors2), timeout=10.0)
    assert errors2 and "re-entered" in errors2[0]


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_run_until_budget_is_strict_like_run(kernel):
    """Spending exactly ``max_events`` raises, even if the predicate
    would have been satisfied by the final event — matching
    ``run(max_events=N)``, which raises after its N-th event.  The
    pre-fix check (``>`` instead of ``>=``) returned success here."""
    sched = kernel()
    fired = []
    for i in range(3):
        sched.call_after(float(i + 1), fired.append, i)
    with pytest.raises(SimulationError, match="budget"):
        sched.run_until(lambda: len(fired) >= 3, max_events=3)
    assert fired == [0, 1, 2]
    # One event of headroom and the same drive succeeds:
    sched2 = kernel()
    fired2 = []
    for i in range(3):
        sched2.call_after(float(i + 1), fired2.append, i)
    sched2.run_until(lambda: len(fired2) >= 3, max_events=4)
    assert fired2 == [0, 1, 2]


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_run_until_timeout_leaves_due_event_queued(kernel):
    """A timeout must not consume the event beyond the deadline: the
    pre-fix loop popped the entry before checking, losing it.  After
    the raise, the event still fires on a later drive."""
    sched = kernel()
    fired = []
    sched.call_after(5.0, fired.append, "late")
    with pytest.raises(SimulationError, match="not reached"):
        sched.run_until(lambda: False, timeout=1.0)
    assert fired == []
    assert sched.pending_events == 1
    sched.run()
    assert fired == ["late"]
    assert sched.now == 5.0


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_run_until_stale_accounting_parity(kernel):
    """Garbage popped during a run_until drive is accounted exactly as
    run() accounts it: stale counts drop, processed counts don't move."""
    sched = kernel()
    fired = []
    victims = [sched.call_after(1.0, fired.append, i) for i in range(8)]
    keeper = sched.call_after(2.0, fired.append, "keep")
    for victim in victims:
        victim.cancel()
    assert sched.stale_entries == 8
    sched.run_until(lambda: bool(fired), timeout=10.0)
    assert fired == ["keep"]
    assert sched.stale_entries == 0
    assert sched.events_processed == 1
    assert keeper.fired


# ----------------------------------------------------------------------
# Satellite: kernel edge cases
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_compaction_triggered_from_inside_event_handler(kernel):
    """An event handler that mass-cancels can trip compaction while the
    loop is mid-drain; survivors (including entries in the cohort being
    drained) must still fire in order."""
    sched = kernel()
    fired = []
    doomed = [sched.call_after(10.0, fired.append, f"doom{i}")
              for i in range(3 * _COMPACT_MIN_QUEUE)]
    keepers = [sched.call_after(float(i + 2), fired.append, f"keep{i}")
               for i in range(5)]

    def massacre():
        fired.append("massacre")
        for timer in doomed:
            timer.cancel()

    sched.call_after(1.0, massacre)
    sched.run()
    assert sched.queue_compactions >= 1
    assert fired == ["massacre"] + [f"keep{i}" for i in range(5)]
    assert all(k.fired for k in keepers)
    assert sched.pending_events == 0
    assert sched.stale_entries == 0


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_lazy_reschedule_survives_compaction(kernel):
    """A timer lazily rescheduled to a later time (stale entry still in
    the queue) must keep its authoritative firing time through a
    compaction, whether the compactor rewrites the entry in place or
    the stale entry surfaces and re-pushes."""
    sched = kernel()
    fired = []
    moved = sched.call_after(1.0, fired.append, "moved")
    sentinel = sched.call_after(3.0, fired.append, "sentinel")
    # Lazy move to 5.0: the 1.0 entry goes stale but stays queued.
    sched.reschedule(moved, 5.0)
    doomed = [sched.call_after(10.0, fired.append, f"doom{i}")
              for i in range(3 * _COMPACT_MIN_QUEUE)]
    for timer in doomed:
        timer.cancel()
    assert sched.queue_compactions >= 1
    sched.run()
    assert fired == ["sentinel", "moved"]
    assert sched.now == 5.0
    assert sentinel.fired and moved.fired


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_cancelling_a_fired_timer_is_a_noop(kernel):
    """Cancelling a timer that has already fired is silent and doesn't
    corrupt the garbage accounting."""
    sched = kernel()
    fired = []
    done = sched.call_after(1.0, fired.append, "b")
    sched.run()
    done.cancel()
    assert fired == ["b"]
    assert done.fired and not done.cancelled
    assert sched.stale_entries == 0
    assert sched.run() == 0


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_pending_events_counts_garbage_until_collected(kernel):
    """pending_events deliberately includes not-yet-collected garbage
    (cancelled and superseded entries); stale_entries tracks the
    cancelled subset, and both drop to zero after a full drain."""
    sched = kernel()
    live = [sched.call_after(1.0, lambda: None) for _ in range(4)]
    cancelled = [sched.call_after(2.0, lambda: None) for _ in range(3)]
    for timer in cancelled:
        timer.cancel()
    # A lazy reschedule-later leaves a superseded duplicate queued:
    sched.reschedule(live[0], 9.0)
    assert sched.pending_events == 7
    assert sched.stale_entries == 3
    sched.run(until=0.5)
    # Nothing fired, nothing collected by a bound that precedes it all.
    assert sched.events_processed == 0
    sched.run()
    assert sched.pending_events == 0
    assert sched.stale_entries == 0
    assert sched.events_processed == 4


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
def test_reschedule_earlier_into_stashed_cohort(kernel):
    """Regression for the insertion-below-resume-point hazard: a
    run(until=...) bound stops the calendar kernel inside a cohort
    whose consumed prefix held skipped garbage; rescheduling a survivor
    *earlier* then inserted below the resume point and never fired."""
    sched = kernel()
    fired = []
    ghost = sched.call_after(0.1225, fired.append, "ghost")
    keeper = sched.call_after(0.1225, fired.append, "keeper")
    ghost.cancel()
    assert sched.run(until=0.1) == 0
    assert sched.now == 0.1
    sched.reschedule(keeper, 0.12)
    assert sched.run() == 1
    assert fired == ["keeper"]
    assert sched.now == 0.12


def test_callback_counters_track_plain_attributes():
    """The lazy-instrumentation seam end to end: attach_metrics exports
    live values through callback counters, re-attachment re-points the
    metric, and writes through the metric are rejected."""
    from repro.errors import ConfigurationError
    from repro.obs.metrics import CallbackCounter, MetricsRegistry

    sched = Scheduler()
    registry = MetricsRegistry(clock=lambda: sched.now)
    sched.attach_metrics(registry)
    counter = registry.counter("sched.timers.rescheduled")
    assert isinstance(counter, CallbackCounter)
    assert counter.value == 0
    timer = sched.call_after(5.0, lambda: None)
    sched.reschedule(timer, 6.0)
    assert counter.value == 1
    assert registry.value("sched.timers.rescheduled") == 1
    assert counter.snapshot()["value"] == 1
    with pytest.raises(ConfigurationError, match="callback-backed"):
        counter.inc()
    # A second scheduler attaching to the same registry takes over:
    sched2 = Scheduler()
    sched2.attach_metrics(registry)
    assert registry.counter("sched.timers.rescheduled").value == 0
    # A writable counter with the same name cannot be silently shadowed:
    plain = registry.counter("plain.count")
    plain.inc()
    with pytest.raises(ConfigurationError, match="already registered"):
        registry.counter_fn("plain.count", lambda: 7)
