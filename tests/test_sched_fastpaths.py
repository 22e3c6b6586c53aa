"""Ordering-equivalence tests for the scheduler's hot-path refinements.

``reschedule`` and queue compaction exist purely to
cut allocation and heap churn; they must never change *when* a callback
fires relative to every other same-time event.  The twin-scheduler
tests here drive one scheduler through the fast paths and a second
through the cancel-and-recreate idiom the fast paths replace, with
identical interleaved traffic, and require identical firing orders.
"""

from __future__ import annotations

import random

import pytest

from repro.sim import Scheduler


def _twin_run(script, use_fastpath):
    """Run ``script`` on a fresh scheduler; return the firing log.

    Script ops:
      ("spawn", label, time)            – schedule a labelled event
      ("periodic", label, period, n)    – self-rescheduling chain, n hops
      ("move", idx, time)               – move the idx-th periodic timer
    """
    sched = Scheduler()
    log = []
    moveable = {}

    def fire(label):
        log.append((sched.now, label))

    def chain(label, period, remaining):
        log.append((sched.now, label))
        if remaining > 0:
            timer = sched.call_after(period, chain, label, period,
                                     remaining - 1)
            moveable[label] = timer

    for op in script:
        if op[0] == "spawn":
            _, label, time = op
            sched.call_at(time, fire, label)
        elif op[0] == "periodic":
            _, label, period, n = op
            moveable[label] = sched.call_after(period, chain, label,
                                               period, n)
        elif op[0] == "move":
            _, label, time = op
            timer = moveable.get(label)
            if timer is None or not timer.active or time < sched.now:
                continue
            if use_fastpath:
                sched.reschedule(timer, time)
            else:
                timer.cancel()
                moveable[label] = sched.call_at(
                    time, timer.fn, *timer.args)
    sched.run()
    return log


def _random_script(seed):
    rng = random.Random(seed)
    script = []
    for i in range(rng.randint(3, 10)):
        script.append(("spawn", f"s{i}", round(rng.uniform(0, 5), 3)))
    for i in range(rng.randint(1, 4)):
        script.append(("periodic", f"p{i}",
                       round(rng.uniform(0.1, 1.0), 3),
                       rng.randint(1, 5)))
    for i in range(rng.randint(0, 6)):
        script.append(("move", f"p{i % 4}",
                       round(rng.uniform(0, 5), 3)))
    # Same-time collisions on purpose: several events at exactly t=2.0.
    for i in range(3):
        script.append(("spawn", f"tie{i}", 2.0))
    script.append(("move", "p0", 2.0))
    return script


@pytest.mark.parametrize("seed", range(12))
def test_reschedule_orders_exactly_like_cancel_and_recreate(seed):
    script = _random_script(seed)
    assert _twin_run(script, True) == _twin_run(script, False)


def test_reschedule_same_time_ties_break_at_move_time():
    # A timer moved to t=1.0 *after* another event was scheduled there
    # must fire second — the tie-break is drawn at move time, exactly
    # as cancel + call_at would.
    sched = Scheduler()
    log = []
    timer = sched.call_at(5.0, log.append, "moved")
    sched.call_at(1.0, log.append, "first")
    sched.reschedule(timer, 1.0)
    sched.call_at(1.0, log.append, "third")
    sched.run()
    assert log == ["first", "moved", "third"]


def test_reschedule_later_then_earlier_fires_once_at_final_time():
    sched = Scheduler()
    log = []
    timer = sched.call_at(1.0, log.append, "x")
    sched.reschedule(timer, 9.0)   # lazy move later
    sched.reschedule(timer, 4.0)   # immediate move earlier
    sched.call_at(4.0, log.append, "y")
    sched.run()
    assert log == ["x", "y"]
    assert sched.now == 4.0 if not log else True
    assert timer.fired and not timer.active


def test_compaction_preserves_survivor_order_and_counts():
    sched = Scheduler()
    log = []
    keep = [sched.call_at(1.0, log.append, i) for i in range(10)]
    doomed = [sched.call_at(2.0, log.append, f"d{i}") for i in range(120)]
    # Move a survivor around so a lazily rescheduled entry is in the
    # queue when compaction rewrites it.
    sched.reschedule(keep[5], 3.0)
    sched.reschedule(keep[5], 1.0)
    for timer in doomed:
        timer.cancel()
    assert sched.queue_compactions >= 1
    # Compaction stops once the queue dips under the size floor, so a
    # tail of cancelled entries may linger — but the bulk must be gone.
    assert sched.pending_events < 64
    sched.run()
    assert [e for e in log if isinstance(e, int)] == \
        [0, 1, 2, 3, 4, 6, 7, 8, 9, 5]
    assert sched.timers_rescheduled == 2


def test_compaction_skips_small_queues():
    sched = Scheduler()
    timers = [sched.call_at(1.0, lambda: None) for _ in range(20)]
    for timer in timers:
        timer.cancel()
    assert sched.queue_compactions == 0
    sched.run()
    assert sched.events_processed == 0


def test_reschedule_counts_are_exported_via_metrics():
    from repro.obs import MetricsRegistry
    sched = Scheduler()
    registry = MetricsRegistry(clock=lambda: sched.now)
    sched.attach_metrics(registry)
    timer = sched.call_at(1.0, lambda: None)
    sched.reschedule(timer, 2.0)
    sched.reschedule_after(timer, 3.0)
    sched.run()
    assert registry.counter("sched.timers.rescheduled").value == 2
    assert registry.counter("sched.queue.compactions").value == 0
