"""The pre-overhaul binary-heap scheduler, preserved as a semantic oracle.

This module is the single-heap kernel that drove the simulation before
the calendar-queue rewrite in :mod:`repro.sim.scheduler`.  It is kept —
verbatim apart from the ``run_until`` parity fixes and the ``post`` /
``call_every`` additions mirrored in the new kernel — for two reasons:

* **Differential testing.**  ``tests/test_scheduler_differential.py``
  replays every golden scenario and hundreds of Hypothesis-generated
  timer programs on this kernel and the new one side by side and
  requires identical ``(time, tiebreak)`` firing orders.  A reference
  implementation whose behaviour is pinned by years of tests is a far
  stronger oracle than a re-derived model.
* **The race detector.**  :class:`repro.analysis.race.RaceScheduler`
  reorders same-time cohorts by reaching into the heap representation
  (``_queue`` entries, ``Timer._key``, ``_pop_stale``).  It subclasses
  this kernel, whose layout is frozen, rather than chasing the
  performance kernel's internals.

The semantics contract shared with :class:`repro.sim.scheduler.Scheduler`:
events fire in ``(time, tiebreak)`` order with the tiebreak drawn at
scheduling (or reschedule/rearm) time; ``reschedule`` to a later time is
lazy (the stale heap entry re-pushes the authoritative key when it
surfaces); cancelled entries are dropped at pop time and compacted away
when they outnumber half the queue.  Any observable divergence between
the two kernels is a bug in one of them.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError

# Compaction only pays for itself once the queue is non-trivial.
_COMPACT_MIN_QUEUE = 64


class ReferenceTimer:
    """Handle for a scheduled callback; cancellable until it fires.

    ``_key`` is the authoritative ``(time, tiebreak)`` position of the
    timer; ``_queued_key`` is the key of the newest heap entry pushed
    for it.  The two differ only while a lazy ``reschedule`` to a later
    time is pending, in which case the stale entry re-pushes the timer
    at ``_key`` when it surfaces.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "fired",
                 "_key", "_queued_key", "_sched")

    def __init__(self, time: float, fn: Callable[..., Any], args: Tuple[Any, ...]):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._key: Tuple[float, int] = (time, -1)
        self._queued_key: Tuple[float, int] = self._key
        self._sched: Optional["ReferenceScheduler"] = None

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sched is not None:
            self._sched._note_cancelled()

    @property
    def active(self) -> bool:
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<ReferenceTimer t={self.time:.6f} {name} {state}>"


class ReferenceScheduler:
    """Single binary-heap event loop with deterministic same-time ordering."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, ReferenceTimer]] = []
        self._tiebreak = itertools.count()
        self._events_processed = 0
        self._running = False
        self._cancelled_in_queue = 0
        self.timers_rescheduled = 0
        self.queue_compactions = 0
        self.batched_posted = 0
        self._m_rescheduled = None  # optional repro.obs counters
        self._m_compactions = None

    def attach_metrics(self, registry) -> None:
        """Export reschedule/compaction counts through a metrics registry."""
        self._m_rescheduled = registry.counter("sched.timers.rescheduled")
        self._m_compactions = registry.counter("sched.queue.compactions")
        registry.counter_fn("sched.post.batched",
                            lambda: self.batched_posted)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> ReferenceTimer:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        timer = ReferenceTimer(time, fn, args)
        timer._sched = self
        key = (time, next(self._tiebreak))
        timer._key = key
        timer._queued_key = key
        heapq.heappush(self._queue, (key[0], key[1], timer))
        return timer

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> ReferenceTimer:
        """Schedule ``fn(*args)`` after a relative ``delay`` (>= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        timer = ReferenceTimer(time, fn, args)
        timer._sched = self
        key = (time, next(self._tiebreak))
        timer._key = key
        timer._queued_key = key
        heapq.heappush(self._queue, (time, key[1], timer))
        return timer

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> ReferenceTimer:
        """Schedule ``fn(*args)`` at the current time (after pending events)."""
        return self.call_at(self.now, fn, *args)

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget ``call_after``: no handle is returned.

        Semantically identical to ``call_after`` (one tiebreak is drawn
        here) minus the ability to cancel or reschedule.  The reference
        kernel still allocates a timer; the performance kernel skips the
        allocation entirely, which is the point of the API.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        timer = ReferenceTimer(time, fn, args)
        timer._sched = self
        key = (time, next(self._tiebreak))
        timer._key = key
        timer._queued_key = key
        heapq.heappush(self._queue, (time, key[1], timer))

    def post_batch(self, delay: float, fn: Callable[..., Any],
                   argss: List[tuple]) -> None:
        """Same-time-cohort bulk push: one ``post`` per ``args``.

        The reference kernel has no bulk fast path — this shim exists so
        the differential harness can replay ``post_batch`` programs on
        both kernels and prove the batch is semantically a loop.
        """
        if not isinstance(argss, (list, tuple)):
            argss = list(argss)
        self.batched_posted += len(argss)
        for args in argss:
            self.post(delay, fn, *args)

    def call_every(self, interval: float, fn: Callable[..., Any],
                   *args: Any) -> ReferenceTimer:
        """Schedule ``fn(*args)`` every ``interval`` until cancelled.

        The first firing is at ``now + interval``.  Each firing re-arms
        the timer *before* running ``fn`` — drawing exactly one fresh
        tiebreak per period, like the chained-``call_after`` idiom it
        replaces — so anything ``fn`` itself schedules sorts after the
        next period's slot.  Cancel the returned handle to stop.
        """
        if interval <= 0:
            raise SimulationError(
                f"call_every requires a positive interval, got {interval}")

        def tick() -> None:
            self._rearm_after(timer, interval)
            if args:
                fn(*args)
            else:
                fn()

        timer = self.call_after(interval, tick)
        return timer

    def reschedule(self, timer: ReferenceTimer, time: float) -> ReferenceTimer:
        """Move a pending timer to absolute ``time`` without re-allocating.

        Exactly equivalent — including same-time ordering — to
        ``timer.cancel()`` followed by ``call_at(time, timer.fn,
        *timer.args)``.  Moves to a later time are lazy: the stale heap
        entry re-pushes the authoritative key when it surfaces.
        """
        if not timer.active:
            raise SimulationError(f"cannot reschedule inactive timer {timer!r}")
        if timer._sched is not self:
            raise SimulationError("timer belongs to a different scheduler")
        if time < self.now:
            raise SimulationError(
                f"cannot reschedule event to t={time} before now={self.now}"
            )
        timer.time = time
        timer._key = (time, next(self._tiebreak))
        if time < timer._queued_key[0]:
            timer._queued_key = timer._key
            heapq.heappush(self._queue, (time, timer._key[1], timer))
        self.timers_rescheduled += 1
        if self._m_rescheduled is not None:
            self._m_rescheduled.inc()
        return timer

    def reschedule_after(self, timer: ReferenceTimer, delay: float) -> ReferenceTimer:
        """Move a pending timer to ``now + delay``; see ``reschedule``."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        if timer.cancelled or timer.fired:
            raise SimulationError(f"cannot reschedule inactive timer {timer!r}")
        if timer._sched is not self:
            raise SimulationError("timer belongs to a different scheduler")
        time = self.now + delay
        timer.time = time
        timer._key = (time, next(self._tiebreak))
        if time < timer._queued_key[0]:
            timer._queued_key = timer._key
            heapq.heappush(self._queue, (time, timer._key[1], timer))
        self.timers_rescheduled += 1
        if self._m_rescheduled is not None:
            self._m_rescheduled.inc()
        return timer

    def _rearm_after(self, timer: ReferenceTimer, delay: float) -> ReferenceTimer:
        """Re-schedule a timer that has already *fired*, reusing the object."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        if timer.cancelled or not timer.fired:
            raise SimulationError(f"can only rearm a fired timer, got {timer!r}")
        if timer._sched is not self:
            raise SimulationError("timer belongs to a different scheduler")
        timer.fired = False
        time = self.now + delay
        timer.time = time
        key = (time, next(self._tiebreak))
        timer._key = key
        timer._queued_key = key
        heapq.heappush(self._queue, (time, key[1], timer))
        return timer

    # ------------------------------------------------------------------
    # Queue hygiene
    # ------------------------------------------------------------------

    def _note_cancelled(self) -> None:
        self._cancelled_in_queue += 1
        if (len(self._queue) >= _COMPACT_MIN_QUEUE
                and self._cancelled_in_queue > len(self._queue) // 2):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled/duplicate entries and normalise pending lazy
        reschedules to their authoritative keys, in one heapify."""
        live: List[Tuple[float, int, ReferenceTimer]] = []
        for time, tiebreak, timer in self._queue:
            if not timer.active:
                continue
            if (time, tiebreak) != timer._queued_key:
                continue  # superseded duplicate from an earlier-move push
            key = timer._key
            timer._queued_key = key
            live.append((key[0], key[1], timer))
        heapq.heapify(live)
        self._queue = live
        self._cancelled_in_queue = 0
        self.queue_compactions += 1
        if self._m_compactions is not None:
            self._m_compactions.inc()

    def _pop_stale(self, time: float, tiebreak: int, timer: ReferenceTimer) -> None:
        """Bookkeeping for a popped garbage entry (cancelled, superseded,
        or lazily rescheduled)."""
        if timer.cancelled:
            if self._cancelled_in_queue:
                self._cancelled_in_queue -= 1
            return
        if (time, tiebreak) == timer._queued_key:
            key = timer._key
            timer._queued_key = key
            heapq.heappush(self._queue, (key[0], key[1], timer))

    # ------------------------------------------------------------------
    # Driving the loop
    # ------------------------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Number of queued events, including cancelled ones not yet popped."""
        return len(self._queue)

    @property
    def stale_entries(self) -> int:
        """Cancelled entries still sitting in the queue."""
        return self._cancelled_in_queue

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        while self._queue:
            time, tiebreak, timer = heapq.heappop(self._queue)
            if timer.cancelled or (time, tiebreak) != timer._key:
                self._pop_stale(time, tiebreak, timer)
                continue
            self.now = time
            timer.fired = True
            self._events_processed += 1
            timer.fn(*timer.args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 10_000_000,
    ) -> int:
        """Run events until quiescence, ``until`` time, or ``max_events``."""
        if self._running:
            raise SimulationError("scheduler re-entered: run() called from an event")
        self._running = True
        processed = 0
        heappop = heapq.heappop
        try:
            # NOTE: self._queue is re-read every iteration on purpose —
            # a compaction triggered inside an event handler rebinds it.
            while self._queue and processed < max_events:
                time, tiebreak, timer = self._queue[0]
                if until is not None and time > until:
                    break
                heappop(self._queue)
                if timer.cancelled or (time, tiebreak) != timer._key:
                    self._pop_stale(time, tiebreak, timer)
                    continue
                self.now = time
                timer.fired = True
                self._events_processed += 1
                processed += 1
                timer.fn(*timer.args)
            if processed >= max_events:
                raise SimulationError(
                    f"event budget exhausted ({max_events} events): likely a livelock"
                )
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        return processed

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float = 60.0,
        max_events: int = 10_000_000,
    ) -> None:
        """Run until ``predicate()`` is true; raise on simulated timeout.

        Mirrors ``run`` exactly (the historical drift is fixed in both
        kernels): re-entry from an event handler raises instead of
        corrupting the loop; the deadline is checked against the *peeked*
        head so a timeout leaves the due event queued rather than
        silently consuming it; and the event budget raises the moment it
        is fully spent, exactly as ``run(max_events=N)`` does after its
        N-th event.
        """
        if self._running:
            raise SimulationError(
                "scheduler re-entered: run_until() called from an event")
        self._running = True
        processed = 0
        deadline = self.now + timeout
        heappop = heapq.heappop
        try:
            while not predicate():
                queue = self._queue
                if not queue:
                    raise SimulationError(
                        "simulation quiesced before condition became true"
                    )
                time, tiebreak, timer = queue[0]
                if timer.cancelled or (time, tiebreak) != timer._key:
                    heappop(queue)
                    self._pop_stale(time, tiebreak, timer)
                    continue
                if time > deadline:
                    raise SimulationError(
                        f"condition not reached within {timeout}s of simulated time"
                    )
                heappop(queue)
                self.now = time
                timer.fired = True
                self._events_processed += 1
                processed += 1
                timer.fn(*timer.args)
                if processed >= max_events:
                    raise SimulationError(
                        f"event budget exhausted in run_until "
                        f"({max_events} events)")
        finally:
            self._running = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ReferenceScheduler now={self.now:.6f} queued={len(self._queue)}>"
