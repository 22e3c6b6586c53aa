"""Deterministic discrete-event scheduler (one binary heap).

Every moving part of the reproduction — simulated TCP, Totem token
rotation, replica execution, crash/recovery fault injection — runs on a
single instance of :class:`Scheduler`.  Events scheduled for the same
simulated time fire in the order they were scheduled (a monotonically
increasing tie-break counter), which makes every run exactly
reproducible for a given seed and script of events.

The queue is one ``heapq`` of plain tuple entries ``(time, tiebreak,
timer_or_None, fn, args)``; the tiebreak is unique, so ordering never
compares past it.  ``post`` schedules fire-and-forget events (network
datagram deliveries) with **no** Timer object at all, and
``call_every`` timers are re-armed by the loop itself.  A Timer's entry
is live iff its tiebreak equals ``Timer._tb``: cancelled, superseded
and lazily rescheduled entries are dropped (or re-pushed at their
authoritative key) when they surface, and compacted away in place when
cancelled entries outnumber half the queue.

Every event is fired by :meth:`Scheduler._loop`; ``run()``,
``run(until=)``, ``run_until(predicate)`` and ``step()`` are thin
wrappers that pick the loop's budget, time limit and predicate.
Instrumentation stays lazy: ``attach_metrics`` exports plain int
attributes through callback-backed counters, so metrics cost nothing
on the scheduling paths.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError

# Compaction only pays for itself once the queue is non-trivial.
_COMPACT_MIN_QUEUE = 64

# An entry is (time, tiebreak, timer_or_None, fn, args).
_Entry = Tuple[float, int, Optional["Timer"], Callable[..., Any], tuple]

# Why ``Scheduler._loop`` stopped.
_SATISFIED = "predicate"    # the predicate returned true
_QUIESCED = "quiesced"      # nothing live is queued
_TIME_LIMIT = "limit"       # the next live event lies beyond the limit
_BUDGET = "budget"          # the event budget is spent


class Timer:
    """Handle for a scheduled callback; cancellable until it fires.

    ``_tb`` is the authoritative tiebreak of the timer (its queue entry
    is live iff the entry's tiebreak equals it; ``cancel`` poisons it
    to -1 so one int comparison covers cancelled, superseded and lazily
    rescheduled entries alike).  ``_queued_time``/``_queued_tb``
    describe the newest entry actually pushed; they differ from the
    authoritative position only while a lazy ``reschedule`` to a later
    time is pending, in which case the stale entry re-pushes the timer
    at its authoritative key when it surfaces.  ``interval`` is set for
    ``call_every`` timers, which the event loop re-arms in place.
    """

    __slots__ = ("time", "fn", "args", "interval", "cancelled", "fired",
                 "_tb", "_queued_time", "_queued_tb", "_sched")

    def __init__(self, time: float, fn: Callable[..., Any], args: Tuple[Any, ...]):
        self.time = time
        self.fn = fn
        self.args = args
        self.interval: Optional[float] = None
        self.cancelled = False
        self.fired = False
        self._tb = -1
        self._queued_time = time
        self._queued_tb = -1
        self._sched: Optional["Scheduler"] = None

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        self._tb = -1
        if self._sched is not None:
            self._sched._note_cancelled()

    @property
    def active(self) -> bool:
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Timer t={self.time:.6f} {name} {state}>"


class Scheduler:
    """Binary-heap event loop with deterministic same-time ordering."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[_Entry] = []
        self._tiebreak = itertools.count()
        self._events_processed = 0
        self._running = False
        self._cancelled_in_queue = 0
        self.timers_rescheduled = 0
        self.queue_compactions = 0
        self.batched_posted = 0

    def attach_metrics(self, registry) -> None:
        """Export reschedule/compaction counts through a metrics registry.

        Uses callback-backed counters reading the plain int attributes,
        so the scheduling paths never touch a metric object.
        """
        registry.counter_fn("sched.timers.rescheduled",
                            lambda: self.timers_rescheduled)
        registry.counter_fn("sched.queue.compactions",
                            lambda: self.queue_compactions)
        registry.counter_fn("sched.post.batched",
                            lambda: self.batched_posted)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _arm(self, timer: Timer, time: float) -> None:
        """Queue ``timer`` at ``time`` under a freshly drawn tiebreak."""
        tb = next(self._tiebreak)
        timer.time = time
        timer._tb = tb
        timer._queued_time = time
        timer._queued_tb = tb
        heappush(self._queue, (time, tb, timer, timer.fn, timer.args))

    def _new_timer(self, time: float, fn: Callable[..., Any], args: tuple,
                   interval: Optional[float] = None) -> Timer:
        """Create this scheduler's Timer for ``fn(*args)`` and arm it."""
        timer = Timer(time, fn, args)
        timer.interval = interval
        timer._sched = self
        self._arm(timer, time)
        return timer

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        return self._new_timer(time, fn, args)

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` after a relative ``delay`` (>= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self._new_timer(self.now + delay, fn, args)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` at the current time (after pending events)."""
        return self._new_timer(self.now, fn, args)

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget ``call_after``: no Timer, no handle.

        One tiebreak is drawn here, exactly as ``call_after`` would, so
        ordering is identical — only the ability to cancel/reschedule
        (and the per-event allocation) is gone.  This is the datagram
        delivery path: the network never cancels an in-flight packet.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heappush(self._queue,
                 (self.now + delay, next(self._tiebreak), None, fn, args))

    def post_batch(self, delay: float, fn: Callable[..., Any],
                   argss: List[tuple]) -> None:
        """Schedule ``fn(*args)`` for every ``args`` in ``argss``, all at
        ``now + delay`` — the same-time-cohort bulk push.

        Semantically identical to ``for args in argss: post(delay, fn,
        *args)``: each element draws its own consecutive tiebreak, so
        the batch fires in iteration order.  It is still one entry per
        element (broadcast fan-out posts one event per delay group
        instead, see ``Network.broadcast``).
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        if not isinstance(argss, (list, tuple)):
            argss = list(argss)
        self.batched_posted += len(argss)
        time = self.now + delay
        queue = self._queue
        for args, tb in zip(argss, self._tiebreak):
            heappush(queue, (time, tb, None, fn, args))

    def call_every(self, interval: float, fn: Callable[..., Any],
                   *args: Any) -> Timer:
        """Schedule ``fn(*args)`` every ``interval`` until cancelled.

        The first firing is at ``now + interval``.  The event loop
        re-arms the timer *before* running ``fn`` — drawing exactly one
        fresh tiebreak per period, like the chained-``call_after`` idiom
        it replaces.  Cancel the returned handle to stop the series.
        """
        if interval <= 0:
            raise SimulationError(
                f"call_every requires a positive interval, got {interval}")
        return self._new_timer(self.now + interval, fn, args, interval)

    def reschedule(self, timer: Timer, time: float) -> Timer:
        """Move a pending timer to absolute ``time`` without re-allocating.

        Exactly equivalent — including same-time ordering — to
        ``timer.cancel()`` followed by ``call_at(time, timer.fn,
        *timer.args)``: one fresh tie-break is drawn at this moment.
        The entry is only re-pushed immediately when the timer moves
        *earlier*; moves to a later time ride along until the stale
        entry surfaces, which amortises a burst of M reschedules into a
        single extra push.
        """
        if timer.cancelled or timer.fired:
            raise SimulationError(f"cannot reschedule inactive timer {timer!r}")
        if timer._sched is not self:
            raise SimulationError("timer belongs to a different scheduler")
        if time < self.now:
            raise SimulationError(
                f"cannot reschedule event to t={time} before now={self.now}"
            )
        if time < timer._queued_time:
            self._arm(timer, time)
        else:
            timer.time = time
            timer._tb = next(self._tiebreak)
        self.timers_rescheduled += 1
        return timer

    def reschedule_after(self, timer: Timer, delay: float) -> Timer:
        """Move a pending timer to ``now + delay``; see ``reschedule``."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.reschedule(timer, self.now + delay)

    # ------------------------------------------------------------------
    # Queue hygiene
    # ------------------------------------------------------------------

    def _note_cancelled(self) -> None:
        self._cancelled_in_queue += 1
        size = len(self._queue)
        if (size >= _COMPACT_MIN_QUEUE
                and self._cancelled_in_queue > size // 2):
            self._compact()

    def _drop_stale(self, tb: int, timer: Timer) -> None:
        """Bookkeeping for a dead entry (its tiebreak ``tb`` is no longer
        the timer's) leaving the queue."""
        if timer.cancelled:
            if self._cancelled_in_queue:
                self._cancelled_in_queue -= 1
        elif tb == timer._queued_tb:
            # The entry carrying a lazily rescheduled timer surfaced:
            # queue the timer at its authoritative (time, tiebreak) key.
            timer._queued_time = timer.time
            timer._queued_tb = timer._tb
            heappush(self._queue,
                     (timer.time, timer._tb, timer, timer.fn, timer.args))
        # else: superseded duplicate of an earlier-move push.

    def _compact(self) -> None:
        """Drop cancelled/duplicate entries and normalise pending lazy
        reschedules to their authoritative keys.

        The queue is rebuilt *in place*, so a loop holding a local
        binding of it (a compaction triggered inside an event handler)
        keeps reading the live queue.
        """
        queue = self._queue
        stale = [(entry[1], entry[2]) for entry in queue
                 if entry[2] is not None and entry[2]._tb != entry[1]]
        queue[:] = [entry for entry in queue
                    if entry[2] is None or entry[2]._tb == entry[1]]
        heapify(queue)
        for tb, timer in stale:
            self._drop_stale(tb, timer)
        self._cancelled_in_queue = 0
        self.queue_compactions += 1

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

    def _loop(self, budget: int, limit: Optional[float],
              predicate: Optional[Callable[[], bool]]) -> Tuple[int, str]:
        """Fire events in ``(time, tiebreak)`` order — the kernel's only
        event loop.  Returns ``(fired, why)``, ``why`` naming the first
        stop condition met: the ``predicate`` held (it is asked before
        every event), nothing live was queued, the next live event lay
        beyond ``limit`` (it stays queued), or ``budget`` events fired.
        """
        queue = self._queue
        fired = 0
        while fired < budget:
            if predicate is not None and predicate():
                return fired, _SATISFIED
            while True:
                if not queue:
                    return fired, _QUIESCED
                entry = heappop(queue)
                time, tb, timer, fn, args = entry
                if timer is None or timer._tb == tb:
                    break
                self._drop_stale(tb, timer)
            if limit is not None and time > limit:
                heappush(queue, entry)
                return fired, _TIME_LIMIT
            self.now = time
            if timer is not None:
                if timer.interval is None:
                    timer.fired = True
                else:
                    # Periodic: re-arm (fresh tiebreak) before firing.
                    self._arm(timer, time + timer.interval)
            self._events_processed += 1
            fired += 1
            if args:
                fn(*args)
            else:
                fn()
        return fired, _BUDGET

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        return self._loop(1, None, None)[0] == 1

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 10_000_000,
    ) -> int:
        """Run events until quiescence, ``until`` time, or ``max_events``.

        Returns the number of events processed by this call.  When
        ``until`` is given the clock is advanced to ``until`` even if the
        queue drains earlier, so follow-up ``call_after`` calls measure
        from the bound.
        """
        if self._running:
            raise SimulationError("scheduler re-entered: run() called from an event")
        self._running = True
        try:
            processed, _ = self._loop(max_events, until, None)
        finally:
            self._running = False
        if processed >= max_events:
            raise SimulationError(
                f"event budget exhausted ({max_events} events): likely a livelock"
            )
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

        Mirrors ``run`` exactly: re-entry from an event handler raises
        instead of corrupting the loop; the deadline is checked against
        the next live event so a timeout leaves it queued rather than
        silently consuming it; and the event budget raises the moment it
        is fully spent, exactly as ``run(max_events=N)`` does after its
        N-th event.
        """
        if self._running:
            raise SimulationError(
                "scheduler re-entered: run_until() called from an event")
        self._running = True
        try:
            _, why = self._loop(max_events, self.now + timeout, predicate)
        finally:
            self._running = False
        if why == _QUIESCED:
            raise SimulationError(
                "simulation quiesced before condition became true")
        if why == _TIME_LIMIT:
            raise SimulationError(
                f"condition not reached within {timeout}s of simulated time")
        if why == _BUDGET:
            raise SimulationError(
                f"event budget exhausted in run_until ({max_events} events)")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Scheduler now={self.now:.6f} queued={self.pending_events}>"
