"""Simulated hosts (processors) and the processes that run on them.

A :class:`Host` models one processor in Figure 1 of the paper (the
``Pi`` boxes).  Hosts can crash and later recover; crashing a host stops
every process on it and tears down its transport endpoints.  Processes
register with their host so that failure propagation is automatic.

:class:`Process` is the base class for every active component in the
reproduction (Totem members, Replication Mechanisms, gateways, client
ORBs).  It provides failure-aware timers: a timer scheduled through a
process is silently suppressed if the process has been stopped or its
host has crashed by the time the timer fires, which is exactly the
semantics a real crashed processor exhibits.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, List, TYPE_CHECKING

from ..errors import ConfigurationError
from .scheduler import Scheduler, Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network


class Host:
    """A processor that can run processes, crash, and recover."""

    def __init__(self, name: str, scheduler: Scheduler, network: "Network") -> None:
        self.name = name
        self.scheduler = scheduler
        self.network = network
        self.alive = True
        self.processes: List["Process"] = []
        self.crash_count = 0
        # Simulated time of the most recent crash; failure detection and
        # recovery metrics measure from this instant.
        self.last_crash_at: Any = None
        self._crash_listeners: List[Callable[["Host"], None]] = []
        self._recovery_listeners: List[Callable[["Host"], None]] = []
        self._serials = itertools.count(1)

    def next_serial(self) -> int:
        """A number never handed out before on this host (as a pid is):
        a pure function of what the seeded world built here, never of
        what else the Python process built before it."""
        return next(self._serials)

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------

    def attach(self, process: "Process") -> None:
        if process not in self.processes:
            self.processes.append(process)

    def detach(self, process: "Process") -> None:
        if process in self.processes:
            self.processes.remove(process)

    # ------------------------------------------------------------------
    # Failure model
    # ------------------------------------------------------------------

    def on_crash(self, fn: Callable[["Host"], None]) -> None:
        """Register a callback invoked when this host crashes."""
        self._crash_listeners.append(fn)

    def on_recovery(self, fn: Callable[["Host"], None]) -> None:
        """Register a callback invoked when this host recovers."""
        self._recovery_listeners.append(fn)

    def crash(self) -> None:
        """Fail-stop this host: kill processes, break connections."""
        if not self.alive:
            return
        self.alive = False
        self.crash_count += 1
        self.last_crash_at = self.scheduler.now
        for process in list(self.processes):
            process.handle_host_crash()
        self.network.host_crashed(self)
        for fn in list(self._crash_listeners):
            fn(self)

    def recover(self) -> None:
        """Bring the host back; processes are NOT restarted automatically.

        Recovery of the software (new replicas, rejoining rings) is the
        job of the fault tolerance infrastructure, mirroring the paper's
        separation between processor recovery and replica recovery.
        """
        if self.alive:
            return
        self.alive = True
        self.network.host_recovered(self)
        for fn in list(self._recovery_listeners):
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "DOWN"
        return f"<Host {self.name} {state} procs={len(self.processes)}>"


class Process:
    """Base class for an active component running on a host.

    Subclasses override :meth:`handle_start` and :meth:`handle_stop`.
    Timers created via :meth:`after` are automatically ignored when the
    process is no longer running, so crashed components never act.
    """

    def __init__(self, host: Host, name: str) -> None:
        self.host = host
        self.name = name
        self.running = False
        self._timers: List[Timer] = []
        host.attach(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def scheduler(self) -> Scheduler:
        return self.host.scheduler

    @property
    def metrics(self):
        """The world-shared :class:`~repro.obs.MetricsRegistry`."""
        return self.host.network.metrics

    @property
    def audit(self):
        """The world-shared :class:`~repro.obs.AuditScope`."""
        return self.host.network.audit

    @property
    def spans(self):
        """The world-shared :class:`~repro.obs.TraceCollector`."""
        return self.host.network.spans

    @property
    def flight(self):
        """The world-shared :class:`~repro.obs.FlightRecorder`."""
        return self.host.network.flight

    @property
    def alive(self) -> bool:
        """True when the process runs on a live host and was started."""
        return self.running and self.host.alive

    def start(self) -> None:
        if not self.host.alive:
            raise ConfigurationError(
                f"cannot start {self.name}: host {self.host.name} is down"
            )
        if self.running:
            return
        self.running = True
        self.handle_start()

    def stop(self) -> None:
        if not self.running:
            return
        self.running = False
        self._cancel_timers()
        self.handle_stop()

    def handle_start(self) -> None:
        """Subclass hook: the process has been started."""

    def handle_stop(self) -> None:
        """Subclass hook: the process has been stopped (or its host died)."""

    def handle_host_crash(self) -> None:
        """Called by the host when it crashes; default stops the process."""
        if self.running:
            self.running = False
            self._cancel_timers()
            self.handle_stop()
        self.host.detach(self)

    # ------------------------------------------------------------------
    # Failure-aware timers
    # ------------------------------------------------------------------

    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``fn`` after ``delay``; suppressed if process stops."""
        timer = self.host.scheduler.call_after(delay, self._guarded, fn, *args)
        self._timers.append(timer)
        if len(self._timers) > 64:
            self._timers = [t for t in self._timers if t.active]
        return timer

    def _guarded(self, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn`` only while the process is alive (timer trampoline)."""
        if self.running and self.host.alive:
            fn(*args)

    def soon(self, fn: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``fn`` at the current time, process-guarded."""
        return self.after(0.0, fn, *args)

    def reschedule_after(self, timer: Timer, delay: float,
                         fn: Callable[..., Any], *args: Any) -> Timer:
        """Reset a recurring timer: move it in place when still pending,
        or schedule a fresh guarded timer otherwise.

        Equivalent to ``timer.cancel()`` followed by ``after(delay, fn,
        *args)`` — including same-time event ordering — but reuses the
        existing heap entry and guard closure on the hot path.  Only
        valid when ``fn``/``args`` match what the pending timer was
        created with.
        """
        if timer is not None and not timer.cancelled and not timer.fired:
            return self.host.scheduler.reschedule_after(timer, delay)
        return self.after(delay, fn, *args)

    def _cancel_timers(self) -> None:
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} {self.name}@{self.host.name}>"
