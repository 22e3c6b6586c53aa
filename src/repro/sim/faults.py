"""Fault injection: scripted crashes, recoveries, and partitions.

Failure scenarios in the paper (gateway crash in section 3.4, gateway
failover in section 3.5, replica failure in section 2.2) are driven
through a :class:`FaultInjector`, which schedules fail-stop crashes and
recoveries on the shared scheduler so that tests and benchmarks can
reproduce an exact interleaving.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple, TYPE_CHECKING

from .network import Network
from .scheduler import Scheduler, Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.flight import FlightRecorder


# ``FaultInjector.stats`` key (the action) -> its world counter.
_STATS = {
    "crash": "fault.injected.crash",
    "recover": "fault.injected.recover",
    "partition": "fault.injected.partition",
    "heal": "fault.injected.heal",
}


class FaultInjector:
    """Schedules host crashes/recoveries and network partitions."""

    def __init__(self, scheduler: Scheduler, network: Network,
                 flight: Optional["FlightRecorder"] = None) -> None:
        self.scheduler = scheduler
        self.network = network
        self.injected: List[Tuple[float, str, str]] = []
        self.stats = dict.fromkeys(_STATS, 0)
        network.metrics.register_stats(self.stats, _STATS)
        self.flight = flight

    def _record(self, action: str, target: str) -> None:
        self.injected.append((self.scheduler.now, action, target))
        self.stats[action] += 1
        flight = self.flight
        if flight is not None and flight.enabled:
            flight.record("flight.fault", action=action, target=target)

    def crash_host(self, host_name: str, at: float) -> Timer:
        """Fail-stop ``host_name`` at absolute simulated time ``at``."""

        def do_crash() -> None:
            self._record("crash", host_name)
            self.network.host(host_name).crash()

        return self.scheduler.call_at(at, do_crash)

    def recover_host(self, host_name: str, at: float) -> Timer:
        """Recover ``host_name`` at absolute simulated time ``at``."""

        def do_recover() -> None:
            self._record("recover", host_name)
            self.network.host(host_name).recover()

        return self.scheduler.call_at(at, do_recover)

    def crash_now(self, host_name: str) -> None:
        self._record("crash", host_name)
        self.network.host(host_name).crash()

    def recover_now(self, host_name: str) -> None:
        self._record("recover", host_name)
        self.network.host(host_name).recover()

    def partition(self, side_a: Iterable[str], side_b: Iterable[str],
                  at: float, heal_at: float) -> None:
        """Partition two host sets during [at, heal_at)."""
        a: Set[str] = set(side_a)
        b: Set[str] = set(side_b)

        def install() -> None:
            self._record("partition", f"{sorted(a)}|{sorted(b)}")
            self.network.partition(a, b)

        def heal() -> None:
            self._record("heal", "")
            self.network.heal_partitions()

        self.scheduler.call_at(at, install)
        self.scheduler.call_at(heal_at, heal)
