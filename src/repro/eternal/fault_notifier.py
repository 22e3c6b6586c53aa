"""The Fault Notifier: a structured stream of fault reports.

FT-CORBA pairs its FaultDetectors with a Fault Notifier that fans fault
reports out to interested consumers (the Replication Manager being the
primary one).  This reproduction's equivalent collects every fault-
relevant event in one place — ring membership changes (who left, who
joined), replica removals (both crash-pruned and health-detected),
groups dropping below their minimum and back — as typed records that
operational tooling and tests can subscribe to or query.

It reports what the ring reports: a processor crash is news only once
a membership change excludes it, and the group checks run at the two
points where a processor's view can change — a membership install and
a delivery that changes the directory.

The notifier is an *observer*: it never changes system behaviour, so it
can be attached to any domain without perturbing the experiments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .domain import FaultToleranceDomain


class FaultKind(enum.Enum):
    MEMBERSHIP_CHANGED = "membership_changed"
    REPLICA_REMOVED = "replica_removed"
    GROUP_DEGRADED = "group_degraded"        # below its minimum replicas
    GROUP_RESTORED = "group_restored"        # back at/above its minimum


@dataclass(frozen=True)
class FaultReport:
    time: float
    kind: FaultKind
    subject: str                              # domain or group name
    detail: Dict[str, Any] = field(default_factory=dict)


class FaultNotifier:
    """Per-domain collector/distributor of :class:`FaultReport`s."""

    def __init__(self, domain: "FaultToleranceDomain") -> None:
        self.domain = domain
        self.reports: List[FaultReport] = []
        self._consumers: List[Callable[[FaultReport], None]] = []
        self._degraded: set = set()
        self._placements: Dict[int, set] = {}
        # Observe through whichever RM survives; seed the baseline from
        # the current view so the first change after attachment reports
        # a correct joined/left diff.
        for rm in domain.rms.values():
            rm.on_membership_change(self._on_membership)
            rm.on_directory_change(lambda msg: self._check_group_health())
        try:
            self._last_members = tuple(sorted(
                domain.coordinator_rm().live_hosts))
        except ConfigurationError:      # no live host yet
            self._last_members = ()

    # ------------------------------------------------------------------
    # Subscription and queries
    # ------------------------------------------------------------------

    def subscribe(self, consumer: Callable[[FaultReport], None]) -> None:
        """Register a push consumer for future fault reports."""
        self._consumers.append(consumer)

    def history(self, kind: Optional[FaultKind] = None) -> List[FaultReport]:
        if kind is None:
            return list(self.reports)
        return [r for r in self.reports if r.kind is kind]

    # ------------------------------------------------------------------
    # Event sources
    # ------------------------------------------------------------------

    def _emit(self, kind: FaultKind, subject: str, **detail: Any) -> None:
        report = FaultReport(time=self.domain.world.now, kind=kind,
                             subject=subject, detail=detail)
        self.reports.append(report)
        for consumer in list(self._consumers):
            consumer(report)

    def _on_membership(self, live_hosts: Tuple[str, ...]) -> None:
        members = tuple(sorted(live_hosts))
        if members != self._last_members:
            previous, self._last_members = self._last_members, members
            self._emit(FaultKind.MEMBERSHIP_CHANGED, self.domain.name,
                       members=list(members),
                       joined=sorted(set(members) - set(previous)),
                       left=sorted(set(previous) - set(members)))
        self._check_group_health()

    def _check_group_health(self) -> None:
        try:
            rm = self.domain.coordinator_rm()
        except ConfigurationError:
            # No live host: the check waits for the next membership event.
            return
        live = set(rm.live_hosts)
        for info in rm.registry.all_groups():
            if not info.factory_name:
                continue
            # Placement shrinkage = replicas lost (crash-pruned or
            # removed by a fault detector).
            previous_placement = self._placements.get(info.group_id)
            current_placement = set(info.placement)
            if previous_placement is not None:
                for host_name in sorted(previous_placement
                                        - current_placement):
                    self._emit(FaultKind.REPLICA_REMOVED, info.name,
                               host=host_name)
            self._placements[info.group_id] = current_placement
            alive = sum(1 for h in info.placement if h in live)
            degraded = alive < info.min_replicas
            if degraded and info.group_id not in self._degraded:
                self._degraded.add(info.group_id)
                self._emit(FaultKind.GROUP_DEGRADED, info.name,
                           alive=alive, minimum=info.min_replicas)
            elif not degraded and info.group_id in self._degraded:
                self._degraded.discard(info.group_id)
                self._emit(FaultKind.GROUP_RESTORED, info.name,
                           alive=alive, minimum=info.min_replicas)
