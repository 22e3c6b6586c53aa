"""Resource-leak audit: declared floors for every stateful collection.

The paper's section 3.4/3.5 analysis is entirely about what per-client
state a gateway must hold and *when it may be discarded*; a gateway
that acquires that state correctly but never reclaims it cannot serve
sustained load.  This module turns the reclamation contract into a
checkable artifact: every stateful collection in a world — the
gateway's pending/cache/cancelled/routing tables, the duplicate
suppressor's expectation and delivered-memory maps, the Replication
Mechanisms' invocation logs, the scheduler's event queue — registers
itself with the world's :class:`AuditScope` together with a **declared
floor**: the size it is allowed to have once the scenario has reached
quiescence.  ``world.audit()`` snapshots every registered collection,
publishes the sizes as ``*.state.*`` gauges in the world's metrics
registry, and reports every collection sitting above its floor as a
leak.

Floors are *declared*, not inferred: a response cache is allowed its
configured capacity, the delivered-memory its remember window, an RM
log one checkpoint interval of suffix — anything beyond the declaration
is state someone forgot to reclaim.  Registrations carry an ``active``
predicate so collections owned by crashed or stopped processes (whose
state is frozen, exactly as a dead processor's memory would be) are
excluded from the check.

The gauges are created lazily, on the first ``audit()`` call, so
worlds that never audit produce byte-identical metrics snapshots to
pre-audit builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Union

from ..errors import AuditError

SizeFn = Callable[[], int]
FloorFn = Callable[[], int]
ActiveFn = Callable[[], bool]


@dataclass
class AuditEntry:
    """One registered stateful collection and its reclamation contract."""

    name: str                      # collection name, e.g. "gateway.routing"
    owner: str                     # owning component, e.g. "gateway@dom-gw0:2809"
    size_fn: SizeFn
    floor_fn: Optional[FloorFn]    # None: snapshot-only, never a violation
    active_fn: ActiveFn
    gauge: Optional[str] = None    # metrics gauge fed by this entry's size


@dataclass
class AuditRow:
    """One entry's measurement at audit time."""

    name: str
    owner: str
    size: int
    floor: Optional[int]           # None: snapshot-only entry
    active: bool

    @property
    def ok(self) -> bool:
        return (not self.active or self.floor is None
                or self.size <= self.floor)

    def describe(self) -> str:
        floor = "-" if self.floor is None else str(self.floor)
        state = "ok" if self.ok else "LEAK"
        if not self.active:
            state = "skipped (inactive)"
        return (f"{self.name:<28} {self.owner:<28} size={self.size:<8} "
                f"floor={floor:<8} {state}")


class AuditReport:
    """The outcome of one ``AuditScope.audit()`` pass."""

    def __init__(self, rows: List[AuditRow], at: float) -> None:
        self.rows = rows
        self.at = at

    @property
    def violations(self) -> List[AuditRow]:
        return [row for row in self.rows if not row.ok]

    @property
    def ok(self) -> bool:
        return not self.violations

    def assert_clean(self) -> "AuditReport":
        """Raise :class:`~repro.errors.AuditError` on any leak."""
        bad = self.violations
        if bad:
            detail = "; ".join(
                f"{row.owner}/{row.name} size={row.size} > floor={row.floor}"
                for row in bad)
            raise AuditError(
                f"{len(bad)} collection(s) above declared floor at "
                f"t={self.at:.6f}: {detail}")
        return self

    def render(self) -> str:
        lines = [f"resource audit at t={self.at:.6f}: "
                 f"{len(self.rows)} collections, "
                 f"{len(self.violations)} leak(s)"]
        lines.extend(row.describe() for row in self.rows)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class AuditScope:
    """Registry of stateful collections with declared quiescence floors.

    One scope per :class:`~repro.sim.world.World` (``world.audit_scope``),
    shared the same way the metrics registry is: components register
    their collections at construction and the scope outlives them (dead
    owners are skipped via their ``active`` predicate, mirroring a
    crashed processor's frozen memory).
    """

    def __init__(self, metrics: Any = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self._metrics = metrics
        self._clock = clock or (lambda: 0.0)
        self._entries: List[AuditEntry] = []

    def register(self, name: str, size_fn: SizeFn,
                 floor: Union[int, FloorFn, None] = 0,
                 owner: str = "", active: Optional[ActiveFn] = None,
                 gauge: Optional[str] = None) -> AuditEntry:
        """Register one collection.

        ``floor`` is the size the collection may legitimately hold at
        quiescence: an int, a callable for floors that depend on live
        state (open connections, configured capacities), or None for
        snapshot-only entries that feed gauges but are never leaks.
        """
        if isinstance(floor, int):
            floor_value = floor
            floor_fn: Optional[FloorFn] = lambda: floor_value
        else:
            floor_fn = floor
        entry = AuditEntry(name=name, owner=owner, size_fn=size_fn,
                           floor_fn=floor_fn,
                           active_fn=active or (lambda: True),
                           gauge=gauge)
        self._entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def audit(self) -> AuditReport:
        """Snapshot every registered collection and check floors.

        Gauge series named by registrations are summed over *active*
        entries and published to the metrics registry (created on first
        audit, so never-audited worlds keep pre-audit snapshots).
        """
        rows: List[AuditRow] = []
        gauge_totals: Dict[str, int] = {}
        for entry in self._entries:
            active = bool(entry.active_fn())
            size = int(entry.size_fn())
            floor = (None if entry.floor_fn is None
                     else int(entry.floor_fn()))
            rows.append(AuditRow(name=entry.name, owner=entry.owner,
                                 size=size, floor=floor, active=active))
            if entry.gauge is not None and active:
                gauge_totals[entry.gauge] = (
                    gauge_totals.get(entry.gauge, 0) + size)
        if self._metrics is not None:
            for gauge_name, total in sorted(gauge_totals.items()):
                self._metrics.gauge(gauge_name).set(total)
        return AuditReport(rows, at=self._clock())
