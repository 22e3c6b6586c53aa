"""Pull-style replica fault detection (the FT-CORBA FaultDetector).

Totem's membership protocol detects *processor* crashes, but a replica
can also fail while its processor stays up — a wedged servant, a
corrupted invariant.  The FT-CORBA architecture (which grew out of this
paper's system) monitors objects with FaultDetectors that periodically
ping them; here, each processor's detector invokes the optional
``health_check()`` method on every local replica.

A replica whose health check raises or returns ``False`` is declared
faulty: the detector multicasts the idempotent REMOVE_REPLICA control
message, every processor drops the replica from the group's placement
at the same point in the total order, and the Resource Manager then
restores the replication degree elsewhere — with state transferred from
a healthy replica, not the faulty one.

Servants without a ``health_check`` method are not monitored (crash
faults still covered by membership): the probe is armed only while a
local replica has one, and re-armed when a delivery changes the
directory (a replica made or replaced here).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .messages import DomainMessage, MsgKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .replication import ReplicationMechanisms

# ``FaultDetector.stats`` key -> the world counter that sums it over
# every processor's detector.
_STATS = {
    "probes": "fault.detector.probes",
    "faults_detected": "fault.detector.faults",
}

# Seconds between two probes of the local replicas.
PROBE_INTERVAL = 0.5


class FaultDetector:
    """Per-processor health monitor over the local replicas."""

    def __init__(self, rm: "ReplicationMechanisms") -> None:
        self.rm = rm
        self.stats = dict.fromkeys(_STATS, 0)
        rm.metrics.register_stats(self.stats, _STATS)
        # group id -> id() of the servant we reported faulty: a freshly
        # created replacement replica (new servant object) re-arms
        # monitoring for the group.
        self._reported: dict = {}
        self._probe = None
        rm.on_directory_change(lambda msg: self._arm())

    def _arm(self) -> None:
        """Probe in one interval, unless a probe is due already or no
        local replica has a health check."""
        if self._probe is not None and self._probe.active:
            return
        if any(hasattr(record.servant, "health_check")
               for record in self.rm.replicas.values()):
            self._probe = self.rm.after(PROBE_INTERVAL, self._tick)

    def _tick(self) -> None:
        for group_id, record in list(self.rm.replicas.items()):
            if not record.ready:
                continue
            # reprolint: disable=DET004 -- local replica identity, never serialized
            if self._reported.get(group_id) not in (None, id(record.servant)):
                del self._reported[group_id]  # fresh replica: re-arm
            check = getattr(record.servant, "health_check", None)
            if check is None:
                continue
            self.stats["probes"] += 1
            try:
                healthy = check()
            except Exception:
                healthy = False
            if healthy is False:
                self._report_fault(group_id, record.servant)
        self._arm()

    def _report_fault(self, group_id: int, servant) -> None:
        if group_id in self._reported:
            return  # already reported; the removal is in flight
        # reprolint: disable=DET004 -- local replica identity, never serialized
        self._reported[group_id] = id(servant)
        self.stats["faults_detected"] += 1
        fl = self.rm.flight
        if fl.enabled:
            fl.record("flight.eviction", host=self.rm.host.name,
                      group=group_id)
        self.rm.multicast(DomainMessage(
            kind=MsgKind.REMOVE_REPLICA, source_group=0, target_group=0,
            data={"group_id": group_id, "host": self.rm.host.name},
        ))
