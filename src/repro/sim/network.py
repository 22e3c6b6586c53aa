"""Simulated network: latency model, partitions, datagram delivery.

The network delivers *datagrams* between hosts after a configurable
latency.  Reliability within a live, unpartitioned pair of hosts is
guaranteed and ordering per (source, destination) pair is FIFO — the
same assumptions Totem makes of its LAN and TCP makes of its path.
Loss happens only through host crashes and explicit partitions, which
is the paper's fault model (fail-stop processors, no Byzantine links).

Latency defaults are asymmetric-friendly: a :class:`LatencyModel` maps a
host pair to a delay, so wide-area links (Figure 1's New York ↔ Los
Angeles connection) can be orders of magnitude slower than domain-local
LAN hops.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..obs import (AuditScope, FlightRecorder, MetricsRegistry,
                   SeriesRegistry, TraceCollector)
from .host import Host
from .scheduler import Scheduler
from .trace import Tracer

DeliverFn = Callable[[Any], None]


class LatencyModel:
    """Latency lookup for host pairs, with per-pair overrides.

    ``local_latency`` applies between hosts in the same *site* (set via
    ``site_of``); ``wan_latency`` applies otherwise.  Explicit per-pair
    overrides win over both.
    """

    def __init__(self, local_latency: float = 0.0005, wan_latency: float = 0.040):
        self.local_latency = local_latency
        self.wan_latency = wan_latency
        self._site_of: Dict[str, str] = {}
        self._overrides: Dict[FrozenSet[str], float] = {}
        # Resolved (src, dst) -> delay cache; topology edits invalidate
        # it.  Token rotation asks for the same few pairs millions of
        # times, so the frozenset/lookup work is paid once per pair.
        self._cache: Dict[Tuple[str, str], float] = {}

    def set_site(self, host_name: str, site: str) -> None:
        self._site_of[host_name] = site
        self._cache.clear()

    def set_pair(self, a: str, b: str, latency: float) -> None:
        self._overrides[frozenset((a, b))] = latency
        self._cache.clear()

    def latency(self, src: str, dst: str) -> float:
        cached = self._cache.get((src, dst))
        if cached is not None:
            return cached
        delay = self._resolve(src, dst)
        self._cache[(src, dst)] = delay
        return delay

    def _resolve(self, src: str, dst: str) -> float:
        if src == dst:
            return self.local_latency / 10.0
        override = self._overrides.get(frozenset((src, dst)))
        if override is not None:
            return override
        site_a = self._site_of.get(src)
        site_b = self._site_of.get(dst)
        if site_a is not None and site_a == site_b:
            return self.local_latency
        if site_a is None and site_b is None:
            return self.local_latency
        return self.wan_latency


class Network:
    """Datagram network connecting :class:`Host` objects."""

    def __init__(
        self,
        scheduler: Scheduler,
        latency_model: Optional[LatencyModel] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        audit: Optional[AuditScope] = None,
        spans: Optional[TraceCollector] = None,
        series: Optional[SeriesRegistry] = None,
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        self.scheduler = scheduler
        self.latency_model = latency_model or LatencyModel()
        self.tracer = tracer or Tracer(enabled=False)
        # The world-owned registry; every Host/Process reaches it through
        # the network, so one scenario shares one set of metrics.
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            clock=lambda: scheduler.now)
        # The world-owned resource-leak audit scope, shared the same way.
        self.audit = audit if audit is not None else AuditScope(
            metrics=self.metrics, clock=lambda: scheduler.now)
        # The world-owned causal-trace collector (disabled by default);
        # every Process reaches it through its ``spans`` property.
        self.spans = spans if spans is not None else TraceCollector(
            enabled=False, clock=lambda: scheduler.now)
        # The world-owned time-series registry and flight recorder,
        # both disabled by default (``series``/``flight`` properties on
        # Process); disabled they cost one boolean test at each hook.
        self.series = series if series is not None else SeriesRegistry(
            clock=lambda: scheduler.now)
        self.flight = flight if flight is not None else FlightRecorder(
            clock=lambda: scheduler.now)
        self.hosts: Dict[str, Host] = {}
        self._partitions: List[Tuple[Set[str], Set[str]]] = []
        self._crash_handlers: List[Callable[[Host], None]] = []
        self._recovery_handlers: List[Callable[[Host], None]] = []
        self.datagrams_sent = 0
        self.datagrams_delivered = 0
        self.bytes_sent = 0
        self._msg_counter = itertools.count()
        # Traffic counters are plain ints on the send/arrive hot paths,
        # exported lazily: the registry reads them through callbacks at
        # snapshot time, so per-datagram accounting costs two int adds.
        self.metrics.counter_fn("net.datagrams.sent",
                                lambda: self.datagrams_sent)
        self.metrics.counter_fn("net.datagrams.delivered",
                                lambda: self.datagrams_delivered)
        self.metrics.counter_fn("net.bytes.sent",
                                lambda: self.bytes_sent, unit="B")

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def add_host(self, name: str, site: Optional[str] = None) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host name {name!r}")
        host = Host(name, self.scheduler, self)
        self.hosts[name] = host
        if site is not None:
            self.latency_model.set_site(name, site)
        return host

    def host(self, name: str) -> Host:
        return self.hosts[name]

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------

    def partition(self, side_a: Set[str], side_b: Set[str]) -> None:
        """Block traffic between the two host-name sets (both ways)."""
        self._partitions.append((set(side_a), set(side_b)))
        self.tracer.emit(self.scheduler.now, "net.partition", "network",
                         "partition installed", a=sorted(side_a), b=sorted(side_b))

    def heal_partitions(self) -> None:
        self._partitions.clear()
        self.tracer.emit(self.scheduler.now, "net.heal", "network", "partitions healed")

    def can_communicate(self, src: str, dst: str) -> bool:
        for side_a, side_b in self._partitions:
            if (src in side_a and dst in side_b) or (src in side_b and dst in side_a):
                return False
        return True

    # ------------------------------------------------------------------
    # Datagram service
    # ------------------------------------------------------------------

    def send(
        self,
        src: Host,
        dst: Host,
        payload: Any,
        deliver: DeliverFn,
        size: int = 0,
        hold: float = 0.0,
    ) -> None:
        """Send ``payload`` from ``src`` to ``dst``; call ``deliver`` there.

        Delivery is dropped silently when either endpoint is dead at
        send *or* delivery time, or when a partition separates them —
        matching a real network where packets to dead hosts vanish.

        ``hold`` is time the datagram spends at ``src`` before it leaves
        (the sender's processing delay): it arrives ``hold`` + latency
        from now in a single scheduler event, and a ``src`` that crashes
        while it is held takes it down with it.
        """
        self.datagrams_sent += 1
        self.bytes_sent += size
        if not src.alive:
            return
        if self._partitions and not self.can_communicate(src.name, dst.name):
            return
        delay = self.latency_model.latency(src.name, dst.name)
        # post(): an in-flight datagram is never cancelled or
        # rescheduled, so the delivery needs no Timer handle at all.
        if hold:
            now = self.scheduler.now
            self.scheduler.post(hold + delay, self._arrive_held, now,
                                now + hold, src, dst, payload, deliver)
        else:
            self.scheduler.post(
                delay, self._arrive, src.name, dst, payload, deliver)

    def _arrive_held(self, sent_at: float, left_at: float, src: Host,
                     dst: Host, payload: Any, deliver: DeliverFn) -> None:
        """:meth:`_arrive` for a datagram ``src`` held until ``left_at``."""
        crashed_at = src.last_crash_at
        if crashed_at is not None and sent_at <= crashed_at <= left_at:
            return
        self._arrive(src.name, dst, payload, deliver)

    def _arrive(self, src_name: str, dst: Host, payload: Any,
                deliver: DeliverFn) -> None:
        """Delivery-time half of :meth:`send` (bound method, no closure)."""
        if not dst.alive:
            return
        if self._partitions and not self.can_communicate(src_name, dst.name):
            return
        self.datagrams_delivered += 1
        deliver(payload)

    def _arrive_group(self, src_name: str, payload: Any,
                      group: List[Tuple[Host, DeliverFn]]) -> None:
        """One delay group of :meth:`broadcast`: every member arrives
        through :meth:`_arrive`, in target order, within one event."""
        arrive = self._arrive
        for dst, deliver in group:
            arrive(src_name, dst, payload, deliver)

    def broadcast(
        self,
        src: Host,
        targets: List[Tuple[Host, DeliverFn]],
        payload: Any,
        size: int = 0,
    ) -> int:
        """Offer ``payload`` to every target with per-pair latency, in
        **one scheduler event per distinct delay**: a LAN multicast is
        heard by every member in the same instant.

        Semantically identical to looping ``send`` over ``targets`` in
        the given order.  A group's event (``_arrive_group``; a group
        of one, such as a Join's loopback, is a plain ``_arrive``) walks the
        members through ``_arrive`` in target order, so each is checked
        for liveness and partition, and counted, at its own turn, and an
        event a member's handler posts for the same instant fires after
        the last member.  ``run_until``'s predicate sees a group as one
        event: it cannot stop between two members.  Returns the number
        of per-target deliveries scheduled.
        """
        count = len(targets)
        self.datagrams_sent += count
        self.bytes_sent += size * count
        if not src.alive:
            return 0
        src_name = src.name
        latency = self.latency_model.latency
        partitioned = self._partitions
        # Group reachable targets by delay, preserving target order
        # within a group and first-occurrence order across groups.
        groups: Dict[float, List[Tuple[Host, DeliverFn]]] = {}
        for target in targets:
            dst_name = target[0].name
            if partitioned and not self.can_communicate(src_name, dst_name):
                continue
            delay = latency(src_name, dst_name)
            bucket = groups.get(delay)
            if bucket is None:
                groups[delay] = [target]
            else:
                bucket.append(target)

        scheduled = 0
        post = self.scheduler.post
        for delay, group in groups.items():
            if len(group) == 1:
                dst, deliver = group[0]
                post(delay, self._arrive, src_name, dst, payload, deliver)
            else:
                post(delay, self._arrive_group, src_name, payload, group)
            scheduled += len(group)
        return scheduled

    def host_crashed(self, host: Host) -> None:
        self.tracer.emit(self.scheduler.now, "net.crash", "network",
                         f"host {host.name} crashed")
        for fn in list(self._crash_handlers):
            fn(host)

    def host_recovered(self, host: Host) -> None:
        self.tracer.emit(self.scheduler.now, "net.recover", "network",
                         f"host {host.name} recovered")
        for fn in list(self._recovery_handlers):
            fn(host)

    def on_host_crash(self, fn: Callable[[Host], None]) -> None:
        self._crash_handlers.append(fn)

    def on_host_recovery(self, fn: Callable[[Host], None]) -> None:
        self._recovery_handlers.append(fn)
