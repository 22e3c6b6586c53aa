"""Gateway farm: shard one domain's client population across a pool.

The paper's section 3.5 introduces *redundant* gateways for fault
tolerance; this module scales the same mechanism out for capacity.  A
:class:`GatewayPool` fronts one fault tolerance domain with N gateways
and partitions the external client population across them:

* **Consistent-hash partitioning** — every routing key (the enhanced
  client's ``uid#incarnation``, or the connecting host name for plain
  ORBs) hashes onto a ring of virtual nodes (CRC32, never Python's
  randomised ``hash()``), so adding or removing one gateway moves only
  ~1/N of the keys and every component computes the same owner.
* **Pool-aware IORs** — :meth:`ior_for` publishes a multi-profile IOR
  whose profiles *walk the ring from the client's home gateway*, so an
  enhanced client's normal profile traversal (section 3.5) lands it on
  exactly the sibling that inherits its key range after a failure —
  rebalancing without any coordination message.
* **Admission control** — pool gateways are constructed with a bounded
  in-flight window plus overflow queue (see
  :class:`~repro.core.gateway.Gateway`); beyond both, requests are shed
  with a TRANSIENT exception.
* **Circuit breakers** — each gateway's shed/served signals feed a
  per-gateway :class:`CircuitBreaker`.  A tripped breaker takes the
  gateway out of routing until a lazy reset timeout admits a bounded
  number of half-open probes; sustained successes re-close it.

Plain year-2000 ORBs cannot traverse profiles, so the pool re-homes
them with the GIOP-standard redirect instead: a LocateRequest answered
``OBJECT_FORWARD`` carrying the home gateway's IOR
(:meth:`locate_forward`, used by ``Gateway._on_locate_request``).

Exactly-once semantics across all of this come from the machinery the
farm reuses unchanged: the gateway group's shared view of requests and
the :class:`~repro.core.duplicates.DuplicateSuppressor`, whose delivered
memory holds the replies — a client rerouted mid-operation reissues to
its new gateway and collects the original response, never a
re-execution.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..iiop.ior import Ior
from .gateway import Gateway
from .identifiers import ClientId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..eternal.domain import FaultToleranceDomain
    from ..orb.connection import IiopServerConnection


# Points each gateway holds on the consistent-hash ring.
VIRTUAL_NODES = 32


def ring_hash(key: str) -> int:
    """Deterministic ring position for a routing key (CRC32, stable
    across processes and runs — Python's builtin ``hash`` is neither)."""
    return zlib.crc32(key.encode("utf-8"))


class CircuitBreaker:
    """Per-gateway overload breaker with lazy clock-driven transitions.

    CLOSED -> OPEN after ``failure_threshold`` consecutive failures (or
    immediately via :meth:`force_open` when the gateway's host dies);
    OPEN -> HALF_OPEN once ``reset_timeout`` simulated seconds elapse
    (evaluated lazily at the next :meth:`allow` — no timer event, so a
    pool changes nothing about event ordering); HALF_OPEN admits up to
    ``probe_quota`` probe requests and closes after ``close_after``
    of them succeed, or re-opens on any probe failure.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, clock, failure_threshold: int = 8,
                 reset_timeout: float = 0.25, probe_quota: int = 4,
                 close_after: int = 2, listener=None) -> None:
        self._clock = clock
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.probe_quota = probe_quota
        self.close_after = close_after
        self._listener = listener or (lambda event: None)
        self._state = CircuitBreaker.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes_left = 0
        self._probe_successes = 0

    @property
    def state(self) -> str:
        if (self._state == CircuitBreaker.OPEN
                and self._clock() - self._opened_at >= self.reset_timeout):
            self._state = CircuitBreaker.HALF_OPEN
            self._probes_left = self.probe_quota
            self._probe_successes = 0
        return self._state

    def can_accept(self) -> bool:
        """May a new request be routed to this gateway right now?
        Pure check — consuming a half-open probe slot happens only when
        the gateway is actually *selected* (:meth:`note_routed`)."""
        state = self.state
        if state == CircuitBreaker.CLOSED:
            return True
        return state == CircuitBreaker.HALF_OPEN and self._probes_left > 0

    def note_routed(self) -> None:
        """A request was routed here; in HALF_OPEN that uses one probe."""
        if self.state == CircuitBreaker.HALF_OPEN and self._probes_left > 0:
            self._probes_left -= 1
            self._listener("probe")

    def record_success(self) -> None:
        if self._state == CircuitBreaker.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.close_after:
                self._state = CircuitBreaker.CLOSED
                self._failures = 0
                self._listener("close")
        else:
            self._failures = 0

    def record_failure(self) -> None:
        state = self.state
        if state == CircuitBreaker.HALF_OPEN:
            # A failed probe: the gateway is still sick, back off again.
            self._open("reopen")
            return
        if state == CircuitBreaker.OPEN:
            return
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._open("trip")

    def force_open(self) -> None:
        """Trip immediately (the gateway's host died)."""
        if self.state != CircuitBreaker.OPEN:
            self._open("trip")

    def _open(self, event: str) -> None:
        self._state = CircuitBreaker.OPEN
        self._opened_at = self._clock()
        self._failures = 0
        self._listener(event)


class GatewayPool:
    """N gateways sharding one domain's client population.

    Construct over a domain (adopting its existing gateways and adding
    more via :meth:`FaultToleranceDomain.add_gateway` until ``size``),
    then hand out references with :meth:`ior_for` and route open-loop
    load with :meth:`route`.  Adoption installs ``gateway.pool`` so the
    gateways themselves consult the pool for locate re-homing, reroute
    tracing, and breaker feedback.
    """

    def __init__(self, domain: "FaultToleranceDomain",
                 size: Optional[int] = None,
                 admission_window: int = 64,
                 admission_queue_limit: int = 64,
                 failure_threshold: int = 8,
                 reset_timeout: float = 0.25,
                 probe_quota: int = 4,
                 close_after: int = 2) -> None:
        self.domain = domain
        self.admission_window = admission_window
        self.admission_queue_limit = admission_queue_limit
        self.gateways: List[Gateway] = []
        # The ring, rebuilt only when membership changes (never per
        # request): the sorted virtual-node points, and for each of
        # them the distinct gateways met walking the ring from there
        # (so entry 0 of a walk is the gateway owning that point).
        self._ring_points: List[int] = []
        self._ring_walks: List[Tuple[Gateway, ...]] = []
        # Published IORs by (group id, ring position): a pure function
        # of the ring, so dropped whenever it is rebuilt.
        self._iors: Dict[Tuple[int, int], Ior] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._breaker_config = (failure_threshold, reset_timeout,
                                probe_quota, close_after)

        m = domain.world.metrics
        self._m_route_owner = m.counter("pool.route.owner")
        self._m_route_reroutes = m.counter("pool.route.reroutes")
        self._m_route_fallback = m.counter("pool.route.fallback")
        self._m_route_unroutable = m.counter("pool.route.unroutable")
        self._m_breaker_trips = m.counter("pool.breaker.trips")
        self._m_breaker_probes = m.counter("pool.breaker.probes")
        self._m_breaker_closes = m.counter("pool.breaker.closes")
        self._m_breaker_reopens = m.counter("pool.breaker.reopens")
        self._m_locate_forwards = m.counter("pool.locate.forwards")
        self._m_ior_issued = m.counter("pool.ior.issued")
        self._m_shed = m.counter("pool.admission.shed")
        self._m_served = m.counter("pool.admission.served")

        for gateway in list(domain.gateways):
            self.adopt(gateway)
        while size is not None and len(self.gateways) < size:
            self.add_gateway()

        self._register_audit()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def adopt(self, gateway: Gateway) -> Gateway:
        """Bring an existing gateway under pool management."""
        if gateway in self.gateways:
            return gateway
        gateway.pool = self
        if gateway.admission_window is None:
            # Adopted gateways predate the pool; arm their gate so the
            # farm's backpressure story is uniform.
            gateway.arm_admission(self.admission_window,
                                  self.admission_queue_limit)
        self.gateways.append(gateway)
        host_name = gateway.host.name
        self._breakers[host_name] = CircuitBreaker(
            clock=lambda: self.domain.world.scheduler.now,
            failure_threshold=self._breaker_config[0],
            reset_timeout=self._breaker_config[1],
            probe_quota=self._breaker_config[2],
            close_after=self._breaker_config[3],
            listener=lambda event, hn=host_name: self._on_breaker(hn, event))
        self._rebuild_ring()
        return gateway

    def add_gateway(self, port: int = 2809) -> Gateway:
        """Grow the pool by one gateway processor."""
        gateway = self.domain.add_gateway(
            port=port,
            admission_window=self.admission_window,
            admission_queue_limit=self.admission_queue_limit)
        return self.adopt(gateway)

    def _rebuild_ring(self) -> None:
        ring: List[Tuple[int, Gateway]] = []
        for gateway in self.gateways:
            for v in range(VIRTUAL_NODES):
                ring.append((ring_hash(f"{gateway.host.name}#{v}"), gateway))
        # Ties between virtual nodes (CRC32 collisions) break on the
        # deterministic host name, never on object identity.
        ring.sort(key=lambda pair: (pair[0], pair[1].host.name))
        # Each walk is its successor's with this position's gateway
        # moved to the front; the wrap-around seeds the recurrence.
        walk: Tuple[Gateway, ...] = tuple(dict.fromkeys(
            gateway for _, gateway in ring))
        walks = []
        for _, gateway in reversed(ring):
            walk = (gateway,) + tuple(gw for gw in walk if gw is not gateway)
            walks.append(walk)
        walks.reverse()
        self._ring_points = [point for point, _ in ring]
        self._ring_walks = walks
        self._iors = {}

    # ------------------------------------------------------------------
    # Availability and breaker feedback
    # ------------------------------------------------------------------

    def breaker(self, gateway: Gateway) -> CircuitBreaker:
        return self._breakers[gateway.host.name]

    def _on_breaker(self, host_name: str, event: str) -> None:
        counter = {"trip": self._m_breaker_trips,
                   "probe": self._m_breaker_probes,
                   "close": self._m_breaker_closes,
                   "reopen": self._m_breaker_reopens}[event]
        counter.inc()

    def _available(self, gateway: Gateway) -> bool:
        """Live and admitting: routing skips everything else.  A dead
        host trips the breaker on sight (lazy fault detection — the
        pool never subscribes to membership events)."""
        if not gateway.alive or not gateway.host.alive:
            self._breakers[gateway.host.name].force_open()
            return False
        return self._breakers[gateway.host.name].can_accept()

    def on_shed(self, gateway: Gateway) -> None:
        """Gateway callback: a request was shed (window + queue full)."""
        self._m_shed.value += 1
        self._breakers[gateway.host.name].record_failure()

    def on_served(self, gateway: Gateway) -> None:
        """Gateway callback: an admitted request resolved (response,
        cancel, or purge) — the success signal that heals breakers."""
        self._m_served.value += 1
        self._breakers[gateway.host.name].record_success()

    @staticmethod
    def _load(gateway: Gateway) -> Tuple[int, int]:
        """Queue-then-window load, for least-connections comparisons."""
        return (len(gateway._admission_queue), gateway._own_inflight)

    def _saturated(self, gateway: Gateway) -> bool:
        window = gateway.admission_window
        if window is None:
            return False
        return (gateway._own_inflight >= window
                and len(gateway._admission_queue)
                >= gateway.admission_queue_limit // 2)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _ring_position(self, key: str) -> int:
        """Index of the first ring point at or after ``key``'s hash,
        wrapping past the last point to the first (0 on an empty ring)."""
        points = self._ring_points
        return bisect_left(points, ring_hash(key)) % (len(points) or 1)

    def _ring_walk(self, key: str) -> Tuple[Gateway, ...]:
        """All distinct gateways in ring order from ``key``'s position;
        the first entry is the key's hash owner."""
        walks = self._ring_walks
        return walks[self._ring_position(key)] if walks else ()

    def hash_owner(self, key: str) -> Optional[Gateway]:
        """The key's ring owner, dead or alive (pure hash, no health)."""
        walk = self._ring_walk(key)
        return walk[0] if walk else None

    def route(self, key: str) -> Optional[Gateway]:
        """Pick the gateway that should serve ``key``'s next request.

        Walk the ring from the key's position, skipping dead gateways
        and open breakers; if the first available gateway is saturated
        (window full, queue half full), fall back to the least-loaded
        available gateway instead of queueing behind a hot shard.
        Returns None (and counts ``pool.route.unroutable``) when no
        gateway can take the request.
        """
        walk = self._ring_walk(key)
        selected: Optional[Gateway] = None
        rerouted = False
        for i, gateway in enumerate(walk):
            if self._available(gateway):
                selected, rerouted = gateway, i > 0
                break
        if selected is None:
            self._m_route_unroutable.value += 1
            return None
        if self._saturated(selected):
            candidates = [gw for gw in walk
                          if gw is selected or self._available(gw)]
            least = min(candidates,
                        key=lambda gw: (self._load(gw), gw.host.name))
            if least is not selected:
                self._m_route_fallback.value += 1
                self.breaker(least).note_routed()
                return least
        if rerouted:
            self._m_route_reroutes.value += 1
        else:
            self._m_route_owner.value += 1
        self.breaker(selected).note_routed()
        return selected

    def is_hash_owner(self, gateway: Gateway, client_id: ClientId,
                      connection: "IiopServerConnection") -> bool:
        """Is ``gateway`` the consistent-hash home of this client?  Used
        by the gateway's tracing hook to mark rerouted invocations."""
        owner = self.hash_owner(self._routing_key(client_id, connection))
        return owner is None or owner is gateway

    @staticmethod
    def _routing_key(client_id: ClientId,
                     connection: "IiopServerConnection") -> str:
        if isinstance(client_id, str):
            # Enhanced client: uid#incarnation travels in the service
            # context, stable across connections and failovers.
            return client_id
        # Plain ORB: counter-assigned ids differ per gateway, so key on
        # the connecting host instead (stable for the client process).
        return connection.endpoint.remote_addr[0]

    # ------------------------------------------------------------------
    # References
    # ------------------------------------------------------------------

    def _walk_addresses(self, key: str) -> List[Tuple[str, int]]:
        return [(gw.host.name, gw.port) for gw in self._ring_walk(key)]

    def ior_for(self, group: Any, client_key: str) -> Ior:
        """A pool-aware IOR for ``client_key``: profiles ordered by the
        ring walk from the key's home gateway, so profile traversal
        after a gateway failure lands on the shard that inherits the
        key range."""
        handle = self.domain.resolve(group)
        self._m_ior_issued.value += 1
        slot = (handle.group_id, self._ring_position(client_key))
        ior = self._iors.get(slot)
        if ior is None:
            ior = self._iors[slot] = self.domain.interceptor.published_ior(
                handle.group_id, handle.interface.repo_id,
                addresses=self._walk_addresses(client_key))
        return ior

    def locate_forward(self, gateway: Gateway, group_id: int,
                       connection: "IiopServerConnection") -> Optional[Ior]:
        """Re-home a plain ORB via GIOP OBJECT_FORWARD.

        Called from the gateway's LocateRequest handler: if the probing
        client's hash home is an *available* different gateway, answer
        with an IOR rooted at that home; otherwise None (serve here —
        re-homing onto a dead or tripped gateway would bounce the
        client straight back).
        """
        key = connection.endpoint.remote_addr[0]
        walk = self._ring_walk(key)
        for candidate in walk:
            if candidate is gateway:
                return None
            if not self._available(candidate):
                continue
            info = gateway.rm.registry.get(group_id)
            type_id = ""
            if info is not None and info.interface_name:
                interface = self.domain.interfaces.get(info.interface_name)
                if interface is not None:
                    type_id = interface.repo_id
            self._m_locate_forwards.value += 1
            return self.domain.interceptor.published_ior(
                group_id, type_id,
                addresses=[(gw.host.name, gw.port) for gw in walk
                           if gw is candidate or self._available(gw)])
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _register_audit(self) -> None:
        """The pool's own tables are bounded by membership (the IOR
        table: by ring positions times groups), never by client
        activity: declare exact floors so the leak audit sees them
        (AUD001) without ever flagging them."""
        scope = self.domain.world.audit_scope
        owner = f"pool@{self.domain.name}"
        scope.register("pool.gateways", lambda: len(self.gateways),
                       floor=lambda: len(self.gateways), owner=owner,
                       gauge="pool.state.gateways")

        def ring_size() -> int:
            return len(self.gateways) * VIRTUAL_NODES

        scope.register("pool.ring", lambda: len(self._ring_points),
                       floor=ring_size, owner=owner, gauge="pool.state.ring")
        scope.register("pool.ring_walks", lambda: len(self._ring_walks),
                       floor=ring_size, owner=owner,
                       gauge="pool.state.ring_walks")
        scope.register("pool.iors", lambda: len(self._iors),
                       floor=lambda: ring_size() * len(self.domain._handles),
                       owner=owner, gauge="pool.state.iors")
        scope.register("pool.breakers", lambda: len(self._breakers),
                       floor=lambda: len(self.gateways), owner=owner,
                       gauge="pool.state.breakers")
