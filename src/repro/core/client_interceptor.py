"""The thin client-side interception layer of paper section 3.5.

Plain year-2000 ORBs cannot traverse multi-profile IORs or identify
themselves across connections, so a single gateway is a single point of
failure for their clients (section 3.4).  The paper's remedy — pending
its adoption into client ORBs — is a thin interception layer on the
client side that:

* connects the client to the **first** gateway profile of the stitched
  multi-profile IOR *and keeps one idle connection to the next* — the
  IOR named that gateway at bind time, so a failover need not wait out
  a TCP handshake across the WAN;
* inserts a **unique client identifier** into the service context of
  every IIOP request (safely ignored by ORBs that don't understand it);
* on gateway failure, **transparently skips to the next profile** —
  promoting the standby connection when it is usable, connecting to
  the next profile when it is not — and **reissues every pending
  invocation** in the same event, with the same client identifier and
  the same request identifiers, so the new gateway (and the domain's
  duplicate detection) can recognise reinvocations and return the
  original responses without re-executing anything.  It rebinds when
  the connection is *lost*, not when the next request is sent, so an
  idle or one-way-only client fails over too.

:class:`FtClientLayer` wraps a plain :class:`~repro.orb.orb.Orb`;
stubs created through it behave exactly like ordinary stubs, but
survive gateway failover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..errors import CommFailure
from ..iiop.giop import RequestMessage, ServiceContext
from ..iiop.ior import Ior
from ..iiop.service_context import ClientIdContext, SpanContext
from ..orb.connection import IiopClientConnection
from ..orb.dispatch import decode_result
from ..orb.idl import Interface, Operation
from ..orb.orb import Orb, Requester, Stub
from ..sim.world import Promise


@dataclass
class _PendingInvocation:
    encoded: bytes
    op: Operation
    promise: Promise


class FtRequester(Requester):
    """Profile-traversing requester: a warm standby connection to the
    next gateway profile, promoted and reissued on when the active
    connection is lost."""

    def __init__(self, layer: "FtClientLayer", ior: Ior) -> None:
        self.layer = layer
        self.orb = layer.orb
        self.profiles: List[Tuple[str, int]] = [
            p.address for p in ior.iiop_profiles()]
        if not self.profiles:
            raise CommFailure("IOR carries no IIOP profiles")
        self.profile_index = 0
        self.pending: Dict[int, _PendingInvocation] = {}
        self.connection: Optional[IiopClientConnection] = None
        # The warm standby, opened whenever ``connection`` is bound:
        # (profile offset from the active one, idle connection).
        self.standby: Optional[Tuple[int, IiopClientConnection]] = None
        self._failover_scheduled = False
        self._failovers_since_reply = 0
        self.stats = {"sent": 0, "reissued": 0, "failovers": 0,
                      "standby_promotions": 0}
        # Open client.request root spans, keyed by request id (causal
        # tracing; empty unless the world's collector is enabled).
        self._trace_roots: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Requester interface
    # ------------------------------------------------------------------

    def _trace_id(self, request_id: int) -> str:
        ctx = self.layer.context
        return f"{ctx.client_uid}#{ctx.incarnation}/{request_id}"

    def service_contexts(self,
                         request_id: Optional[int] = None) -> List[ServiceContext]:
        contexts = [self.layer.context.to_service_context()]
        spans = self.orb.spans
        if request_id is not None and spans.enabled:
            # Root the invocation's trace here, at request marshalling:
            # the deterministic trace id names the originator and the
            # request, and the gateway parents its own spans under the
            # root it finds in this context.  Reissues after a failover
            # retransmit the same encoded bytes, so the whole failover
            # story lands in one trace.
            trace_id = self._trace_id(request_id)
            source = f"client/{self.layer.client_uid}"
            root = spans.start(trace_id, "client.request", source=source,
                               request_id=request_id)
            spans.instant(trace_id, "client.marshal", parent=root,
                          source=source)
            self._trace_roots[request_id] = root
            contexts.append(
                SpanContext(trace_id, root, hop=0).to_service_context())
        return contexts

    def send(self, stub: Stub, op: Operation, request: RequestMessage,
             encoded: bytes, promise: Promise) -> None:
        if op.oneway:
            try:
                self._ensure_connection().send_oneway(encoded)
            except CommFailure:
                self._schedule_failover()
            # One-ways complete at transmission: close the trace root
            # now (no reply will ever close it).
            self.orb.spans.end(
                self._trace_roots.pop(request.request_id, 0),
                op=op.name, oneway=True)
            promise.resolve(None)
            return
        self.pending[request.request_id] = _PendingInvocation(
            encoded=encoded, op=op, promise=promise)
        self._transmit(request.request_id)

    # ------------------------------------------------------------------
    # Binding: the active connection and its warm standby
    # ------------------------------------------------------------------

    @property
    def current_address(self) -> Tuple[str, int]:
        return self.profiles[self.profile_index % len(self.profiles)]

    def _open(self, address: Tuple[str, int],
              standby: bool = False) -> IiopClientConnection:
        """Where a connection comes from — the one seam
        :class:`MuxRequester` overrides.  Here: a private connection,
        watched so that its loss is acted on when it happens."""
        connection = IiopClientConnection(self.orb.tcp, self.orb.host,
                                          address)
        connection.on_closed(lambda: self._on_lost(connection))
        return connection

    def _ensure_connection(self) -> IiopClientConnection:
        if self.connection is None:
            self._bind()
        return self.connection

    def _bind(self, connection: Optional[IiopClientConnection] = None) -> None:
        """Make ``connection`` (a promoted standby; by default a fresh
        connection to the current profile) the active one and open its
        standby.  The only place ``self.connection`` is given a
        connection, so the standby is established per bind, never per
        transmission."""
        if connection is None:
            connection = self._open(self.current_address)
        self.connection = connection
        self._open_standby(1)

    def _open_standby(self, first_offset: int) -> None:
        """Open one idle connection to the nearest profile at least
        ``first_offset`` places after the active one that names a
        different gateway.  Offsets stop short of a full turn, so one
        bind makes at most ``len(profiles) - 1`` speculative connects
        however many of them are refused."""
        self.standby = None
        count = len(self.profiles)
        for offset in range(first_offset, count):
            address = self.profiles[(self.profile_index + offset) % count]
            if address != self.current_address:
                self.standby = (offset, self._open(address, standby=True))
                return

    def _on_lost(self, connection: IiopClientConnection) -> None:
        """A watched connection closed, whatever was or was not pending
        on it: rebind if it was the active one, move the standby on to
        the following profile if it was the standby."""
        if connection is self.connection:
            self._schedule_failover()
        elif self.standby is not None and connection is self.standby[1]:
            if connection.endpoint is None:
                self.orb.metrics.counter("client.standby.refused").inc()
            self._open_standby(self.standby[0] + 1)

    # ------------------------------------------------------------------
    # Transmission and failover
    # ------------------------------------------------------------------

    def _transmit(self, request_id: int) -> None:
        entry = self.pending.get(request_id)
        if entry is None or entry.promise.done:
            return
        self.stats["sent"] += 1
        connection = self._ensure_connection()

        def on_reply(reply) -> None:
            self._on_reply(request_id, reply)

        def on_failure(exc: Exception) -> None:
            self._on_request_failure(request_id, exc)

        connection.send_request(entry.encoded, request_id, on_reply, on_failure)

    def _on_reply(self, request_id: int, reply) -> None:
        entry = self.pending.pop(request_id, None)
        if entry is None or entry.promise.done:
            return
        self._failovers_since_reply = 0
        self.orb.spans.end(self._trace_roots.pop(request_id, 0),
                           op=entry.op.name)
        try:
            value = decode_result(entry.op, reply,
                                  little_endian=reply.little_endian)
        except Exception as exc:
            entry.promise.reject(exc)
        else:
            entry.promise.resolve(value)

    def _on_request_failure(self, request_id: int, exc: Exception) -> None:
        if request_id not in self.pending:
            return
        self._schedule_failover()

    def _schedule_failover(self) -> None:
        """Coalesce the callbacks of one connection loss (one per
        request in flight, one from the watch) into a single profile
        advance + bulk reissue."""
        if self._failover_scheduled:
            return
        self._failover_scheduled = True
        self.orb.host.scheduler.call_soon(self._failover)

    def _failover(self) -> None:
        self._failover_scheduled = False
        if self.connection is not None and self.connection.usable:
            return
        self._failovers_since_reply += 1
        if self._failovers_since_reply > 2 * len(self.profiles):
            # Every gateway profile failed repeatedly: give up like the
            # paper's client would once the IOR is exhausted, and stay
            # unbound until the next request asks again.
            error = CommFailure("all gateway profiles unreachable")
            for request_id, entry in list(self.pending.items()):
                self.orb.spans.end(self._trace_roots.pop(request_id, 0),
                                   op=entry.op.name, error="CommFailure")
                entry.promise.reject(error)
            self.pending.clear()
            self.connection = self.standby = None
            self._failovers_since_reply = 0
            return
        self.stats["failovers"] += 1
        origin = self.current_address
        standby = self.standby
        if standby is not None and standby[1].usable:
            # The warm path: the next gateway's connection is already
            # open, so the reissue leaves in this very event.
            (offset, connection), path = standby, "standby"
            self.stats["standby_promotions"] += 1
        else:
            offset, connection, path = 1, None, "cold"
        self.profile_index = (self.profile_index + offset) % len(self.profiles)
        self._bind(connection)
        self.layer.on_failover(self.current_address)
        self._record_failover(origin, path)
        for request_id in sorted(self.pending):
            self.stats["reissued"] += 1
            self._transmit(request_id)

    def _record_failover(self, origin: Tuple[str, int], path: str) -> None:
        """The client's side of a failover: world counters, one flight
        record, and one instant under every reissued request's root."""
        metrics = self.orb.metrics
        metrics.counter("client.failover.count").inc()
        if path == "standby":
            metrics.counter("client.failover.standby").inc()
        hop = {"from": "%s:%d" % origin, "to": "%s:%d" % self.current_address}
        self.orb.flight.record("flight.failover", client=self.layer.client_uid,
                               path=path, pending=len(self.pending), **hop)
        spans = self.orb.spans
        if spans.enabled:
            source = f"client/{self.layer.client_uid}"
            for request_id in sorted(self.pending):
                root = self._trace_roots.get(request_id, 0)
                if root:
                    spans.instant(self._trace_id(request_id),
                                  "client.failover", parent=root,
                                  source=source, path=path, **hop)


class MuxRequester(FtRequester):
    """An FtRequester multiplexed over the ORB's shared connection cache.

    :class:`FtRequester` opens a private TCP connection per requester —
    right for one interactive client, ruinous for a farm of 10^5–10^6
    logical clients.  This variant draws connections from
    :meth:`~repro.orb.orb.Orb.connection_to` instead, so every logical
    client homed on the same gateway shares one TCP connection while
    still stamping its own identity context on each request.  The
    gateway's per-connection member tracking keeps gone/purge handling
    correct for every multiplexed identity.

    Failover is the inherited one: when the shared connection dies,
    each multiplexed requester's pending invocations fail, and each
    promotes the cache entry for its next IOR profile and reissues —
    landing on the ring successor that inherits its key range under a
    gateway pool.  A shared connection is never watched (the farm puts
    10^5 logical clients on one), so a requester that was idle at the
    loss learns of it from its next transmission.
    """

    def _open(self, address: Tuple[str, int],
              standby: bool = False) -> IiopClientConnection:
        if standby:
            # A speculative open never replaces a cached entry, usable
            # or not: a dead next gateway costs one connect attempt per
            # ORB, not one per logical client.
            cached = self.orb.cached_connection(address)
            if cached is not None:
                return cached
        return self.orb.connection_to(address)


class FtClientLayer:
    """Factory for fault-tolerance-aware stubs over a plain ORB."""

    def __init__(self, orb: Orb, client_uid: Optional[str] = None,
                 incarnation: int = 1) -> None:
        self.orb = orb
        # The uid is the consistent-hash routing key, so an auto-named
        # one is numbered by the client's host, not by the process.
        uid = client_uid or f"ftclient/{orb.host.name}/{orb.host.next_serial()}"
        self.context = ClientIdContext(client_uid=uid, incarnation=incarnation)
        self.requesters: List[FtRequester] = []
        self.failover_log: List[Tuple[float, Tuple[str, int]]] = []

    @property
    def client_uid(self) -> str:
        return self.context.client_uid

    def string_to_object(self, ior: Any, interface: Interface,
                         multiplexed: bool = False) -> Stub:
        """Create a gateway-failover-capable stub for ``ior``.

        ``multiplexed`` shares the ORB's cached connections instead of
        opening a private one per requester (farm workloads: many
        logical clients per host — see :class:`MuxRequester`).
        """
        if isinstance(ior, str):
            ior = Ior.from_string(ior)
        requester_cls = MuxRequester if multiplexed else FtRequester
        requester = requester_cls(self, ior)
        self.requesters.append(requester)
        return Stub(self.orb, ior, interface, requester=requester)

    def on_failover(self, new_address: Tuple[str, int]) -> None:
        self.failover_log.append((self.orb.host.scheduler.now, new_address))

    def restart(self) -> "FtClientLayer":
        """Model a client process restart: a new incarnation of the same
        identity (so gateways do not mistake it for the old process)."""
        return FtClientLayer(self.orb, client_uid=self.context.client_uid,
                             incarnation=self.context.incarnation + 1)
