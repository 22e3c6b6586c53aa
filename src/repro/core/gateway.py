"""The gateway: entry point of a fault tolerance domain (paper section 3).

A gateway is *not* a CORBA object: it is infrastructure that bridges
two worlds whose semantics it alone understands —

* **outside**: unreplicated IIOP clients over TCP/IP, addressing the
  gateway's {host, port} (placed into published IORs by the Eternal
  Interceptor) and believing it to be the server;
* **inside**: the reliable totally-ordered multicast of the fault
  tolerance domain, where replicated objects are addressed by group id.

Per Figure 5, for every complete IIOP request picked off a client
socket the gateway: obtains the TCP client identifier (from the
section 3.5 service context if the client is enhanced, otherwise from
the per-server-group counter of section 3.2), maps the socket to that
identifier, generates the operation identifier, builds the Figure 4
header, and multicasts header + IIOP message into the domain.  For
every multicast response it: extracts the operation identifier, filters
duplicates (every replica's copy that reached the ring — section 3.3),
finds the socket for the TCP client identifier, and forwards the IIOP
reply bytes verbatim.

With ``mirror_requests`` (section 3.5) the redundant gateways act as a
*gateway group*: every gateway is delivered every gateway-sourced
INVOCATION in the total order, and that message is the group's record
of the request — a peer reads client id, operation id and target group
off it and expects the response, so the gateway group — not the
connected gateway alone — receives the response and any gateway can
serve the reply after a failover.  A request its gateway accepted but
never got sequenced is recovered by the enhanced client's reissue.
Gateways also tell their peers when a client goes away so per-client
state can be deleted everywhere.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional, Tuple, TYPE_CHECKING

from ..errors import ObjectNotExist, TransientError
from ..eternal.messages import DomainMessage, MsgKind
from ..eternal.naming import GATEWAY_GROUP, parse_object_key
from ..iiop.giop import (
    LocateStatus,
    MsgType,
    RequestMessage,
    decode_cancel_request,
    decode_locate_request,
    decode_request,
    encode_locate_reply,
    parse_header,
)
from ..iiop.service_context import extract_client_id, extract_trace_context
from ..orb.connection import IiopServerConnection
from ..orb.dispatch import reply_for_exception
from ..sim.host import Host, Process
from ..sim.tcp import TcpEndpoint
from ..sim.world import Promise
from .duplicates import DuplicateSuppressor
from .identifiers import (
    ClientId, DedupKey, OperationId, external_operation_id)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..eternal.domain import FaultToleranceDomain

# One client as the gateway sees it: (server group, TCP client id).  A
# plain client is numbered per server group (section 3.2), so only the
# pair names it; every per-invocation record is keyed by the pair plus
# the operation id — the duplicate filter's key (``DedupKey``).
Member = Tuple[int, ClientId]

# Replies remembered for reissues: each client's progress (its floor)
# retires its own; beyond this many in all — clients that never return —
# the least recently served client loses its oldest (DedupTable).
REPLY_MEMORY = 10_000
# Gateway.drain: wait for requests still on the wire (> a client round
# trip), then for the last in-flight one to resolve.
DRAIN_GRACE = 0.25

# ``Gateway.stats`` key -> the world counter summing it over gateways
# (None: per gateway only).  Responses partition: received ==
# suppressed + unexpected + vote_pending + delivered + unroutable.
_STATS = {
    "requests_received": "gateway.req.received",
    "requests_forwarded": "gateway.req.forwarded",
    "cache_replays": "gateway.cache.replays",
    "responses_received": "gateway.resp.received",
    "responses_delivered": "gateway.resp.delivered",
    "duplicates_suppressed": "gateway.dup.suppressed",
    "responses_unroutable": "gateway.resp.unroutable",
    "responses_unexpected": "gateway.resp.unexpected",
    "responses_vote_pending": "gateway.resp.vote_pending",
    "mirrors_recorded": "gateway.mirror.recorded",
    "clients_connected": "gateway.clients.connected",
    "clients_gone": "gateway.clients.gone",
    "bad_object_key": "gateway.req.bad_object_key",
    "cancels": "gateway.req.cancelled",
    "client_gone_deferred": "gateway.clients.gone_deferred",
    "queued_dropped": None,
    "requests_unservable": "gateway.req.unservable",
    "votes_relaxed": "gateway.style.vote_relaxed",
}
# The duplicate filter's ``stats`` (its delivered memory's) -> the world
# counter summing it over gateways.
_FILTER_STATS = {
    "retired": "gateway.filter.retired",
    "evicted": "dedup.evicted",
}
# Summed once the gate is armed, so a farm-free world lacks the series.
_ADMISSION_STATS = {
    "requests_admitted": "gateway.adm.admitted",
    "requests_queued": "gateway.adm.queued",
    "requests_shed": "gateway.adm.shed",
}


@dataclass
class _PendingRequest:
    """A client request forwarded into the domain: the waiter of a
    two-way request's expectation in the duplicate filter.  A one-way
    request is forgotten once forwarded."""

    key: DedupKey
    iiop: bytes
    # ``iiop`` as decoded by the gateway that read it off its client
    # socket, handed on to the domain's receivers so none of them
    # parses the bytes again.
    request: RequestMessage
    # Simulated receipt time at the gateway that read the request off its
    # client socket.
    received_at: float
    # The client's floor, stamped on the forwarded INVOCATION.
    floor: Optional[OperationId] = None
    # Causal tracing (repro.obs.tracing): the invocation's trace id,
    # hop count, container span (gateway.request, receipt -> egress)
    # and the open ordering-wait span of the forward.  All zero when
    # tracing is disabled.
    trace_id: str = ""
    trace_hop: int = 0
    trace_span: int = 0
    order_span: int = 0
    # True while this request occupies a slot of the gateway's bounded
    # admission window (gateway-farm backpressure); always False when
    # admission control is disabled.
    admitted: bool = False


class Gateway(Process):
    """One gateway processor on the edge of a fault tolerance domain."""

    def __init__(self, domain: "FaultToleranceDomain", host: Host, port: int,
                 mirror_requests: bool = True) -> None:
        super().__init__(host, f"gateway@{host.name}:{port}")
        self.domain = domain
        self.port = port
        self.mirror_requests = mirror_requests
        # Ordinal among the domain's gateways (the domain appends this
        # one after construction): a pure function of the seeded world,
        # never of what else the process built before it.
        self.index = len(domain.gateways)
        self.rm = domain.rms[host.name]
        self.rm.attach_gateway(self)
        self.rm.on_membership_change(self._on_membership)
        # World-shared causal-trace collector, cached off the property
        # for the hot path; every hook below checks ``.enabled`` first.
        self._span_collector = host.network.spans

        self._listener = None
        # Resolved when the gateway stops (Gateway.drain's promise).
        self._stopped = Promise()
        # Set once a drain's grace has passed: the gateway then stops as
        # soon as nothing waits or queues here.
        self._drain_due = False
        # Per-server-group client-id counters (section 3.2); the counter
        # space is partitioned per gateway so concurrent gateways never
        # accidentally alias (a crash/restart still reuses ids, which is
        # the section 3.4 weakness the paper analyses).
        self._counters: Dict[int, itertools.count] = {}
        # Every accepted connection, in accept order, with every Member
        # it has carried, most recent last.  Empty until the first
        # request: an enhanced client's warm standby sits here idle
        # until its active gateway dies.  One TCP connection may
        # multiplex many logical clients (farm workloads) and server
        # groups, and each Member needs gone/purge handling when the
        # socket closes.
        self._conn_clients: Dict[IiopServerConnection,
                                 Dict[Member, None]] = {}
        self._routing: Dict[Member, IiopServerConnection] = {}
        # The gateway's only per-operation record: a two-way request is
        # the waiter of its expectation here, and every expectation ends
        # in _settle.  Its delivered memory is also the reply store for
        # reissues.
        self._filter = DuplicateSuppressor(remember_delivered=REPLY_MEMORY,
                                           settle=self._settle)
        # Clients that closed their connection while operations were
        # still in flight here: the CLIENT_GONE broadcast is deferred
        # until the last one resolves, so peers keep the expectations
        # they need to collect the responses (section 3.5).
        self._gone_pending: set = set()

        # Admission control (gateway farm, paper section 3.3 scaled
        # out): a bounded in-flight window for two-way requests plus a
        # bounded overflow queue, armed by :meth:`arm_admission`.
        # ``None`` disables the gate entirely — the pre-farm behaviour,
        # byte-identical event ordering.
        self.admission_window: Optional[int] = None
        self.admission_queue_limit = 0
        self._admission_queue: Deque[
            Tuple[Any, bytes, IiopServerConnection, float]] = deque()
        self._own_inflight = 0
        # Back-reference installed by GatewayPool.adopt(); None outside
        # a pool.
        self.pool = None

        self.stats = dict.fromkeys([*_STATS, *_ADMISSION_STATS], 0)

        m = self.metrics
        m.register_stats(self.stats, _STATS)
        m.register_stats(self._filter.stats, _FILTER_STATS)
        self._m_req_latency = m.histogram("gateway.req.latency", unit="s")
        # Always 0, read by bench/ledger.py; goes with that row in
        # the `benchmark` PR (ROADMAP item 1).
        m.counter_fn("gateway.takeover.forwards", int)

        self._register_audit()

    def arm_admission(self, window: int, queue_limit: int) -> None:
        """Arm the admission gate; its ``gateway.adm.*`` counters start
        summing this gateway's admission keys now."""
        self.admission_window = window
        self.admission_queue_limit = queue_limit
        self.metrics.register_stats(self.stats, _ADMISSION_STATS)

    def _register_audit(self) -> None:
        """Declare every per-client collection to the world audit scope
        (see :mod:`repro.obs.audit`) with its quiescence floor."""
        scope, owner = self.audit, self.name

        def alive() -> bool:
            return self.alive

        scope.register("gateway.routing", lambda: len(self._routing),
                       floor=lambda: sum(
                           1 for c in self._routing.values() if c.open),
                       owner=owner, active=alive,
                       gauge="gateway.state.routing")
        scope.register("gateway.connections", lambda: len(self._conn_clients),
                       floor=lambda: sum(
                           1 for c in self._conn_clients if c.open),
                       owner=owner, active=alive,
                       gauge="gateway.state.connections")
        scope.register("gateway.conn_members",
                       lambda: sum(len(ids)
                                   for ids in self._conn_clients.values()),
                       floor=lambda: sum(
                           len(ids) for c, ids in self._conn_clients.items()
                           if c.open),
                       owner=owner, active=alive,
                       gauge="gateway.state.conn_members")
        scope.register("gateway.admission_queue",
                       lambda: len(self._admission_queue),
                       floor=0, owner=owner, active=alive,
                       gauge="gateway.state.admission_queue")
        scope.register("gateway.admission_inflight",
                       lambda: self._own_inflight,
                       floor=0, owner=owner, active=alive,
                       gauge="gateway.state.admission_inflight")
        scope.register("gateway.gone_pending",
                       lambda: len(self._gone_pending),
                       floor=0, owner=owner, active=alive,
                       gauge="gateway.state.gone_pending")
        # One client-id counter per server group ever addressed through
        # this gateway: bounded by the directory, snapshot-only.
        scope.register("gateway.counters", lambda: len(self._counters),
                       floor=None, owner=owner, active=alive)
        self._filter.register_audit(scope, owner=owner, active=alive,
                                    prefix="gateway.filter",
                                    gauge_prefix="gateway.state.filter")

    # ==================================================================
    # Lifecycle
    # ==================================================================

    def handle_start(self) -> None:
        self._listener = self.domain.world.tcp.listen(
            self.host, self.port, self._on_accept)

    def handle_stop(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        # On a *graceful* stop, close every client connection — the
        # idle ones too — so clients detect the retirement promptly and
        # none can reach a stopped gateway.  On a host crash the TCP
        # stack itself severs them (closing here would unregister the
        # endpoints before the stack can notify the peers).
        if self.host.alive:
            for connection in list(self._conn_clients):
                connection.close()
        self._stopped.resolve(None)

    def drain(self) -> Promise:
        """Graceful shutdown: stop accepting new clients, serve out the
        requests already in flight, then stop the gateway.

        Returns a promise resolved once the gateway has stopped — by
        the drain, by :meth:`stop` or by its host's crash.  With
        redundant gateways this lets an operator retire a gateway with
        zero client-visible failures (enhanced clients reconnect to the
        remaining profiles on their next invocation).
        """
        if self._listener is not None:
            self._listener.close()
            self._listener = None

        def grace_over() -> None:
            self._drain_due = True
            self._end_drain()

        self.after(DRAIN_GRACE, grace_over)
        return self._stopped

    def _end_drain(self) -> None:
        """Stop a draining gateway once nothing waits or queues here.
        Checked after the grace and at each admission release
        (:meth:`_release_admission`, the one place a waiter or a queued
        request leaves), from an event of its own at the same instant:
        a quorum sweep settles several waiters in one event, and the
        last of them must still reach its client."""
        if (self._drain_due and not self._admission_queue
                and not self._filter.waiters()):
            self.stop()

    # ==================================================================
    # TCP side (outside the domain)
    # ==================================================================

    def _on_accept(self, endpoint: TcpEndpoint) -> None:
        self.stats["clients_connected"] += 1
        connection = IiopServerConnection(endpoint, self._on_client_message,
                                          on_close=self._on_client_close)
        self._conn_clients[connection] = {}

    def _on_client_message(self, message: bytes,
                           connection: IiopServerConnection) -> None:
        if not self.running:
            # A stopped gateway is out of the gateway group: it must
            # not translate, forward or answer anything.  (A crashed
            # host's endpoints are aborted; nothing reaches it at all.)
            return
        message_type, _, _ = parse_header(message)
        if message_type == MsgType.CLOSE_CONNECTION:
            connection.close()
            return
        if message_type == MsgType.LOCATE_REQUEST:
            self._on_locate_request(message, connection)
            return
        if message_type == MsgType.CANCEL_REQUEST:
            # Advisory in GIOP, and a client that cancels has stopped
            # waiting (its ORB drops the reply): counted, nothing more.
            decode_cancel_request(message)
            self.stats["cancels"] += 1
            return
        if message_type != MsgType.REQUEST:
            return
        request = decode_request(message)
        self.stats["requests_received"] += 1
        self._process_request(request, message, connection,
                              self.scheduler.now)

    def _process_request(self, request, message: bytes,
                         connection: IiopServerConnection,
                         received_at: float,
                         from_queue: bool = False) -> None:
        """Figure 5a pipeline for one decoded Request.

        ``from_queue`` marks re-entry from the admission overflow queue:
        the entry was already counted on receipt and the caller
        (``_release_admission``) guarantees a free window slot, so the
        admission gate is bypassed.  ``received_at`` is always the
        original socket receipt time, so the latency histogram includes
        queueing delay.
        """
        parsed = parse_object_key(request.object_key)
        info = None
        if parsed is not None and parsed[0] == self.domain.name:
            info = self.rm.registry.get(parsed[1])
        if info is None:
            self.stats["bad_object_key"] += 1
            if request.response_expected:
                connection.send(reply_for_exception(
                    request.request_id,
                    ObjectNotExist(f"no such object: {request.object_key!r}")))
            return
        target_group = info.group_id

        member, carried = self._identify_client(request, connection,
                                                target_group)
        client_id = member[1]
        # A returning client (e.g. an egress successor reusing the same
        # identifiers) voids any deferred departure broadcast: purging
        # now would delete the state the reissues are about to claim.
        self._gone_pending.discard(member)
        # "Map socket to client identifier" (Figure 5a).
        self._routing[member] = connection
        key = member + (external_operation_id(request.request_id),)

        # Causal tracing: continue the trace carried in the request's
        # service context (enhanced clients), or root a gateway-owned
        # trace for plain clients.  The container span covers this
        # gateway's whole handling of the invocation, receipt to egress.
        spans = self._span_collector
        trace_id, trace_hop, container = "", 0, 0
        if spans.enabled:
            tctx = extract_trace_context(request)
            if tctx is not None:
                trace_id, parent, trace_hop = (tctx.trace_id, tctx.span_id,
                                               tctx.hop)
            else:
                trace_id, parent = (
                    f"gw/{self.name}/{client_id}/{request.request_id}", 0)
            container = spans.start(
                trace_id, "gateway.request", parent=parent, source=self.name,
                op=request.operation, client=str(client_id), hop=trace_hop)
            spans.instant(trace_id, "gateway.ingress", parent=container,
                          source=self.name)
            if self.pool is not None and not self.pool.is_hash_owner(
                    self, client_id, connection):
                # The client's consistent-hash owner is another pool
                # gateway: this invocation arrived here via failover,
                # locate re-homing, or least-connections fallback.
                spans.instant(trace_id, "pool.reroute", parent=container,
                              source=self.name)

        replies = self._filter._delivered
        if key in replies:
            # A reinvocation whose response we already hold (the client
            # failed over to us, or retried): answer locally.
            self.stats["cache_replays"] += 1
            connection.send(replies[key])
            if container:
                spans.instant(trace_id, "gateway.cache.replay",
                              parent=container, source=self.name)
                spans.end(container, outcome="cache_replay")
            return
        floors = replies.floors
        if floors and member in floors and key[2] < floors[member]:
            # Below the floor the client itself raised: it said it holds
            # this reply, so it is owed nothing more.
            if container:
                spans.end(container, outcome="retired")
            return

        # Unservable fail-fast: a target with zero live replicas can
        # never answer, so a two-way request to it would pin a waiter
        # (and an admission slot) until the client gives up.
        # Fail it now with the standard CORBA "try again later" signal.
        votes = self.rm.votes_needed(info)
        if votes is None and request.response_expected:
            self.stats["requests_unservable"] += 1
            if container:
                spans.end(container, outcome="unservable")
            if connection.open:
                connection.send(reply_for_exception(
                    request.request_id,
                    TransientError(
                        f"server group {target_group} has no live "
                        f"replicas")))
            return

        # Admission gate (gateway farm): two-way requests occupy one
        # slot of the bounded in-flight window; overflow queues up to
        # ``admission_queue_limit`` and beyond that is shed with a
        # TRANSIENT system exception — the standard CORBA "try again
        # elsewhere/later" signal, which enhanced clients surface and
        # open-loop workloads count as lost offered load.  Cache
        # replays (above) are always served: a failed-over client
        # re-collecting a response must never be bounced.
        admitted = False
        if self.admission_window is not None and request.response_expected:
            if not from_queue and self._own_inflight >= self.admission_window:
                if len(self._admission_queue) < self.admission_queue_limit:
                    self._admission_queue.append(
                        (request, message, connection, received_at))
                    self.stats["requests_queued"] += 1
                    if container:
                        spans.end(container, outcome="queued")
                    return
                self.stats["requests_shed"] += 1
                if container:
                    spans.end(container, outcome="shed")
                if connection.open:
                    connection.send(reply_for_exception(
                        request.request_id,
                        TransientError(
                            "gateway admission window and queue full")))
                if self.pool is not None:
                    self.pool.on_shed(self)
                return
            self._own_inflight += 1
            admitted = True
            self.stats["requests_admitted"] += 1

        # The floor the request carries into the ring: an enhanced
        # client's own (0, the old context form: none), clamped to the
        # request itself, so it can neither suppress its own request nor
        # reach another client's; a plain client's, worked out here.
        if carried is None:
            floor = self._plain_floor(member, key[2])
        elif not carried:
            floor = None
        elif carried >= key[2].child_seq:
            floor = key[2]
        else:
            floor = external_operation_id(carried)
        pending = _PendingRequest(
            key=key, iiop=message, request=request, received_at=received_at,
            floor=floor, admitted=admitted,
            trace_id=trace_id, trace_hop=trace_hop, trace_span=container)
        if container:
            # IIOP -> Totem translation (Figure 5a: identify, build the
            # Figure 4 header) happens here, within the receipt event.
            spans.instant(trace_id, "gateway.translate", parent=container,
                          source=self.name, group=target_group)
        if not request.response_expected:
            # One-way: no reply is owed, so nothing is kept; its handling
            # ends at the forward, as the client's at transmission.
            self._forward(pending)
            if container:
                spans.end(container, outcome="oneway", by=self.name)
            return
        # A failed-over client's reissue attaches to the expectation its
        # peer-forwarded first copy left here; the same request id again
        # while its first copy is held here replaces it.
        held = self._filter.expect(key, votes or 1, pending)
        if held is not None:
            self._let_go(held, "superseded")
        self._forward(pending)

    def _on_locate_request(self, message: bytes,
                           connection: IiopServerConnection) -> None:
        """Answer ORB location probes: the gateway claims to *be* every
        object of its domain (the client must keep believing the
        endpoint in the IOR is the server — section 3.1)."""
        request_id, object_key = decode_locate_request(message)
        parsed = parse_object_key(object_key)
        here = (parsed is not None and parsed[0] == self.domain.name
                and self.rm.registry.get(parsed[1]) is not None)
        if here and self.pool is not None:
            # Pool re-homing for plain ORBs: if this client's
            # consistent-hash home is another pool gateway, answer
            # OBJECT_FORWARD with an IOR ordered from that home — the
            # GIOP-standard redirect that needs no client enhancement.
            forward = self.pool.locate_forward(self, parsed[1], connection)
            if forward is not None:
                connection.send(encode_locate_reply(
                    request_id, LocateStatus.OBJECT_FORWARD,
                    forward_ior=forward))
                return
        status = LocateStatus.OBJECT_HERE if here else LocateStatus.UNKNOWN_OBJECT
        connection.send(encode_locate_reply(request_id, status))

    def _forward(self, pending: _PendingRequest) -> None:
        self.stats["requests_forwarded"] += 1
        group, client_id, op_id = pending.key
        message = DomainMessage(
            kind=MsgKind.INVOCATION,
            source_group=GATEWAY_GROUP,
            target_group=group,
            client_id=client_id,
            op_id=op_id,
            iiop=pending.iiop,
            floor=pending.floor,
            _request=pending.request,
        )
        if pending.trace_span:
            message.trace = (pending.trace_id, pending.trace_span,
                             pending.trace_hop)
        if pending.trace_span and pending.request.response_expected:
            # Ordering wait: multicast into the ring until this
            # gateway observes the agreed delivery (ended in
            # observe_delivered).
            pending.order_span = self._span_collector.start(
                pending.trace_id, "totem.order.invocation",
                parent=pending.trace_span, source=self.name)
        self.rm.multicast(message)

    def _identify_client(self, request, connection: IiopServerConnection,
                         target_group: int) -> Tuple[Member, Optional[int]]:
        """Enhanced clients carry their identity, and their floor (the
        second item; None for a plain client); a plain connection gets
        one counter id per server group it addresses (section 3.2)."""
        carried = self._conn_clients[connection]
        ctx = extract_client_id(request)
        if ctx is not None:
            member = (target_group, f"{ctx.client_uid}#{ctx.incarnation}")
            carried.pop(member, None)  # re-inserted as most recent
        else:
            for member in reversed(carried):
                if member[0] == target_group:
                    return member, None
            counter = self._counters.setdefault(target_group,
                                                itertools.count(1))
            member = (target_group, self.index * 1_000_000 + next(counter))
        carried[member] = None
        return member, None if ctx is None else ctx.floor

    def _plain_floor(self, member: Member, op: OperationId) -> OperationId:
        """A plain client's floor for its request ``op``: the lowest of
        its requests this gateway has not answered yet — it cannot
        reissue anywhere else."""
        return min([op, *(key[2] for key in self._filter.awaited(member))])

    def _release_admission(self, record: _PendingRequest) -> None:
        """Free the window slot an admitted request held and pull queued
        requests into the freed capacity.

        Queue drains happen inside the event that resolved the slot
        (response delivery, client purge), so admission keeps
        the deterministic same-event ordering the rest of the gateway
        relies on.  Queued entries whose client connection has since
        closed are dropped — their reply could never be written.
        """
        if self._drain_due:
            self.soon(self._end_drain)
        if not record.admitted:
            return
        record.admitted = False
        self._own_inflight -= 1
        if self.pool is not None:
            self.pool.on_served(self)
        queue = self._admission_queue
        window = self.admission_window
        while queue and self._own_inflight < window:
            request, message, connection, received_at = queue.popleft()
            if not connection.open:
                self.stats["queued_dropped"] += 1
                continue
            self._process_request(request, message, connection,
                                  received_at, from_queue=True)

    def _let_go(self, record: _PendingRequest, outcome: str) -> None:
        """Free what a request holds here when no reply will be written
        for it: its admission slot, then its open trace spans."""
        self._release_admission(record)
        spans = self._span_collector
        spans.end(record.order_span)
        spans.end(record.trace_span, outcome=outcome, by=self.name)

    def _on_client_close(self, connection: IiopServerConnection) -> None:
        carried = self._conn_clients.pop(connection, ())
        if not self.alive:
            # Stopping: the clients fail over to a peer, which needs
            # the state held on their behalf — nobody is "gone".
            return
        # A multiplexed connection carried many Members; each departs
        # independently (sorted for deterministic broadcast order).
        for member in sorted(carried, key=str):
            if self._routing.get(member) is connection:
                del self._routing[member]
            if self._filter.awaited(member):
                # Two-way requests still wait here: defer the domain-wide
                # purge until the last one resolves, so peers keep the
                # expectations they need to collect the responses
                # (section 3.5).  Without the deferral this gateway's
                # records leak — CLIENT_GONE is never re-sent once
                # suppressed here.  A peer's request mirrored here has
                # no waiter, and a one-way needs nothing from the peers.
                self._gone_pending.add(member)
                self.stats["client_gone_deferred"] += 1
            else:
                self._broadcast_client_gone(member)

    def _broadcast_client_gone(self, member: Member) -> None:
        """Tell the other gateways the client is gone so they delete any
        state stored on its behalf (section 3.5).  The server group
        rides in the header's target group field."""
        self.rm.multicast(DomainMessage(
            kind=MsgKind.CLIENT_GONE,
            source_group=GATEWAY_GROUP,
            target_group=member[0],
            client_id=member[1],
        ))

    def _maybe_flush_client_gone(self, member: Member) -> None:
        """Fire a deferred CLIENT_GONE once the departed client's last
        operation in flight here has resolved."""
        if member not in self._gone_pending or self._filter.awaited(member):
            return
        self._gone_pending.discard(member)
        self._broadcast_client_gone(member)

    # ==================================================================
    # Multicast side (inside the domain)
    # ==================================================================

    def observe_delivered(self, msg: DomainMessage) -> None:
        """Called by the co-located Replication Mechanisms for every
        delivered message; the gateway reacts to the kinds it owns."""
        kind = msg.kind
        if kind is MsgKind.RESPONSE and msg.target_group == GATEWAY_GROUP:
            self._on_domain_response(msg)
        elif kind is MsgKind.INVOCATION and msg.source_group == GATEWAY_GROUP:
            key = (msg.target_group, msg.client_id, msg.op_id)
            # Every gateway, serving or mirroring, forgets the client's
            # replies below its floor at the same point of the total
            # order.
            known = self._filter._delivered.admit(key, msg.floor)
            expected = key in self._filter._pending
            record = self._filter._pending[key].waiter if expected else None
            if record is None:
                # A peer's forward: section 3.5's gateway group (unlike
                # section 3.4's isolated gateway) takes it as its record
                # — unless the filter knows the key already.
                if self.mirror_requests and not expected and known is None:
                    self._record_peer_request(key, msg)
                return
            if record.order_span:
                # The forwarding gateway saw its own multicast come
                # back in the total order: the ordering wait is over.
                self._span_collector.end(record.order_span,
                                         seq=msg.timestamp)
        elif kind is MsgKind.STYLE_SWITCH:
            # Applied to the registry by the Replication Mechanisms just
            # before this call: a dropped voting requirement is simply
            # what votes_needed answers from here on.
            self._filter.requorum(self.rm.votes_now)
        elif kind is MsgKind.CLIENT_GONE:
            self._purge_client((msg.target_group, msg.client_id))
        else:
            # Group-management and logging kinds are owned by the
            # Replication Mechanisms; the gateway reacts only to the
            # four kinds above.
            return

    def _on_domain_response(self, msg: DomainMessage) -> None:
        self.stats["responses_received"] += 1
        spans = self._span_collector
        tr = msg.trace if spans.enabled else None
        if tr is not None and msg._trace_order:
            # First gateway to observe the agreed response ends the
            # responder's ordering-wait span (end() is first-close-wins,
            # so the remaining gateways' observations are no-ops).
            spans.end(msg._trace_order, seq=msg.timestamp)
        verdict, _ = self._filter.offer(
            (msg.source_group, msg.client_id, msg.op_id), msg.iiop,
            responder=msg.data.get("responder"))
        if tr is not None:
            # One duplicate-suppression event per gateway per response
            # (Figure 3): the verdicts across gateways partition
            # gateway.resp.received exactly like the metric counters.
            spans.instant(tr[0], "gateway.response", parent=tr[1],
                          source=self.name, verdict=str(verdict),
                          responder=str(msg.data.get("responder")))
        if verdict == DuplicateSuppressor.DUPLICATE:
            self.stats["duplicates_suppressed"] += 1
        elif verdict == DuplicateSuppressor.UNEXPECTED:
            # No record of this client here: an isolated gateway
            # (section 3.4) does not record its peers' requests, so a
            # response surviving its gateway cannot be routed.
            self.stats["responses_unexpected"] += 1
        elif verdict == DuplicateSuppressor.PENDING:
            self.stats["responses_vote_pending"] += 1
        else:
            return  # DELIVER: settled, and counted, in _settle

    def _settle(self, key: DedupKey, record: Optional[_PendingRequest],
                outcome: str, payload: Optional[bytes]) -> None:
        """The one way a two-way operation leaves this gateway, called
        by the filter whenever ``key`` stops being expected: let go of
        ``record`` (the waiter; None for a peer's request mirrored here)
        and hand the reply to the client if it is still here to take it.

        The causes differ in data only: the agreed response (DELIVER),
        one a lowered vote requirement freed (RELAXED), a TRANSIENT made
        here because the target lost every replica (DROPPED: not a
        response, so neither remembered for reissues nor observed as a
        latency), a purged client (FORGOTTEN: nothing to write).  The
        quorum sweep's settlements are not counted under
        ``gateway.resp.*``, which partitions ``gateway.resp.received``
        exactly."""
        if outcome == DuplicateSuppressor.FORGOTTEN:
            if record is not None:
                self._let_go(record, "client_gone")
            return
        if outcome == DuplicateSuppressor.DROPPED:
            self.stats["requests_unservable"] += 1
            # The external request id was recovered into the child
            # sequence of the operation id.
            payload = reply_for_exception(key[2].child_seq, TransientError(
                f"server group {key[0]} lost all replicas"))
        elif outcome == DuplicateSuppressor.RELAXED:
            self.stats["votes_relaxed"] += 1
        else:
            outcome = "delivered"
        spans = self._span_collector
        container = 0
        if record is not None:
            # Resolving the slot *before* routing the reply lets the
            # freed window capacity pull queued work in this same event.
            if record.admitted or self._drain_due:
                self._release_admission(record)
            if record.order_span:
                # Settled before this gateway saw its own forward come
                # back in the total order (a reissue's duplicate).
                spans.end(record.order_span)
            container = record.trace_span
        member = key[:2]
        connection = self._routing.get(member)
        sent = False
        if connection is not None and connection.open:
            connection.send(payload)
            sent = True
            if outcome != DuplicateSuppressor.DROPPED and record is not None:
                # Socket receipt to socket write: the latency an
                # unreplicated client observes at this gateway.
                self._m_req_latency.observe(
                    self.scheduler.now - record.received_at)
            if container:
                # The egress instant and the container close share this
                # event's clock with the latency observation above, so
                # metrics and trace are provably consistent
                # (tests/test_obs_tracing.py).
                spans.instant(record.trace_id, "gateway.egress",
                              parent=container, source=self.name)
                spans.end(container, outcome=outcome, by=self.name)
        elif container:
            spans.end(container, outcome="unroutable", by=self.name)
        if self._gone_pending:
            self._maybe_flush_client_gone(member)
        if outcome != "delivered":
            return
        if sent:
            self.stats["responses_delivered"] += 1
        else:
            # The client's socket is not (or no longer) at this gateway —
            # the normal case at a peer of the forwarder.
            self.stats["responses_unroutable"] += 1

    def _on_membership(self, live_hosts: Tuple[str, ...]) -> None:
        if self.alive:
            self._filter.requorum(self.rm.votes_now)

    def _record_peer_request(self, key: DedupKey,
                             msg: DomainMessage) -> None:
        """A peer gateway's INVOCATION, delivered in the total order, is
        the gateway group's record of the request (section 3.5): expect
        its response here too, with no waiter, so the reply is
        remembered for a client that fails over to this gateway.

        A forward with no waiter here is not always a peer's: this
        gateway's own comes back to none after an earlier copy's
        response settled it (a reissue's duplicate), and a peer's
        reissue repeats a request already recorded.  In each the filter
        knows the key, and the caller records nothing.  (After
        ``_purge_client`` the own forward cannot be told from a peer's;
        it is then recorded here exactly as every peer records it.)"""
        if not msg.request().response_expected:
            return  # one-way: no response to collect, nothing to hold
        info = self.rm.registry.get(key[0])
        votes = self.rm.votes_needed(info) if info is not None else None
        if votes is None:
            # Nobody is left to answer (the membership sweep failed the
            # request at its gateway): nothing would ever resolve this.
            return
        self.stats["mirrors_recorded"] += 1
        self._filter.expect(key, votes_needed=votes)

    def _purge_client(self, member: Member) -> None:
        connection = self._routing.get(member)
        if connection is not None and connection.open:
            # The gateway this client left says it is gone, but its
            # requests now arrive here (an enhanced client's failover):
            # it moved, and what is held for it here is still owed.
            return
        self.stats["clients_gone"] += 1
        # Forget the filter's memory as well — each expectation's waiter
        # is let go in _settle — replies included: if the "client"
        # returns with the same identifiers (e.g. an egress successor
        # host), its reissues must be re-servable, not suppressed as
        # duplicates.
        self._filter.forget(member)
        self._routing.pop(member, None)
        self._gone_pending.discard(member)
