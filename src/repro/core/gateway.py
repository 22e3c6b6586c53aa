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
from .identifiers import ClientId, DedupKey, external_operation_id

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..eternal.domain import FaultToleranceDomain

# One client as the gateway sees it: (server group, TCP client id).  A
# plain client is numbered per server group (section 3.2), so only the
# pair names it; every per-invocation record is keyed by the pair plus
# the operation id — the duplicate filter's key (``DedupKey``).
Member = Tuple[int, ClientId]

# Replies remembered for reissues: the gateway's duplicate filter keeps
# this many delivered operations, payload and all (FIFO — the oldest are
# the least likely to be reclaimed by a reissue).
REPLY_MEMORY = 10_000
# Cancel tombstones and one-way pending records have no response to
# resolve them; each is reaped this many simulated seconds after it was
# made.
RETENTION_TTL = 30.0
# Gateway.drain: wait for requests still on the wire (> a client round
# trip), then poll for the last in-flight one to resolve.
DRAIN_GRACE = 0.25
DRAIN_POLL = 0.01

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
    "cancels_reaped": "gateway.reap.cancelled",
    "oneways_completed": "gateway.oneway.completed",
    "oneways_reaped": "gateway.reap.oneway",
    "client_gone_deferred": "gateway.clients.gone_deferred",
    "queued_dropped": None,
    "requests_unservable": "gateway.req.unservable",
    "votes_relaxed": "gateway.style.vote_relaxed",
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
    two-way request's expectation in the duplicate filter, or a one-way
    request's record until its forward is seen delivered."""

    key: DedupKey
    iiop: bytes
    # ``iiop`` as decoded by the gateway that read it off its client
    # socket, handed on to the domain's receivers so none of them
    # parses the bytes again.
    request: RequestMessage
    # Simulated receipt time at the gateway that read the request off its
    # client socket.
    received_at: float
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
                 mirror_requests: bool = True,
                 admission_window: Optional[int] = None,
                 admission_queue_limit: int = 64) -> None:
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
        # One-way requests whose forward is not yet seen delivered.
        self._oneways: Dict[DedupKey, _PendingRequest] = {}
        self._cancelled: set = set()
        # A two-way request's record is the waiter of its expectation
        # here, and every expectation ends in _settle.  Its delivered
        # memory is also the reply store for reissues.
        self._filter = DuplicateSuppressor(remember_delivered=REPLY_MEMORY,
                                           settle=self._settle)
        # Clients that closed their connection while operations were
        # still in flight here: the CLIENT_GONE broadcast is deferred
        # until the last one resolves, so peers keep the expectations
        # they need to collect the responses (section 3.5).
        self._gone_pending: set = set()
        # Retention layer: cancel tombstones and one-way pending records
        # are reaped after RETENTION_TTL.  Entries expire in the order
        # they were queued; one on-demand timer serves the whole queue,
        # and nothing is armed while it is empty.
        self._reap_queue: Deque[Tuple[float, str, DedupKey, Any]] = deque()
        self._reap_timer = None

        # Admission control (gateway farm, paper section 3.3 scaled
        # out): a bounded in-flight window for two-way requests plus a
        # bounded overflow queue.  ``None`` disables the gate entirely —
        # the pre-farm behaviour, byte-identical event ordering.
        self.admission_window: Optional[int] = None
        self.admission_queue_limit = admission_queue_limit
        self._admission_queue: Deque[
            Tuple[Any, bytes, IiopServerConnection, float]] = deque()
        self._own_inflight = 0
        # Back-reference installed by GatewayPool.adopt(); None outside
        # a pool.
        self.pool = None

        self.stats = dict.fromkeys([*_STATS, *_ADMISSION_STATS], 0)

        m = self.metrics
        m.register_stats(self.stats, _STATS)
        if admission_window is not None:
            self.arm_admission(admission_window, admission_queue_limit)
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

        scope.register("gateway.pending", lambda: len(self._oneways),
                       floor=0, owner=owner, active=alive,
                       gauge="gateway.state.pending")
        scope.register("gateway.cancelled", lambda: len(self._cancelled),
                       floor=0, owner=owner, active=alive,
                       gauge="gateway.state.cancelled")
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
        # The reap queue is lazily drained, so it may hold entries whose
        # target is already resolved: snapshot-only.
        scope.register("gateway.reap_queue", lambda: len(self._reap_queue),
                       floor=None, owner=owner, active=alive,
                       gauge="gateway.state.reap_queue")
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

    def drain(self):
        """Graceful shutdown: stop accepting new clients, serve out the
        requests already in flight, then stop the gateway.

        Returns a promise resolved once the gateway has stopped.  With
        redundant gateways this lets an operator retire a gateway with
        zero client-visible failures (enhanced clients reconnect to the
        remaining profiles on their next invocation).
        """
        promise = Promise()
        if self._listener is not None:
            self._listener.close()
            self._listener = None

        def check_drained() -> None:
            if not self.alive:
                promise.resolve(None)
                return
            if not self._admission_queue and not self._filter.waiters():
                self.stop()
                promise.resolve(None)
            else:
                self.after(DRAIN_POLL, check_drained)

        self.after(DRAIN_GRACE, check_drained)
        return promise

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
            self._on_cancel_request(message, connection)
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

        member = self._identify_client(request, connection, target_group)
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

        cached = self._filter.delivered(key)
        if cached is not None:
            # A reinvocation whose response we already hold (the client
            # failed over to us, or retried): answer locally.
            self.stats["cache_replays"] += 1
            connection.send(cached)
            if container:
                spans.instant(trace_id, "gateway.cache.replay",
                              parent=container, source=self.name)
                spans.end(container, outcome="cache_replay")
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

        pending = _PendingRequest(
            key=key, iiop=message, request=request, received_at=received_at,
            admitted=admitted,
            trace_id=trace_id, trace_hop=trace_hop, trace_span=container)
        if container:
            # IIOP -> Totem translation (Figure 5a: identify, build the
            # Figure 4 header) happens here, within the receipt event.
            spans.instant(trace_id, "gateway.translate", parent=container,
                          source=self.name, group=target_group)
        if request.response_expected:
            # A failed-over client's reissue attaches to the expectation
            # its peer-forwarded first copy left here; the same request
            # id again while its first copy is held here replaces it.
            held = self._filter.expect(key, votes or 1, pending)
            if held is not None:
                self._let_go(held, "superseded")
        else:
            # One-way: no response will ever settle this record.  It is
            # dropped when the forwarded INVOCATION is observed
            # delivered, or by TTL if the forward is lost.
            self._oneways[key] = pending
            self._schedule_reap("oneway", key, pending)
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

    def _on_cancel_request(self, message: bytes,
                           connection: IiopServerConnection) -> None:
        """Best-effort CancelRequest: drop the gateway's routing intent
        for the request so a late response is not written to the socket.
        The invocation may already have executed inside the domain (the
        CORBA spec makes no promise there, and neither does the paper)."""
        carried = self._conn_clients.get(connection)
        if not carried:
            return
        op_id = external_operation_id(decode_cancel_request(message))
        # The request id names the operation on this connection; which
        # of its Members sent it is whichever one knows the operation
        # (the most recent one, when none does).
        keys = (member + (op_id,) for member in reversed(carried))
        key = next((k for k in keys if k in self._oneways
                    or self._filter.waiter(k) is not None
                    or self._filter.was_delivered(k)),
                   next(reversed(carried)) + (op_id,))
        # A two-way's expectation stays: a late response is remembered.
        record = self._oneways.pop(key, None) or self._filter.detach(key)
        self.stats["cancels"] += 1
        if record is None and self._filter.was_delivered(key):
            # The cancel raced the reply over the WAN and lost: the
            # response was already written back.  A tombstone now could
            # never be consumed — late duplicates are suppressed by the
            # delivered-filter before the tombstone is consulted — and
            # would sit until its TTL.
            return
        self._cancelled.add(key)
        # The tombstone is discarded when the operation is settled (a
        # late response, or its target lost) or, failing both, by TTL.
        self._schedule_reap("cancel", key, record)
        if record is not None:
            # This gateway's handling ends here, whatever becomes of
            # the invocation inside the domain.
            self._let_go(record, "cancelled")

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
            _request=pending.request,
        )
        if pending.trace_span:
            message.trace = (pending.trace_id, pending.trace_span,
                             pending.trace_hop)
            # Ordering wait: multicast into the ring until this
            # gateway observes the agreed delivery (ended in
            # observe_delivered).
            pending.order_span = self._span_collector.start(
                pending.trace_id, "totem.order.invocation",
                parent=pending.trace_span, source=self.name)
        self.rm.multicast(message)

    def _identify_client(self, request, connection: IiopServerConnection,
                         target_group: int) -> Member:
        """Enhanced clients carry their identity; a plain connection
        gets one counter id per server group it addresses (section
        3.2)."""
        carried = self._conn_clients[connection]
        ctx = extract_client_id(request)
        if ctx is not None:
            member = (target_group, f"{ctx.client_uid}#{ctx.incarnation}")
            carried.pop(member, None)  # re-inserted as most recent
        else:
            for member in reversed(carried):
                if member[0] == target_group:
                    return member
            counter = self._counters.setdefault(target_group,
                                                itertools.count(1))
            member = (target_group, self.index * 1_000_000 + next(counter))
        carried[member] = None
        return member

    def _release_admission(self, record: _PendingRequest) -> None:
        """Free the window slot an admitted request held and pull queued
        requests into the freed capacity.

        Queue drains happen inside the event that resolved the slot
        (response delivery, cancel, client purge), so admission keeps
        the deterministic same-event ordering the rest of the gateway
        relies on.  Queued entries whose client connection has since
        closed are dropped — their reply could never be written.
        """
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
            if any(k[:2] == member for k, _ in self._filter.waiters()):
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
        if member not in self._gone_pending or any(
                k[:2] == member for k, _ in self._filter.waiters()):
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
            oneway = key in self._oneways
            record = (self._oneways.pop(key) if oneway
                      else self._filter.waiter(key))
            if record is None:
                # A peer's forward: section 3.5's gateway group (unlike
                # section 3.4's isolated gateway) takes it as its record.
                if self.mirror_requests:
                    self._record_peer_request(key, msg)
                return
            if record.order_span:
                # The forwarding gateway saw its own multicast come
                # back in the total order: the ordering wait is over.
                self._span_collector.end(record.order_span,
                                         seq=msg.timestamp)
            if oneway:
                # One-way: the delivered forward *is* the operation's
                # completion — no response will ever settle the record.
                self.stats["oneways_completed"] += 1
                self._maybe_flush_client_gone(key[:2])
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
        ``record`` (the waiter; None for a peer's request mirrored here,
        or after a cancel) and hand the reply to the client if it is
        still here to take it.

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
            self._release_admission(record)
            if record.order_span:
                # Settled before this gateway saw its own forward come
                # back in the total order (a reissue's duplicate).
                spans.end(record.order_span)
            container = record.trace_span
        member = key[:2]
        connection = self._routing.get(member)
        sent = False
        if key in self._cancelled:
            # The client withdrew interest (CancelRequest): a response
            # stays remembered (a reissue may still claim it) but
            # nothing is written to the socket.  The tombstone has now
            # served its purpose — discard it, or it pins this key
            # forever.
            self._cancelled.discard(key)
            spans.end(container, outcome="cancelled", by=self.name)
        elif connection is not None and connection.open:
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
        self._maybe_flush_client_gone(member)
        if outcome != "delivered":
            return
        if sent:
            self.stats["responses_delivered"] += 1
        else:
            # Cancelled, or the client's socket is not (or no longer) at
            # this gateway — the normal case at a peer of the forwarder.
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
        gateway's own comes back to none after a cancel or after an
        earlier copy's response settled it (a reissue's duplicate), and
        a peer's reissue repeats a request already recorded.  In each
        the filter knows the key, so nothing new is recorded.  (After
        ``_purge_client`` the own forward cannot be told from a peer's;
        it is then recorded here exactly as every peer records it.)"""
        if not msg.request().response_expected:
            return  # one-way: no response to collect, nothing to hold
        if self._filter.is_expected(key) or self._filter.was_delivered(key):
            return
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
        for key in [k for k in self._oneways if k[:2] == member]:
            self._let_go(self._oneways.pop(key), "client_gone")
        # Forget the filter's memory as well — each expectation's waiter
        # is let go in _settle — replies included: if the "client"
        # returns with the same identifiers (e.g. an egress successor
        # host), its reissues must be re-servable, not suppressed as
        # duplicates.
        self._filter.forget_where(lambda key: key[:2] == member)
        self._routing.pop(member, None)
        self._cancelled = {k for k in self._cancelled if k[:2] != member}
        self._gone_pending.discard(member)

    # ==================================================================
    # Retention: TTL reaping of tombstones and one-way records
    # ==================================================================

    def _schedule_reap(self, kind: str, key: DedupKey, record) -> None:
        """Queue one entry for TTL reaping and arm the shared timer.

        Entries are reaped lazily: by the time one expires its target
        may already have been resolved (one-way observed delivered,
        tombstone discarded by a late response), in which case the
        expiry is a no-op.  The single timer always sleeps until the
        earliest queued expiry, which an armed timer already covers."""
        self._reap_queue.append(
            (self.scheduler.now + RETENTION_TTL, kind, key, record))
        timer = self._reap_timer
        if timer is None or not timer.active:
            self._reap_timer = self.after(RETENTION_TTL, self._run_reaper)

    def _run_reaper(self) -> None:
        now = self.scheduler.now
        queue = self._reap_queue
        while queue and queue[0][0] <= now:
            _, kind, key, record = queue.popleft()
            if kind == "cancel":
                if key in self._cancelled:
                    # No response ever arrived for the cancelled
                    # operation (e.g. its server group died): drop the
                    # tombstone and the filter expectation that was
                    # waiting for the response.
                    self._cancelled.discard(key)
                    if record is not None:
                        self._filter.cancel(key)
                    self.stats["cancels_reaped"] += 1
            else:  # "oneway"
                if self._oneways.get(key) is record:
                    # The forwarded INVOCATION was never observed
                    # delivered (lost to a crash or partition): give up
                    # rather than pin the record forever.
                    del self._oneways[key]
                    self.stats["oneways_reaped"] += 1
                    self._maybe_flush_client_gone(key[:2])
        if queue:
            self._reap_timer = self.after(queue[0][0] - now, self._run_reaper)
        else:
            self._reap_timer = None
