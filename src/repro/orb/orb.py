"""The miniature ORB: object adapter, stubs, and request plumbing.

One :class:`Orb` instance lives in each client or server process.  On
the server side it owns an :class:`ObjectAdapter` (servant registry
keyed by object key) and an IIOP listener; on the client side it hands
out :class:`Stub` objects whose invocations travel as real GIOP bytes
over simulated TCP.

The *requester* seam is where the paper's client-side story plugs in: a
stub delegates transmission to a requester object.  The default
:class:`PlainRequester` behaves like a year-2000 commercial ORB — it
uses only the first IOR profile and fails outstanding requests on
connection loss (section 3.4).  The enhanced interception layer of
section 3.5 (:class:`repro.core.client_interceptor.FtClientLayer`)
substitutes its own requester with profile traversal and reinvocation.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import CommFailure, ConfigurationError, NoResponse, ObjectNotExist
from ..iiop.giop import (
    MsgType,
    RequestMessage,
    ServiceContext,
    decode_request,
    encode_request,
    parse_header,
)
from ..iiop.ior import Ior
from ..sim.host import Host, Process
from ..sim.tcp import TcpEndpoint, TcpStack
from ..sim.world import Promise, World
from .connection import IiopClientConnection, IiopServerConnection
from .dispatch import (
    decode_result,
    encode_arguments,
    reply_for_exception,
    reply_for_result,
    run_to_completion,
)
from .idl import Interface, Operation
from .servant import Servant


class ObjectAdapter:
    """Servant registry: object key -> servant (a minimal POA)."""

    def __init__(self) -> None:
        self._servants: Dict[bytes, Servant] = {}
        self._counter = itertools.count(1)

    def activate(self, servant: Servant, key: Optional[bytes] = None) -> bytes:
        if key is None:
            key = f"obj/{servant.interface.name}/{next(self._counter)}".encode()
        if key in self._servants:
            raise ConfigurationError(f"object key {key!r} already active")
        self._servants[key] = servant
        return key

    def lookup(self, key: bytes) -> Servant:
        servant = self._servants.get(key)
        if servant is None:
            raise ObjectNotExist(f"no servant for object key {key!r}")
        return servant

    def __len__(self) -> int:
        return len(self._servants)


class Requester:
    """Strategy interface for transmitting a stub's requests."""

    def service_contexts(self,
                         request_id: Optional[int] = None) -> List[ServiceContext]:
        """Contexts to stamp into an outgoing request.  ``request_id``
        is the id the request will carry (the enhanced layer derives
        its per-invocation trace context from it); it may be omitted by
        callers that only need identity contexts."""
        return []

    def send(self, stub: "Stub", op: Operation, request: RequestMessage,
             encoded: bytes, promise: Promise) -> None:
        raise NotImplementedError

    def abandon(self, stub: "Stub", request_id: int) -> None:
        """The request's deadline expired: keep nothing for it."""


class PlainRequester(Requester):
    """Year-2000 ORB semantics: first profile only, no failover."""

    def __init__(self, orb: "Orb") -> None:
        self.orb = orb

    def send(self, stub: "Stub", op: Operation, request: RequestMessage,
             encoded: bytes, promise: Promise) -> None:
        address = stub.ior.primary_profile().address
        connection = self.orb.connection_to(address)
        if op.oneway:
            try:
                connection.send_oneway(encoded)
            except CommFailure as exc:
                promise.reject(exc)
                return
            promise.resolve(None)
            return

        def on_reply(reply) -> None:
            try:
                promise.resolve(decode_result(op, reply,
                                              little_endian=reply.little_endian))
            except Exception as exc:  # user/system exception from the body
                promise.reject(exc)

        connection.send_request(encoded, request.request_id, on_reply,
                                promise.reject)

    def abandon(self, stub: "Stub", request_id: int) -> None:
        # Still cached: had the connection failed, the request would
        # have failed with it.
        connection = self.orb.cached_connection(
            stub.ior.primary_profile().address)
        if connection is not None:
            connection.abandon(request_id)


class Stub:
    """Client-side proxy for a remote object."""

    def __init__(self, orb: "Orb", ior: Ior, interface: Interface,
                 requester: Optional[Requester] = None) -> None:
        self.orb = orb
        self.ior = ior
        self.interface = interface
        self.requester = requester or orb.default_requester

    def invoke(self, operation: str, args: Sequence[Any] = (),
               timeout: Optional[float] = None) -> Promise:
        """Invoke ``operation`` with ``args``; returns a Promise."""
        op = self.interface.operation(operation)
        promise = Promise()
        request_id = self.orb.next_request_id()
        request = RequestMessage(
            request_id=request_id,
            response_expected=not op.oneway,
            object_key=self.ior.primary_profile().object_key,
            operation=op.name,
            service_contexts=self.requester.service_contexts(request_id),
            body=encode_arguments(op, args),
        )
        encoded = encode_request(request)
        self.requester.send(self, op, request, encoded, promise)
        deadline = timeout if timeout is not None else self.orb.request_timeout
        if deadline is not None and not op.oneway:
            def expire() -> None:
                self.requester.abandon(self, request_id)
                promise.reject(NoResponse(
                    f"{operation} did not complete within {deadline}s"))
            timer = self.orb.host.scheduler.call_after(deadline, expire)
            promise.on_done(lambda _: timer.cancel())
        return promise

    def call(self, operation: str, *args: Any,
             timeout: Optional[float] = None) -> Promise:
        """Ergonomic positional-args variant of :meth:`invoke`."""
        return self.invoke(operation, list(args), timeout=timeout)


class Orb(Process):
    """One ORB instance: client machinery plus an optional server side."""

    def __init__(self, world: World, host: Host, name: Optional[str] = None,
                 request_timeout: Optional[float] = 30.0) -> None:
        super().__init__(host, name or f"orb@{host.name}")
        self.world = world
        self.tcp: TcpStack = world.tcp
        self.adapter = ObjectAdapter()
        self.request_timeout = request_timeout
        self.default_requester: Requester = PlainRequester(self)
        self._request_ids = itertools.count(1)
        self._connections: Dict[Tuple[str, int], IiopClientConnection] = {}
        self._server_connections: List[IiopServerConnection] = []
        self._listener = None
        self._listen_port: Optional[int] = None
        # The pending tables of requesters over this ORB that keep one
        # of their own (the enhanced client's ``FtRequester.pending``).
        self.pending_tables: List[Dict[int, Any]] = []
        self.running = True  # ORBs are live upon construction
        self._register_audit()

    def _register_audit(self) -> None:
        """Requests awaiting a reply, on the cached connections and in
        the requesters' own tables: each ends in a reply, a failure or
        its deadline, so none is left at quiescence."""
        def alive() -> bool:
            return self.host.alive

        self.audit.register(
            "orb.pending", lambda: sum(len(c.pending_request_ids())
                                       for c in self._connections.values()),
            floor=0, owner=self.name, active=alive)
        self.audit.register(
            "client.pending", lambda: sum(len(table)
                                          for table in self.pending_tables),
            floor=0, owner=self.name, active=alive)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def next_request_id(self) -> int:
        return next(self._request_ids)

    def connection_to(self, address: Tuple[str, int]) -> IiopClientConnection:
        """Return a usable connection to ``address``, creating one if the
        cached connection is absent or has failed."""
        connection = self._connections.get(address)
        if connection is None or not connection.usable:
            connection = IiopClientConnection(self.tcp, self.host, address)
            self._connections[address] = connection
        return connection

    def cached_connection(
            self, address: Tuple[str, int]) -> Optional[IiopClientConnection]:
        """The cache entry for ``address`` as it stands — possibly
        failed, never replaced — or None when there is none."""
        return self._connections.get(address)

    def string_to_object(self, ior: Any, interface: Interface,
                         requester: Optional[Requester] = None) -> Stub:
        """Create a stub from an ``IOR:`` string or an :class:`Ior`."""
        if isinstance(ior, str):
            ior = Ior.from_string(ior)
        return Stub(self, ior, interface, requester=requester)

    # ------------------------------------------------------------------
    # Server side (plain, unreplicated CORBA server)
    # ------------------------------------------------------------------

    def listen(self, port: int) -> None:
        if self._listener is not None:
            raise ConfigurationError(f"{self.name} is already listening")
        self._listener = self.tcp.listen(self.host, port, self._on_accept)
        self._listen_port = port

    def activate_object(self, servant: Servant,
                        key: Optional[bytes] = None) -> Ior:
        """Register a servant and return its published single-profile IOR.

        The address placed in the IOR is obtained from
        :meth:`published_address` — the seam Eternal's Interceptor
        overrides to substitute the gateway's address (section 3.1).
        """
        if self._listen_port is None:
            raise ConfigurationError(
                f"{self.name}: listen() before activate_object()")
        object_key = self.adapter.activate(servant, key)
        host, port = self.published_address()
        return Ior.for_endpoints(servant.interface.repo_id,
                                 [(host, port)], object_key)

    def published_address(self) -> Tuple[str, int]:
        """The {host, port} this ORB writes into IORs.

        Equivalent to the ORB querying ``getsockname()``/``sysinfo()``;
        Eternal's Interceptor overrides this method's result to point at
        the gateway.
        """
        assert self._listen_port is not None
        return (self.host.name, self._listen_port)

    def _on_accept(self, endpoint: TcpEndpoint) -> None:
        connection = IiopServerConnection(
            endpoint, self._handle_message,
            on_close=self._server_connections_remove)
        self._server_connections.append(connection)

    def _server_connections_remove(self, connection: IiopServerConnection) -> None:
        if connection in self._server_connections:
            self._server_connections.remove(connection)

    def _handle_message(self, message: bytes,
                        connection: IiopServerConnection) -> None:
        message_type, _, _ = parse_header(message)
        if message_type != MsgType.REQUEST:
            return
        request = decode_request(message)
        try:
            servant = self.adapter.lookup(request.object_key)
            op, value = run_to_completion(servant, request,
                                          little_endian=request.little_endian)
        except Exception as exc:
            if request.response_expected:
                connection.send(reply_for_exception(request.request_id, exc))
            return
        if request.response_expected:
            connection.send(reply_for_result(request.request_id, op, value))
