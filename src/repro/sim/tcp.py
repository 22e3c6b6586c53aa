"""Simulated TCP: reliable FIFO byte streams with listen/accept/close.

This is the transport the paper's *unreplicated* clients use to reach
the gateway.  The gateway's behaviour on this side is protocol-visible:
it listens on a dedicated {gateway host, gateway port}, spawns a new
socket per incoming client, and destroys it when the connection ends
(paper section 3.1) — all of which this module models faithfully.

Streams are byte-oriented: receivers get ``bytes`` chunks whose
boundaries carry no meaning.  An optional ``mtu`` slices every send into
smaller segments so that GIOP framing code is genuinely exercised
against partial reads.  Host crashes sever connections: the surviving
peer observes ``on_close`` after one propagation delay, like a RST.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import CommFailure, ConfigurationError
from .host import Host
from .network import Network

Address = Tuple[str, int]


class TcpEndpoint:
    """One side of an established simulated TCP connection."""

    def __init__(self, stack: "TcpStack", host: Host, local_addr: Address,
                 remote_addr: Address) -> None:
        self.stack = stack
        self.host = host
        self.local_addr = local_addr
        self.remote_addr = remote_addr
        # Numbered per stack: a pure function of the seeded world,
        # never of what else the process built before it.
        self.conn_id = next(stack._conn_ids)
        self.open = True
        self.peer: Optional["TcpEndpoint"] = None
        self.bytes_sent = 0
        self.bytes_received = 0
        # Assignable callbacks; set before any data can arrive.
        self.on_data: Callable[[bytes], None] = lambda data: None
        self.on_close: Callable[[], None] = lambda: None

    def send(self, data: bytes) -> None:
        """Queue ``data`` for in-order delivery to the peer."""
        if not self.open:
            raise CommFailure(f"send on closed connection {self.local_addr}->{self.remote_addr}")
        if not self.host.alive:
            raise CommFailure(f"send from dead host {self.host.name}")
        if not data:
            return
        self.bytes_sent += len(data)
        peer = self.peer
        if peer is None:
            return
        mtu = self.stack.mtu
        segments: List[bytes]
        if mtu is None or len(data) <= mtu:
            segments = [data]
        else:
            segments = [data[i:i + mtu] for i in range(0, len(data), mtu)]
        for segment in segments:
            self.stack.network.send(
                self.host, peer.host, segment, lambda s, p=peer: p._deliver(s),
                size=len(segment),
            )

    def _deliver(self, data: bytes) -> None:
        if not self.open:
            return
        self.bytes_received += len(data)
        self.on_data(data)

    def close(self) -> None:
        """Close both directions; peer observes on_close after latency."""
        if not self.open:
            return
        self.open = False
        self.stack._forget(self)
        peer = self.peer
        if peer is not None and self.host.alive:
            self.stack.network.send(
                self.host, peer.host, None, lambda _ : peer._peer_closed(), size=0,
            )

    def _peer_closed(self) -> None:
        if not self.open:
            return
        self.open = False
        self.stack._forget(self)
        self.on_close()

    def abort_local(self) -> None:
        """Kill this endpoint without notifying anyone (host crash path)."""
        self.open = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else "closed"
        return f"<TcpEndpoint #{self.conn_id} {self.local_addr}->{self.remote_addr} {state}>"


class TcpListener:
    """A passive socket bound to {host, port}, accepting connections."""

    def __init__(self, stack: "TcpStack", host: Host, port: int,
                 on_accept: Callable[[TcpEndpoint], None]) -> None:
        self.stack = stack
        self.host = host
        self.port = port
        self.on_accept = on_accept
        self.open = True
        self.accepted_count = 0

    def close(self) -> None:
        if not self.open:
            return
        self.open = False
        self.stack._listeners.pop((self.host.name, self.port), None)


class TcpStack:
    """Factory for listeners and connections over a simulated network."""

    def __init__(self, network: Network, mtu: Optional[int] = None) -> None:
        self.network = network
        self.mtu = mtu
        self._listeners: Dict[Address, TcpListener] = {}
        self._endpoints_by_host: Dict[str, List[TcpEndpoint]] = {}
        self._ephemeral = itertools.count(30000)
        self._conn_ids = itertools.count(1)
        # The GIOP counts of the IIOP connections over this stack
        # (``repro.orb.connection.giop_stats``).
        self.giop_stats: Optional[Dict[str, int]] = None
        network.on_host_crash(self._handle_host_crash)

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------

    def listen(self, host: Host, port: int,
               on_accept: Callable[[TcpEndpoint], None]) -> TcpListener:
        key = (host.name, port)
        if key in self._listeners:
            raise ConfigurationError(f"port {port} already bound on {host.name}")
        listener = TcpListener(self, host, port, on_accept)
        self._listeners[key] = listener
        return listener

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def connect(
        self,
        host: Host,
        address: Address,
        on_connected: Callable[[TcpEndpoint], None],
        on_error: Callable[[Exception], None],
    ) -> None:
        """Open a connection from ``host`` to ``address`` (host name, port).

        Both callbacks fire after the network round trip: ``on_connected``
        with the client-side endpoint on success, ``on_error`` with a
        :class:`CommFailure` when nothing is listening, the target host
        is dead, or a partition intervenes.
        """
        if not host.alive:
            raise CommFailure(f"connect from dead host {host.name}")
        target_name, port = address
        scheduler = self.network.scheduler
        rtt = 2 * self.network.latency_model.latency(host.name, target_name)

        def attempt() -> None:
            if not host.alive:
                return
            listener = self._listeners.get((target_name, port))
            target = self.network.hosts.get(target_name)
            reachable = (
                listener is not None
                and listener.open
                and target is not None
                and target.alive
                and self.network.can_communicate(host.name, target_name)
            )
            if not reachable:
                on_error(CommFailure(f"connection refused: {target_name}:{port}"))
                return
            local_port = next(self._ephemeral)
            client_end = TcpEndpoint(self, host, (host.name, local_port),
                                     (target_name, port))
            server_end = TcpEndpoint(self, target, (target_name, port),
                                     (host.name, local_port))
            client_end.peer = server_end
            server_end.peer = client_end
            self._endpoints_by_host.setdefault(host.name, []).append(client_end)
            self._endpoints_by_host.setdefault(target_name, []).append(server_end)
            listener.accepted_count += 1
            listener.on_accept(server_end)
            on_connected(client_end)

        scheduler.call_after(rtt, attempt)

    # ------------------------------------------------------------------
    # Failure propagation
    # ------------------------------------------------------------------

    def _handle_host_crash(self, host: Host) -> None:
        for key in [k for k in self._listeners if k[0] == host.name]:
            self._listeners[key].open = False
            del self._listeners[key]
        endpoints = self._endpoints_by_host.pop(host.name, [])
        scheduler = self.network.scheduler
        for endpoint in endpoints:
            endpoint.abort_local()
            peer = endpoint.peer
            if peer is None:
                continue
            # The crashed host cannot send a FIN, but the peer's TCP stack
            # detects the broken connection after a propagation delay
            # (RST on next probe / keepalive timeout, compressed here).
            delay = self.network.latency_model.latency(host.name, peer.host.name)

            def notify(p: TcpEndpoint = peer) -> None:
                if p.open and p.host.alive:
                    p._peer_closed()

            scheduler.call_after(delay, notify)

    def _forget(self, endpoint: TcpEndpoint) -> None:
        endpoints = self._endpoints_by_host.get(endpoint.host.name)
        if endpoints and endpoint in endpoints:
            endpoints.remove(endpoint)
