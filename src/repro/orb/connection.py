"""IIOP connections over simulated TCP.

The client connection correlates GIOP Replies to outstanding Requests
by request id and surfaces connection loss to every pending caller —
the plain-ORB behaviour the paper's section 3.4 analyses: when the
remote endpoint (in our case, a gateway) dies, the client's outstanding
invocations fail with COMM_FAILURE and their fate is unknown.

The server connection frames incoming bytes into complete GIOP messages
and hands them to a handler; it is used both by plain CORBA servers and
by the gateway's client-facing side.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import CommFailure, MarshalError
from ..iiop.giop import (
    GiopFramer,
    MsgType,
    ReplyMessage,
    decode_locate_reply,
    decode_reply,
    encode_message_error,
    parse_header,
)
from ..sim.host import Host
from ..sim.tcp import TcpEndpoint, TcpStack

ReplyHandler = Callable[[ReplyMessage], None]
FailureHandler = Callable[[Exception], None]
# LocateReply handler: receives the raw GIOP message so callers can
# decode the optional OBJECT_FORWARD body themselves.
LocateHandler = Callable[[bytes], None]

# Metric-name suffixes for giop.msg.<type> counters.
_MSG_TYPE_NAMES = {
    MsgType.REQUEST: "request",
    MsgType.REPLY: "reply",
    MsgType.CANCEL_REQUEST: "cancel_request",
    MsgType.LOCATE_REQUEST: "locate_request",
    MsgType.LOCATE_REPLY: "locate_reply",
    MsgType.CLOSE_CONNECTION: "close_connection",
    MsgType.MESSAGE_ERROR: "message_error",
}


def _count_message_type(metrics, message_type: int) -> None:
    name = _MSG_TYPE_NAMES.get(message_type)
    if name is not None:
        metrics.counter(f"giop.msg.{name}").inc()


class IiopClientConnection:
    """Client side of one IIOP connection (lazy connect, reply routing)."""

    CONNECTING = "connecting"
    OPEN = "open"
    CLOSED = "closed"

    def __init__(self, tcp: TcpStack, host: Host, address: Tuple[str, int]) -> None:
        self.tcp = tcp
        self.host = host
        self.address = address
        self.state = IiopClientConnection.CONNECTING
        self.endpoint: Optional[TcpEndpoint] = None
        self._framer = GiopFramer()
        self._send_queue: List[bytes] = []
        self._pending: Dict[int, Tuple[ReplyHandler, FailureHandler]] = {}
        self._pending_locates: Dict[int, Tuple[LocateHandler, FailureHandler]] = {}
        self._closed_listeners: List[Callable[[], None]] = []
        self._metrics = tcp.network.metrics
        self._m_bytes_out = self._metrics.counter("giop.bytes.out", unit="B")
        self._m_bytes_in = self._metrics.counter("giop.bytes.in", unit="B")
        self._framer.counter = self._metrics.counter("giop.bytes.zero_copy",
                                                     unit="B")
        tcp.connect(host, address, self._on_connected, self._on_connect_error)

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------

    def _on_connected(self, endpoint: TcpEndpoint) -> None:
        if self.state == IiopClientConnection.CLOSED:
            endpoint.close()
            return
        self.endpoint = endpoint
        endpoint.on_data = self._on_data
        endpoint.on_close = self._on_peer_close
        self.state = IiopClientConnection.OPEN
        for data in self._send_queue:
            endpoint.send(data)
        self._send_queue.clear()

    def _on_connect_error(self, exc: Exception) -> None:
        self._fail_all(exc)

    def _on_peer_close(self) -> None:
        self._fail_all(CommFailure(f"connection to {self.address} lost"))

    def close(self) -> None:
        if self.state == IiopClientConnection.CLOSED:
            return
        self.state = IiopClientConnection.CLOSED
        if self.endpoint is not None and self.endpoint.open:
            self.endpoint.close()
        self._fail_all(CommFailure("connection closed locally"))

    def on_closed(self, fn: Callable[[], None]) -> None:
        self._closed_listeners.append(fn)

    def _fail_all(self, exc: Exception) -> None:
        self.state = IiopClientConnection.CLOSED
        pending = list(self._pending.values())
        self._pending.clear()
        locates = list(self._pending_locates.values())
        self._pending_locates.clear()
        for _, on_failure in pending:
            on_failure(exc)
        for _, on_failure in locates:
            on_failure(exc)
        for fn in self._closed_listeners:
            fn()
        self._closed_listeners.clear()

    # ------------------------------------------------------------------
    # Request/reply traffic
    # ------------------------------------------------------------------

    @property
    def usable(self) -> bool:
        return self.state in (IiopClientConnection.CONNECTING,
                              IiopClientConnection.OPEN)

    def send_request(self, encoded: bytes, request_id: int,
                     on_reply: ReplyHandler, on_failure: FailureHandler) -> None:
        if not self.usable:
            on_failure(CommFailure(f"connection to {self.address} is closed"))
            return
        self._pending[request_id] = (on_reply, on_failure)
        self._transmit(encoded)

    def send_oneway(self, encoded: bytes) -> None:
        if not self.usable:
            raise CommFailure(f"connection to {self.address} is closed")
        self._transmit(encoded)

    def pending_request_ids(self) -> List[int]:
        return list(self._pending)

    def _transmit(self, data: bytes) -> None:
        # Queued bytes count too: they are committed to the wire once
        # the connect completes (or the whole connection fails).
        self._m_bytes_out.inc(len(data))
        if self.state == IiopClientConnection.OPEN:
            assert self.endpoint is not None
            self.endpoint.send(data)
        else:
            self._send_queue.append(data)

    def _on_data(self, data: bytes) -> None:
        self._m_bytes_in.inc(len(data))
        try:
            messages = self._framer.feed(data)
        except MarshalError:
            # Garbage on the wire: a real ORB sends MessageError and
            # drops the connection; pending requests fail.
            self.close()
            return
        for message in messages:
            message_type, _, _ = parse_header(message)
            _count_message_type(self._metrics, message_type)
            if message_type == MsgType.REPLY:
                try:
                    reply = decode_reply(message)
                except MarshalError:
                    self.close()
                    return
                handlers = self._pending.pop(reply.request_id, None)
                if handlers is not None:
                    handlers[0](reply)
            elif message_type == MsgType.LOCATE_REPLY:
                try:
                    locate_id, _ = decode_locate_reply(message)
                except MarshalError:
                    self.close()
                    return
                locate_handlers = self._pending_locates.pop(locate_id, None)
                if locate_handlers is not None:
                    locate_handlers[0](message)
            elif message_type == MsgType.CLOSE_CONNECTION:
                self._on_peer_close()
            elif message_type == MsgType.MESSAGE_ERROR:
                # The peer could not parse something we sent: nothing
                # in flight can be trusted any more, so fail pending
                # requests and drop the connection (GIOP 1.0 §15.4.8).
                self.close()
                return


class IiopServerConnection:
    """Server side of one IIOP connection (framing + raw-message handler).

    ``handler(message_bytes, connection)`` receives each complete GIOP
    message.  The gateway uses this class directly because it needs the
    raw bytes for encapsulation into multicast messages (section 3.2).
    """

    def __init__(self, endpoint: TcpEndpoint,
                 handler: Callable[[bytes, "IiopServerConnection"], None],
                 on_close: Optional[Callable[["IiopServerConnection"], None]] = None,
                 ) -> None:
        self.endpoint = endpoint
        self.handler = handler
        self._framer = GiopFramer()
        self._close_cb = on_close
        self._metrics = endpoint.stack.network.metrics
        self._m_bytes_out = self._metrics.counter("giop.bytes.out", unit="B")
        self._m_bytes_in = self._metrics.counter("giop.bytes.in", unit="B")
        self._framer.counter = self._metrics.counter("giop.bytes.zero_copy",
                                                     unit="B")
        endpoint.on_data = self._on_data
        endpoint.on_close = self._on_close

    @property
    def open(self) -> bool:
        return self.endpoint.open

    def send(self, data: bytes) -> None:
        if self.endpoint.open:
            self._m_bytes_out.inc(len(data))
            self.endpoint.send(data)

    def close(self) -> None:
        """Hang up.  The owner hears of it exactly as it hears of the
        peer hanging up, so it keeps no record of a dead connection."""
        if self.endpoint.open:
            self.endpoint.close()
            self._on_close()

    def _on_data(self, data: bytes) -> None:
        self._m_bytes_in.inc(len(data))
        try:
            messages = self._framer.feed(data)
        except MarshalError:
            # Not GIOP: answer with MessageError and hang up, as the
            # CORBA spec prescribes for unintelligible input.
            self.send(encode_message_error())
            self.close()
            return
        for message in messages:
            message_type, _, _ = parse_header(message)
            _count_message_type(self._metrics, message_type)
            try:
                self.handler(message, self)
            except MarshalError:
                self.send(encode_message_error())
                self.close()
                return

    def _on_close(self) -> None:
        if self._close_cb is not None:
            self._close_cb(self)
