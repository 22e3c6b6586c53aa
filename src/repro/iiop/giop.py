"""GIOP 1.0 messages: headers, Request, Reply, framing.

The gateway's job (paper section 3.2) is to pick complete IIOP messages
off a TCP byte stream, interpret just enough of them (object key,
request id, service contexts) to route and deduplicate, and forward the
*whole message* into or out of the fault tolerance domain.  This module
provides exactly that: message encode/decode plus an incremental
:class:`GiopFramer` that tolerates arbitrary segmentation of the byte
stream.

Request and Reply, the messages on every hop, are marshalled whole:
each encoder is straight-line ``struct`` code that collects one list of
parts (padding computed inline, the header packed last, once the size
is known) and joins it once; each decoder walks the message with
``unpack_from`` and checks the bounds before every field, so a
truncated or lying message is a :class:`~repro.errors.MarshalError`,
never an ``IndexError`` or ``struct.error``.  The rarer Locate and
Cancel messages still go through the generic CDR streams.

GIOP 1.0 is used because it is what 1999/2000-era ORBs spoke; its
Request header carries the ``principal`` field and a boolean byte-order
flag, both encoded here faithfully.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import MarshalError
from .cdr import (
    PADDING,
    ULONG,
    Buffer,
    CdrInputStream,
    CdrOutputStream,
    encode_text,
    read_octets_at,
    read_string_at,
)

GIOP_MAGIC = b"GIOP"
GIOP_HEADER_SIZE = 12


class MsgType:
    """GIOP message type octet values."""

    REQUEST = 0
    REPLY = 1
    CANCEL_REQUEST = 2
    LOCATE_REQUEST = 3
    LOCATE_REPLY = 4
    CLOSE_CONNECTION = 5
    MESSAGE_ERROR = 6


class ReplyStatus:
    """GIOP reply status values."""

    NO_EXCEPTION = 0
    USER_EXCEPTION = 1
    SYSTEM_EXCEPTION = 2
    LOCATION_FORWARD = 3


@dataclass
class ServiceContext:
    """One entry of a GIOP service context list.

    The paper's enhanced client layer (section 3.5) uses a vendor
    service context to carry the unique TCP client identifier; standard
    ORBs ignore contexts they do not understand, which is the property
    the paper relies on.
    """

    context_id: int
    data: bytes


@dataclass
class RequestMessage:
    """GIOP 1.0 Request (header fields + opaque body bytes)."""

    request_id: int
    response_expected: bool
    object_key: bytes
    operation: str
    service_contexts: List[ServiceContext] = field(default_factory=list)
    principal: bytes = b""
    body: bytes = b""
    little_endian: bool = False  # wire byte order, set by decode_request

    def find_context(self, context_id: int) -> Optional[bytes]:
        for ctx in self.service_contexts:
            if ctx.context_id == context_id:
                return ctx.data
        return None


@dataclass
class ReplyMessage:
    """GIOP 1.0 Reply (header fields + opaque body bytes)."""

    request_id: int
    status: int
    service_contexts: List[ServiceContext] = field(default_factory=list)
    body: bytes = b""
    little_endian: bool = False  # wire byte order, set by decode_reply


# One precompiled Struct per byte order (index: the little-endian flag)
# for each fixed stretch of a message.
_HEADER = (struct.Struct(">4sBBBBI"), struct.Struct("<4sBBBBI"))
# (context id, data length) of a service context; (request id, status)
# of a Reply header.
_TWO_ULONGS = (struct.Struct(">II"), struct.Struct("<II"))
# Request header: request id, response_expected, the three pad octets
# before the object key, the object key's length.
_REQUEST_FIXED = (struct.Struct(">I?3xI"), struct.Struct("<I?3xI"))
# More contexts than this is a malformed (or hostile) message.
_MAX_CONTEXTS = 1024


def _underflow(what: str, pos: int, end: int) -> MarshalError:
    return MarshalError(f"GIOP underflow: {what} at {pos} overruns {end}")


def _context_parts(parts: List[bytes], contexts: List[ServiceContext],
                   little_endian: bool) -> int:
    """Append a service context list at message offset 12; return the
    offset after it."""
    parts.append(ULONG[little_endian].pack(len(contexts)))
    pos = GIOP_HEADER_SIZE + 4
    pair = _TWO_ULONGS[little_endian]
    for ctx in contexts:
        data = ctx.data
        pad = -pos & 3
        parts += (PADDING[pad], pair.pack(ctx.context_id, len(data)), data)
        pos += pad + 8 + len(data)
    return pos


def _read_contexts(message: bytes, end: int, little_endian: bool
                   ) -> Tuple[List[ServiceContext], int]:
    """Parse the service context list at message offset 12; return it
    and the offset after it."""
    pos = GIOP_HEADER_SIZE
    if pos + 4 > end:
        raise _underflow("service context count", pos, end)
    count: int = ULONG[little_endian].unpack_from(message, pos)[0]
    if count > _MAX_CONTEXTS:
        raise MarshalError(f"implausible service context count {count}")
    pos += 4
    pair = _TWO_ULONGS[little_endian]
    contexts: List[ServiceContext] = []
    for _ in range(count):
        pos += -pos & 3
        if pos + 8 > end:
            raise _underflow("service context", pos, end)
        context_id, length = pair.unpack_from(message, pos)
        pos += 8
        if pos + length > end:
            raise _underflow("service context data", pos, end)
        contexts.append(ServiceContext(context_id, message[pos:pos + length]))
        pos += length
    return contexts, pos


def _giop_header(message_type: int, size: int, little_endian: bool) -> bytes:
    header: bytes = _HEADER[little_endian].pack(
        GIOP_MAGIC, 1, 0, little_endian, message_type, size)
    return header


def _finalise(out: CdrOutputStream, message_type: int,
              little_endian: bool) -> bytes:
    """Patch the real header over the reserved 12-byte slot of a
    stream-built message and return it in a single copy."""
    size = len(out) - GIOP_HEADER_SIZE
    out.patch_raw(0, _giop_header(message_type, size, little_endian))
    return out.getvalue()


def encode_request(msg: RequestMessage, little_endian: bool = False) -> bytes:
    """Encode a complete GIOP 1.0 Request message (header + body)."""
    ulong = ULONG[little_endian]
    parts: List[bytes] = [b""]  # the header, once the size is known
    try:
        pos = _context_parts(parts, msg.service_contexts, little_endian)
        key = msg.object_key
        pad = -pos & 3
        parts += (PADDING[pad], _REQUEST_FIXED[little_endian].pack(
            msg.request_id, msg.response_expected, len(key)), key)
        pos += pad + 12 + len(key)
        operation = encode_text(msg.operation)
        pad = -pos & 3
        parts += (PADDING[pad], ulong.pack(len(operation) + 1), operation,
                  b"\x00")
        pos += pad + 5 + len(operation)
        principal = msg.principal
        pad = -pos & 3
        parts += (PADDING[pad], ulong.pack(len(principal)), principal)
        pos += pad + 4 + len(principal)
        # Deviation from strict GIOP 1.0, applied consistently on both
        # paths: the body starts on an 8-byte boundary so argument bytes
        # can be marshalled in a standalone buffer (offset 0) and
        # spliced in.
        pad = -pos & 7
        parts += (PADDING[pad], msg.body)
        pos += pad + len(msg.body)
        parts[0] = _HEADER[little_endian].pack(
            GIOP_MAGIC, 1, 0, little_endian, MsgType.REQUEST,
            pos - GIOP_HEADER_SIZE)
    except struct.error as exc:
        raise MarshalError(f"cannot encode Request: {exc}") from exc
    return b"".join(parts)


def encode_reply(msg: ReplyMessage, little_endian: bool = False) -> bytes:
    """Encode a complete GIOP 1.0 Reply message (header + body)."""
    parts: List[bytes] = [b""]  # the header, once the size is known
    try:
        pos = _context_parts(parts, msg.service_contexts, little_endian)
        pad = -pos & 3
        parts += (PADDING[pad],
                  _TWO_ULONGS[little_endian].pack(msg.request_id, msg.status))
        pos += pad + 8
        pad = -pos & 7  # body alignment, see encode_request
        parts += (PADDING[pad], msg.body)
        pos += pad + len(msg.body)
        parts[0] = _HEADER[little_endian].pack(
            GIOP_MAGIC, 1, 0, little_endian, MsgType.REPLY,
            pos - GIOP_HEADER_SIZE)
    except struct.error as exc:
        raise MarshalError(f"cannot encode Reply: {exc}") from exc
    return b"".join(parts)


class LocateStatus:
    """GIOP LocateReply status values."""

    UNKNOWN_OBJECT = 0
    OBJECT_HERE = 1
    OBJECT_FORWARD = 2


# reprolint: disable=FLOW002 -- client-side encoder: in-tree ORBs only decode LocateRequests; plain-ORB test clients emit them
def encode_locate_request(request_id: int, object_key: bytes,
                          little_endian: bool = False) -> bytes:
    """GIOP 1.0 LocateRequest: 'is this object here?' probes that real
    ORBs send before (or instead of) a first request."""
    out = CdrOutputStream(little_endian=little_endian)
    out.write_raw(b"\x00" * GIOP_HEADER_SIZE)
    out.write_ulong(request_id)
    out.write_octets(object_key)
    return _finalise(out, MsgType.LOCATE_REQUEST, little_endian)


def decode_locate_request(message: bytes) -> Tuple[int, bytes]:
    """Returns (request_id, object_key)."""
    message_type, little_endian, size = parse_header(message)
    if message_type != MsgType.LOCATE_REQUEST:
        raise MarshalError(f"not a LocateRequest (type {message_type})")
    stream = _body_stream(message, little_endian)
    request_id = stream.read_ulong()
    object_key = stream.read_octets()
    return request_id, object_key


def encode_locate_reply(request_id: int, status: int,
                        little_endian: bool = False,
                        forward_ior=None) -> bytes:
    """GIOP LocateReply.  An ``OBJECT_FORWARD`` status carries the IOR
    the client should retry against as the reply body, exactly as GIOP
    1.0 specifies; ``decode_locate_reply`` reads only the two leading
    ulongs, so readers unaware of the body remain compatible."""
    out = CdrOutputStream(little_endian=little_endian)
    out.write_raw(b"\x00" * GIOP_HEADER_SIZE)
    out.write_ulong(request_id)
    out.write_ulong(status)
    if forward_ior is not None:
        forward_ior.encode(out)
    return _finalise(out, MsgType.LOCATE_REPLY, little_endian)


def decode_locate_reply(message: bytes) -> Tuple[int, int]:
    """Returns (request_id, locate_status)."""
    message_type, little_endian, size = parse_header(message)
    if message_type != MsgType.LOCATE_REPLY:
        raise MarshalError(f"not a LocateReply (type {message_type})")
    stream = _body_stream(message, little_endian)
    return stream.read_ulong(), stream.read_ulong()


# reprolint: disable=FLOW002,FLOW003 -- client-side decoder for the OBJECT_FORWARD body that encode_locate_reply(forward_ior=...) emits; re-homed plain-ORB test clients call it
def decode_locate_forward(message: bytes):
    """Decode the forwarding IOR from an ``OBJECT_FORWARD`` LocateReply;
    ``None`` when the reply carries another status (or no body)."""
    from .ior import Ior  # giop does not depend on ior at import time
    message_type, little_endian, size = parse_header(message)
    if message_type != MsgType.LOCATE_REPLY:
        raise MarshalError(f"not a LocateReply (type {message_type})")
    stream = _body_stream(message, little_endian)
    stream.read_ulong()  # request_id
    if stream.read_ulong() != LocateStatus.OBJECT_FORWARD:
        return None
    return Ior.decode(stream)


# reprolint: disable=FLOW002 -- client-side encoder: in-tree gateways only decode CancelRequests; test clients emit them
def encode_cancel_request(request_id: int, little_endian: bool = False) -> bytes:
    """GIOP CancelRequest: best-effort 'stop working on request N'."""
    out = CdrOutputStream(little_endian=little_endian)
    out.write_raw(b"\x00" * GIOP_HEADER_SIZE)
    out.write_ulong(request_id)
    return _finalise(out, MsgType.CANCEL_REQUEST, little_endian)


def decode_cancel_request(message: bytes) -> int:
    """Returns the cancelled request_id."""
    message_type, little_endian, size = parse_header(message)
    if message_type != MsgType.CANCEL_REQUEST:
        raise MarshalError(f"not a CancelRequest (type {message_type})")
    stream = _body_stream(message, little_endian)
    return stream.read_ulong()


# reprolint: disable=FLOW002,FLOW003 -- header-only message (no body to decode); we never originate CloseConnection but peer ORBs may, and the client connection handles it
def encode_close_connection(little_endian: bool = False) -> bytes:
    return _giop_header(MsgType.CLOSE_CONNECTION, 0, little_endian)


# reprolint: disable=FLOW003 -- header-only message: MESSAGE_ERROR carries no body, parse_header is its decoder
def encode_message_error(little_endian: bool = False) -> bytes:
    return _giop_header(MsgType.MESSAGE_ERROR, 0, little_endian)


def parse_header(data: Buffer) -> Tuple[int, bool, int]:
    """Parse a 12-byte GIOP header -> (message_type, little_endian, size).

    Accepts any bytes-like buffer (``bytes``, ``bytearray``,
    ``memoryview``) so callers can parse borrowed views in place.
    """
    if len(data) < GIOP_HEADER_SIZE:
        raise MarshalError("short GIOP header")
    magic, major, minor, flags, message_type, size = \
        _HEADER[0].unpack_from(data)
    if magic != GIOP_MAGIC:
        raise MarshalError(f"bad GIOP magic {magic!r}")
    if major != 1:
        raise MarshalError(f"unsupported GIOP version {major}.{minor}")
    if flags & 1:
        return message_type, True, ULONG[1].unpack_from(data, 8)[0]
    return message_type, False, size


def _body_stream(message: bytes, little_endian: bool) -> CdrInputStream:
    """Stream over the whole message with the cursor past the header,
    preserving message-relative alignment."""
    stream = CdrInputStream(message, little_endian=little_endian)
    stream.read_raw(GIOP_HEADER_SIZE)
    return stream


def _framed(message: Buffer, expected: int, name: str) -> Tuple[bytes, bool]:
    """Check a whole message's header: (the message as bytes, its byte
    order)."""
    message_type, little_endian, size = parse_header(message)
    if message_type != expected:
        raise MarshalError(f"not a {name} message (type {message_type})")
    if len(message) != GIOP_HEADER_SIZE + size:
        raise MarshalError(f"{name} size mismatch")
    return bytes(message), little_endian  # no copy when already bytes


def decode_request(message: Buffer) -> RequestMessage:
    """Decode a complete Request message (as produced by the framer)."""
    message, little_endian = _framed(message, MsgType.REQUEST, "Request")
    end = len(message)
    contexts, pos = _read_contexts(message, end, little_endian)
    pos += -pos & 3
    if pos + 12 > end:
        raise _underflow("Request header", pos, end)
    request_id, response_expected, key_length = \
        _REQUEST_FIXED[little_endian].unpack_from(message, pos)
    pos += 12
    stop = pos + key_length
    if stop > end:
        raise _underflow("object key", pos, end)
    object_key = message[pos:stop]
    operation, pos = read_string_at(message, stop, end, little_endian)
    principal, stop = read_octets_at(message, pos, end, little_endian)
    pos = stop + (-stop & 7)
    if pos > end:
        raise _underflow("Request body", pos, end)
    return RequestMessage(
        request_id=request_id,
        response_expected=response_expected,
        object_key=object_key,
        operation=operation,
        service_contexts=contexts,
        principal=principal,
        body=message[pos:],
        little_endian=little_endian,
    )


def decode_reply(message: Buffer) -> ReplyMessage:
    """Decode a complete Reply message (as produced by the framer)."""
    message, little_endian = _framed(message, MsgType.REPLY, "Reply")
    end = len(message)
    contexts, pos = _read_contexts(message, end, little_endian)
    pos += -pos & 3
    if pos + 8 > end:
        raise _underflow("Reply header", pos, end)
    request_id, status = _TWO_ULONGS[little_endian].unpack_from(message, pos)
    pos += 8
    pos += -pos & 7
    if pos > end:
        raise _underflow("Reply body", pos, end)
    return ReplyMessage(request_id=request_id, status=status,
                        service_contexts=contexts, body=message[pos:],
                        little_endian=little_endian)


class GiopFramer:
    """Incremental GIOP message framer over a byte stream.

    Feed arbitrary chunks; complete messages (header + body bytes) come
    out.  Keeps at most one partial message buffered.

    The hot path is zero-copy: messages wholly contained in the fed
    chunk are sliced straight out of it via :class:`memoryview` (and
    when a chunk *is* exactly one message — the overwhelmingly common
    case on the simulated connections — the chunk object itself is
    returned untouched).  Only bytes that straddle chunk boundaries are
    staged in the partial-message buffer, and the header of that
    pending message is parsed once and cached in ``_need`` rather than
    re-parsed on every subsequent call.

    ``zero_copy_bytes`` counts the bytes delivered straight from fed
    chunks without passing through the staging buffer; assign an
    ``repro.obs`` counter to ``counter`` to export it as
    ``giop.bytes.zero_copy``.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        # Total (header + body) size of the buffered partial message,
        # or None while fewer than 12 bytes are buffered.  Invariant:
        # _need is None  iff  len(_buffer) < GIOP_HEADER_SIZE.
        self._need: Optional[int] = None
        self.zero_copy_bytes = 0
        self.counter = None  # optional repro.obs Counter

    def feed(self, data: bytes) -> List[bytes]:
        """Add stream bytes; return every newly completed message."""
        messages: List[bytes] = []
        view = memoryview(data)
        n = len(view)
        offset = 0
        buf = self._buffer
        if buf:
            # Finish the pending partial message first.
            if self._need is None:
                take = min(GIOP_HEADER_SIZE - len(buf), n)
                buf += view[:take]
                offset = take
                if len(buf) < GIOP_HEADER_SIZE:
                    return messages
                _, _, size = parse_header(buf)
                self._need = GIOP_HEADER_SIZE + size
            take = min(self._need - len(buf), n - offset)
            buf += view[offset:offset + take]
            offset += take
            if len(buf) < self._need:
                return messages
            messages.append(bytes(buf))
            buf.clear()
            self._need = None
        fast_path_bytes = 0
        while n - offset >= GIOP_HEADER_SIZE:
            _, _, size = parse_header(view[offset:offset + GIOP_HEADER_SIZE])
            total = GIOP_HEADER_SIZE + size
            if n - offset < total:
                break
            if offset == 0 and total == n and type(data) is bytes:
                # The chunk is exactly one message: hand it back as-is.
                messages.append(data)
            else:
                messages.append(bytes(view[offset:offset + total]))
            fast_path_bytes += total
            offset += total
        if offset < n:
            # Stage the trailing fragment; cache its size if the header
            # is already complete so later calls never re-parse it.
            buf += view[offset:]
            if len(buf) >= GIOP_HEADER_SIZE:
                _, _, size = parse_header(buf)
                self._need = GIOP_HEADER_SIZE + size
        if fast_path_bytes:
            self.zero_copy_bytes += fast_path_bytes
            if self.counter is not None:
                self.counter.inc(fast_path_bytes)
        return messages

    @property
    def buffered(self) -> int:
        return len(self._buffer)
