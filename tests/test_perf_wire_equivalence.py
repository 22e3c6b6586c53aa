"""Property tests pinning the optimised wire layer to reference semantics.

The precompiled CDR primitives, the whole-message GIOP codec, the
per-operation argument codecs and the incremental GIOP framer must be
*byte-for-byte* equivalent to the straightforward implementations they
replaced.  These tests embed small reference implementations — a
per-primitive ``struct.pack`` CDR writer with explicit alignment, the
stream-based Request/Reply codec that builds and parses a message one
primitive at a time, type codes marshalled one by one over a CDR
stream, and a framer that re-parses from the start — and drive both sides with
hypothesis-generated primitive sequences, messages, signatures and
arbitrarily fragmented byte feeds.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MarshalError
from repro.iiop.cdr import CdrInputStream, CdrOutputStream
from repro.iiop.giop import (
    GIOP_HEADER_SIZE,
    GIOP_MAGIC,
    GiopFramer,
    MsgType,
    ReplyMessage,
    RequestMessage,
    ServiceContext,
    decode_reply,
    decode_request,
    encode_cancel_request,
    encode_locate_request,
    encode_reply,
    encode_request,
    parse_header,
)
from repro.iiop.types import (
    TC_BOOLEAN,
    TC_DOUBLE,
    TC_FLOAT,
    TC_LONG,
    TC_LONGLONG,
    TC_OCTET,
    TC_OCTETS,
    TC_SHORT,
    TC_STRING,
    TC_ULONG,
    TC_ULONGLONG,
    TC_USHORT,
    Codec,
    EnumTC,
    SequenceTC,
    StructTC,
)

# ----------------------------------------------------------------------
# Reference CDR writer (the pre-optimisation algorithm, kept deliberately
# naive: align with pad bytes, then struct.pack one value at a time).
# ----------------------------------------------------------------------

_REF_FORMATS = {
    "short": ("h", 2), "ushort": ("H", 2),
    "long": ("l", 4), "ulong": ("L", 4),
    "longlong": ("q", 8), "ulonglong": ("Q", 8),
    "float": ("f", 4), "double": ("d", 8),
}


class ReferenceCdrWriter:
    def __init__(self, little_endian: bool) -> None:
        self.buf = bytearray()
        self.endian = "<" if little_endian else ">"

    def align(self, boundary: int) -> None:
        pad = (-len(self.buf)) % boundary
        self.buf.extend(b"\x00" * pad)

    def write_octet(self, value: int) -> None:
        self.buf.append(value & 0xFF)

    def write_numeric(self, kind: str, value) -> None:
        fmt, alignment = _REF_FORMATS[kind]
        self.align(alignment)
        self.buf.extend(struct.pack(self.endian + fmt, value))

    def write_string(self, value: str) -> None:
        data = value.encode("utf-8") + b"\x00"
        self.write_numeric("ulong", len(data))
        self.buf.extend(data)

    def write_octets(self, value: bytes) -> None:
        self.write_numeric("ulong", len(value))
        self.buf.extend(value)


_INT_RANGES = {
    "short": (-2 ** 15, 2 ** 15 - 1), "ushort": (0, 2 ** 16 - 1),
    "long": (-2 ** 31, 2 ** 31 - 1), "ulong": (0, 2 ** 32 - 1),
    "longlong": (-2 ** 63, 2 ** 63 - 1), "ulonglong": (0, 2 ** 64 - 1),
}


def _primitive():
    kinds = []
    for kind, (lo, hi) in _INT_RANGES.items():
        kinds.append(st.tuples(st.just(kind), st.integers(lo, hi)))
    kinds.append(st.tuples(st.just("octet"), st.integers(0, 255)))
    kinds.append(st.tuples(
        st.just("double"),
        st.floats(allow_nan=False, allow_infinity=False, width=64)))
    # CORBA strings are NUL-terminated on the wire; NUL is rejected.
    # Surrogates are excluded: they are not encodable as UTF-8, so no
    # CORBA string can carry them (write_string would raise either way).
    kinds.append(st.tuples(st.just("string"), st.text(
        alphabet=st.characters(blacklist_characters="\x00",
                               blacklist_categories=("Cs",)),
        max_size=40)))
    kinds.append(st.tuples(st.just("octets"), st.binary(max_size=40)))
    return st.one_of(kinds)


@settings(max_examples=60, deadline=None)
@given(items=st.lists(_primitive(), max_size=30), little=st.booleans())
def test_cdr_output_matches_reference_writer(items, little):
    out = CdrOutputStream(little_endian=little)
    ref = ReferenceCdrWriter(little)
    for kind, value in items:
        if kind == "octet":
            out.write_octet(value)
            ref.write_octet(value)
        elif kind == "string":
            out.write_string(value)
            ref.write_string(value)
        elif kind == "octets":
            out.write_octets(value)
            ref.write_octets(value)
        else:
            getattr(out, f"write_{kind}")(value)
            ref.write_numeric(kind, value)
    assert out.getvalue() == bytes(ref.buf)


@settings(max_examples=60, deadline=None)
@given(items=st.lists(_primitive(), max_size=30), little=st.booleans())
def test_cdr_round_trip_recovers_every_primitive(items, little):
    out = CdrOutputStream(little_endian=little)
    for kind, value in items:
        if kind in ("string", "octets"):
            getattr(out, f"write_{kind}")(value)
        else:
            getattr(out, f"write_{kind}")(value)
    stream = CdrInputStream(out.getvalue(), little_endian=little)
    for kind, value in items:
        got = getattr(stream, f"read_{kind}")()
        if kind == "double":
            assert struct.pack(">d", got) == struct.pack(">d", value)
        else:
            assert got == value
    assert stream.remaining == 0


@settings(max_examples=40, deadline=None)
@given(items=st.lists(_primitive(), max_size=20), little=st.booleans())
def test_cdr_input_accepts_memoryview_identically(items, little):
    out = CdrOutputStream(little_endian=little)
    for kind, value in items:
        getattr(out, f"write_{kind}")(value)
    wire = out.getvalue()
    from_bytes = CdrInputStream(wire, little_endian=little)
    from_view = CdrInputStream(memoryview(wire), little_endian=little)
    for kind, _ in items:
        a = getattr(from_bytes, f"read_{kind}")()
        b = getattr(from_view, f"read_{kind}")()
        assert a == b or (a != a and b != b)  # NaN-tolerant equality


# ----------------------------------------------------------------------
# Framer: arbitrary fragmentation must reassemble the identical message
# sequence a whole-buffer reference parse produces.
# ----------------------------------------------------------------------


def _reference_frames(wire: bytes):
    """Parse ``wire`` into complete GIOP messages, naive slicing."""
    messages, offset = [], 0
    while len(wire) - offset >= GIOP_HEADER_SIZE:
        _, _, size = parse_header(wire[offset:offset + GIOP_HEADER_SIZE])
        total = GIOP_HEADER_SIZE + size
        if len(wire) - offset < total:
            break
        messages.append(wire[offset:offset + total])
        offset += total
    return messages, wire[offset:]


_MESSAGES = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 2 ** 31 - 1), st.binary(max_size=24))
        .map(lambda rk: encode_locate_request(rk[0], rk[1])),
        st.integers(0, 2 ** 31 - 1).map(encode_cancel_request),
    ),
    min_size=1, max_size=6,
)


@settings(max_examples=80, deadline=None)
@given(messages=_MESSAGES, data=st.data())
def test_fragmented_feed_reassembles_reference_frames(messages, data):
    wire = b"".join(messages)
    # Random cut points, including empty chunks and header-splitting cuts.
    cuts = sorted(data.draw(st.lists(
        st.integers(0, len(wire)), max_size=12)))
    chunks, prev = [], 0
    for cut in cuts + [len(wire)]:
        chunks.append(wire[prev:cut])
        prev = cut

    framer = GiopFramer()
    collected = []
    for chunk in chunks:
        collected.extend(framer.feed(chunk))

    expected, trailing = _reference_frames(wire)
    assert collected == expected == messages
    assert trailing == b""
    assert framer.buffered == 0


@settings(max_examples=40, deadline=None)
@given(messages=_MESSAGES)
def test_whole_buffer_feed_is_zero_copy(messages):
    wire_messages = list(messages)
    framer = GiopFramer()
    collected = []
    for msg in wire_messages:
        collected.extend(framer.feed(msg))
    assert collected == wire_messages
    # A single complete message fed as one bytes object is passed
    # through without copying.
    assert all(got is sent for got, sent in zip(collected, wire_messages))
    assert framer.stats["zero_copy_bytes"] == sum(len(m) for m in wire_messages)


@settings(max_examples=40, deadline=None)
@given(messages=_MESSAGES, trailing=st.binary(min_size=1, max_size=11))
def test_trailing_partial_header_stays_buffered(messages, trailing):
    wire = b"".join(messages) + trailing
    framer = GiopFramer()
    collected = framer.feed(wire)
    expected, rest = _reference_frames(wire)
    assert collected == expected
    assert framer.buffered == len(rest)


# ----------------------------------------------------------------------
# Request / Reply: the whole-message codec against the stream-based one
# it replaced (kept here verbatim as the reference).
# ----------------------------------------------------------------------


def _ref_header(out, message_type, little_endian):
    size = len(out) - GIOP_HEADER_SIZE
    header = bytearray(GIOP_MAGIC)
    header += bytes([1, 0, 1 if little_endian else 0, message_type])
    header += size.to_bytes(4, "little" if little_endian else "big")
    out.patch_raw(0, bytes(header))
    return out.getvalue()


def _ref_write_contexts(out, contexts):
    out.write_ulong(len(contexts))
    for ctx in contexts:
        out.write_ulong(ctx.context_id)
        out.write_octets(ctx.data)


def _ref_read_string(stream):
    """A CORBA string, read without the codec's shared string reader."""
    length = stream.read_ulong()
    if length == 0:
        raise MarshalError("string length 0")
    raw = stream.read_raw(length)
    if raw[-1] != 0:
        raise MarshalError("string missing trailing NUL")
    try:
        return raw[:-1].decode("utf-8")
    except UnicodeDecodeError:
        raise MarshalError("string is not UTF-8") from None


def _ref_read_contexts(stream):
    count = stream.read_ulong()
    if count > 1024:
        raise MarshalError(f"implausible service context count {count}")
    return [ServiceContext(stream.read_ulong(), stream.read_octets())
            for _ in range(count)]


def ref_encode_request(msg, little_endian=False):
    out = CdrOutputStream(little_endian=little_endian)
    out.write_raw(b"\x00" * GIOP_HEADER_SIZE)
    _ref_write_contexts(out, msg.service_contexts)
    out.write_ulong(msg.request_id)
    out.write_boolean(msg.response_expected)
    out.write_octets(msg.object_key)
    out.write_string(msg.operation)
    out.write_octets(msg.principal)
    out.align(8)
    out.write_raw(msg.body)
    return _ref_header(out, MsgType.REQUEST, little_endian)


def ref_encode_reply(msg, little_endian=False):
    out = CdrOutputStream(little_endian=little_endian)
    out.write_raw(b"\x00" * GIOP_HEADER_SIZE)
    _ref_write_contexts(out, msg.service_contexts)
    out.write_ulong(msg.request_id)
    out.write_ulong(msg.status)
    out.align(8)
    out.write_raw(msg.body)
    return _ref_header(out, MsgType.REPLY, little_endian)


def _ref_body_stream(message, expected):
    message_type, little_endian, size = parse_header(message)
    if message_type != expected:
        raise MarshalError(f"not type {expected}")
    if len(message) != GIOP_HEADER_SIZE + size:
        raise MarshalError("size mismatch")
    stream = CdrInputStream(message, little_endian=little_endian)
    stream.read_raw(GIOP_HEADER_SIZE)
    return stream, little_endian


def ref_decode_request(message):
    stream, little_endian = _ref_body_stream(message, MsgType.REQUEST)
    contexts = _ref_read_contexts(stream)
    request_id = stream.read_ulong()
    response_expected = stream.read_boolean()
    object_key = stream.read_octets()
    operation = _ref_read_string(stream)
    principal = stream.read_octets()
    stream.align(8)
    return RequestMessage(
        request_id=request_id, response_expected=response_expected,
        object_key=object_key, operation=operation,
        service_contexts=contexts, principal=principal,
        body=stream.read_raw(stream.remaining), little_endian=little_endian)


def ref_decode_reply(message):
    stream, little_endian = _ref_body_stream(message, MsgType.REPLY)
    contexts = _ref_read_contexts(stream)
    request_id = stream.read_ulong()
    status = stream.read_ulong()
    stream.align(8)
    return ReplyMessage(request_id=request_id, status=status,
                        service_contexts=contexts,
                        body=stream.read_raw(stream.remaining),
                        little_endian=little_endian)


_ULONGS = st.integers(0, 2 ** 32 - 1)
_TEXT = st.text(alphabet=st.characters(blacklist_characters="\x00",
                                       blacklist_categories=("Cs",)),
                max_size=16)
_CONTEXTS = st.lists(st.builds(ServiceContext, _ULONGS,
                               st.binary(max_size=20)), max_size=4)
_REQUESTS = st.builds(
    RequestMessage, request_id=_ULONGS, response_expected=st.booleans(),
    object_key=st.binary(max_size=24), operation=_TEXT,
    service_contexts=_CONTEXTS, principal=st.binary(max_size=8),
    body=st.binary(max_size=24))
_REPLIES = st.builds(
    ReplyMessage, request_id=_ULONGS, status=_ULONGS,
    service_contexts=_CONTEXTS, body=st.binary(max_size=24))

# (message strategy, compiled encode, reference encode, compiled decode,
# reference decode) for each message type.
_KINDS = {
    "request": (_REQUESTS, encode_request, ref_encode_request,
                decode_request, ref_decode_request),
    "reply": (_REPLIES, encode_reply, ref_encode_reply,
              decode_reply, ref_decode_reply),
}


def _outcome(decode, message):
    """What decoding ``message`` gives, as its ``repr`` (so a decoded NaN
    equals itself): the message, or MarshalError."""
    try:
        return repr(decode(message))
    except MarshalError:
        return "MarshalError"


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_KINDS)), little=st.booleans(),
       data=st.data())
def test_compiled_message_bytes_equal_reference_bytes(kind, little, data):
    messages, encode, ref_encode, _, _ = _KINDS[kind]
    msg = data.draw(messages)
    assert encode(msg, little_endian=little) == \
        ref_encode(msg, little_endian=little)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_KINDS)), little=st.booleans(),
       data=st.data())
def test_compiled_message_round_trip(kind, little, data):
    messages, encode, _, decode, ref_decode = _KINDS[kind]
    msg = data.draw(messages)
    msg.little_endian = little
    wire = encode(msg, little_endian=little)
    assert decode(wire) == msg
    assert decode(memoryview(wire)) == msg
    assert ref_decode(wire) == msg


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(_KINDS)), little=st.booleans(),
       data=st.data())
def test_every_truncation_is_a_marshal_error(kind, little, data):
    """Every prefix of a valid message is rejected with MarshalError
    alone.  With the header's size field rewritten to match the cut,
    the decoder must agree with the reference on every prefix: the
    same message, or MarshalError from both."""
    messages, encode, _, decode, ref_decode = _KINDS[kind]
    wire = encode(data.draw(messages), little_endian=little)
    order = "little" if little else "big"
    for cut in range(len(wire)):
        with pytest.raises(MarshalError):
            decode(wire[:cut])
        if cut < GIOP_HEADER_SIZE:
            continue
        relabelled = (wire[:8] + (cut - GIOP_HEADER_SIZE).to_bytes(4, order)
                      + wire[GIOP_HEADER_SIZE:cut])
        assert _outcome(decode, relabelled) == \
            _outcome(ref_decode, relabelled)


def _corrupt(wire, flip, start=0):
    """``wire`` with the octet at a drawn offset (at or after ``start``)
    replaced by a drawn value."""
    if len(wire) <= start:
        return wire
    at = start + flip[0] % (len(wire) - start)
    return wire[:at] + bytes([flip[1]]) + wire[at + 1:]


_FLIPS = st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 255)),
                  min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(_KINDS)), little=st.booleans(),
       flips=_FLIPS, data=st.data())
def test_corrupted_messages_decode_like_the_reference(kind, little, flips,
                                                      data):
    """A valid message with octets after its header overwritten: the
    same message or MarshalError from both decoders."""
    messages, encode, _, decode, ref_decode = _KINDS[kind]
    wire = encode(data.draw(messages), little_endian=little)
    for flip in flips:
        wire = _corrupt(wire, flip, GIOP_HEADER_SIZE)
    assert _outcome(decode, wire) == _outcome(ref_decode, wire)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_KINDS)), little=st.booleans(),
       body=st.binary(max_size=64))
def test_arbitrary_bytes_decode_like_the_reference(kind, little, body):
    """Garbage after a valid header: the same message or MarshalError
    from both decoders (never another exception)."""
    _, _, _, decode, ref_decode = _KINDS[kind]
    message_type = MsgType.REQUEST if kind == "request" else MsgType.REPLY
    wire = (GIOP_MAGIC + bytes([1, 0, little, message_type])
            + len(body).to_bytes(4, "little" if little else "big") + body)
    assert _outcome(decode, wire) == _outcome(ref_decode, wire)


# ----------------------------------------------------------------------
# Per-operation codecs: a compiled Codec against the type codes
# marshalled one by one over a CDR stream (the reference).
# ----------------------------------------------------------------------

_SIDE = EnumTC("Side", ["BUY", "SELL", "HOLD"])
_POINT = StructTC("Point", [("x", TC_SHORT), ("label", TC_STRING),
                            ("z", TC_DOUBLE)])
_LEAVES = [TC_BOOLEAN, TC_OCTET, TC_SHORT, TC_USHORT, TC_LONG, TC_ULONG,
           TC_LONGLONG, TC_ULONGLONG, TC_FLOAT, TC_DOUBLE, TC_STRING,
           TC_OCTETS, _SIDE, _POINT, SequenceTC(TC_LONG),
           SequenceTC(TC_STRING), SequenceTC(_POINT)]

_INT_KINDS = {"octet": (0, 255), **_INT_RANGES}


def values_of(tc):
    """A strategy for the Python values of type code ``tc``."""
    if tc.kind in _INT_KINDS:
        return st.integers(*_INT_KINDS[tc.kind])
    if tc.kind == "boolean":
        return st.booleans()
    if tc.kind == "float":
        return st.floats(allow_nan=False, width=32)
    if tc.kind == "double":
        return st.floats(allow_nan=False)
    if tc.kind == "string":
        return _TEXT
    if tc.kind == "octets":
        return st.binary(max_size=12)
    if tc.kind == "void":
        return st.none()
    if tc.kind == "enum":
        return st.sampled_from(tc.members)
    if tc.kind == "sequence":
        return st.lists(values_of(tc.element), max_size=4)
    assert tc.kind == "struct", tc
    return st.fixed_dictionaries({name: values_of(field)
                                  for name, field in tc.fields})


def ref_encode_values(typecodes, values, little_endian):
    out = CdrOutputStream(little_endian=little_endian)
    for tc, value in zip(typecodes, values):
        tc.encode(out, value)
    return out.getvalue()


def ref_decode_values(typecodes, body, little_endian):
    stream = CdrInputStream(body, little_endian=little_endian)
    return [_ref_read_string(stream) if tc is TC_STRING else tc.decode(stream)
            for tc in typecodes]


def _check_codec(codec, values, little, flips):
    """Compiled bytes equal the reference's, both decoders return the
    values, and every prefix and corruption of the bytes decodes alike
    (the same values, or MarshalError from both)."""
    wire = codec.encode(values, little_endian=little)
    assert wire == ref_encode_values(codec.typecodes, values, little)
    assert codec.decode(wire, little_endian=little) == list(values)
    assert ref_decode_values(codec.typecodes, wire, little) == list(values)

    def agree(body):
        assert _outcome(lambda b: codec.decode(b, little), body) == \
            _outcome(lambda b: ref_decode_values(codec.typecodes, b, little),
                     body)

    for cut in range(len(wire)):
        agree(wire[:cut])
    for flip in flips:
        wire = _corrupt(wire, flip)
        agree(wire)


@settings(max_examples=200, deadline=None)
@given(little=st.booleans(), flips=_FLIPS, data=st.data())
def test_compiled_signature_matches_reference_typecodes(little, flips, data):
    typecodes = data.draw(st.lists(st.sampled_from(_LEAVES), max_size=8))
    values = [data.draw(values_of(tc)) for tc in typecodes]
    _check_codec(Codec(typecodes), values, little, flips)


def _app_operations():
    import repro.apps as apps
    return [op for name in sorted(apps.__all__)
            if name.endswith("_INTERFACE")
            for _, op in sorted(getattr(apps, name).operations.items())]


@settings(max_examples=200, deadline=None)
@given(op=st.sampled_from(_app_operations()), little=st.booleans(),
       flips=_FLIPS, data=st.data())
def test_every_app_operation_codec_round_trips(op, little, flips, data):
    args = [data.draw(values_of(p.typecode)) for p in op.params]
    _check_codec(op.arguments_codec, args, little, flips)
    _check_codec(op.result_codec, [data.draw(values_of(op.result))], little,
                 flips)
