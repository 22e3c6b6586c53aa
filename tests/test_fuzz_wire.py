"""Fuzz-style property tests: adversarial bytes against the wire codecs.

Internet-facing code (the gateway parses whatever a TCP peer sends)
must fail *only* with MarshalError — never hang, never raise anything
else, never misinterpret garbage as a valid message.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import MarshalError
from repro.iiop import (
    ETERNAL_CLIENT_ID_CONTEXT,
    CdrInputStream,
    ClientIdContext,
    GiopFramer,
    Ior,
    decode_reply,
    decode_request,
    encode_request,
    extract_client_id,
    parse_header,
    RequestMessage,
    ServiceContext,
)


@settings(max_examples=300)
@given(st.binary(max_size=128))
def test_framer_never_raises_anything_but_marshal_error(data):
    framer = GiopFramer()
    try:
        framer.feed(data)
    except MarshalError:
        pass


@settings(max_examples=300)
@given(st.binary(min_size=12, max_size=128))
def test_parse_header_is_total(data):
    try:
        message_type, little_endian, size = parse_header(data)
    except MarshalError:
        return
    assert 0 <= message_type <= 255
    assert size >= 0


@settings(max_examples=200)
@given(st.binary(max_size=200))
def test_decode_request_rejects_or_decodes(data):
    """Random bytes with a forged valid REQUEST header must either
    decode (vanishingly unlikely) or raise MarshalError."""
    header = (b"GIOP" + bytes([1, 0, 0, 0])
              + len(data).to_bytes(4, "big"))
    try:
        decode_request(header + data)
    except MarshalError:
        pass


@settings(max_examples=200)
@given(st.binary(max_size=200))
def test_decode_reply_rejects_or_decodes(data):
    header = (b"GIOP" + bytes([1, 0, 0, 1])
              + len(data).to_bytes(4, "big"))
    try:
        decode_reply(header + data)
    except MarshalError:
        pass


@settings(max_examples=200)
@given(st.binary(max_size=128))
def test_ior_from_bytes_rejects_cleanly(data):
    try:
        Ior.from_string("IOR:" + data.hex())
    except MarshalError:
        pass


@settings(max_examples=100)
@given(st.binary(max_size=64))
@example(b"\x00\x00\x00\x02\xff\x00")  # well framed, not UTF-8
def test_cdr_string_reader_is_total(data):
    stream = CdrInputStream(data)
    try:
        stream.read_string()
    except MarshalError:
        pass


def test_forged_giant_size_is_not_trusted_blindly():
    """A header claiming a 2 GiB body must simply leave the framer
    waiting for bytes (bounded memory: nothing is preallocated)."""
    framer = GiopFramer()
    header = b"GIOP" + bytes([1, 0, 0, 0]) + (2**31 - 1).to_bytes(4, "big")
    assert framer.feed(header) == []
    assert framer.buffered == len(header)


def test_valid_message_after_valid_message_with_fuzzed_middle_rejected():
    """Once garbage desynchronises the stream, the framer reports it
    rather than resynchronising onto a fake message boundary."""
    good = encode_request(RequestMessage(
        request_id=1, response_expected=True, object_key=b"k",
        operation="x"))
    framer = GiopFramer()
    assert framer.feed(good) == [good]
    with pytest.raises(MarshalError):
        framer.feed(b"JUNK" + good)


@settings(max_examples=300)
@given(st.binary(max_size=64))
@example(ClientIdContext("u", 1, 9).to_service_context().data[:-1])
def test_client_id_context_rejects_or_decodes(data):
    """A client-id context body, floor and all, decodes or raises
    MarshalError; the gateway then treats the context as absent."""
    request = RequestMessage(
        request_id=1, response_expected=True, object_key=b"k",
        operation="op",
        service_contexts=[ServiceContext(ETERNAL_CLIENT_ID_CONTEXT, data)])
    try:
        ctx = ClientIdContext.from_bytes(data)
    except MarshalError:
        assert extract_client_id(request) is None
        return
    assert extract_client_id(request) == ctx
    assert ctx.floor >= 0


def test_a_cut_client_id_context_never_carries_a_floor():
    """A body cut short is rejected, or — cut inside the floor — read as
    the two-field form: floor 0, which retires nothing."""
    data = ClientIdContext("client/9", 3, 41).to_service_context().data
    decoded = set()
    for end in range(len(data)):
        try:
            decoded.add(ClientIdContext.from_bytes(data[:end]))
        except MarshalError:
            pass
    assert decoded == {ClientIdContext("client/9", 3, 0)}
    assert ClientIdContext.from_bytes(data) == ClientIdContext(
        "client/9", 3, 41)
