"""Interop tests: byte-order variations a foreign ORB could produce."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.iiop import (
    CdrOutputStream,
    ClientIdContext,
    Ior,
    decode_request,
    encode_request,
    RequestMessage,
)
from repro.iiop.cdr import encapsulate


def test_little_endian_ior_is_readable():
    """A foreign little-endian ORB stringifies an IOR; we must parse it."""

    def build(out: CdrOutputStream) -> None:
        reference = Ior.for_endpoints("IDL:foreign/Obj:1.0",
                                      [("gw", 2809)], b"key")
        reference.encode(out)

    data = encapsulate(build, little_endian=True)
    text = "IOR:" + data.hex()
    ior = Ior.from_string(text)
    assert ior.type_id == "IDL:foreign/Obj:1.0"
    assert ior.primary_profile().address == ("gw", 2809)
    assert ior.primary_profile().object_key == b"key"


def test_little_endian_request_through_decoder():
    message = encode_request(RequestMessage(
        request_id=7, response_expected=True, object_key=b"ftdomain/d/10",
        operation="op", body=b"\x01\x02\x03\x04"), little_endian=True)
    decoded = decode_request(message)
    assert decoded.little_endian is True
    assert decoded.request_id == 7
    assert decoded.object_key == b"ftdomain/d/10"


def test_gateway_accepts_little_endian_clients(world):
    """A client whose ORB marshals little-endian still goes through the
    gateway unchanged (the gateway forwards bytes verbatim; the server
    RM decodes per the flag)."""
    from repro.iiop.giop import encode_request as enc
    from tests.helpers import external_client, make_counter_group, make_domain
    import repro.orb.orb as orb_module

    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    _, stub, _ = external_client(world, domain, group, enhanced=False)

    # Patch this stub's encoding to little-endian.
    original_invoke = stub.invoke

    def invoke_le(operation, args=(), timeout=None):
        # Rebuild the request exactly as Stub.invoke does, but LE.
        op = stub.interface.operation(operation)
        from repro.iiop.giop import RequestMessage as RM
        from repro.sim.world import Promise
        promise = Promise()
        request = RM(
            request_id=stub.orb.next_request_id(),
            response_expected=not op.oneway,
            object_key=stub.ior.primary_profile().object_key,
            operation=op.name,
            service_contexts=stub.requester.service_contexts(),
            body=b"",
        )
        # LE body to match the LE message (encode_arguments is BE).
        request.body = op.arguments_codec.encode(args, little_endian=True)
        encoded = enc(request, little_endian=True)
        stub.requester.send(stub, op, request, encoded, promise)
        return promise

    assert world.await_promise(invoke_le("increment", [5]),
                               timeout=600) == 5
    assert world.await_promise(stub.call("value"), timeout=600) == 5


@given(st.from_regex(r"[a-z0-9/._\-]{1,60}", fullmatch=True),
       st.integers(1, 2**31 - 1))
def test_client_id_context_roundtrip_property(uid, incarnation):
    ctx = ClientIdContext(uid, incarnation)
    service_context = ctx.to_service_context()
    assert ClientIdContext.from_bytes(service_context.data) == ctx


def test_foreign_service_contexts_survive_gateway_remarshalling(world):
    """A foreign ORB may stamp vendor service contexts the gateway does
    not understand.  CORBA requires intermediaries to pass unknown
    contexts through untouched — after the gateway translates the IIOP
    request into a Totem INVOCATION, the re-marshalled request must
    carry every original context verbatim (id and bytes)."""
    from repro.eternal.messages import MsgKind
    from repro.iiop.giop import ServiceContext
    from repro.orb.orb import PlainRequester
    from tests.helpers import external_client, make_counter_group, make_domain

    foreign = [
        ServiceContext(0x42454546, b"\x00\x01\xfe\xffopaque vendor blob"),
        ServiceContext(0x12345678, b""),  # empty data must survive too
    ]

    class ForeignRequester(PlainRequester):
        def service_contexts(self, request_id=None):
            return list(foreign)

    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    orb, stub, _ = external_client(world, domain, group, enhanced=False)
    stub.requester = ForeignRequester(orb)

    delivered = []
    for member in domain.members.values():
        member.on_deliver(
            lambda seq, sender, payload: delivered.append(payload))

    assert world.await_promise(stub.call("increment", 1), timeout=600) == 1
    invocations = [m for m in delivered
                   if getattr(m, "kind", None) is MsgKind.INVOCATION]
    assert invocations, "no INVOCATION crossed the ring"
    request = decode_request(invocations[0].iiop)
    carried = {(c.context_id, bytes(c.data))
               for c in request.service_contexts}
    for ctx in foreign:
        assert (ctx.context_id, ctx.data) in carried, (
            f"context {ctx.context_id:#x} lost or altered in translation")


@given(st.from_regex(r"[a-z0-9/#._\-]{1,60}", fullmatch=True),
       st.integers(1, 2**31 - 1), st.integers(0, 255))
def test_span_context_roundtrip_property(trace_id, span_id, hop):
    from repro.iiop import SpanContext, TRACE_CONTEXT, extract_trace_context

    ctx = SpanContext(trace_id, span_id, hop=hop)
    service_context = ctx.to_service_context()
    assert service_context.context_id == TRACE_CONTEXT
    request = RequestMessage(
        request_id=1, response_expected=True, object_key=b"k",
        operation="op", service_contexts=[service_context], body=b"")
    decoded = decode_request(encode_request(request))
    assert extract_trace_context(decoded) == ctx


def test_malformed_trace_context_is_ignored():
    from repro.iiop import SpanContext, TRACE_CONTEXT, extract_trace_context
    from repro.iiop.giop import ServiceContext

    request = RequestMessage(
        request_id=1, response_expected=True, object_key=b"k",
        operation="op",
        service_contexts=[ServiceContext(TRACE_CONTEXT, b"\x00\x01")],
        body=b"")
    assert extract_trace_context(request) is None
    with pytest.raises(Exception):
        SpanContext.from_bytes(b"junk")  # raw decode stays strict
