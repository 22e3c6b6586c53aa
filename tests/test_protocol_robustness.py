"""Robustness against malformed wire input (a gateway is an internet-
facing endpoint; garbage must never take the infrastructure down)."""

import pytest

from repro import World
from repro.iiop import GiopFramer, MsgType, parse_header
from repro.errors import MarshalError

from tests.helpers import external_client, make_counter_group, make_domain


def raw_connect(world, domain):
    host = world.add_host("attacker")
    gateway = domain.gateways[0]
    state = {}
    world.tcp.connect(host, (gateway.host.name, gateway.port),
                      lambda ep: state.setdefault("ep", ep),
                      lambda exc: state.setdefault("err", exc))
    world.scheduler.run_until(lambda: state)
    return state["ep"]


def test_garbage_bytes_close_the_connection_not_the_gateway(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    endpoint = raw_connect(world, domain)
    received = []
    endpoint.on_data = received.append
    endpoint.send(b"this is definitely not GIOP at all.............")
    world.run(until=world.now + 1.0)
    # The gateway answered MessageError and hung up...
    assert received
    assert parse_header(received[0])[0] == MsgType.MESSAGE_ERROR
    assert not endpoint.open
    # ...and keeps serving well-behaved clients.
    _, stub, _ = external_client(world, domain, group)
    assert world.await_promise(stub.call("increment", 1), timeout=600) == 1


def test_truncated_request_is_just_buffered(world):
    """A partial (not yet complete) message is not an error."""
    from repro.iiop import RequestMessage, encode_request
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    endpoint = raw_connect(world, domain)
    message = encode_request(RequestMessage(
        request_id=1, response_expected=True, object_key=b"k",
        operation="x"))
    endpoint.send(message[:10])
    world.run(until=world.now + 0.5)
    assert endpoint.open  # still waiting for the rest


def test_malformed_body_after_valid_header_closes_connection(world):
    """A message claiming type REQUEST whose body is not a valid
    request header must be rejected without crashing the gateway."""
    domain = make_domain(world, gateways=1)
    make_counter_group(domain)
    domain.await_stable()
    endpoint = raw_connect(world, domain)
    bogus_body = b"\xff" * 16
    header = (b"GIOP" + bytes([1, 0, 0, MsgType.REQUEST])
              + len(bogus_body).to_bytes(4, "big"))
    endpoint.send(header + bogus_body)
    world.run(until=world.now + 1.0)
    assert not endpoint.open
    # The gateway host survived.
    assert domain.gateways[0].alive


def test_framer_raises_on_bad_magic():
    framer = GiopFramer()
    with pytest.raises(MarshalError):
        framer.feed(b"HTTP/1.1 200 OK\r\n\r\n")


def test_framer_raises_on_unsupported_version():
    framer = GiopFramer()
    with pytest.raises(MarshalError):
        framer.feed(b"GIOP" + bytes([9, 9, 0, 0]) + bytes(4))


def test_client_connection_survives_garbage_reply(world):
    """A buggy/hostile server sending garbage fails the client's pending
    requests cleanly (COMM_FAILURE), no crash."""
    from repro.errors import CommFailure
    from repro.orb.connection import IiopClientConnection
    server_host = world.add_host("rogue")

    def on_accept(endpoint):
        endpoint.send(b"\x00garbage\x00garbage\x00")

    world.tcp.listen(server_host, 9000, on_accept)
    client_host = world.add_host("client")
    connection = IiopClientConnection(world.tcp, client_host, ("rogue", 9000))
    failures = []
    connection.send_request(b"GIOP" + bytes(8), 1,
                            lambda reply: failures.append("reply"),
                            lambda exc: failures.append(type(exc).__name__))
    world.run(until=world.now + 1.0)
    assert failures == ["CommFailure"]


def test_non_utf8_operation_name_closes_the_connection_not_the_gateway(world):
    """An operation name that is not UTF-8 is malformed input like any
    other: MessageError and a hang-up, never an exception out of the
    simulation."""
    from repro.iiop import RequestMessage, encode_request
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    endpoint = raw_connect(world, domain)
    received = []
    endpoint.on_data = received.append
    message = encode_request(RequestMessage(
        request_id=1, response_expected=True, object_key=b"k",
        operation="Z"))
    assert message.count(b"Z\x00") == 1
    endpoint.send(message.replace(b"Z\x00", b"\xff\x00"))
    world.run(until=world.now + 1.0)
    assert [parse_header(m)[0] for m in received] == [MsgType.MESSAGE_ERROR]
    assert not endpoint.open
    assert domain.gateways[0].alive
    _, stub, _ = external_client(world, domain, group)
    assert world.await_promise(stub.call("increment", 1), timeout=600) == 1


def test_non_utf8_client_id_context_is_ignored(world):
    """A client-id service context whose uid is not UTF-8 is
    unintelligible, so the gateway ignores it (the CORBA rule) and
    serves the request as a plain client's."""
    from repro.iiop import (ETERNAL_CLIENT_ID_CONTEXT, ClientIdContext,
                            RequestMessage, ServiceContext, decode_reply,
                            encode_request)
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    domain.await_ready(group)
    endpoint = raw_connect(world, domain)
    received = []
    endpoint.on_data = received.append
    context = ClientIdContext("u", 1).to_service_context().data
    assert context.count(b"u\x00") == 1
    body = (5).to_bytes(4, "big")
    endpoint.send(encode_request(RequestMessage(
        request_id=7, response_expected=True,
        object_key=domain.ior_for(group).primary_profile().object_key,
        operation="increment", body=body,
        service_contexts=[ServiceContext(
            ETERNAL_CLIENT_ID_CONTEXT,
            context.replace(b"u\x00", b"\xff\x00"))])))
    world.run(until=world.now + 1.0)
    assert endpoint.open
    reply = decode_reply(received[0])
    assert (reply.request_id, reply.status, reply.body) == (7, 0, b"\x00\x00\x00\x05")


def _overflow_then_recover(world, stub):
    """``increment(2**31 - 1)`` twice: the second result does not fit
    the declared long."""
    from repro.errors import CorbaSystemException
    top = 2 ** 31 - 1
    assert world.await_promise(stub.call("increment", top), timeout=600) == top
    with pytest.raises(CorbaSystemException, match="MarshalError"):
        world.await_promise(stub.call("increment", top), timeout=600)
    # The connection and the server survived: the next call is served.
    assert world.await_promise(stub.call("decrement", top), timeout=600) == top


def test_replicated_result_that_does_not_fit_is_a_system_exception(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    _, stub, _ = external_client(world, domain, group)
    _overflow_then_recover(world, stub)
    world.run(until=world.now + 5.0)
    world.audit(strict=True)


def test_plain_orb_result_that_does_not_fit_is_a_system_exception(world):
    from repro.apps import COUNTER_INTERFACE, CounterServant
    from repro.orb import Orb
    server = Orb(world, world.add_host("server"))
    server.listen(9000)
    ior = server.activate_object(CounterServant())
    client = Orb(world, world.add_host("client"), request_timeout=None)
    stub = client.string_to_object(ior.to_string(), COUNTER_INTERFACE)
    _overflow_then_recover(world, stub)
