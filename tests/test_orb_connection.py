"""Tests for IIOP connection machinery details."""

import pytest

from repro import CommFailure, Orb, World
from repro.apps import COUNTER_INTERFACE, CounterServant
from repro.iiop import (LocateStatus, ReplyMessage, ReplyStatus,
                        encode_close_connection, encode_locate_reply,
                        encode_reply)
from repro.orb.connection import IiopClientConnection


def make_server(world, port=9000):
    host = world.add_host("server")
    orb = Orb(world, host)
    orb.listen(port)
    ior = orb.activate_object(CounterServant())
    return orb, ior


def test_requests_queued_while_connecting(world):
    """send_request before the TCP handshake completes must not lose
    the request: it is queued and flushed on connect."""
    server_orb, ior = make_server(world)
    client_host = world.add_host("client")
    client_orb = Orb(world, client_host, request_timeout=None)
    stub = client_orb.string_to_object(ior.to_string(), COUNTER_INTERFACE)
    # Two invocations back-to-back, before any connection exists.
    p1 = stub.call("increment", 1)
    p2 = stub.call("increment", 1)
    world.run_until_done([p1, p2])
    assert (p1.result(), p2.result()) == (1, 2)


def _answer_with(world, data):
    """Send request 1 to a raw listener that writes ``data`` to every
    connection it accepts; returns the connection and what became of
    the request (its reply's id, or the failure's type name)."""
    world.tcp.listen(world.add_host("server"), 9000,
                     lambda endpoint: endpoint.send(data))
    connection = IiopClientConnection(world.tcp, world.add_host("client"),
                                      ("server", 9000))
    outcomes = []
    connection.send_request(b"GIOP" + bytes(8), 1,
                            lambda reply: outcomes.append(reply.request_id),
                            lambda exc: outcomes.append(type(exc).__name__))
    world.run(until=world.now + 1.0)
    return connection, outcomes


def test_close_connection_message_fails_pending(world):
    """A GIOP CloseConnection from the server ends the connection and
    fails outstanding requests with COMM_FAILURE."""
    connection, outcomes = _answer_with(world, encode_close_connection())
    assert outcomes == ["CommFailure"]
    assert not connection.usable


@pytest.mark.parametrize("truncated", [False, True])
def test_unsolicited_locate_reply(world, truncated):
    """The client never sends a LocateRequest.  A well-formed LocateReply
    changes nothing and the Reply behind it is still delivered; one too
    short for its two ulongs is garbage on the wire, so the connection
    closes and the request in flight fails."""
    locate = encode_locate_reply(7, LocateStatus.OBJECT_HERE)
    if truncated:
        locate = locate[:8] + (4).to_bytes(4, "big") + locate[12:16]
    reply = encode_reply(ReplyMessage(request_id=1,
                                      status=ReplyStatus.NO_EXCEPTION))
    connection, outcomes = _answer_with(world, locate + reply)
    assert outcomes == (["CommFailure"] if truncated else [1])
    assert connection.usable is not truncated


def test_local_close_fails_pending(world):
    server_orb, ior = make_server(world)
    client_host = world.add_host("client")
    connection = IiopClientConnection(world.tcp, client_host,
                                      ("server", 9000))
    failures = []
    connection.send_request(b"\x00" * 12, 1, lambda r: None,
                            lambda exc: failures.append(exc))
    connection.close()
    assert len(failures) == 1
    assert isinstance(failures[0], CommFailure)


def test_closed_listener_notifies_closed_hook(world):
    server_orb, ior = make_server(world)
    client_host = world.add_host("client")
    connection = IiopClientConnection(world.tcp, client_host,
                                      ("server", 9000))
    observed = []
    connection.on_closed(lambda: observed.append(True))
    world.run(until=world.now + 0.5)
    world.network.host("server").crash()
    world.run(until=world.now + 0.5)
    assert observed == [True]


def test_send_after_failure_rejects_immediately(world):
    world.add_host("nowhere")  # never listens
    client_host = world.add_host("client")
    connection = IiopClientConnection(world.tcp, client_host,
                                      ("nowhere", 1))
    world.run(until=world.now + 0.5)  # connect refused
    failures = []
    connection.send_request(b"x", 1, lambda r: None,
                            lambda exc: failures.append(exc))
    assert failures and isinstance(failures[0], CommFailure)


def test_listen_twice_rejected(world):
    from repro.errors import ConfigurationError
    host = world.add_host("server")
    orb = Orb(world, host)
    orb.listen(9000)
    with pytest.raises(ConfigurationError):
        orb.listen(9001)


def test_activate_before_listen_rejected(world):
    from repro.errors import ConfigurationError
    host = world.add_host("server")
    orb = Orb(world, host)
    with pytest.raises(ConfigurationError):
        orb.activate_object(CounterServant())


def test_port_conflict_between_orbs_rejected(world):
    from repro.errors import ConfigurationError
    host = world.add_host("server")
    orb_a = Orb(world, host, name="a")
    orb_a.listen(9000)
    orb_b = Orb(world, host, name="b")
    with pytest.raises(ConfigurationError):
        orb_b.listen(9000)
