"""Tests: GIOP LocateRequest / CancelRequest handling at the gateway."""

import struct

import pytest

from repro import World
from repro.iiop import (
    GiopFramer,
    LocateStatus,
    decode_locate_reply,
    encode_cancel_request,
    encode_locate_request,
)
from repro.eternal.naming import make_object_key

from tests.helpers import external_client, make_counter_group, make_domain


def raw_gateway_connection(world, domain):
    """A raw TCP connection to the gateway, with a framer for replies."""
    host = world.add_host("prober")
    gateway = domain.gateways[0]
    state = {}
    world.tcp.connect(host, (gateway.host.name, gateway.port),
                      lambda ep: state.setdefault("ep", ep),
                      lambda exc: state.setdefault("err", exc))
    world.scheduler.run_until(lambda: state)
    endpoint = state["ep"]
    framer = GiopFramer()
    replies = []
    endpoint.on_data = lambda data: replies.extend(framer.feed(data))
    return endpoint, replies


def test_locate_request_for_known_object_is_object_here(world):
    """A real ORB probes with LocateRequest; the gateway must claim the
    object lives at its own endpoint (the client must not learn about
    the replicas behind it)."""
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    domain.await_ready(group)
    endpoint, replies = raw_gateway_connection(world, domain)
    key = make_object_key(domain.name, group.group_id)
    endpoint.send(encode_locate_request(77, key))
    world.scheduler.run_until(lambda: replies, timeout=30.0)
    request_id, status = decode_locate_reply(replies[0])
    assert request_id == 77
    assert status == LocateStatus.OBJECT_HERE


def test_locate_request_for_unknown_object(world):
    domain = make_domain(world, gateways=1)
    make_counter_group(domain)
    domain.await_stable()
    endpoint, replies = raw_gateway_connection(world, domain)
    endpoint.send(encode_locate_request(78, b"ftdomain/dom/424242"))
    world.scheduler.run_until(lambda: replies, timeout=30.0)
    request_id, status = decode_locate_reply(replies[0])
    assert request_id == 78
    assert status == LocateStatus.UNKNOWN_OBJECT


def test_locate_request_for_foreign_domain_key(world):
    domain = make_domain(world, gateways=1)
    make_counter_group(domain)
    domain.await_stable()
    endpoint, replies = raw_gateway_connection(world, domain)
    endpoint.send(encode_locate_request(79, b"ftdomain/elsewhere/10"))
    world.scheduler.run_until(lambda: replies, timeout=30.0)
    _, status = decode_locate_reply(replies[0])
    assert status == LocateStatus.UNKNOWN_OBJECT


def gateway_state(gateway):
    """Every table a gateway keeps, as comparable values."""
    return (dict(gateway._filter._pending), dict(gateway._filter._delivered),
            dict(gateway._routing),
            {conn: dict(ids) for conn, ids in gateway._conn_clients.items()},
            set(gateway._gone_pending), list(gateway._admission_queue),
            gateway._own_inflight)


def test_a_cancel_request_is_counted_and_changes_nothing_else(world):
    """GIOP cancellation is advisory: the gateway counts a CancelRequest
    in ``gateway.req.cancelled`` and changes nothing else.  The request
    runs on, its reply is written to the socket, and the client ORB,
    which stopped waiting when it cancelled, drops it."""
    from tests.helpers import replica_counts
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    orb, stub, _ = external_client(world, domain, group, enhanced=False)
    world.await_promise(stub.call("increment", 1))

    # Next request: hold the gateway's forward so the cancel lands while
    # the request is still in flight.
    forward, held = gateway._forward, []
    gateway._forward = held.append
    promise = stub.call("increment", 10)
    world.run(until=world.now + 0.1)
    assert held
    stats, state = dict(gateway.stats), gateway_state(gateway)
    # The client cancels (same connection, same request id).
    connection = orb._connections[next(iter(orb._connections))]
    request_id = connection.pending_request_ids()[-1]
    connection.abandon(request_id)  # a client that cancels stops waiting
    connection.endpoint.send(encode_cancel_request(request_id))
    world.run(until=world.now + 0.1)
    assert {key: value - stats[key] for key, value in gateway.stats.items()
            if value != stats[key]} == {"cancels": 1}
    assert world.metrics.value("gateway.req.cancelled") == 1
    assert gateway_state(gateway) == state
    assert dict(gateway._filter.waiters())[held[0].key] is held[0]

    # The invocation proceeds: it executes, and its reply is written to
    # the client's socket like any other.
    gateway._forward = forward
    forward(held[0])
    world.run(until=world.now + 1.0)
    assert gateway.stats["responses_delivered"] == 2
    assert not promise.done  # ...where the client ORB dropped it
    assert connection.pending_request_ids() == []
    assert set(replica_counts(domain, group).values()) == {11}
    world.audit(strict=True)


def test_cancel_for_unknown_connection_is_ignored(world):
    domain = make_domain(world, gateways=1)
    make_counter_group(domain)
    domain.await_stable()
    endpoint, replies = raw_gateway_connection(world, domain)
    endpoint.send(encode_cancel_request(5))
    world.run(until=world.now + 0.2)
    # Counted like any other, and nothing else: no reply, and the
    # gateway did not kill the connection.
    assert domain.gateways[0].stats["cancels"] == 1
    assert domain.gateways[0].metrics.get(
        "gateway.req.cancelled").value == 1
    assert replies == []
    assert endpoint.open


def test_a_malformed_cancel_request_is_a_message_error(world):
    """A CancelRequest whose body is too short for a request id is
    unintelligible input: the gateway answers MessageError and hangs
    up, and counts no cancel."""
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    orb, stub, _ = external_client(world, domain, group, enhanced=False)
    world.await_promise(stub.call("increment", 1))
    connection = orb._connections[next(iter(orb._connections))]
    header = encode_cancel_request(5)[:8]
    connection.endpoint.send(header + struct.pack(">I", 2) + b"\0\0")
    world.run(until=world.now + 0.2)
    assert world.metrics.value("giop.msg.message_error") == 1
    assert not connection.endpoint.open
    assert gateway.stats["cancels"] == 0
    world.run(until=world.now + 1.0)
    world.audit(strict=True)
