"""Tests: GIOP LocateRequest / CancelRequest handling at the gateway."""

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


def test_cancel_request_drops_pending_routing(world):
    """After a CancelRequest, the gateway no longer routes the response
    to the client socket (best-effort cancellation)."""
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    orb, stub, _ = external_client(world, domain, group, enhanced=False)
    world.await_promise(stub.call("increment", 1))

    # Next request: intercept the gateway's forward so the response is
    # delayed until the cancel lands first.
    original_forward = gateway._forward
    held = []
    gateway._forward = lambda pending: held.append(pending)
    promise = stub.call("increment", 10)
    world.run(until=world.now + 0.1)  # request reaches gateway, is held
    assert held
    # The client cancels (same connection, same request id).
    connection = orb._connections[next(iter(orb._connections))]
    request_id = connection.pending_request_ids()[-1]
    connection.abandon(request_id)  # a client that cancels stops waiting
    connection.endpoint.send(encode_cancel_request(request_id))
    world.run(until=world.now + 0.1)
    assert gateway.stats.get("cancels") == 1
    # Now let the invocation proceed: it executes in the domain, but the
    # gateway has no pending entry; the response is cached, not routed.
    gateway._forward = original_forward
    gateway._forward(held[0])
    world.run(until=world.now + 1.0)
    assert not promise.done  # no reply was written to the client socket
    from tests.helpers import replica_counts
    assert set(replica_counts(domain, group).values()) == {11}


def test_cancel_finds_its_group_on_a_connection_carrying_two(world):
    """A plain ORB's one connection carries a (server group, client id)
    pair per group it calls.  A CancelRequest names only the request
    id, so the gateway cancels the pair that holds that operation — not
    merely the most recent pair."""
    from repro import Orb
    from tests.helpers import replica_counts
    domain = make_domain(world, gateways=1)
    a = make_counter_group(domain, name="A")
    b = make_counter_group(domain, name="B")
    gateway = domain.gateways[0]
    orb = Orb(world, world.add_host("browser"), request_timeout=None)
    stub_a, stub_b = (orb.string_to_object(
        domain.ior_for(g).to_string(), g.interface) for g in (a, b))
    world.await_promise(stub_a.call("increment", 1))
    original_forward = gateway._forward
    held = []
    gateway._forward = held.append
    promise = stub_a.call("increment", 10)
    world.run(until=world.now + 0.1)
    gateway._forward = original_forward
    assert world.await_promise(stub_b.call("increment", 1)) == 1
    # B is now the connection's most recent pair; A's call is the one
    # pending.
    connection = orb._connections[next(iter(orb._connections))]
    request_id = connection.pending_request_ids()[-1]
    connection.abandon(request_id)
    connection.endpoint.send(encode_cancel_request(request_id))
    world.run(until=world.now + 0.1)
    assert gateway._cancelled == {held[0].key}
    assert held[0].key[0] == a.group_id
    gateway._forward(held[0])
    world.run(until=world.now + 1.0)
    assert not promise.done
    assert gateway._cancelled == set()
    assert set(replica_counts(domain, a).values()) == {11}
    assert set(replica_counts(domain, b).values()) == {1}
    world.audit(strict=True)


def test_cancel_for_unknown_connection_is_ignored(world):
    domain = make_domain(world, gateways=1)
    make_counter_group(domain)
    domain.await_stable()
    endpoint, replies = raw_gateway_connection(world, domain)
    endpoint.send(encode_cancel_request(5))
    world.run(until=world.now + 0.2)
    # The stat is declared up front (no lazy creation) and must not
    # move for a cancel on a connection with no identified client.
    assert domain.gateways[0].stats["cancels"] == 0
    assert domain.gateways[0].metrics.get(
        "gateway.req.cancelled").value == 0
    assert endpoint.open  # the gateway did not kill the connection
