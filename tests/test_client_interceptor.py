"""Unit-ish tests for the thin client-side interception layer (section 3.5)."""

import pytest

from repro import CommFailure, FtClientLayer, GatewayPool, Orb, World
from repro.iiop import (
    ETERNAL_CLIENT_ID_CONTEXT,
    ClientIdContext,
    Ior,
    extract_client_id,
)
from repro.iiop.giop import RequestMessage

from tests.helpers import external_client, make_counter_group, make_domain


def test_layer_assigns_unique_client_uids(world):
    host = world.add_host("c")
    orb = Orb(world, host)
    layer_a = FtClientLayer(orb)
    layer_b = FtClientLayer(orb)
    assert layer_a.client_uid != layer_b.client_uid
    # A second client process on the same host is a different client.
    layer_c = FtClientLayer(Orb(world, host))
    assert layer_c.client_uid not in (layer_a.client_uid, layer_b.client_uid)


def test_auto_named_uid_is_a_function_of_the_seeded_world():
    """The uid is the consistent-hash routing key: the same seeded world
    must name (and so route) its clients the same however many worlds
    the process built before it."""
    def build():
        world = World(seed=3)
        domain = make_domain(world, gateways=0)
        pool = GatewayPool(domain, size=4)
        orb = Orb(world, world.add_host("c"))
        uids = [FtClientLayer(orb).client_uid for _ in range(3)]
        return uids, [pool.hash_owner(f"{uid}#1").host.name for uid in uids]

    assert build() == build()


def test_stub_requests_carry_client_id_service_context(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    _, stub, layer = external_client(world, domain, group, enhanced=True)
    contexts = stub.requester.service_contexts()
    assert len(contexts) == 1
    assert contexts[0].context_id == ETERNAL_CLIENT_ID_CONTEXT
    ctx = ClientIdContext.from_bytes(contexts[0].data)
    assert ctx.client_uid == layer.client_uid
    assert ctx.incarnation == 1


def test_extract_client_id_roundtrip():
    ctx = ClientIdContext("client/x/1", incarnation=3)
    request = RequestMessage(request_id=1, response_expected=True,
                             object_key=b"k", operation="op",
                             service_contexts=[ctx.to_service_context()])
    extracted = extract_client_id(request)
    assert extracted == ctx


def test_extract_client_id_absent_for_plain_requests():
    request = RequestMessage(request_id=1, response_expected=True,
                             object_key=b"k", operation="op")
    assert extract_client_id(request) is None


def test_malformed_context_treated_as_absent():
    from repro.iiop.giop import ServiceContext
    request = RequestMessage(
        request_id=1, response_expected=True, object_key=b"k", operation="op",
        service_contexts=[ServiceContext(ETERNAL_CLIENT_ID_CONTEXT, b"\x00")])
    assert extract_client_id(request) is None


def test_server_orb_ignores_unknown_service_context(world):
    """The paper's reason for using the service context: a receiving ORB
    that cannot interpret it ignores it.  An enhanced client can thus
    talk to a PLAIN unreplicated server unchanged."""
    from repro.apps import COUNTER_INTERFACE, CounterServant
    server_host = world.add_host("plain-server")
    server_orb = Orb(world, server_host)
    server_orb.listen(9000)
    ior = server_orb.activate_object(CounterServant())
    client_host = world.add_host("client")
    client_orb = Orb(world, client_host)
    layer = FtClientLayer(client_orb)
    stub = layer.string_to_object(ior.to_string(), COUNTER_INTERFACE)
    assert world.await_promise(stub.call("increment", 4)) == 4


def test_requester_rejects_ior_without_profiles(world):
    host = world.add_host("c")
    orb = Orb(world, host)
    layer = FtClientLayer(orb)
    empty = Ior(type_id="IDL:x:1.0", profiles=[])
    from repro.apps import COUNTER_INTERFACE
    with pytest.raises(CommFailure):
        layer.string_to_object(empty, COUNTER_INTERFACE)


def test_restart_bumps_incarnation(world):
    host = world.add_host("c")
    orb = Orb(world, host)
    layer = FtClientLayer(orb)
    reborn = layer.restart()
    assert reborn.client_uid == layer.client_uid
    assert reborn.context.incarnation == 2


def test_restarted_client_is_not_mistaken_for_old_incarnation(world):
    """A restarted client re-sending request id 1 must be executed anew,
    not answered from the old incarnation's cached response."""
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    host = world.add_host("browser")
    orb = Orb(world, host, request_timeout=None)
    ior = domain.ior_for(group).to_string()
    layer = FtClientLayer(orb, client_uid="customer-7")
    stub = layer.string_to_object(ior, group.interface)
    assert world.await_promise(stub.call("increment", 5)) == 5
    # Restart: same uid, new incarnation, request ids start over.
    orb2 = Orb(world, host, request_timeout=None)
    reborn = FtClientLayer(orb2, client_uid="customer-7", incarnation=2)
    stub2 = reborn.string_to_object(ior, group.interface)
    assert world.await_promise(stub2.call("increment", 5)) == 10


def test_failover_stats_track_reissues(world):
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    _, stub, layer = external_client(world, domain, group, enhanced=True)
    world.await_promise(stub.call("increment", 1))
    requester = stub.requester
    sent_before = requester.stats["sent"]
    world.faults.crash_now(domain.gateways[0].host.name)
    world.await_promise(stub.call("increment", 1), timeout=240)
    assert requester.stats["failovers"] >= 1
    assert requester.stats["sent"] > sent_before
