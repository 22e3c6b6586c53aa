"""Advanced gateway scenarios: oneway traffic, passive failover behind
the gateway, voting under replica failure."""

import pytest

from repro import ReplicationStyle, Servant, World
from repro.iiop import TC_LONG, TC_STRING, TC_VOID
from repro.orb import Interface, Operation, Param

from tests.helpers import (
    external_client,
    make_counter_group,
    make_domain,
    replica_counts,
)

EVENTS = Interface("EventSink", [
    Operation("emit", [Param("note", TC_STRING)], TC_VOID, oneway=True),
    Operation("count", [], TC_LONG),
])


class EventSinkServant(Servant):
    interface = EVENTS

    def __init__(self):
        self.notes = []

    def emit(self, note):
        self.notes.append(note)

    def count(self):
        return len(self.notes)


def test_oneway_through_gateway_executes_everywhere(world):
    domain = make_domain(world, gateways=1)
    group = domain.create_group("Events", EVENTS, EventSinkServant)
    _, stub, _ = external_client(world, domain, group)
    promise = stub.call("emit", "fire-and-forget")
    assert promise.done  # oneway resolves immediately at the client
    world.run(until=world.now + 1.0)
    # Delivered to, and applied at, every replica — without any reply.
    for rm in domain.rms.values():
        record = rm.replicas.get(group.group_id)
        if record is not None:
            assert record.servant.notes == ["fire-and-forget"]
    gateway = domain.gateways[0]
    assert gateway.stats["responses_delivered"] == 0


def test_oneway_then_twoway_ordering_preserved(world):
    domain = make_domain(world, gateways=1)
    group = domain.create_group("Events", EVENTS, EventSinkServant)
    _, stub, _ = external_client(world, domain, group)
    stub.call("emit", "a")
    stub.call("emit", "b")
    assert world.await_promise(stub.call("count"), timeout=600) == 2


def test_warm_passive_primary_crash_behind_gateway(world):
    """The client never learns that the primary executing its request
    died: the new primary's replay re-multicasts the response and the
    gateway delivers it."""
    domain = make_domain(world, num_hosts=4, gateways=1)
    group = make_counter_group(domain, style=ReplicationStyle.WARM_PASSIVE,
                               replicas=3, min_replicas=2)
    domain.await_ready(group)
    _, stub, _ = external_client(world, domain, group)
    world.await_promise(stub.call("increment", 1), timeout=600)

    primary = group.info().primary(domain.coordinator_rm().live_hosts)
    primary_rm = domain.rms[primary]
    # Crash the primary at the instant it would multicast the response.
    original_respond = primary_rm._respond

    def crash_instead(invocation, reply, carried=None):
        world.faults.crash_now(primary)

    primary_rm._respond = crash_instead
    result = world.await_promise(stub.call("increment", 10), timeout=600)
    assert result == 11
    world.run(until=world.now + 1.0)
    assert set(replica_counts(domain, group).values()) == {11}


def test_voting_continues_when_replica_dies_mid_stream(world):
    domain = make_domain(world, num_hosts=4, gateways=1)
    group = make_counter_group(domain,
                               style=ReplicationStyle.ACTIVE_WITH_VOTING,
                               replicas=3, min_replicas=2)
    domain.await_ready(group)
    _, stub, _ = external_client(world, domain, group)
    assert world.await_promise(stub.call("increment", 1), timeout=600) == 1
    world.faults.crash_now(group.info().placement[0])
    # Two replicas remain: majority of 2 is still reachable.
    assert world.await_promise(stub.call("increment", 1), timeout=600) == 2


def test_client_layer_shares_identity_across_stubs(world):
    from repro import FtClientLayer, Orb
    domain = make_domain(world, gateways=1)
    a = make_counter_group(domain, name="A")
    b = make_counter_group(domain, name="B")
    host = world.add_host("browser")
    orb = Orb(world, host, request_timeout=None)
    layer = FtClientLayer(orb, client_uid="shared/identity")
    stub_a = layer.string_to_object(domain.ior_for(a).to_string(),
                                    a.interface)
    stub_b = layer.string_to_object(domain.ior_for(b).to_string(),
                                    b.interface)
    world.await_promise(stub_a.call("increment", 1), timeout=600)
    world.await_promise(stub_b.call("increment", 2), timeout=600)
    gateway = domain.gateways[0]
    # One identity, routed per server group it calls.
    assert set(gateway._routing) == {(a.group_id, "shared/identity#1"),
                                     (b.group_id, "shared/identity#1")}
