"""Mixed client populations and client-identifier edge cases."""

import pytest

from repro import FtClientLayer, Orb, World

from tests.helpers import (
    external_client,
    make_counter_group,
    make_domain,
    replica_counts,
)


def test_plain_and_enhanced_clients_coexist(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    _, plain, _ = external_client(world, domain, group, enhanced=False,
                                  host_name="plain")
    _, enhanced, _ = external_client(world, domain, group, enhanced=True,
                                     host_name="enhanced")
    promises = [plain.call("increment", 1), enhanced.call("increment", 1),
                plain.call("increment", 1), enhanced.call("increment", 1)]
    world.run_until_done(promises, timeout=600)
    assert sorted(p.result() for p in promises) == [1, 2, 3, 4]
    gateway = domain.gateways[0]
    kinds = {type(cid) for carried in gateway._conn_clients.values()
             for _, cid in carried}
    assert kinds == {int, str}  # one counter id, one uid


def test_counter_partitioning_prevents_cross_gateway_aliasing(world):
    """An engineering improvement over the paper's plain counters: each
    gateway's counter space is disjoint, so two plain clients connected
    to two different gateways can never be confused for each other even
    though both are 'client 1' of their gateway."""
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    host_a = world.add_host("via-gw0")
    host_b = world.add_host("via-gw1")
    orb_a = Orb(world, host_a, request_timeout=None)
    orb_b = Orb(world, host_b, request_timeout=None)
    gw0, gw1 = domain.gateways
    from repro.iiop import Ior
    from repro.eternal.naming import make_object_key
    key = make_object_key(domain.name, group.group_id)
    stub_a = orb_a.string_to_object(
        Ior.for_endpoints(group.interface.repo_id,
                          [(gw0.host.name, gw0.port)], key), group.interface)
    stub_b = orb_b.string_to_object(
        Ior.for_endpoints(group.interface.repo_id,
                          [(gw1.host.name, gw1.port)], key), group.interface)
    world.run_until_done([stub_a.call("increment", 1),
                          stub_b.call("increment", 1)], timeout=600)
    ids_a = {cid for carried in gw0._conn_clients.values() for cid in carried}
    ids_b = {cid for carried in gw1._conn_clients.values() for cid in carried}
    assert ids_a and ids_b
    assert ids_a.isdisjoint(ids_b)
    world.run(until=world.now + 0.3)
    assert set(replica_counts(domain, group).values()) == {2}


def test_same_identity_same_request_id_is_a_reinvocation(world):
    """Section 3.5 semantics, precisely: a request arriving on a NEW
    connection with the SAME client uid, incarnation and request id is a
    *reinvocation* — the gateway serves the original cached response and
    nothing re-executes.  (A genuinely new client process must bump its
    incarnation; see test_client_interceptor.)"""
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    host = world.add_host("browser")
    ior = domain.ior_for(group).to_string()
    orb1 = Orb(world, host, request_timeout=None)
    layer1 = FtClientLayer(orb1, client_uid="roamer")
    stub1 = layer1.string_to_object(ior, group.interface)
    assert world.await_promise(stub1.call("increment", 1), timeout=600) == 1
    # New connection, same identity and incarnation; the fresh ORB's
    # request ids restart at 1 — colliding with the first request.
    orb2 = Orb(world, host, request_timeout=None)
    layer2 = FtClientLayer(orb2, client_uid="roamer")
    stub2 = layer2.string_to_object(ior, group.interface)
    assert world.await_promise(stub2.call("increment", 1), timeout=600) == 1
    world.run(until=world.now + 0.5)
    assert set(replica_counts(domain, group).values()) == {1}  # exactly once
    # A non-colliding request id executes normally.
    assert world.await_promise(stub2.call("increment", 1), timeout=600) == 2


def test_many_clients_ids_remain_unique(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    stubs = []
    for i in range(6):
        _, stub, _ = external_client(world, domain, group,
                                     enhanced=(i % 2 == 0),
                                     host_name=f"c{i}")
        stubs.append(stub)
    promises = [stub.call("increment", 1) for stub in stubs]
    world.run_until_done(promises, timeout=600)
    ids = [cid for carried in gateway._conn_clients.values()
           for cid in carried]
    assert len(ids) == len(set(ids)) == 6
