"""End-to-end: administering the domain from OUTSIDE through the gateway.

The Replication Manager is itself a replicated CORBA object group
(paper section 2), so an external, unreplicated administration client
can drive it through the gateway like any other group: create objects,
inspect properties, remove objects — with the manager's replicas kept
consistent by the same mechanisms.
"""

import json

import pytest

from repro import FtClientLayer, Orb, World
from repro.apps import COUNTER_INTERFACE, CounterServant
from repro.eternal import REPLICATION_MANAGER_GROUP
from repro.eternal.managers import REPLICATION_MANAGER_INTERFACE

from tests.helpers import make_domain


def admin_stub(world, domain, enhanced=True):
    host = world.add_host("admin-console")
    orb = Orb(world, host, request_timeout=None)
    ior = domain.interceptor.published_ior(
        REPLICATION_MANAGER_GROUP, REPLICATION_MANAGER_INTERFACE.repo_id)
    if enhanced:
        layer = FtClientLayer(orb, client_uid="admin/console")
        return layer.string_to_object(ior.to_string(),
                                      REPLICATION_MANAGER_INTERFACE)
    return orb.string_to_object(ior.to_string(),
                                REPLICATION_MANAGER_INTERFACE)


def test_external_admin_creates_object_group(world):
    domain = make_domain(world, gateways=1)
    domain.register_interface(COUNTER_INTERFACE)
    domain.register_factory("counter_factory", CounterServant)
    admin = admin_stub(world, domain)
    ior_string = world.await_promise(admin.call(
        "create_object", "AdminCounter", "Counter", "counter_factory",
        "active", 3, 2, 10, []), timeout=600)
    assert ior_string.startswith("IOR:")
    # The created group is live: invoke it through the same gateway.
    handle = domain.resolve("AdminCounter")
    assert world.await_promise(handle.invoke("increment", 4),
                               timeout=600) == 4


def test_external_admin_reads_properties(world):
    domain = make_domain(world, gateways=1)
    domain.register_interface(COUNTER_INTERFACE)
    domain.register_factory("counter_factory", CounterServant)
    admin = admin_stub(world, domain)
    world.await_promise(admin.call(
        "create_object", "X", "Counter", "counter_factory",
        "warm_passive", 2, 1, 10, []), timeout=600)
    props = json.loads(world.await_promise(
        admin.call("get_properties", "X"), timeout=600))
    assert props["style"] == "warm_passive"
    assert len(props["placement"]) == 2


def test_external_admin_removes_object(world):
    domain = make_domain(world, gateways=1)
    domain.register_interface(COUNTER_INTERFACE)
    domain.register_factory("counter_factory", CounterServant)
    admin = admin_stub(world, domain)
    world.await_promise(admin.call(
        "create_object", "Doomed", "Counter", "counter_factory",
        "active", 2, 1, 10, []), timeout=600)
    world.await_promise(admin.call("remove_object", "Doomed"), timeout=600)
    world.run(until=world.now + 0.5)
    assert domain.coordinator_rm().registry.by_name("Doomed") is None


def test_admin_survives_gateway_failover(world):
    domain = make_domain(world, gateways=2)
    domain.register_interface(COUNTER_INTERFACE)
    domain.register_factory("counter_factory", CounterServant)
    admin = admin_stub(world, domain, enhanced=True)
    world.await_promise(admin.call(
        "create_object", "A", "Counter", "counter_factory", "active", 2, 1,
        10, []), timeout=600)
    world.faults.crash_now(domain.gateways[0].host.name)
    props = world.await_promise(admin.call("get_properties", "A"),
                                timeout=600)
    assert json.loads(props)["group_id"] >= 10


def test_manager_replicas_stay_consistent_under_admin_load(world):
    domain = make_domain(world, gateways=1)
    domain.register_interface(COUNTER_INTERFACE)
    domain.register_factory("counter_factory", CounterServant)
    admin = admin_stub(world, domain)
    for i in range(4):
        world.await_promise(admin.call(
            "create_object", f"G{i}", "Counter", "counter_factory",
            "active", 2, 1, 10, []), timeout=600)
    world.run(until=world.now + 0.5)
    snapshots = set()
    for rm in domain.rms.values():
        if rm.alive:
            snapshots.add(tuple(sorted(
                g.name for g in rm.registry.all_groups())))
    assert len(snapshots) == 1
    assert {"G0", "G1", "G2", "G3"} <= set(snapshots.pop())
