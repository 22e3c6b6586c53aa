"""Integration tests for the Replication, Resource and Evolution Managers."""

import json

import pytest

from repro import ReplicationStyle, World
from repro.apps import COUNTER_INTERFACE, CounterServant
from repro.errors import InvocationFailure
from repro.eternal import REPLICATION_MANAGER_GROUP
from repro.iiop import Ior

from tests.helpers import make_counter_group, make_domain, replica_counts


def test_replication_manager_is_itself_replicated(world):
    domain = make_domain(world)
    hosting = [h for h, rm in domain.rms.items()
               if REPLICATION_MANAGER_GROUP in rm.replicas]
    assert len(hosting) == 3


def test_create_object_via_corba_interface(world):
    """The runtime path: invoke create_object on the replicated manager
    group; the group becomes invocable and the returned IOR names it."""
    domain = make_domain(world, gateways=1)
    domain.register_interface(COUNTER_INTERFACE)
    domain.register_factory("counter_factory", CounterServant)
    ior_string = world.await_promise(domain.invoke(
        "EternalReplicationManager", "create_object",
        ["Counter", "Counter", "counter_factory", "active", 3, 2, 10, []]))
    assert ior_string.startswith("IOR:")
    ior = Ior.from_string(ior_string)
    assert ior.primary_profile().host == "dom-gw0"
    handle = domain.resolve("Counter")
    assert world.await_promise(handle.invoke("increment", 5)) == 5


def test_create_object_is_idempotent_across_manager_replicas(world):
    """Every manager replica executes create_object and multicasts the
    same announcement; the registry must hold exactly one entry."""
    domain = make_domain(world, gateways=1)
    domain.register_interface(COUNTER_INTERFACE)
    domain.register_factory("counter_factory", CounterServant)
    world.await_promise(domain.invoke(
        "EternalReplicationManager", "create_object",
        ["Counter", "Counter", "counter_factory", "active", 2, 1, 10,
         []]))
    world.run(until=world.now + 0.2)
    registries = [rm.registry for rm in domain.rms.values()]
    for registry in registries:
        matches = [g for g in registry.all_groups() if g.name == "Counter"]
        assert len(matches) == 1


def test_create_object_rejects_bad_style(world):
    domain = make_domain(world, gateways=1)
    with pytest.raises(InvocationFailure):
        world.await_promise(domain.invoke(
            "EternalReplicationManager", "create_object",
            ["X", "Counter", "f", "no_such_style", 2, 1, 10, []]))


def test_get_properties_reports_fault_tolerance_properties(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain, style=ReplicationStyle.WARM_PASSIVE)
    domain.await_ready(group)
    props = json.loads(world.await_promise(domain.invoke(
        "EternalReplicationManager", "get_properties", ["Counter"])))
    assert props["style"] == "warm_passive"
    assert props["group_id"] == group.group_id
    assert len(props["placement"]) == 3


def test_remove_object_deletes_group_everywhere(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    world.await_promise(group.invoke("increment", 1))
    world.await_promise(domain.invoke(
        "EternalReplicationManager", "remove_object", ["Counter"]))
    world.run(until=world.now + 0.2)
    for rm in domain.rms.values():
        assert group.group_id not in rm.replicas
        assert rm.registry.get(group.group_id) is None


def test_manager_survives_host_crash(world):
    domain = make_domain(world, num_hosts=4, gateways=1)
    domain.register_interface(COUNTER_INTERFACE)
    domain.register_factory("counter_factory", CounterServant)
    hosting = [h for h, rm in domain.rms.items()
               if REPLICATION_MANAGER_GROUP in rm.replicas]
    world.faults.crash_now(hosting[0])
    ior_string = world.await_promise(domain.invoke(
        "EternalReplicationManager", "create_object",
        ["Counter", "Counter", "counter_factory", "active", 2, 1, 10,
         []]))
    assert ior_string.startswith("IOR:")


def test_resource_manager_stops_when_no_candidates_left(world):
    domain = make_domain(world, num_hosts=3)
    group = make_counter_group(domain, replicas=3, min_replicas=3)
    world.await_promise(group.invoke("increment", 1))
    world.faults.crash_now(group.info().placement[0])
    world.run(until=world.now + 2.0)
    # Only two hosts remain: placement cannot reach 3 again, and the
    # resource manager must not loop forever or crash.
    assert len(group.info().placement) == 2
    assert world.await_promise(group.invoke("value")) == 1


def test_evolution_manager_rolling_upgrade(world):
    class CounterV2(CounterServant):
        def increment(self, amount):
            self.count += amount * 2
            return self.count

    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain)
    world.await_promise(group.invoke("increment", 5))
    domain.register_factory("factory.v2", CounterV2)
    version = world.await_promise(
        domain.evolution.upgrade_group("Counter", "factory.v2"), timeout=60)
    assert version == 2
    # State preserved, behaviour upgraded, all replicas on new code.
    assert world.await_promise(group.invoke("increment", 5)) == 15
    for rm in domain.rms.values():
        record = rm.replicas.get(group.group_id)
        if record is not None:
            assert type(record.servant).__name__ == "CounterV2"


def test_evolution_upgrade_keeps_group_available_throughout(world):
    class CounterV2(CounterServant):
        pass

    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain)
    world.await_promise(group.invoke("increment", 1))
    domain.register_factory("factory.v2", CounterV2)
    upgrade = domain.evolution.upgrade_group("Counter", "factory.v2")
    # Interleave invocations with the rolling upgrade.
    results = [world.await_promise(group.invoke("increment", 1), )
               for _ in range(5)]
    world.await_promise(upgrade, timeout=60)
    assert results == [2, 3, 4, 5, 6]
    assert set(replica_counts(domain, group).values()) == {6}


def test_upgrade_unknown_group_rejected(world):
    domain = make_domain(world)
    promise = domain.evolution.upgrade_group("Ghost", "factory.v2")
    with pytest.raises(InvocationFailure):
        world.await_promise(promise)


def test_create_object_with_properties_json(world):
    import json as json_module
    domain = make_domain(world, gateways=1)
    domain.register_interface(COUNTER_INTERFACE)
    domain.register_factory("counter_factory", CounterServant)
    properties = {
        "org.omg.ft.ReplicationStyle": "cold_passive",
        "org.omg.ft.InitialNumberReplicas": "2",
        "org.omg.ft.MinimumNumberReplicas": "1",
        "org.omg.ft.CheckpointInterval": "4",
    }
    ior = world.await_promise(domain.invoke(
        "EternalReplicationManager", "create_object_with_properties",
        ["PropGroup", "Counter", "counter_factory",
         json_module.dumps(properties)]), timeout=600)
    assert ior.startswith("IOR:")
    handle = domain.resolve("PropGroup")
    domain.await_ready(handle)
    info = handle.info()
    assert info.style.value == "cold_passive"
    assert len(info.placement) == 2
    assert info.min_replicas == 1
    assert info.checkpoint_interval == 4
    assert world.await_promise(handle.invoke("increment", 3),
                               timeout=600) == 3


def test_create_object_with_bad_properties_rejected(world):
    domain = make_domain(world, gateways=1)
    with pytest.raises(InvocationFailure):
        world.await_promise(domain.invoke(
            "EternalReplicationManager", "create_object_with_properties",
            ["Bad", "Counter", "f", "{\"org.omg.ft.Nope\": \"1\"}"]),
            timeout=600)
    with pytest.raises(InvocationFailure):
        world.await_promise(domain.invoke(
            "EternalReplicationManager", "create_object_with_properties",
            ["Bad2", "Counter", "f", "not json at all"]), timeout=600)
