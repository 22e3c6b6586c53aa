"""Tests for the FaultToleranceDomain public API surface."""

import pytest

from repro import ReplicationStyle, World
from repro.apps import COUNTER_INTERFACE, CounterServant
from repro.errors import ConfigurationError, TransientError

from tests.helpers import make_counter_group, make_domain


def test_resolve_by_handle_name_and_id(world):
    domain = make_domain(world)
    group = make_counter_group(domain)
    domain.await_ready(group)
    assert domain.resolve(group) is group
    assert domain.resolve("Counter").group_id == group.group_id
    assert domain.resolve(group.group_id).group_id == group.group_id


def test_resolve_unknown_group_raises(world):
    domain = make_domain(world)
    with pytest.raises(ConfigurationError):
        domain.resolve("Ghost")
    with pytest.raises(ConfigurationError):
        domain.resolve(424242)


def test_create_group_rejects_oversized_replication(world):
    domain = make_domain(world, num_hosts=3)
    with pytest.raises(ConfigurationError):
        domain.create_group("Big", COUNTER_INTERFACE, CounterServant,
                            num_replicas=7)


def test_explicit_placement_is_honoured(world):
    domain = make_domain(world, num_hosts=4)
    group = domain.create_group("Placed", COUNTER_INTERFACE, CounterServant,
                                placement=["dom-h3", "dom-h1"])
    domain.await_ready(group)
    assert group.info().placement == ("dom-h3", "dom-h1")
    assert world.await_promise(group.invoke("increment", 1)) == 1


def test_group_handles_have_useful_repr(world):
    domain = make_domain(world)
    group = make_counter_group(domain)
    assert "Counter" in repr(group)
    assert str(group.group_id) in repr(group)


def test_is_ready_transitions(world):
    domain = make_domain(world)
    group = make_counter_group(domain)
    domain.await_ready(group)
    assert group.is_ready()
    world.faults.crash_now(group.info().placement[0])
    world.run(until=world.now + 0.5)
    # Pruned placement: remaining replicas are ready -> still "ready".
    assert group.is_ready()


def test_invoke_on_never_ready_group_times_out(world):
    domain = make_domain(world, num_hosts=3)

    class Broken(CounterServant):
        pass

    # Its one replica's host dies, and with no minimum nothing replaces it.
    group = domain.create_group("Broken", COUNTER_INTERFACE, Broken,
                                placement=["dom-h0"], min_replicas=0)
    world.faults.crash_now("dom-h0")
    world.run(until=world.now + 0.5)
    promise = domain.invoke(group, "value", [], settle_timeout=1.0)
    with pytest.raises(TransientError):
        world.await_promise(promise, timeout=60)


def test_coordinator_moves_when_first_host_dies(world):
    domain = make_domain(world, num_hosts=3)
    first = domain.coordinator_rm()
    world.faults.crash_now(first.host.name)
    second = domain.coordinator_rm()
    assert second is not first
    assert second.alive


def test_no_live_host_raises(world):
    domain = make_domain(world, num_hosts=2)
    for host in list(domain.hosts):
        world.faults.crash_now(host.name)
    with pytest.raises(ConfigurationError):
        domain.coordinator_rm()


def test_two_domains_share_one_world_without_interference(world):
    a = make_domain(world, name="alpha")
    b = make_domain(world, name="beta")
    group_a = make_counter_group(a)
    group_b = make_counter_group(b)
    assert world.await_promise(group_a.invoke("increment", 1)) == 1
    assert world.await_promise(group_b.invoke("increment", 5)) == 5
    # Group ids may collide across domains; object keys must not.
    from repro.eternal import make_object_key
    assert make_object_key("alpha", group_a.group_id) != \
        make_object_key("beta", group_b.group_id)
