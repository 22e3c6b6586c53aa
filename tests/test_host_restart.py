"""Tests: processor recovery and software restart within a domain."""

import pytest

from repro import ReplicationStyle, World
from repro.errors import ConfigurationError

from tests.helpers import make_counter_group, make_domain, replica_counts


def test_restarted_host_rejoins_ring_and_syncs(world):
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, replicas=3, min_replicas=3)
    world.await_promise(group.invoke("increment", 5))
    victim = group.info().placement[0]
    world.faults.crash_now(victim)
    world.run(until=world.now + 2.0)  # resource manager replaces elsewhere
    world.faults.recover_now(victim)
    rm = domain.restart_host(victim)
    domain.await_stable()
    assert rm.synced
    assert rm.registry.get(group.group_id) is not None
    # The ring includes the restarted member again.
    assert victim in domain.coordinator_rm().live_hosts


def test_restarted_host_can_host_replacement_replicas(world):
    domain = make_domain(world, num_hosts=3)
    group = make_counter_group(domain, replicas=3, min_replicas=3)
    world.await_promise(group.invoke("increment", 7))
    victim = group.info().placement[1]
    world.faults.crash_now(victim)
    world.run(until=world.now + 1.0)
    # Only 2 hosts remain: the group is stuck below its minimum.
    assert len(group.info().placement) == 2
    world.faults.recover_now(victim)
    domain.restart_host(victim)
    domain.await_stable()
    world.run(until=world.now + 2.0)
    # The resource manager placed a replica back on the restarted host
    # and state transfer rebuilt its state (not a fresh counter).
    info = group.info()
    assert victim in info.placement
    record = domain.rms[victim].replicas[group.group_id]
    assert record.ready
    assert record.servant.count == 7


def test_restart_requires_recovered_host(world):
    domain = make_domain(world, num_hosts=3)
    world.faults.crash_now("dom-h1")
    with pytest.raises(ConfigurationError):
        domain.restart_host("dom-h1")


def test_restart_of_running_host_rejected(world):
    domain = make_domain(world, num_hosts=3)
    with pytest.raises(ConfigurationError):
        domain.restart_host("dom-h0")


def test_restart_of_gateway_host_rejected(world):
    domain = make_domain(world, gateways=1)
    gateway_host = domain.gateways[0].host.name
    world.faults.crash_now(gateway_host)
    world.faults.recover_now(gateway_host)
    with pytest.raises(ConfigurationError):
        domain.restart_host(gateway_host)


def test_full_cycle_crash_recover_invoke(world):
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, replicas=3, min_replicas=2)
    world.await_promise(group.invoke("increment", 1))
    victim = group.info().placement[0]
    world.faults.crash_now(victim)
    assert world.await_promise(group.invoke("increment", 1)) == 2
    world.faults.recover_now(victim)
    domain.restart_host(victim)
    domain.await_stable()
    assert world.await_promise(group.invoke("increment", 1)) == 3
    world.run(until=world.now + 2.0)
    assert set(replica_counts(domain, group).values()) == {3}


@pytest.mark.parametrize("style", [ReplicationStyle.WARM_PASSIVE,
                                   ReplicationStyle.ACTIVE])
def test_a_processor_restarted_before_it_was_excluded_leaves_its_placements(
        style):
    """The primary is crashed and restarted 30 ms later, before the
    token-loss timeout, so the ring re-forms with the same members and
    nobody sees it leave.  Its fresh software hosts no replica: it
    withdraws from the placements its directory snapshot lists it in,
    the group fails over, the next call is answered, and the Resource
    Manager restores the group's count."""
    world = World(seed=5, flight=True)
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, style=style, replicas=3)
    assert world.await_promise(group.invoke("increment", 1)) == 1
    victim = group.info().primary(domain.coordinator_rm().live_hosts)
    world.faults.crash_now(victim)
    world.run(until=world.now + 0.03)
    world.faults.recover_now(victim)
    domain.restart_host(victim)
    assert world.await_promise(group.invoke("increment", 1), timeout=5) == 2
    world.run(until=world.now + 2.0)
    assert all(victim in rm.live_hosts
               for rm in domain.rms.values() if rm.alive)
    hosting = {name for name, rm in domain.rms.items()
               if rm.alive and group.group_id in rm.replicas}
    assert set(group.info().placement) == hosting and len(hosting) == 3
    assert set(replica_counts(domain, group).values()) == {2}
    world.audit(strict=True)
